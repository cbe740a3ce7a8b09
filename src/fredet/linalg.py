"""Dense small-matrix kernel: determinants, norms, and the roundoff bound.

Matrices are plain numpy arrays (real or complex), and every
factorization is LAPACK through numpy: LU with partial pivoting for
general matrices (``getrf``, one matrix or a stack), Cholesky for the
Hermitian positive definite case (``potrf``), and the SVD for the trace
norm (``gesdd``; used in bounds and tests, never in the hot path).
numpy rather than ``scipy.linalg``, whose import alone costs tens of
milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetResult",
    "NotPositiveDefiniteError",
    "det_lu",
    "det_cholesky",
    "frobenius_norm",
    "trace_norm",
    "roundoff_bound",
    "UNIT_ROUNDOFF",
    "DEFAULT_EPS_MULTIPLE",
]

#: IEEE double unit roundoff.
UNIT_ROUNDOFF = 2.0 ** -53

#: Safety factor applied to the unit roundoff in reported determinant
#: bounds ("a small multiple" of the unit roundoff; 8 is a reporting
#: convention, see the docs).
DEFAULT_EPS_MULTIPLE = 8.0


class NotPositiveDefiniteError(ArithmeticError):
    """Cholesky hit a non-positive pivot: the matrix is not positive definite."""


@dataclass(frozen=True)
class DetResult:
    """Determinant value with an a posteriori roundoff bound.

    ``roundoff_bound`` is ``sqrt(m) * ||zA||_F * 8u`` for the perturbation
    zA of the matrix I + zA actually factorized, with u the unit roundoff
    and 8 the fixed multiple ``DEFAULT_EPS_MULTIPLE``.  ``method`` names the
    factorization that produced the value: ``"cholesky"``, ``"lu"``, or
    ``"cholesky->lu"`` when Cholesky found the matrix not positive
    definite and LU took over.
    """

    value: complex | float
    m: int
    roundoff_bound: float
    method: str = "lu"


def _as_square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def det_lu(a):
    """Determinant by LU with partial (row) pivoting (LAPACK ``getrf``).

    ``a`` is one square matrix or a ``(k, n, n)`` stack of them; a stack
    gives the k determinants as an array from one call.  The determinant
    is an exact 0 when a pivot column vanishes.  Real input gives real
    values and complex input complex values.  Raises OverflowError when a
    determinant is not finite, as ``det_cholesky`` does.
    """
    arr = np.asarray(a)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(arr)
    if not np.all(np.isfinite(det)):
        raise OverflowError("determinant is not finite: the LU factors overflowed")
    if arr.ndim == 3:
        return det
    return complex(det) if np.iscomplexobj(det) else float(det)


def det_cholesky(a) -> float:
    """Determinant of a Hermitian positive definite matrix via Cholesky
    (LAPACK ``potrf``).

    Only the lower triangle is referenced.  Raises
    ``NotPositiveDefiniteError`` when the factorization breaks down, so
    the factorization itself certifies positive definiteness; callers fall
    back to ``det_lu`` in that case.
    """
    a = _as_square(a)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    diag = np.diagonal(low).real
    # product form keeps full accuracy for determinants of moderate size;
    # fall back to the exp(logdet) only on under/overflow
    prod = math.prod((diag * diag).tolist())
    if 0.0 < prod < math.inf:
        return prod
    return math.exp(2.0 * float(np.sum(np.log(diag))))


def frobenius_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm ``(sum |a_jk|^2)^(1/2)``."""
    a = np.asarray(a)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def trace_norm(a) -> float:
    """Trace (nuclear) norm: the sum of singular values (LAPACK ``gesdd``)."""
    return float(np.sum(np.linalg.svd(_as_square(a), compute_uv=False)))


def roundoff_bound(m: int, norm: float) -> float:
    """The a posteriori bound ``sqrt(m) * norm * 8u`` on the error of a
    determinant det(I + zA) of order m, norm = ||zA||_F, caused by backward
    roundoff in its factorization: the bound of every determinant the
    library returns."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (math.isfinite(norm) and norm >= 0.0):
        raise ValueError(f"norm ||zA||_F must be finite and >= 0, got {norm}")
    return math.sqrt(m) * norm * DEFAULT_EPS_MULTIPLE * UNIT_ROUNDOFF
