"""Dense small-matrix kernel: determinants, norms, and the roundoff bound.

Matrices are plain numpy arrays (real or complex), and every
factorization is LAPACK through numpy: LU with partial pivoting for
general matrices (``getrf``, one matrix or a stack), Cholesky for the
Hermitian positive definite case (``potrf``), and the SVD for singular
values and the trace norm (``gesdd``; used in bounds and tests, never in
the hot path).  numpy rather than ``scipy.linalg``, whose import alone
costs tens of milliseconds.
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
    "singular_values",
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

    ``roundoff_bound`` is ``sqrt(m) * ||A||_F * eps`` for the perturbation
    matrix A actually factorized (scaled by z where applicable), with eps
    the configured multiple of the unit roundoff.  ``method`` names the
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
    values and complex input complex values.
    """
    arr = np.asarray(a)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    det = np.linalg.det(arr)
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


def singular_values(a) -> np.ndarray:
    """All singular values, descending (LAPACK ``gesdd``)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return np.linalg.svd(a, compute_uv=False)


def trace_norm(a) -> float:
    """Trace (nuclear) norm: the sum of singular values."""
    a = _as_square(a)
    return float(np.sum(singular_values(a)))


def roundoff_bound(a, eps: float) -> float:
    """A posteriori bound ``sqrt(m) * ||A||_F * eps`` on the determinant
    error of ``det(I - A)`` caused by backward roundoff of size eps."""
    a = _as_square(a)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    m = a.shape[0]
    return math.sqrt(m) * frobenius_norm(a) * eps
