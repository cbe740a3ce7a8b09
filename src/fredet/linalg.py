"""Dense small-matrix kernel: determinants, norms, and the roundoff bound.

Matrices are plain numpy arrays (real or complex), and every
factorization is LAPACK through numpy: LU with partial pivoting for
general matrices (``getrf``) and Cholesky for the Hermitian positive
definite case (``potrf``), both of one matrix or a stack, and the SVD
for the trace norm (``gesdd``; used in bounds and tests, not hot paths).
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


def _as_square(a, ndims=(2,)) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
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
    arr = _as_square(a, (2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(arr)
    if not np.isfinite(det).all():
        raise OverflowError("determinant is not finite: the LU factors overflowed")
    if arr.ndim == 3:
        return det
    return complex(det) if np.iscomplexobj(det) else float(det)


def det_cholesky(a):
    """Determinant of a Hermitian positive definite matrix via Cholesky
    (LAPACK ``potrf``); of a ``(k, n, n)`` stack, the k determinants from
    one call as an array, each with the bits of its matrix's own call.

    Only the lower triangle is referenced, unless a determinant overflows:
    ``det_lu`` of that whole matrix then raises its OverflowError.  Raises
    ``NotPositiveDefiniteError`` when any factorization breaks down, so it
    certifies positive definiteness; callers fall back to ``det_lu`` then.
    """
    a = _as_square(a, (2, 3))
    stack = a if a.ndim == 3 else a[None]
    try:
        low = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    diag = low.diagonal(0, 1, 2).real
    # product form keeps full accuracy for determinants of moderate size;
    # fall back to the exp(logdet) only on under/overflow
    dets = [math.prod(row) for row in (diag * diag).tolist()]
    for k, det in enumerate(dets):
        if not 0.0 < det < math.inf:
            try:
                dets[k] = math.exp(2.0 * float(np.sum(np.log(diag[k]))))
            except OverflowError:
                dets[k] = det_lu(stack[k])  # raises, unless its product of pivots rounds below inf
    return np.array(dets) if a.ndim == 3 else dets[0]


def frobenius_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm ``(sum |a_jk|^2)^(1/2)``; OverflowError if not finite."""
    with np.errstate(over="ignore"):  # an overflow raises below, not as a RuntimeWarning
        norm = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    if not math.isfinite(norm):
        raise OverflowError("Frobenius norm is not finite")
    return norm


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
