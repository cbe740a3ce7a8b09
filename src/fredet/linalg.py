"""Dense small-matrix kernel: determinants, norms, and the roundoff bound.

Matrices are plain numpy arrays (real or complex).  Everything here is
written for the small, well-scaled systems produced by the quadrature
discretization: LU with partial pivoting (LAPACK, one matrix or a stack),
Cholesky for the Hermitian positive definite case, and a one-sided Jacobi
SVD for singular values and the trace norm (used in bounds and tests,
never in the hot path).
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
    the configured multiple of the unit roundoff.
    """

    value: complex | float
    m: int
    roundoff_bound: float


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
    """Determinant of a Hermitian positive definite matrix via Cholesky.

    Only the lower triangle is referenced.  Raises
    ``NotPositiveDefiniteError`` on a non-positive pivot, so the
    factorization itself certifies positive definiteness; callers fall
    back to ``det_lu`` in that case.
    """
    a = _as_square(a)
    m = a.shape[0]
    dtype = complex if np.iscomplexobj(a) else float
    low = np.zeros((m, m), dtype=dtype)
    logdet = 0.0
    for j in range(m):
        d = a[j, j].real - np.sum(np.abs(low[j, :j]) ** 2)
        if d <= 0.0 or not math.isfinite(d):
            raise NotPositiveDefiniteError(
                f"non-positive pivot {d!r} at step {j}")
        ljj = math.sqrt(d)
        low[j, j] = ljj
        if j + 1 < m:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ np.conj(low[j, :j])) / ljj
        logdet += 2.0 * math.log(ljj)
    # product form keeps full accuracy for determinants of moderate size;
    # fall back to the exp(logdet) only on under/overflow
    prod = 1.0
    ok = True
    for j in range(m):
        prod *= float(low[j, j].real) ** 2
        if prod == 0.0 or math.isinf(prod):
            ok = False
            break
    return prod if ok else math.exp(logdet)


def frobenius_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm ``(sum |a_jk|^2)^(1/2)``."""
    a = np.asarray(a)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def singular_values(a, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """All singular values (descending) by one-sided Jacobi rotations.

    Slow but simple and very accurate for the small dense matrices used
    here; relative accuracy is far better than the 1e-10 needed by the
    trace-norm consumers up to m = 100.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    dtype = complex if np.iscomplexobj(a) else float
    u = a.astype(dtype, copy=True)
    n = u.shape[1]
    for _sweep in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                up = u[:, p]
                uq = u[:, q]
                alpha = float(np.real(np.vdot(up, up)))
                beta = float(np.real(np.vdot(uq, uq)))
                gamma = np.vdot(up, uq)
                gabs = abs(gamma)
                if gabs <= tol * math.sqrt(alpha * beta) or gabs == 0.0:
                    continue
                rotated = True
                phase = gamma / gabs
                zeta = (beta - alpha) / (2.0 * gabs)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(zeta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = c * t
                new_p = c * up - s * np.conj(phase) * uq
                new_q = s * phase * up + c * uq
                u[:, p] = new_p
                u[:, q] = new_q
        if not rotated:
            break
    sv = np.sqrt(np.sum(np.abs(u) ** 2, axis=0))
    return np.sort(sv)[::-1]


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
