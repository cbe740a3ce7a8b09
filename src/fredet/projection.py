"""Projection (Galerkin-type) methods for the Poisson/Green's-kernel benchmark.

The integral operator with the Green's kernel of -u'' = f, u(0) = u(1) = 0
has the explicit spectrum lambda_n = 1/(pi^2 n^2) with eigenfunctions
sqrt(2) sin(n pi x); its Fredholm determinant is det(I - zA) =
sin(sqrt z)/sqrt z.  Two projection discretizations are reproduced here as
convergence baselines for the quadrature method:

* Ritz-Galerkin on the eigenfunctions: a finite eigenvalue product, with
  the sharp a priori error bound 1/(pi^2 m) at z = -1.
* Galerkin on L2-normalized Legendre polynomials: a pentadiagonal-pattern
  matrix with closed-form entries (nonzeros only at |i-j| in {0, 2}).

Both converge to sin(1) at z = -1 like O(1/m); the quadrature method does
strictly better on this kernel, which is the point of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import det_lu

__all__ = [
    "GreenSpectrum",
    "green_spectrum",
    "ritz_galerkin_green",
    "galerkin_legendre_green",
    "legendre_galerkin_matrix",
]


@dataclass(frozen=True)
class GreenSpectrum:
    """Leading eigenvalues 1/(pi^2 n^2), n = 1..m, of the Green's operator."""

    m: int
    eigenvalues: np.ndarray


def green_spectrum(m: int) -> GreenSpectrum:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    n = np.arange(1, m + 1, dtype=float)
    lam = 1.0 / (np.pi * np.pi * n * n)
    lam.setflags(write=False)
    return GreenSpectrum(m=m, eigenvalues=lam)


def ritz_galerkin_green(m: int, z: complex | float = -1.0) -> complex | float:
    """Ritz-Galerkin determinant prod_{n<=m} (1 + z / (pi^2 n^2))."""
    lam = green_spectrum(m).eigenvalues
    value = np.prod(1.0 + z * lam)
    return complex(value) if isinstance(z, complex) else float(value)


def legendre_galerkin_matrix(m: int) -> np.ndarray:
    """Matrix elements of the Green's operator in the L2(0,1)-orthonormal
    Legendre basis.  Diagonal: 1/12, 1/60, then a_n = 1/(2(2n+1)(2n+5))
    for n = 1, 2, ...; second off-diagonals b_n = -1/(4(2n+3) sqrt((2n+1)(2n+5)));
    zero elsewhere."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    mat = np.zeros((m, m))
    diag = np.empty(m)
    diag[0] = 1.0 / 12.0
    if m > 1:
        diag[1] = 1.0 / 60.0
    if m > 2:
        n = np.arange(1, m - 1, dtype=float)
        diag[2:] = 1.0 / (2.0 * (2.0 * n + 1.0) * (2.0 * n + 5.0))
    np.fill_diagonal(mat, diag)
    if m > 2:
        n = np.arange(0, m - 2, dtype=float)
        b = -1.0 / (4.0 * (2.0 * n + 3.0) * np.sqrt((2.0 * n + 1.0) * (2.0 * n + 5.0)))
        idx = np.arange(m - 2)
        mat[idx, idx + 2] = b
        mat[idx + 2, idx] = b
    return mat


def galerkin_legendre_green(m: int, z: complex | float = -1.0) -> complex | float:
    """Galerkin determinant det(I + z <phi_i, A phi_j>) in the Legendre basis."""
    mat = legendre_galerkin_matrix(m)
    b = np.eye(m) + z * mat
    value = det_lu(b)
    return value if isinstance(z, complex) else float(np.real(value))
