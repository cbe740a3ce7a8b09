"""One-dimensional quadrature rules and induced n-dimensional product rules.

Provides Gauss-Legendre and Clenshaw-Curtis rules on a finite interval
``[a, b]``, rule application ``Q(f) = sum w_j f(x_j)``, and the tensor
product rule ``Q^n`` used by the determinant series oracle.

Both families have positive weights.  An m-point Gauss-Legendre rule is
exact for polynomials of degree ``2m - 1`` (order ``nu = 2m``); the
m-point Clenshaw-Curtis rule on the Chebyshev extreme points is exact
for degree ``m - 1`` (order ``nu = m``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadRule",
    "ResourceLimitError",
    "gauss_legendre",
    "clenshaw_curtis",
    "quad_apply",
    "product_quad",
    "PRODUCT_RULE_CAP",
]

#: Default cap on the total number of product-rule evaluation points.
PRODUCT_RULE_CAP = 10_000_000

_EPS = np.finfo(float).eps


class ResourceLimitError(RuntimeError):
    """A product rule would exceed the configured evaluation-point cap."""


@dataclass(frozen=True)
class QuadRule:
    """An m-point quadrature rule ``Q(f) = sum_j w_j f(x_j)`` on [a, b].

    Attributes
    ----------
    a, b : float
        Interval endpoints, ``b > a``.
    nodes : ndarray
        Strictly increasing nodes inside ``[a, b]``.
    weights : ndarray
        Positive weights, same length as ``nodes``; they sum to ``b - a``.
    order : int
        Polynomial exactness: the rule integrates all polynomials of
        degree ``< order`` exactly.
    """

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise ValueError(f"invalid interval [{a}, {b}]")
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length >= 1")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not np.all(weights > 0.0):
            raise ValueError("all weights must be positive")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        tol = 16.0 * _EPS * max(abs(a), abs(b), b - a)
        if nodes[0] < a - tol or nodes[-1] > b + tol:
            raise ValueError("nodes must lie inside [a, b]")
        if abs(float(weights.sum()) - (b - a)) > 10.0 * _EPS * (b - a):
            raise ValueError("weights must sum to b - a (exactness on constants)")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        """Number of quadrature points."""
        return self.nodes.size


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------

def _tridiag_eig_first_components(d, e):
    """Eigenvalues of a symmetric tridiagonal matrix and the first components
    of its orthonormal eigenvectors, by QL iteration with implicit shifts.

    Only the first row of the eigenvector matrix is accumulated, which is
    all the Golub-Welsch weight formula needs; the cost is O(m^2) rather
    than the O(m^3) of a full eigenvector computation.

    Parameters
    ----------
    d : ndarray, shape (m,)
        Diagonal entries (destroyed).
    e : ndarray, shape (m-1,)
        Off-diagonal entries (destroyed).

    Returns
    -------
    (eigenvalues, first_components), both shape (m,), eigenvalues ascending.
    """
    m = d.size
    d = d.astype(float).copy()
    e = np.append(e.astype(float), 0.0)
    z = np.zeros(m)
    z[0] = 1.0
    for l in range(m):
        for _iteration in range(60):
            mm = l
            while mm < m - 1:
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) <= _EPS * dd:
                    break
                mm += 1
            if mm == l:
                break
            # implicit shift from the 2x2 block at l
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[mm] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(mm - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[mm] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[mm] = 0.0
        else:
            raise RuntimeError("tridiagonal QL iteration failed to converge")
    idx = np.argsort(d, kind="stable")
    return d[idx], z[idx]


def _legendre_newton_unit(m: int):
    """Nodes/weights of the m-point Gauss-Legendre rule on [-1, 1] by
    Newton iteration on the Legendre polynomial with asymptotic initial
    guesses.  O(m^2) with vectorized inner recurrences; used for large m
    where the pure-Python QL loop gets slow."""
    k = np.arange(1, m + 1)
    x = (1.0 - (m - 1.0) / (8.0 * m**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * m + 2.0))
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, m + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = m * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    return x[idx], w[idx]


@lru_cache(maxsize=128)
def _gauss_legendre_unit(m: int, method: str):
    if method == "golub-welsch" or (method == "auto" and m <= 300):
        # Jacobi matrix of the Legendre weight: zero diagonal and
        # off-diagonal beta_k = k / sqrt((2k-1)(2k+1))
        k = np.arange(1.0, m)
        beta = k / np.sqrt((2.0 * k - 1.0) * (2.0 * k + 1.0))
        x, z = _tridiag_eig_first_components(np.zeros(m), beta)
        w = 2.0 * z * z
    elif method in ("newton", "auto"):
        x, w = _legendre_newton_unit(m)
    else:
        raise ValueError(f"unknown gauss-legendre method {method!r}")
    # symmetrize about the midpoint and renormalize to total mass 2
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(a: float, b: float, m: int, method: str = "auto") -> QuadRule:
    """m-point Gauss-Legendre rule on [a, b]; order ``nu = 2m``.

    ``method`` selects the node/weight algorithm: ``"golub-welsch"`` runs a
    symmetric tridiagonal QL iteration that tracks only the first
    eigenvector components (O(m^2)); ``"newton"`` root-finds the Legendre
    polynomial with vectorized recurrences.  ``"auto"`` uses Golub-Welsch
    up to m = 300 and Newton beyond.  Both agree to ~1e-15.
    """
    _check_interval(a, b)
    if m < 1:
        raise ValueError("m must be >= 1")
    x, w = _gauss_legendre_unit(int(m), method)
    return _map_from_unit(a, b, x, w, order=2 * m)


# ---------------------------------------------------------------------------
# Clenshaw-Curtis
# ---------------------------------------------------------------------------

def _cc_weights_fft(m: int):
    """Clenshaw-Curtis weights on [-1, 1] via the inverse FFT (Waldvogel,
    BIT 46 (2006) 195-202), in descending node order."""
    n = m - 1
    if n == 1:
        return np.array([1.0, 1.0])
    odd = np.arange(1.0, n, 2.0)
    l = odd.size
    k = n - l
    v0 = np.concatenate([2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(k)])
    v2 = -v0[:-1] - v0[:0:-1]
    g0 = -np.ones(n)
    g0[l] += n
    g0[k] += n
    g = g0 / (n * n - 1 + (n % 2))
    w = np.fft.ifft(v2 + g).real
    return np.append(w, w[0])


@lru_cache(maxsize=128)
def _clenshaw_curtis_unit(m: int):
    n = m - 1
    # Chebyshev extreme points cos(k pi / (m-1)), returned ascending
    x = np.cos(np.pi * np.arange(n, -1.0, -1.0) / n)
    w = _cc_weights_fft(m)[::-1].copy()  # match ascending node order
    w *= 2.0 / w.sum()
    # pin the endpoints exactly
    x[0], x[-1] = -1.0, 1.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def clenshaw_curtis(a: float, b: float, m: int) -> QuadRule:
    """m-point Clenshaw-Curtis rule on [a, b] (closed, endpoints included);
    order ``nu = m``.  Requires ``m >= 2``."""
    _check_interval(a, b)
    if m < 2:
        raise ValueError("clenshaw-curtis requires m >= 2")
    x, w = _clenshaw_curtis_unit(int(m))
    return _map_from_unit(a, b, x, w, order=m)


def _check_interval(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if b <= a:
        raise ValueError(f"invalid interval: need b > a, got [{a}, {b}]")


def _map_from_unit(a, b, x, w, order):
    """Affine map of a [-1, 1] rule onto [a, b]."""
    mid = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    return QuadRule(a=a, b=b, nodes=mid + halfwidth * x,
                    weights=halfwidth * w, order=order)


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def quad_apply(rule: QuadRule, f: Callable[[float], float]) -> float:
    """Apply the rule: ``Q(f) = sum_j w_j f(x_j)``.

    ``f`` may be vectorized over an ndarray of nodes; if it is not, it is
    called once per node.  A non-finite value of ``f`` at any node raises
    ``ValueError`` naming the offending nodes.
    """
    vals = _eval_at_nodes(f, rule.nodes)
    if not np.all(np.isfinite(vals)):
        bad = rule.nodes[~np.isfinite(vals)]
        raise ValueError(f"integrand returned non-finite values at nodes {bad}")
    return float(rule.weights @ vals)


def _eval_at_nodes(f, nodes):
    try:
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape == nodes.shape:
            return vals
    except (TypeError, ValueError, IndexError):
        pass
    return np.array([float(f(x)) for x in nodes])


def product_quad(rule: QuadRule, n: int, f: Callable[..., float],
                 cap: int = PRODUCT_RULE_CAP) -> float:
    """Apply the n-dimensional product rule induced by ``rule``:

        Q^n(f) = sum_{j1..jn} w_{j1} ... w_{jn} f(x_{j1}, ..., x_{jn})

    The total point count ``m^n`` must not exceed ``cap`` (default 1e7),
    else ``ResourceLimitError`` is raised.  Accumulation uses compensated
    (fsum) summation so the result is independent of evaluation order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = rule.m
    if m ** n > cap:
        raise ResourceLimitError(
            f"product rule needs {m}^{n} = {m ** n} points, over the cap {cap}")
    if n == 1:
        return quad_apply(rule, f)
    nodes = rule.nodes.tolist()
    weights = rule.weights.tolist()
    terms = []
    for idx in itertools.product(range(m), repeat=n):
        w = math.prod(weights[j] for j in idx)
        terms.append(w * f(*(nodes[j] for j in idx)))
    return math.fsum(terms)
