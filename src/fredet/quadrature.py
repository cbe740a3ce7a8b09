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

def _legendre_with_derivative(m: int, x):
    """P_m(x) and P_m'(x) from their three-term recurrences,

        j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2},
        P_j'  = P_{j-2}' + (2j - 1) P_{j-1},

    vectorized over the points x."""
    p0, p1 = np.ones_like(x), x.copy()
    d0, d1 = np.zeros_like(x), np.ones_like(x)
    for j in range(2, m + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        d0, d1 = d1, d0 + (2 * j - 1) * p0
    return p1, d1


@lru_cache(maxsize=128)
def _gauss_legendre_unit(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1] by
    Newton iteration on P_m from asymptotic initial guesses; the weights
    are 2 / ((1 - x^2) P_m'(x)^2).  O(m^2).

    Against 40-digit references over m = 1..400 the nodes are within
    1.1e-16 and the weights within a relative 4.6e-12; a Golub-Welsch (QL)
    rule measured the same way reaches 1.5e-15 and 1.1e-11.
    """
    k = np.arange(1, m + 1)
    x = (1.0 - (m - 1.0) / (8.0 * m**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * m + 2.0))
    for _ in range(100):
        p, dp = _legendre_with_derivative(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_with_derivative(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # ascending, symmetrized about the midpoint, total mass 2
    x, w = x[::-1], w[::-1]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(a: float, b: float, m: int) -> QuadRule:
    """m-point Gauss-Legendre rule on [a, b]; order ``nu = 2m``."""
    _check_interval(a, b)
    if m < 1:
        raise ValueError("m must be >= 1")
    x, w = _gauss_legendre_unit(int(m))
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
