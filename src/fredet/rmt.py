"""Random-matrix distributions computed from Fredholm determinants.

* ``e2_gap``    -- bulk gap probability E2(0; s) = det(I - A) with the sine
  kernel on (0, s).
* ``f2_tw``     -- Tracy-Widom distribution F2(s) = det(I - A) with the Airy
  kernel on (s, inf), by either the tan-transformation to (0, 1) or by
  truncating the interval at a point T.
* ``truncation_bound`` -- the computable Hilbert-Schmidt tail bound
  (int_T^inf int_T^inf K(x,y)^2)^(1/2) controlling the truncation route.
* ``airy2_joint`` / ``airy1_joint`` -- joint distributions
  P(A(t) <= s1, A(0) <= s2) of the Airy(2) / Airy(1) processes as 2x2
  operator determinants, by Schur complements on I - A_0 (``_JointTable``).
* ``cov_airy2`` / ``cov_airy1`` -- two-point correlation functions
  cov(A(t), A(0)), via the covariance identity

      cov = int int [P(A(t) <= s1, A(0) <= s2) - P(A(t) <= s1) P(A(0) <= s2)]
            ds1 ds2

  over a truncated box, with all probabilities evaluated by determinants
  at outer Gauss-Legendre nodes and refinement until two levels agree;
  thresholds whose joints a Frechet bound puts below a level's roundoff
  floor are left out of it (``_tail_drop``).
* ``tw_moments`` -- mean and variance of F2 by partially-integrated moment
  formulas (no numerical differentiation of F2).

Every Airy(2) matrix -- the marginals behind F2, ``tw_moments`` and the
covariances, and the joint systems -- is built on the *head* of the tan map
only: the nodes x = s + 10 tan(pi xi / 2) (``_MAP_SCALE``) <= X = 20 for
the smallest threshold s of the call (``_head``).  Past X the Airy kernel
and K_t, t > 0, have underflowed, so the other nodes would add unit rows
and columns that cost O(m^3) and change no determinant beyond entries
below 3e-22 (``_HEAD_CUT``).  Airy(1) keeps every node.  On the head,
K_t (t > 0), the oscillatory K_{-t} (t >= 0.75) and the Laplace-branch
K_{-t} (0 < t < 0.75) less its closed Gaussian are of numerical rank
17-90, so the joint table takes every kernel from a Chebyshev factor
(``_ChebyshevFactor``) instead of its 60-480-node inner rule, as it
takes Airy(1)'s from factors of their Airy parts (``_airy1_kernels``).

What does not depend on t sits in a ``_Level``: thresholds, the pairs of
them a table takes, and the inverses of exactly their pivots.  A single
joint's level is built per call; a covariance rung once per process
(``_level``, keyed on (process, m, n_outer, box, scale)), shared by every
t and call, as are the Airy(2) pair K_t, K_{-t} (``_airy2_kernels``),
unless its build warned, and the Airy(1) pair (``_airy1_kernels``), each
keyed on (t, effective x_min): the Airy(2) inner rules have one tolerance
at every accuracy (``Airy2ProcessKernel._RULE_TOL``).  Cached arrays are
read-only, and a warm call returns the bits of a cold one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                      KernelEvaluationError, SineKernel, TransformedKernel)
from .linalg import (DEFAULT_EPS_MULTIPLE, UNIT_ROUNDOFF, DetResult, det_lu,
                     frobenius_norm, roundoff_bound)
# fredholm_det_system and _balance_blocks are not called here: they stay
# bound only because the benchmark's tracer (perfbench/tracing.py) patches
# them in this module by name
from .nystrom import (NystromProblem, _balance_blocks, _check_finite_kernel, _det_result,
                      fredholm_det, fredholm_det_system)
from .quadrature import _gauss_legendre_unit, gauss_legendre
from .specfun import airy_ai

__all__ = [
    "DistributionPoint",
    "CovGrid",
    "e2_gap",
    "f2_tw",
    "truncation_bound",
    "airy2_joint",
    "airy1_joint",
    "tw_moments",
    "cov_airy2",
    "cov_airy1",
    "cov_grid",
    "DEFAULT_BOX",
    "AIRY1_BOX",
]

#: Truncation box for F2-based moment/covariance integrals: F2 tails are
#: below 1e-12 outside it.
DEFAULT_BOX = (-10.0, 6.0)

#: Box for the Airy(1) process (its marginal has shorter tails and larger
#: kernels at strongly negative arguments, so the box is kept tighter).
AIRY1_BOX = (-6.0, 5.5)

_PROB_SLACK = 1e-10
#: The tan-map scale of every call but ``f2_tw(scale=)``'s: ``_HEAD_CUT``'s bound is stated at 10.
_MAP_SCALE = 10.0


@dataclass(frozen=True)
class DistributionPoint:
    """A probability value at one parameter point.

    ``suspect`` flags values outside [-1e-10, 1 + 1e-10] before clamping
    (values are never silently clamped), and values whose Hermitian
    determinant fell back from Cholesky to LU (``DetResult.method ==
    "cholesky->lu"``): roundoff has then swamped the positive definiteness
    of I - A, and with it the relative accuracy of a tail value.  A single
    joint at t != 0 is also flagged where it breaks a Frechet bound by
    more than its error bounds allow (``_JointTable.joint``).
    """

    parameter: float
    value: float
    m: int
    est_error: float
    suspect: bool = False


@dataclass(frozen=True)
class CovGrid:
    """Two-point correlation values on an ascending t grid."""

    t_values: np.ndarray
    cov_values: np.ndarray
    est_errors: np.ndarray
    accuracy_target: float


def _det_point(parameter: float, res) -> DistributionPoint:
    """The point of a z = -1 determinant ``res`` (a DetResult)."""
    v = float(res.value.real)
    suspect = (res.method == "cholesky->lu"
               or not (-_PROB_SLACK <= v <= 1.0 + _PROB_SLACK))
    return DistributionPoint(parameter=float(parameter), value=v, m=res.m,
                             est_error=float(res.roundoff_bound), suspect=suspect)


# ---------------------------------------------------------------------------
# E2 and F2
# ---------------------------------------------------------------------------

def e2_gap(s: float, m: int) -> DistributionPoint:
    """Gap probability E2(0; s): sine-kernel determinant at z = -1 on (0, s),
    assembled and factored as ``fredholm_det`` does (``_det_result``) on the
    cached unit rule under ``_map_from_unit``'s map: the bits of
    ``gauss_legendre(0, s, m)``, but no rule per call.  1 at a subnormal s,
    whose weights round to 0; OverflowError from s ~ 1e150 on."""
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s must be finite and >= 0, got {s}")
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    if s == 0.0:
        return DistributionPoint(parameter=0.0, value=1.0, m=0, est_error=0.0)
    x, w = _gauss_legendre_unit(int(m))
    half = 0.5 * s  # the mid and the halfwidth of (0, s)
    nodes, sw = half + half * x, np.sqrt(half * w)
    k = SineKernel().matrix(nodes, nodes)
    _check_finite_kernel(k)
    b = -sw[:, None] * k * sw[None, :]  # -A_Q, whose norm is ||A_Q||_F
    norm = frobenius_norm(b)
    b.flat[::m + 1] += 1.0  # b = I - A_Q
    return _det_point(s, _det_result(b[None], [norm], hermitian=True)[0])


def f2_tw(s: float, m: int, route: str = "transform", scale: float | None = None,
          T: float | None = None) -> DistributionPoint:
    """Tracy-Widom distribution F2(s): Airy-kernel determinant at z = -1
    on (s, inf).

    route="transform" maps (s, inf) to (0, 1) by the tan map of
    ``TransformedKernel`` with ``scale`` (None means ``_MAP_SCALE``), as the Airy(2)
    marginal (``_marginal_points``); route="truncate" works on the finite
    interval (s, T) and needs T > s (the committed error is bounded by
    ``truncation_bound``).  Each route rejects the other's parameter.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if route == "transform":
        if T is not None:
            raise ValueError("T applies only to route='truncate'")
        return _marginal_points("airy2", [s], m, _MAP_SCALE if scale is None else scale)[2][0]
    if route == "truncate":
        if scale is not None:
            raise ValueError("scale applies only to route='transform'")
        if T is None:
            raise ValueError("route='truncate' requires a truncation point T")
        if not s < T < math.inf:
            raise ValueError(f"need T > s with T finite, got T={T}, s={s}")
        rule = gauss_legendre(s, T, m)
        res = fredholm_det(NystromProblem(AiryKernel(), (s, T), -1.0, rule))
        return _det_point(s, res)
    raise ValueError(f"unknown route {route!r} (expected 'transform' or 'truncate')")


def truncation_bound(s: float, T: float) -> float:
    """Hilbert-Schmidt tail bound (int_T^inf int_T^inf K(x,y)^2 dx dy)^(1/2)
    on the F2 error of truncating the Airy-kernel operator at T > s, for a
    finite s: ||A||_F of the tan-mapped Airy matrix on (T, inf) at 80
    nodes and scale ``_MAP_SCALE`` (``_tan_map``)."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not s < T < math.inf:
        raise ValueError(f"need T > s with T finite, got T={T}, s={s}")
    offsets, rr = _tan_map(80, _MAP_SCALE)
    x = T + offsets
    return frobenius_norm(rr * AiryKernel().matrix(x, x))


# ---------------------------------------------------------------------------
# Airy process joint distributions
# ---------------------------------------------------------------------------

def _process_kernels(process: str, t: float, x_min: float):
    """The off-diagonal kernels K_t and K_{-t} of a joint system whose
    thresholds are all >= ``x_min``, as ``_JointTable`` reads them, from
    ``_airy2_kernels`` at the effective x_min min(x_min, -10) or
    ``_airy1_kernels`` at min(x_min, 0)."""
    if process == "airy2":
        try:
            return _airy2_kernels(t, min(x_min, Airy2ProcessKernel._X_MIN_CEILING))
        except _Uncached as warned:
            return warned.args[0]
    if process == "airy1":
        return _airy1_kernels(t, min(x_min, 0.0))
    raise ValueError(f"unknown process {process!r} (expected 'airy2' or 'airy1')")


class _Uncached(Exception):
    """Carries, as its one argument, the factors of a pair whose build warned
    out of ``_airy2_kernels``, which caches no exception: each build warns."""


@lru_cache(maxsize=64)
def _airy2_kernels(t: float, x_min: float):
    """K_t and K_{-t} of Airy(2) as ``_JointTable`` reads them, cached on
    (t, x_min): the ``_chebyshev_factor`` s (3-10 ms at x_min =
    -10) of ``Airy2ProcessKernel`` s with ``x_min`` (at most -10, as the
    kernel lowers it), sampled through their inner rules.  The Laplace
    branch's is that of P_t, less the kernel's Gaussian.  Without a factor
    in reach it raises ArithmeticError; a pair with ``achieved_tol`` above
    ``_RULE_TOL`` has warned, and its factors are raised as ``_Uncached``.
    Resolving Ai on [x_min, ``_HEAD_CUT``] takes ~sqrt|x_min| (``_HEAD_CUT``
    - x_min) / 2 points; past twice ``_FACTOR_MAX_NODES`` (x_min < -148) it
    raises before any kernel is built, unless Ai is NaN there (below
    -1e205), which the kernel's probes name."""
    missed = f"no Chebyshev factor of Airy(2) at t={t:g}, x_min={x_min:g}"
    if (math.sqrt(-x_min) * (_HEAD_CUT - x_min) > 4 * _FACTOR_MAX_NODES
            and math.isfinite(airy_ai(x_min))):
        raise ArithmeticError(missed)
    kt, kmt = kernels = Airy2ProcessKernel(t, x_min), Airy2ProcessKernel(-t, x_min)
    laplace = kmt._mode == "laplace"
    tol = max(_FACTOR_TOL, kmt.achieved_tol) if laplace else _FACTOR_TOL
    factors = (_chebyshev_factor(partial(_sampled, kt), kt.x_min, _HEAD_CUT),
               _chebyshev_factor(partial(_sampled, kmt), kmt.x_min, _HEAD_CUT, tol=tol,
                                 gaussian_part=kmt.gaussian_part if laplace else None))
    if None in factors:
        raise ArithmeticError(missed)
    if not all(k.achieved_tol <= k._RULE_TOL for k in kernels):
        raise _Uncached(factors)
    return factors


def _airy1_cut(t: float) -> float:
    """C(t), past which in x + y the Airy(1) factors' rows are 0: 24 up to
    t = 0.42, 32.5 at t = 2.5, 54.7 at t = 10.  K_t's Airy part is Ai(v)
    e^{(2/3) v^(3/2)} e^{-d^2 (2d + 3t) / 3}, v = x + y + t^2, d = sqrt(v) - t:
    its first factor is at most Ai(0) < 1 and its exponent falls from 0 at
    x + y = 0, so it is below 1e-30 (1.3e-31 at C, t <= 20) once
    d^2 (2d + 3t) >= 3 ln 1e30, at x + y = d (d + 2t).  |K_{-t}| <= Ai(x + y)
    <= Ai(24) = 1.2e-35 there.  A node past C - x_min meets every node
    >= x_min in a sum past C: its zero rows and columns stand in for the
    kernel's to 1e-30 before the tan map's weights.  np.roots loses d from t ~
    1e17 on: past t = 1e4 d^2 = (L/t) / (1 + e y), L = ln 1e30, e = (2/3)
    sqrt(L) t^-1.5, y = d sqrt(t/L), by two steps from y = 1."""
    if t <= 1e4:
        d = float(np.max(np.roots([2.0, 3.0 * t, 0.0, -3.0 * math.log(1e30)]).real))
        return max(24.0, d * (d + 2.0 * t))
    e = 2.0 / 3.0 * math.sqrt(math.log(1e30)) * t ** -1.5
    d = math.sqrt(math.log(1e30) / t / (1.0 + e / math.sqrt(1.0 + e)))
    return d * d + 2.0 * d * t


@lru_cache(maxsize=64)
def _airy1_kernels(t: float, x_min: float):
    """Airy(1)'s K_t and K_{-t}, t > 0: ``_chebyshev_factor`` s on [x_min,
    ``_airy1_cut``(t) - x_min], cached on (t, x_min), of parts at most 0.54.
    K_t's is of its Airy part, sampled directly: its ``gaussian_part``, the
    heat term, dominates from x ~ 3 on and would take digits with it.
    K_{-t}'s is of Ai(x+y+t^2) with rate -t: a factor of K_{-t} itself (6e7
    at t = 2.5, x + y = -12) erred by ~1e-15 of that everywhere.  Without a
    factor in reach it raises ArithmeticError: no inner rule is left."""
    kt, k0 = Airy1ProcessKernel(t), Airy1ProcessKernel(0.0)
    x_max, shift = _airy1_cut(t) - x_min, t * t
    factors = (_chebyshev_factor(lambda x: kt.airy_part(x[:, None], x), x_min, x_max,
                                 gaussian_part=kt.gaussian_part),
               _chebyshev_factor(lambda x: k0.airy_part(x[:, None] + x + shift, 0.0), x_min, x_max,
                                 rate=-t))
    if None in factors:
        raise ArithmeticError(f"no Chebyshev factor of Airy(1) at t={t:g}, x_min={x_min:g}")
    return factors


#: Kernel entries, basis entries (rows times inner size) or interpolation
#: entries (rows times Chebyshev points) per evaluation call when a level,
#: table or factor builds its per-point data (``_eye_minus_a0``, whose call
#: holds all its blocks, ``_interpolation``, ``_sampled``).  One call per
#: threshold pays per-call overhead, one per grid peak memory: on cov-airy2,
#: 16k points put peak RSS ~0.3 MB above per-threshold calls, 8k ~0.1 MB
#: below; whole-grid I - A_0 for Airy(1) took cov-airy1 1.7 MB above.
_EVAL_CHUNK = 1 << 13
#: Schur-complement entries per LU call of the joint rows (``_dets``), 512 KB: a warm
#: cov_airy2(1) takes 3 calls, 8% faster than 19 at 8k; a fresh cov_airy2(0.1) peaks +0.4 MB.
_SCHUR_CHUNK = 1 << 16


@lru_cache(maxsize=64)
def _tan_map(m: int, scale: float):
    """The ``TransformedKernel`` map phi_s at the m-point Gauss-Legendre
    nodes xi on (0, 1), taken at s = 0: the offsets phi_s(xi) - s, and the
    outer product rr of r = sqrt(w phi'(xi)), so that
    rr * K(s1 + offsets, s2 + offsets) is the Nystrom block of K on
    (s1, inf) x (s2, inf).  The offsets ascend, so the head of a call
    (``_head``) is a leading slice of both arrays.  Built once per
    (m, scale), never per s; the arrays are read-only."""
    rule = gauss_legendre(0.0, 1.0, m)
    tan_map = TransformedKernel(AiryKernel(), 0.0, scale=scale)
    offsets = tan_map.phi(rule.nodes)
    r = np.sqrt(rule.weights * tan_map.dphi(rule.nodes))
    return _frozen(offsets), _frozen(np.outer(r, r))


#: The cut X of the Airy(2) head (``_head``).  A dropped node has
#: x = s_min + offset > X for the smallest threshold s_min of its call.  The
#: Airy kernel K_0 and K_t, t > 0, are positive semidefinite (K_t is
#: int_0^inf e^{-xi t} Ai(x+xi) Ai(y+xi) dxi), so by Cauchy-Schwarz
#: |K_t(x, y)| <= sqrt(K_0(x, x) K_0(y, y)), and K_0(x, x) falls with x
#: (its derivative is -Ai(x)^2).  Every dropped entry r_p r_q K_t(x_p, y_q)
#: of A_0 or of the K_{|t|} block is therefore at most
#: r_max^2 sqrt(K_0(X, X) K_0(s_min, s_min)), r = sqrt(w phi'), with
#: K_0(20, 20) = 3.2e-55: below 3e-22 for m <= 200 at scale 10 and
#: s_min >= -12, where the measured entries stay below 4e-28.  X is also
#: the upper end of every Airy(2) ``_ChebyshevFactor``.
_HEAD_CUT = 20.0


#: Chebyshev points of the first and the largest ``_chebyshev_factor``,
#: and its agreement with the kernel's samples on the probe grid, relative
#: to max(1, |K|).
_FACTOR_FIRST_NODES = 64
_FACTOR_MAX_NODES = 512
_FACTOR_TOL = 16.0 * np.finfo(float).eps
#: Relative eigenvalue size below which a factor drops a term.
_FACTOR_CUT = 1e-16


class _ChebyshevFactor:
    """K(x, y) = sum_k lambda_k v_k(x) v_k(y) on [x_min, x_max]^2 for the
    analytic, symmetric part of a kernel K: its kept eigenpairs sampled on
    N = ``points`` Chebyshev points, each v_k the barycentric interpolant of
    its eigenvector (Berrut & Trefethen, SIAM Review 46, 2004), stable on
    Chebyshev points, times the exact row scaling e^{rate x + rate^3/3}.

    It stands in for the kernel in ``_JointTable``: ``basis`` gives the
    v_k at the nodes, ``inner_weights`` the lambda_k and ``inner_size`` the
    rank, so a block is ``(basis(x) * inner_weights) @ basis(y).T`` with
    tens of terms where an inner rule has 60-480, less ``gaussian_part``
    (None, Airy(1)'s heat term or the Laplace-branch K_{-t}'s Gaussian).
    Rows past x_max are 0: the factored part has vanished there, and such
    a node gives a unit row or column of a joint system (``_head``,
    ``_airy1_cut``).  ``basis`` raises ValueError below x_min, as the
    kernel's does.  The arrays are read-only."""

    def __init__(self, x_min: float, x_max: float, vectors, values, rate: float = 0.0,
                 gaussian_part=None):
        self.x_min, self.x_max = x_min, x_max
        self.points = vectors.shape[0]
        self._vectors = _frozen(vectors)
        self.inner_weights = _frozen(values)
        self.inner_size = values.size
        self.rate, self.gaussian_part = rate, gaussian_part

    def basis(self, xs, interpolation=None) -> np.ndarray:
        """v_k(xs[..., i]) for every kept term k, 0 past x_max (a scatter only
        where some point is), from the ``_interpolation`` matrix given or new."""
        x = np.asarray(xs, dtype=float).ravel()
        if interpolation is None:
            interpolation = _interpolation(x, self.x_min, self.x_max, self.points)
        inside = x <= self.x_max
        rows = interpolation @ self._vectors
        if self.rate:
            with np.errstate(under="ignore", over="ignore"):  # rate^3 is -inf past t ~ 5e102
                rows *= np.exp(self.rate * x[inside] + np.float64(self.rate) ** 3 / 3.0)[:, None]
        if not inside.all():
            rows, kept = np.zeros((x.size, self.inner_size)), rows
            rows[inside] = kept
        return rows.reshape(*np.shape(xs), self.inner_size)


def _chebyshev_points(a: float, b: float, n: int):
    """The n Chebyshev points of the second kind on [a, b], ascending, with
    both ends exact, and their barycentric weights (-1)^j, halved at the
    ends."""
    x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(n) / (n - 1))
    x[0], x[-1] = a, b
    w = np.where(np.arange(n) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    return x, w


def _barycentric(x, nodes, weights) -> np.ndarray:
    """The matrix that maps values at ``nodes`` to their polynomial
    interpolant at the points x, by the second barycentric formula; a point
    on a node takes that node's value."""
    d = x[:, None] - nodes
    hit = d == 0.0
    d[hit] = 1.0
    c = weights / d
    c /= np.sum(c, axis=1, keepdims=True)
    on_node = np.any(hit, axis=1)
    c[on_node] = hit[on_node]
    return c


def _interpolation(x, x_min: float, x_max: float, n: int) -> np.ndarray:
    """The ``_barycentric`` matrix from the n Chebyshev points on [x_min,
    x_max] to the points of the 1-d x at or below x_max, in calls of at
    most ``_EVAL_CHUNK`` entries; read-only.  Every factor of N = n points
    on [x_min, x_max] shares it.  Raises ValueError below x_min."""
    if x.size and np.min(x) < x_min:
        raise ValueError(f"factor is built for arguments >= x_min={x_min:g}, got {np.min(x):g}")
    x, (nodes, weights) = x[x <= x_max], _chebyshev_points(x_min, x_max, n)
    out, step = np.empty((x.size, n)), max(1, _EVAL_CHUNK // n)
    for lo in range(0, x.size, step):
        out[lo:lo + step] = _barycentric(x[lo:lo + step], nodes, weights)
    return _frozen(out)


def _sampled(source, x) -> np.ndarray:
    """K(x_i, x_j) from ``source.basis`` (a kernel's or a factor's) and
    ``source.inner_weights``, without a Gaussian term, the basis in calls
    of at most ``_EVAL_CHUNK`` entries."""
    rows = max(1, _EVAL_CHUNK // max(1, source.inner_size))
    b = np.empty((x.size, source.inner_size))
    for lo in range(0, x.size, rows):
        b[lo:lo + rows] = source.basis(x[lo:lo + rows])
    return (b * source.inner_weights) @ b.T


def _chebyshev_factor(sample, x_min: float, x_max: float, rate: float = 0.0,
                      gaussian_part=None, tol: float = _FACTOR_TOL):
    """The ``_ChebyshevFactor`` on [x_min, x_max], with ``rate`` and
    ``gaussian_part``, of the values ``sample(x)`` at every pair of the 1-d
    points x, or None if none within reach matches them.

    N doubles from ``_FACTOR_FIRST_NODES`` until the factor of the kept
    eigenpairs (|lambda| > ``_FACTOR_CUT`` max |lambda|) of the samples on
    N Chebyshev points matches the samples to ``tol`` max(1, |K|) at every
    pair of a 61-point probe grid; past ``_FACTOR_MAX_NODES`` there is
    none.  ``tol`` is ``_FACTOR_TOL`` but for samples that round above it:
    the Laplace branch's P_t rounds at eps |P| (|P| is 555 at t = 0.74,
    x_min = -10), as its kernel's ``achieved_tol`` states, and takes the
    larger of the two.  Samples that vanish give rank 0.  The Airy(2)
    kernels of t in {0.1, 0.5, +-0.76, +-1, +-2.5} at x_min in {-10, -14,
    -20} take 128 points, but K_{-0.76} at -20, which takes 256; P_t of t in
    [0.02, 0.74] at x_min = -10 takes 128 points at rank 17-22."""
    probes = np.linspace(x_min, x_max, 61)
    want = sample(probes)
    n = _FACTOR_FIRST_NODES
    while n <= _FACTOR_MAX_NODES:
        nodes, _ = _chebyshev_points(x_min, x_max, n)
        values, vectors = np.linalg.eigh(sample(nodes))
        kept = np.abs(values) > _FACTOR_CUT * np.max(np.abs(values))
        factor = _ChebyshevFactor(x_min, x_max, vectors[:, kept], values[kept])
        got = _sampled(factor, probes)
        if np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= tol:
            return _ChebyshevFactor(x_min, x_max, factor._vectors, factor.inner_weights, rate,
                                    gaussian_part)
        n *= 2
    return None


def _head(process: str, svals, offsets) -> int:
    """The number of leading tan-map nodes a call with thresholds ``svals``
    keeps: those with min(svals) + offset <= ``_HEAD_CUT`` for Airy(2),
    every node for Airy(1), whose K_0 = Ai(x + y) would need a cut that
    depends on the pair.

    The head of the smallest threshold holds the head of every other, so
    one size serves the whole stack.  Leaving the other nodes out is
    exact up to the dropped entries: in I - A_0 they are unit rows and
    columns; in a joint (always taken at t > 0, ``_joint_point``) the
    time-t threshold's give unit rows (their K_0 and K_t entries vanish)
    and the time-0 threshold's unit columns, so expanding along them
    removes the nodes although the ridge block K_{-t} does not vanish
    there."""
    if process != "airy2":
        return offsets.size
    # at least one node, so that no matrix is empty
    return max(1, int(np.searchsorted(offsets, _HEAD_CUT - np.min(svals), side="right")))


def _eye_minus_a0(process: str, svals, offsets, rr):
    """I - A_0 at each threshold s of ``svals``, stacked (n, h, h) on the
    head of the call (``_head``), with ``offsets`` and ``rr`` from
    ``_tan_map``: the diagonal blocks of every joint system and the
    matrices of the marginals.  A_0 is K_0 on (s, inf); K_0 is the Airy
    kernel itself for Airy(2) (its closed factorized form, no inner
    quadrature) and Ai(x + y) for Airy(1).  Each stacked kernel-matrix
    call covers as many thresholds as fit in ``_EVAL_CHUNK`` entries.

    Returns the blocks and ||A_0||_F at each threshold, taken before I is
    added: on the diagonal of I - A_0 the entries of A_0 have rounded to
    ulps of 1; a non-finite one raises ``KernelEvaluationError``."""
    k0 = AiryKernel() if process == "airy2" else Airy1ProcessKernel(0.0)
    h = _head(process, svals, offsets)
    x = np.asarray(svals, dtype=float)[:, None] + offsets[:h]
    rr = rr[:h, :h]
    out = np.empty((x.shape[0], h, h))
    norms = np.empty(x.shape[0])
    step = max(1, _EVAL_CHUNK // (h * h))
    for lo in range(0, x.shape[0], step):
        xc = x[lo:lo + step]
        a0 = rr * k0.matrix(xc, xc)
        norms[lo:lo + step] = np.sqrt(np.sum(a0 * a0, axis=(1, 2)))
        np.subtract(np.eye(h), a0, out=out[lo:lo + step])
    if not np.isfinite(norms).all():
        raise KernelEvaluationError(f"kernel returned non-finite values at thresholds "
                                    f"{np.asarray(svals)[~np.isfinite(norms)][:8].tolist()}")
    return out, norms


def _marginal_points(process: str, svals, m: int, scale: float):
    """P(A(0) <= s) = det(I - A_0) at each threshold s of ``svals``, from
    one ``_eye_minus_a0`` call on the head of them all, by the determinant
    step of ``fredholm_det`` (``_det_result``) on the whole stack: Cholesky,
    or LU flagged suspect for a block whose own Cholesky fails, with the
    roundoff bound sqrt(m) ||A_0||_F 8u at the rule size m.  Returns the
    I - A_0 blocks, ||A_0||_F and the points."""
    blocks, norms = _eye_minus_a0(process, svals, *_tan_map(m, scale))
    return blocks, norms, [_det_point(s, res) for s, res
                           in zip(svals, _det_result(blocks, norms, hermitian=True, m=m))]


def _marginal(process: str, s: float, m: int, scale: float = _MAP_SCALE) -> float:
    """P(A(t) <= s) for the stationary process: the one-operator determinant
    with the K_0 kernel on (s, inf)."""
    return _marginal_points(process, [s], m, scale)[2][0].value


def _joint_point(process: str, t: float, s1: float, s2: float, m: int) -> DistributionPoint:
    """``airy2_joint`` / ``airy1_joint``, on the tan map at ``_MAP_SCALE``."""
    # before any kernel, factor or cache sees min(s1, s2)
    for name, s in (("s1", s1), ("s2", s2)):
        if not math.isfinite(s):
            raise ValueError(f"threshold {name} must be finite, got {s}")
    if t == 0.0:
        # At coinciding times the joint degenerates to the marginal at
        # min(s1, s2); the t -> 0 limit of the block determinant reproduces
        # it only through a delta contribution in K_{-t}, so the block
        # system is bypassed here.  The marginal's roundoff bound and
        # Cholesky-to-LU flag carry over.
        s = min(s1, s2)
        point = _marginal_points(process, [s], m, _MAP_SCALE)[2][0]
        return replace(point, parameter=0.0, m=2 * m)
    # stationarity and time reversal make the joint even in t, so every t
    # takes the table at |t|: -t and t give one point, bit for bit
    kernels = _process_kernels(process, abs(t), min(s1, s2))
    level = _Level(process, sorted((s1, s2)), m, _MAP_SCALE, [(0, 1)])
    return replace(_JointTable(abs(t), kernels, level).joint(), parameter=float(t))


def airy2_joint(t: float, s1: float, s2: float, m: int) -> DistributionPoint:
    """P(A_2(t) <= s1, A_2(0) <= s2) as the 2x2 block determinant with
    blocks [[A_0, A_t], [A_{-t}, A_0]] on L2(s1, inf) + L2(s2, inf), at map scale ``_MAP_SCALE``."""
    return _joint_point("airy2", t, s1, s2, m)


def airy1_joint(t: float, s1: float, s2: float, m: int) -> DistributionPoint:
    """P(A_1(t) <= s1, A_1(0) <= s2); same block structure and tan map
    with the closed-form Airy(1) kernels."""
    return _joint_point("airy1", t, s1, s2, m)


# ---------------------------------------------------------------------------
# Tracy-Widom moments
# ---------------------------------------------------------------------------

def tw_moments() -> tuple[float, float]:
    """(mean, variance) of the Tracy-Widom distribution F2.

    Both moments come from partially integrated truncations over the box
    (L, U) = ``DEFAULT_BOX``, read at call time,

        E[X]   = U - int_L^U F(s) ds,
        E[X^2] = U^2 - 2 int_L^U s F(s) ds,

    evaluated with 96 outer Gauss-Legendre nodes and F2 at m = 48; F2
    itself is never differentiated.  They leave out only the tails past
    the box: int_U^inf (1 - F) ds ~ 8e-13 in E[X] and int_U^inf 2s (1 - F)
    ds ~ 9e-12 in E[X^2], as 1 - F2(6) = 3.8e-12, and below 1e-35 below L,
    as F2(-10) = 4e-37.  The computed tails F2(L) and 1 - F2(U) must be
    below 1e-11 or ValueError is raised with their values.
    """
    low, up = DEFAULT_BOX
    rule = gauss_legendre(low, up, 96)
    points = _marginal_points("airy2", [low, up, *rule.nodes], 48, _MAP_SCALE)[2]
    f_low, f_up = points[0].value, points[1].value
    if f_low > 1e-11 or 1.0 - f_up > 1e-11:
        raise ValueError(
            f"moment box {(low, up)} too narrow: F2(L) = {f_low:.3e}, "
            f"1 - F2(U) = {1.0 - f_up:.3e}")
    fvals = np.array([p.value for p in points[2:]])
    mean = up - float(rule.weights @ fvals)
    second = up * up - 2.0 * float(rule.weights @ (rule.nodes * fvals))
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# Two-point correlation functions
# ---------------------------------------------------------------------------

def _legendre_cumulative(rule) -> np.ndarray:
    """Cumulative spectral-integration matrix C of a Gauss-Legendre rule on
    (a, b): (C f)_j = int_a^{x_j} p(s) ds, with p the polynomial of degree
    < n interpolating f at the n nodes x_j, so C integrates polynomials of
    degree < n exactly.

    With x the nodes mapped to (-1, 1), p = sum_k c_k P_k has Legendre
    coefficients c_k = (2k+1)/2 sum_j w_j P_k(x_j) f_j (Gauss quadrature
    is exact for these products), and each P_k integrates in closed form:
    (2k+1) int_{-1}^x P_k = P_{k+1}(x) - P_{k-1}(x) for k >= 1, x + 1 for
    k = 0.
    """
    n = rule.m
    x = (2.0 * rule.nodes - (rule.a + rule.b)) / (rule.b - rule.a)
    legendre = np.empty((n + 1, n))  # P_k(x_j), k = 0..n
    legendre[0] = 1.0
    legendre[1] = x
    for k in range(1, n):
        legendre[k + 1] = ((2 * k + 1) * x * legendre[k] - k * legendre[k - 1]) / (k + 1)
    # (2k+1)/2 int_{-1}^{x_j} P_k; the rule's weights carry the (b - a)/2
    integrals = np.empty((n, n))
    integrals[0] = 0.5 * (x + 1.0)
    integrals[1:] = 0.5 * (legendre[2:] - legendre[:-2])
    return integrals.T @ (legendre[:n] * rule.weights)


class _JointTable:
    """Joint determinants P(A(t) <= s_i, A(0) <= s_j) at t > 0 of the pairs
    of a ``_Level``, with the ``_ChebyshevFactor`` s of K_t and K_{-t} that
    ``_process_kernels`` gives: the one joint-determinant path of both
    processes, for single pairs (``airy2_joint`` / ``airy1_joint``, which
    take a negative t to |t|) and covariance grids alike.

    The level holds per threshold s M = I - A_0 on the head of its
    thresholds (``_head``: the same h nodes at every one), det(M), and M^-1
    at each pivot; the constructor adds the bases of K_t and K_{-t} at the
    head nodes, weighted in place by the tan map's r = sqrt(w phi'): U = r B,
    B from the level's ``interpolations``.  Each joint is det(M_j) det(M_i -
    A_ij M_j^-1 A_ji), pivoting on the larger threshold s_j (the
    better-conditioned block), from a row's ``_blocks`` (``joint``) or, with
    each pivot's M_j^-1 folded into K_t's factor, its ``_folded`` products
    (``grid``), in the Schur-complement stacks of ``_dets``.  These are
    unchanged by the exact similarity A_ij -> 2^k A_ij, A_ji -> 2^-k A_ji,
    so rows need no balancing.  Time reversal, P(s_i, s_j) = P(s_j, s_i),
    lets ``grid`` mirror the pairs and a single joint's level order its pair."""

    def __init__(self, t: float, kernels, level):
        if not t > 0.0:
            raise ValueError("joint table expects t > 0")
        self.t, self.level, self._det = float(t), level, level.marg[level.keep]
        self.kt, self.kmt = kernels
        # U[i, p] = r_p B(x_ip), stacked (n, h, inner size); sqrt(fl(r^2)) is r
        x, r, self._u = level.x.ravel(), np.sqrt(np.diagonal(level.rr))[:, None], []
        keys = [(f.x_min, f.x_max, f.points) for f in kernels]
        interpolations = level.interpolations(keys)
        for f, key in zip(kernels, keys):
            self._u.append(f.basis(x, interpolations[key]).reshape(*level.x.shape, f.inner_size))
            self._u[-1] *= r

    def grid(self) -> np.ndarray:
        """The joints of the level's pairs (s_i, s_j) at [i, j] and, by time
        reversal, [j, i]; NaN off the pairs; from the ``_folded`` rows."""
        joint, (i, j) = np.full((self.level.s.size,) * 2, np.nan), self.level.pairs.T
        joint[i, j] = joint[j, i] = self._dets(map(self._folded, self.level.rows))
        return joint

    @cached_property
    def _folds(self) -> np.ndarray:
        """W_j = Lambda U_t[j]^T M_j^-1 of each pivot j, (rank, pivots h): (M^-T U_t Lambda)^T."""
        w = np.swapaxes(self.level.inverses, 1, 2) @ self._u[0][self.level._pivots]
        w *= self.kt.inner_weights
        return w.reshape(-1, w.shape[2]).T

    @cached_property
    def _umt_t(self) -> np.ndarray:
        """Lambda U_-t^T, (rank, n h): K_{-t}'s weighted basis transposed, for ``_folded``."""
        return (self._u[1].reshape(self.level.x.size, -1) * self.kmt.inner_weights).T.copy()

    def _block(self, k, row):
        # [j, q, p] = r_q K(x_jq, x_ip) r_p, K = K_t (k = 0) or K_{-t} (k = 1) less its Gaussian
        lv, (i, lo, hi, _), u, src = self.level, row, self._u[k], (self.kt, self.kmt)[k]
        h, c = lv.offsets.size, hi - lo
        block = (u[lo:hi].reshape(c * h, src.inner_size)
                 @ (u[i] * src.inner_weights).T).reshape(c, h, h)
        if src.gaussian_part is not None:
            block -= lv.rr * src.gaussian_part(lv.x[lo:hi, :, None], lv.x[i])
        return block

    def _blocks(self, row):
        """The off-diagonal blocks A_ij and A_ji of the systems I - A of a row's
        pairs, each stacked (hi - lo, h, h); K_t is symmetric: A_ij is a transpose."""
        return self._block(0, row).transpose(0, 2, 1), self._block(1, row)

    def _folded(self, row):
        """A_ij M_j^-1 = U_t[i] W_j (``_folds``), less the heat term's, and A_ji:
        its transposes U_-t[i] (Lambda U_-t^T)[:, j] (``_umt_t``) from one wide product
        for the row, less its Gaussian, copied row-major."""
        lv, (i, lo, hi, p), h = self.level, row, self.level.offsets.size
        fold = self._u[0][i] @ self._folds[:, p * h:(p + hi - lo) * h]
        fold = fold.reshape(h, hi - lo, h).transpose(1, 0, 2)
        if self.kt.gaussian_part is not None:
            heat = lv.rr * self.kt.gaussian_part(lv.x[i][:, None], lv.x[lo:hi, None])
            fold -= heat @ lv.inverses[p:p + hi - lo]
        # [p, j, q] = r_p K_{-t}(x_jq, x_ip) r_q: A_ji^T, laid out (h, hi - lo, h)
        a_ji = (self._u[1][i] @ self._umt_t[:, lo * h:hi * h]).reshape(h, -1, h)
        if self.kmt.gaussian_part is not None:
            a_ji -= lv.rr[:, None] * self.kmt.gaussian_part(lv.x[lo:hi], lv.x[i][:, None, None])
        return fold, a_ji.transpose(1, 2, 0).copy()

    def _dets(self, rows) -> np.ndarray:
        """det(M_j) det(M_i - (A_ij M_j^-1) A_ji) of the level's pairs, in order,
        from ``rows``, each row's (A_ij M_j^-1, A_ji), in Schur-complement stacks
        of ``_SCHUR_CHUNK`` entries (at least one pair) that span rows."""
        h, left = self.level.offsets.size, len(self.level.pairs)
        step = min(max(1, _SCHUR_CHUNK // (h * h)), left)
        schur, out, k = np.empty((step, h, h)), [], 0
        rows = iter(rows)  # next() holds one row's blocks at a time, a zip two
        for i, lo, hi, _ in self.level.rows:
            # A_ij M_j^-1 first: the other order erred 200x more at Airy(1), t = 2.5, m = 20
            fold, a_ji = next(rows)
            while lo < hi:
                c = min(hi - lo, step - k)
                part = np.matmul(fold[:c], a_ji[:c], out=schur[k:k + c])
                np.subtract(self.level.eye_minus_a0[i], part, out=part)
                fold, a_ji, lo, k, left = fold[c:], a_ji[c:], lo + c, k + c, left - c
                if k == step or not left:
                    out.append(det_lu(schur[:k]))
                    k = 0
            del fold, a_ji  # before the next row's blocks
        return self._det[self.level.pairs[:, 1]] * np.concatenate(out)

    def joint(self) -> DistributionPoint:
        """The joint of a single joint's level, its one pair (s1, s2), s1 <=
        s2 (time reversal makes the order exact), pivoting on s2, the one
        block its level inverts: ``_dets`` of (A_12 M_2^-1, A_21) from its
        ``_blocks``, as ``grid`` gives its rows.  Its roundoff bound is
        sqrt(2m) N 8u, with N = (||A_11||^2 + ||A_22||^2 + 2 ||A_12||
        ||A_21||)^(1/2) the least Frobenius norm of its system over the
        block scalings A_12 -> c A_12, A_21 -> A_21 / c, c > 0, which keep
        the determinant; ||A_11|| and ||A_22|| are those of A_0, taken
        before I is added.  Flagged ``suspect`` also where it breaks a
        Frechet bound, F1 + F2 - 1 <= P <= min(F1, F2), by more than the sum
        of its own and both marginals' roundoff bounds and 8u |value|."""
        lv = self.level
        a12, a21 = self._blocks(lv.rows[0])
        norm = math.sqrt(lv.norms @ lv.norms + 2.0 * frobenius_norm(a12) * frobenius_norm(a21))
        (value,) = self._dets([(a12 @ lv.inverses, a21)])
        point = _det_point(self.t, DetResult(value, 2 * lv.m, roundoff_bound(2 * lv.m, norm)))
        # each value also rounds by ~u |value|, which its roundoff bound (a
        # backward error of the matrix) leaves out: near 1 that dominates
        slack = sum(e + DEFAULT_EPS_MULTIPLE * UNIT_ROUNDOFF * abs(v)
                    for v, e in ((point.value, point.est_error), *zip(lv.marg, lv.bounds)))
        f1, f2 = lv.marg
        if not f1 + f2 - 1.0 - slack <= point.value <= min(f1, f2) + slack:
            point = replace(point, suspect=True)
        return point


def _tail_drop(marg, bounds, weights):
    """The outer thresholds a covariance level integrates over, and the
    bound B on what leaving out the others moves the level by.

    For any joint law the Frechet bounds max(0, F_i + F_j - 1) <= P_ij <=
    min(F_i, F_j) give |P_ij - F_i F_j| <= min(g_i, g_j), with
    g_i = min(|F_i|, |1 - F_i|) + e_i covering the roundoff bound e_i of
    the computed marginal F_i.  A threshold set D left out of the box sum
    sum_ij w_i w_j (P_ij - F_i F_j) therefore moves it by at most
    B = 2 (sum_j w_j) sum_{i in D} w_i g_i.  The thresholds with the
    smallest g_i go as long as B stays at most the level's own roundoff
    floor (sum_j w_j)^2 max_i e_i.  Returns (keep mask, B).

    The bound holds for the exact joints; a level too coarse to resolve
    the dropped ones also loses their discretization error (see
    ``cov_airy2``)."""
    g = np.minimum(np.abs(marg), np.abs(1.0 - marg)) + bounds
    total = float(np.sum(weights))
    order = np.argsort(g, kind="stable")
    cost = 2.0 * total * np.cumsum(weights[order] * g[order])
    floor = total * total * float(np.max(bounds))
    n_drop = int(np.searchsorted(cost, floor, side="right"))
    keep = np.ones(marg.size, dtype=bool)
    keep[order[:n_drop]] = False
    return keep, float(cost[n_drop - 1]) if n_drop else 0.0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Level:
    """The t-independent data of thresholds ``svals`` and the pairs (i, j)
    of them, s_i <= s_j, whose joints a ``_JointTable`` takes, each
    pivoting on s_j: a covariance rung's triangle (``_level``, cached, with
    its ``outer`` rule and ``marginals``) or a single joint's pair.

    * ``marg``, ``bounds`` and ``norms``: the marginals F(s_i), their
      roundoff bounds and ||A_0||_F, from I - A_0 stacked on the head of
      every threshold (``_marginal_points``);
    * ``keep``: the thresholds some pair uses, and of those ``s``, the head
      ``offsets``, ``rr`` and nodes ``x`` of their tan map, and
      ``eye_minus_a0``: I - A_0 on that head;
    * ``pairs`` as indices into ``s``, in runs as ``rows`` (i, lo, hi, p):
      (s_i, s_j), lo <= j < hi, pivots ``inverses[p:p + hi - lo]``;
    * built on first use: ``inverses``, M^-1 at each pivot in the order of
      ``s``, ``interpolations(keys)``, the ``_interpolation`` matrices of the
      latest table's factors, and ``cumulative`` (t = 0).

    Every array is read-only.  The nine default rungs of both processes,
    with inverses, cumulative matrices and one interpolation matrix per rung
    (4.4 MB for Airy(2), 4.8 MB for Airy(1) at t = 0.1), hold 15.9 MB."""

    def __init__(self, process: str, svals, m: int, scale: float, pairs, outer=None,
                 marginals=None):
        svals = np.asarray(svals, dtype=float)
        if not all(svals[i] <= svals[j] for i, j in pairs):
            raise ValueError("each pair (s_i, s_j) of a level needs s_i <= s_j")
        self.process, self.m, self.outer = process, m, outer
        blocks, norms, points = marginals or _marginal_points(process, svals, m, scale)
        self.marg = _frozen(np.array([p.value for p in points]))
        self.bounds = _frozen(np.array([p.est_error for p in points]))
        self.norms = _frozen(norms)
        used = sorted({k for pair in pairs for k in pair})
        self.keep = _frozen(np.bincount(used, minlength=svals.size) > 0)
        self.s = _frozen(svals[used])
        offsets, rr = _tan_map(m, scale)
        h = _head(process, self.s, offsets)
        self.offsets, self.rr = offsets[:h], rr[:h, :h]
        self.x = _frozen(self.s[:, None] + self.offsets)
        self.eye_minus_a0 = _frozen(blocks[used, :h, :h])
        index = {k: n for n, k in enumerate(used)}
        pairs = [(index[i], index[j]) for i, j in pairs]
        self.pairs, self._pivots = _frozen(np.array(pairs)), sorted({j for _, j in pairs})
        # runs of one i and consecutive j, whose pivots are consecutive too
        start = [n for n, (i, j) in enumerate(pairs) if not n or pairs[n - 1] != (i, j - 1)]
        self.rows = tuple((*pairs[a], pairs[b - 1][1] + 1, self._pivots.index(pairs[a][1]))
                          for a, b in zip(start, start[1:] + [len(pairs)]))
        self._interpolations = {}

    @cached_property
    def inverses(self) -> np.ndarray:
        return _frozen(np.linalg.inv(self.eye_minus_a0[self._pivots]))

    def interpolations(self, keys) -> dict:
        # the latest table's only: Airy(1)'s x_max moves with t
        self._interpolations = {key: self._interpolations[key] if key in self._interpolations
                                else _interpolation(self.x.ravel(), *key) for key in set(keys)}
        return self._interpolations

    @cached_property
    def cumulative(self) -> np.ndarray:
        return _frozen(_legendre_cumulative(self.outer))


@lru_cache(maxsize=16)
def _level(process: str, m: int, n_outer: int, box: tuple[float, float],
           scale: float) -> _Level:
    """The covariance rung on the n_outer-point Gauss-Legendre rule on the
    box, built once and shared by every t and call: the pairs (i, j), i <=
    j, of the outer thresholds ``_tail_drop`` keeps."""
    outer = gauss_legendre(box[0], box[1], n_outer)
    marginals = _marginal_points(process, outer.nodes, m, scale)
    marg, bounds = np.array([(p.value, p.est_error) for p in marginals[2]]).T
    kept = np.flatnonzero(_tail_drop(marg, bounds, outer.weights)[0]).tolist()
    return _Level(process, outer.nodes, m, scale,
                  [(i, j) for n, i in enumerate(kept) for j in kept[n:]], outer, marginals)


def _cov_zero(level: _Level) -> float:
    """Variance via the covariance identity at t = 0.

    The joint reduces to F(min(s1, s2)), so the box integral collapses to
    twice the triangle integral of F(s1)(1 - F(s2)) over s1 < s2:

        var = 2 int_L^U (1 - F(s2)) G(s2) ds2,   G(s2) = int_L^{s2} F(s1) ds1.

    F is the rung's marginal at each outer Gauss-Legendre node, and G at
    the same nodes comes from its cumulative spectral-integration matrix
    (``_legendre_cumulative``), so a rung costs n_outer marginals.
    """
    f = level.marg
    g = level.cumulative @ f
    return 2.0 * float(level.outer.weights @ ((1.0 - f) * g))


def _cov_positive(level: _Level, t: float, kernels) -> float:
    """Covariance at t > 0 from the joint table on the thresholds the rung
    keeps (``_tail_drop``)."""
    w, f = level.outer.weights[level.keep], level.marg[level.keep]
    return float(w @ (_JointTable(t, kernels, level).grid() - np.outer(f, f)) @ w)


#: (block dimension m, outer nodes) per refinement level, by process.  The
#: values converge exponentially in both, so at 1e-8 most t stop on the
#: first two levels.  Small t (0.1 at 1e-8) needs the two finest, so
#: neither may be dropped.  Airy(1) starts one level later: at m = 20 its
#: covariance is off by up to 6e-3, so that level never converges.
_COV_LEVELS = {
    "airy2": ((20, 32), (24, 38), (30, 48), (38, 64), (48, 88)),
    "airy1": ((24, 38), (30, 48), (38, 64), (48, 88)),
}


def _cov_process(process: str, t: float, accuracy: float,
                 box: tuple[float, float], full_output: bool):
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0.0:
        raise ValueError("t must be >= 0 (the covariance is stationary: "
                         "cov(-t) = cov(t))")
    if not (math.isfinite(accuracy) and accuracy > 0.0):
        raise ValueError(f"accuracy must be finite and > 0, got {accuracy}")
    # the kernel factors depend on neither m nor the outer rule: one build serves every level
    kernels = _process_kernels(process, t, box[0]) if t > 0.0 else None
    levels = _COV_LEVELS[process]
    values, est = [], math.inf
    for m, n_outer in levels:
        level = _level(process, m, n_outer, box, _MAP_SCALE)
        values.append(_cov_zero(level) if t == 0.0 else _cov_positive(level, t, kernels))
        if len(values) >= 2:
            est = abs(values[-1] - values[-2])
            if est <= accuracy:
                break
    if not est <= accuracy:
        m, n_outer = levels[-1]
        warnings.warn(
            f"{process} covariance at t={t:g} missed accuracy={accuracy:g}: "
            f"the finest levels agree to est={est:.3g} at (m, n_outer) = "
            f"({m}, {n_outer})", RuntimeWarning, stacklevel=3)
    return (values[-1], est, len(values)) if full_output else values[-1]


def cov_airy2(t: float, accuracy: float = 1e-8, full_output: bool = False):
    """Two-point correlation cov(A_2(t), A_2(0)) of the Airy(2) process,
    integrated over the box ``DEFAULT_BOX``, read at call time, on the tan
    map at ``_MAP_SCALE``.

    Refines (block dimension m, outer rule size n_outer) along
    ``_COV_LEVELS["airy2"]``, from (20, 32) to (48, 88), until two
    successive levels agree to ``accuracy``, and returns the finer of the
    two.  At t > 0 a level leaves out the outer thresholds whose exact
    joints move it by at most its roundoff floor (``_tail_drop``); a
    coarser level (small t, first rungs) moves by their discretization
    error, which in the cases measured stayed below its own distance to
    the converged value.  With ``full_output=True`` returns (value,
    two-level agreement, levels used); the agreement is sized to the
    request (about 1e-9 at accuracy 1e-8), not to roundoff.  If even the
    two finest levels disagree by more than ``accuracy``, the finest value
    is returned and a RuntimeWarning names t, ``accuracy``, the agreement
    and the finest level.

    The levels and the kernel pairs are built once per process and shared
    by every t (``_level``, ``_airy2_kernels``); a repeated call returns
    the same bits.
    """
    return _cov_process("airy2", t, accuracy, DEFAULT_BOX, full_output)


def cov_airy1(t: float, accuracy: float = 1e-8, full_output: bool = False):
    """Two-point correlation cov(A_1(t), A_1(0)) of the Airy(1) process,
    integrated over the box ``AIRY1_BOX``, read at call time; refined as
    ``cov_airy2`` is, along ``_COV_LEVELS["airy1"]``, from (24, 38) to
    (48, 88), with the same tail-threshold drop (``_tail_drop``), level cache
    (``_level``) and a kernel-pair cache (``_airy1_kernels``)."""
    return _cov_process("airy1", t, accuracy, AIRY1_BOX, full_output)


def cov_grid(process: str, t_values, accuracy: float = 1e-8) -> CovGrid:
    """Covariance values on an ascending grid of time separations, one
    ``cov_airy2`` / ``cov_airy1`` call per t.  The calls share each
    ladder level (``_level``): its marginals, I - A_0 blocks and their
    inverses are built once for the whole grid, not once per t."""
    t_values = np.asarray(list(t_values), dtype=float)
    if t_values.size and np.any(np.diff(t_values) <= 0):
        raise ValueError("t_values must be strictly ascending")
    if process not in ("airy2", "airy1"):
        raise ValueError(f"unknown process {process!r}")
    cov_fn = cov_airy2 if process == "airy2" else cov_airy1
    vals, errs = np.reshape([cov_fn(t, accuracy, full_output=True)[:2] for t in t_values],
                            (-1, 2)).T
    return CovGrid(t_values=t_values, cov_values=vals, est_errors=errs, accuracy_target=accuracy)
