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
covariances, and the joint systems -- is built on the *head* of the tan
map only: the nodes x = s + scale tan(pi xi / 2) <= X = 20 for the
smallest threshold s of the call (``_head``).  Past X the Airy kernel
and K_t, t > 0, have underflowed, so the other nodes would add unit rows
and columns that cost O(m^3) and change no determinant beyond entries
below 3e-22 (``_HEAD_CUT``).  Airy(1) keeps every node.  On the head,
K_t (t > 0) and the oscillatory K_{-t} (t >= 0.75) are analytic and of
numerical rank 20-90, so the joint table takes them from low-rank
Chebyshev factors (``_ChebyshevFactor``) instead of their 60-480-node
inner rules; the Laplace-branch K_{-t} (0 < t < 0.75), whose Gaussian
ridge has no low rank, keeps its inner rule.

What does not depend on t is built once per process and shared by every
t and call: a covariance level's outer rule, marginals, kept thresholds,
I - A_0 blocks, inverses and interpolation matrices (``_level``, keyed on
(process, m, n_outer, box, scale)), and the Airy(2) kernel pair K_t,
K_{-t} with its inner rules and factors (``_airy2_kernels``, keyed on (t,
inner tolerance, effective x_min)), unless its build warned.  Cached
arrays are read-only, and a warm call returns the bits of a cold one.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                      SineKernel, TransformedKernel)
from .linalg import (DEFAULT_EPS_MULTIPLE, UNIT_ROUNDOFF, DetResult, det_lu,
                     frobenius_norm, roundoff_bound)
# fredholm_det_system and _balance_blocks are not called here: they stay
# bound only because the benchmark's tracer (perfbench/tracing.py) patches
# them in this module by name
from .nystrom import (NystromProblem, _balance_blocks, _det_result, fredholm_det,
                      fredholm_det_system)
from .quadrature import gauss_legendre

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

#: Inner-rule tolerance of the Airy(2) process kernels in joint
#: distributions; covariances tighten it for accuracies below 1e-10.
_INNER_TOL = 1e-12


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
    v = float(np.real(res.value))
    suspect = (res.method == "cholesky->lu"
               or not (-_PROB_SLACK <= v <= 1.0 + _PROB_SLACK))
    return DistributionPoint(parameter=float(parameter), value=v, m=res.m,
                             est_error=float(res.roundoff_bound), suspect=suspect)


# ---------------------------------------------------------------------------
# E2 and F2
# ---------------------------------------------------------------------------

def e2_gap(s: float, m: int) -> DistributionPoint:
    """Gap probability E2(0; s): sine-kernel determinant at z = -1 on (0, s)."""
    if s < 0.0:
        raise ValueError("s must be >= 0")
    if s == 0.0:
        return DistributionPoint(parameter=0.0, value=1.0, m=0, est_error=0.0)
    rule = gauss_legendre(0.0, s, m)
    res = fredholm_det(NystromProblem(SineKernel(), (0.0, s), -1.0, rule))
    return _det_point(s, res)


def f2_tw(s: float, m: int, route: str = "transform", scale: float | None = None,
          T: float | None = None) -> DistributionPoint:
    """Tracy-Widom distribution F2(s): Airy-kernel determinant at z = -1
    on (s, inf).

    route="transform" maps (s, inf) to (0, 1) by the tan map of
    ``TransformedKernel`` with ``scale`` (None means 10), as the Airy(2)
    marginal (``_marginal_points``); route="truncate" works on the finite
    interval (s, T) and needs T > s (the committed error is bounded by
    ``truncation_bound``).  Each route rejects the other's parameter.
    """
    if route == "transform":
        if T is not None:
            raise ValueError("T applies only to route='truncate'")
        return _marginal_points("airy2", [s], m, 10.0 if scale is None else scale)[0]
    if route == "truncate":
        if scale is not None:
            raise ValueError("scale applies only to route='transform'")
        if T is None:
            raise ValueError("route='truncate' requires a truncation point T")
        if T <= s:
            raise ValueError(f"need T > s, got T={T}, s={s}")
        rule = gauss_legendre(s, T, m)
        res = fredholm_det(NystromProblem(AiryKernel(), (s, T), -1.0, rule))
        return _det_point(s, res)
    raise ValueError(f"unknown route {route!r} (expected 'transform' or 'truncate')")


def truncation_bound(s: float, T: float) -> float:
    """Hilbert-Schmidt tail bound (int_T^inf int_T^inf K(x,y)^2 dx dy)^(1/2)
    on the F2 error of truncating the Airy-kernel operator at T > s, for a
    finite s: ||A||_F of the tan-mapped Airy matrix on (T, inf) at 80
    nodes and scale 10 (``_tan_map``)."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not T > s:
        raise ValueError(f"need T > s, got T={T}, s={s}")
    offsets, rr = _tan_map(80, 10.0)
    x = T + offsets
    return frobenius_norm(rr * AiryKernel().matrix(x, x))


# ---------------------------------------------------------------------------
# Airy process joint distributions
# ---------------------------------------------------------------------------

def _process_kernels(process: str, t: float, inner_tol: float, x_min: float):
    """The off-diagonal kernels K_t and K_{-t} of a joint system whose
    thresholds are all >= ``x_min``.  The Airy(2) pair comes from
    ``_airy2_kernels``, built once per (t, inner_tol, effective x_min
    min(x_min, -10)) unless its build warned; the Airy(1) pair is closed
    form and costs nothing to build."""
    if process == "airy2":
        try:
            return _airy2_kernels(t, inner_tol, min(x_min, Airy2ProcessKernel._X_MIN_CEILING))
        except _Uncached as warned:
            return warned.kernels
    if process == "airy1":
        return Airy1ProcessKernel(t), Airy1ProcessKernel(-t)
    raise ValueError(f"unknown process {process!r} (expected 'airy2' or 'airy1')")


class _Uncached(Exception):
    """Carries a kernel pair whose build warned out of ``_airy2_kernels``,
    which caches no exception: each call that builds such a pair warns."""

    def __init__(self, kernels):
        super().__init__()
        self.kernels = kernels


@lru_cache(maxsize=64)
def _airy2_kernels(t: float, inner_tol: float, x_min: float):
    """(K_t, K_{-t}) of Airy(2), ``Airy2ProcessKernel`` with ``x_min`` (at
    most -10, as the kernel lowers it), cached on (t, inner_tol, x_min): the
    inner-rule doubling is the costly part of a joint at a new t, and a
    covariance sweep or repeated call needs it once.  Each kernel without a
    Gaussian term also gets its ``_chebyshev_factor`` here, 3-10 ms per
    kernel at x_min = -10, held in ``_FACTORS`` for as long as the kernel
    lives.  A pair with ``achieved_tol > inner_tol`` has warned and is
    raised as ``_Uncached``, so it is neither cached nor factored.  The
    inner rules ``_xi`` and ``_q`` are read-only."""
    kernels = (Airy2ProcessKernel(t, tol=inner_tol, x_min=x_min),
               Airy2ProcessKernel(-t, tol=inner_tol, x_min=x_min))
    if not all(k.achieved_tol <= inner_tol for k in kernels):
        raise _Uncached(kernels)
    for kernel in kernels:
        # the Laplace branch's Gaussian ridge has no low rank on the head
        if kernel._mode != "laplace":
            factor = _chebyshev_factor(kernel)
            if factor is not None:
                _FACTORS[kernel] = factor
    return kernels


#: The ``_ChebyshevFactor`` of each kernel of a cached ``_airy2_kernels``
#: pair that has one; an entry goes with its kernel.
_FACTORS = weakref.WeakKeyDictionary()


#: Kernel entries, basis entries (rows times inner size) or interpolation
#: entries (rows times Chebyshev points) per evaluation call when a level
#: builds its per-threshold data (``_eye_minus_a0``, ``_interpolation``,
#: ``_JointTable.prepare``), and Schur-complement entries per LU call of
#: the joint rows (``_JointTable._dets``).  One call per threshold pays
#: per-call overhead, one per grid raises peak memory: on cov-airy2, 16k
#: points put peak RSS ~0.3 MB above per-threshold calls and 8k ~0.1 MB
#: below; whole-grid I - A_0 for Airy(1) took cov-airy1 1.7 MB above.
_EVAL_CHUNK = 1 << 13


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
    rr = np.outer(r, r)
    offsets.setflags(write=False)
    rr.setflags(write=False)
    return offsets, rr


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
#: the upper end of every ``_ChebyshevFactor``.
_HEAD_CUT = 20.0


#: Chebyshev points of the first and the largest ``_chebyshev_factor``,
#: and its agreement with the kernel's inner rule on the probe grid,
#: relative to max(1, |K|).
_FACTOR_FIRST_NODES = 64
_FACTOR_MAX_NODES = 512
_FACTOR_TOL = 16.0 * np.finfo(float).eps
#: Relative eigenvalue size below which a factor drops a term.
_FACTOR_CUT = 1e-16


class _ChebyshevFactor:
    """K(x, y) = sum_k lambda_k v_k(x) v_k(y) on [x_min, ``_HEAD_CUT``]^2
    for an analytic, symmetric Airy(2) kernel K without a Gaussian term: the
    kept eigenpairs of K sampled on N = ``points`` Chebyshev points, each
    v_k the barycentric interpolant of its eigenvector (Berrut & Trefethen,
    SIAM Review 46, 2004), which is stable on Chebyshev points.

    It stands in for the kernel in ``_JointTable``: ``basis`` gives the
    v_k at the nodes, ``inner_weights`` the lambda_k and ``inner_size`` the
    rank, so a block is ``(basis(x) * inner_weights) @ basis(y).T`` with
    tens of terms where the inner rule has 60-480.  Rows at x > ``_HEAD_CUT``
    are 0: K_t has vanished there, and such a node gives a unit row or
    column of a joint system (``_head``).  ``basis`` raises ValueError
    below x_min, as the kernel's does.  The arrays are read-only."""

    def __init__(self, x_min: float, vectors, values):
        self.x_min = x_min
        self.points = vectors.shape[0]
        self._vectors = _frozen(vectors)
        self.inner_weights = _frozen(values)
        self.inner_size = values.size

    def basis(self, xs, interpolation=None) -> np.ndarray:
        """v_k(xs[..., i]) for every kept term k, 0 past ``_HEAD_CUT``, from
        the given ``_interpolation`` matrix of xs or else a new one."""
        x = np.asarray(xs, dtype=float).ravel()
        if interpolation is None:
            interpolation = _interpolation(x, self.x_min, self.points)
        out = np.zeros((x.size, self.inner_size))
        out[x <= _HEAD_CUT] = interpolation @ self._vectors
        return out.reshape(*np.shape(xs), self.inner_size)


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


def _interpolation(x, x_min: float, n: int) -> np.ndarray:
    """The ``_barycentric`` matrix from the n Chebyshev points on [x_min,
    ``_HEAD_CUT``] to the points of the 1-d x at or below ``_HEAD_CUT``, in
    calls of at most ``_EVAL_CHUNK`` entries; read-only.  Every factor of
    N = n points on [x_min, ``_HEAD_CUT``] shares it.  Raises ValueError
    below x_min."""
    if x.size and np.min(x) < x_min:
        raise ValueError(f"factor is built for arguments >= x_min={x_min:g}, got {np.min(x):g}")
    x, (nodes, weights) = x[x <= _HEAD_CUT], _chebyshev_points(x_min, _HEAD_CUT, n)
    out, step = np.empty((x.size, n)), max(1, _EVAL_CHUNK // n)
    for lo in range(0, x.size, step):
        out[lo:lo + step] = _barycentric(x[lo:lo + step], nodes, weights)
    return _frozen(out)


def _basis_rows(source, x) -> np.ndarray:
    """``source.basis`` (a kernel's or a factor's) at the points x, stacked
    (x.size, inner size), in calls of at most ``_EVAL_CHUNK`` entries."""
    rows = max(1, _EVAL_CHUNK // source.inner_size)
    out = np.empty((x.size, source.inner_size))
    for lo in range(0, x.size, rows):
        out[lo:lo + rows] = source.basis(x[lo:lo + rows])
    return out


def _sampled(source, x) -> np.ndarray:
    """K(x_i, x_j) from ``source.basis`` and ``source.inner_weights``,
    without a Gaussian term."""
    b = _basis_rows(source, x)
    return (b * source.inner_weights) @ b.T


def _chebyshev_factor(kernel):
    """The ``_ChebyshevFactor`` of an Airy(2) kernel without a Gaussian
    term, or None if none within reach matches the kernel.

    N doubles from ``_FACTOR_FIRST_NODES`` until the factor of the kept
    eigenpairs (|lambda| > ``_FACTOR_CUT`` max |lambda|) of the kernel on N
    Chebyshev points matches the kernel's inner rule to ``_FACTOR_TOL``
    max(1, |K|) at every pair of a 61-point probe grid on [x_min,
    ``_HEAD_CUT``]; past ``_FACTOR_MAX_NODES`` the kernel keeps its inner
    rule.  At x_min = -20, K_{-0.76} needs 256 points; the others of
    t in {0.1, 0.5, +-0.76, +-1, +-2.5} at x_min in {-10, -14, -20}
    take 128."""
    probes = np.linspace(kernel.x_min, _HEAD_CUT, 61)
    want = _sampled(kernel, probes)
    n = _FACTOR_FIRST_NODES
    while n <= _FACTOR_MAX_NODES:
        nodes, _ = _chebyshev_points(kernel.x_min, _HEAD_CUT, n)
        values, vectors = np.linalg.eigh(_sampled(kernel, nodes))
        kept = np.abs(values) > _FACTOR_CUT * np.max(np.abs(values))
        factor = _ChebyshevFactor(kernel.x_min, vectors[:, kept], values[kept])
        got = _sampled(factor, probes)
        if np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= _FACTOR_TOL:
            return factor
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
    ulps of 1."""
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
        out[lo:lo + step] = np.eye(h) - a0
    return out, norms


def _marginal_points(process: str, svals, m: int, scale: float, blocks=None) -> list:
    """P(A(0) <= s) = det(I - A_0) at each threshold s of ``svals``, from
    the given ``blocks`` (I - A_0 and ||A_0||_F, as ``_eye_minus_a0``
    returns them), or else from blocks built one kernel-matrix call at a
    time (so that a long ``svals`` holds only one call's blocks, on that
    call's head), by the determinant step of ``fredholm_det``
    (``_det_result``): Cholesky, or LU flagged suspect where Cholesky
    fails, with the roundoff bound sqrt(m) ||A_0||_F 8u at the rule size
    m."""
    if blocks is None:
        tan_map = _tan_map(m, scale)
        step = max(1, _EVAL_CHUNK // (m * m))
        chunks = (svals[lo:lo + step] for lo in range(0, len(svals), step))
        return [point for chunk in chunks for point in _marginal_points(
            process, chunk, m, scale, _eye_minus_a0(process, chunk, *tan_map))]
    return [_det_point(s, _det_result(block, norm, hermitian=True, m=m))
            for s, block, norm in zip(svals, *blocks)]


def _marginal(process: str, s: float, m: int, scale: float = 10.0) -> float:
    """P(A(t) <= s) for the stationary process: the one-operator determinant
    with the K_0 kernel on (s, inf)."""
    return _marginal_points(process, [s], m, scale)[0].value


def _joint_point(process: str, t: float, s1: float, s2: float, m: int,
                 scale: float) -> DistributionPoint:
    if t == 0.0:
        # At coinciding times the joint degenerates to the marginal at
        # min(s1, s2); the t -> 0 limit of the block determinant reproduces
        # it only through a delta contribution in K_{-t}, so the block
        # system is bypassed here.  The marginal's roundoff bound and
        # Cholesky-to-LU flag carry over.
        s = min(s1, s2)
        point = _marginal_points(process, [s], m, scale)[0]
        return replace(point, parameter=0.0, m=2 * m)
    # stationarity and time reversal make the joint even in t, so every t
    # takes the table at |t|: -t and t give one point, bit for bit
    kernels = _process_kernels(process, abs(t), _INNER_TOL, min(s1, s2))
    point = _JointTable(process, abs(t), m, scale, kernels).joint(s1, s2)
    return replace(point, parameter=float(t))


def airy2_joint(t: float, s1: float, s2: float, m: int, scale: float = 10.0) -> DistributionPoint:
    """P(A_2(t) <= s1, A_2(0) <= s2) as the 2x2 block determinant with
    blocks [[A_0, A_t], [A_{-t}, A_0]] on L2(s1, inf) + L2(s2, inf)."""
    return _joint_point("airy2", t, s1, s2, m, scale)


def airy1_joint(t: float, s1: float, s2: float, m: int, scale: float = 10.0) -> DistributionPoint:
    """P(A_1(t) <= s1, A_1(0) <= s2); same block structure with the
    closed-form Airy(1) kernels."""
    return _joint_point("airy1", t, s1, s2, m, scale)


# ---------------------------------------------------------------------------
# Tracy-Widom moments
# ---------------------------------------------------------------------------

def tw_moments() -> tuple[float, float]:
    """(mean, variance) of the Tracy-Widom distribution F2.

    Both moments come from partially integrated truncations over the box
    (L, U) = ``DEFAULT_BOX``, read at call time,

        E[X]   = U F(U) - L F(L) - int_L^U F(s) ds,
        E[X^2] = U^2 F(U) - L^2 F(L) - 2 int_L^U s F(s) ds,

    evaluated with 96 outer Gauss-Legendre nodes and F2 at m = 48; F2
    itself is never differentiated.  The computed tails F2(L) and
    1 - F2(U) must be below 1e-11 or ValueError is raised with their
    values.  (1 - F2(6) = 3.8e-12, which biases the moments by well under
    1e-9.)
    """
    low, up = DEFAULT_BOX
    rule = gauss_legendre(low, up, 96)
    points = _marginal_points("airy2", [low, up, *rule.nodes], 48, 10.0)
    f_low, f_up = points[0].value, points[1].value
    if f_low > 1e-11 or 1.0 - f_up > 1e-11:
        raise ValueError(
            f"moment box {(low, up)} too narrow: F2(L) = {f_low:.3e}, "
            f"1 - F2(U) = {1.0 - f_up:.3e}")
    fvals = np.array([p.value for p in points[2:]])
    mean = up * f_up - low * f_low - float(rule.weights @ fvals)
    second = (up * up * f_up - low * low * f_low
              - 2.0 * float(rule.weights @ (rule.nodes * fvals)))
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
    """Joint determinants P(A(t) <= s_i, A(0) <= s_j) at t > 0 over an
    ascending grid of thresholds, with the kernels (K_t, K_{-t}) of
    ``_process_kernels``: the one joint-determinant path, for single pairs
    (``airy2_joint`` / ``airy1_joint``, which take a negative t to |t|)
    and covariance grids alike.

    ``prepare`` caches per threshold s the given M = I - A_0 on the head of
    the grid (``_head``: the same h nodes at every threshold), det(M) and
    M^-1, and, for Airy(2), the bases of K_t and K_{-t} at its nodes,
    weighted in place by the tan map's r = sqrt(w phi'): U = r B.  A
    kernel's ``_ChebyshevFactor`` (``_FACTORS``) takes B from the grid's
    ``_interpolation`` matrix; the Laplace-branch K_{-t} from its inner
    rule, in ``basis`` calls of at most ``_EVAL_CHUNK`` entries.  A
    covariance level hands it every M^-1 and its interpolation matrices
    (``_Level``, shared by every t); a single joint inverts only its pivot.
    ``_dets``, the one row routine of ``grid`` and ``joint``, forms the
    off-diagonal blocks of the pairs (s_i, s_j), j >= i, with one matrix
    product per kernel (Airy(2), ``_blocks``) or one shared Airy evaluation
    (Airy(1), ``Airy1ProcessKernel.shifted_pairs``), and takes each joint
    as det(M_j) det(M_i - A_ij M_j^-1 A_ji): the grid ascends, so every pair
    pivots on its larger threshold s_j (the better-conditioned block).  The
    Schur complements of all rows fill one stack, which LAPACK LU takes
    ``_EVAL_CHUNK`` entries at a time.
    The Schur complement is unchanged by the exact similarity
    A_ij -> 2^k A_ij, A_ji -> 2^-k A_ji, so rows need no balancing.
    ``grid`` mirrors the rows by time reversal, P(s_i, s_j) = P(s_j, s_i),
    and ``joint`` orders its pair by it.
    """

    def __init__(self, process: str, t: float, m: int, scale: float, kernels):
        if not t > 0.0:
            raise ValueError("joint table expects t > 0")
        self.process = process
        self.t = float(t)
        self.m = int(m)
        self.scale = scale
        self._tan = _tan_map(m, scale)
        self.kt, self.kmt = kernels
        # each Airy(2) kernel's factor where it has one, else the kernel
        self._sources = tuple(_FACTORS.get(k, k) for k in kernels)
        # K_t, t > 0, is symmetric with no Gaussian term (``_blocks``); of
        # the Airy(2) K_{-t}, the Laplace branch has one
        assert getattr(self.kt, "_mode", "decay") == "decay"
        self._ridge = getattr(self.kmt, "_mode", None) == "laplace"

    def prepare(self, svals, eye_minus_a0, marginals, inverses, interpolations) -> None:
        """Cache the per-threshold data of the ascending grid ``svals``,
        replacing any earlier grid, with its I - A_0 blocks ``eye_minus_a0``
        on the grid's head (``_head``), their determinants ``marginals`` and
        their ``inverses``; the dict ``interpolations`` of the head nodes'
        ``_interpolation`` matrices by (x_min, N) gains those it lacks.
        Raises ValueError on a grid that does not ascend."""
        svals = np.asarray(svals, dtype=float)
        if not np.all(np.diff(svals) >= 0.0):
            raise ValueError("joint table thresholds must ascend")
        h = eye_minus_a0.shape[-1]
        self._off, self._rr = self._tan[0][:h], self._tan[1][:h, :h]
        self._s = svals
        self._x = svals[:, None] + self._off[None, :]
        self.eye_minus_a0 = eye_minus_a0
        self._det = np.asarray(marginals, dtype=float)
        self._inv = inverses
        if self.process == "airy2":
            # U[i, p] = r_p B(x_ip), stacked (n, h, inner size); sqrt(fl(r^2)) is r
            x, r, self._u = self._x.ravel(), np.sqrt(np.diagonal(self._rr))[:, None], []
            for src in self._sources:
                if isinstance(src, _ChebyshevFactor):
                    key = src.x_min, src.points
                    if key not in interpolations:
                        interpolations[key] = _interpolation(x, *key)
                    u = src.basis(x, interpolations[key])
                else:
                    u = _basis_rows(src, x)
                self._u.append(u.reshape(*self._x.shape, -1))
                self._u[-1] *= r

    def grid(self) -> np.ndarray:
        """All joints of the prepared thresholds: the rows j >= i, mirrored
        below the diagonal."""
        n = self._s.size
        joint = np.zeros((n, n))
        joint[np.triu_indices(n)] = self._dets([(i, i, n) for i in range(n)])
        return joint + np.triu(joint, 1).T

    def _blocks(self, i: int, lo: int, hi: int):
        """The off-diagonal blocks A_ij and A_ji of the systems I - A of the
        pairs (s_i, s_j), lo <= j < hi, each stacked (hi - lo, h, h)."""
        if self.process == "airy1":
            # [j, p, q] = K_t(x_ip, x_jq) and K_{-t}(x_jq, x_ip)
            b12, bwd = self.kt.shifted_pairs(self._s[i], self._s[lo:hi], self._off)
            return self._rr * b12, self._rr * bwd.transpose(0, 2, 1)
        # [j, q, p] = r_q K(x_jq, x_ip) r_p, one product per kernel
        h, c = self._off.size, hi - lo
        a_ij, a_ji = ((u[lo:hi].reshape(c * h, -1) @ (u[i] * src.inner_weights).T)
                      .reshape(c, h, h) for u, src in zip(self._u, self._sources))
        if self._ridge:
            a_ji -= self._rr * self.kmt.gaussian_part(self._x[lo:hi, :, None], self._x[i])
        # K_t is symmetric: its stack's per-pair transpose is A_ij
        return a_ij.transpose(0, 2, 1), a_ji

    def _dets(self, rows, blocks=None) -> np.ndarray:
        """det(M_j) det(M_i - A_ij M_j^-1 A_ji) of the pairs (s_i, s_j),
        lo <= j < hi, of each row segment (i, lo, hi), i <= lo, in order,
        each pivoting on its larger threshold s_j, from the segment's blocks
        ``blocks(i, lo, hi)`` or else ``_blocks``, in Schur-complement stacks
        of ``_EVAL_CHUNK`` entries (at least one pair) that span rows."""
        h, left = self._off.size, sum(hi - lo for _, lo, hi in rows)
        step = min(max(1, _EVAL_CHUNK // (h * h)), left)
        schur, det, out, k = np.empty((step, h, h)), np.empty(step), [], 0
        for i, lo, hi in rows:
            a_ij, a_ji = (blocks or self._blocks)(i, lo, hi)
            while lo < hi:
                c = min(hi - lo, step - k)
                # A_ij M_j^-1 first: the other order erred 200x more at Airy(1), t = 2.5, m = 20
                np.subtract(self.eye_minus_a0[i], a_ij[:c] @ self._inv[lo:lo + c] @ a_ji[:c],
                            out=schur[k:k + c])
                det[k:k + c] = self._det[lo:lo + c]
                a_ij, a_ji, lo, k, left = a_ij[c:], a_ji[c:], lo + c, k + c, left - c
                if k == step or not left:
                    out.append(det[:k] * det_lu(schur[:k]))
                    k = 0
            del a_ij, a_ji  # before the next row's blocks
        return np.concatenate(out)

    def joint(self, s1: float, s2: float) -> DistributionPoint:
        """The joint at one pair, prepared as the grid (min, max): time
        reversal, P(A(t) <= s1, A(0) <= s2) = P(A(t) <= s2, A(0) <= s1),
        makes the order exact, so the pair pivots on its larger threshold,
        whose block alone it inverts before preparing; the other's inverse
        is left NaN, so a later ``grid`` of the table raises ValueError
        (``det_lu``).  Its roundoff bound is sqrt(2m) N 8u, with
        N = (||A_11||^2 + ||A_22||^2 + 2 ||A_12|| ||A_21||)^(1/2) the least
        Frobenius norm of its system over the block scalings
        A_12 -> c A_12, A_21 -> A_21 / c, c > 0, which keep the determinant;
        ||A_11|| and ||A_22|| are those of A_0, taken before I is added.
        Flagged ``suspect`` also where it breaks a Frechet bound,
        F1 + F2 - 1 <= P <= min(F1, F2), by more than the sum of its own
        and both marginals' roundoff bounds and 8u |value|."""
        pair = sorted((s1, s2))
        blocks, norms = _eye_minus_a0(self.process, pair, *self._tan)
        f1, f2 = _marginal_points(self.process, pair, self.m, self.scale, (blocks, norms))
        inverses = np.full_like(blocks, np.nan)
        inverses[1] = np.linalg.inv(blocks[1])
        self.prepare(pair, blocks, [f1.value, f2.value], inverses, {})
        a12, a21 = self._blocks(0, 1, 2)
        norm = math.sqrt(norms @ norms + 2.0 * frobenius_norm(a12) * frobenius_norm(a21))
        value = float(self._dets([(0, 1, 2)], lambda *_: (a12, a21))[0])
        point = _det_point(self.t, DetResult(value, 2 * self.m, roundoff_bound(2 * self.m, norm)))
        # each value also rounds by ~u |value|, which its roundoff bound (a
        # backward error of the matrix) leaves out: near 1 that dominates
        slack = sum(p.est_error + DEFAULT_EPS_MULTIPLE * UNIT_ROUNDOFF * abs(p.value)
                    for p in (point, f1, f2))
        if not (f1.value + f2.value - 1.0 - slack <= point.value
                <= min(f1.value, f2.value) + slack):
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
    """The data of a covariance level that do not depend on t, shared by
    every t and every call at (process, m, n_outer, box, scale) through
    ``_level``:

    * ``outer``: the n_outer-point Gauss-Legendre rule on the box;
    * ``marg`` and ``bounds``: the marginals F(s_i) at its nodes and their
      roundoff bounds, from I - A_0 stacked on the head of the whole grid;
    * ``keep``: the thresholds ``_tail_drop`` leaves in at t > 0;
    * ``eye_minus_a0``: I - A_0 at the kept thresholds, on their own head
      (the dropped thresholds' blocks are not held);
    * built on first use: ``inverses`` of those blocks (the pivots of
      every joint, t > 0), ``interpolations``, a dict of that head's
      ``_interpolation`` matrices by (x_min, N) (``_JointTable.prepare``),
      and ``cumulative``, the ``_legendre_cumulative`` matrix (t = 0).

    Every array is read-only."""

    def __init__(self, process: str, m: int, n_outer: int,
                 box: tuple[float, float], scale: float):
        self.outer = gauss_legendre(box[0], box[1], n_outer)
        offsets, rr = _tan_map(m, scale)
        blocks, norms = _eye_minus_a0(process, self.outer.nodes, offsets, rr)
        points = _marginal_points(process, self.outer.nodes, m, scale, (blocks, norms))
        self.marg = _frozen(np.array([p.value for p in points]))
        self.bounds = _frozen(np.array([p.est_error for p in points]))
        self.keep = _frozen(_tail_drop(self.marg, self.bounds, self.outer.weights)[0])
        h = _head(process, self.outer.nodes[self.keep], offsets)
        self.eye_minus_a0 = _frozen(blocks[self.keep, :h, :h])
        self.interpolations = {}

    @cached_property
    def inverses(self) -> np.ndarray:
        return _frozen(np.linalg.inv(self.eye_minus_a0))

    @cached_property
    def cumulative(self) -> np.ndarray:
        return _frozen(_legendre_cumulative(self.outer))


@lru_cache(maxsize=16)
def _level(process: str, m: int, n_outer: int, box: tuple[float, float],
           scale: float) -> _Level:
    """The ``_Level`` at (process, m, n_outer, box, scale), built once: the
    nine default levels of both processes, with their inverses, cumulative
    matrices and one interpolation matrix per Airy(2) level (4.4 MB, at
    x_min = -10 and N = 128), hold 11.0 MB of arrays."""
    return _Level(process, m, n_outer, box, scale)


def _cov_zero(process: str, m: int, n_outer: int, box: tuple[float, float],
              scale: float) -> float:
    """Variance via the covariance identity at t = 0.

    The joint reduces to F(min(s1, s2)), so the box integral collapses to
    twice the triangle integral of F(s1)(1 - F(s2)) over s1 < s2:

        var = 2 int_L^U (1 - F(s2)) G(s2) ds2,   G(s2) = int_L^{s2} F(s1) ds1.

    F is the level's marginal at each outer Gauss-Legendre node, and G at
    the same nodes comes from the level's cumulative spectral-integration
    matrix (``_legendre_cumulative``), so a level costs n_outer marginals.
    """
    level = _level(process, m, n_outer, box, scale)
    f = level.marg
    g = level.cumulative @ f
    return 2.0 * float(level.outer.weights @ ((1.0 - f) * g))


def _cov_positive(process: str, t: float, m: int, n_outer: int,
                  box: tuple[float, float], scale: float, kernels) -> float:
    """Covariance at t > 0 from the joint table on the outer grid of the
    level (``_level``): the table is prepared on the thresholds the level
    keeps (``_tail_drop``), with their I - A_0 blocks, marginals and
    inverses."""
    level = _level(process, m, n_outer, box, scale)
    w, f = level.outer.weights[level.keep], level.marg[level.keep]
    table = _JointTable(process, t, m, scale, kernels)
    table.prepare(level.outer.nodes[level.keep], level.eye_minus_a0, f, level.inverses,
                  level.interpolations)
    return float(w @ (table.grid() - np.outer(f, f)) @ w)


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
                 box: tuple[float, float], scale: float,
                 full_output: bool):
    if not t >= 0.0:
        raise ValueError("t must be >= 0 (the covariance is stationary: "
                         "cov(-t) = cov(t))")
    if not (math.isfinite(accuracy) and accuracy > 0.0):
        raise ValueError(f"accuracy must be finite and > 0, got {accuracy}")
    # the process kernels depend on neither m nor the outer rule, so one
    # build (and one inner-rule refinement for Airy(2)) serves every level
    kernels = (_process_kernels(process, t, min(_INNER_TOL, accuracy * 1e-2), box[0])
               if t > 0.0 else None)
    levels = _COV_LEVELS[process]
    values = []
    est = math.inf
    for m, n_outer in levels:
        if t == 0.0:
            val = _cov_zero(process, m, n_outer, box, scale)
        else:
            val = _cov_positive(process, t, m, n_outer, box, scale, kernels)
        values.append(val)
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
    value = values[-1]
    if full_output:
        return value, est, len(values)
    return value


def cov_airy2(t: float, accuracy: float = 1e-8, scale: float = 10.0,
              full_output: bool = False):
    """Two-point correlation cov(A_2(t), A_2(0)) of the Airy(2) process,
    integrated over the box ``DEFAULT_BOX``, read at call time.

    Refines (block dimension m, outer rule size n_outer) along
    ``_COV_LEVELS["airy2"]``, from (20, 32) to (48, 88), until two
    successive levels agree to ``accuracy``, and returns the finer of the
    two.  At t > 0 a level leaves out the outer thresholds with the
    smallest g_i = min(F_i, 1 - F_i) + e_i (marginal F_i, roundoff bound
    e_i) while B = 2 (sum w) sum_dropped w_i g_i stays at most the level's
    roundoff floor (sum w)^2 max e_i (``_tail_drop``).  B bounds the exact
    joints left out, so a level that resolves them moves by at most B; a
    coarser level (small t, first rungs) moves by their discretization
    error, which in the cases measured stayed below its own distance to
    the converged value.  With ``full_output=True`` returns (value,
    two-level agreement, levels used); the agreement is sized to the
    request (about 1e-9 at accuracy 1e-8), not to roundoff.  If even the
    two finest levels disagree by more than ``accuracy``, the finest value
    is returned and a RuntimeWarning names t, ``accuracy``, the agreement
    and the finest level.

    Each level's outer rule, marginals, kept thresholds, I - A_0 blocks
    and inverses are built once per process and shared by every t
    (``_level``, keyed on (process, m, n_outer, box, scale)), as are K_t
    and K_{-t} at a t seen before (``_airy2_kernels``); a repeated call
    returns the same bits.
    """
    return _cov_process("airy2", t, accuracy, DEFAULT_BOX, scale, full_output)


def cov_airy1(t: float, accuracy: float = 1e-8, scale: float = 10.0,
              full_output: bool = False):
    """Two-point correlation cov(A_1(t), A_1(0)) of the Airy(1) process,
    integrated over the box ``AIRY1_BOX``, read at call time; refined as
    ``cov_airy2`` is, along ``_COV_LEVELS["airy1"]``, from (24, 38) to
    (48, 88), with the same tail-threshold drop and bound B, and the same
    level cache (``_level``); its closed-form kernels need no cache."""
    return _cov_process("airy1", t, accuracy, AIRY1_BOX, scale, full_output)


def cov_grid(process: str, t_values, accuracy: float = 1e-8) -> CovGrid:
    """Covariance values on an ascending grid of time separations, one
    ``cov_airy2`` / ``cov_airy1`` call per t.  The calls share each
    ladder level (``_level``): its marginals, I - A_0 blocks and their
    inverses are built once for the whole grid, not once per t."""
    t_values = np.asarray(list(t_values), dtype=float)
    if t_values.size and np.any(np.diff(t_values) <= 0):
        raise ValueError("t_values must be strictly ascending")
    cov_fn = cov_airy2 if process == "airy2" else cov_airy1
    if process not in ("airy2", "airy1"):
        raise ValueError(f"unknown process {process!r}")
    vals = []
    errs = []
    for t in t_values:
        v, e, _ = cov_fn(t, accuracy=accuracy, full_output=True)
        vals.append(v)
        errs.append(e)
    return CovGrid(t_values=t_values, cov_values=np.array(vals),
                   est_errors=np.array(errs), accuracy_target=accuracy)
