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
below 3e-22 (``_HEAD_CUT``).  Airy(1) keeps every node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                      SineKernel, TransformedKernel)
from .linalg import DEFAULT_EPS_MULTIPLE, UNIT_ROUNDOFF, DetResult, det_lu, frobenius_norm
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

@lru_cache(maxsize=64)
def _unit_rule(m: int):
    """The m-point Gauss-Legendre rule on (0, 1), built and validated once
    per m: every tan-mapped determinant uses it, whatever its threshold."""
    return gauss_legendre(0.0, 1.0, m)


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


def truncation_bound(s: float, T: float, m: int = 80) -> float:
    """Hilbert-Schmidt tail bound (int_T^inf int_T^inf K(x,y)^2 dx dy)^(1/2)
    on the F2 error of truncating the Airy-kernel operator at T > s."""
    if T <= s:
        raise ValueError(f"need T > s, got T={T}, s={s}")
    kernel = TransformedKernel(AiryKernel(), T)
    rule = _unit_rule(m)
    km = kernel.matrix(rule.nodes, rule.nodes)
    w = rule.weights
    val = float(w @ (km * km) @ w)
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# Airy process joint distributions
# ---------------------------------------------------------------------------

def _process_kernels(process: str, t: float, inner_tol: float, x_min: float):
    """The off-diagonal kernels K_t and K_{-t} of a joint system whose
    thresholds are all >= ``x_min``."""
    if process == "airy2":
        return (Airy2ProcessKernel(t, tol=inner_tol, x_min=x_min),
                Airy2ProcessKernel(-t, tol=inner_tol, x_min=x_min))
    if process == "airy1":
        return Airy1ProcessKernel(t), Airy1ProcessKernel(-t)
    raise ValueError(f"unknown process {process!r} (expected 'airy2' or 'airy1')")


#: Kernel entries or Ai points per evaluation call when a level builds its
#: per-threshold data (``_eye_minus_a0``, ``_JointTable.prepare``).  One
#: call per threshold pays per-call overhead, one per grid raises peak
#: memory: on cov-airy2, 16k points put peak RSS ~0.3 MB above
#: per-threshold calls and 8k ~0.1 MB below; whole-grid I - A_0 for
#: Airy(1) took cov-airy1 1.7 MB above.
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
    rule = _unit_rule(m)
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
#: s_min >= -12, where the measured entries stay below 4e-28.
_HEAD_CUT = 20.0


def _head(process: str, svals, offsets) -> int:
    """The number of leading tan-map nodes a call with thresholds ``svals``
    keeps: those with min(svals) + offset <= ``_HEAD_CUT`` for Airy(2),
    every node for Airy(1), whose K_0 = Ai(x + y) would need a cut that
    depends on the pair.

    The head of the smallest threshold holds the head of every other, so
    one size serves the whole stack.  Leaving the other nodes out is
    exact up to the dropped entries: in I - A_0 they are unit rows and
    columns; in a joint at t > 0 the time-t threshold's give unit rows
    (their K_0 and K_t entries vanish) and the time-0 threshold's unit
    columns, and at t < 0 the roles swap, so expanding along them removes
    the nodes although the ridge block K_{-|t|} does not vanish there."""
    if process != "airy2":
        return offsets.size
    # at least one node, so that no matrix is empty
    return max(1, int(np.searchsorted(offsets, _HEAD_CUT - np.min(svals), side="right")))


def _eye_minus_a0(process: str, svals, offsets, rr) -> np.ndarray:
    """I - A_0 at each threshold s of ``svals``, stacked (n, h, h) on the
    head of the call (``_head``), with ``offsets`` and ``rr`` from
    ``_tan_map``: the diagonal blocks of every joint system and the
    matrices of the marginals.  A_0 is K_0 on (s, inf); K_0 is the Airy
    kernel itself for Airy(2) (its closed factorized form, no inner
    quadrature) and Ai(x + y) for Airy(1).  Each stacked kernel-matrix
    call covers as many thresholds as fit in ``_EVAL_CHUNK`` entries."""
    k0 = AiryKernel() if process == "airy2" else Airy1ProcessKernel(0.0)
    h = _head(process, svals, offsets)
    x = np.asarray(svals, dtype=float)[:, None] + offsets[:h]
    rr = rr[:h, :h]
    out = np.empty((x.shape[0], h, h))
    step = max(1, _EVAL_CHUNK // (h * h))
    for lo in range(0, x.shape[0], step):
        xc = x[lo:lo + step]
        out[lo:lo + step] = np.eye(h) - rr * k0.matrix(xc, xc)
    return out


def _marginal_points(process: str, svals, m: int, scale: float,
                     eye_minus_a0=None) -> list:
    """P(A(0) <= s) = det(I - A_0) at each threshold s of ``svals``, from
    the given I - A_0 blocks, or else from ``_eye_minus_a0`` blocks built
    one kernel-matrix call at a time (so that a long ``svals`` holds only
    one call's blocks, on that call's head), by the determinant step of
    ``fredholm_det`` (``_det_result``): Cholesky, or LU flagged suspect
    where Cholesky fails, with the roundoff bound sqrt(m) ||A_0||_F 8u at
    the rule size m."""
    if eye_minus_a0 is None:
        tan_map = _tan_map(m, scale)
        step = max(1, _EVAL_CHUNK // (m * m))
        chunks = (svals[lo:lo + step] for lo in range(0, len(svals), step))
        return [point for chunk in chunks for point in _marginal_points(
            process, chunk, m, scale, _eye_minus_a0(process, chunk, *tan_map))]
    eye = np.eye(eye_minus_a0.shape[-1])
    return [_det_point(s, _det_result(block, frobenius_norm(block - eye), hermitian=True, m=m))
            for s, block in zip(svals, eye_minus_a0)]


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
    kernels = _process_kernels(process, t, _INNER_TOL, min(s1, s2))
    return _JointTable(process, t, m, scale, kernels).joint(s1, s2)


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

def tw_moments(m: int = 48, box: tuple[float, float] = DEFAULT_BOX,
               n_outer: int = 96) -> tuple[float, float]:
    """(mean, variance) of the Tracy-Widom distribution F2.

    Both moments come from partially integrated truncations over the box,

        E[X]   = U F(U) - L F(L) - int_L^U F(s) ds,
        E[X^2] = U^2 F(U) - L^2 F(L) - 2 int_L^U s F(s) ds,

    evaluated with outer Gauss-Legendre nodes; F2 itself is never
    differentiated.  The box must leave both distribution tails below
    1e-11 or ValueError is raised with the offending tail values.  (The
    default box has 1 - F2(6) = 3.8e-12, which biases the moments by well
    under 1e-9.)
    """
    low, up = box
    rule = gauss_legendre(low, up, n_outer)
    points = _marginal_points("airy2", [low, up, *rule.nodes], m, 10.0)
    f_low, f_up = points[0].value, points[1].value
    if f_low > 1e-11 or 1.0 - f_up > 1e-11:
        raise ValueError(
            f"moment box {box} too narrow: F2(L) = {f_low:.3e}, "
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


def _cov_zero(process: str, m: int, n_outer: int, box: tuple[float, float],
              scale: float) -> float:
    """Variance via the covariance identity at t = 0.

    The joint reduces to F(min(s1, s2)), so the box integral collapses to
    twice the triangle integral of F(s1)(1 - F(s2)) over s1 < s2:

        var = 2 int_L^U (1 - F(s2)) G(s2) ds2,   G(s2) = int_L^{s2} F(s1) ds1.

    F is evaluated once per outer Gauss-Legendre node, and G at the same
    nodes comes from the cumulative spectral-integration matrix of that
    rule (``_legendre_cumulative``), so a level costs n_outer marginals.
    """
    low, up = box
    outer = gauss_legendre(low, up, n_outer)
    f = np.array([p.value for p in _marginal_points(process, outer.nodes, m, scale)])
    g = _legendre_cumulative(outer) @ f
    return 2.0 * float(outer.weights @ ((1.0 - f) * g))


class _JointTable:
    """Joint determinants P(A(t) <= s_i, A(0) <= s_j) over an ascending
    grid of thresholds, with the kernels (K_t, K_{-t}) of
    ``_process_kernels``: the one joint-determinant path, for single pairs
    (``airy2_joint`` / ``airy1_joint``) and covariance grids alike.

    ``prepare`` caches per threshold s the nodes of the head of the grid
    (``_head``: the same h nodes at every threshold), the given M = I - A_0
    and det(M), and, for Airy(2), the inner-rule Airy bases of K_t and
    K_{-t}, filled by ``basis`` calls of at most ``_EVAL_CHUNK`` points.
    M^-1 is formed once per threshold, when it first pivots.  ``row``
    forms the off-diagonal blocks of the pairs (s_i, s_j), j >= i, with one
    matrix product per kernel (Airy(2)) or one shared Airy evaluation
    (Airy(1), ``Airy1ProcessKernel.shifted_pairs``), and takes each joint
    as det(M_j) det(M_i - A_ij M_j^-1 A_ji): the grid ascends, so every
    pair pivots on its larger threshold s_j (the better-conditioned block),
    in stacked products and LAPACK LU calls of at most ``CHUNK`` pairs.
    The Schur complement is unchanged by the exact similarity
    A_ij -> 2^k A_ij, A_ji -> 2^-k A_ji, so rows need no balancing.
    ``grid`` mirrors the rows by time reversal, P(s_i, s_j) = P(s_j, s_i),
    and ``joint`` orders its pair by it.
    """

    #: Pairs per stacked determinant call; 32 ran 3-8% faster than 16 for +0.6 MB RSS.
    CHUNK = 32

    def __init__(self, process: str, t: float, m: int, scale: float, kernels):
        if t == 0.0:
            raise ValueError("joint table expects t != 0")
        self.process = process
        self.t = float(t)
        self.m = int(m)
        self.scale = scale
        self._tan = _tan_map(m, scale)
        self.kt, self.kmt = kernels

    def prepare(self, svals, eye_minus_a0, marginals) -> None:
        """Cache the per-threshold data of the ascending grid ``svals``,
        replacing any earlier grid, with its I - A_0 blocks ``eye_minus_a0``
        (on a head that holds the grid's) and their determinants
        ``marginals``.  Raises ValueError on a grid that does not ascend."""
        svals = np.asarray(svals, dtype=float)
        if not np.all(np.diff(svals) >= 0.0):
            raise ValueError("joint table thresholds must ascend")
        h = _head(self.process, svals, self._tan[0])
        self._off, self._rr = self._tan[0][:h], self._tan[1][:h, :h]
        self._s = svals
        self._x = svals[:, None] + self._off[None, :]
        self.eye_minus_a0 = eye_minus_a0[:, :h, :h]
        self._det = np.asarray(marginals, dtype=float)
        self._inv = np.empty_like(self.eye_minus_a0)
        self._inverted = np.zeros(svals.size, dtype=bool)
        if self.process == "airy2":
            self._bt = self._bases(self.kt)
            self._bmt = self._bases(self.kmt)

    def _bases(self, kernel) -> np.ndarray:
        """``kernel.basis`` at every prepared node, stacked
        (n, h, inner size), in calls of at most ``_EVAL_CHUNK`` points."""
        x = self._x.ravel()
        rows = max(1, _EVAL_CHUNK // kernel.inner_size)
        out = np.empty((x.size, kernel.inner_size))
        for lo in range(0, x.size, rows):
            out[lo:lo + rows] = kernel.basis(x[lo:lo + rows])
        return out.reshape(*self._x.shape, kernel.inner_size)

    def _inverse(self, lo: int, hi: int) -> np.ndarray:
        """M^-1 at the prepared thresholds lo <= j < hi, each inverted when
        it first pivots: a grid inverts every threshold, a single joint only
        the larger one."""
        new = ~self._inverted[lo:hi]
        if new.any():
            self._inv[lo:hi][new] = np.linalg.inv(self.eye_minus_a0[lo:hi][new])
            self._inverted[lo:hi] = True
        return self._inv[lo:hi]

    def row(self, i: int) -> np.ndarray:
        """Joints at the prepared thresholds (s_i, s_j) for j >= i."""
        n = self._s.size
        return np.concatenate([self._dets(i, lo, min(lo + self.CHUNK, n))
                               for lo in range(i, n, self.CHUNK)])

    def grid(self) -> np.ndarray:
        """All joints of the prepared thresholds: the rows j >= i, mirrored
        below the diagonal."""
        n = self._s.size
        joint = np.zeros((n, n))
        for i in range(n):
            joint[i, i:] = self.row(i)
        return joint + np.triu(joint, 1).T

    def _blocks(self, i: int, lo: int, hi: int):
        """The off-diagonal blocks A_ij and A_ji of the systems I - A of the
        pairs (s_i, s_j), lo <= j < hi, each stacked (hi - lo, h, h)."""
        h, c = self._off.size, hi - lo
        x1, x2 = self._x[i], self._x[lo:hi]
        if self.process == "airy2":
            # b12[j, p, q] = K_t(x1_p, x2_jq), b21[j, q, p] = K_{-t}(x2_jq, x1_p)
            bt2 = self._bt[lo:hi].reshape(c * h, self.kt.inner_size)
            b12 = ((self._bt[i] * self.kt.inner_weights) @ bt2.T).reshape(h, c, h)
            b12 = b12.transpose(1, 0, 2) - self.kt.gaussian_part(
                x1[None, :, None], x2[:, None, :])
            bmt2 = self._bmt[lo:hi].reshape(c * h, self.kmt.inner_size)
            b21 = (bmt2 @ (self._bmt[i] * self.kmt.inner_weights).T).reshape(c, h, h)
            b21 = b21 - self.kmt.gaussian_part(x2[:, :, None], x1[None, None, :])
        else:
            # same layout; the shared Airy factor is symmetric in (p, q)
            b12, bwd = self.kt.shifted_pairs(self._s[i], self._s[lo:hi], self._off)
            b21 = bwd.transpose(0, 2, 1)
        return self._rr * b12, self._rr * b21

    def _dets(self, i: int, lo: int, hi: int, blocks=None) -> np.ndarray:
        """det(M_j) det(M_i - A_ij M_j^-1 A_ji) of the pairs (s_i, s_j),
        i <= lo <= j < hi, from ``blocks`` (A_ij, A_ji) or else ``_blocks``:
        each pair pivots on its larger threshold s_j."""
        a_ij, a_ji = blocks or self._blocks(i, lo, hi)
        # A_ij M_j^-1 first: the other order erred 200x more at Airy(1), t = 2.5, m = 20
        schur = self.eye_minus_a0[i] - a_ij @ self._inverse(lo, hi) @ a_ji
        return self._det[lo:hi] * det_lu(schur)

    def joint(self, s1: float, s2: float) -> DistributionPoint:
        """The joint at one pair, prepared as the grid (min, max): time
        reversal, P(A(t) <= s1, A(0) <= s2) = P(A(t) <= s2, A(0) <= s1),
        makes the order exact, so the pair pivots on its larger threshold.
        Its roundoff bound is sqrt(2m) N 8u, with
        N = (||A_11||^2 + ||A_22||^2 + 2 ||A_12|| ||A_21||)^(1/2) the least
        Frobenius norm of its system over the block scalings
        A_12 -> c A_12, A_21 -> A_21 / c, c > 0, which keep the determinant.
        Flagged ``suspect`` also where it breaks a Frechet bound,
        F1 + F2 - 1 <= P <= min(F1, F2), by more than the sum of its own
        and both marginals' roundoff bounds and 8u |value|."""
        pair = sorted((s1, s2))
        blocks = _eye_minus_a0(self.process, pair, *self._tan)
        f1, f2 = _marginal_points(self.process, pair, self.m, self.scale, blocks)
        self.prepare(pair, blocks, [f1.value, f2.value])
        a12, a21 = self._blocks(0, 1, 2)
        diag = frobenius_norm(np.eye(self._off.size) - self.eye_minus_a0)
        norm = math.sqrt(diag * diag + 2.0 * frobenius_norm(a12) * frobenius_norm(a21))
        bound = math.sqrt(2 * self.m) * norm * DEFAULT_EPS_MULTIPLE * UNIT_ROUNDOFF
        point = _det_point(self.t, DetResult(float(self._dets(0, 1, 2, (a12, a21))[0]),
                                             2 * self.m, bound))
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


def _cov_positive(process: str, t: float, m: int, n_outer: int,
                  box: tuple[float, float], scale: float, kernels) -> float:
    """Covariance at t > 0 from the joint table on the outer grid.  The
    marginals come first, from stacked I - A_0 blocks; the thresholds whose
    exact joints a Frechet bound puts below the level's roundoff floor are
    left out (``_tail_drop``), and the table is prepared on the others,
    with their blocks."""
    low, up = box
    outer = gauss_legendre(low, up, n_outer)
    blocks = _eye_minus_a0(process, outer.nodes, *_tan_map(m, scale))
    points = _marginal_points(process, outer.nodes, m, scale, eye_minus_a0=blocks)
    marg = np.array([p.value for p in points])
    keep, _ = _tail_drop(marg, np.array([p.est_error for p in points]), outer.weights)
    table = _JointTable(process, t, m, scale, kernels)
    table.prepare(outer.nodes[keep], blocks[keep], marg[keep])
    # the dropped thresholds' blocks are not held while the grid is formed
    del blocks
    w, f = outer.weights[keep], marg[keep]
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


def cov_airy2(t: float, accuracy: float = 1e-8,
              box: tuple[float, float] = DEFAULT_BOX, scale: float = 10.0,
              full_output: bool = False):
    """Two-point correlation cov(A_2(t), A_2(0)) of the Airy(2) process.

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
    """
    return _cov_process("airy2", t, accuracy, box, scale, full_output)


def cov_airy1(t: float, accuracy: float = 1e-8,
              box: tuple[float, float] = AIRY1_BOX, scale: float = 10.0,
              full_output: bool = False):
    """Two-point correlation cov(A_1(t), A_1(0)) of the Airy(1) process;
    refined as ``cov_airy2`` is, along ``_COV_LEVELS["airy1"]``, from
    (24, 38) to (48, 88), with the same tail-threshold drop and bound B."""
    return _cov_process("airy1", t, accuracy, box, scale, full_output)


def cov_grid(process: str, t_values, accuracy: float = 1e-8) -> CovGrid:
    """Covariance values on an ascending grid of time separations."""
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
