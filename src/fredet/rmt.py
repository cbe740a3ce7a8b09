"""Random-matrix distributions computed from Fredholm determinants.

* ``e2_gap``    -- bulk gap probability E2(0; s) = det(I - A) with the sine
  kernel on (0, s).
* ``f2_tw``     -- Tracy-Widom distribution F2(s) = det(I - A) with the Airy
  kernel on (s, inf), by either the tan-transformation to (0, 1) or by
  truncating the interval at a point T.
* ``truncation_bound`` -- the computable Hilbert-Schmidt tail bound
  (int_T^inf int_T^inf K(x,y)^2)^(1/2) controlling the truncation route.
* ``airy2_joint`` / ``airy1_joint`` -- joint distributions
  P(A(t) <= s1, A(0) <= s2) of the Airy(2) / Airy(1) processes as
  determinants of 2x2 operator systems, all computed by ``_JointTable``.
* ``cov_airy2`` / ``cov_airy1`` -- two-point correlation functions
  cov(A(t), A(0)), via the covariance identity

      cov = int int [P(A(t) <= s1, A(0) <= s2) - P(A(t) <= s1) P(A(0) <= s2)]
            ds1 ds2

  over a truncated box, with all probabilities evaluated by determinants
  at outer Gauss-Legendre nodes and refinement until two levels agree.
* ``tw_moments`` -- mean and variance of F2 by partially-integrated moment
  formulas (no numerical differentiation of F2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                      SineKernel, TransformedKernel)
from .linalg import DEFAULT_EPS_MULTIPLE, UNIT_ROUNDOFF, det_lu, roundoff_bound
# fredholm_det_system is unused here, but the benchmark's tracer
# (perfbench/tracing.py) patches it in this module by name, as it does
# _marginal and _JointTable.joint, so all three stay bound
from .nystrom import (NystromProblem, _balance_blocks, _det_auto, fredholm_det,
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


@dataclass(frozen=True)
class DistributionPoint:
    """A probability value at one parameter point.

    ``suspect`` flags values outside [-1e-10, 1 + 1e-10] before clamping
    (values are never silently clamped), and values whose Hermitian
    determinant fell back from Cholesky to LU (``DetResult.method ==
    "cholesky->lu"``): roundoff has then swamped the positive definiteness
    of I - A, and with it the relative accuracy of a tail value.
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


def _point(parameter: float, value, m: int, est_error: float,
           fallback: bool = False) -> DistributionPoint:
    v = float(np.real(value))
    suspect = fallback or not (-_PROB_SLACK <= v <= 1.0 + _PROB_SLACK)
    return DistributionPoint(parameter=float(parameter), value=v, m=m,
                             est_error=float(est_error), suspect=suspect)


def _det_point(parameter: float, res) -> DistributionPoint:
    """The point of a z = -1 Hermitian determinant ``res`` (a DetResult)."""
    return _point(parameter, res.value, res.m, res.roundoff_bound,
                  fallback=res.method == "cholesky->lu")


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


def f2_tw(s: float, m: int, route: str = "transform", scale: float = 10.0,
          T: float | None = None) -> DistributionPoint:
    """Tracy-Widom distribution F2(s): Airy-kernel determinant at z = -1
    on (s, inf).

    route="transform" maps (s, inf) to (0, 1) with
    phi(xi) = s + scale*tan(pi xi/2); route="truncate" works on the finite
    interval (s, T) and needs T > s (the committed error is bounded by
    ``truncation_bound``).
    """
    if route == "transform":
        kernel = TransformedKernel(AiryKernel(), s, scale=scale)
        rule = gauss_legendre(0.0, 1.0, m)
        res = fredholm_det(NystromProblem(kernel, (0.0, 1.0), -1.0, rule))
    elif route == "truncate":
        if T is None:
            raise ValueError("route='truncate' requires a truncation point T")
        if T <= s:
            raise ValueError(f"need T > s, got T={T}, s={s}")
        rule = gauss_legendre(s, T, m)
        res = fredholm_det(NystromProblem(AiryKernel(), (s, T), -1.0, rule))
    else:
        raise ValueError(f"unknown route {route!r} (expected 'transform' or 'truncate')")
    return _det_point(s, res)


def truncation_bound(s: float, T: float, m: int = 80) -> float:
    """Hilbert-Schmidt tail bound (int_T^inf int_T^inf K(x,y)^2 dx dy)^(1/2)
    on the F2 error of truncating the Airy-kernel operator at T > s."""
    if T <= s:
        raise ValueError(f"need T > s, got T={T}, s={s}")
    kernel = TransformedKernel(AiryKernel(), T)
    rule = gauss_legendre(0.0, 1.0, m)
    km = kernel.matrix(rule.nodes, rule.nodes)
    w = rule.weights
    val = float(w @ (km * km) @ w)
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# Airy process joint distributions
# ---------------------------------------------------------------------------

def _process_kernels(process: str, t: float, inner_tol: float):
    """The off-diagonal kernels K_t and K_{-t} of a joint system."""
    if process == "airy2":
        return (Airy2ProcessKernel(t, tol=inner_tol),
                Airy2ProcessKernel(-t, tol=inner_tol))
    if process == "airy1":
        return Airy1ProcessKernel(t), Airy1ProcessKernel(-t)
    raise ValueError(f"unknown process {process!r} (expected 'airy2' or 'airy1')")


def _tan_map(m: int, scale: float):
    """The map phi_s(xi) = s + scale*tan(pi xi/2) at the m-point
    Gauss-Legendre nodes xi on (0, 1): the offsets phi_s(xi) - s, and the
    outer product rr of r = sqrt(w phi'(xi)), so that
    rr * K(s1 + offsets, s2 + offsets) is the Nystrom block of K on
    (s1, inf) x (s2, inf)."""
    rule = gauss_legendre(0.0, 1.0, m)
    xi = rule.nodes
    offsets = scale * np.tan(0.5 * np.pi * xi)
    dphi = scale * (0.5 * np.pi) / np.cos(0.5 * np.pi * xi) ** 2
    r = np.sqrt(rule.weights * dphi)
    return offsets, np.outer(r, r)


def _eye_minus_a0(process: str, svals, offsets, rr) -> np.ndarray:
    """I - A_0 at each threshold s of ``svals``, stacked (n, m, m), with
    ``offsets`` and ``rr`` from ``_tan_map``: the diagonal blocks of every
    joint system and the matrices of the marginals.  A_0 is K_0 on
    (s, inf); K_0 is the Airy kernel itself for Airy(2) (its closed
    factorized form, no inner quadrature) and Ai(x + y) for Airy(1)."""
    k0 = AiryKernel() if process == "airy2" else Airy1ProcessKernel(0.0)
    m = offsets.size
    out = np.empty((len(svals), m, m))
    for k, s in enumerate(svals):
        x = s + offsets
        out[k] = np.eye(m) - rr * k0.matrix(x, x)
    return out


def _marginal_point(s: float, block) -> DistributionPoint:
    """P(A(0) <= s) = det(I - A_0) from the block of ``_eye_minus_a0`` at s:
    Cholesky, or LU flagged suspect where Cholesky fails, with the
    roundoff bound sqrt(m) ||A_0||_F 8u of ``fredholm_det``."""
    m = block.shape[0]
    value, method = _det_auto(block, hermitian=True)
    bound = roundoff_bound(np.eye(m) - block, DEFAULT_EPS_MULTIPLE * UNIT_ROUNDOFF)
    return _point(s, value, m, bound, fallback=method == "cholesky->lu")


def _marginal(process: str, s: float, m: int, scale: float = 10.0) -> float:
    """P(A(t) <= s) for the stationary process: the one-operator determinant
    with the K_0 kernel on (s, inf)."""
    return _marginal_point(s, _eye_minus_a0(process, [s], *_tan_map(m, scale))[0]).value


def _joint_point(process: str, t: float, s1: float, s2: float, m: int,
                 scale: float, inner_tol: float) -> DistributionPoint:
    if t == 0.0:
        # At coinciding times the joint degenerates to the marginal at
        # min(s1, s2); the t -> 0 limit of the block determinant reproduces
        # it only through a delta contribution in K_{-t}, so the block
        # system is bypassed here.  The marginal's roundoff bound and
        # Cholesky-to-LU flag carry over.
        s = min(s1, s2)
        point = _marginal_point(s, _eye_minus_a0(process, [s], *_tan_map(m, scale))[0])
        return replace(point, parameter=0.0, m=2 * m)
    return _JointTable(process, t, m, scale, inner_tol).joint(s1, s2)


def airy2_joint(t: float, s1: float, s2: float, m: int, scale: float = 10.0,
                inner_tol: float = 1e-12) -> DistributionPoint:
    """P(A_2(t) <= s1, A_2(0) <= s2) as the 2x2 block determinant with
    blocks [[A_0, A_t], [A_{-t}, A_0]] on L2(s1, inf) + L2(s2, inf)."""
    return _joint_point("airy2", t, s1, s2, m, scale, inner_tol)


def airy1_joint(t: float, s1: float, s2: float, m: int, scale: float = 10.0) -> DistributionPoint:
    """P(A_1(t) <= s1, A_1(0) <= s2); same block structure with the
    closed-form Airy(1) kernels."""
    return _joint_point("airy1", t, s1, s2, m, scale, inner_tol=1e-12)


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
    f_low = f2_tw(low, m).value
    f_up = f2_tw(up, m).value
    if f_low > 1e-11 or 1.0 - f_up > 1e-11:
        raise ValueError(
            f"moment box {box} too narrow: F2(L) = {f_low:.3e}, "
            f"1 - F2(U) = {1.0 - f_up:.3e}")
    rule = gauss_legendre(low, up, n_outer)
    fvals = np.array([f2_tw(s, m).value for s in rule.nodes])
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
    blocks = _eye_minus_a0(process, outer.nodes, *_tan_map(m, scale))
    f = np.array([_marginal_point(s, b).value for s, b in zip(outer.nodes, blocks)])
    g = _legendre_cumulative(outer) @ f
    return 2.0 * float(outer.weights @ ((1.0 - f) * g))


class _JointTable:
    """Joint determinants P(A(t) <= s_i, A(0) <= s_j) over a grid of
    thresholds: the one joint-determinant path, for single pairs
    (``airy2_joint`` / ``airy1_joint``) and covariance grids alike.

    ``prepare`` caches per threshold s the transformed nodes, the diagonal
    block I - A_0 (``_eye_minus_a0``) and, for the Airy(2) process, the
    inner-rule Airy bases of K_t and K_{-t}, each in one preallocated array.
    ``row`` then forms the off-diagonal blocks of the pairs (s_i, s_j),
    j >= i, with one matrix product per kernel (Airy(2)) or one shared Airy
    evaluation (Airy(1), ``Airy1ProcessKernel.shifted_pairs``), balances
    each system as ``_balance_blocks`` does, and takes the determinants in
    stacked LAPACK calls of at most ``CHUNK`` systems, which bounds the
    memory of a row.  ``grid`` mirrors the rows by time reversal,
    P(s_i, s_j) = P(s_j, s_i), so a grid is symmetric by construction.
    """

    #: Systems per stacked determinant call.
    CHUNK = 16

    def __init__(self, process: str, t: float, m: int, scale: float,
                 inner_tol: float = 1e-12, kernels=None):
        if t == 0.0:
            raise ValueError("joint table expects t != 0")
        self.process = process
        self.t = float(t)
        self.m = int(m)
        self._off, self._rr = _tan_map(m, scale)
        self.kt, self.kmt = kernels or _process_kernels(process, t, inner_tol)

    def prepare(self, svals) -> None:
        """Cache the per-threshold data of the grid ``svals``, replacing
        any earlier grid."""
        svals = np.asarray(svals, dtype=float)
        n, m = svals.size, self.m
        self._s = svals
        self._x = svals[:, None] + self._off[None, :]
        self.eye_minus_a0 = _eye_minus_a0(self.process, svals, self._off, self._rr)
        if self.process == "airy2":
            self._bt = np.empty((n, m, self.kt.inner_size))
            self._bmt = np.empty((n, m, self.kmt.inner_size))
            for k, x in enumerate(self._x):
                self._bt[k] = self.kt.basis(x)
                self._bmt[k] = self.kmt.basis(x)

    def row(self, i: int) -> np.ndarray:
        """Joints at the prepared thresholds (s_i, s_j) for j >= i."""
        n = self._s.size
        return np.concatenate([det_lu(self._systems(i, a, min(a + self.CHUNK, n)))
                               for a in range(i, n, self.CHUNK)])

    def grid(self) -> np.ndarray:
        """All joints of the prepared thresholds: the rows j >= i, mirrored
        below the diagonal."""
        n = self._s.size
        joint = np.zeros((n, n))
        for i in range(n):
            joint[i, i:] = self.row(i)
        return joint + np.triu(joint, 1).T

    def _systems(self, i: int, lo: int, hi: int) -> np.ndarray:
        """The balanced systems I - A of the pairs (s_i, s_j), lo <= j < hi,
        stacked (hi - lo, 2m, 2m)."""
        m, c = self.m, hi - lo
        x1 = self._x[i]
        x2 = self._x[lo:hi]
        if self.process == "airy2":
            # b12[j, p, q] = K_t(x1_p, x2_jq), b21[j, q, p] = K_{-t}(x2_jq, x1_p)
            bt2 = self._bt[lo:hi].reshape(c * m, -1)
            b12 = ((self._bt[i] * self.kt.inner_weights) @ bt2.T).reshape(m, c, m)
            b12 = b12.transpose(1, 0, 2) - self.kt.gaussian_part(
                x1[None, :, None], x2[:, None, :])
            bmt2 = self._bmt[lo:hi].reshape(c * m, -1)
            b21 = (bmt2 @ (self._bmt[i] * self.kmt.inner_weights).T).reshape(c, m, m)
            b21 = b21 - self.kmt.gaussian_part(x2[:, :, None], x1[None, None, :])
        else:
            # same layout; the shared Airy factor is symmetric in (p, q)
            b12, bwd = self.kt.shifted_pairs(self._s[i], self._s[lo:hi], self._off)
            b21 = bwd.transpose(0, 2, 1)
        blocks = [[None, self._rr * b12], [self._rr * b21, None]]
        _balance_blocks(blocks)
        systems = np.empty((c, 2 * m, 2 * m))
        systems[:, :m, :m] = self.eye_minus_a0[i]
        systems[:, :m, m:] = -blocks[0][1]
        systems[:, m:, :m] = -blocks[1][0]
        systems[:, m:, m:] = self.eye_minus_a0[lo:hi]
        return systems

    def joint(self, s1: float, s2: float) -> DistributionPoint:
        """The joint at one pair, with the roundoff bound
        sqrt(2m) ||A||_F 8u of its balanced system; prepares (s1, s2) as
        the grid."""
        self.prepare([s1, s2])
        system = self._systems(0, 1, 2)[0]
        bound = roundoff_bound(np.eye(2 * self.m) - system,
                               DEFAULT_EPS_MULTIPLE * UNIT_ROUNDOFF)
        return _point(self.t, det_lu(system), 2 * self.m, bound)


def _cov_positive(process: str, t: float, m: int, n_outer: int,
                  box: tuple[float, float], scale: float, kernels) -> float:
    """Covariance at t > 0 from the joint table on the outer grid, with
    the marginals taken from the table's own I - A_0 blocks."""
    low, up = box
    outer = gauss_legendre(low, up, n_outer)
    svals = outer.nodes
    table = _JointTable(process, t, m, scale, kernels=kernels)
    table.prepare(svals)
    marg = np.array([_marginal_point(s, b).value for s, b in zip(svals, table.eye_minus_a0)])
    integrand = table.grid() - np.outer(marg, marg)
    return float(outer.weights @ integrand @ outer.weights)


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
    # the process kernels depend on neither m nor the outer rule, so one
    # build (and one inner-rule refinement for Airy(2)) serves every level
    kernels = (_process_kernels(process, t, min(1e-12, accuracy * 1e-2))
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
    two.  With ``full_output=True`` returns (value, two-level agreement,
    levels used); the agreement is sized to the request (about 1e-9 at
    accuracy 1e-8), not to roundoff.  If even the two finest levels
    disagree by more than ``accuracy``, the finest value is returned and a
    RuntimeWarning names t, ``accuracy``, the agreement and the finest
    level.
    """
    return _cov_process("airy2", t, accuracy, box, scale, full_output)


def cov_airy1(t: float, accuracy: float = 1e-8,
              box: tuple[float, float] = AIRY1_BOX, scale: float = 10.0,
              full_output: bool = False):
    """Two-point correlation cov(A_1(t), A_1(0)) of the Airy(1) process;
    refined as ``cov_airy2`` is, along ``_COV_LEVELS["airy1"]``, from
    (24, 38) to (48, 88)."""
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
