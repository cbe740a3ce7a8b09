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
  block-system determinants.
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
from dataclasses import dataclass

import numpy as np

from .kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                      SineKernel, TransformedKernel)
from .linalg import det_lu
from .nystrom import (BlockSystem, NystromProblem, _balance_blocks,
                      fredholm_det, fredholm_det_system)
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
    """Diagonal kernel K_0 and off-diagonal kernels K_t, K_{-t}."""
    if process == "airy2":
        # K_0 of the Airy(2) family is the Airy kernel itself; use the
        # closed factorized form rather than an inner quadrature
        return (AiryKernel(),
                Airy2ProcessKernel(t, tol=inner_tol),
                Airy2ProcessKernel(-t, tol=inner_tol))
    if process == "airy1":
        return (Airy1ProcessKernel(0.0),
                Airy1ProcessKernel(t),
                Airy1ProcessKernel(-t))
    raise ValueError(f"unknown process {process!r} (expected 'airy2' or 'airy1')")


def _joint_system(process: str, t: float, s1: float, s2: float, m: int,
                  scale: float, inner_tol: float) -> BlockSystem:
    k0, kt, kmt = _process_kernels(process, t, inner_tol)
    unit = (0.0, 1.0)
    rule = gauss_legendre(0.0, 1.0, m)
    kernels = (
        (TransformedKernel(k0, s1, scale=scale),
         TransformedKernel(kt, s1, scale=scale, s_right=s2)),
        (TransformedKernel(kmt, s2, scale=scale, s_right=s1),
         TransformedKernel(k0, s2, scale=scale)),
    )
    return BlockSystem(intervals=(unit, unit), kernels=kernels, rules=(rule, rule))


def _marginal(process: str, s: float, m: int, scale: float = 10.0) -> float:
    """P(A(t) <= s) for the stationary process: the one-operator determinant
    with the K_0 kernel on (s, inf)."""
    if process == "airy2":
        return f2_tw(s, m, scale=scale).value
    kernel = TransformedKernel(Airy1ProcessKernel(0.0), s, scale=scale)
    rule = gauss_legendre(0.0, 1.0, m)
    res = fredholm_det(NystromProblem(kernel, (0.0, 1.0), -1.0, rule))
    return float(np.real(res.value))


def _joint_point(process: str, t: float, s1: float, s2: float, m: int,
                 scale: float, inner_tol: float) -> DistributionPoint:
    if t == 0.0:
        # At coinciding times the joint degenerates to the marginal at
        # min(s1, s2); the t -> 0 limit of the block determinant reproduces
        # it only through a delta contribution in K_{-t}, so the block
        # assembly is bypassed here.
        value = _marginal(process, min(s1, s2), m, scale)
        return _point(t, value, 2 * m, math.nan)
    system = _joint_system(process, t, s1, s2, m, scale, inner_tol)
    res = fredholm_det_system(system, -1.0)
    return DistributionPoint(parameter=float(t), value=float(np.real(res.value)),
                             m=res.m, est_error=res.roundoff_bound,
                             suspect=not (-_PROB_SLACK <= float(np.real(res.value))
                                          <= 1.0 + _PROB_SLACK))


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
    f = np.array([_marginal(process, s, m, scale) for s in outer.nodes])
    g = _legendre_cumulative(outer) @ f
    return 2.0 * float(outer.weights @ ((1.0 - f) * g))


class _JointTable:
    """Joint determinants P(A(t) <= s_i, A(0) <= s_j) over a grid of
    thresholds, a whole row of the grid at a time.

    ``prepare`` caches per threshold s the transformed nodes, the diagonal
    block I - A_0 and, for the Airy(2) process, the inner-rule Airy bases
    of K_t and K_{-t}, each in one preallocated array.  ``row`` then forms
    the off-diagonal blocks of a row against a range of columns with one
    matrix product per kernel (Airy(2)) or one shared Airy evaluation
    (Airy(1), ``Airy1ProcessKernel.shifted_pairs``), balances each system as
    ``_balance_blocks`` does, and takes the determinants in stacked LAPACK
    calls of at most ``CHUNK`` systems, which bounds the memory of a row.
    Produces the same values as ``airy2_joint`` / ``airy1_joint`` (which
    assemble a fresh BlockSystem per call); the unit tests pin the two
    paths against each other.
    """

    #: Systems per stacked determinant call.
    CHUNK = 16

    def __init__(self, process: str, t: float, m: int, scale: float,
                 inner_tol: float = 1e-12, kernels=None):
        if t <= 0.0:
            raise ValueError("joint table expects t > 0")
        self.process = process
        self.t = float(t)
        self.m = int(m)
        rule = gauss_legendre(0.0, 1.0, m)
        xi = rule.nodes
        self._off = scale * np.tan(0.5 * np.pi * xi)
        dphi = scale * (0.5 * np.pi) / np.cos(0.5 * np.pi * xi) ** 2
        r = np.sqrt(rule.weights * dphi)
        self._rr = np.outer(r, r)
        self.k0, self.kt, self.kmt = kernels or _process_kernels(process, t, inner_tol)

    def prepare(self, svals) -> None:
        """Cache the per-threshold data of the grid ``svals``, replacing
        any earlier grid."""
        svals = np.asarray(svals, dtype=float)
        n, m = svals.size, self.m
        self._s = svals
        self._x = svals[:, None] + self._off[None, :]
        self._eye_minus_diag = np.empty((n, m, m))
        if self.process == "airy2":
            self._bt = np.empty((n, m, self.kt.inner_size))
            self._bmt = np.empty((n, m, self.kmt.inner_size))
        for k, x in enumerate(self._x):
            self._eye_minus_diag[k] = np.eye(m) - self._rr * self.k0.matrix(x, x)
            if self.process == "airy2":
                self._bt[k] = self.kt.basis(x)
                self._bmt[k] = self.kmt.basis(x)

    def row(self, i: int, lo: int, hi: int) -> np.ndarray:
        """Joints at the prepared thresholds (s_i, s_j) for lo <= j < hi."""
        return np.concatenate([self._row_chunk(i, a, min(a + self.CHUNK, hi))
                               for a in range(lo, hi, self.CHUNK)])

    def _row_chunk(self, i: int, lo: int, hi: int) -> np.ndarray:
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
        systems[:, :m, :m] = self._eye_minus_diag[i]
        systems[:, :m, m:] = -blocks[0][1]
        systems[:, m:, :m] = -blocks[1][0]
        systems[:, m:, m:] = self._eye_minus_diag[lo:hi]
        # time reversal: below the grid diagonal take the (s_j, s_i) system,
        # which is the (s_i, s_j) one transposed with its block order
        # swapped, so a full grid is as symmetric as the kernel blocks are
        below = np.arange(lo, hi) < i
        if np.any(below):
            swap = np.r_[m:2 * m, :m]
            systems[below] = systems[below].transpose(0, 2, 1)[:, swap][:, :, swap]
        return det_lu(systems)

    def joint(self, s1: float, s2: float) -> float:
        """The joint at one pair; prepares (s1, s2) as the grid."""
        self.prepare([s1, s2])
        return float(self.row(0, 1, 2)[0])


def _cov_positive(process: str, t: float, m: int, n_outer: int,
                  box: tuple[float, float], scale: float, kernels) -> float:
    """Covariance at t > 0 from the joint table on the outer grid.

    Time reversal gives P(s1, s2) = P(s2, s1), so only the upper triangle
    j >= i of the joint matrix is computed and then mirrored.
    """
    low, up = box
    outer = gauss_legendre(low, up, n_outer)
    svals = outer.nodes
    table = _JointTable(process, t, m, scale, kernels=kernels)
    table.prepare(svals)
    marg = np.array([_marginal(process, s, m, scale) for s in svals])
    n = svals.size
    joint = np.zeros((n, n))
    for i in range(n):
        joint[i, i:] = table.row(i, i, n)
    joint += np.triu(joint, 1).T
    integrand = joint - np.outer(marg, marg)
    return float(outer.weights @ integrand @ outer.weights)


#: (block dimension m, outer nodes) per refinement level.  The values
#: converge exponentially in both, so at 1e-8 most t stop on the first
#: two levels.  Small t (0.1 at 1e-8) needs the two finest, so neither may
#: be dropped.
_COV_LEVELS = ((20, 32), (24, 38), (30, 48), (38, 64), (48, 88))


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
    values = []
    est = math.inf
    for m, n_outer in _COV_LEVELS:
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
        m, n_outer = _COV_LEVELS[-1]
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
    ``_COV_LEVELS``, from (20, 32) to (48, 88), until two successive levels
    agree to ``accuracy``, and returns the finer of the two.  With
    ``full_output=True`` returns (value, two-level agreement, levels used);
    the agreement is sized to the request (about 1e-9 at accuracy 1e-8),
    not to roundoff.  If even the two finest levels disagree by more than
    ``accuracy``, the finest value is returned and a RuntimeWarning names
    t, ``accuracy``, the agreement and the finest level.
    """
    return _cov_process("airy2", t, accuracy, box, scale, full_output)


def cov_airy1(t: float, accuracy: float = 1e-8,
              box: tuple[float, float] = AIRY1_BOX, scale: float = 10.0,
              full_output: bool = False):
    """Two-point correlation cov(A_1(t), A_1(0)) of the Airy(1) process."""
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
