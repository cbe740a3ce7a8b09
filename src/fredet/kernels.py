"""Concrete integral-operator kernels.

Implemented kernels:

* ``SineKernel``      -- sin(pi(x-y)) / (pi(x-y)), the bulk-scaling kernel
  whose determinant on (0, s) is the gap probability E2(0; s).
* ``AiryKernel``      -- (Ai(x)Ai'(y) - Ai(y)Ai'(x)) / (x-y), the edge-scaling
  kernel whose determinant on (s, inf) is the Tracy-Widom law F2(s).
* ``GreenKernel``     -- the Green's function of -u'' with Dirichlet data on
  [0, 1]; the classical low-regularity benchmark with determinant
  sin(sqrt z)/sqrt z.
* ``Airy2ProcessKernel`` -- the time-shifted Airy-product kernels K_t whose
  2x2 systems give joint distributions of the Airy(2) process.
* ``Airy1ProcessKernel`` -- the closed-form kernels of the Airy(1) process.
* ``TransformedKernel``  -- change of variables phi(xi) = s + scale*tan(pi xi/2)
  mapping kernels on (s, inf) to kernels on (0, 1) without changing the
  Fredholm determinant.

All kernels evaluate vectorized over numpy arrays; removable singularities
on the diagonal are handled analytically.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .quadrature import gauss_legendre
from .specfun import airy_ai, airy_ai_prime, airy_ai_scaled

__all__ = [
    "Kernel",
    "SineKernel",
    "AiryKernel",
    "GreenKernel",
    "Airy2ProcessKernel",
    "Airy1ProcessKernel",
    "TransformedKernel",
    "sine_kernel",
    "airy_kernel",
    "green_kernel",
    "airy2_process_kernel",
    "airy1_process_kernel",
    "transform_to_unit",
    "make_kernel",
    "KERNEL_FAMILIES",
]

#: Below this separation |x - y| the analytic diagonal expansions replace
#: the directly evaluated quotients.
_DIAG_SPLIT = 1e-4


class Kernel:
    """A two-variable kernel K(x, y) with vectorized evaluation.

    Attributes
    ----------
    hermitian : bool
        K(x, y) == conj(K(y, x)).
    smoothness : str
        Qualitative smoothness tag ("entire", "C^{0,1}", "continuous", ...).
    """

    hermitian: bool = False
    smoothness: str = "continuous"

    def eval(self, x, y):
        """Evaluate K at broadcast-compatible arrays of points."""
        raise NotImplementedError

    def diagonal(self, x):
        """K(x, x), using the analytic limit where the quotient is 0/0."""
        return self.eval(x, x)

    def matrix(self, xs, ys) -> np.ndarray:
        """Cross matrix ``K(xs[..., i], ys[..., j])``, stacked over the
        leading axes of xs and ys."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return np.asarray(self.eval(xs[..., :, None], ys[..., None, :]), dtype=float)


class SineKernel(Kernel):
    """sin(pi(x-y)) / (pi(x-y)); entire, Hermitian, diagonal value 1."""

    hermitian = True
    smoothness = "entire"

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x - y
        u = np.pi * d
        small = np.abs(d) < _DIAG_SPLIT
        u_safe = np.where(small, 1.0, u)
        far = np.sin(u_safe) / u_safe
        u2 = u * u
        near = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0)
        return np.where(small, near, far)

    def diagonal(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


class GreenKernel(Kernel):
    """Green's kernel of the Dirichlet Poisson problem on [0, 1]:
    K(x, y) = x(1-y) for x <= y, else y(1-x).  Lipschitz, Hermitian,
    positive definite."""

    hermitian = True
    smoothness = "C^{0,1}"

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(x <= y, x * (1.0 - y), y * (1.0 - x))

    def diagonal(self, x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x)


class AiryKernel(Kernel):
    """(Ai(x)Ai'(y) - Ai(y)Ai'(x)) / (x - y); entire, Hermitian.

    On the diagonal the L'Hopital limit is Ai'(x)^2 - x Ai(x)^2.  Near the
    diagonal the quotient is replaced by its symmetric Taylor expansion
    about the midpoint c = (x+y)/2,

        K(c+h, c-h) = D(c) - h^2 E(c) + O(h^4),

    with D(c) the diagonal value and
    E(c) = (2/3) c^2 Ai(c)^2 - (2/3) c Ai'(c)^2 - (1/3) Ai(c) Ai'(c)
    (the integral of D from c to infinity); the two branches agree to
    ~1e-13 at the split |x - y| = 1e-4.
    """

    hermitian = True
    smoothness = "entire"

    @staticmethod
    def _diag_pair(c):
        ai = airy_ai(c)
        aip = airy_ai_prime(c)
        d = aip * aip - c * ai * ai
        e = (2.0 * c * c * ai * ai - 2.0 * c * aip * aip - ai * aip) / 3.0
        return d, e

    def eval(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        d = x - y
        small = np.abs(d) < _DIAG_SPLIT
        out = np.empty(x.shape, dtype=float)
        if np.any(~small):
            xf, yf, df = x[~small], y[~small], d[~small]
            num = airy_ai(xf) * airy_ai_prime(yf) - airy_ai(yf) * airy_ai_prime(xf)
            out[~small] = num / df
        if np.any(small):
            c = 0.5 * (x[small] + y[small])
            h = 0.5 * d[small]
            dval, eval_ = self._diag_pair(c)
            out[small] = dval - h * h * eval_
        return out if out.shape else float(out)

    def diagonal(self, x):
        x = np.asarray(x, dtype=float)
        ai = airy_ai(x)
        aip = airy_ai_prime(x)
        return aip * aip - x * ai * ai

    def matrix(self, xs, ys) -> np.ndarray:
        """Cross matrix, stacked as ``Kernel.matrix`` is.  Entries with
        x == y are the diagonal value D(x), from the Ai and Ai' values
        already held (the expansion gives the same bits there); only the
        other pairs closer than the split are expanded about their centre."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ax, apx = airy_ai(xs), airy_ai_prime(xs)
        # diagonal blocks pass equal (not necessarily identical) node arrays
        if np.array_equal(xs, ys):
            ay, apy = ax, apx
        else:
            ay, apy = airy_ai(ys), airy_ai_prime(ys)
        x, y = xs[..., :, None], ys[..., None, :]
        d = x - y
        small = np.abs(d) < _DIAG_SPLIT
        d_safe = np.where(small, 1.0, d)
        out = (ax[..., :, None] * apy[..., None, :]
               - ay[..., None, :] * apx[..., :, None]) / d_safe
        if np.any(small):
            exact = d == 0.0
            diag = (apx * apx - xs * ax * ax)[..., :, None]
            out[exact] = np.broadcast_to(diag, d.shape)[exact]
            near = small & ~exact
            if np.any(near):
                c = 0.5 * (np.broadcast_to(x, d.shape)[near]
                           + np.broadcast_to(y, d.shape)[near])
                h = 0.5 * d[near]
                dval, eval_ = self._diag_pair(c)
                out[near] = dval - h * h * eval_
        return out


class Airy2ProcessKernel(Kernel):
    """Time-shifted Airy-product kernel of the Airy(2) process:

        K_t(x, y) =  int_0^inf  e^{-xi t} Ai(x+xi) Ai(y+xi) dxi    (t >= 0)
        K_t(x, y) = -int_-inf^0 e^{-xi t} Ai(x+xi) Ai(y+xi) dxi    (t < 0)

    K_0 is the Airy kernel itself (the factorized form).  The kernel is
    built for arguments x, y >= ``x_min`` (lowered to -10 if it is above):
    ``basis``, ``eval`` and ``matrix`` raise ValueError below it, because
    the inner rule is sized for that domain only.

    The inner integral is a Gauss-Legendre rule on a finite xi interval
    with weights +-w e^{-xi t}.  For t >= 0 the interval is
    [0, min(12 - x_min, 40/t)]: beyond 12 - x_min, x + xi and y + xi
    exceed 12, so the integrand is below Ai(12)^2 ~ 2e-26, and beyond 40/t
    the damping e^{-t xi} is below e^{-40} ~ 4e-18.  For t < 0 the
    defining integral is oscillatory with slow algebraic decay.  For
    t <= -0.75 it is integrated directly on [-40/|t|, 0], at whose far end
    the damping e^{-|t| |xi|} has fallen to e^{-40}.  For -0.75 < t < 0 it
    is rewritten via the Laplace transform of the Airy product,

        int_R e^{tau xi} Ai(x+xi) Ai(y+xi) dxi
            = exp(tau^3/12 - tau(x+y)/2 - (x-y)^2/(4 tau)) / (2 sqrt(pi tau)),

    as a tame positive-axis integral on [0, 16 - x_min] minus that closed
    Gaussian term; the integrand left out is below
    Ai(16)^2 e^{0.75 (16 - x_min)}, 5e-31 at x_min = -10.

    The rule size n is doubled from ``inner_rule_size`` until n/2 and n
    agree to ``tol`` on a fixed probe set, which includes the pair
    (x_min, x_min), relative to each probe value above 1; the reached
    agreement is stored in ``achieved_tol``.  The quadrature error falls
    exponentially in the size, so the rule kept is the smallest of n/2,
    5n/8, 3n/4 and 7n/8 points whose probes match the n-point rule's to
    roundoff (``_ROUNDOFF``, or ``tol`` if smaller); n itself if none does.
    If doubling reaches ``max_inner_size`` with ``achieved_tol > tol``, a
    RuntimeWarning says so.

    ``basis`` leaves Ai(x + xi_k) at 0 where x + xi_k exceeds a cut X
    (``skip_cut``).  A term of the inner sum so dropped has a factor
    Ai(u) with u > X >= 0, where 0 < Ai(u) < e^{-(2/3) u^{3/2}}, and its
    other factor is below max |Ai| < 0.54.  So an entry of ``eval`` or
    ``matrix`` moves by at most 0.54 e^{-(2/3) X^{3/2}} sum_k |q_k|, with
    q the inner weights, and X is the smallest cut that puts this below
    the branch's truncation bound above: Ai(12)^2 for t >= 0 and
    t <= -0.75, Ai(16)^2 e^{0.75 (16 - x_min)} in the Laplace branch.  At
    x_min = -10 that is X ~ 20 for K_1 and K_{-1}, X ~ 25 for K_{-0.5}.

    The Ai values of ``basis`` come from a table the kernel builds once
    (``_AiTaylorTable``) on [x_min + min xi_k, X], exactly the arguments
    ``basis`` evaluates: degree-13 Taylor polynomials about the grid points
    j/16, with coefficients from Ai and Ai' at each centre by the Airy
    equation w'' = u w, each used within 1/32 of its centre.  On
    [-95, 25] the omitted terms are below 1.2e-19 absolute for u <= 0 and
    4.2e-23 relative for u > 0, and against 40-digit mpmath the table is
    as accurate as ``airy_ai``: 1.7e-14 absolute on [-95, -10] and 9.4e-16
    on [-10, 0], 1.4e-14 and 1.8e-14 relative on [0, 10] and [10, 25]
    (``airy_ai``: 2.0e-14, 1.1e-15, 1.4e-14, 1.8e-14).  The table reaches
    down to u ~ -195, so the build raises ValueError for x_min below that,
    or below -195 + 40/|t| for t <= -0.75 (-142 at t = -0.75); F2 is 0 in
    double precision there.  The inner rule, its probes and the cut X use
    ``airy_ai``.
    """

    hermitian = True
    smoothness = "entire"

    #: |t| below which the t < 0 branch switches to the Laplace-identity form.
    _LAPLACE_SWITCH = 0.75
    #: Largest argument x + xi the decay and Laplace branches integrate to.
    _DECAY_END = 12.0
    _LAPLACE_END = 16.0
    #: |t xi| at the far end of the decay and oscillatory intervals.
    _DAMPING = 40.0
    #: Probe agreement, as in the doubling test, at which a smaller rule
    #: matches the verified one to roundoff (7.2e-16).  At x_min = -10 the
    #: n/2 rule of K_t for 0 < |t| < 1.5, ~1e-15 off in the kernel's
    #: blocks, differs from the n-point rule by 3.9-6.4 eps, the 5n/8 rule
    #: by 1.4-3.1 eps.
    _ROUNDOFF = 3.25 * np.finfo(float).eps
    #: An upper bound on |Ai| over the real line (0.5357 at x = -1.0188).
    _AI_MAX = 0.54

    def __init__(self, t: float, inner_rule_size: int = 30, tol: float = 1e-12,
                 max_inner_size: int = 25600, x_min: float = -10.0):
        if inner_rule_size < 1:
            raise ValueError("inner_rule_size must be >= 1")
        self.t = float(t)
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not math.isfinite(x_min):
            raise ValueError("x_min must be finite")
        # the fixed probe pairs reach down to -10
        self.x_min = min(float(x_min), -10.0)
        if self.t >= 0.0:
            self._mode = "decay"
            end = self._DECAY_END - self.x_min
            if self.t > 0.0:
                end = min(end, self._DAMPING / self.t)
            self._interval = (0.0, end)
        elif -self.t < self._LAPLACE_SWITCH:
            self._mode = "laplace"
            self._interval = (0.0, self._LAPLACE_END - self.x_min)
        else:
            self._mode = "oscillatory"
            self._interval = (self._DAMPING / self.t, 0.0)
        self._probe_pairs = np.vstack([[(self.x_min, self.x_min)], self._PROBE_PAIRS])
        n = max(16, int(inner_rule_size))
        rule = self._inner_rule(n)
        probe = self._probe(*rule)
        diff = math.inf
        while n < max_inner_size:
            n *= 2
            half, half_probe = rule, probe
            rule = self._inner_rule(n)
            probe = self._probe(*rule)
            diff = _probe_diff(probe, half_probe)
            if diff <= tol:
                rule = self._smallest_verified(n, rule, probe, half, half_probe,
                                               min(tol, self._ROUNDOFF))
                break
        self._xi, self._q = rule
        self.achieved_tol = diff
        if not diff <= tol:
            warnings.warn(
                f"Airy2ProcessKernel(t={self.t:g}): inner rule stopped at "
                f"max_inner_size={max_inner_size} with achieved_tol="
                f"{diff:.3g} > tol={tol:g}", RuntimeWarning, stacklevel=2)
        self.inner_size = self._xi.size
        self.skip_cut = self._skip_cut()
        self._ai = _AiTaylorTable(self.x_min + float(np.min(self._xi)), self.skip_cut)

    def _smallest_verified(self, n, rule, probe, half, half_probe, level):
        """The smallest rule of n/2, 5n/8, 3n/4 or 7n/8 points whose probes
        agree with the verified n-point ``rule``'s ``probe`` to ``level``;
        ``rule`` itself if none does.  The n/2 rule and its probes come
        from the doubling."""
        for k in range(4, 8):
            cand = half if k == 4 else self._inner_rule(k * n // 8)
            cand_probe = half_probe if k == 4 else self._probe(*cand)
            if _probe_diff(cand_probe, probe) <= level:
                return cand
        return rule

    def _skip_cut(self) -> float:
        """The smallest X >= 0 with 0.54 e^{-(2/3) X^{3/2}} sum_k |q_k|
        below the branch's truncation bound (see the class docstring)."""
        if self._mode == "laplace":
            log_bound = (2.0 * math.log(airy_ai(self._LAPLACE_END))
                         + self._LAPLACE_SWITCH * (self._LAPLACE_END - self.x_min))
        else:
            log_bound = 2.0 * math.log(airy_ai(self._DECAY_END))
        excess = math.log(self._AI_MAX * float(np.sum(np.abs(self._q)))) - log_bound
        return (1.5 * max(excess, 0.0)) ** (2.0 / 3.0)

    def _inner_rule(self, n: int):
        rule = gauss_legendre(*self._interval, n)
        sign = -1.0 if self._mode == "oscillatory" else 1.0
        with np.errstate(under="ignore"):
            return rule.nodes, sign * rule.weights * np.exp(-self.t * rule.nodes)

    #: Probe pairs besides (x_min, x_min).
    _PROBE_PAIRS = np.array([
        (-10.0, 5.0), (-2.0, 3.0), (0.0, 0.0), (5.0, 5.0), (2.0, -7.0),
    ])

    def _probe(self, xi, q):
        x = self._probe_pairs[:, 0]
        y = self._probe_pairs[:, 1]
        ax = airy_ai(x[:, None] + xi[None, :])
        ay = airy_ai(y[:, None] + xi[None, :])
        return np.sum(ax * ay * q[None, :], axis=1)

    def basis(self, xs) -> np.ndarray:
        """Ai(xs[i] + xi_k) on the inner nodes, 0 where xs[i] + xi_k is
        above ``skip_cut``; callers may cache this and form cross matrices
        as ``(basis(x) * weights) @ basis(y).T``.  Raises ValueError for
        arguments below ``x_min``."""
        xs = np.asarray(xs, dtype=float)
        if xs.size and np.min(xs) < self.x_min:
            raise ValueError(
                f"Airy2ProcessKernel(t={self.t:g}) is built for arguments >= "
                f"x_min={self.x_min:g}, got {np.min(xs):g}")
        arg = xs[:, None] + self._xi[None, :]
        keep = arg <= self.skip_cut
        out = np.zeros(arg.shape)
        out[keep] = self._ai(arg[keep])
        return out

    @property
    def inner_weights(self) -> np.ndarray:
        """Signed inner-rule weights (damping factor folded in)."""
        return self._q

    def gaussian_part(self, xs, ys):
        """Closed Gaussian term subtracted in the Laplace-identity branch;
        0 for the other branches."""
        if self._mode != "laplace":
            return 0.0
        tau = -self.t
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        with np.errstate(under="ignore"):
            expo = (tau ** 3 / 12.0 - tau * (xs + ys) / 2.0
                    - (xs - ys) ** 2 / (4.0 * tau))
            return np.exp(expo) / (2.0 * math.sqrt(math.pi * tau))

    def eval(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        xf = x.ravel()
        yf = y.ravel()
        out = np.empty(xf.shape)
        chunk = max(1, int(2e6 // max(self._xi.size, 1)))
        for lo in range(0, xf.size, chunk):
            hi = min(lo + chunk, xf.size)
            out[lo:hi] = (self.basis(xf[lo:hi]) * self.basis(yf[lo:hi])) @ self._q
        if self._mode == "laplace":
            out -= self.gaussian_part(xf, yf)
        out = out.reshape(x.shape)
        return out if out.shape else float(out)

    def matrix(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = (self.basis(xs) * self._q[None, :]) @ self.basis(ys).T
        if self._mode == "laplace":
            out -= self.gaussian_part(xs[:, None], ys[None, :])
        return out


class _AiTaylorTable:
    """Ai on [lo, hi] from Taylor polynomials of degree ``DEGREE`` about
    the grid points c_j = j/16, each used within 1/32 of its centre.

    Ai solves w'' = u w (DLMF 9.2.1), so its Taylor coefficients about c
    follow from a_0 = Ai(c) and a_1 = Ai'(c) by the recurrence
    (k+2)(k+1) a_{k+2} = c a_k + a_{k-1}: the ODE-Taylor method of Gil,
    Segura & Temme, *Numerical Methods for Special Functions* (SIAM, 2007).
    The centres lie on one global grid, so a value depends on u alone, not
    on the range a table was built for.  The build raises ValueError if on
    some panel the next two terms, |a_14| h^14 + |a_15| h^15 with h = 1/32,
    are not below u max(|a_0|, h |a_1|), u the unit roundoff: that happens
    below u ~ -195, where Ai oscillates too fast for the grid.
    Evaluation raises ValueError outside [lo, hi]; the table never
    extrapolates.
    """

    DEGREE = 13
    _PER_UNIT = 16

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = float(lo), float(hi)
        self._j0 = int(np.rint(self.lo * self._PER_UNIT))
        c = np.arange(self._j0, int(np.rint(self.hi * self._PER_UNIT)) + 1) / self._PER_UNIT
        a = np.zeros((self.DEGREE + 3, c.size))
        a[0] = airy_ai(c)
        a[1] = airy_ai_prime(c)
        for k in range(self.DEGREE + 1):
            a[k + 2] = (c * a[k] + (a[k - 1] if k else 0.0)) / ((k + 2) * (k + 1))
        h = 0.5 / self._PER_UNIT
        tail = (np.abs(a[self.DEGREE + 1]) * h ** (self.DEGREE + 1)
                + np.abs(a[self.DEGREE + 2]) * h ** (self.DEGREE + 2))
        bad = tail >= 0.5 * np.finfo(float).eps * np.maximum(np.abs(a[0]), h * np.abs(a[1]))
        if np.any(bad):
            raise ValueError(
                f"Ai table: degree-{self.DEGREE} Taylor panels of width "
                f"1/{self._PER_UNIT} miss roundoff at u <= {c[bad][-1]:g}, "
                f"where Ai oscillates too fast for them; the arguments "
                f"x + xi must stay above it")
        self._coef = a[:self.DEGREE + 1]

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.size and not (self.lo <= np.min(u) and np.max(u) <= self.hi):
            raise ValueError(
                f"Ai table built for [{self.lo:g}, {self.hi:g}], got "
                f"[{np.min(u):g}, {np.max(u):g}]")
        v = u * self._PER_UNIT
        j = np.rint(v)
        d = (v - j) / self._PER_UNIT
        idx = j.astype(np.intp) - self._j0
        coef = self._coef
        p = coef[self.DEGREE].take(idx)
        for k in range(self.DEGREE - 1, -1, -1):
            p *= d
            p += coef[k].take(idx)
        return p


def _probe_diff(probe, ref):
    """Largest probe difference, relative where a reference probe exceeds 1:
    the Laplace branch's positive-axis integral grows like its Gaussian
    term as x_min falls, and rounds at that scale."""
    return float(np.max(np.abs(probe - ref) / np.maximum(1.0, np.abs(ref))))


class Airy1ProcessKernel(Kernel):
    """Closed-form kernel of the Airy(1) process:

        K_t(x, y) = Ai(x+y+t^2) e^{t(x+y) + 2t^3/3}
                    - exp(-(x-y)^2 / (4t)) / sqrt(4 pi t)    for t > 0,

    and just the first term otherwise (so K_0(x, y) = Ai(x+y)).  The
    Airy-times-exponential product is evaluated through the scaled Airy
    function so that large positive arguments underflow cleanly instead of
    producing inf * 0.
    """

    hermitian = True
    smoothness = "entire"

    def __init__(self, t: float):
        self.t = float(t)
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = self.t
        u = x + y + t * t
        c = t * (x + y) + 2.0 * t ** 3 / 3.0
        out = _airy_times_exp(u, c)
        if t > 0.0:
            out = out - _heat(x, y, t)
        return out if np.ndim(out) else float(out)

    def matrix_pair(self, xs, ys):
        """``(K_t(xs[i], ys[j]), K_{-t}(ys[j], xs[i]))``, both indexed
        [i, j].  The two kernels share the factor Ai(x+y+t^2) and differ
        in the sign of the exponent, so the Airy points are evaluated once
        for both."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        t = self.t
        x, y = xs[:, None], ys[None, :]
        ai, log_scale = _airy_log_split(x + y + t * t)
        return self._pair_terms(x, y, ai, log_scale, x + y)

    def shifted_pairs(self, s1: float, s2, offsets):
        """``matrix_pair(s1 + offsets, s2[j] + offsets)`` for every j,
        stacked as [j, p, q]: ``K_t(s1 + o_p, s2_j + o_q)`` and
        ``K_{-t}(s2_j + o_q, s1 + o_p)``.

        The sum x + y is rounded as (s1 + s2_j) + (o_p + o_q), which is
        symmetric bit for bit in (p, q) and in (s1, s2_j), so the Airy
        factor Ai(x + y + t^2) is evaluated for p <= q only and mirrored.
        The exponent t (x + y) comes from the same sum, which keeps it
        consistent with the Airy factor's log scale; the heat term is
        evaluated in full.
        """
        offsets = np.asarray(offsets, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        t = self.t
        x = (s1 + offsets)[None, :, None]
        y = (s2[:, None] + offsets[None, :])[:, None, :]
        xy = (s1 + s2)[:, None, None] + (offsets[:, None] + offsets[None, :])
        p, q = np.triu_indices(offsets.size)
        a_tri, g_tri = _airy_log_split(xy[:, p, q] + t * t)
        ai = np.empty(xy.shape)
        log_scale = np.empty(xy.shape)
        for full, tri in ((ai, a_tri), (log_scale, g_tri)):
            full[:, p, q] = tri
            full[:, q, p] = tri
        return self._pair_terms(x, y, ai, log_scale, xy)

    def _pair_terms(self, x, y, ai, log_scale, xy):
        """(K_t(x, y), K_{-t}(y, x)) from the split Airy factor
        Ai(xy + t^2) = ai * exp(log_scale), xy = x + y."""
        t = self.t
        c = t * xy + 2.0 * t ** 3 / 3.0
        with np.errstate(under="ignore", over="ignore"):
            fwd = ai * np.exp(c + log_scale)
            bwd = ai * np.exp(-c + log_scale)
        if t > 0.0:
            fwd -= _heat(x, y, t)
        elif t < 0.0:
            bwd -= _heat(x, y, -t)
        return fwd, bwd


def _heat(x, y, t):
    """The heat-kernel term exp(-(x-y)^2 / (4t)) / sqrt(4 pi t), t > 0."""
    with np.errstate(under="ignore", over="ignore"):
        return np.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def _airy_log_split(u):
    """(a, g) with Ai(u) = a * exp(g): the scaled Airy function and
    g = -(2/3) u^(3/2) for u > 0, Ai(u) itself and g = 0 otherwise."""
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    a = np.empty(u.shape)
    g = np.zeros(u.shape)
    with np.errstate(under="ignore", over="ignore"):
        if np.any(pos):
            up = u[pos]
            a[pos] = airy_ai_scaled(up)
            g[pos] = -(2.0 / 3.0) * up ** 1.5
        if np.any(~pos):
            a[~pos] = airy_ai(u[~pos])
    return a, g


def _airy_times_exp(u, c):
    """Ai(u) * exp(c), evaluated in log space where Ai would underflow.
    For u <= 0 the exponent c is bounded above, so nothing overflows."""
    u, c = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(c, dtype=float))
    a, g = _airy_log_split(u)
    with np.errstate(under="ignore", over="ignore"):
        return a * np.exp(c + g)


class TransformedKernel(Kernel):
    """Kernel on (0, 1)^2 obtained from a kernel on a half-infinite domain
    by the substitution phi_s(xi) = s + scale * tan(pi xi / 2):

        K~(xi, eta) = sqrt(phi'(xi) phi'(eta)) K(phi(xi), phi(eta)).

    The Fredholm determinant is invariant under this change of variables.
    Evaluation at xi = 1 or eta = 1 returns the analytic limit 0 (kernel
    decay beats the sec^2 growth).
    """

    def __init__(self, base: Kernel, s: float, scale: float = 10.0):
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be finite and > 0, got {scale}")
        self.base = base
        self.s = float(s)
        self.scale = float(scale)
        self.hermitian = bool(base.hermitian)
        self.smoothness = "smooth"

    def phi(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.s + self.scale * np.tan(0.5 * np.pi * xi)

    def dphi(self, xi):
        xi = np.asarray(xi, dtype=float)
        cos = np.cos(0.5 * np.pi * xi)
        with np.errstate(divide="ignore", over="ignore"):
            return self.scale * (0.5 * np.pi) / (cos * cos)

    def eval(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        inside = (x < 1.0) & (y < 1.0)
        out = np.zeros(x.shape)
        if np.any(inside):
            xi = x[inside]
            eta = y[inside]
            with np.errstate(under="ignore"):
                val = (np.sqrt(self.dphi(xi) * self.dphi(eta))
                       * np.asarray(self.base.eval(self.phi(xi), self.phi(eta))))
            out[inside] = val
        return out if out.shape else float(out)

    def matrix(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        goodx = xs < 1.0
        goody = ys < 1.0
        rx = np.zeros(xs.shape)
        ry = np.zeros(ys.shape)
        rx[goodx] = np.sqrt(self.dphi(xs[goodx]))
        ry[goody] = np.sqrt(self.dphi(ys[goody]))
        # evaluate the base kernel on clipped arguments; masked rows/columns
        # are zeroed afterwards so huge mapped points never contribute
        xm = self.phi(np.where(goodx, xs, 0.0))
        ym = self.phi(np.where(goody, ys, 0.0))
        with np.errstate(under="ignore"):
            core = np.asarray(self.base.matrix(xm, ym), dtype=float)
        out = rx[:, None] * core * ry[None, :]
        if not np.all(goodx):
            out[~goodx, :] = 0.0
        if not np.all(goody):
            out[:, ~goody] = 0.0
        return out


# ---------------------------------------------------------------------------
# Factory functions and the name registry
# ---------------------------------------------------------------------------

def sine_kernel() -> SineKernel:
    """The sine kernel sin(pi(x-y))/(pi(x-y))."""
    return SineKernel()


def airy_kernel() -> AiryKernel:
    """The Airy kernel (Ai(x)Ai'(y) - Ai(y)Ai'(x))/(x-y)."""
    return AiryKernel()


def green_kernel() -> GreenKernel:
    """The Green's kernel of the Dirichlet Poisson problem on [0, 1]."""
    return GreenKernel()


def airy2_process_kernel(t: float, **kwargs) -> Airy2ProcessKernel:
    """Airy(2)-process kernel K_t; see ``Airy2ProcessKernel``."""
    return Airy2ProcessKernel(t, **kwargs)


def airy1_process_kernel(t: float) -> Airy1ProcessKernel:
    """Airy(1)-process kernel K_t; see ``Airy1ProcessKernel``."""
    return Airy1ProcessKernel(t)


def transform_to_unit(base: Kernel, s: float, scale: float = 10.0) -> TransformedKernel:
    """Wrap a kernel on (s, inf) as an equivalent kernel on (0, 1)."""
    return TransformedKernel(base, s, scale=scale)


#: Registry names understood by :func:`make_kernel` (and the CLI).
KERNEL_FAMILIES = ("sine", "airy", "green", "airy2:t", "airy1:t")


def make_kernel(name: str, x_min: float = -10.0) -> Kernel:
    """Build a kernel from its registry name.

    Plain names: ``sine``, ``airy``, ``green``.  Parametrized families
    take the time argument after a colon, e.g. ``airy2:1.5`` or
    ``airy1:-0.25``.  ``x_min`` is the smallest argument the kernel will
    see; the Airy(2) process kernel sizes its inner rule by it.
    """
    base = name.strip()
    if base == "sine":
        return sine_kernel()
    if base == "airy":
        return airy_kernel()
    if base == "green":
        return green_kernel()
    if ":" in base:
        family, _, arg = base.partition(":")
        try:
            t = float(arg)
        except ValueError:
            raise KeyError(f"bad kernel parameter in {name!r}") from None
        if family == "airy2":
            return airy2_process_kernel(t, x_min=x_min)
        if family == "airy1":
            return airy1_process_kernel(t)
    raise KeyError(
        f"unknown kernel {name!r}; available: {', '.join(KERNEL_FAMILIES)}")
