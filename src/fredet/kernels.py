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
on the diagonal are handled analytically.  Each kernel implements exactly
one of ``eval`` (pointwise values) and ``matrix`` (stacked cross
matrices); ``Kernel`` derives the other from it.
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
    "make_kernel",
    "KERNEL_FAMILIES",
]


class KernelEvaluationError(ArithmeticError):
    """A kernel returned a non-finite value."""


#: Below this separation |x - y| the Airy kernel's analytic diagonal
#: expansion replaces the directly evaluated quotient.
_DIAG_SPLIT = 1e-4


def _float_if_scalar(out):
    """A Python float for a 0-d result, the array otherwise."""
    return out if np.ndim(out) else float(out)


class Kernel:
    """A two-variable kernel K(x, y) with vectorized evaluation.

    A subclass implements exactly one of ``eval`` and ``matrix``; each
    default here is derived from the other, so a kernel has one evaluation
    routine.

    Attributes
    ----------
    hermitian : bool
        K(x, y) == conj(K(y, x)).
    """

    hermitian: bool = False

    def eval(self, x, y):
        """Evaluate K at broadcast-compatible arrays of points; a float for
        scalars.  Derived from ``matrix`` as 1 x 1 cross matrices."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        return _float_if_scalar(self.matrix(x[..., None], y[..., None])[..., 0, 0])

    def matrix(self, xs, ys) -> np.ndarray:
        """Cross matrix ``K(xs[..., i], ys[..., j])``, stacked over the
        leading axes of xs and ys.  Derived from ``eval``."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return np.asarray(self.eval(xs[..., :, None], ys[..., None, :]), dtype=float)


class SineKernel(Kernel):
    """sin(pi(x-y)) / (pi(x-y)); entire, Hermitian, diagonal value 1."""

    hermitian = True

    def eval(self, x, y):
        # sin(u)/u does not cancel near u = 0, so np.sinc needs no series there
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return _float_if_scalar(np.sinc(d))


class GreenKernel(Kernel):
    """Green's kernel of the Dirichlet Poisson problem on [0, 1]:
    K(x, y) = x(1-y) for x <= y, else y(1-x).  Lipschitz, Hermitian,
    positive definite."""

    hermitian = True

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _float_if_scalar(np.where(x <= y, x * (1.0 - y), y * (1.0 - x)))


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

    @staticmethod
    def _diag_pair(c):
        ai = airy_ai(c)
        aip = airy_ai_prime(c)
        d = aip * aip - c * ai * ai
        e = (2.0 * c * c * ai * ai - 2.0 * c * aip * aip - ai * aip) / 3.0
        return d, e

    def matrix(self, xs, ys) -> np.ndarray:
        """Cross matrix, stacked as ``Kernel.matrix`` is.  Entries with
        x == y are the diagonal value D(x), from the Ai and Ai' values
        already held (the expansion gives the same bits there); only the
        other pairs closer than the split are expanded about their centre.
        If ``xs`` equals ``ys`` and each row ascends by gaps of at least the
        split, as every tan-map grid does, only the exact diagonal is that
        close, and D is set there by index, with no masks: the same bits."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ax, apx = airy_ai(xs), airy_ai_prime(xs)
        # diagonal blocks pass equal (not necessarily identical) node arrays
        same = np.array_equal(xs, ys)
        ay, apy = (ax, apx) if same else (airy_ai(ys), airy_ai_prime(ys))
        # rounding is monotone: off the diagonal |x - y| is at least a gap
        grid = same and bool(np.all(np.diff(xs) >= _DIAG_SPLIT))
        x, y = xs[..., :, None], ys[..., None, :]
        d = x - y
        if grid:
            i = np.arange(xs.shape[-1])
            d[..., i, i] = 1.0
            d_safe = d
        else:
            small = np.abs(d) < _DIAG_SPLIT
            d_safe = np.where(small, 1.0, d)
        out = (ax[..., :, None] * apy[..., None, :]
               - ay[..., None, :] * apx[..., :, None]) / d_safe
        if grid:
            out[..., i, i] = apx * apx - xs * ax * ax
        elif np.any(small):
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

    The rule size n is doubled from ``_FIRST_RULE_SIZE`` until n/2 and n
    agree to ``_RULE_TOL`` on a fixed probe set, which includes the pair
    (x_min, x_min), relative to each probe value above 1.  The quadrature
    error falls exponentially in the size, so the rule kept is the
    smallest of n/2, 5n/8, 3n/4 and 7n/8 points whose probes match the
    n-point rule's to roundoff (``_ROUNDOFF``); n itself if none does.  A
    tighter ``_RULE_TOL`` would only add nodes, so it is not an option.

    ``achieved_tol`` is that agreement.  In the Laplace branch the
    subtraction of the Gaussian term G loses ~eps G(x, y) absolute, most
    at (x_min, x_min), so ``achieved_tol`` also holds
    8 eps G(x_min, x_min) / max(1, |K_t(x_min, x_min)|): 1.1e-13 at
    x_min = -10 for t = -0.5, 5.8e-12 at x_min = -18.  If ``achieved_tol``
    exceeds ``_RULE_TOL`` (doubling reached ``_MAX_RULE_SIZE`` first, or
    the cancellation is larger), a RuntimeWarning says so.

    ``basis``, the inner rule and its probes take Ai from ``airy_ai`` at
    every argument: below -195 (x_min - 40/|t| for t <= -0.75) from its
    expansion, above 108 as its underflowed 0; a non-finite probe (Ai is NaN
    below -1e205) raises ``KernelEvaluationError``.  ``rmt`` takes x <= 20 only.
    """

    hermitian = True

    #: |t| below which the t < 0 branch switches to the Laplace-identity form.
    _LAPLACE_SWITCH = 0.75
    #: Largest argument x + xi the decay and Laplace branches integrate to.
    _DECAY_END = 12.0
    _LAPLACE_END = 16.0
    #: |t xi| at the far end of the decay and oscillatory intervals.
    _DAMPING = 40.0
    #: Probe agreement that stops the doubling; a larger ``achieved_tol`` warns.
    _RULE_TOL = 1e-12
    #: Probe agreement, as in the doubling test, at which a smaller rule
    #: matches the verified one to roundoff (7.2e-16).  At x_min = -10 the
    #: n/2 rule of K_t for 0 < |t| < 1.5, ~1e-15 off in the kernel's
    #: blocks, differs from the n-point rule by 3.9-6.4 eps, the 5n/8 rule
    #: by 1.4-3.1 eps.
    _ROUNDOFF = 3.25 * np.finfo(float).eps
    #: Size of the first rule of the doubling, and the size it stops at.
    _FIRST_RULE_SIZE = 30
    _MAX_RULE_SIZE = 25600
    #: Highest x_min a kernel is built for: the fixed probe pairs reach down
    #: to it, so a larger x_min is lowered to it.
    _X_MIN_CEILING = -10.0

    def __init__(self, t: float, x_min: float = _X_MIN_CEILING):
        self.t = float(t)
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not math.isfinite(x_min):
            raise ValueError("x_min must be finite")
        self.x_min = min(float(x_min), self._X_MIN_CEILING)
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
        n = self._FIRST_RULE_SIZE
        rule = self._inner_rule(n)
        probe = self._probe(*rule)
        diff = math.inf
        while n < self._MAX_RULE_SIZE:
            n *= 2
            half, half_probe = rule, probe
            rule = self._inner_rule(n)
            probe = self._probe(*rule)
            diff = _probe_diff(probe, half_probe)
            if diff <= self._RULE_TOL:
                rule = self._smallest_verified(n, rule, probe, half, half_probe)
                break
        self._xi, self._q = rule
        # read-only: rmt caches a kernel pair and shares it among calls at its t
        self._xi.setflags(write=False)
        self._q.setflags(write=False)
        self.inner_size = self._xi.size
        cancel = 0.0
        if self._mode == "laplace":
            corner = float(self.gaussian_part(self.x_min, self.x_min))
            value = self.eval(self.x_min, self.x_min)
            cancel = 8.0 * np.finfo(float).eps * corner / max(1.0, abs(value))
        self.achieved_tol = max(diff, cancel)
        if not self.achieved_tol <= self._RULE_TOL:
            warnings.warn(
                f"Airy2ProcessKernel(t={self.t:g}, x_min={self.x_min:g}): achieved_tol="
                f"{self.achieved_tol:.3g} > tol={self._RULE_TOL:g} (rule agreement {diff:.3g} at "
                f"{self.inner_size} nodes, Gaussian-term cancellation {cancel:.3g})",
                RuntimeWarning, stacklevel=2)

    def _smallest_verified(self, n, rule, probe, half, half_probe):
        """The smallest rule of n/2, 5n/8, 3n/4 or 7n/8 points whose probes
        agree with the verified n-point ``rule``'s ``probe`` to
        ``_ROUNDOFF``; ``rule`` itself if none does.  The n/2 rule and its
        probes come from the doubling."""
        for k in range(4, 8):
            cand = half if k == 4 else self._inner_rule(k * n // 8)
            cand_probe = half_probe if k == 4 else self._probe(*cand)
            if _probe_diff(cand_probe, probe) <= self._ROUNDOFF:
                return cand
        return rule

    def _inner_rule(self, n: int):
        rule = gauss_legendre(*self._interval, n)
        sign = -1.0 if self._mode == "oscillatory" else 1.0
        with np.errstate(under="ignore", over="ignore"):  # an inf weight raises in _probe
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
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.sum(ax * ay * q[None, :], axis=1)
        if not np.all(np.isfinite(out)):  # no doubling mends it: nan <= _RULE_TOL is false
            raise KernelEvaluationError(f"non-finite probes of Airy2ProcessKernel(t={self.t:g}, "
                                        f"x_min={self.x_min:g}) at {xi.size} inner nodes")
        return out

    def basis(self, xs) -> np.ndarray:
        """Ai(xs[..., i] + xi_k) on the inner nodes; callers may cache this
        and form cross matrices as ``(basis(x) * weights) @ basis(y).T``.
        Raises ValueError for arguments below ``x_min``."""
        xs = np.asarray(xs, dtype=float)
        if xs.size and np.min(xs) < self.x_min:
            raise ValueError(
                f"Airy2ProcessKernel(t={self.t:g}) is built for arguments >= "
                f"x_min={self.x_min:g}, got {np.min(xs):g}")
        return airy_ai(xs[..., None] + self._xi)

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

    def matrix(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = (self.basis(xs) * self._q) @ np.swapaxes(self.basis(ys), -1, -2)
        if self._mode == "laplace":
            out -= self.gaussian_part(xs[..., :, None], ys[..., None, :])
        return out


def _probe_diff(probe, ref):
    """Largest probe difference, relative where a reference probe exceeds 1:
    the Laplace branch's positive-axis integral grows like its Gaussian
    term as x_min falls, and rounds at that scale."""
    return float(np.max(np.abs(probe - ref) / np.maximum(1.0, np.abs(ref))))


class Airy1ProcessKernel(Kernel):
    """Closed-form kernel of the Airy(1) process:

        K_t(x, y) = Ai(x+y+t^2) e^{t(x+y) + 2t^3/3}
                    - exp(-(x-y)^2 / (4t)) / sqrt(4 pi t)    for t > 0,

    and just the first term otherwise (so K_0(x, y) = Ai(x+y)): ``eval`` is
    ``airy_part`` minus ``gaussian_part``, which ``rmt`` takes apart.
    """

    hermitian = True

    def __init__(self, t: float):
        self.t = float(t)
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")

    def eval(self, x, y):
        return _float_if_scalar(self.airy_part(x, y) - self.gaussian_part(x, y))

    def airy_part(self, x, y):
        """Ai(v) e^{t(x+y) + 2t^3/3}, v = x + y + t^2, as scaled Ai times
        e^{-d^2 (2w + t) / 3}, w = sqrt(v), d = w - t, for v > 0: it underflows cleanly, and
        summed term by term that exponent cancels (8e-13 relative error at t = 20).  d is
        (x + y) / (w + t) for t > 0, where w - t cancels (195 eps at t = 1e4).  Past t =
        1.3e154 v is the largest float, the part below 2.4e-78, the other branch NaN."""
        t, xy = self.t, np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
        v = np.minimum(xy + t * t, np.finfo(float).max)
        w = np.sqrt(np.maximum(v, 0.0))
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            d = xy / (w + t) if t > 0.0 else w - t
            expo = np.where(v > 0.0, -d ** 2 * (2.0 * w + t) / 3.0,
                            t * xy + 2.0 * np.float64(t) ** 3 / 3.0)
            return airy_ai_scaled(v) * np.exp(expo)

    def gaussian_part(self, x, y):
        """The heat term exp(-(x-y)^2 / (4t)) / sqrt(4 pi t) for t > 0, else 0."""
        if self.t <= 0.0:
            return 0.0
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        with np.errstate(under="ignore", over="ignore"):
            return np.exp(-(d ** 2) / (4.0 * self.t)) / math.sqrt(4.0 * math.pi * self.t)


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

    def phi(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.s + self.scale * np.tan(0.5 * np.pi * xi)

    def dphi(self, xi):
        xi = np.asarray(xi, dtype=float)
        cos = np.cos(0.5 * np.pi * xi)
        with np.errstate(divide="ignore", over="ignore"):
            return self.scale * (0.5 * np.pi) / (cos * cos)

    def matrix(self, xs, ys) -> np.ndarray:
        """Cross matrix, stacked as ``Kernel.matrix`` is.  Arguments at or
        past 1 are clipped to 0, where the base kernel is finite, and carry
        the factor 0 in place of sqrt(phi')."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        goodx = xs < 1.0
        goody = ys < 1.0
        xc = np.where(goodx, xs, 0.0)
        yc = np.where(goody, ys, 0.0)
        rx = np.where(goodx, np.sqrt(self.dphi(xc)), 0.0)
        ry = np.where(goody, np.sqrt(self.dphi(yc)), 0.0)
        with np.errstate(under="ignore"):
            core = np.asarray(self.base.matrix(self.phi(xc), self.phi(yc)), dtype=float)
        return rx[..., :, None] * core * ry[..., None, :]


# ---------------------------------------------------------------------------
# The name registry
# ---------------------------------------------------------------------------

def sine_kernel() -> SineKernel:
    """The sine kernel sin(pi(x-y))/(pi(x-y))."""
    return SineKernel()


#: Registry names understood by :func:`make_kernel` (and the CLI).
KERNEL_FAMILIES = ("sine", "airy", "green", "airy2:t", "airy1:t")


def make_kernel(name: str, x_min: float = Airy2ProcessKernel._X_MIN_CEILING) -> Kernel:
    """Build a kernel from its registry name.

    ``sine``, ``airy`` and ``green`` give ``SineKernel``, ``AiryKernel``
    and ``GreenKernel``.  The process families take the time argument
    after a colon: ``airy2:1.5`` gives ``Airy2ProcessKernel(1.5,
    x_min=x_min)`` and ``airy1:-0.25`` gives ``Airy1ProcessKernel(-0.25)``.
    ``x_min`` is the smallest argument the kernel will see; the Airy(2)
    process kernel sizes its inner rule by it.  Raises KeyError for a name
    outside ``KERNEL_FAMILIES``.
    """
    base = name.strip()
    if base == "sine":
        return SineKernel()
    if base == "airy":
        return AiryKernel()
    if base == "green":
        return GreenKernel()
    if ":" in base:
        family, _, arg = base.partition(":")
        try:
            t = float(arg)
        except ValueError:
            raise KeyError(f"bad kernel parameter in {name!r}") from None
        if family == "airy2":
            return Airy2ProcessKernel(t, x_min=x_min)
        if family == "airy1":
            return Airy1ProcessKernel(t)
    raise KeyError(
        f"unknown kernel {name!r}; available: {', '.join(KERNEL_FAMILIES)}")
