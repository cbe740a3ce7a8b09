"""Airy functions with domain guards.

Ai and Ai' have one evaluator, chosen per point x (zeta = (2/3)|x|^{3/2}):

* -195 <= x <= 108: a table of degree-13 Taylor polynomials about the
  points j/16 (``_AiTable``), and their derivatives for Ai'.
* x < -195, where Ai oscillates too fast for the panels: DLMF 9.7.9-10.
* x > 108: 0; above 107.6 Ai and Ai' are below half the smallest
  subnormal number.
* The scaled Ai(x) e^zeta is the table value times e^zeta for 0 < x <= 10,
  and above that DLMF 9.7.5 without its factor e^-zeta, since rounding
  zeta costs the product ~zeta eps.

Against 50-digit mpmath (``tests/test_specfun.py``) the table is good to a
few eps, absolute where Ai oscillates and relative where it decays; the
expansions stay within 4 eps (1 + |x|^{3/2}), the conditioning of Ai in x,
and the scaled Ai within 1e-14 relative.  numpy is the only dependency.

All functions accept scalars or ndarrays and are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "airy_ai",
    "airy_ai_prime",
    "airy_ai_scaled",
]


def _checked(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("airy argument must be finite")
    return arr


def _match(x, arr):
    return float(arr) if np.isscalar(x) or np.ndim(x) == 0 else arr


#: Ai(0) = 3^(-2/3) / Gamma(2/3) and Ai'(0) = -3^(-1/3) / Gamma(1/3)
#: (DLMF 9.2.3), correctly rounded.
_AI0 = 0.35502805388781723926
_AIP0 = -0.25881940379280679841


#: u_k and v_k of DLMF 9.7.2, k < 22: the first term of the expansions left
#: out is below 1.4e-17 relative for x >= 10 and below 1e-50 for x <= -195.
_U = np.cumprod([1.0] + [(6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k)
                         for k in range(1, 22)])
_V = np.array([-(6 * k + 1) / (6 * k - 1) for k in range(22)]) * _U

#: From this x on, ``_decaying`` sums only the first ``_FAR_TERMS`` terms:
#: the first one left out, u_10 / zeta^10, is 2.2e-19 at x = 30.
_FAR = 30.0
_FAR_TERMS = 10


def _zeta(x):
    return (2.0 / 3.0) * (x * np.sqrt(x))


def _series(w, coef):
    """sum coef[k] w^k by Horner's rule."""
    p = np.full(np.shape(w), coef[-1], dtype=np.result_type(w))
    for a in coef[-2::-1]:
        p *= w
        p += a
    return p


def _decaying(x, deriv: int):
    """Ai (deriv=0) or Ai' (deriv=1) times e^zeta on x >= 10, DLMF 9.7.5-6:
    x^(-+1/4) / (2 sqrt pi) sum u_k (-1/zeta)^k, with v_k and a minus sign
    for Ai'; 22 terms below ``_FAR``, 10 from there on."""
    x = np.asarray(x, dtype=float)
    coef = _V if deriv else _U
    with np.errstate(under="ignore"):
        # -1/zeta, which cannot overflow
        w = -1.5 * x ** -1.5
    # Horner's rule: the terms past _FAR_TERMS only below _FAR, then the
    # first _FAR_TERMS everywhere
    series = np.full(x.shape, coef[_FAR_TERMS - 1])
    near = x < _FAR
    if near.any():
        series[near] = _series(w[near], coef[_FAR_TERMS - 1:])
    for a in coef[_FAR_TERMS - 2::-1]:
        series *= w
        series += a
    return (-(x ** 0.25) if deriv else x ** -0.25) * series / (2.0 * math.sqrt(math.pi))


def _oscillating(x, deriv: int):
    """Ai (deriv=0) or Ai' (deriv=1) on x < 0, DLMF 9.7.9-10: with y = -x,
    Re y^(-1/4) / sqrt(pi) e^(-i (zeta - pi/4)) sum u_k (i/zeta)^k for Ai,
    and -Im of the same with y^(1/4) and v_k for Ai'."""
    y = -x
    # zeta overflows for x < -1e205, where the phase is lost anyway: nan
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = _zeta(y)
        s = (np.exp(-1j * zeta) * _series(1j / zeta, _V if deriv else _U)
             * ((1.0 + 1.0j) / math.sqrt(2.0 * math.pi)))
    return -s.imag * y ** 0.25 if deriv else s.real * y ** -0.25


def _taylor(c, a0, a1, degree: int) -> np.ndarray:
    """Taylor coefficients a_0..a_degree, stacked (degree + 1, c.size), about
    each centre c of the solution of w'' = u w with w(c) = a0, w'(c) = a1."""
    a = np.zeros((degree + 1, np.size(c)))
    a[0], a[1] = a0, a1
    for k in range(degree - 1):
        a[k + 2] = (c * a[k] + (a[k - 1] if k else 0.0)) / ((k + 2) * (k + 1))
    return a


def _walk_down(c, w, wp):
    """(w, w') at the equally spaced ascending centres c of the solution of
    w'' = u w with the given (w, w') at c[-1], by Taylor steps of degree 24
    (terms left out below 1e-19 at |c| <= 195) from each centre to the one
    below.  A step is linear in (w, w'): its 2x2 matrices come from two
    series per centre, and it adds an increment, which rounds less than
    forming the new values whole."""
    d = c[0] - c[1] if c.size > 1 else 0.0
    k = np.arange(25.0)
    value, slope = d ** k, k * d ** (k - 1.0)
    value[0] = slope[1] = 0.0
    f = _taylor(c[1:], 1.0, 0.0, 24)
    g = _taylor(c[1:], 0.0, 1.0, 24)
    steps = zip(*(v.tolist() for v in (value @ f, value @ g, slope @ f, slope @ g)))
    out = [(w, wp)]
    for f0, g0, f1, g1 in reversed(list(steps)):
        w, wp = w + (f0 * w + g0 * wp), wp + (f1 * w + g1 * wp)
        out.append((w, wp))
    return np.array(out[::-1]).T


class _AiTable:
    """Ai and Ai' on [lo, hi], lo <= 0 < hi, from Taylor polynomials about
    the points c_j = j/16, each used within h = 1/32 of its centre: degree
    ``DEGREE`` for Ai, its derivative one degree higher for Ai'.

    Ai solves w'' = u w (DLMF 9.2.1), so its Taylor coefficients about c
    follow from Ai(c), Ai'(c) by (k+2)(k+1) a_{k+2} = c a_k + a_{k-1}: the
    ODE-Taylor method of Gil, Segura & Temme, *Numerical Methods for
    Special Functions* (SIAM, 2007).  The centre values are Taylor steps of
    1/16 in the direction in which Ai is the stable solution: down from
    Ai(0), Ai'(0) (DLMF 9.2.3) for u < 0, and for u > 0 down from the
    expansion at hi, rescaled to meet Ai(0).  The build raises ValueError
    if on some panel the next two terms, |a_14| h^14 + |a_15| h^15, exceed
    eps/2 max(|a_0|, h |a_1|): that happens below -195.  Evaluation does
    not check its range.
    """

    DEGREE = 13
    PER_UNIT = 16

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = float(lo), float(hi)
        self._j0 = round(self.lo * self.PER_UNIT)
        c = np.arange(self._j0, round(self.hi * self.PER_UNIT) + 1) / self.PER_UNIT
        zero = -self._j0
        # stepping down from the top, Ai grows and Bi decays, so the
        # solution seeded by the expansion stays a multiple of Ai; it is
        # seeded as Ai e^(zeta(hi)/2), which stays in double range on [0, hi]
        scale = math.exp(-0.5 * _zeta(c[-1]))
        top = _walk_down(c[zero:], *(scale * _decaying(c[-1], k) for k in (0, 1)))
        a = _taylor(c, *np.hstack([_walk_down(c[:zero + 1], _AI0, _AIP0),
                                   top[:, 1:] * (_AI0 / top[0, 0])]), self.DEGREE + 2)
        h = 0.5 / self.PER_UNIT
        tail = h ** np.arange(self.DEGREE + 1, self.DEGREE + 3) @ np.abs(a[-2:])
        bad = tail > 0.5 * np.finfo(float).eps * np.maximum(np.abs(a[0]), h * np.abs(a[1]))
        if np.any(bad):
            raise ValueError(
                f"Ai table: degree-{self.DEGREE} Taylor panels of width "
                f"1/{self.PER_UNIT} miss roundoff at u <= {c[bad][-1]:g}, "
                f"where Ai oscillates too fast for them")
        k = np.arange(1, self.DEGREE + 2)[:, None]
        self._coef = (a[:self.DEGREE + 1], k * a[1:self.DEGREE + 2])

    def __call__(self, u, deriv: int) -> np.ndarray:
        v = u * self.PER_UNIT
        j = np.rint(v)
        d = (v - j) / self.PER_UNIT
        coef = self._coef[deriv].take(j.astype(np.intp) - self._j0, axis=1)
        p = coef[-1] * d
        for row in coef[-2:0:-1]:
            p += row
            p *= d
        p += coef[0]
        return p


_TABLE = _AiTable(-195.0, 108.0)

#: Up to this x the scaled Ai is the table value times e^zeta (see above).
_SCALED_CUT = 10.0


def _airy(x, deriv: int, scaled: bool = False):
    """Ai (deriv=0) or Ai' (deriv=1) at x; times e^zeta where x > 0 if scaled."""
    arr = _checked(x)
    top = _SCALED_CUT if scaled else _TABLE.hi
    table = (arr >= _TABLE.lo) & (arr <= top)
    if table.all():
        # asarray: a 0-d argument gives a numpy scalar
        out = np.asarray(_TABLE(arr, deriv))
    else:
        # zeros: Ai and Ai' above the table
        out = np.zeros(arr.shape)
        out[table] = _TABLE(arr[table], deriv)
        low = arr < _TABLE.lo
        if low.any():
            out[low] = _oscillating(arr[low], deriv)
        high = arr > top
        if scaled and high.any():
            out[high] = _decaying(arr[high], deriv)
    if scaled:
        pos = table & (arr > 0.0)
        if pos.any():
            out[pos] *= np.exp(_zeta(arr[pos]))
    return _match(x, out)


def airy_ai(x):
    """Airy function Ai(x).  Underflows gracefully to 0 for large x > 0."""
    return _airy(x, 0)


def airy_ai_prime(x):
    """Derivative Ai'(x)."""
    return _airy(x, 1)


def airy_ai_scaled(x):
    """Ai(x) * exp((2/3) x^(3/2)) for x >= 0; plain Ai(x) for x < 0.

    The scaled form stays O(x^(-1/4)) instead of underflowing, which lets
    products Ai(u)*exp(c) be evaluated in log space for large u.
    """
    return _airy(x, 0, scaled=True)
