"""Airy functions and erf, with domain guards and a validation mode.

Every point goes to exactly one backend, chosen by its argument range
(zeta = (2/3)|x|^{3/2}):

* |x| <= 10: ``scipy.special.airy`` / ``airye`` (Cephes, resp. AMOS).
* 10 < x <= 150: one modified Bessel function from AMOS (DLMF 9.6.1-2),
  Ai(x) = sqrt(x/3)/pi K_{1/3}(zeta) and Ai'(x) = -x/(pi sqrt 3) K_{2/3}(zeta),
  with ``kve`` for the scaled Ai.  Above x = 150, Ai and Ai' have
  underflowed and are returned as 0 without evaluation.
* x < -10, y = -x: one Hankel function H = H^(1)_nu(zeta) from AMOS
  (DLMF 9.6.6-7), Ai(x) = (sqrt(y)/2)(Re H_{1/3} - Im H_{1/3}/sqrt 3) and
  Ai'(x) = (y/2)(Re H_{2/3} + Im H_{2/3}/sqrt 3).
* x > 1e5, scaled Ai only: the asymptotic expansion to two terms.

Outside [-10, 10] ``scipy.special.airy`` runs all four of Ai, Ai', Bi and
Bi' through AMOS to return one of them, so the single Bessel call gives
the same ~1e-13 accuracy (bounded by argument conditioning) several times
cheaper.  A hand-rolled split of Maclaurin series plus asymptotic
expansions cannot reach that target in IEEE doubles: the series halves
Ai = alpha*f - beta*g cancel like exp((4/3)|x|^{3/2}), which already eats
~12 digits near |x| = 7.5.

All functions accept scalars or ndarrays and are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "AiryValue",
    "airy_ai",
    "airy_ai_prime",
    "airy_ai_scaled",
    "airy_value",
    "erf",
]


@dataclass(frozen=True)
class AiryValue:
    """Ai and Ai' at a point, for callers that want both at once."""

    ai: float
    ai_prime: float
    argument: float


def _checked(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("airy/erf argument must be finite")
    return arr


def _match(x, arr):
    return float(arr) if np.isscalar(x) or np.ndim(x) == 0 else arr


#: Ai and Ai' underflow to 0 well before this point; above it no backend
#: is called at all (they yield nan for extreme arguments instead of 0).
_POS_ZERO_CUT = 150.0

#: Outside [-_BESSEL_CUT, _BESSEL_CUT] Ai and Ai' come from one Bessel
#: function per point instead of ``scipy.special.airy``.
_BESSEL_CUT = 10.0

#: 1/(pi sqrt 3) and the rounding of zeta as AMOS ZAIRY writes them, so that
#: Ai, Ai' and scaled Ai on x > 10 equal scipy.special.airy bit for bit.
_AMOS_COEF = 1.83776298473930683e-01
_INV_SQRT3 = 1.0 / math.sqrt(3.0)

#: Above this x the scaled Ai is its asymptotic expansion to two terms,
#: x^(-1/4) / (2 sqrt pi) (1 - 5 / (72 zeta)), whose remainder
#: (385/10368) zeta^-2 is below 1e-16 there; AMOS gives up on the Bessel
#: route near x = 1.4e6 (|zeta| > 2^30) and returns nan.
_SCALED_ASYMPTOTIC_CUT = 1e5


def _zeta(y, sqrt_y):
    return (2.0 / 3.0) * (y * sqrt_y)


def _airy_part(arr, deriv: int):
    """Ai (deriv=0) or Ai' (deriv=1) on a finite array, each point from
    the one backend of its range (see the module docstring)."""
    nu = (1.0 + deriv) / 3.0
    mid = np.abs(arr) <= _BESSEL_CUT
    pos = (arr > _BESSEL_CUT) & (arr <= _POS_ZERO_CUT)
    neg = arr < -_BESSEL_CUT
    out = np.zeros(arr.shape)
    # over: zeta overflows for x < -1e205; beyond |x| ~ 1e10 AMOS has lost
    # all significance anyway and returns nan, as scipy.special.airy does
    with np.errstate(under="ignore", over="ignore"):
        if np.any(mid):
            out[mid] = _sp.airy(arr[mid])[deriv]
        if np.any(pos):
            x = arr[pos]
            sq = np.sqrt(x)
            k = _sp.kv(nu, _zeta(x, sq)) * _AMOS_COEF
            out[pos] = sq * k if deriv == 0 else -(x * k)
        if np.any(neg):
            y = -arr[neg]
            sq = np.sqrt(y)
            h = _sp.hankel1(nu, _zeta(y, sq))
            out[neg] = (0.5 * sq * (h.real - _INV_SQRT3 * h.imag) if deriv == 0
                        else 0.5 * y * (h.real + _INV_SQRT3 * h.imag))
    return out


def airy_ai(x):
    """Airy function Ai(x).  Underflows gracefully to 0 for large x > 0."""
    arr = _checked(x)
    return _match(x, _airy_part(arr, 0))


def airy_ai_prime(x):
    """Derivative Ai'(x)."""
    arr = _checked(x)
    return _match(x, _airy_part(arr, 1))


def airy_ai_scaled(x):
    """Ai(x) * exp((2/3) x^(3/2)) for x >= 0; plain Ai(x) for x < 0.

    The scaled form stays O(x^(-1/4)) instead of underflowing, which lets
    products Ai(u)*exp(c) be evaluated in log space for large u.
    """
    arr = _checked(x)
    mid = (arr > 0.0) & (arr <= _BESSEL_CUT)
    huge = arr > _SCALED_ASYMPTOTIC_CUT
    large = (arr > _BESSEL_CUT) & ~huge
    neg = arr <= 0.0
    out = np.empty_like(arr)
    with np.errstate(under="ignore"):
        if np.any(mid):
            out[mid] = _sp.airye(arr[mid])[0]
        if np.any(large):
            xl = arr[large]
            sq = np.sqrt(xl)
            out[large] = sq * (_sp.kve(1.0 / 3.0, _zeta(xl, sq)) * _AMOS_COEF)
        if np.any(huge):
            xh = arr[huge]
            # 5 / (72 zeta) = (5/48) x^(-3/2), which cannot overflow
            out[huge] = (xh ** -0.25 / (2.0 * math.sqrt(math.pi))
                         * (1.0 - (5.0 / 48.0) * xh ** -1.5))
    if np.any(neg):
        out[neg] = _airy_part(arr[neg], 0)
    return _match(x, out)


def airy_value(x: float, validate: bool = False) -> AiryValue:
    """Ai and Ai' at a scalar point.

    With ``validate=True`` the Wronskian identity
    Ai(x) Bi'(x) - Ai'(x) Bi(x) = 1/pi is checked (using scaled functions
    for x > 0 so the test stays overflow-free) and an ``ArithmeticError``
    is raised if it fails to hold to 1e-10 relative.
    """
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError("airy argument must be finite")
    with np.errstate(under="ignore"):
        ai, aip, bi, bip = (float(v) for v in _sp.airy(xf))
        if validate:
            if xf > 0.0:
                eai, eaip, ebi, ebip = (float(v) for v in _sp.airye(xf))
                wronskian = eai * ebip - eaip * ebi
            else:
                wronskian = ai * bip - aip * bi
            if abs(wronskian - 1.0 / math.pi) > 1e-10 / math.pi:
                raise ArithmeticError(
                    f"Airy Wronskian check failed at x={xf}: {wronskian}")
    return AiryValue(ai=ai, ai_prime=aip, argument=xf)


def erf(x):
    """Error function, absolute error below 1e-14."""
    arr = _checked(x)
    return _match(x, _sp.erf(arr))
