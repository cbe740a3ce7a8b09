"""Airy function and erf wrappers against high-precision frozen values
and an mpmath oracle."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from fredet.specfun import (airy_ai, airy_ai_prime, airy_ai_scaled,
                            airy_value, erf)

# 50-digit arbitrary-precision oracle (mpmath), frozen to doubles
AIRY_TABLE = [
    (-5, 0.35076100902411431979, 0.32719281855444313679),
    (-4, -0.070265532949289515099, -0.7906285753685813803),
    (-3, -0.37881429367765807435, 0.31458376921659881365),
    (-2, 0.22740742820168557599, 0.61825902074169104141),
    (-1, 0.5355608832923521188, -0.010160567116645209395),
    (0, 0.35502805388781723926, -0.25881940379280679841),
    (1, 0.13529241631288141552, -0.15914744129679321279),
    (2, 0.034924130423274379135, -0.053090384433653631704),
    (3, 0.0065911393574607191443, -0.011912976705951318474),
    (4, 0.00095156385120480187362, -0.0019586409502041789001),
    (5, 0.00010834442813607441735, -0.000247413890868462476),
]


class TestAiry:
    def test_at_zero(self):
        # Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
        assert airy_ai(0.0) == pytest.approx(0.3550280538878172, abs=1e-16)
        assert airy_ai_prime(0.0) == pytest.approx(-0.2588194037928068, abs=1e-16)

    @pytest.mark.parametrize("x,ai,aip", AIRY_TABLE)
    def test_table(self, x, ai, aip):
        assert airy_ai(float(x)) == pytest.approx(ai, rel=1e-13)
        assert airy_ai_prime(float(x)) == pytest.approx(aip, rel=1e-13)

    def test_vectorized(self):
        xs = np.array([row[0] for row in AIRY_TABLE], dtype=float)
        ais = np.array([row[1] for row in AIRY_TABLE])
        assert np.max(np.abs(airy_ai(xs) / ais - 1.0)) < 1e-13

    def test_ode_residual(self):
        # Ai'' = x Ai via centered differences of Ai'.  The probe itself
        # carries the truncation term (h^2/6) Ai'''' = (h^2/6)(2Ai' + x^2 Ai),
        # which is granted explicitly (it exceeds 1e-8 near x = -10).
        h = 1e-4
        for x in np.linspace(-10.0, 10.0, 81):
            second = (airy_ai_prime(x + h) - airy_ai_prime(x - h)) / (2 * h)
            target = x * airy_ai(x)
            fd_trunc = (h * h / 6.0) * abs(2.0 * airy_ai_prime(x) + x * x * airy_ai(x))
            assert abs(second - target) <= 1e-8 * (1.0 + abs(target)) + fd_trunc

    def test_monotone_decay_until_underflow(self):
        xs = np.arange(0.0, 201.0)
        vals = airy_ai(xs)
        nz = vals > 0.0
        assert np.all(np.diff(vals[nz]) < 0.0)
        # graceful underflow, no nan
        assert np.all(np.isfinite(vals))

    def test_wronskian_validation(self):
        for x in (-30.0, -5.0, 0.0, 2.0, 50.0):
            v = airy_value(x, validate=True)
            assert math.isfinite(v.ai)

    def test_scaled_variant(self):
        for x in (0.5, 5.0, 40.0):
            ref = airy_ai(x) * math.exp((2.0 / 3.0) * x ** 1.5)
            assert airy_ai_scaled(x) == pytest.approx(ref, rel=1e-12)
        assert airy_ai_scaled(-3.0) == pytest.approx(airy_ai(-3.0), rel=0, abs=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            airy_ai(math.nan)
        with pytest.raises(ValueError):
            airy_ai_prime(math.inf)


EPS = np.finfo(float).eps


def _conditioning_bound(x):
    """4 eps (1 + |x|^(3/2)): rounding x moves the phase, or the
    exponent, zeta = (2/3)|x|^(3/2) of Ai by eps |x|^(3/2)."""
    return 4.0 * EPS * (1.0 + np.abs(x) ** 1.5)


def _mp_airy(x, derivative=0, scaled=False):
    # 50 digits: the scaled product exp(-zeta) exp(zeta) loses log10(zeta)
    with mpmath.workdps(50):
        xm = mpmath.mpf(float(x))
        v = mpmath.airyai(xm, derivative=derivative)
        if scaled and x > 0:
            v *= mpmath.exp(mpmath.mpf(2) / 3 * xm ** 1.5)
        return float(v)


_RNG = np.random.default_rng(20)
#: (10, 103]: the modified-Bessel backend; [-700, -10): the Hankel backend;
#: and both sides of the +-10 backend switches.
POS_POINTS = np.concatenate([_RNG.uniform(10.0, 103.0, 40), [103.0]])
NEG_POINTS = np.concatenate([_RNG.uniform(-700.0, -10.0, 40), [-700.0]])
SWITCH_POINTS = np.array([s * v for s in (1.0, -1.0)
                          for v in (np.nextafter(10.0, 0.0), 10.0,
                                    np.nextafter(10.0, 20.0), 10.0 + 1e-9, 10.5)])


class TestAiryOracle:
    """Ai, Ai' and scaled Ai against 50-digit mpmath values, to the limit
    that the conditioning of the argument sets."""

    @pytest.mark.parametrize("x", np.concatenate([POS_POINTS, SWITCH_POINTS[:5]]))
    def test_positive_relative(self, x):
        bound = _conditioning_bound(x)
        assert abs(airy_ai(x) / _mp_airy(x) - 1.0) <= bound
        assert abs(airy_ai_prime(x) / _mp_airy(x, 1) - 1.0) <= bound
        # the scaled function is smooth in zeta, so no conditioning loss
        assert abs(airy_ai_scaled(x) / _mp_airy(x, scaled=True) - 1.0) <= 1e-14

    @pytest.mark.parametrize("x", np.concatenate([NEG_POINTS, SWITCH_POINTS[5:]]))
    def test_negative_envelope(self, x):
        # oscillatory side: errors relative to the envelopes
        # |Ai| <~ y^(-1/4)/sqrt(pi), |Ai'| <~ y^(1/4)/sqrt(pi)
        y = -x
        bound = _conditioning_bound(x)
        env = y ** -0.25 / math.sqrt(math.pi)
        env_prime = y ** 0.25 / math.sqrt(math.pi)
        assert abs(airy_ai(x) - _mp_airy(x)) <= bound * env
        assert abs(airy_ai_prime(x) - _mp_airy(x, 1)) <= bound * env_prime
        assert airy_ai_scaled(x) == airy_ai(x)

    @pytest.mark.parametrize("x", [2e5, 1.3e6, 1e7, 1e8, 1e12])
    def test_scaled_asymptotic_range(self, x):
        # beyond x ~ 1.05e6 AMOS returns nan; the expansion takes over at 1e5
        assert abs(airy_ai_scaled(x) / _mp_airy(x, scaled=True) - 1.0) <= 1e-15

    def test_continuous_across_backend_switches(self):
        for sign in (1.0, -1.0):
            inside, outside = sign * 10.0, sign * np.nextafter(10.0, 20.0)
            for f in (airy_ai, airy_ai_prime, airy_ai_scaled):
                assert f(outside) == pytest.approx(f(inside), rel=1e-13)

    def test_scaled_equals_airye_above_one(self):
        # AMOS ZAIRY takes |z| > 1 through K_{1/3} itself, so the kve
        # backend must reproduce scipy's airye there bit for bit
        x = np.concatenate([np.linspace(1.0, 10.0, 200001)[1:],
                            [np.nextafter(1.0, 2.0), 1.0 + 1e-9, 40.0, 1e3, 1e5]])
        assert np.array_equal(airy_ai_scaled(x), sp.airye(x)[0])
        assert airy_ai_scaled(1.0) == sp.airye(1.0)[0]

    def test_dense_grid_against_scipy_airy(self):
        x = np.linspace(-700.0, 103.0, 80301)
        ref_ai, ref_aip, _, _ = sp.airy(x)
        # relative on x >= 0, envelope on the oscillatory side
        env = np.where(x < 0.0, (1.0 + np.abs(x)) ** -0.25 / math.sqrt(math.pi),
                       np.abs(ref_ai))
        env_prime = np.where(x < 0.0, (1.0 + np.abs(x)) ** 0.25 / math.sqrt(math.pi),
                             np.abs(ref_aip))
        assert np.all(np.abs(airy_ai(x) - ref_ai) <= 1e-12 * env)
        assert np.all(np.abs(airy_ai_prime(x) - ref_aip) <= 1e-12 * env_prime)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAiryEdgeCases:
    def test_large_positive_is_exact_zero(self):
        assert airy_ai(1e300) == 0.0
        assert airy_ai_prime(1e300) == 0.0
        assert airy_ai(np.array([150.0, np.nextafter(150.0, 200.0), 1e300]))[1:].tolist() == [0.0, 0.0]

    def test_scaled_large_positive_finite(self):
        v = airy_ai_scaled(1e300)
        assert math.isfinite(v) and v > 0.0

    def test_large_negative_finite(self):
        assert math.isfinite(airy_ai(-1e5))
        assert math.isfinite(airy_ai_prime(-1e5))

    @pytest.mark.parametrize("f", [airy_ai, airy_ai_prime, airy_ai_scaled])
    @pytest.mark.parametrize("x", [-300.0, -10.0, 0.0, 3.0, 10.0, 40.0, 200.0, 2e5])
    def test_scalars_return_float(self, f, x):
        assert type(f(x)) is float
        assert type(f(np.float64(x))) is float
        assert type(f(np.array(x))) is float

    @pytest.mark.parametrize("f", [airy_ai, airy_ai_prime, airy_ai_scaled])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_raises(self, f, bad):
        with pytest.raises(ValueError):
            f(bad)
        with pytest.raises(ValueError):
            f(np.array([1.0, bad]))


class TestErf:
    def test_zero_and_saturation(self):
        assert erf(0.0) == 0.0
        assert erf(10.0) == pytest.approx(1.0, abs=1e-15)

    def test_series_oracle_value(self):
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)

    def test_odd(self):
        for x in (0.3, 1.7, 4.0):
            assert erf(-x) == -erf(x)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            erf(math.nan)
