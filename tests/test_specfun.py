"""Airy functions against high-precision frozen values and an mpmath
oracle."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy import special as sp

import fredet
from fredet import specfun
from fredet.specfun import airy_ai, airy_ai_prime, airy_ai_scaled

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
        assert airy_ai(float(x)) == pytest.approx(ai, rel=1e-13, abs=0)
        assert airy_ai_prime(float(x)) == pytest.approx(aip, rel=1e-13, abs=0)

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
        # Ai Bi' - Ai' Bi = 1/pi, with Bi and Bi' from scipy; for x > 0 all
        # four are scaled (Ai by e^zeta, Bi by e^-zeta) so nothing overflows
        for x in (-30.0, -5.0, 0.0, 2.0, 50.0):
            _, _, bi, bip = sp.airye(x)
            w = airy_ai_scaled(x) * bip - specfun._airy(x, 1, scaled=True) * bi
            assert w == pytest.approx(1.0 / math.pi, rel=1e-10, abs=0)

    def test_scaled_variant(self):
        for x in (0.5, 5.0, 40.0):
            ref = airy_ai(x) * math.exp((2.0 / 3.0) * x ** 1.5)
            assert airy_ai_scaled(x) == pytest.approx(ref, rel=1e-12, abs=0)
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
#: (10, 103]: the table; [-700, -10): the table and, below -195, the
#: expansion; and both sides of +-10 (10 is the cut of the scaled Ai).
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
        # the scaled-Ai cut at 10 (and -10, no cut); the top of the table at
        # 108, past which Ai and Ai' round to 0; and its bottom at -195,
        # where the oscillatory expansion rounds its phase zeta = 1815 to
        # ~2e-13
        for sign in (1.0, -1.0):
            inside, outside = sign * 10.0, sign * np.nextafter(10.0, 20.0)
            for f in (airy_ai, airy_ai_prime, airy_ai_scaled):
                assert f(outside) == pytest.approx(f(inside), rel=1e-13, abs=0)
        for f in (airy_ai, airy_ai_prime):
            assert f(108.0) == f(np.nextafter(108.0, 109.0)) == 0.0 != f(107.0)
        low, below = -195.0, np.nextafter(-195.0, -196.0)
        env = {airy_ai: 195.0 ** -0.25, airy_ai_prime: 195.0 ** 0.25}
        for f in (airy_ai, airy_ai_prime):
            assert abs(f(below) - f(low)) <= _conditioning_bound(low) * env[f]

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


#: The oracle's ranges: [-700, -195] is the oscillatory expansion, the
#: rest the table.
_RANGES = [(-700.0, -195.0), (-195.0, -10.0), (-10.0, 0.0), (0.0, 10.0),
           (10.0, 25.0), (25.0, 103.0)]

#: The largest Ai error of the scipy backends that the table replaced, on
#: 600 seeded points of each range against 40-digit mpmath: absolute on
#: [-95, -10] (here the ceiling for all of [-195, -10]) and [-10, 0],
#: relative on [0, 10] and [10, 25].
_BACKEND_AI_ERRORS = {(-195.0, -10.0): 2.0e-14, (-10.0, 0.0): 1.1e-15,
                      (0.0, 10.0): 1.4e-14, (10.0, 25.0): 1.8e-14}


@pytest.fixture(scope="module")
def range_oracle():
    """Per range of ``_RANGES``: 150 seeded points and their 50-digit Ai
    and Ai'."""
    rng = np.random.default_rng(12)
    cases = {}
    for lo, hi in _RANGES:
        x = np.sort(rng.uniform(lo, hi, 150))
        cases[lo, hi] = (x, np.array([_mp_airy(v) for v in x]),
                         np.array([_mp_airy(v, 1) for v in x]))
    return cases


class TestOneEvaluator:
    """The table and the expansions per range, against 50-digit mpmath."""

    @pytest.mark.parametrize("lo,hi", _RANGES)
    def test_range_vs_mpmath(self, range_oracle, lo, hi):
        x, ai, aip = range_oracle[lo, hi]
        bound = _conditioning_bound(x)
        if hi <= 0.0:
            # errors against the envelopes, as in test_negative_envelope
            y = -x
            err = np.abs(airy_ai(x) - ai) / (y ** -0.25 / math.sqrt(math.pi))
            err_prime = np.abs(airy_ai_prime(x) - aip) / (y ** 0.25 / math.sqrt(math.pi))
            ai_err = np.max(np.abs(airy_ai(x) - ai))
        else:
            err = np.abs(airy_ai(x) / ai - 1.0)
            err_prime = np.abs(airy_ai_prime(x) / aip - 1.0)
            ai_err = np.max(err)
        assert np.all(err <= bound) and np.all(err_prime <= bound)
        assert ai_err <= _BACKEND_AI_ERRORS.get((lo, hi), math.inf)

    def test_scaled_vs_mpmath(self):
        # table times e^zeta up to 10, the expansion above, to 1e12
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.uniform(0.0, 10.0, 100), rng.uniform(10.0, 103.0, 60),
                            10.0 ** rng.uniform(2.0, 12.0, 40)])
        ref = np.array([_mp_airy(v, scaled=True) for v in x])
        assert np.max(np.abs(airy_ai_scaled(x) / ref - 1.0)) <= 1e-14

    def test_decaying_series_shortens_at_30(self):
        # 22 terms below 30, 10 from there on: the first left out,
        # u_10 / zeta^10, is 2.2e-19 at 30
        assert specfun._FAR == 30.0 and specfun._FAR_TERMS == 10
        for x in (np.nextafter(30.0, 0.0), 30.0):
            for deriv in (0, 1):
                ref = _mp_airy(x, deriv, scaled=True)
                assert abs(specfun._airy(x, deriv, scaled=True) / ref - 1.0) <= 1e-15

    def test_neighbouring_panels_agree_at_their_seam(self):
        # the panels about c and c + 1/16 meet at c + 1/32, where both are
        # used: agreement there checks the seeds of both walks, down from
        # Ai(0) and down from the top, and the seam at 0 where they meet.
        # Above 104 Ai is subnormal, with the representation's accuracy.
        table = specfun._TABLE
        h = 0.5 / table.PER_UNIT
        c = (table._j0 + np.arange(table._coef[0].shape[1])) / table.PER_UNIT
        mid = c[:-1] + h
        normal = mid < 104.0
        mid = mid[normal]
        for deriv, power in ((0, -0.25), (1, 0.25)):
            coef = table._coef[deriv]
            left = polyval(h, coef[:, :-1])[normal]
            right = polyval(-h, coef[:, 1:])[normal]
            scale = np.where(mid < 0.0, np.abs(mid) ** power / math.sqrt(math.pi),
                             np.abs(left))
            assert np.max(np.abs(left - right) / scale) <= 4.0 * EPS

    def test_build_checks_the_remainder(self, monkeypatch):
        # the next two Taylor terms reach roundoff near u = -196: Ai
        # oscillates too fast there for degree 13 on panels of width 1/16
        table = specfun._AiTable(-195.0, 108.0)
        assert all(np.array_equal(a, b) for a, b in zip(table._coef, specfun._TABLE._coef))
        with pytest.raises(ValueError, match=r"u <= -195\.625,"):
            specfun._AiTable(-200.0, 108.0)
        # a degree too low for the range is caught at build
        monkeypatch.setattr(specfun._AiTable, "DEGREE", 9)
        with pytest.raises(ValueError, match="degree-9"):
            specfun._AiTable(-95.0, 108.0)


def test_library_imports_no_scipy():
    # numpy is the library's only dependency
    for path in sorted(Path(fredet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], \
                f"{path.name}:{node.lineno} imports scipy"


def test_library_calls_load_no_scipy():
    code = "\n".join([
        "import sys",
        "import fredet",
        "fredet.e2_gap(1.0, 20)",
        "fredet.f2_tw(-2.0, 30)",
        "fredet.tw_moments()",
        "fredet.airy2_joint(1.0, -1.0, 0.0, 12)",
        "fredet.airy1_joint(1.0, -1.0, 0.0, 12)",
        "fredet.cov_airy2(0.0)",
        "fredet.airy_ai(1.0)",
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'",
    ])
    src = str(Path(fredet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


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

