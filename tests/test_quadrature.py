"""Quadrature rules: exactness, positivity, convergence, product rules."""

import math

import mpmath
import numpy as np
import pytest

from fredet.quadrature import (QuadRule, ResourceLimitError, _cc_weights_fft,
                               clenshaw_curtis, gauss_legendre, product_quad,
                               quad_apply)

EPS = np.finfo(float).eps


class TestGaussLegendre:
    def test_one_point_is_midpoint(self):
        r = gauss_legendre(0.0, 1.0, 1)
        assert r.nodes[0] == pytest.approx(0.5, abs=1e-16)
        assert r.weights[0] == pytest.approx(1.0, abs=1e-16)
        assert r.order == 2

    def test_two_point_legendre_roots(self):
        r = gauss_legendre(-1.0, 1.0, 2)
        ref = 0.5773502691896257  # roots of P2, weights from symmetry/exactness
        assert r.nodes == pytest.approx([-ref, ref], abs=1e-15)
        assert r.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
    def test_order_is_sharp(self, m):
        # exact through degree 2m-1, misses degree 2m (the deviation itself
        # shrinks like 4^-m, so only moderate m gives a measurable gap)
        r = gauss_legendre(-1.0, 1.0, m)
        k = 2 * m
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        q = quad_apply(r, lambda x: x ** k)
        assert abs(q - exact) > 1e-10  # monomial just above the order deviates

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20, 64, 150, 301, 450])
    def test_against_numpy_oracle(self, m):
        x, w = np.polynomial.legendre.leggauss(m)
        r = gauss_legendre(-1.0, 1.0, m)
        assert np.max(np.abs(r.nodes - x)) < 5e-15
        assert np.max(np.abs(r.weights - w)) < 5e-14

    @staticmethod
    def _legendre_mp(m, x):
        """P_m(x) and P_m'(x) by the rule's own three-term recurrences."""
        p0, p1, d0, d1 = mpmath.mpf(1), x, mpmath.mpf(0), mpmath.mpf(1)
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            d0, d1 = d1, d0 + (2 * j - 1) * p0
        return p1, d1

    @pytest.mark.parametrize("m, node_tol, weight_tol", [
        # each bound is at most the error of a Golub-Welsch (QL) rule
        # against the same oracle
        (5, 9e-17, 5.8e-16),
        (20, 1.1e-16, 6.9e-15),
        (50, 3.5e-16, 7e-14),
        (120, 4.3e-16, 1.99e-13),
    ])
    def test_matches_mpmath_recurrence(self, m, node_tol, weight_tol):
        # nodes x >= 0 refined by two Newton steps at 30 digits; the
        # rule is symmetric about 0
        r = gauss_legendre(-1.0, 1.0, m)
        with mpmath.workdps(30):
            for x, w in zip(r.nodes[m // 2:], r.weights[m // 2:]):
                xr = mpmath.mpf(x)
                for _ in range(2):
                    p, dp = self._legendre_mp(m, xr)
                    xr -= p / dp
                _, dp = self._legendre_mp(m, xr)
                wr = 2 / ((1 - xr * xr) * dp * dp)
                assert abs(x - xr) <= node_tol
                assert abs(w - wr) <= weight_tol * wr

    def test_weights_symmetric(self):
        r = gauss_legendre(2.0, 5.0, 17)
        assert np.allclose(r.weights, r.weights[::-1], rtol=0, atol=1e-16)
        mid = 0.5 * (2.0 + 5.0)
        assert np.allclose(r.nodes - mid, -(r.nodes[::-1] - mid), atol=1e-14)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gauss_legendre(1.0, 0.0, 3)
        with pytest.raises(ValueError):
            gauss_legendre(0.0, 1.0, 0)


class TestClenshawCurtis:
    def test_three_point(self):
        r = clenshaw_curtis(-1.0, 1.0, 3)
        assert r.nodes == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)
        assert r.weights == pytest.approx([1 / 3, 4 / 3, 1 / 3], abs=1e-15)
        assert r.order == 3

    def test_affine_map_of_three_point(self):
        # on (0, 2) the halfwidth is 1, so weights coincide with (-1, 1)
        r = clenshaw_curtis(0.0, 2.0, 3)
        assert r.nodes == pytest.approx([0.0, 1.0, 2.0], abs=1e-15)
        assert r.weights == pytest.approx([1 / 3, 4 / 3, 1 / 3], abs=1e-15)

    @pytest.mark.parametrize("m", [2, 5, 16, 33, 100])
    def test_weight_sum(self, m):
        r = clenshaw_curtis(-1.0, 1.0, m)
        assert float(np.sum(r.weights)) == pytest.approx(2.0, abs=10 * EPS * 2)

    @staticmethod
    def _cosine_sum_weights(m):
        """Clenshaw-Curtis weights at x_k = cos(k pi / n), n = m - 1, from the
        direct cosine sum in 30-digit arithmetic:
        w_k = (c_k / n) (1 - sum_{j=1}^{n/2} b_j cos(2 j k pi / n) / (4 j^2 - 1)),
        with c_k = 1 at the endpoints and 2 inside, b_j = 1 at j = n/2 and 2
        otherwise."""
        n = m - 1
        with mpmath.workdps(30):
            w = []
            for k in range(m):
                acc = mpmath.mpf(1)
                for j in range(1, n // 2 + 1):
                    b = 1 if 2 * j == n else 2
                    acc -= b * mpmath.cospi(mpmath.mpf(2 * j * k) / n) / (4 * j * j - 1)
                w.append(float((1 if k in (0, n) else 2) * acc / n))
        return np.array(w)

    @pytest.mark.parametrize("m", list(range(2, 40)) + [64, 65, 128, 129, 200])
    def test_fft_matches_direct(self, m):
        # the FFT weights against the direct cosine-sum formula
        assert np.max(np.abs(_cc_weights_fft(m) - self._cosine_sum_weights(m))) < 1e-14

    @pytest.mark.parametrize("m", [2, 3, 10, 33, 64, 129, 200])
    def test_exact_below_degree_m(self, m):
        # Chebyshev polynomials T_k, k < m: int_{-1}^{1} T_k = 2 / (1 - k^2)
        # for even k and 0 for odd k.  At the ascending node
        # x_j = cos((n - j) pi / n), T_k(x_j) = cos(k (n - j) pi / n), with
        # the angle reduced mod 2 pi in integers so it carries no roundoff.
        r = clenshaw_curtis(-1.0, 1.0, m)
        n = m - 1
        steps = n - np.arange(m)
        for k in range(m):
            exact = 2.0 / (1.0 - k * k) if k % 2 == 0 else 0.0
            tk = np.cos(np.pi * ((k * steps) % (2 * n)) / n)
            assert abs(float(r.weights @ tk) - exact) <= 20 * EPS

    def test_m_lower_bound(self):
        with pytest.raises(ValueError):
            clenshaw_curtis(0.0, 1.0, 1)


class TestExactnessAndPositivity:
    @pytest.mark.parametrize("family,order_of", [
        ("gauss", lambda m: 2 * m), ("cc", lambda m: m)])
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (0.3, 2.7)])
    def test_monomial_exactness(self, family, order_of, a, b):
        for m in [1, 2, 3, 4, 5, 8, 12, 20]:
            if family == "cc" and m < 2:
                continue
            rule = (gauss_legendre if family == "gauss" else clenshaw_curtis)(a, b, m)
            nu = order_of(m)
            for k in range(min(nu, 40)):
                exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                q = float(rule.weights @ rule.nodes ** k)
                assert abs(q - exact) <= 100 * EPS * (b - a) ** (k + 1) + 40 * EPS * abs(exact)

    def test_positivity_dense_and_large(self):
        ms = list(range(1, 61)) + [75, 100, 128, 200, 256, 350, 500]
        for m in ms:
            assert np.all(gauss_legendre(0.0, 1.0, m).weights > 0)
            if m >= 2:
                assert np.all(clenshaw_curtis(0.0, 1.0, m).weights > 0)

    def test_affine_covariance(self):
        a, b = -2.5, 7.0
        for family in ("gauss", "cc"):
            ctor = gauss_legendre if family == "gauss" else clenshaw_curtis
            unit = ctor(-1.0, 1.0, 12)
            mapped = ctor(a, b, 12)
            assert np.allclose(mapped.nodes,
                               0.5 * (a + b) + 0.5 * (b - a) * unit.nodes,
                               rtol=0, atol=1e-13)
            assert np.allclose(mapped.weights, 0.5 * (b - a) * unit.weights,
                               rtol=1e-15, atol=0)


class TestPolyaConvergence:
    # continuous (not necessarily smooth) integrands: values must converge
    CASES = [
        (lambda x: np.abs(x), -1.0, 1.0, 1.0),
        (lambda x: np.sqrt(np.abs(x - 0.3)), -1.0, 1.0,
         (2 / 3) * (0.7 ** 1.5 + 1.3 ** 1.5)),
        (lambda x: np.exp(x), -1.0, 1.0, math.e - 1 / math.e),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 2.0 * math.atan(5.0) / 5.0),
    ]

    @pytest.mark.parametrize("family", ["gauss", "cc"])
    @pytest.mark.parametrize("f,a,b,exact", CASES)
    def test_convergence(self, family, f, a, b, exact):
        ctor = gauss_legendre if family == "gauss" else clenshaw_curtis
        errs = [abs(quad_apply(ctor(a, b, m), f) - exact) for m in (8, 40, 400)]
        assert errs[-1] < 2e-4
        assert errs[-1] < 0.5 * errs[0] + 1e-14


class TestQuadApply:
    def test_linear(self):
        assert quad_apply(gauss_legendre(0, 1, 5), lambda x: x) == pytest.approx(0.5, abs=1e-15)

    def test_green_trace(self):
        # integral of x(1-x) over (0,1), the trace of the Green's operator
        q = quad_apply(gauss_legendre(0, 1, 20), lambda x: x * (1 - x))
        assert q == pytest.approx(1.0 / 6.0, abs=1e-16)

    def test_cc_exp(self):
        q = quad_apply(clenshaw_curtis(-1, 1, 33), np.exp)
        assert q == pytest.approx(math.e - 1.0 / math.e, abs=1e-14)

    def test_scalar_only_callable(self):
        def f(x):
            if np.ndim(x):
                raise TypeError("scalar only")
            return float(x) ** 2
        assert quad_apply(gauss_legendre(0, 1, 10), f) == pytest.approx(1 / 3, abs=1e-15)

    def test_nonfinite_reported(self):
        with pytest.raises(ValueError, match="non-finite"):
            quad_apply(gauss_legendre(0, 1, 4), lambda x: np.where(x > 0.5, np.nan, x))


class TestProductQuad:
    def test_n1_reduces_to_quad_apply(self):
        r = gauss_legendre(0, 1, 7)
        f = lambda x: np.cos(x)
        assert product_quad(r, 1, f) == pytest.approx(quad_apply(r, f), abs=1e-16)

    def test_separable_2d(self):
        r = gauss_legendre(0, 1, 4)
        assert product_quad(r, 2, lambda x, y: x * y) == pytest.approx(0.25, abs=1e-15)

    def test_sine_minor_2d_vs_adaptive(self):
        # smooth 2x2-minor integrand: the product rule hits the adaptive
        # reference essentially exactly
        from scipy.integrate import dblquad
        from fredet.kernels import sine_kernel
        k = sine_kernel()

        def k2(x, y):
            return float(k.eval(x, x) * k.eval(y, y) - k.eval(x, y) * k.eval(y, x))

        mine = product_quad(gauss_legendre(0, 1, 12), 2, k2)
        ref, _ = dblquad(k2, 0, 1, 0, 1, epsabs=1e-13)
        assert mine == pytest.approx(ref, abs=1e-10)

    def test_green_minor_2d_converges_to_adaptive(self):
        # the Green minor has a derivative kink on the diagonal, so the
        # product rule converges only algebraically; check the trend
        from scipy.integrate import dblquad
        from fredet.kernels import green_kernel
        k = green_kernel()

        def k2(x, y):
            return float(k.eval(x, x) * k.eval(y, y) - k.eval(x, y) * k.eval(y, x))

        ref, _ = dblquad(k2, 0, 1, 0, 1, epsabs=1e-13)
        e6 = abs(product_quad(gauss_legendre(0, 1, 6), 2, k2) - ref)
        e24 = abs(product_quad(gauss_legendre(0, 1, 24), 2, k2) - ref)
        assert e6 < 5e-3
        assert e24 < e6 / 8

    def test_cap(self):
        r = gauss_legendre(0, 1, 50)
        with pytest.raises(ResourceLimitError):
            product_quad(r, 5, lambda *a: 1.0)
        # custom cap allows it
        assert product_quad(gauss_legendre(0, 1, 2), 2, lambda x, y: 1.0,
                            cap=10) == pytest.approx(1.0)


class TestQuadRuleValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            QuadRule(0.0, 1.0, np.array([0.5]), np.array([-1.0]), 1)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            QuadRule(0.0, 1.0, np.array([0.7, 0.3]), np.array([0.5, 0.5]), 1)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            QuadRule(0.0, 1.0, np.array([0.3, 0.7]), np.array([0.5, 0.6]), 1)

    def test_immutable_arrays(self):
        r = gauss_legendre(0, 1, 3)
        with pytest.raises(ValueError):
            r.nodes[0] = 0.0
