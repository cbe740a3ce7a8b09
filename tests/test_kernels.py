"""Kernel evaluation: diagonals, symmetry, process kernels, transformation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fredet.kernels import (Airy1ProcessKernel, Airy2ProcessKernel, AiryKernel,
                            GreenKernel, SineKernel, TransformedKernel,
                            airy2_process_kernel, make_kernel,
                            transform_to_unit)
from fredet import kernels as kernels_module
from fredet.specfun import airy_ai, airy_ai_prime


class TestSineKernel:
    def setup_method(self):
        self.k = SineKernel()

    def test_diagonal(self):
        assert self.k.eval(0.3, 0.3) == 1.0
        assert np.all(self.k.diagonal(np.linspace(0, 5, 7)) == 1.0)

    def test_values(self):
        assert self.k.eval(0.0, 0.5) == pytest.approx(2.0 / math.pi, abs=1e-16)
        assert self.k.eval(0.0, 1.0) == pytest.approx(0.0, abs=1e-16)

    def test_series_blend_continuity(self):
        for d in (0.99e-4, 1.01e-4):
            x, y = 0.7, 0.7 - d
            direct = math.sin(math.pi * d) / (math.pi * d)
            assert self.k.eval(x, y) == pytest.approx(direct, abs=1e-15)


class TestGreenKernel:
    def setup_method(self):
        self.k = GreenKernel()

    def test_values(self):
        assert self.k.eval(0.25, 0.75) == pytest.approx(0.0625, abs=1e-17)
        assert self.k.eval(0.0, 0.4) == 0.0
        assert self.k.eval(1.0, 0.4) == 0.0

    def test_diagonal(self):
        x = np.linspace(0, 1, 11)
        assert np.allclose(self.k.diagonal(x), x * (1 - x), atol=1e-16)

    def test_positive_semidefinite_quadratic_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = rng.uniform(0, 1, n)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            k = self.k.matrix(x, x)
            form = np.real(np.conj(z) @ k @ z)
            assert form >= -1e-12


class TestAiryKernel:
    def setup_method(self):
        self.k = AiryKernel()

    def test_diagonal_formula(self):
        for x in (-4.0, -1.0, 0.0, 2.5):
            ref = airy_ai_prime(x) ** 2 - x * airy_ai(x) ** 2
            assert self.k.diagonal(x) == pytest.approx(ref, rel=1e-15)

    def test_diagonal_vs_nearby_eval(self):
        for x in (-3.0, 0.0, 1.5):
            near = self.k.eval(x + 1e-6, x - 1e-6)
            assert self.k.diagonal(x) == pytest.approx(near, abs=2e-12)

    def test_off_diagonal_composition(self):
        ref = (airy_ai(0.0) * airy_ai_prime(1.0)
               - airy_ai(1.0) * airy_ai_prime(0.0)) / (0.0 - 1.0)
        assert self.k.eval(0.0, 1.0) == pytest.approx(ref, rel=1e-15)
        # frozen 25-digit value
        assert self.k.eval(0.0, 1.0) == pytest.approx(0.02148550383703795484571133, rel=1e-13)

    def test_blend_matches_direct_at_split(self):
        # same point evaluated by the Taylor blend and the raw quotient;
        # the quotient itself carries ~eps/|x-y| cancellation noise, which
        # sets the 2e-12 comparison floor
        for c in (-5.0, -1.0, 0.0, 1.5, 4.0):
            h = 0.5e-4
            x, y = c + h, c - h
            direct = (airy_ai(x) * airy_ai_prime(y)
                      - airy_ai(y) * airy_ai_prime(x)) / (x - y)
            assert self.k.eval(x, y) == pytest.approx(direct, abs=2e-12)

    def test_matrix_handles_diagonal(self):
        xs = np.array([-2.0, 0.0, 1.0])
        m = self.k.matrix(xs, xs)
        assert np.allclose(np.diag(m), self.k.diagonal(xs), rtol=1e-14)
        assert np.allclose(m, m.T, atol=1e-15)

    def test_matrix_reuses_equal_nodes_bitwise(self, monkeypatch):
        # equal but distinct node arrays (as TransformedKernel passes them)
        # share one Ai and one Ai' evaluation; appending a node to ys
        # forces the two-evaluation path, whose first columns are the same
        # entries
        xs = np.concatenate([np.linspace(-14.0, 30.0, 23), [2.0 + 1e-6]])
        two = self.k.matrix(xs, np.append(xs, 5.0))[:, :xs.size]
        points = []

        def counting(x):
            points.append(np.size(x))
            return airy_ai(x)

        monkeypatch.setattr(kernels_module, "airy_ai", counting)
        one = self.k.matrix(xs, xs.copy())
        assert np.array_equal(one, two)
        # xs once, plus the centres of the near-diagonal pairs
        assert points[0] == xs.size and sum(points[1:]) == np.sum(
            np.abs(xs[:, None] - xs[None, :]) < 1e-4)


class TestHermitianSymmetry:
    @pytest.mark.parametrize("name", ["sine", "airy", "green", "airy2:0.8",
                                      "airy2:-1.2", "airy1:0.6", "airy1:0"])
    def test_random_pairs(self, name):
        k = make_kernel(name)
        rng = np.random.default_rng(17)
        lo, hi = (0.0, 1.0) if name == "green" else (-8.0, 4.0)
        x = rng.uniform(lo, hi, 1000)
        y = rng.uniform(lo, hi, 1000)
        assert k.hermitian
        assert np.max(np.abs(k.eval(x, y) - k.eval(y, x))) < 1e-13


class TestAiry2ProcessKernel:
    def test_positive_t_vs_adaptive_oracle(self):
        k = airy2_process_kernel(1.0)
        ref = 0.04544685282349152  # frozen high-precision oracle, t=1, x=y=0
        assert k.eval(0.0, 0.0) == pytest.approx(ref, abs=1e-12)

    def test_positive_t_oracle_scipy(self):
        k = airy2_process_kernel(0.7)
        for (x, y) in [(-3.0, 1.0), (0.5, 0.5)]:
            ref, _ = quad(lambda xi: math.exp(-0.7 * xi) * airy_ai(x + xi) * airy_ai(y + xi),
                          0.0, 40.0, epsabs=1e-13, limit=200)
            assert k.eval(x, y) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("t", [-0.4, -1.5])
    def test_negative_t_vs_brute(self, t):
        # piecewise adaptive integration of the defining oscillatory integral
        k = airy2_process_kernel(t)
        for (x, y) in [(-5.0, -5.0), (-2.0, 3.0)]:
            f = lambda xi: math.exp(-xi * t) * airy_ai(x + xi) * airy_ai(y + xi)
            total = 0.0
            edges = np.arange(0.0, -200.0, -2.0)
            for a, b in zip(edges[1:], edges[:-1]):
                v, _ = quad(f, a, b, limit=200)
                total += v
            assert k.eval(x, y) == pytest.approx(-total, abs=1e-9)

    def test_t_zero_plus_is_airy_kernel(self):
        k = airy2_process_kernel(1e-8)
        ak = AiryKernel()
        for (x, y) in [(-2.0, 1.0), (0.0, 0.0), (-7.0, -3.0)]:
            assert k.eval(x, y) == pytest.approx(ak.eval(x, y), abs=1e-8)

    def test_t_zero_exact_is_airy_kernel(self):
        k = airy2_process_kernel(0.0)
        ak = AiryKernel()
        assert k.eval(-1.0, 2.0) == pytest.approx(ak.eval(-1.0, 2.0), abs=1e-12)

    def test_branch_consistency_at_zero(self):
        # t = +1e-8 and t = -1e-8 give the same kernel off the diagonal
        kp = airy2_process_kernel(1e-8)
        km = airy2_process_kernel(-1e-8)
        for (x, y) in [(-2.0, 1.0), (-7.0, -3.0), (2.0, 0.5)]:
            assert abs(kp.eval(x, y) - km.eval(x, y)) < 1e-6

    def test_diagonal_positive_decreasing_in_t(self):
        vals = [airy2_process_kernel(t).eval(2.0, 2.0) for t in (0.5, 1.0, 2.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_matrix_consistent_with_eval(self):
        k = airy2_process_kernel(-0.3)
        xs = np.array([-4.0, -1.0, 0.5])
        ys = np.array([-2.0, 3.0])
        m = k.matrix(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert m[i, j] == pytest.approx(k.eval(x, y), rel=1e-13, abs=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inner_rule_converged(self):
        k = airy2_process_kernel(1.0)
        assert k.achieved_tol < 1e-12

    def test_inner_rule_cap_warns(self):
        with pytest.warns(RuntimeWarning, match="max_inner_size=32") as record:
            k = Airy2ProcessKernel(1.0, inner_rule_size=16, tol=1e-16,
                                   max_inner_size=32)
        assert k.inner_size == 32 and k.achieved_tol > 1e-16
        assert f"achieved_tol={k.achieved_tol:.3g}" in str(record[0].message)


class TestAiry1ProcessKernel:
    def test_t_zero(self):
        k = Airy1ProcessKernel(0.0)
        assert k.eval(1.0, 0.5) == pytest.approx(airy_ai(1.5), rel=1e-14)

    def test_gaussian_term_on_diagonal(self):
        t = 0.8
        k = Airy1ProcessKernel(t)
        x = 1.3
        airy_part = airy_ai(2 * x + t * t) * math.exp(t * 2 * x + 2 * t ** 3 / 3)
        assert k.eval(x, x) == pytest.approx(
            airy_part - 1.0 / math.sqrt(4 * math.pi * t), rel=1e-13)

    def test_frozen_value(self):
        # 30-digit offline composition at t=0.5, x=1, y=2
        k = Airy1ProcessKernel(0.5)
        assert k.eval(1.0, 2.0) == pytest.approx(-0.221704459441966756233448654297,
                                                 rel=1e-13)

    def test_negative_t_branch(self):
        k = Airy1ProcessKernel(-0.5)
        x, y = -1.0, 0.5
        ref = airy_ai(x + y + 0.25) * math.exp(-0.5 * (x + y) + 2 * (-0.5) ** 3 / 3)
        assert k.eval(x, y) == pytest.approx(ref, rel=1e-13)

    def test_no_overflow_at_large_negative_sum(self):
        # t(x+y) huge and positive: the scaled-Airy path must stay finite
        k = Airy1ProcessKernel(2.5)
        v = k.eval(600.0, 650.0)
        assert math.isfinite(v)
        assert v == pytest.approx(-math.exp(-(50.0) ** 2 / 10.0) / math.sqrt(10 * math.pi),
                                  abs=1e-300)


    @pytest.mark.parametrize("t", [0.5, -0.7, 2.5])
    def test_matrix_pair_matches_both_kernels(self, t):
        # one shared Airy evaluation gives K_t(x, y) and K_{-t}(y, x)
        xs = np.linspace(-6.0, 40.0, 7)
        ys = np.linspace(-5.0, 30.0, 5)
        fwd, bwd = Airy1ProcessKernel(t).matrix_pair(xs, ys)
        assert np.array_equal(fwd, Airy1ProcessKernel(t).matrix(xs, ys))
        assert np.array_equal(bwd, Airy1ProcessKernel(-t).matrix(ys, xs).T)

    @pytest.mark.parametrize("t", [0.5, -0.7, 2.5])
    def test_shifted_pairs_match_matrix_pair(self, t):
        # the mirrored Airy factor differs from full evaluation only by the
        # rounding of its argument
        k = Airy1ProcessKernel(t)
        offsets = 10.0 * np.tan(0.5 * np.pi * np.linspace(0.02, 0.98, 13))
        s2 = np.array([-5.5, -1.0, 0.3, 4.0])
        fwd, bwd = k.shifted_pairs(-2.5, s2, offsets)
        for j, sj in enumerate(s2):
            ref_fwd, ref_bwd = k.matrix_pair(-2.5 + offsets, sj + offsets)
            assert np.max(np.abs(fwd[j] - ref_fwd)) <= 1e-13 * np.max(np.abs(ref_fwd))
            assert np.max(np.abs(bwd[j] - ref_bwd)) <= 1e-13 * np.max(np.abs(ref_bwd))

    def test_shifted_pairs_evaluate_one_triangle(self, monkeypatch):
        points = []

        def counting(split):
            def wrapped(u):
                points.append(np.size(u))
                return split(u)
            return wrapped

        monkeypatch.setattr(kernels_module, "_airy_log_split",
                            counting(kernels_module._airy_log_split))
        m, c = 9, 3
        Airy1ProcessKernel(1.0).shifted_pairs(0.0, np.zeros(c), np.arange(m, dtype=float))
        assert points == [c * m * (m + 1) // 2]


class TestTransformedKernel:
    def test_map_values(self):
        tk = transform_to_unit(AiryKernel(), s=-2.0)
        assert tk.phi(0.0) == pytest.approx(-2.0, abs=1e-15)
        assert tk.phi(0.5) == pytest.approx(8.0, abs=1e-12)  # s + scale

    def test_dphi(self):
        tk = transform_to_unit(AiryKernel(), s=0.0, scale=10.0)
        assert tk.dphi(0.0) == pytest.approx(5.0 * math.pi, rel=1e-15)

    def test_symmetry_when_sides_match(self):
        tk = transform_to_unit(AiryKernel(), s=-1.0)
        assert tk.hermitian
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 0.97, 200)
        y = rng.uniform(0, 0.97, 200)
        assert np.max(np.abs(tk.eval(x, y) - tk.eval(y, x))) < 1e-13

    def test_endpoint_limit_zero(self):
        tk = transform_to_unit(AiryKernel(), s=0.0)
        assert tk.eval(1.0, 0.5) == 0.0
        assert tk.eval(0.5, 1.0) == 0.0
        # approaching the endpoint the values decay to that limit
        assert abs(tk.eval(1.0 - 1e-4, 0.5)) < 1e-30

    def test_value_formula(self):
        base = AiryKernel()
        tk = TransformedKernel(base, s=-3.0, scale=7.0)
        xi, eta = 0.3, 0.6
        ref = math.sqrt(tk.dphi(xi) * tk.dphi(eta)) * base.eval(tk.phi(xi), tk.phi(eta))
        assert tk.eval(xi, eta) == pytest.approx(ref, rel=1e-15)

    def test_determinant_invariance_across_scales(self):
        from fredet.nystrom import NystromProblem, fredholm_det
        from fredet.quadrature import gauss_legendre
        rule = gauss_legendre(0.0, 1.0, 45)
        vals = []
        for scale in (5.0, 10.0):
            tk = TransformedKernel(AiryKernel(), s=-2.0, scale=scale)
            vals.append(fredholm_det(
                NystromProblem(tk, (0.0, 1.0), -1.0, rule)).value)
        assert abs(vals[0] - vals[1]) < 1e-10


class TestRegistry:
    def test_names(self):
        assert isinstance(make_kernel("sine"), SineKernel)
        assert isinstance(make_kernel("airy2:1.5"), Airy2ProcessKernel)
        assert make_kernel("airy1:-0.5").t == -0.5

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_kernel("bogus")
        with pytest.raises(KeyError):
            make_kernel("airy2:xyz")
