"""Determinant method: reference values, oracle identities, block systems."""

import math

import numpy as np
import pytest

from fredet.kernels import (AiryKernel, GreenKernel, SineKernel, make_kernel,
                            sine_kernel)
from fredet.nystrom import (BlockSystem, KernelEvaluationError, NystromProblem,
                            ResourceLimitError, _balance_blocks, convergence_study,
                            fredholm_det, fredholm_det_system, fredholm_series_oracle,
                            fredholm_series_oracle_system, nystrom_matrix)
from fredet.linalg import det_lu
from fredet.quadrature import clenshaw_curtis, gauss_legendre

SIN1 = 0.8414709848078965


def problem(kernel, a, b, z, m, family="gauss"):
    rule = (gauss_legendre if family == "gauss" else clenshaw_curtis)(a, b, m)
    return NystromProblem(kernel, (a, b), z, rule)


class TestFredholmDet:
    def test_z_zero_is_one(self):
        for name in ("sine", "green"):
            res = fredholm_det(problem(make_kernel(name), 0.0, 1.0, 0.0, 8))
            assert res.value == pytest.approx(1.0, abs=0)

    def test_gap_probability_reference(self):
        # 15-digit reference value for the sine-kernel determinant on (0, 0.1)
        res = fredholm_det(problem(sine_kernel(), 0.0, 0.1, -1.0, 5))
        assert res.value == pytest.approx(0.900027271798259, abs=5e-15)

    def test_green_converges_to_sin1(self):
        res = fredholm_det(problem(GreenKernel(), 0.0, 1.0, -1.0, 400))
        assert res.value == pytest.approx(SIN1, abs=2e-7)

    def test_symmetric_form_equivalence(self):
        # det(I + z W K) equals det(I + z sqrt(W) K sqrt(W))
        k = sine_kernel()
        rule = gauss_legendre(0.0, 1.5, 12)
        plain = np.eye(12) + -1.0 * rule.weights[:, None] * k.matrix(rule.nodes, rule.nodes)
        sym = fredholm_det(NystromProblem(k, (0.0, 1.5), -1.0, rule)).value
        assert det_lu(plain) == pytest.approx(sym, abs=1e-13)

    def test_complex_z_real_kernel_real_determinant(self):
        res = fredholm_det(problem(sine_kernel(), 0.0, 1.0, complex(-1.0, 0.0), 15))
        assert isinstance(res.value, float) or abs(res.value.imag) < 1e-13

    def test_truly_complex_arithmetic_zero_imag(self):
        k = sine_kernel()
        rule = gauss_legendre(0.0, 1.0, 15)
        a = nystrom_matrix(k, rule).astype(complex)
        val = det_lu(np.eye(15) - a)
        assert abs(val.imag) <= 1e-13

    def test_roundoff_bound_field(self):
        res = fredholm_det(problem(sine_kernel(), 0.0, 2.0, -1.0, 30))
        a = nystrom_matrix(sine_kernel(), gauss_legendre(0.0, 2.0, 30))
        expect = math.sqrt(30) * float(np.sqrt(np.sum(a * a))) * 8 * 2.0 ** -53
        assert res.roundoff_bound == pytest.approx(expect, rel=1e-12, abs=0)
        assert res.m == 30

    def test_nonfinite_kernel_reported(self):
        class Bad(SineKernel):
            def matrix(self, xs, ys):
                m = super().matrix(xs, ys)
                m[1, 2] = np.nan
                return m

        with pytest.raises(KernelEvaluationError, match=r"\[1, 2\]"):
            fredholm_det(problem(Bad(), 0.0, 1.0, -1.0, 5))

    def test_method_cholesky_on_e2(self):
        res = fredholm_det(problem(sine_kernel(), 0.0, 1.0, -1.0, 30))
        assert res.method == "cholesky"

    @pytest.mark.parametrize("s", [-9.5, -10.0, -12.0])
    def test_method_reports_fallback_in_f2_tail(self, s):
        # the F2 tail at m = 30: I - A_Q is positive definite in exact
        # arithmetic, but roundoff leaves a non-positive pivot
        from fredet.kernels import TransformedKernel
        kernel = TransformedKernel(AiryKernel(), s, scale=10.0)
        res = fredholm_det(NystromProblem(kernel, (0.0, 1.0), -1.0,
                                          gauss_legendre(0.0, 1.0, 30)))
        assert res.method == "cholesky->lu"

    def test_method_lu_for_complex_z(self):
        res = fredholm_det(problem(sine_kernel(), 0.0, 1.0, complex(-1.0, 0.5), 15))
        assert res.method == "lu"

    def test_rule_interval_mismatch(self):
        with pytest.raises(ValueError):
            NystromProblem(sine_kernel(), (0.0, 1.0), -1.0, gauss_legendre(0.0, 2.0, 5))


#: NaN and infinite z, real and complex.
NONFINITE_Z = [math.nan, math.inf, -math.inf, complex(1.0, math.inf),
               complex(math.nan, 0.0), complex(-math.inf, 0.0)]


@pytest.mark.parametrize("z", NONFINITE_Z)
def test_nonfinite_z_is_rejected_by_name(z):
    # before any matrix is built: neither "matrix entries must be finite"
    # nor the oracle's nan, nor a "complex exponentiation" error
    single = problem(sine_kernel(), 0.0, 1.0, z, 4)
    rule = gauss_legendre(0.0, 1.0, 3)
    system = BlockSystem(((0.0, 1.0), (0.0, 1.0)),
                         ((SineKernel(), SineKernel()), (SineKernel(), SineKernel())),
                         (rule, rule))
    for call in (lambda: fredholm_det(single),
                 lambda: fredholm_det_system(system, z),
                 lambda: fredholm_series_oracle(single, 4),
                 lambda: fredholm_series_oracle_system(system, z, 6),
                 lambda: convergence_study(sine_kernel(), (0.0, 1.0), z, "gauss", [4, 8])):
        with pytest.raises(ValueError, match="z must be finite, got"):
            call()


class TestSeriesOracle:
    def test_n_max_zero(self):
        assert fredholm_series_oracle(problem(sine_kernel(), 0.0, 1.0, -1.0, 4), 0) == 1.0

    @pytest.mark.parametrize("name,m", [
        ("sine", 6), ("green", 6), ("airy", 5), ("airy2:0.9", 4), ("airy1:0.7", 4)])
    def test_terminated_series_equals_det(self, name, m):
        k = make_kernel(name)
        a, b = (0.0, 1.0) if name == "green" else (-2.0, 1.0)
        for z in (-2.0, -1.0, 1.0, 2.0):
            p = problem(k, a, b, z, m)
            oracle = fredholm_series_oracle(p, n_max=m)
            direct = fredholm_det(p).value
            assert oracle == pytest.approx(direct, abs=1e-13), z

    def test_cap_counts_only_terms_summed(self):
        # the series terminates at n = m, so n_max past m costs nothing more
        p = problem(sine_kernel(), 0.0, 1.0, -1.0, 3)
        assert fredholm_series_oracle(p, n_max=20) == fredholm_series_oracle(p, n_max=3)
        with pytest.raises(ResourceLimitError):
            fredholm_series_oracle(problem(sine_kernel(), 0.0, 1.0, -1.0, 50), n_max=5)

    def test_partial_series_approximates(self):
        p = problem(sine_kernel(), 0.0, 1.0, -1.0, 4)
        full = fredholm_det(p).value
        part = fredholm_series_oracle(p, n_max=2)
        assert abs(part - full) < 5e-3  # truncated but close


class TestBlockSystems:
    def test_n1_degenerate_equals_single(self):
        k = sine_kernel()
        rule = gauss_legendre(0.0, 1.2, 9)
        single = fredholm_det(NystromProblem(k, (0.0, 1.2), -1.0, rule)).value
        sys1 = BlockSystem(intervals=((0.0, 1.2),), kernels=((k,),), rules=(rule,))
        res = fredholm_det_system(sys1, -1.0)
        assert res.value == single
        assert res.method == "cholesky"

    def test_block_diagonal_factorizes(self):
        class Zero(SineKernel):
            def eval(self, x, y):
                return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

        ka, kb = sine_kernel(), GreenKernel()
        ra = gauss_legendre(0.0, 1.0, 7)
        rb = gauss_legendre(0.0, 1.0, 9)
        sys2 = BlockSystem(intervals=((0.0, 1.0), (0.0, 1.0)),
                           kernels=((ka, Zero()), (Zero(), kb)),
                           rules=(ra, rb))
        da = fredholm_det(NystromProblem(ka, (0.0, 1.0), -1.0, ra)).value
        db = fredholm_det(NystromProblem(kb, (0.0, 1.0), -1.0, rb)).value
        assert fredholm_det_system(sys2, -1.0).value == pytest.approx(da * db, abs=1e-13)

    def test_system_oracle_equivalence(self):
        # N=2 process system: terminated series equals the block determinant
        from fredet.kernels import Airy2ProcessKernel
        k0 = AiryKernel()
        kt = Airy2ProcessKernel(1.0)
        kmt = Airy2ProcessKernel(-1.0)
        r = gauss_legendre(0.0, 2.0, 3)
        sys2 = BlockSystem(intervals=((0.0, 2.0), (0.0, 2.0)),
                           kernels=((k0, kt), (kmt, k0)),
                           rules=(r, r))
        res = fredholm_det_system(sys2, -1.0)
        assert res.method == "lu"  # K_t and K_{-t} blocks: not symmetric
        direct = res.value
        oracle = fredholm_series_oracle_system(sys2, -1.0, n_max=6)
        assert oracle == pytest.approx(direct, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        k = sine_kernel()
        r = gauss_legendre(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            BlockSystem(intervals=((0.0, 1.0), (0.0, 1.0)),
                        kernels=((k, k),), rules=(r, r))

    def test_balancing_invariance(self):
        from fredet.kernels import Airy1ProcessKernel, TransformedKernel
        from test_rmt import ShiftedPairKernel
        k0 = Airy1ProcessKernel(0.0)
        kt = Airy1ProcessKernel(1.0)
        kmt = Airy1ProcessKernel(-1.0)
        rule = gauss_legendre(0.0, 1.0, 18)
        kernels = ((TransformedKernel(k0, -2.0), ShiftedPairKernel(kt, -2.0, -1.0)),
                   (ShiftedPairKernel(kmt, -1.0, -2.0), TransformedKernel(k0, -1.0)))
        sys2 = BlockSystem(intervals=((0.0, 1.0), (0.0, 1.0)),
                           kernels=kernels, rules=(rule, rule))
        a = fredholm_det_system(sys2, -1.0).value
        # the same system unbalanced, assembled block by block
        sw = np.sqrt(rule.weights)
        blocks = [[sw[:, None] * k.matrix(rule.nodes, rule.nodes) * sw[None, :]
                   for k in row] for row in kernels]
        unbalanced = np.block(blocks)
        # the off-diagonal blocks are scaled far apart, so balancing moves them
        assert np.any(_balance_blocks(blocks) != 0.0)
        b = det_lu(np.eye(36) - unbalanced)
        assert a == pytest.approx(b, rel=1e-9, abs=0)


def reference_shifts(blocks):
    """The per-system balancing sweep, one Python scalar at a time."""
    n = len(blocks)
    mags = np.array([[float(np.max(np.abs(b))) if i != j else 0.0
                      for j, b in enumerate(row)] for i, row in enumerate(blocks)])
    shift = np.zeros(n)
    for _ in range(20):
        moved = False
        for i in range(n):
            row = [mags[i, j] * 2.0 ** (shift[i] - shift[j])
                   for j in range(n) if j != i and mags[i, j] > 0.0]
            col = [mags[j, i] * 2.0 ** (shift[j] - shift[i])
                   for j in range(n) if j != i and mags[j, i] > 0.0]
            if not row or not col:
                continue
            delta = round(0.5 * math.log2(max(col) / max(row)))
            if delta != 0:
                shift[i] += delta
                moved = True
        if not moved:
            break
    return shift


class TestBalancing:
    @pytest.mark.parametrize("n", [2, 3])
    def test_shifts_match_per_system_sweep(self, n):
        rng = np.random.default_rng(n)
        k, m = 40, 4
        # block magnitudes over 60 decades, plus exact powers of two that
        # put 0.5 * log2(ratio) on a half-integer (round half to even)
        scales = 10.0 ** rng.uniform(-30, 30, size=(k, n, n))
        scales[:8] = 2.0 ** rng.integers(-9, 10, size=(8, n, n))
        scales[8, 0, 1] = 0.0  # a vanishing block leaves its row alone
        base = rng.uniform(0.5, 1.0, size=(k, n, n, m, m))
        base[:8, :, :, 0, 0] = 1.0
        for q in range(k):
            blocks = [[base[q, i, j] * scales[q, i, j] for j in range(n)] for i in range(n)]
            originals = [[b.copy() for b in row] for row in blocks]
            shifts = _balance_blocks(blocks)
            ref = reference_shifts(originals)
            assert shifts.shape == (n,) and np.array_equal(shifts, ref), q
            for i in range(n):
                for j in range(n):
                    expect = originals[i][j] * (2.0 ** (ref[i] - ref[j]) if i != j else 1.0)
                    assert np.array_equal(blocks[i][j], expect)

    def test_single_block_untouched(self):
        blocks = [[np.eye(3)]]
        assert np.array_equal(_balance_blocks(blocks), np.zeros(1))
        assert np.array_equal(blocks[0][0], np.eye(3))


class TestConvergenceStudy:
    def test_green_rate(self):
        rows = convergence_study(GreenKernel(), (0.0, 1.0), -1.0, "gauss",
                                 [4, 8, 16, 32, 64, 128, 256])
        errs = np.array([abs(r.value - SIN1) for r in rows])
        slope = np.polyfit(np.log([r.m for r in rows]), np.log(errs), 1)[0]
        assert -2.3 <= slope <= -1.7

    def test_sine_exponential(self):
        rows = convergence_study(sine_kernel(), (0.0, 1.0), -1.0, "gauss",
                                 [5, 10, 15, 20])
        assert rows[-2].error < 1e-13  # m=15 already at roundoff level

    def test_cc_needs_roughly_double(self):
        def first_converged(family):
            rows = convergence_study(sine_kernel(), (0.0, 2.0), -1.0, family,
                                     list(range(5, 75, 5)))
            for r in rows:
                if not math.isnan(r.error) and r.error < 1e-13:
                    return r.m
            return None

        mg = first_converged("gauss")
        mc = first_converged("cc")
        assert mg is not None and mc is not None
        assert mg <= 30 and mc <= 60
        assert 1.2 <= mc / mg <= 3.2

    def test_m_list_validated(self):
        with pytest.raises(ValueError):
            convergence_study(sine_kernel(), (0.0, 1.0), -1.0, "gauss", [8, 4])
        with pytest.raises(ValueError):
            convergence_study(sine_kernel(), (0.0, 1.0), -1.0, "bogus", [4, 8])

    def test_complex_z_keeps_the_imaginary_part(self):
        rows = convergence_study(sine_kernel(), (0.0, 1.0), 1j, "gauss", [10, 20])
        ref = fredholm_det(problem(sine_kernel(), 0.0, 1.0, 1j, 10)).value
        assert type(rows[0].value) is complex and rows[0].value == ref
        assert rows[0].value.imag == pytest.approx(0.9981357273925655, abs=1e-14)
        assert rows[0].error == abs(rows[0].value - rows[1].value)
        real = convergence_study(sine_kernel(), (0.0, 1.0), -1.0, "gauss", [10])
        assert type(real[0].value) is float
