"""Distribution values, joint distributions, moments, covariance pieces.

The expensive end-to-end covariance checks live in test_acceptance.py;
here the individual ingredients are pinned at moderate sizes.
"""

import io
import math
from contextlib import redirect_stderr

import numpy as np
import pytest

from fredet import kernels as kernels_module
from fredet import rmt
from fredet.kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                            Kernel, TransformedKernel)
from fredet.linalg import UNIT_ROUNDOFF
from fredet.cli import main
from fredet.nystrom import (BlockSystem, NystromProblem, fredholm_det,
                            fredholm_det_system)
from fredet.quadrature import gauss_legendre
from fredet.rmt import (airy1_joint, airy2_joint, cov_airy1, cov_airy2, cov_grid,
                        e2_gap, f2_tw, truncation_bound, tw_moments, _JointTable,
                        _cov_zero, _legendre_cumulative, _marginal)


class ShiftedPairKernel(Kernel):
    """sqrt(phi_1'(xi) phi_2'(eta)) K(phi_1(xi), phi_2(eta)) with
    phi_k(xi) = s_k + scale*tan(pi xi/2): the tan-mapped kernel with each
    side on its own half-line, as in the off-diagonal blocks of a joint
    system."""

    def __init__(self, base, s1, s2, scale=10.0):
        self.base = base
        self.left = TransformedKernel(base, s1, scale=scale)
        self.right = TransformedKernel(base, s2, scale=scale)

    def matrix(self, xs, ys):
        core = self.base.matrix(self.left.phi(xs), self.right.phi(ys))
        return (np.sqrt(self.left.dphi(xs))[:, None] * core
                * np.sqrt(self.right.dphi(ys))[None, :])


def block_system_joint(process, t, s1, s2, m, scale=10.0):
    """P(A(t) <= s1, A(0) <= s2) as a fresh BlockSystem determinant,
    assembled kernel by kernel: the reference for the joint table."""
    if process == "airy2":
        x_min = min(s1, s2)
        k0, kt, kmt = (AiryKernel(), Airy2ProcessKernel(t, x_min=x_min),
                       Airy2ProcessKernel(-t, x_min=x_min))
    else:
        k0, kt, kmt = (Airy1ProcessKernel(0.0), Airy1ProcessKernel(t),
                       Airy1ProcessKernel(-t))
    rule = gauss_legendre(0.0, 1.0, m)
    kernels = ((TransformedKernel(k0, s1, scale=scale), ShiftedPairKernel(kt, s1, s2, scale)),
               (ShiftedPairKernel(kmt, s2, s1, scale), TransformedKernel(k0, s2, scale=scale)))
    system = BlockSystem(intervals=((0.0, 1.0), (0.0, 1.0)), kernels=kernels,
                         rules=(rule, rule))
    return fredholm_det_system(system, -1.0)


def two_sided_grid(tab, s):
    """Joints at all pairs of thresholds ``s``, the pairs below the diagonal
    computed on their own, as the rows j >= i of the reversed grid."""
    n = s.size
    tab.prepare(s)
    upper = [tab.row(i) for i in range(n)]
    tab.prepare(s[::-1])
    lower = [tab.row(i) for i in range(n)]
    joint = np.empty((n, n))
    for i in range(n):
        # reversed row i holds (s_{n-1-i}, s_{n-1-j}) for j >= i
        joint[n - 1 - i, :n - i] = lower[i][::-1]
        joint[i, i:] = upper[i]
    return joint


class TestE2:
    def test_empty_interval(self):
        p = e2_gap(0.0, 10)
        assert p.value == 1.0 and not p.suspect

    def test_reference_value(self):
        assert e2_gap(0.1, 5).value == pytest.approx(0.900027271798259, abs=5e-15)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            e2_gap(-0.5, 5)

    def test_monotone_decreasing_in_range(self):
        vals = [e2_gap(s, 40).value for s in np.linspace(0.0, 2.5, 11)]
        assert all(0.0 <= v <= 1.0 + 1e-10 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestF2:
    def test_limit_one(self):
        assert f2_tw(10.0, 30).value == pytest.approx(1.0, abs=1e-10)

    def test_routes_agree(self):
        a = f2_tw(-2.0, 40).value
        b = f2_tw(-2.0, 60, route="truncate", T=12.0).value
        assert abs(a - b) < 1e-10

    def test_monotone_increasing(self):
        vals = [f2_tw(s, 45).value for s in np.linspace(-6.0, 2.0, 13)]
        assert all(-1e-10 <= v <= 1.0 + 1e-10 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cholesky_fallback_is_suspect(self):
        # at m = 30 roundoff leaves I - A without a positive pivot for
        # s <= -9.3 and LU takes over
        assert f2_tw(-9.5, 30).suspect
        assert not f2_tw(-2.0, 30).suspect

    @pytest.mark.parametrize("m,grid", [
        (30, [-9.5, -9.3, -9.25, -2.0, 0.0, 2.0]),
        # the benchmark's dist-table grid, -8 to 2 by 0.05
        (80, [(k - 160) / 20 for k in range(201)]),
    ])
    def test_matches_reference_route(self, m, grid):
        # f2_tw is the Airy(2) marginal; the reference is the tan-mapped
        # Airy kernel as one operator through fredholm_det.  At m = 30 the
        # grid straddles the Cholesky-to-LU edge between -9.3 and -9.25.
        for s in grid:
            kernel = TransformedKernel(AiryKernel(), s, scale=10.0)
            ref = fredholm_det(NystromProblem(kernel, (0.0, 1.0), -1.0,
                                              gauss_legendre(0.0, 1.0, m)))
            ref_suspect = (ref.method == "cholesky->lu"
                           or not -1e-10 <= ref.value <= 1.0 + 1e-10)
            point = f2_tw(s, m)
            assert abs(point.value - ref.value) <= 1e-15, s
            assert point.suspect == ref_suspect, s

    def test_truncate_needs_valid_T(self):
        with pytest.raises(ValueError):
            f2_tw(-2.0, 30, route="truncate")
        with pytest.raises(ValueError):
            f2_tw(-2.0, 30, route="truncate", T=-3.0)

    def test_geometric_convergence_regime(self):
        # successive-m differences shrink at least 2x per +5 in m until
        # they near the roundoff floor
        vals = {m: f2_tw(-2.0, m).value for m in range(10, 46, 5)}
        diffs = [abs(vals[m + 5] - vals[m]) for m in range(10, 41, 5)]
        for d0, d1 in zip(diffs, diffs[1:]):
            if d0 < 1e-13:
                break
            assert d1 <= d0 / 2.0


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_bad_scale_rejected(scale):
    # every tan-mapped entry point names the bad scale instead of returning
    # a value (scale 0 made every marginal 1) or failing further down
    calls = [lambda: f2_tw(-2.0, 30, scale=scale),
             lambda: airy2_joint(1.0, -1.0, 0.0, 20, scale=scale),
             lambda: airy1_joint(1.0, -1.0, 0.0, 20, scale=scale),
             lambda: airy2_joint(0.0, -1.0, 0.0, 20, scale=scale),
             lambda: cov_airy2(0.0, scale=scale),
             lambda: cov_airy2(1.0, scale=scale),
             lambda: cov_airy1(0.0, scale=scale)]
    for call in calls:
        with pytest.raises(ValueError, match="scale"):
            call()
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["f2", "--s-min", "-2", "--s-max", "-2", "--step", "1",
                     f"--scale={scale}"])
    assert code == 2 and "scale" in err.getvalue()


class TestUnitRuleCache:
    def test_rule_and_tan_map_built_once(self, monkeypatch):
        # the (0, 1) rule and the tan map depend on (m, scale) only, so
        # further thresholds build and validate no rule
        m = 37
        f2_tw(-2.0, m)
        offsets, rr = rmt._tan_map(m, 10.0)
        built = []
        monkeypatch.setattr(rmt, "gauss_legendre",
                            lambda *args: built.append(args) or gauss_legendre(*args))
        for s in (-3.0, 0.5):
            f2_tw(s, m)
            truncation_bound(s, s + 4.0, m=m)
        assert rmt._tan_map(m, 10.0)[0] is offsets and not built
        assert not offsets.flags.writeable and not rr.flags.writeable


class TestTruncationBound:
    def test_monotone_in_T(self):
        b1 = truncation_bound(-2.0, 6.0)
        b2 = truncation_bound(-2.0, 8.0)
        assert b2 < b1

    def test_safe_point(self):
        for s in (-8.0, -2.0, 2.0):
            assert truncation_bound(s, 16.0) < 1e-16

    def test_bound_controls_route_difference(self):
        s, T = -2.0, 8.0
        a = f2_tw(s, 60).value
        b = f2_tw(s, 60, route="truncate", T=T).value
        assert abs(a - b) <= truncation_bound(s, T) + 1e-12

    def test_validates(self):
        with pytest.raises(ValueError):
            truncation_bound(2.0, 1.0)


class TestAiry2Joint:
    def test_marginalization(self):
        j = airy2_joint(1.0, -0.5, 10.0, 30)
        assert j.value == pytest.approx(f2_tw(-0.5, 30).value, abs=1e-8)

    def test_decorrelation_large_t(self):
        j = airy2_joint(50.0, -0.5, 0.5, 30).value
        prod = f2_tw(-0.5, 30).value * f2_tw(0.5, 30).value
        # the residual correlation at t=50 is genuinely ~1.5e-6 (~t^-2 scale)
        assert abs(j - prod) < 2e-6
        j100 = airy2_joint(100.0, -0.5, 0.5, 30).value
        assert abs(j100 - prod) < 1e-6

    def test_time_reversal_symmetry(self):
        a = airy2_joint(1.0, -1.0, 0.5, 30).value
        b = airy2_joint(-1.0, 0.5, -1.0, 30).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_in_unit_interval(self):
        for (t, s1, s2) in [(0.5, -2.0, 0.0), (2.0, -4.0, 1.0)]:
            p = airy2_joint(t, s1, s2, 30)
            assert not p.suspect

    def test_table_path_matches_system_path(self):
        p = airy2_joint(1.0, -1.0, 0.5, 30)
        ref = block_system_joint("airy2", 1.0, -1.0, 0.5, 30)
        assert p.value == pytest.approx(ref.value, abs=1e-13)
        assert p.m == ref.m
        assert p.est_error == pytest.approx(ref.roundoff_bound, rel=1e-12)

    def test_thresholds_below_minus_ten(self):
        # the inner rules follow the lowest threshold; the table path
        # against the system path, which builds its own kernels, checks
        # the off-diagonal blocks through ||A||_F in est_error
        p = airy2_joint(0.3, -18.0, -16.0, 30)
        ref = block_system_joint("airy2", 0.3, -18.0, -16.0, 30)
        assert p.value == pytest.approx(ref.value, abs=1e-13)
        assert p.est_error == pytest.approx(ref.roundoff_bound, rel=1e-12)
        tab = _JointTable("airy2", 0.3, 30, 10.0)
        with pytest.raises(ValueError, match="x_min"):
            tab.prepare([-16.0])

    def test_t_zero_carries_marginal_fallback(self):
        # at t = 0 the joint is the marginal F2(min(s1, s2)); at s = -9.5
        # and m = 30 its Cholesky fails and LU takes over, as for f2_tw
        p = airy2_joint(0.0, -9.5, 0.0, 30)
        ref = f2_tw(-9.5, 30)
        assert p.suspect and ref.suspect
        assert abs(p.value - ref.value) <= ref.est_error
        assert p.est_error == pytest.approx(ref.est_error, rel=1e-12)
        clean = airy2_joint(0.0, -2.0, 0.0, 30)
        assert not clean.suspect
        assert clean.est_error == pytest.approx(f2_tw(-2.0, 30).est_error, rel=1e-12)


class TestAiry1Joint:
    def test_marginalization_plateau(self):
        marg = _marginal("airy1", -0.5, 30)
        j8 = airy1_joint(1.0, -0.5, 8.0, 30).value
        j10 = airy1_joint(1.0, -0.5, 10.0, 30).value
        assert j8 == pytest.approx(marg, abs=1e-8)
        assert abs(j10 - j8) < 1e-8

    def test_t_zero_degenerates(self):
        marg = _marginal("airy1", -0.5, 30)
        assert airy1_joint(0.0, -0.5, -0.5, 30).value == pytest.approx(marg, abs=0)
        assert airy1_joint(0.0, 0.3, -0.5, 30).value == pytest.approx(marg, abs=0)

    def test_probability_range_scan(self):
        for t in (0.5, 1.5, 2.5):
            for s1 in (-4.0, -1.0, 2.0):
                for s2 in (-3.0, 0.0):
                    p = airy1_joint(t, s1, s2, 24)
                    assert not p.suspect

    def test_table_path_matches_system_path(self):
        p = airy1_joint(1.5, -1.0, 0.5, 30)
        ref = block_system_joint("airy1", 1.5, -1.0, 0.5, 30)
        assert p.value == pytest.approx(ref.value, abs=1e-12)
        assert p.est_error == pytest.approx(ref.roundoff_bound, rel=1e-12)


class TestTWMoments:
    def test_values(self):
        mean, var = tw_moments()
        assert mean == pytest.approx(-1.771086807, abs=1e-6)
        assert var == pytest.approx(0.813194793, abs=1e-6)

    def test_box_invariance(self):
        m1, v1 = tw_moments(box=(-10.0, 6.0))
        m2, v2 = tw_moments(box=(-12.0, 8.0))
        assert abs(m1 - m2) < 1e-9
        assert abs(v1 - v2) < 1e-9

    def test_narrow_box_rejected(self):
        with pytest.raises(ValueError, match="too narrow"):
            tw_moments(box=(-4.0, 6.0))


class TestCovGridSmall:
    def test_grid_requires_ascending(self):
        with pytest.raises(ValueError):
            cov_grid("airy2", [1.0, 0.5])

    def test_unknown_process(self):
        with pytest.raises(ValueError):
            cov_grid("bogus", [1.0])


class TestJointTableRows:
    """The batched, stacked-determinant rows of the covariance engine."""

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_symmetry_on_random_pairs(self, process, seed):
        # time reversal: P(A(t) <= s1, A(0) <= s2) = P(A(t) <= s2, A(0) <= s1)
        s = np.random.default_rng(seed).uniform(-4.0, 2.0, size=7)
        joint = two_sided_grid(_JointTable(process, 0.8, 20, 10.0), s)
        assert np.max(np.abs(joint - joint.T)) <= 1e-13

    @pytest.mark.parametrize("process,box", [("airy2", rmt.DEFAULT_BOX),
                                             ("airy1", rmt.AIRY1_BOX)])
    def test_mirrored_triangle_equals_full_grid(self, process, box):
        # against a grid whose lower triangle is computed on its own; the
        # Airy(1) value at m = 12 is 3.3e5, so the bound is relative
        m, n = 12, 10
        kernels = rmt._process_kernels(process, 1.0, 1e-12)
        value = rmt._cov_positive(process, 1.0, m, n, box, 10.0, kernels)
        outer = gauss_legendre(box[0], box[1], n)
        joint = two_sided_grid(_JointTable(process, 1.0, m, 10.0, kernels=kernels),
                               outer.nodes)
        marg = np.array([_marginal(process, s, m) for s in outer.nodes])
        ref = outer.weights @ (joint - np.outer(marg, marg)) @ outer.weights
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("t,rel", [
        (0.25, 1e-13),
        (1.0, 1e-13),
        # entries of order 1e3 cancel here: two full evaluations that only
        # round x + y + t^2 differently already differ by 1.7e-12
        (2.5, 1e-10),
    ])
    def test_airy1_rows_match_full_evaluation(self, t, rel, monkeypatch):
        # rows with the mirrored Airy factor against rows whose blocks come
        # from the full m x m evaluation of matrix_pair, relative to the
        # largest joint of the grid (the smallest ones are roundoff-sized)
        s = gauss_legendre(*rmt.AIRY1_BOX, 9).nodes
        tab = _JointTable("airy1", t, 20, 10.0)
        tab.prepare(s)
        rows = tab.grid()

        def full(kernel, s1, s2, offsets):
            m, c = offsets.size, s2.size
            fwd, bwd = kernel.matrix_pair(s1 + offsets, (s2[:, None] + offsets).ravel())
            return (fwd.reshape(m, c, m).transpose(1, 0, 2),
                    bwd.reshape(m, c, m).transpose(1, 0, 2))

        monkeypatch.setattr(Airy1ProcessKernel, "shifted_pairs", full)
        ref = tab.grid()
        assert np.max(np.abs(rows - ref)) <= rel * np.max(np.abs(ref))

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_grid_symmetric_bit_for_bit(self, process):
        # only the rows j >= i are computed; the grid mirrors them
        s = np.random.default_rng(3).uniform(-5.0, 3.0, size=9)
        tab = _JointTable(process, 0.6, 16, 10.0)
        tab.prepare(s)
        joint = tab.grid()
        assert np.array_equal(joint, joint.T)

    @pytest.mark.parametrize("process,t", [
        ("airy2", 1.0),   # K_t decay branch, K_{-t} oscillatory branch
        ("airy2", 0.5),   # K_{-t} Laplace-identity branch
        ("airy2", -0.5),  # K_t Laplace-identity branch
        ("airy1", 1.0),
        ("airy1", -1.0),
    ])
    def test_row_matches_per_pair_joint(self, process, t):
        s = np.array([-3.0, -1.2, 0.0, 0.7, 2.5])
        tab = _JointTable(process, t, 20, 10.0)
        tab.prepare(s)
        tab.CHUNK = 2  # the row spans three stacked calls
        for i in (0, 2):
            row = tab.row(i)
            ref = [block_system_joint(process, t, s[i], s2, 20).value for s2 in s[i:]]
            assert np.max(np.abs(row - ref)) <= 1e-13


    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_batched_blocks_equal_per_threshold(self, process, monkeypatch):
        # stacked kernel-matrix calls for I - A_0 and chunked bases give
        # the bits of the per-threshold evaluations
        m = 16
        s = gauss_legendre(*rmt.DEFAULT_BOX, 11).nodes
        tab = _JointTable(process, 0.7, m, 10.0)
        # 2 of the 11 thresholds a matrix call, 9 of the 176 rows a basis
        # call (K_t and K_{-t} take 75 nodes), the last call of each ragged
        monkeypatch.setattr(rmt, "_EVAL_CHUNK", 700)
        tab.prepare(s)
        k0 = AiryKernel() if process == "airy2" else Airy1ProcessKernel(0.0)
        offsets, rr = rmt._tan_map(m, 10.0)
        for k, sk in enumerate(s):
            x = sk + offsets
            assert np.array_equal(tab.eye_minus_a0[k], np.eye(m) - rr * k0.matrix(x, x))
            if process == "airy2":
                assert np.array_equal(tab._bt[k], tab.kt.basis(x))
                assert np.array_equal(tab._bmt[k], tab.kmt.basis(x))

    def test_prepare_calls_basis_in_chunks(self, monkeypatch):
        # O(n m n_inner / chunk) calls of at most one chunk of 8k points:
        # not one call per threshold (slow) nor one per grid (peak memory)
        tab = _JointTable("airy2", 1.0, 24, 10.0)
        sizes = []
        basis = Airy2ProcessKernel.basis

        def counting(kernel, xs):
            sizes.append(np.size(xs) * kernel.inner_size)
            return basis(kernel, xs)

        monkeypatch.setattr(Airy2ProcessKernel, "basis", counting)
        n, m = 38, 24
        tab.prepare(gauss_legendre(*rmt.DEFAULT_BOX, n).nodes)
        points = n * m * (tab.kt.inner_size + tab.kmt.inner_size)
        assert rmt._EVAL_CHUNK <= 1 << 13 and max(sizes) <= rmt._EVAL_CHUNK
        assert len(sizes) <= points / rmt._EVAL_CHUNK + 4 < n

    def test_prepare_evaluates_no_basis_point_with_airy_ai(self, monkeypatch):
        # the bases come from each kernel's Taylor table of Ai, so prepare
        # takes Ai points only for I - A_0 (n m of them, plus the centres
        # of near-diagonal pairs): not the n m n_inner of the bases
        tab = _JointTable("airy2", 1.0, 24, 10.0)
        points = []
        airy_ai = kernels_module.airy_ai

        def counting(x):
            points.append(np.size(x))
            return airy_ai(x)

        monkeypatch.setattr(kernels_module, "airy_ai", counting)
        n, m = 38, 24
        tab.prepare(gauss_legendre(*rmt.DEFAULT_BOX, n).nodes)
        # one Taylor panel per Ai and Ai' point a table build takes
        panels = tab.kt._ai._coef.shape[1] + tab.kmt._ai._coef.shape[1]
        assert sum(points) <= panels < n * m * tab.kt.inner_size

    def test_prepare_takes_given_blocks_bitwise(self):
        # a covariance level hands prepare the I - A_0 blocks of its kept
        # thresholds, sliced from the marginals' blocks: the bits prepare
        # would build itself
        m = 16
        s = gauss_legendre(*rmt.DEFAULT_BOX, 23).nodes
        keep = np.arange(s.size) % 3 != 0
        blocks = rmt._eye_minus_a0("airy2", s, *rmt._tan_map(m, 10.0))
        tab = _JointTable("airy2", 0.7, m, 10.0)
        tab.prepare(s[keep])
        assert np.array_equal(tab.eye_minus_a0, blocks[keep])
        tab.prepare(s[keep], eye_minus_a0=blocks[keep])
        assert np.array_equal(tab.eye_minus_a0, blocks[keep])

    def test_level_builds_eye_minus_a0_once(self, monkeypatch):
        calls = []
        build = rmt._eye_minus_a0

        def counting(process, svals, *args):
            calls.append(len(svals))
            return build(process, svals, *args)

        monkeypatch.setattr(rmt, "_eye_minus_a0", counting)
        kernels = rmt._process_kernels("airy2", 1.0, 1e-12)
        rmt._cov_positive("airy2", 1.0, 20, 32, rmt.DEFAULT_BOX, 10.0, kernels)
        assert calls == [32]


def full_level(process, t, m, n_outer, box, kernels):
    """Every joint of a covariance level's outer grid, its roundoff bound
    sqrt(2m) ||A||_F 8u, and the marginals with theirs."""
    outer = gauss_legendre(*box, n_outer)
    tab = _JointTable(process, t, m, 10.0, kernels=kernels)
    tab.prepare(outer.nodes)
    points = rmt._marginal_points(process, outer.nodes, m, 10.0)
    n = n_outer
    joint, est = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        systems = tab._systems(i, i, n)
        joint[i, i:] = rmt.det_lu(systems)
        est[i, i:] = (np.sqrt(2 * m) * 8 * UNIT_ROUNDOFF
                      * np.linalg.norm(np.eye(2 * m) - systems, axis=(1, 2)))
    return (outer, joint + np.triu(joint, 1).T, est + np.triu(est, 1).T,
            np.array([p.value for p in points]), np.array([p.est_error for p in points]))


@pytest.fixture(scope="module")
def cov_kernels():
    cache = {}

    def get(process, t):
        if (process, t) not in cache:
            box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
            cache[process, t] = rmt._process_kernels(process, t, 1e-12, box[0])
        return cache[process, t]
    return get


class TestTailDrop:
    """``_tail_drop``: thresholds whose joints the Frechet bounds put below
    the roundoff floor of a covariance level are left out of it."""

    def test_drops_smallest_bounds_first(self):
        marg = np.array([0.0, 0.3, 0.5, 1.0, 5e-16, 0.9])
        bounds = np.full(6, 1e-15)
        weights = np.ones(6)
        keep, b = rmt._tail_drop(marg, bounds, weights)
        # g = 1e-15 at both ends: B = 2 * 6 * 2e-15 is under the floor
        # 6^2 * 1e-15, and the next smallest g, 1.5e-15, would take B over
        assert keep.tolist() == [False, True, True, False, True, True]
        assert b == pytest.approx(2.4e-14, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("process,t,level", [
        ("airy2", 1.0, 1), ("airy2", 2.5, 0), ("airy2", 2.5, 1),
        ("airy1", 2.5, 0), ("airy1", 2.5, 1),
    ])
    def test_bound_holds_on_full_grids(self, process, t, level, cov_kernels):
        # on grids that resolve their joints, every computed pair obeys the
        # Frechet bound up to its roundoff bound, and leaving out the
        # dropped thresholds moves the level by at most B
        m, n = rmt._COV_LEVELS[process][level]
        box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
        kernels = cov_kernels(process, t)
        outer, joint, est, f, e = full_level(process, t, m, n, box, kernels)
        g = np.minimum(np.abs(f), np.abs(1.0 - f)) + e
        assert np.all(np.abs(joint - np.outer(f, f)) <= np.minimum.outer(g, g) + est)
        keep, b = rmt._tail_drop(f, e, outer.weights)
        assert 0 < np.sum(~keep) < n // 2
        assert b <= (box[1] - box[0]) ** 2 * np.max(e)
        w = outer.weights
        full = float(w @ (joint - np.outer(f, f)) @ w)
        assert abs(rmt._cov_positive(process, t, m, n, box, 10.0, kernels) - full) <= b

    @pytest.mark.parametrize("process,t,level,ref", [
        # ref: _cov_positive at (m, n_outer) = (38, 64) without the drop
        ("airy2", 0.25, 0, 0.6120732876703573),
        ("airy2", 0.25, 1, 0.6120732876703573),
        ("airy2", 1.0, 0, 0.30326251452740216),
        ("airy1", 0.5, 0, 0.08441917402936823),
        ("airy1", 0.5, 1, 0.08441917402936823),
    ])
    def test_coarse_levels_move_within_their_error(self, process, t, level, ref,
                                                   cov_kernels):
        # a level too coarse for the joints at the dropped thresholds
        # (small t, first levels: the Frechet bound fails there by up to
        # 7.6e-7) loses their discretization error with them, so it moves
        # by more than B, but by less than its own distance to a converged
        # value
        m, n = rmt._COV_LEVELS[process][level]
        box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
        kernels = cov_kernels(process, t)
        outer, joint, _, f, e = full_level(process, t, m, n, box, kernels)
        keep, b = rmt._tail_drop(f, e, outer.weights)
        assert np.any(~keep) and b <= (box[1] - box[0]) ** 2 * np.max(e)
        w = outer.weights
        full = float(w @ (joint - np.outer(f, f)) @ w)
        value = rmt._cov_positive(process, t, m, n, box, 10.0, kernels)
        assert abs(value - full) <= b + abs(full - ref)


class TestCovarianceZero:
    @pytest.mark.parametrize("n", [1, 5, 48])
    def test_cumulative_matrix_exact_for_polynomials(self, n):
        a, b = -10.0, 6.0
        rule = gauss_legendre(a, b, n)
        coef = np.random.default_rng(n).normal(size=n)
        x = (2.0 * rule.nodes - (a + b)) / (b - a)
        p = np.polynomial.polynomial.polyval(x, coef)
        anti = np.polynomial.polynomial.polyint(coef, lbnd=-1.0)
        exact = 0.5 * (b - a) * np.polynomial.polynomial.polyval(x, anti)
        assert np.max(np.abs(_legendre_cumulative(rule) @ p - exact)) <= 1e-12

    def test_matches_per_node_triangle_formula(self):
        # the route this replaced: a fresh n-point Gauss rule on (L, s2)
        # and fresh marginals at its nodes, for every outer node s2
        m, n_outer, box, scale = 20, 48, rmt.DEFAULT_BOX, 10.0
        low, up = box
        outer = gauss_legendre(low, up, n_outer)
        total = 0.0
        for s2, w2 in zip(outer.nodes, outer.weights):
            inner = gauss_legendre(low, s2, n_outer)
            fin = np.array([_marginal("airy2", s, m, scale) for s in inner.nodes])
            total += w2 * (1.0 - _marginal("airy2", s2, m, scale)) * float(inner.weights @ fin)
        assert abs(_cov_zero("airy2", m, n_outer, box, scale) - 2.0 * total) <= 1e-12


#: A two-level ladder far too coarse to meet any accuracy asked for here.
COARSE_LEVELS = {"airy2": ((10, 8), (12, 10)), "airy1": ((10, 8), (12, 10))}


class TestCovarianceTypes:
    @pytest.mark.parametrize("cov", [cov_airy2, cov_airy1])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_plain_floats(self, cov, t, monkeypatch):
        # small levels: only the types are under test here, and levels this
        # coarse miss 1e-8, so each call also warns
        monkeypatch.setattr(rmt, "_COV_LEVELS", COARSE_LEVELS)
        with pytest.warns(RuntimeWarning, match="missed accuracy"):
            assert type(cov(t)) is float
        with pytest.warns(RuntimeWarning, match="missed accuracy"):
            value, est, levels = cov(t, full_output=True)
        assert type(value) is float and type(est) is float and levels == 2


class TestCovarianceLadder:
    def test_levels_increase_to_finest(self):
        # Airy(1) skips (20, 32), where its covariance is off by up to 6e-3
        for process, first in (("airy2", (20, 32)), ("airy1", (24, 38))):
            levels = rmt._COV_LEVELS[process]
            assert all(m2 > m1 and n2 > n1
                       for (m1, n1), (m2, n2) in zip(levels, levels[1:]))
            assert levels[0] == first and levels[-1] == (48, 88)

    @pytest.mark.parametrize("cov, t, accuracy, ref", [
        # references: _cov_positive at (m, n_outer) = (38, 64)
        (cov_airy2, 1.0, 1e-8, 0.30326251452740216),
        (cov_airy1, 0.5, 1e-7, 0.08441917402936823),
    ])
    def test_stops_within_accuracy(self, cov, t, accuracy, ref):
        value, est, _ = cov(t, accuracy, full_output=True)
        assert est <= accuracy
        assert abs(value - ref) <= 1e-10

    @pytest.mark.parametrize("process, t", [("airy2", 0.0), ("airy2", 1.0),
                                            ("airy1", 0.5)])
    def test_exhausted_ladder_warns(self, process, t, monkeypatch):
        monkeypatch.setattr(rmt, "_COV_LEVELS", COARSE_LEVELS)
        cov = cov_airy2 if process == "airy2" else cov_airy1
        with pytest.warns(RuntimeWarning) as record:
            value, est, levels = cov(t, 1e-12, full_output=True)
        assert est > 1e-12 and levels == 2
        message = str(record[0].message)
        for part in (process, f"t={t:g}", "accuracy=1e-12", f"est={est:.3g}",
                     "(12, 10)"):
            assert part in message
        assert record[0].filename == __file__
