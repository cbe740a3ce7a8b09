"""Distribution values, joint distributions, moments, covariance pieces.

The expensive end-to-end covariance checks live in test_acceptance.py;
here the individual ingredients are pinned at moderate sizes.
"""

import numpy as np
import pytest

from fredet import rmt
from fredet.kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                            Kernel, TransformedKernel)
from fredet.nystrom import BlockSystem, fredholm_det_system
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
        k0, kt, kmt = AiryKernel(), Airy2ProcessKernel(t), Airy2ProcessKernel(-t)
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
