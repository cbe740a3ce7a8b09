"""Distribution values, joint distributions, moments, covariance pieces.

The expensive end-to-end covariance checks live in test_acceptance.py;
here the individual ingredients are pinned at moderate sizes.
"""

import numpy as np
import pytest

from fredet import rmt
from fredet.kernels import Airy1ProcessKernel
from fredet.quadrature import gauss_legendre
from fredet.rmt import (airy1_joint, airy2_joint, cov_airy1, cov_airy2, cov_grid,
                        e2_gap, f2_tw, truncation_bound, tw_moments, _JointTable,
                        _cov_zero, _legendre_cumulative, _marginal)


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
        tab = _JointTable("airy2", 1.0, 30, 10.0, 1e-12)
        assert tab.joint(-1.0, 0.5) == pytest.approx(
            airy2_joint(1.0, -1.0, 0.5, 30).value, abs=1e-13)


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
        tab = _JointTable("airy1", 1.5, 30, 10.0, 1e-12)
        assert tab.joint(-1.0, 0.5) == pytest.approx(
            airy1_joint(1.5, -1.0, 0.5, 30).value, abs=1e-12)


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
        tab = _JointTable(process, 0.8, 20, 10.0)
        tab.prepare(s)
        joint = np.array([tab.row(i, 0, s.size) for i in range(s.size)])
        assert np.max(np.abs(joint - joint.T)) <= 1e-13

    @pytest.mark.parametrize("process,box", [("airy2", rmt.DEFAULT_BOX),
                                             ("airy1", rmt.AIRY1_BOX)])
    def test_mirrored_triangle_equals_full_grid(self, process, box):
        m, n = 12, 10
        kernels = rmt._process_kernels(process, 1.0, 1e-12)
        value = rmt._cov_positive(process, 1.0, m, n, box, 10.0, kernels)
        outer = gauss_legendre(box[0], box[1], n)
        tab = _JointTable(process, 1.0, m, 10.0, kernels=kernels)
        tab.prepare(outer.nodes)
        joint = np.array([tab.row(i, 0, n) for i in range(n)])
        marg = np.array([_marginal(process, s, m) for s in outer.nodes])
        ref = outer.weights @ (joint - np.outer(marg, marg)) @ outer.weights
        assert abs(value - ref) <= 1e-13

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
        rows = [tab.row(i, 0, s.size) for i in range(s.size)]

        def full(kernel, s1, s2, offsets):
            m, c = offsets.size, s2.size
            fwd, bwd = kernel.matrix_pair(s1 + offsets, (s2[:, None] + offsets).ravel())
            return (fwd.reshape(m, c, m).transpose(1, 0, 2),
                    bwd.reshape(m, c, m).transpose(1, 0, 2))

        monkeypatch.setattr(Airy1ProcessKernel, "shifted_pairs", full)
        ref = np.array([tab.row(i, 0, s.size) for i in range(s.size)])
        assert np.max(np.abs(np.array(rows) - ref)) <= rel * np.max(np.abs(ref))

    def test_airy1_grid_symmetric_bit_for_bit(self):
        # the mirrored Airy factor is symmetric bit for bit, and rows take
        # the (s_j, s_i) system below the grid diagonal
        s = np.random.default_rng(3).uniform(-5.0, 3.0, size=9)
        tab = _JointTable("airy1", 0.6, 16, 10.0)
        tab.prepare(s)
        joint = np.array([tab.row(i, 0, s.size) for i in range(s.size)])
        assert np.array_equal(joint, joint.T)

    @pytest.mark.parametrize("process,t", [
        ("airy2", 1.0),   # K_t decay branch, K_{-t} oscillatory branch
        ("airy2", 0.5),   # K_{-t} Laplace-identity branch
        ("airy1", 1.0),
    ])
    def test_row_matches_per_pair_joint(self, process, t):
        s = np.array([-3.0, -1.2, 0.0, 0.7, 2.5])
        tab = _JointTable(process, t, 20, 10.0)
        tab.prepare(s)
        tab.CHUNK = 2  # the row spans three stacked calls
        fn = airy2_joint if process == "airy2" else airy1_joint
        for i in (0, 2):
            row = tab.row(i, i, s.size)
            ref = [fn(t, s[i], s2, 20).value for s2 in s[i:]]
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


class TestCovarianceTypes:
    @pytest.mark.parametrize("cov", [cov_airy2, cov_airy1])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_plain_floats(self, cov, t, monkeypatch):
        # small levels: only the types are under test here, and levels this
        # coarse miss 1e-8, so each call also warns
        monkeypatch.setattr(rmt, "_COV_LEVELS", ((10, 8), (12, 10)))
        with pytest.warns(RuntimeWarning, match="missed accuracy"):
            assert type(cov(t)) is float
        with pytest.warns(RuntimeWarning, match="missed accuracy"):
            value, est, levels = cov(t, full_output=True)
        assert type(value) is float and type(est) is float and levels == 2


class TestCovarianceLadder:
    def test_levels_increase_to_finest(self):
        levels = rmt._COV_LEVELS
        assert all(m2 > m1 and n2 > n1
                   for (m1, n1), (m2, n2) in zip(levels, levels[1:]))
        assert levels[-1] == (48, 88)

    @pytest.mark.parametrize("cov, t, accuracy, ref", [
        # references: _cov_positive at (m, n_outer) = (38, 64)
        (cov_airy2, 1.0, 1e-8, 0.30326251452740216),
        (cov_airy1, 0.5, 1e-7, 0.08441917402936823),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stops_within_accuracy(self, cov, t, accuracy, ref):
        value, est, _ = cov(t, accuracy, full_output=True)
        assert est <= accuracy
        assert abs(value - ref) <= 1e-10

    @pytest.mark.parametrize("process, t", [("airy2", 0.0), ("airy2", 1.0),
                                            ("airy1", 0.5)])
    def test_exhausted_ladder_warns(self, process, t, monkeypatch):
        monkeypatch.setattr(rmt, "_COV_LEVELS", ((10, 8), (12, 10)))
        cov = cov_airy2 if process == "airy2" else cov_airy1
        with pytest.warns(RuntimeWarning) as record:
            value, est, levels = cov(t, 1e-12, full_output=True)
        assert est > 1e-12 and levels == 2
        message = str(record[0].message)
        for part in (process, f"t={t:g}", "accuracy=1e-12", f"est={est:.3g}",
                     "(12, 10)"):
            assert part in message
        assert record[0].filename == __file__
