"""Distribution values, joint distributions, moments, covariance pieces.

The expensive end-to-end covariance checks live in test_acceptance.py;
here the individual ingredients are pinned at moderate sizes.
"""

import inspect
import io
import math
import time
import warnings
from functools import partial
from contextlib import redirect_stderr

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredet import kernels as kernels_module
from fredet import rmt
from fredet.kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                            Kernel, KernelEvaluationError, SineKernel, TransformedKernel)
from fredet.linalg import UNIT_ROUNDOFF
from fredet.cli import main
from fredet.nystrom import (BlockSystem, NystromProblem, _balance_blocks, _det_result,
                            fredholm_det, fredholm_det_system, nystrom_matrix)
from fredet.quadrature import QuadRule, gauss_legendre
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


def block_system_joint(process, t, s1, s2, m, scale=10.0, kernels=None):
    """P(A(t) <= s1, A(0) <= s2) as a fresh BlockSystem determinant,
    assembled kernel by kernel, with the off-diagonal ``kernels`` (K_t,
    K_{-t}) or else its own: the reference for the joint table."""
    if kernels is None and process == "airy2":
        x_min = min(s1, s2)
        kernels = Airy2ProcessKernel(t, x_min=x_min), Airy2ProcessKernel(-t, x_min=x_min)
    elif kernels is None:
        kernels = Airy1ProcessKernel(t), Airy1ProcessKernel(-t)
    k0 = AiryKernel() if process == "airy2" else Airy1ProcessKernel(0.0)
    kt, kmt = kernels
    rule = gauss_legendre(0.0, 1.0, m)
    kernels = ((TransformedKernel(k0, s1, scale=scale), ShiftedPairKernel(kt, s1, s2, scale)),
               (ShiftedPairKernel(kmt, s2, s1, scale), TransformedKernel(k0, s2, scale=scale)))
    system = BlockSystem(intervals=((0.0, 1.0), (0.0, 1.0)), kernels=kernels,
                         rules=(rule, rule))
    return fredholm_det_system(system, -1.0)


def triangle_level(process, s, m):
    """A level at map scale 10 on the ascending thresholds ``s`` with the
    pairs (i, j), i <= j, of all of them, as a covariance rung has them for
    the thresholds it keeps."""
    return rmt._Level(process, s, m, 10.0, [(i, j) for i in range(len(s))
                                             for j in range(i, len(s))])


def table(process, t, m, s, x_min=rmt.DEFAULT_BOX[0]):
    """A joint table on the ascending grid ``s`` (``triangle_level``), with
    the kernels for thresholds >= ``x_min``."""
    return _JointTable(t, rmt._process_kernels(process, t, x_min),
                       triangle_level(process, s, m))


def pair_table(process, t, s1, s2, m):
    """The table of the single joint (s1, s2), built as ``_joint_point``
    builds it."""
    return _JointTable(t, rmt._process_kernels(process, t, min(s1, s2)),
                       rmt._Level(process, sorted((s1, s2)), m, 10.0, [(0, 1)]))


def process_kernels(process, t, x_min=rmt.DEFAULT_BOX[0]):
    """The kernels K_t and K_{-t} themselves, built as ``rmt._airy2_kernels``
    builds the Airy(2) pair before it factors them, or the closed-form
    Airy(1) pair: for references that assemble each kernel's ``matrix``."""
    if process == "airy2":
        return Airy2ProcessKernel(t, x_min=x_min), Airy2ProcessKernel(-t, x_min=x_min)
    return Airy1ProcessKernel(t), Airy1ProcessKernel(-t)


def recording_airy2(monkeypatch):
    """The list of Airy(2) process kernels ``rmt`` builds from now on, in
    the order built."""
    built = []

    class Recording(Airy2ProcessKernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(rmt, "Airy2ProcessKernel", Recording)
    return built


def two_sided_grid(tab, kernels):
    """The joints of the table's grid: the rows j >= i from the table, and
    each pair (s_i, s_j), i > j, below the diagonal on its own, in its own
    order, as the BlockSystem determinant with the table's ``kernels``
    (``process_kernels``; the table mirrors these pairs by time reversal)."""
    level = tab.level
    joint = np.triu(tab.grid())
    for i in range(level.s.size):
        for j in range(i):
            joint[i, j] = block_system_joint(level.process, tab.t, level.s[i], level.s[j],
                                             level.m, kernels=kernels).value
    return joint


def least_norm(a11, a22, a12, a21):
    """min over c > 0 of ||[[A_11, c A_12], [A_21 / c, A_22]]||_F, in
    closed form: (||A_11||^2 + ||A_22||^2 + 2 ||A_12|| ||A_21||)^(1/2)."""
    n11, n22, n12, n21 = (np.linalg.norm(b) for b in (a11, a22, a12, a21))
    return math.sqrt(n11 ** 2 + n22 ** 2 + 2.0 * n12 * n21)


def closed_form_bound(process, t, s1, s2, m):
    """The roundoff bound sqrt(2m) N 8u of the single joint (s1, s2), t > 0,
    N its ``least_norm``: the off-diagonal blocks of a table that took that
    joint, the diagonal ones A_0 on the table's head, built here."""
    tab = pair_table(process, t, s1, s2, m)
    k0 = AiryKernel() if process == "airy2" else Airy1ProcessKernel(0.0)
    a0 = [tab.level.rr * k0.matrix(x, x) for x in tab.level.x]
    norm = least_norm(*a0, *tab._blocks(tab.level.rows[0]))
    return math.sqrt(2 * m) * norm * 8 * UNIT_ROUNDOFF


def scan_least_norm(a11, a22, a12, a21):
    """``least_norm`` by a scan of log2 c over [-150, 150], refined on a
    finer scan around the best point: the excess over the minimum falls as
    the square of the step."""
    d2, p, q = (float(np.sum(b * b)) for b in (np.stack([a11, a22]), a12, a21))

    def scan(lo, hi):
        e = np.linspace(lo, hi, 1 << 16)
        f = d2 + 4.0 ** e * p + q / 4.0 ** e
        return e[np.argmin(f)], float(np.min(f))

    best, _ = scan(-150.0, 150.0)
    step = 300.0 / (1 << 16)
    return math.sqrt(scan(best - step, best + step)[1])


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       k12=st.integers(-60, 60), k21=st.integers(-60, 60))
def test_least_norm_is_the_minimum_over_scalings(seed, n, k12, k21):
    # the closed form the joints' roundoff bound takes, on random blocks
    # scaled by 2^k12 and 2^k21
    rng = np.random.default_rng(seed)
    a11, a22 = rng.standard_normal((2, n, n))
    a12 = rng.standard_normal((n, n)) * 2.0 ** k12
    a21 = rng.standard_normal((n, n)) * 2.0 ** k21
    least = least_norm(a11, a22, a12, a21)
    assert least == pytest.approx(scan_least_norm(a11, a22, a12, a21), rel=1e-13, abs=0)
    # power-of-two balancing picks one of the scalings
    _balance_blocks([[None, a12], [a21, None]])
    balanced = np.linalg.norm(np.block([[a11, a12], [a21, a22]]))
    assert least <= balanced * (1.0 + 4 * np.finfo(float).eps)


def balanced_systems(tab, row):
    """The full systems I - A of the pairs (s_i, s_j), lo <= j < hi, of a
    row (i, lo, hi, p) of the table's level, stacked (hi - lo, 2h, 2h) on
    the table's head of h nodes: its diagonal and off-diagonal blocks, each
    system balanced by ``_balance_blocks``.  The joint table takes Schur
    complements instead; this is the order-2h reference."""
    eye_minus_a0, (i, lo, hi, _) = tab.level.eye_minus_a0, row
    h = eye_minus_a0.shape[-1]
    a12, a21 = tab._blocks(row)
    for b12, b21 in zip(a12, a21):
        _balance_blocks([[None, b12], [b21, None]])
    systems = np.empty((hi - lo, 2 * h, 2 * h))
    systems[:, :h, :h] = eye_minus_a0[i]
    systems[:, :h, h:] = -a12
    systems[:, h:, :h] = -a21
    systems[:, h:, h:] = eye_minus_a0[lo:hi]
    return systems


class TestE2:
    def test_empty_interval(self):
        p = e2_gap(0.0, 10)
        assert p.value == 1.0 and not p.suspect

    def test_reference_value(self):
        assert e2_gap(0.1, 5).value == pytest.approx(0.900027271798259, abs=5e-15)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            e2_gap(-0.5, 5)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ValueError, match="s must be finite"):
            e2_gap(s, 5)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("m", [-5, 0, 2.5])
    def test_bad_m_rejected(self, s, m):
        # the empty interval s = 0 returns 1 without a rule, but a rule
        # size that no rule accepts is a usage error there too
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            e2_gap(s, m)

    def test_monotone_decreasing_in_range(self):
        vals = [e2_gap(s, 40).value for s in np.linspace(0.0, 2.5, 11)]
        assert all(0.0 <= v <= 1.0 + 1e-10 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", [0.05, 1.0, 2.5, 5.0, 12.0])
    @pytest.mark.parametrize("m", [5, 20, 50])
    def test_bits_of_the_rule_route(self, s, m):
        # the oracle: a validated gauss_legendre rule through fredholm_det;
        # at s = 12 and m <= 20 Cholesky falls back, and both flag it
        res = fredholm_det(NystromProblem(SineKernel(), (0.0, s), -1.0, gauss_legendre(0.0, s, m)))
        assert e2_gap(s, m) == rmt._det_point(s, res)

    def test_no_rule_per_call(self, monkeypatch):
        # the unit rule is cached per m: a new s builds and validates no rule
        e2_gap(1.0, 37)
        built = []
        monkeypatch.setattr(rmt, "gauss_legendre",
                            lambda *args: built.append(args) or gauss_legendre(*args))
        monkeypatch.setattr(QuadRule, "__post_init__", lambda rule: built.append(rule))
        monkeypatch.setattr(rmt, "fredholm_det", lambda *args: built.append(args))
        for s in (0.3, 2.0, 7.5):
            assert 0.0 < e2_gap(s, 37).value < 1.0
        assert not built

    @pytest.mark.parametrize("s", [5e-324, 1e-310, 1e-300])
    def test_subnormal_s_is_one(self, s):
        # the weights round to 0 or their squares underflow: E2 is 1, not a
        # usage error from a rule's self-check
        p = e2_gap(s, 50)
        assert (p.value, p.est_error, p.suspect, p.m) == (1.0, 0.0, False, 50)

    def test_overflowing_norm_raises_without_warning(self):
        # ||A_Q||_F overflows at s = 1e200: a numerical failure, before the
        # roundoff bound could name the inf norm a usage error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="Frobenius norm is not finite"):
                e2_gap(1e200, 5)


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

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("route", ["transform", "truncate"])
    def test_non_finite_s_rejected(self, s, route):
        # named before any rule or kernel sees it
        with pytest.raises(ValueError, match="s must be finite"):
            f2_tw(s, 20, route=route, T=None if route == "transform" else 12.0)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_truncation_point_must_be_finite(self, T):
        with pytest.raises(ValueError, match="need T > s with T finite"):
            f2_tw(-2.0, 20, route="truncate", T=T)

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
        # the tan map needs no truncation point, the finite interval no
        # map scale: each is a usage error on the other route
        with pytest.raises(ValueError, match="route='truncate'"):
            f2_tw(-2.0, 30, T=3.0)
        with pytest.raises(ValueError, match="route='transform'"):
            f2_tw(-2.0, 60, route="truncate", T=12.0, scale=1e4)

    def test_geometric_convergence_regime(self):
        # successive-m differences shrink at least 2x per +5 in m until
        # they near the roundoff floor
        vals = {m: f2_tw(-2.0, m).value for m in range(10, 46, 5)}
        diffs = [abs(vals[m + 5] - vals[m]) for m in range(10, 41, 5)]
        for d0, d1 in zip(diffs, diffs[1:]):
            if d0 < 1e-13:
                break
            assert d1 <= d0 / 2.0


@pytest.mark.parametrize("name,rel", [
    # relative gaps measured 1.77e-2 and 1.85e-3
    ("f2", 3.5e-2),
    ("e2", 3.7e-3),
])
def test_deep_tail_matches_extended_precision_determinant(name, rel):
    # the same float matrix, its determinant at -log10(value) + 20 digits,
    # which separates roundoff from discretization.  F2(-12) at m = 100
    # reads 6.17e-63 against 6.28e-63 for its matrix, while the left-tail
    # expansion gives 1.85e-63; E2(0; 12) at m = 50 reads 1.732e-78 against
    # 1.736e-78, while the expansion gives 2.17e-78 and m = 80 1.98e-78
    if name == "f2":
        point = f2_tw(-12.0, 100)
        matrix = rmt._eye_minus_a0("airy2", [-12.0], *rmt._tan_map(100, 10.0))[0][0]
    else:
        point = e2_gap(12.0, 50)
        matrix = np.eye(50) - nystrom_matrix(SineKernel(), gauss_legendre(0.0, 12.0, 50))
    with mpmath.workdps(int(-math.log10(point.value)) + 20):
        exact = float(mpmath.det(mpmath.matrix(matrix.tolist())))
    assert not point.suspect
    assert abs(point.value - exact) <= point.est_error
    assert abs(point.value - exact) <= rel * exact


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_bad_scale_rejected(scale):
    # the entry points that take a map scale, f2_tw and f2 --scale, name a
    # bad one instead of returning a value (scale 0 made every marginal 1)
    # or failing further down
    with pytest.raises(ValueError, match="scale"):
        f2_tw(-2.0, 30, scale=scale)
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["f2", "--s-min", "-2", "--s-max", "-2", "--step", "1",
                     f"--scale={scale}"])
    assert code == 2 and "scale" in err.getvalue()


def test_map_scale_has_one_owner():
    # the joints and covariances take no map scale: every matrix but
    # f2_tw(scale=)'s is on the tan map at _MAP_SCALE, f2_tw's default
    for fn in (airy2_joint, airy1_joint, cov_airy2, cov_airy1):
        assert "scale" not in inspect.signature(fn).parameters, fn.__name__
    for s in (-3.0, -1.0, 2.0):
        assert f2_tw(s, 30) == f2_tw(s, 30, scale=rmt._MAP_SCALE)


@pytest.mark.parametrize("call", [
    partial(f2_tw, -1e206, 20),
    partial(airy2_joint, 0.0, -1e206, 0.0, 20),
    partial(airy1_joint, 0.0, 0.0, -1e206, 20),
    partial(airy2_joint, 1.0, -1e206, 0.0, 20),
], ids=["f2", "airy2-t0", "airy1-t0", "airy2-t1"])
def test_nan_airy_values_raise(call):
    # Ai is NaN below -1e205: I - A_0 and the Airy(2) kernel's inner-rule
    # probes raise, as the generic path's kernel check does, not a
    # ValueError from the determinant or after a doubling to the cap
    with pytest.raises(KernelEvaluationError, match="non-finite"):
        call()


@pytest.mark.parametrize("accuracy", [0.0, -1e-8, math.nan, math.inf])
def test_bad_accuracy_rejected(accuracy, monkeypatch):
    # a usage error before any level runs, not every level followed by a
    # "missed accuracy" warning (nan and 0 can never be met)
    def no_level(*args):
        raise AssertionError("a refinement level ran")

    monkeypatch.setattr(rmt, "_cov_zero", no_level)
    monkeypatch.setattr(rmt, "_cov_positive", no_level)
    calls = [lambda: cov_airy2(0.0, accuracy=accuracy),
             lambda: cov_airy2(1.0, accuracy=accuracy),
             lambda: cov_airy1(0.5, accuracy=accuracy),
             lambda: cov_grid("airy2", [0.0, 1.0], accuracy=accuracy)]
    for call in calls:
        with pytest.raises(ValueError, match="accuracy must be finite and > 0"):
            call()
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["cov", "--process", "airy2", "--t-min", "0", "--t-max", "0",
                     "--step", "1", f"--accuracy={accuracy}"])
    assert code == 2 and "accuracy" in err.getvalue()


class TestMarginalStack:
    def test_stack_equals_single_thresholds_bitwise(self):
        # one stacked Cholesky fails on the -9.5 block; each block is then
        # factored alone, and only that one falls back to LU
        svals = [-9.5, -2.0, 1.0]
        blocks, norms, points = rmt._marginal_points("airy2", svals, 30, 10.0)
        assert points == [rmt._marginal_points("airy2", [s], 30, 10.0)[2][0] for s in svals]
        assert [r.method for r in _det_result(blocks, norms, hermitian=True, m=30)] == [
            "cholesky->lu", "cholesky", "cholesky"]
        assert [p.suspect for p in points] == [True, False, False]


class TestUnitRuleCache:
    def test_rule_and_tan_map_built_once(self, monkeypatch):
        # the (0, 1) rule and the tan map depend on (m, scale) only, so
        # further thresholds build and validate no rule
        m = 37
        f2_tw(-2.0, m)
        truncation_bound(-2.0, 2.0)
        offsets, rr = rmt._tan_map(m, 10.0)
        built = []
        monkeypatch.setattr(rmt, "gauss_legendre",
                            lambda *args: built.append(args) or gauss_legendre(*args))
        for s in (-3.0, 0.5):
            f2_tw(s, m)
            truncation_bound(s, s + 4.0)
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
        # s is not used past the check, so a NaN s once returned 5.3e-10
        with pytest.raises(ValueError, match="s must be finite"):
            truncation_bound(math.nan, 5.0)
        for T in (math.nan, 2.0, math.inf):
            with pytest.raises(ValueError, match="need T > s"):
                truncation_bound(2.0, T)
        # the rule size is a constant
        with pytest.raises(TypeError):
            truncation_bound(-8.0, 16.0, m=60)

    def test_tan_mapped_frobenius_norm(self):
        # ||A||_F of the tan-mapped Airy matrix on (T, inf), the sum
        # w_i w_j K~(xi_i, xi_j)^2 over the 80-point rule on (0, 1)
        rule = gauss_legendre(0.0, 1.0, 80)
        w = rule.weights
        for T in (-4.0, 2.0, 8.0):
            km = TransformedKernel(AiryKernel(), T).matrix(rule.nodes, rule.nodes)
            ref = math.sqrt(w @ (km * km) @ w)
            assert truncation_bound(-10.0, T) == pytest.approx(ref, rel=4e-16, abs=0)


@pytest.fixture(scope="module")
def oscillatory_kernels():
    """Airy(2)'s K_t and K_{-t} at x_min = -10, ``_RULE_TOL`` 1e-13, with K_{-t}
    in its oscillatory form at every t (``_LAPLACE_SWITCH`` 0), built once
    per t: 7,680 inner nodes at t = 0.1, 480 at t = 0.7."""
    cache = {}

    def get(t):
        if t not in cache:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Airy2ProcessKernel, "_LAPLACE_SWITCH", 0.0)
                patch.setattr(Airy2ProcessKernel, "_RULE_TOL", 1e-13)
                cache[t] = Airy2ProcessKernel(t), Airy2ProcessKernel(-t)
            assert cache[t][1]._mode == "oscillatory"
        return cache[t]
    return get


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
        assert p.est_error == pytest.approx(
            closed_form_bound("airy2", 1.0, -1.0, 0.5, 30), rel=1e-14, abs=0)
        # the least norm over scalings is at most the balanced one
        assert p.est_error <= ref.roundoff_bound

    def test_thresholds_below_minus_ten(self):
        # the inner rules follow the lowest threshold; the table path
        # against the system path, which builds its own kernels
        p = airy2_joint(0.3, -18.0, -16.0, 30)
        ref = block_system_joint("airy2", 0.3, -18.0, -16.0, 30)
        assert p.value == pytest.approx(ref.value, abs=1e-13)
        assert p.est_error == pytest.approx(
            closed_form_bound("airy2", 0.3, -18.0, -16.0, 30), rel=1e-14, abs=0)
        assert p.est_error <= ref.roundoff_bound
        with pytest.raises(ValueError, match="x_min"):
            table("airy2", 0.3, 30, [-16.0])

    @pytest.mark.parametrize("m", [20, 48])
    @pytest.mark.parametrize("t", [0.1, 0.25, 0.5, 0.7, 0.74])
    def test_laplace_branch_matches_oscillatory_form(self, t, m, oscillatory_kernels):
        # the Laplace-branch K_{-t} (a factor of P_t less its Gaussian)
        # against the BlockSystem with K_{-t} in its defining oscillatory
        # form, exact in exact arithmetic, within both error bounds and
        # 8u |value|: at most 0.83 of that (t = 0.7, m = 20, (-1, -1))
        kernels = oscillatory_kernels(t)
        for s1, s2 in ((-1.0, -1.0), (-3.0, 0.5), (-5.0, -2.0), (0.0, 2.0), (-7.0, 1.0)):
            p = airy2_joint(t, s1, s2, m)
            ref = block_system_joint("airy2", t, s1, s2, m, kernels=kernels)
            assert abs(p.value - ref.value) <= (p.est_error + ref.roundoff_bound
                                                + 8 * UNIT_ROUNDOFF * abs(ref.value))

    @pytest.mark.xfail(strict=True, reason=(
        "t = 1e-4 is not resolved at m = 30 and 60: the joint reads 0.78391 and "
        "0.78129, apart by 2e11 times their error bounds, inside the Frechet "
        "window and unflagged"))
    def test_tiny_t_converges_or_is_flagged(self):
        # at t -> 0 the joint tends to F2(min(s1, s2)) = F2(-1) = 0.8072142
        # (t = 0.01 gives 0.807213 at m = 60); each value must agree with the
        # other rule size within both error bounds, or say that it does not
        a, b = (airy2_joint(1e-4, -1.0, 0.0, m) for m in (30, 60))
        for p, q in ((a, b), (b, a)):
            assert p.suspect or abs(p.value - q.value) <= (
                p.est_error + q.est_error + 8 * UNIT_ROUNDOFF * abs(q.value))

    @pytest.mark.xfail(strict=True, reason=(
        "which verified rule samples P_t moves the joint by more than its error: "
        "airy2_joint(0.74, -1, -1, 20) reads 0.6949825186682411 on the kept 75-node "
        "rule and ...2443 on the verified 120-node one, against the oscillatory "
        "form's ...237, with est_error 2.45e-15"))
    def test_laplace_joint_on_the_verified_rule(self, oscillatory_kernels, monkeypatch,
                                                fresh_caches):
        # the bound of test_laplace_branch_matches_oscillatory_form, with the
        # pair on the n-point rule the doubling verified, which
        # _smallest_verified would shrink; the reference is built first, on
        # its own rules
        t, s = 0.74, -1.0
        ref = block_system_joint("airy2", t, s, s, 20, kernels=oscillatory_kernels(t))
        monkeypatch.setattr(Airy2ProcessKernel, "_smallest_verified",
                            lambda kernel, n, rule, *probes: rule)
        p = airy2_joint(t, s, s, 20)
        assert abs(p.value - ref.value) <= (p.est_error + ref.roundoff_bound
                                            + 8 * UNIT_ROUNDOFF * abs(ref.value))

    def test_t_zero_carries_marginal_fallback(self):
        # at t = 0 the joint is the marginal F2(min(s1, s2)); at s = -9.5
        # and m = 30 its Cholesky fails and LU takes over, as for f2_tw
        p = airy2_joint(0.0, -9.5, 0.0, 30)
        ref = f2_tw(-9.5, 30)
        assert p.suspect and ref.suspect
        assert abs(p.value - ref.value) <= ref.est_error
        # the same marginal determinant, so the same bits
        assert p.est_error == ref.est_error
        clean = airy2_joint(0.0, -2.0, 0.0, 30)
        assert not clean.suspect
        assert clean.est_error == f2_tw(-2.0, 30).est_error


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
        # every value lies in [0, 1], but m = 24 does not resolve s1 = -4:
        # F(-4) reads 6.2e-12 (1.8e-12 at m = 48), and three joints exceed
        # it by more than their roundoff bounds, so the Frechet bound
        # P <= min(F1, F2) flags them.  At t = 0.5, P(-4, -3) reads 2.0e-10
        # and P(-4, 0) 2.1e-10 (2.4e-15 and 1.8e-12 at m = 48); at t = 1.5,
        # P(-4, 0) reads 7.0e-12 (1.5e-12).
        breached = {(0.5, -4.0, -3.0), (0.5, -4.0, 0.0), (1.5, -4.0, 0.0)}
        for t in (0.5, 1.5, 2.5):
            for s1 in (-4.0, -1.0, 2.0):
                for s2 in (-3.0, 0.0):
                    p = airy1_joint(t, s1, s2, 24)
                    assert -1e-10 <= p.value <= 1.0 + 1e-10
                    assert p.suspect == ((t, s1, s2) in breached)

    def test_frechet_breach_is_suspect(self):
        # below the ladder both marginals read about -2e-6 and the joint
        # 0.529, inside [0, 1]: only the Frechet bound P <= min(F1, F2)
        # catches it
        p = airy1_joint(2.5, -5.99, -5.94, 20)
        f1, f2 = rmt._marginal_points("airy1", [-5.99, -5.94], 20, 10.0)[2]
        assert -4e-6 < f1.value < 0.0 and -2e-6 < f2.value < 0.0
        assert 0.5 < p.value < 0.55
        assert p.suspect
        slack = p.est_error + f1.est_error + f2.est_error
        assert p.value > min(f1.value, f2.value) + slack

    def test_table_path_matches_system_path(self):
        p = airy1_joint(1.5, -1.0, 0.5, 30)
        ref = block_system_joint("airy1", 1.5, -1.0, 0.5, 30)
        assert p.value == pytest.approx(ref.value, abs=1e-12)
        assert p.est_error == pytest.approx(
            closed_form_bound("airy1", 1.5, -1.0, 0.5, 30), rel=1e-14, abs=0)
        assert p.est_error <= ref.roundoff_bound

    def test_pivot_block_past_a_cholesky_fallback(self):
        # the marginal at s = -5 falls back from Cholesky to LU and reads
        # -1.1e-18; the Schur complement pivots on the block at s = 2
        low = rmt._marginal_points("airy1", [-5.0], 30, 10.0)[2][0]
        assert low.suspect and -1e-17 < low.value < 0.0
        p = airy1_joint(2.5, -5.0, 2.0, 30)
        ref = block_system_joint("airy1", 2.5, -5.0, 2.0, 30)
        assert p.value == pytest.approx(ref.value, abs=1e-13)
        assert p.est_error == pytest.approx(
            closed_form_bound("airy1", 2.5, -5.0, 2.0, 30), rel=1e-14, abs=0)
        assert p.est_error <= ref.roundoff_bound
        assert not p.suspect

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    @pytest.mark.parametrize("s1,s2", [(-6.0, -3.0), (-1.0, 0.0), (2.0, 5.5)])
    def test_large_t_matches_system_path(self, t, s1, s2):
        # the factors' domain grows with t (x_max = 47-81 at x_min = -6),
        # and K_{-20} has rank 0; against full all-node kernel matrices
        p = airy1_joint(t, s1, s2, 30)
        ref = block_system_joint("airy1", t, s1, s2, 30)
        assert abs(p.value - ref.value) <= (p.est_error + ref.roundoff_bound
                                            + 8 * UNIT_ROUNDOFF * abs(ref.value))

    def test_no_factor_raises(self, monkeypatch, fresh_caches):
        # Airy(1) has no inner rule to fall back on
        monkeypatch.setattr(rmt, "_FACTOR_MAX_NODES", rmt._FACTOR_FIRST_NODES // 2)
        with pytest.raises(ArithmeticError, match="no Chebyshev factor"):
            airy1_joint(1.0, -1.0, 0.0, 20)
        assert rmt._airy1_kernels.cache_info().currsize == 0


@pytest.mark.parametrize("joint", [airy2_joint, airy1_joint])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["s1", "s2"])
def test_joint_rejects_non_finite_threshold(joint, bad, name, fresh_caches):
    # checked before any kernel, factor or cache sees min(s1, s2)
    thresholds = {"s1": -1.0, "s2": 0.0, name: bad}
    for t in (1.0, 0.0):
        with pytest.raises(ValueError, match=f"threshold {name} must be finite"):
            joint(t, thresholds["s1"], thresholds["s2"], 16)
    assert rmt._airy1_kernels.cache_info().currsize == 0
    assert rmt._airy2_kernels.cache_info().currsize == 0


class TestTWMoments:
    def test_values(self):
        mean, var = tw_moments()
        assert mean == pytest.approx(-1.771086807, abs=1e-6)
        assert var == pytest.approx(0.813194793, abs=1e-6)

    def test_matches_bornemann_2010(self):
        # Bornemann's values (2010), to 16 and 13 digits; leaving out the
        # upper tail terms U (1 - F2(U)) and U^2 (1 - F2(U)) moved them by
        # 2.4e-11 and 2.3e-10
        mean, var = tw_moments()
        assert abs(mean - -1.771086807411601) <= 2e-12
        assert abs(var - 0.8131947928329) <= 3e-11

    def test_box_invariance(self, monkeypatch):
        m1, v1 = tw_moments()
        monkeypatch.setattr(rmt, "DEFAULT_BOX", (-12.0, 8.0))
        m2, v2 = tw_moments()
        assert abs(m1 - m2) < 1e-9
        assert abs(v1 - v2) < 1e-9

    def test_narrow_box_rejected(self, monkeypatch):
        # the computed tail F2(-4) = 3.5e-3 fails the check
        monkeypatch.setattr(rmt, "DEFAULT_BOX", (-4.0, 6.0))
        with pytest.raises(ValueError, match="too narrow"):
            tw_moments()

    def test_rule_sizes_and_box_are_not_settings(self):
        for kwargs in ({"m": 60}, {"box": (-12.0, 8.0)}, {"n_outer": 64}):
            with pytest.raises(TypeError):
                tw_moments(**kwargs)


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
        s = np.sort(np.random.default_rng(seed).uniform(-4.0, 2.0, size=7))
        tab = table(process, 0.8, 20, s)
        joint = two_sided_grid(tab, process_kernels(process, 0.8))
        assert np.max(np.abs(joint - joint.T)) <= 1e-13

    @pytest.mark.parametrize("process,box", [("airy2", rmt.DEFAULT_BOX),
                                             ("airy1", rmt.AIRY1_BOX)])
    def test_mirrored_triangle_equals_full_grid(self, process, box):
        # against a grid whose lower triangle is computed on its own; the
        # Airy(1) value at m = 12 is 3.3e5, so the bound is relative
        m, n = 12, 10
        kernels = rmt._process_kernels(process, 1.0, box[0])
        value = rmt._cov_positive(rmt._level(process, m, n, box, 10.0), 1.0, kernels)
        outer = gauss_legendre(box[0], box[1], n)
        tab = _JointTable(1.0, kernels, triangle_level(process, outer.nodes, m))
        joint = two_sided_grid(tab, process_kernels(process, 1.0, box[0]))
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
        # rows from the factors against rows whose blocks come from full
        # m x m kernel matrices of K_t and K_{-t}, relative to the largest
        # joint of the grid (the smallest ones are roundoff-sized); measured
        # at m = 20: 1.0e-14, 7.0e-15 and 5.3e-11
        s = gauss_legendre(*rmt.AIRY1_BOX, 9).nodes
        tab = table("airy1", t, 20, s)
        rows = tab.grid()
        calls = []

        def full(tab, row):
            # [j, p, q] = K_t(x_ip, x_jq), times M_j^-1, and [j, q, p] =
            # K_{-t}(x_jq, x_ip): what the grid reads of a row (``_folded``)
            lv, (i, lo, hi, p) = tab.level, row
            calls.append(i)
            a_ij = lv.rr * Airy1ProcessKernel(t).matrix(lv.x[i], lv.x[lo:hi])
            return (a_ij @ lv.inverses[p:p + hi - lo],
                    lv.rr * Airy1ProcessKernel(-t).matrix(lv.x[lo:hi], lv.x[i]))

        monkeypatch.setattr(_JointTable, "_folded", full)
        ref = tab.grid()
        assert calls == list(range(s.size))
        assert np.max(np.abs(rows - ref)) <= rel * np.max(np.abs(ref))

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_grid_symmetric_bit_for_bit(self, process):
        # only the rows j >= i are computed; the grid mirrors them
        s = np.random.default_rng(3).uniform(-5.0, 3.0, size=9)
        s.sort()
        tab = table(process, 0.6, 16, s)
        joint = tab.grid()
        assert np.array_equal(joint, joint.T)

    @pytest.mark.parametrize("process,t,level", [
        pytest.param("airy2", 1.0, None, id="airy2-1.0"),  # K_t decay, K_{-t} oscillatory
        pytest.param("airy2", 0.5, None, id="airy2-0.5"),  # K_{-t} Laplace identity
        # a negative t: the table at |t| against the system at t, whose K_t
        # takes the Laplace identity (the joint is even in t)
        pytest.param("airy2", -0.5, None, id="airy2--0.5"),
        pytest.param("airy1", 1.0, None, id="airy1-1.0"),
        pytest.param("airy1", -1.0, None, id="airy1--1.0"),
        # full, undropped outer grids of ladder levels, every row; at
        # t = 0.5 the Laplace-branch K_{-t} brings its Gaussian term
        pytest.param("airy2", 1.0, 1, id="airy2-1.0-level1"),
        pytest.param("airy2", 0.5, 0, id="airy2-0.5-level0"),
        pytest.param("airy1", 0.5, 0, id="airy1-0.5-level0"),
    ])
    def test_row_matches_per_pair_joint(self, process, t, level, cov_kernels, monkeypatch):
        # rows against the per-pair system path, or on a level's grid
        # against the balanced systems of order 2h, each by LU
        if level is None:
            s, m = np.array([-3.0, -1.2, 0.0, 0.7, 2.5]), 20
            kernels = rmt._process_kernels(process, abs(t), rmt.DEFAULT_BOX[0])
        else:
            m, n = rmt._COV_LEVELS[process][level]
            box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
            s, kernels = gauss_legendre(*box, n).nodes, cov_kernels(process, t)
        tab = _JointTable(abs(t), kernels, triangle_level(process, s, m))
        # two pairs an LU call: a row spans several calls, and a call two rows
        monkeypatch.setattr(rmt, "_SCHUR_CHUNK", 3 * tab.level.offsets.size ** 2 - 1)
        grid = tab.grid()
        for i in ((0, 2) if level is None else range(s.size)):
            row = grid[i, i:]
            if level is None:
                ref = [block_system_joint(process, t, s[i], s2, m).value for s2 in s[i:]]
            else:
                ref = rmt.det_lu(balanced_systems(tab, tab.level.rows[i]))
            assert np.max(np.abs(row - ref)) <= 1e-13

    @pytest.mark.parametrize("process,rung", [
        *((("airy2", k) for k in range(len(rmt._COV_LEVELS["airy2"])))),
        *((("airy1", k) for k in range(len(rmt._COV_LEVELS["airy1"])))),
        # bands whose rows share pivots, one of them from a pivot past the
        # row's own first column (p != lo)
        ("airy2", "band"), ("airy1", "band"), ("airy2", "offset-band"),
    ])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    def test_folded_rows_equal_explicit_blocks(self, process, rung, t, cov_kernels):
        # the grid's A_ij M_j^-1, one product with the pivots' folded K_t
        # factor less the heat term's (Airy(1)), against det(M_j) det(M_i -
        # (A_ij M_j^-1) A_ji) from the explicit blocks: at t = 0.5 Airy(2)'s
        # K_{-t} is the Laplace branch, at 1 and 2.5 oscillatory
        box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
        if rung == "band":
            level = rmt._Level(process, [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5], 20, 10.0,
                               [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (3, 5)])
        elif rung == "offset-band":
            level = rmt._Level(process, [-3.0, -2.0, -1.0, 0.0, 1.0], 20, 10.0,
                               [(0, 2), (0, 3), (1, 3), (1, 4)])
        else:
            level = rmt._level(process, *rmt._COV_LEVELS[process][rung], box, 10.0)
        tab = _JointTable(t, cov_kernels(process, t), level)
        assert (tab.kt.gaussian_part is not None) == (process == "airy1")
        assert (tab.kmt.gaussian_part is not None) == (process == "airy2" and t < 0.75)
        if rung == "offset-band":
            assert level.rows == ((0, 2, 4, 0), (1, 3, 5, 1))
        grid, (i, j) = tab.grid(), level.pairs.T
        ref = []
        for i_, lo, hi, p in level.rows:
            a_ij, a_ji = tab._blocks((i_, lo, hi, p))
            schur = level.eye_minus_a0[i_] - (a_ij @ level.inverses[p:p + hi - lo]) @ a_ji
            ref.extend(tab._det[lo:hi] * rmt.det_lu(schur))
        assert np.max(np.abs(grid[i, j] - ref)) <= 1e-13

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    @pytest.mark.parametrize("k", [-40, 7, 40])
    def test_rows_need_no_balancing(self, process, k, monkeypatch):
        # the Schur complement is invariant under the exact similarity
        # A_ij -> 2^k A_ij, A_ji -> 2^-k A_ji, which balancing applies: on
        # the grid's rows (A_ij M_j^-1, A_ji), every row scaled
        s = gauss_legendre(*rmt.DEFAULT_BOX, 11).nodes
        tab = table(process, 0.7, 16, s)
        rows = tab.grid()
        folded, calls = tab._folded, []

        def scaled(row):
            calls.append(row)
            fold, a21 = folded(row)
            return fold * 2.0 ** k, a21 * 2.0 ** -k

        monkeypatch.setattr(tab, "_folded", scaled)
        assert np.array_equal(tab.grid(), rows)
        assert calls == list(tab.level.rows)

    @pytest.mark.parametrize("process,t,s1,s2,m", [
        ("airy2", 1.0, -1.0, 0.5, 16),
        ("airy2", 0.3, -18.0, -16.0, 16),
        ("airy1", 2.5, -5.0, 2.0, 16),
        # below the Airy(1) ladder both marginals read about -2e-6 and the
        # blocks are near singular: pivoting on the smaller threshold
        # errs by 14 times the bound on the first pair
        ("airy1", 2.5, -5.99, -5.94, 20),
        ("airy1", 2.5, -5.94, -5.99, 20),
    ])
    def test_joint_matches_extended_precision_determinant(self, process, t, s1, s2, m):
        # the same Nystrom matrix oracle: the balanced float system of
        # order 2m, its determinant in 50-digit arithmetic
        tab = pair_table(process, t, s1, s2, m)
        p = tab.joint()
        system = balanced_systems(tab, tab.level.rows[0])[0]
        with mpmath.workdps(50):
            exact = float(mpmath.det(mpmath.matrix(system.tolist())))
        assert abs(p.value - exact) <= p.est_error + 8 * np.finfo(float).eps * abs(p.value)

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_batched_blocks_equal_per_threshold(self, process, monkeypatch):
        # stacked kernel-matrix calls for I - A_0 and the grid's
        # interpolation matrices give the bits of the per-threshold
        # evaluations.  At t = 0.7 both kernels of either process are
        # factored: for Airy(2), K_t and the Laplace branch's P_t, on one
        # interpolation matrix
        m = 16
        s = gauss_legendre(*rmt.DEFAULT_BOX, 11).nodes
        kernels = rmt._process_kernels(process, 0.7, rmt.DEFAULT_BOX[0])
        # 2 of the 11 thresholds a matrix call, 5 of the 121 nodes an
        # interpolation call of a factor (128 points), the last call of each
        # ragged
        monkeypatch.setattr(rmt, "_EVAL_CHUNK", 700)
        level = triangle_level(process, s, m)
        tab = _JointTable(0.7, kernels, level)
        k0 = AiryKernel() if process == "airy2" else Airy1ProcessKernel(0.0)
        offsets, rr = rmt._tan_map(m, 10.0)
        # the head of the grid: every node for Airy(1)
        h = rmt._head(process, s, offsets)
        assert (h < m) == (process == "airy2")
        offsets, rr = offsets[:h], rr[:h, :h]
        r = np.sqrt(np.diag(rr))[:, None]
        # Airy(2) on the head cut, Airy(1) on a domain past it
        factors = [tab.kt, tab.kmt]
        assert all(isinstance(f, rmt._ChebyshevFactor) for f in factors)
        assert (tab.kmt.gaussian_part is not None) == (process == "airy2")
        # the grid's interpolation rows, put back per threshold
        rows = []
        for factor in factors:
            key = factor.x_min, factor.x_max, factor.points
            inside = level.x.ravel() <= factor.x_max
            assert 700 // factor.points < np.sum(inside)
            rows.append(np.zeros((s.size * h, factor.points)))
            rows[-1][inside] = level._interpolations[key]
            rows[-1] = rows[-1].reshape(s.size, h, -1)
        for k, sk in enumerate(s):
            x = sk + offsets
            assert np.array_equal(level.eye_minus_a0[k], np.eye(h) - rr * k0.matrix(x, x))
            for factor, u, f_rows in zip(factors, tab._u, rows):
                # the interpolation weights are per-point bits; the product
                # with the eigenvectors rounds with the BLAS blocking, and the
                # row scaling of Airy(1)'s K_{-t} multiplies that
                head = x <= factor.x_max
                key = factor.x_min, factor.x_max, factor.points
                assert np.array_equal(f_rows[k, head], rmt._interpolation(x, *key))
                scale = np.exp(factor.rate * x[head] + factor.rate ** 3 / 3.0).max(initial=1.0)
                assert np.max(np.abs(u[k] - r * factor.basis(x))) <= \
                    8 * UNIT_ROUNDOFF * np.max(r) * np.max(np.abs(factor._vectors)) * scale

    @pytest.mark.parametrize("process,level", [("airy2", 1), ("airy1", 0)])
    @pytest.mark.parametrize("chunk", [None, 100])
    def test_grid_lu_calls_are_bounded(self, process, level, chunk, cov_kernels,
                                       monkeypatch):
        # the Schur complements of all rows share one stack, and each LU
        # call takes at most _SCHUR_CHUNK entries of it (default), or one
        # pair where a pair alone has more (chunk = 100 < h^2); every call
        # but the last is full, so the count is O(entries / _SCHUR_CHUNK)
        m, n = rmt._COV_LEVELS[process][level]
        box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
        tab = _JointTable(1.0, cov_kernels(process, 1.0),
                          triangle_level(process, gauss_legendre(*box, n).nodes, m))
        if chunk is not None:
            monkeypatch.setattr(rmt, "_SCHUR_CHUNK", chunk)
        stacks = []
        det_lu = rmt.det_lu

        def counting(a):
            stacks.append(a.shape)
            return det_lu(a)

        monkeypatch.setattr(rmt, "det_lu", counting)
        tab.grid()
        h = tab.level.offsets.size
        pairs, per_call = n * (n + 1) // 2, max(1, rmt._SCHUR_CHUNK // (h * h))
        assert (per_call == 1) == (chunk is not None)
        assert all(shape[1:] == (h, h) for shape in stacks)
        assert sum(shape[0] for shape in stacks) == pairs
        assert all(shape[0] == per_call for shape in stacks[:-1])
        assert len(stacks) == -(-pairs // per_call)
        if chunk is None:
            assert 1 < len(stacks) <= 2 * pairs * h * h / rmt._SCHUR_CHUNK + 1

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_grid_and_joint_share_the_row_routine(self, process, monkeypatch):
        # a covariance level and a single joint, each one call of _dets on
        # the rows of its level's pairs: the triangle of the kept
        # thresholds, and the one pair (0, 1), whose blocks the joint
        # passes in
        calls = []
        dets = _JointTable._dets

        def counting(tab, blocks):
            calls.append((tab.level.pairs.tolist(), tab.level.rows))
            return dets(tab, blocks)

        monkeypatch.setattr(_JointTable, "_dets", counting)
        m, n = 16, 9
        box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
        kernels = rmt._process_kernels(process, 0.7, box[0])
        level = rmt._level(process, m, n, box, 10.0)
        rmt._cov_positive(level, 0.7, kernels)
        k = int(np.sum(level.keep))
        assert k > 1
        assert calls == [([[i, j] for i in range(k) for j in range(i, k)],
                          tuple((i, i, k, i) for i in range(k)))]
        calls.clear()
        point = rmt._joint_point(process, -0.7, 0.5, -1.0, m)
        assert calls == [([[0, 1]], ((0, 1, 2, 0),))] and point.parameter == -0.7

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_joint_inverts_only_the_pivot_block(self, process, monkeypatch):
        # the pair level is ordered, and the Schur complement pivots on the
        # larger threshold: one inversion, of that block, and one inverse
        # held; the other block is never inverted
        levels, inverted = [], []
        inv = np.linalg.inv

        class Recording(rmt._Level):
            def __init__(self, *args):
                super().__init__(*args)
                levels.append(self)

        def counting(a):
            inverted.append(np.array(a))
            return inv(a)

        monkeypatch.setattr(rmt, "_Level", Recording)
        monkeypatch.setattr(np.linalg, "inv", counting)
        for s1, s2 in ((-1.0, 0.5), (0.5, -1.0)):
            inverted.clear()
            rmt._joint_point(process, 0.7, s1, s2, 16)
            level = levels[-1]
            assert level.s.tolist() == [-1.0, 0.5] and level.keep.all()
            assert level.rows == ((0, 1, 2, 0),)
            assert len(inverted) == 1
            assert np.array_equal(inverted[0], level.eye_minus_a0[1:])
            assert level.inverses.shape == (1, *level.eye_minus_a0.shape[1:])
            assert np.array_equal(level.inverses[0], np.linalg.inv(level.eye_minus_a0[1]))

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_grid_of_a_pair_level_holds_only_its_pair(self, process):
        # a single joint's level inverts its pivot only, and its grid takes
        # its one pair only, so no pair reads a block that was never
        # inverted: the joint, mirrored, and NaN on the diagonal
        tab = pair_table(process, 0.7, -1.0, 0.5, 16)
        value = tab.joint().value
        assert "_umt_t" not in vars(tab)  # only grid's _folded reads it
        grid = tab.grid()
        assert len(tab.level.inverses) == 1
        assert all(p + hi - lo <= 1 for _, lo, hi, p in tab.level.rows)
        assert grid[0, 1] == grid[1, 0] == value and np.isnan(np.diag(grid)).all()

    @pytest.mark.parametrize("process,t", [("airy2", 1.0), ("airy2", 0.5), ("airy1", 1.5)])
    def test_band_level_equals_triangle_level_bitwise(self, process, t):
        # two rows (s, s + u), u in {0.4, 1.3}, whose thresholds interleave
        # and do not ascend as a whole, against the same pairs of a triangle
        # level on the sorted set; both start at -2, so they share a head.
        # The band inverts only its four pivots.
        s = np.array([-2.0, -1.6, -0.7, -1.0, -0.6, 0.3])
        band = rmt._Level(process, s, 20, 10.0, [(0, 1), (0, 2), (3, 4), (3, 5)])
        assert band.rows == ((0, 1, 3, 0), (3, 4, 6, 2)) and len(band.inverses) == 4
        kernels = rmt._process_kernels(process, t, -2.0)
        grid = _JointTable(t, kernels, band).grid()
        order = np.argsort(s)
        ref = table(process, t, 20, s[order], -2.0).grid()[np.ix_(np.argsort(order),
                                                                    np.argsort(order))]
        for i, j in band.pairs.tolist():
            assert grid[i, j] == grid[j, i] == ref[i, j]
        assert np.isnan(grid[0, 3]) and np.isnan(grid[1, 1])

    @pytest.mark.parametrize("process,t,s1,s2", [
        ("airy2", 1.0, -1.0, 0.5),  # both kernels factored
        ("airy2", 0.5, 0.5, -1.0),  # the Laplace-branch K_{-t}, pair reversed
        ("airy1", 1.5, -1.0, 0.5),
    ])
    def test_single_joint_equals_grid_bitwise(self, process, t, s1, s2):
        # a single joint and a grid on the same two thresholds take the same
        # level data, blocks and Schur complement: the same bits
        point = rmt._joint_point(process, t, s1, s2, 20)
        grid = table(process, t, 20, sorted((s1, s2)), min(s1, s2)).grid()
        assert point.value == grid[0, 1] == grid[1, 0]

    @pytest.mark.parametrize("process,t", [("airy2", 1.0), ("airy2", 0.5), ("airy1", 0.5)])
    def test_single_joint_forms_its_blocks_once(self, process, t, monkeypatch):
        # the roundoff norm and the Schur complement read the same blocks:
        # one _blocks call per joint, and the bits of the grid's pair
        calls = []
        blocks = _JointTable._blocks

        def counting(tab, row):
            calls.append(row)
            return blocks(tab, row)

        monkeypatch.setattr(_JointTable, "_blocks", counting)
        point = rmt._joint_point(process, t, 0.5, -1.0, 16)
        assert calls == [(0, 1, 2, 0)]
        assert point.value == table(process, t, 16, [-1.0, 0.5], -1.0).grid()[0, 1]

    @pytest.mark.parametrize("t", [0.0, -0.7, math.nan])
    def test_table_needs_positive_t(self, t):
        # the joints take a negative t to |t|, and t = 0 to the marginal
        kernels = Airy1ProcessKernel(0.7), Airy1ProcessKernel(-0.7)
        with pytest.raises(ValueError, match="t > 0"):
            _JointTable(t, kernels, rmt._Level("airy1", [-1.0, 0.5], 16, 10.0, [(0, 1)]))

    @pytest.mark.parametrize("s,pairs", [
        ([0.5, -1.0], [(0, 1)]),
        ([-2.0, 1.0, 0.0], [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]),
        ([0.0, math.nan], [(0, 1)]),
        # a band whose first row is in order and whose second is reversed
        ([-2.0, -1.0, -0.5, -1.5], [(0, 1), (2, 3)]),
    ])
    def test_level_rejects_a_pair_above_its_pivot(self, s, pairs):
        # every pair (s_i, s_j) pivots on s_j, so a level takes s_i <= s_j
        with pytest.raises(ValueError, match="s_i <= s_j"):
            rmt._Level("airy1", s, 16, 10.0, pairs)

    def test_table_calls_basis_in_chunks(self, monkeypatch):
        # O(n h N / chunk) calls of at most one chunk of 8k entries, of the
        # interpolation onto N Chebyshev points (at the nodes left of the
        # cut), which the factors of one (x_min, N) share: not one call per
        # threshold (slow) nor one per grid (peak memory).  No kernel's
        # inner rule is read, at t = 0.5 (the Laplace K_{-t}) too
        sizes, inner = [], []
        basis, barycentric = Airy2ProcessKernel.basis, rmt._barycentric

        def counting_basis(kernel, xs):
            inner.append(np.size(xs) * kernel.inner_size)
            return basis(kernel, xs)

        def counting_barycentric(x, nodes, weights):
            sizes.append(x.size * nodes.size)
            return barycentric(x, nodes, weights)

        monkeypatch.setattr(Airy2ProcessKernel, "basis", counting_basis)
        monkeypatch.setattr(rmt, "_barycentric", counting_barycentric)
        n, m = 38, 24
        for t in (1.0, 0.5):
            kernels = rmt._process_kernels("airy2", t, rmt.DEFAULT_BOX[0])
            sizes.clear()
            tab = _JointTable(t, kernels, triangle_level("airy2", gauss_legendre(
                *rmt.DEFAULT_BOX, n).nodes, m))
            x = tab.level.x.ravel()
            factors = tab.kt, tab.kmt
            keys = {(f.x_min, f.points) for f in factors}
            # K_t and K_{-t} share one matrix (N = 128 both)
            assert all(isinstance(f, rmt._ChebyshevFactor) for f in factors)
            assert len(keys) == 1 and not inner
            entries = np.sum(x <= rmt._HEAD_CUT) * sum(points for _, points in keys)
            assert sum(sizes) == entries
            assert rmt._EVAL_CHUNK <= 1 << 13 and max(sizes) <= rmt._EVAL_CHUNK
            assert len(sizes) <= entries / rmt._EVAL_CHUNK + 4 < n

    def test_table_takes_ai_points_for_a0_and_kept_basis_entries(self, monkeypatch):
        # every Ai point of a level's blocks and its table goes through
        # kernels.airy_ai, where the benchmark's tracer counts it: n h for
        # I - A_0 on the head of h nodes (its near-diagonal pairs are exact
        # diagonals here), and none for the off-diagonal blocks, whose
        # kernels are all factored (K_1, K_{-1}, K_0.5 and the Laplace
        # K_{-0.5}): they take interpolation entries only
        pairs = [rmt._process_kernels("airy2", t, rmt.DEFAULT_BOX[0])
                 for t in (1.0, 0.5)]
        points = []
        airy_ai = kernels_module.airy_ai

        def counting(x):
            points.append(np.size(x))
            return airy_ai(x)

        monkeypatch.setattr(kernels_module, "airy_ai", counting)
        n, m = 38, 24
        for t, kernels in zip((1.0, 0.5), pairs):
            points.clear()
            tab = _JointTable(t, kernels, triangle_level("airy2", gauss_legendre(
                *rmt.DEFAULT_BOX, n).nodes, m))
            x = tab.level.x.ravel()
            h = tab.level.offsets.size
            assert x.size == n * h and h < m
            assert sum(points) == n * h

    def test_rung_slices_the_marginals_blocks_bitwise(self, monkeypatch):
        # a covariance rung slices the I - A_0 blocks of its kept thresholds
        # from the marginals' blocks to the kept head: the bits of blocks
        # built for the kept thresholds alone.  The kept thresholds start
        # higher, so their head is a leading slice of the blocks' head.
        # Its pairs are the triangle of the kept thresholds, one row each.
        m = 16
        s = gauss_legendre(*rmt.DEFAULT_BOX, 23).nodes
        keep = (np.arange(s.size) % 3 != 0) & (s > -2.0)
        monkeypatch.setattr(rmt, "_tail_drop", lambda *args: (keep, 0.0))
        tan_map = rmt._tan_map(m, 10.0)
        level = rmt._level.__wrapped__("airy2", m, s.size, rmt.DEFAULT_BOX, 10.0)
        h = rmt._head("airy2", s[keep], tan_map[0])
        assert h < rmt._head("airy2", s, tan_map[0])
        assert level.offsets.size == h and np.array_equal(level.s, s[keep])
        assert np.array_equal(level.keep, keep) and level.marg.size == s.size
        k = int(np.sum(keep))
        assert level.rows == tuple((i, i, k, i) for i in range(k))
        assert np.array_equal(level.eye_minus_a0,
                              rmt._eye_minus_a0("airy2", s[keep], *tan_map)[0])

    def test_level_builds_eye_minus_a0_once(self, monkeypatch, fresh_caches):
        # with the level cache emptied first, whatever ran before
        calls = []
        build = rmt._eye_minus_a0

        def counting(process, svals, *args):
            calls.append(len(svals))
            return build(process, svals, *args)

        monkeypatch.setattr(rmt, "_eye_minus_a0", counting)
        kernels = rmt._process_kernels("airy2", 1.0, rmt.DEFAULT_BOX[0])
        rmt._cov_positive(rmt._level("airy2", 20, 32, rmt.DEFAULT_BOX, 10.0), 1.0, kernels)
        assert calls == [32]


class TestChebyshevFactor:
    """The low-rank factors of the Gaussian-free Airy(2) kernels on
    [x_min, ``_HEAD_CUT``] (``rmt._chebyshev_factor``)."""

    @pytest.mark.parametrize("x_min", [-10.0, -14.0, -20.0])
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.76, -0.76, 1.0, -1.0, 2.5, -2.5])
    def test_matches_kernel(self, t, x_min):
        # random pairs, not the probe grid the build checks
        kernel = Airy2ProcessKernel(t, x_min=x_min)
        factor = rmt._chebyshev_factor(partial(rmt._sampled, kernel), x_min, rmt._HEAD_CUT)
        assert factor.inner_size < kernel.inner_size
        x, y = np.random.default_rng(7).uniform(x_min, rmt._HEAD_CUT, (2, 2000))
        got = np.sum(factor.basis(x) * factor.inner_weights * factor.basis(y), axis=1)
        want = kernel.eval(x, y)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= rmt._FACTOR_TOL

    def test_rows_beyond_the_head_cut_are_zero(self):
        # both kernels at t = 1 are factored in the cached pair
        factors = rmt._process_kernels("airy2", 1.0, -10.0)
        x = np.array([-10.0, rmt._HEAD_CUT, np.nextafter(rmt._HEAD_CUT, 30.0), 25.0, 1e3])
        for factor in factors:
            assert isinstance(factor, rmt._ChebyshevFactor)
            rows = factor.basis(x)
            assert rows.shape == (5, factor.inner_size)
            assert np.all(np.any(rows[:2] != 0.0, axis=1)) and np.all(rows[2:] == 0.0)
            with pytest.raises(ValueError, match="x_min"):
                factor.basis([-10.5])

    @pytest.mark.parametrize("process", ["airy2", "airy1"])
    def test_rows_all_inside_equal_the_scattered_rows_bitwise(self, process):
        # points all at or below x_max skip the zero rows' scatter: the bits
        # of the same points with one past x_max appended, whose row is 0,
        # on one interpolation matrix (Airy(1)'s K_{-t} scales its rows by
        # its rate)
        for factor in rmt._process_kernels(process, 1.0, -6.0):
            x = np.linspace(factor.x_min, factor.x_max, 12)
            interpolation = rmt._interpolation(x, factor.x_min, factor.x_max, factor.points)
            inside = factor.basis(x.reshape(3, 4), interpolation)
            scattered = factor.basis(np.append(x, factor.x_max + 1.0), interpolation)
            assert inside.shape == (3, 4, factor.inner_size) and np.any(inside != 0.0)
            assert np.array_equal(inside.reshape(12, -1), scattered[:-1])
            assert np.all(scattered[-1] == 0.0)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.74])
    def test_laplace_branch_is_a_factor_less_its_gaussian(self, t):
        # K_{-t}, 0 < t < 0.75, is the factor of its positive-axis integral
        # P_t, less the kernel's own Gaussian; P_t rounds at eps |P| (59.7
        # at t = 0.5, 555 at 0.74), so the factor matches P_t to the
        # kernel's achieved_tol, relative to max(1, |P|), on random pairs,
        # not the probe grid the build checks
        kt, kmt = rmt._process_kernels("airy2", t, -10.0)
        kernel = Airy2ProcessKernel(-t, x_min=-10.0)
        assert kernel._mode == "laplace"
        assert isinstance(kt, rmt._ChebyshevFactor) and kt.gaussian_part is None
        assert isinstance(kmt, rmt._ChebyshevFactor) and kmt.inner_size < 30
        assert kmt.gaussian_part.__func__ is Airy2ProcessKernel.gaussian_part
        assert kmt.gaussian_part.__self__.t == -t
        x, y = np.random.default_rng(7).uniform(-10.0, rmt._HEAD_CUT, (2, 2000))
        assert np.array_equal(kmt.gaussian_part(x, y), kernel.gaussian_part(x, y))
        got = np.sum(kmt.basis(x) * kmt.inner_weights * kmt.basis(y), axis=1)
        want = np.sum(kernel.basis(x) * kernel.inner_weights * kernel.basis(y), axis=1)
        tol = max(rmt._FACTOR_TOL, kernel.achieved_tol)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= tol
        tab = _JointTable(t, (kt, kmt), rmt._Level("airy2", [-1.0, 0.5], 16, 10.0, [(0, 1)]))
        assert tab.kt is kt and tab.kmt is kmt

    @pytest.mark.parametrize("t", [1.0, 0.5])
    def test_missed_cap_raises(self, t, monkeypatch, fresh_caches):
        # 64 Chebyshev points miss at x_min = -10, so with the cap there no
        # kernel gets a factor, and no inner rule is left to fall back on:
        # the pair raises, names t and x_min, and is not cached
        monkeypatch.setattr(rmt, "_FACTOR_MAX_NODES", rmt._FACTOR_FIRST_NODES)
        for _ in range(2):
            with pytest.raises(ArithmeticError,
                               match=f"no Chebyshev factor of Airy\\(2\\) at t={t:g}, x_min=-10"):
                rmt._process_kernels("airy2", t, -10.0)
        assert rmt._airy2_kernels.cache_info().currsize == 0

    @pytest.mark.parametrize("x_min", [-149.0, -1e5])
    def test_out_of_reach_raises_before_any_kernel(self, x_min, monkeypatch, fresh_caches):
        # no factor of _FACTOR_MAX_NODES points resolves Ai on [x_min, 20]
        # below ~-148: the pair raises at once, without the inner rule's
        # doubling to 25,600 nodes that took 12.5 s at -1e5
        def no_kernel(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(Airy2ProcessKernel, "__init__", no_kernel)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError,
                           match=f"no Chebyshev factor of Airy\\(2\\) at t=1, x_min={x_min:g}"):
            airy2_joint(1.0, x_min, 0.0, 20)
        assert time.perf_counter() - start < 1.0
        assert rmt._airy2_kernels.cache_info().currsize == 0

    def test_reach_keeps_every_x_min_with_a_factor(self, monkeypatch, fresh_caches):
        # x_min = -60 takes 512-point factors: the reach test lets it
        # through, and the joint is that of a cap so large that the test
        # never refuses (the factors stop doubling at the same size)
        p = airy2_joint(1.0, -60.0, 0.0, 20)
        rmt._airy2_kernels.cache_clear()
        monkeypatch.setattr(rmt, "_FACTOR_MAX_NODES", 1 << 30)
        q = airy2_joint(1.0, -60.0, 0.0, 20)
        assert (p.value.hex(), p.est_error.hex(), p.suspect) == \
               (q.value.hex(), q.est_error.hex(), q.suspect)


class TestCaches:
    """The covariance levels (``rmt._level``) and Airy(2) kernel pairs
    (``rmt._airy2_kernels``) built once per process and shared by every t."""

    def test_warm_calls_repeat_cold_bits(self, fresh_caches):
        calls = [lambda: cov_airy2(0.0, full_output=True),
                 lambda: cov_airy2(1.0, full_output=True),
                 lambda: cov_airy1(0.5, 1e-7, full_output=True)]
        cold = [call() for call in calls]
        misses = rmt._level.cache_info().misses, rmt._airy2_kernels.cache_info().misses
        assert misses[0] > 0 and misses[1] == 1
        warm = [call() for call in calls]
        assert (rmt._level.cache_info().misses,
                rmt._airy2_kernels.cache_info().misses) == misses
        # value, est and levels, bit for bit
        assert [[float(x).hex() for x in out] for out in warm] == \
               [[float(x).hex() for x in out] for out in cold]

    def test_cached_arrays_are_read_only(self, monkeypatch):
        cov_airy2(1.0)  # builds the level's interpolation matrix
        level = rmt._level("airy2", 20, 32, rmt.DEFAULT_BOX, 10.0)
        factor = rmt._process_kernels("airy2", 1.0, -10.0)[0]
        key = factor.x_min, factor.x_max, factor.points
        # built once per key: a later request builds nothing
        with monkeypatch.context() as patch:
            patch.setattr(rmt, "_interpolation", None)
            interpolation = level.interpolations([key])[key]
            assert level.interpolations([key])[key] is interpolation
        arrays = [level.outer.nodes, level.outer.weights, level.marg, level.bounds,
                  level.norms, level.keep, level.s, level.offsets, level.rr, level.x,
                  level.eye_minus_a0, level.inverses, level.cumulative, interpolation]
        # the cached pairs, all factored: K_1, K_{-1}, K_0.5, the Laplace
        # K_{-0.5} and the Airy(1) pair
        for factor in (*rmt._process_kernels("airy2", 0.5, -10.0),
                       *rmt._process_kernels("airy2", 1.0, -10.0),
                       *rmt._process_kernels("airy1", 1.0, -6.0)):
            arrays += [factor._vectors, factor.inner_weights]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[..., 0] = 0.0

    def test_interpolations_shared_across_t_keep_bits(self, fresh_caches):
        # t = 2.5 alone, and after t = 1 built the levels' interpolation
        # matrices, which t = 2.5 then takes: the same bits
        alone = cov_airy2(2.5, full_output=True)
        rmt._level.cache_clear()
        rmt._airy2_kernels.cache_clear()
        cov_airy2(1.0)
        levels = [rmt._level("airy2", m, n, rmt.DEFAULT_BOX, 10.0)
                  for m, n in rmt._COV_LEVELS["airy2"][:alone[2]]]
        key = next(iter(levels[0]._interpolations))
        built = [level._interpolations[key] for level in levels]
        assert all(list(level._interpolations) == [key] for level in levels)
        after = cov_airy2(2.5, full_output=True)
        assert [float(x).hex() for x in after] == [float(x).hex() for x in alone]
        for level, before in zip(levels, built):
            assert list(level._interpolations) == [key]
            assert level._interpolations[key] is before

    def test_cov_grid_builds_each_level_once(self, monkeypatch, fresh_caches):
        # t = 0 and t = 1 share the levels both use: each level's I - A_0
        # is built once for the grid, not once per t
        calls = []
        build = rmt._eye_minus_a0

        def counting(process, svals, *args):
            calls.append(len(svals))
            return build(process, svals, *args)

        monkeypatch.setattr(rmt, "_eye_minus_a0", counting)
        cov_grid("airy2", [0.0, 1.0])
        used = max(cov_airy2(t, full_output=True)[2] for t in (0.0, 1.0))
        assert calls == [n for _, n in rmt._COV_LEVELS["airy2"][:used]]

    def test_factors_built_once_per_cached_pair(self, monkeypatch, fresh_caches):
        # both kernels at t = 1 and at t = 0.5 (K_{-0.5} the factor of its
        # P_t), and a pair whose build warned on every call: it is factored
        # but not cached
        built = []
        build = rmt._chebyshev_factor

        def counting(sample, *args, **kwargs):
            built.append(sample.args[0].t)
            return build(sample, *args, **kwargs)

        monkeypatch.setattr(rmt, "_chebyshev_factor", counting)
        for _ in range(2):
            cov_airy2(1.0)
            airy2_joint(1.0, -1.0, 0.5, 16)
            airy2_joint(0.5, -1.0, 0.5, 16)
        assert built == [1.0, -1.0, 0.5, -0.5]
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="achieved_tol"):
                rmt._process_kernels("airy2", 0.5, -18.0)
        assert built == [1.0, -1.0, 0.5, -0.5] + [0.5, -0.5] * 2

    def test_airy1_factors_built_once_per_t_and_x_min(self, monkeypatch, fresh_caches):
        # a covariance at x_min = AIRY1_BOX[0], a joint at min(s1, s2), and
        # the same calls again: two factors per (t, effective x_min), the
        # x_min of a joint above 0 lowered to 0
        built = []
        build = rmt._chebyshev_factor

        def counting(sample, x_min, x_max, **kwargs):
            built.append(x_min)
            return build(sample, x_min, x_max, **kwargs)

        monkeypatch.setattr(rmt, "_chebyshev_factor", counting)
        for _ in range(2):
            cov_airy1(1.0, 1e-7)
            airy1_joint(1.0, -1.0, 0.5, 16)
            airy1_joint(1.0, 0.5, 2.0, 16)
            airy1_joint(1.0, 1.0, 3.0, 16)
        assert built == [-6.0, -6.0, -1.0, -1.0, 0.0, 0.0]
        assert rmt._process_kernels("airy1", 1.0, 2.0) is rmt._process_kernels("airy1", 1.0, 0.0)

    def test_level_holds_one_tables_interpolations_across_a_t_sweep(self, fresh_caches):
        # the Airy(1) domain moves with t, so each t brings its own
        # interpolation matrices; a rung keeps the latest table's, so after
        # a sweep it holds what one call at the sweep's last t holds, and
        # a repeated t gives the same bits
        alone = cov_airy1(0.25, 1e-7, full_output=True)
        levels = [rmt._level("airy1", m, n, rmt.AIRY1_BOX, 10.0)
                  for m, n in rmt._COV_LEVELS["airy1"][:alone[2]]]
        single = [dict(level._interpolations) for level in levels]
        assert all(len(held) in (1, 2) for held in single)
        for t in (0.5, 1.0, 2.5, 0.25):
            cov_airy1(t, 1e-7)
        assert [list(level._interpolations) for level in levels] == [list(h) for h in single]
        again = cov_airy1(0.25, 1e-7, full_output=True)
        assert [float(x).hex() for x in again] == [float(x).hex() for x in alone]

    def test_kernels_shared_by_effective_x_min(self, fresh_caches):
        # Airy2ProcessKernel lowers x_min to -10, so the key does too
        pair = rmt._process_kernels("airy2", 1.0, -1.0)
        assert rmt._process_kernels("airy2", 1.0, -10.0) is pair
        assert rmt._process_kernels("airy2", 1.0, -12.0) is not pair

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t,accuracy", [(0.5, 1e-11), (0.25, 1e-12)])
    def test_tight_accuracy_caches_a_quiet_pair(self, t, accuracy, monkeypatch, fresh_caches):
        # the inner rules have one tolerance at every accuracy: tied to the
        # accuracy (1e-13 here), K_{-t} warned at achieved_tol 1.06e-13,
        # and its pair was rebuilt on every call
        built = recording_airy2(monkeypatch)
        value = cov_airy2(t, accuracy)
        assert len(built) == 2
        assert cov_airy2(t, accuracy) == value and len(built) == 2

    def test_accuracy_past_roundoff_builds_the_usual_rules(self, monkeypatch, fresh_caches):
        # no accuracy doubles the inner rules past roundoff (30,720 nodes
        # each, 6 s, when the tolerance followed the accuracy); the ladder
        # alone says it missed
        built = recording_airy2(monkeypatch)
        with pytest.warns(RuntimeWarning) as record:
            cov_airy2(1.0, 1e-18)
        assert [(k.t, k.inner_size) for k in built] == [(1.0, 75), (-1.0, 150)]
        assert len(record) == 1 and "missed accuracy=1e-18" in str(record[0].message)

    def test_warned_kernels_warn_on_every_call(self, fresh_caches):
        # K_{-0.5} at x_min = -18: the Gaussian-term cancellation, 5.8e-12,
        # exceeds the tolerance, so the pair is not cached
        pairs = []
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="achieved_tol"):
                pairs.append(rmt._process_kernels("airy2", 0.5, -18.0))
        assert pairs[0] is not pairs[1]
        assert rmt._airy2_kernels.cache_info().currsize == 0

    def test_warned_pair_comes_back_factored(self, fresh_caches):
        # K_{-0.5} at x_min = -20: its Gaussian-term cancellation, 1.6e-11,
        # exceeds the tolerance; the pair is factored all the same, warns
        # on every build and is not cached, and the joint takes it
        pairs = []
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="achieved_tol"):
                pairs.append(rmt._process_kernels("airy2", 0.5, -20.0))
        assert rmt._airy2_kernels.cache_info().currsize == 0
        assert pairs[0] is not pairs[1]
        for a, b in zip(*pairs):
            assert isinstance(a, rmt._ChebyshevFactor) and a.x_min == -20.0
            assert np.array_equal(a._vectors, b._vectors)
        assert pairs[0][1].gaussian_part is not None
        with pytest.warns(RuntimeWarning, match="achieved_tol"):
            p = airy2_joint(0.5, -20.0, 0.0, 30)
        assert 0.0 <= p.value <= 1e-38 and not p.suspect

    def test_cache_clear_empties_both_caches(self):
        level = rmt._level("airy2", 20, 32, rmt.DEFAULT_BOX, 10.0)
        pair = rmt._process_kernels("airy2", 1.0, -10.0)
        rmt._level.cache_clear()
        rmt._airy2_kernels.cache_clear()
        assert rmt._level.cache_info().currsize == rmt._airy2_kernels.cache_info().currsize == 0
        # the next calls build afresh, to the same bits
        again = rmt._level("airy2", 20, 32, rmt.DEFAULT_BOX, 10.0)
        assert again is not level
        assert np.array_equal(again.inverses, level.inverses)
        new_pair = rmt._process_kernels("airy2", 1.0, -10.0)
        assert new_pair is not pair
        assert all(isinstance(a, rmt._ChebyshevFactor) and a is not b
                   and np.array_equal(a._vectors, b._vectors)
                   and np.array_equal(a.inner_weights, b.inner_weights)
                   for a, b in zip(new_pair, pair))


def full_level(process, t, m, n_outer, box, kernels):
    """Every joint of a covariance level's outer grid by LU of its balanced
    system of order 2h, on the head of h nodes of the whole grid, its
    roundoff bound sqrt(2m) ||A||_F 8u, and the marginals with theirs."""
    outer = gauss_legendre(*box, n_outer)
    tab = _JointTable(t, kernels, triangle_level(process, outer.nodes, m))
    n, h = n_outer, tab.level.offsets.size
    joint, est = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        systems = balanced_systems(tab, tab.level.rows[i])
        joint[i, i:] = rmt.det_lu(systems)
        est[i, i:] = (np.sqrt(2 * m) * 8 * UNIT_ROUNDOFF
                      * np.linalg.norm(np.eye(2 * h) - systems, axis=(1, 2)))
    return (outer, joint + np.triu(joint, 1).T, est + np.triu(est, 1).T,
            tab.level.marg, tab.level.bounds)


@pytest.fixture(scope="module")
def cov_kernels():
    cache = {}

    def get(process, t):
        if (process, t) not in cache:
            box = rmt.DEFAULT_BOX if process == "airy2" else rmt.AIRY1_BOX
            cache[process, t] = rmt._process_kernels(process, t, box[0])
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
        level = rmt._level(process, m, n, box, 10.0)
        assert abs(rmt._cov_positive(level, t, kernels) - full) <= b

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
        value = rmt._cov_positive(rmt._level(process, m, n, box, 10.0), t, kernels)
        assert abs(value - full) <= b + abs(full - ref)


def all_node_level(t, m, n_outer, kernels):
    """An Airy(2) covariance level on every tan-map node, with its roundoff
    bound: marginals by ``fredholm_det`` of the tan-mapped Airy kernel,
    joints by LU of balanced systems of order 2m assembled from the process
    kernels' own ``matrix``, over the thresholds ``_tail_drop`` keeps.  The
    reference for the head; returns (value, bound, keep)."""
    outer = gauss_legendre(*rmt.DEFAULT_BOX, n_outer)
    rule = gauss_legendre(0.0, 1.0, m)
    marg = [fredholm_det(NystromProblem(TransformedKernel(AiryKernel(), s), (0.0, 1.0),
                                        -1.0, rule)) for s in outer.nodes]
    f = np.array([r.value for r in marg])
    e = np.array([r.roundoff_bound for r in marg])
    keep, _ = rmt._tail_drop(f, e, outer.weights)
    offsets, rr = rmt._tan_map(m, 10.0)
    x = outer.nodes[keep][:, None] + offsets
    a0 = rr * AiryKernel().matrix(x, x)
    n = x.shape[0]
    joint, est = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        a12, a21 = rr * kernels[0].matrix(x[i], x), rr * kernels[1].matrix(x, x[i])
        for b12, b21 in zip(a12, a21):
            _balance_blocks([[None, b12], [b21, None]])
        systems = np.block([[np.broadcast_to(a0[i], a12.shape), a12], [a21, a0]])
        joint[i] = rmt.det_lu(np.eye(2 * m) - systems)
        est[i] = np.sqrt(2 * m) * 8 * UNIT_ROUNDOFF * np.linalg.norm(systems, axis=(1, 2))
    w, f, e = outer.weights[keep], f[keep], e[keep]
    value = float(w @ (joint - np.outer(f, f)) @ w)
    return value, float(w @ est @ w + 2.0 * np.sum(w) * (w @ e)), keep


#: The rounding of a determinant's value, which its roundoff bound (a
#: backward error of the matrix) leaves out: values near 1 differ by ulps.
EPS8 = 8 * np.finfo(float).eps


class TestHead:
    """Airy(2) matrices on the head of the tan map: the nodes left of the
    cut X for the smallest threshold of a call (``rmt._head``)."""

    @pytest.mark.parametrize("m", sorted({m for m, _ in rmt._COV_LEVELS["airy2"]}
                                         | {50, 80, 200}))
    def test_dropped_entries_within_bound(self, m):
        # r_max^2 sqrt(K_0(X, X) K_0(s_min, s_min)) bounds every entry of
        # A_0 and of K_t, t > 0, in a dropped row or column
        offsets, rr = rmt._tan_map(m, 10.0)
        r_max2 = float(np.max(np.diag(rr)))
        k0 = AiryKernel()

        def diag(x):
            return float(k0.matrix(np.array([x]), np.array([x]))[0, 0])

        kts = [Airy2ProcessKernel(t, x_min=-12.0) for t in (0.3, 1.0)]
        for s_min in np.linspace(-12.0, 6.0, 19):
            # the head of the smallest threshold of the call: exactly its
            # nodes left of the cut
            h = rmt._head("airy2", [s_min + 1.5, s_min], offsets)
            x = s_min + offsets
            assert 0 < h < m and x[h - 1] <= rmt._HEAD_CUT < x[h]
            bound = r_max2 * math.sqrt(diag(rmt._HEAD_CUT) * diag(s_min))
            assert bound < 3e-22
            blocks = [rr * k0.matrix(x, x)]
            blocks += [rr * kt.matrix(x, s2 + offsets)
                       for kt in kts for s2 in (s_min, s_min + 1.5)]
            for block in blocks:
                dropped = np.concatenate([block[h:].ravel(), block[:h, h:].ravel()])
                assert np.max(np.abs(dropped)) <= bound, s_min

    @pytest.mark.parametrize("m", [50, 80, 200])
    def test_f2_equals_all_node_value(self, m):
        for s in np.linspace(-12.0, 6.0, 13):
            kernel = TransformedKernel(AiryKernel(), s, scale=10.0)
            rule = gauss_legendre(0.0, 1.0, m)
            ref = fredholm_det(NystromProblem(kernel, (0.0, 1.0), -1.0, rule))
            point = f2_tw(s, m)
            assert rmt._head("airy2", [s], rmt._tan_map(m, 10.0)[0]) < m
            assert abs(point.value - ref.value) <= point.est_error + EPS8 * abs(ref.value), s
            # ||A_0||_F is taken before I is added, so even at s = 6, where
            # A_0 is below 1e-12, the bounds agree to the last bits
            assert point.m == m and point.est_error == pytest.approx(ref.roundoff_bound,
                                                                     rel=1e-14, abs=0)
            assert point.suspect == (ref.method == "cholesky->lu"
                                     or not -1e-10 <= ref.value <= 1.0 + 1e-10)

    @pytest.mark.parametrize("t", [0.3, -0.3, 1.0, -1.0, 2.5])
    def test_airy2_joint_equals_all_node_value(self, t):
        for s1, s2 in ((-3.0, 1.0), (1.5, -2.0), (-9.0, -8.5), (4.0, 5.0)):
            p = airy2_joint(t, s1, s2, 30)
            ref = block_system_joint("airy2", t, s1, s2, 30)
            assert abs(p.value - ref.value) <= p.est_error + EPS8 * abs(ref.value), (s1, s2)
            assert p.m == ref.m
            # the joint is even in t and takes the table at |t|
            assert p.est_error == pytest.approx(closed_form_bound("airy2", abs(t), s1, s2, 30),
                                                rel=1e-14, abs=0)
            assert p.est_error <= ref.roundoff_bound

    @pytest.mark.parametrize("t,level", [(1.0, 1), (0.25, 0)])
    def test_cov_level_equals_all_node_level(self, t, level, cov_kernels):
        m, n = rmt._COV_LEVELS["airy2"][level]
        kernels = cov_kernels("airy2", t)
        # the reference assembles the kernels' matrices, not their factors
        ref, bound, keep = all_node_level(t, m, n, process_kernels("airy2", t))
        outer = gauss_legendre(*rmt.DEFAULT_BOX, n)
        points = rmt._marginal_points("airy2", outer.nodes, m, 10.0)[2]
        head_keep, _ = rmt._tail_drop(np.array([p.value for p in points]),
                                      np.array([p.est_error for p in points]), outer.weights)
        assert np.array_equal(head_keep, keep)
        value = rmt._cov_positive(rmt._level("airy2", m, n, rmt.DEFAULT_BOX, 10.0), t, kernels)
        assert abs(value - ref) <= bound


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
        assert abs(_cov_zero(rmt._level("airy2", m, n_outer, box, scale)) - 2.0 * total) <= 1e-12


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

    @pytest.mark.parametrize("cov", [cov_airy2, cov_airy1])
    def test_non_finite_t_rejected(self, cov, fresh_caches):
        # before any level or kernel is built; a negative t is told apart
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                cov(t)
        with pytest.raises(ValueError, match="t must be >= 0"):
            cov(-1.0)
        assert rmt._level.cache_info().currsize == 0

    @pytest.mark.parametrize("cov", [cov_airy2, cov_airy1])
    def test_box_is_not_a_setting(self, cov):
        # the boxes are the constants DEFAULT_BOX and AIRY1_BOX
        with pytest.raises(TypeError):
            cov(1.0, box=(-8.0, 6.0))


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
