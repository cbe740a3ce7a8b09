"""Kernel evaluation: the eval/matrix contract, diagonals, symmetry,
process kernels, transformation."""

import math
import warnings
from contextlib import nullcontext

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fredet.kernels import (Airy1ProcessKernel, Airy2ProcessKernel, AiryKernel,
                            GreenKernel, Kernel, SineKernel, TransformedKernel,
                            make_kernel)
from fredet import kernels as kernels_module
from fredet import rmt
from fredet.quadrature import gauss_legendre
from fredet.rmt import _COV_LEVELS, DEFAULT_BOX, _tan_map
from fredet.specfun import airy_ai, airy_ai_prime


def test_each_kernel_class_defines_eval_or_matrix():
    # both would be two evaluators of one kernel; neither would recurse
    # between the defaults of Kernel
    classes = [cls for cls in vars(kernels_module).values()
               if isinstance(cls, type) and issubclass(cls, Kernel) and cls is not Kernel]
    assert len(classes) == 6
    for cls in classes:
        assert ("eval" in vars(cls)) != ("matrix" in vars(cls)), cls.__name__


#: name -> (kernel, sampling interval): every registry family, the decay,
#: Laplace and oscillatory branches of the Airy(2) inner rule, and a
#: tan-mapped kernel, whose samples include the endpoint 1
_CONTRACT_KERNELS = {
    "sine": (lambda: make_kernel("sine"), (-4.0, 4.0)),
    "airy": (lambda: make_kernel("airy"), (-10.0, 8.0)),
    "green": (lambda: make_kernel("green"), (0.0, 1.0)),
    "airy1:0.5": (lambda: make_kernel("airy1:0.5"), (-6.0, 6.0)),
    "airy1:-0.5": (lambda: make_kernel("airy1:-0.5"), (-6.0, 6.0)),
    "airy2:1": (lambda: Airy2ProcessKernel(1.0), (-10.0, 8.0)),
    "airy2:-0.5": (lambda: Airy2ProcessKernel(-0.5), (-10.0, 8.0)),
    "airy2:-1": (lambda: Airy2ProcessKernel(-1.0), (-10.0, 8.0)),
    "transformed": (lambda: TransformedKernel(AiryKernel(), -1.0), (0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_KERNELS))
def test_kernel_contract(name):
    make, (lo, hi) = _CONTRACT_KERNELS[name]
    k = make()
    xs = np.random.default_rng(5).uniform(lo, hi - 1e-4, size=(3, 9))
    xs[1, 3] = xs[1, 4] + 3e-5  # one near-diagonal pair in one slice
    xs[2, 0] = hi
    assert type(k.eval(xs[0, 0], xs[0, 1])) is float
    # pointwise values are the matrix entries; the Airy(2) inner sums may
    # be added up in another order
    x, y = xs[1], np.append(xs[1], xs[2])
    matrix = k.matrix(x, y)
    values = k.eval(x[:, None], y[None, :])
    if isinstance(k, Airy2ProcessKernel):
        assert np.allclose(values, matrix, rtol=0.0, atol=1e-14)
    else:
        assert np.array_equal(values, matrix)
    # a stacked matrix is its slices, bit for bit
    stacked = k.matrix(xs, xs)
    assert np.array_equal(stacked, np.array([k.matrix(x, x) for x in xs]))


class TestSineKernel:
    def setup_method(self):
        self.k = SineKernel()

    def test_diagonal(self):
        assert self.k.eval(0.3, 0.3) == 1.0
        x = np.linspace(0, 5, 7)
        assert np.all(self.k.eval(x, x) == 1.0)

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
        assert np.array_equal(self.k.eval(x, x), x * (1 - x))

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
        # the L'Hopital limit Ai'(x)^2 - x Ai(x)^2, bit for bit
        for x in (-4.0, -1.0, 0.0, 2.5):
            ai, aip = airy_ai(x), airy_ai_prime(x)
            assert self.k.eval(x, x) == aip * aip - x * ai * ai

    def test_diagonal_vs_nearby_eval(self):
        for x in (-3.0, 0.0, 1.5):
            near = self.k.eval(x + 1e-6, x - 1e-6)
            assert self.k.eval(x, x) == pytest.approx(near, abs=2e-12)

    def test_off_diagonal_composition(self):
        ref = (airy_ai(0.0) * airy_ai_prime(1.0)
               - airy_ai(1.0) * airy_ai_prime(0.0)) / (0.0 - 1.0)
        assert self.k.eval(0.0, 1.0) == pytest.approx(ref, rel=1e-15, abs=0)
        # frozen 25-digit value
        assert self.k.eval(0.0, 1.0) == pytest.approx(0.02148550383703795484571133,
                                                      rel=1e-13, abs=0)

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
        ai, aip = airy_ai(xs), airy_ai_prime(xs)
        assert np.array_equal(np.diag(m), aip * aip - xs * ai * ai)
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
        # xs once, plus the centres of the off-diagonal pairs closer than
        # the split (2 and 2 + 1e-6, both ways): the exact diagonal takes
        # the values already held
        d = np.abs(xs[:, None] - xs[None, :])
        assert points[0] == xs.size and sum(points[1:]) == np.sum((d < 1e-4) & (d > 0)) == 2

    def test_exact_diagonal_equals_expansion_bitwise(self):
        # the exact-diagonal entries are the expansion's value at h = 0
        xs = np.linspace(-14.0, 30.0, 45)
        dval, e = AiryKernel._diag_pair(xs)
        assert np.array_equal(np.diag(self.k.matrix(xs, xs)), dval - 0.0 * e)


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
        k = Airy2ProcessKernel(1.0)
        ref = 0.04544685282349152  # frozen high-precision oracle, t=1, x=y=0
        assert k.eval(0.0, 0.0) == pytest.approx(ref, abs=1e-12)

    def test_positive_t_oracle_scipy(self):
        k = Airy2ProcessKernel(0.7)
        for (x, y) in [(-3.0, 1.0), (0.5, 0.5)]:
            ref, _ = quad(lambda xi: math.exp(-0.7 * xi) * airy_ai(x + xi) * airy_ai(y + xi),
                          0.0, 40.0, epsabs=1e-13, limit=200)
            assert k.eval(x, y) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("t", [-0.4, -1.5])
    def test_negative_t_vs_brute(self, t):
        # piecewise adaptive integration of the defining oscillatory integral
        k = Airy2ProcessKernel(t)
        for (x, y) in [(-5.0, -5.0), (-2.0, 3.0)]:
            f = lambda xi: math.exp(-xi * t) * airy_ai(x + xi) * airy_ai(y + xi)
            total = 0.0
            edges = np.arange(0.0, -200.0, -2.0)
            for a, b in zip(edges[1:], edges[:-1]):
                v, _ = quad(f, a, b, limit=200)
                total += v
            assert k.eval(x, y) == pytest.approx(-total, abs=1e-9)

    def test_t_zero_plus_is_airy_kernel(self):
        k = Airy2ProcessKernel(1e-8)
        ak = AiryKernel()
        for (x, y) in [(-2.0, 1.0), (0.0, 0.0), (-7.0, -3.0)]:
            assert k.eval(x, y) == pytest.approx(ak.eval(x, y), abs=1e-8)

    def test_t_zero_exact_is_airy_kernel(self):
        k = Airy2ProcessKernel(0.0)
        ak = AiryKernel()
        assert k.eval(-1.0, 2.0) == pytest.approx(ak.eval(-1.0, 2.0), abs=1e-12)

    def test_branch_consistency_at_zero(self):
        # t = +1e-8 and t = -1e-8 give the same kernel off the diagonal
        kp = Airy2ProcessKernel(1e-8)
        km = Airy2ProcessKernel(-1e-8)
        for (x, y) in [(-2.0, 1.0), (-7.0, -3.0), (2.0, 0.5)]:
            assert abs(kp.eval(x, y) - km.eval(x, y)) < 1e-6

    def test_diagonal_positive_decreasing_in_t(self):
        vals = [Airy2ProcessKernel(t).eval(2.0, 2.0) for t in (0.5, 1.0, 2.0)]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inner_rule_converged(self):
        k = Airy2ProcessKernel(1.0)
        assert k.achieved_tol < 1e-12

    def test_inner_rule_cap_warns(self, monkeypatch):
        monkeypatch.setattr(Airy2ProcessKernel, "_FIRST_RULE_SIZE", 16)
        monkeypatch.setattr(Airy2ProcessKernel, "_MAX_RULE_SIZE", 32)
        monkeypatch.setattr(Airy2ProcessKernel, "_RULE_TOL", 1e-16)
        with pytest.warns(RuntimeWarning, match="at 32 nodes") as record:
            k = Airy2ProcessKernel(1.0)
        assert k.inner_size == 32 and k.achieved_tol > 1e-16
        assert f"achieved_tol={k.achieved_tol:.3g}" in str(record[0].message)

    @pytest.mark.parametrize("t", [0.1, -0.1, 0.5, -0.5, 0.76, -0.76, 1.0, -1.0, 2.5, -2.5])
    def test_rule_tolerance_is_at_roundoff(self, t, monkeypatch):
        # a rule verified to a tighter tolerance buys no digits: on the
        # head of the tan map the kept rule matches one verified to 1e-14
        # (measured worst: 9.4 eps, at t = -1, where that one has 480
        # nodes against 150; every other t keeps the same rule)
        k = Airy2ProcessKernel(t)
        monkeypatch.setattr(Airy2ProcessKernel, "_RULE_TOL", 1e-14)
        with warnings.catch_warnings():
            # the Laplace branch's cancellation, 1.1e-13 at t = -0.5, is above 1e-14
            warnings.simplefilter("ignore", RuntimeWarning)
            tight = Airy2ProcessKernel(t)
        x = np.linspace(-10.0, 20.0, 61)
        want = tight.matrix(x, x)
        err = np.abs(k.matrix(x, x) - want) / np.maximum(1.0, np.abs(want))
        assert np.max(err) <= 16 * np.finfo(float).eps

    def test_inner_sizes_of_a_joint_pair(self):
        # K_1 (decay branch) and K_{-1} (oscillatory branch), as one
        # covariance at t = 1 builds them: doubling verifies 120 and 240
        # nodes, and 75 and 150 already match those to roundoff
        assert Airy2ProcessKernel(1.0).inner_size <= 80
        assert Airy2ProcessKernel(-1.0).inner_size <= 160

    @pytest.mark.parametrize("t", [-0.5, -0.7])
    def test_laplace_branch_converges_at_low_x_min(self, t):
        # the Laplace branch's probe at (-18, -18) is 3e3-1e5 and rounds at
        # that scale, so its agreement is measured relative to it; an
        # absolute 1e-12 would double the rule to the cap.  The rule
        # converges, but subtracting a Gaussian term of that size leaves
        # K_t(-18, -18) off by more than tol: achieved_tol states it, and
        # the kernel warns.
        with pytest.warns(RuntimeWarning, match="cancellation") as record:
            k = Airy2ProcessKernel(t, x_min=-18.0)
        assert "rule agreement" in str(record[0].message) and k.inner_size <= 240
        ref, = _mp_airy2_oracle([(t, -18, -18)])
        err = abs(k.eval(-18.0, -18.0) - ref)
        assert 1e-12 < err <= k.achieved_tol

    @pytest.mark.parametrize("t", [1.0, -0.3, -1.0])
    def test_arguments_below_x_min_raise(self, t):
        k = Airy2ProcessKernel(t, x_min=-12.0)
        assert k.x_min == -12.0
        k.matrix([-12.0, 0.0], [-12.0])
        with pytest.raises(ValueError, match="x_min=-12"):
            k.basis([0.0, -12.5])
        with pytest.raises(ValueError):
            k.matrix([0.0], [-13.0])
        with pytest.raises(ValueError):
            k.eval(-12.5, 0.0)
        # the domain always reaches down to -10
        assert Airy2ProcessKernel(t, x_min=-3.0).x_min == -10.0

    #: inner sizes at x_min = -10 when the finer rule of the agreeing pair
    #: was kept; the smallest verified rule is never larger
    _DOUBLING_SIZES = {0.05: 120, 0.1: 120, 0.3: 120, 0.5: 120, 1.0: 120, 2.5: 120,
                       10.0: 120, 50.0: 240, -0.05: 120, -0.1: 120, -0.3: 120,
                       -0.5: 120, -0.75: 480, -1.0: 240, -2.5: 120, -10.0: 60,
                       -50.0: 60}

    @pytest.mark.parametrize("t", sorted(_DOUBLING_SIZES))
    def test_sizes_not_above_doubling(self, t):
        k = Airy2ProcessKernel(t)
        assert k.inner_size <= self._DOUBLING_SIZES[t]
        assert k.achieved_tol <= 1e-12

    @pytest.mark.parametrize("t", [100.0, 1000.0])
    def test_large_t_interval_ends_at_damping(self, t):
        # past xi = 40/t the damping e^{-t xi} is below e^{-40}; the
        # interval [0, 22] took 240 and 960 nodes here
        k = Airy2ProcessKernel(t)
        assert k.inner_size <= 60
        for x, y in [(-10.0, -10.0), (-10.0, 5.0), (-3.0, 0.0), (0.0, 0.0), (4.0, 4.0)]:
            ref, _ = quad(lambda xi: math.exp(-t * xi) * airy_ai(x + xi) * airy_ai(y + xi),
                          0.0, 60.0 / t, epsabs=1e-22, epsrel=1e-13, limit=200)
            assert k.eval(x, y) == pytest.approx(ref, rel=1e-13, abs=1e-300), (x, y)

    @pytest.mark.parametrize("t", [1.0, -0.5, -1.0])
    def test_basis_is_airy_at_every_argument(self, t):
        # decay, Laplace and oscillatory branches: no argument x + xi is
        # left out, up to where Ai underflows
        k = Airy2ProcessKernel(t)
        xs = np.linspace(k.x_min, 200.0, 106)
        assert np.array_equal(k.basis(xs), airy_ai(xs[:, None] + k._xi[None, :]))

    @pytest.mark.parametrize("t", [1.0, 0.25])
    def test_entries_past_twenty_vs_mpmath(self, t):
        # arguments whose inner terms are all below 1e-55: their entries
        # are small but not 0, to the rule's relative accuracy
        k = Airy2ProcessKernel(t)
        with mpmath.workdps(30):
            for x, y in [(21, 21), (24, 26), (30, 30), (18, 36)]:
                ref = mpmath.quad(lambda xi: mpmath.exp(-t * xi) * mpmath.airyai(x + xi)
                                  * mpmath.airyai(y + xi), [0, 0.5, 1, 2, 4, 8, mpmath.inf])
                assert k.eval(x, y) == pytest.approx(float(ref), rel=1e-4, abs=0.0), \
                    (x, y)

    #: (inner_size, achieved_tol) at x_min = -10; at t = -0.5 the
    #: Laplace branch's Gaussian-term cancellation sets achieved_tol
    _RULES = {1.0: (75, 9.020562075079397e-16),
              -1.0: (150, 9.222483887683097e-13),
              -0.5: (75, 1.0627633978447859e-13),
              0.25: (75, 9.645062526431047e-16)}

    @pytest.mark.parametrize("t", sorted(_RULES))
    def test_rule_and_cut_unchanged(self, t):
        k = Airy2ProcessKernel(t)
        size, achieved = self._RULES[t]
        assert k.inner_size == size
        assert k.achieved_tol == pytest.approx(achieved, rel=1e-6, abs=0.0)

    #: Largest Ai error of the scipy backends before the Ai table, per range
    #: of u (absolute for u <= 0, relative above): no basis entry is worse.
    _BACKEND_AI_ERRORS = [(-95.0, -10.0, 2.0e-14), (-10.0, 0.0, 1.1e-15),
                          (0.0, 10.0, 1.4e-14), (10.0, 27.0, 1.8e-14)]

    @pytest.mark.parametrize("t,x_min", [(1.0, -10.0), (-0.5, -10.0), (-1.0, -10.0),
                                         (-0.75, -10.0), (-0.75, -18.0), (-0.75, -30.0)])
    def test_basis_vs_mpmath(self, t, x_min):
        # the decay, Laplace and oscillatory branches, and the oscillatory
        # one at t = -0.75 on lowered domains, whose arguments x + xi reach
        # down to -83: a sample of the entries basis evaluates, up to the
        # top of the error table, against 40-digit mpmath
        k = Airy2ProcessKernel(t, x_min=x_min)
        xs = np.linspace(x_min, 30.0, 37)
        arg = (xs[:, None] + k._xi[None, :]).ravel()
        sample = np.flatnonzero(arg <= 27.0)[::23]
        u = arg[sample]
        ref = _mp_ai(u)
        err = np.abs(k.basis(xs).ravel()[sample] - ref) / np.where(u > 0.0, np.abs(ref), 1.0)
        assert np.max(u) > 25.0 and (x_min > -30.0 or np.min(u) < -80.0)
        checked = 0
        for lo, hi, bound in self._BACKEND_AI_ERRORS:
            sel = (u >= lo) & (u <= hi)
            checked += int(np.any(sel))
            assert np.all(err[sel] <= bound), (lo, hi)
        assert checked == (3 if t > -0.75 else 4)


def _mp_ai(u):
    """Ai at each point of u in 40-digit mpmath."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.airyai(mpmath.mpf(float(x)))) for x in u])


def test_basis_below_table_vs_mpmath():
    # at x_min = -160 the oscillatory K_{-1} takes Ai at x + xi down to
    # -200, below the -195 of the Ai table: those points come from the
    # expansion, as close to Ai as the conditioning of the argument allows
    k = Airy2ProcessKernel(-1.0, x_min=-160.0)
    xs = np.array([-160.0, -159.3, -150.0])
    arg = xs[:, None] + k._xi[None, :]
    assert np.min(arg) < -195.0
    sample = np.concatenate([np.flatnonzero(arg.ravel() < -195.0)[::7],
                             np.flatnonzero(arg.ravel() >= -195.0)[::41]])
    u = arg.ravel()[sample]
    envelope = np.abs(u) ** -0.25 / math.sqrt(math.pi)
    bound = 4.0 * np.finfo(float).eps * (1.0 + np.abs(u) ** 1.5) * envelope
    assert np.all(np.abs(k.basis(xs).ravel()[sample] - _mp_ai(u)) <= bound)


def _mp_airy2_oracle(cases):
    """K_t(x, y) for integer x, y by the defining integral in 20-digit
    mpmath: composite 24-point Gauss-Legendre on the unit pieces [k, k+1]
    of xi, far past where the integrand drops below 1e-20.  Integer
    arguments put x + xi on the same shifted nodes j + c_i for every
    pair, so each Ai(j + c_i) is evaluated once.  For -0.75 < t < 0 the
    positive-axis integral minus the closed Gaussian term is used (the
    Laplace identity of ``Airy2ProcessKernel``; the brute-force test
    above checks the identity itself)."""
    from mpmath.calculus.quadrature import GaussLegendre
    with mpmath.workdps(20):
        rule = GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)
        c = [(u + 1) / 2 for u, _ in rule]
        w = [v / 2 for _, v in rule]
        cache = {}

        def ai(j):
            if j not in cache:
                cache[j] = [mpmath.airyai(j + ci) for ci in c]
            return cache[j]

        values = []
        for t, x, y in cases:
            if t > -0.75:
                pieces = range(0, 22 - min(x, y))
            else:
                pieces = range(-math.ceil(45 / abs(t)), 0)
            total = mpmath.mpf(0)
            for k in pieces:
                for ci, wi, ax, ay in zip(c, w, ai(x + k), ai(y + k)):
                    total += wi * mpmath.exp(-t * (k + ci)) * ax * ay
            if t <= -0.75:
                total = -total
            elif t < 0:
                tau = mpmath.mpf(-t)
                total -= (mpmath.exp(tau ** 3 / 12 - tau * (x + y) / 2
                                     - mpmath.mpf(x - y) ** 2 / (4 * tau))
                          / (2 * mpmath.sqrt(mpmath.pi * tau)))
            values.append(float(total))
        return values


#: (t, x_min): the decay, Laplace and oscillatory branches at the default
#: domain, and the decay branch on a domain lowered to -18
_ORACLE_KERNELS = [(0.3, -10), (1.0, -10), (-0.3, -10), (-1.0, -10), (-2.5, -10),
                   (0.3, -18)]


def _oracle_pairs(x_min):
    xs = (x_min, -3, 0, 4)
    return [(x, y) for i, x in enumerate(xs) for y in xs[i:]]


@pytest.fixture(scope="module")
def airy2_oracle():
    cases = [(t, x, y) for t, x_min in _ORACLE_KERNELS for x, y in _oracle_pairs(x_min)]
    return dict(zip(cases, _mp_airy2_oracle(cases)))


@pytest.mark.parametrize("t,x_min", _ORACLE_KERNELS)
def test_airy2_kernel_vs_mpmath(airy2_oracle, t, x_min):
    k = Airy2ProcessKernel(t, x_min=x_min)
    for x, y in _oracle_pairs(x_min):
        # the Laplace branch subtracts a Gaussian term of up to ~10 here,
        # so its rounding scales with that term
        tol = 2e-15 * max(1.0, float(k.gaussian_part(x, y)))
        assert abs(k.eval(x, y) - airy2_oracle[t, x, y]) <= tol, (x, y)


def _fine_rule_matrix(k, xs, panels=100):
    """K_t of ``k`` on xs x xs from a composite rule of ``panels`` 32-point
    Gauss-Legendre panels on the branch's full interval, [0, 12 - x_min],
    [0, 16 - x_min] (Laplace identity) or [-40/|t|, 0], with every
    Ai(x + xi) evaluated.  Short panels keep the weights accurate: the
    rule is ~5e-17 from 30-digit mpmath on K_1(x, x) at x ~ -1, where a
    3200-point rule in one piece is 9e-16 off."""
    t = k.t
    if t >= 0.0:
        a, b, sign = 0.0, 12.0 - k.x_min, 1.0
    elif t > -0.75:
        a, b, sign = 0.0, 16.0 - k.x_min, 1.0
    else:
        a, b, sign = 40.0 / t, 0.0, -1.0
    unit = gauss_legendre(0.0, 1.0, 32)
    h = (b - a) / panels
    nodes = (a + h * (np.arange(panels)[:, None] + unit.nodes[None, :])).ravel()
    weights = sign * h * np.tile(unit.weights, panels) * np.exp(-t * nodes)
    basis = airy_ai(xs[:, None] + nodes[None, :])
    return (basis * weights) @ basis.T - k.gaussian_part(xs[:, None], xs[None, :])


#: (t, x_min, bound): the decay and oscillatory kernels of a covariance at
#: t = 1, and the Laplace branch, whose blocks carry the rounding of its
#: Gaussian term: 1.5x the error of the doubling's finer rule, 1.97e-14 at
#: x_min = -10 and 2.35e-12 at -18
_BLOCK_CASES = [(1.0, -10.0, 3e-15), (-1.0, -10.0, 3e-15), (-0.5, -10.0, 2.95e-14),
                (-0.5, -18.0, 3.5e-12)]


@pytest.mark.parametrize("t,x_min,bound", _BLOCK_CASES)
def test_ladder_blocks_vs_fine_rule(t, x_min, bound):
    # the Nystrom blocks r_i r_j K(x_i, x_j) of every covariance level,
    # between the lowest, the middle and the highest outer threshold; the
    # Laplace kernel on the lowered domain states its Gaussian-term
    # cancellation, which the bound carries, and warns of it
    cancels = x_min < -10.0
    with pytest.warns(RuntimeWarning, match="cancellation") if cancels else nullcontext():
        k = Airy2ProcessKernel(t, x_min=x_min)
    worst = 0.0
    for m, n_outer in _COV_LEVELS["airy2"]:
        svals = gauss_legendre(x_min, DEFAULT_BOX[1], n_outer).nodes
        svals = svals[[0, n_outer // 2, n_outer - 1]]
        offsets, rr = _tan_map(m, 10.0)
        xs = (svals[:, None] + offsets[None, :]).ravel()
        r = np.tile(np.sqrt(np.diag(rr)), svals.size)
        err = np.abs(k.matrix(xs, xs) - _fine_rule_matrix(k, xs))
        worst = max(worst, float(np.max(r[:, None] * r[None, :] * err)))
    assert worst <= bound


class TestAiry1ProcessKernel:
    def test_t_zero(self):
        k = Airy1ProcessKernel(0.0)
        assert k.eval(1.0, 0.5) == pytest.approx(airy_ai(1.5), rel=1e-14, abs=0)

    def test_gaussian_term_on_diagonal(self):
        t = 0.8
        k = Airy1ProcessKernel(t)
        x = 1.3
        airy_part = airy_ai(2 * x + t * t) * math.exp(t * 2 * x + 2 * t ** 3 / 3)
        assert k.eval(x, x) == pytest.approx(
            airy_part - 1.0 / math.sqrt(4 * math.pi * t), rel=1e-13, abs=0)

    def test_frozen_value(self):
        # 30-digit offline composition at t=0.5, x=1, y=2
        k = Airy1ProcessKernel(0.5)
        assert k.eval(1.0, 2.0) == pytest.approx(-0.221704459441966756233448654297,
                                                 rel=1e-13, abs=0)

    def test_negative_t_branch(self):
        k = Airy1ProcessKernel(-0.5)
        x, y = -1.0, 0.5
        ref = airy_ai(x + y + 0.25) * math.exp(-0.5 * (x + y) + 2 * (-0.5) ** 3 / 3)
        assert k.eval(x, y) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_no_overflow_at_large_negative_sum(self):
        # t(x+y) huge and positive: the scaled-Airy path must stay finite
        k = Airy1ProcessKernel(2.5)
        v = k.eval(600.0, 650.0)
        assert math.isfinite(v)
        assert v == pytest.approx(-math.exp(-(50.0) ** 2 / 10.0) / math.sqrt(10 * math.pi),
                                  abs=1e-300)


    @pytest.mark.parametrize("t", [0.5, -0.7, 2.5])
    def test_matrix_pair_matches_both_kernels(self, t):
        # a row of joint-table blocks from the factors, as a joint at t
        # takes them (at |t|): A_ij = rr K_t(x_i, x_j), the heat term
        # subtracted in full, and A_ji = rr K_{-t}(x_j, x_i); measured 3.8 eps
        # of max(1, |K|) and 1.2e-15 of K_{-t}'s envelope
        t = abs(t)
        s = np.array([-5.5, -2.5, -1.0, 0.3, 4.0])
        level = rmt._Level("airy1", s, 20, 10.0, [(i, j) for i in range(5) for j in range(i, 5)])
        tab = rmt._JointTable(t, rmt._process_kernels("airy1", t, s[0]), level)
        # the second threshold's row of the triangle: the pairs (s_1, s_j), j >= 1
        a_ij, a_ji = tab._blocks(level.rows[1])
        x, rr = level.x, level.rr
        kt = Airy1ProcessKernel(t).matrix(x[1], x[1:])
        assert np.all(np.abs(a_ij - rr * kt) <= rmt._FACTOR_TOL * rr * np.maximum(1.0, np.abs(kt)))
        kmt = Airy1ProcessKernel(-t).matrix(x[1:], x[1])
        with np.errstate(under="ignore"):
            envelope = np.exp(-t * (x[1:, :, None] + x[1]) - 2.0 * t ** 3 / 3.0)
        assert np.all(np.abs(a_ji - rr * kmt) <= 2e-14 * rr * envelope)

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    def test_large_t_matches_extended_precision(self, t):
        # the Airy part's exponent t(x+y) + 2t^3/3 - (2/3) v^(3/2) nearly
        # cancels at large t; summed term by term it erred by 1.1e-13 at
        # t = 10 and 8.3e-13 at t = 20.  At x - y = 100 the heat term is
        # below 1e-50 of the kernel, so the error is the Airy part's
        k = Airy1ProcessKernel(t)
        xy = np.linspace(-8.0, 30.0, 77)
        x, y = (xy + 100.0) / 2.0, (xy - 100.0) / 2.0
        got = k.eval(x, y)
        with mpmath.workdps(50):
            for xi, yi, gi in zip(x, y, got):
                xm, ym, tm = mpmath.mpf(xi), mpmath.mpf(yi), mpmath.mpf(t)
                airy = mpmath.airyai(xm + ym + tm ** 2) * mpmath.exp(tm * (xm + ym) + 2 * tm ** 3 / 3)
                ref = airy - mpmath.exp(-(xm - ym) ** 2 / (4 * tm)) / mpmath.sqrt(4 * mpmath.pi * tm)
                assert abs(gi - ref) <= 6e-14 * abs(ref)

    @pytest.mark.parametrize("t", [1e2, 1e3, 1e4, 1e6])
    def test_airy_part_at_very_large_t_vs_mpmath(self, t):
        # the exponent's factor d = sqrt(x + y + t^2) - t cancels when
        # subtracted: relative errors of 1.1e3, 7.7e3, 9.9e4 and 6.5e6 eps
        # here, formed so; as (x + y) / (w + t), measured at most 2 eps
        k = Airy1ProcessKernel(t)
        xs = np.linspace(-6.0, 20.0, 14)
        got = k.airy_part(xs[:, None], xs)
        with mpmath.workdps(40):
            tm = mpmath.mpf(t)
            for i, x in enumerate(xs):
                for j, y in enumerate(xs):
                    xy = mpmath.mpf(x) + mpmath.mpf(y)
                    ref = mpmath.airyai(xy + tm ** 2) * mpmath.exp(tm * xy + 2 * tm ** 3 / 3)
                    assert abs(got[i, j] - ref) <= 4.0 * np.finfo(float).eps * ref, (x, y)

    def test_eval_is_airy_part_less_gaussian_part(self):
        x, y = np.meshgrid(np.linspace(-6.0, 8.0, 15), np.linspace(-5.0, 9.0, 15))
        for t in (0.7, 0.0, -0.7):
            k = Airy1ProcessKernel(t)
            assert np.array_equal(k.eval(x, y), k.airy_part(x, y) - k.gaussian_part(x, y))
        assert Airy1ProcessKernel(-0.7).gaussian_part(x, y) == 0.0


class TestAiry1Factors:
    """The factors ``rmt`` takes for the Airy(1) kernels K_t and K_{-t}
    (``rmt._airy1_kernels``), against the kernels' own ``matrix``."""

    @pytest.mark.parametrize("x_min", [-10.0, -6.0, -3.0])
    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0, 2.5, 10.0, 20.0])
    def test_factors_match_matrix(self, t, x_min):
        # random pairs on the factors' domain, not the build's probe grid;
        # every tested t and x_min has a factor (no ArithmeticError)
        kt, kmt = rmt._airy1_kernels(t, x_min)
        assert (kt.x_min, kt.x_max) == (kmt.x_min, kmt.x_max) == (x_min, rmt._airy1_cut(t) - x_min)
        x, y = np.random.default_rng(7).uniform(x_min, kt.x_max, (2, 400))
        # K_t: the factored Airy part less the heat term in full, relative
        # to max(1, |K|) as the build checks it (measured: up to 13.7 eps)
        got = (kt.basis(x) * kt.inner_weights) @ kt.basis(y).T - kt.gaussian_part(x[:, None], y)
        want = Airy1ProcessKernel(t).matrix(x, y)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= rmt._FACTOR_TOL
        # K_{-t} reaches 4.5e7 at t = 1, x_min = -10: relative to its
        # envelope e^{-t(x+y) - 2t^3/3}, which the row scaling carries
        # exactly (measured: up to 4.6e-15)
        got = (kmt.basis(x) * kmt.inner_weights) @ kmt.basis(y).T
        want = Airy1ProcessKernel(-t).matrix(x, y)
        with np.errstate(under="ignore"):
            envelope = np.exp(-t * (x[:, None] + y) - 2.0 * t ** 3 / 3.0)
        assert np.all(np.abs(got - want) <= 2e-14 * envelope)

    def test_rows_past_x_max_are_zero(self):
        kt, kmt = rmt._airy1_kernels(1.0, -6.0)
        x = np.array([-6.0, kt.x_max, np.nextafter(kt.x_max, np.inf), kt.x_max + 5.0, 1e3])
        for factor in (kt, kmt):
            rows = factor.basis(x)
            assert rows.shape == (5, factor.inner_size)
            assert np.all(np.any(rows[:2] != 0.0, axis=1)) and np.all(rows[2:] == 0.0)
            with pytest.raises(ValueError, match="x_min"):
                factor.basis([-6.5])

    def test_rank_zero_at_t_20(self):
        # Ai(x + y + 400) underflows on the whole domain: an empty basis,
        # and the joint of two independent marginals
        kt, kmt = rmt._airy1_kernels(20.0, -1.0)
        assert kmt.inner_size == 0 and kt.inner_size > 0
        assert kmt.basis(np.linspace(-1.0, 10.0, 5)).shape == (5, 0)
        assert np.all(Airy1ProcessKernel(-20.0).matrix(np.linspace(-1.0, 10.0, 5),
                                                        np.linspace(-1.0, 10.0, 5)) == 0.0)
        p = rmt.airy1_joint(20.0, -1.0, 0.0, 30)
        f1, f2 = (rmt._marginal_points("airy1", [s], 30, 10.0)[2][0] for s in (-1.0, 0.0))
        assert abs(p.value - f1.value * f2.value) <= p.est_error + f1.est_error + f2.est_error

    @pytest.mark.parametrize("t", [300.0, 1e3, 1e4, 1e10, 1e19])
    def test_very_large_t_joint_is_product_of_marginals(self, t):
        # K_t's Airy part missed its factor's fit from t ~ 300 on, and the
        # joint raised ArithmeticError, while the subtraction w - t cancelled
        p = rmt.airy1_joint(t, -1.0, 0.0, 30)
        f1, f2 = (rmt._marginal_points("airy1", [s], 30, 10.0)[2][0] for s in (-1.0, 0.0))
        assert abs(p.value - f1.value * f2.value) <= p.est_error + f1.est_error + f2.est_error
        assert not p.suspect


class TestTransformedKernel:
    def test_map_values(self):
        tk = TransformedKernel(AiryKernel(), s=-2.0)
        assert tk.phi(0.0) == pytest.approx(-2.0, abs=1e-15)
        assert tk.phi(0.5) == pytest.approx(8.0, abs=1e-12)  # s + scale

    def test_dphi(self):
        tk = TransformedKernel(AiryKernel(), s=0.0, scale=10.0)
        assert tk.dphi(0.0) == pytest.approx(5.0 * math.pi, rel=1e-15, abs=0)

    def test_symmetry_when_sides_match(self):
        tk = TransformedKernel(AiryKernel(), s=-1.0)
        assert tk.hermitian
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 0.97, 200)
        y = rng.uniform(0, 0.97, 200)
        assert np.max(np.abs(tk.eval(x, y) - tk.eval(y, x))) < 1e-13

    def test_endpoint_limit_zero(self):
        tk = TransformedKernel(AiryKernel(), s=0.0)
        assert tk.eval(1.0, 0.5) == 0.0
        assert tk.eval(0.5, 1.0) == 0.0
        # approaching the endpoint the values decay to that limit
        assert abs(tk.eval(1.0 - 1e-4, 0.5)) < 1e-30

    def test_value_formula(self):
        base = AiryKernel()
        tk = TransformedKernel(base, s=-3.0, scale=7.0)
        xi, eta = 0.3, 0.6
        ref = math.sqrt(tk.dphi(xi) * tk.dphi(eta)) * base.eval(tk.phi(xi), tk.phi(eta))
        assert tk.eval(xi, eta) == pytest.approx(ref, rel=1e-15, abs=0)

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
        # each name builds its class, with the time and x_min it was given
        for name, cls in (("sine", SineKernel), ("airy", AiryKernel), ("green", GreenKernel)):
            assert type(make_kernel(name)) is cls
        k = make_kernel("airy2:1.5", x_min=-14.0)
        assert type(k) is Airy2ProcessKernel and (k.t, k.x_min) == (1.5, -14.0)
        k = make_kernel("airy1:-0.5")
        assert type(k) is Airy1ProcessKernel and k.t == -0.5

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_kernel("bogus")
        with pytest.raises(KeyError):
            make_kernel("airy2:xyz")
