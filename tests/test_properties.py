"""Property tests (hypothesis), derandomized so that every run draws the
same examples: the time-reversal symmetries of single joints, the
invariance of F2 under the tan map's scale, and the affine covariance of
the quadrature rules.  The closed-form least norm of a joint system is
checked in test_rmt.py."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fredet import rmt
from fredet.quadrature import clenshaw_curtis, gauss_legendre

EPS = np.finfo(float).eps

derandomized = settings(derandomize=True, deadline=None, database=None, max_examples=25)


@derandomized
@given(t=st.floats(0.1, 2.5) | st.floats(-2.5, -0.1),
       s1=st.floats(-5.0, 3.0), s2=st.floats(-5.0, 3.0))
def test_airy1_joint_symmetric_bit_for_bit(t, s1, s2):
    # P(A(t) <= s1, A(0) <= s2) = P(A(t) <= s2, A(0) <= s1) by time
    # reversal; the joint orders its pair, so both orders give one point
    assert rmt.airy1_joint(t, s1, s2, 16) == rmt.airy1_joint(t, s2, s1, 16)


@derandomized
@given(joint=st.sampled_from([rmt.airy1_joint, rmt.airy2_joint]), t=st.floats(0.1, 2.5),
       s1=st.floats(-5.0, 3.0), s2=st.floats(-5.0, 3.0))
def test_joints_even_in_t_bit_for_bit(joint, t, s1, s2):
    # stationarity and time reversal give P(A(-t) <= s1, A(0) <= s2) =
    # P(A(t) <= s1, A(0) <= s2); both signs take the table at |t|
    plus, minus = joint(t, s1, s2, 16), joint(-t, s1, s2, 16)
    assert (minus.value, minus.est_error, minus.suspect) == (plus.value, plus.est_error,
                                                             plus.suspect)
    assert minus.parameter == -t


@derandomized
@given(s=st.floats(-8.0, 4.0), scale=st.floats(3.0, 30.0))
def test_f2_invariant_under_tan_map_scale(s, scale):
    # the determinant does not depend on the map.  Each value may also
    # round by 8 eps of itself, which its est_error leaves out: near 1 the
    # values part by up to 9 eps more than the est_errors (F2(3) at scales
    # 3 and 10: 2.0e-15 apart, est_errors 2.4e-20)
    a, b = rmt.f2_tw(s, 80, scale=scale), rmt.f2_tw(s, 80)
    assert abs(a.value - b.value) <= (a.est_error + b.est_error
                                      + 8 * EPS * (abs(a.value) + abs(b.value)))


def affine_image(a, b, unit):
    """The rule ``unit`` on [-1, 1] mapped onto [a, b] exactly, then rounded."""
    a, b = Fraction(a), Fraction(b)
    nodes = [float(a + (b - a) * (Fraction(x) + 1) / 2) for x in unit.nodes]
    weights = [float((b - a) * Fraction(w) / 2) for w in unit.weights]
    return np.array(nodes), np.array(weights)


@derandomized
@given(family=st.sampled_from([gauss_legendre, clenshaw_curtis]), m=st.integers(2, 60),
       a=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3))
def test_rules_are_affine_images_of_the_unit_rule(family, m, a, width):
    b = a + width
    rule = family(a, b, m)
    nodes, weights = affine_image(a, b, family(-1.0, 1.0, m))
    # a few ulps of the interval's magnitude for the nodes, of each weight
    assert np.all(np.abs(rule.nodes - nodes) <= 4 * EPS * max(abs(a), abs(b)))
    assert np.all(np.abs(rule.weights - weights) <= 4 * EPS * weights)
