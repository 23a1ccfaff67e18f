"""Length-function identities that tie the trace side to the tree side.

translation_length reads l(g) = -2 min(0, v(tr g)) off the trace alone;
act, distance and axis_segment are tree combinatorics.  For a hyperbolic
g and any vertex x, d(x, g x) = l(g) + 2 d(x, A_g), where A_g is the axis
(Serre, Trees, I.6.4; Culler-Morgan 1987, section 1).  Lengths of
powers are linear: l(w^n) = |n| l(w).
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from sl2trees import (
    Presentation, PrimeContext, Representation, SL2Matrix, TreeVertex, Word, act,
    axis_segment, distance, length_of, translation_length)


def products(draw, ctx):
    """A product of elementary and diagonal factors, with p-power,
    prime-to-p and mixed denominators."""
    p = ctx.p
    g = SL2Matrix.identity(ctx)
    for kind in draw(st.lists(st.sampled_from("ulp"), min_size=1, max_size=5)):
        if kind == "p":
            k = draw(st.integers(-3, 3))
            g = g * SL2Matrix(((Fraction(p) ** k, 0), (0, Fraction(p) ** -k)), ctx)
        else:
            den = draw(st.sampled_from((1, 7, p, p ** 2, 7 * p)))
            t = Fraction(draw(st.integers(-9, 9)), den)
            g = g * SL2Matrix(((1, t), (0, 1)) if kind == "u" else ((1, 0), (t, 1)), ctx)
    return g


@st.composite
def hyperbolic_cases(draw):
    """(g, x): g a product over p in {2, 3, 5} that translates; x a vertex
    within a few levels of (0; 0)."""
    p = draw(st.sampled_from((2, 3, 5)))
    ctx = PrimeContext(p)
    g = products(draw, ctx)
    assume(translation_length(g) > 0)
    e = draw(st.integers(0, 3))
    center = Fraction(draw(st.integers(-p ** 4, p ** 4)), p ** e)
    return g, TreeVertex(draw(st.integers(-4, 4)), center, ctx)


@settings(max_examples=200, deadline=None)
@given(hyperbolic_cases())
def test_displacement_is_length_plus_twice_the_distance_to_the_axis(case):
    g, x = case
    ell = translation_length(g)
    # the window runs ceil(window / 2) * ell edges each way from the
    # projection of (0; 0); projection onto the axis is 1-Lipschitz, so
    # x's projection lies within d((0; 0), x) of it, inside the window
    origin = TreeVertex(0, 0, x.context)
    axis = axis_segment(g, 2 * distance(origin, x) + 2).vertices
    # the identity at the window's two ends, which lie on the axis, puts
    # the whole window on it, as the window is one geodesic
    assert [distance(v, act(g, v)) for v in (axis[0], axis[-1])] == [ell, ell]
    gaps = [distance(x, v) for v in axis]
    nearest = min(gaps)
    assert 0 < gaps.index(nearest) < len(axis) - 1
    assert distance(x, act(g, x)) == ell + 2 * nearest


@st.composite
def power_cases(draw):
    """(rep, w, n): a free rank-2 rep of two products over p in {2, 3, 5},
    a word of up to 6 letters, not necessarily reduced, and n in -8..8."""
    ctx = PrimeContext(draw(st.sampled_from((2, 3, 5))))
    rep = Representation(Presentation.free(2),
                         {"a": products(draw, ctx), "b": products(draw, ctx)})
    letters = draw(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=6))
    return rep, Word(tuple(letters)), draw(st.integers(-8, 8))


@settings(max_examples=200, deadline=None)
@given(power_cases())
def test_length_of_a_power_is_linear(case):
    # l(w^n) = |n| l(w): l(g) = 2 |v(lambda)| for an eigenvalue lambda of
    # g, in an extension of the valuation, and g^n has eigenvalue lambda^n
    rep, w, n = case
    power = Word((w if n >= 0 else w.inverse()).letters * abs(n))
    ell = length_of(rep, w)
    assert length_of(rep, power) == abs(n) * ell
    # length_of folds scaled tuples, translation_length reads an SL2Matrix:
    # both read the length off one helper
    for u in (w, power):
        assert length_of(rep, u) == translation_length(rep.evaluate(u))
