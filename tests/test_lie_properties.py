"""Seeded property tests of the sp(n+1,1) model at n = 1, 2 and
signature (1, 1): the bracket is antisymmetric and the ad-trace Killing
form is ad-invariant, on sparse elements with small Gaussian-rational
coordinates; LieCoord's +, - and scale agree with plain dict arithmetic."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcframe import coframe
from qcframe.gauss import gr
from qcframe.model import LieCoord

MODELS = [(1, None), (2, None), (2, (1, 1))]


def elements(m):
    entry = st.tuples(st.sampled_from(m.keys), st.integers(-3, 3),
                      st.integers(-3, 3), st.integers(1, 3))
    return st.lists(entry, min_size=1, max_size=12).map(lambda es: LieCoord(
        m.n, {k: gr(Fraction(re, d), Fraction(im, d)) for k, re, im, d in es}))


@pytest.mark.parametrize("n, signature", MODELS)
@settings(max_examples=60)
@given(data=st.data())
def test_bracket_antisymmetric(model_for, n, signature, data):
    m = model_for(n, signature)
    a, b = data.draw(elements(m)), data.draw(elements(m))
    assert m.bracket(a, b) == -m.bracket(b, a)


@pytest.mark.parametrize("n, signature", MODELS)
@settings(max_examples=60)
@given(data=st.data())
def test_killing_trace_ad_invariant(model_for, n, signature, data):
    """B([x, a], b) + B(a, [x, b]) = 0 for the ad-trace Gram."""
    m = model_for(n, signature)
    x, a, b = (data.draw(elements(m)) for _ in range(3))
    B = m.killing_trace
    assert (B(m.bracket(x, a), b) + B(a, m.bracket(x, b))).is_zero()


def raw_entries(m):
    """(key, value) pairs; a Gam key may come in either index order and a
    value may be zero."""
    def key(k, flip):
        return ("Gam", k[2], k[1]) if flip and k[0] == "Gam" else k
    entry = st.tuples(st.sampled_from(m.keys), st.booleans(), st.integers(-2, 2),
                      st.integers(-2, 2), st.integers(1, 3))
    return st.lists(entry, max_size=12).map(lambda es: [
        (key(k, flip), gr(Fraction(re, d), Fraction(im, d))) for k, flip, re, im, d in es])


def _canonical(key):
    return coframe.gam_key(key[1], key[2]) if key[0] == "Gam" else key


def _built(n, entries):
    """The element and its plain-dict reference, entry by entry through set."""
    x, ref = LieCoord(n), {}
    for k, v in entries:
        x.set(k, v)
        ref[_canonical(k)] = v
    return x, {k: v for k, v in ref.items() if not v.is_zero()}


def _combined(ra, rb, sign):
    out = {}
    for k in ra.keys() | rb.keys():
        v = ra.get(k, gr(0)) + sign * rb.get(k, gr(0))
        if not v.is_zero():
            out[k] = v
    return out


def _canonical_and_nonzero(x):
    return all(_canonical(k) == k and not v.is_zero() for k, v in x.c.items())


@pytest.mark.parametrize("n, signature", MODELS[:2])
@settings(max_examples=80)
@given(data=st.data())
def test_liecoord_arithmetic_matches_dicts(model_for, n, signature, data):
    m = model_for(n, signature)
    a, ra = _built(n, data.draw(raw_entries(m)))
    # b shares some of a's keys with the opposite value, so sums cancel
    cancel = data.draw(st.lists(st.sampled_from(sorted(ra, key=str)), unique=True)
                       if ra else st.just([]))
    b, rb = _built(n, data.draw(raw_entries(m)) + [(k, -ra[k]) for k in cancel])
    s = data.draw(st.sampled_from([gr(0), gr(1), gr(-1), gr(Fraction(2, 3), -1)]))
    assert a.c == ra and b.c == rb
    for got, want in ((a + b, _combined(ra, rb, 1)), (a - b, _combined(ra, rb, -1)),
                      (a.scale(s), {k: s * v for k, v in ra.items() if not s.is_zero()})):
        assert got.c == want
        assert _canonical_and_nonzero(got)
    assert (a + -a).is_zero() and (a - a).is_zero() and a.scale(0).is_zero()
    assert a.scale(1) == a and a + LieCoord(n) == a
    assert a.c == ra and b.c == rb  # the operands are left as they were
