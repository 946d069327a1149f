"""Seeded property tests of the sp(n+1,1) model at n = 1, 2 and
signature (1, 1): the bracket is antisymmetric and the ad-trace Killing
form is ad-invariant, on sparse elements with small Gaussian-rational
coordinates."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
