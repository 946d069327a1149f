"""Properties of the one graded-algebra kernel (forms.Poly/Form and
forms.differential) on both of its alphabets: the coframe generators
with curvature symbols (n = 1, curved rules) and the seven chart
differentials with coordinate monomials."""
import pytest
from hypothesis import given, settings, strategies as st

from qcframe.forms import Form, Poly, differential
from qcframe.gauss import gr
from qcframe.heisenberg import CHART, CHART_RULES, NCOORD, monomial
from qcframe.rules import build_rules

small = st.integers(-3, 3)
chart_coeffs = st.builds(lambda re, im, expo: Poly({monomial(expo): gr(re, im)}),
                         small, small,
                         st.lists(st.integers(0, 2), min_size=NCOORD, max_size=NCOORD))


@pytest.fixture(scope="module")
def kernels():
    """alphabet name -> (rule set, strategy for coefficient polynomials)"""
    curved = build_rules(1, "curved")
    ext = curved.ext
    symbols = [Poly.const(1), ext.sym("P"), ext.sym("R"), ext.sym("C", (2,)),
               ext.sym("M", (1, 2), conj=True), ext.sym("V", (1, 1, 2)),
               ext.sym("S", (1, 2, 2, 2), conj=True)]
    coframe_coeffs = st.builds(lambda re, im, s: s.scale(gr(re, im)),
                               small, small, st.sampled_from(symbols))
    return {"coframe": (curved, coframe_coeffs), "chart": (CHART_RULES, chart_coeffs)}


def homogeneous(ext, coeffs, max_degree=3):
    """(k, a k-form over ext with up to three terms)"""
    ngen = len(ext.labels)

    @st.composite
    def build(draw):
        k = draw(st.integers(0, max_degree))
        out = Form(ext)
        for _ in range(draw(st.integers(1, 3))):
            gens = draw(st.lists(st.integers(0, ngen - 1), min_size=k, max_size=k,
                                 unique=True))
            out = out + Form(ext, {tuple(sorted(gens)): draw(coeffs)})
        return k, out
    return build()


ALPHABETS = pytest.mark.parametrize("alphabet", ["coframe", "chart"])


@ALPHABETS
@given(data=st.data())
def test_wedge_associative_and_graded_commutative(kernels, alphabet, data):
    rules, coeffs = kernels[alphabet]
    forms = homogeneous(rules.ext, coeffs)
    (k, a), (l, b), (_, c) = data.draw(forms), data.draw(forms), data.draw(forms)
    assert ((a ^ b) ^ c) == (a ^ (b ^ c))
    assert (a ^ b) == (b ^ a).scale(gr((-1) ** (k * l)))


@ALPHABETS
@settings(max_examples=60)
@given(data=st.data())
def test_differential_leibniz(kernels, alphabet, data):
    rules, coeffs = kernels[alphabet]
    forms = homogeneous(rules.ext, coeffs, max_degree=2)
    (k, a), (_, b) = data.draw(forms), data.draw(forms)
    lhs = differential(a ^ b, rules)
    rhs = (differential(a, rules) ^ b) + (a ^ differential(b, rules)).scale(gr((-1) ** k))
    assert lhs == rhs


@given(homogeneous(CHART, chart_coeffs, max_degree=NCOORD))
def test_chart_d_squared_zero(kf):
    _, f = kf
    assert differential(differential(f, CHART_RULES), CHART_RULES).is_zero()


@given(homogeneous(CHART, chart_coeffs, max_degree=2),
       homogeneous(CHART, chart_coeffs, max_degree=2),
       st.dictionaries(st.integers(0, NCOORD - 1), chart_coeffs, max_size=3))
def test_chart_interior_is_an_antiderivation(ka, kb, v):
    """i_v(a ^ b) = i_v(a) ^ b + (-1)^k a ^ i_v(b) for a k-form a."""
    (k, a), (_, b) = ka, kb
    assert (a ^ b).interior(v) == ((a.interior(v) ^ b)
                                   + (a ^ b.interior(v)).scale(gr((-1) ** k)))


@given(st.lists(chart_coeffs, min_size=4, max_size=4))
def test_chart_eval_fields_is_the_determinant_pairing(ps):
    """(dx1 ^ dx2)(X, Y) = X1 Y2 - X2 Y1."""
    p, q, r, s = ps
    X, Y = {0: p, 1: q}, {0: r, 1: s}
    w = Form(CHART, {(0, 1): Poly.const(1)})
    assert w.eval_fields(X, Y) == p * s - q * r
