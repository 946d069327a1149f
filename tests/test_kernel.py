"""Properties of the one graded-algebra kernel (forms.Poly/Form and
forms.differential) on both of its alphabets: the coframe generators
with curvature symbols (n = 1, curved rules) and the seven chart
differentials with coordinate monomials.  A small synthetic alphabet,
whose generator rules mix degree-1 and degree-3 terms, covers the signs
that the real rule sets (all of even degree) never exercise."""
import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qcframe.forms import Alphabet, DRuleSet, Form, Poly, Sym, _gens, differential
from qcframe.gauss import GaussRational, gr
from qcframe.heisenberg import CHART, CHART_RULES, NCOORD, dx, heisenberg_qc, monomial
from qcframe.rules import build_rules, d_square_report, star_forms

from test_rule_digest import CONFIGS

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
    return {"coframe": (curved, coframe_coeffs), "chart": (CHART_RULES, chart_coeffs),
            "synthetic": synthetic_kernel()}


SYNTHETIC_SYMBOLS = [Sym(f, (), False) for f in ("P", "Q", "R")]
DENOMINATORS = (1, 2, 3, 5, 7)


def synthetic_kernel():
    """Six generators a0..a5 and three scalar symbols.  Every generator
    rule has terms of degree 1 and 3, the symbol rules terms of degree 1
    and 2; all coefficients are fixed pseudo-random polynomials whose terms
    have denominators 1, 2, 3, 5 and 7, mixed within one polynomial, and
    so are the coefficients of the forms drawn."""
    rng = random.Random(11)
    ext = Alphabet(f"a{g}" for g in range(6))

    def poly():
        out = Poly()
        for _ in range(2):
            mono = tuple(sorted(rng.sample(SYNTHETIC_SYMBOLS, rng.randint(0, 2))))
            c = GaussRational.from_ints(rng.randint(-3, 3), rng.randint(-3, 3),
                                        rng.choice(DENOMINATORS))
            out = out + Poly({mono: c})
        return out

    def form(degrees):
        out = Form(ext)
        for k in degrees:
            out = out + Form(ext, {sum(1 << g for g in rng.sample(range(6), k)): poly()})
        return out

    gen_rules = {g: form((1, 3, 1, 3)) for g in range(6)}
    sym_rules = {s: form((1, 2)) for s in SYNTHETIC_SYMBOLS}
    rules = DRuleSet(ext, gen_rules, sym_rules.__getitem__)
    term = st.builds(lambda re, im, d, mono: Poly({tuple(sorted(mono)):
                                                    GaussRational.from_ints(re, im, d)}),
                     small, small, st.sampled_from(DENOMINATORS),
                     st.lists(st.sampled_from(SYNTHETIC_SYMBOLS), max_size=2))
    coeffs = st.lists(term, min_size=1, max_size=3).map(lambda ps: sum(ps, Poly()))
    return rules, coeffs


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
            out = out + Form(ext, {sum(1 << g for g in gens): draw(coeffs)})
        return k, out
    return build()


ALPHABETS = pytest.mark.parametrize("alphabet", ["coframe", "chart"])


def literal_d(x, rules):
    """The exterior derivative as written: for each term p mono with
    mono = lead ^ g ^ tail (g the i-th generator), the sum of
    (-1)^i lead ^ d(g) ^ tail times p, plus d(p) ^ mono, all through the
    public wedge."""
    ext = x.ext
    out = Form(ext)
    for mono, p in x.terms.items():
        unit_mono = Form(ext, {mono: Poly.const(1)})
        for smono, c in p.terms.items():
            for k, s in enumerate(smono):
                rest = Poly({smono[:k] + smono[k + 1:]: c})
                out = out + (rules.sym_rule(s).scale(rest) ^ unit_mono)
        for i, g in enumerate(_gens(mono)):
            lead = Form(ext, {mono & ((1 << g) - 1): p})
            tail = Form(ext, {mono >> (g + 1) << (g + 1): Poly.const(1)})
            out = out + (lead ^ rules.gen_rule(g) ^ tail).scale(gr((-1) ** i))
    return out


def assert_canonical(f):
    """No empty coefficient, no zero term, every scalar a reduced triple."""
    for mono, p in f.terms.items():
        assert p.terms, mono
        for c in p.terms.values():
            assert (c.a or c.b) and c.d > 0 and gcd(c.a, c.b, c.d) == 1, (mono, c)


@pytest.mark.parametrize("alphabet", ["coframe", "chart", "synthetic"])
@settings(max_examples=60)
@given(data=st.data())
def test_differential_matches_literal_leibniz(kernels, alphabet, data):
    """The fused derivative equals the literal one and is canonical; on
    the synthetic alphabet, whose coefficients mix denominators, this fails
    if the factor (-1)^(i |r|) is dropped."""
    rules, coeffs = kernels[alphabet]
    _, x = data.draw(homogeneous(rules.ext, coeffs))
    got = differential(x, rules)
    assert_canonical(got)
    assert got == literal_d(x, rules)


def test_differential_rejects_rules_of_another_alphabet(kernels):
    curved, _ = kernels["coframe"]
    with pytest.raises(ValueError, match="different alphabets"):
        differential(dx(0), curved)
    with pytest.raises(ValueError, match="different alphabets"):
        differential(curved.ext.gen(("eta", 1)), CHART_RULES)
    # an equal but distinct alphabet is another alphabet too
    with pytest.raises(ValueError, match="different alphabets"):
        differential(build_rules(1, "curved").ext.gen(("eta", 1)), curved)


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
    w = Form(CHART, {1 << 0 | 1 << 1: Poly.const(1)})
    assert w.eval_fields(X, Y) == p * s - q * r


def _merge_reference(m1, m2):
    """Sort the concatenation and count inversions for the sign; None if
    a generator repeats."""
    if set(m1) & set(m2):
        return None
    seq = m1 + m2
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return (-1) ** inversions, tuple(sorted(seq))


def test_wedge_sign_exhaustive():
    """Every pair of monomials of 0-3 generators on seven letters, as
    unit forms through Form.wedge, against sorting plus permutation
    parity; then the same on seven letters of which four lie at index 64
    and above, so masks and crossing counts pass one machine word."""
    ext = Alphabet(f"a{g}" for g in range(70))

    def unit(gens, sign=1):
        return Form(ext, {sum(1 << g for g in gens): Poly.const(sign)})

    for letters in (range(7), (0, 5, 63, 64, 65, 68, 69)):
        tuples = [t for k in range(4) for t in itertools.combinations(letters, k)]
        for m1 in tuples:
            for m2 in tuples:
                merged = _merge_reference(m1, m2)
                want = Form(ext) if merged is None else unit(merged[1], merged[0])
                assert unit(m1) ^ unit(m2) == want, (m1, m2)


def test_every_term_key_is_a_mask():
    """One generator-monomial format: every Form the program builds is
    keyed by int masks, whether made by the rule builders, decoded from
    an integer view (the conjugate symbol rules), summed by differential
    or built on the chart."""
    forms = []
    for n in (1, 2):
        for config in CONFIGS.values():
            forms += build_rules(n, **config).gen_rules.values()
    curved = build_rules(1, "curved")
    d_square_report(curved)
    reached = [key for key in curved._views if isinstance(key, Sym)]
    assert any(s.conj for s in reached) and any(not s.conj for s in reached)
    forms += [curved.sym_rule(s) for s in reached]
    forms += star_forms(1).values()
    etas = heisenberg_qc().etas
    forms += etas + [differential(eta, CHART_RULES) for eta in etas]
    assert len(forms) > 200
    for f in forms:
        assert f.terms and all(type(m) is int for m in f.terms), f
