import itertools
import random
from fractions import Fraction

import pytest

from qcframe.forms import FAMILIES, Exterior, Form, Poly, differential
from qcframe.gauss import gr
from qcframe.rules import build_rules
from qcframe import coframe

I = gr(0, 1)


@pytest.fixture(scope="module")
def ext():
    return Exterior(1)


@pytest.fixture(scope="module")
def flat_rules():
    return build_rules(1, "flat")


@pytest.fixture(scope="module")
def curved_rules():
    return build_rules(1, "curved")


def test_wedge_nilpotent(ext):
    th = ext.gen(("theta", 1, False))
    assert (th ^ th).is_zero()


def test_wedge_graded_commutativity(ext):
    a = ext.gen(("eta", 1))
    b = ext.gen(("theta", 1, False))
    assert ((a ^ b) + (b ^ a)).is_zero()


def test_wedge_bilinearity_example(ext):
    e1, e2 = ext.gen(("eta", 1)), ext.gen(("eta", 2))
    lhs = (e1 + e2) ^ (e1 - e2)
    assert lhs == (e1 ^ e2).scale(-2)


def test_wedge_degree_additivity(ext):
    a = ext.gen(("eta", 1)) ^ ext.gen(("eta", 2))
    b = ext.gen(("theta", 1, False))
    assert (a ^ b).degrees() == [3]


def _random_form(rng, ext, degree, symbols=False):
    out = ext.zero()
    gens = list(range(len(ext.keys)))
    for _ in range(4):
        mono = sorted(rng.sample(gens, degree))
        coeff = gr(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        poly = Poly.const(coeff)
        if symbols and rng.random() < 0.7:
            fam = rng.choice(["S", "V", "L", "M", "C", "H", "P", "Q", "R"])
            from qcframe.forms import FAMILIES
            arity = FAMILIES[fam][0]
            idx = tuple(rng.randint(1, 2) for _ in range(arity))
            poly = poly * ext.sym(fam, idx, conj=rng.random() < 0.5)
        term = ext.scalar(poly)
        for g in mono:
            term = term ^ Form(ext, {1 << g: Poly.const(1)})
        out = out + term
    return out


@pytest.mark.parametrize("mode", ["flat", "curved"])
def test_leibniz_random_pairs(mode, flat_rules, curved_rules):
    rules = flat_rules if mode == "flat" else curved_rules
    ext = rules.ext
    rng = random.Random(17)
    for _ in range(100):
        da, db_deg = rng.randint(1, 2), rng.randint(1, 2)
        a = _random_form(rng, ext, da, symbols=(mode == "curved"))
        b = _random_form(rng, ext, db_deg, symbols=(mode == "curved"))
        lhs = differential(a ^ b, rules)
        sign = gr((-1) ** da)
        rhs = (differential(a, rules) ^ b) + (a ^ differential(b, rules)).scale(sign)
        assert (lhs - rhs).is_zero()


def test_d_of_constant_is_zero(flat_rules):
    ext = flat_rules.ext
    assert differential(ext.scalar(gr(1)), flat_rules).is_zero()


def test_d_eta1_flat_value(flat_rules):
    """d(eta1) = -phi0^eta1 - phi2^eta3 + phi3^eta2 + 2i(th1^thb1 + th2^thb2)."""
    ext = flat_rules.ext
    d = flat_rules.gen_rule(ext.gid[("eta", 1)])
    want = (-(ext.gen(("phi0",)) ^ ext.gen(("eta", 1)))
            - (ext.gen(("phi", 2)) ^ ext.gen(("eta", 3)))
            + (ext.gen(("phi", 3)) ^ ext.gen(("eta", 2)))
            + (ext.gen(("theta", 1, False)) ^ ext.gen(("theta", 1, True))).scale(2 * I)
            + (ext.gen(("theta", 2, False)) ^ ext.gen(("theta", 2, True))).scale(2 * I))
    assert (d - want).is_zero()


def test_d_eta_wedge_leibniz_manual(flat_rules):
    ext = flat_rules.ext
    e1, e2 = ext.gen(("eta", 1)), ext.gen(("eta", 2))
    lhs = differential(e1 ^ e2, flat_rules)
    rhs = (flat_rules.gen_rule(ext.gid[("eta", 1)]) ^ e2) \
        - (e1 ^ flat_rules.gen_rule(ext.gid[("eta", 2)]))
    assert (lhs - rhs).is_zero()


def test_conj_involution_on_random(curved_rules):
    ext = curved_rules.ext
    rng = random.Random(23)
    for _ in range(20):
        f = _random_form(rng, ext, rng.randint(1, 3), symbols=True)
        assert (f.conj().conj() - f).is_zero()


def test_conj_commutes_with_flat_differential(flat_rules):
    ext = flat_rules.ext
    for key in coframe.coord_keys(1):
        g = ext.gen(key)
        lhs = differential(g, flat_rules).conj()
        rhs = differential(g.conj(), flat_rules)
        assert (lhs - rhs).is_zero()


def test_conj_of_real_generators(flat_rules):
    ext = flat_rules.ext
    for key in [("eta", 1), ("phi0",), ("psi", 3)]:
        g = ext.gen(key)
        assert (g.conj() - g).is_zero()


def test_reality_of_deta2_flat(flat_rules):
    ext = flat_rules.ext
    d = flat_rules.gen_rule(ext.gid[("eta", 2)])
    assert (d.conj() - d).is_zero()


def test_substitute_identity_and_zero(curved_rules):
    ext = curved_rules.ext
    rng = random.Random(31)
    f = _random_form(rng, ext, 2, symbols=True)
    from qcframe.rules import substitute_flat
    g = substitute_flat(f)
    for poly in g.terms.values():
        for mono in poly.terms:
            assert not mono  # no symbols left


def test_symbol_canonicalization_symmetry(ext):
    a = ext.sym("S", (2, 1, 1, 2))
    b = ext.sym("S", (1, 1, 2, 2))
    assert a == b


def test_symbol_orderings_are_canonicalized_once(monkeypatch):
    """Every ordering of a symmetric family's indices is canonicalized
    once and gets the one cached polynomial (its j-image likewise), equal
    to what a fresh Exterior gives; an unsymmetrized family keeps one
    symbol per ordering."""
    ext, fresh = Exterior(2), Exterior(2)
    calls = []
    canonical = Exterior._canonical_sym

    def counted(self, *args):
        calls.append(args)
        return canonical(self, *args)

    monkeypatch.setattr(Exterior, "_canonical_sym", counted)
    cases = [(family, list(itertools.permutations((4, 1, 3, 2)[:FAMILIES[family][0]])))
             for family in ("S", "V", "M")]
    for family, orders in cases:
        for conj in (False, True):
            calls.clear()
            polys = [ext.sym(family, idx, conj) for idx in orders]
            assert len(calls) == 1 and all(p is polys[0] for p in polys), (family, conj)
            assert polys[0] == fresh.sym(family, orders[0], conj)
    for family, orders in cases:
        jimages = [ext.jsym(family, idx) for idx in orders]
        assert all(p is jimages[0] for p in jimages), family
        assert jimages[0] == fresh.jsym(family, orders[0])
    assert ext.sym("Sns", (1, 2, 3, 4)) != ext.sym("Sns", (2, 1, 3, 4))


def test_jreal_conj_rewrite(ext):
    # conj of a j-real family symbol folds back to the family
    p = ext.sym("S", (1, 1, 2, 2), conj=True)
    ((sym,), coeff), = p.terms.items()
    assert not sym.conj and sym.family == "S"
    # and the rewrite squares to the identity
    q = ext.conj_poly(p)
    assert q == ext.sym("S", (1, 1, 2, 2))


def _conj_poly_reference(ext, p):
    """conj of a polynomial as a product: the conjugated coefficient
    times the canonical conjugate of each symbol."""
    out = Poly()
    for mono, c in p.terms.items():
        factor = Poly.const(c.conj())
        for s in mono:
            factor = factor * ext.sym(s.family, s.idx, conj=not s.conj)
        out = out + factor
    return out


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_conj_poly_matches_the_product_formula(n, signature):
    """The tabulated symbol conjugation gives the same polynomial, key
    order included, for every family and conjugation flag; and twice is
    the identity."""
    e = Exterior(n, signature)
    rng = random.Random(19 + n)
    syms = []
    for fam in ("S", "V", "L", "M", "C", "H", "P", "Q", "R", "sA", "sN1", "Vns"):
        arity = FAMILIES[fam][0]
        for _ in range(3):
            idx = tuple(rng.randint(1, 2 * n) for _ in range(arity))
            syms.append(e.sym(fam, idx, conj=rng.random() < 0.5))
    for _ in range(30):
        p = Poly.const(gr(rng.randint(-3, 3), rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 4)):
            term = Poly.const(gr(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2)))
            for _ in range(rng.randint(1, 3)):
                term = term * rng.choice(syms)
            p = p + term
        got = e.conj_poly(p)
        want = _conj_poly_reference(e, p)
        assert list(got.terms.items()) == list(want.terms.items())
        assert e.conj_poly(got) == p


def test_j_of_jreal_family_is_identity(ext):
    assert ext.jsym("S", (1, 2, 2, 2)) == ext.sym("S", (1, 2, 2, 2))
    assert ext.jsym("L", (1, 2)) == ext.sym("L", (1, 2))


def test_real_scalar_conj(ext):
    assert ext.sym("R", (), conj=True) == ext.sym("R", ())


def test_missing_rule_errors(flat_rules):
    ext = flat_rules.ext
    f = ext.scalar(ext.sym("P", ()))
    with pytest.raises(KeyError):
        differential(f, flat_rules)


def test_generator_outside_alphabet_is_key_error(flat_rules):
    for g in (len(flat_rules.ext.labels), -1):
        with pytest.raises(KeyError, match=f"generator index {g} "):
            flat_rules.gen_rule(g)


def test_serialization_deterministic(curved_rules):
    ext = curved_rules.ext
    rng = random.Random(5)
    f = _random_form(rng, ext, 2, symbols=True)
    assert f.to_text() == f.to_text()
    assert Form(ext).to_text() == "0"
    # canonical zero detection
    g = f - f
    assert g.is_zero() and g.to_text() == "0"


def test_wedge_associative_random(ext):
    rng = random.Random(41)
    for _ in range(20):
        a = _random_form(rng, ext, rng.randint(1, 2), symbols=True)
        b = _random_form(rng, ext, 1, symbols=True)
        c = _random_form(rng, ext, rng.randint(1, 2), symbols=True)
        assert (((a ^ b) ^ c) - (a ^ (b ^ c))).is_zero()
