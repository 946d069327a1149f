import ast
import gc
import inspect
import itertools
import tracemalloc

import pytest

from qcframe import cochains as cochains_module
from qcframe import heisenberg as heisenberg_module
from qcframe import rules as rules_module
from qcframe.forms import (DRuleSet, Exterior, Form, Poly, Sym, _sorted_if_symmetric,
                           differential)
from qcframe.gauss import GaussRational, gr
from qcframe.rules import (CORRECTIONS, RuleBuilder, bianchi_residuals,
                           build_rules, d_square_report, star_forms,
                           star_symmetry_check, star_two_path_check,
                           substitute_flat)
from qcframe import coframe
from qcframe.tensors import StandardConstants

I = gr(0, 1)


@pytest.fixture(scope="module")
def flat1():
    return build_rules(1, "flat")


@pytest.fixture(scope="module")
def curved1():
    return build_rules(1, "curved")


def test_build_rules_guards():
    with pytest.raises(ValueError):
        build_rules(0, "flat")
    with pytest.raises(ValueError):
        build_rules(1, "bent")
    with pytest.raises(ValueError):
        build_rules(1, "curved", tamper="nonsense")


@pytest.mark.parametrize("n", [1, 2])
def test_flat_d_square_zero(n):
    rep = d_square_report(build_rules(n, "flat"))
    assert all(v.is_zero() for v in rep.values())
    expected_gens = 10 + n * (2 * n + 1) + 4 * n
    assert len(rep) == expected_gens  # 17 at n=1, 28 at n=2


def test_curved_d_square_zero_n1(curved1):
    rep = d_square_report(curved1)
    assert all(v.is_zero() for v in rep.values())
    assert len(rep) == 17


def test_curved_d_square_zero_n2():
    rep = d_square_report(build_rules(2, "curved"))
    assert all(v.is_zero() for v in rep.values())


# the generators whose d^2 still vanishes at n = 3 under each negative
# control; d^2 fails on the other 33, 33 and 34 of the 43
N3_CONTROLS = [
    ({"tamper": "unsym-V"}, 33, {"eta1", "eta2", "eta3", "phi0", "phi1", "phi2", "phi3",
                                 "psi1", "psi2", "psi3"}),
    ({"tamper": "unsym-S"}, 33, {"eta1", "eta2", "eta3", "phi0", "phi1", "phi2", "phi3",
                                 "psi1", "psi2", "psi3"}),
    ({"published": True}, 34, {"eta1", "eta2", "eta3", "theta1", "theta2", "theta3",
                               "theta4", "theta5", "theta6"}),
]


@pytest.mark.parametrize("control, failing, passing", N3_CONTROLS,
                         ids=["unsym-V", "unsym-S", "published"])
def test_negative_controls_n3(control, failing, passing):
    """The curved certificate at n = 3 (clean rules: the verify curved --n 3
    golden) fails under each control, on these generators."""
    rep = d_square_report(build_rules(3, "curved", **control))
    assert len(rep) == 43
    assert sum(not v.is_zero() for v in rep.values()) == failing
    assert {coframe.label(k) for k, v in rep.items() if v.is_zero()} == passing


def test_flat_reduction_of_curved(curved1, flat1):
    for gid, form in curved1.gen_rules.items():
        assert (substitute_flat(form) - flat1.gen_rules[gid]).is_zero()


def test_negative_control_breaks_gamma():
    rep = d_square_report(build_rules(1, "curved", tamper="unsym-V"))
    bad = [k for k, v in rep.items() if not v.is_zero()]
    assert bad, "tampered rules must fail d^2 = 0"
    assert any(k[0] == "Gam" for k in bad)


def test_published_documents_misprints():
    """With the displays exactly as printed, d^2 = 0 fails; the
    calibrated corrections in CORRECTIONS repair precisely that."""
    rep = d_square_report(build_rules(1, "curved", published=True))
    bad = [k for k, v in rep.items() if not v.is_zero()]
    assert bad
    assert CORRECTIONS  # the correction table is non-empty and frozen
    assert str(CORRECTIONS["psi23_C2"]) == "-1*i"
    assert str(CORRECTIONS["tV_S"]) == "-1"
    assert str(CORRECTIONS["tM_H"]) == "-1"
    assert str(CORRECTIONS["tR_C2"]) == "-1"


# each correction (a paired tag together with its "x" replacement) and
# the generators whose d^2 fails at n = 1 when it is reverted to print
REVERSIONS = [
    ({"psi23_C2": 1}, {"phi0", "phi1", "phi2", "phi3", "phiup1", "phiup2",
                       "psi1", "psi2", "psi3"}),
    ({"tV_S": 1}, {"Gam11", "Gam12", "Gam22", "phiup1", "phiup2"}),
    ({"tM_H": 1}, {"Gam11", "Gam12", "Gam22", "phiup1", "phiup2", "psi2", "psi3"}),
    ({"tR_C2": 1}, {"psi1", "psi2", "psi3"}),
    ({"tP_Q": 1, "tP_Qx": 0}, {"psi1", "psi2", "psi3"}),
    ({"tP_C": 1, "tP_Cx": 0}, {"psi1", "psi2", "psi3"}),
    ({"tQ_H": 1, "tQ_Hx": 0}, {"psi2", "psi3"}),
]


def test_reversions_cover_every_correction():
    assert sorted(t for printed, _ in REVERSIONS for t in printed) == sorted(CORRECTIONS)


def _revert(monkeypatch, printed):
    """CORRECTIONS with the tags of ``printed`` set to their printed
    values, for the rest of the test."""
    for tag, value in printed.items():
        monkeypatch.setitem(rules_module.CORRECTIONS, tag, gr(value))


@pytest.mark.parametrize("printed, failing", REVERSIONS,
                         ids=["/".join(t) for t, _ in REVERSIONS])
def test_each_correction_is_necessary(printed, failing, monkeypatch):
    """Reverting one correction to its printed value breaks d^2 = 0 on
    exactly these generators; with all of them in place it holds
    (test_curved_d_square_zero_n1)."""
    _revert(monkeypatch, printed)
    rep = d_square_report(build_rules(1, "curved"))
    assert {coframe.label(k) for k, v in rep.items() if not v.is_zero()} == failing


# the same reversions at n = 2 (11, 14, 16, 3, 3, 3 and 2 generators);
# the sweep takes about 2 s, within its budget of 5 s
GAMMA2 = {f"Gam{a}{b}" for a in range(1, 5) for b in range(a, 5)}
PHIUP2 = {"phiup1", "phiup2", "phiup3", "phiup4"}
REVERSIONS_N2 = [
    ({"psi23_C2": 1}, {"phi0", "phi1", "phi2", "phi3", "psi1", "psi2", "psi3"} | PHIUP2),
    ({"tV_S": 1}, GAMMA2 | PHIUP2),
    ({"tM_H": 1}, GAMMA2 | PHIUP2 | {"psi2", "psi3"}),
    ({"tR_C2": 1}, {"psi1", "psi2", "psi3"}),
    ({"tP_Q": 1, "tP_Qx": 0}, {"psi1", "psi2", "psi3"}),
    ({"tP_C": 1, "tP_Cx": 0}, {"psi1", "psi2", "psi3"}),
    ({"tQ_H": 1, "tQ_Hx": 0}, {"psi2", "psi3"}),
]


@pytest.mark.parametrize("printed, failing", REVERSIONS_N2,
                         ids=["/".join(t) for t, _ in REVERSIONS_N2])
def test_each_correction_is_necessary_n2(printed, failing, monkeypatch):
    """The n = 1 sweep at n = 2: with every correction in place d^2 = 0
    holds (test_curved_d_square_zero_n2)."""
    assert [t for t, _ in REVERSIONS_N2] == [t for t, _ in REVERSIONS]
    _revert(monkeypatch, printed)
    rep = d_square_report(build_rules(2, "curved"))
    assert {coframe.label(k) for k, v in rep.items() if not v.is_zero()} == failing


def view_form(rules, view):
    """A DRuleSet.view read back as a Form: each term (rmask, rk, m, re,
    im) decoded to its symbol monomial through the rule set's table.  The
    key rk must be m << len(labels) | rmask, and the terms of one
    generator mask (a row) contiguous."""
    den, terms = view
    monos, shift = rules._monos, len(rules.ext.labels)
    runs = [rmask for rmask, _ in itertools.groupby(t[0] for t in terms)]
    assert len(runs) == len(set(runs)), "a row of the view is split"
    rows = {}
    for rmask, rk, m, a, b in terms:
        assert rk == m << shift | rmask, (rmask, rk, m)
        rows.setdefault(rmask, {})[monos[m]] = GaussRational.from_ints(a, b, den)
    return Form(rules.ext, {mask: Poly(coeffs) for mask, coeffs in rows.items()})


def test_interned_generators_and_symbols_stay_intact(monkeypatch):
    """Interned generator forms and one-symbol polynomials are shared by
    every rule and product; none of the rule work may change one, nor a
    generator rule Form, nor the integer view differential keeps of a
    rule.  Each symbol is interned once, under its canonical key."""
    made = []
    init = Exterior.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Exterior, "__init__", record)
    curved2 = build_rules(2, "curved")
    d_square_report(curved2)
    bianchi_residuals(1)
    star_two_path_check(1)
    star_symmetry_check(1)
    monkeypatch.undo()
    assert {ext.n for ext in made} == {1, 2}
    # 811 symbols and 271 j-images, one key each
    assert all(ext._gens for ext in made) and sum(len(ext._syms) for ext in made) > 800
    assert sum(len(ext._jsyms) for ext in made) > 250
    for ext in made:
        fresh = Exterior(ext.n, ext.consts.signature)
        for key, form in ext._gens.items():
            assert form.ext is ext and form.terms == fresh.gen(key).terms, key
        for (fam, idx, conj), p in ext._syms.items():
            assert idx == _sorted_if_symmetric(fam, idx), (fam, idx)
            assert ext.sym(fam, idx[::-1], conj) is p
            assert p.terms == fresh.sym(fam, idx, conj).terms, (fam, idx, conj)
        # the interned j-images too: each is asked for again and again
        for (fam, idx), p in ext._jsyms.items():
            assert idx == _sorted_if_symmetric(fam, idx), (fam, idx)
            assert ext.jsym(fam, idx[::-1]) is p
            assert p.terms == fresh.jsym(fam, idx).terms, (fam, idx)
    # the generator rules and the views differential read are those of a
    # fresh table after the same report, integer for integer and in order
    fresh = build_rules(2, "curved")
    d_square_report(fresh)
    for g, form in curved2.gen_rules.items():
        assert form.terms == fresh.gen_rules[g].terms, g
    views = curved2._views
    assert len(views) > len(curved2.gen_rules) and any(isinstance(k, Sym) for k in views)
    assert list(views.items()) == list(fresh._views.items())
    assert curved2._monos == fresh._monos
    # each view reads back as its rule: a generator's as the kept Form, a
    # symbol's as the transcription, made here by a builder of its own
    builder = RuleBuilder(2)
    for key, view in views.items():
        if isinstance(key, Sym):
            rule = builder.symbol_rule(key._replace(conj=False))
            rule = rule.conj() if key.conj else rule
        else:
            rule = curved2.gen_rule(key)
        assert view_form(curved2, view).terms == rule.terms, key
    # the intern table reads both ways
    assert curved2._monos[0] == () and len(curved2._ids) == len(curved2._monos)
    assert all(curved2._ids[m] == i for i, m in enumerate(curved2._monos))


def test_symbol_rules_are_kept_only_as_views():
    """After the curved d^2 report no attribute of the rule set maps a
    symbol to a Form: a symbol rule is held once, as its view, and
    sym_rule decodes that view, term for term in the transcription's
    order.  Negative control: one entry of one symbol view negated and
    the decoded rule no longer equals the transcription."""
    rules = build_rules(2, "curved")
    d_square_report(rules)
    for name, value in vars(rules).items():
        if isinstance(value, dict):
            assert not any(isinstance(k, Sym) and isinstance(v, Form)
                           for k, v in value.items()), name
    builder = RuleBuilder(2)
    syms = [k for k in rules._views if isinstance(k, Sym)]
    assert len(syms) > 100 and any(s.conj for s in syms)
    for s in syms:
        want = builder.symbol_rule(s._replace(conj=False))
        want = want.conj() if s.conj else want
        got = rules.sym_rule(s)
        assert [(m, list(p.terms.items())) for m, p in got.terms.items()] == \
            [(m, list(p.terms.items())) for m, p in want.terms.items()], s
    s = next(s for s in syms if not s.conj)
    den, ((rmask, rk, m, re, im), *rest) = rules.view(s)
    rules._views[s] = den, ((rmask, rk, m, -re, -im), *rest)
    assert rules.sym_rule(s).terms != builder.symbol_rule(s).terms


def test_d_square_report_memory_budget():
    """What the curved d^2 report leaves allocated on a fresh n = 3 table,
    the table included, traced by tracemalloc: 5.3 MiB under CPython
    3.11.  Holding each symbol rule a second time, as a Form, and an entry
    per ordering of a symmetric family's indices took it to 8.5 MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rules = build_rules(3, "curved")
        assert all(v.is_zero() for v in d_square_report(rules).values())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 7 * 2 ** 20, f"{held / 2 ** 20:.2f} MiB"


def test_gamma_rule_contains_s_term(curved1):
    """d(Gamma_11) carries pi^s_{d̄} S_{11 g s} theta^g ^ theta^{d̄}."""
    ext = curved1.ext
    form = curved1.gen_rule(ext.gid[("Gam", 1, 1)])
    mono = 1 << ext.gid[("theta", 1, False)] | 1 << ext.gid[("theta", 1, True)]
    poly = form.terms[mono]
    # pi^s_{1̄} is nonzero at s = 2 with value pi_{1 2} = 1
    assert poly.terms[(Sym("S", (1, 1, 1, 2), False),)] == gr(1)


def test_secondary_rule_for_s(curved1):
    """d(S_1111) = tilde + A_1111e theta^e - ... + (B + jB) eta1 + ..."""
    b = RuleBuilder(1)
    rule = curved1.sym_rule(Sym("S", (1, 1, 1, 1), False))
    semibasic = rule - b.form(b.tilde_star, "S", (1, 1, 1, 1))
    ext = curved1.ext
    # theta^1 coefficient contains sA_11111
    poly = semibasic.terms[1 << ext.gid[("theta", 1, False)]]
    assert (Sym("sA", (1, 1, 1, 1, 1), False),) in poly.terms
    # eta1 coefficient contains sB_1111 plus its j-image
    poly = semibasic.terms[1 << ext.gid[("eta", 1)]]
    assert (Sym("sB", (1, 1, 1, 1), False),) in poly.terms
    assert any(s[0].conj for s in poly.terms if s and s[0].family == "sB")


def test_dpsi23_split_resums(curved1):
    """The real/imaginary split of d(psi2 + i psi3) re-sums exactly."""
    b = RuleBuilder(1)
    ext = curved1.ext
    d2 = curved1.gen_rule(ext.gid[("psi", 2)])
    d3 = curved1.gen_rule(ext.gid[("psi", 3)])
    combined = d2 + d3.scale(I)
    assert (combined - b.form(b.d_psi23_curved)).is_zero()
    # reality of the split
    assert (d2.conj() - d2).is_zero()
    assert (d3.conj() - d3).is_zero()


def test_reality_of_real_generator_rules(curved1):
    ext = curved1.ext
    for key in [("eta", s) for s in (1, 2, 3)] + [("phi0",)] \
            + [("phi", s) for s in (1, 2, 3)] + [("psi", s) for s in (1, 2, 3)]:
        rule = curved1.gen_rule(ext.gid[key])
        assert (rule.conj() - rule).is_zero()


def test_gamma_conj_consistency(curved1):
    """conj of the Gamma_{ab} rule equals the rule for the dependent
    barred coordinate Gamma_{ā b̄} = coeff * Gamma_{a'b'}."""
    ext = curved1.ext
    for (a, b) in [(1, 1), (1, 2), (2, 2)]:
        coeff, key = coframe.gamma_bar(ext.consts, a, b)
        lhs = curved1.gen_rule(ext.gid[("Gam", a, b)]).conj()
        rhs = curved1.gen_rule(ext.gid[key]).scale(gr(1) / coeff)
        # conj(d Gamma_ab) = d(Gamma_{ā b̄}) = coeff^{-1}... careful:
        # Gamma_{ā b̄} = coeff * Gamma_key, so d(conj Gamma_ab) =
        # coeff * d(Gamma_key)
        rhs = curved1.gen_rule(ext.gid[key]).scale(coeff)
        assert (lhs - rhs).is_zero()


def test_d_square_on_barred_generators(curved1):
    """Barred rules are conjugates, so their d^2 vanishes as well."""
    ext = curved1.ext
    for key in [("theta", 1, True), ("phiU", 2, True)]:
        g = ext.gen(key)
        assert differential(differential(g, curved1), curved1).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_bianchi_combinations_zero(n):
    res = bianchi_residuals(n)
    assert res, "no combinations assembled"
    assert all(v.is_zero() for v in res.values())


def test_star_two_path_and_symmetry():
    assert star_two_path_check(1)
    assert star_symmetry_check(1)


def test_star_symmetry_catches_an_unsorted_expansion(monkeypatch):
    """Negative control for the total-symmetry half: with the S expansion
    at the one unsorted index tuple (1, 2, 1, 1) doubled, S* is no longer
    totally symmetric and the check returns False.  At n = 1 that tuple is
    the j image of no sorted tuple, so only the symmetry half reads it."""
    assert all(StandardConstants(1).j(idx)[0] != (1, 2, 1, 1)
               for idx in itertools.combinations_with_replacement((1, 2), 4))
    secondary, seen = RuleBuilder.secondary_part, []

    def doubled(self, acc, fam, idx):
        secondary(self, acc, fam, idx)
        if fam == "S" and idx == (1, 2, 1, 1):
            seen.append(idx)
            secondary(self, acc, fam, idx)

    monkeypatch.setattr(RuleBuilder, "secondary_part", doubled)
    assert not star_symmetry_check(1)
    assert seen


def test_star_two_path_reads_the_conjugate_views(monkeypatch):
    """Negative control: with one entry of one conjugate view negated (the
    first one the check builds, that of ~V111), the check is False."""
    assert star_two_path_check(1)
    conj_view = DRuleSet._conj_view
    made = []

    def tampered(self, view):
        den, terms = conj_view(self, view)
        if not made:
            (rmask, rk, m, re, im), *rest = terms
            terms = ((rmask, rk, m, -re, -im), *rest)
        made.append(terms)
        return den, tuple(terms)

    monkeypatch.setattr(DRuleSet, "_conj_view", tampered)
    assert not star_two_path_check(1)
    assert len(made) > 1


def test_star_two_path_builds_no_generator_rule(monkeypatch):
    """Path (a) differentiates scalar symbols, which reads symbol rules
    only: with every generator rule of the curved table made to raise,
    the check still passes, while building the curved table fails."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("generator rule built")

    for name in ("d_eta", "d_phi", "d_phi0", "d_theta", "d_gamma_curved",
                 "d_phiu_bar_curved", "d_psi1_curved", "d_psi23_curved"):
        monkeypatch.setattr(RuleBuilder, name, refuse)
    assert star_two_path_check(1)
    with pytest.raises(AssertionError, match="generator rule built"):
        build_rules(1, "curved")


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_conjugate_views_are_the_conjugate_rules(n, signature):
    """The view of every conjugated symbol in the curved table, made from
    the symbol's view in integers, reads back as the Form.conj of the
    symbol's rule, terms in the same order, over the same denominator."""
    rules = build_rules(n, "curved", signature)
    syms = {s for form in rules.gen_rules.values() for p in form.terms.values()
            for mono in p.terms for s in mono if s.conj}
    assert len(syms) > 5 * n
    for s in syms:
        base = s._replace(conj=False)
        want = rules.sym_rule(base).conj()
        got = rules.sym_rule(s)
        assert [(m, list(p.terms.items())) for m, p in got.terms.items()] == \
            [(m, list(p.terms.items())) for m, p in want.terms.items()], s
        (den, terms), (base_den, base_terms) = rules.view(s), rules.view(base)
        assert den == base_den
        # term for term: each term relabeled in place, rows kept whole
        assert [rules.ext.conj_mask(t[0])[0] for t in base_terms] == [t[0] for t in terms]
        assert [rules._conj_id(t[2])[0] for t in base_terms] == [t[2] for t in terms]
        assert view_form(rules, rules.view(s)) == got


def test_negated_generator_view_term_breaks_d_square():
    """Negative control: with one term of one generator rule's view
    negated, d^2 no longer vanishes, though the rule Form is untouched."""
    rules = build_rules(1, "curved")
    assert all(v.is_zero() for v in d_square_report(rules).values())
    g = rules.ext.gid[("theta", 1, False)]
    den, ((rmask, rk, m, re, im), *rest) = rules.view(g)
    rules._views[g] = den, ((rmask, rk, m, -re, -im), *rest)
    assert any(not v.is_zero() for v in d_square_report(rules).values())


@pytest.mark.parametrize("n, views, terms", [(1, 56, 1118), (2, 162, 5343)])
def test_view_term_count(n, views, terms):
    """The views d^2 reads hold one entry per term of their rules: the
    count after the curved d^2 report is pinned, and a second report adds
    no view."""
    rules = build_rules(n, "curved")
    d_square_report(rules)
    count = (len(rules._views), sum(len(t) for _, t in rules._views.values()))
    assert count == (views, terms)
    d_square_report(rules)
    assert (len(rules._views), sum(len(t) for _, t in rules._views.values())) == count


# the scalar accessors of the constants: a call of one inside a loop is a
# dense scan that StandardConstants.row / col replace
SCALAR_ACCESSORS = {"g", "g_up", "pi", "pi_bar", "pi_up", "pi_u_lbar", "pi_ubar_l"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def dense_reads(source):
    """(line, accessor) of every scalar-accessor call inside a loop."""
    found = []

    def visit(node, in_loop):
        if in_loop and isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in SCALAR_ACCESSORS:
                found.append((node.lineno, name))
        in_loop = in_loop or isinstance(node, LOOPS)
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("module", [cochains_module, heisenberg_module])
def test_modules_read_no_scalar_accessor_in_a_loop(module):
    """cochains.py and heisenberg.py, like rules.py (below), read no
    scalar accessor inside a loop: every sum over an index of g, pi or
    their raised and mixed forms runs over a row or a column of nonzero
    entries."""
    assert dense_reads(inspect.getsource(module)) == []


def test_cochains_dense_loop_planted_back_is_caught():
    """The guard catches one dense scan planted back into cochains.py, as
    the lowered hat frame was summed before."""
    source = inspect.getsource(cochains_module)
    sparse = """        for t, v in c.row("g", be):
            axpy(zlow, v, fr["Zhatbar"][t - 1].c)
"""
    dense = """        for t in R:
            axpy(zlow, c.g(be, t), fr["Zhatbar"][t - 1].c)
"""
    assert source.count(sparse) == 1
    assert [name for _, name in dense_reads(source.replace(sparse, dense))] == ["g"]


def test_rules_contract_over_nonzero_entries_only():
    """rules.py reads no scalar accessor inside a loop: every sum over an
    index of g, pi or their raised and mixed forms runs over a row or a
    column of nonzero entries.  The guard catches one dense loop planted
    back, as the rule was written before."""
    source = inspect.getsource(rules_module)
    assert dense_reads(source) == []
    sparse = """        for s, coeff in self.c.col("g_up", a):
            addmul(acc, self.form(self.d_phi_lo_curved, s), None, coeff)
"""
    dense = """        for s in self.R:
            coeff = self.c.g_up(s, a)
            if not coeff.is_zero():
                addmul(acc, self.form(self.d_phi_lo_curved, s), None, coeff)
"""
    assert source.count(sparse) == 1
    mutant = source.replace(sparse, dense)
    assert [name for _, name in dense_reads(mutant)] == ["g_up"]


def test_star_r_form_contents():
    """R* carries exactly the first-derivative terms of the R rule."""
    stars = star_forms(1)
    r = stars[("R", ())]
    ext = build_rules(1, "curved").ext
    eta1 = 1 << ext.gid[("eta", 1)]
    poly = r.terms[eta1]
    fams = {s.family for mono in poly.terms for s in mono}
    assert fams == {"sU3"}
    # theta-coefficients carry the N3 family
    th = 1 << ext.gid[("theta", 1, False)]
    fams = {s.family for mono in r.terms[th].terms for s in mono}
    assert fams == {"sN3"}


def test_stars_vanish_with_all_symbols_zero():
    """Every symbol monomial of every star form is nonempty, so setting
    all symbols to zero kills each star form."""
    stars = star_forms(1)
    assert stars
    for key, form in stars.items():
        assert all(smono for p in form.terms.values() for smono in p.terms), key
