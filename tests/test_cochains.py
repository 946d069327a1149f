import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from qcframe import coframe, cochains
from qcframe.cochains import (Cochain1, Cochain2, CurvatureComponents,
                              assemble_kappa, broken_components,
                              check_normality, codiff_closed_constants,
                              components_from_json, components_to_json,
                              family_homogeneities, gminus_keys, homogeneity_classify,
                              kappa_coordinate_forms,
                              kostant_codiff_closed, kostant_codiff_direct,
                              random_components, random_lemma_cochain,
                              regularity_ok, trace_conditions, zero_components)
from qcframe.cli import run
from qcframe.forms import Form, Poly
from qcframe.gauss import GaussRational, gr
from qcframe.model import LieCoord, SpModel
from qcframe.rules import build_rules
from qcframe.tensors import (IndexedTensor, SymTensor, j_average, random_tensor,
                             slots)


def cochain1_is_zero(d: Cochain1) -> bool:
    return all(v.is_zero() for v in d.values())


@pytest.fixture(scope="module")
def consts1(model_for):
    return model_for(1).consts


@pytest.fixture(scope="module")
def closed1(model_for):
    return codiff_closed_constants(model_for(1))


def test_zero_components_zero_cochain(model_for):
    m = model_for(1)
    K = assemble_kappa(zero_components(1), m)
    assert K.is_zero()


def test_r_only_example(model_for):
    """Only R = 1: psi1(K(E2, E3)) = i R ((e2+ie3)^(e2-ie3))(E2,E3) = 2."""
    m = model_for(1)
    compo = zero_components(1)
    compo.r = gr(1)
    K = assemble_kappa(compo, m)
    val = K.get(("eta", 2), ("eta", 3))
    assert val.get(("psi", 1)) == gr(2)
    # every other coordinate of that slot, and all other slots, vanish
    assert set(val.c) == {("psi", 1), ("psi", 2), ("psi", 3)} or len(val.c) >= 1
    for ki in gminus_keys(1):
        for kj in gminus_keys(1):
            if {ki, kj} != {("eta", 2), ("eta", 3)} and ki != kj:
                v = K.get(ki, kj)
                assert all(k[0] == "psi" for k in v.c)


def test_s_only_example(model_for, consts1):
    """Only S nonzero: Gamma_11(K(Z_1, Zbar_1)) = pi^s_{1̄} S_{111s}."""
    m = model_for(1)
    rng = random.Random(0)
    compo = zero_components(1)
    src = random_components(rng, consts1)
    compo.s = src.s
    K = assemble_kappa(compo, m)
    val = K.get(("theta", 1, False), ("theta", 1, True))
    want = sum((consts1.pi_u_lbar(s, 1) * compo.s.get(1, 1, 1, s)
                for s in (1, 2)), gr(0))
    assert val.get(("Gam", 1, 1)) == want


def _reference_kappa(compo, n, forms):
    """assemble_kappa as a walk over every (pair, coordinate) cell: each
    coordinate two-form is evaluated on each g_- pair with the
    convention (a^b)(X, Y) = a(X) b(Y) - a(Y) b(X)."""
    out = Cochain2(n)
    ks = gminus_keys(n)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            val = LieCoord(n)
            for coord, form in forms.items():
                gi, gj = form.ext.gid[ki], form.ext.gid[kj]
                poly = form.terms.get(1 << gi | 1 << gj)
                tot = gr(0)
                for smono, coeff in (poly.terms.items() if poly else ()):
                    for s in smono:
                        coeff = coeff * compo.value(s)
                    tot = tot + coeff
                val.set(coord, tot if gi < gj else -tot)
            out.set_pair(ki, kj, val)
    return out


def _assert_same_cochain(got, want):
    """The same stored row: column -> value, in the same order."""
    assert list(got.row.items()) == list(want.row.items())


def _combination(n, *terms):
    """The cochain sum c K over the (c, K) of terms, pair by pair through
    ``get`` and ``set_pair``."""
    out = Cochain2(n)
    ks = gminus_keys(n)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            out.set_pair(ki, kj, sum((K.get(ki, kj).scale(c) for c, K in terms), LieCoord(n)))
    return out


def _family_sets(n, consts):
    """The nine one-family component sets of the homogeneity table."""
    src = random_components(random.Random(40 + n), consts)
    for scalar, val in (("p", gr(1, 1)), ("q", gr(2, -1)), ("r", gr(3))):
        if getattr(src, scalar).is_zero():
            setattr(src, scalar, val)
    for fam in ("s", "v", "l", "m", "c", "h", "p", "q", "r"):
        only = zero_components(n)
        setattr(only, fam, getattr(src, fam))
        yield only


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_plan_matches_reference_evaluation(model_for, n, signature):
    m = model_for(n, signature)
    forms = kappa_coordinate_forms(n, m.consts.signature)
    rng = random.Random(17 * n)
    sets = [random_components(rng, m.consts) for _ in range(2)]
    sets += list(_family_sets(n, m.consts))
    for compo in sets:
        _assert_same_cochain(assemble_kappa(compo, m),
                             _reference_kappa(compo, n, forms))


@pytest.mark.parametrize("n", [1, 2])
def test_plan_matches_reference_tampered(model_for, n):
    m = model_for(n)
    forms = kappa_coordinate_forms(n, tamper="unsym-S")
    compo = broken_components(random.Random(3), m.consts)
    got = assemble_kappa(compo, m, validate=False, tamper="unsym-S")
    _assert_same_cochain(got, _reference_kappa(compo, n, forms))
    assert got.row != assemble_kappa(compo, m, validate=False).row


def _decoded_row(compo, m, validate=True, tamper=None):
    """The integer kappa row of ``cochains._kappa_row``, each column
    divided by its denominator, in its order."""
    den, row = cochains._kappa_row(compo, m, validate, tamper)
    return [(col, GaussRational.from_ints(re, im, den)) for col, (re, im) in row.items()]


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
@pytest.mark.parametrize("tamper", [None, "unsym-S"])
def test_integer_row_matches_assembly_and_reference(model_for, n, signature, tamper):
    """The integer row, decoded, is the assembled row, which is the
    reference evaluation: column for column, in order, with no zero
    column; on admissible and on broken-S components."""
    m = model_for(n, signature)
    forms = kappa_coordinate_forms(n, m.consts.signature, tamper)
    rng = random.Random(31 * n + 7)
    sets = [(random_components(rng, m.consts), tamper is None),
            (broken_components(rng, m.consts), False)]
    for compo, validate in sets:
        want = list(_reference_kappa(compo, n, forms).row.items())
        assert list(assemble_kappa(compo, m, validate, tamper).row.items()) == want
        assert _decoded_row(compo, m, validate, tamper) == want
        assert all(not v.is_zero() for _, v in want)


def test_negated_plan_coefficient_breaks_normality(model_for, monkeypatch):
    """Negative control: with one integer coefficient of the n = 2 plan
    negated, in a column D_direct reads, check_normality on admissible
    components is no longer normal."""
    m = model_for(2)
    cc = codiff_closed_constants(m)
    compo = random_components(random.Random(19), m.consts)
    assert check_normality(compo, m, cc)["normal"]
    before = dict(cochains._kappa_row(compo, m)[1])
    key = (2, (2, 0), None)
    forms, plan = cochains._KAPPA_CACHE[key]
    rows = cochains._kept(m, "_direct_map", cochains._build_direct)[1]
    g, k = next((g, k) for g, (fams, monos) in enumerate(plan.groups)
                for k, (_, cols, _) in enumerate(monos)
                if cols[0] in rows and cols[0] in before)
    fams, monos = plan.groups[g]
    reads, cols, coeffs = monos[k]
    (re, im), *rest = coeffs
    monos = monos[:k] + ((reads, cols, ((-re, -im), *rest)),) + monos[k + 1:]
    groups = plan.groups[:g] + ((fams, monos),) + plan.groups[g + 1:]
    monkeypatch.setitem(cochains._KAPPA_CACHE, key, (forms, plan._replace(groups=groups)))
    assert cochains._kappa_row(compo, m)[1].get(cols[0]) != before[cols[0]]
    rep = check_normality(compo, m, cc)
    assert not rep["dstar_direct_zero"] and not rep["normal"]


def test_assembly_refuses_arrays_of_another_shape(model_for):
    """The compiled reads take entries by key: an array for another n,
    or with another number of slots, is refused, not read as zero."""
    m = model_for(2)
    compo = random_components(random.Random(12), m.consts)
    compo.c = IndexedTensor(1, slots("l"), {(1,): gr(1)})
    with pytest.raises(ValueError, match="C is not an n = 2 array"):
        assemble_kappa(compo, m, validate=False)
    compo = random_components(random.Random(12), m.consts)
    compo.s = IndexedTensor(2, slots("lll"))
    with pytest.raises(ValueError, match="S is not an n = 2 array with 4 slots"):
        assemble_kappa(compo, m, validate=False, tamper="unsym-S")


def test_plan_evaluates_any_degree(model_for, monkeypatch):
    """Monomials of degree 2 and 0: square every coefficient polynomial
    and add a constant, and compare with the reference evaluation."""
    m = model_for(1)
    forms = {}
    for coord, form in kappa_coordinate_forms(1).items():
        terms = {mono: p * p + Poly.const(gr(1, -2)) for mono, p in form.terms.items()}
        forms[coord] = Form(form.ext, terms)
    assert {len(smono) for f in forms.values() for p in f.terms.values()
            for smono in p.terms} == {0, 2}
    monkeypatch.setitem(cochains._KAPPA_CACHE, (1, (1, 0), "squared"),
                        (forms, cochains._compile_plan(1, forms)))
    compo = random_components(random.Random(8), m.consts)
    want = _reference_kappa(compo, 1, forms)
    _assert_same_cochain(assemble_kappa(compo, m, tamper="squared"), want)
    assert _decoded_row(compo, m, tamper="squared") == list(want.row.items())


@pytest.mark.parametrize("n, monos, terms", [(1, 35, 246), (2, 126, 1029)])
def test_kappa_is_degree_one_in_the_components(n, monos, terms):
    """Every symbol monomial of kappa has length 1: kappa is linear in
    the component arrays.  Read from the compiled plan's groups, each
    monomial one read of the one family its group reads, feeding its
    columns with nonzero integer coefficients."""
    plan = cochains._kappa(n, None, None)[1]
    compiled = [(fams, entry) for fams, group in plan.groups for entry in group]
    assert len(compiled) == monos
    assert sum(len(cols) for _, (_, cols, _) in compiled) == terms
    assert plan.top == 1
    for fams, (reads, cols, coeffs) in compiled:
        assert len(reads) == 1 and fams == (reads[0][0],)
        assert len(cols) == len(set(cols)) == len(coeffs)
        assert all(type(re) is int and type(im) is int and (re or im) for re, im in coeffs)


def test_kappa_antisymmetry(model_for, consts1):
    m = model_for(1)
    K = assemble_kappa(random_components(random.Random(5), consts1), m)
    a, b = ("theta", 1, False), ("eta", 2)
    assert K.get(a, b) == K.get(b, a).scale(gr(-1))
    assert K.get(a, a).is_zero()


def test_codiff_of_zero(model_for, closed1):
    m = model_for(1)
    K = Cochain2(1)
    assert cochain1_is_zero(kostant_codiff_direct(K, m))
    assert cochain1_is_zero(kostant_codiff_closed(K, m, closed1))


def test_codiff_linearity(model_for):
    m = model_for(1)
    rng = random.Random(13)
    K1 = random_lemma_cochain(rng, 1)
    K2 = random_lemma_cochain(rng, 1)
    c = gr(Fraction(3, 2), -1)
    lhs = kostant_codiff_direct(_combination(1, (1, K1), (c, K2)), m)
    d1 = kostant_codiff_direct(K1, m)
    d2 = kostant_codiff_direct(K2, m)
    for k in lhs:
        assert lhs[k] == d1[k] + d2[k].scale(c)


@pytest.mark.parametrize("n,trials", [(1, 10), (2, 5)])
def test_direct_equals_closed_random(model_for, n, trials):
    m = model_for(n)
    consts = codiff_closed_constants(m)
    rng = random.Random(21)
    for _ in range(trials):
        K = random_lemma_cochain(rng, n)
        da = kostant_codiff_direct(K, m)
        db = kostant_codiff_closed(K, m, consts)
        assert all((da[k] - db[k]).is_zero() for k in da)


def test_closed_rejects_outside_lemma_space(model_for, closed1):
    m = model_for(1)
    K = Cochain2(1)
    K.set_pair(("eta", 1), ("eta", 2), LieCoord(1, {("theta", 1, False): gr(1)}))
    with pytest.raises(ValueError):
        kostant_codiff_closed(K, m, closed1)


def test_codiff_constants_vs_printed(model_for, closed1):
    """The calibrated slot constants differ from the printed literals in
    exactly the way the trace-derived Killing form dictates."""
    n = 1
    assert str(closed1["c_eta23p"]) == str(gr(Fraction(-1, 4 * (2 * n + 6))))
    assert str(closed1["c_E1"]) == "2"
    assert str(closed1["c_gam"]) == "-2"  # matches the printed -2
    assert closed1["printed"]["c_gam"] == "-2"
    assert closed1["printed"]["c_eta23p"] == str(gr(Fraction(-1, 4 * (2 * n + 7))))


CLOSED_NAMES = ("c_eta23p", "c_eta23m", "c_eta1", "c_E1", "c_E23p", "c_E23m", "c_gam")
# the seven constants, in CLOSED_NAMES order, as the hand-derived
# calibration read them off
CLOSED_PINNED = {
    1: ("-1/32", "-1/32", "-1/32", "2", "2", "2", "-2"),
    2: ("-1/40", "-1/40", "-1/40", "2", "2", "2", "-2"),
    3: ("-1/48", "-1/48", "-1/48", "2", "2", "2", "-2"),
}


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (3, None),
                                          (1, (0, 1)), (2, (1, 1)), (3, (2, 1))])
def test_closed_constants_pinned(model_for, n, signature):
    got = codiff_closed_constants(model_for(n, signature))
    assert list(got) == ["n", *CLOSED_NAMES, "printed"]
    assert tuple(str(got[k]) for k in CLOSED_NAMES) == CLOSED_PINNED[n]


def slot_mismatches(m, monkeypatch):
    """Run the calibration, recording the probes (K, unit constants) it
    hands to the closed formula; return every (constant, output key) at
    which direct(K) != c * closed_unit(K)."""
    closed = cochains.kostant_codiff_closed
    probes = []

    def recording(K, model, consts=None):
        probes.append((K, consts))
        return closed(K, model, consts)

    monkeypatch.setattr(cochains, "kostant_codiff_closed", recording)
    consts = codiff_closed_constants(m)
    monkeypatch.setattr(cochains, "kostant_codiff_closed", closed)
    names = [next(k for k, v in unit.items() if v == gr(1)) for _, unit in probes]
    assert names == list(CLOSED_NAMES)
    bad = []
    for name, (K, unit) in zip(names, probes):
        direct, alone = kostant_codiff_direct(K, m), closed(K, m, unit)
        bad += [(name, ka) for ka in direct if direct[ka] != alone[ka].scale(consts[name])]
    return bad


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_each_probe_feeds_its_slot_alone(model_for, monkeypatch, n, signature):
    assert slot_mismatches(model_for(n, signature), monkeypatch) == []


def test_flipped_closed_slot_is_caught(model_for, monkeypatch, capsys):
    """Negative control: a closed formula whose eta3 output is negated
    fails the slot test on both eta2 +- i eta3 probes, and makes
    ``verify normality`` fail (exit 1), not stop on an internal error."""
    closed = cochains.kostant_codiff_closed

    def flipped(K, model, consts=None):
        out = closed(K, model, consts)
        out[("eta", 3)] = -out[("eta", 3)]
        return out

    monkeypatch.setattr(cochains, "kostant_codiff_closed", flipped)
    assert slot_mismatches(model_for(1), monkeypatch) == [
        ("c_eta23p", ("eta", 3)), ("c_eta23m", ("eta", 3))]
    assert run(["verify", "normality", "--n", "1", "--trials", "2"]) == 1


def _delta_eta1_z1(m):
    """K(E_1, Z_1) = Gam_{1p}, p the pi-partner of 1: the unbarred Z_1
    reaches the barred-Gamma slot, which the c_gam probe (Zbar_1) does
    not."""
    K = Cochain2(m.n)
    K.set_pair(("eta", 1), ("theta", 1, False),
               LieCoord(m.n, {coframe.gam_key(1, m.consts.partner(1)): gr(1)}))
    return K


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_barred_gamma_slot_is_checked(model_for, monkeypatch, n, signature):
    """The delta cochain K(E_1, Z_1) = Gam_{1p} has a nonzero codifferential
    that the closed formula reproduces; on a fresh model whose closed
    matrix is built from term lists with the barred-Gamma terms negated,
    the two differ."""
    m = model_for(n, signature)
    cc = codiff_closed_constants(m)
    K = _delta_eta1_z1(m)
    direct = kostant_codiff_direct(K, m)
    assert not cochain1_is_zero(direct)
    assert kostant_codiff_closed(K, m, cc) == direct
    terms = cochains._closed_terms

    def negated(model):
        table = terms(model)
        return table._replace(gam_bar=tuple(
            (slot, barred, tuple((al, key, -coeff) for al, key, coeff in reads), frame)
            for slot, barred, reads, frame in table.gam_bar))

    monkeypatch.setattr(cochains, "_closed_terms", negated)
    fresh = SpModel(n, signature)
    assert kostant_codiff_direct(K, fresh) == direct
    assert kostant_codiff_closed(K, fresh, cc) != direct


def test_matrices_built_once_per_model(monkeypatch):
    """No matrix is built with the model; the calibration and two
    normality checks on one model build one direct, one closed and one
    trace matrix; a model with another n builds its own."""
    built = []
    for name in ("_build_direct", "_build_closed", "_build_trace"):
        def counting(model, build=getattr(cochains, name), name=name):
            built.append((name, model.n))
            return build(model)
        monkeypatch.setattr(cochains, name, counting)
    m = SpModel(1)
    assert built == []
    cc = codiff_closed_constants(m)
    assert sorted(built) == [("_build_closed", 1), ("_build_direct", 1)]
    rng = random.Random(90)
    for _ in range(2):
        assert check_normality(random_components(rng, m.consts), m, cc)["normal"]
    assert sorted(built) == [("_build_closed", 1), ("_build_direct", 1), ("_build_trace", 1)]
    m2 = SpModel(2)
    assert len(built) == 3
    assert check_normality(random_components(rng, m2.consts), m2)["normal"]
    assert check_normality(random_components(rng, m2.consts), m2)["normal"]
    assert sorted(built[3:]) == [("_build_closed", 2), ("_build_direct", 2), ("_build_trace", 2)]


@pytest.mark.parametrize("n", [1, 2])
def test_normality_random_components(model_for, n):
    m = model_for(n)
    rng = random.Random(n * 7)
    consts = codiff_closed_constants(m)
    for _ in range(3):
        compo = random_components(rng, m.consts)
        rep = check_normality(compo, m, consts)
        assert rep["normal"]
        assert rep["direct_equals_closed"]
        assert all(rep["trace_conditions"].values())


def test_normality_negative_control(model_for):
    for n in (1, 2):
        m = model_for(n)
        rng = random.Random(2)
        compo = broken_components(rng, m.consts)
        with pytest.raises(ValueError):
            compo.validate(m.consts)
        rep = check_normality(compo, m, validate=False, tamper="unsym-S")
        assert not rep["normal"], f"broken S passes normality at n={n}"
        assert not all(rep["trace_conditions"].values())
        # a valid set through the same tampered pipeline still passes,
        # pinning the failure on the broken symmetry itself
        good = random_components(rng, m.consts)
        rep2 = check_normality(good, m, validate=False, tamper="unsym-S")
        assert rep2["normal"]


def test_each_trial_is_validated_once(model_for, monkeypatch):
    """random_components leaves validation to assemble_kappa;
    broken_components validates its draw before breaking S."""
    m = model_for(1)
    calls = []
    validate = CurvatureComponents.validate

    def counting(self, consts):
        calls.append(1)
        return validate(self, consts)

    monkeypatch.setattr(CurvatureComponents, "validate", counting)
    rng = random.Random(23)
    compo = random_components(rng, m.consts)
    assert calls == []
    check_normality(compo, m)
    assert len(calls) == 1
    compo = broken_components(rng, m.consts)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="S is not totally symmetric"):
        validate(compo, m.consts)


@pytest.mark.parametrize("perturb", [False, True])
def test_validate_refuses_s_with_every_arrangement(model_for, perturb):
    """Total symmetry is the type: S stored with every arrangement is
    refused, whether its entries are symmetric or one is perturbed."""
    m = model_for(2)
    compo = random_components(random.Random(4), m.consts)
    compo.validate(m.consts)
    compo.s = compo.s.full()
    if perturb:
        compo.s.set((1, 2, 3, 4), compo.s.get(1, 2, 3, 4) + gr(0, 1))
    with pytest.raises(ValueError, match="S is not totally symmetric"):
        compo.validate(m.consts)


def _symmetrize_every_arrangement(t):
    """Total symmetrization writing the orbit mean to every arrangement:
    the reference for the once-per-orbit symmetrize."""
    sums = {}
    for idx, val in t.entries.items():
        key = tuple(sorted(idx))
        sums[key] = sums.get(key, gr(0)) + val
    out = IndexedTensor(t.n, t.slots)
    for key, total in sums.items():
        members = set(itertools.permutations(key))
        for idx in members:
            out.set(idx, total * gr(Fraction(1, len(members))))
    return out


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_random_components_match_every_arrangement_reference(model_for, n, signature):
    """The same draw, projected with every arrangement stored, gives the
    same values entry for entry."""
    consts = model_for(n, signature).consts
    compo = random_components(random.Random(50 + n), consts)
    rng = random.Random(50 + n)
    for name, spec in (("s", "llll"), ("v", "lll"), ("l", "ll"), ("m", "ll")):
        want = _symmetrize_every_arrangement(random_tensor(rng, n, slots(spec), 4))
        if name in ("s", "l"):
            want = j_average(want, consts)
        assert getattr(compo, name).full() == want
    assert compo.c == random_tensor(rng, n, slots("l"), 4)
    assert compo.h == random_tensor(rng, n, slots("l"), 4)
    scalars = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    assert compo.p == gr(*scalars[0:2]) and compo.q == gr(*scalars[2:4])
    assert compo.r == gr(scalars[4])


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_symmetric_family_symbols_carry_sorted_indices(n, signature):
    """The untampered curvature forms and curved rule table name each
    component of S, V, L and M once, by its sorted index: the key its
    SymTensor stores it under."""
    polys = [p for f in kappa_coordinate_forms(n, signature).values()
             for p in f.terms.values()]
    polys += [p for f in build_rules(n, "curved", signature).gen_rules.values()
              for p in f.terms.values()]
    seen = set()
    for p in polys:
        for s in (s for smono in p.terms for s in smono):
            if s.family in ("S", "V", "L", "M"):
                seen.add(s.family)
                assert s.idx == tuple(sorted(s.idx)), s
    assert seen == {"S", "V", "L", "M"}


def test_trace_conditions_zero_components(model_for):
    m = model_for(1)
    K = assemble_kappa(zero_components(1), m)
    assert all(trace_conditions(K, m).values())


def test_homogeneity_families(model_for, consts1):
    m = model_for(1)
    rng = random.Random(77)
    from qcframe.gauss import gr as _gr
    src = random_components(rng, consts1)
    for scalar, val in (("p", _gr(1, 1)), ("q", _gr(2, -1)), ("r", _gr(3))):
        if getattr(src, scalar).is_zero():
            setattr(src, scalar, val)
    expected = {"s": [2], "v": [3], "l": [4], "m": [4], "c": [5], "h": [5],
                "p": [6], "q": [6], "r": [6]}
    for fam, want in expected.items():
        compo = zero_components(1)
        setattr(compo, fam, getattr(src, fam))
        K = assemble_kappa(compo, m)
        assert sorted(homogeneity_classify(K)) == want
        assert family_homogeneities(m)[fam.upper()] == want


@pytest.mark.parametrize("n,signature", [(1, None), (2, None), (3, None), (2, (1, 1))])
def test_family_homogeneities_from_the_plan(n, signature):
    """The family table read from the compiled plan's columns, family by
    family in ``CURVATURE_FAMILIES`` order."""
    assert list(family_homogeneities(SpModel(n, signature)).items()) == [
        ("S", [2]), ("V", [3]), ("L", [4]), ("M", [4]), ("C", [5]), ("H", [5]),
        ("P", [6]), ("Q", [6]), ("R", [6])]


def test_homogeneity_slices_sum_and_regularity(model_for, consts1):
    m = model_for(1)
    K = assemble_kappa(random_components(random.Random(31), consts1), m)
    hom = homogeneity_classify(K)
    assert sorted(hom) == [2, 3, 4, 5, 6]
    total = _combination(1, *((1, piece) for piece in hom.values()))
    ks = gminus_keys(1)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            assert total.get(ki, kj) == K.get(ki, kj)
    assert regularity_ok(K)
    assert homogeneity_classify(Cochain2(1)) == {}


def _decompose(x):
    """The parts of the LieCoord x in g_-2 .. g_2, keys in the order of
    ``c``: ``LieCoord.decompose`` as the package had it."""
    parts = {g: {} for g in (-2, -1, 0, 1, 2)}
    for k, v in x.c.items():
        parts[coframe.grade(k)][k] = v
    return {g: LieCoord.adopt(x.n, c) for g, c in parts.items()}


def _reference_classify(K):
    """homogeneity_classify as it read through LieCoord.decompose: pair
    by pair, each pair's parts in ascending grade."""
    out = {}
    ks = gminus_keys(K.n)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            base = coframe.grade(ki) + coframe.grade(kj)
            for part_grade, part in _decompose(K.get(ki, kj)).items():
                if not part.is_zero():
                    out.setdefault(part_grade - base, Cochain2(K.n)).set_pair(ki, kj, part)
    return out


def test_homogeneity_matches_reference_with_key_order(model_for, consts1):
    """Same pieces, in the same order of homogeneities and columns, on
    kappa, on a lemma cochain and on a cochain whose pairs hold
    coordinates of several grades, given out of grade order and one pair
    in reverse order."""
    m = model_for(1)
    rng = random.Random(32)
    ks = gminus_keys(1)
    mixed = Cochain2(1)
    mixed.set_pair(ks[0], ks[3], LieCoord.adopt(1, {("psi", 2): gr(1), ("eta", 1): gr(2),
                                                    ("Gam", 1, 2): gr(0, 1), ("psi", 1): gr(3)}))
    mixed.set_pair(ks[5], ks[1], LieCoord.adopt(1, {("phiU", 1, True): gr(2, 1),
                                                    ("theta", 2, False): gr(-1)}))
    for K in (assemble_kappa(random_components(rng, consts1), m),
              random_lemma_cochain(rng, 1), mixed):
        got, want = homogeneity_classify(K), _reference_classify(K)
        assert list(got) == list(want)
        for ell, piece in want.items():
            _assert_same_cochain(got[ell], piece)


def test_component_file_round_trip(model_for, consts1, tmp_path):
    compo = random_components(random.Random(9), consts1)
    doc = components_to_json(compo, consts1.signature)
    text = json.dumps(doc)
    compo2 = components_from_json(json.loads(text), consts1)
    assert compo2.s == compo.s and compo2.v == compo.v
    assert compo2.l == compo.l and compo2.m == compo.m
    assert compo2.c == compo.c and compo2.h == compo.h
    assert compo2.p == compo.p and compo2.q == compo.q and compo2.r == compo.r


@pytest.mark.parametrize("n, signature", [(1, (1, 0)), (2, (1, 1))])
def test_component_file_lists_every_arrangement(model_for, n, signature):
    """The file format stores every arrangement of S, V, L and M, written
    here from the full arrays alone; such a file reads back equal to the
    components, and components_to_json writes exactly it."""
    consts = model_for(n, signature).consts
    compo = random_components(random.Random(10 + n), consts)
    doc = {"n": n, "signature": list(signature)}
    for name in ("S", "V", "L", "M", "C", "H"):
        t = getattr(compo, name.lower())
        if isinstance(t, SymTensor):
            t = t.full()
        doc[name] = [{"idx": list(idx), "re": str(v.re), "im": str(v.im)}
                     for idx, v in sorted(t.entries.items())]
    for name in ("P", "Q", "R"):
        v = getattr(compo, name.lower())
        doc[name] = {"re": str(v.re), "im": str(v.im)}
    assert len(doc["S"]) > len(compo.s.entries)
    assert components_from_json(doc, consts) == compo
    assert components_to_json(compo, signature) == doc


def test_component_reader_symmetrizes(consts1):
    doc = {"n": 1, "signature": [1, 0],
           "S": [], "V": [{"idx": [1, 1, 2], "re": "3", "im": "0"},
                          {"idx": [2, 1, 1], "re": "3", "im": "0"}],
           "L": [], "M": [], "C": [], "H": []}
    compo = components_from_json(doc, consts1)
    # the orbit mean: (3 + 3 + 0) / 3
    assert compo.v.get(1, 1, 2) == compo.v.get(1, 2, 1) == gr(2)


def test_component_reader_rejects_bad_symmetry(consts1):
    doc = {"n": 1, "signature": [1, 0],
           "S": [{"idx": [1, 1, 1, 1], "re": "1", "im": "0"}],
           "V": [], "L": [], "M": [], "C": [], "H": []}
    # S without its j-partner entries fails the j-invariance validation
    with pytest.raises(ValueError):
        components_from_json(doc, consts1)


@pytest.mark.parametrize("doc, where", [
    ({"n": 1, "S": 5}, "S"),
    ({"n": 1, "P": 3}, "P"),
    ([1, 2], "JSON object"),
    ({"n": 1, "C": [{"idx": 1, "re": "1", "im": "0"}]}, "C[0].idx"),
    ({"n": 1, "C": ["x"]}, "C[0]"),
    ({"n": 1, "signature": "ab"}, "signature"),
    ({"n": 1, "signature": [1]}, "signature"),
    ({"n": None}, "n must be an integer"),
    ({"n": 1, "R": {"re": 0.1, "im": 0}}, "R.re"),
    ({"n": 1, "P": {"re": "1", "im": 0.5}}, "P.im"),
    ({"n": 1, "P": {"re": "1"}}, "P"),
    ({"n": 1, "Q": {"re": "1/0", "im": "0"}}, "Q.re"),
    ({"n": 1, "C": [{"idx": [1], "re": True, "im": "0"}]}, "C[0].re"),
    ({"n": 2}, "n = 2 does not match n = 1"),
    ({"n": 1, "signature": [0, 1]}, "signature [0, 1] does not match"),
])
def test_component_reader_rejects_malformed_input(doc, where, consts1):
    with pytest.raises(ValueError, match=re.escape(where)) as info:
        components_from_json(doc, consts1)
    assert "\n" not in str(info.value)


def test_component_reader_reads_strings_and_integers_exactly(consts1):
    # no signature: the file is read at the definite signature (1, 0)
    doc = {"n": 1, "C": [{"idx": [1], "re": "0.1", "im": 3}],
           "P": {"re": -2, "im": "1/3"}}
    compo = components_from_json(doc, consts1)
    assert compo.c.get(1) == gr(Fraction(1, 10), 3)
    assert compo.p == gr(-2, Fraction(1, 3))


def test_cochain_antisymmetry():
    rng = random.Random(6)
    for n in (1, 2):
        K = random_lemma_cochain(rng, n)
        ks = gminus_keys(n)
        for ki in ks:
            assert K.get(ki, ki).is_zero()
            for kj in ks:
                assert K.get(kj, ki) == -K.get(ki, kj)
                assert (K.get(kj, ki) + K.get(ki, kj)).is_zero()
        assert not K.get(ks[1], ks[0]).is_zero()
        # storing a pair in reverse order stores its negative
        val = K.get(ks[0], ks[1])
        K.set_pair(ks[1], ks[0], val)
        assert K.get(ks[0], ks[1]) == -val


def test_lemma_space_detection():
    K = Cochain2(1)
    K.set_pair(("eta", 1), ("theta", 1, False), LieCoord(1, {("psi", 2): gr(1)}))
    assert K.in_lemma_space()
    K.set_pair(("eta", 1), ("eta", 2), LieCoord(1, {("eta", 1): gr(1)}))
    assert not K.in_lemma_space()


def _storage(K):
    """The stored integer row, order included."""
    return K.den, list(K.ints.items())


def _assert_reduced(K):
    """den > 0, no zero entry, ascending columns, gcd(den, every part) 1."""
    assert K.den > 0 and all(v != (0, 0) for v in K.ints.values())
    assert list(K.ints) == sorted(K.ints)
    assert gcd(K.den, *(x for v in K.ints.values() for x in v)) == 1


def _rebuilt(K, reverse):
    """K rebuilt with set_pair from its decoded pair views, each pair given
    in reverse order (with its negative) when ``reverse``, last pair
    first."""
    out = Cochain2(K.n)
    ks = gminus_keys(K.n)
    pairs = [(ki, kj) for i, ki in enumerate(ks) for kj in ks[i + 1:]]
    for ki, kj in (pairs[::-1] if reverse else pairs):
        if reverse:
            out.set_pair(kj, ki, -K.get(ki, kj))
        else:
            out.set_pair(ki, kj, K.get(ki, kj))
    return out


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_cochains_store_one_reduced_row(model_for, n, signature):
    """A cochain from assemble_kappa, the same rebuilt with set_pair from
    its decoded pair views, and its homogeneity pieces each store a
    reduced (den, row), so equal cochains store the same row.  kappa's
    integer row is not reduced as evaluated, and a piece of kappa has a
    smaller denominator than kappa: neither reduction is vacuous."""
    m = model_for(n, signature)
    rng = random.Random(50 + n)
    compo = random_components(rng, m.consts)
    kappas = [assemble_kappa(compo, m),
              assemble_kappa(broken_components(rng, m.consts), m, validate=False,
                             tamper="unsym-S")]
    assert cochains._kappa_row(compo, m)[0] > kappas[0].den
    for K in kappas + [random_lemma_cochain(rng, n)]:
        _assert_reduced(K)
        for reverse in (False, True):
            assert _storage(_rebuilt(K, reverse)) == _storage(K)
        pieces = homogeneity_classify(K)
        assert len(pieces) > 1
        for piece in pieces.values():
            _assert_reduced(piece)
            assert _storage(_rebuilt(piece, True)) == _storage(piece)
    assert any(piece.den < kappas[0].den for piece in homogeneity_classify(kappas[0]).values())
    assert _storage(Cochain2(n)) == (1, [])
    # a pair set to zero leaves no entry and the row reduced again
    K = kappas[0]
    ks = gminus_keys(n)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            K.set_pair(ki, kj, LieCoord(n))
    assert _storage(K) == (1, [])


def test_apply_reads_the_stored_row(model_for, closed1, monkeypatch):
    """Each cochain map hands ``product_into`` K's stored integer row
    itself, read in place through ``.items()``, as the one row of its left
    operand, and returns the output row that ``product_into`` filled:
    ``_apply`` builds no per-entry container from K's row, on the way in
    or out.  The outputs are those of the maps on a copy of K."""
    product, calls = cochains.product_into, []

    def spy(acc, a, b, sign=1):
        calls.append((acc, a))
        product(acc, a, b, sign)

    m = model_for(1)
    K = random_lemma_cochain(random.Random(4), 1)
    want = [f(Cochain2(1, K.den, dict(K.ints))) for f in (
        lambda K: kostant_codiff_direct(K, m), lambda K: kostant_codiff_closed(K, m, closed1),
        lambda K: trace_conditions(K, m))]
    monkeypatch.setattr(cochains, "product_into", spy)
    assert kostant_codiff_direct(K, m) == want[0]
    assert kostant_codiff_closed(K, m, closed1) == want[1]
    assert trace_conditions(K, m) == want[2]
    assert len(calls) == 3
    for acc, a in calls:
        assert list(a) == [0] and type(a[0]) is type({}.items())
        assert list(acc) == [0]
    # a live view of K.ints itself, not of a copy: it sees an entry added later
    K.ints[-1] = (0, 0)
    assert all((-1, (0, 0)) in a[0] for _, a in calls)
    del K.ints[-1]
    # the returned output row is the one product_into filled
    calls.clear()
    den, out = cochains._apply(K, m, "_direct_map", cochains._build_direct)
    (acc, _), = calls
    assert acc[0] is out and out


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_kept_matrices_stored_once_in_the_pair_layout(n, signature):
    """The basis matrices, the decoder, D_direct, the closed matrix and T
    are each stored once, as ``linear.int_matrix`` leaves a matrix: row ->
    a nonempty tuple of entries (col, (re, im)), nonzero and in distinct
    columns, over a denominator with gcd(den, every part) == 1.  The basis
    matrices are the rows of one matrix, basis matrix k at the positions
    r m + co of row k, and ``_template_ints`` holds nothing else."""
    m = SpModel(n, signature)
    kept = m._template_ints()
    assert len(kept) == 4
    D, basis, E, dec = kept
    maps = [cochains._kept(m, attr, build) for attr, build in (
        ("_direct_map", cochains._build_direct), ("_closed_map", cochains._build_closed),
        ("_trace_map", cochains._build_trace))]
    for den, rows in [(D, basis), (E, dec)] + maps:
        assert type(den) is int and den > 0 and type(rows) is dict and rows
        parts = []
        for row in rows.values():
            assert type(row) is tuple and row
            for entry in row:
                assert type(entry) is tuple and len(entry) == 2
                co, v = entry
                assert type(co) is int and type(v) is tuple and len(v) == 2 and v != (0, 0)
                parts += v
            assert len({co for co, _ in row}) == len(row)
        assert gcd(den, *parts) == 1
    assert list(basis) == list(range(m.dim))
    for k, mat in enumerate(m.to_matrix(m.basis(key)) for key in m.keys):
        assert {divmod(p, m.m): GaussRational.from_ints(re, im, D)
                for p, (re, im) in basis[k]} == mat
