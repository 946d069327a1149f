"""The codifferentials and the trace conditions against reference
evaluators.

The three reference functions below are the loop implementations that
``cochains.kostant_codiff_direct``, ``kostant_codiff_closed`` and
``trace_conditions`` replaced, kept verbatim apart from their names:
they build a ``LieCoord`` for every term and read K through
``Cochain2.get``.  The package code must give the same results on
assembled curvature cochains, lemma cochains, delta cochains and the
broken-S cochain, must leave its inputs untouched, and must negate no
``LieCoord`` on the way."""
import random
from fractions import Fraction
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from qcframe import coframe
from qcframe import cochains
from qcframe.cochains import (Cochain1, Cochain2, assemble_kappa, broken_components,
                              check_normality, codiff_closed_constants,
                              components_to_json, gminus_keys,
                              kostant_codiff_closed, kostant_codiff_direct,
                              random_components, random_lemma_cochain, trace_conditions)
from qcframe.coframe import Key
from qcframe.gauss import GaussRational, gr
from qcframe.model import LieCoord, SpModel

I = gr(0, 1)

# ---------------------------------------------------------------------------
# reference evaluators


def reference_codiff_direct(K: Cochain2, model: SpModel) -> Cochain1:
    """Literal evaluation of the bracket definition over the trace-dual
    frames."""
    n = model.n

    def k_of(lc: LieCoord, kb: Key) -> LieCoord:
        """K(x, e_b) for x expanded in the g_- basis."""
        out = LieCoord(n)
        for kx, vx in lc.c.items():
            out = out + K.get(kx, kb).scale(vx)
        return out

    out: Cochain1 = {}
    for ka, rows in model.dual_brackets().items():
        tot = LieCoord(n)
        for hat, kb, minus in rows:
            tot = tot + model.bracket(hat, K.get(ka, kb)).scale(2)
            tot = tot - k_of(minus, kb)
        out[ka] = tot
    return out


def reference_codiff_closed(K: Cochain2, model: SpModel,
                          consts: Optional[dict] = None) -> Cochain1:
    """The closed trace-condition formula with calibrated slot
    constants; requires K valued in sp(n) + g_1 + g_2."""
    if not K.in_lemma_space():
        raise ValueError("cochain has components outside sp(n)+g_1+g_2")
    if consts is None:
        consts = codiff_closed_constants(model)
    n = model.n
    c = model.consts
    fr = model.dual_frames()
    R = range(1, 2 * n + 1)

    # the three eta-slot combinations
    kzz = LieCoord(n)
    for a in R:
        for s in R:
            coeff = c.g_up(a, s)
            if not coeff.is_zero():
                kzz = kzz + K.get(("theta", s, True), ("theta", a, False)).scale(coeff)
            coeff2 = c.g_up(s, a)
            if not coeff2.is_zero():
                kzz = kzz - K.get(("theta", s, False), ("theta", a, True)).scale(coeff2)
    piK = LieCoord(n)
    piKb = LieCoord(n)
    for a in R:
        for bq in R:
            coeff = c.pi_up(a, bq)
            if not coeff.is_zero():
                piK = piK + K.get(("theta", a, False), ("theta", bq, False)).scale(coeff)
                piKb = piKb + K.get(("theta", a, True), ("theta", bq, True)).scale(coeff.conj())

    # the lowered hat frames Zhat_b and Zhat_b̄
    zlow = {}
    zlow_bar = {}
    for be in R:
        acc = LieCoord(n)
        accb = LieCoord(n)
        for t in R:
            acc = acc + fr["Zhatbar"][t - 1].scale(c.g(be, t))
            accb = accb + fr["Zhat"][t - 1].scale(c.g(t, be))
        zlow[be] = acc
        zlow_bar[be] = accb

    out: Cochain1 = {}
    for ka in gminus_keys(n):
        tot = LieCoord(n)
        if ka == ("eta", 1):
            tot = tot + kzz.scale(I * consts["c_eta1"])
        if ka in (("eta", 2), ("eta", 3)):
            w = gr(1) if ka == ("eta", 2) else I
            tot = tot + piK.scale(w * consts["c_eta23p"])
            wm = gr(1) if ka == ("eta", 2) else -I
            tot = tot + piKb.scale(wm * consts["c_eta23m"])
        # Gamma slots: Gamma^{ā}_s(x) = g^{ā t} Gam_{s t}(x) and the
        # conjugate pattern with the barred Gamma coordinate of x
        for be in R:
            coef_b = gr(0)   # multiplies Zhat_b
            coef_bb = gr(0)  # multiplies Zhat_b̄
            for si in R:
                pi_bs = c.pi_up(be, si)
                if pi_bs.is_zero():
                    continue
                for al in R:
                    for t in R:
                        gat = c.g_up(t, al)
                        if gat.is_zero():
                            continue
                        coef_b = coef_b + pi_bs * gat * \
                            K.get(ka, ("theta", al, True)).get(("Gam", si, t))
                        coef_bb = coef_bb + pi_bs.conj() * gat.conj() * \
                            K.get(ka, ("theta", al, False)).gam_bar(c, si, t)
            tot = tot + zlow[be].scale(consts["c_gam"] * coef_b)
            tot = tot + zlow_bar[be].scale(consts["c_gam"] * coef_bb)
        # Ehat slots
        acc1 = gr(0)
        for al in R:
            acc1 = acc1 + K.get(ka, ("theta", al, False)).get(("phiU", al, False))
            acc1 = acc1 - K.get(ka, ("theta", al, True)).get(("phiU", al, True))
        tot = tot + fr["Ehat"][0].scale(I * consts["c_E1"] * acc1)
        accp = gr(0)
        accm = gr(0)
        for al in R:
            for si in R:
                cu = c.pi_u_lbar(al, si)
                if not cu.is_zero():
                    accp = accp + cu * K.get(ka, ("theta", al, False)).get(("phiU", si, True))
                cb = c.pi_ubar_l(al, si)
                if not cb.is_zero():
                    accm = accm + cb * K.get(ka, ("theta", al, True)).get(("phiU", si, False))
        e2, e3 = fr["Ehat"][1], fr["Ehat"][2]
        tot = tot + (e2 + e3.scale(I)).scale(consts["c_E23p"] * accp)
        tot = tot + (e2 - e3.scale(I)).scale(consts["c_E23m"] * accm)
        out[ka] = tot
    return out


def reference_trace_conditions(K: Cochain2, model: SpModel) -> Dict[str, bool]:
    """The five contraction identities the curvature cochain satisfies."""
    n = model.n
    c = model.consts
    R = range(1, 2 * n + 1)
    t1 = LieCoord(n)
    t2 = LieCoord(n)
    for a in R:
        for bq in R:
            cg = c.g_up(a, bq)
            if not cg.is_zero():
                t1 = t1 + K.get(("theta", a, False), ("theta", bq, True)).scale(cg)
            cp = c.pi_up(a, bq)
            if not cp.is_zero():
                t2 = t2 + K.get(("theta", a, False), ("theta", bq, False)).scale(cp)
    ok3 = ok4 = ok5 = True
    for kx in gminus_keys(n):
        for al in R:
            acc3 = gr(0)
            for bq in R:
                for s in R:
                    cg = c.g_up(bq, s)
                    if not cg.is_zero():
                        acc3 = acc3 + cg * K.get(("theta", s, True), kx).get(("Gam", al, bq))
            if not acc3.is_zero():
                ok3 = False
        acc4 = gr(0)
        acc5 = gr(0)
        for al in R:
            for s in R:
                cg = c.g_up(al, s)
                if not cg.is_zero():
                    val = K.get(("theta", s, True), kx)
                    for t in R:
                        gl = c.g(t, al)
                        if not gl.is_zero():
                            acc4 = acc4 + cg * gl * val.get(("phiU", t, True))
            for bq in R:
                cp = c.pi_up(al, bq)
                if not cp.is_zero():
                    val = K.get(("theta", bq, False), kx)
                    for t in R:
                        gl = c.g(t, al)
                        if not gl.is_zero():
                            acc5 = acc5 + cp * gl * val.get(("phiU", t, True))
        if not acc4.is_zero():
            ok4 = False
        if not acc5.is_zero():
            ok5 = False
    return {
        "g_trace": t1.is_zero(),
        "pi_trace": t2.is_zero(),
        "Gamma_trace": ok3,
        "phi_trace": ok4,
        "pi_phi_trace": ok5,
    }


# ---------------------------------------------------------------------------
# cochains

CASES = [(1, None), (2, None), (2, (1, 1)), (3, None), (3, (2, 1))]
CLOSED_NAMES = ("c_eta1", "c_eta23p", "c_eta23m", "c_E1", "c_E23p", "c_E23m", "c_gam")

_CLOSED = {}


def closed_for(m: SpModel) -> dict:
    key = (m.n, m.consts.signature)
    if key not in _CLOSED:
        _CLOSED[key] = codiff_closed_constants(m)
    return _CLOSED[key]


def lemma_keys(n: int):
    return [k for k in coframe.coord_keys(n) if k[0] in ("Gam", "phiU", "psi")]


def gminus_pairs(n: int):
    ks = gminus_keys(n)
    return [(ki, kj) for i, ki in enumerate(ks) for kj in ks[i + 1:]]


def delta(n: int, ki: Key, kj: Key, key: Key, val) -> Cochain2:
    K = Cochain2(n)
    K.set_pair(ki, kj, LieCoord(n, {key: val}))
    return K


def assert_matches_reference(K: Cochain2, m: SpModel) -> None:
    cc = closed_for(m)
    assert kostant_codiff_direct(K, m) == reference_codiff_direct(K, m)
    assert kostant_codiff_closed(K, m, cc) == reference_codiff_closed(K, m, cc)
    assert trace_conditions(K, m) == reference_trace_conditions(K, m)


@pytest.mark.parametrize("n, signature", CASES)
def test_matches_reference_on_assembled_kappa(model_for, n, signature):
    m = model_for(n, signature)
    rng = random.Random(60 + n)
    for _ in range(2):
        assert_matches_reference(assemble_kappa(random_components(rng, m.consts), m), m)
    K = assemble_kappa(broken_components(rng, m.consts), m, validate=False,
                       tamper="unsym-S")
    assert_matches_reference(K, m)
    # the broken-S cochain is not normal: the comparison is not 0 == 0
    assert not all(trace_conditions(K, m).values())


@pytest.mark.parametrize("n, signature", CASES)
def test_matches_reference_on_lemma_cochains(model_for, n, signature):
    m = model_for(n, signature)
    rng = random.Random(70 + n)
    for _ in range(3):
        assert_matches_reference(random_lemma_cochain(rng, n), m)


@pytest.mark.parametrize("n, signature", CASES)
def test_matches_reference_on_delta_cochains(model_for, n, signature):
    """Every (pair, lemma coordinate) delta at n = 1; at n >= 2 one per
    pair, the coordinates taken in turn."""
    m = model_for(n, signature)
    targets = lemma_keys(n)
    val = gr(Fraction(2, 3), -1)
    for p, (ki, kj) in enumerate(gminus_pairs(n)):
        keys = targets if n == 1 else [targets[p % len(targets)]]
        for key in keys:
            assert_matches_reference(delta(n, ki, kj, key, val), m)


def test_direct_matches_reference_outside_lemma_space(model_for):
    """The direct codifferential takes cochains valued in all of g."""
    m = model_for(1)
    for ki, kj in gminus_pairs(1):
        for key in m.keys:
            K = delta(1, ki, kj, key, gr(1, 2))
            assert kostant_codiff_direct(K, m) == reference_codiff_direct(K, m)


def test_matrices_on_every_unit_cochain(model_for):
    """At n = 1 every unit cochain: each pair with each coordinate (441)
    through the direct matrix and the trace conditions, and each pair
    with each lemma coordinate through the closed matrix.  The nonzero
    coordinates of the direct outputs are as many as D_direct has
    entries; the closed constants are seven distinct values, so an
    output tagged with the wrong slot is seen."""
    m = model_for(1)
    consts = {name: gr(k + 2, k - 3) for k, name in enumerate(CLOSED_NAMES)}
    lemma = set(lemma_keys(1))
    nonzeros = 0
    for ki, kj in gminus_pairs(1):
        for key in m.keys:
            K = delta(1, ki, kj, key, gr(1))
            want = reference_codiff_direct(K, m)
            assert kostant_codiff_direct(K, m) == want, (ki, kj, key)
            nonzeros += sum(len(v.c) for v in want.values())
            assert trace_conditions(K, m) == reference_trace_conditions(K, m)
            if key in lemma:
                assert kostant_codiff_closed(K, m, consts) == \
                    reference_codiff_closed(K, m, consts), (ki, kj, key)
    assert nonzeros == 738


def test_set_pair_lands_on_the_matrix_columns(model_for):
    """At n = 1 every unit cell, a g_- pair with a coordinate (441):
    set_pair(x, y, c) and set_pair(y, x, -c) store the same one-entry
    row, c at ``column(1, x, y, key)``, and D_direct, the closed matrix
    and T each map that row to c times their own column of that number,
    so each cell is read with the orientation of K(x, y) that the
    references see in ``test_matrices_on_every_unit_cochain``.  D_direct
    reads 327 of the columns, the closed matrix 140 and T 98, all among
    those of D_direct."""
    m = model_for(1)
    c = gr(2, -1)
    maps = (("_direct_map", cochains._build_direct), ("_closed_map", cochains._build_closed),
            ("_trace_map", cochains._build_trace))
    new = GaussRational.from_ints
    read = {attr: set() for attr, _ in maps}
    for x, y in gminus_pairs(1):
        for key in m.keys:
            col, sign = cochains.column(1, x, y, key)
            assert sign == 1 and cochains.column(1, y, x, key) == (col, -1)
            K, R = Cochain2(1), Cochain2(1)
            K.set_pair(x, y, LieCoord(1, {key: c}))
            R.set_pair(y, x, LieCoord(1, {key: -c}))
            assert list(K.row.items()) == list(R.row.items()) == [(col, c)]
            assert R.get(x, y) == LieCoord(1, {key: c}) and R.get(y, x) == LieCoord(1, {key: -c})
            for attr, build in maps:
                den, rows = cochains._kept(m, attr, build)
                got_den, got = cochains._apply(R, (den, rows))
                assert {out: new(re, im, got_den) for out, (re, im) in got.items()} == \
                    {out: c * new(re, im, den) for out, (re, im) in rows.get(col, ())}
                if col in rows:
                    read[attr].add(col)
    assert [len(cols) for cols in read.values()] == [327, 140, 98]
    assert read["_closed_map"] | read["_trace_map"] <= read["_direct_map"]


@pytest.mark.parametrize("n, entries", [(1, 738), (2, 2612), (3, 6114)])
def test_direct_matrix_entries_pinned(model_for, n, entries):
    _, rows = cochains._build_direct(model_for(n))
    assert sum(len(row) for row in rows.values()) == entries


def test_negated_direct_entry_is_seen(model_for, monkeypatch):
    """Negative control: on a fresh model whose D_direct has one entry
    negated, in a column the lemma cochain K reads, the direct
    codifferential of K differs from the reference."""
    K = random_lemma_cochain(random.Random(5), 1)
    m = model_for(1)
    assert kostant_codiff_direct(K, m) == reference_codiff_direct(K, m)
    build = cochains._build_direct

    def negated(model):
        den, rows = build(model)
        col = next(c for c in K.row if c in rows)
        (out, (re, im)), *rest = rows[col]
        rows[col] = ((out, (-re, -im)), *rest)
        return den, rows

    monkeypatch.setattr(cochains, "_build_direct", negated)
    fresh = SpModel(1)
    assert kostant_codiff_direct(K, fresh) != reference_codiff_direct(K, fresh)


def lemma_cochains(n: int):
    """Sparse lemma-space cochains: a few coordinates on pairs given in
    either order, so that both orientations of a stored pair are read."""
    ks = gminus_keys(n)
    cell = st.tuples(st.sampled_from([(a, b) for a in ks for b in ks if a != b]),
                     st.sampled_from(lemma_keys(n)),
                     st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))

    def build(cells) -> Cochain2:
        K = Cochain2(n)
        for (ki, kj), key, re, im, d in cells:
            val = gr(Fraction(re, d), Fraction(im, d))
            K.set_pair(ki, kj, K.get(ki, kj) + LieCoord(n, {key: val}))
        return K

    return st.lists(cell, max_size=8).map(build)


@given(K=lemma_cochains(1))
def test_matches_reference_on_random_lemma_cochains(model_for, K):
    assert_matches_reference(K, model_for(1))


@settings(max_examples=25)
@given(K=lemma_cochains(2))
def test_matches_reference_on_random_lemma_cochains_indefinite(model_for, K):
    assert_matches_reference(K, model_for(2, (1, 1)))


# ---------------------------------------------------------------------------
# check_normality against the public path


def cochain1_is_zero(d: Cochain1) -> bool:
    return all(v.is_zero() for v in d.values())


def public_normality(compo, m: SpModel, consts: dict, validate=True, tamper=None) -> dict:
    """check_normality's report through the public maps on the assembled
    kappa."""
    K = assemble_kappa(compo, m, validate=validate, tamper=tamper)
    direct = kostant_codiff_direct(K, m)
    closed = kostant_codiff_closed(K, m, consts)
    traces = trace_conditions(K, m)
    return {
        "trace_conditions": traces,
        "dstar_direct_zero": cochain1_is_zero(direct),
        "dstar_closed_zero": cochain1_is_zero(closed),
        "direct_equals_closed": all(direct[k] == closed[k] for k in direct),
        "normal": cochain1_is_zero(direct) and all(traces.values()),
    }


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_check_normality_matches_the_public_path(model_for, n, signature):
    """The same report, on admissible components and on broken-S
    components with unsym-S, also with one closed constant flipped so
    that direct_equals_closed is false on the broken-S cochain."""
    m = model_for(n, signature)
    cc = closed_for(m)
    rng = random.Random(90 + n)
    for _ in range(2):
        compo = random_components(rng, m.consts)
        rep = check_normality(compo, m, cc)
        assert rep == public_normality(compo, m, cc) and rep["normal"]
    broken = broken_components(rng, m.consts)
    for consts in (cc, dict(cc, c_eta1=-cc["c_eta1"])):
        rep = check_normality(broken, m, consts, validate=False, tamper="unsym-S")
        assert rep == public_normality(broken, m, consts, validate=False, tamper="unsym-S")
        assert not rep["normal"]
        assert rep["direct_equals_closed"] == (consts is cc)


def test_check_normality_builds_no_cochain(model_for, monkeypatch):
    """One check_normality on admissible n = 2 components constructs no
    Cochain2 and divides no kappa column (no GaussRational.from_ints);
    assembling the same kappa constructs one and divides no column either:
    only the decoded view ``row`` divides, once per column."""
    m = model_for(2)
    cc = closed_for(m)
    compo = random_components(random.Random(83), m.consts)
    assert check_normality(compo, m, cc)["normal"]  # the matrices exist
    cochains_made, divided = [], []
    init, from_ints = Cochain2.__init__, GaussRational.from_ints

    def counting_init(self, *args, **kwargs):
        cochains_made.append(1)
        init(self, *args, **kwargs)

    def counting_from_ints(*args):
        divided.append(1)
        return from_ints(*args)

    monkeypatch.setattr(Cochain2, "__init__", counting_init)
    monkeypatch.setattr(GaussRational, "from_ints", staticmethod(counting_from_ints))
    assert check_normality(compo, m, cc)["normal"]
    assert cochains_made == [] and divided == []
    K = assemble_kappa(compo, m)
    assert len(cochains_made) == 1 and divided == [] and K.ints
    assert len(K.row) == len(divided) == len(K.ints)


# ---------------------------------------------------------------------------
# inputs stay untouched, no LieCoord is negated


def _cochain_state(K: Cochain2):
    return list(K.row.items())


def _model_state(m: SpModel):
    frames = {name: [dict(x.c) for x in v] if isinstance(v, list) else v
              for name, v in m.dual_frames().items()}
    brackets = {ka: [(dict(hat.c), kb, dict(minus.c)) for hat, kb, minus in rows]
                for ka, rows in m.dual_brackets().items()}
    return frames, brackets


def test_check_normality_leaves_inputs_untouched(model_for, monkeypatch):
    """The integer kappa rows check_normality evaluates, the components
    and the model's dual frames and brackets are the same after the
    check as when they were made."""
    m = model_for(2)
    cc = closed_for(m)
    before = _model_state(m)
    seen = []
    kappa_row = cochains._kappa_row

    def recording(*args, **kwargs):
        den, row = kappa_row(*args, **kwargs)
        seen.append((row, list(row.items())))
        return den, row

    monkeypatch.setattr(cochains, "_kappa_row", recording)
    rng = random.Random(81)
    good = random_components(rng, m.consts)
    broken = broken_components(rng, m.consts)
    compos = [(c, components_to_json(c, m.consts.signature)) for c in (good, broken)]
    assert check_normality(good, m, cc)["normal"]
    assert not check_normality(broken, m, cc, validate=False, tamper="unsym-S")["normal"]
    assert len(seen) == 2
    for row, items in seen:
        assert list(row.items()) == items
    for compo, doc in compos:
        assert components_to_json(compo, m.consts.signature) == doc
    assert _model_state(m) == before


def test_check_normality_negates_no_liecoord(model_for, monkeypatch):
    m = model_for(2)
    calls = []
    neg = LieCoord.__neg__

    def counting(self):
        calls.append(1)
        return neg(self)

    monkeypatch.setattr(LieCoord, "__neg__", counting)
    rng = random.Random(82)
    assert check_normality(random_components(rng, m.consts), m)["normal"]
    broken = broken_components(rng, m.consts)
    check_normality(broken, m, validate=False, tamper="unsym-S")
    assert calls == []


# ---------------------------------------------------------------------------
# negative controls: a wrong closed constant is seen


@pytest.mark.parametrize("name", ["c_eta1", "c_gam"])
def test_flipped_closed_constant_breaks_agreement(model_for, name):
    """On the broken-S cochain the eta1 and Gamma slots carry nonzero
    terms, so one flipped sign there makes the two routes disagree.  (On
    a normal kappa every slot term vanishes by itself.)"""
    m = model_for(2)
    cc = closed_for(m)
    compo = broken_components(random.Random(3), m.consts)
    rep = check_normality(compo, m, cc, validate=False, tamper="unsym-S")
    assert rep["direct_equals_closed"] and not rep["normal"]
    flipped = dict(cc, **{name: -cc[name]})
    rep = check_normality(compo, m, flipped, validate=False, tamper="unsym-S")
    assert not rep["direct_equals_closed"]


@pytest.mark.parametrize("name", CLOSED_NAMES)
def test_every_closed_constant_is_seen_on_a_lemma_cochain(model_for, name):
    m = model_for(1)
    cc = closed_for(m)
    K = random_lemma_cochain(random.Random(4), 1)
    direct = kostant_codiff_direct(K, m)
    assert kostant_codiff_closed(K, m, cc) == direct
    flipped = dict(cc, **{name: -cc[name]})
    assert kostant_codiff_closed(K, m, flipped) != direct
