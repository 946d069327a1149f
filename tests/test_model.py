import ast
import importlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qcframe.gauss import HALF, ONE, axpy, gr
from qcframe.linear import smat_mul, solve_sparse, solve_square
from qcframe.model import (Dual, G1Element, LieCoord, SpModel, TemplateError,
                           commutes_with_j2, g1_compose, g1_inverse,
                           g1_lie_matrix, g1_to_matrix, grading_check,
                           jacobi_residual, maurer_cartan_check,
                           parabolic_member, preserves_pairing, random_coord,
                           random_g1, random_spn, validate_spn)
from qcframe.tensors import (IndexedTensor, StandardConstants, SymTensor, j_average,
                             random_tensor, slots, symmetrize)
import qcframe
from qcframe import coframe

I = gr(0, 1)


def _matmul(A, B):
    size = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(size)), gr(0))
             for j in range(size)] for i in range(size)]


def test_liecoord_negation(model_for):
    m = model_for(1)
    rng = random.Random(12)
    for _ in range(20):
        a, b = random_coord(rng, m), random_coord(rng, m)
        assert -a == a.scale(gr(-1))
        assert (a + -a).is_zero()
        assert a - b == a + b.scale(gr(-1))
        assert -(-a) == a
    assert (-LieCoord(1)).is_zero()


def test_template_eta1_entry(model_for):
    m = model_for(1)
    M = m.to_matrix(LieCoord(1, {("eta", 1): gr(2)}))
    assert M[(m.w1, m.v1)] == I  # (i/2) * 2
    assert M[(m.w2, m.v2)] == -I
    assert len(M) == 2


def test_zero_round_trip(model_for):
    m = model_for(1)
    assert m.to_matrix(LieCoord(1)) == {}
    assert m.from_matrix({}).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_round_trip_random(model_for, n):
    m = model_for(n)
    rng = random.Random(n)
    for _ in range(100):
        x = random_coord(rng, m)
        assert m.from_matrix(m.to_matrix(x)) == x


def test_from_matrix_rejects_off_template(model_for):
    m = model_for(1)
    M = m.to_matrix(LieCoord(1, {("eta", 1): gr(1)}))
    M[(0, 0)] = gr(7)  # breaks the phi0/phi1 block relations
    with pytest.raises(TemplateError):
        m.from_matrix(M)


def test_bracket_self_and_g_minus2_abelian(model_for):
    m = model_for(1)
    rng = random.Random(9)
    x = random_coord(rng, m)
    assert m.bracket(x, x).is_zero()
    e2, e3 = m.basis(("eta", 2)), m.basis(("eta", 3))
    assert m.bracket(e2, e3).is_zero()


def test_grading_additivity(model_for):
    assert grading_check(model_for(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_random(model_for, n):
    m = model_for(n)
    rng = random.Random(n + 100)
    for _ in range(10):
        a, b, c = (random_coord(rng, m) for _ in range(3))
        assert jacobi_residual(m, a, b, c).is_zero()


def test_killing_closed_examples(model_for):
    """The closed-form expression reproduces its own quoted values."""
    m = model_for(1)
    a = m.basis(("eta", 1))
    b = m.basis(("psi", 1))
    assert m.killing_closed(a, b) == gr(-10)  # -(4n+6) at n=1
    assert m.killing_closed(a, m.basis(("eta", 2))).is_zero()
    assert m.killing_closed(a, a).is_zero()


def test_killing_trace_symmetric_and_ad_invariant(model_for):
    m = model_for(1)
    rng = random.Random(4)
    for _ in range(10):
        a, b, x = (random_coord(rng, m) for _ in range(3))
        assert m.killing_trace(a, b) == m.killing_trace(b, a)
        lhs = m.killing_trace(m.bracket(x, a), b) + m.killing_trace(a, m.bracket(x, b))
        assert lhs.is_zero()


def test_killing_gram_nondegenerate(model_for):
    m = model_for(1)
    gram = m.killing_gram()
    # every basis vector pairs nontrivially with something
    for i in range(m.dim):
        assert any((i, j) in gram for j in range(m.dim))


def test_calibration_documents_discrepancies(model_for):
    m = model_for(1)
    cal = m.calibration()
    assert cal["blocks"]["phi0_phi0"]["match"] is True
    # the printed eta-psi, phi_s, theta-phi and Gamma coefficients all
    # differ from the ad-trace, which is uniformly -(2n+6)-proportional
    assert cal["blocks"]["eta_psi"]["match"] is False
    assert cal["blocks"]["eta_psi"]["trace_coefficient"] == "-8"
    assert cal["blocks"]["Gam_Gam"]["trace_coefficient"] == "-8"
    assert cal["blocks"]["theta_phiU"]["trace_coefficient"] == "-32"
    assert cal["full_match"] is False
    assert cal["gram_entry_mismatches"] > 0


@pytest.mark.parametrize("n, signature, mismatches, entries", [
    (1, None, 20, 441), (2, None, 35, 1296), (2, (1, 1), 35, 1296), (3, None, 54, 3025)])
def test_calibration_gram_mismatch_counts(model_for, n, signature, mismatches, entries):
    """The closed-form and ad-trace Grams differ on exactly these many
    basis pairs (the values of the per-pair comparison they replace)."""
    cal = model_for(n, signature).calibration()
    assert (cal["gram_entry_mismatches"], cal["gram_entries"]) == (mismatches, entries)


def test_calibration_counts_entries_of_either_gram():
    """An entry stored in only one of the two Grams is a mismatch."""
    m = SpModel(1)
    closed = dict(m.killing_closed_gram())
    phi0, eta1 = m.key_index[("phi0",)], m.key_index[("eta", 1)]
    assert closed[phi0, phi0] == m.killing_gram()[phi0, phi0]
    assert (eta1, eta1) not in m.killing_gram()
    del closed[phi0, phi0]
    closed[eta1, eta1] = gr(1)
    m._closed = closed
    assert m.calibration()["gram_entry_mismatches"] == 20 + 2


def _printed_killing(m, a, b):
    """The printed closed-form Killing expression, term by term."""
    n, c = m.n, m.consts
    tot = gr(0)
    for s in (1, 2, 3):
        tot = tot - (4 * n + 6) * (a.get(("eta", s)) * b.get(("psi", s))
                                   + a.get(("psi", s)) * b.get(("eta", s)))
        tot = tot - (2 * n + 4) * a.get(("phi", s)) * b.get(("phi", s))
    tot = tot + (2 * n + 6) * a.get(("phi0",)) * b.get(("phi0",))
    for al in range(1, 2 * n + 1):
        d = gr(c.diag[al - 1])
        # theta_alpha = g_{s̄ alpha} theta^{s̄}, theta_ᾱ = g_{s ᾱ} theta^s
        tot = tot - 4 * (2 * n + 7) * (
            d * a.get(("theta", al, True)) * b.get(("phiU", al, False))
            + a.get(("phiU", al, False)) * d * b.get(("theta", al, True))
            + d * a.get(("theta", al, False)) * b.get(("phiU", al, True))
            + a.get(("phiU", al, True)) * d * b.get(("theta", al, False)))
    for al in range(1, 2 * n + 1):
        for be in range(1, 2 * n + 1):
            # Gamma^{a b}(B) = g^{a s̄} g^{b t̄} Gamma_{s̄ t̄}(B)
            up = gr(c.diag[al - 1] * c.diag[be - 1]) * b.gam_bar(c, al, be)
            tot = tot - 7 * a.get(("Gam", al, be)) * up
    return tot


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_killing_closed_is_the_printed_expression(model_for, n, signature):
    m = model_for(n, signature)
    rng = random.Random(30 + n)
    for _ in range(20):
        a, b = random_coord(rng, m), random_coord(rng, m)
        assert m.killing_closed(a, b) == _printed_killing(m, a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_killing_uniform_coefficients(model_for, n):
    """The true Killing form has every block proportional to 2n+6."""
    m = model_for(n)
    c = 2 * n + 6
    assert m.killing_trace(m.basis(("eta", 1)), m.basis(("psi", 1))) == gr(-c)
    assert m.killing_trace(m.basis(("phi0",)), m.basis(("phi0",))) == gr(c)
    assert m.killing_trace(m.basis(("phi", 2)), m.basis(("phi", 2))) == gr(-c)
    assert m.killing_trace(m.basis(("Gam", 1, 1)),
                           m.basis(("Gam", 1 + n, 1 + n))) == gr(-c)


def test_dual_frames_duality(model_for):
    m = model_for(1)
    fr = m.dual_frames()
    for s in range(3):
        for t in range(3):
            want = gr(1 if s == t else 0)
            assert m.killing_trace(fr["E"][s], fr["Ehat"][t]) == want
    for a in range(2):
        for b in range(2):
            want = gr(1 if a == b else 0)
            assert m.killing_trace(fr["Z"][a], fr["Zhat"][b]) == want
            assert m.killing_trace(fr["Z"][a], fr["Zhatbar"][b]).is_zero()


def test_pairings_trace_vs_published(model_for):
    m = model_for(1)
    assert str(m.dual_frames()["psi_pairing"]) == "-1/8"
    assert str(m.dual_frames()["phi_pairing"]) == "-1/32"
    pf = m.dual_frames_published()
    assert str(pf["psi_pairing"]) == "-1/10"
    assert str(pf["phi_pairing"]) == "-1/36"


def test_killing_offdiag_dual_zero(model_for):
    m = model_for(1)
    fr = m.dual_frames()
    assert m.killing_trace(fr["E"][0], fr["Ehat"][1]).is_zero()


# -- G1 ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def c1():
    return StandardConstants(1)


def test_g1_identity_neutral(c1):
    rng = random.Random(1)
    x = random_g1(rng, c1)
    e = G1Element.identity(1)
    assert g1_compose(x, e, c1) == x
    assert g1_compose(e, x, c1) == x


def test_g1_equality_against_other_types(c1):
    e = G1Element.identity(1)
    assert (e == None) is False and e != None
    assert e != "identity" and e != [e.U, e.r, e.lam]
    assert e == G1Element.identity(1)


def test_g1_element_coerces_each_lambda_once(monkeypatch):
    from qcframe.gauss import GaussRational
    coerce = GaussRational._coerce
    calls = []

    def counting(value):
        calls.append(value)
        return coerce(value)

    U = [[gr(1), gr(0)], [gr(0), gr(1)]]
    monkeypatch.setattr(GaussRational, "_coerce", staticmethod(counting))
    x = G1Element(U, [gr(0)] * 2, [1, Fraction(1, 2), gr(0, 3)])
    assert len(calls) == 3
    assert x.lam == [gr(1), gr(Fraction(1, 2)), gr(0, 3)]
    assert all(v.__class__ is GaussRational for v in x.lam)


def test_g1_matrix_oracle(c1):
    rng = random.Random(2)
    for _ in range(25):
        x, y = random_g1(rng, c1), random_g1(rng, c1)
        assert g1_to_matrix(g1_compose(x, y, c1), c1) == \
            _matmul(g1_to_matrix(x, c1), g1_to_matrix(y, c1))


def test_g1_inverse_formula(c1):
    rng = random.Random(3)
    e = G1Element.identity(1)
    for _ in range(25):
        x = random_g1(rng, c1)
        xi = g1_inverse(x, c1)
        assert g1_compose(x, xi, c1) == e
        assert g1_compose(xi, x, c1) == e
        # the inverse U is the g-adjoint and the r-part is -U^{-1} r
        assert validate_spn(xi.U, c1)


def test_g1_associativity(c1):
    rng = random.Random(4)
    for _ in range(25):
        a, b, c = (random_g1(rng, c1) for _ in range(3))
        assert g1_compose(g1_compose(a, b, c1), c, c1) == \
            g1_compose(a, g1_compose(b, c, c1), c1)


def test_g1_rejects_non_spn(c1):
    U = [[gr(2), gr(0)], [gr(0), gr(1)]]
    with pytest.raises(ValueError):
        g1_to_matrix(G1Element(U, [gr(0)] * 2, [gr(0)] * 3), c1)


def test_g1_lie_rep_is_derivative(c1):
    """The algebra representation equals the exact dual-number
    derivative of the group representation along one-parameter
    families through the identity."""
    rng = random.Random(6)
    for _ in range(5):
        y = j_average(symmetrize(random_tensor(rng, 1, slots("ll"), 2)), c1)
        x_mat = [[gr(0)] * 2 for _ in range(2)]
        for (s, b), val in y.full().entries.items():
            for a in range(1, 3):
                coeff = c1.pi_up(a, s)
                if not coeff.is_zero():
                    x_mat[a - 1][b - 1] = x_mat[a - 1][b - 1] + coeff * val
        r0 = [gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(2)]
        lam0 = [gr(rng.randint(-2, 2)) for _ in range(3)]
        eps = Dual(gr(0), gr(1))
        U_eps = [[Dual.of(gr(1 if i == j else 0)) + eps * (2 * x_mat[i][j])
                  for j in range(2)] for i in range(2)]
        fam = G1Element(U_eps, [eps * v for v in r0], [eps * v for v in lam0])
        deriv = [[v.b for v in row]
                 for row in g1_to_matrix(fam, c1, check=False, ring=Dual.of)]
        gam = IndexedTensor(1, slots("ll"))
        for a in range(1, 3):
            for b in range(1, 3):
                acc = gr(0)
                for s in range(1, 3):
                    cp = c1.pi(a, s)
                    if not cp.is_zero():
                        acc = acc + cp * 2 * x_mat[s - 1][b - 1]
                gam.set((a, b), acc)
        rep = g1_lie_matrix(1, c1, gam, [-v for v in r0], [-v for v in lam0])
        assert deriv == rep


# -- parabolic ----------------------------------------------------------------


def test_parabolic_identity(c1):
    U = [[gr(1), gr(0)], [gr(0), gr(1)]]
    M = parabolic_member(gr(1), gr(0), U, [gr(0), gr(0)], [0, 0, 0], c1)
    size = len(M)
    for i in range(size):
        for j in range(size):
            assert M[i][j] == gr(1 if i == j else 0)


def test_parabolic_stabilizes_and_preserves(c1):
    rng = random.Random(12)
    U = random_spn(rng, c1)
    M = parabolic_member(gr(1, 1), gr(Fraction(-1, 2)), U,
                         [gr(1, -2), gr(Fraction(1, 3))], [2, -1, 5], c1)
    # v1, v2 map into span(v1, v2)
    for j in range(2):
        assert all(M[i][j].is_zero() for i in range(2, len(M)))
    assert preserves_pairing(M, c1)
    assert commutes_with_j2(M, c1)
    # a changed U entry breaks both identities
    M[2][2] = M[2][2] + gr(1)
    assert not preserves_pairing(M, c1)
    assert not commutes_with_j2(M, c1)


def test_parabolic_rejects_singular_block(c1):
    U = [[gr(1), gr(0)], [gr(0), gr(1)]]
    with pytest.raises(ValueError):
        parabolic_member(gr(0), gr(0), U, [gr(0), gr(0)], [0, 0, 0], c1)


# -- Maurer-Cartan -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_maurer_cartan_consistency(n):
    rep = maurer_cartan_check(n)
    assert rep["mismatches"] == 0
    assert rep["basis_pairs"] > 0


# -- the structure-constant table -----------------------------------------------


def _coord_357(rng, m):
    """Random coordinates with denominators 3, 5 and 7."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.choice((3, 5, 7)))
    return LieCoord(m.n, {k: gr(q(), q()) for k in m.keys})


@pytest.mark.parametrize("n, signature", [(1, None), (2, None), (2, (1, 1))])
def test_bracket_is_decoded_matrix_commutator(model_for, n, signature):
    m = model_for(n, signature)
    rng = random.Random(30 + n)
    for _ in range(4):
        a, b = _coord_357(rng, m), _coord_357(rng, m)
        ma, mb = m.to_matrix(a), m.to_matrix(b)
        comm = smat_mul(ma, mb)
        axpy(comm, -ONE, smat_mul(mb, ma))
        br = m.bracket(a, b)
        assert br == m.from_matrix(comm)
        assert m.to_matrix(br) == comm


@pytest.mark.parametrize("n", [1, 2])
def test_bracket_antisymmetric_without_zero_entries(model_for, n):
    m = model_for(n)
    rng = random.Random(40 + n)
    for _ in range(4):
        a, b = _coord_357(rng, m), _coord_357(rng, m)
        ab = m.bracket(a, b)
        assert m.bracket(b, a) == -ab
        assert ab.c and all(not v.is_zero() for v in ab.c.values())
        assert m.bracket(a, a).c == {}
        # [a, b + a] = [a, b]: the [a, a] part cancels entry by entry
        assert m.bracket(a, b + a).c == ab.c


def test_table_is_built_lazily():
    m = SpModel(1)
    assert m._sc is None and m._tmpl is None and m._ints is None
    scale, rows = m.structure_constants()
    assert len(rows) == m.dim and scale >= 1


def test_table_build_never_calls_to_matrix(monkeypatch):
    """The table reads the template through ``_template_ints`` alone: a
    fresh model builds it without evaluating any element by ``to_matrix``."""
    calls = []
    to_matrix = SpModel.to_matrix

    def counting(self, x):
        calls.append(x)
        return to_matrix(self, x)

    monkeypatch.setattr(SpModel, "to_matrix", counting)
    for n, signature in ((1, None), (2, (1, 1))):
        SpModel(n, signature).structure_constants()
    assert calls == []
    m = SpModel(1)
    m.to_matrix(m.basis(("eta", 1)))  # the control: the spy counts a call
    assert len(calls) == 1


def _first_entry(m):
    """(i, j, k) of the table's first coefficient c_ij^k with i < j."""
    _, rows = m.structure_constants()
    return next((i, *divmod(pos, m.dim)) for i in range(m.dim) for pos, _ in rows[i]
                if pos // m.dim > i)


def test_perturbed_table_entry_breaks_jacobi():
    m = SpModel(1)
    rng = random.Random(50)
    triples = [[random_coord(rng, m) for _ in range(3)] for _ in range(3)]
    assert all(jacobi_residual(m, *t).is_zero() for t in triples)
    gram = m.killing_gram()
    scale, rows = m.structure_constants()
    i, j, k = _first_entry(m)
    for r, pos, d in ((i, j * m.dim + k, scale), (j, i * m.dim + k, -scale)):
        rows[r] = tuple((p, (re + d, im) if p == pos else (re, im)) for p, (re, im) in rows[r])
    assert m.bracket(m.basis(m.keys[j]), m.basis(m.keys[i])) == \
        -m.bracket(m.basis(m.keys[i]), m.basis(m.keys[j]))
    assert any(not jacobi_residual(m, *t).is_zero() for t in triples)
    m._gram = None
    assert m.killing_gram() != gram


def test_wrong_grade_target_fails_grading():
    m = SpModel(1)
    assert grading_check(m)
    _, rows = m.structure_constants()
    i, j, k = _first_entry(m)
    want = coframe.grade(m.keys[i]) + coframe.grade(m.keys[j])
    wrong = next(x for x, key in enumerate(m.keys) if coframe.grade(key) != want)
    rows[i] = tuple((j * m.dim + wrong if p == j * m.dim + k else p, v) for p, v in rows[i])
    assert not grading_check(m)


def test_off_template_commutator_raises(monkeypatch):
    from qcframe import model
    commutator = model.commutator

    def off_template(*args):
        out = commutator(*args)
        row = out.setdefault(0, {})
        re, im = row.get(0, (0, 0))
        row[0] = [re + 7, im]
        return out

    monkeypatch.setattr(model, "commutator", off_template)
    with pytest.raises(TemplateError):
        SpModel(1).structure_constants()


def test_perturbed_decoder_coefficient_fails_reencoding():
    """One cleared decoder coefficient that a commutator reads, off by one:
    the decoded coordinates re-encode to another matrix."""
    from qcframe.linear import commutator, int_matrix
    m = SpModel(1)
    _, _, _, dec = m._template_ints()
    mats = [int_matrix(m.to_matrix(m.basis(key)))[1] for key in m.keys]
    # the positions r m + co of the nonzero commutator entries, pair by pair
    nonzero = ([r * m.m + co for r, row in comm.items() for co, (re, im) in row.items() if re or im]
               for i in range(m.dim) for j in range(i + 1, m.dim)
               for comm in (commutator(mats[i], mats[j]),))
    pos = next(p for ps in nonzero for p in ps if dec.get(p))
    (k, (re, im)), *rest = dec[pos]
    dec[pos] = ((k, (re + 1, im)), *rest)
    with pytest.raises(TemplateError, match="off the sp"):
        m.structure_constants()


def test_dependent_basis_matrices_raise(dependent_basis):
    m = SpModel(1)
    assert m.to_matrix(m.basis(("eta", 1))) == m.to_matrix(m.basis(("eta", 2)))
    with pytest.raises(TemplateError, match="linearly dependent"):
        m.structure_constants()


def test_split_template_term_sums_at_its_position():
    """A term written as two halves at one position reads as the whole
    term: the one-pass basis sums the terms of a key at a position, as
    ``to_matrix`` does, so the basis, the decoder and the table stay."""
    m, split = SpModel(1), SpModel(1)
    (pos, ((key, coeff), *rest)), *others = m._template()
    split._tmpl = ((pos, ((key, coeff * HALF), (key, coeff * HALF), *rest)), *others)
    assert split.to_matrix(split.basis(key)) == m.to_matrix(m.basis(key))
    assert split._template_ints() == m._template_ints()
    assert split.structure_constants() == m.structure_constants()


@pytest.mark.parametrize("n,signature", [(1, None), (2, (1, 1))])
def test_negated_template_term_is_refused(n, signature, monkeypatch):
    """The negative control for the template table: negating the
    coefficient of any one term leaves basis matrices that are dependent
    or whose commutators are off the template, and structure_constants
    raises.  The exception is a coordinate written at one position only
    (a diagonal Gam): its negated term only flips the sign of its basis
    matrix, so the table still builds, and the flat rule table's
    structure constants (``maurer_cartan_check``) catch it instead."""
    tmpl = SpModel(n, signature)._template()
    written = Counter(key for _, ts in tmpl for key, _ in ts)
    once = 0
    for i, (pos, ts) in enumerate(tmpl):
        for t, (key, coeff) in enumerate(ts):
            bad = tmpl[:i] + ((pos, ts[:t] + ((key, -coeff),) + ts[t + 1:]),) + tmpl[i + 1:]
            tampered = SpModel(n, signature)
            tampered._tmpl = bad
            if written[key] > 1:
                with pytest.raises(TemplateError):
                    tampered.structure_constants()
                continue
            assert key[0] == "Gam" and key[1] == key[2]
            assert tampered.structure_constants()
            with monkeypatch.context() as mp:
                mp.setattr(SpModel, "_template", lambda self: bad)
                assert maurer_cartan_check(n, signature)["mismatches"]
            once += 1
    assert once == 2 * n
    assert maurer_cartan_check(n, signature)["mismatches"] == 0


# -- the one exact solver --------------------------------------------------------


def _gauss(rng, span=4):
    return gr(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
              Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def _nonsingular(rng, k):
    """L U with unit lower triangular L and an upper triangular U whose
    diagonal has no zero, so the product is nonsingular."""
    L = [[gr(1) if i == j else _gauss(rng) if i > j else gr(0) for j in range(k)]
         for i in range(k)]
    U = [[_gauss(rng) if i < j else gr(0) for j in range(k)] for i in range(k)]
    for i in range(k):
        while U[i][i].is_zero():
            U[i][i] = _gauss(rng)
    return _matmul(L, U)


def _rows(A, b):
    return [({j: v for j, v in enumerate(row) if not v.is_zero()}, rhs)
            for row, rhs in zip(A, b)]


@pytest.mark.parametrize("k", range(1, 9))
def test_solver_nonsingular_systems_by_substitution(k):
    rng = random.Random(500 + k)
    for _ in range(3):
        A = _nonsingular(rng, k)
        b = [_gauss(rng) for _ in range(k)]
        sol, rank = solve_sparse(_rows(A, b))
        assert rank == k
        x = [sol.get(j, gr(0)) for j in range(k)]
        assert [sum((A[i][j] * x[j] for j in range(k)), gr(0)) for i in range(k)] == b
        B = [[_gauss(rng) for _ in range(2)] for _ in range(k)]
        X = solve_square(A, B)
        assert [[sum((A[i][j] * X[j][t] for j in range(k)), gr(0)) for t in range(2)]
                for i in range(k)] == B


@pytest.mark.parametrize("rhs", ["zero", "identity"])
def test_solver_singular_square_matrix_raises(rhs):
    """The third row is the sum of the first two: consistent against a
    zero right-hand side, inconsistent against the identity; singular
    either way."""
    A = [[gr(1), gr(2), gr(0)], [gr(0, 1), gr(1), gr(3)], [gr(1, 1), gr(3), gr(3)]]
    B = [[gr(1 if rhs == "identity" and i == j else 0) for j in range(3)]
         for i in range(3)]
    assert solve_sparse(_rows(A, [gr(0)] * 3))[1] == 2
    with pytest.raises(ValueError, match="singular"):
        solve_square(A, B)


def test_solver_inconsistent_system_raises():
    rows = [({0: gr(1), 1: gr(1)}, gr(1)), ({0: gr(2), 1: gr(2)}, gr(3))]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_sparse(rows)


def test_solver_underdetermined_particular_solution():
    # x0 + x2 = 2, x1 - x2 = 3: x2 is free and stays at zero
    sol, rank = solve_sparse([({0: gr(1), 2: gr(1)}, gr(2)),
                              ({1: gr(1), 2: gr(-1)}, gr(3))])
    assert (sol, rank) == ({0: gr(2), 1: gr(3)}, 2)
    rng = random.Random(77)
    for k, m in ((2, 5), (3, 7), (5, 8)):
        A = [[_gauss(rng) for _ in range(m)] for _ in range(k)]
        b = [_gauss(rng) for _ in range(k)]
        sol, rank = solve_sparse(_rows(A, b))
        x = [sol.get(j, gr(0)) for j in range(m)]
        assert [sum((A[i][j] * x[j] for j in range(m)), gr(0)) for i in range(k)] == b
        # one nonzero unknown per pivot at most: every free unknown is zero
        assert len(sol) <= rank <= k


def test_random_spn_draws_again_when_i_minus_x_is_singular(monkeypatch):
    """A first draw with X[0][0] = 1 makes I - X singular; random_spn
    discards it and returns the element of the next draw."""
    from qcframe import tensors
    c = StandardConstants(1)
    clean = random.Random(3)
    random_spn(clean, c)
    want = random_spn(clean, c)

    average = tensors.j_average
    calls = []

    def singular_first(t, consts):
        calls.append(t)
        if len(calls) > 1:
            return average(t, consts)
        y = SymTensor(1, slots("ll"))
        y.set((2, 1), gr(1) / c.pi_up(1, 2))  # X[0][0] = pi^{12} y_{21} = 1
        return y

    monkeypatch.setattr(tensors, "j_average", singular_first)
    assert random_spn(random.Random(3), c) == want
    assert len(calls) == 2


def _gauss_product_depth(node, depth=0) -> int:
    """The deepest loop nesting (for statements and comprehensions) at
    which a Gaussian product ``a * b - c * d`` sits in ``node``, nested
    functions not counted; -1 when there is none."""
    best = -1
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            continue
        if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Sub)
                and all(isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mult)
                        for s in (child.left, child.right))):
            best = max(best, depth)
        best = max(best, _gauss_product_depth(
            child, depth + isinstance(child, (ast.For, ast.comprehension))))
    return best


def test_one_solver_and_one_product():
    """No module defines its own matrix product or a private solver:
    linear.product_into (behind smat_mul, the table's commutators and
    decodes, the Killing Gram, D_direct's ad matrices and the cochain
    maps) and linear.solve_many are the only ones, and the package has
    one elimination loop, a ``while`` that
    searches its pivot with ``min``, in linear.solve_many.  A Gaussian
    product two or more loops deep sits only in linear.product_into and in
    the hand loops named here; the layouts and converters that the one
    matrix layout replaced are gone."""
    loops, deep, defined = [], [], {}
    for path in sorted(Path(qcframe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "matmul" and not node.name.startswith("_solve_"), \
                    (path.name, node.name)
                defined.setdefault(node.name, []).append(path.name)
                loops += [(path.name, node.name) for loop in ast.walk(node)
                          if isinstance(loop, ast.While)
                          and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                                  and call.func.id == "min" for call in ast.walk(loop))]
                if _gauss_product_depth(node) >= 2:
                    deep.append((path.name, node.name))
        names = {getattr(node, attr) for node in ast.walk(tree)
                 for attr in ("id", "attr", "name", "module") if isinstance(
                     getattr(node, attr, None), str)}
        gone = {"by_row", "_nested", "_cleared_mat", "_int_rows", "_int_map", "IntMat",
                "IntRows", "IntRow", "IntMap", "int_product_into", "int_commutator",
                "_is_zero", "_equal"}
        assert not names & gone, (path.name, names & gone)
        module = importlib.import_module(f"qcframe.{path.stem}")
        assert not any(hasattr(module, name) for name in gone), path.name
    assert loops == [("linear.py", "solve_many")]
    for name in ("product_into", "commutator", "int_matrix", "solve_many", "solve_sparse",
                 "solve_square", "smat", "smat_mul"):
        assert defined[name] == ["linear.py"], name
    # the hand loops that stay: the d^2 kernel and the bracket through the
    # table
    assert deep == [("forms.py", "_rule_into"), ("linear.py", "product_into"),
                    ("model.py", "bracket_sum")]
    # model.py decodes with two products and no multiply of its own
    tree = ast.parse((Path(qcframe.__file__).parent / "model.py").read_text())
    decode = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_decode_ints")
    assert _gauss_product_depth(decode) == -1
    assert [getattr(call.func, "id", None) for call in ast.walk(decode)
            if isinstance(call, ast.Call)].count("product_into") == 2
    # cochains.py applies its matrices only through product_into, in
    # _apply, which each of the three maps and _kappa_row (kappa's plan
    # matrix: no grouped plan, degree lift or monomial loop is left) call
    # once and which has no loop statement and no comprehension, and
    # clears nothing; it calls no bracket_sum, no helper but _apply reads
    # a cochain's stored integer row, nothing in cochains.py reads the
    # decoded view ``row``, and the column number (i g + j) dim + k is
    # spelled out in ``column`` alone
    tree = ast.parse((Path(qcframe.__file__).parent / "cochains.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def called(fn):
        return [getattr(call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(fn) if isinstance(call, ast.Call)]

    def is_op(node, op):
        return isinstance(node, ast.BinOp) and isinstance(node.op, op)

    assert [name for name, fn in funcs.items() if "product_into" in called(fn)] == ["_apply"]
    assert called(funcs["_apply"]).count("product_into") == 1
    for name in ("kostant_codiff_direct", "kostant_codiff_closed", "trace_conditions",
                 "_kappa_row"):
        assert called(funcs[name]).count("_apply") == 1, name
    assert not {"KappaPlan", "Read", "groups", "top", "lift"} & {
        getattr(node, attr) for node in ast.walk(tree) for attr in ("id", "attr", "name")
        if isinstance(getattr(node, attr, None), str)}
    apply = funcs["_apply"]
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(apply))
    assert not any(isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
                   for node in ast.walk(apply))
    assert "cleared" not in called(apply)
    assert not any(isinstance(node, ast.Attribute)
                   and node.attr in ("bracket_sum", "entry", "vals", "row")
                   for node in ast.walk(tree))
    assert [name for name, fn in funcs.items() if name.startswith("_") and any(
        isinstance(node, ast.Attribute) and node.attr == "ints" for node in ast.walk(fn))] \
        == ["_apply"]
    # (a * b + c) * d, the shape of the column number
    assert [fn.name for fn in methods if any(
        is_op(node, ast.Mult) and is_op(node.left, ast.Add) and is_op(node.left.left, ast.Mult)
        for node in ast.walk(fn))] == ["column"]


def test_table_decodes_only_nonzero_commutators(monkeypatch):
    """A commutator with no nonzero entry has nothing to certify, so the
    table build decodes exactly one commutator per nonzero entry (i, j),
    i < j, of the table: 125 at n = 1, of the 134 pairs whose matrices
    meet, and each decoded matrix is given by its nonzero entries."""
    calls = []
    decode = SpModel._decode_ints

    def spy(self, want):
        assert want and all(re or im for re, im in want.values())
        calls.append(len(want))
        return decode(self, want)

    monkeypatch.setattr(SpModel, "_decode_ints", spy)
    m = SpModel(1)
    _, rows = m.structure_constants()
    assert len(calls) == len({(i, pos // m.dim) for i, row in rows.items() for pos, _ in row
                              if pos // m.dim > i}) == 125
