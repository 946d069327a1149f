import ast
import itertools
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import qcframe
from qcframe.gauss import HALF, ZERO, GaussRational, gr
from qcframe.rules import build_rules, d_square_report, star_symmetry_check
from qcframe.tensors import (LOWER, UPPER, IndexedTensor, StandardConstants,
                             SymTensor, conj, is_spn, j_average, jmap,
                             lower_slot, raise_slot, random_tensor, slots,
                             spn_from_y, symmetrize, y_from_spn, _orbit, _orbit_size)


@pytest.mark.parametrize("n,signature", [(1, (1, 0)), (2, (2, 0)), (3, (3, 0)),
                                         (2, (1, 1)), (3, (2, 1))])
def test_constants_invariants(n, signature):
    c = StandardConstants(n, signature)
    dim = 2 * n
    # hermitian and nondegenerate g, skew pi
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            assert c.g(a, b) == c.g(b, a)
            assert c.pi(a, b) == -c.pi(b, a)
            # inverse pairing
            acc = sum((c.g_up(a, s) * c.g(s, b) for s in range(1, dim + 1)), gr(0))
            assert acc == gr(1 if a == b else 0)
    # compatibility g^{st} pi_{as} pi_{tb-bar} = -g_{ab}
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            acc = gr(0)
            for s in range(1, dim + 1):
                for t in range(1, dim + 1):
                    acc = acc + c.g_up(s, t) * c.pi(a, s) * c.pi_bar(t, b)
            assert acc == -c.g(a, b)
    # pi^a_{s̄} pi^{s̄}_b = -delta
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            acc = sum((c.pi_u_lbar(a, s) * c.pi_ubar_l(s, b)
                       for s in range(1, dim + 1)), gr(0))
            assert acc == gr(-1 if a == b else 0)


@pytest.mark.parametrize("n,signature", [(1, (1, 0)), (2, (2, 0)), (3, (3, 0)),
                                         (2, (1, 1)), (3, (2, 1))])
def test_tables_match_closed_formulas(n, signature):
    """Every tabulated accessor equals its defining contraction, written
    here from diag and pi_lower alone."""
    c = StandardConstants(n, signature)
    rng = range(1, 2 * n + 1)

    def g(a, b):
        return gr(c.diag[a - 1]) if a == b else gr(0)

    def g_up(a, b):
        return gr(1 / c.diag[a - 1]) if a == b else gr(0)

    def pi(a, b):
        return c.pi_lower.entries.get((a, b), gr(0))

    for a in rng:
        for b in rng:
            assert c.g(a, b) == g(a, b)
            assert c.g_up(a, b) == g_up(a, b)
            assert c.pi(a, b) == pi(a, b)
            assert c.pi_bar(a, b) == pi(a, b).conj()
            assert c.pi_up(a, b) == sum((g_up(a, s) * g_up(b, t) * pi(s, t).conj()
                                         for s in rng for t in rng), gr(0))
            assert c.pi_u_lbar(a, b) == sum((g_up(a, t) * pi(b, t).conj() for t in rng), gr(0))
            assert c.pi_ubar_l(a, b) == sum((g_up(a, t) * pi(b, t) for t in rng), gr(0))
            # a lookup, not a rebuild: the same shared value every time
            assert c.pi_up(a, b) is c.pi_up(a, b)


ACCESSORS = ("g", "g_up", "pi", "pi_bar", "pi_up", "pi_u_lbar", "pi_ubar_l")


@pytest.mark.parametrize("n,signature", [(1, (1, 0)), (2, (1, 1))])
def test_constants_reject_out_of_range_indices(n, signature):
    """An index outside 1..2n raises ValueError naming it, instead of
    wrapping round to another entry (g(0, 0) used to read diag[-1])."""
    c = StandardConstants(n, signature)
    for bad in (0, -1, 2 * n + 1):
        for name in ACCESSORS:
            for idx in ((bad, 1), (1, bad), (bad, bad)):
                with pytest.raises(ValueError, match=f"index {bad} outside 1..{2 * n}"):
                    getattr(c, name)(*idx)
        with pytest.raises(ValueError, match=f"index {bad} outside"):
            c.partner(bad)


@pytest.mark.parametrize("n,signature", [(1, (1, 0)), (2, (2, 0)), (3, (3, 0)),
                                         (2, (1, 1)), (3, (2, 1))])
def test_rows_and_cols_match_a_dense_scan(n, signature):
    """row and col of each of the seven tables list exactly the nonzero
    entries of the scalar accessor, the other index ascending; an index
    outside 1..2n raises ValueError naming it."""
    c = StandardConstants(n, signature)
    rng = range(1, 2 * n + 1)
    for name in ACCESSORS:
        get = getattr(c, name)
        for a in rng:
            assert c.row(name, a) == tuple((b, get(a, b)) for b in rng
                                           if not get(a, b).is_zero())
            assert c.col(name, a) == tuple((b, get(b, a)) for b in rng
                                           if not get(b, a).is_zero())
        for bad in (0, -1, 2 * n + 1):
            for read in (c.row, c.col):
                with pytest.raises(ValueError, match=f"index {bad} outside 1..{2 * n}"):
                    read(name, bad)


def test_constants_examples():
    c = StandardConstants(1)
    assert c.g(1, 1) == gr(1) and c.g(2, 2) == gr(1)
    assert c.pi(1, 2) == gr(1) and c.pi(2, 1) == gr(-1) and c.pi(1, 1).is_zero()
    c2 = StandardConstants(2)
    nonzero = {(a, b) for a in range(1, 5) for b in range(1, 5)
               if not c2.pi(a, b).is_zero()}
    assert nonzero == {(1, 3), (2, 4), (3, 1), (4, 2)}
    assert c2.pi(1, 3) == gr(1) and c2.pi(3, 1) == gr(-1)


def test_constants_rejects_bad_input():
    with pytest.raises(ValueError):
        StandardConstants(0)
    with pytest.raises(ValueError):
        StandardConstants(2, (1, 2))


def test_raise_lower_round_trip():
    rng = random.Random(3)
    c = StandardConstants(2)
    t = random_tensor(rng, 2, slots("lL"))
    up = raise_slot(t, 0, c)
    assert up.slots[0].variance == "upper" and up.slots[0].barred
    back = lower_slot(up, 0, c)
    assert back == t


def test_lower_delta_gives_g():
    c = StandardConstants(2)
    delta = IndexedTensor(2, slots("ul"))
    for a in range(1, 5):
        delta.set((a, a), 1)
    low = lower_slot(delta, 0, c)
    for a in range(1, 5):
        for b in range(1, 5):
            assert low.get(a, b) == c.g(b, a)


def test_raise_pi_twice_contracts_correctly():
    # pi^{ab} pi_{bc} = -delta^a_c by direct contraction
    c = StandardConstants(1)
    for a in range(1, 3):
        for cc in range(1, 3):
            acc = sum((c.pi_up(a, b) * c.pi(b, cc) for b in range(1, 3)), gr(0))
            assert acc == gr(-1 if a == cc else 0)


def test_conj_involution_and_bars():
    rng = random.Random(5)
    t = random_tensor(rng, 1, slots("lL"))
    ct = conj(t)
    assert all(s.barred != s2.barred for s, s2 in zip(t.slots, ct.slots))
    assert conj(ct) == t


def test_conj_of_pi_same_entries():
    c = StandardConstants(1)
    cpi = conj(c.pi_lower)
    for a in range(1, 3):
        for b in range(1, 3):
            assert cpi.get(a, b) == c.pi(a, b)  # entries are real


@pytest.mark.parametrize("spec", ["l", "lL", "llL", "lLuU"])
def test_jmap_involution_sign(spec):
    rng = random.Random(11)
    c = StandardConstants(1)
    sign = gr((-1) ** len(spec))
    for _ in range(200):
        t = random_tensor(rng, 1, slots(spec), span=3)
        assert jmap(jmap(t, c), c) == t.scale(sign)


def test_jmap_zero():
    c = StandardConstants(2)
    z = IndexedTensor(2, slots("ll"))
    assert jmap(z, c).is_zero()


def test_spn_lemma_equivalence():
    rng = random.Random(2)
    c = StandardConstants(1)
    for _ in range(100):
        y = j_average(symmetrize(random_tensor(rng, 1, slots("ll"))), c)
        x = spn_from_y(y, c)
        assert is_spn(x, c)
        # converse: the recovered Y is symmetric and j-invariant and
        # regenerates the same x
        y2 = y_from_spn(x, c)
        assert symmetrize(y2).full() == y2
        assert jmap(y2, c) == y2
        assert spn_from_y(symmetrize(y2), c) == x


def test_spn_from_y_refuses_unsymmetrized_y():
    """Y must come as a SymTensor: the same symmetric entries stored with
    every arrangement, or one arrangement of an off-diagonal entry, are
    refused."""
    c = StandardConstants(1)
    y = j_average(symmetrize(random_tensor(random.Random(4), 1, slots("ll"))), c)
    for bad in (y.full(), IndexedTensor(1, slots("ll"), {(1, 2): gr(1)})):
        with pytest.raises(ValueError, match="symmetric"):
            spn_from_y(bad, c)


def test_spn_rejects_hermitian():
    c = StandardConstants(1)
    x = IndexedTensor(1, slots("lL"))
    x.set((1, 2), gr(1, 1))
    x.set((2, 1), gr(1, -1))  # X_{a b̄} = conj(X_{b ā}): hermitian
    x.set((1, 1), gr(2))
    assert not is_spn(x, c)


def test_spn_zero_and_slot_guard():
    c = StandardConstants(1)
    assert is_spn(IndexedTensor(1, slots("lL")), c)
    with pytest.raises(ValueError):
        is_spn(IndexedTensor(1, slots("ll")), c)


def test_jmap_fixes_spn_members():
    rng = random.Random(8)
    c = StandardConstants(2)
    y = j_average(symmetrize(random_tensor(rng, 2, slots("ll"))), c)
    x = spn_from_y(y, c)
    assert jmap(x, c) == x


def _sparse(rng, t, keep):
    """t with each entry kept with probability keep."""
    return IndexedTensor(t.n, t.slots,
                         {i: v for i, v in t.entries.items() if rng.random() < keep})


def _symmetrize_reference(t):
    """The mean over all k! slot permutations, entry by entry."""
    k = len(t.slots)
    perms = list(itertools.permutations(range(k)))
    w = gr(Fraction(1, len(perms)))
    out = {}
    for idx, val in t.entries.items():
        for p in perms:
            tgt = tuple(idx[p[i]] for i in range(k))
            out[tgt] = out.get(tgt, gr(0)) + w * val
    return {i: v for i, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("spec", ["l", "ll", "lll", "llll", "UU"])
@pytest.mark.parametrize("keep", [1.0, 0.3])
def test_symmetrize_matches_all_permutations(n, spec, keep):
    rng = random.Random(f"{n}-{spec}-{keep}")
    for _ in range(3):
        t = _sparse(rng, random_tensor(rng, n, slots(spec), span=3), keep)
        sym = symmetrize(t)
        assert isinstance(sym, SymTensor) and sym.slots == t.slots
        assert sym.full().entries == _symmetrize_reference(t)
        assert symmetrize(sym) == sym


def test_symmetrize_cancelling_orbit_is_dropped():
    t = IndexedTensor(1, slots("lll"))
    t.set((1, 1, 2), gr(2, 1))
    t.set((2, 1, 1), gr(-2, -1))
    t.set((2, 2, 2), gr(3))
    assert symmetrize(t).entries == {(2, 2, 2): gr(3)}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("spec", ["ll", "lll", "llll"])
def test_symtensor_full_round_trips(n, spec):
    """One entry per orbit, under the sorted index; full() stores every
    arrangement, and reading it back through set lands each arrangement on
    its orbit's entry."""
    rng = random.Random(17 * n + len(spec))
    for keep in (1.0, 0.2):
        t = symmetrize(_sparse(rng, random_tensor(rng, n, slots(spec), span=2), keep))
        assert all(idx == tuple(sorted(idx)) for idx in t.entries)
        full = t.full()
        assert type(full) is IndexedTensor and full.slots == t.slots
        assert all(t.get(*idx) == val for idx, val in full.entries.items())
        assert {tuple(sorted(idx)) for idx in full.entries} == set(t.entries)
        assert SymTensor(n, t.slots, full.entries) == t
        assert symmetrize(full) == t


def test_orbit_size_is_the_number_of_arrangements():
    """symmetrize divides by the multinomial count; _orbit (kept for
    SymTensor.full) lists the arrangements it counts."""
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for key in itertools.combinations_with_replacement(range(1, 2 * n + 1), k):
                assert _orbit_size(key) == len(_orbit(key)), key


def test_symmetrize_constructs_no_gauss_rational(monkeypatch):
    """Each orbit sum is divided by its int size without coercing the int:
    symmetrizing an n = 2 four-slot tensor calls no GaussRational.__init__."""
    t = random_tensor(random.Random(22), 2, slots("llll"))
    want = _symmetrize_reference(t)
    calls = []
    init = GaussRational.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(GaussRational, "__init__", counting)
    sym = symmetrize(t)
    assert calls == []
    assert len(sym.entries) == 35 and sym.full().entries == want
    next(iter(sym.entries.values())) / gr(3)  # the control: gr constructs
    assert calls


def test_absent_entry_reads_the_shared_zero():
    t = IndexedTensor(2, slots("lL"))
    s = SymTensor(2, slots("lll"))
    assert t.get(1, 3) is ZERO and s.get(3, 1, 2) is ZERO
    with pytest.raises(ValueError):
        t.get(5, 1)


def test_symtensor_get_and_set_canonicalize_the_index():
    t = SymTensor(2, slots("lll"))
    t.set((2, 1, 2), gr(5, -1))
    assert t.entries == {(1, 2, 2): gr(5, -1)}
    assert t.get(2, 2, 1) == t.get(2, 1, 2) == t.get(1, 2, 2) == gr(5, -1)
    t.set((2, 2, 1), gr(3))
    assert t.entries == {(1, 2, 2): gr(3)}
    t.set((1, 2, 2), 0)
    assert t.is_zero()
    with pytest.raises(ValueError):
        t.get(1, 2)
    with pytest.raises(ValueError):
        t.set((5, 1, 2), 1)


def test_symtensor_linear_structure_keeps_type():
    """copy, -, scale, +, conj and jmap of a SymTensor are SymTensors, so
    j_average of one is one; it never equals or adds to a plain
    IndexedTensor."""
    c = StandardConstants(2)
    t = symmetrize(random_tensor(random.Random(6), 2, slots("llll"), span=2))
    for out in (t.copy(), -t, t.scale(2), t + t, t - t, conj(t), jmap(t, c),
                j_average(t, c)):
        assert type(out) is SymTensor
    assert j_average(t, c).full() == j_average(t.full(), c)
    assert conj(t).full() == conj(t.full())
    # raising one slot breaks the symmetry: the result has every arrangement
    assert raise_slot(t, 1, c) == raise_slot(t.full(), 1, c)
    assert t != t.full()
    with pytest.raises(ValueError):
        t + t.full()


def test_symmetry_needs_homogeneous_slots():
    t = IndexedTensor(1, slots("lL"))
    with pytest.raises(ValueError):
        symmetrize(t)
    with pytest.raises(ValueError):
        SymTensor(1, slots("lL"))


def _jmap_reference(t, c):
    """j written slot by slot: conjugate, then contract each slot with its
    mixed pi over every index value (not only the partner)."""
    factor = {
        (LOWER, False): lambda b, a: c.pi_ubar_l(b, a),   # pi^{b̄}_{a}
        (LOWER, True): lambda b, a: c.pi_u_lbar(b, a),    # pi^{b}_{ā}
        (UPPER, False): lambda b, a: c.pi_u_lbar(a, b),   # pi^{a}_{b̄}
        (UPPER, True): lambda b, a: c.pi_ubar_l(a, b),    # pi^{ā}_{b}
    }
    out = {}
    for idx, val in t.entries.items():
        per_slot = []
        for s, b in zip(t.slots, idx):
            f = factor[(s.variance, s.barred)]
            per_slot.append([(a, f(b, a)) for a in range(1, t.dim + 1)
                             if not f(b, a).is_zero()])
        for choice in itertools.product(*per_slot):
            coeff = val.conj()
            for _, m in choice:
                coeff = coeff * m
            tgt = tuple(a for a, _ in choice)
            out[tgt] = out.get(tgt, gr(0)) + coeff
    return {i: v for i, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("n,signature", [(1, (1, 0)), (2, (2, 0)), (2, (1, 1))])
@pytest.mark.parametrize("spec", ["l", "L", "u", "U", "lL", "ul", "llll"])
def test_jmap_matches_slot_transcription(n, signature, spec):
    rng = random.Random(len(spec) + 10 * n + signature[1])
    c = StandardConstants(n, signature)
    for keep in (1.0, 0.4):
        t = _sparse(rng, random_tensor(rng, n, slots(spec), span=3), keep)
        jt = jmap(t, c)
        assert jt.slots == t.slots
        assert jt.entries == _jmap_reference(t, c)


def test_index_out_of_range():
    t = IndexedTensor(1, slots("l"))
    with pytest.raises(ValueError):
        t.set((3,), 1)
    with pytest.raises(ValueError):
        t.get(1, 2)


# ---------------------------------------------------------------------------
# direct writes against the validating path: the operations below write
# the keys they generate straight into ``entries``; the references are the
# same operations stored through ``set`` and the validating constructor.


def _ref_copy(t):
    return type(t)(t.n, t.slots, dict(t.entries))


def _ref_scale(t, c):
    c = GaussRational.of(c)
    return type(t)(t.n, t.slots, {idx: c * v for idx, v in t.entries.items()})


def _ref_full(t):
    return IndexedTensor(t.n, t.slots, {
        member: val for key, val in t.entries.items() for member in _orbit(key)})


def _ref_jmap(t, c):
    out = type(t)(t.n, t.slots)
    for idx, val in t.entries.items():
        coeff = val.conj()
        for s, b in zip(t.slots, idx):
            a = c.partner(b)
            if s.variance == LOWER:
                coeff = coeff * (c.pi_u_lbar(b, a) if s.barred else c.pi_ubar_l(b, a))
            else:
                coeff = coeff * (c.pi_ubar_l(a, b) if s.barred else c.pi_u_lbar(a, b))
        out.set(tuple(c.partner(b) for b in idx), coeff)
    return out


def _ref_symmetrize(t):
    if isinstance(t, SymTensor):
        return _ref_copy(t)
    out = SymTensor(t.n, t.slots)
    sums = {}
    for idx, val in t.entries.items():
        key = tuple(sorted(idx))
        sums[key] = sums.get(key, ZERO) + val
    for key, total in sums.items():
        out.set(key, total / _orbit_size(key))
    return out


def _ref_j_average(t, c):
    total = _ref_copy(t)
    for idx, val in _ref_jmap(t, c).entries.items():
        total.set(idx, total.get(*idx) + val)
    return _ref_scale(total, HALF)


def _stored(t):
    """Type, shape and every entry as a triple, in stored order."""
    return (type(t), t.n, t.slots, [(k, (v.a, v.b, v.d)) for k, v in t.entries.items()])


def _write_inputs(rng, n, spec):
    """A dense and a sparse random tensor, the dense one's part skew in
    its first two slots, whose orbit sums all vanish, and the sparse one
    plus that part; each also symmetrized."""
    dense = random_tensor(rng, n, slots(spec), span=2)
    sparse = _sparse(rng, dense, 0.1)
    out = [dense, sparse]
    if len(spec) > 1:
        skew = dense - IndexedTensor(n, dense.slots, {
            (i[1], i[0]) + i[2:]: v for i, v in dense.entries.items()})
        out += [skew, sparse + skew]
    return out + [symmetrize(t) for t in out]


@pytest.mark.parametrize("n,signature", [(1, None), (2, None), (2, (1, 1))])
@pytest.mark.parametrize("spec", ["l", "ll", "lll", "llll", "UU", "uuu"])
def test_direct_writes_match_the_validating_path(n, signature, spec):
    c = StandardConstants(n, signature)
    rng = random.Random(f"{n}-{signature}-{spec}")
    zero_orbits = 0
    for t in _write_inputs(rng, n, spec):
        pairs = [(t.copy(), _ref_copy(t)), (jmap(t, c), _ref_jmap(t, c)),
                 (symmetrize(t), _ref_symmetrize(t))]
        pairs += [(t.scale(x), _ref_scale(t, x))
                  for x in (0, 3, Fraction(-2, 3), gr(1, -2), HALF)]
        if len(spec) % 2 == 0:
            pairs.append((j_average(t, c), _ref_j_average(t, c)))
        if isinstance(t, SymTensor):
            pairs.append((t.full(), _ref_full(t)))
        for got, want in pairs:
            assert _stored(got) == _stored(want)
            if isinstance(got, SymTensor):
                assert all(k == tuple(sorted(k)) for k in got.entries)
        assert t.scale(0).entries == {}
        sums = {tuple(sorted(i)) for i in t.entries}
        zero_orbits += len(sums) - len(symmetrize(t).entries)
    if len(spec) > 1:  # the cancelling input does drop orbits
        assert zero_orbits > 0


def _gauss_symmetrize(t):
    """symmetrize as it summed in GaussRational arithmetic, kept as the
    reference for the integer sums."""
    if isinstance(t, SymTensor):
        return t.copy()
    out = SymTensor(t.n, t.slots)
    sums = {}
    for idx, val in t.entries.items():
        key = tuple(sorted(idx))
        sums[key] = sums.get(key, ZERO) + val
    out.entries = {key: total / _orbit_size(key)
                   for key, total in sums.items() if not total.is_zero()}
    return out


def _gauss_j_average(t, c):
    """j_average as it summed in GaussRational arithmetic."""
    return (t + jmap(t, c)).scale(HALF)


def _j_cancelled(rng, n, spec, c):
    """A dense random tensor whose entries at (1, ..., 1) and at its j
    target are set so that t + jt vanishes at both."""
    t = random_tensor(rng, n, slots(spec), span=2)
    idx = (1,) * len(spec)
    t.set(idx, gr(2, -1))
    target, = jmap(IndexedTensor(n, t.slots, {idx: gr(2, -1)}), c).entries.items()
    t.set(target[0], -target[1])
    return t


@pytest.mark.parametrize("n,signature", [(1, None), (2, None), (3, None), (2, (1, 1)),
                                         (3, (2, 1))])
@pytest.mark.parametrize("spec", ["ll", "lll", "llll"])
def test_integer_sums_match_the_gauss_rational_code(n, signature, spec):
    """symmetrize and j_average give the entries of the GaussRational code
    they replaced, as the same triples under the same keys in the same
    order, on dense and sparse input, on input with cancelling orbits,
    and (j_average) on input whose j image cancels two of its entries."""
    c = StandardConstants(n, signature)
    rng = random.Random(f"gauss-{n}-{signature}-{spec}")
    inputs = _write_inputs(rng, n, spec)
    cancelled = 0
    for t in inputs:
        got, want = symmetrize(t), _gauss_symmetrize(t)
        assert _stored(got) == _stored(want)
        cancelled += len({tuple(sorted(i)) for i in t.entries}) - len(got.entries)
    assert cancelled > 0  # the skew inputs cancel whole orbits
    if len(spec) % 2:
        return
    cancelling = _j_cancelled(rng, n, spec, c)
    for t in inputs + [symmetrize(cancelling), cancelling]:
        assert _stored(j_average(t, c)) == _stored(_gauss_j_average(t, c))
    idx = (1,) * len(spec)
    assert idx in cancelling.entries and idx not in j_average(cancelling, c).entries


def test_set_and_constructor_still_validate():
    """The public writers keep checking the index: out of range, or of the
    wrong length, is refused for plain and symmetric tensors alike."""
    for cls in (IndexedTensor, SymTensor):
        t = cls(2, slots("ll"))
        for bad in ((0, 1), (1, 5), (1,), (1, 2, 3)):
            with pytest.raises(ValueError):
                t.set(bad, 1)
            with pytest.raises(ValueError):
                cls(2, slots("ll"), {(1, 1): gr(1), bad: gr(2)})
        assert t.is_zero()


def _ref_conj(t):
    out = type(t)(t.n, (s.conjugated() for s in t.slots))
    for idx, val in t.entries.items():
        out.set(idx, val.conj())
    return out


def _ref_contract(t, slot, c):
    """raise_slot / lower_slot through ``set``, summing into each key."""
    if isinstance(t, SymTensor):
        t = t.full()
    new_slots = list(t.slots)
    new_slots[slot] = t.slots[slot].flipped()
    out = IndexedTensor(t.n, new_slots)
    for idx, val in t.entries.items():
        out.set(idx, out.entries.get(idx, gr(0)) + gr(c.diag[idx[slot] - 1]) * val)
    return out


@pytest.mark.parametrize("n,signature", [(1, None), (2, None), (2, (1, 1)), (3, (2, 1))])
@pytest.mark.parametrize("spec", ["l", "U", "lL", "uuu", "llll"])
def test_conj_and_metric_contractions_match_the_validating_path(n, signature, spec):
    """conj, raise_slot and lower_slot map every entry to its own key and
    write it directly; symmetric inputs included, a slot of the wrong
    variance still refused."""
    c = StandardConstants(n, signature)
    rng = random.Random(f"{n}-{signature}-{spec}-metric")
    if len(set(spec)) == 1:
        inputs = _write_inputs(rng, n, spec)
        assert any(isinstance(t, SymTensor) for t in inputs)
    else:  # mixed slots: no symmetric input
        dense = random_tensor(rng, n, slots(spec), span=2)
        inputs = [dense, _sparse(rng, dense, 0.1)]
    for t in inputs:
        assert _stored(conj(t)) == _stored(_ref_conj(t))
        for slot, s in enumerate(t.slots):
            right, wrong = ((raise_slot, lower_slot) if s.variance == LOWER
                            else (lower_slot, raise_slot))
            assert _stored(right(t, slot, c)) == _stored(_ref_contract(t, slot, c))
            with pytest.raises(ValueError, match="expects an? (upper|lower) slot"):
                wrong(t, slot, c)


# ---------------------------------------------------------------------------
# the j table


@pytest.mark.parametrize("n,signature", [(1, (1, 0)), (2, (2, 0)), (3, (3, 0)),
                                         (2, (1, 1)), (3, (2, 1))])
def test_j_table(n, signature):
    """j pairs each index with its partner and the unit pi^{p(a)bar}_a;
    p is an involution and m_{p(a)} = -m_a; a multi-index maps slot by
    slot with the product of the units."""
    c = StandardConstants(n, signature)
    rng = range(1, 2 * n + 1)
    units = {}
    for a in rng:
        (p,), m = c.j((a,))
        assert p == c.partner(a)
        assert type(m) is int and m in (1, -1)
        assert gr(m) == c.pi_ubar_l(p, a)
        assert c.j((p,)) == ((a,), -m)
        units[a] = m
    assert c.j(()) == ((), 1)
    for idx in itertools.product(rng, repeat=3):
        assert c.j(idx) == (tuple(c.partner(a) for a in idx), prod(units[a] for a in idx))
    for bad in (0, 2 * n + 1):
        with pytest.raises(ValueError, match=rf"index {bad} outside"):
            c.j((1, bad))


def test_flipped_j_unit_is_caught(monkeypatch):
    """Negative control: with the unit of index 1 flipped in j alone, j is
    no longer j^2 = -1 on one slot, S* is no longer j-real, and the curved
    n = 1 table (whose barred Gamma and j-real symbols read j) no longer
    has d^2 = 0."""
    t = IndexedTensor(1, slots("l"), {(1,): gr(2, 1), (2,): gr(-1, 3)})
    c = StandardConstants(1)
    assert jmap(jmap(t, c), c) == -t
    assert star_symmetry_check(1)
    assert all(f.is_zero() for f in d_square_report(build_rules(1, "curved")).values())
    j = StandardConstants.j

    def flipped(self, idx):
        target, m = j(self, idx)
        return target, -m if idx.count(1) % 2 else m

    monkeypatch.setattr(StandardConstants, "j", flipped)
    c = StandardConstants(1)
    assert jmap(jmap(t, c), c) != -t
    assert not star_symmetry_check(1)
    report = d_square_report(build_rules(1, "curved"))
    assert sum(not f.is_zero() for f in report.values()) == 15
    assert len(report) == 17


JMIXED = {"pi_ubar_l", "pi_u_lbar"}


def _j_copies(source: str):
    """Where ``source`` works out the j action by hand: a call of
    ``pi_ubar_l``/``pi_u_lbar`` whose first argument is a ``partner(...)``
    call, or a read of the private ``_j`` table."""
    def callee(call):
        f = call.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)

    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and callee(node) in JMIXED and node.args
                and isinstance(node.args[0], ast.Call) and callee(node.args[0]) == "partner"):
            found.append(f"{callee(node)}(partner(...))")
        elif isinstance(node, ast.Attribute) and node.attr == "_j":
            found.append("_j")
    return found


def test_one_j_table():
    """Only tensors.py builds or reads the j table; no other module pairs
    ``partner`` with a mixed pi.  The scan does find both patterns."""
    sources = {path.name: path.read_text()
               for path in Path(qcframe.__file__).parent.glob("*.py")}
    assert {name: _j_copies(src) for name, src in sources.items()
            if name != "tensors.py" and _j_copies(src)} == {}
    assert "_j" in _j_copies(sources["tensors.py"])
    planted = "def f(c, a):\n    return c.pi_ubar_l(c.partner(a), a) * c._j[a][1]\n"
    assert _j_copies(planted) == ["pi_ubar_l(partner(...))", "_j"]
