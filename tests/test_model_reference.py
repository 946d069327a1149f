"""The Sp(n) check, the G1 group law and the exact solver against
reference evaluators.

The reference functions below are the ``GaussRational`` loops that
``model.validate_spn``, ``g1_compose``, ``g1_inverse``, ``solve_sparse``,
``solve_square`` and ``SpModel._decoder`` replaced, kept verbatim apart
from their names: they sum one ``GaussRational`` product per term, and
they solve one right-hand side per elimination.  The package code must
give the same verdicts, equal elements, and the same solutions with the
same key order, on seeded draws in definite and indefinite signature."""
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

import pytest

from qcframe import model
from qcframe.gauss import ONE, ZERO, GaussRational, gr
from qcframe.model import (G1Element, SpModel, TemplateError, g1_compose, g1_inverse,
                           g1_to_matrix, random_g1, random_spn, solve_many, solve_sparse,
                           solve_square, validate_spn)
from qcframe.tensors import StandardConstants, j_average, random_tensor, slots, symmetrize

CASES = [(1, None), (2, None), (2, (1, 1)), (3, (2, 1))]

# ---------------------------------------------------------------------------
# reference evaluators


def reference_solve_sparse(rows: Iterable[Tuple[Dict[int, GaussRational], GaussRational]]
                           ) -> Tuple[Dict[int, GaussRational], int]:
    """One right-hand side per elimination."""
    pivots: Dict[int, Dict[int, GaussRational]] = {}
    rhs_map: Dict[int, GaussRational] = {}
    for row, rhs in rows:
        row = dict(row)
        rhs = GaussRational.of(rhs)
        while row:
            col = min(row)
            if col not in pivots:
                inv = ONE / row[col]
                pivots[col] = {c2: inv * v2 for c2, v2 in row.items()}
                rhs_map[col] = inv * rhs
                break
            f = row.pop(col)
            for c2, v2 in pivots[col].items():
                if c2 == col:
                    continue
                nv = row.get(c2, ZERO) - f * v2
                if nv.is_zero():
                    row.pop(c2, None)
                else:
                    row[c2] = nv
            rhs = rhs - f * rhs_map[col]
        else:
            if not rhs.is_zero():
                raise ValueError("inconsistent linear system")
    # back substitution with free unknowns at zero
    sol: Dict[int, GaussRational] = {}
    for col in sorted(pivots, reverse=True):
        val = rhs_map[col]
        for c2, v2 in pivots[col].items():
            if c2 != col and c2 in sol:
                val = val - v2 * sol[c2]
        if not val.is_zero():
            sol[col] = val
    return sol, len(pivots)


def reference_solve_square(A: List[List[GaussRational]],
                           B: List[List[GaussRational]]) -> List[List[GaussRational]]:
    """One elimination per column of B."""
    k = len(A)
    rows = [{j: v for j, v in enumerate(r) if not v.is_zero()} for r in A]
    cols = []
    for j in range(len(B[0])):
        try:
            sol, rank = reference_solve_sparse(zip(rows, (b[j] for b in B)))
        except ValueError:  # only a singular A leaves a column of B out of range
            rank = -1
        if rank < k:
            raise ValueError(f"singular {k}x{k} matrix")
        cols.append(sol)
    return [[col.get(i, ZERO) for col in cols] for i in range(k)]


def reference_decoder(m: SpModel) -> Dict[Tuple[int, int], Tuple[Tuple[int, GaussRational], ...]]:
    """One elimination per coordinate k."""
    mm = m.m
    rows = [{r * mm + co: v for (r, co), v in mat.items()}
            for mat in m._basis_matrices()]
    dec: Dict[Tuple[int, int], List[Tuple[int, GaussRational]]] = {}
    for k in range(m.dim):
        try:
            sol, rank = reference_solve_sparse(
                (row, ONE if j == k else ZERO) for j, row in enumerate(rows))
        except ValueError:
            rank = -1
        if rank < m.dim:
            raise TemplateError("the sp(n+1,1) basis matrices are linearly dependent")
        for p, v in sol.items():
            dec.setdefault(divmod(p, mm), []).append((k, v))
    return {pos: tuple(coeffs) for pos, coeffs in dec.items()}


def reference_validate_spn(U, c: StandardConstants) -> bool:
    dim = 2 * c.n
    for a in range(dim):
        for b in range(dim):
            acc_g = gr(0)
            acc_pi = gr(0)
            for s in range(dim):
                acc_g = acc_g + gr(c.diag[s]) * U[s][a] * U[s][b].conj()
                for t in range(dim):
                    p = c.pi(s + 1, t + 1)
                    if not p.is_zero():
                        acc_pi = acc_pi + p * U[s][a] * U[t][b]
            if acc_g != c.g(a + 1, b + 1) or acc_pi != c.pi(a + 1, b + 1):
                return False
    return True


def reference_random_spn(rng: random.Random, c: StandardConstants, span: int = 3):
    n = c.n
    dim = 2 * n
    while True:
        y = j_average(symmetrize(random_tensor(rng, n, slots("ll"), span)), c)
        x = [[gr(0)] * dim for _ in range(dim)]
        for (s, b), val in y.full().entries.items():
            for a in range(1, dim + 1):
                coeff = c.pi_up(a, s)
                if not coeff.is_zero():
                    x[a - 1][b - 1] = x[a - 1][b - 1] + coeff * val
        # U = (I - X)^{-1} (I + X); draw again when I - X is singular
        try:
            U = reference_solve_square([[gr(1 if i == j else 0) - x[i][j] for j in range(dim)]
                                        for i in range(dim)],
                                       [[gr(1 if i == j else 0) + x[i][j] for j in range(dim)]
                                        for i in range(dim)])
        except ValueError:
            continue
        if reference_validate_spn(U, c):
            return U
        raise AssertionError("Cayley transform left Sp(n); algebra element invalid")


def reference_u_low(c: StandardConstants, U, b: int, s: int):
    return gr(c.diag[s]) * U[s][b]


def reference_g1_compose(x: G1Element, y: G1Element, c: StandardConstants) -> G1Element:
    n = c.n
    dim = 2 * n
    U = [[sum((x.U[a][s] * y.U[s][b] for s in range(dim)), gr(0))
          for b in range(dim)] for a in range(dim)]
    r = [sum((x.U[a][s] * y.r[s] for s in range(dim)), gr(0)) + x.r[a]
         for a in range(dim)]

    t1 = gr(0)  # U_{a b̄} ŷr^a conj(r^b)
    for al in range(dim):
        for be in range(dim):
            ul = reference_u_low(c, x.U, al, be)
            if not ul.is_zero():
                t1 = t1 + ul * y.r[al] * x.r[be].conj()
    t2 = gr(0)  # pi^{s̄}_a conj(U_{s b̄}) ŷr^a r^b
    for al in range(dim):
        for s in range(dim):
            cp = c.pi_ubar_l(s + 1, al + 1)
            if cp.is_zero():
                continue
            for be in range(dim):
                ul = reference_u_low(c, x.U, s, be)
                if not ul.is_zero():
                    t2 = t2 + cp * ul.conj() * y.r[al] * x.r[be]
    i2 = gr(0, 2)
    lam = [
        x.lam[0] + y.lam[0] + i2 * t1 + (i2 * t1).conj(),
        x.lam[1] + y.lam[1] + 2 * t2 + (2 * t2).conj(),
        x.lam[2] + y.lam[2] - i2 * t2 - (i2 * t2).conj(),
    ]
    return G1Element(U, r, lam)


def reference_g1_inverse(x: G1Element, c: StandardConstants) -> G1Element:
    n = c.n
    dim = 2 * n
    Uinv = [[gr(c.diag[a]) * x.U[b][a].conj() * gr(c.diag[b])
             for b in range(dim)] for a in range(dim)]
    r = [-sum((Uinv[a][s] * x.r[s] for s in range(dim)), gr(0)) for a in range(dim)]
    return G1Element(Uinv, r, [-v for v in x.lam])


# ---------------------------------------------------------------------------
# the package code against the references


def _gauss(rng, span=4):
    return gr(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
              Fraction(rng.randint(-span, span), rng.randint(1, 3)))


@pytest.mark.parametrize("n,signature", CASES)
def test_random_spn_draws_unchanged(n, signature):
    c = StandardConstants(n, signature)
    rng, ref = random.Random(40 + n), random.Random(40 + n)
    for _ in range(4):
        assert random_spn(rng, c) == reference_random_spn(ref, c)
    assert rng.random() == ref.random()  # both drew the same number of times


@pytest.mark.parametrize("n,signature", CASES)
def test_g1_law_matches_reference(n, signature):
    c = StandardConstants(n, signature)
    rng = random.Random(60 + n)
    for _ in range(5):
        x, y = random_g1(rng, c), random_g1(rng, c)
        for got, want in ((g1_compose(x, y, c), reference_g1_compose(x, y, c)),
                          (g1_compose(y, x, c), reference_g1_compose(y, x, c)),
                          (g1_inverse(x, c), reference_g1_inverse(x, c))):
            assert got == want
            assert [v.__class__ for v in got.lam] == [GaussRational] * 3
        # lam with an imaginary part and integer entries go through as well
        z = G1Element(x.U, x.r, [gr(1, 2), 3, Fraction(-1, 3)])
        assert g1_compose(z, y, c) == reference_g1_compose(z, y, c)
        assert g1_inverse(z, c) == reference_g1_inverse(z, c)


@pytest.mark.parametrize("n,signature", CASES)
def test_validate_spn_matches_reference(n, signature):
    c = StandardConstants(n, signature)
    rng = random.Random(80 + n)
    dim = 2 * n
    for _ in range(3):
        U = random_spn(rng, c)
        assert validate_spn(U, c) and reference_validate_spn(U, c)
        for _ in range(4):
            bad = [row[:] for row in U]
            a, b = rng.randrange(dim), rng.randrange(dim)
            bad[a][b] = bad[a][b] + _gauss(rng, 2)
            assert validate_spn(bad, c) == reference_validate_spn(bad, c)
        for scale in (gr(3, 4) / 5, gr(0, 1), gr(-1), gr(2)):
            scaled = [[v * scale for v in row] for row in U]
            assert validate_spn(scaled, c) == reference_validate_spn(scaled, c)


@pytest.mark.parametrize("n,signature", CASES)
def test_decoder_matches_reference_with_key_order(n, signature):
    m = SpModel(n, signature)
    want = reference_decoder(m)
    got = m._decoder()
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_solve_square_matches_per_column_reference(k):
    rng = random.Random(900 + k)
    for _ in range(4):
        A = [[_gauss(rng) if rng.random() < 0.7 else gr(0) for _ in range(k)]
             for _ in range(k)]
        B = [[_gauss(rng) if rng.random() < 0.6 else gr(0) for _ in range(3)]
             for _ in range(k)]
        try:
            want = reference_solve_square(A, B)
        except ValueError as ex:
            with pytest.raises(ValueError, match="singular"):
                solve_square(A, B)
            assert "singular" in str(ex)
            continue
        assert solve_square(A, B) == want


def test_solve_sparse_matches_reference():
    rng = random.Random(31)
    for k, m in ((2, 5), (3, 3), (4, 7), (6, 6)):
        for _ in range(5):
            rows = [({j: v for j in range(m) if rng.random() < 0.6
                      for v in (_gauss(rng),) if not v.is_zero()}, _gauss(rng))
                    for _ in range(k)]
            try:
                want = reference_solve_sparse(rows)
            except ValueError:
                with pytest.raises(ValueError, match="inconsistent"):
                    solve_sparse(rows)
                continue
            got = solve_sparse(rows)
            assert got == want and list(got[0]) == list(want[0])


# ---------------------------------------------------------------------------
# negative controls for the integer Sp(n) check and the many-column solve


def _literal_identities(U, c: StandardConstants) -> Tuple[bool, bool]:
    """(g identity holds, pi identity holds), summed term by term."""
    dim = 2 * c.n
    g_ok = pi_ok = True
    for a in range(dim):
        for b in range(dim):
            acc_g = sum((c.g(s + 1, t + 1) * U[s][a] * U[t][b].conj()
                         for s in range(dim) for t in range(dim)), ZERO)
            acc_pi = sum((c.pi(s + 1, t + 1) * U[s][a] * U[t][b]
                          for s in range(dim) for t in range(dim)), ZERO)
            g_ok = g_ok and acc_g == c.g(a + 1, b + 1)
            pi_ok = pi_ok and acc_pi == c.pi(a + 1, b + 1)
    return g_ok, pi_ok


def _refused(U, c):
    assert not validate_spn(U, c)
    x = G1Element(U, [gr(0)] * (2 * c.n), [gr(0)] * 3)
    with pytest.raises(ValueError, match="Sp"):
        g1_to_matrix(x, c)


@pytest.mark.parametrize("n,signature", CASES)
def test_unit_phase_keeps_g_and_breaks_pi(n, signature):
    """U (3+4i)/5: |(3+4i)/5| = 1 keeps the g identity, while pi picks up
    ((3+4i)/5)^2 != 1."""
    c = StandardConstants(n, signature)
    U = random_spn(random.Random(7), c)
    phased = [[v * gr(3, 4) / 5 for v in row] for row in U]
    assert _literal_identities(phased, c) == (True, False)
    _refused(phased, c)


@pytest.mark.parametrize("n,signature", CASES)
def test_pair_dilation_keeps_pi_and_breaks_g(n, signature):
    """diag(2, 1/2) on the pair (a, a+n): pi_{a,a+n} 2 (1/2) = pi_{a,a+n}
    keeps the pi identity, while g_{a ā} |2|^2 != g_{a ā}."""
    c = StandardConstants(n, signature)
    dim = 2 * n
    for a in range(n):
        U = [[gr(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        U[a][a], U[a + n][a + n] = gr(2), gr(Fraction(1, 2))
        assert _literal_identities(U, c) == (False, True)
        _refused(U, c)


def test_many_columns_inconsistent_in_one_raises():
    """Column 0 of x0 + x1 = (1, 1), 2 x0 + 2 x1 = (2, 3) is consistent,
    column 1 is not: the whole solve raises."""
    rows = [({0: gr(1), 1: gr(1)}, {0: gr(1), 1: gr(1)}),
            ({0: gr(2), 1: gr(2)}, {0: gr(2), 1: gr(3)})]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_many(rows, 2)
    sols, rank = solve_many([(row, {0: rhs[0]}) for row, rhs in rows], 2)
    assert (sols, rank) == ([{0: gr(1)}, {}], 1)
    A = [[gr(1), gr(1)], [gr(2), gr(2)]]
    with pytest.raises(ValueError, match="singular"):
        solve_square(A, [[gr(1), gr(1)], [gr(2), gr(3)]])


# ---------------------------------------------------------------------------
# one elimination per decoder and per square solve


def test_one_elimination_per_decoder_and_per_square_solve(monkeypatch):
    calls = []
    many = model.solve_many

    def counting(rows, k):
        calls.append(k)
        return many(rows, k)

    monkeypatch.setattr(model, "solve_many", counting)
    m = SpModel(1)
    m._decoder()
    assert calls == [m.dim]
    calls.clear()
    A = [[gr(2), gr(1), gr(0)], [gr(0), gr(1), gr(3)], [gr(1), gr(0), gr(1)]]
    B = [[gr(1), gr(0), gr(5)], [gr(0), gr(1), gr(0)], [gr(0), gr(0), gr(1, 1)]]
    solve_square(A, B)
    assert calls == [3]
