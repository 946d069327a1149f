"""The Sp(n) check, the G1 group law, the exact solver and the Lie
model's tables against reference evaluators.

The reference functions below are the ``GaussRational`` loops that
``model.validate_spn``, ``g1_compose``, ``g1_inverse``, ``linear.solve_sparse``,
``solve_square``, ``smat_mul``, the decoder of ``SpModel._template_ints``,
``to_matrix``, ``from_matrix``, ``structure_constants`` and
``killing_gram`` replaced, kept verbatim apart from their names and the
basis matrices they read, which come from ``reference_to_matrix``:
they sum one ``GaussRational`` product per term, they solve one
right-hand side per elimination, and they write coordinates through
``LieCoord.set``.
The package code must give the same verdicts, equal elements, and the
same solutions, tables and Gram matrices with the same key order, on
seeded draws in definite and indefinite signature."""
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

import pytest

from qcframe import gauss, linear, model
from qcframe.gauss import HALF, I, ONE, ZERO, GaussRational, axpy, cleared, gr
from qcframe.linear import (SparseMat, int_matrix, product_into, smat_mul, solve_many,
                            solve_sparse, solve_square)
from qcframe.model import (G1Element, LieCoord, SpModel, TemplateError,
                           g1_compose, g1_inverse, g1_to_matrix, random_coord, random_g1,
                           random_spn, validate_spn)
from qcframe.tensors import StandardConstants, j_average, random_tensor, slots, symmetrize

CASES = [(1, None), (2, None), (2, (1, 1)), (3, (2, 1))]
TABLE_CASES = [(1, None), (2, None), (3, None), (2, (1, 1)), (3, (2, 1))]

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


def reference_basis_matrices(m: SpModel) -> List[SparseMat]:
    """Basis matrix k is ``reference_to_matrix`` of basis element k."""
    return [reference_to_matrix(m, m.basis(k)) for k in m.keys]


def reference_decoder(m: SpModel) -> Dict[Tuple[int, int], Tuple[Tuple[int, GaussRational], ...]]:
    """One elimination per coordinate k."""
    mm = m.m
    rows = [{r * mm + co: v for (r, co), v in mat.items()}
            for mat in reference_basis_matrices(m)]
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


def reference_smat_mul(a: SparseMat, b: SparseMat) -> SparseMat:
    by_row: Dict[int, List[Tuple[int, GaussRational]]] = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out: SparseMat = {}
    for (r, k), va in a.items():
        for c, vb in by_row.get(k, ()):
            key = (r, c)
            cur = out.get(key)
            out[key] = va * vb if cur is None else cur + va * vb
    return {k: v for k, v in out.items() if not v.is_zero()}


def reference_smat_sub(a: SparseMat, b: SparseMat) -> SparseMat:
    out = dict(a)
    axpy(out, -ONE, b)
    return out


def reference_to_matrix(self: SpModel, x: LieCoord) -> SparseMat:
    n, c = self.n, self.consts
    v1, v2, w1, w2 = self.v1, self.v2, self.w1, self.w2
    eta = [x.get(("eta", s)) for s in (1, 2, 3)]
    phi = [x.get(("phi", s)) for s in (1, 2, 3)]
    psi = [x.get(("psi", s)) for s in (1, 2, 3)]
    phi0 = x.get(("phi0",))
    th = {a: x.get(("theta", a, False)) for a in range(1, 2 * n + 1)}
    thb = {a: x.get(("theta", a, True)) for a in range(1, 2 * n + 1)}
    fu = {a: x.get(("phiU", a, False)) for a in range(1, 2 * n + 1)}
    fub = {a: x.get(("phiU", a, True)) for a in range(1, 2 * n + 1)}

    M: SparseMat = {}

    def put(r, co, val):
        if not val.is_zero():
            M[(r, co)] = M.get((r, co), ZERO) + val

    put(v1, v1, -HALF * (phi0 + I * phi[0]))
    put(v1, v2, -HALF * (phi[1] - I * phi[2]))
    put(v1, w1, I * psi[0])
    put(v1, w2, psi[1] - I * psi[2])
    put(v2, v1, HALF * (phi[1] + I * phi[2]))
    put(v2, v2, -HALF * (phi0 - I * phi[0]))
    put(v2, w1, -(psi[1] + I * psi[2]))
    put(v2, w2, -I * psi[0])
    put(w1, v1, HALF * I * eta[0])
    put(w1, v2, HALF * (eta[1] - I * eta[2]))
    put(w1, w1, HALF * (phi0 - I * phi[0]))
    put(w1, w2, -HALF * (phi[1] - I * phi[2]))
    put(w2, v1, -HALF * (eta[1] + I * eta[2]))
    put(w2, v2, -HALF * I * eta[0])
    put(w2, w1, HALF * (phi[1] + I * phi[2]))
    put(w2, w2, HALF * (phi0 + I * phi[0]))
    any_th = any(not v.is_zero() for v in th.values())
    any_thb = any(not v.is_zero() for v in thb.values())
    any_fu = any(not v.is_zero() for v in fu.values())
    any_fub = any(not v.is_zero() for v in fub.values())
    any_gam = any(k[0] == "Gam" for k in x.c)
    rng1 = range(1, 2 * n + 1)
    for b in rng1:
        eb = self.e(b)
        if any_fub:
            put(v1, eb, 2 * I * sum((c.g(b, s) * fub[s] for s in rng1), ZERO))
        if any_fu:
            put(v2, eb, 2 * I * sum((c.pi(b, s) * fu[s] for s in rng1), ZERO))
        if any_thb:
            put(w1, eb, I * sum((c.g(b, s) * thb[s] for s in rng1), ZERO))
        if any_th:
            put(w2, eb, I * sum((c.pi(b, s) * th[s] for s in rng1), ZERO))
    for a in rng1:
        ea = self.e(a)
        if any_th:
            put(ea, v1, I * th[a])
        if any_thb:
            put(ea, v2, -I * sum((c.pi_u_lbar(a, s) * thb[s] for s in rng1), ZERO))
        if any_fu:
            put(ea, w1, 2 * I * fu[a])
        if any_fub:
            put(ea, w2, -2 * I * sum((c.pi_u_lbar(a, s) * fub[s] for s in rng1), ZERO))
        if any_gam:
            for b in rng1:
                put(ea, self.e(b),
                    sum((c.pi_up(a, s) * x.get(("Gam", s, b)) for s in rng1), ZERO))
    return {k: v for k, v in M.items() if not v.is_zero()}


@lru_cache(maxsize=4)
def reference_template(m: SpModel):
    """The reference basis matrices and decoder of m, built once per model."""
    return reference_basis_matrices(m), reference_decoder(m)


def reference_decode(self: SpModel, M: SparseMat) -> Dict[int, GaussRational]:
    mats, dec = reference_template(self)
    x: Dict[int, GaussRational] = {}
    for pos, v in M.items():
        for k, coeff in dec.get(pos, ()):
            x[k] = x[k] + v * coeff if k in x else v * coeff
    x = {k: x[k] for k in sorted(x) if not x[k].is_zero()}
    back: SparseMat = {}
    for k, v in x.items():
        for pos, e in mats[k].items():
            back[pos] = back[pos] + v * e if pos in back else v * e
    if {p: v for p, v in back.items() if not v.is_zero()} != M:
        raise TemplateError("matrix is off the sp(n+1,1) block template")
    return x


def reference_from_matrix(self: SpModel, M: SparseMat) -> LieCoord:
    return LieCoord.adopt(self.n, {self.keys[k]: v for k, v in reference_decode(self, M).items()})


def reference_structure_constants(self: SpModel):
    mats = reference_template(self)[0]
    exact = {}
    for i in range(self.dim):
        for j in range(i + 1, self.dim):
            comm = reference_smat_sub(reference_smat_mul(mats[i], mats[j]),
                                      reference_smat_mul(mats[j], mats[i]))
            if comm:
                exact[(i, j)] = reference_decode(self, comm)
    scale, parts = cleared([v for x in exact.values() for v in x.values()])
    parts = iter(parts)
    rows = [[()] * self.dim for _ in range(self.dim)]
    for (i, j), x in exact.items():
        ints = tuple((k, *next(parts)) for k in x)
        rows[i][j] = ints
        rows[j][i] = tuple((k, -re, -im) for k, re, im in ints)
    return (rows, scale)


def reference_killing_gram(self: SpModel) -> Dict[Tuple[int, int], GaussRational]:
    rows, scale = reference_structure_constants(self)
    # ad[i][(k, l)]: coefficient of e_k in [e_i, e_l], times scale
    ad = [{(k, l): (cr, ci) for l, targets in enumerate(row)
           for k, cr, ci in targets} for row in rows]
    den = scale * scale
    gram: Dict[Tuple[int, int], GaussRational] = {}
    for i in range(self.dim):
        for j in range(i, self.dim):
            re = im = 0
            for (k, l), (vr, vi) in ad[i].items():
                w = ad[j].get((l, k))
                if w is not None:
                    re += vr * w[0] - vi * w[1]
                    im += vr * w[1] + vi * w[0]
            if re or im:
                gram[(i, j)] = gram[(j, i)] = GaussRational.from_ints(re, im, den)
    return gram


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
    _, _, E, dec = m._template_ints()
    got = {divmod(p, m.m): tuple((k, GaussRational.from_ints(re, im, E)) for k, (re, im) in row)
           for p, row in dec.items()}
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("n,signature", TABLE_CASES)
def test_one_pass_basis_matches_to_matrix(n, signature):
    """The template's two readers agree: row k of the integer basis that
    ``_template_ints`` reads in one pass is ``to_matrix`` of basis element
    k, entry order included, for every key."""
    m = SpModel(n, signature)
    D, basis, _, _ = m._template_ints()
    assert list(basis) == list(range(m.dim))
    for k, key in enumerate(m.keys):
        got = [(divmod(p, m.m), GaussRational.from_ints(re, im, D)) for p, (re, im) in basis[k]]
        assert got == list(m.to_matrix(m.basis(key)).items())


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
# the Lie model's tables on Gaussian integers against the GaussRational code


def _random_smat(rng, rows, cols, density=0.5) -> SparseMat:
    return {(r, c): v for r in range(rows) for c in range(cols) if rng.random() < density
            for v in (_gauss(rng, 2),) if not v.is_zero()}


@pytest.mark.parametrize("n,signature", TABLE_CASES)
def test_table_and_gram_match_reference(n, signature):
    m, ref = SpModel(n, signature), SpModel(n, signature)
    assert m.structure_constants() == reference_structure_constants(ref)
    assert list(m.killing_gram().items()) == list(reference_killing_gram(ref).items())


@pytest.mark.parametrize("n,signature", TABLE_CASES)
def test_to_matrix_and_from_matrix_match_reference(n, signature):
    m = SpModel(n, signature)
    rng = random.Random(70 + n)
    coords = [m.basis(k) for k in m.keys] + [random_coord(rng, m) for _ in range(6)]
    # sparse draws leave some blocks empty
    coords += [LieCoord.adopt(n, {k: v for k, v in random_coord(rng, m).c.items()
                                  if rng.random() < 0.2}) for _ in range(6)]
    for x in coords:
        M = m.to_matrix(x)
        assert list(M.items()) == list(reference_to_matrix(m, x).items())
        got = m.from_matrix(M)
        assert got == x and list(got.c) == list(reference_from_matrix(m, M).c)
    # random matrices: almost all off the template, and refused alike
    size = m.m
    for _ in range(6):
        M = _random_smat(rng, size, size, 0.1)
        try:
            want = reference_from_matrix(m, M)
        except TemplateError:
            with pytest.raises(TemplateError):
                m.from_matrix(M)
            continue
        assert list(m.from_matrix(M).c.items()) == list(want.c.items())


def test_smat_mul_matches_reference_with_cancellation():
    """smat_mul, and the one product with each row of its left factor
    given as a dict row's ``.items()`` (as the cochain maps give it), equal
    the reference product, item order included."""
    rng = random.Random(5)
    for rows, inner, cols in ((3, 4, 2), (5, 5, 5), (1, 6, 3), (6, 2, 6)):
        for _ in range(6):
            a = _random_smat(rng, rows, inner)
            b = _random_smat(rng, inner, cols)
            want = list(reference_smat_mul(a, b).items())
            assert list(smat_mul(a, b).items()) == want
            (da, ia), (db, ib) = int_matrix(a), int_matrix(b)
            acc = {}
            product_into(acc, {r: dict(row).items() for r, row in ia.items()}, ib)
            assert [((r, co), GaussRational.from_ints(re, im, da * db))
                    for r, row in acc.items() for co, (re, im) in row.items() if re or im] == want
    # (1 + i, 1/2) (2, 4 + 4i)^T = 0: the one entry cancels and is dropped
    a = {(0, 0): gr(1, 1), (0, 1): gr(Fraction(1, 2))}
    b = {(0, 0): gr(2), (1, 0): gr(-4, -4)}
    assert smat_mul(a, b) == reference_smat_mul(a, b) == {}
    assert smat_mul(a, {}) == smat_mul({}, b) == {}


@pytest.mark.parametrize("n,signature", [(1, None), (2, (1, 1))])
def test_table_build_reduces_no_gauss_rational(n, signature, monkeypatch):
    """Once the basis matrices and the decoder exist, the table is built in
    Python integers: no GaussRational is reduced."""
    m = SpModel(n, signature)
    m._template_ints()
    calls = []
    reduced = gauss._reduced

    def counting(*args):
        calls.append(args)
        return reduced(*args)

    monkeypatch.setattr(gauss, "_reduced", counting)
    m.structure_constants()
    assert calls == []
    m.killing_gram()  # the control: the Gram's entries are GaussRationals
    assert calls


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
    many = linear.solve_many

    def counting(rows, k):
        calls.append(k)
        return many(rows, k)

    monkeypatch.setattr(model, "solve_many", counting)
    monkeypatch.setattr(linear, "solve_many", counting)
    m = SpModel(1)
    m._template_ints()
    assert calls == [m.dim]
    calls.clear()
    A = [[gr(2), gr(1), gr(0)], [gr(0), gr(1), gr(3)], [gr(1), gr(0), gr(1)]]
    B = [[gr(1), gr(0), gr(5)], [gr(0), gr(1), gr(0)], [gr(0), gr(0), gr(1, 1)]]
    solve_square(A, B)
    assert calls == [3]
