"""Exact sparse linear algebra over the Gaussian rationals: the package's
one Gaussian-integer matrix layout, its one product and its one solver.

A Gaussian-integer matrix is stored as ``(den, rows)``: row -> a tuple of
its nonzero entries ``(col, (re, im))``, each the value (re + i im) / den,
over a reduced denominator (gcd(den, every part) == 1).  ``int_matrix``
is the one constructor.  ``product_into`` is the one product; it reads a
row of either factor as pairs ``(col, (re, im))``, so a left factor's
row may also be a dict row's ``.items()``, such as a cochain's integer
row.  The ``SparseMat`` dicts {(row, col): GaussRational} are multiplied
through it by ``smat_mul``.  ``solve_many`` is the one elimination.
"""
from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Mapping, Tuple

from .gauss import ONE, ZERO, GaussRational, axpy, cleared

SparseMat = Dict[Tuple[int, int], GaussRational]
IntMatrix = Tuple[int, Dict[int, Tuple[Tuple[int, Tuple[int, int]], ...]]]
# a product's running sums: row -> {column: [re, im]}
Acc = Dict[int, Dict[int, List[int]]]


def int_matrix(entries: Mapping[Tuple[int, int], object], den: int = 0) -> IntMatrix:
    """The matrix with the given (row, col) -> value entries as ``(den,
    rows)``, rows and entries in first-touch order, zero entries dropped.
    The values are ``GaussRational``s, or Gaussian-integer tuples (re, im)
    over ``den`` when a den is given."""
    if not den:
        den, ints = cleared(entries.values())
        entries = dict(zip(entries, ints))
    g = gcd(den, *(x for v in entries.values() for x in v))
    rows: Dict[int, list] = {}
    # each distinct value is divided and stored once (D_direct at n = 2:
    # 2612 entries, 16 values), so an entry costs one pair tuple
    values: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for (r, co), v in entries.items():
        if v[0] or v[1]:
            w = values.get(v)
            if w is None:
                w = values[v] = v[0] // g, v[1] // g
            rows.setdefault(r, []).append((co, w))
    return den // g, {r: tuple(row) for r, row in rows.items()}


def product_into(acc: Acc, a, b, sign: int = 1) -> None:
    """acc += sign * a b in place, the package's one sparse matrix product:
    a and b map a row to its entries (col, (re, im)), and acc maps a row to
    {column: running [re, im]}, rows and columns in first-touch order,
    zeros included; a row of a that meets no row of b adds no row to acc."""
    for r, a_row in a.items():
        out = None
        for k, (ar, ai) in a_row:
            row = b.get(k)
            if row:
                if out is None:
                    out = acc.get(r)
                    if out is None:
                        out = acc[r] = {}
                if sign < 0:
                    ar, ai = -ar, -ai
                for co, (br, bi) in row:
                    re, im = ar * br - ai * bi, ar * bi + ai * br
                    cur = out.get(co)
                    if cur is None:
                        out[co] = [re, im]
                    else:
                        cur[0] += re
                        cur[1] += im


def commutator(a, b) -> Acc:
    """a b - b a, as ``product_into`` leaves it: zero entries and empty
    rows included."""
    acc: Acc = {}
    product_into(acc, a, b)
    product_into(acc, b, a, -1)
    return acc


def is_zero(values: Dict[int, List[int]]) -> bool:
    """Whether every running [re, im] of a product's row is zero."""
    return not any(re or im for re, im in values.values())


def equal(da: int, a: Dict[int, List[int]], db: int, b: Dict[int, List[int]]) -> bool:
    """a / da == b / db output by output, for outputs [re, im] over da
    and db."""
    zero = (0, 0)
    for pos in a.keys() | b.keys():
        (ar, ai), (br, bi) = a.get(pos, zero), b.get(pos, zero)
        if ar * db != br * da or ai * db != bi * da:
            return False
    return True


def smat(dense) -> SparseMat:
    """The sparse form of a dense matrix given as a list of rows."""
    out: SparseMat = {}
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            v = GaussRational.of(v)
            if not v.is_zero():
                out[i, j] = v
    return out


def smat_mul(a: SparseMat, b: SparseMat) -> SparseMat:
    """The product a b: both stored by ``int_matrix``, multiplied by
    ``product_into`` and each nonzero entry divided once, row by row."""
    da, ia = int_matrix(a)
    db, ib = int_matrix(b)
    acc: Acc = {}
    product_into(acc, ia, ib)
    den = da * db
    new = GaussRational.from_ints
    return {(r, co): new(re, im, den) for r, row in acc.items()
            for co, (re, im) in row.items() if re or im}


def solve_many(rows: Iterable[Tuple[Dict[int, GaussRational], Dict[int, GaussRational]]],
               k: int) -> Tuple[List[Dict[int, GaussRational]], int]:
    """Solve k exact linear systems that share their coefficients, by one
    sparse row reduction over the Gaussian rationals.  Row ``(coeffs, rhs)``
    says ``sum(coeffs[j] * x_j) = rhs[t]`` in system t, for the sparse
    right-hand side ``rhs`` (column t -> nonzero value, columns 0..k-1).
    Each row is reduced, in the given order, against the pivots found so
    far and then pivots on its smallest unknown; the pivots depend on the
    coefficients alone, so each system is solved as it would be alone.

    Returns one particular solution per system (free unknowns at zero,
    zero values omitted, unknowns in descending order) and the rank, the
    number of pivots.  Raises ValueError when a row reduces to 0 = nonzero
    in any system."""
    pivots: Dict[int, Dict[int, GaussRational]] = {}
    rhs_map: Dict[int, Dict[int, GaussRational]] = {}
    for row, rhs in rows:
        row, rhs = dict(row), dict(rhs)
        while row:
            col = min(row)
            if col not in pivots:
                inv = ONE / row[col]
                pivots[col] = {c2: inv * v2 for c2, v2 in row.items()}
                rhs_map[col] = {t: inv * v for t, v in rhs.items()}
                break
            f = -row[col]
            axpy(row, f, pivots[col])  # cancels the pivot entry too
            axpy(rhs, f, rhs_map[col])
        else:
            if rhs:
                raise ValueError("inconsistent linear system")
    # back substitution with free unknowns at zero
    done: Dict[int, Dict[int, GaussRational]] = {}
    sols: List[Dict[int, GaussRational]] = [{} for _ in range(k)]
    for col in sorted(pivots, reverse=True):
        val = dict(rhs_map[col])
        for c2, v2 in pivots[col].items():
            if c2 != col and c2 in done:
                axpy(val, -v2, done[c2])
        done[col] = val
        for t, v in val.items():
            sols[t][col] = v
    return sols, len(pivots)


def solve_sparse(rows: Iterable[Tuple[Dict[int, GaussRational], GaussRational]]
                 ) -> Tuple[Dict[int, GaussRational], int]:
    """Solve the exact linear system whose rows ``(coeffs, rhs)`` say
    ``sum(coeffs[j] * x_j) = rhs``: the one-system case of ``solve_many``,
    with the same particular solution, rank and ValueError."""
    def column(rhs) -> Dict[int, GaussRational]:
        rhs = GaussRational.of(rhs)
        return {} if rhs.is_zero() else {0: rhs}

    (sol,), rank = solve_many(((row, column(rhs)) for row, rhs in rows), 1)
    return sol, rank


def solve_square(A: List[List[GaussRational]],
                 B: List[List[GaussRational]]) -> List[List[GaussRational]]:
    """The X with A X = B for a square A, every column of B in one
    ``solve_many``.  Raises ValueError naming the matrix singular when A is."""
    k = len(A)
    rows = [({j: v for j, v in enumerate(r) if not v.is_zero()},
             {t: v for t, v in enumerate(map(GaussRational.of, b)) if not v.is_zero()})
            for r, b in zip(A, B)]
    try:
        cols, rank = solve_many(rows, len(B[0]))
    except ValueError:  # only a singular A leaves a column of B out of range
        rank = -1
    if rank < k:
        raise ValueError(f"singular {k}x{k} matrix")
    return [[col.get(i, ZERO) for col in cols] for i in range(k)]
