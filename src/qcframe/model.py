"""The matrix model sp(n+1,1): block template, brackets, Killing form,
graded dual frames, and the group of coframe transformations.

Matrices act on the 2n+4 dimensional space with basis ordered
(v1, v2, e_1..e_{2n}, w1, w2) and are stored sparsely as dicts
{(row, col): GaussRational}.  An element is described either by such a
matrix or by its coordinates (a LieCoord); the two are related by a
fixed block template, written once in ``to_matrix``.  Decoding is the
left inverse of the basis matrices, and ``from_matrix`` refuses anything
off the template so that closure failures surface immediately.

Every bracket goes through one structure-constant table, built on first
use from the commutators of the basis matrices; each basis pair is
certified once against the template when the table is built.  The
Killing form is held as two sparse Gram matrices: the ad-trace one and
the closed form with its printed coefficients.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple

from .gauss import ONE, ZERO, GaussRational, gr
from .tensors import StandardConstants, IndexedTensor, slots
from . import coframe
from .coframe import Key

I = gr(0, 1)
HALF = gr(Fraction(1, 2))

SparseMat = Dict[Tuple[int, int], GaussRational]


class TemplateError(ValueError):
    """Raised when a matrix does not fit the sp(n+1,1) block template."""


class LieCoord:
    """Element of (complexified) sp(n+1,1) in coframe coordinates."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, values: Optional[Dict[Key, GaussRational]] = None):
        self.n = n
        self.c: Dict[Key, GaussRational] = {}
        if values:
            for k, v in values.items():
                self.set(k, v)

    def set(self, key: Key, val) -> None:
        if key[0] == "Gam":
            key = coframe.gam_key(key[1], key[2])
        val = GaussRational.of(val)
        if val.is_zero():
            self.c.pop(key, None)
        else:
            self.c[key] = val

    def add_to(self, key: Key, val) -> None:
        self.set(key, self.get(key) + GaussRational.of(val))

    def get(self, key: Key) -> GaussRational:
        if key[0] == "Gam":
            key = coframe.gam_key(key[1], key[2])
        return self.c.get(key, gr(0))

    def gam_bar(self, consts: StandardConstants, s: int, t: int) -> GaussRational:
        """The dependent barred coordinate Gamma_{s̄ t̄}."""
        coeff, key = coframe.gamma_bar(consts, s, t)
        return coeff * self.get(key)

    def __add__(self, other: "LieCoord") -> "LieCoord":
        out = LieCoord(self.n, dict(self.c))
        for k, v in other.c.items():
            out.add_to(k, v)
        return out

    def __neg__(self) -> "LieCoord":
        out = LieCoord(self.n)
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other: "LieCoord") -> "LieCoord":
        return self + -other

    def scale(self, c) -> "LieCoord":
        c = GaussRational.of(c)
        return LieCoord(self.n, {k: c * v for k, v in self.c.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieCoord):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def is_zero(self) -> bool:
        return not self.c

    def decompose(self) -> Dict[int, "LieCoord"]:
        out = {g: LieCoord(self.n) for g in (-2, -1, 0, 1, 2)}
        for k, v in self.c.items():
            out[coframe.grade(k)].set(k, v)
        return out

    def __repr__(self):
        parts = ", ".join(f"{coframe.label(k)}={v}" for k, v in sorted(
            self.c.items(), key=lambda kv: str(kv[0])))
        return f"LieCoord({parts or '0'})"


# ---------------------------------------------------------------------------
# sparse matrix helpers and the one exact linear solver


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


def smat_sub(a: SparseMat, b: SparseMat) -> SparseMat:
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        nv = -v if cur is None else cur - v
        if nv.is_zero():
            out.pop(k, None)
        else:
            out[k] = nv
    return out


def solve_sparse(rows: Iterable[Tuple[Dict[int, GaussRational], GaussRational]]
                 ) -> Tuple[Dict[int, GaussRational], int]:
    """Solve the exact linear system whose rows ``(coeffs, rhs)`` say
    ``sum(coeffs[j] * x_j) = rhs``, by sparse row reduction over the
    Gaussian rationals.  Each row is reduced, in the given order, against
    the pivots found so far and then pivots on its smallest unknown.

    Returns a particular solution (free unknowns at zero, zero values
    omitted) and the rank, the number of pivots.  Raises ValueError when
    a row reduces to 0 = nonzero."""
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


def solve_square(A: List[List[GaussRational]],
                 B: List[List[GaussRational]]) -> List[List[GaussRational]]:
    """The X with A X = B for a square A, one ``solve_sparse`` per column
    of B.  Raises ValueError naming the matrix singular when A is."""
    k = len(A)
    rows = [{j: v for j, v in enumerate(r) if not v.is_zero()} for r in A]
    cols = []
    for j in range(len(B[0])):
        try:
            sol, rank = solve_sparse(zip(rows, (b[j] for b in B)))
        except ValueError:  # only a singular A leaves a column of B out of range
            rank = -1
        if rank < k:
            raise ValueError(f"singular {k}x{k} matrix")
        cols.append(sol)
    return [[col.get(i, ZERO) for col in cols] for i in range(k)]


class SpModel:
    """All exact data attached to sp(n+1,1) for fixed n and signature."""

    def __init__(self, n: int, signature: Tuple[int, int] = None):
        self.consts = StandardConstants(n, signature)
        self.n = n
        self.m = 2 * n + 4  # matrix size
        self.keys = coframe.coord_keys(n)
        self.key_index = {k: i for i, k in enumerate(self.keys)}
        self.dim = len(self.keys)
        # row/col layout of the template
        self.v1, self.v2 = 0, 1
        self.w1, self.w2 = 2 * n + 2, 2 * n + 3
        self._mats = None
        self._dec = None
        self._sc = None
        self._gram = None
        self._closed = None
        self._frames = None

    def e(self, a: int) -> int:
        return 1 + a

    def basis(self, key: Key) -> LieCoord:
        return LieCoord(self.n, {key: gr(1)})

    # -- template ----------------------------------------------------------

    def to_matrix(self, x: LieCoord) -> SparseMat:
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
                M[(r, co)] = M.get((r, co), gr(0)) + val

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
                put(v1, eb, 2 * I * sum((c.g(b, s) * fub[s] for s in rng1), gr(0)))
            if any_fu:
                put(v2, eb, 2 * I * sum((c.pi(b, s) * fu[s] for s in rng1), gr(0)))
            if any_thb:
                put(w1, eb, I * sum((c.g(b, s) * thb[s] for s in rng1), gr(0)))
            if any_th:
                put(w2, eb, I * sum((c.pi(b, s) * th[s] for s in rng1), gr(0)))
        for a in rng1:
            ea = self.e(a)
            if any_th:
                put(ea, v1, I * th[a])
            if any_thb:
                put(ea, v2, -I * sum((c.pi_u_lbar(a, s) * thb[s] for s in rng1), gr(0)))
            if any_fu:
                put(ea, w1, 2 * I * fu[a])
            if any_fub:
                put(ea, w2, -2 * I * sum((c.pi_u_lbar(a, s) * fub[s] for s in rng1), gr(0)))
            if any_gam:
                for b in rng1:
                    put(ea, self.e(b),
                        sum((c.pi_up(a, s) * x.get(("Gam", s, b)) for s in rng1), gr(0)))
        return {k: v for k, v in M.items() if not v.is_zero()}

    def _basis_matrices(self) -> List[SparseMat]:
        if self._mats is None:
            self._mats = [self.to_matrix(self.basis(k)) for k in self.keys]
        return self._mats

    def _decoder(self) -> Dict[Tuple[int, int], Tuple[Tuple[int, GaussRational], ...]]:
        """The left inverse of the basis matrices: matrix position -> the
        coordinates (index, coefficient) that read that entry.  Row k of
        the inverse solves <B_j, L_k> = delta_jk over the positions;
        ``TemplateError`` if the basis matrices are linearly dependent."""
        if self._dec is None:
            m = self.m
            rows = [{r * m + co: v for (r, co), v in mat.items()}
                    for mat in self._basis_matrices()]
            dec: Dict[Tuple[int, int], List[Tuple[int, GaussRational]]] = {}
            for k in range(self.dim):
                try:
                    sol, rank = solve_sparse(
                        (row, ONE if j == k else ZERO) for j, row in enumerate(rows))
                except ValueError:
                    rank = -1
                if rank < self.dim:
                    raise TemplateError("the sp(n+1,1) basis matrices are linearly dependent")
                for p, v in sol.items():
                    dec.setdefault(divmod(p, m), []).append((k, v))
            self._dec = {pos: tuple(coeffs) for pos, coeffs in dec.items()}
        return self._dec

    def _decode(self, M: SparseMat) -> Dict[int, GaussRational]:
        """Coordinates (index -> value) of a template matrix, certified by
        re-encoding through the basis matrices."""
        dec = self._decoder()
        x: Dict[int, GaussRational] = {}
        for pos, v in M.items():
            for k, coeff in dec.get(pos, ()):
                x[k] = x[k] + v * coeff if k in x else v * coeff
        x = {k: x[k] for k in sorted(x) if not x[k].is_zero()}
        mats = self._basis_matrices()
        back: SparseMat = {}
        for k, v in x.items():
            for pos, e in mats[k].items():
                back[pos] = back[pos] + v * e if pos in back else v * e
        if {p: v for p, v in back.items() if not v.is_zero()} != M:
            raise TemplateError("matrix is off the sp(n+1,1) block template")
        return x

    def from_matrix(self, M: SparseMat) -> LieCoord:
        """The coordinates of M; ``TemplateError`` if M is off the template."""
        x = LieCoord(self.n)
        x.c = {self.keys[k]: v for k, v in self._decode(M).items()}
        return x

    # -- structure constants, bracket and grading ------------------------------

    def structure_constants(self):
        """The table ``rows[i][j] = ((k, re, im), ...)`` with
        [B_i, B_j] = sum_k ((re + i im) / scale) B_k, and the scale.

        Built on first use from the basis matrix commutators: each pair
        i < j is decoded and certified by re-encoding (``TemplateError``
        if the commutator is off the template); (j, i) is the negation.
        The entries are Gaussian integers over one common denominator."""
        if self._sc is None:
            mats = self._basis_matrices()
            exact = {}
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    comm = smat_sub(smat_mul(mats[i], mats[j]), smat_mul(mats[j], mats[i]))
                    if comm:
                        exact[(i, j)] = self._decode(comm)
            scale = lcm(*(v.d for x in exact.values() for v in x.values()))
            rows = [[()] * self.dim for _ in range(self.dim)]
            for (i, j), x in exact.items():
                ints = tuple((k, v.a * (scale // v.d), v.b * (scale // v.d))
                             for k, v in x.items())
                rows[i][j] = ints
                rows[j][i] = tuple((k, -re, -im) for k, re, im in ints)
            self._sc = (rows, scale)
        return self._sc

    def _cleared(self, x: LieCoord):
        """x as Gaussian integers (index, re, im) over its lcm denominator."""
        d = lcm(*(v.d for v in x.c.values()))
        return d, [(self.key_index[k], v.a * (d // v.d), v.b * (d // v.d))
                   for k, v in x.c.items()]

    def bracket(self, a: LieCoord, b: LieCoord) -> LieCoord:
        """[a, b] through the structure-constant table, summed in
        Gaussian integers and divided once by the common denominator."""
        rows, scale = self.structure_constants()
        da, xa = self._cleared(a)
        db, xb = self._cleared(b)
        acc_re, acc_im = [0] * self.dim, [0] * self.dim
        for i, ar, ai in xa:
            row = rows[i]
            for j, br, bi in xb:
                targets = row[j]
                if targets:
                    pr, pi = ar * br - ai * bi, ar * bi + ai * br
                    for k, cr, ci in targets:
                        acc_re[k] += pr * cr - pi * ci
                        acc_im[k] += pr * ci + pi * cr
        den = da * db * scale
        out = LieCoord(self.n)
        out.c = {self.keys[k]: GaussRational.from_ints(re, im, den)
                 for k, (re, im) in enumerate(zip(acc_re, acc_im)) if re or im}
        return out

    # the old name, kept while bench/tracing.py wraps it
    bracket_fast = bracket

    # -- Killing form ----------------------------------------------------------

    def killing_gram(self) -> Dict[Tuple[int, int], GaussRational]:
        """Exact Gram matrix B(e_i, e_j) = trace(ad e_i . ad e_j), summed
        over the integer structure constants and divided by scale^2."""
        if self._gram is None:
            rows, scale = self.structure_constants()
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
            self._gram = gram
        return self._gram

    def killing_closed_gram(self) -> Dict[Tuple[int, int], GaussRational]:
        """The closed-form Killing expression with its literal printed
        coefficients, as a Gram matrix B(e_i, e_j); compare with
        killing_gram via calibration()."""
        if self._closed is None:
            n, c, ix = self.n, self.consts, self.key_index
            gram: Dict[Tuple[int, int], GaussRational] = {}

            def add(v, *pairs):  # the term v * (a_ka b_kb + ...) of B(a, b)
                for ka, kb in pairs:
                    p = ix[ka], ix[kb]
                    gram[p] = gram.get(p, ZERO) + v

            for s in (1, 2, 3):
                eta, psi, phi = ("eta", s), ("psi", s), ("phi", s)
                add(gr(-(4 * n + 6)), (eta, psi), (psi, eta))
                add(gr(-(2 * n + 4)), (phi, phi))
            add(gr(2 * n + 6), (("phi0",), ("phi0",)))
            for al in range(1, 2 * n + 1):
                # theta_alpha = g_{s̄ alpha} theta^{s̄}, theta_ᾱ = g_{s ᾱ} theta^s
                th, thb = ("theta", al, False), ("theta", al, True)
                fu, fub = ("phiU", al, False), ("phiU", al, True)
                add(gr(-4 * (2 * n + 7) * c.diag[al - 1]),
                    (thb, fu), (fu, thb), (th, fub), (fub, th))
                for be in range(1, 2 * n + 1):
                    # Gamma^{a b}(B) = g^{a s̄} g^{b t̄} Gamma_{s̄ t̄}(B)
                    coeff, key = coframe.gamma_bar(c, al, be)
                    add(gr(-7 * c.diag[al - 1] * c.diag[be - 1]) * coeff,
                        (coframe.gam_key(al, be), key))
            self._closed = {p: v for p, v in gram.items() if not v.is_zero()}
        return self._closed

    def _pair(self, gram, a: LieCoord, b: LieCoord) -> GaussRational:
        """sum a_i b_j gram[i, j], the bilinear form of a Gram matrix."""
        tot = ZERO
        for ka, va in a.c.items():
            ia = self.key_index[ka]
            for kb, vb in b.c.items():
                g = gram.get((ia, self.key_index[kb]))
                if g is not None:
                    tot = tot + va * vb * g
        return tot

    def killing_trace(self, a: LieCoord, b: LieCoord) -> GaussRational:
        return self._pair(self.killing_gram(), a, b)

    def killing_closed(self, a: LieCoord, b: LieCoord) -> GaussRational:
        return self._pair(self.killing_closed_gram(), a, b)

    def calibration(self) -> dict:
        """Compare the ad-trace Gram matrix against the closed-form
        expression, block by block.  The trace is authoritative; the
        report records both values so discrepancies stay visible."""
        n = self.n
        probes = {
            "eta_psi": (("eta", 1), ("psi", 1)),
            "phi0_phi0": (("phi0",), ("phi0",)),
            "phi_s_phi_s": (("phi", 1), ("phi", 1)),
            "theta_phiU": (("theta", 1, False), ("phiU", 1, True)),
            "Gam_Gam": (("Gam", 1, 1), ("Gam", 1 + n, 1 + n)),
        }
        printed_coeff = {
            "eta_psi": gr(-(4 * n + 6)),
            "phi0_phi0": gr(2 * n + 6),
            "phi_s_phi_s": gr(-(2 * n + 4)),
            "theta_phiU": gr(-4 * (2 * n + 7)),
            "Gam_Gam": gr(-7),
        }
        out = {"n": n, "signature": list(self.consts.signature),
               "blocks": {}, "full_match": True}
        for name, (ka, kb) in probes.items():
            a, b = self.basis(ka), self.basis(kb)
            tr = self.killing_trace(a, b)
            cl = self.killing_closed(a, b)
            # normalize to "coefficient" using the closed form's own shape
            shape = cl / printed_coeff[name]
            trace_coeff = tr / shape if not shape.is_zero() else gr(0)
            match = tr == cl
            out["blocks"][name] = {
                "printed_coefficient": str(printed_coeff[name]),
                "trace_coefficient": str(trace_coeff),
                "match": match,
            }
            if not match:
                out["full_match"] = False
        # full-Gram consistency: closed form vs trace on every basis pair
        closed, trace = self.killing_closed_gram(), self.killing_gram()
        mismatches = sum(closed.get(p) != trace.get(p) for p in closed.keys() | trace.keys())
        out["gram_entry_mismatches"] = mismatches
        out["gram_entries"] = self.dim * self.dim
        if mismatches:
            out["full_match"] = False
        tf, pf = self.dual_frames(), self.dual_frames_published()
        out["pairings"] = {
            "psi_Ehat": {"trace": str(tf["psi_pairing"]),
                         "published_form": str(pf["psi_pairing"]),
                         "printed": str(gr(Fraction(-1, 4 * n + 6)))},
            "phi_Zhat": {"trace": str(tf["phi_pairing"]),
                         "published_form": str(pf["phi_pairing"]),
                         "printed": str(gr(Fraction(-1, 4 * (2 * n + 7))))},
        }
        return out

    # -- dual frames -------------------------------------------------------------

    def _frames_for(self, gram) -> dict:
        n = self.n

        def solve(dual_of: List[Key], inside: List[Key]) -> List[LieCoord]:
            # column t of the inverse pairing matrix holds the dual of dual_of[t]
            k = len(dual_of)
            rows = [[gram.get((self.key_index[kb], self.key_index[kd]), ZERO)
                     for kb in inside] for kd in dual_of]
            ident = [[ONE if u == t else ZERO for t in range(k)] for u in range(k)]
            inv = solve_square(rows, ident)
            return [LieCoord(n, {kb: inv[i][t] for i, kb in enumerate(inside)})
                    for t in range(k)]

        e_basis = [("eta", s) for s in (1, 2, 3)]
        z_basis = [("theta", a, False) for a in range(1, 2 * n + 1)]
        zb_basis = [("theta", a, True) for a in range(1, 2 * n + 1)]
        psi_basis = [("psi", s) for s in (1, 2, 3)]
        fu_basis = ([("phiU", a, False) for a in range(1, 2 * n + 1)]
                    + [("phiU", a, True) for a in range(1, 2 * n + 1)])

        ehat = solve(e_basis, psi_basis)
        zhat_all = solve(z_basis + zb_basis, fu_basis)
        frames = {
            "E": [self.basis(k) for k in e_basis],
            "Z": [self.basis(k) for k in z_basis],
            "Zbar": [self.basis(k) for k in zb_basis],
            "Ehat": ehat,
            "Zhat": zhat_all[:2 * n],
            "Zhatbar": zhat_all[2 * n:],
        }
        # the two pairing scalars quoted in reports
        frames["psi_pairing"] = ehat[0].get(("psi", 1))
        c = self.consts
        # phi_1(Zhat^1) with phi_a = g_{s̄ a} phiU^{s̄}
        frames["phi_pairing"] = gr(c.diag[0]) * frames["Zhat"][0].get(("phiU", 1, True))
        return frames

    def dual_frames(self) -> dict:
        """E_s, Z_a, Z_ā and their Killing-duals Ehat_s in g_2 and
        Zhat^a, Zhat^ā in g_1, computed from the ad-trace Gram.  This is
        the authoritative version used by the codifferential."""
        if self._frames is None:
            self._frames = self._frames_for(self.killing_gram())
        return self._frames

    def dual_frames_published(self) -> dict:
        """Dual frames taken against the closed-form expression with its
        literal coefficients; a calibration artifact only.  These frames
        reproduce the quoted pairings -1/(4n+6) and -1/(4(2n+7))."""
        return self._frames_for(self.killing_closed_gram())


# ---------------------------------------------------------------------------
# Jacobi / grading sweeps


def random_coord(rng: random.Random, model: SpModel, span: int = 4) -> LieCoord:
    out = LieCoord(model.n)
    for k in model.keys:
        re = Fraction(rng.randint(-span, span), rng.randint(1, 2))
        im = Fraction(rng.randint(-span, span), rng.randint(1, 2))
        out.set(k, gr(re, im))
    return out


def jacobi_residual(model: SpModel, a: LieCoord, b: LieCoord, c: LieCoord) -> LieCoord:
    return (model.bracket(model.bracket(a, b), c)
            + model.bracket(model.bracket(b, c), a)
            + model.bracket(model.bracket(c, a), b))


def grading_check(model: SpModel) -> bool:
    """[g_i, g_j] lies in g_{i+j} for every pair of basis elements: a scan
    of the structure-constant table."""
    grades = [coframe.grade(k) for k in model.keys]
    rows, _ = model.structure_constants()
    return all(grades[k] == grades[i] + grades[j]
               for i, row in enumerate(rows) for j, targets in enumerate(row)
               for k, _, _ in targets)


# ---------------------------------------------------------------------------
# the group of coframe transformations


class Dual:
    """First-order dual numbers over GaussRational, used to take exact
    derivatives of one-parameter families of group elements."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = GaussRational.of(a)
        self.b = GaussRational.of(b)

    @staticmethod
    def of(v):
        if isinstance(v, Dual):
            return v
        return Dual(GaussRational.of(v))

    def __add__(self, o):
        o = Dual.of(o)
        return Dual(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-Dual.of(o))

    def __rsub__(self, o):
        return Dual.of(o) - self

    def __mul__(self, o):
        o = Dual.of(o)
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Dual.of(o)
        inv_a = gr(1) / o.a
        return Dual(self.a * inv_a, (self.b * o.a - self.a * o.b) * inv_a * inv_a)

    def conj(self):
        return Dual(self.a.conj(), self.b.conj())

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def __eq__(self, o):
        o = Dual.of(o)
        return self.a == o.a and self.b == o.b


class G1Element:
    """A(U, r, lambda): U in Sp(n) (2n x 2n, entries U[a][b] = U^a_b),
    r in C^{2n}, lambda in R^3."""

    def __init__(self, U, r, lam):
        self.U = U
        self.r = list(r)
        self.lam = [GaussRational._coerce(v) if GaussRational._coerce(v) is not None
                    else v for v in lam]

    @staticmethod
    def identity(n: int) -> "G1Element":
        U = [[gr(1 if i == j else 0) for j in range(2 * n)] for i in range(2 * n)]
        return G1Element(U, [gr(0)] * 2 * n, [gr(0)] * 3)

    def __eq__(self, other):
        return (self.U == other.U and self.r == other.r and self.lam == other.lam)


def validate_spn(U, c: StandardConstants) -> bool:
    """Both defining identities of Sp(n): g_{st̄} U^s_a conj(U^t_b) =
    g_{ab̄} and pi_{st} U^s_a U^t_b = pi_{ab}."""
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


def random_spn(rng: random.Random, c: StandardConstants, span: int = 3):
    """Exact random Sp(n) element via the Cayley transform of a random
    algebra element built from a symmetric j-invariant array."""
    from .tensors import random_tensor, symmetrize, j_average
    n = c.n
    dim = 2 * n
    while True:
        y = j_average(symmetrize(random_tensor(rng, n, slots("ll"), span)), c)
        x = [[gr(0)] * dim for _ in range(dim)]
        for (s, b), val in y.entries.items():
            for a in range(1, dim + 1):
                coeff = c.pi_up(a, s)
                if not coeff.is_zero():
                    x[a - 1][b - 1] = x[a - 1][b - 1] + coeff * val
        # U = (I - X)^{-1} (I + X); draw again when I - X is singular
        try:
            U = solve_square([[gr(1 if i == j else 0) - x[i][j] for j in range(dim)]
                              for i in range(dim)],
                             [[gr(1 if i == j else 0) + x[i][j] for j in range(dim)]
                              for i in range(dim)])
        except ValueError:
            continue
        if validate_spn(U, c):
            return U
        raise AssertionError("Cayley transform left Sp(n); algebra element invalid")


def random_g1(rng: random.Random, c: StandardConstants, span: int = 3) -> G1Element:
    n = c.n
    r = [gr(Fraction(rng.randint(-span, span), rng.randint(1, 2)),
            Fraction(rng.randint(-span, span), rng.randint(1, 2)))
         for _ in range(2 * n)]
    lam = [gr(Fraction(rng.randint(-span, span), rng.randint(1, 2))) for _ in range(3)]
    return G1Element(random_spn(rng, c, span), r, lam)


def _u_low(c: StandardConstants, U, b: int, s: int):
    """U_{b s̄} = g_{a s̄} U^a_b: one term, because g is diagonal."""
    return gr(c.diag[s]) * U[s][b]


def _norm2(c: StandardConstants, r):
    """r_s r^s = g_{t̄ s} conj(r^t) r^s."""
    return sum((gr(c.diag[s]) * r[s].conj() * r[s] for s in range(len(r))), ZERO)


def g1_to_matrix(x: G1Element, c: StandardConstants, check: bool = True,
                 ring=None):
    """The (4n+7)-square matrix of the coframe transformation, rows and
    columns ordered (eta_1..3, theta^b, theta^b̄, phi_0..phi_3)."""
    n = c.n
    dim = 2 * n
    if check and not validate_spn(x.U, c):
        raise ValueError("U is not in Sp(n)")
    lift = (lambda v: v) if ring is None else ring
    U = [[lift(v) for v in row] for row in x.U]
    r = [lift(v) for v in x.r]
    lam = [lift(v) for v in x.lam]
    size = 4 * n + 7
    th0 = 3           # first theta row/col
    thb0 = 3 + dim    # first theta-bar
    ph0 = 3 + 2 * dim
    M = [[lift(gr(0)) for _ in range(size)] for _ in range(size)]
    for s in range(3):
        M[s][s] = lift(gr(1))
    for s in range(4):
        M[ph0 + s][ph0 + s] = lift(gr(1))
    iI = gr(0, 1)

    rr = _norm2(c, r)
    for a in range(dim):
        # theta^a row
        M[th0 + a][0] = iI * r[a]
        acc = lift(gr(0))
        for s in range(dim):
            cp = c.pi_u_lbar(a + 1, s + 1)
            if not cp.is_zero():
                acc = acc + cp * r[s].conj()
        M[th0 + a][1] = acc
        M[th0 + a][2] = iI * acc
        for bq in range(dim):
            M[th0 + a][th0 + bq] = U[a][bq]
        # theta^ā row (conjugate)
        M[thb0 + a][0] = -(iI * r[a].conj())
        M[thb0 + a][1] = acc.conj()
        M[thb0 + a][2] = -(iI * acc.conj())
        for bq in range(dim):
            M[thb0 + a][thb0 + bq] = U[a][bq].conj()
    for s in range(3):
        M[ph0][s] = lam[s]
    M[ph0 + 1][0] = 2 * rr
    M[ph0 + 1][1] = -lam[2]
    M[ph0 + 1][2] = lam[1]
    M[ph0 + 2][0] = lam[2]
    M[ph0 + 2][1] = 2 * rr
    M[ph0 + 2][2] = -lam[0]
    M[ph0 + 3][0] = -lam[1]
    M[ph0 + 3][1] = lam[0]
    M[ph0 + 3][2] = 2 * rr
    for bq in range(dim):
        ub = sum((_u_low(c, U, bq, s) * r[s].conj() for s in range(dim)), ZERO)
        # 2 U_{b s̄} r^s̄ and friends
        M[ph0][th0 + bq] = 2 * ub
        M[ph0][thb0 + bq] = (2 * ub).conj()
        M[ph0 + 1][th0 + bq] = -(iI * 2 * ub)
        M[ph0 + 1][thb0 + bq] = (-(iI * 2 * ub)).conj()
        pw = lift(gr(0))
        for s in range(dim):
            for t in range(dim):
                cp = c.pi(s + 1, t + 1)
                if not cp.is_zero():
                    pw = pw + cp * U[s][bq] * r[t]
        M[ph0 + 2][th0 + bq] = -(2 * pw)
        M[ph0 + 2][thb0 + bq] = (-(2 * pw)).conj()
        M[ph0 + 3][th0 + bq] = iI * 2 * pw
        M[ph0 + 3][thb0 + bq] = (iI * 2 * pw).conj()
    return M


def g1_compose(x: G1Element, y: G1Element, c: StandardConstants) -> G1Element:
    """Closed composition law of the group."""
    n = c.n
    dim = 2 * n
    U = [[sum((x.U[a][s] * y.U[s][b] for s in range(dim)), gr(0))
          for b in range(dim)] for a in range(dim)]
    r = [sum((x.U[a][s] * y.r[s] for s in range(dim)), gr(0)) + x.r[a]
         for a in range(dim)]

    t1 = gr(0)  # U_{a b̄} ŷr^a conj(r^b)
    for al in range(dim):
        for be in range(dim):
            ul = _u_low(c, x.U, al, be)
            if not ul.is_zero():
                t1 = t1 + ul * y.r[al] * x.r[be].conj()
    t2 = gr(0)  # pi^{s̄}_a conj(U_{s b̄}) ŷr^a r^b
    for al in range(dim):
        for s in range(dim):
            cp = c.pi_ubar_l(s + 1, al + 1)
            if cp.is_zero():
                continue
            for be in range(dim):
                ul = _u_low(c, x.U, s, be)
                if not ul.is_zero():
                    t2 = t2 + cp * ul.conj() * y.r[al] * x.r[be]
    i2 = gr(0, 2)
    lam = [
        x.lam[0] + y.lam[0] + i2 * t1 + (i2 * t1).conj(),
        x.lam[1] + y.lam[1] + 2 * t2 + (2 * t2).conj(),
        x.lam[2] + y.lam[2] - i2 * t2 - (i2 * t2).conj(),
    ]
    return G1Element(U, r, lam)


def g1_inverse(x: G1Element, c: StandardConstants) -> G1Element:
    """A(U, r, lam)^{-1} = A(U', -U' r, -lam) with U' the g-adjoint
    inverse of U."""
    n = c.n
    dim = 2 * n
    Uinv = [[gr(c.diag[a]) * x.U[b][a].conj() * gr(c.diag[b])
             for b in range(dim)] for a in range(dim)]
    r = [-sum((Uinv[a][s] * x.r[s] for s in range(dim)), gr(0)) for a in range(dim)]
    return G1Element(Uinv, r, [-v for v in x.lam])


def g1_lie_matrix(n: int, c: StandardConstants, gam: IndexedTensor,
                  phi: List[GaussRational], psi: List[GaussRational]):
    """The algebra representation on the coframe: the derivative at the
    identity of the transformation family, parametrized by Gamma_{ab}
    (symmetric, j-invariant), phi^a, psi_s."""
    dim = 2 * n
    size = 4 * n + 7
    th0, thb0, ph0 = 3, 3 + dim, 3 + 2 * dim
    M = [[gr(0) for _ in range(size)] for _ in range(size)]
    iI = gr(0, 1)

    def phi_low(bq):
        # phi_b = g_{s̄ b} phi^s̄
        acc = gr(0)
        for s in range(dim):
            cg = c.g(bq + 1, s + 1)
            if not cg.is_zero():
                acc = acc + cg * phi[s].conj()
        return acc

    for a in range(dim):
        M[th0 + a][0] = -(iI * phi[a])
        acc = gr(0)
        for s in range(dim):
            cp = c.pi_u_lbar(a + 1, s + 1)
            if not cp.is_zero():
                acc = acc + cp * phi[s].conj()
        M[th0 + a][1] = -acc
        M[th0 + a][2] = -(iI * acc)
        M[thb0 + a][0] = iI * phi[a].conj()
        M[thb0 + a][1] = -acc.conj()
        M[thb0 + a][2] = iI * acc.conj()
        for bq in range(dim):
            g_ab = gr(0)
            for s in range(dim):
                cp = c.pi_up(a + 1, s + 1)
                if not cp.is_zero():
                    g_ab = g_ab + cp * gam.get(s + 1, bq + 1)
            M[th0 + a][th0 + bq] = -g_ab
            M[thb0 + a][thb0 + bq] = -g_ab.conj()
    for s in range(3):
        M[ph0][s] = -psi[s]
    M[ph0 + 1][1] = psi[2]
    M[ph0 + 1][2] = -psi[1]
    M[ph0 + 2][0] = -psi[2]
    M[ph0 + 2][2] = psi[0]
    M[ph0 + 3][0] = psi[1]
    M[ph0 + 3][1] = -psi[0]
    for bq in range(dim):
        pl = phi_low(bq)
        M[ph0][th0 + bq] = -2 * pl
        M[ph0][thb0 + bq] = -2 * pl.conj()
        M[ph0 + 1][th0 + bq] = iI * 2 * pl
        M[ph0 + 1][thb0 + bq] = -(iI * 2 * pl.conj())
        pp = gr(0)
        for s in range(dim):
            cp = c.pi(s + 1, bq + 1)
            if not cp.is_zero():
                pp = pp + cp * phi[s]
        M[ph0 + 2][th0 + bq] = -2 * pp
        M[ph0 + 2][thb0 + bq] = -2 * pp.conj()
        M[ph0 + 3][th0 + bq] = iI * 2 * pp
        M[ph0 + 3][thb0 + bq] = -(iI * 2 * pp.conj())
    return M


# ---------------------------------------------------------------------------
# parabolic subgroup matrices


def parabolic_member(a1: GaussRational, a2: GaussRational, U, r,
                     lam, c: StandardConstants):
    """The (2n+4)-square stabilizer matrix built from A in CSp(1), U in
    Sp(n), r in C^{2n} and three reals."""
    n = c.n
    dim = 2 * n
    det = a1 * a1.conj() + a2 * a2.conj()
    if det.is_zero():
        raise ValueError("CSp(1) block is singular")
    if not validate_spn(U, c):
        raise ValueError("U is not in Sp(n)")
    lam = [GaussRational.of(v) for v in lam]
    size = dim + 4
    M = [[gr(0) for _ in range(size)] for _ in range(size)]
    A = [[a1, -a2.conj()], [a2, a1.conj()]]
    for i in range(2):
        for j in range(2):
            M[i][j] = A[i][j]
            M[dim + 2 + i][dim + 2 + j] = A[i][j] / det

    # top-middle: -A (rows) x (U_{b s̄} r^s̄ ; U_{b t̄} pi^t̄_s r^s)
    for bq in range(dim):
        v1 = sum((_u_low(c, U, bq, s) * r[s].conj() for s in range(dim)), ZERO)
        v2 = gr(0)
        for t in range(dim):
            ul = _u_low(c, U, bq, t)
            if ul.is_zero():
                continue
            for s in range(dim):
                cp = c.pi_ubar_l(t + 1, s + 1)
                if not cp.is_zero():
                    v2 = v2 + ul * cp * r[s]
        for i in range(2):
            M[i][2 + bq] = -(A[i][0] * v1 + A[i][1] * v2)
    rr = _norm2(c, r)
    blk = [[-(rr / 2) + gr(0, 1) * lam[0], -lam[1] + gr(0, 1) * lam[2]],
           [lam[1] + gr(0, 1) * lam[2], -(rr / 2) - gr(0, 1) * lam[0]]]
    for i in range(2):
        for j in range(2):
            M[i][dim + 2 + j] = (A[i][0] * blk[0][j] + A[i][1] * blk[1][j])
    for a in range(dim):
        for bq in range(dim):
            M[2 + a][2 + bq] = U[a][bq]
        M[2 + a][dim + 2] = r[a]
        acc = gr(0)
        for s in range(dim):
            cp = c.pi_u_lbar(a + 1, s + 1)
            if not cp.is_zero():
                acc = acc + cp * r[s].conj()
        M[2 + a][dim + 3] = acc
    return M


def pairing_matrix(c: StandardConstants):
    """< basis_i, conj(basis_j) > in the order (v1, v2, e_a, w1, w2)."""
    n = c.n
    dim = 2 * n
    size = dim + 4
    H = [[gr(0) for _ in range(size)] for _ in range(size)]
    H[0][dim + 2] = gr(1)
    H[1][dim + 3] = gr(1)
    H[dim + 2][0] = gr(1)
    H[dim + 3][1] = gr(1)
    for a in range(dim):
        for bq in range(dim):
            H[2 + a][2 + bq] = c.g(a + 1, bq + 1)
    return H


def j2_matrix(c: StandardConstants):
    """J_2 as a map W -> conj(W) in basis coordinates."""
    n = c.n
    dim = 2 * n
    size = dim + 4
    J = [[gr(0) for _ in range(size)] for _ in range(size)]
    J[1][0] = gr(1)        # v1 -> conj(v2)
    J[0][1] = gr(-1)       # v2 -> -conj(v1)
    J[dim + 3][dim + 2] = gr(1)   # w1 -> conj(w2)
    J[dim + 2][dim + 3] = gr(-1)  # w2 -> -conj(w1)
    for a in range(dim):
        for bq in range(dim):
            cp = c.pi_ubar_l(bq + 1, a + 1)
            if not cp.is_zero():
                J[2 + bq][2 + a] = cp
    return J


def preserves_pairing(M, c: StandardConstants) -> bool:
    """M^T H conj(M) = H, i.e. <Mu, conj(Mv)> = <u, conj(v)>."""
    H = smat(pairing_matrix(c))
    Ms = smat(M)
    Mt = {(j, i): v for (i, j), v in Ms.items()}
    Mbar = {k: v.conj() for k, v in Ms.items()}
    return smat_mul(smat_mul(Mt, H), Mbar) == H


def commutes_with_j2(M, c: StandardConstants) -> bool:
    """J M = conj(M) J."""
    J = smat(j2_matrix(c))
    Ms = smat(M)
    return smat_mul(J, Ms) == smat_mul({k: v.conj() for k, v in Ms.items()}, J)


# ---------------------------------------------------------------------------
# Maurer-Cartan consistency of the flat rules with the matrix brackets


def maurer_cartan_check(n: int, signature: Tuple[int, int] = None) -> dict:
    """Extract the structure constants of the flat rule table and
    compare each against the negated matrix commutator coordinate."""
    from .rules import build_rules
    model = SpModel(n, signature)
    rules = build_rules(n, "flat", signature)
    ext = rules.ext
    # structure constants from the rules: (gi, gj) -> {key: coeff}
    from_rules: Dict[Tuple[int, int], Dict[Key, GaussRational]] = {}
    for key in model.keys:
        form = rules.gen_rules[ext.gid[key]]
        for mono, poly in form.terms.items():
            coeff = poly.terms.get((), gr(0))
            if coeff.is_zero():
                continue
            from_rules.setdefault(mono, {})[key] = coeff
    mismatches = 0
    pairs = 0
    for i, ki in enumerate(model.keys):
        for j in range(i + 1, model.dim):
            kj = model.keys[j]
            pairs += 1
            br = model.bracket(model.basis(ki), model.basis(kj))
            want = from_rules.get((i, j), {})
            for key in set(br.c) | set(want):
                if want.get(key, gr(0)) != -br.get(key):
                    mismatches += 1
    return {"n": n, "basis_pairs": pairs, "mismatches": mismatches}
