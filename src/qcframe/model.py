"""The matrix model sp(n+1,1): block template, brackets, Killing form,
graded dual frames, and the group of coframe transformations.

Matrices act on the 2n+4 dimensional space with basis ordered
(v1, v2, e_1..e_{2n}, w1, w2) and are stored sparsely as dicts
{(row, col): GaussRational}.  An element is described either by such a
matrix or by its coordinates (a LieCoord); the two are related by a
fixed block template, written once, as the table ``SpModel._template``.
``to_matrix`` evaluates it on one element.  ``SpModel._template_ints``
reads it into Gaussian integers once per model, in the matrices of
``linear``: the basis matrices in one pass over the table, and the
decoder, their left inverse, from one ``solve_many``.  ``from_matrix``
refuses anything off the template, so closure failures surface
immediately.

Every bracket goes through one structure-constant table, a ``linear``
matrix built on first use from the commutators of those integer basis
matrices; each basis pair is certified once against the template when
the table is built.  The table and ``from_matrix`` share one
decode-and-certify step (``SpModel._decode_ints``): two products, with
the decoder and with the basis matrices.  The Killing form is held as
two sparse Gram matrices: the ad-trace one, one product of the table
with its index-swapped copy, and the closed form with its printed
coefficients.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple

from .gauss import (HALF, I, ONE, ZERO, GaussRational, axpy, cleared, gr,
                    random_gauss_ints)
from .linear import (IntMatrix, SparseMat, commutator, int_matrix, product_into, smat,
                     smat_mul, solve_many, solve_square)
from .tensors import StandardConstants, IndexedTensor, slots
from . import coframe
from .coframe import Key

Terms = Tuple[Tuple[Key, GaussRational], ...]  # (coordinate key, coefficient)

# The scalar blocks of the sp(n+1,1) template, one position (row, column) a
# line, named as SpModel's attributes, with the terms summed there:
_SCALAR_BLOCKS: Tuple[Tuple[str, str, Terms], ...] = (
    ("v1", "v1", ((("phi0",), -HALF), (("phi", 1), -I * HALF))),
    ("v1", "v2", ((("phi", 2), -HALF), (("phi", 3), I * HALF))),
    ("v1", "w1", ((("psi", 1), I),)),
    ("v1", "w2", ((("psi", 2), ONE), (("psi", 3), -I))),
    ("v2", "v1", ((("phi", 2), HALF), (("phi", 3), I * HALF))),
    ("v2", "v2", ((("phi0",), -HALF), (("phi", 1), I * HALF))),
    ("v2", "w1", ((("psi", 2), -ONE), (("psi", 3), -I))),
    ("v2", "w2", ((("psi", 1), -I),)),
    ("w1", "v1", ((("eta", 1), I * HALF),)),
    ("w1", "v2", ((("eta", 2), HALF), (("eta", 3), -I * HALF))),
    ("w1", "w1", ((("phi0",), HALF), (("phi", 1), -I * HALF))),
    ("w1", "w2", ((("phi", 2), -HALF), (("phi", 3), I * HALF))),
    ("w2", "v1", ((("eta", 2), -HALF), (("eta", 3), -I * HALF))),
    ("w2", "v2", ((("eta", 1), -I * HALF),)),
    ("w2", "w1", ((("phi", 2), HALF), (("phi", 3), I * HALF))),
    ("w2", "w2", ((("phi0",), HALF), (("phi", 1), I * HALF))),
)


class TemplateError(ValueError):
    """Raised when the model's own data is inconsistent: a matrix off the
    sp(n+1,1) block template, linearly dependent basis matrices or a
    singular Killing pairing.  No input can cause it."""


class LieCoord:
    """Element of (complexified) sp(n+1,1) in coframe coordinates.

    ``c`` maps canonical keys (Gam keys with a <= b) to nonzero
    ``GaussRational``s.  ``set`` and ``get`` are the only places that
    canonicalize a key or coerce a value; every other operation reads
    and writes ``c`` directly and keeps the invariant.  Code outside this
    module sums into a fresh coordinate dict with ``gauss.axpy``, which
    keeps the invariant, and wraps it with ``LieCoord.adopt``."""

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

    def get(self, key: Key) -> GaussRational:
        if key[0] == "Gam":
            key = coframe.gam_key(key[1], key[2])
        return self.c.get(key, ZERO)

    def gam_bar(self, consts: StandardConstants, s: int, t: int) -> GaussRational:
        """The dependent barred coordinate Gamma_{s̄ t̄}."""
        coeff, key = coframe.gamma_bar(consts, s, t)
        return coeff * self.get(key)

    @classmethod
    def adopt(cls, n: int, coords: Dict[Key, GaussRational]) -> "LieCoord":
        """A LieCoord that takes over ``coords``, which must already hold
        canonical keys and no zero (as ``axpy`` leaves them)."""
        out = cls(n)
        out.c = coords
        return out

    def __add__(self, other: "LieCoord") -> "LieCoord":
        c = dict(self.c)
        axpy(c, ONE, other.c)
        return LieCoord.adopt(self.n, c)

    def __neg__(self) -> "LieCoord":
        return LieCoord.adopt(self.n, {k: -v for k, v in self.c.items()})

    def __sub__(self, other: "LieCoord") -> "LieCoord":
        return self + -other

    def scale(self, c) -> "LieCoord":
        c = GaussRational.of(c)
        if c.is_zero():
            return LieCoord(self.n)
        # Q(i) is a field: no product of nonzeros vanishes
        return LieCoord.adopt(self.n, {k: c * v for k, v in self.c.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieCoord):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def is_zero(self) -> bool:
        return not self.c

    def __repr__(self):
        parts = ", ".join(f"{coframe.label(k)}={v}" for k, v in sorted(
            self.c.items(), key=lambda kv: str(kv[0])))
        return f"LieCoord({parts or '0'})"


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
        self._tmpl = None
        self._ints = None
        self._sc = None
        self._gram = None
        self._closed = None
        self._frames = None
        self._dual_brackets = None

    def e(self, a: int) -> int:
        return 1 + a

    def basis(self, key: Key) -> LieCoord:
        return LieCoord(self.n, {key: gr(1)})

    # -- template ----------------------------------------------------------

    def _template(self) -> Tuple[Tuple[Tuple[int, int], Terms], ...]:
        """The block template as data, built once: each matrix position with
        its terms, in the order ``to_matrix`` emits them.  Off the scalar
        blocks the terms read one row of g, pi, pi^a_b̄ or pi^{ab}."""
        if self._tmpl is None:
            c, at, idx = self.consts, lambda r: getattr(self, r), range(1, 2 * self.n + 1)

            def terms(fam, barred, form, k, a) -> Terms:  # k sum_s form_{a s} x[fam, s, barred]
                row = c.row(form, a) if form else ((a, ONE),)
                return tuple(((fam, s, barred), k * v) for s, v in row)

            tmpl = [((at(r), at(co)), ts) for r, co, ts in _SCALAR_BLOCKS]
            for b in idx:  # rows v1..w2 at column e_b
                tmpl += [((at(r), self.e(b)), terms(*blk, b)) for r, *blk in (
                    ("v1", "phiU", True, "g", 2 * I), ("v2", "phiU", False, "pi", 2 * I),
                    ("w1", "theta", True, "g", I), ("w2", "theta", False, "pi", I))]
            for a in idx:  # row e_a at columns v1..w2 (form None: the identity), then e_b
                tmpl += [((self.e(a), at(co)), terms(*blk, a)) for co, *blk in (
                    ("v1", "theta", False, None, I), ("v2", "theta", True, "pi_u_lbar", -I),
                    ("w1", "phiU", False, None, 2 * I), ("w2", "phiU", True, "pi_u_lbar", -2 * I))]
                tmpl += [((self.e(a), self.e(b)), tuple(
                    (coframe.gam_key(s, b), v) for s, v in c.row("pi_up", a))) for b in idx]
            self._tmpl = tuple(tmpl)
        return self._tmpl

    def to_matrix(self, x: LieCoord) -> SparseMat:
        """The template matrix of x: each position's terms summed over x.c."""
        c, M = x.c, {}
        for pos, ts in self._template():
            val = None
            for key, coeff in ts:
                if key in c:
                    val = coeff * c[key] if val is None else val + coeff * c[key]
            if val is not None and not val.is_zero():
                M[pos] = val
        return M

    def _template_ints(self):
        """The template read once into Gaussian integers, as ``int_matrix``
        stores a matrix: ``(D, basis, E, dec)``.  Row k of ``basis`` is
        basis matrix k over D at the positions r m + co, in one pass over
        ``_template()``, the terms of a key at one position summed.  Row
        r m + co of ``dec`` holds the coordinates (k, (re, im)) over E
        that read that position: the decoder, the basis matrices' left
        inverse, whose row k solves <B_j, L_k> = delta_jk over the
        positions, all ``dim`` rows from one ``solve_many``.
        ``TemplateError`` if the basis matrices are linearly dependent."""
        if self._ints is None:
            m, index = self.m, self.key_index
            mats: List[Dict[int, GaussRational]] = [{} for _ in self.keys]
            for (r, co), ts in self._template():
                p = r * m + co
                for key, coeff in ts:
                    mat = mats[index[key]]
                    mat[p] = mat[p] + coeff if p in mat else coeff
            D, basis = int_matrix({(k, p): v for k, mat in enumerate(mats) for p, v in mat.items()})
            new = GaussRational.from_ints
            rows = [({p: new(re, im, D) for p, (re, im) in basis.get(j, ())}, {j: ONE})
                    for j in range(self.dim)]
            try:
                sols, rank = solve_many(rows, self.dim)
            except ValueError:
                rank = -1
            if rank < self.dim:
                raise TemplateError("the sp(n+1,1) basis matrices are linearly dependent")
            E, dec = int_matrix({(p, k): v for k, sol in enumerate(sols) for p, v in sol.items()})
            self._ints = (D, basis, E, dec)
        return self._ints

    def _decode_ints(self, want: Dict[int, Tuple[int, int]]) -> Dict[int, Tuple[int, int]]:
        """The coordinates x (index -> (re, im), indices ascending, zeros
        dropped) of the Gaussian-integer matrix whose nonzero entries are
        ``want`` (position r m + co -> (re, im)), over E times its
        denominator: one product with the decoder.  Certified by re-encoding,
        one product of x with the basis matrices; ``TemplateError`` if the
        matrix is off the template."""
        D, basis, E, dec = self._template_ints()
        acc: Dict[int, Dict[int, List[int]]] = {}
        product_into(acc, {0: want.items()}, dec)
        row = acc.get(0, {})
        x = {k: (re, im) for k in sorted(row) for re, im in (row[k],) if re or im}
        back: Dict[int, Dict[int, List[int]]] = {}
        product_into(back, {0: x.items()}, basis)
        # back is over D E times want's denominator: its nonzero entries
        # must be those of want, each times D E
        f, count = D * E, 0
        for p, (re, im) in back.get(0, {}).items():
            if re or im:
                v = want.get(p)
                if v is None or re != v[0] * f or im != v[1] * f:
                    break
                count += 1
        else:
            if count == len(want):
                return x
        raise TemplateError("matrix is off the sp(n+1,1) block template")

    def from_matrix(self, M: SparseMat) -> LieCoord:
        """The coordinates of M; ``TemplateError`` if M is off the template."""
        den, ints = cleared(M.values())
        m = self.m
        x = self._decode_ints({r * m + co: v for (r, co), v in zip(M, ints) if v[0] or v[1]})
        den *= self._template_ints()[2]  # the decoder's denominator E
        keys, new = self.keys, GaussRational.from_ints
        return LieCoord.adopt(self.n, {keys[k]: new(re, im, den) for k, (re, im) in x.items()})

    # -- structure constants, bracket and grading ------------------------------

    def structure_constants(self) -> IntMatrix:
        """The table ``(scale, rows)`` as ``int_matrix`` stores it: row i
        holds the entries (j dim + k, (re, im)), j and then k ascending,
        with [B_i, B_j] = sum_k ((re + i im) / scale) B_k.

        Built on first use from the basis matrix commutators, all in
        Gaussian integers over D^2 E (D and E the denominators of the basis
        matrices and the decoder): each pair i < j with a nonzero
        commutator is decoded and certified by re-encoding
        (``TemplateError`` if the commutator is off the template); (j, i)
        is the negation.  ``int_matrix`` reduces the table, which leaves
        the scale the lowest common denominator of the coefficients."""
        if self._sc is None:
            D, basis, E, _ = self._template_ints()
            m, dim = self.m, self.dim
            # the basis matrices by rows: mats[k] maps row r of basis matrix
            # k to its entries (co, (re, im)) over D
            mats: List[Dict[int, List]] = [{} for _ in range(dim)]
            for k, row in basis.items():
                mat = mats[k]
                for p, v in row:
                    r, co = divmod(p, m)
                    mat.setdefault(r, []).append((co, v))
            # a b is zero unless a column of a meets a row of b
            cols = [frozenset(co for row in a.values() for co, _ in row) for a in mats]
            # pairs in ascending order: each row's entries land j ascending
            entries: Dict[Tuple[int, int], Tuple[int, int]] = {}
            for i, a in enumerate(mats):
                for j in range(i + 1, dim):
                    b = mats[j]
                    if cols[i].isdisjoint(b) and cols[j].isdisjoint(a):
                        continue
                    want = {r * m + co: v for r, row in commutator(a, b).items()
                            for co, v in row.items() if v[0] or v[1]}
                    if want:  # a zero commutator has nothing to certify
                        for k, (re, im) in self._decode_ints(want).items():
                            entries[i, j * dim + k] = re, im
                            entries[j, i * dim + k] = -re, -im
            self._sc = int_matrix(entries, D * D * E)
        return self._sc

    def bracket(self, a: LieCoord, b: LieCoord) -> LieCoord:
        """[a, b]: the one-pair case of ``bracket_sum``."""
        return LieCoord.adopt(self.n, self.bracket_sum(((a.c, b.c, 1),)))

    def bracket_sum(self, terms: Iterable[Tuple[Dict[Key, GaussRational],
                                                Dict[Key, GaussRational], int]]
                    ) -> Dict[Key, GaussRational]:
        """The coordinates of sum w [x, y] over the triples (x, y, w) of
        ``terms``: x and y coordinate dicts, which are only read, and w an
        integer.  Each argument is cleared to Gaussian integers over its
        own denominator, everything is summed through the structure-constant
        table in Python integers over one common denominator, and each
        nonzero coordinate is divided once."""
        scale, rows = self.structure_constants()
        index, dim = self.key_index, self.dim
        parts = []
        for x, y, w in terms:
            if w and x and y:
                dx, xa = cleared(x.values())
                dy, yb = cleared(y.values())
                yv = [None] * dim  # y by coordinate index
                for k, b in zip(y, yb):
                    yv[index[k]] = b
                parts.append((w, dx * dy, x, xa, yv))
        den = lcm(*(dxy for _, dxy, _, _, _ in parts))
        acc_re, acc_im = [0] * dim, [0] * dim
        for w, dxy, x, xa, yv in parts:
            f = w * (den // dxy)
            for key, (ar, ai) in zip(x, xa):
                if f != 1:
                    ar, ai = ar * f, ai * f
                for pos, (cr, ci) in rows.get(index[key], ()):
                    j, k = divmod(pos, dim)
                    b = yv[j]
                    if b:
                        br, bi = b
                        pr, pi = ar * br - ai * bi, ar * bi + ai * br
                        acc_re[k] += pr * cr - pi * ci
                        acc_im[k] += pr * ci + pi * cr
        den *= scale
        keys = self.keys
        return {keys[k]: GaussRational.from_ints(re, im, den)
                for k, (re, im) in enumerate(zip(acc_re, acc_im)) if re or im}

    # the old name, kept while bench/tracing.py wraps it
    bracket_fast = bracket

    # -- Killing form ----------------------------------------------------------

    def killing_gram(self) -> Dict[Tuple[int, int], GaussRational]:
        """Exact Gram matrix B(e_i, e_j) = trace(ad e_i . ad e_j) = sum over
        k, l of c_ik^l c_jl^k: one product of the structure-constant table
        with its index-swapped copy, whose row l dim + k holds (j, c_jk^l),
        divided by scale^2."""
        if self._gram is None:
            scale, rows = self.structure_constants()
            dim = self.dim
            swapped: Dict[int, list] = {}
            for j, row in rows.items():
                for pos, v in row:
                    k, l = divmod(pos, dim)
                    swapped.setdefault(l * dim + k, []).append((j, v))
            acc: Dict[int, Dict[int, List[int]]] = {}
            product_into(acc, rows, swapped)
            den, new = scale * scale, GaussRational.from_ints
            gram: Dict[Tuple[int, int], GaussRational] = {}
            for i in range(dim):
                out = acc.get(i, {})
                for j in sorted(out):
                    re, im = out[j]
                    if j >= i and (re or im):
                        gram[(i, j)] = gram[(j, i)] = new(re, im, den)
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
            try:
                inv = solve_square(rows, ident)
            except ValueError as ex:  # the Gram is the model's, never input
                raise TemplateError(f"Killing pairing: {ex}") from None
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

    def dual_brackets(self) -> Dict[Key, List[Tuple[LieCoord, Key, LieCoord]]]:
        """For every g_- basis key a: the triples (hat, b, [hat, e_a]_-)
        over the dual pairs (Ehat_s, E_s), (Zhat^c, Z_c), (Zhat^c̄, Z_c̄),
        where [.]_- is the g_- part.  They do not depend on the cochain, so
        the Kostant codifferential reads them from here; built on first use."""
        if self._dual_brackets is None:
            fr, n = self.dual_frames(), self.n
            pairs = ([(fr["Ehat"][s], ("eta", s + 1)) for s in range(3)]
                     + [(fr["Zhat"][a - 1], ("theta", a, False)) for a in range(1, 2 * n + 1)]
                     + [(fr["Zhatbar"][a - 1], ("theta", a, True)) for a in range(1, 2 * n + 1)])
            out = {}
            for ka in self.keys:
                if coframe.grade(ka) < 0:
                    a = self.basis(ka)
                    out[ka] = [(hat, kb, LieCoord(n, {
                        k: v for k, v in self.bracket(hat, a).c.items()
                        if coframe.grade(k) < 0})) for hat, kb in pairs]
            self._dual_brackets = out
        return self._dual_brackets

    def dual_frames_published(self) -> dict:
        """Dual frames taken against the closed-form expression with its
        literal coefficients; a calibration artifact only.  These frames
        reproduce the quoted pairings -1/(4n+6) and -1/(4(2n+7))."""
        return self._frames_for(self.killing_closed_gram())


# ---------------------------------------------------------------------------
# Jacobi / grading sweeps


def random_coord(rng: random.Random, model: SpModel) -> LieCoord:
    """Every coordinate from ``random_gauss_ints``, in ``model.keys`` order:
    numerators in -4..4, denominators up to 2."""
    L, ints = random_gauss_ints(rng, 4, 2, model.dim)
    new = GaussRational.from_ints
    return LieCoord.adopt(model.n, {k: new(re, im, L) for k, (re, im) in zip(model.keys, ints)
                                    if re or im})


def jacobi_residual(model: SpModel, a: LieCoord, b: LieCoord, c: LieCoord) -> LieCoord:
    """[[a, b], c] + [[b, c], a] + [[c, a], b], the outer three brackets
    summed in one ``bracket_sum``."""
    ab, bc, ca = model.bracket(a, b), model.bracket(b, c), model.bracket(c, a)
    return LieCoord.adopt(model.n, model.bracket_sum(
        ((ab.c, c.c, 1), (bc.c, a.c, 1), (ca.c, b.c, 1))))


def grading_check(model: SpModel) -> bool:
    """[g_i, g_j] lies in g_{i+j} for every pair of basis elements: a scan
    of the structure-constant table."""
    grades, dim = [coframe.grade(k) for k in model.keys], model.dim
    _, rows = model.structure_constants()
    return all(grades[k] == grades[i] + grades[j]
               for i, row in rows.items() for pos, _ in row for j, k in (divmod(pos, dim),))


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
        self.lam = [v if w is None else w
                    for v in lam for w in (GaussRational._coerce(v),)]

    @staticmethod
    def identity(n: int) -> "G1Element":
        U = [[gr(1 if i == j else 0) for j in range(2 * n)] for i in range(2 * n)]
        return G1Element(U, [gr(0)] * 2 * n, [gr(0)] * 3)

    def __eq__(self, other):
        if not isinstance(other, G1Element):
            return NotImplemented
        return (self.U == other.U and self.r == other.r and self.lam == other.lam)


def _times(p, q) -> List[Tuple[int, int]]:
    """The entrywise product of two lists of Gaussian integers."""
    return [(pr * qr - pi * qi, pr * qi + pi * qr) for (pr, pi), (qr, qi) in zip(p, q)]


def _conj(p) -> List[Tuple[int, int]]:
    return [(re, -im) for re, im in p]


def _dot(p, q) -> Tuple[int, int]:
    """sum p_s q_s over two lists of Gaussian integers."""
    re = im = 0
    for (pr, pi), (qr, qi) in zip(p, q):
        re += pr * qr - pi * qi
        im += pr * qi + pi * qr
    return re, im


def validate_spn(U, c: StandardConstants) -> bool:
    """Both defining identities of Sp(n): g_{st̄} U^s_a conj(U^t_b) =
    g_{ab̄} and pi_{st} U^s_a U^t_b = pi_{ab}.

    U is cleared once to Gaussian integers over its lcm D, and both sums
    are taken in Python integers: g is diagonal and pi_{st} is nonzero
    only for the partner t of s, so each sum has 2n terms.  The sums are
    compared with g D^2 and pi D^2."""
    dim = 2 * c.n
    rng = range(1, dim + 1)
    du, flat = cleared([U[s][a] for a in range(dim) for s in range(dim)])
    cols = [flat[a * dim:(a + 1) * dim] for a in range(dim)]  # cols[a][s] = U^s_a
    dg, g = cleared([c.g(s, s) for s in rng])
    dp, pi = cleared([c.pi(s, c.partner(s)) for s in rng])
    conj = [_conj(col) for col in cols]
    partner = [[col[c.partner(s) - 1] for s in rng] for col in cols]
    gsums, psums = [], []  # over dg D^2 and dp D^2, in the order (a, b)
    for col in cols:
        ga, pa = _times(g, col), _times(pi, col)  # g_{s s̄} U^s_a, pi_{s s'} U^s_a
        gsums += [_dot(ga, cb) for cb in conj]
        psums += [_dot(pa, pb) for pb in partner]
    for sums, form, den in ((gsums, c.g, dg), (psums, c.pi, dp)):
        dw, want = cleared([form(a, b) for a in rng for b in rng])
        scale = den * du * du
        if ([(re * dw, im * dw) for re, im in sums]
                != [(wr * scale, wi * scale) for wr, wi in want]):
            return False
    return True


def random_spn(rng: random.Random, c: StandardConstants):
    """Exact random Sp(n) element via the Cayley transform of a random
    algebra element built from a symmetric j-invariant array, its entries
    drawn with numerators in -3..3."""
    from .tensors import random_tensor, symmetrize, j_average
    n = c.n
    dim = 2 * n
    while True:
        y = j_average(symmetrize(random_tensor(rng, n, slots("ll"), 3)), c)
        x = [[ZERO] * dim for _ in range(dim)]
        for (s, b), val in y.full().entries.items():
            for a in range(1, dim + 1):
                coeff = c.pi_up(a, s)
                if not coeff.is_zero():
                    x[a - 1][b - 1] = x[a - 1][b - 1] + coeff * val
        # U = (I - X)^{-1} (I + X); draw again when I - X is singular
        try:
            U = solve_square([[(ONE if i == j else ZERO) - x[i][j] for j in range(dim)]
                              for i in range(dim)],
                             [[(ONE if i == j else ZERO) + x[i][j] for j in range(dim)]
                              for i in range(dim)])
        except ValueError:
            continue
        if validate_spn(U, c):
            return U
        raise AssertionError("Cayley transform left Sp(n); algebra element invalid")


def random_g1(rng: random.Random, c: StandardConstants) -> G1Element:
    """r and the real lam with numerators in -3..3 over 1 or 2, then U by ``random_spn``."""
    n = c.n
    new = GaussRational.from_ints
    L, ints = random_gauss_ints(rng, 3, 2, 2 * n)
    r = [new(re, im, L) for re, im in ints]
    L, ints = random_gauss_ints(rng, 3, 2, 3, real=True)
    lam = [new(re, 0, L) for re, _ in ints]
    return G1Element(random_spn(rng, c), r, lam)


def _u_low(c: StandardConstants, U, b: int, s: int):
    """U_{b s̄} = g_{a s̄} U^a_b: one term, because g is diagonal."""
    return c.g(s + 1, s + 1) * U[s][b]


def _norm2(c: StandardConstants, r):
    """r_s r^s = g_{t̄ s} conj(r^t) r^s."""
    return sum((c.g(s + 1, s + 1) * r[s].conj() * r[s] for s in range(len(r))), ZERO)


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
    zero, one = lift(ZERO), lift(ONE)
    M = [[zero] * size for _ in range(size)]
    for s in range(3):
        M[s][s] = one
    for s in range(4):
        M[ph0 + s][ph0 + s] = one
    # pi and its mixed forms are nonzero only at (s, partner of s)
    part = [c.partner(s + 1) - 1 for s in range(dim)]

    rr = _norm2(c, r)
    for a in range(dim):
        # theta^a row
        M[th0 + a][0] = I * r[a]
        acc = c.pi_u_lbar(a + 1, part[a] + 1) * r[part[a]].conj()
        M[th0 + a][1] = acc
        M[th0 + a][2] = I * acc
        for bq in range(dim):
            M[th0 + a][th0 + bq] = U[a][bq]
        # theta^ā row (conjugate)
        M[thb0 + a][0] = -(I * r[a].conj())
        M[thb0 + a][1] = acc.conj()
        M[thb0 + a][2] = -(I * acc.conj())
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
        M[ph0 + 1][th0 + bq] = -(I * 2 * ub)
        M[ph0 + 1][thb0 + bq] = (-(I * 2 * ub)).conj()
        pw = sum((c.pi(s + 1, t + 1) * U[s][bq] * r[t] for s, t in enumerate(part)), zero)
        M[ph0 + 2][th0 + bq] = -(2 * pw)
        M[ph0 + 2][thb0 + bq] = (-(2 * pw)).conj()
        M[ph0 + 3][th0 + bq] = I * 2 * pw
        M[ph0 + 3][thb0 + bq] = (I * 2 * pw).conj()
    return M


def g1_compose(x: G1Element, y: G1Element, c: StandardConstants) -> G1Element:
    """Closed composition law of the group.  Each part of x and y is
    cleared to Gaussian integers over its own lcm, every sum is taken in
    Python integers, and each output entry is divided once."""
    dim = 2 * c.n
    idx, rng = range(dim), range(1, dim + 1)
    new = GaussRational.from_ints
    dxu, xu = cleared([x.U[a][s] for a in idx for s in idx])
    dyu, yu = cleared([y.U[s][b] for b in idx for s in idx])
    xrows = [xu[a * dim:(a + 1) * dim] for a in idx]  # xrows[a][s] = x.U^a_s
    ycols = [yu[b * dim:(b + 1) * dim] for b in idx]  # ycols[b][s] = y.U^s_b
    dxr, xr = cleared(x.r)
    dyr, yr = cleared(y.r)
    dl, lam = cleared(x.lam + y.lam)
    dg, g = cleared([c.g(s, s) for s in rng])
    dp, cp = cleared([c.pi_ubar_l(s, c.partner(s)) for s in rng])

    U = [[new(*_dot(row, col), dxu * dyu) for col in ycols] for row in xrows]
    fr = dxu * dyr
    r = []
    for row, (ar, ai) in zip(xrows, xr):
        re, im = _dot(row, yr)
        r.append(new(re * dxr + ar * fr, im * dxr + ai * fr, fr * dxr))
    # u_s = U_{t s̄} conj(x.r^t) = g_{t t̄} x.U^t_s conj(x.r^t), over dg dxu dxr
    w = _times(g, _conj(xr))
    u = [_dot([row[s] for row in xrows], w) for s in idx]
    # t1 = U_{a b̄} y.r^a conj(x.r^b) = y.r^a u_a, over T1 = dg dxu dxr dyr;
    # t2 = pi^{s̄}_a conj(U_{s b̄}) y.r^a x.r^b = pi^{s̄}_{s'} y.r^{s'} conj(u_s),
    # s' the partner of s, over dp T1
    t1r, t1i = _dot(yr, u)
    t2r, t2i = _dot(_times(cp, [yr[c.partner(s) - 1] for s in rng]), _conj(u))
    t1 = dg * dxu * dxr * dyr
    t2 = dp * t1
    # lam_k = x.lam_k + y.lam_k + (-4 Im t1, 4 Re t2, 4 Im t2)_k
    lam_out = []
    for k, (extra, den) in enumerate(((-4 * t1i, t1), (4 * t2r, t2), (4 * t2i, t2))):
        (ar, ai), (br, bi) = lam[k], lam[k + 3]
        lam_out.append(new((ar + br) * den + extra * dl, (ai + bi) * den, dl * den))
    return G1Element(U, r, lam_out)


def g1_inverse(x: G1Element, c: StandardConstants) -> G1Element:
    """A(U, r, lam)^{-1} = A(U', -U' r, -lam) with U' the g-adjoint
    inverse of U, U'^a_b = g_{a ā} conj(U^b_a) g_{b b̄}; summed in
    Python integers and each entry divided once."""
    dim = 2 * c.n
    idx, rng = range(dim), range(1, dim + 1)
    new = GaussRational.from_ints
    dxu, xu = cleared([x.U[b][a] for a in idx for b in idx])
    dxr, xr = cleared(x.r)
    dg, g = cleared([c.g(s, s) for s in rng])
    den = dg * dg * dxu
    # rows[a][b] = g_{a ā} g_{b b̄} conj(U^b_a)
    rows = [_times(_times([ga] * dim, g), _conj(xu[a * dim:(a + 1) * dim]))
            for a, ga in enumerate(g)]
    Uinv = [[new(re, im, den) for re, im in row] for row in rows]
    r = [new(*(-v for v in _dot(row, xr)), den * dxr) for row in rows]
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

    def phi_low(bq):
        # phi_b = g_{s̄ b} phi^s̄
        acc = gr(0)
        for s in range(dim):
            cg = c.g(bq + 1, s + 1)
            if not cg.is_zero():
                acc = acc + cg * phi[s].conj()
        return acc

    for a in range(dim):
        M[th0 + a][0] = -(I * phi[a])
        acc = gr(0)
        for s in range(dim):
            cp = c.pi_u_lbar(a + 1, s + 1)
            if not cp.is_zero():
                acc = acc + cp * phi[s].conj()
        M[th0 + a][1] = -acc
        M[th0 + a][2] = -(I * acc)
        M[thb0 + a][0] = I * phi[a].conj()
        M[thb0 + a][1] = -acc.conj()
        M[thb0 + a][2] = I * acc.conj()
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
        M[ph0 + 1][th0 + bq] = I * 2 * pl
        M[ph0 + 1][thb0 + bq] = -(I * 2 * pl.conj())
        pp = gr(0)
        for s in range(dim):
            cp = c.pi(s + 1, bq + 1)
            if not cp.is_zero():
                pp = pp + cp * phi[s]
        M[ph0 + 2][th0 + bq] = -2 * pp
        M[ph0 + 2][thb0 + bq] = -2 * pp.conj()
        M[ph0 + 3][th0 + bq] = I * 2 * pp
        M[ph0 + 3][thb0 + bq] = -(I * 2 * pp.conj())
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
    blk = [[-(rr / 2) + I * lam[0], -lam[1] + I * lam[2]],
           [lam[1] + I * lam[2], -(rr / 2) - I * lam[0]]]
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
    from_rules: Dict[int, Dict[Key, GaussRational]] = {}
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
            want = from_rules.get(1 << i | 1 << j, {})
            for key in set(br.c) | set(want):
                if want.get(key, gr(0)) != -br.get(key):
                    mismatches += 1
    return {"n": n, "basis_pairs": pairs, "mismatches": mismatches}
