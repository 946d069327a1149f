"""Canonical-form exterior algebra: the one sparse graded-algebra kernel.

A Form is a sum of wedge monomials in the generators of an alphabet
with coefficients that are polynomials (Poly) in named scalar symbols
over the Gaussian rationals.  Two alphabets use it:

* the coframe generators of :mod:`qcframe.coframe` (an Exterior), with
  curvature components and their first-derivative families as symbols;
* the seven coordinate differentials of the flat chart in
  :mod:`qcframe.heisenberg`, with the coordinates as symbols (a power
  is a repeated symbol).

Everything is kept in a canonical shape at all times:

* a wedge monomial is one int, the bitmask with bit g for generator g, so
  its generators are always in the alphabet's order; the sign of the
  permutation that sorts a product is absorbed into the coefficient;
* symbol monomials are sorted tuples of symbols;
* symbols of totally symmetric families store sorted index tuples;
* conjugates of j-real families (S, L) and of the real scalar R are
  rewritten into unconjugated symbols at construction, so each scalar
  function has exactly one name.

Zero detection is therefore trivial: a form is zero iff it has no terms.
Every operation reads and writes generator monomials as masks: a product
r ^ x is zero if ``r & x``, is ``r | x`` otherwise, and its sign is the
parity of the pairs (a generator of r, a smaller one of x) (``_crossings``);
``_gens`` spells a mask out as generator indices where a loop or the text
form needs them.

Every product and every sum of many pieces is written into one fresh
local accumulator, a dict keyed by generator mask and then by symbol
monomial that holds the GaussRational coefficient (``Acc``).  Two
functions fill it in place: ``gauss.axpy`` adds a multiple of a
coefficient dict and ``_mul_into`` the product of two; ``from_acc`` wraps
the finished accumulator, empty buckets dropped, as a Form.
``Poly.__mul__``, ``Form.wedge`` and ``Form.interior`` run on them
(``Form.conj`` maps term to term and needs none), and the rule builders of
:mod:`qcframe.rules` sum through ``addmul`` (add form * polynomial *
scalar).  ``+`` always returns a new object that shares the untouched
coefficients, because rule-table forms, generator forms and one-symbol
polynomials are shared: an Exterior interns the last two, so none of them
is ever modified in place.

``differential`` sums in Gaussian integers instead.  It reads each rule
as a ``View``, which a DRuleSet builds on first use and keeps: its
lcm denominator (``gauss.cleared``) and one flat integer tuple per term,
``(rmask, rk, m, re, im)``: the generator mask as it is, the term's cell
key ``rk = m << len(labels) | rmask``, the id ``m`` of its symbol monomial
in the rule set's intern table and the coefficient's real and imaginary
parts over the denominator.  The terms of one generator mask (a row) are
contiguous, in the rule Form's order.  A generator rule is kept as a
Form too; a symbol rule only as its view, the Form the builder made for
it dropped once cleared, and decoded again when asked for.  The view of
a conjugated symbol is made from the view of the symbol, in integers:
conjugation relabels generators and symbols by units +1 or -1, so each
term maps to one term and each (re, im) to +-(re, -im) over the same
denominator.  The form ``differential`` is given is cleared, each
polynomial coefficient over its own lcm, on entry; every product is
added in place to an integer cell ``[re, im]`` over one common
denominator, in one dict keyed by one int, ``id << len(labels) | mask``
(``Cells``, ``_rule_into``), which a product with an empty symbol
monomial gets by or'ing the rule term's ``rk`` with the key of x's term;
and each cell that does not cancel becomes one GaussRational at the end,
grouped by generator mask in the order the cells were made: no
GaussRational, no gcd and no tuple built per product.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .gauss import ONE, GaussRational, axpy, cleared
from .tensors import StandardConstants
from . import coframe

# family -> (arity, totally symmetric, j-real, real scalar)
FAMILIES: Dict[str, Tuple[int, bool, bool, bool]] = {
    "S": (4, True, True, False),
    "V": (3, True, False, False),
    "L": (2, True, True, False),
    "M": (2, True, False, False),
    "C": (1, False, False, False),
    "H": (1, False, False, False),
    "P": (0, False, False, False),
    "Q": (0, False, False, False),
    "R": (0, False, False, True),
    # first-derivative families, namespaced with a leading "s"
    "sA": (5, True, False, False),
    "sB": (4, True, False, False),
    "sC": (4, True, False, False),
    "sD": (3, True, False, False),
    "sE": (3, True, False, False),
    "sF": (3, True, False, False),
    "sG": (2, True, False, False),
    "sX": (2, True, False, False),
    "sY": (2, True, False, False),
    "sZ": (2, True, False, False),
    "sN1": (1, False, False, False),
    "sN2": (1, False, False, False),
    "sN3": (1, False, False, False),
    "sN4": (1, False, False, False),
    "sN5": (1, False, False, False),
    "sU1": (0, False, False, False),
    "sU2": (0, False, False, False),
    "sU3": (0, False, False, False),
    "sW1": (0, False, False, False),
    "sW2": (0, False, False, False),
    "sW3": (0, False, False, False),
    # deliberately unsymmetrized families, used only by negative controls
    "Vns": (3, False, False, False),
    "Sns": (4, False, False, False),
}

CURVATURE_FAMILIES = ("S", "V", "L", "M", "C", "H", "P", "Q", "R")
# each negative-control family stands for the curvature family it fails
# to canonicalize: it follows that family's rules and reads its array
CONTROL_FAMILIES = {"Vns": "V", "Sns": "S"}


def _sorted_if_symmetric(family: str, idx: Tuple[int, ...]) -> Tuple[int, ...]:
    """idx sorted if ``family`` is a known totally symmetric family, else
    as it is."""
    spec = FAMILIES.get(family)
    return tuple(sorted(idx)) if spec is not None and spec[1] else idx


class Sym(NamedTuple):
    family: str
    idx: Tuple[int, ...]
    conj: bool

    def __repr__(self):
        bar = "~" if self.conj else ""
        ix = "".join(str(i) for i in self.idx)
        return f"{bar}{self.family}{ix}"


Mono = Tuple[Sym, ...]
Terms = Dict[Mono, GaussRational]  # the coefficients of one Poly
Acc = Dict[int, Terms]  # generator mask -> its coefficients
# one term of a rule in Gaussian integers over a denominator known to the
# caller: (rmask, rk, m, re, im), its generator mask, its cell key
# m << len(labels) | rmask, the id of its symbol monomial (interned by the
# DRuleSet) and the real and imaginary parts
ViewTerm = Tuple[int, int, int, int, int]
View = Tuple[int, Tuple[ViewTerm, ...]]  # (lcm denominator, terms), a row contiguous
# the terms differential sums: id << len(labels) | mask, for a symbol
# monomial id and a generator mask, -> [re, im], zeros kept
Cells = Dict[int, List[int]]


def _mul_into(out: Terms, t1: Terms, t2: Terms, neg: bool = False) -> None:
    """out += t1 * t2 (-t1 * t2 if neg) in place, dropping what cancels.
    The product of two nonzero coefficients is nonzero, so a new entry
    never needs a zero test; the shared ``ONE`` (the coefficient of an
    interned generator form or symbol) multiplies nothing."""
    for m1, c1 in t1.items():
        if neg:
            c1 = -c1
        for m2, c2 in t2.items():
            # a sorted monomial times the empty one is already sorted
            m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 + m2
            c = c2 if c1 is ONE else c1 * c2
            cur = out.get(m)
            if cur is None:
                out[m] = c
            else:
                c = cur + c
                if c.is_zero():
                    del out[m]
                else:
                    out[m] = c


def _rule_into(acc: Cells, t1: List[Tuple[int, int, int]], terms: Tuple[ViewTerm, ...],
               xmask: int, i: int, f: int, product: Callable[[int, int], int],
               shift: int) -> None:
    """acc += f * (-1)^(i (1 + |r|)) * (r ^ x) * t1, summed over the terms
    r of a rule's view, in place on Gaussian-integer cells: x is the
    generator monomial ``xmask`` and t1 holds its (symbol monomial id, re,
    im) triples; ``product`` gives the id of the product of two nonempty
    symbol monomials.  A term's cell is keyed by ``id << shift | mask``,
    ``shift`` the number of generators, so a product with an empty
    monomial (id 0) is keyed by or'ing the rule term's key ``rk`` with
    ``m1 << shift | xmask``.  Nothing is reduced and a cell that cancels
    stays, so each product is four integer products and two sums.

    r ^ x is r | x unless they share a generator, and its sign is the
    parity of the pairs (a generator of r, a smaller one of x).  The curved
    d^2 only places terms against one generator h of x (or none), and a
    symbol rule's one-generator terms against x, so both take one bit
    count: the generators of r above h, or those of x below the one of r.

    With several terms in t1 the terms of each rule row (one generator
    mask, contiguous in the view) are walked with t1 outside, so cells are
    made row by row, and within a row term of t1 by term of t1."""
    if len(t1) > 1:
        for rmask, row in groupby(terms, itemgetter(0)):
            if rmask & xmask:
                continue
            mask = rmask | xmask
            neg = (_crossings(rmask, xmask) + (i & 1) * (1 + rmask.bit_count())) & 1
            g = -f if neg else f
            row = tuple(row)
            for m1, a1, b1 in t1:
                a1, b1 = a1 * g, b1 * g
                base = m1 << shift | xmask
                for _, rk, m2, a2, b2 in row:
                    # id 0 is the empty monomial, the unit of the product
                    key = product(m1, m2) << shift | mask if m1 and m2 else rk | base
                    re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                    cell = acc.get(key)
                    if cell is None:
                        acc[key] = [re, im]
                    else:
                        cell[0] += re
                        cell[1] += im
        return
    (m1, a1, b1), = t1
    fa, fb = f * a1, f * b1
    base = m1 << shift | xmask
    one = not xmask & (xmask - 1)
    if one:
        # with i odd, (-1)^(1 + |r|) turns the count of the generators of
        # r above h into that of those below h, flipped
        sel, flip = (xmask - 1, 1) if i & 1 else (~((xmask << 1) - 1), 0)
    for rmask, rk, m2, a2, b2 in terms:
        if rmask & xmask:
            continue
        if one:
            neg = ((rmask & sel).bit_count() & 1) ^ flip
        elif not rmask & (rmask - 1):
            # |r| = 1, so i adds no sign
            neg = (xmask & (rmask - 1)).bit_count() & 1
        else:
            neg = (_crossings(rmask, xmask) + (i & 1) * (1 + rmask.bit_count())) & 1
        key = product(m1, m2) << shift | rmask | xmask if m1 and m2 else rk | base
        re, im = fa * a2 - fb * b2, fa * b2 + fb * a2
        if neg:
            re, im = -re, -im
        cell = acc.get(key)
        if cell is None:
            acc[key] = [re, im]
        else:
            cell[0] += re
            cell[1] += im


def _crossings(rmask: int, xmask: int) -> int:
    """The number of pairs (a generator of r, a smaller generator of x):
    the inversions of r ^ x written in order, whose parity is its sign."""
    n = 0
    while xmask:
        low = xmask & -xmask
        n += (rmask & ~((low << 1) - 1)).bit_count()
        xmask ^= low
    return n


def _gens(mask: int) -> Tuple[int, ...]:
    """The generators of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _bucket(acc: Acc, mono: int) -> Terms:
    """The coefficient dict of ``mono`` in ``acc``, made on first use."""
    b = acc.get(mono)
    if b is None:
        b = acc[mono] = {}
    return b


def addmul(acc: Acc, x: "Form", p: Optional["Poly"] = None,
           c: GaussRational = ONE) -> None:
    """acc += x * p * c in place, p None reading as 1: how a sum of many
    products is built.  Neither x nor p is touched, so interned and shared
    forms and polynomials may be passed; their coefficients ``ONE``
    multiply nothing."""
    if c.is_zero():
        return
    pc = {(): c} if p is None else {m: c if v is ONE else v * c for m, v in p.terms.items()}
    for mono, q in x.terms.items():
        _mul_into(_bucket(acc, mono), q.terms, pc)


def from_acc(ext: "Alphabet", acc: Acc) -> "Form":
    """The finished accumulator as a Form, empty buckets dropped; the
    Form takes over the buckets."""
    out = Form(ext)
    out.terms = {m: Poly._wrap(t) for m, t in acc.items() if t}
    return out


class Poly:
    """Sparse polynomial in scalar symbols with GaussRational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Mono, GaussRational]] = None):
        self.terms: Dict[Mono, GaussRational] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def const(c) -> "Poly":
        c = GaussRational.of(c)
        return Poly({(): c}) if not c.is_zero() else Poly()

    @staticmethod
    def _wrap(terms: Terms) -> "Poly":
        """A Poly that takes over ``terms``, which hold no zero."""
        res = Poly.__new__(Poly)
        res.terms = terms
        return res

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        axpy(out, ONE, other.terms)
        return Poly._wrap(out)

    def __neg__(self) -> "Poly":
        return Poly._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = GaussRational.of(c)
        if c.is_zero():
            return Poly()
        return Poly._wrap({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: Terms = {}
        _mul_into(out, self.terms, other.terms)
        return Poly._wrap(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            mono = "*".join(repr(s) for s in m) if m else ""
            bits.append(f"{c!r}{'*' if mono else ''}{mono}")
        return " + ".join(bits)


class Alphabet:
    """The generators of an exterior algebra, labelled in wedge order."""

    def __init__(self, labels: Iterable[str]):
        self.labels: Tuple[str, ...] = tuple(labels)


class Exterior(Alphabet):
    """The exterior algebra on the coframe generators for fixed n.

    Generator forms (``gen``) and one-symbol polynomials (``sym``, and the
    j-images of ``jsym``) are interned per instance: asking twice gives the
    same shared object, which no operation of this module modifies.
    Conjugation relabels by units: each generator and each symbol has a
    conjugate times +1 or -1 (``_conj_gen``, ``_conj_sym``), so a generator
    monomial (``conj_mask``) or a symbol monomial (``conj_mono``) goes to
    one monomial and a unit, tabulated on first use."""

    def __init__(self, n: int, signature: Tuple[int, int] = None):
        self.n = n
        self.consts = StandardConstants(n, signature)
        self.keys = coframe.coord_keys(n)
        super().__init__(coframe.label(k) for k in self.keys)
        self.gid = {k: i for i, k in enumerate(self.keys)}
        # conjugation action on generators: gid -> (unit, gid)
        self._conj_gen = {}
        for k in self.keys:
            unit, k2 = coframe.conj_key(self.consts, k)
            self._conj_gen[self.gid[k]] = (unit, self.gid[k2])
        self._gens: Dict[coframe.Key, Form] = {}
        self._syms: Dict[Tuple[str, Tuple[int, ...], bool], Poly] = {}
        self._jsyms: Dict[Tuple[str, Tuple[int, ...]], Poly] = {}
        self._conj_syms: Dict[Sym, Tuple[int, Sym]] = {}
        self._conj_masks: Dict[int, Tuple[int, int]] = {}

    # -- symbols -----------------------------------------------------------

    def sym(self, family: str, idx: Iterable[int] = (), conj: bool = False) -> Poly:
        """Canonicalized one-symbol polynomial (may fold in a sign).  Every
        ordering of a symmetric family's indices names one symbol, interned
        once, under the sorted indices."""
        key = (family, _sorted_if_symmetric(family, tuple(idx)), conj)
        p = self._syms.get(key)
        if p is None:
            unit, s = self._canonical_sym(*key)
            p = self._syms[key] = Poly._wrap({(s,): ONE if unit == 1 else -ONE})
        return p

    def _canonical_sym(self, family: str, idx: Tuple[int, ...], conj: bool) -> Tuple[int, Sym]:
        """The canonical symbol of (family, idx, conj) and its unit."""
        if family not in FAMILIES:
            raise KeyError(f"unknown symbol family {family!r}")
        arity, symmetric, jreal, real = FAMILIES[family]
        if len(idx) != arity:
            raise ValueError(f"{family} takes {arity} indices, got {idx}")
        if idx and (min(idx) < 1 or max(idx) > 2 * self.n):
            raise ValueError(f"index out of range in {family}{idx}")
        unit = 1
        if symmetric:
            idx = tuple(sorted(idx))
        if conj and real:
            conj = False
        if conj and jreal:
            # jF = F forces conj(F)[b] = m_{p(b)} F[p(b)], and m_{p(b)} is
            # m_b negated once per index
            target, m = self.consts.j(idx)
            unit = -m if len(idx) % 2 else m
            idx = tuple(sorted(target))
            conj = False
        return unit, Sym(family, idx, conj)

    def jsym(self, family: str, idx: Iterable[int]) -> Poly:
        """(jF)_{idx} = m conj(F_{p(idx)}), with (p(idx), m) read from
        the j table of the constants.  p and m permute with the indices,
        so a symmetric family's j-image is interned once, under the sorted
        indices."""
        key = (family, _sorted_if_symmetric(family, tuple(idx)))
        p = self._jsyms.get(key)
        if p is None:
            target, m = self.consts.j(key[1])
            p = self._jsyms[key] = self.sym(family, target, conj=True).scale(m)
        return p

    def _conj_sym(self, s: Sym) -> Tuple[int, Sym]:
        """conj(s) = unit * s2 as (unit, s2), tabulated on first use."""
        hit = self._conj_syms.get(s)
        if hit is None:
            hit = self._conj_syms[s] = self._canonical_sym(s.family, s.idx, not s.conj)
        return hit

    def conj_mono(self, mono: Mono) -> Tuple[int, Mono]:
        """conj(mono) = unit * mono2 as (unit, mono2)."""
        unit, syms = 1, []
        for s in mono:
            k, s2 = self._conj_sym(s)
            unit *= k
            syms.append(s2)
        return unit, tuple(sorted(syms))

    def conj_mask(self, mask: int) -> Tuple[int, int]:
        """The conjugate of a generator monomial, as bitmasks: (mask2,
        unit), the unit the product of the generators' units and the sign
        that sorts their images; tabulated on first use."""
        hit = self._conj_masks.get(mask)
        if hit is None:
            out, neg, rest = 0, 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                unit, g2 = self._conj_gen[low.bit_length() - 1]
                # the image jumps over the images above it placed so far
                neg ^= ((out >> (g2 + 1)).bit_count() + (unit < 0)) & 1
                out |= 1 << g2
            hit = self._conj_masks[mask] = (out, -1 if neg else 1)
        return hit

    def conj_poly(self, p: Poly) -> Poly:
        """conj(p): each symbol monomial is swapped for its conjugate, and
        its unit folds into the conjugated coefficient."""
        out: Terms = {}
        for mono, c in p.terms.items():
            unit, m = self.conj_mono(mono)
            c = c.conj()
            if unit < 0:
                c = -c
            cur = out.get(m)
            if cur is None:
                out[m] = c
            else:
                c = cur + c
                if c.is_zero():
                    del out[m]
                else:
                    out[m] = c
        return Poly._wrap(out)

    # -- forms -------------------------------------------------------------

    def zero(self) -> "Form":
        return Form(self, {})

    def scalar(self, p: Union[Poly, GaussRational, int, Fraction]) -> "Form":
        if not isinstance(p, Poly):
            p = Poly.const(p)
        return Form(self, {0: p} if not p.is_zero() else {})

    def gen(self, key: coframe.Key) -> "Form":
        """Degree-1 generator as a form (a Gamma pair in either order)."""
        f = self._gens.get(key)
        if f is None:
            k = coframe.gam_key(key[1], key[2]) if key[0] == "Gam" else key
            f = self._gens[key] = Form(self, {1 << self.gid[k]: Poly._wrap({(): ONE})})
        return f

    def gam_bar_gen(self, s: int, t: int) -> "Form":
        """The dependent generator Gamma_{s̄ t̄} as a signed unbarred one."""
        coeff, key = coframe.gamma_bar(self.consts, s, t)
        return self.gen(key).scale(coeff)


Vector = Dict[int, Poly]  # generator index -> coefficient of its dual vector


class Form:
    """Canonical graded sum of wedge monomials with Poly coefficients
    over the generators of ``ext`` (an Alphabet), keyed by generator mask."""

    __slots__ = ("ext", "terms")

    def __init__(self, ext: Alphabet, terms: Optional[Dict[int, Poly]] = None):
        self.ext = ext
        self.terms: Dict[int, Poly] = {}
        if terms:
            for m, p in terms.items():
                if not p.is_zero():
                    self.terms[m] = p

    def __add__(self, other: "Form") -> "Form":
        """A new Form; a coefficient both sides touch is summed into a
        new Poly, every other one is shared."""
        out = Form(self.ext)
        terms = out.terms = dict(self.terms)
        for m, p in other.terms.items():
            cur = terms.get(m)
            if cur is None:
                terms[m] = p
            else:
                p = cur + p
                if p.is_zero():
                    del terms[m]
                else:
                    terms[m] = p
        return out

    def __neg__(self) -> "Form":
        out = Form(self.ext)
        out.terms = {m: -p for m, p in self.terms.items()}
        return out

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        if isinstance(c, Poly):
            return Form(self.ext, {m: p * c for m, p in self.terms.items()})
        c = GaussRational.of(c)
        out = Form(self.ext)
        if c.is_zero():
            return out
        for m, p in self.terms.items():
            out.terms[m] = p.scale(c)
        return out

    def wedge(self, other: "Form") -> "Form":
        acc: Acc = {}
        for m1, p1 in self.terms.items():
            t1 = p1.terms
            for m2, p2 in other.terms.items():
                if not m1 & m2:
                    _mul_into(_bucket(acc, m1 | m2), t1, p2.terms, _crossings(m1, m2) & 1)
        return from_acc(self.ext, acc)

    def __xor__(self, other: "Form") -> "Form":  # a ^ b reads as a wedge b
        return self.wedge(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Form) and self.ext is other.ext
                and self.terms == other.terms)

    def degrees(self):
        return sorted({m.bit_count() for m in self.terms})

    def term_count(self) -> int:
        return sum(len(p.terms) for p in self.terms.values())

    def conj(self) -> "Form":
        """The conjugate, over an Exterior: conjugation relabels generator
        and symbol monomials one to one, so each term maps to one term."""
        ext = self.ext
        out = Form(ext)
        for mono, p in self.terms.items():
            mask, unit = ext.conj_mask(mono)
            q = ext.conj_poly(p)
            out.terms[mask] = q if unit > 0 else -q
        return out

    def interior(self, v: Vector) -> "Form":
        """Contraction with a vector in the first slot; v maps a generator
        index to the coefficient of its dual vector."""
        acc: Acc = {}
        for m, p in self.terms.items():
            for pos, g in enumerate(_gens(m)):
                comp = v.get(g)
                if comp is None:
                    continue
                _mul_into(_bucket(acc, m ^ (1 << g)), p.terms, comp.terms, pos % 2)
        return from_acc(self.ext, acc)

    def eval_fields(self, *fields: Vector) -> Poly:
        """Full contraction of a k-form with k vectors, using the pairing
        (a^b)(X,Y) = a(X) b(Y) - a(Y) b(X)."""
        cur = self
        for v in fields:
            cur = cur.interior(v)
        p = cur.terms.get(0)
        return p if p is not None else Poly()

    def to_text(self) -> str:
        """Deterministic textual serialization in canonical order."""
        if not self.terms:
            return "0"
        lines = []
        for mono in sorted(self.terms, key=lambda m: (m.bit_count(), _gens(m))):
            gens = "^".join(self.ext.labels[g] for g in _gens(mono)) or "1"
            lines.append(f"({self.terms[mono]!r}) {gens}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Form({self.term_count()} terms, degrees {self.degrees()})"


class DRuleSet:
    """Exterior-derivative rules: the derivative of every generator, and
    a rule giving the 1-form derivative of a scalar symbol (None when no
    symbol may be differentiated).

    ``view`` gives either kind of rule as a ``View`` for ``differential``,
    built on first use and kept.  The generator rule Forms are kept and
    only read; a symbol rule is kept only as its view, made from the
    builder's Form (``sym_rules``), which is then dropped, and
    ``sym_rule`` decodes the view each time it is asked.
    The symbol monomials of the views, and those ``differential`` meets,
    are interned per rule set: id 0 is the empty monomial, ``_monos`` maps
    an id back to its tuple, and the product of two nonempty monomials is
    tabulated by id pair (``_product``).

    The rule of a conjugated symbol is the conjugate of the rule of the
    symbol, and it is made in integers: conjugation relabels generator
    and symbol monomials one to one by units (``Exterior.conj_mask``,
    ``Exterior.conj_mono``, ``_conj_id``), so the view of ~s has the terms
    of the view of s, relabeled, each (re, im) turned into +-(re, -im) over
    the same denominator."""

    def __init__(self, ext: Alphabet, gen_rules: Dict[int, Form],
                 sym_rules: Optional[Callable[[Sym], Form]] = None):
        self.ext = ext
        self.gen_rules = gen_rules
        self._sym_rules = sym_rules
        self._views: Dict[Union[int, Sym], View] = {}
        self._ids: Dict[Mono, int] = {(): 0}
        self._monos: List[Mono] = [()]
        self._products: Dict[Tuple[int, int], int] = {}
        self._conj_ids: Dict[int, Tuple[int, int]] = {}

    def gen_rule(self, g: int) -> Form:
        try:
            return self.gen_rules[g]
        except KeyError:
            if not 0 <= g < len(self.ext.labels):
                raise KeyError(f"generator index {g} is outside the alphabet") from None
            raise KeyError(
                f"no differential rule for generator {self.ext.labels[g]}") from None

    def sym_rule(self, s: Sym) -> Form:
        """The rule of a symbol, decoded from its view."""
        return self._decode(self.view(s))

    def _intern(self, mono: Mono) -> int:
        """The id of a symbol monomial, assigned on first use."""
        i = self._ids.get(mono)
        if i is None:
            i = self._ids[mono] = len(self._monos)
            self._monos.append(mono)
        return i

    def _product(self, i: int, j: int) -> int:
        """The id of the product of the monomials with ids i and j."""
        k = self._products.get((i, j))
        if k is None:
            monos = self._monos
            k = self._products[i, j] = self._intern(tuple(sorted(monos[i] + monos[j])))
        return k

    def _conj_id(self, i: int) -> Tuple[int, int]:
        """(id of conj(mono), unit) for the monomial with id i."""
        hit = self._conj_ids.get(i)
        if hit is None:
            unit, mono = self.ext.conj_mono(self._monos[i])
            hit = self._conj_ids[i] = (self._intern(mono), unit)
        return hit

    def view(self, key: Union[int, Sym]) -> View:
        """The rule of a generator index or a symbol as Gaussian integers
        over its lcm denominator."""
        v = self._views.get(key)
        if v is None:
            if not isinstance(key, Sym):
                v = self._clear(self.gen_rule(key))
            elif self._sym_rules is None:
                raise KeyError(f"no differential rule for symbol family {key.family!r}")
            elif key.conj:
                v = self._conj_view(self.view(key._replace(conj=False)))
            else:
                v = self._clear(self._sym_rules(key))
            self._views[key] = v
        return v

    def _clear(self, rule: Form) -> View:
        """A rule Form as a View."""
        den, parts = cleared([c for p in rule.terms.values() for c in p.terms.values()])
        parts = iter(parts)
        intern, shift = self._intern, len(self.ext.labels)
        terms = []
        for rmask, p in rule.terms.items():
            for mono, (re, im) in zip(p.terms, parts):
                m = intern(mono)
                terms.append((rmask, m << shift | rmask, m, re, im))
        return den, tuple(terms)

    def _conj_view(self, view: View) -> View:
        """The view of the conjugate of a rule, from the rule's view: the
        terms keep their order, so each row stays contiguous."""
        den, terms = view
        conj_mask, conj_id, shift = self.ext.conj_mask, self._conj_id, len(self.ext.labels)
        out = []
        for rmask, _, m, re, im in terms:
            rmask, unit = conj_mask(rmask)
            m, u = conj_id(m)
            u *= unit
            out.append((rmask, m << shift | rmask, m, u * re, -u * im))
        return den, tuple(out)

    def _decode(self, view: View) -> Form:
        """A view read back as a Form."""
        den, terms = view
        monos = self._monos
        acc: Acc = {}
        for rmask, _, m, re, im in terms:
            _bucket(acc, rmask)[monos[m]] = GaussRational.from_ints(re, im, den)
        return from_acc(self.ext, acc)


def differential(x: Form, rules: DRuleSet) -> Form:
    """Graded-Leibniz exterior derivative of a canonical form.

    The i-th generator g of a monomial lead ^ g ^ tail contributes
    (-1)^i lead ^ d(g) ^ tail, and for a term r of d(g),
    lead ^ r ^ tail = (-1)^(i |r|) r ^ (lead tail): one sign per rule
    term.  The arithmetic is in Gaussian integers on integer keys: each
    coefficient of x is cleared over its own lcm denominator, with its
    symbol monomials as ids; each rule is read through ``rules.view``; one integer factor per call
    brings both to the lcm of x's denominators times that of the rules x
    uses; every product is summed into one integer cell per output term,
    keyed by one int, the symbol monomial's id shifted past the generator
    bits, or'ed with the generator mask; and each cell that does not
    cancel is decoded and divided once, grouped by generator mask in the
    order the cells were made."""
    if x.ext is not rules.ext:
        raise ValueError("the form and the rule set are over different alphabets")
    view = rules.view
    intern = rules._intern
    polys = []
    xden = 1
    dens = set()  # the denominators of the rules x reads
    for xmask, p in x.terms.items():
        pden, ints = cleared(p.terms.values())
        xden = lcm(xden, pden)
        for smono in p.terms:
            for s in smono:
                dens.add(view(s)[0])
        gens = _gens(xmask)
        for g in gens:
            dens.add(view(g)[0])
        polys.append((gens, xmask, pden, p.terms, ints,
                      [(intern(m), a, b) for m, (a, b) in zip(p.terms, ints)]))
    rden = lcm(*dens)
    product = rules._product
    shift = len(x.ext.labels)
    acc: Cells = {}
    for gens, xmask, pden, smonos, ints, terms in polys:
        f = xden // pden
        # d(coefficient) ^ mono
        for smono, (a, b) in zip(smonos, ints):
            for k, s in enumerate(smono):
                den, rterms = view(s)
                if rterms:
                    _rule_into(acc, [(intern(smono[:k] + smono[k + 1:]), a, b)], rterms,
                               xmask, 0, f * (rden // den), product, shift)
        # Leibniz over the generators of the monomial
        for i, g in enumerate(gens):
            den, rterms = view(g)
            if rterms:
                _rule_into(acc, terms, rterms, xmask ^ (1 << g), i, f * (rden // den), product,
                           shift)
    den = xden * rden
    monos = rules._monos
    low = (1 << shift) - 1
    live = [(key, re, im) for key, (re, im) in acc.items() if re or im]
    masks = {key & low for key, _, _ in live}
    if len(masks) > 1:  # in the order of their first cells, cancelled or not
        masks = [m for m in dict.fromkeys(key & low for key in acc) if m in masks]
    grouped: Dict[int, Terms] = {m: {} for m in masks}
    for key, re, im in live:
        grouped[key & low][monos[key >> shift]] = GaussRational.from_ints(re, im, den)
    out = Form(x.ext)
    out.terms = {m: Poly._wrap(coeffs) for m, coeffs in grouped.items()}
    return out
