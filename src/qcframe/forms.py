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

* wedge monomials are strictly increasing in the alphabet's generator
  order, with the sign of the sorting permutation absorbed into the
  coefficient;
* symbol monomials are sorted tuples of symbols;
* symbols of totally symmetric families store sorted index tuples;
* conjugates of j-real families (S, L) and of the real scalar R are
  rewritten into unconjugated symbols at construction, so each scalar
  function has exactly one name.

Zero detection is therefore trivial: a form is zero iff it has no terms.

Every product and every sum of many pieces is written into one fresh
local accumulator, a dict keyed by generator monomial and then by symbol
monomial that holds the GaussRational coefficient (``Acc``).  Two
functions fill it in place: ``_add_into`` adds a coefficient dict and
``_mul_into`` adds the product of two; ``_form`` wraps the finished
accumulator, empty buckets dropped, as a Form.  ``Poly.__mul__``,
``Form.wedge``, ``Form.interior``, ``Form.conj`` and ``differential`` all
run on them.  ``+`` always returns a new object that shares the untouched
coefficients, because rule-table forms are shared and cached.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .gauss import ONE, GaussRational, gr
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
Acc = Dict[Tuple[int, ...], Terms]  # generator monomial -> its coefficients


def _add_into(out: Terms, terms: Terms, neg: bool = False) -> None:
    """out += terms (-terms if neg) in place, dropping what cancels."""
    for m, c in terms.items():
        if neg:
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


def _mul_into(out: Terms, t1: Terms, t2: Terms, neg: bool = False) -> None:
    """out += t1 * t2 (-t1 * t2 if neg) in place, dropping what cancels.
    The product of two nonzero coefficients is nonzero, so a new entry
    never needs a zero test."""
    for m1, c1 in t1.items():
        if neg:
            c1 = -c1
        for m2, c2 in t2.items():
            # a sorted monomial times the empty one is already sorted
            m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 + m2
            c = c1 * c2
            cur = out.get(m)
            if cur is None:
                out[m] = c
            else:
                c = cur + c
                if c.is_zero():
                    del out[m]
                else:
                    out[m] = c


def _bucket(acc: Acc, mono: Tuple[int, ...]) -> Terms:
    """The coefficient dict of ``mono`` in ``acc``, made on first use."""
    b = acc.get(mono)
    if b is None:
        b = acc[mono] = {}
    return b


def _form(ext: "Alphabet", acc: Acc) -> "Form":
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
        _add_into(out, other.terms)
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
    """The exterior algebra on the coframe generators for fixed n."""

    def __init__(self, n: int, signature: Tuple[int, int] = None):
        self.n = n
        self.consts = StandardConstants(n, signature)
        self.keys = coframe.coord_keys(n)
        super().__init__(coframe.label(k) for k in self.keys)
        self.gid = {k: i for i, k in enumerate(self.keys)}
        # conjugation action on generators: gid -> (coefficient, gid)
        self._conj_gen = {}
        for k in self.keys:
            coeff, k2 = coframe.conj_key(self.consts, k)
            self._conj_gen[self.gid[k]] = (coeff, self.gid[k2])

    # -- symbols -----------------------------------------------------------

    def sym(self, family: str, idx: Iterable[int] = (), conj: bool = False) -> Poly:
        """Canonicalized one-symbol polynomial (may fold in a sign)."""
        idx = tuple(idx)
        if family not in FAMILIES:
            raise KeyError(f"unknown symbol family {family!r}")
        arity, symmetric, jreal, real = FAMILIES[family]
        if len(idx) != arity:
            raise ValueError(f"{family} takes {arity} indices, got {idx}")
        if any(not 1 <= i <= 2 * self.n for i in idx):
            raise ValueError(f"index out of range in {family}{idx}")
        coeff = gr(1)
        if symmetric:
            idx = tuple(sorted(idx))
        if conj and real:
            conj = False
        if conj and jreal:
            # jF = F forces conj(F)[b] = F[p(b)] / prod m_{p(b_k)}
            c = self.consts
            target = tuple(c.partner(i) for i in idx)
            for t in target:
                coeff = coeff / c.pi_ubar_l(c.partner(t), t)
            idx = tuple(sorted(target))
            conj = False
        return Poly({(Sym(family, idx, conj),): coeff})

    def jsym(self, family: str, idx: Iterable[int]) -> Poly:
        """(jF)_{idx}: pi-contracted conjugate of the family array."""
        c = self.consts
        idx = tuple(idx)
        coeff = gr(1)
        for a in idx:
            coeff = coeff * c.pi_ubar_l(c.partner(a), a)
        return self.sym(family, tuple(c.partner(a) for a in idx), conj=True).scale(coeff)

    def conj_poly(self, p: Poly) -> Poly:
        out = Poly()
        for mono, c in p.terms.items():
            factor = Poly.const(c.conj())
            for s in mono:
                if s.conj:
                    piece = self.sym(s.family, s.idx, conj=False)
                else:
                    piece = self.sym(s.family, s.idx, conj=True)
                factor = factor * piece
            _add_into(out.terms, factor.terms)
        return out

    # -- forms -------------------------------------------------------------

    def zero(self) -> "Form":
        return Form(self, {})

    def scalar(self, p: Union[Poly, GaussRational, int, Fraction]) -> "Form":
        if not isinstance(p, Poly):
            p = Poly.const(p)
        return Form(self, {(): p} if not p.is_zero() else {})

    def gen(self, key: coframe.Key) -> "Form":
        """Degree-1 generator as a form."""
        if key[0] == "Gam":
            key = coframe.gam_key(key[1], key[2])
        return Form(self, {(self.gid[key],): Poly.const(1)})

    def gam_bar_gen(self, s: int, t: int) -> "Form":
        """The dependent generator Gamma_{s̄ t̄} as a signed unbarred one."""
        coeff, key = coframe.gamma_bar(self.consts, s, t)
        return self.gen(key).scale(coeff)


def _merge_sign(m1: Tuple[int, ...], m2: Tuple[int, ...]):
    """Merge two strictly increasing tuples; return (sign, merged) or
    None if a generator repeats."""
    out: List[int] = []
    sign = 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining len(m1)-i generators of m1
            if (len(m1) - i) % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


Vector = Dict[int, Poly]  # generator index -> coefficient of its dual vector


class Form:
    """Canonical graded sum of wedge monomials with Poly coefficients
    over the generators of ``ext`` (an Alphabet)."""

    __slots__ = ("ext", "terms")

    def __init__(self, ext: Alphabet, terms: Optional[Dict[Tuple[int, ...], Poly]] = None):
        self.ext = ext
        self.terms: Dict[Tuple[int, ...], Poly] = {}
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
                merged = _merge_sign(m1, m2)
                if merged is None:
                    continue
                sign, mono = merged
                _mul_into(_bucket(acc, mono), t1, p2.terms, sign < 0)
        return _form(self.ext, acc)

    def __xor__(self, other: "Form") -> "Form":  # a ^ b reads as a wedge b
        return self.wedge(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Form) and self.ext is other.ext
                and self.terms == other.terms)

    def degrees(self):
        return sorted({len(m) for m in self.terms})

    def term_count(self) -> int:
        return sum(len(p.terms) for p in self.terms.values())

    def conj(self) -> "Form":
        ext = self.ext
        acc: Acc = {}
        for mono, p in self.terms.items():
            coeff = ONE
            sign, key = 1, ()
            for g in mono:
                c, g2 = ext._conj_gen[g]
                coeff = coeff * c
                # re-sort the conjugated generators (a permutation of
                # the alphabet, so none repeats)
                s, key = _merge_sign(key, (g2,))
                sign *= s
            _add_into(_bucket(acc, key), ext.conj_poly(p).scale(coeff).terms, sign < 0)
        return _form(ext, acc)

    def substitute(self, mapping: Dict[Sym, Poly]) -> "Form":
        """Homomorphic replacement of symbols.  Conjugated symbols pick
        up the conjugate of the mapped value automatically."""
        ext = self.ext
        out = Form(ext)
        for mono, p in self.terms.items():
            newp = Poly()
            for smono, c in p.terms.items():
                factor = Poly.const(c)
                for s in smono:
                    if s in mapping:
                        val = mapping[s]
                    elif s.conj and Sym(s.family, s.idx, False) in mapping:
                        val = ext.conj_poly(mapping[Sym(s.family, s.idx, False)])
                    else:
                        val = Poly({(s,): gr(1)})
                    factor = factor * val
                _add_into(newp.terms, factor.terms)
            if not newp.is_zero():  # each mono occurs once in self
                out.terms[mono] = newp
        return out

    def interior(self, v: Vector) -> "Form":
        """Contraction with a vector in the first slot; v maps a generator
        index to the coefficient of its dual vector."""
        acc: Acc = {}
        for m, p in self.terms.items():
            for pos, g in enumerate(m):
                comp = v.get(g)
                if comp is None:
                    continue
                _mul_into(_bucket(acc, m[:pos] + m[pos + 1:]), p.terms, comp.terms, pos % 2)
        return _form(self.ext, acc)

    def eval_fields(self, *fields: Vector) -> Poly:
        """Full contraction of a k-form with k vectors, using the pairing
        (a^b)(X,Y) = a(X) b(Y) - a(Y) b(X)."""
        cur = self
        for v in fields:
            cur = cur.interior(v)
        p = cur.terms.get(())
        return p if p is not None else Poly()

    def to_text(self) -> str:
        """Deterministic textual serialization in canonical order."""
        if not self.terms:
            return "0"
        lines = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            gens = "^".join(self.ext.labels[g] for g in mono) or "1"
            lines.append(f"({self.terms[mono]!r}) {gens}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Form({self.term_count()} terms, degrees {self.degrees()})"


class DRuleSet:
    """Exterior-derivative rules: the derivative of every generator, and
    a rule giving the 1-form derivative of a scalar symbol (None when no
    symbol may be differentiated)."""

    def __init__(self, ext: Alphabet, gen_rules: Dict[int, Form],
                 sym_rules: Optional[Callable[[Sym], Form]] = None):
        self.ext = ext
        self.gen_rules = gen_rules
        self._sym_rules = sym_rules
        self._sym_cache: Dict[Sym, Form] = {}

    def gen_rule(self, g: int) -> Form:
        try:
            return self.gen_rules[g]
        except KeyError:
            if not 0 <= g < len(self.ext.labels):
                raise KeyError(f"generator index {g} is outside the alphabet") from None
            raise KeyError(
                f"no differential rule for generator {self.ext.labels[g]}") from None

    def sym_rule(self, s: Sym) -> Form:
        if s in self._sym_cache:
            return self._sym_cache[s]
        if self._sym_rules is None:
            raise KeyError(f"no differential rule for symbol family {s.family!r}")
        if s.conj:
            base = self.sym_rule(Sym(s.family, s.idx, False))
            out = base.conj()
        else:
            out = self._sym_rules(s)
        self._sym_cache[s] = out
        return out


def differential(x: Form, rules: DRuleSet) -> Form:
    """Graded-Leibniz exterior derivative of a canonical form.

    Every product goes straight into one accumulator.  The i-th generator
    g of a monomial lead ^ g ^ tail contributes (-1)^i lead ^ d(g) ^ tail,
    and for a term r of d(g), lead ^ r ^ tail = (-1)^(i |r|) r ^ (lead tail):
    one sign merge per rule term."""
    if x.ext is not rules.ext:
        raise ValueError("the form and the rule set are over different alphabets")
    acc: Acc = {}
    for mono, p in x.terms.items():
        pt = p.terms
        # d(coefficient) ^ mono
        for smono, c in pt.items():
            for k, s in enumerate(smono):
                rest = {smono[:k] + smono[k + 1:]: c}
                for rm, rp in rules.sym_rule(s).terms.items():
                    merged = _merge_sign(rm, mono)
                    if merged is not None:
                        sign, key = merged
                        _mul_into(_bucket(acc, key), rest, rp.terms, sign < 0)
        # Leibniz over the generators of the monomial
        for i, g in enumerate(mono):
            others = mono[:i] + mono[i + 1:]
            for rm, rp in rules.gen_rule(g).terms.items():
                merged = _merge_sign(rm, others)
                if merged is not None:
                    sign, key = merged
                    odd = i * (1 + len(rm)) % 2 == 1
                    _mul_into(_bucket(acc, key), pt, rp.terms, (sign < 0) != odd)
    return _form(x.ext, acc)
