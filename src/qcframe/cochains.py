"""Curvature cochains and the normality certificate.

The curvature of the canonical coframe is a two-cochain on g_- with
values in sp(n) + g_1 + g_2, assembled from the nine component arrays
by reading off the curvature two-forms of the structure equations.  The
Kostant codifferential is evaluated two ways -- literally from its
bracket definition over the trace-dual frames, and through the closed
trace-condition formula whose slot constants are calibrated against the
direct form -- and the normality certificate checks that both vanish on
every assembled cochain, together with the five trace conditions.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple, Union

from . import InputError, rational_from_json
from .gauss import (I, ONE, ZERO, GaussRational, axpy, cleared, gr, random_gauss,
                    random_gauss_ints)
from .tensors import (IndexedTensor, StandardConstants, SymTensor, jmap,
                      j_average, random_tensor, slots, symmetrize)
from .forms import CONTROL_FAMILIES, CURVATURE_FAMILIES, FAMILIES, Form, Mono, Sym
from .linear import IntMatrix, equal, int_matrix, is_zero, product_into
from .model import LieCoord, SpModel
from . import coframe
from .coframe import Key


# ---------------------------------------------------------------------------
# curvature components


@dataclass
class CurvatureComponents:
    """The nine arrays S, V, L, M, C, H, P, Q, R, one field each, named
    after its family in ``forms.FAMILIES``."""

    n: int
    s: SymTensor
    v: SymTensor
    l: SymTensor
    m: SymTensor
    c: IndexedTensor
    h: IndexedTensor
    p: GaussRational
    q: GaussRational
    r: GaussRational

    def validate(self, consts: StandardConstants) -> None:
        for fam in CURVATURE_FAMILIES:
            arity, symmetric, jreal, real = FAMILIES[fam]
            t = getattr(self, fam.lower())
            if real and not t.is_real():
                raise ValueError(f"{fam} must be real")
            if not arity:
                continue
            if len(t.slots) != arity:
                raise ValueError(f"{fam} must have {arity} lower slots")
            if symmetric and not isinstance(t, SymTensor):
                raise ValueError(f"{fam} is not totally symmetric")
            if jreal and jmap(t, consts) != t:
                raise ValueError(f"{fam} is not j-invariant")

    def value(self, sym: Sym) -> GaussRational:
        """Numeric value of a curvature symbol (conjugate-aware)."""
        fam = CONTROL_FAMILIES.get(sym.family, sym.family)
        if fam not in CURVATURE_FAMILIES:
            raise KeyError(f"not a curvature family: {sym.family}")
        base = getattr(self, fam.lower())
        if FAMILIES[fam][0]:
            base = base.get(*sym.idx)
        return base.conj() if sym.conj else base


def _zero(n: int, fam: str):
    """The zero value of a curvature family's field."""
    arity, symmetric = FAMILIES[fam][:2]
    if not arity:
        return ZERO
    return (SymTensor if symmetric else IndexedTensor)(n, slots("l" * arity))


def zero_components(n: int) -> CurvatureComponents:
    return CurvatureComponents(n, *(_zero(n, fam) for fam in CURVATURE_FAMILIES))


def random_components(rng: random.Random, consts: StandardConstants,
                      span: int = 4) -> CurvatureComponents:
    """Draw unconstrained entries, then project exactly onto the
    admissible set: total symmetrization, then j-averaging for S and L.
    Every value comes from ``gauss.random_gauss``, numerators in
    -span..span and denominators up to 3, family by family in
    ``CURVATURE_FAMILIES`` order; the real scalar R is drawn with no
    imaginary part.  The draw is not validated here: ``assemble_kappa``
    (and so ``check_normality``) validates what it is given."""
    n = consts.n
    values = []
    for fam in CURVATURE_FAMILIES:
        arity, symmetric, jreal, real = FAMILIES[fam]
        if arity:
            t = random_tensor(rng, n, slots("l" * arity), span)
            if symmetric:
                t = symmetrize(t)
            if jreal:
                t = j_average(t, consts)
        else:
            t = random_gauss(rng, span, 3, real)
        values.append(t)
    return CurvatureComponents(n, *values)


def broken_components(rng: random.Random, consts: StandardConstants) -> CurvatureComponents:
    """Negative control: valid components except that the total symmetry
    of S is deliberately destroyed."""
    out = random_components(rng, consts)
    out.validate(consts)  # the control breaks a set that was admissible
    # S_{1 1 1 p}, p the pi-partner of 1 ((1, 1, 1, 2) at n = 1), in the
    # every-arrangement S, the only place a non-admissible S is built.
    # The residuals are linear in the perturbation; at n = 2 one at
    # (1, 1, 1, 2) leaves dstar(kappa) and every trace condition zero.
    out.s = out.s.full()
    idx = (1, 1, 1, consts.partner(1))
    out.s.set(idx, out.s.get(*idx) + gr(1))
    return out


# -- component-file round trip -------------------------------------------------


def _gr_to_json(v: GaussRational):
    return {"re": str(v.re), "im": str(v.im)}


def _gr_from_json(d, where: str) -> GaussRational:
    if not isinstance(d, dict) or "re" not in d or "im" not in d:
        raise InputError(f'{where}: expected an object with "re" and "im", got {d!r}')
    return gr(rational_from_json(d["re"], f"{where}.re"),
              rational_from_json(d["im"], f"{where}.im"))


def _ints_from_json(v, where: str) -> Tuple[int, ...]:
    if not isinstance(v, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in v):
        raise InputError(f"{where}: expected a list of integers, got {v!r}")
    return tuple(v)


def components_to_json(c: CurvatureComponents, signature: Tuple[int, int]) -> dict:
    """The component document; a symmetric array is written with every
    arrangement."""
    doc = {"n": c.n, "signature": list(signature)}
    for fam in CURVATURE_FAMILIES:
        val = getattr(c, fam.lower())
        if not FAMILIES[fam][0]:
            doc[fam] = _gr_to_json(val)
            continue
        if isinstance(val, SymTensor):
            val = val.full()
        doc[fam] = [{"idx": list(idx), **_gr_to_json(v)}
                    for idx, v in sorted(val.entries.items())]
    return doc


def components_from_json(doc, consts: StandardConstants) -> CurvatureComponents:
    """Read a component document for the run with constants consts;
    InputError with a one-line message if it is malformed or is for another
    n or signature, ValueError if the components are not admissible
    (``load_components`` reports both as InputError).  The n and the
    signature are checked before anything is built."""
    if not isinstance(doc, dict):
        raise InputError("component file: expected a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"component file: n must be an integer, got {n!r}")
    if n != consts.n:
        raise InputError(f"component file n = {n} does not match n = {consts.n} of this run")
    sig = _ints_from_json(doc.get("signature", [n, 0]), "signature")
    if len(sig) != 2:
        raise InputError(f"signature: expected [p, q], got {list(sig)}")
    if sig != consts.signature:
        raise InputError(f"component file signature {list(sig)} does not match "
                         f"the signature {list(consts.signature)} of this run")
    values = []
    for fam in CURVATURE_FAMILIES:
        arity, symmetric = FAMILIES[fam][:2]
        if not arity:
            values.append(_gr_from_json(doc.get(fam, {"re": "0", "im": "0"}), fam))
            continue
        t = IndexedTensor(n, slots("l" * arity))
        entries = doc.get(fam, [])
        if not isinstance(entries, list):
            raise InputError(f"{fam}: expected a list of entries, got {entries!r}")
        for k, entry in enumerate(entries):
            where = f"{fam}[{k}]"
            if not isinstance(entry, dict):
                raise InputError(f"{where}: expected an object, got {entry!r}")
            idx = _ints_from_json(entry.get("idx"), f"{where}.idx")
            t.set(idx, t.get(*idx) + _gr_from_json(entry, where))
        values.append(symmetrize(t) if symmetric else t)
    out = CurvatureComponents(n, *values)
    out.validate(consts)
    return out


def load_components(path: str, consts: StandardConstants) -> CurvatureComponents:
    """Read a component file; InputError if it is not JSON, is malformed
    or its components are not admissible."""
    with open(path) as fh:
        try:
            return components_from_json(json.load(fh), consts)
        except InputError:
            raise
        except ValueError as ex:
            raise InputError(f"component file: {ex}") from None


# ---------------------------------------------------------------------------
# cochains


class _Layout(NamedTuple):
    """The tables of one n behind ``column``."""

    gkeys: Tuple[Key, ...]
    gindex: Mapping[Key, int]  # g_- key -> its position i
    keys: Tuple[Key, ...]
    index: Mapping[Key, int]  # coordinate key -> its position k


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    keys = tuple(coframe.coord_keys(n))
    g = sum(coframe.grade(k) < 0 for k in keys)  # the g_- keys lead the coordinate keys
    index = {k: i for i, k in enumerate(keys)}
    return _Layout(keys[:g], MappingProxyType({k: index[k] for k in keys[:g]}), keys,
                   MappingProxyType(index))


def gminus_keys(n: int) -> Tuple[Key, ...]:
    """Ordered basis labels of g_-: E_s then Z_a then Z_ā, one shared
    tuple per n."""
    return _layout(n).gkeys


def column(n: int, x: Key, y: Key, key: Key) -> Tuple[int, int]:
    """Where coordinate ``key`` of K(x, y) is stored: (column, sign) with
    K(x, y)[key] = sign * row[column].  The column is (i * g + j) * dim + k
    for the gminus_keys positions i < j of x and y, g the number of g_-
    keys and k the position of key among the dim coordinate keys, the
    numbering of every cochain row and matrix of this module.  The sign is
    -1 when x comes after y, and 0 (with column -1) when x == y."""
    lay = _layout(n)
    i, j = lay.gindex[x], lay.gindex[y]
    if i == j:
        return -1, 0
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    return (i * len(lay.gkeys) + j) * len(lay.keys) + lay.index[key], sign


@lru_cache(maxsize=None)
def _pair_columns(n: int, x: Key, y: Key) -> Tuple[Mapping[int, Key], int]:
    """Column -> coordinate key over the columns of K(x, y), in key order,
    and the sign they are read with; ({}, 0) when x == y."""
    at: Dict[int, Key] = {}
    for key in _layout(n).keys:
        col, sign = column(n, x, y, key)
        at[col] = key
    return MappingProxyType(at if sign else {}), sign


def _canonical(den: int, ints: Dict[int, Tuple[int, int]]
               ) -> Tuple[int, Dict[int, Tuple[int, int]]]:
    """The row (den, ints), den > 0, divided by the gcd of den and every
    part: den 1 when ints is empty."""
    g = den
    for re, im in ints.values():
        g = gcd(g, re, im)
        if g == 1:
            return den, ints
    return den // g, {col: (re // g, im // g) for col, (re, im) in ints.items()}


class Cochain2:
    """Antisymmetric map on pairs of g_- basis vectors, stored as one
    canonical Gaussian-integer row: ``ints`` maps ``column(n, x, y, key)``
    to (re, im), the nonzero value K(e_i, e_j)[key] = (re + i im) / ``den``
    for i < j, in ascending column order, with den > 0 and
    gcd(den, every part) == 1, so that equal cochains are stored alike.
    The constructor takes ``ints`` in column order and reduces it.  ``get``
    and ``set_pair`` view it pair by pair; ``row`` decodes it whole."""

    def __init__(self, n: int, den: int = 1,
                 ints: Optional[Dict[int, Tuple[int, int]]] = None):
        self.n = n
        self.den, self.ints = _canonical(den, {} if ints is None else ints)

    @property
    def row(self) -> Dict[int, GaussRational]:
        """Column -> value, in column order, each value divided out."""
        den, new = self.den, GaussRational.from_ints
        return {col: new(re, im, den) for col, (re, im) in self.ints.items()}

    def set_pair(self, x: Key, y: Key, value: LieCoord) -> None:
        """K(x, y) = value, and so K(y, x) = -value."""
        at, sign = _pair_columns(self.n, x, y)
        if not sign:
            raise ValueError("cochain argument pair must be distinct")
        vals = {col: v for col, key in at.items() if (v := value.c.get(key)) is not None}
        dv, ints = cleared(vals.values())
        den = lcm(self.den, dv)
        old, fv = den // self.den, sign * (den // dv)
        row = {col: (re * old, im * old) for col, (re, im) in self.ints.items() if col not in at}
        row.update((col, (re * fv, im * fv)) for col, (re, im) in zip(vals, ints) if re or im)
        self.den, self.ints = _canonical(den, dict(sorted(row.items())))

    def get(self, x: Key, y: Key) -> LieCoord:
        at, sign = _pair_columns(self.n, x, y)
        ints, den, new = self.ints, sign * self.den, GaussRational.from_ints
        # the view intersection walks the shorter of the two
        return LieCoord.adopt(self.n, {at[col]: new(*ints[col], den)
                                       for col in sorted(at.keys() & ints.keys())})

    def is_zero(self) -> bool:
        return not self.ints

    def in_lemma_space(self) -> bool:
        """Values confined to sp(n) + g_1 + g_2 (no eta/theta/phi0/phi_s)."""
        return self.ints.keys() <= _lemma_columns(self.n)[1]


# the coordinate families of sp(n) + g_1 + g_2
_LEMMA = ("Gam", "phiU", "psi")


@lru_cache(maxsize=None)
def _lemma_columns(n: int) -> Tuple[Tuple[int, ...], FrozenSet[int]]:
    """The columns of every sp(n) + g_1 + g_2 coordinate, ascending, and
    as a set."""
    gkeys = gminus_keys(n)
    cols = tuple(col for i, x in enumerate(gkeys) for y in gkeys[i + 1:]
                 for col, key in _pair_columns(n, x, y)[0].items() if key[0] in _LEMMA)
    return cols, frozenset(cols)


Cochain1 = Dict[Key, LieCoord]


def random_lemma_cochain(rng: random.Random, n: int, span: int = 3) -> Cochain2:
    """Random antisymmetric cochain valued in sp(n) + g_1 + g_2: pair by
    pair, each lemma coordinate in coord_keys order, the nonzero draws
    written into the row as ``random_gauss_ints`` gives them."""
    cols = _lemma_columns(n)[0]
    den, ints = random_gauss_ints(rng, span, 2, len(cols))
    return Cochain2(n, den, {col: v for col, v in zip(cols, ints) if v != (0, 0)})


# ---------------------------------------------------------------------------
# assembling the curvature cochain from components


# one compiled symbol read: the curvature family whose field it reads (a
# control family reads its base family), the entry key in a SymTensor
# (sorted) and in an IndexedTensor (as written; () for a scalar), and
# whether the value is conjugated
Read = Tuple[str, Tuple[int, ...], Tuple[int, ...], bool]


class KappaPlan(NamedTuple):
    """The coordinate two-forms compiled for evaluation.  A cell is a
    g_- pair with a coordinate, numbered by its ``column``.  ``groups``
    holds each symbol monomial, with its reads compiled, the columns of
    the cells it feeds and the coefficient it feeds each with, cleared,
    grouped by the families it reads: (families, ((reads, columns,
    coefficients (re, im) over ``den``), ...)).  ``top`` is the highest
    degree of a monomial."""

    groups: Tuple[Tuple[Tuple[str, ...], Tuple[Tuple[Tuple[Read, ...], Tuple[int, ...],
                                                     Tuple[Tuple[int, int], ...]], ...]], ...]
    den: int
    top: int


def _compile_read(sym: Sym) -> Read:
    fam = CONTROL_FAMILIES.get(sym.family, sym.family)
    if fam not in CURVATURE_FAMILIES:
        raise KeyError(f"not a curvature family: {sym.family}")
    return fam, tuple(sorted(sym.idx)), tuple(sym.idx), sym.conj


def _compile_plan(n: int, forms: Dict[Key, Form]) -> KappaPlan:
    gkeys = gminus_keys(n)
    by_mono: Dict[Mono, List[Tuple[int, GaussRational]]] = {}
    for coord, form in forms.items():
        # the g_- keys lead coord_keys: a generator's id is its g_- index,
        # and a pair's low bit comes first, so every sign is 1
        for mask, poly in form.terms.items():
            i, j = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            col = column(n, gkeys[i], gkeys[j], coord)[0]
            for smono, coeff in poly.terms.items():
                by_mono.setdefault(smono, []).append((col, coeff))
    den, ints = cleared([coeff for terms in by_mono.values() for _, coeff in terms])
    shared: Dict[Tuple[int, int], Tuple[int, int]] = {}
    ints = iter([shared.setdefault(c, c) for c in ints])  # each distinct pair stored once
    groups: Dict[Tuple[str, ...], list] = {}
    for smono, terms in by_mono.items():
        reads = tuple(_compile_read(s) for s in smono)
        fams = tuple(f for f in CURVATURE_FAMILIES if any(r[0] == f for r in reads))
        # zip takes from ints only while terms remain
        groups.setdefault(fams, []).append(
            (reads, tuple(col for col, _ in terms), tuple(c for _, c in zip(terms, ints))))
    return KappaPlan(tuple((fams, tuple(g)) for fams, g in groups.items()), den,
                     max((len(smono) for smono in by_mono), default=0))


# (n, signature, tamper) -> the coordinate two-forms and their plan
_KAPPA_CACHE: Dict[Tuple[int, Tuple[int, int], Optional[str]],
                   Tuple[Dict[Key, Form], KappaPlan]] = {}


def _kappa(n: int, signature: Optional[Tuple[int, int]],
           tamper: Optional[str]) -> Tuple[Dict[Key, Form], KappaPlan]:
    from .rules import build_rules
    sig = tuple(signature) if signature else (n, 0)
    key3 = (n, sig, tamper)
    if key3 in _KAPPA_CACHE:
        return _KAPPA_CACHE[key3]
    curved = build_rules(n, "curved", sig, tamper=tamper)
    flat = build_rules(n, "flat", sig)
    out: Dict[Key, Form] = {}
    for key in coframe.coord_keys(n):
        if key[0] not in _LEMMA:
            continue
        gid = curved.ext.gid[key]
        diff = curved.gen_rules[gid] - flat.gen_rules[gid]
        for mask in diff.terms:
            low, high = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            if mask.bit_count() != 2 or any(coframe.grade(curved.ext.keys[g]) >= 0
                                            for g in (low, high)):
                raise AssertionError("curvature form is not a semibasic two-form")
        out[key] = diff
    _KAPPA_CACHE[key3] = hit = (out, _compile_plan(n, out))
    return hit


def kappa_coordinate_forms(n: int, signature: Tuple[int, int] = None,
                           tamper: Optional[str] = None) -> Dict[Key, Form]:
    """The curvature two-form of every sp(n)+g_1+g_2 coordinate: the
    curved structure equation minus its flat part.  Each is semibasic
    with curvature-symbol coefficients.  tamper='unsym-S' keeps the S
    symbols of the Gamma coordinate uncanonicalized so that symmetry
    violations in the input stay visible (negative control).  Built once
    per (n, signature, tamper), together with the plan assemble_kappa
    evaluates."""
    return _kappa(n, signature, tamper)[0]


def _field_entries(compo: CurvatureComponents, n: int
                   ) -> Dict[str, Tuple[Mapping[Tuple[int, ...], GaussRational], bool]]:
    """Each curvature family -> (entries, sorted): the stored entries of
    its field, a scalar as {(): value}, and whether they are keyed by
    sorted index.  A zero field has no entries."""
    out = {}
    for fam in CURVATURE_FAMILIES:
        arity = FAMILIES[fam][0]
        t = getattr(compo, fam.lower())
        if not arity:
            out[fam] = ({} if t.is_zero() else {(): t}), True
            continue
        if t.n != n or len(t.slots) != arity:
            raise ValueError(f"{fam} is not an n = {n} array with {arity} slots")
        out[fam] = t.entries, isinstance(t, SymTensor)
    return out


def _kappa_row(compo: CurvatureComponents, model: SpModel,
               validate: bool = True, tamper: Optional[str] = None
               ) -> Tuple[int, Dict[int, Tuple[int, int]]]:
    """The row of ``assemble_kappa`` in Python integers: its nonzero
    columns, ascending, over one denominator.  The stored entries of every
    nonzero field are cleared once, together, over their lcm L; a
    monomial of degree d is the product of its entries times L^(top - d),
    so that every monomial lands over L^top, and the plan's coefficients
    are cleared in the plan."""
    if validate:
        compo.validate(model.consts)
    n = model.n
    plan = _kappa(n, model.consts.signature, tamper)[1]
    fields = _field_entries(compo, n)
    L, ints = cleared([v for entries, _ in fields.values() for v in entries.values()])
    ints = iter(ints)  # read in field order; zip takes from it only while keys remain
    table = {fam: (dict(zip(entries, ints)), by_sorted)
             for fam, (entries, by_sorted) in fields.items()}
    lift = [L ** (plan.top - d) for d in range(plan.top + 1)]
    acc: Dict[int, Tuple[int, int]] = {}
    for fams, monos in plan.groups:
        if not all(table[f][0] for f in fams):
            continue  # a zero family: every monomial of the group vanishes
        for reads, cols, coeffs in monos:
            re, im = lift[len(reads)], 0
            for fam, skey, key, conj in reads:
                entries, by_sorted = table[fam]
                v = entries.get(skey if by_sorted else key)
                if v is None:
                    break
                vr, vi = v
                if conj:
                    vi = -vi
                re, im = re * vr - im * vi, re * vi + im * vr
            else:
                for col, (cr, ci) in zip(cols, coeffs):
                    xr, xi = cr * re - ci * im, cr * im + ci * re
                    cur = acc.get(col)
                    acc[col] = (xr, xi) if cur is None else (cur[0] + xr, cur[1] + xi)
    return plan.den * L ** plan.top, {col: v for col in sorted(acc) if (v := acc[col]) != (0, 0)}


def assemble_kappa(compo: CurvatureComponents, model: SpModel,
                   validate: bool = True, tamper: Optional[str] = None) -> Cochain2:
    """Evaluate the curvature coordinate two-forms on all basis pairs,
    with the convention (a^b)(X, Y) = a(X) b(Y) - a(Y) b(X).  Each
    symbol monomial is evaluated once, in Python integers, from the reads
    and cleared coefficients the plan compiled: each field's entries are
    fetched and cleared once and read by key, and the monomials of a
    family group that reads a zero field are skipped with one test.  Only
    a nonzero monomial is added into the columns it feeds
    (``_kappa_row``), and the row is kept in integers, reduced; no column
    is divided.  ``validate=False``
    with ``tamper='unsym-S'`` admits invalid components, so that symmetry
    violations surface as nonzero normality residuals instead."""
    return Cochain2(model.n, *_kappa_row(compo, model, validate, tamper))


# ---------------------------------------------------------------------------
# the Kostant codifferential and the trace conditions as matrices
#
# Both codifferentials and the trace conditions are linear in K.  Each is
# a ``linear.int_matrix`` built on first use and kept on the SpModel, as
# dual_brackets() is: input column -> the entries (output, (re, im)), its
# input columns numbered by ``column``, as K's row is.  An evaluation
# multiplies K's integer row by the matrix in one ``linear.product_into``
# and decodes the outputs.  Nothing stored in K, dual_frames() or
# dual_brackets() is modified.


def _kept(model: SpModel, attr: str, build) -> IntMatrix:
    """The matrix ``build(model)``, built on first use and kept on the
    model as ``attr``."""
    table = getattr(model, attr, None)
    if table is None:
        table = build(model)
        setattr(model, attr, table)
    return table


def _put(acc: Dict[Tuple[int, int], GaussRational], model: SpModel,
         x: Key, y: Key, key: Key, out: int, coeff: GaussRational) -> None:
    """Add coeff * K(x, y)[key] to the output ``out`` of a matrix being
    built as (column, output) -> entry."""
    col, sign = column(model.n, x, y, key)
    if sign and not coeff.is_zero():
        cur = acc.get((col, out), ZERO)
        acc[col, out] = cur + coeff if sign > 0 else cur - coeff


def _apply(K: Union[Cochain2, Tuple[int, Dict[int, Tuple[int, int]]]], model: SpModel,
           attr: str, build) -> Tuple[int, Dict[int, List[int]]]:
    """K times the matrix kept as ``attr``: output -> [re, im] over the
    returned denominator, zeros included.  K's integer row, of a
    ``Cochain2`` or as ``_kappa_row`` gives it, is the product's one row,
    read in place through ``.items()``; only its entries in the matrix's
    columns are read."""
    den, rows = _kept(model, attr, build)
    dk, row = (K.den, K.ints) if isinstance(K, Cochain2) else K
    out: Dict[int, List[int]] = {}
    product_into({0: out}, {0: row.items()}, rows)
    return den * dk, out


def _cochain1(model: SpModel, den: int, values: Dict[int, List[int]]) -> Cochain1:
    """The outputs a * dim + k -> [re, im] over den as a Cochain1: g_- keys
    in order, coordinates ascending."""
    n, keys, dim, new = model.n, model.keys, model.dim, GaussRational.from_ints
    gkeys = gminus_keys(n)
    out: Dict[Key, Dict[Key, GaussRational]] = {ka: {} for ka in gkeys}
    for pos in sorted(values):
        re, im = values[pos]
        if re or im:
            a, k = divmod(pos, dim)
            out[gkeys[a]][keys[k]] = new(re, im, den)
    return {ka: LieCoord.adopt(n, coords) for ka, coords in out.items()}


def _build_direct(model: SpModel) -> IntMatrix:
    """D_direct: output a * dim + k is coordinate k of the sum over the
    dual pairs (hat, e_b) of 2 [hat, K(e_a, e_b)] - K([hat, e_a]_-, e_b),
    with a column for every coordinate.  Built in Python integers: the
    dual frames and the [hat, e_a]_- are cleared over one denominator, and
    the ad matrix of each hat is summed from the structure-constant rows."""
    sc, scale = model.structure_constants()
    n, keys, dim, index = model.n, model.keys, model.dim, model.key_index
    brackets = model.dual_brackets()
    pairs = next(iter(brackets.values()))
    den, ints = cleared([v for hat, _, _ in pairs for v in hat.c.values()] + [
        v for rows in brackets.values() for _, _, m in rows for v in m.c.values()])
    ints = iter(ints)  # read in that order; zip takes from it only while keys remain
    ads = {}  # e_b -> ad(hat) over den * scale: column k -> {l: [re, im]}
    for hat, kb, _ in pairs:
        ads[kb] = ad = [{} for _ in range(dim)]
        for key, (hr, hi) in zip(hat.c, ints):
            for col, targets in zip(ad, sc[index[key]]):
                for l, cr, ci in targets:
                    cur = col.setdefault(l, [0, 0])
                    cur[0] += hr * cr - hi * ci
                    cur[1] += hr * ci + hi * cr
    acc: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def add(x: Key, y: Key, key: Key, out: int, f: int, re: int, im: int) -> None:
        col, sign = column(n, x, y, key)
        if sign and (re or im):
            cr, ci = acc.get((col, out), (0, 0))
            acc[col, out] = cr + sign * f * re, ci + sign * f * im

    for a, (ka, rows) in enumerate(brackets.items()):
        for _, kb, m in rows:
            for key, col in zip(keys, ads[kb]):
                for l, (re, im) in col.items():
                    add(ka, kb, key, a * dim + l, 2, re, im)
            for kx, (re, im) in zip(m.c, ints):
                for k, key in enumerate(keys):
                    add(kx, kb, key, a * dim + k, -scale, re, im)
    return int_matrix(acc, den * scale)


def kostant_codiff_direct(K: Cochain2, model: SpModel) -> Cochain1:
    """The bracket definition over the trace-dual frames: sum over the
    dual pairs (hat, e_b) of 2 [hat, K(e_a, e_b)] - K([hat, e_a]_-, e_b),
    for K valued anywhere in g.  Applied as the matrix D_direct, built once
    per model from ``dual_brackets()`` and the structure constants."""
    return _cochain1(model, *_apply(K, model, "_direct_map", _build_direct))


# The probe of each slot constant of the closed formula, in report order:
# (constant, g_- pair, coordinate) of a delta cochain that feeds that slot
# alone; "p" stands for the pi-partner of the index 1.
_CLOSED_PROBES = (
    ("c_eta23p", (("theta", 1, False), ("theta", "p", False)), ("psi", 1)),
    ("c_eta23m", (("theta", 1, True), ("theta", "p", True)), ("psi", 1)),
    ("c_eta1", (("theta", 1, False), ("theta", 1, True)), ("psi", 1)),
    ("c_E1", (("eta", 1), ("theta", 1, False)), ("phiU", 1, False)),
    ("c_E23p", (("eta", 1), ("theta", 1, False)), ("phiU", "p", True)),
    ("c_E23m", (("eta", 1), ("theta", 1, True)), ("phiU", "p", False)),
    ("c_gam", (("eta", 1), ("theta", 1, True)), ("Gam", 1, "p")),
)


def codiff_closed_constants(model: SpModel) -> dict:
    """Calibrate the seven slot constants of the closed trace-condition
    formula against the direct form, and record the printed literals next
    to them.  Each constant is read against the closed formula's own
    slot: on the delta cochain K of its probe, at the first nonzero
    coordinate of the closed formula with that constant 1 and the other
    six 0, it is the direct value divided by the closed one.  Nothing
    here checks that the two are proportional: a slot of the wrong shape
    shows up as direct != closed in ``qcframe verify normality``."""
    n = model.n
    p = model.consts.partner(1)
    out = {"n": n}
    for name, pair, coord in _CLOSED_PROBES:
        ka, kb, key = (tuple(p if x == "p" else x for x in k) for k in (*pair, coord))
        K = Cochain2(n)
        K.set_pair(ka, kb, LieCoord(n, {key: ONE}))
        unit = {other: ONE if other == name else ZERO for other, _, _ in _CLOSED_PROBES}
        closed = kostant_codiff_closed(K, model, unit)
        ka, key, v = next((ka, key, v) for ka, lc in closed.items() for key, v in lc.c.items())
        out[name] = kostant_codiff_direct(K, model)[ka].get(key) / v
    out["printed"] = {
        "c_eta23p": str(-gr(Fraction(1, 4 * (2 * n + 7)))),
        "c_eta1": str(gr(Fraction(1, 4 * (2 * n + 7)))),
        "c_E1": str(gr(Fraction(4 * (2 * n + 3), 2 * n + 7))),
        "c_gam": "-2",
    }
    return out


# -- the closed formula ------------------------------------------------------

# the slot constants in _CLOSED_PROBES order; output (a * dim + k) * 7 + s
# of the closed matrix is scaled by constant s
_SLOTS = tuple(name for name, _, _ in _CLOSED_PROBES)

# (slot, barred, terms (alpha, coordinate, c), frame): for each g_- key
# e_a, the slot's constant times sum c K(e_a, theta_alpha)[coordinate],
# theta_alpha barred or not, times the frame, added to the output of e_a
SlotRead = Tuple[str, bool, Tuple[Tuple[int, Key, GaussRational], ...], Dict[Key, GaussRational]]


class _ClosedTerms(NamedTuple):
    """The closed formula as term lists, the data its matrix is built
    from.  ``eta``: (slot, output key, terms (x, y, c)), the slot's
    constant times sum c K(x, y) added to that output.  ``gam`` and
    ``gam_bar``: the Gamma slots, read from K(e_a, Zbar_alpha) and from
    the barred Gamma coordinates of K(e_a, Z_alpha); ``ehat``: the Ehat
    slots."""

    eta: Tuple[Tuple[str, Key, Tuple[Tuple[Key, Key, GaussRational], ...]], ...]
    gam: Tuple[SlotRead, ...]
    gam_bar: Tuple[SlotRead, ...]
    ehat: Tuple[SlotRead, ...]


def _closed_terms(model: SpModel) -> _ClosedTerms:
    n = model.n
    c = model.consts
    fr = model.dual_frames()
    R = range(1, 2 * n + 1)
    th = {a: ("theta", a, False) for a in R}
    thb = {a: ("theta", a, True) for a in R}

    # the three eta-slot combinations
    kzz, pik, pikb = [], [], []
    for a in R:
        for s in R:
            kzz.append((thb[s], th[a], c.g_up(a, s)))
            kzz.append((th[s], thb[a], -c.g_up(s, a)))
            pik.append((th[a], th[s], c.pi_up(a, s)))
            pikb.append((thb[a], thb[s], c.pi_up(a, s).conj()))

    def times(w, terms):
        return tuple((x, y, w * v) for x, y, v in terms if not v.is_zero())

    eta = (("c_eta23p", ("eta", 2), times(ONE, pik)), ("c_eta23p", ("eta", 3), times(I, pik)),
           ("c_eta23m", ("eta", 2), times(ONE, pikb)), ("c_eta23m", ("eta", 3), times(-I, pikb)),
           ("c_eta1", ("eta", 1), times(I, kzz)))

    # Gamma slots: Gamma^{ā}_s(x) = g^{ā t} Gam_{s t}(x) and the conjugate
    # pattern with the barred Gamma coordinate of x, each for beta times
    # the lowered hat frame Zhat_b, respectively Zhat_b̄
    gam, gam_bar = [], []
    for be in R:
        zlow: Dict[Key, GaussRational] = {}
        zlow_bar: Dict[Key, GaussRational] = {}
        for t in R:
            axpy(zlow, c.g(be, t), fr["Zhatbar"][t - 1].c)
            axpy(zlow_bar, c.g(t, be), fr["Zhat"][t - 1].c)
        plain, barred = [], []
        for si in R:
            pi_bs = c.pi_up(be, si)
            if pi_bs.is_zero():
                continue
            for al in R:
                for t in R:
                    gat = c.g_up(t, al)
                    if gat.is_zero():
                        continue
                    plain.append((al, coframe.gam_key(si, t), pi_bs * gat))
                    coeff, key = coframe.gamma_bar(c, si, t)
                    barred.append((al, key, pi_bs.conj() * gat.conj() * coeff))
        gam.append(("c_gam", True, tuple(plain), zlow))
        gam_bar.append(("c_gam", False, tuple(barred), zlow_bar))

    # Ehat slots: the E1 sums over K(e_a, Z_alpha) and over K(e_a, Zbar_alpha)
    # times i Ehat_1, and the E2 + i E3 and E2 - i E3 slots
    e1, e2, e3 = (fr["Ehat"][s].c for s in range(3))
    e23p: Dict[Key, GaussRational] = dict(e2)
    e23m: Dict[Key, GaussRational] = dict(e2)
    axpy(e23p, I, e3)
    axpy(e23m, -I, e3)
    ie1 = {k: I * v for k, v in e1.items()}
    ehat = (
        ("c_E1", False, tuple((al, ("phiU", al, False), ONE) for al in R), ie1),
        ("c_E1", True, tuple((al, ("phiU", al, True), -ONE) for al in R), ie1),
        ("c_E23p", False, tuple((al, ("phiU", si, True), c.pi_u_lbar(al, si))
                                for al in R for si in R), e23p),
        ("c_E23m", True, tuple((al, ("phiU", si, False), c.pi_ubar_l(al, si))
                               for al in R for si in R), e23m))
    return _ClosedTerms(eta, tuple(gam), tuple(gam_bar), ehat)


def _build_closed(model: SpModel) -> IntMatrix:
    """The closed matrix, from the term lists of ``_closed_terms``."""
    t = _closed_terms(model)
    dim, index = model.dim, model.key_index
    gkeys = gminus_keys(model.n)
    slot = {name: s for s, name in enumerate(_SLOTS)}
    acc: Dict[Tuple[int, int], GaussRational] = {}
    for name, ka, terms in t.eta:
        out = index[ka] * dim  # the g_- keys lead the coordinate keys
        for x, y, v in terms:
            for k, key in enumerate(model.keys):
                _put(acc, model, x, y, key, (out + k) * 7 + slot[name], v)
    for name, barred, terms, frame in t.gam + t.gam_bar + t.ehat:
        for al, key, v in terms:
            for zk, zv in frame.items():
                vz, out = v * zv, index[zk] * 7 + slot[name]
                for a, ka in enumerate(gkeys):
                    _put(acc, model, ka, ("theta", al, barred), key, a * dim * 7 + out, vz)
    return int_matrix(acc)


def _fold_slots(den: int, values: Dict[int, List[int]],
                consts: dict) -> Tuple[int, Dict[int, List[int]]]:
    """The slot-tagged outputs (pos * 7 + slot) of the closed matrix,
    each times its slot constant and summed per pos, over the returned
    denominator."""
    dc, cs = cleared([consts[name] for name in _SLOTS])
    tot: Dict[int, List[int]] = {}
    for out, (re, im) in values.items():
        pos, s = divmod(out, 7)
        cr, ci = cs[s]
        cur = tot.setdefault(pos, [0, 0])
        cur[0] += re * cr - im * ci
        cur[1] += re * ci + im * cr
    return den * dc, tot


def kostant_codiff_closed(K: Cochain2, model: SpModel,
                          consts: Optional[dict] = None) -> Cochain1:
    """The closed trace-condition formula with calibrated slot
    constants; requires K valued in sp(n) + g_1 + g_2.  Applied as one
    matrix built once per model, whose outputs are tagged with the slot
    constant that scales them; the constants are read on every call and
    folded in after the product.  Without ``consts`` they are calibrated
    first."""
    if not K.in_lemma_space():
        raise ValueError("cochain has components outside sp(n)+g_1+g_2")
    if consts is None:
        consts = codiff_closed_constants(model)
    return _cochain1(model, *_fold_slots(*_apply(K, model, "_closed_map", _build_closed),
                                         consts))


# ---------------------------------------------------------------------------
# normality certificate and homogeneity


_TRACES = ("g_trace", "pi_trace", "Gamma_trace", "phi_trace", "pi_phi_trace")


def _build_trace(model: SpModel) -> IntMatrix:
    """T: output 5 * m + t belongs to the trace condition ``_TRACES[t]``,
    which holds when all of its outputs vanish.  The g and pi traces have
    one output m per coordinate, the Gamma trace one per g_- key x and
    alpha, the phi and pi-phi traces one per x."""
    n, c, index = model.n, model.consts, model.key_index
    R = range(1, 2 * n + 1)
    acc: Dict[Tuple[int, int], GaussRational] = {}
    for a in R:
        for bq in R:
            for t, y, coeff in ((0, ("theta", bq, True), c.g_up(a, bq)),
                                (1, ("theta", bq, False), c.pi_up(a, bq))):
                if not coeff.is_zero():
                    for key, k in index.items():
                        _put(acc, model, ("theta", a, False), y, key, 5 * k + t, coeff)
    # Gamma_trace per alpha and phi_trace read K(Zbar_s, x), pi_phi_trace
    # reads K(Z_beta, x)
    for m, kx in enumerate(gminus_keys(n)):
        for al in R:
            for s in R:
                zbar, z = ("theta", s, True), ("theta", s, False)
                for bq in R:
                    _put(acc, model, zbar, kx, coframe.gam_key(al, bq),
                         5 * (m * 2 * n + al - 1) + 2, c.g_up(bq, s))
                for t in R:
                    phi = ("phiU", t, True)
                    _put(acc, model, zbar, kx, phi, 5 * m + 3, c.g_up(al, s) * c.g(t, al))
                    _put(acc, model, z, kx, phi, 5 * m + 4, c.pi_up(al, s) * c.g(t, al))
    return int_matrix(acc)


def trace_conditions(K: Cochain2, model: SpModel) -> Dict[str, bool]:
    """The five contraction identities the curvature cochain satisfies,
    applied as the matrix T, built once per model: a condition holds when
    all of its outputs vanish."""
    return _trace_verdict(_apply(K, model, "_trace_map", _build_trace)[1])


def _trace_verdict(values: Dict[int, List[int]]) -> Dict[str, bool]:
    """Each trace condition -> whether all of its outputs of T vanish."""
    broken = {out % 5 for out, (re, im) in values.items() if re or im}
    return {name: t not in broken for t, name in enumerate(_TRACES)}


def check_normality(compo: CurvatureComponents, model: SpModel,
                    closed_consts: Optional[dict] = None,
                    validate: bool = True, tamper: Optional[str] = None) -> dict:
    """Evaluate kappa, both codifferential routes and the five trace
    conditions; everything must vanish exactly for valid input.  From the
    compiled plan to the verdict everything runs in Python integers:
    kappa is the integer row ``_kappa_row`` (validated when ``validate``
    is true), the closed formula's lemma-space precondition is tested on
    its columns, and each of the three is one product of that row with a
    matrix kept on the model, which reads only the row's entries in its
    own columns.  No ``Cochain2`` is built and no output is divided: the
    two routes are compared as integers over their denominators.  The
    direct and closed matrices are built independently, from the brackets
    and from the closed term lists, so comparing the two routes compares
    them.  The closed constants are calibrated on every call that does not
    pass ``closed_consts``.

    ``direct_equals_closed`` does not certify the closed constants: on
    admissible components kappa is normal and every slot term of the
    closed formula vanishes by itself, so a wrong constant, or a slot of
    the wrong shape, leaves it true.  ``codiff_closed_constants`` reads
    each constant against its own closed slot and checks no shape; the
    comparison of the two routes on random lemma cochains in ``qcframe
    verify normality`` is what certifies the seven constants and the
    slots they scale."""
    K = _kappa_row(compo, model, validate, tamper)
    if not K[1].keys() <= _lemma_columns(model.n)[1]:
        raise ValueError("cochain has components outside sp(n)+g_1+g_2")
    dd, direct = _apply(K, model, "_direct_map", _build_direct)
    if closed_consts is None:
        closed_consts = codiff_closed_constants(model)
    dc, closed = _fold_slots(*_apply(K, model, "_closed_map", _build_closed), closed_consts)
    traces = _trace_verdict(_apply(K, model, "_trace_map", _build_trace)[1])
    direct_zero = is_zero(direct)
    return {
        "trace_conditions": traces,
        "dstar_direct_zero": direct_zero,
        "dstar_closed_zero": is_zero(closed),
        "direct_equals_closed": equal(dd, direct, dc, closed),
        "normal": direct_zero and all(traces.values()),
    }


@lru_cache(maxsize=None)
def _weights(n: int) -> Tuple[int, ...]:
    """Column -> its homogeneity k - i - j: the coordinate lies in g_k,
    the pair's first key in g_i and its second in g_j."""
    lay = _layout(n)
    grades = [coframe.grade(k) for k in lay.keys]
    g = len(lay.gkeys)
    return tuple(gk - grades[i] - grades[j] for i in range(g) for j in range(g) for gk in grades)


def homogeneity_classify(K: Cochain2) -> Dict[int, Cochain2]:
    """Split K by the grading weight: the piece of K(x, y) in g_k for
    x in g_i, y in g_j contributes at homogeneity k - i - j, read off
    ``_weights`` column by column.  The pieces keep K's integer columns in
    K's order, each piece reduced, and come in the order of their first
    columns."""
    weight = _weights(K.n)
    rows: Dict[int, Dict[int, Tuple[int, int]]] = {}
    for col, v in K.ints.items():
        rows.setdefault(weight[col], {})[col] = v
    return {ell: Cochain2(K.n, K.den, row) for ell, row in rows.items()}


def family_homogeneities(model: SpModel) -> Dict[str, List[int]]:
    """Each curvature family -> the sorted homogeneities of the columns
    its monomials feed in the compiled plan, read off ``_weights``.  kappa
    is linear in the components, so this is where every component set's
    piece of the family sits."""
    weight = _weights(model.n)
    table: Dict[str, set] = {fam: set() for fam in CURVATURE_FAMILIES}
    for fams, monos in _kappa(model.n, model.consts.signature, None)[1].groups:
        found = {weight[col] for _, cols, _ in monos for col in cols}
        for fam in fams:
            table[fam] |= found
    return {fam: sorted(found) for fam, found in table.items()}


def regularity_ok(K: Cochain2) -> bool:
    """kappa^(l) = 0 for l <= 0."""
    return all(ell > 0 for ell in homogeneity_classify(K))
