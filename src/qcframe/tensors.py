"""Indexed tensor algebra over Gaussian rationals.

Tensors carry an ordered list of slots; each slot is either upper or
lower and either barred or unbarred, with index values running 1..2n.
Barred arrays are related to unbarred ones by entrywise complex
conjugation, so only one member of each conjugate pair is ever stored.

The metric g pairs barred with unbarred indices, so raising or lowering
a slot flips its bar.  For mixed two-index arrays written with one index
up and one down, the lower index is always the first slot; the scalar
accessors on StandardConstants (``pi_u_lbar`` and friends) encode that
reading once and for all so formula transcriptions elsewhere cannot get
it wrong.

StandardConstants evaluates each closed formula once, when it is built:
``g``, ``g_up``, ``pi``, ``pi_bar``, ``pi_up``, ``pi_u_lbar`` and
``pi_ubar_l`` become 2n x 2n tables keyed by index pair, and ``partner``
a table keyed by index.  The entries are a few shared, immutable
GaussRationals (0 and the units), so an accessor call is one dict
lookup and builds no new value.  An index outside 1..2n is not in the
tables and raises ValueError naming it.

The quaternionic structure j acts through one more table: pi couples
each index a only to its partner p(a), with the unit m_a = pi^{p(a)bar}_a
(an int, +1 or -1).  ``StandardConstants.j(idx)`` returns p(idx) and the
product m of the units over idx, so (jF)_idx = m conj(F_{p(idx)}) for a
lower-index array F.  ``jmap``, ``coframe.gamma_bar``, the symbol
canonicalization in ``forms`` and the starred-form check in ``rules``
read it instead of working out partner and unit themselves.

A SymTensor is a totally symmetric tensor over slots of one type, stored
once per orbit (the arrangements of one multiset of index values) under
the sorted index tuple, so total symmetry holds by construction.
``symmetrize`` is the one way in from an arbitrary array, and ``full``
the way back to every arrangement.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, Iterable, List, Optional, Tuple

from . import InputError
from .gauss import ONE, ZERO, GaussRational, axpy, cleared, gr, random_gauss_ints

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class IndexSlot:
    variance: str  # UPPER or LOWER
    barred: bool

    def __post_init__(self):
        if self.variance not in (UPPER, LOWER):
            raise ValueError(f"bad variance {self.variance!r}")

    def flipped(self) -> "IndexSlot":
        return IndexSlot(
            UPPER if self.variance == LOWER else LOWER, not self.barred
        )

    def conjugated(self) -> "IndexSlot":
        return IndexSlot(self.variance, not self.barred)


def slots(spec: str) -> Tuple[IndexSlot, ...]:
    """Parse a compact slot spec: 'l' lower, 'L' lower barred,
    'u' upper, 'U' upper barred.  E.g. 'llL' ~ T_{ab c̄}."""
    table = {
        "l": IndexSlot(LOWER, False),
        "L": IndexSlot(LOWER, True),
        "u": IndexSlot(UPPER, False),
        "U": IndexSlot(UPPER, True),
    }
    return tuple(table[ch] for ch in spec)


class IndexedTensor:
    """Sparse exact tensor: absent entries are zero.  ``set`` and the
    constructor check each index; the operations that generate their keys
    valid (copy, scale, jmap, symmetrize, full) fill ``entries`` directly."""

    __slots__ = ("n", "slots", "entries")

    def __init__(self, n: int, slot_list: Iterable[IndexSlot],
                 entries: Optional[Dict[Tuple[int, ...], GaussRational]] = None):
        self.n = n
        self.slots = tuple(slot_list)
        self.entries: Dict[Tuple[int, ...], GaussRational] = {}
        if entries:
            for idx, val in entries.items():
                self.set(idx, val)

    @property
    def dim(self) -> int:
        return 2 * self.n

    def check_index(self, idx: Tuple[int, ...]):
        if len(idx) != len(self.slots):
            raise ValueError(f"index {idx} has wrong length for {len(self.slots)} slots")
        for i in idx:
            if not (1 <= i <= self.dim):
                raise ValueError(f"index value {i} outside 1..{self.dim}")

    def get(self, *idx: int) -> GaussRational:
        self.check_index(idx)
        return self.entries.get(idx, ZERO)

    def set(self, idx: Tuple[int, ...], val) -> None:
        self.check_index(idx)
        val = GaussRational.of(val)
        if val.is_zero():
            self.entries.pop(idx, None)
        else:
            self.entries[idx] = val

    # -- linear structure ------------------------------------------------

    def copy(self) -> "IndexedTensor":
        out = type(self)(self.n, self.slots)
        out.entries = dict(self.entries)
        return out

    def __add__(self, other: "IndexedTensor") -> "IndexedTensor":
        if type(self) is not type(other) or self.slots != other.slots or self.n != other.n:
            raise ValueError("tensor shape mismatch")
        out = self.copy()
        axpy(out.entries, ONE, other.entries)  # same shape: the keys are valid
        return out

    def __neg__(self) -> "IndexedTensor":
        out = type(self)(self.n, self.slots)
        out.entries = {idx: -v for idx, v in self.entries.items()}
        return out

    def __sub__(self, other: "IndexedTensor") -> "IndexedTensor":
        return self + -other

    def scale(self, c) -> "IndexedTensor":
        c = GaussRational.of(c)
        out = type(self)(self.n, self.slots)
        if not c.is_zero():  # a product of nonzero values is nonzero
            out.entries = {idx: c * v for idx, v in self.entries.items()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexedTensor):
            return NotImplemented
        return (type(self) is type(other) and self.n == other.n
                and self.slots == other.slots and self.entries == other.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        kinds = "".join(
            {(LOWER, False): "l", (LOWER, True): "L",
             (UPPER, False): "u", (UPPER, True): "U"}[(s.variance, s.barred)]
            for s in self.slots)
        return f"{type(self).__name__}(n={self.n}, slots='{kinds}', {len(self.entries)} entries)"


class SymTensor(IndexedTensor):
    """A totally symmetric tensor over slots of one type, stored once per
    orbit: ``get`` and ``set`` sort the index, so the entries are keyed
    by sorted index tuples only."""

    __slots__ = ()

    def __init__(self, n: int, slot_list: Iterable[IndexSlot],
                 entries: Optional[Dict[Tuple[int, ...], GaussRational]] = None):
        slot_list = tuple(slot_list)
        if len(set(slot_list)) > 1:
            raise ValueError("a symmetric tensor needs slots of one type")
        super().__init__(n, slot_list, entries)

    def get(self, *idx: int) -> GaussRational:
        return super().get(*sorted(idx))

    def set(self, idx: Tuple[int, ...], val) -> None:
        super().set(tuple(sorted(idx)), val)

    def full(self) -> IndexedTensor:
        """The same tensor with every arrangement stored."""
        out = IndexedTensor(self.n, self.slots)
        out.entries = {member: val for key, val in self.entries.items()
                       for member in _orbit(key)}
        return out


class StandardConstants:
    """The fixed pairing g and symplectic form pi for given n and signature.

    For signature (p, q) the entries g_{a ā} are +1 except at the last q
    positions of each of the two blocks 1..n and n+1..2n, where they are
    -1; this keeps d_a = d_{a+n}, which the compatibility identity
    g^{st̄} pi_{as} pi_{t̄ b̄} = -g_{a b̄} requires.  pi_{a,a+n} = 1 and
    pi_{a+n,a} = -1 throughout.  The precise values are conventional;
    what the rest of the package relies on is hermiticity of g, skewness
    of pi, and the two contraction identities checked in the tests.

    ``j`` reads a table built once from ``pi_ubar_l``: index a ->
    (p(a), m_a), with p the partner involution and m_a = pi^{p(a)bar}_a
    an int unit; m_{p(a)} = -m_a.
    """

    __slots__ = ("n", "signature", "diag", "pi_lower", "_partner", "_g", "_g_up",
                 "_pi", "_pi_bar", "_pi_up", "_pi_u_lbar", "_pi_ubar_l", "_rows", "_cols", "_j")

    def __init__(self, n: int, signature: Tuple[int, int] = None):
        if n < 1:
            raise InputError("n must be a positive integer")
        if signature is None:
            signature = (n, 0)
        p, q = signature
        if p < 0 or q < 0 or p + q != n:
            raise InputError(f"signature {signature} incompatible with n={n}")
        self.n = n
        self.signature = (p, q)
        diag = []
        for a in range(1, 2 * n + 1):
            base = (a - 1) % n + 1  # position within its block of n
            diag.append(Fraction(-1 if base > p else 1))
        self.diag = tuple(diag)

        self.pi_lower = IndexedTensor(n, slots("ll"))
        for a in range(1, n + 1):
            self.pi_lower.set((a, a + n), 1)
            self.pi_lower.set((a + n, a), -1)

        # The closed formulas, evaluated once into the lookup tables; every
        # entry is one of a few shared GaussRationals.
        rng = range(1, 2 * n + 1)
        self._partner = {a: a + n if a <= n else a - n for a in rng}
        shared: Dict[GaussRational, GaussRational] = {}

        def table(formula) -> Dict[Tuple[int, int], GaussRational]:
            return {(a, b): shared.setdefault(v, v)
                    for a in rng for b in rng for v in (formula(a, b),)}

        d = [None] + [gr(x) for x in diag]  # d[a] = g_{a ā}
        pi = self.pi_lower.get
        self._g = table(lambda a, b: d[a] if a == b else ZERO)
        self._g_up = table(lambda a, b: ONE / d[a] if a == b else ZERO)
        self._pi = table(pi)
        self._pi_bar = table(lambda a, b: pi(a, b).conj())
        self._pi_up = table(lambda a, b: d[a] * d[b] * pi(a, b).conj())
        self._pi_u_lbar = table(lambda a, b: d[a] * pi(b, a).conj())
        self._pi_ubar_l = table(lambda a, b: d[a] * pi(b, a))
        tables = {"g": self._g, "g_up": self._g_up, "pi": self._pi, "pi_bar": self._pi_bar,
                  "pi_up": self._pi_up, "pi_u_lbar": self._pi_u_lbar,
                  "pi_ubar_l": self._pi_ubar_l}
        self._rows = {name: {a: tuple((b, v) for b in rng if not (v := t[a, b]).is_zero())
                             for a in rng}
                      for name, t in tables.items()}
        self._cols = {name: {b: tuple((a, v) for a in rng if not (v := t[a, b]).is_zero())
                             for b in rng}
                      for name, t in tables.items()}
        units = {ONE: 1, -ONE: -1}  # a KeyError if some m_a were not a unit
        self._j = {a: (p, units[self._pi_ubar_l[p, a]]) for a, p in self._partner.items()}

    @property
    def dim(self) -> int:
        return 2 * self.n

    def _bad_index(self, *idx) -> ValueError:
        for i in idx:
            if i not in self._partner:
                return ValueError(f"index {i!r} outside 1..{self.dim}")
        return ValueError(f"indices {idx!r} outside 1..{self.dim}")

    def partner(self, a: int) -> int:
        try:
            return self._partner[a]
        except KeyError:
            raise self._bad_index(a) from None

    def row(self, form: str, a: int) -> Tuple[Tuple[int, GaussRational], ...]:
        """The nonzero entries (b, value) of row a of one of the seven
        tables, named as its scalar accessor ("g", "g_up", "pi", "pi_bar",
        "pi_up", "pi_u_lbar", "pi_ubar_l"), b ascending: a sum over the
        second index reads only these.  Built once per instance."""
        rows = self._rows[form]
        try:
            return rows[a]
        except KeyError:
            raise self._bad_index(a) from None

    def col(self, form: str, b: int) -> Tuple[Tuple[int, GaussRational], ...]:
        """The nonzero entries (a, value) of column b of a table named as
        in ``row``, a ascending: a sum over the first index reads only
        these."""
        cols = self._cols[form]
        try:
            return cols[b]
        except KeyError:
            raise self._bad_index(b) from None

    def j(self, idx: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
        """(p(idx), m): the partner of each index and the product of the
        units m_a = pi^{p(a)bar}_a over idx, so that (jF)_idx =
        m conj(F_{p(idx)}) for a lower-index array F; j(()) is ((), 1)."""
        try:
            pairs = [self._j[a] for a in idx]
        except KeyError:
            raise self._bad_index(*idx) from None
        return tuple(p for p, _ in pairs), prod(m for _, m in pairs)

    # -- scalar accessors used in formula transcriptions -----------------
    # All return GaussRational (real-valued for these constants), read
    # from the tables; an index outside 1..2n raises ValueError.

    def g(self, a: int, b: int) -> GaussRational:
        """g_{a b̄} (equally g_{b̄ a} by hermiticity)."""
        try:
            return self._g[a, b]
        except KeyError:
            raise self._bad_index(a, b) from None

    def g_up(self, a: int, b: int) -> GaussRational:
        """g^{a b̄}, the inverse pairing."""
        try:
            return self._g_up[a, b]
        except KeyError:
            raise self._bad_index(a, b) from None

    def pi(self, a: int, b: int) -> GaussRational:
        """pi_{a b}."""
        try:
            return self._pi[a, b]
        except KeyError:
            raise self._bad_index(a, b) from None

    def pi_bar(self, a: int, b: int) -> GaussRational:
        """pi_{ā b̄} = conj(pi_{a b})."""
        try:
            return self._pi_bar[a, b]
        except KeyError:
            raise self._bad_index(a, b) from None

    def pi_up(self, a: int, b: int) -> GaussRational:
        """pi^{a b} = g^{a s̄} g^{b t̄} pi_{s̄ t̄}."""
        try:
            return self._pi_up[a, b]
        except KeyError:
            raise self._bad_index(a, b) from None

    def pi_u_lbar(self, a: int, b: int) -> GaussRational:
        """pi^{a}_{b̄} = g^{a t̄} pi_{b̄ t̄}  (lower index first)."""
        try:
            return self._pi_u_lbar[a, b]
        except KeyError:
            raise self._bad_index(a, b) from None

    def pi_ubar_l(self, a: int, b: int) -> GaussRational:
        """pi^{ā}_{b} = g^{ā t} pi_{b t}  (lower index first)."""
        try:
            return self._pi_ubar_l[a, b]
        except KeyError:
            raise self._bad_index(a, b) from None


# ---------------------------------------------------------------------------
# slot operations


def raise_slot(t: IndexedTensor, slot: int, c: StandardConstants) -> IndexedTensor:
    """Contract slot with g^; the slot's bar and variance both flip."""
    return _contract_metric(t, slot, c, LOWER, "raise_slot expects a lower slot")


def lower_slot(t: IndexedTensor, slot: int, c: StandardConstants) -> IndexedTensor:
    """Contract slot with g; the slot's bar and variance both flip."""
    return _contract_metric(t, slot, c, UPPER, "lower_slot expects an upper slot")


def _contract_metric(t: IndexedTensor, slot: int, c: StandardConstants,
                     variance, mismatch: str) -> IndexedTensor:
    """Contract a slot of the given variance with the diagonal metric (g
    and g^ have the same unit entries, so each entry keeps its key);
    otherwise raise ValueError(mismatch)."""
    if not (0 <= slot < len(t.slots)):
        raise ValueError(f"slot {slot} out of range")
    if t.slots[slot].variance != variance:
        raise ValueError(mismatch)
    if isinstance(t, SymTensor):  # the result is not symmetric
        t = t.full()
    new_slots = list(t.slots)
    new_slots[slot] = t.slots[slot].flipped()
    out = IndexedTensor(t.n, new_slots)
    out.entries = {idx: c.g(idx[slot], idx[slot]) * val for idx, val in t.entries.items()}
    return out


def conj(t: IndexedTensor) -> IndexedTensor:
    """Flip every bar and conjugate every entry, each under its own key."""
    out = type(t)(t.n, (s.conjugated() for s in t.slots))
    out.entries = {idx: val.conj() for idx, val in t.entries.items()}
    return out


def jmap(t: IndexedTensor, c: StandardConstants) -> IndexedTensor:
    """The antilinear endomorphism j: contract each slot of the
    conjugated array with the matching mixed pi.  Slot types are
    preserved; applying j twice gives (-1)^slots."""
    out = type(t)(t.n, t.slots)
    for (key, sign), val in zip(_j_moves(t, c), t.entries.values()):
        val = val.conj()
        out.entries[key] = val if sign > 0 else -val
    return out


def _j_moves(t: IndexedTensor, c: StandardConstants):
    """Where j takes each stored entry of t, in entry order: (key, sign)
    with (jt)[key] = sign conj(t[idx]).

    pi couples each index only to its partner, so the entry at idx goes
    to p(idx) with the unit m of ``c.j(idx)``: an upper slot contributes
    m_b for its index b, a lower slot m_{p(b)} = -m_b, so the sign is m
    negated once per lower slot.  p is a bijection, so every target
    index (or orbit, for a SymTensor) is hit once."""
    sym = isinstance(t, SymTensor)
    keep = -1 if sum(s.variance == LOWER for s in t.slots) % 2 else 1
    for idx in t.entries:
        target, m = c.j(idx)
        yield tuple(sorted(target)) if sym else target, 1 if m == keep else -1


def _orbit(key: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The distinct arrangements of the multiset of index values key."""
    return tuple(sorted(set(itertools.permutations(key))))


def _orbit_size(key: Tuple[int, ...]) -> int:
    """len(_orbit(key)) for a sorted key, without listing the orbit: the
    multinomial k! / prod(m_i!), built one slot at a time, each m_i read
    as a run of equal values in key."""
    size = run = 1
    for i in range(1, len(key)):
        run = run + 1 if key[i] == key[i - 1] else 1
        size = size * (i + 1) // run
    return size


def symmetrize(t: IndexedTensor) -> SymTensor:
    """Total symmetrization over all slots (slots must be of one type).

    The mean over all k! permutations of an entry's slots equals, for
    each orbit, the sum of the orbit's stored entries over the orbit's
    size; it is stored once, under the orbit's sorted index, if nonzero.
    The sums run in Gaussian integers over the lcm of t's denominators,
    and each orbit is divided once."""
    if isinstance(t, SymTensor):
        return t.copy()
    den, ints = cleared(t.entries.values())
    sums: Dict[Tuple[int, ...], List[int]] = {}
    for idx, (re, im) in zip(t.entries, ints):
        key = tuple(sorted(idx))
        cur = sums.get(key)
        if cur is None:
            sums[key] = [re, im]
        else:
            cur[0] += re
            cur[1] += im
    out = SymTensor(t.n, t.slots)
    new = GaussRational.from_ints
    out.entries = {key: new(re, im, den * _orbit_size(key))
                   for key, (re, im) in sums.items() if re or im}
    return out


def j_average(t: IndexedTensor, c: StandardConstants) -> IndexedTensor:
    """Project onto the j-fixed subspace: (t + jt)/2.  Only meaningful
    where j is an involution, i.e. for an even number of slots.  The sum
    runs in Gaussian integers over the lcm of t's denominators, t's keys
    first, then those only jt has, and each entry is divided once."""
    if len(t.slots) % 2 != 0:
        raise ValueError("j_average needs an even number of slots")
    den, ints = cleared(t.entries.values())
    acc = {idx: [re, im] for idx, (re, im) in zip(t.entries, ints)}
    for (key, sign), (re, im) in zip(_j_moves(t, c), ints):
        cur = acc.get(key)
        if cur is None:
            acc[key] = [sign * re, -sign * im]
        else:
            cur[0] += sign * re
            cur[1] -= sign * im
    out = type(t)(t.n, t.slots)
    new = GaussRational.from_ints
    out.entries = {key: new(re, im, 2 * den) for key, (re, im) in acc.items() if re or im}
    return out


def random_tensor(rng: random.Random, n: int, slot_list: Iterable[IndexSlot],
                  span: int = 5) -> IndexedTensor:
    """Every entry from ``random_gauss_ints``, in index order; the indices
    are generated valid, so the nonzero draws are stored without ``set``."""
    out = IndexedTensor(n, slot_list)
    L, ints = random_gauss_ints(rng, span, 3, (2 * n) ** len(out.slots))
    new = GaussRational.from_ints
    out.entries = {idx: new(re, im, L) for idx, (re, im) in zip(
        itertools.product(range(1, 2 * n + 1), repeat=len(out.slots)), ints) if re or im}
    return out


# ---------------------------------------------------------------------------
# sp(n) membership


def is_spn(x: IndexedTensor, c: StandardConstants) -> bool:
    """Membership test for a two-slot array X_{a b̄}: skew-hermitian
    (X_{a b̄} = -X_{b̄ a}) and j-invariant."""
    if x.slots != slots("lL"):
        raise ValueError("is_spn expects slots X_{a b̄}")
    for a in range(1, x.dim + 1):
        for b in range(1, x.dim + 1):
            if x.get(a, b) != -(x.get(b, a).conj()):
                return False
    return jmap(x, c) == x


def spn_from_y(y: SymTensor, c: StandardConstants) -> IndexedTensor:
    """Build X_{a b̄} with X^a_b = pi^{a s} Y_{s b} from a symmetric
    j-invariant Y_{a b}; the result lies in sp(n)."""
    if not isinstance(y, SymTensor) or y.slots != slots("ll"):
        raise ValueError("expects a symmetric Y_{a b}")
    x_mixed = IndexedTensor(y.n, slots("ul"))  # X^a_b, lower index first
    for (s, b), val in y.full().entries.items():
        for a in range(1, y.dim + 1):
            coeff = c.pi_up(a, s)
            if not coeff.is_zero():
                idx = (a, b)
                x_mixed.set(idx, x_mixed.entries.get(idx, gr(0)) + coeff * val)
    # lower the upper slot: X_{b ā}; then present as X_{a b̄} = conj-free
    lowered = lower_slot(x_mixed, 0, c)  # slots (L, l): X with first slot barred
    out = IndexedTensor(y.n, slots("lL"))
    for (abar, b), val in lowered.entries.items():
        # lowered holds X_{ā' b}' ordered (ā, b); X_{b ā} is the same array
        # with slots read in the written order (lower b first).
        out.set((b, abar), val)
    return out


def y_from_spn(x: IndexedTensor, c: StandardConstants) -> IndexedTensor:
    """Recover Y_{s b} = -pi_{s t} X^t_b from X_{a b̄}; companion of
    spn_from_y witnessing the equivalence of the two descriptions."""
    if x.slots != slots("lL"):
        raise ValueError("expects X_{a b̄}")
    # X^t_b: raise the barred slot of X_{b t̄} -> multiply by diag
    out = IndexedTensor(x.n, slots("ll"))
    for (b, t), val in x.entries.items():
        xtb = c.g(t, t) * val  # X^t_b
        for s in range(1, x.dim + 1):
            coeff = -c.pi(s, t)
            if not coeff.is_zero():
                idx = (s, b)
                out.set(idx, out.entries.get(idx, gr(0)) + coeff * xtb)
    return out
