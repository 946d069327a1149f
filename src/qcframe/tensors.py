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
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .gauss import GaussRational, gr

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
    """Sparse exact tensor: absent entries are zero."""

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
        return self.entries.get(idx, gr(0))

    def set(self, idx: Tuple[int, ...], val) -> None:
        self.check_index(idx)
        val = GaussRational.of(val)
        if val.is_zero():
            self.entries.pop(idx, None)
        else:
            self.entries[idx] = val

    # -- linear structure ------------------------------------------------

    def copy(self) -> "IndexedTensor":
        return IndexedTensor(self.n, self.slots, dict(self.entries))

    def __add__(self, other: "IndexedTensor") -> "IndexedTensor":
        if self.slots != other.slots or self.n != other.n:
            raise ValueError("tensor shape mismatch")
        out = self.copy()
        for idx, val in other.entries.items():
            out.set(idx, out.entries.get(idx, gr(0)) + val)
        return out

    def __neg__(self) -> "IndexedTensor":
        out = IndexedTensor(self.n, self.slots)
        out.entries = {idx: -v for idx, v in self.entries.items()}
        return out

    def __sub__(self, other: "IndexedTensor") -> "IndexedTensor":
        return self + -other

    def scale(self, c) -> "IndexedTensor":
        c = GaussRational.of(c)
        return IndexedTensor(
            self.n, self.slots, {idx: c * v for idx, v in self.entries.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexedTensor):
            return NotImplemented
        return (self.n == other.n and self.slots == other.slots
                and self.entries == other.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        kinds = "".join(
            {(LOWER, False): "l", (LOWER, True): "L",
             (UPPER, False): "u", (UPPER, True): "U"}[(s.variance, s.barred)]
            for s in self.slots)
        return f"IndexedTensor(n={self.n}, slots='{kinds}', {len(self.entries)} entries)"


class StandardConstants:
    """The fixed pairing g and symplectic form pi for given n and signature.

    For signature (p, q) the entries g_{a ā} are +1 except at the last q
    positions of each of the two blocks 1..n and n+1..2n, where they are
    -1; this keeps d_a = d_{a+n}, which the compatibility identity
    g^{st̄} pi_{as} pi_{t̄ b̄} = -g_{a b̄} requires.  pi_{a,a+n} = 1 and
    pi_{a+n,a} = -1 throughout.  The precise values are conventional;
    what the rest of the package relies on is hermiticity of g, skewness
    of pi, and the two contraction identities checked in the tests.
    """

    __slots__ = ("n", "signature", "diag", "pi_lower")

    def __init__(self, n: int, signature: Tuple[int, int] = None):
        if n < 1:
            raise ValueError("n must be a positive integer")
        if signature is None:
            signature = (n, 0)
        p, q = signature
        if p < 0 or q < 0 or p + q != n:
            raise ValueError(f"signature {signature} incompatible with n={n}")
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

    @property
    def dim(self) -> int:
        return 2 * self.n

    def partner(self, a: int) -> int:
        return a + self.n if a <= self.n else a - self.n

    # -- scalar accessors used in formula transcriptions -----------------
    # All return GaussRational (real-valued for these constants).

    def g(self, a: int, b: int) -> GaussRational:
        """g_{a b̄} (equally g_{b̄ a} by hermiticity)."""
        return gr(self.diag[a - 1]) if a == b else gr(0)

    def g_up(self, a: int, b: int) -> GaussRational:
        """g^{a b̄}, the inverse pairing."""
        return gr(self.diag[a - 1]) if a == b else gr(0)

    def pi(self, a: int, b: int) -> GaussRational:
        """pi_{a b}."""
        if b == a + self.n:
            return gr(1)
        if a == b + self.n:
            return gr(-1)
        return gr(0)

    def pi_bar(self, a: int, b: int) -> GaussRational:
        """pi_{ā b̄} = conj(pi_{a b})."""
        return self.pi(a, b).conj()

    def pi_up(self, a: int, b: int) -> GaussRational:
        """pi^{a b} = g^{a s̄} g^{b t̄} pi_{s̄ t̄}."""
        return gr(self.diag[a - 1] * self.diag[b - 1]) * self.pi_bar(a, b)

    def pi_u_lbar(self, a: int, b: int) -> GaussRational:
        """pi^{a}_{b̄} = g^{a t̄} pi_{b̄ t̄}  (lower index first)."""
        return gr(self.diag[a - 1]) * self.pi_bar(b, a)

    def pi_ubar_l(self, a: int, b: int) -> GaussRational:
        """pi^{ā}_{b} = g^{ā t} pi_{b t}  (lower index first)."""
        return gr(self.diag[a - 1]) * self.pi(b, a)


def make_constants(n: int, signature: Tuple[int, int] = None) -> StandardConstants:
    return StandardConstants(n, signature)


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
    and g^ have the same entries); otherwise raise ValueError(mismatch)."""
    if not (0 <= slot < len(t.slots)):
        raise ValueError(f"slot {slot} out of range")
    if t.slots[slot].variance != variance:
        raise ValueError(mismatch)
    new_slots = list(t.slots)
    new_slots[slot] = t.slots[slot].flipped()
    out = IndexedTensor(t.n, new_slots)
    for idx, val in t.entries.items():
        a = idx[slot]
        out.set(idx, out.entries.get(idx, gr(0)) + gr(c.diag[a - 1]) * val)
    return out


def conj(t: IndexedTensor) -> IndexedTensor:
    """Flip every bar and conjugate every entry."""
    out = IndexedTensor(t.n, (s.conjugated() for s in t.slots))
    for idx, val in t.entries.items():
        out.set(idx, val.conj())
    return out


def jmap(t: IndexedTensor, c: StandardConstants) -> IndexedTensor:
    """The antilinear endomorphism j: contract each slot of the
    conjugated array with the matching mixed pi.  Slot types are
    preserved; applying j twice gives (-1)^slots.

    pi couples each index b only to its partner, so every slot has a
    table b -> (partner, pi factor), built once per call; an entry is
    then mapped with one conjugation and the product of its factors."""
    tables = []
    for s in t.slots:
        row = {}
        for b in range(1, t.dim + 1):
            a = c.partner(b)
            if s.variance == LOWER and not s.barred:
                m = c.pi_ubar_l(b, a)     # pi^{b̄}_{a}
            elif s.variance == LOWER and s.barred:
                m = c.pi_u_lbar(b, a)     # pi^{b}_{ā}
            elif s.variance == UPPER and not s.barred:
                m = c.pi_u_lbar(a, b)     # pi^{a}_{b̄}
            else:
                m = c.pi_ubar_l(a, b)     # pi^{ā}_{b}
            row[b] = (a, m)
        tables.append(row)
    out = IndexedTensor(t.n, t.slots)
    for idx, val in t.entries.items():
        coeff = val.conj()
        target = []
        for b, row in zip(idx, tables):
            a, m = row[b]
            coeff = coeff * m
            target.append(a)
        # partner is a bijection, so every target index is hit once
        out.set(tuple(target), coeff)
    return out


def _orbit(key: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The distinct arrangements of the multiset of index values key."""
    return tuple(sorted(set(itertools.permutations(key))))


def _check_homogeneous(t: IndexedTensor) -> None:
    if len(set(t.slots)) > 1:
        raise ValueError("symmetrize needs homogeneous slots")


def symmetrize(t: IndexedTensor) -> IndexedTensor:
    """Total symmetrization over all slots (slots must be of one type).

    The mean over all k! permutations of an entry's slots equals, for
    each orbit (the arrangements of one multiset of index values), the
    sum of the orbit's stored entries over the orbit's size, written to
    every member; each orbit is summed once."""
    _check_homogeneous(t)
    sums: Dict[Tuple[int, ...], GaussRational] = {}
    for idx, val in t.entries.items():
        key = tuple(sorted(idx))
        cur = sums.get(key)
        sums[key] = val if cur is None else cur + val
    out = IndexedTensor(t.n, t.slots)
    for key, total in sums.items():
        members = _orbit(key)
        mean = total * gr(Fraction(1, len(members)))
        if not mean.is_zero():
            for idx in members:
                out.entries[idx] = mean
    return out


def is_symmetric(t: IndexedTensor) -> bool:
    """True iff t is totally symmetric (slots must be of one type): every
    orbit holding a stored entry holds all of its members, all equal.
    Equivalent to ``symmetrize(t) == t``, by comparisons alone."""
    _check_homogeneous(t)
    seen = set()
    for idx, val in t.entries.items():
        key = tuple(sorted(idx))
        if key in seen:
            continue
        seen.add(key)
        for member in _orbit(key):
            if t.entries.get(member) != val:
                return False
    return True


def j_average(t: IndexedTensor, c: StandardConstants) -> IndexedTensor:
    """Project onto the j-fixed subspace: (t + jt)/2.  Only meaningful
    where j is an involution, i.e. for an even number of slots."""
    if len(t.slots) % 2 != 0:
        raise ValueError("j_average needs an even number of slots")
    return (t + jmap(t, c)).scale(gr(Fraction(1, 2)))


def random_tensor(rng: random.Random, n: int, slot_list: Iterable[IndexSlot],
                  span: int = 5) -> IndexedTensor:
    out = IndexedTensor(n, slot_list)
    for idx in itertools.product(range(1, 2 * n + 1), repeat=len(out.slots)):
        re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        im = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        out.set(idx, gr(re, im))
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


def spn_from_y(y: IndexedTensor, c: StandardConstants) -> IndexedTensor:
    """Build X_{a b̄} with X^a_b = pi^{a s} Y_{s b} from a symmetric
    j-invariant Y_{a b}; the result lies in sp(n)."""
    if y.slots != slots("ll"):
        raise ValueError("expects Y_{a b}")
    x_mixed = IndexedTensor(y.n, slots("ul"))  # X^a_b, lower index first
    for (s, b), val in y.entries.items():
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
        xtb = gr(c.diag[t - 1]) * val  # X^t_b
        for s in range(1, x.dim + 1):
            coeff = -c.pi(s, t)
            if not coeff.is_zero():
                idx = (s, b)
                out.set(idx, out.entries.get(idx, gr(0)) + coeff * xtb)
    return out
