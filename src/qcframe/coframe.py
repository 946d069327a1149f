"""The graded coframe shared by the matrix model and the exterior engine.

Coordinates of sp(n+1,1) and, equally, the generators of the exterior
algebra on the total space carry the same labels:

    ('eta', s)          s = 1..3          grade -2
    ('theta', a, bar)   a = 1..2n         grade -1
    ('phi0',)                             grade  0
    ('phi', s)                            grade  0
    ('Gam', a, b)       a <= b, unbarred  grade  0
    ('phiU', a, bar)                      grade +1
    ('psi', s)                            grade +2

Barred Gamma coordinates are never stored: the j-constraint makes
Gamma_{s̄ t̄} a fixed sign times an unbarred coordinate, computed here.
The fixed total order below doubles as the canonical wedge-monomial
order in the exterior engine.
"""
from __future__ import annotations

from typing import List, Tuple

from .gauss import GaussRational, gr
from .tensors import StandardConstants

Key = Tuple


def coord_keys(n: int) -> List[Key]:
    keys: List[Key] = [("eta", s) for s in (1, 2, 3)]
    keys += [("theta", a, False) for a in range(1, 2 * n + 1)]
    keys += [("theta", a, True) for a in range(1, 2 * n + 1)]
    keys += [("phi0",)]
    keys += [("phi", s) for s in (1, 2, 3)]
    keys += [("Gam", a, b) for a in range(1, 2 * n + 1)
             for b in range(a, 2 * n + 1)]
    keys += [("phiU", a, False) for a in range(1, 2 * n + 1)]
    keys += [("phiU", a, True) for a in range(1, 2 * n + 1)]
    keys += [("psi", s) for s in (1, 2, 3)]
    return keys


def grade(key: Key) -> int:
    kind = key[0]
    if kind == "eta":
        return -2
    if kind == "theta":
        return -1
    if kind in ("phi0", "phi", "Gam"):
        return 0
    if kind == "phiU":
        return 1
    if kind == "psi":
        return 2
    raise ValueError(f"unknown key {key}")


def is_real_kind(key: Key) -> bool:
    """Real coordinates are fixed by conjugation."""
    return key[0] in ("eta", "phi0", "phi", "psi")


def gam_key(a: int, b: int) -> Key:
    return ("Gam", a, b) if a <= b else ("Gam", b, a)


def gamma_bar(c: StandardConstants, s: int, t: int) -> Tuple[GaussRational, Key]:
    """Express the barred coordinate Gamma_{s̄ t̄} as coeff * Gamma_{a b}.

    The j-constraint reads Gamma_{a b} = m_a m_b Gamma_{p(a)bar p(b)bar}
    with (p, m) the j table of ``StandardConstants``; for a = p(s),
    b = p(t) the unit m_a m_b equals m_s m_t, which ``c.j((s, t))``
    returns with (a, b).
    """
    (a, b), m = c.j((s, t))
    return gr(m), gam_key(a, b)


def conj_key(c: StandardConstants, key: Key) -> Tuple[int, Key]:
    """Conjugate of a coordinate/generator: (unit, key), the unit an int
    +1 or -1 (for a Gamma the m_s m_t of ``gamma_bar``)."""
    if is_real_kind(key):
        return 1, key
    kind = key[0]
    if kind in ("theta", "phiU"):
        return 1, (kind, key[1], not key[2])
    if kind == "Gam":
        (a, b), m = c.j((key[1], key[2]))
        return m, gam_key(a, b)
    raise ValueError(f"unknown key {key}")


def label(key: Key) -> str:
    kind = key[0]
    if kind in ("eta", "phi", "psi"):
        return f"{kind}{key[1]}"
    if kind == "phi0":
        return "phi0"
    if kind == "theta":
        return f"theta{'bar' if key[2] else ''}{key[1]}"
    if kind == "phiU":
        return f"phiup{'bar' if key[2] else ''}{key[1]}"
    if kind == "Gam":
        return f"Gam{key[1]}{key[2]}"
    raise ValueError(f"unknown key {key}")


def primary_keys(n: int) -> List[Key]:
    """The generators whose exterior derivative is independently
    specified; barred theta and phiU rules follow by conjugation."""
    return [k for k in coord_keys(n)
            if not (k[0] in ("theta", "phiU") and k[2])]
