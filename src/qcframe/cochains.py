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
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .gauss import GaussRational, gr
from .tensors import (IndexedTensor, StandardConstants, is_symmetric, jmap,
                      j_average, random_tensor, slots, symmetrize)
from .forms import Form, Sym
from .model import LieCoord, SpModel
from . import coframe
from .coframe import Key

I = gr(0, 1)


# ---------------------------------------------------------------------------
# curvature components


@dataclass
class CurvatureComponents:
    """The nine arrays S, V, L, M, C, H, P, Q, R."""

    n: int
    s: IndexedTensor
    v: IndexedTensor
    l: IndexedTensor
    m: IndexedTensor
    c: IndexedTensor
    h: IndexedTensor
    p: GaussRational
    q: GaussRational
    r: GaussRational

    def validate(self, consts: StandardConstants) -> None:
        for t, name, arity in ((self.s, "S", 4), (self.v, "V", 3),
                               (self.l, "L", 2), (self.m, "M", 2)):
            if len(t.slots) != arity:
                raise ValueError(f"{name} must have {arity} lower slots")
            if not is_symmetric(t):
                raise ValueError(f"{name} is not totally symmetric")
        for t, name in ((self.s, "S"), (self.l, "L")):
            if jmap(t, consts) != t:
                raise ValueError(f"{name} is not j-invariant")
        if not self.r.is_real():
            raise ValueError("R must be real")

    def value(self, sym: Sym) -> GaussRational:
        """Numeric value of a curvature symbol (conjugate-aware)."""
        fam = sym.family
        if fam in ("V", "Vns"):
            base = self.v.get(*sym.idx)
        elif fam in ("S", "Sns"):
            base = self.s.get(*sym.idx)
        elif fam == "L":
            base = self.l.get(*sym.idx)
        elif fam == "M":
            base = self.m.get(*sym.idx)
        elif fam == "C":
            base = self.c.get(*sym.idx)
        elif fam == "H":
            base = self.h.get(*sym.idx)
        elif fam == "P":
            base = self.p
        elif fam == "Q":
            base = self.q
        elif fam == "R":
            base = self.r
        else:
            raise KeyError(f"not a curvature family: {fam}")
        return base.conj() if sym.conj else base


def zero_components(n: int) -> CurvatureComponents:
    return CurvatureComponents(
        n, IndexedTensor(n, slots("llll")), IndexedTensor(n, slots("lll")),
        IndexedTensor(n, slots("ll")), IndexedTensor(n, slots("ll")),
        IndexedTensor(n, slots("l")), IndexedTensor(n, slots("l")),
        gr(0), gr(0), gr(0))


def random_components(rng: random.Random, consts: StandardConstants,
                      span: int = 4) -> CurvatureComponents:
    """Draw unconstrained entries, then project exactly onto the
    admissible set: total symmetrization, then j-averaging for S and L,
    real part for R."""
    n = consts.n

    def rand(spec):
        return random_tensor(rng, n, slots(spec), span)

    s = j_average(symmetrize(rand("llll")), consts)
    v = symmetrize(rand("lll"))
    l = j_average(symmetrize(rand("ll")), consts)
    m = symmetrize(rand("ll"))
    c = rand("l")
    h = rand("l")
    p = gr(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
           Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    q = gr(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
           Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    r = gr(Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    out = CurvatureComponents(n, s, v, l, m, c, h, p, q, r)
    out.validate(consts)
    return out


def broken_components(rng: random.Random, consts: StandardConstants) -> CurvatureComponents:
    """Negative control: valid components except that the total symmetry
    of S is deliberately destroyed."""
    out = random_components(rng, consts)
    # S_{1 1 1 p}, p the pi-partner of 1 ((1, 1, 1, 2) at n = 1).  The
    # residuals are linear in the perturbation; at n = 2 one at
    # (1, 1, 1, 2) leaves dstar(kappa) and every trace condition zero.
    idx = (1, 1, 1, consts.partner(1))
    out.s.set(idx, out.s.get(*idx) + gr(1))
    return out


# -- component-file round trip -------------------------------------------------


def _gr_to_json(v: GaussRational):
    return {"re": str(v.re), "im": str(v.im)}


def _gr_from_json(d) -> GaussRational:
    return gr(Fraction(d["re"]), Fraction(d["im"]))


def components_to_json(c: CurvatureComponents, signature: Tuple[int, int]) -> dict:
    doc = {"n": c.n, "signature": list(signature)}
    for name, tensor in (("S", c.s), ("V", c.v), ("L", c.l), ("M", c.m),
                         ("C", c.c), ("H", c.h)):
        doc[name] = [{"idx": list(idx), **_gr_to_json(val)}
                     for idx, val in sorted(tensor.entries.items())]
    doc["P"] = _gr_to_json(c.p)
    doc["Q"] = _gr_to_json(c.q)
    doc["R"] = _gr_to_json(c.r)
    return doc


def components_from_json(doc: dict) -> Tuple[CurvatureComponents, StandardConstants]:
    n = int(doc["n"])
    consts = StandardConstants(n, tuple(doc.get("signature", (n, 0))))
    arities = {"S": "llll", "V": "lll", "L": "ll", "M": "ll", "C": "l", "H": "l"}
    tensors = {}
    for name, spec in arities.items():
        t = IndexedTensor(n, slots(spec))
        for entry in doc.get(name, []):
            idx = tuple(entry["idx"])
            t.set(idx, t.get(*idx) + _gr_from_json(entry))
        if len(spec) > 1:
            t = symmetrize(t)
        tensors[name] = t
    out = CurvatureComponents(
        n, tensors["S"], tensors["V"], tensors["L"], tensors["M"],
        tensors["C"], tensors["H"],
        _gr_from_json(doc.get("P", {"re": "0", "im": "0"})),
        _gr_from_json(doc.get("Q", {"re": "0", "im": "0"})),
        _gr_from_json(doc.get("R", {"re": "0", "im": "0"})))
    out.validate(consts)
    return out, consts


def load_components(path: str) -> Tuple[CurvatureComponents, StandardConstants]:
    with open(path) as fh:
        return components_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# cochains


def gminus_keys(n: int) -> List[Key]:
    """Ordered basis labels of g_-: E_s then Z_a then Z_ā."""
    return [k for k in coframe.coord_keys(n) if coframe.grade(k) < 0]


class Cochain2:
    """Antisymmetric map on pairs of g_- basis vectors, stored for
    index pairs i < j in the gminus_keys order."""

    def __init__(self, n: int):
        self.n = n
        self.keys = gminus_keys(n)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.vals: Dict[Tuple[int, int], LieCoord] = {}

    def set_pair(self, ki: Key, kj: Key, value: LieCoord) -> None:
        i, j = self.index[ki], self.index[kj]
        if i == j:
            raise ValueError("cochain argument pair must be distinct")
        if i > j:
            i, j, value = j, i, -value
        if value.is_zero():
            self.vals.pop((i, j), None)
        else:
            self.vals[(i, j)] = value

    def get(self, ki: Key, kj: Key) -> LieCoord:
        i, j = self.index[ki], self.index[kj]
        if i == j:
            return LieCoord(self.n)
        if i < j:
            return self.vals.get((i, j), LieCoord(self.n))
        return -self.vals.get((j, i), LieCoord(self.n))

    def __add__(self, other: "Cochain2") -> "Cochain2":
        out = Cochain2(self.n)
        for (i, j), v in self.vals.items():
            out.vals[(i, j)] = v
        for (i, j), v in other.vals.items():
            cur = out.vals.get((i, j), LieCoord(self.n)) + v
            if cur.is_zero():
                out.vals.pop((i, j), None)
            else:
                out.vals[(i, j)] = cur
        return out

    def scale(self, c) -> "Cochain2":
        out = Cochain2(self.n)
        for (i, j), v in self.vals.items():
            sv = v.scale(c)
            if not sv.is_zero():
                out.vals[(i, j)] = sv
        return out

    def is_zero(self) -> bool:
        return not self.vals

    def in_lemma_space(self) -> bool:
        """Values confined to sp(n) + g_1 + g_2 (no eta/theta/phi0/phi_s)."""
        for v in self.vals.values():
            for k in v.c:
                if k[0] not in ("Gam", "phiU", "psi"):
                    return False
        return True


Cochain1 = Dict[Key, LieCoord]


def random_lemma_cochain(rng: random.Random, n: int, span: int = 3) -> Cochain2:
    """Random antisymmetric cochain valued in sp(n) + g_1 + g_2."""
    out = Cochain2(n)
    target = [k for k in coframe.coord_keys(n) if k[0] in ("Gam", "phiU", "psi")]
    ks = gminus_keys(n)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            val = LieCoord(n)
            for k in target:
                re = Fraction(rng.randint(-span, span), rng.randint(1, 2))
                im = Fraction(rng.randint(-span, span), rng.randint(1, 2))
                val.set(k, gr(re, im))
            out.set_pair(ki, kj, val)
    return out


# ---------------------------------------------------------------------------
# assembling the curvature cochain from components


_KAPPA_CACHE: Dict[Tuple[int, Tuple[int, int], Optional[str]], Dict[Key, Form]] = {}


def kappa_coordinate_forms(n: int, signature: Tuple[int, int] = None,
                           tamper: Optional[str] = None) -> Dict[Key, Form]:
    """The curvature two-form of every sp(n)+g_1+g_2 coordinate: the
    curved structure equation minus its flat part.  Each is semibasic
    with curvature-symbol coefficients.  tamper='unsym-S' keeps the S
    symbols of the Gamma coordinate uncanonicalized so that symmetry
    violations in the input stay visible (negative control)."""
    from .rules import build_rules
    sig = tuple(signature) if signature else (n, 0)
    key3 = (n, sig, tamper)
    if key3 in _KAPPA_CACHE:
        return _KAPPA_CACHE[key3]
    curved = build_rules(n, "curved", sig, tamper=tamper)
    flat = build_rules(n, "flat", sig)
    out: Dict[Key, Form] = {}
    for key in coframe.coord_keys(n):
        if key[0] not in ("Gam", "phiU", "psi"):
            continue
        gid = curved.ext.gid[key]
        diff = curved.gen_rules[gid] - flat.gen_rules[gid]
        for mono in diff.terms:
            for g in mono:
                if coframe.grade(curved.ext.keys[g]) >= 0:
                    raise AssertionError("curvature two-form is not semibasic")
        out[key] = diff
    _KAPPA_CACHE[key3] = out
    return out


def _eval_two_form(form: Form, ki: Key, kj: Key,
                   value_of: Callable[[Sym], GaussRational]) -> GaussRational:
    """Evaluate a semibasic 2-form on the dual basis pair (ki, kj) with
    the convention (a^b)(X, Y) = a(X) b(Y) - a(Y) b(X)."""
    ext = form.ext
    gi, gj = ext.gid[ki], ext.gid[kj]
    if gi == gj:
        return gr(0)
    a, bqq = (gi, gj) if gi < gj else (gj, gi)
    poly = form.terms.get((a, bqq))
    if poly is None:
        return gr(0)
    tot = gr(0)
    for smono, coeff in poly.terms.items():
        val = coeff
        for s in smono:
            val = val * value_of(s)
            if val.is_zero():
                break
        tot = tot + val
    return tot if gi < gj else -tot


def assemble_kappa(compo: CurvatureComponents, model: SpModel,
                   validate: bool = True, tamper: Optional[str] = None) -> Cochain2:
    """Evaluate the curvature coordinate two-forms on all basis pairs.
    ``validate=False`` with ``tamper='unsym-S'`` admits invalid
    components, so that symmetry violations surface as nonzero
    normality residuals instead."""
    if validate:
        compo.validate(model.consts)
    forms = kappa_coordinate_forms(model.n, model.consts.signature, tamper)
    out = Cochain2(model.n)
    ks = gminus_keys(model.n)
    for i, ki in enumerate(ks):
        for kj in ks[i + 1:]:
            val = LieCoord(model.n)
            for coord, form in forms.items():
                val.set(coord, _eval_two_form(form, ki, kj, compo.value))
            out.set_pair(ki, kj, val)
    return out


# ---------------------------------------------------------------------------
# the Kostant codifferential


def kostant_codiff_direct(K: Cochain2, model: SpModel) -> Cochain1:
    """Literal evaluation of the bracket definition over the trace-dual
    frames."""
    fr = model.dual_frames()
    n = model.n
    ks = gminus_keys(n)

    def k_of(lc: LieCoord, kb: Key) -> LieCoord:
        """K(x, e_b) for x expanded in the g_- basis."""
        out = LieCoord(n)
        for kx, vx in lc.c.items():
            if coframe.grade(kx) >= 0:
                raise ValueError("argument not in g_-")
            out = out + K.get(kx, kb).scale(vx)
        return out

    pairs = ([(fr["Ehat"][s], ("eta", s + 1)) for s in range(3)]
             + [(fr["Zhat"][a - 1], ("theta", a, False)) for a in range(1, 2 * n + 1)]
             + [(fr["Zhatbar"][a - 1], ("theta", a, True)) for a in range(1, 2 * n + 1)])
    out: Cochain1 = {}
    for ka in ks:
        a = model.basis(ka)
        tot = LieCoord(n)
        for hat, kb in pairs:
            tot = tot + model.bracket(hat, K.get(ka, kb)).scale(2)
            lowered = model.bracket(hat, a)
            minus = LieCoord(n, {k: v for k, v in lowered.c.items()
                                 if coframe.grade(k) < 0})
            tot = tot - k_of(minus, kb)
        out[ka] = tot
    return out


def codiff_closed_constants(model: SpModel) -> dict:
    """Calibrate the slot constants of the closed trace-condition
    formula against the direct form via delta cochains, and record the
    printed literals next to them."""
    n = model.n
    p = model.consts.partner(1)

    def delta(ka, kb, key) -> Cochain2:
        K = Cochain2(n)
        K.set_pair(ka, kb, LieCoord(n, {key: gr(1)}))
        return K

    def ratio(x: LieCoord, y: LieCoord) -> GaussRational:
        """x = c*y with y != 0; returns c, insisting on proportionality."""
        if y.is_zero():
            raise ValueError("reference vector vanishes")
        k0, v0 = next(iter(y.c.items()))
        c = x.get(k0) / v0
        if not (x - y.scale(c)).is_zero():
            raise ValueError("probe result not proportional to reference")
        return c

    out = {"n": n}
    c = model.consts
    fr = model.dual_frames()
    psi1 = ("psi", 1)
    # eta2+i eta3 slot: K(Z_1, Z_p) = Psi_1
    K = delta(("theta", 1, False), ("theta", p, False), psi1)
    d = kostant_codiff_direct(K, model)
    # expected shape: c23p * pi^{ab} K(Z_a,Z_b) on (eta2+i eta3)(A)
    piK = LieCoord(n, {psi1: 2 * c.pi_up(1, p)})
    out["c_eta23p"] = ratio(d[("eta", 2)], piK)
    if ratio(d[("eta", 3)], piK) != I * out["c_eta23p"]:
        raise ValueError("eta3 slot inconsistent with eta2 slot")
    # eta2-i eta3 slot
    K = delta(("theta", 1, True), ("theta", p, True), psi1)
    d = kostant_codiff_direct(K, model)
    piKb = LieCoord(n, {psi1: 2 * c.pi_up(1, p).conj()})
    out["c_eta23m"] = ratio(d[("eta", 2)], piKb)
    # eta1 slot: K(Z_1, Zbar_1) = Psi_1
    K = delta(("theta", 1, False), ("theta", 1, True), psi1)
    d = kostant_codiff_direct(K, model)
    kz = LieCoord(n, {psi1: -2 * c.g_up(1, 1)})  # K(Z^a,Z_a) - K(Z^ā,Z_ā)
    out["c_eta1"] = ratio(d[("eta", 1)], kz.scale(I))
    # E1 slot: K(E_1, Z_1) = Phi^1
    K = delta(("eta", 1), ("theta", 1, False), ("phiU", 1, False))
    d = kostant_codiff_direct(K, model)
    out["c_E1"] = ratio(d[("eta", 1)], fr["Ehat"][0].scale(I))
    # E2+iE3 slot: K(E_1, Z_1) = Phi^pbar
    K = delta(("eta", 1), ("theta", 1, False), ("phiU", p, True))
    d = kostant_codiff_direct(K, model)
    e23p = (fr["Ehat"][1] + fr["Ehat"][2].scale(I)).scale(c.pi_u_lbar(1, p))
    out["c_E23p"] = ratio(d[("eta", 1)], e23p)
    # E2-iE3 slot: K(E_1, Zbar_1) = Phi^p
    K = delta(("eta", 1), ("theta", 1, True), ("phiU", p, False))
    d = kostant_codiff_direct(K, model)
    e23m = (fr["Ehat"][1] - fr["Ehat"][2].scale(I)).scale(c.pi_ubar_l(1, p))
    out["c_E23m"] = ratio(d[("eta", 1)], e23m)
    # Gamma slot: K(E_1, Zbar_1) = Gam_{1 p}
    K = delta(("eta", 1), ("theta", 1, True), ("Gam", 1, p))
    d = kostant_codiff_direct(K, model)
    ref = LieCoord(n)
    for be in range(1, 2 * n + 1):
        for si in range(1, 2 * n + 1):
            for t in range(1, 2 * n + 1):
                val = c.pi_up(be, si) * c.g_up(t, 1)
                if val.is_zero() or coframe.gam_key(si, t) != coframe.gam_key(1, p):
                    continue
                zlow = LieCoord(n)
                for u in range(1, 2 * n + 1):
                    zlow = zlow + fr["Zhatbar"][u - 1].scale(c.g(be, u))
                ref = ref + zlow.scale(val)
    out["c_gam"] = ratio(d[("eta", 1)], ref)
    out["printed"] = {
        "c_eta23p": str(-gr(Fraction(1, 4 * (2 * n + 7)))),
        "c_eta1": str(gr(Fraction(1, 4 * (2 * n + 7)))),
        "c_E1": str(gr(Fraction(4 * (2 * n + 3), 2 * n + 7))),
        "c_gam": "-2",
    }
    return out


def kostant_codiff_closed(K: Cochain2, model: SpModel,
                          consts: Optional[dict] = None) -> Cochain1:
    """The closed trace-condition formula with calibrated slot
    constants; requires K valued in sp(n) + g_1 + g_2."""
    if not K.in_lemma_space():
        raise ValueError("cochain has components outside sp(n)+g_1+g_2")
    if consts is None:
        consts = codiff_closed_constants(model)
    n = model.n
    c = model.consts
    fr = model.dual_frames()
    R = range(1, 2 * n + 1)

    # the three eta-slot combinations
    kzz = LieCoord(n)
    for a in R:
        for s in R:
            coeff = c.g_up(a, s)
            if not coeff.is_zero():
                kzz = kzz + K.get(("theta", s, True), ("theta", a, False)).scale(coeff)
            coeff2 = c.g_up(s, a)
            if not coeff2.is_zero():
                kzz = kzz - K.get(("theta", s, False), ("theta", a, True)).scale(coeff2)
    piK = LieCoord(n)
    piKb = LieCoord(n)
    for a in R:
        for bq in R:
            coeff = c.pi_up(a, bq)
            if not coeff.is_zero():
                piK = piK + K.get(("theta", a, False), ("theta", bq, False)).scale(coeff)
                piKb = piKb + K.get(("theta", a, True), ("theta", bq, True)).scale(coeff.conj())

    # the lowered hat frames Zhat_b and Zhat_b̄
    zlow = {}
    zlow_bar = {}
    for be in R:
        acc = LieCoord(n)
        accb = LieCoord(n)
        for t in R:
            acc = acc + fr["Zhatbar"][t - 1].scale(c.g(be, t))
            accb = accb + fr["Zhat"][t - 1].scale(c.g(t, be))
        zlow[be] = acc
        zlow_bar[be] = accb

    out: Cochain1 = {}
    for ka in gminus_keys(n):
        tot = LieCoord(n)
        if ka == ("eta", 1):
            tot = tot + kzz.scale(I * consts["c_eta1"])
        if ka in (("eta", 2), ("eta", 3)):
            w = gr(1) if ka == ("eta", 2) else I
            tot = tot + piK.scale(w * consts["c_eta23p"])
            wm = gr(1) if ka == ("eta", 2) else -I
            tot = tot + piKb.scale(wm * consts["c_eta23m"])
        # Gamma slots: Gamma^{ā}_s(x) = g^{ā t} Gam_{s t}(x) and the
        # conjugate pattern with the barred Gamma coordinate of x
        for be in R:
            coef_b = gr(0)   # multiplies Zhat_b
            coef_bb = gr(0)  # multiplies Zhat_b̄
            for si in R:
                pi_bs = c.pi_up(be, si)
                if pi_bs.is_zero():
                    continue
                for al in R:
                    for t in R:
                        gat = c.g_up(t, al)
                        if gat.is_zero():
                            continue
                        coef_b = coef_b + pi_bs * gat * \
                            K.get(ka, ("theta", al, True)).get(("Gam", si, t))
                        coef_bb = coef_bb + pi_bs.conj() * gat.conj() * \
                            K.get(ka, ("theta", al, False)).gam_bar(c, si, t)
            tot = tot + zlow[be].scale(consts["c_gam"] * coef_b)
            tot = tot + zlow_bar[be].scale(consts["c_gam"] * coef_bb)
        # Ehat slots
        acc1 = gr(0)
        for al in R:
            acc1 = acc1 + K.get(ka, ("theta", al, False)).get(("phiU", al, False))
            acc1 = acc1 - K.get(ka, ("theta", al, True)).get(("phiU", al, True))
        tot = tot + fr["Ehat"][0].scale(I * consts["c_E1"] * acc1)
        accp = gr(0)
        accm = gr(0)
        for al in R:
            for si in R:
                cu = c.pi_u_lbar(al, si)
                if not cu.is_zero():
                    accp = accp + cu * K.get(ka, ("theta", al, False)).get(("phiU", si, True))
                cb = c.pi_ubar_l(al, si)
                if not cb.is_zero():
                    accm = accm + cb * K.get(ka, ("theta", al, True)).get(("phiU", si, False))
        e2, e3 = fr["Ehat"][1], fr["Ehat"][2]
        tot = tot + (e2 + e3.scale(I)).scale(consts["c_E23p"] * accp)
        tot = tot + (e2 - e3.scale(I)).scale(consts["c_E23m"] * accm)
        out[ka] = tot
    return out


# ---------------------------------------------------------------------------
# normality certificate and homogeneity


def trace_conditions(K: Cochain2, model: SpModel) -> Dict[str, bool]:
    """The five contraction identities the curvature cochain satisfies."""
    n = model.n
    c = model.consts
    R = range(1, 2 * n + 1)
    t1 = LieCoord(n)
    t2 = LieCoord(n)
    for a in R:
        for bq in R:
            cg = c.g_up(a, bq)
            if not cg.is_zero():
                t1 = t1 + K.get(("theta", a, False), ("theta", bq, True)).scale(cg)
            cp = c.pi_up(a, bq)
            if not cp.is_zero():
                t2 = t2 + K.get(("theta", a, False), ("theta", bq, False)).scale(cp)
    ok3 = ok4 = ok5 = True
    for kx in gminus_keys(n):
        for al in R:
            acc3 = gr(0)
            for bq in R:
                for s in R:
                    cg = c.g_up(bq, s)
                    if not cg.is_zero():
                        acc3 = acc3 + cg * K.get(("theta", s, True), kx).get(("Gam", al, bq))
            if not acc3.is_zero():
                ok3 = False
        acc4 = gr(0)
        acc5 = gr(0)
        for al in R:
            for s in R:
                cg = c.g_up(al, s)
                if not cg.is_zero():
                    val = K.get(("theta", s, True), kx)
                    for t in R:
                        gl = c.g(t, al)
                        if not gl.is_zero():
                            acc4 = acc4 + cg * gl * val.get(("phiU", t, True))
            for bq in R:
                cp = c.pi_up(al, bq)
                if not cp.is_zero():
                    val = K.get(("theta", bq, False), kx)
                    for t in R:
                        gl = c.g(t, al)
                        if not gl.is_zero():
                            acc5 = acc5 + cp * gl * val.get(("phiU", t, True))
        if not acc4.is_zero():
            ok4 = False
        if not acc5.is_zero():
            ok5 = False
    return {
        "g_trace": t1.is_zero(),
        "pi_trace": t2.is_zero(),
        "Gamma_trace": ok3,
        "phi_trace": ok4,
        "pi_phi_trace": ok5,
    }


def cochain1_is_zero(d: Cochain1) -> bool:
    return all(v.is_zero() for v in d.values())


def check_normality(compo: CurvatureComponents, model: SpModel,
                    closed_consts: Optional[dict] = None,
                    validate: bool = True, tamper: Optional[str] = None) -> dict:
    """Assemble kappa, evaluate both codifferential routes and the five
    trace conditions; everything must vanish exactly for valid input."""
    K = assemble_kappa(compo, model, validate=validate, tamper=tamper)
    direct = kostant_codiff_direct(K, model)
    if closed_consts is None:
        closed_consts = codiff_closed_constants(model)
    closed = kostant_codiff_closed(K, model, closed_consts)
    traces = trace_conditions(K, model)
    agree = all((direct[k] - closed[k]).is_zero() for k in direct)
    report = {
        "trace_conditions": traces,
        "dstar_direct_zero": cochain1_is_zero(direct),
        "dstar_closed_zero": cochain1_is_zero(closed),
        "direct_equals_closed": agree,
        "normal": cochain1_is_zero(direct) and all(traces.values()),
    }
    return report


def homogeneity_classify(K: Cochain2) -> Dict[int, Cochain2]:
    """Split K by the grading weight: the piece of K(x, y) in g_k for
    x in g_i, y in g_j contributes at homogeneity k - i - j."""
    out: Dict[int, Cochain2] = {}
    for (i, j), v in K.vals.items():
        ki, kj = K.keys[i], K.keys[j]
        gi, gj = coframe.grade(ki), coframe.grade(kj)
        for part_grade, part in v.decompose().items():
            if part.is_zero():
                continue
            ell = part_grade - gi - gj
            if ell not in out:
                out[ell] = Cochain2(K.n)
            out[ell].set_pair(ki, kj, out[ell].get(ki, kj) + part)
    return {ell: co for ell, co in out.items() if not co.is_zero()}


def regularity_ok(K: Cochain2) -> bool:
    """kappa^(l) = 0 for l <= 0."""
    return all(ell > 0 for ell in homogeneity_classify(K))
