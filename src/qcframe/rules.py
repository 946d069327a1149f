"""Differential rule tables for the flat and curved structure equations,
the starred one-forms, and the mechanical Bianchi certificates.

The flat table is transcribed from the Maurer-Cartan equations of the
model group; the curved table from the full structure equations with
all nine curvature component families and the first-derivative
families.  The two tables are written out independently (in particular
the phiU rule comes from two different displays), so that reducing the
curved table by "all curvature components = 0" and comparing against
the flat table is a genuine cross-check, certified in the tests.

d^2 = 0 over every generator is the master certificate: it mechanically
reproduces the Bianchi identities and validates every sign above.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import InputError
from .gauss import HALF, I, ONE, GaussRational, gr
from . import coframe
from .forms import (CONTROL_FAMILIES, CURVATURE_FAMILIES, FAMILIES, Acc, DRuleSet,
                    Exterior, Form, Poly, Sym, addmul, differential, from_acc)


# Calibrated multipliers for display terms whose printed coefficients
# fail the exact d^2 = 0 certificate.  Solved for mechanically (exact
# linear algebra on the d^2 residuals); tags absent from the table keep
# multiplier 1 (their printed coefficient), and "x"-suffixed tags are
# replacement terms that are absent (0) in the printed displays.
# build_rules(..., published=True) ignores this table and
# reproduces the displays exactly as printed.
#
#   psi23_C2  the theta-bar (eta2+i eta3) curvature term of
#             d(psi2+i psi3) carries -4, not -4i (the proof's own
#             expansion of that derivative uses -4)
#   tV_S      the S term of the V derivative rule is -i pi phi S
#   tM_H      the H term of the M derivative rule is -2 pi H theta
#   tR_C2     the conjugated C term of the R rule is -8 (reality of R
#             forces the conjugate-symmetric sign)
#   tP_Q/tP_Qx    the Q term of the P rule carries phi2+i phi3
#   tP_C/tP_Cx    the C term of the P rule contracts the raised C
#   tQ_H/tQ_Hx    the H term of the Q rule is 16 pi^t_sbar phi^sbar H_t
#
# The last three replacements are forced by the phi_1-weight grading of
# the structure equations; all values were confirmed by solving the
# exact linear system "d^2 = 0" over the displayed term space.
CORRECTIONS: Dict[str, GaussRational] = {
    "psi23_C2": gr(0, -1),
    "tV_S": gr(-1),
    "tM_H": gr(-1),
    "tR_C2": gr(-1),
    "tP_Q": gr(0),
    "tP_Qx": gr(1),
    "tP_C": gr(0),
    "tP_Cx": gr(1),
    "tQ_H": gr(0),
    "tQ_Hx": gr(1),
}


class RuleBuilder:
    """Holds an Exterior algebra plus all transcription shorthand.

    The multiplier of every tagged display term is its calibrated value
    (CORRECTIONS), falling back to 1.  Passing ``published=True`` forces
    every multiplier to 1, i.e. the displays exactly as printed.

    Every rule method writes its sum into an accumulator ``acc`` (one
    ``addmul`` per display term) and returns nothing; ``form`` runs one on
    a fresh accumulator and returns the finished Form.  Methods that
    share ``acc`` add up, as ``symbol_rule`` does with the tilde and
    semibasic parts.  Every sum over an index of g, pi or their raised and
    mixed forms runs over the nonzero entries that ``StandardConstants.row``
    and ``col`` list, never over all 2n indices.
    """

    def __init__(self, n: int, signature: Tuple[int, int] = None,
                 published: bool = False):
        self.ext = Exterior(n, signature)
        self.c = self.ext.consts
        self.R = range(1, 2 * n + 1)
        self.n = n
        self.published = published
        self._t: Dict[Tuple[str, object], GaussRational] = {}
        eta2, eta3 = self.eta(2), self.eta(3).scale(I)
        self._eta23 = (eta2 + eta3, eta2 - eta3)

    def t(self, tag: str, default=1) -> GaussRational:
        v = self._t.get((tag, default))
        if v is None:
            if self.published:
                v = GaussRational.of(default)
            else:
                v = GaussRational.of(CORRECTIONS.get(tag, default))
            self._t[tag, default] = v
        return v

    def form(self, fill, *args) -> Form:
        """The Form that the rule method ``fill(acc, *args)`` writes."""
        acc: Acc = {}
        fill(acc, *args)
        return from_acc(self.ext, acc)

    # generator shorthands -------------------------------------------------

    def eta(self, s):
        return self.ext.gen(("eta", s))

    def th(self, a):
        return self.ext.gen(("theta", a, False))

    def thb(self, a):
        return self.ext.gen(("theta", a, True))

    def phi0(self):
        return self.ext.gen(("phi0",))

    def f(self, s):
        return self.ext.gen(("phi", s))

    def gam(self, a, b):
        return self.ext.gen(("Gam", a, b))

    def gamb(self, a, b):
        return self.ext.gam_bar_gen(a, b)

    def fu(self, a):
        return self.ext.gen(("phiU", a, False))

    def fub(self, a):
        return self.ext.gen(("phiU", a, True))

    def psi(self, s):
        return self.ext.gen(("psi", s))

    # lowered one-forms ------------------------------------------------------

    def _lowered(self, gen, entries) -> Form:
        """sum of v gen(s) over the (s, v) of a row or column of g"""
        acc: Acc = {}
        for s, v in entries:
            addmul(acc, gen(s), None, v)
        return from_acc(self.ext, acc)

    def th_lo(self, a):
        """theta_a = g_{s̄ a} theta^{s̄}"""
        return self._lowered(self.thb, self.c.row("g", a))

    def th_lo_bar(self, a):
        """theta_ā = g_{s ā} theta^{s}"""
        return self._lowered(self.th, self.c.col("g", a))

    def fu_lo(self, a):
        return self._lowered(self.fub, self.c.row("g", a))

    def fu_lo_bar(self, a):
        return self._lowered(self.fu, self.c.col("g", a))

    # symbol shorthands ------------------------------------------------------

    def sy(self, fam, *idx) -> Poly:
        return self.ext.sym(fam, idx)

    def syc(self, fam, *idx) -> Poly:
        return self.ext.sym(fam, idx, conj=True)

    def jsy(self, fam, *idx) -> Poly:
        return self.ext.jsym(fam, idx)

    def eta23p(self):
        return self._eta23[0]

    def eta23m(self):
        return self._eta23[1]

    # ----------------------------------------------------------------------
    # flat structure equations (Maurer-Cartan transcription)

    def d_eta(self, acc: Acc, s) -> None:
        b = self
        if s == 1:
            addmul(acc, -(b.phi0() ^ b.eta(1)) - (b.f(2) ^ b.eta(3)) + (b.f(3) ^ b.eta(2)))
            for al in b.R:
                for be, v in b.c.row("g", al):
                    addmul(acc, b.th(al) ^ b.thb(be), None, 2 * I * v)
        elif s == 2:
            addmul(acc, -(b.phi0() ^ b.eta(2)) - (b.f(3) ^ b.eta(1)) + (b.f(1) ^ b.eta(3)))
            for al in b.R:
                for be, v in b.c.row("pi", al):
                    addmul(acc, b.th(al) ^ b.th(be), None, v)
                for be, v in b.c.row("pi_bar", al):
                    addmul(acc, b.thb(al) ^ b.thb(be), None, v)
        elif s == 3:
            addmul(acc, -(b.phi0() ^ b.eta(3)) - (b.f(1) ^ b.eta(2)) + (b.f(2) ^ b.eta(1)))
            for al in b.R:
                for be, v in b.c.row("pi", al):
                    addmul(acc, b.th(al) ^ b.th(be), None, -I * v)
                for be, v in b.c.row("pi_bar", al):
                    addmul(acc, b.thb(al) ^ b.thb(be), None, I * v)
        else:
            raise ValueError(s)

    def d_theta(self, acc: Acc, a) -> None:
        b = self
        addmul(acc, b.fu(a) ^ b.eta(1), None, -I)
        for s, v in b.c.row("pi_u_lbar", a):
            addmul(acc, b.fub(s) ^ b.eta23p(), None, -v)
        for s, coeff in b.c.row("pi_up", a):
            for be in b.R:
                addmul(acc, b.gam(s, be) ^ b.th(be), None, -coeff)
        addmul(acc, (b.phi0() + b.f(1).scale(I)) ^ b.th(a), None, -HALF)
        for be, v in b.c.row("pi_u_lbar", a):
            addmul(acc, (b.f(2) + b.f(3).scale(I)) ^ b.thb(be), None, -HALF * v)

    def d_phi0(self, acc: Acc) -> None:
        b = self
        addmul(acc, -(b.psi(1) ^ b.eta(1)) - (b.psi(2) ^ b.eta(2)) - (b.psi(3) ^ b.eta(3)))
        for be in b.R:
            addmul(acc, b.fu_lo(be) ^ b.th(be), None, gr(-2))
            addmul(acc, b.fu_lo_bar(be) ^ b.thb(be), None, gr(-2))

    def d_phi(self, acc: Acc, s) -> None:
        b = self
        if s == 1:
            addmul(acc, -(b.f(2) ^ b.f(3)) - (b.psi(2) ^ b.eta(3)) + (b.psi(3) ^ b.eta(2)))
            for be in b.R:
                addmul(acc, b.fu_lo(be) ^ b.th(be), None, 2 * I)
                addmul(acc, b.fu_lo_bar(be) ^ b.thb(be), None, -2 * I)
        elif s == 2:
            addmul(acc, -(b.f(3) ^ b.f(1)) - (b.psi(3) ^ b.eta(1)) + (b.psi(1) ^ b.eta(3)))
            for si in b.R:
                for be, v in b.c.row("pi", si):
                    addmul(acc, b.fu(si) ^ b.th(be), None, -2 * v)
                for be, v in b.c.row("pi_bar", si):
                    addmul(acc, b.fub(si) ^ b.thb(be), None, -2 * v)
        elif s == 3:
            addmul(acc, -(b.f(1) ^ b.f(2)) - (b.psi(1) ^ b.eta(2)) + (b.psi(2) ^ b.eta(1)))
            for si in b.R:
                for be, v in b.c.row("pi", si):
                    addmul(acc, b.fu(si) ^ b.th(be), None, 2 * I * v)
                for be, v in b.c.row("pi_bar", si):
                    addmul(acc, b.fub(si) ^ b.thb(be), None, -2 * I * v)
        else:
            raise ValueError(s)

    def d_gamma_flat(self, acc: Acc, a, bq) -> None:
        b = self
        for s in b.R:
            for t, coeff in b.c.row("pi_up", s):
                addmul(acc, b.gam(a, s) ^ b.gam(t, bq), None, -coeff)
        for x, y in ((a, bq), (bq, a)):
            for s, m in b.c.col("pi_ubar_l", x):
                addmul(acc, (b.fu_lo(y) ^ b.th_lo_bar(s)) - (b.fu_lo_bar(s) ^ b.th_lo(y)),
                       None, 2 * m)

    def d_phiu_flat(self, acc: Acc, a) -> None:
        """d phi^a from the flat model display (not used in curved mode)."""
        b = self
        addmul(acc, (b.phi0() - b.f(1).scale(I)) ^ b.fu(a), None, HALF)
        for g, v in b.c.row("pi_u_lbar", a):
            addmul(acc, (b.f(2) + b.f(3).scale(I)) ^ b.fub(g), None, -HALF * v)
        for s, coeff in b.c.row("pi_up", a):
            for g in b.R:
                addmul(acc, b.gam(s, g) ^ b.fu(g), None, -coeff)
        addmul(acc, b.psi(1) ^ b.th(a), None, HALF * I)
        for g, v in b.c.row("pi_u_lbar", a):
            addmul(acc, (b.psi(2) + b.psi(3).scale(I)) ^ b.thb(g), None, HALF * v)

    def d_psi1_flat(self, acc: Acc) -> None:
        b = self
        addmul(acc, (b.phi0() ^ b.psi(1)) - (b.f(2) ^ b.psi(3)) + (b.f(3) ^ b.psi(2)))
        for g in b.R:
            addmul(acc, b.fu_lo(g) ^ b.fu(g), None, -4 * I)

    def d_psi23_flat(self, acc: Acc) -> None:
        b = self
        addmul(acc, (b.phi0() - b.f(1).scale(I)) ^ (b.psi(2) + b.psi(3).scale(I)))
        addmul(acc, (b.f(2) + b.f(3).scale(I)) ^ b.psi(1), None, I)
        for g in b.R:
            for d, coeff in b.c.row("pi", g):
                addmul(acc, b.fu(g) ^ b.fu(d), None, 4 * coeff)

    # ----------------------------------------------------------------------
    # curvature additions

    def gamma_curvature(self, acc: Acc, a, bq, vfam: str = "V", sfam: str = "S") -> None:
        b = self
        for g in b.R:
            for d in b.R:
                for s, coeff in b.c.col("pi_u_lbar", d):
                    addmul(acc, b.th(g) ^ b.thb(d), b.sy(sfam, a, bq, g, s), coeff * b.t("gam_S"))
        pairs = b.conj_pairs(a, bq)
        for g in b.R:
            addmul(acc, b.th(g) ^ b.eta(1), b.sy(vfam, a, bq, g), b.t("gam_V1"))
            for s, t, coeff in pairs:
                addmul(acc, b.thb(g) ^ b.eta(1), b.syc(vfam, s, t, g), coeff * b.t("gam_V1b"))
        for g in b.R:
            for s, coeff in b.c.col("pi_u_lbar", g):
                addmul(acc, b.thb(g) ^ b.eta23p(), b.sy(vfam, a, bq, s), -I * coeff * b.t("gam_V2"))
            addmul(acc, b.th(g) ^ b.eta23m(), b.jsy(vfam, a, bq, g), I * b.t("gam_V3"))
        addmul(acc, b.eta23p() ^ b.eta23m(), b.sy("L", a, bq), -I * b.t("gam_L"))
        addmul(acc, b.eta(1) ^ b.eta23p(), b.sy("M", a, bq), b.t("gam_M1"))
        addmul(acc, b.eta(1) ^ b.eta23m(), b.jsy("M", a, bq), b.t("gam_M2"))

    def conj_pairs(self, a, bq):
        """(s, t, pi^{s̄}_a pi^{t̄}_b) over the nonzero products."""
        col = self.c.col
        return [(s, t, u * v) for s, u in col("pi_ubar_l", a) for t, v in col("pi_ubar_l", bq)]

    def d_gamma_curved(self, acc: Acc, a, bq, vfam: str = "V", sfam: str = "S") -> None:
        self.d_gamma_flat(acc, a, bq)
        self.gamma_curvature(acc, a, bq, vfam, sfam)

    def d_phi_lo_curved(self, acc: Acc, a) -> None:
        """d phi_a, the lowered-index display with curvature terms."""
        b = self
        addmul(acc, (b.phi0() + b.f(1).scale(I)) ^ b.fu_lo(a), None, HALF)
        for g, v in b.c.row("pi", a):
            addmul(acc, (b.f(2) - b.f(3).scale(I)) ^ b.fu(g), None, HALF * v)
        for s, coeff in b.c.col("pi_ubar_l", a):
            for g in b.R:
                addmul(acc, b.gamb(s, g) ^ b.fub(g), None, -coeff)
        addmul(acc, b.psi(1) ^ b.th_lo(a), None, -HALF * I)
        for g, v in b.c.row("pi", a):
            addmul(acc, (b.psi(2) - b.psi(3).scale(I)) ^ b.th(g), None, -HALF * v)
        # curvature terms
        for g in b.R:
            for d in b.R:
                for s, coeff in b.c.col("pi_u_lbar", d):
                    addmul(acc, b.th(g) ^ b.thb(d), b.sy("V", a, g, s), -I * coeff * b.t("phi_V"))
        for g in b.R:
            addmul(acc, b.th(g) ^ b.eta(1), b.sy("M", a, g), b.t("phi_M1"))
            for s, coeff in b.c.col("pi_ubar_l", a):
                addmul(acc, b.thb(g) ^ b.eta(1), b.syc("L", s, g), coeff * b.t("phi_L1"))
            addmul(acc, b.th(g) ^ b.eta23m(), b.sy("L", a, g), I * b.t("phi_L2"))
            for s, coeff in b.c.col("pi_u_lbar", g):
                addmul(acc, b.thb(g) ^ b.eta23p(), b.sy("M", a, s), -I * coeff * b.t("phi_M2"))
        addmul(acc, b.eta23p() ^ b.eta23m(), b.sy("C", a), -b.t("phi_C"))
        addmul(acc, b.eta(1) ^ b.eta23p(), b.sy("H", a), b.t("phi_H"))
        for s, u in b.c.row("pi", a):
            for t, v in b.c.row("g_up", s):
                addmul(acc, b.eta(1) ^ b.eta23m(), b.syc("C", t), I * u * v * b.t("phi_Cup"))

    def d_phiu_bar_curved(self, acc: Acc, a) -> None:
        """d phi^{ā} by raising the lowered display with g."""
        for s, coeff in self.c.col("g_up", a):
            addmul(acc, self.form(self.d_phi_lo_curved, s), None, coeff)

    def d_psi1_curved(self, acc: Acc) -> None:
        b = self
        self.d_psi1_flat(acc)
        for g in b.R:
            for d in b.R:
                for s, coeff in b.c.col("pi_u_lbar", d):
                    addmul(acc, b.th(g) ^ b.thb(d), b.sy("L", g, s), 4 * coeff * b.t("psi1_L"))
        for g in b.R:
            addmul(acc, b.th(g) ^ b.eta(1), b.sy("C", g), 4 * b.t("psi1_C1"))
            addmul(acc, b.thb(g) ^ b.eta(1), b.syc("C", g), 4 * b.t("psi1_C2"))
            # -4i pi_{ḡ s̄} C^{s̄} theta^{ḡ} (eta2+i eta3)
            for s, u in b.c.row("pi_bar", g):
                for t, v in b.c.col("g_up", s):
                    addmul(acc, b.thb(g) ^ b.eta23p(), b.sy("C", t),
                           -4 * I * u * v * b.t("psi1_C3"))
            for s, u in b.c.row("pi", g):
                for t, v in b.c.row("g_up", s):
                    addmul(acc, b.th(g) ^ b.eta23m(), b.syc("C", t),
                           4 * I * u * v * b.t("psi1_C4"))
        addmul(acc, b.eta(1) ^ b.eta23p(), b.sy("P"), b.t("psi1_P1"))
        addmul(acc, b.eta(1) ^ b.eta23m(), b.syc("P"), b.t("psi1_P2"))
        addmul(acc, b.eta23p() ^ b.eta23m(), b.sy("R"), I * b.t("psi1_R"))

    def d_psi23_curved(self, acc: Acc) -> None:
        b = self
        self.d_psi23_flat(acc)
        for g in b.R:
            for d in b.R:
                for s, coeff in b.c.col("pi_ubar_l", g):
                    addmul(acc, b.th(g) ^ b.thb(d), b.syc("M", s, d), 4 * I * coeff * b.t("psi23_M"))
        for g in b.R:
            for s, coeff in b.c.col("pi_ubar_l", g):
                addmul(acc, b.th(g) ^ b.eta(1), b.syc("C", s), 4 * I * coeff * b.t("psi23_C1"))
            addmul(acc, b.thb(g) ^ b.eta(1), b.syc("H", g), -4 * b.t("psi23_H1"))
            addmul(acc, b.thb(g) ^ b.eta23p(), b.syc("C", g), -4 * I * b.t("psi23_C2"))
            for s, coeff in b.c.col("pi_ubar_l", g):
                addmul(acc, b.th(g) ^ b.eta23m(), b.syc("H", s), -4 * I * coeff * b.t("psi23_H2"))
        addmul(acc, b.eta(1) ^ b.eta23p(), b.sy("R"), -I * b.t("psi23_R"))
        addmul(acc, b.eta(1) ^ b.eta23m(), b.syc("Q"), b.t("psi23_Q"))
        addmul(acc, b.eta23p() ^ b.eta23m(), b.syc("P"), -b.t("psi23_P"))

    # ----------------------------------------------------------------------
    # starred one-forms: tilde parts and semibasic first-derivative parts

    def gamma_action(self, acc: Acc, fam: str, idx: Tuple[int, ...], c: GaussRational) -> None:
        """c times the sum over slots of pi^{t v} Gamma_{v idx_k} F_{idx with t at k}"""
        b = self
        for k, a in enumerate(idx):
            for t in b.R:
                p = b.sy(fam, *idx[:k], t, *idx[k + 1:])
                for v, coeff in b.c.row("pi_up", t):
                    addmul(acc, b.gam(v, a), p, coeff * c)

    def slot_terms(self, acc: Acc, gen, form: str, idx: Tuple[int, ...], sym, fam: str,
                   c: GaussRational) -> None:
        """c times the sum over slots k of form_{idx_k t} gen(t) F_{idx
        without slot k}, the form a table named as in ``row`` and F the
        family ``fam`` read through ``sym`` (``sy`` or ``jsy``)."""
        for k, a in enumerate(idx):
            p = sym(fam, *idx[:k], *idx[k + 1:])
            for t, v in self.c.row(form, a):
                addmul(acc, gen(t), p, c * v)

    def tilde_star(self, acc: Acc, fam: str, idx: Tuple[int, ...]) -> None:
        b = self
        if fam == "S":
            self.gamma_action(acc, "S", idx, b.t("tS_Gam"))
            addmul(acc, b.phi0(), b.sy("S", *idx), b.t("tS_phi0"))
            b.slot_terms(acc, b.th, "pi", idx, b.sy, "V", 2 * I * b.t("tS_V"))
            b.slot_terms(acc, b.thb, "g", idx, b.jsy, "V", 2 * I * b.t("tS_jV"))
        elif fam == "V":
            a1, a2, a3 = idx
            self.gamma_action(acc, "V", idx, b.t("tV_Gam"))
            for s in b.R:
                for t, coeff in b.c.row("pi_u_lbar", s):
                    addmul(acc, b.fub(t), b.sy("S", a1, a2, a3, s), I * coeff * b.t("tV_S"))
            addmul(acc, b.phi0().scale(3) + b.f(1).scale(I), b.sy("V", *idx), HALF * b.t("tV_f01"))
            addmul(acc, b.f(2) - b.f(3).scale(I), b.jsy("V", *idx), -HALF * b.t("tV_f23"))
            b.slot_terms(acc, b.th, "pi", idx, b.sy, "M", -2 * b.t("tV_M"))
            b.slot_terms(acc, b.thb, "g", idx, b.sy, "L", -2 * b.t("tV_L"))
        elif fam == "L":
            a1, a2 = idx
            self.gamma_action(acc, "L", idx, b.t("tL_Gam"))
            addmul(acc, b.phi0(), b.sy("L", *idx), 2 * b.t("tL_phi0"))
            addmul(acc, b.f(2) + b.f(3).scale(I), b.sy("M", *idx), HALF * b.t("tL_M1"))
            addmul(acc, b.f(2) - b.f(3).scale(I), b.jsy("M", *idx), HALF * b.t("tL_M2"))
            for s in b.R:
                addmul(acc, b.fu(s), b.sy("V", a1, a2, s), b.t("tL_V1"))
            for m, v, coeff in b.conj_pairs(a1, a2):
                for s in b.R:
                    addmul(acc, b.fub(s), b.syc("V", m, v, s), coeff * b.t("tL_V2"))
            b.slot_terms(acc, b.th, "pi", idx, b.sy, "C", 2 * I * b.t("tL_C1"))
            c2 = 2 * I * b.t("tL_C2")
            for x, y in ((a1, a2), (a2, a1)):
                for t, u in b.c.row("g", x):
                    for s, v in b.c.col("pi_ubar_l", y):
                        addmul(acc, b.thb(t), b.syc("C", s), c2 * u * v)
        elif fam == "M":
            a1, a2 = idx
            self.gamma_action(acc, "M", idx, b.t("tM_Gam"))
            addmul(acc, b.phi0().scale(2) + b.f(1).scale(I), b.sy("M", *idx), b.t("tM_f01"))
            addmul(acc, b.f(2) - b.f(3).scale(I), b.sy("L", *idx), -b.t("tM_L"))
            for s in b.R:
                for t, coeff in b.c.row("pi_u_lbar", s):
                    addmul(acc, b.fub(t), b.sy("V", a1, a2, s), -2 * coeff * b.t("tM_V"))
            b.slot_terms(acc, b.th, "pi", idx, b.sy, "H", 2 * b.t("tM_H"))
            b.slot_terms(acc, b.thb, "g", idx, b.sy, "C", 2 * I * b.t("tM_C"))
        elif fam == "C":
            (a,) = idx
            self.gamma_action(acc, "C", idx, b.t("tC_Gam"))
            addmul(acc, b.phi0().scale(5) + b.f(1).scale(I), b.sy("C", a), HALF * b.t("tC_f01"))
            for s, v in b.c.col("pi_ubar_l", a):
                addmul(acc, b.f(2) - b.f(3).scale(I), b.syc("C", s), -v * b.t("tC_f23C"))
            for s in b.R:
                for t, coeff in b.c.row("pi_u_lbar", s):
                    addmul(acc, b.fub(t), b.sy("L", a, s), -2 * I * coeff * b.t("tC_L"))
            for t in b.R:
                addmul(acc, b.fu(t), b.sy("M", a, t), I * b.t("tC_M"))
            addmul(acc, b.f(2) + b.f(3).scale(I), b.sy("H", a), HALF * I * b.t("tC_H"))
            b.slot_terms(acc, b.th, "pi", idx, b.sy, "P", -HALF * b.t("tC_P"))
            b.slot_terms(acc, b.thb, "g", idx, b.sy, "R", HALF * b.t("tC_R"))
        elif fam == "H":
            (a,) = idx
            self.gamma_action(acc, "H", idx, b.t("tH_Gam"))
            addmul(acc, b.phi0().scale(5) + b.f(1).scale(3 * I), b.sy("H", a), HALF * b.t("tH_f01"))
            addmul(acc, b.f(2) - b.f(3).scale(I), b.sy("C", a),
                   gr(Fraction(3, 2)) * I * b.t("tH_f23C"))
            for s in b.R:
                for t, coeff in b.c.row("pi_u_lbar", s):
                    addmul(acc, b.fub(t), b.sy("M", a, s), -3 * coeff * b.t("tH_M"))
            b.slot_terms(acc, b.th, "pi", idx, b.sy, "Q", HALF * b.t("tH_Q"))
            b.slot_terms(acc, b.thb, "g", idx, b.sy, "P", HALF * I * b.t("tH_P"))
        elif fam == "R":
            addmul(acc, b.phi0(), b.sy("R"), 3 * b.t("tR_phi0"))
            addmul(acc, b.f(2) + b.f(3).scale(I), b.sy("P"), -b.t("tR_P1"))
            addmul(acc, b.f(2) - b.f(3).scale(I), b.syc("P"), -b.t("tR_P2"))
            for t in b.R:
                addmul(acc, b.fu(t), b.sy("C", t), -8 * b.t("tR_C1"))
                addmul(acc, b.fub(t), b.syc("C", t), 8 * b.t("tR_C2"))
        elif fam == "P":
            addmul(acc, b.phi0().scale(3) + b.f(1).scale(I), b.sy("P"), b.t("tP_f01"))
            # printed Q term (phi2 - i phi3) and its weight-consistent
            # replacement (phi2 + i phi3); CORRECTIONS selects the latter
            addmul(acc, b.f(2) - b.f(3).scale(I), b.sy("Q"), -HALF * I * b.t("tP_Q"))
            addmul(acc, b.f(2) + b.f(3).scale(I), b.sy("Q"), -HALF * I * b.t("tP_Qx", 0))
            addmul(acc, b.f(2) - b.f(3).scale(I), b.sy("R"), gr(Fraction(3, 2)) * b.t("tP_R"))
            for t in b.R:
                addmul(acc, b.fu(t), b.sy("H", t), 4 * I * b.t("tP_H"))
            # printed C term (conjugated C) and its replacement (raised C)
            for t in b.R:
                for s, v in b.c.row("pi_bar", t):
                    addmul(acc, b.fub(t), b.syc("C", s), -12 * v * b.t("tP_C"))
                    for u, w in b.c.col("g_up", s):
                        addmul(acc, b.fub(t), b.sy("C", u), -12 * v * w * b.t("tP_Cx", 0))
        elif fam == "Q":
            addmul(acc, b.phi0().scale(3) + b.f(1).scale(2 * I), b.sy("Q"), b.t("tQ_f01"))
            addmul(acc, b.f(2) - b.f(3).scale(I), b.sy("P"), -2 * I * b.t("tQ_P"))
            # printed H term (conjugated raised H against pi-bar) and its
            # replacement contraction pi^t_{s̄} phi^{s̄} H_t
            for t in b.R:
                for s, v in b.c.row("pi_bar", t):
                    for u, w in b.c.col("g_up", s):
                        addmul(acc, b.fub(t), b.syc("H", u), 16 * v * w * b.t("tQ_H"))
            for t in b.R:
                for s, coeff in b.c.row("pi_u_lbar", t):
                    addmul(acc, b.fub(s), b.sy("H", t), 16 * coeff * b.t("tQ_Hx", 0))
        else:
            raise KeyError(fam)

    def secondary_part(self, acc: Acc, fam: str, idx: Tuple[int, ...]) -> None:
        """The semibasic expansion of the starred one-form in terms of
        the first-derivative symbol families."""
        b = self
        if fam == "S":
            for e in b.R:
                addmul(acc, b.th(e), b.sy("sA", *idx, e), b.t("xS_A1"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.jsy("sA", *idx, s), -coeff * b.t("xS_A2"))
            addmul(acc, b.eta(1), b.sy("sB", *idx), b.t("xS_B"))
            addmul(acc, b.eta(1), b.jsy("sB", *idx), b.t("xS_B"))
            addmul(acc, b.eta23p(), b.sy("sC", *idx), I * b.t("xS_C1"))
            addmul(acc, b.eta23m(), b.jsy("sC", *idx), -I * b.t("xS_C2"))
        elif fam == "V":
            for e in b.R:
                addmul(acc, b.th(e), b.sy("sC", *idx, e), b.t("xV_C"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.sy("sB", *idx, s), coeff * b.t("xV_B"))
            addmul(acc, b.eta(1), b.sy("sD", *idx), b.t("xV_D"))
            addmul(acc, b.eta23p(), b.sy("sE", *idx), b.t("xV_E"))
            addmul(acc, b.eta23m(), b.sy("sF", *idx), b.t("xV_F"))
        elif fam == "L":
            for e in b.R:
                addmul(acc, b.th(e), b.jsy("sF", *idx, e), -b.t("xL_F1"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.sy("sF", *idx, s), -coeff * b.t("xL_F2"))
            addmul(acc, b.eta(1), b.jsy("sZ", *idx), I * b.t("xL_Z"))
            addmul(acc, b.eta(1), b.sy("sZ", *idx), -I * b.t("xL_Z"))
            addmul(acc, b.eta23p(), b.sy("sG", *idx), I * b.t("xL_G1"))
            addmul(acc, b.eta23m(), b.jsy("sG", *idx), -I * b.t("xL_G2"))
        elif fam == "M":
            for e in b.R:
                addmul(acc, b.th(e), b.sy("sE", *idx, e), -b.t("xM_E"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.jsy("sF", *idx, s), coeff * b.t("xM_F"))
                    addmul(acc, b.thb(e), b.sy("sD", *idx, s), -I * coeff * b.t("xM_D"))
            addmul(acc, b.eta(1), b.sy("sX", *idx), b.t("xM_X"))
            addmul(acc, b.eta23p(), b.sy("sY", *idx), b.t("xM_Y"))
            addmul(acc, b.eta23m(), b.sy("sZ", *idx), b.t("xM_Z"))
        elif fam == "C":
            (a,) = idx
            for e in b.R:
                addmul(acc, b.th(e), b.sy("sG", a, e), b.t("xC_G"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.sy("sZ", a, s), -I * coeff * b.t("xC_Z"))
            addmul(acc, b.eta(1), b.sy("sN1", a), b.t("xC_N1"))
            addmul(acc, b.eta23p(), b.sy("sN2", a), b.t("xC_N2"))
            addmul(acc, b.eta23m(), b.sy("sN3", a), b.t("xC_N3"))
        elif fam == "H":
            (a,) = idx
            for e in b.R:
                addmul(acc, b.th(e), b.sy("sY", a, e), -b.t("xH_Y"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.sy("sG", a, s), I * coeff * b.t("xH_G"))
                    addmul(acc, b.thb(e), b.sy("sX", a, s), -I * coeff * b.t("xH_X"))
            addmul(acc, b.eta(1), b.sy("sN4", a), b.t("xH_N4"))
            addmul(acc, b.eta23p(), b.sy("sN5", a), b.t("xH_N5"))
            addmul(acc, b.eta23m(), b.sy("sN1", a), b.t("xH_N1"))
            for s, coeff in b.c.col("pi_ubar_l", a):
                addmul(acc, b.eta23m(), b.syc("sN3", s), I * coeff * b.t("xH_N3"))
        elif fam == "R":
            for e in b.R:
                for s, cu in b.c.col("pi_ubar_l", e):
                    addmul(acc, b.th(e), b.syc("sN3", s), 4 * cu * b.t("xR_N3a"))
                for s, cl in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.sy("sN3", s), 4 * cl * b.t("xR_N3b"))
            addmul(acc, b.eta(1), b.sy("sU3"), I * b.t("xR_U3"))
            addmul(acc, b.eta(1), b.syc("sU3"), -I * b.t("xR_U3"))
            addmul(acc, b.eta23p(), b.sy("sU1") + b.sy("sW3"), -I * b.t("xR_UW1"))
            addmul(acc, b.eta23m(), b.syc("sU1") + b.syc("sW3"), I * b.t("xR_UW2"))
        elif fam == "P":
            for e in b.R:
                addmul(acc, b.th(e), b.sy("sN2", e), -4 * b.t("xP_N2"))
                addmul(acc, b.thb(e), b.syc("sN3", e), -4 * b.t("xP_N3"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.sy("sN1", s), -4 * I * coeff * b.t("xP_N1"))
            addmul(acc, b.eta(1), b.sy("sU1"))
            addmul(acc, b.eta23p(), b.sy("sU2"))
            addmul(acc, b.eta23m(), b.sy("sU3"))
        elif fam == "Q":
            for e in b.R:
                addmul(acc, b.th(e), b.sy("sN5", e), 4 * b.t("xQ_N5"))
                for s, coeff in b.c.col("pi_u_lbar", e):
                    addmul(acc, b.thb(e), b.sy("sN2", s), 4 * I * coeff * b.t("xQ_N2"))
                    addmul(acc, b.thb(e), b.sy("sN4", s), 4 * I * coeff * b.t("xQ_N4"))
            addmul(acc, b.eta(1), b.sy("sW1"))
            addmul(acc, b.eta23p(), b.sy("sW2"))
            addmul(acc, b.eta23m(), b.sy("sW3"))
        else:
            raise KeyError(fam)

    def symbol_rule(self, s: Sym) -> Form:
        # negative-control families follow the true rules; their own
        # symbols do not canonicalize, which is the deliberate defect
        fam = CONTROL_FAMILIES.get(s.family, s.family)
        if fam not in CURVATURE_FAMILIES:
            raise KeyError(f"no derivative rule for symbol family {s.family!r}")
        acc: Acc = {}
        self.tilde_star(acc, fam, s.idx)
        self.secondary_part(acc, fam, s.idx)
        return from_acc(self.ext, acc)


def build_rules(n: int, mode: str, signature: Tuple[int, int] = None,
                tamper: Optional[str] = None,
                published: bool = False) -> DRuleSet:
    """Assemble the complete differential rule table.

    mode='flat' transcribes the Maurer-Cartan equations of the model;
    mode='curved' the full structure equations with symbolic curvature.
    tamper='unsym-V' deliberately destroys the total symmetry of the V
    family inside the Gamma rule (negative control).
    published=True disables the calibrated coefficient corrections.
    """
    if n < 1:
        raise InputError("n must be a positive integer")
    if mode not in ("flat", "curved"):
        raise ValueError(f"unknown mode {mode!r}")
    if tamper not in (None, "unsym-V", "unsym-S"):
        raise ValueError(f"unknown tamper {tamper!r}")
    b = RuleBuilder(n, signature, published=published)
    ext = b.ext
    rules: Dict[int, Form] = {}

    def put(key, fill, *args):
        rules[ext.gid[key]] = b.form(fill, *args)

    for s in (1, 2, 3):
        put(("eta", s), b.d_eta, s)
        put(("phi", s), b.d_phi, s)
    put(("phi0",), b.d_phi0)
    for a in b.R:
        put(("theta", a, False), b.d_theta, a)
    for a in b.R:
        for bq in range(a, 2 * n + 1):
            if mode == "flat":
                put(("Gam", a, bq), b.d_gamma_flat, a, bq)
            else:
                vfam = "Vns" if tamper == "unsym-V" else "V"
                sfam = "Sns" if tamper == "unsym-S" else "S"
                put(("Gam", a, bq), b.d_gamma_curved, a, bq, vfam, sfam)
    if mode == "flat":
        for a in b.R:
            put(("phiU", a, False), b.d_phiu_flat, a)
        put(("psi", 1), b.d_psi1_flat)
        d23 = b.form(b.d_psi23_flat)
    else:
        for a in b.R:
            put(("phiU", a, True), b.d_phiu_bar_curved, a)
        put(("psi", 1), b.d_psi1_curved)
        d23 = b.form(b.d_psi23_curved)
    d23c = d23.conj()
    rules[ext.gid[("psi", 2)]] = (d23 + d23c).scale(HALF)
    rules[ext.gid[("psi", 3)]] = (d23 - d23c).scale(-HALF * I)

    sym_rules = None if mode == "flat" else b.symbol_rule
    rs = DRuleSet(ext, rules, sym_rules)
    # barred theta/phiU rules by conjugation (phiU-bar is primary in
    # curved mode, phiU following by conjugation there)
    for a in b.R:
        tb = ext.gid[("theta", a, True)]
        rules[tb] = rules[ext.gid[("theta", a, False)]].conj()
        if mode == "flat":
            rules[ext.gid[("phiU", a, True)]] = rules[ext.gid[("phiU", a, False)]].conj()
        else:
            rules[ext.gid[("phiU", a, False)]] = rules[ext.gid[("phiU", a, True)]].conj()
    return rs


def d_square_report(rules: DRuleSet) -> Dict[Tuple, Form]:
    """Residual d(d(g)) for every primary generator; all-zero output
    certifies the rule table (the Bianchi identities, mechanically)."""
    ext = rules.ext
    out = {}
    for key in coframe.primary_keys(ext.n):
        g = ext.gen(key)
        out[key] = differential(differential(g, rules), rules)
    return out


def substitute_flat(form: Form) -> Form:
    """Set every curvature symbol to zero (the flat reduction)."""
    return Form(form.ext, {
        mono: Poly({smono: c for smono, c in p.terms.items()
                    if not any(s.family in CURVATURE_FAMILIES or s.family in CONTROL_FAMILIES
                               for s in smono)})
        for mono, p in form.terms.items()})


# ---------------------------------------------------------------------------
# starred forms and the displayed Bianchi combinations

def _family_indices(n: int, fam: str):
    arity, symmetric = FAMILIES[fam][:2]
    rng = range(1, 2 * n + 1)
    # symmetric families need only sorted tuples
    if symmetric:
        return list(itertools.combinations_with_replacement(rng, arity))
    return list(itertools.product(rng, repeat=arity))


def star_forms(n: int, signature: Tuple[int, int] = None) -> Dict[Tuple[str, Tuple[int, ...]], Form]:
    """All starred one-forms as their semibasic first-derivative
    expansions."""
    b = RuleBuilder(n, signature)
    out = {}
    for fam in CURVATURE_FAMILIES:
        for idx in _family_indices(n, fam):
            out[(fam, idx)] = b.form(b.secondary_part, fam, idx)
    return out


def star_two_path_check(n: int, signature: Tuple[int, int] = None) -> bool:
    """The starred one-forms two ways, for every component and its
    conjugate.  Path (a) reads d(symbol) as the kernel reads it,
    ``differential`` of the symbol through a rule set that holds the
    curved symbol rules alone (for a conjugate, through the view
    conjugated in integers from the symbol's), minus the tilde part; the
    derivative of a scalar reads no generator rule, so none is built.
    Path (b) is the direct semibasic expansion, conjugated by
    ``Form.conj`` for a conjugate.  Both read one ``RuleBuilder``: the
    symbol rules are its own, and path (b) writes the tilde and semibasic
    parts itself, as two forms, apart from the one-sum symbol rules.
    Every pair is compared, so one wrong entry of any view makes the
    result False."""
    b = RuleBuilder(n, signature)
    ext = b.ext
    rules = DRuleSet(ext, {}, b.symbol_rule)
    ok = True
    for fam in CURVATURE_FAMILIES:
        for idx in _family_indices(n, fam):
            # path (a) = d(symbol), path (b) = tilde + direct, compared
            # as canonical Forms
            both = b.form(b.tilde_star, fam, idx) + b.form(b.secondary_part, fam, idx)
            for conj in (False, True):
                via_rules = differential(ext.scalar(ext.sym(fam, idx, conj)), rules)
                ok &= via_rules == (both.conj() if conj else both)
    return ok


def star_symmetry_check(n: int, signature: Tuple[int, int] = None) -> bool:
    """S* is totally symmetric and j-real as a form-valued array.  Each
    base, the expansion at a sorted index tuple, is built once; every
    unsorted tuple's expansion is compared with its base, and then every
    base with the j image of the base at its partner tuple."""
    b = RuleBuilder(n, signature)
    bases = {idx: b.form(b.secondary_part, "S", idx)
             for idx in itertools.combinations_with_replacement(b.R, 4)}
    for idx in itertools.product(b.R, repeat=4):
        key = tuple(sorted(idx))
        if idx != key and b.form(b.secondary_part, "S", idx) != bases[key]:
            return False
    # j S* = S*: (j S*)_idx = m conj(S*_{p(idx)}), S*_{p(idx)} a base
    # since S* is totally symmetric
    for idx, base in bases.items():
        target, m = b.c.j(idx)
        if bases[tuple(sorted(target))].conj().scale(m) != base:
            return False
    return True


def bianchi_residuals(n: int, signature: Tuple[int, int] = None) -> Dict[str, Form]:
    """The four displayed second-derivative combinations, assembled from
    the starred forms alone (no Leibniz machinery), each of which must
    canonicalize to zero."""
    b = RuleBuilder(n, signature)
    stars = star_forms(n, signature)
    conjugates: Dict[Tuple[str, Tuple[int, ...]], Form] = {}

    def key(fam, idx):
        return fam, tuple(sorted(idx)) if FAMILIES[fam][1] else idx

    def st(fam, *idx):
        return stars[key(fam, idx)]

    def stc(fam, *idx):
        """conj(st(fam, *idx)), conjugated once per component"""
        k = key(fam, idx)
        f = conjugates.get(k)
        if f is None:
            f = conjugates[k] = stars[k].conj()
        return f

    th, thb, eta1, e23p, e23m = b.th, b.thb, b.eta(1), b.eta23p(), b.eta23m()
    col = b.c.col
    out = {}
    # Gamma combination
    for a1 in b.R:
        for a2 in range(a1, 2 * b.n + 1):
            acc: Acc = {}
            pairs = b.conj_pairs(a1, a2)
            for g in b.R:
                for d in b.R:
                    for s, coeff in col("pi_u_lbar", d):
                        addmul(acc, st("S", a1, a2, g, s) ^ (th(g) ^ thb(d)), None, coeff)
            for g in b.R:
                addmul(acc, st("V", a1, a2, g) ^ (th(g) ^ eta1))
                for m, v, coeff in pairs:
                    addmul(acc, stc("V", m, v, g) ^ (thb(g) ^ eta1), None, coeff)
                for s, coeff in col("pi_u_lbar", g):
                    addmul(acc, st("V", a1, a2, s) ^ (thb(g) ^ e23p), None, -I * coeff)
                for m, v, coeff in pairs:
                    for x, u in col("pi_ubar_l", g):
                        addmul(acc, stc("V", m, v, x) ^ (th(g) ^ e23m), None, I * coeff * u)
            addmul(acc, st("L", a1, a2) ^ (e23p ^ e23m), None, -I)
            addmul(acc, st("M", a1, a2) ^ (eta1 ^ e23p))
            for m, v, coeff in pairs:
                addmul(acc, stc("M", m, v) ^ (eta1 ^ e23m), None, coeff)
            out[f"d2Gamma_{a1}{a2}"] = from_acc(b.ext, acc)
    # phi combination
    for a in b.R:
        acc = {}
        for be in b.R:
            for g in b.R:
                for v, coeff in col("pi_u_lbar", g):
                    addmul(acc, st("V", a, be, v) ^ (th(be) ^ thb(g)), None, -I * coeff)
        for be in b.R:
            for m, coeff in col("pi_ubar_l", a):
                addmul(acc, stc("L", m, be) ^ (thb(be) ^ eta1), None, coeff)
            addmul(acc, st("M", a, be) ^ (th(be) ^ eta1))
            for v, coeff in col("pi_u_lbar", be):
                addmul(acc, st("M", a, v) ^ (thb(be) ^ e23p), None, -I * coeff)
            addmul(acc, st("L", a, be) ^ (th(be) ^ e23m), None, I)
        addmul(acc, st("C", a) ^ (e23p ^ e23m), None, -ONE)
        for m, coeff in col("pi_ubar_l", a):
            addmul(acc, stc("C", m) ^ (eta1 ^ e23m), None, I * coeff)
        addmul(acc, st("H", a) ^ (eta1 ^ e23p))
        out[f"d2phi_{a}"] = from_acc(b.ext, acc)
    # psi1 combination
    acc = {}
    for be in b.R:
        for g in b.R:
            for m, coeff in col("pi_u_lbar", g):
                addmul(acc, st("L", be, m) ^ (th(be) ^ thb(g)), None, 4 * coeff)
    for be in b.R:
        addmul(acc, st("C", be) ^ (th(be) ^ eta1), None, gr(4))
        addmul(acc, stc("C", be) ^ (thb(be) ^ eta1), None, gr(4))
        for m, coeff in col("pi_ubar_l", be):
            addmul(acc, stc("C", m) ^ (th(be) ^ e23m), None, 4 * I * coeff)
        for m, coeff in col("pi_u_lbar", be):
            addmul(acc, st("C", m) ^ (thb(be) ^ e23p), None, -4 * I * coeff)
    addmul(acc, st("P") ^ (eta1 ^ e23p))
    addmul(acc, stc("P") ^ (eta1 ^ e23m))
    addmul(acc, st("R") ^ (e23p ^ e23m), None, I)
    out["d2psi_1"] = from_acc(b.ext, acc)
    # psi2 + i psi3 combination
    acc = {}
    for be in b.R:
        for g in b.R:
            for m, coeff in col("pi_ubar_l", be):
                addmul(acc, stc("M", m, g) ^ (th(be) ^ thb(g)), None, 4 * I * coeff)
    for be in b.R:
        for m, coeff in col("pi_ubar_l", be):
            addmul(acc, stc("C", m) ^ (th(be) ^ eta1), None, 4 * I * coeff)
            addmul(acc, stc("H", m) ^ (th(be) ^ e23m), None, -4 * I * coeff)
        addmul(acc, stc("H", be) ^ (thb(be) ^ eta1), None, gr(-4))
        addmul(acc, stc("C", be) ^ (thb(be) ^ e23p), None, gr(-4))
    addmul(acc, st("R") ^ (eta1 ^ e23p), None, -I)
    addmul(acc, stc("Q") ^ (eta1 ^ e23m))
    addmul(acc, stc("P") ^ (e23p ^ e23m), None, -ONE)
    out["d2psi_23"] = from_acc(b.ext, acc)
    return out
