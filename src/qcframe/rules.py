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

from fractions import Fraction
from typing import Dict, Optional, Tuple

from .gauss import GaussRational, gr
from . import coframe
from .forms import DRuleSet, Exterior, Form, Poly, Sym, differential

I = gr(0, 1)
H = gr(Fraction(1, 2))

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

    ``tweaks`` maps term tags to multipliers; the default multiplier of
    every tagged display term is its calibrated value (CORRECTIONS),
    falling back to 1.  Passing ``published=True`` forces every
    multiplier to 1, i.e. the displays exactly as printed.
    """

    def __init__(self, n: int, signature: Tuple[int, int] = None,
                 tweaks: Optional[Dict[str, GaussRational]] = None,
                 published: bool = False):
        self.ext = Exterior(n, signature)
        self.c = self.ext.consts
        self.R = range(1, 2 * n + 1)
        self.n = n
        self.tweaks = dict(tweaks or {})
        self.published = published

    def t(self, tag: str, default=1) -> GaussRational:
        if tag in self.tweaks:
            return GaussRational.of(self.tweaks[tag])
        if self.published:
            return GaussRational.of(default)
        return GaussRational.of(CORRECTIONS.get(tag, default))

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

    def th_lo(self, a):
        """theta_a = g_{s̄ a} theta^{s̄}"""
        out = self.ext.zero()
        for s in self.R:
            out = out + self.thb(s).scale(self.c.g(a, s))
        return out

    def th_lo_bar(self, a):
        """theta_ā = g_{s ā} theta^{s}"""
        out = self.ext.zero()
        for s in self.R:
            out = out + self.th(s).scale(self.c.g(s, a))
        return out

    def fu_lo(self, a):
        out = self.ext.zero()
        for s in self.R:
            out = out + self.fub(s).scale(self.c.g(a, s))
        return out

    def fu_lo_bar(self, a):
        out = self.ext.zero()
        for s in self.R:
            out = out + self.fu(s).scale(self.c.g(s, a))
        return out

    # symbol shorthands ------------------------------------------------------

    def sy(self, fam, *idx) -> Poly:
        return self.ext.sym(fam, idx)

    def syc(self, fam, *idx) -> Poly:
        return self.ext.sym(fam, idx, conj=True)

    def jsy(self, fam, *idx) -> Poly:
        return self.ext.jsym(fam, idx)

    def eta23p(self):
        return self.eta(2) + self.eta(3).scale(I)

    def eta23m(self):
        return self.eta(2) - self.eta(3).scale(I)

    # ----------------------------------------------------------------------
    # flat structure equations (Maurer-Cartan transcription)

    def d_eta(self, s) -> Form:
        b = self
        if s == 1:
            out = (-(b.phi0() ^ b.eta(1)) - (b.f(2) ^ b.eta(3)) + (b.f(3) ^ b.eta(2)))
            for al in b.R:
                for be in b.R:
                    out = out + (b.th(al) ^ b.thb(be)).scale(2 * I * b.c.g(al, be))
            return out
        if s == 2:
            out = (-(b.phi0() ^ b.eta(2)) - (b.f(3) ^ b.eta(1)) + (b.f(1) ^ b.eta(3)))
            for al in b.R:
                for be in b.R:
                    out = out + (b.th(al) ^ b.th(be)).scale(b.c.pi(al, be))
                    out = out + (b.thb(al) ^ b.thb(be)).scale(b.c.pi_bar(al, be))
            return out
        if s == 3:
            out = (-(b.phi0() ^ b.eta(3)) - (b.f(1) ^ b.eta(2)) + (b.f(2) ^ b.eta(1)))
            for al in b.R:
                for be in b.R:
                    out = out - (b.th(al) ^ b.th(be)).scale(I * b.c.pi(al, be))
                    out = out + (b.thb(al) ^ b.thb(be)).scale(I * b.c.pi_bar(al, be))
            return out
        raise ValueError(s)

    def d_theta(self, a) -> Form:
        b = self
        out = -(b.fu(a) ^ b.eta(1)).scale(I)
        for s in b.R:
            out = out - (b.fub(s) ^ b.eta23p()).scale(b.c.pi_u_lbar(a, s))
        for s in b.R:
            for be in b.R:
                out = out - (b.gam(s, be) ^ b.th(be)).scale(b.c.pi_up(a, s))
        out = out - ((b.phi0() + b.f(1).scale(I)) ^ b.th(a)).scale(H)
        for be in b.R:
            out = out - ((b.f(2) + b.f(3).scale(I)) ^ b.thb(be)).scale(H * b.c.pi_u_lbar(a, be))
        return out

    def d_phi0(self) -> Form:
        b = self
        out = (-(b.psi(1) ^ b.eta(1)) - (b.psi(2) ^ b.eta(2)) - (b.psi(3) ^ b.eta(3)))
        for be in b.R:
            out = out - (b.fu_lo(be) ^ b.th(be)).scale(2)
            out = out - (b.fu_lo_bar(be) ^ b.thb(be)).scale(2)
        return out

    def d_phi(self, s) -> Form:
        b = self
        if s == 1:
            out = (-(b.f(2) ^ b.f(3)) - (b.psi(2) ^ b.eta(3)) + (b.psi(3) ^ b.eta(2)))
            for be in b.R:
                out = out + (b.fu_lo(be) ^ b.th(be)).scale(2 * I)
                out = out - (b.fu_lo_bar(be) ^ b.thb(be)).scale(2 * I)
            return out
        if s == 2:
            out = (-(b.f(3) ^ b.f(1)) - (b.psi(3) ^ b.eta(1)) + (b.psi(1) ^ b.eta(3)))
            for si in b.R:
                for be in b.R:
                    out = out - (b.fu(si) ^ b.th(be)).scale(2 * b.c.pi(si, be))
                    out = out - (b.fub(si) ^ b.thb(be)).scale(2 * b.c.pi_bar(si, be))
            return out
        if s == 3:
            out = (-(b.f(1) ^ b.f(2)) - (b.psi(1) ^ b.eta(2)) + (b.psi(2) ^ b.eta(1)))
            for si in b.R:
                for be in b.R:
                    out = out + (b.fu(si) ^ b.th(be)).scale(2 * I * b.c.pi(si, be))
                    out = out - (b.fub(si) ^ b.thb(be)).scale(2 * I * b.c.pi_bar(si, be))
            return out
        raise ValueError(s)

    def d_gamma_flat(self, a, bq) -> Form:
        b = self
        out = b.ext.zero()
        for s in b.R:
            for t in b.R:
                out = out - (b.gam(a, s) ^ b.gam(t, bq)).scale(b.c.pi_up(s, t))
        for s in b.R:
            m_a = b.c.pi_ubar_l(s, a)
            if not m_a.is_zero():
                out = out + ((b.fu_lo(bq) ^ b.th_lo_bar(s))
                             - (b.fu_lo_bar(s) ^ b.th_lo(bq))).scale(2 * m_a)
            m_b = b.c.pi_ubar_l(s, bq)
            if not m_b.is_zero():
                out = out + ((b.fu_lo(a) ^ b.th_lo_bar(s))
                             - (b.fu_lo_bar(s) ^ b.th_lo(a))).scale(2 * m_b)
        return out

    def d_phiu_flat(self, a) -> Form:
        """d phi^a from the flat model display (not used in curved mode)."""
        b = self
        out = ((b.phi0() - b.f(1).scale(I)) ^ b.fu(a)).scale(H)
        for g in b.R:
            out = out - ((b.f(2) + b.f(3).scale(I)) ^ b.fub(g)).scale(H * b.c.pi_u_lbar(a, g))
        for s in b.R:
            for g in b.R:
                out = out - (b.gam(s, g) ^ b.fu(g)).scale(b.c.pi_up(a, s))
        out = out + (b.psi(1) ^ b.th(a)).scale(H * I)
        for g in b.R:
            out = out + ((b.psi(2) + b.psi(3).scale(I)) ^ b.thb(g)).scale(H * b.c.pi_u_lbar(a, g))
        return out

    def d_psi1_flat(self) -> Form:
        b = self
        out = ((b.phi0() ^ b.psi(1)) - (b.f(2) ^ b.psi(3)) + (b.f(3) ^ b.psi(2)))
        for g in b.R:
            out = out - (b.fu_lo(g) ^ b.fu(g)).scale(4 * I)
        return out

    def d_psi23_flat(self) -> Form:
        b = self
        psi23 = b.psi(2) + b.psi(3).scale(I)
        out = ((b.phi0() - b.f(1).scale(I)) ^ psi23)
        out = out + ((b.f(2) + b.f(3).scale(I)) ^ b.psi(1)).scale(I)
        for g in b.R:
            for d in b.R:
                out = out + (b.fu(g) ^ b.fu(d)).scale(4 * b.c.pi(g, d))
        return out

    # ----------------------------------------------------------------------
    # curvature additions

    def gamma_curvature(self, a, bq, vfam: str = "V", sfam: str = "S") -> Form:
        b = self
        out = b.ext.zero()
        for g in b.R:
            for d in b.R:
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, d)
                    if not coeff.is_zero():
                        out = out + (b.th(g) ^ b.thb(d)).scale(
                            b.sy(sfam, a, bq, g, s).scale(coeff * b.t("gam_S")))
        for g in b.R:
            term = b.sy(vfam, a, bq, g).scale(b.t("gam_V1"))
            out = out + (b.th(g) ^ b.eta(1)).scale(term)
            barred = Poly()
            for s in b.R:
                for t in b.R:
                    coeff = b.c.pi_ubar_l(s, a) * b.c.pi_ubar_l(t, bq)
                    if not coeff.is_zero():
                        barred = barred + b.ext.sym(vfam, (s, t, g), conj=True).scale(coeff)
            out = out + (b.thb(g) ^ b.eta(1)).scale(barred.scale(b.t("gam_V1b")))
        for g in b.R:
            pol = Poly()
            for s in b.R:
                coeff = b.c.pi_u_lbar(s, g)
                if not coeff.is_zero():
                    pol = pol + b.sy(vfam, a, bq, s).scale(coeff)
            out = out - (b.thb(g) ^ b.eta23p()).scale(pol.scale(I * b.t("gam_V2")))
            out = out + (b.th(g) ^ b.eta23m()).scale(
                b.ext.jsym(vfam, (a, bq, g)).scale(I * b.t("gam_V3")))
        out = out - (b.eta23p() ^ b.eta23m()).scale(b.sy("L", a, bq).scale(I * b.t("gam_L")))
        out = out + (b.eta(1) ^ b.eta23p()).scale(b.sy("M", a, bq).scale(b.t("gam_M1")))
        out = out + (b.eta(1) ^ b.eta23m()).scale(b.jsy("M", a, bq).scale(b.t("gam_M2")))
        return out

    def d_gamma_curved(self, a, bq, vfam: str = "V", sfam: str = "S") -> Form:
        return self.d_gamma_flat(a, bq) + self.gamma_curvature(a, bq, vfam, sfam)

    def d_phi_lo_curved(self, a) -> Form:
        """d phi_a, the lowered-index display with curvature terms."""
        b = self
        out = ((b.phi0() + b.f(1).scale(I)) ^ b.fu_lo(a)).scale(H)
        for g in b.R:
            out = out + ((b.f(2) - b.f(3).scale(I)) ^ b.fu(g)).scale(H * b.c.pi(a, g))
        for s in b.R:
            coeff = b.c.pi_ubar_l(s, a)
            if not coeff.is_zero():
                for g in b.R:
                    out = out - (b.gamb(s, g) ^ b.fub(g)).scale(coeff)
        out = out - (b.psi(1) ^ b.th_lo(a)).scale(H * I)
        for g in b.R:
            out = out - ((b.psi(2) - b.psi(3).scale(I)) ^ b.th(g)).scale(H * b.c.pi(a, g))
        # curvature terms
        for g in b.R:
            for d in b.R:
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, d)
                    if not coeff.is_zero():
                        pol = pol + b.sy("V", a, g, s).scale(coeff)
                out = out - (b.th(g) ^ b.thb(d)).scale(pol.scale(I * b.t("phi_V")))
        for g in b.R:
            out = out + (b.th(g) ^ b.eta(1)).scale(b.sy("M", a, g).scale(b.t("phi_M1")))
            pol = Poly()
            for s in b.R:
                coeff = b.c.pi_ubar_l(s, a)
                if not coeff.is_zero():
                    pol = pol + b.ext.sym("L", (s, g), conj=True).scale(coeff)
            out = out + (b.thb(g) ^ b.eta(1)).scale(pol.scale(b.t("phi_L1")))
            out = out + (b.th(g) ^ b.eta23m()).scale(b.sy("L", a, g).scale(I * b.t("phi_L2")))
            pol2 = Poly()
            for s in b.R:
                coeff = b.c.pi_u_lbar(s, g)
                if not coeff.is_zero():
                    pol2 = pol2 + b.sy("M", a, s).scale(coeff)
            out = out - (b.thb(g) ^ b.eta23p()).scale(pol2.scale(I * b.t("phi_M2")))
        out = out - (b.eta23p() ^ b.eta23m()).scale(b.sy("C", a).scale(b.t("phi_C")))
        out = out + (b.eta(1) ^ b.eta23p()).scale(b.sy("H", a).scale(b.t("phi_H")))
        c_up = Poly()
        for s in b.R:
            for t in b.R:
                coeff = b.c.pi(a, s) * b.c.g_up(s, t)
                if not coeff.is_zero():
                    c_up = c_up + b.ext.sym("C", (t,), conj=True).scale(coeff)
        out = out + (b.eta(1) ^ b.eta23m()).scale(c_up.scale(I * b.t("phi_Cup")))
        return out

    def d_phiu_bar_curved(self, a) -> Form:
        """d phi^{ā} by raising the lowered display with g."""
        b = self
        out = b.ext.zero()
        for s in b.R:
            coeff = b.c.g_up(s, a)
            if not coeff.is_zero():
                out = out + self.d_phi_lo_curved(s).scale(coeff)
        return out

    def d_psi1_curved(self) -> Form:
        b = self
        out = self.d_psi1_flat()
        for g in b.R:
            for d in b.R:
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, d)
                    if not coeff.is_zero():
                        pol = pol + b.sy("L", g, s).scale(coeff)
                out = out + (b.th(g) ^ b.thb(d)).scale(pol.scale(4 * b.t("psi1_L")))
        for g in b.R:
            out = out + (b.th(g) ^ b.eta(1)).scale(b.sy("C", g).scale(4 * b.t("psi1_C1")))
            out = out + (b.thb(g) ^ b.eta(1)).scale(b.syc("C", g).scale(4 * b.t("psi1_C2")))
            # -4i pi_{ḡ s̄} C^{s̄} theta^{ḡ} (eta2+i eta3)
            polb = Poly()
            for s in b.R:
                for t in b.R:
                    coeff = b.c.pi_bar(g, s) * b.c.g_up(t, s)
                    if not coeff.is_zero():
                        polb = polb + b.sy("C", t).scale(coeff)
            out = out - (b.thb(g) ^ b.eta23p()).scale(polb.scale(4 * I * b.t("psi1_C3")))
            pol = Poly()
            for s in b.R:
                for t in b.R:
                    coeff = b.c.pi(g, s) * b.c.g_up(s, t)
                    if not coeff.is_zero():
                        pol = pol + b.ext.sym("C", (t,), conj=True).scale(coeff)
            out = out + (b.th(g) ^ b.eta23m()).scale(pol.scale(4 * I * b.t("psi1_C4")))
        out = out + (b.eta(1) ^ b.eta23p()).scale(b.sy("P").scale(b.t("psi1_P1")))
        out = out + (b.eta(1) ^ b.eta23m()).scale(b.syc("P").scale(b.t("psi1_P2")))
        out = out + (b.eta23p() ^ b.eta23m()).scale(b.sy("R").scale(I * b.t("psi1_R")))
        return out

    def d_psi23_curved(self) -> Form:
        b = self
        out = self.d_psi23_flat()
        for g in b.R:
            for d in b.R:
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_ubar_l(s, g)
                    if not coeff.is_zero():
                        pol = pol + b.ext.sym("M", (s, d), conj=True).scale(coeff)
                out = out + (b.th(g) ^ b.thb(d)).scale(pol.scale(4 * I * b.t("psi23_M")))
        for g in b.R:
            pol = Poly()
            for s in b.R:
                coeff = b.c.pi_ubar_l(s, g)
                if not coeff.is_zero():
                    pol = pol + b.syc("C", s).scale(coeff)
            out = out + (b.th(g) ^ b.eta(1)).scale(pol.scale(4 * I * b.t("psi23_C1")))
            out = out - (b.thb(g) ^ b.eta(1)).scale(b.syc("H", g).scale(4 * b.t("psi23_H1")))
            out = out - (b.thb(g) ^ b.eta23p()).scale(b.syc("C", g).scale(4 * I * b.t("psi23_C2")))
            polh = Poly()
            for s in b.R:
                coeff = b.c.pi_ubar_l(s, g)
                if not coeff.is_zero():
                    polh = polh + b.syc("H", s).scale(coeff)
            out = out - (b.th(g) ^ b.eta23m()).scale(polh.scale(4 * I * b.t("psi23_H2")))
        out = out - (b.eta(1) ^ b.eta23p()).scale(b.sy("R").scale(I * b.t("psi23_R")))
        out = out + (b.eta(1) ^ b.eta23m()).scale(b.syc("Q").scale(b.t("psi23_Q")))
        out = out - (b.eta23p() ^ b.eta23m()).scale(b.syc("P").scale(b.t("psi23_P")))
        return out

    # ----------------------------------------------------------------------
    # starred one-forms: tilde parts and semibasic first-derivative parts

    def gamma_action(self, fam: str, idx: Tuple[int, ...]) -> Form:
        """sum over slots of pi^{t v} Gamma_{v idx_k} F_{idx with t at k}"""
        b = self
        out = b.ext.zero()
        for k, a in enumerate(idx):
            for t in b.R:
                for v in b.R:
                    coeff = b.c.pi_up(t, v)
                    if not coeff.is_zero():
                        jdx = idx[:k] + (t,) + idx[k + 1:]
                        out = out + b.gam(v, a).scale(b.ext.sym(fam, jdx).scale(coeff))
        return out

    def tilde_star(self, fam: str, idx: Tuple[int, ...]) -> Form:
        b = self
        if fam == "S":
            a1, a2, a3, a4 = idx
            out = self.gamma_action("S", idx).scale(b.t("tS_Gam"))
            out = out + b.phi0().scale(b.sy("S", *idx).scale(b.t("tS_phi0")))
            for t in b.R:
                pol = (b.sy("V", a4, a2, a3).scale(b.c.pi(a1, t))
                       + b.sy("V", a1, a3, a4).scale(b.c.pi(a2, t))
                       + b.sy("V", a1, a2, a4).scale(b.c.pi(a3, t))
                       + b.sy("V", a1, a2, a3).scale(b.c.pi(a4, t)))
                out = out + b.th(t).scale(pol.scale(2 * I * b.t("tS_V")))
                polb = (b.jsy("V", a4, a2, a3).scale(b.c.g(a1, t))
                        + b.jsy("V", a1, a4, a3).scale(b.c.g(a2, t))
                        + b.jsy("V", a1, a2, a4).scale(b.c.g(a3, t))
                        + b.jsy("V", a1, a2, a3).scale(b.c.g(a4, t)))
                out = out + b.thb(t).scale(polb.scale(2 * I * b.t("tS_jV")))
            return out
        if fam == "V":
            a1, a2, a3 = idx
            out = self.gamma_action("V", idx).scale(b.t("tV_Gam"))
            for s in b.R:
                for t in b.R:
                    coeff = b.c.pi_u_lbar(s, t)
                    if not coeff.is_zero():
                        out = out + b.fub(t).scale(
                            b.sy("S", a1, a2, a3, s).scale(I * coeff * b.t("tV_S")))
            out = out + (b.phi0().scale(3) + b.f(1).scale(I)).scale(
                b.sy("V", *idx).scale(H * b.t("tV_f01")))
            out = out - (b.f(2) - b.f(3).scale(I)).scale(
                b.jsy("V", *idx).scale(H * b.t("tV_f23")))
            for t in b.R:
                pol = (b.sy("M", a2, a3).scale(b.c.pi(a1, t))
                       + b.sy("M", a1, a3).scale(b.c.pi(a2, t))
                       + b.sy("M", a1, a2).scale(b.c.pi(a3, t)))
                out = out - b.th(t).scale(pol.scale(2 * b.t("tV_M")))
                polb = (b.sy("L", a2, a3).scale(b.c.g(a1, t))
                        + b.sy("L", a1, a3).scale(b.c.g(a2, t))
                        + b.sy("L", a1, a2).scale(b.c.g(a3, t)))
                out = out - b.thb(t).scale(polb.scale(2 * b.t("tV_L")))
            return out
        if fam == "L":
            a1, a2 = idx
            out = self.gamma_action("L", idx).scale(b.t("tL_Gam"))
            out = out + b.phi0().scale(b.sy("L", *idx).scale(2 * b.t("tL_phi0")))
            out = out + (b.f(2) + b.f(3).scale(I)).scale(
                b.sy("M", *idx).scale(H * b.t("tL_M1")))
            out = out + (b.f(2) - b.f(3).scale(I)).scale(
                b.jsy("M", *idx).scale(H * b.t("tL_M2")))
            for s in b.R:
                out = out + b.fu(s).scale(b.sy("V", a1, a2, s).scale(b.t("tL_V1")))
            for m in b.R:
                for v in b.R:
                    coeff = b.c.pi_ubar_l(m, a1) * b.c.pi_ubar_l(v, a2)
                    if not coeff.is_zero():
                        for s in b.R:
                            out = out + b.fub(s).scale(
                                b.ext.sym("V", (m, v, s), conj=True).scale(
                                    coeff * b.t("tL_V2")))
            for t in b.R:
                pol = (b.sy("C", a2).scale(b.c.pi(a1, t))
                       + b.sy("C", a1).scale(b.c.pi(a2, t)))
                out = out + b.th(t).scale(pol.scale(2 * I * b.t("tL_C1")))
                polb = Poly()
                for s in b.R:
                    polb = polb + b.syc("C", s).scale(
                        b.c.g(a1, t) * b.c.pi_ubar_l(s, a2)
                        + b.c.g(a2, t) * b.c.pi_ubar_l(s, a1))
                out = out + b.thb(t).scale(polb.scale(2 * I * b.t("tL_C2")))
            return out
        if fam == "M":
            a1, a2 = idx
            out = self.gamma_action("M", idx).scale(b.t("tM_Gam"))
            out = out + (b.phi0().scale(2) + b.f(1).scale(I)).scale(
                b.sy("M", *idx).scale(b.t("tM_f01")))
            out = out - (b.f(2) - b.f(3).scale(I)).scale(
                b.sy("L", *idx).scale(b.t("tM_L")))
            for s in b.R:
                for t in b.R:
                    coeff = b.c.pi_u_lbar(s, t)
                    if not coeff.is_zero():
                        out = out - b.fub(t).scale(
                            b.sy("V", a1, a2, s).scale(2 * coeff * b.t("tM_V")))
            for t in b.R:
                pol = (b.sy("H", a2).scale(b.c.pi(a1, t))
                       + b.sy("H", a1).scale(b.c.pi(a2, t)))
                out = out + b.th(t).scale(pol.scale(2 * b.t("tM_H")))
                polb = (b.sy("C", a2).scale(b.c.g(a1, t))
                        + b.sy("C", a1).scale(b.c.g(a2, t)))
                out = out + b.thb(t).scale(polb.scale(2 * I * b.t("tM_C")))
            return out
        if fam == "C":
            (a,) = idx
            out = self.gamma_action("C", idx).scale(b.t("tC_Gam"))
            out = out + (b.phi0().scale(5) + b.f(1).scale(I)).scale(
                b.sy("C", a).scale(H * b.t("tC_f01")))
            pol = Poly()
            for s in b.R:
                pol = pol + b.syc("C", s).scale(b.c.pi_ubar_l(s, a))
            out = out - (b.f(2) - b.f(3).scale(I)).scale(pol.scale(b.t("tC_f23C")))
            for s in b.R:
                for t in b.R:
                    coeff = b.c.pi_u_lbar(s, t)
                    if not coeff.is_zero():
                        out = out - b.fub(t).scale(
                            b.sy("L", a, s).scale(2 * I * coeff * b.t("tC_L")))
            for t in b.R:
                out = out + b.fu(t).scale(b.sy("M", a, t).scale(I * b.t("tC_M")))
            out = out + (b.f(2) + b.f(3).scale(I)).scale(
                b.sy("H", a).scale(H * I * b.t("tC_H")))
            for t in b.R:
                out = out - b.th(t).scale(b.sy("P").scale(H * b.c.pi(a, t) * b.t("tC_P")))
                out = out + b.thb(t).scale(b.sy("R").scale(H * b.c.g(a, t) * b.t("tC_R")))
            return out
        if fam == "H":
            (a,) = idx
            out = self.gamma_action("H", idx).scale(b.t("tH_Gam"))
            out = out + (b.phi0().scale(5) + b.f(1).scale(3 * I)).scale(
                b.sy("H", a).scale(H * b.t("tH_f01")))
            out = out + (b.f(2) - b.f(3).scale(I)).scale(
                b.sy("C", a).scale(gr(Fraction(3, 2)) * I * b.t("tH_f23C")))
            for s in b.R:
                for t in b.R:
                    coeff = b.c.pi_u_lbar(s, t)
                    if not coeff.is_zero():
                        out = out - b.fub(t).scale(
                            b.sy("M", a, s).scale(3 * coeff * b.t("tH_M")))
            for t in b.R:
                out = out + b.th(t).scale(b.sy("Q").scale(H * b.c.pi(a, t) * b.t("tH_Q")))
                out = out + b.thb(t).scale(b.sy("P").scale(H * I * b.c.g(a, t) * b.t("tH_P")))
            return out
        if fam == "R":
            out = b.phi0().scale(b.sy("R").scale(3 * b.t("tR_phi0")))
            out = out - (b.f(2) + b.f(3).scale(I)).scale(b.sy("P").scale(b.t("tR_P1")))
            out = out - (b.f(2) - b.f(3).scale(I)).scale(b.syc("P").scale(b.t("tR_P2")))
            for t in b.R:
                out = out - b.fu(t).scale(b.sy("C", t).scale(8 * b.t("tR_C1")))
                out = out + b.fub(t).scale(b.syc("C", t).scale(8 * b.t("tR_C2")))
            return out
        if fam == "P":
            out = (b.phi0().scale(3) + b.f(1).scale(I)).scale(b.sy("P").scale(b.t("tP_f01")))
            # printed Q term (phi2 - i phi3) and its weight-consistent
            # replacement (phi2 + i phi3); CORRECTIONS selects the latter
            out = out - (b.f(2) - b.f(3).scale(I)).scale(
                b.sy("Q").scale(H * I * b.t("tP_Q")))
            out = out - (b.f(2) + b.f(3).scale(I)).scale(
                b.sy("Q").scale(H * I * b.t("tP_Qx", 0)))
            out = out + (b.f(2) - b.f(3).scale(I)).scale(
                b.sy("R").scale(gr(Fraction(3, 2)) * b.t("tP_R")))
            for t in b.R:
                out = out + b.fu(t).scale(b.sy("H", t).scale(4 * I * b.t("tP_H")))
            # printed C term (conjugated C) and its replacement (raised C)
            for t in b.R:
                for s in b.R:
                    coeff = b.c.pi_bar(t, s)
                    if not coeff.is_zero():
                        out = out - b.fub(t).scale(
                            b.syc("C", s).scale(12 * coeff * b.t("tP_C")))
                    for u in b.R:
                        coeff2 = b.c.pi_bar(t, s) * b.c.g_up(u, s)
                        if not coeff2.is_zero():
                            out = out - b.fub(t).scale(
                                b.sy("C", u).scale(12 * coeff2 * b.t("tP_Cx", 0)))
            return out
        if fam == "Q":
            out = (b.phi0().scale(3) + b.f(1).scale(2 * I)).scale(
                b.sy("Q").scale(b.t("tQ_f01")))
            out = out - (b.f(2) - b.f(3).scale(I)).scale(
                b.sy("P").scale(2 * I * b.t("tQ_P")))
            # printed H term (conjugated raised H against pi-bar) and its
            # replacement contraction pi^t_{s̄} phi^{s̄} H_t
            for t in b.R:
                for s in b.R:
                    for u in b.R:
                        coeff = b.c.pi_bar(t, s) * b.c.g_up(u, s)
                        if not coeff.is_zero():
                            out = out + b.fub(t).scale(
                                b.syc("H", u).scale(16 * coeff * b.t("tQ_H")))
            for t in b.R:
                for s in b.R:
                    coeff = b.c.pi_u_lbar(t, s)
                    if not coeff.is_zero():
                        out = out + b.fub(s).scale(
                            b.sy("H", t).scale(16 * coeff * b.t("tQ_Hx", 0)))
            return out
        raise KeyError(fam)

    def secondary_part(self, fam: str, idx: Tuple[int, ...]) -> Form:
        """The semibasic expansion of the starred one-form in terms of
        the first-derivative symbol families."""
        b = self
        if fam == "S":
            out = b.ext.zero()
            for e in b.R:
                out = out + b.th(e).scale(b.sy("sA", *(idx + (e,))).scale(b.t("xS_A1")))
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + b.ext.jsym("sA", idx + (s,)).scale(coeff)
                out = out - b.thb(e).scale(pol.scale(b.t("xS_A2")))
            out = out + b.eta(1).scale(
                (b.sy("sB", *idx) + b.jsy("sB", *idx)).scale(b.t("xS_B")))
            out = out + b.eta23p().scale(b.sy("sC", *idx).scale(I * b.t("xS_C1")))
            out = out - b.eta23m().scale(b.jsy("sC", *idx).scale(I * b.t("xS_C2")))
            return out
        if fam == "V":
            out = b.ext.zero()
            for e in b.R:
                out = out + b.th(e).scale(b.sy("sC", *(idx + (e,))).scale(b.t("xV_C")))
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + b.sy("sB", *(idx + (s,))).scale(coeff)
                out = out + b.thb(e).scale(pol.scale(b.t("xV_B")))
            out = out + b.eta(1).scale(b.sy("sD", *idx).scale(b.t("xV_D")))
            out = out + b.eta23p().scale(b.sy("sE", *idx).scale(b.t("xV_E")))
            out = out + b.eta23m().scale(b.sy("sF", *idx).scale(b.t("xV_F")))
            return out
        if fam == "L":
            out = b.ext.zero()
            for e in b.R:
                out = out - b.th(e).scale(b.jsy("sF", *(idx + (e,))).scale(b.t("xL_F1")))
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + b.sy("sF", *(idx + (s,))).scale(coeff)
                out = out - b.thb(e).scale(pol.scale(b.t("xL_F2")))
            out = out + b.eta(1).scale(
                (b.jsy("sZ", *idx) - b.sy("sZ", *idx)).scale(I * b.t("xL_Z")))
            out = out + b.eta23p().scale(b.sy("sG", *idx).scale(I * b.t("xL_G1")))
            out = out - b.eta23m().scale(b.jsy("sG", *idx).scale(I * b.t("xL_G2")))
            return out
        if fam == "M":
            out = b.ext.zero()
            for e in b.R:
                out = out - b.th(e).scale(b.sy("sE", *(idx + (e,))).scale(b.t("xM_E")))
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + (b.jsy("sF", *(idx + (s,))).scale(b.t("xM_F"))
                                     - b.sy("sD", *(idx + (s,))).scale(I * b.t("xM_D"))
                                     ).scale(coeff)
                out = out + b.thb(e).scale(pol)
            out = out + b.eta(1).scale(b.sy("sX", *idx).scale(b.t("xM_X")))
            out = out + b.eta23p().scale(b.sy("sY", *idx).scale(b.t("xM_Y")))
            out = out + b.eta23m().scale(b.sy("sZ", *idx).scale(b.t("xM_Z")))
            return out
        if fam == "C":
            (a,) = idx
            out = b.ext.zero()
            for e in b.R:
                out = out + b.th(e).scale(b.sy("sG", a, e).scale(b.t("xC_G")))
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + b.sy("sZ", a, s).scale(coeff)
                out = out - b.thb(e).scale(pol.scale(I * b.t("xC_Z")))
            out = out + b.eta(1).scale(b.sy("sN1", a).scale(b.t("xC_N1")))
            out = out + b.eta23p().scale(b.sy("sN2", a).scale(b.t("xC_N2")))
            out = out + b.eta23m().scale(b.sy("sN3", a).scale(b.t("xC_N3")))
            return out
        if fam == "H":
            (a,) = idx
            out = b.ext.zero()
            for e in b.R:
                out = out - b.th(e).scale(b.sy("sY", a, e).scale(b.t("xH_Y")))
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + (b.sy("sG", a, s).scale(b.t("xH_G"))
                                     - b.sy("sX", a, s).scale(b.t("xH_X"))).scale(coeff)
                out = out + b.thb(e).scale(pol.scale(I))
            out = out + b.eta(1).scale(b.sy("sN4", a).scale(b.t("xH_N4")))
            out = out + b.eta23p().scale(b.sy("sN5", a).scale(b.t("xH_N5")))
            pol = b.sy("sN1", a).scale(b.t("xH_N1"))
            for s in b.R:
                coeff = b.c.pi_ubar_l(s, a)
                if not coeff.is_zero():
                    pol = pol + b.syc("sN3", s).scale(I * coeff * b.t("xH_N3"))
            out = out + b.eta23m().scale(pol)
            return out
        if fam == "R":
            out = b.ext.zero()
            for e in b.R:
                pol = Poly()
                polb = Poly()
                for s in b.R:
                    cu = b.c.pi_ubar_l(s, e)
                    if not cu.is_zero():
                        pol = pol + b.syc("sN3", s).scale(cu)
                    cl = b.c.pi_u_lbar(s, e)
                    if not cl.is_zero():
                        polb = polb + b.sy("sN3", s).scale(cl)
                out = out + b.th(e).scale(pol.scale(4 * b.t("xR_N3a")))
                out = out + b.thb(e).scale(polb.scale(4 * b.t("xR_N3b")))
            out = out + b.eta(1).scale((b.sy("sU3") - b.syc("sU3")).scale(I * b.t("xR_U3")))
            out = out - b.eta23p().scale(
                (b.sy("sU1") + b.sy("sW3")).scale(I * b.t("xR_UW1")))
            out = out + b.eta23m().scale(
                (b.syc("sU1") + b.syc("sW3")).scale(I * b.t("xR_UW2")))
            return out
        if fam == "P":
            out = b.ext.zero()
            for e in b.R:
                out = out - b.th(e).scale(b.sy("sN2", e).scale(4 * b.t("xP_N2")))
                pol = b.syc("sN3", e).scale(b.t("xP_N3"))
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + b.sy("sN1", s).scale(I * coeff * b.t("xP_N1"))
                out = out - b.thb(e).scale(pol.scale(4))
            out = out + b.eta(1).scale(b.sy("sU1"))
            out = out + b.eta23p().scale(b.sy("sU2"))
            out = out + b.eta23m().scale(b.sy("sU3"))
            return out
        if fam == "Q":
            out = b.ext.zero()
            for e in b.R:
                out = out + b.th(e).scale(b.sy("sN5", e).scale(4 * b.t("xQ_N5")))
                pol = Poly()
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, e)
                    if not coeff.is_zero():
                        pol = pol + (b.sy("sN2", s).scale(b.t("xQ_N2"))
                                     + b.sy("sN4", s).scale(b.t("xQ_N4"))).scale(coeff)
                out = out + b.thb(e).scale(pol.scale(4 * I))
            out = out + b.eta(1).scale(b.sy("sW1"))
            out = out + b.eta23p().scale(b.sy("sW2"))
            out = out + b.eta23m().scale(b.sy("sW3"))
            return out
        raise KeyError(fam)

    def symbol_rule(self, s: Sym) -> Form:
        fam = s.family
        if fam in ("Vns", "Sns"):
            # negative-control families follow the true rules; their own
            # symbols do not canonicalize, which is the deliberate defect
            fam = fam[0]
        if fam not in ("S", "V", "L", "M", "C", "H", "P", "Q", "R"):
            raise KeyError(f"no derivative rule for symbol family {s.family!r}")
        return self.tilde_star(fam, s.idx) + self.secondary_part(fam, s.idx)


def build_rules(n: int, mode: str, signature: Tuple[int, int] = None,
                tamper: Optional[str] = None,
                tweaks: Optional[Dict[str, GaussRational]] = None,
                published: bool = False) -> DRuleSet:
    """Assemble the complete differential rule table.

    mode='flat' transcribes the Maurer-Cartan equations of the model;
    mode='curved' the full structure equations with symbolic curvature.
    tamper='unsym-V' deliberately destroys the total symmetry of the V
    family inside the Gamma rule (negative control).
    published=True disables the calibrated coefficient corrections.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if mode == "curved" and n > 2:
        raise ValueError("curved symbolic rules are supported for n in {1, 2}")
    if mode not in ("flat", "curved"):
        raise ValueError(f"unknown mode {mode!r}")
    if tamper not in (None, "unsym-V", "unsym-S"):
        raise ValueError(f"unknown tamper {tamper!r}")
    b = RuleBuilder(n, signature, tweaks=tweaks, published=published)
    ext = b.ext
    rules: Dict[int, Form] = {}

    def put(key, form):
        rules[ext.gid[key]] = form

    for s in (1, 2, 3):
        put(("eta", s), b.d_eta(s))
        put(("phi", s), b.d_phi(s))
    put(("phi0",), b.d_phi0())
    for a in b.R:
        put(("theta", a, False), b.d_theta(a))
    for a in b.R:
        for bq in range(a, 2 * n + 1):
            if mode == "flat":
                put(("Gam", a, bq), b.d_gamma_flat(a, bq))
            else:
                vfam = "Vns" if tamper == "unsym-V" else "V"
                sfam = "Sns" if tamper == "unsym-S" else "S"
                put(("Gam", a, bq), b.d_gamma_curved(a, bq, vfam, sfam))
    if mode == "flat":
        for a in b.R:
            put(("phiU", a, False), b.d_phiu_flat(a))
        put(("psi", 1), b.d_psi1_flat())
        d23 = b.d_psi23_flat()
    else:
        for a in b.R:
            rules[ext.gid[("phiU", a, True)]] = b.d_phiu_bar_curved(a)
        put(("psi", 1), b.d_psi1_curved())
        d23 = b.d_psi23_curved()
    d23c = d23.conj()
    put(("psi", 2), (d23 + d23c).scale(H))
    put(("psi", 3), (d23 - d23c).scale(-H * I))

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
    if tamper == "unsym-V":
        rs.tamper = tamper
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
    curvature = ("S", "V", "L", "M", "C", "H", "P", "Q", "R", "Vns", "Sns")
    return Form(form.ext, {
        mono: Poly({smono: c for smono, c in p.terms.items()
                    if not any(s.family in curvature for s in smono)})
        for mono, p in form.terms.items()})


# ---------------------------------------------------------------------------
# starred forms and the displayed Bianchi combinations

STAR_FAMILIES = ("S", "V", "L", "M", "C", "H", "P", "Q", "R")


def _family_indices(n: int, fam: str):
    import itertools
    arity = {"S": 4, "V": 3, "L": 2, "M": 2, "C": 1, "H": 1, "P": 0, "Q": 0, "R": 0}[fam]
    if arity == 0:
        return [()]
    # symmetric families need only sorted tuples
    if fam in ("S", "V", "L", "M"):
        return list(itertools.combinations_with_replacement(range(1, 2 * n + 1), arity))
    return [(a,) for a in range(1, 2 * n + 1)]


def star_forms(n: int, signature: Tuple[int, int] = None) -> Dict[Tuple[str, Tuple[int, ...]], Form]:
    """All starred one-forms as their semibasic first-derivative
    expansions."""
    b = RuleBuilder(n, signature)
    out = {}
    for fam in STAR_FAMILIES:
        for idx in _family_indices(n, fam):
            out[(fam, idx)] = b.secondary_part(fam, idx)
    return out


def star_two_path_check(n: int, signature: Tuple[int, int] = None) -> bool:
    """Path (a): d(symbol) minus the tilde part, through the rule table;
    path (b): the direct semibasic expansion.  Certifies the two
    transcriptions agree for every component."""
    rules = build_rules(n, "curved", signature)
    b = RuleBuilder(n, signature)
    for fam in STAR_FAMILIES:
        for idx in _family_indices(n, fam):
            via_rules = rules.sym_rule(Sym(fam, idx, False)) - b.tilde_star(fam, idx)
            if not (via_rules - b.secondary_part(fam, idx)).is_zero():
                return False
    return True


def star_symmetry_check(n: int, signature: Tuple[int, int] = None) -> bool:
    """S* is totally symmetric and j-real as a form-valued array."""
    b = RuleBuilder(n, signature)
    import itertools
    for idx in itertools.product(b.R, repeat=4):
        base = b.secondary_part("S", tuple(sorted(idx)))
        if not (b.secondary_part("S", tuple(idx)) - base).is_zero():
            return False
    # j S* = S*: pi-contract the conjugated array
    c = b.c
    for idx in itertools.combinations_with_replacement(b.R, 4):
        coeff = gr(1)
        target = tuple(c.partner(a) for a in idx)
        for a in idx:
            coeff = coeff * c.pi_ubar_l(c.partner(a), a)
        jstar = b.secondary_part("S", target).conj().scale(coeff)
        if not (jstar - b.secondary_part("S", idx)).is_zero():
            return False
    return True


def bianchi_residuals(n: int, signature: Tuple[int, int] = None) -> Dict[str, Form]:
    """The four displayed second-derivative combinations, assembled from
    the starred forms alone (no Leibniz machinery), each of which must
    canonicalize to zero."""
    b = RuleBuilder(n, signature)
    stars = star_forms(n, signature)

    def st(fam, *idx):
        if fam in ("S", "V", "L", "M"):
            idx = tuple(sorted(idx))
        return stars[(fam, tuple(idx))]

    out = {}
    # Gamma combination
    for a1 in b.R:
        for a2 in range(a1, 2 * b.n + 1):
            r = b.ext.zero()
            for g in b.R:
                for d in b.R:
                    for s in b.R:
                        coeff = b.c.pi_u_lbar(s, d)
                        if not coeff.is_zero():
                            r = r + (st("S", a1, a2, g, s) ^ b.th(g) ^ b.thb(d)).scale(coeff)
            for g in b.R:
                r = r + (st("V", a1, a2, g) ^ b.th(g) ^ b.eta(1))
                for m in b.R:
                    for v in b.R:
                        coeff = b.c.pi_ubar_l(m, a1) * b.c.pi_ubar_l(v, a2)
                        if not coeff.is_zero():
                            r = r + (st("V", m, v, g).conj() ^ b.thb(g) ^ b.eta(1)).scale(coeff)
                for s in b.R:
                    coeff = b.c.pi_u_lbar(s, g)
                    if not coeff.is_zero():
                        r = r - (st("V", a1, a2, s) ^ b.thb(g) ^ b.eta23p()).scale(I * coeff)
                for m in b.R:
                    for v in b.R:
                        for x in b.R:
                            coeff = (b.c.pi_ubar_l(m, a1) * b.c.pi_ubar_l(v, a2)
                                     * b.c.pi_ubar_l(x, g))
                            if not coeff.is_zero():
                                r = r + (st("V", m, v, x).conj() ^ b.th(g)
                                         ^ b.eta23m()).scale(I * coeff)
            r = r - (st("L", a1, a2) ^ b.eta23p() ^ b.eta23m()).scale(I)
            r = r + (st("M", a1, a2) ^ b.eta(1) ^ b.eta23p())
            for m in b.R:
                for v in b.R:
                    coeff = b.c.pi_ubar_l(m, a1) * b.c.pi_ubar_l(v, a2)
                    if not coeff.is_zero():
                        r = r + (st("M", m, v).conj() ^ b.eta(1) ^ b.eta23m()).scale(coeff)
            out[f"d2Gamma_{a1}{a2}"] = r
    # phi combination
    for a in b.R:
        r = b.ext.zero()
        for be in b.R:
            for g in b.R:
                for v in b.R:
                    coeff = b.c.pi_u_lbar(v, g)
                    if not coeff.is_zero():
                        r = r - (st("V", a, be, v) ^ b.th(be) ^ b.thb(g)).scale(I * coeff)
        for be in b.R:
            for m in b.R:
                coeff = b.c.pi_ubar_l(m, a)
                if not coeff.is_zero():
                    r = r + (st("L", m, be).conj() ^ b.thb(be) ^ b.eta(1)).scale(coeff)
            r = r + (st("M", a, be) ^ b.th(be) ^ b.eta(1))
            for v in b.R:
                coeff = b.c.pi_u_lbar(v, be)
                if not coeff.is_zero():
                    r = r - (st("M", a, v) ^ b.thb(be) ^ b.eta23p()).scale(I * coeff)
            r = r + (st("L", a, be) ^ b.th(be) ^ b.eta23m()).scale(I)
        r = r - (st("C", a) ^ b.eta23p() ^ b.eta23m())
        for m in b.R:
            coeff = b.c.pi_ubar_l(m, a)
            if not coeff.is_zero():
                r = r + (st("C", m).conj() ^ b.eta(1) ^ b.eta23m()).scale(I * coeff)
        r = r + (st("H", a) ^ b.eta(1) ^ b.eta23p())
        out[f"d2phi_{a}"] = r
    # psi1 combination
    r = b.ext.zero()
    for be in b.R:
        for g in b.R:
            for m in b.R:
                coeff = b.c.pi_u_lbar(m, g)
                if not coeff.is_zero():
                    r = r + (st("L", be, m) ^ b.th(be) ^ b.thb(g)).scale(4 * coeff)
    for be in b.R:
        r = r + (st("C", be) ^ b.th(be) ^ b.eta(1)).scale(4)
        r = r + (st("C", be).conj() ^ b.thb(be) ^ b.eta(1)).scale(4)
        for m in b.R:
            coeff = b.c.pi_ubar_l(m, be)
            if not coeff.is_zero():
                r = r + (st("C", m).conj() ^ b.th(be) ^ b.eta23m()).scale(4 * I * coeff)
            coeff = b.c.pi_u_lbar(m, be)
            if not coeff.is_zero():
                r = r - (st("C", m) ^ b.thb(be) ^ b.eta23p()).scale(4 * I * coeff)
    r = r + (st("P") ^ b.eta(1) ^ b.eta23p())
    r = r + (st("P").conj() ^ b.eta(1) ^ b.eta23m())
    r = r + (st("R") ^ b.eta23p() ^ b.eta23m()).scale(I)
    out["d2psi_1"] = r
    # psi2 + i psi3 combination
    r = b.ext.zero()
    for be in b.R:
        for g in b.R:
            for m in b.R:
                coeff = b.c.pi_ubar_l(m, be)
                if not coeff.is_zero():
                    r = r + (st("M", m, g).conj() ^ b.th(be) ^ b.thb(g)).scale(4 * I * coeff)
    for be in b.R:
        for m in b.R:
            coeff = b.c.pi_ubar_l(m, be)
            if not coeff.is_zero():
                r = r + (st("C", m).conj() ^ b.th(be) ^ b.eta(1)).scale(4 * I * coeff)
                r = r - (st("H", m).conj() ^ b.th(be) ^ b.eta23m()).scale(4 * I * coeff)
        r = r - (st("H", be).conj() ^ b.thb(be) ^ b.eta(1)).scale(4)
        r = r - (st("C", be).conj() ^ b.thb(be) ^ b.eta23p()).scale(4)
    r = r - (st("R") ^ b.eta(1) ^ b.eta23p()).scale(I)
    r = r + (st("Q").conj() ^ b.eta(1) ^ b.eta23m())
    r = r - (st("P").conj() ^ b.eta23p() ^ b.eta23m())
    out["d2psi_23"] = r
    return out
