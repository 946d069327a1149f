"""The flat chart example: the quaternionic Heisenberg group at n = 1.

Everything here is exact polynomial exterior algebra over the seven
chart coordinates (x1..x4, t1, t2, t3), run on the one kernel of
:mod:`qcframe.forms`: chart polynomials are ``forms.Poly`` in the
coordinate symbols (a power is a repeated symbol), chart forms are
``forms.Form`` over the alphabet ``CHART`` of the seven coordinate
differentials, and ``d`` is ``forms.differential`` with the rule set
``CHART_RULES``.  The module certifies, as exact polynomial identities:
the contact axioms of the structure triple, the Reeb conditions (solved,
not assumed, via a linear system over polynomial coefficients), the
vanishing of the rotation one-forms alpha_{st} together with the
structural identity they satisfy, and the three coframe normalization
equations with all four connection one-forms identically zero,
consistent with flatness.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .forms import Alphabet, DRuleSet, Form, Mono, Poly, Sym, Vector, differential
from . import InputError, int_from_json, rational_from_json
from .gauss import HALF, I, ZERO, GaussRational, gr
from .linear import SparseMat, smat, smat_mul, solve_sparse, solve_square
from .tensors import StandardConstants

NCOORD = 7
COORDS = ("x1", "x2", "x3", "x4", "t1", "t2", "t3")
COORD_SYMS = tuple(Sym(name, (), False) for name in COORDS)

# the coordinate differentials dx1..dt3, generator i being d(COORDS[i])
CHART = Alphabet("d" + name for name in COORDS)


def coord(i: int) -> Poly:
    """The coordinate COORDS[i] as a polynomial."""
    return Poly({(COORD_SYMS[i],): gr(1)})


def dx(i: int) -> Form:
    """The coordinate differential d(COORDS[i])."""
    return Form(CHART, {1 << i: Poly.const(1)})


_DX = {s: dx(i) for i, s in enumerate(COORD_SYMS)}
# the chart d: d(x_i) = dx_i and d(dx_i) = 0
CHART_RULES = DRuleSet(CHART, {i: Form(CHART) for i in range(NCOORD)}, _DX.__getitem__)


def monomial(expo: Sequence[int]) -> Mono:
    """The chart monomial with the given exponent vector over COORDS."""
    if len(expo) != NCOORD or any(e < 0 for e in expo):
        raise ValueError(f"expected {NCOORD} non-negative exponents, got {list(expo)}")
    return tuple(sorted(COORD_SYMS[i] for i, e in enumerate(expo) for _ in range(e)))


# ---------------------------------------------------------------------------
# the qc chart data


class QcData:
    """Chart-level qc structure: three contact forms, an H-frame with
    metric and quaternionic triple, and (after solving) Reeb fields."""

    def __init__(self, etas: List[Form], frame: List[Vector],
                 g: List[List[Fraction]], I_mats: List[List[List[int]]],
                 name: str = "chart"):
        self.etas = etas
        self.frame = frame          # X_1..X_4 spanning H
        self.g = g                  # 4x4 rational, frame metric
        self.I_mats = I_mats        # three 4x4 integer matrices, frame action
        self.name = name
        self.reeb: Optional[List[Vector]] = None

    # -- axioms ------------------------------------------------------------

    def check_kernel(self) -> bool:
        return all(eta.eval_fields(X).is_zero()
                   for eta in self.etas for X in self.frame)

    def check_quaternion_relations(self) -> bool:
        I1, I2, I3 = (smat(m) for m in self.I_mats)
        minus_one = {(i, i): gr(-1) for i in range(4)}
        return (all(smat_mul(A, A) == minus_one for A in (I1, I2, I3))
                and smat_mul(I1, I2) == I3
                and smat_mul(I2, I1) == {k: -v for k, v in I3.items()})

    def _omega_matrix(self, s: int) -> SparseMat:
        """g(I_s X_k, X_l) on the H-frame: the matrix I_s^T g."""
        transposed = {(j, i): v for (i, j), v in smat(self.I_mats[s]).items()}
        return smat_mul(transposed, smat(self.g))

    def check_compatibility(self) -> bool:
        """d eta_s (X, Y) = 2 g(I_s X, Y) on the H-frame, exactly."""
        for s in range(3):
            de = differential(self.etas[s], CHART_RULES)
            gI = self._omega_matrix(s)
            for i in range(4):
                for j in range(4):
                    lhs = de.eval_fields(self.frame[i], self.frame[j])
                    if lhs != Poly.const(2 * gI.get((i, j), ZERO)):
                        return False
        return True

    def omega_forms(self) -> List[Form]:
        """The two-forms with xi-contraction zero that restrict to
        g(I_s ., .) on H; requires Reeb fields and a frame with constant
        dx(X) matrix."""
        if self.reeb is None:
            raise ValueError("solve Reeb fields first")
        # rho^k: dual coframe of the H-frame that kills the Reeb fields
        q = []
        for i in range(4):
            qi = dx(i)
            for s in range(3):
                val = dx(i).eval_fields(self.reeb[s])
                qi = qi - self.etas[s].scale(val)
            q.append(qi)
        amat = [[_constant_value(dx(i).eval_fields(self.frame[k]))
                 for k in range(4)] for i in range(4)]
        # a singular matrix raises ValueError
        ainv = solve_square(amat, [[gr(1 if j == i else 0) for j in range(4)]
                                   for i in range(4)])
        rho = []
        for k in range(4):
            acc = Form(CHART)
            for i in range(4):
                if not ainv[k][i].is_zero():
                    acc = acc + q[i].scale(ainv[k][i])
            rho.append(acc)
        out = []
        for s in range(3):
            gI = self._omega_matrix(s)
            acc = Form(CHART)
            for k in range(4):
                for l in range(k + 1, 4):
                    c = gI.get((k, l))
                    if c is not None:
                        acc = acc + (rho[k] ^ rho[l]).scale(c)
            out.append(acc)
        return out


def _constant_value(p: Poly) -> GaussRational:
    if p.is_zero():
        return gr(0)
    if list(p.terms) != [()]:
        raise ValueError("expected a constant polynomial")
    v = p.terms[()]
    if not v.is_real():
        raise ValueError("expected a real constant")
    return v


def heisenberg_qc() -> QcData:
    """The standard left-invariant qc structure on R^4 x R^3 with
    integer-coefficient contact forms (the n = 1 quaternionic Heisenberg
    group).  The normalizations are solved so that both contact axioms
    hold exactly: g is twice the Euclidean frame metric and
    eta_s = dt_s + sigma_s with d sigma_s = 2 omega_s."""
    x = [coord(i) for i in range(4)]
    dxs = [dx(i) for i in range(4)]
    dt = [dx(4 + s) for s in range(3)]

    def pair(i, j):
        # x^i dx^j - x^j dx^i
        return dxs[j].scale(x[i]) - dxs[i].scale(x[j])

    sigma = [
        (pair(0, 1) + pair(2, 3)).scale(2),
        (pair(0, 2) - pair(1, 3)).scale(2),
        (pair(0, 3) + pair(1, 2)).scale(2),
    ]
    etas = [dt[s] + sigma[s] for s in range(3)]

    I1 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    I2 = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    I3 = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    gmat = [[Fraction(2) if i == j else Fraction(0) for j in range(4)]
            for i in range(4)]

    frame = []
    for i in range(4):
        X: Vector = {i: Poly.const(1)}
        for s in range(3):
            coeff = sigma[s].eval_fields({i: Poly.const(1)})
            if not coeff.is_zero():
                X[4 + s] = -coeff
        frame.append(X)
    return QcData(etas, frame, gmat, [I1, I2, I3], name="heisenberg")


# ---------------------------------------------------------------------------
# Reeb fields: exact linear solve over polynomial coefficients


def _monomials(max_deg: int) -> List[Mono]:
    return [tuple(sorted(COORD_SYMS[i] for i in combo))
            for total in range(max_deg + 1)
            for combo in itertools.combinations_with_replacement(range(NCOORD), total)]


def reeb_fields(qc: QcData) -> List[Vector]:
    """Solve eta_s(xi_t) = delta_st and the contraction antisymmetry
    d eta_s(xi_t, X) = -d eta_t(xi_s, X) for X in the H-frame, as an
    exact linear system over a polynomial ansatz for the xi components,
    of the highest degree of a coefficient of the etas.  The solution is
    verified before being returned."""
    degree = max((len(m) for eta in qc.etas for p in eta.terms.values()
                  for m in p.terms), default=0)
    monos = _monomials(degree)
    nmono = len(monos)

    def unknown(t, i, m):  # xi_t = sum c[t,i,m] x^m d/dx_i
        return (t * NCOORD + i) * nmono + m

    rows = []
    detas = [differential(eta, CHART_RULES) for eta in qc.etas]

    def add_equation(pieces: List[Tuple[Form, int]], rhs: Poly):
        """sum over (one_form, field): one_form(xi_field), plus rhs,
        equals zero; expanded into one linear equation per monomial."""
        eqs: Dict[Mono, Dict[int, GaussRational]] = {m: {} for m in rhs.terms}
        for ff, fld in pieces:
            for i in range(NCOORD):
                p = ff.terms.get(1 << i)
                if p is None:
                    continue
                for mpos, e2 in enumerate(monos):
                    u = unknown(fld, i, mpos)
                    for e1, c in p.terms.items():
                        row = eqs.setdefault(tuple(sorted(e1 + e2)), {})
                        cur = row.get(u)
                        row[u] = c if cur is None else cur + c
        # in monomial order, never set order: the pivots of solve_sparse
        # then depend on the system alone
        for target in sorted(eqs):
            row = {u: v for u, v in eqs[target].items() if not v.is_zero()}
            rc = rhs.terms.get(target, gr(0))
            if row or not rc.is_zero():
                rows.append((row, -rc))

    for s in range(3):
        for t in range(3):
            add_equation([(qc.etas[s], t)], Poly.const(-1 if s == t else 0))
    # antisymmetry: d eta_s(xi_t, X) + d eta_t(xi_s, X) = 0; the
    # one-form Y -> d eta(Y, X) is minus the X-contraction
    for s in range(3):
        for t in range(3):
            for X in qc.frame:
                add_equation([(-detas[s].interior(X), t),
                              (-detas[t].interior(X), s)], Poly())

    sol, _ = solve_sparse(rows)
    fields = []
    for t in range(3):
        v: Vector = {}
        for i in range(NCOORD):
            p = Poly({e: sol.get(unknown(t, i, mpos), gr(0))
                      for mpos, e in enumerate(monos)})
            if not p.is_zero():
                v[i] = p
        fields.append(v)
    # verify exactly
    for s in range(3):
        for t in range(3):
            val = qc.etas[s].eval_fields(fields[t])
            want = Poly.const(1 if s == t else 0)
            if val != want:
                raise ValueError("Reeb solve failed the duality condition")
            for X in qc.frame:
                anti = (detas[s].eval_fields(fields[t], X)
                        + detas[t].eval_fields(fields[s], X))
                if not anti.is_zero():
                    raise ValueError("Reeb solve failed the antisymmetry condition")
    qc.reeb = fields
    return fields


# ---------------------------------------------------------------------------
# rotation one-forms and the structural identity


def alpha_forms(qc: QcData) -> Dict[Tuple[int, int], Form]:
    """The rotation one-forms alpha_{st}, via their closed-chart
    expressions, together with the exact certificate
    d eta_s = -alpha_{ts} ^ eta_t + 2 omega_s."""
    if qc.reeb is None:
        reeb_fields(qc)
    xi = qc.reeb
    detas = [differential(eta, CHART_RULES) for eta in qc.etas]

    def de(s, a, b) -> Poly:
        return detas[s].eval_fields(xi[a], xi[b])

    d123 = de(0, 1, 2)
    d231 = de(1, 2, 0)
    d312 = de(2, 0, 1)
    a12 = (detas[1].interior(xi[0])
           + qc.etas[2].scale((d231 - d123 + d312).scale(HALF))
           + qc.etas[0].scale(de(0, 0, 1)))
    a23 = (detas[2].interior(xi[1])
           + qc.etas[0].scale((d123 - d231 + d312).scale(HALF))
           + qc.etas[1].scale(de(1, 1, 2)))
    a31 = (detas[0].interior(xi[2])
           + qc.etas[1].scale((d123 + d231 - d312).scale(HALF))
           + qc.etas[2].scale(de(2, 2, 0)))
    alpha = {(0, 1): a12, (1, 2): a23, (2, 0): a31}
    for (s, t), f in list(alpha.items()):
        alpha[(t, s)] = -f
    for s in range(3):
        alpha[(s, s)] = Form(CHART)
    return alpha


def integrability_residuals(qc: QcData) -> List[Form]:
    """d eta_s + alpha_{ts} ^ eta_t - 2 omega_s, which must vanish."""
    alpha = alpha_forms(qc)
    omegas = qc.omega_forms()
    out = []
    for s in range(3):
        r = differential(qc.etas[s], CHART_RULES) - omegas[s].scale(2)
        for t in range(3):
            r = r + (alpha[(t, s)] ^ qc.etas[t])
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# the coframe normalization equations on the chart


def lex_coframe(qc: QcData, mu_root: Fraction = Fraction(1)) -> dict:
    """Return the chart coframe {phi_0..phi_3, theta^1, theta^2} closing
    the three coframe equations for the gauge eta_s = mu * eta_s-hat
    with mu = mu_root^2, and the three exact residuals.

    Only the flat Heisenberg chart is supported here; all four phi's are
    identically zero, consistent with flatness."""
    if qc.name != "heisenberg":
        raise ValueError("coframe construction implemented for the flat chart only")
    mu = mu_root * mu_root
    etas = [e.scale(gr(mu)) for e in qc.etas]
    rt = gr(mu_root)
    theta = [
        (dx(0) + dx(1).scale(I)).scale(rt),
        (dx(2) + dx(3).scale(I)).scale(rt),
    ]
    thetab = [
        (dx(0) - dx(1).scale(I)).scale(rt),
        (dx(2) - dx(3).scale(I)).scale(rt),
    ]
    phi = [Form(CHART) for _ in range(4)]
    c = StandardConstants(1)
    R2 = range(1, 3)
    d_etas = [differential(e, CHART_RULES) for e in etas]
    r1 = d_etas[0] + (phi[0] ^ etas[0]) + (phi[2] ^ etas[2]) - (phi[3] ^ etas[1])
    for a in R2:
        for b in R2:
            r1 = r1 - (theta[a - 1] ^ thetab[b - 1]).scale(2 * I * c.g(a, b))
    r2 = d_etas[1] + (phi[0] ^ etas[1]) + (phi[3] ^ etas[0]) - (phi[1] ^ etas[2])
    r3 = d_etas[2] + (phi[0] ^ etas[2]) + (phi[1] ^ etas[1]) - (phi[2] ^ etas[0])
    for a in R2:
        for b in R2:
            pi = c.pi(a, b)
            pib = c.pi_bar(a, b)
            r2 = r2 - (theta[a - 1] ^ theta[b - 1]).scale(pi)
            r2 = r2 - (thetab[a - 1] ^ thetab[b - 1]).scale(pib)
            r3 = r3 + (theta[a - 1] ^ theta[b - 1]).scale(I * pi)
            r3 = r3 - (thetab[a - 1] ^ thetab[b - 1]).scale(I * pib)
    return {
        "phi": phi,
        "theta": theta,
        "residuals": [r1, r2, r3],
        "mu": mu,
    }


# ---------------------------------------------------------------------------
# chart input format


def chart_from_json(doc: dict) -> QcData:
    """Chart-input format: coordinates are fixed (x1..x4, t1..t3);
    "etas" lists, per contact form, entries [diff_index, coeff_re,
    coeff_im, exponents(7)]; "frame" likewise gives the four H-frame
    fields as [coord_index, re, im, exponents]; "g" is a rational 4x4
    matrix and "I" the three integer 4x4 quaternionic matrices.  A
    rational is a JSON string or integer and every other number a JSON
    integer: a float or a boolean is refused.  The exponent vectors are
    converted to chart monomials on load."""
    def poly_entry(re, im, expo, where):
        expo = [int_from_json(e, f"{where}.exponents") for e in expo]
        return Poly({monomial(expo): gr(rational_from_json(re, f"{where}.re"),
                                        rational_from_json(im, f"{where}.im"))})

    def index(i, where):
        # an entry on a nonexistent coordinate would drop out of every check
        i = int_from_json(i, f"{where}.index")
        if not 0 <= i < NCOORD:
            raise InputError(f"coordinate index {i} is not in 0..{NCOORD - 1}")
        return i

    if len(doc["etas"]) != 3:
        raise InputError("expected three contact forms in \"etas\"")
    if len(doc["frame"]) != 4:
        raise InputError("expected four fields in \"frame\"")
    etas = []
    for s, ent_list in enumerate(doc["etas"]):
        f = Form(CHART)
        for k, (diff, re, im, expo) in enumerate(ent_list):
            where = f"etas[{s}][{k}]"
            f = f + Form(CHART, {1 << index(diff, where): poly_entry(re, im, expo, where)})
        etas.append(f)
    frame = []
    for s, ent_list in enumerate(doc["frame"]):
        v: Vector = {}
        for k, (ci, re, im, expo) in enumerate(ent_list):
            where = f"frame[{s}][{k}]"
            ci = index(ci, where)
            v[ci] = v.get(ci, Poly()) + poly_entry(re, im, expo, where)
        frame.append(v)

    def matrix(rows, entry, where):
        m = [[entry(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)]
             for r, row in enumerate(rows)]
        if len(m) != 4 or any(len(row) != 4 for row in m):
            raise InputError("expected a 4x4 matrix")
        return m

    gmat = matrix(doc["g"], rational_from_json, "g")
    if len(doc["I"]) != 3:
        raise InputError("expected three matrices in \"I\"")
    imats = [matrix(m, int_from_json, f"I[{s}]") for s, m in enumerate(doc["I"])]
    return QcData(etas, frame, gmat, imats, name=doc.get("name", "chart"))


def load_chart(path: str) -> QcData:
    """Read a chart file; InputError if it is not JSON or is malformed."""
    with open(path) as fh:
        try:
            return chart_from_json(json.load(fh))
        except InputError:
            raise
        except (ValueError, KeyError, TypeError) as ex:
            raise InputError(f"chart file: {type(ex).__name__}: {ex}") from None


def chart_certificates(qc: QcData) -> dict:
    """The axiom / Reeb / rotation-form certificate pipeline (run on any
    chart input; the coframe construction itself is flat-chart only)."""
    out = {"name": qc.name}
    out["common_kernel"] = qc.check_kernel()
    out["quaternion_relations"] = qc.check_quaternion_relations()
    out["compatibility"] = qc.check_compatibility()
    try:
        reeb_fields(qc)
        out["reeb"] = True
    except ValueError:
        out["reeb"] = False
        return out
    alpha = alpha_forms(qc)
    out["alpha_all_zero"] = all(f.is_zero() for f in alpha.values())
    out["integrability_residual_zero"] = all(
        r.is_zero() for r in integrability_residuals(qc))
    return out
