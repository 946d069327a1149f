"""The flat chart example: the quaternionic Heisenberg group at n = 1.

Everything here is exact polynomial exterior algebra over the seven
chart coordinates (x1..x4, t1, t2, t3).  The module certifies, as exact
polynomial identities: the contact axioms of the structure triple, the
Reeb conditions (solved, not assumed, via a linear system over
polynomial coefficients), the vanishing of the rotation one-forms
alpha_{st} together with the structural identity they satisfy, and the
three coframe normalization equations with all four connection one-forms
identically zero, consistent with flatness.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .gauss import GaussRational, gr
from .tensors import StandardConstants

NCOORD = 7
COORDS = ("x1", "x2", "x3", "x4", "t1", "t2", "t3")
I = gr(0, 1)

Expo = Tuple[int, ...]


class Poly7:
    """Sparse polynomial in the seven chart coordinates."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Expo, GaussRational]] = None):
        self.terms: Dict[Expo, GaussRational] = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero():
                    self.terms[e] = c

    @staticmethod
    def const(c) -> "Poly7":
        c = GaussRational.of(c)
        return Poly7({(0,) * NCOORD: c})

    @staticmethod
    def coord(i: int) -> "Poly7":
        e = [0] * NCOORD
        e[i] = 1
        return Poly7({tuple(e): gr(1)})

    def __add__(self, other: "Poly7") -> "Poly7":
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            nc = c if cur is None else cur + c
            if nc.is_zero():
                out.pop(e, None)
            else:
                out[e] = nc
        res = Poly7()
        res.terms = out
        return res

    def __neg__(self):
        res = Poly7()
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Poly7":
        c = GaussRational.of(c)
        if c.is_zero():
            return Poly7()
        res = Poly7()
        res.terms = {e: c * v for e, v in self.terms.items()}
        return res

    def __mul__(self, other: "Poly7") -> "Poly7":
        out: Dict[Expo, GaussRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                cur = out.get(e)
                nc = c if cur is None else cur + c
                if nc.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = nc
        res = Poly7()
        res.terms = out
        return res

    def diff(self, i: int) -> "Poly7":
        out = Poly7()
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out.terms[tuple(ne)] = c * e[i]
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly7) and self.terms == other.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{COORDS[i]}^{p}" if p > 1 else COORDS[i]
                            for i, p in enumerate(e) if p)
            bits.append(f"{c!r}{'*' + mono if mono else ''}")
        return " + ".join(bits)


VectorField = Dict[int, Poly7]  # coordinate direction -> coefficient


class ChartForm:
    """Exterior form on the chart with Poly7 coefficients; monomials in
    the coordinate differentials are kept strictly increasing."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[int, ...], Poly7]] = None):
        self.terms: Dict[Tuple[int, ...], Poly7] = {}
        if terms:
            for m, p in terms.items():
                if not p.is_zero():
                    self.terms[m] = p

    @staticmethod
    def func(p: Poly7) -> "ChartForm":
        return ChartForm({(): p})

    @staticmethod
    def dx(i: int) -> "ChartForm":
        return ChartForm({(i,): Poly7.const(1)})

    def _put(self, mono, p):
        cur = self.terms.get(mono)
        np_ = p if cur is None else cur + p
        if np_.is_zero():
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = np_

    def __add__(self, other):
        out = ChartForm(dict(self.terms))
        for m, p in other.terms.items():
            out._put(m, p)
        return out

    def __neg__(self):
        out = ChartForm()
        out.terms = {m: -p for m, p in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ChartForm":
        if isinstance(c, Poly7):
            out = ChartForm()
            for m, p in self.terms.items():
                out._put(m, p * c)
            return out
        out = ChartForm()
        for m, p in self.terms.items():
            sp = p.scale(c)
            if not sp.is_zero():
                out.terms[m] = sp
        return out

    def wedge(self, other: "ChartForm") -> "ChartForm":
        out = ChartForm()
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                if set(m1) & set(m2):
                    continue
                merged = tuple(sorted(m1 + m2))
                # sign of the merge permutation
                seq = list(m1 + m2)
                sign = 1
                for a in range(len(seq)):
                    for b in range(a + 1, len(seq)):
                        if seq[a] > seq[b]:
                            sign = -sign
                p = p1 * p2
                out._put(merged, -p if sign < 0 else p)
        return out

    def __xor__(self, other):
        return self.wedge(other)

    def d(self) -> "ChartForm":
        out = ChartForm()
        for m, p in self.terms.items():
            for i in range(NCOORD):
                dp = p.diff(i)
                if dp.is_zero() or i in m:
                    continue
                seq = (i,) + m
                merged = tuple(sorted(seq))
                sign = 1
                lst = list(seq)
                for a in range(len(lst)):
                    for b in range(a + 1, len(lst)):
                        if lst[a] > lst[b]:
                            sign = -sign
                out._put(merged, -dp if sign < 0 else dp)
        return out

    def interior(self, v: VectorField) -> "ChartForm":
        """Contraction with a vector field in the first slot."""
        out = ChartForm()
        for m, p in self.terms.items():
            for pos, i in enumerate(m):
                comp = v.get(i)
                if comp is None or comp.is_zero():
                    continue
                rest = m[:pos] + m[pos + 1:]
                prod = p * comp
                out._put(rest, -prod if pos % 2 else prod)
        return out

    def eval_fields(self, *fields: VectorField) -> Poly7:
        """Full contraction of a k-form with k vector fields, using the
        pairing (a^b)(X,Y) = a(X) b(Y) - a(Y) b(X)."""
        cur = self
        for v in fields:
            cur = cur.interior(v)
        p = cur.terms.get(())
        return p if p is not None else Poly7()

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, ChartForm) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            gens = "^".join(("d" + COORDS[i]) for i in m) or "1"
            bits.append(f"({self.terms[m]!r}) {gens}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the qc chart data


class QcData:
    """Chart-level qc structure: three contact forms, an H-frame with
    metric and quaternionic triple, and (after solving) Reeb fields."""

    def __init__(self, etas: List[ChartForm], frame: List[VectorField],
                 g: List[List[Fraction]], I_mats: List[List[List[int]]],
                 name: str = "chart"):
        self.etas = etas
        self.frame = frame          # X_1..X_4 spanning H
        self.g = g                  # 4x4 rational, frame metric
        self.I_mats = I_mats        # three 4x4 integer matrices, frame action
        self.name = name
        self.reeb: Optional[List[VectorField]] = None

    # -- axioms ------------------------------------------------------------

    def check_kernel(self) -> bool:
        return all(eta.eval_fields(X).is_zero()
                   for eta in self.etas for X in self.frame)

    def check_quaternion_relations(self) -> bool:
        def matmul(A, B):
            return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
                    for i in range(4)]

        I1, I2, I3 = self.I_mats
        ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        neg = [[-v for v in row] for row in ident]
        if matmul(I1, I1) != neg or matmul(I2, I2) != neg or matmul(I3, I3) != neg:
            return False
        if matmul(I1, I2) != I3:
            return False
        if matmul(I2, I1) != [[-v for v in row] for row in I3]:
            return False
        return True

    def check_compatibility(self) -> bool:
        """d eta_s (X, Y) = 2 g(I_s X, Y) on the H-frame, exactly."""
        for s in range(3):
            de = self.etas[s].d()
            for i in range(4):
                for j in range(4):
                    lhs = de.eval_fields(self.frame[i], self.frame[j])
                    rhs = Fraction(0)
                    for k in range(4):
                        rhs += Fraction(self.I_mats[s][k][i]) * self.g[k][j]
                    if lhs != Poly7.const(2 * rhs):
                        return False
        return True

    def omega_forms(self) -> List[ChartForm]:
        """The two-forms with xi-contraction zero that restrict to
        g(I_s ., .) on H; requires Reeb fields and a frame with constant
        dx(X) matrix."""
        if self.reeb is None:
            raise ValueError("solve Reeb fields first")
        # rho^k: dual coframe of the H-frame that kills the Reeb fields
        q = []
        for i in range(4):
            qi = ChartForm.dx(i)
            for s in range(3):
                val = ChartForm.dx(i).eval_fields(self.reeb[s])
                qi = qi - self.etas[s].scale(val)
            q.append(qi)
        amat = [[_constant_value(ChartForm.dx(i).eval_fields(self.frame[k]))
                 for k in range(4)] for i in range(4)]
        ainv = _invert4(amat)
        rho = []
        for k in range(4):
            acc = ChartForm()
            for i in range(4):
                if ainv[k][i] != 0:
                    acc = acc + q[i].scale(gr(ainv[k][i]))
            rho.append(acc)
        out = []
        for s in range(3):
            acc = ChartForm()
            for k in range(4):
                for l in range(k + 1, 4):
                    c = Fraction(0)
                    for m in range(4):
                        c += Fraction(self.I_mats[s][m][k]) * self.g[m][l]
                    if c:
                        acc = acc + (rho[k] ^ rho[l]).scale(gr(c))
            out.append(acc)
        return out


def _constant_value(p: Poly7) -> Fraction:
    if p.is_zero():
        return Fraction(0)
    if list(p.terms) != [(0,) * NCOORD]:
        raise ValueError("expected a constant polynomial")
    v = p.terms[(0,) * NCOORD]
    if not v.is_real():
        raise ValueError("expected a real constant")
    return v.re


def _invert4(a: List[List[Fraction]]) -> List[List[Fraction]]:
    n = 4
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0)
                                                  for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("frame pairing matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [inv * v for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [m[r][k] - f * m[col][k] for k in range(2 * n)]
    return [row[n:] for row in m]


def heisenberg_qc() -> QcData:
    """The standard left-invariant qc structure on R^4 x R^3 with
    integer-coefficient contact forms (the n = 1 quaternionic Heisenberg
    group).  The normalizations are solved so that both contact axioms
    hold exactly: g is twice the Euclidean frame metric and
    eta_s = dt_s + sigma_s with d sigma_s = 2 omega_s."""
    x = [Poly7.coord(i) for i in range(4)]
    dx = [ChartForm.dx(i) for i in range(4)]
    dt = [ChartForm.dx(4 + s) for s in range(3)]

    def pair(i, j):
        # x^i dx^j - x^j dx^i
        return dx[j].scale(x[i]) - dx[i].scale(x[j])

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
        X: VectorField = {i: Poly7.const(1)}
        for s in range(3):
            coeff = sigma[s].eval_fields({i: Poly7.const(1)})
            if not coeff.is_zero():
                X[4 + s] = -coeff
        frame.append(X)
    return QcData(etas, frame, gmat, [I1, I2, I3], name="heisenberg")


# ---------------------------------------------------------------------------
# Reeb fields: exact linear solve over polynomial coefficients


def _monomials(max_deg: int):
    out = []
    for total in range(max_deg + 1):
        for combo in itertools.combinations_with_replacement(range(NCOORD), total):
            e = [0] * NCOORD
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def reeb_fields(qc: QcData, ansatz_degree: Optional[int] = None) -> List[VectorField]:
    """Solve eta_s(xi_t) = delta_st and the contraction antisymmetry
    d eta_s(xi_t, X) = -d eta_t(xi_s, X) for X in the H-frame, as an
    exact linear system over a polynomial ansatz for the xi components.
    The solution is verified before being returned."""
    if ansatz_degree is None:
        ansatz_degree = max(max((p.degree() for p in eta.terms.values()), default=0)
                            for eta in qc.etas)
    monos = _monomials(ansatz_degree)
    nmono = len(monos)
    nun = 3 * NCOORD * nmono  # xi_t = sum c[t,i,m] x^m d/dx_i

    def unknown(t, i, m):
        return (t * NCOORD + i) * nmono + m

    rows = []
    detas = [eta.d() for eta in qc.etas]

    def add_equation(pieces: List[Tuple[ChartForm, int]], rhs: Poly7):
        """sum over (one_form, field): one_form(xi_field), plus rhs,
        equals zero; expanded into per-monomial linear equations."""
        targets = set(rhs.terms)
        for ff, _ in pieces:
            for i in range(NCOORD):
                p = ff.terms.get((i,))
                if p is None:
                    continue
                for e1 in p.terms:
                    for e2 in monos:
                        targets.add(tuple(a + b for a, b in zip(e1, e2)))
        for target in targets:
            row: Dict[int, GaussRational] = {}
            for ff, fld in pieces:
                for i in range(NCOORD):
                    p = ff.terms.get((i,))
                    if p is None:
                        continue
                    for mpos, e2 in enumerate(monos):
                        for e1, c in p.terms.items():
                            if tuple(a + b for a, b in zip(e1, e2)) == target:
                                u = unknown(fld, i, mpos)
                                row[u] = row.get(u, gr(0)) + c
            rc = rhs.terms.get(target, gr(0))
            row = {u: v for u, v in row.items() if not v.is_zero()}
            if row or not rc.is_zero():
                rows.append((row, rc))

    for s in range(3):
        for t in range(3):
            add_equation([(qc.etas[s], t)],
                         Poly7.const(-Fraction(1 if s == t else 0)))
    # antisymmetry: d eta_s(xi_t, X) + d eta_t(xi_s, X) = 0; the
    # one-form Y -> d eta(Y, X) is minus the X-contraction
    for s in range(3):
        for t in range(3):
            for X in qc.frame:
                add_equation([(-detas[s].interior(X), t),
                              (-detas[t].interior(X), s)], Poly7())

    sol = _solve_sparse(rows, nun)
    fields = []
    for t in range(3):
        v: VectorField = {}
        for i in range(NCOORD):
            p = Poly7()
            for mpos, e in enumerate(monos):
                c = sol.get(unknown(t, i, mpos), gr(0))
                if not c.is_zero():
                    p = p + Poly7({e: c})
            if not p.is_zero():
                v[i] = p
        fields.append(v)
    # verify exactly
    for s in range(3):
        for t in range(3):
            val = qc.etas[s].eval_fields(fields[t])
            want = Poly7.const(1 if s == t else 0)
            if val != want:
                raise ValueError("Reeb solve failed the duality condition")
            for X in qc.frame:
                anti = (detas[s].eval_fields(fields[t], X)
                        + detas[t].eval_fields(fields[s], X))
                if not anti.is_zero():
                    raise ValueError("Reeb solve failed the antisymmetry condition")
    qc.reeb = fields
    return fields


def _solve_sparse(rows, nun) -> Dict[int, GaussRational]:
    """Gaussian elimination for a sparse exact linear system given as
    constraints sum(coeff * c) + rhs = 0; returns a particular solution
    (free unknowns at zero)."""
    pivots: Dict[int, Dict[int, GaussRational]] = {}
    rhs_map: Dict[int, GaussRational] = {}
    for row, rhs in rows:
        row = dict(row)
        rhs = -GaussRational.of(rhs)
        while row:
            col = min(row)
            if col in pivots:
                f = row.pop(col)
                prow = pivots[col]
                for c2, v2 in prow.items():
                    if c2 == col:
                        continue
                    nv = row.get(c2, gr(0)) - f * v2
                    if nv.is_zero():
                        row.pop(c2, None)
                    else:
                        row[c2] = nv
                rhs = rhs - f * rhs_map[col]
            else:
                inv = gr(1) / row[col]
                prow = {c2: inv * v2 for c2, v2 in row.items()}
                pivots[col] = prow
                rhs_map[col] = inv * rhs
                row = {}
                rhs = gr(0)
        if not rhs.is_zero():
            raise ValueError("inconsistent linear system (no Reeb solution)")
    # back substitution with free unknowns at zero
    sol: Dict[int, GaussRational] = {}
    for col in sorted(pivots, reverse=True):
        val = rhs_map[col]
        for c2, v2 in pivots[col].items():
            if c2 != col and c2 in sol:
                val = val - v2 * sol[c2]
        if not val.is_zero():
            sol[col] = val
    return sol


# ---------------------------------------------------------------------------
# rotation one-forms and the structural identity


def alpha_forms(qc: QcData) -> Dict[Tuple[int, int], ChartForm]:
    """The rotation one-forms alpha_{st}, via their closed-chart
    expressions, together with the exact certificate
    d eta_s = -alpha_{ts} ^ eta_t + 2 omega_s."""
    if qc.reeb is None:
        reeb_fields(qc)
    xi = qc.reeb
    detas = [eta.d() for eta in qc.etas]

    def de(s, a, b) -> Poly7:
        return detas[s].eval_fields(xi[a], xi[b])

    def fn(p: Poly7) -> ChartForm:
        return ChartForm.func(p)

    d123 = de(0, 1, 2)
    d231 = de(1, 2, 0)
    d312 = de(2, 0, 1)
    half = gr(Fraction(1, 2))
    a12 = (detas[1].interior(xi[0])
           + qc.etas[2].scale((d231 - d123 + d312).scale(half))
           + qc.etas[0].scale(de(0, 0, 1)))
    a23 = (detas[2].interior(xi[1])
           + qc.etas[0].scale((d123 - d231 + d312).scale(half))
           + qc.etas[1].scale(de(1, 1, 2)))
    a31 = (detas[0].interior(xi[2])
           + qc.etas[1].scale((d123 + d231 - d312).scale(half))
           + qc.etas[2].scale(de(2, 2, 0)))
    alpha = {(0, 1): a12, (1, 2): a23, (2, 0): a31}
    for (s, t), f in list(alpha.items()):
        alpha[(t, s)] = -f
    for s in range(3):
        alpha[(s, s)] = ChartForm()
    return alpha


def integrability_residuals(qc: QcData) -> List[ChartForm]:
    """d eta_s + alpha_{ts} ^ eta_t - 2 omega_s, which must vanish."""
    alpha = alpha_forms(qc)
    omegas = qc.omega_forms()
    out = []
    for s in range(3):
        r = qc.etas[s].d() - omegas[s].scale(2)
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
        (ChartForm.dx(0) + ChartForm.dx(1).scale(I)).scale(rt),
        (ChartForm.dx(2) + ChartForm.dx(3).scale(I)).scale(rt),
    ]
    thetab = [
        (ChartForm.dx(0) - ChartForm.dx(1).scale(I)).scale(rt),
        (ChartForm.dx(2) - ChartForm.dx(3).scale(I)).scale(rt),
    ]
    phi = [ChartForm() for _ in range(4)]
    c = StandardConstants(1)
    R2 = range(1, 3)
    r1 = etas[0].d() + (phi[0] ^ etas[0]) + (phi[2] ^ etas[2]) - (phi[3] ^ etas[1])
    for a in R2:
        for b in R2:
            r1 = r1 - (theta[a - 1] ^ thetab[b - 1]).scale(2 * I * c.g(a, b))
    r2 = etas[1].d() + (phi[0] ^ etas[1]) + (phi[3] ^ etas[0]) - (phi[1] ^ etas[2])
    r3 = etas[2].d() + (phi[0] ^ etas[2]) + (phi[1] ^ etas[1]) - (phi[2] ^ etas[0])
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
    matrix and "I" the three integer 4x4 quaternionic matrices."""
    def poly_entry(re, im, expo):
        return Poly7({tuple(expo): gr(Fraction(re), Fraction(im))})

    etas = []
    for ent_list in doc["etas"]:
        f = ChartForm()
        for diff, re, im, expo in ent_list:
            f = f + ChartForm({(int(diff),): poly_entry(re, im, expo)})
        etas.append(f)
    frame = []
    for ent_list in doc["frame"]:
        v: VectorField = {}
        for ci, re, im, expo in ent_list:
            v[int(ci)] = v.get(int(ci), Poly7()) + poly_entry(re, im, expo)
        frame.append(v)
    gmat = [[Fraction(x) for x in row] for row in doc["g"]]
    imats = [[[int(x) for x in row] for row in m] for m in doc["I"]]
    return QcData(etas, frame, gmat, imats, name=doc.get("name", "chart"))


def load_chart(path: str) -> QcData:
    with open(path) as fh:
        return chart_from_json(json.load(fh))


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
