"""Exact helpers and correctness checks used by the benchmark.

Every check compares qcframe's output against a closed formula or a
property of the method -- never against a stored copy of an earlier
output -- so a faster implementation passes exactly when it computes the
same mathematics.  Each check returns a list of problems; an empty list
means the output is correct.  ``selftest.py`` feeds every check a wrong
value and shows that it reports it.

The matrix helpers work on the ``GaussRational`` entries qcframe produces,
but with their own sparse product, commutator and trace, so the matrix
route of the program is checked against arithmetic it does not share.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

# -- closed formulas ---------------------------------------------------------


def lie_dim(n: int) -> int:
    """dim sp(n+1,1) = (n+2)(2n+5)."""
    return (n + 2) * (2 * n + 5)


def primary_count(n: int) -> int:
    """Generators whose exterior derivative is specified independently."""
    return 2 * n * n + 5 * n + 10


def killing_factor(n: int) -> int:
    """B(X, Y) = (2n+6) tr(XY) in the matrix model."""
    return 2 * n + 6


def trace_pairings(n: int) -> Tuple[Fraction, Fraction]:
    """psi_s(Ehat_t) and phi_a(Zhat^b) for the trace-dual frames."""
    return Fraction(-1, 2 * n + 6), Fraction(-1, 4 * (2 * n + 6))


# curvature family -> homogeneity of its piece of kappa
HOMOGENEITY = {"S": 2, "V": 3, "L": 4, "M": 4, "C": 5, "H": 5,
               "P": 6, "Q": 6, "R": 6}

# -- sparse exact matrices -------------------------------------------------

Mat = Dict[Tuple[int, int], object]


def sparse(m) -> Mat:
    """A dict-of-keys matrix from a dict or a dense list of rows, with
    zero entries dropped."""
    if isinstance(m, dict):
        items = m.items()
    else:
        items = (((r, c), v) for r, row in enumerate(m) for c, v in enumerate(row))
    return {k: v for k, v in items if v != 0}


def mat_mul(a: Mat, b: Mat) -> Mat:
    rows_of_b: Dict[int, List[Tuple[int, object]]] = {}
    for (k, c), v in b.items():
        rows_of_b.setdefault(k, []).append((c, v))
    out: Mat = {}
    for (r, k), va in a.items():
        for c, vb in rows_of_b.get(k, ()):
            out[(r, c)] = out[(r, c)] + va * vb if (r, c) in out else va * vb
    return {k: v for k, v in out.items() if v != 0}


def mat_sub(a: Mat, b: Mat) -> Mat:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] - v if k in out else -v
    return {k: v for k, v in out.items() if v != 0}


def commutator(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a: Mat):
    tot = 0
    for (r, c), v in a.items():
        if r == c:
            tot = v + tot
    return tot


def identity(size: int) -> Mat:
    return {(i, i): 1 for i in range(size)}


def same_matrix(a, b) -> bool:
    a, b = sparse(a), sparse(b)
    return a.keys() == b.keys() and all(a[k] == b[k] for k in a)

# -- checks ------------------------------------------------------------------


def check_count(what: str, got: int, want: int) -> List[str]:
    return [] if got == want else [f"{what}: {got}, formula gives {want}"]


def check_killing_gram(gram: dict, mats: List[Mat], n: int) -> List[str]:
    """Every Gram entry equals (2n+6) tr(X_i X_j) over the basis matrices."""
    k = killing_factor(n)
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            want = trace(mat_mul(mi, mj)) * k
            got = gram.get((i, j), 0)
            if got != want:
                return [f"Killing Gram ({i}, {j}) is {got}, (2n+6) tr(XY) gives {want}"]
    if any(not (0 <= i < len(mats) and 0 <= j < len(mats)) for i, j in gram):
        return ["Killing Gram has entries outside the basis"]
    return []


def check_pairings(psi, phi, n: int) -> List[str]:
    want_psi, want_phi = trace_pairings(n)
    out = []
    if psi != want_psi:
        out.append(f"psi pairing {psi}, want {want_psi}")
    if phi != want_phi:
        out.append(f"phi pairing {phi}, want {want_phi}")
    return out


def check_commutator(bracket_matrix, a: Mat, b: Mat) -> List[str]:
    """The bracket's matrix is the commutator of the factors' matrices."""
    if same_matrix(bracket_matrix, commutator(sparse(a), sparse(b))):
        return []
    return ["bracket differs from the matrix commutator"]


def check_product(product_matrix, a, b) -> List[str]:
    """A composition's matrix is the product of the factors' matrices."""
    if same_matrix(product_matrix, mat_mul(sparse(a), sparse(b))):
        return []
    return ["composition differs from the matrix product"]


def check_identity(m: list) -> List[str]:
    """A dense square matrix is the identity."""
    return [] if same_matrix(m, identity(len(m))) else ["x . x^-1 is not the identity"]


def check_homogeneity(table: Dict[str, List[int]], families=tuple(HOMOGENEITY)) -> List[str]:
    """Each of ``families`` sits at exactly its homogeneity."""
    out = []
    for fam in families:
        got, want = table.get(fam), HOMOGENEITY[fam]
        if got != [want]:
            out.append(f"family {fam} at homogeneity {got}, want [{want}]")
    return out


def check_all_zero(what: str, residuals: dict, expected: int = None) -> List[str]:
    """Every residual is exactly zero (and there are as many as expected)."""
    out = []
    if expected is not None and len(residuals) != expected:
        out.append(f"{what}: {len(residuals)} residuals, want {expected}")
    if not residuals:
        out.append(f"{what}: no residuals to certify")
    bad = [k for k, r in residuals.items() if not r.is_zero()]
    if bad:
        out.append(f"{what}: {len(bad)} nonzero residuals, first {bad[0]}")
    return out


def check_some_nonzero(what: str, residuals: dict) -> List[str]:
    """A negative control: at least one residual must survive."""
    if any(not r.is_zero() for r in residuals.values()):
        return []
    return [f"negative control {what} left every residual zero"]


def check_true(what: str, value) -> List[str]:
    return [] if value is True else [f"{what} returned {value!r}"]


def check_normal(report: dict) -> List[str]:
    """Valid components: dstar(kappa) = 0 both ways, all trace conditions."""
    out = [f"trace condition {k} fails" for k, ok in report["trace_conditions"].items()
           if not ok]
    for key in ("dstar_direct_zero", "dstar_closed_zero", "direct_equals_closed", "normal"):
        if report[key] is not True:
            out.append(f"{key} is {report[key]!r}")
    return out


def check_not_normal(report: dict) -> List[str]:
    """Broken components: the certificate must say "not normal"."""
    return [] if report["normal"] is False else ["broken components reported normal"]


def check_codiff_agree(direct: dict, closed: dict) -> List[str]:
    if direct.keys() != closed.keys():
        return ["codifferentials have different keys"]
    bad = [k for k in direct if not (direct[k] - closed[k]).is_zero()]
    return [f"direct != closed codifferential at {bad[0]}"] if bad else []


def check_cli_report(code: int, doc: dict) -> List[str]:
    """A CLI run exits 0 and its JSON report shows only passing checks."""
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    if doc.get("status") != "pass":
        out.append(f"report status {doc.get('status')!r}")
    checks = doc.get("checks", [])
    if not checks:
        out.append("report has no checks")
    out += [f"check failed: {c['name']}" for c in checks if c.get("status") != "pass"]
    return out
