"""Acceptance criteria, one test per criterion.

Every identity is checked in exact Gaussian-rational arithmetic against
literal zero; there are no numeric tolerances anywhere.  Each test
prints a single PASS line on success (run with -s to see them).
"""
import random
import time
from fractions import Fraction

import pytest

from qcframe.gauss import gr


def _ok(msg):
    print(f"PASS  {msg}")


# -- 1. Jacobi identity --------------------------------------------------------


def test_criterion_1_jacobi(model_for):
    from qcframe.model import jacobi_residual, random_coord
    models = {n: model_for(n) for n in (1, 2, 3)}
    for m in models.values():
        m.structure_constants()  # one-time setup, outside the timed sweep
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        m, rng = models[n], random.Random(n)
        for _ in range(100):
            a, b, c = (random_coord(rng, m) for _ in range(3))
            assert jacobi_residual(m, a, b, c).is_zero(), f"Jacobi failed at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"Jacobi sweep took {elapsed:.2f}s (budget 5s)"
    _ok(f"criterion 1: Jacobi, 100 random triples per n in {{1,2,3}}, "
        f"exactly zero, {elapsed:.2f}s < 5s")


# -- 2. Killing-form calibration ------------------------------------------------


def test_criterion_2_killing_calibration(model_for):
    for n in (1, 2, 3):
        m = model_for(n)
        cal = m.calibration()
        # coefficient-by-coefficient: every block either matches the
        # closed form or the discrepancy is reported with the
        # trace-derived value
        for name, block in cal["blocks"].items():
            assert block["match"] or block["trace_coefficient"], name
        # the trace-derived values themselves (uniformly 2n+6-based)
        c = 2 * n + 6
        assert cal["blocks"]["eta_psi"]["trace_coefficient"] == str(-c)
        assert cal["blocks"]["phi0_phi0"]["trace_coefficient"] == str(c)
        assert cal["blocks"]["phi_s_phi_s"]["trace_coefficient"] == str(-c)
        assert cal["blocks"]["theta_phiU"]["trace_coefficient"] == str(-4 * c)
        # the printed Gamma coefficient -7 is n-independent; the trace
        # gives -(2n+6), reported
        assert cal["blocks"]["Gam_Gam"]["printed_coefficient"] == "-7"
        assert cal["blocks"]["Gam_Gam"]["trace_coefficient"] == str(-c)
        # duality pairings of the closed-form frames reproduce the
        # quoted values exactly
        pf = m.dual_frames_published()
        assert pf["psi_pairing"] == gr(Fraction(-1, 4 * n + 6))
        assert pf["phi_pairing"] == gr(Fraction(-1, 4 * (2 * n + 7)))
        if n == 1:
            assert str(pf["psi_pairing"]) == "-1/10"
            assert str(pf["phi_pairing"]) == "-1/36"
    _ok("criterion 2: Killing calibration for n in {1,2,3}; discrepancies "
        "(incl. the Gamma '-7') reported with trace values; pairings "
        "-1/10 and -1/36 reproduced exactly")


# -- 3. Maurer-Cartan consistency ----------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_3_maurer_cartan(n):
    from qcframe.model import maurer_cartan_check
    rep = maurer_cartan_check(n)
    assert rep["mismatches"] == 0
    _ok(f"criterion 3: Maurer-Cartan structure constants == negated matrix "
        f"commutators on all {rep['basis_pairs']} basis pairs, n={n}, exact")


# -- 4. flat d^2 = 0 -------------------------------------------------------------


def test_criterion_4_flat_d_square():
    from qcframe.rules import build_rules, d_square_report
    t0 = time.perf_counter()
    rep1 = d_square_report(build_rules(1, "flat"))
    rep2 = d_square_report(build_rules(2, "flat"))
    elapsed = time.perf_counter() - t0
    assert len(rep1) == 17
    assert all(v.is_zero() for v in rep1.values())
    assert all(v.is_zero() for v in rep2.values())
    assert elapsed < 60.0
    _ok(f"criterion 4: flat d^2 = 0 on all 17 generators (n=1) and "
        f"{len(rep2)} generators (n=2), exact, {elapsed:.2f}s < 60s")


# -- 5. curved Bianchi certificate ----------------------------------------------


def test_criterion_5_curved_bianchi():
    from qcframe.rules import build_rules, d_square_report, bianchi_residuals
    t0 = time.perf_counter()
    rep = d_square_report(build_rules(1, "curved"))
    assert len(rep) == 17
    assert all(v.is_zero() for v in rep.values())
    combos = bianchi_residuals(1)
    assert len(combos) >= 4
    assert all(v.is_zero() for v in combos.values())
    # negative control: broken V symmetry must produce a nonzero residual
    bad = d_square_report(build_rules(1, "curved", tamper="unsym-V"))
    assert any(not v.is_zero() for v in bad.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(f"criterion 5: curved d^2 = 0 on every coframe generator and all "
        f"four displayed second-derivative combinations vanish (n=1, exact, "
        f"{elapsed:.1f}s < 600s); negative control produces nonzero residual")


# -- 6. normality ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_criterion_6_normality_components(model_for, n):
    from qcframe.cochains import (random_components, check_normality,
                                  codiff_closed_constants)
    m = model_for(n)
    consts = codiff_closed_constants(m)
    rng = random.Random(100 + n)
    for _ in range(50):
        compo = random_components(rng, m.consts)
        rep = check_normality(compo, m, consts)
        assert rep["dstar_direct_zero"] and rep["dstar_closed_zero"]
        assert all(rep["trace_conditions"].values())
    _ok(f"criterion 6a: dstar(kappa) = 0 and the five trace conditions, "
        f"50 random valid component sets, n={n}, exact")


def test_criterion_6_codifferential_agreement(model_for):
    from qcframe.cochains import (random_lemma_cochain, kostant_codiff_direct,
                                  kostant_codiff_closed, codiff_closed_constants)
    m = model_for(1)
    consts = codiff_closed_constants(m)
    rng = random.Random(55)
    for _ in range(100):
        K = random_lemma_cochain(rng, 1)
        da = kostant_codiff_direct(K, m)
        db = kostant_codiff_closed(K, m, consts)
        assert all((da[k] - db[k]).is_zero() for k in da)
    _ok("criterion 6b: direct and closed codifferentials agree on 100 "
        "random lemma-compatible cochains, exact")


# -- 7. G1 group laws -------------------------------------------------------------


def test_criterion_7_g1(model_for):
    from qcframe.model import (G1Element, random_g1, g1_to_matrix, g1_compose,
                               g1_inverse)
    c = model_for(1).consts
    rng = random.Random(17)

    def matmul(A, B):
        size = len(A)
        return [[sum((A[i][k] * B[k][j] for k in range(size)), gr(0))
                 for j in range(size)] for i in range(size)]

    e = G1Element.identity(1)
    for _ in range(100):
        x, y, z = (random_g1(rng, c) for _ in range(3))
        assert g1_to_matrix(g1_compose(x, y, c), c) == \
            matmul(g1_to_matrix(x, c), g1_to_matrix(y, c))
        assert g1_compose(x, g1_inverse(x, c), c) == e
        assert g1_compose(g1_compose(x, y, c), z, c) == \
            g1_compose(x, g1_compose(y, z, c), c)
    _ok("criterion 7: G1 composition, inverse and associativity match "
        "matrix algebra on 100 random samples, exact")


# -- 8. Heisenberg example --------------------------------------------------------


def test_criterion_8_heisenberg():
    from qcframe.heisenberg import (heisenberg_qc, chart_certificates,
                                    lex_coframe)
    qc = heisenberg_qc()
    cert = chart_certificates(qc)
    assert cert["common_kernel"]
    assert cert["quaternion_relations"]
    assert cert["compatibility"]
    assert cert["reeb"]
    assert cert["alpha_all_zero"]
    assert cert["integrability_residual_zero"]
    lex = lex_coframe(qc)
    assert all(r.is_zero() for r in lex["residuals"])
    _ok("criterion 8: Heisenberg chart satisfies the qc axioms, the Reeb "
        "equations, alpha = 0, the structural identity, and all three "
        "coframe equations as exact polynomial identities")


# -- 9. homogeneity table ----------------------------------------------------------



def _nonzero_family_source(rng, consts):
    """Random components with every family guaranteed nonzero."""
    from qcframe.cochains import random_components
    from qcframe.gauss import gr
    while True:
        src = random_components(rng, consts)
        if src.p.is_zero():
            src.p = gr(1, 1)
        if src.q.is_zero():
            src.q = gr(2, -1)
        if src.r.is_zero():
            src.r = gr(3)
        if all(not getattr(src, f).is_zero() for f in ("s", "v", "l", "m", "c", "h")):
            return src

def test_criterion_9_homogeneity(model_for):
    from qcframe.cochains import (assemble_kappa, homogeneity_classify,
                                  random_components, regularity_ok,
                                  zero_components)
    m = model_for(1)
    rng = random.Random(9)
    src = _nonzero_family_source(rng, m.consts)
    expected = {"s": [2], "v": [3], "l": [4], "m": [4], "c": [5], "h": [5],
                "p": [6], "q": [6], "r": [6]}
    for fam, want in expected.items():
        compo = zero_components(1)
        setattr(compo, fam, getattr(src, fam))
        K = assemble_kappa(compo, m)
        got = sorted(homogeneity_classify(K))
        assert got == want, f"family {fam}: {got} != {want}"
    for _ in range(5):
        K = assemble_kappa(random_components(rng, m.consts), m)
        assert regularity_ok(K)
    _ok("criterion 9: component families classify to homogeneities "
        "S->2, V->3, L/M->4, C/H->5, P/Q/R->6; regularity holds")
