"""Self-test of the benchmark's correctness checks.

Each check in ``checks.py`` is fed a value qcframe computed (it must pass)
and a deliberately wrong one (it must fail): a perturbed Gram entry, a
shifted homogeneity, a nonzero residual, and so on.  Run from the root of
a source checkout:

    python3 bench/selftest.py

Exit code 0 when every check accepts the right value and rejects the
wrong one; 1 otherwise.
"""
from __future__ import annotations

import copy
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from qcframe import cochains, coframe, model, rules, tensors  # noqa: E402
from qcframe.gauss import gr  # noqa: E402


def cases():
    """Yield (name, problems for the right value, problems for a wrong one)."""
    n = 1
    m = model.SpModel(n)
    mats = [m.to_matrix(m.basis(k)) for k in m.keys]
    gram = m.killing_gram()
    yield ("dim formula", checks.check_count("dim", m.dim, checks.lie_dim(n)),
           checks.check_count("dim", m.dim + 1, checks.lie_dim(n)))
    yield ("primary generator formula",
           checks.check_count("primary", len(coframe.primary_keys(n)), checks.primary_count(n)),
           checks.check_count("primary", len(coframe.primary_keys(n)) - 1,
                              checks.primary_count(n)))
    bad_gram = dict(gram)
    key = next(iter(bad_gram))
    bad_gram[key] = bad_gram[key] + 1
    yield ("Killing Gram = (2n+6) tr(XY)", checks.check_killing_gram(gram, mats, n),
           checks.check_killing_gram(bad_gram, mats, n))
    missing = dict(gram)
    del missing[key]
    yield ("Killing Gram, missing entry", [], checks.check_killing_gram(missing, mats, n))

    fr = m.dual_frames()
    yield ("trace-frame pairings", checks.check_pairings(fr["psi_pairing"], fr["phi_pairing"], n),
           checks.check_pairings(fr["psi_pairing"] * 2, fr["phi_pairing"], n))
    yield ("trace-frame pairings, phi", [],
           checks.check_pairings(fr["psi_pairing"], fr["psi_pairing"], n))

    rng = random.Random(0)
    a, b = model.random_coord(rng, m), model.random_coord(rng, m)
    br = m.to_matrix(m.bracket(a, b))
    off = dict(br)
    k0 = next(iter(off))
    off[k0] = off[k0] + gr(0, 1)
    yield ("bracket = matrix commutator",
           checks.check_commutator(br, m.to_matrix(a), m.to_matrix(b)),
           checks.check_commutator(off, m.to_matrix(a), m.to_matrix(b)))

    c = tensors.StandardConstants(n)
    x, y = model.random_g1(rng, c), model.random_g1(rng, c)
    mx, my = model.g1_to_matrix(x, c), model.g1_to_matrix(y, c)
    mxy = model.g1_to_matrix(model.g1_compose(x, y, c), c)
    bad_mxy = copy.deepcopy(mxy)
    bad_mxy[0][0] = bad_mxy[0][0] + 1
    yield ("G1 composition = matrix product", checks.check_product(mxy, mx, my),
           checks.check_product(bad_mxy, mx, my))
    unit = model.g1_to_matrix(model.g1_compose(x, model.g1_inverse(x, c), c), c)
    not_unit = copy.deepcopy(unit)
    not_unit[0][1] = not_unit[0][1] + 1
    yield ("x . x^-1 = identity", checks.check_identity(unit), checks.check_identity(not_unit))

    table = {fam: [h] for fam, h in checks.HOMOGENEITY.items()}
    shifted = dict(table, S=[3])
    yield ("homogeneity table", checks.check_homogeneity(table),
           checks.check_homogeneity(shifted))
    yield ("homogeneity table, one family", checks.check_homogeneity({"V": [3]}, ["V"]),
           checks.check_homogeneity({"V": [3, 4]}, ["V"]))

    ext = rules.build_rules(n, "flat").ext
    zero = {k: ext.zero() for k in coframe.primary_keys(n)}
    one_off = dict(zero)
    one_off[coframe.primary_keys(n)[0]] = ext.gen(("eta", 1))
    yield ("residuals all zero", checks.check_all_zero("d2", zero, len(zero)),
           checks.check_all_zero("d2", one_off, len(zero)))
    yield ("residual count", [], checks.check_all_zero("d2", zero, len(zero) + 1))
    yield ("negative control leaves a residual", checks.check_some_nonzero("ctl", one_off),
           checks.check_some_nonzero("ctl", zero))
    yield ("boolean certificate", checks.check_true("x", True), checks.check_true("x", False))

    compo = cochains.random_components(rng, c)
    report = cochains.check_normality(compo, m)
    yield ("normal components", checks.check_normal(report),
           checks.check_normal(dict(report, normal=False)))
    bad_trace = dict(report, trace_conditions=dict(report["trace_conditions"], g_trace=False))
    yield ("normal components, trace condition", [], checks.check_normal(bad_trace))
    broken = cochains.check_normality(cochains.broken_components(rng, c), m,
                                      validate=False, tamper="unsym-S")
    yield ('broken S at n = 1 is "not normal"', checks.check_not_normal(broken),
           checks.check_not_normal(report))

    K = cochains.random_lemma_cochain(rng, n)
    direct = cochains.kostant_codiff_direct(K, m)
    closed = cochains.kostant_codiff_closed(K, m)
    skew = dict(closed)
    k1 = next(iter(skew))
    skew[k1] = skew[k1] + m.basis(("psi", 1))
    yield ("direct = closed codifferential", checks.check_codiff_agree(direct, closed),
           checks.check_codiff_agree(direct, skew))

    doc = {"status": "pass", "checks": [{"name": "a", "status": "pass"}]}
    yield ("CLI report", checks.check_cli_report(0, doc), checks.check_cli_report(1, doc))
    yield ("CLI report, failed check", [],
           checks.check_cli_report(0, {"status": "pass",
                                       "checks": [{"name": "a", "status": "fail"}]}))
    yield ("CLI report, no checks", [], checks.check_cli_report(0, {"status": "pass"}))


def main() -> int:
    bad = 0
    for name, right, wrong in cases():
        ok = not right and bool(wrong)
        bad += not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: right value -> {right or 'accepted'}; "
              f"wrong value -> {wrong[:1] or 'ACCEPTED'}")
    print(f"{'all checks can fail' if not bad else f'{bad} checks misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
