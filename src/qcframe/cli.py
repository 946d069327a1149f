"""Batch command-line interface: every certificate as a command.

Exit codes:

* 0: every certificate passed;
* 1: at least one certificate failed;
* 2: bad usage or input: an argparse failure, an ``InputError`` (a bad
  ``--signature`` or n, a malformed component or chart file) or an
  ``OSError`` reading or writing a file; one line ``error: ...`` on stderr;
* 3: an internal defect, which no input can cause.  A ``TemplateError``
  (the model's basis matrices or Killing pairing broken) prints
  ``internal error: <message>``; any other exception escaping a command,
  such as a rule missing from a rule table, prints its traceback and then
  ``internal error: <command>: <exception type>: <message>``.

With --json PATH the machine-readable report is written out; for a fixed
seed the report is byte-identical across runs except for the "timing_ms"
section.  A command that stops on an internal defect (exit 3) once its
report is begun still writes one: the report built so far, with "status": "error", the
``Runner.timed`` stage that was running in "stage" (null outside every
stage) and the message in "error".
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import InputError, __version__
from .gauss import gr
from .model import TemplateError

SCHEMA = "qcframe-report/1"


def _parse_signature(text, n):
    if text is None:
        return (n, 0)
    try:
        p, q = (int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"--signature expects p,q, got {text!r}") from None
    return (p, q)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class Runner:
    """One command's report.  A command that takes ``--signature`` finds
    it parsed in ``sig``; for the others ``sig`` is None.  The runner sets
    itself as ``args.runner``, so that ``run`` can write the report of a
    command that stops on an internal defect."""

    def __init__(self, args, command):
        args.runner = self
        self.stage = None
        self.sig = (_parse_signature(args.signature, args.n)
                    if hasattr(args, "signature") else None)
        self.report = {
            "schema": SCHEMA,
            "library_version": __version__,
            "command": command,
            "n": getattr(args, "n", None),
            "signature": self.sig and list(self.sig),
            "seed": getattr(args, "seed", None),
            "checks": [],
            "timing_ms": {},
        }
        self.failed = False

    def check(self, name, status, **detail):
        entry = {"name": name, "status": "pass" if status else "fail"}
        if detail:
            entry.update(detail)
        self.report["checks"].append(entry)
        if not status:
            self.failed = True

    def timed(self, name, fn):
        self.stage = name
        t0 = time.perf_counter()
        out = fn()
        self.report["timing_ms"][name] = int((time.perf_counter() - t0) * 1000)
        self.stage = None
        return out

    def write_error(self, json_path, message):
        """Write the report built so far as a report of an internal error."""
        self.report.update(status="error", stage=self.stage, error=message)
        with open(json_path, "w") as fh:
            fh.write(json.dumps(self.report, indent=1, sort_keys=True) + "\n")

    def finish(self, json_path=None):
        self.report["status"] = "fail" if self.failed else "pass"
        text = json.dumps(self.report, indent=1, sort_keys=True)
        if json_path:
            with open(json_path, "w") as fh:
                fh.write(text + "\n")
        for c in self.report["checks"]:
            line = f"[{c['status']:4s}] {c['name']}"
            extras = {k: v for k, v in c.items() if k not in ("status", "name")}
            if extras:
                line += "  " + json.dumps(extras, sort_keys=True, default=str)
            print(line)
        print(f"overall: {self.report['status']}")
        return 1 if self.failed else 0


def _residual(form):
    """Check details of a residual form: its term count, plus its text
    when it is nonzero."""
    detail = {"residual_terms": form.term_count()}
    if not form.is_zero():
        detail["residual"] = form.to_text()
    return detail


def cmd_verify_flat(args):
    from .rules import build_rules, d_square_report
    from . import coframe
    r = Runner(args, "verify flat")
    rules = build_rules(args.n, "flat", r.sig)
    rep = r.timed("d_square", lambda: d_square_report(rules))
    for key, form in rep.items():
        r.check(f"d2[{coframe.label(key)}] == 0", form.is_zero(), **_residual(form))
    return r.finish(args.json)


def cmd_verify_curved(args):
    from .rules import build_rules, d_square_report, substitute_flat
    from . import coframe
    r = Runner(args, "verify curved")
    tamper = "unsym-V" if args.negative_control else None
    rules = build_rules(args.n, "curved", r.sig, tamper=tamper,
                        published=args.published)
    rep = r.timed("d_square", lambda: d_square_report(rules))
    for key, form in rep.items():
        r.check(f"d2[{coframe.label(key)}] == 0", form.is_zero(), **_residual(form))
    r.report["note"] = ("the dpsi2/dpsi3 rules are the real/imaginary split of "
                        "the combined displayed derivative of psi2 + i psi3; "
                        "the split is validated by exact re-summation")
    if not tamper and not args.published:
        flat = build_rules(args.n, "flat", r.sig)
        ok = all((substitute_flat(f) - flat.gen_rules[k]).is_zero()
                 for k, f in rules.gen_rules.items())
        r.check("curvature -> 0 reduces curved rules to flat rules", ok)
    return r.finish(args.json)


def cmd_verify_bianchi(args):
    from .rules import bianchi_residuals, star_two_path_check, star_symmetry_check
    r = Runner(args, "verify bianchi")
    res = r.timed("bianchi", lambda: bianchi_residuals(args.n, r.sig))
    for name, form in res.items():
        r.check(f"{name} combination == 0", form.is_zero(), **_residual(form))
    r.check("starred forms: rule-table path == semibasic expansion",
            r.timed("star_two_path", lambda: star_two_path_check(args.n, r.sig)))
    r.check("starred S: total symmetry and j-reality",
            r.timed("star_symmetry", lambda: star_symmetry_check(args.n, r.sig)))
    return r.finish(args.json)


def cmd_verify_normality(args):
    from .model import SpModel
    from .cochains import (random_components, check_normality, broken_components,
                           codiff_closed_constants, random_lemma_cochain,
                           kostant_codiff_direct, kostant_codiff_closed,
                           assemble_kappa, regularity_ok)
    r = Runner(args, "verify normality")
    model = SpModel(args.n, r.sig)
    rng = random.Random(args.seed)
    consts = r.timed("codiff_constants", lambda: codiff_closed_constants(model))
    r.report["codiff_constants"] = {k: str(v) for k, v in consts.items() if k != "printed"}
    r.report["codiff_constants_printed"] = consts["printed"]

    def trials():
        reps = (check_normality(random_components(rng, model.consts), model, consts)
                for _ in range(args.trials))
        return sum(1 for rep in reps if rep["normal"] and rep["direct_equals_closed"])

    good = r.timed("normality_trials", trials)
    r.check(f"dstar(kappa) == 0 and trace conditions, {args.trials} random component sets",
            good == args.trials, passed=good, trials=args.trials)
    pairs = args.trials

    def agreement():
        agree = 0
        for _ in range(pairs):
            K = random_lemma_cochain(rng, args.n)
            da = kostant_codiff_direct(K, model)
            db = kostant_codiff_closed(K, model, consts)
            agree += all(da[k] == db[k] for k in da)
        return agree

    agree = r.timed("codiff_agreement", agreement)
    r.check(f"direct == closed codifferential, {pairs} random lemma cochains",
            agree == pairs, passed=agree, trials=pairs)
    compo = broken_components(rng, model.consts)
    rep = check_normality(compo, model, consts, validate=False, tamper="unsym-S")
    r.check("negative control: broken S symmetry breaks normality",
            not rep["normal"], report={k: v for k, v in rep.items()})
    compo = random_components(rng, model.consts)
    r.check("regularity: homogeneities of kappa all positive",
            regularity_ok(assemble_kappa(compo, model)))
    return r.finish(args.json)


def cmd_lie_jacobi(args):
    from .model import SpModel, random_coord, jacobi_residual, grading_check
    r = Runner(args, "lie jacobi")
    model = SpModel(args.n, r.sig)
    rng = random.Random(args.seed)

    def failures():
        bad = 0
        for _ in range(args.trials):
            a, b, c = (random_coord(rng, model) for _ in range(3))
            bad += not jacobi_residual(model, a, b, c).is_zero()
        return bad

    bad = r.timed("jacobi", failures)
    r.check(f"Jacobi identity, {args.trials} random triples", bad == 0,
            failures=bad)
    r.check("grading [g_i, g_j] in g_(i+j) on all basis pairs",
            r.timed("grading", lambda: grading_check(model)))
    return r.finish(args.json)


def cmd_lie_killing(args):
    from .model import SpModel
    r = Runner(args, "lie killing")
    model = SpModel(args.n, r.sig)
    cal = r.timed("calibration", lambda: model.calibration())
    r.report["calibration"] = cal
    r.check("ad-trace Gram matrix computed and compared (see calibration)",
            True, blocks={k: v["match"] for k, v in cal["blocks"].items()})
    psi, phi = cal["pairings"]["psi_Ehat"], cal["pairings"]["phi_Zhat"]
    r.check("published-form duality pairings equal their quoted values",
            psi["published_form"] == psi["printed"]
            and phi["published_form"] == phi["printed"],
            psi=psi["published_form"], phi=phi["published_form"])
    r.check("trace-form duality pairings recorded",
            True, psi=psi["trace"], phi=phi["trace"])
    return r.finish(args.json)


def cmd_lie_g1(args):
    from .tensors import StandardConstants
    from .linear import smat, smat_mul
    from .model import G1Element, random_g1, g1_to_matrix, g1_compose, g1_inverse
    r = Runner(args, "lie g1")
    c = StandardConstants(args.n, r.sig)
    rng = random.Random(args.seed)
    ident = G1Element.identity(args.n)

    def passes():
        ok_prod = ok_inv = ok_assoc = 0
        for _ in range(args.trials):
            x, y, z = (random_g1(rng, c) for _ in range(3))
            ok_prod += smat(g1_to_matrix(g1_compose(x, y, c), c)) == smat_mul(
                smat(g1_to_matrix(x, c)), smat(g1_to_matrix(y, c)))
            ok_inv += (g1_compose(x, g1_inverse(x, c), c) == ident
                       and g1_compose(g1_inverse(x, c), x, c) == ident)
            ok_assoc += (g1_compose(g1_compose(x, y, c), z, c)
                         == g1_compose(x, g1_compose(y, z, c), c))
        return ok_prod, ok_inv, ok_assoc

    ok_prod, ok_inv, ok_assoc = r.timed("g1", passes)
    r.check(f"composition matches matrix product, {args.trials} trials",
            ok_prod == args.trials, passed=ok_prod)
    r.check("inverse formula", ok_inv == args.trials, passed=ok_inv)
    r.check("associativity", ok_assoc == args.trials, passed=ok_assoc)
    return r.finish(args.json)


def cmd_example_heisenberg(args):
    from .heisenberg import (heisenberg_qc, chart_certificates, load_chart,
                             lex_coframe)
    r = Runner(args, "example heisenberg")
    if args.chart:
        qc = load_chart(args.chart)
    else:
        qc = heisenberg_qc()
    cert = r.timed("certificates", lambda: chart_certificates(qc))
    for name, ok in cert.items():
        if name == "name":
            continue
        r.check(f"{qc.name}: {name}", bool(ok))
    if not args.chart:  # the coframe equations are solved for the built-in flat chart
        lex = lex_coframe(qc)
        r.check("coframe equations close with all phi = 0",
                all(f.is_zero() for f in lex["residuals"]))
        lex4 = lex_coframe(qc, mu_root=Fraction(2))
        r.check("coframe equations close under constant gauge mu = 4",
                all(f.is_zero() for f in lex4["residuals"]))
    return r.finish(args.json)


def cmd_classify(args):
    from .model import SpModel
    from .cochains import (random_components, zero_components, assemble_kappa,
                           homogeneity_classify, load_components)
    r = Runner(args, "classify homogeneity")
    model = SpModel(args.n, r.sig)
    rng = random.Random(args.seed)
    if args.components:
        compo = load_components(args.components, model.consts)
    else:
        compo = random_components(rng, model.consts)
    K = assemble_kappa(compo, model)
    hom = homogeneity_classify(K)
    r.report["homogeneities"] = sorted(hom)
    r.check("homogeneities within {2,...,6}",
            all(2 <= h <= 6 for h in hom), found=sorted(hom))
    r.check("regularity (no piece at homogeneity <= 0)", all(h > 0 for h in hom))
    expected = {"s": [2], "v": [3], "l": [4], "m": [4], "c": [5], "h": [5],
                "p": [6], "q": [6], "r": [6]}
    table = {}
    src = random_components(rng, model.consts)
    for scalar, val in (("p", gr(1, 1)), ("q", gr(2, -1)), ("r", gr(3))):
        if getattr(src, scalar).is_zero():
            setattr(src, scalar, val)
    for fam, want in expected.items():
        c0 = zero_components(args.n)
        setattr(c0, fam, getattr(src, fam))
        got = sorted(homogeneity_classify(assemble_kappa(c0, model)))
        table[fam.upper()] = got
        r.check(f"family {fam.upper()} sits at homogeneity {want}", got == want,
                found=got)
    r.report["family_table"] = table
    return r.finish(args.json)


def cmd_report(args):
    """Run the full battery at default sizes."""
    parse = build_parser().parse_args
    seed = ["--seed", str(args.seed)]
    rc = 0
    for argv in (["verify", "flat", "--n", "1"],
                 ["verify", "flat", "--n", "2"],
                 ["verify", "curved", "--n", "1"],
                 ["verify", "bianchi", "--n", "1"],
                 ["verify", "normality", "--n", "1", "--trials", "10", *seed],
                 ["lie", "jacobi", "--n", "1", "--trials", "25", *seed],
                 ["lie", "killing", "--n", "1"],
                 ["lie", "g1", "--n", "1", "--trials", "10", *seed],
                 ["example", "heisenberg"],
                 ["classify", "homogeneity", "--n", "1", *seed]):
        sub = parse(argv)
        print(f"== {sub.fn.__name__[4:]} (n={getattr(sub, 'n', '-')}) ==")
        rc = max(rc, sub.fn(sub))
    return rc


def build_parser():
    p = argparse.ArgumentParser(prog="qcframe",
                                description="exact certificates for the "
                                            "canonical qc coframe geometry")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, n_default=1):
        sp.add_argument("--n", type=int, default=n_default)
        sp.add_argument("--signature", type=str, default=None,
                        help="p,q with p+q = n (default positive definite)")
        sp.add_argument("--json", type=str, default=None,
                        help="write the JSON report to this path")

    pv = sub.add_parser("verify", help="structure-equation certificates")
    vsub = pv.add_subparsers(dest="what", required=True)
    sp = vsub.add_parser("flat")
    common(sp)
    sp.set_defaults(fn=cmd_verify_flat)
    sp = vsub.add_parser("curved")
    common(sp)
    sp.add_argument("--negative-control", action="store_true",
                    help="deliberately break the V symmetry (expected fail)")
    sp.add_argument("--as-published", dest="published", action="store_true",
                    help="use the printed display coefficients verbatim "
                         "(documents their misprints; expected fail)")
    sp.set_defaults(fn=cmd_verify_curved)
    sp = vsub.add_parser("bianchi")
    common(sp)
    sp.set_defaults(fn=cmd_verify_bianchi)
    sp = vsub.add_parser("normality")
    common(sp)
    sp.add_argument("--trials", type=_positive_int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify_normality)

    pl = sub.add_parser("lie", help="model algebra certificates")
    lsub = pl.add_subparsers(dest="what", required=True)
    sp = lsub.add_parser("jacobi")
    common(sp)
    sp.add_argument("--trials", type=_positive_int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_lie_jacobi)
    sp = lsub.add_parser("killing")
    common(sp)
    sp.set_defaults(fn=cmd_lie_killing)
    sp = lsub.add_parser("g1")
    common(sp)
    sp.add_argument("--trials", type=_positive_int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_lie_g1)

    pe = sub.add_parser("example", help="chart-level examples")
    esub = pe.add_subparsers(dest="what", required=True)
    sp = esub.add_parser("heisenberg")
    sp.add_argument("--chart", type=str, default=None,
                    help="run the certificate pipeline on a chart-input file")
    sp.add_argument("--json", type=str, default=None)
    sp.set_defaults(fn=cmd_example_heisenberg)

    pc = sub.add_parser("classify", help="cochain classification")
    csub = pc.add_subparsers(dest="what", required=True)
    sp = csub.add_parser("homogeneity")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--components", type=str, default=None,
                    help="component-input JSON file")
    sp.set_defaults(fn=cmd_classify)

    pr = sub.add_parser("report", help="run the whole battery")
    pr.add_argument("--seed", type=int, default=0)
    pr.set_defaults(fn=cmd_report)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0,) else 0
    try:
        return args.fn(args)
    except (InputError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except TemplateError as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        message = str(ex)
    except Exception as ex:  # a defect: never reported as a usage error
        import traceback  # loaded on this path only, not by every run
        traceback.print_exc()
        command = " ".join(filter(None, (args.cmd, getattr(args, "what", None))))
        message = f"{type(ex).__name__}: {ex}"
        print(f"internal error: {command}: {message}", file=sys.stderr)
    runner, json_path = getattr(args, "runner", None), getattr(args, "json", None)
    if runner and json_path:
        try:
            runner.write_error(json_path, message)
        except OSError as ex:
            print(f"error: {ex}", file=sys.stderr)
    return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
