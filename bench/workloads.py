"""The three benchmark workloads.

A workload drives qcframe only through the public functions of its
modules and through ``qcframe.cli.run``.  It has

* ``setup()``: a generator of named set-up steps (the first step, the
  import, is run by ``run.py``); the objects they build are shared by
  every pass;
* ``operations()``: a generator of the operations of one pass.  The
  output of each operation is sent back into the generator, so a later
  operation can use it.  Every pass starts from ``random.Random(seed)``
  and therefore repeats exactly the same work.

Every operation carries a check from ``checks.py``.  An operation marked
``known_fault`` is one whose check fails today because of a documented
defect in qcframe; it is counted as failed but does not make the run
incorrect.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
import types
from fractions import Fraction
from typing import Callable, List, NamedTuple

import checks

MODULES = ("gauss", "tensors", "coframe", "forms", "rules", "model",
           "cochains", "heisenberg", "cli")


def load_qcframe() -> types.SimpleNamespace:
    """Import qcframe afresh (dropping any earlier import) and
    return its modules by short name."""
    for name in [m for m in sys.modules if m == "qcframe" or m.startswith("qcframe.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"qcframe.{m}")
                                    for m in MODULES})


def no_check(_out) -> List[str]:
    return []


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]] = no_check
    known_fault: bool = False


class Workload:
    name = ""
    # per-layer metrics that the traced run reads from set-up, not passes
    setup_spans = frozenset()

    def __init__(self, lib, seed: int, outdir: str):
        self.lib = lib
        self.seed = seed
        self.outdir = outdir
        self.counters = {"cli.report_bytes": 0}


class Structure(Workload):
    name = "structure"

    def setup(self):
        rules = self.lib.rules
        self.flat2 = yield Op("build_rules(2, flat)", lambda: rules.build_rules(2, "flat"),
                              lambda r: checks.check_count("flat rules", len(r.gen_rules),
                                                           checks.lie_dim(2)))

    def operations(self):
        L = self.lib
        rules, forms = L.rules, L.forms
        keys = L.coframe.primary_keys(2)
        curved = yield Op("build_rules(2, curved)", lambda: rules.build_rules(2, "curved"),
                          lambda r: checks.check_count("curved rules", len(r.gen_rules),
                                                       checks.lie_dim(2))
                          + checks.check_count("primary generators", len(keys),
                                               checks.primary_count(2)))
        for key in keys:
            yield Op(f"d2[{L.coframe.label(key)}]",
                     lambda key=key: forms.differential(
                         forms.differential(curved.ext.gen(key), curved), curved),
                     lambda f: [] if f.is_zero() else ["d^2 != 0"])
        flat = self.flat2
        yield Op("flat reduction n=2",
                 lambda: {k: rules.substitute_flat(f) - flat.gen_rules[k]
                          for k, f in curved.gen_rules.items()},
                 lambda res: checks.check_all_zero("flat reduction", res, checks.lie_dim(2)))
        yield Op("bianchi_residuals(1)", lambda: rules.bianchi_residuals(1),
                 lambda res: checks.check_all_zero("Bianchi", res))
        yield Op("star_two_path_check(1)", lambda: rules.star_two_path_check(1),
                 lambda ok: checks.check_true("star_two_path_check", ok))
        yield Op("star_symmetry_check(1)", lambda: rules.star_symmetry_check(1),
                 lambda ok: checks.check_true("star_symmetry_check", ok))
        # negative control: d^2 with the V symmetry broken, one generator
        # per operation; the last operation checks that a residual survives
        broken = yield Op("build_rules(1, curved, unsym-V)",
                          lambda: rules.build_rules(1, "curved", tamper="unsym-V"))
        keys1 = L.coframe.primary_keys(1)
        residuals = {}
        for key in keys1:
            residuals[key] = yield Op(
                f"unsym-V d2[{L.coframe.label(key)}]",
                lambda key=key: forms.differential(
                    forms.differential(broken.ext.gen(key), broken), broken),
                (lambda f: checks.check_some_nonzero("unsym-V", dict(residuals, last=f)))
                if key == keys1[-1] else no_check)
        yield self._cli_op("heisenberg", ["example", "heisenberg"])
        yield self._cli_op("flat1", ["verify", "flat", "--n", "1"])

    def _cli_op(self, tag: str, argv: List[str]) -> Op:
        path = os.path.join(self.outdir, f"cli-{os.getpid()}-{tag}.json")

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.lib.cli.run(argv + ["--json", path])

        def check(code):
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
            self.counters["cli.report_bytes"] += len(data)
            return checks.check_cli_report(code, json.loads(data))

        return Op("cli " + " ".join(argv), run, check)


class Lie(Workload):
    name = "lie"

    JACOBI_TRIPLES = 8
    G1_TRIALS = 6

    def setup(self):
        model = self.lib.model
        self.m2 = yield Op("SpModel(2)", lambda: model.SpModel(2),
                           lambda m: checks.check_count("dim n=2", m.dim, checks.lie_dim(2)))
        self.c2 = self.m2.consts

    def operations(self):
        model = self.lib.model
        m2, c2 = self.m2, self.c2
        rng = random.Random(self.seed)
        for _ in range(self.JACOBI_TRIPLES):
            a, b, c = (model.random_coord(rng, m2) for _ in range(3))
            yield Op("jacobi_residual n=2", lambda a=a, b=b, c=c: model.jacobi_residual(m2, a, b, c),
                     lambda r, a=a, b=b: ([] if r.is_zero() else ["Jacobi residual != 0"])
                     + checks.check_commutator(m2.to_matrix(m2.bracket(a, b)),
                                               m2.to_matrix(a), m2.to_matrix(b)))
        m1 = model.SpModel(1)
        yield Op("grading_check(1)", lambda: model.grading_check(m1),
                 lambda ok: checks.check_true("grading_check", ok))
        fresh = model.SpModel(1)
        yield Op("fresh SpModel(1).killing_gram", fresh.killing_gram,
                 lambda g: checks.check_count("dim n=1", fresh.dim, checks.lie_dim(1))
                 + checks.check_killing_gram(
                     g, [fresh.to_matrix(fresh.basis(k)) for k in fresh.keys], 1))
        yield Op("calibration(1)", fresh.calibration, self._check_calibration)
        for _ in range(self.G1_TRIALS):
            x, y = model.random_g1(rng, c2), model.random_g1(rng, c2)
            yield Op("g1 compose/inverse/to_matrix n=2",
                     lambda x=x, y=y: self._g1_trial(x, y), self._check_g1)

    def _check_calibration(self, cal) -> List[str]:
        pair = cal["pairings"]
        return (checks.check_count("Gram entries compared", cal["gram_entries"],
                                   checks.lie_dim(1) ** 2)
                + checks.check_pairings(Fraction(pair["psi_Ehat"]["trace"]),
                                        Fraction(pair["phi_Zhat"]["trace"]), 1))

    def _g1_trial(self, x, y):
        model, c = self.lib.model, self.c2
        xy = model.g1_compose(x, y, c)
        mats = [model.g1_to_matrix(v, c) for v in (x, y, xy)]
        return mats, model.g1_to_matrix(model.g1_compose(x, model.g1_inverse(x, c), c), c)

    def _check_g1(self, out) -> List[str]:
        (mx, my, mxy), unit = out
        return checks.check_product(mxy, mx, my) + checks.check_identity(unit)


class Normality(Workload):
    name = "normality"
    setup_spans = frozenset({
        "rules.build_rules", "model.SpModel.killing_gram", "model.SpModel.dual_frames",
        "cochains.kappa_coordinate_forms", "cochains.codiff_closed_constants"})

    TRIALS = 2
    LEMMA_COCHAINS = 2

    def setup(self):
        L = self.lib
        m = self.model = yield Op("SpModel(2)", lambda: L.model.SpModel(2),
                                  lambda m: checks.check_count("dim n=2", m.dim,
                                                               checks.lie_dim(2)))
        yield Op("SpModel(2).killing_gram", m.killing_gram,
                 lambda g: checks.check_killing_gram(
                     g, [m.to_matrix(m.basis(k)) for k in m.keys], 2))
        yield Op("dual_frames", m.dual_frames,
                 lambda fr: checks.check_pairings(fr["psi_pairing"], fr["phi_pairing"], 2))
        self.consts = yield Op("codiff_closed_constants",
                               lambda: L.cochains.codiff_closed_constants(m))
        yield Op("kappa_coordinate_forms(2)", lambda: L.cochains.kappa_coordinate_forms(2))
        yield Op("kappa_coordinate_forms(2, unsym-S)",
                 lambda: L.cochains.kappa_coordinate_forms(2, tamper="unsym-S"))

    def operations(self):
        C, gr = self.lib.cochains, self.lib.gauss.gr
        m, cc = self.model, self.consts
        rng = random.Random(self.seed)
        first = None
        for _ in range(self.TRIALS):
            compo = yield Op("random_components", lambda: C.random_components(rng, m.consts))
            if first is None:
                first = compo
            yield Op("check_normality", lambda compo=compo: C.check_normality(compo, m, cc),
                     checks.check_normal)
        for _ in range(self.LEMMA_COCHAINS):
            K, direct = yield Op("lemma cochain, direct codifferential",
                                 lambda: self._direct(rng))
            yield Op("closed codifferential", lambda K=K: C.kostant_codiff_closed(K, m, cc),
                     lambda closed, direct=direct: checks.check_codiff_agree(direct, closed))
        # the homogeneity table: one family of the first trial's components
        # at a time; zero scalars get a fixed nonzero value so each family
        # is present
        for scalar, val in (("p", gr(1, 1)), ("q", gr(2, -1)), ("r", gr(3))):
            if getattr(first, scalar).is_zero():
                setattr(first, scalar, val)
        for fam in checks.HOMOGENEITY:
            yield Op(f"homogeneity {fam}", lambda fam=fam: self._family(first, fam),
                     lambda got, fam=fam: checks.check_homogeneity({fam: got}, [fam]))
        broken = yield Op("broken_components", lambda: C.broken_components(rng, m.consts))
        yield Op("check_normality(unsym-S)",
                 lambda: C.check_normality(broken, m, cc, validate=False, tamper="unsym-S"),
                 checks.check_not_normal, known_fault=True)

    def _direct(self, rng):
        C = self.lib.cochains
        K = C.random_lemma_cochain(rng, 2)
        return K, C.kostant_codiff_direct(K, self.model)

    def _family(self, src, fam: str) -> List[int]:
        C = self.lib.cochains
        only = C.zero_components(2)
        setattr(only, fam.lower(), getattr(src, fam.lower()))
        return sorted(C.homogeneity_classify(C.assemble_kappa(only, self.model)))


WORKLOADS = {w.name: w for w in (Structure, Lie, Normality)}
