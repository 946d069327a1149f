import json

import pytest

from qcframe.cli import run


def _strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing_ms", None)
    return doc


def test_flat_ok_and_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify", "flat", "--n", "1", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert len(doc["checks"]) == 17
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_bad_n_exit_2(capsys):
    assert run(["verify", "flat", "--n", "0"]) == 2


def test_unknown_flag_exit_2(capsys):
    assert run(["verify", "flat", "--frobnicate"]) == 2


def test_unknown_command_exit_2(capsys):
    assert run(["bogus"]) == 2


def test_negative_control_exit_1(capsys):
    assert run(["verify", "curved", "--n", "1", "--negative-control"]) == 1


def test_published_exit_1(capsys):
    assert run(["verify", "curved", "--n", "1", "--as-published"]) == 1


def test_curved_ok(capsys):
    assert run(["verify", "curved", "--n", "1"]) == 0


def test_bianchi_ok(capsys):
    assert run(["verify", "bianchi", "--n", "1"]) == 0


def test_normality_small(tmp_path, capsys):
    out = tmp_path / "n.json"
    assert run(["verify", "normality", "--n", "1", "--trials", "2",
                "--seed", "7", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["codiff_constants"]["c_gam"] == "-2"


def test_normality_n2_negative_control_detected(tmp_path, capsys):
    out = tmp_path / "n2.json"
    assert run(["verify", "normality", "--n", "2", "--trials", "1",
                "--seed", "7", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    control = [c for c in doc["checks"] if c["name"].startswith("negative control")]
    assert len(control) == 1 and control[0]["status"] == "pass"
    assert control[0]["report"]["normal"] is False


@pytest.mark.parametrize("command", [["verify", "normality"], ["lie", "jacobi"],
                                     ["lie", "g1"]])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_exit_2(command, trials, capsys):
    assert run(command + ["--n", "1", "--trials", trials]) == 2
    assert "--trials" in capsys.readouterr().err


def test_report_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["verify", "normality", "--n", "1", "--trials", "2",
                    "--seed", "11", "--json", str(path)]) == 0
    da = _strip_timing(json.loads(a.read_text()))
    db = _strip_timing(json.loads(b.read_text()))
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_lie_commands(capsys):
    assert run(["lie", "jacobi", "--n", "1", "--trials", "5", "--seed", "3"]) == 0
    assert run(["lie", "killing", "--n", "1"]) == 0
    assert run(["lie", "g1", "--n", "1", "--trials", "5", "--seed", "3"]) == 0


def test_example_and_classify(capsys):
    assert run(["example", "heisenberg"]) == 0
    assert run(["classify", "homogeneity", "--n", "1", "--seed", "5"]) == 0


def test_classify_fails_on_a_column_moved_to_another_homogeneity(monkeypatch, capsys):
    """The negative control for the family table read from the plan: the
    first S read's row of the plan matrix feeding a column of homogeneity 3
    in place of its first column makes the command exit 1, naming S."""
    from qcframe import cochains
    forms, reads, (den, rows) = cochains._kappa(1, (1, 0), None)
    moved = cochains._weights(1).index(3)
    r = next(r for r, read in enumerate(reads) if read[0] == "S")
    (_, coeff), *rest = rows[r]
    monkeypatch.setitem(cochains._KAPPA_CACHE, (1, (1, 0), None),
                        (forms, reads, (den, {**rows, r: ((moved, coeff), *rest)})))
    assert run(["classify", "homogeneity", "--n", "1", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert '[fail] family S sits at homogeneity [2]  {"found": [2, 3]}' in out
    assert out.count("[fail]") == 1


def test_classify_with_component_file(tmp_path, capsys):
    import random
    from qcframe.cochains import components_to_json, random_components
    from qcframe.tensors import StandardConstants
    consts = StandardConstants(1)
    doc = components_to_json(random_components(random.Random(4), consts), (1, 0))
    path = tmp_path / "compo.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "homogeneity", "--n", "1",
                "--components", str(path)]) == 0


def test_classify_component_file_signature_mismatch_exit_2(tmp_path, capsys):
    import random
    from qcframe.cochains import components_to_json, random_components
    from qcframe.tensors import StandardConstants
    consts = StandardConstants(2, (1, 1))
    doc = components_to_json(random_components(random.Random(4), consts), (1, 1))
    path = tmp_path / "compo.json"
    path.write_text(json.dumps(doc))
    argv = ["classify", "homogeneity", "--n", "2", "--components", str(path)]
    assert run(argv) == 2
    assert "signature" in capsys.readouterr().err
    assert run(argv + ["--signature", "1,1"]) == 0


def test_classify_component_file_for_another_n_exit_2(tmp_path, capsys, monkeypatch):
    """The file's n is compared with --n before anything is built for it:
    constants for n = 2000 take gigabytes, so building them fails here."""
    from qcframe.tensors import StandardConstants
    init = StandardConstants.__init__

    def small_only(self, n, signature=None):
        if n > 2:
            raise AssertionError(f"constants built for n = {n}")
        init(self, n, signature)

    monkeypatch.setattr(StandardConstants, "__init__", small_only)
    path = tmp_path / "compo.json"
    path.write_text(json.dumps({"n": 2000}))
    assert run(["classify", "homogeneity", "--n", "1", "--components", str(path)]) == 2
    assert "n = 2000 does not match n = 1" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"n": 1, "S": 5},
    {"n": 1, "P": 3},
    [{"n": 1}],
    {"n": 1, "C": [{"idx": 1, "re": "1", "im": "0"}]},
    {"n": 1, "signature": "ab"},
    {"n": 1, "R": {"re": 0.1, "im": 0}},
])
def test_malformed_component_file_exit_2(doc, tmp_path, capsys):
    path = tmp_path / "compo.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "homogeneity", "--n", "1", "--components", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_component_file_with_a_huge_exponent_exit_2(tmp_path, capsys):
    """A value's exponent is bounded before Fraction reads it: P = 1e3000000
    would build a 3,000,001-digit integer and run on with exit 0."""
    from qcframe import MAX_EXPONENT, InputError, rational_from_json
    assert rational_from_json(f"1e-{MAX_EXPONENT}", "v") > 0
    with pytest.raises(InputError, match="exponent"):
        rational_from_json(f"1e{MAX_EXPONENT + 1}", "v")
    path = tmp_path / "compo.json"
    path.write_text(json.dumps({"n": 1, "P": {"re": "1e3000000", "im": "0"}}))
    assert run(["classify", "homogeneity", "--n", "1", "--components", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: P.re: the exponent of '1e3000000' exceeds 4300\n"


def test_component_file_with_a_long_value_exit_2(tmp_path, capsys):
    """A 10,000-character value is echoed as its first 40 characters and
    its length, not whole, on the one line of standard error."""
    path = tmp_path / "compo.json"
    path.write_text(json.dumps({"n": 1, "P": {"re": "7" * 5000 + "/x" * 2500, "im": "0"}}))
    assert run(["classify", "homogeneity", "--n", "1", "--components", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: P.re: '{'7' * 39}... (10002 characters) is not a rational number\n"


@pytest.mark.parametrize("key", ["s", "comment"])
def test_component_file_with_an_unknown_key_exit_2(key, tmp_path, capsys):
    """A top-level key other than n, signature and the nine families is
    refused and named, not ignored: with S written as a lowercase "s" the
    file would otherwise run with S = 0 and exit 0."""
    import random
    from qcframe.cochains import components_to_json, random_components
    from qcframe.tensors import StandardConstants
    doc = components_to_json(random_components(random.Random(4), StandardConstants(1)), (1, 0))
    doc[key] = doc.pop("S")
    path = tmp_path / "compo.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "homogeneity", "--n", "1", "--components", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: component file: unknown key '{key}'; the keys are n, "
                          "signature, S, V, L, M, C, H, P, Q, R") and err.count("\n") == 1


def test_signature_flag(capsys):
    assert run(["verify", "flat", "--n", "2", "--signature", "1,1"]) == 0


@pytest.mark.parametrize("signature", ["x", "1"])
def test_malformed_signature_exit_2(signature, capsys):
    assert run(["verify", "flat", "--n", "1", "--signature", signature]) == 2
    assert "--signature" in capsys.readouterr().err


def test_off_template_product_exit_3(monkeypatch, capsys, tmp_path):
    """A commutator off the sp(n+1,1) template is an internal defect,
    not a usage error."""
    from qcframe import model
    commutator = model.commutator

    def off_template(*args):
        out = commutator(*args)
        row = out.setdefault(0, {})
        re, im = row.get(0, (0, 0))
        row[0] = [re + 7, im]
        return out

    monkeypatch.setattr(model, "commutator", off_template)
    path = tmp_path / "report.json"
    assert run(["lie", "jacobi", "--n", "1", "--trials", "1", "--json", str(path)]) == 3
    assert "internal error" in capsys.readouterr().err
    report = json.loads(path.read_text())
    assert report["status"] == "error" and report["command"] == "lie jacobi"
    assert report["stage"] == "jacobi"
    assert report["error"] == "matrix is off the sp(n+1,1) block template"


def test_internal_error_report_outside_a_stage(monkeypatch, capsys, tmp_path):
    """An internal error before any timed stage still leaves a report: the
    stage is null and the message names the exception type."""
    from qcframe import rules

    def broken(*args, **kwargs):
        raise RuntimeError("rule table generator broken")

    monkeypatch.setattr(rules, "build_rules", broken)
    path = tmp_path / "report.json"
    assert run(["verify", "flat", "--n", "1", "--json", str(path)]) == 3
    assert "internal error: verify flat: RuntimeError" in capsys.readouterr().err
    report = json.loads(path.read_text())
    assert report["schema"] == "qcframe-report/1" and report["command"] == "verify flat"
    assert report["status"] == "error" and report["stage"] is None
    assert report["error"] == "RuntimeError: rule table generator broken"
    assert report["checks"] == [] and report["timing_ms"] == {}


def test_dependent_basis_matrices_exit_3(dependent_basis, capsys):
    assert run(["lie", "jacobi", "--n", "1"]) == 3
    assert "internal error: the sp(n+1,1) basis matrices are linearly dependent" \
        in capsys.readouterr().err


def test_singular_killing_pairing_exit_3(monkeypatch, capsys):
    """A Killing Gram whose eta-psi pairing is singular is the model's own
    defect: dual_frames raises TemplateError and the CLI exits 3, not 2."""
    from qcframe.model import SpModel, TemplateError
    gram = SpModel.killing_gram

    def singular(self):
        i = self.key_index[("psi", 1)]
        return {p: v for p, v in gram(self).items() if i not in p}

    monkeypatch.setattr(SpModel, "killing_gram", singular)
    with pytest.raises(TemplateError, match="Killing pairing: singular 3x3 matrix"):
        SpModel(1).dual_frames()
    assert run(["lie", "killing", "--n", "1"]) == 3
    assert "internal error: Killing pairing: singular" in capsys.readouterr().err


def test_missing_rule_exit_3(monkeypatch, capsys):
    """A rule table without the rule of one generator is a defect of the
    program, not bad input: the KeyError differential raises exits 3, with
    the command named."""
    from qcframe import rules
    build = rules.build_rules

    def without_psi1(*args, **kwargs):
        table = build(*args, **kwargs)
        del table.gen_rules[table.ext.gid[("psi", 1)]]
        return table

    monkeypatch.setattr(rules, "build_rules", without_psi1)
    assert run(["verify", "curved", "--n", "1"]) == 3
    err = capsys.readouterr().err
    assert "internal error: verify curved: KeyError: 'no differential rule for generator" \
        in err.splitlines()[-1]


def _nonzero_residual():
    from qcframe.forms import Exterior
    ext = Exterior(1)
    return (ext.gen(("eta", 1)) ^ ext.gen(("theta", 1, False))).scale(ext.sym("P"))


@pytest.mark.parametrize("command, target, name", [
    ("flat", "d_square_report", "d2[eta1] == 0"),
    ("bianchi", "bianchi_residuals", "Gamma combination == 0"),
])
def test_failing_residual_reports_its_text(command, target, name, monkeypatch, tmp_path,
                                           capsys):
    """verify flat and verify bianchi print a nonzero residual's to_text
    next to its term count, as verify curved does."""
    from qcframe import rules
    from qcframe.forms import Form
    bad = _nonzero_residual()
    if target == "d_square_report":
        fake = lambda table: {("eta", 1): bad, ("eta", 2): Form(bad.ext)}
    else:
        fake = lambda n, sig=None: {"Gamma": bad, "R": Form(bad.ext)}
    monkeypatch.setattr(rules, target, fake)
    out = tmp_path / "r.json"
    assert run(["verify", command, "--n", "1", "--json", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert failed == [{"name": name, "status": "fail", "residual_terms": 1,
                       "residual": bad.to_text()}]
    assert all("residual" not in c for c in checks if c["status"] == "pass")
