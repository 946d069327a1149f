import json

import pytest

from qcframe.cli import run
from qcframe.gauss import gr


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


def test_signature_flag(capsys):
    assert run(["verify", "flat", "--n", "2", "--signature", "1,1"]) == 0


@pytest.mark.parametrize("signature", ["x", "1"])
def test_malformed_signature_exit_2(signature, capsys):
    assert run(["verify", "flat", "--n", "1", "--signature", signature]) == 2
    assert "--signature" in capsys.readouterr().err


def test_off_template_product_exit_3(monkeypatch, capsys):
    """A commutator off the sp(n+1,1) template is an internal defect,
    not a usage error."""
    from qcframe import model
    difference = model.smat_sub

    def off_template(a, b):
        out = difference(a, b)
        out[(0, 0)] = out.get((0, 0), gr(0)) + gr(7)
        return out

    monkeypatch.setattr(model, "smat_sub", off_template)
    assert run(["lie", "jacobi", "--n", "1", "--trials", "1"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_dependent_basis_matrices_exit_3(dependent_basis, capsys):
    assert run(["lie", "jacobi", "--n", "1"]) == 3
    assert "internal error: the sp(n+1,1) basis matrices are linearly dependent" \
        in capsys.readouterr().err


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
