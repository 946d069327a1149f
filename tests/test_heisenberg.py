import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import qcframe.heisenberg
from qcframe import InputError
from qcframe.cli import run
from qcframe.forms import Form, Poly, differential
from qcframe.gauss import gr
from qcframe.heisenberg import (CHART, CHART_RULES, COORDS, alpha_forms,
                                chart_certificates, chart_from_json, coord, dx,
                                heisenberg_qc, integrability_residuals,
                                lex_coframe, monomial, reeb_fields)


def d(form):
    return differential(form, CHART_RULES)


@pytest.fixture(scope="module")
def qc():
    q = heisenberg_qc()
    reeb_fields(q)
    return q


def test_chart_form_d_squared_zero():
    x1, x2 = coord(0), coord(1)
    f = Form(CHART, {0: x1 * x1 * x2})
    assert d(d(f)).is_zero()
    w = dx(0).scale(x2) + dx(3).scale(x1 * x2)
    assert d(d(w)).is_zero()


def test_chart_d_values():
    """d(x1^2 x2) = 2 x1 x2 dx1 + x1^2 dx2, and d(x2 dx1) = -dx1^dx2."""
    x1, x2 = coord(0), coord(1)
    f = Form(CHART, {0: x1 * x1 * x2})
    assert d(f) == dx(0).scale(x1 * x2).scale(2) + dx(1).scale(x1 * x1)
    assert d(dx(0).scale(x2)) == -(dx(0) ^ dx(1))
    assert d(dx(4)).is_zero()


def test_chart_monomials_and_labels():
    assert monomial([2, 1, 0, 0, 0, 0, 1]) == (coord(0) * coord(0) * coord(1)
                                              * coord(6)).terms.popitem()[0]
    for bad in ([1] * 6, [0, 0, 0, 0, 0, 0, -1]):
        with pytest.raises(ValueError):
            monomial(bad)
    assert CHART.labels == tuple("d" + c for c in COORDS)
    assert (dx(4) ^ dx(0)).scale(coord(0)).to_text() == "(-1*x1) dx1^dt1"


def test_chart_wedge_antisymmetry():
    a, b = dx(0), dx(5)
    assert ((a ^ b) + (b ^ a)).is_zero()
    assert (a ^ a).is_zero()


def test_heisenberg_defines_no_algebra_of_its_own():
    """The chart runs on forms.Poly/Form: no class in heisenberg.py
    implements polynomial or form arithmetic."""
    arithmetic = {"__add__", "__sub__", "__mul__", "__neg__", "__xor__",
                  "scale", "wedge", "diff", "d", "interior", "eval_fields"}
    tree = ast.parse(Path(qcframe.heisenberg.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            assert not methods & arithmetic, (node.name, methods & arithmetic)


def test_chart_d_wedges_nothing_for_zero_rules(monkeypatch):
    """Every CHART_RULES generator rule is zero, so d of a constant chart
    form is zero without a single wedge, crossing count or coefficient
    product: differential places and multiplies only inside _rule_into."""
    from qcframe import forms
    two_form = dx(0) ^ dx(1)
    calls = []
    for name in ("_crossings", "_rule_into"):
        fn = getattr(forms, name)
        monkeypatch.setattr(forms, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    wedge = Form.wedge
    monkeypatch.setattr(Form, "wedge", lambda a, b: calls.append("wedge") or wedge(a, b))
    assert differential(two_form, CHART_RULES).is_zero()
    assert calls == []
    # the counters see the work of a nonconstant form
    assert not differential(two_form.scale(coord(2)), CHART_RULES).is_zero()
    assert "_rule_into" in calls


def test_common_kernel_rank4(qc):
    assert qc.check_kernel()
    assert len(qc.frame) == 4


def test_quaternion_relations(qc):
    assert qc.check_quaternion_relations()


def test_contact_compatibility(qc):
    assert qc.check_compatibility()


def test_reeb_fields_are_t_derivatives(qc):
    for t, xi in enumerate(qc.reeb):
        assert set(xi) == {4 + t}
        assert xi[4 + t] == Poly.const(1)


def test_reeb_duality_and_antisymmetry(qc):
    detas = [d(eta) for eta in qc.etas]
    for s in range(3):
        for t in range(3):
            val = qc.etas[s].eval_fields(qc.reeb[t])
            assert val == Poly.const(1 if s == t else 0)
            for X in qc.frame:
                anti = (detas[s].eval_fields(qc.reeb[t], X)
                        + detas[t].eval_fields(qc.reeb[s], X))
                assert anti.is_zero()


def test_alpha_forms_vanish(qc):
    alpha = alpha_forms(qc)
    assert all(f.is_zero() for f in alpha.values())
    # skewness holds by construction
    for s in range(3):
        for t in range(3):
            assert (alpha[(s, t)] + alpha[(t, s)]).is_zero()


def test_integrability_residuals(qc):
    assert all(r.is_zero() for r in integrability_residuals(qc))


def test_lex_equations_close(qc):
    lex = lex_coframe(qc)
    assert all(f.is_zero() for f in lex["phi"])
    assert all(r.is_zero() for r in lex["residuals"])


def test_lex_theta_reproduces_deta1(qc):
    """The 2i g_{a b̄} theta^a ^ theta^{b̄} term alone equals d(eta1)."""
    lex = lex_coframe(qc)
    th = lex["theta"]
    thb = [
        dx(0) - dx(1).scale(gr(0, 1)),
        dx(2) - dx(3).scale(gr(0, 1)),
    ]
    acc = Form(CHART)
    for a in range(2):
        acc = acc + (th[a] ^ thb[a]).scale(gr(0, 2))
    assert (d(qc.etas[0]) - acc).is_zero()


def test_lex_gauge_rescaling(qc):
    lex = lex_coframe(qc, mu_root=Fraction(2))
    assert lex["mu"] == Fraction(4)
    assert all(r.is_zero() for r in lex["residuals"])
    lex = lex_coframe(qc, mu_root=Fraction(1, 3))
    assert all(r.is_zero() for r in lex["residuals"])


def test_full_certificate_pipeline():
    cert = chart_certificates(heisenberg_qc())
    assert cert == {
        "name": "heisenberg",
        "common_kernel": True,
        "quaternion_relations": True,
        "compatibility": True,
        "reeb": True,
        "alpha_all_zero": True,
        "integrability_residual_zero": True,
    }


def _chart_doc(qc):
    """The chart qc in the chart-input format."""
    def expo(mono):
        return [sum(1 for s in mono if s.family == c) for c in COORDS]

    def form_entries(form):
        out = []
        for mask, poly in form.terms.items():
            assert mask.bit_count() == 1
            for mono, c in poly.terms.items():
                out.append([mask.bit_length() - 1, str(c.re), str(c.im), expo(mono)])
        return out

    def field_entries(v):
        out = []
        for ci, poly in v.items():
            for mono, c in poly.terms.items():
                out.append([ci, str(c.re), str(c.im), expo(mono)])
        return out

    return {
        "name": "heisenberg-copy",
        "etas": [form_entries(eta) for eta in qc.etas],
        "frame": [field_entries(X) for X in qc.frame],
        "g": [[str(v) for v in row] for row in qc.g],
        "I": qc.I_mats,
    }


def test_chart_json_round_trip(qc):
    """Serialize the Heisenberg chart through the input format and run
    the pipeline on the parsed copy."""
    qc2 = chart_from_json(json.loads(json.dumps(_chart_doc(qc))))
    assert qc2.etas == qc.etas and qc2.frame == qc.frame
    cert = chart_certificates(qc2)
    assert cert["common_kernel"] and cert["compatibility"]
    assert cert["alpha_all_zero"] and cert["integrability_residual_zero"]


def test_chart_file_named_heisenberg_runs_only_the_chart_checks(qc, tmp_path, capsys):
    """The coframe equations are solved for the built-in flat chart only:
    a chart file does not run them by being named "heisenberg".  The
    Heisenberg chart with its etas and g doubled is still a qc chart, and
    it passes whatever its name."""
    doc = _chart_doc(qc)
    doc["etas"] = [[[i, str(2 * Fraction(re)), str(2 * Fraction(im)), e]
                    for i, re, im, e in eta] for eta in doc["etas"]]
    doc["g"] = [[str(2 * Fraction(v)) for v in row] for row in doc["g"]]
    for name in ("heisenberg", "scaled"):
        doc["name"] = name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"{name}-report.json"
        assert run(["example", "heisenberg", "--chart", str(path), "--json", str(out)]) == 0
        checks = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert len(checks) == 6 and all(c.startswith(f"{name}: ") for c in checks)


def test_lex_rejects_non_flat_chart(qc):
    other = heisenberg_qc()
    other.name = "custom"
    with pytest.raises(ValueError):
        lex_coframe(other)


def test_singular_frame_pairing_raises(qc):
    """omega_forms inverts the 4x4 pairing dx_i(X_k); a frame that does
    not span H makes it singular."""
    other = heisenberg_qc()
    other.frame = [other.frame[0]] * 4
    other.reeb = qc.reeb
    with pytest.raises(ValueError, match="singular"):
        other.omega_forms()


def test_sheared_frame_certificates_and_omegas():
    """The pipeline on the Heisenberg chart with the frame X' = X T for a
    non-symmetric unimodular T (g' = T^t g T, I'_s = T^-1 I_s T): the
    pairing dx_i(X'_k) is no longer the identity, and each omega_s still
    restricts to g'(I'_s ., .) on the new frame and kills the Reeb fields."""
    T = [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 3, 1]]
    Tinv = [[1, -2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -3, 1]]

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]

    qc = heisenberg_qc()
    frame = []
    for k in range(4):
        X = {}
        for j in range(4):
            for ci, p in qc.frame[j].items():
                X[ci] = X.get(ci, Poly()) + p.scale(T[j][k])
        frame.append({ci: p for ci, p in X.items() if not p.is_zero()})
    qc.frame = frame
    qc.g = mul(mul([list(r) for r in zip(*T)], qc.g), T)
    qc.I_mats = [mul(mul(Tinv, I_s), T) for I_s in qc.I_mats]
    cert = chart_certificates(qc)
    assert all(v for k, v in cert.items() if k != "name"), cert
    omegas = qc.omega_forms()
    for s in range(3):
        for k in range(4):
            for l in range(4):
                want = sum(qc.I_mats[s][m][k] * qc.g[m][l] for m in range(4))
                assert omegas[s].eval_fields(frame[k], frame[l]) == Poly.const(want)
        for xi in qc.reeb:
            assert omegas[s].interior(xi).is_zero()


@pytest.mark.parametrize("part, entry", [
    ("etas", [7, "1", "0", [0] * 7]),           # no eighth differential
    ("frame", [-1, "1", "0", [0] * 7]),
    ("etas", [0, "1", "0", [0] * 6]),           # six exponents
    ("frame", [0, "1", "0", [0, 0, 0, 0, 0, 0, -1]]),
    ("etas", [0, 0.5, "0", [0] * 7]),           # a JSON float coefficient
    ("frame", [0, "1", True, [0] * 7]),         # a boolean coefficient
    ("etas", [1.9, "1", "0", [0] * 7]),         # a float coordinate index
    ("frame", [0, "1", "0", [True] + [0] * 6]),  # a boolean exponent
    ("g", (0, 1, 0.1)),                         # a float: 3602879701896397/2^55
    ("g", (0, 0, 2.0)),
    ("I", (1, 0, 1.9)),                         # a float: would truncate to 1
    ("I", (1, 0, True)),                        # a boolean: would read as 1
])
def test_chart_file_rejects_malformed_entries(qc, part, entry, tmp_path, capsys):
    doc = _chart_doc(qc)
    if part in ("etas", "frame"):
        doc[part][0].append(entry)
    else:  # one cell (row, column, value) of g or of I_1
        r, c, value = entry
        (doc["g"] if part == "g" else doc["I"][0])[r][c] = value
    with pytest.raises(ValueError):
        chart_from_json(doc)
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    assert run(["example", "heisenberg", "--chart", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_chart_file_refuses_a_huge_exponent(qc, tmp_path, capsys):
    """A coefficient "1e100000000" is refused by its exponent, before a
    10^8-digit integer is built."""
    doc = _chart_doc(qc)
    doc["etas"][0].append([0, "1e100000000", "0", [0] * 7])
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    assert run(["example", "heisenberg", "--chart", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exponent of '1e100000000' exceeds 4300" in err


def test_chart_file_echoes_a_long_value_short(qc, tmp_path, capsys):
    """A 10,000-character coefficient is refused and echoed as its first
    40 characters and its length, on one short line."""
    doc = _chart_doc(qc)
    doc["etas"][0].append([0, "1e" + "9" * 9998, "0", [0] * 7])
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    assert run(["example", "heisenberg", "--chart", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 150
    assert f"exponent of '1e{'9' * 37}... (10002 characters) exceeds 4300" in err


@pytest.mark.parametrize("part, change", [
    ("I", lambda ms: [[row[:3] for row in m[:3]] for m in ms]),  # 3x3 matrices
    ("I", lambda ms: ms[:2]),                                     # two matrices
    ("g", lambda g: g + [g[0]]),                                  # five rows
    ("etas", lambda etas: etas[:2]),                              # two contact forms
    ("frame", lambda frame: frame[:3]),                           # three fields
], ids=["I-3x3", "I-two", "g-five-rows", "etas-two", "frame-three"])
def test_chart_file_rejects_misshapen_matrices(qc, part, change, tmp_path):
    doc = _chart_doc(qc)
    doc[part] = change(doc[part])
    with pytest.raises(ValueError):
        chart_from_json(doc)
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    assert run(["example", "heisenberg", "--chart", str(path)]) == 2


def _d_dx1_entry(field):
    return next(e for e in field if e[0] == 0 and e[3] == [0] * 7)


@pytest.mark.parametrize("change", [
    lambda frame: frame[0].append([0, "1", "0", [1, 0, 0, 0, 0, 0, 0]]),  # d/dx1: 1 + x1
    lambda frame: _d_dx1_entry(frame[0]).__setitem__(2, "1"),            # d/dx1: 1 + i
    lambda frame: frame.__setitem__(1, frame[0]),                         # X_2 = X_1
    lambda frame: frame.__setitem__(slice(None), [[]] * 4),               # all four empty
], ids=["non-constant", "non-real", "repeated-field", "empty-fields"])
def test_chart_file_with_an_unusable_frame_exit_2(qc, change, tmp_path, capsys):
    """omega_forms inverts the real constant matrix dx_i(X_k), i < 4: a
    frame whose coefficients are not real constants, or whose matrix is
    singular, is refused on load with one line naming the frame, not
    reported as an internal defect."""
    doc = _chart_doc(qc)
    change(doc["frame"])
    with pytest.raises(InputError, match="frame"):
        chart_from_json(doc)
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    assert run(["example", "heisenberg", "--chart", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: frame") and err.count("\n") == 1 and "Traceback" not in err
