"""Committed --json reports, reproduced byte for byte apart from the
"timing_ms" section (the last key of every report)."""
import re
from pathlib import Path

import pytest

from qcframe.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _without_timing(text):
    return re.sub(r',\n "timing_ms": \{[^{}]*\}', "", text)


# (argv, golden file, expected exit code)
CASES = [
    (["lie", "jacobi", "--n", "1", "--trials", "5", "--seed", "7"],
     "lie_jacobi_n1_trials5_seed7.json", 0),
    (["lie", "killing", "--n", "1"], "lie_killing_n1.json", 0),
    (["verify", "flat", "--n", "1"], "verify_flat_n1.json", 0),
    (["example", "heisenberg"], "example_heisenberg.json", 0),
    (["verify", "normality", "--n", "1", "--trials", "3", "--seed", "7"],
     "verify_normality_n1_trials3_seed7.json", 0),
    (["classify", "homogeneity", "--n", "1"], "classify_homogeneity_n1.json", 0),
    (["verify", "curved", "--n", "1"], "verify_curved_n1.json", 0),
    # the negative control fails and prints each residual's to_text
    (["verify", "curved", "--n", "1", "--negative-control"],
     "verify_curved_n1_negative_control.json", 1),
    (["verify", "bianchi", "--n", "1"], "verify_bianchi_n1.json", 0),
    (["lie", "g1", "--n", "1", "--trials", "5", "--seed", "7"],
     "lie_g1_n1_trials5_seed7.json", 0),
    (["lie", "killing", "--n", "2"], "lie_killing_n2.json", 0),
    # 18 failing generators at n = 2: pins the n = 2 generator and symbol
    # rules byte for byte through the residuals' to_text
    (["verify", "curved", "--n", "2", "--negative-control"],
     "verify_curved_n2_negative_control.json", 1),
    # the normality sweep and the homogeneity table at the size the
    # benchmark runs them
    (["verify", "normality", "--n", "2", "--trials", "3", "--seed", "7"],
     "verify_normality_n2_trials3_seed7.json", 0),
    (["classify", "homogeneity", "--n", "2", "--seed", "0"],
     "classify_homogeneity_n2_seed0.json", 0),
    # the curved certificates beyond n = 2: all 43 generators, and the
    # displayed combinations and starred forms, at n = 3
    (["verify", "curved", "--n", "3"], "verify_curved_n3.json", 0),
    (["verify", "bianchi", "--n", "3"], "verify_bianchi_n3.json", 0),
]


@pytest.mark.parametrize("argv, name, code", CASES,
                         ids=[f"argv{i}-{case[1]}" for i, case in enumerate(CASES)])
def test_report_matches_golden(argv, name, code, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) == code
    text = out.read_text()
    assert '"timing_ms"' in text
    assert _without_timing(text) == (GOLDEN / name).read_text()


def test_report_stdout_matches_golden(capsys):
    """The whole battery of ``qcframe report`` prints no timing: its
    stdout is pinned byte for byte."""
    assert run(["report", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "report_seed0.txt").read_text()
