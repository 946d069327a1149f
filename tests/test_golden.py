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
]


@pytest.mark.parametrize("argv, name, code", CASES,
                         ids=[f"argv{i}-{case[1]}" for i, case in enumerate(CASES)])
def test_report_matches_golden(argv, name, code, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) == code
    text = out.read_text()
    assert '"timing_ms"' in text
    assert _without_timing(text) == (GOLDEN / name).read_text()
