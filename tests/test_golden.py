"""Committed --json reports, reproduced byte for byte apart from the
"timing_ms" section (the last key of every report)."""
import re
from pathlib import Path

import pytest

from qcframe.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _without_timing(text):
    return re.sub(r',\n "timing_ms": \{[^{}]*\}', "", text)


@pytest.mark.parametrize("argv, name", [
    (["lie", "jacobi", "--n", "1", "--trials", "5", "--seed", "7"],
     "lie_jacobi_n1_trials5_seed7.json"),
    (["lie", "killing", "--n", "1"], "lie_killing_n1.json"),
    (["verify", "flat", "--n", "1"], "verify_flat_n1.json"),
    (["example", "heisenberg"], "example_heisenberg.json"),
    (["verify", "normality", "--n", "1", "--trials", "3", "--seed", "7"],
     "verify_normality_n1_trials3_seed7.json"),
    (["classify", "homogeneity", "--n", "1"], "classify_homogeneity_n1.json"),
])
def test_report_matches_golden(argv, name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) == 0
    text = out.read_text()
    assert '"timing_ms"' in text
    assert _without_timing(text) == (GOLDEN / name).read_text()
