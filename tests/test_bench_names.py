"""The benchmark's tracer (bench/tracing.py) wraps qcframe functions by
module and attribute path.  Every name it lists must resolve on a fresh
import of qcframe, so that a rename cannot silently break
``bench/run.py --trace 1``.  The tracer is read in a separate
interpreter and nothing under bench/ is written."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RESOLVE = """
import importlib, json, runpy, sys
tracing = runpy.run_path(sys.argv[1])
found, missing = [], []
for mod, path, *_ in tracing["TARGETS"] + tracing["COUNTED"]:
    try:
        owner, attr = tracing["_resolve"](importlib.import_module("qcframe." + mod), path)
        ok = callable(getattr(owner, attr))
    except AttributeError:
        ok = False
    (found if ok else missing).append(mod + "." + path)
print(json.dumps({"found": found, "missing": missing}))
"""


def test_traced_names_resolve_on_fresh_import():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", RESOLVE, str(ROOT / "bench" / "tracing.py")],
                          env=env, capture_output=True, text=True, check=True)
    names = json.loads(proc.stdout)
    assert names["missing"] == []
    for name in ("model.SpModel.from_matrix", "model.SpModel.to_matrix",
                 "model.SpModel.calibration", "model.SpModel.bracket_fast",
                 "tensors.symmetrize", "forms.Poly.__mul__", "gauss.GaussRational.__init__"):
        assert name in names["found"]
