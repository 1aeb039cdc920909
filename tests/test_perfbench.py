"""The bench's traced runs still start against the current `pbdd.cli`.

`perfbench/traced.py` wraps public names it looks up in `pbdd.cli` and
`pbdd.encode`; a rename there would end every traced bench run with an
AttributeError.  These tests run it as the bench does and change nothing
under `perfbench/`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text(encoding="utf-8"))
    assert data["exit"] == 0
    return proc.stdout, {span[0] for span in data["spans"]}


def test_traced_verify_runs(tmp_path):
    stdout, names = _traced(tmp_path, "verify", "--method", "bdd1", "--max-n", "3",
                            "--seeds", "2")
    assert stdout.endswith("checked 2 random constraints (consistency+GAC, method bdd1): "
                           "0 violation(s)\n")
    assert {"cli.main", "run_pipeline", "build"} <= names


def test_traced_encode_runs(tmp_path):
    opb = tmp_path / "small.opb"
    opb.write_text("+2 x1 +3 x2 +5 x3 <= 6 ;\n+1 x1 -2 x3 >= -1 ;\n")
    out = tmp_path / "small.cnf"
    _, names = _traced(tmp_path, "encode", "--method", "bdd1", "--in", str(opb),
                       "--out", str(out))
    assert out.read_text().startswith("c method bdd1\n")
    assert {"cli.main", "parse_opb", "normalize", "run_pipeline", "build",
            "encode_monotone", "dimacs_text"} <= names
