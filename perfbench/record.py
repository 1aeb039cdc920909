"""Record the SHA-256 of every workload's DIMACS output into digests.json.

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD...]

Run once at the commit whose output is the reference; run.py then fails
any run whose output differs.  Encodes in-process with `pbdd.cli.main`
at --jobs 1, for every scramble of every named workload.  Named
workloads (default: all) are re-recorded; others are kept.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import workloads
from pbdd.cli import main as pbdd_main

HERE = Path(__file__).resolve().parent


def digest(wl: workloads.Workload, seed: int, work: Path) -> str:
    cnf = work / "out.cnf"
    code = pbdd_main(["encode", "--method", wl.encode.method,
                      "--in", str(workloads.write(wl, seed, work)),
                      "--out", str(cnf), "--jobs", "1"])
    if code != 0:
        raise SystemExit(f"{wl.encode.name}: pbdd exited with {code}")
    return hashlib.sha256(cnf.read_bytes()).hexdigest()


def main(names: list[str]) -> None:
    target = HERE / "digests.json"
    recorded = json.loads(target.read_text()) if target.is_file() else {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in names or workloads.WORKLOADS:
            wl = workloads.base(name)
            recorded[name] = {str(s): digest(wl, s, Path(tmp))
                              for s in range(workloads.FAMILY)}
            print(f"{name}: {len(recorded[name])} instance(s)", flush=True)
    target.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
