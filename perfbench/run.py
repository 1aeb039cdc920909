"""Benchmark for pbdd: OPB-to-DIMACS compile time, CNF size and time to a verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pbdd is imported from ./src.  The
workloads and metrics are listed, with reasons, in BENCHMARK.json.

--trace 0 times `pbdd` as a user runs it, one child process per command:
the workload's encode at --jobs 1 and --jobs 2 and its verify, repeated
for S seconds (at least twice).  --trace 1 adds, per repetition, a traced
run of the --jobs 1 encode and of the verify (perfbench/traced.py) and
reports per-layer self times and counters.  Every run is checked: each
DIMACS output against the SHA-256 recorded at the seed commit
(perfbench/digests.json), so --jobs 1, --jobs 2 and traced output are
byte-identical; the verdict line; and exact counts identical between
repetitions.  Human-readable lines come first; the last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"

NODE_BUDGET = 200_000   # per build; the largest build here has about 17k nodes
TIMEOUT_S = 60          # per child process
SETUP_SAMPLES = 7
MIN_REPEATS = 2         # exact counts are compared between repetitions
EMPTY_DIMACS = b"c method bdd1\np cnf 0 0\n"

# Starts pbdd the way its console script does.
PBDD = ["-c", "from pbdd.cli import console_main; console_main()"]

# Counters that must repeat exactly between traced repetitions.
EXACT = ("builder.created", "builder.calls", "builder.hits", "builder.builds",
         "builder.peak_level_width", "encode.raw_clauses", "encode.final_clauses",
         "encode.live_aux", "encode.bit_levels", "opb.rows", "constraints.normalized",
         "dimacs.bytes", "propagate.runs", "verify.assignments")

# Span name -> per-layer self-time metric.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "parse_opb": "opb.parse_s",
    "normalize": "constraints.normalize_s",
    "run_pipeline": "encode.pipeline_s",
    "build": "builder.build_s",
    "decompose": "encode.decompose_s",
    "encode_monotone": "encode.emit_s",
    "encode_ite6": "encode.emit_s",
    "dimacs_text": "dimacs.write_s",
    "check_consistency": "verify.consistency_s",
    "check_gac": "verify.gac_s",
    "UnitPropagator.run": "propagate.run_s",
    "trace": "trace.self_s",
}


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int | None  # None: killed at the timeout


@dataclass
class Tally:
    """Runs attempted and failed; a failed check fails the latest run."""

    attempted: int = 0
    failed_runs: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_runs)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed_runs.add(self.attempted)
            self.errors.append(message)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], stdout: Path, env: dict) -> Child:
    """Run `python3 argv...`, timing it and reading its own peak RSS.

    os.wait4 gives this child's rusage; RUSAGE_CHILDREN would report the
    maximum over every child reaped so far.  The child leads its own
    process group, so a timeout also ends its --jobs workers.
    """
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        timer = threading.Timer(TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stray workers, if any
    timed_out = wall >= TIMEOUT_S
    return Child(wall, usage.ru_maxrss / 1024.0, None if timed_out else proc.returncode)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cnf_header(path: Path) -> tuple[int, int]:
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("p cnf "):
                _, _, nv, nc = line.split()
                return int(nv), int(nc)
    raise ValueError(f"{path} has no 'p cnf' header")


def self_times(spans) -> dict[str, float]:
    """Per-metric self time: span duration minus its direct children's."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        metric = SELF_TIME[name]
        out[metric] = out.get(metric, 0.0) + (end - start - child) / 1e9
    return out


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.wl = workloads.base(name)
        self.work = work
        self.tally = Tally()
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.want = recorded.get(name, {}).get(str(workloads.instance(seed)))
        self.opb = workloads.write(self.wl, seed, work)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _run(self, argv, tag: str) -> tuple[Child, Path]:
        stdout = self.work / f"{tag}.out"
        self.tally.attempted += 1
        child = run_child(argv, stdout, self.env)
        self.tally.check(child.code == 0, f"{tag}: exit code {child.code}"
                         if child.code is not None else f"{tag}: timed out after {TIMEOUT_S}s")
        return child, stdout

    def setup_time(self) -> float:
        """One `pbdd encode --jobs 1` of an OPB file with no constraints."""
        empty = self.work / "empty.opb"
        empty.write_text("* no constraints\n", encoding="utf-8")
        cnf = self.work / "empty.cnf"
        cnf.unlink(missing_ok=True)
        child, _ = self._run([*PBDD, "encode", "--method", "bdd1", "--in", str(empty),
                              "--out", str(cnf), "--jobs", "1"], "setup")
        self.tally.check(cnf.is_file() and cnf.read_bytes() == EMPTY_DIMACS,
                         "setup: unexpected DIMACS for an empty input")
        return child.wall

    def encode_argv(self, jobs: int, out: Path) -> list[str]:
        return ["encode", "--method", self.wl.encode.method, "--in", str(self.opb),
                "--out", str(out), "--jobs", str(jobs), "--node-budget", str(NODE_BUDGET)]

    def encode(self, jobs: int) -> tuple[Child, tuple[int, int]]:
        """Time one CLI encode; check its output against the recorded digest."""
        out = self.work / f"j{jobs}.cnf"
        out.unlink(missing_ok=True)
        child, _ = self._run([*PBDD, *self.encode_argv(jobs, out)], f"encode --jobs {jobs}")
        if child.code != 0:
            return child, (0, 0)
        self.tally.check(self.want is not None, "no recorded digest for this input")
        self.tally.check(sha256(out) == self.want,
                         f"encode --jobs {jobs}: DIMACS differs from the recorded digest")
        return child, cnf_header(out)

    def verify(self) -> Child:
        child, stdout = self._run([*PBDD, *self.wl.verify.argv()], "verify")
        self.check_verdict(stdout, "verify")
        return child

    def check_verdict(self, stdout: Path, tag: str) -> None:
        lines = stdout.read_text(encoding="utf-8").splitlines()
        self.tally.check(lines[-1:] == [self.wl.verify.verdict()], f"{tag}: verdict {lines[-1:]}")

    def traced(self, argv, tag: str) -> tuple[Child, dict, Path]:
        """One run under perfbench/traced.py; returns its spans and counters."""
        spans = self.work / f"{tag}.spans.json"
        child, stdout = self._run([str(HERE / "traced.py"), str(spans), *argv], tag)
        data = (json.loads(spans.read_text(encoding="utf-8")) if child.code == 0
                else {"spans": [], "counters": {}})
        return child, data, stdout

    def e2e_repeat(self) -> dict[str, float]:
        """Every command once, untraced: the end-to-end metrics.

        Both encodes are checked against the recorded digest, so --jobs 2
        output is byte-identical to --jobs 1.
        """
        one, (nv, nc) = self.encode(1)
        two, _ = self.encode(2)
        return {"compile_s": one.wall, "compile_s.j2": two.wall, "peak_rss_mb": one.rss_mb,
                "cnf_vars": nv, "cnf_clauses": nc, "verify_s": self.verify().wall}

    def layer_repeat(self) -> dict[str, float]:
        """The end-to-end commands, then each --jobs 1 command traced."""
        e2e = self.e2e_repeat()
        out = self.work / "traced.cnf"
        enc, enc_data, _ = self.traced(self.encode_argv(1, out), "traced encode")
        self.tally.check(enc.code != 0 or sha256(out) == self.want,
                         "traced encode: DIMACS differs from the CLI run's digest")
        ver, ver_data, stdout = self.traced(self.wl.verify.argv(), "traced verify")
        self.check_verdict(stdout, "traced verify")

        m = dict.fromkeys(SELF_TIME.values(), 0.0) | dict.fromkeys(EXACT, 0)
        for data in (enc_data, ver_data):
            for metric, seconds in self_times(data["spans"]).items():
                m[metric] += seconds
            for name, value in data["counters"].items():
                if name == "builder.peak_level_width":
                    m[name] = max(m[name], value)
                else:
                    m[name] += value
            m["propagate.runs"] += sum(1 for s in data["spans"]
                                       if s[0] == "UnitPropagator.run")
        calls, assignments = m["builder.calls"], m["verify.assignments"]
        m["builder.hit_ratio"] = m["builder.hits"] / calls if calls else 0.0
        m["verify.runs_per_assignment"] = (m["propagate.runs"] / assignments
                                           if assignments else 0.0)
        m["cli.jobs2_speedup"] = e2e["compile_s"] / e2e["compile_s.j2"]
        m["trace.overhead"] = (enc.wall + ver.wall) / (e2e["compile_s"] + e2e["verify_s"])
        return m


def summarize(samples: list[float]) -> tuple[float, float, float]:
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "pbdd" / "cli.py").is_file():
        print(f"perfbench: no pbdd sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        samples: dict[str, list[float]] = {}
        bench.setup_time()  # untimed: fills the bytecode cache
        if args.trace == 0:
            samples["setup_s"] = [bench.setup_time() for _ in range(SETUP_SAMPLES)]
        repeat = bench.layer_repeat if args.trace else bench.e2e_repeat
        deadline = time.perf_counter() + args.seconds
        repeats = 0
        while not bench.tally.failed:
            t0 = time.perf_counter()
            for name, value in repeat().items():
                samples.setdefault(name, []).append(value)
            repeats += 1
            now = time.perf_counter()
            if repeats >= MIN_REPEATS and now + (now - t0) > deadline:
                break
        exact = ["cnf_vars", "cnf_clauses"] if args.trace == 0 else list(EXACT)
        for name in exact:
            bench.tally.check(len(set(samples.get(name, []))) <= 1,
                              f"{name} differs between repetitions: {samples.get(name)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    tally = bench.tally
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()}")
    print(f"workload={args.workload} seed={args.seed} "
          f"instance={workloads.instance(args.seed)} "
          f"trace={args.trace} repeats={repeats}")
    print(f"{'metric':<28} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    metrics = {}
    for spec_metric in wanted:
        name, unit = spec_metric["name"], spec_metric["unit"]
        tally.check(name in samples or tally.failed > 0, f"{name}: not measured")
        values = samples.get(name) or [0]
        med, q1, q3 = summarize(values)
        print(f"{name:<28} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{len(samples.get(name, [])):>3}")
        metrics[name] = {"value": med, "unit": unit}
    print(f"error_rate: {tally.failed}/{tally.attempted} runs failed")
    for message in tally.errors:
        print(f"FAILED: {message}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
