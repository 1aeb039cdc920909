"""Command-line front end: encode, stats, verify, gen, equiv.

Exit codes: 0 success, 1 verification failure or a failed encode worker,
2 usage error, 3 parse or input error or a closed standard output, 4 node
budget exceeded.

`verify` and `families` are imported by the commands that use them, so
that `encode` does not load them.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import stat
import sys
import time
from bisect import bisect
from contextlib import contextmanager
from itertools import accumulate

from .builder import NodeBudgetExceeded, level_widths
from .constraints import PBConstraint, normalize
from .dimacs import clause_blocks, dimacs_header
from .encode import ClauseSet, PIPELINES, encode_small, run_pipeline
from .opb import Instance, OpbParseError, parse_opb, write_opb
# bound here because perfbench/traced.py wraps them by their `pbdd.cli` names;
# `check_consistency` and `check_gac` resolve in `__getattr__` below
from .dimacs import dimacs_text  # noqa: F401

EXIT_OK = 0
EXIT_VIOLATION = 1  # 2, a usage error, is argparse's exit code
EXIT_WORKER = 1  # what the worker's error would give uncaught in-process
EXIT_QUIET = 2  # a worker's status only: it ended without printing why
EXIT_PARSE = 3
EXIT_BUDGET = 4

# `--jobs` forks only where every process gets a fair share of the work
# `_work_estimate` predicts: no range more than BALANCE times the even share,
# and a share of at least MIN_WORK_PER_JOB.  That floor is the break-even of
# --jobs 2 against --jobs 1 (2 cores, Python 3.11, 30 alternating pairs of
# whole `pbdd encode` runs, the worker's share of the work given): 6-term
# bdd1 rows were slower forked at 596 (17 of 30 pairs) and not at 742 (14 of
# 30); random n=8 bdd3 rows were slower at 464 (18 of 30) and faster at 664
# (12 of 30, -4.4 ms); 6-term bdd2 rows were even at 447 and 659 (15 and 14
# of 30) and faster at 970 (5 of 30).  Forking for a file of two or twenty
# rows cost 6-8 ms there.  An ite6 term and a --small-naive subset are
# scaled to that floor by the same runs: 6-term ite6 rows were slower at a
# share of 60 terms (22 of 30) and faster at 120 (10 of 30), so a term
# weighs 5; 8-, 10- and 12-term --small-naive rows were slower or even at
# 3072 subsets (20 and 13 of 30) and faster at 4096 (12, 11 and 9 of 30),
# so six subsets weigh 1.
BALANCE = 1.25
MIN_WORK_PER_JOB = 640
SMALL_NAIVE_LIMIT = 16  # encode_small enumerates all 2^N subsets of a row
VERIFY_MAX_N = 14  # verify: about 2^n steps per clean constraint, 3^n to locate a violation


def _encode_range(constraints, args, num_inputs: int) -> ClauseSet:
    """Encode consecutive constraints against one private allocator."""
    out = ClauseSet(num_inputs=num_inputs)
    for c in constraints:
        if args.small_naive and len(c.terms) <= args.small_naive:
            encode_small(c, out)
        else:
            run_pipeline(args.method, c, out, node_budget=args.node_budget)
    return out


def _read_text(path: str) -> str:
    """The UTF-8 text of `path`; OpbParseError at the first byte that does not decode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise OpbParseError(
            f"input is not UTF-8: byte 0x{data[exc.start]:02x} at byte offset "
            f"{exc.start} ({exc.reason})",
            data.count(b"\n", 0, exc.start) + 1,
            len(data[line_start:exc.start].decode("utf-8")) + 1,
        ) from None


def _load_constraints(path: str) -> tuple[Instance, list[PBConstraint]]:
    inst = parse_opb(_read_text(path))
    normalized: list[PBConstraint] = []
    for raw in inst.constraints:
        normalized.extend(normalize(raw))
    return inst, normalized


def cmd_encode(args) -> int:
    # The encode allocates only acyclic tuples and lists, which reference
    # counting frees; the cyclic collector would only rescan the growing
    # clause list.  Forked workers inherit the pause.  Both outputs are
    # opened before the input is read, so a path that cannot be written
    # fails at once.
    gc.disable()
    try:
        with _output(args.out) as out, _output(args.map) as sidecar:
            names = _encode_input(args, _write_stdout if out is None else out.write)
            if sidecar is not None:
                sidecar.write("".join(f"{name} {vid}\n"
                                      for vid, name in enumerate(names, 1)).encode("utf-8"))
    finally:
        gc.enable()
    return EXIT_OK


@contextmanager
def _output(path: str | None):
    """`path` opened for binary writing, its contents replaced only when the block succeeds.

    The file is opened without truncation.  If the block raises, a file
    created here is removed, and an existing one is left byte for byte as
    it was if the block wrote nothing, else emptied, so that no old bytes
    follow a partial output; otherwise it ends where the block's writes end.
    """
    if path is None:
        yield None
        return
    try:
        fh, created = open(path, "xb"), True
    except FileExistsError:
        fh, created = open(os.open(path, os.O_WRONLY), "wb"), False
    with fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # not a device or a pipe
        try:
            yield fh
        except BaseException:
            if created:
                os.unlink(path)
            elif regular and fh.tell():
                fh.truncate(0)
            raise
        if regular:
            fh.truncate()


def _write_stdout(data: bytes) -> None:
    """`data` to standard output as bytes, every one of them or an error.

    Unbuffered stdout (PYTHONUNBUFFERED) is a raw file whose write may
    return short when the reader goes away; the rest is written again, so
    the closed pipe raises instead of the tail being lost.
    """
    sys.stdout.flush()
    raw = sys.stdout.buffer
    view = memoryview(data)
    while view:
        view = view[raw.write(view):]


def _work_estimate(c: PBConstraint, method: str, small_naive: int) -> int:
    """What encoding `c` costs, in O(terms), in units of about one bdd1 level.

    `bdd1` builds one diagram of a level per term, `bdd2` one of a level
    per set coefficient bit, and `bdd3` one such per literal.  `ite6`
    builds bdd1's diagram but costs about 5 units a term, and a row that
    `--small-naive` takes enumerates its 2^N literal subsets, about 6 to a
    unit; MIN_WORK_PER_JOB's comment gives the measurements.
    """
    if small_naive and len(c.terms) <= small_naive:
        return (1 << len(c.terms)) // 6
    if method == "bdd1":
        return len(c.terms)
    if method == "ite6":
        return 5 * len(c.terms)
    levels = sum(t.coef.bit_count() for t in c.terms)
    return levels if method == "bdd2" else len(c.terms) * levels


def _cuts(work: list[int], jobs: int) -> list[int]:
    """The bounds [0, ..., len(work)] of the contiguous ranges that the processes encode.

    For J' from `jobs` down to 2, the cut into J' ranges of about equal
    `work` is taken if every range is nonempty and within BALANCE of the
    even share W/J', and that share is at least MIN_WORK_PER_JOB;
    otherwise everything is one range.  One row holding most of the work
    thus keeps the encode in-process, where a fork would not be repaid.
    """
    sums = [0, *accumulate(work)]
    total = sums[-1]
    for j in range(jobs, 1, -1):
        if total < MIN_WORK_PER_JOB * j:
            continue
        cuts = [0]
        for k in range(1, j):
            point = total * k / j
            i = bisect(sums, point)  # the nearer of sums[i - 1] <= point < sums[i]
            cuts.append(i if i < len(sums) and sums[i] - point < point - sums[i - 1] else i - 1)
        cuts.append(len(work))
        spans = [sums[b] - sums[a] for a, b in zip(cuts, cuts[1:])]
        if min(spans) > 0 and max(spans) * j <= BALANCE * total:
            return cuts
    return [0, len(work)]


def _encode_input(args, write) -> list[str]:
    """Encode the input, pass its DIMACS bytes to `write` and return its variable names.

    The encode runs in as many processes as `_cuts` gives ranges, at most
    `--jobs` capped at the CPU count, and in one without `os.fork`.  This
    process encodes the first range, whose aux shift is 0 and whose budget
    error comes first in file order.  The forked workers inherit the list
    (nothing is pickled) and encode the others; each reports its aux and
    clause counts, reads its aux shift (the aux count of the ranges before
    its own) and formats its clauses as DIMACS bytes with the shift applied
    while this process writes the header and its own clauses a block at a
    time.  Every worker is reaped before this returns, and one that did
    not exit cleanly raises WorkerFailed.
    """
    inst, constraints = _load_constraints(args.infile)
    names, num_inputs = inst.names, len(inst.names)
    del inst
    jobs = min(args.jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    cuts = _cuts([_work_estimate(c, args.method, args.small_naive) for c in constraints], jobs)
    sys.stdout.flush()  # a worker must not write what this process buffered
    sys.stderr.flush()
    workers = []  # (pid, fd of its counts and bytes, fd of its shift)
    live = set()  # the pids not reaped yet
    try:
        for k in range(1, len(cuts) - 1):
            down, shifts = os.pipe()
            report, up = os.pipe()
            pid = os.fork()
            if pid == 0:
                for fd in (shifts, report, *(fd for _, *fds in workers for fd in fds)):
                    os.close(fd)
                _work(constraints[cuts[k]:cuts[k + 1]], args, num_inputs, up, down)
            live.add(pid)
            os.close(down)
            os.close(up)
            workers.append((pid, report, shifts))
        cs = _encode_range(constraints[:cuts[1]], args, num_inputs)
        del constraints
        aux, total = cs.max_var - num_inputs, len(cs.clauses)
        for pid, report, shifts in workers:
            counts = os.read(report, 4096)  # one short write, so read whole
            if counts.startswith(b"budget "):
                raise NodeBudgetExceeded(counts[7:].decode("utf-8"))
            if not counts:
                _reap(pid, live)
                raise WorkerFailed("exited without its result")
            os.write(shifts, b"%d" % aux)  # the worker waits for it once it reports
            naux, clauses = map(int, counts.split())
            aux += naux
            total += clauses
        write(dimacs_header(num_inputs, num_inputs + aux, total, args.method,
                            names).encode("utf-8"))
        for block in clause_blocks(cs):
            write(block.encode("utf-8"))
        del cs
        for pid, report, _ in workers:
            while data := os.read(report, 1 << 20):
                write(data)
            _reap(pid, live)  # its bytes are whole only if it exited cleanly
    finally:
        if live:
            import signal  # not loaded at start-up, so a run without workers never pays for it
        for pid in live:
            os.kill(pid, signal.SIGKILL)  # a worker still encoding has nothing left to give
            os.waitpid(pid, 0)
        for _, report, shifts in workers:
            os.close(report)
            os.close(shifts)
    return names


class WorkerFailed(Exception):
    """An encode worker did not exit cleanly; the message is empty if it said why itself."""


def _reap(pid: int, live: set[int]) -> None:
    """Wait for worker `pid`, which has closed its pipe; WorkerFailed unless it exited 0."""
    live.discard(pid)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise WorkerFailed(f"killed by signal {-code}")
    if code:
        raise WorkerFailed("" if code == EXIT_WORKER else f"exit {code}")


def _work(constraints, args, num_inputs: int, up: int, down: int):
    """Encode, report and format one range in a forked worker, ending in `os._exit`.

    It never returns, so no handler of the parent's stack (`_output`'s) runs
    in it.  It exits 0 once its bytes are written, or after reporting a
    budget failure; on any other error it prints one line and exits 1.
    Ended by an interrupt or SystemExit, it exits 2 without a line, and the
    parent prints one.
    """
    code = EXIT_QUIET  # an interrupt or exit ends the worker without a line
    try:
        try:
            cs = _encode_range(constraints, args, num_inputs)
        except NodeBudgetExceeded as exc:
            os.write(up, b"budget " + str(exc).encode("utf-8"))
        else:
            os.write(up, b"%d %d" % (cs.max_var - num_inputs, len(cs.clauses)))
            shift = os.read(down, 64)  # one short write, or none if the parent gave up
            if shift:
                with open(up, "wb", closefd=False) as report:
                    report.write("".join(clause_blocks(cs, int(shift))).encode("utf-8"))
        code = 0
    except Exception as exc:
        import traceback

        print("encode worker failed: " + traceback.format_exception_only(exc)[-1].strip(),
              file=sys.stderr)
        sys.stderr.flush()
        code = EXIT_WORKER
    finally:
        os._exit(code)


STATS_COLUMNS = (("aux", 6), ("bin", 6), ("tern", 6), ("other", 6), ("clauses", 8),
                 ("nodes", 7), ("nodes+t", 7))


def _stats_cells(counts, ms: float) -> str:
    return " ".join(f"{n:>{w}}" for n, (_, w) in zip(counts, STATS_COLUMNS)) + f" {ms:>8.2f}"


def cmd_stats(args) -> int:
    """A table row per constraint and a sum line, then a tab-separated `row` line each.

    Decision nodes are the builds' level widths summed.  Every build
    `run_pipeline` returns is of a constraint neither trivially true nor
    false, a function that is not constant, so its reduced diagram reaches
    both terminals: `nodes+t` adds two per build.
    """
    inst, constraints = _load_constraints(args.infile)
    head = " ".join(f"{name:>{w}}" for name, w in (("#", 3), ("inputs", 6), *STATS_COLUMNS))
    table = [f"method: {args.method}", f"{head} {'ms':>8}  constraint"]
    rows = []
    sums, ms_sum = [0] * len(STATS_COLUMNS), 0.0
    for idx, c in enumerate(constraints, 1):
        out = ClauseSet(num_inputs=len(inst.names))
        start = time.perf_counter()
        _, builds = run_pipeline(args.method, c, out, node_budget=args.node_budget)
        ms = (time.perf_counter() - start) * 1000.0
        widths = [level_widths(r) for r in builds]
        nodes = sum(map(sum, widths))
        lengths = [len(cl) for cl in out.clauses]
        binary, ternary = lengths.count(2), lengths.count(3)
        counts = (len(out.live_aux_vars()), binary, ternary,
                  len(lengths) - binary - ternary, len(lengths), nodes, nodes + 2 * len(builds))
        sums = [a + b for a, b in zip(sums, counts)]
        ms_sum += ms
        table.append(f"{idx:>3} {len(c.terms):>6} {_stats_cells(counts, ms)}  {c}")
        rows.append("\t".join(map(str, (
            "row", args.method, idx, len(c.terms), *counts, f"{ms:.3f}",
            "|".join(",".join(map(str, ws)) for ws in widths) or "-"))))
    table.append(f"{'sum':>3} {'':>6} {_stats_cells(sums, ms_sum)}")
    print("\n".join(table))
    print("\n".join(rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .families import random_constraint
    from .verify import check_encoding
    # bdd2 and ite6 do not promise arc-consistency, only conflict detection
    check_arc = args.method in ("bdd1", "bdd3")
    failures = 0
    for seed in range(args.seeds):
        n = seed % args.max_n + 1
        c = random_constraint(seed, n, args.max_coeff, "uniform")
        out, _ = run_pipeline(args.method, c)
        verdicts = check_encoding(c, out, limit=args.max_n, gac=check_arc)
        for prop, bad in zip(("consistency", "arc-consistency"), verdicts):
            if bad is not None:
                print(f"{prop} violation (seed {seed}, {c}): {bad}")
                failures += 1
    props = "consistency+GAC" if check_arc else "consistency"
    print(f"checked {args.seeds} random constraints ({props}, method {args.method}): "
          f"{failures} violation(s)")
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_gen(args) -> int:
    from .families import bailleux_family, hosaka_family, random_constraint
    header = [f"family={args.family}"]
    if args.family == "hosaka":
        c = hosaka_family(args.n)
        header.append(f"n={args.n}")
    elif args.family == "bailleux":
        c = bailleux_family(args.a, args.b, args.n)
        header.append(f"a={args.a} b={args.b} n={args.n}")
    else:
        c = random_constraint(args.seed, args.n, args.max_coeff, args.bound_policy)
        header.append(f"seed={args.seed} n={args.n} max_coeff={args.max_coeff} "
                      f"bound_policy={args.bound_policy}")
    data = write_opb([c], header=header).encode("utf-8")
    with _output(args.out) as out:
        (_write_stdout if out is None else out.write)(data)
    return EXIT_OK


def cmd_equiv(args) -> int:
    from .verify import check_equivalent
    sides = []
    for path in (args.first, args.second):
        inst, constraints = _load_constraints(path)
        if len(constraints) != 1:
            print(f"{path}: need exactly one <=/>=/</> constraint, "
                  f"got {len(constraints)}", file=sys.stderr)
            return EXIT_PARSE
        sides.append((inst, constraints[0]))
    (inst1, c1), (inst2, c2) = sides
    names1 = [inst1.names[v - 1] for v in c1.variables()]
    names2 = [inst2.names[v - 1] for v in c2.variables()]
    if names1 != names2:
        print(f"variable mismatch: {names1} vs {names2}", file=sys.stderr)
        return EXIT_PARSE
    # align the second constraint's ids with the first by name
    remap = {inst2.name_to_id[nm]: inst1.name_to_id[nm] for nm in names2}
    c2 = PBConstraint.from_pairs(
        [(t.coef, remap[t.var] * (1 if t.lit > 0 else -1)) for t in c2.terms], c2.bound)
    print("equivalent" if check_equivalent(c1, c2) else "different")
    return EXIT_OK


def _int_range(low: int, high: int | None = None):
    """An argparse `type`: an int from `low` up to `high` (no upper end when None)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}" if high is None else f"must be between {low} and {high}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _bound_policy(text: str) -> str | float:
    """An argparse `type`: "uniform", "full" or a finite fraction."""
    if text in ("uniform", "full"):
        return text
    try:
        fraction = float(text)
    except ValueError:
        fraction = math.nan
    if not math.isfinite(fraction):
        raise argparse.ArgumentTypeError(
            f"bad bound policy {text!r}: need uniform, full or a finite fraction")
    return fraction


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbdd", description="Compile pseudo-Boolean "
                                     "constraints to CNF via interval-labeled BDDs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--node-budget", type=_int_range(0), default=None,
                       help="abort when a constraint's diagrams need more than "
                            "this many nodes")

    p = sub.add_parser("encode", help="encode an OPB file to DIMACS CNF")
    p.add_argument("--method", choices=PIPELINES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None, help="output CNF path (default stdout)")
    p.add_argument("--map", default=None, help="write a name<->variable sidecar")
    p.add_argument("--small-naive", type=_int_range(0, SMALL_NAIVE_LIMIT), default=0, metavar="N",
                   help="encode constraints with <= N variables by direct "
                        "clause enumeration instead of a diagram (0 = never, "
                        f"at most {SMALL_NAIVE_LIMIT}: the work grows as 2^N)")
    p.add_argument("--jobs", type=_int_range(1), default=1, metavar="J",
                   help="encode constraints in up to J forked processes, at most one per "
                        "CPU, where the estimated work splits evenly into ranges of at least "
                        f"{MIN_WORK_PER_JOB} units (else in-process, as where the platform "
                        "has no fork)")
    add_budget(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("stats", help="print an encoding report for an OPB file")
    p.add_argument("--method", choices=PIPELINES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    add_budget(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="property-check a pipeline on random constraints")
    p.add_argument("--method", choices=PIPELINES, required=True)
    p.add_argument("--max-n", type=_int_range(1, VERIFY_MAX_N), default=6)
    p.add_argument("--seeds", type=_int_range(1), default=20)
    p.add_argument("--max-coeff", type=_int_range(1), default=100)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a constraint family as OPB")
    p.add_argument("--family", choices=("hosaka", "bailleux", "random"), required=True)
    p.add_argument("--n", type=_int_range(1), required=True)
    p.add_argument("--a", type=int, default=None, help="bailleux base weight")
    p.add_argument("--b", type=int, default=None, help="bailleux growth base")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-coeff", type=int, default=100)
    p.add_argument("--bound-policy", type=_bound_policy, default="uniform")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("equiv", help="compare two single-constraint OPB files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equiv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "encode" and args.out is not None and args.map is not None and (
            os.path.realpath(args.out) == os.path.realpath(args.map)
            or os.path.exists(args.out) and os.path.exists(args.map)
            and os.path.samefile(args.out, args.map)):
        parser.error("encode --out and --map name the same file")
    if args.command == "gen":
        if args.family == "random" and args.max_coeff < 1:
            parser.error("gen --max-coeff must be >= 1")
        if args.family == "bailleux":
            if args.a is None or args.b is None:
                parser.error("gen --family bailleux needs --a and --b")
            from .families import bailleux_family
            try:
                bailleux_family(args.a, args.b, args.n)
            except ValueError as exc:
                parser.error(f"gen --family bailleux: {exc}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here rather than at exit
        return code
    except BrokenPipeError as exc:
        # the reader closed stdout (`| head`); what is still buffered goes
        # to devnull at exit, so the last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write to standard output: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except OpbParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        if exc.filename is None:  # not a file that failed to open
            raise
        print(f"cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except NodeBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WorkerFailed as exc:
        if str(exc):  # else the worker has said why
            print(f"encode worker failed: {exc}", file=sys.stderr)
        return EXIT_WORKER


def __getattr__(name: str):
    if name in ("check_consistency", "check_gac"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
