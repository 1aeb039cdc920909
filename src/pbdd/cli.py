"""Command-line front end: encode, stats, verify, gen, equiv.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 parse or
input error or a closed standard output, 4 node budget exceeded.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import stat
import sys
import time
from contextlib import contextmanager
from functools import partial

from .builder import NodeBudgetExceeded, level_widths
from .constraints import PBConstraint, normalize
from .dimacs import dimacs_text
from .encode import ClauseSet, PIPELINES, encode_small, run_pipeline
from .families import bailleux_family, hosaka_family, random_constraint
from .opb import Instance, OpbParseError, parse_opb, write_opb
from .verify import check_encoding, check_equivalent
# bound here because perfbench/traced.py wraps them by their `pbdd.cli` names
from .verify import check_consistency, check_gac  # noqa: F401

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

CHUNKS_PER_JOB = 4
SMALL_NAIVE_LIMIT = 16  # encode_small enumerates all 2^N subsets of a row
VERIFY_MAX_N = 14  # verify checks all 3^n partial assignments of a constraint


def _encode_chunk(chunk: list[PBConstraint], method: str, num_inputs: int,
                  small_naive: int, node_budget: int | None):
    """Encode consecutive constraints against one private allocator; returns (clauses, naux)."""
    out = ClauseSet(num_inputs=num_inputs)
    for c in chunk:
        if small_naive and len(c.terms) <= small_naive:
            encode_small(c, out)
        else:
            run_pipeline(method, c, out, node_budget=node_budget)
    return out.clauses, out.next_var - num_inputs - 1


def _chunks(items: list, count: int) -> list[list]:
    """`items` cut into at most `count` contiguous runs whose lengths differ by at most one."""
    count = min(count, len(items))
    cuts = [len(items) * j // count for j in range(count + 1)] if count else [0]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def _assemble(results, num_inputs: int) -> ClauseSet:
    """Stitch per-chunk clause lists, in order, into one set with disjoint aux ranges.

    Each clause is held once: the set adopts the first chunk's list when
    that chunk needs no shift (the only chunk at `--jobs 1`), and a
    shifted chunk's list is dropped once it is copied, when `results` is
    an iterator.
    """
    out = ClauseSet(num_inputs=num_inputs)
    for clauses, naux in results:
        shift = out.next_var - 1 - num_inputs
        out.next_var += naux
        if not shift:
            if out.clauses:
                out.clauses.extend(clauses)
            else:
                out.clauses = clauses
            continue
        append = out.clauses.append
        for cl in clauses:
            append(tuple(
                l if -num_inputs <= l <= num_inputs else (l + shift if l > 0 else l - shift)
                for l in cl
            ))
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
    # clause list.  Forked workers inherit the pause.
    gc.disable()
    try:
        return _encode_file(args)
    finally:
        gc.enable()


def _encode_file(args) -> int:
    # both outputs are opened before the input is read, so a path that
    # cannot be written fails at once
    with _output(args.out) as out, _output(args.map) as sidecar:
        names, cs = _encode_input(args)
        data = dimacs_text(cs, method=args.method, names=names).encode("utf-8")
        if out is None:
            _write_stdout(data)
        else:
            out.write(data)
        if sidecar is not None:
            sidecar.write("".join(f"{name} {vid}\n"
                                  for vid, name in enumerate(names, 1)).encode("utf-8"))
    return EXIT_OK


@contextmanager
def _output(path: str | None):
    """`path` opened for binary writing, its contents replaced only when the block succeeds.

    The file is opened without truncation.  If the block raises, a file
    created here is removed and an existing one is left byte for byte as
    it was; otherwise it ends where the block's writes end.
    """
    if path is None:
        yield None
        return
    try:
        fh, created = open(path, "xb"), True
    except FileExistsError:
        fh, created = open(os.open(path, os.O_WRONLY), "wb"), False
    with fh:
        try:
            yield fh
        except BaseException:
            if created:
                os.unlink(path)
            raise
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not a device or a pipe
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


def _encode_input(args) -> tuple[list[str], ClauseSet]:
    """The input's variable names and its assembled clauses.

    Only the names outlive this call: the parsed rows and the normalized
    constraints are released before the writer runs.
    """
    inst, constraints = _load_constraints(args.infile)
    num_inputs = len(inst.names)
    encode = partial(_encode_chunk, method=args.method, num_inputs=num_inputs,
                     small_naive=args.small_naive, node_budget=args.node_budget)
    # the pool forks all its workers at the first task, so never more than cores
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1 and len(constraints) >= CHUNKS_PER_JOB * jobs:
        # a few chunks per worker balance the load at a few round trips each;
        # with fewer constraints each chunk is one of them and the largest
        # sets the wall time, so the pool's start-up is not repaid
        from concurrent.futures import ProcessPoolExecutor  # slow to import; only here

        chunks = _chunks(constraints, CHUNKS_PER_JOB * jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cs = _assemble(pool.map(encode, chunks), num_inputs)
    else:
        cs = _assemble([encode(constraints)], num_inputs)
    return inst.names, cs


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
    header = [f"family={args.family}"]
    if args.family == "hosaka":
        c = hosaka_family(args.n)
        header.append(f"n={args.n}")
    elif args.family == "bailleux":
        c = bailleux_family(args.a, args.b, args.n)
        header.append(f"a={args.a} b={args.b} n={args.n}")
    else:
        c = random_constraint(args.seed, args.n, args.max_coeff, args.bound_policy)
        header.append(
            f"seed={args.seed} n={args.n} max_coeff={args.max_coeff} "
            f"bound_policy={args.bound_policy}"
        )
    text = write_opb([c], header=header)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_equiv(args) -> int:
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
        [(t.coef, remap[t.var] * (1 if t.lit > 0 else -1)) for t in c2.terms],
        c2.bound,
    )
    verdict = "equivalent" if check_equivalent(c1, c2) else "different"
    print(verdict)
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
    parser = argparse.ArgumentParser(
        prog="pbdd",
        description="Compile pseudo-Boolean constraints to CNF via interval-labeled BDDs",
    )
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
    p.add_argument("--small-naive", type=_int_range(0, SMALL_NAIVE_LIMIT), default=0,
                   metavar="N",
                   help="encode constraints with <= N variables by direct "
                        "clause enumeration instead of a diagram (0 = never, "
                        f"at most {SMALL_NAIVE_LIMIT}: the work grows as 2^N)")
    p.add_argument("--jobs", type=_int_range(1), default=1,
                   help="encode constraints in parallel worker processes, at most "
                        "one per CPU (in-process below "
                        f"{CHUNKS_PER_JOB} constraints per job)")
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
    if args.command == "gen":
        if args.family == "random" and args.max_coeff < 1:
            parser.error("gen --max-coeff must be >= 1")
        if args.family == "bailleux":
            if args.a is None or args.b is None:
                parser.error("gen --family bailleux needs --a and --b")
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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
