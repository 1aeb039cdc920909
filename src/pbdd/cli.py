"""Command-line front end: encode, stats, verify, gen, equiv.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 parse or
input error, 4 node budget exceeded.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from dataclasses import dataclass, field
from functools import partial

from .builder import NodeBudgetExceeded, level_widths
from .robdd import reachable_nodes
from .constraints import PBConstraint, normalize
from .dimacs import dimacs_text
from .encode import ClauseSet, PIPELINES, encode_small, run_pipeline
from .families import bailleux_family, hosaka_family, random_constraint
from .opb import Instance, OpbParseError, parse_opb, write_opb
from .verify import DEFAULT_EXTEND_LIMIT, check_consistency, check_equivalent, check_gac

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4

CHUNKS_PER_JOB = 4


@dataclass
class ReportRow:
    index: int
    constraint: str
    inputs: int
    aux: int
    binary: int
    ternary: int
    other: int
    clauses: int
    nodes: int        # decision nodes only
    nodes_total: int  # including reachable terminals
    build_ms: float
    widths: list[list[int]] = field(default_factory=list)

    def widths_str(self) -> str:
        return "|".join(",".join(str(w) for w in ws) for ws in self.widths) or "-"


@dataclass
class EncodingReport:
    """Per-constraint and total encoding statistics."""

    method: str
    rows: list[ReportRow] = field(default_factory=list)

    def totals(self):
        rows = self.rows
        return (
            sum(r.aux for r in rows),
            sum(r.binary for r in rows),
            sum(r.ternary for r in rows),
            sum(r.other for r in rows),
            sum(r.clauses for r in rows),
            sum(r.nodes for r in rows),
            sum(r.nodes_total for r in rows),
            sum(r.build_ms for r in rows),
        )

    def table(self) -> str:
        head = f"{'#':>3} {'inputs':>6} {'aux':>6} {'bin':>6} {'tern':>6} " \
               f"{'other':>6} {'clauses':>8} {'nodes':>7} {'nodes+t':>7} " \
               f"{'ms':>8}  constraint"
        lines = [f"method: {self.method}", head]
        for r in self.rows:
            lines.append(
                f"{r.index:>3} {r.inputs:>6} {r.aux:>6} {r.binary:>6} {r.ternary:>6} "
                f"{r.other:>6} {r.clauses:>8} {r.nodes:>7} {r.nodes_total:>7} "
                f"{r.build_ms:>8.2f}  {r.constraint}"
            )
        aux, binary, ternary, other, clauses, nodes, nodes_total, ms = self.totals()
        lines.append(
            f"{'sum':>3} {'':>6} {aux:>6} {binary:>6} {ternary:>6} "
            f"{other:>6} {clauses:>8} {nodes:>7} {nodes_total:>7} {ms:>8.2f}"
        )
        return "\n".join(lines)

    def machine_rows(self) -> str:
        lines = []
        for r in self.rows:
            lines.append(
                "row\t" + "\t".join(
                    str(x) for x in (
                        self.method, r.index, r.inputs, r.aux, r.binary, r.ternary,
                        r.other, r.clauses, r.nodes, r.nodes_total,
                        f"{r.build_ms:.3f}", r.widths_str(),
                    )
                )
            )
        return "\n".join(lines)


def _node_counts(builds) -> tuple[int, int]:
    """Decision-node count and the count including reachable terminals."""
    decision = 0
    total = 0
    for r in builds:
        nodes = reachable_nodes(r.store, r.root)
        decision += len(nodes)
        terminals = {r.root} if r.root < 2 else set()
        for nid in nodes:
            _, lo, hi = r.store.node(nid)
            terminals.update(ch for ch in (lo, hi) if ch < 2)
        total += len(nodes) + len(terminals)
    return decision, total


def _clause_histogram(clauses) -> tuple[int, int, int]:
    binary = ternary = other = 0
    for cl in clauses:
        if len(cl) == 2:
            binary += 1
        elif len(cl) == 3:
            ternary += 1
        else:
            other += 1
    return binary, ternary, other


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
    names, cs = _encode_input(args)
    text = dimacs_text(cs, method=args.method, names=names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.map:
        with open(args.map, "w", encoding="utf-8") as fh:
            for vid, name in enumerate(names, 1):
                fh.write(f"{name} {vid}\n")
    return EXIT_OK


def _encode_input(args) -> tuple[list[str], ClauseSet]:
    """The input's variable names and its assembled clauses.

    Only the names outlive this call: the parsed rows and the normalized
    constraints are released before the writer runs.
    """
    inst, constraints = _load_constraints(args.infile)
    num_inputs = len(inst.names)
    encode = partial(_encode_chunk, method=args.method, num_inputs=num_inputs,
                     small_naive=args.small_naive, node_budget=args.node_budget)
    if args.jobs > 1 and len(constraints) >= CHUNKS_PER_JOB * args.jobs:
        # a few chunks per worker balance the load at a few round trips each;
        # with fewer constraints each chunk is one of them and the largest
        # sets the wall time, so the pool's start-up is not repaid
        from concurrent.futures import ProcessPoolExecutor  # slow to import; only here

        chunks = _chunks(constraints, CHUNKS_PER_JOB * args.jobs)
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            cs = _assemble(pool.map(encode, chunks), num_inputs)
    else:
        cs = _assemble([encode(constraints)], num_inputs)
    return inst.names, cs


def cmd_stats(args) -> int:
    inst, constraints = _load_constraints(args.infile)
    report = EncodingReport(method=args.method)
    for idx, c in enumerate(constraints, 1):
        out = ClauseSet(num_inputs=len(inst.names))
        start = time.perf_counter()
        _, builds = run_pipeline(args.method, c, out, node_budget=args.node_budget)
        elapsed = (time.perf_counter() - start) * 1000.0
        binary, ternary, other = _clause_histogram(out.clauses)
        nodes, nodes_total = _node_counts(builds)
        report.rows.append(ReportRow(
            index=idx,
            constraint=str(c),
            inputs=len(c.terms),
            aux=len(out.live_aux_vars()),
            binary=binary,
            ternary=ternary,
            other=other,
            clauses=len(out.clauses),
            nodes=nodes,
            nodes_total=nodes_total,
            build_ms=elapsed,
            widths=[level_widths(r) for r in builds],
        ))
    print(report.table())
    print(report.machine_rows())
    return EXIT_OK


def cmd_verify(args) -> int:
    # bdd2 and ite6 do not promise arc-consistency, only conflict detection
    check_arc = args.method in ("bdd1", "bdd3")
    failures = 0
    checked = 0
    for seed in range(args.seeds):
        n = seed % args.max_n + 1
        c = random_constraint(seed, n, args.max_coeff, "uniform")
        out, _ = run_pipeline(args.method, c)
        checked += 1
        bad = check_consistency(c, out, limit=args.max_n)
        if bad is not None:
            print(f"consistency violation (seed {seed}, {c}): {bad}")
            failures += 1
        if check_arc:
            bad = check_gac(c, out, limit=args.max_n)
            if bad is not None:
                print(f"arc-consistency violation (seed {seed}, {c}): {bad}")
                failures += 1
    props = "consistency+GAC" if check_arc else "consistency"
    print(f"checked {checked} random constraints ({props}, method {args.method}): "
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbdd",
        description="Compile pseudo-Boolean constraints to CNF via interval-labeled BDDs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--node-budget", type=int, default=None,
                       help="abort when a constraint's diagrams need more than "
                            "this many nodes")

    p = sub.add_parser("encode", help="encode an OPB file to DIMACS CNF")
    p.add_argument("--method", choices=PIPELINES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None, help="output CNF path (default stdout)")
    p.add_argument("--map", default=None, help="write a name<->variable sidecar")
    p.add_argument("--small-naive", type=int, default=0, metavar="N",
                   help="encode constraints with <= N variables by direct "
                        "clause enumeration instead of a diagram (0 = never)")
    p.add_argument("--jobs", type=int, default=1,
                   help="encode constraints in parallel worker processes "
                        f"(in-process below {CHUNKS_PER_JOB} constraints per job)")
    add_budget(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("stats", help="print an encoding report for an OPB file")
    p.add_argument("--method", choices=PIPELINES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    add_budget(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="property-check a pipeline on random constraints")
    p.add_argument("--method", choices=PIPELINES, required=True)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--max-coeff", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a constraint family as OPB")
    p.add_argument("--family", choices=("hosaka", "bailleux", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=None, help="bailleux base weight")
    p.add_argument("--b", type=int, default=None, help="bailleux growth base")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-coeff", type=int, default=100)
    p.add_argument("--bound-policy", default="uniform")
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
    if args.command == "verify":
        # 3^n partial assignments per check: the same limit as `extendable`
        if not 1 <= args.max_n <= DEFAULT_EXTEND_LIMIT:
            parser.error(f"verify --max-n must be between 1 and {DEFAULT_EXTEND_LIMIT}")
        if args.max_coeff < 1:
            parser.error("verify --max-coeff must be >= 1")
        if args.seeds < 1:
            parser.error("verify --seeds must be >= 1")
    if args.command == "encode" and args.jobs < 1:
        parser.error("encode --jobs must be >= 1")
    if getattr(args, "node_budget", None) is not None and args.node_budget < 0:
        parser.error(f"{args.command} --node-budget must be >= 0")
    if args.command == "gen":
        if args.n < 1:
            parser.error("gen --n must be >= 1")
        if args.family == "random" and args.max_coeff < 1:
            parser.error("gen --max-coeff must be >= 1")
        if args.family == "bailleux":
            if args.a is None or args.b is None:
                parser.error("gen --family bailleux needs --a and --b")
            try:
                bailleux_family(args.a, args.b, args.n)
            except ValueError as exc:
                parser.error(f"gen --family bailleux: {exc}")
    if getattr(args, "bound_policy", None) is not None:
        try:
            args.bound_policy = float(args.bound_policy) \
                if args.bound_policy not in ("uniform", "full") else args.bound_policy
        except ValueError:
            parser.error(f"bad bound policy {args.bound_policy!r}")
    try:
        return args.func(args)
    except OpbParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        if exc.filename is None:  # not a file that failed to open, e.g. a broken pipe
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
