"""Run one `pbdd` command in-process with spans around each layer's public calls.

    python3 perfbench/traced.py SPANS.json pbdd-argument...

Wraps the public names at the module attribute where their callers look
them up, runs `pbdd.cli.main`, and writes every span (name, start, end,
parent index) plus the counters below to SPANS.json at exit.  Counting
happens outside the wrapped call and is recorded as a "trace" span, so it
does not land in any layer's self time.  Private helpers are not wrapped.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

import pbdd.cli
import pbdd.encode
from pbdd.propagate import UnitPropagator

spans: list = []
stack = [-1]
counters: dict[str, int] = {}


def _add(name: str, amount: int) -> None:
    counters[name] = counters.get(name, 0) + amount


def _max(name: str, value: int) -> None:
    counters[name] = max(counters.get(name, 0), value)


def wrap(name, fn, before=None, after=None):
    """`fn` timed as span `name`; `before(args)` / `after(state, result)` count."""

    def traced(*args, **kwargs):
        parent = stack[-1]
        state = None
        if before is not None:
            t = perf_counter_ns()
            state = before(args)
            spans.append(("trace", t, perf_counter_ns(), parent))
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent)
        if after is not None:
            after(state, result)
            spans.append(("trace", end, perf_counter_ns(), parent))
        return result

    return traced


def _built(_, r):
    _add("builder.builds", 1)
    _add("builder.calls", r.stats.calls)
    _add("builder.hits", r.stats.hits)
    _add("builder.created", r.stats.created)
    _max("builder.peak_level_width", max((len(ls) for ls in r.level_stores), default=0))


def _emit_before(args):
    out = args[3]
    return out, out.raw_count, len(out.clauses), out.next_var


def _emitted(state, _):
    out, raw0, clauses0, var0 = state
    new = out.clauses[clauses0:]
    _add("encode.raw_clauses", out.raw_count - raw0)
    _add("encode.final_clauses", len(new))
    _add("encode.live_aux", len({abs(l) for cl in new for l in cl if abs(l) >= var0}))


def _assignments(args):
    _add("verify.assignments", 3 ** len(args[0].terms))


def install() -> None:
    cli, enc = pbdd.cli, pbdd.encode
    cli.parse_opb = wrap("parse_opb", cli.parse_opb,
                         after=lambda _, inst: _add("opb.rows", len(inst.constraints)))
    cli.normalize = wrap("normalize", cli.normalize,
                         after=lambda _, cs: _add("constraints.normalized", len(cs)))
    cli.run_pipeline = wrap("run_pipeline", cli.run_pipeline)
    cli.dimacs_text = wrap("dimacs_text", cli.dimacs_text,
                           after=lambda _, text: _add("dimacs.bytes", len(text.encode())))
    cli.check_consistency = wrap("check_consistency", cli.check_consistency,
                                 before=_assignments)
    cli.check_gac = wrap("check_gac", cli.check_gac, before=_assignments)
    enc.build = wrap("build", enc.build, after=_built)
    enc.decompose = wrap("decompose", enc.decompose,
                         after=lambda _, d: _add("encode.bit_levels", len(d.decomposed.terms)))
    enc.encode_monotone = wrap("encode_monotone", enc.encode_monotone,
                               _emit_before, _emitted)
    enc.encode_ite6 = wrap("encode_ite6", enc.encode_ite6, _emit_before, _emitted)
    UnitPropagator.run = wrap("UnitPropagator.run", UnitPropagator.run)


def main(argv: list[str]) -> int:
    out_path, pbdd_argv = argv[0], argv[1:]
    install()
    idx = len(spans)
    spans.append(None)
    stack.append(idx)
    start = perf_counter_ns()
    code = pbdd.cli.main(pbdd_argv)
    end = perf_counter_ns()
    stack.pop()
    spans[idx] = ("cli.main", start, end, -1)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": spans, "counters": counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
