"""One node store per constraint: bdd3's per-literal builds share level stores."""

import importlib.util
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from pbdd import (
    ClauseSet,
    NodeStore,
    PBConstraint,
    build,
    check_equivalent,
    decompose,
    eval_bdd,
    evaluate,
    hosaka_family,
    level_widths,
    normalize,
    parse_opb,
    reachable_nodes,
    run_pipeline,
    verify_intervals,
)
from pbdd.builder import NodeBudgetExceeded
from pbdd.cli import main

from oracles import (
    reference_bdd3,
    reference_build,
    reference_post_order,
    reference_reachable_nodes,
)
from test_builder import differential_corpus

ROOT = Path(__file__).resolve().parent.parent


def bench_constraints(name: str, tmp_path: Path) -> tuple[int, list[PBConstraint]]:
    """Input count and normalized rows of a benchmark workload's seed-5 input."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    path = workloads.write(workloads.base(name), 5, tmp_path)
    inst = parse_opb(path.read_text(encoding="utf-8"))
    return len(inst.names), [c for raw in inst.constraints for c in normalize(raw)]


def assert_bdd3_matches_fresh_stores(constraints, num_inputs, label):
    shared, fresh = ClauseSet(num_inputs=num_inputs), ClauseSet(num_inputs=num_inputs)
    for c in constraints:
        start = len(shared.clauses)
        run_pipeline("bdd3", c, shared)
        reference_bdd3(c, fresh)
        assert shared.clauses[start:] == fresh.clauses[start:], (label, str(c))
    assert (shared.raw_count, shared.next_var) == (fresh.raw_count, fresh.next_var), label


def test_shared_bdd3_matches_fresh_store_per_literal():
    for c in differential_corpus() + [hosaka_family(2)]:
        assert_bdd3_matches_fresh_stores([c], max(c.variables(), default=0), str(c))
        _, builds = run_pipeline("bdd3", c)
        assert len({id(r.store) for r in builds}) <= 1, str(c)
        for r in builds:
            assert r.store.depth == len(decompose(c).decomposed.terms), str(c)
            alone = build(r.constraint)
            assert level_widths(r) == level_widths(alone), str(c)
            assert r.node_count == alone.node_count, str(c)


@pytest.mark.parametrize("name", ["deep-bdd1", "many-small-bdd1", "bdd3-random"])
def test_shared_bdd3_matches_fresh_stores_on_bench_inputs(name, tmp_path):
    num_inputs, constraints = bench_constraints(name, tmp_path)
    assert_bdd3_matches_fresh_stores(constraints, num_inputs, name)


def test_shared_bdd3_creates_fewer_nodes():
    c = hosaka_family(2)
    _, builds = run_pipeline("bdd3", c)
    shared = sum(r.stats.created for r in builds)
    fresh = sum(build(r.constraint).stats.created for r in builds)
    assert len(builds) == 16 and shared < fresh


def test_post_order_is_id_order_on_fresh_builds():
    for c in differential_corpus():
        for target in (c, decompose(c).decomposed):
            for r in (reference_build(target), build(target)):
                ids = reference_reachable_nodes(r.store, r.root)
                assert reference_post_order(r.store, r.root) == ids, str(target)
                assert reachable_nodes(r.store, r.root) == ids, str(target)


def test_bottom_aligned_builds_share_nodes_across_lengths():
    # a build of n levels sits on levels depth-n+1..depth: the shorter
    # constraint's diagram is a sub-diagram of the longer one's
    long = PBConstraint.from_pairs([(4, 1), (2, 2), (3, 3), (5, 4)], 7)
    short = PBConstraint.from_pairs([(2, 2), (3, 3), (5, 4)], 3)
    store = NodeStore(depth=6)
    r_long = build(long, store=store)
    r_short = build(short, store=store)
    assert (r_long.offset, r_short.offset) == (2, 3)
    assert r_short.stats.created == 0
    assert store.node(r_long.root)[2] == r_short.root  # x1 true leaves 3 for x2..x4
    assert r_long.level_stores[1:] == r_short.level_stores
    assert [ls.level for ls in r_long.level_stores] == [3, 4, 5, 6, 7]
    assert level_widths(r_short) == level_widths(build(short))


def test_equivalence_holds_for_scaled_coefficients():
    pairs = [(2, 1), (3, -2), (5, 3), (4, 4)]
    c = PBConstraint.from_pairs(pairs, 7)
    for scale, slack in ((3, 2), (10, 9), (1000, 1)):
        scaled = PBConstraint.from_pairs([(a * scale, v) for a, v in pairs], 7 * scale + slack)
        assert check_equivalent(c, scaled), scale
        store = NodeStore(depth=9)
        assert build(c, store=store).root == build(scaled, store=store).root, scale
    assert not check_equivalent(c, PBConstraint.from_pairs(pairs, 8))


def test_shared_store_checks_survive_optimize_flag():
    code = (
        "from pbdd import NodeStore, PBConstraint, build\n"
        "store = NodeStore(depth=4)\n"
        "r = build(PBConstraint.from_pairs([(1, 1), (2, 2), (3, 3)], 3), store=store)\n"
        "level = store.node(r.root)[0]\n"
        "for parent in (level, level + 1):\n"
        "    try:\n"
        "        store.mk_node(parent, r.root, 0)\n"
        "        print('accepted')\n"
        "    except ValueError:\n"
        "        print('misordered child refused')\n"
        "print(store.mk_node(level - 1, r.root, 0) > r.root)\n"
        "try:\n"
        "    build(PBConstraint.from_pairs([(1, v) for v in range(1, 6)], 2), store=store)\n"
        "except ValueError:\n"
        "    print('build deeper than the frame refused')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["misordered child refused"] * 2 + \
        ["True", "build deeper than the frame refused"]


ROW = [(3, 1), (5, 2), (7, 3), (11, 4), (13, 5)]


def test_bdd3_node_budget_counts_per_constraint(tmp_path, monkeypatch, capsys, forks):
    c = PBConstraint.from_pairs(ROW, 20)
    _, builds = run_pipeline("bdd3", c)
    total = sum(r.stats.created for r in builds)
    largest = max(build(r.constraint).stats.created for r in builds)
    budget = 40
    assert largest <= budget < total  # each build fits alone, together they do not
    run_pipeline("bdd3", c, node_budget=total)
    # 24 rows of bdd3 work 65 (5 terms of 13 bits) fork a worker at --jobs 2
    # on two CPUs; the verdict must not depend on it
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    path = tmp_path / "rows.opb"
    path.write_text("".join(
        " ".join(f"+{a} x{v + 5 * r}" for a, v in ROW) + " <= 20 ;\n" for r in range(24)))
    for jobs in ("1", "2"):
        for limit, code in ((budget, 4), (total - 1, 4), (total, 0)):
            argv = ["encode", "--method", "bdd3", "--in", str(path), "--jobs", jobs,
                    "--out", str(tmp_path / f"{jobs}-{limit}.cnf"), "--node-budget", str(limit)]
            assert main(argv) == code, (jobs, limit)
            # the line every pipeline prints: the budget caps each build's store
            want = f"budget exceeded: build exceeded node budget of {limit}\n" if code else ""
            assert capsys.readouterr().err == want, (jobs, limit)
    assert len(forks) == 3
    assert (tmp_path / f"1-{total}.cnf").read_text() == (tmp_path / f"2-{total}.cnf").read_text()
    # the single-build pipelines keep their per-build budget
    for method in ("bdd1", "bdd2", "ite6"):
        (r,) = run_pipeline(method, c)[1]
        run_pipeline(method, c, node_budget=r.stats.created)
        assert main(["encode", "--method", method, "--in", str(path), "--jobs", "2",
                     "--out", str(tmp_path / "x.cnf"),
                     "--node-budget", str(r.stats.created - 1)]) == 4


def test_node_budget_caps_the_store():
    # a build into a store that holds k nodes raises exactly when those and
    # the ones it creates pass the budget; bdd3 fills its store that way
    for c in (PBConstraint.from_pairs(ROW, 20), hosaka_family(1)):
        cut = [r.constraint for r in run_pipeline("bdd3", c)[1]]
        depth = len(decompose(c).decomposed.terms)

        def store_after(j):
            store = NodeStore(depth=depth)
            for earlier in cut[:j]:
                build(earlier, store=store)
            return store

        for j, ci in enumerate(cut):
            k = len(store_after(j))
            created = build(ci, store=store_after(j)).stats.created
            assert created > 0, (str(c), j)
            for budget in range(k + created + 2):
                store = store_after(j)
                try:
                    r = build(ci, store=store, node_budget=budget)
                except NodeBudgetExceeded:
                    assert k + created > budget, (str(c), j, budget)
                    assert len(store) == max(k, budget) + 1, (str(c), j, budget)
                else:
                    assert k + created <= budget, (str(c), j, budget)
                    assert r.stats.created == created and len(store) == k + created


def test_fresh_single_builds_keep_their_store_contents():
    for c in differential_corpus()[:60]:
        r = build(c, store=NodeStore(depth=len(c.terms)))
        assert r.offset == 0
        assert r.store._nodes == build(c).store._nodes, str(c)


def assert_store_level_consumers_agree(r, label):
    """`verify_intervals` and `eval_bdd` take the build's arrays behind `offset` fillers."""
    pad = (0,) * r.offset
    assert verify_intervals(pad + r.coefs, r.store, r.root, r.intervals) is None, label
    variables = r.constraint.variables()
    if len(variables) <= 12:
        assignments = product((0, 1), repeat=len(variables))
    else:  # decomposed rows reach 30 bit variables: a seeded sample
        rng = random.Random(len(variables))
        assignments = [[rng.randint(0, 1) for _ in variables] for _ in range(256)]
    for values in assignments:
        a = dict(zip(variables, values))
        assert eval_bdd(r.store, r.root, pad + r.level_lits, a) == evaluate(r.constraint, a), label


def test_framed_builds_read_their_intervals_from_the_level_stores():
    for c in differential_corpus() + [hosaka_family(2)]:
        for r in run_pipeline("bdd3", c)[1]:
            assert_store_level_consumers_agree(r, str(c))
    # the shorter build reaches nodes that the longer one made
    store = NodeStore(depth=5)
    for c in (PBConstraint.from_pairs(ROW, 20), PBConstraint.from_pairs(ROW[2:], 15)):
        r = build(c, store=store)
        assert_store_level_consumers_agree(r, str(c))
    assert r.offset == 2 and r.stats.created < len(r.intervals)
