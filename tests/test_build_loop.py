"""The build loop's exact search, its guards under `python -O`, and fresh-build emission.

`run_pipeline` tells the emitters when a build into a fresh store made
every node its root reaches, in lo-first post-order; they then skip the
traversal.  These tests pin that fact, the totals of the search on the
benchmark inputs, and the checks the loop must keep without `assert`.
"""

import subprocess
import sys

import pytest

from pbdd import (
    ClauseSet,
    NodeStore,
    PBConstraint,
    build,
    decompose,
    encode_ite6,
    encode_monotone,
    random_constraint,
    reachable_nodes,
    run_pipeline,
)

from oracles import reference_encode_ite6, reference_encode_monotone
from test_sharing import bench_constraints

# totals over each workload's seed-5 input with its own pipeline: builds,
# calls, hits, merges, created, peak `len(LevelStore)`, raw clauses, final
# clauses, max var
BENCH_TOTALS = {
    "deep-bdd1": ("bdd1", (2, 45_142, 22_572, 27, 22_543, 1_380, 45_092, 44_843, 22_697)),
    "many-small-bdd1": ("bdd1", (1_605, 61_067, 31_336, 2_831, 26_900, 22,
                                 58_615, 47_036, 30_610)),
    "bdd3-random": ("bdd3", (64, 59_222, 29_643, 2_505, 26_635, 22, 88_980, 88_333, 44_538)),
}


@pytest.mark.parametrize("name", sorted(BENCH_TOTALS))
def test_build_search_totals_on_bench_inputs(name, tmp_path):
    method, want = BENCH_TOTALS[name]
    num_inputs, constraints = bench_constraints(name, tmp_path)
    out = ClauseSet(num_inputs=num_inputs)
    builds = calls = hits = merges = created = peak = 0
    for c in constraints:
        for r in run_pipeline(method, c, out)[1]:
            builds += 1
            calls += r.stats.calls
            hits += r.stats.hits
            merges += r.stats.merges
            created += r.stats.created
            peak = max(peak, *map(len, r.level_stores))
    got = (builds, calls, hits, merges, created, peak,
           out.raw_count, len(out.clauses), out.max_var)
    assert got == want


def run_optimized(code: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_build_loop_guards_survive_optimize_flag():
    code = (
        "from bisect import bisect_right\n"
        "from pbdd import LevelStore, NodeStore, PBConstraint, build\n"
        "from pbdd.builder import NodeBudgetExceeded\n"
        "pairs = [(2, 1), (3, 2), (5, 3)]\n"
        "c = PBConstraint.from_pairs(pairs, 6)\n"
        "def attempt(label, store, **kw):\n"
        "    try:\n"
        "        r = build(c, store=store, **kw)\n"
        "        print(label, 'returned', r.root)\n"
        "    except (ValueError, NodeBudgetExceeded) as exc:\n"
        "        print(label, type(exc).__name__)\n"
        # an interned level-1 entry that the bound 6 misses but whose
        # interval overlaps the [5, 6] the build inserts
        "store = NodeStore(depth=3)\n"
        "ls = build(PBConstraint.from_pairs(pairs, 0), store=store).level_stores[0]\n"
        "at = bisect_right(ls.lows, 3)\n"
        "ls.lows.insert(at, 3)\n"
        "ls.triples.insert(at, (3, 5, 3))\n"
        "attempt('overlap', store)\n"
        # a level store whose top is not the sum of its suffix
        "for top in (3, 4, 6, 7, 100):\n"
        "    for length in (1, 2):\n"
        "        store = NodeStore(depth=3)\n"
        "        below = store.suffixes[None] = LevelStore(4, 0)\n"
        "        if length == 1:\n"
        "            store.suffixes[5, below] = LevelStore(3, top)\n"
        "        else:\n"
        "            mid = store.suffixes[5, below] = LevelStore(3, 5)\n"
        "            store.suffixes[3, mid] = LevelStore(2, top + 3)\n"
        "        attempt(f'top {top}/{length}', store)\n"
        "created = build(c).stats.created\n"
        "attempt('budget at created', None, node_budget=created)\n"
        "attempt('budget below created', None, node_budget=created - 1)\n"
    )
    tops = [f"top {t}/{n} ValueError" for t in (3, 4, 6, 7, 100) for n in (1, 2)]
    assert run_optimized(code) == ["overlap ValueError", *tops,
                                   "budget at created returned 4",
                                   "budget below created NodeBudgetExceeded"]


def test_store_budget_survives_optimize_flag():
    # a second build into the store passes a budget of the store's nodes
    # exactly where the nodes already there and its own pass it
    code = (
        "from pbdd import NodeStore, PBConstraint, build\n"
        "from pbdd.builder import NodeBudgetExceeded\n"
        "first = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)\n"
        "second = PBConstraint.from_pairs([(1, 1), (1, 2), (1, 3)], 1)\n"
        "def filled():\n"
        "    store = NodeStore(depth=3)\n"
        "    build(first, store=store)\n"
        "    return store\n"
        "k = len(filled())\n"
        "created = build(second, store=filled()).stats.created\n"
        "print(k, created)\n"
        "for budget in (created, k + created - 1, k + created):\n"
        "    try:\n"
        "        build(second, store=filled(), node_budget=budget)\n"
        "        print(budget - k - created, 'returned')\n"
        "    except NodeBudgetExceeded as exc:\n"
        "        print(budget - k - created, exc)\n"
    )
    assert run_optimized(code) == ["3 2", "-3 build exceeded node budget of 2",
                                   "-1 build exceeded node budget of 4", "0 returned"]


def criterion_4_corpus():
    return [random_constraint(seed, seed % 8 + 1, 100, "uniform") for seed in range(200)]


def assert_fresh_order(r, label):
    assert reachable_nodes(r.store, r.root) == list(range(2, r.root + 1)), label


@pytest.mark.parametrize("method", ["bdd1", "bdd2", "ite6"])
def test_fresh_builds_reach_every_node_in_creation_order(method):
    for c in criterion_4_corpus():
        for r in run_pipeline(method, c)[1]:
            assert_fresh_order(r, (method, str(c)))


@pytest.mark.parametrize("name", sorted(BENCH_TOTALS))
def test_fresh_bench_builds_reach_every_node_in_creation_order(name, tmp_path):
    # bdd1 and ite6 build `c`, bdd2 its decomposition, each into a fresh store
    for c in bench_constraints(name, tmp_path)[1]:
        if not (c.trivially_true or c.trivially_false):
            assert_fresh_order(build(c), (name, str(c)))
            assert_fresh_order(build(decompose(c).decomposed), (name, "decomposed", str(c)))


def test_pipeline_refuses_a_build_with_an_unreachable_node():
    code = (
        "import pbdd.encode as enc\n"
        "from pbdd import NodeStore, PBConstraint, run_pipeline\n"
        "real = enc.build\n"
        "def after(c, **kw):\n"
        "    r = real(c, **kw)\n"
        "    r.store.mk_node(1, 0, 1)\n"
        "    return r\n"
        "def before(c, **kw):\n"
        "    store = NodeStore()\n"
        "    store.mk_node(1, 0, 1)\n"
        "    return real(c, store=store, **kw)\n"
        "for patch in (after, before):\n"
        "    enc.build = patch\n"
        "    for method in ('bdd1', 'bdd2', 'ite6'):\n"
        "        try:\n"
        "            run_pipeline(method, PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6))\n"
        "            print(patch.__name__, method, 'accepted')\n"
        "        except ValueError:\n"
        "            print(patch.__name__, method, 'refused')\n"
    )
    assert run_optimized(code) == [f"{p} {m} refused" for p in ("after", "before")
                                   for m in ("bdd1", "bdd2", "ite6")]


def test_hand_built_store_ending_in_its_root_keeps_the_traversal():
    # the root is the last node, yet node 3 is unreachable: without an order
    # the emitters must find the reachable nodes themselves
    store = NodeStore()
    a = store.mk_node(3, 1, 0)
    store.mk_node(2, 1, a)
    b = store.mk_node(2, a, 0)
    root = store.mk_node(1, b, 0)
    assert root == len(store) + 1 and reachable_nodes(store, root) == [a, b, root]
    for emit, reference in ((encode_monotone, reference_encode_monotone),
                            (encode_ite6, reference_encode_ite6)):
        got, want = ClauseSet(num_inputs=3), ClauseSet(num_inputs=3)
        assert emit(store, root, (1, -2, 3), got) == reference(store, root, (1, -2, 3), want)
        assert (got.clauses, got.raw_count, got.next_var) == \
            (want.clauses, want.raw_count, want.next_var)


def test_encode_ite6_on_a_framed_build():
    c = PBConstraint.from_pairs([(2, 1), (3, 2), (4, 3)], 5)
    r = build(c, store=NodeStore(depth=5))
    assert r.offset == 2
    got, want = ClauseSet(num_inputs=3), ClauseSet(num_inputs=3)
    alone = build(c)
    assert encode_ite6(r.store, r.root, r.level_lits, got, offset=r.offset) == \
        encode_ite6(alone.store, alone.root, alone.level_lits, want)
    assert got.clauses == want.clauses
    assert got.clauses[:3] == [(6,), (-3, -4), (3, 4)] and got.clauses[-1] == (5, 4)
    for bad in ((1, 0, 3), (1, 2, 4), (1, -5, 2)):
        with pytest.raises(ValueError):
            encode_ite6(alone.store, alone.root, bad, ClauseSet(num_inputs=3))
