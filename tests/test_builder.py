import random
from itertools import product

import pytest

from pbdd import (
    FALSE_NODE,
    TRUE_NODE,
    Interval,
    LevelStore,
    NodeBudgetExceeded,
    NodeStore,
    PBConstraint,
    build,
    decompose,
    eval_bdd,
    evaluate,
    hosaka_family,
    level_widths,
    random_constraint,
    reachable_nodes,
    run_pipeline,
    verify_intervals,
)

from oracles import (
    cnf_model_set_matches,
    reduced_node_count,
    reference_build,
    reference_post_order,
    reference_reachable_nodes,
)

RUN = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)


def fresh_store(level, suffix_sum):
    # the terminal entries (-inf, -1] and [suffix_sum, +inf) are implicit
    return LevelStore(level, suffix_sum)


def test_search_initialized_store():
    ls = fresh_store(1, 10)
    assert ls.search(-3) == (Interval(None, -1), FALSE_NODE)
    assert ls.search(10) == (Interval(10, None), TRUE_NODE)
    assert ls.search(6) is None


def test_insert_then_search_boundaries():
    ls = fresh_store(1, 10)
    ls.lows.insert(1, 0)  # planted as `build` stores an entry
    ls.triples.insert(1, (0, 4, 7))
    assert ls.search(3) == (Interval(0, 4), 7)
    assert ls.search(0) == (Interval(0, 4), 7)
    assert ls.search(4) == (Interval(0, 4), 7)
    assert ls.search(5) is None


def test_build_running_example_trace():
    r = build(RUN)
    assert r.node_count == 3
    assert r.root_interval == Interval(5, 6)
    assert r.stats.calls == 9
    assert r.stats.hits == 5
    assert r.stats.merges == 1
    assert sorted(str(iv) for iv in r.intervals.values()) == \
        ["[0, 4]", "[5, 6]", "[5, 7]"]


def test_build_trivially_true_returns_terminal():
    r = build(PBConstraint.from_pairs([(1, 1), (1, 2)], 5))
    assert r.root == TRUE_NODE
    assert r.root_interval == Interval(2, None)
    assert r.stats.calls == 1


def test_build_trivially_false_returns_terminal():
    r = build(PBConstraint.from_pairs([(1, 1), (1, 2)], -1))
    assert r.root == FALSE_NODE
    assert r.root_interval == Interval(None, -1)


def test_build_empty_constraint():
    assert build(PBConstraint((), 0)).root == TRUE_NODE
    assert build(PBConstraint((), -1)).root == FALSE_NODE


def test_build_respects_variable_order():
    r = build(RUN, order=[3, 1, 2])
    assert r.order == (3, 1, 2)
    assert r.coefs == (5, 2, 3)
    for values in product((0, 1), repeat=3):
        a = dict(zip((1, 2, 3), values))
        assert eval_bdd(r.store, r.root, r.level_lits, a) == evaluate(RUN, a)


def test_build_rejects_bad_order():
    with pytest.raises(ValueError):
        build(RUN, order=[1, 2])
    with pytest.raises(ValueError):
        build(RUN, order=[1, 2, 4])


def test_build_random_corpus_matches_oracles():
    for seed in range(200):
        c = random_constraint(seed, seed % 10 + 1, 100, "uniform")
        r = build(c)
        assert r.node_count == reduced_node_count(c), str(c)
        assert verify_intervals(r.coefs, r.store, r.root, r.intervals) is None
        assert r.root_interval.contains(c.bound)
        variables = c.variables()
        for values in product((0, 1), repeat=len(variables)):
            a = dict(zip(variables, values))
            assert eval_bdd(r.store, r.root, r.level_lits, a) == evaluate(c, a)


def test_equivalent_constraints_build_identical_diagrams():
    store = NodeStore()
    r1 = build(PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6), store=store)
    r2 = build(PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 5), store=store)
    assert r1.root == r2.root
    r3 = build(PBConstraint.from_pairs([(3, 1), (2, 2), (4, 3)], 5), store=store)
    r4 = build(
        PBConstraint.from_pairs([(30001, 1), (19999, 2), (39998, 3)], 50007),
        store=store,
    )
    assert r3.root == r4.root


def _call_bound(r):
    # one call per entry step to the root's level, then 2k-1 per edge of
    # length k; terminals live at level n+1
    def level(nid):
        return r.store.node(nid)[0] if nid >= 2 else r.levels + 1

    total = 2 * level(r.root) - 1
    for nid in reachable_nodes(r.store, r.root):
        for child in r.store.node(nid)[1:]:
            total += 2 * (level(child) - level(nid)) - 1
    return total


def test_call_count_bound_on_instrumented_builds():
    cases = [RUN, PBConstraint.from_pairs([(1, 1), (1, 2), (5, 3)], 4)]
    cases += [random_constraint(seed, seed % 10 + 1, 60, "uniform") for seed in range(120)]
    for c in cases:
        r = build(c)
        assert r.stats.calls <= _call_bound(r), str(c)


def test_top_level_merges_put_root_below_level_one():
    # both branches of the first two levels coincide, so the root tests x3
    c = PBConstraint.from_pairs([(1, 1), (1, 2), (5, 3)], 4)
    r = build(c)
    assert r.store.node(r.root)[0] == 3
    assert r.root_interval == Interval(2, 4)
    assert verify_intervals(r.coefs, r.store, r.root, r.intervals) is None


def test_node_budget_aborts():
    c = random_constraint(3, 10, 100, "uniform")
    full = build(c)
    assert full.stats.created > 2
    with pytest.raises(NodeBudgetExceeded):
        build(c, node_budget=2)


def test_level_widths_running_example():
    assert level_widths(build(RUN)) == [1, 1, 1]


def test_polarized_constraints_against_truth_table():
    import random

    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 8)
        pairs = [(rng.randint(1, 20), v * rng.choice((1, -1))) for v in range(1, n + 1)]
        c = PBConstraint.from_pairs(pairs, rng.randint(0, sum(p[0] for p in pairs)))
        r = build(c)
        for values in product((0, 1), repeat=n):
            a = dict(zip(range(1, n + 1), values))
            assert eval_bdd(r.store, r.root, r.level_lits, a) == evaluate(c, a)


def assert_same_build(got, want, label):
    """The kernel's result against the reference loop's, field by field."""
    assert got.store._nodes == want.store._nodes, label
    assert (got.root, got.stats, got.root_interval) == \
        (want.root, want.stats, want.root_interval), label
    assert (got.order, got.coefs, got.level_lits) == \
        (want.order, want.coefs, want.level_lits), label
    assert list(got.intervals.items()) == list(want.intervals.items()), label
    assert [(ls.level, len(ls), ls.entries()) for ls in got.level_stores] == \
        [(ls.level, len(ls), ls.entries()) for ls in want.level_stores], label


def assert_same_budget_stop(c, label, order=None):
    """Every budget around the node count stops both builds at the same node."""
    created = reference_build(c, order).stats.created
    for budget in sorted({0, 1, created // 2, created - 1, created}):
        if budget < 0:
            continue
        stores = NodeStore(), NodeStore()
        outcomes = []
        for fn, store in zip((build, reference_build), stores):
            try:
                outcomes.append(fn(c, order, store=store, node_budget=budget).stats)
            except NodeBudgetExceeded:
                outcomes.append("stopped")
        assert outcomes[0] == outcomes[1], (label, budget)
        assert (outcomes[0] == "stopped") == (budget < created), (label, budget)
        assert stores[0]._nodes == stores[1]._nodes, (label, budget)


def differential_corpus():
    rng = random.Random(17)
    cases = [RUN, PBConstraint((), 0), PBConstraint((), -1), hosaka_family(2)]
    for seed in range(120):
        n = rng.randint(1, 9)
        pairs = [(rng.randint(1, 40), v * rng.choice((1, -1))) for v in range(1, n + 1)]
        total = sum(a for a, _ in pairs)
        cases.append(PBConstraint.from_pairs(pairs, rng.randint(-2, total + 2)))
        cases.append(random_constraint(seed, seed % 10 + 1, 100, "uniform"))
    return cases


def test_build_matches_reference_build():
    for c in differential_corpus():
        assert_same_build(build(c), reference_build(c), str(c))
        d = decompose(c).decomposed
        assert_same_build(build(d), reference_build(d), f"decomposed {c}")


def test_build_matches_reference_with_custom_order():
    rng = random.Random(23)
    for c in differential_corpus()[:120]:
        order = list(c.variables())
        rng.shuffle(order)
        assert_same_build(build(c, order), reference_build(c, order), (str(c), order))


def test_build_matches_reference_on_shared_stores():
    # one store per side across many builds: existing nodes come back from
    # the unique table, and merged or reused nodes keep their interval order
    mine, theirs = NodeStore(), NodeStore()
    rng = random.Random(29)
    coefs = [rng.randint(1, 12) for _ in range(7)]
    cases = []
    for _ in range(60):
        pairs = [(a, v * rng.choice((1, -1))) for v, a in enumerate(coefs, 1)]
        cases.append(PBConstraint.from_pairs(pairs, rng.randint(-1, sum(coefs) + 1)))
    cases += [decompose(c).decomposed for c in differential_corpus()[:80]]
    for c in cases:
        assert_same_build(build(c, store=mine), reference_build(c, store=theirs), str(c))


def assert_reachable(store, root, label):
    """`reachable_nodes` is the recursive post-order of the DFS's reachable set."""
    got = reachable_nodes(store, root)
    assert got == reference_post_order(store, root), label
    assert sorted(got) == reference_reachable_nodes(store, root), label


def test_reachable_sweep_matches_depth_first_search():
    empty = NodeStore()
    for root in (FALSE_NODE, TRUE_NODE):
        assert reachable_nodes(empty, root) == reference_reachable_nodes(empty, root) == []
    for c in differential_corpus() + [hosaka_family(2)]:
        for r in (build(c), build(decompose(c).decomposed)):
            assert_reachable(r.store, r.root, str(c))
    # shared store: most roots reach only part of the store below them
    shared = NodeStore()
    rng = random.Random(29)
    coefs = [rng.randint(1, 12) for _ in range(7)]
    cases = []
    for _ in range(60):
        pairs = [(a, v * rng.choice((1, -1))) for v, a in enumerate(coefs, 1)]
        cases.append(PBConstraint.from_pairs(pairs, rng.randint(-1, sum(coefs) + 1)))
    cases += [decompose(c).decomposed for c in differential_corpus()[:80]]
    roots = [build(c, store=shared).root for c in cases]
    assert len(roots) == 140
    for root in roots + [FALSE_NODE, TRUE_NODE] + list(range(2, len(shared) + 2, 7)):
        assert_reachable(shared, root, root)


def test_build_budget_stops_where_reference_stops():
    for c in differential_corpus()[:60] + [hosaka_family(2)]:
        assert_same_budget_stop(c, str(c))
        assert_same_budget_stop(decompose(c).decomposed, f"decomposed {c}")
    c = hosaka_family(2)
    assert_same_budget_stop(c, "hosaka(2) reversed", order=list(reversed(c.variables())))


def test_build_exact_beyond_float_range():
    # coefficients near 10**400 overflow a float; intervals must stay exact
    rng = random.Random(37)
    big = 10**400
    for _ in range(12):
        n = rng.randint(1, 4)
        pairs = [(big + rng.randint(0, 9) * 10**398 + rng.randint(1, 99),
                  v * rng.choice((1, -1))) for v in range(1, n + 1)]
        total = sum(a for a, _ in pairs)
        bound = rng.choice((rng.randint(0, n) * big + rng.randint(-5, 5) * 10**398,
                            total - 1, pairs[0][0], -1))
        c = PBConstraint.from_pairs(pairs, bound)
        r = build(c)
        assert_same_build(r, reference_build(c), str(c))
        assert r.root_interval.contains(c.bound)
        assert verify_intervals(r.coefs, r.store, r.root, r.intervals) is None
        for values in product((0, 1), repeat=n):
            a = dict(zip(range(1, n + 1), values))
            assert eval_bdd(r.store, r.root, r.level_lits, a) == evaluate(c, a)
        for method in ("bdd1", "bdd2", "bdd3"):
            out, _ = run_pipeline(method, c)
            assert cnf_model_set_matches(c, out.clauses), (method, str(c))


def test_level_store_terminals_are_implicit():
    ls = build(RUN).level_stores[1]
    assert len(ls) == len(ls.triples) == len(ls.entries()) == 4
    assert ls.entries()[0] == (Interval(None, -1), FALSE_NODE)
    assert ls.entries()[-1] == (Interval(8, None), TRUE_NODE)
