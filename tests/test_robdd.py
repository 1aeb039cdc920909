from itertools import product

import pytest

from pbdd import (
    FALSE_NODE,
    TRUE_NODE,
    NodeStore,
    PBConstraint,
    build,
    eval_bdd,
    evaluate,
    random_constraint,
    reachable_nodes,
    to_dot,
)

from oracles import reduced_node_count

RUN = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)


def test_mk_node_identical_children_collapse():
    s = NodeStore()
    n = s.mk_node(3, FALSE_NODE, TRUE_NODE)
    assert s.mk_node(2, n, n) == n


def test_mk_node_is_canonical():
    s = NodeStore()
    a = s.mk_node(3, FALSE_NODE, TRUE_NODE)
    b = s.mk_node(3, FALSE_NODE, TRUE_NODE)
    assert a == b
    assert len(s) == 1


def test_mk_node_deterministic_across_stores():
    s1, s2 = NodeStore(), NodeStore()
    a = s1.mk_node(3, FALSE_NODE, TRUE_NODE)
    b = s2.mk_node(3, FALSE_NODE, TRUE_NODE)
    assert a == b
    assert s1.node(a) == s2.node(b)


def test_mk_node_rejects_orderedness_violation():
    s = NodeStore()
    n = s.mk_node(2, FALSE_NODE, TRUE_NODE)
    with pytest.raises(ValueError):
        s.mk_node(2, n, TRUE_NODE)
    with pytest.raises(ValueError):
        s.mk_node(3, n, TRUE_NODE)
    with pytest.raises(ValueError):
        s.mk_node(1, 99, TRUE_NODE)


def test_eval_bdd_terminals():
    s = NodeStore()
    assert eval_bdd(s, TRUE_NODE, (), {}) == 1
    assert eval_bdd(s, FALSE_NODE, (), {}) == 0


def test_eval_bdd_running_example():
    r = build(RUN)
    assert eval_bdd(r.store, r.root, r.level_lits, {1: 1, 2: 0, 3: 1}) == 0
    assert eval_bdd(r.store, r.root, r.level_lits, {1: 1, 2: 1, 3: 0}) == 1


def test_count_nodes_examples():
    r = build(RUN)
    assert reachable_nodes(r.store, TRUE_NODE) == []
    assert r.node_count == 3
    # value from the independent build-then-reduce oracle
    card = PBConstraint.from_pairs([(1, 1), (1, 2), (1, 3)], 1)
    assert reduced_node_count(card) == 4
    assert build(card).node_count == 4


def test_eval_bdd_matches_evaluate_exhaustively():
    cases = [random_constraint(seed, seed % 9 + 1, 30, "uniform") for seed in range(60)]
    cases += [random_constraint(seed, 12, 30, "uniform") for seed in (201, 202)]
    for c in cases:
        r = build(c)
        variables = c.variables()
        for values in product((0, 1), repeat=len(variables)):
            assignment = dict(zip(variables, values))
            assert eval_bdd(r.store, r.root, r.level_lits, assignment) == \
                evaluate(c, assignment)


def test_polarity_swaps_children_roles():
    pos = PBConstraint.from_pairs([(3, 1), (2, 2)], 2)
    neg = PBConstraint.from_pairs([(3, -1), (2, 2)], 2)
    store = NodeStore()
    rp, rn = build(pos, store=store), build(neg, store=store)
    # the diagram is polarity-blind: same structure, opposite semantics
    assert rp.root == rn.root
    for values in product((0, 1), repeat=2):
        a = dict(zip((1, 2), values))
        flipped = {1: 1 - a[1], 2: a[2]}
        assert eval_bdd(rn.store, rn.root, rn.level_lits, a) == \
            eval_bdd(rp.store, rp.root, rp.level_lits, flipped)
        assert eval_bdd(rn.store, rn.root, rn.level_lits, a) == evaluate(neg, a)


def test_no_node_has_equal_children():
    for seed in range(40):
        c = random_constraint(seed, seed % 8 + 1, 25, "uniform")
        r = build(c)
        for nid in range(2, len(r.store) + 2):
            _, lo, hi = r.store.node(nid)
            assert lo != hi


def test_shared_store_canonicity_distinct_roots_differ_semantically():
    store = NodeStore()
    results = [
        build(random_constraint(seed, 5, 12, "uniform"), store=store)
        for seed in range(25)
    ]
    by_root = {}
    for r in results:
        by_root.setdefault(r.root, r)
    roots = list(by_root.values())
    for i, r1 in enumerate(roots):
        for r2 in roots[i + 1:]:
            differs = False
            for values in product((0, 1), repeat=5):
                a = dict(zip(range(1, 6), values))
                if eval_bdd(store, r1.root, r1.level_lits, a) != \
                        eval_bdd(store, r2.root, r2.level_lits, a):
                    differs = True
                    break
            assert differs, "distinct roots must represent distinct functions"


def test_to_dot_mentions_every_reachable_node():
    r = build(RUN)
    dot = to_dot(r.store, r.root)
    assert dot.startswith("digraph")
    for nid in (2, 3, 4):
        assert f"n{nid} " in dot
