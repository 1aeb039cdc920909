import math
import subprocess
import sys
from itertools import product

import pytest

from pbdd import (
    ClauseSet,
    FALSE_NODE,
    NodeStore,
    PBConstraint,
    TRUE_NODE,
    build,
    clause_set_for,
    decompose,
    encode_ite6,
    encode_monotone,
    encode_small,
    evaluate,
    random_constraint,
    reachable_nodes,
    run_pipeline,
)

from oracles import dpll_satisfiable

RUN = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)

# Golden clause sets for the running constraint.  y*/z*/w* name diagram
# nodes; the renaming below maps those names onto the variables this
# implementation allocates (inputs x1..x3 are 1..3; auxiliaries are
# handed out per node in creation order, bottom-up).
GOLDEN_BDD1 = [
    "y1", "y2", "-x1 y3", "-x2 y3", "-x3 -y3",
]
RENAME_BDD1 = {"x1": 1, "x2": 2, "x3": 3, "y1": 6, "y2": 5, "y3": 4}

GOLDEN_BDD2 = [
    "y1", "y2", "y3",
    "y4 -x2", "y4 -x3", "y5 -x1", "y5 -y4",
    "y6 -x1 -y4", "y6 -x2 -y5", "-x3 -y6",
]
RENAME_BDD2 = {"x1": 1, "x2": 2, "x3": 3,
               "y1": 9, "y2": 8, "y3": 6, "y4": 7, "y5": 5, "y6": 4}

GOLDEN_BDD3 = [
    # sub-encoding with x1 assumed true
    "y1 -x1", "y2 -y1", "y4 -x2 -y1", "y3 -y2", "y4 -x3 -y2",
    "y4 -x2 -y3", "-x3 -y4",
    # x2 assumed true
    "z1 -x2", "-x3 -z1",
    # x3 assumed true
    "w1 -x3", "w2 -w1", "-x1 -w1", "-x2 -w2",
]
RENAME_BDD3 = {"x1": 1, "x2": 2, "x3": 3,
               "y1": 7, "y2": 6, "y3": 5, "y4": 4,
               "z1": 10, "w1": 14, "w2": 13}


def rename(golden, mapping):
    out = set()
    for clause in golden:
        lits = []
        for name in clause.split():
            neg = name.startswith("-")
            lits.append(-mapping[name[1:]] if neg else mapping[name])
        out.add(frozenset(lits))
    return out


def clause_sets(cs):
    return {frozenset(cl) for cl in cs.clauses}


def test_golden_bdd1():
    assert clause_sets(run_pipeline("bdd1", RUN)[0]) == rename(GOLDEN_BDD1, RENAME_BDD1)


def test_golden_bdd2():
    assert clause_sets(run_pipeline("bdd2", RUN)[0]) == rename(GOLDEN_BDD2, RENAME_BDD2)


def test_golden_bdd3():
    assert clause_sets(run_pipeline("bdd3", RUN)[0]) == rename(GOLDEN_BDD3, RENAME_BDD3)


def test_decompose_running_example():
    d = decompose(RUN)
    assert d.decomposed == PBConstraint.from_pairs(
        [(1, 1), (1, 2), (2, 3), (2, 4), (4, 5)], 6)
    # bit levels point back at x2, x3, x1, x2, x3
    assert d.bit_literals == (2, 3, 1, 2, 3)
    assert d.bit_tags == ((0, 2), (0, 3), (1, 1), (1, 2), (2, 3))


def test_decompose_single_power_of_two():
    d = decompose(PBConstraint.from_pairs([(4, 1)], 3))
    assert d.decomposed == PBConstraint.from_pairs([(4, 1)], 3)
    assert d.bit_literals == (1,)
    assert d.bit_tags == ((2, 1),)


def test_decompose_bit_sums_recover_coefficients():
    for seed in range(50):
        c = random_constraint(seed, seed % 8 + 1, 200, "uniform")
        d = decompose(c)
        back = {}
        for t, lit in zip(d.decomposed.terms, d.bit_literals):
            back[lit] = back.get(lit, 0) + t.coef
        assert back == {t.lit: t.coef for t in c.terms}
        assert d.decomposed.bound == c.bound


def test_bdd3_assumes_each_literal_true():
    _, builds = run_pipeline("bdd3", RUN)
    expected = [
        PBConstraint.from_pairs([(3, 2), (5, 3)], 4),
        PBConstraint.from_pairs([(2, 1), (5, 3)], 3),
        PBConstraint.from_pairs([(2, 1), (3, 2)], 1),
    ]
    assert [r.constraint for r in builds] == \
        [decompose(c).decomposed for c in expected]


def test_encode_monotone_terminal_roots():
    store = NodeStore()
    out = ClauseSet(num_inputs=3)
    assert encode_monotone(store, TRUE_NODE, (), out) is None
    assert out.clauses == []
    out2 = ClauseSet(num_inputs=3)
    assert encode_monotone(store, FALSE_NODE, (), out2) is None
    assert out2.clauses == [()]


@pytest.mark.parametrize("edge", ["lo", "hi"])
def test_encode_monotone_rejects_non_monotone_edges(edge):
    # a lo edge to FALSE or a hi edge to TRUE: not monotone decreasing
    store = NodeStore()
    below = store.mk_node(2, TRUE_NODE, FALSE_NODE)  # x2'
    if edge == "lo":
        root = store.mk_node(1, FALSE_NODE, below)
    else:
        root = store.mk_node(1, below, TRUE_NODE)
    with pytest.raises(ValueError, match="not monotone"):
        encode_monotone(store, root, (1, 2), ClauseSet(num_inputs=2))


def test_hi_child_is_never_on_the_root_lo_chain():
    # encode_monotone keeps hi clauses without looking for chain nodes
    for seed in range(200):
        c = random_constraint(seed, seed % 10 + 1, 80, "uniform" if seed % 3 else 0.5)
        if c.trivially_true or c.trivially_false:
            continue
        for r in (build(c), build(decompose(c).decomposed)):
            chain, nid = set(), r.root
            while nid >= 2:
                chain.add(nid)
                nid = r.store.node(nid)[1]
            for nid in reachable_nodes(r.store, r.root):
                assert r.store.node(nid)[2] not in chain


def test_encode_monotone_clause_shape():
    # one binary and one ternary clause per node plus three units, pre-simplification
    for seed in range(40):
        c = random_constraint(seed, seed % 8 + 1, 60, "uniform")
        if c.trivially_true or c.trivially_false:
            continue
        r = build(c)
        out = clause_set_for(c)
        encode_monotone(r.store, r.root, r.level_lits, out)
        assert out.raw_count == 2 * r.node_count + 3


def test_encode_ite6_single_node_is_equivalence():
    store = NodeStore()
    n = store.mk_node(1, FALSE_NODE, TRUE_NODE)
    out = ClauseSet(num_inputs=1)
    root = encode_ite6(store, n, (1,), out)
    # after simplification the clauses must say root <-> x1 plus the root unit
    for x in (0, 1):
        for a in (0, 1):
            ok = all(
                any((l > 0) == bool({1: x, root: a}[abs(l)]) for l in cl)
                for cl in out.clauses if cl
            )
            assert ok == (x == 1 and a == 1)


def test_encode_ite6_raw_clause_count():
    r = build(RUN)
    out = clause_set_for(RUN)
    encode_ite6(r.store, r.root, r.level_lits, out)
    assert out.raw_count == 6 * r.node_count + 3


def test_trivial_pipelines():
    taut = PBConstraint.from_pairs([(1, 1), (1, 2)], 5)
    unsat = PBConstraint.from_pairs([(2, 1)], -1)
    for method in ("bdd1", "bdd2", "bdd3", "ite6"):
        assert run_pipeline(method, taut)[0].clauses == []
        assert run_pipeline(method, unsat)[0].clauses == [()]


def cnf_models(cs, variables):
    """Input-variable models of a clause set, by DPLL over each assignment."""
    models = set()
    for values in product((0, 1), repeat=len(variables)):
        fixed = {v: bool(b) for v, b in zip(variables, values)}
        if dpll_satisfiable(cs.clauses, fixed):
            models.add(values)
    return models


def test_pipelines_equisatisfiable_small_corpus():
    for seed in range(30):
        c = random_constraint(seed, seed % 5 + 1, 20, "uniform")
        variables = c.variables()
        want = {
            values for values in product((0, 1), repeat=len(variables))
            if evaluate(c, dict(zip(variables, values)))
        }
        for method in ("bdd1", "bdd2", "bdd3", "ite6"):
            assert cnf_models(run_pipeline(method, c)[0], variables) == want, (str(c), method)


def test_pipelines_handle_negated_literals():
    import random

    from pbdd import RawConstraint, check_consistency, check_gac, normalize

    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 6)
        terms = [(rng.choice([-9, -5, -3, -2, -1, 1, 2, 3, 5, 9]), v)
                 for v in range(1, n + 1)]
        raw = RawConstraint(terms, rng.choice(["<", ">", "<=", ">="]),
                            rng.randint(-12, 12))
        for c in normalize(raw):
            for method in ("bdd1", "bdd2", "bdd3", "ite6"):
                out, _ = run_pipeline(method, c)
                assert check_consistency(c, out) is None, (method, str(c))
                if method in ("bdd1", "bdd3"):
                    assert check_gac(c, out) is None, (method, str(c))


def test_encode_small_matches_models():
    for seed in range(40):
        c = random_constraint(seed, seed % 3 + 1, 15, "uniform")
        variables = c.variables()
        want = {
            values for values in product((0, 1), repeat=len(variables))
            if evaluate(c, dict(zip(variables, values)))
        }
        cs = encode_small(c)
        assert cs.next_var == cs.num_inputs + 1  # no auxiliaries
        assert cnf_models(cs, variables) == want


def test_clause_set_allocator_and_dedupe():
    cs = ClauseSet(num_inputs=2)
    assert cs.next_var == 3
    cs.next_var += 1
    assert cs.add([1, -2, 1]) == (1, -2)
    assert cs.add([-3, 2]) == (-3, 2)
    with pytest.raises(ValueError):
        cs.add([1, -1])
    with pytest.raises(ValueError):
        cs.add([5])
    assert cs.max_var == 3


def test_clause_set_checks_survive_optimize_flag():
    # the checks raise rather than assert, so `python -O` keeps them
    code = (
        "from pbdd import (ClauseSet, Interval, LevelStore, NodeStore,\n"
        "                  UnitPropagator, combine_child_intervals, encode_monotone)\n"
        "cs = ClauseSet(num_inputs=2)\n"
        "try:\n"
        "    cs.add([1, -1])\n"
        "except ValueError:\n"
        "    print('refused')\n"
        "store = NodeStore()\n"
        "root = store.mk_node(2, store.mk_node(3, 1, 0), 0)\n"
        "for sel, mode, implied in (((1, 2, 3), 'implies', -3), ((1, 0, 2), 'unit', None),\n"
        "                           ((1, 4, 2), 'unit', None), ((1, -5, 2), 'unit', None),\n"
        "                           ((1, 2, 3), 'implies', 0), ((1, 2, 3), 'implies', -4)):\n"
        "    try:\n"
        "        encode_monotone(store, root, sel, ClauseSet(num_inputs=3), mode, implied)\n"
        "        print('accepted')\n"
        "    except ValueError:\n"
        "        print('selector refused')\n"
        "ls = LevelStore(1, 10)\n"
        "ls.insert(Interval(0, 4), 7)\n"
        "try:\n"
        "    ls.insert(Interval(3, 6), 8)\n"
        "except ValueError:\n"
        "    print('overlap refused')\n"
        "try:\n"
        "    combine_child_intervals((1, 1), 1, 3, Interval(5, 6), 3, Interval(0, 1))\n"
        "except ValueError:\n"
        "    print('inconsistent children refused')\n"
        "try:\n"
        "    UnitPropagator([(1, 2)]).run([1, -1])\n"
        "except ValueError:\n"
        "    print('contradictory seed refused')\n"
        "try:\n"
        "    ls.insert(Interval(None, 2), 9)\n"
        "except ValueError:\n"
        "    print('infinite end refused')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "refused", "accepted", *["selector refused"] * 5, "overlap refused",
        "inconsistent children refused", "contradictory seed refused",
        "infinite end refused"]


def test_count_regression_bounds():
    # growth envelopes fitted once over this fixed corpus, asserted since
    for seed in range(200):
        n = seed % 8 + 1
        c = random_constraint(seed, n, 100, "uniform")
        amax = max(c.coefficients())
        f2 = n * n * (1 + math.log2(amax))
        f3 = n**3 * (1 + math.log2(amax))
        out2, _ = run_pipeline("bdd2", c)
        out3, _ = run_pipeline("bdd3", c)
        assert len(out2.live_aux_vars()) <= 0.75 * f2
        assert len(out2.clauses) <= 1.05 * f2
        assert len(out3.live_aux_vars()) <= 0.30 * f3
        assert len(out3.clauses) <= 0.50 * f3
