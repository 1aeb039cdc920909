"""Differential tests: the encoders against the original emit-then-simplify path.

`pbdd.encode.encode_monotone` writes its final clauses directly and
`encode_ite6` simplifies with one `UnitPropagator.run`.  Their contract is
list equality with `oracles.reference_encode_monotone` and
`oracles.reference_encode_ite6`, which emit the raw clauses with two
terminal helper variables and rescan them to a fixpoint
(`oracles.unit_simplify_fixpoint`): same units in the same order, same
surviving clauses in the same order, `[()]` on a conflict, and the same
`raw_count` and `next_var`.

The clause-list tests check the fixpoint oracle itself against the
propagation engine: the same units (as a set, since a rescan and a queue
may derive them in different orders), the same surviving clauses in the
same order, and a conflict exactly when propagation finds one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbdd.encode as encode
from pbdd import (
    ClauseSet,
    NodeStore,
    PBConstraint,
    RawConstraint,
    build,
    cardinality,
    clause_set_for,
    hosaka_family,
    normalize,
    random_constraint,
    run_pipeline,
)
from pbdd.encode import PIPELINES
from pbdd.propagate import CONFLICT, UnitPropagator

from oracles import reference_encode_ite6, reference_encode_monotone, unit_simplify_fixpoint


def random_case(rng: random.Random):
    """Random clauses over a few variables, some fixed, some unit."""
    nv = rng.randint(4, 16)
    raw = []
    for _ in range(rng.randint(0, 20)):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4, 4)) if rng.random() < 0.98 else 0
        raw.append([rng.choice((-1, 1)) * rng.randint(1, nv) for _ in range(width)])
    k = rng.randint(0, min(3, nv))
    fixed = {v: rng.random() < 0.5 for v in rng.sample(range(1, nv + 1), k)}
    return raw, fixed


def chain_case(rng: random.Random, length: int):
    """A shuffled implication chain a1 <- a2 <- ... <- an, asserted at one end.

    Each unit has to travel clause by clause, so depending on the shuffle
    a rescan picks it up later in the same pass or only in the next one.
    """
    vs = list(range(2, length + 2))
    raw = [[vs[i], -vs[i + 1], 1] for i in range(length - 1)]
    raw += [[vs[i], -vs[i + 1]] for i in range(length - 1)]
    rng.shuffle(raw)
    raw.append([vs[-1]])
    raw.append([-1, rng.choice(vs)])
    return raw, {1: rng.random() < 0.5}


def propagation_simplify(raw, fixed):
    """Units (as a set) and surviving clauses read off one `UnitPropagator.run`.

    None on a conflict.  Tautologies count as satisfied, as in the rescan.
    """
    engine = UnitPropagator(raw, num_vars=max(fixed, default=0))
    status, values, trail, _, _ = engine.run([v if b else -v for v, b in fixed.items()])
    if status == CONFLICT:
        return None
    units = {l for l in trail if abs(l) not in fixed}
    rest = []
    for cl in engine.clauses:
        if any(values[abs(l)] == (1 if l > 0 else 2) or -l in cl for l in cl):
            continue
        rest.append(tuple(l for l in cl if not values[abs(l)]))
    return units, rest


def assert_oracle_agrees_with_propagation(raw, fixed, want=None):
    got = unit_simplify_fixpoint([list(cl) for cl in raw], dict(fixed))
    if want is not None:
        assert got == want
    expected = propagation_simplify(raw, fixed)
    if expected is None:
        assert got == [()], (raw, fixed)
        return
    units, rest = expected
    assert sorted(got[:len(units)]) == sorted((u,) for u in units), (raw, fixed)
    assert got[len(units):] == rest, (raw, fixed)


def test_seeded_random_clause_lists_match_fixpoint():
    rng = random.Random(20260)
    for _ in range(3000):
        assert_oracle_agrees_with_propagation(*random_case(rng))
    for length in range(1, 40):
        for _ in range(5):
            assert_oracle_agrees_with_propagation(*chain_case(rng, length))


@pytest.mark.parametrize("raw, fixed, want", [
    ([], {}, []),
    ([], {1: True}, []),
    ([[]], {}, [()]),
    ([[1, 1, 2, 2]], {}, [(1, 2)]),                    # duplicate literals
    ([[1, -1, 2], [2, 3]], {}, [(2, 3)]),              # tautology dropped
    ([[1], [-1]], {}, [()]),                           # conflict
    ([[2, -1], [1]], {}, [(1,), (2,)]),                # units over inputs, pass 2
    ([[3, -2], [2, -1], [-4], [1, 4]], {4: False}, [(1,), (2,), (3,)]),
    ([[1, 2, 3], [-3, 4]], {3: False}, [(1, 2)]),      # fixed variable not a unit
])
def test_edge_cases(raw, fixed, want):
    assert_oracle_agrees_with_propagation(raw, fixed, want)


literal = st.integers(1, 8).flatmap(lambda v: st.sampled_from((v, -v)))


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.lists(literal, max_size=4), max_size=25),
    fixed=st.dictionaries(st.integers(1, 8), st.booleans(), max_size=3),
)
def test_hypothesis_clause_lists_match_fixpoint(raw, fixed):
    assert_oracle_agrees_with_propagation(raw, fixed)


def corpus():
    for seed in range(60):
        n = seed % 8 + 1
        c = random_constraint(seed, n, 50, "uniform" if seed % 3 else 0.5)
        if seed % 2:  # negated literals exercise the substituted selectors
            c = PBConstraint.from_pairs(
                [(t.coef, -t.lit if i % 2 else t.lit) for i, t in enumerate(c.terms)],
                c.bound,
            )
        yield c
    yield cardinality(60, 30)
    yield cardinality(40, 0)  # every node has a FALSE hi child: a chain of x' units
    yield hosaka_family(2)
    rng = random.Random(4)
    for _ in range(20):  # coefficients above the bound force their literals false
        n = rng.randint(2, 7)
        bound = rng.randint(1, 12)
        yield PBConstraint.from_pairs(
            [(rng.randint(1, 2 * bound + 2), rng.choice((-1, 1)) * v) for v in range(1, n + 1)],
            bound,
        )
    for _ in range(12):  # both halves of `=` rows: same coefficients, negated literals
        n = rng.randint(1, 6)
        terms = [(rng.choice((-1, 1)) * rng.randint(1, 9), v) for v in range(1, n + 1)]
        yield from normalize(RawConstraint(terms, "=", rng.randint(-5, 10)))


def assert_same_output(got: ClauseSet, want: ClauseSet, context):
    assert got.clauses == want.clauses, context
    assert (got.raw_count, got.next_var) == (want.raw_count, want.next_var), context


@pytest.mark.parametrize("method", PIPELINES)
def test_pipelines_match_fixpoint_simplifier(method, monkeypatch):
    constraints = list(corpus())
    production = [run_pipeline(method, c)[0] for c in constraints]
    monkeypatch.setattr(encode, "encode_monotone", reference_encode_monotone)
    monkeypatch.setattr(encode, "encode_ite6", reference_encode_ite6)
    for c, got in zip(constraints, production):
        assert_same_output(got, run_pipeline(method, c)[0], (method, c))


def test_encode_monotone_consistency_mode_matches_reference():
    # the pipelines cover "unit" (bdd1, bdd2) and "implies" (bdd3)
    for c in corpus():
        if c.trivially_true or c.trivially_false:
            continue
        r = build(c)
        got, want = clause_set_for(c), clause_set_for(c)
        roots = (encode.encode_monotone(r.store, r.root, r.level_lits, got, "consistency"),
                 reference_encode_monotone(r.store, r.root, r.level_lits, want, "consistency"))
        assert roots[0] == roots[1]
        assert_same_output(got, want, c)


def random_diagram(rng: random.Random, repeat_vars: bool):
    """A random reduced diagram over up to 8 levels, not necessarily monotone.

    Without `repeat_vars` every level tests its own variable, as in the
    pipelines; with it a variable may label several levels, in either
    polarity.
    """
    store = NodeStore()
    depth = rng.randint(1, 8)
    if repeat_vars:
        num_inputs = rng.randint(1, depth)
        variables = [rng.randint(1, num_inputs) for _ in range(depth)]
    else:
        num_inputs = depth + 2
        variables = rng.sample(range(1, num_inputs + 1), depth)
    selectors = [rng.choice((-1, 1)) * v for v in variables]
    pool = [0, 1]
    for level in range(depth, 0, -1):
        pool += [store.mk_node(level, rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(1, 6))]
    root = rng.choice(pool[-6:])
    return store, root, selectors, num_inputs


@pytest.mark.parametrize("repeat_vars", [False, True])
def test_ite6_random_diagrams_match_reference(repeat_vars):
    rng = random.Random(31 + repeat_vars)
    for _ in range(1500):
        store, root, selectors, num_inputs = random_diagram(rng, repeat_vars)
        got, want = ClauseSet(num_inputs=num_inputs), ClauseSet(num_inputs=num_inputs)
        roots = (encode.encode_ite6(store, root, selectors, got),
                 reference_encode_ite6(store, root, selectors, want))
        assert roots[0] == roots[1]
        if not repeat_vars:
            assert_same_output(got, want, (store._nodes, root, selectors))
            continue
        # a variable on several levels may let the queue derive the units
        # in another order than the rescan: same units, same other clauses
        units = sum(len(cl) == 1 for cl in want.clauses)
        assert sorted(got.clauses[:units]) == sorted(want.clauses[:units])
        assert got.clauses[units:] == want.clauses[units:]
        assert (got.raw_count, got.next_var) == (want.raw_count, want.next_var)



def test_ite6_with_a_million_inputs_matches_reference():
    # the propagation runs on the diagram's own variables, so inputs far
    # above the diagram's and aux ids above 10**6 must not change the output
    rng = random.Random(41)
    num_inputs = 10**6
    for _ in range(40):
        n = rng.randint(1, 7)
        variables = rng.sample(range(1, num_inputs + 1), n)
        pairs = [(rng.randint(1, 30), v * rng.choice((1, -1))) for v in variables]
        c = PBConstraint.from_pairs(pairs, rng.randint(-1, sum(a for a, _ in pairs)))
        r = build(c)
        got, want = ClauseSet(num_inputs=num_inputs), ClauseSet(num_inputs=num_inputs)
        roots = (encode.encode_ite6(r.store, r.root, r.level_lits, got),
                 reference_encode_ite6(r.store, r.root, r.level_lits, want))
        assert roots[0] == roots[1]
        assert_same_output(got, want, str(c))
