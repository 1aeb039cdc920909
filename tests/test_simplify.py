"""Differential tests: the worklist unit simplifier against the fixpoint rescan.

`pbdd.encode._unit_simplify` replays the passes of the old full-rescan
simplifier from a worklist.  Its contract is list equality with
`oracles.unit_simplify_fixpoint`: same units in the same order, same
surviving clauses in the same order, `[()]` on a conflict.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbdd.encode as encode
from pbdd import PBConstraint, cardinality, hosaka_family, random_constraint, run_pipeline
from pbdd.encode import PIPELINES, _unit_simplify

from oracles import unit_simplify_fixpoint


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
    it is picked up later in the same pass or only in the next one.
    """
    vs = list(range(2, length + 2))
    raw = [[vs[i], -vs[i + 1], 1] for i in range(length - 1)]
    raw += [[vs[i], -vs[i + 1]] for i in range(length - 1)]
    rng.shuffle(raw)
    raw.append([vs[-1]])
    raw.append([-1, rng.choice(vs)])
    return raw, {1: rng.random() < 0.5}


def assert_same(raw, fixed):
    want = unit_simplify_fixpoint([list(cl) for cl in raw], dict(fixed))
    got = _unit_simplify([list(cl) for cl in raw], dict(fixed))
    assert got == want, (raw, fixed)


def test_seeded_random_clause_lists_match_fixpoint():
    rng = random.Random(20260)
    for _ in range(3000):
        assert_same(*random_case(rng))
    for length in range(1, 40):
        for _ in range(5):
            assert_same(*chain_case(rng, length))


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
    assert unit_simplify_fixpoint([list(cl) for cl in raw], dict(fixed)) == want
    assert _unit_simplify([list(cl) for cl in raw], dict(fixed)) == want


literal = st.integers(1, 8).flatmap(lambda v: st.sampled_from((v, -v)))


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.lists(literal, max_size=4), max_size=25),
    fixed=st.dictionaries(st.integers(1, 8), st.booleans(), max_size=3),
)
def test_hypothesis_clause_lists_match_fixpoint(raw, fixed):
    assert_same(raw, fixed)


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
    yield hosaka_family(2)


@pytest.mark.parametrize("method", PIPELINES)
def test_pipelines_match_fixpoint_simplifier(method, monkeypatch):
    constraints = list(corpus())
    production = [run_pipeline(method, c)[0] for c in constraints]
    monkeypatch.setattr(encode, "_unit_simplify", unit_simplify_fixpoint)
    for c, got in zip(constraints, production):
        want = run_pipeline(method, c)[0]
        assert got.clauses == want.clauses, (method, c)
        assert (got.raw_count, got.next_var) == (want.raw_count, want.next_var)
