import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbdd import (
    PBConstraint,
    UnitPropagator,
    build,
    check_consistency,
    check_encoding,
    check_equivalent,
    check_gac,
    check_level_width,
    decompose,
    extendable,
    random_constraint,
    run_pipeline,
    subset_sum_reachable,
    subset_sum_unsat,
)
from pbdd import verify
from pbdd.cli import main

from oracles import (
    check_consistency_enumerate,
    check_gac_enumerate,
    extendable_enumerate,
    spurious_conflict_enumerate,
    truth_table_equal,
)

RUN = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)


def test_extendable_examples():
    assert extendable(RUN, {3: True}) is True
    assert extendable(RUN, {2: True, 3: True}) is False
    assert extendable(PBConstraint.from_pairs([(2, 1), (3, 2)], 1), {1: True}) is False


def test_extendable_routes_cross_check():
    rng = random.Random(21)
    for seed in range(40):
        c = random_constraint(seed, seed % 7 + 1, 25, "uniform")
        for _ in range(10):
            a = {v: rng.choice((True, False))
                 for v in c.variables() if rng.random() < 0.6}
            assert extendable(c, a) == extendable_enumerate(c, a)


def test_extendable_has_no_variable_limit():
    # a weight sum, not an enumeration: 40 variables cost 40 additions
    big = PBConstraint.from_pairs([(1, v) for v in range(1, 41)], 3)
    assert extendable(big, {}) is True
    assert extendable(big, {v: True for v in range(1, 5)}) is False


def test_check_consistency_running_example():
    for method in ("bdd1", "bdd2", "bdd3"):
        assert check_consistency(RUN, run_pipeline(method, RUN)[0]) is None, method


def test_check_consistency_flags_broken_cnf():
    cs, _ = run_pipeline("bdd1", RUN)
    # drop the clause that rejects x3 under a full diagram
    broken = [cl for cl in cs.clauses if cl != (-3, -4)]
    assert check_consistency(RUN, broken) is not None


def test_check_gac_verdicts_per_pipeline():
    assert check_gac(RUN, run_pipeline("bdd1", RUN)[0]) is None
    assert check_gac(RUN, run_pipeline("bdd3", RUN)[0]) is None
    witness = check_gac(RUN, run_pipeline("bdd2", RUN)[0])
    assert witness is not None
    assert witness.assignment == {1: True}
    assert witness.variable == 3


def test_check_gac_witness_is_deterministic():
    first = check_gac(RUN, run_pipeline("bdd2", RUN)[0])
    second = check_gac(RUN, run_pipeline("bdd2", RUN)[0])
    assert (first.assignment, first.variable) == (second.assignment, second.variable)


def test_bdd2_gac_failure_needs_awkward_coefficient():
    # a witness exists for some constraint with a coefficient >= 3 that is
    # not a power of two; constraints with power-of-two coefficients keep GAC
    found_witness = False
    for seed in range(60):
        c = random_constraint(seed, seed % 5 + 2, 12, "uniform")
        cs, _ = run_pipeline("bdd2", c)
        bad = check_gac(c, cs)
        if bad is not None:
            found_witness = True
            assert any(a >= 3 and a & (a - 1) for a in c.coefficients()), str(c)
    assert found_witness


def test_ite6_consistent_but_not_arc_consistent():
    # the six-clause translation detects dead ends but cannot push forced
    # literals through unassigned selectors: with nothing assigned, 20 > 19
    # forces ~x2, yet neither branch of x1 is propagated
    c = PBConstraint.from_pairs([(16, 1), (20, 2), (7, 3), (26, 4), (31, 5)], 19)
    cs, _ = run_pipeline("ite6", c)
    assert check_consistency(c, cs) is None
    witness = check_gac(c, cs)
    assert witness is not None and witness.assignment == {}


def test_check_equivalent_examples():
    c6 = RUN
    c5 = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 5)
    c7 = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 7)
    assert check_equivalent(c6, c5) is True
    assert check_equivalent(c6, c7) is False
    assert check_equivalent(c6, c6) is True  # reflexive
    assert check_equivalent(c5, c6) is True  # symmetric


def test_check_equivalent_matches_truth_tables():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(1, 6)
        pairs = [(rng.randint(1, 9), v) for v in range(1, n + 1)]
        c1 = PBConstraint.from_pairs(pairs, rng.randint(0, 20))
        c2 = PBConstraint.from_pairs(pairs, rng.randint(0, 20))
        assert check_equivalent(c1, c2) == truth_table_equal(c1, c2)


def test_check_equivalent_rejects_mismatched_literals():
    with pytest.raises(ValueError):
        check_equivalent(RUN, PBConstraint.from_pairs([(2, 1), (3, 2)], 6))
    with pytest.raises(ValueError):
        check_equivalent(RUN, PBConstraint.from_pairs([(2, 1), (3, -2), (5, 3)], 6))


def test_subset_sum_oracle_and_certificate_agree():
    rng = random.Random(17)
    for trial in range(120):
        n = rng.randint(1, 20)
        coefs = [rng.randint(1, 10**4) for _ in range(n)]
        k = rng.randint(0, sum(coefs))
        assert subset_sum_unsat(coefs, k) == (not subset_sum_reachable(coefs, k)), \
            (coefs, k)


def test_subset_sum_known_cases():
    assert subset_sum_reachable([2, 3, 5], 5) is True
    assert subset_sum_reachable([2, 3, 5], 6) is False
    assert subset_sum_unsat([2, 3, 5], 6) is True
    assert subset_sum_unsat([2, 3, 5], 7) is False


def test_check_level_width_examples():
    d = decompose(RUN)
    r = build(d.decomposed)
    assert check_level_width(d, r) is None
    single = decompose(PBConstraint.from_pairs([(4, 1)], 3))
    assert check_level_width(single, build(single.decomposed)) is None


def test_check_level_width_requires_power_of_two():
    d = decompose(RUN)
    with pytest.raises(ValueError):
        check_level_width(d, build(RUN))


def test_check_level_width_random_corpus():
    for seed in range(100):
        c = random_constraint(seed, seed % 8 + 1, 100, "uniform")
        d = decompose(c)
        assert check_level_width(d, build(d.decomposed)) is None, str(c)


def test_decomposed_interval_gaps_at_least_bit_weight():
    # reconstructed invariant, stronger than the audited width bound: within
    # one level of a decomposed diagram, interval lower bounds of distinct
    # nodes are at least the level's power-of-two weight apart
    for seed in range(60):
        c = random_constraint(seed, seed % 6 + 1, 60, "uniform")
        d = decompose(c)
        r = build(d.decomposed)
        by_level = {}
        for nid, iv in r.intervals.items():
            by_level.setdefault(r.store.node(nid)[0], []).append(iv)
        for level, ivs in by_level.items():
            weight = r.coefs[level - 1]
            los = sorted(iv.lo for iv in ivs)
            for a, b in zip(los, los[1:]):
                assert b - a >= weight, (str(c), level)


# Differential tests: the depth-first walk against the enumerating
# checkers in oracles.py, which propagate every partial assignment from
# scratch.  Both must return the same first counterexample.

def _verdict(ce):
    return None if ce is None else (ce.assignment, ce.variable, ce.detail)


def _outcome(check, *args, **kwargs):
    """The counterexample as a comparable tuple, or the exception raised."""
    try:
        return _verdict(check(*args, **kwargs))
    except (ValueError, IndexError) as exc:
        return type(exc)


def _same_verdicts(c, clauses):
    """The fused walk and both checkers agree with the oracles; returns (consistency, GAC)."""
    want = (_outcome(check_consistency_enumerate, c, clauses),
            _outcome(check_gac_enumerate, c, clauses))
    try:
        fused = tuple(map(_verdict, check_encoding(c, clauses)))
    except (ValueError, IndexError) as exc:
        fused = (type(exc), type(exc))
    assert fused == want
    assert (_outcome(check_consistency, c, clauses), _outcome(check_gac, c, clauses)) == want
    return want


def _drop_one(clauses, rng, count):
    """Copies of `clauses` with one clause removed each."""
    if not clauses:
        return []
    picks = rng.sample(range(len(clauses)), min(count, len(clauses)))
    return [clauses[:k] + clauses[k + 1:] for k in picks]


@pytest.mark.parametrize("method", ["bdd1", "bdd2", "bdd3", "ite6"])
def test_walk_matches_enumeration_on_seeded_corpus(method):
    rng = random.Random(7)
    witnesses = 0
    for seed in range(24):
        c = random_constraint(seed, seed % 8 + 1, 100, "uniform")
        out, _ = run_pipeline(method, c)
        cnfs = [out.clauses]
        if len(c.terms) <= 6:
            cnfs += _drop_one(out.clauses, rng, 3)
        for clauses in cnfs:
            new, gac = _same_verdicts(c, clauses)
            witnesses += (new is not None) + (gac is not None)
    assert witnesses > 0  # dropped clauses do produce counterexamples


def test_walk_matches_enumeration_on_degenerate_cnfs():
    for bound in (-1, 0, 4, 6, 10):
        c = PBConstraint.from_pairs([(2, 1), (3, -2), (5, 3)], bound)
        clauses = run_pipeline("bdd1", c)[0].clauses
        cases = [
            [],
            [()],                     # empty clause
            clauses + [()],
            [(1,), (-1,)],            # conflicting initial units
            clauses + [(2,), (-2,)],
            clauses + [(-3,)],        # a unit the constraint does not force
            [(1, 2), (-1, 2), (-2,)],  # units derived at level 0 conflict
        ]
        for clauses in cases:
            _same_verdicts(c, clauses)
    for bound in (-1, 0, 3):
        empty = PBConstraint.from_pairs([], bound)  # zero terms
        for clauses in ([], [()], [(1,)], [(-1,)], [(1,), (-1,)]):
            _same_verdicts(empty, clauses)


def test_gac_walk_continues_below_a_conflict():
    # x1 alone conflicts, but {x1} forces nothing (4 + 4 <= 8); the first
    # violation is further down, at {x1, x3}, which forces ~x2
    c = PBConstraint.from_pairs([(4, 1), (4, 2), (4, 3)], 8)
    clauses = run_pipeline("bdd1", c)[0].clauses + [(-1, 9), (-1, -9)]
    _, gac = _same_verdicts(c, clauses)
    assert gac == ({1: True, 3: True}, None, "spurious conflict on extendable assignment")


def test_walk_keeps_errors():
    big = PBConstraint.from_pairs([(1, v) for v in range(1, 10)], 3)
    for check in (check_consistency, check_gac, check_encoding):
        with pytest.raises(ValueError, match="enumeration limit"):
            check(big, [])


def test_walk_settles_only_the_verdicts_asked_for():
    # bdd2 keeps consistency but not GAC on the running example
    cs = run_pipeline("bdd2", RUN)[0]
    gac = check_gac(RUN, cs)
    assert gac is not None
    assert check_encoding(RUN, cs) == (None, gac)
    assert check_encoding(RUN, cs, gac=False) == (None, None)
    assert check_encoding(RUN, cs, consistency=False) == (None, gac)


def _count_assumes(monkeypatch):
    calls = [0]
    assume = UnitPropagator.assume

    def counted(self, lit):
        calls[0] += 1
        return assume(self, lit)

    monkeypatch.setattr(UnitPropagator, "assume", counted)
    return calls


def test_one_walk_serves_both_verdicts(monkeypatch, capsys):
    # `pbdd verify --method bdd3 --max-n 8 --seeds 8`: the certificate
    # clears every encoding of both properties from 999 assumed literals,
    # where the walk over all 3^n partial assignments took 8,228; asked one
    # at a time, consistency takes 999 and GAC 930
    calls = _count_assumes(monkeypatch)
    assert main(["verify", "--method", "bdd3", "--max-n", "8", "--seeds", "8"]) == 0
    assert capsys.readouterr().out.endswith(": 0 violation(s)\n")
    assert calls[0] == 999
    calls[0] = 0
    for seed in range(8):
        c = random_constraint(seed, seed % 8 + 1, 100, "uniform")
        out = run_pipeline("bdd3", c)[0]
        assert check_consistency(c, out) is None and check_gac(c, out) is None
    assert calls[0] == 1929


# Differential tests of the certificate against the walk it saves.  In
# every mode the certificate passes exactly when the walk finds no
# violation and no extendable assignment conflicts: it checks the absence
# of spurious conflicts even where only GAC is asked, since its GAC check
# rests on it.

def _certificate_matches_walk(c, clauses):
    """Assert the certificate's verdict in each mode; the set of verdicts seen."""
    spurious = spurious_conflict_enumerate(c, clauses)
    seen = set()
    for gac, consistency in product((True, False), repeat=2):
        engine = UnitPropagator(clauses, num_vars=max(c.variables(), default=0))
        conflict = engine.reset() is not None
        passed = verify._certified(c, engine, conflict, gac, consistency)
        # the walk runs on the engine as the certificate leaves it
        walked = verify._walk(c, engine, conflict, gac, consistency)
        assert passed == (walked == (None, None) and not spurious), (gac, consistency)
        seen.add(passed)
    return seen


@pytest.mark.parametrize("method", ["bdd1", "bdd2", "bdd3", "ite6"])
def test_certificate_passes_exactly_when_the_walk_finds_nothing(method):
    rng = random.Random(7)
    seen = set()
    for seed in range(24):
        c = random_constraint(seed, seed % 8 + 1, 100, "uniform")
        clauses = run_pipeline(method, c)[0].clauses
        for cnf in [clauses, *(_drop_one(clauses, rng, 3) if len(c.terms) <= 6 else [])]:
            seen |= _certificate_matches_walk(c, cnf)
    assert seen == {True, False}


def test_certificate_on_degenerate_cnfs():
    seen = set()
    for bound in (-1, 0, 4, 6, 10):
        c = PBConstraint.from_pairs([(2, 1), (3, -2), (5, 3)], bound)
        clauses = run_pipeline("bdd1", c)[0].clauses
        for cnf in ([], [()], clauses + [()], [(1,), (-1,)], clauses + [(2,), (-2,)],
                    clauses + [(-3,)], [(1, 2), (-1, 2), (-2,)]):
            seen |= _certificate_matches_walk(c, cnf)
    for bound in (-1, 0, 3):
        empty = PBConstraint.from_pairs([], bound)
        for cnf in ([], [()], [(1,)], [(-1,)], [(1,), (-1,)]):
            seen |= _certificate_matches_walk(empty, cnf)
    assert seen == {True, False}


def test_violation_falls_back_to_the_walk_for_the_first_witness(monkeypatch):
    real, walks = verify._walk, []
    monkeypatch.setattr(verify, "_walk", lambda *args: walks.append(args) or real(*args))
    clauses = run_pipeline("bdd1", RUN)[0].clauses
    assert check_encoding(RUN, clauses) == (None, None) and walks == []
    mutant = clauses[:2] + clauses[3:]  # without (-3, -4)
    got = tuple(map(_verdict, check_encoding(RUN, mutant)))
    assert len(walks) == 1
    assert got == (_verdict(check_consistency_enumerate(RUN, mutant)),
                   _verdict(check_gac_enumerate(RUN, mutant)))
    assert got == (({2: True, 3: True}, None, "inextensible assignment not detected"),
                   ({3: True}, 1, "literal -1 is forced but was not propagated"))


@settings(max_examples=150, deadline=None)
@given(
    coefs=st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=0, max_size=5),
    bound=st.integers(-3, 40),
    clauses=st.lists(
        st.lists(st.integers(-8, 8).filter(bool), min_size=0, max_size=4),
        max_size=12,
    ),
    method=st.sampled_from(["bdd1", "bdd2", "bdd3", "ite6", None]),
    drop=st.integers(0, 200),
)
def test_hypothesis_walk_matches_enumeration(coefs, bound, clauses, method, drop):
    c = PBConstraint.from_pairs(
        [(a, v if positive else -v) for v, (a, positive) in enumerate(coefs, 1)],
        bound,
    )
    if method is not None:  # an encoding, perhaps missing one clause
        clauses = run_pipeline(method, c)[0].clauses
        if clauses and drop < 2 * len(clauses):
            clauses = clauses[:drop % len(clauses)] + clauses[drop % len(clauses) + 1:]
    _same_verdicts(c, clauses)


@settings(max_examples=150, deadline=None)
@given(
    coefs=st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=0, max_size=5),
    bound=st.integers(-3, 40),
    clauses=st.lists(
        st.lists(st.integers(-8, 8).filter(bool), min_size=0, max_size=4),
        max_size=12,
    ),
    method=st.sampled_from(["bdd1", "bdd2", "bdd3", "ite6", None]),
    drop=st.integers(0, 200),
)
def test_hypothesis_certificate_matches_walk(coefs, bound, clauses, method, drop):
    c = PBConstraint.from_pairs(
        [(a, v if positive else -v) for v, (a, positive) in enumerate(coefs, 1)],
        bound,
    )
    if method is not None:
        clauses = run_pipeline(method, c)[0].clauses
        if clauses and drop < 2 * len(clauses):
            clauses = clauses[:drop % len(clauses)] + clauses[drop % len(clauses) + 1:]
    _certificate_matches_walk(c, clauses)
