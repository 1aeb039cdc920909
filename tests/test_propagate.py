import random

import pytest

from pbdd import (
    CONFLICT,
    FIXPOINT,
    PBConstraint,
    UnitPropagator,
    random_constraint,
    run_pipeline,
)

from oracles import reference_unit_propagate, replay_conflict

RUN = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)


def test_chain_propagation():
    status, values, trail, reasons, _ = UnitPropagator([(-1, 4), (-4, 5)]).run([1])
    assert status == FIXPOINT
    assert values == bytearray([0, 1, 0, 0, 1, 1])
    assert list(zip(trail, reasons)) == [(1, None), (4, 0), (5, 1)]


def test_gac_wrapper_cnf_derives_forced_literal():
    cs, _ = run_pipeline("bdd3", RUN)
    status, _, lits, _, _ = UnitPropagator(cs.clauses).run([1])
    assert status == FIXPOINT
    # the sub-diagram for "x3 assumed true" is refuted first, then x3 itself
    root_x3 = 14  # auxiliary of that sub-diagram's root (see golden test)
    assert -root_x3 in lits and -3 in lits
    assert lits.index(-root_x3) < lits.index(-3)


def test_decomposed_cnf_conflicts_on_overfull_assignment():
    cs, _ = run_pipeline("bdd2", RUN)
    engine = UnitPropagator(cs.clauses)
    status, values, trail, reasons, conflict = engine.run([2, 3])
    assert status == CONFLICT
    assert replay_conflict(engine.clauses, [2, 3], trail, reasons, conflict)


def test_contradictory_seed_rejected():
    with pytest.raises(ValueError):
        UnitPropagator([(1, 2)]).run([1, -1])


def test_seed_variable_absent_from_clauses():
    status, values, trail, _, _ = UnitPropagator([(1, 2)], num_vars=5).run([5])
    assert status == FIXPOINT
    assert values == bytearray([0, 0, 0, 0, 0, 1]) and trail == [5]


def test_initial_units_and_empty_clause():
    status, values, _, _, _ = UnitPropagator([(4,), (-4, -5), (5, 6)]).run([])
    assert status == FIXPOINT
    assert values == bytearray([0, 0, 0, 0, 1, 2, 1])
    status, _, _, _, conflict = UnitPropagator([(1, 2), ()]).run([1])
    assert (status, conflict) == (CONFLICT, 1)


def _corpus_cnfs():
    cnfs = []
    for seed in range(12):
        c = random_constraint(seed, seed % 6 + 2, 30, "uniform")
        for method in ("bdd1", "bdd2", "bdd3"):
            out, _ = run_pipeline(method, c)
            if out.clauses:
                cnfs.append((c, out.clauses))
    return cnfs


def test_confluence_under_shuffles():
    rng = random.Random(99)
    for c, clauses in _corpus_cnfs():
        variables = list(c.variables())
        seed_lits = [v if rng.random() < 0.5 else -v
                     for v in variables if rng.random() < 0.6]
        base = UnitPropagator(clauses).run(seed_lits)
        base_set = None if base[0] == CONFLICT else set(base[2])
        for _ in range(50):
            shuffled = clauses[:]
            rng.shuffle(shuffled)
            reseed = seed_lits[:]
            rng.shuffle(reseed)
            got = UnitPropagator(shuffled).run(reseed)
            if base_set is None:
                assert got[0] == CONFLICT
            else:
                assert got[0] == FIXPOINT
                assert set(got[2]) == base_set


def test_monotone_in_seed():
    for c, clauses in _corpus_cnfs():
        engine = UnitPropagator(clauses)
        variables = list(c.variables())
        small = variables[: len(variables) // 2]
        res_small = engine.run(small)
        res_big = engine.run(variables)
        if res_small[0] == FIXPOINT and res_big[0] == FIXPOINT:
            assert set(res_small[2]) <= set(res_big[2])


def test_agrees_with_reference_engine():
    rng = random.Random(4)
    for c, clauses in _corpus_cnfs():
        engine = UnitPropagator(clauses)
        for _ in range(10):
            seed_lits = [v if rng.random() < 0.5 else -v
                         for v in c.variables() if rng.random() < 0.5]
            status, values, trail, reasons, conflict = engine.run(seed_lits)
            ref_status, ref_lits = reference_unit_propagate(clauses, seed_lits)
            if ref_status == "conflict":
                assert status == CONFLICT
                assert replay_conflict(engine.clauses, seed_lits, trail,
                                       reasons, conflict)
            else:
                assert status == FIXPOINT
                assert set(trail) == ref_lits


def _recount(engine):
    """Per clause, how many of its literals are false under engine.values."""
    values = engine.values
    return [sum(values[abs(l)] == (2 if l > 0 else 1) for l in cl)
            for cl in engine.clauses]


def test_assume_backtrack_matches_fresh_run():
    # after any sequence of assumptions and backtracks the incremental state
    # equals a fresh run() from the assumptions still in force
    rng = random.Random(5)
    cnfs = _corpus_cnfs()
    cnfs.append((RUN, [(1, 2), (-1, 3), (-3, -2), (4,), (-4, 5, -1)]))
    for c, clauses in cnfs:
        engine = UnitPropagator(clauses)
        fresh = UnitPropagator(clauses)
        assert engine.reset() is None
        level0 = (bytes(engine.values), list(engine._nfalse))
        assert engine._nfalse == _recount(engine)
        base = len(engine.trail)
        stack = []  # (mark, literal) per assumption in force
        variables = list(c.variables())
        for _ in range(60):
            free = [v for v in variables if v not in {abs(l) for _, l in stack}]
            if stack and (not free or rng.random() < 0.35):
                k = rng.randrange(len(stack))
                engine.backtrack(stack[k][0])
                del stack[k:]
            else:
                lit = rng.choice(free) * rng.choice((1, -1))
                mark = len(engine.trail)
                ok = engine.assume(lit)
                stack.append((mark, lit))
                assert ok == (fresh.run([l for _, l in stack])[0] == FIXPOINT)
                if not ok:
                    engine.backtrack(mark)
                    stack.pop()
            status, values, trail, _, _ = fresh.run([l for _, l in stack])
            assert status == FIXPOINT
            assert engine.values == values
            assert set(engine.trail) == set(trail)
            assert engine._nfalse == _recount(engine)
        engine.backtrack(base)
        assert (bytes(engine.values), engine._nfalse) == level0


def test_reset_reports_level0_conflict():
    engine = UnitPropagator([(1,), (-1, 2), (-2,)])
    assert engine.reset() == 1  # (-1, 2) with both literals false
    assert engine.run([])[0] == CONFLICT
    assert UnitPropagator([(1, 2), ()]).reset() == 1


def test_conflicting_assumption_is_undone_exactly():
    # x1 implies x2 and ~x2 through two clauses; the conflict is found while
    # the derived literals are being processed, and backtracking has to take
    # back exactly the counts that were made
    clauses = [(-1, 2), (-1, -2, 3), (-2, -3), (-1, 4), (-4, 5)]
    engine = UnitPropagator(clauses)
    assert engine.reset() is None
    mark = len(engine.trail)
    assert engine.assume(1) is False
    engine.backtrack(mark)
    assert engine.trail == [] and not any(engine.values)
    assert engine._nfalse == [0] * len(clauses)
    assert engine.assume(-3) is True
    assert engine.assume(4) is True
    assert set(engine.trail) == {-3, 4, 5}
    assert engine._nfalse == _recount(engine)

