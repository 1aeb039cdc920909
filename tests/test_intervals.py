import pytest

from pbdd import (
    Interval,
    PBConstraint,
    build,
    combine_child_intervals,
    random_constraint,
    terminal_interval,
    verify_intervals,
)

RUN = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)


def test_terminal_intervals():
    true, false = terminal_interval(True), terminal_interval(False)
    assert true == Interval(0, None) and false == Interval(None, -1)
    for k in (-(10**40), -1, 0, 10**40):
        assert false.contains(k) == (k < 0) and true.contains(k) == (k >= 0)


def test_interval_contains_and_str():
    iv = Interval(0, 4)
    assert iv.contains(0) and iv.contains(4) and not iv.contains(5) and not iv.contains(-1)
    assert Interval(None, -1).contains(-(10**40)) and not Interval(None, -1).contains(0)
    assert Interval(8, None).contains(10**40) and not Interval(8, None).contains(7)
    assert [str(Interval(5, 6)), str(Interval(None, -1)), str(Interval(8, None))] == \
        ["[5, 6]", "(-inf, -1]", "[8, +inf)"]


def test_combine_running_example_bottom_up():
    coefs = (2, 3, 5)
    t_true = terminal_interval(True)
    t_false = terminal_interval(False)
    # deepest node: both children are terminals (level 4)
    iv3 = combine_child_intervals(coefs, 3, 4, t_true, 4, t_false)
    assert iv3 == Interval(0, 4)
    # middle node: lo skips the last level, hi is the node above
    iv2 = combine_child_intervals(coefs, 2, 4, t_true, 3, iv3)
    assert iv2 == Interval(5, 7)
    iv1 = combine_child_intervals(coefs, 1, 2, iv2, 3, iv3)
    assert iv1 == Interval(5, 6)


def test_combine_asserts_on_inconsistent_children():
    with pytest.raises(ValueError):
        combine_child_intervals((1, 1), 1, 3, Interval(5, 6), 3, Interval(0, 1))


def test_verify_intervals_running_example_ok():
    r = build(RUN)
    assert verify_intervals(r.coefs, r.store, r.root, r.intervals) is None


def test_verify_intervals_detects_injected_fault():
    r = build(RUN)
    bad = dict(r.intervals)
    bad[r.root] = Interval(5, 7)
    mismatch = verify_intervals(r.coefs, r.store, r.root, bad)
    assert mismatch is not None
    node, stored, recomputed = mismatch
    assert node == r.root
    assert stored == Interval(5, 7)
    assert recomputed == Interval(5, 6)
    # with every stored interval wrong, the first reported is the lowest id
    # of the deepest level (6), not node 2, the lowest id, at level 5
    r = build(random_constraint(1, 6, 50, "uniform"))
    wrong = dict.fromkeys(r.intervals, Interval(-5, -5))
    assert verify_intervals(r.coefs, r.store, r.root, wrong)[0] == 4
    assert [r.store.node(nid)[0] for nid in (2, 4)] == [5, 6]


def test_verify_intervals_random_corpus():
    for seed in range(100):
        c = random_constraint(seed, seed % 10 + 1, 50, "uniform")
        r = build(c)
        assert verify_intervals(r.coefs, r.store, r.root, r.intervals) is None, str(c)


def test_level_store_intervals_pairwise_disjoint():
    for seed in range(30):
        c = random_constraint(seed, seed % 8 + 1, 40, "uniform")
        r = build(c)
        for ls in r.level_stores:
            # sorted, each non-empty and ending below the next one's start
            entries = ls.entries()
            assert entries[0][0].lo is None and entries[-1][0].hi is None
            for iv, _ in entries[1:-1]:
                assert iv.lo <= iv.hi
            for (iv1, _), (iv2, _) in zip(entries, entries[1:]):
                assert iv1.hi < iv2.lo


def test_only_false_terminal_interval_is_negative():
    for seed in range(30):
        c = random_constraint(seed, seed % 8 + 1, 40, "uniform")
        r = build(c)
        for iv in r.intervals.values():
            assert iv.lo >= 0


def test_interval_characterizes_equivalent_bounds():
    # bounds inside a node's interval give exactly the node's function over
    # the suffix variables; bounds just outside give a different function
    from itertools import product

    from pbdd import eval_bdd, evaluate

    for seed in range(25):
        c = random_constraint(seed, seed % 6 + 2, 20, "uniform")
        r = build(c)
        for nid, iv in r.intervals.items():
            level = r.store.node(nid)[0]
            suffix_terms = c.terms[level - 1:]
            suffix_vars = [t.var for t in suffix_terms]
            samples = {iv.lo, iv.hi, iv.hi + 1}
            if iv.lo > 0:
                samples.add(iv.lo - 1)
            for m in samples:
                suffix = PBConstraint(suffix_terms, m)
                same = True
                for values in product((0, 1), repeat=len(suffix_vars)):
                    a = dict(zip(suffix_vars, values))
                    if eval_bdd(r.store, nid, r.level_lits, a) != evaluate(suffix, a):
                        same = False
                        break
                assert same == iv.contains(m), (str(c), nid, m)
