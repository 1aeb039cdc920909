import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbdd import (
    ClauseSet,
    Instance,
    OpbParseError,
    PBConstraint,
    RawConstraint,
    cardinality,
    dimacs_text,
    encode_small,
    evaluate,
    normalize,
    parse_opb,
    run_pipeline,
    write_opb,
)
from pbdd.dimacs import BLOCK
from oracles import dpll_satisfiable

RUN = PBConstraint.from_pairs([(2, 1), (3, 2), (5, 3)], 6)


def test_parse_single_constraint():
    inst = parse_opb("+2 x1 +3 x2 +5 x3 <= 6 ;\n")
    assert inst.names == ["x1", "x2", "x3"]
    assert len(inst.constraints) == 1
    raw = inst.constraints[0]
    assert raw.terms == [(2, 1), (3, 2), (5, 3)]
    assert raw.op == "<=" and raw.bound == 6
    assert normalize(raw) == [RUN]


def test_parse_comment_and_ge():
    inst = parse_opb("* comment\n+1 x1 >= 1 ;\n")
    assert len(inst.constraints) == 1
    assert normalize(inst.constraints[0]) == [PBConstraint.from_pairs([(1, -1)], 0)]


def test_parse_rejects_objective():
    with pytest.raises(OpbParseError) as err:
        parse_opb("min: +1 x1 ;\n")
    assert err.value.line == 1


def test_parse_errors_carry_position():
    with pytest.raises(OpbParseError) as err:
        parse_opb("+2 x1 +3 <= 6 ;\n")
    assert err.value.line == 1
    with pytest.raises(OpbParseError) as err:
        parse_opb("+2 x1 <= 6\n")
    assert "';'" in str(err.value)
    with pytest.raises(OpbParseError) as err:
        parse_opb("+2 y1 <= 6 ;\n")
    assert err.value.col == 4
    with pytest.raises(OpbParseError):
        parse_opb("+2 x1 != 6 ;\n")
    with pytest.raises(OpbParseError, match="bad coefficient"):
        parse_opb("+1_0 x1 <= 6 ;\n")


@pytest.mark.parametrize("line, col", [
    ("+1 x1 <= 1; +1 x2 <= 0 ;", 11),
    ("+1 x1 <= 1 ; +1 x2 <= 0 ;", 12),
    ("+1 x1 <= 1 ;;", 12),
    ("+1 x1 +1 x2; <= 1 ;", 12),
])
def test_parse_rejects_a_semicolon_before_the_end_of_the_line(line, col):
    with pytest.raises(OpbParseError, match="one constraint per line") as err:
        parse_opb(f"* two rows\n{line}\n")
    assert (err.value.line, err.value.col) == (2, col)
    with pytest.raises(OpbParseError, match="must end with ';'"):
        parse_opb(line.rstrip(";") + " +1 x3\n")  # no final ';': the error it had


def test_parse_ids_dense_in_first_appearance_order():
    inst = parse_opb("+1 x9 +1 x2 >= 1 ;\n+1 x2 +1 x5 <= 1 ;\n")
    assert inst.names == ["x9", "x2", "x5"]
    assert inst.name_to_id == {"x9": 1, "x2": 2, "x5": 3}
    assert inst.constraints[1].terms == [(1, 2), (1, 3)]


def test_parse_accepts_attached_semicolon_and_negatives():
    inst = parse_opb("-2 x1 +3 x2 < -1;\n")
    raw = inst.constraints[0]
    assert raw.terms == [(-2, 1), (3, 2)] and raw.op == "<" and raw.bound == -1


def test_parse_rejects_integers_over_the_digit_limit():
    # int() refuses strings past the interpreter's digit limit (4300 by default)
    digits = "7" * 5001
    with pytest.raises(OpbParseError) as err:
        parse_opb(f"+1 x1 +{digits} x2 <= 3 ;\n")
    assert (err.value.line, err.value.col) == (1, 7)
    with pytest.raises(OpbParseError) as err:
        parse_opb(f"* c\n+1 x1 >= -{digits} ;\n")
    assert (err.value.line, err.value.col) == (2, 10)
    assert parse_opb(f"+{'7' * 4000} x1 <= 3 ;").constraints[0].terms[0][0] == int("7" * 4000)


ROW_OPS = {
    "<=": lambda lhs, b: lhs <= b, ">=": lambda lhs, b: lhs >= b,
    "=": lambda lhs, b: lhs == b, "<": lambda lhs, b: lhs < b, ">": lambda lhs, b: lhs > b,
}


@pytest.mark.parametrize("op", ["=", "<", ">=", "<=", ">"])
def test_parse_negated_literals(op):
    # a*~x reads as -a*x with a taken off the bound; x1 appears in both polarities
    row = [(3, "~x1"), (-2, "x2"), (4, "~x3"), (1, "x1"), (-5, "~x4")]
    for bound in (-4, -1, 0, 2, 3, 5):
        text = " ".join(f"{a:+d} {name}" for a, name in row) + f" {op} {bound} ;\n"
        inst = parse_opb(text)
        assert inst.names == ["x1", "x2", "x3", "x4"]
        raw = inst.constraints[0]
        assert raw.terms == [(-3, 1), (-2, 2), (-4, 3), (1, 1), (5, 4)]
        assert raw.bound == bound - 3 - 4 + 5
        parts = normalize(raw)
        for values in product((0, 1), repeat=4):
            a = dict(zip((1, 2, 3, 4), values))
            lhs = sum(coef * (1 - a[int(name[2:])] if name[0] == "~" else a[int(name[1:])])
                      for coef, name in row)
            want = ROW_OPS[op](lhs, bound)
            assert all(evaluate(c, a) for c in parts) == want, (text, values)
        back = parse_opb(write_opb(inst.constraints, names=inst.names))
        assert back.constraints == inst.constraints


def test_parse_rejects_malformed_negations():
    for tok, col in (("~~x1", 4), ("~y1", 4), ("~", 4), ("x~1", 4)):
        with pytest.raises(OpbParseError, match="bad variable") as err:
            parse_opb(f"+2 {tok} <= 1 ;\n")
        assert err.value.col == col


OPB_TOKENS = st.sampled_from([
    "+1", "-2", "3", "+", "-", "007", "x1", "x2", "x0", "~x1", "y", ";", "1;", "x1;",
    "<=", ">=", "=", "<", ">", "!=", "min:", "max:", "*", "\u0663", "x\u0663", "1e3",
    "9" * 4400,
])


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.lists(OPB_TOKENS, max_size=8).map(" ".join), max_size=5).map("\n".join),
    st.lists(st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x85\u2028\u3000;*x1+-=<>",
                     max_size=12), max_size=4).map("\n".join),
))
def test_hypothesis_parser_raises_only_parse_errors(text):
    try:
        parse_opb(text)
    except OpbParseError:
        pass


RAW_ROWS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(-(10**40), 10**40), st.integers(1, 6)), max_size=6),
        st.sampled_from(["<=", ">=", "=", "<", ">"]),
        st.integers(-(10**40), 10**40),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(RAW_ROWS, st.lists(st.integers(0, 10**6), min_size=6, max_size=6, unique=True))
def test_hypothesis_write_parse_roundtrip(rows, labels):
    # ids are dense in first-appearance order, as parse_opb assigns them
    dense: dict[int, int] = {}
    raws = []
    for terms, op, bound in rows:
        terms = [(a, dense.setdefault(v, len(dense) + 1)) for a, v in terms]
        raws.append(RawConstraint(terms, op, bound))
    names = [f"x{k}" for k in labels[:len(dense)]]
    inst = parse_opb(write_opb(raws, names=names, header=["round trip"]))
    assert inst.names == names
    assert inst.constraints == raws


OPB_ROWS = st.lists(
    st.tuples(
        # (coefficient, variable index, negated); indices repeat within a row
        st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6), st.booleans()),
                 max_size=6),
        st.sampled_from(["<=", ">=", "=", "<", ">"]),
        st.integers(-20, 20),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(OPB_ROWS)
def test_hypothesis_opb_text_encodes_to_its_model_set(rows):
    # the OPB text's meaning, with ~x read as 1 - x, decides each assignment
    text = "".join(
        " ".join(f"{a:+d} {'~' if neg else ''}x{v}" for a, v, neg in terms) + f" {op} {b} ;\n"
        for terms, op, b in rows
    )
    inst = parse_opb(text)
    constraints = [c for raw in inst.constraints for c in normalize(raw)]
    ids = [inst.name_to_id[name] for name in inst.names]
    for method in ("bdd1", "bdd3"):
        out = ClauseSet(num_inputs=len(inst.names))
        for c in constraints:
            run_pipeline(method, c, out)
        for values in product((0, 1), repeat=len(ids)):
            by_index = {int(name[1:]): x for name, x in zip(inst.names, values)}
            want = all(
                ROW_OPS[op](sum(a * (1 - by_index[v] if neg else by_index[v])
                                for a, v, neg in terms), b)
                for terms, op, b in rows
            )
            assert all(evaluate(c, dict(zip(ids, values))) for c in constraints) == want
            got = dpll_satisfiable(out.clauses, {v: bool(x) for v, x in zip(ids, values)})
            assert got == want, (text, method, values)


def test_opb_roundtrip():
    text = write_opb([RUN], header=["demo"])
    inst = parse_opb(text)
    assert [normalize(r) for r in inst.constraints] == [[RUN]]
    # negated literals survive via signed coefficients
    polarized = PBConstraint.from_pairs([(3, -1), (2, 2)], 2)
    back = parse_opb(write_opb([polarized]))
    assert normalize(back.constraints[0]) == [polarized]


def test_dimacs_empty_clause_set():
    assert dimacs_text(ClauseSet()) == "p cnf 0 0\n"


def test_dimacs_single_empty_clause():
    cs = ClauseSet(num_inputs=1)
    cs.add(())
    assert dimacs_text(cs) == "c map x1 = 1\np cnf 1 1\n0\n"


def per_literal_dimacs(cs, method=None, names=None):
    """The writer as it was: one str() per literal, joined per clause."""
    lines = [] if method is None else [f"c method {method}"]
    for v in range(1, cs.num_inputs + 1):
        lines.append(f"c map {names[v - 1] if names else f'x{v}'} = {v}")
    lines.append(f"p cnf {cs.max_var} {len(cs.clauses)}")
    for cl in cs.clauses:
        lines.append(" ".join(str(l) for l in cl) + (" 0" if cl else "0"))
    return "\n".join(lines) + "\n"


def test_dimacs_templates_match_per_literal_join():
    cs = ClauseSet(num_inputs=12_345)
    cs.next_var += 20
    for cl in [(), (7,), (-1, 12_345), (10_000, -9_999, 12_346),
               (-12_365, 2, -3, 4), (1, -22, 333, -4_444, 12_000)]:
        cs.add(cl)
    # encode_small writes one clause per minimal over-budget subset: lengths 4 and 5 here
    encode_small(PBConstraint.from_pairs(
        [(1, 10_001), (1, -12_345), (1, 10_500), (1, -3), (1, 9_999)], 3), cs)
    encode_small(PBConstraint.from_pairs(
        [(2, -11_111), (2, 10_002), (2, 4), (2, -12_000), (3, 5)], 9), cs)
    run_pipeline("ite6", PBConstraint.from_pairs([(3, -10_010), (5, 12_001), (4, 7)], 6), cs)
    run_pipeline("bdd3", PBConstraint.from_pairs([(3, 10_020), (5, -12_002), (4, 8)], 6), cs)
    assert {len(cl) for cl in cs.clauses} >= {0, 1, 2, 3, 4, 5}
    assert any(l < -9_999 for cl in cs.clauses for l in cl)
    names = [f"v{v}" for v in range(1, cs.num_inputs + 1)]
    assert dimacs_text(cs, method="bdd3", names=names) == \
        per_literal_dimacs(cs, method="bdd3", names=names)
    assert dimacs_text(cs) == per_literal_dimacs(cs)

    # the writer joins BLOCK clauses at a time: counts on both sides of a block edge
    rng = random.Random(7)
    for count in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        cs = ClauseSet(num_inputs=12_345)
        cs.next_var += 20
        # any int tuple is written as it is, so no complementary-pair check is needed
        cs.clauses = [tuple(rng.choice((-1, 1)) * rng.randint(1, cs.max_var)
                            for _ in range(rng.choice((0, 1, 2, 3, 3, 5))))
                      for _ in range(count)]
        if count:
            cs.clauses[-1] = ()
        want = per_literal_dimacs(cs, method="bdd1")
        assert dimacs_text(cs, method="bdd1") == want, count
        if count > BLOCK:
            assert any(l > 9_999 for cl in cs.clauses for l in cl)
            assert () in cs.clauses[:BLOCK]


def test_dimacs_text_peak_memory_stays_below_three_texts():
    # the blocks plus the joined text; a str per clause would reach about 6.4 texts
    cs, _ = run_pipeline("bdd1", cardinality(320, 160))
    assert len(cs.clauses) == 51_360
    tracemalloc.start()
    try:
        text = dimacs_text(cs, method="bdd1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), peak / len(text)


def test_dimacs_running_example_golden():
    cs, _ = run_pipeline("bdd1", RUN)
    text = dimacs_text(cs, method="bdd1", names=["x1", "x2", "x3"])
    with open("tests/golden/running_bdd1.cnf", "r", encoding="utf-8") as fh:
        assert text == fh.read()


def test_dimacs_deterministic():
    a = dimacs_text(run_pipeline("bdd1", RUN)[0], method="bdd1")
    b = dimacs_text(run_pipeline("bdd1", RUN)[0], method="bdd1")
    assert a == b


def test_instance_intern_reuses_ids():
    inst = Instance()
    assert inst.intern("x4") == 1
    assert inst.intern("x4") == 1
    assert inst.intern("x1") == 2
