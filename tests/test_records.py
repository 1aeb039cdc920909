"""The public record types: constructors, equality, `repr` and mutability.

`Decomposition` and `Counterexample` are `NamedTuple`s: they also equal
the plain tuple of their fields, and their fields cannot be assigned.
"""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from pbdd import (
    BuildResult,
    BuildStats,
    ClauseSet,
    Counterexample,
    Decomposition,
    Instance,
    PBConstraint,
    RawConstraint,
    Term,
    build,
    decompose,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "pbdd"

C = PBConstraint((Term(2, 1), Term(3, -2)), 4)
C_REPR = "PBConstraint(terms=(Term(coef=2, lit=1), Term(coef=3, lit=-2)), bound=4)"
STATS = BuildStats(1, 2, 3, 4)
STATS_REPR = "BuildStats(calls=1, hits=2, merges=3, created=4)"

# (type, positional arguments, the same by keyword, exact repr, a different instance)
CASES = [
    (PBConstraint, ((Term(2, 1), Term(3, -2)), 4), {"terms": C.terms, "bound": 4},
     C_REPR, PBConstraint(C.terms, 5)),
    (RawConstraint, ([(2, 1), (-1, 2)], ">=", 1), {"terms": [(2, 1), (-1, 2)], "op": ">=",
                                                   "bound": 1},
     "RawConstraint(terms=[(2, 1), (-1, 2)], op='>=', bound=1)",
     RawConstraint([(2, 1), (-1, 2)], ">", 1)),
    (Instance, (["a"], {"a": 1}, []), {"names": ["a"], "name_to_id": {"a": 1}, "constraints": []},
     "Instance(names=['a'], name_to_id={'a': 1}, constraints=[])", Instance(["b"], {"b": 1}, [])),
    (ClauseSet, (3, [(1, -2)], 5), {"num_inputs": 3, "clauses": [(1, -2)], "raw_count": 5},
     "ClauseSet(num_inputs=3, clauses=[(1, -2)], raw_count=5, next_var=4)",
     ClauseSet(3, [(1, -2)], 6)),
    (Decomposition, (C, C, (1, 2), ((0, 1), (1, 2))),
     {"original": C, "decomposed": C, "bit_literals": (1, 2), "bit_tags": ((0, 1), (1, 2))},
     f"Decomposition(original={C_REPR}, decomposed={C_REPR}, bit_literals=(1, 2), "
     "bit_tags=((0, 1), (1, 2)))",
     Decomposition(C, C, (2, 1), ((0, 1), (1, 2)))),
    (BuildStats, (1, 2, 3, 4), {"calls": 1, "hits": 2, "merges": 3, "created": 4},
     STATS_REPR, BuildStats(1, 2, 3, 5)),
    (BuildResult, (C, (1, 2), (2, 3), (1, -2), "store", 7, (), STATS, 1),
     {"constraint": C, "order": (1, 2), "coefs": (2, 3), "level_lits": (1, -2), "store": "store",
      "root": 7, "level_stores": (), "stats": STATS, "offset": 1},
     f"BuildResult(constraint={C_REPR}, order=(1, 2), coefs=(2, 3), level_lits=(1, -2), "
     f"store='store', root=7, level_stores=(), stats={STATS_REPR}, offset=1)",
     BuildResult(C, (1, 2), (2, 3), (1, -2), "store", 7, (), STATS, 0)),
    (Counterexample, ({1: True, 2: False}, 2, "why"),
     {"assignment": {1: True, 2: False}, "variable": 2, "detail": "why"},
     "Counterexample(assignment={1: True, 2: False}, variable=2, detail='why')",
     Counterexample({1: True, 2: False}, 1, "why")),
]
IDS = [case[0].__name__ for case in CASES]
TUPLES = (Decomposition, Counterexample)


@pytest.mark.parametrize("cls, args, kwargs, text, other", CASES, ids=IDS)
def test_constructor_equality_and_repr(cls, args, kwargs, text, other):
    record = cls(*args)
    assert record == cls(**kwargs)
    assert not record != cls(**kwargs)
    assert record != other
    assert not record == other
    assert repr(record) == text
    assert (record == args) is (cls in TUPLES)


@pytest.mark.parametrize("cls, defaults, text", [
    (Instance, {}, "Instance(names=[], name_to_id={}, constraints=[])"),
    (ClauseSet, {}, "ClauseSet(num_inputs=0, clauses=[], raw_count=0, next_var=1)"),
    (BuildStats, {}, "BuildStats(calls=0, hits=0, merges=0, created=0)"),
    (Counterexample, {"assignment": {}},
     "Counterexample(assignment={}, variable=None, detail='')"),
    (BuildResult, {"constraint": C, "order": (), "coefs": (), "level_lits": (), "store": None,
                   "root": 0, "level_stores": (), "stats": STATS},
     f"BuildResult(constraint={C_REPR}, order=(), coefs=(), level_lits=(), store=None, "
     f"root=0, level_stores=(), stats={STATS_REPR}, offset=0)"),
], ids=["Instance", "ClauseSet", "BuildStats", "Counterexample", "BuildResult"])
def test_defaults(cls, defaults, text):
    assert repr(cls(**defaults)) == text


@pytest.mark.parametrize("record", [C, decompose(C)], ids=["PBConstraint", "Decomposition"])
def test_frozen_records_are_hashable_and_immutable(record):
    twin = copy.copy(record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert len({record, twin}) == 1
    for name in ("terms", "bound", "original", "decomposed", "bit_literals", "bit_tags"):
        if hasattr(record, name):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


@pytest.mark.parametrize("record", [case[4] for case in CASES[1:] if case[0] is not Decomposition],
                         ids=[i for i in IDS[1:] if i != "Decomposition"])
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def test_each_record_gets_fresh_lists():
    a, b = Instance(), Instance()
    a.names.append("x1")
    a.name_to_id["x1"] = 1
    a.constraints.append(RawConstraint([], "<=", 0))
    assert b == Instance() and a != b
    s, t = ClauseSet(), ClauseSet()
    s.clauses.append((1,))
    assert t.clauses == [] and s != t


def test_clause_set_derives_next_var():
    assert ClauseSet(num_inputs=3).next_var == 4
    cs = ClauseSet(3)
    cs.next_var += 2
    assert cs.max_var == 5
    assert cs != ClauseSet(3)  # next_var takes part in equality


def test_build_stats_can_be_incremented():
    stats = BuildStats()
    stats.calls += 3
    stats.hits += 1
    stats.merges += 1
    stats.created += 2
    assert stats == BuildStats(3, 1, 1, 2)


def test_raw_constraint_is_mutable_and_counterexample_is_not():
    raw = RawConstraint([(1, 1)], "<=", 0)
    raw.bound = 2
    assert raw.bound == 2
    with pytest.raises(AttributeError):
        Counterexample({}).detail = "d"


def test_build_result_intervals_are_computed_once():
    r = build(C)
    first = r.intervals
    r.level_stores[0].triples.clear()  # computing it again would now raise KeyError
    assert r.intervals is first and len(first) == r.node_count


def test_no_module_imports_dataclasses():
    # the records are plain classes: importing `dataclasses` (and, through it,
    # `inspect`) would add its start-up to every command
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "dataclasses"]
    assert found == []


def test_no_module_holds_an_assert_statement():
    # `python -O` strips asserts, so no check that protects the output may be one
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
