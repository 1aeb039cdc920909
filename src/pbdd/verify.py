"""Brute-force oracles and executable property checkers.

The checkers compare what unit propagation on an encoding derives with
the arithmetic ground truth (`extendable`) on all 3^n partial assignments
of a constraint.  They are the machine-checkable form of the encoding
guarantees: consistency (inextensible assignments force a propagation
conflict) and generalized arc-consistency (forced literals are actually
propagated).

The assignments are visited by a depth-first walk over the variables
with the children of each variable taken in the order None, False, True,
which is the order of `itertools.product((None, False, True), repeat=n)`,
so the first violation found is the same as in a plain enumeration.  One
`UnitPropagator` follows the walk: each step down assumes one literal and
propagates only its consequences, each step back backtracks the trail,
and the true weight of the path is carried along.  The cost is one
incremental propagation per step instead of a full propagation per
assignment.  Subtrees whose verdict is already decided are skipped: below
an inextensible prefix every assignment stays inextensible, and
propagation is monotone, so conflicts persist too.
Below a conflicting prefix no further literal is propagated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .builder import BuildResult, build, level_widths
from .constraints import PBConstraint
from .encode import Decomposition
from .propagate import UnitPropagator
from .robdd import NodeStore

DEFAULT_EXTEND_LIMIT = 14
DEFAULT_ENUM_LIMIT = 8  # 3^8 = 6561 partial assignments per clause set


@dataclass
class Counterexample:
    """A concrete partial assignment violating a checked property."""

    assignment: dict[int, bool]
    variable: int | None = None
    detail: str = ""

    def __str__(self):
        lits = {f"{'' if b else '~'}x{v}" for v, b in sorted(self.assignment.items())}
        where = f" at x{self.variable}" if self.variable else ""
        return f"A={{{', '.join(sorted(lits))}}}{where}: {self.detail}"


def _true_weight(c: PBConstraint, assignment: Mapping[int, bool]) -> int:
    """Sum of coefficients whose literal is true under the (partial) assignment."""
    total = 0
    for coef, lit in c.terms:
        val = assignment.get(abs(lit))
        if val is None:
            continue
        if val == (lit > 0):
            total += coef
    return total


def extendable(
    c: PBConstraint,
    assignment: Mapping[int, bool],
    limit: int = DEFAULT_EXTEND_LIMIT,
) -> bool:
    """Can `assignment` be extended to a total assignment satisfying `c`?

    Setting every unassigned literal false is the cheapest extension of a
    normalized constraint, so the answer is whether the true weight of the
    assignment is within the bound.
    """
    if len(c.terms) > limit:
        raise ValueError(f"constraint has {len(c.terms)} variables, limit is {limit}")
    return _true_weight(c, assignment) <= c.bound


def _clause_list(cnf):
    return getattr(cnf, "clauses", cnf)


def _walk_setup(c: PBConstraint, cnf, limit: int):
    """Engine at level 0, its level-0 conflict flag, and the walk's steps.

    `steps[j]` lists the two children of the j-th variable after None:
    (literal assumed, weight it adds) for False, then for True.
    """
    n = len(c.terms)
    if n > limit:
        raise ValueError(f"constraint has {n} variables, enumeration limit is {limit}")
    engine = UnitPropagator(_clause_list(cnf), num_vars=max(c.variables(), default=0))
    conflict = engine.reset() is not None
    steps = [
        ((-t.var, 0 if t.lit > 0 else t.coef), (t.var, t.coef if t.lit > 0 else 0))
        for t in c.terms
    ]
    return engine, conflict, steps


def _assignment(path) -> dict[int, bool]:
    return {abs(lit): lit > 0 for lit in path}


def check_consistency(
    c: PBConstraint,
    cnf,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> Counterexample | None:
    """Inextensible partial assignments must be detected by propagation.

    Propagation from a partial assignment A must conflict exactly when A
    cannot be extended to a model of `c`.  Returns the first violation in
    enumeration order.
    """
    engine, conflict, steps = _walk_setup(c, cnf, limit)
    trail = engine.trail
    bound = c.bound
    n = len(steps)
    path: list[int] = []

    def violation(conflict: bool, weight: int) -> str | None:
        """What is wrong with the current path's own assignment, if anything."""
        if weight <= bound:
            if conflict:
                return "spurious conflict on extendable assignment"
        elif not conflict:
            return "inextensible assignment not detected"
        return None

    def walk(start: int, weight: int) -> Counterexample | None:
        # Assignments extending the path by variables from `start` on.  The
        # path itself is extendable and propagates without a conflict.  The
        # last free variable varies first.
        for j in range(n - 1, start - 1, -1):
            for lit, add in steps[j]:
                mark = len(trail)
                conflict = not engine.assume(lit)
                path.append(lit)
                w = weight + add
                detail = violation(conflict, w)
                if detail is not None:
                    found = Counterexample(_assignment(path), None, detail)
                elif w <= bound:
                    found = walk(j + 1, w)
                else:
                    found = None  # inextensible and detected, and so is all below
                path.pop()
                engine.backtrack(mark)
                if found is not None:
                    return found
        return None

    detail = violation(conflict, 0)
    if detail is not None:
        return Counterexample({}, None, detail)
    return walk(0, 0) if bound >= 0 else None


def check_gac(
    c: PBConstraint,
    cnf,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> Counterexample | None:
    """Every forced literal must be derived by propagation.

    For each extendable partial assignment A and unassigned variable whose
    literal cannot be set true, propagation from A has to produce the
    literal's negation.  Returns the first violation in enumeration order,
    which makes reported witnesses deterministic.
    """
    engine, conflict, steps = _walk_setup(c, cnf, limit)
    values, trail = engine.values, engine.trail
    bound = c.bound
    terms = c.terms
    n = len(terms)
    max_coef = max(c.coefficients(), default=0)
    assigned = [False] * n
    path: list[int] = []

    def violation(conflict: bool, weight: int) -> Counterexample | None:
        # the current path is extendable (weight <= bound)
        if weight + max_coef <= bound:
            return None  # nothing forced
        for j, (coef, lit) in enumerate(terms):
            if assigned[j] or weight + coef <= bound:
                continue
            if conflict:
                return Counterexample(_assignment(path), None,
                                      "spurious conflict on extendable assignment")
            if values[abs(lit)] != (2 if lit > 0 else 1):
                return Counterexample(
                    _assignment(path), abs(lit),
                    f"literal {-lit} is forced but was not propagated",
                )
        return None

    def walk(start: int, weight: int, conflict: bool) -> Counterexample | None:
        # As in check_consistency; inextensible assignments are skipped, and
        # below a conflict every assignment conflicts without propagating.
        for j in range(n - 1, start - 1, -1):
            assigned[j] = True
            for lit, add in steps[j]:
                w = weight + add
                if w > bound:
                    continue
                mark = len(trail)
                below = conflict or not engine.assume(lit)
                path.append(lit)
                found = violation(below, w) or walk(j + 1, w, below)
                path.pop()
                engine.backtrack(mark)
                if found is not None:
                    assigned[j] = False
                    return found
            assigned[j] = False
        return None

    if bound < 0:
        return None
    return violation(conflict, 0) or walk(0, 0, conflict)


def check_equivalent(c1: PBConstraint, c2: PBConstraint) -> bool:
    """Do two constraints represent the same Boolean function?

    Builds both diagrams in one shared store with the same level/literal
    layout; canonicity makes function equality the same as root equality.
    Requires identical literal sequences (same variables, order and
    polarities), otherwise the structural comparison would be meaningless.
    """
    if c1.literals() != c2.literals():
        raise ValueError(
            f"literal sequences differ: {c1.literals()} vs {c2.literals()}"
        )
    store = NodeStore()
    r1 = build(c1, store=store)
    r2 = build(c2, store=store)
    return r1.root == r2.root


def subset_sum_reachable(coefficients, k: int) -> bool:
    """Dynamic-programming oracle: can a subset of `coefficients` sum to `k`?"""
    if k < 0:
        return False
    mask = (1 << (k + 1)) - 1
    reachable = 1
    for a in coefficients:
        reachable |= (reachable << a) & mask
    return bool(reachable >> k & 1)


def subset_sum_unsat(coefficients, k: int) -> bool:
    """Diagram-equality certificate that no subset sums to exactly `k`.

    The sum k is unreachable iff `sum <= k` and `sum <= k-1` are the same
    Boolean function, i.e. iff their canonical diagrams coincide.
    """
    pairs = [(a, i) for i, a in enumerate(coefficients, 1)]
    le_k = PBConstraint.from_pairs(pairs, k)
    le_k1 = PBConstraint.from_pairs(pairs, k - 1)
    return check_equivalent(le_k, le_k1)


def check_level_width(
    decomposition: Decomposition,
    result: BuildResult,
) -> Counterexample | None:
    """Width bound for power-of-two diagrams: each level stays below n + r.

    `n` is the original variable count and `r` the 1-based original position
    the level's bit belongs to.  Applies to diagrams built from a
    coefficient decomposition (every level coefficient is a power of two).
    """
    coefs = result.coefs
    for a in coefs:
        if a & (a - 1):
            raise ValueError(f"coefficient {a} is not a power of two")
    n = len(decomposition.original.terms)
    widths = level_widths(result)
    for level, (power, pos) in enumerate(decomposition.bit_tags, 1):
        t = widths[level - 1]
        if not t < n + pos:
            return Counterexample(
                {}, None,
                f"level {level} (power {power}, position {pos}) has {t} nodes, "
                f"bound is {n + pos - 1}",
            )
    return None
