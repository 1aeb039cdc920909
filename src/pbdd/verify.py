"""Brute-force oracles and executable property checkers.

The checkers compare what unit propagation (UP) on an encoding derives
with the arithmetic ground truth (`extendable`) on all 3^n partial
assignments of a constraint.  They are the machine-checkable form of the
encoding guarantees: consistency (inextensible assignments force a
propagation conflict) and generalized arc-consistency (GAC: forced
literals are actually propagated).

`check_encoding` decides both in two stages.  A certificate, `_certified`,
proves from about 2^n monotone steps that nothing is violated.  Only when
it fails does the walk over all 3^n assignments, `_walk`, run to report
each verdict as the first violation of a plain enumeration.

The certificate is exact because UP is monotone: if A is a subset of B,
then UP(A) is a subset of UP(B) or B conflicts, and a conflict at A
persists at B.  Setting a term literal false adds no weight.  With a
bound of at least 0 and no conflict among the unit clauses alone:

(a) No extendable A conflicts iff no total assignment of weight <= bound
    conflicts.  Extend A by setting every unassigned term literal false;
    the weight stays the same.
(b) Every inextensible A conflicts iff every set T of true term literals
    with weight > bound conflicts.  A's true literals form such a T, a
    subset of A of the same weight.  By persistence it is enough to check
    each T where, adding its terms in order, the weight first exceeds
    the bound.
(c) Given (a), GAC holds iff for every such T of weight <= bound, each
    literal l unassigned in T with weight(T) + coef(l) > bound has its
    negation in UP(T).  For an extendable A with true literals T, every
    literal unassigned in A is unassigned in T, and UP(T) is a subset of
    UP(A), which does not conflict.

One `UnitPropagator` serves one incremental walk over the sets T, each
term unassigned or its literal true, which prunes at the first
inextensible step and checks (b) there.  The total assignments of weight
<= bound are exactly the sets T within the bound, each completed with
every other term literal false.  So at every extendable node the walk
first assumes the negation of each term literal outside T that UP(T) has
not made false, requires no conflict, which is (a), and backtracks; then,
where GAC is asked, it checks (c).  Each true-literal cascade is
propagated once, and the completion adds only false literals.  If the
unit clauses alone conflict, every assignment conflicts, so the
certificate passes exactly when nothing is extendable, that is when the
bound is below 0.  Without that conflict a bound below 0 leaves GAC
nothing to check, and consistency fails at the empty assignment.  So the
certificate passes exactly when no verdict asked for is violated.

The walk takes the children of each variable in the order None, False,
True, which is the order of `itertools.product((None, False, True),
repeat=n)`, so each verdict is the first violation of a plain
enumeration.  The engine follows the walk: each step down assumes one
literal and propagates only its consequences, each step back backtracks
the trail, and the true weight of the path is carried along.  The cost is
one incremental propagation per step instead of a full propagation per
assignment and property.  Inextensible children are assumed once, for
consistency only, and nothing below them is visited: the weight only
grows and propagation is monotone, so conflicts persist.  Below a
conflict, which settles consistency, no further literal is propagated.
The walk stops as soon as every verdict asked for is settled.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .builder import BuildResult, build, level_widths
from .constraints import PBConstraint
from .encode import Decomposition
from .propagate import UnitPropagator
from .robdd import NodeStore

DEFAULT_ENUM_LIMIT = 8  # 3^8 = 6561 partial assignments per clause set


class Counterexample(NamedTuple):
    """A concrete partial assignment violating a checked property."""

    assignment: dict[int, bool]
    variable: int | None = None
    detail: str = ""

    def __str__(self):
        lits = {f"{'' if b else '~'}x{v}" for v, b in sorted(self.assignment.items())}
        where = f" at x{self.variable}" if self.variable else ""
        return f"A={{{', '.join(sorted(lits))}}}{where}: {self.detail}"


def extendable(c: PBConstraint, assignment: Mapping[int, bool]) -> bool:
    """Can `assignment` be extended to a total assignment satisfying `c`?

    Setting every unassigned literal false is the cheapest extension of a
    normalized constraint, so the answer is whether the true weight of the
    assignment is within the bound.
    """
    total = 0
    for coef, lit in c.terms:
        val = assignment.get(abs(lit))
        if val is not None and val == (lit > 0):
            total += coef
    return total <= c.bound


_SPURIOUS = "spurious conflict on extendable assignment"
_UNDETECTED = "inextensible assignment not detected"
_OPEN = object()  # a verdict the walk has not settled yet


def check_encoding(
    c: PBConstraint,
    cnf,
    limit: int = DEFAULT_ENUM_LIMIT,
    *,
    gac: bool = True,
) -> tuple[Counterexample | None, Counterexample | None]:
    """Consistency and GAC verdicts of `cnf` as an encoding of `c`.

    Returns `(consistency, gac)`, each the first violation in enumeration
    order or None; GAC is None when `gac` is false.  Consistency: exactly
    the inextensible assignments make propagation conflict.  GAC: for each
    extendable assignment, every unassigned variable whose literal cannot
    be set true has its negation propagated.
    """
    n = len(c.terms)
    if n > limit:
        raise ValueError(f"constraint has {n} variables, enumeration limit is {limit}")
    engine = UnitPropagator(getattr(cnf, "clauses", cnf), num_vars=max(c.variables(), default=0))
    conflict = engine.reset() is not None  # the unit clauses alone refute
    if _certified(c, engine, conflict, gac):
        return None, None
    return _walk(c, engine, conflict, gac)


def _certified(c: PBConstraint, engine: UnitPropagator, conflict: bool, gac: bool) -> bool:
    """True when (a), (b) and, if `gac`, (c) of the module docstring hold.

    One walk over the sets of true term literals within the bound checks
    (a) on each set's completion with false literals, then (c), and (b)
    at each inextensible step.  `engine` holds the propagation of the
    unit clauses alone, which `conflict` says refutes them; it is left as
    it was.
    """
    bound, terms = c.bound, c.terms
    if conflict or bound < 0:
        return bound < 0 and conflict
    n = len(terms)
    values, trail = engine.values, engine.trail
    assume, backtrack = engine.assume, engine.backtrack
    max_coef = max(c.coefficients(), default=0)
    chosen = [False] * n

    def sets(start: int, weight: int) -> bool:
        # at T, the true literals on the path, of weight <= bound: (a) on T
        # completed with every other term literal false, then (c); then T's
        # extensions by terms from `start` on: (b) at an inextensible one
        mark = len(trail)
        ok = all(assume(-lit) for j, (_, lit) in enumerate(terms)
                 if not chosen[j] and values[abs(lit)] != (2 if lit > 0 else 1))
        backtrack(mark)
        if not ok:
            return False
        if gac and weight + max_coef > bound:
            for j, (coef, lit) in enumerate(terms):
                if (not chosen[j] and weight + coef > bound
                        and values[abs(lit)] != (2 if lit > 0 else 1)):
                    return False
        for j in range(start, n):
            coef, lit = terms[j]
            w = weight + coef
            mark = len(trail)
            if w > bound:
                ok = not assume(lit)
            else:
                chosen[j] = True
                ok = assume(lit) and sets(j + 1, w)
                chosen[j] = False
            backtrack(mark)
            if not ok:
                return False
        return True

    return sets(0, 0)


def _walk(c: PBConstraint, engine: UnitPropagator, conflict: bool,
          gac: bool) -> tuple[Counterexample | None, Counterexample | None]:
    """`check_encoding`'s verdicts from the walk over all 3^n partial assignments.

    `engine` holds the propagation of the unit clauses alone, which
    `conflict` says refutes them.
    """
    bound, terms = c.bound, c.terms
    n = len(terms)
    values, trail = engine.values, engine.trail
    assume, backtrack = engine.assume, engine.backtrack
    # the children of variable j after None: (literal assumed, weight it adds)
    steps = [((-t.var, 0 if t.lit > 0 else t.coef), (t.var, t.coef if t.lit > 0 else 0))
             for t in terms]
    max_coef = max(c.coefficients(), default=0)
    assigned = [False] * n
    path: list[int] = []
    cons = _OPEN
    arc = _OPEN if gac else None

    def here(detail: str, variable: int | None = None) -> Counterexample:
        return Counterexample({abs(lit): lit > 0 for lit in path}, variable, detail)

    def visit(conflict: bool, weight: int) -> bool:
        """Settle what the current path, which is extendable, violates; True once none is open."""
        nonlocal cons, arc
        if conflict and cons is _OPEN:
            cons = here(_SPURIOUS)
        if arc is _OPEN and weight + max_coef > bound:  # some literal may be forced
            for j, (coef, lit) in enumerate(terms):
                if assigned[j] or weight + coef <= bound:
                    continue
                if conflict:
                    arc = here(_SPURIOUS)
                elif values[abs(lit)] != (2 if lit > 0 else 1):
                    arc = here(f"literal {-lit} is forced but was not propagated", abs(lit))
                else:
                    continue
                break
        return cons is not _OPEN and arc is not _OPEN

    def walk(start: int, weight: int, conflict: bool) -> bool:
        # Assignments extending the path, which is extendable, by variables
        # from `start` on; the last free variable varies first.  While
        # consistency is open nothing on the path conflicts.  True once
        # every verdict is settled, which ends the walk.
        nonlocal cons
        for j in range(n - 1, start - 1, -1):
            assigned[j] = True
            for lit, add in steps[j]:
                w = weight + add
                mark = len(trail)
                if w > bound:
                    # inextensible, and so is all below, where conflicts
                    # persist: only consistency looks, at this step alone
                    if cons is not _OPEN:
                        continue
                    if assume(lit):
                        path.append(lit)
                        cons = here(_UNDETECTED)
                        if arc is not _OPEN:
                            return True
                        path.pop()
                    backtrack(mark)
                    continue
                # below a conflict nothing more is propagated
                below = conflict or not assume(lit)
                path.append(lit)
                if visit(below, w) or walk(j + 1, w, below):
                    return True
                path.pop()
                backtrack(mark)
            assigned[j] = False
        return False

    if bound < 0:  # nothing extends: GAC holds, consistency needs a refutation
        cons = None if conflict else here(_UNDETECTED)
    elif not visit(conflict, 0):
        walk(0, 0, conflict)
    return (None if cons is _OPEN else cons), (None if arc is _OPEN else arc)


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
    return check_encoding(c, cnf, limit, gac=False)[0]


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
    return check_encoding(c, cnf, limit)[1]


def check_equivalent(c1: PBConstraint, c2: PBConstraint) -> bool:
    """Do two constraints represent the same Boolean function?

    Each row is cut to its support, the terms whose build level holds a
    node; a function does not depend on the others, so they may be false.
    A normalized row is decreasing in each literal, and no function that
    depends on x is decreasing in both x and ~x, so equal functions have
    supports of the same signed literals.  Those are built in one store,
    the second under the first's order; canonicity makes function equality
    the same as root equality.
    """
    def support(c):
        widths = level_widths(build(c))
        return PBConstraint(tuple(t for t, w in zip(c.terms, widths) if w), c.bound)

    c1, c2 = support(c1), support(c2)
    if set(c1.literals()) != set(c2.literals()):
        return False
    store = NodeStore()
    return build(c1, store=store).root == build(c2, c1.variables(), store=store).root


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
    """Diagram certificate that no subset of `coefficients` sums to exactly `k`.

    The sum k is unreachable iff `sum <= k-1` has the same diagram as
    `sum <= k`, that is iff k-1 lies in the root interval of the build of
    `sum <= k`.
    """
    c = PBConstraint.from_pairs([(a, i) for i, a in enumerate(coefficients, 1)], k)
    return build(c).root_interval.contains(k - 1)


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
