"""Independent oracles used by the test suite.

The node counter builds a full decision tree and reduces it textbook
style, models come from exhaustive evaluation, satisfiability checks are
a tiny self-contained DPLL, and propagation results can be replayed
against the clause list to validate conflict claims.  The reference
emitters are the original raw emission of `pbdd.encode` followed by a
rescan-to-fixpoint unit simplification, numbering the nodes in a
recursive lo-first post-order (`reference_post_order`);
`reference_reachable_nodes` is the previous depth-first `reachable_nodes`,
an independent oracle for the reachable set.  `reference_bdd3` is the
bdd3 pipeline with a fresh store per literal, before the per-literal
builds shared one store.  The enumerating
property checkers at the end are the previous implementations of
`pbdd.verify`'s checkers; they use only `UnitPropagator.run`, which
propagates every assignment from scratch.  `spurious_conflict_enumerate`
asks the same way whether any extendable assignment conflicts.
`reference_build` is the previous construction loop of `pbdd.builder`,
on the previous interval algebra (`_RefInterval` with `_Infinity` ends,
kept here as a private copy), level stores holding explicit terminal
entries and `NodeStore.mk_node`; it returns public `Interval`s, None for
an infinite end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

from pbdd.builder import BuildStats, NodeBudgetExceeded, build
from pbdd.constraints import PBConstraint, evaluate
from pbdd.encode import decompose, encode_monotone
from pbdd.intervals import Interval
from pbdd.propagate import CONFLICT, UnitPropagator
from pbdd.robdd import NodeStore, TRUE_NODE
from pbdd.verify import DEFAULT_ENUM_LIMIT, Counterexample

EXTEND_ENUM_LIMIT = 14  # extendable_enumerate tries all 2^k completions


def reduced_node_count(c: PBConstraint, order=None) -> int:
    """Decision nodes of the canonical diagram, via 2^n-leaf tree reduction.

    Builds the complete decision tree over the variable order bottom-up
    with hash consing, dropping nodes with equal children; counts the
    distinct decision nodes reachable from the root.
    """
    variables = list(order) if order is not None else list(c.variables())
    n = len(variables)
    unique: dict[tuple, object] = {}

    def mk(level, lo, hi):
        if lo == hi:
            return lo
        key = (level, lo, hi)
        return unique.setdefault(key, key)

    def subtree(level, assignment):
        if level > n:
            return evaluate(c, assignment)
        var = variables[level - 1]
        assignment[var] = 0
        lo = subtree(level + 1, assignment)
        assignment[var] = 1
        hi = subtree(level + 1, assignment)
        del assignment[var]
        return mk(level, lo, hi)

    root = subtree(1, {})
    count = 0
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple) or node in seen:
            continue
        seen.add(node)
        count += 1
        stack.append(node[1])
        stack.append(node[2])
    return count


def model_set(c: PBConstraint) -> set[tuple[int, ...]]:
    """All satisfying total assignments, as value tuples over sorted variables."""
    variables = sorted(c.variables())
    models = set()
    for values in product((0, 1), repeat=len(variables)):
        if evaluate(c, dict(zip(variables, values))):
            models.add(values)
    return models


def truth_table_equal(c1: PBConstraint, c2: PBConstraint) -> bool:
    variables = sorted(set(c1.variables()) | set(c2.variables()))
    for values in product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        full1 = {v: assignment.get(v, 0) for v in c1.variables()}
        full2 = {v: assignment.get(v, 0) for v in c2.variables()}
        if evaluate(c1, {**assignment, **full1}) != evaluate(c2, {**assignment, **full2}):
            return False
    return True


def raw_models(raw, variables) -> set[tuple[int, ...]]:
    """Models of an unnormalized constraint over the given variable tuple."""
    ops = {
        "<": int.__lt__, ">": int.__gt__, "<=": int.__le__,
        ">=": int.__ge__, "=": int.__eq__,
    }
    op = ops[raw.op]
    models = set()
    for values in product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        total = sum(coef * assignment[var] for coef, var in raw.terms)
        if op(total, raw.bound):
            models.add(values)
    return models


def dpll_satisfiable(clauses, assignment: dict[int, bool] | None = None) -> bool:
    """Plain recursive DPLL with unit propagation; independent of the package."""
    assignment = dict(assignment or {})

    def value(lit):
        v = assignment.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    # propagate units until fixpoint
    while True:
        unit = None
        for cl in clauses:
            unassigned = None
            n_unassigned = 0
            satisfied = False
            for l in cl:
                val = value(l)
                if val is True:
                    satisfied = True
                    break
                if val is None:
                    unassigned = l
                    n_unassigned += 1
            if satisfied:
                continue
            if n_unassigned == 0:
                return False
            if n_unassigned == 1:
                unit = unassigned
                break
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0

    for cl in clauses:
        for l in cl:
            if value(l) is None:
                for choice in (True, False):
                    trial = dict(assignment)
                    trial[abs(l)] = choice if l > 0 else not choice
                    if dpll_satisfiable(clauses, trial):
                        return True
                return False
    return True  # every clause satisfied


def reference_unit_propagate(clauses, seed):
    """Slow scan-to-fixpoint propagation; returns (status, set of literals)."""
    assigned = set(seed)
    for l in assigned:
        if -l in assigned:
            raise ValueError("contradictory seed")
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(l in assigned for l in cl):
                continue
            free = [l for l in cl if -l not in assigned]
            if not free:
                return "conflict", assigned
            if len(free) == 1:
                assigned.add(free[0])
                changed = True
    return "fixpoint", assigned


def unit_simplify_fixpoint(raw: list[list[int]], fixed: dict[int, bool]) -> list[tuple[int, ...]]:
    """Reference unit simplification: rescan every clause until a pass changes nothing.

    The original simplifier of `pbdd.encode`, kept as the differential
    oracle for the direct emission of `encode_monotone` and the
    propagation-based simplification of `encode_ite6`, which must give the
    same list through `reference_emit`.

    Clauses satisfied by a propagated literal are dropped, false literals
    are deleted, and derived unit clauses over non-fixed variables stay in
    the output.  A derived contradiction collapses to a single empty clause.
    """
    value = dict(fixed)
    units: list[int] = []
    clauses = [list(dict.fromkeys(cl)) for cl in raw]
    live = [True] * len(clauses)
    changed = True
    while changed:
        changed = False
        for ci, cl in enumerate(clauses):
            if not live[ci]:
                continue
            pending = []
            satisfied = False
            for l in cl:
                have = value.get(abs(l))
                if have is None:
                    if -l in cl:
                        satisfied = True  # tautology
                        break
                    pending.append(l)
                elif have == (l > 0):
                    satisfied = True
                    break
            if satisfied:
                live[ci] = False
                changed = True
                continue
            if not pending:
                return [()]
            if len(pending) == 1:
                l = pending[0]
                value[abs(l)] = l > 0
                if abs(l) not in fixed:
                    units.append(l)
                live[ci] = False
                changed = True
    out: list[tuple[int, ...]] = [(u,) for u in units]
    for ci, cl in enumerate(clauses):
        if live[ci]:
            out.append(tuple(l for l in cl if abs(l) not in value))
    return out


def reference_reachable_nodes(store, root) -> list[int]:
    """Decision nodes reachable from `root` by depth-first search, sorted by id."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid < 2 or nid in seen:
            continue
        seen.add(nid)
        _, lo, hi = store.node(nid)
        stack.append(lo)
        stack.append(hi)
    return sorted(seen)


def reference_post_order(store, root) -> list[int]:
    """Decision nodes reachable from `root`, each after its lo then its hi subtree."""
    order: list[int] = []
    seen: set[int] = set()

    def visit(nid: int) -> None:
        if nid < 2 or nid in seen:
            return
        seen.add(nid)
        _, lo, hi = store.node(nid)
        visit(lo)
        visit(hi)
        order.append(nid)

    visit(root)
    return order


def reference_bdd3(c: PBConstraint, out) -> None:
    """bdd3 with a fresh `NodeStore` per literal fixed true, encoded into `out`."""
    if c.trivially_true:
        return
    if c.trivially_false:
        out.add(())
        return
    for idx, t in enumerate(c.terms):
        ci = PBConstraint(c.terms[:idx] + c.terms[idx + 1 :], c.bound - t.coef)
        if ci.trivially_true:
            continue
        if ci.trivially_false:
            out.add((-t.lit,))
            continue
        d = decompose(ci)
        r = build(d.decomposed)
        encode_monotone(r.store, r.root, d.bit_literals, out, implied_lit=t.lit)


def reference_emit(store, root, selector_lits, out, per_node, implied_lit, offset=0):
    """The original emitter: raw clauses with two terminal helpers, then simplified.

    Allocates one auxiliary variable per reachable node in post-order plus
    the TRUE and FALSE helpers, emits `per_node(n, x, lo, hi)` for every
    node, the helper units and the root clause (a unit, or
    `root | -implied_lit` given `implied_lit`), counts them into
    `out.raw_count`, and adds the `unit_simplify_fixpoint` result to `out`.
    Store level L tests `selector_lits[L - 1 - offset]`.
    """
    nodes = reference_post_order(store, root)
    first = out.next_var
    var_of = {nid: first + k for k, nid in enumerate(nodes)}
    top = first + len(nodes)
    bot = top + 1
    out.next_var = bot + 1

    def lit_of(child: int) -> int:
        if child >= 2:
            return var_of[child]
        return top if child == TRUE_NODE else bot

    raw: list[list[int]] = []
    for nid in nodes:
        level, lo, hi = store.node(nid)
        x = selector_lits[level - 1 - offset]
        raw.extend(per_node(var_of[nid], x, lit_of(lo), lit_of(hi)))
    raw.append([top])
    raw.append([-bot])
    if implied_lit is None:
        raw.append([lit_of(root)])
    else:
        raw.append([lit_of(root), -implied_lit])

    out.raw_count += len(raw)
    for cl in unit_simplify_fixpoint(raw, {top: True, bot: False}):
        out.add(cl)
    return var_of.get(root)


def reference_encode_monotone(store, root, selector_lits, out,
                              implied_lit=None, offset=0, order=None):
    """`encode_monotone` by raw emission and the fixpoint simplifier.

    `order` is accepted and ignored: the reference always traverses.
    """

    def per_node(nvar, x, lo_lit, hi_lit):
        return [[lo_lit, -nvar], [hi_lit, -x, -nvar]]

    return reference_emit(store, root, selector_lits, out, per_node, implied_lit,
                          offset)


def reference_encode_ite6(store, root, selector_lits, out, offset=0, order=None):
    """`encode_ite6` by raw emission and the fixpoint simplifier; `order` is ignored."""

    def per_node(nvar, x, f, t):
        return [
            [x, f, -nvar],
            [-x, t, -nvar],
            [f, t, -nvar],
            [x, -f, nvar],
            [-x, -t, nvar],
            [-f, -t, nvar],
        ]

    return reference_emit(store, root, selector_lits, out, per_node, None, offset)


def cnf_model_set_matches(c: PBConstraint, clauses, engine=None) -> bool:
    """Do the CNF's models, restricted to input variables, equal c's models?

    Sound on both sides without trusting the propagation engine: claimed
    models are checked clause by clause against an explicit valuation, and
    claimed non-models need a replayable propagation conflict.  Anything
    unresolved falls back to the self-contained DPLL.
    """
    variables = c.variables()
    if engine is None:
        engine = UnitPropagator(clauses, num_vars=max(variables, default=0))
    for values in product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        want = evaluate(c, assignment)
        seed = [v if b else -v for v, b in assignment.items()]
        status, vals, trail, reasons, conflict = engine.run(seed)
        if want:
            if status == CONFLICT:
                return False  # propagation refutes a genuine model
            # candidate: propagated values, unassigned auxiliaries false
            ok = all(
                any(vals[abs(l)] == (1 if l > 0 else 0) or
                    (vals[abs(l)] == 2 and l < 0) for l in cl)
                for cl in engine.clauses
            )
            if not ok and not dpll_satisfiable(
                    engine.clauses, {v: bool(b) for v, b in assignment.items()}):
                return False
        else:
            if status == CONFLICT:
                if not replay_conflict(engine.clauses, seed, trail, reasons, conflict):
                    return False  # engine reported a bogus conflict
            elif dpll_satisfiable(engine.clauses, {v: bool(b) for v, b in assignment.items()}):
                return False
    return True


def replay_conflict(clauses, seed, trail, reasons, conflict_clause) -> bool:
    """Validate a claimed propagation conflict step by step.

    Every trail literal must either be a seed or the sole non-false
    literal of its antecedent at that point, and the conflict clause must
    end up with all literals false.  A successful replay is a genuine
    unsatisfiability certificate for the clause set under the seed.
    """
    seed = set(seed)
    assigned: set[int] = set()
    for lit, reason in zip(trail, reasons):
        if reason is None:
            if lit not in seed:
                return False
        else:
            cl = clauses[reason]
            if lit not in cl:
                return False
            for other in cl:
                if other != lit and -other not in assigned:
                    return False
        assigned.add(lit)
    return all(-l in assigned for l in clauses[conflict_clause])


# The property checkers as they were before `pbdd.verify` switched to a
# depth-first walk with incremental propagation: every partial assignment
# is enumerated and propagated from scratch with `UnitPropagator.run`.
# Kept as differential oracles; the walk must return the same
# Counterexample (assignment, variable, detail) on every input.

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


def extendable_enumerate(
    c: PBConstraint,
    assignment: Mapping[int, bool],
    limit: int = EXTEND_ENUM_LIMIT,
) -> bool:
    """Can `assignment` be extended to a total assignment satisfying `c`?

    Tries all 2^k completions; `pbdd.verify.extendable` answers the same
    question by setting every unassigned literal false.
    """
    if len(c.terms) > limit:
        raise ValueError(f"constraint has {len(c.terms)} variables, limit is {limit}")
    free = [v for v in c.variables() if assignment.get(v) is None]
    base = {v: int(b) for v, b in assignment.items() if b is not None}
    for values in product((0, 1), repeat=len(free)):
        full = dict(base)
        full.update(zip(free, values))
        if evaluate(c, full):
            return True
    return False


def _partial_assignments(variables):
    for values in product((None, False, True), repeat=len(variables)):
        yield {v: b for v, b in zip(variables, values) if b is not None}


def _clause_list(cnf):
    return getattr(cnf, "clauses", cnf)


def check_consistency_enumerate(
    c: PBConstraint,
    cnf,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> Counterexample | None:
    """Inextensible partial assignments must be detected by propagation.

    Propagation from A must conflict exactly when A cannot be extended to
    a model of `c`.
    """
    n = len(c.terms)
    if n > limit:
        raise ValueError(f"constraint has {n} variables, enumeration limit is {limit}")
    variables = c.variables()
    engine = UnitPropagator(_clause_list(cnf), num_vars=max(variables, default=0))
    bound = c.bound
    for a in _partial_assignments(variables):
        seed = [v if b else -v for v, b in a.items()]
        conflict = engine.run(seed)[0] == CONFLICT
        ok = _true_weight(c, a) <= bound  # monotone extendability
        if ok and conflict:
            return Counterexample(a, None, "spurious conflict on extendable assignment")
        if not ok and not conflict:
            return Counterexample(a, None, "inextensible assignment not detected")
    return None


def spurious_conflict_enumerate(c: PBConstraint, cnf) -> bool:
    """Does propagation conflict on some extendable partial assignment?"""
    variables = c.variables()
    engine = UnitPropagator(_clause_list(cnf), num_vars=max(variables, default=0))
    return any(
        _true_weight(c, a) <= c.bound
        and engine.run([v if b else -v for v, b in a.items()])[0] == CONFLICT
        for a in _partial_assignments(variables)
    )


def check_gac_enumerate(
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
    n = len(c.terms)
    if n > limit:
        raise ValueError(f"constraint has {n} variables, enumeration limit is {limit}")
    variables = c.variables()
    engine = UnitPropagator(_clause_list(cnf), num_vars=max(variables, default=0))
    bound = c.bound
    for a in _partial_assignments(variables):
        base = _true_weight(c, a)
        if base > bound:
            continue  # not extendable; consistency's business
        forced = [
            -lit for coef, lit in c.terms
            if abs(lit) not in a and base + coef > bound
        ]
        if not forced:
            continue
        seed = [v if b else -v for v, b in a.items()]
        status, values, _, _, _ = engine.run(seed)
        if status == CONFLICT:
            return Counterexample(a, None, "spurious conflict on extendable assignment")
        for lit in forced:
            if values[abs(lit)] != (1 if lit > 0 else 2):
                return Counterexample(
                    a, abs(lit), f"literal {lit} is forced but was not propagated"
                )
    return None


class _Infinity:
    """Signed infinity that compares and saturates against plain ints."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other):
        if isinstance(other, _Infinity):
            return self.sign <= other.sign
        return self.sign < 0

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __ge__(self, other):
        if isinstance(other, _Infinity):
            return self.sign >= other.sign
        return self.sign > 0

    def __eq__(self, other):
        return isinstance(other, _Infinity) and self.sign == other.sign

    def __hash__(self):
        return hash(("inf", self.sign))

    def __add__(self, other):
        if isinstance(other, _Infinity) and other.sign != self.sign:
            raise ValueError("adding opposite infinities")
        return self

    __radd__ = __add__

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


_POS_INF = _Infinity(1)
_NEG_INF = _Infinity(-1)


@dataclass(frozen=True)
class _RefInterval:
    """Closed integer interval [lo, hi]; either end may be infinite."""

    lo: int | _Infinity
    hi: int | _Infinity

    @property
    def is_empty(self) -> bool:
        return not self.lo <= self.hi

    def shift(self, delta: int) -> "_RefInterval":
        return _RefInterval(self.lo + delta, self.hi + delta)

    def intersect(self, other: "_RefInterval") -> "_RefInterval":
        lo = self.lo if other.lo <= self.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        return _RefInterval(lo, hi)

    def public(self) -> Interval:
        """The same interval as `pbdd.Interval`, None for an infinite end."""
        return Interval(None if self.lo == _NEG_INF else self.lo,
                        None if self.hi == _POS_INF else self.hi)


class ReferenceLevelStore:
    """Disjoint (interval, node) pairs for one level, keyed by interval lower bound.

    Disjointness makes lower-bound bisection sufficient for lookups; it is
    checked on every insert (ValueError).
    """

    __slots__ = ("level", "_lows", "_entries")

    def __init__(self, level: int):
        self.level = level
        self._lows: list = []
        self._entries: list[tuple[_RefInterval, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[tuple[Interval, int]]:
        return [(iv.public(), node) for iv, node in self._entries]

    def search(self, k: int) -> tuple[_RefInterval, int] | None:
        """The unique stored pair whose interval contains `k`, if any."""
        idx = bisect_right(self._lows, k) - 1
        if idx >= 0:
            iv, node = self._entries[idx]
            if k <= iv.hi:
                return iv, node
        return None

    def insert(self, iv: _RefInterval, node: int) -> None:
        if iv.is_empty:
            raise ValueError("refusing to insert an empty interval")
        idx = bisect_right(self._lows, iv.lo)
        if idx > 0:
            prev, _ = self._entries[idx - 1]
            if not prev.hi < iv.lo:
                raise ValueError(f"interval {iv} overlaps stored {prev}")
        if idx < len(self._entries):
            nxt, _ = self._entries[idx]
            if not iv.hi < nxt.lo:
                raise ValueError(f"interval {iv} overlaps stored {nxt}")
        self._lows.insert(idx, iv.lo)
        self._entries.insert(idx, (iv, node))


@dataclass
class ReferenceBuild:
    constraint: PBConstraint
    order: tuple[int, ...]
    coefs: tuple[int, ...]
    level_lits: tuple[int, ...]
    store: NodeStore
    root: int
    root_interval: Interval
    intervals: dict[int, Interval]
    level_stores: tuple[ReferenceLevelStore, ...]
    stats: BuildStats = field(default_factory=BuildStats)


def reference_build(
    c: PBConstraint,
    order: Sequence[int] | None = None,
    *,
    store: NodeStore | None = None,
    node_budget: int | None = None,
) -> ReferenceBuild:
    """The previous `pbdd.builder.build`, kept verbatim as a differential oracle."""
    terms = c.terms
    if order is not None:
        by_var = {t.var: t for t in terms}
        if sorted(order) != sorted(by_var):
            raise ValueError("order must be a permutation of the constraint's variables")
        terms = tuple(by_var[v] for v in order)
    coefs = tuple(t.coef for t in terms)
    lits = tuple(t.lit for t in terms)
    n = len(terms)
    if store is None:
        store = NodeStore()

    # suffix[i] = a_i + ... + a_n  (1-based; suffix[n+1] = 0)
    suffix = [0] * (n + 2)
    for i in range(n, 0, -1):
        suffix[i] = suffix[i + 1] + coefs[i - 1]

    levels = [None] + [ReferenceLevelStore(i) for i in range(1, n + 2)]
    for i in range(1, n + 2):
        levels[i].insert(_RefInterval(_NEG_INF, -1), 0)
        levels[i].insert(_RefInterval(suffix[i], _POS_INF), 1)

    stats = BuildStats()
    intervals: dict[int, _RefInterval] = {}

    # Explicit stack instead of recursion: coefficient decomposition can
    # produce n*(log a_max + 1) levels, well past the recursion limit.
    results: list[tuple[_RefInterval, int]] = []
    stack: list[tuple[int, int, bool]] = [(1, c.bound, False)]
    while stack:
        i, k, combine = stack.pop()
        if combine:
            t_iv, t_node = results.pop()
            f_iv, f_node = results.pop()
            a = coefs[i - 1]
            if f_iv == t_iv:
                stats.merges += 1
                node = t_node
                iv = _RefInterval(t_iv.lo + a, t_iv.hi)
            else:
                before = len(store)
                node = store.mk_node(i, f_node, t_node)
                if len(store) > before:
                    stats.created += 1
                    if node_budget is not None and stats.created > node_budget:
                        raise NodeBudgetExceeded(
                            f"build exceeded node budget of {node_budget}"
                        )
                iv = f_iv.intersect(t_iv.shift(a))
                if iv.is_empty:
                    raise ValueError("child intervals do not intersect")
                intervals[node] = iv
            levels[i].insert(iv, node)
            results.append((iv, node))
            continue
        stats.calls += 1
        hit = levels[i].search(k)
        if hit is not None:
            stats.hits += 1
            results.append(hit)
            continue
        a = coefs[i - 1]
        stack.append((i, k, True))
        stack.append((i + 1, k - a, False))  # hi branch: literal true
        stack.append((i + 1, k, False))      # lo branch evaluated first

    root_interval, root = results.pop()
    return ReferenceBuild(
        constraint=c,
        order=tuple(t.var for t in terms),
        coefs=coefs,
        level_lits=lits,
        store=store,
        root=root,
        root_interval=root_interval.public(),
        intervals={node: iv.public() for node, iv in intervals.items()},
        level_stores=tuple(levels[1:]),
        stats=stats,
    )
