"""CNF emission for monotone decision diagrams and the encoding pipelines.

Three pipelines share the same clause shape per node (one binary plus one
ternary clause) and differ in what diagram they encode:

  bdd1 - the plain reduced ordered BDD of the constraint, root asserted true;
  bdd2 - the BDD of the coefficient-decomposed constraint with every bit
         variable substituted by its original literal (consistent, not
         arc-consistent);
  bdd3 - one decomposed, consistency-mode encoding per input literal fixed
         true, wired back with a binary clause per literal (arc-consistent).

`encode_ite6` is the classic 6-clause if-then-else translation, kept as a
baseline.  Emission always produces the terminal unit clauses and then
eliminates them by unit simplification, so outputs never mention the
terminal helper variables.  Simplification costs one pass over the
emitted clauses plus work proportional to the clauses touched by derived
units, and its output order is that of rescanning every clause until
nothing changes: derived units first, then the surviving clauses in
emission order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate

from .builder import BuildResult, build
from .constraints import PBConstraint, Term
from .robdd import NodeStore, TRUE_NODE, reachable_nodes

Clause = tuple[int, ...]

PIPELINES = ("bdd1", "bdd2", "bdd3", "ite6")


@dataclass
class ClauseSet:
    """CNF under construction: clauses plus a monotone variable allocator.

    Input variables occupy 1..num_inputs and map to themselves; auxiliary
    variables are handed out above that, one per diagram node in node
    creation order.
    """

    num_inputs: int = 0
    clauses: list[Clause] = field(default_factory=list)
    raw_count: int = 0  # clauses emitted before unit simplification
    next_var: int = field(init=False)

    def __post_init__(self):
        self.next_var = self.num_inputs + 1

    def new_var(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def add(self, lits) -> Clause:
        """Append `lits` without duplicates; ValueError on complementary or unallocated literals."""
        seen = dict.fromkeys(lits)
        clause = tuple(seen)
        for l in clause:
            if -l in seen:
                raise ValueError(f"complementary literals in clause {clause}")
            if abs(l) >= self.next_var:
                raise ValueError(f"unallocated variable in {clause}")
        self.clauses.append(clause)
        return clause

    @property
    def max_var(self) -> int:
        return self.next_var - 1

    def live_aux_vars(self) -> set[int]:
        """Auxiliary variables still mentioned after simplification."""
        return {abs(l) for cl in self.clauses for l in cl if abs(l) > self.num_inputs}


def clause_set_for(c: PBConstraint) -> ClauseSet:
    return ClauseSet(num_inputs=max(c.variables(), default=0))


@dataclass(frozen=True)
class Decomposition:
    """A constraint rewritten over one fresh bit variable per set coefficient bit."""

    original: PBConstraint
    decomposed: PBConstraint          # over bit variables 1..m, all positive
    bit_literals: tuple[int, ...]     # bit level -> original signed literal
    bit_tags: tuple[tuple[int, int], ...]  # bit level -> (power, original position)


def decompose(c: PBConstraint) -> Decomposition:
    """Split every coefficient into powers of two, one bit variable per set bit.

    Bit variables are ordered by ascending power, ties broken by original
    term position; the bound is unchanged.
    """
    entries: list[tuple[int, int, int]] = []  # (power, position, original lit)
    for pos, t in enumerate(c.terms, 1):
        a = t.coef
        power = 0
        while a:
            if a & 1:
                entries.append((power, pos, t.lit))
            a >>= 1
            power += 1
    entries.sort(key=lambda e: (e[0], e[1]))
    terms = tuple(Term(1 << power, idx) for idx, (power, _, _) in enumerate(entries, 1))
    return Decomposition(
        original=c,
        decomposed=PBConstraint(terms, c.bound),
        bit_literals=tuple(lit for _, _, lit in entries),
        bit_tags=tuple((power, pos) for power, pos, _ in entries),
    )


def _open_literals(lits, value: dict[int, bool]) -> list[int] | None:
    """The unassigned literals of a clause, or None if it is satisfied or a tautology."""
    pending = []
    for l in lits:
        have = value.get(abs(l))
        if have is None:
            if -l in lits:
                return None  # tautology
            pending.append(l)
        elif have == (l > 0):
            return None
    return pending


def _occurrences(clauses: list[list[int] | None]):
    """CSR occurrence lists of the variables of the live clauses.

    Returns (slot, start, occ): the live clauses mentioning variable v are
    occ[start[slot[v]]:start[slot[v] + 1]], in ascending clause order.
    """
    slot: dict[int, int] = {}
    counts: list[int] = []
    for cl in clauses:
        if cl is not None:
            for l in cl:
                v = abs(l)
                s = slot.get(v)
                if s is None:
                    slot[v] = len(counts)
                    counts.append(1)
                else:
                    counts[s] += 1
    start = array("i", accumulate(counts, initial=0))
    fill = array("i", start)
    occ = array("i", bytes(4 * start[-1]))
    for ci, cl in enumerate(clauses):
        if cl is not None:
            for l in cl:
                s = slot[abs(l)]
                occ[fill[s]] = ci
                fill[s] += 1
    return slot, start, occ


def _unit_simplify(raw: list[list[int]], fixed: dict[int, bool]) -> list[Clause]:
    """Propagate the terminal constants and any derived units through `raw`.

    Clauses satisfied by a propagated literal are dropped, false literals
    are deleted, and derived unit clauses over non-fixed variables stay in
    the output.  A derived contradiction collapses to a single empty clause.

    Order contract: the result is that of rescanning all clauses in order
    until a whole pass changes nothing (`unit_simplify_fixpoint` in the
    test oracles): derived units first, in derivation order, then the
    surviving clauses in input order.  Only the first pass scans every
    clause.  Later passes are replayed from a worklist ordered by
    (pass, clause index): when clause i assigns v, each live clause k
    mentioning v is examined again later in the same pass if k > i and in
    the next pass otherwise, which is when the full rescan would first see
    the change.  Cost: one pass over the clauses plus work proportional to
    the clauses touched by derived units.  `raw` is consumed.
    """
    value = dict(fixed)
    units: list[int] = []

    def assign(l: int) -> int:
        v = abs(l)
        value[v] = l > 0
        if v not in fixed:
            units.append(l)
        return v

    # pass 1.  `raw` is consumed in place: a live clause is kept as its
    # open literals at its last examination, and None marks a dropped one.
    clauses: list[list[int] | None] = raw
    for ci, cl in enumerate(clauses):
        pending = _open_literals(dict.fromkeys(cl), value)
        if pending is not None and len(pending) < 2:
            if not pending:
                return [()]
            assign(pending[0])
            pending = None
        clauses[ci] = pending

    # pass 2 examines the live clauses that hold a variable assigned after
    # they were scanned; every assigned variable they hold qualifies
    current: list[int] = []
    if len(value) > len(fixed):
        current = [
            ci for ci, cl in enumerate(clauses)
            if cl is not None and any(abs(l) in value for l in cl)
        ]
    if current:
        slot, start, occ = _occurrences(clauses)
        queued_for = array("i", bytes(4 * len(clauses)))
        pass_no = 2
        for ci in current:
            queued_for[ci] = pass_no
        following: list[int] = []
        while current:
            while current:
                ci = heappop(current)
                pending = _open_literals(clauses[ci], value)
                if pending is None or len(pending) > 1:
                    clauses[ci] = pending
                    continue
                if not pending:
                    return [()]
                clauses[ci] = None
                s = slot[assign(pending[0])]
                for k in occ[start[s]:start[s + 1]]:
                    if clauses[k] is None:
                        continue
                    if k > ci:
                        if queued_for[k] != pass_no:
                            queued_for[k] = pass_no
                            heappush(current, k)
                    elif queued_for[k] != pass_no + 1:
                        queued_for[k] = pass_no + 1
                        following.append(k)
            following.sort()
            current, following = following, []
            pass_no += 1

    # every live clause was last examined after its variables' assignments
    out: list[Clause] = [(u,) for u in units]
    out.extend(tuple(cl) for cl in clauses if cl is not None)
    return out


def _emit(
    store: NodeStore,
    root: int,
    selector_lits,
    out: ClauseSet,
    per_node,
    root_mode: str,
    implied_lit: int | None,
) -> int | None:
    nodes = reachable_nodes(store, root)
    var_of: dict[int, int] = {}
    for nid in nodes:
        var_of[nid] = out.new_var()
    # transient helper variables for the two terminals, eliminated below
    top = out.new_var()
    bot = out.new_var()

    def lit_of(child: int) -> int:
        if child >= 2:
            return var_of[child]
        return top if child == TRUE_NODE else bot

    raw: list[list[int]] = []
    for nid in nodes:
        level, lo, hi = store.node(nid)
        x = selector_lits[level - 1]
        raw.extend(per_node(var_of[nid], x, lit_of(lo), lit_of(hi)))
    raw.append([top])
    raw.append([-bot])
    if root_mode == "unit":
        raw.append([lit_of(root)])
    elif root_mode == "implies":
        if implied_lit is None:
            raise ValueError("root_mode='implies' needs implied_lit")
        raw.append([lit_of(root), -implied_lit])
    elif root_mode != "consistency":
        raise ValueError(f"unknown root_mode {root_mode!r}")

    out.raw_count += len(raw)
    for cl in _unit_simplify(raw, {top: True, bot: False}):
        out.add(cl)
    return var_of.get(root)


def encode_monotone(
    store: NodeStore,
    root: int,
    selector_lits,
    out: ClauseSet,
    root_mode: str = "unit",
    implied_lit: int | None = None,
) -> int | None:
    """Two clauses per node for a diagram of a monotone decreasing function.

    For a node n with selector literal x and children f (lo) and t (hi):
    `f' -> n'` and `t' & x -> n'` (primes denote negation).  The diagram
    need not be reduced or even test each input once, but it must be
    monotone; that is not checked here.  `root_mode` is "unit" (assert the
    root), "implies" (add `root | -implied_lit`), or "consistency" (no
    root clause).  Returns the root's auxiliary variable, None for a
    terminal root.
    """

    def per_node(nvar: int, x: int, lo_lit: int, hi_lit: int):
        return [[lo_lit, -nvar], [hi_lit, -x, -nvar]]

    return _emit(store, root, selector_lits, out, per_node, root_mode, implied_lit)


def encode_ite6(store, root, selector_lits, out: ClauseSet) -> int | None:
    """Classic six-clause if-then-else translation, root asserted true.

    Works for arbitrary (not necessarily monotone) diagrams; emits
    6 clauses per node plus 3 units before simplification.
    """

    def per_node(nvar: int, x: int, f: int, t: int):
        return [
            [x, f, -nvar],
            [-x, t, -nvar],
            [f, t, -nvar],
            [x, -f, nvar],
            [-x, -t, nvar],
            [-f, -t, nvar],
        ]

    return _emit(store, root, selector_lits, out, per_node, "unit", None)


def _trivial(c: PBConstraint, out: ClauseSet) -> bool:
    # tautological and contradictory constraints bypass diagram construction
    if c.trivially_true:
        return True
    if c.trivially_false:
        out.add(())
        return True
    return False


def run_pipeline(
    method: str,
    c: PBConstraint,
    out: ClauseSet | None = None,
    *,
    node_budget: int | None = None,
) -> tuple[ClauseSet, list[BuildResult]]:
    """Encode `c` with one of the named pipelines; also returns the builds used."""
    if method not in PIPELINES:
        raise ValueError(f"unknown pipeline {method!r}")
    if out is None:
        out = clause_set_for(c)
    builds: list[BuildResult] = []
    if _trivial(c, out):
        return out, builds

    if method == "bdd1":
        r = build(c, node_budget=node_budget)
        builds.append(r)
        encode_monotone(r.store, r.root, r.level_lits, out, root_mode="unit")
    elif method == "ite6":
        r = build(c, node_budget=node_budget)
        builds.append(r)
        encode_ite6(r.store, r.root, r.level_lits, out)
    elif method == "bdd2":
        d = decompose(c)
        r = build(d.decomposed, node_budget=node_budget)
        builds.append(r)
        # substituting original literals for the bit variables happens in
        # the selector map; the diagram itself is left untouched
        encode_monotone(r.store, r.root, d.bit_literals, out, root_mode="unit")
    else:  # bdd3
        for idx, t in enumerate(c.terms):
            rest = c.terms[:idx] + c.terms[idx + 1 :]
            ci = PBConstraint(rest, c.bound - t.coef)
            if ci.trivially_true:
                continue
            if ci.trivially_false:
                out.add((-t.lit,))
                continue
            d = decompose(ci)
            r = build(d.decomposed, node_budget=node_budget)
            builds.append(r)
            encode_monotone(
                r.store, r.root, d.bit_literals, out,
                root_mode="implies", implied_lit=t.lit,
            )
    return out, builds


def pipeline_bdd1(c: PBConstraint, out: ClauseSet | None = None) -> ClauseSet:
    return run_pipeline("bdd1", c, out)[0]


def pipeline_bdd2(c: PBConstraint, out: ClauseSet | None = None) -> ClauseSet:
    return run_pipeline("bdd2", c, out)[0]


def pipeline_bdd3(c: PBConstraint, out: ClauseSet | None = None) -> ClauseSet:
    return run_pipeline("bdd3", c, out)[0]


def pipeline_ite6(c: PBConstraint, out: ClauseSet | None = None) -> ClauseSet:
    return run_pipeline("ite6", c, out)[0]


def encode_small(c: PBConstraint, out: ClauseSet | None = None) -> ClauseSet:
    """Aux-free encoding: one clause per minimal over-budget literal set.

    Practical only for a handful of variables; the CLI uses it for tiny
    constraints when asked to.
    """
    from itertools import combinations

    if out is None:
        out = clause_set_for(c)
    if _trivial(c, out):
        return out
    for size in range(1, len(c.terms) + 1):
        for subset in combinations(c.terms, size):
            total = sum(t.coef for t in subset)
            if total > c.bound and total - min(t.coef for t in subset) <= c.bound:
                out.add(tuple(-t.lit for t in subset))
    return out
