"""CNF emission for monotone decision diagrams and the encoding pipelines.

Three pipelines share the same clause shape per node (one binary plus one
ternary clause) and differ in what diagram they encode:

  bdd1 - the plain reduced ordered BDD of the constraint, root asserted true;
  bdd2 - the BDD of the coefficient-decomposed constraint with every bit
         variable substituted by its original literal (consistent, not
         arc-consistent);
  bdd3 - one decomposed encoding per input literal fixed true, its root
         implied by that literal through a binary clause (arc-consistent);
         the per-literal builds are cut from one decomposition of the
         constraint and share one node store.

`encode_monotone` serves all three.  For a reduced monotone diagram it
knows the unit-simplified result of its raw clauses without propagating:
the terminals fold into their parents' clauses, and the only units are
the root and its all-false (lo) chain, so it writes the final clauses in
one pass over the nodes.  `encode_ite6`, the classic 6-clause
if-then-else baseline, accepts arbitrary diagrams and simplifies its raw
clauses with one `UnitPropagator.run`.  Both allocate two terminal helper
ids per diagram, which `p cnf` counts and no clause mentions.
"""

from __future__ import annotations

from typing import NamedTuple

from .builder import BuildResult, build
from .constraints import PBConstraint, Record, Term
from .robdd import FALSE_NODE, NodeStore, TRUE_NODE, reachable_nodes

Clause = tuple[int, ...]

PIPELINES = ("bdd1", "bdd2", "bdd3", "ite6")


class ClauseSet(Record):
    """CNF under construction: clauses plus a monotone variable allocator.

    Input variables occupy 1..num_inputs and map to themselves; auxiliary
    variables are handed out above that, one per diagram node in the
    diagram's lo-first post-order (a fresh build's creation order).
    """

    __slots__ = _fields = ("num_inputs", "clauses", "raw_count", "next_var")

    def __init__(self, num_inputs: int = 0, clauses: list[Clause] | None = None,
                 raw_count: int = 0):
        self.num_inputs = num_inputs
        self.clauses = [] if clauses is None else clauses
        self.raw_count = raw_count  # clauses emitted before unit simplification
        self.next_var = num_inputs + 1

    def add(self, lits) -> Clause:
        """Append `lits` without duplicates; ValueError on complementary or unallocated literals.

        `encode_small`, `encode_ite6`, the trivial and bdd3 per-literal
        clauses of `run_pipeline`, and library callers go through here.
        `encode_monotone` checks its input literals once per diagram
        instead and appends to `clauses` directly.
        """
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


class Decomposition(NamedTuple):
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


def _node_vars(store: NodeStore, root: int, out: ClauseSet, order: range | None):
    """Nodes in lo-first post-order, their auxiliary variables, TRUE and FALSE helper ids.

    Given `order`, node n's variable is n plus a constant, listed by id.
    """
    nodes = reachable_nodes(store, root) if order is None else order
    first = out.next_var
    top = first + len(nodes)
    out.next_var = top + 2
    var_of = (dict(zip(nodes, range(first, top))) if order is None
              else list(range(first - order.start, top)))
    return nodes, var_of, top, top + 1


def _check_input_literals(lits, num_inputs: int, what: str) -> None:
    """ValueError unless every literal is nonzero with its variable in 1..num_inputs."""
    for lit in lits:
        if not 0 < abs(lit) <= num_inputs:
            raise ValueError(f"{what} {lit} is not a literal of an input variable "
                             f"1..{num_inputs}")


def encode_monotone(
    store: NodeStore,
    root: int,
    selector_lits,
    out: ClauseSet,
    implied_lit: int | None = None,
    offset: int = 0,
    order: range | None = None,
) -> int | None:
    """Two clauses per node for a diagram of a monotone decreasing function.

    For a node n with selector literal x and children f (lo) and t (hi):
    `f' -> n'` and `t' & x -> n'` (primes denote negation).  The root is
    asserted as a unit, or, given `implied_lit`, added as the clause
    `root | -implied_lit`.  The selector of store level L is
    `selector_lits[L - 1 - offset]`, `offset` being the build's
    (`BuildResult.offset`).  Returns the root's auxiliary variable, None
    for a terminal root.

    Auxiliary variables follow the reachable nodes in lo-first post-order.
    `run_pipeline` passes them as `order=range(2, root + 1)` for its bdd1
    and bdd2 builds into fresh stores; without `order`, as for bdd3's
    shared store or a hand-built one, `reachable_nodes` finds them.

    Preconditions: the diagram is reduced (any `NodeStore` diagram is) and
    monotone, and a variable may label several levels but always with the
    same polarity.  Then no lo edge goes to FALSE and no hi edge to TRUE
    (ValueError otherwise).  A TRUE lo child drops the lo clause and a
    FALSE hi child shortens the hi clause to `x -> n'`.  With the root a
    unit, the only units are the root, then per lo-chain node its lo child
    and its `x'` when hi is FALSE and `x'` is new; the other clauses follow
    in node order, without those a unit satisfies and without negated chain
    nodes.  This is the rescan-to-fixpoint simplification of the raw
    clauses with two terminal helpers, whose count goes to `out.raw_count`.

    The selector literals and `implied_lit` must be nonzero with their
    variables in 1..`out.num_inputs` (ValueError), checked once per
    diagram; the clauses then go straight into `out.clauses`.  A clause
    holds at most one input literal plus distinct fresh auxiliary
    variables, so it can neither repeat a variable nor hold a
    complementary pair, and `ClauseSet.add` would pass it unchanged.
    """
    _check_input_literals(selector_lits, out.num_inputs, "selector literal")
    if implied_lit is not None:
        _check_input_literals((implied_lit,), out.num_inputs, "implied_lit")
    nodes, var_of, _, _ = _node_vars(store, root, out, order)
    out.raw_count += 2 * len(nodes) + 3
    append = out.clauses.append
    if root < 2:
        if root == FALSE_NODE:
            append(() if implied_lit is None else (-implied_lit,))
        return None

    table = store._nodes
    first = offset + 1
    chain: set[int] = set()
    forced: set[int] = set()
    if implied_lit is None:
        append((var_of[root],))
        nid = root
        while nid >= 2:
            chain.add(nid)
            level, lo, hi = table[nid - 2]
            if lo >= 2:
                append((var_of[lo],))
            nx = -selector_lits[level - first]
            if hi == FALSE_NODE and nx not in forced:
                forced.add(nx)
                append((nx,))
            nid = lo

    for nid in nodes:
        level, lo, hi = table[nid - 2]
        if lo == FALSE_NODE or hi == TRUE_NODE:
            raise ValueError(f"node {nid} is not monotone decreasing")
        # one int object for -n, shared by the node's two clauses
        nn = -var_of[nid]
        nx = -selector_lits[level - first]
        if lo != TRUE_NODE and lo not in chain:
            append((var_of[lo], nn))
        # hi is never a chain node: that all-false restriction bounds lo
        # from above and hi <= lo, so lo would equal hi
        if nx in forced:
            continue
        if hi == FALSE_NODE:
            append((nx, nn))
        else:
            append((var_of[hi], nx) if nid in chain else (var_of[hi], nx, nn))
    if implied_lit is not None:
        append((var_of[root], -implied_lit))
    return var_of[root]


def encode_ite6(store, root, selector_lits, out: ClauseSet, offset: int = 0,
                order: range | None = None) -> int | None:
    """Classic six-clause if-then-else translation, root asserted true.

    Works for arbitrary (not necessarily monotone) diagrams; emits
    6 clauses per node plus 3 units, the terminals as helper variables, and
    simplifies them with one `UnitPropagator.run`: the derived units in
    trail order, then each unsatisfied clause's open literals in emission
    order, or one empty clause on a conflict.  When each variable labels
    one level, as in every pipeline, the trail order is that of a rescan
    to fixpoint; a variable on several levels may reorder the units.
    `offset` and `order` are as in `encode_monotone`, and the selector
    literals must name input variables (ValueError).
    """
    from .propagate import CONFLICT, UnitPropagator
    _check_input_literals(selector_lits, out.num_inputs, "selector literal")
    nodes, var_of, top, bot = _node_vars(store, root, out, order)
    # Propagate over dense local ids, so the engine's per-variable lists
    # grow with the diagram rather than with `out.num_inputs`: 1..m are
    # the nodes' variables, m+1 and m+2 the helpers, then the selectors'
    # variables in first use.  `glob` maps a local id back.
    m = len(nodes)
    glob = [0, *range(top - m, bot + 1)]
    local_of = {nid: i for i, nid in enumerate(nodes, 1)}
    local_of[TRUE_NODE], local_of[FALSE_NODE] = m + 1, m + 2
    sel_of: dict[int, int] = {}

    raw: list[list[int]] = []
    for nid in nodes:
        level, lo, hi = store.node(nid)
        sel = selector_lits[level - 1 - offset]
        x = sel_of.get(abs(sel))
        if x is None:
            x = sel_of[abs(sel)] = len(glob)
            glob.append(abs(sel))
        if sel < 0:
            x = -x
        f, t, n = local_of[lo], local_of[hi], local_of[nid]
        raw += [
            [x, f, -n],
            [-x, t, -n],
            [f, t, -n],
            [x, -f, n],
            [-x, -t, n],
            [-f, -t, n],
        ]
    raw += [[m + 1], [-(m + 2)], [local_of[root]]]
    out.raw_count += len(raw)

    engine = UnitPropagator(raw)
    status, values, trail, _, _ = engine.run(())
    if status == CONFLICT:
        out.add(())
        return var_of[root] if root >= 2 else None
    for lit in trail:
        if abs(lit) != m + 1 and abs(lit) != m + 2:
            out.add((glob[lit] if lit > 0 else -glob[-lit],))
    for cl in engine.clauses:
        pending = []
        for l in cl:
            have = values[abs(l)]
            if not have:
                pending.append(glob[l] if l > 0 else -glob[-l])
            elif have == (1 if l > 0 else 2):
                break
        else:
            out.add(tuple(pending))
    return var_of[root] if root >= 2 else None


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
    """Encode `c` with one of the named pipelines; also returns the builds used.

    `node_budget` caps the decision nodes of the constraint's one store:
    the one build of bdd1, bdd2 and ite6, or all of bdd3's per-literal
    builds together, each cut from one decomposition of `c`.
    """
    if method not in PIPELINES:
        raise ValueError(f"unknown pipeline {method!r}")
    if out is None:
        out = clause_set_for(c)
    builds: list[BuildResult] = []
    if _trivial(c, out):
        return out, builds

    if method != "bdd3":
        # in a fresh store the build made every node it reaches, in post-order
        d = decompose(c) if method == "bdd2" else None
        r = build(c if d is None else d.decomposed, node_budget=node_budget)
        builds.append(r)
        if not r.stats.created == len(r.store) == r.root - 1:
            raise ValueError(f"the build of {c} left nodes its root does not reach")
        order = range(2, r.root + 1)
        if method == "ite6":
            encode_ite6(r.store, r.root, r.level_lits, out, order=order)
        else:
            # bdd2 substitutes original literals for the bit variables in
            # the selector map; the diagram itself is left untouched
            encode_monotone(r.store, r.root, r.level_lits if d is None else d.bit_literals,
                            out, order=order)
    else:  # bdd3
        # literal i's decomposition is c's without term i's bits, renumbered:
        # `decompose` orders bits by (power, position), which that keeps
        d = decompose(c)
        store = NodeStore(depth=len(d.bit_tags))
        for pos, t in enumerate(c.terms, 1):
            if c.bound < t.coef:  # never trivially true, as c is not
                out.add((-t.lit,))
                continue
            keep = [(1 << w, lit) for (w, p), lit in zip(d.bit_tags, d.bit_literals) if p != pos]
            ci = PBConstraint.from_pairs(((a, v) for v, (a, _) in enumerate(keep, 1)),
                                         c.bound - t.coef)
            r = build(ci, store=store, node_budget=node_budget)
            builds.append(r)
            encode_monotone(r.store, r.root, [lit for _, lit in keep], out,
                            implied_lit=t.lit, offset=r.offset)
    return out, builds


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
