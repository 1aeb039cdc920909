"""Top-down memoized construction of reduced ordered BDDs for PB constraints.

Each level keeps a searchable set of disjoint (interval, node) pairs; a
lookup that lands inside a stored interval reuses the node, so every
distinct sub-diagram is built exactly once and the result is reduced by
construction.

The construction loop runs on plain ints.  A level's pairs are
`(lo, hi, node)` triples sorted by lower bound, owned by its
`LevelStore`, from the FALSE terminal's (k < 0) to the TRUE terminal's
(k >= a_i + ... + a_n at level i); a lookup pushes the triple it finds
as it is.  A stored terminal's infinite end is None, as in the public
`Interval`; inside the loop it is a finite int sentinel beyond every
interval of the build, so coefficients of any size stay exact.  Nodes
are added straight to the `NodeStore`'s table, and every check is a
`raise`.  The level stores are the only record of a build's intervals:
`BuildResult.root_interval` and `intervals` read them from there.

A level store depends only on the coefficient suffix a_i..a_n: its `top`
is the suffix sum, and the sub-diagram for a bound at level i depends on
nothing else.  `build` therefore interns each suffix bottom-up as
(coefficient, level store of the shorter suffix), one dict lookup per
level.  A `NodeStore` with a frame depth N keeps those level stores, so
its builds reuse each other's entries wherever their suffixes match.  Its
levels are bottom-aligned: a build of n levels puts its nodes on store
levels N-n+1..N, so a node's level records its height, and nodes are
shared between builds of different lengths.  Node identity stays
(level, lo, hi), independent of the coefficients.  Without a frame depth
each build has private level stores on levels 1..n.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Sequence

from .constraints import PBConstraint, Record
from .intervals import Interval
from .robdd import FALSE_NODE, NodeStore, TRUE_NODE, reachable_nodes


class NodeBudgetExceeded(RuntimeError):
    """Raised when a build creates more nodes than its budget allows."""


class LevelStore:
    """Disjoint (interval, node) pairs for one level, keyed by interval lower bound.

    `triples` holds every pair as `(lo, hi, node)` in interval order,
    from the terminal (None, -1, FALSE) to (top, None, TRUE), `top` being
    the level's suffix sum; `len` counts them.  `lows` holds the lower
    bounds for bisection, with -1 standing in for the FALSE pair's None.
    Disjointness makes lower-bound bisection sufficient for lookups;
    `build`, the only writer, checks it at each insert (ValueError).
    """

    __slots__ = ("level", "top", "lows", "triples")

    def __init__(self, level: int, top: int):
        self.level = level
        self.top = top
        self.lows: list[int] = [-1, top]
        self.triples: list[tuple] = [(None, -1, FALSE_NODE), (top, None, TRUE_NODE)]

    def __len__(self) -> int:
        return len(self.triples)

    def entries(self) -> list[tuple[Interval, int]]:
        """Every pair in interval order, terminals included."""
        return [(Interval(lo, hi), node) for lo, hi, node in self.triples]

    def search(self, k: int) -> tuple[Interval, int] | None:
        """The unique stored pair whose interval contains `k`, if any."""
        if k < 0:
            return Interval(None, -1), FALSE_NODE
        if k >= self.top:
            return Interval(self.top, None), TRUE_NODE
        lo, hi, node = self.triples[bisect_right(self.lows, k) - 1]
        return (Interval(lo, hi), node) if k <= hi else None


class BuildStats(Record):
    __slots__ = _fields = ("calls", "hits", "merges", "created")

    def __init__(self, calls: int = 0, hits: int = 0, merges: int = 0, created: int = 0):
        self.calls = calls        # invocations of the recursive construction step
        self.hits = hits          # calls answered directly from a level store
        self.merges = merges      # calls whose two children shared one interval
        self.created = created    # decision nodes newly added to the store


class BuildResult(Record):
    # no __slots__: `intervals` is cached in the instance __dict__
    _fields = ("constraint", "order", "coefs", "level_lits", "store", "root", "level_stores",
               "stats", "offset")

    def __init__(self, constraint: PBConstraint, order: tuple[int, ...], coefs: tuple[int, ...],
                 level_lits: tuple[int, ...], store: NodeStore, root: int,
                 level_stores: tuple[LevelStore, ...], stats: BuildStats, offset: int = 0):
        self.constraint, self.store, self.root, self.stats = constraint, store, root, stats
        self.order = order              # variable ids, level 1 first
        self.coefs = coefs              # coefficient per level
        self.level_lits = level_lits    # signed input literal per level
        self.level_stores = level_stores  # levels 1..n+1, shared in a framed store
        # store level of build level i is i + offset; `eval_bdd` and `to_dot`
        # index store levels, so give them `level_lits` behind `offset` fillers
        self.offset = offset

    @property
    def levels(self) -> int:
        return len(self.coefs)

    @property
    def node_count(self) -> int:
        return len(reachable_nodes(self.store, self.root))

    @property
    def root_interval(self) -> Interval:
        """Bounds interchangeable with the input bound: its level-1 entry."""
        return self.level_stores[0].search(self.constraint.bound)[0]

    @cached_property
    def intervals(self) -> dict[int, Interval]:
        """Interval per reachable node, in lo-first post-order.

        Each is the node's entry in this build's level store at the node's
        own level; on a shared store that entry may predate the build.
        """
        first = self.offset + 1
        at_level: list[dict[int, Interval] | None] = [None] * len(self.level_stores)
        found = {}
        for nid in reachable_nodes(self.store, self.root):
            i = self.store.node(nid)[0] - first
            entries = at_level[i]
            if entries is None:
                ls = self.level_stores[i]
                entries = at_level[i] = {nd: Interval(lo, hi) for lo, hi, nd in ls.triples[1:-1]}
            found[nid] = entries[nid]
        return found


def level_widths(result: BuildResult) -> list[int]:
    """Reachable decision nodes per build level, index 0 = level 1."""
    widths = [0] * result.levels
    first = result.offset + 1
    for nid in reachable_nodes(result.store, result.root):
        widths[result.store.node(nid)[0] - first] += 1
    return widths


def build(
    c: PBConstraint,
    order: Sequence[int] | None = None,
    *,
    store: NodeStore | None = None,
    node_budget: int | None = None,
) -> BuildResult:
    """Construct the reduced ordered BDD of a normalized constraint.

    `order` permutes the constraint's variables (default: term order).
    The hi edge of every node means "this level's literal is true"; a
    negated literal simply flips which variable value that is.  Sharing a
    `store` across builds makes equal functions come out as equal roots;
    a store with a frame depth also shares its level stores (module
    docstring), and the result's `offset` maps its store levels back to
    build levels.  Raises NodeBudgetExceeded when the store would hold more
    than `node_budget` decision nodes (for a fresh store, nodes created).
    """
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
    depth = store.depth
    if depth is None:
        depth, suffixes = n, {}
    elif n > depth:
        raise ValueError(f"a build of {n} levels exceeds the store's frame depth {depth}")
    else:
        suffixes = store.suffixes
    offset = depth - n

    # levels[i-1] serves the suffix a_i..a_n (levels[n] the empty one),
    # interned bottom-up as (a_i, level store of a_(i+1)..a_n)
    levels = []
    key, top = None, 0
    for i in range(n + 1, 0, -1):
        ls = suffixes.get(key)
        if ls is None:
            ls = suffixes[key] = LevelStore(offset + i, top)
        elif ls.top != top:
            raise ValueError(f"level store at level {ls.level} has top {ls.top}, "
                             f"not its suffix sum {top}")
        levels.append(ls)
        if i > 1:
            a = coefs[i - 2]
            key, top = (a, ls), top + a
    levels.reverse()
    suffix = [0, *(ls.top for ls in levels)]  # suffix[i] = a_i + ... + a_n
    coef_at = (0, *coefs)
    lows_at = [None, *(ls.lows for ls in levels)]
    triples_at = [None, *(ls.triples for ls in levels)]
    # terminal results end in finite int sentinels: every finite interval
    # of this build lies in [0, pos), so the max/min of the children's ends
    # below give the intervals that infinite ends would
    pos = suffix[1] + 1
    false_triple = (-pos, -1, FALSE_NODE)
    true_at = [(top, pos, TRUE_NODE) for top in suffix]

    table = store._nodes
    unique = store._unique
    before = len(table)
    last = None if node_budget is None else 1 + node_budget  # highest id allowed
    merges = made = 0

    # Explicit stack instead of recursion: coefficient decomposition can
    # produce n*(log a_max + 1) levels, well past the recursion limit.
    # `results` holds the triples of finished calls.  The stack holds one
    # int per pending step: a hi call with bound k as k - a + pos > 0, or
    # a combine as ~idx < 0.  `i` is the level of the call that finished
    # last, so a pending hi call is at level i (its lo sibling's) and a
    # pending combine at level i - 1 (its children's parent).  The combine
    # merges the two triples on top of `results` into a level entry at
    # position idx: only deeper levels change between the call's
    # bisection and its combine, so the position stays valid.
    results: list[tuple[int, int, int]] = []
    push_result, pop_result = results.append, results.pop
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    shift_at = [a - pos for a in coef_at]
    i, k = 1, c.bound
    while True:
        while True:  # follow lo branches down; hi calls wait on the stack
            if k < 0:
                push_result(false_triple)
                break
            if k >= suffix[i]:
                push_result(true_at[i])
                break
            idx = bisect_right(lows_at[i], k)
            found = triples_at[i][idx - 1]
            if k <= found[1]:
                push_result(found)
                break
            push(~idx)
            push(k - shift_at[i])  # hi branch: literal true
            i += 1                  # lo branch evaluated first
        while stack:
            step = pop()
            if step > 0:
                break
            idx = ~step
            i -= 1
            t_lo, t_hi, t_node = pop_result()
            f_lo, f_hi, f_node = pop_result()
            a, level = coef_at[i], i + offset
            if f_node == t_node:  # one child, so one interval
                merges += 1
                if t_node < 2:
                    raise ValueError(f"both children at level {level} are one terminal")
                lo, hi, node = triple = (t_lo + a, t_hi, t_node)
            else:
                key = (level, f_node, t_node)
                node = unique.get(key)
                if node is None:
                    size = len(table) + 2  # the new node's id
                    if not (-1 < f_node < size and -1 < t_node < size) \
                            or f_node > 1 and table[f_node - 2][0] <= level \
                            or t_node > 1 and table[t_node - 2][0] <= level:
                        raise ValueError(f"a child unknown or not below level {level}")
                    table.append(key)
                    unique[key] = node = size
                    if last is not None and node > last:
                        raise NodeBudgetExceeded(f"build exceeded node budget of {node_budget}")
                # [f_lo, f_hi] meets [t_lo + a, t_hi + a]
                lo = t_lo + a
                if f_lo > lo:
                    lo = f_lo
                hi = t_hi + a
                if f_hi < hi:
                    hi = f_hi
                triple = (lo, hi, node)
                made += 1
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}] for a node at level {level}")
            lows, triples = lows_at[i], triples_at[i]
            if triples[idx - 1][1] >= lo or hi >= lows[idx]:
                raise ValueError(f"interval [{lo}, {hi}] overlaps a stored entry at level {level}")
            lows.insert(idx, lo)
            triples.insert(idx, triple)
            push_result(triple)
        else:
            break
        k = step - pos

    root = results.pop()[2]
    # every call is a hit or makes exactly two more calls and one combine
    misses = merges + made
    return BuildResult(
        constraint=c,
        order=tuple(t.var for t in terms),
        coefs=coefs,
        level_lits=lits,
        store=store,
        root=root,
        level_stores=tuple(levels),
        stats=BuildStats(
            calls=1 + 2 * misses,
            hits=1 + misses,
            merges=merges,
            created=len(table) - before,
        ),
        offset=offset,
    )
