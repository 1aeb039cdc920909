"""Top-down memoized construction of reduced ordered BDDs for PB constraints.

Each level keeps a searchable set of disjoint (interval, node) pairs; a
lookup that lands inside a stored interval reuses the node, so every
distinct sub-diagram is built exactly once and the result is reduced by
construction.

The construction loop runs on plain ints.  A level's finite entries are
three parallel lists sorted by lower bound (lower bounds, upper bounds,
node ids), owned by its `LevelStore`.  The two terminal entries are
implicit: at level i a bound k < 0 gives FALSE and k >= a_i + ... + a_n
gives TRUE.  Intervals travel as `(lo, hi)` int pairs, the shape of the
public `Interval`: only a terminal has an infinite end, written None, and
it never takes part in arithmetic, so coefficients of any size stay
exact.  Nodes are added straight to the `NodeStore`'s table.  The level
stores are the only record of a build's intervals:
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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .constraints import PBConstraint
from .intervals import Interval
from .robdd import FALSE_NODE, NodeStore, TRUE_NODE, reachable_nodes


class NodeBudgetExceeded(RuntimeError):
    """Raised when a build creates more nodes than its budget allows."""


class LevelStore:
    """Disjoint (interval, node) pairs for one level, keyed by interval lower bound.

    The finite pairs are the parallel lists `lows`, `his` and `nodes`,
    sorted by lower bound.  The terminal pairs (-inf, -1] -> FALSE and
    [top, +inf) -> TRUE are implicit, `top` being the level's suffix sum;
    `len` counts them.  Disjointness makes lower-bound bisection
    sufficient for lookups; it is checked on every insert (ValueError).
    """

    __slots__ = ("level", "top", "lows", "his", "nodes")

    def __init__(self, level: int, top: int):
        self.level = level
        self.top = top
        self.lows: list[int] = []
        self.his: list[int] = []
        self.nodes: list[int] = []

    def __len__(self) -> int:
        return len(self.nodes) + 2

    def entries(self) -> list[tuple[Interval, int]]:
        """Every pair in interval order, terminals included."""
        return [
            (Interval(None, -1), FALSE_NODE),
            *((Interval(lo, hi), node) for lo, hi, node in zip(self.lows, self.his, self.nodes)),
            (Interval(self.top, None), TRUE_NODE),
        ]

    def search(self, k: int) -> tuple[Interval, int] | None:
        """The unique stored pair whose interval contains `k`, if any."""
        if k < 0:
            return Interval(None, -1), FALSE_NODE
        if k >= self.top:
            return Interval(self.top, None), TRUE_NODE
        idx = bisect_right(self.lows, k) - 1
        if idx >= 0 and k <= self.his[idx]:
            return Interval(self.lows[idx], self.his[idx]), self.nodes[idx]
        return None

    def insert(self, iv: Interval, node: int) -> None:
        lo, hi = iv
        if lo is None or hi is None:
            raise ValueError(f"interval {iv} overlaps a terminal entry")
        if lo > hi:
            raise ValueError("refusing to insert an empty interval")
        self._put(bisect_right(self.lows, lo), lo, hi, node)

    def _put(self, idx: int, lo: int, hi: int, node: int) -> None:
        """Insert finite, non-empty [lo, hi] at position `idx` of the sorted lists."""
        lows = self.lows
        below = self.his[idx - 1] if idx else -1
        above = lows[idx] if idx < len(lows) else self.top
        if not below < lo or not hi < above:
            raise ValueError(f"interval [{lo}, {hi}] overlaps a stored entry at level {self.level}")
        lows.insert(idx, lo)
        self.his.insert(idx, hi)
        self.nodes.insert(idx, node)


@dataclass
class BuildStats:
    calls: int = 0        # invocations of the recursive construction step
    hits: int = 0         # calls answered directly from a level store
    merges: int = 0       # calls whose two children shared one interval
    created: int = 0      # decision nodes newly added to the store


@dataclass
class BuildResult:
    constraint: PBConstraint
    order: tuple[int, ...]          # variable ids, level 1 first
    coefs: tuple[int, ...]          # coefficient per level
    level_lits: tuple[int, ...]     # signed input literal per level
    store: NodeStore
    root: int
    level_stores: tuple[LevelStore, ...]  # levels 1..n+1, shared in a framed store
    stats: BuildStats
    # store level of build level i is i + offset; `eval_bdd` and `to_dot`
    # index store levels, so give them `level_lits` behind `offset` fillers
    offset: int = 0

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
                entries = at_level[i] = dict(zip(ls.nodes, map(Interval, ls.lows, ls.his)))
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
    build levels.  Raises NodeBudgetExceeded when more than `node_budget`
    fresh nodes would be created.
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
    below = suffixes.get(None)
    if below is None:
        below = suffixes[None] = LevelStore(depth + 1, 0)
    levels = [below]
    for i in range(n, 0, -1):
        a = coefs[i - 1]
        ls = suffixes.get((a, below))
        if ls is None:
            ls = suffixes[a, below] = LevelStore(offset + i, below.top + a)
        levels.append(ls)
        below = ls
    levels.reverse()
    suffix = [0, *(ls.top for ls in levels)]  # suffix[i] = a_i + ... + a_n
    coef_at = (0, *coefs)
    lows_at = [None, *(ls.lows for ls in levels)]
    his_at = [None, *(ls.his for ls in levels)]
    nodes_at = [None, *(ls.nodes for ls in levels)]
    true_at = [(top, None, TRUE_NODE) for top in suffix]
    false_entry = (None, -1, FALSE_NODE)

    table = store._nodes
    unique = store._unique
    before = len(table)
    cap = None if node_budget is None else before + node_budget
    merges = made = 0

    # Explicit stack instead of recursion: coefficient decomposition can
    # produce n*(log a_max + 1) levels, well past the recursion limit.
    # (i, k) is a call at level i with bound k.  (-i, idx) combines the two
    # results on top of `results` into a level-i entry at position idx of
    # that level's lists: only deeper levels change between the call's
    # bisection and its combine, so the position stays valid.
    results: list[tuple[int | None, int | None, int]] = []
    stack: list[tuple[int, int]] = [(1, c.bound)]
    while stack:
        i, k = stack.pop()
        if i < 0:
            i, idx = -i, k
            t_lo, t_hi, t_node = results.pop()
            f_lo, f_hi, f_node = results.pop()
            a = coef_at[i]
            if f_lo == t_lo and f_hi == t_hi:
                merges += 1
                if t_node < 2:
                    raise ValueError(f"both children at level {i + offset} are one terminal")
                lo, hi, node = entry = (t_lo + a, t_hi, t_node)
            else:
                node = f_node
                if f_node != t_node:
                    key = (i + offset, f_node, t_node)
                    node = unique.get(key)
                    if node is None:
                        store.check_children(i + offset, f_node, t_node)
                        table.append(key)
                        node = len(table) + 1
                        unique[key] = node
                        if cap is not None and len(table) > cap:
                            raise NodeBudgetExceeded(
                                f"build exceeded node budget of {node_budget}"
                            )
                # [f_lo, f_hi] meets [t_lo + a, t_hi + a]; an infinite end
                # on both sides would have made the two intervals equal
                lo = f_lo if t_lo is None or (f_lo is not None and f_lo >= t_lo + a) else t_lo + a
                hi = f_hi if t_hi is None or (f_hi is not None and f_hi <= t_hi + a) else t_hi + a
                entry = (lo, hi, node)
                made += 1
            if not lo <= hi:
                raise ValueError(f"empty interval [{lo}, {hi}] for a node at level {i + offset}")
            levels[i - 1]._put(idx, lo, hi, node)
            results.append(entry)
            continue
        while True:  # follow lo branches down; hi calls wait on the stack
            if k < 0:
                results.append(false_entry)
                break
            if k >= suffix[i]:
                results.append(true_at[i])
                break
            lows = lows_at[i]
            idx = bisect_right(lows, k)
            if idx and k <= his_at[i][idx - 1]:
                idx -= 1
                results.append((lows[idx], his_at[i][idx], nodes_at[i][idx]))
                break
            stack.append((-i, idx))
            stack.append((i + 1, k - coef_at[i]))  # hi branch: literal true
            i += 1                                  # lo branch evaluated first

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
