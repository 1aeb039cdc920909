"""Top-down memoized construction of reduced ordered BDDs for PB constraints.

Each level keeps a searchable set of disjoint (interval, node) pairs; a
lookup that lands inside a stored interval reuses the node, so every
distinct sub-diagram is built exactly once and the result is reduced by
construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .constraints import PBConstraint
from .intervals import Interval, NEG_INF, POS_INF
from .robdd import NodeStore, count_nodes, reachable_nodes


class NodeBudgetExceeded(RuntimeError):
    """Raised when a build creates more nodes than its budget allows."""


class LevelStore:
    """Disjoint (interval, node) pairs for one level, keyed by interval lower bound.

    Disjointness makes lower-bound bisection sufficient for lookups; it is
    checked on every insert (ValueError).
    """

    __slots__ = ("level", "_lows", "_entries")

    def __init__(self, level: int):
        self.level = level
        self._lows: list = []
        self._entries: list[tuple[Interval, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[tuple[Interval, int]]:
        return list(self._entries)

    def search(self, k: int) -> tuple[Interval, int] | None:
        """The unique stored pair whose interval contains `k`, if any."""
        idx = bisect_right(self._lows, k) - 1
        if idx >= 0:
            iv, node = self._entries[idx]
            if k <= iv.hi:
                return iv, node
        return None

    def insert(self, iv: Interval, node: int) -> None:
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
    root_interval: Interval         # bounds interchangeable with the input bound
    intervals: dict[int, Interval]  # per created node, at its own selector level
    level_stores: tuple[LevelStore, ...]
    stats: BuildStats = field(default_factory=BuildStats)

    @property
    def levels(self) -> int:
        return len(self.coefs)

    @property
    def node_count(self) -> int:
        return count_nodes(self.store, self.root)


def level_widths(result: BuildResult) -> list[int]:
    """Reachable decision nodes per level, index 0 = level 1."""
    widths = [0] * result.levels
    for nid in reachable_nodes(result.store, result.root):
        widths[result.store.node(nid)[0] - 1] += 1
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
    `store` across builds makes equal functions come out as equal roots.
    Raises NodeBudgetExceeded when more than `node_budget` fresh nodes
    would be created.
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

    # suffix[i] = a_i + ... + a_n  (1-based; suffix[n+1] = 0)
    suffix = [0] * (n + 2)
    for i in range(n, 0, -1):
        suffix[i] = suffix[i + 1] + coefs[i - 1]

    levels = [None] + [LevelStore(i) for i in range(1, n + 2)]
    for i in range(1, n + 2):
        levels[i].insert(Interval(NEG_INF, -1), 0)
        levels[i].insert(Interval(suffix[i], POS_INF), 1)

    stats = BuildStats()
    intervals: dict[int, Interval] = {}

    # Explicit stack instead of recursion: coefficient decomposition can
    # produce n*(log a_max + 1) levels, well past the recursion limit.
    results: list[tuple[Interval, int]] = []
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
                iv = Interval(t_iv.lo + a, t_iv.hi)
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
    return BuildResult(
        constraint=c,
        order=tuple(t.var for t in terms),
        coefs=coefs,
        level_lits=lits,
        store=store,
        root=root,
        root_interval=root_interval,
        intervals=intervals,
        level_stores=tuple(levels[1:]),
        stats=stats,
    )
