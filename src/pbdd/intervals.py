"""Integer intervals with infinite endpoints and the per-node interval algebra.

Every diagram node stands for a whole family of right-hand sides: the set
of bounds M for which the node's sub-diagram represents the suffix
constraint `a_i*l_i + ... + a_n*l_n <= M`.  That set is always an integer
interval, possibly extending to +/-infinity at the terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


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

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)


@dataclass(frozen=True)
class Interval:
    """Closed integer interval [lo, hi]; either end may be infinite."""

    lo: int | _Infinity
    hi: int | _Infinity

    @property
    def is_empty(self) -> bool:
        return not self.lo <= self.hi

    def contains(self, k) -> bool:
        return self.lo <= k and k <= self.hi

    def shift(self, delta: int) -> "Interval":
        return Interval(self.lo + delta, self.hi + delta)

    def intersect(self, other: "Interval") -> "Interval":
        lo = self.lo if other.lo <= self.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        iv = Interval(lo, hi)
        return EMPTY if iv.is_empty else iv

    def __str__(self):
        left = "(-inf" if self.lo == NEG_INF else f"[{self.lo}"
        right = "+inf)" if self.hi == POS_INF else f"{self.hi}]"
        return f"{left}, {right}"


EMPTY = Interval(POS_INF, NEG_INF)  # designated empty value


def terminal_interval(value: bool) -> Interval:
    """[0, +inf) for the True terminal, (-inf, -1] for False."""
    return Interval(0, POS_INF) if value else Interval(NEG_INF, -1)


def combine_child_intervals(
    coefs,
    level: int,
    lo_level: int,
    lo_iv: Interval,
    hi_level: int,
    hi_iv: Interval,
) -> Interval:
    """Interval of a node at `level` from its children's intervals.

    `coefs` is the per-level coefficient list; terminals count as level
    n+1.  Coefficients of levels skipped by long edges are added back to
    the children's lower bounds, since those levels were removed exactly
    because both branches agree there.
    """
    a = coefs[level - 1]
    skip_lo = sum(coefs[level : lo_level - 1])
    skip_hi = sum(coefs[level : hi_level - 1])
    lo_bound = max(lo_iv.lo + skip_lo, hi_iv.lo + a + skip_hi)
    hi_bound = min(lo_iv.hi, hi_iv.hi + a)
    iv = Interval(lo_bound, hi_bound)
    if iv.is_empty:
        raise ValueError("child intervals are mutually inconsistent")
    return iv


def verify_intervals(
    coefs,
    store,
    root: int,
    stored: Mapping[int, Interval],
) -> tuple[int, Interval, Interval] | None:
    """Recompute every reachable node's interval bottom-up and diff against `stored`.

    Returns None when everything matches, else `(node, stored, recomputed)`
    for the first mismatch in bottom-up order.  This is the independent
    cross-check for the construction algorithm, which labels nodes on the
    way down instead.
    """
    n = len(coefs)
    terminal_level = n + 1
    recomputed: dict[int, Interval] = {}

    # iterative post-order so deep diagrams cannot blow the stack
    order: list[int] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid < 2 or nid in seen:
            continue
        seen.add(nid)
        order.append(nid)
        _, lo, hi = store.node(nid)
        stack.append(lo)
        stack.append(hi)
    order.sort(key=lambda nid: (-store.node(nid)[0], nid))  # deepest levels first

    def child_info(child: int) -> tuple[int, Interval]:
        if child < 2:
            return terminal_level, terminal_interval(child == 1)
        return store.node(child)[0], recomputed[child]

    for nid in order:
        level, lo, hi = store.node(nid)
        lo_level, lo_iv = child_info(lo)
        hi_level, hi_iv = child_info(hi)
        iv = combine_child_intervals(coefs, level, lo_level, lo_iv, hi_level, hi_iv)
        recomputed[nid] = iv
        have = stored.get(nid)
        if have != iv:
            return nid, have, iv
    return None
