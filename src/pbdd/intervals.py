"""Per-node integer intervals and their bottom-up recomputation.

Every diagram node stands for a whole family of right-hand sides: the set
of bounds M for which the node's sub-diagram represents the suffix
constraint `a_i*l_i + ... + a_n*l_n <= M`.  That set is always an integer
interval.  Only a terminal's interval is unbounded, on one side, and that
end is written None; an end never takes part in arithmetic while it is
None, so coefficients of any size stay exact.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .robdd import reachable_nodes


class Interval(NamedTuple):
    """Closed integer interval [lo, hi]; a None end is infinite."""

    lo: int | None
    hi: int | None

    def contains(self, k: int) -> bool:
        return (self.lo is None or self.lo <= k) and (self.hi is None or k <= self.hi)

    def __str__(self):
        left = "(-inf" if self.lo is None else f"[{self.lo}"
        right = "+inf)" if self.hi is None else f"{self.hi}]"
        return f"{left}, {right}"


def terminal_interval(value: bool) -> Interval:
    """[0, +inf) for the True terminal, (-inf, -1] for False."""
    return Interval(0, None) if value else Interval(None, -1)


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
    because both branches agree there.  An infinite (None) end gives way
    to a finite one.
    """
    a = coefs[level - 1]
    skip_lo = sum(coefs[level : lo_level - 1])
    skip_hi = sum(coefs[level : hi_level - 1])
    lows = [end + d for end, d in ((lo_iv.lo, skip_lo), (hi_iv.lo, a + skip_hi))
            if end is not None]
    highs = [end + d for end, d in ((lo_iv.hi, 0), (hi_iv.hi, a)) if end is not None]
    iv = Interval(max(lows, default=None), min(highs, default=None))
    if lows and highs and iv.lo > iv.hi:
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
    way down instead.  `coefs` is indexed by store level: for a build into
    a framed store, pass `(0,) * r.offset + r.coefs`, as for `eval_bdd`
    and `to_dot`.
    """
    terminal_level = len(coefs) + 1
    recomputed: dict[int, Interval] = {}

    order = sorted(reachable_nodes(store, root),
                   key=lambda nid: (-store.node(nid)[0], nid))  # deepest levels first

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
