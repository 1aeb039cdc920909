"""Hash-consed storage for reduced ordered decision diagrams.

Nodes are immutable and reduction is enforced at creation time: `mk_node`
never builds a node with identical children and never duplicates a
(level, lo, hi) triple, so any two equal functions built over one store
share a root id.
"""

from __future__ import annotations

from typing import Mapping, Sequence

FALSE_NODE = 0
TRUE_NODE = 1


class NodeStore:
    """Append-only node table with a uniqueness index.

    Decision nodes get ids starting at 2; 0 and 1 are the terminals.
    A store is single-writer while building; reads may be concurrent
    once construction is done.
    """

    def __init__(self):
        self._nodes: list[tuple[int, int, int]] = []  # (level, lo, hi)
        self._unique: dict[tuple[int, int, int], int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, nid: int) -> bool:
        return 0 <= nid < len(self._nodes) + 2

    def check_children(self, level: int, lo: int, hi: int) -> None:
        """ValueError unless both children exist and lie below `level`."""
        nodes = self._nodes
        for child in (lo, hi):
            if not 0 <= child < len(nodes) + 2:
                raise ValueError(f"unknown child node {child}")
            if child >= 2 and nodes[child - 2][0] <= level:
                raise ValueError(
                    f"orderedness violation: child {child} at level "
                    f"{nodes[child - 2][0]} under level {level}"
                )

    def mk_node(self, level: int, lo: int, hi: int) -> int:
        """Canonical node for `(level, lo, hi)`; returns the child when lo == hi."""
        if lo == hi:
            return lo
        self.check_children(level, lo, hi)
        key = (level, lo, hi)
        nid = self._unique.get(key)
        if nid is None:
            self._nodes.append(key)
            nid = len(self._nodes) + 1
            self._unique[key] = nid
        return nid

    def node(self, nid: int) -> tuple[int, int, int]:
        return self._nodes[nid - 2]

    def level(self, nid: int) -> int | None:
        """Selector level of a decision node, None for terminals."""
        return None if nid < 2 else self._nodes[nid - 2][0]

    def lo(self, nid: int) -> int:
        return self._nodes[nid - 2][1]

    def hi(self, nid: int) -> int:
        return self._nodes[nid - 2][2]

    def is_terminal(self, nid: int) -> bool:
        return nid < 2


def eval_bdd(
    store: NodeStore,
    root: int,
    level_lits: Sequence[int],
    assignment: Mapping[int, int],
) -> int:
    """Follow the path induced by `assignment` and report the terminal reached.

    `level_lits[i-1]` is the signed input literal tested at level i; a node's
    hi edge is taken exactly when that literal is true under the assignment.
    """
    nid = root
    nodes = store._nodes
    while nid >= 2:
        level, lo, hi = nodes[nid - 2]
        lit = level_lits[level - 1]
        val = assignment[abs(lit)]
        if lit < 0:
            val = not val
        nid = hi if val else lo
    return nid


def reachable_nodes(store: NodeStore, root: int) -> list[int]:
    """Decision nodes reachable from `root`, in creation (id) order.

    One downward sweep over ids: a node's children are created before it
    (`mk_node` and the builder accept a node only after `check_children`
    has found both children in the store), so every child id is below
    its parent's.  Walking from `root` down to 2, a node is reached
    exactly when it was marked by a reached parent before the walk gets
    to it, and it then marks its own children.
    """
    if root < 2:
        return []
    table = store._nodes
    mark = bytearray(root + 1)
    mark[root] = 1
    found = []
    for nid in range(root, 1, -1):
        if mark[nid]:
            found.append(nid)
            _, lo, hi = table[nid - 2]
            mark[lo] = mark[hi] = 1
    found.reverse()
    return found


def count_nodes(store: NodeStore, root: int) -> int:
    """Number of distinct decision nodes reachable from `root` (terminals excluded)."""
    return len(reachable_nodes(store, root))


def to_dot(store: NodeStore, root: int, level_labels: Sequence[str] | None = None) -> str:
    """DOT graph of the diagram under `root`, for eyeballing in a viewer."""
    lines = ["digraph bdd {"]
    lines.append('  n0 [shape=box,label="0"];')
    lines.append('  n1 [shape=box,label="1"];')
    for nid in reachable_nodes(store, root):
        level, lo, hi = store.node(nid)
        label = level_labels[level - 1] if level_labels else f"L{level}"
        lines.append(f'  n{nid} [label="{label}"];')
        lines.append(f"  n{nid} -> n{lo} [style=dashed];")
        lines.append(f"  n{nid} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
