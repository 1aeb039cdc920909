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

    `depth`, when given, is the frame depth of the builds that share the
    store: `pbdd.builder.build` then bottom-aligns each build on levels
    depth-n+1..depth and keeps its level stores, keyed by coefficient
    suffix, in `suffixes` for the next build.
    """

    def __init__(self, depth: int | None = None):
        self._nodes: list[tuple[int, int, int]] = []  # (level, lo, hi)
        self._unique: dict[tuple[int, int, int], int] = {}
        self.depth = depth
        self.suffixes: dict = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def mk_node(self, level: int, lo: int, hi: int) -> int:
        """Canonical node for `(level, lo, hi)`; returns the child when lo == hi.

        ValueError unless both children exist and lie below `level`.
        """
        if lo == hi:
            return lo
        nodes = self._nodes
        for child in (lo, hi):
            if not 0 <= child < len(nodes) + 2:
                raise ValueError(f"unknown child node {child}")
            if child >= 2 and nodes[child - 2][0] <= level:
                raise ValueError(
                    f"orderedness violation: child {child} at level "
                    f"{nodes[child - 2][0]} under level {level}"
                )
        key = (level, lo, hi)
        nid = self._unique.get(key)
        if nid is None:
            nodes.append(key)
            nid = len(nodes) + 1
            self._unique[key] = nid
        return nid

    def node(self, nid: int) -> tuple[int, int, int]:
        """`(level, lo, hi)` of a decision node."""
        return self._nodes[nid - 2]


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
    """Decision nodes reachable from `root`, in lo-first post-order.

    A node comes after everything reachable from its lo child, then after
    everything reachable from its hi child.  The builder creates a fresh
    diagram's nodes in exactly this order, so on a store that holds one
    build it is id order; on a shared store it is still the order a fresh
    build would have created the diagram in.  One traversal, O(reachable
    nodes) steps; the marks are sized by the root id, which bounds every
    reachable id because a child's id lies below its parent's.
    `run_pipeline` skips it for its fresh bdd1, bdd2 and ite6 builds;
    bdd3's shared store, hand-built stores and the inspection helpers
    (`node_count`, `intervals`, `level_widths`, `to_dot`) still traverse.
    """
    if root < 2:
        return []
    table = store._nodes
    seen = bytearray(root + 1)
    seen[FALSE_NODE] = seen[TRUE_NODE] = 1
    found = []
    stack = [root]  # nodes to visit, and ~n once n's lo chain is entered
    pop, push = stack.pop, stack.append
    while stack:
        nid = pop()
        if nid < 0:  # both subtrees of ~nid are done
            found.append(~nid)
            continue
        while not seen[nid]:  # down the lo chain; hi children wait
            seen[nid] = 1
            _, lo, hi = table[nid - 2]
            push(~nid)
            if not seen[hi]:
                push(hi)
            nid = lo
    return found


def to_dot(store: NodeStore, root: int) -> str:
    """DOT graph of the diagram under `root`, for eyeballing in a viewer."""
    lines = ["digraph bdd {"]
    lines.append('  n0 [shape=box,label="0"];')
    lines.append('  n1 [shape=box,label="1"];')
    for nid in reachable_nodes(store, root):
        level, lo, hi = store.node(nid)
        lines.append(f'  n{nid} [label="L{level}"];')
        lines.append(f"  n{nid} -> n{lo} [style=dashed];")
        lines.append(f"  n{nid} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
