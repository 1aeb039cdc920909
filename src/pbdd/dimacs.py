"""DIMACS CNF output with an input-variable mapping block in the comments."""

from __future__ import annotations

from typing import Sequence

from .encode import ClauseSet

BLOCK = 4096  # clauses formatted and joined into one str at a time


class _Templates(dict):
    """Clause length -> `"%d %d ... 0\\n"`, made on first use."""

    def __missing__(self, length: int) -> str:
        fmt = self[length] = "%d " * length + "0\n"
        return fmt


def dimacs_text(
    cs: ClauseSet,
    method: str | None = None,
    names: Sequence[str] | None = None,
) -> str:
    """Render a clause set as DIMACS.

    Comment lines record the encoding method, if given, and one
    `c map <name> = <cnfvar>` line per input variable.  Output is
    byte-identical across runs for the same input.  Each clause (a tuple
    of ints, as `ClauseSet` holds them) is formatted with one `%d`
    template per clause length, and every `BLOCK` clauses are joined into
    one str, so the text is held at most twice while it is built rather
    than once more as one str per clause.
    """
    lines = []
    if method is not None:
        lines.append(f"c method {method}\n")
    for v in range(1, cs.num_inputs + 1):
        name = names[v - 1] if names else f"x{v}"
        lines.append(f"c map {name} = {v}\n")
    clauses = cs.clauses
    lines.append(f"p cnf {cs.max_var} {len(clauses)}\n")
    blocks = ["".join(lines)]
    template = _Templates()
    for start in range(0, len(clauses), BLOCK):
        blocks.append("".join([template[len(cl)] % cl for cl in clauses[start:start + BLOCK]]))
    return "".join(blocks)


def write_dimacs(cs: ClauseSet, sink, **kwargs) -> None:
    """Write `dimacs_text` to a file-like sink."""
    sink.write(dimacs_text(cs, **kwargs))
