"""DIMACS CNF output with an input-variable mapping block in the comments."""

from __future__ import annotations

from typing import Sequence

from .encode import ClauseSet


def dimacs_text(
    cs: ClauseSet,
    method: str | None = None,
    seed: int | None = None,
    names: Sequence[str] | None = None,
) -> str:
    """Render a clause set as DIMACS.

    Comment lines record the encoding method, the corpus seed if any, and
    one `c map <name> = <cnfvar>` line per input variable.  Output is
    byte-identical across runs for the same input.  Each clause (a tuple
    of ints, as `ClauseSet` holds them) is formatted with one `%d`
    template per clause length.
    """
    lines = []
    if method is not None:
        lines.append(f"c method {method}")
    if seed is not None:
        lines.append(f"c seed {seed}")
    for v in range(1, cs.num_inputs + 1):
        name = names[v - 1] if names else f"x{v}"
        lines.append(f"c map {name} = {v}")
    lines.append(f"p cnf {cs.max_var} {len(cs.clauses)}")
    append = lines.append
    template = {}  # clause length -> "%d %d ... 0"
    for cl in cs.clauses:
        fmt = template.get(len(cl))
        if fmt is None:
            fmt = template[len(cl)] = "%d " * len(cl) + "0"
        append(fmt % cl)
    return "\n".join(lines) + "\n"


def write_dimacs(cs: ClauseSet, sink, **kwargs) -> None:
    """Write `dimacs_text` to a file-like sink."""
    sink.write(dimacs_text(cs, **kwargs))
