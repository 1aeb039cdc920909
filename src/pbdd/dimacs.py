"""DIMACS CNF output with an input-variable mapping block in the comments."""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .encode import ClauseSet

BLOCK = 4096  # clauses formatted and joined into one str at a time


class _Templates(dict):
    """Clause length -> `"%d %d ... 0\\n"`, made on first use."""

    def __missing__(self, length: int) -> str:
        fmt = self[length] = "%d " * length + "0\n"
        return fmt


def dimacs_header(num_inputs: int, max_var: int, num_clauses: int,
                  method: str | None = None, names: Sequence[str] | None = None) -> str:
    """`c method` if given, one `c map <name> = <cnfvar>` per input variable, `p cnf`."""
    lines = [] if method is None else [f"c method {method}\n"]
    for v in range(1, num_inputs + 1):
        lines.append(f"c map {names[v - 1] if names else f'x{v}'} = {v}\n")
    lines.append(f"p cnf {max_var} {num_clauses}\n")
    return "".join(lines)


def clause_blocks(cs: ClauseSet, shift: int = 0, stop: int | None = None):
    """The DIMACS lines of `cs`'s clauses, one str per `BLOCK` clauses.

    A `stop`, a multiple of `BLOCK`, ends them after that many clauses.
    Each block is one `%` format: the `%d` templates of its clauses,
    joined, applied to all its literals.  A nonzero `shift` moves every
    auxiliary variable up by that much, through a table indexed by signed
    literal (a negative literal indexes from its end).
    """
    clauses, template, ren = cs.clauses, _Templates(), None
    if shift:
        ren = [*range(cs.num_inputs + 1), *range(cs.num_inputs + 1 + shift, cs.next_var + shift)]
        ren += [-v for v in reversed(ren[1:])]
    for start in range(0, len(clauses) if stop is None else stop, BLOCK):
        block = clauses[start:start + BLOCK]
        lits = chain.from_iterable(block)
        yield "".join(map(template.__getitem__, map(len, block))) % tuple(
            lits if ren is None else map(ren.__getitem__, lits))


def dimacs_text(cs: ClauseSet, method: str | None = None,
                names: Sequence[str] | None = None) -> str:
    """`dimacs_header` and `clause_blocks` of `cs`, byte-identical across runs.

    The text is held at most twice while it is built (the blocks and
    their join) rather than once more as one str per clause.
    """
    return "".join([dimacs_header(cs.num_inputs, cs.max_var, len(cs.clauses), method, names),
                    *clause_blocks(cs)])

