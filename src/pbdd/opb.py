"""Reading and writing the OPB pseudo-Boolean exchange format.

Only the decision fragment is supported: `*` comment lines and constraint
lines of the form `[+|-]<int> [~]x<idx> ... <op> <int> ;`.  A negated
literal `a ~x` is read as `-a x` with `a` subtracted from the bound
(a·¬x = a - a·x).  Objective lines are rejected with a clear message.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .constraints import COMPARATORS, PBConstraint, RawConstraint, Record

_VAR_RE = re.compile(r"x\d+$")
_COEF_RE = re.compile(r"[+-]?\d+$")


class OpbParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class Instance(Record):
    """A parsed OPB file: named variables plus raw constraints.

    Internal variable ids are dense from 1, assigned in first-appearance
    order; `names[i-1]` is the external name of id i.
    """

    __slots__ = _fields = ("names", "name_to_id", "constraints")

    def __init__(self, names: list[str] | None = None, name_to_id: dict[str, int] | None = None,
                 constraints: list[RawConstraint] | None = None):
        self.names = [] if names is None else names
        self.name_to_id = {} if name_to_id is None else name_to_id
        self.constraints = [] if constraints is None else constraints

    def intern(self, name: str) -> int:
        vid = self.name_to_id.get(name)
        if vid is None:
            self.names.append(name)
            vid = len(self.names)
            self.name_to_id[name] = vid
        return vid


def _integer(tok: str, what: str, lineno: int, col: int) -> int:
    if not _COEF_RE.match(tok):
        raise OpbParseError(f"bad {what} {tok!r}", lineno, col)
    try:
        return int(tok)
    except ValueError:  # longer than the interpreter's int-string digit limit
        raise OpbParseError(f"{what} has too many digits ({len(tok)})", lineno, col) from None


def parse_opb(text: str) -> Instance:
    """Parse OPB text into an Instance; raises OpbParseError with position."""
    inst = Instance()
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("min:") or line.startswith("max:"):
            raise OpbParseError(
                "objective lines are not supported (decision problems only)",
                lineno, 1,
            )
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw_line)]
        # the trailing ';' may be its own token or glued to the bound
        tok, col = tokens[-1]
        if not tok.endswith(";"):
            raise OpbParseError("constraint must end with ';'", lineno, col)
        semi = raw_line.find(";")
        if semi < col + len(tok) - 2:  # the final ';' is at index col + len(tok) - 2
            raise OpbParseError("';' before the end of the line (one constraint per line)",
                                lineno, semi + 1)
        if tok == ";":
            tokens.pop()
        else:
            tokens[-1] = (tok[:-1], col)
        if len(tokens) < 2:
            raise OpbParseError("truncated constraint", lineno, 1)
        op_tok, op_col = tokens[-2]
        if op_tok not in COMPARATORS:
            raise OpbParseError(f"expected comparison operator, got {op_tok!r}",
                                lineno, op_col)
        bound_tok, bound_col = tokens[-1]
        bound = _integer(bound_tok, "bound", lineno, bound_col)
        body = tokens[:-2]
        if len(body) % 2:
            raise OpbParseError("terms must be <coefficient> <variable> pairs",
                                lineno, body[-1][1])
        terms = []
        for idx in range(0, len(body), 2):
            coef_tok, coef_col = body[idx]
            var_tok, var_col = body[idx + 1]
            coef = _integer(coef_tok, "coefficient", lineno, coef_col)
            negated = var_tok.startswith("~")
            name = var_tok[1:] if negated else var_tok
            if not _VAR_RE.match(name):
                raise OpbParseError(f"bad variable {var_tok!r}", lineno, var_col)
            if negated:
                terms.append((-coef, inst.intern(name)))
                bound -= coef
            else:
                terms.append((coef, inst.intern(name)))
        inst.constraints.append(RawConstraint(terms, op_tok, bound))
    return inst


def write_opb(
    constraints: Iterable[PBConstraint | RawConstraint],
    names: Sequence[str] | None = None,
    header: Iterable[str] = (),
) -> str:
    """Render constraints as OPB text; `names[v-1]` names variable v."""

    def name_of(v: int) -> str:
        return names[v - 1] if names else f"x{v}"

    lines = [f"* {h}" for h in header]
    for c in constraints:
        raw = c.to_raw() if isinstance(c, PBConstraint) else c
        parts = [f"{coef:+d} {name_of(var)}" for coef, var in raw.terms]
        parts.append(raw.op)
        parts.append(str(raw.bound))
        lines.append(" ".join(parts) + " ;")
    return "\n".join(lines) + "\n"
