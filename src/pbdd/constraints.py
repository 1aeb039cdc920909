"""Pseudo-Boolean constraint types and normalization.

Everything downstream operates on `PBConstraint`: a sum of positively
weighted literals compared with `<=`.  `normalize` reduces the five
comparators and arbitrary signed coefficients to that shape.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

COMPARATORS = ("<", ">", "<=", ">=", "=")


class Record:
    """`==` and `repr` over the fields named in `_fields`, which `__init__` sets.

    Plain classes spare each command the import of `dataclasses`.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Term(NamedTuple):
    """One `coef * literal` summand; `lit` is a signed variable id."""

    coef: int
    lit: int

    @property
    def var(self) -> int:
        return abs(self.lit)


class PBConstraint(Record):
    """`sum(coef_i * lit_i) <= bound` with every coefficient >= 1.

    Each variable occurs in at most one term, and the term order doubles
    as the default decision-diagram variable order.  Coefficients and the
    bound are plain Python ints, so arbitrarily large values are fine.
    Instances are immutable and hashable.
    """

    __slots__ = _fields = ("terms", "bound")

    def __init__(self, terms: tuple[Term, ...], bound: int):
        seen = set()
        for t in terms:
            if t.coef < 1:
                raise ValueError(f"coefficient must be >= 1: {t}")
            if t.var < 1:
                raise ValueError(f"variable ids must be >= 1: {t}")
            if t.var in seen:
                raise ValueError(f"variable x{t.var} occurs twice")
            seen.add(t.var)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash((self.terms, self.bound))

    def __reduce__(self):  # copy and pickle rebuild through the checking `__init__`
        return type(self), (self.terms, self.bound)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], bound: int) -> "PBConstraint":
        """Build from `(coef, signed literal)` pairs."""
        return cls(tuple(Term(c, l) for c, l in pairs), bound)

    @property
    def coef_sum(self) -> int:
        return sum(t.coef for t in self.terms)

    @property
    def trivially_true(self) -> bool:
        return self.bound >= self.coef_sum

    @property
    def trivially_false(self) -> bool:
        return self.bound < 0

    def variables(self) -> tuple[int, ...]:
        return tuple(t.var for t in self.terms)

    def coefficients(self) -> tuple[int, ...]:
        return tuple(t.coef for t in self.terms)

    def literals(self) -> tuple[int, ...]:
        return tuple(t.lit for t in self.terms)

    def to_raw(self) -> "RawConstraint":
        """Signed-coefficient form over plain variables (inverse of normalize)."""
        terms = []
        bound = self.bound
        for t in self.terms:
            if t.lit > 0:
                terms.append((t.coef, t.var))
            else:
                # a * ~x  ==  a - a * x
                terms.append((-t.coef, t.var))
                bound -= t.coef
        return RawConstraint(terms, "<=", bound)

    def __str__(self) -> str:
        if not self.terms:
            return f"0 <= {self.bound}"
        parts = []
        for t in self.terms:
            name = f"~x{t.var}" if t.lit < 0 else f"x{t.var}"
            parts.append(f"{t.coef}*{name}")
        return " + ".join(parts) + f" <= {self.bound}"


class RawConstraint(Record):
    """Unnormalized constraint: signed integer coefficients over variables."""

    __slots__ = _fields = ("terms", "op", "bound")

    def __init__(self, terms: list[tuple[int, int]], op: str, bound: int):
        if op not in COMPARATORS:
            raise ValueError(f"unknown comparator {op!r}")
        for _, v in terms:
            if v < 1:
                raise ValueError(f"variable ids must be >= 1, got {v}")
        self.terms = terms  # (coefficient, variable id)
        self.op = op
        self.bound = bound


def _normalize_le(terms: Iterable[tuple[int, int]], bound: int) -> PBConstraint:
    # Combine duplicate variables first (still in signed form), keeping
    # first-occurrence order, then push signs into literal polarities.
    order: list[int] = []
    acc: dict[int, int] = {}
    for coef, var in terms:
        if var not in acc:
            acc[var] = 0
            order.append(var)
        acc[var] += coef
    out = []
    for var in order:
        a = acc[var]
        if a == 0:
            continue
        if a > 0:
            out.append(Term(a, var))
        else:
            # -a*x == a*~x - a, so the bound absorbs the constant
            out.append(Term(-a, -var))
            bound += -a
    return PBConstraint(tuple(out), bound)


def normalize(raw: RawConstraint) -> list[PBConstraint]:
    """Reduce any comparator/sign combination to `<=` with positive coefficients.

    Returns one constraint for `<`, `>`, `<=`, `>=` and two for `=`.  The
    conjunction of the results has exactly the models of `raw`.
    """
    # over the integers, `< k` is `<= k - 1` and `> k` is `>= k + 1`
    op, terms, bound = raw.op, raw.terms, raw.bound
    if op in ("<=", "<"):
        return [_normalize_le(terms, bound - (op == "<"))]
    flipped = [(-c, v) for c, v in terms]  # `>= k` is `-sum <= -k`
    if op == "=":
        return [_normalize_le(terms, bound), _normalize_le(flipped, -bound)]
    return [_normalize_le(flipped, -bound - (op == ">"))]


def evaluate(c: PBConstraint, assignment: Mapping[int, int]) -> int:
    """1 iff the weighted sum of literal values is within the bound.

    `assignment` must define every variable of `c`; this is the reference
    semantics all diagram and CNF oracles are checked against.
    """
    total = 0
    for coef, lit in c.terms:
        if bool(assignment[abs(lit)]) == (lit > 0):  # the literal is true
            total += coef
    return int(total <= c.bound)
