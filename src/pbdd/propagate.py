"""Deterministic unit-propagation fixpoint engine.

Counter-based rather than watched-literal: the engine exists to *define*
what the consistency and arc-consistency checkers mean by propagation, so
clarity and reproducibility beat solver tricks.  A `UnitPropagator` is
built once per clause set.  It either runs a seed from scratch (`run`) or
is driven incrementally: `assume` adds one literal and propagates only
its consequences, `backtrack` pops the trail back to a mark and takes the
popped literals' counts back out of the clause counters.  The checkers in
`verify` walk all partial assignments that way, with one incremental
propagation per step.
"""

from __future__ import annotations

from typing import Iterable, Sequence

FIXPOINT = "fixpoint"
CONFLICT = "conflict"


class UnitPropagator:
    """Reusable propagation engine over one immutable clause list.

    The engine keeps one propagation state: `values` (0 unassigned / 1
    true / 2 false per variable), the `trail` of assigned literals with
    their antecedent clauses in `reasons`, a queue head splitting the
    trail into processed and pending literals, and per clause the number
    of its literals made false by processed trail literals.  A new engine
    has nothing assigned.

    - `run(seed)` replaces the state with a fresh propagation from `seed`.
    - `reset()` replaces it with the propagation of the unit clauses alone
      (level 0).  From there `assume(lit)` extends the state by one
      literal, and `backtrack(mark)` returns to an earlier trail length,
      undoing the counters of exactly the literals that were processed
      (MiniSat's trail discipline, Een & Sorensson, SAT 2003).  A walk
      over partial assignments then costs one incremental propagation per
      step instead of a full run per assignment.

    All three share one propagation loop, `_propagate`.
    """

    def __init__(self, clauses: Sequence[Sequence[int]], num_vars: int | None = None):
        self.clauses = [tuple(dict.fromkeys(cl)) for cl in clauses]
        nv = num_vars or 0
        for cl in self.clauses:
            for l in cl:
                if abs(l) > nv:
                    nv = abs(l)
        self.num_vars = nv
        self._pos: list[list[int]] = [[] for _ in range(nv + 1)]
        self._neg: list[list[int]] = [[] for _ in range(nv + 1)]
        self._sizes = [len(cl) for cl in self.clauses]
        self._empty_clause: int | None = None
        self._initial_units: list[tuple[int, int]] = []
        for ci, cl in enumerate(self.clauses):
            if not cl:
                self._empty_clause = ci
            elif len(cl) == 1:
                self._initial_units.append((cl[0], ci))
            for l in cl:
                (self._pos if l > 0 else self._neg)[abs(l)].append(ci)
        self._zero_counts = [0] * len(self.clauses)
        self._clear()

    def _clear(self) -> None:
        # fresh objects, so results returned by an earlier run stay intact
        self.values = bytearray(self.num_vars + 1)
        self.trail: list[int] = []
        self.reasons: list[int | None] = []
        self._nfalse = self._zero_counts[:]
        self._head = 0

    def _enqueue(self, lit: int, reason: int | None) -> bool:
        """Put `lit` on the trail unless already set; False if it is false."""
        var = abs(lit)
        want = 1 if lit > 0 else 2
        have = self.values[var]
        if have:
            return have == want
        self.values[var] = want
        self.trail.append(lit)
        self.reasons.append(reason)
        return True

    def _start(self) -> int | None:
        """Propagate the unit clauses; the conflicting clause (an empty one first) or None."""
        if self._empty_clause is not None:
            return self._empty_clause
        for lit, ci in self._initial_units:
            if not self._enqueue(lit, ci):
                return ci
        return self._propagate()

    def reset(self) -> int | None:
        """Drop every assumption and propagate the unit clauses (level 0).

        Returns the index of a conflicting clause when the clauses alone
        are refuted by propagation, else None.
        """
        self._clear()
        return self._start()

    def run(self, seed: Iterable[int]):
        """Propagate to fixpoint from `seed` literals.

        Returns `(status, values, trail, reasons, conflict_clause)` where
        `values[v]` is 0 unassigned / 1 true / 2 false.  The trail holds
        the seeds, then the unit clauses, then derived literals in queue
        order.  A seed literal 0 or of a variable above `num_vars`, and
        contradictory seeds, raise ValueError; the fixpoint itself is
        unique regardless of processing order.  The result becomes the
        engine's state, which `assume`/`backtrack` may continue from.
        """
        self._clear()
        for lit in seed:
            if not 0 < abs(lit) <= self.num_vars:
                raise ValueError(f"seed literal {lit} is not a literal of a variable "
                                 f"1..{self.num_vars}")
            if not self._enqueue(lit, None):
                raise ValueError(f"contradictory seed literal {lit}")
        conflict = self._start()
        status = FIXPOINT if conflict is None else CONFLICT
        return status, self.values, self.trail, self.reasons, conflict

    def assume(self, lit: int) -> bool:
        """Make `lit` true and propagate; False on conflict.

        Take `mark = len(engine.trail)` first; `backtrack(mark)` undoes the
        assumption and everything it derived.  After a conflict, backtrack
        before assuming again.
        """
        if not self._enqueue(lit, None):
            return False
        return self._propagate() is None

    def backtrack(self, mark: int) -> None:
        """Unassign the trail from position `mark` on.

        Only literals below the queue head have been counted into the
        clause counters, so only those are uncounted.
        """
        trail, values, nfalse = self.trail, self.values, self._nfalse
        pos, neg = self._pos, self._neg
        head = self._head
        for lit in trail[mark:head]:
            for ci in (neg[lit] if lit > 0 else pos[-lit]):
                nfalse[ci] -= 1
        for lit in trail[mark:]:
            values[abs(lit)] = 0
        del trail[mark:]
        del self.reasons[mark:]
        if head > mark:
            self._head = mark

    def _propagate(self) -> int | None:
        """Process the trail from the queue head; the conflicting clause or None.

        On a conflict the literal being processed is left unprocessed, with
        its counter increments taken back, so `backtrack` can undo exactly.
        """
        values, trail, reasons = self.values, self.trail, self.reasons
        clauses = self.clauses
        sizes = self._sizes
        nfalse = self._nfalse
        pos, neg = self._pos, self._neg
        head = self._head
        while head < len(trail):
            lit = trail[head]
            head += 1
            occurs = neg[lit] if lit > 0 else pos[-lit]
            for ci in occurs:
                nf = nfalse[ci] + 1
                nfalse[ci] = nf
                size = sizes[ci]
                if nf == size:
                    for cj in occurs:
                        nfalse[cj] -= 1
                        if cj == ci:
                            break
                    self._head = head - 1
                    return ci
                if nf == size - 1:
                    unit = 0
                    for l in clauses[ci]:
                        have = values[abs(l)]
                        if have == 0:
                            unit = l
                            break
                        if have == (1 if l > 0 else 2):
                            unit = 0
                            break
                    if unit:
                        values[abs(unit)] = 1 if unit > 0 else 2
                        trail.append(unit)
                        reasons.append(ci)
        self._head = head
        return None

