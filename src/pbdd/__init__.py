"""Pseudo-Boolean to CNF compiler based on interval-labeled reduced ordered BDDs."""

from .constraints import PBConstraint, RawConstraint, Term, evaluate, literal_value, normalize
from .robdd import FALSE_NODE, TRUE_NODE, NodeStore, eval_bdd, reachable_nodes, to_dot
from .intervals import Interval, combine_child_intervals, terminal_interval, verify_intervals
from .builder import (BuildResult, BuildStats, LevelStore, NodeBudgetExceeded, build,
                      level_widths)
from .encode import (ClauseSet, Decomposition, clause_set_for, decompose, encode_ite6,
                     encode_monotone, encode_small, run_pipeline)
from .propagate import CONFLICT, FIXPOINT, UnitPropagator
from .verify import (Counterexample, check_consistency, check_encoding, check_equivalent,
                     check_gac, check_level_width, extendable, subset_sum_reachable,
                     subset_sum_unsat)
from .families import bailleux_family, cardinality, hosaka_family, random_constraint
from .opb import Instance, OpbParseError, parse_opb, write_opb
from .dimacs import dimacs_text, write_dimacs

__version__ = "0.1.0"
