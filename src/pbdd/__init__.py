"""Pseudo-Boolean to CNF compiler based on interval-labeled reduced ordered BDDs.

Every public name is loaded from its module on first use (PEP 562), so a
command imports only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "constraints": ("PBConstraint", "RawConstraint", "Term", "evaluate", "literal_value",
                    "normalize"),
    "robdd": ("FALSE_NODE", "TRUE_NODE", "NodeStore", "eval_bdd", "reachable_nodes", "to_dot"),
    "intervals": ("Interval", "combine_child_intervals", "terminal_interval",
                  "verify_intervals"),
    "builder": ("BuildResult", "BuildStats", "LevelStore", "NodeBudgetExceeded", "build",
                "level_widths"),
    "encode": ("ClauseSet", "Decomposition", "clause_set_for", "decompose", "encode_ite6",
               "encode_monotone", "encode_small", "run_pipeline"),
    "propagate": ("CONFLICT", "FIXPOINT", "UnitPropagator"),
    "verify": ("Counterexample", "check_consistency", "check_encoding", "check_equivalent",
               "check_gac", "check_level_width", "extendable", "subset_sum_reachable",
               "subset_sum_unsat"),
    "families": ("bailleux_family", "cardinality", "hosaka_family", "random_constraint"),
    "opb": ("Instance", "OpbParseError", "parse_opb", "write_opb"),
    "dimacs": ("dimacs_text", "write_dimacs"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as the eager imports used to bind it
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
