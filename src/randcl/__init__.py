"""Exact symbolic engine for finitely presented randomizations.

A randomization pairs a finite weighted partition with named random
elements (one model value per atom) over one of two complete theories:
dense linear orders without endpoints, or a pure-equality enumerated
domain with named constants.  Everything is computed in exact rational
arithmetic: formula events, probabilities, metrics, definable-closure
operators, and the deciders that cross-check one another.

Every request of the command line is a fresh process, so importing the
package loads no submodule: each exported name (PEP 562) and each
submodule is imported on first use.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "formula": (
        "DLO", "Atom", "And", "Const", "Exists", "Falsity", "Forall", "Formula",
        "Iff", "Implies", "Not", "Or", "ParseError", "Signature", "Truth", "Var",
        "check_signature", "finite_enum", "free_vars", "is_quantifier_free",
        "parse", "substitute", "to_text",
    ),
    "theory": ("eval_qf", "isolating_formula", "qe"),
    "oracles": (
        "definable_in_model", "eval_direct", "evaluate", "fo_definable_closure",
        "if_less_closure", "is_functional", "is_valid", "isolating_formulas",
        "universal_closure",
    ),
    "measure": (
        "Event", "EventAlgebra", "Partition", "complement", "event_dist",
        "generated_algebra", "join", "meet", "partition", "refine",
        "transport_event",
    ),
    "randvar": (
        "RandomElement", "Randomization", "differs", "elem_dist", "eval_event",
        "glue", "if_less", "indicator", "pointwise_max", "pointwise_min",
        "transport_elem", "witness",
    ),
    "closure": (
        "DefinabilityReport", "definability_report", "definable_closure",
        "fo_definable_on", "fo_event_algebra", "is_definable",
        "is_definable_by_isolating_events", "is_definable_by_pinning",
        "is_pointwise_definable", "piecewise_definable",
        "pointwise_definable_event",
    ),
    "randfile": ("dump", "dumps", "load", "loads"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
