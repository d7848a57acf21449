"""Exact symbolic engine for finitely presented randomizations.

A randomization pairs a finite weighted partition with named random
elements (one model value per atom) over one of two complete theories:
dense linear orders without endpoints, or a pure-equality enumerated
domain with named constants.  Everything is computed in exact rational
arithmetic: formula events, probabilities, metrics, definable-closure
operators, and the deciders that cross-check one another.

Every request of the command line is a fresh process, so importing the
package loads no submodule: each exported name (PEP 562) and each
submodule is imported on first use.  The submodules are cut along the
requests' routes, so that a subcommand compiles only modules whose code
it runs (README.md maps them): records, measure, randvar and randfile
for every request; formula for those that read a formula; witnesses,
algebra and closure for their subcommands; checks, with the reference
routes, for the cross-checks alone.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "records": ("DLO", "Signature", "finite_enum"),
    "formula": (
        "Atom", "And", "Const", "Exists", "Falsity", "Forall", "Formula", "Iff",
        "Implies", "Not", "Or", "ParseError", "Truth", "Var", "eval_qf",
        "free_vars", "is_quantifier_free", "parse", "qe", "to_text",
    ),
    "checks": (
        "check_signature", "definable_in_model", "eval_direct", "evaluate",
        "fo_definable_closure", "generated_algebra", "if_less", "if_less_closure",
        "indicator", "is_functional", "is_valid", "isolating_formulas",
        "pointwise_max", "pointwise_min", "refine", "substitute", "transport_elem",
        "transport_event", "universal_closure",
    ),
    "measure": ("Event", "Partition", "complement", "event_dist", "join", "meet"),
    "randvar": (
        "RandomElement", "Randomization", "differs", "elem_dist", "eval_event",
        "glue",
    ),
    "witnesses": ("witness",),
    "algebra": (
        "EventAlgebra", "definable_closure", "fo_event_algebra",
        "pointwise_definable_event",
    ),
    "closure": (
        "DefinabilityReport", "definability_report", "fo_definable_on",
        "is_definable", "is_definable_by_isolating_events", "is_definable_by_pinning",
        "isolating_formula", "piecewise_definable",
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
