"""Exact symbolic engine for finitely presented randomizations.

A randomization pairs a finite weighted partition with named random
elements (one model value per atom) over one of two complete theories:
dense linear orders without endpoints, or a pure-equality enumerated
domain with named constants.  Everything is computed in exact rational
arithmetic: formula events, probabilities, metrics, definable-closure
operators, and the deciders that cross-check one another.
"""

from .formula import (
    DLO,
    Atom,
    And,
    Const,
    Exists,
    Falsity,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Signature,
    Truth,
    Var,
    check_signature,
    finite_enum,
    free_vars,
    is_quantifier_free,
    parse,
    substitute,
    to_text,
)
from .theory import (
    definable_in_model,
    eval_direct,
    eval_qf,
    evaluate,
    is_functional,
    is_valid,
    isolating_formula,
    isolating_formulas,
    qe,
    universal_closure,
)
from .measure import (
    Event,
    EventAlgebra,
    Partition,
    complement,
    event_dist,
    generated_algebra,
    join,
    meet,
    partition,
    refine,
    transport_event,
)
from .randvar import (
    RandomElement,
    Randomization,
    differs,
    elem_dist,
    eval_event,
    glue,
    if_less,
    indicator,
    pointwise_max,
    pointwise_min,
    transport_elem,
    witness,
)
from .closure import (
    DefinabilityReport,
    definability_report,
    definable_closure,
    definable_event_algebra,
    fo_definable_closure,
    fo_definable_on,
    fo_event_algebra,
    if_less_closure,
    is_definable,
    is_definable_by_isolating_events,
    is_definable_by_pinning,
    is_pointwise_definable,
    piecewise_definable,
    pointwise_definable_event,
)
from .randfile import dump, dumps, load, loads

__version__ = "0.1.0"

__all__ = [
    # formula
    "DLO", "Atom", "And", "Const", "Exists", "Falsity", "Forall", "Formula",
    "Iff", "Implies", "Not", "Or", "ParseError", "Signature", "Truth", "Var",
    "check_signature", "finite_enum", "free_vars", "is_quantifier_free",
    "parse", "substitute", "to_text",
    # theory
    "definable_in_model", "eval_direct", "eval_qf", "evaluate",
    "is_functional", "is_valid", "isolating_formula", "isolating_formulas",
    "qe", "universal_closure",
    # measure
    "Event", "EventAlgebra", "Partition", "complement", "event_dist",
    "generated_algebra", "join", "meet", "partition", "refine",
    "transport_event",
    # randvar
    "RandomElement", "Randomization", "differs", "elem_dist", "eval_event",
    "glue", "if_less", "indicator", "pointwise_max", "pointwise_min",
    "transport_elem", "witness",
    # closure
    "DefinabilityReport", "definability_report", "definable_closure",
    "definable_event_algebra", "fo_definable_closure", "fo_definable_on",
    "fo_event_algebra", "if_less_closure", "is_definable",
    "is_definable_by_isolating_events", "is_definable_by_pinning",
    "is_pointwise_definable", "piecewise_definable",
    "pointwise_definable_event",
    # randfile
    "dump", "dumps", "load", "loads",
]
