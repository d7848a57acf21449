"""Reading and writing randomization instances as JSON.

The on-disk shape::

    {
      "theory": "dlo",                  // or "enum(3)"
      "atoms": [["w1", "1/2"], ["w2", "1/2"]],
      "elements": {"a": ["0", "1"], "b": ["1", "0"]}
    }

Weights are exact fraction strings.  Element values are fraction strings
for the ordered theory and plain integers for an enumerated domain — no
floating point ever touches an instance file.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .formula import DLO, Signature, finite_enum
from .measure import Partition, partition
from .randvar import RandomElement, Randomization

_ENUM_RE = re.compile(r"enum\((\d+)\)\Z")


def _parse_theory(raw: object) -> Signature:
    if not isinstance(raw, str):
        raise ValueError(f"theory must be a string, got {raw!r}")
    if raw == "dlo":
        return DLO
    m = _ENUM_RE.match(raw)
    if m:
        return finite_enum(int(m.group(1)))
    raise ValueError(f"unknown theory {raw!r} (want 'dlo' or 'enum(n)')")


def _theory_string(sig: Signature) -> str:
    return "dlo" if sig.is_dlo else f"enum({sig.n})"


def _parse_fraction(raw: object, what: str, memo: dict[str, Fraction]) -> Fraction:
    """raw as an exact Fraction.  memo maps the strings already parsed from
    this file to their values, so a string that repeats is parsed once."""
    if not isinstance(raw, str):
        raise ValueError(f"{what} must be an exact fraction string, got {raw!r}")
    value = memo.get(raw)
    if value is None:
        try:
            value = memo[raw] = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad fraction {raw!r} for {what}") from None
    return value


def _parse_atoms(raw: object, memo: dict[str, Fraction]) -> Partition:
    if not isinstance(raw, list) or not raw:
        raise ValueError("atoms must be a nonempty list of [name, weight] pairs")
    pairs = []
    for entry in raw:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], str)
        ):
            raise ValueError(f"atom entry must be a [name, weight] pair, got {entry!r}")
        name, w = entry
        pairs.append((name, _parse_fraction(w, f"weight of atom {name!r}", memo)))
    return partition(pairs)


def from_payload(payload: object) -> Randomization:
    """Build a validated randomization from decoded JSON data."""
    if not isinstance(payload, dict):
        raise ValueError("top level must be an object")
    for key in ("theory", "atoms", "elements"):
        if key not in payload:
            raise ValueError(f"missing field {key!r}")
    sig = _parse_theory(payload["theory"])
    memo: dict[str, Fraction] = {}
    part = _parse_atoms(payload["atoms"], memo)
    raw_elems = payload["elements"]
    if not isinstance(raw_elems, dict):
        raise ValueError("elements must map names to value lists")
    elements = {}
    for name, vals in raw_elems.items():
        if not isinstance(vals, list):
            raise ValueError(f"element {name!r} must be a list of values")
        if sig.is_dlo:
            what = f"value of element {name!r}"
            elements[name] = [_parse_fraction(v, what, memo) for v in vals]
        else:
            for v in vals:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValueError(
                        f"element {name!r} values must be integers, got {v!r}"
                    )
            elements[name] = list(vals)
    return Randomization.build(sig, part, elements)


def _values_payload(e: RandomElement) -> list:
    """An element's values as the file stores them: fraction strings under
    DLO, plain integers under an enumerated domain."""
    return [str(v) for v in e.values] if e.sig.is_dlo else list(e.values)


def to_payload(r: Randomization) -> dict:
    atoms = [
        [name, str(r.partition.weight(i))] for i, name in enumerate(r.partition.names)
    ]
    elements = {name: _values_payload(e) for name, e in r.elements.items()}
    return {"theory": _theory_string(r.sig), "atoms": atoms, "elements": elements}


def loads(text: str) -> Randomization:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return from_payload(payload)


def load(path: str | Path) -> Randomization:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {p}: {exc.strerror or exc}") from None
    return loads(text)


def dumps(r: Randomization) -> str:
    return json.dumps(to_payload(r), indent=2) + "\n"


def dump(r: Randomization, path: str | Path) -> None:
    Path(path).write_text(dumps(r))
