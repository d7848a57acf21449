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
import os
import re
from collections.abc import Callable, Sequence
from fractions import Fraction

from .measure import _MAX_DIGITS, Partition
from .randvar import RandomElement, Randomization, _value_texts
from .records import DLO, Signature, finite_enum

_ENUM_RE = re.compile(r"enum\((\d+)\)\Z")


def _parse_theory(raw: object) -> Signature:
    if not isinstance(raw, str):
        raise ValueError(f"theory must be a string, got {raw!r}")
    if raw == "dlo":
        return DLO
    m = _ENUM_RE.match(raw)
    if m:
        if len(m.group(1)) > _MAX_DIGITS:
            raise ValueError(f"enum size has more than {_MAX_DIGITS} digits")
        return finite_enum(int(m.group(1)))
    raise ValueError(f"unknown theory {raw!r} (want 'dlo' or 'enum(n)')")


def _theory_string(sig: Signature) -> str:
    return "dlo" if sig.is_dlo else f"enum({sig.n})"


def _fraction(text: str) -> Fraction:
    """text as an exact Fraction.  Raises ValueError when it is not one, or
    when its numerator or denominator could need more than _MAX_DIGITS
    digits, which is checked before the value is built: the string's
    length must not exceed it, or for a string with an exponent, the
    characters before it plus the exponent's size."""
    digits = len(text)
    if "e" in text or "E" in text:
        e = max(text.rfind("e"), text.rfind("E"))
        # what follows the last e of a valid string is its exponent; int()
        # refuses anything else, and exponents past _MAX_DIGITS digits
        digits = e + abs(int(text[e + 1 :]))
    if digits > _MAX_DIGITS:
        raise ValueError(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def _parse_fraction(raw: object, what: str, memo: dict[str, Fraction]) -> Fraction:
    """raw as an exact Fraction.  memo maps the strings already parsed from
    this file to their values, so a string that repeats is parsed once."""
    if not isinstance(raw, str):
        raise ValueError(f"{what} must be an exact fraction string, got {raw!r}")
    value = memo.get(raw)
    if value is None:
        try:
            value = memo[raw] = _fraction(raw)
        except ValueError:
            raise ValueError(f"bad fraction {raw!r} for {what}") from None
    return value


def _fractions(
    raws: Sequence, what: Callable[[int], str], memo: dict[str, Fraction]
) -> tuple[Fraction, ...]:
    """Each entry of raws as an exact Fraction; what(i) names entry i.

    Each distinct string is parsed once and the entries map onto the parsed
    objects, so equal entries share one value.  A bad entry raises, naming
    the first in file order.
    """
    try:
        distinct = set(raws)  # an unhashable entry (a list) raises TypeError
        if set(map(type, distinct)) <= {str}:
            memo.update({s: _fraction(s) for s in distinct.difference(memo)})
            return tuple(map(memo.__getitem__, raws))
    except (TypeError, ValueError):
        pass  # the scan below names the first bad entry
    return tuple(_parse_fraction(raw, what(i), memo) for i, raw in enumerate(raws))


def _parse_atoms(raw: object, memo: dict[str, Fraction]) -> Partition:
    if not isinstance(raw, list) or not raw:
        raise ValueError("atoms must be a nonempty list of [name, weight] pairs")
    if set(map(type, raw)) == {list} and set(map(len, raw)) == {2}:
        names, ws = zip(*raw)
        if set(map(type, names)) == {str}:
            weights = _fractions(ws, lambda i: f"weight of atom {names[i]!r}", memo)
            return Partition(zip(names, weights))
    # some entry is malformed: scan in file order to name the first
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
    return Partition(pairs)


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
            elements[name] = _fractions(vals, lambda i: what, memo)
        elif set(map(type, vals)) <= {int}:
            elements[name] = tuple(vals)
        else:
            bad = next(v for v in vals if type(v) is not int)
            raise ValueError(f"element {name!r} values must be integers, got {bad!r}")
    # every value is parsed before any element is built, so a bad value is
    # named before a wrong count
    built = {name: RandomElement(sig, part, vals) for name, vals in elements.items()}
    return Randomization(sig, part, built)


def _values_payloads(elems: Sequence[RandomElement]) -> list[list]:
    """Each element's values as the file stores them: fraction strings under
    DLO, plain integers under an enumerated domain."""
    if elems and elems[0].sig.is_dlo:
        return _value_texts([e.values for e in elems])
    return [list(e.values) for e in elems]


def to_payload(r: Randomization) -> dict:
    atoms = [
        [name, str(r.partition.weight(i))] for i, name in enumerate(r.partition.names)
    ]
    elements = dict(zip(r.elements, _values_payloads(list(r.elements.values()))))
    return {"theory": _theory_string(r.sig), "atoms": atoms, "elements": elements}


class _Ints(dict):
    """json's parse_int for one file: each distinct integer string is
    converted once, after its digits are counted, so an integer past
    _MAX_DIGITS digits is refused before it is built, whatever the
    interpreter's own limit.  A repeated string costs one dict lookup,
    less than json's own conversion of it."""

    def __missing__(self, text: str) -> int:
        if len(text.lstrip("-")) > _MAX_DIGITS:
            raise ValueError(f"integer in file has more than {_MAX_DIGITS} digits")
        value = self[text] = int(text)
        return value


def loads(text: str) -> Randomization:
    try:
        payload = json.loads(text, parse_int=_Ints().__getitem__)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return from_payload(payload)


def load(path: str | os.PathLike) -> Randomization:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError:
        # pathlib, imported only here, reads a few spellings open() refuses
        # ('' as '.', a trailing slash dropped) and words the error
        from pathlib import Path

        p = Path(path)
        try:
            text = p.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read {p}: {exc.strerror or exc}") from None
    return loads(text)


def dumps(r: Randomization) -> str:
    return json.dumps(to_payload(r), indent=2) + "\n"


def dump(r: Randomization, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(r))
