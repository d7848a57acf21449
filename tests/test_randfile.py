from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcl import (
    DLO,
    Partition,
    RandomElement,
    Randomization,
    dump,
    dumps,
    finite_enum,
    load,
    loads,
)
from randcl import measure
from randcl.checks import random_instance
from randcl.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

GOOD = """
{
  "theory": "dlo",
  "atoms": [["w1", "1/2"], ["w2", "1/2"]],
  "elements": {"a": ["0", "1"], "b": ["1", "0"]}
}
"""


def test_load_good_instance():
    r = loads(GOOD)
    assert r.sig.is_dlo
    assert r.partition.names == ("w1", "w2")
    assert sorted(r.elements) == ["a", "b"]


def test_load_sample_files():
    r = load(SAMPLES / "swap_pair.json")
    assert r.partition.size == 2 and r.sig.is_dlo
    f = load(SAMPLES / "coin_enum.json")
    assert f.sig.n == 2


def test_parse_error_has_location():
    with pytest.raises(ValueError, match=r"parse error at line 1, column 6"):
        loads('{"a":')


def test_weight_sum_reported():
    bad = GOOD.replace('"1/2"], ["w2", "1/2"', '"1/2"], ["w2", "1/3"')
    with pytest.raises(ValueError, match="weights sum to 5/6"):
        loads(bad)


def test_value_length_mismatch():
    bad = GOOD.replace('"a": ["0", "1"]', '"a": ["0", "1", "2"]')
    with pytest.raises(ValueError, match="3 values for 2 atoms"):
        loads(bad)


def test_enum_domain_violation():
    text = """
    {
      "theory": "enum(2)",
      "atoms": [["w1", "1"]],
      "elements": {"x": [3]}
    }
    """
    with pytest.raises(ValueError, match="out of domain"):
        loads(text)


def test_enum_values_must_be_integers():
    text = """
    {
      "theory": "enum(2)",
      "atoms": [["w1", "1"]],
      "elements": {"x": ["1"]}
    }
    """
    with pytest.raises(ValueError, match="must be integers"):
        loads(text)


def test_dlo_values_must_be_strings():
    bad = GOOD.replace('["0", "1"]', "[0.5, 1]")
    with pytest.raises(ValueError, match="exact fraction string"):
        loads(bad)


def test_missing_field():
    with pytest.raises(ValueError, match="missing field 'elements'"):
        loads('{"theory": "dlo", "atoms": [["w1", "1"]]}')


def test_unknown_theory():
    with pytest.raises(ValueError, match="unknown theory"):
        loads(GOOD.replace('"dlo"', '"groups"'))


def test_missing_file():
    with pytest.raises(ValueError, match="cannot read"):
        load(SAMPLES / "absent.json")


def test_dump_then_load(tmp_path):
    r = loads(GOOD)
    dump(r, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text() == dumps(r)
    assert load(str(tmp_path / "r.json")) == r


def test_paths_read_as_pathlib_spells_them(tmp_path, monkeypatch):
    # open() refuses '' and a trailing slash; the path is then read, and
    # the error worded, as pathlib.Path spells it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.json").write_text(GOOD)
    assert load("r.json/") == load("r.json") == loads(GOOD)
    with pytest.raises(ValueError, match=r"^cannot read \.: Is a directory$"):
        load("")
    with pytest.raises(ValueError, match="^cannot read absent.json: No such file"):
        load(".//absent.json")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip(seed):
    r = random_instance(random.Random(seed))
    back = loads(dumps(r))
    assert back.sig == r.sig
    assert back.partition == r.partition
    assert back.elements == r.elements


# ---------------------------------------------------------------------------
# the bulk loader: one parse per distinct string, first bad entry named
# ---------------------------------------------------------------------------

def _by_value(text: str) -> Randomization:
    """The instance in text, built one value at a time through the public
    constructors."""
    raw = json.loads(text)
    sig = DLO if raw["theory"] == "dlo" else finite_enum(int(raw["theory"][5:-1]))
    part = Partition([(name, Fraction(w)) for name, w in raw["atoms"]])
    elements = {}
    for name, vals in raw["elements"].items():
        values = [Fraction(v) if sig.is_dlo else v for v in vals]
        elements[name] = RandomElement(sig, part, values)
    return Randomization(sig, part, elements)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bulk_load_equals_value_by_value(seed):
    rng = random.Random(seed)
    text = dumps(random_instance(rng))
    r = loads(text)
    assert r == _by_value(text)
    # equal strings share one parsed object
    if r.sig.is_dlo:
        raw = json.loads(text)
        strings = {v for vals in raw["elements"].values() for v in vals}
        objs = {id(v) for e in r.elements.values() for v in e.values}
        assert len(objs) == len(strings)


def _mixed_denominators(rng: random.Random, n_atoms: int) -> str:
    masses = [rng.randint(1, 9) for _ in range(n_atoms)]
    total = sum(masses)
    atoms = [[f"w{i + 1}", str(Fraction(m, total))] for i, m in enumerate(masses)]
    pool = ["0", "-7/3", "5/6", "1/7", "12", "3.25", "1e2", "-0.5", "2/4"]
    elements = {
        name: [rng.choice(pool) for _ in range(n_atoms)] for name in "abc"
    }
    return json.dumps({"theory": "dlo", "atoms": atoms, "elements": elements})


@pytest.mark.parametrize("seed", range(5))
def test_bulk_load_mixed_denominators(seed):
    rng = random.Random(seed)
    text = _mixed_denominators(rng, rng.choice((1, 7, 300)))
    assert loads(text) == _by_value(text)


def _dlo_payload(n: int = 40) -> dict:
    return {
        "theory": "dlo",
        "atoms": [[f"w{i + 1}", f"1/{n}"] for i in range(n)],
        "elements": {
            "a": [str(i % 7) for i in range(n)],
            "b": [f"{i}/3" for i in range(n)],
        },
    }


def _enum_payload(n: int = 40) -> dict:
    return {
        "theory": "enum(3)",
        "atoms": [[f"w{i + 1}", f"1/{n}"] for i in range(n)],
        "elements": {"x": [i % 3 for i in range(n)], "y": [0] * n},
    }


def _edit(base: dict, *edits) -> dict:
    """base with each (path, value) edit applied; a path is a tuple of keys."""
    payload = json.loads(json.dumps(base))
    for path, value in edits:
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return payload


# each malformed file with the one stderr line its load gives (captured
# before the loader parsed in bulk)
MALFORMED = {
    "bad value deep in the second element": (
        _edit(_dlo_payload(), (("elements", "b", 31), "3/x")),
        "error: bad fraction '3/x' for value of element 'b'",
    ),
    "first of two bad values": (
        _edit(
            _dlo_payload(),
            (("elements", "b", 5), "1//2"),
            (("elements", "b", 30), "x"),
        ),
        "error: bad fraction '1//2' for value of element 'b'",
    ),
    "value of an unparsed type after a bad string": (
        _edit(
            _dlo_payload(),
            (("elements", "b", 5), "nan"),
            (("elements", "b", 30), 7),
        ),
        "error: bad fraction 'nan' for value of element 'b'",
    ),
    "zero denominator value": (
        _edit(_dlo_payload(), (("elements", "a", 17), "2/0")),
        "error: bad fraction '2/0' for value of element 'a'",
    ),
    "bad weight": (
        _edit(_dlo_payload(), (("atoms", 25, 1), "1/0")),
        "error: bad fraction '1/0' for weight of atom 'w26'",
    ),
    "weight not a string": (
        _edit(_dlo_payload(), (("atoms", 3, 1), 0.025)),
        "error: weight of atom 'w4' must be an exact fraction string, got 0.025",
    ),
    "bool value": (
        _edit(_dlo_payload(), (("elements", "a", 12), True)),
        "error: value of element 'a' must be an exact fraction string, got True",
    ),
    "float value": (
        _edit(_dlo_payload(), (("elements", "b", 39), 0.5)),
        "error: value of element 'b' must be an exact fraction string, got 0.5",
    ),
    "enum bool value": (
        _edit(_enum_payload(), (("elements", "x", 17), True)),
        "error: element 'x' values must be integers, got True",
    ),
    "enum float value": (
        _edit(_enum_payload(), (("elements", "y", 2), 1.0)),
        "error: element 'y' values must be integers, got 1.0",
    ),
    "enum string value": (
        _edit(_enum_payload(), (("elements", "y", 38), "1")),
        "error: element 'y' values must be integers, got '1'",
    ),
    "enum value above the domain": (
        _edit(_enum_payload(), (("elements", "x", 33), 3)),
        "error: value 3 out of domain 0..2",
    ),
    "enum value below the domain": (
        _edit(_enum_payload(), (("elements", "y", 9), -1)),
        "error: value -1 out of domain 0..2",
    ),
    "zero weight": (
        _edit(_dlo_payload(), (("atoms", 10, 1), "0")),
        "error: atom 'w11' has nonpositive weight 0",
    ),
    "negative weight": (
        _edit(_dlo_payload(), (("atoms", 36, 1), "-1/40"), (("atoms", 37, 1), "0")),
        "error: atom 'w37' has nonpositive weight -1/40",
    ),
    "weights not summing to one": (
        _edit(_dlo_payload(), (("atoms", 0, 1), "1/20")),
        "error: weights sum to 41/40",
    ),
    "duplicate atoms": (
        _edit(_dlo_payload(), (("atoms", 20, 0), "w3")),
        "error: duplicate atom names",
    ),
    "atom entry not a list": (
        _edit(_dlo_payload(), (("atoms", 15), "w16")),
        "error: atom entry must be a [name, weight] pair, got 'w16'",
    ),
    "atom entry of three items": (
        _edit(_dlo_payload(), (("atoms", 8), ["w9", "1/40", "x"])),
        "error: atom entry must be a [name, weight] pair, got ['w9', '1/40', 'x']",
    ),
    "atom name not a string": (
        _edit(_dlo_payload(), (("atoms", 30, 0), 31)),
        "error: atom entry must be a [name, weight] pair, got [31, '1/40']",
    ),
    "bad weight before a malformed entry": (
        _edit(_dlo_payload(), (("atoms", 4, 1), "x"), (("atoms", 29), "w30")),
        "error: bad fraction 'x' for weight of atom 'w5'",
    ),
    "malformed entry before a bad weight": (
        _edit(_dlo_payload(), (("atoms", 4), "w5"), (("atoms", 29, 1), "x")),
        "error: atom entry must be a [name, weight] pair, got 'w5'",
    ),
    "element values not a list": (
        _edit(_dlo_payload(), (("elements", "b"), "0")),
        "error: element 'b' must be a list of values",
    ),
    "bad value after a short element": (
        _edit(
            _dlo_payload(),
            (("elements", "a"), ["0"]),
            (("elements", "b", 20), "?"),
        ),
        "error: bad fraction '?' for value of element 'b'",
    ),
    "list value": (
        _edit(
            _dlo_payload(),
            (("elements", "b", 3), [2]),
            (("elements", "b", 12), "x"),
        ),
        "error: value of element 'b' must be an exact fraction string, got [2]",
    ),
    "list weight": (
        _edit(_dlo_payload(), (("atoms", 6, 1), ["1/40"])),
        "error: weight of atom 'w7' must be an exact fraction string, got ['1/40']",
    ),
    "short element": (
        _edit(_dlo_payload(), (("elements", "b"), ["0", "1"])),
        "error: element has 2 values for 40 atoms",
    ),
    "enum type error after a domain error": (
        _edit(
            _enum_payload(),
            (("elements", "x", 5), 7),
            (("elements", "y", 1), False),
        ),
        "error: element 'y' values must be integers, got False",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_pinned_error(case, tmp_path, capsys):
    payload, line = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["dclb", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


_ONE_ATOM = {"theory": "dlo", "atoms": [["w1", "1"]], "elements": {"a": ["0"]}}


@pytest.mark.parametrize(
    "payload, line",
    [
        ({**_ONE_ATOM, "theory": 3}, "error: theory must be a string, got 3"),
        ([_ONE_ATOM], "error: top level must be an object"),
        (
            {**_ONE_ATOM, "atoms": []},
            "error: atoms must be a nonempty list of [name, weight] pairs",
        ),
        (
            {**_ONE_ATOM, "elements": [["a", ["0"]]]},
            "error: elements must map names to value lists",
        ),
    ],
)
def test_malformed_shape_pinned_error(payload, line, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["dclb", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


@pytest.mark.parametrize(
    "edit",
    [
        (("elements", "a", 3), "1e999999999"),
        (("elements", "b", 0), "-2.5E+999999"),
        (("elements", "a", 0), "1e-999999999"),
        (("elements", "a", 0), "1e" + "9" * 5000),
        (("atoms", 0, 1), "1e999999"),
        (("elements", "a", 1), "0." + "0" * 4299 + "1"),
    ],
)
def test_huge_exponent_refused_before_building(edit, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_edit(_dlo_payload(), edit)))
    start = time.perf_counter()
    code = main(["eval", str(path), "a = b"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad fraction ") and err.count("\n") == 1


def test_digit_bound_edge(tmp_path, capsys):
    # the characters before the exponent plus its size may reach the bound
    # (1e4299 has 4300 digits and prints), not pass it
    ok = _edit(_dlo_payload(2), (("elements", "a", 0), "1e4299"))
    r = loads(json.dumps(ok))
    assert r.element("a").values[0] == 10**4299
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(ok))
    assert main(["dcl", str(path), "a"]) == 0
    assert "1" + "0" * 4299 in capsys.readouterr().out
    over = _edit(_dlo_payload(2), (("elements", "a", 0), "1e4300"))
    with pytest.raises(ValueError, match="bad fraction '1e4300'"):
        loads(json.dumps(over))
    small = _edit(_dlo_payload(2), (("elements", "a", 0), "1e-4299"))
    assert loads(json.dumps(small)).element("a").values[0] == Fraction(1, 10**4299)
    # without an exponent the string's length is the bound: a decimal whose
    # denominator would have 4301 digits is refused, one of 4299 loads
    long = "0." + "0" * 4299 + "1"
    with pytest.raises(ValueError, match="bad fraction"):
        loads(json.dumps(_edit(_dlo_payload(2), (("elements", "a", 0), long))))
    fits = "0." + "0" * 4297 + "1"
    got = loads(json.dumps(_edit(_dlo_payload(2), (("elements", "a", 0), fits))))
    assert got.element("a").values[0] == Fraction(1, 10**4298)
    assert str(got.element("a").values[0]) == "1/1" + "0" * 4298


_BIG = "7" * 5000  # an integer's digits, past the 4300-digit bound


@pytest.mark.parametrize(
    "text, formula, line",
    [
        (
            json.dumps({"theory": f"enum({_BIG})", "atoms": [["w1", "1"]],
                        "elements": {"a": [0]}}),
            "a = a",
            "error: enum size has more than 4300 digits\n",
        ),
        (
            '{"theory": "enum(3)", "atoms": [["w1", "1"]], "elements": {"a": [%s]}}'
            % _BIG,
            "a = a",
            "error: integer in file has more than 4300 digits\n",
        ),
        (
            json.dumps({"theory": "enum(3)", "atoms": [["w1", "1"]],
                        "elements": {"a": [1]}}),
            f"a = c{_BIG}",
            "error: constant has more than 4300 digits (at position 4)\n",
        ),
    ],
    ids=["theory", "value", "constant"],
)
def test_integers_past_the_digit_bound_exit_two(text, formula, line, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(text)
    assert main(["eval", str(path), formula]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line
    assert "set_int_max_str_digits" not in captured.err


def test_integers_at_the_digit_bound_load(tmp_path, capsys):
    n = "9" * 4300
    path = tmp_path / "edge.json"
    path.write_text(
        '{"theory": "enum(%s)", "atoms": [["w1", "1"]], "elements": {"a": [%s]}}'
        % (n, "9" * 4299)
    )
    assert load(path).sig.n == int(n)
    assert main(["eval", str(path), "a = c" + "9" * 4299]) == 0
    assert capsys.readouterr().out == "{w1}, probability = 1\n"


_DENOM_LINE = "error: weights' common denominator has more than 4300 digits\n"


def test_common_denominator_bound(tmp_path, capsys):
    # three pairwise coprime 1500-digit denominators: each weight fits the
    # digit bound, their common denominator (4500 digits) does not, and the
    # weights do not sum to 1, a sum that could not be printed
    d = 10**1499 + 1  # odd, so d, d + 1 and d + 2 are pairwise coprime
    payload = {
        "theory": "dlo",
        "atoms": [[f"w{i}", f"1/{d + i}"] for i in range(3)],
        "elements": {"a": ["0", "1", "2"]},
    }
    path = tmp_path / "coprime.json"
    path.write_text(json.dumps(payload))
    assert main(["dclb", str(path), "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == _DENOM_LINE
    # a common denominator of 4300 digits is accepted, one of 4301 is not
    tiny = Fraction(1, 10**4299)
    assert Partition([("w1", tiny), ("w2", 1 - tiny)])._denom == 10**4299
    with pytest.raises(ValueError, match="more than 4300 digits"):
        Partition([("w1", tiny / 10), ("w2", 1 - tiny / 10)])


def test_common_denominator_checked_as_it_grows(tmp_path, capsys, monkeypatch):
    # 3000 weights over distinct 5-digit primes: their common denominator
    # would have over 14,000 digits; it is refused one prime past 4300
    n, p, primes = 3000, 10007, []
    while len(primes) < n:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            primes.append(p)
        p += 1
    payload = {
        "theory": "dlo",
        "atoms": [[f"w{i}", f"1/{q}"] for i, q in enumerate(primes)],
        "elements": {"a": ["0"] * n},
    }
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(payload))
    built = []

    def lcm(*args: int) -> int:
        built.append(math.lcm(*args))
        return built[-1]

    monkeypatch.setattr(measure, "math", SimpleNamespace(lcm=lcm))
    assert main(["dclb", str(path), "a"]) == 2
    assert capsys.readouterr().err == _DENOM_LINE
    assert max(built) < 10**4300 * primes[-1]
