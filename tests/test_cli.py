from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randcl
from randcl import (
    definable_closure,
    elem_dist,
    eval_event,
    glue,
    load,
    parse,
    witness,
)
from randcl.cli import _commands, _plain_args, main
from randcl.usage import build_parser

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SWAP = str(SAMPLES / "swap_pair.json")
COIN = str(SAMPLES / "coin_enum.json")
NEAR = str(SAMPLES / "near_thirds.json")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# happy paths, byte-identical to library serialization
# ---------------------------------------------------------------------------

def test_eval(capsys):
    code, out = run(capsys, "eval", SWAP, "a < b")
    assert code == 0
    r = load(SWAP)
    ev = eval_event(r, parse("a < b"), {"a": "a", "b": "b"})
    assert out == f"{ev}, probability = {ev.prob}\n"


def test_eval_quantified(capsys):
    code, out = run(capsys, "eval", SWAP, "exists u. (a < u & u < b)")
    assert code == 0
    assert out == "{w1}, probability = 1/2\n"


def test_dclb(capsys):
    code, out = run(capsys, "dclb", SWAP, "a", "b")
    assert code == 0
    assert out == "2 atoms: {w1}, {w2}\n"


def test_dcl(capsys):
    code, out = run(capsys, "dcl", SWAP, "a", "b")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 elements:"
    r = load(SWAP)
    shown = set(lines[1:])
    for e in definable_closure(r, ["a", "b"]):
        assert str(e) in out
    assert len(shown) == 4


def test_dcl_names_known_elements(capsys):
    _, out = run(capsys, "dcl", SWAP, "a", "b")
    assert "  a = (0, 1)" in out.splitlines()
    assert "  hi = (1, 1)" in out.splitlines()


def test_dcl_names_the_first_equal_element(capsys, tmp_path):
    # "a2" repeats a's values; "ax" shares only the first and last value
    # of the closure element (0, 1, -1)
    inst = {
        "theory": "dlo",
        "atoms": [["w1", "1/4"], ["w2", "1/4"], ["w3", "1/2"]],
        "elements": {
            "a": ["0", "1", "2"], "a2": ["0", "1", "2"], "ax": ["0", "7", "-1"],
            "b": ["5", "6", "-1"],
        },
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(inst))
    _, out = run(capsys, "dcl", str(path), "a2", "b")
    assert out.splitlines() == [
        "4 elements:",
        "  (0, 1, -1)",
        "  a = (0, 1, 2)",
        "  b = (5, 6, -1)",
        "  (5, 6, 2)",
    ]
    _, out = run(capsys, "--format", "structured", "dcl", str(path), "a2", "b")
    assert [e["name"] for e in json.loads(out)["elements"]] == [None, "a", "b", None]


def test_lcl_matches_dcl(capsys):
    _, out_lcl = run(capsys, "lcl", SWAP, "a", "b")
    _, out_dcl = run(capsys, "dcl", SWAP, "a", "b")
    assert out_lcl == out_dcl


def test_isdef_true_exit_zero(capsys):
    code, out = run(capsys, "isdef", SWAP, "hi", "a", "b")
    assert code == 0
    assert "verdict: true" in out
    assert "pinning: true" in out


def test_isdef_false_exit_one(capsys):
    code, out = run(capsys, "isdef", SWAP, "b", "a", "hi")
    assert code == 1
    assert "verdict: false" in out


def test_isdef_deciders_that_disagree_exit_three(capsys, monkeypatch):
    import randcl.closure

    pinning = randcl.closure.is_definable_by_pinning
    monkeypatch.setattr(
        randcl.closure,
        "is_definable_by_pinning",
        lambda r, elem, params: not pinning(r, elem, params),
    )
    paths = {v: v != "pinning" for v in _VERDICTS[:-1]}
    assert main(["isdef", SWAP, "hi", "a", "b"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "".join(
        f"{v}: {str(ok).lower()}\n" for v, ok in [*paths.items(), ("verdict", True)]
    )
    assert captured.err == "invariant violation: decider paths disagree\n"
    assert main(["--format", "structured", "isdef", SWAP, "hi", "a", "b"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"paths": paths, "verdict": True, "agree": False}
    assert captured.err == "invariant violation: decider paths disagree\n"


@pytest.mark.parametrize(
    "argv, out",
    [
        (("dist", SWAP, "top", "bottom"), "1\n"),
        (("dist", SWAP, "{}", "{w1}"), "1/2\n"),
        (("dist", SWAP, "{w1,w2}", "top"), "0\n"),
        (("glue", SWAP, "a", "b", "{w1}"), "(0, 0)\n"),
        (("glue", SWAP, "a", "b", "bottom"), "(1, 0)\n"),
    ],
)
def test_event_spellings(capsys, argv, out):
    assert run(capsys, *argv) == (0, out)


def test_pointwise(capsys):
    code, out = run(capsys, "pointwise", COIN, "b")
    assert code == 0
    assert out == "{w1,w2}, probability = 1\n"


def test_pointwise_false_exit_one(capsys, tmp_path):
    # an element off the parameter values on one atom
    text = Path(SWAP).read_text().replace('"lo": ["0", "0"]', '"lo": ["7", "0"]')
    p = tmp_path / "inst.json"
    p.write_text(text)
    code, out = run(capsys, "pointwise", str(p), "lo", "a", "b")
    assert code == 1
    assert out == "{w2}, probability = 1/2\n"


def test_dist_elements(capsys):
    code, out = run(capsys, "dist", SWAP, "a", "hi")
    assert code == 0
    r = load(SWAP)
    assert out.strip() == str(elem_dist(r.element("a"), r.element("hi")))


def test_dist_events(capsys):
    code, out = run(capsys, "dist", SWAP, "w1", "w2")
    assert code == 0
    assert out == "1\n"


def test_glue(capsys):
    code, out = run(capsys, "glue", SWAP, "a", "b", "w1")
    assert code == 0
    r = load(SWAP)
    c = glue(r.element("a"), r.element("b"), r.partition.event(["w1"]))
    assert out == f"{c}\n"


def test_witness(capsys):
    code, out = run(capsys, "witness", SWAP, "a < u & u < b", "u")
    assert code == 0
    r = load(SWAP)
    w = witness(r, parse("a < u & u < b"), "u", {"a": "a", "b": "b"})
    assert out == f"{w}\n"
    assert out == "(1/2, 0)\n"


def test_witness_past_the_digit_bound_exits_two(capsys, tmp_path):
    # a and b have 4298-digit denominators and load; their midpoint's
    # denominator has 8596 digits and could not be printed
    p = tmp_path / "far.json"
    p.write_text(json.dumps({
        "theory": "dlo",
        "atoms": [["w1", "1"]],
        "elements": {"a": [f"1/{10**4297 + 1}"], "b": [f"1/{10**4297 + 3}"]},
    }))
    assert main(["witness", str(p), "b < t & t < a", "t"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: witness value has more than 4300 digits\n"
    # one past a bound value still prints
    code, out = run(capsys, "witness", str(p), "a < t", "t")
    assert (code, out) == (0, f"({Fraction(1, 10**4297 + 1) + 1})\n")


# near_thirds.json holds 1/3 and E = 1/3 + 2**-70, which floor(v * 2**64)
# cannot tell apart; each answer is pinned to its exact text
_E = "1180591620717411303427/3541774862152233910272"
_NEAR_CLOSURE = f"""4 elements:
  (1/3, 1/3, 0, 1/3)
  a = (1/3, {_E}, 0, 1/3)
  b = ({_E}, 1/3, 1/3, 1/3)
  d = ({_E}, {_E}, 1/3, 1/3)
"""
_VERDICTS = ("pointwise_algebra", "pinning", "piecewise_family", "isolating_events",
             "closure_member", "verdict")


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (("dcl", NEAR, "a", "b"), 0, _NEAR_CLOSURE),
        (("lcl", NEAR, "a", "b"), 0, _NEAR_CLOSURE),
        (("dcl", NEAR, "c"), 0, f"1 elements:\n  c = (1/3, 1/3, {_E}, 1)\n"),
        (("isdef", NEAR, "d", "a", "b"), 0, "".join(f"{v}: true\n" for v in _VERDICTS)),
        (("isdef", NEAR, "c", "a", "b"), 1, "".join(f"{v}: false\n" for v in _VERDICTS)),
        (("pointwise", NEAR, "c", "a", "b"), 1, "{w1,w2}, probability = 1/2\n"),
        (
            ("witness", NEAR, "a < t & t < b", "t"),
            0,
            "(2361183241434822606851/7083549724304467820544, 0, 1/6, 0)\n",
        ),
        (
            ("witness", NEAR, "c < t", "t"),
            0,
            "(4/3, 4/3, 4722366482869645213699/3541774862152233910272, 2)\n",
        ),
    ],
)
def test_values_apart_by_less_than_two_to_the_minus_64(capsys, argv, code, expected):
    assert run(capsys, *argv) == (code, expected)


def test_check(capsys):
    code, out = run(capsys, "check", SWAP)
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


SMALL_FILES = {
    "dlo": ({}, {"a": ["1", "0"]}),
    "enum(2)": ({}, {"a": [1, 0]}),
}


@pytest.mark.parametrize("theory", sorted(SMALL_FILES))
@pytest.mark.parametrize("n_elements", [0, 1])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_check_on_fewer_than_two_elements(capsys, tmp_path, theory, n_elements, fmt):
    # the checks that draw two elements fall back on the constant ones
    p = tmp_path / "small.json"
    p.write_text(json.dumps({
        "theory": theory,
        "atoms": [["w1", "1/2"], ["w2", "1/2"]],
        "elements": SMALL_FILES[theory][n_elements],
    }))
    code, out = run(capsys, "--format", fmt, "check", str(p))
    assert code == 0
    if fmt == "structured":
        payload = json.loads(out)
        assert payload["passed"] == payload["total"] >= 10
    else:
        assert "FAIL" not in out
        assert out.endswith("checks passed\n")


def test_fuzz_deterministic(capsys):
    code1, out1 = run(capsys, "fuzz", "--count", "5", "--seed", "11")
    code2, out2 = run(capsys, "fuzz", "--count", "5", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().endswith("5/5 instances passed all cross-checks")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fuzz_count_below_one_exit_two(capsys, count):
    code = main(["fuzz", "--count", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --count must be at least 1, got {count}\n"


# ---------------------------------------------------------------------------
# structured output
# ---------------------------------------------------------------------------

def test_structured_eval(capsys):
    code, out = run(capsys, "--format", "structured", "eval", SWAP, "a < b")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"event": ["w1"], "probability": "1/2"}


def test_structured_dcl(capsys):
    _, out = run(capsys, "--format", "structured", "dcl", SWAP, "a", "b")
    payload = json.loads(out)
    assert payload["count"] == 4
    assert {"name": "hi", "values": ["1", "1"]} in payload["elements"]


def test_structured_isdef(capsys):
    _, out = run(capsys, "--format", "structured", "isdef", COIN, "b")
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["agree"] is True


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_unknown_element_exit_two(capsys):
    code = main(["eval", SWAP, "a < zz"])
    assert code == 2
    assert "unknown element" in capsys.readouterr().err


def test_malformed_formula_exit_two(capsys):
    code = main(["eval", SWAP, "a <"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_file_exit_two(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"theory": "dlo", "atoms": [["w1", "1/2"]], "elements": {}}')
    code = main(["eval", str(p), "true"])
    assert code == 2
    assert "weights sum to 1/2" in capsys.readouterr().err


def test_theory_mismatch_exit_two(capsys):
    code = main(["lcl", COIN, "b"])
    assert code == 2
    assert "ordered" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, message",
    [
        (["nosuch"], "error: unknown element 'nosuch'\n"),
        (["b", "b"], "error: duplicate parameter name\n"),
        (["b"], "error: if_less closure needs an ordered theory\n"),
    ],
)
def test_lcl_under_an_enumerated_domain_names_a_bad_parameter_first(
    params, message, capsys
):
    code = main(["lcl", COIN, *params])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)


def test_lcl_is_checked_against_an_independent_route():
    # lcl prints the definable closure; acceptance 2 and the closure-routes
    # check compare that with the partition refinement in oracles, which
    # must stay a second algorithm
    assert randcl.if_less_closure.__module__ == "randcl.oracles"
    assert randcl.if_less_closure is not randcl.definable_closure


def test_unknown_atom_in_event_exit_two(capsys):
    code = main(["glue", SWAP, "a", "b", "w9"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: unknown atom 'w9'\n")


def test_deeply_nested_formula_exit_two(capsys):
    code = main(["eval", SWAP, " & ".join(["a < b"] * 1500)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply to process\n"


def test_long_conjunction_evaluates(capsys):
    # the per-node qe answers are looked up inside qe's own recursion, so
    # they add no call frame per level
    code = main(["eval", SWAP, " & ".join(["a < b"] * 900)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "{w1}, probability = 1/2\n"


# randcl's help and usage errors, captured from the parser that built every
# subcommand, with COLUMNS=80 on Python 3.11
CLI_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _parser_run(capsys, parse) -> tuple[object, str, str]:
    try:
        code = parse()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse's wording and layout differ between Python versions",
)
@pytest.mark.parametrize("case", CLI_GOLDEN, ids=lambda c: " ".join(c["argv"]) or "-")
def test_parser_messages_are_the_golden_ones(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = _parser_run(capsys, lambda: main(case["argv"]))
    assert got == (case["code"], case["out"], case["err"])


@pytest.mark.parametrize("case", CLI_GOLDEN, ids=lambda c: " ".join(c["argv"]) or "-")
def test_parser_of_one_command_prints_as_the_full_parser(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _parser_run(
        capsys, lambda: build_parser(_commands()).parse_args(case["argv"])
    )
    assert _parser_run(capsys, lambda: main(case["argv"])) == full


# words an argv is drawn from: every command, the options and their
# values, abbreviations, negative numbers, separators and file names
_WORDS = [*_commands(), "--format", "text", "structured", "bad", "--count", "--seed"]
_WORDS += ["--seed=3", "-5", "5", "", "--", "-h", "--form", "f.json", "x y"]


@settings(max_examples=400, deadline=None)
@given(
    head=st.lists(st.sampled_from(_WORDS), max_size=2),
    command=st.sampled_from([*_commands(), "bogus"]),
    tail=st.lists(st.sampled_from(_WORDS), max_size=6),
)
def test_plain_args_are_argparse_s_or_none(head, command, tail):
    argv = [*head, command, *tail]
    plain = _plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(build_parser(_commands()).parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "f.json", "a < b"],
        ["--format", "structured", "isdef", "f.json", "e"],
        ["dcl", "f.json", "a", "b", "c"],
        ["check", "--seed", "3", "f.json"],
        ["check", "f.json", "--seed", "+7"],
        ["fuzz", "--count", "2", "--seed", "1", "--count", "5"],
        ["fuzz"],
    ],
)
def test_plain_argv_skips_argparse(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(build_parser(_commands()).parse_args(argv))


def test_internal_error_exit_three(capsys, monkeypatch):
    import randcl.cli

    def broken(args):
        raise RuntimeError("engine fault\nsecond line")

    monkeypatch.setattr(randcl.cli, "_cmd_eval", broken)
    code = main(["eval", SWAP, "a < b"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: engine fault second line\n"
