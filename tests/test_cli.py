from __future__ import annotations

import json
from pathlib import Path

import pytest

from randcl import (
    definable_closure,
    elem_dist,
    eval_event,
    glue,
    load,
    parse,
    witness,
)
from randcl.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SWAP = str(SAMPLES / "swap_pair.json")
COIN = str(SAMPLES / "coin_enum.json")


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


def test_check(capsys):
    code, out = run(capsys, "check", SWAP)
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


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


def test_unknown_atom_in_event_exit_two(capsys):
    code = main(["glue", SWAP, "a", "b", "w9"])
    assert code == 2
    assert "unknown atom" in capsys.readouterr().err


def test_deeply_nested_formula_exit_two(capsys):
    code = main(["eval", SWAP, " & ".join(["a < b"] * 1500)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply to process\n"


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
