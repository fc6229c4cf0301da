import ast
import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from math import factorial
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import cmhilb
from cmhilb import LaurentPolynomial, NonPolynomialError, cli, orbits, verify
from cmhilb.cli import main
from strategies import laurent_polys, partitions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_part_info_json(capsys):
    code, out, _ = run_cli(capsys, "part", "info", "4,3,3,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["diagonals"] == [1, 2, 3, 4, 2]
    assert data["u_map"] == [5, 4, 2, 1]
    assert data["transpose"] == [5, 3, 3, 1]
    assert data["is_steep"] is False


def test_part_info_text(capsys):
    code, out, _ = run_cli(capsys, "part", "info", "3,2,1")
    assert code == 0
    assert "staircase" in out
    assert "1,2,3" in out  # diagonals of the staircase


# (text label, JSON key) in the order `part info` prints them
PART_INFO_ROWS = [
    ("partition", "partition"),
    ("size", "size"),
    ("transpose", "transpose"),
    ("steep", "is_steep"),
    ("staircase", "is_staircase"),
    ("all hooks odd", "all_hooks_odd"),
    ("hooks", "hooks"),
    ("hook polynomial", "hook_polynomial"),
    ("n statistic", "n_stat"),
    ("irreducible dim", "dim_irrep"),
    ("diagonals", "diagonals"),
    ("u_map", "u_map"),
    ("Borel stable", "is_borel_stable"),
]


@pytest.mark.parametrize("partition", ["", "1", "3,2,1", "4,3,3,1,1", "5,5,2", "2,2,2,1"])
def test_part_info_text_matches_json(capsys, partition):
    code, text, _ = run_cli(capsys, "part", "info", partition)
    assert code == 0
    _, out, _ = run_cli(capsys, "part", "info", partition, "--format", "json")
    data = json.loads(out)
    width = max(len(label) for label, _ in PART_INFO_ROWS)
    expected = []
    for label, key in PART_INFO_ROWS:
        value = data[key]
        if key == "hook_polynomial":
            value = LaurentPolynomial.from_json(value).to_text()
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        expected.append(f"{label:<{width}}  {value}\n")
    assert text == "".join(expected)


def test_exponents_table_text(capsys):
    code, out, _ = run_cli(capsys, "cm", "exponents", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    rows = {}
    for line in lines:
        left, right = line.split("|")
        rows[left.strip()] = right.strip()
    assert rows["3,2,1"] == "0,1²,2²,4"
    assert rows["6"] == "0"
    assert rows["1,1,1,1,1,1"] == "0"


def test_exponents_table_json(capsys):
    code, out, _ = run_cli(capsys, "cm", "exponents", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    table = {tuple(r["partition"]): r["exponents"] for r in data["rows"]}
    assert table[(3, 2, 1)] == [[0, 1], [1, 2], [2, 2], [4, 1]]
    assert table[(3, 3)] == [[0, 1], [3, 1]]
    assert len(table) == 11


@pytest.mark.parametrize("n", [0, 1, 6, 10])
def test_exponents_json_matches_the_library_encoder(capsys, n):
    if n:
        assert main(["cm", "exponents", str(n), "--format", "json"]) == 0
    else:  # size 0 is refused as an argument; its empty partition prints as []
        cli._write_exponents_json(0, [(cmhilb.Partition(), cmhilb.exponent_runs(cmhilb.Partition()))])
    assert capsys.readouterr().out == json.dumps(verify._exponents_json(n), indent=2, sort_keys=True) + "\n"


def _plain(obj):
    """A reply value with each partition as its list of parts and each polynomial as its to_json() terms."""
    if isinstance(obj, cmhilb.Partition):
        return list(obj.parts)
    if isinstance(obj, LaurentPolynomial):
        return obj.to_json()
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    return obj


# the values a reply holds: ints, bools, lists, tuples, dicts with plain str keys, partitions and polynomials
reply_values = st.recursive(
    st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | partitions() | laurent_polys
    | st.dictionaries(st.integers(-40, 40), st.integers(-(2**100), 2**100), max_size=4).map(LaurentPolynomial),
    lambda inner: st.lists(inner, max_size=5) | st.tuples(inner, inner)
    | st.dictionaries(st.text("abcxyz_", max_size=8), inner, max_size=5),
    max_leaves=30,
)

P, L = cmhilb.Partition, LaurentPolynomial


@pytest.mark.parametrize("obj", [
    {}, [], {"a": {}, "b": [], "c": [[], {}, [[]]]}, [{}, [], {"x": []}],
    True, False, (1, 2), {"t": True, "f": False}, [True, False, 0, 1], [1, True],
    -7, [-1, 0, -(2**63), 2**64, -(2**200)], {"wide": 2**200, "neg": -(2**64)},
    # partitions, the empty one too, and an ideal's fields with their tuples of tuples
    [P(), P((1,)), P((4, 3, 3, 1, 1))], {"shape": P((2, 1)), "generators": ((0, 2), (1, 1), (2, 0)), "dims": (0, 3)},
    # polynomials: one term, wide coefficients, the zero polynomial, nested in lists; then `cm fixed` replies
    L.one(), {"character": L({-3: -2, 0: 5, 7: -123456789012345678901234567890})}, [L(), L.one(), L()],
    [[L({1: 2})], [L({2: 1, 5: -1})]], {"fixed": [], "n": 20}, {"fixed": [P((6, 5, 4, 3, 2, 1))], "n": 21},
    ((1, 2), [3], (), (P(),)),
])
def test_json_dump_matches_the_library_encoder_on_edge_cases(obj):
    assert cli._json_dump(obj) == json.dumps(_plain(obj), indent=2, sort_keys=True)


@given(reply_values)
def test_json_dump_matches_the_library_encoder(obj):
    assert cli._json_dump(obj) == json.dumps(_plain(obj), indent=2, sort_keys=True)


def test_numeral_table_covers_every_part_a_command_writes():
    # the largest part of a partition argument, and of a closure scan's partitions
    assert len(cmhilb.partitions._NUMERALS) > max(cli.PARTITION_CELL_CAP, cmhilb.partitions.LISTABLE_SIZE_CAP)


# parts on both sides of the numeral table's last entry, 200, which str writes instead
@example([200], "\n")
@example([201], "\n")
@example([201, 200, 1], "\n  ")
@example([], "\n")
@given(st.lists(st.integers(1, 400), max_size=8).map(lambda parts: sorted(parts, reverse=True)),
       st.sampled_from(["\n", "\n  ", "\n      "]))
def test_partition_numerals_are_their_str_forms(parts, pad):
    inner = pad + "  "
    assert str(P(parts)) == ",".join(map(str, parts))
    assert cli._json_ints(tuple(parts), pad) == (f"[{inner}{(',' + inner).join(map(str, parts))}{pad}]"
                                                 if parts else "[]")
    assert cli._json_ints(tuple(parts), "\n") == json.dumps(parts, indent=2)


@pytest.mark.parametrize("obj", [
    1.5, [1, 2.0], ["text"], {"a": None}, {1, 2}, frozenset(), {"a": "b"}, [None], {"p": [P(), 1j]},
    {"a": (1, 2.5)}, b"bytes", [object()],
])
def test_json_dump_refuses_what_no_command_emits(obj):
    # no reply holds a float, str, None, set, bytes or other object: the writer has no escaper for text
    with pytest.raises(TypeError):
        cli._json_dump(obj)


def test_exponents_table_csv(capsys):
    code, out, _ = run_cli(capsys, "cm", "exponents", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "exponents"]
    assert ["2,1", "1^1"] in rows
    assert len(rows) == 4
    code, out, _ = run_cli(capsys, "cm", "exponents", "6", "--format", "csv")
    assert ["3,2,1", "0^1 1^2 2^2 4^1"] in list(csv.reader(io.StringIO(out)))


def test_exponents_rejects_non_triangular(capsys):
    # refused where n is parsed, as a usage error, like every other size rule
    with pytest.raises(SystemExit) as err:
        main(["cm", "exponents", "7"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "triangular" in captured.err


def test_char_l(capsys):
    code, out, _ = run_cli(capsys, "cm", "char-L", "2")
    assert code == 0
    assert "2q^-1 + 2 + 2q" in out
    assert "dimension: 6" in out


def test_char_l_json(capsys):
    code, out, _ = run_cli(capsys, "cm", "char-L", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 720


def test_char_l_cap_is_usage_error(monkeypatch, capsys):
    # m is refused where it is parsed, before the handler runs; below the
    # cap no flag is needed
    assert main(["cm", "char-L", "5"]) == 0
    assert capsys.readouterr().out.endswith(f"dimension: {factorial(15)}\n")
    monkeypatch.setattr(cli, "regular_fiber_character", lambda m: pytest.fail(f"m={m} reached the handler"))
    with pytest.raises(SystemExit) as err:
        main(["cm", "char-L", str(cli.STAIRCASE_CAP + 1)])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_tangent(capsys):
    code, out, _ = run_cli(capsys, "cm", "tangent", "2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["character"] == [[-3, "1"], [-1, "2"], [1, "2"], [3, "1"]]
    assert data["weights_all_odd"] is True


def test_cm_fixed(capsys):
    code, out, _ = run_cli(capsys, "cm", "fixed", "6")
    assert code == 0
    assert out.strip() == "3,2,1"
    code, out, _ = run_cli(capsys, "cm", "fixed", "7")
    assert out.strip() == "(empty)"


def test_cm_orbit(capsys):
    code, out, _ = run_cli(capsys, "cm", "orbit", "3,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer"] == "T"
    assert data["partner"] == [2, 1, 1]
    assert data["closed"] is True


def test_hilb_orbit(capsys):
    code, out, _ = run_cli(capsys, "hilb", "orbit", "2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer"] == "N_T"
    assert data["closed"] is False
    assert data["boundary"] == {"partition": [3, 1], "model": "P1"}


def test_hilb_ideal(capsys):
    code, out, _ = run_cli(capsys, "hilb", "ideal", "2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [[0, 2], [1, 1], [2, 0]]
    assert data["graded_dims"][:3] == [0, 0, 3]


def test_hilb_closure_text(capsys):
    code, out, _ = run_cli(capsys, "hilb", "closure", "4")
    assert code == 0
    assert out.strip() == "2,2 -> 3,1"


def test_hilb_closure_dot(capsys):
    code, out, _ = run_cli(capsys, "hilb", "closure", "6", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph closure {")
    assert '"3,3" -> "4,2";' in out


def test_hilb_closure_json(capsys):
    code, out, _ = run_cli(capsys, "hilb", "closure", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["edges"] == [[[2, 2], [3, 1]]]
    assert {tuple(n["partition"]) for n in data["nodes"]} == {
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    }


def test_verify_selected_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sl2-decompose-roundtrip", "tangent-factorization", "--max-n", "8"
    )
    assert code == 0
    assert "PASS sl2-decompose-roundtrip" in out
    assert "PASS tangent-factorization" in out
    assert "2/2 checks passed" in out


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-m", "4", "--max-n", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize("limit", [["--max-m", "0"], ["--max-n", "0"], ["--max-n", "-1"]])
def test_verify_rejects_empty_limits(capsys, limit):
    with pytest.raises(SystemExit) as err:
        main(["verify", "all", *limit])
    assert err.value.code == 2
    assert "checks passed" not in capsys.readouterr().out


def test_verify_reports_raising_check(capsys, monkeypatch):
    def boom(limits):
        raise NonPolynomialError("division leaves a nonzero remainder")

    monkeypatch.setitem(verify.CHECKS, "boom", boom)
    code, out, err = run_cli(capsys, "verify", "boom", "tangent-factorization")
    assert code == 1
    assert out.splitlines() == [
        "FAIL boom: raised NonPolynomialError: division leaves a nonzero remainder",
        "PASS tangent-factorization",
        "1/2 checks passed",
    ]
    assert "Traceback" not in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = out.split()
    assert "odd-weight-fixed-points" in names
    assert "character-orthogonality" in names


def test_verify_list_pins_the_registry(capsys):
    # the names come from the check_* functions in definition order, so a
    # stray check_ name or a moved definition shows here
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert out.split() == [
        "laurent-ring-axioms", "partition-involutions", "diagonal-u-map", "character-orthogonality",
        "schur-expansion", "fake-degree", "isotypic-characters", "sl2-decompose-roundtrip",
        "fiber-layer-factorization", "tangent-factorization", "odd-weight-fixed-points",
        "orbit-classification", "monomial-ideal-dims", "cli-json-roundtrip",
    ]


def test_public_api_is_pinned():
    # every export change shows here, so adding or dropping one is deliberate
    assert cmhilb.__all__ == [
        "CALOGERO_MOSER", "CapExceededError", "CharacterTable", "ClosureGraph", "HILBERT", "LaurentPolynomial",
        "MonomialIdeal", "NonPolynomialError", "NonTriangularSizeError", "NotACharacterError", "OrbitReport",
        "Partition", "all_hooks_odd", "cells", "centralizer_order", "character_table", "closure_graph", "cm_orbit",
        "decompose", "diagonals", "dim_irrep", "enumerate_partitions", "exactalg", "exponent_runs",
        "exponent_string", "exponents", "fake_degree", "hilb_orbit", "hook_layer_character", "hook_lengths",
        "hook_polynomial", "irreducible_character", "is_borel_stable", "is_staircase", "is_steep", "isotypic_character",
        "layered_fiber_character", "mn_character", "monomial_ideal", "n_stat", "orbits", "parse_partition",
        "partitions", "regular_fiber_character", "sl2", "sl2_fixed_set", "staircase", "symfun",
        "tangent_character", "transpose", "triangular_index", "u_map", "weights_all_odd",
    ]


def test_memo_set_is_pinned():
    # a memo belongs where calls repeat, so adding or dropping one is deliberate
    from cmhilb import exactalg, partitions, sl2, symfun

    def members(module):
        for value in vars(module).values():
            yield value
            if isinstance(value, type):
                yield from vars(value).values()

    memos = {
        f"{value.__module__}.{value.__qualname__}"
        for module in (exactalg, partitions, symfun, sl2, orbits, cli, verify)
        for value in members(module)
        if callable(value) and hasattr(value, "cache_info") and value.__module__.startswith("cmhilb.")
    }
    assert sorted(memos) == ["cmhilb.cli.build_parser", "cmhilb.symfun._isotypic_characters",
                             "cmhilb.symfun.character_table"]


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "does-not-exist"])
    assert err.value.code == 2


def test_limits_defaults_match_the_verify_flags():
    args, limits = cli.build_parser().parse_args(["verify"]), verify.Limits()
    assert (limits.max_n, limits.max_m) == (20, 4) == (args.max_n, args.max_m)


# command lines a handler refuses after parsing, and the command each names
REFUSED_AFTER_PARSING = {
    "cm fixed 46": "cm fixed", "hilb closure 46": "hilb closure",
    "verify nosuch": "verify", "verify --max-m 9": "verify",
}


@pytest.mark.parametrize("line", REFUSED_AFTER_PARSING)
def test_refusal_after_parsing_names_the_subcommand(capsys, line):
    # the refusal reads like one made while parsing
    prog = f"cmhilb {REFUSED_AFTER_PARSING[line]}"
    with pytest.raises(SystemExit) as err:
        main(line.split())
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {prog} [-h]")
    assert f"\n{prog}: error: " in captured.err


def test_import_loads_only_what_commands_run(capsys):
    # every command pays for this import: the check suite, csv, dataclasses (with inspect, ast, dis), argparse
    # (with gettext), json and its C module _json wait until a command needs them.  A placed line, in JSON too,
    # loads none of the last four; a declined line loads argparse and gets its usage and error bytes
    script = """if True:
        import contextlib, io, sys
        bare = set(sys.modules)
        import cmhilb, cmhilb.cli
        print(repr((None, "", "", sorted(set(sys.modules) - bare))))
        for argv in (["cm", "orbit", "3,2,1"], ["cm", "orbit", "3,2,1", "--format", "json"], ["verify", "--list"],
                     ["cm", "tangent", "3,2", "--bogus"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cmhilb.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            print(repr((code, out.getvalue(), err.getvalue(), sorted(set(sys.modules) - bare))))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cmhilb.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    imported, text, as_json, listed, declined = map(ast.literal_eval, run.stdout.splitlines())
    lazy = {"argparse", "gettext", "json", "_json"}
    assert "cmhilb.cli" in imported[3]
    assert not {"dataclasses", "inspect", "csv", "cmhilb.verify"} & set(imported[3])
    assert not lazy & set(imported[3])
    assert text[:3] == run_cli(capsys, "cm", "orbit", "3,2,1")
    assert not lazy & set(text[3])
    assert as_json[:3] == run_cli(capsys, "cm", "orbit", "3,2,1", "--format", "json")
    assert not lazy & set(as_json[3])
    assert listed[:3] == (0, "".join(f"{name}\n" for name in verify.CHECKS), "")
    assert "cmhilb.verify" in listed[3]
    assert declined[:3] == (2, "", "usage: cmhilb [-h] {part,cm,hilb,verify} ...\n"
                                   "cmhilb: error: unrecognized arguments: --bogus\n")
    assert "argparse" in declined[3]


def test_closed_pipe_exits_1_without_a_traceback():
    # the reader takes one line of an output far larger than a pipe buffer
    # and closes the pipe: exit 1, and nothing on stderr at any point
    env = dict(os.environ, PYTHONPATH=str(Path(cmhilb.__file__).parents[1]))
    argv = [sys.executable, "-m", "cmhilb", "hilb", "closure", "30", "--format", "json"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("fmt, first", [("text", b"28,1,1 -> 28,2\n"), ("dot", b"digraph closure {\n")])
def test_closed_pipe_on_streamed_closure_exits_1(fmt, first):
    # text and dot are written line by line: the reader takes the first line and closes the pipe
    env = dict(os.environ, PYTHONPATH=str(Path(cmhilb.__file__).parents[1]))
    argv = [sys.executable, "-m", "cmhilb", "hilb", "closure", "30", "--format", fmt]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""


def test_bad_partition_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["part", "info", "1,2,3"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command", [["cm", "exponents"], ["cm", "fixed"], ["hilb", "closure"]], ids="-".join
)
@pytest.mark.parametrize("size", ["0", "-1"])
def test_nonpositive_size_is_usage_error(capsys, command, size):
    with pytest.raises(SystemExit) as err:
        main([*command, size])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    "part info {}", "cm tangent 12,{}", "cm fixed {}", "hilb closure {}", "verify --max-n {}", "verify --max-m {}",
], ids=lambda argv: "-".join(argv.split()[:2]))
@pytest.mark.parametrize("text", ["５", "1_0", "+3", "٣"], ids=["fullwidth", "underscore", "plus", "arabic-indic"])
def test_integer_arguments_take_only_ascii_digits(capsys, argv, text):
    # int() would read each of these as a number
    with pytest.raises(SystemExit) as err:
        main(argv.format(text).split())
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_integer_arguments_keep_whitespace_and_sign(capsys):
    assert run_cli(capsys, "cm", "fixed", " 6 ")[:2] == (0, "3,2,1\n")
    assert run_cli(capsys, "part", "info", " 3, 1 ")[1] == run_cli(capsys, "part", "info", "3,1")[1]
    for argv, message in [(["cm", "fixed", "-3"], "must be at least 1, got -3"),
                          (["part", "info", "-3"], "partition parts must be positive, got -3")]:
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("size", ["60", "1000000000"])
def test_partition_budget_is_usage_error(capsys, size):
    # p(60) is about 9.7e5, over the enumeration budget, so the scan is
    # refused before any partition is listed
    with pytest.raises(SystemExit) as err:
        main(["cm", "fixed", size])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "partitions, too many to list" in captured.err


# (largest size admitted, or None where a test below admits it, and the
# first size refused) of each size command: the exponent table stops at
# n = 36, and a scan at the 10^5 partition budget, p(45) = 89,134 and
# p(46) = 105,558
SIZE_BOUNDARIES = {
    "cm exponents": (None, cli.EXPONENT_SIZE_CAP + 1),
    "cm fixed": (45, 46),
    "hilb closure": (21, 46),  # the scan at 45 takes about 4 s
}


@pytest.mark.parametrize(
    "command", [["cm", "exponents"], ["cm", "fixed"], ["hilb", "closure"]], ids="-".join
)
def test_closure_cap_is_usage_error(capsys, command):
    admitted, refused = SIZE_BOUNDARIES[" ".join(command)]
    with pytest.raises(SystemExit) as err:
        main([*command, str(refused)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{refused} exceeds the cap" in captured.err
    if admitted is not None:
        assert main([*command, str(admitted)]) == 0


PARTITION_COMMANDS = [
    ["part", "info"], ["cm", "tangent"], ["cm", "orbit"], ["hilb", "orbit"], ["hilb", "ideal"],
]


@pytest.mark.parametrize("command", PARTITION_COMMANDS, ids="-".join)
def test_partition_cell_cap_is_usage_error(capsys, command):
    over = ",".join(["1"] * (cli.PARTITION_CELL_CAP + 1))
    with pytest.raises(SystemExit) as err:
        main([*command, over])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err
    at_cap = str(cli.PARTITION_CELL_CAP)
    assert main([*command, at_cap]) == 0


def test_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "hilb", "closure", "8", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name, wrong, command", [
    ("regular_fiber_character", lambda m: LaurentPolynomial.one(), "cm char-L 2"),
    ("exponent_runs", lambda lam: ((0, 1),), "cm exponents 6"),
    # keys that no other key of their reply restates: only a comparison of the whole reply sees them
    ("weights_all_odd", lambda chi: not cmhilb.weights_all_odd(chi), "cm tangent 2,1"),
    ("n_stat", lambda lam: cmhilb.n_stat(lam) + 1, "part info 4,3,3,1,1"),
], ids=["char-L", "exponents", "weights_all_odd", "n_stat"])
def test_cli_json_roundtrip_catches_wrong_payload(monkeypatch, name, wrong, command):
    monkeypatch.setattr(cli, name, wrong)
    failures = verify.CHECKS["cli-json-roundtrip"](verify.Limits())
    assert failures
    assert all(f.startswith(f"command {command} JSON decodes to") for f in failures)


def test_cli_json_roundtrip_checks_the_bytes(monkeypatch):
    # the real writer's bytes re-indented to indent=1 decode to the same values, but are not the library's indent=2
    real = cli._json_dump
    monkeypatch.setattr(cli, "_json_dump",
                        lambda obj, pad="\n": json.dumps(json.loads(real(obj, pad)), indent=1, sort_keys=True))
    failures = verify.CHECKS["cli-json-roundtrip"](verify.Limits())
    # every command but `cm exponents`, the two orbit replies and the two `hilb closure` cases, which have
    # writers of their own
    assert len(failures) == len(verify._cli_json_cases()) - 5
    assert all(f.endswith("JSON differs from json.dumps(..., indent=2, sort_keys=True)") for f in failures)


def test_cli_json_roundtrip_decodes_the_orbit_id(monkeypatch):
    monkeypatch.setattr(cmhilb.OrbitReport, "orbit_id", property(lambda report: str(report.partition)))
    failures = verify.CHECKS["cli-json-roundtrip"](verify.Limits())
    assert [f.split(" JSON")[0] for f in failures] == [
        "command cm orbit 3,1", "command hilb closure 10 --space calogero-moser"
    ]


@pytest.mark.parametrize("first, second, commands", [
    ("stabilizer", "orbit_model", ["hilb closure 10", "hilb closure 10 --space calogero-moser"]),
    ("partition", "partner", ["hilb closure 10 --space calogero-moser"]),
    ("closed", "space", ["hilb closure 10", "hilb closure 10 --space calogero-moser"]),
])
def test_cli_json_roundtrip_reads_every_closure_node(monkeypatch, first, second, commands):
    # the bytes are json.dumps's, but two fields of each node that has both are swapped
    closure_json = cli._closure_json

    def swapped(graph):
        obj = json.loads("".join(closure_json(graph)))
        for node in obj["nodes"]:
            if second in node:
                node[first], node[second] = node[second], node[first]
        return [json.dumps(obj, indent=2, sort_keys=True) + "\n"]

    monkeypatch.setattr(cli, "_closure_json", swapped)
    failures = verify.CHECKS["cli-json-roundtrip"](verify.Limits())
    assert [f.split(" JSON decodes to")[0] for f in failures] == [f"command {c}" for c in commands]


def test_cli_json_roundtrip_names_the_first_differing_key(monkeypatch, capsys):
    # two fields swapped in every hilb closure 10 node: the FAIL line names the first differing key path
    # and both values there, not the two whole replies (13,321 characters on one line)
    closure_json = cli._closure_json

    def swapped(graph):
        obj = json.loads("".join(closure_json(graph)))
        for node in obj["nodes"]:
            node["stabilizer"], node["orbit_model"] = node["orbit_model"], node["stabilizer"]
        return [json.dumps(obj, indent=2, sort_keys=True) + "\n"]

    monkeypatch.setattr(cli, "_closure_json", swapped)
    assert not verify.run_checks(["cli-json-roundtrip"], verify.Limits())
    line = capsys.readouterr().out.splitlines()[0]
    node = verify._closure_json(10, orbits.HILBERT)["nodes"][0]
    assert line == (f"FAIL cli-json-roundtrip: command hilb closure 10 JSON decodes to {json.dumps(node['stabilizer'])}"
                    f" at .nodes.0.orbit_model, expected {json.dumps(node['orbit_model'])} (+1 more)")
    assert len(line) <= 200


def test_first_difference_clips_what_it_shows():
    long, longer = list(range(100)), list(range(101))
    assert verify._first_difference({"a": [1, {"b": long}]}, {"a": [1, {"b": longer}]}) == (
        f"{json.dumps(long)[:57]}... at .a.1.b, expected {json.dumps(longer)[:57]}...")
    assert verify._first_difference({"a": 1}, {"b": 1}) == '{"a": 1} at ., expected {"b": 1}'
    assert verify._first_difference([1, [2, "3"]], [1, [2, 3]]) == '"3" at .1.1, expected 3'


def _closure_oracle(graph, fmt):
    """`hilb closure` output of graph, built without the CLI's writers."""
    if fmt == "json":  # the check's object, whose nodes are reports built one by one, not by the scan
        return json.dumps(verify._closure_json(graph.n, graph.space), indent=2, sort_keys=True) + "\n"
    edges = [f'  "{src}" -> "{dst}";\n' if fmt == "dot" else f"{src} -> {dst}\n" for src, dst in graph.edges]
    if fmt == "text":
        return "".join(edges) if edges else "(no edges)\n"
    shapes = {True: "doublecircle", False: "circle"}
    nodes = [f'  "{node.partition}" [shape={shapes[node.closed]}];\n' for node in graph.nodes]
    return "".join(["digraph closure {\n", *nodes, *edges, "}\n"])


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("space", ["hilbert", "calogero-moser"])
def test_closure_output_matches_oracles(capsys, space, fmt):
    for n in range(1, 25):
        code, out, err = run_cli(capsys, "hilb", "closure", str(n), "--space", space, "--format", fmt)
        assert (code, err) == (0, "")
        graph = cmhilb.closure_graph(n, space)
        assert out == _closure_oracle(graph, fmt), n
        if fmt == "json" and n <= 8:  # the same reports as one-shot replies
            for node in graph.nodes:
                words = ("hilb" if space == cmhilb.HILBERT else "cm", "orbit", str(node.partition), "--format", "json")
                expected = json.dumps(verify._report_json(node), indent=2, sort_keys=True) + "\n"
                assert run_cli(capsys, *words)[1] == expected


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_closure_fault_prints_nothing(capsys, monkeypatch, fmt):
    # the graph is built whole before the first byte, so a fault in its 10th orbit leaves stdout empty
    real, calls = orbits._report, []

    def failing(space, lam, lamt, boundary):
        calls.append(lam)
        if len(calls) == 10:
            raise MemoryError
        return real(space, lam, lamt, boundary)

    monkeypatch.setattr(orbits, "_report", failing)
    code, out, err = run_cli(capsys, "hilb", "closure", "8", "--format", fmt)
    assert (code, out) == (1, "")
    assert len(calls) == 10
    assert err.startswith("error: MemoryError") and err.count("\n") == 1


# (command words, argument kind, formats) for every non-verify command
GRAMMAR = [
    (["part", "info"], "partition", ("text", "json")),
    (["cm", "tangent"], "partition", ("text", "json")),
    (["cm", "orbit"], "partition", ("text", "json")),
    (["cm", "exponents"], "size", ("text", "json", "csv")),
    (["cm", "char-L"], "size", ("text", "json")),
    (["cm", "fixed"], "size", ("text", "json")),
    (["hilb", "orbit"], "partition", ("text", "json")),
    (["hilb", "ideal"], "partition", ("text", "json")),
    (["hilb", "closure"], "size", ("text", "json", "dot")),
]
sizes = st.integers(-2, 10).map(str)
# a leading dash reads as an option, and `-h` exits 0 with the help
texts = st.text().filter(lambda s: not s.startswith("-"))


@st.composite
def cli_argvs(draw):
    words, kind, formats = draw(st.sampled_from(GRAMMAR))
    arg = sizes if kind == "size" else partitions(max_size=12).map(str)
    argv = [*words, draw(st.one_of(arg, texts))]
    if words[-1] == "closure" and draw(st.booleans()):
        argv += ["--space", draw(st.sampled_from(["hilbert", "calogero-moser"]))]
    return argv + ["--format", draw(st.sampled_from(formats))]


@st.composite
def verify_argvs(draw):
    """`verify` on its fast paths only: --list, or a check name that does
    not exist, under any bounds."""
    if draw(st.booleans()):
        argv = ["verify", "--list"]
    else:
        argv = ["verify", draw(texts.filter(lambda s: s != "all" and s not in verify.CHECKS))]
    for flag in ("--max-n", "--max-m"):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-2, 9)))]
    return argv


@given(st.one_of(cli_argvs(), verify_argvs()))
@example(["cm", "tangent", "", "--format", "json"])
@example(["cm", "fixed", "7", "--format", "json"])
def test_main_returns_or_exits_with_usage_code(argv):
    # and a JSON reply is byte for byte the library encoder's writing of what it decodes to, on drawn lines
    # that reach the empty partition and sizes with no staircase, which no fixed case covers; the two
    # examples pin those, the zero character and an empty list of fixed points, on every run
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1)
    if code == 0 and argv[-2:] == ["--format", "json"]:
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2, sort_keys=True) + "\n"


def test_char_l_staircase_cap_is_usage_error(capsys):
    over = str(cli.STAIRCASE_CAP + 1)
    with pytest.raises(SystemExit) as err:
        main(["cm", "char-L", over])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument m: {over} exceeds the cap {cli.STAIRCASE_CAP}" in captured.err
    assert main(["cm", "char-L", str(cli.STAIRCASE_CAP)]) == 0
    assert capsys.readouterr().out.endswith(f"dimension: {factorial(210)}\n")


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_is_computation_error(monkeypatch, capsys, error):
    def exhausted(lam):
        raise error("maximum recursion depth exceeded" if error is RecursionError else "")

    monkeypatch.setattr(cli, "exponent_runs", exhausted)
    assert main(["cm", "exponents", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error.__name__}: ")


@pytest.mark.parametrize("argv", [
    ["cm", "exponents", "45"],
    ["verify", "--max-m", "9"],
    ["verify", "fiber-layer-factorization", "--max-m", str(cli.STAIRCASE_CAP + 1)],
], ids=" ".join)
def test_exponent_staircase_cap_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err


def test_exponent_staircase_cap_admits_m_7(monkeypatch, capsys):
    # the work is patched out: only the refusals are under test
    monkeypatch.setattr(cli, "exponent_runs", lambda lam: ((0, 1),))
    assert main(["cm", "exponents", "28"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3718
    seen = []
    monkeypatch.setattr(verify, "run_checks", lambda names, limits: seen.append((names, limits)) or True)
    assert main(["verify", "--max-m", "7"]) == 0
    at_cap = str(cli.STAIRCASE_CAP)
    assert main(["verify", "fiber-layer-factorization", "--max-m", at_cap]) == 0
    assert seen == [
        (list(verify.CHECKS), verify.Limits(max_n=20, max_m=7)),
        (["fiber-layer-factorization"], verify.Limits(max_n=20, max_m=cli.STAIRCASE_CAP)),
    ]


def test_exponent_staircase_cap_admits_m_8(monkeypatch, capsys):
    # the cap itself, with the work patched out as above
    monkeypatch.setattr(cli, "exponent_runs", lambda lam: ((0, 1),))
    assert main(["cm", "exponents", "36"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 17977
    seen = []
    monkeypatch.setattr(verify, "run_checks", lambda names, limits: seen.append((names, limits)) or True)
    assert main(["verify", "--max-m", "8"]) == 0
    assert seen == [(list(verify.CHECKS), verify.Limits(max_n=20, max_m=8))]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    parser = cli.build_parser()
    parsers, table = dict(cli._COMMAND_PARSERS), repr(cli.COMMANDS)
    env = dict(os.environ, PYTHONPATH=str(Path(cmhilb.__file__).parents[1]))
    # placed lines around declined ones, which the full tree parses: `cm fixed 0` is refused by its validator,
    # `cm tangent 3,2 extra` has a word over, `cm tangent 3,2 --bogus` an unknown option, verify is never placed,
    # and `cm fixed 46` is placed and then refused by its handler
    sequence = [["cm", "orbit", "3,1", "--format", "json"], ["cm", "fixed", "0"],
                ["cm", "orbit", "3,1"], ["cm", "tangent", "3,2", "extra"], ["cm", "tangent", "3,2"],
                ["verify", "--list"], ["cm", "fixed", "46"], ["cm", "tangent", "3,2", "--bogus"],
                ["hilb", "ideal", "2,1", "--format", "json"]]
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "cmhilb", *argv], env=env, capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli.build_parser() is parser
    assert cli._COMMAND_PARSERS == parsers and repr(cli.COMMANDS) == table


def _readme_command_lines() -> list:
    """The command lines of README's `## Command line` usage block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    return [line.removeprefix("cmhilb ") for line in block.splitlines() if line.startswith("cmhilb ")]


def _first_choices(line: str) -> str:
    """line with each optional [...] group replaced by its first choice,
    whose metavars (N, M) read 1."""
    return re.sub(r"\[([^]|]*)[^]]*\]", lambda group: re.sub(r"\b[A-Z]+\b", "1", group[1]), line)


def test_readme_names_only_registered_checks():
    # every check name written after `verify` in the README is registered, and
    # every registered name is in the README, so a fold or rename cannot leave
    # the docs stale
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    runs = re.findall(r"\bverify((?:\s+(?:all\b|[a-z0-9]+(?:-[a-z0-9]+)+))+)", readme)
    names = {name for run in runs for name in run.split()} - {"all"}
    assert "fiber-layer-factorization" in names
    assert names <= set(verify.CHECKS), names - set(verify.CHECKS)
    assert not [name for name in verify.CHECKS if f"`{name}`" not in readme]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_parse(line):
    # a flag or command the parser no longer knows must not stay in the docs
    parser = cli.build_parser()
    parser.parse_args(re.sub(r"\s*\[[^]]*\]", "", line).split())
    parser.parse_args(_first_choices(line).split())


# lines that are placed by their command's table, or that it declines or that name no command, so the full
# tree parses them (split as a shell would)
ROUTED_LINES = [
    *map(_first_choices, _readme_command_lines()), *REFUSED_AFTER_PARSING,
    "part info 0", "part info 1,,1", "cm tangent 3,2 extra", "cm tangent 3,2 --bogus",
    "cm --format json tangent 3,2", "cm", "part", "hilb closure 3 --space nowhere", "verify --max-m 0",
    "cm tangent -h", "cm tangent 3,2 --he", "part info -- 2,1", "hilb ideal 2,1 --form json",
    "cm char-L 3 --format=json",
    "cm tangent --format json 3,2", "hilb closure 4 --format dot --space calogero-moser --format json",
    "part info ''", "part info -1", "part info '3, 2'", "cm tangent", "cm tangent 3,2 --format",
    "hilb closure --space hilbert", "cm exponents 6 --format csv", "cm orbit 3,1 --format csv",
]


def _run_line(argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code


@pytest.mark.parametrize("line", ROUTED_LINES)
def test_command_parsers_answer_as_the_full_tree(monkeypatch, capsys, line):
    def run():
        return (_run_line(shlex.split(line)), *capsys.readouterr())

    cli.build_parser()  # fills the table of command parsers
    assert set(cli._COMMAND_PARSERS) == set(cli.COMMANDS) == {tuple(words) for words, _, _ in GRAMMAR} | {("verify",)}
    placed = run()
    monkeypatch.setattr(cli, "_placed", lambda words, rest: None)  # every line through the full tree
    assert run() == placed


def _orbit_query_argvs() -> list:
    """The command lines of the benchmark's orbit-queries passes at seeds 1-3."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [argv for seed in (1, 2, 3) for argv in workloads.make_inputs("orbit-queries", seed)["argvs"]]


def test_placement_answers_as_the_full_tree_on_orbit_queries(monkeypatch, capsys):
    argvs = _orbit_query_argvs()
    assert len(argvs) == 546
    # every benchmark line takes the placement, so a placement that began to decline them fails here
    assert all(cli._placed(tuple(argv[:2]), argv[2:]) is not None for argv in argvs)
    placed = [(_run_line(argv), *capsys.readouterr()) for argv in argvs]
    assert all(code == 0 for code, _, _ in placed)
    monkeypatch.setattr(cli, "_placed", lambda words, rest: None)
    assert [(_run_line(argv), *capsys.readouterr()) for argv in argvs] == placed


# words after the command words: would-be values and positionals, well formed or not, and would-be options
PLACEMENT_VALUES = ["3,2", "2,1", "1", "3", "6", "0", "46", "-1", "", "3, 2", " 3", "1,,1", "2,3",
                    "text", "json", "csv", "dot", "hilbert", "calogero-moser", "nowhere"]
PLACEMENT_OPTIONS = ["--format", "--space", "--format=json", "--form", "--max-n", "-h", "--", "-"]


@st.composite
def placement_lines(draw):
    """(command words, the rest of a line): options of the command with their choices, other options with or
    without a value, and mostly one would-be positional, at most two, each put anywhere between them."""
    words, _, formats = draw(st.sampled_from(GRAMMAR))
    choices = [("--format", f) for f in formats]
    if words[-1] == "closure":
        choices += [("--space", "hilbert"), ("--space", "calogero-moser")]
    chunks = draw(st.lists(st.one_of(
        st.sampled_from(choices),
        st.tuples(st.sampled_from(PLACEMENT_OPTIONS), st.sampled_from(PLACEMENT_VALUES)),
        st.tuples(st.sampled_from(PLACEMENT_OPTIONS)),
    ), max_size=3))
    for _ in range(draw(st.sampled_from((1, 1, 0, 2)))):
        chunks.insert(draw(st.integers(0, len(chunks))), (draw(st.sampled_from(PLACEMENT_VALUES)),))
    return words, [word for chunk in chunks for word in chunk]


def _placement_agrees(words, argv):
    """_placed of the command's table entry, which must equal the parse_known_args of the command's parser in the
    tree that build_parser makes of the same table when it places argv."""
    placed = cli._placed(tuple(words), argv)
    if placed is not None:
        cli.build_parser()
        args, rest = cli._COMMAND_PARSERS[tuple(words)].parse_known_args(argv)
        assert (vars(placed), rest) == (vars(args), [])
    return placed


@settings(max_examples=500)
@given(placement_lines())
def test_placement_equals_parse_known_args(line):
    _placement_agrees(*line)


@pytest.mark.parametrize("line, placed", [
    ("cm tangent --format json 3,2", True),  # an option before the positional
    ("hilb closure 4 --format dot --space calogero-moser --format json", True),  # the last --format wins
    ("cm tangent 3,2 --format=json", False), ("cm tangent 3,2 --form json", False),
    ("part info ''", True), ("part info -1", False), ("part info '3, 2'", True), ("part info 1,,1", False),
    ("part info -- 2,1", False), ("cm tangent -h", False), ("cm tangent", False), ("cm tangent 3,2 extra", False),
    ("cm orbit 3,1 --format csv", False), ("cm fixed 0", False), ("cm tangent 3,2 --format", False),
])
def test_placement_shapes(line, placed):
    words = shlex.split(line)
    assert (_placement_agrees(words[:2], words[2:]) is not None) == placed
