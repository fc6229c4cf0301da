"""Tests of the benchmark's own oracles, inputs, checkers and tracing.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import contextlib
from math import factorial

import pytest

import layers
import oracles
import worker
import workloads
from cmhilb import Partition, hilb_orbit, cm_orbit


def run_outputs(name, inputs):
    outputs = []
    reply = worker.run_pass(name, inputs, contextlib.nullcontext(), outputs.append)
    assert reply["failures"] == []
    return outputs


# -- oracles --------------------------------------------------------------------


def test_prefix_sum_fiber_small_case():
    assert oracles.fiber_character(2) == {-1: 2, 0: 2, 1: 2}


@pytest.mark.parametrize("m", range(1, 8))
def test_prefix_sum_fiber_value_at_one_and_symmetry(m):
    fiber = oracles.fiber_character(m)
    assert oracles.value_at_one(fiber) == factorial(m * (m + 1) // 2)
    assert oracles.is_palindromic(fiber)


def test_pentagonal_recurrence():
    assert oracles.partition_count(15) == 176
    assert oracles.partition_count(21) == 792
    assert [oracles.partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    for n in range(1, 16):
        assert oracles.partition_count(n) == len(oracles.partitions(n))


def test_hook_lengths_and_dimensions():
    assert oracles.hooks((4, 2, 1)) == [6, 4, 3, 2, 1, 1, 1]
    assert oracles.hooks((3, 2, 1)) == [5, 3, 3, 1, 1, 1]
    assert oracles.dim((4, 2, 1)) == 35
    assert oracles.dim((3, 2, 1)) == 16
    for n in range(1, 10):
        assert sum(oracles.dim(lam) ** 2 for lam in oracles.partitions(n)) == factorial(n)


def test_hook_product_by_shift_subtract():
    assert oracles.hook_product((2,)) == {0: 1, 1: -1, 2: -1, 3: 1}
    assert oracles.hook_product((1, 1)) == oracles.hook_product((2,))


def test_derivation_test_on_known_shapes():
    assert oracles.stabilizer((3, 2, 1), "hilbert") == "SL2"
    assert oracles.stabilizer((4, 2, 1), "hilbert") == "B"
    assert oracles.stabilizer((3, 2, 1, 1), "hilbert") == "B_minus"
    assert oracles.stabilizer((2, 2), "hilbert") == "N_T"
    assert oracles.stabilizer((3, 1, 1), "hilbert") == "N_T"
    assert oracles.stabilizer((3, 3, 1), "hilbert") == "T"
    assert oracles.stabilizer((4, 2, 1), "calogero-moser") == "T"


@pytest.mark.parametrize("n", range(1, 15))
def test_derivation_test_matches_the_package(n):
    for lam in oracles.partitions(n):
        assert oracles.stabilizer(lam, "hilbert") == hilb_orbit(Partition(lam)).stabilizer
        assert oracles.stabilizer(lam, "calogero-moser") == cm_orbit(Partition(lam)).stabilizer


def test_laurent_text_parser():
    assert oracles.parse_laurent("q^-1 + 2 - 3q^4 + q") == {-1: 1, 0: 2, 4: -3, 1: 1}
    assert oracles.parse_laurent("-q^-2 - 1") == {-2: -1, 0: -1}
    assert oracles.parse_laurent("0") == {}
    with pytest.raises(ValueError):
        oracles.parse_laurent("2 +")


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)


@pytest.mark.parametrize("name", ["fiber-character", "character-tables", "orbit-queries"])
def test_other_seed_other_inputs_same_sizes(name):
    a, b = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
    assert a != b
    if name == "fiber-character":
        sizes = [sorted(sum(lam) for lam in x["hook_partitions"]) for x in (a, b)]
        assert sizes[0] == sizes[1]


def test_query_stream_has_the_fixed_mix():
    argvs = workloads.make_inputs("orbit-queries", 3)["argvs"]
    counts = {}
    for argv in argvs:
        counts[" ".join(argv[:2])] = counts.get(" ".join(argv[:2]), 0) + 1
    assert counts == dict(workloads.QUERY_MIX)
    for argv in argvs:
        if argv[0] in ("part", "cm", "hilb") and argv[1] not in ("fixed", "closure"):
            assert 1 <= sum(map(int, argv[2].split(","))) <= workloads.PART_MAX


# -- checkers accept the program's outputs and reject corrupted ones -------------


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "EXPONENT_SIZES", (3, 6, 10))
    monkeypatch.setattr(workloads, "FIBER_MAX_M", 4)
    monkeypatch.setattr(workloads, "HOOK_OPS", 4)
    monkeypatch.setattr(workloads, "HOOK_SIZES", (20, 30))
    monkeypatch.setattr(workloads, "TABLE_SIZES", (5, 6, 7))


def test_exponent_checker(small_sizes):
    inputs = workloads.make_inputs("exponent-table", 1)
    outputs = run_outputs("exponent-table", inputs)
    assert workloads.check("exponent-table", inputs, outputs) == []
    index = next(i for i, runs in enumerate(outputs) if sum(c for _, c in runs) > 1)
    dropped = [list(map(list, runs)) for runs in outputs]
    dropped[index][-1][1] -= 1
    dropped[index] = [run for run in dropped[index] if run[1]]
    assert workloads.check("exponent-table", inputs, dropped)


def test_fiber_checker(small_sizes):
    inputs = workloads.make_inputs("fiber-character", 1)
    outputs = run_outputs("fiber-character", inputs)
    assert workloads.check("fiber-character", inputs, outputs) == []
    for index in (3, len(outputs) - 1):  # a fiber character, a hook polynomial
        corrupt = [list(map(list, pairs)) for pairs in outputs]
        corrupt[index][0][1] = str(int(corrupt[index][0][1]) + 1)
        assert workloads.check("fiber-character", inputs, corrupt)


def test_table_checker(small_sizes):
    inputs = workloads.make_inputs("character-tables", 1)
    outputs = run_outputs("character-tables", inputs)
    assert workloads.check("character-tables", inputs, outputs) == []
    spec = inputs["tables"][-1]
    i, j = spec["pairs"][0]
    corrupt = [dict(out, rows=dict(out["rows"])) for out in outputs]
    row = list(corrupt[-1]["rows"][i])
    row[-1] += 1  # at mu = 1^n, where row j holds dim > 0
    corrupt[-1]["rows"][i] = row
    assert workloads.check("character-tables", inputs, corrupt)


def test_orbit_checker_accepts_a_full_stream():
    inputs = workloads.make_inputs("orbit-queries", 2)
    assert workloads.check("orbit-queries", inputs, run_outputs("orbit-queries", inputs)) == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_orbit_checker_rejects_a_wrong_stabiliser(fmt):
    inputs = {"argvs": [["hilb", "orbit", "4,2,1", "--format", fmt], ["cm", "orbit", "3,3,1", "--format", fmt]]}
    outputs = run_outputs("orbit-queries", inputs)
    assert workloads.check("orbit-queries", inputs, outputs) == []
    for index, (right, wrong) in enumerate([("B", "B_minus"), ("T", "N_T")]):
        corrupt = list(outputs)
        corrupt[index] = outputs[index].replace(f" {right}\n", f" {wrong}\n").replace(
            f'"{right}"', f'"{wrong}"'
        )
        assert corrupt[index] != outputs[index]
        assert workloads.check("orbit-queries", inputs, corrupt)


def test_scan_checker_rejects_a_missing_node():
    inputs = {"argvs": [["hilb", "closure", "6", "--space", "hilbert", "--format", "dot"]]}
    outputs = run_outputs("orbit-queries", inputs)
    assert workloads.check("orbit-queries", inputs, outputs) == []
    lines = outputs[0].splitlines()
    corrupt = "\n".join(line for line in lines if '"3,2,1" [' not in line)
    assert workloads.check("orbit-queries", inputs, [corrupt])


# -- tracing --------------------------------------------------------------------


def test_attribution_charges_callees_to_the_calling_layer():
    pkg, std, builtin, frac = ("pkg/a.py", 1, "f"), ("std/x.py", 1, "g"), ("~", 0, "len"), ("fractions.py", 1, "h")
    loop = ("std/x.py", 9, "loop")
    stats = {
        pkg: (1, 1, 1.0, 10.0, {}),
        std: (1, 1, 2.0, 3.0, {pkg: (1, 1, 2.0, 3.0), loop: (1, 1, 0.0, 0.0)}),
        builtin: (2, 2, 1.0, 1.0, {std: (1, 1, 0.5, 0.5), frac: (1, 1, 0.5, 0.5)}),
        frac: (1, 1, 4.0, 4.5, {pkg: (1, 1, 4.0, 4.5)}),
        loop: (1, 1, 0.25, 0.25, {loop: (1, 1, 0.25, 0.25), std: (1, 1, 0.0, 0.25)}),
    }

    def classify(filename):
        return {"pkg/a.py": "cmhilb.a", "fractions.py": "fractions"}.get(filename)

    totals = layers.attribute(stats, classify)
    assert totals["cmhilb.a"] == pytest.approx(1.0 + 2.0 + 0.5 + 0.25)
    assert totals["fractions"] == pytest.approx(4.5)
    assert sum(totals.values()) == pytest.approx(8.25)


def test_traced_pass_reports_every_layer_metric():
    inputs = {"argvs": [["part", "info", "5,3,1", "--format", "text"]]}
    tracer = layers.Tracer(worker.SRC_DIR)
    reply = worker.run_pass("orbit-queries", inputs, tracer, lambda output: None)
    metrics = tracer.metrics()
    assert set(layers.metric_names()) <= set(metrics)
    assert metrics["cli.self_s"] > 0 and metrics["exactalg.coeff_ops"] > 0
    assert reply["failures"] == []
