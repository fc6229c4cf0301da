"""End-to-end acceptance checks.

Every check is exact: the identities either hold coefficient by
coefficient or the test fails.  Each test prints one PASS line with its
runtime so the suite doubles as a report.
"""

import json
import time

import pytest

from cmhilb import (
    Partition,
    diagonals,
    exponents,
    layered_fiber_character,
    regular_fiber_character,
    u_map,
)
from cmhilb.cli import main

EXPECTED_EXPONENTS_N6 = {
    (6,): (0,),
    (5, 1): (1, 2),
    (4, 2): (1, 2, 3),
    (4, 1, 1): (0, 1, 2, 3),
    (3, 3): (0, 3),
    (3, 2, 1): (0, 1, 1, 2, 2, 4),
    (3, 1, 1, 1): (0, 1, 2, 3),
    (2, 2, 2): (0, 3),
    (2, 2, 1, 1): (1, 2, 3),
    (2, 1, 1, 1, 1): (1, 2),
    (1, 1, 1, 1, 1, 1): (0,),
}


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")


def test_01_exponent_table_six_boxes(capsys):
    with _Budget("exponent-table-n6", 5):
        code = main(["cm", "exponents", "6"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        seen = {}
        for line in lines:
            left, right = line.split("|")
            seen[left.strip()] = right.strip()
        assert seen["3,2,1"] == "0,1²,2²,4"
        for parts, exps in EXPECTED_EXPONENTS_N6.items():
            lam = Partition(parts)
            assert exponents(lam) == exps
        code = main(["cm", "exponents", "6", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        table = {
            tuple(r["partition"]): tuple(w for w, c in r["exponents"] for _ in range(c))
            for r in data["rows"]
        }
        assert table == EXPECTED_EXPONENTS_N6
    # keep the PASS line visible in captured output
    print(capsys.readouterr().out, end="")


def _verify(capsys, *args):
    """Run named `verify` checks through the CLI and require every one to pass."""
    assert main(["verify", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


def test_02_layered_fiber_identity(capsys):
    with _Budget("layered-fiber-identity-m10", 10):
        _verify(capsys, "fiber-layer-factorization", "--max-m", "10")
    print(capsys.readouterr().out, end="")


@pytest.mark.slow
def test_02b_layered_fiber_identity_m5(capsys):
    with _Budget("layered-fiber-identity-m5", 300):
        assert layered_fiber_character(5) == regular_fiber_character(5)
        assert main(["verify", "fiber-layer-factorization", "--max-m", "5"]) == 0
        capsys.readouterr()


def test_03_staircase_tangent_product(capsys):
    with _Budget("staircase-tangent-product", 1):
        _verify(capsys, "tangent-factorization")
    print(capsys.readouterr().out, end="")


def test_04_odd_weight_fixed_points(capsys):
    with _Budget("odd-weight-fixed-points", 30):
        _verify(capsys, "odd-weight-fixed-points", "--max-n", "21")
    print(capsys.readouterr().out, end="")


def test_05_u_map_and_closure(capsys):
    with _Budget("u-map-and-closure", 10):
        running = Partition((4, 3, 3, 1, 1))
        assert diagonals(running) == (1, 2, 3, 4, 2)
        assert u_map(running) == Partition((5, 4, 2, 1))
        _verify(capsys, "diagonal-u-map", "--max-n", "20")
    print(capsys.readouterr().out, end="")


def test_06_stabilizer_classification(capsys):
    with _Budget("stabilizer-classification", 10):
        _verify(capsys, "orbit-classification", "--max-n", "20")
    print(capsys.readouterr().out, end="")


def test_07_duality_and_dimension_bookkeeping(capsys):
    with _Budget("duality-and-dimensions", 120):
        _verify(capsys, "isotypic-characters", "--max-m", "4")
    print(capsys.readouterr().out, end="")


def test_08_kernel_checks(capsys):
    with _Budget("kernel-checks", 120):
        _verify(
            capsys,
            "character-orthogonality",
            "fake-degree",
            "--max-n",
            "12",
        )
    print(capsys.readouterr().out, end="")


@pytest.mark.slow
def test_09_exponent_table_m6(capsys):
    with _Budget("exponent-table-m6", 120):
        _verify(
            capsys,
            "isotypic-characters",
            "--max-m",
            "6",
            "--max-n",
            "21",
        )
    print(capsys.readouterr().out, end="")


@pytest.mark.slow
def test_10_exponent_table_m7(capsys):
    with _Budget("exponent-table-m7", 60):
        _verify(
            capsys,
            "isotypic-characters",
            "--max-m",
            "7",
            "--max-n",
            "28",
        )
    print(capsys.readouterr().out, end="")


@pytest.mark.slow
def test_11_exponent_table_m8(capsys):
    with _Budget("exponent-table-m8", 120):
        _verify(
            capsys,
            "isotypic-characters",
            "--max-m",
            "8",
            "--max-n",
            "36",
        )
    print(capsys.readouterr().out, end="")
