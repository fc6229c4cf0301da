"""End-to-end acceptance checks.

Every check is exact: the identities either hold coefficient by
coefficient or the test fails.  Each test prints one PASS line with its
runtime so the suite doubles as a report.
"""

import json
import time
from math import factorial

import pytest

from cmhilb import (
    LaurentPolynomial,
    Partition,
    dim_irrep,
    enumerate_partitions,
    exponents,
    fake_degree,
    hilb_orbit,
    irreducible_character,
    is_borel_stable,
    is_staircase,
    is_steep,
    isotypic_character,
    layered_fiber_character,
    regular_fiber_character,
    sl2_fixed_set,
    staircase,
    tangent_character,
    transpose,
    triangular_index,
    u_map,
    weights_all_odd,
    cm_orbit,
    closure_graph,
    centralizer_order,
    character_table,
    diagonals,
    HILBERT,
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
        table = {tuple(r["partition"]): tuple(r["exponents"]) for r in data["rows"]}
        assert table == EXPECTED_EXPONENTS_N6
    # keep the PASS line visible in captured output
    print(capsys.readouterr().out, end="")


def test_02_layered_fiber_identity(capsys):
    with _Budget("layered-fiber-identity-m10", 10):
        for m in range(1, 11):
            assert layered_fiber_character(m) == regular_fiber_character(m)
        assert main(["verify", "fiber-layer-factorization", "--max-m", "10"]) == 0
        capsys.readouterr()
    print(capsys.readouterr().out, end="")


@pytest.mark.slow
def test_02b_layered_fiber_identity_m5(capsys):
    with _Budget("layered-fiber-identity-m5", 300):
        assert layered_fiber_character(5) == regular_fiber_character(5)
        assert main(["verify", "fiber-layer-factorization", "--max-m", "5"]) == 0
        capsys.readouterr()


def test_03_staircase_tangent_product():
    with _Budget("staircase-tangent-product", 1):
        for m in range(1, 9):
            assert tangent_character(staircase(m)) == irreducible_character(
                m
            ) * irreducible_character(m - 1)


def test_04_odd_weight_fixed_points():
    with _Budget("odd-weight-fixed-points", 30):
        for n in range(1, 22):
            m = triangular_index(n)
            expected = {staircase(m)} if m is not None else set()
            assert sl2_fixed_set(n) == expected
            for lam in enumerate_partitions(n):
                assert weights_all_odd(tangent_character(lam)) == is_staircase(lam)


def test_05_u_map_and_closure():
    with _Budget("u-map-and-closure", 10):
        running = Partition((4, 3, 3, 1, 1))
        assert diagonals(running) == (1, 2, 3, 4, 2)
        assert u_map(running) == Partition((5, 4, 2, 1))
        for n in range(1, 21):
            for lam in enumerate_partitions(n):
                u = u_map(lam)
                assert is_steep(u)
                assert u.size == lam.size
                assert (u == lam) == is_steep(lam)
                assert is_staircase(u) == is_staircase(lam)
            for src, dst in closure_graph(n, HILBERT).edges:
                assert is_steep(dst) and not is_staircase(dst)
                assert dst.size == src.size


def test_06_stabilizer_classification():
    with _Budget("stabilizer-classification", 10):
        for n in range(1, 21):
            for lam in enumerate_partitions(n):
                lamt = transpose(lam)
                rep = hilb_orbit(lam)
                if is_staircase(lam):
                    assert rep.stabilizer == "SL2" and rep.orbit_model == "point"
                elif is_steep(lam):
                    assert rep.stabilizer == "B" and rep.closed
                elif is_steep(lamt):
                    assert rep.stabilizer == "B_minus" and rep.closed
                elif lam == lamt:
                    assert rep.stabilizer == "N_T" and not rep.closed
                else:
                    assert rep.stabilizer == "T" and not rep.closed
                assert rep.closed == (is_steep(lam) or is_steep(lamt))
                assert is_borel_stable(lam) == is_steep(lam)
                cm = cm_orbit(lam)
                assert cm.closed
                if is_staircase(lam):
                    assert cm.stabilizer == "SL2"
                elif lam == lamt:
                    assert cm.stabilizer == "N_T"
                else:
                    assert cm.stabilizer == "T" and cm.partner == lamt


def test_07_duality_and_dimension_bookkeeping():
    with _Budget("duality-and-dimensions", 120):
        for m in range(1, 5):
            n = m * (m + 1) // 2
            full = regular_fiber_character(m)
            assert full.evaluate(1) == factorial(n)
            total = LaurentPolynomial.zero()
            for lam in enumerate_partitions(n):
                e = exponents(lam)
                assert e == exponents(transpose(lam))
                assert sum(x + 1 for x in e) == dim_irrep(lam)
                total = total + isotypic_character(lam).scaled(dim_irrep(lam))
            assert total == full


def test_08_kernel_checks():
    with _Budget("kernel-checks", 120):
        for n in range(1, 13):
            table = character_table(n)
            parts = table.partitions
            weights = [factorial(n) // centralizer_order(mu) for mu in parts]
            for i, lam in enumerate(parts):
                for nu in parts[: i + 1]:
                    total = sum(
                        w * table.value(lam, mu) * table.value(nu, mu)
                        for w, mu in zip(weights, parts)
                    )
                    assert total == (factorial(n) if lam == nu else 0)
            for lam in parts:
                f = fake_degree(lam)
                assert all(c > 0 for _, c in f.sorted_terms())
                assert f.evaluate(1) == dim_irrep(lam)
        # every conversion in the isotypic pipeline must succeed exactly
        for m in range(5):
            for lam in enumerate_partitions(m * (m + 1) // 2):
                chi = isotypic_character(lam)
                assert chi.is_palindromic()
