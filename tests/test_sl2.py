import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

import cmhilb.partitions as partitions_module
import cmhilb.sl2 as sl2
from cmhilb import (
    LaurentPolynomial,
    NotACharacterError,
    Partition,
    decompose,
    dim_irrep,
    enumerate_partitions,
    exponent_runs,
    exponent_string,
    exponents,
    hook_layer_character,
    irreducible_character,
    layered_fiber_character,
    sl2_fixed_set,
    staircase,
    tangent_character,
    verify,
    weights_all_odd,
)
from cmhilb.verify import CHECKS, Limits
from strategies import partitions

sl2_runs = st.dictionaries(
    st.integers(0, 8), st.integers(1, 4), max_size=5
).map(lambda mult: tuple(sorted(mult.items())))


def test_irreducible_character_examples():
    assert irreducible_character(0) == LaurentPolynomial.one()
    assert irreducible_character(1) == LaurentPolynomial({1: 1, -1: 1})
    assert irreducible_character(2) == LaurentPolynomial({2: 1, 0: 1, -2: 1})
    with pytest.raises(ValueError):
        irreducible_character(-1)


def test_decompose_examples():
    assert decompose(LaurentPolynomial({2: 1, 0: 1, -2: 1})) == ((2, 1),)
    doubled = LaurentPolynomial({1: 2, 0: 2, -1: 2})
    assert decompose(doubled) == ((0, 2), (1, 2))
    # V(3)^2 + V(0): dimension 9, exponents 0, 3, 3
    char = irreducible_character(3).scaled(2) + irreducible_character(0)
    assert char.coefficient_sum() == 9
    assert decompose(char) == ((0, 1), (3, 2))
    assert tuple(w for w, c in decompose(char) for _ in range(c)) == (0, 3, 3)
    with pytest.raises(NotACharacterError):
        decompose(LaurentPolynomial({1: 1, -1: 1, 0: -1}))
    with pytest.raises(NotACharacterError):
        decompose(LaurentPolynomial({2: 1}))
    assert decompose(LaurentPolynomial()) == ()


@given(sl2_runs)
def test_decompose_inverts_reconstruction(runs):
    # the law of sl2-decompose-roundtrip, which feeds the same generator seeded runs
    assert list(verify._decompose_failures(runs)) == []


@given(partitions(max_size=10))
def test_tangent_decomposes(lam):
    # a tangent character is a genuine SL2 character exactly when the
    # partition is a staircase; otherwise some even weight shows up
    chi = tangent_character(lam)
    assert chi.is_palindromic()
    assert chi.coefficient_sum() == 2 * lam.size


def test_exponents_table_rows():
    assert exponents(Partition((4, 1, 1))) == (0, 1, 2, 3)
    assert exponents(Partition((3, 2, 1))) == (0, 1, 1, 2, 2, 4)
    assert exponents(Partition((2, 2, 1, 1))) == (1, 2, 3)


def test_exponent_string():
    assert exponent_string(((0, 1), (1, 2), (2, 2), (4, 1))) == "0,1²,2²,4"
    assert exponent_string(((0, 1),)) == "0"
    assert exponent_string(((3, 12),)) == "3¹²"
    assert exponent_string(()) == ""


def test_exponent_runs_compress_exponents():
    for lam in enumerate_partitions(10):
        runs = exponent_runs(lam)
        assert tuple(w for w, c in runs for _ in range(c)) == exponents(lam)
        assert all(c > 0 for _, c in runs) and [w for w, _ in runs] == sorted({w for w, _ in runs})
    assert exponent_runs(Partition((3, 2, 1))) == ((0, 1), (1, 2), (2, 2), (4, 1))


def test_exponent_duality_and_dimension():
    # a transpose pair at m = 3 shares V(1) + V(2), of dimension 2 + 3 = dim (5,1);
    # the self-transpose (3,2,1) has V(0) + 2 V(1) + 2 V(2) + V(4), of dimension 16
    hook, hook_t = Partition((5, 1)), Partition((2, 1, 1, 1, 1))
    assert exponent_runs(hook) == exponent_runs(hook_t) == ((1, 1), (2, 1))
    assert dim_irrep(hook) == dim_irrep(hook_t) == 5
    assert exponent_runs(Partition((3, 2, 1))) == ((0, 1), (1, 2), (2, 2), (4, 1))
    assert dim_irrep(Partition((3, 2, 1))) == 16


def test_tangent_character_examples():
    assert tangent_character(Partition((2, 1))) == LaurentPolynomial(
        {3: 1, 1: 2, -1: 2, -3: 1}
    )
    assert tangent_character(Partition((2, 1))) == irreducible_character(
        2
    ) * irreducible_character(1)
    assert tangent_character(Partition((1,))) == LaurentPolynomial({1: 1, -1: 1})


def test_staircase_tangent_factorization():
    assert CHECKS["tangent-factorization"](Limits()) == []


def test_weights_all_odd():
    for m in range(7):
        assert weights_all_odd(tangent_character(staircase(m)))
    assert not weights_all_odd(tangent_character(Partition((2, 2))))
    assert weights_all_odd(LaurentPolynomial())


def test_fixed_sets():
    assert sl2_fixed_set(6) == {staircase(3)}
    assert sl2_fixed_set(7) == set()
    assert sl2_fixed_set(1) == {Partition((1,))}


def test_fixed_set_check_catches_wrong_triangular_index(monkeypatch):
    real = partitions_module.triangular_index

    def wrong(n):  # misses the staircase (4,3,2,1)
        return None if n == 10 else real(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("cmhilb") and getattr(module, "triangular_index", None) is real:
            monkeypatch.setattr(module, "triangular_index", wrong)
    assert sl2_fixed_set(10) == set()
    # the tangent weights still find (4,3,2,1), so the check must not pass
    assert CHECKS["odd-weight-fixed-points"](Limits(max_n=12)) == [
        "odd-weight fixed set at n=10 is [], not ['4,3,2,1']"
    ]


def test_fixed_set_check_catches_odd_hooks_off_the_staircase(monkeypatch):
    real = partitions_module.all_hooks_odd

    def wrong(lam):  # (2,2) has hooks 3, 2, 2, 1
        return lam.parts == (2, 2) or real(lam)

    for name, module in list(sys.modules.items()):
        if name.startswith("cmhilb") and getattr(module, "all_hooks_odd", None) is real:
            monkeypatch.setattr(module, "all_hooks_odd", wrong)
    assert CHECKS["odd-weight-fixed-points"](Limits(max_n=6)) == [
        "odd-hook criterion disagrees with staircase test at 2,2"
    ]


def test_fixed_set_check_catches_an_empty_fixed_set(monkeypatch):
    monkeypatch.setattr(verify, "sl2_fixed_set", lambda n: set())
    failures = CHECKS["odd-weight-fixed-points"](Limits(max_n=6))
    assert failures == [
        f"odd-weight fixed set at n={n} is [], not ['{staircase(m)}']"
        for m, n in ((1, 1), (2, 3), (3, 6))
    ]


def test_hook_layer_character():
    assert hook_layer_character(1) == LaurentPolynomial.one()
    assert hook_layer_character(2) == LaurentPolynomial({1: 1, 0: 1, -1: 1})
    lead = irreducible_character(2) + irreducible_character(1)
    pair = irreducible_character(1) + irreducible_character(0)
    assert hook_layer_character(3) == lead * pair * pair
    with pytest.raises(ValueError):
        hook_layer_character(0)


def test_layered_fiber_character():
    assert layered_fiber_character(2) == LaurentPolynomial({-1: 2, 0: 2, 1: 2})
    expected = (hook_layer_character(3) * hook_layer_character(1)).scaled(16)
    assert layered_fiber_character(3) == expected


def test_layered_matches_regular_fiber():
    assert CHECKS["fiber-layer-factorization"](Limits(max_m=4)) == []


def test_fiber_layer_check_catches_a_short_layer_span(monkeypatch):
    # the span q^-2 + ... + q^2 one term short: it leads the m = 3 layer and is a factor of the m = 4 one,
    # so the layered product misses the fiber character from m = 3 on
    real = sl2._from_dense
    monkeypatch.setattr(sl2, "_from_dense", lambda coeffs, lo: real(coeffs[:-1] if len(coeffs) == 5 else coeffs, lo))
    assert hook_layer_character(2) == LaurentPolynomial({1: 1, 0: 1, -1: 1})
    assert CHECKS["fiber-layer-factorization"](Limits(max_m=4)) == [
        f"layered factorization misses the fiber character at m={m}" for m in (3, 4)
    ]
