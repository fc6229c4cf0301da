import copy
import gc
import os
import pickle
import tracemalloc
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cmhilb import (
    CALOGERO_MOSER,
    HILBERT,
    CapExceededError,
    LaurentPolynomial,
    Partition,
    all_hooks_odd,
    character_table,
    closure_graph,
    cm_orbit,
    diagonals,
    dim_irrep,
    enumerate_partitions,
    hilb_orbit,
    hook_lengths,
    hook_polynomial,
    is_staircase,
    is_steep,
    monomial_ideal,
    n_stat,
    parse_partition,
    sl2_fixed_set,
    staircase,
    transpose,
    triangular_index,
    u_map,
    verify,
)
import cmhilb.partitions as partitions_module
from cmhilb import symfun
from cmhilb.partitions import LISTABLE_SIZE_CAP, _partition_tuples
from cmhilb.verify import CHECKS, Limits


def test_construction_validates():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()).size == 0
    for parts in [(2.5, 1), (2.0, 1), ("3", "1"), (3, None), (True,), (2, True)]:
        with pytest.raises(TypeError):
            Partition(parts)


def test_partition_is_an_immutable_record():
    lam = Partition((2, 1))
    with pytest.raises(AttributeError):
        lam.parts = (3,)
    assert lam.parts == (2, 1)
    assert lam == Partition([2, 1]) and lam != Partition((3,))
    assert lam != (2, 1) and (2, 1) != lam
    assert hash(lam) == hash(Partition((2, 1)))
    assert len({lam, Partition((2, 1)), Partition((1, 1))}) == 2
    assert repr(lam) == "Partition(parts=(2, 1))"
    assert repr(Partition()) == "Partition(parts=())"


def test_records_survive_pickle_and_copy():
    # a loaded partition is built by Partition(parts), so its parts are checked again
    assert Partition((2, 1)).__reduce__() == (Partition, ((2, 1),))
    lam = Partition((3, 2, 2))
    values = [lam, Partition(), hilb_orbit(lam), cm_orbit(lam), hilb_orbit(Partition((3, 1))),
              monomial_ideal(lam), closure_graph(5, HILBERT), closure_graph(5, CALOGERO_MOSER)]
    table = character_table(6)  # 11 partitions: 6 rows held, 5 read through eps from their transposes'
    assert (len(table.partitions), len(table._rows)) == (11, 6)
    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        for value, loaded in zip(values, map(round_trip, values)):
            assert loaded == value and type(loaded) is type(value)
        loaded = round_trip(table)
        assert [loaded.row(mu) for mu in table.partitions] == [table.row(mu) for mu in table.partitions]
        assert [[loaded.value(lam, mu) for mu in table.partitions] for lam in table.partitions] == [
            list(table.row(lam)) for lam in table.partitions]


def test_parse():
    assert parse_partition("4,3,3,1,1") == Partition((4, 3, 3, 1, 1))
    assert parse_partition("") == Partition(())
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("2,x")


def _parse_int_rule(token):
    """The per-token rule of parse_partition before it read the whole text with one pattern: ASCII digits
    after an optional "-", with whitespace around them, read by int()."""
    digits = token.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def _parse_by_tokens(text):
    text = text.strip()
    if not text:
        return Partition()
    try:
        nums = tuple(_parse_int_rule(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return Partition(nums)


def _outcome(make, arg):
    """The parts made, or the type and text of the refusal."""
    try:
        return make(arg).parts
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# whitespace that str.strip, int() and the pattern's \s must treat alike, and look-alikes of digits and signs
_PARSE_ALPHABET = "0123456789,-+_\uff15\u0663 \t\x1c\x85\u2003"
_SPACES = st.text(" \t\x1c\x85\u2003", max_size=2)
# mostly well-formed tokens, so that the draws reach the parts and not only the refusals
_TOKENS = st.tuples(_SPACES, st.sampled_from(["", "", "-", "+", "--", "_"]),
                    st.text(st.sampled_from("01234567890123456789_\uff15\u0663"), min_size=1, max_size=3),
                    _SPACES).map("".join)


@settings(max_examples=500)
@given(st.one_of(st.text(_PARSE_ALPHABET, max_size=12), st.lists(_TOKENS, max_size=4).map(",".join)))
def test_parse_partition_keeps_the_per_token_rule(text):
    assert _outcome(parse_partition, text) == _outcome(_parse_by_tokens, text)


def test_transpose_examples():
    assert transpose(Partition((4, 3, 3, 1, 1))) == Partition((5, 3, 3, 1))
    assert transpose(staircase(5)) == staircase(5)
    assert transpose(Partition((6,))) == Partition((1,) * 6)


def test_hook_lengths_examples():
    assert hook_lengths(staircase(4)) == (7, 5, 5, 3, 3, 3, 1, 1, 1, 1)
    assert hook_lengths(Partition((1,))) == (1,)
    assert hook_lengths(Partition((2, 1))) == (3, 1, 1)


def test_hook_polynomial():
    assert hook_polynomial(Partition((1,))) == LaurentPolynomial({0: 1, 1: -1})
    expected = (
        LaurentPolynomial({0: 1, 3: -1})
        * LaurentPolynomial({0: 1, 1: -1})
        * LaurentPolynomial({0: 1, 1: -1})
    )
    assert hook_polynomial(Partition((2, 1))) == expected


def test_staircase_hooks_all_odd():
    for m in range(7):
        assert all(h % 2 for h in hook_lengths(staircase(m)))


def test_n_stat():
    assert n_stat(staircase(3)) == 4
    assert n_stat(staircase(4)) == 10
    assert n_stat(Partition((9,))) == 0


def test_n_stat_staircase_formula():
    for m in range(11):
        assert n_stat(staircase(m)) == (m - 1) * m * (m + 1) // 6


def test_fiber_check_catches_a_wrong_staircase_n_stat(monkeypatch):
    # the fiber character is shifted by -n(delta) and the layered product
    # is not, so n(delta) off by one on a staircase must fail the check
    real = symfun.n_stat
    monkeypatch.setattr(symfun, "n_stat", lambda lam: real(lam) + (is_staircase(lam) and lam.size >= 3))
    failures = CHECKS["fiber-layer-factorization"](Limits(max_m=4))
    assert "layered factorization misses the fiber character at m=2" in failures


def test_dim_irrep():
    assert dim_irrep(Partition((3, 2, 1))) == 16
    assert dim_irrep(Partition((7,))) == 1
    assert dim_irrep(Partition((2, 1))) == 2


def test_dimension_squares_sum_to_factorial():
    # the Gram matrix of the square table and chi(1^n) = dim give sum dim^2 = n!
    assert CHECKS["character-orthogonality"](Limits(max_n=8)) == []


def test_orthogonality_check_catches_a_wrong_dimension(monkeypatch):
    wrong = lambda lam: dim_irrep(lam) + (lam == Partition((3, 2, 1)))
    monkeypatch.setattr(verify, "dim_irrep", wrong)
    assert CHECKS["character-orthogonality"](Limits(max_n=8)) == [
        "character at the identity is not the dimension for 3,2,1"
    ]


def test_is_steep():
    assert is_steep(Partition((3, 1)))
    assert not is_steep(Partition((4, 3, 3, 1, 1)))
    for m in range(7):
        assert is_steep(staircase(m))


def test_both_sides_steep_only_for_staircase():
    for n in range(16):
        for lam in enumerate_partitions(n):
            both = is_steep(lam) and is_steep(transpose(lam))
            assert both == is_staircase(lam)


def test_diagonals_examples():
    assert diagonals(Partition((4, 3, 3, 1, 1))) == (1, 2, 3, 4, 2)
    assert diagonals(Partition((1,))) == (1,)
    for m in range(1, 7):
        assert diagonals(staircase(m)) == tuple(range(1, m + 1))


def test_u_map_examples():
    assert u_map(Partition((4, 3, 3, 1, 1))) == Partition((5, 4, 2, 1))
    assert u_map(Partition((3, 1))) == Partition((3, 1))
    for m in range(7):
        assert u_map(staircase(m)) == staircase(m)


def test_partition_checks_pass():
    assert CHECKS["partition-involutions"](Limits(max_n=12)) == []
    assert CHECKS["diagonal-u-map"](Limits(max_n=12)) == []


def _with_invalid(n):
    return enumerate_partitions(n) + ([partitions_module._unchecked((1, 2))] if n == 3 else [])


@pytest.mark.parametrize("check, name, wrong, message", [
    ("partition-involutions", "transpose", lambda lam: lam, "not the cell swap"),
    ("partition-involutions", "transpose",
     lambda lam: partitions_module._unchecked(transpose(lam).parts[::-1]), "weakly decreasing"),
    ("partition-involutions", "enumerate_partitions", _with_invalid, "weakly decreasing"),
    ("diagonal-u-map", "diagonals", lambda lam: diagonals(lam)[::-1], "cell counts"),
    ("diagonal-u-map", "diagonals", lambda lam: diagonals(lam) + (1,), "cell counts"),
    ("diagonal-u-map", "u_map", lambda lam: lam, "count of diagonals"),
    ("diagonal-u-map", "u_map", lambda lam: partitions_module._unchecked(u_map(lam).parts[::-1]),
     "weakly decreasing"),
    ("diagonal-u-map", "u_map", lambda lam: partitions_module._unchecked(u_map(lam).parts + (0,)),
     "must be positive"),
    # transpose((3, 1)) = (2, 1, 1) goes to (2, 2), not back: no involution
    ("partition-involutions", "transpose",
     lambda lam: Partition((2, 2)) if lam == Partition((2, 1, 1)) else transpose(lam), "not the cell swap"),
    # the steep (3, 1) goes to (2, 2), and (2, 2) back to (3, 1): not idempotent
    ("diagonal-u-map", "u_map", lambda lam: Partition((2, 2)) if lam == Partition((3, 1)) else u_map(lam),
     "count of diagonals"),
], ids=["transpose-identity", "transpose-increasing", "enumeration-increasing", "diagonals-reversed",
        "diagonals-extra-cell", "u_map-identity", "u_map-increasing", "u_map-zero-part", "transpose-no-involution",
        "u_map-not-idempotent"])
def test_partition_checks_catch_a_wrong_rule(monkeypatch, capsys, check, name, wrong, message):
    import cmhilb.verify as verify_module

    monkeypatch.setattr(verify_module, name, wrong)
    assert not verify_module.run_checks([check], Limits(max_n=6))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"FAIL {check}: ") and message in lines[0]


def test_staircase_and_odd_hooks():
    assert staircase(3) == Partition((3, 2, 1))
    assert staircase(0) == Partition(())
    assert not all_hooks_odd(Partition((2, 2)))
    assert all_hooks_odd(staircase(5))


def test_odd_hooks_iff_staircase_exhaustive():
    for n in range(13):
        assert [lam for lam in enumerate_partitions(n) if all_hooks_odd(lam)] == [
            lam for lam in enumerate_partitions(n) if is_staircase(lam)
        ]


def test_enumerate_partitions():
    assert [lam.parts for lam in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert len(enumerate_partitions(6)) == 11
    assert enumerate_partitions(0) == [Partition(())]


def test_enumerate_reverse_lex_order():
    for n in range(11):
        seq = [lam.parts for lam in enumerate_partitions(n)]
        assert seq == sorted(seq, reverse=True)
        assert len(set(seq)) == len(seq)
        assert all(sum(p) == n for p in seq)


def test_partition_count_and_budget():
    # p(n) for n = 0..24, OEIS A000041
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627, 792, 1002,
              1255, 1575]
    assert [len(enumerate_partitions(n)) for n in range(25)] == counts
    assert len(enumerate_partitions(31)) == 6842
    # the cap is the largest n with at most 10^5 partitions
    assert LISTABLE_SIZE_CAP == 45
    p45, p46 = (sum(1 for _ in _partition_tuples(n)) for n in (45, 46))
    assert (p45, p46) == (89134, 105558) and p45 <= 10**5 < p46
    with pytest.raises(CapExceededError):
        enumerate_partitions(46)


@pytest.mark.parametrize("scan", [
    enumerate_partitions,
    sl2_fixed_set,
    lambda n: closure_graph(n, HILBERT),
    lambda n: closure_graph(n, CALOGERO_MOSER),
    character_table,
], ids=["enumerate_partitions", "sl2_fixed_set", "closure_graph-hilbert", "closure_graph-calogero-moser",
        "character_table"])
def test_every_scan_refuses_a_size_past_the_cap(scan):
    # no library scan has a cap of its own: each refuses before it lists anything
    with pytest.raises(CapExceededError, match=f"n={LISTABLE_SIZE_CAP + 1} exceeds the cap"):
        scan(LISTABLE_SIZE_CAP + 1)


def test_sl2_fixed_set_admits_the_cap():
    assert sl2_fixed_set(LISTABLE_SIZE_CAP) == {staircase(9)}


@pytest.mark.parametrize("n", [True, 1.0, 2.5], ids=repr)
@pytest.mark.parametrize("scan", [
    enumerate_partitions,
    sl2_fixed_set,
    lambda n: closure_graph(n, HILBERT),
], ids=["enumerate_partitions", "sl2_fixed_set", "closure_graph"])
def test_a_size_that_is_not_exactly_an_int_is_refused(scan, n):
    # bool subclasses int, but True is no size, as it is no part
    with pytest.raises(TypeError, match="expected an int"):
        scan(n)


_PACKAGE_FILES = os.path.join(os.path.dirname(partitions_module.__file__), "*")


def _retained_by_scan() -> int:
    """Bytes still allocated, after the list is dropped, by blocks that a
    frame under the package allocated during a scan of the partitions of 30.

    Only the package's blocks count, so an allocation the interpreter or a
    test plugin makes at the same time does not.  CPython keeps up to 2000
    freed tuples of each length below 20 for reuse, still counted as
    allocated, so that store is filled before counting starts.  Automatic
    collection is off meanwhile: a full collection empties that store, and
    the tuples the scan frees would then refill it and count as retained."""
    gc.disable()
    try:
        spare = [tuple(range(k)) for k in range(1, 20) for _ in range(2000)]
        del spare
        tracemalloc.start(8)
        lams = partitions_module.enumerate_partitions(30)
        hook_lengths(lams[len(lams) // 2])
        del lams
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    ours = snapshot.filter_traces([tracemalloc.Filter(True, _PACKAGE_FILES, all_frames=True)])
    return sum(stat.size for stat in ours.statistics("filename"))


def test_enumeration_retains_nothing():
    # no cache outlives a scan: once its list is dropped, the partitions
    # and the hook multisets read off them are freed
    assert _retained_by_scan() < 64 * 1024


def test_retention_check_sees_a_cache(monkeypatch):
    # the same measurement with a cache that keeps every partition listed
    cached = lru_cache(maxsize=None)(partitions_module.enumerate_partitions)
    monkeypatch.setattr(partitions_module, "enumerate_partitions", cached)
    assert _retained_by_scan() >= 64 * 1024


def test_triangular_index():
    assert triangular_index(6) == 3
    assert triangular_index(7) is None
    assert triangular_index(0) == 0
    assert triangular_index(1) == 1
