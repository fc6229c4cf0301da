import json
import random
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cmhilb import LaurentPolynomial, NonPolynomialError
from cmhilb import Partition, exactalg, hook_lengths, hook_polynomial, regular_fiber_character
from cmhilb.cli import main
from cmhilb.exactalg import _digits_within, _pack, _slot_bits, _unpack, one_minus_q_product, one_minus_q_quotient
from cmhilb.verify import (
    CHECKS, Limits, _binomial_product, _product_failures, _quotient_failures, _ring_failures, _schoolbook_product,
    run_checks,
)
from strategies import laurent_polys

Q = LaurentPolynomial({1: 1})
QINV = LaurentPolynomial({-1: 1})


def test_binomial_square():
    p = Q + QINV
    assert p * p == LaurentPolynomial({2: 1, 0: 2, -2: 1})


def test_geometric_telescope():
    assert LaurentPolynomial({0: 1, 1: -1}) * LaurentPolynomial(
        {0: 1, 1: 1, 2: 1}
    ) == LaurentPolynomial({0: 1, 3: -1})


@given(laurent_polys)
def test_neg_and_sub(p):
    assert p - p == LaurentPolynomial()
    assert -(-p) == p


def test_laurent_rejects_nonintegers():
    for terms in ({0: 1.5}, {True: 1}, {0: True}, [(1, False)]):
        with pytest.raises(TypeError):
            LaurentPolynomial(terms)


def test_laurent_invariants_hold():
    p = LaurentPolynomial([(2, 3), (2, -3), (0, 1)])
    assert p.sorted_terms() == ((0, 1),)
    assert LaurentPolynomial().sorted_terms() == ()


def test_exact_div():
    num = LaurentPolynomial({0: 1, 3: -1})
    den = LaurentPolynomial({0: 1, 1: -1})
    assert one_minus_q_quotient(num, [1]) == LaurentPolynomial({0: 1, 1: 1, 2: 1})
    with pytest.raises(NonPolynomialError):
        one_minus_q_quotient(den, [3])
    # exact_div divides by ints only
    with pytest.raises(TypeError):
        num.exact_div(den)


def test_to_text():
    p = LaurentPolynomial({-1: 1, 0: 2, 3: 1})
    assert p.to_text() == "q^-1 + 2 + q^3"
    assert LaurentPolynomial().to_text() == "0"
    assert LaurentPolynomial({1: -2, 0: 1}).to_text() == "1 - 2q"


@given(laurent_polys)
def test_json_roundtrip(p):
    assert LaurentPolynomial.from_json(p.to_json()) == p


@pytest.mark.parametrize("pairs", [
    [[1.5, "2"]], [[True, "1"]], [["1", "1"]],  # exponents that are not exactly int
    [[1, 2.7]], [[1, 2]], [[1, True]], [[1, None]],  # coefficients that are no string
    [[0, "1.0"]], [[0, "+2"]], [[0, "02"]], [[0, " 2"]], [[0, "1_000"]], [[0, "-0"]], [[0, "0"]], [[0, "x"]],
    [[1, "1"], [1, "1"]], [[2, "1"], [1, "1"]],  # a repeated or descending exponent
], ids=repr)
def test_from_json_refuses_what_to_json_never_writes(pairs):
    with pytest.raises((TypeError, ValueError)):
        LaurentPolynomial.from_json(pairs)


def test_from_json_reads_signs_and_wide_coefficients():
    pairs = [[-3, "-12"], [0, "1"], [5, str(10**40)]]
    p = LaurentPolynomial.from_json(pairs)
    assert p == LaurentPolynomial({-3: -12, 0: 1, 5: 10**40})
    assert p.to_json() == pairs
    assert LaurentPolynomial.from_json([]) == LaurentPolynomial()


def test_from_json_refuses_a_wide_span_before_storing_it():
    # two terms 10^7 apart would store 10^7 slots, some 80 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="span"):
            LaurentPolynomial.from_json([[0, "1"], [10**7, "1"]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    cap = exactalg.JSON_SPAN_CAP
    with pytest.raises(ValueError, match="span"):
        LaurentPolynomial.from_json([[-1, "1"], [cap - 1, "1"]])
    assert LaurentPolynomial.from_json([[-1, "1"], [cap - 2, "1"]]) == LaurentPolynomial({-1: 1, cap - 2: 1})


@pytest.mark.parametrize("argv, key, expected", [
    (["part", "info", "200"], "hook_polynomial", lambda: hook_polynomial(Partition((200,)))),
    (["cm", "char-L", "20"], "character", lambda: regular_fiber_character(20)),
], ids=["part info 200", "cm char-L 20"])
def test_widest_printed_polynomials_read_back(capsys, argv, key, expected):
    # the widest polynomials the commands print stay well inside JSON_SPAN_CAP
    assert main([*argv, "--format", "json"]) == 0
    assert LaurentPolynomial.from_json(json.loads(capsys.readouterr().out)[key]) == expected()


def test_coefficient_sum_is_value_at_one():
    # the value at q = 1, the only point the package evaluates at
    assert LaurentPolynomial({-1: 1, 1: 1}).coefficient_sum() == 2
    assert LaurentPolynomial({-3: 4, 0: -1, 5: 2}).coefficient_sum() == 5
    assert LaurentPolynomial().coefficient_sum() == 0


# Exact division: by a nonzero int through exact_div, and by a product of
# factors 1 - q^k through one_minus_q_quotient.

ks_lists = st.lists(st.integers(1, 12), max_size=8)


@given(ks_lists)
def test_one_minus_q_quotient_of_its_product_is_one(ks):
    assert one_minus_q_quotient(one_minus_q_product(ks), ks) == LaurentPolynomial.one()


def test_exact_div_by_zero_raises():
    f = LaurentPolynomial({0: 1, 1: -1})
    with pytest.raises(ZeroDivisionError):
        f.exact_div(0)


def test_one_minus_q_quotient_of_a_shifted_geometric_sum():
    f = LaurentPolynomial({-1: 1, 2: -1})  # q^-1 (1 - q^3)
    assert one_minus_q_quotient(f, [1]) == LaurentPolynomial({-1: 1, 0: 1, 1: 1})


def test_constant_divides_by_an_int_and_by_the_empty_product():
    ten = LaurentPolynomial({0: 10})
    assert ten.exact_div(2) == LaurentPolynomial({0: 5})
    assert one_minus_q_quotient(ten, []) == ten


def test_one_minus_q_quotient_rejects_a_series():
    # 1 / (1 - q) is the series 1 + q + q^2 + ..., and (1 - q^2) / (1 - q^3) no polynomial
    with pytest.raises(NonPolynomialError):
        one_minus_q_quotient(LaurentPolynomial.one(), [1])
    with pytest.raises(NonPolynomialError):
        one_minus_q_quotient(LaurentPolynomial({0: 1, 2: -1}), [3])


@pytest.mark.parametrize("ks", [[-1], [-2, 1], [0]])
def test_one_minus_q_kernel_refuses_k_below_1(ks):
    # 1 - q^0 is zero, and 5 / (1 - q^-1) = -5q - 5q^2 - ... is no Laurent polynomial
    for call in (lambda: one_minus_q_product(ks), lambda: one_minus_q_quotient(LaurentPolynomial({0: 5}), ks),
                 lambda: one_minus_q_quotient(LaurentPolynomial({0: 1, 1: -1}), ks)):
        with pytest.raises(ValueError, match=f"k = {min(ks)}$"):
            call()


def test_exact_div_rejects_a_fractional_quotient():
    five = LaurentPolynomial({0: 5})
    with pytest.raises(NonPolynomialError):
        five.exact_div(2)


@given(laurent_polys, st.integers(-6, 6))
def test_division_by_units_and_shifted_dividends(p, k):
    assert p.exact_div(1) == p
    assert p.exact_div(-1) == -p
    assert one_minus_q_quotient(p, []) == p
    # negative exponents shift the quotient with the dividend
    assert one_minus_q_quotient((p * LaurentPolynomial({0: 1, 1: -1})).shifted(k), [1]) == p.shifted(k)


# The laurent-ring-axioms check states the kernel's properties once, as
# generators over explicit operands: the check feeds them seeded operands,
# and these tests feed them hypothesis draws.

@given(laurent_polys, laurent_polys, laurent_polys, st.sampled_from([k for k in range(-9, 10) if abs(k) >= 2]))
def test_laurent_ring_axioms(a, b, c, k):
    assert list(_ring_failures(a, b, c, k)) == []


@given(laurent_polys)
def test_additive_identity(p):
    # the ring laws with the zero and the one as the other two operands
    zero, one = LaurentPolynomial(), LaurentPolynomial.one()
    assert [*_ring_failures(p, zero, one, 2), *_ring_failures(p, one, zero, -2)] == []


# operands from 0 to 40 terms over a span of 81 exponents, up to 2^200 in size
wide_laurent_polys = st.integers(0, 40).flatmap(
    lambda size: st.dictionaries(st.integers(-40, 40), st.integers(-(2 ** 200), 2 ** 200), max_size=size)
).map(LaurentPolynomial)


@given(wide_laurent_polys, wide_laurent_polys, wide_laurent_polys, ks_lists.filter(bool), st.integers(-6, 6),
       st.integers(2, 9))
def test_one_minus_q_quotient_and_exact_div_invert_multiplication(a, b, c, ks, j, k):
    # the laws on coefficients up to 2^200, as in half the check's quotient trials
    assert [*_ring_failures(a, b, c, k), *_quotient_failures(a, ks, j)] == []


@given(laurent_polys, ks_lists.filter(bool), st.integers(-6, 6))
def test_one_minus_q_quotient_rejects_remainder(a, ks, j):
    assert list(_quotient_failures(a, ks, j)) == []


@given(wide_laurent_polys, wide_laurent_polys)
def test_product_matches_schoolbook(x, y):
    assert list(_product_failures([(x, y)], [])) == []


# up to 120 parts of at most 3 grow coefficients past 64 bits; 70 to 150 parts of at most 2 outgrow the slots
# again after the bound is read back
@given(st.lists(st.integers(1, 30), max_size=12) | st.lists(st.integers(1, 3), max_size=120)
       | st.lists(st.integers(1, 2), min_size=70, max_size=150))
def test_one_minus_q_product_matches_binomial_products(ks):
    assert list(_product_failures([], [ks])) == []


@pytest.mark.parametrize("count", [15, 22, 54])
def test_one_minus_q_product_reads_64_bit_slots(monkeypatch, count):
    # the l1 bound 2^count fits 3 to 7 bytes, which _unpack reads one slot at a time; 8 it reads by one cast
    widths = []

    def recording(value, bits, length):
        widths.append(bits)
        return _unpack(value, bits, length)

    monkeypatch.setattr(exactalg, "_unpack", recording)
    assert one_minus_q_product(range(1, count + 1)) == _binomial_product(range(1, count + 1))
    assert widths == [64]


# The certificate of one_minus_q_product: a bit test on the packed int that every digit lies in
# [-2^(t-1), 2^(t-1)), tried before any coefficient is read back.

@pytest.mark.parametrize("bits, t", [(64, 1), (64, 2), (64, 25), (64, 62), (72, 40), (136, 100)])
def test_digits_within_reads_the_edges_of_its_range(bits, t):
    half = 1 << (t - 1)
    inside = [-half, half - 1, 0, half - 1, -half]
    assert _digits_within(_pack(inside, bits), bits, len(inside), t)
    # one digit just past either edge, in each slot: the top slot below -2^(t-1) makes the biased sum negative
    for i in range(len(inside)):
        for digit in (half, -half - 1):
            outside = inside[:i] + [digit] + inside[i + 1 :]
            assert not _digits_within(_pack(outside, bits), bits, len(outside), t)
    # a nonzero slot above the length slots, of either sign
    for digit in (1, -1, half, -half):
        assert not _digits_within(_pack(inside + [digit], bits), bits, len(inside), t)
        assert not _digits_within(_pack(inside + [0, digit], bits), bits, len(inside), t)


def _certificates(ks) -> list:
    """Whether each certificate one_minus_q_product(ks) tries passes, once the product is checked
    against the schoolbook _binomial_product."""
    seen = []

    def recording(*args):
        seen.append(_digits_within(*args))
        return seen[-1]

    with mock.patch.object(exactalg, "_digits_within", recording):
        assert one_minus_q_product(ks) == _binomial_product(ks)
    return seen


def test_certified_and_reread_products_match_binomial_products():
    seen = set()

    # more than 62 factors, so that 64-bit slots fill: long runs of k <= 3 grow binomial coefficients
    # past the certificate's room, spread k leave it room
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=63, max_size=160)
           | st.lists(st.integers(1, 60), min_size=63, max_size=160))
    def products_match(ks):
        seen.update(_certificates(ks))

    products_match()
    assert seen == {True, False}


@pytest.mark.parametrize("parts, certificates", [((100,), [True]), ((50, 50), [True]), ((10,) * 10, [False] * 8)])
def test_a_100_cell_hook_product_certifies_its_bound(monkeypatch, parts, certificates):
    # hooks 1..100 fill 64-bit slots after 62 factors; the certificate leaves room for the other 38, and the
    # product reads no coefficient back until the end.  The 10 x 10 square's coefficients are too wide for it.
    rereads = []
    refreshed = exactalg._refreshed
    monkeypatch.setattr(exactalg, "_refreshed", lambda *args: rereads.append(args) or refreshed(*args))
    assert _certificates(hook_lengths(Partition(parts))) == certificates
    assert len(rereads) == certificates.count(False)


@pytest.mark.parametrize("call", [
    lambda p: p * True, lambda p: p.scaled(True), lambda p: p.exact_div(True), lambda p: p ** True,
    lambda p: p.shifted(True), lambda p: p.exact_div(LaurentPolynomial.one()),
])
def test_bool_is_no_int_argument(call):
    with pytest.raises(TypeError):
        call(LaurentPolynomial({0: 1, 1: 2}))


@given(ks_lists)
def test_one_minus_q_quotient_matches_geometric_sums(hs):
    # prod (1 - q^h) / (1 - q)^r = prod [h]_q, as regular_fiber_character divides
    expected = LaurentPolynomial.one()
    for h in hs:
        expected = expected * LaurentPolynomial({i: 1 for i in range(h)})
    assert one_minus_q_quotient(one_minus_q_product(hs), [1] * len(hs)) == expected


# ---------------------------------------------------------------------------
# The oracle for one_minus_q_quotient is schoolbook long division on
# coefficient lists by the product multiplied out.

def _dense(p):
    """The coefficients of the nonzero p from its lowest exponent to its highest."""
    terms = dict(p.sorted_terms())
    return [terms.get(e, 0) for e in range(min(terms), max(terms) + 1)]


def _schoolbook_div(num, den):
    """num / den by long division from the top, raising NonPolynomialError
    on a remainder or a leading coefficient that does not divide."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return LaurentPolynomial()
    shift = num.min_exponent() - den.min_exponent()
    rem, d = _dense(num), _dense(den)
    if len(rem) < len(d):
        raise NonPolynomialError("divisor has larger support than dividend")
    quot = [0] * (len(rem) - len(d) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c, leftover = divmod(rem[i + len(d) - 1], d[-1])
        if leftover:
            raise NonPolynomialError("leading coefficient not divisible")
        quot[i] = c
        for j, bc in enumerate(d):
            rem[i + j] -= c * bc
    if any(rem):
        raise NonPolynomialError("division leaves a nonzero remainder")
    return LaurentPolynomial({shift + i: c for i, c in enumerate(quot) if c})


big_laurent_polys = st.dictionaries(
    st.integers(-8, 8), st.integers(-(2 ** 100), 2 ** 100), max_size=6
).map(LaurentPolynomial)

@st.composite
def quotients(draw):
    """Laurent quotients: arbitrary ones with coefficients up to 2^100, and
    powers of 1 + q + ... + q^(s-1), which (1 - q)^k divides into."""
    if draw(st.booleans()):
        return draw(big_laurent_polys)
    geometric = LaurentPolynomial({i: 1 for i in range(draw(st.integers(1, 8)))})
    return (geometric ** draw(st.integers(0, 8))).shifted(draw(st.integers(-6, 6)))


def _outcome(num, den, divide):
    try:
        return divide(num, den)
    except NonPolynomialError:
        return NonPolynomialError


# (1 - q)^k among the divisors makes quotients far larger than their dividends
@given(quotients(), ks_lists | st.lists(st.just(1), max_size=12), laurent_polys)
def test_one_minus_q_quotient_matches_schoolbook_oracle(a, ks, r):
    b = _binomial_product(ks)
    for num in (a * b, a * b + r, (a * b).scaled(3) + r):
        assert _outcome(num, ks, one_minus_q_quotient) == _outcome(num, b, _schoolbook_div)


def test_pack_unpack_round_trip():
    widths = sorted({_slot_bits(bound) for bound in [0] + [2 ** k - 1 for k in range(1, 400)]})
    assert widths == list(range(8, 408, 8))
    for bits in widths:
        half = 1 << (bits - 1)
        assert _slot_bits(half - 1) == bits and _slot_bits(half) == bits + 8
        rng = random.Random(bits)
        coeffs = [half - 1, -1, 0, 1, -half + 1] + [rng.randrange(-half, half) for _ in range(20)] + [-half]
        packed = _pack(coeffs, bits)
        assert packed == sum(c << (bits * i) for i, c in enumerate(coeffs))
        assert _unpack(packed, bits, len(coeffs)) == coeffs
        # one slot too few, or a digit above or below the balanced range, has no form
        for value, length in ((packed, len(coeffs) - 1), (half << (bits * (len(coeffs) - 1)), len(coeffs)),
                              (-half - 1, 1)):
            with pytest.raises(OverflowError):
                _unpack(value, bits, length)


def test_laurent_check_covers_the_packed_kernel(monkeypatch, capsys):
    assert CHECKS["laurent-ring-axioms"](Limits()) == []
    # one byte narrower than every bound asks for
    original = exactalg._slot_bits
    monkeypatch.setattr(exactalg, "_slot_bits", lambda bound: max(8, original(bound) - 8))
    assert not run_checks(["laurent-ring-axioms"], Limits())
    monkeypatch.undo()
    # a quotient by (1 - q^k) that drops its top k coefficients unread: its
    # remainder test is the only call of any in exactalg
    monkeypatch.setattr(exactalg, "any", lambda coeffs: False, raising=False)
    assert not run_checks(["laurent-ring-axioms"], Limits())
    monkeypatch.undo()
    # a product of (1 - q^k) that trusts its running bound without rereading it
    monkeypatch.setattr(exactalg, "_refreshed", lambda v, bits, length, factors: (v, bits, 1))
    assert not run_checks(["laurent-ring-axioms"], Limits())
    monkeypatch.undo()
    # a product of (1 - q^k) whose certificate passes every packed int
    monkeypatch.setattr(exactalg, "_digits_within", lambda v, bits, length, t: True)
    assert not run_checks(["laurent-ring-axioms"], Limits())
    monkeypatch.undo()
    # a packed multiply one byte narrower than its bound
    product = exactalg._packed_product
    monkeypatch.setattr(exactalg, "_packed_product", lambda a, b, bits: product(a, b, bits - 8))
    assert not run_checks(["laurent-ring-axioms"], Limits())
    monkeypatch.undo()
    # an exact_div that floors instead of raising on a remainder
    floored = lambda p, divisor: exactalg._from_dense([c // divisor for c in p._coeffs], p._lo)
    monkeypatch.setattr(LaurentPolynomial, "exact_div", floored)
    assert not run_checks(["laurent-ring-axioms"], Limits())
    monkeypatch.undo()
    # an addition that drops the top term of its second operand
    add = LaurentPolynomial.__add__
    dropped = lambda p, q: add(p, exactalg._from_dense(q._coeffs[:-1], q._lo))
    monkeypatch.setattr(LaurentPolynomial, "__add__", dropped)
    assert not run_checks(["laurent-ring-axioms"], Limits())
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL laurent-ring-axioms"
    ] * 7


# ---------------------------------------------------------------------------
# The dense storage form: every route that builds a polynomial leaves _lo
# the lowest exponent and _coeffs a tuple whose first and last entries are
# nonzero, or (0, ()) for zero.  The oracle is a dict model: a map from
# exponent to nonzero coefficient, with arithmetic done term by term.

models = st.dictionaries(st.integers(-8, 8), st.integers(-(2 ** 70), 2 ** 70).filter(bool), max_size=8)


def _assert_stored(p, model):
    """p is the polynomial of the dict model, in trimmed dense storage."""
    assert type(p._coeffs) is tuple
    if model:
        lo = min(model)
        assert p._lo == lo and p._coeffs == tuple(model.get(e, 0) for e in range(lo, max(model) + 1))
    else:
        assert (p._lo, p._coeffs) == (0, ())
    twin = LaurentPolynomial(model)
    assert p == twin and hash(p) == hash(twin) and p.sorted_terms() == tuple(sorted(model.items()))


def _model_sum(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _model_product(a, b):
    out = {}
    for e, c in a.items():
        out = _model_sum(out, {e + f: c * d for f, d in b.items()})
    return out


@given(models, st.integers(-6, 6), st.integers(1, 2 ** 70), st.integers(0, 4), st.integers(0, 4))
def test_every_construction_route_stores_trimmed(model, k, c, pad_lo, pad_hi):
    p = LaurentPolynomial(model)
    _assert_stored(p, model)
    # pairs that cancel below and above the model's span
    lo, hi = min(model, default=0), max(model, default=0)
    below, above = lo - 1 - pad_lo, hi + 1 + pad_hi
    pairs = [(below, c)] + list(model.items()) + [(above, -c), (below, -c), (above, c)]
    _assert_stored(LaurentPolynomial(pairs), model)
    dense = [model.get(e, 0) for e in range(lo, hi + 1)] if model else []
    _assert_stored(exactalg._from_dense([0] * pad_lo + dense + [0] * pad_hi, lo - pad_lo), model)
    _assert_stored(p.shifted(k), {e + k: v for e, v in model.items()})
    _assert_stored(p.scaled(k), {e: k * v for e, v in model.items()} if k else {})
    _assert_stored(p.scaled(0), {})
    _assert_stored(p + (-p), {})
    _assert_stored(LaurentPolynomial.from_json(p.to_json()), model)


@given(models, models, st.integers(2, 9), ks_lists)
def test_arithmetic_matches_the_dict_model(a, b, k, ks):
    p, q = LaurentPolynomial(a), LaurentPolynomial(b)
    _assert_stored(p + q, _model_sum(a, b))
    _assert_stored(p - q, _model_sum(a, {e: -c for e, c in b.items()}))
    _assert_stored(p * q, _model_product(a, b))
    assert p * q == _schoolbook_product(p, q)
    _assert_stored(p.scaled(k).exact_div(k), a)
    _assert_stored(p.exact_div(-1), {e: -c for e, c in a.items()})
    _assert_stored(one_minus_q_quotient(p * _binomial_product(ks), ks), a)


@given(st.integers(-50, 50), st.integers(0, 5), laurent_polys)
def test_zero_is_one_value_whatever_its_lowest_exponent(lo, length, p):
    zero = LaurentPolynomial()
    for z in (exactalg._from_dense([0] * length, lo), zero.shifted(lo), p - p, p.scaled(0),
              LaurentPolynomial([(lo, 1), (lo, -1)]), zero * p, one_minus_q_quotient(zero, [1, 2])):
        assert z == zero and hash(z) == hash(zero) and not z
        assert (z._lo, z._coeffs) == (0, ())
