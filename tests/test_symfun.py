import random
from math import factorial

import pytest

from cmhilb import (
    LaurentPolynomial,
    NonPolynomialError,
    NonTriangularSizeError,
    Partition,
    centralizer_order,
    character_table,
    dim_irrep,
    enumerate_partitions,
    fake_degree,
    hook_polynomial,
    isotypic_character,
    mn_character,
    regular_fiber_character,
    staircase,
)
from cmhilb.exactalg import _unpack
from cmhilb.verify import CHECKS, Limits, run_checks
from cmhilb import symfun, verify


# ---------------------------------------------------------------------------
# Independent character oracle: expand the power sums p_mu over n variables,
# read off monomial coefficients, and invert the unitriangular Kostka matrix
# (computed by counting horizontal-strip fillings).  No border strips here.

def _horizontal_strips_below(shape, strip):
    rows = len(shape)

    def rec(i, remaining, acc):
        if i == rows:
            if remaining == 0:
                yield tuple(p for p in acc if p)
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        for kept in range(lo, shape[i] + 1):
            removed = shape[i] - kept
            if removed <= remaining:
                yield from rec(i + 1, remaining - removed, acc + [kept])

    yield from rec(0, strip, [])


def _kostka(shape, content):
    if not content:
        return 1 if not shape else 0
    total = 0
    for smaller in _horizontal_strips_below(shape, content[-1]):
        total += _kostka(smaller, content[:-1])
    return total


def _power_sum_monomials(mu, nvars):
    acc = {(0,) * nvars: 1}
    for part in mu:
        nxt = {}
        for expv, c in acc.items():
            for j in range(nvars):
                bumped = expv[:j] + (expv[j] + part,) + expv[j + 1:]
                nxt[bumped] = nxt.get(bumped, 0) + c
        acc = nxt
    return acc


def brute_character_table(n):
    """chi^lam(mu) for all lam, mu of size n, via Kostka inversion."""
    order = [lam.parts for lam in enumerate_partitions(n)]
    chi = {}
    for mu in order:
        expansion = _power_sum_monomials(mu, n)
        for j, nu in enumerate(order):
            target = nu + (0,) * (n - len(nu))
            val = expansion.get(target, 0)
            for i in range(j):
                val -= chi[(order[i], mu)] * _kostka(order[i], nu)
            chi[(nu, mu)] = val
    return chi


def _table_values(table):
    return {(lam.parts, mu.parts): table.value(lam, mu)
            for lam in table.partitions for mu in table.partitions}


@pytest.mark.parametrize("n", range(7))
def test_characters_match_kostka_inversion_oracle(n):
    expected = brute_character_table(n)
    assert _table_values(character_table(n)) == expected
    for (lam, mu), value in expected.items():
        assert mn_character(Partition(lam), Partition(mu)) == value


def test_character_table_matches_strip_removal():
    # column recursion (strip additions) against mn_character (strip removals)
    for n in range(13):
        table = character_table(n)
        for lam in table.partitions:
            row = table.row(lam)
            assert row == tuple(mn_character(lam, mu) for mu in table.partitions)


@pytest.mark.parametrize("n", [13, 17, 21])
def test_character_table_across_slot_widths(n):
    # the slot width steps up at these sizes (16 -> 24 -> 32 -> 40 bits), so
    # the blocks read from the smaller tables are widened first
    table = character_table(n)
    assert table.bits > character_table(n - 1).bits
    identity = Partition((1,) * n)
    assert all(table.value(lam, identity) == dim_irrep(lam) for lam in table.partitions)
    widest = max(table.partitions, key=dim_irrep)
    for lam in [widest, *random.Random(n).sample(table.partitions, 2)]:
        assert table.row(lam) == tuple(mn_character(lam, mu) for mu in table.partitions)


@pytest.fixture
def fresh_tables():
    character_table.cache_clear()
    symfun._isotypic_characters.cache_clear()
    yield
    character_table.cache_clear()
    symfun._isotypic_characters.cache_clear()


def _unsigned_strips(signed):
    """The strip adder with every (-1)^height sign taken as +1."""
    def unsigned(out, mask, k, v):
        reached = {}
        signed(reached, mask, k, 1)
        for target in reached:
            out[target] = out.get(target, 0) + v
    return unsigned


def test_wrong_strip_addition_sign_is_caught(monkeypatch, fresh_tables):
    # forgetting the (-1)^height sign must break the Kostka comparison and
    # the orthogonality check
    monkeypatch.setattr(symfun, "_add_strips", _unsigned_strips(symfun._add_strips))
    assert _table_values(character_table(4)) != brute_character_table(4)
    assert CHECKS["character-orthogonality"](Limits(max_n=4))


def test_too_narrow_slots_are_caught(monkeypatch, capsys, fresh_tables):
    # with the width bound patched down to 8-bit slots at every size, the
    # n = 9 rows cannot hold f^(4,3,1,1) = 216: the build must refuse them
    # rather than hand wrong values to the Kostka comparison, and the
    # orthogonality check must fail
    monkeypatch.setattr(symfun, "isqrt", lambda x: 1)
    assert _table_values(character_table(6)) == brute_character_table(6)
    with pytest.raises(OverflowError):
        character_table(9)
    assert not run_checks(["character-orthogonality"], Limits(max_n=9))
    assert capsys.readouterr().out.startswith("FAIL character-orthogonality")


def test_schur_expansion_check():
    assert CHECKS["schur-expansion"](Limits(max_n=15)) == []


def test_schur_expansion_check_catches_a_dropped_strip_sign(monkeypatch, capsys, fresh_tables):
    # the expansion adds strips and the check removes them, so a strip
    # addition that forgets its (-1)^height sign must fail the check, and
    # the isotypic characters built on it must break
    monkeypatch.setattr(symfun, "_add_strips", _unsigned_strips(symfun._add_strips))
    assert CHECKS["schur-expansion"](Limits(max_n=6))
    assert not run_checks(["isotypic-characters"], Limits(max_m=3))
    assert capsys.readouterr().out.startswith("FAIL isotypic-characters")


def test_mask_additions_invert_strip_removals():
    # adding a k-strip to rho reaches exactly the lam from which
    # _remove_strips takes a k-strip back to rho, with the same sign
    for n in range(1, 13):
        masks = [symfun._beta_mask(lam.parts, n) for lam in enumerate_partitions(n)]
        for k in range(1, n + 1):
            removed = {symfun._beta_mask(rho.parts, n - k): [] for rho in enumerate_partitions(n - k)}
            for mask in masks:
                for rho, sign in symfun._remove_strips(mask, k):
                    removed[rho].append((mask, sign))
            for rho, expected in removed.items():
                added = {}
                symfun._add_strips(added, rho, k, 1)
                assert sorted(added.items()) == sorted(expected)


def test_odd_class_check_catches_a_dropped_class(monkeypatch):
    # a class filter that loses one odd-part class must fail the check: the
    # expansion and its second route share the shortened classes, so only
    # the comparison with the table row sees it
    keep = symfun._odd_class
    monkeypatch.setattr(symfun, "_odd_class", lambda parts: keep(parts) and parts != (5, 5, 5))
    failures = CHECKS["schur-expansion"](Limits(max_n=15))
    assert failures and all(f.startswith("chi^(5,4,3,2,1) is ") and " on 5,5,5, " in f for f in failures)


def test_character_examples():
    for mu in enumerate_partitions(5):
        assert mn_character(Partition((5,)), mu) == 1
    assert mn_character(Partition((2, 1)), Partition((3,))) == -1
    for n in range(1, 7):
        sign = Partition((1,) * n)
        for mu in enumerate_partitions(n):
            assert mn_character(sign, mu) == (-1) ** (n - len(mu))


def test_s3_table_frozen():
    # rows lam, columns mu = (1,1,1), (2,1), (3); the standard rep is the
    # permutation action on three letters minus the trivial summand.
    expected = {
        (3,): (1, 1, 1),
        (2, 1): (2, 0, -1),
        (1, 1, 1): (1, -1, 1),
    }
    cols = [Partition((1, 1, 1)), Partition((2, 1)), Partition((3,))]
    for lam, row in expected.items():
        assert tuple(mn_character(Partition(lam), mu) for mu in cols) == row


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character(Partition((2, 1)), Partition((2,)))
    # the Hall pairing of two degrees is 0: the numerators against delta hold none for another size
    assert _numerator(Partition((2,)), Partition((1,))) == [0]


def test_centralizer_order():
    assert centralizer_order(Partition((1, 1, 1))) == 6
    assert centralizer_order(Partition((3,))) == 3
    assert centralizer_order(Partition((2, 1))) == 2
    for n in range(1, 8):
        classes = enumerate_partitions(n)
        assert sum(factorial(n) // centralizer_order(mu) for mu in classes) == factorial(n)


def test_orthogonality_small():
    # the S3 table against its class sizes 1, 3, 2: the rows are orthogonal, each of norm 3! = 6
    table, sizes = character_table(3), {(1, 1, 1): 1, (2, 1): 3, (3,): 2}
    for lam in table.partitions:
        for nu in table.partitions:
            total = sum(size * table.value(lam, Partition(mu)) * table.value(nu, Partition(mu))
                        for mu, size in sizes.items())
            assert total == (6 if lam == nu else 0)


def _numerator(lam, delta):
    """The coefficients of the Hall-pairing numerator N_lam against delta, lowest first."""
    numerators, bits, length = symfun._numerators(delta)
    return _unpack(numerators.get(symfun._beta_mask(lam.parts, delta.size), 0), bits, length)


def _hall_pairing(lam, delta):
    """The Hall pairing of s_lam with the plethystic image of s_delta, the graded multiplicity of lam in the
    module induced from delta, as an unreduced pair (num, den): the numerator from _numerators over n! H_delta(q).
    Each expected value a / b is checked as the cross-multiplied identity num * b == den * a."""
    num = LaurentPolynomial(enumerate(_numerator(lam, delta)))
    return num, hook_polynomial(delta).scaled(factorial(delta.size))


Q = LaurentPolynomial({1: 1})


def _one_minus_q(k):
    return LaurentPolynomial({0: 1, k: -1})


def test_graded_multiplicity_one_variable():
    num, den = _hall_pairing(Partition((1,)), Partition((1,)))
    assert num * _one_minus_q(1) == den


def test_graded_multiplicity_trivial_constant_term():
    for n in range(1, 7):
        lam = Partition((n,))
        num, den = _hall_pairing(lam, lam)
        constant = dict(den.sorted_terms())[0]
        assert constant == factorial(n)
        assert dict(num.sorted_terms())[0] == constant


def test_graded_multiplicity_mixed_pair():
    # hand value: chi^(3) is trivial, chi^(2,1) is (2, 0, -1) on the classes
    # (1,1,1), (2,1), (3) with centralizer orders 6, 2, 3, so the pairing is
    # 2/(6 (1-q)^3) - 1/(3 (1-q^3)) = q / ((1-q)^2 (1-q^3))
    num, den = _hall_pairing(Partition((3,)), Partition((2, 1)))
    assert num * _one_minus_q(1) ** 2 * _one_minus_q(3) == den * Q


def test_graded_multiplicity_symmetric():
    for n in (3, 4):
        for lam in enumerate_partitions(n):
            for delta in enumerate_partitions(n):
                num, den = _hall_pairing(lam, delta)
                num_t, den_t = _hall_pairing(delta, lam)
                assert num * den_t == num_t * den


def test_graded_multiplicity_two_one():
    num, den = _hall_pairing(Partition((2, 1)), Partition((2, 1)))
    assert num * _one_minus_q(1) ** 2 * _one_minus_q(3) == den * LaurentPolynomial({0: 1, 2: 1})
    # and through the character pipeline it lands on q + q^-1 exactly
    shift = hook_polynomial(Partition((2, 1))) * LaurentPolynomial({-1: 1})
    assert shift * num == LaurentPolynomial({1: 1, -1: 1}) * den


def test_packed_numerator_matches_laurent_sum():
    # N = sum over mu of chi^lam(mu) chi^delta(mu) (n!/z_mu) H_delta / prod_i (1 - q^(mu_i)),
    # checked with no division and no packing as N D = H_delta E, where
    # D = prod_k (1 - q^k)^floor(n/k) and E is the same sum with D in place of
    # H_delta, each D / prod_i (1 - q^(mu_i)) multiplied out binomial by
    # binomial; every coefficient of N must also fit the slots it was summed in
    for n in (4, 6):
        table = character_table(n)
        common = LaurentPolynomial.one()
        for k in range(1, n + 1):
            common = common * _one_minus_q(k) ** (n // k)
        for delta in (table.partitions[1], Partition((3, 2, 1)) if n == 6 else table.partitions[-2]):
            half = 1 << (symfun._numerators(delta)[1] - 1)
            for lam in table.partitions:
                expected = LaurentPolynomial()
                for mu in table.partitions:
                    exps = {k: n // k for k in range(1, n + 1)}
                    for part in mu.parts:
                        exps[part] -= 1
                    term = LaurentPolynomial.one()
                    for k, e in exps.items():
                        term = term * _one_minus_q(k) ** e
                    weight = table.value(lam, mu) * table.value(delta, mu) * factorial(n)
                    expected = expected + term.scaled(weight // centralizer_order(mu))
                num = _hall_pairing(lam, delta)[0]
                assert num * common == hook_polynomial(delta) * expected
                assert all(abs(c) < half for _, c in num.sorted_terms())


def test_isotypic_rejects_inexact_numerator(monkeypatch, fresh_tables):
    # A numerator that n! does not divide must trip the exactness alarm.
    expected = symfun._isotypic_characters.__wrapped__(2)
    numerators = symfun._numerators

    def off_by_one(delta):  # each numerator's constant term one more
        packed, bits, length = numerators(delta)
        return {mask: value + 1 for mask, value in packed.items()}, bits, length

    monkeypatch.setattr(symfun, "_numerators", off_by_one)
    with pytest.raises(NonPolynomialError):
        symfun._isotypic_characters.__wrapped__(2)
    monkeypatch.setattr(symfun, "_numerators", numerators)
    assert symfun._isotypic_characters.__wrapped__(2) == expected


def test_pairing_class_vectors_are_polynomials():
    # chi^delta(mu) != 0 forces prod_i (1 - q^(mu_i)) to divide H_delta; the
    # pairing checks that by one_minus_q_quotient for every such class of every delta,
    # and keeps exactly those classes
    for n in range(1, 9):
        table = character_table(n)
        for delta in table.partitions:
            weights = symfun._class_weights(delta)
            nonzero = [mu for mu in table.partitions if table.value(delta, mu)]
            assert [mu for mu, _, _ in weights] == nonzero
            length = hook_polynomial(delta).sorted_terms()[-1][0] - n + 1
            for mu, weight, coeffs in weights:
                assert weight * centralizer_order(mu) == table.value(delta, mu) * factorial(n)
                quotient = LaurentPolynomial(dict(enumerate(coeffs)))
                assert quotient * symfun.one_minus_q_product(mu.parts) == hook_polynomial(delta)
                assert len(coeffs) == length
    # and the classes where chi^delta vanishes need not divide: chi^(2,1)
    # vanishes at (2,1), and (1 - q^2)(1 - q) does not divide (1 - q^3)(1 - q)^2
    assert character_table(3).value(Partition((2, 1)), Partition((2, 1))) == 0
    with pytest.raises(NonPolynomialError):
        symfun.one_minus_q_quotient(hook_polynomial(Partition((2, 1))), [2, 1])


# ---------------------------------------------------------------------------
# Independent fake-degree oracle: sum q^maj over standard tableaux, where a
# descent is an entry whose successor sits strictly lower.

def _standard_tableaux_rowmaps(shape):
    n = sum(shape)
    if n == 0:
        yield {}
        return
    for r, width in enumerate(shape):
        if r + 1 < len(shape) and shape[r + 1] == width:
            continue
        smaller = tuple(p for p in shape[:r] + (width - 1,) + shape[r + 1:] if p)
        for rowmap in _standard_tableaux_rowmaps(smaller):
            out = dict(rowmap)
            out[n] = r
            yield out


def _maj_generating_polynomial(shape):
    terms = {}
    n = sum(shape)
    for rowmap in _standard_tableaux_rowmaps(shape):
        maj = sum(i for i in range(1, n) if rowmap[i + 1] > rowmap[i])
        terms[maj] = terms.get(maj, 0) + 1
    return LaurentPolynomial(terms)


@pytest.mark.parametrize("n", range(7))
def test_fake_degree_matches_maj_oracle(n):
    for lam in enumerate_partitions(n):
        assert fake_degree(lam) == _maj_generating_polynomial(lam.parts)


def test_fake_degree_examples():
    assert fake_degree(Partition((6,))) == LaurentPolynomial.one()
    assert fake_degree(Partition((2, 1))) == LaurentPolynomial({1: 1, 2: 1})
    for lam in enumerate_partitions(7):
        assert fake_degree(lam).coefficient_sum() == dim_irrep(lam)


def test_q_factorial():
    # (q)_n, the product of 1 - q^i over i = 1..n that fake_degree divides, is the hook polynomial of (n)
    assert hook_polynomial(Partition(())) == LaurentPolynomial.one()
    assert hook_polynomial(Partition((2,))) == LaurentPolynomial({0: 1, 1: -1}) * LaurentPolynomial(
        {0: 1, 2: -1}
    )
    for n in range(1, 8):
        assert fake_degree(Partition((n,))) == LaurentPolynomial.one()


@pytest.mark.parametrize("call", [lambda: regular_fiber_character(-1), lambda: staircase(-1)],
                         ids=["regular_fiber_character", "staircase"])
def test_negative_staircase_index_is_refused(call):
    with pytest.raises(ValueError, match="staircase index must be nonnegative"):
        call()


def test_regular_fiber_character_small():
    assert regular_fiber_character(1) == LaurentPolynomial.one()
    assert regular_fiber_character(2) == LaurentPolynomial({-1: 2, 0: 2, 1: 2})
    assert regular_fiber_character(3).coefficient_sum() == 720


def test_regular_fiber_character_palindromic():
    for m in range(1, 5):
        assert regular_fiber_character(m).is_palindromic()


def test_isotypic_character_examples():
    assert isotypic_character(Partition((6,))) == LaurentPolynomial.one()
    assert isotypic_character(Partition((3, 3))) == LaurentPolynomial(
        {3: 1, 1: 1, 0: 1, -1: 1, -3: 1}
    )
    assert isotypic_character(Partition((2, 1))) == LaurentPolynomial({1: 1, -1: 1})


def test_isotypic_rejects_non_triangular():
    with pytest.raises(NonTriangularSizeError):
        isotypic_character(Partition((4,)))


def test_isotypic_dimension_and_symmetry():
    assert CHECKS["isotypic-characters"](Limits(max_m=3)) == []


def test_fiber_decomposes_into_isotypic_pieces():
    # at m = 2 the pieces are 1, q^-1 + q and 1, of dimensions 1, 2 and 1
    pieces = {(3,): LaurentPolynomial.one(), (2, 1): LaurentPolynomial({-1: 1, 1: 1}),
              (1, 1, 1): LaurentPolynomial.one()}
    total = LaurentPolynomial()
    for parts, piece in pieces.items():
        assert isotypic_character(Partition(parts)) == piece
        total = total + piece.scaled(dim_irrep(Partition(parts)))
    assert total == regular_fiber_character(2) == LaurentPolynomial({-1: 2, 0: 2, 1: 2})


_HOOK, _HOOK_T = (5, 1), (2, 1, 1, 1, 1)  # a transpose pair at m = 3 with character V(1) + V(2)
_PAIR, _PAIR_T = (3, 3), (2, 2, 2)  # a transpose pair of no hooks at m = 3, also of dimension 5
_real_characters = symfun._isotypic_characters


@pytest.mark.parametrize("changed, wrong, message", [
    ({(2, 1): lambda chi: chi.shifted(1)}, None, "isotypic character of 2,1 is not an SL2 character: not palindromic"),
    ({_HOOK: lambda chi: LaurentPolynomial({-4: 1, -2: 1, 0: 1, 2: 1, 4: 1})}, None,
     "isotypic character changes under transpose at 5,1"),
    ({_HOOK: lambda chi: chi.scaled(2), _HOOK_T: lambda chi: chi.scaled(2)}, None,
     "isotypic character of 5,1 has the wrong dimension"),
    ({}, lambda m: LaurentPolynomial({0: 1}), "fiber dimension at m=3 is not 6!"),
    ({}, lambda m: LaurentPolynomial({0: -1, 1: 1}), "sum of dim * isotypic characters misses the fiber at m=3"),
    ({_HOOK: lambda chi: _real_characters(3)[_PAIR], _PAIR: lambda chi: _real_characters(3)[_HOOK],
      _HOOK_T: lambda chi: _real_characters(3)[_PAIR_T], _PAIR_T: lambda chi: _real_characters(3)[_HOOK_T]}, None,
     "isotypic character of 5,1 differs from its hook closed form"),
], ids=["not-palindromic", "not-transpose-invariant", "wrong-dimension", "fiber-extra-term", "fiber-moved-term",
        "hooks-swapped"])
def test_isotypic_check_catches_a_wrong_character(monkeypatch, changed, wrong, message):
    # each piece the one-pass check reads, changed at m = 2 or 3: a character
    # that is no SL2 character, V(4) in place of V(1) + V(2) (still a character
    # of dimension 5), a transpose pair at twice its dimension, and the fiber
    # with one term added or one moved to the next weight; then two transpose pairs of dimension 5, hooks and
    # no hooks, with their characters swapped, which keeps every property but the hooks' closed form
    real_chars, real_fiber = symfun._isotypic_characters, verify.regular_fiber_character

    def chars(m):
        out = dict(real_chars(m))
        for parts, change in changed.items():
            if parts in out:
                out[parts] = change(out[parts])
        return out

    monkeypatch.setattr(symfun, "_isotypic_characters", chars)
    if wrong:
        monkeypatch.setattr(verify, "regular_fiber_character",
                            lambda m: real_fiber(m) + wrong(m) if m == 3 else real_fiber(m))
    assert message in CHECKS["isotypic-characters"](Limits(max_m=3))


def test_fake_degree_check_sums_to_the_coinvariant_series(monkeypatch):
    # the quotient without its q^(n(lam)) shift keeps nonnegative coefficients,
    # exponents and dimension, so only the sum over lam against prod [i]_q sees it
    q_factorial = lambda n: symfun.one_minus_q_product(range(1, n + 1))
    unshifted = lambda lam: symfun.one_minus_q_quotient(q_factorial(lam.size), symfun.hook_lengths(lam))
    monkeypatch.setattr(verify, "fake_degree", unshifted)
    bad = CHECKS["fake-degree"](Limits())
    assert bad and all(line.startswith("fake degrees of size") for line in bad)
