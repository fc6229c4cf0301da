"""Highest-weight bookkeeping for torus characters of SL2 representations:
irreducible characters, decomposition into ascending (highest weight,
multiplicity) runs, exponents of fiber multiplicity spaces, tangent-space
characters and the odd-weight fixed point criterion, and the layered
factorization of the full fiber.
"""

from __future__ import annotations

from itertools import chain, repeat

from .exactalg import LaurentPolynomial, _from_dense
from .partitions import (
    Partition,
    dim_irrep,
    hook_lengths,
    require_listable,
    staircase,
    triangular_index,
)
from .symfun import isotypic_character


class NotACharacterError(ValueError):
    """Not a nonnegative integer combination of irreducible characters."""


def irreducible_character(m: int) -> LaurentPolynomial:
    """q^m + q^(m-2) + ... + q^(-m), the weight character of the
    irreducible of highest weight m."""
    if m < 0:
        raise ValueError("highest weight must be nonnegative")
    return _from_dense([1, 0] * m + [1], -m)


def decompose(p: LaurentPolynomial) -> tuple:
    """Decompose a palindromic integer Laurent polynomial into irreducible
    SL2 characters, as ascending (highest weight, multiplicity) runs with
    positive multiplicities.  V(v) has weight w >= 0 exactly when v - w is
    even and nonnegative, so the multiplicity of V(w) is c_w - c_(w+2), read
    in one upward pass.  Anything not palindromic, or with a negative
    multiplicity, is no character and raises."""
    if not p.is_palindromic():
        raise NotACharacterError("not an SL2 character: not palindromic")
    upper = p._coeffs[len(p._coeffs) // 2 :]  # the coefficients of weights 0, 1, ..., top
    runs = []
    for w, (c, above) in enumerate(zip(upper, upper[2:] + (0, 0))):
        c -= above
        if c < 0:
            raise NotACharacterError(f"not an SL2 character: multiplicity {c} at weight {w}")
        if c:
            runs.append((w, c))
    return tuple(runs)


def exponents(lam: Partition) -> tuple:
    """Exponents of lam: the multiset e with the lam-multiplicity space
    isomorphic to the direct sum of the irreducibles V(e_i), ascending,
    one entry per copy (see exponent_runs for the compact form)."""
    return tuple(chain.from_iterable(repeat(w, c) for w, c in exponent_runs(lam)))


def exponent_runs(lam: Partition) -> tuple:
    """The exponents of lam as ascending (value, multiplicity) pairs: the
    SL2 decomposition of its isotypic character, one run per value."""
    return decompose(isotypic_character(lam))


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def exponent_string(runs) -> str:
    """Compact multiset notation of (value, multiplicity) runs, e.g.
    ((0, 1), (1, 2), (2, 2), (4, 1)) -> "0,1²,2²,4"."""
    return ",".join(
        str(value) if count == 1 else f"{value}{str(count).translate(_SUPERSCRIPTS)}"
        for value, count in runs
    )


def tangent_character(lam: Partition) -> LaurentPolynomial:
    """Torus character of the tangent space at the fixed point labeled by
    lam: the sum of q^h + q^(-h) over the hook multiset."""
    hooks = hook_lengths(lam)
    top = max(hooks, default=0)
    coeffs = [0] * (2 * top + 1)
    for h in hooks:
        coeffs[top + h] += 1
        coeffs[top - h] += 1
    return _from_dense(coeffs, -top)


def weights_all_odd(p: LaurentPolynomial) -> bool:
    """True when every exponent carrying a nonzero coefficient is odd
    (vacuously true for the zero polynomial)."""
    return not any(p._coeffs[p._lo % 2 :: 2])


def sl2_fixed_set(n: int) -> set:
    """Partitions of n whose tangent character has only odd weights.

    The weights are plus and minus the hook lengths, and only a staircase
    has all hooks odd, so this is {staircase(m)} when
    triangular_index(n) is m and empty otherwise; n is refused as
    require_listable(n) says, like a scan over every partition of n.
    The check `odd-weight-fixed-points` keeps the tangent-weight route: it
    filters every partition through weights_all_odd(tangent_character(lam))
    and compares the result with this set.
    """
    require_listable(n)
    m = triangular_index(n)
    return set() if m is None else {staircase(m)}


def hook_layer_character(m: int) -> LaurentPolynomial:
    """Character contributed by one principal-hook layer of the staircase:
    (V(m-1) + V(m-2)) times the square of prod over i = 1..m-2 of
    (V(i) + V(i-1)), with V(-1) = 0.  Each factor V(i) + V(i-1) is the
    span q^(-i) + ... + q^i, all ones, and V(0) + V(-1) is 1."""
    if m < 1:
        raise ValueError("layer index must be at least 1")
    lead = _from_dense([1] * (2 * m - 1), 1 - m)
    half = _balanced_product([_from_dense([1] * (2 * i + 1), -i) for i in range(1, m - 1)])
    return lead * (half * half)


def layered_fiber_character(m: int) -> LaurentPolynomial:
    """Staircase fiber character assembled from principal-hook layers:
    dim times the product of hook_layer_character(k) for k = m, m-2, ...
    ending at 2 or 1 according to the parity of m."""
    if m < 1:
        raise ValueError("staircase index must be at least 1")
    layers = _balanced_product([hook_layer_character(k) for k in range(m, 0, -2)])
    return layers.scaled(dim_irrep(staircase(m)))


def _balanced_product(factors: list) -> LaurentPolynomial:
    """The product of factors, multiplied in pairs, then pairs of pairs, so
    that the operands of each product are of like size."""
    while len(factors) > 1:
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + factors[len(factors) // 2 * 2 :]
    return factors[0] if factors else LaurentPolynomial.one()
