"""Symmetric-group characters and graded fiber characters.

Irreducible character values come from the border-strip recursion on beta
sets.  Graded multiplicities are Hall-pairing sums over conjugacy classes:
under the substitution that sends each power sum p_k to p_k / (1 - q^k),
the pairing of Schur functions becomes

    sum over mu of chi^lam(mu) chi^delta(mu) / (z_mu prod_i (1 - q^(mu_i))).

The sum is assembled as an integer numerator over the common denominator
n! prod_k (1-q^k)^floor(n/k).  Every quotient taken from it is exact, so
each one is a single exact division, and any inexactness upstream trips
NonPolynomialError instead of passing silently.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .exactalg import LaurentPolynomial, one_minus_q_product
from .partitions import (
    DEFAULT_CAP,
    Partition,
    dim_irrep,
    enumerate_partitions,
    hook_lengths,
    hook_polynomial,
    n_stat,
    staircase,
    triangular_index,
)


class NonTriangularSizeError(ValueError):
    """The partition size is not of the form m(m+1)/2."""


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod over part values k of k^(m_k) * m_k!."""
    counts = {}
    for p in mu.parts:
        counts[p] = counts.get(p, 0) + 1
    z = 1
    for k, m in counts.items():
        z *= k ** m * factorial(m)
    return z


@lru_cache(maxsize=None)
def _strip_removals(parts: tuple, k: int) -> tuple:
    """Partitions obtained by removing one border strip of k cells, with sign.

    Beta-set encoding b_i = parts_i + (len - 1 - i): a strip removal moves
    one entry down by k onto a free slot; the sign is (-1)^height where
    height counts the entries jumped over.
    """
    ell = len(parts)
    beta = [parts[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new = sorted((c for c in beta if c != b), reverse=True) + [nb]
        new.sort(reverse=True)
        newparts = tuple(
            p for p in (new[j] - (ell - 1 - j) for j in range(ell)) if p
        )
        out.append((newparts, -1 if height % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    total = 0
    for sub, sign in _strip_removals(lam, k):
        total += sign * _mn(sub, rest)
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam(mu) by border-strip recursion."""
    if lam.size != mu.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size} but |{mu}| = {mu.size}")
    return _mn(lam.parts, mu.parts)


class CharacterTable:
    """All irreducible character values of one symmetric group, built once."""

    def __init__(self, n: int):
        self.n = n
        self.partitions = tuple(enumerate_partitions(n, cap=max(n, DEFAULT_CAP)))
        self._values = {
            (lam.parts, mu.parts): _mn(lam.parts, mu.parts)
            for lam in self.partitions
            for mu in self.partitions
        }

    def value(self, lam: Partition, mu: Partition) -> int:
        return self._values[(lam.parts, mu.parts)]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    return CharacterTable(n)


def q_factorial(n: int) -> LaurentPolynomial:
    """(q)_n = prod over i = 1..n of (1 - q^i)."""
    return one_minus_q_product(range(1, n + 1))


@lru_cache(maxsize=None)
def _common_denominator(n: int) -> LaurentPolynomial:
    """prod_k (1-q^k)^floor(n/k); every class product for size n divides it."""
    return one_minus_q_product(k for k in range(1, n + 1) for _ in range(n // k))


@lru_cache(maxsize=None)
def _class_quotient_terms(n: int, mu_parts: tuple) -> tuple:
    """Terms of _common_denominator(n) / prod_i (1 - q^(mu_i))."""
    return _common_denominator(n).exact_div(one_minus_q_product(mu_parts)).sorted_terms()


@lru_cache(maxsize=None)
def _class_weights(n: int) -> tuple:
    """n! / z_mu for each mu in the order of character_table(n).partitions."""
    nfact = factorial(n)
    return tuple(nfact // centralizer_order(mu) for mu in character_table(n).partitions)


def _pairing_numerator(lam: Partition, delta: Partition) -> LaurentPolynomial:
    """N = sum over mu of chi^lam(mu) chi^delta(mu) (n!/z_mu) D / prod_i (1 - q^(mu_i)),
    D = _common_denominator(n); the Hall pairing is N / (n! D)."""
    n = lam.size
    table = character_table(n)
    acc = {}
    for mu, w in zip(table.partitions, _class_weights(n)):
        weight = table.value(lam, mu) * table.value(delta, mu) * w
        if not weight:
            continue
        for e, c in _class_quotient_terms(n, mu.parts):
            acc[e] = acc.get(e, 0) + weight * c
    return LaurentPolynomial(acc)


def graded_multiplicity(lam: Partition, delta: Partition) -> tuple:
    """Hall pairing of s_lam with the plethystic image of s_delta, as an
    unreduced integer pair (numerator, denominator) of Laurent polynomials
    whose quotient is the pairing; the denominator is n! prod_k (1-q^k)^floor(n/k).

    This is the graded multiplicity of the irreducible labeled by lam in
    the polynomial-ring module induced from the one labeled by delta.
    """
    if lam.size != delta.size:
        raise ValueError(
            f"size mismatch: |{lam}| = {lam.size} but |{delta}| = {delta.size}"
        )
    n = lam.size
    return _pairing_numerator(lam, delta), _common_denominator(n).scaled(factorial(n))


def fake_degree(lam: Partition) -> LaurentPolynomial:
    """Graded multiplicity of the lam-irreducible in the coinvariant ring:
    (q)_n * q^(n(lam)) / H_lam(q), an exact polynomial division."""
    num = q_factorial(lam.size) * LaurentPolynomial.monomial(n_stat(lam))
    return num.exact_div(hook_polynomial(lam))


@lru_cache(maxsize=None)
def regular_fiber_character(m: int) -> LaurentPolynomial:
    """Graded character of the rank-n! fiber at the staircase fixed point:
    q^(-n(delta)) * H_delta(q) / (1-q)^n * dim(delta), delta the staircase."""
    if m < 0:
        raise ValueError("staircase index must be nonnegative")
    delta = staircase(m)
    n = delta.size
    top = hook_polynomial(delta) * LaurentPolynomial.monomial(
        -n_stat(delta), dim_irrep(delta)
    )
    return top.exact_div(one_minus_q_product((1,) * n))


@lru_cache(maxsize=None)
def _staircase_cofactor(m: int) -> LaurentPolynomial:
    """D / H_delta for the staircase delta of index m, D the common
    denominator of its size: the hooks of delta are odd and each length h
    occurs at most floor(n/h) times, so H_delta divides D factor by factor
    and the quotient is the product of the remaining (1 - q^k)."""
    n = m * (m + 1) // 2
    exps = {k: n // k for k in range(1, n + 1)}
    for h in hook_lengths(staircase(m)):
        exps[h] -= 1
    return one_minus_q_product(k for k, e in exps.items() for _ in range(e))


@lru_cache(maxsize=None)
def isotypic_character(lam: Partition) -> LaurentPolynomial:
    """Torus character of the multiplicity space attached to lam inside the
    staircase fiber; palindromic with nonnegative integer coefficients.

    It is q^(-n(delta)) H_delta(q) times the Hall pairing N / (n! D), that
    is q^(-n(delta)) N / (n! D/H_delta), both divisions exact.  Only
    triangular sizes carry such a fiber, so any other size is rejected
    rather than approximated.
    """
    m = triangular_index(lam.size)
    if m is None:
        raise NonTriangularSizeError(
            f"|{lam}| = {lam.size} is not a triangular number"
        )
    delta = staircase(m)
    num = _pairing_numerator(lam, delta).exact_div(_staircase_cofactor(m))
    return num.exact_div(factorial(lam.size)).shifted(-n_stat(delta))
