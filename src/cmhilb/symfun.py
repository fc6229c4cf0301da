"""Symmetric-group characters and graded fiber characters.

Irreducible character values come from the Murnaghan-Nakayama rule in
two independent forms.  `character_table(n)` builds whole columns from
smaller tables: since p_mu = p_(mu_1) p_(mu_2, mu_3, ...), the column at mu
is the column of the size n - mu_1 table at (mu_2, mu_3, ...) with a border
strip of mu_1 cells added to each row, signed by (-1)^height.  Strip
additions are moves on beta sets, worked out once per (row, strip size)
within one build.  Each table is stored as index-addressed rows of ints,
and the smaller ones stay in `character_table`'s cache.  `mn_character`
removes strips from lam instead, with a memo local to each call, so no
memo keyed by (lam, mu) outlives it.

Graded multiplicities are Hall-pairing sums over conjugacy classes:
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


def _strip_removals(parts: tuple, k: int) -> list:
    """Partitions obtained by removing one border strip of k cells, with sign.

    Beta-set encoding b_i = parts_i + (len - 1 - i): a strip removal moves
    one entry down by k onto a free slot; the sign is (-1)^height where
    height counts the entries jumped over.
    """
    shifts = range(len(parts) - 1, -1, -1)
    beta = [p + s for p, s in zip(parts, shifts)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new = sorted([c for c in beta if c != b] + [nb], reverse=True)
        newparts = tuple([c - s for c, s in zip(new, shifts) if c > s])
        out.append((newparts, -1 if height % 2 else 1))
    return out


def _strip_additions(parts: tuple, k: int) -> list:
    """Partitions obtained by adding one border strip of k cells, with sign.

    The beta set is padded with k zero parts, since a strip of k cells adds
    at most k rows; an addition moves one entry up by k onto a free slot,
    and the sign is (-1)^height, height the number of entries jumped over.
    """
    shifts = range(len(parts) + k - 1, -1, -1)
    beta = [p + s for p, s in zip(parts, shifts)] + list(range(k - 1, -1, -1))
    bset = set(beta)
    out = []
    for b in beta:
        nb = b + k
        if nb in bset:
            continue
        height = sum(1 for c in beta if b < c < nb)
        new = sorted([c for c in beta if c != b] + [nb], reverse=True)
        newparts = tuple([c - s for c, s in zip(new, shifts) if c > s])
        out.append((newparts, -1 if height % 2 else 1))
    return out


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam(mu) by border-strip removal.

    Independent of CharacterTable, which adds strips instead; the memo
    lives for this one call.
    """
    if lam.size != mu.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size} but |{mu}| = {mu.size}")
    cycle = mu.parts
    memo = {}

    def mn(parts: tuple, i: int) -> int:
        if i == len(cycle):
            return 0 if parts else 1
        key = (parts, i)
        if key not in memo:
            memo[key] = sum(
                sign * mn(sub, i + 1) for sub, sign in _strip_removals(parts, cycle[i])
            )
        return memo[key]

    return mn(lam.parts, 0)


class CharacterTable:
    """All irreducible character values of one symmetric group, built once
    column by column from smaller tables.

    Row i holds chi^lam(mu) for lam the i-th entry of .partitions and mu
    running over .partitions in the same order.
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = tuple(enumerate_partitions(n, cap=max(n, DEFAULT_CAP)))
        self._index = {lam.parts: i for i, lam in enumerate(self.partitions)}
        if not n:
            self._rows = ((1,),)
            return
        additions = {}
        columns = [self._column(mu.parts, additions) for mu in self.partitions]
        self._rows = tuple(zip(*columns))

    def _column(self, mu: tuple, additions: dict) -> list:
        """chi^lam(mu) for every lam; `additions` memoises, per (k, row of
        the smaller table), the rows reached by adding a k-strip and their signs."""
        k = mu[0]
        sub = character_table(self.n - k)
        j = sub._index[mu[1:]]
        column = [0] * len(self.partitions)
        for r, row in enumerate(sub._rows):
            v = row[j]
            if not v:
                continue
            targets = additions.get((k, r))
            if targets is None:
                targets = additions[(k, r)] = [
                    (self._index[parts], sign)
                    for parts, sign in _strip_additions(sub.partitions[r].parts, k)
                ]
            for i, sign in targets:
                column[i] += sign * v
        return column

    def row(self, lam: Partition) -> tuple:
        """chi^lam(mu) for mu over .partitions, in order."""
        return self._rows[self._index[lam.parts]]

    def value(self, lam: Partition, mu: Partition) -> int:
        return self._rows[self._index[lam.parts]][self._index[mu.parts]]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """The table of size n; the smaller tables its columns are built from
    stay in this cache."""
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
    for mu, w, a, b in zip(table.partitions, _class_weights(n), table.row(lam), table.row(delta)):
        weight = a * b * w
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
