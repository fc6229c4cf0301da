"""Symmetric-group characters and graded fiber characters.

Irreducible character values come from the Murnaghan-Nakayama rule in
two independent forms, both on beta masks (beta sets padded to n entries
as int bits): strip additions build tables and expansions, and strip
removals give single values and chi^delta.  `character_table(n)` builds
its rows from smaller tables: p_mu = p_(mu_1) p_(mu_2, ...), so on the
classes of largest part k a row is the signed sum of the size n - k rows
from which a k-strip addition reaches it.  A strip addition pads by k and
moves a set bit b up to a clear bit b + k; a removal moves b down to a
clear b - k and drops k padding entries; each reads its height from the
bits in between.  A row is one byte string of fixed-width slots, so a
smaller row is added over a block of classes as one big int; the smaller
tables stay cached.  `mn_character` keeps its memo for one call only.

Graded multiplicities are Hall-pairing sums over conjugacy classes:
under the substitution that sends each power sum p_k to p_k / (1 - q^k),
the pairing of s_lam with the image of s_delta is N_lam / (n! H_delta),
H_delta the hook polynomial of delta, where N_lam = sum over mu of
chi^lam(mu) W_mu and W_mu = chi^delta(mu) (n!/z_mu) H_delta / prod_i (1 - q^(mu_i)),
a polynomial packed as one int (see _class_weights and exactalg).  No
table is read: the N_lam of every lam are the Schur coefficients of
F = sum over mu of W_mu p_mu.  Grouping the classes by their largest part
k gives F = sum over k of p_k F_k; each F_k is expanded the same way over
the partitions of n - k, and p_k adds a signed k-strip to each of its
rows by the table build's bit moves.  Column orthogonality,
sum over lam of chi^lam(nu)^2 = z_nu, gives |chi^lam(nu)| <= sqrt(z_nu),
and dropping the largest part of a class never raises z, so the slots
hold sum over mu of sqrt(z_mu) ||W_mu||_inf, a bound on every vector the
expansion forms.  chi^delta comes from one strip-removal pass over the
classes with one memo shared by all of them.  A staircase delta is a
2-core: no strip of even length can be removed from it, so chi^delta
vanishes on every class with an even part, and those are skipped.

Every quotient taken is exact, so each one is a single exact division,
and any inexactness upstream trips NonPolynomialError instead of passing
silently.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import groupby
from math import factorial, isqrt

from .exactalg import (
    LaurentPolynomial, _bias, _from_dense, _pack, _slot_bits, _spread, _unpack,
    one_minus_q_product, one_minus_q_quotient,
)
from .partitions import (
    Partition, all_hooks_odd, dim_irrep, enumerate_partitions, hook_lengths, hook_polynomial, n_stat, staircase,
    triangular_index,
)


class NonTriangularSizeError(ValueError):
    """The partition size is not of the form m(m+1)/2."""


def centralizer_order(mu: Partition) -> int:
    """z_mu = prod over part values k of k^(m_k) * m_k!."""
    z = 1
    for k, m in Counter(mu.parts).items():
        z *= k ** m * factorial(m)
    return z


def _beta_mask(parts: tuple, n: int) -> int:
    """The beta set of a partition of at most n parts, padded to n entries,
    as an int bit mask: bit parts_i + n - i is set for i = 1..n, the parts
    padded with zeros, so the n - len(parts) padding entries are the low bits."""
    mask = (1 << (n - len(parts))) - 1
    for i, p in enumerate(parts, 1):
        mask |= 1 << (p + n - i)
    return mask


def _add_strips(out: dict, mask: int, k: int, v: int) -> None:
    """Adds (-1)^height v to out[target] for every border strip of k cells
    added to the partition whose beta mask, padded to its size, is `mask`;
    out maps target beta masks to coefficients.

    Padding with k more entries shifts the mask up by k and sets the k low
    bits; a strip addition moves one set bit b up to a clear bit b + k, and
    its height is the number of set bits strictly between.
    """
    padded = (mask << k) | ((1 << k) - 1)
    between = (1 << (k - 1)) - 1
    movable = padded & ~(padded >> k)
    while movable:
        low = movable & -movable
        movable ^= low
        target = padded ^ low ^ (low << k)
        if (padded >> low.bit_length() & between).bit_count() & 1:
            out[target] = out.get(target, 0) - v
        else:
            out[target] = out.get(target, 0) + v


def _remove_strips(mask: int, k: int):
    """The mirror of _add_strips: yields (target, sign) for every border
    strip of k cells removed from the partition whose beta mask, padded to
    its size, is `mask`.  A set bit b moves down to a clear bit b - k, the
    sign is (-1)^(set bits strictly between), and k set padding bits drop."""
    between = (1 << (k - 1)) - 1
    movable = (mask >> k) & ~mask
    while movable:
        low = movable & -movable
        movable ^= low
        sign = -1 if (mask >> low.bit_length() & between).bit_count() & 1 else 1
        yield (mask ^ low ^ (low << k)) >> k, sign


def _mn():
    """chi(cycle) by border-strip removal, as a function of a beta mask
    padded to its size and a parts tuple, whose memo lives as long as it."""
    memo = {(0, ()): 1}  # the one character of S_0

    def mn(mask: int, cycle: tuple) -> int:
        key = (mask, cycle)
        value = memo.get(key)
        if value is None:
            rest = cycle[1:]
            value = memo[key] = sum(sign * mn(sub, rest) for sub, sign in _remove_strips(mask, cycle[0]))
        return value

    return mn


def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam(mu) by border-strip removal,
    independent of CharacterTable, which adds strips instead; the memo
    lives for this one call."""
    if lam.size != mu.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size} but |{mu}| = {mu.size}")
    return _mn()(_beta_mask(lam.parts, lam.size), mu.parts)


def _odd_class(parts: tuple) -> bool:
    """Every part is odd: the classes a pairing against a 2-core visits."""
    return all(p & 1 for p in parts)


class CharacterTable:
    """Irreducible character values of one symmetric group, built once
    from smaller tables, one largest part at a time.

    Rows and columns both run over .partitions, so both are found by parts
    in one index; the build addresses rows by beta mask.  Each row is one
    bytearray in the byte layout of exactalg._pack: chi^lam(mu) +
    2^(bits-1) for each mu, bits/8 little-endian bytes, where
    |chi^lam(mu)| <= f^lam <= sqrt(n!) bounds every value.
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = tuple(enumerate_partitions(n))
        self.bits = _slot_bits(isqrt(factorial(n)))
        self._bias = _bias(self.bits, len(self.partitions))
        self._masks = [_beta_mask(lam.parts, n) for lam in self.partitions]
        self._index = {mask: i for i, mask in enumerate(self._masks)}
        self._class_index = {mu.parts: j for j, mu in enumerate(self.partitions)}
        # every slot starts at 0; the one character of S_0 is 1
        blank = (self._bias + (n == 0)).to_bytes(self.bits // 8 * len(self.partitions), "little")
        self._rows = [bytearray(blank) for _ in self.partitions]
        for k in range(n, 0, -1):
            self._add_block(k)

    def _add_block(self, k: int):
        """Fills every row over the classes (k, rho), rho with no part above
        k: the rho are the size n - k table's classes from (k, ..., k, r) on,
        so each sub-row's suffix is one int, widened first if its slots are
        narrower, added to or subtracted from each row a k-strip reaches."""
        sub = character_table(self.n - k)
        q, r = divmod(self.n - k, k)
        first = (k,) * q + (r,) * (r > 0)
        start, offset = sub._class_index[first], self._class_index[(k,) + first]
        narrow, size, count = sub.bits // 8, self.bits // 8, len(sub.partitions) - start
        bias = _bias(self.bits, count)
        sub_bias = bias >> (self.bits - sub.bits)  # 2^(sub.bits-1) in each of the count slots
        sums = {}
        for mask, row in zip(sub._masks, sub._rows):
            raw = row[start * narrow :]
            if size > narrow:
                raw = _spread(raw, narrow, size)
            value = int.from_bytes(raw, "little") - sub_bias
            if value:
                _add_strips(sums, mask, k, value)
        span = slice(offset * size, (offset + count) * size)
        for mask, value in sums.items():
            if value:
                self._rows[self._index[mask]][span] = (value + bias).to_bytes(count * size, "little")

    def row(self, lam: Partition) -> tuple:
        """chi^lam(mu) for mu over .partitions, in order."""
        raw = self._rows[self._class_index[lam.parts]]
        return tuple(_unpack(int.from_bytes(raw, "little") - self._bias, self.bits, len(self._rows)))

    def value(self, lam: Partition, mu: Partition) -> int:
        size = self.bits // 8
        j = self._class_index[mu.parts] * size
        return int.from_bytes(self._rows[self._class_index[lam.parts]][j : j + size], "little") - (1 << (self.bits - 1))


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """The full table of size n; the smaller tables its rows are built
    from stay in this cache."""
    return CharacterTable(n)


def _class_weights(delta: Partition) -> list:
    """(mu, w_mu, W_mu) for every class mu with chi^delta(mu) != 0, in
    reverse lexicographic order: w_mu = chi^delta(mu) n!/z_mu, and W_mu the
    coefficients of H_delta / prod_i (1 - q^(mu_i)), lowest first.

    That quotient is a polynomial: with the parts of mu divisible by d taken
    first, each removes a rim hook that lowers the d-weight of delta, and
    H_delta holds one cyclotomic factor Phi_d per unit of d-weight (the
    p-core argument; James-Kerber 1981).  one_minus_q_quotient checks it."""
    classes = enumerate_partitions(delta.size)
    if all_hooks_odd(delta):
        classes = [mu for mu in classes if _odd_class(mu.parts)]
    hooks, nfact, mn = hook_polynomial(delta), factorial(delta.size), _mn()
    mask = _beta_mask(delta.parts, delta.size)
    return [
        (mu, chi * (nfact // centralizer_order(mu)), one_minus_q_quotient(hooks, mu.parts)._coeffs)
        for mu in classes
        if (chi := mn(mask, mu.parts))
    ]


def _schur_expansion(terms: list) -> dict:
    """{beta mask: coefficient} of the Schur expansion of the sum of w p_mu
    over (mu, w) in terms, all mu of one size, in reverse lexicographic
    order: the classes of largest part k are p_k times the expansion of
    their remaining parts, and p_k s_rho is the signed sum of the s_lam
    that a k-strip added to rho reaches."""
    if not terms[0][0]:
        return {0: terms[0][1]}
    out = {}
    for k, group in groupby(terms, key=lambda term: term[0][0]):
        for mask, v in _schur_expansion([(mu[1:], w) for mu, w in group]).items():
            _add_strips(out, mask, k, v)
    return out


def _numerators(delta: Partition) -> tuple:
    """(packed, bits, length): the Hall-pairing numerators N_lam against
    delta for every lam of its size, from one Schur expansion; packed maps
    each beta mask to N_lam packed at bits over length slots, which
    _unpack(packed.get(mask, 0), bits, length) reads lowest first."""
    weights = _class_weights(delta)
    bound = sum((isqrt(centralizer_order(mu)) + 1) * abs(w) * max(map(abs, W)) for mu, w, W in weights)
    bits = _slot_bits(bound)
    packed = _schur_expansion([(mu.parts, w * _pack(W, bits)) for mu, w, W in weights])
    return packed, bits, len(weights[0][2])


def fake_degree(lam: Partition) -> LaurentPolynomial:
    """Graded multiplicity of the lam-irreducible in the coinvariant ring:
    (q)_n * q^(n(lam)) / H_lam(q), (q)_n the product of 1 - q^i over
    i = 1..n, an exact division by the factors 1 - q^h of H_lam (Macdonald
    I.3 Ex. 2)."""
    q_factorial = one_minus_q_product(range(1, lam.size + 1))
    return one_minus_q_quotient(q_factorial, hook_lengths(lam)).shifted(n_stat(lam))


def regular_fiber_character(m: int) -> LaurentPolynomial:
    """Graded character of the rank-n! fiber at the staircase fixed point:
    q^(-n(delta)) * H_delta(q) / (1-q)^n * dim(delta), delta the staircase;
    staircase(m) refuses m < 0."""
    delta = staircase(m)
    quotient = one_minus_q_quotient(hook_polynomial(delta), [1] * delta.size)
    return quotient.scaled(dim_irrep(delta)).shifted(-n_stat(delta))


@lru_cache(maxsize=None)
def _isotypic_characters(m: int) -> dict:
    """{lam.parts: isotypic_character(lam)} for every lam of size
    m(m+1)/2, in partition order, from one expansion; equal numerators,
    as those of a transpose pair are, share one character object."""
    delta = staircase(m)
    numerators, bits, length = _numerators(delta)
    nfact, shift = factorial(delta.size), -n_stat(delta)
    chars, shared = {}, {}
    for lam in enumerate_partitions(delta.size):
        packed = numerators.get(_beta_mask(lam.parts, delta.size), 0)
        if packed not in shared:
            shared[packed] = _from_dense(_unpack(packed, bits, length), shift).exact_div(nfact)
        chars[lam.parts] = shared[packed]
    return chars


def isotypic_character(lam: Partition) -> LaurentPolynomial:
    """Torus character of the multiplicity space attached to lam inside the
    staircase fiber; palindromic with nonnegative integer coefficients.

    It is q^(-n(delta)) H_delta(q) times the Hall pairing N / (n! H_delta),
    that is q^(-n(delta)) N / n!, read off the one expansion of its size.
    Only triangular sizes carry such a fiber, so any other size is rejected
    rather than approximated.
    """
    m = triangular_index(lam.size)
    if m is None:
        raise NonTriangularSizeError(f"|{lam}| = {lam.size} is not a triangular number")
    return _isotypic_characters(m)[lam.parts]
