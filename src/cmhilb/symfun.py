"""Symmetric-group characters and graded fiber characters.

Irreducible character values come from the Murnaghan-Nakayama rule in
two independent forms.  `character_table(n)` builds whole columns from
smaller tables: since p_mu = p_(mu_1) p_(mu_2, mu_3, ...), the column at mu
is the column of the size n - mu_1 table at (mu_2, mu_3, ...) with a border
strip of mu_1 cells added to each row, signed by (-1)^height.  Each
partition of n is held as its beta set padded to n entries, one int bit
mask, and rows are addressed by it, so a strip addition is a few int
operations: pad by k, move a set bit b to a clear bit b + k, and take the
height from the bit count in between.  The rows each addition reaches
are worked out once per (row, strip size) within one build, split into
those reached with sign +1 and with -1.  Each table is stored as columns
of ints, and the smaller ones stay in `character_table`'s cache.

`odd_class_table(n)` is the same build restricted to the classes whose
parts are all odd, and the recursion stays inside them.  It is all a
Hall pairing against a 2-core delta (a staircase) needs: such a delta has
no hook of even length, so chi^delta vanishes on every class with an even
part.  At n = 21 it is 792 x 76 entries, built in under 0.1 s, against
792 x 792 in about 0.33 s for the full table (2-core box, Python 3.11.7).

`mn_character` removes strips from lam instead, with a memo local to each
call, so no memo keyed by (lam, mu) outlives it.

Graded multiplicities are Hall-pairing sums over conjugacy classes:
under the substitution that sends each power sum p_k to p_k / (1 - q^k),
the pairing of Schur functions becomes

    sum over mu of chi^lam(mu) chi^delta(mu) / (z_mu prod_i (1 - q^(mu_i))).

The sum is assembled as an integer numerator over n! H_delta(q), H_delta
the hook polynomial of delta: every class product with chi^delta(mu) != 0
divides H_delta (see _PackedPairing).  Each class term is packed as one
int (see exactalg), so a numerator is one small-int times big-int sum.
Every quotient taken is exact, so each one is a single exact division,
and any inexactness upstream trips NonPolynomialError instead of passing
silently.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .exactalg import (
    LaurentPolynomial,
    _dense,
    _from_dense,
    _pack,
    _slot_bits,
    _unpack,
    one_minus_q_product,
    q_integer_product,
)
from .partitions import (
    Partition,
    all_hooks_odd,
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


def _beta_mask(parts: tuple, n: int) -> int:
    """The beta set of a partition of at most n parts, padded to n entries,
    as an int bit mask: bit parts_i + n - i is set for i = 1..n, the parts
    padded with zeros, so the n - len(parts) padding entries are the low bits."""
    mask = (1 << (n - len(parts))) - 1
    for i, p in enumerate(parts, 1):
        mask |= 1 << (p + n - i)
    return mask


def _mask_strip_additions(mask: int, k: int) -> list:
    """(target mask, sign) for every border strip of k cells added to the
    partition whose beta mask, padded to its size, is `mask`.

    Padding with k more entries shifts the mask up by k and sets the k low
    bits; a strip addition moves one set bit b up to a clear bit b + k, and
    its sign is (-1)^height, the height being the set bits strictly between.
    """
    padded = (mask << k) | ((1 << k) - 1)
    between = (1 << (k - 1)) - 1
    movable = padded & ~(padded >> k)
    out = []
    while movable:
        low = movable & -movable
        movable ^= low
        height = (padded >> low.bit_length() & between).bit_count()
        out.append((padded ^ low ^ (low << k), -1 if height & 1 else 1))
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


def _odd_class(parts: tuple) -> bool:
    """The column filter of an odd-class table: every part is odd."""
    return all(p & 1 for p in parts)


class CharacterTable:
    """Irreducible character values of one symmetric group, built once
    column by column from smaller tables.

    Rows run over .partitions and are addressed by beta mask; columns run
    over .classes, which is .partitions for a full table and only the
    classes whose parts are all odd for an odd-class table.  Dropping the
    first part of an odd-part class leaves one, so an odd-class table is
    built from odd-class tables alone.
    """

    def __init__(self, n: int, odd: bool = False):
        self.n = n
        self.odd = odd
        self.partitions = tuple(enumerate_partitions(n))
        self.classes = tuple(mu for mu in self.partitions if _odd_class(mu.parts)) if odd else self.partitions
        self._masks = [_beta_mask(lam.parts, n) for lam in self.partitions]
        self._index = {mask: i for i, mask in enumerate(self._masks)}
        self._class_index = {mu.parts: j for j, mu in enumerate(self.classes)}
        if not n:
            self._columns = [[1]]
            return
        additions = {}
        self._columns = [self._column(mu.parts, additions) for mu in self.classes]

    def _column(self, mu: tuple, additions: dict) -> list:
        """chi^lam(mu) for every lam: the smaller table's column at mu[1:]
        with a mu[0]-strip added to each row.  `additions` memoises, per
        (k, row of the smaller table), the rows a k-strip reaches, split
        into those reached with sign +1 and with sign -1."""
        k = mu[0]
        sub = odd_class_table(self.n - k) if self.odd else character_table(self.n - k)
        column = [0] * len(self.partitions)
        for r, v in enumerate(sub._columns[sub._class_index[mu[1:]]]):
            if not v:
                continue
            targets = additions.get((k, r))
            if targets is None:
                plus, minus = [], []
                for mask, sign in _mask_strip_additions(sub._masks[r], k):
                    (plus if sign > 0 else minus).append(self._index[mask])
                targets = additions[(k, r)] = plus, minus
            for i in targets[0]:
                column[i] += v
            for i in targets[1]:
                column[i] -= v
        return column

    def row_index(self, lam: Partition) -> int:
        """Position of lam in .partitions, found by its beta mask."""
        return self._index[_beta_mask(lam.parts, self.n)]

    def column(self, mu: Partition) -> list:
        """chi^lam(mu) for lam over .partitions, in order; not to be modified."""
        return self._columns[self._class_index[mu.parts]]

    def row(self, lam: Partition) -> tuple:
        """chi^lam(mu) for mu over .classes, in order."""
        i = self.row_index(lam)
        return tuple(column[i] for column in self._columns)

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.column(mu)[self.row_index(lam)]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """The full table of size n; the smaller tables its columns are built
    from stay in this cache."""
    return CharacterTable(n)


@lru_cache(maxsize=None)
def odd_class_table(n: int) -> CharacterTable:
    """The table of size n on the classes whose parts are all odd, built
    from smaller odd-class tables only, which stay in this cache."""
    return CharacterTable(n, odd=True)


def _pairing_table(delta: Partition) -> CharacterTable:
    """The table a Hall pairing against delta reads.  When delta is a 2-core
    (every hook odd, i.e. a staircase) no border strip of even length can
    be removed from it, so by Murnaghan-Nakayama chi^delta vanishes on every
    class with an even part and the odd-class table holds every term."""
    return odd_class_table(delta.size) if all_hooks_odd(delta) else character_table(delta.size)


def q_factorial(n: int) -> LaurentPolynomial:
    """(q)_n = prod over i = 1..n of (1 - q^i)."""
    return one_minus_q_product(range(1, n + 1))


class _PackedPairing:
    """Hall-pairing numerators against one delta for every lam of its size,
    as sums of Kronecker-packed class vectors.

    N_lam = sum over mu of chi^lam(mu) W_mu, where W_mu is
    chi^delta(mu) (n!/z_mu) H_delta / prod_i (1 - q^(mu_i)) packed as one
    int.  Only the classes with chi^delta(mu) != 0 carry one, and for those
    the quotient is a polynomial: with the parts of mu divisible by d taken
    first, each removes a rim hook that lowers the d-weight of delta, and
    H_delta holds one cyclotomic factor Phi_d per unit of d-weight (the
    p-core argument; James-Kerber 1981).  exact_div checks it for
    every class rather than assuming it.  The table read is the odd-class
    one when delta is a 2-core.  Every coefficient of every N_lam is at most
    sum over mu of max_lam |chi^lam(mu)| |W_mu|_inf in size, and the slots
    hold that.
    """

    def __init__(self, delta: Partition):
        n = delta.size
        self.table = table = _pairing_table(delta)
        hooks = hook_polynomial(delta)
        self.length = hooks.max_exponent() - n + 1
        d, nfact = table.row_index(delta), factorial(n)
        classes, bound = [], 0
        for mu, column in zip(table.classes, table._columns):
            if column[d]:
                weight = column[d] * (nfact // centralizer_order(mu))
                coeffs = _dense(hooks.exact_div(one_minus_q_product(mu.parts)))
                bound += max(map(abs, column)) * abs(weight) * max(map(abs, coeffs))
                classes.append((column, weight, coeffs))
        self.bits = _slot_bits(bound)
        self.vectors = [(column, weight * _pack(coeffs, self.bits)) for column, weight, coeffs in classes]

    def numerator(self, lam: Partition) -> int:
        """N_lam, packed at self.bits over self.length slots."""
        i = self.table.row_index(lam)
        return sum(column[i] * v for column, v in self.vectors if column[i])


def graded_multiplicity(lam: Partition, delta: Partition) -> tuple:
    """Hall pairing of s_lam with the plethystic image of s_delta, as an
    unreduced integer pair (numerator, denominator) of Laurent polynomials
    whose quotient is the pairing; the denominator is n! H_delta(q).

    This is the graded multiplicity of the irreducible labeled by lam in
    the polynomial-ring module induced from the one labeled by delta.
    """
    if lam.size != delta.size:
        raise ValueError(
            f"size mismatch: |{lam}| = {lam.size} but |{delta}| = {delta.size}"
        )
    pairing = _PackedPairing(delta)
    num = _unpack(pairing.numerator(lam), pairing.bits, pairing.length)
    return _from_dense(num), hook_polynomial(delta).scaled(factorial(lam.size))


def fake_degree(lam: Partition) -> LaurentPolynomial:
    """Graded multiplicity of the lam-irreducible in the coinvariant ring:
    (q)_n * q^(n(lam)) / H_lam(q), an exact polynomial division."""
    num = q_factorial(lam.size) * LaurentPolynomial.monomial(n_stat(lam))
    return num.exact_div(hook_polynomial(lam))


@lru_cache(maxsize=None)
def regular_fiber_character(m: int) -> LaurentPolynomial:
    """Graded character of the rank-n! fiber at the staircase fixed point:
    q^(-n(delta)) * H_delta(q) / (1-q)^n * dim(delta), delta the staircase,
    built as dim(delta) q^(-n(delta)) times the product of [h]_q over the
    hooks h of delta, since (1 - q^h) / (1 - q) = [h]_q."""
    if m < 0:
        raise ValueError("staircase index must be nonnegative")
    delta = staircase(m)
    return q_integer_product(hook_lengths(delta)).scaled(dim_irrep(delta)).shifted(-n_stat(delta))


@lru_cache(maxsize=None)
def _fiber_pairing(m: int) -> _PackedPairing:
    """The packed pairing against the staircase of index m."""
    return _PackedPairing(staircase(m))


@lru_cache(maxsize=None)
def isotypic_character(lam: Partition) -> LaurentPolynomial:
    """Torus character of the multiplicity space attached to lam inside the
    staircase fiber; palindromic with nonnegative integer coefficients.

    It is q^(-n(delta)) H_delta(q) times the Hall pairing N / (n! H_delta),
    that is q^(-n(delta)) N / n!: one exact division of the numerator by
    an int.  Only triangular sizes carry such a fiber, so any other size is
    rejected rather than approximated.
    """
    m = triangular_index(lam.size)
    if m is None:
        raise NonTriangularSizeError(
            f"|{lam}| = {lam.size} is not a triangular number"
        )
    pairing = _fiber_pairing(m)
    num = _unpack(pairing.numerator(lam), pairing.bits, pairing.length)
    return _from_dense(num, -n_stat(staircase(m))).exact_div(factorial(lam.size))
