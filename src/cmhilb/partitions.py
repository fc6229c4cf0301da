"""Partition combinatorics: hooks, diagonals, steepness, rectification.

Convention used everywhere: rows are indexed top down from 0, columns
left to right from 0 (English style), and the cell in row r, column c
sits on antidiagonal k = r + c.
"""

from __future__ import annotations

import re
from itertools import accumulate
from math import factorial, isqrt
from operator import add

from .exactalg import LaurentPolynomial, _int, one_minus_q_product


class CapExceededError(ValueError):
    """A size refused before any work: over LISTABLE_SIZE_CAP, or over a CLI cap."""


# The decimal numerals of 0..200: one lookup per part instead of one str call.  They cover every part of a
# partition a command takes (at most 200 cells) and of a closure scan (n <= 45).
_NUMERALS = tuple(map(str, range(201)))


def _numerals(parts: tuple):
    """The decimal strings of a partition's parts, which Partition.__str__ and the CLI's JSON writer join:
    read from _NUMERALS when the first part, the largest, is in it, else written by str."""
    return [_NUMERALS[p] for p in parts] if parts and parts[0] < len(_NUMERALS) else map(str, parts)


class Partition:
    """Weakly decreasing tuple of positive integers; () is the partition of 0.
    Immutable, equal and hashed by `parts`, and equal to no tuple."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if type(p) is not int:  # bool subclasses int, but True is no part
                raise TypeError(f"partition parts must be integers, got {p!r}")
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}: Partition is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # a pickle or copy builds the partition anew, checked again
        return Partition, (self.parts,)

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    def __repr__(self):
        return f"Partition(parts={self.parts!r})"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        """The parts in comma form, each written by _numerals: "4,3,3,1,1"."""
        return ",".join(_numerals(self.parts))


_new_partition, _set_parts = object.__new__, Partition.parts.__set__


def _unchecked(parts: tuple) -> Partition:
    """A Partition of a tuple that is weakly decreasing and positive by
    construction, made without the checks of Partition(...)."""
    lam = _new_partition(Partition)
    _set_parts(lam, parts)
    return lam


# The integer syntax of a CLI argument: ASCII digits after an optional "-", with whitespace around;
# int() alone also takes "５", "1_0" and "+3".  A size is one, a partition comma-separated ones.
_INT = r"\s*-?[0-9]+\s*"
_INT_TEXT, _PARTITION_TEXT = re.compile(_INT), re.compile(f"{_INT}(?:,{_INT})*")


def parse_int(text: str) -> int:
    """An integer written as _INT takes it."""
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts, e.g. "4,3,3,1,1"; "" is the empty partition."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        if not _PARTITION_TEXT.fullmatch(text):
            raise ValueError
        nums = tuple(map(int, text.split(",")))  # int also refuses more digits than its limit
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return Partition(nums)


def cells(lam: Partition):
    """Iterate the diagram cells (row, column)."""
    for r, width in enumerate(lam.parts):
        for c in range(width):
            yield r, c


def transpose(lam: Partition) -> Partition:
    """Column heights read off the row differences: lam_h - lam_(h+1)
    columns have height h."""
    parts, cols = lam.parts + (0,), []
    for height in range(len(lam.parts), 0, -1):
        cols += [height] * (parts[height - 1] - parts[height])
    return _unchecked(tuple(cols))


def hook_lengths(lam: Partition) -> tuple:
    """Hook length of every cell (arm + leg + 1), sorted descending."""
    t = transpose(lam).parts
    hooks = [
        lam.parts[r] - c + t[c] - r - 1
        for r, width in enumerate(lam.parts)
        for c in range(width)
    ]
    return tuple(sorted(hooks, reverse=True))


def hook_polynomial(lam: Partition) -> LaurentPolynomial:
    """Product of (1 - q^h) over the hook multiset."""
    return one_minus_q_product(hook_lengths(lam))


def n_stat(lam: Partition) -> int:
    """The statistic sum of (i-1)*lam_i with rows counted from 1."""
    return sum(r * width for r, width in enumerate(lam.parts))


def dim_irrep(lam: Partition) -> int:
    """Dimension of the symmetric-group irreducible labeled by lam: n! / prod hooks."""
    prod = 1
    for h in hook_lengths(lam):
        prod *= h
    return factorial(lam.size) // prod


def is_steep(lam: Partition) -> bool:
    """Strictly decreasing parts: as parts never increase, no part repeats."""
    return len(set(lam.parts)) == len(lam.parts)


def diagonals(lam: Partition) -> tuple:
    """d_k = number of cells on antidiagonal k, for k = 0 .. max: row r
    covers antidiagonals r .. r + lam_r - 1, so d is the running sum of
    +1 at each r and -1 at each r + lam_r."""
    ends = list(map(add, range(len(lam.parts)), lam.parts))
    steps = [1] * len(ends) + [0] * (max(ends, default=0) + 1 - len(ends))
    for end in ends:
        steps[end] -= 1
    return tuple(accumulate(steps[:-1]))


def u_map(lam: Partition) -> Partition:
    """Push every antidiagonal's cells as far up and to the right as possible.

    The i-th part of the result is the number of diagonals holding at least
    i cells, so the result is the transpose of the diagonals sorted in
    descending order.  It is always steep and has the same size as lam.
    """
    return transpose(_unchecked(tuple(sorted(diagonals(lam), reverse=True))))


def staircase(m: int) -> Partition:
    """The partition (m, m-1, ..., 1)."""
    if m < 0:
        raise ValueError("staircase index must be nonnegative")
    return Partition(tuple(range(m, 0, -1)))


def is_staircase(lam: Partition) -> bool:
    return lam.parts == tuple(range(len(lam.parts), 0, -1))


def all_hooks_odd(lam: Partition) -> bool:
    return all(h % 2 for h in hook_lengths(lam))


def triangular_index(n: int) -> int | None:
    """m with n = m(m+1)/2, or None when n is not triangular."""
    if n < 0:
        return None
    m = (isqrt(8 * n + 1) - 1) // 2
    return m if m * (m + 1) // 2 == n else None


def _partition_tuples(n: int):
    """The partitions of n as tuples, one at a time, in reverse lexicographic order:
    each step lowers the last part above 1 by one and refills the cells after it
    greedily with parts of that size (the idea of Zoghbi-Stojmenovic's ZS1).  The
    parts above 1 are kept in a list, and the trailing 1s as their count."""
    parts, ones = [n] * (n > 1), int(n == 1)
    while True:
        yield tuple(parts) + (1,) * ones
        if not parts:
            return
        k = parts.pop() - 1
        if k == 1:
            ones += 2
        else:
            whole, ones = divmod(k + 1 + ones, k)
            parts += [k] * whole
            if ones > 1:
                parts.append(ones)
                ones = 0


# The largest n whose partitions may be listed: p(45) = 89,134 <= 10^5 <
# p(46) = 105,558, and p grows with n, so every smaller size is listable too.
LISTABLE_SIZE_CAP = 45


def require_listable(n: int) -> None:
    """Refuse a size n whose partitions may not be listed: TypeError unless
    n is exactly an int, CapExceededError above LISTABLE_SIZE_CAP."""
    if _int(n) < 0:
        raise ValueError("cannot partition a negative integer")
    if n > LISTABLE_SIZE_CAP:
        raise CapExceededError(f"n={n} exceeds the cap: more than 100000 partitions, too many to list")


def enumerate_partitions(n: int) -> list:
    """All partitions of n in reverse lexicographic order, refused as
    require_listable(n) says."""
    require_listable(n)
    return list(map(_unchecked, _partition_tuples(n)))
