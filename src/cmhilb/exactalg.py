"""Exact arithmetic in a single variable q.

One coefficient domain covers everything: Laurent polynomials with integer
coefficients.  Every quotient the package forms is known to be exact: by a
nonzero int (`exact_div`) or by a product of factors 1 - q^k
(`one_minus_q_quotient`), the only polynomial divisors it meets.  Both
raise NonPolynomialError on any remainder; that error is the single alarm
for an upstream sum that failed to cancel.  There is no floating point and
no series truncation anywhere.

A Laurent polynomial is stored in the kernel's own dense form: its lowest
exponent and the tuple of its coefficients from there upward, trimmed so
that both ends are nonzero.  The coefficient lists the kernel unpacks or
sums become polynomials by that end trim alone.

Inside the kernel, long products run on Kronecker-packed ints: a
polynomial is replaced by its value at q = 2^bits, so that each product
or sum is one big-int operation (Harvey, arXiv:0712.4046).  Packing is
exact for any width; only reading the coefficients back needs them to fit
their slots, so every width comes from a proven bound on them; a product
of factors 1 - q^k keeps a running bound that each factor at most
doubles, and when it outgrows the slots certifies a smaller one by a bit
test on the packed int, reading the coefficients back only when that
test fails.  _unpack reads packed ints back, the character-table rows and
Hall-pairing sums in symfun too (their slot offsets come from _bias), but
CharacterTable.value decodes its one slot itself, _add_block adds sub-rows
as ints, and a table holds one row per transpose pair, whose build negates
the slots where the sign character is -1 by one mask on a biased int.
Packed ints stay internal: every public function takes and returns
Laurent polynomials.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from operator import add

# from_json refuses a wider exponent span; the widest a command prints is 20,101
JSON_SPAN_CAP = 1 << 20


class NonPolynomialError(ArithmeticError):
    """A quotient that was expected to be a Laurent polynomial is not one."""


class LaurentPolynomial:
    """Immutable Laurent polynomial over the integers.

    Stored dense, in the kernel's form: _lo is the lowest exponent and
    _coeffs the tuple of coefficients from q^_lo upward, the first and the
    last nonzero.  The zero polynomial has _coeffs == () and _lo == 0, so
    equal polynomials have equal storage.
    """

    __slots__ = ("_lo", "_coeffs")

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exp, coeff in items:
                # exactly int: bool subclasses int but is no exponent or coefficient
                if type(exp) is not int or type(coeff) is not int:
                    raise TypeError("exponents and coefficients must be integers")
                if coeff:
                    data[exp] = data.get(exp, 0) + coeff
        lo = min(data, default=0)
        dense = [0] * (max(data, default=lo - 1) - lo + 1)
        for exp, coeff in data.items():
            dense[exp - lo] = coeff
        self._lo, self._coeffs = _trimmed(dense, lo)

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def sorted_terms(self) -> tuple:
        """Term pairs in ascending exponent order."""
        return tuple((e, c) for e, c in enumerate(self._coeffs, self._lo) if c)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._lo == other._lo and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._lo, self._coeffs))

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return other if not self._coeffs else self
        lo = min(self._lo, other._lo)
        out = [0] * (max(self._lo + len(self._coeffs), other._lo + len(other._coeffs)) - lo)
        for p in (self, other):
            span = slice(p._lo - lo, p._lo - lo + len(p._coeffs))
            out[span] = map(add, out[span], p._coeffs)
        return _from_dense(out, lo)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return LaurentPolynomial()
        # every coefficient of A B is at most ||A||_inf ||B||_1 in size
        bound = min(max(map(abs, a)) * sum(map(abs, b)), max(map(abs, b)) * sum(map(abs, a)))
        return _from_dense(_packed_product(a, b, _slot_bits(bound)), self._lo + other._lo)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if _int(k) < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = LaurentPolynomial.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scaled(self, c: int) -> "LaurentPolynomial":
        if not _int(c):
            return LaurentPolynomial()
        return _from_dense(tuple(c * v for v in self._coeffs), self._lo)

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by q**k."""
        return _from_dense(self._coeffs, self._lo + _int(k))

    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return self._lo

    def is_palindromic(self) -> bool:
        coeffs = self._coeffs
        return not coeffs or (2 * self._lo + len(coeffs) == 1 and coeffs == coeffs[::-1])

    def coefficient_sum(self) -> int:
        """Sum of the coefficients, which is the value at q = 1."""
        return sum(self._coeffs)

    def exact_div(self, divisor: int) -> "LaurentPolynomial":
        """Exact quotient by a nonzero int, coefficient by coefficient.

        Raises NonPolynomialError if a coefficient is not divisible.  The
        package divides by polynomials only through one_minus_q_quotient.
        """
        if not _int(divisor):
            raise ZeroDivisionError("division by zero")
        quotient = []
        for e, c in enumerate(self._coeffs, self._lo):
            part, leftover = divmod(c, divisor)
            if leftover:
                raise NonPolynomialError(f"coefficient of q^{e} not divisible by {divisor}")
            quotient.append(part)
        return _from_dense(quotient, self._lo)

    def to_text(self) -> str:
        """Readable form, terms in ascending exponent: "q^-1 + 2 + q^3"."""
        pieces = []
        for e, c in enumerate(self._coeffs, self._lo):
            if not c:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces) or "0"

    def to_json(self) -> list:
        """List of [exponent, coefficient-string] pairs, ascending."""
        return [[e, str(c)] for e, c in enumerate(self._coeffs, self._lo) if c]

    @classmethod
    def from_json(cls, pairs) -> "LaurentPolynomial":
        """The inverse of to_json, refusing what it never writes: an exponent not exactly an int
        or not above the one before, a coefficient such as 2, "+2", "02" or "0", or a span over JSON_SPAN_CAP."""
        terms = {}
        for e, c in pairs:
            if type(e) is not int or type(c) is not str:
                raise TypeError(f"a term is [int, str], got [{e!r}, {c!r}]")
            if (terms and e <= last) or c == "0" or str(int(c)) != c:
                raise ValueError(f"[{e}, {c!r}] is not a term to_json writes")
            terms[e], last = int(c), e
        if terms and last - next(iter(terms)) >= JSON_SPAN_CAP:
            raise ValueError(f"exponents {next(iter(terms))} to {last} span more than {JSON_SPAN_CAP} slots")
        return cls(terms)

    def __repr__(self):
        return self.to_text()


def one_minus_q_product(ks) -> LaurentPolynomial:
    """Product of (1 - q^k) over the multiset ks of positive integers.

    The product is one packed int, and each factor is one shift-subtract
    v -= v * 2^(k*bits), smallest k first so that the int grows late.  Each
    factor at most doubles a running bound top on the coefficients.  When
    2*top outgrows the slots, _digits_within first tests on the packed int
    whether every coefficient is below 2^(t-1), t = bits - 1 - (factors
    left): then top = 2^(t-1) leaves room for every factor left.  Only when
    that test fails does _refreshed read top back exactly, and repack at
    most once, only if 2*top still does not fit.  Slots start at 64 bits,
    which _unpack reads by one cast, and never pass the wider of 64 and
    _slot_bits(2^r), the l1 bound of r factors.
    """
    ks, top, v, done, bits = sorted(ks), 1, 1, 0, 64
    if ks and ks[0] < 1:
        raise ValueError(f"1 - q^k needs k >= 1, got k = {ks[0]}")
    while done < len(ks):
        if 2 * top >> (bits - 1):
            length, left = sum(ks[:done]) + 1, len(ks) - done
            t = bits - 1 - left
            if t > 0 and _digits_within(v, bits, length, t):
                top = 1 << (t - 1)
            else:
                v, bits, top = _refreshed(v, bits, length, left)
        # the factors 2*top has room for, each doubling top (one at least: the loop ends)
        chunk = ks[done : done + max(1, bits - 1 - top.bit_length())]
        for k in chunk:
            v -= v << (k * bits)
        done, top = done + len(chunk), top << len(chunk)
    return _from_dense(_unpack(v, bits, sum(ks) + 1))


def _digits_within(v: int, bits: int, length: int, t: int) -> bool:
    """Whether each of the length digits of v, which fit their bits-bit
    slots, lies in [-2^(t-1), 2^(t-1)), for 0 < t < bits, read without
    unpacking.  Exactly then v plus 2^(t-1) in each slot is >= 0 and has no
    bit outside the low t bits of its length slots: the digits plus 2^(t-1)
    and the digits of that sum lie in one range of 2^bits integers, where
    the digits of an int are unique.  One mask test covers both conditions,
    since a negative int has bits set above every mask."""
    ones = _bias(bits, length) >> (bits - 1)
    shifted = v + (ones << (t - 1))
    return not shifted & ~((ones << t) - ones)


def _refreshed(v: int, bits: int, length: int, factors: int) -> tuple:
    """(v, bits, top): top the exact largest of the length coefficients of v,
    and v repacked for top * 2^factors <= 2^r if 2*top does not fit bits."""
    coeffs = _unpack(v, bits, length)
    top = max(max(coeffs), -min(coeffs))
    if 2 * top >> (bits - 1):
        bits = _slot_bits(top << factors)
        v = _pack(coeffs, bits)
    return v, bits, top


def one_minus_q_quotient(p: LaurentPolynomial, ks) -> LaurentPolynomial:
    """p / prod (1 - q^k) over the multiset ks of positive integers; raises
    NonPolynomialError unless that is a Laurent polynomial.

    Dividing by 1 - q^k is a running sum along each residue class of
    exponents mod k.  That power series stops, and is the quotient, exactly
    when its top k coefficients are zero, and they are dropped.  Integer
    sums need no coefficient bound.  Larger k first shortens the list soonest.
    """
    ks = sorted(ks, reverse=True)
    if ks and ks[-1] < 1:
        raise ValueError(f"1 - q^k needs k >= 1, got k = {ks[-1]}")
    if not p:
        return LaurentPolynomial()
    coeffs = list(p._coeffs)
    for k in ks:
        for r in range(k):
            coeffs[r::k] = accumulate(coeffs[r::k])
        if any(coeffs[-k:]):
            raise NonPolynomialError(f"1 - q^{k} leaves a nonzero remainder")
        del coeffs[-k:]
    return _from_dense(coeffs, p._lo)


def _from_dense(coeffs, lo: int = 0) -> LaurentPolynomial:
    """The Laurent polynomial with coefficients coeffs from q^lo upward,
    taken as its storage once the zeros at either end are trimmed."""
    out = LaurentPolynomial.__new__(LaurentPolynomial)
    out._lo, out._coeffs = _trimmed(coeffs, lo)
    return out


def _trimmed(coeffs, lo: int) -> tuple:
    """(lo, coeffs) with the zeros at either end of coeffs dropped and coeffs
    made a tuple: (0, ()) when every coefficient is zero."""
    start, end = 0, len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    if not end:
        return 0, ()
    while not coeffs[start]:
        start += 1
    return lo + start, tuple(coeffs if end - start == len(coeffs) else coeffs[start:end])


def _int(x) -> int:
    """x, which must be exactly an int: bool is no exponent or coefficient."""
    if type(x) is not int:
        raise TypeError(f"expected an int, got {type(x).__name__}")
    return x


# -- Kronecker packing -------------------------------------------------------
#
# A polynomial sum c_i q^i with every |c_i| < 2^(bits-1) is packed as the
# int sum c_i 2^(bits*i), its value at q = 2^bits.  The digits are balanced,
# so signed coefficients need no carries, and bits is a whole number of
# bytes, so packing and unpacking are byte slices.  Sums, products by
# ints and shifts of packed ints are exact with no bound at all; a bound
# is needed only to read the coefficients back.

# memoryview formats of signed ints by size, where native ints are little-endian:
# _unpack reads slots of these sizes by one cast, and slots of any other width one by one
_CASTS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "bhiq"} if sys.byteorder == "little" else {}


def _slot_bits(bound: int) -> int:
    """The least whole-byte width bits with bound < 2^(bits-1): slots of
    that width hold every coefficient of absolute value at most bound."""
    return 8 * ((bound.bit_length() + 8) // 8)


def _bias(bits: int, length: int) -> int:
    """2^(bits-1) in each of length slots."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * length, "little")


def _pack(coeffs, bits: int) -> int:
    """Value at q = 2^bits of the polynomial with coefficients coeffs,
    lowest first; each must lie in [-2^(bits-1), 2^(bits-1))."""
    size, half = bits // 8, 1 << (bits - 1)
    raw = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - _bias(bits, len(coeffs))


def _spread(raw, narrow: int, wide: int) -> bytearray:
    """The slots of narrow bytes in raw, each zero-extended to wide bytes."""
    out = bytearray(len(raw) // narrow * wide)
    for b in range(narrow):
        out[b::wide] = raw[b::narrow]
    return out


def _unpack(value: int, bits: int, length: int) -> list:
    """The length balanced digits of value at base 2^bits, lowest first;
    OverflowError when value has no such form.  Each slot of the biased
    value holds a digit plus 2^(bits-1); slots of a _CASTS size are cast
    with that top bit flipped, which makes them two's complement."""
    bias, size = _bias(bits, length), bits // 8
    if size in _CASTS:
        return memoryview(((value + bias) ^ bias).to_bytes(size * length, "little")).cast(_CASTS[size]).tolist()
    raw, half = (value + bias).to_bytes(size * length, "little"), 1 << (bits - 1)
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size)]


def _packed_product(a: list, b: list, bits: int) -> list:
    """Dense a times dense b by one multiply, for a product that fits bits."""
    return _unpack(_pack(a, bits) * _pack(b, bits), bits, len(a) + len(b) - 1)
