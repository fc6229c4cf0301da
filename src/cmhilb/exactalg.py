"""Exact arithmetic in a single variable q.

One coefficient domain covers everything: Laurent polynomials with integer
coefficients.  Every quotient the package forms is known to be exact, so
division is `exact_div`, which raises NonPolynomialError on any remainder;
that error is the single alarm for an upstream sum that failed to cancel.
There is no floating point and no series truncation anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class NonPolynomialError(ArithmeticError):
    """A quotient that was expected to be a Laurent polynomial is not one."""


class LaurentPolynomial:
    """Immutable Laurent polynomial over the integers.

    Stored as a map from exponent (possibly negative) to nonzero integer
    coefficient; the zero polynomial is the empty map.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exp, coeff in items:
                if not isinstance(exp, int) or not isinstance(coeff, int):
                    raise TypeError("exponents and coefficients must be integers")
                if coeff:
                    total = data.get(exp, 0) + coeff
                    if total:
                        data[exp] = total
                    else:
                        del data[exp]
        self._terms = data

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPolynomial":
        return cls({exponent: coeff})

    @property
    def terms(self) -> dict:
        """Copy of the exponent -> coefficient map."""
        return dict(self._terms)

    def sorted_terms(self) -> tuple:
        """Term pairs in ascending exponent order."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def support(self) -> tuple:
        return tuple(sorted(self._terms))

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        data = dict(self._terms)
        for e, c in other._terms.items():
            total = data.get(e, 0) + c
            if total:
                data[e] = total
            else:
                del data[e]
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._terms = data
        return out

    def __neg__(self):
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        data = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                total = data.get(e, 0) + c1 * c2
                if total:
                    data[e] = total
                else:
                    del data[e]
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._terms = data
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
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
        if not c:
            return LaurentPolynomial()
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._terms = {e: c * v for e, v in self._terms.items()}
        return out

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by q**k."""
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out._terms = {e + k: v for e, v in self._terms.items()}
        return out

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def is_palindromic(self) -> bool:
        return self._terms == {-e: v for e, v in self._terms.items()}

    def evaluate(self, x):
        """Exact value at x (int or Fraction; x must be nonzero if any
        exponent is negative)."""
        total = Fraction(0)
        fx = Fraction(x)
        for e, c in self._terms.items():
            total += c * fx ** e
        return int(total) if total.denominator == 1 else total

    def exact_div(self, divisor) -> "LaurentPolynomial":
        """Exact quotient by another Laurent polynomial or by a nonzero int.

        Raises NonPolynomialError if the division leaves a remainder or
        would need non-integer coefficients.
        """
        if isinstance(divisor, int):
            if not divisor:
                raise ZeroDivisionError("division by zero")
            data = {}
            for e, c in self._terms.items():
                data[e], leftover = divmod(c, divisor)
                if leftover:
                    raise NonPolynomialError(f"coefficient of q^{e} not divisible by {divisor}")
            return LaurentPolynomial(data)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPolynomial()
        shift = self.min_exponent() - divisor.min_exponent()
        rem = _dense(self)
        den = _dense(divisor)
        if len(rem) < len(den):
            raise NonPolynomialError("divisor has larger support than dividend")
        quot = [0] * (len(rem) - len(den) + 1)
        top = den[-1]
        for i in range(len(quot) - 1, -1, -1):
            lead = rem[i + len(den) - 1]
            if not lead:
                continue
            c, leftover = divmod(lead, top)
            if leftover:
                raise NonPolynomialError("leading coefficient not divisible")
            quot[i] = c
            for j, bc in enumerate(den):
                rem[i + j] -= c * bc
        if any(rem):
            raise NonPolynomialError("division leaves a nonzero remainder")
        return LaurentPolynomial({shift + i: c for i, c in enumerate(quot) if c})

    def to_text(self) -> str:
        """Readable form, terms in ascending exponent: "q^-1 + 2 + q^3"."""
        if not self._terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
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
        return " ".join(pieces)

    def to_json(self) -> list:
        """List of [exponent, coefficient-string] pairs, ascending."""
        return [[e, str(c)] for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, pairs) -> "LaurentPolynomial":
        return cls({int(e): int(c) for e, c in pairs})

    def __repr__(self):
        return self.to_text()


def one_minus_q_product(ks) -> LaurentPolynomial:
    """Product of (1 - q^k) over the multiset ks of positive integers.

    The coefficients stay in one dense list, and each factor is a
    shift-subtract: c_i -= c_(i-k), for every i at once.
    """
    coeffs = [1]
    for k in ks:
        padded = coeffs + [0] * k
        coeffs = padded[:k] + [a - b for a, b in zip(padded[k:], coeffs)]
    out = LaurentPolynomial.__new__(LaurentPolynomial)
    out._terms = {e: c for e, c in enumerate(coeffs) if c}
    return out


def _dense(p: LaurentPolynomial) -> list:
    lo, hi = p.min_exponent(), p.max_exponent()
    out = [0] * (hi - lo + 1)
    for e, c in p._terms.items():
        out[e - lo] = c
    return out
