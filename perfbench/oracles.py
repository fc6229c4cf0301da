"""The benchmark's own combinatorics, used to check the program's outputs.

Nothing here imports cmhilb: every expected value is computed by a route
of its own (hook lengths from arm and leg, the fiber character by integer
prefix sums, p(n) by the pentagonal recurrence, stabilisers from the
derivation test), so a wrong rule in the program cannot pass by agreeing
with itself.

Partitions are tuples of parts; Laurent polynomials are dicts mapping an
exponent to a nonzero integer coefficient.
"""

from __future__ import annotations

import re
from math import factorial, isqrt


def partitions(n: int) -> list:
    """All partitions of n in reverse lexicographic order (the CLI's order)."""

    def rec(rest, top):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, top), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return list(rec(n, n))


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for i in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > i:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[i - g1]
            if g2 <= i:
                total += sign * p[i - g2]
            k += 1
        p[i] = total
    return p[n]


def transpose(lam: tuple) -> tuple:
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0))


def hooks(lam: tuple) -> list:
    """Hook length arm + leg + 1 of every cell, sorted descending."""
    t = transpose(lam)
    return sorted(
        (lam[r] - c - 1) + (t[c] - r - 1) + 1 for r in range(len(lam)) for c in range(lam[r])
    )[::-1]


def dim(lam: tuple) -> int:
    """Irreducible dimension by the hook-length formula."""
    prod = 1
    for h in hooks(lam):
        prod *= h
    return factorial(sum(lam)) // prod


def n_stat(lam: tuple) -> int:
    return sum(r * p for r, p in enumerate(lam))


def diagonals(lam: tuple) -> tuple:
    """d_k = number of cells (r, c) with r + c = k."""
    d = {}
    for r, p in enumerate(lam):
        for c in range(p):
            d[r + c] = d.get(r + c, 0) + 1
    return tuple(d[k] for k in range(len(d)))


def is_steep(lam: tuple) -> bool:
    return all(a > b for a, b in zip(lam, lam[1:]))


def staircase(m: int) -> tuple:
    return tuple(range(m, 0, -1))


def triangular_root(n: int):
    m = (isqrt(8 * n + 1) - 1) // 2
    return m if m * (m + 1) // 2 == n else None


def z(mu: tuple) -> int:
    """Centraliser order prod_k k^(m_k) m_k!."""
    out = 1
    for k in set(mu):
        m = mu.count(k)
        out *= k**m * factorial(m)
    return out


def sign_character(mu: tuple) -> int:
    return -1 if (sum(mu) - len(mu)) % 2 else 1


# -- Laurent polynomials as dicts -------------------------------------------


def hook_product(lam: tuple) -> dict:
    """prod over hooks of (1 - q^h), by shift-subtract on a dense list."""
    coeffs = [1]
    for h in hooks(lam):
        grown = coeffs + [0] * h
        for i, c in enumerate(coeffs):
            grown[i + h] -= c
        coeffs = grown
    return {e: c for e, c in enumerate(coeffs) if c}


def fiber_character(m: int) -> dict:
    """q^(-n(delta)) dim(delta) prod_h (1 - q^h) / (1 - q)^n for the staircase
    delta of m rows.  The staircase has n hooks, so the quotient is the
    product of the q-integers 1 + q + ... + q^(h-1); each factor is applied
    as a window sum over integer prefix sums, with no division at all."""
    delta = staircase(m)
    coeffs = [1]
    for h in hooks(delta):
        prefix = [0]
        for c in coeffs:
            prefix.append(prefix[-1] + c)
        width = len(coeffs) + h - 1
        coeffs = [prefix[min(i + 1, len(coeffs))] - prefix[max(i + 1 - h, 0)] for i in range(width)]
    shift, scale = -n_stat(delta), dim(delta)
    return {e + shift: scale * c for e, c in enumerate(coeffs) if c}


def sl2_irreducible(e: int) -> dict:
    """q^e + q^(e-2) + ... + q^(-e)."""
    return {e - 2 * i: 1 for i in range(e + 1)}


def add_into(acc: dict, p: dict, scale: int = 1) -> None:
    for e, c in p.items():
        total = acc.get(e, 0) + scale * c
        if total:
            acc[e] = total
        else:
            acc.pop(e, None)


def value_at_one(p: dict) -> int:
    return sum(p.values())


def is_palindromic(p: dict) -> bool:
    return all(p.get(-e) == c for e, c in p.items())


def from_pairs(pairs) -> dict:
    """Laurent polynomial from the JSON form [[exponent, "coefficient"], ...]."""
    return {int(e): int(c) for e, c in pairs}


_TERM = re.compile(r"^(\d*)(q(?:\^(-?\d+))?)?$")


def parse_laurent(text: str) -> dict:
    """Laurent polynomial from the text form, e.g. "q^-1 + 2 - 3q^4"."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    if tokens[0].startswith("-"):
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2:
        raise ValueError(f"malformed Laurent text {text!r}")
    out = {}
    for sign, body in zip(tokens[::2], tokens[1::2]):
        match = _TERM.match(body)
        if sign not in "+-" or not match or not (match.group(1) or match.group(2)):
            raise ValueError(f"malformed Laurent term {sign} {body!r}")
        coeff = int(match.group(1) or 1)
        exp = 0 if not match.group(2) else int(match.group(3) or 1)
        if exp in out:
            raise ValueError(f"exponent {exp} repeated in {text!r}")
        out[exp] = coeff if sign == "+" else -coeff
    return out


# -- Orbits and ideals --------------------------------------------------------


def _inside(lam: tuple, a: int, b: int) -> bool:
    """Cell (a, b) = monomial x^a y^b lies in the diagram (outside the ideal)."""
    return 0 <= a < len(lam) and 0 <= b < lam[a]


def derivation_stable(lam: tuple, da: int) -> bool:
    """Stability of the monomial ideal of lam under x d/dy (da = 1), which
    sends x^a y^b to b x^(a+1) y^(b-1), or under y d/dx (da = -1), which
    sends it to a x^(a-1) y^(b+1): the image of every ideal monomial with a
    nonzero coefficient must stay in the ideal."""
    width = lam[0] if lam else 0
    for a in range(len(lam) + 2):
        for b in range(width + 2):
            if _inside(lam, a, b):
                continue
            src_exp = b if da == 1 else a
            if src_exp and _inside(lam, a + da, b - da):
                return False
    return True


def stabilizer(lam: tuple, space: str) -> str:
    """Stabiliser class from the two derivation tests and the x<->y swap."""
    up, down = derivation_stable(lam, 1), derivation_stable(lam, -1)
    if up and down:
        return "SL2"
    if space == "hilbert" and up:
        return "B"
    if space == "hilbert" and down:
        return "B_minus"
    return "N_T" if lam == transpose(lam) else "T"


ORBIT_MODEL = {"SL2": "point", "B": "P1", "B_minus": "P1", "T": "SL2_mod_T", "N_T": "SL2_mod_NT"}


def hilbert_closed(lam: tuple) -> bool:
    return stabilizer(lam, "hilbert") in ("SL2", "B", "B_minus")


def ideal_generators(lam: tuple) -> set:
    """Minimal monomials x^a y^b outside the diagram."""
    width = lam[0] if lam else 0
    return {
        (a, b)
        for a in range(len(lam) + 1)
        for b in range(width + 1)
        if not _inside(lam, a, b)
        and (a == 0 or _inside(lam, a - 1, b))
        and (b == 0 or _inside(lam, a, b - 1))
    }


def graded_dims(lam: tuple, count: int) -> list:
    """dim of the degree-k piece of the ideal: k + 1 - d_k."""
    d = diagonals(lam)
    return [k + 1 - (d[k] if k < len(d) else 0) for k in range(count)]
