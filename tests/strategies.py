"""Shared hypothesis strategies."""

import hypothesis.strategies as st

from cmhilb import LaurentPolynomial, Partition

laurent_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPolynomial)


@st.composite
def partitions(draw, max_size=12):
    n = draw(st.integers(0, max_size))
    parts = []
    remaining, biggest = n, n
    while remaining:
        p = draw(st.integers(1, min(biggest, remaining)))
        parts.append(p)
        biggest = p
        remaining -= p
    return Partition(tuple(parts))
