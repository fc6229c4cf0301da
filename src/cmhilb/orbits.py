"""Orbit and stabilizer classification for torus-fixed points, monomial
ideal data, and closure graphs.

A closure scan shares work across its reports: one transpose per pair of
mutually transposed partitions, each report's partner being the other's
own partition, and one u_map boundary per sorted antidiagonal profile.

Monomial convention: the cell in row a, column b of the diagram is the
monomial x^a y^b, so the quotient by the ideal of a partition has the
diagram monomials as a basis.
"""

from __future__ import annotations

from collections import namedtuple
from operator import sub

from .partitions import (
    Partition,
    _partition_tuples,
    _unchecked,
    diagonals,
    is_steep,
    require_listable,
    transpose,
    u_map,
)

HILBERT = "hilbert"
CALOGERO_MOSER = "calogero-moser"

# the model of the orbit SL2 / stabilizer, for each stabilizer a fixed point can have
ORBIT_MODEL = {"SL2": "point", "B": "P1", "B_minus": "P1", "T": "SL2_mod_T", "N_T": "SL2_mod_NT"}
# the stabilizers that contain a Borel subgroup: exactly their Hilbert orbits are closed
CONTAINS_BOREL = ("SL2", "B", "B_minus")


class MonomialIdeal(namedtuple("MonomialIdeal", "shape generators graded_dims")):
    """Torus-fixed ideal of a partition shape in two variables.

    generators: minimal exponent pairs (a, b) outside the diagram.
    graded_dims: dimensions of the degree-k pieces for small k; beyond the
    stored range the degree-k piece is the full space of dimension k + 1.
    """

    __slots__ = ()

    def graded_dim(self, k: int) -> int:
        if k < len(self.graded_dims):
            return self.graded_dims[k]
        return k + 1

    def generator_strings(self) -> tuple:
        def mono(a, b):
            xs = "" if a == 0 else ("x" if a == 1 else f"x^{a}")
            ys = "" if b == 0 else ("y" if b == 1 else f"y^{b}")
            return " ".join(t for t in (xs, ys) if t) or "1"

        return tuple(mono(a, b) for a, b in self.generators)


class OrbitReport(namedtuple("OrbitReport", "space partition stabilizer orbit_model closed boundary partner")):
    """Classification of the orbit through the fixed point of `partition` in
    `space`, every field derived from those two; boundary and partner are
    partitions or None."""

    __slots__ = ()

    def __new__(cls, space: str, partition: Partition):
        if space not in (HILBERT, CALOGERO_MOSER):
            raise ValueError(f"unknown space {space!r}")
        return _report(space, partition, transpose(partition), u_map(partition) if space == HILBERT else None)

    def __getnewargs__(self):
        return self.space, self.partition

    @property
    def orbit_id(self) -> str:
        """The orbit's name: the lesser of its partition and the partner sharing it, if any."""
        lam, other = self.partition, self.partner
        return str(lam if other is None or lam.parts < other.parts else other)


def _report(space: str, lam: Partition, lamt: Partition, boundary) -> OrbitReport:
    """The report on lam in space, given its transpose lamt and its u_map
    boundary (read only for a Hilbert orbit); the staircase is the one steep
    partition that is its own transpose."""
    if lam.parts == lamt.parts:
        stabilizer = "SL2" if is_steep(lam) else "N_T"
    elif space == HILBERT and is_steep(lam):
        stabilizer = "B"
    elif space == HILBERT and is_steep(lamt):
        stabilizer = "B_minus"
    else:
        stabilizer = "T"
    # a Hilbert orbit that is not closed has the P1 orbit of its u_map in its boundary
    closed = space == CALOGERO_MOSER or stabilizer in CONTAINS_BOREL
    partner = lamt if space == CALOGERO_MOSER and stabilizer == "T" else None
    return tuple.__new__(OrbitReport, (space, lam, stabilizer, ORBIT_MODEL[stabilizer], closed,
                                       None if closed else boundary, partner))


def monomial_ideal(lam: Partition) -> MonomialIdeal:
    """The codimension-n torus-fixed ideal labeled by lam."""
    parts = lam.parts
    ell = len(parts)
    gens = []
    for a in range(ell + 1):
        width = parts[a] if a < ell else 0
        if a == 0 or width < parts[a - 1]:
            gens.append((a, width))
    # the degree-k monomials outside the diagram: all k + 1 of them but the d_k cells on antidiagonal k
    d = diagonals(lam) + (0, 0)
    dims = tuple(map(sub, range(1, len(d) + 1), d))
    return MonomialIdeal(shape=lam, generators=tuple(gens), graded_dims=dims)


def is_borel_stable(lam: Partition) -> bool:
    """Stability of the monomial ideal under the derivation sending
    x^a y^b to b * x^(a+1) y^(b-1).

    Cell form: every out-of-diagram cell (a, b) with b >= 1 must have
    (a+1, b-1) out of the diagram too.  Outside the scanned window both
    cells are automatically out, so the scan is finite.
    """
    parts = lam.parts
    ell = len(parts)
    width = parts[0] if parts else 0

    def inside(a, b):
        return a < ell and b < parts[a]

    for a in range(ell + 1):
        for b in range(1, width + 2):
            if not inside(a, b) and inside(a + 1, b - 1):
                return False
    return True


def hilb_orbit(lam: Partition) -> OrbitReport:
    """Stabilizer and closure data for the orbit in the Hilbert scheme."""
    return OrbitReport(HILBERT, lam)


def cm_orbit(lam: Partition) -> OrbitReport:
    """Stabilizer data for the orbit in the Calogero-Moser space; these
    orbits are always closed."""
    return OrbitReport(CALOGERO_MOSER, lam)


# the directed closure graph over all partitions of n in one space; the CLI writes it
ClosureGraph = namedtuple("ClosureGraph", "space n nodes edges")


def closure_graph(n: int, space: str) -> ClosureGraph:
    """Nodes are orbit reports for all partitions of n; each non-closed
    orbit sends an edge to its boundary partition, so in the Calogero-Moser
    space, where every orbit is closed, the graph has no edges.
    """
    if space not in (HILBERT, CALOGERO_MOSER):
        raise ValueError(f"unknown space {space!r}")
    require_listable(n)
    # mates: the parts of a transpose still to come -> (that transpose, its transpose, their boundary)
    mates, boundaries, nodes = {}, {}, []
    for parts in _partition_tuples(n):
        mate = mates.pop(parts, None)
        if mate is None:
            lam = _unchecked(parts)
            lamt, boundary = transpose(lam), None
            if space == HILBERT:  # u_map reads only the sorted antidiagonal profile
                profile = tuple(sorted(diagonals(lam)))
                boundary = boundaries.get(profile) or boundaries.setdefault(profile, u_map(lam))
            if lamt.parts != parts:
                mates[lamt.parts] = lamt, lam, boundary
        else:
            lam, lamt, boundary = mate
        nodes.append(_report(space, lam, lamt, boundary))
    edges = tuple((node.partition, node.boundary) for node in nodes if not node.closed)
    return ClosureGraph(space=space, n=n, nodes=tuple(nodes), edges=edges)
