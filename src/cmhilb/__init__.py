"""Exact computations around torus-fixed points labeled by partitions:
hook data, graded characters and their highest-weight decompositions on
the Calogero-Moser side, and orbit-closure structure on the Hilbert
scheme of points in the plane.
"""

from .exactalg import LaurentPolynomial, NonPolynomialError
from .partitions import (
    CapExceededError,
    Partition,
    all_hooks_odd,
    cells,
    diagonals,
    dim_irrep,
    enumerate_partitions,
    hook_lengths,
    hook_polynomial,
    is_staircase,
    is_steep,
    n_stat,
    parse_partition,
    staircase,
    transpose,
    triangular_index,
    u_map,
)
from .symfun import (
    CharacterTable,
    NonTriangularSizeError,
    centralizer_order,
    character_table,
    fake_degree,
    isotypic_character,
    mn_character,
    regular_fiber_character,
)
from .sl2 import (
    NotACharacterError,
    decompose,
    exponent_runs,
    exponent_string,
    exponents,
    hook_layer_character,
    irreducible_character,
    layered_fiber_character,
    sl2_fixed_set,
    tangent_character,
    weights_all_odd,
)
from .orbits import (
    CALOGERO_MOSER,
    HILBERT,
    ClosureGraph,
    MonomialIdeal,
    OrbitReport,
    closure_graph,
    cm_orbit,
    hilb_orbit,
    is_borel_stable,
    monomial_ideal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
