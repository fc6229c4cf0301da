"""Named verification checks mirroring the stated invariants of every
module.  Each check_* function yields its failure messages; CHECKS holds
them in definition order, each returning its failures as a list (empty
means pass).  The CLI runs any subset and reports one line per check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter, namedtuple
from math import factorial
from operator import mul

from .exactalg import (
    LaurentPolynomial, NonPolynomialError, _pack, _slot_bits, _unpack, one_minus_q_product, one_minus_q_quotient,
)
from .orbits import (
    CALOGERO_MOSER, CONTAINS_BOREL, HILBERT, OrbitReport, closure_graph, cm_orbit, hilb_orbit, is_borel_stable,
    monomial_ideal,
)
from .partitions import (
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
    staircase,
    transpose,
    triangular_index,
    u_map,
)
from .sl2 import (
    NotACharacterError,
    decompose,
    exponent_runs,
    irreducible_character,
    layered_fiber_character,
    sl2_fixed_set,
    tangent_character,
    weights_all_odd,
)
from .symfun import (
    _beta_mask, _class_weights, _mn, _numerators, centralizer_order, character_table, fake_degree,
    isotypic_character, regular_fiber_character,
)

_SEED = 18436


class Limits(namedtuple("Limits", "max_n max_m", defaults=(20, 4))):
    """Size bounds for the checks: max_n caps combinatorial scans, max_m
    caps the staircase index of the character identities."""

    __slots__ = ()


def _random_laurent(rng, span=6, coeff=9, terms=5):
    return LaurentPolynomial(
        {rng.randint(-span, span): rng.randint(-coeff, coeff) for _ in range(rng.randint(0, terms))}
    )


def _schoolbook_product(a, b):
    """a * b term by term: the oracle for the packed multiply."""
    return LaurentPolynomial((e + f, c * d) for e, c in a.sorted_terms() for f, d in b.sorted_terms())


def _binomial_product(ks):
    """prod (1 - q^k) over ks, one shift-subtract per factor on a list of
    coefficients: the oracle for the packed one_minus_q_product."""
    dense = [1]
    for k in ks:
        dense = [x - y for x, y in zip(dense + [0] * k, [0] * k + dense)]
    return LaurentPolynomial(enumerate(dense))


def _quotient(divide, dividend, divisor):
    """divide(dividend, divisor), or None when it raises NonPolynomialError."""
    try:
        return divide(dividend, divisor)
    except NonPolynomialError:
        return None


def _partitions_upto(limits, cap):
    """Every partition of every n <= min(limits.max_n, cap), by size."""
    for n in range(min(limits.max_n, cap) + 1):
        yield from enumerate_partitions(n)


def _ring_failures(a, b, c, k):
    """The ring laws that a, b and c break, and the laws of exact division by the int k, |k| >= 2."""
    one = LaurentPolynomial.one()
    laws = {
        "Laurent addition not associative": (a + b) + c == a + (b + c),
        "Laurent multiplication not associative": (a * b) * c == a * (b * c),
        "Laurent multiplication not distributive": a * (b + c) == a * b + a * c,
        "Laurent arithmetic not commutative": a * b == b * a and a + b == b + a,
        "Laurent identities fail": a + LaurentPolynomial() == a and a * one == a,
        f"exact division by {k} does not invert scaling": a.scaled(k).exact_div(k) == a,
        f"exact division by {k} ignored a remainder":
            _quotient(LaurentPolynomial.exact_div, a.scaled(k) + one, k) is None,
    }
    yield from (law for law, holds in laws.items() if not holds)


def _quotient_failures(a, ks, j):
    """one_minus_q_quotient by prod (1 - q^k) over the nonempty ks inverts the product on a, and refuses
    the product plus q^j: the product vanishes at q = 1 and q^j does not."""
    product = a * _binomial_product(ks)
    if one_minus_q_quotient(product, ks) != a:
        yield f"quotient by (1 - q^k) over {ks} does not invert the product"
    if _quotient(one_minus_q_quotient, product + LaurentPolynomial({j: 1}), ks) is not None:
        yield f"quotient by (1 - q^k) over {ks} ignored a remainder"


def _product_failures(pairs, ks_lists):
    """Each packed product x * y of pairs against _schoolbook_product, and
    one_minus_q_product of each of ks_lists against _binomial_product."""
    for i, (x, y) in enumerate(pairs):
        if x * y != _schoolbook_product(x, y):
            yield f"packed product is wrong on pair {i}"
    for ks in ks_lists:
        if one_minus_q_product(ks) != _binomial_product(ks):
            yield f"product of (1 - q^k) over {ks} is wrong"


def check_laurent_ring_axioms(limits):
    rng = random.Random(_SEED)
    for _ in range(40):
        a, b, c = (_random_laurent(rng) for _ in range(3))
        yield from _ring_failures(a, b, c, rng.randint(2, 9))
    # quotients by prod (1 - q^k), half the trials with coefficients of 200 bits
    for trial in range(60):
        a = _random_laurent(rng, coeff=1 << 200 if trial % 2 else 9)
        ks = [rng.randint(1, 12) for _ in range(rng.randint(1, 8))]
        yield from _quotient_failures(a, ks, rng.randint(-6, 6))
    # a quotient far larger than its dividend: (1 - q^10)^10 / (1 - q)^10 = [10]_q^10
    geometric = LaurentPolynomial({i: 1 for i in range(10)}) ** 10
    if _quotient(one_minus_q_quotient, _binomial_product([10] * 10), [1] * 10) != geometric:
        yield "quotient by (1 - q)^10 misses one larger than its dividend"
    # packed products, among them equal coefficients whose bound is reached
    pairs = []
    for _ in range(20):
        size = rng.choice([1, 9, 1 << 64, 1 << 200])
        a, b = (_random_laurent(rng, 40, size, rng.randint(16, 60)) for _ in range(2))
        flat = LaurentPolynomial({i: size for i in range(30)})
        pairs += [(a, b), (flat, flat)]
    # (1 - q)^70 fails its bit test, rereads and widens past 64-bit slots; the product over 1..100 passes the test
    yield from _product_failures(pairs, ([1] * 14, [1] * 30, [1] * 70, [1, 2, 2, 3, 5, 8, 13], list(range(1, 101))))


def check_partition_involutions(limits):
    """transpose against the cell swap (r, c) -> (c, r) of the diagram, which
    makes it an involution, and every listed and transposed partition against
    Partition(...), which refuses parts not weakly decreasing and positive."""
    for lam in _partitions_upto(limits, 30):
        lamt = transpose(lam)
        if Partition(lam.parts) != lam or Partition(lamt.parts) != lamt:
            yield f"{lam} or its transpose {lamt} differs from Partition(...) of its parts"
        if set(cells(lamt)) != {(c, r) for r, c in cells(lam)}:
            yield f"transpose of {lam} is not the cell swap of its diagram"
        if hook_lengths(lamt) != hook_lengths(lam):
            yield f"hook multiset changed under transpose at {lam}"


def check_diagonal_u_map(limits):
    """diagonals against the cells counted per antidiagonal, u_map against its
    counting form #{k : d_k >= i}, and the stated properties of u_map, whose
    idempotence follows: u is steep and u_map fixes exactly the steep ones."""
    for lam in _partitions_upto(limits, 30):
        d = diagonals(lam)
        if list(enumerate(d)) != sorted(Counter(r + c for r, c in cells(lam)).items()):
            yield f"diagonals of {lam} are not the cell counts of its antidiagonals"
        u = u_map(lam)
        if u.parts != tuple(sum(dk >= i for dk in d) for i in range(1, max(d, default=0) + 1)):
            yield f"u_map({lam}) = {u} is not the count of diagonals of each length"
        if Partition(u.parts) != u or u.size != lam.size:
            yield f"u_map({lam}) = {u} is no partition of {lam.size}"
        if not is_steep(u):
            yield f"u_map({lam}) = {u} is not steep"
        if (u == lam) != is_steep(lam):
            yield f"u_map fixes {lam} but steepness says otherwise"
        if (is_staircase(u)) != is_staircase(lam):
            yield f"u_map({lam}) hits the staircase unexpectedly"


def check_character_orthogonality(limits):
    for n in range(1, min(limits.max_n, 15) + 1):
        table = character_table(n)
        parts = table.partitions
        weights = [factorial(n) // centralizer_order(mu) for mu in parts]
        rows = [table.row(lam) for lam in parts]
        for i, (lam, row) in enumerate(zip(parts, rows)):
            weighted = [w * a for w, a in zip(weights, row)]
            for nu, other in zip(parts[: i + 1], rows):
                total = sum(map(mul, weighted, other))
                expected = factorial(n) if lam == nu else 0
                if total != expected:
                    yield f"orthogonality fails for ({lam}), ({nu}) at n={n}"
        for lam in parts:
            if table.value(lam, Partition((1,) * n)) != dim_irrep(lam):
                yield f"character at the identity is not the dimension for {lam}"
        # orthogonality cannot see a column with the wrong sign; this can
        if table.row(Partition((n,))) != (1,) * len(parts):
            yield f"the trivial character is not 1 on every class at n={n}"


def check_schur_expansion(limits):
    """Every Hall-pairing numerator from the Schur expansion, which adds
    strips, against sum over mu of chi^lam(mu) W_mu with each chi^lam(mu)
    by strip removal, the rule of mn_character, summed at a width of its
    own: for the staircase of each triangular size and one delta that is
    not a 2-core.  The classes and values w z_mu / n! the pairing keeps are
    the nonzero entries of delta's row in the full table, so chi^delta of a
    staircase is 0 on each class it skips; both routes share those classes."""
    for n in range(1, min(limits.max_n, 15) + 1):
        lams, m, mn, table = enumerate_partitions(n), triangular_index(n), _mn(), character_table(n)
        masks = [_beta_mask(lam.parts, n) for lam in lams]
        deltas = [staircase(m)] if m is not None else []
        for delta in deltas + [lam for lam in lams[len(lams) // 2 :] if not all_hooks_odd(lam)][:1]:
            terms = _class_weights(delta)
            kept = {mu: w * centralizer_order(mu) // factorial(n) for mu, w, _ in terms}
            for mu, value in zip(table.partitions, table.row(delta)):
                if value != kept.get(mu, 0):
                    yield f"chi^({delta}) is {value} on {mu}, not the pairing's {kept.get(mu, 0)}"
            rows = [[mn(mask, mu.parts) for mu, _, _ in terms] for mask in masks]
            tops = [abs(w) * max(map(abs, W)) for _, w, W in terms]
            bits = _slot_bits(max(sum(map(mul, map(abs, row), tops)) for row in rows))
            packed = [w * _pack(W, bits) for _, w, W in terms]
            numerators, width, length = _numerators(delta)
            for mask, lam, row in zip(masks, lams, rows):
                expected = _unpack(sum(map(mul, row, packed)), bits, length)
                if _unpack(numerators.get(mask, 0), width, length) != expected:
                    yield f"Schur expansion against {delta} misses the numerator of {lam}"


def check_fake_degree(limits):
    """Each fake degree f_lam has nonnegative coefficients summing to f^lam,
    and sum over lam of f^lam f_lam is the coinvariant ring's Hilbert series."""
    coinvariants = [1]  # prod over i <= n of [i]_q, by window sums on a list
    for n in range(min(limits.max_n, 12) + 1):
        total = LaurentPolynomial()
        for lam in enumerate_partitions(n):
            f = fake_degree(lam)
            if any(c < 0 for _, c in f.sorted_terms()):
                yield f"fake degree of {lam} has a negative coefficient"
            if f and f.min_exponent() < 0:
                yield f"fake degree of {lam} has a negative exponent"
            if f.coefficient_sum() != dim_irrep(lam):
                yield f"fake degree of {lam} does not sum to the dimension"
            total = total + f.scaled(dim_irrep(lam))
        if total != LaurentPolynomial(enumerate(coinvariants)):
            yield f"fake degrees of size {n} do not sum to the product of [i]_q"
        coinvariants = [sum(coinvariants[max(0, j - n) : j + 1]) for j in range(len(coinvariants) + n)]


def _hook_characters(delta):
    """The isotypic characters of the hooks (n - k, 1^k), k = 0 .. n - 1, of the fiber at delta, n = |delta|, by
    their closed form e_k[B_delta - 1] at t = 1/q: the z^k coefficient of prod (1 + z q^(c - r)) over the cells
    (r, c) of delta other than (0, 0).  It reads only the cells: no Hall pairing, character or Schur expansion."""
    zero, coefficients = LaurentPolynomial(), [LaurentPolynomial.one()]
    for r, c in list(cells(delta))[1:]:
        coefficients = [a + b.shifted(c - r) for a, b in zip(coefficients + [zero], [zero] + coefficients)]
    return coefficients


def check_isotypic_characters(limits):
    """The isotypic pieces of the staircase fiber, and the fiber, in one pass
    per m: each piece is an SL2 character (exponent_runs refuses one that is
    not palindromic or has a negative multiplicity) of dimension
    sum c (w + 1) = dim lam over its runs, equal to its transpose's, each
    hook piece equals its closed form, and the pieces weighted by dim lam
    add up to the fiber, of dimension n!."""
    for m in range(limits.max_m + 1):
        n = m * (m + 1) // 2
        for k, expected in enumerate(_hook_characters(staircase(m)) if m else ()):
            hook = Partition((n - k,) + (1,) * k)
            if isotypic_character(hook) != expected:
                yield f"isotypic character of {hook} differs from its hook closed form"
        total = LaurentPolynomial()
        for lam in enumerate_partitions(n):
            chi, dim = isotypic_character(lam), dim_irrep(lam)
            try:
                runs = exponent_runs(lam)
            except NotACharacterError as exc:
                yield f"isotypic character of {lam} is {exc}"
            else:
                if sum(c * (w + 1) for w, c in runs) != dim:
                    yield f"isotypic character of {lam} has the wrong dimension"
            if chi != isotypic_character(transpose(lam)):
                yield f"isotypic character changes under transpose at {lam}"
            total = total + chi.scaled(dim)
        full = regular_fiber_character(m)
        if full.coefficient_sum() != factorial(n):
            yield f"fiber dimension at m={m} is not {n}!"
        if total != full:
            yield f"sum of dim * isotypic characters misses the fiber at m={m}"


def _decompose_failures(runs):
    """decompose of the character the runs add up to against the runs, and its dimension against sum c (w + 1)."""
    char = sum((irreducible_character(w).scaled(c) for w, c in runs), LaurentPolynomial())
    if decompose(char) != runs:
        yield f"decompose does not invert the reconstruction of {runs}"
    if char.coefficient_sum() != sum(c * (w + 1) for w, c in runs):
        yield f"dimension disagrees with value at q=1 for {runs}"


def check_sl2_decompose_roundtrip(limits):
    """Random runs through _decompose_failures, and a non-character refused."""
    rng = random.Random(_SEED + 2)
    for _ in range(60):
        mult = {rng.randint(0, 8): rng.randint(1, 4) for _ in range(rng.randint(0, 5))}
        yield from _decompose_failures(tuple(sorted(mult.items())))
    try:
        decompose(LaurentPolynomial({1: 1, -1: 1, 0: -1}))
        yield "a non-character was decomposed without complaint"
    except NotACharacterError:
        pass


def check_fiber_layer_factorization(limits):
    for m in range(1, limits.max_m + 1):
        if layered_fiber_character(m) != regular_fiber_character(m):
            yield f"layered factorization misses the fiber character at m={m}"


def check_tangent_factorization(limits):
    for m in range(1, 9):
        lhs = tangent_character(staircase(m))
        rhs = irreducible_character(m) * irreducible_character(m - 1)
        if lhs != rhs:
            yield f"staircase tangent character does not factor at m={m}"


def check_odd_weight_fixed_points(limits):
    """Only a staircase has all hooks odd, and so all tangent weights, which
    are plus and minus the hooks; sl2_fixed_set, read off the triangular
    index, against the partitions with only odd weights, found one by one."""
    for n in range(1, min(limits.max_n, 30) + 1):
        odd = set()
        for lam in enumerate_partitions(n):
            stair, all_odd = is_staircase(lam), weights_all_odd(tangent_character(lam))
            if all_hooks_odd(lam) != stair:
                yield f"odd-hook criterion disagrees with staircase test at {lam}"
            if all_odd != stair:
                yield f"odd-weight criterion disagrees with staircase at {lam}"
            if all_odd:
                odd.add(lam)
        fixed = sl2_fixed_set(n)
        if fixed != odd:
            found, expected = (sorted(str(lam) for lam in s) for s in (fixed, odd))
            yield f"odd-weight fixed set at n={n} is {found}, not {expected}"


def _derivation_stabilizer(lam: Partition) -> str:
    """Stabilizer read off the derivation tests alone: the ideal of lam is
    stable under x d/dy when is_borel_stable(lam), and under y d/dx when the
    x <-> y swap of it is, i.e. when is_borel_stable(transpose(lam))."""
    lamt = transpose(lam)
    under_x_dy, under_y_dx = is_borel_stable(lam), is_borel_stable(lamt)
    if under_x_dy and under_y_dx:
        return "SL2"
    if under_x_dy:
        return "B"
    if under_y_dx:
        return "B_minus"
    return "N_T" if lam == lamt else "T"


def check_orbit_classification(limits):
    """Both spaces against the derivation tests, one stabilizer per partition.
    Hilbert: the stabilizer, the boundary of each orbit that is not closed
    (Borel-stable with the same diagonals, so not the staircase, which alone
    has its diagonals) and the closure edges, exactly the (partition, boundary)
    pairs of the orbits whose stabilizer contains no Borel.  Calogero-Moser:
    every orbit is closed, so a point stable under one derivation only shares
    its orbit with its partner, the transpose, and keeps T.  OrbitReport
    derives the rest.  The scans share transposes and boundaries, so each of
    their nodes must be the report built on its partition alone, and the
    Calogero-Moser scan has no edges."""
    for n in range(min(limits.max_n, 30) + 1):
        graph, cm_graph, edges = closure_graph(n, HILBERT), closure_graph(n, CALOGERO_MOSER), []
        if cm_graph.edges:
            yield f"the Calogero-Moser closure graph at n={n} has edges"
        for lam, rep, cm_node in zip(enumerate_partitions(n), graph.nodes, cm_graph.nodes, strict=True):
            boundary, cm = rep.boundary, cm_orbit(lam)
            if rep != hilb_orbit(lam) or cm_node != cm:
                yield f"closure node at {lam} is not the orbit report built on {lam} alone"
            expected = _derivation_stabilizer(lam)
            if rep.stabilizer != expected:
                yield f"stabilizer at {lam} is {rep.stabilizer}, expected {expected}"
            if expected not in CONTAINS_BOREL:
                edges.append((lam, boundary))
            if boundary is not None and not (is_borel_stable(boundary) and diagonals(boundary) == diagonals(lam)):
                yield f"boundary at {lam} is not steep with the same antidiagonal profile"
            expected = "T" if expected in ("B", "B_minus") else expected
            if cm.stabilizer != expected:
                yield f"Calogero-Moser stabilizer at {lam} is {cm.stabilizer}, expected {expected}"
            if cm.partner is not None and cm.partner != transpose(lam):
                yield f"shared orbit with the transpose misreported at {lam}"
        if graph.edges != tuple(edges):
            yield f"closure edges at n={n} are not the boundaries of the orbits with no Borel in their stabilizer"


def check_monomial_ideal_dims(limits):
    """Graded dimensions against the monomials x^a y^(k-a) counted outside the diagram, one degree past it, and
    the generators outside the diagram, none dividing another."""
    for lam in _partitions_upto(limits, 30):
        ideal = monomial_ideal(lam)
        inside = set(cells(lam))
        for k in range(max(len(ideal.graded_dims), len(lam) + sum(lam.parts[:1])) + 1):
            if ideal.graded_dim(k) != sum((a, k - a) not in inside for a in range(k + 1)):
                yield f"graded dimension at {lam}, degree {k} is off"
        for a, b in ideal.generators:
            if (a, b) in inside:
                yield f"generator ({a},{b}) of {lam} lies inside the diagram"
            if sum(c <= a and d <= b for c, d in ideal.generators) > 1:  # itself, and one it is a multiple of
                yield f"generator ({a},{b}) of {lam} is not minimal"


def _report_json(rep):
    """The JSON object of an orbit report, from its fields; the orbit id, on Calogero-Moser orbits only, by its own
    route: the lesser of the partition and its transpose."""
    obj = {"space": rep.space, "partition": list(rep.partition.parts), "stabilizer": rep.stabilizer,
           "orbit_model": rep.orbit_model, "closed": rep.closed}
    if rep.boundary is not None:
        obj["boundary"] = {"partition": list(rep.boundary.parts), "model": "P1"}
    if rep.partner is not None:
        obj["partner"] = list(rep.partner.parts)
    if rep.space == CALOGERO_MOSER:
        obj["orbit_id"] = str(min(rep.partition, transpose(rep.partition), key=lambda lam: lam.parts))
    return obj


def _closure_json(n, space):
    """The JSON object of `hilb closure n --space space`, with one OrbitReport(space, lam) per partition, not
    through closure_graph's scan."""
    reports = [OrbitReport(space, lam) for lam in enumerate_partitions(n)]
    edges = [[list(rep.partition.parts), list(rep.boundary.parts)] for rep in reports if not rep.closed]
    return {"space": space, "n": n, "nodes": list(map(_report_json, reports)), "edges": edges}


def _exponents_json(n):
    """The JSON object of `cm exponents n`."""
    return {"n": n, "rows": [{"partition": list(lam.parts), "exponents": list(map(list, exponent_runs(lam)))}
                             for lam in enumerate_partitions(n)]}


def _cli_json_cases():
    """(argv, expected): the JSON object that argv prints, built from library values."""
    lam, hooked = Partition((4, 3, 3, 1, 1)), Partition((2, 1))
    chi, ideal = tangent_character(hooked), monomial_ideal(hooked)
    info = {"partition": list(lam.parts), "length": len(lam), "size": lam.size, "transpose": list(transpose(lam).parts),
            "is_steep": is_steep(lam), "is_staircase": is_staircase(lam), "all_hooks_odd": all_hooks_odd(lam),
            "hooks": list(hook_lengths(lam)), "hook_polynomial": hook_polynomial(lam).to_json(), "n_stat": n_stat(lam),
            "dim_irrep": dim_irrep(lam), "diagonals": list(diagonals(lam)), "u_map": list(u_map(lam).parts),
            "is_borel_stable": is_borel_stable(lam)}
    return [
        (["part", "info", "4,3,3,1,1"], info),
        (["cm", "orbit", "3,1"], _report_json(cm_orbit(Partition((3, 1))))),
        (["cm", "exponents", "6"], _exponents_json(6)),
        (["cm", "char-L", "2"], {"m": 2, "character": regular_fiber_character(2).to_json(), "dimension": factorial(3)}),
        (["cm", "tangent", "2,1"],
         {"partition": [2, 1], "character": chi.to_json(), "weights_all_odd": weights_all_odd(chi)}),
        (["cm", "fixed", "6"], {"n": 6, "fixed": sorted(list(mu.parts) for mu in sl2_fixed_set(6))}),
        (["hilb", "orbit", "2,2"], _report_json(hilb_orbit(Partition((2, 2))))),
        (["hilb", "ideal", "2,1"],
         {"shape": [2, 1], "generators": list(map(list, ideal.generators)), "graded_dims": list(ideal.graded_dims)}),
        # 10 is the least size whose Hilbert orbits have all five stabilizers (6 has no N_T)
        (["hilb", "closure", "10"], _closure_json(10, HILBERT)),
        (["hilb", "closure", "10", "--space", CALOGERO_MOSER], _closure_json(10, CALOGERO_MOSER)),
    ]


def _first_difference(got, expected, path=""):
    """Where unequal JSON values first differ, as "got at path, expected expected": keys sorted, a list index
    taken as a key, each value cut to 60 characters; the path stops at a change of type, length or key set."""
    if isinstance(got, list) and isinstance(expected, list) and len(got) == len(expected):
        got, expected = dict(enumerate(got)), dict(enumerate(expected))
    if isinstance(got, dict) and isinstance(expected, dict) and sorted(got) == sorted(expected):
        return next(_first_difference(got[k], expected[k], f"{path}.{k}") for k in sorted(got) if got[k] != expected[k])
    got, expected = (text if len(text) <= 60 else text[:57] + "..." for text in map(json.dumps, (got, expected)))
    return f"{got} at {path or '.'}, expected {expected}"


def check_cli_json_roundtrip(limits):
    """Each command's JSON, byte for byte, against json.dumps(expected, indent=2, sort_keys=True), expected the
    object built from library values; a reply that decodes to expected differs only in its bytes."""
    from .cli import main

    for argv, expected in _cli_json_cases():
        command = " ".join(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--format", "json"])
        if code != 0:
            yield f"command {command} exited with {code}"
        elif buf.getvalue() != json.dumps(expected, indent=2, sort_keys=True) + "\n":
            got = json.loads(buf.getvalue())
            if got == expected:
                yield f"command {command} JSON differs from json.dumps(..., indent=2, sort_keys=True)"
            else:
                yield f"command {command} JSON decodes to {_first_difference(got, expected)}"


CHECKS = {
    name[len("check_"):].replace("_", "-"): lambda limits, check=check: list(check(limits))
    for name, check in list(globals().items())
    if name.startswith("check_")
}


def run_checks(names, limits: Limits) -> bool:
    """Run the named checks in the order given, repeats included; print one
    line per check and a total, and return True when all of them pass."""
    ok = True
    passed = 0
    for name in names:
        try:
            failures = CHECKS[name](limits)
        except Exception as exc:  # a raising check is one failed check, not the end of the run
            failures = [f"raised {type(exc).__name__}: {exc}"]
        if failures:
            ok = False
            extra = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
            print(f"FAIL {name}: {failures[0]}{extra}")
        else:
            passed += 1
            print(f"PASS {name}")
    print(f"{passed}/{len(names)} checks passed")
    return ok
