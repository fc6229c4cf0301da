import json
import sys

import pytest

import cmhilb.orbits as orbits_module
import cmhilb.partitions as partitions_module
from cmhilb import (
    CALOGERO_MOSER,
    HILBERT,
    OrbitReport,
    Partition,
    closure_graph,
    cm_orbit,
    diagonals,
    enumerate_partitions,
    hilb_orbit,
    is_borel_stable,
    is_staircase,
    monomial_ideal,
    staircase,
    transpose,
    triangular_index,
    u_map,
    verify,
)
from cmhilb.cli import main
from cmhilb.orbits import CONTAINS_BOREL, ORBIT_MODEL
from cmhilb.verify import CHECKS, Limits


def test_monomial_ideal_box():
    ideal = monomial_ideal(Partition((1,)))
    assert set(ideal.generators) == {(1, 0), (0, 1)}
    assert ideal.graded_dims[:3] == (0, 2, 3)
    assert ideal.graded_dim(10) == 11
    assert set(ideal.generator_strings()) == {"x", "y"}


def test_monomial_ideal_two_one():
    ideal = monomial_ideal(Partition((2, 1)))
    assert set(ideal.generators) == {(0, 2), (1, 1), (2, 0)}
    assert ideal.graded_dim(0) == 0
    assert ideal.graded_dim(1) == 0
    assert ideal.graded_dim(2) == 3
    assert set(ideal.generator_strings()) == {"y^2", "x y", "x^2"}


def test_monomial_ideal_staircase_is_power_of_maximal_ideal():
    # for the staircase the ideal is everything of degree at least m
    for m in range(1, 6):
        ideal = monomial_ideal(staircase(m))
        assert all(a + b == m for a, b in ideal.generators)
        for k in range(m):
            assert ideal.graded_dim(k) == 0
        for k in range(m, m + 3):
            assert ideal.graded_dim(k) == k + 1


def test_borel_stability_examples():
    assert is_borel_stable(Partition((3, 1)))
    assert not is_borel_stable(Partition((2, 2)))


def test_monomial_ideal_dims_check_counts_the_monomials(monkeypatch):
    # monomial_ideal reads its dimensions as k + 1 - d_k; one more cell on the antidiagonal just past the
    # diagram makes it one short at k = len(d), and the check, which counts monomials, reports exactly that
    lams = [lam for n in range(7) for lam in enumerate_partitions(n)]
    with monkeypatch.context() as m:
        m.setattr(orbits_module, "diagonals", lambda lam: diagonals(lam) + (1,))
        failures = CHECKS["monomial-ideal-dims"](Limits(max_n=6))
    assert failures == [f"graded dimension at {lam}, degree {len(diagonals(lam))} is off" for lam in lams]

    # x y^b beside the first generator y^b, b the first part, lies outside the diagram, but is not minimal
    def dominated(lam):
        ideal = monomial_ideal(lam)
        return ideal._replace(generators=ideal.generators + ((1, ideal.generators[0][1]),))

    monkeypatch.setattr(verify, "monomial_ideal", dominated)
    failures = CHECKS["monomial-ideal-dims"](Limits(max_n=6))
    assert failures == [f"generator (1,{sum(lam.parts[:1])}) of {lam} is not minimal" for lam in lams]


def test_borel_stability_is_steepness():
    # hilb_orbit reads steepness and the check reads the derivation tests,
    # so the stabilizers agree exactly when is_borel_stable is is_steep
    assert CHECKS["orbit-classification"](Limits(max_n=12)) == []


def test_orbit_check_catches_wrong_steepness(monkeypatch):
    real = partitions_module.is_steep

    def wrong(lam):  # reads every even-size steep non-staircase as non-steep
        return real(lam) and (lam.size % 2 == 1 or is_staircase(lam))

    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.startswith("cmhilb") and getattr(module, "is_steep", None) is real:
                m.setattr(module, "is_steep", wrong)
        assert hilb_orbit(Partition((3, 1))).stabilizer != "B"
        assert CHECKS["orbit-classification"](Limits(max_n=12))
    # a Hilbert report that breaks the B <-> B_minus conjugation at one partition: 2,1,1 reads B, as its transpose does
    real_report, flipped = orbits_module._report, Partition((2, 1, 1))

    def flip(space, lam, *rest):
        rep = real_report(space, lam, *rest)
        return rep._replace(stabilizer="B") if space == HILBERT and lam == flipped else rep

    monkeypatch.setattr(orbits_module, "_report", flip)
    assert CHECKS["orbit-classification"](Limits(max_n=12)) == ["stabilizer at 2,1,1 is B, expected B_minus"]


def test_orbit_check_catches_wrong_borel_stability(monkeypatch):
    def wrong(lam):  # reads every even-size steep non-staircase as not Borel-stable
        return is_borel_stable(lam) and (lam.size % 2 == 1 or is_staircase(lam))

    monkeypatch.setattr(verify, "is_borel_stable", wrong)
    failures = CHECKS["orbit-classification"](Limits(max_n=12))
    assert "stabilizer at 3,1 is B, expected T" in failures


def test_hilb_orbit_running_example():
    rep = hilb_orbit(Partition((4, 3, 3, 1, 1)))
    assert rep.stabilizer == "T"
    assert not rep.closed
    assert rep.boundary == Partition((5, 4, 2, 1))
    assert rep.orbit_model == "SL2_mod_T"


def test_hilb_orbit_steep_and_self_transpose():
    rep = hilb_orbit(Partition((3, 1)))
    assert rep.stabilizer == "B" and rep.closed and rep.orbit_model == "P1"
    rep = hilb_orbit(Partition((2, 2)))
    assert rep.stabilizer == "N_T" and not rep.closed
    assert rep.boundary == Partition((3, 1))
    rep = hilb_orbit(Partition((2, 1, 1)))
    assert rep.stabilizer == "B_minus" and rep.closed
    rep = hilb_orbit(staircase(3))
    assert rep.stabilizer == "SL2" and rep.orbit_model == "point" and rep.closed


def test_cm_orbit_examples():
    rep = cm_orbit(Partition((3, 2, 1)))
    assert rep.stabilizer == "SL2" and rep.orbit_model == "point" and rep.closed
    rep = cm_orbit(Partition((2, 2)))
    assert rep.stabilizer == "N_T" and rep.orbit_model == "SL2_mod_NT" and rep.closed
    rep = cm_orbit(Partition((3, 1)))
    assert rep.stabilizer == "T" and rep.orbit_model == "SL2_mod_T"
    assert rep.partner == Partition((2, 1, 1))


def test_orbit_check_catches_a_wrong_cm_partner_or_stabilizer(monkeypatch):
    # the Calogero-Moser side shares the Hilbert side's stabilizer, so a
    # partner that is not the transpose, or a stabilizer not mapped from it,
    # must still fail the one orbit check
    real = verify.cm_orbit
    faults = [
        (lambda rep: rep._replace(partner=rep.partner and rep.partition),
         "shared orbit with the transpose misreported at 3,1"),
        (lambda rep: rep._replace(stabilizer="T") if rep.stabilizer == "N_T" else rep,
         "Calogero-Moser stabilizer at 2,2 is T, expected N_T"),
        (lambda rep: rep._replace(stabilizer="B") if rep.partition == Partition((3, 1)) else rep,
         "Calogero-Moser stabilizer at 3,1 is B, expected T"),
    ]
    for fault, message in faults:
        with monkeypatch.context() as m:
            m.setattr(verify, "cm_orbit", lambda lam, fault=fault: fault(real(lam)))
            assert message in CHECKS["orbit-classification"](Limits(max_n=6))


def test_cm_partner_orbits_share_identifier(capsys):
    ids = []
    for lam in ("3,1", "2,1,1"):
        assert main(["cm", "orbit", lam, "--format", "json"]) == 0
        ids.append(json.loads(capsys.readouterr().out)["orbit_id"])
    assert ids == [cm_orbit(Partition((2, 1, 1))).orbit_id] * 2 == ["2,1,1"] * 2


def test_closure_graph_four():
    graph = closure_graph(4, HILBERT)
    assert graph.edges == ((Partition((2, 2)), Partition((3, 1))),)
    closed = {str(n.partition) for n in graph.nodes if n.closed}
    assert closed == {"4", "3,1", "2,1,1", "1,1,1,1"}


def test_closure_graph_edges_target_steep_non_staircase(monkeypatch):
    # the orbit check rebuilds the edges from the boundaries it checks, so a
    # transposed boundary, or an edge out of a closed orbit, fails it
    real_report, real_graph = orbits_module._report, orbits_module.closure_graph

    def transposed_boundary(*args):
        rep = real_report(*args)
        return rep if rep.closed else rep._replace(boundary=transpose(rep.boundary))

    def staircase_boundary(*args):
        rep = real_report(*args)
        m = triangular_index(rep.partition.size)
        return rep if rep.closed or m is None else rep._replace(boundary=staircase(m))

    def edges_out_of_b_minus(n, space):
        graph = real_graph(n, space)
        extra = [(node.partition, u_map(node.partition)) for node in graph.nodes if node.stabilizer == "B_minus"]
        return graph._replace(edges=graph.edges + tuple(extra))

    check = CHECKS["orbit-classification"]
    with monkeypatch.context() as m:
        m.setattr(orbits_module, "_report", transposed_boundary)
        assert "boundary at 2,2 is not steep with the same antidiagonal profile" in check(Limits(max_n=12))
    with monkeypatch.context() as m:
        m.setattr(verify, "closure_graph", edges_out_of_b_minus)
        assert check(Limits(max_n=12))[0].startswith("closure edges at n=2 are not the boundaries")
    # a staircase boundary cannot share the diagonals of an orbit that is not closed
    with monkeypatch.context() as m:
        m.setattr(orbits_module, "_report", staircase_boundary)
        assert check(Limits(max_n=12))[0] == "boundary at 4,1,1 is not steep with the same antidiagonal profile"


def test_closure_scans_share_boundaries_and_partners():
    # one boundary object per sorted antidiagonal profile, and each T node's
    # partner is its mate node's own partition
    edges = closure_graph(20, HILBERT).edges
    assert len(edges) == 499 and len({id(boundary) for _, boundary in edges}) == 59
    nodes = closure_graph(20, CALOGERO_MOSER).nodes
    own = {node.partition.parts: node.partition for node in nodes}
    mates = [node for node in nodes if node.stabilizer == "T"]
    assert len(mates) == 620 and all(node.partner is own[node.partner.parts] for node in mates)


@pytest.mark.parametrize("fault, message", [
    ("boundary", "closure node at 3,2,2 is not the orbit report built on 3,2,2 alone"),
    ("partner", "closure node at 3,1 is not the orbit report built on 3,1 alone"),
    ("profile", "closure node at 3,1,1 is not the orbit report built on 3,1,1 alone"),
])
def test_orbit_check_catches_a_wrongly_shared_boundary_or_partner(monkeypatch, fault, message):
    # each scan node is checked against the report built on its partition alone,
    # which takes its own transpose and u_map
    real_graph, real_diagonals = orbits_module.closure_graph, orbits_module.diagonals

    def shared_wrongly(n, space):
        graph = real_graph(n, space)
        nodes = {str(node.partition): node for node in graph.nodes}
        if fault == "boundary" and (n, space) == (7, HILBERT):  # 3,2,2 gets the boundary of 5,1,1
            nodes["3,2,2"] = nodes["3,2,2"]._replace(boundary=nodes["5,1,1"].boundary)
        if fault == "partner" and (n, space) == (4, CALOGERO_MOSER):  # 3,1 gets the partition of 2,2
            nodes["3,1"] = nodes["3,1"]._replace(partner=nodes["2,2"].partition)
        return graph._replace(nodes=tuple(nodes.values()))

    if fault == "profile":  # the scan keys boundaries by the first two antidiagonals alone
        monkeypatch.setattr(orbits_module, "diagonals", lambda lam: real_diagonals(lam)[:2])
    else:
        monkeypatch.setattr(verify, "closure_graph", shared_wrongly)
    assert CHECKS["orbit-classification"](Limits(max_n=12))[0] == message


def test_cm_closure_graph_edgeless():
    # every Calogero-Moser orbit is closed, so no node sends an edge
    for n in range(1, 13):
        assert closure_graph(n, CALOGERO_MOSER).edges == ()


def test_closure_graph_serializations(capsys):
    # the CLI writes the graph; each format shows the one edge of n = 4
    assert main(["hilb", "closure", "4"]) == 0
    assert capsys.readouterr().out == "2,2 -> 3,1\n"
    assert main(["hilb", "closure", "4", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["edges"] == [[[2, 2], [3, 1]]]
    assert obj == verify._closure_json(4, HILBERT)
    assert main(["hilb", "closure", "4", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph closure {")
    assert '"2,2" -> "3,1";' in dot


def test_orbit_report_validation():
    with pytest.raises(ValueError, match="unknown space 'affine'"):
        OrbitReport("affine", Partition((2, 2)))
    # every field follows from the space and the partition: each stabilizer has
    # one orbit model, a Hilbert orbit is closed exactly when its stabilizer
    # contains a Borel and every Calogero-Moser orbit is, only a non-closed
    # Hilbert orbit records its boundary, and only a Calogero-Moser orbit with
    # stabilizer T records its partner
    for lam in (mu for n in range(11) for mu in enumerate_partitions(n)):
        for space in (HILBERT, CALOGERO_MOSER):
            rep = OrbitReport(space, lam)
            assert (rep.space, rep.partition) == (space, lam)
            assert rep.orbit_model == ORBIT_MODEL[rep.stabilizer]
            assert rep.closed == (space == CALOGERO_MOSER or rep.stabilizer in CONTAINS_BOREL)
            hilbert_open = space == HILBERT and not rep.closed
            assert rep.boundary == (u_map(lam) if hilbert_open else None)
            cm_t = space == CALOGERO_MOSER and rep.stabilizer == "T"
            assert rep.partner == (transpose(lam) if cm_t else None)
            assert space == HILBERT or rep.stabilizer not in ("B", "B_minus")


def test_unknown_space_rejected():
    with pytest.raises(ValueError):
        closure_graph(4, "quot-scheme")
