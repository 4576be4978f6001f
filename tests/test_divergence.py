"""Power counting and the subgraph convergence test."""

import pytest

from feynperiods.divergence import (
    IntegrandSpec,
    is_phi4,
    is_primitive,
    projective_degree,
    subgraph_loop_number,
    weight_bound,
)
from feynperiods.graphs import Edge, ExternalLeg, FeynmanGraph, load_graph
from feynperiods.polynomials import SparsePolynomial

triangle = load_graph("fixtures/triangle.json")
banana = load_graph("fixtures/banana.json")
fourgraph = load_graph("fixtures/fourgraph.json")
k4 = load_graph("fixtures/k4.json")
wheel4 = load_graph("fixtures/wheel4.json")


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegrandSpec(psi_power=-1)
    with pytest.raises(ValueError):
        IntegrandSpec(numerator="a1")
    assert IntegrandSpec().numerator == SparsePolynomial.one()
    for power in (2.0, True):
        with pytest.raises(ValueError, match="psi_power must be an integer"):
            IntegrandSpec(psi_power=power)
        with pytest.raises(ValueError, match="xi_power must be an integer"):
            IntegrandSpec(xi_power=power)


def test_projective_degree():
    assert projective_degree(k4, IntegrandSpec()) == 0
    assert projective_degree(wheel4, IntegrandSpec()) == 0
    assert projective_degree(banana, IntegrandSpec()) == 0
    assert projective_degree(triangle, IntegrandSpec()) == 1
    assert projective_degree(triangle, IntegrandSpec(psi_power=1, xi_power=1)) == 0
    num = SparsePolynomial.variable(1) * SparsePolynomial.variable(2)
    assert projective_degree(triangle, IntegrandSpec(numerator=num, psi_power=1, xi_power=2)) == 0
    assert projective_degree(banana, IntegrandSpec(numerator=num, psi_power=2)) == 2
    with pytest.raises(ValueError, match="homogeneous"):
        projective_degree(triangle, IntegrandSpec(numerator=SparsePolynomial.variable(1) + 1))


def test_subgraph_loop_number():
    assert subgraph_loop_number(k4, (1, 2, 4)) == 1  # a triangle
    assert subgraph_loop_number(k4, (1, 6)) == 0
    assert subgraph_loop_number(k4, tuple(k4.edge_ids())) == 3
    assert subgraph_loop_number(k4, (1, 1)) == subgraph_loop_number(k4, (1,)) == 0
    assert subgraph_loop_number(fourgraph, (3, 4)) == 1


def test_primitive_graphs():
    assert is_primitive(k4) == (True, None)
    assert is_primitive(wheel4) == (True, None)
    assert is_primitive(banana) == (True, None)


def test_subdivergence_witness():
    ok, witness = is_primitive(fourgraph)
    assert not ok
    assert witness == (3, 4)  # the parallel pair: 2 edges, loop number 1


def test_self_loop_is_a_subdivergence():
    g = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v")), Edge(2, ("u", "u")), Edge(3, ("u", "v"))),
    )
    ok, witness = is_primitive(g)
    assert not ok
    assert witness == (2,)


def test_primitive_needs_connected():
    g = FeynmanGraph(vertices=("u", "v"), edges=())
    with pytest.raises(ValueError, match="connected"):
        is_primitive(g)


def test_phi4_eligibility():
    assert is_phi4(k4)
    assert is_phi4(wheel4)  # the hub has exactly four spokes
    assert is_phi4(triangle)  # two edges and one leg per vertex
    star5 = FeynmanGraph(
        vertices=("c", "x1", "x2", "x3", "x4", "x5"),
        edges=tuple(Edge(i, ("c", f"x{i}")) for i in range(1, 6)),
    )
    assert not is_phi4(star5)
    looped = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "u")), Edge(2, ("u", "v")), Edge(3, ("u", "v"))),
    )
    assert is_phi4(looped)  # self-loop counts twice: degree of u is exactly 4
    crowded = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "u")), Edge(2, ("u", "v")), Edge(3, ("u", "v")), Edge(4, ("u", "v"))),
    )
    assert not is_phi4(crowded)  # degree 5 at u
    with_legs = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v")), Edge(2, ("u", "v")), Edge(3, ("u", "v")), Edge(4, ("u", "v"))),
        legs=(ExternalLeg("u", (0, 0, 0, 0)),),
    )
    assert not is_phi4(with_legs)  # the leg pushes u to five half-edges


def test_weight_bound():
    assert weight_bound(k4) == 12
    assert weight_bound(wheel4) == 16
    assert weight_bound(triangle) == 4
