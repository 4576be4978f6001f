"""Power counting and the subgraph convergence test."""

import sys
import threading
import tracemalloc
from math import comb

import pytest

from feynperiods import graphs
from feynperiods.divergence import (
    IntegrandSpec,
    convergence,
    is_phi4,
    is_primitive,
    projective_degree,
    subgraph_loop_number,
    weight_bound,
)
from feynperiods.graphs import (
    Edge, ExternalLeg, FeynmanGraph, _joins, _layout, graph_from_dict, load_graph,
)
from feynperiods.polynomials import SparsePolynomial, parse_polynomial
from feynperiods.symanzik import psi_enumerate, spanning_two_forests

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


def wheel(n):
    """The wheel with n spokes: 2n edges, n loops, primitive."""
    rim = [f"r{i}" for i in range(n)]
    ends = [("hub", r) for r in rim] + [(rim[i], rim[(i + 1) % n]) for i in range(n)]
    return graph_from_dict({
        "vertices": ["hub", *rim],
        "edges": [{"id": i, "ends": list(e)} for i, e in enumerate(ends, 1)],
    })


def test_convergence_of_numerators_over_psi_cubed():
    def spec(text):
        return IntegrandSpec(numerator=parse_polynomial(text), psi_power=3)

    assert convergence(k4, IntegrandSpec()) == (True, None, None, True)
    assert convergence(fourgraph, IntegrandSpec()) == (False, (3, 4), 0, True)
    # the triangle 1, 2, 4 has ord 3 in psi^3 and ord 0 in a5^2*a6: the
    # smallest failing set, ahead of the five edges {1, 2, 3, 5, 6} where a4^3 has omega -1
    assert convergence(k4, spec("2*a1*a2*a3 + a4^3 + 1/3*a5^2*a6")) == (False, (1, 2, 4), 0, True)
    assert convergence(k4, spec("a1*a2*a3")) == (False, (4, 5, 6), 0, True)  # a vertex star
    # squarefree triples that are no vertex star converge, and so do their sums
    assert convergence(k4, spec("2*a1*a2*a4 + a1*a3*a5 + 1/3*a4*a5*a6")) == (True, None, None, True)
    assert convergence(k4, IntegrandSpec(numerator=SparsePolynomial.zero(), psi_power=3))[0]


def test_convergence_with_xi():
    massless = IntegrandSpec(psi_power=0, xi_power=1)
    # xi = a1*a2: ord 1 on one edge, so omega = 1 - 1
    assert convergence(banana, massless) == (False, (1,), 0, False)
    # 1/(psi^2 xi) times a1*a2 is 1/(a1 + a2)^2: no witness, but a massless
    # edge leaves the test necessary only
    spec = IntegrandSpec(numerator=parse_polynomial("a1*a2"), psi_power=2, xi_power=1)
    assert convergence(banana, spec) == (True, None, None, False)
    massive = FeynmanGraph(
        vertices=banana.vertices,
        edges=tuple(Edge(e.id, e.ends, 1) for e in banana.edges),
        legs=banana.legs,
    )
    assert convergence(massive, massless) == (True, None, None, True)
    assert convergence(triangle, IntegrandSpec(psi_power=1, xi_power=1)) == (True, None, None, True)
    with pytest.raises(ValueError, match="xi vanishes identically"):
        convergence(fourgraph, IntegrandSpec(psi_power=1, xi_power=1))


def test_numerator_variables_must_be_edges():
    spec = IntegrandSpec(numerator=parse_polynomial("a1*a4*a9 + a7*a2*a4"), psi_power=3)
    with pytest.raises(ValueError, match="numerator variable a7 names no edge"):
        convergence(k4, spec)


def test_powers_beyond_the_table_are_refused():
    # omega is an exact Python int at any size, but a power this large
    # overflows or underflows every floating sample of the integrand
    for spec in (
        IntegrandSpec(psi_power=1 << 62),
        IntegrandSpec(xi_power=1 << 31),
        IntegrandSpec(numerator=SparsePolynomial({((1, 1 << 40),): 1})),
    ):
        with pytest.raises(ValueError, match="powers and a numerator degree below 2\\^31"):
            convergence(triangle, spec)


def test_layer_limit_refuses_before_building_the_layer():
    w20 = wheel(20)
    assert w20.n_edges == 40 and is_primitive(wheel(10)) == (True, None)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="on 40 edges needs 13818168 table entries for "
                                             "the 658008 subsets of size 5"):
            is_primitive(w20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # less than the refused layer's vertex classes alone, at one byte each
    assert peak < comb(40, 5) * len(w20.vertices)


def cycle(n):
    return graph_from_dict({
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [{"id": i + 1, "ends": [f"v{i}", f"v{(i + 1) % n}"]} for i in range(n)],
    })


def test_vertex_classes_fit_in_one_byte():
    # 256 vertices label their classes in one byte: the single edges pass,
    # and the pairs are refused by the layer cap
    with pytest.raises(ValueError, match="on 256 edges needs 8355840 table entries"):
        is_primitive(cycle(256))
    with pytest.raises(ValueError, match="257 vertices, more than 256"):
        is_primitive(cycle(257))


def test_graphs_of_one_vertex_count_share_one_join_table():
    first, second = (_layout(cycle(5)).vertex_classes("the walk")[1] for _ in range(2))
    assert first is second
    for n in range(13):
        joins = _joins(n)
        for a in range(n):
            for b in range(a):
                assert joins[a][b] is joins[b][a]
                assert joins[a][b] == bytes.maketrans(bytes((a,)), bytes((b,)))


def test_a_smaller_graph_reads_the_larger_join_table():
    # one table per process, replaced only to grow: an 8-vertex sweep reads
    # rows and columns below 8 of the table that covers 64
    big = _joins(64)
    assert len(big) >= 64
    assert _joins(8) is big
    assert _layout(cycle(8)).vertex_classes("the walk")[1] is big


def test_join_table_grows_safely_under_threads(monkeypatch):
    # threads that grow the table at once each get a table that covers
    # their own count, and the table never shrinks
    monkeypatch.setattr(graphs, "_join_table", ())
    short = []

    def ask(counts):
        for n in counts:
            if len(_joins(n)) < n:
                short.append(n)

    threads = [threading.Thread(target=ask, args=(range(k, 80, 4),)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert short == []
    assert len(_joins(0)) == 79


def test_forest_sweeps_share_the_one_byte_limit():
    # the forest sweep reads the walk's byte classes, so it stops where the walk does
    assert len(psi_enumerate(cycle(256)).terms) == 256
    for sweep in (psi_enumerate, spanning_two_forests):
        with pytest.raises(
            ValueError,
            match="the forest sweep labels vertex classes in one byte: 257 vertices, more than 256",
        ):
            sweep(cycle(257))


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
