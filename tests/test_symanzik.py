"""Graph polynomials: enumeration, determinant route, partial factorizations."""

import pickle
from fractions import Fraction

import pytest

from feynperiods.graphs import (
    Edge,
    ExternalLeg,
    FeynmanGraph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
)
from feynperiods.polynomials import SparsePolynomial
from feynperiods.symanzik import (
    SymanzikSet,
    mass_term,
    partial_factor_psi,
    phi,
    psi_determinant,
    psi_enumerate,
    psi_subgraph,
    spanning_trees,
    spanning_two_forests,
    xi,
    xi_partial_factor_ir,
    xi_partial_factor_uv,
)

a = {i: SparsePolynomial.variable(i) for i in range(1, 9)}

triangle = load_graph("fixtures/triangle.json")
banana = load_graph("fixtures/banana.json")
fourgraph = load_graph("fixtures/fourgraph.json")
k4 = load_graph("fixtures/k4.json")
wheel4 = load_graph("fixtures/wheel4.json")


def tadpole():
    return FeynmanGraph(vertices=("u",), edges=(Edge(1, ("u", "u")),))


def test_spanning_tree_counts():
    assert len(spanning_trees(triangle)) == 3
    assert len(spanning_trees(k4)) == 16
    assert len(spanning_trees(wheel4)) == 45
    assert spanning_trees(fourgraph) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    # a single vertex has the empty tree; a self-loop never enters a tree
    assert spanning_trees(tadpole()) == [()]


def test_spanning_trees_need_connected():
    g = FeynmanGraph(vertices=("u", "v"), edges=())
    with pytest.raises(ValueError, match="connected"):
        spanning_trees(g)


def test_two_forests_triangle():
    forests = spanning_two_forests(triangle)
    assert len(forests) == 3
    for (edges_a, verts_a), (edges_b, verts_b) in forests:
        assert len(edges_a) + len(edges_b) == 1
        assert sorted(verts_a + verts_b) == ["v1", "v2", "v3"]
        assert verts_a[0] == min(verts_a + verts_b)


def test_triangle_polynomials_match_display():
    s = SymanzikSet.of(triangle)
    assert s.psi == a[1] + a[2] + a[3]
    assert s.psi.render() == "a1 + a2 + a3"
    # phi = q1^2 a2 a3 + q2^2 a1 a3 + q3^2 a1 a2 with the momentum squared
    # of the leg at the vertex opposite each edge; here 1, 4 and 5
    assert s.phi == a[2] * a[3] + 4 * a[1] * a[3] + 5 * a[1] * a[2]
    # xi = phi + (m1^2 a1 + m2^2 a2 + m3^2 a3) psi with masses 1, 2, 3
    masses = a[1] + 2 * a[2] + 3 * a[3]
    assert s.xi == s.phi + masses * s.psi
    assert mass_term(triangle) == masses
    assert s.loop_number == 1


def test_banana_polynomials():
    s = SymanzikSet.of(banana)
    assert s.psi == a[1] + a[2]
    assert s.phi == a[1] * a[2]  # (q^2 = 1) times the product of both edges
    assert s.xi == a[1] * a[2]  # massless


def test_fourgraph_psi_display():
    assert psi_enumerate(fourgraph).render() == "a1*a3 + a1*a4 + a2*a3 + a2*a4 + a3*a4"


def test_tadpole_psi():
    assert psi_enumerate(tadpole()) == a[1]


def test_determinant_equals_enumeration():
    mixed = FeynmanGraph(
        vertices=("u", "v", "w"),
        edges=(
            Edge(1, ("u", "v")),
            Edge(2, ("u", "v")),
            Edge(3, ("v", "w")),
            Edge(4, ("w", "w")),
            Edge(5, ("u", "w")),
        ),
    )
    for g in (triangle, banana, fourgraph, k4, wheel4, tadpole(), mixed):
        assert psi_determinant(g) == psi_enumerate(g)


def test_psi_homogeneous_of_loop_degree():
    for g in (triangle, banana, fourgraph, k4, wheel4):
        assert psi_enumerate(g).is_homogeneous() == g.loop_number()


def test_deletion_contraction():
    # for an edge lying on a cycle: psi_G = a_e psi_{G minus e} + psi_{G/e}
    for g in (fourgraph, k4, wheel4):
        for e in g.edge_ids():
            split = a[e] * psi_enumerate(g.delete_edge(e)) + psi_enumerate(g.contract_subgraph((e,)))
            assert split == psi_enumerate(g), f"edge {e}"


def test_phi_requires_momentum_conservation():
    g = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v")), Edge(2, ("u", "v"))),
        legs=(ExternalLeg("u", (1, 0, 0, 0)),),
    )
    with pytest.raises(ValueError, match="sum to zero"):
        phi(g)


def test_phi_zero_without_legs():
    assert phi(k4).is_zero()
    assert xi(k4).is_zero()


def test_massive_banana_xi():
    g = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v"), Fraction(1)), Edge(2, ("u", "v"), Fraction(1))),
        legs=(ExternalLeg("u", (1, 0, 0, 0)), ExternalLeg("v", (-1, 0, 0, 0))),
    )
    assert xi(g) == a[1] * a[2] + (a[1] + a[2]) ** 2


def test_partial_factor_worked_examples():
    f = partial_factor_psi(fourgraph, (3, 4))
    assert f.factor_sub == a[3] + a[4]
    assert f.factor_quotient == a[1] + a[2]
    assert f.remainder == a[3] * a[4]
    assert f.recombine() == psi_enumerate(fourgraph)

    f = partial_factor_psi(fourgraph, (1, 2, 3))
    assert f.factor_sub == a[1] + a[2] + a[3]
    assert f.factor_quotient == a[4]
    assert f.remainder == a[1] * a[3] + a[2] * a[3]
    assert f.recombine() == psi_enumerate(fourgraph)


def test_partial_factor_remainder_degree_property():
    # every remainder term must vanish to higher order in the subgraph
    # variables than psi_gamma itself does
    for g in (fourgraph, k4):
        h = g.loop_number()
        for gamma in g.enumerate_subgraphs():
            f = partial_factor_psi(g, gamma)
            h_gamma = g.induced_subgraph(gamma).loop_number()
            assert f.factor_sub.is_homogeneous() == h_gamma
            assert f.factor_quotient.is_homogeneous() == h - h_gamma
            assert f.recombine() == psi_enumerate(g)
            if not f.remainder.is_zero():
                assert f.remainder.degree_in_vars(gamma)[0] > h_gamma


def test_psi_subgraph_disconnected_factorizes():
    gamma = (1, 6)  # two disjoint edges of k4, no loops
    assert psi_subgraph(k4, gamma) == SparsePolynomial.one()
    # a triangle of wheel4 plus a far-away rim edge: the product of the
    # component polynomials, one of which is trivial
    gamma = (1, 2, 5, 7)
    assert psi_subgraph(wheel4, gamma) == a[1] + a[2] + a[5]


def test_uv_split_on_triangle():
    f = xi_partial_factor_uv(triangle, (1,))
    assert f.factor_sub == SparsePolynomial.one()
    assert f.recombine() == xi(triangle)
    if not f.remainder.is_zero():
        assert f.remainder.degree_in_vars((1,))[0] > 0

    f = xi_partial_factor_uv(fourgraph, (3, 4))
    assert f.factor_sub == a[3] + a[4]
    assert f.recombine() == xi(fourgraph)


def test_ir_split():
    g = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v")), Edge(2, ("u", "v")), Edge(3, ("u", "v"))),
        legs=(ExternalLeg("u", (1, 0, 0, 0)), ExternalLeg("v", (-1, 0, 0, 0))),
    )
    f = xi_partial_factor_ir(g, (1, 2))
    assert f.factor_sub == a[1] * a[2]  # xi of the two-edge subgraph with its legs
    assert f.factor_quotient == a[3]  # the leftover edge becomes a self-loop
    assert f.recombine() == xi(g)


def test_ir_split_rejects_nonspanning_subgraph():
    with pytest.raises(ValueError, match="does not span"):
        xi_partial_factor_ir(triangle, (1,))


def test_gamma_validation():
    with pytest.raises(ValueError, match="at least one edge"):
        partial_factor_psi(triangle, ())
    with pytest.raises(ValueError, match="proper"):
        partial_factor_psi(triangle, (1, 2, 3))
    with pytest.raises(ValueError, match="no edge"):
        partial_factor_psi(triangle, (9,))
    looped = FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v")), Edge(2, ("v", "v")), Edge(3, ("u", "u")), Edge(4, ("u", "v"))),
    )
    with pytest.raises(ValueError, match="cannot contract self-loop edge 2$"):
        partial_factor_psi(looped, (3, 2, 1))
    with pytest.raises(ValueError, match="cannot contract self-loop edge 3$"):
        xi_partial_factor_uv(looped, (3,))


def test_psi_memo_is_invisible():
    g = load_graph("fixtures/wheel4.json")
    doc = graph_to_dict(g)
    psi = psi_enumerate(g)
    assert psi_enumerate(g) is psi
    split = partial_factor_psi(g, (1, 2))  # memoises the term masks next to psi
    twin = graph_from_dict(doc)
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert graph_to_dict(g) == doc
    assert pickle.loads(pickle.dumps(g)) == g
    # the memo and the masks travel with a pickled graph and stay consistent
    copy = pickle.loads(pickle.dumps(g))
    assert vars(copy).keys() == vars(g).keys()
    for gamma in ((1, 2), (3, 5, 8), (2,)):
        assert partial_factor_psi(copy, gamma) == partial_factor_psi(twin, gamma)
    assert partial_factor_psi(copy, (1, 2)) == split
    # minors are new graphs with their own psi
    for minor in (g.delete_edge(1), g.contract_subgraph((1, 2))):
        assert psi_enumerate(minor) != psi
        assert psi_enumerate(minor) == psi_determinant(minor)
    # plant a wrong memo: psi_enumerate returns it, psi_determinant does not look
    [key] = [k for k, v in vars(g).items() if v is psi]
    vars(g)[key] = psi + 1
    assert psi_enumerate(g) == psi + 1
    assert psi_determinant(g) == psi
    # the split follows the planted memo, not the masks of the old one
    assert partial_factor_psi(g, (1, 2)).recombine() == psi + 1
