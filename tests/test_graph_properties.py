"""Properties of the graph layer on random small multigraphs."""

import math
import pickle
from itertools import combinations, permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from feynperiods.divergence import subgraph_loop_number
from feynperiods.graphs import Edge, FeynmanGraph
from feynperiods.polynomials import SparsePolynomial, parse_polynomial
from feynperiods.symanzik import (
    Factorization,
    _cofactor_determinant,
    partial_factor_psi,
    psi_determinant,
    psi_enumerate,
    psi_subgraph,
    spanning_trees,
    spanning_two_forests,
)

NAMES = ("u", "b", "x2", "a", "x10", "q")


@st.composite
def connected_multigraphs(draw):
    """Connected graphs with <= 6 vertices and <= 8 edges, loops and multi-edges allowed.

    A random tree makes the graph connected; the extra edges may repeat a
    pair or join a vertex to itself.  Vertex names and edge ids are shuffled
    so that neither follows the order of construction.
    """
    names = draw(st.permutations(NAMES))[: draw(st.integers(1, 6))]
    n = len(names)
    ends = [(names[i], names[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    vertex = st.sampled_from(names)
    ends += draw(st.lists(st.tuples(vertex, vertex), max_size=8 - len(ends)))
    ids = draw(st.permutations(range(1, len(ends) + 1)))
    return FeynmanGraph(
        vertices=tuple(names), edges=tuple(Edge(i, e) for i, e in zip(ids, ends))
    )


def components_as_graphs(sub):
    for comp in sub.components():
        edges = tuple(e for e in sub.edges if e.ends[0] in comp)
        yield FeynmanGraph(vertices=comp, edges=edges)


@st.composite
def polynomials(draw):
    term = st.tuples(
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3)), max_size=4),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
    )
    return SparsePolynomial(draw(st.lists(term, max_size=8)))


@settings(max_examples=150, deadline=None)
@given(g=connected_multigraphs())
def test_psi_enumeration_equals_determinant(g):
    psi = psi_enumerate(g)
    assert psi == psi_determinant(g)
    assert len(psi.terms) == len(spanning_trees(g))


@settings(max_examples=150, deadline=None)
@given(g=connected_multigraphs())
def test_deletion_contraction(g):
    psi = psi_enumerate(g)
    for e in g.edges:
        rest = g.delete_edge(e.id)
        if e.is_loop or not rest.is_connected():
            continue
        split = SparsePolynomial.variable(e.id) * psi_enumerate(rest)
        assert split + psi_enumerate(g.contract_subgraph((e.id,))) == psi, e.id


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=connected_multigraphs())
def test_subgraph_polynomial_and_loop_number(data, g):
    ids = g.edge_ids()
    if not ids:
        return
    gamma = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    sub = g.induced_subgraph(gamma)
    factors = [psi_enumerate(c) for c in components_as_graphs(sub)]
    assert psi_subgraph(g, gamma) == math.prod(factors, start=SparsePolynomial.one())
    assert subgraph_loop_number(g, gamma) == sub.loop_number()


@settings(max_examples=100, deadline=None)
@given(g=connected_multigraphs())
def test_partial_factor_equals_subgraph_times_quotient(g):
    # the oracle builds psi_gamma and psi_{G/gamma} on their own graphs, from
    # a fresh copy of g that shares no memoised psi with it
    fresh = FeynmanGraph(vertices=g.vertices, edges=g.edges, legs=g.legs)
    psi = psi_enumerate(fresh)
    loops = {e.id for e in g.edges if e.is_loop}
    ids = sorted(g.edge_ids())
    for r in range(1, len(ids)):
        for gamma in combinations(ids, r):
            if loops.intersection(gamma):
                continue
            sub = psi_subgraph(fresh, gamma)
            quotient = psi_enumerate(fresh.contract_subgraph(gamma))
            expect = Factorization(sub, quotient, psi - sub * quotient)
            assert partial_factor_psi(g, gamma) == expect, gamma


@settings(max_examples=150, deadline=None)
@given(g=connected_multigraphs())
def test_two_forests_partition_the_vertices(g):
    ends = {e.id: set(e.ends) for e in g.edges}
    for (edges_a, verts_a), (edges_b, verts_b) in spanning_two_forests(g):
        assert verts_a and verts_b
        assert sorted(verts_a + verts_b) == sorted(g.vertices)
        assert verts_a[0] == min(g.vertices)
        assert len(edges_a) + len(edges_b) == len(g.vertices) - 2
        for edges, verts in ((edges_a, verts_a), (edges_b, verts_b)):
            assert all(ends[eid] <= set(verts) for eid in edges)


def leibniz(m):
    """``sum over permutations s of sgn(s) prod_i m[i][s(i)]``."""
    total = SparsePolynomial.zero()
    for s in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(s, 2))
        term = SparsePolynomial.constant(-1 if inversions % 2 else 1)
        for i, j in enumerate(s):
            term = term * m[i][j]
        total = total + term
    return total


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_determinant_equals_leibniz_sum(data, n):
    # about half the entries are zero, so leading minors often vanish
    entry = st.just(SparsePolynomial.zero()) | polynomials()
    m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assert _cofactor_determinant(m) == leibniz(m)


@settings(max_examples=100, deadline=None)
@given(p=polynomials(), q=polynomials(), r=polynomials())
def test_polynomial_ring_axioms(p, q, r):
    zero, one = SparsePolynomial.zero(), SparsePolynomial.one()
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert p - p == zero


@settings(max_examples=100, deadline=None)
@given(p=polynomials())
def test_render_parse_round_trip(p):
    q = parse_polynomial(p.render())
    assert q == p and q.render() == p.render()


@settings(max_examples=100, deadline=None)
@given(p=polynomials())
def test_polynomial_pickle_round_trip(p):
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q.render() == p.render() and hash(q) == hash(p)


@settings(max_examples=60, deadline=None)
@given(
    p=polynomials(),
    rows=st.lists(
        st.lists(st.floats(0, 10), min_size=5, max_size=5), min_size=1, max_size=6
    ),
)
def test_array_evaluate_matches_pointwise_bit_for_bit(p, rows):
    x = np.array(rows)
    together = p.evaluate({v: x[:, v - 1] for v in range(1, 6)})
    for i, row in enumerate(rows):
        alone = p.evaluate({v: row[v - 1] for v in range(1, 6)})
        assert float(together[i]).hex() == alone.hex()

