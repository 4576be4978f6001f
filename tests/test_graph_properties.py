"""Properties of the graph layer on random small multigraphs."""

import math
import operator
import pickle
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feynperiods.divergence import (
    IntegrandSpec,
    convergence,
    is_primitive,
    projective_degree,
    subgraph_loop_number,
)
from feynperiods.graphs import Edge, ExternalLeg, FeynmanGraph, _classes, _layout
from feynperiods.polynomials import SparsePolynomial, _term_sort_key, parse_polynomial
from feynperiods.symanzik import (
    Factorization,
    _check_gamma,
    _cofactor_determinant,
    _spanning_forests,
    _trees,
    mass_term,
    partial_factor_psi,
    phi,
    psi_determinant,
    psi_enumerate,
    psi_subgraph,
    spanning_trees,
    spanning_two_forests,
    xi,
)

NAMES = ("u", "b", "x2", "a", "x10", "q")
# (zero, one, mul, add, neg) for _cofactor_determinant over SparsePolynomial
POLYNOMIAL_RING = (
    SparsePolynomial.zero(), SparsePolynomial.one(), operator.mul, operator.add, operator.neg
)


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
@example(g=FeynmanGraph((), ()))
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


def split_by_filtering_keys(g, gamma):
    """Oracle for partial_factor_psi: filter each term's key tuple by gamma."""
    gamma = _check_gamma(g, gamma)
    psi_g = psi_enumerate(g)
    for eid in gamma:
        if g.edge_by_id(eid).is_loop:
            raise ValueError(f"cannot contract self-loop edge {eid}")
    inside = set(gamma)
    parts = [(tuple(p for p in key if p[0] in inside), key) for key in psi_g.terms]
    h_gamma = min(len(sub) for sub, _ in parts)
    sub_terms, quotient_terms, remainder = {}, {}, {}
    for sub, key in parts:
        if len(sub) == h_gamma:
            sub_terms[sub] = 1
            quotient_terms[tuple(p for p in key if p[0] not in inside)] = 1
        else:
            remainder[key] = 1
    parts = (sub_terms, quotient_terms, remainder)
    return Factorization(*map(SparsePolynomial.from_canonical, parts))


def split_outcome(split, g, gamma):
    """The three parts' terms in their stored order, or the error text."""
    try:
        f = split(g, gamma)
    except ValueError as exc:
        return str(exc)
    return [list(p.terms.items()) for p in (f.factor_sub, f.factor_quotient, f.remainder)]


def assert_split_matches_oracle(g, gammas):
    # the oracle reads a fresh copy of g, which shares no memo with it
    fresh = FeynmanGraph(vertices=g.vertices, edges=g.edges, legs=g.legs)
    for gamma in gammas:
        want = split_outcome(split_by_filtering_keys, fresh, gamma)
        assert split_outcome(partial_factor_psi, g, gamma) == want, gamma


@settings(max_examples=100, deadline=None)
@given(g=connected_multigraphs(), shift=st.sampled_from((0, 60)), isolated=st.booleans())
def test_split_matches_key_filter_oracle(g, shift, isolated):
    # shift 60 puts edge ids on both sides of 64; an isolated vertex disconnects g
    g = FeynmanGraph(
        vertices=g.vertices + (("z",) if isolated else ()),
        edges=tuple(Edge(e.id + shift, e.ends) for e in g.edges),
    )
    ids = sorted(g.edge_ids())
    subsets = [gamma for r in range(len(ids) + 1) for gamma in combinations(ids, r)]
    unknown = max(ids, default=shift) + 1
    assert_split_matches_oracle(g, subsets + [(unknown,), tuple(ids[:1]) + (unknown,)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_split_matches_key_filter_oracle_past_64_edges(data):
    # a path with a parallel edge and two self-loops: masks need more than 64 bits
    n = 70
    ends = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    ends += [("v0", "v1"), ("v68", "v69"), ("v5", "v5"), ("v66", "v66")]
    ids = data.draw(st.permutations(range(1, len(ends) + 1)))
    g = FeynmanGraph(
        vertices=tuple(f"v{i}" for i in range(n)),
        edges=tuple(Edge(i, e) for i, e in zip(ids, ends)),
    )
    edge = st.sampled_from(sorted(ids))
    gammas = data.draw(st.lists(st.lists(edge, max_size=len(ids)), min_size=1, max_size=20))
    assert_split_matches_oracle(g, gammas + [list(ids), [len(ids) + 1, *ids[:2]]])


@st.composite
def decorated_multigraphs(draw):
    """Connected multigraphs with masses and legs whose rational momenta sum to zero.

    The last leg balances the others; about one graph in five carries legs
    with all-zero momenta.
    """
    g = draw(connected_multigraphs())
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    edges = tuple(
        Edge(e.id, e.ends, draw(st.just(0) | rational.map(abs))) for e in g.edges
    )
    momenta = draw(st.lists(st.lists(rational, min_size=4, max_size=4), max_size=3))
    if draw(st.integers(0, 4)) == 0:
        momenta = [[0] * 4 for _ in momenta]
    if momenta:
        momenta.append([-sum(q[i] for q in momenta) for i in range(4)])
    vertex = st.sampled_from(g.vertices)
    legs = tuple(ExternalLeg(draw(vertex), q) for q in momenta)
    return FeynmanGraph(vertices=g.vertices, edges=edges, legs=legs)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=decorated_multigraphs())
def test_layout_matches_the_graph(data, g):
    if g.edges and data.draw(st.booleans()):  # leave a gap in the edge ids
        g = g.delete_edge(data.draw(st.sampled_from(g.edge_ids())))
    layout = _layout(g)
    names, ids = sorted(g.vertices), sorted(g.edge_ids())
    assert (layout.names, layout.ids) == (names, ids)
    assert layout.index == {v: names.index(v) for v in g.vertices}
    assert layout.bit == {eid: 1 << ids.index(eid) for eid in ids}
    by_id = {e.id: e for e in g.edges}
    assert layout.ends == [tuple(names.index(v) for v in by_id[eid].ends) for eid in ids]
    assert layout.loops == sum(layout.bit[e.id] for e in g.edges if e.is_loop)
    for mask in data.draw(st.lists(st.integers(0, (1 << len(ids)) - 1), max_size=10)):
        want = mask_ids(g, mask)
        assert layout.edge_ids(mask) == tuple(want)
        key = layout[mask]
        assert key == tuple((eid, 1) for eid in want) and layout[mask] is key  # built, then kept
    assert _layout(g) is layout


def complement_sum_oracle(g, forests):
    """``sum over (edge_ids, c) of c * prod_{e not in edge_ids} a_e``, through the constructor."""
    all_ids = frozenset(g.edge_ids())
    return SparsePolynomial(
        [(tuple((v, 1) for v in sorted(all_ids - set(ids))), c) for ids, c in forests]
    )


def mask_ids(g, mask):
    """The edge ids of an edge mask, bit i for the i-th smallest id, decoded afresh."""
    return [eid for i, eid in enumerate(sorted(g.edge_ids())) if mask >> i & 1]


def psi_determinant_oracle(g):
    """Complements of the Kirchhoff determinant's terms, with no memo."""
    order = sorted(g.vertices)
    size = len(order) - 1
    lap = [[SparsePolynomial.zero() for _ in range(size)] for _ in range(size)]
    for e in g.edges:
        i, j = (order.index(v) for v in e.ends)
        if i == j:
            continue
        var = SparsePolynomial.variable(e.id)
        for a, b, sign in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
            if a < size and b < size:
                lap[a][b] = lap[a][b] + sign * var
    kirchhoff = _cofactor_determinant(lap, POLYNOMIAL_RING)
    return complement_sum_oracle(g, [([v for v, _ in key], c) for key, c in kirchhoff.terms.items()])


def phi_oracle(g):
    """(q^{T1})^2 summed from the legs afresh for every 2-forest."""
    forests = []
    for (edges_a, verts_a), (edges_b, _) in spanning_two_forests(g):
        total = [Fraction(0)] * 4
        for leg in g.legs:
            if leg.vertex in verts_a:
                for i, q in enumerate(leg.momentum):
                    total[i] += q
        forests.append((edges_a + edges_b, sum(q * q for q in total)))
    return complement_sum_oracle(g, forests)


def exact_terms(p):
    """Keys and coefficients in stored order, with each coefficient's type."""
    return [(key, c, type(c)) for key, c in p.terms.items()]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=decorated_multigraphs())
def test_polynomials_match_constructor_oracle_in_order_and_type(data, g):
    trees = [(ids, 1) for ids in spanning_trees(g)]
    psi = complement_sum_oracle(g, trees)
    assert exact_terms(psi_enumerate(g)) == exact_terms(psi)
    assert exact_terms(psi_determinant(g)) == exact_terms(psi_determinant_oracle(g))
    want_phi = phi_oracle(g)
    assert exact_terms(phi(g)) == exact_terms(want_phi)
    assert exact_terms(xi(g)) == exact_terms(want_phi + mass_term(g) * psi)
    ids = g.edge_ids()
    if ids:
        gamma = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        sub = g.induced_subgraph(gamma)
        forests = _spanning_forests(sub, len(sub.components()))
        want = complement_sum_oracle(sub, ((mask_ids(sub, f), 1) for f, _ in forests))
        assert exact_terms(psi_subgraph(g, gamma)) == exact_terms(want)


@settings(max_examples=150, deadline=None)
@given(g=decorated_multigraphs())
def test_psi_term_i_is_the_complement_of_tree_i(g):
    # partial_factor_psi zips the tree masks with psi's terms in this order
    trees = _trees(g)
    assert [tuple(mask_ids(g, t)) for t in trees] == spanning_trees(g)
    full = (1 << g.n_edges) - 1
    keys = [[v for v, _ in key] for key in psi_enumerate(g).terms]
    assert keys == [mask_ids(g, full ^ t) for t in trees]


@settings(max_examples=150, deadline=None)
@given(g=decorated_multigraphs())
def test_forest_sweep_is_the_acyclic_subsets_in_order(g):
    # every spanning k-forest, in the order combinations gives the acyclic
    # (n - k)-subsets of non-loop edges, with each vertex labelled by the
    # smallest vertex index of its tree
    def root(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    layout = _layout(g)
    n = len(layout.names)
    pairs = [(1 << i, u, v) for i, (u, v) in enumerate(layout.ends) if u != v]
    for k in range(1, n + 1):
        want = []
        for combo in combinations(pairs, n - k):
            parent = list(range(n))
            for _, u, v in combo:
                a, b = root(parent, u), root(parent, v)
                if a == b:
                    break
                parent[max(a, b)] = min(a, b)
            else:
                classes = bytes(root(parent, x) for x in range(n))
                want.append((sum(b for b, _, _ in combo), classes))
        assert list(_spanning_forests(g, k)) == want, k


@settings(max_examples=150, deadline=None)
@given(g=decorated_multigraphs())
def test_phi_and_xi_coefficients_are_positive(g):
    # masses are nonnegative and every phi coefficient is a Euclidean square,
    # so no xi leaves the Euclidean region and integrate need not check one
    for poly in (phi(g), xi(g)):
        assert all(c > 0 for c in poly.terms.values())


@settings(max_examples=150, deadline=None)
@given(g=decorated_multigraphs())
def test_xi_order_is_loop_number_plus_the_class_rule(g):
    # ord_S(xi) = h_S + delta_S, where delta_S = 1 exactly when S holds every
    # massive edge and every vertex class of S (a vertex S does not touch is
    # a class of its own) carries zero net momentum
    x = xi(g)
    if x.is_zero():
        return
    massive = {e.id for e in g.edges if e.mass_sq}
    ids = g.edge_ids()
    for size in range(len(ids) + 1):
        for gamma in combinations(ids, size):
            rep = _classes(g.vertices, (e.ends for e in g.edges if e.id in gamma))
            flow = {}
            for leg in g.legs:
                total = flow.setdefault(rep[leg.vertex], [0] * 4)
                for i, q in enumerate(leg.momentum):
                    total[i] += q
            delta = massive <= set(gamma) and not any(any(q) for q in flow.values())
            order = min(sum(e for v, e in key if v in gamma) for key in x.terms)
            assert order == subgraph_loop_number(g, gamma) + delta, gamma


def first_divergence_oracle(g, spec):
    """Scan the subsets, smallest first, for omega <= 0 with ord taken term by term."""
    polys = [(spec.numerator, 1)] + ([(xi(g), -spec.xi_power)] if spec.xi_power else [])
    ids = sorted(g.edge_ids())
    for size in range(1, len(ids)):
        for gamma in combinations(ids, size):
            omega = size - spec.psi_power * subgraph_loop_number(g, gamma)
            for poly, weight in polys:
                omega += weight * min(sum(e for v, e in key if v in gamma) for key in poly.terms)
            if omega <= 0:
                return gamma, omega
    return None, None


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=decorated_multigraphs())
def test_convergence_matches_subset_scan(data, g):
    # a random degree-0 integrand P / (psi^A xi^B) with a sum of monomials for P
    n, h = g.n_edges, g.loop_number()
    xi_power = data.draw(st.integers(0, 2))
    if h == 0:
        xi_power, psi_power = n, data.draw(st.integers(0, 2))
    else:
        lowest = max(0, -(-(n - xi_power * (h + 1)) // h))
        psi_power = lowest + data.draw(st.integers(0, 2))
    degree = psi_power * h + xi_power * (h + 1) - n
    monomial = st.just([])
    if degree:
        monomial = st.lists(st.sampled_from(g.edge_ids()), min_size=degree, max_size=degree)
    coeff = st.sampled_from((1, 2, -1, Fraction(1, 3), Fraction(-5, 2)))
    terms = data.draw(st.lists(st.tuples(monomial, coeff), min_size=1, max_size=3))
    numerator = sum((SparsePolynomial.monomial(v, c) for v, c in terms), SparsePolynomial.zero())
    spec = IntegrandSpec(numerator=numerator, psi_power=psi_power, xi_power=xi_power)
    assert numerator.is_zero() or projective_degree(g, spec) == 0

    certified = xi_power == 0 or all(e.mass_sq > 0 for e in g.edges)
    if xi_power and xi(g).is_zero():  # refused whatever the numerator, a zero one too
        with pytest.raises(ValueError, match="xi vanishes identically"):
            convergence(g, spec)
    elif numerator.is_zero():
        assert convergence(g, spec) == (True, None, None, certified)
    else:
        witness, omega = first_divergence_oracle(g, spec)
        assert convergence(g, spec) == (witness is None, witness, omega, certified)
    witness, _ = first_divergence_oracle(g, IntegrandSpec())
    assert is_primitive(g) == (witness is None, witness)


@pytest.mark.parametrize(
    "g, spec",
    [
        (
            FeynmanGraph(vertices=("u",), edges=(Edge(1, ("u", "u")),)),
            IntegrandSpec(
                numerator=parse_polynomial("a1") - parse_polynomial("a1"), psi_power=0, xi_power=1
            ),
        ),
        (
            FeynmanGraph(vertices=("u", "b", "q"), edges=(Edge(1, ("u", "b")), Edge(2, ("b", "q")))),
            IntegrandSpec(numerator=SparsePolynomial.one() - 1, psi_power=0, xi_power=2),
        ),
    ],
    ids=["massless-self-loop", "tree"],
)
def test_zero_xi_is_refused_before_a_zero_numerator_converges(g, spec):
    # xi is 0 with no legs and no masses: the zero-xi refusal comes first
    assert spec.numerator.is_zero() and xi(g).is_zero()
    with pytest.raises(ValueError, match="xi vanishes identically"):
        convergence(g, spec)


def wheel(spokes):
    """The wheel with the given number of spokes: spokes 1..n, then the rim."""
    rim = [f"r{i}" for i in range(spokes)]
    ends = [("hub", r) for r in rim] + [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)]
    return FeynmanGraph(
        vertices=("hub", *rim), edges=tuple(Edge(i, e) for i, e in enumerate(ends, 1))
    )


# parallel edges into "z", the largest name, whose row and column the
# reduced Laplacian drops; ids out of stored order and a self-loop
PARALLEL_INTO_LAST = FeynmanGraph(
    vertices=("z", "b", "a", "c"),
    edges=tuple(
        Edge(eid, ends)
        for eid, ends in (
            (5, ("a", "z")), (2, ("z", "a")), (7, ("b", "z")), (1, ("c", "z")),
            (3, ("z", "c")), (4, ("a", "b")), (8, ("c", "c")), (6, ("b", "c")),
            (9, ("z", "b")),
        )
    ),
)


@pytest.mark.parametrize(
    "g", [wheel(6), wheel(7), wheel(8), PARALLEL_INTO_LAST],
    ids=["W6", "W7", "W8", "parallel-into-last"],
)
def test_determinant_matches_oracle_in_order_beyond_the_drawn_sizes(g):
    assert exact_terms(psi_determinant(g)) == exact_terms(psi_determinant_oracle(g))


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
    assert _cofactor_determinant(m, POLYNOMIAL_RING) == leibniz(m)


@settings(max_examples=100, deadline=None)
@given(p=polynomials(), q=polynomials(), r=polynomials(), shift=st.integers(0, 3))
def test_polynomial_ring_axioms(p, q, r, shift):
    zero, one = SparsePolynomial.zero(), SparsePolynomial.one()
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert p - p == zero
    # a sum is the validating constructor on the joined term lists, in order
    # and type; q's nonconstant terms moved past p's variables share no key
    # with p, so every example also sums with nothing to merge
    top = max(p.variables(), default=0) + shift
    apart = SparsePolynomial.from_canonical(
        {tuple((v + top, e) for v, e in key): c for key, c in q.terms.items() if key}
    )
    for other in (q, apart):
        assert exact_terms(p + other) == exact_terms(
            SparsePolynomial([*p.terms.items(), *other.terms.items()])
        )
        assert exact_terms(p - other) == exact_terms(
            SparsePolynomial([*p.terms.items(), *((k, -c) for k, c in other.terms.items())])
        )


def naive_product(p, q):
    """Every pair of terms multiplied, keys joined, summed in pair order by the constructor."""
    return SparsePolynomial(
        [(k1 + k2, c1 * c2) for k1, c1 in p.terms.items() for k2, c2 in q.terms.items()]
    )


def shifted(p, by):
    return SparsePolynomial.from_canonical(
        {tuple((v + by, e) for v, e in key): c for key, c in p.terms.items()}
    )


@settings(max_examples=150, deadline=None)
@given(p=polynomials(), q=polynomials(), c=st.fractions(-5, 5, max_denominator=3),
       shift=st.integers(0, 3))
def test_product_matches_the_pairwise_sum_in_order_and_type(p, q, c, shift):
    zero, const = SparsePolynomial.zero(), SparsePolynomial.constant(c)
    top_p, top_q = max(p.variables(), default=0), max(q.variables(), default=0)
    pairs = [
        (p, q),  # variables interleave or are shared
        (p, shifted(q, top_p + shift)),  # q's variables all come after p's
        (shifted(p, top_q + shift), q),  # p's variables all come after q's
        (p + q, p - q),  # shared variables whose cross terms cancel
        (p, const), (const, p), (p, zero), (zero, p),
    ]
    for a, b in pairs:
        assert exact_terms(a * b) == exact_terms(naive_product(a, b))


@settings(max_examples=100, deadline=None)
@given(p=polynomials())
def test_render_parse_round_trip(p):
    q = parse_polynomial(p.render())
    assert q == p and q.render() == p.render()
    # the terms come back in rendering order, each coefficient with its type
    in_order = [(key, p.terms[key], type(p.terms[key]))
                for key in sorted(p.terms, key=_term_sort_key)]
    assert exact_terms(q) == in_order
    assert exact_terms(parse_polynomial(q.render())) == in_order


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


@st.composite
def shared_prefix_polynomials(draw):
    """Up to 20 terms over a1..a6 with mostly unit coefficients.

    In canonical order such terms share long leading factors, and the
    coefficients that are not 1 break the sharing at the first entry.
    """
    coeff = st.sampled_from([1, 1, 1, -1, 2, Fraction(1, 3), Fraction(-7, 2)])
    key = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), max_size=5)
    return SparsePolynomial(draw(st.lists(st.tuples(key, coeff), max_size=20)))


def naive_evaluate(p, values):
    """Each term from scratch: np.full(c), times each factor left to right, summed in order."""
    cols = {v: np.asarray(x, dtype=float) for v, x in values.items()}
    shape = np.broadcast_shapes(*(c.shape for c in cols.values()))
    total = np.zeros(shape)
    for key in sorted(p.terms, key=_term_sort_key):
        t = np.full(shape, float(p.terms[key]))
        for v, e in key:
            if v not in cols:
                raise ValueError(f"no value given for variable a{v}")
            t *= cols[v] if e == 1 else cols[v] ** e
        total += t
    return total if shape else float(total)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    p=polynomials() | shared_prefix_polynomials(),
    n=st.integers(0, 5),
)
def test_evaluate_matches_term_by_term_oracle_bit_for_bit(data, p, n):
    # n == 0 evaluates at one point given as plain floats
    value = st.floats(-1e6, 1e6, allow_nan=False)
    if n:
        column = st.lists(value, min_size=n, max_size=n).map(np.array)
    else:
        column = value
    values = {v: data.draw(column) for v in range(1, 7)}
    got, want = p.evaluate(values), naive_evaluate(p, values)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    bits = np.asarray(got).view(np.int64), np.asarray(want).view(np.int64)
    assert np.array_equal(*bits)

    if p.variables():
        del values[data.draw(st.sampled_from(p.variables()))]
        with pytest.raises(ValueError) as want_error:
            naive_evaluate(p, values)
        with pytest.raises(ValueError) as got_error:
            p.evaluate(values)
        assert str(got_error.value) == str(want_error.value)
