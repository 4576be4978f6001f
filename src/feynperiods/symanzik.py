"""Graph polynomials of Feynman parametric integrands.

For a connected graph G with edge variables a_e:

* first graph polynomial (spanning-tree sum)::

      psi_G = sum over spanning trees T of prod_{e not in T} a_e

  homogeneous of degree equal to the loop number h.

* momentum polynomial (spanning-2-forest sum)::

      phi_G = sum over 2-forests (T1, T2) of (q^{T1})^2 prod_{e not in T1 u T2} a_e

  where q^{T1} is the total external momentum entering T1; momentum
  conservation makes the square independent of which part is squared.
  Homogeneous of degree h + 1.

* the mass-momentum combination::

      xi_G = phi_G + (sum_e m_e^2 a_e) * psi_G

psi and phi are sums over spanning k-forests (k = 1 and k = 2), and so is
psi_gamma below; one enumerator produces the forests for every k, and one
function turns a forest sum into a polynomial by building its canonical
dict directly: distinct forests have distinct complements, so no key is
summed and no term needs the validating constructor.  phi squares the
momentum of each leg partition once, however many forests share it.  psi,
phi and xi are built once per graph and kept on it (``graphs._once_per_graph``),
and so is the list of spanning trees that psi and :func:`spanning_trees` read.
The determinant route for psi, the unmemoised oracle that enumeration must
match exactly, expands the reduced edge-weighted Laplacian by cofactors,
which needs no division.  It runs in Z[a]/(a_e^2), multilinear polynomials
as dicts from edge masks to ints: every minor of a weighted Laplacian is
multilinear in the edge weights (the all-minors matrix-tree theorem), so
the a_e^2 terms a product would form cancel within their minor, and
dropping them as they arise changes neither the result nor the order of
its terms (see :func:`psi_determinant`).

Partial factorizations: for a subgraph gamma (a set of edge ids) write

      psi_G = psi_gamma * psi_{G/gamma} + R

where psi_gamma is the sum over spanning forests of gamma with one tree per
connected component (the product of the components' first polynomials) and
G/gamma is the contraction.  The split is read off psi_G alone.  A term of
psi_G is the complement of a spanning tree T, and its degree in the gamma
variables, |gamma| - |T n gamma|, is at least h_gamma, with equality exactly
when T n gamma is a spanning forest of gamma; T minus gamma is then a
spanning tree of G/gamma, and every such pair of forest and tree makes one
spanning tree of G.  So the terms of lowest gamma-degree are the product
psi_gamma * psi_{G/gamma} with every coefficient 1: their gamma-parts are
psi_gamma, their other parts psi_{G/gamma}, and all other terms form R, whose
gamma-degree is strictly greater than h_gamma.  The split works on edge
bitmasks of the graph's integer layout (``graphs._layout``: bit i for the
i-th smallest edge id), one per term of psi and kept per graph like psi: a
term's gamma-part is ``mask & gamma_mask``, its gamma-degree the popcount of
that, and the layout turns a mask back into a monomial key.  h_gamma comes
from gamma's own edges, by a union-find over their ends, so one pass over
the terms builds all three parts.  The analogous
xi decompositions isolate ultraviolet (contract gamma) and infrared (gamma
carries all mass and momentum dependence) behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from .graphs import _edge_set, _layout, _once_per_graph, _require_connected
from .polynomials import SparsePolynomial, _normalize_coeff


# -- spanning forests ------------------------------------------------------

_edge_id = itemgetter(2)


def _spanning_forests(g, k):
    """Yield ``(edge_ids, parent)`` for every spanning k-forest of ``g``.

    A spanning k-forest is a set of n - k non-loop edges (n vertices) with no
    cycle; it has exactly k trees, so a graph with more than k components has
    none.  Edge sets come in lexicographic order of their sorted ids.
    ``parent`` is the union-find array over the vertex indices of the graph's
    layout (``graphs._layout``, sorted vertex order); every link points to a
    smaller index, so one ascending pass of ``parent[i] = parent[parent[i]]``
    names each tree by its smallest vertex.
    """
    layout = _layout(g)
    n = len(layout.names)
    if n < k or len(g.components()) > k:
        return
    pairs = [(u, v, eid) for (u, v), eid in zip(layout.ends, layout.ids) if u != v]
    for combo in combinations(pairs, n - k):
        parent = list(range(n))
        # inline on purpose: a union helper called per edge costs exact_polynomials 4% wall time
        for a, b, _ in combo:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                break  # a cycle
            if a < b:
                a, b = b, a
            parent[a] = b
        else:
            yield tuple(map(_edge_id, combo)), parent


@_once_per_graph
def _trees(g):
    """The spanning trees of ``g``, swept once and kept by ``graphs._once_per_graph``."""
    trees = [ids for ids, _ in _spanning_forests(g, 1)]
    if not trees:  # a connected graph has at least one
        _require_connected(g, "spanning tree enumeration")
    return trees


def spanning_trees(g):
    """All spanning trees, as sorted edge-id tuples in lexicographic order.

    A fresh list each call, read from the one sweep that psi also reads.
    """
    return list(_trees(g))


def spanning_two_forests(g):
    """All spanning 2-forests, in lexicographic order of their edge sets.

    Each entry is a pair ``((edge_ids, vertex_set), (edge_ids, vertex_set))``
    for the two tree components; the component containing the smallest
    vertex name comes first.  Every vertex of the graph appears in exactly
    one component.
    """
    _require_connected(g, "2-forest enumeration")
    layout = _layout(g)
    order = layout.names
    first_end = {eid: u for eid, (u, _) in zip(layout.ids, layout.ends)}
    forests = []
    for edge_ids, parent in _spanning_forests(g, 2):
        for i in range(len(order)):
            parent[i] = parent[parent[i]]
        # now parent[i] is the root of vertex i; vertex 0 is a root
        verts_a, verts_b = [], []
        for v, root in zip(order, parent):
            (verts_b if root else verts_a).append(v)
        edges_a, edges_b = [], []
        for eid in edge_ids:
            (edges_b if parent[first_end[eid]] else edges_a).append(eid)
        forests.append(((tuple(edges_a), tuple(verts_a)), (tuple(edges_b), tuple(verts_b))))
    return forests


# -- the polynomials -------------------------------------------------------


def _complement_sum(g, forests):
    """``sum over (edge_ids, c) of c * prod_{e not in edge_ids} a_e``, built in canonical form.

    Each key is the sorted edge ids of ``g`` minus the forest's; :class:`Edge`
    has already checked the ids, so they are plain ints and the validating
    constructor has nothing left to check.  A forest with coefficient 0 is
    dropped, every other coefficient is normalized.
    """
    pairs = [(eid, (eid, 1)) for eid in _layout(g).ids]
    terms = {}
    for ids, c in forests:
        if c:
            inside = set(ids)
            # assigned, not summed: distinct forests are distinct edge sets,
            # so their complements are distinct keys
            terms[tuple(p for eid, p in pairs if eid not in inside)] = _normalize_coeff(c)
    return SparsePolynomial.from_canonical(terms)


@_once_per_graph
def psi_enumerate(g):
    """First graph polynomial by spanning-tree enumeration, kept by ``graphs._once_per_graph``."""
    return _complement_sum(g, ((tree, 1) for tree in _trees(g)))


@_once_per_graph
def _term_masks(g):
    """The edge mask of each term of psi, in ``psi.terms`` order (bits of ``graphs._layout``)."""
    bit = _layout(g).bit
    return [sum(bit[v] for v, _ in key) for key in psi_enumerate(g).terms]


def _cofactor_determinant(m, ring):
    """Exact determinant of a square matrix over a commutative ring, with no division.

    ``ring`` is ``(zero, one, mul, add, neg)``; a zero entry or minor is falsy.
    Laplace expansion row by row: after each row, ``minors`` maps the set of
    columns used so far (a bitmask S) to the minor of the rows done over S.
    Entry (r, j) extends a minor over S by ``mul(entry, minor)``, negated when
    |{c in S : c > j}|, the inversions it adds, is odd; minors that cancel to
    zero are dropped.  The empty matrix has determinant ``one``.
    """
    zero, one, mul, add, neg = ring
    minors = {0: one}
    for row in m:
        entries = [(j, entry) for j, entry in enumerate(row) if entry]
        grown = {}
        for cols, minor in minors.items():
            for j, entry in entries:
                if cols >> j & 1:
                    continue
                term = mul(entry, minor)
                if (cols >> j).bit_count() & 1:
                    term = neg(term)
                key = cols | 1 << j
                grown[key] = add(grown[key], term) if key in grown else term
        minors = {cols: minor for cols, minor in grown.items() if minor}
    return minors.get((1 << len(m)) - 1, zero)


# Z[a]/(a_e^2): a multilinear polynomial as a dict from an edge mask of
# ``graphs._layout`` to a nonzero int.  Products, sums and negation insert,
# add up and delete terms as SparsePolynomial's do, and a product of two
# overlapping masks, which would carry some a_e^2, is dropped.


def _multilinear_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if m1 & m2:
                continue
            key = m1 | m2
            if key in out:
                c = out[key] + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
            else:
                out[key] = c1 * c2
    return out


def _multilinear_add(p, q):
    out = {**p, **q}  # a shared mask keeps p's position
    for key in p.keys() & q.keys():
        c = p[key] + q[key]
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _multilinear_neg(p):
    return {key: -c for key, c in p.items()}


_MULTILINEAR = ({}, {0: 1}, _multilinear_mul, _multilinear_add, _multilinear_neg)


def psi_determinant(g):
    """First graph polynomial via the edge-weighted Laplacian determinant.

    Build the Laplacian with weight a_e on each non-loop edge, delete the row
    and column of the largest vertex, and take the determinant by
    division-free cofactor expansion.  That determinant is the spanning-tree
    sum ``sum_T prod_{e in T} a_e``; complementing each monomial's support in
    the edge set (so every self-loop variable joins each term) gives psi.
    Must agree exactly with :func:`psi_enumerate`.

    The expansion runs in Z[a]/(a_e^2) on edge masks, so a product that
    squares an edge variable is never formed.  That is exact: every minor of
    a weighted Laplacian is multilinear in the edge weights (the all-minors
    matrix-tree theorem), so the a_e^2 terms of each minor cancel.  It keeps
    the order too: a term holding some a_e^2 is a key no squarefree term
    shares, and a product with it holds a square again, so dropping such
    terms leaves every insertion and deletion of the squarefree keys, and
    with it their order in the dict, as the full ring would have them.  Each
    cell lists its edges in stored order.
    """
    _require_connected(g, "psi")
    layout = _layout(g)
    idx = layout.index
    size = len(idx) - 1
    lap = [[{} for _ in range(size)] for _ in range(size)]
    for e in g.edges:
        i, j = idx[e.ends[0]], idx[e.ends[1]]
        if i == j:
            continue
        bit = layout.bit[e.id]
        if i < size:
            lap[i][i][bit] = 1
        if j < size:
            lap[j][j][bit] = 1
        if i < size and j < size:
            lap[i][j][bit] = -1
            lap[j][i][bit] = -1
    kirchhoff = _cofactor_determinant(lap, _MULTILINEAR)
    pairs = [(1 << i, (eid, 1)) for i, eid in enumerate(layout.ids)]
    # distinct trees have distinct complements, so no key is summed
    return SparsePolynomial.from_canonical(
        {tuple(p for bit, p in pairs if not tree & bit): c for tree, c in kirchhoff.items()}
    )


def _net_momenta(g):
    """The net incoming momentum of each vertex whose momentum is not zero.

    Refused unless the external momenta sum to zero.
    """
    if not g.momentum_conserved():
        raise ValueError("external momenta do not sum to zero")
    by_vertex = {}
    for leg in g.legs:
        acc = by_vertex.setdefault(leg.vertex, [Fraction(0)] * 4)
        for i, q in enumerate(leg.momentum):
            acc[i] += q
    return {v: q for v, q in by_vertex.items() if any(q)}


@_once_per_graph
def phi(g):
    """Momentum polynomial (spanning-2-forest sum with squared momenta).

    Requires exact momentum conservation of the external legs.  When no
    vertex carries net momentum every (q^{T1})^2 is 0, so phi is the zero
    polynomial and no forest is swept; otherwise phi is nonzero, since a
    spanning tree of G has an edge whose two sides carry nonzero momentum.
    Each square (q^{T1})^2 is computed once per leg partition: forests
    whose first tree holds the same momentum-carrying vertices share it.
    T1 is the tree of the smallest vertex, which is a root of the
    union-find array, so only the momentum-carrying vertices are walked to
    their roots.
    """
    _require_connected(g, "phi")
    by_vertex = _net_momenta(g)
    if not by_vertex:
        return SparsePolynomial.zero()
    legged = [(i, v) for i, v in enumerate(_layout(g).names) if v in by_vertex]
    squares = {}  # momentum-carrying vertices of T1 -> (q^{T1})^2
    forests = []
    for edge_ids, parent in _spanning_forests(g, 2):
        part = []
        for i, v in legged:
            while parent[i] != i:
                i = parent[i]
            if i == 0:
                part.append(v)
        part = tuple(part)
        coeff = squares.get(part)
        if coeff is None:
            total = [sum(qs, Fraction(0)) for qs in zip(*(by_vertex[v] for v in part))]
            coeff = squares[part] = sum(q * q for q in total)
        forests.append((edge_ids, coeff))
    return _complement_sum(g, forests)


def mass_term(g):
    """``sum_e m_e^2 a_e`` over the internal edges."""
    return SparsePolynomial(
        [(((e.id, 1),), e.mass_sq) for e in g.edges if e.mass_sq]
    )


@_once_per_graph
def xi(g):
    """``phi + (sum_e m_e^2 a_e) * psi``: the full denominator polynomial.

    Without masses xi is phi, and psi is not built for it.
    """
    m = mass_term(g)
    return phi(g) + (m if m.is_zero() else m * psi_enumerate(g))


@dataclass(frozen=True)
class SymanzikSet:
    """psi, phi, xi of one graph, with their homogeneity degrees checked."""

    psi: SparsePolynomial
    phi: SparsePolynomial
    xi: SparsePolynomial
    loop_number: int

    @classmethod
    def of(cls, g):
        h = g.loop_number()
        p, f, x = psi_enumerate(g), phi(g), xi(g)
        if p.is_homogeneous() != h:
            raise AssertionError(f"psi is not homogeneous of degree {h}")
        for name, poly in (("phi", f), ("xi", x)):
            if not poly.is_zero() and poly.is_homogeneous() != h + 1:
                raise AssertionError(f"{name} is not homogeneous of degree {h + 1}")
        return cls(p, f, x, h)


# -- partial factorizations ------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """A decomposition ``whole = factor_sub * factor_quotient + remainder``."""

    factor_sub: SparsePolynomial
    factor_quotient: SparsePolynomial
    remainder: SparsePolynomial

    def recombine(self):
        return self.factor_sub * self.factor_quotient + self.remainder


def _check_gamma(g, gamma):
    gamma = _edge_set(g, gamma)
    if not gamma:
        raise ValueError("subgraph must contain at least one edge")
    if len(gamma) == g.n_edges:
        raise ValueError("subgraph must be proper")
    return gamma


def psi_subgraph(g, gamma):
    """First polynomial of the subgraph gamma induces, one tree per component.

    The sum over spanning forests of gamma with one tree in each connected
    component, which is the product of the components' first polynomials.
    Homogeneous of degree h_gamma, the loop number of the subgraph.
    """
    sub = g.induced_subgraph(gamma)
    forests = _spanning_forests(sub, len(sub.components()))
    return _complement_sum(sub, ((ids, 1) for ids, _ in forests))


def partial_factor_psi(g, gamma):
    """Split psi along a subgraph: ``psi_G = psi_gamma * psi_{G/gamma} + R``.

    Every term of the remainder R has degree in the gamma variables strictly
    greater than deg psi_gamma = h_gamma; the product term collects exactly
    the spanning trees that restrict to spanning forests of gamma.  All three
    parts are read off the terms of psi_G (see the module docstring).
    """
    gamma = _check_gamma(g, gamma)
    psi_g = psi_enumerate(g)
    keys = _layout(g)  # also the mask -> monomial key codec
    # every spanning forest of gamma extends to a spanning tree of G, so the
    # lowest gamma-degree of psi's terms is h_gamma = |gamma| - rank(gamma):
    # count the edges of gamma that close a cycle, by a union-find over
    # their ends (psi_G exists, so G has few vertices: no path compression)
    parent = list(range(len(keys.names)))
    gm = h_gamma = 0
    for eid in gamma:
        bit = keys.bit[eid]
        gm |= bit
        a, b = keys.ends[bit.bit_length() - 1]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            h_gamma += 1
        else:
            parent[a] = b
    looped = gm & keys.loops
    if looped:  # a self-loop in gamma leaves no quotient graph
        first = (looped & -looped).bit_length() - 1
        raise ValueError(f"cannot contract self-loop edge {keys.ids[first]}")
    sub_terms, quotient_terms, remainder = {}, {}, {}
    for m, key in zip(_term_masks(g), psi_g.terms):
        sub = m & gm
        if sub.bit_count() == h_gamma:
            sub_terms[keys[sub]] = 1
            quotient_terms[keys[m ^ sub]] = 1  # the term's edges outside gamma
        else:
            remainder[key] = 1
    return Factorization(
        SparsePolynomial.from_canonical(sub_terms),
        SparsePolynomial.from_canonical(quotient_terms),
        SparsePolynomial.from_canonical(remainder),
    )


def xi_partial_factor_uv(g, gamma):
    """Ultraviolet split: ``xi_G = psi_gamma * xi_{G/gamma} + R``.

    The contraction keeps the legs (attached to the merged vertices) and the
    masses of the surviving edges, so the quotient's xi carries all the
    momentum and mass dependence outside gamma.
    """
    gamma = _check_gamma(g, gamma)
    xi_g = xi(g)
    psi_gamma = partial_factor_psi(g, gamma).factor_sub
    xi_quotient = xi(g.contract_subgraph(gamma))
    return Factorization(psi_gamma, xi_quotient, xi_g - psi_gamma * xi_quotient)


def xi_partial_factor_ir(g, gamma):
    """Infrared split: ``xi_G = xi_gamma * psi_{G/gamma} + R``.

    Only valid when gamma carries all the mass and momentum dependence,
    i.e. when xi of the contracted graph vanishes identically; otherwise
    this raises.  gamma must induce a connected subgraph so that its own xi
    is defined.
    """
    gamma = _check_gamma(g, gamma)
    quotient = g.contract_subgraph(gamma)
    xi_quotient = xi(quotient)
    if not xi_quotient.is_zero():
        raise ValueError(
            "subgraph does not span the mass/momentum dependence: "
            f"xi of the contraction is {xi_quotient.render()}"
        )
    sub = g.induced_subgraph(gamma)
    if not sub.is_connected():
        raise ValueError("infrared split needs a connected subgraph")
    xi_gamma = xi(sub)
    psi_quotient = psi_enumerate(quotient)
    return Factorization(xi_gamma, psi_quotient, xi(g) - xi_gamma * psi_quotient)
