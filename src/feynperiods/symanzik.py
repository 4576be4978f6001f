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
psi_gamma below.  One sweep grows the forests for every k in layers, each
forest an edge mask of ``graphs._layout`` with its vertex classes in the
layout's one format, a byte per vertex (so at most 256 vertices), which the
convergence walk reads too; phi reads T1 off the classes as class 0.  One
function sums the forests: the layout's codec keys each term by the
forest's complement mask, and distinct forests have distinct complements,
so no key is summed and no term needs the validating constructor.  Edge
ids appear only where :func:`spanning_trees` and
:func:`spanning_two_forests` decode the masks.  phi squares the momentum of
each leg partition once, however many forests share it.  psi, phi, xi and
the tree masks are kept per graph (``graphs._once_per_graph``).
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
masks: term i of psi is the complement of tree mask i, and lies in the
product exactly when ``tree & gamma_mask`` has rank(gamma) = |gamma| -
h_gamma edges, counted by joining the byte classes over gamma's edges; the codec
keys the term's parts inside and outside gamma, so one pass over the trees
builds all three parts.  The analogous xi decompositions isolate ultraviolet
(contract gamma) and infrared (gamma carries all mass and momentum
dependence) behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import _edge_set, _layout, _once_per_graph, _require_connected
from .polynomials import SparsePolynomial, _normalize_coeff


# -- spanning forests ------------------------------------------------------


def _spanning_forests(g, k):
    """``(mask, classes)`` of every spanning k-forest of ``g``, in lexicographic order.

    A spanning k-forest is a set of n - k non-loop edges (n vertices) with no
    cycle.  ``mask`` has bit i for the i-th smallest edge id and ``classes``
    one byte per vertex, the smallest vertex index of its tree, both in
    ``graphs._layout``.  The forests grow in layers, as the convergence walk's
    edge sets do: a child adds an edge above its parent's last one, if enough
    edges are left above it to finish the forest; an edge whose ends share a
    class would close a cycle, and any other joins its two trees by one
    ``bytes.translate``.  A graph with more than k components has no
    spanning k-forest, but the sweep does not check that, so callers do.
    """
    layout = _layout(g)
    start, joins = layout.vertex_classes("the forest sweep")
    size = len(start) - k
    if size < 0:
        return []
    pairs = [(1 << i, u, v) for i, (u, v) in enumerate(layout.ends) if u != v]
    # a forest as (mask, the first position in pairs its next edge may take,
    # classes); a layer adds its edge below stop, so enough are left to finish
    layer = [(0, 0, start)]
    for stop in range(len(pairs) - size + 1, len(pairs) + 1):
        grown = []
        for mask, first, classes in layer:
            for j in range(first, stop):
                b, u, v = pairs[j]
                cu, cv = classes[u], classes[v]
                if cu != cv:
                    grown.append((mask | b, j + 1, classes.translate(joins[cu][cv])))
        layer = grown
    return [(mask, classes) for mask, _, classes in layer]


@_once_per_graph
def _trees(g):
    """The spanning trees of ``g`` as edge masks, swept once and kept by ``_once_per_graph``."""
    _require_connected(g, "spanning tree enumeration")
    # the empty graph's one spanning forest has no tree and no edge, and makes psi
    # 1, as the determinant of its 0 x 0 reduced Laplacian does
    return [mask for mask, _ in _spanning_forests(g, min(1, len(g.vertices)))]


def spanning_trees(g):
    """All spanning trees, as sorted edge-id tuples in lexicographic order.

    A fresh list each call, decoded from the one sweep that psi also reads.
    """
    return list(map(_layout(g).edge_ids, _trees(g)))


def spanning_two_forests(g):
    """All spanning 2-forests, in lexicographic order of their edge sets.

    Each entry is a pair ``((edge_ids, vertex_set), (edge_ids, vertex_set))``
    for the two tree components; the component containing the smallest
    vertex name comes first.  Every vertex of the graph appears in exactly
    one component.
    """
    _require_connected(g, "2-forest enumeration")
    layout = _layout(g)
    order, edge_ids = layout.names, layout.edge_ids
    # both ends of a forest edge lie in one tree, so its first end names it
    by_first = [0] * len(order)  # vertex index -> mask of the edges it is the first end of
    for i, (u, _) in enumerate(layout.ends):
        by_first[u] |= 1 << i
    forests = []
    for mask, classes in _spanning_forests(g, 2):
        verts_a, verts_b, second = [], [], 0
        for v, cls, first in zip(order, classes, by_first):
            if cls:  # not in the tree of vertex 0
                verts_b.append(v)
                second |= first
            else:
                verts_a.append(v)
        second &= mask
        tree_a = edge_ids(mask ^ second), tuple(verts_a)
        forests.append((tree_a, (edge_ids(second), tuple(verts_b))))
    return forests


# -- the polynomials -------------------------------------------------------


def _complement_sum(g, forests):
    """``sum over (mask, c) of c * prod_{e not in mask} a_e``, built in canonical form.

    Each key is the layout's codec key of the forest's complement mask,
    already canonical, so the validating constructor has nothing to check.  A
    forest with coefficient 0 is dropped, every other coefficient is normalized.
    """
    layout = _layout(g)
    full = (1 << len(layout.ids)) - 1
    terms = {}
    for mask, c in forests:
        if c:
            # assigned, not summed: distinct forests are distinct edge sets,
            # so their complements are distinct keys
            terms[layout[full ^ mask]] = _normalize_coeff(c)
    return SparsePolynomial.from_canonical(terms)


@_once_per_graph
def psi_enumerate(g):
    """First graph polynomial by spanning-tree enumeration, kept by ``graphs._once_per_graph``."""
    return _complement_sum(g, ((tree, 1) for tree in _trees(g)))


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
    Must agree exactly with :func:`psi_enumerate`; both key their terms by
    the layout codec, which the tests check against decoders of their own.

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
    return _complement_sum(g, _cofactor_determinant(lap, _MULTILINEAR).items())


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
    T1 is the tree of the smallest vertex, class 0 of the forest's byte
    classes, so its momentum-carrying vertices are read off the classes.
    """
    _require_connected(g, "phi")
    by_vertex = _net_momenta(g)
    if not by_vertex:
        return SparsePolynomial.zero()
    legged = [(i, v) for i, v in enumerate(_layout(g).names) if v in by_vertex]
    squares = {}  # momentum-carrying vertices of T1 -> (q^{T1})^2
    forests = []
    for mask, classes in _spanning_forests(g, 2):
        part = tuple([v for i, v in legged if not classes[i]])
        coeff = squares.get(part)
        if coeff is None:
            total = [sum(qs, Fraction(0)) for qs in zip(*(by_vertex[v] for v in part))]
            coeff = squares[part] = sum(q * q for q in total)
        forests.append((mask, coeff))
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
    return _complement_sum(sub, ((mask, 1) for mask, _ in forests))


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
    full = (1 << len(keys.ids)) - 1
    # rank(gamma): the edges of gamma that join two vertex classes
    classes, joins = keys.vertex_classes("the forest sweep")
    gm = rank = 0
    for eid in gamma:
        bit = keys.bit[eid]
        gm |= bit
        u, v = keys.ends[bit.bit_length() - 1]
        cu, cv = classes[u], classes[v]
        if cu != cv:
            classes = classes.translate(joins[cu][cv])
            rank += 1
    looped = gm & keys.loops
    if looped:  # a self-loop in gamma leaves no quotient graph
        raise ValueError(f"cannot contract self-loop edge {keys.edge_ids(looped)[0]}")
    sub_terms, quotient_terms, remainder = {}, {}, {}
    for tree, key in zip(_trees(g), psi_g.terms):  # term i is the complement of tree i
        inside = tree & gm
        if inside.bit_count() == rank:
            sub_terms[keys[gm ^ inside]] = 1  # the term's edges in gamma
            quotient_terms[keys[full ^ (tree | gm)]] = 1  # and outside gamma
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
