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
psi_gamma below; one enumerator produces the forests for every k.  Both
enumeration and a determinant route are provided for psi; they must agree
exactly.  The determinant route expands the reduced edge-weighted Laplacian
by cofactors, which needs no division and so never leaves the polynomial
ring.

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
bitmasks kept next to the psi memo, one per term with bit i for the i-th
smallest edge id: a term's gamma-part is ``mask & gamma_mask``, its
gamma-degree the popcount of that.  The analogous xi decompositions isolate
ultraviolet (contract gamma) and infrared (gamma carries all mass and
momentum dependence) behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from .graphs import _require_connected
from .polynomials import SparsePolynomial


# -- spanning forests ------------------------------------------------------

_edge_id = itemgetter(2)


def _spanning_forests(g, k):
    """Yield ``(edge_ids, parent)`` for every spanning k-forest of ``g``.

    A spanning k-forest is a set of n - k non-loop edges (n vertices) with no
    cycle; it has exactly k trees, so a graph with more than k components has
    none.  Edge sets come in lexicographic order of their sorted ids.
    ``parent`` is the union-find array over the vertex indices (sorted vertex
    order); every link points to a smaller index, so one ascending pass of
    ``parent[i] = parent[parent[i]]`` names each tree by its smallest vertex.
    """
    verts = {v: i for i, v in enumerate(sorted(g.vertices))}
    n = len(verts)
    if n < k:
        return
    pairs = [
        (verts[e.ends[0]], verts[e.ends[1]], e.id)
        for e in sorted(g.edges, key=lambda e: e.id)
        if not e.is_loop
    ]
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


def spanning_trees(g):
    """All spanning trees, as sorted edge-id tuples in lexicographic order."""
    trees = [ids for ids, _ in _spanning_forests(g, 1)]
    if not trees:
        raise ValueError(
            "spanning tree enumeration needs a connected graph "
            f"(components: {len(g.components())})"
        )
    return trees


def spanning_two_forests(g):
    """All spanning 2-forests, in lexicographic order of their edge sets.

    Each entry is a pair ``((edge_ids, vertex_set), (edge_ids, vertex_set))``
    for the two tree components; the component containing the smallest
    vertex name comes first.  Every vertex of the graph appears in exactly
    one component.
    """
    _require_connected(g, "2-forest enumeration")
    order = sorted(g.vertices)
    index = {v: i for i, v in enumerate(order)}
    first_end = {e.id: index[e.ends[0]] for e in g.edges}
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
    """``sum over (edge_ids, c) of c * prod_{e not in edge_ids} a_e``."""
    all_ids = frozenset(g.edge_ids())
    return SparsePolynomial(
        [(tuple((v, 1) for v in sorted(all_ids - set(ids))), c) for ids, c in forests]
    )


def psi_enumerate(g):
    """First graph polynomial by direct spanning-tree enumeration.

    Graphs are immutable, so the result is memoised on the graph instance:
    it is kept in the instance ``__dict__``, as ``functools.cached_property``
    does, which frees it with the graph and keeps it out of ``==``, ``hash``
    and ``repr``.
    """
    psi = g.__dict__.get("_psi")
    if psi is None:
        psi = g.__dict__["_psi"] = _complement_sum(g, ((tree, 1) for tree in spanning_trees(g)))
    return psi


class _TermMasks(dict):
    """Edge bitmasks of the terms of one psi, as a mask -> monomial key dict.

    Bit i stands for ``ids[i]``, the i-th smallest edge id.  ``masks`` lists
    one mask per term of ``psi``, in ``psi.terms`` order, and ``loops`` is
    the mask of the self-loop edges.  The dict starts with the terms' own
    keys; looking up any other mask builds its squarefree key and keeps it.
    """

    def __init__(self, g, psi):
        self.psi = psi
        self.ids = sorted(g.edge_ids())
        self.bit = {eid: 1 << i for i, eid in enumerate(self.ids)}
        self.masks = [sum(self.bit[v] for v, _ in key) for key in psi.terms]
        self.loops = sum(self.bit[e.id] for e in g.edges if e.is_loop)
        super().__init__(zip(self.masks, psi.terms))

    def __missing__(self, mask):
        key = []
        rest = mask
        while rest:
            low = rest & -rest
            key.append((self.ids[low.bit_length() - 1], 1))
            rest ^= low
        key = self[mask] = tuple(key)
        return key


def _cofactor_determinant(m):
    """Exact determinant of a square matrix of polynomials, with no division.

    Laplace expansion row by row: after each row, ``minors`` maps the set of
    columns used so far (a bitmask S) to the minor of the rows done over S.
    Entry (r, j) extends a minor over S with sign (-1)^|{c in S : c > j}|,
    the inversions it adds; minors that cancel to zero are dropped.  The
    empty matrix has determinant 1.
    """
    minors = {0: SparsePolynomial.one()}
    for row in m:
        grown = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or entry.is_zero():
                    continue
                term = entry * minor
                if (cols >> j).bit_count() & 1:
                    term = -term
                key = cols | 1 << j
                grown[key] = grown[key] + term if key in grown else term
        minors = {cols: minor for cols, minor in grown.items() if minor}
    return minors.get((1 << len(m)) - 1, SparsePolynomial.zero())


def psi_determinant(g):
    """First graph polynomial via the edge-weighted Laplacian determinant.

    Build the Laplacian with weight a_e on each non-loop edge, delete the row
    and column of the largest vertex, and take the determinant by
    division-free cofactor expansion.  That determinant is the spanning-tree
    sum ``sum_T prod_{e in T} a_e``; complementing each monomial's support in
    the non-loop edge set (and multiplying by every self-loop variable) gives
    psi.  Must agree exactly with :func:`psi_enumerate`.
    """
    _require_connected(g, "psi")
    order = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(order)}
    size = len(order) - 1
    lap = [[SparsePolynomial.zero() for _ in range(size)] for _ in range(size)]
    for e in g.edges:
        if e.is_loop:
            continue
        var = SparsePolynomial.variable(e.id)
        i, j = idx[e.ends[0]], idx[e.ends[1]]
        if i < size:
            lap[i][i] = lap[i][i] + var
        if j < size:
            lap[j][j] = lap[j][j] + var
        if i < size and j < size:
            lap[i][j] = lap[i][j] - var
            lap[j][i] = lap[j][i] - var
    kirchhoff = _cofactor_determinant(lap)
    return _complement_sum(g, [([v for v, _ in key], c) for key, c in kirchhoff.terms.items()])


def phi(g):
    """Momentum polynomial (spanning-2-forest sum with squared momenta).

    Requires exact momentum conservation of the external legs.  A graph
    whose legs all carry zero momentum gets the zero polynomial.
    """
    _require_connected(g, "phi")
    if not g.momentum_conserved():
        raise ValueError("external momenta do not sum to zero")
    by_vertex = {}
    for leg in g.legs:
        acc = by_vertex.setdefault(leg.vertex, [Fraction(0)] * 4)
        for i, q in enumerate(leg.momentum):
            acc[i] += q
    forests = []
    for (edges_a, verts_a), (edges_b, _) in spanning_two_forests(g):
        total = [Fraction(0)] * 4
        for v in verts_a:
            if v in by_vertex:
                q = by_vertex[v]
                for i in range(4):
                    total[i] += q[i]
        coeff = sum(q * q for q in total)
        if coeff:
            forests.append((edges_a + edges_b, coeff))
    return _complement_sum(g, forests)


def mass_term(g):
    """``sum_e m_e^2 a_e`` over the internal edges."""
    return SparsePolynomial(
        [(((e.id, 1),), e.mass_sq) for e in g.edges if e.mass_sq]
    )


def xi(g):
    """``phi + (sum_e m_e^2 a_e) * psi``: the full denominator polynomial."""
    return phi(g) + mass_term(g) * psi_enumerate(g)


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
        p = psi_enumerate(g)
        f = phi(g)
        x = f + mass_term(g) * p
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
    gamma = tuple(sorted(set(gamma)))
    ids = set(g.edge_ids())
    for eid in gamma:
        if eid not in ids:
            raise ValueError(f"no edge with id {eid}")
    if not gamma:
        raise ValueError("subgraph must contain at least one edge")
    if len(gamma) == len(ids):
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
    # the masks are memoised next to psi, and rebuilt if the psi memo was replaced
    keys = g.__dict__.get("_term_masks")
    if keys is None or keys.psi is not psi_g:
        keys = g.__dict__["_term_masks"] = _TermMasks(g, psi_g)
    gm = 0
    for eid in gamma:
        gm |= keys.bit[eid]
    looped = gm & keys.loops
    if looped:  # a self-loop in gamma leaves no quotient graph
        first = (looped & -looped).bit_length() - 1
        raise ValueError(f"cannot contract self-loop edge {keys.ids[first]}")
    subs = [m & gm for m in keys.masks]
    # every spanning forest of gamma extends to a spanning tree of G, so the
    # lowest gamma-degree is h_gamma
    h_gamma = min(map(int.bit_count, subs))
    sub_terms, quotient_terms, remainder = {}, {}, {}
    for m, sub, key in zip(keys.masks, subs, psi_g.terms):
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
