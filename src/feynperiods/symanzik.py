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
exactly.  The determinant route evaluates the reduced edge-weighted
Laplacian by fraction-free elimination, never leaving the polynomial ring.

Partial factorizations: for a subgraph gamma (a set of edge ids) write

      psi_G = psi_gamma * psi_{G/gamma} + R

where psi_gamma is the sum over spanning forests of gamma with one tree per
connected component (the product of the components' first polynomials) and
G/gamma is the contraction.  Every term of R has degree in the gamma
variables strictly greater than deg psi_gamma = h_gamma.  The
analogous xi decompositions isolate ultraviolet (contract gamma) and
infrared (gamma carries all mass and momentum dependence) behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from .polynomials import SparsePolynomial, exact_divide


def _require_connected(g, what):
    if not g.is_connected():
        raise ValueError(f"{what} needs a connected graph (components: {len(g.components())})")


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
    """First graph polynomial by direct spanning-tree enumeration."""
    return _complement_sum(g, ((tree, 1) for tree in spanning_trees(g)))


def _bareiss_determinant(m):
    """Exact determinant of a square matrix of polynomials.

    Fraction-free (single-step) elimination: every division is exact in the
    polynomial ring, so intermediate entries stay polynomials rather than
    rational functions.
    """
    n = len(m)
    if n == 0:
        return SparsePolynomial.one()
    m = [row[:] for row in m]
    sign = 1
    prev = SparsePolynomial.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return SparsePolynomial.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = exact_divide(pivot * row_i[j] - lead * row_k[j], prev)
            row_i[k] = SparsePolynomial.zero()
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def psi_determinant(g):
    """First graph polynomial via the edge-weighted Laplacian determinant.

    Build the Laplacian with weight a_e on each non-loop edge, delete the row
    and column of the largest vertex, and take the determinant by
    fraction-free elimination.  That determinant is the spanning-tree sum
    ``sum_T prod_{e in T} a_e``; complementing each monomial's support in the
    non-loop edge set (and multiplying by every self-loop variable) gives
    psi.  Must agree exactly with :func:`psi_enumerate`.
    """
    _require_connected(g, "psi")
    order = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    nonloop_ids = []
    loop_ids = []
    size = n - 1
    lap = [[SparsePolynomial.zero() for _ in range(size)] for _ in range(size)]
    for e in g.edges:
        if e.is_loop:
            loop_ids.append(e.id)
            continue
        nonloop_ids.append(e.id)
        var = SparsePolynomial.variable(e.id)
        i, j = idx[e.ends[0]], idx[e.ends[1]]
        if i < size:
            lap[i][i] = lap[i][i] + var
        if j < size:
            lap[j][j] = lap[j][j] + var
        if i < size and j < size:
            lap[i][j] = lap[i][j] - var
            lap[j][i] = lap[j][i] - var
    kirchhoff = _bareiss_determinant(lap)
    nonloop = frozenset(nonloop_ids)
    loop_key = tuple((v, 1) for v in sorted(loop_ids))
    terms = []
    for key, coeff in kirchhoff.terms.items():
        support = {v for v, _ in key}
        comp = tuple((v, 1) for v in sorted(nonloop - support))
        terms.append((comp + loop_key, coeff))
    return SparsePolynomial(terms)


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
    the spanning trees that restrict to spanning forests of gamma.
    """
    gamma = _check_gamma(g, gamma)
    psi_g = psi_enumerate(g)
    psi_gamma = psi_subgraph(g, gamma)
    psi_quotient = psi_enumerate(g.contract_subgraph(gamma))
    remainder = psi_g - psi_gamma * psi_quotient
    return Factorization(psi_gamma, psi_quotient, remainder)


def xi_partial_factor_uv(g, gamma):
    """Ultraviolet split: ``xi_G = psi_gamma * xi_{G/gamma} + R``.

    The contraction keeps the legs (attached to the merged vertices) and the
    masses of the surviving edges, so the quotient's xi carries all the
    momentum and mass dependence outside gamma.
    """
    gamma = _check_gamma(g, gamma)
    xi_g = xi(g)
    psi_gamma = psi_subgraph(g, gamma)
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
