"""Power counting for parametric integrands.

An integrand is ``P(a) / (psi^A * xi^B)`` against the canonical projective
volume form; it defines a projective integral only when its total
homogeneity degree

    deg P + N  -  A*h  -  B*(h+1)

vanishes (N edges, loop number h).  With numerator 1, A = 2, B = 0 this is
the condition N = 2h.

Convergence is decided subgraph by subgraph.  Write ord_gamma(f) for the
lowest total degree in the variables of the edge set gamma over the terms
of f (ord_gamma(psi) is the loop number h_gamma).  Then

    omega(gamma) = |gamma| + ord_gamma(P) - A*h_gamma - B*ord_gamma(xi).

Scaling the gamma variables by t -> 0 makes the integrand behave like
t^(omega - 1) times a function of the other variables that does not vanish,
so omega(gamma) <= 0 for one nonempty proper gamma means the integral of
|integrand| diverges, whatever the signs of P's coefficients.  That
necessity always holds.  Sufficiency holds when the Newton polytopes of the
denominators are generalized permutahedra, whose facets are exactly these
subset inequalities (Borinsky, arXiv:2008.12310): psi's always is (a
matroid base polytope), and xi's is when every edge is massive.  Each
monomial of P then converges on its own, so the test is exact; a verdict
with B > 0 and a massless edge is not ``certified``.  For ``1/psi^2``
omega(gamma) = |gamma| - 2*h_gamma, and a graph passing the test is
"primitive"; a subgraph failing with equality marks a logarithmic
subdivergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .graphs import _classes, _edge_set, _require_connected
from .polynomials import SparsePolynomial, _as_int
from .symanzik import xi

# entries of one layer of the subset table, one per subset and vertex or
# polynomial term (at most 8 bytes each); a larger layer is refused before
# it is built
_LAYER_CELLS = 1 << 21


@dataclass(frozen=True)
class IntegrandSpec:
    """Numerator polynomial and denominator powers of a parametric integrand."""

    numerator: SparsePolynomial = field(default_factory=SparsePolynomial.one)
    psi_power: int = 2
    xi_power: int = 0

    def __post_init__(self):
        for name in ("psi_power", "xi_power"):
            power = _as_int(name, getattr(self, name))
            if power < 0:
                raise ValueError("denominator powers must be nonnegative")
            object.__setattr__(self, name, power)
        if not isinstance(self.numerator, SparsePolynomial):
            raise ValueError("numerator must be a SparsePolynomial")


def projective_degree(g, spec):
    """Total homogeneity degree of the integrand; 0 is required for integration."""
    deg_p = spec.numerator.is_homogeneous()
    if deg_p is None:
        raise ValueError("numerator is not homogeneous")
    h = g.loop_number()
    return deg_p + g.n_edges - spec.psi_power * h - spec.xi_power * (h + 1)


def subgraph_loop_number(g, gamma):
    """Loop number of the subgraph induced by the edge ids ``gamma``."""
    ids = set(_edge_set(g, gamma))
    edges = [e for e in g.edges if e.id in ids]
    verts = {v for e in edges for v in e.ends}
    comps = len(set(_classes(verts, (e.ends for e in edges)).values()))
    return len(edges) - len(verts) + comps


def _exponents(poly, ids):
    """(edges, terms) matrix of the exponent of each edge variable in each term."""
    import numpy as np

    col = {eid: i for i, eid in enumerate(ids)}
    exps = np.zeros((len(ids), len(poly.terms)), dtype=np.int64)
    for t, key in enumerate(poly.terms):
        for v, e in key:
            exps[col[v], t] = e
    return exps


def _first_divergence(g, psi_power, polys):
    """The first edge set with omega <= 0, and its omega, or ``(None, None)``.

    ``polys`` lists ``(polynomial, weight)`` pairs, each adding weight *
    ord_gamma(polynomial) to omega.  The table is built layer by layer, one
    layer per subset size; a layer's rows are its subsets in lexicographic
    order, each kept as its parent row and largest edge, its vertex classes
    (one label per vertex, shared by the vertices it joins), its loop number
    and, per polynomial, the gamma-degree of every term.  A row of the next
    layer is a row plus one larger edge: that edge closes a loop when its
    two ends share a class, and otherwise merges their classes.  The walk
    stops at the first layer that holds a witness.
    """
    import numpy as np

    edges = sorted(g.edges, key=lambda e: e.id)
    ids = [e.id for e in edges]
    n = len(ids)
    index = {v: i for i, v in enumerate(sorted(g.vertices))}
    ends = np.array([[index[v] for v in e.ends] for e in edges], dtype=np.intp).reshape(n, 2)
    exps = [(_exponents(poly, ids), weight) for poly, weight in polys]
    # layer 0: the empty set
    last = np.full(1, -1)
    classes = np.arange(len(index), dtype=np.min_scalar_type(len(index)))[None, :]
    loops = np.zeros(1, dtype=np.int64)
    degrees = [np.zeros((1, m.shape[1]), dtype=np.int64) for m, _ in exps]
    layers = []  # (parent row, added edge) of every row, layer by layer
    width = len(index) + sum(m.shape[1] for m, _ in exps)
    for size in range(1, n):
        subsets = comb(n, size)
        if subsets * width > _LAYER_CELLS:
            raise ValueError(
                f"the convergence test on {n} edges needs {subsets * width} table entries "
                f"for the {subsets} subsets of size {size}, more than the {_LAYER_CELLS} "
                "one layer may hold"
            )
        counts = n - 1 - last
        parent = np.repeat(np.arange(len(counts)), counts)
        rows = np.arange(len(parent))
        # a parent's children add the edges last+1 .. n-1; its first child's
        # row is cumsum(counts) - counts
        last = rows + (n - np.cumsum(counts))[parent]
        layers.append((parent, last))
        classes = classes[parent]
        a, b = classes[rows, ends[last].T]
        loops = loops[parent] + (a == b)
        classes = np.where(classes == b[:, None], a[:, None], classes)
        omega = size - psi_power * loops
        for i, (m, weight) in enumerate(exps):
            degrees[i] = degrees[i][parent] + m[last]
            omega = omega + weight * degrees[i].min(axis=1)
        failing = omega <= 0
        if failing.any():
            row = int(failing.argmax())
            value = int(omega[row])
            witness = []
            for parent, edge in reversed(layers):
                witness.append(ids[edge[row]])
                row = parent[row]
            return tuple(reversed(witness)), value
    return None, None


def convergence(g, spec):
    """Subgraph power counting of ``spec`` on ``g``: ``(convergent, witness, omega, certified)``.

    ``witness`` is the first nonempty proper edge set with omega <= 0
    (smallest, then lexicographic) and ``omega`` its value, or both are
    ``None``; the walk stops at the first subset size that holds a witness,
    so ``omega`` is not the minimum over all subgraphs.  A witness always
    proves divergence.  ``certified`` is true when the test is also
    sufficient: B = 0 or every edge is massive (see the module docstring).
    Refused in this order: a disconnected graph, a numerator variable that
    names no edge, a power or numerator degree of 2^31 or more, a zero xi
    with B > 0 (whatever the numerator; a zero numerator otherwise
    converges), and a table layer of more than ``_LAYER_CELLS`` entries
    (subsets times vertices plus terms), before it is built: with 1/psi^2
    a primitive graph passes up to 10 loops (20 edges, 11 vertices).  With
    B > 0, xi (kept on ``g``) is built before that cap: a zero xi, with no
    mass and no vertex carrying net momentum, sweeps no forest, and any
    other xi sweeps the 2-forests.
    """
    _require_connected(g, "convergence test")
    unknown = set(spec.numerator.variables()).difference(g.edge_ids())
    if unknown:
        raise ValueError(f"numerator variable a{min(unknown)} names no edge of the graph")
    # keeps every omega of the int64 table exact
    if max(spec.psi_power, spec.xi_power, spec.numerator.total_degree()) >= 1 << 31:
        raise ValueError("the convergence test needs powers and a numerator degree below 2^31")
    certified = spec.xi_power == 0 or all(e.mass_sq > 0 for e in g.edges)
    polys = [] if spec.numerator.is_homogeneous() == 0 else [(spec.numerator, 1)]
    if spec.xi_power:
        if xi(g).is_zero():
            raise ValueError("xi vanishes identically; the integrand is singular")
        polys.append((xi(g), -spec.xi_power))
    if spec.numerator.is_zero():
        return (True, None, None, certified)
    witness, omega = _first_divergence(g, spec.psi_power, polys)
    return (witness is None, witness, omega, certified)


def is_primitive(g):
    """Subgraph convergence test for the ``1/psi^2`` integrand.

    Returns ``(True, None)`` when every nonempty proper subgraph gamma has
    more edges than twice its loop number, else ``(False, witness)`` with
    the first failing edge set (smallest, then lexicographic).  This is
    :func:`convergence` for the default :class:`IntegrandSpec`.
    """
    convergent, witness, _, _ = convergence(g, IntegrandSpec())
    return (convergent, witness)


def is_phi4(g):
    """True iff every vertex has at most four half-edges (legs included)."""
    return all(g.vertex_degree(v) <= 4 for v in g.vertices)


def weight_bound(g):
    """Conjectural upper bound 4*h on the weight of the period's numbers.

    Informational only; nothing in this package depends on it.
    """
    return 4 * g.loop_number()
