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

No graph polynomial is built: with xi not identically zero,

    ord_gamma(xi) = h_gamma + delta_gamma,

where delta_gamma = 1 when gamma holds every massive edge and every vertex
class of gamma (a vertex gamma does not touch is a class of its own)
carries zero net external momentum, and 0 otherwise.  The lowest
gamma-degree part of xi_G is psi_gamma * xi_{G/gamma}, and xi_{G/gamma}
vanishes exactly then, leaving xi_gamma * psi_{G/gamma} one degree up; all
coefficients are positive, so nothing cancels.  xi is identically zero
when no edge is massive and no vertex carries net momentum.  One walk over
the edge subsets, smallest first, reads h_gamma and the classes off edge
bitmasks and the numerator's order off its exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, lcm

from .graphs import _layout, _require_connected
from .polynomials import SparsePolynomial, _as_int
from .symanzik import _net_momenta

# cells of one layer of the subset walk, one per subset and vertex or
# numerator term; a larger layer is refused before it is built
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
    return g.induced_subgraph(gamma).loop_number()


def _packed_flows(g):
    """``(layout vertex index, packed net momentum)`` of each vertex that carries one.

    The components, scaled to integers by their common denominator, are packed
    as q0 + q1*K + q2*K^2 + q3*K^3 with K above twice the sum of their sizes,
    so a sum of packed momenta is 0 exactly when each component sums to 0.
    """
    momenta = _net_momenta(g)
    scale = lcm(*(q.denominator for qs in momenta.values() for q in qs))
    scaled = {v: [int(q * scale) for q in qs] for v, qs in momenta.items()}
    k = 2 * sum(abs(q) for qs in scaled.values() for q in qs) + 1
    index = _layout(g).index
    return [(index[v], sum(q * k**i for i, q in enumerate(qs))) for v, qs in scaled.items()]


def _first_divergence(g, spec):
    """The first edge set with omega <= 0, and its omega, or ``(None, None)``.

    One walk in Python, a layer per subset size, each layer's sets in
    lexicographic order as three parallel lists (built faster than one list
    of tuples): edge masks, vertex classes (a byte per vertex, the smallest
    vertex index of its class) and loop numbers, all in the graph's layout
    (``graphs._layout``: bit i for the i-th smallest edge id, index i for the
    i-th smallest vertex name), which also turns the witness's mask back into
    its edge ids.  A child adds one edge above its parent's largest; the
    edge closes a loop when its ends share a class, and otherwise one
    ``bytes.translate`` by the layout's joins (``_Layout.vertex_classes``,
    as in the forest sweep) relabels the larger class as the smaller.
    ord_S(P) is the least, over P's terms, of the sum of the exponents of
    the term's edges in S.  ord_S(xi) is h_S + delta_S (module docstring).

    Every set left untested has omega > 0.  The empty set has omega 0, and
    a child that closes no loop and leaves delta_S at its parent's value
    has one edge more, the same h and no lower ord_S(P), so its omega is
    at least its parent's plus 1.  A child that closes a loop is tested
    when size - (A + B) * h <= B, as ord_S(P) >= 0 and delta_S <= 1, and
    one that merges two classes when it holds every massive edge, so that
    delta_S may turn 1.  The walk stops at the first failing set and keeps
    no layer that no later layer extends.
    """
    layout = _layout(g)
    start, joins = layout.vertex_classes("the convergence test")
    n, bit, ends, nv = len(layout.ids), layout.bit, layout.ends, len(start)
    # the edges from each position on: (bit, its two ends, whether an edge follows it)
    tails = [[(1 << j, *ends[j], j + 1 < n) for j in range(first, n)] for first in range(n + 1)]
    terms = []  # per numerator term: (edge bit, exponent) of each variable
    if spec.numerator.is_homogeneous() != 0:
        terms = [[(bit[v], x) for v, x in key] for key in spec.numerator.terms]
    width = nv + len(terms)
    xi_power = spec.xi_power
    closed = spec.psi_power + xi_power  # omega's weight on h_S
    massive = sum(bit[e.id] for e in g.edges if e.mass_sq)
    flows = _packed_flows(g) if xi_power else []
    balanced = {}  # classes -> whether every class carries zero net momentum

    # the helpers read spec rather than closed and xi_power: a local that a
    # nested function reads becomes a cell, slower to reach in the loop
    def omega(size, mask, classes, h):
        w = size - (spec.psi_power + spec.xi_power) * h
        if spec.xi_power and mask & massive == massive:
            zero = balanced.get(classes)
            if zero is None:
                sums = {}
                for i, q in flows:
                    sums[classes[i]] = sums.get(classes[i], 0) + q
                zero = balanced[classes] = not any(sums.values())
            w -= spec.xi_power * zero
        if w <= 0 and terms:
            w += min(sum(x for b, x in t if mask & b) for t in terms)
        return w

    masks, partitions, loop_numbers = [0], [start], [0]
    for size in range(1, n):
        subsets = comb(n, size)
        if subsets * width > _LAYER_CELLS:
            raise ValueError(
                f"the convergence test on {n} edges needs {subsets * width} table entries "
                f"for the {subsets} subsets of size {size}, more than the {_LAYER_CELLS} "
                "one layer may hold"
            )
        keep = size + 1 < n and comb(n, size + 1) * width <= _LAYER_CELLS
        # the least h at which a child that closes a loop is tested
        fallible = -(-(size - xi_power) // closed) if closed else n
        next_masks, next_partitions, next_loop_numbers = [], [], []
        add_mask, add_classes, add_loops = (
            next_masks.append, next_partitions.append, next_loop_numbers.append
        )
        for mask, classes, loops in zip(masks, partitions, loop_numbers):
            for b, u, v, more in tails[mask.bit_length()]:
                cu, cv = classes[u], classes[v]
                if cu == cv:
                    h, joined = loops + 1, classes
                    if h >= fallible and (w := omega(size, mask | b, joined, h)) <= 0:
                        return layout.edge_ids(mask | b), w
                else:
                    h, joined = loops, classes.translate(joins[cu][cv])
                    if (xi_power and (mask | b) & massive == massive
                            and (w := omega(size, mask | b, joined, h)) <= 0):
                        return layout.edge_ids(mask | b), w
                if more and keep:
                    add_mask(mask | b)
                    add_classes(joined)
                    add_loops(h)
        masks, partitions, loop_numbers = next_masks, next_partitions, next_loop_numbers
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
    names no edge, a power or numerator degree of 2^31 or more, external
    momenta that do not sum to zero (with B > 0), a zero xi with B > 0 (no
    massive edge and no vertex with net momentum, whatever the numerator; a
    zero numerator otherwise converges), more than 256 vertices, and a layer
    of more than ``_LAYER_CELLS`` entries (subsets times vertices plus
    numerator terms), before it is built: with 1/psi^2 a primitive graph
    passes up to 10 loops (20 edges, 11 vertices).  No graph polynomial is
    built and no forest is swept.
    """
    _require_connected(g, "convergence test")
    unknown = set(spec.numerator.variables()).difference(g.edge_ids())
    if unknown:
        raise ValueError(f"numerator variable a{min(unknown)} names no edge of the graph")
    # omega is an exact Python int at any size, but a power this large
    # overflows or underflows every floating sample of the integrand
    if max(spec.psi_power, spec.xi_power, spec.numerator.total_degree()) >= 1 << 31:
        raise ValueError("the convergence test needs powers and a numerator degree below 2^31")
    certified = spec.xi_power == 0 or all(e.mass_sq > 0 for e in g.edges)
    if spec.xi_power and not _net_momenta(g) and not any(e.mass_sq for e in g.edges):
        raise ValueError("xi vanishes identically; the integrand is singular")
    if spec.numerator.is_zero():
        return (True, None, None, certified)
    witness, omega = _first_divergence(g, spec)
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
