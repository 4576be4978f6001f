"""Power counting for parametric integrands.

An integrand is ``P(a) / (psi^A * xi^B)`` against the canonical projective
volume form; it defines a projective integral only when its total
homogeneity degree

    deg P + N  -  A*h  -  B*(h+1)

vanishes (N edges, loop number h).  With numerator 1, A = 2, B = 0 this is
the condition N = 2h.

Convergence of ``integral of Omega / psi^2`` is governed by the subgraph
test: the integral converges iff every nonempty proper subgraph gamma
satisfies N_gamma > 2 * h_gamma ("primitive").  A subgraph that fails with
equality marks a logarithmic subdivergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import _classes, _require_connected
from .polynomials import SparsePolynomial, _as_int


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
    edges = [g.edge_by_id(eid) for eid in dict.fromkeys(gamma)]
    verts = {v for e in edges for v in e.ends}
    comps = len(set(_classes(verts, (e.ends for e in edges)).values()))
    return len(edges) - len(verts) + comps


def is_primitive(g):
    """Subgraph convergence test for the ``1/psi^2`` integrand.

    Returns ``(True, None)`` when every nonempty proper subgraph gamma has
    more edges than twice its loop number, else ``(False, witness)`` with
    the first failing edge set (smallest, then lexicographic).
    """
    _require_connected(g, "primitivity test")
    for gamma in g.enumerate_subgraphs():
        if len(gamma) <= 2 * subgraph_loop_number(g, gamma):
            return (False, gamma)
    return (True, None)


def is_phi4(g):
    """True iff every vertex has at most four half-edges (legs included)."""
    return all(g.vertex_degree(v) <= 4 for v in g.vertices)


def weight_bound(g):
    """Conjectural upper bound 4*h on the weight of the period's numbers.

    Informational only; nothing in this package depends on it.
    """
    return 4 * g.loop_number()
