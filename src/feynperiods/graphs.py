"""Feynman graphs: multigraphs with external legs, masses, and momenta.

Conventions
-----------
* A graph has named vertices, internal edges, and external half-edges
  ("legs").  Multiple edges between the same pair of vertices and self-loops
  are both allowed.
* Edge ids are positive integers and act as the polynomial variable names
  elsewhere in the package; freshly constructed graphs normally number them
  1..N.  Deletion and contraction preserve the ids of surviving edges, so a
  quotient graph's polynomials stay in the original variables.
* Each edge carries a squared mass (exact rational, >= 0).  Each leg carries
  an incoming momentum as four exact rational components, with all-Euclidean
  (positive definite) squares.
* Exact inputs follow one rule (see :func:`polynomials._as_fraction`): an
  edge id is an integer, and a mass or a momentum component is a Fraction,
  an integer or a rational string such as ``"3/4"``.  Bools and floats are
  refused.  A vertex name, in the vertex list, an edge end or a leg, is read
  by ``str()``.  Every argument that names edges is read by :func:`_edge_set`:
  ids must be integers, duplicates collapse and ids are sorted; the smallest
  unknown id is named first, and self-loop refusals come after unknown ids.
* The loop number is E - V + (number of connected components), counting a
  vertex that carries only legs as its own component.

Graphs are immutable; all mutating-looking operations return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
from itertools import combinations
import json

from .polynomials import _as_fraction, _as_int


def _classes(vertices, pairs):
    """Map each vertex to the smallest vertex joined to it through ``pairs``."""
    parent = {v: v for v in vertices}
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if b < a:
                a, b = b, a
            parent[b] = a
    # every link points to a smaller vertex, so in ascending order a vertex's
    # parent is already resolved to its root when the vertex is reached
    for v in sorted(parent):
        parent[v] = parent[parent[v]]
    return parent


def _edge_set(g, edge_ids):
    """The distinct ids of ``edge_ids``, sorted; the smallest unknown id is an error.

    Each id is read by ``_as_int`` before the lookup, so a bool or a float that
    compares equal to an id is still refused.
    """
    ids = {_as_int("edge id", eid) for eid in edge_ids}
    unknown = ids.difference(_layout(g).bit)
    if unknown:
        raise ValueError(f"no edge with id {min(unknown)}")
    return tuple(sorted(ids))


def _require_connected(g, what):
    if not g.is_connected():
        raise ValueError(f"{what} needs a connected graph (components: {len(g.components())})")


def _once_per_graph(build):
    """Keep ``build(g)`` in ``g.__dict__``, as ``functools.cached_property`` does.

    Graphs are immutable, so the value holds for the graph's life, pickles with it and
    stays out of ``==``, ``hash``, ``repr`` and :func:`graph_to_dict`.
    """
    key = f"{build.__module__}.{build.__qualname__}"  # dotted, so no attribute shadows it

    @functools.wraps(build)
    def once(g):
        value = g.__dict__.get(key)
        if value is None:
            value = g.__dict__[key] = build(g)
        return value

    return once


class _Layout(dict):
    """The integer picture of one graph, as a mask -> monomial key dict.

    Vertex i is ``names[i]``, the i-th smallest name, and ``index`` maps each
    name to i; edge bit i stands for ``ids[i]``, the i-th smallest edge id,
    and ``bit`` maps each id to its bit.  ``ends`` holds each edge's pair of
    vertex indices in id order, and ``loops`` is the mask of the self-loops.
    :meth:`edge_ids` decodes an edge mask, and looking one up gives the
    squarefree key ``((id, 1), ...)`` of its edges, built on first use and kept.
    """

    def __init__(self, g):
        self.names = sorted(g.vertices)
        self.index = {v: i for i, v in enumerate(self.names)}
        edges = sorted(g.edges, key=lambda e: e.id)
        self.ids = [e.id for e in edges]
        self.bit = {eid: 1 << i for i, eid in enumerate(self.ids)}
        self.ends = [(self.index[e.ends[0]], self.index[e.ends[1]]) for e in edges]
        self.loops = sum(1 << i for i, (u, v) in enumerate(self.ends) if u == v)
        self._classes = None

    def vertex_classes(self, what):
        """``(bytes(range(n)), joins)``: the vertex classes of every edge-subset sweep.

        A byte per vertex names its class by the smallest vertex index in it, and
        ``classes.translate(joins[a][b])`` relabels class max(a, b) as min(a, b).
        The table is built on first use; more than 256 vertices are refused.
        """
        if self._classes is None:
            nv = len(self.names)
            if nv > 256:
                raise ValueError(
                    f"{what} labels vertex classes in one byte: {nv} vertices, more than 256"
                )
            joins = [[None] * nv for _ in range(nv)]
            for a in range(nv):
                for b in range(a):
                    joins[a][b] = joins[b][a] = bytes.maketrans(bytes((a,)), bytes((b,)))
            self._classes = bytes(range(nv)), joins
        return self._classes

    def edge_ids(self, mask):
        """The ids of the edges in ``mask``, ascending."""
        ids = []
        while mask:
            low = mask & -mask
            ids.append(self.ids[low.bit_length() - 1])
            mask ^= low
        return tuple(ids)

    def __missing__(self, mask):
        key = self[mask] = tuple([(eid, 1) for eid in self.edge_ids(mask)])
        return key


@_once_per_graph
def _layout(g):
    """The graph's :class:`_Layout`, built once."""
    return _Layout(g)


@dataclass(frozen=True)
class Edge:
    """Internal edge: id, unordered endpoints, squared mass."""

    id: int
    ends: tuple[str, str]
    mass_sq: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "id", _as_int("edge id", self.id))
        if self.id < 1:
            raise ValueError(f"edge id must be a positive integer, got {self.id}")
        if not isinstance(self.ends, (list, tuple)) or len(self.ends) != 2:
            raise ValueError(f"edge {self.id} needs exactly two endpoints")
        object.__setattr__(self, "ends", (str(self.ends[0]), str(self.ends[1])))
        object.__setattr__(self, "mass_sq", _as_fraction(f"edge {self.id} mass_sq", self.mass_sq))
        if self.mass_sq < 0:
            raise ValueError(f"edge {self.id} has negative squared mass")

    @property
    def is_loop(self):
        return self.ends[0] == self.ends[1]


@dataclass(frozen=True)
class ExternalLeg:
    """External half-edge: attachment vertex and incoming momentum (4 components)."""

    vertex: str
    momentum: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if not isinstance(self.momentum, (list, tuple)) or len(self.momentum) != 4:
            raise ValueError("momentum needs exactly 4 components")
        object.__setattr__(self, "vertex", str(self.vertex))
        object.__setattr__(
            self, "momentum", tuple(_as_fraction("leg momentum", q) for q in self.momentum)
        )

    def momentum_sq(self):
        return sum(q * q for q in self.momentum)


@dataclass(frozen=True)
class FeynmanGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    legs: tuple[ExternalLeg, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            for v in e.ends:
                if v not in vset:
                    raise ValueError(f"edge {e.id} endpoint {v!r} is not a declared vertex")
        for leg in self.legs:
            if leg.vertex not in vset:
                raise ValueError(f"leg attaches to undeclared vertex {leg.vertex!r}")

    # -- basic queries -----------------------------------------------------

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_ids(self):
        return tuple(e.id for e in self.edges)

    def edge_by_id(self, edge_id):
        [edge_id] = _edge_set(self, (edge_id,))
        return next(e for e in self.edges if e.id == edge_id)

    def components(self):
        """Connected components of the internal-edge graph, as sorted vertex tuples.

        Leg-only and isolated vertices each form their own component.
        """
        rep = _classes(self.vertices, (e.ends for e in self.edges))
        groups = {}
        for v in self.vertices:
            groups.setdefault(rep[v], []).append(v)
        return tuple(tuple(sorted(g)) for g in sorted(groups.values()))

    def is_connected(self):
        return len(self.components()) <= 1

    def loop_number(self):
        """Rank of the first homology: E - V + (number of components)."""
        return len(self.edges) - len(self.vertices) + len(self.components())

    def vertex_degree(self, vertex):
        """Half-edge count at a vertex: internal ends (a self-loop counts twice) plus legs."""
        d = 0
        for e in self.edges:
            d += (e.ends[0] == vertex) + (e.ends[1] == vertex)
        for leg in self.legs:
            d += leg.vertex == vertex
        return d

    def momentum_conserved(self):
        """True iff the incoming leg momenta sum to zero, component by component, exactly."""
        return all(sum(qs) == 0 for qs in zip(*(leg.momentum for leg in self.legs)))

    # -- minors ------------------------------------------------------------

    def delete_edge(self, edge_id):
        """The graph minus one internal edge; vertices and legs are untouched."""
        [edge_id] = _edge_set(self, (edge_id,))
        return FeynmanGraph(
            vertices=self.vertices,
            edges=tuple(e for e in self.edges if e.id != edge_id),
            legs=self.legs,
        )

    def contract_subgraph(self, edge_ids):
        """Contract a set of internal edges simultaneously.

        Endpoints joined by contracted edges collapse to one vertex (named by
        the smallest member of the class); the contracted edges disappear,
        including any that run between two vertices of the same class.
        Surviving edges keep their ids, so quotient polynomials stay in the
        original variables.  Legs follow their vertex into its class.

        An edge that is already a self-loop of this graph cannot be
        contracted.
        """
        gamma = set(_edge_set(self, edge_ids))
        if not gamma:
            return self
        looped = [e.id for e in self.edges if e.id in gamma and e.is_loop]
        if looped:
            raise ValueError(f"cannot contract self-loop edge {min(looped)}")
        rep = _classes(self.vertices, (e.ends for e in self.edges if e.id in gamma))
        return FeynmanGraph(
            vertices=tuple(sorted({rep[v] for v in self.vertices})),
            edges=tuple(
                Edge(e.id, (rep[e.ends[0]], rep[e.ends[1]]), e.mass_sq)
                for e in self.edges
                if e.id not in gamma
            ),
            legs=tuple(ExternalLeg(rep[leg.vertex], leg.momentum) for leg in self.legs),
        )

    def induced_subgraph(self, edge_ids):
        """The subgraph on a set of edge ids and the endpoints they touch.

        Masses are kept; legs of the parent attached to surviving vertices
        are kept as well (they carry the external momentum entering the
        subgraph).
        """
        gamma = set(_edge_set(self, edge_ids))
        edges = tuple(e for e in self.edges if e.id in gamma)
        vs = sorted({v for e in edges for v in e.ends})
        return FeynmanGraph(
            vertices=tuple(vs),
            edges=edges,
            legs=tuple(leg for leg in self.legs if leg.vertex in set(vs)),
        )

    def enumerate_subgraphs(self):
        """All nonempty proper subsets of the internal edge ids.

        Yields sorted tuples, ordered by size and then lexicographically.
        """
        ids = sorted(self.edge_ids())
        for size in range(1, len(ids)):
            yield from combinations(ids, size)


# -- JSON interchange ------------------------------------------------------


def graph_from_dict(data):
    """Build a graph from the JSON-style dict format.

    ``{"vertices": [...], "edges": [{"id", "ends", "mass_sq"}],
    "legs": [{"vertex", "momentum"}]}`` with integer ids and rationals as
    integers or "num/den" strings.  :class:`Edge` and :class:`ExternalLeg`
    check each entry; errors name the offending entry.
    """
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    if "vertices" not in data:
        raise ValueError("missing 'vertices'")
    for field in ("vertices", "edges", "legs"):
        if not isinstance(data.get(field, []), (list, tuple)):
            raise ValueError(f"'{field}' must be a list")
    edges = []
    for i, e in enumerate(data.get("edges", [])):
        try:
            edges.append(Edge(e["id"], e["ends"], e.get("mass_sq", 0)))
        except KeyError as exc:
            raise ValueError(f"bad edge entry at edges[{i}]: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad edge entry at edges[{i}]: {exc}") from None
    legs = []
    for i, leg in enumerate(data.get("legs", [])):
        try:
            legs.append(ExternalLeg(leg["vertex"], leg["momentum"]))
        except KeyError as exc:
            raise ValueError(f"bad leg entry at legs[{i}]: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad leg entry at legs[{i}]: {exc}") from None
    ids = sorted(e.id for e in edges)
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError("edge ids must be exactly 1..N")
    return FeynmanGraph(vertices=data["vertices"], edges=tuple(edges), legs=tuple(legs))


def load_graph(path):
    """Read a graph from a JSON file (see :func:`graph_from_dict`)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        return graph_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def graph_to_dict(g):
    """Inverse of :func:`graph_from_dict` (rationals rendered as strings)."""
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "ends": list(e.ends), "mass_sq": str(e.mass_sq)} for e in g.edges
        ],
        "legs": [
            {"vertex": leg.vertex, "momentum": [str(q) for q in leg.momentum]}
            for leg in g.legs
        ],
    }
