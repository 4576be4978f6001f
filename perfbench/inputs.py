"""Seeded inputs of the three workloads.

Everything here is plain data drawn from ``random.Random(seed)``: graph
documents in the package's JSON dict format, zeta requests and Galois
parameter pairs.  The same seed gives the same inputs; the package only ever
sees the generated data.  Where the cost of an input varies by orders of
magnitude (graph shape, digits of an index containing a 1), what sets the
cost is fixed and the seed draws the rest, so that the work of a pass, and
with it every timing, stays comparable across seeds.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

# -- mc_periods -------------------------------------------------------------

MC_SAMPLES = 1 << 20
MC_SEEDS_PER_PASS = 2
MC_WORKERS = 2
CLI_PERIOD_SAMPLES = 1 << 18


def mc_inputs(seed):
    """Monte Carlo seeds of one pass: one list per graph, plus the banana and CLI seeds."""
    rng = random.Random(f"mc_periods/{seed}")
    draw = lambda: rng.randrange(1 << 31)  # noqa: E731
    return {
        "k4": [draw() for _ in range(MC_SEEDS_PER_PASS)],
        "wheel4": [draw() for _ in range(MC_SEEDS_PER_PASS)],
        "wheel5": [draw() for _ in range(MC_SEEDS_PER_PASS)],
        "banana_xi_simplex": [draw()],
        "banana_xi_affine": [draw()],
        "cli": draw(),
    }


def wheel_dict(n):
    """The wheel with n spokes: a hub joined to every vertex of an n-cycle."""
    rim = [f"r{i}" for i in range(1, n + 1)]
    edges = [("hub", r) for r in rim] + [(rim[i], rim[(i + 1) % n]) for i in range(n)]
    return {
        "vertices": ["hub", *rim],
        "edges": [{"id": i, "ends": list(e), "mass_sq": "0"} for i, e in enumerate(edges, 1)],
        "legs": [],
    }


# -- exact_polynomials --------------------------------------------------------

# (vertices, edges, self-loops, spanning trees, graphs per pass).  The cost
# of a graph's ops grows with its edges and spanning trees, and the split
# sweep's cost doubles with each edge that is not a self-loop.  Within a
# class, the vertex order alone moves psi_determinant's cost by up to 15x, so
# the shapes are one fixed corpus drawn from CORPUS_SEED: which pairs are
# joined and the vertex and edge labels.  The workload seed draws the masses,
# the legs and their momenta, and the order of the graphs in a pass.  Graphs
# with at most SWEEP_MAX_EDGES edges also get the sweep.  With the ten CLI
# ops a pass has 100 ops, so op_p90_ms has ten beyond it, and lasts about
# 2 s, so each op repeats often in a run.
GRAPH_CLASSES = (
    (3, 3, 0, 3, 12), (3, 5, 0, 7, 10), (3, 6, 1, 7, 8),
    (4, 5, 0, 5, 10), (4, 7, 0, 18, 3), (4, 7, 1, 10, 8), (4, 8, 1, 18, 2),
    (5, 6, 0, 7, 9), (5, 8, 0, 25, 2), (5, 8, 1, 13, 3), (5, 9, 1, 25, 1),
    (6, 7, 0, 8, 3), (6, 8, 0, 16, 2), (6, 8, 1, 8, 3), (6, 9, 0, 36, 1), (6, 9, 1, 18, 1),
    (7, 8, 0, 8, 2), (7, 9, 1, 8, 2), (7, 10, 2, 8, 8),
)
CORPUS_SEED = "exact_polynomials/corpus"
SWEEP_MAX_EDGES = 9
FIXTURES = ("triangle", "banana", "fourgraph", "k4", "wheel4")

_MASSES = ("1", "2", "1/2", "3/4", "5/3")


def _random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def _fraction_det(m):
    """Exact determinant of a square Fraction matrix by Gaussian elimination."""
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def kirchhoff(doc, weight=None):
    """Weighted spanning-tree sum of a graph document, by the matrix-tree theorem.

    The determinant of the reduced Laplacian with weight ``weight[id]`` on
    each edge (1 when ``weight`` is None); self-loops drop out.
    """
    order = sorted(doc["vertices"])
    idx = {v: i for i, v in enumerate(order)}
    n = len(order) - 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in doc["edges"]:
        i, j = (idx[v] for v in e["ends"])
        if i == j:
            continue
        w = 1 if weight is None else weight[e["id"]]
        for a, b in ((i, j), (j, i)):
            if a < n:
                lap[a][a] += w
                if b < n:
                    lap[a][b] -= w
    return _fraction_det(lap)


def random_shape(rng, n_vertices, n_edges, n_loops, trees=None):
    """A connected multigraph document with self-loops and parallel edges, massless, no legs.

    A random spanning tree keeps it connected; the other edges are the
    ``n_loops`` self-loops and arbitrary vertex pairs, so parallel edges are
    common.  With ``trees`` given, draws again until the spanning-tree count
    is within 20% of it.
    """
    while True:
        names = [f"v{i}" for i in range(n_vertices)]
        rng.shuffle(names)
        ends = [(names[i], names[rng.randrange(i)]) for i in range(1, n_vertices)]
        ends += [(v, v) for v in (rng.choice(names) for _ in range(n_loops))]
        while len(ends) < n_edges:
            a, b = rng.sample(names, 2)
            ends.append((a, b))
        rng.shuffle(ends)
        doc = {
            "vertices": sorted(names),
            "edges": [{"id": i, "ends": list(e), "mass_sq": "0"} for i, e in enumerate(ends, 1)],
            "legs": [],
        }
        if trees is None or abs(kirchhoff(doc) - trees) <= trees / 5:
            return doc


def decorate(rng, shape):
    """A copy of ``shape`` with random masses and legs whose rational momenta sum to zero."""
    doc = {
        "vertices": list(shape["vertices"]),
        "edges": [{**e, "ends": list(e["ends"])} for e in shape["edges"]],
    }
    for e in doc["edges"]:
        if rng.random() < 0.3:
            e["mass_sq"] = rng.choice(_MASSES)
    n_legs = rng.choice((0, 0, 2, 3))
    momenta = [[_random_rational(rng) for _ in range(4)] for _ in range(n_legs - 1)]
    if n_legs:
        momenta.append([-sum(q[i] for q in momenta) for i in range(4)])
    doc["legs"] = [
        {"vertex": rng.choice(doc["vertices"]), "momentum": [str(q) for q in p]}
        for p in momenta
    ]
    return doc


def random_graph(rng, n_vertices, n_edges, n_loops, trees=None):
    """A random shape with random masses and legs, both drawn from ``rng``."""
    return decorate(rng, random_shape(rng, n_vertices, n_edges, n_loops, trees))


@functools.lru_cache(maxsize=1)
def graph_shapes():
    """The fixed corpus of shapes, class by class."""
    rng = random.Random(CORPUS_SEED)
    return tuple(
        random_shape(rng, v, e, loops, trees)
        for v, e, loops, trees, count in GRAPH_CLASSES
        for _ in range(count)
    )


def polynomial_inputs(seed):
    """Graph documents of one pass: the corpus shapes, decorated and ordered by the seed."""
    rng = random.Random(f"exact_polynomials/{seed}")
    docs = [decorate(rng, shape) for shape in graph_shapes()]
    rng.shuffle(docs)
    return docs


# -- certified_numbers ----------------------------------------------------------

# Requests for indices containing a 1.  Their cost runs from a refusal in
# under a millisecond to seconds, so all of them run each pass.  (1, 2) at 4
# digits is Euler's zeta(1,2) = zeta(3) and takes seconds; (1, 2) at 5 and 6
# digits, (1, 3, 2) at 6 and (2, 1, 2) at 5 are refused today.
WITH_ONE_REQUESTS = (
    ((1, 2), 4), ((1, 2), 6), ((1, 3), 8),
    ((1, 3), 6), ((1, 4), 8), ((1, 4), 10), ((1, 5), 10), ((1, 6), 10),
    ((1, 2, 3), 6), ((2, 1, 3), 6), ((1, 1, 3), 5), ((1, 1, 4), 7),
    ((1, 2), 5), ((1, 3, 2), 6), ((2, 1, 2), 5),
)
# Depth 1 costs the same for every weight, so the seed draws the weights.
# Depth 2 and 3 cost 2-4 ms and 9-18 ms by index, so every index of
# depth2_indices() and depth3_indices() runs each pass and the seed draws
# its digits; the median op is then a depth-2 value on every seed.
N_DEPTH1 = 30
N_STUFFLE = 4
GALOIS_BATCHES = 5
GALOIS_PAIRS_PER_BATCH = 20
N_RATIO = 4


def depth2_indices():
    """Every depth-2 index with entries >= 2 and weight <= 12."""
    return [(a, b) for a in range(2, 11) for b in range(2, 11) if a + b <= 12]


def depth3_indices():
    """Every depth-3 index with entries in 2..4."""
    return [(a, b, c) for a in range(2, 5) for b in range(2, 5) for c in range(2, 5)]


def _galois_element(rng):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    lam = Fraction(0)
    while lam == 0:
        lam = frac()
    return {"lam": lam, "nu": frac(), "sigma": {3: frac(), 5: frac(), 7: frac()},
            "sigma35": frac()}


def number_inputs(seed):
    """Zeta requests, identity checks and Galois data of one pass."""
    rng = random.Random(f"certified_numbers/{seed}")
    zeta_requests = (
        [((rng.randint(2, 12),), 14) for _ in range(N_DEPTH1)]
        + [(idx, rng.randint(12, 14)) for idx in depth2_indices() + depth3_indices()]
        + list(WITH_ONE_REQUESTS)
    )
    rng.shuffle(zeta_requests)
    ratio_pairs = []
    for _ in range(N_RATIO):
        c2 = Fraction(rng.randint(1, 999), rng.randint(1, 9)) * rng.choice((1, -1))
        c1 = c2 * Fraction(12, 29) * rng.choice((1, -1))
        if rng.random() < 0.5:
            c1 *= 1 + Fraction(1, rng.randint(100, 10000))
        ratio_pairs.append((c1, c2))
    return {
        "zeta": zeta_requests,
        "stuffle": [(rng.randint(2, 6), rng.randint(2, 6)) for _ in range(N_STUFFLE)],
        "galois": [
            [(_galois_element(rng), _galois_element(rng)) for _ in range(GALOIS_PAIRS_PER_BATCH)]
            for _ in range(GALOIS_BATCHES)
        ],
        "ratio": ratio_pairs,
        "cli_zeta": [
            ((rng.randint(2, 12),), 14),
            (rng.choice(depth2_indices()), 12),
            (rng.choice(depth3_indices()), 12),
        ],
        "cli_galois": _galois_element(rng),
    }
