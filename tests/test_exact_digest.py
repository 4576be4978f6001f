"""One SHA-256 over the exact outputs of the polynomial layer.

The dump holds, for the five fixtures and a seeded corpus of decorated
multigraphs: the rendered text of psi, phi and xi, their terms in stored
order with each coefficient's type, the terms that parsing the text gives
back, and, on graphs with at most 7 edges, all three parts of every
``partial_factor_psi`` split (or the refusal text of a split through a
self-loop).  A change that keeps every exact output symbol for symbol keeps
the digest; one that reorders a term or turns an int into a Fraction does
not.  Regenerate the digest only for a change that alters exact outputs on
purpose, and say so where the change is described.

A second digest covers the determinant route for psi on its own: the terms
of ``psi_determinant`` in stored order, with each coefficient's type, on the
same graphs and on the wheels with 3 to 8 spokes.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

from feynperiods.graphs import Edge, ExternalLeg, FeynmanGraph, load_graph
from feynperiods.polynomials import parse_polynomial
from feynperiods.symanzik import partial_factor_psi, phi, psi_determinant, psi_enumerate, xi

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPLIT_MAX_EDGES = 7
DIGEST = "da5caaec51dc360c124c021a6d6507001f1254f32885b15e303282eb1e7bb211"
DETERMINANT_DIGEST = "383a61f104e8af97c565e38376e0981b51e050907f1f2fd8c86076f1507857e0"


def random_graph(rng):
    """A connected multigraph with self-loops, parallel edges, masses and conserved momenta."""
    names = rng.sample(["u", "v", "w", "x", "y", "z", "v10", "v2"], rng.randint(2, 6))
    ends = [(names[i], names[rng.randrange(i)]) for i in range(1, len(names))]
    for _ in range(rng.randint(1, 9 - len(ends))):
        u = rng.choice(names)
        ends.append((u, u) if rng.random() < 0.15 else (u, rng.choice(names)))
    ids = rng.sample(range(1, len(ends) + 3), len(ends))  # gaps in the ids on purpose
    edges = [
        Edge(eid, pair, rng.choice([0, 0, 1, Fraction(rng.randint(1, 9), rng.randint(1, 5))]))
        for eid, pair in zip(ids, ends)
    ]
    legs = []
    if rng.random() < 0.8:
        momenta = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                   for _ in range(rng.randint(1, 3))]
        momenta.append([-sum(qs) for qs in zip(*momenta)])
        legs = [ExternalLeg(rng.choice(names), q) for q in momenta]
    return FeynmanGraph(vertices=tuple(names), edges=tuple(edges), legs=tuple(legs))


def graphs():
    fixtures = [load_graph(path) for path in sorted(FIXTURES.glob("*.json"))]
    rng = random.Random(20251020)
    return fixtures + [random_graph(rng) for _ in range(30)]


def wheel(spokes):
    """The wheel with the given number of spokes: spokes 1..n, then the rim."""
    rim = [f"r{i}" for i in range(spokes)]
    ends = [("hub", r) for r in rim] + [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)]
    return FeynmanGraph(
        vertices=("hub", *rim), edges=tuple(Edge(i, e) for i, e in enumerate(ends, 1))
    )


def exact_terms(p):
    return [(key, c, type(c).__name__) for key, c in p.terms.items()]


def dump(g):
    lines = [repr(g)]
    for poly in (psi_enumerate(g), phi(g), xi(g)):
        text = poly.render()
        lines += [text, repr(exact_terms(poly)), repr(exact_terms(parse_polynomial(text)))]
    if g.n_edges <= SPLIT_MAX_EDGES:
        for gamma in g.enumerate_subgraphs():
            try:
                f = partial_factor_psi(g, gamma)
            except ValueError as exc:
                lines.append(f"{gamma} {exc}")
                continue
            parts = (f.factor_sub, f.factor_quotient, f.remainder)
            lines.append(f"{gamma} " + " | ".join(repr(exact_terms(p)) for p in parts))
    return "\n".join(lines)


def test_exact_outputs_match_the_committed_digest():
    text = "\n".join(dump(g) for g in graphs())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def test_determinant_terms_match_the_committed_digest():
    corpus = graphs() + [wheel(n) for n in range(3, 9)]
    text = "\n".join(f"{g!r}\n{exact_terms(psi_determinant(g))!r}" for g in corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == DETERMINANT_DIGEST
