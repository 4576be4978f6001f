"""Acceptance gate: pinned end-to-end checks, one verdict line per criterion.

Each test prints ``criterion N [pass|FAIL] label (elapsed, budget)`` and then
asserts, so ``pytest tests/test_acceptance.py -s`` gives a one-line scoreboard.
Criterion 7 samples 1e8 points and is marked slow; deselect it with
``-m 'not slow'`` when a quick run is wanted.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from feynperiods.divergence import is_phi4, is_primitive, subgraph_loop_number
from feynperiods.galois import (
    GaloisElement,
    check_ratio_constraint,
    compose,
    rep_2pi_i,
    rep_log2,
    rep_zeta35,
    rep_zeta_even,
    rep_zeta_odd,
)
from feynperiods.graphs import Edge, FeynmanGraph, load_graph
from feynperiods.mzv import euler_even_zeta, mzv, stuffle_check, zeta
from feynperiods.periods import g_minus_2_two_loop, integrate
from feynperiods.polynomials import SparsePolynomial
from feynperiods.symanzik import (
    partial_factor_psi,
    phi,
    psi_determinant,
    psi_enumerate,
    spanning_trees,
    xi,
)

ZETA35_ORACLE = 0.03770767298484754401  # frozen brute-force double-sum value
G_MINUS_2_ORACLE = -0.3284789655791937928


def _verdict(num, label, ok, elapsed, budget):
    state = "pass" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:2d} [{state}] {label}   ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {label}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"


def _connected_multigraphs(max_vertices=5, max_edges=7):
    """One representative of each connected multigraph in range.

    Loops and parallel edges allowed.  For each vertex count the edge
    multisets are enumerated exhaustively and filtered for connectivity; the
    first multiset of each isomorphism class is kept, and all of its images
    under vertex relabeling are marked as seen.
    """
    for n in range(1, max_vertices + 1):
        slots = [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))
        index = {slot: k for k, slot in enumerate(slots)}
        # each relabeling as a map from slot index to slot index
        relabelings = [
            [index[tuple(sorted((p[a], p[b])))] for a, b in slots]
            for p in itertools.permutations(range(n))
        ]
        seen = set()

        def spans(counts):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            comps = n
            for (a, b), c in zip(slots, counts):
                if c and a != b:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
                        comps -= 1
            return comps == 1

        def rec(idx, remaining, counts):
            if idx == len(slots):
                if sum(counts) >= 1 and spans(counts):
                    yield tuple(counts)
                return
            for c in range(remaining + 1):
                yield from rec(idx + 1, remaining - c, counts + [c])

        for counts in rec(0, max_edges, []):
            if counts in seen:
                continue
            for target in relabelings:
                image = [0] * len(slots)
                for k, c in zip(target, counts):
                    image[k] = c
                seen.add(tuple(image))
            pairs = [(a, b) for (a, b), c in zip(slots, counts) for _ in range(c)]
            verts = tuple(f"v{i}" for i in range(n))
            yield FeynmanGraph(
                vertices=verts,
                edges=tuple(
                    Edge(i + 1, (f"v{a}", f"v{b}")) for i, (a, b) in enumerate(pairs)
                ),
            )


_FAMILY = None


def _family():
    global _FAMILY
    if _FAMILY is None:
        _FAMILY = list(_connected_multigraphs())
    return _FAMILY


def test_criterion_01_triangle_polynomials():
    t0 = time.time()
    g = load_graph("fixtures/triangle.json")
    ok = (
        psi_enumerate(g).render() == "a1 + a2 + a3"
        and phi(g).render() == "5*a1*a2 + 4*a1*a3 + a2*a3"
        and xi(g).render()
        == "8*a1*a2 + 8*a1*a3 + a1^2 + 6*a2*a3 + 2*a2^2 + 3*a3^2"
    )
    _verdict(1, "triangle polynomials exact", ok, time.time() - t0, 1)


def test_criterion_02_determinant_equals_enumeration():
    t0 = time.time()
    ok = True
    n_graphs = 0
    for g in _family():
        n_graphs += 1
        by_trees = psi_enumerate(g)
        if by_trees != psi_determinant(g):
            ok = False
            break
        if len(by_trees.terms) != len(list(spanning_trees(g))):
            ok = False
            break
    label = f"determinant matches enumeration on {n_graphs} connected multigraphs"
    _verdict(2, label, ok and n_graphs > 1000, time.time() - t0, 60)


def test_criterion_03_partial_factorization_family_wide():
    t0 = time.time()
    a = SparsePolynomial.variable
    fourgraph = load_graph("fixtures/fourgraph.json")

    f = partial_factor_psi(fourgraph, (3, 4))
    ok = (
        f.factor_sub == a(3) + a(4)
        and f.factor_quotient == a(1) + a(2)
        and f.remainder == a(3) * a(4)
    )
    f = partial_factor_psi(fourgraph, (1, 2, 3))
    ok = ok and (
        f.factor_sub == a(1) + a(2) + a(3)
        and f.factor_quotient == a(4)
        and f.remainder == a(1) * a(3) + a(2) * a(3)
    )

    checked = 0
    for g in _family():
        psi = psi_enumerate(g)
        # a self-loop has no quotient graph, so such gamma carry no split
        loops = {e.id for e in g.edges if e.is_loop}
        ids = sorted(g.edge_ids())
        for r in range(1, len(ids)):
            for gamma in itertools.combinations(ids, r):
                if loops.intersection(gamma):
                    continue
                f = partial_factor_psi(g, gamma)
                if f.recombine() != psi:
                    ok = False
                if not f.remainder.is_zero():
                    h_gamma = subgraph_loop_number(g, gamma)
                    if f.remainder.degree_in_vars(gamma)[0] <= h_gamma:
                        ok = False
                checked += 1
        if not ok:
            break
    label = f"psi splits exactly with remainder degree bound ({checked} subgraphs)"
    _verdict(3, label, ok and checked > 40000, time.time() - t0, 120)


def test_criterion_04_primitivity_verdicts():
    t0 = time.time()
    k4 = load_graph("fixtures/k4.json")
    wheel = load_graph("fixtures/wheel4.json")
    fourgraph = load_graph("fixtures/fourgraph.json")
    ok = (
        is_primitive(k4) == (True, None)
        and is_phi4(k4)
        and is_primitive(wheel) == (True, None)
        and is_phi4(wheel)
    )
    primitive, witness = is_primitive(fourgraph)
    ok = ok and not primitive and witness == (3, 4)
    ok = ok and len(witness) == 2 * subgraph_loop_number(fourgraph, witness)
    _verdict(4, "primitivity and phi^4 eligibility verdicts", ok, time.time() - t0, 1)


def test_criterion_05_banana_period():
    t0 = time.time()
    est = integrate(load_graph("fixtures/banana.json"), samples=1_000_000, seed=0)
    ok = abs(est.value - 1.0) <= 3 * est.std_error and est.std_error < 0.003
    label = f"banana period = {est.value:.6f} +- {est.std_error:.1e}"
    _verdict(5, label, ok, time.time() - t0, 5)


def test_criterion_06_k4_period():
    t0 = time.time()
    k4 = load_graph("fixtures/k4.json")
    ref = 6 * zeta(3, 15)
    est = integrate(k4, samples=10_000_000, seed=0, workers=4, boundary_bias=0.5)
    rel = abs(est.value - ref) / ref
    ok = rel < 0.01 and abs(est.value - ref) <= 3 * est.std_error
    again = integrate(k4, samples=10_000_000, seed=0, workers=2, boundary_bias=0.5)
    ok = ok and again.value == est.value and again.std_error == est.std_error
    label = f"K4 period = {est.value:.5f} vs 6*zeta(3) = {ref:.5f} ({100 * rel:.2f}%), seed stable"
    _verdict(6, label, ok, time.time() - t0, 120)


@pytest.mark.slow
def test_criterion_07_wheel4_period():
    t0 = time.time()
    wheel = load_graph("fixtures/wheel4.json")
    ref = 20 * zeta(5, 15)
    est = integrate(wheel, samples=100_000_000, seed=0, workers=4, boundary_bias=0.5)
    rel = abs(est.value - ref) / ref
    ok = rel < 0.02
    label = f"wheel-4 period = {est.value:.4f} vs 20*zeta(5) = {ref:.4f} ({100 * rel:.2f}%)"
    _verdict(7, label, ok, time.time() - t0, 1800)


def test_criterion_08_zeta_suite():
    t0 = time.time()
    ok = True
    for n in (2, 4, 6, 8, 10):
        _, closed = euler_even_zeta(n)
        if abs(zeta(n, 15) - closed) > 1e-12:
            ok = False
    for pair in ((2, 2), (2, 3), (3, 3), (3, 5)):
        if not stuffle_check(*pair, tol=1e-10):
            ok = False
    ok = ok and abs(mzv((3, 5), 14) - ZETA35_ORACLE) < 1e-9
    label = "even zeta closed forms, stuffle identities, zeta(3,5) oracle"
    _verdict(8, label, ok, time.time() - t0, 30)


def test_criterion_09_g_minus_2():
    t0 = time.time()
    value = g_minus_2_two_loop()
    ok = abs(value - G_MINUS_2_ORACLE) < 1e-6
    _verdict(9, f"two-loop moment constant = {value:.10f}", ok, time.time() - t0, 1)


def _random_element(rng):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    lam = Fraction(0)
    while lam == 0:
        lam = frac()
    return GaloisElement(
        lam=lam, nu=frac(), sigma={3: frac(), 5: frac(), 7: frac()}, sigma35=frac()
    )


def test_criterion_10_representation_homomorphism():
    t0 = time.time()
    rng = random.Random(1201)
    ok = True
    for _ in range(100):
        g = _random_element(rng)
        h = _random_element(rng)
        gh = compose(g, h)
        reps = [
            rep_2pi_i,
            rep_log2,
            lambda x: rep_zeta_even(x, 4),
            lambda x: rep_zeta_odd(x, 3),
            rep_zeta35,
        ]
        for rep in reps:
            if rep(h) @ rep(g) != rep(gh):
                ok = False
        m = (rep_zeta35(h) @ rep_zeta35(g)).entries
        # the product stays in the family: triangular, unit fixed, and the
        # corner is the 8/3 power of the middle scaling entry
        shape = (
            m[0][1] == m[0][2] == m[1][2] == 0
            and m[2][2] == 1
            and m[0][0] ** 3 == m[1][1] ** 8
        )
        ok = ok and shape
        if not ok:
            break
    label = "homomorphism on 100 random pairs, zeta(3,5) family shape closed"
    _verdict(10, label, ok, time.time() - t0, 5)


def test_criterion_11_ratio_constraint():
    t0 = time.time()
    c1, c2 = Fraction(3024, 5), Fraction(-7308, 5)
    ok = (
        Fraction(3024, 7308) == Fraction(216, 522) == Fraction(12, 29)
        and check_ratio_constraint(c1, c2).passed
    )
    bump = 1 + Fraction(1, 1000)
    for p1, p2 in ((c1 * bump, c2), (c1 / bump, c2), (c1, c2 * bump), (c1, c2 / bump)):
        ok = ok and not check_ratio_constraint(p1, p2).passed
    _verdict(11, "coefficient ratio constraint with perturbation flips", ok, time.time() - t0, 1)
