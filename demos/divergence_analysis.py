"""Power counting: which graphs give convergent period integrals.

Run from the repository root: python3 demos/divergence_analysis.py
"""

from feynperiods import (
    IntegrandSpec,
    convergence,
    is_phi4,
    is_primitive,
    load_graph,
    parse_polynomial,
    projective_degree,
    subgraph_loop_number,
)

# For the 1/psi^2 integrand the projective form is well defined exactly
# when the edge count is twice the loop number.
for name in ("k4", "wheel4", "fourgraph", "triangle"):
    g = load_graph(f"fixtures/{name}.json")
    deg = projective_degree(g, IntegrandSpec())
    print(f"{name:10s} edges={g.n_edges} loops={g.loop_number()} degree={deg:+d}")

# Degree zero is necessary, not sufficient: every proper subgraph must
# have more edges than twice its loop number, otherwise the integral
# diverges where that subgraph's parameters vanish together.
k4 = load_graph("fixtures/k4.json")
primitive, witness = is_primitive(k4)
print("\nK4 primitive:", primitive)

fourgraph = load_graph("fixtures/fourgraph.json")
primitive, witness = is_primitive(fourgraph)
print("fourgraph primitive:", primitive, " witness:", witness)
# the witness saturates the bound: 2 edges, 1 loop
print("witness edges:", len(witness), " witness loops:", subgraph_loop_number(fourgraph, witness))

# The same subgraph test covers any integrand P / (psi^A xi^B):
# omega(gamma) = |gamma| + ord_gamma(P) - A*h_gamma - B*ord_gamma(xi) must be
# positive for every gamma.  A numerator of degree 3 over psi^3 on K4 has
# degree 0 overall, yet a square or a vertex star diverges: a5^2*a6 keeps
# ord 0 on the triangle {1, 2, 4}, where psi^3 has ord 3.
print()
for text in ("2*a1*a2*a3 + a4^3 + 1/3*a5^2*a6", "2*a1*a2*a4 + a1*a3*a5 + 1/3*a4*a5*a6"):
    spec = IntegrandSpec(numerator=parse_polynomial(text), psi_power=3)
    convergent, witness, omega, certified = convergence(k4, spec)
    verdict = "converges" if convergent else f"diverges at {witness} (omega {omega})"
    print(f"K4 ({text}) / psi^3: {verdict}, certified: {certified}")
print()

# phi^4 eligibility is a vertex-degree condition: every vertex sees at
# most four edge ends (legs included).
for name in ("k4", "wheel4", "triangle"):
    g = load_graph(f"fixtures/{name}.json")
    print(name, "phi^4 eligible:", is_phi4(g))
