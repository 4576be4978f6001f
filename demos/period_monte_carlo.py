"""Monte Carlo period integrals on the parameter simplex.

Run from the repository root: python3 demos/period_monte_carlo.py
(about 3 seconds on two cores; lower the sample counts to go faster)
"""

import time

from feynperiods import integrate, load_graph, zeta

# Warm-up: on the two-edge banana psi = a1 + a2 equals 1 on the simplex,
# so the integrand is constant and the estimator is exact.
banana = load_graph("fixtures/banana.json")
est = integrate(banana, samples=100_000, seed=0)
print(f"banana:  {est.value} +- {est.std_error}  (exactly 1, zero variance)")

# K4 is the first interesting primitive graph; its period is 6 zeta(3).
# Uniform simplex sampling has infinite variance here because the
# integrand blows up where a triangle's parameters vanish together.
# Biasing the sampler toward the boundary (Dirichlet 0.5) and weighting
# back tames the spread, but the variance stays infinite: the two-loop,
# five-edge subgraph in K4 would need a bias below 0.4, and no fixed bias
# works at every loop order.  Treat the error bars below as indicative;
# tropical sampling (ROADMAP item 2) is the planned fix.
k4 = load_graph("fixtures/k4.json")
ref = 6 * zeta(3)
t0 = time.time()
est = integrate(k4, samples=2_000_000, seed=0, workers=4, boundary_bias=0.5)
dev = est.value - ref
print(f"K4:      {est.value:.5f} +- {est.std_error:.5f}  vs 6*zeta(3) = {ref:.5f}")
print(f"         off by {dev:+.5f} ({abs(dev) / est.std_error:.2f} sigma, {time.time() - t0:.1f}s)")

# Reproducibility: chunk c of the sample stream is always seeded by
# (seed, c), so the result is bit-identical for any worker count.
a = integrate(k4, samples=1_000_000, seed=7, workers=1, boundary_bias=0.5)
b = integrate(k4, samples=1_000_000, seed=7, workers=3, boundary_bias=0.5)
print("\nworkers=1 and workers=3 agree bit for bit:", a.value == b.value)

# The next wheel graph carries 20 zeta(5); 1e8 samples reach about 0.1%.
# A short run already lands within a couple of standard errors.
wheel = load_graph("fixtures/wheel4.json")
ref = 20 * zeta(5)
t0 = time.time()
est = integrate(wheel, samples=2_000_000, seed=0, workers=4, boundary_bias=0.5)
print(f"\nwheel-4: {est.value:.4f} +- {est.std_error:.4f}  vs 20*zeta(5) = {ref:.4f}  ({time.time() - t0:.1f}s)")
