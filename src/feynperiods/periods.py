"""Monte Carlo evaluation of parametric period integrals.

The integral of a degree-zero integrand ``P(a) / (psi^A xi^B)`` against the
canonical projective volume form can be computed in an affine chart.  Two
charts are implemented:

* ``simplex``: restrict to ``sum a_e = 1``.  Uniform points on the simplex
  come from normalizing independent standard-exponential draws; the chart
  volume is 1/(N-1)! which enters as a constant weight.  An optional
  ``boundary_bias`` b in (0, 1] replaces the uniform law by a symmetric
  Dirichlet(b) importance law that piles samples near the boundary, with
  the exact density ratio as the weight.
* ``affine``: set the last variable to 1 and integrate the rest over
  (0, inf)^(N-1), mapped to the unit cube by a_i = t/(1-t).

Sampling is partitioned into fixed-size chunks, and chunk c draws from an
independent stream seeded by (seed, c) regardless of which worker runs it.
Partial sums are reduced in chunk order, so a run is reproducible bit for
bit for a fixed (samples, seed) pair with any worker count.

Within a chunk the points, the normalization and the weights are computed
for the whole chunk at once; the integrand is then evaluated in blocks of
``_BLOCK`` rows, each transposed into contiguous per-variable columns, so
the many passes of the polynomial evaluator stay in cache.  Every step
inside a block is elementwise and the chunk's two sums still run over the
whole chunk, so blocking cannot change a single bit of the result.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .divergence import IntegrandSpec, projective_degree
from .mzv import mzv_with_error
from .symanzik import psi_enumerate, xi

_CHUNK = 1 << 18
_BLOCK = 1 << 14


@dataclass(frozen=True)
class PeriodEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise ValueError(
                f"value and std_error must be finite, got {self.value} +- {self.std_error}"
            )
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _as_int(name, value):
    """``value`` as an int; a bool or a non-integral number is a ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _run_chunk(payload, chunk):
    """(chunk, sum, sum of squares) for one fixed-size sampling chunk."""
    m = min(_CHUNK, payload["samples"] - chunk * _CHUNK)
    rng = np.random.default_rng([payload["seed"], chunk])
    n_vars = payload["n_vars"]
    bias = payload["boundary_bias"]
    if payload["chart"] == "simplex":
        if bias is None:
            draws = rng.standard_exponential(size=(m, n_vars))
        else:
            draws = rng.standard_gamma(bias, size=(m, n_vars))
        x = draws / draws.sum(axis=1, keepdims=True)
        weight = np.full(m, payload["chart_weight"])
        if bias is not None and bias != 1.0:
            weight *= np.prod(x ** (1.0 - bias), axis=1)
    else:  # affine chart: last variable pinned to 1
        t = rng.random(size=(m, n_vars - 1))
        x = np.empty((m, n_vars))
        x[:, :-1] = t / (1.0 - t)
        x[:, -1] = 1.0
        weight = np.prod(1.0 / (1.0 - t) ** 2, axis=1)
    num = payload["numerator"]
    vals = np.empty(m)
    for lo in range(0, m, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        cols = dict(zip(payload["edge_ids"], np.ascontiguousarray(x[rows].T)))
        v = weight[rows]
        if num is not None:
            v = v * num.evaluate(cols)
        if payload["psi_power"]:
            v = v / payload["psi"].evaluate(cols) ** payload["psi_power"]
        if payload["xi_power"]:
            v = v / payload["xi"].evaluate(cols) ** payload["xi_power"]
        vals[rows] = v
    return chunk, float(vals.sum()), float((vals * vals).sum())


def _run_chunks(payload, chunks):
    return [_run_chunk(payload, c) for c in chunks]


def integrate(
    g,
    spec=None,
    samples=1_000_000,
    seed=0,
    workers=1,
    chart="simplex",
    boundary_bias=None,
):
    """Estimate the projective period integral of ``P / (psi^A xi^B)`` over G.

    The integrand must be homogeneous of total degree zero
    (:func:`feynperiods.divergence.projective_degree` equal to 0), the graph
    connected, and, when a xi power is present, xi must be a nonzero
    polynomial with nonnegative coefficients (Euclidean region).  ``samples``,
    ``seed`` and ``workers`` must be integers (a bool is not).  Returns a
    :class:`PeriodEstimate`; the estimate is exact in expectation, and the
    reported standard error is the usual sample estimate.
    """
    spec = spec if spec is not None else IntegrandSpec()
    samples = _as_int("samples", samples)
    seed = _as_int("seed", seed)
    workers = _as_int("workers", workers)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chart not in ("simplex", "affine"):
        raise ValueError(f"unknown chart {chart!r}")
    if boundary_bias is not None:
        if chart != "simplex":
            raise ValueError("boundary_bias applies to the simplex chart only")
        if not 0 < boundary_bias <= 1:
            raise ValueError("boundary_bias must lie in (0, 1]")
    deg = projective_degree(g, spec)
    if deg != 0:
        raise ValueError(f"integrand has projective degree {deg}, must be 0")
    n_vars = g.n_edges
    if n_vars < 2:
        raise ValueError("need at least two edges to integrate")
    payload = {
        "seed": seed,
        "samples": samples,
        "n_vars": n_vars,
        "chart": chart,
        "boundary_bias": boundary_bias,
        "psi_power": spec.psi_power,
        "xi_power": spec.xi_power,
        "edge_ids": sorted(g.edge_ids()),
        "psi": psi_enumerate(g),
        "xi": None,
        "numerator": None,
    }
    if spec.xi_power:
        xi_poly = xi(g)
        if xi_poly.is_zero():
            raise ValueError("xi vanishes identically; the integrand is singular")
        if any(c < 0 for c in xi_poly.terms.values()):
            raise ValueError("xi has a negative coefficient; not in the Euclidean region")
        payload["xi"] = xi_poly
    if spec.numerator != 1:
        payload["numerator"] = spec.numerator
    b = 1.0 if boundary_bias is None else boundary_bias
    payload["chart_weight"] = math.gamma(b) ** n_vars / math.gamma(n_vars * b)

    n_chunks = -(-samples // _CHUNK)
    if workers == 1 or n_chunks == 1:
        results = _run_chunks(payload, range(n_chunks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunks, payload, list(range(w, n_chunks, workers)))
                for w in range(min(workers, n_chunks))
            ]
            results = [part for f in futures for part in f.result()]
    s1 = 0.0
    s2 = 0.0
    for _, a, b2 in sorted(results):  # chunk order keeps the reduction deterministic
        s1 += a
        s2 += b2
    mean = s1 / samples
    var = s2 / samples - mean * mean
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ValueError(
            f"the integrand hit psi = 0 or xi = 0 at some sample (mean {mean}, "
            f"variance {var}); a small boundary_bias can underflow the draws to 0"
        )
    std_error = math.sqrt(max(0.0, var) / max(1, samples - 1))
    return PeriodEstimate(
        value=mean, std_error=std_error, samples=samples, seed=seed, workers=workers
    )


def g_minus_2_two_loop():
    """The finite two-loop coefficient of the electron anomalous moment.

    In units of (alpha/pi)^2 the known closed form is

        197/144 + zeta(2)/2 - 3 zeta(2) ln 2 + (3/4) zeta(3)

    evaluated here to well beyond double precision before rounding.
    """
    z2, _ = mzv_with_error((2,), 22)
    z3, _ = mzv_with_error((3,), 22)
    with localcontext() as ctx:
        ctx.prec = 30
        ln2 = Decimal(2).ln()
        value = Decimal(197) / 144 + z2 / 2 - 3 * z2 * ln2 + Decimal(3) / 4 * z3
    return float(value)
