"""Monte Carlo evaluation of parametric period integrals.

The integral of a degree-zero integrand ``P(a) / (psi^A xi^B)`` against the
canonical projective volume form can be computed in an affine chart.  Two
charts are implemented:

* ``simplex``: restrict to ``sum a_e = 1`` and sample the symmetric
  Dirichlet(b) law, by normalizing independent Gamma(b) draws, with the
  exact density ratio as the weight.  The default b = 1 is the uniform law
  (a Gamma(1) draw is a standard-exponential one), whose weight is the
  constant chart volume 1/(N-1)!.  A ``boundary_bias`` b in (0, 1) piles
  samples near the boundary.
* ``affine``: set the last variable to 1 and integrate the rest over
  (0, inf)^(N-1), mapped to the unit cube by a_i = t/(1-t).

Sampling is partitioned into fixed-size chunks, and chunk c draws from an
independent stream seeded by (seed, c) regardless of which worker runs it.
One runner maps the chunks to their partial sums, serially or on the pool
with one contiguous run of chunks per worker, and the sums come back and
are reduced in chunk order, so a run is reproducible bit for bit for a
fixed (samples, seed) pair with any worker count.

A chunk draws its random numbers for all of its rows at once, which keeps
the stream; everything else runs in blocks of ``_BLOCK`` rows.  A block
normalizes its rows onto the chart, builds their weights, transposes its
points into contiguous per-variable columns and evaluates the integrand, so
the many array passes stay in cache.  Each step in a block works row by row
(a row's sum or product does not depend on how many rows the array has),
and the chunk's two sums still run over the whole chunk, so blocking cannot
change a single bit of the result.  The polynomial evaluator shares the
partial products of consecutive terms
(:meth:`~feynperiods.polynomials.SparsePolynomial.evaluate`), which also
leaves every bit as it was.

Parallel calls run on one process pool per process.  It is created by the
first call with ``workers > 1`` and reused while later calls ask for the
same worker count; a call with another count shuts it down and starts a
new one, so there is one pool at a time.  Its workers stay alive between
calls and exit with the process.  If a worker dies, the call raises
``BrokenProcessPool`` and the next call starts a fresh pool.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .divergence import IntegrandSpec, projective_degree
from .mzv import mzv_with_error
from .polynomials import _as_int
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


def _run_chunk(payload, chunk):
    """(sum, sum of squares) for one fixed-size sampling chunk."""
    m = min(_CHUNK, payload["samples"] - chunk * _CHUNK)
    rng = np.random.default_rng([payload["seed"], chunk])
    n_vars = payload["n_vars"]
    b = payload["dirichlet"]
    simplex = payload["chart"] == "simplex"
    if simplex:
        draws = rng.standard_gamma(b, size=(m, n_vars))
    else:  # affine chart: last variable pinned to 1
        draws = rng.random(size=(m, n_vars - 1))
    num = payload["numerator"]
    vals = np.empty(m)
    for lo in range(0, m, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        d = draws[rows]
        if simplex:
            x = d / d.sum(axis=1, keepdims=True)
            v = np.full(len(d), payload["chart_weight"])
            if b != 1.0:
                v *= np.prod(x ** (1.0 - b), axis=1)
        else:
            x = np.empty((len(d), n_vars))
            x[:, :-1] = d / (1.0 - d)
            x[:, -1] = 1.0
            v = np.prod(1.0 / (1.0 - d) ** 2, axis=1)
        cols = dict(zip(payload["edge_ids"], np.ascontiguousarray(x.T)))
        if num is not None:
            v = v * num.evaluate(cols)
        if payload["psi_power"]:
            v = v / payload["psi"].evaluate(cols) ** payload["psi_power"]
        if payload["xi_power"]:
            v = v / payload["xi"].evaluate(cols) ** payload["xi_power"]
        vals[rows] = v
    return float(vals.sum()), float((vals * vals).sum())


_pool = None  # (workers, ProcessPoolExecutor): the one pool of this process
_pool_lock = threading.Lock()


def _run_on_pool(workers, run_chunk, n_chunks):
    """Chunk results, in chunk order, from the process's pool of ``workers`` processes.

    The chunks are cut into ``workers`` contiguous runs, one task each.  The
    pool is created on the first parallel call and kept for later calls with
    the same worker count; a call with another count shuts it down and
    starts a new one.  A broken pool (a worker died) is dropped and the
    error re-raised, so the next call starts afresh.
    """
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (workers, ProcessPoolExecutor(max_workers=workers))
        pool = _pool[1]
        try:
            return list(pool.map(run_chunk, range(n_chunks), chunksize=-(-n_chunks // workers)))
        except BrokenProcessPool:
            _pool = None
            pool.shutdown(wait=False)
            raise


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
    ``seed`` and ``workers`` must be integers and ``boundary_bias`` a real
    number (a bool is neither).  Returns a
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
        if isinstance(boundary_bias, bool) or not isinstance(boundary_bias, numbers.Real):
            raise ValueError(f"boundary_bias must be a real number, got {boundary_bias!r}")
        if not 0 < boundary_bias <= 1:
            raise ValueError("boundary_bias must lie in (0, 1]")
    deg = projective_degree(g, spec)
    if deg != 0:
        raise ValueError(f"integrand has projective degree {deg}, must be 0")
    n_vars = g.n_edges
    if n_vars < 2:
        raise ValueError("need at least two edges to integrate")
    b = 1.0 if boundary_bias is None else boundary_bias  # Dirichlet(1) is uniform
    payload = {
        "seed": seed,
        "samples": samples,
        "n_vars": n_vars,
        "chart": chart,
        "dirichlet": b,
        "chart_weight": math.gamma(b) ** n_vars / math.gamma(n_vars * b),
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

    n_chunks = -(-samples // _CHUNK)
    run_chunk = functools.partial(_run_chunk, payload)
    if workers == 1 or n_chunks == 1:
        results = map(run_chunk, range(n_chunks))
    else:
        results = _run_on_pool(workers, run_chunk, n_chunks)
    s1 = 0.0
    s2 = 0.0
    for chunk_sum, chunk_sq in results:  # chunk order keeps the reduction deterministic
        s1 += chunk_sum
        s2 += chunk_sq
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
