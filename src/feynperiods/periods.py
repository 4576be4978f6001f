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
with one contiguous run of chunks per task, and the sums come back and
are reduced in chunk order, so a run is reproducible bit for bit for a
fixed (samples, seed) pair with any worker count.

Each chart is one generator that draws its chunk's stream one block of
``_BLOCK`` rows at a time, as the block is processed, so a chunk holds one
block of random numbers, not all of them.  numpy fills a draw in row-major
order and keeps no leftover state between calls that return doubles, so
the block draws, joined in order, are the chunk's whole draw bit for bit.
Each block is transposed once into per-variable columns of shape
(n, rows) and yielded together with its weights.  One
integrand step serves every chart: it multiplies the weights by the
numerator and divides them by each denominator power in place, and writes
the block into the chunk's one vector, so the many array passes stay in
cache.  Every reduction across the variables is one vector pass over
whole columns, taken left to right: the simplex normalisation adds them,
and the Dirichlet density ratio and the affine Jacobian multiply them, as
``np.prod`` does along a row.  Every other step is elementwise, and the
chunk's two sums still run over the whole chunk, so neither the blocks nor
the column layout can change a single bit of the result.  The polynomial
evaluator shares the partial products of consecutive terms
(:meth:`~feynperiods.polynomials.SparsePolynomial.evaluate`), which also
leaves every bit as it was.

A run's chunks are cut into contiguous runs of ceil(chunks / workers)
chunks, one task each.  One task runs serially; more run on the process's
one pool, which a call replaces, by one of a process per task, only when
it has more tasks than the pool has processes.  Its workers stay alive
between calls, and an exit handler shuts the pool down while the
interpreter still has the modules its teardown needs.  If a worker dies,
the call raises ``BrokenProcessPool`` and the next call starts afresh.
"""

from __future__ import annotations

import atexit
import functools
import math
import numbers
import threading
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .divergence import IntegrandSpec, convergence, projective_degree
from .mzv import mzv_with_error
from .polynomials import _as_int
from .symanzik import psi_enumerate, xi

_CHUNK = 1 << 18
_BLOCK = 1 << 14


def _run_parameters(samples, seed, workers):
    """``samples``, ``seed`` and ``workers`` as ints, with at least 2 samples and 1 worker."""
    samples = _as_int("samples", samples)
    seed = _as_int("seed", seed)
    workers = _as_int("workers", workers)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return samples, seed, workers


@dataclass(frozen=True)
class PeriodEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        run = _run_parameters(self.samples, self.seed, self.workers)
        for name, value in zip(("samples", "seed", "workers"), run):
            object.__setattr__(self, name, value)
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise ValueError(
                f"value and std_error must be finite, got {self.value} +- {self.std_error}"
            )
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _row_sums(cols):
    """The sums over the first axis of ``cols``, taken left to right."""
    s = cols[0] + 0.0
    for c in cols[1:]:
        s += c
    return s


def _simplex_volume(n, b):
    """Gamma(b)^n / Gamma(n*b), the Dirichlet(b) weight's constant on n variables."""
    try:
        return math.gamma(b) ** n / math.gamma(n * b)
    except OverflowError:
        raise ValueError(
            f"boundary_bias {b!r} is too small for {n} variables: "
            "the Dirichlet chart volume overflows"
        ) from None


def _simplex(rng, m, n, b):
    """Blocks of Dirichlet(b) points on the simplex, as (n, rows) columns, and their weights.

    Each block's Gamma(b) draws are taken from ``rng`` as the block is built,
    and each point is divided by the sum of its coordinates, taken left to right.
    """
    import numpy as np

    volume = _simplex_volume(n, b)
    for lo in range(0, m, _BLOCK):
        x = rng.standard_gamma(b, size=(min(_BLOCK, m - lo), n)).T.copy()
        x /= _row_sums(x)
        if b == 1.0:
            w = np.full(x.shape[1], volume)
        else:
            w = np.prod(x ** (1.0 - b), axis=0)  # left to right, as along a row
            w *= volume
        yield x, w


def _affine(rng, m, n):
    """Blocks of affine-chart points as (n, rows) columns (the last is 1) and their Jacobians.

    Each block's uniform draws are taken from ``rng`` as the block is built.
    """
    import numpy as np

    for lo in range(0, m, _BLOCK):
        x = np.ones((n, min(_BLOCK, m - lo)))
        x[:-1] = rng.random(size=(x.shape[1], n - 1)).T
        u = 1.0 - x[:-1]
        x[:-1] /= u
        u *= u
        yield x, np.prod(np.reciprocal(u, out=u), axis=0)


def _run_chunk(sampler, seed, samples, edge_ids, numerator, denominators, chunk):
    """(sum, sum of squares) over one chunk of weight * numerator / prod(poly ** power)."""
    import numpy as np

    m = min(_CHUNK, samples - chunk * _CHUNK)
    rng = np.random.default_rng([seed, chunk])
    vals = np.empty(m)
    lo = 0
    for x, w in sampler(rng, m, len(edge_ids)):
        cols = dict(zip(edge_ids, x))
        if numerator is not None:
            w *= numerator.evaluate(cols)
        for poly, power in denominators:
            w /= poly.evaluate(cols) ** power
        vals[lo:lo + len(w)] = w
        lo += len(w)
    total = float(vals.sum())
    vals *= vals
    return total, float(vals.sum())


_pool = None  # (its process count, ProcessPoolExecutor): the one pool of this process
_pool_lock = threading.Lock()


@atexit.register
def _shutdown_pool():
    """Shut the pool down at exit, while the modules its teardown needs are still loaded."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[1].shutdown()
            _pool = None


def _run_on_pool(tasks, chunksize, run_chunk, n_chunks):
    """Chunk results, in chunk order, from ``tasks`` runs of ``chunksize`` chunks on the pool.

    A pool with fewer than ``tasks`` processes is replaced by one of exactly
    ``tasks`` (a forking executor starts them all at once); a larger one
    serves as it is.  A broken pool (a worker died) is dropped and the
    error re-raised, so the next call starts afresh.
    """
    global _pool
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        if _pool is not None and _pool[0] < tasks:
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (tasks, ProcessPoolExecutor(max_workers=tasks))
        pool = _pool[1]
        try:
            return list(pool.map(run_chunk, range(n_chunks), chunksize=chunksize))
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

    Refusals run in this order: ``samples``, ``seed`` and ``workers`` that
    are not integers (a bool is not one), below 2, negative or below 1; an
    unknown chart, or a ``boundary_bias`` outside (0, 1], not a real number
    or given to the affine chart; a projective degree other than 0; fewer
    than two edges; then the one gate for integrability,
    :func:`feynperiods.divergence.convergence`: connectivity, numerator
    variables, powers, momentum conservation and a zero xi, vertex count and
    layer size, and a subgraph with omega <= 0, named with its omega; last, a
    Dirichlet chart constant Gamma(b)^n / Gamma(n*b) that overflows a float.
    Nothing is built before these refusals, and the gate builds no
    polynomial.  Where the test is not certified (a xi power and a
    massless edge) and finds no witness, the integral runs as any other.
    Returns a :class:`PeriodEstimate`; the estimate is exact in
    expectation, and the reported standard error is the usual sample
    estimate.
    """
    spec = spec if spec is not None else IntegrandSpec()
    samples, seed, workers = _run_parameters(samples, seed, workers)
    if chart == "simplex":
        b = 1.0 if boundary_bias is None else boundary_bias  # Dirichlet(1) is uniform
        if isinstance(b, bool) or not isinstance(b, numbers.Real):
            raise ValueError(f"boundary_bias must be a real number, got {boundary_bias!r}")
        if not 0 < b <= 1:
            raise ValueError("boundary_bias must lie in (0, 1]")
        sampler = functools.partial(_simplex, b=b)
    elif chart == "affine":
        if boundary_bias is not None:
            raise ValueError("boundary_bias applies to the simplex chart only")
        sampler = _affine
    else:
        raise ValueError(f"unknown chart {chart!r}")
    deg = projective_degree(g, spec)
    if deg != 0:
        raise ValueError(f"integrand has projective degree {deg}, must be 0")
    if g.n_edges < 2:
        raise ValueError("need at least two edges to integrate")
    _, witness, omega, _ = convergence(g, spec)
    if witness is not None:
        raise ValueError(
            f"the integral diverges: subgraph {{{', '.join(map(str, witness))}}} has omega {omega}"
        )
    if chart == "simplex":
        _simplex_volume(g.n_edges, b)  # refuse an overflowing volume before anything is built
    powers = ((psi_enumerate, spec.psi_power), (xi, spec.xi_power))  # each built once, kept on g
    denominators = [(poly(g), power) for poly, power in powers if power]
    numerator = spec.numerator if spec.numerator != 1 else None
    run_chunk = functools.partial(
        _run_chunk, sampler, seed, samples, sorted(g.edge_ids()), numerator, denominators
    )

    n_chunks = -(-samples // _CHUNK)
    chunksize = -(-n_chunks // workers)
    tasks = -(-n_chunks // chunksize)  # 1 exactly when workers == 1 or n_chunks == 1
    if tasks == 1:
        results = map(run_chunk, range(n_chunks))
    else:
        results = _run_on_pool(tasks, chunksize, run_chunk, n_chunks)
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
    std_error = math.sqrt(max(0.0, var) / (samples - 1))
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
