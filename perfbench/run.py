"""Run one workload of the feynperiods benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
of that checkout and nowhere else.  Workloads and metrics are listed in
``BENCHMARK.json``; their definitions and the layer each one exercises are in
``perfbench/README.md``.

``--trace 0`` repeats passes over the workload's fixed op list for S seconds
with tracing off, and reports the end-to-end metrics.  ``--trace 1`` runs
untraced passes for S/2 seconds, then traced passes for S/2 seconds, and
reports the per-layer metrics of the traced passes and the tracing overhead
as the difference between the two halves.  Either way, the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a run record and, when traced, the spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import REFERENCE_S, Recorder, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
MIN_PASSES = 3
FASTEST = 3
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("mc_periods", "exact_polynomials", "certified_numbers")
TARGET_REL_ERROR = 0.01


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit; the parent times this for setup_s")
    return p.parse_args(argv)


def _import_package():
    """Import feynperiods from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "feynperiods" / "__init__.py").is_file():
        return None
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import feynperiods  # noqa: PLC0415

    if Path(feynperiods.__file__).resolve().parent != src / "feynperiods":
        return None
    return feynperiods


# -- measuring -----------------------------------------------------------------


def _measure_setup(args):
    """Median wall time of fresh processes that only set the workload up.

    Each is taken at the reference speed, from the reference routine timed
    just before and after it.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        reference = reference_seconds()
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls, in steps of up to 50 ms
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        reference = (reference + reference_seconds()) / 2
        times.append(seconds * REFERENCE_S / reference)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times), len(times)


def _run_passes(workload, state, rec, tally, seconds, min_passes):
    """Repeat passes while the next one is expected to end within ``seconds``.

    Returns the number of passes run, at least ``min_passes``.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        tally.new_pass()
        workload.run_pass(state, rec, tally)
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now - start + (now - t0) > seconds:
            return passes


def _op_latencies(tally, passes, scaled=True):
    """Each op's latency, in pass order: the mean of its ``FASTEST`` quickest repetitions.

    Every pass runs the same op list, so op i of pass p is entry
    ``p * n + i``.  ``scaled`` takes each repetition at the reference speed
    (see ``tracing.REFERENCE_S``), which removes most of the drift of a
    shared host's speed.  Load from other tenants only ever adds time, so
    the quickest repetitions are the steadiest estimate of what the op
    costs; averaging a few of them damps the noise of the reference timings.
    """
    n = len(tally.op_seconds) // passes

    def cost(entry):
        _, seconds, reference = entry
        return seconds * REFERENCE_S / reference if scaled else seconds

    return [
        statistics.fmean(sorted(cost(tally.op_seconds[p * n + i]) for p in range(passes))[:FASTEST])
        for i in range(n)
    ]


def _peak_rss_mb():
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mc_figures(workloads, state, tally):
    """Samples per second and time to a 1% error, from untraced MC ops.

    Returns them with the number of integrate ops they rest on.
    """
    times = {}
    for kind, seconds, _ in tally.op_seconds:
        if kind in workloads.MC_JOBS:
            times.setdefault(kind, []).append(seconds)
    n_ops = sum(len(v) for v in times.values())
    per_s = n_ops * workloads.inputs.MC_SAMPLES / sum(sum(v) for v in times.values())
    refs = state["refs"]
    to_1pct = 0.0
    for job in workloads.MC_GRAPH_JOBS:
        errs = [((v - refs[job]) / refs[job]) ** 2 for j, _, v, _ in tally.mc[0] if j == job]
        rmse = math.sqrt(statistics.fmean(errs))
        to_1pct += statistics.fmean(times[job]) * (rmse / TARGET_REL_ERROR) ** 2
    return per_s, to_1pct, n_ops


def _layer_metrics(workloads, state, rec, n_passes, untraced, traced, overhead, efficiency):
    busy, calls = rec.self_times()
    per = 1.0 / n_passes

    def total(table, prefix):
        return per * sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    m = {"trace.overhead_s": overhead}
    for layer in ("graphs", "galois"):
        m[f"{layer}.calls"] = total(calls, layer)
        m[f"{layer}.busy_s"] = total(busy, layer)
    for fn in ("psi_enumerate", "psi_determinant", "symanzik_set", "partial_factor_psi"):
        m[f"symanzik.{fn}.calls"] = total(calls, f"symanzik.{fn}")
        m[f"symanzik.{fn}.busy_s"] = total(busy, f"symanzik.{fn}")
    for name in ("symanzik.spanning_trees.count", "polynomials.terms",
                 "divergence.subgraphs_tested", "periods.nonfinite", "mzv.refused",
                 "mzv.digits_certified", "cli.json_mismatch"):
        m[name] = per * rec.counts[name]
    for name in ("polynomials.recombine", "polynomials.render_parse"):
        m[f"{name}.busy_s"] = total(busy, name)
    m["divergence.is_primitive.calls"] = total(calls, "divergence.is_primitive")
    m["divergence.is_primitive.busy_s"] = total(busy, "divergence.is_primitive")
    for kind in ("depth1", "all_ge2", "with_one"):
        m[f"mzv.{kind}.busy_s"] = total(busy, f"mzv.{kind}")
    for sub in ("period", "symanzik", "divergence", "zeta", "galois"):
        m[f"cli.{sub}.calls"] = total(calls, f"cli.{sub}")
        m[f"cli.{sub}.busy_s"] = total(busy, f"cli.{sub}")

    is_mc = traced.mc and traced.mc[0]
    refs = state["refs"] if is_mc else {}
    rows = traced.mc[0] if is_mc else []
    zs = [(v - refs[j]) / s for j, _, v, s in rows if s > 0 and math.isfinite(v)]
    m["periods.z_rms"] = math.sqrt(statistics.fmean(z * z for z in zs)) if zs else 0.0
    m["periods.z_abs_max"] = max((abs(z) for z in zs), default=0.0)
    m["periods.scaling_efficiency"] = efficiency
    for job in workloads.MC_JOBS:
        job_rows = [r for r in rows if r[0] == job]
        seconds = total(busy, f"periods.{job}")
        samples = len(job_rows) * workloads.inputs.MC_SAMPLES
        errs = [((v - refs[job]) / refs[job]) ** 2 for _, _, v, _ in job_rows]
        m[f"periods.{job}.busy_s"] = seconds
        m[f"periods.{job}.us_per_sample"] = 1e6 * seconds / samples if samples else 0.0
        m[f"periods.{job}.psi_terms"] = state["psi_terms"][job] if is_mc else 0
        m[f"periods.{job}.rel_rmse"] = math.sqrt(statistics.fmean(errs)) if errs else 0.0
    if is_mc:
        m["mc_samples_per_s"], m["mc_time_to_1pct_s"], _ = _mc_figures(workloads, state, untraced)
    else:
        m["mc_samples_per_s"] = m["mc_time_to_1pct_s"] = 0.0
    return m


# -- reporting -------------------------------------------------------------------


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _run_record(args):
    import mpmath  # noqa: PLC0415
    import numpy  # noqa: PLC0415

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": _git_sha(),
        "blas_threads": BLAS_PIN,
    }


def _declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def main(argv=None):
    args = _parse_args(argv)
    if _import_package() is None:
        print(f"error: no feynperiods package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads  # noqa: PLC0415

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(ROOT, args.seed)
        return 0
    end_to_end, per_layer = _declared_metrics()
    record = _run_record(args)
    if not args.trace:
        setup_s, n_setups = _measure_setup(args)
    state = workload.prepare(ROOT, args.seed)

    untraced = workloads.Tally()
    rec0 = Recorder(traced=False)
    if args.trace:
        # half the time untraced, half traced: the difference is the overhead
        passes = _run_passes(workload, state, rec0, untraced, args.seconds / 2, 1)
        traced = workloads.Tally()
        rec1 = Recorder(traced=True)
        traced_passes = _run_passes(workload, state, rec1, traced, args.seconds / 2, 1)
        overhead = (sum(_op_latencies(traced, traced_passes))
                    - sum(_op_latencies(untraced, passes)))
        efficiency = 0.0
        if args.workload == "mc_periods":
            efficiency = workloads.scaling_efficiency(state, rec1, traced)
        values = _layer_metrics(workloads, state, rec1, traced_passes, untraced, traced,
                                overhead, efficiency)
        declared = per_layer
        tallies = [untraced, traced]
        header = f"{passes} untraced and {traced_passes} traced passes"
        counts = {}
    else:
        passes = _run_passes(workload, state, rec0, untraced, args.seconds, MIN_PASSES)
        latencies = [s * 1e3 for s in _op_latencies(untraced, passes)]
        values = {
            "setup_s": setup_s,
            "wall_s": sum(latencies) / 1e3,
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": _quantile(latencies, 90),
            "peak_rss_mb": _peak_rss_mb(),
        }
        declared = end_to_end
        tallies = [untraced]
        header = f"{passes} passes of {len(latencies)} ops"
        counts = {"setup_s": n_setups, "wall_s": passes, "op_p50_ms": len(latencies),
                  "op_p90_ms": len(latencies), "peak_rss_mb": 1}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}: {header}")
    for name, metric in metrics.items():
        n = f"(n={counts[name]})" if name in counts else ""
        print(f"  {name:38s} {metric['value']:>14.6g} {metric['unit']:8s} {n}")
    extra = {"error_rate": (failed / attempted, "1", attempted)}
    if not args.trace:
        unscaled = sum(_op_latencies(untraced, passes, scaled=False))
        extra["wall_unscaled_s"] = (unscaled, "s", passes)
    if args.workload == "mc_periods" and not args.trace:
        per_s, to_1pct, n = _mc_figures(workloads, state, untraced)
        extra["mc_samples_per_s"] = (per_s, "1/s", n)
        extra["mc_time_to_1pct_s"] = (to_1pct, "s", n)
    for name, (value, unit, n) in extra.items():
        print(f"  {name:38s} {value:>14.6g} {unit:8s} (n={n})")
    for kind, reason, is_wrong in untraced.reasons[:20]:
        print(f"  {'WRONG' if is_wrong else 'failed'} {kind}: {reason[:300]}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(
        metrics=metrics,
        extra={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in extra.items()},
        attempted=attempted,
        failed=failed,
        wrong=wrong,
        failures=[r for t in tallies for r in t.reasons],
        op_seconds=untraced.op_seconds,
    )
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        rec1.write_spans(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
