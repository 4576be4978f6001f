"""The three workloads: set-up, one pass over the fixed op list, and the oracles.

A pass calls the public API of ``feynperiods`` through a
:class:`tracing.Recorder`, checks every op's output against an oracle that
does not share the code under test, and records the outcome in a
:class:`Tally`.  An op *fails* when any check on it fails or the package
refuses it; an op is also *wrong* when its output contradicts an exact or
certified oracle, as opposed to a refusal or a Monte Carlo estimate that
lands beyond 5 sigma.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import operator
import random
import traceback
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import mpmath

from feynperiods import (
    GaloisElement,
    IntegrandSpec,
    SymanzikSet,
    check_ratio_constraint,
    cli,
    compose,
    g_minus_2_two_loop,
    graph_from_dict,
    graph_to_dict,
    integrate,
    is_primitive,
    load_graph,
    mzv_with_error,
    p35,
    parse_polynomial,
    partial_factor_psi,
    projective_degree,
    psi_determinant,
    psi_enumerate,
    rep_2pi_i,
    rep_log2,
    rep_zeta35,
    rep_zeta_even,
    rep_zeta_odd,
    spanning_trees,
    stuffle_check,
)

import inputs
import references
from tracing import Recorder

MC_JOBS = ("k4", "wheel4", "wheel5", "banana_xi_simplex", "banana_xi_affine")
MC_GRAPH_JOBS = ("k4", "wheel4", "wheel5")
Z_LIMIT = 5.0


@dataclass
class Tally:
    """Outcomes of the ops of one run.

    Every pass runs the same fixed op list, and a rerun of an op must give
    the same output, so outcomes are counted per op of the list: an op
    fails when any of its repetitions fails.  The counts then depend on the
    seed only, not on how many passes fit into the run.
    """

    reasons: list = field(default_factory=list)  # (op kind, reason, wrong)
    op_seconds: list = field(default_factory=list)  # (op kind, seconds, reference seconds)
    mc: list = field(default_factory=list)  # per pass: [(job, seed, value, sigma)]
    _ops: int = 0  # distinct positions in the op list seen so far
    _pos: int = 0  # position of the next op in the current pass
    _failed: dict = field(default_factory=dict)  # position -> wrong
    _problems: list = field(default_factory=list)

    @property
    def attempted(self):
        return self._ops

    @property
    def failed(self):
        return len(self._failed)

    @property
    def wrong(self):
        return sum(self._failed.values())

    def new_pass(self):
        """Start the op list again; ops run outside a pass continue after it."""
        self._pos = 0

    def problem(self, reason, wrong=True):
        """Mark the current op failed; ``wrong`` when its output is contradicted."""
        self._problems.append((reason, wrong))

    @contextlib.contextmanager
    def op(self, rec, kind):
        self._problems = []
        pos = self._pos
        self._pos += 1
        self._ops = max(self._ops, self._pos)
        rec.begin_op(kind)
        try:
            yield
        except Exception:  # noqa: BLE001 - an op that raises is counted, the run goes on
            self.problem("raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | "))
        finally:
            seconds, reference = rec.end_op()
        self.op_seconds.append((kind, seconds, reference))
        if self._problems:
            wrong = any(w for _, w in self._problems)
            if pos not in self._failed:
                for reason, w in self._problems[:3]:
                    if len(self.reasons) < 200:
                        self.reasons.append((kind, reason, w))
            self._failed[pos] = self._failed.get(pos, False) or wrong


def run_cli(argv):
    """``cli.run`` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_json(tally, rec, name, argv):
    """Run a ``--json`` command; a non-zero exit fails the op as a refusal."""
    code, out, err = rec.call(name, run_cli, argv)
    if code != 0:
        tally.problem(f"{' '.join(argv)} exited {code}: {err.strip()[:200]}", wrong=False)
        return None
    return json.loads(out)


# -- independent exact oracles ------------------------------------------------


def _loop_number(edges):
    """E - V + components for a list of (u, v) pairs, by its own union-find."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    comps = 0
    for u, v in edges:
        for x in (u, v):
            if x not in parent:
                parent[x] = x
                comps += 1
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            comps -= 1
    return len(edges) - len(parent) + comps


def _poly_value(poly, point):
    total = Fraction(0)
    for key, coeff in poly.terms.items():
        t = Fraction(coeff)
        for v, e in key:
            t *= point[v] ** e
        total += t
    return total


# -- mc_periods ---------------------------------------------------------------


def _prepare_mc(root, seed):
    k4 = json.loads((root / "fixtures" / "k4.json").read_text())
    wheel4 = json.loads((root / "fixtures" / "wheel4.json").read_text())
    banana = {
        "vertices": ["u", "v"],
        "edges": [{"id": i, "ends": ["u", "v"], "mass_sq": "1"} for i in (1, 2)],
        "legs": [{"vertex": "u", "momentum": ["1", "0", "0", "0"]},
                 {"vertex": "v", "momentum": ["-1", "0", "0", "0"]}],
    }
    docs = {"k4": k4, "wheel4": wheel4, "wheel5": inputs.wheel_dict(5)}
    uniform_xi = IntegrandSpec(psi_power=0, xi_power=1)
    jobs = {
        name: {"doc": docs[name], "kwargs": {"boundary_bias": 0.5}} for name in MC_GRAPH_JOBS
    }
    jobs["banana_xi_simplex"] = {"doc": banana, "kwargs": {"spec": uniform_xi}}
    jobs["banana_xi_affine"] = {"doc": banana, "kwargs": {"spec": uniform_xi, "chart": "affine"}}
    psi_terms = {}
    for name, job in jobs.items():
        g = graph_from_dict(job["doc"])
        psi_terms[name] = len(psi_enumerate(g).terms)
        integrate(g, samples=4096, seed=0, **job["kwargs"])  # warm-up
    seeds = inputs.mc_inputs(seed)
    cli_direct = integrate(graph_from_dict(k4), samples=inputs.CLI_PERIOD_SAMPLES,
                           seed=seeds["cli"], workers=1, boundary_bias=0.5)
    return {
        "jobs": jobs,
        "seeds": seeds,
        "refs": references.period_references(),
        "psi_terms": psi_terms,
        "k4_path": str(root / "fixtures" / "k4.json"),
        "cli_direct": cli_direct,
        "seen": {},
    }


def _check_estimate(tally, rec, state, job, seed, est):
    ref = state["refs"][job]
    value, sigma = est.value, est.std_error
    if not (math.isfinite(value) and math.isfinite(sigma)):
        rec.count("periods.nonfinite")
        tally.problem(f"{job} seed {seed}: non-finite estimate {value} +- {sigma}")
        return
    if sigma <= 0:
        tally.problem(f"{job} seed {seed}: standard error {sigma} <= 0")
        return
    z = (value - ref) / sigma
    if abs(z) > Z_LIMIT:
        tally.problem(f"{job} seed {seed}: {value:.6g} +- {sigma:.3g} is {z:+.2f} sigma from "
                      f"{ref:.6g}", wrong=False)
    first = state["seen"].setdefault((job, seed), (value, sigma))
    if first != (value, sigma):
        tally.problem(f"{job} seed {seed}: rerun gave {value!r} +- {sigma!r}, first {first}")


def _pass_mc(state, rec, tally):
    mc_rows = []
    for job in MC_JOBS:
        spec = state["jobs"][job]
        for seed in state["seeds"][job]:
            est = None
            with tally.op(rec, job):
                g = rec.call("graphs.graph_from_dict", graph_from_dict, spec["doc"])
                est = rec.call(f"periods.{job}", integrate, g, samples=inputs.MC_SAMPLES,
                               seed=seed, workers=inputs.MC_WORKERS, **spec["kwargs"])
                _check_estimate(tally, rec, state, job, seed, est)
            if est is not None:
                mc_rows.append((job, seed, est.value, est.std_error))
    seed = state["seeds"]["cli"]
    with tally.op(rec, "cli.period"):
        doc = _cli_json(tally, rec, "cli.period", [
            "period", state["k4_path"], "--samples", str(inputs.CLI_PERIOD_SAMPLES),
            "--seed", str(seed), "--workers", str(inputs.MC_WORKERS),
            "--boundary-bias", "0.5", "--expect", "6*zeta(3)", "--json",
        ])
        if doc is not None:
            res, direct = doc["results"], state["cli_direct"]
            if (res["value"], res["std_error"]) != (direct.value, direct.std_error):
                rec.count("cli.json_mismatch")
                tally.problem(f"cli period gave {res['value']!r}, integrate gave {direct.value!r}")
            ref = state["refs"]["k4"]
            if abs(res["expect"] - ref) > 1e-12 * ref:
                tally.problem(f"--expect 6*zeta(3) evaluated to {res['expect']!r}")
            if abs(res["value"] - ref) > Z_LIMIT * res["std_error"]:
                tally.problem(f"cli period {res['value']:.6g} is beyond {Z_LIMIT} sigma",
                              wrong=False)
    tally.mc.append(mc_rows)


def scaling_efficiency(state, rec, tally):
    """t(workers=1) / (2 t(workers=2)) summed over the graph jobs of the first seed."""
    seconds = {1: 0.0, 2: 0.0}
    for job in MC_GRAPH_JOBS:
        spec, seed = state["jobs"][job], state["seeds"][job][0]
        g = graph_from_dict(spec["doc"])
        for workers in (1, 2):
            with tally.op(rec, f"{job}.workers{workers}"):
                est = rec.call(f"scaling.{job}.w{workers}", integrate, g,
                               samples=inputs.MC_SAMPLES, seed=seed, workers=workers,
                               **spec["kwargs"])
                if (est.value, est.std_error) != state["seen"].get((job, seed)):
                    tally.problem(f"{job} seed {seed}: workers={workers} changed the estimate")
            seconds[workers] += tally.op_seconds[-1][1]
    return seconds[1] / (2 * seconds[2])


# -- exact_polynomials ---------------------------------------------------------


def _prepare_polynomials(root, seed):
    docs = inputs.polynomial_inputs(seed)
    fixtures = {}
    for name in inputs.FIXTURES:
        path = str(root / "fixtures" / f"{name}.json")
        g = load_graph(path)
        s = SymanzikSet.of(g)
        primitive, witness = is_primitive(g)
        fixtures[name] = {
            "path": path,
            "symanzik": {
                "edges": g.n_edges, "loop_number": g.loop_number(),
                "spanning_trees": len(spanning_trees(g)),
                "psi": s.psi.render(), "phi": s.phi.render(), "xi": s.xi.render(),
            },
            "divergence": {
                "edges": g.n_edges, "loop_number": g.loop_number(),
                "projective_degree": projective_degree(g, IntegrandSpec()),
                "primitive": primitive,
                "witness": list(witness) if witness is not None else None,
            },
        }
    state = {"docs": docs, "fixtures": fixtures}
    warm = {"docs": [inputs.random_graph(random.Random(0), 4, 6, 1)], "fixtures": {}}
    _pass_polynomials(warm, Recorder(False), Tally())
    return state


def _check_primitive(tally, rec, doc, verdict):
    """Scan the subsets in is_primitive's order with an own loop count."""
    ends = {e["id"]: tuple(e["ends"]) for e in doc["edges"]}
    ids = sorted(ends)
    tested = 0
    expect = (True, None)
    for size in range(1, len(ids)):
        for gamma in combinations(ids, size):
            tested += 1
            if size <= 2 * _loop_number([ends[i] for i in gamma]):
                expect = (False, gamma)
                break
        else:
            continue
        break
    rec.count("divergence.subgraphs_tested", tested)
    if verdict != expect:
        tally.problem(f"is_primitive gave {verdict}, subset scan gives {expect}")


def _graph_op(tally, rec, doc):
    g = rec.call("graphs.graph_from_dict", graph_from_dict, doc)
    if rec.call("graphs.graph_to_dict", graph_to_dict, g) != doc:
        tally.problem("graph_to_dict(graph_from_dict(doc)) != doc")
    n_vertices, n_edges = len(doc["vertices"]), len(doc["edges"])
    h = n_edges - n_vertices + 1
    psi = rec.call("symanzik.psi_enumerate", psi_enumerate, g)
    det = rec.call("symanzik.psi_determinant", psi_determinant, g)
    if psi != det:
        tally.problem("psi_enumerate != psi_determinant")
    trees = rec.call("symanzik.spanning_trees", spanning_trees, g)
    rec.count("symanzik.spanning_trees.count", len(trees))
    if not len(psi.terms) == len(trees) == inputs.kirchhoff(doc):
        tally.problem(f"{len(psi.terms)} psi terms, {len(trees)} spanning trees, "
                      f"Kirchhoff count {inputs.kirchhoff(doc)}")
    point = {e["id"]: Fraction(e["id"] + 1, 2 * e["id"] + 3) for e in doc["edges"]}
    inverse = {k: 1 / v for k, v in point.items()}
    if _poly_value(psi, point) != math.prod(point.values()) * inputs.kirchhoff(doc, inverse):
        tally.problem("psi disagrees with the matrix-tree theorem at a rational point")
    if psi.is_homogeneous() != h:
        tally.problem(f"psi is not homogeneous of degree {h}")

    sset = rec.call("symanzik.symanzik_set", SymanzikSet.of, g)
    if sset.psi != psi or sset.loop_number != h:
        tally.problem("SymanzikSet.of disagrees with psi_enumerate")
    for poly in (sset.psi, sset.phi, sset.xi):
        rec.count("polynomials.terms", len(poly.terms))
        text = rec.call("polynomials.render_parse", poly.render)
        if rec.call("polynomials.render_parse", parse_polynomial, text) != poly:
            tally.problem(f"render/parse round trip changed {text[:80]}")

    verdict = rec.call("divergence.is_primitive", is_primitive, g)
    _check_primitive(tally, rec, doc, verdict)

    if n_edges > inputs.SWEEP_MAX_EDGES:
        return
    loops = {e["id"] for e in doc["edges"] if e["ends"][0] == e["ends"][1]}
    ends = {e["id"]: tuple(e["ends"]) for e in doc["edges"]}
    subsets = rec.call("graphs.enumerate_subgraphs", lambda: list(g.enumerate_subgraphs()))
    for gamma in subsets:
        if loops.intersection(gamma):
            continue
        f = rec.call("symanzik.partial_factor_psi", partial_factor_psi, g, gamma)
        whole = rec.call("polynomials.recombine", f.recombine)
        rec.count("polynomials.terms", len(whole.terms))
        if whole != psi:
            tally.problem(f"recombine() != psi for gamma {gamma}")
        h_gamma = _loop_number([ends[i] for i in gamma])
        if f.factor_sub.is_homogeneous() != h_gamma:
            tally.problem(f"psi_gamma of {gamma} is not of degree h_gamma = {h_gamma}")
        members = set(gamma)
        low = min((sum(e for v, e in key if v in members) for key in f.remainder.terms),
                  default=None)
        if low is not None and low <= h_gamma:
            tally.problem(f"remainder of {gamma} has a term of gamma-degree {low} <= {h_gamma}")


def _pass_polynomials(state, rec, tally):
    for doc in state["docs"]:
        with tally.op(rec, "graph"):
            _graph_op(tally, rec, doc)
    for name, fixture in state["fixtures"].items():
        for command in ("symanzik", "divergence"):
            with tally.op(rec, f"cli.{command}"):
                doc = _cli_json(tally, rec, f"cli.{command}",
                                [command, fixture["path"], "--json"])
                if doc is None:
                    continue
                expect = fixture[command]
                got = {k: doc["results"].get(k) for k in expect}
                if got != expect:
                    rec.count("cli.json_mismatch")
                    tally.problem(f"cli {command} {name}: {got} != {expect}")


# -- certified_numbers -------------------------------------------------------------


def _mzv_class(idx):
    if len(idx) == 1:
        return "depth1"
    return "with_one" if 1 in idx else "all_ge2"


def _prepare_numbers(root, seed):
    data = inputs.number_inputs(seed)
    table = references.load_table()
    closed = references.closed_forms()
    refs = dict(table)
    with mpmath.workdps(references.DIGITS):
        for n in range(2, 13):
            refs[(n,)] = mpmath.zeta(n)
    # identities take precedence over the table where they apply
    refs.update({(n, n): v for n, v in closed["zeta_nn"].items()})
    refs[(1, 2)] = closed["zeta_1_2"]
    refs[(3, 5)] = closed["zeta35"]
    mzv_with_error((2,), 14)  # warm-up: fills the Bernoulli cache
    mzv_with_error((2, 3), 12)
    return {"data": data, "refs": refs, "closed": closed}


def _check_zeta(tally, rec, state, idx, digits, value, bound):
    tol = Decimal(1).scaleb(-digits) / 2
    if bound > tol:
        tally.problem(f"zeta{idx} at {digits} digits: bound {bound:.2e} exceeds {tol:.1e}")
    with mpmath.workdps(references.DIGITS):
        slack = references.ZETA35_FROZEN_ERROR if idx == (3, 5) else references.TABLE_ERROR
        miss = abs(mpmath.mpf(str(value)) - state["refs"][idx]) - mpmath.mpf(str(bound)) - slack
        if miss > 0:
            tally.problem(f"zeta{idx} = {value} +- {bound:.2e} misses the reference")


def _galois_batch(tally, rec, pairs):
    reps = (
        ("rep_2pi_i", rep_2pi_i),
        ("rep_log2", rep_log2),
        ("rep_zeta_even", lambda x: rep_zeta_even(x, 4)),
        ("rep_zeta_odd", lambda x: rep_zeta_odd(x, 3)),
        ("rep_zeta35", rep_zeta35),
    )
    for gd, hd in pairs:
        g = rec.call("galois.GaloisElement", GaloisElement, **gd)
        h = rec.call("galois.GaloisElement", GaloisElement, **hd)
        gh = rec.call("galois.compose", compose, g, h)
        for name, rep in reps:
            rh = rec.call(f"galois.{name}", rep, h)
            rg = rec.call(f"galois.{name}", rep, g)
            product = rec.call("galois.matmul", operator.matmul, rh, rg)
            direct = rec.call(f"galois.{name}", rep, gh)
            if product.entries != direct.entries or product.basis != direct.basis:
                tally.problem(f"{name}(h) @ {name}(g) != {name}(compose(g, h))")
        m = product.entries  # the zeta(3,5) product stays in the family
        if not (m[0][1] == m[0][2] == m[1][2] == 0 and m[2][2] == 1
                and m[0][0] ** 3 == m[1][1] ** 8):
            tally.problem("zeta(3,5) product left the representation family")


def _pass_numbers(state, rec, tally):
    data, refs, closed = state["data"], state["refs"], state["closed"]
    for idx, digits in data["zeta"]:
        kind = _mzv_class(idx)
        with tally.op(rec, f"mzv.{kind}"):
            try:
                value, bound = rec.call(f"mzv.{kind}", mzv_with_error, idx, digits)
            except ValueError as exc:
                rec.count("mzv.refused")
                tally.problem(f"zeta{idx} at {digits} digits refused: {exc}", wrong=False)
            else:
                _check_zeta(tally, rec, state, idx, digits, value, bound)
                if bound > 0:
                    rec.count("mzv.digits_certified", int(-(2 * bound).log10()))
    for m, n in data["stuffle"]:
        with tally.op(rec, "mzv.stuffle_check"):
            if not rec.call("mzv.stuffle_check", stuffle_check, m, n):
                tally.problem(f"stuffle_check({m}, {n}) is False")
    with tally.op(rec, "mzv.p35"):
        value = rec.call("mzv.p35", p35, 12)
        if abs(value - float(closed["p35"])) > 1e-11:
            tally.problem(f"p35 = {value!r}, reference {closed['p35']}")
    with tally.op(rec, "periods.g_minus_2_two_loop"):
        value = rec.call("periods.g_minus_2_two_loop", g_minus_2_two_loop)
        if abs(value - float(closed["g_minus_2"])) > 1e-13:
            tally.problem(f"g_minus_2_two_loop = {value!r}, reference {closed['g_minus_2']}")
    for batch in data["galois"]:
        with tally.op(rec, "galois.homomorphism"):
            _galois_batch(tally, rec, batch)
    for c1, c2 in data["ratio"]:
        with tally.op(rec, "galois.check_ratio_constraint"):
            check = rec.call("galois.check_ratio_constraint", check_ratio_constraint, c1, c2)
            ratio = c1 / c2
            if (check.passed, check.ratio, check.sign) != (
                abs(ratio) == Fraction(12, 29), ratio, (ratio > 0) - (ratio < 0)
            ):
                tally.problem(f"check_ratio_constraint({c1}, {c2}) gave {check}")
    for idx, digits in data["cli_zeta"]:
        with tally.op(rec, "cli.zeta"):
            text = ",".join(map(str, idx))
            doc = _cli_json(tally, rec, "cli.zeta",
                            ["zeta", text, "--digits", str(digits), "--json"])
            if doc is not None:
                value, bound = mzv_with_error(idx, digits)
                res = doc["results"]
                if (res["value"], res["error_bound"]) != (str(value), str(bound)):
                    rec.count("cli.json_mismatch")
                    tally.problem(f"cli zeta {text}: {res['value']} != {value}")
                _check_zeta(tally, rec, state, idx, digits, Decimal(res["value"]),
                            Decimal(res["error_bound"]))
    gd = data["cli_galois"]
    sigma = gd["sigma"]
    with tally.op(rec, "cli.galois"):
        doc = _cli_json(tally, rec, "cli.galois", [
            "galois", "rep", "zeta35", f"--lam={gd['lam']}", f"--sigma3={sigma[3]}",
            f"--sigma5={sigma[5]}", f"--sigma35={gd['sigma35']}", "--json",
        ])
        if doc is not None:
            direct = rep_zeta35(GaloisElement(lam=gd["lam"], sigma={3: sigma[3], 5: sigma[5]},
                                              sigma35=gd["sigma35"]))
            if doc["results"]["matrix"] != [[str(x) for x in row] for row in direct.entries]:
                rec.count("cli.json_mismatch")
                tally.problem("cli galois rep zeta35 matrix differs from rep_zeta35")
    c1, c2 = data["ratio"][0]
    with tally.op(rec, "cli.galois"):
        doc = _cli_json(tally, rec, "cli.galois",
                        ["galois", "check-ratio", str(c1), str(c2), "--json"])
        if doc is not None and doc["results"]["passed"] != check_ratio_constraint(c1, c2).passed:
            rec.count("cli.json_mismatch")
            tally.problem("cli galois check-ratio verdict differs from check_ratio_constraint")


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    prepare: object  # (checkout root, seed) -> state
    run_pass: object  # (state, recorder, tally) -> None


WORKLOADS = {
    "mc_periods": Workload(_prepare_mc, _pass_mc),
    "exact_polynomials": Workload(_prepare_polynomials, _pass_polynomials),
    "certified_numbers": Workload(_prepare_numbers, _pass_numbers),
}
