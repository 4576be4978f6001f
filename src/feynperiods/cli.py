"""Command line front end.

Subcommands:

* ``symanzik GRAPH``    print the graph polynomials of a graph file.
* ``divergence GRAPH``  superficial degree, convergence, primitivity, phi^4 eligibility.
* ``period GRAPH``      Monte Carlo estimate of the parametric integral.
* ``zeta INDICES``      (multiple) zeta values, or the iterated-integral word.
* ``galois ...``        matrix representations, conjugate spans, ratio check.

Every subcommand accepts ``--json`` and then emits a single JSON document
with keys ``command`` (the subcommand names, such as ``"galois rep"``),
``inputs`` (every parsed argument), ``results`` and ``diagnostics``.  The
JSON output is deterministic: the same argv produces byte-identical bytes.

Exit codes: 0 on success (a FAIL verdict is still a successful run), 1 on
a computation error such as an unreadable graph file, 2 on usage errors.

The argument parser is built once per process (:func:`build_parser` is
cached) and reused by every :func:`run`; each call parses its argv into a
fresh namespace, so no call sees another's arguments.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import operator
import re
import sys

from .divergence import (
    IntegrandSpec,
    convergence,
    is_phi4,
    is_primitive,
    projective_degree,
    weight_bound,
)
from .galois import (
    RATIO_MAGNITUDE,
    GaloisElement,
    check_ratio_constraint,
    galois_conjugate_span,
    rep_2pi_i,
    rep_log2,
    rep_zeta35,
    rep_zeta_even,
    rep_zeta_odd,
)
from .graphs import load_graph
from .mzv import iterated_integral_word, mzv_with_error, p35
from .periods import integrate
from .polynomials import _as_fraction, parse_polynomial
from .symanzik import SymanzikSet


def _parse_indices(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse index list {text!r}; expected e.g. '3' or '3,5'")


_EXPECT_DOC = "allowed: numbers, + - * / **, unary minus, zeta(n, ...), pi, log2, p35"

_EXPECT_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_EXPECT_NAMES = {"pi": lambda: math.pi, "log2": lambda: math.log(2.0), "p35": lambda: p35(15)}


def _expect_value(node):
    """Float value of one node of a whitelisted ``--expect`` expression."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPECT_OPS:
        return _EXPECT_OPS[type(node.op)](_expect_value(node.left), _expect_value(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_expect_value(node.operand)
    if isinstance(node, ast.Name) and node.id in _EXPECT_NAMES:
        return _EXPECT_NAMES[node.id]()
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "zeta"
        and node.args
        and not node.keywords
        and all(isinstance(a, ast.Constant) and type(a.value) is int for a in node.args)
    ):
        return float(mzv_with_error(tuple(a.value for a in node.args), 15)[0])
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def _eval_expect(expr):
    """Evaluate a reference-value expression like ``6*zeta(3)``.

    Only the syntax named in ``_EXPECT_DOC`` is accepted; p35 is computed
    only when the expression names it.
    """
    try:
        value = _expect_value(ast.parse(expr, mode="eval").body)
    except (SyntaxError, ValueError, ArithmeticError, RecursionError) as exc:
        raise ValueError(f"cannot evaluate --expect expression {expr!r}: {exc}; {_EXPECT_DOC}")
    # a negative base to a fractional power gives a complex number
    if not isinstance(value, float) or not math.isfinite(value):
        raise ValueError(f"--expect expression {expr!r} is not a finite real; {_EXPECT_DOC}")
    return value


def _cmd_symanzik(args):
    graph = load_graph(args.graph)
    polys = SymanzikSet.of(graph)
    n_trees = len(polys.psi.terms)  # one monomial, coefficient 1, per spanning tree
    psi, phi, xi = (p.render() for p in (polys.psi, polys.phi, polys.xi))
    results = {
        "edges": graph.n_edges,
        "loop_number": graph.loop_number(),
        "spanning_trees": n_trees,
        "psi": psi,
        "phi": phi,
        "xi": xi,
    }
    lines = [
        f"graph: {args.graph}",
        f"edges: {graph.n_edges}   loops: {graph.loop_number()}   "
        f"spanning trees: {n_trees}",
        f"psi = {psi}",
        f"phi = {phi}",
        f"xi  = {xi}",
    ]
    return results, {}, lines


def _integrand_spec(args):
    return IntegrandSpec(numerator=parse_polynomial(args.numerator),
                         psi_power=args.psi_power, xi_power=args.xi_power)


def _cmd_divergence(args):
    graph = load_graph(args.graph)
    spec = _integrand_spec(args)
    degree = projective_degree(graph, spec)
    convergent, divergent_at, omega, certified = convergence(graph, spec)
    if spec == IntegrandSpec():
        primitive, witness = convergent, divergent_at
    else:
        primitive, witness = is_primitive(graph)
    phi4 = is_phi4(graph)
    bound = weight_bound(graph)
    results = {
        "edges": graph.n_edges,
        "loop_number": graph.loop_number(),
        "projective_degree": degree,
        "integrable": degree == 0,
        "primitive": primitive,
        "witness": list(witness) if witness is not None else None,
        "convergent": convergent,
        "convergence_witness": list(divergent_at) if divergent_at is not None else None,
        "certified": certified,
        "phi4": phi4,
        "weight_bound": bound,
    }
    lines = [
        f"graph: {args.graph}",
        f"edges: {graph.n_edges}   loops: {graph.loop_number()}",
        f"projective degree: {degree}"
        + ("   (integrand is well defined)" if degree == 0 else "   (not integrable as is)"),
    ]
    if primitive:
        lines.append("primitive: yes")
    else:
        lines.append(f"primitive: no   (witness subgraph {{{', '.join(map(str, witness))}}})")
    if divergent_at is not None:
        subgraph = ", ".join(map(str, divergent_at))
        lines.append(f"convergent: no   (subgraph {{{subgraph}}} has omega {omega})")
    elif certified:
        lines.append("convergent: yes")
    else:
        lines.append("convergent: yes, not certified   (xi and a massless edge: necessary test only)")
    lines.append(f"phi^4 eligible: {'yes' if phi4 else 'no'}")
    lines.append(f"weight bound (informational): {bound}")
    return results, {}, lines


def _cmd_period(args):
    graph = load_graph(args.graph)
    spec = _integrand_spec(args)
    estimate = integrate(
        graph,
        spec,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        chart=args.chart,
        boundary_bias=args.boundary_bias,
    )
    results = {"value": estimate.value, "std_error": estimate.std_error}
    diagnostics = {
        "samples": estimate.samples,
        "seed": estimate.seed,
        "workers": estimate.workers,
        "chart": args.chart,
    }
    lines = [
        f"graph: {args.graph}",
        f"value = {estimate.value:.10g} +- {estimate.std_error:.4g}   "
        f"(samples={estimate.samples}, seed={estimate.seed}, workers={estimate.workers})",
    ]
    if args.expect is not None:
        target = _eval_expect(args.expect)
        diff = abs(estimate.value - target)
        # an exactly-zero standard error still deserves a tolerance band
        band = 3.0 * estimate.std_error + 1e-12
        passed = diff <= band
        results.update(expect=target, expect_passed=passed, expect_diff=diff)
        verdict = "PASS" if passed else "FAIL"
        lines.append(
            f"expect {args.expect} = {target:.10g}: {verdict}   "
            f"(|diff| = {diff:.4g}, 3*sigma = {3.0 * estimate.std_error:.4g})"
        )
    return results, diagnostics, lines


def _cmd_zeta(args):
    idx = _parse_indices(args.indices)
    if args.word:
        word = iterated_integral_word(idx)
        letters = "".join(str(b) for b in word.letters)
        results = {
            "indices": list(idx),
            "sign": word.sign,
            "letters": letters,
            "weight": word.weight,
            "depth": len(idx),
        }
        lines = [
            f"word for zeta({args.indices}): sign {word.sign:+d}, "
            f"letters {letters}   "
            f"(weight {word.weight}, depth {len(idx)})"
        ]
        return results, {}, lines
    value, bound = mzv_with_error(idx, args.digits)
    results = {
        "indices": list(idx),
        "value": str(value),
        "error_bound": str(bound),
        "digits": args.digits,
    }
    name = "zeta(" + ",".join(str(n) for n in idx) + ")"
    lines = [f"{name} = {value}   (error bound {bound:.3E}, {args.digits} digits)"]
    return results, {}, lines


def _format_matrix(rep):
    cells = [[str(entry) for entry in row] for row in rep.entries]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = []
    for row in cells:
        padded = "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        lines.append(f"[ {padded} ]")
    return lines


def _galois_element(args):
    sigma = {}
    for text in args.sigma:
        left, eq, right = text.partition("=")
        try:
            if not eq:
                raise ValueError
            index = int(left)
        except ValueError:
            raise ValueError(f"--sigma N=VALUE needs an integer N, got {text!r}") from None
        sigma[index] = right
    if args.sigma3 is not None:
        sigma[3] = args.sigma3
    if args.sigma5 is not None:
        sigma[5] = args.sigma5
    return GaloisElement(lam=args.lam, nu=args.nu, sigma=sigma, sigma35=args.sigma35)


# galois rep NAME: the representation's matrix for a group element and --n
_GALOIS_REPS = {
    "2pii": lambda g, n: rep_2pi_i(g),
    "log2": lambda g, n: rep_log2(g),
    "zeta-even": rep_zeta_even,
    "zeta-odd": rep_zeta_odd,
    "zeta35": lambda g, n: rep_zeta35(g),
}


def _cmd_galois_rep(args):
    rep = _GALOIS_REPS[args.name](_galois_element(args), args.n)
    results = {
        "basis": list(rep.basis),
        "matrix": [[str(entry) for entry in row] for row in rep.entries],
    }
    lines = [f"basis: ({', '.join(rep.basis)})", *_format_matrix(rep)]
    return results, {}, lines


def _cmd_galois_span(args):
    span = galois_conjugate_span(args.period)
    results = {"period": args.period, "span": list(span), "dimension": len(span)}
    lines = [f"conjugates of {args.period} span: ({', '.join(span)})   dimension {len(span)}"]
    return results, {}, lines


def _cmd_galois_check_ratio(args):
    c1, c2 = (_as_fraction(name, text) for name, text in zip(("c1", "c2"), args.coeffs))
    check = check_ratio_constraint(c1, c2)
    results = {
        "c1": str(c1),
        "c2": str(c2),
        "ratio": str(check.ratio),
        "sign": check.sign,
        "required_magnitude": str(RATIO_MAGNITUDE),
        "passed": check.passed,
    }
    verdict = "PASS" if check.passed else "FAIL"
    lines = [
        f"c1 = {c1}, c2 = {c2}",
        f"ratio c1/c2 = {check.ratio}   magnitude required: {RATIO_MAGNITUDE}",
        f"{verdict}   (sign {check.sign:+d})",
    ]
    return results, {}, lines


def _add_json_flag(parser):
    parser.add_argument("--json", action="store_true", help="emit a JSON document")


def _add_integrand_flags(parser):
    parser.add_argument("--numerator", default="1", help="numerator polynomial (default 1)")
    parser.add_argument("--psi-power", type=int, default=2, metavar="A",
                        help="power of the spanning-tree polynomial (default 2)")
    parser.add_argument("--xi-power", type=int, default=0, metavar="B",
                        help="power of the mass-momentum polynomial (default 0)")


# read a single-dash token that is no declared option as a value, such as the
# coefficient -3024/5 or the expression -p35+2**3 (argparse's default: -3024)
_DASH_VALUE = re.compile(r"^-[^-]")


@functools.cache
def build_parser():
    """The parser of every subcommand; one instance is shared, so only parse with it."""
    parser = argparse.ArgumentParser(
        prog="feynperiods",
        description="Graph polynomials, parametric periods and zeta values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symanzik", help="print the graph polynomials of a graph file")
    p.add_argument("graph", help="path to a graph JSON file")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_symanzik)

    p = sub.add_parser("divergence", help="superficial degree and primitivity analysis")
    p.add_argument("graph", help="path to a graph JSON file")
    _add_integrand_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("period", help="Monte Carlo estimate of the parametric integral")
    p.add_argument("graph", help="path to a graph JSON file")
    _add_integrand_flags(p)
    p.add_argument("--samples", type=int, default=1_000_000, help="sample count (default 1000000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--chart", choices=("simplex", "affine"), default="simplex",
                   help="integration chart (default simplex)")
    p.add_argument("--boundary-bias", type=float, default=None, metavar="BETA",
                   help="Dirichlet concentration for simplex sampling (default uniform)")
    p.add_argument("--expect", default=None, metavar="EXPR",
                   help=f"reference value to compare against; {_EXPECT_DOC}")
    p._negative_number_matcher = _DASH_VALUE
    _add_json_flag(p)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("zeta", help="(multiple) zeta values")
    p.add_argument("indices", help="comma separated indices, e.g. '3' or '3,5'")
    p.add_argument("--digits", type=int, default=10, help="requested correct digits (default 10)")
    p.add_argument("--word", action="store_true",
                   help="print the iterated-integral word instead of the value")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("galois", help="matrix representations and the ratio constraint")
    gsub = p.add_subparsers(dest="galois_command", required=True)

    g = gsub.add_parser("rep", help="print the matrix of a group element in a representation")
    g.add_argument("name", choices=tuple(_GALOIS_REPS), help="which representation")
    g.add_argument("--n", type=int, default=3, help="index for zeta-even / zeta-odd (default 3)")
    g.add_argument("--lam", default="1", help="scaling coordinate lambda (default 1)")
    g.add_argument("--nu", default="0", help="translation coordinate nu (default 0)")
    g.add_argument("--sigma", action="append", default=[], metavar="N=VALUE",
                   help="odd-index coordinate, repeatable (e.g. --sigma 7=2)")
    g.add_argument("--sigma3", default=None, help="shorthand for --sigma 3=VALUE")
    g.add_argument("--sigma5", default=None, help="shorthand for --sigma 5=VALUE")
    g.add_argument("--sigma35", default="0", help="depth-two coordinate (default 0)")
    _add_json_flag(g)
    g.set_defaults(func=_cmd_galois_rep)

    g = gsub.add_parser("span", help="print the span of the conjugates of a period")
    g.add_argument("period", help="one of: 2pii, log2, zeta(2n), zeta(2n+1), zeta(3,5)")
    _add_json_flag(g)
    g.set_defaults(func=_cmd_galois_span)

    g = gsub.add_parser("check-ratio",
                        help=f"check two coefficients against the {RATIO_MAGNITUDE} ratio")
    g.add_argument("coeffs", nargs=2, metavar="C",
                   help="two rational coefficients, e.g. 3024/5 -7308/5")
    g._negative_number_matcher = _DASH_VALUE
    _add_json_flag(g)
    g.set_defaults(func=_cmd_galois_check_ratio)

    return parser


def run(argv=None):
    """Run one subcommand; its ``_cmd_*`` returns (results, diagnostics, text lines)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        results, diagnostics, lines = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        inputs = dict(vars(args))
        command = [inputs.pop("command"), inputs.pop("galois_command", None)]
        del inputs["func"], inputs["json"]
        doc = {
            "command": " ".join(filter(None, command)),
            "inputs": inputs,
            "results": results,
            "diagnostics": diagnostics,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
