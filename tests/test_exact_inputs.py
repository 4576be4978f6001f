"""One policy for exact inputs, applied at every public boundary.

A rational field takes a Fraction, an integer (numpy integers included) or
a string that ``Fraction`` parses; an integer field takes integers only.
Everything else is a ValueError that names the field.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from feynperiods.divergence import subgraph_loop_number
from feynperiods.galois import GaloisElement, RepMatrix, check_ratio_constraint
from feynperiods.graphs import Edge, ExternalLeg, FeynmanGraph, graph_from_dict, load_graph
from feynperiods.polynomials import SparsePolynomial
from feynperiods.symanzik import (
    partial_factor_psi,
    psi_subgraph,
    xi_partial_factor_ir,
    xi_partial_factor_uv,
)

# (input, value as a rational field, value as an integer field); None means refused
INPUTS = [
    (Fraction(1, 2), Fraction(1, 2), None),
    (2, Fraction(2), 2),
    (np.int64(2), Fraction(2), 2),
    ("3/4", Fraction(3, 4), None),
    (True, None, None),
    (0.5, None, None),
    (float("inf"), None, None),
    (Decimal("1"), None, None),
    (None, None, None),
    ("1/0", None, None),
    ("x", None, None),
]


def _second_edge_id(value):
    doc = {"vertices": ["u", "v"],
           "edges": [{"id": 1, "ends": ["u", "v"]}, {"id": value, "ends": ["u", "v"]}]}
    return graph_from_dict(doc).edges[1].id


# field named in the error -> the field's value after a call that sets it
RATIONAL_FIELDS = {
    "edge 1 mass_sq": lambda v: Edge(1, ("u", "v"), v).mass_sq,
    "leg momentum": lambda v: ExternalLeg("v", (v, 0, 0, 0)).momentum[0],
    "lam": lambda v: GaloisElement(lam=v).lam,
    "nu": lambda v: GaloisElement(nu=v).nu,
    "sigma_3": lambda v: GaloisElement(sigma={3: v}).sigma_odd(3),
    "sigma35": lambda v: GaloisElement(sigma35=v).sigma35,
    "c_zeta3_zeta35": lambda v: check_ratio_constraint(v, 1).ratio,
    "c_zeta3_zeta8": lambda v: 1 / check_ratio_constraint(1, v).ratio,
    # + Fraction(0) reads a stored int as a Fraction and leaves a float a float
    "coefficient": lambda v: SparsePolynomial({((1, 1),): v}).terms[((1, 1),)] + Fraction(0),
    "matrix entry": lambda v: RepMatrix(((v,),), ("x",)).entries[0][0],
}
INTEGER_FIELDS = {
    "edge id": lambda v: Edge(v, ("u", "v")).id,
    r"edges\[1\]: edge id": _second_edge_id,
    "variable": lambda v: SparsePolynomial.variable(v).variables()[0],
    "exponent": lambda v: SparsePolynomial({((1, v),): 1}).total_degree(),
    "power": lambda v: (SparsePolynomial.variable(1) ** v).total_degree(),
}


@pytest.mark.parametrize("value, rational, integer", INPUTS, ids=[repr(v) for v, _, _ in INPUTS])
def test_one_policy_for_exact_inputs(value, rational, integer):
    for fields, expected, kind in (
        (RATIONAL_FIELDS, rational, "rational"),
        (INTEGER_FIELDS, integer, "integer"),
    ):
        for field, call in fields.items():
            if expected is None:
                with pytest.raises(ValueError, match=f"{field} must be an (exact )?{kind}"):
                    call(value)
            else:
                got = call(value)
                assert got == expected and type(got) is type(expected), field


# arguments that name edges, each given a pair of ids (a subgraph) or, where
# the argument names one edge, the last id of the pair
EDGE_ID_ARGUMENTS = {
    "partial_factor_psi": partial_factor_psi,
    "xi_partial_factor_uv": xi_partial_factor_uv,
    "xi_partial_factor_ir": xi_partial_factor_ir,
    "psi_subgraph": psi_subgraph,
    "subgraph_loop_number": subgraph_loop_number,
    "edge_by_id": lambda g, ids: g.edge_by_id(ids[-1]),
    "delete_edge": lambda g, ids: g.delete_edge(ids[-1]),
    "contract_subgraph": FeynmanGraph.contract_subgraph,
    "induced_subgraph": FeynmanGraph.induced_subgraph,
}
# edge 2 of K4, with edge 3: an id the policy accepts must act as the plain
# int 2; a bool or an integral float compares equal to an edge id and is
# still refused
EDGE_ID_INPUTS = [("k4", value, integer) for value, _, integer in INPUTS] + [
    ("k4", 1.0, None),
    ("k4", 2.0, None),
]
# unknown ids: the smallest is named first, whatever the input order, and
# before a self-loop (edge 2 of the looped graph) is refused
EDGE_ID_INPUTS += [("k4", (9, 8), "no edge with id 8$"), ("looped", (2, 9), "no edge with id 9$")]
GRAPHS = {
    "k4": lambda: load_graph("fixtures/k4.json"),
    "looped": lambda: FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v")), Edge(2, ("v", "v")), Edge(3, ("u", "u")), Edge(4, ("u", "v"))),
    ),
}


@pytest.mark.parametrize(
    "graph, value, integer",
    EDGE_ID_INPUTS,
    ids=[repr(v) for _, v, _ in EDGE_ID_INPUTS],
)
def test_edge_id_arguments_follow_the_policy(graph, value, integer):
    g = GRAPHS[graph]()
    g.edge_by_id(3)  # keeps the graph's edge-id set, which every lookup below reads
    ids = value if isinstance(value, tuple) else (3, value)
    for name, call in EDGE_ID_ARGUMENTS.items():
        for _ in range(2):  # a reader answers the same on the same graph
            if integer is None:
                with pytest.raises(ValueError, match="edge id must be an integer"):
                    call(g, ids)
            elif isinstance(integer, str):
                with pytest.raises(ValueError, match=integer):
                    call(g, ids)
            else:
                assert call(g, ids) == call(g, (3, 2)), name
