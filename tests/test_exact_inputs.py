"""One policy for exact inputs, applied at every public boundary.

A rational field takes a Fraction, an integer (numpy integers included) or
a string that ``Fraction`` parses; an integer field takes integers only.
Everything else is a ValueError that names the field.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from feynperiods.galois import GaloisElement, check_ratio_constraint
from feynperiods.graphs import Edge, ExternalLeg, graph_from_dict

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
}
INTEGER_FIELDS = {
    "edge id": lambda v: Edge(v, ("u", "v")).id,
    r"edges\[1\]: edge id": _second_edge_id,
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
