"""Graph polynomials, parametric periods, zeta values, and their symmetries."""

from .divergence import (
    IntegrandSpec,
    is_phi4,
    is_primitive,
    projective_degree,
    subgraph_loop_number,
    weight_bound,
)
from .galois import (
    GaloisElement,
    RatioCheck,
    RepMatrix,
    check_ratio_constraint,
    compose,
    galois_conjugate_span,
    identity,
    rep_2pi_i,
    rep_log2,
    rep_zeta35,
    rep_zeta_even,
    rep_zeta_odd,
)
from .graphs import Edge, ExternalLeg, FeynmanGraph, graph_from_dict, graph_to_dict, load_graph
from .mzv import (
    IteratedIntegralWord,
    bernoulli,
    euler_even_zeta,
    iterated_integral_word,
    mzv,
    mzv_with_error,
    p35,
    p35_period,
    stuffle_check,
    zeta,
)
from .periods import PeriodEstimate, g_minus_2_two_loop, integrate
from .polynomials import SparsePolynomial, parse_polynomial
from .symanzik import (
    Factorization,
    SymanzikSet,
    partial_factor_psi,
    phi,
    psi_determinant,
    psi_enumerate,
    psi_subgraph,
    spanning_trees,
    spanning_two_forests,
    xi,
    xi_partial_factor_ir,
    xi_partial_factor_uv,
)

__version__ = "0.1.0"
