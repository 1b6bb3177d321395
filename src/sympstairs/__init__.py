"""Exact computation of symplectic embedding capacities of four-dimensional
ellipsoids into integral polydiscs.

Three independent routes to the capacity function are implemented and
cross-verified: the closed-form staircase, the Cremona reduction method, and
ECH capacity ratios.  All arithmetic is exact (rationals and single square
roots); floats appear only in presentation.
"""

from .classes import (
    ExceptionalClass,
    certification_trace,
    certify,
    check_dio_polydisc,
    enumerate_dio_solutions,
    format_class,
    gen_E,
    gen_F,
    gen_G,
    obstruction_mu,
    real_b_obstructions,
)
from .cremona import (
    BlowupVector,
    ReductionLimitError,
    ReductionTrace,
    cremona_transform,
    default_max_steps,
    defect,
    format_vector,
    is_terminal_exceptional,
    method2_decide,
    parse_vector,
    psi_push,
    reduce_to_reduced,
    standard_move,
)
from .curve import (
    CurveSample,
    StepGeometry,
    c_infty,
    cb_bisect,
    cb_closed,
    db_real,
    equivalence_chain,
    folding_bound,
    method2_cb_decide,
    rescaled_chat,
    step_geometry,
    volume_bound,
)
from .ech import ech_lower_bound, ech_sequence
from .numbers import (
    IncompatibleFieldError,
    QuadNum,
    Value,
    bounds,
    compare_values,
    format_exact,
    parse_exact,
    quad_make,
    sign,
    sqrt_rational,
)
from .weights import WeightExpansion, weight_expansion

__version__ = "0.1.0"
