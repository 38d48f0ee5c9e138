"""Bounds on the reliability function of the 5-ary typewriter channel.

The channel sends symbol i to i or i+1 (mod 5) with probability 1/2 each.
This package evaluates lower and upper bounds on its error exponent E(R)
between the zero-error capacity log2(sqrt 5) and the Shannon capacity
log2(5/2), builds the code constructions behind the lower bounds, solves
the linear programs behind the upper bounds, and cross-checks everything
with exact small cases and Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .channel import SimResult, confusion_prob, monte_carlo_pe
from .construction import (
    Spectrum,
    StructuredGenerator,
    hamming_spectrum,
    union_bound,
    weight_spectrum,
)
from .curves import (
    CAPACITY,
    GV_SLOPE,
    SL_STAR_FACTOR,
    ZERO_ERROR_CAPACITY,
    ExponentResult,
    delta_of_r,
    e_gv_star,
    e_lp1,
    e_rex,
    e_sl,
    e_sl_star,
    gv_delta,
    optimize_exponent,
    r_lp1,
    r_star,
    sample_curves,
)
from .expurgated import critical_rho, ex_exponent_inf, q_form
from .fourier import GroupFunction, dft, idft, lovasz_assignment, lovasz_bound
from .lpbound import (
    LPSolution,
    composite_bound,
    max_code,
    mrrw_certificate,
    mrrw_params,
    solve_distance_lp,
    verify_certificate,
)
from .scalars import INF, QPRIME, krawtchouk, qary_entropy, word_distance
from .verification import run_suite

__all__ = [
    "__version__",
    "INF",
    "CAPACITY",
    "ZERO_ERROR_CAPACITY",
    "GV_SLOPE",
    "SL_STAR_FACTOR",
    "QPRIME",
    "e_rex",
    "e_sl",
    "e_sl_star",
    "e_gv_star",
    "e_lp1",
    "r_lp1",
    "r_star",
    "delta_of_r",
    "sample_curves",
    "critical_rho",
    "ex_exponent_inf",
    "q_form",
    "word_distance",
    "StructuredGenerator",
    "Spectrum",
    "weight_spectrum",
    "hamming_spectrum",
    "union_bound",
    "gv_delta",
    "optimize_exponent",
    "ExponentResult",
    "GroupFunction",
    "dft",
    "idft",
    "lovasz_assignment",
    "lovasz_bound",
    "LPSolution",
    "solve_distance_lp",
    "composite_bound",
    "mrrw_certificate",
    "mrrw_params",
    "verify_certificate",
    "max_code",
    "SimResult",
    "confusion_prob",
    "monte_carlo_pe",
    "krawtchouk",
    "qary_entropy",
    "run_suite",
]
