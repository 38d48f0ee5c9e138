"""Bounds on the reliability function of the 5-ary typewriter channel.

The channel sends symbol i to i or i+1 (mod 5) with probability 1/2 each.
This package evaluates lower and upper bounds on its error exponent E(R)
between the zero-error capacity log2(sqrt 5) and the Shannon capacity
log2(5/2), builds the code constructions behind the lower bounds, solves
the linear programs behind the upper bounds, and cross-checks everything
with exact small cases and Monte Carlo simulation.
"""

__version__ = "0.1.0"

# the README's entry points; every other name lives in its module
from .channel import monte_carlo_pe
from .curves import e_gv_star, e_lp1, sample_curves
from .lpbound import composite_bound, max_code, solve_distance_lp

__all__ = [
    "__version__",
    "e_lp1",
    "e_gv_star",
    "sample_curves",
    "solve_distance_lp",
    "composite_bound",
    "max_code",
    "monte_carlo_pe",
]
