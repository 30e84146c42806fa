"""Exact-rational solvers and generators for fixed charge transportation.

Variants: FCT (fixed plus linear costs), PFCT (pure: no linear costs), and
the -S (sink-independent fixed costs) / -U (uniform fixed costs)
restrictions of each.  See README for the file formats and the CLI.
"""

from .bicriteria import solve_bicriteria
from .errors import (
    CertificateError,
    FctpError,
    GuardError,
    InfeasibleError,
    ParseError,
    VariantError,
)
from .fct_u import solve_fct_u
from .model import (
    INF,
    FlowSolution,
    Instance,
    classify_variant,
    evaluate_cost,
    make_flow,
    make_instance,
    parse_instance,
    parse_solution,
    pure_instance,
    serialize_instance,
    serialize_solution,
    uniform_pure_instance,
    validate_instance,
    validate_solution,
)
from .pfct_s import (
    greedy_solve,
    greedy_upper_bound,
    lp_cost,
    no_crossing_check,
    opt_lower_bound,
    solve_pfct_s,
)
from .pfct_u import (
    enumerate_balanced_sets,
    preprocess_matched_pairs,
    solve_pfct_u,
    verify_factor_revealing_certificate,
)
from .ptas import ptas_solve
from .transport import solve_transportation

__version__ = "0.1.0"
