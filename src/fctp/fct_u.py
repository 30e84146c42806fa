"""The 2-approximation for uniform fixed costs with general linear costs.

Minimize the linear cost alone over the transportation polytope, then cancel
cycles so the support is a forest: the fixed component is then at most
n + m - 1 while every solution pays at least max(n, m), and the linear
component is exactly optimal.
"""

from __future__ import annotations

from .errors import VariantError
from .model import FlowSolution, Instance, classify_variant
# Unused here; perfbench/tracing.py wraps fctp.fct_u.cancel_cycles by name.
from .transport import cancel_cycles, solve_transportation  # noqa: F401


def solve_fct_u(inst: Instance) -> FlowSolution:
    """Forest-support flow with minimal linear cost; total cost <= 2 * opt."""
    tag = classify_variant(inst)
    if not tag.uniform:
        raise VariantError("requires FCT-U")
    # solve_transportation cancels cycles before it returns: the support is
    # already a forest.
    sol, _ = solve_transportation(inst, inst.linear)
    return sol
