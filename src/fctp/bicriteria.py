"""Bicriteria approximation for general instances: demands met within 1 +/- eps.

Pipeline: solve the linear relaxation with capacity-normalized weights
c_ij + f_ij / p_ij where p_ij = min(a_i, b_j), handed to the transport core
as ints over s L (s scaling the costs to ints, L the lcm of the distinct p)
by transport.balinski_weights, the builder the PTAS's lower bound shares;
walk the LP's forest once, each tree rooted at its lowest vertex, and at
every vertex round the child edges carrying less than eps' p_e to 0 or
eps' p_e without raising the cost; rescale each source's outgoing flow so
supplies are met exactly.  Each sink then receives within (1 +/- eps) of
its demand and the cost is at most K(eps') times the LP value with
K(t) = 1 / (t (1 - 2t)).  The small-edge test and the rescale run on ints
over eps'.denominator q: each rounded flow is an LP flow or eps' p, so q
times it is an int, and each output entry is one Fraction(q x a_i, q times
source i's rounded outflow).

The public eps is pre-shrunk internally to eps' = eps / 4, which guarantees
(1 - 2 eps') / (1 + eps') >= 1 - eps and (1 + eps') / (1 - 2 eps') <= 1 + eps
for every eps <= 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FctpError
from .model import INF, FlowSolution, Instance, check_epsilon, evaluate_cost, is_int
from .transport import balinski_weights, solve_transportation, walk_support


def capacity(inst: Instance, i: int, j: int) -> int:
    """p_ij = min(a_i, b_j), the most flow edge ij can carry."""
    return min(inst.supplies[i], inst.demands[j])


@dataclass(frozen=True)
class BicriteriaReport:
    """Cost accounting emitted next to the solution."""

    lp_value: Fraction
    cost_bound: Fraction  # K(eps / 4) * lp_value
    actual_cost: Fraction


def cost_factor(internal_eps: Fraction) -> Fraction:
    """K(t) = 1 / (t (1 - 2t)): rounding keeps x >= t p, rescaling <= 1/(1-2t)."""
    return 1 / (internal_eps * (1 - 2 * internal_eps))


def _unit_rate(inst: Instance, i: int, j: int) -> Fraction:
    # (c p + f) per unit of p-mass: the LP weight c + f/p.
    return inst.linear[i][j] + inst.fixed[i][j] / capacity(inst, i, j)


def round_tree(inst: Instance, flow: dict, eps: Fraction) -> dict:
    """Round each vertex's small child edges, those with x < eps p, to eps p or 0.

    The support may be a forest, walked once by walk_support: each tree is
    rooted at its lowest vertex (vertices are sources 0..n-1, then sinks
    n..n+m-1), and a vertex's edges away from the root form its group.
    For every vertex v with child edges E', the output satisfies, exactly:
    x' = x where x >= eps p; x' in {0, eps p} elsewhere; sum x over E'
    drops by less than eps times v's supply/demand and never grows; the
    group cost sum (c + f/p) x' never grows.  Mass moves from expensive
    small edges to cheap ones (cheapest unit rate filled first), the final
    leftover fragment is dropped, and zeroed edges leave the returned flow.
    With eps = r/q, x < eps p is tested in ints, x.numerator q < r p
    x.denominator, so only small edges meet Fraction arithmetic.  Flows must
    be nonnegative ints (not bools) or Fractions on allowed edges of the
    instance; a support with a cycle is rejected, and so is an eps that
    model.check_epsilon refuses, such as a float.
    """
    eps = check_epsilon(eps)
    n, r, q = inst.n, eps.numerator, eps.denominator
    small = []
    for (i, j), x in flow.items():
        if not (0 <= i < n and 0 <= j < inst.m):
            raise FctpError(f"edge ({i + 1}, {j + 1}) out of range")
        if not (is_int(x) or isinstance(x, Fraction)):
            raise FctpError(f"flows must be ints or Fractions, not {type(x).__name__}")
        if x < 0:
            raise FctpError(f"negative flow on edge ({i + 1}, {j + 1})")
        if inst.linear[i][j] is INF:
            raise FctpError(f"infeasible edge used: ({i + 1}, {j + 1})")
        if x.numerator * q < r * capacity(inst, i, j) * x.denominator:
            small.append((i, j))
    parents, cycle = walk_support(n, flow)
    if cycle is not None:
        raise FctpError("non-tree support")
    children: dict[int, list[tuple[int, int]]] = {}
    for i, j in small:
        parent = i if parents[n + j] == i else n + j
        children.setdefault(parent, []).append((i, j))

    rounded = dict(flow)
    for edges in children.values():
        mass = sum((flow[e] for e in edges), Fraction(0))
        edges.sort(key=lambda e: (_unit_rate(inst, *e), e))
        for e in edges:
            cap = eps * capacity(inst, *e)
            if mass >= cap:
                rounded[e] = cap
                mass -= cap
            else:
                # At most one fragment remains; the paper zeroes it.
                del rounded[e]
                mass = Fraction(0)
    return rounded


def solve_bicriteria(
    inst: Instance, eps
) -> tuple[FlowSolution, BicriteriaReport]:
    """Relaxation-tagged flow: exact row sums, column sums in (1 +/- eps) b_j.

    eps must be a rational in (0, 1/4].  The report carries the LP value and
    the proven bound K(eps/4) * LP >= actual cost.
    """
    eps = check_epsilon(eps)
    if not 0 < eps <= Fraction(1, 4):
        raise FctpError("epsilon must lie in (0, 1/4]")
    internal = eps / 4
    common, weights = balinski_weights(inst)
    lp_sol, objective = solve_transportation(inst, weights)
    lp_value = objective / common

    unscaled = round_tree(inst, lp_sol.entries, internal)
    q = internal.denominator  # q x is an int: each rounded x is an LP flow or eps' p
    ints = {e: x.numerator * (q // x.denominator) for e, x in unscaled.items()}
    rows = [0] * inst.n
    for (i, _), x in ints.items():
        rows[i] += x
    if not all(rows):  # rounding keeps each row sum in ((1-2eps')a_i, (1+eps')a_i]
        raise FctpError("rounding emptied a source row")
    scaled = {(i, j): Fraction(x * inst.supplies[i], rows[i]) for (i, j), x in ints.items()}
    flow = FlowSolution(entries=scaled, relaxation=eps)
    report = BicriteriaReport(
        lp_value=lp_value,
        cost_bound=cost_factor(internal) * lp_value,
        actual_cost=evaluate_cost(inst, flow),
    )
    return flow, report
