"""The 2-approximation for pure, sink-independent fixed charge transportation.

Sources are processed in nonincreasing fixed-cost order and sinks in
nonincreasing demand order; a two-pointer sweep assigns min(supply, demand)
at each step.  The resulting solution minimizes the linear relaxation
sum(x_ij / b_j * f_i) (its support has no crossing pair), and its actual
cost is sandwiched between an exact lower bound on the optimum and that
bound plus sum of all but the largest fixed cost.

solve_pfct_s returns the flow and both bounds from one sorted view, after
one variant check; `fctp solve --variant pfct-s` calls it once.
greedy_solve, opt_lower_bound and greedy_upper_bound each check the
variant and compute only their own result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import FctpError, VariantError
from .model import (
    FlowSolution,
    Instance,
    classify_variant,
    integer_scaled,
    two_pointer_steps,
)


@dataclass(frozen=True)
class SortedView:
    """Renaming of sources by nonincreasing f and sinks by nonincreasing b.

    ``source_order[p]`` is the original index of the source at sorted
    position p (ties keep original index order); same for sinks.
    ``demand_sorted`` is the reordered demands, ``supply_prefix[p]`` the
    supply of the first p + 1 sorted sources, and ``fixed_scaled`` the
    sorted, so nonincreasing, fixed costs times ``fixed_scale``, the lcm of
    their denominators, as ints.
    """

    source_order: tuple[int, ...]
    sink_order: tuple[int, ...]
    demand_sorted: tuple[int, ...]
    supply_prefix: tuple[int, ...]
    fixed_scale: int
    fixed_scaled: tuple[int, ...]


def _source_costs(inst: Instance) -> list[Fraction]:
    # Sink-independent instances carry f_i in every cell of row i.
    return [row[0] for row in inst.fixed]


def sorted_view(inst: Instance) -> SortedView:
    """Sources sorted by their fixed costs scaled to ints, sinks by demand.

    A sort with reverse=True is stable, so ties keep original index order.
    """
    scale, [[scaled]] = integer_scaled([_source_costs(inst)])
    source_order = tuple(sorted(range(inst.n), key=scaled.__getitem__, reverse=True))
    sink_order = tuple(sorted(range(inst.m), key=inst.demands.__getitem__, reverse=True))
    return SortedView(
        source_order=source_order,
        sink_order=sink_order,
        demand_sorted=tuple(inst.demands[j] for j in sink_order),
        supply_prefix=tuple(accumulate(inst.supplies[i] for i in source_order)),
        fixed_scale=scale,
        fixed_scaled=tuple(scaled[i] for i in source_order),
    )


def _require_pfct_s(inst: Instance) -> SortedView:
    """The variant check, then the sorted view: once per public call."""
    tag = classify_variant(inst)
    if not (tag.pure and tag.sink_independent):
        raise VariantError("requires PFCT-S")
    return sorted_view(inst)


def solve_pfct_s(inst: Instance) -> tuple[FlowSolution, Fraction, Fraction]:
    """(greedy flow, opt_lower_bound, greedy_upper_bound) from one sorted view.

    The variant check and the sorted view run once, so a caller that wants
    the flow and both bounds, as `fctp solve` does, reads the cost matrices
    once.
    """
    view = _require_pfct_s(inst)
    return (_greedy(inst, view), *_bounds(view))


def _greedy(inst: Instance, view: SortedView) -> FlowSolution:
    steps = two_pointer_steps([inst.supplies[i] for i in view.source_order], view.demand_sorted)
    return FlowSolution(
        entries={
            (view.source_order[p], view.sink_order[q]): Fraction(amount)
            for p, q, amount in steps
        }
    )


def greedy_solve(inst: Instance) -> FlowSolution:
    """Two-pointer sweep over the sorted view; crossing-free forest flow."""
    return _greedy(inst, _require_pfct_s(inst))


def lp_cost(inst: Instance, sol: FlowSolution) -> Fraction:
    """Relaxed cost sum(x_ij / b_j * f_i); never exceeds the actual cost."""
    f = _source_costs(inst)
    total = Fraction(0)
    for (i, j), x in sol.entries.items():
        total += x * f[i] / inst.demands[j]
    return total


def _cover_counts(demand_sorted, targets) -> list[int]:
    """pi(t) for each t of a nondecreasing sequence, by one merge walk.

    demand_sorted is nonincreasing, so its first k entries are the most
    demand any k sinks hold.  Raises FctpError when a t exceeds the total.
    """
    counts, count, reached = [], 0, 0
    for t in targets:
        while reached < t:
            if count == len(demand_sorted):
                raise FctpError("t out of range")
            reached += demand_sorted[count]
            count += 1
        counts.append(count)
    return counts


def pi(inst: Instance, t) -> int:
    """Smallest j such that the j largest demands total at least t."""
    t = Fraction(t)
    if t <= 0:
        raise FctpError("t out of range")
    return _cover_counts(sorted(inst.demands, reverse=True), [t])[0]


def _bounds(view: SortedView) -> tuple[Fraction, Fraction]:
    """(lower, upper): lower = sum_p (f_p - f_{p+1}) pi(a([p])) with
    f_{n+1} = 0, and upper = lower + sum_{p>=2} f_p, exactly.

    Summed by parts, as sum_p f_p (pi(a([p])) - pi(a([p-1]))) with
    pi(a([0])) = 0, in the fixed costs scaled to ints.
    """
    counts = _cover_counts(view.demand_sorted, view.supply_prefix)
    lower = sum(fp * (k - prev) for fp, k, prev in zip(view.fixed_scaled, counts, [0] + counts))
    upper = lower + sum(view.fixed_scaled[1:])
    return Fraction(lower, view.fixed_scale), Fraction(upper, view.fixed_scale)


def opt_lower_bound(inst: Instance) -> Fraction:
    """Every solution costs at least sum_i (f_i - f_{i+1}) * pi(a([i]))."""
    return _bounds(_require_pfct_s(inst))[0]


def greedy_upper_bound(inst: Instance) -> Fraction:
    """The greedy solution costs at most the lower bound plus sum_{i>=2} f_i."""
    return _bounds(_require_pfct_s(inst))[1]


def no_crossing_check(inst: Instance, sol: FlowSolution) -> bool:
    """No pair of support edges may cross in the sorted orders.

    A crossing is a pair (i, j'), (i', j) with i before i' in the source
    order and j before j' in the sink order.
    """
    view = sorted_view(inst)
    source_rank = {i: pos for pos, i in enumerate(view.source_order)}
    sink_rank = {j: pos for pos, j in enumerate(view.sink_order)}
    ranked = [(source_rank[i], sink_rank[j]) for (i, j) in sol.entries]
    for a, (ri, rj) in enumerate(ranked):
        for ri2, rj2 in ranked[a + 1 :]:
            if (ri < ri2 and rj > rj2) or (ri2 < ri and rj2 > rj):
                return False
    return True
