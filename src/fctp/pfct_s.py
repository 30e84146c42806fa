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
instance and compute only their own result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import FctpError, VariantError
from .model import (
    FlowSolution,
    Instance,
    check_balanced,
    classify_variant,
    integer_scaled,
    two_pointer_steps,
)


@dataclass(frozen=True)
class SortedView:
    """Renaming of sources by nonincreasing f and sinks by nonincreasing b.

    ``source_order[p]`` is the original index of the source at sorted
    position p (ties keep original index order), and ``source_rank`` is the
    inverse map; same for sinks.  ``fixed_sorted``/``demand_sorted`` are the
    reordered vectors and ``supply_prefix[p]`` is the supply of the first
    p + 1 sorted sources.
    """

    source_order: tuple[int, ...]
    sink_order: tuple[int, ...]
    source_rank: tuple[int, ...]
    sink_rank: tuple[int, ...]
    fixed_sorted: tuple[Fraction, ...]
    demand_sorted: tuple[int, ...]
    supply_prefix: tuple[int, ...]


def _source_costs(inst: Instance) -> list[Fraction]:
    # Sink-independent instances carry f_i in every cell of row i.
    return [row[0] for row in inst.fixed]


def sorted_view(inst: Instance) -> SortedView:
    f = _source_costs(inst)
    source_order = tuple(
        sorted(range(inst.n), key=lambda i: (-f[i], i))
    )
    sink_order = tuple(
        sorted(range(inst.m), key=lambda j: (-inst.demands[j], j))
    )
    source_rank = [0] * inst.n
    for pos, i in enumerate(source_order):
        source_rank[i] = pos
    sink_rank = [0] * inst.m
    for pos, j in enumerate(sink_order):
        sink_rank[j] = pos
    return SortedView(
        source_order=source_order,
        sink_order=sink_order,
        source_rank=tuple(source_rank),
        sink_rank=tuple(sink_rank),
        fixed_sorted=tuple(f[i] for i in source_order),
        demand_sorted=tuple(inst.demands[j] for j in sink_order),
        supply_prefix=tuple(accumulate(inst.supplies[i] for i in source_order)),
    )


def _require_pfct_s(inst: Instance) -> SortedView:
    """Balance and variant checks, then the sorted view: once per public call."""
    check_balanced(inst)
    tag = classify_variant(inst)
    if not (tag.pure and tag.sink_independent):
        raise VariantError("requires PFCT-S")
    return sorted_view(inst)


def solve_pfct_s(inst: Instance) -> tuple[FlowSolution, Fraction, Fraction]:
    """(greedy flow, opt_lower_bound, greedy_upper_bound) from one sorted view.

    The balance and variant checks and the sorted view run once, so a caller
    that wants the flow and both bounds, as `fctp solve` does, reads the
    cost matrices once.
    """
    view = _require_pfct_s(inst)
    lower = _lower_bound(view)
    return _greedy(inst, view), lower, lower + sum(view.fixed_sorted[1:], Fraction(0))


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


def _lower_bound(view: SortedView) -> Fraction:
    """sum_p (f_p - f_{p+1}) pi(a([p])) with f_{n+1} = 0, exactly.

    Summed by parts, as sum_p f_p (pi(a([p])) - pi(a([p-1]))) with
    pi(a([0])) = 0, over the fixed costs scaled to ints.
    """
    scale, [[f]] = integer_scaled([view.fixed_sorted])
    counts = _cover_counts(view.demand_sorted, view.supply_prefix)
    total = sum(fp * (k - prev) for fp, k, prev in zip(f, counts, [0] + counts))
    return Fraction(total, scale)


def opt_lower_bound(inst: Instance) -> Fraction:
    """Every solution costs at least sum_i (f_i - f_{i+1}) * pi(a([i]))."""
    return _lower_bound(_require_pfct_s(inst))


def greedy_upper_bound(inst: Instance) -> Fraction:
    """The greedy solution costs at most the lower bound plus sum_{i>=2} f_i."""
    view = _require_pfct_s(inst)
    return _lower_bound(view) + sum(view.fixed_sorted[1:], Fraction(0))


def no_crossing_check(inst: Instance, sol: FlowSolution) -> bool:
    """No pair of support edges may cross in the sorted orders.

    A crossing is a pair (i, j'), (i', j) with i before i' in the source
    order and j before j' in the sink order.
    """
    view = sorted_view(inst)
    ranked = [
        (view.source_rank[i], view.sink_rank[j]) for (i, j) in sol.entries
    ]
    for a, (ri, rj) in enumerate(ranked):
        for ri2, rj2 in ranked[a + 1 :]:
            if (ri < ri2 and rj > rj2) or (ri2 < ri and rj2 > rj):
                return False
    return True
