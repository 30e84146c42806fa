import random
from fractions import Fraction
from itertools import accumulate

import pytest

from reference import compare_residual_bound
from util import is_forest

from fctp import oracle
from fctp.errors import FctpError, VariantError
from fctp.generators import random_pfct_s
from fctp.model import evaluate_cost, make_flow, make_instance, pure_instance
from fctp.pfct_s import (
    greedy_solve,
    greedy_upper_bound,
    lp_cost,
    no_crossing_check,
    opt_lower_bound,
    pi,
    solve_pfct_s,
    sorted_view,
)
from fctp.transport import solve_transportation


def test_greedy_e1_trace(e1):
    sol = greedy_solve(e1)
    assert sol.entries == {
        (0, 0): Fraction(4),
        (0, 1): Fraction(1),
        (1, 1): Fraction(1),
        (1, 2): Fraction(2),
    }
    assert evaluate_cost(e1, sol) == 28


def test_greedy_single_source_single_sink():
    inst = pure_instance((3,), (3,), [[7]])
    sol = greedy_solve(inst)
    assert sol.entries == {(0, 0): Fraction(3)}
    assert evaluate_cost(inst, sol) == 7


def test_greedy_perfectly_matched_sizes():
    inst = pure_instance((2, 2), (2, 2), [[5, 5], [5, 5]])
    sol = greedy_solve(inst)
    assert sol.entries == {(0, 0): Fraction(2), (1, 1): Fraction(2)}
    assert evaluate_cost(inst, sol) == 10


def test_greedy_requires_pfct_s():
    not_pure = make_instance((1,), (1,), [[1]], [[1]])
    with pytest.raises(VariantError, match="requires PFCT-S"):
        greedy_solve(not_pure)
    not_sink_independent = pure_instance((2,), (1, 1), [[1, 2]])
    with pytest.raises(VariantError, match="requires PFCT-S"):
        greedy_solve(not_sink_independent)


def test_solve_pfct_s_agrees_with_the_three_functions():
    rng = random.Random(16)
    for _ in range(30):
        inst = random_pfct_s(rng, rng.randint(1, 6), rng.randint(1, 8))
        flow, lower, upper = solve_pfct_s(inst)
        assert flow == greedy_solve(inst)
        assert lower == opt_lower_bound(inst)
        assert upper == greedy_upper_bound(inst)
        assert lower <= evaluate_cost(inst, flow) <= upper


def test_sorted_view_orders_and_ties():
    inst = pure_instance((1, 2, 3), (2, 2, 2), [[4] * 3, [9] * 3, [4] * 3])
    view = sorted_view(inst)
    assert view.source_order == (1, 0, 2)  # f desc, ties by index
    assert view.sink_order == (0, 1, 2)
    assert view.supply_prefix == (2, 3, 6)


def test_lp_cost_e1(e1):
    sol = greedy_solve(e1)
    assert lp_cost(e1, sol) == 21
    assert lp_cost(e1, sol) <= evaluate_cost(e1, sol)


def test_lp_cost_equals_actual_when_sinks_saturated():
    inst = pure_instance((4, 2), (4, 2), [[3, 3], [1, 1]])
    sol = greedy_solve(inst)
    assert all(x == inst.demands[j] for (_, j), x in sol.entries.items())
    assert lp_cost(inst, sol) == evaluate_cost(inst, sol)


def test_lp_cost_single_edge():
    inst = pure_instance((1,), (1,), [[5]])
    assert lp_cost(inst, make_flow({(0, 0): 1})) == 5


def test_pi_definition():
    inst = pure_instance((8,), (4, 2, 2), [[1] * 3])
    assert pi(inst, 4) == 1
    assert pi(inst, 5) == 2
    assert pi(inst, 8) == 3
    assert pi(inst, Fraction(1, 2)) == 1
    with pytest.raises(FctpError, match="out of range"):
        pi(inst, 0)
    with pytest.raises(FctpError, match="out of range"):
        pi(inst, 9)


def reference_pi(inst, t):
    """pi by its definition: the fewest largest demands that reach t."""
    running = 0
    for count, b in enumerate(sorted(inst.demands, reverse=True), start=1):
        running += b
        if running >= t:
            return count
    raise AssertionError("t above the total demand")


def reference_lower_bound(inst):
    view = sorted_view(inst)
    f = list(view.fixed_sorted) + [Fraction(0)]
    return sum(
        ((f[p] - f[p + 1]) * reference_pi(inst, view.supply_prefix[p]) for p in range(inst.n)),
        Fraction(0),
    )


def test_bounds_match_pi_formula():
    # Small demands make many supply prefixes land exactly on a prefix sum
    # of the sorted demands, where pi must not count one sink too many.
    rng = random.Random(23)
    exact_hits = 0
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        supplies = [rng.randint(1, 4) for _ in range(n)]
        supplies[-1] += max(0, m - sum(supplies))
        demands = [1] * m
        for _ in range(sum(supplies) - m):
            demands[rng.randrange(m)] += 1
        fixed = [[Fraction(rng.randint(0, 9), rng.choice((1, 2, 3)))] * m for _ in range(n)]
        inst = pure_instance(supplies, demands, fixed)
        view = sorted_view(inst)
        reach = set(accumulate(view.demand_sorted))
        exact_hits += sum(t in reach for t in view.supply_prefix[:-1])
        lower = reference_lower_bound(inst)
        assert opt_lower_bound(inst) == lower
        assert greedy_upper_bound(inst) == lower + sum(view.fixed_sorted[1:], Fraction(0))
        for t in view.supply_prefix:
            assert pi(inst, t) == reference_pi(inst, t)
    assert exact_hits >= 100


@pytest.mark.parametrize("supplies, demands", [((3,), (1, 1)), ((1,), (2, 1))])
def test_bounds_reject_unbalanced_instance(supplies, demands):
    inst = pure_instance(supplies, demands, [[5] * len(demands)])
    for bound in (opt_lower_bound, greedy_upper_bound):
        with pytest.raises(FctpError, match=r"invalid instance: sum\(a\) != sum\(b\)"):
            bound(inst)


def test_opt_lower_bound_e1(e1):
    assert opt_lower_bound(e1) == 24


def test_opt_lower_bound_telescopes():
    single = pure_instance((5,), (2, 2, 1), [[7] * 3])
    assert opt_lower_bound(single) == 7 * 3  # one source must reach all sinks
    flat = pure_instance((3, 3), (2, 2, 2), [[4] * 3, [4] * 3])
    assert opt_lower_bound(flat) == 4 * 3  # all f equal: F * m


def test_greedy_upper_bound_e1(e1):
    assert greedy_upper_bound(e1) == 28
    assert evaluate_cost(e1, greedy_solve(e1)) <= greedy_upper_bound(e1)


def test_greedy_upper_bound_degenerate():
    single = pure_instance((4,), (2, 2), [[3, 3]])
    assert greedy_upper_bound(single) == opt_lower_bound(single)
    free = pure_instance((2, 2), (2, 2), [[0, 0], [0, 0]])
    assert greedy_upper_bound(free) == 0
    assert evaluate_cost(free, greedy_solve(free)) == 0


def test_no_crossing_examples(e1):
    assert no_crossing_check(e1, greedy_solve(e1))
    square = pure_instance((1, 1), (1, 1), [[2, 2], [1, 1]])
    crossing = make_flow({(0, 1): 1, (1, 0): 1})
    assert not no_crossing_check(square, crossing)
    assert no_crossing_check(square, make_flow({(0, 0): 1}))


def test_sandwich_and_ratio_on_random_instances():
    rng = random.Random(11)
    for _ in range(40):
        inst = random_pfct_s(rng, rng.randint(1, 4), rng.randint(1, 5))
        sol = greedy_solve(inst)
        cost = evaluate_cost(inst, sol)
        opt, _ = oracle.exact_fct(inst)
        assert opt_lower_bound(inst) <= opt <= cost <= greedy_upper_bound(inst)
        assert greedy_upper_bound(inst) <= opt_lower_bound(inst) + sum(
            sorted_view(inst).fixed_sorted[1:], Fraction(0)
        )
        assert cost <= 2 * opt
        assert no_crossing_check(inst, sol)
        assert is_forest(sol.entries)
        assert len(sol.entries) <= inst.n + inst.m - 1


def test_greedy_is_lp_optimal():
    # The crossing-free greedy solution minimizes the relaxation: compare
    # against the transportation solver with weights f_i / b_j.
    rng = random.Random(13)
    for _ in range(25):
        inst = random_pfct_s(rng, rng.randint(1, 4), rng.randint(1, 5))
        weights = [
            [inst.fixed[i][0] / inst.demands[j] for j in range(inst.m)]
            for i in range(inst.n)
        ]
        _, lp_opt = solve_transportation(inst, weights)
        assert lp_cost(inst, greedy_solve(inst)) == lp_opt


def test_compare_residual_bound_identity(e1):
    assert compare_residual_bound(e1, e1, 0)


def test_compare_residual_bound_merged_sinks(e1):
    merged = pure_instance((5, 3), (4, 4), [[10, 10], [4, 4]])
    assert compare_residual_bound(e1, merged, 0)


def test_compare_residual_bound_random_pairs():
    rng = random.Random(17)
    for _ in range(10):
        inst = random_pfct_s(rng, rng.randint(2, 4), rng.randint(2, 5))
        # Merge the two smallest sinks; pi can only shrink, so delta = 0.
        order = sorted(range(inst.m), key=lambda j: inst.demands[j])
        a, b = order[:2]
        demands = [
            d for j, d in enumerate(inst.demands) if j not in (a, b)
        ] + [inst.demands[a] + inst.demands[b]]
        merged = pure_instance(
            inst.supplies, demands, [[row[0]] * (inst.m - 1) for row in inst.fixed]
        )
        assert compare_residual_bound(inst, merged, 0)
        # Split the largest sink in two; pi grows by at most 1 at any point.
        big = max(range(inst.m), key=lambda j: inst.demands[j])
        if inst.demands[big] >= 2:
            half = inst.demands[big] // 2
            demands = [
                d for j, d in enumerate(inst.demands) if j != big
            ] + [half, inst.demands[big] - half]
            split = pure_instance(
                inst.supplies, demands, [[row[0]] * (inst.m + 1) for row in inst.fixed]
            )
            assert compare_residual_bound(inst, split, 1)


def test_compare_residual_bound_precondition_error(e1):
    # Shattering every sink into units raises pi by more than 0.
    units = pure_instance((5, 3), (1,) * 8, [[10] * 8, [4] * 8])
    with pytest.raises(FctpError, match="pi shift exceeds delta"):
        compare_residual_bound(e1, units, 0)


def test_compare_residual_bound_requires_shared_sources(e1):
    other = pure_instance((5, 3), (4, 2, 2), [[9] * 3, [4] * 3])
    with pytest.raises(FctpError, match="fixed costs"):
        compare_residual_bound(e1, other, 0)


def test_greedy_rejects_unbalanced_instance():
    inst = pure_instance((2,), (2, 3), [[5, 5]])
    with pytest.raises(FctpError, match=r"sum\(a\) != sum\(b\)"):
        greedy_solve(inst)
    # Balanced, but the sweep would ship -1 from source 1.
    inst = pure_instance((-1, 3), (2,), [[5], [5]])
    with pytest.raises(FctpError, match="invalid instance: a_1 not positive"):
        greedy_solve(inst)
