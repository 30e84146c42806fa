import hashlib
import random
from fractions import Fraction

import pytest

from fctp import oracle
from fctp.bicriteria import capacity, cost_factor, round_tree, solve_bicriteria
from fctp.errors import FctpError, InfeasibleError
from fctp.generators import generate, random_fct
from fctp.model import (
    evaluate_cost,
    format_rational,
    make_instance,
    serialize_solution,
    validate_solution,
)


def group_mass(flow, edges):
    return sum((flow.get(e, Fraction(0)) for e in edges), Fraction(0))


def group_price(inst, flow, edges):
    total = Fraction(0)
    for (i, j) in edges:
        p = capacity(inst, i, j)
        total += (inst.linear[i][j] * p + inst.fixed[i][j]) * flow.get((i, j), Fraction(0)) / p
    return total


def check_rounding_properties(inst, before, after, eps, child_groups):
    """The four per-group guarantees, checked by direct recomputation."""
    for vertex_value, edges in child_groups:
        for e in edges:
            x_old = before.get(e, Fraction(0))
            x_new = after.get(e, Fraction(0))
            p = capacity(inst, *e)
            if x_old >= eps * p:
                assert x_new == x_old
            else:
                assert x_new in (Fraction(0), eps * p)
        drop = group_mass(after, edges) - group_mass(before, edges)
        assert -eps * vertex_value < drop <= 0
        assert group_price(inst, after, edges) <= group_price(inst, before, edges)


def test_round_tree_identity_when_all_edges_large():
    # Every p is 2, so flows 2, 1 and 3/2 are 1, 1/2 and 3/4 of capacity.
    inst = make_instance((2, 2), (2, 2), [[1, 1], [1, 1]], [[0, 0], [0, 0]])
    flow = {(0, 0): Fraction(2), (0, 1): Fraction(1), (1, 1): Fraction(3, 2)}
    assert round_tree(inst, flow, Fraction(1, 4)) == flow


def test_round_tree_refuses_a_float_eps():
    inst = make_instance((2, 2), (2, 2), [[1, 1], [1, 1]], [[0, 0], [0, 0]])
    flow = {(0, 0): Fraction(2), (0, 1): Fraction(1), (1, 1): Fraction(3, 2)}
    for bad in (0.1, 0.25, "1/4", None):
        with pytest.raises(FctpError, match="epsilon must be an int or a Fraction"):
            round_tree(inst, flow, bad)


def test_round_tree_leaf_vertices_untouched():
    inst = make_instance((3,), (3,), [[1]], [[0]])
    flow = {(0, 0): Fraction(3)}
    assert round_tree(inst, flow, Fraction(1, 8)) == flow


def test_round_tree_two_equal_small_edges():
    # Two small child edges with equal p = 4 and equal unit price, each
    # carrying eps p / 2: the first is raised to eps p, the second zeroed.
    inst = make_instance(
        (8,), (4, 4), [[1, 1]], [[0, 0]]
    )
    eps = Fraction(1, 4)
    flow = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    out = round_tree(inst, flow, eps)
    assert out == {(0, 0): Fraction(1)}
    check_rounding_properties(
        inst, flow, out, eps, [(8, [(0, 0), (0, 1)])]
    )


def test_round_tree_small_edge_on_2x2_instance():
    # LP solution on a=(20,20), b=(21,19) keeps 1 on edge (1,0), below
    # eps' p = 20/16; the child-group rule zeroes it.
    inst = make_instance(
        (20, 20), (21, 19), [[0, 8], [0, 0]], [[0, 1], [0, 0]]
    )
    from fctp.transport import solve_transportation

    weights = []
    for i in range(2):
        row = []
        for j in range(2):
            p = min(inst.supplies[i], inst.demands[j])
            row.append(inst.linear[i][j] + inst.fixed[i][j] / p)
        weights.append(row)
    lp_sol, _ = solve_transportation(inst, weights)
    flow = lp_sol.entries
    assert flow == {
        (0, 0): Fraction(20),
        (1, 0): Fraction(1),
        (1, 1): Fraction(19),
    }
    eps = Fraction(1, 16)
    assert flow[(1, 0)] < eps * capacity(inst, 1, 0)
    out = round_tree(inst, flow, eps)
    assert (1, 0) not in out
    assert out[(0, 0)] == flow[(0, 0)] and out[(1, 1)] == flow[(1, 1)]
    # Child groups from rooting at source 0: t0's group holds edge (1, 0).
    check_rounding_properties(inst, flow, out, eps, [(21, [(1, 0)])])


def test_round_tree_on_a_forest_rounds_each_tree_alone():
    # Two trees whose vertices interleave in index order: source 2 is a
    # lower vertex than every sink of the first tree.
    inst = make_instance(
        (8, 6, 5),
        (4, 4, 6, 2, 3),
        [[1, 2, 3, 1, 1], [2, 1, 1, 1, 1], [1, 1, 1, 3, 1]],
        [[0] * 5] * 3,
    )
    eps = Fraction(1, 4)
    # Flows of 1/8, 1/16, 1/2 and 1/10 of capacities 4, 4, 4 and 6.
    first = {
        (0, 0): Fraction(1, 2),
        (0, 1): Fraction(1, 4),
        (1, 1): Fraction(2),
        (1, 2): Fraction(3, 5),
    }
    # Flows of 1/8 and 1/6 of capacities 2 and 3.
    second = {(2, 3): Fraction(1, 4), (2, 4): Fraction(1, 2)}
    forest = {**first, **second}
    apart = {}
    for tree in (first, second):
        apart.update(round_tree(inst, tree, eps))
    out = round_tree(inst, forest, eps)
    assert out == apart
    assert out != forest


def test_round_tree_rejects_cycles():
    inst = make_instance((2, 2), (2, 2), [[1, 1], [1, 1]], [[0, 0], [0, 0]])
    cycle = {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(1)}
    with pytest.raises(FctpError, match="non-tree support"):
        round_tree(inst, cycle, Fraction(1, 8))


def test_epsilon_validation():
    inst = make_instance((1,), (1,), [[1]], [[0]])
    for bad in (0, Fraction(1, 3), Fraction(1, 2), 1):
        with pytest.raises(FctpError, match="epsilon"):
            solve_bicriteria(inst, bad)
    for good in (Fraction(1, 4), Fraction(1, 8)):
        solve_bicriteria(inst, good)
    # Only ints and Fractions: a float would become its binary expansion.
    for bad in ("x", None, 0.1, 0.25, False):
        with pytest.raises(FctpError, match="epsilon must be an int or a Fraction"):
            solve_bicriteria(inst, bad)


def test_bicriteria_1x1():
    inst = make_instance((5,), (5,), [[3]], [[2]])
    flow, report = solve_bicriteria(inst, Fraction(1, 4))
    assert flow.entries == {(0, 0): Fraction(5)}
    assert report.actual_cost == 3 + 10
    assert flow.relaxation == Fraction(1, 4)


def test_bicriteria_identity_when_no_small_edges():
    # Balanced 2x2 whose LP solution has all y == 1: rounding and scaling
    # are both identities, so the output is the LP solution itself.
    inst = make_instance((2, 3), (2, 3), [[0, 9], [9, 0]], [[0, 1], [1, 0]])
    flow, report = solve_bicriteria(inst, Fraction(1, 4))
    assert flow.entries == {(0, 0): Fraction(2), (1, 1): Fraction(3)}
    assert flow.col_sums(2) == [2, 3]  # exact marginals, scale factor 1
    assert report.actual_cost <= report.cost_bound


def test_bicriteria_properties_on_random_instances():
    rng = random.Random(59)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        inst = random_fct(rng, n, m, max_supply=8)
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            flow, report = solve_bicriteria(inst, eps)
            assert validate_solution(inst, flow) is None
            assert flow.row_sums(n) == list(map(Fraction, inst.supplies))
            for j in range(m):
                got = flow.col_sums(m)[j]
                b = inst.demands[j]
                assert (1 - eps) * b <= got <= (1 + eps) * b
            assert evaluate_cost(inst, flow) == report.actual_cost
            assert report.actual_cost <= report.cost_bound
            assert report.cost_bound == cost_factor(eps / 4) * report.lp_value
            opt, _ = oracle.exact_fct(inst)
            assert report.lp_value <= opt


def test_bicriteria_rejects_unbalanced_instance():
    inst = make_instance((2,), (2, 3), [[1, 2]], [[0, 1]])
    with pytest.raises(FctpError, match=r"sum\(a\) != sum\(b\)"):
        solve_bicriteria(inst, Fraction(1, 4))
    inst = make_instance((0, 2), (2,), [[1], [2]], [[0], [1]])
    with pytest.raises(FctpError, match="invalid instance: a_1 not positive"):
        solve_bicriteria(inst, Fraction(1, 4))


def _bicriteria_pinned_cases():
    """Seeded fct, fct-u (with forbidden edges), pfct-s and pure instances.
    Small supplies make partial sums meet, so many LP forests have several
    trees."""
    families = (
        ("fct", {}),
        ("fct-u", {"forbid_probability": 0.3}),
        ("pfct-s", {"max_supply": 4}),
        ("pure", {"max_supply": 3}),
    )
    for family, options in families:
        for n in (1, 2, 3, 4, 5):
            for m in (1, 2, 3, 5, 7):
                for seed in range(3):
                    yield generate(family, n, m, seed, **options)


def test_bicriteria_output_pinned():
    # Recorded before the per-tree split of the LP forest was folded into
    # one walk of the whole forest: any change in which edges are rounded,
    # or in the LP value or bound, changes this digest.
    digest = hashlib.sha256()
    for inst in _bicriteria_pinned_cases():
        for eps in (Fraction(1, 4), Fraction(1, 5), Fraction(1, 8)):
            try:
                flow, report = solve_bicriteria(inst, eps)
            except InfeasibleError:
                digest.update(b"infeasible\n")
                continue
            digest.update(serialize_solution(flow).encode())
            digest.update(
                f"{format_rational(report.lp_value)} "
                f"{format_rational(report.cost_bound)}\n".encode()
            )
    assert digest.hexdigest() == "450e60d05602930c2ccf64ab43048fd9959705bc759e5235e14743a227469e22"
