import hashlib
import random
from fractions import Fraction

import pytest

from util import is_forest, raises_instance_error

from fctp import oracle
from fctp.errors import InfeasibleError, VariantError
from fctp.fct_u import solve_fct_u
from fctp.generators import generate, random_fct_u
from fctp.model import INF, evaluate_cost, make_instance, serialize_solution, validate_solution
from fctp.transport import solve_transportation


def test_fct_u_derived_example():
    inst = make_instance((2, 2), (3, 1), [[1, 1], [1, 1]], [[0, 1], [1, 0]])
    sol = solve_fct_u(inst)
    assert sol.entries == {
        (0, 0): Fraction(2),
        (1, 0): Fraction(1),
        (1, 1): Fraction(1),
    }
    assert evaluate_cost(inst, sol) == 4
    assert oracle.exact_fct(inst)[0] == 4


def test_fct_u_zero_linear_costs():
    inst = make_instance((3, 1), (2, 2), [[1, 1], [1, 1]], [[0, 0], [0, 0]])
    sol = solve_fct_u(inst)
    assert evaluate_cost(inst, sol) == len(sol.entries) <= 3


def test_fct_u_1x1():
    inst = make_instance((4,), (4,), [[1]], [[Fraction(3, 2)]])
    sol = solve_fct_u(inst)
    assert sol.entries == {(0, 0): Fraction(4)}
    assert evaluate_cost(inst, sol) == 1 + 6


def test_fct_u_requires_uniform():
    inst = make_instance((1,), (1,), [[2]], [[0]])
    with pytest.raises(VariantError, match="requires FCT-U"):
        solve_fct_u(inst)


def test_fct_u_infeasible_propagates():
    inst = make_instance((1,), (1,), [[1]], [[INF]])
    with pytest.raises(InfeasibleError):
        solve_fct_u(inst)


def test_fct_u_invariants_on_random_instances():
    rng = random.Random(53)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        inst = random_fct_u(rng, n, m, max_supply=6, max_linear=5)
        sol = solve_fct_u(inst)
        assert validate_solution(inst, sol) is None
        assert is_forest(sol.entries)
        assert len(sol.entries) <= n + m - 1
        cost = evaluate_cost(inst, sol)
        opt, _ = oracle.exact_fct(inst)
        assert cost <= 2 * opt
        # Any solution pays fixed cost >= max(n, m): each source and each
        # sink touches at least one support edge.
        assert opt >= max(n, m)
        # Linear component is exactly the transportation optimum.
        _, lin_opt = solve_transportation(inst, inst.linear)
        linear_part = sum(
            (inst.linear[i][j] * x for (i, j), x in sol.entries.items()),
            Fraction(0),
        )
        assert linear_part == lin_opt


def test_fct_u_with_forbidden_edges():
    inst = make_instance(
        (2, 2),
        (2, 2),
        [[1, 1], [1, 1]],
        [[0, INF], [INF, 0]],
    )
    sol = solve_fct_u(inst)
    assert sol.entries == {(0, 0): Fraction(2), (1, 1): Fraction(2)}
    assert evaluate_cost(inst, sol) == 2


def test_fct_u_rejects_unbalanced_instance():
    with raises_instance_error("sum(a) != sum(b)"):
        solve_fct_u(make_instance((2,), (2, 3), [[1, 1]], [[0, 0]]))
    with raises_instance_error("n must be >= 1"):
        solve_fct_u(make_instance((), (), [], []))


def test_fct_u_output_pinned_on_seeded_instance():
    # Digest recorded when solve_fct_u cancelled cycles a second time on the
    # flow solve_transportation returned; that pass could remove no edge.
    inst = generate("fct-u", 12, 20, seed=2024, max_linear=2, forbid_probability=0.2)
    sol = solve_fct_u(inst)
    assert len(sol.entries) <= inst.n + inst.m - 1
    assert (
        hashlib.sha256(serialize_solution(sol).encode()).hexdigest()
        == "02c54aa751c02d326be54c9b4bba9a727817fe19e8a0ea7b4909ddbdf4f96cc8"
    )
