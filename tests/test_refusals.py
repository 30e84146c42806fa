"""Every public solver refuses an instance that validate_instance reports.

Seeded base instances fit each entry point's variant; each defect breaks
one invariant of one, and the entry point must raise FctpError, never
return a flow.
"""

import dataclasses
from fractions import Fraction

import pytest

from fctp import generators, oracle
from fctp.bicriteria import solve_bicriteria
from fctp.errors import FctpError
from fctp.fct_u import solve_fct_u
from fctp.model import INF, Instance, make_instance, pure_instance, validate_instance
from fctp.pfct_s import greedy_solve, greedy_upper_bound, opt_lower_bound, solve_pfct_s
from fctp.pfct_u import solve_pfct_u
from fctp.ptas import ptas_solve


def _first_row(matrix, value):
    # Every cell of row 1 set to value, so a sink-independent or uniform
    # instance stays so where the value allows it.
    return ((value,) * len(matrix[0]),) + matrix[1:]


COST_DEFECTS = {
    "negative f": lambda inst: dataclasses.replace(inst, fixed=_first_row(inst.fixed, Fraction(-1))),
    "negative c": lambda inst: dataclasses.replace(inst, linear=_first_row(inst.linear, Fraction(-1))),
    "inf in f": lambda inst: dataclasses.replace(inst, fixed=_first_row(inst.fixed, INF)),
    "float in f": lambda inst: dataclasses.replace(inst, fixed=_first_row(inst.fixed, 2.5)),
    "float in c": lambda inst: dataclasses.replace(inst, linear=_first_row(inst.linear, 2.5)),
}
SIDE_DEFECTS = {
    # A copy of source 1 with supply 0 keeps the totals balanced.
    "zero supply": lambda inst: Instance(
        supplies=(0,) + inst.supplies,
        demands=inst.demands,
        fixed=inst.fixed[:1] + inst.fixed,
        linear=inst.linear[:1] + inst.linear,
    ),
    "imbalance": lambda inst: dataclasses.replace(
        inst, demands=inst.demands[:-1] + (inst.demands[-1] + 1,)
    ),
}

# name -> (entry point, generator family of its base instances, defects)
ENTRY_POINTS = {
    "solve_pfct_s": (solve_pfct_s, "pfct-s", COST_DEFECTS | SIDE_DEFECTS),
    "greedy_solve": (greedy_solve, "pfct-s", COST_DEFECTS | SIDE_DEFECTS),
    "opt_lower_bound": (opt_lower_bound, "pfct-s", COST_DEFECTS | SIDE_DEFECTS),
    "greedy_upper_bound": (greedy_upper_bound, "pfct-s", COST_DEFECTS | SIDE_DEFECTS),
    "solve_pfct_u": (solve_pfct_u, "pfct-u", COST_DEFECTS | SIDE_DEFECTS),
    "solve_fct_u": (solve_fct_u, "fct-u", COST_DEFECTS | SIDE_DEFECTS),
    "solve_bicriteria": (
        lambda inst: solve_bicriteria(inst, Fraction(1, 4)), "fct", COST_DEFECTS | SIDE_DEFECTS
    ),
    "ptas_solve": (lambda inst: ptas_solve(inst, Fraction(1, 2)), "pure", COST_DEFECTS | SIDE_DEFECTS),
    "exact_fct": (oracle.exact_fct, "fct", COST_DEFECTS | SIDE_DEFECTS),
    # It reads no costs.
    "exact_balanced_partition": (oracle.exact_balanced_partition, "pfct-u", SIDE_DEFECTS),
}


@pytest.mark.parametrize(
    "name, defect",
    [(name, defect) for name, (_, _, defects) in ENTRY_POINTS.items() for defect in defects],
)
def test_every_public_solver_refuses_each_defect(name, defect):
    solve, family, defects = ENTRY_POINTS[name]
    for seed in range(3):
        base = generators.generate(family, 2, 3, seed)
        solve(base)
        bad = defects[defect](base)
        assert validate_instance(bad) is not None
        with pytest.raises(FctpError):
            solve(bad)


def _bicriteria(inst):
    return solve_bicriteria(inst, Fraction(1, 4))


def _one_cell(f):
    return Instance(supplies=(2,), demands=(2,), fixed=((f,),), linear=((Fraction(0),),))


NEGATIVE_F = pure_instance((3, 2), (2, 3), [[-1, -1], [2, 2]])
NEGATIVE_C = make_instance((3, 2), (2, 3), [[1, 1], [1, 1]], [[Fraction(-1, 2), 1], [1, 1]])
NEGATIVE_HALF_F = make_instance((3, 2), (2, 3), [[Fraction(-1, 2), 1], [1, 1]], [[1, 1], [1, 1]])


def _fct_u_second_row(c):
    # Uniform f and a first row of c that is not all zero, so the variant
    # check reads no further and c_2,1 is first met by the transport solve.
    return Instance(
        supplies=(1, 1),
        demands=(1, 1),
        fixed=((Fraction(1),) * 2,) * 2,
        linear=((Fraction(1), Fraction(0)), (c, Fraction(0))),
    )


@pytest.mark.parametrize(
    "solve, inst",
    [
        pytest.param(solve, NEGATIVE_F, id=f"{solve.__name__}-negative f")
        for solve in (solve_pfct_s, greedy_solve, opt_lower_bound, greedy_upper_bound)
    ]
    + [
        pytest.param(_bicriteria, NEGATIVE_C, id="bicriteria-negative c"),
        pytest.param(_bicriteria, NEGATIVE_HALF_F, id="bicriteria-negative f"),
    ]
    + [
        pytest.param(solve, _one_cell(f), id=f"{solve.__name__}-{f!r} in f")
        for f in (INF, 2.5)
        for solve in (solve_pfct_s, solve_pfct_u, solve_fct_u, _bicriteria)
    ]
    + [
        pytest.param(solve_fct_u, _fct_u_second_row(c), id=f"solve_fct_u-{c!r} in c row 2")
        for c in (2.5, Fraction(-1))
    ],
)
def test_refusal_carries_the_validate_instance_report(solve, inst):
    with pytest.raises(FctpError) as info:
        solve(inst)
    assert str(info.value) == f"invalid instance: {validate_instance(inst)}"
