"""No public solver can be handed an instance that breaks the input contract.

Seeded base instances fit each entry point's variant, and each entry point
solves them.  Each defect breaks one invariant of one base; building it,
through dataclasses.replace or Instance, must raise InstanceError whose text
is exactly the reference walk's report, so the entry point never runs.
"""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest

from reference import validate_instance_by_walk
from util import raises_instance_error

from fctp import generators, oracle
from fctp.bicriteria import solve_bicriteria
from fctp.fct_u import solve_fct_u
from fctp.model import INF, Instance
from fctp.pfct_s import greedy_solve, greedy_upper_bound, opt_lower_bound, solve_pfct_s
from fctp.pfct_u import solve_pfct_u
from fctp.ptas import ptas_solve


def _first_row(matrix, value):
    # Every cell of row 1 set to value, so a sink-independent or uniform
    # instance stays so where the value allows it.
    return ((value,) * len(matrix[0]),) + matrix[1:]


# Each defect maps a base instance to the fields it changes.
COST_DEFECTS = {
    "negative f": lambda inst: {"fixed": _first_row(inst.fixed, Fraction(-1))},
    "negative c": lambda inst: {"linear": _first_row(inst.linear, Fraction(-1))},
    "inf in f": lambda inst: {"fixed": _first_row(inst.fixed, INF)},
    "float in f": lambda inst: {"fixed": _first_row(inst.fixed, 2.5)},
    "float in c": lambda inst: {"linear": _first_row(inst.linear, 2.5)},
}
SIDE_DEFECTS = {
    # A copy of source 1 with supply 0 keeps the totals balanced.
    "zero supply": lambda inst: {
        "supplies": (0,) + inst.supplies,
        "fixed": inst.fixed[:1] + inst.fixed,
        "linear": inst.linear[:1] + inst.linear,
    },
    "imbalance": lambda inst: {"demands": inst.demands[:-1] + (inst.demands[-1] + 1,)},
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


def _refused(build, parts):
    """build() raises InstanceError with the reference walk's report on parts."""
    report = validate_instance_by_walk(SimpleNamespace(**parts))
    assert report is not None
    with raises_instance_error(report):
        build()


@pytest.mark.parametrize(
    "name, defect",
    [(name, defect) for name, (_, _, defects) in ENTRY_POINTS.items() for defect in defects],
)
def test_every_public_solver_refuses_each_defect(name, defect):
    solve, family, defects = ENTRY_POINTS[name]
    for seed in range(3):
        base = generators.generate(family, 2, 3, seed)
        solve(base)
        changes = defects[defect](base)
        _refused(lambda: solve(dataclasses.replace(base, **changes)), vars(base) | changes)


def _bicriteria(inst):
    return solve_bicriteria(inst, Fraction(1, 4))


def _parts(supplies, demands, fixed, linear):
    # Instance fields as make_instance would build them: int costs as Fractions.
    def row(values):
        return tuple(Fraction(x) if type(x) is int else x for x in values)

    return {
        "supplies": supplies,
        "demands": demands,
        "fixed": tuple(map(row, fixed)),
        "linear": tuple(map(row, linear)),
    }


def _one_cell(f):
    return _parts((2,), (2,), [[f]], [[0]])


NEGATIVE_F = _parts((3, 2), (2, 3), [[-1, -1], [2, 2]], [[0, 0], [0, 0]])
NEGATIVE_C = _parts((3, 2), (2, 3), [[1, 1], [1, 1]], [[Fraction(-1, 2), 1], [1, 1]])
NEGATIVE_HALF_F = _parts((3, 2), (2, 3), [[Fraction(-1, 2), 1], [1, 1]], [[1, 1], [1, 1]])


def _fct_u_second_row(c):
    # Uniform f and a first row of c that is not all zero; c_2,1 is the defect.
    return _parts((1, 1), (1, 1), [[1, 1], [1, 1]], [[1, 0], [c, 0]])


@pytest.mark.parametrize(
    "solve, parts",
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
def test_refusal_carries_the_validate_instance_report(solve, parts):
    _refused(lambda: solve(Instance(**parts)), parts)
