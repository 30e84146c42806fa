"""Shared test helpers: tiny independent brute-force oracles.

These stay deliberately dumb (full enumeration of integral flows) so they
share no code path with the package's solvers or with oracle.exact_fct.
"""

import re
from fractions import Fraction

import pytest

from fctp.errors import InstanceError
from fctp.model import INF, Instance, pure_instance


def raises_instance_error(report: str):
    """pytest.raises for an InstanceError whose text is exactly this report's."""
    return pytest.raises(InstanceError, match=f"^{re.escape(f'invalid instance: {report}')}$")


def e1_instance() -> Instance:
    # a=(5,3), b=(4,2,2), sink-independent f=(10,4), pure.
    return pure_instance((5, 3), (4, 2, 2), [[10] * 3, [4] * 3])


def integral_flows(inst: Instance):
    """Yield every integral feasible flow as a dict; exponential, tiny only."""
    n, m = inst.n, inst.m
    rem_b = list(inst.demands)
    flow: dict = {}

    def per_source(i):
        if i == n:
            yield dict(flow)
            return
        yield from fill(i, 0, inst.supplies[i])

    def fill(i, j, left):
        if j == m:
            if left == 0:
                yield from per_source(i + 1)
            return
        top = min(left, rem_b[j])
        for x in range(top + 1):
            if x:
                flow[(i, j)] = x
            rem_b[j] -= x
            yield from fill(i, j + 1, left - x)
            rem_b[j] += x
            if x:
                del flow[(i, j)]

    yield from per_source(0)


def flow_cost(inst: Instance, flow: dict):
    """Total fixed + linear cost; None when the flow touches a forbidden edge."""
    total = Fraction(0)
    for (i, j), x in flow.items():
        c = inst.linear[i][j]
        if c is INF:
            return None
        total += inst.fixed[i][j] + c * x
    return total


def brute_force_opt(inst: Instance):
    """Minimum total cost over all integral flows; None if none is feasible."""
    best = None
    for flow in integral_flows(inst):
        cost = flow_cost(inst, flow)
        if cost is not None and (best is None or cost < best):
            best = cost
    return best


def brute_force_min_linear(inst: Instance, weights):
    """Minimum of sum(w_ij x_ij) over integral flows avoiding INF weights."""
    best = None
    for flow in integral_flows(inst):
        total = Fraction(0)
        ok = True
        for (i, j), x in flow.items():
            if weights[i][j] is INF:
                ok = False
                break
            total += weights[i][j] * x
        if ok and (best is None or total < best):
            best = total
    return best


def is_forest(entries) -> bool:
    """Union-find acyclicity check on the bipartite support."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in entries:
        a, b = find(("s", i)), find(("t", j))
        if a == b:
            return False
        parent[a] = b
    return True
