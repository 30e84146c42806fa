"""Uniform fixed costs as a balanced-partition problem, plus the 6/5 proof.

With f == 1 and no linear costs, a solution's cost is the number of support
edges, and forests make that m + n minus the number of tree components; so
the problem is to partition sources and sinks into as many balanced sets as
possible.  The solver extracts matched pairs, packs balanced sets of size at
most k for k in {3, 4, 5}, and keeps the best.  The worst-case ratio of that
scheme is the optimum of a small LP, certified here in exact rationals.
"""

from fctp import (
    enumerate_balanced_sets,
    evaluate_cost,
    preprocess_matched_pairs,
    solve_pfct_u,
    uniform_pure_instance,
    verify_factor_revealing_certificate,
)
from fctp.oracle import exact_balanced_partition

inst = uniform_pure_instance((3, 5, 4), (1, 2, 5, 4))



def members(part):
    """(side, 1-based index, weight) of each vertex in a part mask: source
    i is bit i, sink j is bit n + j."""
    return [
        ("source", v + 1, inst.supplies[v]) if v < inst.n
        else ("sink", v - inst.n + 1, inst.demands[v - inst.n])
        for v in range(inst.n + inst.m)
        if part >> v & 1
    ]


pairs, residual = preprocess_matched_pairs(inst)
print(f"matched pairs extracted: {len(pairs)}")
for part in pairs:
    print("  ", members(part))
print("residual:", residual.supplies, "->", residual.demands)

for k in (3, 4, 5):
    family = enumerate_balanced_sets(residual, k).family
    print(f"balanced sets of size <= {k}: {len(family)}")

parts, flow = solve_pfct_u(inst, mode="exact")
cost = inst.n + inst.m - len(parts)
print(f"partition into {len(parts)} parts, cost {cost}")
print("flow cost:", evaluate_cost(inst, flow))

count, _ = exact_balanced_partition(inst)
opt = inst.n + inst.m - count
print(f"oracle optimum: {opt}; exact-mode guarantee is cost <= 6/5 * opt")
assert 5 * cost <= 6 * opt

cert = verify_factor_revealing_certificate()
print("factor-revealing LP value:", cert.value)
print("  primal:", {k: str(v) for k, v in cert.primal.items()})
print("  dual:  ", {k: str(v) for k, v in cert.dual.items()})
