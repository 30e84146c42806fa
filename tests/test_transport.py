import hashlib
import heapq
import random
from fractions import Fraction
from math import lcm

import pytest

import reference
from reference import (
    bicriteria_weights,
    full_round_transportation,
    int_transportation_by_walk,
    rotate_cycles_by_walk,
    ssp_settling_past_target,
)
from util import brute_force_min_linear, is_forest

from fctp import transport
from fctp.errors import FctpError, InfeasibleError
from fctp.generators import generate, random_fct, split_total
from fctp.model import (
    INF,
    integer_scaled,
    make_flow,
    make_instance,
    serialize_solution,
    subset_sums,
    validate_solution,
)
from fctp.transport import (
    balinski_weights,
    cancel_cycles,
    feasible,
    int_transportation,
    solve_transportation,
    walk_support,
)


def weighted_cost(weights, entries):
    return sum((weights[i][j] * x for (i, j), x in entries.items()), Fraction(0))


def test_min_linear_2x2_against_enumeration():
    inst = make_instance((2, 2), (3, 1), [[0, 0], [0, 0]], [[0, 1], [1, 0]])
    sol, value = solve_transportation(inst, inst.linear)
    assert value == brute_force_min_linear(inst, inst.linear) == 1
    assert sol.entries == {
        (0, 0): Fraction(2),
        (1, 0): Fraction(1),
        (1, 1): Fraction(1),
    }


def test_zero_weights_return_any_feasible_flow():
    inst = make_instance((3, 2), (1, 4), [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    sol, value = solve_transportation(inst, [[0, 0], [0, 0]])
    assert value == 0
    assert sol.row_sums(2) == [3, 2]
    assert sol.col_sums(2) == [1, 4]


def test_infeasible_when_all_edges_forbidden():
    inst = make_instance((1,), (1,), [[0]], [[INF]])
    with pytest.raises(InfeasibleError, match="no feasible transportation"):
        solve_transportation(inst, [[INF]])


def test_feasible_agrees_with_transport():
    # Gale's condition holds exactly when transport finds a flow over the
    # allowed (finite-weight) edges.
    rng = random.Random(13)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        supplies = [rng.randint(1, 6) for _ in range(n)]
        demands = split_total(rng, sum(supplies), m) if sum(supplies) >= m else None
        if demands is None:
            continue
        weights = [[INF if rng.random() < 0.3 else rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        inst = make_instance(supplies, demands, [[0] * m] * n, [[0] * m] * n)
        sink_masks = [
            sum(1 << j for j in range(m) if weights[i][j] is not INF) for i in range(n)
        ]
        verdict = feasible(subset_sums(supplies), demands, sink_masks)
        try:
            solve_transportation(inst, weights)
            solved = True
        except InfeasibleError:
            solved = False
        assert verdict == solved, (supplies, demands, weights)
        outcomes[verdict] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_negative_weights_rejected():
    inst = make_instance((1,), (1,), [[0]], [[0]])
    with pytest.raises(FctpError, match="negative weights"):
        solve_transportation(inst, [[-1]])


def test_wrong_shaped_weights_rejected():
    inst = make_instance((1, 1), (2,), [[0], [0]], [[0], [0]])
    for bad in ([[0]], [[0], [0], [0]], [[0], [0, 0]], []):
        with pytest.raises(FctpError, match="weight matrix shape"):
            solve_transportation(inst, bad)


def test_non_rational_weights_rejected():
    inst = make_instance((1,), (1,), [[0]], [[0]])
    for bad in (0.5, "0", None):
        with pytest.raises(FctpError, match="ints, Fractions or inf"):
            solve_transportation(inst, [[bad]])


def test_unbalanced_instance_rejected():
    inst = make_instance((2,), (2, 3), [[0, 0]], [[0, 0]])
    with pytest.raises(FctpError, match=r"invalid instance: sum\(a\) != sum\(b\)"):
        solve_transportation(inst, [[0, 0]])


def random_weights(rng, n, m, forbid=0.15):
    return [
        [
            INF if rng.random() < forbid else Fraction(rng.randint(0, 40), rng.choice((1, 2, 3, 8)))
            for _ in range(m)
        ]
        for _ in range(n)
    ]


def test_scaling_weights_keeps_flow_and_scales_objective():
    # One positive factor keeps every comparison, so the flow is identical.
    rng = random.Random(13)
    for k in (Fraction(7, 3), Fraction(5), Fraction(1, 6)):
        for _ in range(5):
            n, m = rng.randint(1, 6), rng.randint(1, 8)
            inst = random_fct(rng, n, m)
            weights = random_weights(rng, n, m)
            scaled = [[x if x is INF else k * x for x in row] for row in weights]
            sol, value = solve_transportation(inst, weights)
            sol_k, value_k = solve_transportation(inst, scaled)
            assert sol_k.entries == sol.entries
            assert value_k == k * value


def test_matches_networkx_min_cost_flow_beyond_brute_force():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for n, m in ((8, 12), (12, 18), (15, 25), (20, 30)):
        inst = random_fct(rng, n, m, max_supply=30)
        weights = random_weights(rng, n, m)
        scale = lcm(*(x.denominator for row in weights for x in row if x is not INF))
        graph = nx.DiGraph()
        for i, a in enumerate(inst.supplies):
            graph.add_node(("s", i), demand=-a)
        for j, b in enumerate(inst.demands):
            graph.add_node(("t", j), demand=b)
        for i in range(n):
            for j in range(m):
                if weights[i][j] is not INF:
                    graph.add_edge(("s", i), ("t", j), weight=int(weights[i][j] * scale))
        expected = Fraction(nx.cost_of_flow(graph, nx.min_cost_flow(graph)), scale)
        sol, value = solve_transportation(inst, weights)
        assert value == expected
        assert weighted_cost(weights, sol.entries) == value
        assert validate_solution(inst, sol) is None
        assert is_forest(sol.entries)


def test_solution_bytes_pinned_on_18x36_instance():
    # Digests recorded from an SSP loop in Fraction arithmetic: output must
    # not depend on the number type.  The bicriteria weights c + f / min(a, b)
    # and, where a changed tie-break shows, the tie-heavy linear costs alone.
    inst = generate("fct", 18, 36, seed=2024)
    for weights, digest, objective in (
        (
            bicriteria_weights(inst),
            "348a48546d9dbd7349df27c7e83c668c880045882ab64788c6cd420be301ba67",
            Fraction(64001, 360),
        ),
        (
            inst.linear,
            "0ea9be53c9d032c147ea0347b441cbef04ace41eb1a82cacb7121bcb288c96ce",
            Fraction(95, 2),
        ),
    ):
        sol, value = solve_transportation(inst, weights)
        assert hashlib.sha256(serialize_solution(sol).encode()).hexdigest() == digest
        assert value == objective


def _tie_heavy_instance(rng, n, m):
    """{0, 1} weights with forbidden cells off row and column 0; many sinks tie."""
    supplies = [rng.randint(1, 6) for _ in range(n)]
    supplies[-1] += max(0, m - sum(supplies))
    demands = [1] * m
    for _ in range(sum(supplies) - m):
        demands[rng.randrange(m)] += 1
    linear = [
        [INF if i and j and rng.random() < 0.25 else rng.randint(0, 1) for j in range(m)]
        for i in range(n)
    ]
    return make_instance(supplies, demands, [[0] * m] * n, linear)


def test_solution_bytes_pinned_on_tie_heavy_instances():
    # Recorded before Dijkstra rounds stopped at the first sink with unmet
    # demand: several such sinks sit at equal distance in most rounds, so a
    # changed target, path or potential update changes this digest.
    rng = random.Random(77)
    digest = hashlib.sha256()
    infeasible = 0
    for _ in range(40):
        n = rng.randint(2, 9)
        inst = _tie_heavy_instance(rng, n, rng.randint(n, 2 * n + 3))
        try:
            sol, value = solve_transportation(inst, inst.linear)
        except InfeasibleError:
            digest.update(b"infeasible\n")
            infeasible += 1
            continue
        digest.update(serialize_solution(sol).encode() + f"{value}\n".encode())
    assert infeasible == 2
    assert digest.hexdigest() == "d07be73c591398b98731823bf7523d8451823b89031c1cfc9ff6325b854e044a"


def _rerouting_instance(rng, kind):
    """Unbalanced supplies over 20% forbidden cells, with tie-heavy {0, 1, 2}
    weights (kind 0), fractional weights (kind 1) or the banded weights
    |i m - j n| mod 5 (kind 2); most rounds reroute flow along backward arcs."""
    n, m = rng.randint(2, 8), rng.randint(2, 12)
    supplies = [rng.randint(1, 9) for _ in range(n)]
    supplies[-1] += max(0, m - sum(supplies))
    demands = [1] * m
    for _ in range(sum(supplies) - m):
        demands[rng.randrange(m)] += 1
    linear = []
    for i in range(n):
        row = []
        for j in range(m):
            if rng.random() < 0.2:
                row.append(INF)
            elif kind == 0:
                row.append(rng.randint(0, 2))
            elif kind == 1:
                row.append(Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))))
            else:
                row.append(abs(i * m - j * n) % 5)
        linear.append(row)
    return make_instance(supplies, demands, [[0] * m] * n, linear)


def test_solution_bytes_pinned_on_rerouting_instances():
    # Recorded before each round read its backward arcs from a bitmask of
    # the sources with flow into the popped sink and pushed int heap keys:
    # 149 of the 175 feasible instances augment along a backward arc, so a
    # backward arc scanned in another order, missed or stale changes this
    # digest.
    rng = random.Random(16)
    digest = hashlib.sha256()
    infeasible = 0
    for k in range(200):
        inst = _rerouting_instance(rng, k % 3)
        try:
            sol, value = solve_transportation(inst, inst.linear)
        except InfeasibleError:
            digest.update(b"infeasible\n")
            infeasible += 1
            continue
        digest.update(serialize_solution(sol).encode() + f"{value}\n".encode())
    assert infeasible == 25
    assert digest.hexdigest() == "7dc9ba8970fcae88f0c52855d0f190bd18c7a7ac86ea7a59e69cde716bbde071"


def _differential_case(rng, k, most_n=8, most_m=12):
    """Shapes 1 x m, n x 1 and up to most_n x most_m; weights all zero
    (k % 4 == 0), from {0, 1, 2}, fractional, or from a wide int range;
    forbidden cells at a random rate up to 30%, so some cases are infeasible."""
    shape = k % 5
    n = 1 if shape == 0 else rng.randint(1, most_n)
    m = 1 if shape == 1 else rng.randint(1, most_m)
    supplies = [rng.randint(1, 9) for _ in range(n)]
    total = sum(supplies)
    if total < m:
        supplies[rng.randrange(n)] += m - total
        total = m
    demands = split_total(rng, total, m)
    forbid = rng.choice((0, 0.05, 0.15, 0.3))
    kind = k % 4

    def weight():
        if rng.random() < forbid:
            return INF
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(0, 2)
        if kind == 2:
            return Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
        return rng.randint(0, 10**6)

    weights = [[weight() for _ in range(m)] for _ in range(n)]
    return make_instance(supplies, demands, [[0] * m] * n, [[0] * m] * n), weights


def _outcome(solve, inst, weights):
    try:
        sol, value = solve(inst, weights)
    except InfeasibleError:
        return None
    return serialize_solution(sol), str(value)


def test_matches_full_round_reference_byte_for_byte():
    # The seeded first layer, the early stop and the bitmask backward arcs
    # must leave every target, path and potential of full SSP rounds, and
    # so their exact output.
    rng = random.Random(19)
    infeasible = 0
    for k in range(450):
        inst, weights = _differential_case(rng, k)
        expected = _outcome(full_round_transportation, inst, weights)
        assert _outcome(solve_transportation, inst, weights) == expected, (inst, weights)
        infeasible += expected is None
    assert infeasible == 125  # both sides raise InfeasibleError; 325 solve


def test_int_core_matches_reference_and_public_solver(monkeypatch):
    # The int core on the int-scaled weights, None on a forbidden edge, as
    # the PTAS calls it: the same entries as full SSP rounds and as
    # solve_transportation, and the same refusals.  Zero and tied weights
    # make degenerate flows, and 7 of the 450 SSP flows hold a cycle for the
    # int cancel loop to rotate away (a rotation always empties an edge).
    rotate = transport._rotate_cycles
    rotated = 0

    def counting(flow, weights):
        nonlocal rotated
        before = len(flow)
        out = rotate(flow, weights)
        rotated += len(out) < before
        return out

    monkeypatch.setattr(transport, "_rotate_cycles", counting)
    rng = random.Random(23)
    infeasible = core_rotated = 0
    for k in range(450):
        inst, weights = _differential_case(rng, k)
        _, (iw,) = integer_scaled(weights)
        before = rotated
        try:
            flow = int_transportation(inst.supplies, inst.demands, iw)
        except InfeasibleError:
            infeasible += 1
            for solve in (full_round_transportation, solve_transportation):
                with pytest.raises(InfeasibleError):
                    solve(inst, weights)
            continue
        core_rotated += rotated - before
        assert all(type(x) is int for x in flow.values())
        for solve in (full_round_transportation, solve_transportation):
            sol, _ = solve(inst, weights)
            assert sorted(flow.items()) == list(sol.entries.items()), (inst, weights)
    assert infeasible == 126
    assert core_rotated == 7
    assert rotated == 3 * 7  # the other two solvers rotate the same flows


def _int_outcome(solve, supplies, demands, iw):
    try:
        return list(solve(supplies, demands, iw).items())
    except FctpError as exc:
        return type(exc), str(exc)


class _CountingHeapq:
    """heapq as a module under test calls it, counting heapify calls."""

    heappush = staticmethod(heapq.heappush)
    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.heapified = 0

    def heapify(self, heap):
        self.heapified += 1
        heapq.heapify(heap)


def _count_seedings(monkeypatch):
    """(core, ref): the heap seedings of transport and of the reference,
    which seeds once per round."""
    core, ref = _CountingHeapq(), _CountingHeapq()
    monkeypatch.setattr(transport, "heapq", core)
    monkeypatch.setattr(reference, "heapq", ref)
    return core, ref


def test_int_core_matches_walk_reference_item_for_item(monkeypatch):
    # The settled-target stop, the continued rounds and the union-find
    # forest test leave the int core's output as it was: on 2000 seeded
    # cases (1 x m and n x 1 shapes, all-zero and {0, 1, 2} weights full of
    # ties, forbidden cells, some infeasible) and 150 cases up to 20 x 40
    # with all-zero and {0, 1, 2} weights, where continued rounds run in
    # long chains and backward arcs empty, the same entries in the same
    # insertion order, or the same error type and message, as the rounds
    # that settle past the target, each seeded afresh, and the cancel loop
    # that walks the support every time.  A continued round seeds no heap.
    core, ref = _count_seedings(monkeypatch)
    rng = random.Random(2027)
    cases = [_differential_case(rng, k) for k in range(2000)]
    cases += [_differential_case(rng, k, 20, 40) for k in range(300) if k % 4 < 2]
    infeasible = cyclic = 0
    continued = []  # per case, the rounds that seeded no heap
    for inst, weights in cases:
        _, (iw,) = integer_scaled(weights)
        args = inst.supplies, inst.demands, iw
        rounds, seeded = ref.heapified, core.heapified
        expected = _int_outcome(int_transportation_by_walk, *args)
        assert _int_outcome(int_transportation, *args) == expected, (inst, weights)
        continued.append(ref.heapified - rounds - (core.heapified - seeded))
        if expected[0] is InfeasibleError:
            infeasible += 1
        elif len(ssp_settling_past_target(*args)) > len(expected):
            cyclic += 1
    assert infeasible >= 400 and cyclic >= 20, (infeasible, cyclic)
    small, wide = sum(continued[:2000]), sum(continued[2000:])
    assert small >= 3500 and wide >= 1800, (small, wide)


def test_zero_distance_rounds_continue_the_search(monkeypatch):
    # The linear LPs of FCT-U instances and the Balinski LPs of FCT
    # instances: most rounds end at distance 0 and so many continue the
    # last round's search.  The flows stay those of the walk reference
    # item for item while the core seeds its heap in at most 3/4 of the
    # rounds; the count is pinned, so a lost continuation fails here rather
    # than only slowing the core down.
    core, ref = _count_seedings(monkeypatch)
    for seed in range(5):
        fct_u, fct = generate("fct-u", 14, 28, seed), generate("fct", 14, 28, seed)
        for inst, weights in ((fct_u, fct_u.linear), (fct, balinski_weights(fct)[1])):
            sol, _ = solve_transportation(inst, weights)
            _, (iw,) = integer_scaled(weights)
            expected = int_transportation_by_walk(inst.supplies, inst.demands, iw)
            assert list(sol.entries.items()) == sorted(expected.items())
    assert 4 * core.heapified <= 3 * ref.heapified
    assert (core.heapified, ref.heapified) == (255, 382)


def test_forest_test_gates_the_cycle_walk(monkeypatch):
    # _rotate_cycles asks walk_support for a cycle only when the union-find
    # test finds one, so a forest support is never walked, every walk finds
    # a cycle, and the rotated flow is the walk-every-round loop's, entry
    # order included, on hand-built cyclic flows and on the tie-heavy SSP
    # flows that hold cycles.
    walks = []

    def counted(n, edges):
        parents, cycle = walk_support(n, edges)
        walks.append(cycle)
        return parents, cycle

    monkeypatch.setattr(transport, "walk_support", counted)
    cases = [("averaged", dict(flow.entries), weights) for flow, weights in _averaged_flows()]
    rng = random.Random(2029)
    for k in range(1500):
        inst, weights = _differential_case(rng, k)
        _, (iw,) = integer_scaled(weights)
        try:
            flow = ssp_settling_past_target(inst.supplies, inst.demands, iw)
        except InfeasibleError:
            continue
        cases.append(("ssp", flow, iw))
    cyclic = {"averaged": 0, "ssp": 0}
    forests = 0
    for source, flow, weights in cases:
        del walks[:]
        expected = list(rotate_cycles_by_walk(dict(flow), weights).items())
        assert list(transport._rotate_cycles(dict(flow), weights).items()) == expected
        assert None not in walks
        if is_forest(flow):
            assert not walks
            forests += 1
        else:
            assert walks
            cyclic[source] += 1
    assert forests >= 500 and cyclic["averaged"] >= 100 and cyclic["ssp"] >= 15, (forests, cyclic)


def test_union_find_forest_test_matches_reference():
    # Random edge sets, from sparse to dense, on shapes up to 5 x 6.
    rng = random.Random(2031)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        cells = [(i, j) for i in range(n) for j in range(m)]
        edges = rng.sample(cells, rng.randint(0, len(cells)))
        verdict = transport._is_forest(n, m, edges)
        assert verdict == is_forest(edges), edges
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 150, verdicts


def test_optimal_on_all_small_instances():
    # Exhaustive-check invariant: nm <= 9, sum(a) <= 8.
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        while True:
            supplies = [rng.randint(1, 3) for _ in range(n)]
            if m <= sum(supplies) <= 8:
                break
        total = sum(supplies)
        cuts = sorted(rng.sample(range(1, total), m - 1)) if m > 1 else []
        bounds = [0] + cuts + [total]
        demands = [bounds[k + 1] - bounds[k] for k in range(m)]
        weights = [
            [INF if rng.random() < 0.15 else Fraction(rng.randint(0, 6)) for _ in range(m)]
            for _ in range(n)
        ]
        zeros = [[0] * m for _ in range(n)]
        inst = make_instance(supplies, demands, zeros, zeros)
        expected = brute_force_min_linear(inst, weights)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve_transportation(inst, weights)
            continue
        sol, value = solve_transportation(inst, weights)
        assert value == expected
        assert weighted_cost(weights, sol.entries) == value
        # Extreme point shape: integral, acyclic, at most n + m - 1 edges.
        assert all(x.denominator == 1 for x in sol.entries.values())
        assert len(sol.entries) <= n + m - 1
        assert is_forest(sol.entries)


def test_walk_support_roots_each_tree_at_its_lowest_vertex():
    # Sources 0..2, sinks 3..5: trees {0, 2, 3, 5} and {1, 4}.
    parents, cycle = walk_support(3, [(2, 0), (1, 1), (2, 2), (0, 2)])
    assert cycle is None
    assert parents == {0: None, 5: 0, 2: 5, 3: 2, 1: None, 4: 1}
    assert list(parents) == [0, 5, 2, 3, 1, 4]


def test_walk_support_first_cycle_of_full_2x2_support():
    for edges in ([(0, 0), (0, 1), (1, 0), (1, 1)], [(1, 1), (1, 0), (0, 1), (0, 0)]):
        parents, cycle = walk_support(2, edges)
        assert cycle == [(0, 0, True), (1, 0, False), (1, 1, True), (0, 1, False)]
        assert parents == {0: None, 2: 0, 3: 0, 1: 3}


def test_cancel_cycles_keeps_forest_unchanged():
    flow = make_flow({(0, 0): 2, (0, 1): 1, (1, 1): 3})
    out = cancel_cycles(flow, [[0, 0], [0, 0]])
    assert out.entries == flow.entries


def test_cancel_cycles_tie_break_zeroes_smallest_edge():
    # All-ones square, all-zero weights: both directions cost the same, so
    # the rotation zeroing edge (1, 1) wins.
    flow = make_flow({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    out = cancel_cycles(flow, [[0, 0], [0, 0]])
    assert out.entries == {(0, 1): Fraction(2), (1, 0): Fraction(2)}


def test_cancel_cycles_prefers_cheaper_direction():
    flow = make_flow({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    out = cancel_cycles(flow, [[0, 1], [1, 0]])
    assert out.entries == {(0, 0): Fraction(2), (1, 1): Fraction(2)}
    assert weighted_cost([[0, 1], [1, 0]], out.entries) == 0


def test_cancel_cycles_properties_on_random_fractional_flows():
    rng = random.Random(21)
    for _ in range(25):
        n, m = rng.randint(2, 3), rng.randint(2, 3)
        inst = random_fct(rng, n, m, max_supply=5)
        weights = [
            [Fraction(rng.randint(0, 5)) for _ in range(m)] for _ in range(n)
        ]
        # Average two extreme points to get a feasible flow with cycles.
        one, _ = solve_transportation(inst, weights)
        other, _ = solve_transportation(
            inst, [[w + rng.randint(0, 2) for w in row] for row in weights]
        )
        mixed = {}
        for entries in (one.entries, other.entries):
            for edge, x in entries.items():
                mixed[edge] = mixed.get(edge, Fraction(0)) + x / 2
        flow = make_flow(mixed)
        out = cancel_cycles(flow, weights)
        assert is_forest(out.entries)
        assert out.row_sums(n) == flow.row_sums(n)
        assert out.col_sums(m) == flow.col_sums(m)
        assert weighted_cost(weights, out.entries) <= weighted_cost(
            weights, flow.entries
        )


def _averaged_flows():
    """Seeded (flow, weights) pairs: the average of two SSP solutions under
    weights in {0, 1}, so flows are fractional, supports have cycles and
    many cycles cost the same in both directions."""
    rng = random.Random(2031)
    for _ in range(150):
        n, m = rng.randint(2, 5), rng.randint(2, 6)
        inst = random_fct(rng, n, m, max_supply=6)
        weights = [[Fraction(rng.randint(0, 1)) for _ in range(m)] for _ in range(n)]
        one, _ = solve_transportation(inst, weights)
        other, _ = solve_transportation(
            inst, [[w + rng.randint(0, 3) for w in row] for row in weights]
        )
        mixed = {}
        for entries in (one.entries, other.entries):
            for edge, x in entries.items():
                mixed[edge] = mixed.get(edge, Fraction(0)) + x / 2
        yield make_flow(mixed), weights


def test_cancel_cycles_output_pinned():
    # Recorded before cycle cancelling moved onto walk_support: any change
    # in which cycle is found first, in the tie rule or in the entry order
    # changes this digest.
    digest = hashlib.sha256()
    cyclic = 0
    for flow, weights in _averaged_flows():
        out = cancel_cycles(flow, weights)
        cyclic += out.entries != flow.entries
        digest.update(repr(list(out.entries.items())).encode() + b"\n")
    assert cyclic >= 100
    assert digest.hexdigest() == "12fe7c8c48f3f9f336cae7695f32eca70133e94d4ff967e5b68630ad09ddff8f"
