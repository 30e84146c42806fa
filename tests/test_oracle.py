import ast
import hashlib
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from reference import exact_dst_by_edge_subsets, exact_fct_by_all_submasks, validate_partition
from util import brute_force_opt, is_forest

from fctp import oracle
from fctp.errors import FctpError, GuardError, InfeasibleError
from fctp.generators import (
    FAMILIES,
    random_fct,
    random_fct_u,
    random_pfct_s,
    random_pfct_u,
    random_pure,
    split_total,
)
from fctp.model import (
    INF,
    evaluate_cost,
    format_rational,
    make_instance,
    serialize_solution,
    signed_weights,
    subset_sums,
    uniform_pure_instance,
    validate_solution,
)
from fctp.reductions import (
    dst_to_pfct_digraph,
    make_digraph,
    make_dst,
    make_setcover,
    setcover_to_fct_s,
    split_digraph_to_bipartite,
)


def test_exact_fct_e1(e1):
    opt, flow = oracle.exact_fct(e1)
    assert opt == 28
    assert brute_force_opt(e1) == 28
    assert validate_solution(e1, flow) is None
    assert evaluate_cost(e1, flow) == 28


def test_exact_fct_trivial_1x1():
    inst = make_instance((3,), (3,), [[5]], [[Fraction(1, 2)]])
    opt, flow = oracle.exact_fct(inst)
    assert opt == 5 + Fraction(3, 2)
    assert flow.entries == {(0, 0): Fraction(3)}


def test_exact_fct_2x2_mixed_costs():
    inst = make_instance((2, 2), (3, 1), [[1, 1], [1, 1]], [[0, 1], [1, 0]])
    opt, _ = oracle.exact_fct(inst)
    assert opt == 4
    assert brute_force_opt(inst) == 4


def test_exact_fct_respects_forbidden_edges():
    inst = make_instance(
        (2, 2), (2, 2), [[0, 0], [0, 0]], [[0, INF], [INF, 0]]
    )
    opt, flow = oracle.exact_fct(inst)
    assert opt == 0
    assert set(flow.entries) == {(0, 0), (1, 1)}
    blocked = make_instance((1,), (1,), [[0]], [[INF]])
    with pytest.raises(InfeasibleError):
        oracle.exact_fct(blocked)
    assert brute_force_opt(blocked) is None


def test_exact_fct_guard():
    inst = uniform_pure_instance((1,) * 9, (1,) * 9)
    with pytest.raises(GuardError):
        oracle.exact_fct(inst, guard=16)
    wide = uniform_pure_instance((2,) + (1,) * 9, (1,) * 11)
    with pytest.raises(GuardError, match="memory ceiling"):
        oracle.exact_fct(wide, guard=64)


def test_strategies_agree_on_small_instances():
    rng = random.Random(23)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        inst = random_fct(rng, n, m, max_supply=3, max_fixed=6, max_linear=3)
        opt, flow = oracle.exact_fct(inst)
        assert opt == brute_force_opt(inst)
        assert validate_solution(inst, flow) is None
        assert evaluate_cost(inst, flow) == opt
        assert is_forest(flow.entries)


def _pinned_instances():
    """150 seeded instances, n + m from 2 to 12, with few distinct costs so
    that ties are common; fct gets sixths and forbidden edges."""
    rng = random.Random(2026)
    for k in range(150):
        total = 2 + k % 11
        n = rng.randint(1, total - 1)
        yield _pinned_instance(rng, k % 4, n, total - n)


def _pinned_instance(rng, family, n, m):
    if family == 0:
        return random_pfct_s(rng, n, m, max_supply=4, max_fixed=3)
    if family == 1:
        base = random_fct(rng, n, m, max_supply=4, max_fixed=3, max_linear=2)
        linear = [
            [INF if i and j and rng.random() < 0.25 else c / 3 for j, c in enumerate(row)]
            for i, row in enumerate(base.linear)
        ]
        return make_instance(base.supplies, base.demands, base.fixed, linear)
    if family == 2:
        return random_fct_u(rng, n, m, max_supply=4, max_linear=2, forbid_probability=0.3)
    return random_pure(rng, n, m, max_supply=4, max_fixed=2)


def test_exact_fct_output_pinned():
    # Recorded before the attaching-edge memo and the low-bit submask walk:
    # any change in which optimal forest exact_fct picks among ties, or in
    # the order it emits edges, changes this digest.
    digest = hashlib.sha256()
    for inst in _pinned_instances():
        try:
            cost, flow = oracle.exact_fct(inst)
        except InfeasibleError:
            digest.update(b"infeasible\n")
            continue
        digest.update(format_rational(cost).encode() + b"\n")
        digest.update(serialize_solution(flow).encode())
        digest.update(repr(list(flow.entries)).encode() + b"\n")
    assert digest.hexdigest() == "dca9a78dbd7233cd95dc090d5d3987687068f3511f2e7703e01d24facc2ab4f1"
    # Recorded before blocks were read from subset tables sorted by net, on
    # eight instances at n + m = 14 to 16.
    wide = hashlib.sha256()
    for inst in _wide_instances():
        cost, flow = oracle.exact_fct(inst)
        wide.update(format_rational(cost).encode() + b"\n")
        wide.update(serialize_solution(flow).encode())
        wide.update(repr(list(flow.entries)).encode() + b"\n")
    assert wide.hexdigest() == "5348e5332a55184cb77f929b6819fc6689323110c1b5f001de2798e8fcf49a68"


def _wide_instances():
    """Eight seeded instances at n + m = 14 to 16, 1 x m and n x 1 shapes
    among them, in the four families of _pinned_instance."""
    rng = random.Random(2050)
    shapes = ((1, 13), (13, 1), (2, 12), (3, 11), (4, 10), (7, 7), (1, 15), (15, 1))
    for k, (n, m) in enumerate(shapes):
        yield _pinned_instance(rng, k % 4, n, m)


def _differential_instances():
    """Seeded instances at n + m <= 10 from every generator family: 1 x m
    and n x 1 shapes, forbidden edges, allowed graphs split in two
    components, and all-zero or all-one fixed costs, which tie many
    forests."""
    rng = random.Random(2052)
    families = [FAMILIES[name] for name in sorted(FAMILIES)]
    for k in range(360):
        total = 2 + k % 9
        n = (1, total - 1, rng.randint(1, total - 1))[k // 9 % 3]
        m = total - n
        family = families[k % len(families)]
        variant = k // 27 % 4
        if variant == 2 and n > 1 and m > 1:
            # Two instances side by side, no allowed edge between them.
            n1, m1 = rng.randint(1, n - 1), rng.randint(1, m - 1)
            a = family(rng, n1, m1, max_supply=4)
            b = family(rng, n - n1, m - m1, max_supply=4)
            yield make_instance(
                a.supplies + b.supplies,
                a.demands + b.demands,
                [row + (0,) * b.m for row in a.fixed] + [(0,) * a.m + row for row in b.fixed],
                [row + (INF,) * b.m for row in a.linear]
                + [(INF,) * a.m + row for row in b.linear],
            )
            continue
        inst = family(rng, n, m, max_supply=4)
        if variant == 1:
            linear = [[INF if rng.random() < 0.2 else c for c in row] for row in inst.linear]
            inst = make_instance(inst.supplies, inst.demands, inst.fixed, linear)
        elif variant == 3:
            fixed = [[k % 2] * inst.m for _ in range(inst.n)]
            inst = make_instance(inst.supplies, inst.demands, fixed, inst.linear)
        yield inst


def test_exact_fct_matches_all_submask_walk():
    # The all-submask walk visits every split of a block's rest and every
    # attach cell; reading blocks by net must pick the same optimum, the
    # same forest among ties, and emit its edges in the same order.
    solved = refused = 0
    for inst in _differential_instances():
        try:
            expected_cost, expected = exact_fct_by_all_submasks(inst)
        except InfeasibleError:
            refused += 1
            with pytest.raises(InfeasibleError):
                oracle.exact_fct(inst)
            continue
        solved += 1
        cost, flow = oracle.exact_fct(inst)
        assert cost == expected_cost, inst
        assert list(flow.entries.items()) == list(expected.entries.items()), inst
    assert solved >= 250 and refused >= 20, (solved, refused)


def _sparse_instances():
    """Seeded instances at n + m <= 12 whose allowed-edge graph leaves most
    vertex sets unconnected: set cover chains from 3 x 4 and 4 x 2 set
    systems, DST chains, and 1 x m and n x 1 shapes, where a set of two or
    more vertices of one side is never connected."""
    rng = random.Random(2071)
    for k in range(30):
        num_sets, num_elements = ((3, 4), (4, 2))[k % 2]
        while True:
            sets = [
                tuple(u for u in range(num_elements) if rng.random() < 0.5) for _ in range(num_sets)
            ]
            if all(sets) and {u for s in sets for u in s} == set(range(num_elements)):
                break
        yield setcover_to_fct_s(make_setcover(num_elements, sets))
    produced = 0
    while produced < 30:
        nv = rng.randint(3, 6)
        edges = [
            (u, v, Fraction(rng.randint(0, 5)))
            for u in range(nv)
            for v in range(1, nv)
            if u != v and rng.random() < 0.5
        ]
        reach = {0}
        for _ in range(nv):
            reach |= {v for u, v, _ in edges if u in reach}
        candidates = sorted(reach - {0})
        if not candidates:
            continue
        terminals = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
        inst = split_digraph_to_bipartite(dst_to_pfct_digraph(make_dst(range(nv), edges, 0, terminals)))
        if inst.n + inst.m <= 12:
            produced += 1
            yield inst
    for total in range(3, 13):
        for family in range(4):
            yield _pinned_instance(rng, family, 1, total - 1)
            yield _pinned_instance(rng, family, total - 1, 1)


def test_exact_fct_matches_all_submask_walk_on_sparse_shapes():
    # Only connected blocks carry a tree, and a child block holding the
    # rest's lowest vertex lies in that vertex's component of the rest: on
    # these shapes most blocks are skipped by that rule, and the optimum,
    # the forest picked among ties and its edge order must not change.
    sizes = set()
    for inst in _sparse_instances():
        expected_cost, expected = exact_fct_by_all_submasks(inst)
        cost, flow = oracle.exact_fct(inst)
        assert cost == expected_cost, inst
        assert list(flow.entries.items()) == list(expected.entries.items()), inst
        sizes.add((inst.n, inst.m))
    assert {(4, 7), (5, 6), (1, 11), (11, 1)} <= sizes, sizes


def test_neighbourhoods_are_unions_of_adjacency():
    rng = random.Random(2072)
    for count in range(7):
        adj = [rng.randrange(1 << 8) for _ in range(count)]
        nbr = oracle._neighbourhoods(adj)
        assert len(nbr) == 1 << count
        for mask, union in enumerate(nbr):
            expected = 0
            for v in range(count):
                if mask >> v & 1:
                    expected |= adj[v]
            assert union == expected


def _window_instances():
    """200 seeded instances, n + m from 2 to 12: 1 x m and n x 1 shapes, one
    source holding most of the supply in every other instance, zero fixed or
    zero linear costs, and forbidden edges."""
    rng = random.Random(2044)
    for k in range(200):
        total = 2 + k % 11
        shape = k % 3
        n = 1 if shape == 0 else total - 1 if shape == 1 else rng.randint(1, total - 1)
        m = total - n
        if k % 2:
            supplies = [1] * n
            supplies[rng.randrange(n)] = m + rng.randint(2, 8)
        else:
            supplies = [rng.randint(1, 4) for _ in range(n)]
            supplies[-1] += max(0, m - sum(supplies))
        demands = split_total(rng, sum(supplies), m)
        zero = k // 2 % 4  # 1: every fixed cost 0, 2: every linear cost 0
        fixed = [[0 if zero == 1 else rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        linear = [
            [
                INF
                if n > 1 and m > 1 and rng.random() < 0.2
                else 0
                if zero == 2
                else Fraction(rng.randint(0, 4), 3)
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        yield make_instance(supplies, demands, fixed, linear)


def test_exact_fct_window_output_pinned():
    # Recorded before exact_fct skipped the rooted cells whose net lies
    # outside the root's window: any change in cost, in which optimal forest
    # is picked among ties, or in the order of its edges changes this digest.
    digest = hashlib.sha256()
    for inst in _window_instances():
        try:
            cost, flow = oracle.exact_fct(inst)
        except InfeasibleError:
            if inst.n * inst.m <= 9:
                assert brute_force_opt(inst) is None
            digest.update(b"infeasible\n")
            continue
        if inst.n * inst.m <= 9:
            assert cost == brute_force_opt(inst)
        digest.update(format_rational(cost).encode() + b"\n")
        digest.update(serialize_solution(flow).encode())
        digest.update(repr(list(flow.entries)).encode() + b"\n")
    assert digest.hexdigest() == "54d6052d2977ccbb09683f6dbdeda33c702f88cca195d10eb9afdfb8450a540c"


def test_sorted_subset_tables_stay_within_one_exact_fct_table():
    # The high part is sized before any table is filled: its 3^high
    # submasks and their nets fit in (n + m) * 2^(n + m) entries at every
    # n + m the subset DPs accept, and at least four vertices stay low.
    for total in range(2, oracle.MAX_SUBSET_VERTICES + 1):
        shift, tables, _ = oracle._subsets_by_net([], total)
        high = total - shift
        assert len(tables) == 1 << high
        assert 2 * 3**high <= total << total, total
        assert shift >= min(4, total), total


def test_exact_fct_memory_bounded_on_wide_shape():
    # 1 x 15 at guard 16, where tables over all sink subsets would hold 3^15
    # entries.  Every sorted table, filled in full, and the neighbourhood
    # table together take less memory than one of the h and choice tables
    # exact_fct allocates beside them.  (A whole exact_fct run under
    # tracemalloc takes about 50 times as long as without, too long for
    # this suite.)
    inst = random_pfct_s(random.Random(3), 1, 15, max_supply=6, max_fixed=5)
    total = inst.n + inst.m
    net = subset_sums(signed_weights(inst))
    # The source reaches every sink, as in exact_fct's adjacency masks.
    adj = [(1 << total) - 2] + [1] * inst.m
    h_table = sys.getsizeof([None] * (total << total))
    tracemalloc.start()
    try:
        shift, tables, fill = oracle._subsets_by_net(net, total)
        assert 2 * 3 ** (total - shift) <= total << total
        entries = 0
        for s in range(len(tables)):
            subs, nets = tables[s] or fill(s)
            entries += len(subs) + len(nets)
        nbr = oracle._neighbourhoods(adj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nbr) == 1 << total
    assert entries == 2 * 3 ** (total - shift)
    assert peak < h_table, (peak, h_table)
    for s in (0, 1, len(tables) - 1):
        subs, nets = tables[s]
        assert nets == sorted(nets) == [net[x] for x in subs]
        assert sorted(subs) == [x << shift for x in range(s + 1) if x & s == x]


def test_balanced_partition_examples():
    count, part = oracle.exact_balanced_partition(
        uniform_pure_instance((3, 5), (1, 2, 5))
    )
    assert count == 2
    inst = uniform_pure_instance((2,), (2,))
    assert oracle.exact_balanced_partition(inst)[0] == 1
    count, part = oracle.exact_balanced_partition(
        uniform_pure_instance((7,), (1, 2, 4))
    )
    assert count == 1
    assert validate_partition(uniform_pure_instance((7,), (1, 2, 4)), part) is None
    with pytest.raises(FctpError, match="invalid instance: a_1 not positive"):
        oracle.exact_balanced_partition(uniform_pure_instance((0, 2), (2,)))


def test_balanced_partition_matches_exact_fct_on_pure_uniform():
    rng = random.Random(29)
    for _ in range(25):
        inst = random_pfct_u(rng, rng.randint(2, 9), max_supply=6)
        count, part = oracle.exact_balanced_partition(inst)
        assert validate_partition(inst, part) is None
        opt, _ = oracle.exact_fct(inst)
        assert opt == inst.n + inst.m - count


def test_exact_fct_lower_bounds_every_solver():
    from fctp.fct_u import solve_fct_u
    from fctp.pfct_s import greedy_solve
    from fctp.pfct_u import solve_pfct_u

    rng = random.Random(31)
    for _ in range(10):
        inst = random_pfct_u(rng, rng.randint(2, 8), max_supply=5)
        opt, _ = oracle.exact_fct(inst)
        assert opt <= evaluate_cost(inst, solve_fct_u(inst))
        assert opt <= evaluate_cost(inst, greedy_solve(inst))
        _, flow = solve_pfct_u(inst)
        assert opt <= evaluate_cost(inst, flow)


def test_exact_dst_examples():
    star = make_dst(
        ["r", "t1", "t2"], [("r", "t1", 1), ("r", "t2", 1)], "r", ["t1", "t2"]
    )
    assert oracle.exact_dst(star) == 2
    diamond = make_dst(
        ["r", "u", "t1", "t2"],
        [("r", "u", 1), ("u", "t1", 1), ("u", "t2", 1)],
        "r",
        ["t1", "t2"],
    )
    assert oracle.exact_dst(diamond) == 3
    path = make_dst(
        ["r", "u", "t"], [("r", "u", 1), ("u", "t", 4)], "r", ["t"]
    )
    assert oracle.exact_dst(path) == 5


def test_exact_dst_strategies_agree_on_random_graphs():
    rng = random.Random(37)
    for _ in range(15):
        nv = rng.randint(3, 6)
        vertices = list(range(nv))
        edges = []
        for u in range(nv):
            for v in range(nv):
                if u != v and rng.random() < 0.45:
                    edges.append((u, v, Fraction(rng.randint(0, 6))))
        if not edges:
            continue
        reachable = {0}
        changed = True
        while changed:
            changed = False
            for u, v, _ in edges:
                if u in reachable and v not in reachable:
                    reachable.add(v)
                    changed = True
        candidates = sorted(reachable - {0})
        if not candidates:
            continue
        terminals = rng.sample(candidates, min(len(candidates), rng.randint(1, 3)))
        dst = make_dst(vertices, edges, 0, terminals)
        assert oracle.exact_dst(dst) == exact_dst_by_edge_subsets(dst)


def test_exact_dst_unreachable_terminal():
    dst = make_dst(["r", "t"], [("t", "r", 1)], "r", ["t"])
    with pytest.raises(InfeasibleError):
        oracle.exact_dst(dst)


def test_exact_pfct_digraph_matches_split_bipartite_optimum():
    # Seeded digraphs with 2-3 sources, sinks that may forward flow, and
    # draws with no feasible flow, where both oracles must refuse.
    rng = random.Random(29)
    feasible_draws = infeasible_draws = forwarding_sinks = 0
    for _ in range(40):
        # Four vertices split into at most 12, which keeps exact_fct quick.
        sources = rng.randint(2, 3)
        sinks = rng.randint(1, 4 - sources)
        vertices = list(range(4))
        supplies = [rng.randint(1, 3) for _ in range(sources)]
        demands = split_total(rng, sum(supplies), sinks)
        pairs = [(u, v) for u in vertices for v in vertices if u != v]
        edges = [
            (u, v, Fraction(rng.randint(0, 4), rng.randint(1, 2)))
            for u, v in rng.sample(pairs, rng.randint(3, 8))
        ]
        dg = make_digraph(
            vertices,
            edges,
            dict(zip(vertices, supplies)),
            dict(zip(vertices[sources:], demands)),
        )
        forwarding_sinks += any(u in dg.demands for u, _, _ in edges)
        try:
            expected = oracle.exact_fct(split_digraph_to_bipartite(dg))[0]
        except InfeasibleError:
            infeasible_draws += 1
            with pytest.raises(InfeasibleError, match="no feasible digraph flow"):
                oracle.exact_pfct_digraph(dg)
            continue
        feasible_draws += 1
        assert oracle.exact_pfct_digraph(dg) == expected, dg
    assert feasible_draws >= 10 and infeasible_draws >= 10, (feasible_draws, infeasible_draws)
    assert forwarding_sinks >= 10, forwarding_sinks


def test_exact_pfct_digraph_refuses_infeasible_without_subset_walk(monkeypatch):
    # Sink t has no incoming edge, so no subset of the 16 edges can feed it;
    # one feasibility test of the full edge set refuses the digraph.
    pairs = [(u, v) for u in range(6) for v in range(6) if u != v][:16]
    dg = make_digraph(
        [*range(6), "t"],
        [(u, v, 1 + (u + v) % 3) for u, v in pairs],
        {0: 2, 1: 1},
        {5: 1, "t": 2},
    )
    with pytest.raises(GuardError, match=r"too many edges \(16\) for subset enumeration"):
        oracle.exact_pfct_digraph(dg, edge_guard=15)
    calls = []
    real_feasible = oracle.feasible

    def counted(*args):
        calls.append(args)
        return real_feasible(*args)

    monkeypatch.setattr("fctp.oracle.feasible", counted)
    with pytest.raises(InfeasibleError, match="no feasible digraph flow"):
        oracle.exact_pfct_digraph(dg)
    assert len(calls) == 1
    # Without t the same edges feed sink 5; the subset walk then runs.
    feasible_dg = make_digraph(range(6), dg.edges, {0: 1}, {5: 1})
    assert oracle.exact_pfct_digraph(feasible_dg) == 3  # 0 -> 5, or 0 -> 1 -> 5
    assert len(calls) > 2


def test_exact_dst_guard():
    dst = make_dst(range(8), [(0, 1, 1)], 0, [1])
    with pytest.raises(GuardError):
        oracle.exact_dst(dst)


def test_exact_min_dominating_examples():
    sc = make_setcover(2, [(0, 1), (1,)])
    assert oracle.exact_min_dominating(sc) == 1
    assert oracle.exact_min_dominating(make_setcover(3, [(0, 1, 2)])) == 1
    disjoint = make_setcover(2, [(0,), (1,)])
    assert oracle.exact_min_dominating(disjoint) == 2
    uncovered = make_setcover(2, [(0,)])
    with pytest.raises(FctpError):
        oracle.exact_min_dominating(uncovered)
    too_many = make_setcover(1, [(0,)] * (oracle.MAX_DOMINATING_SETS + 1))
    with pytest.raises(GuardError, match="dominating guard exceeded: 13 sets > 12"):
        oracle.exact_min_dominating(too_many)


def test_partition_guard():
    inst = uniform_pure_instance((1,) * 9, (1,) * 9)
    with pytest.raises(GuardError):
        oracle.exact_balanced_partition(inst, guard=16)
    wide = uniform_pure_instance((2,) + (1,) * 9, (1,) * 11)
    with pytest.raises(GuardError, match="memory ceiling"):
        oracle.exact_balanced_partition(wide, guard=64)


def test_balanced_partition_output_pinned():
    # Recorded from the parts as vertex masks (source i is bit i, sink j is
    # bit n + j), and equal to the digest of the same masks built from the
    # element objects the oracle returned before: any change in which
    # maximum partition is picked among ties, or in the order of its parts,
    # changes this digest.
    rng = random.Random(2032)
    digest = hashlib.sha256()
    for k in range(120):
        inst = random_pfct_u(rng, 2 + k % 11, max_supply=3)
        count, blocks = oracle.exact_balanced_partition(inst)
        digest.update(f"{count} {blocks!r}\n".encode())
    assert digest.hexdigest() == "6c18621deb6557ffe6301f241baeb305f4aa11cacca9315ac4c4783b367b9dc5"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


def test_only_cli_imports_the_oracle():
    # The oracle is ground truth for the solvers, so no solver may lean on
    # it, at module level or inside a function.
    package = Path(__file__).resolve().parent.parent / "src" / "fctp"
    importers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem != "cli" and {"oracle", "fctp.oracle"} & set(_imported_modules(tree)):
            importers.append(path.stem)
    assert importers == []


SOLVER_MODULES = ("pfct_s", "pfct_u", "fct_u", "bicriteria", "ptas")


def test_only_cli_and_init_import_a_solver():
    # Models, generators, reductions, transport and the oracle sit below the
    # solvers, so none of them may import one, at module level or inside a
    # function; the solvers may not import each other either.
    package = Path(__file__).resolve().parent.parent / "src" / "fctp"
    solvers = {name for solver in SOLVER_MODULES for name in (solver, f"fctp.{solver}")}
    importers = []
    for path in sorted(package.glob("*.py")):
        if path.stem in ("cli", "__init__"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if solvers & set(_imported_modules(tree)):
            importers.append(path.stem)
    assert importers == []
