import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from reference import bicriteria_weights, ptas_full_walk, restricted_lp_value
from util import is_forest, raises_instance_error

from fctp import oracle
from fctp.errors import FctpError, GuardError, InfeasibleError, VariantError
from fctp.generators import generate, random_pure
from fctp.model import (
    INF,
    evaluate_cost,
    make_instance,
    pure_instance,
    serialize_solution,
    subset_sums,
    validate_solution,
)
from fctp.ptas import _Guesses, candidate_sizes, forest_combinations, ptas_solve
from fctp.transport import feasible as transport_feasible
from fctp.transport import int_transportation, solve_transportation


def test_single_source_forced_support():
    inst = pure_instance((6,), (1, 2, 3), [[4, 5, 6]])
    sol = ptas_solve(inst, Fraction(1, 2))
    assert evaluate_cost(inst, sol) == 15  # must reach every sink
    assert oracle.exact_fct(inst)[0] == 15


def test_small_instances_hit_the_optimum():
    # n=2, m<=4, eps=1/2: the guess budget covers the whole optimal support.
    rng = random.Random(61)
    for _ in range(12):
        inst = random_pure(rng, 2, rng.randint(1, 4), max_supply=6)
        sol = ptas_solve(inst, Fraction(1, 2))
        assert evaluate_cost(inst, sol) == oracle.exact_fct(inst)[0]


def test_adversarial_square_returns_optimum():
    inst = pure_instance((2, 2), (2, 2), [[100, 1], [1, 100]])
    sol = ptas_solve(inst, Fraction(1, 2))
    assert evaluate_cost(inst, sol) == 2


def test_ratio_on_random_instances():
    rng = random.Random(67)
    for _ in range(15):
        inst = random_pure(rng, rng.randint(1, 3), rng.randint(1, 5), max_supply=6)
        sol = ptas_solve(inst, Fraction(1, 2))
        assert validate_solution(inst, sol) is None
        cost = evaluate_cost(inst, sol)
        opt, _ = oracle.exact_fct(inst)
        assert 2 * cost <= 3 * opt
        # Forest output: at most 2n partially filled sink edges.
        assert is_forest(sol.entries)
        partial = sum(
            1 for (i, j), x in sol.entries.items() if 0 < x < inst.demands[j]
        )
        assert partial <= 2 * inst.n


def test_correct_guess_lp_value_bounds_optimum():
    rng = random.Random(71)
    for _ in range(10):
        inst = random_pure(rng, rng.randint(1, 3), rng.randint(1, 4), max_supply=5)
        opt, opt_flow = oracle.exact_fct(inst)
        support = sorted(
            opt_flow.entries,
            key=lambda e: (-inst.fixed[e[0]][e[1]], e),
        )
        budget = max(candidate_sizes(inst, Fraction(1, 2)))
        guess = tuple(sorted(support[: min(budget, len(support))]))
        assert restricted_lp_value(inst, guess) <= opt


def test_epsilon_must_be_unit_fraction():
    inst = pure_instance((1,), (1,), [[1]])
    with pytest.raises(FctpError, match="1/epsilon"):
        ptas_solve(inst, Fraction(2, 5))
    with pytest.raises(FctpError, match="positive"):
        ptas_solve(inst, 0)
    # Only ints and Fractions: a float would become its binary expansion,
    # 0.1 = 3602879701896397/2**55.
    for bad in ("x", None, 0.1, 0.5, True):
        with pytest.raises(FctpError, match="epsilon must be an int or a Fraction"):
            ptas_solve(inst, bad)
    assert ptas_solve(inst, 1).entries == {(0, 0): 1}


def test_requires_pure_instance():
    inst = make_instance((1,), (1,), [[1]], [[2]])
    with pytest.raises(VariantError, match="requires PFCT"):
        ptas_solve(inst, Fraction(1, 2))


def test_unbalanced_instance_rejected():
    with raises_instance_error("sum(a) != sum(b)"):
        ptas_solve(pure_instance((3,), (1, 1), [[1, 1]]), Fraction(1, 2))


def test_negative_fixed_cost_refused_before_guard_and_guesses(monkeypatch):
    # Guesses bypass solve_transportation's sign check; the instance refuses
    # itself when built, so a zero guard and a core that must not run never
    # come into play.
    def no_transport(*args):
        raise AssertionError("a refused instance reached transport")

    monkeypatch.setattr("fctp.ptas.int_transportation", no_transport)
    monkeypatch.setattr("fctp.ptas.MAX_CANDIDATES", 0)
    with raises_instance_error("f_1,1 negative"):
        ptas_solve(make_instance([2, 2], [2, 2], [[-1, 3], [2, 1]], [[0, 0], [0, 0]]), Fraction(1, 2))


def test_blocked_instance_is_infeasible():
    # Balanced and every node has an edge, but source 1 ships 2 and reaches
    # only sink 1, which takes 1.
    inst = make_instance((2, 1), (1, 2), [[1, 1], [1, 1]], [[0, INF], [0, 0]])
    with pytest.raises(InfeasibleError, match="no feasible transportation"):
        ptas_solve(inst, Fraction(1, 2))


def _cheapest_edge_bound(guesses, edges, combo):
    """The larger of the sums over sinks and over sources of the cheapest
    fixed cost a guess allows there: the bound before the cover tables."""
    fixed = guesses.fixed
    threshold = min((fixed[i][j] for i, j in combo), default=None)
    allowed = [e for e in edges if threshold is None or fixed[e[0]][e[1]] <= threshold]
    allowed += combo
    sinks = {j: min(fixed[i][j] for i, k in allowed if k == j) for _, j in allowed}
    sources = {i: min(fixed[i][j] for k, j in allowed if k == i) for i, _ in allowed}
    return max(sum(sinks.values()), sum(sources.values()))


def test_pruning_predicates_agree_with_transport():
    # Random guesses on random allowed-edge sets, with n <= m and n > m: the
    # Gale check says infeasible exactly when the transport core raises on
    # the level's weights (None on a forbidden edge), and the lower bound
    # never exceeds the cost of the flow it returns, nor falls below the
    # cheapest-edge bound it replaced.  Each level lists exactly the source
    # sets S with a(S) > b(N(S)), with N(S) and the deficit, so the list is
    # empty exactly when its edges pass transport.feasible, and fits, which
    # reads only that list, agrees with transport.feasible on the level's
    # edges plus the guess's.  Guesses are rejected both for adding no sink
    # to a failing set and for adding too little demand.
    rng = random.Random(83)
    seen = {True: 0, False: 0}
    tighter = 0
    rejected = {"no sink": 0, "short": 0}
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        base = random_pure(rng, n, m, max_supply=6, max_fixed=4)
        fixed = [
            [Fraction(rng.randint(0, 8), rng.choice((1, 2, 3))) for _ in range(m)]
            for _ in range(n)
        ]
        linear = [[INF if rng.random() < 0.3 else 0 for _ in range(m)] for _ in range(n)]
        inst = make_instance(base.supplies, base.demands, fixed, linear)
        guesses = _Guesses(inst)
        supply_sums = subset_sums(inst.supplies)
        edges = sorted(inst.edges())
        for _ in range(6):
            combo = tuple(sorted(rng.sample(edges, rng.randint(0, len(edges)))))
            threshold = min((guesses.fixed[i][j] for i, j in combo), default=None)
            level = guesses.level(threshold)
            level_masks = [0] * n
            for i, j in edges:
                if threshold is None or guesses.fixed[i][j] <= threshold:
                    level_masks[i] |= 1 << j
            want = []
            for s in range(1, 1 << n):
                sinks = 0
                for i in range(n):
                    if s >> i & 1:
                        sinks |= level_masks[i]
                demand = sum(b for j, b in enumerate(inst.demands) if sinks >> j & 1)
                short = supply_sums[s] - demand
                if short > 0:
                    want.append((s, sinks, short))
            assert level.deficits == tuple(want)
            assert (not level.deficits) == transport_feasible(
                supply_sums, inst.demands, level_masks
            )
            masks = list(level_masks)
            for i, j in combo:
                masks[i] |= 1 << j
            fits = guesses.fits(level, combo)
            assert fits == transport_feasible(supply_sums, inst.demands, masks)
            if not fits:
                no_sink = any(
                    all(not (s >> i & 1) or reach >> j & 1 for i, j in combo)
                    for s, reach, _ in level.deficits
                )
                rejected["no sink" if no_sink else "short"] += 1
            assert fits or level.deficits
            seen[fits] += 1
            try:
                flow = int_transportation(
                    inst.supplies, inst.demands, guesses.weights(level, combo)
                )
            except InfeasibleError:
                assert not fits
                continue
            assert fits
            cost = sum(guesses.fixed[i][j] for i, j in flow)
            old_bound = _cheapest_edge_bound(guesses, edges, combo)
            bound = guesses.lower_bound(level, combo)
            assert old_bound <= bound <= cost
            tighter += bound > old_bound
    assert min(seen.values()) >= 100
    assert tighter >= 50
    assert min(rejected.values()) >= 100, rejected


def test_cover_tables_are_least_covering_sets():
    # Seeded instances with forbidden edges, zero-heavy and fractional fixed
    # costs: cover[j] holds one entry per set of sink j's allowed sources,
    # each the brute-force least fixed cost over its subsets that cover b_j.
    rng = random.Random(89)
    covered = {True: 0, False: 0}
    for k in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        base = random_pure(rng, n, m, max_supply=6, max_fixed=2)
        den = rng.choice((1, 2, 3))
        fixed = [[Fraction(rng.randint(0, 6), den) for _ in range(m)] for _ in range(n)]
        linear = [[INF if rng.random() < 0.3 else 0 for _ in range(m)] for _ in range(n)]
        inst = make_instance(base.supplies, base.demands, fixed, linear)
        guesses = _Guesses(inst)
        for j, table in enumerate(guesses.cover):
            allowed = [i for i in range(n) if linear[i][j] is not INF]
            sets = [
                subset
                for r in range(len(allowed) + 1)
                for subset in itertools.combinations(allowed, r)
            ]
            assert sorted(table) == sorted(sum(1 << i for i in s) for s in sets)
            for s in sets:
                costs = [
                    sum(guesses.fixed[i][j] for i in t)
                    for t in sets
                    if set(t) <= set(s) and sum(inst.supplies[i] for i in t) >= inst.demands[j]
                ]
                want = min(costs) if costs else None
                assert table[sum(1 << i for i in s)] == want, (k, j, s)
                assert (want is None) == (sum(inst.supplies[i] for i in s) < inst.demands[j])
                covered[want is not None] += 1
    assert min(covered.values()) >= 100, covered


def test_isolated_vertex_refused_before_any_table(monkeypatch):
    # A source or sink with no allowed edge makes the instance infeasible.
    # The guard's count passes such an instance (one edge gives two guesses),
    # so ptas_solve must refuse it before the 2^n subset sums: at n = 40
    # they would never fit in memory.
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr("fctp.ptas.subset_sums", no_table)
    monkeypatch.setattr("fctp.ptas.comb", no_table)
    # 40 sources of supply 1000 and one sink; only source 1 has an edge.
    inst = make_instance((1000,) * 40, (40000,), [[1]] * 40, [[0]] + [[INF]] * 39)
    start = time.perf_counter()
    with pytest.raises(InfeasibleError, match="no feasible transportation"):
        ptas_solve(inst, Fraction(1, 2))
    assert time.perf_counter() - start < 0.1
    # An isolated sink: sink 2 has no allowed edge.
    inst = make_instance((2, 2), (3, 1), [[1, 1], [1, 1]], [[0, INF], [0, INF]])
    with pytest.raises(InfeasibleError, match="no feasible transportation"):
        ptas_solve(inst, Fraction(1, 2))


def test_enumeration_guard(monkeypatch):
    inst = pure_instance((2, 2, 2), (2, 2, 2), [[1] * 3] * 3)
    monkeypatch.setattr("fctp.ptas.MAX_CANDIDATES", 3)
    with pytest.raises(GuardError, match="too large"):
        ptas_solve(inst, Fraction(1, 2))


def test_guard_counts_cyclic_subsets_before_any_transport_call(monkeypatch):
    # K3,3 at eps 1/2 guesses up to 5 edges: 382 subsets, 328 of them acyclic.
    # The guard counts all 382 before the walk, so one below that refuses the
    # instance although the walk would stay under it, and refuses it before
    # any guess reaches transport.
    inst = pure_instance((2, 2, 2), (2, 2, 2), [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    edges = sorted(inst.edges())
    sizes = candidate_sizes(inst, Fraction(1, 2))
    assert sum(1 for s in sizes for _ in forest_combinations(edges, 3, s)) == 328
    assert sum(1 for s in sizes for _ in itertools.combinations(edges, s)) == 382

    def no_transport(*args):
        raise AssertionError("a refused instance reached transport")

    monkeypatch.setattr("fctp.ptas.int_transportation", no_transport)
    monkeypatch.setattr("fctp.ptas.MAX_CANDIDATES", 381)
    with pytest.raises(GuardError, match="too large"):
        ptas_solve(inst, Fraction(1, 2))
    monkeypatch.setattr("fctp.ptas.MAX_CANDIDATES", 382)
    with pytest.raises(AssertionError, match="reached transport"):
        ptas_solve(inst, Fraction(1, 2))


def _is_forest_by_union_find(combo):
    parent = {}

    def root(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for i, j in combo:
        a, b = root(("source", i)), root(("sink", j))
        if a == b:
            return False
        parent[a] = b
    return True


def _checked_forest_count(edges, n, sizes):
    """Assert that the walk yields exactly the acyclic combinations of each
    size, in combinations order; return how many it yields in all."""
    count = 0
    for size in sizes:
        want = [c for c in itertools.combinations(edges, size) if _is_forest_by_union_find(c)]
        assert list(forest_combinations(edges, n, size)) == want, (edges, size)
        count += len(want)
    return count


def test_forest_walk_is_filtered_combinations():
    # Complete K_{n,m} up to 3 x 5, every size up to one past the largest
    # forest (n + m - 1 edges): each count is every acyclic guess on K_{n,m}.
    counts = {}
    for n in (1, 2, 3):
        for m in range(1, 6):
            edges = [(i, j) for i in range(n) for j in range(m)]
            counts[n, m] = _checked_forest_count(edges, n, range(n + m + 1))
    assert counts[3, 4] == 1856 and counts[3, 5] == 9984
    # Seeded instances with forbidden edges, over the sizes the PTAS guesses.
    rng = random.Random(97)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        base = random_pure(rng, n, m, max_supply=5)
        linear = [[INF if rng.random() < 0.3 else 0 for _ in range(m)] for _ in range(n)]
        inst = make_instance(base.supplies, base.demands, base.fixed, linear)
        eps = rng.choice((Fraction(1), Fraction(1, 2)))
        edges = sorted(inst.edges())
        _checked_forest_count(edges, n, candidate_sizes(inst, eps))


def _pinned_cases():
    """Seeded (instance, eps) pairs: pure shapes up to 3 x 4, forbidden edges
    (linear 0 / INF), fractional and zero-heavy fixed costs, 1 x m and n x 1,
    each under eps in {1, 1/2, 1/3}.  Few distinct costs keep ties common."""
    rng = random.Random(7331)
    shapes = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4)]
    shapes += [(1, 5), (1, 6), (4, 1), (5, 1)]
    for k, (n, m) in enumerate(shapes):
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            yield random_pure(rng, n, m, max_supply=6, max_fixed=9), eps
            base = random_pure(rng, n, m, max_supply=5, max_fixed=2)
            family = k % 3
            if family == 0:
                linear = [[INF if rng.random() < 0.3 else 0 for _ in range(m)] for _ in range(n)]
                yield make_instance(base.supplies, base.demands, base.fixed, linear), eps
            elif family == 1:
                fixed = [[Fraction(rng.randint(0, 12), 6) for _ in range(m)] for _ in range(n)]
                yield pure_instance(base.supplies, base.demands, fixed), eps
            else:
                yield base, eps


def test_ptas_output_pinned():
    # Recorded before the guess loop learned to skip guesses: any change in
    # which guess's flow wins a tie, or in its edge order, changes this digest.
    digest = hashlib.sha256()
    for inst, eps in _pinned_cases():
        try:
            flow = ptas_solve(inst, eps)
        except InfeasibleError:
            digest.update(b"infeasible\n")
            continue
        digest.update(serialize_solution(flow).encode())
        digest.update(repr(list(flow.entries)).encode() + b"\n")
    assert digest.hexdigest() == "945ba7e7ab354aa1d7e968c644a2df125cb54ed41b5011f2adbe317cfe6e24ef"


def test_transport_calls_pinned(monkeypatch):
    # Guesses that reach transport over the pinned cases.  The cheapest-edge
    # bound (per sink, the cheapest allowed edge) let 3707 through; the exact
    # per-sink cover bound lets 2913 through; the floor stop, which ends the
    # walk once the best cost meets a lower bound, lets 1767 through, each
    # floor's LP counted, all with the same output.
    calls = _counting_transport(monkeypatch)
    for inst, eps in _pinned_cases():
        try:
            ptas_solve(inst, eps)
        except InfeasibleError:
            pass
    assert calls[0] == 1767


def _counting_transport(monkeypatch):
    """Count the int core calls ptas_solve makes; returns the counter."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return int_transportation(*args)

    monkeypatch.setattr("fctp.ptas.int_transportation", counting)
    return calls


def _walk_cases():
    """Seeded (instance, eps) pairs: pure shapes up to 3 x 4 at eps 1 and 1/2,
    and 1 x 4 and 2 x 5 at eps 1, where 2n/eps < n + m - 1 caps the guesses;
    each drawn plain, with forbidden edges, and with forbidden edges and
    Fraction fixed costs.  The forbidden edges leave some draws infeasible."""
    rng = random.Random(4409)
    shapes = [(n, m, eps) for n in (1, 2, 3) for m in (1, 2, 3, 4) for eps in (1, Fraction(1, 2))]
    shapes += [(1, 4, 1), (2, 5, 1)] * 3
    for n, m, eps in shapes:
        for _ in range(2):
            base = random_pure(rng, n, m, max_supply=6, max_fixed=6)
            yield base, eps
            linear = [[INF if rng.random() < 0.25 else 0 for _ in range(m)] for _ in range(n)]
            yield make_instance(base.supplies, base.demands, base.fixed, linear), eps
            fixed = [[Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(m)]
                     for _ in range(n)]
            yield make_instance(base.supplies, base.demands, fixed, linear), eps


def test_floor_stop_keeps_the_full_walk_output(monkeypatch):
    # The floor stop ends the walk once the best cost meets a lower bound on
    # every flow's cost, so no later guess could have won: the flow, its
    # entry order, and every refusal and its message are the full walk's.
    # Both walks read fctp.ptas.forest_combinations, so one wrapper counts
    # the guesses each walks.
    walked = [0]

    def counting(*args):
        for combo in forest_combinations(*args):
            walked[0] += 1
            yield combo

    monkeypatch.setattr("fctp.ptas.forest_combinations", counting)
    # Outcomes: refused before the walk (an isolated vertex), found
    # infeasible by walking, stopped early, or walked to the end.
    outcomes = {"refused": 0, "infeasible": 0, "stopped": 0, "walked": 0}
    for inst, eps in _walk_cases():
        walked[0] = 0
        try:
            want = ptas_full_walk(inst, eps)
        except FctpError as exc:
            outcomes["infeasible" if walked[0] else "refused"] += 1
            with pytest.raises(type(exc)) as got:
                ptas_solve(inst, eps)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            continue
        full = walked[0]
        flow = ptas_solve(inst, eps)
        assert serialize_solution(flow) == serialize_solution(want)
        assert list(flow.entries) == list(want.entries)
        outcomes["stopped" if walked[0] < 2 * full else "walked"] += 1
    assert sum(outcomes.values()) >= 150
    assert min(outcomes.values()) >= 10, outcomes


def test_floor_never_exceeds_the_optimum():
    # Both parts of the floor, the cover bound with no guess and Balinski's
    # LP rounded up in scaled cost, on pure and forbidden-edge instances with
    # n + m <= 10.  The LP part equals the Fraction reference's, and each
    # part is the larger one on some draws.
    rng = random.Random(4421)
    tight, larger = {"cover": 0, "lp": 0}, {"cover": 0, "lp": 0}
    for k in range(90):
        n = rng.randint(1, 4)
        m = rng.randint(1, min(6, 10 - n))
        base = random_pure(rng, n, m, max_supply=6, max_fixed=9)
        if k % 2:
            linear = [[INF if rng.random() < 0.3 else 0 for _ in range(m)] for _ in range(n)]
            base = make_instance(base.supplies, base.demands, base.fixed, linear)
        guesses = _Guesses(base)
        top = guesses.level(None)
        if top.deficits:
            with pytest.raises(InfeasibleError):
                oracle.exact_fct(base)
            continue
        opt, _ = oracle.exact_fct(base)
        bounds = {"cover": guesses.lower_bound(top, ()), "lp": guesses.lp_floor()}
        _, value = solve_transportation(base, bicriteria_weights(base))
        assert bounds["lp"] == math.ceil(guesses.scale * value)
        for name, bound in bounds.items():
            assert bound <= guesses.scale * opt, (k, name)
            tight[name] += bound == guesses.scale * opt
        if bounds["cover"] != bounds["lp"]:
            larger[max(bounds, key=bounds.get)] += 1
    assert min(tight.values()) >= 5 and min(larger.values()) >= 5, (tight, larger)


def test_floor_stops_the_2x12_walk_at_once(monkeypatch):
    # At eps 1/2 these walks hold 936 885 guesses and took 5-18 s each; the
    # empty guess's flow meets the floor, so a solve makes at most two
    # transport calls, that guess's and the floor's LP.  The digest was
    # recorded on the full walk, before the stop.
    calls = _counting_transport(monkeypatch)
    digest = hashlib.sha256()
    for family in ("pure", "pfct-s"):
        for seed in range(3):
            before = calls[0]
            flow = ptas_solve(generate(family, 2, 12, seed), Fraction(1, 2))
            assert calls[0] - before <= 2, (family, seed)
            digest.update(serialize_solution(flow).encode())
            digest.update(repr(list(flow.entries)).encode() + b"\n")
    assert digest.hexdigest() == "f57fb6e7e123265896f8aa1e3efe9b3a792372f988a451e2688614f69033b5fb"
