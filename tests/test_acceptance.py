"""Acceptance suite: one test per criterion, exact tolerances, seeded inputs.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  Every comparison is exact rational arithmetic (ratio bounds are
asserted by cross-multiplication, never floats); oracle costs come from the
brute-force oracle module.
"""

import itertools
import random
import time
from fractions import Fraction

from util import brute_force_opt, is_forest

from fctp import oracle
from fctp.bicriteria import cost_factor, solve_bicriteria
from fctp.cli import main
from fctp.fct_u import solve_fct_u
from fctp.generators import (
    random_fct,
    random_fct_u,
    random_pfct_s,
    random_pfct_u,
    random_pure,
)
from fctp.model import evaluate_cost, validate_solution
from fctp.pfct_s import greedy_solve, greedy_upper_bound, opt_lower_bound
from fctp.pfct_u import (
    enumerate_balanced_sets,
    exact_packing,
    local_search_packing,
    preprocess_matched_pairs,
    solve_pfct_u,
)
from fctp.ptas import ptas_solve
from fctp.reductions import (
    dst_to_pfct_digraph,
    make_dst,
    make_setcover,
    make_threedm,
    setcover_to_fct_s,
    split_digraph_to_bipartite,
    threedm_to_pfct_u,
    verify_h_independence,
)
from fctp.transport import solve_transportation


def _report(number: int, name: str, detail: str) -> None:
    print(f"criterion {number} ({name}): PASS — {detail}")


def test_criterion_1_factor_revealing_certificate(capsys):
    started = time.perf_counter()
    code = main(["certify", "lp65"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    assert code == 0
    assert "value: 6/5" in out
    assert "x3=4/15 x4=1/15 x5=1/15 x6=0 z=7/5 r=6/5" in out
    assert "alpha=6/5 beta=1/5 y3=4/15 y4=1/3 y5=2/5" in out
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "lp65 certificate", f"exact value 6/5 in {elapsed:.3f}s")


def test_criterion_2_pfct_s_two_approximation(capsys):
    started = time.perf_counter()
    checked = 0
    for seed in range(500):
        rng = random.Random(20_000 + seed)
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        inst = random_pfct_s(rng, n, m, max_supply=12, max_fixed=20)
        cost = evaluate_cost(inst, greedy_solve(inst))
        opt, _ = oracle.exact_fct(inst)
        lower = opt_lower_bound(inst)
        upper = greedy_upper_bound(inst)
        assert lower <= opt <= cost <= upper
        assert cost <= 2 * opt
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 500
    assert elapsed < 300
    with capsys.disabled():
        _report(
            2,
            "PFCT-S ratio <= 2 + sandwich",
            f"{checked} instances in {elapsed:.1f}s",
        )


def test_criterion_3_pfct_u_six_fifths(capsys):
    started = time.perf_counter()
    checked = 0
    for seed in range(300):
        rng = random.Random(30_000 + seed)
        inst = random_pfct_u(rng, rng.randint(2, 14), max_supply=10)
        part, flow = solve_pfct_u(inst, mode="exact")
        cost = evaluate_cost(inst, flow)
        count, _ = oracle.exact_balanced_partition(inst)
        opt = inst.n + inst.m - count
        assert 5 * cost <= 6 * opt
        assert validate_solution(inst, flow) is None
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 300
    assert elapsed < 600
    with capsys.disabled():
        _report(3, "PFCT-U exact-packing 6/5", f"{checked} instances in {elapsed:.1f}s")


def test_criterion_4_local_search_quality(capsys):
    checked = 0
    for seed in range(260):
        rng = random.Random(40_000 + seed)
        inst = random_pfct_u(rng, rng.randint(3, 13), max_supply=9)
        _, residual = preprocess_matched_pairs(inst)
        if not residual:
            continue
        for k in (3, 4, 5):
            pk = enumerate_balanced_sets(residual, k)
            ls = local_search_packing(pk, 2)
            best = exact_packing(pk)
            assert 2 * len(ls) >= len(best)
            checked += 1
    assert checked >= 300
    with capsys.disabled():
        _report(
            4,
            "local search >= half of exact",
            f"{checked} packing instances",
        )


def test_criterion_5_fct_u_two_approximation(capsys):
    sizes = [
        (n, m) for n in range(1, 7) for m in range(1, 7) if n * m <= 12
    ]
    checked = 0
    for seed in range(300):
        rng = random.Random(50_000 + seed)
        n, m = sizes[rng.randrange(len(sizes))]
        inst = random_fct_u(rng, n, m, max_supply=8, max_linear=6)
        sol = solve_fct_u(inst)
        assert validate_solution(inst, sol) is None
        assert is_forest(sol.entries)
        assert len(sol.entries) <= n + m - 1
        cost = evaluate_cost(inst, sol)
        opt, _ = oracle.exact_fct(inst)
        assert cost <= 2 * opt
        _, lin_opt = solve_transportation(inst, inst.linear)
        linear_part = sum(
            (inst.linear[i][j] * x for (i, j), x in sol.entries.items()),
            Fraction(0),
        )
        assert linear_part == lin_opt
        checked += 1
    assert checked >= 300
    with capsys.disabled():
        _report(5, "FCT-U ratio <= 2, forest, exact linear part", f"{checked} instances")


def test_criterion_6_bicriteria(capsys):
    checked = 0
    for seed in range(200):
        rng = random.Random(60_000 + seed)
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        inst = random_fct(rng, n, m, max_supply=9)
        opt, _ = oracle.exact_fct(inst)
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            flow, report = solve_bicriteria(inst, eps)
            cols = flow.col_sums(m)
            for j in range(m):
                b = inst.demands[j]
                assert (1 - eps) * b <= cols[j] <= (1 + eps) * b
            assert flow.row_sums(n) == [Fraction(a) for a in inst.supplies]
            assert report.actual_cost == evaluate_cost(inst, flow)
            assert report.actual_cost <= cost_factor(eps / 4) * report.lp_value
            assert report.lp_value <= opt
        checked += 1
    assert checked >= 200
    with capsys.disabled():
        _report(
            6,
            "bicriteria bands + K(eps/4) cost bound",
            f"{checked} instances x eps in {{1/4, 1/8}}",
        )


def test_criterion_7_ptas(capsys):
    checked = 0
    for seed in range(100):
        rng = random.Random(70_000 + seed)
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        inst = random_pure(rng, n, m, max_supply=9, max_fixed=12)
        sol = ptas_solve(inst, Fraction(1, 2))
        cost = evaluate_cost(inst, sol)
        opt, _ = oracle.exact_fct(inst)
        assert 2 * cost <= 3 * opt
        checked += 1
    assert checked >= 100
    with capsys.disabled():
        _report(7, "PTAS cost <= (3/2) opt at eps=1/2", f"{checked} instances")


def _structured_dst_instances():
    yield make_dst(["r", "a", "b"], [("r", "a", 1), ("r", "b", 1)], "r", ["a", "b"])
    yield make_dst(
        ["r", "u", "a", "b"],
        [("r", "u", 1), ("u", "a", 1), ("u", "b", 1)],
        "r",
        ["a", "b"],
    )
    yield make_dst(
        ["r", "u", "v", "a", "b", "c"],
        [
            ("r", "u", 2),
            ("r", "v", 1),
            ("u", "a", 1),
            ("u", "b", 3),
            ("v", "b", 1),
            ("v", "c", 1),
            ("u", "v", 1),
        ],
        "r",
        ["a", "b", "c"],
    )
    yield make_dst(
        ["r", "x", "y", "z", "a", "b", "c"],
        [
            ("r", "x", 1),
            ("x", "y", 1),
            ("y", "z", 1),
            ("z", "a", 1),
            ("y", "b", 2),
            ("x", "c", 3),
            ("r", "a", 9),
        ],
        "r",
        ["a", "b", "c"],
    )


def _random_dst_instances(count):
    produced = 0
    attempt = 0
    while produced < count:
        attempt += 1
        rng = random.Random(80_000 + attempt)
        nv = rng.randint(3, 6)
        vertices = list(range(nv))
        edges = []
        for u in range(nv):
            for v in range(1, nv):
                if u != v and rng.random() < 0.5:
                    edges.append((u, v, Fraction(rng.randint(0, 5))))
        reach = {0}
        changed = True
        while changed:
            changed = False
            for u, v, _ in edges:
                if u in reach and v not in reach:
                    reach.add(v)
                    changed = True
        candidates = sorted(reach - {0})
        if not candidates:
            continue
        terminals = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
        yield make_dst(vertices, edges, 0, terminals)
        produced += 1


def test_criterion_8a_dst_reduction_chain(capsys):
    checked = 0
    for dst in itertools.chain(_structured_dst_instances(), _random_dst_instances(35)):
        assert len(dst.vertices) <= 7
        dg = dst_to_pfct_digraph(dst)
        inst = split_digraph_to_bipartite(dg)
        a = oracle.exact_dst(dst)
        b = oracle.exact_pfct_digraph(dg, edge_guard=18)
        c = oracle.exact_fct(inst, guard=20)[0]
        assert a == b == c
        checked += 1
    with capsys.disabled():
        _report(
            8,
            "8a DST -> digraph -> bipartite equivalence",
            f"{checked} graphs with <= 7 vertices, three-way oracle equality",
        )


def _covering_families(num_sets, num_elements):
    """Every family of num_sets nonempty subsets covering all elements,
    deduplicated up to reordering the sets."""
    subsets = [
        tuple(sorted(s))
        for size in range(1, num_elements + 1)
        for s in itertools.combinations(range(num_elements), size)
    ]
    seen = set()
    for combo in itertools.product(subsets, repeat=num_sets):
        key = frozenset(combo)
        if key in seen:
            continue
        seen.add(key)
        covered = {u for s in combo for u in s}
        if covered == set(range(num_elements)):
            yield combo


def test_criterion_8b_setcover_reduction(capsys):
    checked = 0
    # Exhaustive sweep over the small corner of the family space
    # (deduplicated up to set reordering), then a seeded sample of the
    # larger shapes up to |V| = |U| = 4.
    for num_sets, num_elements in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
        for family in _covering_families(num_sets, num_elements):
            sc = make_setcover(num_elements, family)
            inst = setcover_to_fct_s(sc)
            assert oracle.exact_fct(inst, guard=16)[0] == oracle.exact_min_dominating(sc)
            checked += 1
    sampled = 0
    attempt = 0
    while sampled < 25:
        attempt += 1
        rng = random.Random(90_000 + attempt)
        num_sets, num_elements = rng.choice([(3, 4), (4, 2), (4, 3), (4, 4)])
        sets = []
        for _ in range(num_sets):
            members = tuple(u for u in range(num_elements) if rng.random() < 0.5)
            sets.append(members)
        if {u for s in sets for u in s} != set(range(num_elements)):
            continue
        if any(not s for s in sets):
            continue
        sc = make_setcover(num_elements, sets)
        inst = setcover_to_fct_s(sc)
        assert oracle.exact_fct(inst, guard=16)[0] == oracle.exact_min_dominating(sc)
        sampled += 1
    with capsys.disabled():
        _report(
            8,
            "8b set cover -> FCT-S equivalence",
            f"{checked} exhaustive + {sampled} sampled instances up to 4x4",
        )


def test_criterion_8c_threedm_reduction(capsys):
    cases = {
        2: [
            [(0, 0, 0), (1, 1, 1), (0, 1, 1)],
            [(0, 1, 0), (1, 0, 1), (1, 1, 0)],
        ],
        3: [
            [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2)],
            [(0, 2, 1), (1, 0, 2), (2, 1, 0), (0, 0, 0), (1, 2, 2)],
        ],
    }
    checked = 0
    for n, triple_lists in cases.items():
        for triples in triple_lists:
            tdm = make_threedm(n, triples)
            inst, record = threedm_to_pfct_u(tdm, seed=8_000 + checked, b_prime=6)
            assert verify_h_independence(record["element_demands"], 6)
            m = len(triples)
            count, _ = oracle.exact_balanced_partition(inst)
            assert inst.n + inst.m - count == 2 * n + m
            checked += 1
    with capsys.disabled():
        _report(
            8,
            "8c 3DM perfect matching -> PFCT-U",
            f"{checked} instances (n in {{2, 3}}), oracle cost == 2n + m",
        )


def test_criterion_9_oracle_self_consistency(capsys):
    agreements = 0
    for seed in range(40):
        rng = random.Random(95_000 + seed)
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        inst = random_fct(rng, n, m, max_supply=3, max_fixed=8, max_linear=4)
        opt, flow = oracle.exact_fct(inst)
        assert opt == brute_force_opt(inst)
        assert evaluate_cost(inst, flow) == opt
        agreements += 1
    partition_checks = 0
    for seed in range(30):
        rng = random.Random(96_000 + seed)
        inst = random_pfct_u(rng, rng.randint(2, 10), max_supply=7)
        count, _ = oracle.exact_balanced_partition(inst)
        opt, _ = oracle.exact_fct(inst)
        assert opt == inst.n + inst.m - count
        partition_checks += 1
    with capsys.disabled():
        _report(
            9,
            "oracle self-consistency",
            f"{agreements} dual-strategy agreements (nm <= 9), "
            f"{partition_checks} partition identities on pure-uniform",
        )
