import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from fctp import oracle
from fctp.errors import FctpError, GuardError
from fctp.model import INF, classify_variant, serialize_instance, validate_instance
from fctp.reductions import (
    default_delta,
    dst_to_pfct_digraph,
    make_digraph,
    make_dst,
    make_setcover,
    make_threedm,
    normalize_digraph,
    setcover_to_fct_s,
    split_digraph_to_bipartite,
    threedm_to_pfct_u,
    verify_h_independence,
)


def test_split_path_preserves_optimum():
    dg = make_digraph(
        ["s", "v", "t"], [("s", "v", 2), ("v", "t", 3)], {"s": 1}, {"t": 1}
    )
    inst = split_digraph_to_bipartite(dg)
    assert validate_instance(inst) is None
    assert classify_variant(inst).pure_modulo_forbidden
    assert oracle.exact_fct(inst)[0] == oracle.exact_pfct_digraph(dg) == 5


def test_split_already_bipartite_digraph():
    dg = make_digraph(
        ["a", "b", "x", "y"],
        [("a", "x", 1), ("a", "y", 2), ("b", "y", 3)],
        {"a": 2, "b": 1},
        {"x": 1, "y": 2},
    )
    inst = split_digraph_to_bipartite(dg)
    # No internal vertices: the instance is the original bipartite graph
    # completed with forbidden edges.
    assert (inst.n, inst.m) == (2, 2)
    assert inst.linear[1][0] is INF
    assert oracle.exact_fct(inst)[0] == oracle.exact_pfct_digraph(dg)


def test_split_two_parallel_internal_vertices():
    dg = make_digraph(
        ["s", "u", "v", "t"],
        [("s", "u", 1), ("s", "v", 1), ("u", "t", 1), ("v", "t", 4)],
        {"s": 2},
        {"t": 2},
    )
    inst = split_digraph_to_bipartite(dg)
    assert oracle.exact_fct(inst)[0] == oracle.exact_pfct_digraph(dg) == 2


def test_normalize_pendants():
    dg = make_digraph(
        ["s", "t", "u"],
        [("u", "s", 1), ("s", "t", 2), ("t", "u", 3)],
        {"s": 1},
        {"t": 1},
    )
    norm = normalize_digraph(dg)
    sources = set(norm.supplies)
    sinks = set(norm.demands)
    heads = {v for _, v, _ in norm.edges}
    tails = {u for u, _, _ in norm.edges}
    assert not sources & heads
    assert not sinks & tails
    assert oracle.exact_pfct_digraph(norm) == oracle.exact_pfct_digraph(dg)


def test_digraph_source_equals_sink_rejected():
    with pytest.raises(FctpError, match="disjoint"):
        make_digraph(["a", "b"], [("a", "b", 1)], {"a": 1}, {"a": 1})
    # Both constructors refuse a bad edge with the same message.
    bad_edges = [
        ([("a", "x", 1)], r"edge \(a, x\) references unknown vertex"),
        ([("a", "a", 1)], "self-loops are not allowed"),
        ([("a", "b", 1), ("a", "b", 2)], r"duplicate edge \(a, b\)"),
        ([("a", "b", -1)], "edge costs must be nonnegative"),
    ]
    for edges, message in bad_edges:
        with pytest.raises(FctpError, match=message):
            make_digraph(["a", "b"], edges, {"a": 1}, {"b": 1})
        with pytest.raises(FctpError, match=message):
            make_dst(["a", "b"], edges, "a", ["b"])


TRIPLES = make_threedm(2, [(0, 0, 0), (1, 1, 1), (0, 1, 1)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_digraph(["a", "a"], [], {}, {}), "duplicate vertex ids"),
        (lambda: make_digraph(["a", "b"], [], {"a": 0}, {"b": 0}), "must be positive"),
        (lambda: make_digraph(["a", "b"], [], {"c": 1}, {"b": 1}), "sources and sinks must be vertices"),
        (lambda: make_digraph(["a", "b"], [], {"a": 2}, {"b": 1}), "total supply must equal total demand"),
        (lambda: make_dst(["r", "t"], [], "x", ["t"]), "root must be a vertex"),
        (lambda: make_dst(["r", "t"], [], "r", []), "need at least one terminal"),
        (lambda: make_dst(["r", "t"], [], "r", ["t", "t"]), "duplicate terminals"),
        (lambda: make_dst(["r", "t"], [], "r", ["r"]), "root cannot be a terminal"),
        (lambda: make_dst(["r", "t"], [], "r", ["x"]), "terminals must be vertices"),
        (lambda: make_setcover(0, [[0]]), "need at least one element"),
        (lambda: make_setcover(2, [[0, 2]]), "set member out of range"),
        (lambda: make_setcover(2, []), "need at least one set"),
        (lambda: make_threedm(0, []), "need n >= 1"),
        (lambda: make_threedm(2, [(0, 2, 0)]), "triple coordinate out of range"),
        (lambda: make_threedm(2, [(0, 1, 0), (0, 1, 0)]), "duplicate triples"),
        (lambda: threedm_to_pfct_u(TRIPLES, b_prime=0), "b_prime must be between 1 and 6"),
        (lambda: threedm_to_pfct_u(TRIPLES, delta=0), "delta must be positive"),
        # Every demand is 2, so no draw passes the independence check.
        (lambda: threedm_to_pfct_u(TRIPLES, delta=1), "could not draw independent demands"),
    ],
)
def test_constructors_and_arguments_refused(build, message):
    with pytest.raises(FctpError, match=message):
        build()


def test_dst_star():
    dst = make_dst(
        ["r", "t1", "t2"], [("r", "t1", 1), ("r", "t2", 1)], "r", ["t1", "t2"]
    )
    dg = dst_to_pfct_digraph(dst)
    assert dg.supplies == {"r": 2}
    assert dg.demands == {"t1": 1, "t2": 1}
    assert oracle.exact_pfct_digraph(dg) == oracle.exact_dst(dst) == 2


def test_dst_diamond_shares_the_stem():
    dst = make_dst(
        ["r", "u", "t1", "t2"],
        [("r", "u", 1), ("u", "t1", 1), ("u", "t2", 1)],
        "r",
        ["t1", "t2"],
    )
    dg = dst_to_pfct_digraph(dst)
    inst = split_digraph_to_bipartite(dg)
    assert (
        oracle.exact_dst(dst)
        == oracle.exact_pfct_digraph(dg)
        == oracle.exact_fct(inst)[0]
        == 3
    )


def test_dst_terminal_with_two_in_edges_gets_pendant():
    dst = make_dst(
        ["r", "u", "t"],
        [("r", "t", 5), ("r", "u", 1), ("u", "t", 1)],
        "r",
        ["t"],
    )
    dg = dst_to_pfct_digraph(dst)
    assert ("term", "t") in dg.demands
    assert oracle.exact_pfct_digraph(dg) == oracle.exact_dst(dst) == 2


def test_dst_unreachable_terminal():
    dst = make_dst(["r", "t"], [("t", "r", 1)], "r", ["t"])
    with pytest.raises(FctpError, match="infeasible DST"):
        dst_to_pfct_digraph(dst)


def test_setcover_example_instance():
    sc = make_setcover(2, [(0, 1), (1,)])
    inst = setcover_to_fct_s(sc)
    assert validate_instance(inst) is None
    tag = classify_variant(inst)
    assert tag.sink_independent and not tag.pure
    assert inst.supplies[0] == 2  # hub supply equals the element count
    assert oracle.exact_fct(inst)[0] == oracle.exact_min_dominating(sc) == 1


def test_setcover_single_set_covers_all():
    sc = make_setcover(3, [(0, 1, 2)])
    assert oracle.exact_fct(setcover_to_fct_s(sc))[0] == 1


def test_setcover_isolated_element_rejected():
    with pytest.raises(FctpError, match="no covering set"):
        setcover_to_fct_s(make_setcover(2, [(0,)]))


def test_setcover_equivalence_on_random_instances():
    rng = random.Random(73)
    for _ in range(12):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        sets = []
        for _ in range(m):
            members = [u for u in range(n) if rng.random() < 0.6]
            sets.append(tuple(members))
        covered = {u for s in sets for u in s}
        for u in range(n):
            if u not in covered:
                sets[rng.randrange(m)] = tuple(sorted(set(sets[rng.randrange(m)]) | {u}))
        covered = {u for s in sets for u in s}
        if covered != set(range(n)):
            sets[0] = tuple(range(n))
        sc = make_setcover(n, sets)
        inst = setcover_to_fct_s(sc)
        assert oracle.exact_fct(inst)[0] == oracle.exact_min_dominating(sc)


def test_verify_h_independence_examples(monkeypatch):
    assert verify_h_independence([2, 3], 1)
    assert not verify_h_independence([2, 2], 2)
    assert verify_h_independence([5, 7, 11], 2)
    monkeypatch.setattr("fctp.reductions.MAX_INDEPENDENCE_MULTISETS", 10)
    with pytest.raises(GuardError):
        verify_h_independence(list(range(1, 10)), 6)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _h_independent_enumerated(b, b_prime):
    """Reference: try every h with 1 <= |h|_1 <= b_prime, first sign fixed."""
    d = len(b)
    for s in range(1, min(b_prime, d) + 1):
        for support in itertools.combinations(range(d), s):
            for weight in range(s, b_prime + 1):
                for magnitudes in _compositions(weight, s):
                    for signs in itertools.product((1, -1), repeat=s - 1):
                        total = magnitudes[0] * b[support[0]]
                        for pos in range(1, s):
                            total += signs[pos - 1] * magnitudes[pos] * b[support[pos]]
                        if total == 0:
                            return False
    return True


def test_verify_h_independence_matches_enumeration():
    rng = random.Random(61)
    dependent = 0
    for _ in range(2000):
        d, b_prime = rng.randint(1, 7), rng.randint(1, 6)
        top = rng.choice([5, 20, 100, 1000])
        b = [rng.randint(1, top) for _ in range(d)]
        expected = _h_independent_enumerated(b, b_prime)
        assert verify_h_independence(b, b_prime) == expected, (b, b_prime)
        dependent += not expected
    assert dependent >= 600


def test_verify_h_independence_guards_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated past the guard")

    for name in ("combinations", "combinations_with_replacement", "product"):
        monkeypatch.setattr(itertools, name, no_enumeration)
    with pytest.raises(GuardError, match="too large to enumerate"):
        verify_h_independence(range(1, 123001), 6)
    # Sum over s = 1 .. 5 of C(63 + s - 1, s) is above 10^7: n = 21 at b_prime 6.
    with pytest.raises(GuardError):
        verify_h_independence(range(1, 64), 6)


def test_verify_h_independence_refuses_non_positive_demands():
    for b in ([3, 0], [-2, 5], [0]):
        with pytest.raises(FctpError, match="positive"):
            verify_h_independence(b, 3)


def test_threedm_generator_deterministic():
    tdm = make_threedm(2, [(0, 0, 0), (1, 1, 1), (0, 1, 1)])
    inst1, record1 = threedm_to_pfct_u(tdm, seed=5)
    inst2, record2 = threedm_to_pfct_u(tdm, seed=5)
    assert inst1 == inst2
    assert record1 == record2
    inst3, _ = threedm_to_pfct_u(tdm, seed=6)
    assert inst3 != inst1


def test_threedm_generated_instance_shape():
    tdm = make_threedm(2, [(0, 0, 0), (1, 1, 1), (0, 1, 1)])
    inst, record = threedm_to_pfct_u(tdm, seed=5)
    assert validate_instance(inst) is None
    tag = classify_variant(inst)
    assert tag.pure and tag.uniform
    assert inst.n == 3 and inst.m == 7  # triples, elements + dummy
    assert record["delta"] == default_delta(2, 6)
    assert verify_h_independence(record["element_demands"], 6)


def _threedm_pin_cases():
    rng = random.Random(101)
    for k in range(30):
        n = rng.randint(2, 4)
        b_prime = k % 6 + 1
        # Every element in some triple, plus extra triples, so the dummy is positive.
        perm = [rng.sample(range(n), n) for _ in range(3)]
        triples = set(zip(*perm))
        while len(triples) < n + rng.randint(1, 3):
            triples.add((rng.randrange(n), rng.randrange(n), rng.randrange(n)))
        # A delta far below the default, so that some draws fail the check.
        delta = rng.randint(1, 4) * (3 * n) ** (b_prime - 1)
        yield make_threedm(n, sorted(triples)), b_prime, delta, k


def test_threedm_output_pinned():
    # Recorded before verify_h_independence compared multiset sums: any
    # change in which draw is accepted changes the demands, the instance or
    # the draw count, and with it this digest.  Eight of the 30 inputs redraw.
    digest = hashlib.sha256()
    redrawn = 0
    for tdm, b_prime, delta, seed in _threedm_pin_cases():
        inst, record = threedm_to_pfct_u(tdm, delta=delta, seed=seed, b_prime=b_prime)
        redrawn += record["draws"] > 1
        digest.update(serialize_instance(inst).encode())
        digest.update(repr(sorted(record.items())).encode() + b"\n")
    assert redrawn == 8
    assert digest.hexdigest() == "ada4584a2fe98f30b22484677a326c3373df4c8fd24e363336d1c6b6b5428d75"


def test_threedm_rejects_degenerate_sizes():
    with pytest.raises(FctpError, match="need more triples"):
        threedm_to_pfct_u(make_threedm(1, [(0, 0, 0)]), seed=1)
    # A bare perfect matching has zero dummy demand.
    with pytest.raises(FctpError, match="need more triples"):
        threedm_to_pfct_u(make_threedm(2, [(0, 0, 0), (1, 1, 1)]), seed=1)


def test_threedm_small_balanced_sets_are_canonical():
    # With independence verified at b_prime = 6, any balanced set that skips
    # the dummy sink and has size <= 4 must be a canonical {i, j, k, ijk}.
    tdm = make_threedm(2, [(0, 0, 0), (1, 1, 1), (0, 1, 1)])
    inst, record = threedm_to_pfct_u(tdm, seed=5)
    n = tdm.n
    canonical = set()
    for s_idx, (x, y, z) in enumerate(tdm.triples):
        canonical.add(
            frozenset(
                [("source", s_idx), ("sink", x), ("sink", n + y), ("sink", 2 * n + z)]
            )
        )
    elements = [("source", i) for i in range(inst.n)] + [
        ("sink", j) for j in range(inst.m - 1)  # dummy excluded
    ]

    def weight(kind, idx):
        return inst.supplies[idx] if kind == "source" else -inst.demands[idx]

    for size in (2, 3, 4):
        for combo in itertools.combinations(elements, size):
            if sum(weight(*e) for e in combo) == 0:
                assert frozenset(combo) in canonical


def test_split_of_dst_instances_three_way():
    rng = random.Random(79)
    for _ in range(8):
        nv = rng.randint(3, 5)
        vertices = list(range(nv))
        edges = []
        for u in range(nv):
            for v in range(1, nv):
                if u != v and rng.random() < 0.5:
                    edges.append((u, v, Fraction(rng.randint(1, 5))))
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
        terminals = candidates[: rng.randint(1, min(2, len(candidates)))]
        dst = make_dst(vertices, edges, 0, terminals)
        dg = dst_to_pfct_digraph(dst)
        inst = split_digraph_to_bipartite(dg)
        a = oracle.exact_dst(dst)
        b = oracle.exact_pfct_digraph(dg)
        c = oracle.exact_fct(inst, guard=18)[0]
        assert a == b == c
