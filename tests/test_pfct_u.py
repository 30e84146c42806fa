import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from reference import validate_partition
from util import is_forest

from fctp import oracle
from fctp.errors import CertificateError, FctpError, GuardError, VariantError
from fctp.generators import random_pfct_u
from fctp.model import evaluate_cost, serialize_solution, validate_solution
from fctp.model import uniform_pure_instance
from fctp.pfct_u import (
    enumerate_balanced_sets,
    exact_packing,
    flow_within_balanced_sets,
    local_search_packing,
    PackingInstance,
    preprocess_matched_pairs,
    solve_pfct_u,
    verify_factor_revealing_certificate,
)


def keys(mask, n):
    """A vertex mask as [(side, index), ...] in ascending bit order: source
    i is bit i, sink j is bit n + j."""
    return [
        ("source", v) if v < n else ("sink", v - n)
        for v in range(mask.bit_length())
        if mask >> v & 1
    ]


def test_validate_partition_rejects_bad_parts():
    # Vertices: source 0 (3), source 1 (5), sink 0 (1), sink 1 (2), sink 2 (5).
    inst = uniform_pure_instance((3, 5), (1, 2, 5))
    assert validate_partition(inst, (0b01101, 0b10010)) is None
    assert validate_partition(inst, (0b00101, 0b11010)) == "part 0 is not balanced"
    assert validate_partition(inst, (0b01101, 0b11110)) == "part 1 overlaps an earlier part"
    assert validate_partition(inst, (0b01101,)) == "partition does not cover all sources and sinks"
    assert validate_partition(inst, (0b01101, 0, 0b10010)) == "part 1 is empty"
    assert validate_partition(inst, (0b01101, 0b110010)) == "part 1 has a vertex outside the instance"


def test_preprocess_extracts_matched_pair():
    inst = uniform_pure_instance((3, 5), (1, 2, 5))
    pairs, residual = preprocess_matched_pairs(inst)
    assert [keys(p, inst.n) for p in pairs] == [[("source", 1), ("sink", 2)]]
    assert residual.supplies == (3,)
    assert residual.demands == (1, 2)


def test_preprocess_trivial_pair():
    pairs, residual = preprocess_matched_pairs(uniform_pure_instance((2,), (2,)))
    assert [keys(p, 1) for p in pairs] == [[("source", 0), ("sink", 0)]]
    assert residual.n == 0 and residual.m == 0


def test_preprocess_no_pairs():
    inst = uniform_pure_instance((3,), (1, 2))
    pairs, residual = preprocess_matched_pairs(inst)
    assert pairs == []
    assert residual == inst


def test_preprocess_smallest_value_first():
    inst = uniform_pure_instance((4, 2, 2), (2, 4, 2))
    pairs, residual = preprocess_matched_pairs(inst)
    assert [keys(p, inst.n) for p in pairs] == [
        [("source", 1), ("sink", 0)],
        [("source", 2), ("sink", 2)],
        [("source", 0), ("sink", 1)],
    ]
    assert residual.n == 0


def test_preprocess_keeps_optimum_partition_count():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_pfct_u(rng, rng.randint(2, 10), max_supply=6)
        pairs, residual = preprocess_matched_pairs(inst)
        full, _ = oracle.exact_balanced_partition(inst)
        if residual.n:
            rest, _ = oracle.exact_balanced_partition(residual)
        else:
            rest = 0
        assert full == rest + len(pairs)


def test_enumerate_balanced_sets_examples():
    pk = enumerate_balanced_sets(uniform_pure_instance((3,), (1, 2)), 3)
    assert [keys(b, 1) for b in pk.family] == [
        [("source", 0), ("sink", 0), ("sink", 1)]
    ]
    assert enumerate_balanced_sets(
        uniform_pure_instance((2, 2), (1, 3)), 3
    ).family == ()
    pk4 = enumerate_balanced_sets(uniform_pure_instance((2, 2), (1, 3)), 4)
    assert [keys(b, 2) for b in pk4.family] == [
        [("source", 0), ("source", 1), ("sink", 0), ("sink", 1)]
    ]


def test_enumerate_guard(monkeypatch):
    inst = uniform_pure_instance((1,) * 12, (1,) * 12)
    monkeypatch.setattr("fctp.pfct_u.MAX_ENUMERATED_SETS", 10)
    with pytest.raises(GuardError, match="too large for enumeration"):
        enumerate_balanced_sets(inst, 5)


def _abc_packing():
    # Elements 1..6 with weights making {1,2,3}, {3,4,5}, {4,5,6} balanced:
    # 1 and 4 are sources of supply 2 (bits 0 and 1), 2, 3, 5 and 6 sinks of
    # demand 1 (bits 2 to 5).
    e1, e4, e2, e3, e5, e6 = (1 << v for v in range(6))
    family = (e1 | e2 | e3, e3 | e4 | e5, e4 | e5 | e6)
    return PackingInstance(vertices=6, family=family)


def test_local_search_abc_example():
    pk = _abc_packing()
    chosen = local_search_packing(pk, 2)
    assert len(chosen) == 2
    assert chosen == [pk.family[0], pk.family[2]]


def test_local_search_degenerate_families():
    pk = PackingInstance(vertices=0, family=())
    assert local_search_packing(pk, 2) == []
    inst = uniform_pure_instance((3, 3), (1, 2, 1, 2))
    pk = enumerate_balanced_sets(inst, 3)
    assert len(pk.family) == 8  # each source pairs any 1-sink with any 2-sink
    chosen = local_search_packing(pk, 2)
    assert len(chosen) == 2  # all sources used by two disjoint triples


def test_local_search_swap_guard():
    # 60 disjoint sets: swaps of size 3..5 count 5 983 367 combinations, under
    # MAX_SWAP_COMBOS; size 6 adds 50 063 860 and is refused before any scan.
    pk = PackingInstance(vertices=60, family=tuple(1 << v for v in range(60)))
    assert len(local_search_packing(pk, 5)) == 60
    with pytest.raises(GuardError, match="56047227 combinations > 10000000"):
        local_search_packing(pk, 6)
    # Swap sizes past the family size add nothing to scan or to count.
    pk = _abc_packing()
    assert local_search_packing(pk, 10**18) == [pk.family[0], pk.family[2]]


def test_local_search_takes_disjoint_family_entirely():
    inst = uniform_pure_instance((3, 3, 3), (1, 2, 1, 2, 1, 2))
    pk = enumerate_balanced_sets(inst, 3)
    chosen = local_search_packing(pk, 2)
    assert len(chosen) == 3
    assert sum(chosen) == (1 << 9) - 1  # disjoint and covering


def test_exact_packing_examples():
    pk = _abc_packing()
    assert len(exact_packing(pk)) == 2
    assert exact_packing(PackingInstance(vertices=0, family=())) == []
    single = PackingInstance(vertices=6, family=_abc_packing().family[:1])
    assert len(exact_packing(single)) == 1


def _wide_packing(rng, sets):
    """21 vertices, past the subset DP, and `sets` random balanced triples:
    7 sources of supply 2 (bits 0 to 6) and 14 sinks of demand 1 (bits 7 to 20)."""
    triples = set()
    while len(triples) < sets:
        triples.add((rng.randrange(7),) + tuple(sorted(rng.sample(range(14), 2))))
    family = tuple(1 << i | 1 << (7 + j) | 1 << (7 + k) for i, j, k in sorted(triples))
    return PackingInstance(vertices=21, family=family)


def _disjoint(masks):
    union = 0
    for mask in masks:
        if mask & union:
            return False
        union |= mask
    return True


def test_exact_packing_branch_and_bound_matches_brute_force():
    rng = random.Random(47)
    for _ in range(5):
        pk = _wide_packing(rng, 12)
        best = max(
            size
            for size in range(len(pk.family) + 1)
            for subset in itertools.combinations(pk.family, size)
            if _disjoint(subset)
        )
        chosen = exact_packing(pk)
        assert _disjoint(chosen)
        assert len(chosen) == best


def test_exact_packing_guard_past_the_subset_dp():
    with pytest.raises(GuardError, match="too large for exact mode"):
        exact_packing(_wide_packing(random.Random(53), 26))


def test_local_search_vs_exact_quality():
    rng = random.Random(43)
    for _ in range(30):
        inst = random_pfct_u(rng, rng.randint(3, 12), max_supply=6)
        _, residual = preprocess_matched_pairs(inst)
        if not residual.n:
            continue
        for k in (3, 4, 5):
            pk = enumerate_balanced_sets(residual, k)
            ls = local_search_packing(pk, 2)
            ex = exact_packing(pk)
            assert 2 * len(ls) >= len(ex)


def test_solve_pfct_u_examples():
    inst = uniform_pure_instance((3, 5), (1, 2, 5))
    parts, flow = solve_pfct_u(inst)
    assert sorted(sorted(keys(p, inst.n)) for p in parts) == [
        [("sink", 0), ("sink", 1), ("source", 0)],
        [("sink", 2), ("source", 1)],
    ]
    assert evaluate_cost(inst, flow) == inst.n + inst.m - len(parts) == 3

    parts, flow = solve_pfct_u(uniform_pure_instance((2,), (2,)))
    assert parts == (0b11,)

    parts, flow = solve_pfct_u(uniform_pure_instance((7,), (1, 2, 4)))
    assert parts == (0b1111,)


def test_solve_pfct_u_requires_variant():
    from fctp.model import pure_instance

    with pytest.raises(VariantError, match="requires PFCT-U"):
        solve_pfct_u(pure_instance((2,), (2,), [[3]]))


def test_solve_pfct_u_invariants():
    rng = random.Random(47)
    for _ in range(30):
        inst = random_pfct_u(rng, rng.randint(2, 12), max_supply=8)
        parts, flow = solve_pfct_u(inst)
        assert validate_partition(inst, parts) is None
        assert validate_solution(inst, flow) is None
        assert is_forest(flow.entries)
        # Edge-count identity: |support| + |parts| == m + n.
        cost = inst.n + inst.m - len(parts)
        assert len(flow.entries) == cost
        assert evaluate_cost(inst, flow) == cost
        # 6/5 bound in exact mode, exact rational comparison.
        count, _ = oracle.exact_balanced_partition(inst)
        opt_cost = inst.n + inst.m - count
        assert 5 * cost <= 6 * opt_cost


def _pfct_u_pinned_cases():
    """Seeded PFCT-U instances up to n + m = 11, plus three whose remainder
    part the routing splits (its sweep runs out of supply and demand at
    once mid-way): alone, around a matched pair, and next to a packed set."""
    rng = random.Random(2024)
    for _ in range(60):
        yield random_pfct_u(rng, rng.randint(2, 11), max_supply=rng.choice((3, 6, 10)))
    yield uniform_pure_instance((5,) * 6, (3,) * 10)
    yield uniform_pure_instance((5, 5, 7, 5, 5, 5, 5), (3, 3, 3, 7) + (3,) * 7)
    yield uniform_pure_instance(
        (5, 5, 100, 5, 5, 101, 5, 5), (3, 50) + (3,) * 6 + (151, 3, 3, 3)
    )


def test_pfct_u_output_pinned():
    # Recorded before the solver's own routing loop was replaced by
    # flow_within_balanced_sets: any change in the parts, their order or
    # the routed flow changes this digest.
    digest = hashlib.sha256()
    for inst in _pfct_u_pinned_cases():
        for mode, swap in (("exact", 2), ("ls", 1), ("ls", 2), ("ls", 3)):
            parts, flow = solve_pfct_u(inst, mode=mode, swap_size=swap)
            digest.update(repr([keys(p, inst.n) for p in parts]).encode() + b"\n")
            digest.update(serialize_solution(flow).encode())
    assert digest.hexdigest() == "78211d938d8ccbac3171f98b51e187ce832747501c1da5ee2fca4dd1b4e9b262"


def test_flow_within_balanced_sets_examples():
    flow = flow_within_balanced_sets(uniform_pure_instance((3,), (1, 2)), (0b111,))
    assert flow.entries == {(0, 0): Fraction(1), (0, 1): Fraction(2)}

    flow = flow_within_balanced_sets(uniform_pure_instance((2, 2), (1, 3)), (0b1111,))
    assert flow.entries == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 1): Fraction(2),
    }

    # Only the given part is routed: source 2 (bit 2) and sink 1 (bit 4).
    inst = uniform_pure_instance((1, 1, 4), (2, 4))
    flow = flow_within_balanced_sets(inst, (1 << 2 | 1 << 4,))
    assert flow.entries == {(2, 1): Fraction(4)}


def test_certificate_nominal():
    cert = verify_factor_revealing_certificate()
    assert cert.value == Fraction(6, 5)
    assert cert.primal["x3"] == Fraction(4, 15)
    assert cert.dual["y5"] == Fraction(2, 5)
    # Deterministic: a second run returns the same object values.
    assert verify_factor_revealing_certificate() == cert


def test_certificate_rejects_perturbed_primal():
    with pytest.raises(CertificateError) as info:
        verify_factor_revealing_certificate(primal={"x3": Fraction(1, 3)})
    assert "(3x3+4x4+5x5+6x6) - z > 0" in str(info.value)


def test_certificate_rejects_perturbed_dual():
    bad_y3 = Fraction(9, 10) - Fraction(1, 3) - Fraction(2, 5)
    with pytest.raises(CertificateError) as info:
        verify_factor_revealing_certificate(dual={"y3": bad_y3})
    assert "y3 + y4 + y5 != 1" in str(info.value)
    with pytest.raises(CertificateError, match="coefficient"):
        verify_factor_revealing_certificate(dual={"beta": Fraction(1, 4)})


def test_solve_pfct_u_rejects_unbalanced_instance():
    # Routing would serve sink 1 only and leave sink 2 empty.
    with pytest.raises(FctpError, match=r"sum\(a\) != sum\(b\)"):
        solve_pfct_u(uniform_pure_instance((2,), (2, 3)))
    with pytest.raises(FctpError, match="invalid instance: a_1 not positive"):
        solve_pfct_u(uniform_pure_instance((0, 2), (2,)))
