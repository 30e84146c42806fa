"""The (6/5 + eps)-approximation for pure uniform fixed charge transportation.

With unit fixed costs and no linear costs, the problem is equivalent to
partitioning sources and sinks into as many balanced sets as possible (a set
is balanced when its supply equals its demand inside the set); a partition
with q parts costs m + n - q.  A vertex set is an int bitmask throughout:
source i is bit i and sink j is bit n + j.  The solver extracts matched
supply/demand pairs, enumerates the balanced sets of size at most 5 once,
packs the size <= k ones for k in {3, 4, 5} (exactly, or by bounded-swap
local search), and keeps the best k.

The worst-case ratio of this scheme is certified by a small factor-revealing
LP whose exact optimum is 6/5; :func:`verify_factor_revealing_certificate`
checks the primal and dual solutions in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CertificateError, FctpError, GuardError, VariantError
from .model import (
    FlowSolution,
    Instance,
    classify_variant,
    signed_weights,
    two_pointer_steps,
    uniform_pure_instance,
)

# Most size-k vertex subsets, C(vertices, k), enumerate_balanced_sets walks.
MAX_ENUMERATED_SETS = 10**7

# Most size-3..p outsider combinations local_search_packing may have to
# scan, counted as sum over s of C(family size, s); above it the search
# refuses with GuardError instead of running for minutes or hours.
MAX_SWAP_COMBOS = 10**7

# exact_packing's memo states per call (memory; never reached at <= 20
# vertices, as states are vertex subsets) and DP steps per solve_pfct_u
# (time; a state may scan hundreds of sets).
MAX_PACKING_STATES = 1 << 20
MAX_PACKING_STEPS = 5 * 10**7


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


@dataclass(frozen=True)
class PackingInstance:
    """k-set packing instance: balanced vertex sets as bitmasks over
    `vertices` vertices."""

    vertices: int
    family: tuple[int, ...]


@dataclass(frozen=True)
class LpCertificate:
    primal: dict[str, Fraction]
    dual: dict[str, Fraction]
    value: Fraction


def preprocess_matched_pairs(inst: Instance) -> tuple[list[int], Instance | None]:
    """Extract {source, sink} pairs with a_i == b_j, smallest value first.

    Putting a matched pair in its own part never changes the optimal
    partition size (the two parts can be swapped back), so the residual
    instance is equivalent and has no i, j with a_i == b_j.  Pairs are
    vertex masks in the original instance's numbering.  The residual is
    None when every vertex is paired.
    """
    tag = classify_variant(inst)
    if not (tag.pure and tag.uniform):
        raise VariantError("requires PFCT-U")
    used_src: set[int] = set()
    used_snk: set[int] = set()
    candidates = sorted(
        (inst.supplies[i], i, j)
        for i in range(inst.n)
        for j in range(inst.m)
        if inst.supplies[i] == inst.demands[j]
    )
    pairs = []
    for _, i, j in candidates:
        if i in used_src or j in used_snk:
            continue
        used_src.add(i)
        used_snk.add(j)
        pairs.append(1 << i | 1 << (inst.n + j))
    keep_src = [i for i in range(inst.n) if i not in used_src]
    keep_snk = [j for j in range(inst.m) if j not in used_snk]
    if not keep_src:  # the unpaired sides balance, so keep_snk is empty too
        return pairs, None
    # PFCT-U: the residual has f == 1 and c == 0 too.
    residual = uniform_pure_instance(
        [inst.supplies[i] for i in keep_src], [inst.demands[j] for j in keep_snk]
    )
    return pairs, residual


def enumerate_balanced_sets(inst: Instance, k: int) -> PackingInstance:
    """All balanced vertex sets of size 3..k, in canonical (size, lex) order.

    All-source or all-sink subsets cannot be balanced (weights are positive),
    so every family member mixes both sides.  Size-2 sets are assumed to have
    been removed by :func:`preprocess_matched_pairs`.
    """
    if not 3 <= k <= 6:
        raise FctpError("k must be between 3 and 6")
    weights = signed_weights(inst)
    vertices = len(weights)
    if vertices >= k and comb(vertices, k) > MAX_ENUMERATED_SETS:
        raise GuardError("instance too large for enumeration")
    family = []
    for size in range(3, k + 1):
        for combo in itertools.combinations(range(vertices), size):
            if sum(weights[v] for v in combo) == 0:
                family.append(_mask(combo))
    return PackingInstance(vertices=vertices, family=tuple(family))


def local_search_packing(pk: PackingInstance, swap_size: int) -> list[int]:
    """Bounded-swap local search: grow a packing until no <=p-for-(<p) swap helps.

    Deterministic first-improvement scans in the canonical family order.
    This replaces the (k+1+eps)/3 packing subroutine from the literature;
    with swap_size p the packing cannot be improved by inserting up to p
    mutually disjoint sets at the price of removing the fewer chosen sets
    they hit.  The packing is kept maximal after every step, which makes
    size-1 improvements pure insertions and lets size-2 improvements be
    found by grouping outsiders by their unique conflicting chosen set.
    Returns the chosen sets in family order.
    """
    if swap_size < 1:
        raise FctpError("swap size must be >= 1")
    masks = pk.family
    # comb(len(masks), s) is 0 for s past the family size.
    largest_swap = min(swap_size, len(masks))
    combos = sum(comb(len(masks), s) for s in range(3, largest_swap + 1))
    if combos > MAX_SWAP_COMBOS:
        raise GuardError(
            f"swap size {swap_size} on {len(masks)} sets needs {combos} combinations"
            f" > {MAX_SWAP_COMBOS}"
        )
    chosen: list[int] = []
    used = 0

    def extend_maximally() -> None:
        nonlocal used
        for idx in range(len(masks)):
            if idx not in chosen and not masks[idx] & used:
                chosen.append(idx)
                used |= masks[idx]
        chosen.sort()

    def swap(removed: list[int], added) -> None:
        nonlocal used
        for idx in removed:
            chosen.remove(idx)
            used ^= masks[idx]
        for idx in added:
            chosen.append(idx)
            used |= masks[idx]
        extend_maximally()

    extend_maximally()
    improved = True
    while improved:
        improved = False
        # Size-2 swaps: under maximality, an improving pair must consist of
        # two disjoint outsiders that each conflict with the same single
        # chosen set.
        if swap_size >= 2:
            by_conflict: dict[int, list[int]] = {}
            for idx in range(len(masks)):
                if idx in chosen:
                    continue
                hits = [c for c in chosen if masks[c] & masks[idx]]
                if len(hits) == 1:
                    by_conflict.setdefault(hits[0], []).append(idx)
            for conflict in sorted(by_conflict):
                group = by_conflict[conflict]
                found = None
                for a_pos, a in enumerate(group):
                    for b in group[a_pos + 1 :]:
                        if not masks[a] & masks[b]:
                            found = (a, b)
                            break
                    if found:
                        break
                if found:
                    swap([conflict], found)
                    improved = True
                    break
        # Generic scan for larger swaps, bounded by MAX_SWAP_COMBOS above.
        if swap_size >= 3 and not improved:
            outside = [idx for idx in range(len(masks)) if idx not in chosen]
            for s in range(3, largest_swap + 1):
                for combo in itertools.combinations(outside, s):
                    union = 0
                    disjoint = True
                    for idx in combo:
                        if masks[idx] & union:
                            disjoint = False
                            break
                        union |= masks[idx]
                    if not disjoint:
                        continue
                    conflicts = [c for c in chosen if masks[c] & union]
                    if len(conflicts) < s:
                        swap(conflicts, combo)
                        improved = True
                        break
                if improved:
                    break
    return [masks[idx] for idx in chosen]


def exact_packing(pk: PackingInstance, spent: list[int] | None = None) -> list[int]:
    """Maximum-cardinality disjoint subfamily by a memoized subset DP over
    the available vertices; returns the chosen sets in family order.

    Each state is the set of vertices still free: its lowest vertex is left
    out, or covered by one of the sets whose lowest vertex it is.  Creating
    a state costs one step plus one per such set; above MAX_PACKING_STATES
    states or MAX_PACKING_STEPS steps the DP refuses with GuardError.  Calls
    that share one step budget pass one list spent = [steps so far]: the
    DP counts on from spent[0] and leaves its total there.
    """
    masks = pk.family
    by_low: dict[int, list[int]] = {}
    for idx, mask in enumerate(masks):
        by_low.setdefault(mask & -mask, []).append(idx)
    memo: dict[int, tuple[int, int | None]] = {0: (0, None)}
    steps = spent[0] if spent else 0

    def best(avail: int) -> int:
        nonlocal steps
        if avail in memo:
            return memo[avail][0]
        low = avail & -avail
        candidates = by_low.get(low, ())
        value, action = best(avail ^ low), None
        for idx in candidates:
            if masks[idx] & ~avail:
                continue
            cand = 1 + best(avail ^ masks[idx])
            if cand > value:
                value, action = cand, idx
        steps += 1 + len(candidates)
        if len(memo) >= MAX_PACKING_STATES:
            raise GuardError(
                f"exact packing needs more than {MAX_PACKING_STATES} DP states; try --mode ls"
            )
        if steps > MAX_PACKING_STEPS:
            raise GuardError(
                f"exact packing needs more than {MAX_PACKING_STEPS} DP steps; try --mode ls"
            )
        memo[avail] = (value, action)
        return value

    avail = (1 << pk.vertices) - 1
    try:
        best(avail)
    finally:
        del best  # a self-referencing closure: free the memo now, not at the next GC
    if spent:
        spent[0] = steps
    chosen = []
    while avail:
        value, action = memo[avail]
        if action is None:
            avail ^= avail & -avail
        else:
            chosen.append(action)
            avail ^= masks[action]
    return [masks[idx] for idx in sorted(chosen)]


def _two_pointer_fill(inst: Instance, mask: int):
    """Route supplies to demands inside one part by the two-pointer sweep.

    Returns [(sub_mask, edges)] components: where a step empties a supply
    and a demand together, the next step advances both pointers and the
    part splits there, which only ever adds parts (and so lowers the cost).
    Packed sets of size <= 5 from a pair-free residual never split; only
    the remainder part can.
    """
    n = inst.n
    sources = list(_bits(mask & ((1 << n) - 1)))
    sinks = list(_bits(mask >> n))
    steps = two_pointer_steps(
        [inst.supplies[i] for i in sources], [inst.demands[j] for j in sinks]
    )
    cuts = [
        k for k in range(1, len(steps))
        if steps[k - 1][0] < steps[k][0] and steps[k - 1][1] < steps[k][1]
    ]
    components = []
    for lo, hi in zip([0] + cuts, cuts + [len(steps)]):
        (p0, q0, _), (p1, q1, _) = steps[lo], steps[hi - 1]
        edges = [(sources[p], sinks[q], amount) for p, q, amount in steps[lo:hi]]
        sub_mask = _mask(sources[p0 : p1 + 1]) | _mask(sinks[q0 : q1 + 1]) << n
        components.append((sub_mask, edges))
    return components


def solve_pfct_u(
    inst: Instance, mode: str = "exact", swap_size: int = 2
) -> tuple[tuple[int, ...], FlowSolution]:
    """Best balanced partition over k in {3, 4, 5}, plus its routed flow.

    The parts are vertex masks (source i is bit i, sink j is bit n + j);
    the partition costs n + m - len(parts).  mode "exact" packs with the
    subset DP of exact_packing (keeps the full 6/5 guarantee, refuses past
    its state bound at one k or its step bound over all three); mode "ls"
    uses bounded-swap local search with the given swap size.  The balanced
    sets are enumerated once, for k = 5: the family is in (size, lex) order,
    so the family for a smaller k is a prefix of it.  The remainder of the
    residual after packing forms one extra part (split further if the
    routing disconnects it; both only lower the cost).
    """
    if mode not in ("exact", "ls"):
        raise FctpError(f"unknown mode {mode!r}")
    pairs, residual = preprocess_matched_pairs(inst)

    best_parts: list[int] = []
    if residual:
        full = enumerate_balanced_sets(residual, 5)
        everyone = (1 << full.vertices) - 1
        spent = [0]  # the three exact packings share one step budget
        for k in (3, 4, 5):
            size = sum(1 for mask in full.family if mask.bit_count() <= k)
            pk = PackingInstance(vertices=full.vertices, family=full.family[:size])
            if mode == "exact":
                chosen = exact_packing(pk, spent)
            else:
                chosen = local_search_packing(pk, swap_size)
            # Packed sets are disjoint, so their sum is their union.
            leftover = everyone ^ sum(chosen)
            parts = chosen + [leftover] if leftover else chosen
            if len(parts) > len(best_parts):
                best_parts = parts

    # Residual vertex v is the v-th vertex no pair took.  Each part, pairs
    # first, is swept once: its components are the final parts, and their
    # edges, sum(|part| - 1) per part, the flow.
    kept = list(_bits(((1 << (inst.n + inst.m)) - 1) ^ sum(pairs)))
    parts, entries = [], {}
    for original in pairs + [_mask(kept[v] for v in _bits(part)) for part in best_parts]:
        for sub_mask, edges in _two_pointer_fill(inst, original):
            parts.append(sub_mask)
            for i, j, amount in edges:
                entries[(i, j)] = Fraction(amount)
    return tuple(parts), FlowSolution(entries=entries)


# ---------------------------------------------------------------------------
# Factor-revealing LP certificate.

_PRIMAL = {
    "x3": Fraction(4, 15),
    "x4": Fraction(1, 15),
    "x5": Fraction(1, 15),
    "x6": Fraction(0),
    "z": Fraction(7, 5),
    "r": Fraction(6, 5),
}
_DUAL = {
    "alpha": Fraction(6, 5),
    "beta": Fraction(1, 5),
    "y3": Fraction(4, 15),
    "y4": Fraction(1, 3),
    "y5": Fraction(2, 5),
}
_VALUE = Fraction(6, 5)


def verify_factor_revealing_certificate(
    primal: dict | None = None, dual: dict | None = None
) -> LpCertificate:
    """Exact primal/dual certificate that the factor-revealing LP equals 6/5.

    The LP maximizes r subject to
        (2)  z - (x3 + x4 + x5 + x6)  = 1
        (3)  3 x3 + 4 x4 + 5 x5 + 6 x6 - z <= 0
        (4)  r - (z - 3/4 x3) <= 0
        (5)  r - (z - 3/5 (x3 + x4)) <= 0
        (6)  r - (z - 1/2 (x3 + x4 + x5)) <= 0
        (7)  x3, x4, x5, x6, z >= 0
    The dual argument combines (4), (5), (6) with weights y3, y4, y5 summing
    to one, then rewrites the result as alpha * (2) - beta * (3) <= alpha.
    Custom primal/dual values may be passed in to exercise the failure paths;
    every violated check is reported.
    """
    p = dict(_PRIMAL)
    p.update(primal or {})
    d = dict(_DUAL)
    d.update(dual or {})
    p = {key: Fraction(value) for key, value in p.items()}
    d = {key: Fraction(value) for key, value in d.items()}
    x3, x4, x5, x6, z, r = (p[key] for key in ("x3", "x4", "x5", "x6", "z", "r"))
    alpha, beta, y3, y4, y5 = (
        d[key] for key in ("alpha", "beta", "y3", "y4", "y5")
    )
    problems: list[str] = []

    if z - (x3 + x4 + x5 + x6) != 1:
        problems.append("primal constraint (2): z - (x3+x4+x5+x6) != 1")
    if 3 * x3 + 4 * x4 + 5 * x5 + 6 * x6 - z > 0:
        problems.append("primal constraint (3): (3x3+4x4+5x5+6x6) - z > 0")
    if r - (z - Fraction(3, 4) * x3) > 0:
        problems.append("primal constraint (4): r > z - 3/4 x3")
    if r - (z - Fraction(3, 5) * (x3 + x4)) > 0:
        problems.append("primal constraint (5): r > z - 3/5 (x3+x4)")
    if r - (z - Fraction(1, 2) * (x3 + x4 + x5)) > 0:
        problems.append("primal constraint (6): r > z - 1/2 (x3+x4+x5)")
    if any(value < 0 for value in (x3, x4, x5, x6, z)):
        problems.append("primal constraint (7): nonnegativity violated")

    # Dual chain: r <= y3 (z - 3/4 x3) + y4 (z - 3/5 (x3+x4))
    #               + y5 (z - 1/2 (x3+x4+x5)) needs y >= 0 summing to 1.
    if any(value < 0 for value in (y3, y4, y5, beta)):
        problems.append("dual multipliers must be nonnegative")
    if y3 + y4 + y5 != 1:
        problems.append("dual chain: y3 + y4 + y5 != 1")
    # The combined inequality must equal alpha*(2) - beta*(3), coefficient
    # by coefficient in (z, x3, x4, x5, x6).
    coeff_checks = [
        ("z", y3 + y4 + y5, alpha - beta),
        (
            "x3",
            -(Fraction(3, 4) * y3 + Fraction(3, 5) * y4 + Fraction(1, 2) * y5),
            -alpha + 3 * beta,
        ),
        ("x4", -(Fraction(3, 5) * y4 + Fraction(1, 2) * y5), -alpha + 4 * beta),
        ("x5", -Fraction(1, 2) * y5, -alpha + 5 * beta),
        ("x6", Fraction(0), -alpha + 6 * beta),
    ]
    for name, lhs, rhs in coeff_checks:
        if lhs != rhs:
            problems.append(f"dual chain: {name} coefficient {lhs} != {rhs}")
    if alpha != _VALUE:
        problems.append(f"dual bound is {alpha}, expected {_VALUE}")
    if r != _VALUE:
        problems.append(f"primal objective is {r}, expected {_VALUE}")
    if problems:
        raise CertificateError("; ".join(problems))
    return LpCertificate(primal=p, dual=d, value=_VALUE)

