"""Exact brute-force solvers used as ground truth by every acceptance test.

exact_fct minimizes over all forest supports: optimal solutions live at
extreme points of the transportation polytope (cycle rotation never raises
the cost), every forest decomposes into trees spanning balanced blocks, and
the flow on a tree is forced by the marginals.  The search is organized as a
rooted-subtree DP over vertex subsets, restricted to blocks inside one
connected component of the allowed edges (found by transport.walk_support),
with a partition DP on top that exact_balanced_partition shares; costs are
integer-scaled internally (exact common-denominator scaling) to keep the hot
loop off Fraction arithmetic.

A tree on block mask rooted at v is a child subtree on sub, hung from v by
one edge, plus a smaller tree on mask ^ sub still rooted at v.  The cheapest
attaching edge depends only on (v, sub), so it is computed once, when the
trees on sub are finished, and kept in the cells of the same table where v is
not in the block; each split then costs two lookups.  Every split walk, here
and in exact_balanced_partition, visits only the sub-blocks holding the
block's lowest remaining vertex, so each unordered split is seen once.  Both
subset DPs refuse n + m above MAX_SUBSET_VERTICES whatever their guard.

A tree on mask rooted at v is computed only when net[mask] lies in v's
window, [0, a_v] at a source and [-b_v, 0] at a sink.  Above a source's
window no tree exists: its root hangs only deficit-or-zero subtrees.  Below
it a tree is never used: it cannot be hung from a parent (a deficit block
hangs from its sinks) or close a block (its net is not zero), and a tree
that extends it stays below the window.  Sinks are the mirror image, so the
window changes no cost and no choice.

Guards are hard errors, never silent truncation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import FctpError, GuardError, InfeasibleError
from .model import (
    FlowSolution,
    Instance,
    check_balanced,
    check_instance,
    integer_scaled,
    signed_weights,
    subset_sums,
)
from .reductions import DigraphInstance, DstInstance, SetCoverInstance, reachable
from .transport import feasible, walk_support


# Largest n + m the subset DPs accept, whatever guard a caller passes:
# exact_fct allocates (n + m) * 2^(n + m) slots per table, about 170 MB
# each at 20.
MAX_SUBSET_VERTICES = 20

# Most vertices exact_dst and most sets exact_min_dominating accept.
MAX_DST_VERTICES = 7
MAX_DOMINATING_SETS = 12


def _check_subset_guard(name: str, total_vertices: int, guard: int) -> None:
    if total_vertices > guard:
        raise GuardError(f"{name} guard exceeded: n + m = {total_vertices} > {guard}")
    if total_vertices > MAX_SUBSET_VERTICES:
        raise GuardError(
            f"{name} memory ceiling exceeded: n + m = {total_vertices} > {MAX_SUBSET_VERTICES}"
        )


def exact_fct(inst: Instance, guard: int = 16) -> tuple[Fraction, FlowSolution]:
    """Exact optimum cost and an optimal solution; guard bounds n + m."""
    check_instance(inst)
    n, m = inst.n, inst.m
    total_vertices = n + m
    _check_subset_guard("exact_fct", total_vertices, guard)

    scale, (fix, lin) = integer_scaled(inst.fixed, inst.linear)

    values = signed_weights(inst)
    size = 1 << total_vertices
    net = subset_sums(values)
    src_mask = (1 << n) - 1
    # The window of nets a tree rooted at v can use: [0, a_v] at a source,
    # [-b_v, 0] at a sink.
    low_net = [0 if v < n else values[v] for v in range(total_vertices)]
    high_net = [values[v] if v < n else 0 for v in range(total_vertices)]

    adj = [0] * total_vertices
    allowed = []
    for i in range(n):
        for j in range(m):
            if lin[i][j] is not None:
                adj[i] |= 1 << (n + j)
                adj[n + j] |= 1 << i
                allowed.append((i, j))

    # Connected component of each vertex in the allowed-edge graph, one per
    # root of the walk; a block spanning two components can never carry a
    # tree.
    parents, _ = walk_support(n, allowed)
    roots: dict[int, int] = {}
    comp = [1 << v for v in range(total_vertices)]
    for v, parent in parents.items():
        roots[v] = v if parent is None else roots[parent]
        comp[roots[v]] |= 1 << v
    for v, root in roots.items():
        comp[v] = comp[root]

    # h[v][mask] and choice[v][mask] hold two kinds of cell, told apart by
    # whether v is in mask.  For v in mask: the cheapest tree spanning mask
    # rooted at v, and the sub-block its last child subtree spans.  For v not
    # in mask: the cheapest tree spanning mask hung from v by one edge
    # (v, u), and the lowest such u.  Each kind is written once, when mask is
    # reached, so the subtree loop reads an attaching cost in O(1).
    h = [[None] * size for _ in range(total_vertices)]
    choice = [[None] * size for _ in range(total_vertices)]
    g_val = [None] * size
    g_root = [None] * size

    for mask in range(1, size):
        nets = net[mask]
        rooted = 0
        probe = mask
        while probe:
            v_bit = probe & -probe
            probe ^= v_bit
            v = v_bit.bit_length() - 1
            if mask == v_bit:
                h[v][mask] = 0
                rooted |= v_bit
                continue
            if mask & ~comp[v] or not low_net[v] <= nets <= high_net[v]:
                continue
            rest = mask ^ v_bit
            if not adj[v] & rest:
                continue
            # Only sub-blocks holding rest's lowest vertex: each split of
            # rest into child subtrees is then reached once.
            low = rest & -rest
            others = rest ^ low
            h_v = h[v]
            best = None
            best_sub = None
            part = others
            while True:
                sub = part | low
                attach = h_v[sub]
                if attach is not None:
                    remainder = h_v[mask ^ sub]
                    if remainder is not None:
                        total = remainder + attach
                        if best is None or total < best:
                            best = total
                            best_sub = sub
                if not part:
                    break
                part = (part - 1) & others
            if best is not None:
                h_v[mask] = best
                choice[v][mask] = best_sub
                rooted |= v_bit

        # Attaching costs of the finished block: edge (v, u) carries
        # |net[mask]| out of a surplus block, so u must then be a source,
        # and into a deficit block, so u must then be a sink.
        if nets > 0:
            roots = rooted & src_mask
            amount = nets
        elif nets < 0:
            roots = rooted & ~src_mask
            amount = -nets
        else:
            roots = rooted
            amount = 0
        outside = 0
        probe = roots
        while probe:
            u_bit = probe & -probe
            probe ^= u_bit
            outside |= adj[u_bit.bit_length() - 1]
        outside &= ~mask
        while outside:
            v_bit = outside & -outside
            outside ^= v_bit
            v = v_bit.bit_length() - 1
            best = None
            best_u = None
            candidates = roots & adj[v]
            while candidates:
                u_bit = candidates & -candidates
                candidates ^= u_bit
                u = u_bit.bit_length() - 1
                if u < n:
                    i, j = u, v - n
                else:
                    i, j = v, u - n
                total = h[u][mask] + fix[i][j] + lin[i][j] * amount
                if best is None or total < best:
                    best = total
                    best_u = u
            h[v][mask] = best
            choice[v][mask] = best_u

        if nets == 0:
            probe = rooted
            while probe:
                v_bit = probe & -probe
                probe ^= v_bit
                v = v_bit.bit_length() - 1
                cand = h[v][mask]
                if g_val[mask] is None or cand < g_val[mask]:
                    g_val[mask] = cand
                    g_root[mask] = v

    cost, blocks = _partition_dp(net, g_val)
    if cost is None:
        raise InfeasibleError("no feasible transportation")

    entries: dict[tuple[int, int], Fraction] = {}

    def emit(v: int, mask: int) -> None:
        while mask != 1 << v:
            sub = choice[v][mask]
            u = choice[v][sub]
            amount = abs(net[sub])
            if amount:
                edge = (u, v - n) if u < n else (v, u - n)
                entries[edge] = Fraction(amount)
            emit(u, sub)
            mask ^= sub

    for block in blocks:
        emit(g_root[block], block)
    return Fraction(cost, scale), FlowSolution(entries=entries)


def _partition_dp(net: list[int], block_cost: list) -> tuple[int | None, list[int]]:
    """Cheapest split of all vertices into net-zero blocks, by subset DP.

    block_cost[sub] is the cost of block sub, None where it cannot be used.
    Returns the least total cost and its blocks, in the order the DP picked
    them, or (None, []) when no split exists.  Every net-zero mask is split
    at its lowest vertex, and among equal totals the first block met wins.
    """
    size = len(net)
    dp = [None] * size
    pick = [None] * size
    dp[0] = 0
    for mask in range(1, size):
        if net[mask] != 0:
            continue
        low = mask & -mask
        others = mask ^ low
        best = None
        best_sub = None
        part = others
        while True:
            sub = part | low
            cost = block_cost[sub]
            if cost is not None:
                remainder = dp[mask ^ sub]
                if remainder is not None:
                    total = cost + remainder
                    if best is None or total < best:
                        best = total
                        best_sub = sub
            if not part:
                break
            part = (part - 1) & others
        dp[mask] = best
        pick[mask] = best_sub
    full = size - 1
    blocks = []
    mask = full if dp[full] is not None else 0
    while mask:
        blocks.append(pick[mask])
        mask ^= pick[mask]
    return dp[full], blocks


def exact_balanced_partition(inst: Instance, guard: int = 16) -> tuple[int, list[int]]:
    """Maximum number of balanced parts covering S and T (subset DP), and
    the parts as vertex masks (source i is bit i, sink j is bit n + j)."""
    check_balanced(inst)
    _check_subset_guard("partition", inst.n + inst.m, guard)
    net = subset_sums(signed_weights(inst))
    # Each part costs -1, so the cheapest split has the most parts.
    cost, blocks = _partition_dp(net, [-1 if x == 0 else None for x in net])
    return -cost, blocks


def exact_dst(dst: DstInstance) -> Fraction:
    """Minimum cost of a subgraph connecting the root to every terminal.

    Dreyfus-Wagner style DP over terminal subsets on all-pairs shortest
    paths; exact rationals throughout.
    """
    nv = len(dst.vertices)
    if nv > MAX_DST_VERTICES:
        raise GuardError(f"dst guard exceeded: {nv} vertices > {MAX_DST_VERTICES}")
    vertices = list(dst.vertices)
    index = {v: k for k, v in enumerate(vertices)}
    dist: list[list[Fraction | None]] = [[None] * nv for _ in range(nv)]
    for v in range(nv):
        dist[v][v] = Fraction(0)
    for u, v, cost in dst.edges:
        ui, vi = index[u], index[v]
        if dist[ui][vi] is None or cost < dist[ui][vi]:
            dist[ui][vi] = cost
    for k in range(nv):
        for i in range(nv):
            if dist[i][k] is None:
                continue
            for j in range(nv):
                if dist[k][j] is None:
                    continue
                through = dist[i][k] + dist[k][j]
                if dist[i][j] is None or through < dist[i][j]:
                    dist[i][j] = through

    terms = [index[t] for t in dst.terminals]
    k = len(terms)
    full = (1 << k) - 1
    dp: list[list[Fraction | None]] = [[None] * (full + 1) for _ in range(nv)]
    for pos, t in enumerate(terms):
        for v in range(nv):
            dp[v][1 << pos] = dist[v][t]
    masks = sorted(range(1, full + 1), key=lambda x: x.bit_count())
    for mask in masks:
        if mask.bit_count() < 2:
            continue
        merged: list[Fraction | None] = [None] * nv
        low = mask & -mask
        for v in range(nv):
            sub = (mask - 1) & mask
            while sub:
                if sub & low:
                    a, b = dp[v][sub], dp[v][mask ^ sub]
                    if a is not None and b is not None:
                        cand = a + b
                        if merged[v] is None or cand < merged[v]:
                            merged[v] = cand
                sub = (sub - 1) & mask
        for v in range(nv):
            best = None
            for u in range(nv):
                if merged[u] is None or dist[v][u] is None:
                    continue
                cand = dist[v][u] + merged[u]
                if best is None or cand < best:
                    best = cand
            dp[v][mask] = best
    answer = dp[index[dst.root]][full]
    if answer is None:
        raise InfeasibleError("infeasible DST")
    return answer


def exact_min_dominating(sc: SetCoverInstance) -> int:
    """Exact minimum dominating-set (set cover) size by subset enumeration."""
    m = len(sc.sets)
    if m > MAX_DOMINATING_SETS:
        raise GuardError(f"dominating guard exceeded: {m} sets > {MAX_DOMINATING_SETS}")
    universe = frozenset(range(sc.n_elements))
    union_all = frozenset().union(*(frozenset(s) for s in sc.sets))
    if union_all != universe:
        raise FctpError("some element has no covering set")
    for count in range(1, m + 1):
        for combo in combinations(range(m), count):
            covered = frozenset().union(*(frozenset(sc.sets[v]) for v in combo))
            if covered == universe:
                return count
    raise FctpError("unreachable: the full family covers the universe")


def exact_pfct_digraph(dg: DigraphInstance, edge_guard: int = 16) -> Fraction:
    """Exact digraph optimum: the cheapest used-edge subset, by increasing
    cost, that passes transport.feasible with each source's sinks taken as
    those its edges reach from it, flow through any vertex included."""
    edges = dg.edges
    if len(edges) > edge_guard:
        raise GuardError(f"too many edges ({len(edges)}) for subset enumeration")
    sink_bit = {v: 1 << k for k, v in enumerate(dg.demands)}
    supply_sums = subset_sums(list(dg.supplies.values()))
    demands = list(dg.demands.values())

    def fits(used) -> bool:
        sink_masks = [sum(sink_bit.get(v, 0) for v in reachable(used, s)) for s in dg.supplies]
        return feasible(supply_sums, demands, sink_masks)

    # Feasibility only grows with the edge set, so the full set decides it,
    # and once it passes the walk below ends at a subset that fits.
    if not fits(edges):
        raise InfeasibleError("no feasible digraph flow")
    scale, [[weights]] = integer_scaled([[cost for _, _, cost in edges]])
    costs = subset_sums(weights)
    cheapest = next(
        mask
        for mask in sorted(range(1 << len(edges)), key=costs.__getitem__)
        if fits([edge for p, edge in enumerate(edges) if mask >> p & 1])
    )
    return Fraction(costs[cheapest], scale)
