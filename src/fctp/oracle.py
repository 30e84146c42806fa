"""Exact brute-force solvers used as ground truth by every acceptance test.

exact_fct minimizes over all forest supports: optimal solutions live at
extreme points of the transportation polytope (cycle rotation never raises
the cost), every forest decomposes into trees spanning balanced blocks, and
the flow on a tree is forced by the marginals.  The search is organized as a
rooted-subtree DP over vertex subsets, restricted to blocks that are
connected in the allowed-edge graph, with a partition DP on top that
exact_balanced_partition shares; costs are integer-scaled internally (exact
common-denominator scaling) to keep the hot loop off Fraction arithmetic.

A tree on block mask rooted at v is a child subtree on sub, hung from v by
one edge, plus a smaller tree on mask ^ sub still rooted at v.  The cheapest
attaching edge depends only on (v, sub), so it is computed once, when the
trees on sub are finished, and kept in the cells of the same table where v is
not in the block; each split then costs two lookups.  Every split walk, here
and in exact_balanced_partition, visits only the sub-blocks holding the
block's lowest remaining vertex, so each unordered split is seen once.  Both
subset DPs refuse n + m above MAX_SUBSET_VERTICES whatever their guard.

A tree spans a connected vertex set, so a block that is not connected gets
no rooted cell and no attach cell, and a child block holding the rest's
lowest vertex lies inside that vertex's component of the rest; the walk
reads only the sub-blocks of that component.  A block is marked connected
when some vertex joins a connected smaller block by an edge, which the top
vertex does for nearly every block of a dense shape; otherwise its lowest
vertex's component is grown over the table of neighbourhoods, the union of
the allowed neighbours of each vertex set.  These cells stay empty in any
case, so the skip changes no cost and no choice.

A tree on mask rooted at v is computed only when net[mask] lies in v's
window, [0, a_v] at a source and [-b_v, 0] at a sink.  Above a source's
window no tree exists: its root hangs only deficit-or-zero subtrees.  Below
it a tree is never used: it cannot be hung from a parent (a deficit block
hangs from its sinks) or close a block (its net is not zero), and a tree
that extends it stays below the window.  Sinks are the mirror image, so the
window changes no cost and no choice.

The windows bound the split walk too: a child block hung from v must have
the attaching sign and leave the rest in v's window, so net[sub] lies in
[net[mask] - a_v, 0] at a source and [0, net[mask] + b_v] at a sink.  The
walk reads only those blocks, from _subsets_by_net's tables of submasks
sorted by net, and the partition DP reads its net-zero blocks the same way.
Both DPs keep the largest block among equal totals, so the walk's order
changes no choice.  A block's attach cells are written only for parents
whose window admits -net[mask], the only parents that read them.

Guards are hard errors, never silent truncation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations

from .errors import FctpError, GuardError, InfeasibleError
# check_instance is unused here; perfbench/tracing.py wraps it by name in fctp.oracle.
from .model import (  # noqa: F401
    FlowSolution,
    Instance,
    check_instance,
    integer_scaled,
    signed_weights,
    subset_sums,
)
from .reductions import DigraphInstance, DstInstance, SetCoverInstance, reachable
from .transport import feasible


# Largest n + m the subset DPs accept, whatever guard a caller passes:
# exact_fct allocates (n + m) * 2^(n + m) slots per table, about 170 MB
# each at 20, and its submasks sorted by net take at most as many entries,
# 2 * 3^14 (about 9.6 M against 21 M slots) at 20.  Its neighbourhood table
# holds 2^(n + m) ints, about 42 MB at 20, and its connectivity flags one
# byte per vertex set, 1 MB.
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


def _subsets_by_net(net: list[int], total_vertices: int):
    """Submasks sorted by net, for walks over the blocks whose net lies in a
    range.

    Returns (shift, tables, fill).  The vertices from shift up are the high
    part, the sink end of the numbering; fill(s) sets tables[s], None until
    then, to the submasks of s << shift in order of net and their nets.  A
    walk joins each submask of a block's low part with the slice of its
    high part's table that bisecting the nets picks.  The high part leaves
    four vertices low, since at n + m <= 12 larger tables cost more to fill
    than their bisects save, and keeps all tables, 3^high submasks and as
    many nets, within the (n + m) * 2^(n + m) entries of one exact_fct table.
    """
    high = 0
    while high < total_vertices - 4 and 2 * 3 ** (high + 1) <= total_vertices << total_vertices:
        high += 1
    shift = total_vertices - high
    # One int per high submask, which every table holding it shares.
    masks = [s << shift for s in range(1 << high)]
    tables: list = [None] * (1 << high)
    tables[0] = ([0], [0])

    def fill(s: int) -> tuple[list[int], list[int]]:
        top = 1 << s.bit_length() - 1
        below = (tables[s ^ top] or fill(s ^ top))[0]
        # Two runs in order of net, which sorted merges in one pass.
        subs = sorted(below + [masks[x >> shift | top] for x in below], key=net.__getitem__)
        tables[s] = subs, list(map(net.__getitem__, subs))
        return tables[s]

    return shift, tables, fill


def _neighbourhoods(adj: list[int]) -> list[int]:
    """nbr[mask] = the union of adj[v] over the set bits v of mask."""
    nbr = [0]
    for a in adj:
        nbr += [x | a for x in nbr]
    return nbr


def exact_fct(inst: Instance, guard: int = 16) -> tuple[Fraction, FlowSolution]:
    """Exact optimum cost and an optimal solution; guard bounds n + m."""
    n, m = inst.n, inst.m
    total_vertices = n + m
    _check_subset_guard("exact_fct", total_vertices, guard)

    scale, (fix, lin) = integer_scaled(inst.fixed, inst.linear)

    values = signed_weights(inst)
    size = 1 << total_vertices
    net = subset_sums(values)
    src_mask = (1 << n) - 1
    subsets = _subsets_by_net(net, total_vertices)
    shift, tables, fill = subsets
    low_part = (1 << shift) - 1
    # windows[x]: the vertices whose window admits net x, [0, a_v] at a
    # source and [-b_v, 0] at a sink.
    nets_seen = sorted(set(net))
    windows = dict.fromkeys(nets_seen, 0)
    for v, w in enumerate(values):
        for x in nets_seen[bisect_left(nets_seen, min(w, 0)) : bisect_right(nets_seen, max(w, 0))]:
            windows[x] |= 1 << v

    adj = [0] * total_vertices
    for i in range(n):
        for j in range(m):
            if lin[i][j] is not None:
                adj[i] |= 1 << (n + j)
                adj[n + j] |= 1 << i

    nbr = _neighbourhoods(adj)

    def component(bit: int, within: int) -> int:
        """The vertices of within that bit reaches over allowed edges."""
        comp = bit
        while True:
            grown = comp | nbr[comp] & within
            if grown == comp:
                return comp
            comp = grown

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
    # connected[mask] is 1 when mask is connected in the allowed-edge graph;
    # only such a block can carry a tree.
    connected = bytearray(size)

    for mask in range(1, size):
        nets = net[mask]
        if not mask & (mask - 1):
            connected[mask] = 1
            h[mask.bit_length() - 1][mask] = 0
            rooted = mask
        else:
            # mask is connected when some vertex t joins a connected
            # mask ^ t by an edge, as a leaf of any spanning tree does.
            top = mask.bit_length() - 1
            rest = mask ^ 1 << top
            if not (connected[rest] and adj[top] & rest) and component(mask & -mask, mask) != mask:
                continue
            connected[mask] = 1
            rooted = 0
            probe = mask & windows[nets]
            while probe:
                v_bit = probe & -probe
                probe ^= v_bit
                v = v_bit.bit_length() - 1
                rest = mask ^ v_bit
                # A child block hangs from a source by its deficit and from a
                # sink by its surplus, and leaves the rest in v's window.
                if v < n:
                    lo, hi = nets - values[v], 0
                else:
                    lo, hi = 0, nets - values[v]
                # Only blocks holding rest's lowest vertex: each split of
                # rest into child subtrees is then reached once.  Such a
                # block, being connected, lies in low's component of rest.
                low = rest & -rest
                others = (rest if connected[rest] else component(low, rest)) ^ low
                high_subs, high_nets = tables[others >> shift] or fill(others >> shift)
                low_others = others & low_part
                part = low_others
                h_v = h[v]
                best = None
                best_sub = None
                while True:
                    low_sub = part | low
                    base = net[low_sub]
                    for sub in high_subs[
                        bisect_left(high_nets, lo - base) : bisect_right(high_nets, hi - base)
                    ]:
                        sub |= low_sub
                        attach = h_v[sub]
                        if attach is not None:
                            remainder = h_v[mask ^ sub]
                            if remainder is not None:
                                total = remainder + attach
                                # Among equal totals the largest block wins.
                                if best is None or total < best or total == best and sub > best_sub:
                                    best = total
                                    best_sub = sub
                    if not part:
                        break
                    part = (part - 1) & low_others
                if best is not None:
                    h_v[mask] = best
                    choice[v][mask] = best_sub
                    rooted |= v_bit

        # Attaching costs of the finished block: edge (v, u) carries
        # |net[mask]| out of a surplus block, so u must then be a source,
        # and into a deficit block, so u must then be a sink.  Only a
        # parent v whose window admits -net[mask] ever reads the cell.
        if nets > 0:
            roots = rooted & src_mask
            amount = nets
        elif nets < 0:
            roots = rooted & ~src_mask
            amount = -nets
        else:
            roots = rooted
            amount = 0
        outside = nbr[roots] & windows[-nets] & ~mask
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

    cost, blocks = _partition_dp(net, g_val, subsets)
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


def _partition_dp(net: list[int], block_cost: list, subsets) -> tuple[int | None, list[int]]:
    """Cheapest split of all vertices into net-zero blocks, by subset DP.

    block_cost[sub] is the cost of block sub, None where it cannot be used;
    subsets is _subsets_by_net of net.  Returns the least total cost and its
    blocks, in the order the DP picked them, or (None, []) when no split
    exists.  Every net-zero mask is split at its lowest vertex, and among
    equal totals the largest block wins.
    """
    shift, tables, fill = subsets
    low_part = (1 << shift) - 1
    size = len(net)
    dp = [None] * size
    pick = [None] * size
    dp[0] = 0
    for mask in range(1, size):
        if net[mask] != 0:
            continue
        low = mask & -mask
        others = mask ^ low
        high_subs, high_nets = tables[others >> shift] or fill(others >> shift)
        low_others = others & low_part
        part = low_others
        best = None
        best_sub = None
        while True:
            low_sub = part | low
            base = -net[low_sub]
            for sub in high_subs[bisect_left(high_nets, base) : bisect_right(high_nets, base)]:
                sub |= low_sub
                cost = block_cost[sub]
                if cost is not None:
                    remainder = dp[mask ^ sub]
                    if remainder is not None:
                        total = cost + remainder
                        if best is None or total < best or total == best and sub > best_sub:
                            best = total
                            best_sub = sub
            if not part:
                break
            part = (part - 1) & low_others
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
    _check_subset_guard("partition", inst.n + inst.m, guard)
    net = subset_sums(signed_weights(inst))
    # Each part costs -1, so the cheapest split has the most parts.
    block_cost = [-1 if x == 0 else None for x in net]
    cost, blocks = _partition_dp(net, block_cost, _subsets_by_net(net, inst.n + inst.m))
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
