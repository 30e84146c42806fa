"""Exact minimization of linear objectives over the transportation polytope.

Successive shortest paths with Dijkstra potentials on the bipartite network,
run on the weights scaled to ints by one common denominator (exact, since it
keeps every comparison), followed by cycle cancellation on the int flow so
the returned support is always a forest (an extreme point).  Each Dijkstra
round stops once it has settled every node up to the nearest sink with unmet
demand, the classical early stop of successive shortest paths; the rest of
the network cannot change that round's path or potential update.  Forbidden
edges (weight INF) are excluded from the residual graph rather than given a
big-M weight.

A popped sink j scans only its backward arcs: used[j] is a bitmask of the
sources with flow into j, set when an augmentation creates edge (i, j) and
cleared when it empties it.  Its bits are read in ascending order, the
order of a scan over every source, so pushes and ties, and the output,
are those of that scan.

walk_support is the package's one walk of a bipartite support: it finds the
cycles cancel_cycles rotates away, the trees bicriteria rounds and the
connected components the exact oracle splits blocks by.  feasible is the
package's one flow-feasibility test, used by the PTAS and the digraph oracle.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import FctpError, InfeasibleError
from .model import FlowSolution, Instance, check_balanced, integer_scaled


def solve_transportation(inst: Instance, weights) -> tuple[FlowSolution, Fraction]:
    """Minimize sum(w_ij * x_ij) over all feasible flows; exact and integral.

    Returns (solution, objective).  The solution is an optimal extreme point:
    integral flows (integrality of the transportation polytope) with acyclic
    support of at most n + m - 1 edges.  Raises FctpError on an unbalanced
    instance, on a weight matrix of the wrong shape, on a weight that is not
    an int, a Fraction or INF, and on a negative weight (the Dijkstra
    potentials require w >= 0); InfeasibleError when the finite-weight edges
    cannot carry any feasible flow.
    """
    check_balanced(inst)
    n, m = inst.n, inst.m
    if len(weights) != n or any(len(row) != m for row in weights):
        raise FctpError("weight matrix shape must match the instance")
    scale, (iw,) = integer_scaled(weights)
    if any(x is not None and x < 0 for row in iw for x in row):
        raise FctpError("negative weights are not supported")

    # Node ids: sources 0..n-1, sinks n..n+m-1.
    adj = [
        [(n + j, j, x) for j, x in enumerate(row) if x is not None] for row in iw
    ]  # source -> (sink node, j, weight)

    heappush, heappop = heapq.heappush, heapq.heappop
    rem_a = list(inst.supplies)
    rem_b = list(inst.demands)
    flow: dict[tuple[int, int], int] = {}
    used = [0] * m  # used[j]: bitmask of the sources with flow into sink j
    pot = [0] * (n + m)
    total_left = sum(rem_a)

    while total_left > 0:
        # Multi-source Dijkstra from every source with remaining supply,
        # over reduced costs (nonnegative by the potential invariant).  The
        # round ends at the first sink popped beyond the distance of the
        # first popped sink with unmet demand.  Every node at or below that
        # distance is settled by then and parents change only on a strict
        # <, so the target, its path and the potential update below, which
        # reads only distances under the target's, are those of a run that
        # settles every reachable node.
        dist: list[int | None] = [None] * (n + m)
        # The arc into each reached node: (par_i[v], par_j[v]), forward
        # when v is sink par_j[v]; par_i[v] < 0 at a start source.
        par_i = [-1] * (n + m)
        par_j = [-1] * (n + m)
        heap = []
        counter = 0
        reach = None  # distance of the first popped sink with unmet demand
        for i in range(n):  # entries (0, k, i) in ascending order: already a heap
            if rem_a[i] > 0:
                dist[i] = 0
                heap.append((0, counter, i))
                counter += 1
        while heap:
            d, _, v = heappop(heap)
            if d > dist[v]:
                continue
            if v < n:
                base = d + pot[v]
                for u, j, x in adj[v]:
                    nd = base + x - pot[u]
                    du = dist[u]
                    if du is None or nd < du:
                        dist[u] = nd
                        par_i[u] = v
                        par_j[u] = j
                        heappush(heap, (nd, counter, u))
                        counter += 1
            else:
                j = v - n
                if reach is None:
                    if rem_b[j] > 0:
                        reach = d
                elif d > reach:
                    break
                base = d + pot[v]
                sources = used[j]
                while sources:
                    low = sources & -sources
                    sources ^= low
                    i = low.bit_length() - 1
                    nd = base - iw[i][j] - pot[i]
                    di = dist[i]
                    if di is None or nd < di:
                        dist[i] = nd
                        par_i[i] = i
                        par_j[i] = j
                        heappush(heap, (nd, counter, i))
                        counter += 1
        target = -1
        for j in range(m):
            v = n + j
            if rem_b[j] > 0 and dist[v] is not None:
                if target < 0 or dist[v] < dist[target]:
                    target = v
        if target < 0:
            raise InfeasibleError("no feasible transportation")

        # Walk the path back, collecting forward/backward arcs.
        path = []
        v = target
        while par_i[v] >= 0:
            i, j = par_i[v], par_j[v]
            forward = v == n + j
            path.append((i, j, forward))
            v = i if forward else n + j
        start = v
        path.reverse()

        delta = min(rem_a[start], rem_b[target - n])
        for i, j, forward in path:
            if not forward:
                delta = min(delta, flow[(i, j)])
        for i, j, forward in path:
            if forward:
                if (i, j) in flow:
                    flow[(i, j)] += delta
                else:
                    flow[(i, j)] = delta
                    used[j] |= 1 << i
            else:
                flow[(i, j)] -= delta
                if flow[(i, j)] == 0:
                    del flow[(i, j)]
                    used[j] ^= 1 << i
        rem_a[start] -= delta
        rem_b[target - n] -= delta
        total_left -= delta

        # Standard potential update keeps reduced costs nonnegative.
        dt = dist[target]
        for v, dv in enumerate(dist):
            if dv is not None and dv < dt:
                pot[v] += dv - dt

    sol = cancel_cycles(FlowSolution(entries=flow), iw)
    value = sum(iw[i][j] * x.numerator for (i, j), x in sol.entries.items())
    return sol, Fraction(value, scale)


def feasible(supply_sums, demands, sink_masks) -> bool:
    """Gale (1957): every supply can be shipped iff a(S) <= b(N(S)) for all S.

    S runs over the nonempty sets of sources, supply_sums[s] = a(S) with s
    the bitmask of S (model.subset_sums), and N(S) is the union of S's
    sink_masks, bitmasks over the positions of demands.  The edges have no
    capacity, so every finite cut is closed under successors, and a sink
    mask may hold the sinks a source reaches through other vertices.
    """
    reach = [0] * len(supply_sums)
    for s in range(1, len(supply_sums)):
        low = s & -s
        reach[s] = reach[s ^ low] | sink_masks[low.bit_length() - 1]
        need, rest = supply_sums[s], reach[s]
        while rest and need > 0:
            bit = rest & -rest
            need -= demands[bit.bit_length() - 1]
            rest ^= bit
        if need > 0:
            return False
    return True


def cancel_cycles(sol: FlowSolution, weights) -> FlowSolution:
    """Rotate flow around support cycles until the support is a forest.

    Marginals are preserved exactly and the weighted cost never increases:
    the rotation direction is the cheaper of the two, with ties broken toward
    the direction that zeroes the lexicographically smallest edge.  Weights
    off the support are never read; solve_transportation passes its int
    flow and int-scaled weights, with None for forbidden edges.
    """
    flow = dict(sol.entries)
    while True:
        _, cycle = walk_support(len(weights), flow)
        if cycle is None:
            break
        # cycle: edge list (i, j, forward) alternating around the cycle;
        # direction A increases "forward" edges and decreases the others.
        inc = [(i, j) for i, j, fwd in cycle if fwd]
        dec = [(i, j) for i, j, fwd in cycle if not fwd]
        delta_a = sum(weights[i][j] for i, j in inc) - sum(weights[i][j] for i, j in dec)
        if delta_a == 0:
            # Equal cost both ways: zero the lexicographically smallest edge.
            use_a = min(dec, key=lambda e: (flow[e], e)) < min(inc, key=lambda e: (flow[e], e))
        else:
            use_a = delta_a < 0
        use_inc, use_dec = (inc, dec) if use_a else (dec, inc)
        bottleneck = min(flow[e] for e in use_dec)
        for e in use_inc:
            flow[e] = flow.get(e, 0) + bottleneck
        for e in use_dec:
            flow[e] -= bottleneck
            if flow[e] == 0:
                del flow[e]
    return FlowSolution(
        entries={e: Fraction(x) for e, x in sorted(flow.items())},
        relaxation=sol.relaxation,
    )


def walk_support(n: int, edges) -> tuple[dict, list | None]:
    """Walk a bipartite support depth first; return (parents, first cycle).

    Vertices are ints: source i is i and sink j is n + j.  Each tree is
    rooted at its lowest vertex and neighbours are visited in index order,
    so the walk, and the cycle it meets first, depend only on the edge set.
    parents maps every vertex an edge touches to its parent in the walk,
    None at a root, and lists parents before their children.  cycle is
    [(i, j, forward), ...], forward meaning the edge is traversed source ->
    sink, or None when the support is a forest.
    """
    nodes: dict[int, list[int]] = {}
    for i, j in edges:
        nodes.setdefault(i, []).append(n + j)
        nodes.setdefault(n + j, []).append(i)
    parents: dict[int, int | None] = {}
    done = set()
    cycle = None
    for root in sorted(nodes):
        if root in parents:
            continue
        parents[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            done.add(v)
            for u in sorted(nodes[v]):
                if u == parents[v]:
                    continue
                if u not in parents:
                    parents[u] = v
                    stack.append(u)
                elif cycle is None and u in done:
                    cycle = _extract_cycle(n, parents, v, u)
    return parents, cycle


def _extract_cycle(n: int, parents: dict, v: int, u: int) -> list:
    """Build the edge cycle closing the tree path u ~> v with edge (v, u)."""
    path_v = [v]
    while parents[path_v[-1]] is not None:
        path_v.append(parents[path_v[-1]])
    on_path = set(path_v)
    walk = [u]
    while walk[-1] not in on_path:
        walk.append(parents[walk[-1]])
    # Cycle order: meet ~> v along v's parent chain, edge (v, u), then
    # u ~> back to meet along u's parent chain; the list closes on itself.
    nodes = path_v[: path_v.index(walk[-1]) + 1][::-1] + walk[:-1]
    hops = zip(nodes, nodes[1:] + nodes[:1])
    return [(x, y - n, True) if x < n else (y, x - n, False) for x, y in hops]
