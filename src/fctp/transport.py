"""Exact minimization of linear objectives over the transportation polytope.

solve_transportation is the exact-rational boundary.  Its instance is valid
by construction; it refuses a weight matrix of the wrong shape, a weight that
is not an int, a Fraction or INF, and a negative weight; scales the weights to
ints by one common denominator (exact, since it keeps every comparison);
and returns Fraction flows and objective.  int_transportation is the int
core beneath it and checks nothing: it takes positive int supplies and
demands with equal sums and rows of non-negative ints, None on a forbidden
edge, and returns the same flow as {(i, j): int}.  Both run successive
shortest paths with Dijkstra potentials on the bipartite network, forbidden
edges left out of the residual graph rather than given a big-M weight, and
then cancel cycles on the int flow, so the support is a forest (an extreme
point).  A union-find forest test, the module's one acyclicity test, runs
first, and the support walk runs only to find a cycle that test has seen.

Each Dijkstra round starts from the sources with supply left, which all
hold one potential: potentials start at 0, every such source starts each
round at distance 0 and so gets the same update, and a source never
regains supply.  Popping them and relaxing their rows would leave sink j
at that potential plus c_j less sink j's own, c_j being the cheapest
weight into j from such a source, with the lowest such source as parent.
So c_j and its source are kept per sink, built once per call, and a
source that runs dry recomputes only the columns it led.  Each round
heapifies one entry per reached sink in place of the relaxations, stamped
i * m + j, the order in which the relaxations pushed them, so ties pop as
they did.

A round stops once it has settled every node up to the nearest sink with
unmet demand, the classical early stop of successive shortest paths; the
rest of the network cannot change that round's path or potential update.
The target is the lowest sink with unmet demand popped at that distance,
the one a scan over every sink would pick.  It stops sooner once the target
is the lowest sink with unmet demand of all: every node below its distance
is settled, and a later pop could only pick a lower one.  A popped sink j
scans only its backward arcs: used[j] is a bitmask of the sources with flow
into j, set when an augmentation creates edge (i, j) and cleared when it
empties it.  Its bits are read in ascending order, the order of a scan over
every source, so pushes and ties, and the output, are those of that scan.
After a round whose target lies at distance 0, whose start keeps supply and
whose path empties no backward arc, the next round goes on with its search,
heap and all: no potential, seed or arc that search read has changed, and
the path's new backward arcs, of reduced cost 0 into nodes settled at 0,
push nothing, so a fresh round would repeat its pops, pushes and stamps.

walk_support is the package's one walk of a bipartite support: it finds the
cycles cancel_cycles rotates away and the trees bicriteria rounds.
gale_deficits is the package's one loop of Gale's flow-feasibility test:
the PTAS keeps the source sets it yields per threshold, and feasible, used
by the digraph oracle, asks whether it yields any.  balinski_weights is the
package's one builder of Balinski's (1961) relaxation weights: bicriteria
rounds that LP's flow, and the PTAS reads its value as a lower bound on
every flow's cost.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from .errors import FctpError, InfeasibleError
from .model import INF, FlowSolution, Instance, integer_scaled


def solve_transportation(inst: Instance, weights) -> tuple[FlowSolution, Fraction]:
    """Minimize sum(w_ij * x_ij) over all feasible flows; exact and integral.

    Returns (solution, objective).  The solution is an optimal extreme point:
    integral flows (integrality of the transportation polytope) with acyclic
    support of at most n + m - 1 edges.  The instance is valid by
    construction; the weights are the caller's, so this raises FctpError on
    a weight matrix of the wrong shape, on a weight that is not an int, a
    Fraction or INF, and on a negative weight (the Dijkstra potentials
    require w >= 0); InfeasibleError when the finite-weight edges cannot
    carry any feasible flow.
    """
    if len(weights) != inst.n or any(len(row) != inst.m for row in weights):
        raise FctpError("weight matrix shape must match the instance")
    scale, (iw,) = integer_scaled(weights)
    if any(x is not None and x < 0 for row in iw for x in row):
        raise FctpError("negative weights are not supported")
    sol = cancel_cycles(FlowSolution(entries=_shortest_paths(inst.supplies, inst.demands, iw)), iw)
    value = sum(iw[i][j] * x.numerator for (i, j), x in sol.entries.items())
    return sol, Fraction(value, scale)


def int_transportation(supplies, demands, weights) -> dict:
    """The unchecked int core (module docstring); InfeasibleError as there."""
    return _rotate_cycles(_shortest_paths(supplies, demands, weights), weights)


def _shortest_paths(supplies, demands, iw) -> dict:
    """A min-cost int flow {(i, j): x} by SSP; its support may hold cycles."""
    n, m = len(supplies), len(demands)
    # Node ids: sources 0..n-1, sinks n..n+m-1.
    adj = [
        [(n + j, j, x) for j, x in enumerate(row) if x is not None] for row in iw
    ]  # source -> (sink node, j, weight)
    # The first Dijkstra layer, per sink: best_w[j] is the cheapest weight
    # into sink j from a source with supply left and best_i[j] the lowest
    # such source, -1 when there is none.
    best_w = [0] * m
    best_i = [-1] * m
    for i, row in enumerate(adj):
        for _, j, x in row:
            if best_i[j] < 0 or x < best_w[j]:
                best_w[j] = x
                best_i[j] = i

    heappush, heappop, heapify = heapq.heappush, heapq.heappop, heapq.heapify
    rem_a = list(supplies)
    rem_b = list(demands)
    live = list(range(n))  # the sources with supply left, ascending
    lowest = 0  # the lowest sink with unmet demand
    flow: dict[tuple[int, int], int] = {}
    used = [0] * m  # used[j]: bitmask of the sources with flow into sink j
    pot = [0] * (n + m)

    resume = False  # whether this round continues the last one's search
    while live:
        # Multi-source Dijkstra from every source with remaining supply, over
        # reduced costs (nonnegative by the potential invariant), fresh or
        # continued and stopped as the module docstring says.  Every node below
        # the target's distance is then settled and parents change only on a
        # strict <, so the target, its path and the potential update below,
        # which reads only distances under the target's, are a full run's.
        if resume:
            if stop:
                heappush(heap, stop)
            popped = [v for v in popped if rem_b[v - n]]
            target = min(popped, default=-1)
        else:
            dist: list[int | None] = [None] * (n + m)
            # The arc into each reached node: (par_i[v], par_j[v]), forward
            # when v is sink par_j[v]; par_i[v] < 0 at a start source.
            par_i = [-1] * (n + m)
            par_j = [-1] * (n + m)
            # The first layer, from the table; every later push stamps after
            # the seeded stamps i * m + j.
            shared = pot[live[0]]  # the potential of every source in live
            for i in live:
                dist[i] = 0
            heap = []
            for j, i in enumerate(best_i):
                if i >= 0:
                    v = n + j
                    d = shared + best_w[j] - pot[v]
                    dist[v] = d
                    par_i[v] = i
                    par_j[v] = j
                    heap.append((d, i * m + j, v))
            heapify(heap)
            counter = n * m
            popped = []  # the sinks popped with unmet demand
            target = -1  # the lowest sink with unmet demand at the first one's distance
        stop = None  # the entry the round stopped at, which a continued round pushes back
        while heap and target != n + lowest:
            d, s, v = heappop(heap)
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
                if target >= 0 and d > dist[target]:
                    stop = d, s, v
                    break
                if rem_b[j] > 0:
                    popped.append(v)
                    if target < 0 or v < target:
                        target = v
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
        dt = dist[target]
        resume = not dt and delta < rem_a[start]
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
                    resume = False
        rem_a[start] -= delta
        rem_b[target - n] -= delta
        while lowest < m and not rem_b[lowest]:
            lowest += 1
        if not rem_a[start]:
            # A source never regains supply: refill the columns it led.
            live.remove(start)
            for _, j, _ in adj[start]:
                if best_i[j] == start:
                    bi, bw = -1, 0
                    for i in live:
                        x = iw[i][j]
                        if x is not None and (bi < 0 or x < bw):
                            bi, bw = i, x
                    best_i[j] = bi
                    best_w[j] = bw

        # Standard potential update keeps reduced costs nonnegative.
        if dt:
            for v, dv in enumerate(dist):
                if dv is not None and dv < dt:
                    pot[v] += dv - dt

    return flow


def balinski_weights(inst: Instance) -> tuple[int, list]:
    """(common, weights): Balinski's LP weights c + f/p, p = min(a, b) being
    the most flow an edge can carry, as ints over common, INF where c is INF.

    As x <= p forces y >= x/p, the LP over these weights is at most the cost
    of every flow.  Each weight is (C p + F) / (s p) in lowest terms, with
    C = c s and F = f s scaled to ints by one s, and common is the lcm of
    those denominators: the matrix integer_scaled makes of the weights as
    Fractions, entry for entry.
    """
    nums, dens = [], []
    scale, (fixed, linear) = integer_scaled(inst.fixed, inst.linear)
    for a, f_row, c_row in zip(inst.supplies, fixed, linear):
        num_row, den_row = [], []
        for b, f, c in zip(inst.demands, f_row, c_row):
            if c is None:
                num_row.append(None)
                den_row.append(1)
                continue
            p = a if a < b else b
            num, den = c * p + f, scale * p
            g = gcd(num, den)
            num_row.append(num // g)
            den_row.append(den // g)
        nums.append(num_row)
        dens.append(den_row)
    common = lcm(*{den for row in dens for den in row})
    weights = [
        [INF if num is None else num * (common // den) for num, den in zip(num_row, den_row)]
        for num_row, den_row in zip(nums, dens)
    ]
    return common, weights


def gale_deficits(supply_sums, demands, sink_masks):
    """Gale (1957): every supply can be shipped iff a(S) <= b(N(S)) for all S.

    Yields (s, N(S), a(S) - b(N(S))) for each S that fails, by increasing s.
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
        short = unmet(supply_sums[s], demands, reach[s])
        if short > 0:
            yield s, reach[s], short


def unmet(need, demands, sinks) -> int:
    """need less b(sinks), sinks a bitmask over demands; exact while > 0."""
    while sinks and need > 0:
        bit = sinks & -sinks
        need -= demands[bit.bit_length() - 1]
        sinks ^= bit
    return need


def feasible(supply_sums, demands, sink_masks) -> bool:
    """Whether no set of sources fails Gale's test (gale_deficits)."""
    return next(gale_deficits(supply_sums, demands, sink_masks), None) is None


def cancel_cycles(sol: FlowSolution, weights) -> FlowSolution:
    """Rotate flow around support cycles until the support is a forest.

    Marginals are preserved exactly and the weighted cost never increases:
    the rotation direction is the cheaper of the two, with ties broken toward
    the direction that zeroes the lexicographically smallest edge.  Weights
    off the support are never read; solve_transportation passes its int
    flow and int-scaled weights, with None for forbidden edges.
    """
    flow = _rotate_cycles(dict(sol.entries), weights)
    return FlowSolution(
        entries={e: Fraction(x) for e, x in sorted(flow.items())},
        relaxation=sol.relaxation,
    )


def _rotate_cycles(flow: dict, weights) -> dict:
    """cancel_cycles on a flow dict, in place; returns it."""
    n, m = len(weights), len(weights[0])
    while not _is_forest(n, m, flow):
        _, cycle = walk_support(n, flow)
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
    return flow


def _is_forest(n: int, m: int, edges) -> bool:
    """Union-find acyclicity test; source i is vertex i, sink j is n + j."""
    parent = list(range(n + m))
    for i, j in edges:
        u, v = i, n + j
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[u] = v
    return True


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
