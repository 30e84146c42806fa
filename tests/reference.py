"""Reference computations the suite checks the package against, on its public API."""

import heapq
import itertools
from fractions import Fraction
from math import comb

from fctp import oracle, ptas
from fctp.errors import FctpError, GuardError, InfeasibleError, VariantError
from fctp.model import (
    INF,
    FlowSolution,
    VariantTag,
    check_epsilon,
    check_instance,
    classify_variant,
    evaluate_cost,
    integer_scaled,
    signed_weights,
    subset_sums,
)
from fctp.pfct_s import greedy_solve, pi, sorted_view
from fctp.transport import cancel_cycles, int_transportation, solve_transportation, walk_support


def exact_dst_by_edge_subsets(dst, edge_guard=16):
    """Second DST strategy: enumerate edge subsets, keep reachability-feasible ones."""
    edges = dst.edges
    if len(edges) > edge_guard:
        raise GuardError(f"too many edges ({len(edges)}) for subset enumeration")
    best = None
    terminals = set(dst.terminals)
    for mask in range(1 << len(edges)):
        chosen = [edge for pos, edge in enumerate(edges) if mask >> pos & 1]
        cost = sum((c for _, _, c in chosen), Fraction(0))
        if best is not None and cost >= best:
            continue
        reach = {dst.root}
        changed = True
        while changed:
            changed = False
            for u, v, _ in chosen:
                if u in reach and v not in reach:
                    reach.add(v)
                    changed = True
        if terminals <= reach:
            best = cost
    if best is None:
        raise InfeasibleError("infeasible DST")
    return best


def compare_residual_bound(inst1, inst2, delta):
    """Greedy on inst2 versus the exact optimum of inst1, shifted by delta.

    Both instances must be PFCT-S and share sources, supplies and fixed
    costs; the sink profiles may differ.  Requires pi'(t) <= pi(t) + delta
    at every supply breakpoint (error otherwise), and then checks

        greedy_cost(inst2) <= opt(inst1) + delta * f_1 + sum_{i>=2} f_i

    exactly, with opt from the exact oracle.
    """
    if delta < 0:
        raise FctpError("delta must be nonnegative")
    if not all(tag.pure and tag.sink_independent for tag in map(classify_variant, (inst1, inst2))):
        raise VariantError("requires PFCT-S")
    if inst1.supplies != inst2.supplies:
        raise FctpError("instances must share supplies")
    if [row[0] for row in inst1.fixed] != [row[0] for row in inst2.fixed]:
        raise FctpError("instances must share fixed costs")
    view = sorted_view(inst1)
    if any(pi(inst2, t) > pi(inst1, t) + delta for t in view.supply_prefix):
        raise FctpError("pi shift exceeds delta")
    greedy_cost = evaluate_cost(inst2, greedy_solve(inst2))
    opt1, _ = oracle.exact_fct(inst1)
    f = [inst1.fixed[i][0] for i in view.source_order]
    return greedy_cost <= opt1 + delta * f[0] + sum(f[1:], Fraction(0))


def bicriteria_weights(inst):
    """The bicriteria LP weights c + f / min(a, b) as Fractions, INF where c is INF."""
    return [
        [
            INF if c is INF else c + f / min(a, b)
            for c, f, b in zip(c_row, f_row, inst.demands)
        ]
        for c_row, f_row, a in zip(inst.linear, inst.fixed, inst.supplies)
    ]


def restricted_lp_value(inst, edges):
    """LP value of one PTAS guess P: P's sunk fixed costs plus the relaxation.

    The relaxation minimizes sum(x_ij * f_ij / b_j) over the flows inside
    A(P), P plus every allowed edge with f <= t, t being the cheapest fixed
    cost in P (every allowed edge when P is empty); P's own edges weigh 0.
    """
    edges = tuple(edges)
    if any(inst.linear[i][j] is INF for i, j in edges):
        raise FctpError("a guessed edge is forbidden")
    threshold = min((inst.fixed[i][j] for i, j in edges), default=None)
    weights = [[INF] * inst.m for _ in range(inst.n)]
    for i, j in inst.edges():
        if threshold is None or inst.fixed[i][j] <= threshold:
            weights[i][j] = Fraction(inst.fixed[i][j], inst.demands[j])
    for i, j in edges:
        weights[i][j] = 0
    _, value = solve_transportation(inst, weights)
    return sum((inst.fixed[i][j] for i, j in edges), Fraction(0)) + value


def validate_partition(inst, parts):
    """None when the vertex-mask parts are nonempty, disjoint, cover every
    vertex and each have net weight 0, else the first violation."""
    weights = signed_weights(inst)
    seen = 0
    for k, part in enumerate(parts):
        if not part:
            return f"part {k} is empty"
        if part & seen:
            return f"part {k} overlaps an earlier part"
        seen |= part
        if part >> len(weights):
            return f"part {k} has a vertex outside the instance"
        if sum(w for v, w in enumerate(weights) if part >> v & 1) != 0:
            return f"part {k} is not balanced"
    if seen != (1 << len(weights)) - 1:
        return "partition does not cover all sources and sinks"
    return None


def classify_variant_per_entry(inst):
    """classify_variant as one scan that reads every entry it needs.

    Entries compare by their int numerator and denominator, exact for ints
    and Fractions alike, and an entry that is its row's first object needs
    no comparison.  A row that settles a tag ends the scan for that tag.
    """
    pure = pure_mod = sink_independent = uniform = True
    for frow, crow in zip(inst.fixed, inst.linear):
        if sink_independent and frow:
            first = frow[0]
            num, den = first.numerator, first.denominator
            uniform = uniform and num == 1 and den == 1
            for f in frow:
                if f is not first and (f.numerator != num or f.denominator != den):
                    sink_independent = uniform = False
                    break
        if pure_mod:
            for c in crow:
                if c is INF:
                    pure = False
                elif c.numerator:
                    pure = pure_mod = False
                    break
    return VariantTag(
        pure=pure,
        sink_independent=sink_independent,
        uniform=uniform,
        pure_modulo_forbidden=pure_mod,
    )


def ptas_full_walk(inst, eps):
    """ptas_solve without its floor stop: every guess up to the largest size
    is walked, and the walk alone finds an instance infeasible.

    The refusals before the walk, their order and messages, and the two
    skips inside it are ptas_solve's; the winner is the first cheapest
    candidate walked.
    """
    check_instance(inst)
    tag = classify_variant(inst)
    if not (tag.pure or tag.pure_modulo_forbidden):
        raise VariantError("requires PFCT")
    eps = check_epsilon(eps)
    if eps <= 0:
        raise FctpError("epsilon must be positive")
    sizes = ptas.candidate_sizes(inst, eps)
    edges = sorted(inst.edges())
    if len({i for i, _ in edges}) < inst.n or len({j for _, j in edges}) < inst.m:
        raise InfeasibleError("no feasible transportation")
    if sum(comb(len(edges), s) for s in sizes) > ptas.MAX_CANDIDATES:
        raise GuardError("instance too large for PTAS enumeration")
    guesses = ptas._Guesses(inst)
    fixed = guesses.fixed
    best_cost = best_flow = None
    for combo in itertools.chain.from_iterable(
        ptas.forest_combinations(edges, inst.n, size) for size in sizes
    ):
        threshold = min((fixed[i][j] for i, j in combo), default=None)
        level = guesses.level(threshold)
        if level.deficits and not guesses.fits(level, combo):
            continue
        if best_cost is not None and guesses.lower_bound(level, combo) >= best_cost:
            continue
        weights = guesses.weights(level, combo)
        flow = int_transportation(inst.supplies, inst.demands, weights)
        cost = sum(fixed[i][j] for i, j in flow)
        if best_cost is None or cost < best_cost:
            best_cost, best_flow = cost, flow
    if best_flow is None:
        raise InfeasibleError("no feasible transportation")
    return FlowSolution(entries={e: Fraction(x) for e, x in sorted(best_flow.items())})


def full_round_transportation(inst, weights):
    """solve_transportation by successive shortest paths in full rounds.

    Each round pushes every source with supply left at distance 0, in
    ascending order, and each popped source relaxes its whole row; the heap
    orders by (distance, push counter); a popped sink scans every source
    for a backward arc; every reachable node is settled; and the target is
    the sink with unmet demand of least distance, the lowest on ties, from
    a scan over all sinks.  The int flow then goes through the package's
    cancel_cycles.  Valid, balanced input only.
    """
    n, m = inst.n, inst.m
    scale, (iw,) = integer_scaled(weights)
    rem_a, rem_b = list(inst.supplies), list(inst.demands)
    flow = {}
    pot = [0] * (n + m)
    while sum(rem_a):
        dist = [None] * (n + m)
        parent = [None] * (n + m)  # (i, j) of the arc into each reached node
        heap = []
        counter = 0
        for i in range(n):
            if rem_a[i] > 0:
                dist[i] = 0
                heapq.heappush(heap, (0, counter, i))
                counter += 1
        while heap:
            d, _, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v < n:
                arcs = [(n + j, v, j, x) for j, x in enumerate(iw[v]) if x is not None]
            else:
                j = v - n
                arcs = [(i, i, j, -iw[i][j]) for i in range(n) if (i, j) in flow]
            for u, i, j, x in arcs:
                nd = d + pot[v] + x - pot[u]
                if dist[u] is None or nd < dist[u]:
                    dist[u] = nd
                    parent[u] = (i, j)
                    heapq.heappush(heap, (nd, counter, u))
                    counter += 1
        target = None
        for v in range(n, n + m):
            if rem_b[v - n] > 0 and dist[v] is not None:
                if target is None or dist[v] < dist[target]:
                    target = v
        if target is None:
            raise InfeasibleError("no feasible transportation")
        path = []
        v = target
        while parent[v] is not None:
            i, j = parent[v]
            forward = v == n + j
            path.append((i, j, forward))
            v = i if forward else n + j
        delta = min(
            [rem_a[v], rem_b[target - n]]
            + [flow[(i, j)] for i, j, forward in path if not forward]
        )
        for i, j, forward in path:
            flow[(i, j)] = flow.get((i, j), 0) + (delta if forward else -delta)
            if not flow[(i, j)]:
                del flow[(i, j)]
        rem_a[v] -= delta
        rem_b[target - n] -= delta
        dt = dist[target]
        for u, du in enumerate(dist):
            if du is not None and du < dt:
                pot[u] += du - dt
    sol = cancel_cycles(FlowSolution(entries=flow), iw)
    value = sum(iw[i][j] * x.numerator for (i, j), x in sol.entries.items())
    return sol, Fraction(value, scale)


def evaluate_cost_by_fractions(inst, sol):
    """evaluate_cost as one running Fraction sum over the sorted support."""
    total = Fraction(0)
    for (i, j), x in sorted(sol.entries.items()):
        c = inst.linear[i][j]
        if c is INF:
            raise FctpError(f"infeasible edge used: ({i + 1}, {j + 1})")
        total += inst.fixed[i][j] + c * x
    return total


def source_order_by_fractions(inst):
    """The PFCT-S source order with Fraction keys: f nonincreasing, ties by index."""
    f = [row[0] for row in inst.fixed]
    return tuple(sorted(range(inst.n), key=lambda i: (-f[i], i)))


def exact_fct_by_all_submasks(inst):
    """oracle.exact_fct with every split walk over all submasks.

    The same rooted-subtree DP, attach cells, windows and components, but a
    rooted cell walks every sub-block of its rest holding the rest's lowest
    vertex, a block's attach cells go to every neighbour of its roots, and
    the partition DP walks every sub-block of a net-zero mask; both walks
    go by descending sub-block with a strict <, so the largest sub-block
    wins among equal totals.  Small valid instances only: no guard.
    """
    check_instance(inst)
    n, m = inst.n, inst.m
    total_vertices = n + m
    scale, (fix, lin) = integer_scaled(inst.fixed, inst.linear)
    values = signed_weights(inst)
    size = 1 << total_vertices
    net = subset_sums(values)
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
    parents, _ = walk_support(n, allowed)
    roots = {}
    comp = [1 << v for v in range(total_vertices)]
    for v, parent in parents.items():
        roots[v] = v if parent is None else roots[parent]
        comp[roots[v]] |= 1 << v
    for v, root in roots.items():
        comp[v] = comp[root]

    h = [[None] * size for _ in range(total_vertices)]
    choice = [[None] * size for _ in range(total_vertices)]
    g_val = [None] * size
    g_root = [None] * size
    for mask in range(1, size):
        nets = net[mask]
        rooted = 0
        for v in range(total_vertices):
            v_bit = 1 << v
            if not mask & v_bit:
                continue
            if mask == v_bit:
                h[v][mask] = 0
                rooted |= v_bit
                continue
            if mask & ~comp[v] or not low_net[v] <= nets <= high_net[v]:
                continue
            rest = mask ^ v_bit
            low = rest & -rest
            others = rest ^ low
            best = best_sub = None
            part = others
            while True:
                sub = part | low
                attach = h[v][sub]
                remainder = h[v][mask ^ sub]
                if attach is not None and remainder is not None:
                    total = remainder + attach
                    if best is None or total < best:
                        best, best_sub = total, sub
                if not part:
                    break
                part = (part - 1) & others
            if best is not None:
                h[v][mask] = best
                choice[v][mask] = best_sub
                rooted |= v_bit
        if nets > 0:
            tree_roots, amount = rooted & ((1 << n) - 1), nets
        elif nets < 0:
            tree_roots, amount = rooted >> n << n, -nets
        else:
            tree_roots, amount = rooted, 0
        for v in range(total_vertices):
            if mask >> v & 1:
                continue
            best = best_u = None
            for u in range(total_vertices):
                if tree_roots >> u & 1 and adj[v] >> u & 1:
                    i, j = (u, v - n) if u < n else (v, u - n)
                    total = h[u][mask] + fix[i][j] + lin[i][j] * amount
                    if best is None or total < best:
                        best, best_u = total, u
            h[v][mask] = best
            choice[v][mask] = best_u
        if nets == 0:
            for v in range(total_vertices):
                if rooted >> v & 1:
                    cand = h[v][mask]
                    if g_val[mask] is None or cand < g_val[mask]:
                        g_val[mask], g_root[mask] = cand, v

    dp = [None] * size
    pick = [None] * size
    dp[0] = 0
    for mask in range(1, size):
        if net[mask] != 0:
            continue
        low = mask & -mask
        others = mask ^ low
        part = others
        while True:
            sub = part | low
            if g_val[sub] is not None and dp[mask ^ sub] is not None:
                total = g_val[sub] + dp[mask ^ sub]
                if dp[mask] is None or total < dp[mask]:
                    dp[mask], pick[mask] = total, sub
            if not part:
                break
            part = (part - 1) & others
    if dp[size - 1] is None:
        raise InfeasibleError("no feasible transportation")

    entries = {}

    def emit(v, mask):
        while mask != 1 << v:
            sub = choice[v][mask]
            u = choice[v][sub]
            if net[sub]:
                edge = (u, v - n) if u < n else (v, u - n)
                entries[edge] = Fraction(abs(net[sub]))
            emit(u, sub)
            mask ^= sub

    mask = size - 1
    while mask:
        emit(g_root[pick[mask]], pick[mask])
        mask ^= pick[mask]
    return Fraction(dp[size - 1], scale), FlowSolution(entries=entries)


def int_transportation_by_walk(supplies, demands, iw):
    """int_transportation as it ran before the settled-target stop, the
    continued rounds and the union-find forest test: each Dijkstra round
    seeds a new heap and ends only at the first sink popped beyond the
    distance of the first sink with unmet demand, and cycle cancelling walks
    the support in full each time it looks for a cycle.  Same input and
    InfeasibleError as the int core."""
    return rotate_cycles_by_walk(ssp_settling_past_target(supplies, demands, iw), iw)


def ssp_settling_past_target(supplies, demands, iw):
    """The int SSP core of int_transportation_by_walk, cycles left in."""
    n, m = len(supplies), len(demands)
    adj = [[(n + j, j, x) for j, x in enumerate(row) if x is not None] for row in iw]
    best_w = [0] * m
    best_i = [-1] * m
    for i, row in enumerate(adj):
        for _, j, x in row:
            if best_i[j] < 0 or x < best_w[j]:
                best_w[j] = x
                best_i[j] = i
    rem_a = list(supplies)
    rem_b = list(demands)
    live = list(range(n))
    flow = {}
    used = [0] * m
    pot = [0] * (n + m)
    while live:
        dist = [None] * (n + m)
        par_i = [-1] * (n + m)
        par_j = [-1] * (n + m)
        shared = pot[live[0]]
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
        heapq.heapify(heap)
        counter = n * m
        reach = None
        target = -1
        while heap:
            d, _, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            if v < n:
                base = d + pot[v]
                for u, j, x in adj[v]:
                    nd = base + x - pot[u]
                    if dist[u] is None or nd < dist[u]:
                        dist[u] = nd
                        par_i[u] = v
                        par_j[u] = j
                        heapq.heappush(heap, (nd, counter, u))
                        counter += 1
            else:
                j = v - n
                if reach is None:
                    if rem_b[j] > 0:
                        reach, target = d, v
                elif d > reach:
                    break
                elif rem_b[j] > 0 and v < target:
                    target = v
                base = d + pot[v]
                sources = used[j]
                while sources:
                    low = sources & -sources
                    sources ^= low
                    i = low.bit_length() - 1
                    nd = base - iw[i][j] - pot[i]
                    if dist[i] is None or nd < dist[i]:
                        dist[i] = nd
                        par_i[i] = i
                        par_j[i] = j
                        heapq.heappush(heap, (nd, counter, i))
                        counter += 1
        if target < 0:
            raise InfeasibleError("no feasible transportation")
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
        if not rem_a[start]:
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
        dt = dist[target]
        for v, dv in enumerate(dist):
            if dv is not None and dv < dt:
                pot[v] += dv - dt
    return flow


def rotate_cycles_by_walk(flow, weights):
    """Cycle cancelling that asks walk_support for a cycle every round, the
    forest check included; rotates ``flow`` in place and returns it."""
    while True:
        _, cycle = walk_support(len(weights), flow)
        if cycle is None:
            return flow
        inc = [(i, j) for i, j, fwd in cycle if fwd]
        dec = [(i, j) for i, j, fwd in cycle if not fwd]
        delta_a = sum(weights[i][j] for i, j in inc) - sum(weights[i][j] for i, j in dec)
        if delta_a == 0:
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
