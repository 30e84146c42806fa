"""Instance generators realizing the problem reductions.

Four constructions: general-digraph instances to bipartite instances by
vertex splitting, directed Steiner tree to digraph instances, set cover
(as bipartite dominating set) to sink-independent instances with forbidden
edges, and bounded-frequency 3-dimensional matching to pure uniform
instances with randomized demands.  Each preserves the optimum value; the
test suite checks that with the exact oracles on tiny inputs.

Missing edges of a non-complete construction are encoded as linear cost INF
with fixed cost 0 (the bipartite instance must be complete, so INF expresses
"edge absent").  The resulting instances are pure modulo forbidden edges.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import FctpError, GuardError
from .model import INF, Instance, make_instance, uniform_pure_instance

Vertex = object  # hashable vertex id; strings and ints in practice


@dataclass(frozen=True)
class DigraphInstance:
    """Pure fixed charge transportation on a directed graph.

    Flow may only travel along ``edges``; an edge carrying positive flow pays
    its fixed cost.  Sources and sinks are disjoint vertex subsets with
    balanced totals.
    """

    vertices: tuple
    edges: tuple[tuple[Vertex, Vertex, Fraction], ...]
    supplies: dict
    demands: dict


def _checked_edges(edges, vertex_set) -> tuple:
    """Edges as (u, v, Fraction cost), refusing unknown endpoints, self-loops,
    repeated edges and negative costs."""
    norm_edges = []
    seen = set()
    for u, v, cost in edges:
        if u not in vertex_set or v not in vertex_set:
            raise FctpError(f"edge ({u}, {v}) references unknown vertex")
        if u == v:
            raise FctpError("self-loops are not allowed")
        if (u, v) in seen:
            raise FctpError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        cost = Fraction(cost)
        if cost < 0:
            raise FctpError("edge costs must be nonnegative")
        norm_edges.append((u, v, cost))
    return tuple(norm_edges)


def make_digraph(vertices, edges, supplies, demands) -> DigraphInstance:
    vertices = tuple(vertices)
    vertex_set = set(vertices)
    if len(vertex_set) != len(vertices):
        raise FctpError("duplicate vertex ids")
    edges = _checked_edges(edges, vertex_set)
    supplies = {v: int(a) for v, a in dict(supplies).items()}
    demands = {v: int(b) for v, b in dict(demands).items()}
    if set(supplies) & set(demands):
        raise FctpError("sources and sinks must be disjoint")
    if any(a <= 0 for a in supplies.values()) or any(
        b <= 0 for b in demands.values()
    ):
        raise FctpError("supplies and demands must be positive")
    if not set(supplies) <= vertex_set or not set(demands) <= vertex_set:
        raise FctpError("sources and sinks must be vertices")
    if sum(supplies.values()) != sum(demands.values()):
        raise FctpError("total supply must equal total demand")
    return DigraphInstance(
        vertices=vertices,
        edges=edges,
        supplies=supplies,
        demands=demands,
    )


def normalize_digraph(dg: DigraphInstance) -> DigraphInstance:
    """Detach sources from incoming edges and sinks from outgoing edges.

    A source with an incoming edge is replaced by a fresh pendant source
    feeding it through a zero-cost edge (it becomes an internal vertex), and
    symmetrically for sinks.  The optimum is unchanged.
    """
    has_in = {v for _, v, _ in dg.edges}
    has_out = {u for u, _, _ in dg.edges}
    vertices = list(dg.vertices)
    edges = list(dg.edges)
    supplies = dict(dg.supplies)
    demands = dict(dg.demands)
    for s in list(supplies):
        if s in has_in:
            pendant = ("src", s)
            vertices.append(pendant)
            edges.append((pendant, s, Fraction(0)))
            supplies[pendant] = supplies.pop(s)
    for t in list(demands):
        if t in has_out:
            pendant = ("snk", t)
            vertices.append(pendant)
            edges.append((t, pendant, Fraction(0)))
            demands[pendant] = demands.pop(t)
    return make_digraph(vertices, edges, supplies, demands)


def split_digraph_to_bipartite(dg: DigraphInstance) -> Instance:
    """Vertex splitting: every internal v becomes (v_out supply D, v_in demand D).

    D is the total supply, the original edges keep their fixed costs, each
    split pair is joined by a zero-cost edge, and all absent cells are
    forbidden.  The bipartite optimum equals the digraph optimum.
    """
    dg = normalize_digraph(dg)
    internal = [
        v
        for v in dg.vertices
        if v not in dg.supplies and v not in dg.demands
    ]
    row_ids = [("source", v) for v in dg.vertices if v in dg.supplies]
    row_ids += [("out", v) for v in internal]
    col_ids = [("sink", v) for v in dg.vertices if v in dg.demands]
    col_ids += [("in", v) for v in internal]
    row_pos = {v: k for k, (_, v) in enumerate(row_ids)}
    col_pos = {v: k for k, (_, v) in enumerate(col_ids)}
    total = sum(dg.supplies.values())

    n, m = len(row_ids), len(col_ids)
    fixed = [[Fraction(0)] * m for _ in range(n)]
    linear = [[INF] * m for _ in range(n)]
    for u, v, cost in dg.edges:
        i = row_pos[u]
        j = col_pos[v]
        fixed[i][j] = cost
        linear[i][j] = Fraction(0)
    for v in internal:
        i = row_pos[v]
        j = col_pos[v]
        fixed[i][j] = Fraction(0)
        linear[i][j] = Fraction(0)
    supplies = [
        dg.supplies[v] if kind == "source" else total for kind, v in row_ids
    ]
    demands = [
        dg.demands[v] if kind == "sink" else total for kind, v in col_ids
    ]
    return make_instance(supplies, demands, fixed, linear)


@dataclass(frozen=True)
class DstInstance:
    """Directed Steiner tree: connect the root to every terminal, cheaply."""

    vertices: tuple
    edges: tuple[tuple[Vertex, Vertex, Fraction], ...]
    root: Vertex
    terminals: tuple


def make_dst(vertices, edges, root, terminals) -> DstInstance:
    vertices = tuple(vertices)
    vertex_set = set(vertices)
    terminals = tuple(terminals)
    if root not in vertex_set:
        raise FctpError("root must be a vertex")
    if not terminals:
        raise FctpError("need at least one terminal")
    if len(set(terminals)) != len(terminals):
        raise FctpError("duplicate terminals")
    if root in terminals:
        raise FctpError("root cannot be a terminal")
    edges = _checked_edges(edges, vertex_set)
    if not set(terminals) <= vertex_set:
        raise FctpError("terminals must be vertices")
    return DstInstance(
        vertices=vertices, edges=edges, root=root, terminals=terminals
    )


def reachable(edges, start) -> set:
    """Every vertex a directed walk over edges, (u, v, cost) triples, reaches
    from start, start included."""
    adj: dict = {}
    for u, v, _ in edges:
        adj.setdefault(u, []).append(v)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj.get(u, []):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def dst_to_pfct_digraph(dst: DstInstance) -> DigraphInstance:
    """Root becomes a source with supply k; each terminal a unit-demand sink.

    A terminal with several incoming edges or any outgoing edge first gets a
    zero-cost pendant copy, so each sink has exactly one incoming edge; the
    optimum is unchanged.  Any optimal flow can be assumed cycle-free, so its
    support is exactly a Steiner tree and the optima coincide.
    """
    reach = reachable(dst.edges, dst.root)
    for t in dst.terminals:
        if t not in reach:
            raise FctpError("infeasible DST")
    in_deg: dict = {}
    out_deg: dict = {}
    for u, v, _ in dst.edges:
        in_deg[v] = in_deg.get(v, 0) + 1
        out_deg[u] = out_deg.get(u, 0) + 1
    vertices = list(dst.vertices)
    edges = list(dst.edges)
    terminals = []
    for t in dst.terminals:
        if in_deg.get(t, 0) != 1 or out_deg.get(t, 0) > 0:
            pendant = ("term", t)
            vertices.append(pendant)
            edges.append((t, pendant, Fraction(0)))
            terminals.append(pendant)
        else:
            terminals.append(t)
    k = len(terminals)
    return make_digraph(
        vertices,
        edges,
        supplies={dst.root: k},
        demands={t: 1 for t in terminals},
    )


@dataclass(frozen=True)
class SetCoverInstance:
    """Dominating-set view of set cover: sets on one side, elements on the other."""

    n_elements: int
    sets: tuple[tuple[int, ...], ...]


def make_setcover(n_elements, sets) -> SetCoverInstance:
    n_elements = int(n_elements)
    if n_elements < 1:
        raise FctpError("need at least one element")
    norm = []
    for members in sets:
        members = tuple(sorted(set(int(u) for u in members)))
        if any(not 0 <= u < n_elements for u in members):
            raise FctpError("set member out of range")
        norm.append(members)
    if not norm:
        raise FctpError("need at least one set")
    return SetCoverInstance(n_elements=n_elements, sets=tuple(norm))


def setcover_to_fct_s(sc: SetCoverInstance) -> Instance:
    """Sink-independent instance whose optimum is the minimum dominating size.

    Sources: a hub s* (fixed cost 1, supply = number of elements) plus one
    v_out per set (fixed cost 0, supply = number of elements).  Sinks: one
    v_in per set (demand = number of elements) and one unit-demand sink per
    element.  Allowed edges: (v_out, v_in), (s*, v_in), and (v_out, u) for u
    in the set v; everything else is forbidden.  A set's v_in either swallows
    its whole v_out (the set is unused) or takes hub flow (paying 1) while
    v_out covers elements.
    """
    m = len(sc.sets)
    n = sc.n_elements
    covered = set(itertools.chain.from_iterable(sc.sets))
    for u in range(n):
        if u not in covered:
            raise FctpError(f"element {u + 1} has no covering set")
    rows = 1 + m  # s*, then v_out per set
    cols = m + n  # v_in per set, then elements
    supplies = [n] + [n] * m
    demands = [n] * m + [1] * n
    fixed = [[Fraction(1)] * cols] + [
        [Fraction(0)] * cols for _ in range(m)
    ]
    linear = [[INF] * cols for _ in range(rows)]
    for v in range(m):
        linear[0][v] = Fraction(0)  # s* -> v_in
        linear[1 + v][v] = Fraction(0)  # v_out -> v_in
        for u in sc.sets[v]:
            linear[1 + v][m + u] = Fraction(0)  # v_out -> element
    return make_instance(supplies, demands, fixed, linear)


@dataclass(frozen=True)
class ThreeDmInstance:
    """3-dimensional matching with |X| = |Y| = |Z| = n, triples 0-based."""

    n: int
    triples: tuple[tuple[int, int, int], ...]


def make_threedm(n, triples) -> ThreeDmInstance:
    n = int(n)
    if n < 1:
        raise FctpError("need n >= 1")
    norm = []
    for x, y, z in triples:
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise FctpError("triple coordinate out of range")
        norm.append((int(x), int(y), int(z)))
    if len(set(norm)) != len(norm):
        raise FctpError("duplicate triples")
    return ThreeDmInstance(n=n, triples=tuple(norm))


def default_delta(n: int, b_prime: int) -> int:
    return 2 * (6 * n + 1) ** b_prime


# Most multisets verify_h_independence walks, counted before its loop.
MAX_INDEPENDENCE_MULTISETS = 10**7


def verify_h_independence(b_values, b_prime: int) -> bool:
    """True iff no integer vector h with 1 <= |h|_1 <= b_prime kills the b's.

    With every b positive, a nonzero h with h . b = 0 has both signs: its
    positive and negative parts are two different multisets of positions, of
    sizes p, q >= 1 with p + q <= b_prime, whose b-sums are equal.
    Conversely, the difference of two such multisets is such an h.  A zero or
    negative b breaks the first step (h = e_v kills a zero b_v), so it is
    refused.  The multisets of sizes 1 .. b_prime - 1 are walked by
    increasing size, and each sum first seen at a size <= b_prime / 2 keeps
    that size.  Of two colliding multisets, the one met first has size at
    most b_prime / 2, so the later one finds its sum.
    """
    b = [int(x) for x in b_values]
    if any(x <= 0 for x in b):
        raise FctpError("independence check needs positive demands")
    sizes = range(1, b_prime)
    multisets = sum(math.comb(len(b) + s - 1, s) for s in sizes)
    if multisets > MAX_INDEPENDENCE_MULTISETS:
        raise GuardError("independence check too large to enumerate")
    first_size: dict[int, int] = {}
    for s in sizes:
        for total in map(sum, itertools.combinations_with_replacement(b, s)):
            p = first_size.get(total)
            if p is None:
                if 2 * s <= b_prime:
                    first_size[total] = s
            elif p + s <= b_prime:
                return False
    return True


# Demand draws threedm_to_pfct_u makes before it gives up.
MAX_DRAWS = 64


def threedm_to_pfct_u(
    tdm: ThreeDmInstance,
    delta: int | None = None,
    seed: int = 0,
    b_prime: int = 6,
) -> tuple[Instance, dict]:
    """Pure uniform instance whose balanced partition mirrors the matching.

    Each element v gets a random integer demand b_v in (delta, 2*delta];
    each triple ijk becomes a source with supply b_i + b_j + b_k, and a
    dummy sink absorbs the surplus.  Demands are redrawn until they pass
    :func:`verify_h_independence` at b_prime (each draw succeeds with
    probability at least 1/2 for the default delta), so small balanced sets
    are forced to be unions of canonical {i, j, k, ijk} sets; after
    MAX_DRAWS failed draws it gives up with FctpError.

    Returns the instance and a replayable demand record.  The 3n element
    sinks come in X, Y, Z order followed by the dummy sink, sources in
    triple order.
    """
    if not 1 <= b_prime <= 6:
        raise FctpError("b_prime must be between 1 and 6")
    if len(tdm.triples) < 2:
        raise FctpError("need more triples or larger instance")
    if delta is None:
        delta = default_delta(tdm.n, b_prime)
    if delta < 1:
        raise FctpError("delta must be positive")
    rng = random.Random(seed)
    n = tdm.n
    draws = 0
    while True:
        draws += 1
        if draws > MAX_DRAWS:
            raise FctpError("could not draw independent demands")
        b = [rng.randint(delta + 1, 2 * delta) for _ in range(3 * n)]
        if verify_h_independence(b, b_prime):
            break
    supplies = [b[x] + b[n + y] + b[2 * n + z] for x, y, z in tdm.triples]
    dummy = sum(supplies) - sum(b)
    if dummy <= 0:
        raise FctpError("need more triples or larger instance")
    instance = uniform_pure_instance(supplies, b + [dummy])
    record = {
        "seed": seed,
        "delta": delta,
        "b_prime": b_prime,
        "draws": draws,
        "element_demands": tuple(b),
        "dummy_demand": dummy,
    }
    return instance, record
