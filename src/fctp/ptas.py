"""(1 + eps)-approximation for pure instances with few sources.

Guess the set P of expensive edges used by the optimum.  With t the cheapest
fixed cost in P, a guess allows A(P) = P plus every edge with f <= t; the
linear relaxation sum(x_ij / b_j * f_ij) is solved over A(P) (P's fixed
costs are sunk, so P's edges weigh 0) and the candidate's actual cost is
evaluated; the cheapest candidate wins, the first enumerated among equals.
Candidates run over the acyclic sets of allowed (finite linear cost) edges
of size up to min(2n/eps, number of allowed edges, n + m - 1), by size and
then lexicographically: a guess of size exactly 2n/eps covers optima with at
least that many support edges, and the exact optimal support (at most
n + m - 1 edges) covers the rest.  Some optimum sits at an extreme point of
the transportation polytope, whose support is a forest, and every subset of
a forest is a forest, so the guesses that bound needs are all acyclic and
skipping cyclic ones keeps the (1 + eps) ratio.

Only a guess that could strictly beat the best candidate so far reaches the
transport core.  Two kinds are skipped, each without changing the result:

- Infeasible: no flow fits inside A(P).  On a balanced instance a flow
  exists exactly when a(S) <= b(N(S)) for every set S of sources, N(S) being
  the sinks A(P) joins to S (Gale 1957, transport.gale_deficits).  The 2^n
  sets, n being the scheme's parameter, are tested once per threshold t on
  the edges with f <= t, and P must add sinks to each set that fails there
  to cover its deficit: the guesses transport would reject.
- Dominated: each sink j receives b_j inside A(P) from a set T of sources
  with a(T) >= b_j, and each edge has one sink, so the flow costs at least
  the sum over sinks of the least such sum of f_ij over T (read from a
  per-sink table over the sets of allowed sources), and, as every source
  ships, the sum over sources of the cheapest fixed cost A(P) allows there.
  A guess whose bound, the larger sum, is at least the best cost so far
  cannot win the strict comparison.

The walk stops once the best cost meets a floor L on every flow's cost: the
cover bound above with every allowed edge and no guess, raised to Balinski's
LP (transport.balinski_weights) rounded up when the first candidate costs
more than the cover bound.  Every candidate is a feasible flow, costing at
least OPT >= L, so once the best cost is <= L no later guess wins the strict
comparison and the output is the full walk's.  When every allowed edge fails
Gale's test, no guess fits, and the instance is refused before the walk.
The stop narrows the gap to the paper's EPAS in practice, where an optimum
often meets L at the first guesses, but not in the worst case, where the
floor stays below OPT and the walk runs to the end.

Costs are compared as ints, the fixed costs scaled by one common denominator,
and transport gets the relaxation weights f_ij / b_j as ints, scaled once more
by lcm(b): one positive factor for every weight, so every comparison transport
makes, and so its flow, is that of the rational weights.  Guesses call
transport's unchecked int core, which is safe since an Instance is valid by
construction, and only the winner becomes a FlowSolution.  The
per-threshold tables are O(nm + 2^n) each, so no state grows with the number
of guesses.  An instance with a source or sink that has no allowed edge is
refused before any table is built; otherwise the guesses reach size n, so
MAX_CANDIDATES bounds the 2^n subset sums, and the cover tables too: each
nonempty set of a sink's allowed sources is one guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import FctpError, GuardError, InfeasibleError, VariantError
# evaluate_cost and solve_transportation are unused here (guesses call
# int_transportation); perfbench/tracing.py wraps both by name in fctp.ptas.
from .model import (  # noqa: F401
    FlowSolution,
    Instance,
    check_epsilon,
    classify_variant,
    evaluate_cost,
    integer_scaled,
    subset_sums,
)
from .transport import balinski_weights, gale_deficits, int_transportation, unmet
from .transport import solve_transportation  # noqa: F401


# Most guesses ptas_solve enumerates, counted before its loop as every edge
# subset up to the guess size, cyclic ones included: a bound on the acyclic
# guesses that is known before the first of them reaches transport.
MAX_CANDIDATES = 10**7


def candidate_sizes(inst: Instance, eps: Fraction) -> range:
    inverse = Fraction(1, 1) / eps
    if inverse.denominator != 1:
        raise FctpError("1/epsilon must be an integer")
    allowed = sum(1 for _ in inst.edges())
    cap = min(2 * inst.n * int(inverse), allowed, inst.n + inst.m - 1)
    return range(0, cap + 1)


def forest_combinations(edges, n: int, size: int):
    """The acyclic ``size``-subsets of ``edges``, pairs (i, j) of source i and
    sink j, in the order ``itertools.combinations(edges, size)`` yields them.

    A prefix grows one edge at a time, never by an edge whose ends already
    share a component, so no cyclic superset is built.  ``comp[v]`` is the
    bitmask of v's component in the prefix, source i being bit i and sink j
    bit n + j; the walk holds one such list per edge of the current prefix.
    """
    if size < 4:  # a bipartite cycle has at least 4 edges
        return itertools.combinations(edges, size)
    ends = [(i, n + j) for i, j in edges]

    def extend(prefix, start, comp):
        depth = len(prefix) + 1
        # The edge at this depth leaves size - depth edges after it.
        for k in range(start, len(edges) - size + depth):
            u, v = ends[k]
            if comp[u] >> v & 1:
                continue
            combo = prefix + (edges[k],)
            if depth == size:
                yield combo
            else:
                merged = comp[u] | comp[v]
                yield from extend(
                    combo, k + 1, [merged if merged >> w & 1 else c for w, c in enumerate(comp)]
                )

    width = 1 + max((v for _, v in ends), default=0)
    return extend((), 0, [1 << v for v in range(width)])


def ptas_solve(inst: Instance, eps) -> FlowSolution:
    """Best-of-all-guesses solution; cost at most (1 + eps) times optimal."""
    tag = classify_variant(inst)
    if not tag.pure_modulo_forbidden:
        raise VariantError("requires PFCT")
    eps = check_epsilon(eps)
    if eps <= 0:
        raise FctpError("epsilon must be positive")
    sizes = candidate_sizes(inst, eps)
    edges = sorted(inst.edges())
    if len({i for i, _ in edges}) < inst.n or len({j for _, j in edges}) < inst.m:
        raise InfeasibleError("no feasible transportation")
    total_candidates = sum(comb(len(edges), s) for s in sizes)
    if total_candidates > MAX_CANDIDATES:
        raise GuardError("instance too large for PTAS enumeration")

    guesses = _Guesses(inst)
    edge_fixed = {(i, j): guesses.fixed[i][j] for i, j in edges}.__getitem__
    top = guesses.level(None)
    if top.deficits:  # every guess lies inside these edges
        raise InfeasibleError("no feasible transportation")
    # floor <= every flow's scaled cost; the LP part is solved only when the
    # first candidate, the empty guess's, is not already down to the cover part.
    floor = guesses.lower_bound(top, ())
    best_cost: int | None = None
    best_flow: dict | None = None
    for combo in itertools.chain.from_iterable(
        forest_combinations(edges, inst.n, size) for size in sizes
    ):
        level = guesses.level(min(map(edge_fixed, combo), default=None))
        if level.deficits and not guesses.fits(level, combo):
            continue
        if best_cost is not None and guesses.lower_bound(level, combo) >= best_cost:
            continue
        flow = int_transportation(inst.supplies, inst.demands, guesses.weights(level, combo))
        cost = sum(map(edge_fixed, flow))
        if best_cost is None or cost < best_cost:
            if best_cost is None and cost > floor:
                floor = max(floor, guesses.lp_floor())
            best_cost = cost
            best_flow = flow
            if best_cost <= floor:  # no later guess can cost strictly less
                break
    return FlowSolution(entries={e: Fraction(x) for e, x in sorted(best_flow.items())})


def _least_covers(sets, costs, supply_sums, demand) -> dict:
    """{sets[t]: the least costs[u] over the subsets sets[u] of sets[t] with
    a(sets[u]) >= demand, or None when a(sets[t]) < demand}, in O(k 2^k):
    ``sets`` holds every set of some k sources, sets[t] the sources at t's bits.
    """
    least = [c if supply_sums[s] >= demand else None for s, c in zip(sets, costs)]
    step = 1
    while step < len(least):
        for t in range(len(least)):
            # A superset of a covering set covers, so least[t] is set when below is.
            below = least[t ^ step] if t & step else None
            if below is not None and below < least[t]:
                least[t] = below
        step <<= 1
    return dict(zip(sets, least))


@dataclass(frozen=True)
class _Level:
    """The edges with scaled fixed cost <= t (every edge when t is None).

    ``cols`` hold each sink's sources as a bitmask, ``deficits`` the
    (S, N(S), a(S) - b(N(S))) of each set S of sources that fails Gale's
    test on these edges, none when they alone can carry the flow,
    ``source_min`` each source's cheapest scaled fixed cost among them
    (None for one they leave unreached), and ``weights`` the relaxation
    with no edge guessed, in scaled ints, None on a forbidden edge.
    """

    cols: tuple[int, ...]
    deficits: tuple[tuple[int, int, int], ...]
    source_min: tuple
    weights: tuple[tuple, ...]


class _Guesses:
    """Per-instance tables every guess reads, one :class:`_Level` per threshold."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.scale, (self.fixed,) = integer_scaled(inst.fixed)
        # Weight f_ij / b_j is fixed[i][j] * per_unit[j], up to one positive
        # factor common to every weight; demands are positive.
        demand_lcm = lcm(*inst.demands)
        self.per_unit = [demand_lcm // b for b in inst.demands]
        # supply_sums[s] = a(S) for every set S of sources, s being S as a bitmask.
        self.supply_sums = subset_sums(inst.supplies)
        # cover[j] maps each set s of the sources allowed into sink j, as a
        # bitmask, to the least scaled fixed cost of a set T within s with
        # a(T) >= b_j, and to None when a(s) < b_j.
        sets, costs = [[0] for _ in inst.demands], [[0] for _ in inst.demands]
        for i, j in inst.edges():
            sets[j] += [s | 1 << i for s in sets[j]]
            costs[j] += [c + self.fixed[i][j] for c in costs[j]]
        self.cover = [
            _least_covers(s, c, self.supply_sums, b) for s, c, b in zip(sets, costs, inst.demands)
        ]
        self._levels: dict = {}

    def level(self, threshold) -> _Level:
        level = self._levels.get(threshold)
        if level is None:
            level = self._levels[threshold] = self._build_level(threshold)
        return level

    def _build_level(self, threshold) -> _Level:
        inst, fixed, per_unit = self.inst, self.fixed, self.per_unit
        masks = [0] * inst.n
        cols = [0] * inst.m
        source_min = [None] * inst.n
        weights = [[None] * inst.m for _ in range(inst.n)]
        for i, j in inst.edges():
            c = fixed[i][j]
            if threshold is not None and c > threshold:
                continue
            masks[i] |= 1 << j
            cols[j] |= 1 << i
            if source_min[i] is None or c < source_min[i]:
                source_min[i] = c
            weights[i][j] = c * per_unit[j]
        return _Level(
            cols=tuple(cols),
            deficits=tuple(gale_deficits(self.supply_sums, inst.demands, masks)),
            source_min=tuple(source_min),
            weights=tuple(tuple(row) for row in weights),
        )

    def fits(self, level: _Level, combo) -> bool:
        """Whether any flow fits inside the level's edges plus ``combo``:
        only the level's deficit sets can fail, as edges only grow N(S)."""
        for s, reach, short in level.deficits:
            grown = reach
            for i, j in combo:
                if s >> i & 1:
                    grown |= 1 << j
            if grown == reach or unmet(short, self.inst.demands, grown ^ reach) > 0:
                return False
        return True

    def lower_bound(self, level: _Level, combo) -> int:
        """Scaled cost floor of any flow inside the level's edges plus ``combo``:
        the larger of the sum over sinks of the cheapest covering set of
        sources and the sum over sources of the cheapest edge.

        Call only on a feasible guess, where every sink's sources can cover
        its demand and every source has an edge.
        """
        fixed = self.fixed
        cols, sources = list(level.cols), list(level.source_min)
        for i, j in combo:
            cols[j] |= 1 << i
            c = fixed[i][j]
            if sources[i] is None or c < sources[i]:
                sources[i] = c
        return max(sum(map(dict.__getitem__, self.cover, cols)), sum(sources))

    def lp_floor(self) -> int:
        """Balinski's LP value in scaled cost, rounded up: a scaled cost floor
        of every flow, since scaled costs are ints."""
        inst = self.inst
        common, weights = balinski_weights(inst)
        _, (rows,) = integer_scaled(weights)  # INF becomes None, ints stay
        flow = int_transportation(inst.supplies, inst.demands, rows)
        value = sum(rows[i][j] * x for (i, j), x in flow.items())
        return -(-self.scale * value // common)

    def weights(self, level: _Level, combo) -> list[list]:
        """Relaxation weights under a guess: guessed edges are free (their
        fixed costs are sunk), the level's other edges pay f/b fractionally,
        the rest are forbidden."""
        rows = [list(row) for row in level.weights]
        for i, j in combo:
            rows[i][j] = 0
        return rows
