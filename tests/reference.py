"""Reference computations the suite checks the package against, on its public API."""

from fractions import Fraction

from fctp import oracle
from fctp.errors import FctpError, GuardError, InfeasibleError, VariantError
from fctp.model import INF, VariantTag, classify_variant, evaluate_cost, signed_weights
from fctp.pfct_s import greedy_solve, pi, sorted_view
from fctp.transport import solve_transportation


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
    f = view.fixed_sorted
    return greedy_cost <= opt1 + delta * f[0] + sum(f[1:], Fraction(0))


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
