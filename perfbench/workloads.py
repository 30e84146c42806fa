"""The benchmark's workloads: seeded inputs, one timed call per op, exact checks.

Each workload turns a seed into a list of ops during set-up, runs one op
through the fctp entry point it measures (``execute``, the timed region),
and checks the result outside the timed region (``check``).  ``check``
returns the op's serialized output, which feeds the run's digest, or raises
:class:`CheckFailed`.  Every bound is compared as exact rationals.

Entry points are looked up on their fctp module at call time, so a traced
pass sees them through the tracer's wrappers.  Reference values and checks
use the functions captured when the workload is built, before any wrapping,
so their time counts as the benchmark's own.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path


class CheckFailed(Exception):
    """An op returned a wrong output or broke its proven bound."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    data: object  # what execute takes: an argv, an instance or a reduction input
    instance: object = None  # lp_solve: the instance behind the argv's file


class Workload:
    """Base: a pattern of op slots repeated until ``pool_size`` ops exist."""

    pool_size = 0
    trace_ops = 0

    def __init__(self, fctp):
        self.f = fctp
        model = fctp.model
        self.validate_solution = model.validate_solution
        self.evaluate_cost = model.evaluate_cost
        self.serialize_solution = model.serialize_solution
        self.exact_fct = fctp.oracle.exact_fct
        self._reference: dict[int, object] = {}

    def build(self, seed: int, workdir: Path) -> tuple[list[Op], float]:
        """The op pool and the seconds spent inside fctp.generators."""
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, index: int, op: Op, result) -> str:
        raise NotImplementedError

    def reference(self, index: int, compute):
        """Per-op reference value, computed once, outside the timed region."""
        if index not in self._reference:
            self._reference[index] = compute()
        return self._reference[index]

    def check_flow(self, inst, flow) -> Fraction:
        violation = self.validate_solution(inst, flow)
        require(violation is None, f"invalid flow: {violation}")
        return self.evaluate_cost(inst, flow)


def _timed_generate(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


# ---------------------------------------------------------------------------
# lp_solve: `fctp solve` end to end on instance files, one large LP per op.


class LpSolve(Workload):
    """In-process ``fctp solve`` on files written during set-up.

    Slots come in three time bands, 30% small, 40% middle and 30% large, so
    that the median and the 90th percentile fall inside a band rather than
    on the edge between two.
    """

    PATTERN = (
        ("fct-u", "fct-u", 10, 20),
        ("fct-u", "fct-u", 14, 28),
        ("fct-bicriteria", "fct", 18, 36),
        ("fct-bicriteria", "fct", 10, 20),
        ("fct-bicriteria", "fct", 14, 28),
        ("pfct-s", "pfct-s", 80, 160),
        ("pfct-s", "pfct-s", 40, 80),
        ("fct-u", "fct-u", 14, 28),
        ("fct-u", "fct-u", 18, 36),
        ("fct-bicriteria", "fct", 14, 28),
    )
    pool_size = 60
    trace_ops = 20
    EPSILON = Fraction(1, 4)

    def build(self, seed, workdir):
        generate = self.f.generators.generate
        serialize = self.f.model.serialize_instance
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        ops, generating = [], 0.0
        for index in range(self.pool_size):
            variant, family, n, m = self.PATTERN[index % len(self.PATTERN)]
            inst, spent = _timed_generate(generate, family, n, m, rng.getrandbits(32))
            generating += spent
            path = workdir / f"instance-{index:03d}.txt"
            path.write_text(serialize(inst), encoding="utf-8")
            argv = ["solve", "--variant", variant, "--input", str(path)]
            if variant == "fct-bicriteria":
                argv += ["--epsilon", "1/4"]
            argv += ["--out", str(workdir / f"solution-{index:03d}.txt")]
            ops.append(Op(variant, argv, inst))
        return ops, generating

    def execute(self, op):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.f.cli.main(op.data)
        return code, stdout.getvalue()

    def check(self, index, op, result):
        code, stdout = result
        require(code == 0, f"fctp solve exited with {code}")
        record = json.loads(stdout)
        text = Path(op.data[-1]).read_text(encoding="utf-8")
        flow = self.f.model.parse_solution(text)
        inst = op.instance
        cost = self.check_flow(inst, flow)
        require(Fraction(record["cost"]) == cost, "reported cost differs from the flow's")
        if op.kind == "fct-u":
            self._check_fct_u(inst, flow, cost)
        elif op.kind == "fct-bicriteria":
            require(flow.relaxation == self.EPSILON, "solution lacks the relaxed tag")
            lp_value = Fraction(record["parameters"]["lp_value"])
            bound = Fraction(record["parameters"]["cost_bound"])
            require(bound == bicriteria_factor(self.EPSILON) * lp_value, "cost_bound != K(eps/4) * lp")
            require(cost <= bound, "bicriteria cost above cost_bound")
        else:
            lower, slack, total = self.reference(index, lambda: pfct_s_bounds(inst))
            params = record["parameters"]
            require(Fraction(params["opt_lower_bound"]) == lower, "wrong opt_lower_bound")
            require(Fraction(params["greedy_upper_bound"]) == lower + slack, "wrong greedy_upper_bound")
            require(cost <= lower + slack, "greedy cost above its upper bound")
            # Every source ships somewhere, so opt >= sum f_i >= slack too.
            require(cost <= 2 * max(lower, total), "greedy cost above 2 * opt")
        return text

    def _check_fct_u(self, inst, flow, cost):
        linear = sum((inst.linear[i][j] * x for (i, j), x in flow.entries.items()), Fraction(0))
        require(no_negative_cycle(inst, flow), "linear part is not LP-optimal")
        # opt >= LP + max(n, m): every source and sink needs an edge.
        require(cost <= 2 * (linear + max(inst.n, inst.m)), "fct-u cost above 2 * opt")


def bicriteria_factor(eps: Fraction) -> Fraction:
    """K(eps/4) = 1 / (t (1 - 2t)) at t = eps/4, independent of fctp's copy."""
    t = eps / 4
    return 1 / (t * (1 - 2 * t))


def pfct_s_bounds(inst) -> tuple[Fraction, Fraction, Fraction]:
    """Independent PFCT-S lower bound, the greedy's slack, and sum f_i.

    Lower bound: sum_i (f_i - f_{i+1}) * pi(a_1 + ... + a_i) over sources in
    nonincreasing f order, pi(t) being the fewest sinks whose demands reach
    t.  Slack: the sum of every fixed cost but the largest.
    """
    f = [row[0] for row in inst.fixed]
    order = sorted(range(inst.n), key=lambda i: (-f[i], i))
    reach, running = [], 0
    for b in sorted(inst.demands, reverse=True):
        running += b
        reach.append(running)
    lower, supplied = Fraction(0), 0
    for pos, i in enumerate(order):
        supplied += inst.supplies[i]
        following = f[order[pos + 1]] if pos + 1 < inst.n else Fraction(0)
        lower += (f[i] - following) * (bisect.bisect_left(reach, supplied) + 1)
    slack = sum((f[i] for i in order[1:]), Fraction(0))
    return lower, slack, slack + f[order[0]]


def no_negative_cycle(inst, flow) -> bool:
    """True when the flow minimizes sum(c_ij x_ij): no negative residual cycle.

    Bellman-Ford on integer-scaled costs over sources and sinks, with a
    forward arc on every finite edge and a backward arc on every used one.
    """
    n = inst.n
    scale = 1
    for row in inst.linear:
        for c in row:
            if isinstance(c, Fraction):
                scale = lcm(scale, c.denominator)
    arcs = []
    for i, row in enumerate(inst.linear):
        for j, c in enumerate(row):
            if isinstance(c, Fraction):
                arcs.append((i, n + j, int(c * scale)))
                if (i, j) in flow.entries:
                    arcs.append((n + j, i, -int(c * scale)))
    dist = [0] * (n + inst.m)
    for _ in range(n + inst.m):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return False


# ---------------------------------------------------------------------------
# ptas_small: ptas_solve on tiny pure instances, very many tiny LPs per op.


class PtasSmall(Workload):
    """``ptas_solve(inst, 1/2)`` on ``random_pure`` instances, n <= 3, m <= 4.

    Shapes repeat in a fixed pattern.  Six of twenty slots are 2 x 2 (15
    guesses), which hold the median; three are 3 x 3 (382 guesses), which
    hold the 90th percentile; one is 3 x 4 (2510 guesses), the slowest.
    """

    PATTERN = (
        (1, 1), (2, 2), (3, 3), (1, 2), (2, 2), (1, 4), (2, 1), (2, 2), (2, 3), (3, 3),
        (3, 1), (2, 2), (3, 2), (1, 3), (2, 2), (2, 4), (1, 2), (2, 2), (3, 3), (3, 4),
    )
    pool_size = 400
    trace_ops = 40
    EPSILON = Fraction(1, 2)

    def build(self, seed, workdir):
        random_pure = self.f.generators.random_pure
        rng = random.Random(seed)
        ops, generating = [], 0.0
        for index in range(self.pool_size):
            n, m = self.PATTERN[index % len(self.PATTERN)]
            inst, spent = _timed_generate(random_pure, rng, n, m, max_supply=9, max_fixed=12)
            generating += spent
            ops.append(Op(f"{n}x{m}", inst))
        return ops, generating

    def execute(self, op):
        return self.f.ptas.ptas_solve(op.data, self.EPSILON)

    def check(self, index, op, flow):
        inst = op.data
        cost = self.check_flow(inst, flow)
        opt = self.reference(index, lambda: self.exact_fct(inst)[0])
        require(opt <= cost, "PTAS cost below the optimum")
        require(2 * cost <= 3 * opt, "PTAS cost above (3/2) opt")
        return self.serialize_solution(flow)


# ---------------------------------------------------------------------------
# certify_mix: the acceptance suite's shape at n + m <= 12.


class CertifyMix(Workload):
    """Solver ops each followed by their exact oracle, plus reduction chains.

    Every oracle call stays at n + m <= 12 (``exact_fct`` allocates
    (n + m) * 2^(n + m) slots; GUARD caps it at 14) and the digraph oracle
    at <= 12 edges.  The
    complete 4 x 7 PFCT-S slots (n + m = 11) fill the top 20% of ops, around
    the 90th percentile; the 4 x 5 ones hold the median.
    """

    # (kind, shape): solver ops take (n, m) or a vertex total; reduction
    # ops take the bipartite n + m their chain must produce.
    PATTERN = (
        ("pfct-u-exact", 10),
        ("pfct-s", (4, 5)),
        ("pfct-s", (4, 7)),
        ("fct-u", (3, 4)),
        ("pfct-s", (4, 5)),
        ("dst", 10),
        ("bicriteria", (3, 4)),
        ("pfct-s", (4, 7)),
        ("pfct-u-ls", 10),
        ("pfct-s", (4, 5)),
        ("setcover", (3, 4)),
        ("pfct-u-exact", 12),
        ("pfct-s", (4, 7)),
        ("fct-u", (2, 6)),
        ("pfct-s", (4, 5)),
        ("setcover", (4, 2)),
        ("pfct-u-ls", 12),
        ("pfct-s", (4, 5)),
        ("pfct-s", (4, 7)),
        ("pfct-s", (4, 5)),
    )
    pool_size = 400
    trace_ops = 100
    GUARD = 14
    EPSILON = Fraction(1, 4)

    def build(self, seed, workdir):
        gen = self.f.generators
        rng = random.Random(seed)
        ops, generating = [], 0.0
        for index in range(self.pool_size):
            kind, shape = self.PATTERN[index % len(self.PATTERN)]
            if kind == "pfct-s":
                inst, spent = _timed_generate(gen.random_pfct_s, rng, *shape, max_supply=12, max_fixed=20)
            elif kind.startswith("pfct-u"):
                inst, spent = _timed_generate(gen.random_pfct_u, rng, shape, max_supply=10)
            elif kind == "fct-u":
                inst, spent = _timed_generate(gen.random_fct_u, rng, *shape, max_supply=8, max_linear=6)
            elif kind == "bicriteria":
                inst, spent = _timed_generate(gen.random_fct, rng, *shape, max_supply=9)
            elif kind == "dst":
                inst, spent = self._dst(rng, shape), 0.0
            else:
                inst, spent = self._setcover(rng, *shape), 0.0
            generating += spent
            ops.append(Op(kind, inst))
        return ops, generating

    def _dst(self, rng, vertices):
        """A random DST whose chain gives n + m == vertices, <= 12 digraph edges."""
        red = self.f.reductions
        while True:
            nv = rng.randint(4, 6)
            edges = [
                (u, v, Fraction(rng.randint(0, 5)))
                for u in range(nv)
                for v in range(1, nv)
                if u != v and rng.random() < 0.5
            ]
            reach = {0}
            for _ in range(nv):
                reach |= {v for u, v, _ in edges if u in reach}
            candidates = sorted(reach - {0})
            if not candidates:
                continue
            terminals = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
            dst = red.make_dst(range(nv), edges, 0, terminals)
            digraph = red.dst_to_pfct_digraph(dst)
            inst = red.split_digraph_to_bipartite(digraph)
            if inst.n + inst.m == vertices and len(digraph.edges) <= 12:
                return dst

    def _setcover(self, rng, num_sets, num_elements):
        while True:
            sets = [
                tuple(u for u in range(num_elements) if rng.random() < 0.5)
                for _ in range(num_sets)
            ]
            if all(sets) and {u for s in sets for u in s} == set(range(num_elements)):
                return self.f.reductions.make_setcover(num_elements, sets)

    def execute(self, op):
        f = self.f
        inst = op.data
        if op.kind == "pfct-s":
            flow = f.pfct_s.greedy_solve(inst)
            bounds = (f.pfct_s.opt_lower_bound(inst), f.pfct_s.greedy_upper_bound(inst))
            return flow, bounds, f.oracle.exact_fct(inst, guard=self.GUARD)[0]
        if op.kind == "pfct-u-exact" or op.kind == "pfct-u-ls":
            mode = "exact" if op.kind == "pfct-u-exact" else "ls"
            _, flow = f.pfct_u.solve_pfct_u(inst, mode=mode)
            count, _ = f.oracle.exact_balanced_partition(inst, guard=self.GUARD)
            return flow, None, inst.n + inst.m - count
        if op.kind == "fct-u":
            flow = f.fct_u.solve_fct_u(inst)
            return flow, None, f.oracle.exact_fct(inst, guard=self.GUARD)[0]
        if op.kind == "bicriteria":
            flow, report = f.bicriteria.solve_bicriteria(inst, self.EPSILON)
            return flow, report, f.oracle.exact_fct(inst, guard=self.GUARD)[0]
        if op.kind == "dst":
            digraph = f.reductions.dst_to_pfct_digraph(inst)
            bipartite = f.reductions.split_digraph_to_bipartite(digraph)
            return (
                f.oracle.exact_dst(inst),
                f.oracle.exact_pfct_digraph(digraph, edge_guard=14),
                f.oracle.exact_fct(bipartite, guard=self.GUARD)[0],
            )
        bipartite = f.reductions.setcover_to_fct_s(inst)
        return (
            f.oracle.exact_fct(bipartite, guard=self.GUARD)[0],
            f.oracle.exact_min_dominating(inst),
        )

    def check(self, index, op, result):
        if op.kind in ("dst", "setcover"):
            require(len(set(result)) == 1, f"{op.kind} chain optima differ: {result}")
            return f"{op.kind} {result[0]}\n"
        flow, extra, opt = result
        inst = op.data
        cost = self.check_flow(inst, flow)
        if op.kind == "bicriteria":
            require(extra.actual_cost == cost, "reported cost differs from the flow's")
            require(cost <= bicriteria_factor(self.EPSILON) * extra.lp_value, "cost above K(eps/4) * lp")
            require(extra.lp_value <= opt, "LP value above the optimum")
            return self.serialize_solution(flow)
        require(opt <= cost, "cost below the optimum")
        if op.kind == "pfct-s":
            lower, upper = extra
            require(lower <= opt and cost <= upper, "greedy sandwich broken")
            require(cost <= 2 * opt, "greedy cost above 2 * opt")
        elif op.kind == "pfct-u-exact":
            require(5 * cost <= 6 * opt, "pfct-u cost above (6/5) opt")
        elif op.kind == "pfct-u-ls":
            require(cost <= inst.n + inst.m - 1, "pfct-u ls cost above n + m - 1")
        else:
            require(len(flow.entries) <= inst.n + inst.m - 1, "fct-u support is not a forest")
            require(cost <= 2 * opt, "fct-u cost above 2 * opt")
        return self.serialize_solution(flow)


WORKLOADS = {"lp_solve": LpSolve, "ptas_small": PtasSmall, "certify_mix": CertifyMix}
