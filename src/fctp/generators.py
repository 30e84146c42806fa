"""Seeded random instance families for benchmarks and test suites.

All randomness flows through an explicit ``random.Random`` so every family
is reproducible from (name, size, seed).
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from functools import cache, partial

from .errors import FctpError
from .model import INF, Instance, is_int, make_instance, pure_instance, uniform_pure_instance


def split_total(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of `total` into `parts` positive integers."""
    if total < parts:
        raise FctpError("total too small to split")
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[k + 1] - bounds[k] for k in range(parts)]


def _balanced_sides(rng, n, m, max_supply):
    supplies = [rng.randint(1, max_supply) for _ in range(n)]
    # Demands must be positive, so the total has to reach m; top up the last
    # supply when a small draw cannot cover many sinks.
    deficit = m - sum(supplies)
    if deficit > 0:
        supplies[-1] += deficit
    return supplies, split_total(rng, sum(supplies), m)


def random_pfct_s(
    rng: random.Random, n: int, m: int, max_supply: int = 12, max_fixed: int = 20
) -> Instance:
    """Pure instance with sink-independent fixed costs."""
    supplies, demands = _balanced_sides(rng, n, m, max_supply)
    f = [rng.randint(1, max_fixed) for _ in range(n)]
    rows = {}  # one row object per distinct cost, as a parsed file shares lines
    return pure_instance(supplies, demands, [rows.setdefault(x, [x] * m) for x in f])


def random_pfct_u(
    rng: random.Random, total_vertices: int, max_supply: int = 10
) -> Instance:
    """Pure uniform instance with n + m == total_vertices."""
    if total_vertices < 2:
        raise FctpError("need at least one source and one sink")
    n = rng.randint(1, total_vertices - 1)
    m = total_vertices - n
    supplies, demands = _balanced_sides(rng, n, m, max_supply)
    return uniform_pure_instance(supplies, demands)


def random_pure(
    rng: random.Random, n: int, m: int, max_supply: int = 10, max_fixed: int = 12
) -> Instance:
    """Pure instance with a general fixed-cost matrix."""
    supplies, demands = _balanced_sides(rng, n, m, max_supply)
    fixed = [[rng.randint(0, max_fixed) for _ in range(m)] for _ in range(n)]
    return pure_instance(supplies, demands, fixed)


def random_fct(
    rng: random.Random,
    n: int,
    m: int,
    max_supply: int = 10,
    max_fixed: int = 12,
    max_linear: int = 6,
    halves: bool = True,
) -> Instance:
    """General instance; costs are integers or half-integers for texture."""
    supplies, demands = _balanced_sides(rng, n, m, max_supply)
    den = 2 if halves else 1
    cost = cache(partial(Fraction, denominator=den))  # one object per distinct draw
    fixed = [[cost(rng.randint(0, max_fixed * den)) for _ in range(m)] for _ in range(n)]
    linear = [[cost(rng.randint(0, max_linear * den)) for _ in range(m)] for _ in range(n)]
    return make_instance(supplies, demands, fixed, linear)


def random_fct_u(
    rng: random.Random,
    n: int,
    m: int,
    max_supply: int = 10,
    max_linear: int = 6,
    forbid_probability: float = 0.0,
) -> Instance:
    """Uniform fixed costs, random linear costs, optional forbidden edges.

    Forbidden edges are re-rolled until at least one full assignment stays
    feasible (every row and column keeps a usable edge and a greedy check
    passes via column 0 fallback: the first column is never forbidden).
    """
    supplies, demands = _balanced_sides(rng, n, m, max_supply)
    fixed = [[1] * m for _ in range(n)]
    linear = []
    for i in range(n):
        row = []
        for j in range(m):
            if j > 0 and i > 0 and rng.random() < forbid_probability:
                row.append(INF)
            else:
                row.append(rng.randint(0, max_linear))
        linear.append(row)
    return make_instance(supplies, demands, fixed, linear)


# Each family takes (rng, n, m) and its own keyword options.
FAMILIES = {
    "pfct-s": random_pfct_s,
    "pfct-u": lambda rng, n, m, max_supply=10: random_pfct_u(rng, n + m, max_supply),
    "pure": random_pure,
    "fct": random_fct,
    "fct-u": random_fct_u,
}


# Largest instance, in cells n * m, a checked request may build.
MAX_CELLS = 250_000

# Least value of each integer option; pfct-s draws fixed costs from 1.
_LEAST = {"max_supply": 1, "max_fixed": 0, "max_linear": 0}


def largest_cells(family: str, n: int, m: int) -> int:
    """Most cells n * m an instance generate(family, n, m, ...) can have."""
    if family == "pfct-u":  # it splits the n + m vertices its own way
        return (n + m) ** 2 // 4
    return n * m


def check_options(family: str, options: dict) -> None:
    """Raise FctpError unless FAMILIES[family] takes these keyword options."""
    try:
        inspect.signature(FAMILIES[family]).bind(None, 1, 1, **options)
    except TypeError as exc:
        raise FctpError(f"family {family!r}: {exc}") from None
    for key, value in options.items():
        if key == "halves":
            ok, want = type(value) is bool, "true or false"
        elif key == "forbid_probability":
            ok = type(value) in (int, float) and 0 <= value <= 1
            want = "a number in [0, 1]"
        else:
            least = 1 if (family, key) == ("pfct-s", "max_fixed") else _LEAST[key]
            ok, want = is_int(value) and value >= least, f"an integer >= {least}"
        if not ok:
            raise FctpError(f"family {family!r}: {key!r} must be {want}, got {value!r}")


def generate(family: str, n: int, m: int, seed: int, **kwargs) -> Instance:
    if family not in FAMILIES:
        raise FctpError(f"unknown family {family!r}")
    check_options(family, kwargs)
    return FAMILIES[family](random.Random(seed), n, m, **kwargs)
