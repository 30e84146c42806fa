import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from fctp.errors import FctpError
from fctp.generators import generate, random_pfct_u, split_total
from fctp.model import make_flow, serialize_instance, serialize_solution, validate_instance


def test_generate_checks_options():
    with pytest.raises(FctpError, match="'max_supply' must be an integer >= 1, got 0"):
        generate("pfct-s", 2, 3, 1, max_supply=0)
    with pytest.raises(FctpError, match="family 'fct'"):
        generate("fct", 2, 3, 1, forbid_probability=0.5)
    assert validate_instance(generate("pfct-s", 2, 3, 1, max_supply=1)) is None


def test_small_totals_are_refused():
    rng = random.Random(1)
    with pytest.raises(FctpError, match="total too small to split"):
        split_total(rng, 2, 3)
    assert split_total(rng, 3, 3) == [1, 1, 1]
    for vertices in (0, 1):
        with pytest.raises(FctpError, match="need at least one source and one sink"):
            random_pfct_u(rng, vertices)


# (family, n, m, seed, options): every family, with 1 x m and n x 1 shapes.
SERIALIZE_PINNED = [
    (family, n, m, seed, {})
    for family in ("pfct-s", "pfct-u", "pure", "fct", "fct-u")
    for n, m in ((1, 6), (6, 1), (4, 7), (12, 20))
    for seed in (1, 2)
] + [
    ("fct", 5, 8, 3, {"halves": False}),
    ("fct", 1, 9, 4, {"halves": False}),
    ("fct", 9, 1, 5, {"halves": False}),
    ("fct-u", 6, 9, 6, {"forbid_probability": 0.5}),
    ("fct-u", 1, 9, 7, {"forbid_probability": 0.5}),
    ("fct-u", 9, 1, 8, {"forbid_probability": 0.5}),
    ("fct-u", 12, 20, 9, {"forbid_probability": 0.9, "max_linear": 40}),
    ("pfct-s", 40, 80, 10, {"max_supply": 30, "max_fixed": 1000}),
    ("pure", 10, 12, 11, {"max_fixed": 10**30}),
    ("fct", 10, 12, 12, {"max_fixed": 10**20, "max_linear": 10**20}),
]

FLOWS_PINNED = [
    ({(0, 0): 3}, None),
    ({(0, 0): 1, (0, 1): 0, (2, 1): Fraction(5, 2), (1, 3): Fraction(-6, -4)}, None),
    ({(1, 0): Fraction(10**40 + 1, 7), (0, 1): 10**30}, Fraction(1, 4)),
    ({(0, 0): Fraction(3, 4), (4, 2): 2}, 1),
]


def test_serialized_instances_pinned():
    # Recorded before make_instance shared its Fractions: every family's
    # draws and rendering stay byte for byte.
    digest = hashlib.sha256()
    for family, n, m, seed, options in SERIALIZE_PINNED:
        digest.update(serialize_instance(generate(family, n, m, seed, **options)).encode())
    assert digest.hexdigest() == "f2323a252cf84949757255a8d00c9786db32d8d5d6f538d235cb73ad354ffd4b"


def test_serialized_flows_pinned():
    digest = hashlib.sha256()
    for entries, relaxation in FLOWS_PINNED:
        digest.update(serialize_solution(make_flow(entries, relaxation)).encode())
    assert digest.hexdigest() == "9cbc9104d4f4a2cc322e21c4ce032659481e138ac5aad3e587e14f4e1fb182ef"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_costs_share_one_object_per_value(seed):
    inst = generate("pfct-s", 80, 160, seed)
    assert len({id(c) for row in inst.linear for c in row}) == 1
    for row in inst.fixed:
        assert len({id(f) for f in row}) == 1


def test_generated_instance_memory_is_bounded():
    # The two n * m row tuples alone take about 1.3 MB; one Fraction per
    # cell took 9 MB.
    tracemalloc.start()
    try:
        inst = generate("pfct-s", 200, 400, 1)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n == 200
    assert current < 3_000_000
