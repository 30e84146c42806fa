import collections
import copy
import dataclasses
import hashlib
import operator
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from reference import classify_variant_per_entry, evaluate_cost_by_fractions, validate_instance_by_walk
from util import raises_instance_error

from fctp import generators
from fctp.bicriteria import solve_bicriteria
from fctp.fct_u import solve_fct_u

from fctp.errors import FctpError, InstanceError, ParseError
from fctp.model import (
    INF,
    FlowSolution,
    Instance,
    VariantTag,
    classify_variant,
    evaluate_cost,
    format_rational,
    integer_scaled,
    make_flow,
    two_pointer_steps,
    make_instance,
    parse_instance,
    parse_solution,
    pure_instance,
    serialize_instance,
    serialize_solution,
    subset_sums,
    validate_instance,
    validate_solution,
)


def test_validate_minimal_instance_ok():
    inst = make_instance((1,), (1,), [[0]], [[0]])
    assert validate_instance(inst) is None


def test_validate_imbalance():
    with raises_instance_error("sum(a) != sum(b)"):
        make_instance((2,), (1,), [[0]], [[0]])


def test_validate_zero_supply():
    with raises_instance_error("a_1 not positive"):
        make_instance((0, 2), (2,), [[0], [0]], [[0], [0]])


@pytest.mark.parametrize(
    "supplies, demands",
    [((), ()), ((1,), ()), ((-1, 3), (2,)), ((0, 2), (2,)), ((2,), (0, 2)), ((2,), (1,))],
)
def test_check_balanced_reports_what_validate_instance_reports_first(supplies, demands):
    # The side and balance defects that check_balanced once raised on are
    # refused at construction, with the reference walk's first report.
    n, m = len(supplies), len(demands)
    fixed, linear = ((Fraction(1),) * m,) * n, ((Fraction(0),) * m,) * n
    parts = SimpleNamespace(supplies=supplies, demands=demands, fixed=fixed, linear=linear)
    with raises_instance_error(validate_instance_by_walk(parts)):
        make_instance(supplies, demands, fixed, linear)
    # A cost defect behind valid sides is refused too.
    with raises_instance_error("f_1,1 negative"):
        make_instance((3, 1), (2, 2), [[-1] * 2] * 2, [[0] * 2] * 2)


def test_subset_sums_match_the_per_mask_definition():
    rng = random.Random(2073)
    for count in range(9):
        values = [rng.randint(-9, 9) for _ in range(count)]
        sums = subset_sums(values)
        assert len(sums) == 1 << count
        for mask, total in enumerate(sums):
            assert total == sum(values[k] for k in range(count) if mask >> k & 1)
    assert subset_sums([]) == [0]
    assert subset_sums([Fraction(1, 2), 3]) == [0, Fraction(1, 2), 3, Fraction(7, 2)]


def test_two_pointer_steps_ships_min_and_advances_the_emptied_side():
    assert two_pointer_steps((3, 1), (2, 2)) == [(0, 0, 2), (0, 1, 1), (1, 1, 1)]
    assert two_pointer_steps((2, 2), (2, 2)) == [(0, 0, 2), (1, 1, 2)]
    assert two_pointer_steps((4,), (1, 1, 2)) == [(0, 0, 1), (0, 1, 1), (0, 2, 2)]


def test_validate_negative_cost_and_shape():
    with raises_instance_error("f_1,1 negative"):
        make_instance((1,), (1,), [[-1]], [[0]])
    with raises_instance_error("cost matrices must have one row per source"):
        make_instance((1, 1), (2,), [[0]], [[0], [0]])


@pytest.mark.parametrize(
    "fixed, linear, report",
    [
        (((Fraction(1), INF),), ((Fraction(0), Fraction(0)),), "f_1,2 must be a finite rational"),
        (((Fraction(1), Fraction(1)),), ((Fraction(0), 2.5),), "c_1,2 must be a rational or inf"),
        (((Fraction(1), Fraction(1)),), ((INF, Fraction(-1, 2)),), "c_1,2 negative"),
    ],
)
def test_validate_instance_reports_each_bad_cost(fixed, linear, report):
    with raises_instance_error(report):
        Instance(supplies=(2,), demands=(1, 1), fixed=fixed, linear=linear)


def test_inf_survives_copy_and_pickle_and_refuses_ordering():
    inst = make_instance((1, 1), (2,), [[1], [2]], [[0], [INF]])
    for clone in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert clone == inst
        assert clone.linear[1][0] is INF
        assert classify_variant(clone) == classify_variant(inst)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((INF, 0), (0, INF), (INF, INF)):
            with pytest.raises(TypeError):
                compare(left, right)
    with pytest.raises(TypeError):
        INF + 1
    assert repr(INF) == str(INF) == format_rational(INF) == "inf"


def test_evaluate_cost_counts_support_edges_in_pure_uniform():
    inst = pure_instance((2, 2), (1, 3), [[1, 1], [1, 1]])
    sol = make_flow({(0, 0): 1, (0, 1): 1, (1, 1): 2})
    assert evaluate_cost(inst, sol) == 3


def test_evaluate_cost_e1(e1):
    sol = make_flow({(0, 0): 4, (0, 1): 1, (1, 1): 1, (1, 2): 2})
    assert evaluate_cost(e1, sol) == 28


def test_evaluate_cost_forbidden_edge():
    inst = make_instance((1,), (1,), [[0]], [[INF]])
    sol = make_flow({(0, 0): 1})
    with pytest.raises(FctpError, match="infeasible edge used"):
        evaluate_cost(inst, sol)


def test_evaluate_cost_names_the_lowest_forbidden_edge():
    inst = make_instance((3, 3, 3), (3, 3, 3), [[1] * 3] * 3, [[0, 0, INF], [0, INF, 0], [INF, 0, 0]])
    sol = make_flow({(2, 0): 1, (1, 1): 1, (0, 0): 1, (0, 2): 1})
    with pytest.raises(FctpError, match=r"^infeasible edge used: \(1, 3\)$"):
        evaluate_cost(inst, sol)
    with pytest.raises(FctpError, match=r"^infeasible edge used: \(2, 2\)$"):
        evaluate_cost(inst, make_flow({(2, 0): 1, (1, 1): 2}))


def test_evaluate_cost_refuses_edges_out_of_range_and_float_flows(e1):
    for edge in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        sol = FlowSolution(entries={(0, 0): Fraction(1), edge: Fraction(1)})
        with pytest.raises(FctpError, match=r"edge \(-?\d+, -?\d+\) out of range"):
            evaluate_cost(e1, sol)
    with pytest.raises(FctpError, match="flows must be ints or Fractions, not float"):
        evaluate_cost(e1, FlowSolution(entries={(0, 0): 1.0}))
    assert evaluate_cost(e1, FlowSolution(entries={(0, 0): 4, (1, 1): Fraction(1, 2)})) == 14


def _random_flows(rng, inst, count):
    """Flows on random supports, forbidden edges included, with int and
    Fraction values; not feasible in general, which evaluate_cost does not need."""
    edges = [(i, j) for i in range(inst.n) for j in range(inst.m)]
    for _ in range(count):
        support = rng.sample(edges, rng.randint(0, len(edges)))
        yield make_flow({
            e: rng.choice((rng.randint(1, 9), Fraction(rng.randint(1, 30), rng.randint(1, 7))))
            for e in support
        })


def _fractional_instance(rng, n, m):
    def cost():
        return Fraction(rng.randint(0, 40), rng.choice((1, 2, 3, 4, 6, 9)))

    linear = [[INF if rng.random() < 0.2 else cost() for _ in range(m)] for _ in range(n)]
    return make_instance([m] * n, [n] * m, [[cost() for _ in range(m)] for _ in range(n)], linear)


def _agrees_with_reference(inst, sol):
    try:
        want = evaluate_cost_by_fractions(inst, sol)
    except FctpError as exc:
        with pytest.raises(FctpError) as info:
            evaluate_cost(inst, sol)
        assert str(info.value) == str(exc)
        return False
    got = evaluate_cost(inst, sol)
    assert type(got) is Fraction and got == want
    return True


def test_evaluate_cost_matches_the_fraction_sum():
    rng = random.Random(2024)
    pairs = priced = relaxed = 0
    for seed in range(12):
        for family in generators.FAMILIES:
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            options = {"forbid_probability": 0.3} if family == "fct-u" else {}
            inst = generators.generate(family, n, m, seed, **options)
            flows = [make_flow({})] + list(_random_flows(rng, inst, 4))
            if family == "fct":
                flows.append(solve_bicriteria(inst, Fraction(1, 4))[0])
                relaxed += 1
            if family == "fct-u":
                flows.append(solve_fct_u(inst))
            for sol in flows:
                priced += _agrees_with_reference(inst, sol)
                pairs += 1
        inst = _fractional_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        for sol in [make_flow({})] + list(_random_flows(rng, inst, 15)):
            priced += _agrees_with_reference(inst, sol)
            pairs += 1
    assert pairs >= 500 and relaxed >= 12
    assert 0 < priced < pairs


def test_evaluate_cost_ignores_removed_zero_entries(e1):
    with_zero = make_flow({(0, 0): 4, (0, 1): 1, (1, 1): 1, (1, 2): 2, (1, 0): 0})
    assert (1, 0) not in with_zero.entries
    assert evaluate_cost(e1, with_zero) == 28


def test_classify_pure_uniform():
    inst = pure_instance((1, 1), (2,), [[1], [1]])
    tag = classify_variant(inst)
    assert (tag.pure, tag.sink_independent, tag.uniform) == (True, True, True)


def test_classify_sink_independent_not_uniform():
    inst = pure_instance((1, 1), (2,), [[3], [5]])
    tag = classify_variant(inst)
    assert (tag.pure, tag.sink_independent, tag.uniform) == (True, True, False)


def test_classify_uniform_not_pure():
    inst = make_instance((2, 2), (2, 2), [[1, 1], [1, 1]], [[0, 1], [1, 0]])
    tag = classify_variant(inst)
    assert (tag.pure, tag.sink_independent, tag.uniform) == (False, True, True)
    assert not tag.pure_modulo_forbidden  # a genuine nonzero linear cost


def test_classify_pure_modulo_forbidden():
    inst = make_instance((1, 1), (1, 1), [[1, 0], [0, 1]], [[0, INF], [INF, 0]])
    tag = classify_variant(inst)
    assert not tag.pure
    assert tag.pure_modulo_forbidden


def reference_classify(inst):
    """The four-pass definition classify_variant must agree with."""
    return VariantTag(
        pure=all(c == 0 for row in inst.linear for c in row),
        sink_independent=all(all(f == row[0] for f in row) for row in inst.fixed),
        uniform=all(f == 1 for row in inst.fixed for f in row),
        pure_modulo_forbidden=all(c is INF or c == 0 for row in inst.linear for c in row),
    )


def _random_cost_matrix(rng, n, m, values):
    """Rows that are constant, constant but for the last cell, or mixed."""
    rows = []
    for _ in range(n):
        shape = rng.randrange(3)
        first = rng.choice(values)
        if shape == 0:
            row = [first] * m
        elif shape == 1:
            row = [first] * (m - 1) + [rng.choice(values)]
        else:
            row = [rng.choice(values) for _ in range(m)]
        rows.append(row)
    return rows


def test_classify_matches_four_pass_definition():
    # make_instance builds a fresh Fraction per cell, so equal entries are
    # equal but not identical; the Instance half wraps each entry, read as
    # an int, in a Fraction of its own.
    rng = random.Random(31)
    fixed_values = [0, 1, 1, 2, Fraction(1, 2), Fraction(2, 2), Fraction(3, 2)]
    linear_values = [0, 0, 0, INF, 1, Fraction(1, 3)]
    seen = set()
    for k in range(600):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        fixed = _random_cost_matrix(rng, n, m, fixed_values)
        linear = _random_cost_matrix(rng, n, m, linear_values)
        if k % 2:
            inst = make_instance([m] * n, [n] * m, fixed, linear)
        else:
            ints = [[x if x is INF else Fraction(int(x)) for x in row] for row in linear]
            inst = Instance(
                supplies=(m,) * n,
                demands=(n,) * m,
                fixed=tuple(tuple(Fraction(int(x)) for x in row) for row in fixed),
                linear=tuple(tuple(row) for row in ints),
            )
        tag = classify_variant(inst)
        assert tag == reference_classify(inst), inst
        seen.add(tag)
    assert len(seen) >= 6  # every tag both ways, in several combinations


def test_classify_matches_the_per_entry_scan():
    # The tag model._read_instance stores at construction, against
    # reference.classify_variant_per_entry and the four-pass
    # reference_classify, on rows whose last entry is their first object:
    # _read_instance tests such a row for being constant with one tuple
    # comparison and reads its tags from that entry alone.  make_instance
    # builds equal but distinct Fractions, a parsed instance shares one
    # object per token, and the drawn rows themselves repeat pool objects
    # next to equal distinct ones (1 and 2/2, 3/2 and 6/4, 0 and 0/7).
    # Every third draw starts a linear row with INF or mixes INF and 0 in it.
    rng = random.Random(16)
    fixed_values = [Fraction(1), Fraction(2, 2), Fraction(0), Fraction(3, 2), Fraction(6, 4)]
    linear_values = [INF, Fraction(0), Fraction(0, 7), Fraction(1, 3)]
    seen, inf_first, mixed = set(), 0, 0
    for k in range(600):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        fixed = _random_cost_matrix(rng, n, m, fixed_values)
        linear = _random_cost_matrix(rng, n, m, linear_values)
        if k % 3 == 0:
            row = linear[rng.randrange(n)]
            row[0] = INF
            if m > 1 and k % 2:
                row[1:] = [rng.choice((INF, linear_values[1])) for _ in range(m - 1)]
        inf_first += any(row[0] is INF for row in linear)
        mixed += any(INF in row and 0 in row for row in linear)
        inst = make_instance([m] * n, [n] * m, fixed, linear)
        drawn = Instance(
            supplies=inst.supplies,
            demands=inst.demands,
            fixed=tuple(map(tuple, fixed)),
            linear=tuple(map(tuple, linear)),
        )
        for case in (inst, parse_instance(serialize_instance(inst)), drawn):
            tag = classify_variant(case)
            assert tag == classify_variant_per_entry(case) == reference_classify(case), case
            seen.add(tag)
    assert len(seen) >= 6 and inf_first >= 150 and mixed >= 100


_SIDE_TOKENS = ["0", "1", "2", "3"]
_COST_TOKENS = ["0", "1", "2", "1/2", "4/8", "0/3", "007", "inf"]
_BAD_TOKENS = ["-1", "-0", "-1/2", "2/0", "x", "1.5", "1e3", "+1", "Inf"]


@st.composite
def token_grids(draw):
    """FCT v1 text over a small token grid; half the grids draw bad tokens too."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    costs = st.sampled_from(_COST_TOKENS + draw(st.sampled_from([[], _BAD_TOKENS])))
    sides = st.sampled_from(_SIDE_TOKENS)
    lines = ["FCT v1", f"{n} {m}"]
    lines.append(" ".join(draw(sides) for _ in range(n)))
    lines.append(" ".join(draw(sides) for _ in range(m)))
    for _ in range(2 * n):
        lines.append(" ".join(draw(costs) for _ in range(m)))
    return "\n".join(lines) + "\n"


@given(token_grids())
def test_parsed_instances_pass_every_matrix_check(text):
    # The parser refuses every cost that the instance check's matrix part
    # would report, so a parsed file is refused at construction only for its
    # sizes, sides or balance, and with balanced sides it builds.
    lines = text.splitlines()
    n, m = map(int, lines[1].split())
    lines[2], lines[3] = " ".join([str(m)] * n), " ".join([str(n)] * m)
    try:
        parse_instance(text)
    except ParseError:
        return
    except InstanceError as exc:
        assert not exc.report.startswith(("f_", "c_")), exc.report
    parse_instance("\n".join(lines) + "\n")


# Pool objects, so drawn rows repeat one object as parsed rows do; a defect
# may be an entry of another type that equals a pool object (1, True and 1.0
# all equal Fraction(1)).
_GOOD_COSTS = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(10**99, 7)]
_BAD_COSTS = [Fraction(-1, 2), 2.5, "1"]
_TWINS = {Fraction(0): [0, False, 0.0], Fraction(1): [1, True, 1.0], Fraction(3, 2): [1.5]}
_BAD_SIDES = [0, -1, True, 2.0, Fraction(2), "1"]
_DEFECTS = ["size", "shape", "side", "fixed", "linear", "twin", "balance"]


@st.composite
def instance_parts(draw):
    """Instance fields with up to two kinds of defect: an empty side, a
    matrix of the wrong shape, a side value or type, a fixed or linear cost
    value or type (INF in f among them), a twin inside a constant row,
    imbalance."""
    defects = draw(st.sets(st.sampled_from(_DEFECTS), max_size=2))
    low = 0 if "size" in defects else 1
    n, m = draw(st.integers(low, 3)), draw(st.integers(3 if "twin" in defects else low, 4))
    twin_in = draw(st.sampled_from(["fixed", "linear"]))
    supplies = [draw(st.integers(1, 3)) for _ in range(n)]
    demands = [draw(st.integers(1, 3)) for _ in range(m)]
    if m and "balance" not in defects:
        # The last demand balances the sides, and may then be refused itself.
        demands[-1] = sum(supplies) - sum(demands[:-1])
    if "side" in defects and n + m:
        k = draw(st.integers(0, n + m - 1))
        bad = draw(st.sampled_from(_BAD_SIDES))
        if k < n:
            supplies[k] = bad
        else:
            demands[k - n] = bad

    def matrix(name):
        pool = _GOOD_COSTS + [INF] * (name == "linear")
        rows = []
        for _ in range(n):
            if draw(st.booleans()):
                rows.append([draw(st.sampled_from(pool))] * m)
            else:
                rows.append([draw(st.sampled_from(pool)) for _ in range(m)])
        if name in defects and n and m:
            row, j = rows[draw(st.integers(0, n - 1))], draw(st.integers(0, m - 1))
            twins = _TWINS.get(row[j], [])
            row[j] = draw(st.sampled_from(twins * 3 + _BAD_COSTS + [INF] * (name == "fixed")))
        if "twin" in defects and twin_in == name and n:
            # A constant row of one pool object but for an equal object of
            # another type inside it: count(row[0]) finds it equal.
            value = draw(st.sampled_from(list(_TWINS)))
            row = rows[draw(st.integers(0, n - 1))]
            row[:] = [value] * m
            row[draw(st.integers(1, m - 2))] = draw(st.sampled_from(_TWINS[value]))
        if "shape" in defects and draw(st.booleans()):
            change = draw(st.sampled_from(["extra row", "no row", "short row"]))
            if change == "extra row" or not n:
                rows.append(pool[:1] * m)
            elif change == "no row" or not m:
                rows.pop()
            else:
                rows[-1].pop()
        return tuple(map(tuple, rows))

    return {"supplies": tuple(supplies), "demands": tuple(demands),
            "fixed": matrix("fixed"), "linear": matrix("linear")}


def _expected_report(parts):
    # Shapes first, as Instance checks them; then the reference walk.
    n, m = len(parts["supplies"]), len(parts["demands"])
    if len(parts["fixed"]) != n or len(parts["linear"]) != n:
        return "cost matrices must have one row per source"
    if any(len(row) != m for row in parts["fixed"] + parts["linear"]):
        return "cost matrices must have one column per sink"
    return validate_instance_by_walk(SimpleNamespace(**parts))


def _made_by_make_instance(parts):
    """The parts make_instance hands Instance, or None when it refuses a type."""
    def side_ok(x):
        return type(x) is int

    def cost(x, allow_inf):
        if type(x) is int:
            return Fraction(x)
        if type(x) is Fraction or allow_inf and x is INF:
            return x
        raise TypeError

    if not all(map(side_ok, parts["supplies"] + parts["demands"])):
        return None
    try:
        return parts | {
            name: tuple(tuple(cost(x, name == "linear") for x in row) for row in parts[name])
            for name in ("fixed", "linear")
        }
    except TypeError:
        return None


def _builds_or_refuses_as_the_reference(build, parts):
    report = _expected_report(parts)
    if report is not None:
        with raises_instance_error(report):
            build()
        return False
    inst = build()
    assert classify_variant(inst) == classify_variant_per_entry(inst)
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text)) == text
    return True


@settings(max_examples=400)
@given(instance_parts(), st.sampled_from(["supplies", "demands", "fixed", "linear"]))
def test_every_constructor_refuses_what_the_reference_walk_refuses(parts, kept):
    # Instance, make_instance and dataclasses.replace all run the one check:
    # each draw is refused with the reference walk's first report, or builds
    # an instance that the text format carries unchanged.
    _builds_or_refuses_as_the_reference(lambda: Instance(**parts), parts)
    made = _made_by_make_instance(parts)
    if made is None:
        with pytest.raises(FctpError) as info:
            make_instance(**parts)
        assert not isinstance(info.value, InstanceError)
    else:
        _builds_or_refuses_as_the_reference(lambda: make_instance(**parts), made)
    # Replace all fields of a valid base but one, which keeps the base's.
    base = make_instance((2,), (1, 1), [[1, 2]], [[0, INF]])
    changes = {name: value for name, value in parts.items() if name != kept}
    _builds_or_refuses_as_the_reference(
        lambda: dataclasses.replace(base, **changes), vars(base) | changes
    )


def test_the_stored_tag_follows_replace_and_stays_out_of_eq_hash_repr():
    inst = make_instance((1, 1), (2,), [[1], [1]], [[0], [0]])
    assert classify_variant(inst) == VariantTag(True, True, True, True)
    # A replaced row is read again.
    for changes, tag in (
        ({"fixed": ((Fraction(1),), (Fraction(2),))}, VariantTag(True, True, False, True)),
        ({"linear": ((Fraction(0),), (INF,))}, VariantTag(False, True, True, True)),
        ({"linear": ((Fraction(0),), (Fraction(1),))}, VariantTag(False, True, True, False)),
    ):
        assert classify_variant(dataclasses.replace(inst, **changes)) == tag
    # The tag is no field: an instance holding another one is equal, hashes
    # and prints the same.
    other = dataclasses.replace(inst)
    object.__setattr__(other, "_tag", VariantTag(False, False, False, False))
    assert other == inst and hash(other) == hash(inst) and repr(other) == repr(inst)
    names = [f.name for f in dataclasses.fields(Instance)]
    assert names == ["supplies", "demands", "fixed", "linear"]


def test_a_bool_side_is_refused():
    # A bool supply once constructed and solved, but serialize_instance wrote
    # it as True, which parse_instance refuses.
    with raises_instance_error("a_1 not positive"):
        Instance(supplies=(True,), demands=(1,), fixed=((Fraction(1),),), linear=((Fraction(0),),))
    base = make_instance((1,), (1,), [[1]], [[0]])
    with raises_instance_error("b_1 not positive"):
        dataclasses.replace(base, demands=(True,))


def test_make_flow_refuses_a_float_relaxation():
    assert make_flow({(0, 0): 1}, relaxation=Fraction(1, 10)).relaxation == Fraction(1, 10)
    for bad in (0.1, 0.25, "1/4", True):
        with pytest.raises(FctpError, match="epsilon must be an int or a Fraction"):
            make_flow({(0, 0): 1}, relaxation=bad)


def test_integer_scaled_rejects_non_rational_entries():
    for bad in (0.5, "1", None):
        with pytest.raises(FctpError, match="ints, Fractions or inf"):
            integer_scaled([[Fraction(1, 2), bad]])
    assert integer_scaled([[Fraction(1, 2), 3, INF]]) == (2, [[[1, 6, None]]])


def test_parse_cost_accepts_only_p_and_p_over_q():
    def parse(token):
        return parse_instance(f"FCT v1\n1 1\n1\n1\n0\n{token}\n").linear[0][0]

    assert parse("7") == 7
    assert parse("6/4") == Fraction(3, 2)
    assert parse("inf") is INF
    assert parse("9" * 100 + "/" + "7" * 100) == Fraction(int("9" * 100), int("7" * 100))
    for token in ("1e9999999", "1.5", "1_0", "+3", "0x10", "1/", "/2", "nan", "9" * 101):
        with pytest.raises(ParseError, match="line 6: malformed rational"):
            parse(token)
    with pytest.raises(ParseError, match="line 6: zero denominator"):
        parse("1/0")
    with pytest.raises(ParseError, match="line 6: negative cost"):
        parse("-1/2")


def test_parse_integer_tokens_accept_only_ascii_digits():
    def supply(token):
        return parse_instance(f"FCT v1\n1 1\n{token}\n{token}\n0\n0\n").supplies[0]

    assert supply("1") == 1
    assert supply("007") == 7
    assert supply("9" * 100) == int("9" * 100)
    # int() reads every one of these.
    for token in ("1_0", "+10", "-1", "\u0661\u0660", "\uff11", "9" * 101):
        with pytest.raises(ParseError, match="line 3: supply must be an integer of 1 to 100 digits"):
            supply(token)
    with pytest.raises(ParseError, match="line 4: demand must be"):
        parse_instance("FCT v1\n1 1\n1\n+1\n0\n0\n")
    with pytest.raises(ParseError, match="line 2: m must be"):
        parse_instance("FCT v1\n1 1_0\n1\n1\n0\n0\n")
    with pytest.raises(ParseError, match="line 2: source index must be"):
        parse_solution("SOL v1\n+1 1 2\n")


def test_make_instance_shares_each_rational():
    half, third = Fraction(1, 2), Fraction(1, 3)
    inst = make_instance((2, 1), (1, 2), [[half, 7], [7, 10**30]], [[INF, 0], [third, 0]])
    assert inst.fixed[0][0] is half and inst.linear[1][0] is third
    assert inst.fixed[0][1] is inst.fixed[1][0] and inst.linear[0][1] is inst.linear[1][1]
    assert inst.linear[0][0] is INF
    given = ((half, 7), (7, 10**30), (INF, 0), (third, 0))
    for row, want in zip(inst.fixed + inst.linear, given):
        for x, w in zip(row, want):
            assert type(x) is Fraction or x is INF
            assert x is INF if w is INF else x == Fraction(w)
    zeros = pure_instance((1, 1), (1, 1), [[1, 2], [3, 4]]).linear
    assert len({id(c) for row in zeros for c in row}) == 1

    class Count(int):
        pass

    counted = make_instance((1,), (1,), [[Count(3)]], [[0]])
    assert type(counted.fixed[0][0]) is Fraction and counted.fixed[0][0] == 3


@pytest.mark.parametrize(
    "args, message",
    [
        (((1.9,), (1,), [[1]], [[0]]), "supplies must be ints, not float"),
        (((True,), (1,), [[1]], [[0]]), "supplies must be ints, not bool"),
        ((("x",), (1,), [[1]], [[0]]), "supplies must be ints, not str"),
        (((1,), (Fraction(3, 2),), [[1]], [[0]]), "demands must be ints, not Fraction"),
        (((1,), (1,), [[0.1]], [[0]]), "fixed costs must be ints or Fractions, not float"),
        (((1,), (1,), [[INF]], [[0]]), "fixed costs must be ints or Fractions, not inf"),
        (((1,), (1,), [[True]], [[0]]), "fixed costs must be ints or Fractions, not bool"),
        (((1,), (1,), [[1]], [["1"]]), "linear costs must be ints, Fractions or inf, not str"),
        (((1,), (1,), [[1]], [[float("inf")]]), "linear costs must be ints, Fractions or inf"),
    ],
)
def test_make_instance_refuses_other_types(args, message):
    with pytest.raises(FctpError, match=message):
        make_instance(*args)


def test_make_instance_keeps_negative_costs_and_shape_errors():
    # make_instance converts types; Instance refuses the rest of the contract.
    with raises_instance_error("f_1,1 negative"):
        make_instance((1,), (1,), [[-1]], [[Fraction(-1, 2)]])
    with pytest.raises(InstanceError, match="one column per sink"):
        make_instance((1,), (1, 1), [[1]], [[0]])


def test_constructors_refuse_inputs_of_the_wrong_shape():
    for args, message in [
        (((1,), (1,), [1], [[0]]), "fixed costs must be a sequence of rows"),
        (((1,), (1,), [[1]], 0), "linear costs must be a sequence of rows"),
        ((1, (1,), [[1]], [[0]]), "supplies must be a sequence of ints, not int"),
        (((1,), None, [[1]], [[0]]), "demands must be a sequence of ints, not NoneType"),
    ]:
        with pytest.raises(FctpError, match=message):
            make_instance(*args)
    for entries, message in [
        ({0: 1}, r"flow keys must be \(source, sink\) pairs, not 0"),
        ({(0, 0, 1): 1}, r"flow keys must be \(source, sink\) pairs, not \(0, 0, 1\)"),
        ({(-1, 0): 1}, r"edge \(0, 1\) out of range"),
        ({(0, -3): 1}, r"edge \(1, -2\) out of range"),
        (5, "flow entries must map"),
        ([(1, 2, 3)], "flow entries must map"),
    ]:
        with pytest.raises(FctpError, match=message):
            make_flow(entries)


def test_make_flow_refuses_other_types():
    for entries, message in [
        ({(0.0, 1.7): 1}, "flow indices must be ints"),
        ({(0, True): 1}, "flow indices must be ints"),
        ({(0, 0): 0.1}, "flows must be ints or Fractions, not float"),
        ({(0, 0): True}, "flows must be ints or Fractions, not bool"),
        ({(0, 0): "1"}, "flows must be ints or Fractions, not str"),
        ({(0, 0): 1, (1, 2): -1}, r"negative flow on edge \(2, 3\)"),
    ]:
        with pytest.raises(FctpError, match=message):
            make_flow(entries)
    half = Fraction(1, 2)
    assert make_flow({(0, 0): half, (0, 1): 0, (1, 0): 2}).entries == {(0, 0): half, (1, 0): 2}
    assert make_flow({(0, 0): half}).entries[(0, 0)] is half


def _rendered_by_fraction(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def test_format_rational_matches_fraction_rendering():
    big = 10**99 + 7
    values = [0, 1, 12, -5, True, False, Fraction(0), Fraction(6, 4), Fraction(-7, 3),
              Fraction(4, 1), big, -big, Fraction(big, 10**99 + 9), Fraction(-big, 3), 0.5]
    for value in values:
        assert format_rational(value) == _rendered_by_fraction(value)
    assert format_rational(INF) == "inf"


def test_format_rational_refuses_unprintable_value():
    assert format_rational(Fraction(10**4000 + 1, 3)) == f"{10**4000 + 1}/3"
    with pytest.raises(FctpError, match="too long to print"):
        format_rational(Fraction(1, 10**5000 + 1))
    with pytest.raises(FctpError, match="too long to print"):
        format_rational(10**5000)


def test_serialize_minimal_instance_is_six_lines():
    inst = make_instance((1,), (1,), [[0]], [[0]])
    text = serialize_instance(inst)
    assert text == "FCT v1\n1 1\n1\n1\n0\n0\n"
    assert len(text.strip().split("\n")) == 6


class _CountedRow(tuple):
    """A row that counts, per object, the iterations over it."""

    iterations: collections.Counter = collections.Counter()

    def __iter__(self):
        _CountedRow.iterations[id(self)] += 1
        return super().__iter__()


def test_serialize_joins_each_distinct_row_object_once():
    half = Fraction(1, 2)
    shared = _CountedRow((half, Fraction(3), half))
    other = _CountedRow((Fraction(1), Fraction(2), Fraction(3)))
    inf_row = _CountedRow((INF, Fraction(0), half))
    fixed = (shared, other, shared, shared)
    linear = (inf_row, shared, inf_row, shared)
    inst = Instance((3, 3, 3, 3), (4, 4, 4), fixed, linear)
    _CountedRow.iterations.clear()
    text = serialize_instance(inst)
    assert _CountedRow.iterations == {id(shared): 1, id(other): 1, id(inf_row): 1}
    plain = Instance(inst.supplies, inst.demands, tuple(map(tuple, fixed)), tuple(map(tuple, linear)))
    assert len({id(row) for row in plain.fixed + plain.linear}) == 8
    assert serialize_instance(plain) == text


# One draw of each generator family, pfct-s at the sizes the lp_solve
# workload writes; recorded before serialize_instance reused a shared row's line.
_SERIALIZE_PIN_CASES = [
    ("pfct-s", 80, 160, 1, {}),
    ("pfct-s", 40, 80, 2, {}),
    ("pfct-s", 6, 9, 3, {}),
    ("pfct-u", 10, 14, 4, {}),
    ("pure", 8, 12, 5, {}),
    ("fct", 18, 36, 6, {}),
    ("fct-u", 18, 36, 7, {}),
    ("fct-u", 12, 20, 8, {"forbid_probability": 0.4}),
]


def test_serialize_output_pinned():
    digest = hashlib.sha256()
    for family, n, m, seed, options in _SERIALIZE_PIN_CASES:
        digest.update(serialize_instance(generators.generate(family, n, m, seed, **options)).encode())
    assert digest.hexdigest() == "8c7782798d4c6b338e086951645015b20e353a892969be64f76b34caa8237340"


def test_parse_rejects_inf_in_fixed_costs():
    text = "FCT v1\n1 1\n1\n1\ninf\n0\n"
    with pytest.raises(ParseError, match="Infinity not allowed in f") as info:
        parse_instance(text)
    assert info.value.line == 5


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("FCT v1\n1 1\nx\n1\n0\n0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("FCT v2\n")
    with pytest.raises(ParseError, match="negative"):
        parse_instance("FCT v1\n1 1\n1\n1\n-2\n0\n")
    with pytest.raises(ParseError, match="line 2: n and m must be >= 1"):
        parse_instance("FCT v1\n0 1\n\n1\n")
    with pytest.raises(ParseError, match="line 7: trailing content after cost matrices"):
        parse_instance("FCT v1\n1 1\n1\n1\n0\n0\n0\n")


def test_parse_round_trips_every_generator_family():
    for family in generators.FAMILIES:
        for seed, (n, m) in enumerate([(1, 1), (3, 5), (8, 4), (12, 30)]):
            inst = generators.generate(family, n, m, seed)
            assert parse_instance(serialize_instance(inst)) == inst
    inst = generators.generate("fct-u", 6, 9, 3, forbid_probability=0.4)
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_shares_each_repeated_line():
    inst = parse_instance("FCT v1\n3 2\n1 1 1\n1 2\n1 2\n3 4\n1 2\n0 0\ninf 0\n0 0\n")
    assert inst.fixed == ((1, 2), (3, 4), (1, 2)) and inst.fixed[0] is inst.fixed[2]
    assert inst.linear[0] is inst.linear[2] and inst.linear[1] == (INF, 0)
    assert inst.linear[1][1] is inst.linear[0][0]
    pure = parse_instance(serialize_instance(generators.generate("pfct-s", 20, 40, 1)))
    assert len({id(row) for row in pure.linear}) == 1
    assert all(row.count(row[0]) == len(row) for row in pure.fixed)


def test_parse_reads_lines_that_differ_only_in_spacing_as_equal_rows():
    inst = parse_instance("FCT v1\n3 2\n1 1 1\n1 2\n1/2 3\n  1/2\t3 \n1/2  3\n0 0\n0 0\n0 0\n")
    assert inst.fixed[0] == inst.fixed[1] == inst.fixed[2] == (Fraction(1, 2), 3)
    assert inst.fixed[0] is not inst.fixed[1]
    assert all(row[0] is inst.fixed[0][0] for row in inst.fixed)


@pytest.mark.parametrize(
    "rows, line, message",
    [
        (["1 2", "1 2", "1 x"], 7, "malformed rational 'x'"),
        (["1 2", "1 2", "1 -2"], 7, "negative cost '-2'"),
        (["1 2", "1 2", "1 inf"], 7, "Infinity not allowed in f"),
        (["1 2", "1 2", "1 2 2"], 7, "expected 2 fixed cost fields, got 3"),
        (["1 2", "1 2"], 7, "missing fixed cost line"),
        (["1 2", "1 2", "1 2", "0 0", "0 0", "0 1/0"], 10, "zero denominator in '1/0'"),
        (["1 2", "1 2", "1 2", "inf 0", "inf 0", "inf"], 10, "expected 2 linear cost fields"),
    ],
)
def test_parse_reports_the_line_of_a_bad_row_after_a_repeated_line(rows, line, message):
    text = "FCT v1\n3 2\n1 1 1\n1 2\n" + "\n".join(rows) + "\n"
    with pytest.raises(ParseError, match=f"line {line}: {message}") as info:
        parse_instance(text)
    assert info.value.line == line


def test_round_trip_e1(e1):
    assert parse_instance(serialize_instance(e1)) == e1


def test_round_trip_with_inf_and_fractions():
    inst = make_instance(
        (3, 1), (2, 2), [[Fraction(1, 2), 3], [0, Fraction(7, 3)]], [[0, INF], [1, 0]]
    )
    assert parse_instance(serialize_instance(inst)) == inst


def test_solution_round_trip():
    sol = make_flow({(0, 1): Fraction(3, 2), (2, 0): 1})
    assert parse_solution(serialize_solution(sol)) == sol


def test_relaxed_solution_round_trip():
    sol = make_flow({(0, 0): Fraction(5, 4)}, relaxation=Fraction(1, 4))
    text = serialize_solution(sol)
    assert text.splitlines()[1] == "relaxed 1/4"
    assert parse_solution(text) == sol


def test_parse_solution_rejects_relaxation_tag_outside_open_unit_interval():
    for tag in ("0", "1", "5", "3/2"):
        with pytest.raises(ParseError, match="line 2: relaxation tag"):
            parse_solution(f"SOL v1\nrelaxed {tag}\n1 1 2\n")


def test_validate_solution_rejects_relaxation_tag_of_one_or_more():
    # A tag >= 1 empties the demand band's lower end: sink 2 gets nothing.
    inst = make_instance((2, 3), (2, 3), [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    for tag in (Fraction(1), Fraction(5)):
        sol = FlowSolution(entries={(0, 0): Fraction(2), (1, 0): Fraction(3)}, relaxation=tag)
        assert "relaxation tag" in validate_solution(inst, sol)


def test_parse_solution_errors():
    with pytest.raises(ParseError, match="expected header"):
        parse_solution("nope\n")
    with pytest.raises(ParseError, match="positive"):
        parse_solution("SOL v1\n1 1 0\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_solution("SOL v1\n1 1 2\n1 1 3\n")
    with pytest.raises(ParseError, match="line 2: expected 'relaxed p/q'"):
        parse_solution("SOL v1\nrelaxed 1/2 3\n1 1 2\n")
    with pytest.raises(ParseError, match="line 2: indices are 1-based"):
        parse_solution("SOL v1\n0 1 2\n")


def test_validate_solution_marginals(e1):
    good = make_flow({(0, 0): 4, (0, 1): 1, (1, 1): 1, (1, 2): 2})
    assert validate_solution(e1, good) is None
    bad = make_flow({(0, 0): 4, (0, 1): 1, (1, 1): 3})
    assert "column sum" in validate_solution(e1, bad)
    short = make_flow({(0, 0): 4, (1, 1): 2, (1, 2): 2})
    assert "row sum" in validate_solution(e1, short)
    outside = make_flow({(0, 0): 4, (0, 1): 1, (1, 1): 1, (1, 3): 2})
    assert validate_solution(e1, outside) == "edge (2, 4) out of range"
    # make_flow drops a zero flow; a FlowSolution built directly keeps it.
    zero = FlowSolution(entries={(0, 0): Fraction(4), (0, 1): Fraction(0)})
    assert validate_solution(e1, zero) == "flow on edge (1, 2) not positive"


def test_validate_solution_rejects_flow_on_forbidden_edge():
    # Marginals and positivity hold; only the edge is forbidden.
    inst = make_instance((3,), (1, 2), [[1, 1]], [[0, INF]])
    sol = FlowSolution(entries={(0, 0): Fraction(1), (0, 1): Fraction(2)})
    assert validate_solution(inst, sol) == "flow on forbidden edge (1, 2)"


def test_validate_solution_relaxed_band():
    inst = make_instance((4,), (2, 2), [[0, 0]], [[0, 0]])
    sol = FlowSolution(
        entries={(0, 0): Fraction(9, 4), (0, 1): Fraction(7, 4)},
        relaxation=Fraction(1, 4),
    )
    assert validate_solution(inst, sol) is None
    tight = FlowSolution(
        entries={(0, 0): Fraction(3), (0, 1): Fraction(1)},
        relaxation=Fraction(1, 4),
    )
    assert "outside" in validate_solution(inst, tight)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    supplies = [draw(st.integers(1, 9)) for _ in range(n)]
    total = sum(supplies)
    # Split the total into m positive demands.
    if total < m:
        supplies[0] += m - total
        total = m
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, total - 1),
                min_size=m - 1,
                max_size=m - 1,
                unique=True,
            )
        )
    ) if m > 1 else []
    bounds = [0] + cuts + [total]
    demands = [bounds[k + 1] - bounds[k] for k in range(m)]
    rationals = st.fractions(
        min_value=0, max_value=9, max_denominator=4
    )
    fixed = [[draw(rationals) for _ in range(m)] for _ in range(n)]
    linear = [
        [INF if draw(st.booleans()) and draw(st.booleans()) else draw(rationals) for _ in range(m)]
        for _ in range(n)
    ]
    return make_instance(supplies, demands, fixed, linear)


@given(instances())
def test_round_trip_is_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=Fraction(1, 8), max_value=20, max_denominator=8),
        max_size=8,
    )
)
def test_solution_round_trip_is_identity(entries):
    sol = make_flow(entries)
    assert parse_solution(serialize_solution(sol)) == sol
