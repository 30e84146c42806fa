import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reference import classify_variant_per_entry

from fctp.errors import FctpError, ParseError
from fctp.model import (
    INF,
    FlowSolution,
    Instance,
    VariantTag,
    balance_report,
    check_balanced,
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
    validate_instance,
    validate_solution,
)


def test_validate_minimal_instance_ok():
    inst = make_instance((1,), (1,), [[0]], [[0]])
    assert validate_instance(inst) is None


def test_validate_imbalance():
    inst = make_instance((2,), (1,), [[0]], [[0]])
    assert validate_instance(inst) == "sum(a) != sum(b)"


def test_validate_zero_supply():
    inst = make_instance((0, 2), (2,), [[0], [0]], [[0], [0]])
    assert validate_instance(inst) == "a_1 not positive"


@pytest.mark.parametrize(
    "supplies, demands",
    [((), ()), ((1,), ()), ((-1, 3), (2,)), ((0, 2), (2,)), ((2,), (0, 2)), ((2,), (1,))],
)
def test_check_balanced_reports_what_validate_instance_reports_first(supplies, demands):
    n, m = len(supplies), len(demands)
    inst = make_instance(supplies, demands, [[1] * m] * n, [[0] * m] * n)
    with pytest.raises(FctpError) as info:
        check_balanced(inst)
    assert str(info.value) == f"invalid instance: {validate_instance(inst)}"
    # Cost entries are validate_instance's alone.
    check_balanced(make_instance((3, 1), (2, 2), [[-1] * 2] * 2, [[0] * 2] * 2))


def test_two_pointer_steps_ships_min_and_advances_the_emptied_side():
    assert two_pointer_steps((3, 1), (2, 2)) == [(0, 0, 2), (0, 1, 1), (1, 1, 1)]
    assert two_pointer_steps((2, 2), (2, 2)) == [(0, 0, 2), (1, 1, 2)]
    assert two_pointer_steps((4,), (1, 1, 2)) == [(0, 0, 1), (0, 1, 1), (0, 2, 2)]


def test_validate_negative_cost_and_shape():
    inst = make_instance((1,), (1,), [[-1]], [[0]])
    assert "negative" in validate_instance(inst)
    with pytest.raises(ValueError):
        make_instance((1, 1), (2,), [[0]], [[0], [0]])


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
    # equal but not identical; entries drawn as ints stay ints in Instance.
    rng = random.Random(31)
    fixed_values = [0, 1, 1, 2, Fraction(1, 2), Fraction(2, 2), Fraction(3, 2)]
    linear_values = [0, 0, 0, INF, 1, Fraction(1, 3)]
    seen = set()
    for k in range(600):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        fixed = _random_cost_matrix(rng, n, m, fixed_values)
        linear = _random_cost_matrix(rng, n, m, linear_values)
        if k % 2:
            inst = make_instance([1] * n, [1] * m, fixed, linear)
        else:
            ints = [[x if x is INF else int(x) for x in row] for row in linear]
            inst = Instance(
                supplies=(1,) * n,
                demands=(1,) * m,
                fixed=tuple(tuple(int(x) for x in row) for row in fixed),
                linear=tuple(tuple(row) for row in ints),
            )
        tag = classify_variant(inst)
        assert tag == reference_classify(inst), inst
        seen.add(tag)
    assert len(seen) >= 6  # every tag both ways, in several combinations


def test_classify_matches_the_per_entry_scan():
    # The per-entry scan that the row.count(row[0]) test replaced where a
    # row's last entry is its first object.  make_instance builds equal but
    # distinct Fractions, a parsed instance shares one object per token, and
    # the drawn rows themselves repeat pool objects next to equal distinct
    # ones (1 and 2/2, 3/2 and 6/4, 0 and 0/7).  Every third draw starts a
    # linear row with INF or mixes INF and 0 in it.
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
        inst = make_instance([1] * n, [1] * m, fixed, linear)
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
    # fctp solve, verify and oracle check a parsed file with balance_report
    # alone; that is sound only while the parser refuses every cost that
    # validate_instance's matrix checks would report.
    try:
        inst = parse_instance(text)
    except ParseError:
        return
    assert validate_instance(inst) == balance_report(inst)
    sides_fixed = dataclasses.replace(inst, supplies=(inst.m,) * inst.n, demands=(inst.n,) * inst.m)
    assert validate_instance(sides_fixed) is None


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
        return parse_instance(f"FCT v1\n1 1\n{token}\n1\n0\n0\n").supplies[0]

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


def test_validate_solution_marginals(e1):
    good = make_flow({(0, 0): 4, (0, 1): 1, (1, 1): 1, (1, 2): 2})
    assert validate_solution(e1, good) is None
    bad = make_flow({(0, 0): 4, (0, 1): 1, (1, 1): 3})
    assert "column sum" in validate_solution(e1, bad)
    short = make_flow({(0, 0): 4, (1, 1): 2, (1, 2): 2})
    assert "row sum" in validate_solution(e1, short)


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
