import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from util import e1_instance

from fctp import pfct_s
from fctp.cli import (
    MAX_BENCH_ROWS,
    _bench_rows,
    _parse_fraction,
    _read,
    build_parser,
    main,
    parse_dst_file,
    parse_setcover_file,
    parse_threedm_file,
)
from fctp.errors import FctpError
from fctp.generators import generate
from fctp.reductions import make_threedm, threedm_to_pfct_u
from fctp.model import (
    INF,
    MAX_COST_DIGITS,
    evaluate_cost,
    make_instance,
    parse_instance,
    parse_solution,
    serialize_instance,
    uniform_pure_instance,
    validate_solution,
)


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.fct"
    path.write_text(serialize_instance(e1_instance()))
    return str(path)


def test_solve_pfct_s_reports_cost(e1_file, tmp_path, capsys):
    out = tmp_path / "e1.sol"
    code = main(
        ["solve", "--variant", "pfct-s", "--input", e1_file, "--out", str(out), "--oracle"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cost"] == "28"
    assert record["oracle_cost"] == "28"
    assert record["ratio"] == "1"
    assert "wall_time_s" not in record
    sol = parse_solution(out.read_text())
    assert sol.entries[(0, 0)] == 4


def test_solve_fct_u(tmp_path, capsys):
    inst = make_instance((2, 2), (3, 1), [[1, 1], [1, 1]], [[0, 1], [1, 0]])
    path = tmp_path / "tiny.fct"
    path.write_text(serialize_instance(inst))
    assert main(["solve", "--variant", "fct-u", "--input", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cost"] == "4"


def test_solve_wrong_variant_exits_2(e1_file, capsys):
    code = main(["solve", "--variant", "pfct-u", "--input", e1_file])
    assert code == 2
    assert "requires PFCT-U" in capsys.readouterr().err


def test_solve_bicriteria_writes_relaxed_solution(tmp_path, capsys):
    inst = make_instance((4, 2), (3, 3), [[2, 1], [1, 2]], [[0, 1], [1, 0]])
    path = tmp_path / "fct.fct"
    path.write_text(serialize_instance(inst))
    out = tmp_path / "fct.sol"
    code = main(
        [
            "solve",
            "--variant",
            "fct-bicriteria",
            "--epsilon",
            "1/4",
            "--input",
            str(path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert "lp_value" in record["parameters"]
    sol = parse_solution(out.read_text())
    assert sol.relaxation == Fraction(1, 4)
    assert main(["verify", str(path), str(out)]) == 0


def test_parser_is_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import fctp.cli; print(fctp.cli.build_parser.cache_info().currsize)"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == b"0\n"


def test_oracle_out_of_memory_exits_2_with_one_line(tmp_path):
    # The guard accepts n + m = 20, whose DP tables need about 566 MB.  Under
    # a 300 MB address-space limit (or a lower inherited one) the oracle runs
    # out of memory within a second: exit code 2 and one line, no traceback.
    path = tmp_path / "pfct-s.fct"
    path.write_text(serialize_instance(generate("pfct-s", 10, 10, 1)))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 300 * 2**20 if hard == resource.RLIM_INFINITY else min(300 * 2**20, hard)
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "fctp.cli", "oracle", "--input", str(path), "--guard", "20"],
        env=env,
        capture_output=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert run.returncode == 2, run.stderr.decode()
    assert run.stderr == b"error: out of memory\n"
    assert run.stdout == b""


def test_shared_parser_is_unchanged_by_refused_calls(tmp_path, capsys):
    inst = make_instance((4, 2), (3, 3), [[2, 1], [1, 2]], [[0, 1], [1, 0]])
    path = tmp_path / "fct.fct"
    path.write_text(serialize_instance(inst))
    out = tmp_path / "fct.sol"
    argv = ["solve", "--variant", "fct-bicriteria", "--epsilon", "1/4", "--input", str(path)]

    def good_run():
        assert main(argv + ["--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    first = good_run()
    # argparse refuses the first call, the solver dispatch the second.
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--variant", "bogus", "--input", str(path)])
    assert exc.value.code == 2
    assert main(["solve", "--variant", "fct-bicriteria", "--input", str(path)]) == 2
    assert "--epsilon is required" in capsys.readouterr().err
    out.write_bytes(b"")
    assert good_run() == first


def test_verify_ok_and_violation(e1_file, tmp_path, capsys):
    sol = tmp_path / "e1.sol"
    sol.write_text("SOL v1\n1 1 4\n1 2 1\n2 2 1\n2 3 2\n")
    assert main(["verify", e1_file, str(sol)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"status": "ok", "cost": "28"}
    bad = tmp_path / "bad.sol"
    bad.write_text("SOL v1\n1 1 5\n2 2 1\n2 3 2\n")
    assert main(["verify", e1_file, str(bad)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "violation"
    assert "sink" in record["detail"] or "column" in record["detail"]


def test_verify_reports_flow_on_forbidden_edge(tmp_path, capsys):
    inst = tmp_path / "inst.fct"
    inst.write_text("FCT v1\n1 2\n3\n1 2\n1 1\n0 inf\n")
    sol = tmp_path / "forbidden.sol"
    sol.write_text("SOL v1\n1 1 1\n1 2 2\n")
    assert main(["verify", str(inst), str(sol)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "status": "violation",
        "detail": "flow on forbidden edge (1, 2)",
    }
    assert captured.err == ""


def test_verify_rejects_relaxation_tag_above_one(tmp_path, capsys):
    inst = tmp_path / "inst.fct"
    inst.write_text(
        serialize_instance(make_instance((2, 3), (2, 3), [[0, 0], [0, 0]], [[0, 0], [0, 0]]))
    )
    sol = tmp_path / "relaxed.sol"
    sol.write_text("SOL v1\nrelaxed 5\n1 1 2\n2 1 3\n")
    assert main(["verify", str(inst), str(sol)]) == 2
    assert "relaxation tag" in capsys.readouterr().err


def test_certify_lp65_deterministic(capsys):
    assert main(["certify", "lp65"]) == 0
    first = capsys.readouterr().out
    assert main(["certify", "lp65"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "value: 6/5" in first
    assert "x3=4/15" in first


def test_certify_perturbed_fails(capsys):
    assert main(["certify", "lp65", "--perturb-primal", "x3=1/3"]) == 1
    assert "certificate invalid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, item, message",
    [
        ("--perturb-primal", "foo=1", "error: unknown primal key 'foo'"),
        ("--perturb-dual", "x3=1", "error: unknown dual key 'x3'"),
        ("--perturb-primal", "x3", "error: expected KEY=P/Q, got 'x3'"),
    ],
)
def test_certify_refuses_an_unknown_key(capsys, flag, item, message):
    assert main(["certify", "lp65", flag, item]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


def test_oracle_command(e1_file, tmp_path, capsys):
    assert main(["oracle", "--input", e1_file]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == "28"
    out = tmp_path / "e1.sol"
    assert main(["oracle", "--input", e1_file, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == "28"
    sol = parse_solution(out.read_text())
    assert validate_solution(e1_instance(), sol) is None
    assert evaluate_cost(e1_instance(), sol) == 28


def test_oracle_memory_ceiling_exits_2(tmp_path, capsys):
    # n + m = 21 is over the subset-DP ceiling, so a large --guard must not
    # reach the (n + m) * 2^(n + m) allocation.
    path = tmp_path / "wide.fct"
    path.write_text(serialize_instance(uniform_pure_instance((2,) + (1,) * 9, (1,) * 11)))
    assert main(["oracle", "--input", str(path), "--guard", "64"]) == 2
    assert "memory ceiling exceeded: n + m = 21 > 20" in capsys.readouterr().err


def test_ptas_refuses_isolated_source_at_once(tmp_path, capsys):
    # 40 sources and one sink, only source 1 has an edge: infeasible, and
    # refused before the PTAS builds its 2^40 subset sums.
    n = 40
    linear = [[0]] + [[INF]] * (n - 1)
    path = tmp_path / "isolated.fct"
    path.write_text(serialize_instance(make_instance((1000,) * n, (1000 * n,), [[1]] * n, linear)))
    started = time.perf_counter()
    code = main(["solve", "--variant", "pfct-ptas", "--epsilon", "1/2", "--input", str(path)])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert "no feasible transportation" in capsys.readouterr().err


def test_solve_refuses_large_swap_scan(tmp_path, capsys):
    # A 4 x 18 draw of random_pfct_u(Random(7), 22, max_supply=4): its
    # 3 x 17 residual has 136 balanced sets of size 3 and 816 of size <= 5,
    # so --swap 3 would scan about 9e7 triples at k = 5 (about a minute)
    # and --swap 4 about 1.4e7 quadruples already at k = 3.
    path = tmp_path / "wide.fct"
    path.write_text(serialize_instance(uniform_pure_instance((2, 3, 1, 12), (1,) * 18)))
    for swap in ("3", "4"):
        started = time.perf_counter()
        code = main(["solve", "--variant", "pfct-u", "--mode", "ls", "--swap", swap,
                     "--input", str(path)])
        assert time.perf_counter() - started < 2
        assert code == 2
        assert "combinations > 10000000" in capsys.readouterr().err


def test_solve_refuses_past_the_packing_bound(tmp_path, capsys, monkeypatch):
    # The 3 x 17 residual of this 4 x 18 draw has 816 balanced sets of size
    # <= 5; its exact packing takes 120 380 DP steps at k = 4.
    monkeypatch.setattr("fctp.pfct_u.MAX_PACKING_STEPS", 10_000)
    path = tmp_path / "wide.fct"
    path.write_text(serialize_instance(uniform_pure_instance((2, 3, 1, 12), (1,) * 18)))
    out = tmp_path / "wide.sol"
    code = main(["solve", "--variant", "pfct-u", "--input", str(path), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exact packing needs more than 10000 DP steps; try --mode ls\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "supplies, demands, report",
    [((0, 3), (1, 2), "a_1 not positive"), ((2, 3), (1, 2), "sum(a) != sum(b)")],
)
def test_invalid_instance_file_exits_2(tmp_path, capsys, supplies, demands, report):
    # The parser refuses every bad cost, so solve, oracle and verify check
    # only sizes, supplies, demands and balance, with the same messages.
    # make_instance refuses these sides, so the file is written by hand.
    sides = " ".join(map(str, supplies)) + "\n" + " ".join(map(str, demands))
    path = tmp_path / "bad.fct"
    path.write_text(f"FCT v1\n2 2\n{sides}\n1 1\n1 1\n0 0\n0 0\n")
    sol = tmp_path / "any.sol"
    sol.write_text("SOL v1\n1 1 1\n")
    for argv in (
        ["solve", "--variant", "pfct-s", "--input", str(path)],
        ["solve", "--variant", "fct-u", "--input", str(path)],
        ["oracle", "--input", str(path)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid instance: {report}\n"
        assert captured.out == ""
    assert main(["verify", str(path), str(sol)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record == {"status": "violation", "detail": f"instance: {report}"}


def test_solve_pfct_s_validates_and_classifies_once(e1_file, monkeypatch, capsys):
    # The parsed instance checks itself once, and one PFCT-S view
    # classifies the cost matrices once.
    calls = []
    classify = pfct_s.classify_variant
    monkeypatch.setattr(pfct_s, "classify_variant", lambda inst: calls.append(1) or classify(inst))
    assert main(["solve", "--variant", "pfct-s", "--input", e1_file]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == "28"
    assert len(calls) == 1


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.fct"
    path.write_text("FCT v1\n1 1\nx\n1\n0\n0\n")
    assert main(["oracle", "--input", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_every_file_reading_command_refuses_non_utf8_input(e1_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"FCT v1\n1 1\n\xff\n")
    commands = [
        ["solve", "--variant", "pfct-s", "--input", str(bad)],
        ["verify", e1_file, str(bad)],
        ["oracle", "--input", str(bad)],
        ["generate", "--from", "dst", "--input", str(bad)],
        ["bench", "--config", str(bad), "--out-prefix", str(tmp_path / "out")],
    ]
    for argv in commands:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: line 3: not UTF-8: byte 0xff in {bad}\n"


@pytest.mark.parametrize("token", ["1e9999999", "1.5", "1_0"])
def test_solve_rejects_cost_outside_grammar(tmp_path, capsys, token):
    # Fraction(str) reads all three; 1e9999999 used to build a ten-million
    # digit int and then fail to print it.
    path = tmp_path / "token.fct"
    path.write_text(f"FCT v1\n1 2\n2\n1 1\n{token} {token}\n0 0\n")
    assert main(["solve", "--variant", "pfct-s", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: line 5: malformed rational '{token}'")


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0662"])
def test_solve_rejects_supply_outside_grammar(tmp_path, capsys, token):
    # int() reads all three as a supply.
    path = tmp_path / "token.fct"
    path.write_text(f"FCT v1\n1 1\n{token}\n2\n0\n0\n", encoding="utf-8")
    assert main(["solve", "--variant", "pfct-s", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 3: supply must be an integer")


def test_parse_fraction_accepts_p_p_over_q_and_p_dot_q():
    assert _parse_fraction("1/4") == _parse_fraction("0.25") == Fraction(1, 4)
    assert _parse_fraction("-3/2") == Fraction(-3, 2)
    assert _parse_fraction("2") == _parse_fraction(2) == 2
    assert _parse_fraction("9" * 100 + "." + "9" * 100) == Fraction("9" * 100 + "." + "9" * 100)
    # Fraction(str) reads the first eight.
    for text in ("1e-2", "1_0", "+1", " 1", ".5", "5.", "\u0661", "9" * 101, "1/", "1/0", "x"):
        with pytest.raises(FctpError, match="not a rational"):
            _parse_fraction(text)


def test_solve_rejects_epsilon_with_exponent(e1_file, capsys):
    # Fraction("1e-2000000") takes seconds and builds an int too long to print.
    argv = ["solve", "--variant", "fct-bicriteria", "--epsilon", "1e-2000000", "--input", e1_file]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not a rational: '1e-2000000'\n"


@pytest.mark.parametrize(
    "variant, text", [("pfct-s", "abc"), ("pfct-u", "abc"), ("fct-u", "1e9")]
)
def test_solve_refuses_a_bad_epsilon_on_every_variant(tmp_path, capsys, variant, text):
    # These variants take no epsilon, and used to echo any text as one.
    path = tmp_path / "inst.fct"
    path.write_text(serialize_instance(generate(variant, 2, 3, 1)))
    assert main(["solve", "--variant", variant, "--epsilon", text, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a rational: {text!r}\n"


def test_solve_refuses_cost_too_long_to_print(tmp_path, capsys):
    # The cost's denominator is the lcm of 60 distinct 100-digit odd
    # denominators, past the digits Python converts to a string.
    m = 60
    linear = " ".join(f"1/{10**99 + 1 + 2 * k}" for k in range(m))
    path = tmp_path / "wide.fct"
    path.write_text(f"FCT v1\n1 {m}\n{m}\n{' 1' * m}\n{' 1' * m}\n{linear}\n")
    out = tmp_path / "wide.sol"
    argv = ["solve", "--variant", "fct-u", "--input", str(path), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rational too long to print\n"
    assert not out.exists()


def test_generate_dst(tmp_path, capsys):
    src = tmp_path / "d.dst"
    src.write_text("DST v1\n4 3\n1\n3 4\n1 2 1\n2 3 1\n2 4 1\n")
    out = tmp_path / "d.fct"
    assert main(["generate", "--from", "dst", "--input", str(src), "--out", str(out)]) == 0
    inst = parse_instance(out.read_text())
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == inst.n and record["m"] == inst.m
    from fctp import oracle

    assert oracle.exact_fct(inst)[0] == 3
    # Without --out the instance text goes to stdout.
    assert main(["generate", "--from", "dst", "--input", str(src)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_generate_setcover(tmp_path, capsys):
    src = tmp_path / "s.cover"
    src.write_text("SETCOVER v1\n2 2\n2 1 2\n1 2\n")
    out = tmp_path / "s.fct"
    assert main(
        ["generate", "--from", "setcover", "--input", str(src), "--out", str(out)]
    ) == 0
    from fctp import oracle

    assert oracle.exact_fct(parse_instance(out.read_text()))[0] == 1


def test_generate_3dm_deterministic(tmp_path, capsys):
    src = tmp_path / "t.3dm"
    src.write_text("3DM v1\n2 3\n1 1 1\n2 2 2\n1 2 2\n")
    out1 = tmp_path / "a.fct"
    out2 = tmp_path / "b.fct"
    assert main(
        ["generate", "--from", "3dm", "--input", str(src), "--out", str(out1), "--seed", "5"]
    ) == 0
    assert main(
        ["generate", "--from", "3dm", "--input", str(src), "--out", str(out2), "--seed", "5"]
    ) == 0
    assert out1.read_text() == out2.read_text()
    records = capsys.readouterr().out.strip().splitlines()
    assert json.loads(records[0])["draws"] == json.loads(records[1])["draws"]


def test_generate_3dm_accepts_n_10_and_refuses_n_41000(tmp_path, capsys):
    triples = [f"{k} {k} {k}" for k in range(1, 11)] + ["1 2 3", "4 5 6"]
    src = tmp_path / "n10.3dm"
    src.write_text("3DM v1\n10 12\n" + "\n".join(triples) + "\n")
    out = tmp_path / "n10.fct"
    assert main(["generate", "--from", "3dm", "--input", str(src), "--out", str(out)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["n"], record["m"]) == (12, 31)
    # 123 000 elements: the multiset count refuses the first draw before any loop.
    src.write_text("3DM v1\n41000 2\n1 1 1\n2 2 2\n")
    assert main(["generate", "--from", "3dm", "--input", str(src)]) == 2
    assert capsys.readouterr().err == "error: independence check too large to enumerate\n"


def test_generate_3dm_refuses_a_side_past_the_digit_limit(tmp_path, capsys):
    # A 121-digit delta builds sides that fctp solve would refuse; a
    # 4300-digit one, sides past what str() converts.  Both are refused
    # before any text is written.
    src = tmp_path / "t.3dm"
    src.write_text("3DM v1\n2 3\n1 1 1\n2 2 2\n1 2 1\n")
    out = tmp_path / "t.fct"
    for delta in ("1" + "0" * 120, "9" * 4300):
        argv = ["generate", "--from", "3dm", "--input", str(src), "--out", str(out)]
        assert main(argv + ["--delta", delta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a generated supply or demand has more than {MAX_COST_DIGITS} digits\n"
        )
        assert not out.exists()
    tdm = make_threedm(2, [(0, 0, 0), (1, 1, 1), (0, 1, 0)])
    inst, _ = threedm_to_pfct_u(tdm, delta=10**4300)
    with pytest.raises(FctpError, match="^supply or demand too long to print$"):
        serialize_instance(inst)


def test_bench_roundtrip(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps(
            {
                "rows": [
                    {
                        "family": "pfct-s",
                        "solver": "pfct-s",
                        "sizes": [[2, 3]],
                        "seeds": 3,
                        "seed_base": 5,
                        "oracle": True,
                    }
                ]
            }
        )
    )
    prefix = tmp_path / "out"
    assert main(["bench", "--config", str(config), "--out-prefix", str(prefix)]) == 0
    csv_lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 4  # header + 3 rows
    jsonl = [
        json.loads(line)
        for line in (tmp_path / "out.jsonl").read_text().strip().splitlines()
    ]
    for row in jsonl:
        assert row["error"] == ""
        ratio = Fraction(row["ratio"])
        assert ratio <= 2
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["summary"] == "max_ratio"


def test_bench_records_guard_errors_per_row(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps(
            {
                "rows": [
                    {
                        "family": "pfct-s",
                        "solver": "pfct-s",
                        # n + m = 18 exceeds the oracle guard; the row must
                        # carry the error instead of aborting the run.
                        "sizes": [[9, 9], [2, 2]],
                        "seeds": [1],
                        "oracle": True,
                    }
                ]
            }
        )
    )
    prefix = tmp_path / "guarded"
    assert main(["bench", "--config", str(config), "--out-prefix", str(prefix)]) == 0
    rows = [
        json.loads(line)
        for line in (tmp_path / "guarded.jsonl").read_text().strip().splitlines()
    ]
    assert len(rows) == 2
    small = next(r for r in rows if r["n"] == 2)
    big = next(r for r in rows if r["n"] == 9)
    assert small["error"] == "" and small["ratio"] != ""
    assert "guard" in big["error"]


def test_bench_records_packing_guard_errors_per_row(tmp_path, monkeypatch):
    # Seed 1's 4 x 18 draw needs more exact-packing steps than the lowered
    # bound; the row records the refusal and the next row still runs.
    monkeypatch.setattr("fctp.pfct_u.MAX_PACKING_STEPS", 10_000)
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps({"rows": [{"family": "pfct-u", "sizes": [[4, 18], [2, 3]], "seeds": [1]}]})
    )
    prefix = tmp_path / "packing"
    assert main(["bench", "--config", str(config), "--out-prefix", str(prefix)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "packing.jsonl").read_text().splitlines()]
    assert [(r["n"], r["error"]) for r in rows] == [
        (2, ""),
        (4, "exact packing needs more than 10000 DP steps; try --mode ls"),
    ]
    assert rows[0]["cost"] != "" and rows[1]["cost"] == ""


def test_bench_records_an_unknown_solver_per_row(tmp_path):
    config = tmp_path / "bench.json"
    row = {"family": "pfct-s", "solver": "bogus", "sizes": [[2, 3]], "seeds": 1}
    config.write_text(json.dumps({"rows": [row]}))
    prefix = tmp_path / "unknown"
    assert main(["bench", "--config", str(config), "--out-prefix", str(prefix)]) == 0
    (record,) = [json.loads(line) for line in (tmp_path / "unknown.jsonl").read_text().splitlines()]
    assert record["error"] == "unknown variant 'bogus'" and record["cost"] == ""


def test_bench_empty_config(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("{}")
    prefix = tmp_path / "empty_out"
    assert main(["bench", "--config", str(config), "--out-prefix", str(prefix)]) == 0
    assert (tmp_path / "empty_out.csv").read_text().strip().count("\n") == 0


def test_solve_timing_flag(e1_file, capsys):
    assert main(["solve", "--variant", "pfct-s", "--input", e1_file, "--timing"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "wall_time_s" in record


def _write_instances(tmp_path):
    from fctp.generators import generate

    paths = {}
    for name, family, n, m, seed in (
        ("s", "pfct-s", 3, 4, 1),
        ("u", "pfct-u", 3, 5, 4),
        ("fu", "fct-u", 3, 4, 2),
        ("f", "fct", 3, 4, 3),
        ("p", "pure", 2, 3, 5),
    ):
        path = tmp_path / f"{name}.fct"
        path.write_text(serialize_instance(generate(family, n, m, seed)))
        paths[name] = str(path)
    return paths


SOLVE_PINNED_RUNS = (
    ("pfct-s", "s", []),
    ("pfct-s", "s", ["--epsilon", "1/3", "--oracle"]),
    ("pfct-u", "u", []),
    ("pfct-u", "u", ["--mode", "ls"]),
    ("pfct-u", "u", ["--mode", "ls", "--swap", "3", "--epsilon", "1/2"]),
    ("pfct-u", "u", ["--swap", "1"]),
    ("fct-u", "fu", ["--oracle"]),
    ("fct-bicriteria", "f", ["--epsilon", "1/4"]),
    ("fct-bicriteria", "f", ["--epsilon", "1/8", "--oracle"]),
    ("pfct-ptas", "p", ["--epsilon", "1/2", "--oracle"]),
    ("fct-bicriteria", "f", []),
    ("pfct-ptas", "p", []),
    ("fct-bicriteria", "f", ["--epsilon", "x"]),
    ("pfct-u", "s", []),
    ("pfct-u", "u", ["--mode", "ls", "--swap", "0"]),
)


def test_solve_output_pinned(tmp_path, capsys):
    # Recorded before `solve` and `bench` shared one options dict: exit code,
    # stdout, stderr and the solution file of every run feed the digest.
    paths = _write_instances(tmp_path)
    digest = hashlib.sha256()
    for variant, name, extra in SOLVE_PINNED_RUNS:
        out = tmp_path / "run.sol"
        out.write_text("")
        argv = ["solve", "--variant", variant, "--input", paths[name], "--out", str(out)]
        code = main(argv + extra)
        captured = capsys.readouterr()
        record = [variant, name, extra, code, captured.out, captured.err, out.read_text()]
        digest.update(repr(record).replace(str(tmp_path), "<tmp>").encode() + b"\n")
    assert digest.hexdigest() == "1e91f8d8d002444777e2cd07501f762d7b0469baea59b4ad739cd00ff678b8aa"


def test_bench_output_pinned(tmp_path, capsys):
    config = tmp_path / "bench.json"
    rows = [
        {"family": "pfct-s", "sizes": [[2, 3], [3, 3]], "seeds": 2, "oracle": True},
        {"family": "pfct-u", "sizes": [[2, 4]], "seeds": [3, 1], "oracle": True,
         "params": {"mode": "ls", "swap": 1, "generator": {"max_supply": 6}}},
        {"family": "fct", "solver": "fct-bicriteria", "sizes": [[2, 3]], "seeds": 2,
         "seed_base": 4, "oracle": True, "params": {"epsilon": "1/4", "guard": 12}},
        {"family": "fct", "solver": "fct-bicriteria", "sizes": [[2, 2]], "seeds": 1,
         "params": {"epsilon": 1}},
        {"family": "pure", "solver": "pfct-ptas", "sizes": [[2, 3]], "seeds": 2,
         "oracle": True, "params": {"epsilon": "1/2"}},
        {"family": "pure", "solver": "pfct-ptas", "sizes": [[1, 2]], "seeds": 1},
        {"family": "fct-u", "solver": "fct-u", "sizes": [[3, 3]], "seeds": 2,
         "params": {"generator": {"forbid_probability": 0.5}}},
        {"family": "fct", "solver": "pfct-u", "sizes": [[2, 2]], "seeds": 1},
        {"family": "nope", "sizes": [[2, 2]], "seeds": 1},
    ]
    config.write_text(json.dumps({"rows": rows}))
    prefix = tmp_path / "pinned"
    assert main(["bench", "--config", str(config), "--out-prefix", str(prefix)]) == 0
    digest = hashlib.sha256()
    digest.update(capsys.readouterr().out.encode())
    digest.update((tmp_path / "pinned.csv").read_bytes())
    digest.update((tmp_path / "pinned.jsonl").read_bytes())
    assert digest.hexdigest() == "6139ee616af37be0a945a7ee03c07fc40467b4c51d564810f9a48252964e047c"


@pytest.mark.parametrize(
    "kind, text, lineno",
    [
        ("dst", "DST v1\n4 3 9\n1\n3 4\n1 2 1\n2 3 1\n2 4 1\n", 2),
        ("dst", "DST v1\n4 3\n\n3 4\n1 2 1\n2 3 1\n2 4 1\n", 3),
        ("dst", "DST v1\n4 x\n1\n3 4\n", 2),
        ("dst", "DST v1\n4 1\n1\n3 4\n1 y 1\n", 5),
        ("setcover", "SETCOVER v1\n2\n", 2),
        ("setcover", "SETCOVER v1\n2 2\n2 1 b\n1 2\n", 3),
        ("3dm", "3DM v1\n2 3\n1 1 1\n2 2\n1 2 2\n", 4),
        ("3dm", "3DM v1\n2 1\n1 1 1.5\n", 3),
        # Integer tokens are 1 to 100 digits 0-9, as in FCT v1.
        ("dst", "DST v1\n4 1\n+3\n2\n1 2 1\n", 3),
        ("3dm", "3DM v1\n2 2\n1 1 -1\n2 2 2\n", 3),
        # A DST edge cost keeps its p.q grammar, and its line.
        ("dst", "DST v1\n4 1\n1\n2\n1 2 1e3\n", 5),
        ("dst", "DST v1\n4 1\n1\n2\n1 2\n", 5),
        # Header sizes whose instance can exceed generators.MAX_CELLS cells.
        ("dst", "DST v1\n1000000000 3\n1\n3 4\n", 2),
        ("dst", "DST v1\n354 1\n1\n2\n1 2 1\n", 2),
        ("dst", "DST v1\n4 13\n1\n2\n", 2),
        ("setcover", "SETCOVER v1\n100000000 1\n", 2),
        ("3dm", "3DM v1\n100000000 2\n1 1 1\n2 2 2\n", 2),
    ],
)
def test_generate_rejects_malformed_input(tmp_path, capsys, kind, text, lineno):
    src = tmp_path / "bad.txt"
    src.write_text(text)
    assert main(["generate", "--from", kind, "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: line {lineno}:")


# Tokens each text format must refuse or read: signs, zero denominators,
# decimals, exponents, words, blanks and non-ASCII digits among small ints.
_FUZZ_TOKENS = ["0", "1", "2", "3", "4", "-1", "1/0", "1/2", "1.5", "1e3", "inf", "", "\u0663", "\uff11"]
_FUZZ_HEADERS = ["FCT v1", "SOL v1", "DST v1", "SETCOVER v1", "3DM v1"]
_FUZZ_TEXT = st.builds(
    lambda header, lines: "\n".join([header] + lines) + "\n",
    st.sampled_from(_FUZZ_HEADERS),
    # Small ints at least half the time, so that texts get past their size lines.
    st.lists(
        st.lists(
            st.one_of(st.sampled_from(["1", "2", "3"]), st.sampled_from(_FUZZ_TOKENS)),
            max_size=5,
        ).map(" ".join),
        max_size=9,
    ),
)


# Random bytes, bare or after a valid header line, as a file holds them.
_FUZZ_BYTES = st.builds(
    bytes.__add__,
    st.sampled_from([b""] + [f"{header}\n".encode() for header in _FUZZ_HEADERS]),
    st.binary(max_size=64),
)


@settings(max_examples=400)
@given(_FUZZ_TEXT, _FUZZ_BYTES)
def test_parsers_raise_only_fctp_errors(tmp_path_factory, text, raw):
    # Each draw is written to a file and read back the way every command
    # reads its input.
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    for data in (text.encode(), raw):
        path.write_bytes(data)
        try:
            read = _read(str(path))
        except FctpError:
            continue
        for parse in (
            parse_instance,
            parse_solution,
            parse_dst_file,
            parse_setcover_file,
            parse_threedm_file,
        ):
            try:
                parse(read)
            except FctpError:
                pass


_GOOD_ROW = {"family": "pfct-s", "sizes": [[2, 3]], "seeds": 1}


@pytest.mark.parametrize(
    "config",
    [
        [],
        {"rows": 5},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "sizes": [[2]]}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "sizes": [[0, 3]]}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"swap": "x"}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"guard": "x"}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"generator": 5}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"generator": {"max_supplies": 4}}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "solver": "pfct-ptas", "params": {"epsilon": 0.1}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"mode": "x"}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "solver": "fct-bicriteria", "params": {"epsilon": "x"}}]},
        {"rows": [_GOOD_ROW, {"sizes": [[2, 3]], "seeds": 1}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "seeds": "x"}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "sizes": [[2, 3], [500, 501]]}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "family": "pfct-u", "sizes": [[1, 1000]]}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"generator": {"max_supply": 0}}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"generator": {"max_fixed": 0}}}]},
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "params": {"generator": {"max_supply": "x"}}}]},
        {
            "rows": [
                _GOOD_ROW,
                {**_GOOD_ROW, "family": "fct-u", "params": {"generator": {"forbid_probability": "x"}}},
            ]
        },
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "family": "fct", "params": {"generator": {"halves": 1}}}]},
        # Too many rows, refused from their counts: no list of seeds is built.
        {"rows": [_GOOD_ROW, {**_GOOD_ROW, "seeds": 10**30}]},
        {"rows": [{**_GOOD_ROW, "sizes": [[2, 3], [3, 4]], "seeds": MAX_BENCH_ROWS // 2 + 1}]},
    ],
)
def test_bench_rejects_malformed_config_before_any_row(tmp_path, capsys, config):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    prefix = tmp_path / "out"
    assert main(["bench", "--config", str(path), "--out-prefix", str(prefix)]) == 2
    assert capsys.readouterr().err.startswith("error: bench config: ")
    assert not (tmp_path / "out.csv").exists()


_LONG_SEEDS = '{"rows": [{"family": "pfct-s", "sizes": [[2, 3]], "seeds": ' + "9" * 5000 + "}]}"


@pytest.mark.parametrize(
    "text, digit_limit",
    [
        # Past Python's int-digit limit json.loads raises a plain ValueError;
        # with no limit (0), the row count refuses the same config.
        (_LONG_SEEDS, None),
        (_LONG_SEEDS, 0),
        ('{"rows": [', None),
    ],
    ids=["5000-digit seeds", "5000-digit seeds, no digit limit", "not JSON"],
)
def test_bench_refuses_a_config_json_cannot_read(tmp_path, capsys, text, digit_limit):
    path = tmp_path / "bench.json"
    path.write_text(text)
    prefix = tmp_path / "out"
    argv = ["bench", "--config", str(path), "--out-prefix", str(prefix)]
    if digit_limit is None:
        assert main(argv) == 2
    elif hasattr(sys, "set_int_max_str_digits"):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digit_limit)
        try:
            assert main(argv) == 2
        finally:
            sys.set_int_max_str_digits(saved)
    else:
        pytest.skip("this Python has no int-digit limit")
    assert capsys.readouterr().err.startswith("error: bench config: ")
    assert not (tmp_path / "out.csv").exists()


def test_bench_config_accepts_sizes_and_options_at_their_limits():
    rows = _bench_rows(
        {
            "rows": [
                {"family": "pfct-s", "sizes": [[500, 500]], "seeds": 1},
                {"family": "pfct-u", "sizes": [[1, 999]], "seeds": 1},
                {
                    "family": "pure",
                    "sizes": [[2, 3]],
                    "seeds": 1,
                    "params": {"generator": {"max_supply": 1, "max_fixed": 0}},
                },
                {
                    "family": "fct-u",
                    "sizes": [[2, 3]],
                    "seeds": 1,
                    "params": {"generator": {"max_linear": 0, "forbid_probability": 1}},
                },
            ]
        }
    )
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("fct-u", 2, 3),
        ("pfct-s", 500, 500),
        ("pfct-u", 1, 999),
        ("pure", 2, 3),
    ]
