"""Command-line front end: solve, verify, certify, oracle, generate, bench.

All reports are JSON lines with rationals rendered as ``p/q`` (never
decimals), so runs are byte-for-byte reproducible given flags and seeds.
Wall-clock timing is opt-in (``--timing``) because it would break that
reproducibility.  Exit codes: 0 success, 1 internal invariant failure,
2 user error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from fractions import Fraction

from . import generators, oracle
from .bicriteria import solve_bicriteria
from .errors import CertificateError, FctpError, GuardError, ParseError
from .fct_u import solve_fct_u
from .model import (
    MAX_COST_DIGITS,
    LineReader,
    balance_report,
    evaluate_cost,
    format_rational,
    parse_instance,
    parse_int_token,
    parse_solution,
    serialize_instance,
    serialize_solution,
    validate_solution,
)
from .pfct_s import solve_pfct_s
from .pfct_u import solve_pfct_u, verify_factor_revealing_certificate
from .ptas import ptas_solve
from .reductions import (
    dst_to_pfct_digraph,
    make_dst,
    make_setcover,
    make_threedm,
    setcover_to_fct_s,
    split_digraph_to_bipartite,
    threedm_to_pfct_u,
)

# Unused here: `fctp solve` validates with balance_report and solves PFCT-S
# with solve_pfct_s, but perfbench/tracing.py still wraps these fctp.cli names.
from .model import validate_instance  # noqa: F401
from .pfct_s import greedy_solve, greedy_upper_bound, opt_lower_bound  # noqa: F401

VARIANTS = ("pfct-s", "pfct-u", "fct-u", "fct-bicriteria", "pfct-ptas")
# Solver options of `fctp solve`; a bench row's params are merged over them.
SOLVE_DEFAULTS = {"mode": "exact", "swap": 2, "epsilon": None, "guard": 16}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        pass
    # Read again with each undecodable byte kept as a lone surrogate, to
    # name the first one and its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    bad = next(k for k, ch in enumerate(text) if "\udc80" <= ch <= "\udcff")
    byte = ord(text[bad]) - 0xDC00
    raise ParseError(text.count("\n", 0, bad) + 1, f"not UTF-8: byte 0x{byte:02x} in {path}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# A rational flag or DST edge cost: p, p/q or the decimal p.q, at most
# MAX_COST_DIGITS digits in each part.
_RATIONAL = re.compile(rf"-?[0-9]{{1,{MAX_COST_DIGITS}}}([/.][0-9]{{1,{MAX_COST_DIGITS}}})?")


def _parse_fraction(text: str | int) -> Fraction:
    text = str(text)  # a bench config may give an integer
    if _RATIONAL.fullmatch(text) is None:
        raise FctpError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise FctpError(f"not a rational: {text!r}") from None


def _dispatch_solver(inst, variant, options):
    """Returns (flow, algorithm name, parameters echoed in the report)."""
    parameters = {}
    if variant == "pfct-u":
        parameters["mode"] = options["mode"]
        if options["mode"] == "ls":
            parameters["swap"] = options["swap"]
    if options["epsilon"] is not None:
        parameters["epsilon"] = options["epsilon"]
    elif variant in ("fct-bicriteria", "pfct-ptas"):
        raise FctpError(f"--epsilon is required for {variant}")
    if variant == "pfct-s":
        flow, lower, upper = solve_pfct_s(inst)
        parameters["opt_lower_bound"] = format_rational(lower)
        parameters["greedy_upper_bound"] = format_rational(upper)
        return flow, "greedy", parameters
    if variant == "pfct-u":
        _, flow = solve_pfct_u(inst, mode=options["mode"], swap_size=options["swap"])
        return flow, f"balanced-packing-{options['mode']}", parameters
    if variant == "fct-u":
        return solve_fct_u(inst), "linear-then-forest", parameters
    if variant == "fct-bicriteria":
        flow, report = solve_bicriteria(inst, _parse_fraction(options["epsilon"]))
        parameters["lp_value"] = format_rational(report.lp_value)
        parameters["cost_bound"] = format_rational(report.cost_bound)
        return flow, "bicriteria-rounding", parameters
    if variant == "pfct-ptas":
        flow = ptas_solve(inst, _parse_fraction(options["epsilon"]))
        return flow, "guess-expensive-edges", parameters
    raise FctpError(f"unknown variant {variant!r}")


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.input))
    report = balance_report(inst)
    if report is not None:
        print(f"invalid instance: {report}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    flow, algorithm, parameters = _dispatch_solver(inst, args.variant, vars(args))
    elapsed = time.perf_counter() - started
    cost = evaluate_cost(inst, flow)
    # Every rational is rendered before the solution is written, so a cost
    # too long to print leaves no solution file.
    record = {
        "instance": args.input,
        "variant": args.variant,
        "algorithm": algorithm,
        "cost": format_rational(cost),
        "parameters": parameters,
    }
    if args.oracle:
        opt, _ = oracle.exact_fct(inst, guard=args.guard)
        record["oracle_cost"] = format_rational(opt)
        if opt > 0:
            record["ratio"] = format_rational(cost / opt)
    if args.timing:
        record["wall_time_s"] = round(elapsed, 6)
    line = json.dumps(record)
    if args.out:
        _write(args.out, serialize_solution(flow))
    print(line)
    return 0


def cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol = parse_solution(_read(args.solution))
    report = balance_report(inst)
    if report is not None:
        print(json.dumps({"status": "violation", "detail": f"instance: {report}"}))
        return 2
    violation = validate_solution(inst, sol)
    if violation is not None:
        print(json.dumps({"status": "violation", "detail": violation}))
        return 2
    cost = evaluate_cost(inst, sol)
    record = {"status": "ok", "cost": format_rational(cost)}
    if sol.relaxation is not None:
        record["relaxed"] = format_rational(sol.relaxation)
    print(json.dumps(record))
    return 0


def _parse_overrides(pairs):
    overrides = {}
    for item in pairs or []:
        key, _, value = item.partition("=")
        if not value:
            raise FctpError(f"expected KEY=P/Q, got {item!r}")
        overrides[key] = _parse_fraction(value)
    return overrides


def cmd_certify(args) -> int:
    try:
        cert = verify_factor_revealing_certificate(
            primal=_parse_overrides(args.perturb_primal),
            dual=_parse_overrides(args.perturb_dual),
        )
    except CertificateError as exc:
        print(f"certificate invalid: {exc}", file=sys.stderr)
        return 1
    primal = " ".join(
        f"{key}={format_rational(value)}" for key, value in cert.primal.items()
    )
    dual = " ".join(
        f"{key}={format_rational(value)}" for key, value in cert.dual.items()
    )
    print("factor-revealing LP certificate")
    print(f"primal: {primal}")
    print(f"dual: {dual}")
    print(f"value: {format_rational(cert.value)}")
    return 0


def cmd_oracle(args) -> int:
    inst = parse_instance(_read(args.input))
    report = balance_report(inst)
    if report is not None:
        print(f"invalid instance: {report}", file=sys.stderr)
        return 2
    cost, flow = oracle.exact_fct(inst, guard=args.guard)
    if args.out:
        _write(args.out, serialize_solution(flow))
    print(json.dumps({"command": "oracle", "cost": format_rational(cost)}))
    return 0


# --- generator input formats (line-oriented; see README) -------------------


def _ints(tokens, lineno, what):
    return [parse_int_token(tok, lineno, what) for tok in tokens]


def _check_cells(cells: int, what: str) -> None:
    """Refuse header sizes (line 2) whose generated instance can be too large."""
    if cells > generators.MAX_CELLS:
        raise ParseError(2, f"{what} can build more than {generators.MAX_CELLS} cells n * m")


def parse_dst_file(text: str):
    reader = LineReader(text, "DST v1")
    nv, ne = _ints(reader.fields(2, "dimensions", 2), 2, "dimension")
    # Splitting makes at most V + 1 rows, a pendant for a root with incoming
    # edges, and 2V - 1 columns, V - 1 terminals each with a pendant copy.
    _check_cells((nv + 1) * (2 * nv - 1), f"V = {nv}")
    if ne > nv * (nv - 1):
        raise ParseError(2, f"E = {ne} exceeds V(V - 1), the most edges V vertices have")
    (root,) = _ints(reader.fields(3, "root", 1), 3, "root")
    terminals = _ints(reader.fields(4, "terminal"), 4, "terminal")
    edges = []
    for k in range(ne):
        lineno = 5 + k
        parts = reader.fields(lineno, "edge")
        if len(parts) != 3:
            raise ParseError(lineno, "expected 'u v cost'")
        u, v = _ints(parts[:2], lineno, "edge endpoint")
        try:
            edges.append((u, v, _parse_fraction(parts[2])))
        except FctpError as exc:
            raise ParseError(lineno, str(exc)) from None
    return make_dst(range(1, nv + 1), edges, root, terminals)


def parse_setcover_file(text: str):
    reader = LineReader(text, "SETCOVER v1")
    m, n = _ints(reader.fields(2, "dimensions", 2), 2, "dimension")
    _check_cells((1 + m) * (m + n), f"m = {m}, n = {n}")
    sets = []
    for k in range(m):
        lineno = 3 + k
        row = _ints(reader.fields(lineno, "set"), lineno, "set entry")
        if not row or row[0] != len(row) - 1:
            raise ParseError(lineno, "expected 'k e1 ... ek'")
        sets.append(tuple(e - 1 for e in row[1:]))
    return make_setcover(n, sets)


def parse_threedm_file(text: str):
    reader = LineReader(text, "3DM v1")
    n, m = _ints(reader.fields(2, "dimensions", 2), 2, "dimension")
    _check_cells(m * (3 * n + 1), f"n = {n}, m = {m}")
    triples = []
    for k in range(m):
        lineno = 3 + k
        x, y, z = _ints(reader.fields(lineno, "triple", 3), lineno, "triple entry")
        triples.append((x - 1, y - 1, z - 1))
    return make_threedm(n, triples)


def cmd_generate(args) -> int:
    text = _read(args.input)
    record = {"command": "generate", "from": getattr(args, "from")}
    if getattr(args, "from") == "dst":
        dst = parse_dst_file(text)
        inst = split_digraph_to_bipartite(dst_to_pfct_digraph(dst))
    elif getattr(args, "from") == "setcover":
        inst = setcover_to_fct_s(parse_setcover_file(text))
    else:  # 3dm
        tdm = parse_threedm_file(text)
        inst, demand_record = threedm_to_pfct_u(
            tdm, delta=args.delta, seed=args.seed, b_prime=args.bprime
        )
        record.update(
            {
                "seed": demand_record["seed"],
                "delta": demand_record["delta"],
                "b_prime": demand_record["b_prime"],
                "draws": demand_record["draws"],
                "dummy_demand": demand_record["dummy_demand"],
            }
        )
    body = serialize_instance(inst)
    if args.out:
        _write(args.out, body)
        record["out"] = args.out
        record["n"] = inst.n
        record["m"] = inst.m
        print(json.dumps(record))
    else:
        sys.stdout.write(body)
    return 0


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise FctpError(f"bench config: {message}")


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false are bools, not counts


def _bench_rows(config) -> list[tuple]:
    """Check the whole config, then return its rows in run order."""
    _check(isinstance(config, dict), "the top level must be an object")
    _check(isinstance(config.get("rows", []), list), "'rows' must be a list")
    rows = []
    for block in config.get("rows", []):
        _check(isinstance(block, dict), "each row must be an object")
        family = block.get("family")
        solver = block.get("solver", family)
        _check(
            isinstance(family, str) and isinstance(solver, str),
            "'family' and 'solver' must be strings",
        )
        _check(isinstance(block.get("params", {}), dict), "'params' must be an object")
        params = {**SOLVE_DEFAULTS, "generator": {}, **block.get("params", {})}
        _check(_is_int(params["swap"]), "'swap' must be an integer")
        _check(_is_int(params["guard"]), "'guard' must be an integer")
        epsilon = params["epsilon"]
        _check(
            epsilon is None or isinstance(epsilon, str) or _is_int(epsilon),
            "'epsilon' must be a string 'p/q' or an integer",
        )
        generator = params["generator"]
        _check(isinstance(generator, dict), "'generator' must be an object")
        if family in generators.FAMILIES:  # otherwise the row records the unknown family
            try:
                generators.check_options(family, generator)
            except FctpError as exc:
                raise FctpError(f"bench config: {exc}") from None
        seeds, base = block.get("seeds", []), block.get("seed_base", 0)
        _check(_is_int(base), "'seed_base' must be an integer")
        if _is_int(seeds):
            seeds = list(range(base, base + seeds))
        _check(
            isinstance(seeds, list) and all(map(_is_int, seeds)),
            "'seeds' must be an integer or a list of integers",
        )
        sizes = block.get("sizes", [])
        _check(
            isinstance(sizes, list)
            and all(isinstance(size, list) and len(size) == 2 for size in sizes)
            and all(_is_int(k) and k >= 1 for size in sizes for k in size),
            "'sizes' must be a list of [n, m] pairs of positive integers",
        )
        _check(
            all(generators.largest_cells(family, n, m) <= generators.MAX_CELLS for n, m in sizes),
            f"a size in 'sizes' can exceed {generators.MAX_CELLS} cells n * m",
        )
        want_oracle = bool(block.get("oracle", False))
        rows += [
            (family, solver, n, m, seed, params, want_oracle) for n, m in sizes for seed in seeds
        ]
    return sorted(rows, key=lambda r: (r[0], r[2], r[3], r[4], r[1]))


def cmd_bench(args) -> int:
    out_rows = []
    max_ratio: dict[str, Fraction] = {}
    for family, solver, n, m, seed, params, want_oracle in _bench_rows(
        json.loads(_read(args.config))
    ):
        record = {
            "family": family,
            "solver": solver,
            "n": n,
            "m": m,
            "seed": seed,
            "cost": "",
            "oracle_cost": "",
            "ratio": "",
            "error": "",
        }
        try:
            inst = generators.generate(family, n, m, seed, **params["generator"])
            flow, _, _ = _dispatch_solver(inst, solver, params)
            cost = evaluate_cost(inst, flow)
            record["cost"] = format_rational(cost)
            if want_oracle:
                opt, _ = oracle.exact_fct(inst, guard=params["guard"])
                record["oracle_cost"] = format_rational(opt)
                if opt > 0:
                    ratio = cost / opt
                    record["ratio"] = format_rational(ratio)
                    key = f"{family}/{solver}"
                    if key not in max_ratio or ratio > max_ratio[key]:
                        max_ratio[key] = ratio
        except (FctpError, GuardError) as exc:
            record["error"] = str(exc)
        out_rows.append(record)

    fields = ["family", "solver", "n", "m", "seed", "cost", "oracle_cost", "ratio", "error"]
    with open(f"{args.out_prefix}.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(out_rows)
    with open(f"{args.out_prefix}.jsonl", "w", encoding="utf-8") as handle:
        for record in out_rows:
            handle.write(json.dumps(record) + "\n")
    for key in sorted(max_ratio):
        print(
            json.dumps({"summary": "max_ratio", "solver": key, "ratio": format_rational(max_ratio[key])})
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fctp",
        description="Fixed charge transportation: solvers, oracles, generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a variant solver on an instance file")
    p_solve.add_argument("--variant", choices=VARIANTS, required=True)
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--out", help="write the solution file here")
    p_solve.add_argument("--mode", choices=("exact", "ls"))
    p_solve.add_argument("--swap", type=int)
    p_solve.add_argument("--epsilon", help="rational like 1/4")
    p_solve.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    p_solve.add_argument("--guard", type=int)
    p_solve.add_argument("--timing", action="store_true")
    p_solve.set_defaults(func=cmd_solve, **SOLVE_DEFAULTS)

    p_verify = sub.add_parser("verify", help="recheck a solution file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=cmd_verify)

    p_cert = sub.add_parser("certify", help="print an exact certificate")
    p_cert.add_argument("what", choices=("lp65",))
    p_cert.add_argument("--perturb-primal", action="append", metavar="KEY=P/Q")
    p_cert.add_argument("--perturb-dual", action="append", metavar="KEY=P/Q")
    p_cert.set_defaults(func=cmd_certify)

    p_oracle = sub.add_parser("oracle", help="exact optimum by brute force")
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--out", help="write the optimal solution here")
    p_oracle.add_argument("--guard", type=int, default=16)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("generate", help="build instances from reductions")
    p_gen.add_argument("--from", choices=("dst", "setcover", "3dm"), required=True)
    p_gen.add_argument("--input", required=True)
    p_gen.add_argument("--out")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--delta", type=int)
    p_gen.add_argument("--bprime", type=int, default=6)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="ratio tables over seeded families")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out-prefix", required=True)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (FctpError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
