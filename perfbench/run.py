"""fctp benchmark: seeded workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload lp_solve --seed 1 --seconds 30 --trace 0

One process runs one workload: set-up (import fctp, generate and serialize
the inputs) and then a closed loop with a single caller, which issues the
next op only after the previous one returned and was checked.  The loop
runs for ``--seconds`` and at least MIN_OPS ops.  Every op's output is
checked exactly outside its timed region; an op that raises, returns an
invalid flow or breaks its proven bound counts as failed and the run goes
on.

End-to-end times are reported at reference speed.  A fixed stdlib-only
calibration kernel is timed before every op and around every set-up, and each
time is rescaled by REFERENCE_S over the mean of the calibrations just
before and just after it, which cancels the host's drifting CPU speed.
The run record keeps the raw median op time and the calibration times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
``trace_ops`` ops three times -- untraced, traced, traced again -- and
prints per-layer self times and exact counters, the tracing overhead, and
whether both traced passes counted the same.  The last line of output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

from tracing import BINDINGS, Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # leaves ten samples beyond the 90th percentile
SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0
# Calibration kernel time that defines reference speed; the kernel takes
# about 0.8 ms uncontended on the 2-core Xeon host the benchmark was tuned on.
REFERENCE_S = 0.001
FCTP_MODULES = (
    "bicriteria", "cli", "errors", "fct_u", "generators", "model", "oracle",
    "pfct_s", "pfct_u", "ptas", "reductions", "transport",
)


def import_fctp() -> types.SimpleNamespace:
    """Import fctp afresh from the checkout's src/, dropping cached modules."""
    for name in [name for name in sys.modules if name == "fctp" or name.startswith("fctp.")]:
        del sys.modules[name]
    fctp = types.SimpleNamespace(
        **{name: importlib.import_module(f"fctp.{name}") for name in FCTP_MODULES}
    )
    if not Path(fctp.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"fctp was imported from {fctp.cli.__file__}, not from src/")
    return fctp


def calibration_kernel():
    """A fixed stdlib-only task, timed before every op to track the CPU's speed.

    It uses rational arithmetic, a dict and a sort, as fctp does, but no
    fctp code, so a change to fctp leaves its time alone.
    """
    best = Fraction(0)
    seen: dict[Fraction, int] = {}
    for i in range(1, 81):
        q = Fraction(i, 7) * Fraction(3, i % 5 + 2) - Fraction(1, i)
        if q > best:
            best = q
        seen[q] = seen.get(q, 0) + 1
    return best, sorted(seen)[len(seen) // 2]


def time_calibration() -> float:
    started = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - started


def at_reference_speed(spent: float, before: float, after: float) -> float:
    """``spent`` seconds rescaled to a CPU that runs the kernel in REFERENCE_S.

    ``before`` and ``after`` are calibration times measured just before and
    just after the timed region.  On a shared host the CPU's speed drifts by
    half or more over seconds as neighbours load it; that drift, not fctp,
    dominated the spread of raw times between runs, and it slows the kernel
    and fctp alike.
    """
    return spent * REFERENCE_S * 2 / (before + after)


def set_up(workload_name: str, seed: int, workdir: Path):
    """Import and build the inputs SETUP_REPEATS times; keep the last build.

    Returns the fctp modules, the workload, its ops, and the median set-up
    and generator seconds, both at reference speed.
    """
    setup_times, generator_times = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()  # frees the previous build before the next one is timed
        before = time_calibration()
        started = time.perf_counter()
        fctp = import_fctp()
        workload = WORKLOADS[workload_name](fctp)
        ops, generating = workload.build(seed, workdir)
        spent = time.perf_counter() - started
        after = time_calibration()
        setup_times.append(at_reference_speed(spent, before, after))
        generator_times.append(at_reference_speed(generating, before, after))
    gc.collect()
    gc.freeze()  # the inputs stay alive all run; later collections skip them
    return fctp, workload, ops, statistics.median(setup_times), statistics.median(generator_times)


class Loop:
    """Runs ops, checks them, and keeps timings, failures and the digest."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.first_output: dict[int, str] = {}
        self.op_times: list[float] = []
        self.calibration: list[float] = []
        self.failed = 0
        self.digest = hashlib.sha256()

    def run_op(self, k: int, tracer: Tracer | None = None) -> None:
        index = k % len(self.ops)
        op = self.ops[index]
        if tracer is not None:
            tracer.op = k
        self.calibration.append(time_calibration())
        started = time.perf_counter()
        try:
            result = self.workload.execute(op)
            self.op_times.append(time.perf_counter() - started)
            error = None
        except Exception:  # an op that raises counts as failed; the loop goes on
            self.op_times.append(time.perf_counter() - started)
            error = traceback.format_exc()
        if error is None:
            try:
                output = self.workload.check(index, op, result)
            except CheckFailed as exc:
                error = str(exc)
            except Exception:  # a malformed result fails its op, not the run
                error = traceback.format_exc()
        result = None
        # One op's cyclic garbage is freed here, outside the timed region, so
        # it neither lands in a later op's time nor grows peak memory with
        # the length of the run.
        gc.collect()
        if error is None and self.first_output.setdefault(index, output) != output:
            error = "output differs from the first run of the same input"
        if error is not None:
            self.failed += 1
            self.digest.update(b"failed\n")
            print(f"op {k} ({op.kind}) failed: {error}", file=sys.stderr)
            return
        self.digest.update(output.encode("utf-8"))

    def reference_times(self) -> list[float]:
        """Op times at reference speed, once ``close`` has run."""
        calibration = self.calibration
        return [
            at_reference_speed(spent, calibration[k], calibration[k + 1])
            for k, spent in enumerate(self.op_times)
        ]

    def close(self) -> None:
        """Times the calibration that follows the last op."""
        self.calibration.append(time_calibration())


def untraced_run(workload, ops, seconds: float):
    loop = Loop(workload, ops)
    started = time.perf_counter()
    digest_of_first = None
    k = 0
    while True:
        loop.run_op(k)
        k += 1
        if k == MIN_OPS:
            digest_of_first = loop.digest.hexdigest()
        elapsed = time.perf_counter() - started
        if (k >= MIN_OPS and elapsed >= seconds) or elapsed >= HARD_LIMIT_S:
            break
    loop.close()
    times = loop.reference_times()
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "ok_frac": (1 - loop.failed / len(times), "frac"),
    }
    record = {
        "ops": k, "loop_s": round(elapsed, 3), "digest_ops": MIN_OPS, "digest": digest_of_first,
        "raw_op_s_p50": statistics.median(loop.op_times),
        "calibration_us_min": min(loop.calibration) * 1e6,
        "calibration_us_p50": statistics.median(loop.calibration) * 1e6,
    }
    return loop, metrics, record


def traced_run(fctp, workload, ops, generator_s: float):
    count = min(workload.trace_ops, len(ops))
    modules = vars(fctp)
    passes = []
    for mode in ("untraced", "traced", "recount"):
        loop = Loop(workload, ops)
        tracer = None
        if mode != "untraced":
            tracer = Tracer(modules, fctp.errors.InfeasibleError, keep_spans=mode == "traced")
            tracer.install()
        try:
            started = time.perf_counter()
            for k in range(count):
                loop.run_op(k, tracer)
            wall = time.perf_counter() - started
            loop.close()
        finally:
            if tracer is not None:
                tracer.restore()
        passes.append((loop, tracer, wall))
    restored = all(
        not hasattr(getattr(modules[module], attr), "__wrapped__")
        for module, attr, _ in BINDINGS
    )
    (plain, _, _), (loop, tracer, wall), (again, recount, _) = passes
    op_window_s = sum(loop.op_times)
    metrics = tracer.layer_metrics()
    metrics["generators.s"] = generator_s
    metrics["bench.self_s"] = wall - op_window_s
    metrics["trace.wall_s"] = wall
    # Overhead compares time inside ops only, at reference speed so that the
    # host's drift between passes cancels: the untraced pass also computes
    # the checks' cached reference values.
    plain_s = sum(plain.reference_times())
    traced_s = sum(loop.reference_times())
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    # Self times sum to the top-level spans; what an op window holds beyond
    # them is program time no span covered.
    metrics["trace.unaccounted_frac"] = (op_window_s - tracer.top_level_s) / wall
    checks = {
        "counts_repeat": tracer.exact_counts() == recount.exact_counts(),
        "digests_repeat": len({p.digest.hexdigest() for p, _, _ in passes}) == 1,
        "wrappers_restored": restored,
        "spans_account_for_wall": abs(metrics["trace.unaccounted_frac"]) < 0.05,
    }
    failed = plain.failed + loop.failed + again.failed
    record = {"ops": count, "passes": len(passes), "digest": loop.digest.hexdigest(),
              "checks": checks, "counts": tracer.exact_counts()}
    return tracer, metrics, checks, failed, record


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_us_p50"):
        return "us"
    if name.endswith("_s") or name == "generators.s":
        return "s"
    return "count"


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    workdir = Path(".perfbench") / f"{args.workload}-{args.seed}-{args.trace}"
    fctp, workload, ops, setup_s, generator_s = set_up(args.workload, args.seed, workdir)

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit(),
    }
    if args.trace:
        tracer, layer, checks, failed, record = traced_run(fctp, workload, ops, generator_s)
        tracer.write_spans(Path(".perfbench") / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        correct = failed == 0 and all(checks.values())
        attempted = record["ops"] * record["passes"]
        metrics = {name: (value, layer_unit(name)) for name, value in sorted(layer.items())}
    else:
        loop, metrics, record = untraced_run(workload, ops, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        failed = loop.failed
        correct = failed == 0
        attempted = len(loop.op_times)
    shutil.rmtree(workdir, ignore_errors=True)

    run_record.update(record)
    print(json.dumps(run_record))
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
