"""Spans and exact counters recorded from outside the fctp package.

A :class:`Tracer` replaces a layer's public functions, under the names
their callers bind them to (``fctp.ptas.solve_transportation``,
``fctp.cli.parse_instance``, ...), with wrappers that record one span per
call: name, start, end, parent span and the operation it belongs to.
Spans stay in memory until :meth:`Tracer.write_spans`.  Counters are read
from the wrapped calls' arguments and return values, so they are exact and
repeat from run to run.  Wrappers pass exceptions through unchanged, and
:meth:`Tracer.restore` puts every original function back.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time

# (module under fctp, attribute, span name).  One row per binding: a
# function imported into several modules is wrapped once per importer, so
# every call site is seen whichever name it goes through.
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_instance", "model.parse"),
    ("cli", "validate_instance", "model.validate"),
    ("oracle", "check_instance", "model.validate"),
    ("cli", "evaluate_cost", "model.evaluate"),
    ("ptas", "evaluate_cost", "model.evaluate"),
    ("cli", "serialize_solution", "model.serialize"),
    ("fct_u", "classify_variant", "model.classify"),
    ("ptas", "classify_variant", "model.classify"),
    ("pfct_s", "classify_variant", "model.classify"),
    ("pfct_u", "classify_variant", "model.classify"),
    ("fct_u", "solve_transportation", "transport.solve"),
    ("bicriteria", "solve_transportation", "transport.solve"),
    ("ptas", "solve_transportation", "transport.solve"),
    ("transport", "cancel_cycles", "transport.cancel"),
    ("fct_u", "cancel_cycles", "transport.cancel"),
    ("cli", "solve_fct_u", "fct_u.solve"),
    ("fct_u", "solve_fct_u", "fct_u.solve"),
    ("cli", "solve_bicriteria", "bicriteria.solve"),
    ("bicriteria", "solve_bicriteria", "bicriteria.solve"),
    ("bicriteria", "round_tree", "bicriteria.round_tree"),
    ("cli", "ptas_solve", "ptas.solve"),
    ("ptas", "ptas_solve", "ptas.solve"),
    ("cli", "greedy_solve", "pfct_s.greedy"),
    ("pfct_s", "greedy_solve", "pfct_s.greedy"),
    ("cli", "opt_lower_bound", "pfct_s.bounds"),
    ("cli", "greedy_upper_bound", "pfct_s.bounds"),
    ("pfct_s", "opt_lower_bound", "pfct_s.bounds"),
    ("pfct_s", "greedy_upper_bound", "pfct_s.bounds"),
    ("cli", "solve_pfct_u", "pfct_u.solve"),
    ("pfct_u", "solve_pfct_u", "pfct_u.solve"),
    ("pfct_u", "preprocess_matched_pairs", "pfct_u.preprocess"),
    ("pfct_u", "enumerate_balanced_sets", "pfct_u.enumerate"),
    ("pfct_u", "exact_packing", "pfct_u.exact_packing"),
    ("pfct_u", "local_search_packing", "pfct_u.ls_packing"),
    ("oracle", "exact_fct", "oracle.exact_fct"),
    ("oracle", "exact_balanced_partition", "oracle.partition"),
    ("oracle", "exact_pfct_digraph", "oracle.digraph"),
    ("oracle", "exact_dst", "oracle.dst"),
    ("oracle", "exact_min_dominating", "oracle.dominating"),
    ("reductions", "dst_to_pfct_digraph", "reductions.dst_to_digraph"),
    ("reductions", "split_digraph_to_bipartite", "reductions.split"),
    ("reductions", "setcover_to_fct_s", "reductions.setcover"),
)

# Self-time metric for each span name; several spans may share one metric.
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "model.parse": "model.parse_s",
    "model.validate": "model.validate_s",
    "model.evaluate": "model.evaluate_s",
    "model.serialize": "model.serialize_s",
    "model.classify": "model.classify_s",
    "transport.solve": "transport.solve_self_s",
    "transport.cancel": "transport.cancel_s",
    "fct_u.solve": "fct_u.self_s",
    "bicriteria.solve": "bicriteria.self_s",
    "bicriteria.round_tree": "bicriteria.round_tree_s",
    "ptas.solve": "ptas.self_s",
    "pfct_s.greedy": "pfct_s.greedy_s",
    "pfct_s.bounds": "pfct_s.bounds_s",
    "pfct_u.solve": "pfct_u.self_s",
    "pfct_u.preprocess": "pfct_u.preprocess_s",
    "pfct_u.enumerate": "pfct_u.enumerate_s",
    "pfct_u.exact_packing": "pfct_u.exact_packing_s",
    "pfct_u.ls_packing": "pfct_u.ls_packing_s",
    "oracle.exact_fct": "oracle.exact_fct_s",
    "oracle.partition": "oracle.partition_s",
    "oracle.digraph": "oracle.digraph_s",
    "oracle.dst": "oracle.dst_s",
    "oracle.dominating": "oracle.dominating_s",
    "reductions.dst_to_digraph": "reductions.self_s",
    "reductions.split": "reductions.self_s",
    "reductions.setcover": "reductions.self_s",
}

COUNTERS = (
    "transport.calls",
    "transport.infeasible",
    "transport.cancel_calls",
    "transport.edges_cancelled",
    "ptas.guesses",
    "ptas.distinct_weights",
    "pfct_u.family_size",
    "oracle.exact_fct_calls",
    "oracle.dp_cells",
)


class _Span:
    __slots__ = ("ident", "parent", "name", "start", "child", "weights")

    def __init__(self, ident, parent, name):
        self.ident = ident
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.weights = None  # distinct guess matrices, on ptas.solve spans


class Tracer:
    """Wraps the fctp bindings in :data:`BINDINGS` for the life of a pass."""

    def __init__(self, fctp_modules: dict, infeasible_error: type, keep_spans: bool):
        self._modules = fctp_modules
        self._infeasible = infeasible_error
        self._keep = keep_spans
        self._stack: list[_Span] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op = -1
        self.spans: list[tuple] = []
        self.self_time = {metric: 0.0 for metric in SELF_METRICS.values()}
        self.counts = {name: 0 for name in COUNTERS}
        self.span_counts = {name: 0 for name in SELF_METRICS}
        self.top_level_s = 0.0
        self.solve_durations: list[float] = []

    def install(self) -> None:
        for module_name, attr, span_name in BINDINGS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            index = tracer.span_counts[name]
            tracer.span_counts[name] = index + 1
            span = _Span((name, index), stack[-1].ident if stack else None, name)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, args, None, exc)
                raise
            tracer._close(span, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, span: _Span, args, result, exc) -> None:
        end = time.perf_counter()
        duration = end - span.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += duration
        else:
            self.top_level_s += duration
        self.self_time[SELF_METRICS[span.name]] += duration - span.child
        if self._keep:
            self.spans.append((self.op, span.ident, span.parent, span.start, end))
        self._count(span, args, result, exc, duration)

    def _count(self, span: _Span, args, result, exc, duration: float) -> None:
        counts = self.counts
        name = span.name
        if name == "transport.solve":
            counts["transport.calls"] += 1
            self.solve_durations.append(duration)
            if isinstance(exc, self._infeasible):
                counts["transport.infeasible"] += 1
            parent = self._stack[-1] if self._stack else None
            if parent is not None and parent.name == "ptas.solve":
                counts["ptas.guesses"] += 1
                if parent.weights is None:
                    parent.weights = set()
                parent.weights.add(args[1])
        elif name == "ptas.solve":
            counts["ptas.distinct_weights"] += len(span.weights or ())
        elif name == "transport.cancel" and exc is None:
            counts["transport.cancel_calls"] += 1
            counts["transport.edges_cancelled"] += len(args[0].entries) - len(
                result.entries
            )
        elif name == "pfct_u.enumerate" and exc is None:
            counts["pfct_u.family_size"] += len(result.family)
        elif name == "oracle.exact_fct":
            counts["oracle.exact_fct_calls"] += 1
            vertices = args[0].n + args[0].m
            counts["oracle.dp_cells"] += vertices << vertices

    def exact_counts(self) -> dict:
        """Every counter and span count; two passes over one op list match."""
        merged = dict(self.counts)
        merged.update({f"spans.{name}": count for name, count in self.span_counts.items()})
        return merged

    def layer_metrics(self) -> dict:
        """Per-layer self times, counts and ratios of this pass."""
        counts = self.counts
        metrics = dict(self.self_time)
        metrics.update(counts)
        del metrics["transport.infeasible"], metrics["ptas.distinct_weights"]
        calls = counts["transport.calls"]
        guesses = counts["ptas.guesses"]
        metrics["transport.infeasible_frac"] = (
            counts["transport.infeasible"] / calls if calls else 0.0
        )
        metrics["ptas.distinct_weights_frac"] = (
            counts["ptas.distinct_weights"] / guesses if guesses else 0.0
        )
        metrics["transport.solve_us_p50"] = (
            statistics.median(self.solve_durations) * 1e6
            if self.solve_durations
            else 0.0
        )
        return metrics

    def write_spans(self, path) -> None:
        """One JSON array per span: op, [name, n], parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
