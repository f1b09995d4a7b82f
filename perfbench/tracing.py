"""Spans around the calls into each multihit layer, recorded from outside.

The tracer swaps the module attributes that the solver calls through for
timing wrappers, keeps every span (name, start, end, parent, run id and a
few counters read off the call's arguments and result) in memory, and puts
the originals back when the ``patched`` block ends.  ``bitset.weighted_sum``
is left alone: it runs once per pricing node, so wrapping it would distort
the pricing layer it belongs to.
"""

import statistics
import time
from contextlib import contextmanager


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# (module, attribute, span name, counters read from (args, kwargs, result))
def _targets(mh):
    framework, pricing, master = mh.framework, mh.pricing, mh.master
    data, harness, metrics = mh.data, mh.harness, mh.metrics
    return [
        (framework, "solve_pricing_with_speedup", "pricing.with_speedup",
         lambda a, k, r: {"nodes": r.nodes}),
        (pricing, "solve_pricing", "pricing.solve_pricing",
         lambda a, k, r: {
             "nodes": r.nodes,
             "restricted": a[0].allowed_genes is not None,
             "found": r.best is not None,
         }),
        (framework, "solve_relaxation", "master.relax",
         lambda a, k, r: {"lp_iters": r.iterations}),
        (framework, "solve_binary", "master.bnb",
         lambda a, k, r: {"nodes": r.nodes, "lp_iters": r.lp_iterations}),
        (master, "solve_lp", "lp.solve_lp",
         lambda a, k, r: {
             "iters": r.iterations,
             "rows": _arg(a, k, 0, "p").n_rows,
             "warm": _arg(a, k, 1, "warm_start") is not None,
         }),
        (framework, "generate_candidates", "candidates.generate",
         lambda a, k, r: {"columns": len(r)}),
        (framework, "rounding_heuristic", "framework.rounding", None),
        (data, "load_dense", "data.load_dense",
         lambda a, k, r: {"cells": r.n_samples * r.n_genes}),
        (data, "split_train_test", "data.split_train_test", None),
        (data, "prune_genes", "data.prune_genes", None),
        (harness, "split_train_test", "data.split_train_test", None),
        (harness, "prune_genes", "data.prune_genes", None),
        (harness, "validate_report", "harness.validate_report", None),
        (metrics, "objective_value", "metrics.objective_value", None),
        (metrics, "optimality_gap", "metrics.eval", None),
        (metrics, "confusion", "metrics.eval", None),
        (metrics, "compute_metrics", "metrics.eval", None),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "info")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.info = {}

    @property
    def seconds(self):
        return self.end - self.start

    def to_json(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
            **self.info,
        }


class Tracer:
    """In-memory span recorder; ``run_id`` groups the spans of one set-up or solve."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent, self.run_id)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, probe):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if probe is not None:
                    record.info = probe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, mh):
        """Route the solver's layer calls through spans for one block."""
        saved = []
        try:
            for module, attr, name, probe in _targets(mh):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, probe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self):
        """Per span: its duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own


class _Run:
    """The spans of one run id, looked up by name."""

    def __init__(self, tracer, run_id):
        self.indices = [i for i, s in enumerate(tracer.spans) if s.run_id == run_id]
        self.spans = tracer.spans

    def named(self, *names):
        return [self.spans[i] for i in self.indices if self.spans[i].name in names]


def _seconds(spans):
    return sum(s.seconds for s in spans)


def _count(spans, key):
    return sum(s.info[key] for s in spans)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def setup_metrics(tracer, run_id):
    """Per-layer metrics of one traced set-up."""
    run = _Run(tracer, run_id)
    loads = run.named("data.load_dense")
    return {
        "data.load_dense_s": _seconds(loads),
        "data.load_dense_cells": _count(loads, "cells"),
        "data.split_prune_s": _seconds(
            run.named("data.split_train_test", "data.prune_genes")
        ),
    }


def solve_metrics(tracer, run_id):
    """Per-layer metrics of one traced solve."""
    run = _Run(tracer, run_id)
    pricing = run.named("pricing.with_speedup")
    passes = run.named("pricing.solve_pricing")
    full = [s for s in passes if not s.info["restricted"]]
    restricted = [s for s in passes if s.info["restricted"]]
    relax = run.named("master.relax")
    bnb = run.named("master.bnb")
    lp = run.named("lp.solve_lp")
    candidates = run.named("candidates.generate")
    root = next(i for i in run.indices if tracer.spans[i].parent is None)
    return {
        "pricing.calls": len(pricing),
        "pricing.s": _seconds(pricing),
        "pricing.nodes": _count(pricing, "nodes"),
        "pricing.nodes_per_s": _rate(_count(pricing, "nodes"), _seconds(pricing)),
        "pricing.full.s": _seconds(full),
        "pricing.full.nodes": _count(full, "nodes"),
        "pricing.restricted.s": _seconds(restricted),
        "pricing.restricted.hit_ratio": _rate(
            _count(restricted, "found"), len(restricted)
        ),
        "master.relax.calls": len(relax),
        "master.relax.s": _seconds(relax),
        "master.relax.lp_iters": _count(relax, "lp_iters"),
        "lp.warm_calls": _count(lp, "warm"),
        "master.bnb.s": _seconds(bnb),
        "master.bnb.nodes": _count(bnb, "nodes"),
        "master.bnb.lp_iters": _count(bnb, "lp_iters"),
        "lp.calls": len(lp),
        "lp.s": _seconds(lp),
        "lp.iters": _count(lp, "iters"),
        "lp.iters_per_s": _rate(_count(lp, "iters"), _seconds(lp)),
        "lp.max_rows": max((s.info["rows"] for s in lp), default=0),
        "candidates.generate_s": _seconds(candidates),
        "candidates.columns": _count(candidates, "columns"),
        "framework.rounds": len(relax),
        "framework.rounding_s": _seconds(run.named("framework.rounding")),
        "framework.self_s": tracer.self_seconds()[root],
        "metrics.objective_value_s": _seconds(run.named("metrics.objective_value")),
        "metrics.eval_s": _seconds(run.named("metrics.eval")),
        "harness.validate_report_s": _seconds(run.named("harness.validate_report")),
    }


def median_metrics(per_run):
    """Median of each metric over traced runs."""
    return {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}


def self_time_by_name(tracer):
    totals = {}
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
