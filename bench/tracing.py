"""Spans around the package's public functions, and the per-layer metrics made from them.

The benchmark wraps, from its own files, the functions the CLI calls (in the
``moe_locality.cli`` namespace) plus the few public functions those call that
the metrics name separately (``parse_trace``/``validate_trace``/``write_trace``
inside ``trace``; ``total_objective``/``grad_total``/``sequence_eor``/
``evaluate_gate`` inside ``trainer``). Hot inner helpers such as
``RoutingTrace.record_at`` are not wrapped. Nothing under ``src/`` changes: the
wrappers replace module attributes for the traced passes only.

A span records name, start, end, parent span, pass id and stage. Spans stay in
memory; the per-layer metrics are computed from them, and ``write_spans``
writes them all out when the run ends.
A layer's self time is its spans' time minus their child spans' time, so the
``<layer>.self_s`` figures of one pass add up to its traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    pass_id: int
    stage: str  # the benchmark stage (one CLI call) the span ran in
    info: dict | None  # small counters taken from the call's arguments and result

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _parse_info(args, kwargs, result):
    stream = args[0]
    size = os.fstat(stream.fileno()).st_size if hasattr(stream, "fileno") else len(stream)
    return {"bytes": size}


def _sim_info(args, kwargs, result):
    return {"unique_hits": result.overall.unique_hits,
            "unique_total": result.overall.unique_total}


def _bound_info(args, kwargs, result):
    return {"checks": len(result.step_records) + len(result.sequence_records),
            "violations": result.n_violations}


def _train_info(args, kwargs, result):
    return {"steps": args[2].steps, "eor_before": result.eval_before.eor,
            "eor_after": result.eval_after.eor}


# (module, attribute, span name, counters taken from the call)
WRAPPED = (
    ("moe_locality.cli", "synth_trace", "trace.synth_trace", None),
    ("moe_locality.cli", "save_trace", "trace.save_trace",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("moe_locality.cli", "load_trace", "trace.load_trace", None),
    ("moe_locality.cli", "parse_trace", "trace.parse_trace", _parse_info),
    ("moe_locality.cli", "validate_trace", "trace.validate_trace", None),
    ("moe_locality.trace", "parse_trace", "trace.parse_trace", _parse_info),
    ("moe_locality.trace", "validate_trace", "trace.validate_trace", None),
    ("moe_locality.trace", "write_trace", "trace.write_trace", None),
    ("moe_locality.cli", "compute_metrics", "metrics.compute_metrics", None),
    ("moe_locality.cli", "eor", "metrics.eor", None),
    ("moe_locality.cli", "simulate", "cache_sim.simulate", _sim_info),
    ("moe_locality.cli", "estimate_tpot", "cache_sim.estimate_tpot",
     lambda a, k, r: {"p50": r.percentiles["p50"], "p99": r.percentiles["p99"]}),
    ("moe_locality.cli", "check_step_bound", "bounds.check_step_bound", _bound_info),
    ("moe_locality.cli", "check_working_set_bound", "bounds.check_working_set_bound",
     _bound_info),
    ("moe_locality.cli", "run_campaign", "bounds.run_campaign",
     lambda a, k, r: {"checks": r["checks"], "violations": r["violations"]}),
    ("moe_locality.cli", "stability_campaign", "gate.stability_campaign", None),
    ("moe_locality.cli", "pinsker_campaign", "gate.pinsker_campaign", None),
    ("moe_locality.cli", "save_gate", "gate.save_gate", None),
    ("moe_locality.cli", "synth_hidden_sequences", "trainer.synth_hidden_sequences", None),
    ("moe_locality.cli", "init_gate_matrix", "trainer.init_gate_matrix", None),
    ("moe_locality.cli", "train", "trainer.train", _train_info),
    ("moe_locality.cli", "grad_total", "objective.grad_total", None),
    ("moe_locality.cli", "fd_gradient", "objective.fd_gradient", None),
    ("moe_locality.trainer", "total_objective", "objective.total_objective", None),
    ("moe_locality.trainer", "grad_total", "objective.grad_total", None),
    ("moe_locality.trainer", "sequence_eor", "trainer.sequence_eor", None),
    ("moe_locality.trainer", "evaluate_gate", "trainer.evaluate_gate", None),
)

LAYERS = ("trace", "metrics", "cache_sim", "bounds", "gate", "objective", "trainer", "cli")


class Tracer:
    """Collects spans; ``install`` swaps the wrappers in, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.pass_id = 0
        self.stage = ""
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, *args, info=None, **kwargs):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children index after it
        parent = stack[-1] if stack else None
        stack.append(index)
        result, returned = None, False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counters = None
            if info is not None and returned:
                try:
                    counters = info(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    counters = None  # the package changed shape; the counter reads 0
            self.spans[index] = Span(name, start, end, parent, self.pass_id, self.stage,
                                     counters)

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, info=info, **kwargs)
        return traced

    def install(self) -> None:
        for module_name, attr, name, info in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: its metric reads 0
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit. The order is the order of the report and of BENCHMARK.json.
PER_LAYER_UNITS = {
    "trace.synth_s": "s",
    "trace.write_s": "s",
    "trace.parse_s": "s",
    "trace.validate_s": "s",
    "trace.loads": "count",
    "trace.records": "count",
    "trace.jsonl_mb": "MB",
    "trace.parse_mb_per_s": "MB/s",
    "metrics.compute_s": "s",
    "metrics.sequences": "count",
    "cache_sim.lru_s": "s",
    "cache_sim.lfu_s": "s",
    "cache_sim.belady_s": "s",
    "cache_sim.reroute_s": "s",
    "cache_sim.us_per_layer_step": "us",
    "cache_sim.layer_steps": "count",
    "cache_sim.unique_fetches": "count",
    "cache_sim.uhr": "ratio",
    "cache_sim.tpot_p50_ms": "ms",
    "cache_sim.tpot_p99_ms": "ms",
    "bounds.step_check_s": "s",
    "bounds.ws_check_s": "s",
    "bounds.check_over_lru": "ratio",
    "bounds.campaign_t1_s": "s",
    "bounds.campaign_t2_s": "s",
    "bounds.thread_speedup": "ratio",
    "bounds.checks": "count",
    "bounds.violations": "count",
    "trainer.train_s": "s",
    "trainer.steps_per_s": "1/s",
    "trainer.sweep_s": "s",
    "trainer.eval_s": "s",
    "objective.total_objective_s": "s",
    "objective.grad_total_s": "s",
    "objective.gradcheck_s": "s",
    "objective.calls_per_train_step": "count",
    "gate.router_s": "s",
    "trainer.eor_before": "ratio",
    "trainer.eor_after": "ratio",
    "cli.report_mb": "MB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(all_spans: list[Span], pass_id: int, kinds: dict[str, str],
                 workload) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``kinds`` maps each stage name to its kind tag (policy, check type,
    campaign thread count). Metrics of layers the workload does not run read 0.
    """
    indexed = [(i, s) for i, s in enumerate(all_spans) if s.pass_id == pass_id]
    spans = [s for _, s in indexed]

    def parent_name(s):
        return None if s.parent is None else all_spans[s.parent].name

    def of(name, kind=None):
        return [s for s in spans
                if s.name == name and (kind is None or kinds[s.stage] == kind)]

    def total(name, kind=None):
        return sum(s.duration for s in of(name, kind))

    def counter(name, key, kind=None):
        return sum((s.info or {}).get(key, 0) for s in of(name, kind))

    child_time = dict.fromkeys((i for i, _ in indexed), 0.0)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in indexed:
        self_time[s.layer] = self_time.get(s.layer, 0.0) + s.duration - child_time[i]

    parses = of("trace.parse_trace")
    parse_mb = counter("trace.parse_trace", "bytes") / 1e6
    parse_s = total("trace.parse_trace")
    validate_in_parse = sum(s.duration for s in of("trace.validate_trace")
                            if parent_name(s) == "trace.parse_trace")
    simulate_s = total("cache_sim.simulate")
    layer_steps = len(of("cache_sim.simulate")) * workload.layer_steps
    tpot = of("cache_sim.estimate_tpot")
    tpot = (tpot[0].info or {}) if tpot else {}
    step_check = of("bounds.check_step_bound")
    # LRU simulate calls at the capacities the step checks ran at, on the same trace.
    check_caps = {_capacity(workload, s.stage) for s in step_check}
    lru_same_cap = sum(s.duration for s in of("cache_sim.simulate", "lru")
                       if _capacity(workload, s.stage) in check_caps)
    t1, t2 = total("bounds.run_campaign", "campaign-t1"), total("bounds.run_campaign", "campaign-t2")
    trains = of("trainer.train")
    train_steps = counter("trainer.train", "steps")
    per_step = sum(1 for s in spans if parent_name(s) == "trainer.train"
                   and s.name in ("objective.total_objective", "objective.grad_total",
                                  "trainer.sequence_eor"))
    train_stage = of("trainer.train", "train")
    train_info = (train_stage[0].info or {}) if train_stage else {}
    unique_total = counter("cache_sim.simulate", "unique_total")

    return {
        "trace.synth_s": total("trace.synth_trace"),
        "trace.write_s": total("trace.save_trace"),
        "trace.parse_s": parse_s - validate_in_parse,
        "trace.validate_s": total("trace.validate_trace"),
        "trace.loads": len(parses),
        "trace.records": workload.records,
        "trace.jsonl_mb": counter("trace.save_trace", "bytes") / 1e6,
        "trace.parse_mb_per_s": _ratio(parse_mb, parse_s),
        "metrics.compute_s": total("metrics.compute_metrics"),
        "metrics.sequences": len(of("metrics.compute_metrics")) * workload.sequences,
        "cache_sim.lru_s": total("cache_sim.simulate", "lru"),
        "cache_sim.lfu_s": total("cache_sim.simulate", "lfu"),
        "cache_sim.belady_s": total("cache_sim.simulate", "belady"),
        "cache_sim.reroute_s": total("cache_sim.simulate", "reroute"),
        "cache_sim.us_per_layer_step": _ratio(simulate_s * 1e6, layer_steps),
        "cache_sim.layer_steps": layer_steps,
        "cache_sim.unique_fetches": unique_total - counter("cache_sim.simulate", "unique_hits"),
        "cache_sim.uhr": _ratio(counter("cache_sim.simulate", "unique_hits"), unique_total),
        "cache_sim.tpot_p50_ms": tpot.get("p50", 0.0),
        "cache_sim.tpot_p99_ms": tpot.get("p99", 0.0),
        "bounds.step_check_s": total("bounds.check_step_bound"),
        "bounds.ws_check_s": total("bounds.check_working_set_bound"),
        "bounds.check_over_lru": _ratio(sum(s.duration for s in step_check), lru_same_cap),
        "bounds.campaign_t1_s": t1,
        "bounds.campaign_t2_s": t2,
        "bounds.thread_speedup": _ratio(t1, t2),
        "bounds.checks": sum(counter(n, "checks") for n in (
            "bounds.check_step_bound", "bounds.check_working_set_bound", "bounds.run_campaign")),
        "bounds.violations": sum(counter(n, "violations") for n in (
            "bounds.check_step_bound", "bounds.check_working_set_bound", "bounds.run_campaign")),
        "trainer.train_s": total("trainer.train", "train"),
        "trainer.steps_per_s": _ratio(train_steps, sum(s.duration for s in trains)),
        "trainer.sweep_s": total("trainer.train", "sweep"),
        "trainer.eval_s": total("trainer.evaluate_gate"),
        "objective.total_objective_s": total("objective.total_objective"),
        "objective.grad_total_s": total("objective.grad_total"),
        "objective.gradcheck_s": sum(s.duration for s in spans
                                     if s.layer == "objective" and kinds[s.stage] == "gradcheck"),
        "objective.calls_per_train_step": _ratio(per_step, train_steps),
        "gate.router_s": total("gate.stability_campaign"),
        "trainer.eor_before": train_info.get("eor_before", 0.0),
        "trainer.eor_after": train_info.get("eor_after", 0.0),
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS},
        "tracing.spans": len(spans),
    }


def _capacity(workload, stage_name: str) -> str | None:
    for stage in workload.stages:
        if stage.name == stage_name and "--capacity" in stage.argv:
            return stage.argv[stage.argv.index("--capacity") + 1]
    return None


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def write_spans(spans: list[Span], path) -> None:
    """All spans of the run, one JSON object a line, in start order of their calls."""
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "pass": s.pass_id, "stage": s.stage},
                               separators=(",", ":")) + "\n")
