"""Mechanical verification of the fetch bounds and their failure modes.

Under a recency-based cache with capacity C >= K, serve-and-admit updates,
request-level resets, and no outside interference, the number of expert
fetches at step t is bounded by the non-overlapping part of the request:

    N_fetch(t) <= K * (1 - IR_t)          (per step, t >= 2)
    mean N_fetch <= K * (1 - EOR)         (per sequence)

A longer-horizon variant uses the distinct working set of the last L_t steps,
the largest suffix that still fits in capacity:

    N_fetch(t) <= K - |E_t ∩ U_{t, L_t}|

which can only tighten the per-step bound. Each precondition is load-bearing:
this module also constructs the three documented counterexamples (capacity
below K, inter-step interference, inter-step prefetch insertion) and shows one
bound violation for each.

Each batch slot is checked as its own B=1 sequence with its own cache.
Fetch counts come from one stamp pass of LRU stack depths over every
(layer, slot, segment) stream of the trace's ``routes``
(``cache_sim.lru_fetch_counts``), which is exact at every C >= K by the
inclusion property. A campaign runs one such pass over the streams of a
whole batch of its traces (``cache_sim.lru_fetch_counts_each``), at
{K, K+2, 2K} at once, and tallies each trace's checks and violations from
its count and bound arrays. A working-set check runs at one capacity ({2K}
in a campaign), where one sliding window per stream gives every horizon.
The fault-free checks thus verify the bounds against that stack model of LRU,
not against ``simulate``'s dict loop, whose serve-and-admit check runs in
none of them; the differential tests of the pass tie the model to
``simulate``'s per-step misses and to the per-stream list stacks it replaced.
``simulate`` counts the fetches of the faulted counterexamples, and replays a
checked slot, as a B=1 trace, with events only to snapshot the resident set
before a step that breaks a bound.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cache_sim import (CacheConfig, FaultKind, FaultScenario, Policy, lru_fetch_counts,
                        lru_fetch_counts_each, simulate)
from .gate import overlap_counts
from .trace import RoutingTrace, SynthConfig, TraceHeader, synth_trace

_CAMPAIGN_BATCH = 64  # campaign traces one stamp pass covers

__all__ = [
    "FaultKind",
    "FaultScenario",
    "StepBoundRecord",
    "SequenceBound",
    "BoundReport",
    "ScenarioResult",
    "check_step_bound",
    "check_working_set_bound",
    "run_counterexamples",
    "run_campaign",
]


@dataclass(frozen=True)
class StepBoundRecord:
    layer: int
    batch: int
    segment: int
    step: int
    n_fetch: int
    overlap_bound: int  # K * (1 - IR_t), exact integer K - |E_t ∩ E_{t-1}|
    violated: bool
    ws_horizon: int | None = None  # L_t, only for working-set checks
    ws_bound: int | None = None  # K - |E_t ∩ U_{t, L_t}|
    ws_violated: bool | None = None
    resident_before: tuple[int, ...] | None = None  # snapshot kept on violation


@dataclass(frozen=True)
class SequenceBound:
    layer: int
    batch: int
    segment: int
    total_fetch: int
    total_bound: int  # sum of per-step overlap bounds == K*(T-1)*(1-EOR)
    n_steps: int
    violated: bool


@dataclass(frozen=True)
class BoundReport:
    """A bound check at one capacity. ``violations`` holds the record of each
    step that breaks a bound, with the resident set before it; the counts and
    the two record lists are built from the verdict arrays the check keeps,
    on first use. Reports compare by their verdicts, not those arrays."""

    kind: str  # "step" or "working_set"
    capacity: int
    violations: tuple[StepBoundRecord, ...]  # in step_records order
    n_step_violations: int
    n_avg_violations: int
    arrays: tuple = field(compare=False, repr=False)  # (segment offsets, _Bounds, _verdicts)

    @property
    def n_violations(self) -> int:
        return self.n_step_violations + self.n_avg_violations

    @cached_property
    def step_records(self) -> tuple[StepBoundRecord, ...]:
        """Every step with a bound, slot by slot, then layer, then step."""
        offsets, bounds, verdicts = self.arrays
        pairs, flagged = verdicts[0], _flagged(verdicts)
        records = _step_records(offsets, bounds, verdicts, np.broadcast_to(pairs, flagged.shape))
        at = np.flatnonzero(np.swapaxes(flagged, 0, 1)[..., pairs])
        for i, record in zip(at.tolist(), self.violations):
            records[i] = record
        return tuple(records)

    @cached_property
    def sequence_records(self) -> tuple[SequenceBound, ...]:
        """Every segment of at least two steps, slot by slot, then layer."""
        offsets, _bounds, (_, _, _, (totals, total_bounds, seq_violated)) = self.arrays
        lengths = np.diff(offsets)
        batch, layer, segment = np.nonzero(
            np.broadcast_to(lengths >= 2, np.swapaxes(total_bounds, 0, 1).shape))
        at = layer, batch, segment
        columns = (layer, batch, segment, totals[0][at], total_bounds[at], lengths[segment] - 1,
                   seq_violated[0][at])
        return tuple(map(SequenceBound, *(c.tolist() for c in columns)))


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    assumption_broken: str
    n_violations: int
    first_violation: StepBoundRecord | None
    description: str


class _Bounds(NamedTuple):
    """A trace's fetch counts and bounds, indexed by layer, batch slot and
    step ordinal; the leading axis of ``n_fetch`` is the capacity, and the
    working-set arrays are at the check's one capacity. A segment's first
    step has no bound and is never read."""

    n_fetch: np.ndarray  # int[C, L, B, steps], unique misses
    overlap_bound: np.ndarray  # int[L, B, steps], K - |E_t ∩ E_{t-1}|
    ws_horizon: np.ndarray | None  # int[L, B, steps], L_t (working-set checks only)
    ws_bound: np.ndarray | None  # int[L, B, steps], K - |E_t ∩ U_{t, L_t}|


def _bounds(trace: RoutingTrace, n_fetch: np.ndarray, ws_capacity: int | None) -> _Bounds:
    """The bounds of every slot of ``trace`` next to its fetch counts
    ``n_fetch``, the working-set one at ``ws_capacity`` unless it is None.
    The horizon L_t counts the most steps before t whose union fits in C, so
    its window's start only moves forward: one sliding window per (layer,
    slot, segment) stream finds every L_t, each step entering and leaving once."""
    h = trace.header
    k = h.top_k
    offsets = trace.segment_offsets
    n_steps = offsets[-1]
    sets = trace.route_sets
    overlap = np.zeros((h.n_moe_layers, h.batch_size, n_steps), dtype=np.int64)
    # Exact integer form of K * (1 - IR_t); a pair across segments is never read.
    overlap[..., 1:] = k - overlap_counts(np.moveaxis(sets, 0, 2))
    if ws_capacity is None:
        return _Bounds(n_fetch, overlap, None, None)
    ws_horizon = np.zeros_like(overlap)
    ws_bound = np.zeros_like(overlap)
    for layer in range(h.n_moe_layers):
        for batch in range(h.batch_size):
            rows = sets[:, layer, batch].tolist()
            horizons, row_bounds = ws_horizon[layer, batch], ws_bound[layer, batch]
            for segment, length in enumerate(trace.segment_lengths):
                start = offsets[segment]
                held: dict[int, int] = {}  # expert -> rows of the window holding it
                first = start  # the window is rows [first, i - 1]
                for i in range(start + 1, start + length):
                    for e in rows[i - 1]:
                        held[e] = held.get(e, 0) + 1
                    while len(held) > ws_capacity:
                        for e in rows[first]:
                            held[e] -= 1
                            if not held[e]:
                                del held[e]
                        first += 1
                    horizons[i] = i - first
                    row_bounds[i] = k - sum(map(held.__contains__, rows[i]))
    return _Bounds(n_fetch, overlap, ws_horizon, ws_bound)


def _segment_sums(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of ``x`` along its last (step) axis over each segment."""
    cs = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(x, axis=-1, out=cs[..., 1:])
    return cs[..., offsets[1:]] - cs[..., offsets[:-1]]


def _verdicts(trace: RoutingTrace, bounds: _Bounds):
    """The one statement of which checks ``bounds`` (of ``trace``) makes and
    which fail. Returns the steps that have a bound (bool[steps]: the previous
    step is in their segment); the step verdicts against the overlap and the
    working-set bound (bool[C, L, B, steps], True only on those steps; the
    latter None without working-set bounds); and each segment's fetch total
    (int[C, L, B, segments]), bound total (int[L, B, segments]) and verdict
    (bool[C, L, B, segments])."""
    offsets = np.array(trace.segment_offsets)
    pairs = np.ones(offsets[-1], dtype=bool)
    pairs[offsets[:-1][np.diff(offsets) > 0]] = False
    n_fetch = bounds.n_fetch
    ws_violated = None if bounds.ws_bound is None else (n_fetch > bounds.ws_bound) & pairs
    # A segment of under two steps has no pair step and no sequence record;
    # both its totals are 0, so it never counts as a violation.
    totals = _segment_sums(n_fetch * pairs, offsets)
    total_bounds = _segment_sums(bounds.overlap_bound * pairs, offsets)
    return (pairs, (n_fetch > bounds.overlap_bound) & pairs, ws_violated,
            (totals, total_bounds, totals > total_bounds))


def _slot_trace(trace: RoutingTrace, batch: int) -> RoutingTrace:
    """Batch slot ``batch`` of ``trace`` as a B=1 index-only trace, in the
    layout of :attr:`RoutingTrace.routes`."""
    h = trace.header
    if h.batch_size == 1:
        return trace
    routes = trace.routes
    keys = trace.keys.reshape(*routes.shape[:3], 4)[:, :, batch].reshape(-1, 4).copy()
    keys[:, 3] = 0
    return RoutingTrace(replace(h, batch_size=1, has_probs=False), keys,
                        routes[:, :, batch].reshape(-1, h.top_k), None)


def _flagged(verdicts) -> np.ndarray:
    """bool[L, B, steps]: the steps whose record a report keeps, at its one
    capacity: those that break the overlap or the working-set bound."""
    _pairs, violated, ws_violated, _ = verdicts
    return violated[0] if ws_violated is None else violated[0] | ws_violated[0]


def _step_records(offsets: np.ndarray, bounds: _Bounds, verdicts,
                  steps: np.ndarray) -> list[StepBoundRecord]:
    """The records of the steps ``steps`` (bool[L, B, steps]) marks, from
    ``bounds`` at one capacity and their ``verdicts``, slot by slot, then
    layer, then step ordinal; none holds a resident set."""
    _pairs, violated, ws_violated, _ = verdicts
    columns = [bounds.n_fetch[0], bounds.overlap_bound, violated[0]]
    if ws_violated is not None:
        columns += [bounds.ws_horizon, bounds.ws_bound, ws_violated[0]]
    batch, layer, i = np.nonzero(np.swapaxes(steps, 0, 1))
    segment = np.searchsorted(offsets, i, side="right") - 1
    fields = [layer, batch, segment, i - offsets[segment]] + [c[layer, batch, i] for c in columns]
    return list(map(StepBoundRecord, *(f.tolist() for f in fields)))


def _counts(verdicts) -> tuple[int, int]:
    """(step, average) violations of ``verdicts``: a step counts against the
    working-set bound when there is one, else against the overlap bound."""
    _pairs, violated, ws_violated, (_, _, seq_violated) = verdicts
    return int((violated if ws_violated is None else ws_violated).sum()), int(seq_violated.sum())


def _report(trace: RoutingTrace, cfg: CacheConfig, bounds: _Bounds) -> BoundReport:
    """The report of ``bounds`` at one capacity, ``cfg.capacity``, a
    working-set one when it holds working-set bounds. The resident set
    before a flagged step comes from an event-recording simulation of its
    slot's B=1 trace under ``cfg``, which runs only for a slot with one."""
    offsets = np.array(trace.segment_offsets)
    verdicts = _verdicts(trace, bounds)
    violations = _step_records(offsets, bounds, verdicts, _flagged(verdicts))
    events = {}  # batch slot -> the events of its simulation
    for i, r in enumerate(violations):
        if r.batch not in events:
            events[r.batch] = simulate(_slot_trace(trace, r.batch), cfg, record_events=True).events
        ordinal = r.layer * offsets[-1] + offsets[r.segment] + r.step
        violations[i] = replace(r, resident_before=events[r.batch][ordinal].resident_before)
    n_step, n_avg = _counts(verdicts)
    return BoundReport(
        kind="step" if bounds.ws_bound is None else "working_set",
        capacity=cfg.capacity,
        violations=tuple(violations),
        n_step_violations=n_step,
        n_avg_violations=n_avg,
        arrays=(offsets, bounds, verdicts),
    )


def _simulated_report(trace: RoutingTrace, cfg: CacheConfig, working_set: bool) -> BoundReport:
    """The report of one B=1 trace whose fetches ``simulate`` counts under
    ``cfg``: the counter for faults and C < K, where the stack pass of
    :func:`lru_fetch_counts` does not apply."""
    n_fetch = simulate(trace, cfg).unique_misses[None, :, None]
    return _report(trace, cfg, _bounds(trace, n_fetch, cfg.capacity if working_set else None))


def _check(trace: RoutingTrace, capacities: tuple[int, ...], working_set: bool) -> _Bounds:
    """The fetch counts and bounds of every slot at every capacity; one stack
    pass counts the fetches at all of them. A working-set check takes one
    capacity, its horizon's."""
    k = trace.header.top_k
    if min(capacities) < k:
        raise ValueError(f"bound checks require C >= K (got C={min(capacities)}, K={k})")
    if working_set and len(capacities) != 1:
        raise ValueError(f"a working-set check takes one capacity, got {capacities}")
    return _bounds(trace, lru_fetch_counts(trace, capacities),
                   capacities[0] if working_set else None)


def _bound_report(trace: RoutingTrace, capacity: int, working_set: bool) -> BoundReport:
    cfg = CacheConfig(capacity=capacity, policy=Policy.LRU, reset_each_segment=True)
    return _report(trace, cfg, _check(trace, (capacity,), working_set))


def _tally(trace: RoutingTrace, bounds: _Bounds) -> tuple[int, int]:
    """(checks, violations) summed over the capacities and slots of
    ``bounds``, counted from the verdicts the reports are built from, without
    building them: a campaign reads only these two numbers, and one record
    per step and capacity would cost it more than its stack pass saves."""
    n_sequences = sum(length >= 2 for length in trace.segment_lengths)
    verdicts = _verdicts(trace, bounds)
    pairs = verdicts[0]  # the steps that have a bound
    checks = bounds.n_fetch[..., :1].size * (int(pairs.sum()) + n_sequences)
    return checks, sum(_counts(verdicts))


def check_step_bound(trace: RoutingTrace, capacity: int) -> BoundReport:
    """Assert N_fetch(t) <= K(1 - IR_t) per step and on average, under LRU
    with request-level resets and C >= K."""
    return _bound_report(trace, capacity, working_set=False)


def check_working_set_bound(trace: RoutingTrace, capacity: int) -> BoundReport:
    """Assert the longer-horizon bound N_fetch(t) <= K - |E_t ∩ U_{t,L_t}|.

    The report carries both bounds per step; the working-set one is never
    looser than the overlap bound because U_{t,L_t} contains E_{t-1}.
    """
    return _bound_report(trace, capacity, working_set=True)


# ---------------------------------------------------------------------------
# Failure-mode counterexamples
# ---------------------------------------------------------------------------


def _constant_set_trace(n_experts: int, k: int, steps: int) -> RoutingTrace:
    keys = np.zeros((steps, 4), dtype=np.int64)
    keys[:, 1] = np.arange(steps)
    members = np.tile(np.arange(k, dtype=np.int64), (steps, 1))
    return RoutingTrace(TraceHeader(1, n_experts, k, 1), keys, members, None)


# (name, assumption broken, K, injected fault or None, description); each runs
# a constant request set over N=8 experts for 5 steps at C=4 under LRU with resets.
_COUNTEREXAMPLES = (
    # Capacity below K: even perfect reuse leaves K - C experts missing.
    ("under_capacity", "capacity (C >= K)", 6, None,
     "C=4 < K=6 with a constant request set: every step must "
     "refetch the experts shed for capacity, though IR = 1."),
    # Interference: outside traffic evicts a previous-step expert between steps.
    ("interference", "cache isolation", 4, FaultScenario(FaultKind.INTERFERENCE, n=1, seed=7),
     "An inter-step eviction removes a member of the previous "
     "request set, so the next step fetches despite IR = 1."),
    # Prefetch insertion at C = K: admitting an alien expert forces the
    # policy to evict from the just-served set.
    ("prefetch", "cache isolation (inter-step insertion)", 4,
     FaultScenario(FaultKind.PREFETCH, n=1, seed=11),
     "At C = K any inter-step insertion evicts a member of the "
     "previous request set, producing a fetch despite IR = 1."),
)


def run_counterexamples() -> list[ScenarioResult]:
    """Demonstrate one constructed fetch-bound violation per failure mode.

    Each scenario repeats an identical request set, so every post-warmup step
    has IR = 1 and a bound of zero fetches; the injected fault, or C < K,
    then forces at least one fetch.
    """
    results: list[ScenarioResult] = []
    for name, assumption, k, scenario, description in _COUNTEREXAMPLES:
        trace = _constant_set_trace(n_experts=8, k=k, steps=5)
        cfg = CacheConfig(capacity=4, policy=Policy.LRU, reset_each_segment=True,
                          scenario=scenario)
        report = _simulated_report(trace, cfg, working_set=False)
        results.append(ScenarioResult(name, assumption, report.n_step_violations,
                                      report.violations[0] if report.violations else None,
                                      description))
    return results


# ---------------------------------------------------------------------------
# Randomized campaign
# ---------------------------------------------------------------------------


def run_campaign(
    n_traces: int = 1000,
    seed: int = 0,
    working_set: bool = False,
    threads: int = 1,
) -> dict:
    """Bound checks over randomized synthetic traces.

    Per trace, the capacities are {K, K+2, 2K} for the one-step bound and
    {2K} for the working-set bound. The traces are drawn in batches of
    ``_CAMPAIGN_BATCH``, on ``threads`` threads when it is above 1; one stamp
    pass (``cache_sim.lru_fetch_counts_each``) counts the fetches of a whole
    batch at all its capacities, and each trace is then tallied on its own.
    A batch bounds the memory a campaign holds, however many traces it draws.
    Per-seed results are deterministic and reduced in seed order, so the
    thread count never changes the report.
    """
    if n_traces < 1:
        raise ValueError(f"campaign needs n_traces >= 1, got {n_traces}")
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n_traces):
        cfg = SynthConfig(
            n_moe_layers=1,
            n_routed_experts=int(rng.integers(8, 33)),
            top_k=int(rng.integers(2, 7)),
            batch_size=1,
            n_segments=int(rng.integers(1, 4)),
            steps_per_segment=int(rng.integers(2, 25)),
            stickiness=float(rng.random()),
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        jobs.append(cfg)

    outcomes = []
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for first in range(0, n_traces, _CAMPAIGN_BATCH):
            batch = jobs[first:first + _CAMPAIGN_BATCH]
            traces = list((pool.map if pool else map)(synth_trace, batch))
            capacities = [(2 * cfg.top_k,) if working_set else
                          (cfg.top_k, cfg.top_k + 2, 2 * cfg.top_k) for cfg in batch]
            outcomes += [
                _tally(trace, _bounds(trace, n_fetch, caps[0] if working_set else None))
                for trace, caps, n_fetch in zip(traces, capacities,
                                                lru_fetch_counts_each(traces, capacities))
            ]
    return {
        "kind": "working_set" if working_set else "step",
        "n_traces": n_traces,
        "seed": seed,
        "checks": sum(c for c, _ in outcomes),
        "violations": sum(v for _, v in outcomes),
    }
