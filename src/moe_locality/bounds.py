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

Checks run on B=1 sequences; multi-batch traces are reduced per batch index.
Fetch counts come from one LRU recency-stack pass per batch slot
(``cache_sim.lru_fetch_counts``), which is exact at every C >= K by the
inclusion property, so a campaign checks {K, K+2, 2K} from one pass per
trace and tallies its checks and violations from the count and bound arrays.
The fault-free checks thus verify the bounds against that stack model of LRU,
not against ``simulate``, whose serve-and-admit check runs in none of them;
the differential tests of ``lru_fetch_counts`` tie the model to ``simulate``'s
per-step misses. ``simulate`` counts the fetches of the faulted
counterexamples, and replays a checked slot with events only to snapshot the
resident set before a step that breaks a bound.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .cache_sim import CacheConfig, FaultKind, FaultScenario, Policy, lru_fetch_counts, simulate
from .gate import overlap_counts
from .trace import RoutingTrace, SynthConfig, TraceHeader, synth_trace

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
    kind: str  # "step" or "working_set"
    capacity: int
    step_records: tuple[StepBoundRecord, ...]
    sequence_records: tuple[SequenceBound, ...]
    n_step_violations: int
    n_avg_violations: int

    @property
    def n_violations(self) -> int:
        return self.n_step_violations + self.n_avg_violations


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    assumption_broken: str
    n_violations: int
    first_violation: StepBoundRecord | None
    description: str


class _SlotBounds(NamedTuple):
    """One B=1 slot's fetch counts and bounds, indexed by layer and step
    ordinal; the leading axis of the capacity-dependent arrays is the
    capacity. A segment's first step has no bound and is never read."""

    n_fetch: np.ndarray  # int[C, L, steps], unique misses
    overlap_bound: np.ndarray  # int[L, steps], K - |E_t ∩ E_{t-1}|
    ws_horizon: np.ndarray | None  # int[C, L, steps], L_t (working-set checks only)
    ws_bound: np.ndarray | None  # int[C, L, steps], K - |E_t ∩ U_{t, L_t}|


def _slot_bounds(
    trace: RoutingTrace, capacities: tuple[int, ...], working_set: bool, n_fetch: np.ndarray
) -> _SlotBounds:
    """The bounds of one B=1 trace at every capacity, next to its fetch
    counts ``n_fetch``. Each layer's rows, overlaps and working-set sets are
    built once; only the working-set horizon depends on the capacity."""
    h = trace.header
    k = h.top_k
    offsets = trace.segment_offsets
    n_steps = offsets[-1]
    overlap = np.zeros((h.n_moe_layers, n_steps), dtype=np.int64)
    ws_horizon = ws_bound = None
    if working_set:
        ws_horizon = np.zeros((len(capacities), h.n_moe_layers, n_steps), dtype=np.int64)
        ws_bound = np.zeros_like(ws_horizon)
    deepest = max(capacities)
    for layer in range(h.n_moe_layers):
        rows = trace.expert_rows(layer, 0)
        # Exact integer form of K * (1 - IR_t); a pair across segments is never read.
        overlap[layer, 1:] = k - overlap_counts(rows)
        if not working_set:
            continue
        sets = [frozenset(row) for row in rows.tolist()]
        for segment, length in enumerate(trace.segment_lengths):
            start = offsets[segment]
            for i in range(start + 1, start + length):
                # Grow the union back from E_{t-1}; its size never shrinks, so
                # the horizon L_t at C is the number of unions that fit in C.
                sizes: list[int] = []
                shared: list[int] = []
                union: set[int] = set()
                for back in range(i - 1, start - 1, -1):
                    union |= sets[back]
                    if len(union) > deepest:
                        break
                    sizes.append(len(union))
                    shared.append(len(sets[i] & union))
                for c, capacity in enumerate(capacities):
                    horizon = bisect_right(sizes, capacity)
                    ws_horizon[c, layer, i] = horizon
                    ws_bound[c, layer, i] = k - (shared[horizon - 1] if horizon else 0)
    return _SlotBounds(n_fetch, overlap, ws_horizon, ws_bound)


def _segment_sums(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of ``x`` along its last (step) axis over each segment."""
    cs = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(x, axis=-1, out=cs[..., 1:])
    return cs[..., offsets[1:]] - cs[..., offsets[:-1]]


def _verdicts(trace: RoutingTrace, bounds: _SlotBounds):
    """The one statement of which checks ``bounds`` (of ``trace``) makes and
    which fail. Returns the steps that have a bound (bool[steps]: the previous
    step is in their segment); the step verdicts against the overlap and the
    working-set bound (bool[C, L, steps], True only on those steps; the latter
    None without working-set bounds); and each segment's fetch total
    (int[C, L, segments]), bound total (int[L, segments]) and verdict
    (bool[C, L, segments])."""
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


def _collect_step_records(
    trace: RoutingTrace, cfg: CacheConfig, batch: int, bounds: _SlotBounds
) -> tuple[list[StepBoundRecord], list[SequenceBound]]:
    """Per-step fetch counts vs. bounds for one B=1 trace, from ``bounds`` at
    one capacity, ``cfg.capacity``; the records carry ``batch``, the slot the
    trace was taken from.

    The resident set before a flagged step comes from an event-recording
    simulation under ``cfg``, which runs only when some step is flagged.
    """
    offsets = trace.segment_offsets
    n_steps = offsets[-1]
    _pairs, violated, ws_violated, (totals, total_bounds, seq_violated) = _verdicts(trace, bounds)
    per_step: list[StepBoundRecord] = []
    per_sequence: list[SequenceBound] = []
    flagged: list[tuple[int, int]] = []  # (index in per_step, layer-major step ordinal)
    for layer in range(trace.header.n_moe_layers):
        # The StepBoundRecord fields from n_fetch on, per step ordinal.
        columns = [bounds.n_fetch[0, layer], bounds.overlap_bound[layer], violated[0, layer]]
        if ws_violated is not None:
            columns += [bounds.ws_horizon[0, layer], bounds.ws_bound[0, layer],
                        ws_violated[0, layer]]
        steps = list(zip(*(column.tolist() for column in columns)))
        fetch_totals = totals[0, layer].tolist()
        bound_totals = total_bounds[layer].tolist()
        seq_flags = seq_violated[0, layer].tolist()
        for segment, length in enumerate(trace.segment_lengths):
            start = offsets[segment]  # the segment's first step ordinal
            for i in range(start + 1, start + length):
                record = StepBoundRecord(layer, batch, segment, i - start, *steps[i])
                if record.violated or record.ws_violated:
                    flagged.append((len(per_step), layer * n_steps + i))
                per_step.append(record)
            if length >= 2:
                per_sequence.append(SequenceBound(
                    layer=layer, batch=batch, segment=segment, n_steps=length - 1,
                    total_fetch=fetch_totals[segment], total_bound=bound_totals[segment],
                    violated=seq_flags[segment],
                ))
    if flagged:
        events = simulate(trace, cfg, record_events=True).events
        for i, ordinal in flagged:
            per_step[i] = replace(
                per_step[i], resident_before=events[ordinal].resident_before
            )
    return per_step, per_sequence


def _simulated_records(
    trace: RoutingTrace, cfg: CacheConfig, working_set: bool
) -> tuple[list[StepBoundRecord], list[SequenceBound]]:
    """Records of one B=1 trace whose fetches ``simulate`` counts under
    ``cfg``: the counter for faults and C < K, where the stack pass of
    :func:`lru_fetch_counts` does not apply."""
    n_fetch = simulate(trace, cfg).unique_misses[None]
    bounds = _slot_bounds(trace, (cfg.capacity,), working_set, n_fetch)
    return _collect_step_records(trace, cfg, 0, bounds)


def _check(
    trace: RoutingTrace, capacities: tuple[int, ...], working_set: bool
) -> Iterator[tuple[RoutingTrace, _SlotBounds]]:
    """Each batch slot in turn as a B=1 trace with its fetch counts and
    bounds at every capacity; one stack pass counts the fetches at all of
    them. Slots are yielded one at a time, so only one slot's copy is alive."""
    k = trace.header.top_k
    if min(capacities) < k:
        raise ValueError(f"bound checks require C >= K (got C={min(capacities)}, K={k})")
    for b in range(trace.header.batch_size):
        slot = trace.batch_slot(b)
        n_fetch = lru_fetch_counts(slot, capacities)
        yield slot, _slot_bounds(slot, capacities, working_set, n_fetch)


def _bound_report(trace: RoutingTrace, capacity: int, working_set: bool) -> BoundReport:
    cfg = CacheConfig(capacity=capacity, policy=Policy.LRU, reset_each_segment=True)
    step_records: list[StepBoundRecord] = []
    seq_records: list[SequenceBound] = []
    for b, (slot, bounds) in enumerate(_check(trace, (capacity,), working_set)):
        steps, seqs = _collect_step_records(slot, cfg, b, bounds)
        step_records.extend(steps)
        seq_records.extend(seqs)
    n_step = sum(1 for r in step_records if (r.ws_violated if working_set else r.violated))
    return BoundReport(
        kind="working_set" if working_set else "step",
        capacity=capacity,
        step_records=tuple(step_records),
        sequence_records=tuple(seq_records),
        n_step_violations=n_step,
        n_avg_violations=sum(1 for r in seq_records if r.violated),
    )


def _tally(trace: RoutingTrace, slots: Iterable[tuple[RoutingTrace, _SlotBounds]]) -> tuple[int, int]:
    """(checks, violations) summed over the capacities and slots of
    :func:`_check`, counted from the verdicts the reports are built from,
    without building them: a campaign reads only these two numbers, and one
    record per step and capacity would cost it more than its stack passes save."""
    n_sequences = sum(length >= 2 for length in trace.segment_lengths)
    checks = violations = 0
    for slot, bounds in slots:
        pairs, violated, ws_violated, (_, _, seq_violated) = _verdicts(slot, bounds)
        checks += bounds.n_fetch[..., 0].size * (int(pairs.sum()) + n_sequences)
        violations += int((violated if ws_violated is None else ws_violated).sum())
        violations += int(seq_violated.sum())
    return checks, violations


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
    return RoutingTrace(TraceHeader(1, n_experts, k, 1), keys, members, None, (steps,))


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
        steps, _ = _simulated_records(trace, cfg, working_set=False)
        violations = [r for r in steps if r.violated]
        results.append(ScenarioResult(name, assumption, len(violations),
                                      violations[0] if violations else None, description))
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
    {2K} for the working-set bound. Per-seed results are deterministic and
    reduced in seed order, so the thread count never changes the report.
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

    def run_one(cfg: SynthConfig) -> tuple[int, int]:
        trace = synth_trace(cfg)
        k = cfg.top_k
        caps = (2 * k,) if working_set else (k, k + 2, 2 * k)
        return _tally(trace, _check(trace, caps, working_set))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, jobs))
    else:
        outcomes = [run_one(cfg) for cfg in jobs]
    return {
        "kind": "working_set" if working_set else "step",
        "n_traces": n_traces,
        "seed": seed,
        "checks": sum(c for c, _ in outcomes),
        "violations": sum(v for _, v in outcomes),
    }
