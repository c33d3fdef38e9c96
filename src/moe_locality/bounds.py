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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cache_sim import CacheConfig, FaultKind, FaultScenario, Policy, simulate
from .trace import RoutingTrace, StepRecord, SynthConfig, TraceHeader, synth_trace

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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _collect_step_records(
    trace: RoutingTrace, cfg: CacheConfig, working_set: bool, batch: int = 0
) -> tuple[list[StepBoundRecord], list[SequenceBound]]:
    """Per-step fetch counts vs. bounds for one B=1 trace under ``cfg``; the
    records carry ``batch``, the slot the trace was taken from.

    Fetch counts are read from ``step_stats`` by position (layer-major, steps
    in trace order). The resident set before a flagged step comes from a
    second, event-recording simulation that runs only when some step is
    flagged; ``simulate`` is deterministic, so it replays the first exactly.
    """
    h = trace.header
    k = h.top_k
    # simulate raises KeyError unless the trace is dense, so the strided
    # slices below hold each layer's records in step order.
    stats = simulate(trace, cfg).step_stats
    n_steps = sum(trace.segment_lengths)

    step_records: list[StepBoundRecord] = []
    seq_records: list[SequenceBound] = []
    flagged: list[tuple[int, int]] = []  # (index in step_records, index in step_stats)
    for layer in range(h.n_moe_layers):
        column = trace.records[layer * h.batch_size :: h.n_moe_layers * h.batch_size]
        start = 0  # the segment's first step ordinal
        for segment, length in enumerate(trace.segment_lengths):
            sets = [rec.expert_set for rec in column[start : start + length]]
            total_fetch = 0
            total_bound = 0
            for t in range(1, length):
                # Exact integer form of K * (1 - IR_t).
                bound = k - len(sets[t] & sets[t - 1])
                ordinal = layer * n_steps + start + t
                n_fetch = stats[ordinal].unique_misses
                violated = n_fetch > bound
                ws_horizon = ws_bound = ws_violated = None
                if working_set:
                    union: set[int] = set()
                    horizon = 0
                    for back in range(1, t + 1):
                        candidate = union | sets[t - back]
                        if len(candidate) > cfg.capacity:
                            break
                        union = candidate
                        horizon = back
                    ws_horizon = horizon
                    ws_bound = k - len(sets[t] & union)
                    ws_violated = n_fetch > ws_bound
                if violated or ws_violated:
                    flagged.append((len(step_records), ordinal))
                step_records.append(
                    StepBoundRecord(
                        layer=layer,
                        batch=batch,
                        segment=segment,
                        step=t,
                        n_fetch=n_fetch,
                        overlap_bound=bound,
                        violated=violated,
                        ws_horizon=ws_horizon,
                        ws_bound=ws_bound,
                        ws_violated=ws_violated,
                    )
                )
                total_fetch += n_fetch
                total_bound += bound
            if length >= 2:
                seq_records.append(
                    SequenceBound(
                        layer=layer,
                        batch=batch,
                        segment=segment,
                        total_fetch=total_fetch,
                        total_bound=total_bound,
                        n_steps=length - 1,
                        violated=total_fetch > total_bound,
                    )
                )
            start += length
    if flagged:
        events = simulate(trace, cfg, record_events=True).events
        for i, ordinal in flagged:
            step_records[i] = replace(
                step_records[i], resident_before=events[ordinal].resident_before
            )
    return step_records, seq_records


def _batch_trace(trace: RoutingTrace, batch: int) -> RoutingTrace:
    """Batch slot ``batch`` of a dense sorted trace as a standalone B=1 trace.

    The slot's records are ``records[batch::B]``; a record of another slot
    among them means the trace is not dense (a key missing or repeated), so
    it raises KeyError rather than check one slot's routing as another's.
    """
    h = trace.header
    if h.batch_size == 1:
        return trace
    records = trace.records[batch :: h.batch_size]
    if any(rec.batch_index != batch for rec in records):
        raise KeyError(f"trace is not dense in batch slot {batch}")
    return RoutingTrace(
        header=replace(h, batch_size=1),
        records=tuple(
            StepRecord(r.segment_id, r.step_index, r.layer_id, 0, r.topk_indices, r.probs)
            for r in records
        ),
        segment_lengths=trace.segment_lengths,
    )


def _check(trace: RoutingTrace, capacity: int, working_set: bool) -> BoundReport:
    k = trace.header.top_k
    _require(capacity >= k, f"bound checks require C >= K (got C={capacity}, K={k})")
    cfg = CacheConfig(capacity=capacity, policy=Policy.LRU, reset_each_segment=True)
    step_records: list[StepBoundRecord] = []
    seq_records: list[SequenceBound] = []
    for b in range(trace.header.batch_size):
        steps, seqs = _collect_step_records(_batch_trace(trace, b), cfg, working_set, b)
        step_records.extend(steps)
        seq_records.extend(seqs)
    if working_set:
        n_step = sum(1 for r in step_records if r.ws_violated)
    else:
        n_step = sum(1 for r in step_records if r.violated)
    return BoundReport(
        kind="working_set" if working_set else "step",
        capacity=capacity,
        step_records=tuple(step_records),
        sequence_records=tuple(seq_records),
        n_step_violations=n_step,
        n_avg_violations=sum(1 for r in seq_records if r.violated),
    )


def check_step_bound(trace: RoutingTrace, capacity: int) -> BoundReport:
    """Assert N_fetch(t) <= K(1 - IR_t) per step and on average, under LRU
    with request-level resets and C >= K."""
    return _check(trace, capacity, working_set=False)


def check_working_set_bound(trace: RoutingTrace, capacity: int) -> BoundReport:
    """Assert the longer-horizon bound N_fetch(t) <= K - |E_t ∩ U_{t,L_t}|.

    The report carries both bounds per step; the working-set one is never
    looser than the overlap bound because U_{t,L_t} contains E_{t-1}.
    """
    return _check(trace, capacity, working_set=True)


# ---------------------------------------------------------------------------
# Failure-mode counterexamples
# ---------------------------------------------------------------------------


def _constant_set_trace(n_experts: int, k: int, steps: int) -> RoutingTrace:
    header = TraceHeader(
        n_moe_layers=1, n_routed_experts=n_experts, top_k=k, batch_size=1
    )
    members = tuple(range(k))
    records = [
        StepRecord(segment_id=0, step_index=t, layer_id=0, batch_index=0, topk_indices=members)
        for t in range(steps)
    ]
    return RoutingTrace.from_records(header, records)


def _scenario_violations(trace: RoutingTrace, cfg: CacheConfig) -> list[StepBoundRecord]:
    steps, _ = _collect_step_records(trace, cfg, working_set=False)
    return [r for r in steps if r.violated]


def run_counterexamples() -> list[ScenarioResult]:
    """Demonstrate one constructed fetch-bound violation per failure mode.

    Each scenario repeats an identical request set, so every post-warmup step
    has IR = 1 and a bound of zero fetches; the injected fault then forces at
    least one fetch.
    """
    results: list[ScenarioResult] = []

    # 1. Capacity below K: even perfect reuse leaves K - C experts missing.
    trace = _constant_set_trace(n_experts=8, k=6, steps=5)
    cfg = CacheConfig(
        capacity=4,
        policy=Policy.LRU,
        reset_each_segment=True,
        scenario=FaultScenario(FaultKind.UNDER_CAPACITY),
    )
    violations = _scenario_violations(trace, cfg)
    results.append(
        ScenarioResult(
            name="under_capacity",
            assumption_broken="capacity (C >= K)",
            n_violations=len(violations),
            first_violation=violations[0] if violations else None,
            description="C=4 < K=6 with a constant request set: every step must "
            "refetch the experts shed for capacity, though IR = 1.",
        )
    )

    # 2. Interference: outside traffic evicts a previous-step expert between steps.
    trace = _constant_set_trace(n_experts=8, k=4, steps=5)
    cfg = CacheConfig(
        capacity=4,
        policy=Policy.LRU,
        reset_each_segment=True,
        scenario=FaultScenario(FaultKind.INTERFERENCE, n=1, seed=7),
    )
    violations = _scenario_violations(trace, cfg)
    results.append(
        ScenarioResult(
            name="interference",
            assumption_broken="cache isolation",
            n_violations=len(violations),
            first_violation=violations[0] if violations else None,
            description="An inter-step eviction removes a member of the previous "
            "request set, so the next step fetches despite IR = 1.",
        )
    )

    # 3. Prefetch insertion at C = K: admitting an alien expert forces the
    # policy to evict from the just-served set.
    trace = _constant_set_trace(n_experts=8, k=4, steps=5)
    cfg = CacheConfig(
        capacity=4,
        policy=Policy.LRU,
        reset_each_segment=True,
        scenario=FaultScenario(FaultKind.PREFETCH, n=1, seed=11),
    )
    violations = _scenario_violations(trace, cfg)
    results.append(
        ScenarioResult(
            name="prefetch",
            assumption_broken="cache isolation (inter-step insertion)",
            n_violations=len(violations),
            first_violation=violations[0] if violations else None,
            description="At C = K any inter-step insertion evicts a member of the "
            "previous request set, producing a fetch despite IR = 1.",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Randomized campaign
# ---------------------------------------------------------------------------


def run_campaign(
    n_traces: int = 1000,
    seed: int = 0,
    capacities: tuple[int, ...] | None = None,
    working_set: bool = False,
    threads: int = 1,
) -> dict:
    """Bound checks over randomized synthetic traces.

    Per trace, capacities default to {K, K+2, 2K} for the one-step bound and
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
        if capacities:
            caps = capacities
        elif working_set:
            caps = (2 * cfg.top_k,)
        else:
            caps = (cfg.top_k, cfg.top_k + 2, 2 * cfg.top_k)
        checked = violated = 0
        for cap in caps:
            report = (
                check_working_set_bound(trace, cap)
                if working_set
                else check_step_bound(trace, cap)
            )
            checked += len(report.step_records) + len(report.sequence_records)
            violated += report.n_violations
        return checked, violated

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
