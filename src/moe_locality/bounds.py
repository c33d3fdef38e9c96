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
from .gate import overlap_counts
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
    stats = simulate(trace, cfg).step_stats
    offsets = trace.segment_offsets
    n_steps = offsets[-1]

    per_step: list[StepBoundRecord] = []
    per_sequence: list[SequenceBound] = []
    flagged: list[tuple[int, int]] = []  # (index in per_step, index in step_stats)
    for layer in range(h.n_moe_layers):
        rows = trace.expert_rows(layer, 0)
        # Exact integer form of K * (1 - IR_t), one entry per adjacent pair.
        pair_bounds = (k - overlap_counts(rows)).tolist()
        for segment, length in enumerate(trace.segment_lengths):
            start = offsets[segment]  # the segment's first step ordinal
            if working_set:
                sets = [frozenset(row) for row in rows[start : start + length].tolist()]
            total_fetch = 0
            total_bound = 0
            for t in range(1, length):
                bound = pair_bounds[start + t - 1]
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
                    flagged.append((len(per_step), ordinal))
                per_step.append(
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
                per_sequence.append(
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
    if flagged:
        events = simulate(trace, cfg, record_events=True).events
        for i, ordinal in flagged:
            per_step[i] = replace(
                per_step[i], resident_before=events[ordinal].resident_before
            )
    return per_step, per_sequence


def _check(trace: RoutingTrace, capacity: int, working_set: bool) -> BoundReport:
    k = trace.header.top_k
    if capacity < k:
        raise ValueError(f"bound checks require C >= K (got C={capacity}, K={k})")
    cfg = CacheConfig(capacity=capacity, policy=Policy.LRU, reset_each_segment=True)
    step_records: list[StepBoundRecord] = []
    seq_records: list[SequenceBound] = []
    for b in range(trace.header.batch_size):
        steps, seqs = _collect_step_records(trace.batch_slot(b), cfg, working_set, b)
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
    members = tuple(range(k))
    records = [StepRecord(0, t, 0, 0, members) for t in range(steps)]
    return RoutingTrace.from_records(TraceHeader(1, n_experts, k, 1), records)


# (name, assumption broken, K, injected fault, description); each runs a
# constant request set over N=8 experts for 5 steps at C=4 under LRU with resets.
_COUNTEREXAMPLES = (
    # Capacity below K: even perfect reuse leaves K - C experts missing.
    ("under_capacity", "capacity (C >= K)", 6, FaultScenario(FaultKind.UNDER_CAPACITY),
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
    has IR = 1 and a bound of zero fetches; the injected fault then forces at
    least one fetch.
    """
    results: list[ScenarioResult] = []
    for name, assumption, k, scenario, description in _COUNTEREXAMPLES:
        trace = _constant_set_trace(n_experts=8, k=k, steps=5)
        cfg = CacheConfig(capacity=4, policy=Policy.LRU, reset_each_segment=True,
                          scenario=scenario)
        steps, _ = _collect_step_records(trace, cfg, working_set=False)
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
        check = check_working_set_bound if working_set else check_step_bound
        checked = violated = 0
        for cap in caps:
            report = check(trace, cap)
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
