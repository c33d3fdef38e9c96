"""Trace-driven per-layer expert-cache simulation.

Serve-and-admit semantics, per step and per layer:

1. Flatten the step's routed slots across batch items (token level, B*K
   events) and deduplicate order-preservingly into the distinct request set U.
2. Count hits against the resident set as it stood *before* the step, at both
   token and unique granularity.
3. Fetch every expert of U that is missing, admit all of U, then evict among
   resident non-U experts per the replacement policy until the capacity bound
   holds. Experts requested this step are never evicted within the step; if U
   itself exceeds capacity (the C < K regime), its surplus members are
   used-then-dropped in request order.

Unique-level counts are the unit that matches expert-weight I/O: a weight
block is loaded at most once per step no matter how many slots request it.

Policies: LRU, LFU (per-residency frequency, ties least-recent then lowest
id), FIFO (admission order, hits do not refresh), and BELADY (evict the
farthest next use, infinity first, ties lowest id; requires the full trace).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .trace import RoutingTrace, StepRecord, TraceHeader, topk_of_probs

REROUTE_EPS = 1e-12

__all__ = [
    "REROUTE_EPS",
    "Policy",
    "FaultKind",
    "FaultScenario",
    "CacheConfig",
    "IoModel",
    "StepCacheStats",
    "LayerTotals",
    "StepEvent",
    "SimReport",
    "TpotReport",
    "LayerCacheState",
    "simulate",
    "reroute_topk",
    "estimate_tpot",
    "percentile",
]


class Policy(str, enum.Enum):
    LRU = "lru"
    LFU = "lfu"
    FIFO = "fifo"
    BELADY = "belady"


class FaultKind(str, enum.Enum):
    """Assumption-breaking injections for the fetch-bound failure modes."""

    UNDER_CAPACITY = "under_capacity"  # no event; the config itself sets C < K
    INTERFERENCE = "interference"  # evict n random residents between steps
    PREFETCH = "prefetch"  # insert n non-requested experts between steps


@dataclass(frozen=True)
class FaultScenario:
    kind: FaultKind
    n: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind != FaultKind.UNDER_CAPACITY and self.n < 1:
            raise ValueError("injection scenarios need n >= 1")


@dataclass(frozen=True)
class CacheConfig:
    capacity: int
    policy: Policy = Policy.LRU
    reset_each_segment: bool = False
    reroute_beta: float | None = None
    scenario: FaultScenario | None = None

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.reroute_beta is not None and self.reroute_beta < 0:
            raise ValueError("reroute_beta must be >= 0")


@dataclass(frozen=True)
class IoModel:
    """Converts per-step unique misses into I/O time and a TPOT proxy."""

    expert_bytes: float
    bandwidth_gbps: float
    compute_ms: float

    def __post_init__(self):
        if self.expert_bytes <= 0 or self.bandwidth_gbps <= 0 or self.compute_ms <= 0:
            raise ValueError("IoModel fields must all be positive")


@dataclass(frozen=True)
class StepCacheStats:
    segment: int
    step: int
    layer: int
    unique_hits: int
    unique_total: int
    token_hits: int
    token_total: int

    @property
    def unique_misses(self) -> int:
        return self.unique_total - self.unique_hits

    @property
    def token_misses(self) -> int:
        return self.token_total - self.token_hits


@dataclass(frozen=True)
class LayerTotals:
    layer: int | None  # None = aggregated across layers
    unique_hits: int = 0
    unique_total: int = 0
    token_hits: int = 0
    token_total: int = 0

    @property
    def unique_misses(self) -> int:
        return self.unique_total - self.unique_hits

    @property
    def token_misses(self) -> int:
        return self.token_total - self.token_hits

    @property
    def uhr(self) -> float:
        return self.unique_hits / self.unique_total if self.unique_total else 0.0

    @property
    def thr(self) -> float:
        return self.token_hits / self.token_total if self.token_total else 0.0


@dataclass(frozen=True)
class StepEvent:
    """Optional per-step audit record (resident set sampled before serving)."""

    segment: int
    step: int
    layer: int
    resident_before: tuple[int, ...]
    request_unique: tuple[int, ...]
    fetched: tuple[int, ...]
    evicted: tuple[int, ...]


@dataclass(frozen=True)
class SimReport:
    config: CacheConfig
    per_layer: tuple[LayerTotals, ...]
    overall: LayerTotals
    step_stats: tuple[StepCacheStats, ...]
    step_unique_miss_series: tuple[int, ...]  # cross-layer, one entry per (s, t)
    miss_percentiles: dict[str, float]
    final_resident: tuple[tuple[int, ...], ...]  # sorted, per layer
    events: tuple[StepEvent, ...] = ()
    rerouted_trace: RoutingTrace | None = None


@dataclass(frozen=True)
class TpotReport:
    io_ms: tuple[float, ...]
    tpot_ms: tuple[float, ...]
    percentiles: dict[str, float]


def percentile(series, rank: float) -> float:
    """Nearest-rank percentile: element at index ceil(rank*n) - 1 of the sorted series."""
    vals = sorted(series)
    if not vals:
        raise ValueError("percentile of an empty series")
    if not 0.0 < rank <= 1.0:
        raise ValueError(f"rank must be in (0, 1], got {rank}")
    idx = max(math.ceil(rank * len(vals)) - 1, 0)
    return float(vals[idx])


def _percentile_summary(series) -> dict[str, float]:
    if not series:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "p50": percentile(series, 0.50),
        "p95": percentile(series, 0.95),
        "p99": percentile(series, 0.99),
    }


def reroute_topk(probs, resident, beta: float, k: int) -> tuple[int, ...]:
    """Top-K of log(p) + beta * residency bonus, ties to the lowest index.

    Traces carry probabilities rather than raw scores, so the residency bonus
    is added in log space; beta = 0 reproduces the plain Top-K exactly.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    p = np.asarray(probs, dtype=float)
    scores = np.log(p + REROUTE_EPS)
    for e in resident:
        scores[e] += beta
    return topk_of_probs(scores, k)


# ---------------------------------------------------------------------------
# Per-layer cache state
# ---------------------------------------------------------------------------


class LayerCacheState:
    """Resident expert set plus exactly the policy metadata for that set.

    Metadata entries exist only for resident experts: eviction drops an
    expert's counters, so an LFU frequency restarts on readmission.
    """

    def __init__(self, capacity: int, policy: Policy):
        self.capacity = capacity
        self.policy = policy
        self.resident: set[int] = set()
        self.last_touch: dict[int, int] = {}
        self.admitted_at: dict[int, int] = {}
        self.freq: dict[int, int] = {}
        self._clock = 0

    def reset(self) -> None:
        self.resident.clear()
        self.last_touch.clear()
        self.admitted_at.clear()
        self.freq.clear()

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def touch(self, expert: int) -> None:
        """Serve one distinct request: admit on miss, refresh metadata on hit."""
        now = self._tick()
        if expert in self.resident:
            self.last_touch[expert] = now
            self.freq[expert] += 1
        else:
            self.resident.add(expert)
            self.last_touch[expert] = now
            self.admitted_at[expert] = now
            self.freq[expert] = 1

    def insert_untouched(self, expert: int) -> None:
        """Admission without a request (prefetch injection)."""
        if expert in self.resident:
            return
        now = self._tick()
        self.resident.add(expert)
        self.last_touch[expert] = now
        self.admitted_at[expert] = now
        self.freq[expert] = 0

    def drop(self, expert: int) -> None:
        self.resident.discard(expert)
        self.last_touch.pop(expert, None)
        self.admitted_at.pop(expert, None)
        self.freq.pop(expert, None)

    def pick_victim(self, candidates, next_use=None) -> int:
        if self.policy == Policy.LRU:
            return min(candidates, key=lambda e: self.last_touch[e])
        if self.policy == Policy.FIFO:
            return min(candidates, key=lambda e: self.admitted_at[e])
        if self.policy == Policy.LFU:
            return min(candidates, key=lambda e: (self.freq[e], self.last_touch[e], e))
        if self.policy == Policy.BELADY:
            return min(candidates, key=lambda e: (-next_use(e), e))
        raise ValueError(f"unknown policy {self.policy}")


# ---------------------------------------------------------------------------
# Belady next-use tables
# ---------------------------------------------------------------------------


def _ordered_unique(items) -> list[int]:
    seen: set[int] = set()
    out: list[int] = []
    for e in items:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _layer_requests(trace: RoutingTrace, layer: int) -> list[tuple[int, int, list[int], list[int]]]:
    """Per (segment, step): (s, t, token slot list R, ordered-unique list U)."""
    h = trace.header
    out = []
    for s, t in trace.iter_steps():
        slots: list[int] = []
        for b in range(h.batch_size):
            slots.extend(trace.record_at(s, t, layer, b).topk_indices)
        out.append((s, t, slots, _ordered_unique(slots)))
    return out


def _occurrence_index(requests, within_segment: bool) -> dict:
    """expert -> sorted list of request ordinals, scoped per segment or globally."""
    occ: dict = {}
    for ordinal, (s, _t, _slots, uniq) in enumerate(requests):
        scope = s if within_segment else None
        for e in uniq:
            occ.setdefault((scope, e), []).append(ordinal)
    return occ


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _apply_fault(state: LayerCacheState, scenario: FaultScenario, rng, n_experts: int) -> None:
    if scenario.kind == FaultKind.INTERFERENCE:
        for _ in range(scenario.n):
            if not state.resident:
                break
            victim = int(rng.choice(sorted(state.resident)))
            state.drop(victim)
    elif scenario.kind == FaultKind.PREFETCH:
        for _ in range(scenario.n):
            outside = sorted(set(range(n_experts)) - state.resident)
            if not outside:
                break
            state.insert_untouched(int(rng.choice(outside)))
            while len(state.resident) > state.capacity:
                state.drop(state.pick_victim(state.resident, next_use=lambda e: math.inf))


def simulate(trace: RoutingTrace, cfg: CacheConfig, record_events: bool = False) -> SimReport:
    """Run the per-layer cache simulation over a full trace.

    Deterministic for a fixed (trace, cfg). With ``cfg.reroute_beta`` set the
    step's Top-K sets are recomputed from the stored distributions with a
    residency bonus before being served, and the rerouted trace is attached to
    the report so its locality metrics can be compared against the original.
    """
    h = trace.header
    if cfg.reroute_beta is not None and not h.has_probs:
        raise ValueError("rerouting requires a trace with routing distributions")
    if cfg.reroute_beta is not None and cfg.policy == Policy.BELADY:
        raise ValueError("BELADY needs the future request stream, which rerouting changes")
    if cfg.scenario is not None and cfg.policy == Policy.BELADY:
        raise ValueError("fault injection is only supported with online policies")

    rng = np.random.default_rng(cfg.scenario.seed) if cfg.scenario is not None else None
    reroute = cfg.reroute_beta is not None

    layer_requests = {
        layer: _layer_requests(trace, layer) for layer in range(h.n_moe_layers)
    }
    occurrences = None
    if cfg.policy == Policy.BELADY:
        occurrences = {
            layer: _occurrence_index(reqs, within_segment=cfg.reset_each_segment)
            for layer, reqs in layer_requests.items()
        }

    step_stats: list[StepCacheStats] = []
    events: list[StepEvent] = []
    rerouted_records: list[StepRecord] = []
    final_resident: list[tuple[int, ...]] = []
    cross_step_miss: dict[tuple[int, int], int] = {(s, t): 0 for s, t in trace.iter_steps()}

    for layer in range(h.n_moe_layers):
        state = LayerCacheState(cfg.capacity, cfg.policy)
        requests = layer_requests[layer]
        occ = occurrences[layer] if occurrences is not None else None
        prev_unique: list[int] | None = None
        prev_segment: int | None = None

        for ordinal, (s, t, slots, uniq) in enumerate(requests):
            if cfg.reset_each_segment and s != prev_segment:
                state.reset()
                prev_unique = None
            elif cfg.scenario is not None and prev_segment is not None:
                _apply_fault(state, cfg.scenario, rng, h.n_routed_experts)
            prev_segment = s

            if reroute:
                slots = []
                for b in range(h.batch_size):
                    rec = trace.record_at(s, t, layer, b)
                    new_topk = reroute_topk(
                        rec.probs, state.resident, cfg.reroute_beta, h.top_k
                    )
                    slots.extend(new_topk)
                    rerouted_records.append(
                        StepRecord(s, t, layer, b, new_topk, rec.probs)
                    )
                uniq = _ordered_unique(slots)

            resident_before = state.resident.copy()

            # Serve-and-admit guarantee: absent injected faults, the previous
            # step's distinct request set must still be resident whenever it
            # fits (the operational form of the proof's residency lemma).
            if (
                cfg.scenario is None
                and prev_unique is not None
                and cfg.capacity >= len(prev_unique)
                and not set(prev_unique) <= resident_before
            ):
                raise RuntimeError(
                    f"admission property violated at layer {layer}, step ({s},{t})"
                )

            token_hits = sum(1 for e in slots if e in resident_before)
            unique_hits = sum(1 for e in uniq if e in resident_before)
            fetched = tuple(e for e in uniq if e not in resident_before)

            for e in uniq:
                state.touch(e)

            if cfg.policy == Policy.BELADY:
                scope = s if cfg.reset_each_segment else None

                def next_use(e, _scope=scope, _ordinal=ordinal):
                    positions = occ.get((_scope, e))
                    if positions is None:
                        return math.inf
                    i = bisect_right(positions, _ordinal)
                    return positions[i] if i < len(positions) else math.inf

            else:
                next_use = None

            evicted: list[int] = []
            uniq_set = set(uniq)
            surplus_cursor = 0
            while len(state.resident) > cfg.capacity:
                candidates = state.resident - uniq_set
                if candidates:
                    victim = state.pick_victim(candidates, next_use=next_use)
                else:
                    # C < |U|: shed the step's own experts in request order.
                    victim = uniq[surplus_cursor]
                    surplus_cursor += 1
                state.drop(victim)
                evicted.append(victim)

            step_stats.append(
                StepCacheStats(
                    segment=s,
                    step=t,
                    layer=layer,
                    unique_hits=unique_hits,
                    unique_total=len(uniq),
                    token_hits=token_hits,
                    token_total=len(slots),
                )
            )
            cross_step_miss[(s, t)] += len(uniq) - unique_hits
            if record_events:
                events.append(
                    StepEvent(
                        segment=s,
                        step=t,
                        layer=layer,
                        resident_before=tuple(sorted(resident_before)),
                        request_unique=tuple(uniq),
                        fetched=fetched,
                        evicted=tuple(evicted),
                    )
                )
            prev_unique = uniq

        final_resident.append(tuple(sorted(state.resident)))

    per_layer = []
    for layer in range(h.n_moe_layers):
        stats = [st for st in step_stats if st.layer == layer]
        per_layer.append(
            LayerTotals(
                layer=layer,
                unique_hits=sum(st.unique_hits for st in stats),
                unique_total=sum(st.unique_total for st in stats),
                token_hits=sum(st.token_hits for st in stats),
                token_total=sum(st.token_total for st in stats),
            )
        )
    overall = LayerTotals(
        layer=None,
        unique_hits=sum(lt.unique_hits for lt in per_layer),
        unique_total=sum(lt.unique_total for lt in per_layer),
        token_hits=sum(lt.token_hits for lt in per_layer),
        token_total=sum(lt.token_total for lt in per_layer),
    )
    miss_series = tuple(cross_step_miss[(s, t)] for s, t in trace.iter_steps())

    rerouted_trace = None
    if reroute:
        rerouted_header = TraceHeader(
            n_moe_layers=h.n_moe_layers,
            n_routed_experts=h.n_routed_experts,
            top_k=h.top_k,
            batch_size=h.batch_size,
            has_probs=False,
        )
        rerouted_trace = RoutingTrace.from_records(
            rerouted_header,
            [StepRecord(r.segment_id, r.step_index, r.layer_id, r.batch_index, r.topk_indices)
             for r in rerouted_records],
        )

    return SimReport(
        config=cfg,
        per_layer=tuple(per_layer),
        overall=overall,
        step_stats=tuple(step_stats),
        step_unique_miss_series=miss_series,
        miss_percentiles=_percentile_summary(miss_series),
        final_resident=tuple(final_resident),
        events=tuple(events),
        rerouted_trace=rerouted_trace,
    )


def estimate_tpot(report: SimReport, io: IoModel, batch: int) -> TpotReport:
    """Per-step TPOT proxy: compute baseline plus miss I/O amortized over the batch.

    io_ms(step) = misses * expert_bytes / (bandwidth_gbps * 1e9) * 1000.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    io_ms = tuple(
        m * io.expert_bytes / (io.bandwidth_gbps * 1e9) * 1000.0
        for m in report.step_unique_miss_series
    )
    tpot = tuple(io.compute_ms + x / batch for x in io_ms)
    return TpotReport(io_ms=io_ms, tpot_ms=tpot, percentiles=_percentile_summary(tpot))
