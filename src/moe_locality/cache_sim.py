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
from dataclasses import dataclass, replace
from functools import cached_property
from heapq import nsmallest
from itertools import count, filterfalse, islice, repeat

import numpy as np

from .gate import topk
from .trace import RoutingTrace

REROUTE_EPS = 1e-12

__all__ = [
    "REROUTE_EPS",
    "Policy",
    "FaultKind",
    "FaultScenario",
    "CacheConfig",
    "IoModel",
    "LayerTotals",
    "StepEvent",
    "SimReport",
    "TpotReport",
    "simulate",
    "lru_fetch_counts",
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

    INTERFERENCE = "interference"  # evict n random residents between steps
    PREFETCH = "prefetch"  # insert n non-requested experts between steps


def _finite_nonnegative(value: float) -> bool:
    return math.isfinite(value) and value >= 0


@dataclass(frozen=True)
class FaultScenario:
    kind: FaultKind
    n: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
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
        if self.reroute_beta is not None and not _finite_nonnegative(self.reroute_beta):
            raise ValueError(f"reroute_beta must be a finite number >= 0, got {self.reroute_beta}")


@dataclass(frozen=True)
class IoModel:
    """Converts per-step unique misses into I/O time and a TPOT proxy."""

    expert_bytes: float
    bandwidth_gbps: float
    compute_ms: float

    def __post_init__(self):
        for name in ("expert_bytes", "bandwidth_gbps", "compute_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"IoModel {name} must be finite and positive, got {value}")


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


@dataclass(frozen=True, eq=False)
class SimReport:
    """``step_counts`` is a read-only int64[L, steps, 4]: per layer and step
    ordinal, the unique hits, distinct requests, token hits and routed slots.
    Every other count is derived from it, summed through ``tolist`` so that
    ratios are Python ``int / int``."""

    config: CacheConfig
    step_counts: np.ndarray
    final_resident: tuple[tuple[int, ...], ...]  # sorted, per layer
    events: tuple[StepEvent, ...] = ()
    rerouted_trace: RoutingTrace | None = None

    def __post_init__(self):
        self.step_counts.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, SimReport):
            return NotImplemented
        return np.array_equal(self.step_counts, other.step_counts) and (
            self.config, self.final_resident, self.events, self.rerouted_trace
        ) == (other.config, other.final_resident, other.events, other.rerouted_trace)

    @cached_property
    def unique_misses(self) -> np.ndarray:
        """int64[L, steps]: the experts each layer fetched at each step."""
        return self.step_counts[..., 1] - self.step_counts[..., 0]

    @cached_property
    def per_layer(self) -> tuple[LayerTotals, ...]:
        sums = self.step_counts.sum(axis=1).tolist()
        return tuple(LayerTotals(layer, *row) for layer, row in enumerate(sums))

    @cached_property
    def overall(self) -> LayerTotals:
        return LayerTotals(None, *self.step_counts.sum(axis=(0, 1)).tolist())

    @cached_property
    def step_unique_miss_series(self) -> tuple[int, ...]:
        """Cross-layer unique misses, one entry per (s, t)."""
        return tuple(self.unique_misses.sum(axis=0).tolist())

    @cached_property
    def miss_percentiles(self) -> dict[str, float]:
        return _percentile_summary(self.step_unique_miss_series)


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
    if not _finite_nonnegative(beta):
        raise ValueError(f"beta must be a finite number >= 0, got {beta}")
    p = np.asarray(probs, dtype=float)
    scores = np.log(p + REROUTE_EPS)
    for e in resident:
        scores[e] += beta
    return topk(scores, k)


# ---------------------------------------------------------------------------
# Requests and Belady next-use tables
# ---------------------------------------------------------------------------


def _step_requests(columns: list[np.ndarray]) -> list[tuple[list[int], dict]]:
    """Per step ordinal: the token slots (batch items in order) and the
    distinct set U, a dict whose keys are the slots in first-request order.
    ``columns`` holds each batch slot's Top-K rows."""
    slot_rows = np.concatenate(columns, axis=1).tolist()
    return [(slots, dict.fromkeys(slots)) for slots in slot_rows]


def _occurrence_index(steps, requests, within_segment: bool) -> dict:
    """expert -> sorted list of request ordinals, scoped per segment or globally."""
    occ: dict = {}
    for ordinal, ((s, _t), (_slots, uniq)) in enumerate(zip(steps, requests)):
        scope = s if within_segment else None
        for e in uniq:
            occ.setdefault((scope, e), []).append(ordinal)
    return occ


def _farthest_first(occ: dict, scope, ordinal: int):
    """Belady's victim order after request ``ordinal``: farthest next use
    first (no further use counts as farthest), ties to the lowest id."""

    def key(e):
        positions = occ.get((scope, e))
        if positions is not None:
            i = bisect_right(positions, ordinal)
            if i < len(positions):
                return (-positions[i], e)
        return (-math.inf, e)

    return key


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _victims(resident: dict, policy: Policy, n: int, protected, belady_key=None) -> list[int]:
    """The policy's first ``n`` eviction choices among residents not in ``protected``.

    LRU and FIFO keep ``resident`` in eviction order, so theirs is a prefix
    scan; LFU values are ``(freq, last_touch, id)`` tuples.
    """
    if policy == Policy.LFU:
        return [v[2] for v in nsmallest(n, (v for e, v in resident.items() if e not in protected))]
    if policy == Policy.BELADY:
        return nsmallest(n, (e for e in resident if e not in protected), key=belady_key)
    return list(islice(filterfalse(protected.__contains__, resident), n))


def _apply_fault(resident: dict, policy: Policy, capacity: int, scenario: FaultScenario,
                 rng, n_experts: int, tick) -> None:
    if scenario.kind == FaultKind.INTERFERENCE:
        for _ in range(scenario.n):
            if not resident:
                break
            del resident[int(rng.choice(sorted(resident)))]
    elif scenario.kind == FaultKind.PREFETCH:
        for _ in range(scenario.n):
            outside = sorted(set(range(n_experts)).difference(resident))
            if not outside:
                break
            e = int(rng.choice(outside))
            # Admitted untouched: most recent, newest admission, frequency 0.
            resident[e] = (0, tick(), e) if policy == Policy.LFU else None
            if len(resident) > capacity:
                for victim in _victims(resident, policy, len(resident) - capacity, ()):
                    del resident[victim]


def simulate(trace: RoutingTrace, cfg: CacheConfig, record_events: bool = False) -> SimReport:
    """Run the per-layer cache simulation over a full trace.

    Deterministic for a fixed (trace, cfg), including the fault RNG, which is
    seeded from ``cfg.scenario``. With ``cfg.reroute_beta`` set the step's
    Top-K sets are recomputed from the stored distributions with a residency
    bonus before being served, and the rerouted trace is attached to the
    report so its locality metrics can be compared against the original.

    Each layer's resident set is one dict, served in one pass over the steps.
    For LRU its key order is recency (a hit moves the key to the end) and for
    FIFO admission order (a hit leaves it in place); since the step's own
    requests are never victims, the victim is the first key outside the
    step's request set and no scan over timestamps is needed. LFU keeps
    ``(freq, last_touch, id)`` values and BELADY scans ``(-next_use, id)``.

    Per-step audit events (resident set before serving, fetched and evicted
    experts) cost a sorted copy of the resident set per step, so they are
    built only with ``record_events``. The bound checks count fault-free LRU
    fetches with :func:`lru_fetch_counts` instead, at all their capacities in
    one pass, and call this function only where that pass does not apply:
    they read ``unique_misses`` for the faulted counterexamples, and they run an
    event-recording simulation for the resident set before a step that breaks
    a bound. The run is deterministic, so it reproduces the counted one.
    """
    h = trace.header
    if cfg.reroute_beta is not None and not h.has_probs:
        raise ValueError("rerouting requires a trace with routing distributions")
    if cfg.reroute_beta is not None and cfg.policy == Policy.BELADY:
        raise ValueError("BELADY needs the future request stream, which rerouting changes")
    if cfg.scenario is not None and cfg.policy == Policy.BELADY:
        raise ValueError("fault injection is only supported with online policies")

    policy = cfg.policy
    capacity = cfg.capacity
    scenario = cfg.scenario
    rng = np.random.default_rng(scenario.seed) if scenario is not None else None
    reroute = cfg.reroute_beta is not None
    tick = count(1).__next__  # LFU's recency clock

    steps = list(trace.iter_steps())
    counts: list[tuple[int, int, int, int]] = []  # one per (layer, step), layer-major
    events: list[StepEvent] = []
    rerouted = np.empty_like(trace.topk) if reroute else None
    final_resident: list[tuple[int, ...]] = []

    for layer in range(h.n_moe_layers):
        columns = [trace.stream(layer, b) for b in range(h.batch_size)]
        requests = None if reroute else _step_requests([trace.topk[c] for c in columns])
        occ = None
        if policy == Policy.BELADY:
            occ = _occurrence_index(steps, requests, within_segment=cfg.reset_each_segment)
        resident: dict = {}
        prev_unique: dict | None = None
        prev_segment: int | None = None

        for ordinal, (s, t) in enumerate(steps):
            if cfg.reset_each_segment and s != prev_segment:
                resident.clear()
                prev_unique = None
            elif scenario is not None and prev_segment is not None:
                _apply_fault(resident, policy, capacity, scenario, rng, h.n_routed_experts, tick)
            prev_segment = s

            if reroute:
                slots = ()
                for column in columns:
                    row = column.start + ordinal * column.step
                    new_topk = reroute_topk(trace.probs[row], resident, cfg.reroute_beta, h.top_k)
                    slots += new_topk
                    rerouted[row] = new_topk
                uniq = dict.fromkeys(slots)
            else:
                slots, uniq = requests[ordinal]

            # Serve-and-admit guarantee: absent injected faults, the previous
            # step's distinct request set must still be resident whenever it
            # fits (the operational form of the proof's residency lemma).
            if (
                scenario is None
                and prev_unique is not None
                and capacity >= len(prev_unique)
                and not prev_unique.keys() <= resident.keys()
            ):
                raise RuntimeError(
                    f"admission property violated at layer {layer}, step ({s},{t})"
                )

            n_unique, n_slots = len(uniq), len(slots)
            unique_hits = sum(map(resident.__contains__, uniq))
            if n_unique == n_slots:
                token_hits = unique_hits
            else:
                token_hits = sum(map(resident.__contains__, slots))
            if record_events:
                resident_before = tuple(sorted(resident))
                fetched = tuple(e for e in uniq if e not in resident)

            if policy == Policy.LFU:
                for e in uniq:
                    old = resident.get(e)
                    resident[e] = (old[0] + 1 if old else 1, tick(), e)
            else:
                if unique_hits and policy == Policy.LRU:
                    for e in uniq:
                        resident.pop(e, None)
                resident.update(uniq)

            evicted = []
            over = len(resident) - capacity
            if over > 0:
                belady_key = None
                if occ is not None:
                    belady_key = _farthest_first(
                        occ, s if cfg.reset_each_segment else None, ordinal
                    )
                evicted = _victims(resident, policy, over, uniq, belady_key)
                if len(evicted) < over:
                    # C < |U|: shed the step's own experts in request order.
                    evicted.extend(islice(uniq, over - len(evicted)))
                for e in evicted:
                    del resident[e]

            counts.append((unique_hits, n_unique, token_hits, n_slots))
            if record_events:
                events.append(
                    StepEvent(s, t, layer, resident_before, tuple(uniq), fetched, tuple(evicted))
                )
            prev_unique = uniq

        final_resident.append(tuple(sorted(resident)))

    rerouted_trace = None
    if reroute:
        # Every row was rerouted: each stream check above passed, so the keys are dense.
        rerouted_trace = RoutingTrace(replace(h, has_probs=False), trace.keys, rerouted, None,
                                      trace.segment_lengths)

    return SimReport(
        config=cfg,
        step_counts=np.array(counts, dtype=np.int64).reshape(h.n_moe_layers, len(steps), 4),
        final_resident=tuple(final_resident),
        events=tuple(events),
        rerouted_trace=rerouted_trace,
    )


def lru_fetch_counts(trace: RoutingTrace, capacities) -> np.ndarray:
    """Per-step unique misses of fault-free LRU with request-level resets, at
    every capacity C >= K, in one pass over a B=1 trace.

    Returns ``int[len(capacities), L, steps]``; entry ``[c, l, i]`` equals
    ``simulate(...).unique_misses[l, i]`` at ``capacities[c]`` with
    ``reset_each_segment``. Under serve-and-admit LRU with C >= K, the
    resident set after every step is the top C of the recency stack
    (inclusion; Mattson et al., 1970), so an expert misses at C exactly when
    its stack depth before the step is >= C. Each layer keeps one stack, most
    recent first, emptied at every segment start; a step's Top-K row is
    served in order, so its last member is the most recent. The stack is cut
    at the largest capacity (at most N), since deeper experts miss at every
    capacity.

    Raises ValueError for a trace with B > 1 (count each ``batch_slot``), for
    no capacity or one below K, where inclusion does not hold and ``simulate``
    is the counter, and for a row that :meth:`RoutingTrace.expert_rows` refuses.
    """
    h = trace.header
    if h.batch_size != 1:
        raise ValueError(f"lru_fetch_counts counts one batch slot, got B={h.batch_size}")
    if not capacities or min(capacities) < h.top_k:
        raise ValueError(
            f"stack-distance counts need capacities >= K={h.top_k}, got {tuple(capacities)}"
        )
    # A stack holds at most N experts, so a capacity above N misses as C = N does.
    effective = np.array([min(c, h.n_routed_experts) for c in capacities], dtype=np.int64)
    cut = int(effective.max())
    firsts = set(trace.segment_offsets[:-1])
    n_steps = trace.segment_offsets[-1]
    counts = np.empty((len(effective), h.n_moe_layers, n_steps), dtype=np.int64)
    for layer in range(h.n_moe_layers):
        rows = trace.expert_rows(layer, 0).tolist()
        depths: list[int] = []  # stack depth of each requested expert, step by step
        stack: list[int] = []
        for i, row in enumerate(rows):
            if i in firsts:
                stack = []
            depth = {e: d for d, e in enumerate(stack)}
            depths.extend(map(depth.get, row, repeat(cut)))
            stack = [*reversed(row), *filterfalse(set(row).__contains__, stack)]
            del stack[cut:]
        depth_rows = np.array(depths, dtype=np.int64).reshape(n_steps, h.top_k)
        counts[:, layer] = (depth_rows >= effective[:, None, None]).sum(axis=-1)
    return counts


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
    if not all(map(math.isfinite, tpot)):
        raise ValueError(f"the I/O model {io} overflows: a step's TPOT is not finite")
    return TpotReport(io_ms=io_ms, tpot_ms=tpot, percentiles=_percentile_summary(tpot))
