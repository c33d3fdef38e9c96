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

Policies: LRU, LFU (per-residency frequency, ties to the least recent),
FIFO (admission order, hits do not refresh), and BELADY (evict the
farthest next use, infinity first, ties lowest id; requires the full trace).

Fault-free LRU at a capacity that holds every step's U is a stack algorithm
(Mattson, Gecsei, Slutz & Traiger, 1970): the resident set is the top C of
the recency stack, so a request hits exactly when its stack depth is below
C. One stamp pass (:func:`_stack_depths`; Bennett & Kruskal, 1975) gives the
depths of many request streams at once, as last-use stamps in an array with
one row per stream. It is this module's only LRU stack code: ``simulate``
counts such runs with it, and :func:`lru_fetch_counts` and
:func:`lru_fetch_counts_each` count the bound checks' per-slot streams at
every capacity from one pass.

Fault-free LFU, FIFO and BELADY at such a capacity never evict a step's own
requests, so many streams can be served side by side: one policy pass
(:func:`_policy_pass`) keeps each stream's resident mask and eviction keys
in arrays, when the trace has at least ``_POLICY_STREAMS`` streams per step.
Every other run goes through ``simulate``'s per-layer dict loop.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from heapq import nsmallest
from itertools import count, filterfalse, islice

import numpy as np

from .gate import topk_rows
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
    "lru_fetch_counts_each",
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


def reroute_topk(probs, resident, beta: float, k: int) -> np.ndarray:
    """Top-K index rows of log(p) + beta * residency bonus along the last
    axis, descending, ties to the lowest index (:func:`gate.topk_rows`).

    ``probs`` is one distribution or a stack of them (``[..., N]``). Every
    row gets the bonus on the columns of ``resident``, so one call reroutes
    the B rows of a (layer, step), which all see the same resident set.
    Traces carry probabilities rather than raw scores, so the bonus is added
    in log space; beta = 0 reproduces the plain Top-K exactly.
    """
    if not _finite_nonnegative(beta):
        raise ValueError(f"beta must be a finite number >= 0, got {beta}")
    scores = np.log(np.asarray(probs, dtype=float) + REROUTE_EPS)
    scores[..., list(resident)] += beta
    return topk_rows(scores, k)


# ---------------------------------------------------------------------------
# Requests and Belady next uses
# ---------------------------------------------------------------------------


def _step_requests(rows: np.ndarray) -> list[tuple[list[int], dict]]:
    """Per step ordinal: the token slots (batch items in order) and the
    distinct set U, a dict whose keys are the slots in first-request order.
    ``rows`` is one layer's int[steps, B, K] routes."""
    slot_rows = rows.reshape(len(rows), math.prod(rows.shape[1:])).tolist()
    return [(slots, dict.fromkeys(slots)) for slots in slot_rows]


def _belady_values(requests, scopes) -> list[dict]:
    """Per step ordinal, BELADY's resident value ``(-next_use, id)`` of each
    expert of its U, from one backward scan: the expert's next request
    ordinal in the same scope (``scopes[ordinal]``), or ``len(requests)``,
    the farthest, when there is none."""
    never = len(requests)
    upcoming: dict = {}
    values: list = [None] * never
    scope = None
    for ordinal in range(never - 1, -1, -1):
        if scopes[ordinal] != scope:
            scope = scopes[ordinal]
            upcoming.clear()
        uniq = requests[ordinal][1]
        values[ordinal] = {e: (-upcoming.get(e, never), e) for e in uniq}
        upcoming.update(dict.fromkeys(uniq, ordinal))
    return values


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _victims(resident: dict, policy: Policy, n: int, protected) -> list[int]:
    """The policy's first ``n`` eviction choices among residents not in ``protected``.

    LRU and FIFO keep ``resident`` in eviction order, so theirs is a prefix
    scan; LFU and BELADY evict the smallest values, ``(freq, last_touch)``
    and ``(-next_use, id)``.
    """
    candidates = filterfalse(protected.__contains__, resident)
    if policy in (Policy.LFU, Policy.BELADY):
        return nsmallest(n, candidates, key=resident.__getitem__)
    return list(islice(candidates, n))


def _apply_fault(resident: dict, policy: Policy, capacity: int, scenario: FaultScenario,
                 rng, n_experts: int, tick) -> None:
    if scenario.kind == FaultKind.INTERFERENCE:
        for _ in range(scenario.n):
            if not resident:
                break
            del resident[int(rng.choice(sorted(resident)))]
    elif scenario.kind == FaultKind.PREFETCH:
        for _ in range(scenario.n):
            inside = sorted(e for e in resident if e < n_experts)
            if len(inside) == n_experts:
                break
            # rng.choice's draw over the outside ids in id order, without listing them:
            # the j-th is j shifted past every resident at or below it.
            e = int(rng.integers(0, n_experts - len(inside)))
            for r in inside:
                if e < r:
                    break
                e += 1
            # Admitted untouched: most recent, newest admission, frequency 0.
            resident[e] = (0, tick()) if policy == Policy.LFU else None
            if len(resident) > capacity:
                for victim in _victims(resident, policy, len(resident) - capacity, ()):
                    del resident[victim]


def simulate(trace: RoutingTrace, cfg: CacheConfig, record_events: bool = False) -> SimReport:
    """Run the per-layer cache simulation over a full trace.

    Deterministic for a fixed (trace, cfg), including the fault RNG, which is
    seeded from ``cfg.scenario``. With ``cfg.reroute_beta`` set the step's
    Top-K sets are recomputed from the stored distributions with a residency
    bonus before being served, one :func:`reroute_topk` call on the B rows
    of each (layer, step), and the rerouted trace is attached to the report
    so its locality metrics can be compared against the original.

    Fault-free LRU (no scenario, no rerouting, no ``record_events``) at a
    capacity of at least max_t |U_t|, the most distinct experts one step of
    one layer requests, is counted by one stamp pass over the (layer,
    segment) streams with resets, or the layer streams without
    (:func:`_stack_depths`): the step's B*K slots form one row, stamped in
    the order U is served. Such a capacity always holds U, so the resident
    set after a step is the top C of the recency stack (inclusion), and an
    expert hits exactly when its stack depth is below C. ``final_resident``
    is the top C of each layer's last stream. Fault-free LFU, FIFO and
    BELADY at such a capacity are served by one policy pass over the same
    streams (:func:`_policy_pass`), when they number at least
    ``_POLICY_STREAMS`` per step of the longest one; ``final_resident`` is
    then each layer's last stream's resident set.

    Every other run serves each layer's resident set as one dict, in one pass
    over the steps. For LRU its key order is recency (a hit moves the key to
    the end) and for FIFO admission order (a hit leaves it in place); since
    the step's own requests are never victims, the victim is the first key
    outside the step's request set and no scan over timestamps is needed.
    LFU and BELADY evict the residents of smallest value: LFU's is
    ``(freq, last_touch)``, BELADY's ``(-next_use, id)``, stored when the
    expert is served, its next use found by one backward scan per layer.

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
    if cfg.scenario is None and cfg.reroute_beta is None and not record_events:
        report = _array_simulate(trace, cfg)
        if report is not None:
            return report

    policy = cfg.policy
    capacity = cfg.capacity
    scenario = cfg.scenario
    rng = np.random.default_rng(scenario.seed) if scenario is not None else None
    reroute = cfg.reroute_beta is not None
    tick = count(1).__next__  # LFU's recency clock

    routes = trace.routes
    steps = trace.step_keys.tolist()
    scopes = [s for s, _t in steps] if cfg.reset_each_segment else [0] * len(steps)
    counts: list[tuple[int, int, int, int]] = []  # one per (layer, step), layer-major
    events: list[StepEvent] = []
    if reroute:
        probs = trace.probs.reshape(*routes.shape[:3], h.n_routed_experts)
        rerouted = np.empty_like(routes)
    final_resident: list[tuple[int, ...]] = []

    for layer in range(h.n_moe_layers):
        requests = None if reroute else _step_requests(routes[:, layer])
        if policy == Policy.BELADY:
            belady_values = _belady_values(requests, scopes)
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
                rows = reroute_topk(probs[ordinal, layer], resident, cfg.reroute_beta, h.top_k)
                rerouted[ordinal, layer] = rows
                slots = rows.ravel().tolist()
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
                    resident[e] = (old[0] + 1 if old else 1, tick())
            elif policy == Policy.BELADY:
                resident.update(belady_values[ordinal])
            else:
                if unique_hits and policy == Policy.LRU:
                    for e in uniq:
                        resident.pop(e, None)
                resident.update(uniq)

            evicted = []
            over = len(resident) - capacity
            if over > 0:
                evicted = _victims(resident, policy, over, uniq)
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
        # Every row was rerouted: routes read the keys as dense.
        rerouted_trace = RoutingTrace(replace(h, has_probs=False), trace.keys,
                                      rerouted.reshape(trace.topk.shape), None)

    return SimReport(
        config=cfg,
        step_counts=np.array(counts, dtype=np.int64).reshape(h.n_moe_layers, len(steps), 4),
        final_resident=tuple(final_resident),
        events=tuple(events),
        rerouted_trace=rerouted_trace,
    )


_STAMP_CELLS = 1 << 16  # cells of one chunk's stamp array, times the slots of a row


def _stream_chunks(requests: np.ndarray, streams: np.ndarray, steps: np.ndarray,
                   cells_per_column: int):
    """Many request streams in chunks, for one array pass over the step index.

    Row i of ``requests`` (int[rows, W]) is step ``steps[i]`` of stream
    ``streams[i]``; a stream's steps are 0, 1, ... with no gap, its rows in
    any order. Streams are ranked longest first, so the streams still running
    at step t are a prefix of the ranking, and they are taken in chunks of
    consecutive ranks. A stream's columns are the ids it requests (never one
    per id up to N), and a chunk holds about ``_STAMP_CELLS`` of its widest
    stream's columns, times ``cells_per_column``.

    Yields ``(rows, stream, block, live, columns, n_columns)`` per chunk: the
    chunk's rows in step-major order, the chunk stream (0, 1, ...) of each,
    where step t's rows start and how many streams it has (a prefix of the
    chunk's), each slot's column in its stream (slot-major int[W, rows],
    numbered in id order) and the most columns a stream of the chunk has.
    """
    n, w = requests.shape
    if not n:
        return
    lengths = np.bincount(streams)
    by_length = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(by_length)
    rank[by_length] = np.arange(len(by_length))
    running = len(lengths) - np.searchsorted(lengths[by_length][::-1],
                                             np.arange(lengths.max()), side="right")
    ptr = np.concatenate(([0], np.cumsum(running)))
    # row_at[p] is the row at position p of the step-major order: step t's
    # rows sit at ptr[t] + rank of their stream.
    row_at = np.empty(n, dtype=np.int64)
    row_at[ptr[steps] + rank[streams]] = np.arange(n)
    ids, column_of = _expert_ids(requests)
    n_ids = int(column_of[-1]) + 1
    widest = min(n_ids, int(lengths.max()) * w)  # the most columns a stream can need
    per_chunk = max(1, _STAMP_CELLS // (widest * cells_per_column))
    for a in range(0, running[0], per_chunk):  # the streams with a step
        b = min(a + per_chunk, running[0])
        n_steps = lengths[by_length[a]]
        live = np.minimum(running[:n_steps], b) - a  # the chunk's streams at each step
        block = np.cumsum(live) - live  # where each step's rows start in the chunk's
        stream = np.arange(block[-1] + live[-1]) - np.repeat(block, live)
        rows = row_at[np.repeat(ptr[:n_steps] + a, live) + stream]
        columns, n_columns = _stream_columns(column_of[ids[rows]], stream, b - a, n_ids)
        yield rows, stream, block.tolist(), live.tolist(), columns, n_columns


def _stack_depths(requests: np.ndarray, streams: np.ndarray, steps: np.ndarray,
                  cut: int) -> np.ndarray:
    """LRU stack depths of every request of many streams, in one stamp pass
    (Bennett & Kruskal, 1975).

    Row i of ``requests`` (int[rows, W]) is step ``steps[i]`` of stream
    ``streams[i]``, served in slot order: its experts are distinct, but for
    repeats of its last one, which serve nothing new. Each stream starts with
    an empty stack and is one row of a last-use stamp array, with one column
    per expert id that occurs in it (see :func:`_stream_chunks`). Serving
    step t stamps slot j's expert with ``t * W + j``, so the row's last
    expert is the most recent. Before a step an expert's depth is the number
    of experts of its stream stamped after it. Returns int[rows, W], the
    depth of each slot's expert, or ``cut`` for one not stamped yet or at
    depth ``cut`` or more.
    """
    n, w = requests.shape
    found = np.empty((n, w), dtype=np.int16 if cut < 2**15 else np.int64)
    for rows, stream, block, live, columns, n_columns in _stream_chunks(
            requests, streams, steps, w):
        n_streams, n_steps = live[0], len(live)
        stamp_dtype = np.int32 if n_steps * w < 2**31 else np.int64
        narrow = max(cut, n_columns) < 2**15
        depths = np.empty((w, len(rows)), dtype=np.int16 if narrow else np.int64)
        served = np.arange(w, dtype=stamp_dtype)[:, None]
        # A step compares its stamps with its streams' rows of the chunk's
        # stamp array, along the longer of its two axes: stored [column,
        # stream] when the chunk has at least as many streams as columns,
        # else [stream, column].
        by_column = n_streams >= n_columns
        cells = columns * n_streams + stream if by_column else stream * n_columns + columns
        stamps = np.full(n_columns * n_streams, -1, dtype=stamp_dtype)
        grid = stamps.reshape((n_columns, 1, n_streams) if by_column
                              else (n_streams, 1, n_columns))
        seen = np.empty((w, n_streams), dtype=stamp_dtype)  # [slot, stream]
        for t, (first, k) in enumerate(zip(block, live)):
            step_cells = cells[:, first:first + k]
            mine = np.take(stamps, step_cells, out=seen[:, :k])
            at = depths[:, first:first + k]
            if by_column:
                np.add.reduce(grid[:, :, :k] > mine, axis=0, out=at)
            else:
                np.add.reduce(grid[:k] > mine.T[:, :, None], axis=-1, out=at.T)
            np.putmask(at, mine < 0, cut)
            stamps[step_cells] = served + t * w
        found[rows] = np.minimum(depths, cut).T
    return found


# Streams per step of the longest stream (rows / its steps) from which the
# policy pass serves LFU, FIFO and BELADY instead of simulate's dict loop: the
# pass's numpy calls cost about 45 us a step however many streams run, the
# dict loop about 2-5 us per stream and step. Sweep, dict loop time / pass
# time (2 cores, numpy 2.4; L = 4, N = 64, K = 6, B = 1 and 4, C = 6B or 24,
# resets, 32 and 256 steps per segment): 4 streams 0.3-1.1x, 8 streams
# 0.5-2.9x, 12 streams 0.75-2.7x, 16 streams 0.87-3.0x (FIFO, the cheapest
# dict loop, about even), 32 streams 1.25-5.1x, 64 streams 1.6-6.9x. With
# 4-step segments the pass is up to 0.5 ms slower below 32 streams.
_POLICY_STREAMS = 16


def _policy_pass(served: np.ndarray, n_unique: np.ndarray, streams: np.ndarray,
                 steps: np.ndarray, capacity: int, policy: Policy, final) -> tuple:
    """Fault-free LFU, FIFO or BELADY over many streams in one array pass.

    Row i of ``served`` (int[rows, U]) is step ``steps[i]`` of stream
    ``streams[i]``: its ``n_unique[i]`` distinct experts in the order
    ``simulate`` serves them, padded by repeating the last one. Each stream
    starts empty and is served as ``simulate``'s dict loop serves one layer
    at ``capacity`` >= every row's ``n_unique``, so its victims are always
    among the residents the step did not request. A chunk of streams keeps a
    resident mask and one eviction key per (stream, column) cell, smallest
    evicted first (see :func:`_stream_chunks`; columns are numbered in id
    order, so "ties to the lowest id" is a column comparison). With T the
    chunk's longest stream and the step-t touch of slot j stamped ``t * U +
    j``, which orders a stream's touches as the dict loop's clock does:

    - LFU: frequency in this residency times ``T * U``, plus the last touch;
    - FIFO: the admission stamp (a hit leaves it);
    - BELADY: ``(T - next use) * columns + column``, with T for no next use
      in the stream, so the farthest goes first and ties to the lowest id.

    All keys stay below ``(T + 1) * T * U``; excluded cells read the int64
    maximum. Returns bool[rows, U], whether each slot's expert was resident
    before its step, and ``{stream: sorted resident ids}`` after the last
    step of each stream in ``final``.
    """
    n, u = served.shape
    hits = np.empty((n, u), dtype=bool)
    residents = {}
    excluded = np.iinfo(np.int64).max
    for rows, stream, block, live, columns, n_columns in _stream_chunks(
            served, streams, steps, u):
        n_streams, n_steps = live[0], len(live)
        cells = stream * n_columns + columns  # [slot, row]
        width = n_unique[rows]
        valid = np.arange(u)[:, None] < width  # a padded slot repeats the last
        if policy == Policy.BELADY:
            # Each request's next use in its stream, scanning the steps
            # backwards; a padded slot repeats its row's last request.
            next_use = np.empty((u, len(rows)), dtype=np.int64)
            upcoming = np.full(n_streams * n_columns, n_steps, dtype=np.int64)
            for t in range(n_steps - 1, -1, -1):
                step_cells = cells[:, block[t]:block[t] + live[t]]
                next_use[:, block[t]:block[t] + live[t]] = upcoming[step_cells]
                upcoming[step_cells] = t
            touch_keys = (n_steps - next_use) * n_columns + columns
        else:
            position = np.minimum(np.arange(u)[:, None], width - 1)
            touch_keys = np.repeat(np.arange(n_steps), live) * u + position
        resident = np.zeros(n_streams * n_columns, dtype=bool)
        keys = np.zeros(n_streams * n_columns, dtype=np.int64)
        size = np.zeros(n_streams, dtype=np.int64)
        span = n_steps * u
        found = np.empty((u, len(rows)), dtype=bool)
        for first, k in zip(block, live):
            step_cells = cells[:, first:first + k]
            hit = np.take(resident, step_cells, out=found[:, first:first + k])
            size[:k] += (valid[:, first:first + k] & ~hit).sum(axis=0)
            touched = touch_keys[:, first:first + k]
            if policy == Policy.LFU:
                frequency = np.where(hit, keys[step_cells] // span + 1, 1)
                keys[step_cells] = frequency * span + touched
            elif policy == Policy.FIFO:
                keys[step_cells] = np.where(hit, keys[step_cells], touched)
            else:
                keys[step_cells] = touched
            resident[step_cells] = True
            over = size[:k] - capacity
            full = np.flatnonzero(over > 0)
            if not len(full):
                continue
            over = over[full]
            block_cells = full[:, None] * n_columns + np.arange(n_columns)
            candidate = resident[block_cells]
            candidate[np.arange(len(full))[:, None], columns[:, first + full].T] = False  # U stays
            ranked = np.where(candidate, keys[block_cells], excluded)
            most = int(over.max())
            smallest = np.sort(np.partition(ranked, most - 1, axis=1)[:, :most], axis=1)
            victims = ranked <= smallest[np.arange(len(full)), over - 1][:, None]
            resident[block_cells[victims]] = False
            size[full] = capacity
        hits[rows] = found.T
        chunk_streams = streams[rows[:n_streams]]
        for i in np.flatnonzero(np.isin(chunk_streams, final)).tolist():
            ids = np.unique(served[rows[stream == i]])
            kept = np.flatnonzero(resident[i * n_columns:(i + 1) * n_columns])
            residents[int(chunk_streams[i])] = tuple(ids[kept].tolist())
    return hits, residents


def _expert_ids(requests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, column_of): slot j of row i requests expert number
    ``column_of[ids[i, j]]`` among the ids present, in id order. Ids in
    [0, number of slots) are ranked through a table over [0, the largest],
    others by ``np.unique``; neither is sized by N."""
    if requests.min() >= 0 and requests.max() < requests.size:
        present = np.zeros(int(requests.max()) + 1, dtype=bool)
        present[requests] = True
        return requests, np.cumsum(present) - 1
    ids, inverse = np.unique(requests, return_inverse=True)
    return inverse.reshape(requests.shape), np.arange(len(ids))


def _stream_columns(experts: np.ndarray, stream: np.ndarray, n_streams: int, n_ids: int):
    """Each slot's column in its stream's row of a chunk's stamp array,
    slot-major int[W, rows], and the most columns a stream of the chunk
    needs. Row i is of stream ``stream[i]`` and requests the experts numbered
    ``experts[i]`` (below ``n_ids``); a stream's columns number its own
    experts, in the order of its sorted (stream, expert) pairs."""
    keys = (stream[:, None] * n_ids + experts).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys //= n_ids  # each sorted pair's stream
    pair_counts = np.bincount(keys[new], minlength=n_streams)
    columns = np.empty(len(keys), dtype=np.int64)
    columns[order] = np.cumsum(new) - 1 - (np.cumsum(pair_counts) - pair_counts)[keys]
    return np.ascontiguousarray(columns.reshape(experts.shape).T), int(pair_counts.max())


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """bool[rows, W]: in each row, sorted, whether a slot starts a run of
    equal experts; a row's count of them is its number of distinct ones.
    The sorted copy is freed on return, before the pass allocates."""
    ranked = np.sort(rows, axis=-1)
    new = np.ones(ranked.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new[:, 1:])
    return new


def _served_sets(slots: np.ndarray, new: np.ndarray, n_unique: np.ndarray):
    """Each row's distinct experts in the order ``simulate`` serves them
    (first request first, as ``dict.fromkeys``), int[rows, max |U|] padded by
    repeating the row's last one; and the position of every slot's expert in
    that order. ``new`` flags the first of each run in the sorted rows."""
    n, w = slots.shape
    order = np.argsort(slots, axis=-1, kind="stable")
    start = np.where(new, np.arange(w), 0)  # in sorted order: where each run starts
    np.maximum.accumulate(start, axis=-1, out=start)
    first = np.empty_like(order)  # the slot of each slot's expert's first request
    np.put_along_axis(first, order, np.take_along_axis(order, start, axis=-1), axis=-1)
    position = np.take_along_axis(np.cumsum(first == np.arange(w), axis=-1) - 1, first, axis=-1)
    served = np.empty((n, int(n_unique.max())), dtype=slots.dtype)
    np.put_along_axis(served, position, slots, axis=-1)  # a repeat writes the same expert
    last = np.minimum(np.arange(served.shape[1]), n_unique[:, None] - 1)
    return np.take_along_axis(served, last, axis=-1), position


def _array_simulate(trace: RoutingTrace, cfg: CacheConfig) -> SimReport | None:
    """``simulate``'s fault-free report from one array pass over its streams:
    the stamp pass for LRU, the policy pass for the others. None when
    ``cfg.capacity`` is below max_t |U_t| (LRU's inclusion fails, and a step
    may shed its own experts), or for LFU, FIFO and BELADY below
    ``_POLICY_STREAMS`` streams per step of the longest stream."""
    h = trace.header
    routes = trace.routes
    n_steps, n_layers, w = len(routes), h.n_moe_layers, h.batch_size * h.top_k
    s, t = trace.step_keys.T
    longest = max(trace.segment_lengths, default=0) if cfg.reset_each_segment else n_steps
    if cfg.policy != Policy.LRU and (
            n_steps * n_layers < _POLICY_STREAMS * max(longest, 1)
            or (longest + 1) * longest * w >= 2**63):  # the policy keys fit int64
        return None
    slots = routes.reshape(n_steps * n_layers, w)  # one row per (step, layer)
    new = _run_starts(slots)
    n_unique = new.sum(axis=-1)
    if cfg.capacity < n_unique.max(initial=0):
        return None
    served, position = (slots, None) if new.all() else _served_sets(slots, new, n_unique)
    if cfg.reset_each_segment:
        streams = (s[:, None] * n_layers + np.arange(n_layers)).ravel()
        steps = np.repeat(t, n_layers)
    else:
        streams = np.tile(np.arange(n_layers), n_steps)
        steps = np.repeat(np.arange(n_steps), n_layers)
    final = streams[-n_layers:].tolist() if n_steps else []  # each layer's last stream
    if cfg.policy == Policy.LRU:
        hits = _stack_depths(served, streams, steps, cfg.capacity) < cfg.capacity
    else:
        hits, residents = _policy_pass(served, n_unique, streams, steps, cfg.capacity,
                                       cfg.policy, final)
    if position is None:
        unique_hits = token_hits = hits.sum(axis=-1)
    else:
        unique_hits = (hits & (np.arange(hits.shape[1]) < n_unique[:, None])).sum(axis=-1)
        token_hits = np.take_along_axis(hits, position, axis=-1).sum(axis=-1)
    counts = np.empty((n_layers, n_steps, 4), dtype=np.int64)
    for field, values in enumerate((unique_hits, n_unique, token_hits)):
        counts[:, :, field] = values.reshape(n_steps, n_layers).T
    counts[:, :, 3] = w

    if cfg.policy != Policy.LRU:
        final_resident = tuple(map(residents.get, final)) if n_steps else ((),) * n_layers
        return SimReport(config=cfg, step_counts=counts, final_resident=final_resident)
    # Each layer's last stream, most recent first: its steps backwards, each
    # served set backwards.
    start = n_steps - int(t[-1]) - 1 if cfg.reset_each_segment and n_steps else 0
    final_resident = []
    last = served.reshape(n_steps, n_layers, served.shape[1])[start:, :, ::-1][::-1]
    for layer in range(n_layers):
        recent = last[:, layer].ravel()
        _, at = np.unique(recent, return_index=True)
        final_resident.append(tuple(sorted(recent[np.sort(at)[:cfg.capacity]].tolist())))
    return SimReport(config=cfg, step_counts=counts, final_resident=tuple(final_resident))


def lru_fetch_counts(trace: RoutingTrace, capacities) -> np.ndarray:
    """Per-step unique misses of fault-free LRU with request-level resets, at
    every capacity C >= K, from one stamp pass over every (layer, batch slot,
    segment) stream.

    Returns ``int[len(capacities), L, B, steps]``; entry ``[c, l, b, i]``
    equals ``simulate(...).unique_misses[l, i]`` at ``capacities[c]`` with
    ``reset_each_segment`` on the B=1 trace of slot b alone: each slot is its
    own cache, as the bound checks model it. Under serve-and-admit LRU with
    C >= K, the resident set after every step is the top C of the recency
    stack (inclusion; Mattson et al., 1970), so an expert misses at C exactly
    when its stack depth before the step is >= C (see :func:`_stack_depths`).

    Raises ValueError for no capacity or one below K, where inclusion does
    not hold and ``simulate`` is the counter, and for a row that
    :attr:`RoutingTrace.route_sets` refuses.
    """
    return lru_fetch_counts_each((trace,), (capacities,))[0]


def lru_fetch_counts_each(traces, capacities) -> list[np.ndarray]:
    """:func:`lru_fetch_counts` of each of ``traces`` at its own entry of
    ``capacities``, from one stamp pass over the streams of all of them.

    Rows of a smaller K are padded to the largest by repeating their last
    expert: a repeated request of the step's most recent expert changes no
    stack, and only the first K columns are counted.
    """
    traces, capacities = tuple(traces), tuple(map(tuple, capacities))
    if len(capacities) != len(traces):
        raise ValueError(f"{len(traces)} traces need as many capacity lists, "
                         f"got {len(capacities)}")
    if not traces:
        return []
    width = max(trace.header.top_k for trace in traces)
    effective, parts = [], []
    first_stream = 0
    for trace, caps in zip(traces, capacities):
        h = trace.header
        if not caps or min(caps) < h.top_k:
            raise ValueError(f"stack-distance counts need capacities >= K={h.top_k}, got {caps}")
        # A stack holds at most N experts, so a capacity above N misses as C = N does.
        effective.append(np.array([min(c, h.n_routed_experts) for c in caps], dtype=np.int64))
        per_step = h.n_moe_layers * h.batch_size
        rows = trace.route_sets.reshape(-1, h.top_k)
        if h.top_k < width:
            rows = np.concatenate((rows, np.repeat(rows[:, -1:], width - h.top_k, axis=1)), axis=1)
        s, t = trace.step_keys.T
        # Stream (segment, layer, slot), numbered after the previous traces'.
        parts.append((rows, (first_stream + s[:, None] * per_step + np.arange(per_step)).ravel(),
                      np.repeat(t, per_step)))
        first_stream += len(trace.segment_lengths) * per_step
    requests, streams, steps = (p[0] if len(p) == 1 else np.concatenate(p) for p in zip(*parts))
    depths = _stack_depths(requests, streams, steps, int(max(e.max() for e in effective)))
    counts = []
    row = 0
    for trace, (rows, _, _), cut_at in zip(traces, parts, effective):
        h = trace.header
        d = depths[row:row + len(rows), :h.top_k]
        d = d.reshape(-1, h.n_moe_layers, h.batch_size, h.top_k)
        counts.append(np.moveaxis((d >= cut_at[:, None, None, None, None]).sum(axis=-1), 1, -1))
        row += len(rows)
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
