"""Naive set-based reference implementation of the expert-cache semantics.

Deliberately independent of the package's simulator: state is a plain list of
(expert, last_touch, admitted_at, freq) tuples and every eviction decision is
made by a full scan. BELADY recomputes the farthest next use by searching the
raw future request list. Used only as a test oracle on tiny traces.

Below it is the package's previous simulator (per-expert timestamp state,
one keyed record lookup per step and batch item), the oracle for
whole-report equality. Both find records by key in a dict of their own
(``records_by_key``), not through the package's dense-layout reader.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace

import numpy as np

from moe_locality.bounds import BoundReport, SequenceBound, StepBoundRecord
from moe_locality.cache_sim import (
    CacheConfig,
    FaultKind,
    FaultScenario,
    LayerTotals,
    Policy,
    SimReport,
    StepEvent,
    _percentile_summary,
    reroute_topk,
    simulate,
)
from moe_locality.gate import overlap_counts
from moe_locality.trace import RoutingTrace, SynthConfig, TraceHeader, synth_trace
from reference_trace import StepRecord, from_records, records


def records_by_key(trace: RoutingTrace) -> dict:
    """(segment, step, layer, batch) -> record."""
    return {r.key: r for r in records(trace)}


def ordered_unique(xs):
    out = []
    for x in xs:
        if x not in out:
            out.append(x)
    return out


class NaiveLayerSim:
    def __init__(self, capacity, policy):
        self.capacity = capacity
        self.policy = policy
        self.entries = []  # [expert, last_touch, admitted_at, freq]
        self.clock = 0

    def reset(self):
        self.entries = []

    def resident_set(self):
        return {e[0] for e in self.entries}

    def _find(self, expert):
        for entry in self.entries:
            if entry[0] == expert:
                return entry
        return None

    def serve(self, slots, future_uniques=None):
        """One step; returns (token_hits, unique_hits, unique_list, evicted)."""
        uniq = ordered_unique(slots)
        resident_before = self.resident_set()
        token_hits = sum(1 for e in slots if e in resident_before)
        unique_hits = sum(1 for e in uniq if e in resident_before)

        for e in uniq:
            self.clock += 1
            entry = self._find(e)
            if entry is None:
                self.entries.append([e, self.clock, self.clock, 1])
            else:
                entry[1] = self.clock
                entry[3] += 1

        evicted = []
        surplus = 0
        while len(self.entries) > self.capacity:
            candidates = [en for en in self.entries if en[0] not in uniq]
            if candidates:
                victim = self._pick(candidates, future_uniques)
            else:
                victim = self._find(uniq[surplus])
                surplus += 1
            self.entries.remove(victim)
            evicted.append(victim[0])
        return token_hits, unique_hits, uniq, evicted

    def _pick(self, candidates, future_uniques):
        if self.policy == "lru":
            return min(candidates, key=lambda en: en[1])
        if self.policy == "fifo":
            return min(candidates, key=lambda en: en[2])
        if self.policy == "lfu":
            return min(candidates, key=lambda en: (en[3], en[1], en[0]))
        if self.policy == "belady":
            def horizon(en):
                for i, uniq in enumerate(future_uniques):
                    if en[0] in uniq:
                        return i
                return float("inf")
            # Farthest next use first (inf counts as farthest), ties lowest id.
            return min(candidates, key=lambda en: (-horizon(en), en[0]))
        raise ValueError(self.policy)


def naive_simulate(trace, capacity, policy, reset_each_segment):
    """Full-trace reference run; returns per-step stats, events, final sets."""
    header = trace.header
    stats = []
    events = []
    final_resident = []
    by_key = records_by_key(trace)
    for layer in range(header.n_moe_layers):
        sim = NaiveLayerSim(capacity, policy)
        steps = []
        for s, t in trace.iter_steps():
            slots = []
            for b in range(header.batch_size):
                slots.extend(by_key[(s, t, layer, b)].topk_indices)
            steps.append((s, t, slots))
        prev_segment = None
        for i, (s, t, slots) in enumerate(steps):
            if reset_each_segment and s != prev_segment:
                sim.reset()
            prev_segment = s
            if policy == "belady":
                future = [
                    ordered_unique(sl)
                    for (s2, _t2, sl) in steps[i + 1 :]
                    if not reset_each_segment or s2 == s
                ]
            else:
                future = None
            resident_before = sorted(sim.resident_set())
            token_hits, unique_hits, uniq, evicted = sim.serve(slots, future)
            stats.append(
                {
                    "layer": layer,
                    "segment": s,
                    "step": t,
                    "token_hits": token_hits,
                    "token_total": len(slots),
                    "unique_hits": unique_hits,
                    "unique_total": len(uniq),
                }
            )
            events.append(
                {
                    "layer": layer,
                    "segment": s,
                    "step": t,
                    "resident_before": tuple(resident_before),
                    "evicted": tuple(evicted),
                }
            )
        final_resident.append(tuple(sorted(sim.resident_set())))
    return stats, events, final_resident


# ---------------------------------------------------------------------------
# The keyed-lookup simulator and bound-check collection, kept as a
# differential oracle for ``moe_locality.cache_sim.simulate``, the bound
# checks' per-slot records and ``RoutingTrace.batch_slot``.
# ``LayerCacheState`` keeps timestamps and counters per resident expert and
# every victim is a ``min`` over the candidates; requests are read with one
# keyed lookup per (step, batch item). It returns the package's own report
# types so whole reports compare with ``==``.
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
    by_key = records_by_key(trace)
    out = []
    for s, t in trace.iter_steps():
        slots: list[int] = []
        for b in range(h.batch_size):
            slots.extend(by_key[(s, t, layer, b)].topk_indices)
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


def step_rows(trace: RoutingTrace, report: SimReport) -> list[tuple[int, ...]]:
    """(layer, segment, step, unique_hits, unique_total, token_hits,
    token_total) per layer and step, layer-major: ``report.step_counts`` as
    labelled rows."""
    steps = list(trace.iter_steps())
    return [
        (layer, s, t, *counts)
        for layer, rows in enumerate(report.step_counts.tolist())
        for (s, t), counts in zip(steps, rows)
    ]


def reference_simulate(trace: RoutingTrace, cfg: CacheConfig, record_events: bool = False) -> SimReport:
    """The per-step keyed-lookup simulator: same contract as ``simulate``."""
    return reference_simulate_with_totals(trace, cfg, record_events)[0]


def reference_simulate_with_totals(
    trace: RoutingTrace, cfg: CacheConfig, record_events: bool = False
) -> tuple[SimReport, dict]:
    """:func:`reference_simulate`'s report, and the values ``SimReport``
    derives from its counts (``per_layer``, ``overall``,
    ``step_unique_miss_series``, ``miss_percentiles``) summed here on their own."""
    h = trace.header
    if cfg.reroute_beta is not None and not h.has_probs:
        raise ValueError("rerouting requires a trace with routing distributions")
    if cfg.reroute_beta is not None and cfg.policy == Policy.BELADY:
        raise ValueError("BELADY needs the future request stream, which rerouting changes")
    if cfg.scenario is not None and cfg.policy == Policy.BELADY:
        raise ValueError("fault injection is only supported with online policies")

    rng = np.random.default_rng(cfg.scenario.seed) if cfg.scenario is not None else None
    reroute = cfg.reroute_beta is not None
    by_key = records_by_key(trace)

    layer_requests = {
        layer: _layer_requests(trace, layer) for layer in range(h.n_moe_layers)
    }
    occurrences = None
    if cfg.policy == Policy.BELADY:
        occurrences = {
            layer: _occurrence_index(reqs, within_segment=cfg.reset_each_segment)
            for layer, reqs in layer_requests.items()
        }

    counted: list[tuple[int, ...]] = []  # (layer, s, t, uh, ut, th, tt)
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
                    rec = by_key[(s, t, layer, b)]
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

            counted.append((layer, s, t, unique_hits, len(uniq), token_hits, len(slots)))
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
        rows = [row for row in counted if row[0] == layer]
        per_layer.append(
            LayerTotals(
                layer=layer,
                unique_hits=sum(row[3] for row in rows),
                unique_total=sum(row[4] for row in rows),
                token_hits=sum(row[5] for row in rows),
                token_total=sum(row[6] for row in rows),
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
        rerouted_trace = from_records(
            rerouted_header,
            [StepRecord(r.segment_id, r.step_index, r.layer_id, r.batch_index, r.topk_indices)
             for r in rerouted_records],
        )

    counts = np.array([row[3:] for row in counted], dtype=np.int64)
    report = SimReport(
        config=cfg,
        step_counts=counts.reshape(h.n_moe_layers, len(miss_series), 4),
        final_resident=tuple(final_resident),
        events=tuple(events),
        rerouted_trace=rerouted_trace,
    )
    totals = {
        "per_layer": tuple(per_layer),
        "overall": overall,
        "step_unique_miss_series": miss_series,
        "miss_percentiles": _percentile_summary(miss_series),
    }
    return report, totals


def reference_slice_batch(trace: RoutingTrace, batch_index: int) -> RoutingTrace:
    """Extract one batch slot as a standalone B=1 trace by filtering on the
    batch index and re-sorting."""
    if not 0 <= batch_index < trace.header.batch_size:
        raise ValueError(f"batch_index {batch_index} out of range")
    header = replace(trace.header, batch_size=1)
    slot = [replace(r, batch_index=0) for r in records(trace) if r.batch_index == batch_index]
    return from_records(header, slot)


def reference_collect_step_records(
    trace: RoutingTrace, cfg: CacheConfig, working_set: bool, batch: int = 0
) -> tuple[list[StepBoundRecord], list[SequenceBound]]:
    """Per-step fetch counts vs. bounds for one B=1 trace under ``cfg``,
    labelled with batch slot ``batch``."""
    k = trace.header.top_k
    record = records_by_key(trace)
    report = reference_simulate(trace, cfg, record_events=True)
    by_key = {(ev.layer, ev.segment, ev.step): ev for ev in report.events}
    fetch = {
        (layer, s, t): ut - uh for layer, s, t, uh, ut, _th, _tt in step_rows(trace, report)
    }

    step_records: list[StepBoundRecord] = []
    seq_records: list[SequenceBound] = []
    for layer in range(trace.header.n_moe_layers):
        for segment, length in enumerate(trace.segment_lengths):
            sets = [record[(segment, t, layer, 0)].expert_set for t in range(length)]
            total_fetch = 0
            total_bound = 0
            for t in range(1, length):
                # Exact integer form of K * (1 - IR_t).
                bound = k - len(sets[t] & sets[t - 1])
                n_fetch = fetch[(layer, segment, t)]
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
                flagged = violated or bool(ws_violated)
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
                        resident_before=(
                            by_key[(layer, segment, t)].resident_before if flagged else None
                        ),
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
    return step_records, seq_records


# ---------------------------------------------------------------------------
# The bound checks as they were with one ``simulate`` per capacity, kept as
# the oracle for ``moe_locality.bounds``'s single stack pass over all
# capacities: the package's previous ``_collect_step_records`` (fetch counts
# from ``simulate(...).unique_misses``), ``_check`` per capacity and the
# per-capacity campaign loop.
# ---------------------------------------------------------------------------


def simulate_collect_step_records(
    trace: RoutingTrace, cfg: CacheConfig, working_set: bool, batch: int = 0
) -> tuple[list[StepBoundRecord], list[SequenceBound]]:
    """Per-step fetch counts vs. bounds for one B=1 trace under ``cfg``,
    counted by ``simulate`` and read from ``unique_misses`` by position."""
    h = trace.header
    k = h.top_k
    misses = simulate(trace, cfg).unique_misses.ravel().tolist()
    offsets = trace.segment_offsets
    n_steps = offsets[-1]

    per_step: list[StepBoundRecord] = []
    per_sequence: list[SequenceBound] = []
    flagged: list[tuple[int, int]] = []
    for layer in range(h.n_moe_layers):
        rows = trace.expert_rows(layer, 0)
        pair_bounds = (k - overlap_counts(rows)).tolist()
        for segment, length in enumerate(trace.segment_lengths):
            start = offsets[segment]
            if working_set:
                sets = [frozenset(row) for row in rows[start : start + length].tolist()]
            total_fetch = 0
            total_bound = 0
            for t in range(1, length):
                bound = pair_bounds[start + t - 1]
                ordinal = layer * n_steps + start + t
                n_fetch = misses[ordinal]
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


def reference_check(
    trace: RoutingTrace, capacity: int, working_set: bool,
    collect=reference_collect_step_records,
) -> BoundReport:
    """``check_step_bound`` / ``check_working_set_bound`` at one capacity,
    each batch slot collected by ``collect``."""
    k = trace.header.top_k
    if capacity < k:
        raise ValueError(f"bound checks require C >= K (got C={capacity}, K={k})")
    cfg = CacheConfig(capacity=capacity, policy=Policy.LRU, reset_each_segment=True)
    step_records: list[StepBoundRecord] = []
    seq_records: list[SequenceBound] = []
    for b in range(trace.header.batch_size):
        steps, seqs = collect(reference_slice_batch(trace, b), cfg, working_set, b)
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


def reference_campaign_configs(n_traces: int, seed: int) -> list[SynthConfig]:
    """The synthetic trace configs ``run_campaign(n_traces, seed)`` draws."""
    rng = np.random.default_rng(seed)
    return [
        SynthConfig(
            n_moe_layers=1,
            n_routed_experts=int(rng.integers(8, 33)),
            top_k=int(rng.integers(2, 7)),
            batch_size=1,
            n_segments=int(rng.integers(1, 4)),
            steps_per_segment=int(rng.integers(2, 25)),
            stickiness=float(rng.random()),
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        for _ in range(n_traces)
    ]


def reference_tally(trace: RoutingTrace, capacities, working_set: bool) -> tuple[int, int]:
    """(checks, violations) of one full bound report per capacity, through
    :func:`reference_check` with the ``simulate``-based collection."""
    checked = violated = 0
    for cap in capacities:
        report = reference_check(trace, cap, working_set, simulate_collect_step_records)
        checked += len(report.step_records) + len(report.sequence_records)
        violated += report.n_violations
    return checked, violated


def reference_run_campaign(n_traces: int, seed: int, working_set: bool = False) -> dict:
    """``run_campaign`` as one full bound report per trace and capacity."""
    checked = violated = 0
    for cfg in reference_campaign_configs(n_traces, seed):
        k = cfg.top_k
        caps = (2 * k,) if working_set else (k, k + 2, 2 * k)
        checks, violations = reference_tally(synth_trace(cfg), caps, working_set)
        checked += checks
        violated += violations
    return {
        "kind": "working_set" if working_set else "step",
        "n_traces": n_traces,
        "seed": seed,
        "checks": checked,
        "violations": violated,
    }
