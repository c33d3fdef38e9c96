"""Reference locality metrics: frozensets, one step pair at a time.

``sequence_sets`` groups the sorted records into (layer, batch, segment) set
streams by their keys, ``instantaneous_reuse`` intersects two frozensets, and
``eor``/``unique_experts_per_sequence``/``compute_metrics`` are built from
them with per-record loops. The library reads per-slot streams of the dense
layout (``RoutingTrace.stream``) and counts overlaps with
``gate.overlap_counts``; on a dense trace both must give bitwise equal
reports, which the differential tests check. Used only as a test oracle.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from moe_locality.metrics import (
    EorReport,
    MetricsReport,
    load_balance_cv,
    normalized_entropy,
)
from moe_locality.trace import RoutingTrace
from reference_trace import records


@dataclass(frozen=True)
class SequenceEor:
    layer: int
    batch: int
    segment: int
    value: float
    n_pairs: int


def sequence_sets(trace: RoutingTrace) -> dict[tuple[int, int, int], list[frozenset[int]]]:
    """Expert-set streams keyed by (layer, batch, segment), in step order."""
    seqs: dict[tuple[int, int, int], list[frozenset[int]]] = {}
    for rec in records(trace):  # records are sorted by (s, t, l, b)
        seqs.setdefault((rec.layer_id, rec.batch_index, rec.segment_id), []).append(
            rec.expert_set
        )
    return seqs


def instantaneous_reuse(prev_set, cur_set, k: int) -> float:
    """Fraction of the current Top-K set shared with the previous step's set."""
    prev_set, cur_set = frozenset(prev_set), frozenset(cur_set)
    if len(prev_set) != k or len(cur_set) != k:
        raise ValueError(
            f"both sets must have size K={k}, got {len(prev_set)} and {len(cur_set)}"
        )
    return len(cur_set & prev_set) / k


def eor(trace: RoutingTrace, pooled: bool = False) -> EorReport:
    k = trace.header.top_k
    per_sequence: list[SequenceEor] = []
    for (layer, batch, segment), sets in sorted(sequence_sets(trace).items()):
        if len(sets) < 2:
            continue
        irs = [instantaneous_reuse(sets[i - 1], sets[i], k) for i in range(1, len(sets))]
        per_sequence.append(
            SequenceEor(layer, batch, segment, float(np.mean(irs)), len(irs))
        )
    if not per_sequence:
        raise ValueError("EOR undefined: no sequence has length >= 2")
    layers = sorted({s.layer for s in per_sequence})
    if pooled:
        def agg(seqs):
            pairs = sum(s.n_pairs for s in seqs)
            return sum(s.value * s.n_pairs for s in seqs) / pairs
    else:
        def agg(seqs):
            return float(np.mean([s.value for s in seqs]))
    per_layer = tuple(agg([s for s in per_sequence if s.layer == layer]) for layer in layers)
    h = trace.header
    values = np.full((h.n_moe_layers, h.batch_size, len(trace.segment_lengths)), np.nan)
    for s in per_sequence:
        values[s.layer, s.batch, s.segment] = s.value
    return EorReport(overall=agg(per_sequence), per_layer=per_layer, per_sequence=values)


def unique_experts_per_sequence(trace: RoutingTrace) -> float:
    sizes = [
        len(frozenset().union(*sets)) for sets in sequence_sets(trace).values()
    ]
    if not sizes:
        raise ValueError("trace has no records")
    return float(np.mean(sizes))


def load_counts(trace: RoutingTrace) -> np.ndarray:
    """int[L, N]: how often each layer routed each expert, one slot at a time."""
    h = trace.header
    counts = np.zeros((h.n_moe_layers, h.n_routed_experts), dtype=np.int64)
    for rec in records(trace):
        for e in rec.topk_indices:
            counts[rec.layer_id, e] += 1
    return counts


def compute_metrics(trace: RoutingTrace, pooled: bool = False) -> MetricsReport:
    h = trace.header
    eor_report = eor(trace, pooled=pooled)
    entropy_norm = None
    if h.has_probs:
        vals = [normalized_entropy(r.probs) for r in records(trace) if r.probs is not None]
        entropy_norm = float(np.mean(vals)) if vals else None
    counts = load_counts(trace)
    cvs = [load_balance_cv(counts[layer]) for layer in range(h.n_moe_layers)]
    return MetricsReport(
        eor=eor_report.overall,
        mean_ir_per_layer=eor_report.per_layer,
        entropy_norm=entropy_norm,
        load_cv=float(np.mean(cvs)),
        unique_experts_per_sequence=unique_experts_per_sequence(trace),
    )
