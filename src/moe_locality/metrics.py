"""Routing-locality and concentration metrics over a trace.

The step-to-step overlap |E_t ∩ E_{t-1}| / K is the instantaneous reuse, with
the overlap counted by :func:`moe_locality.gate.overlap_counts`; its mean over
a decoding sequence is the expert overlap ratio (EOR), the headline locality
statistic. One *sequence* is the set stream of a fixed (layer, batch,
segment) triple, read from ``RoutingTrace.route_sets``, so a trace that is
not dense raises KeyError and a row that is not a set of K experts raises
ValueError. Also provided: normalized routing entropy, load-balance
coefficient of variation, and unique experts per sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gate import overlap_counts
from .trace import RoutingTrace

# compute_metrics counts each layer's routed slots in a dense length-N array
# when L x N is at most this many cells, or no more than the trace has slots.
_DENSE_COUNTS = 1 << 16
# compute_metrics takes the entropy of this many probabilities at a time, so
# its temporaries stay small beside the trace.
_ENTROPY_CELLS = 1 << 14

__all__ = [
    "MetricsReport",
    "EorReport",
    "SequenceEor",
    "eor",
    "normalized_entropy",
    "load_balance_cv",
    "unique_experts_per_sequence",
    "compute_metrics",
]


@dataclass(frozen=True)
class SequenceEor:
    layer: int
    batch: int
    segment: int
    value: float
    n_pairs: int


@dataclass(frozen=True)
class EorReport:
    overall: float
    per_layer: tuple[float, ...]
    per_sequence: tuple[SequenceEor, ...]


@dataclass(frozen=True)
class MetricsReport:
    eor: float
    mean_ir_per_layer: tuple[float, ...]
    entropy_norm: float | None  # None when the trace carries no distributions
    load_cv: float
    unique_experts_per_sequence: float


def eor(trace: RoutingTrace, pooled: bool = False) -> EorReport:
    """Mean instantaneous reuse per sequence, per layer, and overall.

    The overall value is the unweighted mean over per-sequence EORs; with
    ``pooled`` it is instead the mean over all adjacent step pairs of the
    whole trace. Length-1 segments contribute nothing; a trace with no pair
    at all is an error.
    """
    h = trace.header
    offsets = trace.segment_offsets
    # [l, b, i] pairs steps i and i+1 of slot (l, b)
    reuse = overlap_counts(np.moveaxis(trace.route_sets, 0, 2)) / h.top_k
    per_sequence: list[SequenceEor] = []
    for layer in range(h.n_moe_layers):
        for batch in range(h.batch_size):
            for segment, length in enumerate(trace.segment_lengths):
                if length >= 2:
                    irs = reuse[layer, batch, offsets[segment] : offsets[segment] + length - 1]
                    per_sequence.append(
                        SequenceEor(layer, batch, segment, float(np.mean(irs)), length - 1)
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
    return EorReport(
        overall=agg(per_sequence),
        per_layer=per_layer,
        per_sequence=tuple(per_sequence),
    )


def normalized_entropy(p) -> float:
    """Shannon entropy of a distribution divided by ln(N_r), with 0·log 0 = 0."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need a distribution over at least 2 experts")
    if np.any(p < 0):
        raise ValueError("negative probability entry")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    nz = p[p > 0]
    h = -float(np.sum(nz * np.log(nz)))
    return h / math.log(p.size)


def _row_entropies(probs: np.ndarray) -> np.ndarray:
    """:func:`normalized_entropy` of each row of ``probs``, bit for bit. In
    blocks of about ``_ENTROPY_CELLS`` entries, the rows whose entries are all
    > 0 and sum to 1 (its checks, as row arrays) take one array expression;
    every other row, with a zero, a NaN or a failing check, takes the call,
    in row order, so the first bad row raises its message."""
    n = probs.shape[1]
    values = np.empty(len(probs))
    step = max(1, _ENTROPY_CELLS // n)
    for lo in range(0, len(probs), step):
        block = probs[lo:lo + step]
        clean = (block > 0).all(axis=1) & (np.abs(block.sum(axis=1) - 1.0) <= 1e-9) & (n >= 2)
        p = block[clean]
        terms = np.log(p)
        terms *= p
        values[lo:lo + step][clean] = -terms.sum(axis=1) / math.log(n)
        for row in np.flatnonzero(~clean).tolist():
            values[lo + row] = normalized_entropy(block[row])
    return values


def load_balance_cv(selection_counts) -> float:
    """Population std of per-expert selection counts divided by their mean."""
    counts = np.asarray(selection_counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("selection counts are all zero")
    mean = counts.mean()
    return float(np.sqrt(np.mean((counts - mean) ** 2)) / mean)


def _sparse_cv(ids: np.ndarray, n: int) -> float:
    """:func:`load_balance_cv` of the per-expert counts of ``ids`` over ``n``
    experts, in closed form over the ids present: the n - m absent experts
    each add mean**2 to the squared deviations. Equal to it up to rounding."""
    counts = np.unique(ids, return_counts=True)[1]
    mean = counts.sum() / n
    squares = float(np.sum((counts - mean) ** 2)) + (n - len(counts)) * mean**2
    return math.sqrt(squares / n) / mean


def unique_experts_per_sequence(trace: RoutingTrace) -> float:
    """Mean |union of routed sets| across (layer, batch, segment) sequences."""
    offsets = trace.segment_offsets
    sets = trace.route_sets
    sizes = [
        len(set(sets[offsets[segment] : offsets[segment + 1], layer, batch].ravel().tolist()))
        for layer in range(trace.header.n_moe_layers)
        for batch in range(trace.header.batch_size)
        for segment, length in enumerate(trace.segment_lengths)
        if length >= 1
    ]
    if not sizes:
        raise ValueError("trace has no records")
    return float(np.mean(sizes))


def compute_metrics(trace: RoutingTrace, pooled: bool = False) -> MetricsReport:
    """Full metric report for one trace.

    Entropy is the mean over all records of H(P)/ln N_r and is reported as
    None ("unavailable") for index-only traces rather than fabricated. The CV
    uses token-level per-expert routed-slot counts per layer over the whole
    trace, averaged across layers.
    """
    h = trace.header
    eor_report = eor(trace, pooled=pooled)

    entropy_norm = None
    if h.has_probs and trace.n_records:
        entropy_norm = float(np.mean(_row_entropies(trace.probs)))

    sets = trace.route_sets
    if h.n_moe_layers * h.n_routed_experts <= max(trace.topk.size, _DENSE_COUNTS):
        cvs = [load_balance_cv(np.bincount(sets[:, layer].ravel(), minlength=h.n_routed_experts))
               for layer in range(h.n_moe_layers)]
    else:  # the header's N, not the trace, would size the count matrix
        cvs = [_sparse_cv(sets[:, layer], h.n_routed_experts) for layer in range(h.n_moe_layers)]

    return MetricsReport(
        eor=eor_report.overall,
        mean_ir_per_layer=eor_report.per_layer,
        entropy_norm=entropy_norm,
        load_cv=float(np.mean(cvs)),
        unique_experts_per_sequence=unique_experts_per_sequence(trace),
    )
