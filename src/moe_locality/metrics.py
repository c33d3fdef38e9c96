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
from dataclasses import dataclass, field

import numpy as np

from .cache_sim import _run_starts
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
    "eor",
    "normalized_entropy",
    "load_balance_cv",
    "unique_experts_per_sequence",
    "compute_metrics",
]


@dataclass(frozen=True)
class EorReport:
    overall: float
    per_layer: tuple[float, ...]
    # float[L, B, segments]: each sequence's EOR, NaN for a segment of under two steps
    per_sequence: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class MetricsReport:
    eor: float
    mean_ir_per_layer: tuple[float, ...]
    entropy_norm: float | None  # None when the trace carries no distributions
    load_cv: float
    unique_experts_per_sequence: float


def _length_groups(trace: RoutingTrace, shortest: int):
    """(segments, their first step ordinals, their length) for each length
    of at least ``shortest`` that a segment of ``trace`` has, shortest first.
    Not ``np.unique``, whose first call imports ``numpy.ma`` (about 1 MB)."""
    offsets = np.array(trace.segment_offsets)
    lengths = np.diff(offsets)
    for length in sorted(set(lengths[lengths >= shortest].tolist())):
        segments = np.flatnonzero(lengths == length)
        yield segments, offsets[segments], length


def eor(trace: RoutingTrace, pooled: bool = False) -> EorReport:
    """Mean instantaneous reuse per sequence, per layer, and overall.

    The overall value is the unweighted mean over per-sequence EORs; with
    ``pooled`` it is instead the mean over all adjacent step pairs of the
    whole trace. Length-1 segments contribute nothing; a trace with no pair
    at all is an error. A sequence's EOR is one row mean over a C-contiguous
    gather of its segment-length group, so it sums its pairs as ``np.mean``
    of the sequence alone does.
    """
    h = trace.header
    # [l, b, i] pairs steps i and i+1 of slot (l, b)
    reuse = overlap_counts(np.moveaxis(trace.route_sets, 0, 2)) / h.top_k
    lengths = np.array(trace.segment_lengths, dtype=np.int64)
    values = np.full((h.n_moe_layers, h.batch_size, len(lengths)), np.nan)
    for segments, starts, length in _length_groups(trace, 2):
        pairs = reuse[:, :, starts[:, None] + np.arange(length - 1)]
        values[:, :, segments] = np.ascontiguousarray(pairs).mean(axis=-1)
    kept = lengths >= 2
    if not kept.any():
        raise ValueError("EOR undefined: no sequence has length >= 2")
    n_pairs = (lengths[kept] - 1).tolist()
    if pooled:
        def agg(seqs):
            pairs = n_pairs * (seqs.size // len(n_pairs))
            return sum(v * n for v, n in zip(seqs.ravel().tolist(), pairs)) / sum(pairs)
    else:
        def agg(seqs):
            return float(np.mean(seqs.ravel()))
    sequences = values[:, :, kept]  # in (layer, batch, segment) order
    return EorReport(
        overall=agg(sequences),
        per_layer=tuple(agg(layer) for layer in sequences),
        per_sequence=values,
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
    """Mean |union of routed sets| across (layer, batch, segment) sequences,
    counted as run starts in one sort per segment-length group."""
    sizes = []
    for _segments, starts, length in _length_groups(trace, 1):
        rows = trace.route_sets[starts[:, None] + np.arange(length)]  # [segments, length, L, B, K]
        rows = np.moveaxis(rows, 1, -2).reshape(-1, length * trace.header.top_k)
        sizes.append(_run_starts(rows).sum(axis=-1))
    if not sizes:
        raise ValueError("trace has no records")
    return float(np.mean(np.concatenate(sizes)))


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
