"""Routing-trace data model, JSONL on-disk format, validation, and a synthetic generator.

A routing trace records which experts a Mixture-of-Experts router selected at
every decode step. Records are keyed by (segment, step, layer, batch): a
*segment* is one request/decoding session, *step* is the 0-based decode step
within the segment, *layer* is the 0-based MoE-layer index, and *batch* is the
0-based batch slot. Each record carries the Top-K expert index list and,
optionally, the full routing distribution over all routed experts.

Expert ids are 0-based everywhere in this package (storage included), even
though much of the literature indexes experts from 1.

On-disk format (UTF-8, one JSON object per line):

    {"type":"header","n_moe_layers":L,"n_routed_experts":N,"top_k":K,"batch_size":B,"has_probs":bool}
    {"s":0,"t":0,"l":0,"b":0,"topk":[3,17,...],"probs":[...]}   # probs only when has_probs
    ...

Probabilities are serialized with 17 significant digits so that
``parse_trace(write_trace(x)) == x`` holds bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import compress
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .gate import topk, topk_rows

PROB_SUM_TOL = 1e-9

__all__ = [
    "PROB_SUM_TOL",
    "TraceError",
    "Violation",
    "TraceHeader",
    "StepRecord",
    "RoutingTrace",
    "SynthConfig",
    "parse_trace",
    "write_trace",
    "load_trace",
    "save_trace",
    "synth_trace",
    "validate_trace",
]


class TraceError(ValueError):
    """Raised for malformed or internally inconsistent trace input.

    ``line_no`` is the 1-based input line when the failure is tied to a
    specific line, else None. ``violations`` carries the structured findings
    when the failure came from full-trace validation.
    """

    def __init__(self, message, line_no=None, violations=()):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
        self.violations = tuple(violations)


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by :func:`validate_trace`."""

    rule: str
    where: str
    message: str

    def __str__(self):
        return f"[{self.rule}] {self.where}: {self.message}"


@dataclass(frozen=True)
class TraceHeader:
    n_moe_layers: int
    n_routed_experts: int
    top_k: int
    batch_size: int
    has_probs: bool = False

    def __post_init__(self):
        for name in ("n_moe_layers", "n_routed_experts", "top_k", "batch_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.top_k > self.n_routed_experts:
            raise ValueError(
                f"top_k ({self.top_k}) exceeds n_routed_experts ({self.n_routed_experts})"
            )


@dataclass(frozen=True)
class StepRecord:
    """One routing decision. Cross-record invariants are checked by validate_trace,
    not here, so that invalid traces can be constructed and then diagnosed."""

    segment_id: int
    step_index: int
    layer_id: int
    batch_index: int
    topk_indices: tuple[int, ...]
    probs: tuple[float, ...] | None = None

    @property
    def key(self):
        return (self.segment_id, self.step_index, self.layer_id, self.batch_index)

    @property
    def expert_set(self) -> frozenset[int]:
        return frozenset(self.topk_indices)


@dataclass(frozen=True)
class RoutingTrace:
    header: TraceHeader
    records: tuple[StepRecord, ...]
    segment_lengths: tuple[int, ...]

    @classmethod
    def from_records(cls, header: TraceHeader, records: Iterable[StepRecord]) -> "RoutingTrace":
        """Build a trace with normalized ordering and derived segment lengths."""
        recs = tuple(sorted(records, key=lambda r: r.key))
        seg_len: dict[int, int] = {}
        for r in recs:
            seg_len[r.segment_id] = max(seg_len.get(r.segment_id, 0), r.step_index + 1)
        n_seg = max(seg_len) + 1 if seg_len else 0
        lengths = tuple(seg_len.get(s, 0) for s in range(n_seg))
        return cls(header=header, records=recs, segment_lengths=lengths)

    @property
    def n_segments(self) -> int:
        return len(self.segment_lengths)

    @cached_property
    def segment_offsets(self) -> tuple[int, ...]:
        """First global step index of each segment, plus the total step count."""
        offsets = [0]
        for length in self.segment_lengths:
            offsets.append(offsets[-1] + length)
        return tuple(offsets)

    def stream(self, layer: int, batch: int) -> tuple[StepRecord, ...]:
        """The records of one (layer, batch) slot, one per step in trace order.

        A dense sorted trace keeps them at ``records[layer*B + batch :: L*B]``;
        this is the one place that reads that layout. Every record's key is
        checked against the step it stands for, so a trace that is not dense
        (a key missing, repeated or out of place) raises KeyError.
        """
        h = self.header
        stride = h.n_moe_layers * h.batch_size
        n_steps = self.segment_offsets[-1]
        if len(self.records) != n_steps * stride:
            raise KeyError(
                f"trace is not dense: {len(self.records)} records for {n_steps} steps "
                f"x {h.n_moe_layers} layers x {h.batch_size} batch items"
            )
        column = self.records[layer * h.batch_size + batch :: stride]
        for (s, t), rec in zip(self.iter_steps(), column):
            if (rec.step_index != t or rec.segment_id != s or rec.layer_id != layer
                    or rec.batch_index != batch):
                raise KeyError(f"trace is not dense at {(s, t, layer, batch)}")
        return column

    def expert_rows(self, layer: int, batch: int) -> np.ndarray:
        """The Top-K sets of :meth:`stream` as one int[steps, K] array.

        Raises ValueError unless every set holds K distinct experts in
        [0, N), so that overlaps counted over the rows are set intersections.
        """
        h = self.header
        stream = self.stream(layer, batch)
        try:
            rows = np.array([r.topk_indices for r in stream], dtype=np.int64)
            rows = rows.reshape(len(stream), h.top_k)
        except ValueError:  # ragged rows or a row of another length
            rows = None
        # Sorted, a set of K experts in [0, N) rises strictly from >= 0 to < N.
        ranked = None if rows is None else np.sort(rows, axis=1)
        if (ranked is None or not (ranked[:, 1:] > ranked[:, :-1]).all()
                or not (ranked[:, :1] >= 0).all()
                or not (ranked[:, -1:] < h.n_routed_experts).all()):
            raise ValueError(
                f"every Top-K set of layer {layer}, batch {batch} must be a set of "
                f"size K={h.top_k} of experts in [0, {h.n_routed_experts})"
            )
        return rows

    def batch_slot(self, batch: int) -> "RoutingTrace":
        """Batch slot ``batch`` of a dense sorted trace as a standalone B=1 trace.

        The slot's records are ``records[batch::B]``; a record of another slot
        among them means the trace is not dense (a key missing or repeated), so
        it raises KeyError rather than check one slot's routing as another's.
        """
        h = self.header
        if h.batch_size == 1:
            return self
        records = self.records[batch :: h.batch_size]
        if any(rec.batch_index != batch for rec in records):
            raise KeyError(f"trace is not dense in batch slot {batch}")
        return RoutingTrace(
            header=replace(h, batch_size=1),
            records=tuple(
                StepRecord(r.segment_id, r.step_index, r.layer_id, 0, r.topk_indices, r.probs)
                for r in records
            ),
            segment_lengths=self.segment_lengths,
        )

    def iter_steps(self) -> Iterator[tuple[int, int]]:
        """All (segment, step) pairs in order."""
        for s, length in enumerate(self.segment_lengths):
            for t in range(length):
                yield s, t


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------


def _iter_lines(stream) -> Iterator[bytes]:
    if isinstance(stream, (bytes, bytearray)):
        yield from stream.splitlines()
    else:
        yield from stream


def _parse_header(obj, line_no) -> TraceHeader:
    if obj.get("type") != "header":
        raise TraceError('first line must be a {"type":"header",...} record', line_no)
    has_probs = obj.get("has_probs", False)
    if type(has_probs) is not bool:
        raise TraceError(f"header field 'has_probs' must be true or false, got {has_probs!r}",
                         line_no)
    try:
        return TraceHeader(
            n_moe_layers=obj["n_moe_layers"],
            n_routed_experts=obj["n_routed_experts"],
            top_k=obj["top_k"],
            batch_size=obj["batch_size"],
            has_probs=has_probs,
        )
    except KeyError as e:
        raise TraceError(f"header missing field {e.args[0]!r}", line_no) from None
    except ValueError as e:
        raise TraceError(str(e), line_no) from None


_INTS = frozenset((int,))
_NUMBERS = frozenset((int, float))


def _parse_record(obj, line_no, has_probs) -> StepRecord:
    """One record line's fields, each checked against its JSON type; json.loads
    yields exact types, so ``type(x) is int`` also refuses true and false."""
    try:
        s, t, l, b = obj["s"], obj["t"], obj["l"], obj["b"]
        topk = obj["topk"]
    except KeyError as e:
        raise TraceError(f"record missing field {e.args[0]!r}", line_no) from None
    for name, v in (("s", s), ("t", t), ("l", l), ("b", b)):
        if type(v) is not int or v < 0:
            raise TraceError(f"field {name!r} must be a non-negative integer, got {v!r}", line_no)
    if type(topk) is not list or not _INTS.issuperset(map(type, topk)):
        raise TraceError("field 'topk' must be a list of integers", line_no)
    probs = obj.get("probs")
    if (probs is not None) != has_probs:
        if has_probs:
            raise TraceError("header declares has_probs but record carries no 'probs'", line_no)
        raise TraceError("record carries 'probs' but header declares has_probs=false", line_no)
    if probs is not None:
        if type(probs) is not list or not _NUMBERS.issuperset(map(type, probs)):
            raise TraceError("field 'probs' must be a list of numbers", line_no)
        try:
            probs = tuple(map(float, probs))
        except OverflowError:
            msg = "field 'probs' holds a number too large for a float"
            raise TraceError(msg, line_no) from None
    return StepRecord(
        segment_id=s,
        step_index=t,
        layer_id=l,
        batch_index=b,
        topk_indices=tuple(topk),
        probs=probs,
    )


def parse_trace(stream: bytes | IO[bytes] | Iterable[bytes], validate: bool = True) -> RoutingTrace:
    """Parse a line-delimited trace, normalize record ordering, and validate.

    Raises TraceError with the 1-based line number for structural problems and
    with the collected violations for semantic ones. ``validate=False`` skips
    the semantic pass so a structurally parseable trace can be handed to
    :func:`validate_trace` for a full violation listing.
    """
    header = None
    records: list[StepRecord] = []
    line_no = 0
    peak_id, peak_line = 0, None  # largest segment id or step index, and its line
    for raw in _iter_lines(stream):
        line_no += 1
        line = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise TraceError(f"malformed JSON ({e.msg})", line_no) from None
        if not isinstance(obj, dict):
            raise TraceError("each line must be a JSON object", line_no)
        if header is None:
            header = _parse_header(obj, line_no)
        else:
            rec = _parse_record(obj, line_no, header.has_probs)
            records.append(rec)
            if rec.segment_id > peak_id or rec.step_index > peak_id:
                peak_id, peak_line = max(rec.segment_id, rec.step_index), line_no
    if header is None:
        raise TraceError("empty input: missing header line", line_no=None)
    # A dense trace of R records has segment ids and step indices below R.
    # Ids up to R still parse, so validate can list a small gap; larger ones
    # are refused here, before from_records sizes segment_lengths by them and
    # the contiguity rule walks every missing step.
    if peak_id > len(records):
        raise TraceError(
            f"segment id or step index {peak_id} exceeds the record count {len(records)}",
            peak_line,
        )
    trace = RoutingTrace.from_records(header, records)
    if validate:
        violations = validate_trace(trace)
        if violations:
            raise TraceError(
                f"{len(violations)} invariant violation(s); first: {violations[0]}",
                violations=violations,
            )
    return trace


def _format_record_line(rec: StepRecord) -> str:
    topk = "[" + ",".join(str(e) for e in rec.topk_indices) + "]"
    parts = [
        f'"s":{rec.segment_id}',
        f'"t":{rec.step_index}',
        f'"l":{rec.layer_id}',
        f'"b":{rec.batch_index}',
        f'"topk":{topk}',
    ]
    if rec.probs is not None:
        # 17 significant digits: exact float64 round-trip.
        probs = "[" + ",".join(f"{p:.16e}" for p in rec.probs) + "]"
        parts.append(f'"probs":{probs}')
    return "{" + ",".join(parts) + "}"


def write_trace(trace: RoutingTrace) -> bytes:
    """Serialize a trace in canonical (sorted) record order."""
    lines = [json.dumps({"type": "header", **asdict(trace.header)}, separators=(",", ":"))]
    lines.extend(_format_record_line(r) for r in sorted(trace.records, key=lambda r: r.key))
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_trace(path) -> RoutingTrace:
    with open(path, "rb") as f:
        return parse_trace(f)


def save_trace(trace: RoutingTrace, path) -> None:
    with open(path, "wb") as f:
        f.write(write_trace(trace))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _validate_record(rec: StepRecord, header: TraceHeader, out: list[Violation]) -> None:
    where = f"(s={rec.segment_id},t={rec.step_index},l={rec.layer_id},b={rec.batch_index})"
    k, n = header.top_k, header.n_routed_experts
    if rec.layer_id >= header.n_moe_layers:
        out.append(Violation("range", where, f"layer_id {rec.layer_id} >= n_moe_layers"))
    if rec.batch_index >= header.batch_size:
        out.append(Violation("range", where, f"batch_index {rec.batch_index} >= batch_size"))
    if len(rec.topk_indices) != k:
        out.append(
            Violation("arity", where, f"topk has {len(rec.topk_indices)} entries, expected K={k}")
        )
    if len(set(rec.topk_indices)) != len(rec.topk_indices):
        out.append(Violation("distinctness", where, "duplicate expert id within topk"))
    for e in rec.topk_indices:
        if not (0 <= e < n):
            out.append(Violation("range", where, f"expert id {e} out of range [0,{n})"))
    if rec.probs is None:
        if header.has_probs:
            out.append(Violation("probs_missing", where, "has_probs header but record lacks probs"))
        return
    p = rec.probs
    if len(p) != n:
        out.append(Violation("probs_shape", where, f"probs length {len(p)}, expected N_r={n}"))
        return
    if not all(map(math.isfinite, p)):
        out.append(Violation("probs_nonfinite", where, "NaN or infinite probability entry"))
        return
    if any(x < 0 for x in p):
        out.append(Violation("probs_negative", where, "negative probability entry"))
        return
    total = sum(p)
    if abs(total - 1.0) > PROB_SUM_TOL:
        out.append(Violation("probs_sum", where, f"probs sum {total!r} not within {PROB_SUM_TOL} of 1"))
        return
    if len(rec.topk_indices) == k and frozenset(topk(p, k)) != rec.expert_set:
        out.append(
            Violation(
                "probs_topk",
                where,
                f"topk {sorted(rec.topk_indices)} is not the Top-{k} of probs "
                f"{sorted(topk(p, k))}",
            )
        )


_SCREEN_BLOCK = 512


def _screen_block(
    block: Sequence[StepRecord], keys: np.ndarray, header: TraceHeader
) -> np.ndarray:
    """Boolean mask over ``block``: True for every record that might break a
    per-record rule of :func:`_validate_record`.

    Whole-array tests over the block; anything they cannot represent (ragged
    rows, non-integer ids, missing probs) flags the whole block.
    """
    every = np.ones(len(block), dtype=bool)
    k, n = header.top_k, header.n_routed_experts
    try:
        ids = np.array([r.topk_indices for r in block])
    except ValueError:  # ragged topk rows
        return every
    if ids.dtype.kind != "i" or ids.shape != (len(block), k):
        return every
    flags = (keys[:, 2] >= header.n_moe_layers) | (keys[:, 3] >= header.batch_size)
    flags |= ((ids < 0) | (ids >= n)).any(axis=1)
    ranked = np.sort(ids, axis=1)
    flags |= (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)

    rows = [r.probs for r in block]
    if None in rows:
        return flags if rows.count(None) == len(rows) and not header.has_probs else every
    try:
        probs = np.array(rows)
    except ValueError:  # ragged probs rows
        return every
    if probs.dtype.kind not in "fi" or probs.shape != (len(block), n):
        return every
    probs = probs.astype(float, copy=False)
    flags |= (~np.isfinite(probs) | (probs < 0)).any(axis=1)
    # Half the tolerance: numpy's pairwise sum and the per-record left-to-right
    # sum differ by far less than PROB_SUM_TOL / 2, so no reportable sum escapes.
    # Rows with inf or huge entries are flagged above; their sums may warn.
    with np.errstate(invalid="ignore", over="ignore"):
        flags |= np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL / 2
    top = np.sort(topk_rows(probs, k), axis=1)
    flags |= (top != ranked).any(axis=1)
    return flags


def _dense_keys(offsets: np.ndarray, start: int, count: int, header: TraceHeader) -> np.ndarray:
    """Keys ``start .. start+count-1`` of the sorted dense (s, t, l, b) grid
    whose segments begin at the global steps ``offsets``."""
    idx = np.arange(start, start + count)
    step = idx // (header.n_moe_layers * header.batch_size)
    seg = np.searchsorted(offsets, step, side="right") - 1
    layer = idx // header.batch_size % header.n_moe_layers
    return np.stack([seg, step - offsets[seg], layer, idx % header.batch_size], axis=1)


def validate_trace(trace: RoutingTrace) -> list[Violation]:
    """Check every invariant; returns an empty list iff the trace is well-formed.

    Violations are data, not exceptions: each one names the offending record
    coordinates and the rule it breaks.

    Per-record rules are screened a block of records at a time with whole-array
    tests (:func:`_screen_block`), and only flagged records are described by
    :func:`_validate_record`. The screen must flag a superset of the records
    ``_validate_record`` would report (it may flag more), so the violations and
    their order are those of a full per-record pass. Cross-record rules are
    checked in full unless every segment length is >= 1 and the record keys
    are exactly the dense grid implied by ``segment_lengths``, which breaks none.
    """
    out: list[Violation] = []
    h = trace.header
    records = trace.records
    offsets = np.array(trace.segment_offsets)
    dense = (
        all(length >= 1 for length in trace.segment_lengths)
        and len(records) == offsets[-1] * h.n_moe_layers * h.batch_size
    )
    for i0 in range(0, len(records), _SCREEN_BLOCK):
        block = records[i0 : i0 + _SCREEN_BLOCK]
        keys = np.array([r.key for r in block])
        for i in np.flatnonzero(_screen_block(block, keys, h)):
            _validate_record(block[i], h, out)
        dense = dense and keys.dtype.kind == "i" and np.array_equal(
            keys, _dense_keys(offsets, i0, len(block), h)
        )
    if not dense:
        _cross_record_violations(trace, out)
    return out


def _cross_record_violations(trace: RoutingTrace, out: list[Violation]) -> None:
    """Ordering, duplicate, coverage and segment-structure rules."""
    h = trace.header
    keys = [r.key for r in trace.records]
    if keys != sorted(keys):
        out.append(Violation("ordering", "trace", "records not sorted by (s,t,l,b)"))
    seen: dict[tuple, int] = {}
    for key in keys:
        seen[key] = seen.get(key, 0) + 1
    for key, count in seen.items():
        if count > 1:
            out.append(Violation("duplicate", str(key), f"record appears {count} times"))

    # Coverage: every present (s,t) must carry the full (layer, batch) grid.
    steps: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for s, t, l, b in seen:
        steps.setdefault((s, t), set()).add((l, b))
    full = {(l, b) for l in range(h.n_moe_layers) for b in range(h.batch_size)}
    for (s, t), present in sorted(steps.items()):
        missing = full - present
        for l, b in sorted(missing):
            out.append(
                Violation("coverage", f"(s={s},t={t})", f"missing record for layer={l}, batch={b}")
            )

    # Segment structure: contiguous segment ids, contiguous step indices from 0.
    seg_steps: dict[int, set[int]] = {}
    for s, t in steps:
        seg_steps.setdefault(s, set()).add(t)
    if seg_steps:
        n_seg = max(seg_steps) + 1
        for s in range(n_seg):
            if s not in seg_steps:
                out.append(Violation("segments", f"s={s}", "segment id gap"))
                continue
            t_max = max(seg_steps[s])
            for t in range(t_max + 1):
                if t not in seg_steps[s]:
                    out.append(
                        Violation("contiguity", f"(s={s},t={t})", "step index gap within segment")
                    )
        lengths = tuple(
            max(seg_steps[s]) + 1 if s in seg_steps else 0 for s in range(n_seg)
        )
    else:
        lengths = ()
    if trace.segment_lengths != lengths:
        out.append(
            Violation(
                "segment_lengths",
                "trace",
                f"declared {trace.segment_lengths}, derived {lengths}",
            )
        )


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Controls the synthetic trace generator.

    ``stickiness`` is the per-slot probability of keeping a previous-step
    expert, so it dials step-to-step overlap from fully random (0.0) to a
    frozen working set (1.0). With ``independent_batches`` off, all batch
    slots share one expert-set stream.
    """

    n_moe_layers: int = 1
    n_routed_experts: int = 16
    top_k: int = 4
    batch_size: int = 1
    n_segments: int = 1
    steps_per_segment: int = 32
    stickiness: float = 0.5
    seed: int = 0
    emit_probs: bool = False
    concentration: float = 4.0
    independent_batches: bool = False

    def __post_init__(self):
        TraceHeader(self.n_moe_layers, self.n_routed_experts, self.top_k, self.batch_size)
        if not 0.0 <= self.stickiness <= 1.0:
            raise ValueError(f"stickiness must be in [0,1], got {self.stickiness}")
        if self.n_segments < 1 or self.steps_per_segment < 1:
            raise ValueError("n_segments and steps_per_segment must be >= 1")
        # A member's score stays below 2(1 + c), so the score sum below 2(1 + c)N.
        c = self.concentration
        if not (c >= 0.0 and math.isfinite(2.0 * (1.0 + c) * self.n_routed_experts)):
            raise ValueError(
                f"concentration must be a finite number >= 0 that keeps the scores finite, got {c}"
            )

    @property
    def header(self) -> TraceHeader:
        return TraceHeader(
            n_moe_layers=self.n_moe_layers,
            n_routed_experts=self.n_routed_experts,
            top_k=self.top_k,
            batch_size=self.batch_size,
            has_probs=self.emit_probs,
        )


def _sticky_set_stream(rng, n, k, p, steps) -> list[list[int]]:
    """One segment's expert-set sequence: keep each previous expert with
    probability p, refill the open slots uniformly from experts not yet chosen
    for the current step."""
    sets: list[list[int]] = []
    cur = [int(e) for e in rng.choice(n, size=k, replace=False)]
    sets.append(cur)
    for _ in range(1, steps):
        # k draws in slot order, the same stream as one rng.random() per slot.
        kept = list(compress(cur, (rng.random(k) < p).tolist()))
        if len(kept) < k:
            unchosen = np.ones(n, dtype=bool)
            unchosen[kept] = False
            fill = rng.choice(np.flatnonzero(unchosen), size=k - len(kept), replace=False)
            cur = kept + fill.tolist()
        else:
            cur = kept
        sets.append(cur)
    return sets


def _probs_for_set(rng, n, members, concentration) -> tuple[float, ...]:
    """A distribution whose Top-K is exactly ``members``: member scores are
    lifted above 1 while non-members stay below 1."""
    raw = rng.random(n)
    scores = raw.copy()
    scores[members] = (1.0 + concentration) * (1.0 + raw[members])
    scores /= scores.sum()
    return tuple(float(x) for x in scores)


def synth_trace(cfg: SynthConfig) -> RoutingTrace:
    """Deterministic synthetic routing trace with controllable locality."""
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n_routed_experts, cfg.top_k
    n_streams = cfg.batch_size if cfg.independent_batches else 1
    records: list[StepRecord] = []
    for s in range(cfg.n_segments):
        for l in range(cfg.n_moe_layers):
            for stream in range(n_streams):
                sets = _sticky_set_stream(rng, n, k, cfg.stickiness, cfg.steps_per_segment)
                batches = [stream] if cfg.independent_batches else range(cfg.batch_size)
                for t, members in enumerate(sets):
                    probs = None
                    order = tuple(members)
                    if cfg.emit_probs:
                        probs = _probs_for_set(rng, n, members, cfg.concentration)
                        order = topk(probs, k)  # the members, most probable first
                    for b in batches:
                        records.append(
                            StepRecord(
                                segment_id=s,
                                step_index=t,
                                layer_id=l,
                                batch_index=b,
                                topk_indices=order,
                                probs=probs,
                            )
                        )
    return RoutingTrace.from_records(cfg.header, records)

