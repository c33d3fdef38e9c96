"""Routing-trace data model, JSONL on-disk format, validation, and a synthetic generator.

A routing trace records which experts a Mixture-of-Experts router selected at
every decode step. Records are keyed by (segment, step, layer, batch): a
*segment* is one request/decoding session, *step* is the 0-based decode step
within the segment, *layer* is the 0-based MoE-layer index, and *batch* is the
0-based batch slot. Each record carries the Top-K expert index list and,
optionally, the full routing distribution over all routed experts.

Expert ids are 0-based everywhere in this package (storage included), even
though much of the literature indexes experts from 1.

In memory a trace is columnar, one row per record (:class:`RoutingTrace`):
``keys`` int64[R, 4] holds the (s, t, l, b) keys sorted, ``topk`` int64[R, K]
the Top-K ids in stored order, ``probs`` float64[R, N] the distributions (None
for an index-only trace) and ``segment_lengths`` the steps of each segment.

On-disk format (UTF-8, one JSON object per line):

    {"type":"header","n_moe_layers":L,"n_routed_experts":N,"top_k":K,"batch_size":B,"has_probs":bool}
    {"s":0,"t":0,"l":0,"b":0,"topk":[3,17,...],"probs":[...]}   # probs only when has_probs
    ...

Lines end at ``\\n`` only, for bytes and files alike; whitespace around a line
(the ``\\r`` of ``\\r\\n`` included) is ignored and blank lines are skipped.
Probabilities are serialized with 17 significant digits so that
``parse_trace(write_trace(x)) == x`` holds bit-for-bit.

:func:`parse_trace` scans each line as one JSON value and converts the records
into the arrays a block of lines at a time, type-checking each block's fields
as whole lists. Input the arrays cannot hold exactly is parsed again by the
per-line path, one :class:`StepRecord` per line, which words its first error
with the line number: a line that is not UTF-8 or not one JSON object (too
deep a nesting included), a field that is missing or of another JSON type, a
has_probs mismatch, a number too large for a float, or a segment id or step
index beyond the record count. Records that parse but that no array holds (a
topk not K long, probs not N long, an id beyond int64) always break a rule;
they are reported as the violations of the per-record rules.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, itemgetter
from typing import IO, Callable, Iterable, Iterator

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
    when the failure came from full-trace validation, and ``n_records`` the
    number of records they were found in.
    """

    def __init__(self, message, line_no=None, violations=(), n_records=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
        self.violations = tuple(violations)
        self.n_records = n_records


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
    """One record line as the per-line parse path reads it, so that a record
    no array holds (a ragged row, an id beyond int64) can still be diagnosed."""

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


@dataclass(frozen=True, eq=False)
class RoutingTrace:
    """A trace as arrays, one row per record (see the module docstring).

    The rows hold exactly what the records said; whether they form a valid
    trace is :func:`validate_trace`'s question. ``probs`` is given exactly when
    the header declares ``has_probs``. The arrays are made read-only.
    """

    header: TraceHeader
    keys: np.ndarray
    topk: np.ndarray
    probs: np.ndarray | None
    segment_lengths: tuple[int, ...]

    def __post_init__(self):
        h, r = self.header, len(self.keys)
        if (self.probs is not None) != h.has_probs:
            raise ValueError("probs must be given exactly when the header declares has_probs")
        columns = [("keys", (r, 4), np.int64), ("topk", (r, h.top_k), np.int64)]
        if h.has_probs:
            columns.append(("probs", (r, h.n_routed_experts), np.float64))
        for name, shape, dtype in columns:
            a = getattr(self, name)
            if a.shape != shape or a.dtype != dtype:
                raise ValueError(f"{name} must be {np.dtype(dtype)}{list(shape)}, "
                                 f"got {a.dtype}{list(a.shape)}")
            a.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, RoutingTrace):
            return NotImplemented
        return (
            self.header == other.header
            and self.segment_lengths == other.segment_lengths
            and all(map(np.array_equal, (self.keys, self.topk, self.probs),
                        (other.keys, other.topk, other.probs)))
        )

    @property
    def n_records(self) -> int:
        return len(self.keys)

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

    @cached_property
    def _grid(self) -> np.ndarray:
        """The keys of the dense sorted trace with these segment lengths."""
        return _dense_keys(self.header, self.segment_lengths)

    def stream(self, layer: int, batch: int) -> slice:
        """The rows of one (layer, batch) slot, one per step in trace order.

        A dense sorted trace keeps them at ``layer*B + batch :: L*B``; this is
        the one place that reads that layout. The rows' keys are compared with
        the steps they stand for in one array test, so a trace that is not
        dense (a key missing, repeated or out of place) raises KeyError.
        """
        h = self.header
        grid = self._grid
        if len(self.keys) != len(grid):
            raise KeyError(
                f"trace is not dense: {len(self.keys)} records for {self.segment_offsets[-1]} "
                f"steps x {h.n_moe_layers} layers x {h.batch_size} batch items"
            )
        rows = slice(layer * h.batch_size + batch, None, h.n_moe_layers * h.batch_size)
        bad = np.flatnonzero((self.keys[rows] != grid[rows]).any(axis=1))
        if len(bad):
            s, t = grid[rows][bad[0], :2].tolist()
            raise KeyError(f"trace is not dense at {(s, t, layer, batch)}")
        return rows

    def expert_rows(self, layer: int, batch: int) -> np.ndarray:
        """The Top-K rows of :meth:`stream` as one int[steps, K] array.

        Raises ValueError unless every row holds K distinct experts in
        [0, N), so that overlaps counted over the rows are set intersections.
        """
        h = self.header
        rows = self.topk[self.stream(layer, batch)]
        # Sorted, a set of K experts in [0, N) rises strictly from >= 0 to < N.
        ranked = np.sort(rows, axis=1)
        if (not (ranked[:, 1:] > ranked[:, :-1]).all() or not (ranked[:, :1] >= 0).all()
                or not (ranked[:, -1:] < h.n_routed_experts).all()):
            raise ValueError(
                f"every Top-K set of layer {layer}, batch {batch} must be a set of "
                f"size K={h.top_k} of experts in [0, {h.n_routed_experts})"
            )
        return rows

    def batch_slot(self, batch: int) -> "RoutingTrace":
        """Batch slot ``batch`` of a dense sorted trace as a standalone B=1 trace.

        The slot's rows are ``batch::B``; a row of another slot among them
        means the trace is not dense (a key missing or repeated), so it raises
        KeyError rather than check one slot's routing as another's.
        """
        h = self.header
        if h.batch_size == 1:
            return self
        rows = slice(batch, None, h.batch_size)
        keys = self.keys[rows].copy()
        if (keys[:, 3] != batch).any():
            raise KeyError(f"trace is not dense in batch slot {batch}")
        keys[:, 3] = 0
        probs = None if self.probs is None else self.probs[rows]
        return RoutingTrace(replace(h, batch_size=1), keys, self.topk[rows], probs,
                            self.segment_lengths)

    def iter_steps(self) -> Iterator[tuple[int, int]]:
        """All (segment, step) pairs in order."""
        for s, length in enumerate(self.segment_lengths):
            for t in range(length):
                yield s, t


def _dense_keys(header: TraceHeader, lengths) -> np.ndarray:
    """int64[R, 4]: the sorted (s, t, l, b) keys of the dense trace whose
    segments have ``lengths`` steps."""
    lengths = np.asarray(lengths, dtype=np.int64)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    step = np.arange(len(seg)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    per_step = header.n_moe_layers * header.batch_size
    slot = np.arange(per_step)
    return np.stack([
        np.repeat(seg, per_step),
        np.repeat(step, per_step),
        np.tile(slot // header.batch_size, len(seg)),
        np.tile(slot % header.batch_size, len(seg)),
    ], axis=1)


def _segment_lengths(keys: np.ndarray) -> tuple[int, ...]:
    """One past the largest step index of each segment id up to the largest
    (0 for an absent id), from the (s, t) columns of ``keys``."""
    if not len(keys):
        return ()
    lengths = np.zeros(int(keys[:, 0].max()) + 1, dtype=np.int64)
    np.maximum.at(lengths, keys[:, 0], keys[:, 1] + 1)
    return tuple(lengths.tolist())


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_scan_once = json.JSONDecoder().scan_once  # json.loads' scanner, without its wrappers


def _line_source(stream: bytes | IO[bytes]) -> Callable[[], Iterator[bytes]]:
    """A function returning a fresh iterator over the input's lines, split at
    ``\\n`` only, so that the per-line path can read them again."""
    if isinstance(stream, bytearray):
        stream = bytes(stream)
    elif not isinstance(stream, bytes):
        if stream.seekable():
            start = stream.tell()

            def reread():
                stream.seek(start)
                return iter(stream)

            return reread
        stream = stream.read()
    return lambda: iter(stream.split(b"\n"))


def _objects(lines: Iterable[bytes]) -> Iterator[tuple[int, dict]]:
    """``(line_no, object)`` for every non-blank line; a line that is not one
    UTF-8 JSON object raises TraceError naming it."""
    for line_no, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise TraceError(f"invalid UTF-8 at byte {e.start} ({e.reason})", line_no) from None
        if not line:
            continue
        try:
            obj = json.loads(line)  # on a stripped line, the same test as _scan_block's
        except RecursionError:
            raise TraceError("malformed JSON (nested too deeply)", line_no) from None
        except ValueError as e:  # a JSONDecodeError, or int's digit limit
            raise TraceError(f"malformed JSON ({getattr(e, 'msg', e)})", line_no) from None
        if type(obj) is not dict:
            raise TraceError("each line must be a JSON object", line_no)
        yield line_no, obj


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
_LISTS = frozenset((list,))
_DICTS = frozenset((dict,))
_BLOCK = 512  # record lines converted into arrays at a time
_KEY_FIELDS = itemgetter("s", "t", "l", "b")
_TOPK_FIELD = itemgetter("topk")
_PROBS_FIELD = itemgetter("probs")


def _rows_of(values, length: int, types: frozenset) -> bool:
    """Whether every value is a JSON list of ``length`` entries of ``types``."""
    return (_LISTS.issuperset(map(type, values)) and set(map(len, values)) == {length}
            and types.issuperset(map(type, chain.from_iterable(values))))


def _block_arrays(objs: list[dict], header: TraceHeader):
    """``(keys, topk, probs)`` arrays of a block of record objects, or None
    when one of them is not a record the arrays hold exactly: a field missing
    or of another JSON type, a negative key, a topk not K or probs not N long,
    probs against the header, or a number beyond int64 or float64. json
    yields exact types, so ``type(x) is int`` also refuses true and false."""
    try:
        keys = list(map(_KEY_FIELDS, objs))
        tops = list(map(_TOPK_FIELD, objs))
        probs = list(map(_PROBS_FIELD, objs)) if header.has_probs else None
    except KeyError:
        return None
    if header.has_probs:
        probs_ok = _rows_of(probs, header.n_routed_experts, _NUMBERS)
    else:
        probs_ok = list(map(dict.get, objs, repeat("probs"))).count(None) == len(objs)
    if not (probs_ok and _INTS.issuperset(map(type, chain.from_iterable(keys)))
            and _rows_of(tops, header.top_k, _INTS)):
        return None
    try:
        keys = np.array(keys, dtype=np.int64)
        tops = np.array(tops, dtype=np.int64)
        probs = None if probs is None else np.array(probs, dtype=np.float64)
    except OverflowError:
        return None
    return None if (keys < 0).any() else (keys, tops, probs)


def _scan_block(raws: list[bytes]) -> list[dict] | None:
    """The JSON objects of a block of lines, blank lines skipped, or None if
    a line is not one UTF-8 JSON object. The same tests as :func:`_objects`,
    run as C-level maps over the block."""
    try:
        texts = list(filter(None, map(str.strip, map(bytes.decode, raws))))
        scanned = list(map(_scan_once, texts, repeat(0)))
    except (UnicodeDecodeError, ValueError, RecursionError):
        return None
    # A StopIteration (no value on a line) ends the map early, so the
    # comparison also catches it, as well as a line holding more than one value.
    if list(map(itemgetter(1), scanned)) != list(map(len, texts)):
        return None
    objs = list(map(itemgetter(0), scanned))
    return objs if _DICTS.issuperset(map(type, objs)) else None


def _parse_arrays(lines: Iterator[bytes]) -> RoutingTrace | None:
    """The trace, its rows sorted by key, or None when the per-line path must
    read the input: a line it would refuse, a record the arrays cannot hold,
    or a segment id or step index beyond the record count."""
    header = None
    while block := list(islice(lines, _BLOCK)):
        objs = _scan_block(block)
        if objs is None:
            return None
        if header is None and objs:
            try:
                header = _parse_header(objs.pop(0), None)
            except TraceError:
                return None
            n = header.n_routed_experts
            blocks = [(np.empty((0, 4), np.int64), np.empty((0, header.top_k), np.int64),
                       np.empty((0, n)) if header.has_probs else None)]
        if objs:
            arrays = _block_arrays(objs, header)
            if arrays is None:
                return None
            blocks.append(arrays)
    if header is None:
        return None
    keys, tops, probs = (None if c[0] is None else np.concatenate(c) for c in zip(*blocks))
    if len(keys) and keys[:, :2].max() > len(keys):
        return None
    order = np.lexsort(keys.T[::-1])
    if (np.diff(order) != 1).any():
        keys, tops = keys[order], tops[order]
        probs = None if probs is None else probs[order]
    return RoutingTrace(header, keys, tops, probs, _segment_lengths(keys))


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


def _parse_records(lines: Iterable[bytes]) -> tuple[TraceHeader, list[StepRecord]]:
    """The per-line path: one StepRecord per record line, so the first line
    that breaks a structural rule raises TraceError naming it."""
    header = None
    records: list[StepRecord] = []
    peak_id, peak_line = 0, None  # largest segment id or step index, and its line
    for line_no, obj in _objects(lines):
        if header is None:
            header = _parse_header(obj, line_no)
            continue
        rec = _parse_record(obj, line_no, header.has_probs)
        records.append(rec)
        if rec.segment_id > peak_id or rec.step_index > peak_id:
            peak_id, peak_line = max(rec.segment_id, rec.step_index), line_no
    if header is None:
        raise TraceError("empty input: missing header line", line_no=None)
    # A dense trace of R records has segment ids and step indices below R.
    # Ids up to R still parse, so validate can list a small gap; larger ones
    # are refused here, before segment_lengths is sized by them and the
    # contiguity rule walks every missing step.
    if peak_id > len(records):
        raise TraceError(
            f"segment id or step index {peak_id} exceeds the record count {len(records)}",
            peak_line,
        )
    return header, records


def _violation_error(violations: list[Violation], n_records: int) -> TraceError:
    return TraceError(f"{len(violations)} invariant violation(s); first: {violations[0]}",
                      violations=violations, n_records=n_records)


def parse_trace(stream: bytes | IO[bytes], validate: bool = True) -> RoutingTrace:
    """Parse a line-delimited trace from bytes or a binary file, sort its
    rows by key, and validate.

    Raises TraceError with the 1-based line number for structural problems and
    with the collected violations for semantic ones. ``validate=False`` skips
    the semantic pass so a structurally parseable trace can be handed to
    :func:`validate_trace` for a full violation listing. Records that parse
    but that the arrays cannot hold (see the module docstring) raise with
    their violations either way, since no trace can be built from them.
    """
    lines = _line_source(stream)
    trace = _parse_arrays(lines())
    if trace is None:
        header, records = _parse_records(lines())  # raises unless no array holds a record
        records.sort(key=attrgetter("key"))
        violations: list[Violation] = []
        for rec in records:
            _validate_record(rec, header, violations)
        _cross_record_violations(header, [r.key for r in records], None, violations)
        raise _violation_error(violations, len(records))
    if validate:
        violations = validate_trace(trace)
        if violations:
            raise _violation_error(violations, trace.n_records)
    return trace


_PROB_FORMAT = "{:.16e}".format  # 17 significant digits: exact float64 round-trip


def _record_lines(trace: RoutingTrace) -> Iterator[str]:
    probs = repeat(None) if trace.probs is None else map(np.ndarray.tolist, trace.probs)
    for (s, t, l, b), ids, p in zip(trace.keys.tolist(), trace.topk.tolist(), probs):
        line = f'{{"s":{s},"t":{t},"l":{l},"b":{b},"topk":[{",".join(map(str, ids))}]'
        if p is not None:
            line += f',"probs":[{",".join(map(_PROB_FORMAT, p))}]'
        yield line + "}"


def write_trace(trace: RoutingTrace) -> bytes:
    """Serialize a trace, one line per row in row order (sorted by key in a
    parsed or generated trace)."""
    lines = [json.dumps({"type": "header", **asdict(trace.header)}, separators=(",", ":"))]
    lines.extend(_record_lines(trace))
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


def _flagged_rows(trace: RoutingTrace) -> np.ndarray:
    """The rows that might break a per-record rule of :func:`_validate_record`:
    a superset of those it reports, found by whole-array tests."""
    h = trace.header
    keys, ids = trace.keys, trace.topk
    flags = (keys[:, 2] >= h.n_moe_layers) | (keys[:, 3] >= h.batch_size)
    flags |= ((ids < 0) | (ids >= h.n_routed_experts)).any(axis=1)
    ranked = np.sort(ids, axis=1)
    flags |= (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    probs = trace.probs
    if probs is not None:
        flags |= (~np.isfinite(probs) | (probs < 0)).any(axis=1)
        # Half the tolerance: numpy's pairwise sum and the per-record left-to-right
        # sum differ by far less than PROB_SUM_TOL / 2, so no reportable sum escapes.
        # Rows with inf or huge entries are flagged above; their sums may warn.
        with np.errstate(invalid="ignore", over="ignore"):
            flags |= np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL / 2
        flags |= (np.sort(topk_rows(probs, h.top_k), axis=1) != ranked).any(axis=1)
    return np.flatnonzero(flags)


def _record(trace: RoutingTrace, i: int) -> StepRecord:
    """Row ``i`` as the per-record rules read it."""
    probs = None if trace.probs is None else tuple(trace.probs[i].tolist())
    return StepRecord(*trace.keys[i].tolist(), tuple(trace.topk[i].tolist()), probs)


def validate_trace(trace: RoutingTrace) -> list[Violation]:
    """Check every invariant; returns an empty list iff the trace is well-formed.

    Violations are data, not exceptions: each one names the offending record
    coordinates and the rule it breaks.

    Per-record rules are screened over the whole arrays, and only flagged rows
    are described by :func:`_validate_record`; the screen flags a superset of
    the rows that break a rule, so the violations and their order are those of
    a full per-record pass. Cross-record rules are checked in full unless
    every segment length is >= 1 and the keys are exactly the dense grid
    implied by ``segment_lengths``, which breaks none.
    """
    out: list[Violation] = []
    h = trace.header
    for i in _flagged_rows(trace).tolist():
        _validate_record(_record(trace, i), h, out)
    dense = (all(length >= 1 for length in trace.segment_lengths)
             and np.array_equal(trace.keys, trace._grid))
    if not dense:
        keys = list(map(tuple, trace.keys.tolist()))
        _cross_record_violations(h, keys, trace.segment_lengths, out)
    return out


def _cross_record_violations(
    h: TraceHeader, keys: list[tuple], declared: tuple[int, ...] | None, out: list[Violation]
) -> None:
    """Ordering, duplicate, coverage and segment-structure rules over the
    record keys; ``declared`` segment lengths are compared with those the keys
    imply unless None (lengths derived from the keys themselves)."""
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
    if declared is not None and declared != lengths:
        out.append(
            Violation(
                "segment_lengths",
                "trace",
                f"declared {declared}, derived {lengths}",
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


def _probs_for_sets(rng, n, sets: np.ndarray, concentration) -> np.ndarray:
    """One distribution per row of ``sets`` whose Top-K is exactly that row:
    member scores are lifted above 1 while non-members stay below 1. Draws
    ``rng.random(n)`` once per row, in row order."""
    raw = rng.random((len(sets), n))
    scores = raw.copy()
    rows = np.arange(len(sets))[:, None]
    scores[rows, sets] = (1.0 + concentration) * (1.0 + raw[rows, sets])
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def synth_trace(cfg: SynthConfig) -> RoutingTrace:
    """Deterministic synthetic routing trace with controllable locality.

    One set stream is drawn per (segment, layer) and, with
    ``independent_batches``, per batch slot; the rows are then laid out in
    (segment, step, layer, batch) order, a shared stream copied to every slot.
    """
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n_routed_experts, cfg.top_k
    n_streams = cfg.batch_size if cfg.independent_batches else 1
    sets: list[list[int]] = []  # in (segment, layer, stream, step) order
    probs: list[np.ndarray] = []
    for _ in range(cfg.n_segments * cfg.n_moe_layers * n_streams):
        stream = _sticky_set_stream(rng, n, k, cfg.stickiness, cfg.steps_per_segment)
        sets.extend(stream)
        if cfg.emit_probs:
            probs.append(_probs_for_sets(rng, n, np.array(stream), cfg.concentration))

    def layout(rows: np.ndarray) -> np.ndarray:
        rows = rows.reshape(cfg.n_segments, cfg.n_moe_layers, n_streams,
                            cfg.steps_per_segment, -1).transpose(0, 3, 1, 2, 4)
        rows = np.broadcast_to(rows, rows.shape[:3] + (cfg.batch_size, rows.shape[4]))
        return np.ascontiguousarray(rows.reshape(-1, rows.shape[-1]))

    order = np.array(sets, dtype=np.int64)
    if cfg.emit_probs:
        p = np.concatenate(probs)
        order = topk_rows(p, k)  # the members, most probable first
        probs = layout(p)
    lengths = (cfg.steps_per_segment,) * cfg.n_segments
    return RoutingTrace(cfg.header, _dense_keys(cfg.header, lengths), layout(order),
                        probs if cfg.emit_probs else None, lengths)
