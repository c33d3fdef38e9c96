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

:func:`parse_trace` reads the input once, a block of lines at a time. In an
index-only trace, a block whose every line is a record exactly as
:func:`write_trace` emits it (ids of at most 18 digits) has its integers
converted into arrays at once, with no JSON scan. Any other block takes the
JSON path, which alone decides errors: it scans each line as one JSON value,
runs the field rules over the block's columns and converts the block into
arrays. When a block breaks a rule, the same rules run again over its lines
one at a time, so the error names the first line that breaks one: a line
that is not UTF-8 or not one JSON object (too deep a nesting included), a
field that is missing or of another JSON type, a has_probs mismatch, or a
number too large for a float. Once every line is read, a segment id or step
index beyond the record count is refused with its line, and so is a header
whose n_moe_layers x batch_size over the steps present asks for more than
twice the records given. Records that parse but that no RoutingTrace holds
(a topk not K long, probs not N long, an id beyond int64) get padded rows and
always break a per-record rule, so they are reported as violations. Each
per-record rule is stated once, as a row of the table that
:func:`validate_trace` runs.
"""

from __future__ import annotations

import io
import json
import math
import re
from collections import Counter
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import IO, Iterator, NamedTuple

import numpy as np

from .gate import topk, topk_rows

PROB_SUM_TOL = 1e-9

__all__ = [
    "PROB_SUM_TOL",
    "TraceError",
    "Violation",
    "TraceHeader",
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


_HEADER_FIELDS = ("n_moe_layers", "n_routed_experts", "top_k", "batch_size")


@dataclass(frozen=True)
class TraceHeader:
    n_moe_layers: int
    n_routed_experts: int
    top_k: int
    batch_size: int
    has_probs: bool = False

    def __post_init__(self):
        for name in _HEADER_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.top_k > self.n_routed_experts:
            raise ValueError(
                f"top_k ({self.top_k}) exceeds n_routed_experts ({self.n_routed_experts})"
            )


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

    @cached_property
    def segment_offsets(self) -> tuple[int, ...]:
        """First global step index of each segment, plus the total step count."""
        offsets = [0]
        for length in self.segment_lengths:
            offsets.append(offsets[-1] + length)
        return tuple(offsets)

    @cached_property
    def _grid(self) -> np.ndarray | None:
        """The keys of the dense sorted trace with these segment lengths, or
        None when that trace would not have ``n_records`` rows: the sizes are
        compared first, so a header-sized grid is never built."""
        h = self.header
        if self.segment_offsets[-1] * h.n_moe_layers * h.batch_size != len(self.keys):
            return None
        return _dense_keys(h, self.segment_lengths)

    def stream(self, layer: int, batch: int) -> slice:
        """The rows of one (layer, batch) slot, one per step in trace order.

        A dense sorted trace keeps them at ``layer*B + batch :: L*B``; this is
        the one place that reads that layout. The rows' keys are compared with
        the steps they stand for in one array test, so a trace that is not
        dense (a key missing, repeated or out of place) raises KeyError.
        """
        h = self.header
        grid = self._grid
        if grid is None:
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
_INTS = frozenset((int,))
_NUMBERS = frozenset((int, float))
_LISTS = frozenset((list,))
_DICTS = frozenset((dict,))
_BLOCK = 512  # lines read and converted into arrays at a time
_CELLS = 1 << 16  # padded topk entries tested at a time in rows no RoutingTrace holds
_KEY_FIELDS = itemgetter("s", "t", "l", "b")
_TOPK_FIELD = itemgetter("topk")
# A record line as write_trace emits it for an index-only trace, where I is a
# JSON integer of at most 18 digits, so that every id fits int64.
_RECORD_LINE = rb'\{"s":I,"t":I,"l":I,"b":I,"topk":\[I(?:,I){%d}\]\}\n?'.replace(
    b"I", rb"(?:0|[1-9][0-9]{0,17})")
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))  # others to spaces


def _line_object(raw: bytes, line_no: int) -> dict | None:
    """The JSON object on one line, None for a blank line; a line that is
    not one UTF-8 JSON object raises TraceError naming it."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as e:
        raise TraceError(f"invalid UTF-8 at byte {e.start} ({e.reason})", line_no) from None
    if not line:
        return None
    try:
        obj = json.loads(line)  # on a stripped line, the same test as _scan_block's
    except RecursionError:
        raise TraceError("malformed JSON (nested too deeply)", line_no) from None
    except ValueError as e:  # a JSONDecodeError, or int's digit limit
        raise TraceError(f"malformed JSON ({getattr(e, 'msg', e)})", line_no) from None
    if type(obj) is not dict:
        raise TraceError("each line must be a JSON object", line_no)
    return obj


def _parse_header(obj, line_no) -> TraceHeader:
    if obj.get("type") != "header":
        raise TraceError('first line must be a {"type":"header",...} record', line_no)
    has_probs = obj.get("has_probs", False)
    if type(has_probs) is not bool:
        raise TraceError(f"header field 'has_probs' must be true or false, got {has_probs!r}",
                         line_no)
    try:
        return TraceHeader(*map(obj.__getitem__, _HEADER_FIELDS), has_probs)
    except KeyError as e:
        raise TraceError(f"header missing field {e.args[0]!r}", line_no) from None
    except ValueError as e:
        raise TraceError(str(e), line_no) from None


def _scan_block(raws: list[bytes]) -> tuple[list[dict], list[int]] | None:
    """The JSON objects of a block of lines and their offsets in it, blank
    lines skipped, or None if a line is not one UTF-8 JSON object: the test
    of :func:`_line_object` as C-level maps over the block."""
    try:
        texts = list(map(str.strip, map(bytes.decode, raws)))
        at = list(compress(range(len(texts)), texts))
        texts = list(filter(None, texts))
        scanned = list(map(_scan_once, texts, repeat(0)))
    except (UnicodeDecodeError, ValueError, RecursionError):
        return None
    # A StopIteration (no value on a line) ends the map early, so the
    # comparison also catches it, as well as a line holding more than one value.
    if list(map(itemgetter(1), scanned)) != list(map(len, texts)):
        return None
    objs = list(map(itemgetter(0), scanned))
    return (objs, at) if _DICTS.issuperset(map(type, objs)) else None


def _block_arrays(objs: list[dict], header: TraceHeader) -> tuple | str:
    """The field rules over a block of record objects, in the order a record
    is checked: the block's ``(keys, topk, probs)``, or the message of the
    first rule a record breaks (for one record, its error). json yields exact
    types, so ``type(x) is int`` also refuses true and false. topk and probs
    stay lists if a row is not K or N long (or a topk id is beyond int64)."""
    try:
        keys = list(map(_KEY_FIELDS, objs))
        tops = list(map(_TOPK_FIELD, objs))
    except KeyError as e:
        return f"record missing field {e.args[0]!r}"
    for name, column in zip("stlb", zip(*keys)):
        if not (_INTS.issuperset(map(type, column)) and min(column) >= 0):
            return f"field {name!r} must be a non-negative integer, got {column[0]!r}"
    if not (_LISTS.issuperset(map(type, tops))
            and _INTS.issuperset(map(type, chain.from_iterable(tops)))):
        return "field 'topk' must be a list of integers"
    probs = list(map(dict.get, objs, repeat("probs")))
    if not header.has_probs:
        if probs.count(None) < len(probs):
            return "record carries 'probs' but header declares has_probs=false"
        probs = None
    elif None in probs:
        return "header declares has_probs but record carries no 'probs'"
    elif not (_LISTS.issuperset(map(type, probs))
              and _NUMBERS.issuperset(map(type, chain.from_iterable(probs)))):
        return "field 'probs' must be a list of numbers"
    else:
        n = header.n_routed_experts
        try:
            if set(map(len, probs)) <= {n}:
                probs = np.array(probs, np.float64).reshape(len(probs), n)
            else:
                np.fromiter(chain.from_iterable(probs), np.float64)  # every entry must fit
        except OverflowError:
            return "field 'probs' holds a number too large for a float"
    if set(map(len, tops)) <= {header.top_k}:
        with suppress(OverflowError):
            tops = np.array(tops, np.int64).reshape(len(tops), header.top_k)
    try:
        keys = np.array(keys, np.int64).reshape(len(keys), 4)
    except OverflowError:
        keys = np.array(keys, object)
    return keys, tops, probs


def _record_grammar(header: TraceHeader) -> re.Pattern | None:
    """The one form of a record line whose block converts without a JSON
    scan, or None for a probs trace (decoding its floats costs a scan's time
    anyway) and for a K beyond re's largest repeat count."""
    if not header.has_probs:
        with suppress(OverflowError):
            return re.compile(_RECORD_LINE % (header.top_k - 1))
    return None


def _raise_line_error(raws: list[bytes], line_no: int, header: TraceHeader) -> None:
    """Raise the error of the first line of a block, starting at ``line_no``,
    that breaks a line or field rule, found by running the rules again over
    one line at a time."""
    for line_no, raw in enumerate(raws, line_no):
        obj = _line_object(raw, line_no)
        if obj is not None and type(message := _block_arrays([obj], header)) is str:
            raise TraceError(message, line_no)


def _violation_error(violations: list[Violation], n_records: int) -> TraceError:
    return TraceError(f"{len(violations)} invariant violation(s); first: {violations[0]}",
                      violations=violations, n_records=n_records)


def _ragged_error(header: TraceHeader, keys: np.ndarray, tops, probs, order) -> TraceError:
    """The violations of records no RoutingTrace holds, from the blocks'
    ``tops`` and ``probs`` (arrays or lists) in key ``order``. The rules see
    a run of rows at a time, topk padded with inf (which sorts after every id)
    to the run's widest row in at most ``_CELLS`` entries or one row."""
    def rows(blocks):  # one list per row, in key order
        lists = chain.from_iterable(b if type(b) is list else b.tolist() for b in blocks)
        return np.fromiter(lists, object, len(keys))[order]

    tops = rows(tops)
    r = _Rows(header, keys, tops, np.fromiter(map(len, tops), np.int64, len(tops)), None, None)
    if header.has_probs:  # a row not N long is kept as zeros: only its length is read
        n, probs = header.n_routed_experts, rows(probs)
        r = r._replace(probs=np.array([p if len(p) == n else [0] * n for p in probs], np.float64),
                       n_probs=np.fromiter(map(len, probs), np.int64, len(probs)))
    out: list[Violation] = []
    widths, start, widest = np.maximum(r.n_topk, header.top_k).tolist(), 0, 0
    for end, width in enumerate(widths + [0]):
        if end > start and (end == len(widths) or max(widest, width) * (end + 1 - start) > _CELLS):
            topk = np.full((end - start, widest), math.inf, object)
            for i, row in enumerate(tops[start:end]):
                topk[i, :len(row)] = row
            run = _Rows(header, *(None if a is None else a[start:end] for a in r[1:]))
            out += _record_violations(run._replace(topk=topk))
            start, widest = end, 0
        widest = max(widest, width)
    _cross_record_violations(header, list(map(tuple, keys.tolist())), out)
    return _violation_error(out, len(keys))


def _read(lines: Iterator[bytes]) -> RoutingTrace:
    """The trace on ``lines``, its rows sorted by key (see :func:`parse_trace`)."""
    for line_no, raw in enumerate(lines, 1):  # blank lines, then the header
        if (obj := _line_object(raw, line_no)) is not None:
            header, header_line = _parse_header(obj, line_no), line_no
            break
    else:
        raise TraceError("empty input: missing header line", line_no=None)
    blocks = [_block_arrays([], header)]
    peak, peak_line = 0, None  # the largest segment id or step index, and its line
    grammar = _record_grammar(header)
    while raws := list(islice(lines, _BLOCK)):
        if grammar and all(map(grammar.fullmatch, raws)):  # one record a line, no blanks
            ints = np.fromstring(b"".join(raws).translate(_DIGITS_ONLY), np.int64, sep=" ")
            ints = ints.reshape(len(raws), 4 + header.top_k)
            arrays, at = (ints[:, :4], ints[:, 4:], None), range(len(raws))
        else:  # the JSON path, the only one that names a line's error
            scanned = _scan_block(raws)
            arrays = scanned and _block_arrays(scanned[0], header)
            if type(arrays) is not tuple:  # None or a message: a line breaks a rule
                _raise_line_error(raws, line_no + 1, header)
            at = scanned[1]
        if at:
            top = arrays[0][:, :2].max(axis=1)
            j = int(top.argmax())
            if top[j] > peak:
                peak, peak_line = int(top[j]), line_no + 1 + at[j]
            blocks.append(arrays)
        line_no += len(raws)
    keys, tops, probs = zip(*blocks)
    keys = np.concatenate(keys)
    # A dense trace of R records has segment ids and step indices below R. Ids up
    # to R still parse, so validate can list a small gap; larger ones are refused,
    # before segment_lengths is sized by them and contiguity walks every gap.
    if peak > len(keys):
        raise TraceError(f"segment id or step index {peak} exceeds the record count "
                         f"{len(keys)}", peak_line)
    order = np.lexsort(keys.T[::-1])
    if (np.diff(order) == 1).all():
        order = slice(None)  # already sorted: index without a copy
    keys = keys[order]
    # The coverage rule lists each (layer, batch) pair a present step lacks;
    # more missing records than given means a header far larger than its trace.
    n_steps = len(keys) and 1 + int((keys[1:, :2] != keys[:-1, :2]).any(axis=1).sum())
    if n_steps * header.n_moe_layers * header.batch_size > 2 * len(keys):
        raise TraceError(f"n_moe_layers={header.n_moe_layers} x batch_size={header.batch_size} "
                         f"over the {n_steps} steps present asks for more than twice the "
                         f"{len(keys)} records given", header_line)
    if keys.dtype == object or list in map(type, tops + probs):
        raise _ragged_error(header, keys, tops, probs, order)
    probs = None if probs[0] is None else np.concatenate(probs)[order]
    return RoutingTrace(header, keys, np.concatenate(tops)[order], probs, _segment_lengths(keys))


def parse_trace(stream: bytes | IO[bytes], validate: bool = True) -> RoutingTrace:
    """Parse a line-delimited trace from bytes or a binary file, sort its
    rows by key, and validate.

    Raises TraceError with the 1-based line number for structural problems and
    with the collected violations for semantic ones. ``validate=False`` skips
    the semantic pass so a structurally parseable trace can be handed to
    :func:`validate_trace` for a full violation listing. Records that parse
    but that no RoutingTrace holds (see the module docstring) raise with
    their violations either way, since no trace can be built from them.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)  # lines end at "\n" only, as in a file
    trace = _read(iter(stream))
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


class _Rows(NamedTuple):
    """A trace's rows as the per-record rules read them: a row holds the first
    ``n_topk`` entries of ``topk``, and its probs unless ``n_probs`` is not N.
    A length column of one entry stands for every row."""
    header: TraceHeader
    keys: np.ndarray
    topk: np.ndarray
    n_topk: np.ndarray
    probs: np.ndarray | None
    n_probs: np.ndarray | None


def _held(r: _Rows) -> np.ndarray:
    """bool[R, W]: the topk entries each row holds ([1, W] for one length)."""
    return np.arange(r.topk.shape[1]) < r.n_topk[:, None]


def _repeated(r: _Rows) -> np.ndarray:
    ranked = np.sort(r.topk, axis=1)  # a row's padding sorts after its ids
    return ((ranked[:, 1:] == ranked[:, :-1]) & _held(r)[:, 1:]).any(axis=1)


def _sum_off(r: _Rows) -> np.ndarray:
    """Rows whose probs, added left to right by Python's ``sum``, are not
    within PROB_SUM_TOL of 1. numpy's pairwise sum is within far less than
    PROB_SUM_TOL / 2 of it, so it picks the rows to add up."""
    off = np.zeros(len(r.probs), bool)
    near = np.flatnonzero(np.abs(r.probs.sum(axis=1) - 1.0) > PROB_SUM_TOL / 2)
    off[near] = [abs(sum(p) - 1.0) > PROB_SUM_TOL for p in r.probs[near].tolist()]
    return off


def _not_top(r: _Rows) -> np.ndarray:
    ids, top = r.topk[:, :r.header.top_k], topk_rows(r.probs, r.header.top_k)
    off = (ids != top).any(axis=1)  # rows stored in Top-K order need no sort
    off[off] = (np.sort(ids[off], axis=1) != np.sort(top[off], axis=1)).any(axis=1)
    return (r.n_topk == r.header.top_k) & off


# The per-record rules in the order a record is checked, each stated once:
# (rule, the rows that break it -- or the topk entries, for a rule worded
# once per entry --, the messages for row i given its entry hits).
_RECORD_RULES = (
    ("range", lambda r: r.keys[:, 2] >= r.header.n_moe_layers,
     lambda r, i, _: [f"layer_id {r.keys[i, 2]} >= n_moe_layers"]),
    ("range", lambda r: r.keys[:, 3] >= r.header.batch_size,
     lambda r, i, _: [f"batch_index {r.keys[i, 3]} >= batch_size"]),
    ("arity", lambda r: r.n_topk != r.header.top_k,
     lambda r, i, _: [f"topk has {r.n_topk[i]} entries, expected K={r.header.top_k}"]),
    ("distinctness", _repeated, lambda r, i, _: ["duplicate expert id within topk"]),
    ("range", lambda r: _held(r) & ((r.topk < 0) | (r.topk >= r.header.n_routed_experts)),
     lambda r, i, hit: [f"expert id {e} out of range [0,{r.header.n_routed_experts})"
                        for e in r.topk[i][hit].tolist()]),
)
# The probs rules, which a row's probs meet only up to the first it breaks.
_PROBS_RULES = (
    ("probs_shape", lambda r: r.n_probs != r.header.n_routed_experts,
     lambda r, i, _: [f"probs length {r.n_probs[i]}, expected N_r={r.header.n_routed_experts}"]),
    ("probs_nonfinite", lambda r: ~np.isfinite(r.probs).all(axis=1),
     lambda r, i, _: ["NaN or infinite probability entry"]),
    ("probs_negative", lambda r: (r.probs < 0).any(axis=1),
     lambda r, i, _: ["negative probability entry"]),
    ("probs_sum", _sum_off,
     lambda r, i, _: [f"probs sum {sum(r.probs[i].tolist())!r} not within {PROB_SUM_TOL} of 1"]),
    ("probs_topk", _not_top, lambda r, i, _: [
        f"topk {sorted(r.topk[i, :r.header.top_k].tolist())} is not the Top-{r.header.top_k} "
        f"of probs {sorted(topk(r.probs[i], r.header.top_k))}"]),
)


def _record_violations(r: _Rows) -> list[Violation]:
    """Every row's breaches of the per-record rules, row by row and in rule
    order within a row; each rule is tested over all rows at once."""
    rules = _RECORD_RULES + (_PROBS_RULES if r.probs is not None else ())
    hits, flags = [], np.empty((len(rules), len(r.keys)), bool)
    going = np.ones(len(r.keys), bool)  # rows whose probs broke no probs rule yet
    with np.errstate(invalid="ignore", over="ignore"):  # sums of inf or huge entries
        for j, (_, test, _) in enumerate(rules):
            hits.append(test(r))
            flags[j] = (hits[j].any(axis=1) if hits[j].ndim == 2 else hits[j]) & going
            if j >= len(_RECORD_RULES):
                going &= ~flags[j]
    flagged = np.flatnonzero(flags.any(axis=0))
    out: list[Violation] = []
    for i, key, row_flags in zip(flagged.tolist(), r.keys[flagged].tolist(),
                                 flags[:, flagged].T.tolist()):
        where = "(s={},t={},l={},b={})".format(*key)
        for (rule, _, words), hit, flag in zip(rules, hits, row_flags):
            if flag:
                out.extend(Violation(rule, where, m) for m in words(r, i, hit[i]))
    return out


def validate_trace(trace: RoutingTrace) -> list[Violation]:
    """Check every invariant; returns an empty list iff the trace is well-formed.

    Violations are data, not exceptions: each one names the offending record
    coordinates and the rule it breaks, row by row and in rule order within a
    row. Cross-record rules are checked in full unless every segment length
    is >= 1 and the keys are exactly the dense grid implied by
    ``segment_lengths``, which breaks none.
    """
    h = trace.header
    n_probs = None if trace.probs is None else np.array([h.n_routed_experts])
    out = _record_violations(_Rows(h, trace.keys, trace.topk, np.array([h.top_k]),
                                   trace.probs, n_probs))
    dense = (all(length >= 1 for length in trace.segment_lengths)
             and trace._grid is not None and np.array_equal(trace.keys, trace._grid))
    if not dense:
        _cross_record_violations(h, list(map(tuple, trace.keys.tolist())), out)
        derived = _segment_lengths(trace.keys)
        if trace.segment_lengths != derived:
            out.append(Violation("segment_lengths", "trace",
                                 f"declared {trace.segment_lengths}, derived {derived}"))
    return out


def _cross_record_violations(h: TraceHeader, keys: list[tuple], out: list[Violation]) -> None:
    """Ordering, duplicate, coverage and segment-structure rules over the record keys."""
    if keys != sorted(keys):
        out.append(Violation("ordering", "trace", "records not sorted by (s,t,l,b)"))
    seen = Counter(keys)
    for key, count in seen.items():
        if count > 1:
            out.append(Violation("duplicate", str(key), f"record appears {count} times"))

    # Coverage: every present (s,t) must carry the full (layer, batch) grid.
    steps: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for s, t, l, b in seen:
        steps.setdefault((s, t), set()).add((l, b))
    full = {(l, b) for l in range(h.n_moe_layers) for b in range(h.batch_size)}
    for (s, t), present in sorted(steps.items()):
        for l, b in sorted(full - present):
            out.append(Violation("coverage", f"(s={s},t={t})",
                                 f"missing record for layer={l}, batch={b}"))

    # Segment structure: contiguous segment ids, contiguous step indices from 0.
    seg_steps: dict[int, set[int]] = {}
    for s, t in steps:
        seg_steps.setdefault(s, set()).add(t)
    for s in range(max(seg_steps, default=-1) + 1):
        if s not in seg_steps:
            out.append(Violation("segments", f"s={s}", "segment id gap"))
            continue
        for t in range(max(seg_steps[s]) + 1):
            if t not in seg_steps[s]:
                out.append(Violation("contiguity", f"(s={s},t={t})",
                                     "step index gap within segment"))


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
            pool = list(range(n))  # the experts not kept, in id order
            for e in sorted(kept, reverse=True):
                del pool[e]
            # The draws and generator state of rng.choice(pool, ...), without the array.
            cur = kept + [pool[i] for i in
                          rng.choice(len(pool), k - len(kept), replace=False).tolist()]
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
