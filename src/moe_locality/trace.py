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
the Top-K ids in stored order and ``probs`` float64[R, N] the distributions
(None for an index-only trace). The steps of each segment are derived from
the keys, never stored beside them, and so is ``routes``, the one checked
view of a dense trace's Top-K rows as int[steps, L, B, K].

On-disk format (UTF-8, one JSON object per line):

    {"type":"header","n_moe_layers":L,"n_routed_experts":N,"top_k":K,"batch_size":B,"has_probs":bool}
    {"s":0,"t":0,"l":0,"b":0,"topk":[3,17,...],"probs":[...]}   # probs only when has_probs
    ...

Lines end at ``\\n`` only, for bytes and files alike; whitespace around a line
(the ``\\r`` of ``\\r\\n`` included) is ignored and blank lines are skipped.
Probabilities are serialized with 17 significant digits so that
``parse_trace(write_trace(x)) == x`` holds bit-for-bit; a non-finite one is
written ``NaN``, ``Infinity`` or ``-Infinity``, which the loader reads back
(and validation refuses). Records are written a block of rows at a time,
index-only and probs traces alike, the probabilities encoded into
fixed-width fields by the exact inverse of the parser's decoder, with the
bytes of formatting each one by itself: :func:`save_trace` writes one block
at a time and never holds the whole output, and :func:`write_trace` joins
the same blocks.

:func:`parse_trace` reads the input once, a block of lines at a time. A
block whose every line is a record exactly as :func:`write_trace` emits it
(ids of at most 18 digits, and in a probs trace N fixed-width
``D.DDDDDDDDDDDDDDDDe±DD`` probabilities) is converted into arrays at once,
with no JSON scan: its integers in one pass, its probabilities by an exact
vectorized decoder that gives the bits ``float`` gives. Any other block
takes the JSON path, which alone decides errors: it reads each line into one
object with ``json.loads``, as the header line is read, runs the field rules
over the block's columns and converts the block into arrays. When a block
breaks a rule, the same rules run again over its lines one at a time, so the
error names the first line that breaks one: a line that is not UTF-8 or not one JSON object (too deep a nesting included), a
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
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
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
            and all(map(np.array_equal, (self.keys, self.topk, self.probs),
                        (other.keys, other.topk, other.probs)))
        )

    @property
    def n_records(self) -> int:
        return len(self.keys)

    @cached_property
    def segment_lengths(self) -> tuple[int, ...]:
        """One past the largest step index of each segment id up to the largest
        (0 for an absent id), from the (s, t) columns of ``keys``."""
        if not len(self.keys):
            return ()
        lengths = np.zeros(int(self.keys[:, 0].max()) + 1, dtype=np.int64)
        np.maximum.at(lengths, self.keys[:, 0], self.keys[:, 1] + 1)
        return tuple(lengths.tolist())

    @cached_property
    def segment_offsets(self) -> tuple[int, ...]:
        """First global step index of each segment, plus the total step count."""
        offsets = [0]
        for length in self.segment_lengths:
            offsets.append(offsets[-1] + length)
        return tuple(offsets)

    @cached_property
    def routes(self) -> np.ndarray:
        """The Top-K rows of a dense trace as one read-only int[steps, L, B, K]
        view: ``routes[i, l, b]`` is the set of slot (l, b) at the i-th step,
        in trace order, whose (s, t) is ``step_keys[i]``.

        Rows sorted by key sit in exactly that layout; this is the one place
        that reads it. The keys are compared with the dense grid of the
        segment lengths once per trace, the sizes first, so a header-sized
        grid is never built: a trace that is not dense (a key missing,
        repeated or out of place) raises KeyError.
        """
        h = self.header
        steps = self.segment_offsets[-1]
        if steps * h.n_moe_layers * h.batch_size != len(self.keys):
            raise KeyError(
                f"trace is not dense: {len(self.keys)} records for {steps} "
                f"steps x {h.n_moe_layers} layers x {h.batch_size} batch items"
            )
        grid = _dense_keys(h, self.segment_lengths)
        bad = np.flatnonzero((self.keys != grid).any(axis=1))
        if len(bad):
            raise KeyError(f"trace is not dense at {tuple(grid[bad[0]].tolist())}")
        return self.topk.reshape(steps, h.n_moe_layers, h.batch_size, h.top_k)

    @property
    def step_keys(self) -> np.ndarray:
        """int[steps, 2]: the (s, t) of each step of :attr:`routes`."""
        return self.keys.reshape(*self.routes.shape[:3], 4)[:, 0, 0, :2]

    @cached_property
    def route_sets(self) -> np.ndarray:
        """:attr:`routes`, once every row is checked to hold K distinct experts
        in [0, N), so that overlaps counted over the rows are set
        intersections; raises ValueError naming the first slot that does not."""
        h = self.header
        routes = self.routes
        # Sorted, a set of K experts in [0, N) rises strictly from >= 0 to < N.
        ranked = np.sort(routes, axis=-1)
        sets = ((ranked[..., 1:] > ranked[..., :-1]).all(axis=-1) & (ranked[..., 0] >= 0)
                & (ranked[..., -1] < h.n_routed_experts))
        bad = np.argwhere(~sets.all(axis=0))
        if len(bad):
            layer, batch = bad[0].tolist()
            raise ValueError(
                f"every Top-K set of layer {layer}, batch {batch} must be a set of "
                f"size K={h.top_k} of experts in [0, {h.n_routed_experts})"
            )
        return routes


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


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_INTS = frozenset((int,))
_NUMBERS = frozenset((int, float))
_LISTS = frozenset((list,))
_BLOCK = 512  # lines read and converted into arrays at a time
_CELLS = 1 << 16  # padded topk entries tested at a time in rows no RoutingTrace holds
_KEY_FIELDS = itemgetter("s", "t", "l", "b")
_TOPK_FIELD = itemgetter("topk")
# A record line as write_trace emits it up to its probs, where I is a JSON
# integer of at most 18 digits, so that every id fits int64.
_RECORD_HEAD = rb'\{"s":I,"t":I,"l":I,"b":I,"topk":\[I(?:,I){%d}\]'.replace(
    b"I", rb"(?:0|[1-9][0-9]{0,17})")
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))  # others to spaces
# A written probability (_PROB_FORMAT, D.DDDDDDDDDDDDDDDDe±DD) and the "," or "]"
# after it. _FIELD_SHAPE maps every digit to "0" and "-" to "+", which leaves
# exactly _FIELD of a well-formed one.
_FIELD = b"0.0000000000000000e+00,"
_FIELD_SHAPE = bytes(0x30 if 0x30 <= c <= 0x39 else 0x2B if c == 0x2D else c for c in range(256))
_PROBS_ENDS = frozenset((b"}", b"}\n"))
# 10^(16 - e) for the exponents e in [-99, 16], at e + 99: the field with digits
# M and exponent e is M / 10^(16 - e). Each power is the long double nearest it.
_POW10 = np.array([f"1e{16 - e}" for e in range(-99, 17)]).astype(np.longdouble)
# The x87 80-bit long double, whose 64-bit significand is its first 8 bytes.
_EXTENDED = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
             and sys.byteorder == "little")


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
        obj = json.loads(line)
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
    scan, or None for a K beyond re's largest repeat count. It is the whole
    line of an index-only trace, and of a probs trace the line up to its
    probs, which :func:`_written_block` reads as N fixed-width fields."""
    tail = rb',"probs":\[' if header.has_probs else rb'\}\n?'
    with suppress(OverflowError):
        return re.compile(_RECORD_HEAD % (header.top_k - 1) + tail)
    return None


def _mantissas(fields: np.ndarray) -> np.ndarray:
    """The 17 digits of each uint8 row D.DDDDDDDDDDDDDDDD... as one uint64.
    Digits 2-9 and 10-17 are read as two little-endian words of eight ASCII
    digits, each combined by three multiplies (Lemire, "Number Parsing at a
    Gigabyte per Second", 2021)."""
    words = fields[:, 2:18].copy().view("<u8")
    for mask, scale, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8),
                               (0x00FF00FF00FF00FF, 6553601, 16),
                               (0x0000FFFF0000FFFF, 42949672960001, 32)):
        words &= mask
        words *= scale
        words >>= shift
    m = words[:, 0] * 10**8
    m += words[:, 1]
    m += (fields[:, 0] & 0x0F) * np.uint64(10**16)
    return m


def _fixed_floats(runs: bytes) -> np.ndarray:
    """float64 of each _FIELD-wide probability in ``runs``, whose shape the
    caller has checked, bit-identical to ``float`` of its text.

    A field is M / 10^k, with M its 17 digits and k = 16 - e. With both M
    and the power held in a long double of 64 significant bits (the power
    within half a unit of the last place, ulp64), the one rounded division
    lands within 2 ulp64 of the true quotient. Rounding it to float64 drops
    the low 11 bits of its significand, so it rounds the true quotient the
    same way unless those bits are within a few units of the half-way point
    0x400. Such fields, those whose k has no power in the table, and every
    field where the long double is not the x87 format go through ``float``.
    """
    fields = np.frombuffer(runs, np.uint8).reshape(-1, len(_FIELD))
    at = (fields[:, 20] & 0x0F) * 10 + (fields[:, 21] & 0x0F)  # |e|, then e + 99
    at = np.where(fields[:, 19] == 0x2D, 99 - at, 99 + at)
    slow = at >= len(_POW10)
    if _EXTENDED:
        q = _mantissas(fields).astype(np.longdouble)
        q /= _POW10[np.minimum(at, len(_POW10) - 1)]
        out = q.astype(np.float64)
        low = q.view(np.uint64)[::2] & 0x7FF
        low -= 0x3FC  # wraps below 0x3FC, so only bits within 4 of 0x400 stay <= 8
        slow |= low <= 8
    else:
        out, slow = np.empty(len(fields)), np.ones(len(fields), bool)
    slow = np.flatnonzero(slow)
    starts = (slow * len(_FIELD)).tolist()
    out[slow] = [float(runs[i:i + len(_FIELD) - 1]) for i in starts]
    return out


def _written_block(grammar: re.Pattern, raws: list[bytes], header: TraceHeader) -> tuple | None:
    """The block's ``(keys, topk, probs)`` if its every line is a record
    exactly as :func:`write_trace` emits it, converted with no JSON scan;
    else None. Such a line holds only what the JSON path would accept, and
    both give the same arrays for it."""
    probs = None
    if not header.has_probs:
        if not all(map(grammar.fullmatch, raws)):
            return None
        heads = raws
    else:  # the head, N fields, then "]}" and an optional "\n"
        if not all(matches := list(map(grammar.match, raws))):
            return None
        ends = list(map(re.Match.end, matches))
        width = len(_FIELD) * header.n_routed_experts
        if not {raw[e + width:] for raw, e in zip(raws, ends)} <= _PROBS_ENDS:
            return None
        runs = [raw[e:e + width] for raw, e in zip(raws, ends)]
        row = (_FIELD * header.n_routed_experts)[:-1] + b"]"
        if not all(map(row.__eq__, map(bytes.translate, runs, repeat(_FIELD_SHAPE)))):
            return None
        runs = b"".join(runs)  # drops the per-line copies before decoding
        probs = _fixed_floats(runs).reshape(len(raws), header.n_routed_experts)
        heads = [raw[:e] for raw, e in zip(raws, ends)]
    ints = np.fromstring(b"".join(heads).translate(_DIGITS_ONLY), np.int64, sep=" ")
    ints = ints.reshape(len(raws), 4 + header.top_k)
    return ints[:, :4], ints[:, 4:], probs


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
    a run of rows at a time, in at most ``_CELLS`` entries or one row, sized
    by the rows stored and never by the header: topk padded with inf (which
    sorts after every id) to the run's widest row, and probs N wide if some
    row of the run is N long, else empty. A row not N long is kept as zeros:
    only its length is read."""
    def rows(blocks):  # one list per row, in key order
        lists = chain.from_iterable(b if type(b) is list else b.tolist() for b in blocks)
        return np.fromiter(lists, object, len(keys))[order]

    def lengths(lists):
        return np.fromiter(map(len, lists), np.int64, len(lists))

    tops = rows(tops)
    r = _Rows(header, keys, tops, lengths(tops), None, None)
    if header.has_probs:
        probs = rows(probs)
        r = r._replace(probs=probs, n_probs=lengths(probs))
    out: list[Violation] = []
    widths = (r.n_topk if r.probs is None else np.maximum(r.n_topk, r.n_probs)).tolist()
    start, widest = 0, 0
    for end, width in enumerate(widths + [0]):
        if end > start and (end == len(widths) or max(widest, width) * (end + 1 - start) > _CELLS):
            run = _Rows(header, *(None if a is None else a[start:end] for a in r[1:]))
            topk = np.full((end - start, run.n_topk.max()), math.inf, object)
            for i, row in enumerate(run.topk):
                topk[i, :len(row)] = row
            run = run._replace(topk=topk)
            if run.probs is not None:
                whole = np.flatnonzero(run.n_probs == header.n_routed_experts)
                padded = np.zeros((end - start, header.n_routed_experts if len(whole) else 0))
                for i in whole.tolist():
                    padded[i] = run.probs[i]
                run = run._replace(probs=padded)
            out += _record_violations(run)
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
        if grammar and (arrays := _written_block(grammar, raws, header)):
            at = range(len(raws))  # one record a line, no blanks
        else:  # the JSON path, the only one that names a line's error
            try:
                objs = list(map(_line_object, raws, count(line_no + 1)))
                at = [i for i, obj in enumerate(objs) if obj is not None]
                arrays = _block_arrays([objs[i] for i in at], header)
            except TraceError:  # a line is not one JSON object
                arrays = None
            if type(arrays) is not tuple:  # None or a message: a line breaks a rule
                _raise_line_error(raws, line_no + 1, header)
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
    # before the derived segment_lengths is sized by them and contiguity walks every gap.
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
    return RoutingTrace(header, keys, np.concatenate(tops)[order], probs)


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
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # JSON's spelling
_ENCODE_FIELDS = 1 << 12  # probabilities, or ids of an index-only trace, in one block of lines


def _digit_pairs() -> np.ndarray:
    """The two ASCII digits of each integer below 100 as one little-endian
    uint32 (its high half zero)."""
    i = np.arange(100, dtype=np.uint32)
    return (i // 10 | i % 10 << 8) + 0x3030


# The four digits of each integer i below 10^4 (those of i // 100, then of
# i % 100), and "e±DD" of each exponent e of _POW10 at e + 99, each as one
# little-endian word.
_QUADS = (_digit_pairs()[:, None] | _digit_pairs() << 16).ravel()
_EXPONENTS = (np.where(np.arange(len(_POW10)) < 99, ord("e") | ord("-") << 8,
                       ord("e") | ord("+") << 8).astype(np.uint32)
              | _digit_pairs()[abs(np.arange(len(_POW10)) - 99)] << 16)


def _decimals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal form of each float64 of ``x`` in its _PROB_FORMAT text:
    the exponent e (as e + 99, an index of _POW10), the 17-digit mantissa M
    (uint64), and bool: both are exact. The inverse of
    :func:`_fixed_floats`, and as exact.

    A positive x is written as M = round(y), ties to even, with y = x * 10^k,
    k = 16 - e, and M in [10^16, 10^17). e = floor(log10(x)) is a guess that
    M checks: taken one too high, y < 10^16 and so M <= 10^16; one too low,
    y >= 10^17 and M >= 10^17. M strictly between the two proves e right.
    q is x times the table's power 10^k, with the power and the one rounded
    product each within half a unit of the last place of a long double of
    64 significant bits, so q is within about q * 2^-63 of y. rint(q) is
    then round(y) unless q lies within twice that, about M * 2^-62, of a
    half-integer. Such fields (exact ties included), those whose M or e is
    out of range, zero, negative, subnormal and non-finite ones, and every
    field where the long double is not the x87 format are not exact here.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log10(x)
        np.floor(e, out=e)
        exact = (e >= -99) & (e < len(_POW10) - 99)
        e[~exact] = 0
        e += 99
        at = e.astype(np.intp)
        if not _EXTENDED:
            return at, np.zeros(len(x), np.uint64), np.zeros(len(x), bool)
        q = x.astype(np.longdouble)
        q *= _POW10[at]
        m = np.rint(q)
        q -= m  # exact, and so is its float64: a multiple of q's ulp, at most 1/2
        off = np.abs(q.astype(np.float64))
        off -= 0.5
        m = m.astype(np.uint64)
        exact &= (np.abs(off) > m * 2.0**-62) & (m > 10**16) & (m < 10**17)
    return at, m, exact


def _digit_quads(m: np.ndarray) -> np.ndarray:
    """uint32[len(m), 4]: the 16 digits of each M after its first, as four
    numbers below 10^4."""
    quads = np.empty((len(m), 4), np.uint32)
    for i, half in enumerate(np.divmod(m % np.uint64(10**16), np.uint64(10**8))):
        quads[:, 2 * i], quads[:, 2 * i + 1] = np.divmod(half.astype(np.uint32), 10**4)
    return quads


def _fixed_texts(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float64 of ``p`` (float[rows, N]) as its _PROB_FORMAT text in a
    _FIELD, as uint8[rows, N, 23] with "]" after a row's last field, and
    bool[rows]: the rows holding a text that is not _FIELD wide (a sign, a
    3-digit exponent, inf or nan), whose fields the caller formats itself.
    A field whose decimal form :func:`_decimals` does not settle goes
    through _PROB_FORMAT alone."""
    x = p.ravel()
    at, m, exact = _decimals(x)
    out = np.empty((len(x), len(_FIELD)), np.uint8)
    out[:, 0] = m // np.uint64(10**16)
    out[:, 0] |= 0x30
    out[:, 1] = ord(".")
    out[:, 2:18] = _QUADS[_digit_quads(m)].view(np.uint8)
    out[:, 18:22] = _EXPONENTS[at, None].view(np.uint8)
    out[:, 22] = ord(",")
    slow = np.flatnonzero(~exact)
    texts = list(map(_PROB_FORMAT, x[slow].tolist()))
    wide = np.fromiter(map(len, texts), np.int64, len(texts)) == len(_FIELD) - 1
    fixed = "".join(compress(texts, wide.tolist())).encode()
    out[slow[wide], :-1] = np.frombuffer(fixed, np.uint8).reshape(-1, len(_FIELD) - 1)
    uneven = np.zeros(len(p), bool)
    uneven[slow[~wide] // p.shape[1]] = True
    out = out.reshape(*p.shape, len(_FIELD))
    out[:, -1, -1] = ord("]")
    return out, uneven


def _prob_text(x: float) -> str:
    """One probability as _PROB_FORMAT writes it, a non-finite one as the
    loader reads it back."""
    text = _PROB_FORMAT(x)
    return _NON_FINITE.get(text, text)


def _record_lines(trace: RoutingTrace) -> Iterator[bytes]:
    """The rows as UTF-8 lines, "\\n" included, a block of rows at a time."""
    h = trace.header
    rows = max(1, _ENCODE_FIELDS // (h.top_k if trace.probs is None else h.n_routed_experts))
    for start in range(0, trace.n_records, rows):
        block = slice(start, start + rows)
        yield _block_lines(trace.keys[block], trace.topk[block],
                           None if trace.probs is None else trace.probs[block])


def _block_lines(keys: np.ndarray, topk: np.ndarray, probs: np.ndarray | None) -> bytes:
    """The lines of a block of rows; in a probs trace their probability
    texts are read in place from the block :func:`_fixed_texts` writes."""
    heads = (f'{{"s":{s},"t":{t},"l":{l},"b":{b},"topk":[{",".join(map(str, ids))}]'
             for (s, t, l, b), ids in zip(keys.tolist(), topk.tolist()))
    if probs is None:
        return "".join([head + "}\n" for head in heads]).encode("utf-8")
    texts, uneven = _fixed_texts(probs)
    width = texts[0].size
    texts = memoryview(texts.reshape(-1))
    parts = []
    for i, head, p, other_width in zip(range(0, len(texts), width), heads, probs,
                                       uneven.tolist()):
        if other_width:  # a text not _FIELD wide: the row field by field
            row = (",".join(map(_prob_text, p.tolist())) + "]").encode("utf-8")
        else:
            row = texts[i:i + width]
        parts += ((head + ',"probs":[').encode("utf-8"), row, b"}\n")
    return b"".join(parts)


def _written(trace: RoutingTrace) -> Iterator[bytes]:
    """The header line, then :func:`_record_lines`."""
    header = json.dumps({"type": "header", **asdict(trace.header)}, separators=(",", ":"))
    yield (header + "\n").encode("utf-8")
    yield from _record_lines(trace)


def write_trace(trace: RoutingTrace) -> bytes:
    """Serialize a trace, one line per row in row order (sorted by key in a
    parsed or generated trace): the join of the blocks :func:`save_trace`
    writes one at a time, so the output is held about twice here (the
    blocks and their join) and never whole there."""
    return b"".join(_written(trace))


def load_trace(path) -> RoutingTrace:
    with open(path, "rb") as f:
        return parse_trace(f)


def save_trace(trace: RoutingTrace, path, write=None) -> None:
    """Write ``write_trace(trace)`` to ``path`` a chunk at a time, through
    ``write(path, chunks)`` when given (the CLI passes its atomic writer),
    else in place: the whole output is never held."""
    chunks = _written(trace)
    if write is None:
        with open(path, "wb") as f:
            f.writelines(chunks)
    else:
        write(path, chunks)


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
    """Rows K and N long whose topk is not the Top-K of their probs under
    :func:`topk_rows`'s tie rule. Any other row breaks the arity or
    probs_shape rule first; with none K and N long, the padded arrays may be
    narrower than K or N and are not read. A row with a NaN breaks
    probs_nonfinite first, so its answer is not read either.

    K distinct ids in [0, N) are the Top-K iff no outsider beats the weakest
    member, and an outsider that ties it has a higher index than every
    member of that value; no row is sorted.
    """
    k, n = r.header.top_k, r.header.n_routed_experts
    whole = (r.n_topk == k) & (r.n_probs == n)
    if not whole.any():
        return whole
    ids = r.topk[:, :k]
    held = ((ids >= 0) & (ids < n)).all(axis=1)
    member = np.zeros(r.probs.shape, bool)
    np.put_along_axis(member, np.where(held[:, None], ids, 0).astype(np.int64), True, axis=1)
    weakest = np.where(member, r.probs, np.inf).min(axis=1)
    strongest = np.where(member, -np.inf, r.probs).max(axis=1)
    top = held & (member.sum(axis=1) == k) & (weakest >= strongest)
    tied = np.flatnonzero(top & (weakest == strongest))
    if len(tied):
        value = r.probs[tied] == weakest[tied, None]
        inside = member[tied]
        # A member of that value after an outsider of it breaks the tie rule.
        late = np.logical_or.accumulate(value & ~inside, axis=1) & value & inside
        top[tied] = ~late.any(axis=1)
    return whole & ~top


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
    is >= 1 and :attr:`RoutingTrace.routes` reads the keys as the dense grid
    of the segment lengths they imply, which breaks none.
    """
    h = trace.header
    n_probs = None if trace.probs is None else np.array([h.n_routed_experts])
    out = _record_violations(_Rows(h, trace.keys, trace.topk, np.array([h.top_k]),
                                   trace.probs, n_probs))
    try:
        trace.routes
    except KeyError:
        dense = False
    else:
        dense = min(trace.segment_lengths, default=1) >= 1
    if not dense:
        _cross_record_violations(h, list(map(tuple, trace.keys.tolist())), out)
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
    slots share one expert-set stream. ``seed`` seeds numpy's
    ``default_rng``, whose Generator calls :func:`synth_trace` replays.
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
        if self.n_routed_experts >= 2**63:  # numpy's Generator.choice, replayed here, overflows
            raise ValueError(f"n_routed_experts must be below 2**63, got {self.n_routed_experts}")
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


class _Draws:
    """A draw cursor over the raw 64-bit words of a fresh
    ``np.random.default_rng(seed)``, giving bit for bit what that
    Generator's calls would return, with no per-call numpy overhead. The
    words are read a chunk at a time through ``random_raw``, so the
    generator is left past the last word used: nothing may read it after.

    Why each draw is exact (PCG64 under numpy's Generator):

    * ``random(...)`` turns a word w into the double (w >> 11) * 2^-53, so
      ``random() < p`` is (w >> 11) < p * 2^53: both sides are the double
      scaled by 2^53, exactly.
    * A 32-bit draw is the low half of a fresh word, and then its high half,
      kept for the next 32-bit draw (PCG64's ``has_uint32``); 64-bit draws
      take whole words and leave a kept half in place.
    * An integer in [0, j] is numpy's unmasked bounded draw: none for j = 0;
      a bare 32-bit draw for j = 2^32 - 1; Lemire's multiply-and-reject
      (Lemire, ACM TOMACS 2019) on 32-bit draws below that and on words
      above it, rejection loop included.
    * ``choice(m, s, replace=False)`` is Floyd's sampling (Bentley & Floyd,
      CACM 1987) over j = m - s ... m - 1, then a Fisher-Yates pass over
      positions s - 1 ... 1; past m > 10000 and s > m // 50 numpy instead
      shuffles the tail of range(m), which :meth:`choice` replays with
      sparse swaps.
    """

    __slots__ = ("_bits", "_raw", "_words", "_at", "_half")
    _CHUNK = 512

    def __init__(self, seed):
        self._bits = np.random.default_rng(seed).bit_generator
        self._raw = np.empty(0, np.uint64)
        self._words: list[int] = []  # self._raw as ints
        self._at = 0  # the next unread word
        self._half = None  # the kept high half of the last 32-bit draw's word

    def _ensure(self, count: int) -> None:
        """Hold at least ``count`` unread words."""
        if len(self._words) - self._at < count:
            raw = np.concatenate((self._raw[self._at:],
                                  self._bits.random_raw(max(count, self._CHUNK))))
            self._raw, self._words, self._at = raw, raw.tolist(), 0

    def _word(self) -> int:
        if self._at == len(self._words):
            self._ensure(1)
        self._at += 1
        return self._words[self._at - 1]

    def _u32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        w = self._word()
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def below(self, j: int) -> int:
        """An integer uniform in [0, j], for j >= 0, drawn as ``choice`` draws it."""
        if j == 0:
            return 0
        if j < 0xFFFFFFFF:
            r = j + 1
            m = self._u32() * r
            if m & 0xFFFFFFFF < r:
                cut = (0x100000000 - r) % r
                while m & 0xFFFFFFFF < cut:
                    m = self._u32() * r
            return m >> 32
        if j == 0xFFFFFFFF:
            return self._u32()
        r = j + 1
        m = self._word() * r
        if m & 0xFFFFFFFFFFFFFFFF < r:
            cut = (0x10000000000000000 - r) % r
            while m & 0xFFFFFFFFFFFFFFFF < cut:
                m = self._word() * r
        return m >> 64

    def kept(self, k: int, p: float) -> list[bool]:
        """``(rng.random(k) < p).tolist()``."""
        self._ensure(k)
        at = self._at
        self._at = at + k
        cut = p * 2.0**53
        return [w >> 11 < cut for w in self._words[at:at + k]]

    def choice(self, m: int, s: int) -> list[int]:
        """``rng.choice(m, s, replace=False).tolist()`` for 0 <= s <= m."""
        below = self.below
        if m > 10000 and s > m // 50:  # numpy's tail shuffle of range(m)
            moved: dict[int, int] = {}  # the positions a swap has written
            for i in range(m - 1, max(m - s, 1) - 1, -1):
                j = below(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(m - s, m)]
        out, seen = [], set()
        for j in range(m - s, m):
            v = below(j)
            if v in seen:
                v = j
            seen.add(v)
            out.append(v)
        for i in range(s - 1, 0, -1):
            j = below(i)
            out[i], out[j] = out[j], out[i]
        return out

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        """``rng.random(shape)``. The words stay an array: a list of ints
        would take about five times their memory."""
        count = math.prod(shape)
        at, held = self._at, len(self._words) - self._at
        if count <= held:
            words = self._raw[at:at + count]
            self._at = at + count
        else:
            words = np.concatenate((self._raw[at:], self._bits.random_raw(count - held)))
            self._at = len(self._words)
        return ((words >> 11) * 2.0**-53).reshape(shape)


def _refill(draws: _Draws, n: int, kept: list[int], k: int) -> list[int]:
    """``kept`` and then k - len(kept) distinct experts drawn uniformly from
    the others: the draws of ``rng.choice`` over the ids not kept, in id
    order, without building them. The i-th of those ids is i shifted past
    every kept id at or below it, so the cost is independent of n."""
    fill = draws.choice(n - len(kept), k - len(kept))
    ends = sorted(kept)
    for at, i in enumerate(fill):
        for e in ends:
            if i < e:
                break
            i += 1
        fill[at] = i
    return kept + fill


def _sticky_set_stream(draws: _Draws, n, k, p, steps) -> list[list[int]]:
    """One segment's expert-set sequence: keep each previous expert with
    probability p, refill the open slots uniformly from experts not yet chosen
    for the current step."""
    sets: list[list[int]] = []
    cur = draws.choice(n, k)
    sets.append(cur)
    for _ in range(1, steps):
        kept = list(compress(cur, draws.kept(k, p)))
        cur = _refill(draws, n, kept, k) if len(kept) < k else kept
        sets.append(cur)
    return sets


def _probs_for_sets(draws: _Draws, n, sets: np.ndarray, concentration) -> np.ndarray:
    """One distribution per row of ``sets`` whose Top-K is exactly that row:
    member scores are lifted above 1 while non-members stay below 1. Draws
    ``rng.random(n)`` once per row, in row order."""
    raw = draws.random((len(sets), n))
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

    A stream is ``rng.choice(N, K, replace=False)``, then per step one
    ``rng.random(K) < stickiness`` keep test and, when a slot opens, a
    ``rng.choice`` over the experts not kept; with ``emit_probs`` the
    stream's ``rng.random((steps, N))`` follows it. Here ``rng`` is
    ``default_rng(cfg.seed)``, and every call is replayed exactly from its
    raw words by :class:`_Draws` (its docstring says why each is exact).
    """
    draws = _Draws(cfg.seed)
    n, k = cfg.n_routed_experts, cfg.top_k
    n_streams = cfg.batch_size if cfg.independent_batches else 1
    sets: list[list[int]] = []  # in (segment, layer, stream, step) order
    probs: list[np.ndarray] = []
    for _ in range(cfg.n_segments * cfg.n_moe_layers * n_streams):
        stream = _sticky_set_stream(draws, n, k, cfg.stickiness, cfg.steps_per_segment)
        sets.extend(stream)
        if cfg.emit_probs:
            probs.append(_probs_for_sets(draws, n, np.array(stream), cfg.concentration))

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
                        probs if cfg.emit_probs else None)
