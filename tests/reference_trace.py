"""Per-record reference implementation of trace parsing and validation.

Deliberately plain: the oracle holds a trace as a :class:`RecordTrace`, one
``StepRecord`` per record, every record goes through every per-field check
and every per-record rule, and the cross-record rules always run in full. The
package holds a trace as arrays, converts lines into them a block at a time
and validates with whole-array screens; the differential tests require
identical results from both. Used only as a test oracle.

The bridges between the two forms live here too: ``records`` (a package
trace's rows as records), ``records_by_key`` and ``iter_steps`` (the keyed
lookups the oracles read a trace through, never the package's dense
``RoutingTrace.routes``), ``from_records`` (records sorted by key into a
package trace), and ``jsonl``, which writes records
in the order given so that traces no array holds, or that break a rule,
reach the package through its loader. ``load`` is the outcome the package's
``parse_trace`` must give for a JSONL input.

``write`` is the per-field writer: each row formatted as one line, each
probability by ``PROB_FORMAT`` alone, the oracle of the package's block
encoder.

``not_top_by_sort`` is the probs_topk screen by a full stable sort of every
row, the oracle of the package's membership test.

``sticky_set_stream`` is the synthetic generator's per-slot loop: one scalar
``rng.random()`` per kept-or-dropped slot and a refill pool built as an
array. ``refill_from_pool`` is one refill drawn from the not-kept ids built
as a list, the oracle of the generator's pool-free refill. Both build all N
ids, so they are only for small N.

``synth`` is the synthetic generator drawing from a numpy Generator, one
``rng.choice`` or ``rng.random`` call per draw, with the rows laid out by
key one record at a time: the oracle of the package's ``synth_trace``, which
replays those draws from the generator's raw words. Its set stream
(``generator_set_stream``, ``generator_refill``) never builds the N ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import compress

import numpy as np

from moe_locality.trace import (
    PROB_SUM_TOL,
    RoutingTrace,
    TraceError,
    TraceHeader,
    Violation,
)


@dataclass(frozen=True)
class StepRecord:
    """One record line as the oracle reads it."""

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
class RecordTrace:
    header: TraceHeader
    records: tuple[StepRecord, ...]


def record_trace(header: TraceHeader, records) -> RecordTrace:
    """Records sorted by key."""
    return RecordTrace(header, tuple(sorted(records, key=lambda r: r.key)))


def columnar(rt: RecordTrace) -> RoutingTrace:
    """``rt`` as the package's arrays; ValueError, OverflowError or TypeError
    when a record does not fit them."""
    h, recs = rt.header, rt.records
    keys = np.array([r.key for r in recs], dtype=np.int64).reshape(len(recs), 4)
    topk = np.array([r.topk_indices for r in recs], dtype=np.int64).reshape(len(recs), h.top_k)
    probs = None
    if h.has_probs:
        probs = np.array([r.probs for r in recs], dtype=np.float64)
        probs = probs.reshape(len(recs), h.n_routed_experts)
    return RoutingTrace(h, keys, topk, probs)


def from_records(header: TraceHeader, records) -> RoutingTrace:
    """A package trace of ``records`` sorted by key."""
    return columnar(record_trace(header, records))


def records(trace: RoutingTrace) -> tuple[StepRecord, ...]:
    """The rows of a package trace as records, in row order."""
    probs = [None] * trace.n_records if trace.probs is None else trace.probs.tolist()
    return tuple(
        StepRecord(*key, tuple(ids), None if p is None else tuple(p))
        for key, ids, p in zip(trace.keys.tolist(), trace.topk.tolist(), probs)
    )


def records_by_key(trace: RoutingTrace) -> dict:
    """(segment, step, layer, batch) -> record."""
    return {r.key: r for r in records(trace)}


def iter_steps(trace: RoutingTrace) -> list[tuple[int, int]]:
    """Every (segment, step) pair some record carries, in key order."""
    return sorted({r.key[:2] for r in records(trace)})


def jsonl(header: TraceHeader, recs) -> bytes:
    """A JSONL trace of ``recs`` in the order given (floats round-trip exactly)."""
    lines = [json.dumps({"type": "header", **asdict(header)})]
    for r in recs:
        obj = {"s": r.segment_id, "t": r.step_index, "l": r.layer_id, "b": r.batch_index,
               "topk": list(r.topk_indices)}
        if r.probs is not None:
            obj["probs"] = list(r.probs)
        lines.append(json.dumps(obj))
    return ("\n".join(lines) + "\n").encode()


PROB_FORMAT = "{:.16e}".format  # 17 significant digits: exact float64 round-trip


def prob_text(x: float) -> str:
    """One probability: PROB_FORMAT's text, or JSON's for a non-finite one."""
    return PROB_FORMAT(x) if math.isfinite(x) else json.dumps(x)


def write(trace: RoutingTrace) -> bytes:
    """A package trace as ``write_trace`` must write it: the header line,
    then one line per row in row order, each probability formatted alone
    by ``prob_text``."""
    header = json.dumps({"type": "header", **asdict(trace.header)}, separators=(",", ":"))
    lines = [header]
    probs = [None] * trace.n_records if trace.probs is None else trace.probs.tolist()
    for (s, t, l, b), ids, p in zip(trace.keys.tolist(), trace.topk.tolist(), probs):
        line = f'{{"s":{s},"t":{t},"l":{l},"b":{b},"topk":[{",".join(map(str, ids))}]'
        if p is not None:
            line += f',"probs":[{",".join(map(prob_text, p))}]'
        lines.append(line + "}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def load(data: bytes, validate: bool = True):
    """What the package's ``parse_trace(data, validate)`` must give: the trace
    as arrays, or the ``(message, line_no, violations)`` of the TraceError it
    raises. Records that no array holds always break a rule, and raise with
    their violations even without ``validate``."""
    try:
        rt = parse_trace(data)
    except TraceError as e:
        return str(e), e.line_no, ()
    try:
        trace = columnar(rt)
    except (ValueError, OverflowError, TypeError):
        trace = None
    if trace is None or validate:
        violations = tuple(validate_trace(rt))
        if violations:
            return f"{len(violations)} invariant violation(s); first: {violations[0]}", None, violations
    return trace


def sticky_set_stream(rng, n, k, p, steps) -> list[list[int]]:
    """One segment's expert-set sequence, as ``trace._sticky_set_stream``
    draws it from ``rng``."""
    sets: list[list[int]] = []
    cur = [int(e) for e in rng.choice(n, size=k, replace=False)]
    sets.append(cur)
    for _ in range(1, steps):
        kept = [e for e in cur if rng.random() < p]
        pool = np.array([e for e in range(n) if e not in kept], dtype=int)
        fill = rng.choice(pool, size=k - len(kept), replace=False) if len(kept) < k else []
        cur = kept + [int(e) for e in fill]
        sets.append(cur)
    return sets


def refill_from_pool(rng, n, kept, k) -> list[int]:
    """``kept`` and then k - len(kept) experts drawn by ``rng.choice`` over a
    list of the ids not kept, in id order."""
    pool = list(range(n))
    for e in sorted(kept, reverse=True):
        del pool[e]
    return kept + [pool[i] for i in rng.choice(len(pool), k - len(kept), replace=False).tolist()]


def generator_refill(rng, n: int, kept: list[int], k: int) -> list[int]:
    """``kept`` and then k - len(kept) distinct experts drawn uniformly from
    the others: the draws and generator state of ``rng.choice`` over the ids
    not kept, in id order, without building them. The i-th of those ids is i
    shifted past every kept id at or below it, so the cost is independent of n."""
    fill = rng.choice(n - len(kept), k - len(kept), replace=False).tolist()
    for e in sorted(kept):
        fill = [i + (i >= e) for i in fill]
    return kept + fill


def generator_set_stream(rng, n, k, p, steps) -> list[list[int]]:
    """One segment's expert-set sequence: keep each previous expert with
    probability p, refill the open slots uniformly from experts not yet chosen
    for the current step."""
    sets: list[list[int]] = []
    cur = [int(e) for e in rng.choice(n, size=k, replace=False)]
    sets.append(cur)
    for _ in range(1, steps):
        # k draws in slot order, the same stream as one rng.random() per slot.
        kept = list(compress(cur, (rng.random(k) < p).tolist()))
        cur = generator_refill(rng, n, kept, k) if len(kept) < k else kept
        sets.append(cur)
    return sets


def generator_probs(rng, n, sets: np.ndarray, concentration) -> np.ndarray:
    """One distribution per row of ``sets`` whose Top-K is exactly that row:
    member scores are lifted above 1 while non-members stay below 1. Draws
    ``rng.random(n)`` once per row, in row order."""
    raw = rng.random((len(sets), n))
    scores = raw.copy()
    rows = np.arange(len(sets))[:, None]
    scores[rows, sets] = (1.0 + concentration) * (1.0 + raw[rows, sets])
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def synth(cfg) -> RoutingTrace:
    """What ``synth_trace(cfg)`` must give: one set stream, and with probs
    its distributions, per (segment, layer[, batch slot]) in that order from
    one ``default_rng(cfg.seed)``, then one record per (s, t, l, b). A probs
    record lists its Top-K most probable first, ties to the lowest id."""
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n_routed_experts, cfg.top_k
    n_streams = cfg.batch_size if cfg.independent_batches else 1
    streams = {}
    for s in range(cfg.n_segments):
        for l in range(cfg.n_moe_layers):
            for b in range(n_streams):
                sets = generator_set_stream(rng, n, k, cfg.stickiness, cfg.steps_per_segment)
                probs = None
                if cfg.emit_probs:
                    probs = generator_probs(rng, n, np.array(sets), cfg.concentration).tolist()
                streams[s, l, b] = sets, probs
    recs = []
    for s in range(cfg.n_segments):
        for t in range(cfg.steps_per_segment):
            for l in range(cfg.n_moe_layers):
                for b in range(cfg.batch_size):
                    sets, probs = streams[s, l, b if cfg.independent_batches else 0]
                    if probs is None:
                        recs.append(StepRecord(s, t, l, b, tuple(sets[t])))
                    else:
                        p = probs[t]
                        ids = sorted(range(n), key=lambda e: (-p[e], e))[:k]
                        recs.append(StepRecord(s, t, l, b, tuple(ids), tuple(p)))
    return from_records(cfg.header, recs)


def topk_set(p, k: int) -> list[int]:
    """Sorted ids of the k largest entries of p, ties to the lowest id."""
    return sorted(sorted(range(len(p)), key=lambda e: (-p[e], e))[:k])


def not_top_by_sort(r) -> np.ndarray:
    """The package's ``trace._not_top`` over the same ``_Rows``, by a full
    stable sort of every row: rows K and N long whose topk, as a multiset, is
    not the first K of the row's ids ranked by (-p, id)."""
    k, n = r.header.top_k, r.header.n_routed_experts
    whole = (r.n_topk == k) & (r.n_probs == n)
    if not whole.any():
        return whole
    top = np.argsort(-r.probs, axis=1, kind="stable")[:, :k]
    ids = r.topk[:, :k]
    return whole & (np.sort(ids, axis=1) != np.sort(top, axis=1)).any(axis=1)


def parse_record(obj, line_no, has_probs) -> StepRecord:
    try:
        s, t, l, b = obj["s"], obj["t"], obj["l"], obj["b"]
        topk = obj["topk"]
    except KeyError as e:
        raise TraceError(f"record missing field {e.args[0]!r}", line_no) from None
    for name, v in (("s", s), ("t", t), ("l", l), ("b", b)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise TraceError(f"field {name!r} must be a non-negative integer, got {v!r}", line_no)
    if not isinstance(topk, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in topk
    ):
        raise TraceError("field 'topk' must be a list of integers", line_no)
    probs = obj.get("probs")
    if has_probs and probs is None:
        raise TraceError("header declares has_probs but record carries no 'probs'", line_no)
    if not has_probs and probs is not None:
        raise TraceError("record carries 'probs' but header declares has_probs=false", line_no)
    if probs is not None:
        if not isinstance(probs, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs
        ):
            raise TraceError("field 'probs' must be a list of numbers", line_no)
        try:
            probs = tuple(float(p) for p in probs)
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


def parse_trace(data: bytes) -> RecordTrace:
    """Structural parse of a whole JSONL trace (no semantic validation)."""
    header = None
    records, record_lines = [], []
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise TraceError(f"invalid UTF-8 at byte {e.start} ({e.reason})", line_no) from None
        if not line:
            continue
        try:
            obj = json.loads(line)
        except RecursionError:
            raise TraceError("malformed JSON (nested too deeply)", line_no) from None
        except json.JSONDecodeError as e:
            raise TraceError(f"malformed JSON ({e.msg})", line_no) from None
        if not isinstance(obj, dict):
            raise TraceError("each line must be a JSON object", line_no)
        if header is None:
            if obj.get("type") != "header":
                raise TraceError('first line must be a {"type":"header",...} record', line_no)
            has_probs = obj.get("has_probs", False)
            if not isinstance(has_probs, bool):
                raise TraceError(
                    f"header field 'has_probs' must be true or false, got {has_probs!r}", line_no
                )
            fields = ("n_moe_layers", "n_routed_experts", "top_k", "batch_size")
            header = TraceHeader(*(obj[f] for f in fields), has_probs)
        else:
            records.append(parse_record(obj, line_no, header.has_probs))
            record_lines.append(line_no)
    if header is None:
        raise TraceError("empty input: missing header line")
    peak = max((max(r.segment_id, r.step_index) for r in records), default=0)
    if peak > len(records):
        line_no = next(n for n, r in zip(record_lines, records)
                       if max(r.segment_id, r.step_index) == peak)
        raise TraceError(
            f"segment id or step index {peak} exceeds the record count {len(records)}", line_no
        )
    return record_trace(header, records)


def validate_record(rec: StepRecord, header: TraceHeader, out: list) -> None:
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
    if any(math.isnan(x) or math.isinf(x) for x in p):
        out.append(Violation("probs_nonfinite", where, "NaN or infinite probability entry"))
        return
    if any(x < 0 for x in p):
        out.append(Violation("probs_negative", where, "negative probability entry"))
        return
    total = sum(p)
    if abs(total - 1.0) > PROB_SUM_TOL:
        out.append(Violation("probs_sum", where, f"probs sum {total!r} not within {PROB_SUM_TOL} of 1"))
        return
    if len(rec.topk_indices) == k and frozenset(topk_set(p, k)) != rec.expert_set:
        out.append(
            Violation(
                "probs_topk",
                where,
                f"topk {sorted(rec.topk_indices)} is not the Top-{k} of probs "
                f"{topk_set(p, k)}",
            )
        )


def validate_trace(trace: RecordTrace) -> list:
    out: list = []
    h = trace.header
    for rec in trace.records:
        validate_record(rec, h, out)

    keys = [r.key for r in trace.records]
    if keys != sorted(keys):
        out.append(Violation("ordering", "trace", "records not sorted by (s,t,l,b)"))
    seen: dict = {}
    for key in keys:
        seen[key] = seen.get(key, 0) + 1
    for key, count in seen.items():
        if count > 1:
            out.append(Violation("duplicate", str(key), f"record appears {count} times"))

    steps: dict = {}
    for s, t, l, b in seen:
        steps.setdefault((s, t), set()).add((l, b))
    full = {(l, b) for l in range(h.n_moe_layers) for b in range(h.batch_size)}
    for (s, t), present in sorted(steps.items()):
        for l, b in sorted(full - present):
            out.append(
                Violation("coverage", f"(s={s},t={t})", f"missing record for layer={l}, batch={b}")
            )

    seg_steps: dict = {}
    for s, t in steps:
        seg_steps.setdefault(s, set()).add(t)
    for s in range(max(seg_steps, default=-1) + 1):
        if s not in seg_steps:
            out.append(Violation("segments", f"s={s}", "segment id gap"))
            continue
        for t in range(max(seg_steps[s]) + 1):
            if t not in seg_steps[s]:
                out.append(
                    Violation("contiguity", f"(s={s},t={t})", "step index gap within segment")
                )
    return out
