import io
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_trace
from reference_trace import StepRecord
from moe_locality import trace as trace_module
from moe_locality.trace import (
    PROB_SUM_TOL,
    RoutingTrace,
    SynthConfig,
    TraceError,
    TraceHeader,
    load_trace,
    parse_trace,
    synth_trace,
    validate_trace,
    write_trace,
)
from moe_locality.gate import topk
from moe_locality.metrics import eor


def make_trace(header, rows):
    """rows: (s, t, l, b, topk[, probs]), loaded through JSONL without validation."""
    records = [
        StepRecord(r[0], r[1], r[2], r[3], tuple(r[4]), tuple(r[5]) if len(r) > 5 else None)
        for r in rows
    ]
    return parse_trace(reference_trace.jsonl(header, records), validate=False)


def record_at(trace, segment, step, layer, batch):
    """The record keyed (segment, step, layer, batch), by linear search."""
    found = [r for r in reference_trace.records(trace) if r.key == (segment, step, layer, batch)]
    if len(found) != 1:
        raise KeyError(f"{len(found)} records keyed {(segment, step, layer, batch)}")
    return found[0]


def outcome(parse, data):
    """``parse(data)``, or the (message, line_no, violations) of its TraceError."""
    try:
        return parse(data)
    except TraceError as e:
        return str(e), e.line_no, e.violations


HEADER_LINE = (
    b'{"type":"header","n_moe_layers":1,"n_routed_experts":4,"top_k":2,'
    b'"batch_size":1,"has_probs":false}'
)


class TestHeader:
    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match="top_k"):
            TraceHeader(n_moe_layers=1, n_routed_experts=4, top_k=5, batch_size=1)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            TraceHeader(n_moe_layers=0, n_routed_experts=4, top_k=2, batch_size=1)


class TestParse:
    def test_minimal_valid_input(self):
        data = b"\n".join(
            [
                HEADER_LINE,
                b'{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}',
                b'{"s":0,"t":1,"l":0,"b":0,"topk":[2,3]}',
            ]
        )
        trace = parse_trace(data)
        assert trace.n_records == 2
        assert trace.segment_lengths == (2,)

    def test_expert_id_out_of_range(self):
        data = HEADER_LINE + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,4]}'
        with pytest.raises(TraceError, match="out of range"):
            parse_trace(data)

    def test_wrong_arity(self):
        data = HEADER_LINE + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1,2]}'
        with pytest.raises(TraceError, match="expected K=2"):
            parse_trace(data)

    def test_probs_inconsistent_with_topk(self):
        # Top-2 of these probs is {3, 2}, not {0, 1}.
        header = HEADER_LINE.replace(b'"has_probs":false', b'"has_probs":true')
        data = header + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1],"probs":[0.1,0.2,0.3,0.4]}'
        with pytest.raises(TraceError, match="Top-2"):
            parse_trace(data)

    def test_boolean_probs_are_not_numbers(self):
        # JSON true/false are not numbers, though Python reads them as 1 and 0.
        header = HEADER_LINE.replace(b'"has_probs":false', b'"has_probs":true')
        data = header + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1],"probs":[true,false,false,false]}'
        with pytest.raises(TraceError, match="line 2: field 'probs' must be a list of numbers"):
            parse_trace(data)

    def test_malformed_json_reports_line(self):
        data = HEADER_LINE + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}\n{nope'
        with pytest.raises(TraceError, match="line 3"):
            parse_trace(data)

    def test_missing_header(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace(b'{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}')

    def test_missing_coverage(self):
        header = HEADER_LINE.replace(b'"n_moe_layers":1', b'"n_moe_layers":2')
        data = header + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}'
        with pytest.raises(TraceError, match="coverage|missing record"):
            parse_trace(data)

    @pytest.mark.parametrize("field", ["n_moe_layers", "batch_size"])
    def test_header_asking_for_over_twice_the_records_is_refused(self, field):
        # One step present: a 2-slot header lacks one record, a coverage
        # violation; a 3-slot header lacks more records than it is given.
        record = b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}'
        for slots in (2, 3):
            data = HEADER_LINE.replace(f'"{field}":1'.encode(), f'"{field}":{slots}'.encode())
            if slots == 2:
                assert parse_trace(data + record, validate=False).n_records == 1
                continue
            with pytest.raises(TraceError, match=f"^line 1: .*{field}=3 .*1 records given"):
                parse_trace(data + record, validate=False)

    def test_stream_compares_sizes_before_building_the_grid(self):
        keys = np.zeros((1, 4), dtype=np.int64)
        trace = RoutingTrace(TraceHeader(10**12, 4, 2, 1), keys, np.array([[0, 1]]), None, (1,))
        with pytest.raises(KeyError, match="not dense: 1 records for 1 steps"):
            trace.stream(0, 0)

    def test_unsorted_input_is_normalized(self):
        data = b"\n".join(
            [
                HEADER_LINE,
                b'{"s":0,"t":1,"l":0,"b":0,"topk":[2,3]}',
                b'{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}',
            ]
        )
        trace = parse_trace(data)
        assert trace.keys[:, 1].tolist() == [0, 1]

    def test_accepts_file_object(self):
        data = HEADER_LINE + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}\n'
        trace = parse_trace(io.BytesIO(data))
        assert trace.n_records == 1


class TestWrite:
    def test_empty_trace_is_header_only(self):
        header = TraceHeader(1, 4, 2, 1)
        trace = reference_trace.from_records(header, [])
        out = write_trace(trace)
        assert out.count(b"\n") == 1
        assert b'"type":"header"' in out

    def test_round_trip_identity(self):
        cfg = SynthConfig(
            n_moe_layers=2,
            n_routed_experts=8,
            top_k=3,
            batch_size=2,
            n_segments=2,
            steps_per_segment=5,
            stickiness=0.5,
            seed=3,
            emit_probs=True,
        )
        trace = synth_trace(cfg)
        assert parse_trace(write_trace(trace)) == trace

    def test_two_segment_boundaries_preserved(self):
        header = TraceHeader(1, 4, 2, 1)
        trace = make_trace(
            header,
            [
                (0, 0, 0, 0, (0, 1)),
                (0, 1, 0, 0, (0, 1)),
                (1, 0, 0, 0, (2, 3)),
            ],
        )
        back = parse_trace(write_trace(trace))
        assert back.segment_lengths == (2, 1)
        assert back == trace


class TestValidate:
    def test_valid_trace_no_violations(self):
        trace = synth_trace(SynthConfig(seed=1))
        assert validate_trace(trace) == []

    def test_duplicate_expert_in_topk(self):
        header = TraceHeader(1, 4, 2, 1)
        trace = make_trace(header, [(0, 0, 0, 0, (1, 1))])
        rules = [v.rule for v in validate_trace(trace)]
        assert rules.count("distinctness") == 1

    def test_missing_layer_record_is_coverage_violation(self):
        header = TraceHeader(2, 4, 2, 1)
        rows = [
            (0, t, l, 0, (0, 1))
            for t in range(4)
            for l in range(2)
            if not (t == 3 and l == 1)
        ]
        trace = make_trace(header, rows)
        violations = [v for v in validate_trace(trace) if v.rule == "coverage"]
        assert len(violations) == 1
        assert "(s=0,t=3)" in violations[0].where

    def test_dense_trace_skips_cross_record_pass(self):
        cfg = SynthConfig(n_moe_layers=2, batch_size=3, n_segments=3, steps_per_segment=5,
                          seed=8, emit_probs=True)
        trace = synth_trace(cfg)
        with mock.patch.object(
            trace_module, "_cross_record_violations", side_effect=AssertionError
        ):
            assert validate_trace(trace) == []

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("off", [-1e-12, 0.0, 1e-12])
    def test_sum_tolerance_edge_matches_reference(self, sign, off):
        trace = synth_trace(SynthConfig(emit_probs=True, seed=1, steps_per_segment=3))
        records = list(reference_trace.records(trace))
        probs = list(records[1].probs)
        probs[3] += 1.0 + sign * (PROB_SUM_TOL + off) - sum(probs)
        records[1] = replace(records[1], probs=tuple(probs))
        payload = reference_trace.jsonl(trace.header, records)
        expected = reference_trace.load(payload)
        violations = expected[2] if isinstance(expected, tuple) else ()
        assert [v.rule for v in violations] == (["probs_sum"] if off >= 0 else [])
        assert outcome(parse_trace, payload) == expected

    def test_step_gap_is_contiguity_violation(self):
        header = TraceHeader(1, 4, 2, 1)
        trace = make_trace(header, [(0, 0, 0, 0, (0, 1)), (0, 2, 0, 0, (0, 1))])
        assert any(v.rule == "contiguity" for v in validate_trace(trace))


class TestSynth:
    def test_full_stickiness_gives_eor_one(self):
        cfg = SynthConfig(n_segments=3, steps_per_segment=10, stickiness=1.0, seed=5)
        trace = synth_trace(cfg)
        assert eor(trace).overall == 1.0
        # one fixed set per segment
        sets = {}
        for rec in reference_trace.records(trace):
            key = rec.segment_id
            sets.setdefault(key, set()).add(rec.expert_set)
        assert all(len(v) == 1 for v in sets.values())

    def test_zero_stickiness_mean_ir_matches_uniform_overlap(self):
        # E|A ∩ B| / K = K / N_r for independent uniform K-subsets.
        cfg = SynthConfig(
            n_routed_experts=64, top_k=6, steps_per_segment=4000, stickiness=0.0, seed=7
        )
        trace = synth_trace(cfg)
        assert eor(trace).overall == pytest.approx(6 / 64, abs=0.01)

    def test_same_seed_byte_identical(self):
        cfg = SynthConfig(seed=11, emit_probs=True)
        assert write_trace(synth_trace(cfg)) == write_trace(synth_trace(cfg))

    def test_emitted_probs_topk_matches_sets(self):
        cfg = SynthConfig(seed=2, emit_probs=True, steps_per_segment=20)
        trace = synth_trace(cfg)
        k = trace.header.top_k
        for rec in reference_trace.records(trace):
            assert frozenset(topk(rec.probs, k)) == rec.expert_set
            # storage order is descending probability
            probs = [rec.probs[e] for e in rec.topk_indices]
            assert probs == sorted(probs, reverse=True)

    def test_eor_monotone_in_stickiness(self):
        # Spearman rank correlation across (stickiness, seed) grid.
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        xs, ys = [], []
        for p in grid:
            for seed in range(10):
                trace = synth_trace(
                    SynthConfig(steps_per_segment=200, stickiness=p, seed=seed)
                )
                xs.append(p)
                ys.append(eor(trace).overall)
        assert _spearman(xs, ys) > 0.95

    def test_shared_batch_stream_duplicates_sets(self):
        cfg = SynthConfig(batch_size=3, seed=4, steps_per_segment=6)
        trace = synth_trace(cfg)
        for s, t in trace.iter_steps():
            sets = {record_at(trace, s, t, 0, b).expert_set for b in range(3)}
            assert len(sets) == 1

    def test_independent_batch_streams_differ(self):
        cfg = SynthConfig(
            batch_size=3, seed=4, steps_per_segment=12, independent_batches=True
        )
        trace = synth_trace(cfg)
        streams = [
            tuple(map(frozenset, trace.expert_rows(0, b).tolist()))
            for b in range(3)
        ]
        assert len(set(streams)) > 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 40),
    data=st.data(),
    p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**63 - 1),
)
def test_sticky_stream_matches_per_slot_draws(n, data, p, steps, seed):
    # Same sets from the same seed, and the generator left in the same state.
    k = data.draw(st.integers(1, n))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    sets = trace_module._sticky_set_stream(fast, n, k, p, steps)
    assert sets == reference_trace.sticky_set_stream(slow, n, k, p, steps)
    assert all(type(e) is int for members in sets for e in members)
    assert fast.random() == slow.random()


def _rank(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def _spearman(xs, ys):
    rx, ry = np.array(_rank(xs)), np.array(_rank(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


synth_configs = st.builds(
    SynthConfig,
    n_moe_layers=st.integers(1, 3),
    n_routed_experts=st.integers(4, 20),
    top_k=st.integers(1, 4),
    batch_size=st.integers(1, 3),
    n_segments=st.integers(1, 3),
    steps_per_segment=st.integers(1, 10),
    stickiness=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    emit_probs=st.booleans(),
    independent_batches=st.booleans(),
)


@settings(max_examples=50, deadline=None)
@given(cfg=synth_configs)
def test_synth_always_validates(cfg):
    trace = synth_trace(cfg)
    assert validate_trace(trace) == []


@settings(max_examples=30, deadline=None)
@given(cfg=synth_configs)
def test_parse_write_round_trip(cfg):
    trace = synth_trace(cfg)
    assert parse_trace(write_trace(trace)) == trace


class TestRecordAt:
    """``RoutingTrace.stream``, the one reader of the dense layout, against a
    linear key search."""

    @pytest.mark.parametrize("lengths", [(3,), (1, 4, 2), (5, 1, 1, 3)])
    @pytest.mark.parametrize("layers,batch", [(1, 1), (2, 3)])
    def test_agrees_with_linear_search(self, lengths, layers, batch):
        cfg = SynthConfig(n_moe_layers=layers, batch_size=batch, n_segments=len(lengths),
                          steps_per_segment=max(lengths), seed=6, independent_batches=True)
        full = synth_trace(cfg)
        trace = reference_trace.from_records(
            full.header,
            [r for r in reference_trace.records(full) if r.step_index < lengths[r.segment_id]],
        )
        assert trace.segment_lengths == lengths and validate_trace(trace) == []
        records = reference_trace.records(trace)
        for l in range(layers):
            for b in range(batch):
                rows = range(trace.n_records)[trace.stream(l, b)]
                assert len(rows) == sum(lengths)
                for i, (s, t) in zip(rows, trace.iter_steps()):
                    assert records[i] == record_at(trace, s, t, l, b)

    def test_empty_trace_has_empty_streams(self):
        trace = reference_trace.from_records(TraceHeader(2, 8, 2, 3), [])
        assert trace.topk[trace.stream(1, 2)].shape == (0, 2)

    @pytest.mark.parametrize("mutate", ["drop", "duplicate", "gap"])
    def test_not_dense_raises_key_error(self, mutate):
        trace = synth_trace(SynthConfig(n_moe_layers=2, batch_size=2, n_segments=2,
                                        steps_per_segment=4, seed=3))
        records = list(reference_trace.records(trace))
        slots = [(l, b) for l in range(2) for b in range(2)]
        if mutate == "drop":
            del records[5]
        elif mutate == "duplicate":  # (0,1,0,1) becomes a second (0,1,0,0)
            records[5] = records[4]
            slots = [(0, 1)]  # the other slots still hold their own records
        else:  # segment 1 loses its step 2, so its step 3 follows step 1
            records = [r for r in records if (r.segment_id, r.step_index) != (1, 2)]
        bad = parse_trace(reference_trace.jsonl(trace.header, records), validate=False)
        assert validate_trace(bad) != []
        for l, b in slots:
            with pytest.raises(KeyError, match="not dense"):
                bad.stream(l, b)

    def test_expert_rows_are_the_stream_sets(self):
        trace = synth_trace(SynthConfig(n_moe_layers=2, batch_size=3, n_segments=2, seed=5,
                                        steps_per_segment=4, independent_batches=True))
        for l in range(2):
            for b in range(3):
                rows = trace.expert_rows(l, b)
                assert rows.shape == (8, trace.header.top_k)
                assert [tuple(r) for r in rows.tolist()] == [
                    record_at(trace, s, t, l, b).topk_indices for s, t in trace.iter_steps()]

    @pytest.mark.parametrize("topk", [(1, 1), (1, 8), (-1, 2), (1, 2, 3), (1,)])
    def test_expert_rows_refuse_a_row_that_is_not_a_k_set(self, topk):
        # A row of another length never reaches the arrays: the load refuses it.
        header = TraceHeader(1, 8, 2, 1)
        if len(topk) != 2:
            with pytest.raises(TraceError, match="arity.*expected K=2"):
                make_trace(header, [(0, 0, 0, 0, (0, 1)), (0, 1, 0, 0, topk)])
            return
        trace = make_trace(header, [(0, 0, 0, 0, (0, 1)), (0, 1, 0, 0, topk)])
        with pytest.raises(ValueError, match="size K=2 of experts in \\[0, 8\\)"):
            trace.expert_rows(0, 0)

    def test_batch_slot_refuses_a_slot_that_is_not_dense(self):
        trace = synth_trace(SynthConfig(batch_size=2, seed=4, steps_per_segment=3))
        records = list(reference_trace.records(trace))
        records[1] = records[0]
        bad = parse_trace(reference_trace.jsonl(trace.header, records), validate=False)
        with pytest.raises(KeyError, match="not dense in batch slot 1"):
            bad.batch_slot(1)


# ---------------------------------------------------------------------------
# Differential tests: the block loader, the whole-array validate_trace and the
# per-line error path against the per-record reference in
# tests/reference_trace.py.
# ---------------------------------------------------------------------------

small_synth_configs = st.builds(
    SynthConfig,
    n_moe_layers=st.integers(1, 3),
    n_routed_experts=st.integers(4, 40),
    top_k=st.integers(1, 4),
    batch_size=st.integers(1, 3),
    n_segments=st.integers(1, 3),
    steps_per_segment=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    emit_probs=st.booleans(),
    independent_batches=st.booleans(),
)

MUTATIONS = (
    "drop", "duplicate", "swap", "layer", "batch", "expert", "dup_expert", "arity",
    "negative", "nan", "inf", "sum", "sum_edge", "topk", "uniform", "missing_probs",
    "probs_shape", "step_gap", "segment_gap",
)


def _mutate(records, header, kind, data):
    i = data.draw(st.integers(0, len(records) - 1))
    r = records[i]
    n, k = header.n_routed_experts, header.top_k
    topk, probs = list(r.topk_indices), None if r.probs is None else list(r.probs)
    j = data.draw(st.integers(0, n - 1))
    if kind == "drop":
        del records[i]
    elif kind == "duplicate":
        records.insert(i, r)
    elif kind == "swap":
        m = data.draw(st.integers(0, len(records) - 1))
        records[i], records[m] = records[m], r
    elif kind == "layer":
        records[i] = replace(r, layer_id=data.draw(st.sampled_from(
            [header.n_moe_layers, header.n_moe_layers + 2, 2**63, 10**30])))
    elif kind == "batch":
        records[i] = replace(r, batch_index=header.batch_size + data.draw(st.integers(0, 2)))
    elif kind == "expert":
        topk.insert(j % (len(topk) + 1), data.draw(st.sampled_from([-1, n, n + 5])))
        records[i] = replace(r, topk_indices=tuple(topk[:k]))
    elif kind == "dup_expert":
        records[i] = replace(r, topk_indices=tuple(topk[:-1] + topk[:1]) if k > 1 else (j, j))
    elif kind == "arity":
        records[i] = replace(r, topk_indices=tuple(topk[:-1] if data.draw(st.booleans())
                                                   else topk + [j]))
    elif kind == "topk":
        outside = [e for e in range(n) if e not in topk]
        if topk and outside:
            topk[j % len(topk)] = outside[j % len(outside)]
        records[i] = replace(r, topk_indices=tuple(topk))
    elif kind == "missing_probs":
        records[i] = replace(r, probs=None)
    elif probs is not None:
        if kind == "negative":
            probs[j] = -probs[j] - 1e-3
        elif kind == "nan":
            probs[j] = math.nan
        elif kind == "inf":
            probs[j] = data.draw(st.sampled_from([math.inf, -math.inf]))
        elif kind == "sum":
            probs = [p * 1.000001 for p in probs]
        elif kind == "sum_edge":
            # Land the left-to-right sum within 1e-12 of either side of the tolerance.
            off = data.draw(st.sampled_from([-1e-12, 0.0, 1e-12]))
            sign = data.draw(st.sampled_from([-1.0, 1.0]))
            probs[j] += 1.0 + sign * (PROB_SUM_TOL + off) - sum(probs)
        elif kind == "uniform":  # all ties: Top-K is the lowest k indices
            probs = [1.0 / n] * n
        elif kind == "probs_shape":
            probs = probs[:-1] if data.draw(st.booleans()) else probs + [0.0]
        records[i] = replace(r, probs=tuple(probs))
    if kind == "step_gap":
        records[:] = [x for x in records if x.key[:2] != r.key[:2]]
    elif kind == "segment_gap":
        records[:] = [x for x in records if x.segment_id != r.segment_id]


PROBS_MUTATIONS = frozenset(
    ("negative", "nan", "inf", "sum", "sum_edge", "uniform", "missing_probs", "probs_shape")
)


@pytest.mark.parametrize("first", MUTATIONS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(cfg=small_synth_configs, data=st.data())
def test_validate_matches_reference(first, cfg, data):
    if first in PROBS_MUTATIONS:
        cfg = replace(cfg, emit_probs=True)
    base = synth_trace(cfg)
    records = list(reference_trace.records(base))
    for kind in [first] + data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        if records:
            _mutate(records, base.header, kind, data)
    # Through the loader, lines in the mutated order, in blocks of 1 to 512 lines.
    payload = reference_trace.jsonl(base.header, records)
    block = data.draw(st.sampled_from([1, 3, 8, 512]))
    with mock.patch.object(trace_module, "_BLOCK", block):
        assert outcome(parse_trace, payload) == reference_trace.load(payload)
    # The same rows in that order with the declared segment lengths, where the
    # arrays hold them (so ordering and segment_lengths rules can fire).
    declared = reference_trace.RecordTrace(base.header, tuple(records), base.segment_lengths)
    try:
        trace = reference_trace.columnar(declared)
    except (ValueError, OverflowError, TypeError):
        return
    assert validate_trace(trace) == reference_trace.validate_trace(declared)


DELETE = "<delete field>"
CORRUPTIONS = (
    [(f, v) for f in "stlb" for v in (True, False, -1, 1.5, "0", None, DELETE)]
    + [("l", 10**30), ("b", 10**30)]
    + [("topk", v) for v in ("x", 3, None, {}, [True], [1.5], ["1"], [None], [0, False], DELETE)]
    + [("probs", v) for v in ("x", 3, None, [True], ["0.5"], [None], [1, 0], [10**400], DELETE)]
)


@pytest.mark.parametrize(
    "field,value", CORRUPTIONS, ids=[f"{f}={v!r}"[:24] for f, v in CORRUPTIONS]
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(cfg=small_synth_configs, data=st.data())
def test_parse_errors_match_reference(field, value, cfg, data):
    lines = write_trace(synth_trace(cfg)).splitlines()
    line_no = data.draw(st.integers(2, len(lines)))
    obj = json.loads(lines[line_no - 1])
    if value == DELETE:
        obj.pop(field, None)
    else:
        obj[field] = value
    lines[line_no - 1] = json.dumps(obj).encode()
    payload = b"\n".join(lines)

    expected = reference_trace.load(payload, validate=False)
    assert outcome(lambda d: parse_trace(d, validate=False), payload) == expected
    if isinstance(expected, tuple) and not expected[2]:  # a structural error
        assert expected[1] == line_no


HEADER_CORRUPTIONS = ("false", "true", 0, 1, None, [], {}, 1.0, True, False, DELETE)


@pytest.mark.parametrize(
    "value", HEADER_CORRUPTIONS, ids=[f"has_probs={v!r}" for v in HEADER_CORRUPTIONS]
)
@pytest.mark.parametrize("emit_probs", [False, True])
def test_header_has_probs_matches_reference(value, emit_probs):
    lines = write_trace(synth_trace(SynthConfig(steps_per_segment=3,
                                                emit_probs=emit_probs))).splitlines()
    header = json.loads(lines[0])
    if value == DELETE:
        header.pop("has_probs")
    else:
        header["has_probs"] = value
    payload = b"\n".join([json.dumps(header).encode(), *lines[1:]])

    expected = reference_trace.load(payload, validate=False)
    assert outcome(lambda d: parse_trace(d, validate=False), payload) == expected
    if type(value) is not bool and value != DELETE:
        assert expected == (f"line 1: header field 'has_probs' must be true or false, "
                            f"got {value!r}", 1, ())


# ---------------------------------------------------------------------------
# The line rule and the per-line error path
# ---------------------------------------------------------------------------

RECORD_LINE = b'{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}'


class TestLines:
    def test_deep_nesting_is_a_trace_error_naming_the_line(self):
        data = HEADER_LINE + b"\n" + RECORD_LINE + b"\n" + b"[" * 100_000 + b"\n"
        with pytest.raises(TraceError, match=r"^line 3: malformed JSON \(nested too deeply\)$"):
            parse_trace(data)

    def test_invalid_utf8_names_the_line(self):
        data = HEADER_LINE + b"\n" + RECORD_LINE[:-1] + b'\xff}\n'
        with pytest.raises(TraceError, match=r"^line 2: invalid UTF-8 at byte 37 \(invalid start"):
            parse_trace(data)

    def test_only_newline_ends_a_line_in_bytes_and_files(self, tmp_path):
        # bytes.splitlines would also split at "\r"; a file splits at "\n" only.
        data = HEADER_LINE + b"\r" + RECORD_LINE + b"\r"
        path = tmp_path / "sep.jsonl"
        path.write_bytes(data)
        for load in (lambda: parse_trace(data), lambda: parse_trace(io.BytesIO(data)),
                     lambda: load_trace(path)):
            with pytest.raises(TraceError, match=r"^line 1: malformed JSON \(Extra data\)$"):
                load()


LOADER_HEADER = (b'{"type":"header","n_moe_layers":1,"n_routed_experts":4,"top_k":2,'
                 b'"batch_size":1,"has_probs":%s}')
LOADER_RECORDS = (  # (keys and topk, probs): a valid three-record trace either way
    (b'"s":0,"t":0,"l":0,"b":0,"topk":[0,1]', b"[0.4,0.3,0.2,0.1]"),
    (b'"s":0,"t":1,"l":0,"b":0,"topk":[1,2]', b"[0.1,0.4,0.3,0.2]"),
    (b'"s":1,"t":0,"l":0,"b":0,"topk":[3,2]', b"[0.1,0.2,0.3,0.4]"),
)
HUGE = b"1" + b"0" * 30
# name -> (the header's has_probs it is for, or None for both; the second record
# line, or a list of lines for it, where PROBS stands for that record's probs).
LOADER_CASES = {
    "valid": (None, None),
    "line_merge_pair": (None, [b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]PROBS,"q":"', b'"}']),
    "blank_lines": (None, [b"", b'  {"s":0,"t":1,"l":0,"b":0,"topk":[1,2]PROBS}\t', b" "]),
    "shuffled_keys": (False, b'{"topk":[1,2],"b":0,"l":0,"t":1,"s":0}'),
    "extra_keys": (False, b'{"s":0,"t":1,"q":[1,{"x":null}],"l":0,"b":0,"topk":[1,2],"r":2}'),
    "duplicate_keys": (False, b'{"s":5,"t":1,"l":0,"b":0,"topk":[0,3],"s":0,"topk":[1,2]}'),
    "minus_zero_in_topk": (False, b'{"s":0,"t":1,"l":0,"b":0,"topk":[-0,2]}'),
    "float_in_topk": (False, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1.0,2]}'),
    "true_in_topk": (False, b'{"s":0,"t":1,"l":0,"b":0,"topk":[true,2]}'),
    "probs_null": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2],"probs":null}'),
    "int_probs": (True, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,0],"probs":[0,1,0,0]}'),
    "int_probs_bad_sum": (True, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,0],"probs":[1,1,0,0]}'),
    "huge_layer": (None, b'{"s":0,"t":1,"l":%s,"b":0,"topk":[1,2]PROBS}' % HUGE),
    "huge_step": (None, b'{"s":0,"t":%s,"l":0,"b":0,"topk":[1,2]PROBS}' % HUGE),
    "huge_expert": (False, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,%s]}' % HUGE),
    "huge_prob": (True, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2],"probs":[1%s,0,0,0]}'
                  % (b"0" * 400)),
    "ragged_topk": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2,3]PROBS}'),
    "empty_topk": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[]PROBS}'),
    "ragged_probs": (True, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2],"probs":[0.5,0.5]}'),
    "probs_on_one_record": (False, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2],"probs":[0,1,0,0]}'),
    "probs_missing_on_one": (True, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]}'),
    "deep_nesting": (None, b"[" * 50_000),
    "invalid_utf8": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]PROBS}\xff'),
    "not_an_object": (None, b"[1,2]"),
    # Lines an index-only record grammar must leave to the JSON path.
    "two_records_one_line": (None, [b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]PROBS}'
                                    b'{"s":0,"t":2,"l":0,"b":0,"topk":[1,2]PROBS}', b""]),
    "leading_zero": (None, b'{"s":0,"t":01,"l":0,"b":0,"topk":[1,2]PROBS}'),
    "id_18_digits": (None, b'{"s":0,"t":%d,"l":0,"b":0,"topk":[1,2]PROBS}' % (10**18 - 1)),
    "id_19_digits": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,%d]PROBS}' % 10**18),
    "id_2_63": (None, b'{"s":0,"t":1,"l":%d,"b":0,"topk":[1,2]PROBS}' % 2**63),
    "cr_line_end": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]PROBS}\r'),
    "trailing_space": (False, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]} '),
}


def _loader_payload(case, has_probs, sep):
    second = LOADER_CASES[case][1]
    lines = []
    for i, (fields, probs) in enumerate(LOADER_RECORDS):
        probs = b',"probs":' + probs if has_probs else b""
        if i == 1 and second is not None:
            lines.extend(line.replace(b"PROBS", probs)
                         for line in (second if isinstance(second, list) else [second]))
        else:
            lines.append(b"{" + fields + probs + b"}")
    header = LOADER_HEADER % (b"true" if has_probs else b"false")
    return sep.join([header, *lines, b""])


@pytest.mark.parametrize("case,has_probs", [
    (case, has_probs) for case, (only, _) in LOADER_CASES.items()
    for has_probs in (False, True) if only in (None, has_probs)
])
@pytest.mark.parametrize("sep", [b"\n", b"\r\n"])
@pytest.mark.parametrize("block", [1, 2, 512])
def test_jsonl_loader_matches_reference(case, has_probs, sep, block):
    # The same trace arrays, or the same (message, line_no) and violations, as
    # the per-record reference, from bytes and from a file, with and without
    # validation, and with the blocks of lines cut anywhere.
    payload = _loader_payload(case, has_probs, sep)
    with mock.patch.object(trace_module, "_BLOCK", block):
        for validate in (True, False):
            expected = reference_trace.load(payload, validate)
            assert outcome(lambda d: parse_trace(d, validate), payload) == expected
            assert outcome(lambda d: parse_trace(io.BytesIO(d), validate), payload) == expected
    if case == "valid":
        assert isinstance(expected, RoutingTrace)


class TestRecordGrammar:
    @pytest.mark.parametrize("cut", [0, 1])  # the last line with and without its "\n"
    def test_written_index_only_trace_skips_the_json_scan(self, tmp_path, cut):
        trace = synth_trace(SynthConfig(n_moe_layers=2, n_routed_experts=8, top_k=3,
                                        batch_size=2, n_segments=3, steps_per_segment=5))
        data = write_trace(trace)
        data = data[:len(data) - cut]
        path = tmp_path / "trace.jsonl"
        path.write_bytes(data)
        with mock.patch.object(trace_module, "_scan_block", side_effect=AssertionError("scan")), \
                mock.patch.object(trace_module, "_BLOCK", 7):
            assert parse_trace(data) == trace
            assert load_trace(path) == trace

    def test_no_grammar_for_probs_or_a_k_beyond_re(self):
        assert trace_module._record_grammar(TraceHeader(1, 4, 2, 1, has_probs=True)) is None
        assert trace_module._record_grammar(TraceHeader(1, 2**32, 2**32, 1)) is None
        assert trace_module._record_grammar(TraceHeader(1, 4, 2, 1)) is not None


class OneWayStream(io.BytesIO):
    """A binary stream that cannot seek and counts the lines read from it."""

    def __init__(self, data):
        super().__init__(data)
        self.lines_read = 0

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")

    def __next__(self):
        line = super().__next__()
        self.lines_read += 1
        return line


@pytest.mark.parametrize("bad_line", [
    None,
    b'{"s":0,"t":7,"l":0,"b":0,"topk":[0,1,2,true]}',
    b'{"s":0,"t":7,"l":0,"b":0,"topk":[0,1,2,3]',
    b'{"s":0,"t":7,"l":0,"b":0,"topk":[0,1,2,3],"probs":[1,0,0,0]}',
])
@pytest.mark.parametrize("validate", [True, False])
def test_stream_that_cannot_seek_is_read_once(bad_line, validate):
    # After the header, blocks of three lines are read: line 9 of 11 is in the
    # third (lines 8-10), so the loader must give the reference's outcome
    # without reading line 11.
    lines = write_trace(synth_trace(SynthConfig(steps_per_segment=10))).splitlines()
    if bad_line is not None:
        lines[8] = bad_line
    payload = b"\n".join(lines)
    stream = OneWayStream(payload)
    with mock.patch.object(trace_module, "_BLOCK", 3):
        got = outcome(lambda d: parse_trace(d, validate), stream)
    expected = reference_trace.load(payload, validate)
    assert got == expected
    if bad_line is None:
        assert isinstance(got, RoutingTrace) and stream.lines_read == len(lines) == 11
    else:
        assert got[1] == 9 and stream.lines_read == 10


@pytest.mark.parametrize("cells", [1, 7, 1 << 16])
def test_rows_no_array_holds_are_padded_a_run_at_a_time(cells, monkeypatch):
    # One long topk row must not pad every row to its length: the per-record
    # rules see the rows in runs of at most `cells` padded entries (or one
    # row), with the reference's outcome.
    lines = write_trace(synth_trace(SynthConfig(steps_per_segment=200))).splitlines()
    lines[3] = b'{"s":0,"t":2,"l":0,"b":0,"topk":[%s]}' % b",".join(b"%d" % (i % 20)
                                                                   for i in range(1000))
    lines[150] = b'{"s":0,"t":149,"l":0,"b":0,"topk":[1]}'
    payload = b"\n".join(lines)
    shapes = []
    record_violations = trace_module._record_violations
    monkeypatch.setattr(trace_module, "_CELLS", cells)
    monkeypatch.setattr(trace_module, "_record_violations",
                        lambda r: shapes.append(r.topk.shape) or record_violations(r))
    assert outcome(parse_trace, payload) == reference_trace.load(payload)
    assert sum(rows for rows, _ in shapes) == len(lines) - 1
    assert max(rows * width for rows, width in shapes) <= max(cells, 1000)


def test_id_beyond_record_count_names_its_first_line():
    # Segment id 9 on lines 3 and 5, in different blocks of two lines: the
    # error names line 3, as the reference does.
    late = b'{"s":9,"t":%d,"l":0,"b":0,"topk":[0,1]}'
    payload = b"\n".join([HEADER_LINE, RECORD_LINE, late % 0, RECORD_LINE, late % 1])
    with mock.patch.object(trace_module, "_BLOCK", 2):
        assert outcome(parse_trace, payload) == reference_trace.load(payload) == (
            "line 3: segment id or step index 9 exceeds the record count 4", 3, ())


def test_topk_stored_in_any_order_matches_reference():
    # The Top-K rule compares sets: rows stored against the Top-K order are as
    # valid as rows stored in it, and a wrong set among them is still found.
    base = synth_trace(SynthConfig(seed=3, emit_probs=True, steps_per_segment=20))
    recs = [replace(r, topk_indices=r.topk_indices[::-1]) for r in reference_trace.records(base)]
    payload = reference_trace.jsonl(base.header, recs)
    expected = reference_trace.load(payload)
    assert isinstance(expected, RoutingTrace) and outcome(parse_trace, payload) == expected
    outside = next(e for e in range(base.header.n_routed_experts)
                   if e not in recs[5].topk_indices)
    recs[5] = replace(recs[5], topk_indices=(outside,) + recs[5].topk_indices[1:])
    payload = reference_trace.jsonl(base.header, recs)
    expected = reference_trace.load(payload)
    assert outcome(parse_trace, payload) == expected
    assert [v.rule for v in expected[2]] == ["probs_topk"]
