import functools
import io
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    save_trace,
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


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        trace = RoutingTrace(TraceHeader(10**12, 4, 2, 1), keys, np.array([[0, 1]]), None)
        with pytest.raises(KeyError, match="not dense: 1 records for 1 steps"):
            trace.routes

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

    def test_holds_about_twice_its_output(self):
        # The encoded lines and their one join; a str copy of the lines, or a
        # copy to append the last newline, would take it past 3x.
        cfg = SynthConfig(n_moe_layers=2, n_routed_experts=64, top_k=4, batch_size=4,
                          n_segments=2, steps_per_segment=16, emit_probs=True)
        trace = synth_trace(cfg)
        out, peak = traced_peak(lambda: write_trace(trace))
        assert out == write_trace(trace) and peak <= 2.2 * len(out)

    @pytest.mark.parametrize("rows", [2, 3, 4])  # a block of 3 rows, less one, plus one
    def test_index_only_blocks_write_as_the_reference(self, monkeypatch, rows):
        monkeypatch.setattr(trace_module, "_ENCODE_FIELDS", 3 * 2)  # 3 rows of K = 2 ids
        big = 10**18 - 1  # 18 digits, the most an id the grammar reads may have
        keys = np.array([[big - i, i, big, 0] for i in range(rows)], np.int64)
        topk = np.array([[i, big - i] for i in range(rows)], np.int64)
        trace = RoutingTrace(TraceHeader(1, 10**18, 2, 1), keys, topk, None)
        assert write_trace(trace) == reference_trace.write(trace)

    def test_save_streams_an_index_only_trace_in_blocks(self, tmp_path):
        # 2,500 rows of K = 4 ids are three blocks of at most 4,096 ids, whatever N is.
        trace = synth_trace(SynthConfig(n_routed_experts=10**12, top_k=4,
                                        steps_per_segment=2500))
        chunks = []
        save_trace(trace, tmp_path / "t.jsonl", lambda path, parts: chunks.extend(parts))
        assert len(chunks) == 1 + 3  # the header, then the blocks
        save_trace(trace, tmp_path / "t.jsonl")
        assert b"".join(chunks) == (tmp_path / "t.jsonl").read_bytes() == write_trace(trace)


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

    @pytest.mark.parametrize("n", [2**63, 10**20])
    def test_a_population_numpy_cannot_draw_from_is_refused(self, n):
        # numpy's Generator.choice, the generator's oracle, overflows from 2**63
        # on; past 2**64 the replayed rejection loop would never end.
        with pytest.raises(OverflowError):
            np.random.default_rng(0).choice(2**63, 4, replace=False)
        with pytest.raises(ValueError, match=r"^n_routed_experts must be below 2\*\*63, got %d$" % n):
            SynthConfig(n_routed_experts=n)

    def test_shared_batch_stream_duplicates_sets(self):
        cfg = SynthConfig(batch_size=3, seed=4, steps_per_segment=6)
        trace = synth_trace(cfg)
        for s, t in reference_trace.iter_steps(trace):
            sets = {record_at(trace, s, t, 0, b).expert_set for b in range(3)}
            assert len(sets) == 1

    def test_huge_expert_count_costs_no_more_than_its_output(self):
        # An index-only trace's size does not depend on N, nor may its generation.
        cfg = SynthConfig(n_routed_experts=10**12, top_k=4, steps_per_segment=64, seed=2)
        trace, peak = traced_peak(lambda: synth_trace(cfg))
        assert peak < 1 << 20
        assert trace.probs is None and trace.n_records == 64
        assert validate_trace(trace) == []

    def test_independent_batch_streams_differ(self):
        cfg = SynthConfig(
            batch_size=3, seed=4, steps_per_segment=12, independent_batches=True
        )
        trace = synth_trace(cfg)
        streams = [tuple(map(frozenset, trace.route_sets[:, 0, b].tolist())) for b in range(3)]
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
    # Same sets from the same seed, and the draws after them the same too.
    k = data.draw(st.integers(1, n))
    fast, slow = trace_module._Draws(seed), np.random.default_rng(seed)
    sets = trace_module._sticky_set_stream(fast, n, k, p, steps)
    assert sets == reference_trace.sticky_set_stream(slow, n, k, p, steps)
    assert all(type(e) is int for members in sets for e in members)
    assert_same_draws_follow(fast, slow, n, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 2000), data=st.data(), seed=st.integers(0, 2**63 - 1))
def test_refill_matches_a_list_pool(n, data, seed):
    # Kept ids at both ends of the id range, in slot order (unsorted): a drawn
    # index shifts past every low kept id, and near n past the high ones too.
    k = data.draw(st.integers(1, min(n, 8)))
    ends = sorted({*range(k), *range(n - k, n)})
    kept = data.draw(st.lists(st.sampled_from(ends), max_size=k - 1, unique=True))
    fast, slow = trace_module._Draws(seed), np.random.default_rng(seed)
    refill = trace_module._refill(fast, n, kept, k)
    assert refill == reference_trace.refill_from_pool(slow, n, kept, k)
    assert all(type(e) is int for e in refill)
    assert_same_draws_follow(fast, slow, n, k)


def assert_same_draws_follow(draws, rng, m, s):
    """One more ``choice`` (which reads a kept 32-bit half), then one
    ``random()``, agree between the cursor and the Generator."""
    assert draws.choice(m, s) == rng.choice(m, s, replace=False).tolist()
    assert draws.random((1,)).tolist() == [rng.random()]


@st.composite
def replay_configs(draw):
    """Synth configs from one step to several segments, layers and slots, with
    p at 0 and 1, K up to N, and probabilities on and off."""
    n = draw(st.integers(1, 40))
    return SynthConfig(
        n_moe_layers=draw(st.integers(1, 3)),
        n_routed_experts=n,
        top_k=draw(st.integers(1, n)),
        batch_size=draw(st.integers(1, 3)),
        n_segments=draw(st.integers(1, 3)),
        steps_per_segment=draw(st.integers(1, 12)),
        stickiness=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**63 - 1)),
        emit_probs=draw(st.booleans()),
        concentration=draw(st.floats(0.0, 50.0)),
        independent_batches=draw(st.booleans()),
    )


# Bounds at the 32/64-bit edge, and 3 * 2**30 and 3 * 2**61, where a 32-bit
# and a 64-bit draw are rejected one time in four.
WIDE = [2**32 - 1, 2**32, 2**32 + 1, 3 * 2**30, 10**12, 3 * 2**61]

# Runs of (method, args) calls on the cursor: small choices, choices at the
# Floyd/tail-shuffle edge and wide ones, keep tests and blocks of doubles.
draw_calls = st.lists(st.one_of(
    st.tuples(st.just("choice"), st.one_of(
        st.integers(1, 60).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
        st.integers(10001, 12000).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(m // 50 - 2, m // 50 + 2))),
        st.tuples(st.sampled_from(WIDE), st.integers(1, 6)),
    )),
    st.tuples(st.just("kept"), st.tuples(st.integers(1, 8),
                                         st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))),
    st.tuples(st.just("random"), st.tuples(st.tuples(st.integers(1, 3), st.integers(1, 5)))),
), min_size=1, max_size=12)


class TestDraws:
    """The synthetic generator's draw cursor against numpy's Generator calls
    it replays, and ``synth_trace`` against ``reference_trace.synth``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(calls=draw_calls, seed=st.integers(0, 2**63 - 1))
    def test_replays_generator_calls(self, calls, seed):
        draws, rng = trace_module._Draws(seed), np.random.default_rng(seed)
        replayed = {
            "choice": lambda m, s: rng.choice(m, s, replace=False).tolist(),
            "kept": lambda k, p: (rng.random(k) < p).tolist(),
            "random": rng.random,
        }
        for name, args in calls:
            got, want = getattr(draws, name)(*args), replayed[name](*args)
            assert np.array_equal(got, want), (name, args)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_keep_test_is_strict_at_the_drawn_double(self, seed):
        # p equal to the double drawn keeps nothing; the next double up keeps.
        p = np.random.default_rng(seed).random()
        for q, kept in ((p, False), (np.nextafter(p, 1.0), True)):
            draws, rng = trace_module._Draws(seed), np.random.default_rng(seed)
            assert draws.kept(1, q) == (rng.random(1) < q).tolist() == [kept]

    @pytest.mark.parametrize("m,s", [(10000, 9000), (10001, 200), (10001, 201),
                                     (10001, 10001), (10001, 1), (1, 1), (5, 0)])
    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
    def test_choice_at_the_branch_edges(self, m, s, seed):
        # m > 10000 with s > m // 50 is numpy's tail shuffle, Floyd's
        # sampling otherwise; s = 0 draws nothing.
        draws, rng = trace_module._Draws(seed), np.random.default_rng(seed)
        assert draws.choice(m, s) == rng.choice(m, s, replace=False).tolist()
        assert_same_draws_follow(draws, rng, m, min(s + 1, m))

    @pytest.mark.parametrize("n", WIDE)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_wide_expert_counts(self, n, seed):
        # The oracle's set stream never builds the n ids.
        cfg = SynthConfig(n_routed_experts=n, top_k=5, n_moe_layers=2, n_segments=2,
                          steps_per_segment=40, stickiness=0.3, seed=seed)
        assert synth_trace(cfg) == reference_trace.synth(cfg)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cfg=replay_configs())
    def test_synth_replays_the_generator(self, cfg):
        # Several streams per trace, so a kept 32-bit half crosses from one
        # stream (and its probabilities) into the next.
        assert synth_trace(cfg) == reference_trace.synth(cfg)


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


@pytest.mark.parametrize("emit_probs", [False, True])
@settings(max_examples=30, deadline=None)
@given(cfg=synth_configs, block=st.integers(1, 8))
def test_respaced_trace_parses_as_its_written_form(emit_probs, cfg, block):
    # json.dumps' ", " and ": " leave every record line to the JSON path.
    trace = synth_trace(replace(cfg, emit_probs=emit_probs))
    data = write_trace(trace)
    respaced = b"".join(json.dumps(json.loads(line)).encode() + b"\n"
                        for line in data.splitlines())
    line_object = mock.Mock(wraps=trace_module._line_object)
    with mock.patch.object(trace_module, "_line_object", line_object), \
            mock.patch.object(trace_module, "_BLOCK", block):
        assert parse_trace(respaced) == parse_trace(data) == trace
    assert line_object.call_count == 2 + trace.n_records  # two headers, each record line


class TestRecordAt:
    """``RoutingTrace.routes``, the one reader of the dense layout, against a
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
        steps = reference_trace.iter_steps(trace)
        assert trace.routes.shape == (sum(lengths), layers, batch, cfg.top_k)
        assert trace.step_keys.tolist() == [list(step) for step in steps]
        for i, (s, t) in enumerate(steps):
            for l in range(layers):
                for b in range(batch):
                    assert tuple(trace.routes[i, l, b]) == record_at(trace, s, t, l, b).topk_indices

    def test_empty_trace_has_empty_streams(self):
        trace = reference_trace.from_records(TraceHeader(2, 8, 2, 3), [])
        assert trace.routes.shape == (0, 2, 3, 2) and trace.step_keys.shape == (0, 2)
        assert trace.route_sets.shape == (0, 2, 3, 2)

    @pytest.mark.parametrize("mutate", ["drop", "duplicate", "gap"])
    def test_not_dense_raises_key_error(self, mutate):
        trace = synth_trace(SynthConfig(n_moe_layers=2, batch_size=2, n_segments=2,
                                        steps_per_segment=4, seed=3))
        records = list(reference_trace.records(trace))
        if mutate == "drop":
            del records[5]
            at = ": 31 records for 8 steps x 2 layers x 2 batch items"
        elif mutate == "duplicate":  # (0,1,0,1) becomes a second (0,1,0,0)
            records[5] = records[4]
            at = r" at \(0, 1, 0, 1\)"  # the first row that holds another's key
        else:  # segment 1 loses its step 2, so its step 3 follows step 1
            records = [r for r in records if (r.segment_id, r.step_index) != (1, 2)]
            at = ": 28 records for 8 steps"
        bad = parse_trace(reference_trace.jsonl(trace.header, records), validate=False)
        assert validate_trace(bad) != []
        for view in ("routes", "step_keys", "route_sets"):
            with pytest.raises(KeyError, match=f"not dense{at}"):
                getattr(bad, view)

    def test_expert_rows_are_the_stream_sets(self):
        trace = synth_trace(SynthConfig(n_moe_layers=2, batch_size=3, n_segments=2, seed=5,
                                        steps_per_segment=4, independent_batches=True))
        assert trace.route_sets is trace.routes and not trace.routes.flags.writeable
        assert np.shares_memory(trace.routes, trace.topk)
        for l in range(2):
            for b in range(3):
                assert [tuple(r) for r in trace.route_sets[:, l, b].tolist()] == [
                    record_at(trace, s, t, l, b).topk_indices
                    for s, t in reference_trace.iter_steps(trace)]

    @pytest.mark.parametrize("topk", [(1, 1), (1, 8), (-1, 2), (1, 2, 3), (1,)])
    def test_expert_rows_refuse_a_row_that_is_not_a_k_set(self, topk):
        # A row of another length never reaches the arrays: the load refuses it.
        header = TraceHeader(1, 8, 2, 1)
        if len(topk) != 2:
            with pytest.raises(TraceError, match="arity.*expected K=2"):
                make_trace(header, [(0, 0, 0, 0, (0, 1)), (0, 1, 0, 0, topk)])
            return
        trace = make_trace(header, [(0, 0, 0, 0, (0, 1)), (0, 1, 0, 0, topk)])
        assert trace.routes.shape == (2, 1, 1, 2)  # dense: only the set check refuses it
        with pytest.raises(ValueError, match="size K=2 of experts in \\[0, 8\\)"):
            trace.route_sets

    def test_batch_slot_refuses_a_slot_that_is_not_dense(self):
        # (0,0,0,1) becomes a second (0,0,0,0): the slot-1 row of step 0 is
        # slot 0's, which routes names rather than read one slot as another.
        trace = synth_trace(SynthConfig(batch_size=2, seed=4, steps_per_segment=3))
        records = list(reference_trace.records(trace))
        records[1] = records[0]
        bad = parse_trace(reference_trace.jsonl(trace.header, records), validate=False)
        with pytest.raises(KeyError, match=r"not dense at \(0, 0, 0, 1\)"):
            bad.routes


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
    # The same rows in that order, where the arrays hold them (so the ordering
    # rule can fire).
    declared = reference_trace.RecordTrace(base.header, tuple(records))
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


def fixed(*values) -> bytes:
    """A probs list as write_trace writes it, in fixed-width fields."""
    return b"[%s]" % b",".join(b"%.16e" % v for v in values)


LOADER_RECORDS = (  # (keys and topk, probs): a valid three-record trace either way
    (b'"s":0,"t":0,"l":0,"b":0,"topk":[0,1]', fixed(0.4, 0.3, 0.2, 0.1)),
    (b'"s":0,"t":1,"l":0,"b":0,"topk":[1,2]', fixed(0.1, 0.4, 0.3, 0.2)),
    (b'"s":1,"t":0,"l":0,"b":0,"topk":[3,2]', fixed(0.1, 0.2, 0.3, 0.4)),
)
SECOND = b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2],"probs":%s}'
SECOND_PROBS = fixed(0.1, 0.4, 0.3, 0.2)
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
    # A field error is named before a line after it that is not one JSON object.
    "field_error_then_not_an_object": (None, [b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,true]PROBS}',
                                              b"[1,2]"]),
    # Lines an index-only record grammar must leave to the JSON path.
    "two_records_one_line": (None, [b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]PROBS}'
                                    b'{"s":0,"t":2,"l":0,"b":0,"topk":[1,2]PROBS}', b""]),
    "leading_zero": (None, b'{"s":0,"t":01,"l":0,"b":0,"topk":[1,2]PROBS}'),
    "id_18_digits": (None, b'{"s":0,"t":%d,"l":0,"b":0,"topk":[1,2]PROBS}' % (10**18 - 1)),
    "id_19_digits": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,%d]PROBS}' % 10**18),
    "id_2_63": (None, b'{"s":0,"t":1,"l":%d,"b":0,"topk":[1,2]PROBS}' % 2**63),
    "cr_line_end": (None, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]PROBS}\r'),
    "trailing_space": (False, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2]} '),
    # Lines a fixed-width probs grammar must leave to the JSON path, and two it takes.
    "fixed_minus_value": (True, SECOND % fixed(0.1, 0.4, 0.3, -0.2)),
    "fixed_minus_for_digit": (True, SECOND % SECOND_PROBS.replace(b"e-01", b"e-0-", 1)),
    "fixed_3_digit_exponent": (True, SECOND % fixed(0.1, 0.4, 0.5, 1e-100)),
    "fixed_capital_e": (True, SECOND % SECOND_PROBS.replace(b"e", b"E", 1)),
    "fixed_one_field_short": (True, SECOND % fixed(0.1, 0.4, 0.5)),
    "fixed_one_field_long": (True, SECOND % fixed(0.1, 0.4, 0.3, 0.2, 0.0)),
    "fixed_probs_twice": (True, b'{"s":0,"t":1,"l":0,"b":0,"topk":[1,2],"probs":%s,"probs":%s}'
                          % (fixed(0.4, 0.3, 0.2, 0.1), SECOND_PROBS)),
    "fixed_field_after_probs": (True, SECOND.replace(b"}", b',"q":0}') % SECOND_PROBS),
    "fixed_space_after_comma": (True, SECOND % SECOND_PROBS.replace(b",", b", ", 1)),
    "fixed_space_for_digit": (True, SECOND % SECOND_PROBS.replace(b"00", b"0 ", 1)),
    "fixed_bracket_for_comma": (True, SECOND % SECOND_PROBS.replace(b",", b"]", 1)),
    "fixed_zeros": (True, SECOND % fixed(0.0, 0.5, 0.5, 0.0)),
    "fixed_leading_zero_digits": (True, SECOND % b"[0.1000000000000000e+00,0.4000000000000000e+00,"
                                  b"0.3000000000000000e+00,0.2000000000000000e+00]"),
    "fixed_probs_on_index_only": (False, SECOND % SECOND_PROBS),
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


def _loads_without_a_json_scan(tmp_path, cut, emit_probs):
    trace = synth_trace(SynthConfig(n_moe_layers=2, n_routed_experts=8, top_k=3, batch_size=2,
                                    n_segments=3, steps_per_segment=5, emit_probs=emit_probs))
    data = write_trace(trace)
    data = data[:len(data) - cut]
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    # The JSON path builds one object a line; only the header's is built.
    line_object = mock.Mock(wraps=trace_module._line_object)
    with mock.patch.object(trace_module, "_line_object", line_object), \
            mock.patch.object(trace_module, "_BLOCK", 7):
        assert parse_trace(data) == trace
        assert line_object.call_count == 1
        assert load_trace(path) == trace
        assert line_object.call_count == 2


class TestRecordGrammar:
    @pytest.mark.parametrize("cut", [0, 1])  # the last line with and without its "\n"
    def test_written_index_only_trace_skips_the_json_scan(self, tmp_path, cut):
        _loads_without_a_json_scan(tmp_path, cut, emit_probs=False)

    @pytest.mark.parametrize("cut", [0, 1])
    def test_written_probs_trace_skips_the_json_scan(self, tmp_path, cut):
        _loads_without_a_json_scan(tmp_path, cut, emit_probs=True)

    def test_grammar_covers_probs_but_not_a_k_beyond_re(self):
        assert trace_module._record_grammar(TraceHeader(1, 4, 2, 1, has_probs=True)) is not None
        assert trace_module._record_grammar(TraceHeader(1, 4, 2, 1)) is not None
        for has_probs in (False, True):
            header = TraceHeader(1, 2**32, 2**32, 1, has_probs)
            assert trace_module._record_grammar(header) is None


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


# ---------------------------------------------------------------------------
# Fixed-width probabilities: the decoder against float()
# ---------------------------------------------------------------------------

# Between these (and at 0), a written float64 has a 2-digit exponent.
SMALLEST_2_DIGIT = 1e-99
LARGEST_2_DIGIT = 9.999999999999998e99
# Texts whose exact value lies within 2 ulp64 of a midpoint between two
# float64s, so that their long-double quotient lands in the guard band: the
# first three are exact midpoints (2^53 + 1, 2^53 + 3 and 2^54 + 2).
GUARD_BAND_TEXTS = (
    "9.0071992547409930e+15", "9.0071992547409950e+15", "1.8014398509481986e+16",
    "1.7852171833757359e-01", "7.2479866563421530e-01", "5.4866004398677920e-01",
    "5.8643716816596177e-04", "9.1001705631555660e-04", "3.8808194742263763e-04",
    "8.4087117980363524e-21", "4.2573984257289803e-21", "9.9612418274673640e-21",
    "6.0967534069620277e-91", "8.4832365798697312e-91", "9.9653863483046827e-91",
)
ZERO_LEAD_TEXTS = (
    "0.0000000000000000e+00", "0.0000000000000000e-99", "0.0000000000000000e+99",
    "0.0000000000000001e+00", "0.0000000000000001e-99", "0.1234567890123456e-05",
    "0.9999999999999999e+16", "0.5000000000000000e+00", "0.0000000000000003e+16",
)


def decode_bits(texts) -> np.ndarray:
    """The decoder's float64 bits of the fixed-width texts, one field each."""
    runs = (",".join(texts) + "]").encode()
    return trace_module._fixed_floats(runs).view(np.int64)


def float_bits(texts) -> np.ndarray:
    return np.array([float(t) for t in texts]).view(np.int64)


def midpoint_distance(text) -> Fraction:
    """How far the exact value of ``text`` lies from the nearest midpoint
    between two float64s, in units of 2^-63 of its binade (ulp64)."""
    x = Fraction(text)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    e -= Fraction(2) ** e > x  # now 2^e <= x < 2^(e+1)
    low = (x / Fraction(2) ** (e - 63)) % 2048  # the 11 bits below float64's 53
    return abs(low - 1024)


def test_power_table_is_within_half_an_ulp():
    # The exactness argument takes each power 10^(16-e) within half an ulp
    # of its long double: a relative error of at most 2^-(nmant+1).
    half_ulp = Fraction(1, 2 ** (np.finfo(np.longdouble).nmant + 1))
    for e, power in zip(range(-99, 17), trace_module._POW10):
        exact = 10 ** (16 - e)
        assert abs(Fraction(*power.as_integer_ratio()) - exact) <= exact * half_ulp


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bits=st.lists(st.integers(int(np.float64(SMALLEST_2_DIGIT).view(np.int64)),
                                 int(np.float64(LARGEST_2_DIGIT).view(np.int64))),
                     min_size=1, max_size=64))
def test_decoder_matches_float_on_bit_patterns(bits):
    texts = list(map(reference_trace.PROB_FORMAT, np.array(bits, np.int64).view(np.float64)))
    for extended in ([True, False] if trace_module._EXTENDED else [False]):
        with mock.patch.object(trace_module, "_EXTENDED", extended):
            assert np.array_equal(decode_bits(texts), float_bits(texts))


@functools.cache
def bulk_sweep() -> tuple[bytes, np.ndarray]:
    """10^6 fixed-width fields joined as in a record, and float()'s bits of
    each: 800,000 of random digits and exponents (a leading 0 included), then
    float64 bit patterns uniform over every 2-digit exponent and
    probabilities, as write_trace formats them."""
    rng = np.random.default_rng(20261019)
    fields = np.tile(np.frombuffer(b"0.0000000000000000e+00,", np.uint8), (800_000, 1))
    fields[:, [0, *range(2, 18), 20, 21]] = rng.integers(0x30, 0x3A, (len(fields), 19), np.uint8)
    fields[:, 19] = rng.choice(np.frombuffer(b"+-", np.uint8), len(fields))
    lo, hi = np.array([SMALLEST_2_DIGIT, LARGEST_2_DIGIT]).view(np.int64)
    values = np.concatenate([rng.integers(lo, hi, 100_000, endpoint=True).view(np.float64),
                             rng.dirichlet(np.full(64, 0.3), 1_600).ravel()])
    values = values[values >= SMALLEST_2_DIGIT].tolist()  # tiny Dirichlet entries need 3 digits
    runs = fields.tobytes() + (("%.16e," * len(values)) % tuple(values)).encode()
    texts = runs[:-1].split(b",")
    assert len(texts) >= 10**6 and {len(t) for t in texts} == {22}
    return runs[:-1] + b"]", np.array(list(map(float, texts))).view(np.int64)


def test_decoder_matches_float_in_a_bulk_sweep(extended):
    runs, expected = bulk_sweep()
    assert np.array_equal(trace_module._fixed_floats(runs).view(np.int64), expected)


def test_decoder_sends_guard_band_texts_to_float(extended):
    assert all(midpoint_distance(t) <= 2 for t in GUARD_BAND_TEXTS)
    with mock.patch.object(trace_module, "float", wraps=float, create=True) as slow:
        got = decode_bits(GUARD_BAND_TEXTS)
    assert np.array_equal(got, float_bits(GUARD_BAND_TEXTS))
    assert [c.args[0].decode() for c in slow.call_args_list] == list(GUARD_BAND_TEXTS)
    # The exact midpoints round to even.
    assert float("9.0071992547409930e+15") == 2**53
    assert float("9.0071992547409950e+15") == 2**53 + 4


def test_decoder_reads_zero_and_a_leading_zero_digit(extended):
    assert np.array_equal(decode_bits(ZERO_LEAD_TEXTS), float_bits(ZERO_LEAD_TEXTS))
    assert decode_bits(["0.0000000000000000e+00"])[0] == 0  # +0.0, never -0.0


def test_probs_loaded_either_way_are_the_json_paths(extended):
    trace = synth_trace(SynthConfig(n_moe_layers=2, n_routed_experts=16, top_k=4, batch_size=2,
                                    n_segments=2, steps_per_segment=20, emit_probs=True,
                                    concentration=50.0))
    data = write_trace(trace)
    loaded = parse_trace(data)
    assert np.array_equal(loaded.probs.view(np.int64), trace.probs.view(np.int64))
    reference = reference_trace.load(data)
    assert np.array_equal(loaded.probs.view(np.int64), reference.probs.view(np.int64))


# ---------------------------------------------------------------------------
# Fixed-width probabilities: the encoder against the per-field writer
# ---------------------------------------------------------------------------


def probs_trace(values, n=8) -> RoutingTrace:
    """A trace whose probs are the float64s ``values``, n to a row (the last
    row padded with 0.5), whatever they sum to: writing reads no rule."""
    values = np.asarray(values, np.float64)
    probs = np.concatenate([values, np.full(-len(values) % n, 0.5)]).reshape(-1, n)
    keys = np.zeros((len(probs), 4), np.int64)
    keys[:, 1] = np.arange(len(probs))
    header = TraceHeader(1, n, 1, 1, has_probs=True)
    return RoutingTrace(header, keys, np.zeros((len(probs), 1), np.int64), probs)


def assert_written_as_reference(values, n=8):
    trace = probs_trace(values, n)
    assert write_trace(trace) == reference_trace.write(trace)


def exact_ties() -> list[float]:
    """float64s exactly half-way between two 17-digit texts: i / 2^j with i
    odd and i * 5^j of 18 digits, so that the exact decimal value ends in a
    5 at the 18th digit. They span the exponents -8 to 15."""
    rng = np.random.default_rng(7)
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        ties += [float(i | 1) / 2**j for i in rng.integers(lo, hi - 1, 8).tolist()]
    return ties


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bits=st.lists(st.integers(int(np.float64(SMALLEST_2_DIGIT).view(np.int64)),
                                 int(np.float64(LARGEST_2_DIGIT).view(np.int64))),
                     min_size=1, max_size=64))
def test_encoder_matches_the_per_field_writer_on_bit_patterns(extended, bits):
    assert_written_as_reference(np.array(bits, np.int64).view(np.float64))


def test_encoder_sends_ties_and_guard_band_values_to_the_per_field_writer(extended):
    ties = np.array(exact_ties())
    for x in ties.tolist():
        e = int(reference_trace.PROB_FORMAT(x)[-3:])
        assert (Fraction(x) * Fraction(10) ** (16 - e)).denominator == 2
    assert not trace_module._decimals(ties)[2].any()
    assert_written_as_reference(np.concatenate([ties, np.nextafter(ties, 0),
                                                np.nextafter(ties, np.inf)]))
    assert_written_as_reference([float(t) for t in GUARD_BAND_TEXTS])
    # Ties round to even.
    assert reference_trace.PROB_FORMAT(1e15 + 0.25) == "1.0000000000000002e+15"
    assert reference_trace.PROB_FORMAT(1e15 + 0.75) == "1.0000000000000008e+15"
    assert_written_as_reference([1e15 + 0.25, 1e15 + 0.75])


def test_encoder_writes_powers_of_ten_and_the_doubles_beside_them(extended):
    powers = np.array([float(Fraction(10) ** e) for e in range(-100, 19)])
    below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
    # Some powers of ten round below themselves yet write as 1.0...0e+XX:
    # the 17-digit rounding carries them into the next decade.
    carried = [e for e, x in zip(range(-100, 19), powers.tolist())
               if Fraction(x) < Fraction(10) ** e
               and reference_trace.PROB_FORMAT(x).startswith("1.0000000000000000e")]
    assert carried
    assert_written_as_reference(np.concatenate([powers, below, above]))


@pytest.mark.parametrize("shift", [-1, 1])
def test_encoder_checks_its_exponent_guess(extended, shift):
    # A floor(log10(x)) one off either way gives a mantissa out of range
    # (10^17 exactly for 1.0 guessed one too low), never a wrong text.
    values = np.array([1.0, 0.5, 0.1, 2.0**-10, 9.5e-7, 0.3, 1e-99, 1e15 + 0.25, 1e16])
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda x: log10(x) + shift):
        assert not trace_module._decimals(values)[2].any()
        assert_written_as_reference(values, n=9)


def test_encoder_writes_zero_subnormal_negative_and_non_finite_values(extended):
    specials = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-100, 9.999999999999999e-100,
                1e-300, -0.25, -1e-5, -5e-324, math.inf, -math.inf, math.nan, 1e100, 1e300]
    # Each in a row of ordinary probabilities, between whole rows of them.
    rows = [[0.125, 0.25, x, 0.375, 0.5, 0.0625, 0.03125, 0.1] for x in specials]
    ordinary = [0.3, 0.2, 0.1, 0.05, 0.15, 0.07, 0.08, 0.05]
    assert_written_as_reference([v for row in rows for v in ordinary + row])
    assert_written_as_reference([0.0, 0.5, 0.25, 0.0, 0.125, 0.0625, 0.0, 0.0625])


@pytest.mark.parametrize("value,text", [(math.nan, b"NaN"), (math.inf, b"Infinity"),
                                        (-math.inf, b"-Infinity")])
def test_non_finite_probabilities_round_trip_to_their_violation(value, text, extended):
    # Written as JSON's NaN/Infinity/-Infinity, so the package reads its own
    # output back: the rows as written, or the probs_nonfinite violation.
    header = TraceHeader(1, 4, 2, 1, has_probs=True)
    probs = np.array([[0.5, value, 0.25, 0.25]])
    trace = RoutingTrace(header, np.zeros((1, 4), np.int64), np.array([[0, 2]]), probs)
    data = write_trace(trace)
    assert data == reference_trace.write(trace)
    assert b"," + text + b"," in data.splitlines()[1]
    back = parse_trace(data, validate=False)
    assert np.array_equal(back.keys, trace.keys) and np.array_equal(back.topk, trace.topk)
    assert np.array_equal(back.probs, probs, equal_nan=True)
    with pytest.raises(TraceError) as e:
        parse_trace(data)
    assert [v.rule for v in e.value.violations] == ["probs_nonfinite"]


def test_encoder_matches_the_per_field_writer_in_a_bulk_sweep(extended):
    values = bulk_sweep()[1].view(np.float64)
    assert_written_as_reference(values[:len(values) // 64 * 64], n=64)


def test_encoder_writes_synthesized_traces_as_the_per_field_writer(extended):
    for cfg in (SynthConfig(n_moe_layers=2, n_routed_experts=64, top_k=6, batch_size=3,
                            n_segments=2, steps_per_segment=50, emit_probs=True),
                SynthConfig(n_routed_experts=5000, top_k=2, steps_per_segment=3,
                            emit_probs=True, concentration=1e12),
                SynthConfig(n_routed_experts=3, top_k=1, steps_per_segment=3000,
                            emit_probs=True, concentration=0.0)):
        trace = synth_trace(cfg)
        assert write_trace(trace) == reference_trace.write(trace)


# ---------------------------------------------------------------------------
# The probs_topk screen against a full sort of each row
# ---------------------------------------------------------------------------


def _top_rows(probs, topk, k):
    r, n = probs.shape
    header = TraceHeader(1, n, k, 1, has_probs=True)
    return trace_module._Rows(header, np.zeros((r, 4), np.int64), topk, np.array([k]),
                              probs, np.array([n]))


@pytest.mark.parametrize("n,k", [(8, 1), (16, 4), (64, 6), (5, 5)])
def test_top_k_membership_matches_a_full_sort(n, k):
    rng = np.random.default_rng(n * 100 + k)
    rows = 3_000
    probs = rng.random((rows, n))
    topk = np.argsort(-probs, axis=1, kind="stable")[:, :k].copy()
    rng.permuted(topk, axis=1, out=topk)  # any stored order is the same set
    for i in range(0, rows, 7):  # every 7th row made wrong, five ways
        way = (i // 7) % 5
        if way == 0 and k < n:  # a member swapped for an outsider
            outside = np.setdiff1d(np.arange(n), topk[i])
            topk[i, rng.integers(k)] = rng.choice(outside)
        elif way == 1 and k > 1:  # a repeated id
            topk[i, 0] = topk[i, 1]
        elif way == 2:  # an id below or beyond the experts
            topk[i, rng.integers(k)] = rng.choice([-1, n, 2**62])
        elif k < n:  # the weakest member and the strongest outsider tie
            order = np.argsort(-probs[i], kind="stable")
            probs[i, order[k]] = probs[i, order[k - 1]]
            if way == 4:  # and the stored set keeps the higher index of the two
                lo, hi = sorted(order[k - 1:k + 1])
                topk[i] = np.argsort(-probs[i], kind="stable")[:k]
                topk[i, topk[i] == lo] = hi
    r = _top_rows(probs, topk, k)
    expected = reference_trace.not_top_by_sort(r)
    assert expected.any() and not expected.all()
    assert np.array_equal(trace_module._not_top(r), expected)


@pytest.mark.parametrize("n,k", [(8, 3), (16, 4), (64, 6)])
def test_top_k_membership_matches_a_full_sort_under_many_ties(n, k):
    # Few distinct values (0.0 and -0.0 among them, which tie) and random
    # K-sets: most rows have ties across the weakest member.
    rng = np.random.default_rng(n + k)
    rows = 4_000
    probs = rng.choice(np.array([0.0, -0.0, 0.25, 0.5, 1.0]), (rows, n), p=[.2, .2, .3, .2, .1])
    topk = np.array([rng.choice(n, k, replace=False) for _ in range(rows)])
    right = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    topk[::3] = right[::3]
    r = _top_rows(probs, topk, k)
    expected = reference_trace.not_top_by_sort(r)
    assert expected.any() and not expected.all()
    assert np.array_equal(trace_module._not_top(r), expected)
