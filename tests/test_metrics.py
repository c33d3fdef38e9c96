import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_metrics
from moe_locality import metrics
from moe_locality.gate import overlap_counts
from moe_locality.metrics import (
    _DENSE_COUNTS,
    _sparse_cv,
    compute_metrics,
    eor,
    load_balance_cv,
    normalized_entropy,
    unique_experts_per_sequence,
)
from moe_locality.trace import RoutingTrace, SynthConfig, TraceError, TraceHeader, synth_trace
from reference_trace import StepRecord, from_records, records

from test_trace import make_trace


class TestInstantaneousReuse:
    """Step-to-step overlap has one definition, ``gate.overlap_counts``."""

    def test_identical_sets(self):
        assert overlap_counts(np.array([[1, 2, 3], [1, 2, 3]])).tolist() == [3]

    def test_disjoint_sets(self):
        assert overlap_counts(np.array([[1, 2, 3], [4, 5, 6]])).tolist() == [0]

    def test_partial_overlap(self):
        assert overlap_counts(np.array([[2, 3, 4], [1, 2, 3]])).tolist() == [2]

    def test_size_mismatch(self):
        # A row of another length never reaches the arrays; a K-long row that
        # is not a K-set does, and eor refuses it.
        header = TraceHeader(1, 8, 3, 1)
        with pytest.raises(TraceError, match="arity.*expected K=3"):
            make_trace(header, [(0, 0, 0, 0, (1, 2)), (0, 1, 0, 0, (1, 2, 3))])
        trace = make_trace(header, [(0, 0, 0, 0, (1, 2, 2)), (0, 1, 0, 0, (1, 2, 3))])
        with pytest.raises(ValueError, match="size K"):
            eor(trace)

    def test_order_within_a_row_does_not_matter(self):
        rows = np.array([[0, 1, 2], [2, 0, 5], [5, 6, 2], [7, 3, 4], [4, 7, 3]])
        assert overlap_counts(rows).tolist() == [2, 2, 0, 3]
        assert overlap_counts(rows[:, ::-1]).tolist() == [2, 2, 0, 3]

    def test_one_row_has_no_pairs(self):
        assert overlap_counts(np.array([[0, 1]])).tolist() == []

    def test_duplicate_ids_are_refused_by_eor(self):
        header = TraceHeader(1, 8, 2, 1)
        trace = make_trace(header, [(0, 0, 0, 0, (1, 1)), (0, 1, 0, 0, (1, 2))])
        with pytest.raises(ValueError, match="size K"):
            eor(trace)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), t_len=st.integers(1, 12),
           k_pick=st.integers(1, 12))
    def test_matches_the_set_form(self, seed, n, t_len, k_pick):
        k = 1 + (k_pick - 1) % n  # K = N included
        rng = np.random.default_rng(seed)
        rows = np.array([rng.permutation(n)[:k] for _ in range(t_len)])
        sets = [frozenset(r.tolist()) for r in rows]
        expected = [len(sets[t] & sets[t - 1]) for t in range(1, t_len)]
        assert overlap_counts(rows).tolist() == expected
        assert [c / k for c in expected] == [
            reference_metrics.instantaneous_reuse(sets[t - 1], sets[t], k)
            for t in range(1, t_len)
        ]


def seq_trace(sets, k=2, n=8):
    header = TraceHeader(1, n, k, 1)
    return make_trace(header, [(0, t, 0, 0, tuple(s)) for t, s in enumerate(sets)])


class TestEor:
    def test_constant_sequence(self):
        trace = seq_trace([(0, 1), (0, 1), (0, 1)])
        assert eor(trace).overall == 1.0

    def test_hand_counted_half(self):
        trace = seq_trace([(0, 1), (1, 2), (2, 3)])
        assert eor(trace).overall == pytest.approx(0.5)

    def test_full_stickiness_generator(self):
        trace = synth_trace(SynthConfig(stickiness=1.0, seed=0))
        assert eor(trace).overall == 1.0

    def test_all_length_one_segments_error(self):
        header = TraceHeader(1, 8, 2, 1)
        trace = make_trace(header, [(0, 0, 0, 0, (0, 1)), (1, 0, 0, 0, (2, 3))])
        with pytest.raises(ValueError, match="length >= 2"):
            eor(trace)

    def test_length_one_segment_contributes_nothing(self):
        header = TraceHeader(1, 8, 2, 1)
        trace = make_trace(
            header,
            [
                (0, 0, 0, 0, (0, 1)),
                (0, 1, 0, 0, (0, 1)),
                (1, 0, 0, 0, (2, 3)),
            ],
        )
        report = eor(trace)
        assert report.overall == 1.0
        assert report.per_sequence.shape == (1, 1, 2)
        assert report.per_sequence[0, 0, 0] == 1.0 and np.isnan(report.per_sequence[0, 0, 1])

    def test_matches_fetch_bound_identity(self):
        # EOR == 1 - mean(K * (1 - IR_t)) / K, computed through the set algebra
        # rather than through overlap_counts.
        trace = synth_trace(SynthConfig(seed=13, stickiness=0.4, steps_per_segment=50))
        k = trace.header.top_k
        sets = [r.expert_set for r in records(trace)]
        bounds = [k - len(sets[t] & sets[t - 1]) for t in range(1, len(sets))]
        assert eor(trace).overall == pytest.approx(1.0 - np.mean(bounds) / k, abs=1e-12)

    def test_pooled_equals_unweighted_for_equal_lengths(self):
        trace = synth_trace(SynthConfig(seed=3, n_segments=3, steps_per_segment=10))
        assert eor(trace).overall == pytest.approx(eor(trace, pooled=True).overall)


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        assert normalized_entropy(np.full(64, 1 / 64)) == pytest.approx(1.0)

    def test_one_hot_is_zero(self):
        p = np.zeros(8)
        p[3] = 1.0
        assert normalized_entropy(p) == 0.0

    def test_half_support(self):
        assert normalized_entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(
            math.log(2) / math.log(4)
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            normalized_entropy([0.5, 0.6, -0.1, 0.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            normalized_entropy([0.5, 0.6])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(12))
        perm = rng.permutation(12)
        assert normalized_entropy(p[perm]) == pytest.approx(normalized_entropy(p))


def with_probs(probs, seed=0):
    """An index-only synthetic trace of len(probs) records over N =
    probs.shape[1] experts, given ``probs`` unchecked."""
    n_records, n = probs.shape
    trace = synth_trace(SynthConfig(n_moe_layers=1, n_routed_experts=n, top_k=1,
                                    steps_per_segment=n_records, seed=seed))
    return RoutingTrace(replace(trace.header, has_probs=True), trace.keys, trace.topk,
                        np.ascontiguousarray(probs, dtype=np.float64))


@st.composite
def probs_rows(draw):
    """float[rows, N]: Dirichlet rows, some with zeros, some with a NaN."""
    n, n_rows = draw(st.integers(2, 130)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    probs = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 0.5, 5.0]))), n_rows)
    for row in rng.choice(n_rows, int(rng.integers(0, n_rows + 1)), replace=False):
        zeros = rng.random(n) < rng.random()
        if zeros.all():
            zeros[0] = False
        probs[row, zeros] = 0.0
        probs[row] /= probs[row].sum()
    for row in rng.choice(n_rows, int(rng.integers(0, n_rows // 4 + 1)), replace=False):
        probs[row, rng.integers(n)] = np.nan
    return probs


class TestRowEntropies:
    """compute_metrics' entropy takes the clean rows as one array and the
    rest through normalized_entropy, with the per-row calls' bits and errors."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(probs=probs_rows(), cells=st.sampled_from([1, 200, metrics._ENTROPY_CELLS]))
    def test_mean_is_bit_equal_to_the_per_row_calls(self, probs, cells):
        # Blocks of one row, of a few rows, or all rows at once.
        with mock.patch.object(metrics, "_ENTROPY_CELLS", cells):
            got = compute_metrics(with_probs(probs)).entropy_norm
        want = float(np.mean([normalized_entropy(row) for row in probs]))
        assert np.array_equal(np.float64(got).view(np.int64), np.float64(want).view(np.int64))

    @pytest.mark.parametrize("bad", ["negative", "sum", "infinity"])
    def test_first_bad_row_raises_its_message(self, bad):
        # Row 1 fails one check; row 3 fails another, which must not be named.
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(6), 5)
        probs[1] = {"negative": [0.5, 0.6, -0.1, 0.0, 0.0, 0.0],
                    "sum": [0.5, 0.2, 0.1, 0.1, 0.0, 0.0],
                    "infinity": [np.inf, 0.2, 0.1, 0.1, 0.1, 0.1]}[bad]
        probs[3] = [0.5, 0.5, 0.5, -0.5, 0.5, 0.0] if bad != "negative" else [0.9] + [0.2] * 5
        with pytest.raises(ValueError) as want:
            normalized_entropy(probs[1])
        for cells in (6, metrics._ENTROPY_CELLS):  # a block per row, and one block
            with pytest.raises(ValueError) as got, \
                    mock.patch.object(metrics, "_ENTROPY_CELLS", cells):
                compute_metrics(with_probs(probs))
            assert str(got.value) == str(want.value)


class TestLoadBalanceCv:
    def test_equal_counts(self):
        assert load_balance_cv([5, 5, 5, 5]) == 0.0

    def test_hand_value(self):
        assert load_balance_cv([3, 1]) == pytest.approx(0.5)

    def test_single_hot_expert(self):
        assert load_balance_cv([8, 0, 0, 0]) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_all_zero_error(self):
        with pytest.raises(ValueError, match="zero"):
            load_balance_cv([0, 0, 0])

    def test_scale_invariant(self):
        counts = [4, 1, 7, 2]
        assert load_balance_cv(counts) == pytest.approx(
            load_balance_cv([10 * c for c in counts])
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_form_matches_dense_counts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        ids = rng.integers(0, int(rng.integers(1, n + 1)), int(rng.integers(1, 500)))
        assert _sparse_cv(ids, n) == pytest.approx(
            load_balance_cv(np.bincount(ids, minlength=n)), rel=1e-12)

    def test_report_beyond_the_dense_counts_matches_the_reference(self):
        # 3 x 2**15 expert counts exceed both the dense limit and the trace's
        # routed slots, so each layer's CV takes the closed form.
        cfg = SynthConfig(n_moe_layers=3, n_routed_experts=2**15, top_k=4, seed=4)
        trace = synth_trace(cfg)
        assert 3 * 2**15 > max(trace.topk.size, _DENSE_COUNTS)
        report, expected = compute_metrics(trace), reference_metrics.compute_metrics(trace)
        assert report.load_cv == pytest.approx(expected.load_cv, rel=1e-12)
        assert (report.eor, report.unique_experts_per_sequence) == (
            expected.eor, expected.unique_experts_per_sequence)


class TestUniqueExperts:
    def test_constant_sequence_is_k(self):
        trace = seq_trace([(0, 1), (0, 1), (0, 1)])
        assert unique_experts_per_sequence(trace) == 2.0

    def test_disjoint_union(self):
        trace = seq_trace([(0, 1), (2, 3)])
        assert unique_experts_per_sequence(trace) == 4.0

    def test_random_routing_approaches_n(self):
        # Coupon collector: 2000 uniform 2-subsets of 8 experts hit all 8.
        trace = synth_trace(
            SynthConfig(n_routed_experts=8, top_k=2, steps_per_segment=2000, stickiness=0.0, seed=1)
        )
        assert unique_experts_per_sequence(trace) == 8.0

    def test_bounds(self):
        trace = synth_trace(SynthConfig(seed=21, stickiness=0.7))
        val = unique_experts_per_sequence(trace)
        assert trace.header.top_k <= val <= trace.header.n_routed_experts


class TestReport:
    def test_entropy_unavailable_without_probs(self):
        trace = synth_trace(SynthConfig(seed=2, emit_probs=False))
        assert compute_metrics(trace).entropy_norm is None

    def test_entropy_present_with_probs(self):
        trace = synth_trace(SynthConfig(seed=2, emit_probs=True))
        report = compute_metrics(trace)
        assert 0.0 < report.entropy_norm < 1.0

    def test_per_layer_lengths(self):
        trace = synth_trace(SynthConfig(n_moe_layers=3, seed=5))
        report = compute_metrics(trace)
        assert len(report.mean_ir_per_layer) == 3
        assert report.load_cv >= 0.0


@settings(max_examples=30, deadline=None)
@given(
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_eor_within_unit_interval(p, seed):
    trace = synth_trace(SynthConfig(stickiness=p, seed=seed, steps_per_segment=8))
    assert 0.0 <= eor(trace).overall <= 1.0


class TestDensity:
    def test_step_gap_raises_key_error(self):
        # Steps 0, 1 and 3: no record stands for step 2, so no pairing of
        # step 1 with step 3 is reported as reuse.
        header = TraceHeader(1, 8, 2, 1)
        trace = make_trace(header, [(0, t, 0, 0, (0, 1)) for t in (0, 1, 3)])
        for metric in (eor, compute_metrics, unique_experts_per_sequence):
            with pytest.raises(KeyError, match="not dense"):
                metric(trace)

    def test_mis_keyed_record_raises_key_error(self):
        # A dense record count, but layer 0's step 1 stands in for step 2.
        header = TraceHeader(1, 8, 2, 2)
        rows = [(0, t, 0, b, (0, 1)) for t in range(3) for b in range(2)]
        rows[-1] = (0, 1, 0, 1, (2, 3))
        trace = make_trace(header, rows)
        assert trace.segment_lengths == (3,)
        with pytest.raises(KeyError, match="not dense"):
            eor(trace)


# ---------------------------------------------------------------------------
# Differential tests: whole reports against the frozenset reference in
# tests/reference_metrics.py.
# ---------------------------------------------------------------------------


@st.composite
def dense_traces(draw):
    """Dense valid traces with B up to 4, length-1 segments, K = N, and
    independent random Top-K sets (with probabilities for some)."""
    n = draw(st.integers(1, 10))
    k = draw(st.sampled_from(sorted({1, n, draw(st.integers(1, n))})))
    layers = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    has_probs = draw(st.booleans()) and n >= 2
    sticky = draw(st.sampled_from([0.0, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for s, length in enumerate(lengths):
        for l in range(layers):
            for b in range(batch):
                prev = None
                for t in range(length):
                    members = rng.permutation(n)[:k]
                    if prev is not None and rng.random() < sticky:
                        members = prev
                    prev = members
                    probs = None
                    if has_probs:
                        weights = rng.random(n)
                        weights[members] += 2.0
                        probs = tuple((weights / weights.sum()).tolist())
                    rows.append(StepRecord(s, t, l, b, tuple(members.tolist()), probs))
    header = TraceHeader(layers, n, k, batch, has_probs=has_probs)
    return from_records(header, rows)


def assert_eor_bitwise(trace, pooled):
    # repr spells every float exactly, so equal reprs mean equal bits; the
    # per-sequence array is compared by its bytes, NaNs included.
    got, expected = eor(trace, pooled), reference_metrics.eor(trace, pooled)
    assert repr(got) == repr(expected)
    assert got.per_sequence.shape == expected.per_sequence.shape
    assert got.per_sequence.tobytes() == expected.per_sequence.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trace=dense_traces(), pooled=st.booleans())
def test_reports_match_reference_bitwise(trace, pooled):
    if any(length >= 2 for length in trace.segment_lengths):
        assert_eor_bitwise(trace, pooled)
        assert repr(compute_metrics(trace, pooled)) == repr(
            reference_metrics.compute_metrics(trace, pooled)
        )
    else:
        with pytest.raises(ValueError, match="length >= 2"):
            eor(trace, pooled)
        with pytest.raises(ValueError, match="length >= 2"):
            reference_metrics.eor(trace, pooled)
    assert repr(unique_experts_per_sequence(trace)) == repr(
        reference_metrics.unique_experts_per_sequence(trace)
    )


def test_bench_shaped_reports_match_reference_bitwise():
    # The long-decode trace and a tenth of the many-short one; 127 pairs per
    # sequence reach numpy's pairwise summation in the per-sequence means.
    for cfg in (
        SynthConfig(n_moe_layers=4, n_routed_experts=64, top_k=6, batch_size=4, n_segments=2,
                    steps_per_segment=128, stickiness=0.4, seed=0, emit_probs=True),
        SynthConfig(n_moe_layers=4, n_routed_experts=64, top_k=6, n_segments=100,
                    steps_per_segment=4, stickiness=0.6, seed=0),
    ):
        trace = synth_trace(cfg)
        for pooled in (False, True):
            assert repr(compute_metrics(trace, pooled)) == repr(
                reference_metrics.compute_metrics(trace, pooled)
            )
            assert_eor_bitwise(trace, pooled)


@st.composite
def long_segment_traces(draw):
    """A synthetic trace cut to ragged segment lengths from 1 to 300 steps,
    with B up to 2: per-sequence means of up to 299 pairs, past the blocks of
    numpy's pairwise summation, and many segment-length groups."""
    cfg = draw(st.builds(
        SynthConfig,
        n_moe_layers=st.integers(1, 2),
        n_routed_experts=st.integers(4, 12),
        top_k=st.integers(1, 3),
        batch_size=st.integers(1, 2),
        n_segments=st.integers(1, 4),
        steps_per_segment=st.just(300),
        stickiness=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    ))
    lengths = draw(st.lists(st.integers(1, 300), min_size=cfg.n_segments,
                            max_size=cfg.n_segments))
    trace = synth_trace(cfg)
    return from_records(trace.header, [r for r in records(trace)
                                       if r.step_index < lengths[r.segment_id]])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trace=long_segment_traces(), pooled=st.booleans())
def test_per_sequence_eor_matches_reference_bitwise(trace, pooled):
    if any(length >= 2 for length in trace.segment_lengths):
        assert_eor_bitwise(trace, pooled)
    assert repr(unique_experts_per_sequence(trace)) == repr(
        reference_metrics.unique_experts_per_sequence(trace)
    )
