import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moe_locality import bounds, cache_sim
from moe_locality.cache_sim import (
    CacheConfig,
    FaultKind,
    FaultScenario,
    IoModel,
    Policy,
    estimate_tpot,
    lru_fetch_counts,
    lru_fetch_counts_each,
    percentile,
    reroute_topk,
    _belady_values,
    _step_requests,
    simulate,
)
from moe_locality.gate import topk, topk_rows
from moe_locality.metrics import eor
from moe_locality.trace import RoutingTrace, SynthConfig, TraceError, TraceHeader, synth_trace
from reference_gate import stable_topk_rows
from reference_trace import StepRecord, from_records, records

from reference_sim import (
    naive_simulate,
    reference_lru_fetch_counts,
    reference_simulate,
    reference_simulate_with_totals,
    reference_slice_batch,
    step_rows,
)
from test_cli import cap_memory, run_python
from test_trace import make_trace, record_at


def seq_trace(sets, k=2, n=8, segment_starts=()):
    header = TraceHeader(1, n, k, 1)
    rows, s, t = [], 0, 0
    for i, members in enumerate(sets):
        if i in segment_starts and i > 0:
            s, t = s + 1, 0
        rows.append((s, t, 0, 0, tuple(members)))
        t += 1
    return make_trace(header, rows)


def lru(capacity, reset=True, **kw):
    return CacheConfig(capacity=capacity, policy=Policy.LRU, reset_each_segment=reset, **kw)


class TestHandSimulations:
    def test_spec_hand_lru_case(self):
        # N_r=4, K=2, C=2, sets {0,1},{1,2},{0,1}: misses 2,1,1 -> uHR = 2/6.
        trace = seq_trace([(0, 1), (1, 2), (0, 1)], k=2, n=4)
        report = simulate(trace, lru(2), record_events=True)
        assert report.unique_misses.tolist() == [[2, 1, 1]]
        assert report.overall.unique_misses == 4
        assert report.overall.uhr == pytest.approx(2 / 6)
        # step 2 evicts expert 0 (least recent), step 3 evicts expert 2
        assert report.events[1].evicted == (0,)
        assert report.events[2].evicted == (2,)

    def test_pure_reuse_segments(self):
        # Same set every step: K misses at each segment start, none after.
        sets = [(0, 1)] * 5 + [(2, 3)] * 5
        trace = seq_trace(sets, k=2, n=4, segment_starts={5})
        report = simulate(trace, lru(4))
        assert report.unique_misses.tolist() == [[2, 0, 0, 0, 0, 2, 0, 0, 0, 0]]
        assert report.overall.uhr == pytest.approx(1 - 2 / (2 * 5))

    def test_capacity_at_nr_only_compulsory_misses(self):
        for policy in Policy:
            trace = synth_trace(
                SynthConfig(n_routed_experts=8, top_k=3, n_segments=3, steps_per_segment=7, seed=4)
            )
            cfg = CacheConfig(capacity=8, policy=policy, reset_each_segment=True)
            report = simulate(trace, cfg)
            # Oracle: per segment, compulsory misses = |union of requested sets|.
            expected = 0
            for s, length in enumerate(trace.segment_lengths):
                union = set()
                for t in range(length):
                    union |= record_at(trace, s, t, 0, 0).expert_set
                expected += len(union)
            assert report.overall.unique_misses == expected

    def test_token_level_counts_batch(self):
        cfg = SynthConfig(batch_size=3, top_k=2, seed=6, steps_per_segment=4)
        trace = synth_trace(cfg)
        report = simulate(trace, lru(4))
        for _layer, _s, _t, uh, ut, th, tt in step_rows(trace, report):
            assert tt == 3 * 2
            assert th >= uh
            assert tt >= ut

    def test_empty_trace_yields_zero_report(self):
        trace = from_records(TraceHeader(2, 8, 2, 1), [])
        report = simulate(trace, lru(4))
        assert report.overall.unique_total == 0
        assert report.overall.uhr == 0.0
        assert report.step_unique_miss_series == ()
        assert report.final_resident == ((), ())


def next_use_table(trace, layer, within_segment=True):
    """(segment, step, expert) -> the step of that expert's next request, read
    from the backward scan whose ``(-next_use, id)`` values Belady's victim
    choice compares (inf when the expert is not requested again in the same
    scope)."""
    steps = trace.step_keys.tolist()
    requests = _step_requests(trace.routes[:, layer])
    scopes = [s for s, _t in steps] if within_segment else [0] * len(steps)
    table = {}
    for (s, t), values in zip(steps, _belady_values(requests, scopes)):
        for e, (negated, _e) in values.items():
            table[(s, t, e)] = steps[-negated][1] if -negated < len(steps) else math.inf
    return table


class TestBeladyNextUse:
    def test_two_occurrences(self):
        sets = [(0, 1)] + [(2, 3)] * 4 + [(0, 2)]
        trace = seq_trace(sets, k=2, n=4)
        table = next_use_table(trace, 0)
        assert table[(0, 0, 0)] == 5
        assert table[(0, 5, 0)] == math.inf

    def test_reset_cuts_horizon(self):
        sets = [(0, 1), (0, 1)]
        trace = seq_trace(sets, k=2, n=4, segment_starts={1})
        table = next_use_table(trace, 0)
        assert table[(0, 0, 0)] == math.inf
        assert table[(1, 0, 0)] == math.inf
        # Without the per-segment reset the horizon crosses the boundary.
        assert next_use_table(trace, 0, within_segment=False)[(0, 0, 0)] == 0

    def test_matches_quadratic_forward_search(self):
        trace = synth_trace(
            SynthConfig(n_routed_experts=6, top_k=2, n_segments=2, steps_per_segment=9, seed=8)
        )
        table = next_use_table(trace, 0)
        for s, length in enumerate(trace.segment_lengths):
            for t in range(length):
                for e in record_at(trace, s, t, 0, 0).topk_indices:
                    expected = math.inf
                    for t2 in range(t + 1, length):
                        if e in record_at(trace, s, t2, 0, 0).expert_set:
                            expected = t2
                            break
                    assert table[(s, t, e)] == expected


class TestPercentile:
    def test_singleton(self):
        assert percentile([5], 0.5) == 5

    def test_nearest_rank_median(self):
        assert percentile([1, 2, 3, 4], 0.5) == 2

    def test_p99_of_hundred(self):
        assert percentile(list(range(1, 101)), 0.99) == 99

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)


class TestTpot:
    def test_zero_misses_is_compute_only(self):
        trace = seq_trace([(0, 1)] * 4, k=2, n=4)
        report = simulate(trace, lru(4))
        io = IoModel(expert_bytes=1e6, bandwidth_gbps=4.0, compute_ms=7.0)
        tpot = estimate_tpot(report, io, batch=1)
        assert tpot.tpot_ms[1:] == (7.0, 7.0, 7.0)

    def test_hand_io_value(self):
        # 10 misses * 1e6 bytes / 4 GB/s = 2.5 ms
        io = IoModel(expert_bytes=1e6, bandwidth_gbps=4.0, compute_ms=1.0)
        trace = seq_trace([tuple(range(10))], k=10, n=16)
        report = simulate(trace, lru(10))
        tpot = estimate_tpot(report, io, batch=1)
        assert tpot.io_ms[0] == pytest.approx(2.5, abs=1e-12)
        assert tpot.tpot_ms[0] == pytest.approx(3.5, abs=1e-12)

    def test_bandwidth_linearity(self):
        trace = synth_trace(SynthConfig(seed=3, steps_per_segment=20))
        report = simulate(trace, lru(4))
        io1 = IoModel(1e6, 2.0, 5.0)
        io2 = IoModel(1e6, 4.0, 5.0)
        t1 = estimate_tpot(report, io1, 1)
        t2 = estimate_tpot(report, io2, 1)
        for a, b in zip(t1.io_ms, t2.io_ms):
            assert a == pytest.approx(2 * b)

    def test_rejects_bad_io_model(self):
        with pytest.raises(ValueError, match="positive"):
            IoModel(1e6, -1.0, 5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_io_model(self, bad):
        for fields in ((bad, 4.0, 5.0), (1e6, bad, 5.0), (1e6, 4.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                IoModel(*fields)


class TestReroute:
    def test_beta_zero_is_plain_topk(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(8))
            resident = set(rng.choice(8, size=3, replace=False).tolist())
            assert tuple(reroute_topk(p, resident, 0.0, 3).tolist()) == topk(p, 3)

    def test_rows_are_rerouted_alike(self):
        # One call on [B, N] rows is the B one-row calls, each row getting
        # the bonus on the same resident columns; beta = 0 is plain Top-K.
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(8), size=4)
            resident = set(rng.choice(8, size=rng.integers(0, 5), replace=False).tolist())
            beta = float(rng.uniform(0.0, 4.0))
            rows = reroute_topk(p, resident, beta, 3)
            assert rows.shape == (4, 3)
            for b in range(4):
                assert np.array_equal(rows[b], reroute_topk(p[b], resident, beta, 3))
            assert np.array_equal(reroute_topk(p, resident, 0.0, 3), topk_rows(p, 3))

    def test_empty_resident_set_is_plain_topk(self):
        p = np.random.default_rng(2).dirichlet(np.ones(8), size=3)
        for beta in (0.0, 1.0, 10.0):
            assert np.array_equal(reroute_topk(p, set(), beta, 3), topk_rows(p, 3))

    def test_strong_bonus_pulls_in_cached_expert(self):
        got = reroute_topk([0.4, 0.3, 0.2, 0.1], {3}, 10.0, 2)
        assert set(got.tolist()) == {3, 0}

    def test_bonus_on_selected_expert_changes_nothing(self):
        for beta in (0.0, 0.5, 2.0, 10.0):
            got = reroute_topk([0.4, 0.3, 0.2, 0.1], {1}, beta, 2)
            assert set(got.tolist()) == {0, 1}

    def test_beta_zero_report_matches_non_reroute(self):
        trace = synth_trace(SynthConfig(seed=5, emit_probs=True, steps_per_segment=30))
        base = simulate(trace, lru(4))
        rer = simulate(trace, lru(4, reroute_beta=0.0))
        assert np.array_equal(rer.step_counts, base.step_counts)
        assert rer.step_unique_miss_series == base.step_unique_miss_series
        assert rer.final_resident == base.final_resident
        assert rer.rerouted_trace is not None

    def test_uhr_monotone_in_beta(self):
        trace = synth_trace(
            SynthConfig(seed=1, emit_probs=True, n_segments=4, steps_per_segment=40,
                        stickiness=0.3, concentration=0.5)
        )
        uhrs = [
            simulate(trace, lru(4, reroute_beta=beta)).overall.uhr for beta in (0.0, 1.0, 4.0)
        ]
        assert uhrs[0] < uhrs[1] < uhrs[2]

    def test_rerouted_trace_raises_eor(self):
        trace = synth_trace(
            SynthConfig(seed=2, emit_probs=True, steps_per_segment=60, stickiness=0.2)
        )
        report = simulate(trace, lru(4, reroute_beta=4.0))
        assert eor(report.rerouted_trace).overall > eor(trace).overall

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="finite"):
            lru(4, reroute_beta=beta)
        with pytest.raises(ValueError, match="finite"):
            reroute_topk([0.4, 0.3, 0.2, 0.1], {3}, beta, 2)

    def test_reroute_without_probs_rejected(self):
        trace = synth_trace(SynthConfig(seed=2, emit_probs=False))
        with pytest.raises(ValueError, match="distributions"):
            simulate(trace, lru(4, reroute_beta=1.0))


class TestPolicies:
    def test_lru_capacity_monotonicity(self):
        for seed in range(6):
            trace = synth_trace(
                SynthConfig(n_routed_experts=32, top_k=4, n_segments=2,
                            steps_per_segment=40, stickiness=0.4, seed=seed)
            )
            uhrs = [simulate(trace, lru(c)).overall.uhr for c in (4, 6, 8, 12)]
            assert all(a <= b for a, b in zip(uhrs, uhrs[1:]))

    def test_belady_not_worse_than_lru(self):
        for seed in range(6):
            trace = synth_trace(
                SynthConfig(n_routed_experts=16, top_k=3, steps_per_segment=50,
                            stickiness=0.3, seed=seed)
            )
            lru_miss = simulate(trace, lru(6)).overall.unique_misses
            bel = CacheConfig(capacity=6, policy=Policy.BELADY, reset_each_segment=True)
            assert simulate(trace, bel).overall.unique_misses <= lru_miss

    def test_segment_order_irrelevant_with_resets(self):
        base = synth_trace(
            SynthConfig(n_segments=3, steps_per_segment=10, seed=9, stickiness=0.5)
        )
        perm = [2, 0, 1]
        shuffled = from_records(
            base.header,
            [
                StepRecord(perm[r.segment_id], r.step_index, r.layer_id, r.batch_index,
                           r.topk_indices, r.probs)
                for r in records(base)
            ],
        )
        for policy in (Policy.LRU, Policy.LFU, Policy.FIFO, Policy.BELADY):
            cfg = CacheConfig(capacity=5, policy=policy, reset_each_segment=True)
            a = simulate(base, cfg)
            b = simulate(shuffled, cfg)
            per_seg_a = {}
            per_seg_b = {}
            for _layer, s, _t, uh, ut, _th, _tt in step_rows(base, a):
                per_seg_a[s] = per_seg_a.get(s, 0) + ut - uh
            for _layer, s, _t, uh, ut, _th, _tt in step_rows(shuffled, b):
                per_seg_b[s] = per_seg_b.get(s, 0) + ut - uh
            for s_orig, s_new in enumerate(perm):
                assert per_seg_a[s_orig] == per_seg_b[s_new]

    def test_fifo_hit_does_not_refresh(self):
        # FIFO evicts 0 (oldest admission) even though 0 was just re-requested...
        # reuse keeps it resident during its own step, but a later overflow
        # still targets the earliest admission.
        sets = [(0,), (1,), (2,), (0,), (3,)]
        trace = seq_trace(sets, k=1, n=8)
        cfg = CacheConfig(capacity=3, policy=Policy.FIFO, reset_each_segment=True)
        report = simulate(trace, cfg, record_events=True)
        # step 4 admits 3; residents were {0,1,2} with admission order 0,1,2;
        # 0 is evicted despite the step-3 hit.
        assert report.events[4].evicted == (0,)

    def test_lfu_prefers_evicting_low_frequency(self):
        sets = [(0, 1), (0, 2), (0, 3)]
        trace = seq_trace(sets, k=2, n=8)
        cfg = CacheConfig(capacity=2, policy=Policy.LFU, reset_each_segment=True)
        report = simulate(trace, cfg, record_events=True)
        # expert 0 is requested every step (freq 2, 3); 1 then 2 get evicted.
        assert report.events[1].evicted == (1,)
        assert report.events[2].evicted == (2,)


class TestDensity:
    def test_missing_record_raises_key_error(self):
        header = TraceHeader(2, 8, 2, 1)
        rows = [(0, t, layer, 0, (0, 1)) for t in range(3) for layer in range(2)]
        del rows[2]  # (s=0, t=1, layer 0)
        with pytest.raises(KeyError, match="not dense"):
            simulate(make_trace(header, rows), lru(4))

    def test_mis_keyed_record_raises_key_error(self):
        # As many records as a dense trace, but step 1 of layer 0 appears twice
        # and step 2 not at all.
        header = TraceHeader(1, 8, 2, 2)
        rows = [(0, t, 0, b, (0, 1)) for t in (0, 1, 1) for b in range(2)]
        rows[-2:] = [(0, 1, 0, 0, (2, 3)), (0, 2, 0, 1, (2, 3))]
        with pytest.raises(KeyError, match="not dense"):
            simulate(make_trace(header, rows), lru(4))


class TestNaiveReferenceEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "lfu", "fifo", "belady"])
    @pytest.mark.parametrize("reset", [True, False])
    def test_random_tiny_traces(self, policy, reset):
        rng = np.random.default_rng(42)
        for trial in range(25):
            cfg = SynthConfig(
                n_moe_layers=int(rng.integers(1, 3)),
                n_routed_experts=int(rng.integers(4, 9)),
                top_k=int(rng.integers(1, 4)),
                batch_size=int(rng.integers(1, 3)),
                n_segments=int(rng.integers(1, 3)),
                steps_per_segment=int(rng.integers(2, 11)),
                stickiness=float(rng.random()),
                seed=int(rng.integers(0, 10_000)),
            )
            trace = synth_trace(cfg)
            capacity = int(rng.integers(1, 9))
            sim_cfg = CacheConfig(
                capacity=capacity, policy=Policy(policy), reset_each_segment=reset
            )
            report = simulate(trace, sim_cfg, record_events=True)
            stats, events, final_resident = naive_simulate(trace, capacity, policy, reset)

            got = step_rows(trace, report)
            want = [
                (s["layer"], s["segment"], s["step"], s["unique_hits"], s["unique_total"],
                 s["token_hits"], s["token_total"])
                for s in stats
            ]
            assert got == want
            assert [e.evicted for e in report.events] == [e["evicted"] for e in events]
            assert [e.resident_before for e in report.events] == [
                e["resident_before"] for e in events
            ]
            assert list(report.final_resident) == final_resident


@pytest.mark.parametrize("kind", list(FaultKind))
def test_fault_scenario_injects_at_least_one(kind):
    with pytest.raises(ValueError, match="n >= 1"):
        FaultScenario(kind, n=0)


miss_trace_configs = st.builds(
    SynthConfig,
    n_moe_layers=st.integers(1, 2),
    n_routed_experts=st.integers(4, 12),
    top_k=st.integers(1, 4),
    batch_size=st.integers(1, 2),
    n_segments=st.integers(1, 3),
    steps_per_segment=st.integers(1, 8),
    stickiness=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)


@settings(max_examples=40, deadline=None)
@given(
    cfg=miss_trace_configs,
    capacity=st.integers(1, 10),
    policy=st.sampled_from([Policy.LRU, Policy.LFU, Policy.FIFO]),
    reset=st.booleans(),
)
def test_accounting_identities(cfg, capacity, policy, reset):
    trace = synth_trace(cfg)
    report = simulate(
        trace, CacheConfig(capacity=capacity, policy=policy, reset_each_segment=reset)
    )
    b, k = cfg.batch_size, cfg.top_k
    for _layer, _s, _t, uh, ut, th, tt in step_rows(trace, report):
        assert tt == b * k
        assert ut <= min(b * k, cfg.n_routed_experts)
        assert th >= uh
    assert sum(report.step_unique_miss_series) == report.overall.unique_misses
    assert report.overall.unique_misses == sum(lt.unique_misses for lt in report.per_layer)


@st.composite
def sim_cases(draw):
    """A tiny trace and a cache config over every policy, resets on and off,
    C < |U| through C > N, multi-batch steps, both fault injections and
    rerouting (each where ``simulate`` accepts it), events on and off."""
    cfg = draw(st.builds(
        SynthConfig,
        n_moe_layers=st.integers(1, 3),
        n_routed_experts=st.integers(4, 12),
        top_k=st.integers(1, 4),
        batch_size=st.integers(1, 3),
        n_segments=st.integers(1, 3),
        steps_per_segment=st.integers(1, 8),
        stickiness=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
        emit_probs=st.booleans(),
    ))
    policy = draw(st.sampled_from(list(Policy)))
    online = policy != Policy.BELADY
    scenario = beta = None
    if online:
        scenario = draw(st.none() | st.builds(
            FaultScenario, kind=st.sampled_from(list(FaultKind)), n=st.integers(1, 3),
            seed=st.integers(0, 99),
        ))
        if cfg.emit_probs:
            beta = draw(st.none() | st.floats(0.0, 10.0))
    cache = CacheConfig(
        capacity=draw(st.integers(1, 13)), policy=policy,
        reset_each_segment=draw(st.booleans()), reroute_beta=beta, scenario=scenario,
    )
    return synth_trace(cfg), cache, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=sim_cases())
def test_simulate_matches_reference_report(case):
    # The whole report: counts, final sets, events and the rerouted trace,
    # then the totals, miss series and percentiles derived from the counts
    # against the reference's own sums.
    trace, cache, record_events = case
    got = simulate(trace, cache, record_events)
    want, totals = reference_simulate_with_totals(trace, cache, record_events)
    assert got == want
    assert {name: getattr(got, name) for name in totals} == totals


@st.composite
def stack_cases(draw):
    """A trace with B up to 4 and length-1 segments, and capacities from K to
    beyond N."""
    cfg = draw(st.builds(
        SynthConfig,
        n_moe_layers=st.integers(1, 3),
        n_routed_experts=st.integers(4, 12),
        top_k=st.integers(1, 4),
        batch_size=st.integers(1, 4),
        n_segments=st.integers(1, 3),
        steps_per_segment=st.integers(1, 8),
        stickiness=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
        independent_batches=st.booleans(),
    ))
    capacities = draw(st.lists(st.integers(cfg.top_k, cfg.n_routed_experts + 3), min_size=1,
                               max_size=4))
    return synth_trace(cfg), tuple(capacities)


@st.composite
def ragged_stack_cases(draw):
    """A trace with B up to 4 and segments of unequal lengths (some of one
    step), and capacities from K to beyond N."""
    trace, capacities = draw(stack_cases())
    lengths = draw(st.lists(st.integers(1, trace.segment_lengths[0]),
                            min_size=len(trace.segment_lengths),
                            max_size=len(trace.segment_lengths)))
    kept = [r for r in records(trace) if r.step_index < lengths[r.segment_id]]
    return from_records(trace.header, kept), capacities


class TestLruFetchCounts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=stack_cases())
    def test_matches_simulate_at_every_capacity(self, case):
        # Each slot against the B=1 trace the bound checks replay it as.
        trace, capacities = case
        h = trace.header
        counts = lru_fetch_counts(trace, capacities)
        assert counts.shape == (len(capacities), h.n_moe_layers, h.batch_size,
                                trace.segment_offsets[-1])
        for b in range(h.batch_size):
            slot = bounds._slot_trace(trace, b)
            for c, capacity in enumerate(capacities):
                # Events keep simulate on its dict loop, not the stamp pass.
                expected = simulate(slot, lru(capacity), record_events=True).unique_misses
                assert np.array_equal(counts[c, :, b], expected), capacity

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=ragged_stack_cases())
    def test_every_slot_matches_its_oracle_slot_trace(self, case):
        trace, capacities = case
        counts = lru_fetch_counts(trace, capacities)
        for b in range(trace.header.batch_size):
            slot = reference_slice_batch(trace, b)
            for c, capacity in enumerate(capacities):
                expected = simulate(slot, lru(capacity), record_events=True).unique_misses
                assert np.array_equal(counts[c, :, b], expected), (b, capacity)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=stack_cases())
    def test_refuses_capacity_below_k(self, case):
        trace, capacities = case
        with pytest.raises(ValueError, match="capacities >= K"):
            lru_fetch_counts(trace, capacities + (trace.header.top_k - 1,))

    def test_hand_counts(self):
        # A, B, A with |A ∪ B| = 4: at C=2 every step misses twice, at C=4
        # the return to A hits; the reset empties the stack for segment 1.
        trace = seq_trace([(0, 1), (2, 3), (0, 1), (0, 1)], segment_starts=(3,))
        counts = lru_fetch_counts(trace, (2, 4, 10**30))
        assert counts[:, 0, 0].tolist() == [[2, 2, 2, 2], [2, 2, 0, 2], [2, 2, 0, 2]]

    def test_needs_a_capacity(self):
        with pytest.raises(ValueError, match="capacities >= K"):
            lru_fetch_counts(seq_trace([(0, 1)]), ())

    def test_counts_each_batch_slot_as_its_own_cache(self):
        # A B=2 trace counts as its two slots, each a B=1 trace of its own.
        trace = synth_trace(SynthConfig(batch_size=2, seed=1, n_segments=2,
                                        independent_batches=True))
        counts = lru_fetch_counts(trace, (4, 8))
        for b in range(2):
            alone = lru_fetch_counts(bounds._slot_trace(trace, b), (4, 8))
            assert np.array_equal(counts[:, :, b:b + 1], alone)

    @pytest.mark.parametrize("row", [(0, 1, 2), (), (1, 1)])
    def test_refuses_a_row_that_is_not_a_top_k_set(self, row):
        # The rows are checked before the stack pass counts any of them; a row
        # of another length never gets that far, since the load refuses it.
        if len(row) != 2:
            with pytest.raises(TraceError, match="arity.*expected K=2"):
                seq_trace([(0, 1), row, (2, 3)])
            return
        trace = seq_trace([(0, 1), row, (2, 3)])
        with pytest.raises(ValueError, match="size K=2"):
            lru_fetch_counts(trace, (2, 4))


@st.composite
def fetch_count_cases(draw):
    """A synthetic trace cut to ragged segment lengths, where a length of 0
    leaves an absent segment id (and all of them an empty trace), with B up
    to 4, K = 1 among the sizes and ids sparse under N = 10**12; and
    capacities from K to beyond N."""
    sparse = draw(st.booleans())
    cfg = draw(st.builds(
        SynthConfig,
        n_moe_layers=st.integers(1, 3),
        n_routed_experts=st.just(10**12) if sparse else st.integers(4, 12),
        top_k=st.integers(1, 4),
        batch_size=st.integers(1, 4),
        n_segments=st.integers(1, 4),
        steps_per_segment=st.integers(1, 8),
        stickiness=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
        independent_batches=st.booleans(),
    ))
    trace = synth_trace(cfg)
    lengths = draw(st.lists(st.integers(0, cfg.steps_per_segment), min_size=cfg.n_segments,
                            max_size=cfg.n_segments))
    kept = [r for r in records(trace) if r.step_index < lengths[r.segment_id]]
    k, n = cfg.top_k, cfg.n_routed_experts
    capacities = draw(st.lists(st.integers(k, k + 12) | st.integers(n, n + 3), min_size=1,
                               max_size=4))
    return from_records(trace.header, kept), tuple(capacities)


class TestStampPass:
    """The stamp pass against the per-stream list stacks it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=fetch_count_cases())
    def test_fetch_counts_match_the_list_stacks(self, case):
        trace, capacities = case
        assert np.array_equal(lru_fetch_counts(trace, capacities),
                              reference_lru_fetch_counts(trace, capacities))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cases=st.lists(fetch_count_cases(), min_size=1, max_size=4))
    def test_one_pass_over_many_traces(self, cases):
        # Rows of a smaller K are padded to the largest one in the pass.
        counts = lru_fetch_counts_each([t for t, _ in cases], [c for _, c in cases])
        assert len(counts) == len(cases)
        for got, (trace, capacities) in zip(counts, cases):
            assert np.array_equal(got, reference_lru_fetch_counts(trace, capacities))

    def test_padding_keeps_each_steps_order(self):
        # Served in order, {0, 1} leaves 1 on top; after {2, 3} expert 1 sits
        # at depth 2 and 0 at depth 3, so at C = 3 the return of 1 hits. A
        # pad that put 0 back on top would make it miss. The K=4 trace pads
        # the K=2 one to four slots.
        short = seq_trace([(0, 1), (2, 3), (1, 5)], k=2, n=8)
        wide = seq_trace([(0, 1, 2, 3)] * 2, k=4, n=8)
        counts = lru_fetch_counts_each([short, wide], [(3,), (4,)])
        assert counts[0][0, 0, 0].tolist() == [2, 2, 1]
        assert np.array_equal(counts[0], reference_lru_fetch_counts(short, (3,)))
        assert np.array_equal(counts[1], reference_lru_fetch_counts(wide, (4,)))

    def test_each_trace_is_checked(self):
        good, bad = seq_trace([(0, 1), (2, 3)]), seq_trace([(0, 1), (1, 1)])
        with pytest.raises(ValueError, match="capacities >= K"):
            lru_fetch_counts_each([good, good], [(2,), (1,)])
        with pytest.raises(ValueError, match="size K=2"):
            lru_fetch_counts_each([good, bad], [(2,), (2,)])
        with pytest.raises(ValueError, match="as many capacity lists"):
            lru_fetch_counts_each([good, good], [(2,)])

    def test_ids_spread_over_all_of_int64(self):
        # (stream, id) pair keys would overflow: the ids are ranked first.
        n = 2**63 - 1
        trace = seq_trace([(0, n - 1), (n - 1, 5), (0, 5), (n - 2, 0)], n=n,
                          segment_starts=(3,))
        caps = (2, 3, n)
        assert np.array_equal(lru_fetch_counts(trace, caps),
                              reference_lru_fetch_counts(trace, caps))

    def test_chunks_of_streams(self, monkeypatch):
        # Chunks of one stream each give the counts of one chunk for all,
        # also when the streams of absent segment ids (no step) are left over.
        trace = synth_trace(SynthConfig(n_moe_layers=2, batch_size=3, n_segments=5, seed=4,
                                        independent_batches=True))
        kept = [r for r in records(trace) if r.segment_id in (0, 4)]
        for trace in (trace, from_records(trace.header, kept)):
            whole = lru_fetch_counts(trace, (4, 7))
            with monkeypatch.context() as patch:
                patch.setattr(cache_sim, "_STAMP_CELLS", 1)
                assert np.array_equal(lru_fetch_counts(trace, (4, 7)), whole)
                assert simulate(trace, lru(12)) == reference_simulate(trace, lru(12))
            assert np.array_equal(whole, reference_lru_fetch_counts(trace, (4, 7)))


@st.composite
def routed_traces(draw, max_segments=3):
    """A trace whose rows may repeat an expert, within a batch item's K slots
    and across B up to 4 items, over ragged segments (an absent id or an
    empty trace among them); a capacity from max_t |U_t| - 1 to beyond N; and
    whether it holds every step's U."""
    n_layers, batch, k = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(k, 10))
    lengths = draw(st.lists(st.integers(0, 6), min_size=1, max_size=max_segments))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shared = draw(st.booleans())  # every batch item routed like the first
    rows = []
    for s, length in enumerate(lengths):
        for t in range(length):
            for layer in range(n_layers):
                items = rng.integers(0, n, (batch, k))
                if shared:
                    items[:] = items[0]
                rows += [StepRecord(s, t, layer, b, tuple(items[b].tolist()), None)
                         for b in range(batch)]
    trace = from_records(TraceHeader(n_layers, n, k, batch), rows)
    widest = max((len(set(trace.routes[i, layer].ravel().tolist()))
                  for i in range(len(trace.routes)) for layer in range(n_layers)), default=0)
    capacity = max(1, widest - 1 + draw(st.integers(0, n + 3)))
    return trace, capacity, capacity >= widest


@st.composite
def lru_sim_cases(draw):
    """:func:`routed_traces` under LRU, resets on or off."""
    trace, capacity, fits = draw(routed_traces())
    return trace, lru(capacity, reset=draw(st.booleans())), fits


def sparse(trace, rng):
    """``trace`` with its experts renamed to distinct ids spread below 10**12."""
    ids = np.unique(rng.integers(0, 10**12, 2 * trace.header.n_routed_experts))
    header = replace(trace.header, n_routed_experts=10**12)
    return RoutingTrace(header, trace.keys, rng.permutation(ids)[trace.topk], None)


class TestStackSimulate:
    """Fault-free LRU ``simulate`` at C >= max_t |U_t| comes from the stamp
    pass; everything else from the dict loop, the same report either way."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=lru_sim_cases())
    def test_matches_reference_simulate(self, case):
        trace, cfg, stacked = case
        with mock.patch.object(cache_sim, "_stack_depths",
                               wraps=cache_sim._stack_depths) as spy:
            got = simulate(trace, cfg)
        assert spy.called == stacked
        want = reference_simulate(trace, cfg)
        assert np.array_equal(got.step_counts, want.step_counts)
        assert got.final_resident == want.final_resident
        assert got == want

    def test_events_faults_and_rerouting_take_the_dict_loop(self):
        trace = synth_trace(SynthConfig(n_moe_layers=2, batch_size=2, emit_probs=True,
                                        n_segments=2, steps_per_segment=6, seed=3))
        k = trace.header.top_k
        cases = [(lru(4 * k), True), (lru(4 * k, reroute_beta=1.0), False),
                 (lru(4 * k, scenario=FaultScenario(FaultKind.INTERFERENCE, seed=1)), False),
                 (lru(4 * k, scenario=FaultScenario(FaultKind.PREFETCH, seed=2)), False)]
        cases += [(replace(cfg, policy=policy), record_events) for cfg, record_events in cases
                  for policy in (Policy.LFU, Policy.FIFO)]
        cases += [(CacheConfig(4 * k, Policy.BELADY, reset_each_segment=True), True)]
        refuse = mock.Mock(side_effect=AssertionError("array pass used"))
        for cfg, record_events in cases:
            with mock.patch.multiple(cache_sim, _stack_depths=refuse, _policy_pass=refuse,
                                     _POLICY_STREAMS=0):
                got = simulate(trace, cfg, record_events)
            assert got == reference_simulate(trace, cfg, record_events)
        assert not refuse.called


@st.composite
def policy_sim_cases(draw):
    """:func:`routed_traces` over up to 8 segments, its ids kept or spread
    below N = 10**12, under LFU, FIFO or BELADY with resets on or off; a
    streams threshold and a chunk size; and whether the policy pass serves it."""
    trace, capacity, fits = draw(routed_traces(max_segments=8))
    if draw(st.booleans()):
        trace = sparse(trace, np.random.default_rng(draw(st.integers(0, 2**31))))
    cfg = CacheConfig(capacity, draw(st.sampled_from([Policy.LFU, Policy.FIFO, Policy.BELADY])),
                      reset_each_segment=draw(st.booleans()))
    threshold = draw(st.sampled_from([0, 1, 4, cache_sim._POLICY_STREAMS]))
    cells = draw(st.sampled_from([1, cache_sim._STAMP_CELLS]))
    n_steps = len(trace.routes)
    longest = max(trace.segment_lengths, default=0) if cfg.reset_each_segment else n_steps
    rows = n_steps * trace.header.n_moe_layers
    return trace, cfg, threshold, cells, fits and rows >= threshold * max(longest, 1)


class TestArraySimulate:
    """Fault-free LFU, FIFO and BELADY ``simulate`` at C >= max_t |U_t| with
    enough streams per step comes from the policy pass; everything else from
    the dict loop, the same report either way."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=policy_sim_cases())
    def test_matches_reference_simulate(self, case):
        trace, cfg, threshold, cells, passed = case
        with mock.patch.multiple(cache_sim, _POLICY_STREAMS=threshold, _STAMP_CELLS=cells), \
                mock.patch.object(cache_sim, "_policy_pass",
                                  wraps=cache_sim._policy_pass) as spy:
            got = simulate(trace, cfg)
        assert spy.called == passed
        want = reference_simulate(trace, cfg)
        assert np.array_equal(got.step_counts, want.step_counts)
        assert got.final_resident == want.final_resident
        assert got == want

    def test_many_streams_take_the_pass(self):
        # At the shipped threshold: 2 layers of _POLICY_STREAMS / 2 equal
        # segments are _POLICY_STREAMS streams a step with resets, 2 without.
        trace = synth_trace(SynthConfig(n_moe_layers=2, n_routed_experts=10, top_k=2,
                                        n_segments=cache_sim._POLICY_STREAMS // 2,
                                        steps_per_segment=5, seed=2))
        for policy in (Policy.LFU, Policy.FIFO, Policy.BELADY):
            for reset, passed in ((True, True), (False, False)):
                cfg = CacheConfig(3, policy, reset_each_segment=reset)
                with mock.patch.object(cache_sim, "_policy_pass",
                                       wraps=cache_sim._policy_pass) as spy:
                    got = simulate(trace, cfg)
                assert spy.called == passed
                assert got == reference_simulate(trace, cfg)


@st.composite
def relabel_cases(draw):
    """:func:`routed_traces` and the same trace with its experts renamed by a
    permutation of [0, N), under any policy, resets on or off."""
    trace, capacity, _ = draw(routed_traces(max_segments=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    renamed = RoutingTrace(trace.header, trace.keys,
                           rng.permutation(trace.header.n_routed_experts)[trace.topk], None)
    cfg = CacheConfig(capacity, draw(st.sampled_from(list(Policy))),
                      reset_each_segment=draw(st.booleans()))
    return trace, renamed, cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=relabel_cases())
def test_renaming_the_experts_keeps_the_step_counts(case):
    # Metamorphic: no policy reads what an expert is called, only ties do.
    # BELADY's ties to the lowest id change which expert of a tie stays, so
    # its token hits (see the next test) and final_resident may change; its
    # unique counts may not. Each trace runs on the array pass where it
    # applies and on the dict loop (events force it).
    trace, renamed, cfg = case
    with mock.patch.object(cache_sim, "_POLICY_STREAMS", 0):
        counts = [simulate(t, cfg, record_events).step_counts
                  for t in (trace, renamed) for record_events in (False, True)]
    fields = [0, 1, 3] if cfg.policy == Policy.BELADY else [0, 1, 2, 3]
    for other in counts[1:]:
        assert np.array_equal(other[..., fields], counts[0][..., fields])


def test_belady_token_hits_follow_the_tie_to_the_lowest_id():
    # Experts 0 and 1 are both next used at step 2, where 0 fills two slots
    # and 1 one. The tie evicts 0, so step 2 hits one slot; renamed, the
    # expert that fills two slots is 1, kept, and step 2 hits two.
    header = TraceHeader(1, 4, 1, 3)
    cfg = CacheConfig(2, Policy.BELADY)
    hits = []
    for step_slots in ([(0, 1, 1), (2, 2, 2), (0, 0, 1)], [(1, 0, 0), (2, 2, 2), (1, 1, 0)]):
        trace = from_records(header, [StepRecord(0, t, 0, b, (e,), None)
                                      for t, slots in enumerate(step_slots)
                                      for b, e in enumerate(slots)])
        report = simulate(trace, cfg)
        assert report == reference_simulate(trace, cfg)
        hits.append(report.step_counts[0, 2, [0, 2]].tolist())
    assert hits == [[1, 1], [1, 2]]


def split_segments(trace, cut):
    """``trace`` as two traces of its header: its segments before ``cut``,
    and the others renumbered from 0."""
    before = trace.keys[:, 0] < cut
    keys = trace.keys[~before].copy()
    keys[:, 0] -= cut
    return (RoutingTrace(trace.header, trace.keys[before], trace.topk[before], None),
            RoutingTrace(trace.header, keys, trace.topk[~before], None))


def concatenate(first, second):
    """``second``'s segments after ``first``'s, in one trace of their header."""
    keys = second.keys.copy()
    keys[:, 0] += len(first.segment_lengths)
    return RoutingTrace(first.header, np.concatenate((first.keys, keys)),
                        np.concatenate((first.topk, second.topk)), None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=routed_traces(max_segments=8), cut=st.integers(0, 8),
       policy=st.sampled_from(list(Policy)))
def test_concatenated_traces_count_side_by_side(case, cut, policy):
    # Metamorphic: with resets no segment sees another, so the counts of two
    # traces run as one are the two runs' counts, step after step. Each run
    # takes the array pass where it applies and the dict loop (events force it).
    first, second = split_segments(case[0], cut)
    cfg = CacheConfig(case[1], policy, reset_each_segment=True)
    whole = concatenate(first, second)
    with mock.patch.object(cache_sim, "_POLICY_STREAMS", 0):
        for record_events in (False, True):
            counts = [simulate(t, cfg, record_events).step_counts
                      for t in (whole, first, second)]
            assert np.array_equal(counts[0], np.concatenate(counts[1:], axis=1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=fetch_count_cases(), cut=st.integers(0, 4))
def test_concatenated_traces_count_side_by_side_at_every_capacity(case, cut):
    trace, capacities = case
    first, second = split_segments(trace, cut)
    counts = [lru_fetch_counts(t, capacities) for t in (concatenate(first, second), first, second)]
    assert np.array_equal(counts[0], np.concatenate(counts[1:], axis=-1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=lru_sim_cases())
def test_lru_misses_never_rise_with_capacity(case):
    # Metamorphic: at C >= max_t |U_t| LRU is a stack algorithm, so a larger
    # cache holds what a smaller one does, and no step misses more.
    trace, cfg, fits = case
    widest = cfg.capacity if fits else cfg.capacity + 1  # max_t |U_t|, or below it
    for record_events in (False, True):
        misses = [simulate(trace, replace(cfg, capacity=c), record_events).unique_misses
                  for c in range(widest, trace.header.n_routed_experts + 2)]
        for smaller, larger in zip(misses, misses[1:]):
            assert (larger <= smaller).all()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=routed_traces(), reset=st.booleans())
def test_belady_misses_never_rise_with_capacity(case, reset):
    # Metamorphic: at C >= max_t |U_t| a larger Belady cache fetches no more
    # at any step, on the policy pass (forced) and on the dict loop (events).
    trace, capacity, fits = case
    widest = capacity if fits else capacity + 1  # max_t |U_t|
    with mock.patch.object(cache_sim, "_POLICY_STREAMS", 0):
        for record_events in (False, True):
            misses = [simulate(trace, CacheConfig(c, Policy.BELADY, reset), record_events)
                      .unique_misses for c in range(widest, trace.header.n_routed_experts + 2)]
            for smaller, larger in zip(misses, misses[1:]):
                assert (larger <= smaller).all()


# Probabilities that tie: zeros, which rerouting lifts to log(REROUTE_EPS),
# and a few repeated values.
REROUTE_POOL = np.array([0.0, 0.125, 0.25, 0.5])


@st.composite
def reroute_cases(draw):
    """A probs trace with B up to 4, ragged segments and rows drawn either
    continuous or from ``REROUTE_POOL`` (ties inside the head, at the K/K+1
    boundary and past it), each row's stored Top-K its stable-rule Top-K; and
    an online LRU, LFU or FIFO cache, resets on or off, with an interference
    fault or none, so some steps meet an empty resident set mid-segment."""
    n_layers, batch, k = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(k, 10))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    pooled = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rows = []
    for s, length in enumerate(lengths):
        for t in range(length):
            for layer in range(n_layers):
                for b in range(batch):
                    p = (rng.choice(REROUTE_POOL, n) if rng.random() < pooled
                         else rng.dirichlet(np.ones(n)))
                    rows.append(StepRecord(s, t, layer, b,
                                           tuple(stable_topk_rows(p, k).tolist()),
                                           tuple(p.tolist())))
    trace = from_records(TraceHeader(n_layers, n, k, batch, has_probs=True), rows)
    scenario = draw(st.none() | st.builds(
        FaultScenario, kind=st.just(FaultKind.INTERFERENCE), n=st.integers(1, n),
        seed=st.integers(0, 99)))
    cfg = CacheConfig(draw(st.integers(1, n + 2)),
                      draw(st.sampled_from([Policy.LRU, Policy.LFU, Policy.FIFO])),
                      draw(st.booleans()), scenario=scenario)
    return trace, cfg, draw(st.just(0.0) | st.floats(0.0, 10.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=reroute_cases())
def test_reroute_matches_reference_report(case):
    # One reroute_topk call per (layer, step) gives the reference's report,
    # whose rows are rerouted one at a time through one stable sort. A step
    # that meets an empty resident set keeps the plain Top-K of its rows.
    trace, cfg, beta = case
    cfg = replace(cfg, reroute_beta=beta)
    got = simulate(trace, cfg, record_events=True)
    assert got == reference_simulate(trace, cfg, record_events=True)
    steps = trace.step_keys.tolist()
    for event in got.events:
        if not event.resident_before:
            at = steps.index([event.segment, event.step]), event.layer
            assert np.array_equal(got.rerouted_trace.routes[at], trace.routes[at])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=reroute_cases())
def test_reroute_at_beta_zero_is_plain_topk(case):
    # No bonus: every row keeps its stored Top-K, ties included, and the
    # counts are those of the trace served as stored.
    trace, cfg, _beta = case
    got = simulate(trace, replace(cfg, reroute_beta=0.0))
    assert np.array_equal(got.rerouted_trace.topk, trace.topk)
    assert np.array_equal(got.step_counts, simulate(trace, cfg).step_counts)


def test_prefetch_at_a_huge_expert_count_sizes_nothing_by_n():
    # A prefetched expert is drawn among the ids outside the cache without
    # listing them, so N = 10**12 runs under the 1 GiB address-space cap.
    script = (
        "from moe_locality.cache_sim import (CacheConfig, FaultKind, FaultScenario, Policy,\n"
        "                                    simulate)\n"
        "from moe_locality.trace import SynthConfig, synth_trace\n"
        "trace = synth_trace(SynthConfig(n_routed_experts=10**12, top_k=4, batch_size=2,\n"
        "                                n_segments=2, steps_per_segment=10, seed=1))\n"
        "for policy in (Policy.LRU, Policy.LFU, Policy.FIFO):\n"
        "    prefetch = FaultScenario(FaultKind.PREFETCH, n=2, seed=3)\n"
        "    print(simulate(trace, CacheConfig(8, policy, scenario=prefetch)).overall)\n"
    )
    proc = run_python("-c", script, timeout=120, preexec_fn=cap_memory)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("LayerTotals") == 3
