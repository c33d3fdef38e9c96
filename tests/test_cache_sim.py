import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moe_locality.cache_sim import (
    CacheConfig,
    FaultKind,
    FaultScenario,
    IoModel,
    Policy,
    estimate_tpot,
    lru_fetch_counts,
    percentile,
    reroute_topk,
    _occurrence_index,
    _step_requests,
    simulate,
)
from moe_locality.gate import topk
from moe_locality.metrics import eor
from moe_locality.trace import SynthConfig, TraceError, TraceHeader, synth_trace
from reference_trace import StepRecord, from_records, records

from reference_sim import naive_simulate, reference_simulate_with_totals, step_rows
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
    from the occurrence index that Belady's victim choice searches (inf when
    the expert is not requested again in the same scope)."""
    steps = list(trace.iter_steps())
    requests = _step_requests(
        [trace.topk[trace.stream(layer, b)] for b in range(trace.header.batch_size)])
    occ = _occurrence_index(steps, requests, within_segment)
    table = {}
    for ordinal, ((s, t), (_slots, uniq)) in enumerate(zip(steps, requests)):
        for e in uniq:
            positions = occ[(s if within_segment else None, e)]
            i = bisect_right(positions, ordinal)
            table[(s, t, e)] = steps[positions[i]][1] if i < len(positions) else math.inf
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
            assert reroute_topk(p, resident, 0.0, 3) == topk(p, 3)

    def test_strong_bonus_pulls_in_cached_expert(self):
        got = reroute_topk([0.4, 0.3, 0.2, 0.1], {3}, 10.0, 2)
        assert set(got) == {3, 0}

    def test_bonus_on_selected_expert_changes_nothing(self):
        for beta in (0.0, 0.5, 2.0, 10.0):
            got = reroute_topk([0.4, 0.3, 0.2, 0.1], {1}, beta, 2)
            assert set(got) == {0, 1}

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


class TestLruFetchCounts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=stack_cases())
    def test_matches_simulate_at_every_capacity(self, case):
        trace, capacities = case
        h = trace.header
        for b in range(h.batch_size):
            slot = trace.batch_slot(b)
            counts = lru_fetch_counts(slot, capacities)
            assert counts.shape == (len(capacities), h.n_moe_layers, slot.segment_offsets[-1])
            for c, capacity in enumerate(capacities):
                expected = simulate(slot, lru(capacity)).unique_misses
                assert np.array_equal(counts[c], expected), capacity

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=stack_cases())
    def test_refuses_capacity_below_k(self, case):
        trace, capacities = case
        slot = trace.batch_slot(0)
        with pytest.raises(ValueError, match="capacities >= K"):
            lru_fetch_counts(slot, capacities + (trace.header.top_k - 1,))

    def test_hand_counts(self):
        # A, B, A with |A ∪ B| = 4: at C=2 every step misses twice, at C=4
        # the return to A hits; the reset empties the stack for segment 1.
        trace = seq_trace([(0, 1), (2, 3), (0, 1), (0, 1)], segment_starts=(3,))
        counts = lru_fetch_counts(trace, (2, 4, 10**30))
        assert counts[:, 0].tolist() == [[2, 2, 2, 2], [2, 2, 0, 2], [2, 2, 0, 2]]

    def test_needs_a_capacity(self):
        with pytest.raises(ValueError, match="capacities >= K"):
            lru_fetch_counts(seq_trace([(0, 1)]), ())

    def test_counts_one_batch_slot(self):
        trace = synth_trace(SynthConfig(batch_size=2, seed=1))
        with pytest.raises(ValueError, match="one batch slot, got B=2"):
            lru_fetch_counts(trace, (8,))

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
