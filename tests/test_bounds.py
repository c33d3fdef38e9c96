from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moe_locality import bounds
from moe_locality.bounds import (
    check_step_bound,
    check_working_set_bound,
    run_campaign,
    run_counterexamples,
)
from moe_locality.cache_sim import CacheConfig, FaultKind, FaultScenario, Policy, simulate
from moe_locality.trace import (
    SynthConfig,
    TraceError,
    TraceHeader,
    parse_trace,
    synth_trace,
    validate_trace,
)
from reference_trace import from_records, iter_steps, jsonl, records

from reference_sim import (
    as_reference,
    reference_campaign_configs,
    reference_check,
    reference_collect_step_records,
    reference_report,
    reference_run_campaign,
    reference_slice_batch,
    reference_tally,
    simulate_collect_step_records,
    step_rows,
)
from test_trace import make_trace


def seq_trace(sets, k, n):
    header = TraceHeader(1, n, k, 1)
    return make_trace(header, [(0, t, 0, 0, tuple(s)) for t, s in enumerate(sets)])


class TestStepBound:
    def test_identical_sets_zero_fetch(self):
        trace = seq_trace([(0, 1, 2)] * 5, k=3, n=8)
        report = check_step_bound(trace, capacity=3)
        assert report.n_violations == 0
        assert all(r.n_fetch == 0 and r.overlap_bound == 0 for r in report.step_records)

    def test_disjoint_sets_bound_is_tight(self):
        # Alternating disjoint sets at C=K: every step fetches exactly K.
        sets = [(0, 1), (2, 3)] * 4
        trace = seq_trace(sets, k=2, n=4)
        report = check_step_bound(trace, capacity=2)
        assert report.n_violations == 0
        assert all(r.n_fetch == 2 and r.overlap_bound == 2 for r in report.step_records)

    def test_rejects_capacity_below_k(self):
        trace = seq_trace([(0, 1, 2)] * 3, k=3, n=8)
        with pytest.raises(ValueError, match="C >= K"):
            check_step_bound(trace, capacity=2)

    def test_small_random_campaign_zero_violations(self):
        summary = run_campaign(n_traces=60, seed=5)
        assert summary["violations"] == 0
        assert summary["checks"] > 0

    def test_campaign_threads_deterministic(self):
        a = run_campaign(n_traces=30, seed=9, threads=1)
        b = run_campaign(n_traces=30, seed=9, threads=4)
        assert a == b

    @pytest.mark.parametrize("n_traces", [0, -2])
    def test_campaign_rejects_no_traces(self, n_traces):
        with pytest.raises(ValueError, match="n_traces"):
            run_campaign(n_traces=n_traces)

    def test_multi_batch_reduced_per_batch(self):
        trace = synth_trace(
            SynthConfig(batch_size=3, independent_batches=True, seed=3, steps_per_segment=10)
        )
        report = check_step_bound(trace, capacity=trace.header.top_k)
        assert report.n_violations == 0
        assert {r.batch for r in report.step_records} == {0, 1, 2}

    def test_batch_slot_reindexes_to_single_batch(self):
        # The B=1 trace a flagged slot is replayed as.
        trace = synth_trace(SynthConfig(n_moe_layers=2, n_segments=2, batch_size=3, seed=9,
                                        independent_batches=True))
        sub = bounds._slot_trace(trace, 2)
        assert sub.header.batch_size == 1
        assert validate_trace(sub) == []
        assert sub == reference_slice_batch(trace, 2)

    def test_duplicated_key_is_refused(self):
        # (0,0,0,1) replaced by a second (0,0,0,0): batch slot 1's stride
        # would serve batch 0's routing as its own.
        trace = synth_trace(SynthConfig(batch_size=2, seed=4, steps_per_segment=6))
        rows = list(records(trace))
        rows[1] = rows[0]
        bad = parse_trace(jsonl(trace.header, rows), validate=False)
        for check in (check_step_bound, check_working_set_bound):
            with pytest.raises(KeyError, match="not dense"):
                check(bad, trace.header.top_k)

    def test_duplicate_expert_id_is_refused(self):
        # Overlap counts are set intersections only for K distinct experts.
        trace = seq_trace([(1, 1), (1, 2), (1, 2)], k=2, n=4)
        for check in (check_step_bound, check_working_set_bound):
            with pytest.raises(ValueError, match="size K=2"):
                check(trace, 2)

    @pytest.mark.parametrize("sets", [[(0, 1), (0, 1, 2), (1, 2)], [(0, 1), (1, 2), ()]])
    def test_row_that_is_not_a_top_k_set_is_refused(self, sets):
        # A row of K+1 or of no experts is bad input, refused as such before
        # any fetch is counted: the load refuses it, so no check receives it.
        with pytest.raises(TraceError, match="arity.*expected K=2"):
            seq_trace(sets, k=2, n=4)


class TestWorkingSetBound:
    def test_reduces_to_step_bound_at_capacity_k(self):
        # At C = K the working set that fits can never exceed E_{t-1}, so the
        # bound value collapses to the one-step bound (the horizon may still
        # run deeper when consecutive sets repeat).
        trace = synth_trace(SynthConfig(seed=11, steps_per_segment=20, stickiness=0.5))
        k = trace.header.top_k
        report = check_working_set_bound(trace, capacity=k)
        assert report.n_violations == 0
        for r in report.step_records:
            assert r.ws_horizon >= 1
            assert r.ws_bound == r.overlap_bound

    def test_periodic_sets_tighter_than_step_bound(self):
        # A,B,A,B with |A ∪ B| <= C: zero fetches after warmup, though the
        # one-step bound says K.
        a, b = (0, 1), (2, 3)
        trace = seq_trace([a, b, a, b, a, b], k=2, n=8)
        report = check_working_set_bound(trace, capacity=4)
        assert report.n_violations == 0
        late = [r for r in report.step_records if r.step >= 2]
        assert all(r.n_fetch == 0 for r in late)
        assert all(r.ws_bound == 0 for r in late)
        assert all(r.overlap_bound == 2 for r in late)
        assert any(r.ws_bound < r.overlap_bound for r in late)

    def test_ws_bound_never_looser(self):
        trace = synth_trace(SynthConfig(seed=17, steps_per_segment=30, stickiness=0.6))
        report = check_working_set_bound(trace, capacity=2 * trace.header.top_k)
        assert report.n_violations == 0
        for r in report.step_records:
            assert r.ws_bound <= r.overlap_bound

    def test_small_random_campaign(self):
        summary = run_campaign(n_traces=40, seed=2, working_set=True)
        assert summary["violations"] == 0

    def test_capacity_holding_the_segment_reaches_back_to_its_start(self):
        # C at least the segment's distinct ids: L_t = t, the whole prefix.
        trace = synth_trace(SynthConfig(n_routed_experts=40, top_k=3, steps_per_segment=300,
                                        stickiness=0.7, seed=5))
        capacity = len(np.unique(trace.routes))
        report = check_working_set_bound(trace, capacity)
        assert [r.ws_horizon for r in report.step_records] == list(range(1, 300))
        assert as_reference(report) == reference_check(trace, capacity, working_set=True)

    def test_capacity_below_k_has_no_horizon(self):
        # No step's E_{t-1} fits in C < K: L_t = 0 and the bound is K.
        trace = synth_trace(SynthConfig(top_k=4, n_segments=2, steps_per_segment=12, seed=3))
        cfg = CacheConfig(3, Policy.LRU, reset_each_segment=True)
        report = bounds._simulated_report(trace, cfg, working_set=True)
        assert {(r.ws_horizon, r.ws_bound) for r in report.step_records} == {(0, 4)}
        assert as_reference(report) == reference_report(
            3, True, *reference_collect_step_records(trace, cfg, working_set=True))

    def test_one_capacity_per_check(self):
        trace = seq_trace([(0, 1), (1, 2), (2, 3)], k=2, n=4)
        with pytest.raises(ValueError, match="one capacity"):
            bounds._check(trace, (2, 3), working_set=True)
        assert bounds._check(trace, (2, 3), working_set=False).ws_horizon is None
        assert bounds._check(trace, (3,), working_set=True).ws_horizon.tolist() == [[[0, 1, 2]]]


class TestCounterexamples:
    def test_all_three_scenarios_violate(self):
        results = run_counterexamples()
        assert [r.name for r in results] == ["under_capacity", "interference", "prefetch"]
        for r in results:
            assert r.n_violations >= 1, r.name
            assert r.first_violation is not None
            assert r.first_violation.resident_before is not None

    def test_under_capacity_hand_numbers(self):
        # K=6, C=4, constant set: every post-warmup step misses exactly 2 > 0.
        results = {r.name: r for r in run_counterexamples()}
        v = results["under_capacity"].first_violation
        assert v.n_fetch == 2
        assert v.overlap_bound == 0

    def test_interference_and_prefetch_fetch_at_least_one(self):
        results = {r.name: r for r in run_counterexamples()}
        for name in ("interference", "prefetch"):
            v = results[name].first_violation
            assert v.n_fetch >= 1
            assert v.overlap_bound == 0

    def test_assumption_labels(self):
        results = {r.name: r for r in run_counterexamples()}
        assert "capacity" in results["under_capacity"].assumption_broken
        assert "isolation" in results["interference"].assumption_broken
        assert "insertion" in results["prefetch"].assumption_broken


class TestAdmissionProperty:
    def test_simulator_enforces_residency_lemma(self):
        # A clean run must never trip the internal admission check. It runs in
        # the dict loop only: events keep LRU there, off the stamp pass.
        for seed in range(5):
            trace = synth_trace(SynthConfig(seed=seed, n_segments=2, steps_per_segment=15))
            for policy in (Policy.LRU, Policy.LFU, Policy.FIFO):
                simulate(
                    trace,
                    CacheConfig(capacity=trace.header.top_k, policy=policy,
                                reset_each_segment=True),
                    record_events=True,
                )

    def test_cross_layer_totals_are_sums(self):
        trace = synth_trace(SynthConfig(n_moe_layers=3, seed=7, steps_per_segment=12))
        report = simulate(trace, CacheConfig(4, Policy.LRU, True))
        assert report.overall.unique_misses == sum(
            lt.unique_misses for lt in report.per_layer
        )
        per_step = {}
        for _layer, s, t, uh, ut, _th, _tt in step_rows(trace, report):
            per_step[(s, t)] = per_step.get((s, t), 0) + ut - uh
        for i, (s, t) in enumerate(iter_steps(trace)):
            assert report.step_unique_miss_series[i] == per_step[(s, t)]


bound_trace_configs = st.builds(
    SynthConfig,
    n_moe_layers=st.integers(1, 2),
    n_routed_experts=st.integers(6, 14),
    top_k=st.integers(1, 4),
    batch_size=st.integers(1, 4),
    n_segments=st.integers(1, 3),
    steps_per_segment=st.integers(1, 12),
    stickiness=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)


@st.composite
def ragged_bound_traces(draw):
    """A trace of ``bound_trace_configs`` cut to ragged segment lengths, where
    a length of 0 leaves an absent segment id; at least one step is kept."""
    cfg = draw(bound_trace_configs)
    lengths = draw(st.lists(st.integers(0, cfg.steps_per_segment), min_size=cfg.n_segments,
                            max_size=cfg.n_segments).filter(any))
    trace = synth_trace(cfg)
    kept = [r for r in records(trace) if r.step_index < lengths[r.segment_id]]
    return from_records(trace.header, kept)


class TestReferenceEquivalence:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(trace=ragged_bound_traces(), extra=st.integers(0, 5), working_set=st.booleans())
    def test_bound_report_matches_reference(self, trace, extra, working_set):
        # Both oracles: the keyed-lookup collection and the former package
        # collection, which counted fetches with one simulate per capacity.
        check = check_working_set_bound if working_set else check_step_bound
        capacity = trace.header.top_k + extra
        report = as_reference(check(trace, capacity))
        assert report == reference_check(trace, capacity, working_set)
        assert report == reference_check(
            trace, capacity, working_set, simulate_collect_step_records
        )

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        cfg=bound_trace_configs.map(lambda c: SynthConfig(**{**vars(c), "batch_size": 1})),
        capacity=st.integers(1, 8),
        scenario=st.builds(FaultScenario, kind=st.sampled_from(list(FaultKind)),
                           n=st.integers(1, 2), seed=st.integers(0, 99)),
        working_set=st.booleans(),
    )
    def test_faulted_records_match_reference(self, cfg, capacity, scenario, working_set):
        # Faults and C < K produce flagged steps, whose resident sets come
        # from the event-recording simulation.
        trace = synth_trace(cfg)
        sim_cfg = CacheConfig(capacity, Policy.LRU, reset_each_segment=True, scenario=scenario)
        assert as_reference(bounds._simulated_report(trace, sim_cfg, working_set)) == (
            reference_report(capacity, working_set,
                             *reference_collect_step_records(trace, sim_cfg, working_set)))

    @pytest.mark.parametrize("kind", [FaultKind.INTERFERENCE, FaultKind.PREFETCH])
    @pytest.mark.parametrize("working_set", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_faults_break_bounds_as_the_reference_does(self, kind, working_set, seed):
        # Sticky two-segment traces at C = K, where an inter-step eviction or
        # insertion breaks a bound; the flagged records carry resident sets.
        trace = synth_trace(SynthConfig(n_routed_experts=8, top_k=3, n_segments=2,
                                        steps_per_segment=9, stickiness=0.9, seed=seed))
        cfg = CacheConfig(3, Policy.LRU, reset_each_segment=True,
                          scenario=FaultScenario(kind, n=1, seed=seed))
        report = bounds._simulated_report(trace, cfg, working_set)
        assert report.violations
        assert all(r.resident_before is not None for r in report.violations)
        assert as_reference(report) == reference_report(
            3, working_set, *reference_collect_step_records(trace, cfg, working_set))

    def test_counterexamples_match_reference(self):
        def oracle(trace, cfg, working_set):
            return reference_report(cfg.capacity, working_set,
                                    *reference_collect_step_records(trace, cfg, working_set))

        with mock.patch.object(bounds, "_simulated_report", oracle):
            expected = run_counterexamples()
        assert run_counterexamples() == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=bound_trace_configs.map(lambda c: SynthConfig(**{**vars(c), "batch_size": 2})),
       extra=st.integers(0, 5), working_set=st.booleans())
def test_checking_two_slots_checks_each_alone(cfg, extra, working_set):
    # Metamorphic: each slot is its own cache, so a B = 2 report is its two
    # B = 1 slot reports, slot 0's records first, batch relabelled.
    trace = synth_trace(cfg)
    check = check_working_set_bound if working_set else check_step_bound
    capacity = cfg.top_k + extra
    first, second = (as_reference(check(bounds._slot_trace(trace, b), capacity))
                     for b in (0, 1))
    assert as_reference(check(trace, capacity)) == first._replace(
        violations=first.violations + tuple(replace(r, batch=1) for r in second.violations),
        n_step_violations=first.n_step_violations + second.n_step_violations,
        n_avg_violations=first.n_avg_violations + second.n_avg_violations,
        step_records=first.step_records + tuple(
            replace(r, batch=1) for r in second.step_records),
        sequence_records=first.sequence_records + tuple(
            replace(r, batch=1) for r in second.sequence_records),
    )


class TestCampaignEquivalence:
    """``run_campaign`` tallies every capacity from one pass per trace; the
    oracle builds one full report per trace and capacity."""

    @pytest.mark.parametrize("seed", [0, 3, 8])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("working_set", [False, True])
    def test_matches_per_capacity_reports(self, seed, threads, working_set):
        assert run_campaign(25, seed, working_set=working_set, threads=threads) == (
            reference_run_campaign(25, seed, working_set=working_set)
        )

    @pytest.mark.parametrize("capacities", [(6,), (6, 7, 30), (9, 6, 6)])
    @pytest.mark.parametrize("working_set", [False, True])
    def test_explicit_capacities(self, capacities, working_set):
        # The tally at capacities the campaign never picks, unsorted and
        # repeated ones among them, over the campaign's own traces (K <= 6).
        # A working-set check takes its capacities one per call.
        calls = [(c,) for c in capacities] if working_set else [capacities]
        for cfg in reference_campaign_configs(20, 4):
            trace = synth_trace(cfg)
            tallies = [bounds._tally(trace, bounds._check(trace, caps, working_set))
                       for caps in calls]
            assert tuple(map(sum, zip(*tallies))) == (
                reference_tally(trace, capacities, working_set)
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=bound_trace_configs, extras=st.lists(st.integers(0, 4), min_size=1, max_size=3),
           working_set=st.booleans(), noise_seed=st.integers(0, 2**31))
    def test_tally_matches_the_reports_of_the_same_counts(self, cfg, extras, working_set,
                                                          noise_seed):
        # Counts pushed off their true values break some bounds and keep
        # others, so the tally must count exactly the violations the records
        # flag, per step and per sequence.
        trace = synth_trace(cfg)
        caps = tuple(cfg.top_k + e for e in extras)
        noise = np.random.default_rng(noise_seed)
        # A working-set check takes its capacities one per call.
        for call in ([(c,) for c in caps] if working_set else [caps]):
            b = bounds._check(trace, call, working_set)
            b = b._replace(n_fetch=b.n_fetch + noise.integers(-1, 3, b.n_fetch.shape))
            checks = violations = 0
            for c, cap in enumerate(call):
                cfg_c = CacheConfig(cap, Policy.LRU, reset_each_segment=True)
                one_capacity = b._replace(n_fetch=b.n_fetch[c:c + 1])
                report = bounds._report(trace, cfg_c, one_capacity)
                steps, seqs = report.step_records, report.sequence_records
                checks += len(steps) + len(seqs)
                violations += sum(r.ws_violated if working_set else r.violated for r in steps)
                violations += sum(r.violated for r in seqs)
            assert bounds._tally(trace, b) == (checks, violations)

    def test_violations_are_tallied(self):
        # Under a corrupted fetch count every bound must be seen to break:
        # one fetch above K violates every step and every sequence record.
        real = bounds.lru_fetch_counts_each

        def excessive(traces, capacities):
            return [counts + trace.header.top_k + 1
                    for trace, counts in zip(traces, real(traces, capacities))]

        with mock.patch.object(bounds, "lru_fetch_counts_each", excessive):
            summary = run_campaign(10, 2)
        assert summary["checks"] == reference_run_campaign(10, 2)["checks"]
        assert summary["violations"] == summary["checks"]


def _refuse_simulate(*args, **kwargs):
    raise AssertionError("simulate called on a clean check")


class TestSimulateOnlyWhenFlagged:
    """Fetch counts come from the stack pass; ``simulate`` runs only for the
    resident-set snapshot of a flagged step."""

    def test_clean_campaign_and_checks_never_simulate(self):
        trace = synth_trace(SynthConfig(n_moe_layers=2, batch_size=3, n_segments=2,
                                        independent_batches=True, seed=6))
        with mock.patch.object(bounds, "simulate", _refuse_simulate):
            assert run_campaign(50)["violations"] == 0
            assert run_campaign(20, working_set=True)["violations"] == 0
            for check in (check_step_bound, check_working_set_bound):
                assert check(trace, trace.header.top_k + 1).n_violations == 0

    def test_faulted_trace_keeps_its_snapshot(self):
        calls = []

        def spy(trace, cfg, record_events=False):
            calls.append(record_events)
            return simulate(trace, cfg, record_events)

        with mock.patch.object(bounds, "simulate", spy):
            results = run_counterexamples()
        # One counting run per scenario, one event run per flagged scenario.
        assert calls == [False, True] * len(results)
        assert all(r.first_violation.resident_before is not None for r in results)
