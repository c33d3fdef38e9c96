import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_objective
from reference_objective import float_bits
from moe_locality import trainer
from moe_locality.objective import LossWeights
from moe_locality.trainer import (
    SyntheticDataConfig,
    TrainConfig,
    TrainingDiverged,
    evaluate_gate,
    init_gate_matrix,
    sequence_eor,
    synth_hidden_sequences,
    train,
    train_grid,
)

BENCH = SyntheticDataConfig()  # 4 sequences, d=8, N=32, K=4, piecewise-stationary
FULL = LossWeights(warm_reuse_steps=50, warm_loc_steps=100)


def bench_setup(steps=500):
    sequences = synth_hidden_sequences(BENCH)
    theta0 = init_gate_matrix(BENCH.hidden_dim, BENCH.n_experts, seed=0)
    return sequences, theta0, TrainConfig(steps=steps, lr=1e-2, seed=0)


class TestData:
    def test_deterministic_for_seed(self):
        a = synth_hidden_sequences(BENCH)
        b = synth_hidden_sequences(BENCH)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_shapes(self):
        seqs = synth_hidden_sequences(BENCH)
        assert len(seqs) == BENCH.n_sequences
        assert all(s.shape == (BENCH.seq_len, BENCH.hidden_dim) for s in seqs)

    def test_blocks_share_mean(self):
        cfg = SyntheticDataConfig(noise=0.0, seed=3)
        seq = synth_hidden_sequences(cfg)[0]
        # zero noise: rows within a switch period are identical
        for b in range(cfg.seq_len // cfg.switch_period):
            block = seq[b * cfg.switch_period : (b + 1) * cfg.switch_period]
            assert np.allclose(block, block[0])


class TestTrainLoop:
    def test_bit_reproducible(self):
        sequences, theta0, tcfg = bench_setup(steps=40)
        r1 = train(theta0.copy(), sequences, tcfg, FULL, BENCH.top_k)
        r2 = train(theta0.copy(), sequences, tcfg, FULL, BENCH.top_k)
        assert np.array_equal(r1.params.theta, r2.params.theta)
        assert r1.log == r2.log

    def test_snapshot_untouched(self):
        sequences, theta0, tcfg = bench_setup(steps=30)
        result = train(theta0.copy(), sequences, tcfg, FULL, BENCH.top_k)
        assert np.array_equal(result.params.theta0, theta0)
        assert not np.array_equal(result.params.theta, theta0)

    def test_log_columns_and_warmup(self):
        sequences, theta0, tcfg = bench_setup(steps=60)
        result = train(theta0.copy(), sequences, tcfg, FULL, BENCH.top_k)
        assert len(result.log) == 60
        assert result.log[0].alpha_reuse == 0.0
        assert result.log[50].alpha_reuse == 1.0
        assert all(np.isfinite(r.total) for r in result.log)

    def test_divergence_aborts_with_step(self):
        sequences, theta0, _ = bench_setup()
        theta0 = theta0.copy()
        theta0[0, 0] = np.nan
        with pytest.raises((TrainingDiverged, ValueError)):
            train(theta0, sequences, TrainConfig(steps=5, lr=1e-2), FULL, BENCH.top_k)

    def test_sgd_variant_runs(self):
        sequences, theta0, _ = bench_setup()
        cfg = TrainConfig(steps=20, lr=1e-2, optimizer="sgd")
        result = train(theta0.copy(), sequences, cfg, FULL, BENCH.top_k)
        assert len(result.log) == 20

    def test_needs_sequences(self):
        _, theta0, tcfg = bench_setup()
        with pytest.raises(ValueError, match="sequence"):
            train(theta0, [], tcfg, FULL, BENCH.top_k)

    def test_gradient_clip_bounds_update(self):
        sequences, theta0, _ = bench_setup()
        cfg = TrainConfig(steps=10, lr=1e-2, clip_norm=1e-6, optimizer="sgd")
        result = train(theta0.copy(), sequences, cfg, FULL, BENCH.top_k)
        # updates bounded by lr * clip_norm per step
        drift = np.abs(result.params.theta - theta0).max()
        assert drift <= 10 * 1e-2 * 1e-6 + 1e-15


@pytest.fixture(scope="module")
def runs():
    sequences, theta0, tcfg = bench_setup(steps=500)
    variants = {
        "full": FULL,
        "no_reuse": LossWeights(lambda_reuse=0.0, warm_reuse_steps=50, warm_loc_steps=100),
        "no_trust": LossWeights(lambda_kl=0.0, warm_reuse_steps=50, warm_loc_steps=100),
    }
    return {
        name: train(theta0.copy(), sequences, tcfg, w, BENCH.top_k)
        for name, w in variants.items()
    }


class TestTrainingEffect:
    """Directional behavior of the full objective vs its ablations on the
    fixed-seed benchmark."""

    def test_full_objective_raises_eor_10pct(self, runs):
        r = runs["full"]
        assert r.eval_after.eor >= 1.10 * r.eval_before.eor

    def test_reuse_ablation_gains_less(self, runs):
        gain_full = runs["full"].eval_after.eor - runs["full"].eval_before.eor
        gain_ablat = runs["no_reuse"].eval_after.eor - runs["no_reuse"].eval_before.eor
        assert gain_ablat < gain_full

    def test_trust_ablation_drifts_more(self, runs):
        assert runs["no_trust"].eval_after.trust_kl > runs["full"].eval_after.trust_kl

    def test_eval_helpers(self, runs):
        sequences, theta0, _ = bench_setup()
        stats = evaluate_gate(theta0, theta0, sequences, BENCH.top_k)
        assert stats.trust_kl == pytest.approx(0.0, abs=1e-14)
        assert 0.0 <= stats.eor <= 1.0
        assert sequence_eor(theta0, sequences[0], BENCH.top_k) <= 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), t_len=st.integers(2, 20),
       data=st.data())
def test_sequence_eor_matches_reference(seed, n, t_len, data):
    k = data.draw(st.sampled_from(sorted({1, n, data.draw(st.integers(1, n))})))
    rng = np.random.default_rng(seed)
    # Small logit scales give near ties; rounding the gate gives exact ties.
    theta = np.round(data.draw(st.sampled_from([0.01, 1.0, 20.0]))
                     * rng.standard_normal((3, n)), data.draw(st.sampled_from([1, 12])))
    hiddens = rng.standard_normal((t_len, 3))
    got = sequence_eor(theta, hiddens, k)
    assert got.hex() == reference_objective.sequence_eor(theta, hiddens, k).hex()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_train_matches_three_pass_reference_bitwise(seed, data):
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.sampled_from(sorted({1, n, data.draw(st.integers(1, n))})))
    rng = np.random.default_rng(seed)
    d = data.draw(st.integers(1, 5))
    sequences = [rng.standard_normal((data.draw(st.integers(2, 20)), d))
                 for _ in range(data.draw(st.integers(1, 3)))]
    theta_init = rng.standard_normal((d, n))
    cfg = TrainConfig(
        steps=data.draw(st.integers(1, 25)),
        lr=data.draw(st.sampled_from([1e-3, 5e-2])),
        optimizer=data.draw(st.sampled_from(["adam", "sgd"])),
        clip_norm=data.draw(st.sampled_from([0.0, 0.05, 1.0])),
    )
    weights = LossWeights(
        lag_set=tuple(sorted(data.draw(st.sets(st.integers(1, 25), min_size=1, max_size=4)))),
        window=data.draw(st.integers(1, 25)),
        warm_reuse_steps=data.draw(st.sampled_from([0, 5])),
        warm_loc_steps=data.draw(st.sampled_from([0, 10])),
    )
    got = train(theta_init.copy(), sequences, cfg, weights, k)
    assert_same_run(got, reference_objective.train(theta_init.copy(), sequences, cfg, weights, k))


def assert_same_run(got, want):
    """Every log row, both evaluations and theta/theta0, bit for bit."""
    assert [float_bits(row) for row in got.log] == [float_bits(row) for row in want.log]
    assert float_bits(got.eval_before) == float_bits(want.eval_before)
    assert float_bits(got.eval_after) == float_bits(want.eval_after)
    assert got.params.theta.tobytes() == want.params.theta.tobytes()
    assert got.params.theta0.tobytes() == want.params.theta0.tobytes()


LAMBDAS = ("lambda_kl", "lambda_reuse", "lambda_smooth", "lambda_lag", "lambda_ws")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_train_grid_matches_reference_per_point(seed, data):
    # Lock-step training against one three-pass reference run per grid point:
    # C = 1..4 points, each lambda_* drawn from {0, 0.3, 1.7}, and points that
    # differ in window, lag_set or warm-up so that the grid splits into groups.
    n = data.draw(st.integers(2, 10))
    k = data.draw(st.sampled_from(sorted({1, n, data.draw(st.integers(1, n))})))
    rng = np.random.default_rng(seed)
    d = data.draw(st.integers(1, 5))
    sequences = [rng.standard_normal((data.draw(st.integers(2, 20)), d))
                 for _ in range(data.draw(st.integers(1, 3)))]
    theta_init = data.draw(st.sampled_from([0.1, 1.0, 40.0])) * rng.standard_normal((d, n))
    cfg = TrainConfig(
        steps=data.draw(st.integers(1, 20)),
        lr=data.draw(st.sampled_from([1e-3, 5e-2])),
        optimizer=data.draw(st.sampled_from(["adam", "sgd"])),
        clip_norm=data.draw(st.sampled_from([0.0, 0.05, 1.0])),
    )
    base = LossWeights(
        lag_set=tuple(sorted(data.draw(st.sets(st.integers(1, 25), min_size=1, max_size=4)))),
        window=data.draw(st.integers(1, 25)),
        warm_reuse_steps=data.draw(st.sampled_from([0, 5])),
        warm_loc_steps=data.draw(st.sampled_from([0, 10])),
    )
    splits = [{}, {}, {"window": 3}, {"lag_set": (1, 3)}, {"warm_loc_steps": 4},
              {"warm_reuse_steps": 2}]
    points = [
        dataclasses.replace(
            base,
            **{name: data.draw(st.sampled_from([0.0, 0.3, 1.7])) for name in LAMBDAS},
            **data.draw(st.sampled_from(splits)),
        )
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    got = train_grid(theta_init.copy(), sequences, cfg, points, k)
    assert len(got) == len(points)
    for result, w in zip(got, points):
        assert_same_run(result, reference_objective.train(theta_init.copy(), sequences, cfg, w, k))


class TestTrainGrid:
    def test_split_grid_keeps_grid_order(self, monkeypatch):
        # Points 0 and 2 share everything but lambda_kl; point 1 has its own
        # window, so it trains alone, between them in time but not in order.
        sequences, theta0, _ = bench_setup()
        cfg = TrainConfig(steps=30, lr=1e-2)
        points = [dataclasses.replace(FULL, lambda_kl=0.0), dataclasses.replace(FULL, window=4),
                  dataclasses.replace(FULL, lambda_kl=0.7)]
        sizes = []
        lockstep = trainer._train_lockstep

        def spy(theta0, sequences, cfg, weights, top_k):
            sizes.append(len(weights))
            return lockstep(theta0, sequences, cfg, weights, top_k)

        monkeypatch.setattr(trainer, "_train_lockstep", spy)
        results = train_grid(theta0, sequences, cfg, points, BENCH.top_k)
        assert sizes == [2, 1]
        for result, w in zip(results, points):
            assert_same_run(result, reference_objective.train(theta0, sequences, cfg, w,
                                                              BENCH.top_k))

    def test_needs_a_weight_config(self):
        sequences, theta0, tcfg = bench_setup()
        with pytest.raises(ValueError, match="weight config"):
            train_grid(theta0, sequences, tcfg, [], BENCH.top_k)

    # fail_at maps a grid point to the first step at which its loss is made
    # non-finite; the error must be the first failing point's, at its step.
    @pytest.mark.parametrize("fail_at, step", [
        ({2: 3, 1: 7}, 7),
        ({1: 2, 0: 9}, 9),
        ({2: 3}, 3),
        ({0: 0, 1: 5}, 0),
    ])
    @pytest.mark.parametrize("split", [False, True])
    def test_divergence_matches_one_by_one(self, monkeypatch, fail_at, step, split):
        sequences, theta0, _ = bench_setup()
        cfg = TrainConfig(steps=12, lr=1e-2)
        points = [dataclasses.replace(FULL, lambda_kl=x) for x in (0.45, 0.2, 0.3)]
        if split:  # point 2 trains in a group of its own
            points[2] = dataclasses.replace(points[2], window=4)
        fail_step = {points[i]: s for i, s in fail_at.items()}
        evaluate = trainer._evaluate

        def patched(logp, logref_c, hiddens, weights, train_step, top_k, want_grad):
            breakdowns, grad = evaluate(logp, logref_c, hiddens, weights, train_step, top_k,
                                        want_grad)
            return [
                dataclasses.replace(bd, total=math.nan)
                if train_step >= fail_step.get(w, math.inf) else bd
                for bd, w in zip(breakdowns, weights)
            ], grad

        monkeypatch.setattr(trainer, "_evaluate", patched)
        with pytest.raises(TrainingDiverged) as one_by_one:
            for w in points:
                train(theta0, sequences, cfg, w, BENCH.top_k)
        with pytest.raises(TrainingDiverged) as lockstep:
            train_grid(theta0, sequences, cfg, points, BENCH.top_k)
        assert lockstep.value.step == one_by_one.value.step == step
        assert str(lockstep.value) == str(one_by_one.value)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_non_finite_logits_match_one_by_one(self, order):
        # With a huge rate the zero-weight point never moves, and the other's
        # first Adam update overflows its logits.
        sequences, theta0, _ = bench_setup()
        cfg = TrainConfig(steps=5, lr=1e308)
        zero = LossWeights(**dict.fromkeys(LAMBDAS, 0.0))
        live = LossWeights(warm_reuse_steps=0, warm_loc_steps=0)
        points = [(zero, live)[i] for i in order]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as one_by_one:
                for w in points:
                    train(theta0, sequences, cfg, w, BENCH.top_k)
            with pytest.raises(ValueError) as lockstep:
                train_grid(theta0, sequences, cfg, points, BENCH.top_k)
        assert str(lockstep.value) == str(one_by_one.value) == "non-finite logits"
