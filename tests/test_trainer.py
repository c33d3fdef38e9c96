import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_objective
from reference_objective import float_bits
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
    want = reference_objective.train(theta_init.copy(), sequences, cfg, weights, k)
    assert [float_bits(row) for row in got.log] == [float_bits(row) for row in want.log]
    assert float_bits(got.eval_before) == float_bits(want.eval_before)
    assert float_bits(got.eval_after) == float_bits(want.eval_after)
    assert got.params.theta.tobytes() == want.params.theta.tobytes()
    assert got.params.theta0.tobytes() == want.params.theta0.tobytes()
