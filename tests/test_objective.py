import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_objective
from reference_objective import (
    entropy,
    float_bits,
    lag_loss,
    mc_reuse_expectation,
    reuse_loss,
    reuse_mass,
    sets_from_rows,
    smooth_loss,
    sym_kl,
    trust_loss,
    ws_loss,
)
from moe_locality import objective
from moe_locality.gate import kl_div
from moe_locality.objective import (
    LossWeights,
    alpha_schedule,
    fd_gradients,
    routing_distributions,
    total_objective,
    value_and_grad,
)

KL_09_05 = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)  # KL([.9,.1] || [.5,.5])
KL_05_09 = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)


def no_warm(**kw):
    base = dict(warm_reuse_steps=0, warm_loc_steps=0, lag_set=(1, 2, 4), window=4)
    base.update(kw)
    return LossWeights(**base)


class TestReuseMass:
    def test_uniform_hand_value(self):
        assert reuse_mass([0.25] * 4, {0, 1}, 2) == pytest.approx(0.25)

    def test_one_hot_outside_prev_set(self):
        assert reuse_mass([0, 0, 0, 1.0], {0, 1}, 2) == 0.0

    def test_maximum_at_full_concentration(self):
        assert reuse_mass([0.5, 0.5, 0, 0], {0, 1}, 2) == pytest.approx(0.5)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            reuse_mass([0.25] * 4, {0}, 2)

    def test_bounded_by_one_over_k(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(8))
            k = int(rng.integers(1, 6))
            prev = rng.choice(8, size=k, replace=False)
            m = reuse_mass(p, prev, k)
            assert 0.0 <= m <= 1.0 / k + 1e-12


class TestReuseLoss:
    def test_full_concentration(self):
        p_seq = [[0.5, 0.5, 0, 0]] * 4
        sets = [(0, 1)] * 4
        rho, loss = reuse_loss(p_seq, sets)
        assert rho == pytest.approx(0.5)
        assert loss == pytest.approx(-math.log(0.5 + 1e-8))

    def test_stabilizer_floor(self):
        p_seq = [[1.0, 0, 0, 0], [0, 0, 0, 1.0]]
        sets = [(0, 1), (3, 2)]  # step-2 mass on prev set {0,1} is 0
        rho, loss = reuse_loss(p_seq, sets)
        assert rho == 0.0
        assert loss == pytest.approx(-math.log(1e-8), rel=1e-6)

    def test_single_pair(self):
        p_seq = [[0.25] * 4, [0.25] * 4]
        rho, _ = reuse_loss(p_seq, [(0, 1), (0, 1)])
        assert rho == pytest.approx(0.25)

    def test_too_short(self):
        with pytest.raises(ValueError, match=">= 2"):
            reuse_loss([[1.0, 0.0]], [(0,)])


class TestKl:
    def test_zero_at_equality(self):
        p = [0.3, 0.7]
        assert kl_div(p, p) == 0.0
        assert trust_loss([p, p], [p, p]) == 0.0

    def test_hand_value(self):
        assert kl_div([0.9, 0.1], [0.5, 0.5]) == pytest.approx(KL_09_05, abs=1e-12)

    def test_gibbs_nonnegative_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert kl_div(p, q) >= 0.0

    def test_trust_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trust_loss([[0.5, 0.5]], [[0.5, 0.25, 0.25]])


class TestSmooth:
    def test_constant_sequence_zero(self):
        assert smooth_loss([[0.4, 0.6]] * 5) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert sym_kl(p, q) == pytest.approx(sym_kl(q, p), abs=1e-15)

    def test_hand_value(self):
        expected = 0.5 * (KL_09_05 + KL_05_09)
        assert expected == pytest.approx(0.4394, abs=1e-4)  # sanity on the arithmetic
        assert smooth_loss([[0.9, 0.1], [0.5, 0.5]]) == pytest.approx(expected, abs=1e-12)


class TestLag:
    def test_constant_sequence_zero(self):
        assert lag_loss([[0.4, 0.6]] * 6, (1, 2)) == 0.0

    def test_single_lag_equals_smooth(self):
        rng = np.random.default_rng(3)
        p_seq = rng.dirichlet(np.ones(4), size=7)
        assert lag_loss(p_seq, (1,)) == pytest.approx(smooth_loss(p_seq), abs=1e-14)

    def test_hand_expansion_t3(self):
        # t=2 contributes SymKL(P2,P1)/2; t=3 contributes (SymKL(P3,P2)+SymKL(P3,P1))/2.
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(5), size=3)
        expected = (
            sym_kl(p[1], p[0]) / 2 + (sym_kl(p[2], p[1]) + sym_kl(p[2], p[0])) / 2
        ) / 2
        assert lag_loss(p, (1, 2)) == pytest.approx(expected, abs=1e-14)

    def test_empty_lags_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lag_loss([[0.5, 0.5]] * 3, ())


class TestWs:
    def test_one_hot_constant_zero(self):
        assert ws_loss([[1.0, 0.0]] * 8, window=4) == 0.0

    def test_window_one_is_mean_entropy(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(4), size=6)
        expected = float(np.mean([entropy(row) for row in p]))
        assert ws_loss(p, window=1) == pytest.approx(expected, abs=1e-14)

    def test_hand_value_two_one_hots(self):
        assert ws_loss([[1.0, 0.0], [0.0, 1.0]], window=2) == pytest.approx(math.log(2))

    def test_short_sequence_zero_windows(self):
        assert ws_loss([[0.5, 0.5]] * 3, window=4) == 0.0

    def test_partial_window_is_discarded(self):
        # Only the complete window [1,0],[0,1] counts: H([.5,.5]) = ln 2, and
        # the trailing one-hot row would lower the mean entropy if weighted in.
        p = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert ws_loss(p, window=2) == pytest.approx(math.log(2))
        theta = np.log(np.array(p) + 1e-300)  # hidden state I_3 routes row t to p[t]
        bd = total_objective(theta, theta, np.eye(3), no_warm(window=2), 1000, 1)
        assert bd.ws == pytest.approx(math.log(2))


class TestAlpha:
    def test_schedule(self):
        assert alpha_schedule(0, 400) == 0.0
        assert alpha_schedule(200, 400) == 0.5
        assert alpha_schedule(400, 400) == 1.0
        assert alpha_schedule(9999, 400) == 1.0
        assert alpha_schedule(0, 0) == 1.0


def small_instance(seed, d=3, n=6, t=8, k=2, drift=0.2):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((d, n))
    theta0 = theta + drift * rng.standard_normal((d, n))
    hiddens = rng.standard_normal((t, d))
    return theta, theta0, hiddens, k


class TestTotalObjective:
    def test_anchored_at_origin(self):
        theta, _, hiddens, k = small_instance(0)
        w = LossWeights()  # warmups active, step 0 -> alphas 0
        bd = total_objective(theta, theta, hiddens, w, train_step=0, top_k=k)
        assert bd.alpha_reuse == 0.0 and bd.alpha_loc == 0.0
        assert bd.trust_kl == pytest.approx(0.0, abs=1e-15)
        assert bd.total == pytest.approx(0.0, abs=1e-15)

    def test_zero_weights_zero_total(self):
        theta, theta0, hiddens, k = small_instance(1)
        w = no_warm(lambda_kl=0, lambda_reuse=0, lambda_smooth=0, lambda_lag=0, lambda_ws=0)
        bd = total_objective(theta, theta0, hiddens, w, 100, k)
        assert bd.total == 0.0

    def test_breakdown_identity_bitwise(self):
        for seed in range(10):
            theta, theta0, hiddens, k = small_instance(seed)
            w = no_warm()
            bd = total_objective(theta, theta0, hiddens, w, 37, k)
            assert bd.reassembled(w) == bd.total  # bitwise

    def test_terms_nonnegative(self):
        for seed in range(10):
            theta, theta0, hiddens, k = small_instance(seed)
            bd = total_objective(theta, theta0, hiddens, no_warm(), 1000, k)
            assert bd.trust_kl >= 0 and bd.smooth >= 0 and bd.lag >= 0 and bd.ws >= 0
            assert bd.reuse_loss >= 0  # rho <= 1/K < 1 for K >= 2
            assert bd.total >= 0

    def test_matches_straight_line_oracle(self):
        theta, theta0, hiddens, k = small_instance(7, d=2, n=4, t=4, k=2)
        w = LossWeights(
            lag_set=(1, 2), window=2, warm_reuse_steps=100, warm_loc_steps=200
        )
        for step in (0, 50, 100, 1000):
            bd = total_objective(theta, theta0, hiddens, w, step, k)
            assert bd.total == pytest.approx(
                _oracle_total(theta, theta0, hiddens, w, step, k), abs=1e-12
            )

    def test_too_short_sequence(self):
        theta, theta0, hiddens, k = small_instance(2)
        with pytest.raises(ValueError, match=">= 2"):
            total_objective(theta, theta0, hiddens[:1], no_warm(), 0, k)

    def test_permutation_equivariance(self):
        # Permuting expert columns consistently leaves every term unchanged.
        theta, theta0, hiddens, k = small_instance(3)
        w = no_warm()
        bd = total_objective(theta, theta0, hiddens, w, 500, k)
        rng = np.random.default_rng(9)
        perm = rng.permutation(theta.shape[1])
        bd_p = total_objective(theta[:, perm], theta0[:, perm], hiddens, w, 500, k)
        for field in ("trust_kl", "reuse_rho", "reuse_loss", "smooth", "lag", "ws", "total"):
            assert getattr(bd, field) == pytest.approx(getattr(bd_p, field), abs=1e-12)

    def test_trust_zero_iff_same_distributions(self):
        theta, theta0, hiddens, k = small_instance(4)
        same = total_objective(theta, theta, hiddens, no_warm(), 10, k)
        assert same.trust_kl == pytest.approx(0.0, abs=1e-15)
        diff = total_objective(theta, theta0, hiddens, no_warm(), 10, k)
        assert diff.trust_kl > 0


def _oracle_total(theta, theta0, hiddens, w, step, k):
    """Straight-line re-implementation of every formula with plain loops."""
    theta = [list(row) for row in np.asarray(theta)]
    theta0 = [list(row) for row in np.asarray(theta0)]
    hid = [list(row) for row in np.asarray(hiddens)]
    t_len, d = len(hid), len(hid[0])
    n = len(theta[0])

    def softmax_row(h, th):
        logits = [sum(h[i] * th[i][j] for i in range(d)) for j in range(n)]
        mx = max(logits)
        exps = [math.exp(z - mx) for z in logits]
        s = sum(exps)
        return [e / s for e in exps]

    p = [softmax_row(h, theta) for h in hid]
    q = [softmax_row(h, theta0) for h in hid]

    def kl(a, b):
        return sum(
            a[i] * (math.log(a[i]) - math.log(max(b[i], 1e-12))) for i in range(n) if a[i] > 0
        )

    def symkl(a, b):
        return 0.5 * (kl(a, b) + kl(b, a))

    trust = sum(kl(p[t], q[t]) for t in range(t_len)) / t_len

    def top(row):
        return sorted(range(n), key=lambda i: (-row[i], i))[:k]

    masses = [sum(p[t][i] for i in top(p[t - 1])) / k for t in range(1, t_len)]
    rho = sum(masses) / len(masses)
    reuse = -math.log(rho + 1e-8)

    smooth = sum(symkl(p[t], p[t - 1]) for t in range(1, t_len)) / (t_len - 1)
    lag = (
        sum(
            sum(symkl(p[t], p[t - dd]) for dd in w.lag_set if t - dd >= 0) / len(w.lag_set)
            for t in range(1, t_len)
        )
        / (t_len - 1)
    )

    n_win = t_len // w.window
    ws = 0.0
    if n_win > 0:
        total_h = 0.0
        for b in range(n_win):
            rows = p[b * w.window : (b + 1) * w.window]
            pbar = [sum(r[i] for r in rows) / w.window for i in range(n)]
            total_h += -sum(x * math.log(x) for x in pbar if x > 0)
        ws = total_h / n_win

    a_r = min(1.0, step / w.warm_reuse_steps) if w.warm_reuse_steps > 0 else 1.0
    a_l = min(1.0, step / w.warm_loc_steps) if w.warm_loc_steps > 0 else 1.0
    return (
        w.lambda_kl * trust
        + a_r * w.lambda_reuse * reuse
        + a_l * (w.lambda_smooth * smooth + w.lambda_lag * lag + w.lambda_ws * ws)
    )


class TestGradients:
    def test_zero_weights_zero_grad(self):
        theta, theta0, hiddens, k = small_instance(5)
        w = no_warm(lambda_kl=0, lambda_reuse=0, lambda_smooth=0, lambda_lag=0, lambda_ws=0)
        assert np.all(value_and_grad(theta, theta0, hiddens, w, 10, k)[1] == 0.0)

    def test_kl_stationary_at_snapshot(self):
        theta, _, hiddens, k = small_instance(6)
        w = no_warm(lambda_kl=1.0, lambda_reuse=0, lambda_smooth=0, lambda_lag=0, lambda_ws=0)
        g = value_and_grad(theta, theta, hiddens, w, 10, k)[1]
        assert np.max(np.abs(g)) < 1e-14

    @pytest.mark.parametrize("term", ["trust", "reuse", "smooth", "lag", "ws", "combined"])
    def test_fd_agreement_per_term(self, term):
        from moe_locality.cli import gradcheck_weight_configs

        w = dict(gradcheck_weight_configs())[term]
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, min(n, 5)))
            t = int(rng.integers(4, 20))
            theta = rng.standard_normal((d, n))
            theta0 = theta + 0.1 * rng.standard_normal((d, n))
            hiddens = rng.standard_normal((t, d))
            analytic = value_and_grad(theta, theta0, hiddens, w, 1000, k)[1]
            numeric = fd_gradients(theta, theta0, hiddens, [w], 1000, k)[0]
            rel = np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8))
            assert rel < 1e-5

    def test_warmup_scales_gradient(self):
        theta, theta0, hiddens, k = small_instance(8)
        w = LossWeights(
            lambda_kl=0, lambda_smooth=0, lambda_lag=0, lambda_ws=0,
            lambda_reuse=1.0, warm_reuse_steps=100, warm_loc_steps=100,
        )
        g_half = value_and_grad(theta, theta0, hiddens, w, 50, k)[1]
        g_full = value_and_grad(theta, theta0, hiddens, w, 100, k)[1]
        assert g_half == pytest.approx(0.5 * g_full, abs=1e-12)

    def test_fd_quadratic_exactness(self):
        # Central differences are exact for quadratics up to round-off.
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 4))
        a = a + a.T

        def f(x):
            return 0.5 * x @ a @ x

        x0 = rng.standard_normal(4)
        h = 1e-5
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (f(x0 + e) - f(x0 - e)) / (2 * h)
            assert fd == pytest.approx((a @ x0)[i], abs=1e-9)

    def test_fd_error_v_shape(self):
        theta, theta0, hiddens, k = small_instance(0, d=4, n=8, t=16, k=3)
        w = no_warm()
        analytic = value_and_grad(theta, theta0, hiddens, w, 1000, k)[1]
        errs = []
        for h in (1e-4, 1e-5, 1e-6):
            numeric = fd_gradients(theta, theta0, hiddens, [w], 1000, k, h_step=h)[0]
            errs.append(float(np.max(np.abs(analytic - numeric))))
        assert errs[1] < errs[0]  # truncation shrinks
        assert errs[1] < errs[2]  # round-off grows back


class TestFdGradients:
    def test_refuses_configs_that_differ_beyond_lambdas(self):
        theta, theta0, hiddens, k = small_instance(0)
        others = [no_warm(window=5), no_warm(lag_set=(1, 2)), no_warm(warm_loc_steps=3),
                  no_warm(eps=1e-6)]
        for other in others:
            with pytest.raises(ValueError, match="lambda_"):
                fd_gradients(theta, theta0, hiddens, [no_warm(lambda_kl=2.0), other], 1000, k)

    def test_refuses_an_empty_list(self):
        theta, theta0, hiddens, k = small_instance(0)
        with pytest.raises(ValueError, match="at least one"):
            fd_gradients(theta, theta0, hiddens, [], 1000, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(2, 6),
    t_len=st.integers(2, 13),
)
def test_fd_gradients_match_per_config_loop_bitwise(seed, d, n, t_len):
    # One shared finite-difference pass against the old per-config loop, on
    # the gradcheck configs.
    from moe_locality.cli import gradcheck_weight_configs

    configs = [w for _name, w in gradcheck_weight_configs()]
    k = 1 + seed % (n - 1)
    theta, theta0, hiddens, _ = small_instance(seed, d=d, n=n, t=t_len, k=k)
    numerics = fd_gradients(theta, theta0, hiddens, configs, 1000, k)
    assert len(numerics) == len(configs)
    for w, numeric in zip(configs, numerics):
        oracle = reference_objective.fd_gradient(theta, theta0, hiddens, w, 1000, k)
        assert numeric.tobytes() == oracle.tobytes()
        assert fd_gradients(theta, theta0, hiddens, [w], 1000, k)[0].tobytes() == oracle.tobytes()


class TestMcReuse:
    def test_one_hot_on_member_deterministic(self):
        p = [0.0, 1.0, 0.0, 0.0]
        r = mc_reuse_expectation(p, {1, 2, 3}, 3, n_samples=1000, seed=0)
        assert r.estimate == 3.0
        assert r.expected == 3.0  # K^2 m = 9 * (1/3)
        assert r.stderr == 0.0 and r.z_score == 0.0

    def test_uniform_hand_value(self):
        r = mc_reuse_expectation([0.25] * 4, {0, 1}, 2, n_samples=200_000, seed=1)
        assert r.expected == pytest.approx(1.0)  # K^2 m = 4 * 0.25
        assert abs(r.z_score) < 4.0

    def test_campaign_within_four_stderr(self):
        rng = np.random.default_rng(11)
        failures = 0
        for i in range(100):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, min(n, 5)))
            p = rng.dirichlet(np.ones(n))
            prev = rng.choice(n, size=k, replace=False)
            r = mc_reuse_expectation(p, prev, k, n_samples=100_000, seed=1000 + i)
            if r.stderr > 0 and abs(r.estimate - r.expected) >= 4 * r.stderr:
                failures += 1
        assert failures <= 1  # >= 99% pass rate

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            mc_reuse_expectation([0.5, 0.6], {0}, 1, 10)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_grad_matches_fd_on_random_instances(seed):
    from hypothesis import assume

    from moe_locality.objective import routing_distributions

    rng = np.random.default_rng(seed)
    d, n, k, t = 3, 6, 2, 8
    theta = rng.standard_normal((d, n))
    theta0 = theta + 0.2 * rng.standard_normal((d, n))
    hiddens = rng.standard_normal((t, d))
    # The objective jumps where a Top-K selection ties (the reuse term's set
    # is a constant under stop-gradient), so central differences only estimate
    # the gradient away from that boundary; require a margin well above the
    # probability shift an h=1e-5 theta step can cause.
    p = routing_distributions(theta, hiddens)
    desc = np.sort(p, axis=1)[:, ::-1]
    assume(float(np.min(desc[:, k - 1] - desc[:, k])) > 1e-3)
    w = no_warm()
    analytic = value_and_grad(theta, theta0, hiddens, w, 1000, k)[1]
    numeric = fd_gradients(theta, theta0, hiddens, [w], 1000, k)[0]
    # absolute agreement at the FD noise floor
    assert np.max(np.abs(analytic - numeric)) < 1e-7


@st.composite
def objective_instances(draw):
    """Random instances that reach every branch of the fused pass: lags at or
    beyond T, windows longer than T, a trailing partial window, K=1 and K=N,
    zero weights and zero or partial warmups."""
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from(sorted({1, n, draw(st.integers(1, n))})))
    t_len = draw(st.integers(2, 40))
    weights = LossWeights(
        **{name: draw(st.sampled_from([0.0, 0.3, 1.7])) for name in
           ("lambda_kl", "lambda_reuse", "lambda_smooth", "lambda_lag", "lambda_ws")},
        lag_set=tuple(sorted(draw(st.sets(st.integers(1, 45), min_size=1, max_size=6)))),
        window=draw(st.integers(1, 45)),
        warm_reuse_steps=draw(st.sampled_from([0, 7, 400])),
        warm_loc_steps=draw(st.sampled_from([0, 7, 800])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    # Large logit scales drive probabilities below the KL clamp.
    scale = draw(st.sampled_from([0.1, 1.0, 40.0]))
    theta = scale * rng.standard_normal((d, n))
    theta0 = theta + rng.standard_normal((d, n))
    hiddens = rng.standard_normal((t_len, d))
    return theta, theta0, hiddens, weights, draw(st.integers(0, 1000)), k


def fixed_instance(scale):
    """One instance at a logit scale: 0.1 keeps every log-probability above
    log(KL_EPS), 40 drives some below it."""
    rng = np.random.default_rng(5)
    theta = scale * rng.standard_normal((4, 10))
    theta0 = theta + rng.standard_normal((4, 10))
    hiddens = rng.standard_normal((24, 4))
    weights = LossWeights(warm_reuse_steps=0, warm_loc_steps=0, lag_set=(1, 2, 5), window=6)
    return theta, theta0, hiddens, weights, 10, 3


UNCLAMPED = fixed_instance(0.1)
CLAMPED = fixed_instance(40.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=objective_instances())
@example(instance=UNCLAMPED)
@example(instance=CLAMPED)
def test_fused_pass_matches_reference_bitwise(instance):
    expected, expected_grad = reference_objective.evaluate(*instance, want_grad=True)
    breakdown, grad = value_and_grad(*instance)
    want = float_bits(expected)
    assert float_bits(breakdown) == want
    assert float_bits(total_objective(*instance)) == want
    assert grad.tobytes() == expected_grad.tobytes()
    assert value_and_grad(*instance)[1].tobytes() == expected_grad.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=objective_instances())
def test_breakdown_matches_per_term_functions(instance):
    # Each fused term against its one-step-at-a-time definition.
    theta, theta0, hiddens, w, step, k = instance
    bd = total_objective(*instance)
    p = routing_distributions(theta, hiddens)
    rho, reuse = reuse_loss(p, sets_from_rows(p, k), eps=w.eps)
    per_term = {
        "trust_kl": trust_loss(p, routing_distributions(theta0, hiddens)),
        "reuse_rho": rho,
        "reuse_loss": reuse,
        "smooth": smooth_loss(p),
        "lag": lag_loss(p, w.lag_set),
        "ws": ws_loss(p, w.window),
    }
    for field, want in per_term.items():
        assert abs(getattr(bd, field) - want) <= 1e-12, field


@pytest.mark.parametrize("instance, branch", [(UNCLAMPED, "_pair_symkl"),
                                              (CLAMPED, "_pair_symkl_clamped")],
                         ids=["unclamped", "clamped"])
def test_each_pair_form_matches_reference_bitwise(monkeypatch, instance, branch):
    # The symmetric-KL pairs of a step take one form: the unclamped one when
    # every log-probability is above log(KL_EPS), the clamped one otherwise.
    calls = {"_pair_symkl": 0, "_pair_symkl_clamped": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(objective, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(objective, name, counted)
    breakdown, grad = value_and_grad(*instance)
    assert calls[branch] > 0 and sum(calls.values()) == calls[branch]
    expected, expected_grad = reference_objective.evaluate(*instance, want_grad=True)
    assert float_bits(breakdown) == float_bits(expected)
    assert grad.tobytes() == expected_grad.tobytes()
