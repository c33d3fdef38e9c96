import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_gate
from moe_locality.gate import (
    STABILITY_BLOCK,
    GateParams,
    perturb_rows,
    pinsker_campaign,
    pinsker_check,
    probability_margin,
    save_gate,
    stability_block,
    stability_campaign,
    topk,
    topk_rows,
)
from moe_locality.objective import routing_distributions
from reference_gate import load_gate, sample_within_margin, stability_check, stable_topk_rows


class TestGateForward:
    """The gate's forward pass, ``objective.routing_distributions``."""

    def test_zero_weights_give_uniform(self):
        p = routing_distributions(np.zeros((3, 5)), np.ones(3))
        assert p == pytest.approx(np.full(5, 0.2))

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(4)
        theta = rng.standard_normal((4, 6))
        shifted = theta + 0.0  # add a constant c to every logit via a rank-1 update
        c = 3.7
        # h @ (theta + outer) = h @ theta + c requires outer = c * h / |h|^2 per column
        outer = np.outer(h / (h @ h), np.full(6, c))
        assert routing_distributions(theta + outer, h) == pytest.approx(
            routing_distributions(shifted, h)
        )

    def test_hand_softmax(self):
        # logits (2, 0, 0) -> [e^2, 1, 1] / (e^2 + 2)
        h = np.array([1.0, 0.0])
        theta = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        expected = np.array([math.e**2, 1.0, 1.0]) / (math.e**2 + 2.0)
        assert routing_distributions(theta, h) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            routing_distributions(np.ones((2, 3)), np.array([np.inf, 0.0]))

    def test_sums_to_one_for_extreme_logits(self):
        h = np.array([1.0])
        theta = np.array([[700.0, -700.0, 0.0]])
        p = routing_distributions(theta, h)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


class TestTopk:
    def test_one_hot(self):
        p = np.zeros(6)
        p[4] = 1.0
        assert topk(p, 1) == (4,)

    def test_uniform_tie_rule(self):
        assert topk(np.full(4, 0.25), 2) == (0, 1)

    def test_hand_sort_with_tie(self):
        assert set(topk([0.1, 0.4, 0.4, 0.1], 2)) == {1, 2}
        assert topk([0.1, 0.4, 0.4, 0.1], 2) == (1, 2)

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            topk([0.5, 0.5], 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(ValueError, match=">= 1"):
            topk([0.5, 0.3, 0.2], k)

    def test_order_preserving_transform_invariance(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(10))
        assert topk(p, 3) == topk(np.sqrt(p), 3)  # monotone transform


class TestMargin:
    def test_hand_value(self):
        assert probability_margin([0.5, 0.3, 0.15, 0.05], 2) == pytest.approx(0.15)

    def test_uniform_is_zero(self):
        assert probability_margin(np.full(5, 0.2), 2) == 0.0

    def test_one_hot_k1(self):
        p = np.zeros(4)
        p[2] = 1.0
        assert probability_margin(p, 1) == 1.0

    def test_requires_k_below_n(self):
        with pytest.raises(ValueError, match="K < N_r"):
            probability_margin([0.5, 0.5], 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_requires_k_at_least_one(self, k):
        with pytest.raises(ValueError, match="1 <= K"):
            probability_margin([0.5, 0.3, 0.2], k)

    def test_rows_match_one_distribution_at_a_time(self):
        q = np.random.default_rng(4).dirichlet(np.ones(7), size=(3, 5))
        q[0, 0] = [0.25, 0.25, 0.2, 0.1, 0.1, 0.05, 0.05]  # ties at several K
        for k in range(1, 7):
            margins = probability_margin(q, k)
            assert margins.shape == (3, 5)
            for idx in np.ndindex(3, 5):
                assert margins[idx] == probability_margin(q[idx], k)


class TestStability:
    def test_identical_distributions(self):
        q = np.array([0.5, 0.3, 0.15, 0.05])
        v = stability_check(q, q, 2)
        assert v.condition_met and v.sets_equal and v.holds

    def test_perturbation_inside_margin_keeps_top2(self):
        q = np.array([0.5, 0.3, 0.15, 0.05])
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = sample_within_margin(q, 0.999 * 0.15 / 2, rng)
            v = stability_check(q, p, 2)
            assert v.condition_met
            assert v.sets_equal

    def test_large_perturbation_is_vacuous(self):
        q = np.array([0.5, 0.3, 0.15, 0.05])
        p = np.array([0.05, 0.15, 0.3, 0.5])
        v = stability_check(q, p, 2)
        assert not v.condition_met
        assert v.holds  # no claim outside the margin condition

    def test_campaign_zero_failures(self):
        summary = stability_campaign(trials=2000, n_experts=12, k=3, seed=0)
        assert summary["failures"] == 0
        assert summary["checked"] > 1900


class _Replay:
    """Hands a perturbation sampler pre-drawn uniforms and scales, so the
    block form and the per-trial oracle see the same draws."""

    def __init__(self, raw, scale):
        self.raw, self.scale = raw, scale

    def uniform(self, low, high, size):
        assert (low, high) == (-1.0, 1.0) and np.shape(self.raw) == np.shape(np.empty(size))
        return self.raw.copy()

    def random(self, size=None):
        assert np.shape(self.scale) == np.shape(np.empty(size or ()))
        return self.scale


def _replayed(q, budget, seed):
    """(block p, oracle p rows) for q rows on the same uniform/scale draws."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=q.shape)
    scale = rng.random(len(q))
    block = perturb_rows(q, budget, _Replay(raw, scale))
    oracle = [
        sample_within_margin(q[i], budget[i], _Replay(raw[i], float(scale[i])))
        for i in range(len(q))
    ]
    return block, oracle


class TestStabilityBlock:
    """The whole-array campaign against the per-trial oracle in reference_gate."""

    def test_verdicts_match_oracle_row_by_row(self):
        k = 4
        rng = np.random.default_rng(0)
        q = rng.dirichlet(np.ones(16), size=STABILITY_BLOCK)
        block = stability_block(q, k, rng)
        assert block.p.shape == q.shape
        for i in range(len(q)):
            v = stability_check(q[i], block.p[i], k)
            assert (v.margin, v.sup_distance, v.condition_met, v.sets_equal) == (
                block.margin[i], block.sup_distance[i],
                block.condition_met[i], block.sets_equal[i],
            )
            assert v.holds
        assert np.all(block.p >= 0)
        assert np.max(np.abs(block.p.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(block.checked)
        assert np.all(block.sup_distance < 0.999 * block.margin / 2)  # strictly inside
        assert not block.failed.any()

    def test_perturbation_matches_oracle_bitwise(self):
        q = np.random.default_rng(1).dirichlet(np.ones(12), size=256)
        budget = 0.999 * probability_margin(q, 3) / 2.0
        block, oracle = _replayed(q, budget, seed=2)
        for i, p in enumerate(oracle):
            assert block[i].tobytes() == p.tobytes()

    def test_zero_entry_falls_back_after_halvings(self):
        # A zero in q is pushed negative whenever its share of the zero-sum
        # draw is negative; no halving clears that, so those rows keep p = q.
        q = np.tile([0.4, 0.3, 0.2, 0.1, 0.0], (64, 1))
        budget = np.full(64, 0.999 * 0.1 / 2.0)
        block, oracle = _replayed(q, budget, seed=3)
        for i, p in enumerate(oracle):
            assert block[i].tobytes() == p.tobytes()
        kept = np.all(block == q, axis=1)
        assert 0 < kept.sum() < len(q)
        assert np.all(block >= 0)

    def test_zero_margin_tie_is_not_checked(self):
        q = np.array([[0.3, 0.3, 0.2, 0.2], [0.4, 0.3, 0.2, 0.1]])
        block = stability_block(q, 1, np.random.default_rng(5))
        assert block.margin[0] == 0.0
        assert block.checked.tolist() == [False, True]
        assert np.array_equal(block.p[0], q[0])  # a zero budget draws no perturbation
        assert not block.failed.any()

    def test_partial_last_block(self, monkeypatch):
        from moe_locality import gate

        monkeypatch.setattr(gate, "STABILITY_BLOCK", 7)
        summary = gate.stability_campaign(trials=20, n_experts=6, k=2, seed=8)
        rng = np.random.default_rng(8)
        checked = failures = 0
        for size in (7, 7, 6):
            block = stability_block(rng.dirichlet(np.ones(6), size=size), 2, rng)
            checked += int(block.checked.sum())
            failures += int(block.failed.sum())
        assert summary == {"trials": 20, "checked": checked, "failures": failures}
        assert checked == 20

    @pytest.mark.parametrize("trials, n, k, seed", [
        (1, 2, 1, 0), (STABILITY_BLOCK + 1, 16, 4, 0), (300, 5, 4, 3),
    ])
    def test_report_matches_per_trial_campaign(self, trials, n, k, seed):
        # Different draws, same report: every margin is positive and the
        # margin lemma admits no failure.
        block_form = stability_campaign(trials, n, k, seed)
        assert block_form == reference_gate.stability_campaign(trials, n, k, seed)
        assert block_form == {"trials": trials, "checked": trials, "failures": 0}

    @pytest.mark.parametrize("trials, n, k", [
        (-5, 8, 2), (0, 8, 2), (3, 1, 1), (3, 8, 0), (3, 8, 8), (3, 8, -1),
    ])
    def test_campaign_rejects_out_of_range(self, trials, n, k):
        with pytest.raises(ValueError):
            stability_campaign(trials, n, k)


class TestPinsker:
    def test_equal_distributions(self):
        p = np.array([0.25, 0.75])
        r = pinsker_check(p, p)
        assert r.l1_distance == 0.0 and r.holds

    def test_hand_value(self):
        # KL = 0.9 ln 1.8 + 0.1 ln 0.2
        r = pinsker_check([0.9, 0.1], [0.5, 0.5])
        kl = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
        assert r.l1_distance == pytest.approx(0.8)
        assert r.kl_bound == pytest.approx(math.sqrt(2 * kl))
        assert r.kl_bound >= 0.8
        assert r.holds

    def test_campaign_zero_failures(self):
        summary = pinsker_campaign(trials=2000, n_experts=8, seed=1)
        assert summary["failures"] == 0

    @pytest.mark.parametrize("trials, n", [(-2, 4), (0, 4), (3, 0), (3, 1)])
    def test_campaign_rejects_out_of_range(self, trials, n):
        with pytest.raises(ValueError):
            pinsker_campaign(trials, n)


class TestGateParams:
    def test_snapshot_isolation(self):
        theta = np.ones((2, 3))
        params = GateParams.snapshot(theta)
        params.theta += 5.0
        assert np.all(params.theta0 == 1.0)
        with pytest.raises((ValueError, RuntimeError)):
            params.theta0 += 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GateParams(theta=np.ones((2, 3)), theta0=np.ones((3, 2)))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        params = GateParams.snapshot(rng.standard_normal((5, 7)))
        params.theta += rng.standard_normal((5, 7))
        path = tmp_path / "gate.bin"
        save_gate(params, path)
        back = load_gate(path)
        assert np.array_equal(back.theta, params.theta)
        assert np.array_equal(back.theta0, params.theta0)
        assert (tmp_path / "gate.bin.json").exists()

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_gate(path)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 16),
    d=st.integers(1, 6),
)
def test_forward_always_a_distribution(seed, n, d):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(d) * 10
    p = routing_distributions(rng.standard_normal((d, n)) * 10, h)
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_topk1_is_argmax(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(8))
    assert topk(p, 1)[0] == int(np.argmax(p))


@st.composite
def prob_matrices_with_ties(draw):
    """Rows over a few repeated values (exact ties, zeros) or free floats, and
    a K anywhere in [1, N], K = N included."""
    n = draw(st.integers(1, 9))
    rows = draw(st.integers(1, 6))
    values = st.sampled_from([0.0, 0.125, 0.25, 0.5]) | st.floats(0.0, 1.0)
    p = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n),
                               min_size=rows, max_size=rows)))
    k = draw(st.sampled_from(sorted({1, n, draw(st.integers(1, n))})))
    return p, k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=prob_matrices_with_ties())
def test_topk_rows_matches_topk_per_row(case):
    # The row-wise form (the validator's screen, the reuse term, EOR) and the
    # 1-D form (per-record validation, rerouting) apply one tie rule.
    p, k = case
    rows = topk_rows(p, k)
    assert rows.shape == (len(p), k)
    for i, row in enumerate(p):
        assert tuple(rows[i].tolist()) == topk(row, k)
        assert topk(row, k) == tuple(sorted(range(len(row)), key=lambda e: (-row[e], e))[:k])


# Entries that tie each other or compare false: a zero of each sign, the
# infinities and NaN among a few repeated values.
TIE_POOL = np.array([0.0, -0.0, 0.125, 0.25, 0.5, np.inf, -np.inf, np.nan])


@st.composite
def topk_stacks(draw):
    """A 1-D, 2-D or [C, T, N] stack of N in [1, 70] distinct random values,
    some replaced from ``TIE_POOL`` and some rows given a planted tie inside
    the Top-K head, at the K/K+1 boundary or past it; and K in {0, 1, a
    random K, N}."""
    n = draw(st.integers(1, 70))
    lead = draw(st.sampled_from([(), (draw(st.integers(0, 6)),),
                                 (draw(st.integers(1, 3)), draw(st.integers(0, 5)))]))
    k = draw(st.sampled_from(sorted({0, 1, n, draw(st.integers(0, n))})))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random(lead + (n,))
    pooled = rng.random(p.shape) < draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    p[pooled] = rng.choice(TIE_POOL, size=int(pooled.sum()))
    rows = p.reshape(-1, n)
    at = {"inside": 0, "boundary": k - 1, "outside": k + 1}[
        draw(st.sampled_from(["inside", "boundary", "outside"]))]
    for row in rows[rng.random(len(rows)) < draw(st.floats(0.0, 1.0))]:
        order = stable_topk_rows(row, n)
        if 0 <= at < n - 1:
            row[order[at + 1]] = row[order[at]]
    return p, k


def head_is_tied(row, k) -> bool:
    """Whether the K + 1 leading values of the stable order fail to strictly
    decrease: an equal pair, NaN or zeros of both signs among them."""
    head = [row[e] for e in stable_topk_rows(row, k + 1).tolist()]
    return not all(a > b for a, b in zip(head, head[1:]))


class StableSpy:
    """Every array ``np.argsort`` is asked to sort with ``kind="stable"``."""

    def __init__(self):
        self.calls = []
        self._argsort = np.argsort

    def __call__(self, a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            self.calls.append(np.array(a, copy=True))
        return self._argsort(a, *args, **kwargs)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=topk_stacks())
def test_topk_rows_matches_one_stable_sort(case):
    # The fast sort plus the stable re-sort of tied rows is the stable sort's
    # first K, row for row; the stable kind sees exactly the rows whose
    # head is tied, and nothing when none is.
    p, k = case
    want = stable_topk_rows(p, k)
    spy = StableSpy()
    with mock.patch.object(np, "argsort", spy):
        got = topk_rows(p, k)
    assert got.shape == want.shape == p.shape[:-1] + (k,)
    assert np.array_equal(got, want)
    rows = p.reshape(-1, p.shape[-1])
    tied = rows[[head_is_tied(row, k) for row in rows]]
    if len(tied):
        assert len(spy.calls) == 1
        assert np.array_equal(spy.calls[0].reshape(tied.shape), -tied, equal_nan=True)
    else:
        assert spy.calls == []


@pytest.mark.parametrize("k", [1, 6, 32])
def test_topk_rows_of_tie_free_softmax_never_sorts_stably(k):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 64, 32))
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    spy = StableSpy()
    with mock.patch.object(np, "argsort", spy):
        got = topk_rows(p, k)
    assert spy.calls == []
    assert np.array_equal(got, stable_topk_rows(p, k))


@pytest.mark.parametrize("p, k, want", [
    ([0.0, -0.0, 0.5], 2, [2, 0]),  # -0.0 == 0.0: a tie at the boundary
    ([-0.0, 0.0, 0.5], 3, [2, 0, 1]),
    ([np.inf, 1.0, np.inf], 1, [0]),
    ([np.nan, 1.0, np.nan, 2.0], 4, [3, 1, 0, 2]),  # NaN sorts last, in index order
    ([0.25, 0.25, 0.25], 0, []),
])
def test_topk_rows_breaks_special_ties_to_the_lowest_index(p, k, want):
    assert topk_rows(np.array(p), k).tolist() == want
