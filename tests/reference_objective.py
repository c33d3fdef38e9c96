"""Reference objective and training loop: the straightforward versions.

The per-term functions (``trust_loss``, ``reuse_loss``, ``smooth_loss``,
``lag_loss``, ``ws_loss`` and their helpers) compute each term of the
objective on its own, one step or window at a time, with ``gate.kl_div`` as
the divergence; every field of ``total_objective``'s breakdown must agree with
them to rounding.

``evaluate`` is the fused forward/backward written with index arrays, one
``np.add.at`` scatter per term and one loop iteration per ws window;
``sequence_eor`` compares frozensets step by step; ``train`` runs three
forward passes per step (value, gradient, logged EOR); ``fd_gradient`` is the
central-difference loop for one weight config, two library objective
evaluations per coordinate. The library's fast paths must reproduce all of
them bit for bit, which the differential tests check.

``mc_reuse_expectation`` samples K experts i.i.d. from a distribution and
counts the draws that land in the previous step's set; acceptance C07 checks
that its mean matches K^2 times the reuse mass.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from moe_locality import objective
from moe_locality.gate import GateParams, kl_div, log_softmax, topk, topk_rows
from moe_locality.objective import (
    _LOG_CLAMP,
    REUSE_EPS,
    LossBreakdown,
    LossWeights,
    alpha_schedule,
    routing_distributions,
)
from moe_locality.trainer import (
    EvalStats,
    TrainConfig,
    TrainingDiverged,
    TrainLogRow,
    TrainResult,
)
from reference_metrics import instantaneous_reuse


def float_bits(obj) -> list[str]:
    """Exact bit patterns (``float.hex``) of a dataclass's numeric fields, so
    that comparisons tell -0.0 from 0.0 and show the differing field."""
    return [float(x).hex() for x in dataclasses.astuple(obj)]


# ---------------------------------------------------------------------------
# Individual terms, one step or window at a time
# ---------------------------------------------------------------------------


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return -float(np.sum(nz * np.log(nz)))


def sym_kl(p, q) -> float:
    return 0.5 * (kl_div(p, q) + kl_div(q, p))


def trust_loss(p_seq, pref_seq) -> float:
    p_seq = np.asarray(p_seq, dtype=float)
    pref_seq = np.asarray(pref_seq, dtype=float)
    if p_seq.shape != pref_seq.shape:
        raise ValueError(f"shape mismatch: {p_seq.shape} vs {pref_seq.shape}")
    return float(np.mean([kl_div(p, q) for p, q in zip(p_seq, pref_seq)]))


def reuse_mass(p, prev_set, k: int) -> float:
    """Probability mass on the previous step's routed set, scaled by 1/K.

    Bounded by 1/K since the set covers K entries of a distribution.
    """
    prev = tuple(prev_set)
    if len(set(prev)) != k:
        raise ValueError(f"prev_set must contain K={k} distinct experts")
    p = np.asarray(p, dtype=float)
    return float(p[list(prev)].sum() / k)


def reuse_loss(p_seq, e_seq, eps: float = REUSE_EPS) -> tuple[float, float]:
    """Sequence-level reuse score rho and its stabilized negative log.

    ``e_seq`` are the per-step routed sets; step t is scored against
    e_seq[t-1], so only steps 2..T contribute.
    """
    p_seq = np.asarray(p_seq, dtype=float)
    t_len = len(p_seq)
    if t_len < 2:
        raise ValueError("reuse needs a sequence of length >= 2")
    if len(e_seq) != t_len:
        raise ValueError("e_seq must align with p_seq")
    k = len(tuple(e_seq[0]))
    masses = [reuse_mass(p_seq[t], e_seq[t - 1], k) for t in range(1, t_len)]
    rho = float(np.mean(masses))
    return rho, -math.log(rho + eps)


def smooth_loss(p_seq) -> float:
    p_seq = np.asarray(p_seq, dtype=float)
    if len(p_seq) < 2:
        raise ValueError("smoothness needs a sequence of length >= 2")
    return float(np.mean([sym_kl(p_seq[t], p_seq[t - 1]) for t in range(1, len(p_seq))]))


def lag_loss(p_seq, lags) -> float:
    p_seq = np.asarray(p_seq, dtype=float)
    t_len = len(p_seq)
    if t_len < 2:
        raise ValueError("lag loss needs a sequence of length >= 2")
    lags = tuple(lags)
    if not lags:
        raise ValueError("empty lag set")
    total = 0.0
    for t in range(1, t_len):
        in_range = [d for d in lags if t - d >= 0]
        if not in_range:
            continue
        total += sum(sym_kl(p_seq[t], p_seq[t - d]) for d in in_range) / len(lags)
    return total / (t_len - 1)


def ws_loss(p_seq, window: int) -> float:
    """Mean entropy of window-averaged distributions over the complete
    windows; fewer rows than one window yields 0 by convention."""
    if window < 1:
        raise ValueError("window must be >= 1")
    p_seq = np.asarray(p_seq, dtype=float)
    t_len = len(p_seq)
    n = t_len // window
    if n == 0:
        return 0.0
    return sum(entropy(p_seq[b * window : (b + 1) * window].mean(axis=0)) for b in range(n)) / n


def sets_from_rows(p_rows, k: int) -> list[tuple[int, ...]]:
    """Per-row Top-K tuples, one ``gate.topk`` call per row."""
    return [topk(row, k) for row in np.asarray(p_rows, dtype=float)]


# ---------------------------------------------------------------------------
# Fused evaluation with index arrays and np.add.at scatters
# ---------------------------------------------------------------------------


def _forward(theta, theta0, hiddens):
    hiddens = np.asarray(hiddens, dtype=float)
    if hiddens.ndim != 2:
        raise ValueError("hiddens must be a T x d matrix")
    if len(hiddens) < 2:
        raise ValueError("objective needs a sequence of length >= 2")
    logp = log_softmax(hiddens @ np.asarray(theta, dtype=float))
    logref = log_softmax(hiddens @ np.asarray(theta0, dtype=float))
    return hiddens, logp, np.exp(logp), logref


def _pair_symkl(logp, p, idx_a, idx_b, want_grad):
    """Values (and both-sided dL/dP) of SymKL(P[a], P[b]) for index arrays."""
    la, lb = logp[idx_a], logp[idx_b]
    a, b = p[idx_a], p[idx_b]
    lac = np.maximum(la, _LOG_CLAMP)
    lbc = np.maximum(lb, _LOG_CLAMP)
    vals = 0.5 * ((a * (la - lbc)).sum(axis=1) + (b * (lb - lac)).sum(axis=1))
    if not want_grad:
        return vals, None, None
    mask_a = la > _LOG_CLAMP
    mask_b = lb > _LOG_CLAMP
    ratio_ba = np.where(mask_a, np.exp(np.where(mask_a, lb - la, 0.0)), 0.0)
    ratio_ab = np.where(mask_b, np.exp(np.where(mask_b, la - lb, 0.0)), 0.0)
    da = 0.5 * ((la - lbc + 1.0) - ratio_ba)
    db = 0.5 * ((lb - lac + 1.0) - ratio_ab)
    return vals, da, db


def evaluate(theta, theta0, hiddens, w: LossWeights, train_step: int, top_k: int,
             want_grad: bool):
    h, logp, p, logref = _forward(theta, theta0, hiddens)
    t_len, n = p.shape
    grad_p = np.zeros_like(p) if want_grad else None

    a_reuse = alpha_schedule(train_step, w.warm_reuse_steps)
    a_loc = alpha_schedule(train_step, w.warm_loc_steps)

    logref_c = np.maximum(logref, _LOG_CLAMP)
    trust = float((p * (logp - logref_c)).sum(axis=1).mean())
    if want_grad and w.lambda_kl > 0:
        grad_p += (w.lambda_kl / t_len) * (logp - logref_c + 1.0)

    prev_sets = topk_rows(p, top_k)[:-1]
    cur_rows = np.arange(1, t_len)[:, None]
    masses = p[cur_rows, prev_sets].sum(axis=1) / top_k
    rho = float(masses.mean())
    reuse = -math.log(rho + w.eps)
    if want_grad:
        w_reuse = a_reuse * w.lambda_reuse
        if w_reuse > 0:
            coef = w_reuse * (-1.0 / (rho + w.eps)) / (t_len - 1) / top_k
            np.add.at(grad_p, (cur_rows, prev_sets), coef)

    idx_a = np.arange(1, t_len)
    idx_b = idx_a - 1
    w_smooth = a_loc * w.lambda_smooth
    vals, da, db = _pair_symkl(logp, p, idx_a, idx_b, want_grad and w_smooth > 0)
    smooth = float(vals.mean())
    if want_grad and w_smooth > 0:
        coef = w_smooth / (t_len - 1)
        np.add.at(grad_p, idx_a, coef * da)
        np.add.at(grad_p, idx_b, coef * db)

    lag_total = 0.0
    w_lag = a_loc * w.lambda_lag
    for d in w.lag_set:
        if d >= t_len:
            continue
        idx_a = np.arange(d, t_len)
        idx_a = idx_a[idx_a >= 1]
        idx_b = idx_a - d
        if idx_a.size == 0:
            continue
        n_valid = np.full(idx_a.size, float(len(w.lag_set)))
        vals, da, db = _pair_symkl(logp, p, idx_a, idx_b, want_grad and w_lag > 0)
        lag_total += float((vals / n_valid).sum())
        if want_grad and w_lag > 0:
            coef = (w_lag / (t_len - 1)) / n_valid[:, None]
            np.add.at(grad_p, idx_a, coef * da)
            np.add.at(grad_p, idx_b, coef * db)
    lag = lag_total / (t_len - 1)

    win_weights = [1.0] * (t_len // w.window)
    denom = sum(win_weights)
    ws = 0.0
    if denom > 0:
        w_ws = a_loc * w.lambda_ws
        acc = 0.0
        for b, wgt in enumerate(win_weights):
            rows = slice(b * w.window, (b + 1) * w.window)
            block = p[rows]
            pbar = block.mean(axis=0)
            pos = pbar > 0
            logbar = np.where(pos, np.log(np.where(pos, pbar, 1.0)), 0.0)
            acc += wgt * float(-(pbar * logbar).sum())
            if want_grad and w_ws > 0:
                grad_p[rows] += w_ws * (wgt / denom) * np.where(pos, -(logbar + 1.0), 0.0) / len(block)
        ws = acc / denom

    total = (
        w.lambda_kl * trust
        + a_reuse * w.lambda_reuse * reuse
        + a_loc * (w.lambda_smooth * smooth + w.lambda_lag * lag + w.lambda_ws * ws)
    )
    breakdown = LossBreakdown(
        trust_kl=trust,
        reuse_rho=rho,
        reuse_loss=reuse,
        smooth=smooth,
        lag=lag,
        ws=ws,
        alpha_reuse=a_reuse,
        alpha_loc=a_loc,
        total=total,
    )
    if not want_grad:
        return breakdown, None
    inner = (p * grad_p).sum(axis=1, keepdims=True)
    g_logits = p * (grad_p - inner)
    return breakdown, h.T @ g_logits


def total_objective(theta, theta0, hiddens, w, train_step, top_k) -> LossBreakdown:
    return evaluate(theta, theta0, hiddens, w, train_step, top_k, want_grad=False)[0]


def grad_total(theta, theta0, hiddens, w, train_step, top_k) -> np.ndarray:
    return evaluate(theta, theta0, hiddens, w, train_step, top_k, want_grad=True)[1]


def fd_gradient(theta, theta0, hiddens, w: LossWeights, train_step: int, top_k: int,
                h_step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of one config, one objective pair per coordinate."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for idx in np.ndindex(*theta.shape):
        plus = theta.copy()
        plus[idx] += h_step
        minus = theta.copy()
        minus[idx] -= h_step
        f_plus = objective.total_objective(plus, theta0, hiddens, w, train_step, top_k).total
        f_minus = objective.total_objective(minus, theta0, hiddens, w, train_step, top_k).total
        grad[idx] = (f_plus - f_minus) / (2.0 * h_step)
    return grad


# ---------------------------------------------------------------------------
# Monte Carlo check of the reuse-mass expectation
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class McReuseResult:
    estimate: float  # mean reused-sample count over draws
    expected: float  # K^2 * m = K * (mass on the previous set)
    stderr: float  # binomial standard error of the estimate
    z_score: float
    n_samples: int


def mc_reuse_expectation(p, prev_set, k: int, n_samples: int, seed: int = 0) -> McReuseResult:
    """Sample K experts i.i.d. from P per draw and count how many land in the
    previous set; the mean must match K^2 times the reuse mass."""
    p = np.asarray(p, dtype=float)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("p is not a distribution")
    prev = sorted(set(prev_set))
    if len(prev) != k:
        raise ValueError(f"prev_set must contain K={k} distinct experts")

    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p)
    draws = np.searchsorted(cdf, rng.random((n_samples, k)), side="right")
    draws = np.minimum(draws, p.size - 1)
    reused = np.isin(draws, prev).sum(axis=1)

    q = float(p[prev].sum())
    expected = k * q  # equals K^2 times the reuse mass
    estimate = float(reused.mean())
    stderr = math.sqrt(k * q * (1.0 - q) / n_samples)
    if stderr > 0:
        z = (estimate - expected) / stderr
    else:
        z = 0.0 if estimate == expected else math.inf
    return McReuseResult(
        estimate=estimate, expected=expected, stderr=stderr, z_score=z, n_samples=n_samples
    )


def sequence_eor(theta, hiddens, top_k: int) -> float:
    p = routing_distributions(theta, hiddens)
    sets = sets_from_rows(p, top_k)
    irs = [
        instantaneous_reuse(sets[t - 1], sets[t], top_k) for t in range(1, len(sets))
    ]
    return float(np.mean(irs))


def evaluate_gate(theta, theta0, sequences, top_k: int) -> EvalStats:
    eors, trusts, rhos = [], [], []
    for h in sequences:
        p = routing_distributions(theta, h)
        pref = routing_distributions(theta0, h)
        sets = sets_from_rows(p, top_k)
        eors.append(sequence_eor(theta, h, top_k))
        trusts.append(trust_loss(p, pref))
        masses = [
            float(p[t, list(sets[t - 1])].sum() / top_k) for t in range(1, len(p))
        ]
        rhos.append(float(np.mean(masses)))
    return EvalStats(
        eor=float(np.mean(eors)),
        trust_kl=float(np.mean(trusts)),
        reuse_rho=float(np.mean(rhos)),
    )


def train(theta_init, sequences, cfg: TrainConfig, weights: LossWeights,
          top_k: int) -> TrainResult:
    """One value pass, one gradient pass and one EOR pass per step."""
    if not sequences:
        raise ValueError("need at least one training sequence")
    params = GateParams.snapshot(np.asarray(theta_init, dtype=float))
    theta, theta0 = params.theta, params.theta0

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    eval_before = evaluate_gate(theta, theta0, sequences, top_k)

    log = []
    for step in range(cfg.steps):
        h = sequences[step % len(sequences)]
        breakdown = total_objective(theta, theta0, h, weights, step, top_k)
        if not np.isfinite(breakdown.total):
            raise TrainingDiverged(step, breakdown.total)
        grad = grad_total(theta, theta0, h, weights, step, top_k)

        grad_norm = float(np.linalg.norm(grad))
        if cfg.clip_norm > 0 and grad_norm > cfg.clip_norm:
            grad = grad * (cfg.clip_norm / grad_norm)

        if cfg.optimizer == "adam":
            m = cfg.beta1 * m + (1 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
            m_hat = m / (1 - cfg.beta1 ** (step + 1))
            v_hat = v / (1 - cfg.beta2 ** (step + 1))
            theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        else:
            theta -= cfg.lr * grad

        log.append(
            TrainLogRow(
                step=step,
                total=breakdown.total,
                trust_kl=breakdown.trust_kl,
                reuse_rho=breakdown.reuse_rho,
                reuse=breakdown.reuse_loss,
                smooth=breakdown.smooth,
                lag=breakdown.lag,
                ws=breakdown.ws,
                alpha_reuse=breakdown.alpha_reuse,
                alpha_loc=breakdown.alpha_loc,
                eor=sequence_eor(theta, h, top_k),
                grad_norm=grad_norm,
            )
        )

    eval_after = evaluate_gate(theta, theta0, sequences, top_k)
    return TrainResult(
        params=params, log=tuple(log), eval_before=eval_before, eval_after=eval_after
    )
