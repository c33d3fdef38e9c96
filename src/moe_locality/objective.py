"""Locality-shaping objective over a routing-distribution sequence, with
hand-derived analytic gradients and a finite-difference oracle.

Given hidden states h_1..h_T and gate matrix theta, the forward pass produces
P_t = softmax(h_t @ theta) and a frozen reference P_t^ref from the snapshot
theta0. The objective combines:

* trust:  mean_t KL(P_t || P_t^ref) - anchors routing to the snapshot; no
  gradient flows through the reference branch.
* reuse:  -log(rho + 1e-8) where rho is the mean probability mass (scaled by
  1/K) that P_t places on the previous step's Top-K set; the set is a
  constant for differentiation.
* smooth: mean adjacent-step symmetric KL; gradients flow to both steps.
* lag:    symmetric KL against earlier steps {t-d : d in lags}, normalized by
  |lags| regardless of how many lags are in range.
* ws:     mean entropy of window-averaged distributions over complete
  length-W windows (the trailing partial window is discarded).

The weighted total is

    lambda_kl * trust
    + alpha_reuse * lambda_reuse * reuse
    + alpha_loc * (lambda_smooth * smooth + lambda_lag * lag + lambda_ws * ws)

with linear warmups alpha = min(1, step / warm_steps). Everything runs in
float64; the analytic gradient is the exact derivative of the value actually
computed, which the finite-difference oracle verifies coordinate by
coordinate (one objective pair per coordinate for any number of weight
configs that differ only in their ``lambda_*`` weights).

One evaluator serves every caller: it takes a stack of C gates, one per
weight config, and gives each config the bits it would get alone.
``total_objective`` and ``value_and_grad`` are its C = 1 case, and the
trainer runs a sweep's configs through it together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gate import KL_EPS, log_softmax, topk_rows

REUSE_EPS = 1e-8
_LOG_CLAMP = math.log(KL_EPS)

__all__ = [
    "REUSE_EPS",
    "LossWeights",
    "LossBreakdown",
    "alpha_schedule",
    "routing_distributions",
    "total_objective",
    "value_and_grad",
    "fd_gradients",
]


_LAMBDAS = ("lambda_kl", "lambda_reuse", "lambda_smooth", "lambda_lag", "lambda_ws")


@dataclass(frozen=True)
class LossWeights:
    lambda_kl: float = 0.45
    lambda_reuse: float = 0.2
    lambda_smooth: float = 0.05
    lambda_lag: float = 0.05
    lambda_ws: float = 0.01
    lag_set: tuple[int, ...] = (1, 2, 4, 8, 16)
    window: int = 16
    warm_reuse_steps: int = 400
    warm_loc_steps: int = 800
    eps: float = REUSE_EPS

    def __post_init__(self):
        for name in _LAMBDAS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        lags = tuple(self.lag_set)
        if not lags or any(d < 1 for d in lags) or list(lags) != sorted(set(lags)):
            raise ValueError("lag_set must be non-empty, distinct, ascending, positive")
        object.__setattr__(self, "lag_set", lags)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        for name in ("warm_reuse_steps", "warm_loc_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def without_lambdas(self) -> "LossWeights":
        """These weights with every ``lambda_*`` zeroed. Configs whose
        ``without_lambdas()`` agree share one evaluation: ``fd_gradients``
        reads all their totals from one objective pair, and
        ``trainer.train_grid`` trains them in lock-step."""
        return replace(self, **dict.fromkeys(_LAMBDAS, 0.0))


@dataclass(frozen=True)
class LossBreakdown:
    trust_kl: float
    reuse_rho: float
    reuse_loss: float
    smooth: float
    lag: float
    ws: float
    alpha_reuse: float
    alpha_loc: float
    total: float

    def reassembled(self, w: LossWeights) -> float:
        """The weighted total of the parts under ``w``: the one statement of
        the total, which every evaluation stores as ``total``."""
        return (
            w.lambda_kl * self.trust_kl
            + self.alpha_reuse * w.lambda_reuse * self.reuse_loss
            + self.alpha_loc
            * (w.lambda_smooth * self.smooth + w.lambda_lag * self.lag + w.lambda_ws * self.ws)
        )


def alpha_schedule(step: int, warm_steps: int) -> float:
    """Linear warmup min(1, step / warm_steps); 1.0 when no warmup is configured."""
    if step < 0:
        raise ValueError("training step must be >= 0")
    if warm_steps <= 0:
        return 1.0
    return min(1.0, step / warm_steps)


def routing_distributions(theta, hiddens) -> np.ndarray:
    """Row-wise softmax(h_t @ theta)."""
    return np.exp(log_softmax(np.asarray(hiddens, dtype=float) @ np.asarray(theta, dtype=float)))


# ---------------------------------------------------------------------------
# Stacked forward / backward: C weight configs, one pass
# ---------------------------------------------------------------------------


class NonFiniteLogits(ValueError):
    """A gate's logits are not all finite; ``index`` is the first such gate of a stack."""

    def __init__(self, index: int):
        super().__init__("non-finite logits")
        self.index = index


def _sequence(hiddens) -> np.ndarray:
    hiddens = np.asarray(hiddens, dtype=float)
    if hiddens.ndim != 2:
        raise ValueError("hiddens must be a T x d matrix")
    if len(hiddens) < 2:
        raise ValueError("objective needs a sequence of length >= 2")
    return hiddens


def _log_routing(theta, hiddens) -> np.ndarray:
    """[C, T, N] log softmax(h_t @ theta_c) of a stack [C, d, N] of gates on a
    (T, d) sequence; NonFiniteLogits names the first gate whose logits are not
    all finite."""
    z = hiddens @ theta
    finite = np.isfinite(z).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteLogits(int(np.argmin(finite)))
    return log_softmax(z)


def _clamped_reference(theta0, hiddens) -> np.ndarray:
    """The trust term's reference log P^ref clamped below at log(KL_EPS); it
    depends only on the frozen snapshot, so a trainer computes it once per
    sequence."""
    return np.maximum(log_softmax(hiddens @ np.asarray(theta0, dtype=float)), _LOG_CLAMP)


def _pair_symkl(logp, p, d, want_grad):
    """Values [C, T-d] (and both-sided dL/dP) of SymKL(P[t], P[t-d]) for
    t = d..T-1, when every log-probability is above log(KL_EPS).

    The rows are the views ``[:, d:]`` (side a) and ``[:, :-d]`` (side b), so
    the gradients scatter back with ``grad_p[:, d:] += ...`` /
    ``grad_p[:, :-d] += ...``. With no entry at the clamp, the clamps and
    masks of :func:`_pair_symkl_clamped` are identities, so this form gives
    the same bits with half the array operations.
    """
    la, lb = logp[:, d:], logp[:, :-d]
    fwd, back = la - lb, lb - la
    vals = 0.5 * ((p[:, d:] * fwd).sum(axis=-1) + (p[:, :-d] * back).sum(axis=-1))
    if not want_grad:
        return vals, None, None
    da = 0.5 * ((fwd + 1.0) - np.exp(back))
    db = 0.5 * ((back + 1.0) - np.exp(fwd))
    return vals, da, db


def _pair_symkl_clamped(logp, p, clamp, d, want_grad):
    """:func:`_pair_symkl` with the KL clamp: ``clamp`` is the step's
    ``(max(logp, log KL_EPS), logp > log KL_EPS)``, computed once for all
    lags."""
    logc, above = clamp
    la, lb = logp[:, d:], logp[:, :-d]
    fwd, back = la - logc[:, :-d], lb - logc[:, d:]
    vals = 0.5 * ((p[:, d:] * fwd).sum(axis=-1) + (p[:, :-d] * back).sum(axis=-1))
    if not want_grad:
        return vals, None, None
    mask_a, mask_b = above[:, d:], above[:, :-d]
    ratio_ba = np.where(mask_a, np.exp(np.where(mask_a, lb - la, 0.0)), 0.0)
    ratio_ab = np.where(mask_b, np.exp(np.where(mask_b, la - lb, 0.0)), 0.0)
    da = 0.5 * ((fwd + 1.0) - ratio_ba)
    db = 0.5 * ((back + 1.0) - ratio_ab)
    return vals, da, db


def _evaluate(logp, logref_c, hiddens, weights, train_step: int, top_k: int,
              want_grad: bool):
    """The objective of C weight configs on one (T, d) sequence in one pass.

    ``logp`` is the [C, T, N] log-routing of each config's gate
    (:func:`_log_routing`) and ``logref_c`` the clamped reference
    (:func:`_clamped_reference`). The configs must agree in every field but
    the ``lambda_*`` weights (:meth:`LossWeights.without_lambdas`). Returns
    one breakdown per config and, with ``want_grad``, the gradients
    [C, d, N]. Each config's slice is bitwise what it gets alone: the array
    operations act row by row, a term whose weight is 0 adds exact zeros, and
    the per-config sums (lags, ws windows) run in Python floats in one order.
    """
    w = weights[0]
    lam_kl, lam_reuse, lam_smooth, lam_lag, lam_ws = np.array(
        [[getattr(x, name) for x in weights] for name in _LAMBDAS], dtype=float
    )
    p = np.exp(logp)
    n_cfg, t_len, n = p.shape
    grad_p = np.zeros_like(p) if want_grad else None
    per_cfg = (slice(None), None, None)  # a [C] coefficient against [C, rows, N]

    a_reuse = alpha_schedule(train_step, w.warm_reuse_steps)
    a_loc = alpha_schedule(train_step, w.warm_loc_steps)

    # trust: mean_t KL(P_t || Pref_t), reference clamped and constant.
    rel = logp - logref_c
    trust = (p * rel).sum(axis=-1).mean(axis=-1)
    if want_grad and (lam_kl > 0).any():
        # Divided in Python, as a config alone is: an int weight / T rounds once.
        kl_coef = np.array([x.lambda_kl / t_len for x in weights])
        grad_p += kl_coef[per_cfg] * (rel + 1.0)

    # reuse: previous-step Top-K sets are constants.
    prev_sets = topk_rows(p, top_k)[:, :-1]  # set of step t-1 scores step t
    masses = np.take_along_axis(p[:, 1:], prev_sets, axis=-1).sum(axis=-1) / top_k
    rho = masses.mean(axis=-1)
    reuse = [-math.log(r + w.eps) for r in rho.tolist()]
    if want_grad:
        w_reuse = a_reuse * lam_reuse
        if (w_reuse > 0).any():
            coef = w_reuse * (-1.0 / (rho + w.eps)) / (t_len - 1) / top_k
            # Each row's K columns are distinct, so no element is hit twice.
            rows = grad_p[:, 1:]
            hit = np.take_along_axis(rows, prev_sets, axis=-1) + coef[per_cfg]
            np.put_along_axis(rows, prev_sets, hit, axis=-1)

    # Symmetric-KL pairs: the clamp and its mask once per step, and none when
    # no log-probability reaches it.
    if logp.min() > _LOG_CLAMP:
        def pair(d, grads):
            return _pair_symkl(logp, p, d, grads)
    else:
        clamp = (np.maximum(logp, _LOG_CLAMP), logp > _LOG_CLAMP)

        def pair(d, grads):
            return _pair_symkl_clamped(logp, p, clamp, d, grads)

    w_smooth = a_loc * lam_smooth
    w_lag = a_loc * lam_lag
    grad_smooth = want_grad and bool((w_smooth > 0).any())
    grad_lag = want_grad and bool((w_lag > 0).any())

    # smooth: adjacent symmetric KL, both sides differentiable; lag d = 1
    # reuses the same pairs.
    adjacent = pair(1, grad_smooth or (grad_lag and w.lag_set[0] == 1))
    vals, da, db = adjacent
    smooth = vals.mean(axis=-1)
    if grad_smooth:
        coef = (w_smooth / (t_len - 1))[per_cfg]
        grad_p[:, 1:] += coef * da
        grad_p[:, :-1] += coef * db

    # lag: per lag distance, steps with t-d in range, each divided by |lags|.
    lag_totals = [0.0] * n_cfg
    n_lags = float(len(w.lag_set))
    for d in w.lag_set:
        if d >= t_len:
            break
        vals, da, db = adjacent if d == 1 else pair(d, grad_lag)
        sums = (vals / n_lags).sum(axis=-1).tolist()
        lag_totals = [acc + s for acc, s in zip(lag_totals, sums)]
        if grad_lag:
            coef = ((w_lag / (t_len - 1)) / n_lags)[per_cfg]
            grad_p[:, d:] += coef * da
            grad_p[:, :-d] += coef * db
    lag = [acc / (t_len - 1) for acc in lag_totals]

    # ws: entropy of the means of the complete windows, all at once.
    win = w.window
    n_full = t_len // win
    ws = [0.0] * n_cfg
    if n_full > 0:
        w_ws = a_loc * lam_ws
        pbar = p[:, : n_full * win].reshape(n_cfg, n_full, win, n).mean(axis=2)
        pos = pbar > 0
        logbar = np.where(pos, np.log(np.where(pos, pbar, 1.0)), 0.0)
        ws = []
        for ents in (-(pbar * logbar)).sum(axis=-1).tolist():
            acc = 0.0
            for ent in ents:  # summed in window order
                acc += ent
            ws.append(acc / n_full)
        if want_grad and (w_ws > 0).any():
            g = np.where(pos, -(logbar + 1.0), 0.0)
            full = grad_p[:, : n_full * win].reshape(n_cfg, n_full, win, n)
            full += ((w_ws * (1.0 / n_full))[per_cfg] * g / win)[:, :, None, :]

    breakdowns = []
    for x, *terms in zip(weights, trust.tolist(), rho.tolist(), reuse, smooth.tolist(), lag, ws):
        parts = LossBreakdown(*terms, a_reuse, a_loc, total=math.nan)
        breakdowns.append(replace(parts, total=parts.reassembled(x)))
    if not want_grad:
        return breakdowns, None
    # Chain through the row-wise softmax: dL/dz = P * (U - <P, U>).
    inner = (p * grad_p).sum(axis=-1, keepdims=True)
    g_logits = p * (grad_p - inner)
    return breakdowns, hiddens.T @ g_logits


def _evaluate_one(theta, theta0, hiddens, w: LossWeights, train_step: int, top_k: int,
                  want_grad: bool):
    """:func:`_evaluate` for one gate and one config."""
    h = _sequence(hiddens)
    logp = _log_routing(np.asarray(theta, dtype=float)[None], h)
    breakdowns, grad = _evaluate(logp, _clamped_reference(theta0, h), h, [w], train_step,
                                 top_k, want_grad)
    return breakdowns[0], None if grad is None else grad[0]


def total_objective(theta, theta0, hiddens, w: LossWeights, train_step: int,
                    top_k: int) -> LossBreakdown:
    """Forward pass of the full objective on one hidden-state sequence."""
    return _evaluate_one(theta, theta0, hiddens, w, train_step, top_k, want_grad=False)[0]


def value_and_grad(theta, theta0, hiddens, w: LossWeights, train_step: int,
                   top_k: int) -> tuple[LossBreakdown, np.ndarray]:
    """Objective breakdown and the analytic d(total)/d(theta) from one forward pass.

    The gradient is exact for the computed value: the previous-step Top-K
    sets (reuse) and the reference distributions (trust) are constants, and
    the symmetric-KL terms push gradient into both of their arguments. The
    breakdown is bitwise equal to ``total_objective(...)`` on the same
    arguments: the values do not depend on whether the gradient is formed.
    """
    return _evaluate_one(theta, theta0, hiddens, w, train_step, top_k, want_grad=True)


def fd_gradients(theta, theta0, hiddens, weight_list, train_step: int, top_k: int,
                 h_step: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient oracle for several weight configs at once.

    One objective pair per coordinate serves every config: no breakdown field
    depends on the ``lambda_*`` weights, so each config's total is read with
    :meth:`LossBreakdown.reassembled`, which is bitwise equal to the ``total``
    an evaluation under that config gives. The configs must therefore agree
    in every field but the five ``lambda_*`` weights.
    """
    weight_list = list(weight_list)
    if not weight_list:
        raise ValueError("fd_gradients needs at least one weight config")
    if any(w.without_lambdas() != weight_list[0].without_lambdas() for w in weight_list):
        raise ValueError("weight configs may differ only in their lambda_* fields")
    theta = np.asarray(theta, dtype=float)
    if theta.size > 10_000:
        raise ValueError("finite differences limited to <= 1e4 coordinates")
    grads = [np.zeros_like(theta) for _ in weight_list]
    for idx in np.ndindex(*theta.shape):
        plus = theta.copy()
        plus[idx] += h_step
        minus = theta.copy()
        minus[idx] -= h_step
        f_plus = total_objective(plus, theta0, hiddens, weight_list[0], train_step, top_k)
        f_minus = total_objective(minus, theta0, hiddens, weight_list[0], train_step, top_k)
        for grad, w in zip(grads, weight_list):
            grad[idx] = (f_plus.reassembled(w) - f_minus.reassembled(w)) / (2.0 * h_step)
    return grads
