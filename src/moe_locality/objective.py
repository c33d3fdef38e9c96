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
        if self.warm_reuse_steps < 0 or self.warm_loc_steps < 0:
            raise ValueError("warmup lengths must be >= 0")


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
# Fused forward / backward
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


def _pair_symkl(logp, p, d, want_grad):
    """Values (and both-sided dL/dP) of SymKL(P[t], P[t-d]) for t = d..T-1.

    The rows are the views ``[d:]`` (side a) and ``[:-d]`` (side b), so the
    gradients scatter back with ``grad_p[d:] += ...`` / ``grad_p[:-d] += ...``.
    """
    la, lb = logp[d:], logp[:-d]
    a, b = p[d:], p[:-d]
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


def _evaluate(theta, theta0, hiddens, w: LossWeights, train_step: int, top_k: int,
              want_grad: bool):
    h, logp, p, logref = _forward(theta, theta0, hiddens)
    t_len, n = p.shape
    grad_p = np.zeros_like(p) if want_grad else None

    a_reuse = alpha_schedule(train_step, w.warm_reuse_steps)
    a_loc = alpha_schedule(train_step, w.warm_loc_steps)

    # trust: mean_t KL(P_t || Pref_t), reference clamped and constant.
    logref_c = np.maximum(logref, _LOG_CLAMP)
    trust = float((p * (logp - logref_c)).sum(axis=1).mean())
    if want_grad and w.lambda_kl > 0:
        grad_p += (w.lambda_kl / t_len) * (logp - logref_c + 1.0)

    # reuse: previous-step Top-K sets are constants.
    prev_sets = topk_rows(p, top_k)[:-1]  # set of step t-1 scores step t
    cur_rows = np.arange(1, t_len)[:, None]
    masses = p[cur_rows, prev_sets].sum(axis=1) / top_k
    rho = float(masses.mean())
    reuse = -math.log(rho + w.eps)
    if want_grad:
        w_reuse = a_reuse * w.lambda_reuse
        if w_reuse > 0:
            coef = w_reuse * (-1.0 / (rho + w.eps)) / (t_len - 1) / top_k
            # Each row's K columns are distinct, so no element is hit twice.
            grad_p[cur_rows, prev_sets] += coef

    # smooth: adjacent symmetric KL, both sides differentiable.
    w_smooth = a_loc * w.lambda_smooth
    vals, da, db = _pair_symkl(logp, p, 1, want_grad and w_smooth > 0)
    smooth = float(vals.mean())
    if want_grad and w_smooth > 0:
        coef = w_smooth / (t_len - 1)
        grad_p[1:] += coef * da
        grad_p[:-1] += coef * db

    # lag: per lag distance, steps with t-d in range, each divided by |lags|.
    lag_total = 0.0
    w_lag = a_loc * w.lambda_lag
    n_lags = float(len(w.lag_set))
    for d in w.lag_set:
        if d >= t_len:
            break
        vals, da, db = _pair_symkl(logp, p, d, want_grad and w_lag > 0)
        lag_total += float((vals / n_lags).sum())
        if want_grad and w_lag > 0:
            coef = (w_lag / (t_len - 1)) / n_lags
            grad_p[d:] += coef * da
            grad_p[:-d] += coef * db
    lag = lag_total / (t_len - 1)

    # ws: entropy of the means of the complete windows, all at once.
    win = w.window
    n_full = t_len // win
    ws = 0.0
    if n_full > 0:
        w_ws = a_loc * w.lambda_ws
        pbar = p[: n_full * win].reshape(n_full, win, n).mean(axis=1)
        pos = pbar > 0
        logbar = np.where(pos, np.log(np.where(pos, pbar, 1.0)), 0.0)
        acc = 0.0
        for ent in (-(pbar * logbar).sum(axis=1)).tolist():  # summed in window order
            acc += ent
        if want_grad and w_ws > 0:
            g = np.where(pos, -(logbar + 1.0), 0.0)
            full = grad_p[: n_full * win].reshape(n_full, win, n)
            full += (w_ws * (1.0 / n_full) * g / win)[:, None, :]
        ws = acc / n_full

    parts = LossBreakdown(trust, rho, reuse, smooth, lag, ws, a_reuse, a_loc, total=math.nan)
    breakdown = replace(parts, total=parts.reassembled(w))
    if not want_grad:
        return breakdown, None
    # Chain through the row-wise softmax: dL/dz = P * (U - <P, U>).
    inner = (p * grad_p).sum(axis=1, keepdims=True)
    g_logits = p * (grad_p - inner)
    return breakdown, h.T @ g_logits


def total_objective(theta, theta0, hiddens, w: LossWeights, train_step: int,
                    top_k: int) -> LossBreakdown:
    """Forward pass of the full objective on one hidden-state sequence."""
    breakdown, _ = _evaluate(theta, theta0, hiddens, w, train_step, top_k, want_grad=False)
    return breakdown


def value_and_grad(theta, theta0, hiddens, w: LossWeights, train_step: int,
                   top_k: int) -> tuple[LossBreakdown, np.ndarray]:
    """Objective breakdown and the analytic d(total)/d(theta) from one forward pass.

    The gradient is exact for the computed value: the previous-step Top-K
    sets (reuse) and the reference distributions (trust) are constants, and
    the symmetric-KL terms push gradient into both of their arguments. The
    breakdown is bitwise equal to ``total_objective(...)`` on the same
    arguments: the values do not depend on whether the gradient is formed.
    """
    return _evaluate(theta, theta0, hiddens, w, train_step, top_k, want_grad=True)


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
    shared = [replace(w, **dict.fromkeys(_LAMBDAS, 0.0)) for w in weight_list]
    if any(s != shared[0] for s in shared):
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
