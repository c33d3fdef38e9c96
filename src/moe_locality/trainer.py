"""Toy gate trainer: optimizes the locality objective with analytic gradients.

The benchmark data is piecewise-stationary: hidden states hold near a segment
mean for a fixed number of steps, then jump to a fresh mean. That creates
genuine short-horizon reuse structure (within a block) plus abrupt context
switches (across blocks), the regime the trust anchor is meant to survive.

Only ``theta`` is updated; the snapshot ``theta0`` taken at step 0 provides
the reference distributions throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate import GateParams, kl_div, overlap_counts, topk_rows
from .objective import LossWeights, routing_distributions, value_and_grad

__all__ = [
    "TrainConfig",
    "SyntheticDataConfig",
    "TrainLogRow",
    "EvalStats",
    "TrainResult",
    "TrainingDiverged",
    "synth_hidden_sequences",
    "init_gate_matrix",
    "sequence_eor",
    "evaluate_gate",
    "train",
]


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss ({value}) at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    lr: float = 1e-2
    optimizer: str = "adam"  # or "sgd"
    seed: int = 0
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class SyntheticDataConfig:
    n_sequences: int = 4
    seq_len: int = 64
    hidden_dim: int = 8
    n_experts: int = 32
    top_k: int = 4
    switch_period: int = 8
    noise: float = 0.9
    mean_scale: float = 1.0
    seed: int = 1

    def __post_init__(self):
        if self.seq_len < 2 or self.n_sequences < 1:
            raise ValueError("need n_sequences >= 1 and seq_len >= 2")
        if self.switch_period < 1:
            raise ValueError("switch_period must be >= 1")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError("need 1 <= top_k <= n_experts")


def synth_hidden_sequences(cfg: SyntheticDataConfig) -> list[np.ndarray]:
    """Piecewise-stationary hidden states: block mean + isotropic noise."""
    rng = np.random.default_rng(cfg.seed)
    sequences = []
    for _ in range(cfg.n_sequences):
        rows = np.empty((cfg.seq_len, cfg.hidden_dim))
        mean = None
        for t in range(cfg.seq_len):
            if t % cfg.switch_period == 0:
                mean = cfg.mean_scale * rng.standard_normal(cfg.hidden_dim)
            rows[t] = mean + cfg.noise * rng.standard_normal(cfg.hidden_dim)
        sequences.append(rows)
    return sequences


def init_gate_matrix(hidden_dim: int, n_experts: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((hidden_dim, n_experts)) / np.sqrt(hidden_dim)


def sequence_eor(theta, hiddens, top_k: int) -> float:
    """EOR of the routing trajectory the gate induces on one sequence."""
    rows = topk_rows(routing_distributions(theta, hiddens), top_k)
    return float(np.mean(overlap_counts(rows) / top_k))


@dataclass(frozen=True)
class EvalStats:
    eor: float
    trust_kl: float
    reuse_rho: float


def evaluate_gate(theta, theta0, sequences, top_k: int) -> EvalStats:
    """Mean EOR / trust divergence / reuse mass across sequences."""
    eors, trusts, rhos = [], [], []
    for h in sequences:
        p = routing_distributions(theta, h)
        pref = routing_distributions(theta0, h)
        rows = topk_rows(p, top_k)
        eors.append(float(np.mean(overlap_counts(rows) / top_k)))
        trusts.append(float(np.mean([kl_div(a, b) for a, b in zip(p, pref)])))
        masses = p[np.arange(1, len(p))[:, None], rows[:-1]].sum(axis=1) / top_k
        rhos.append(float(np.mean(masses)))
    return EvalStats(
        eor=float(np.mean(eors)),
        trust_kl=float(np.mean(trusts)),
        reuse_rho=float(np.mean(rhos)),
    )


@dataclass(frozen=True)
class TrainLogRow:
    step: int
    total: float
    trust_kl: float
    reuse_rho: float
    reuse: float
    smooth: float
    lag: float
    ws: float
    alpha_reuse: float
    alpha_loc: float
    eor: float
    grad_norm: float


@dataclass(frozen=True)
class TrainResult:
    params: GateParams
    log: tuple[TrainLogRow, ...]
    eval_before: EvalStats
    eval_after: EvalStats


def train(
    theta_init: np.ndarray,
    sequences: list[np.ndarray],
    cfg: TrainConfig,
    weights: LossWeights,
    top_k: int,
) -> TrainResult:
    """Round-robin over sequences, one gradient step per sequence visit.

    Deterministic for fixed inputs. ``theta0`` is snapshotted from
    ``theta_init`` before the first update and never touched again.

    Each step takes the logged loss terms and the gradient from one fused
    forward pass (:func:`value_and_grad`). The logged ``eor`` describes the
    routing after the step's update, so it needs the updated ``theta`` and
    runs a second, separate forward pass.
    """
    if not sequences:
        raise ValueError("need at least one training sequence")
    params = GateParams.snapshot(np.asarray(theta_init, dtype=float))
    theta, theta0 = params.theta, params.theta0

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    eval_before = evaluate_gate(theta, theta0, sequences, top_k)

    log: list[TrainLogRow] = []
    for step in range(cfg.steps):
        h = sequences[step % len(sequences)]
        breakdown, grad = value_and_grad(theta, theta0, h, weights, step, top_k)
        if not np.isfinite(breakdown.total):
            raise TrainingDiverged(step, breakdown.total)

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
