"""Toy gate trainer: optimizes the locality objective with analytic gradients.

The benchmark data is piecewise-stationary: hidden states hold near a segment
mean for a fixed number of steps, then jump to a fresh mean. That creates
genuine short-horizon reuse structure (within a block) plus abrupt context
switches (across blocks), the regime the trust anchor is meant to survive.

Only ``theta`` is updated; the snapshot ``theta0`` taken at step 0 provides
the reference distributions throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gate import GateParams, kl_div, overlap_counts, topk_rows
from .objective import (
    LossWeights,
    NonFiniteLogits,
    _clamped_reference,
    _evaluate,
    _log_routing,
    _sequence,
    routing_distributions,
)

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
    "train_grid",
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
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not self.clip_norm >= 0:
            raise ValueError(f"clip_norm must be >= 0, got {self.clip_norm!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class SyntheticDataConfig:
    n_sequences: int = 4
    seq_len: int = 64
    hidden_dim: int = 8
    n_experts: int = 32
    top_k: int = 4
    switch_period: int = 8
    noise: float = 0.9
    seed: int = 1

    def __post_init__(self):
        for name, low in (("n_sequences", 1), ("seq_len", 2), ("switch_period", 1),
                          ("hidden_dim", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k must be in [1, n_experts = {self.n_experts}]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def synth_hidden_sequences(cfg: SyntheticDataConfig) -> list[np.ndarray]:
    """Piecewise-stationary hidden states: block mean + isotropic noise."""
    rng = np.random.default_rng(cfg.seed)
    sequences = []
    for _ in range(cfg.n_sequences):
        rows = np.empty((cfg.seq_len, cfg.hidden_dim))
        mean = None
        for t in range(cfg.seq_len):
            if t % cfg.switch_period == 0:
                mean = rng.standard_normal(cfg.hidden_dim)
            rows[t] = mean + cfg.noise * rng.standard_normal(cfg.hidden_dim)
        sequences.append(rows)
    return sequences


def init_gate_matrix(hidden_dim: int, n_experts: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((hidden_dim, n_experts)) / np.sqrt(hidden_dim)


def sequence_eor(theta, hiddens, top_k: int) -> float | np.ndarray:
    """EOR of the routing trajectory the gate induces on one (T, d) sequence.

    A stack [C, d, N] of gates gives one EOR per gate; a single gate a float.
    """
    theta = np.asarray(theta, dtype=float)
    stack = theta if theta.ndim == 3 else theta[None]
    rows = topk_rows(np.exp(_log_routing(stack, np.asarray(hiddens, dtype=float))), top_k)
    eors = np.mean(overlap_counts(rows) / top_k, axis=-1)
    return eors if theta.ndim == 3 else float(eors[0])


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
    ``theta_init`` before the first update and never touched again. This is
    the one-config case of :func:`train_grid`.
    """
    return train_grid(theta_init, sequences, cfg, [weights], top_k)[0]


def train_grid(
    theta_init: np.ndarray,
    sequences: list[np.ndarray],
    cfg: TrainConfig,
    weight_list,
    top_k: int,
) -> list[TrainResult]:
    """One training run from ``theta_init`` per weight config, in grid order.

    Result i is bitwise what ``train(theta_init, sequences, cfg,
    weight_list[i], top_k)`` gives alone. Configs that agree in every field
    but the ``lambda_*`` weights (:meth:`LossWeights.without_lambdas`) train
    in lock-step on one stacked theta [C, d, N], one forward/backward pass per
    step for all of them; other groups train one after another. Each step
    takes the logged loss terms and the gradient from that pass, and the
    logged ``eor``, which describes the routing after the step's update, from
    a second one.

    A config whose loss goes non-finite, or whose logits do, stops. The error
    raised is that of the first config in grid order to fail, at its own step:
    the one that running the configs one by one would raise.
    """
    if not sequences:
        raise ValueError("need at least one training sequence")
    weight_list = list(weight_list)
    if not weight_list:
        raise ValueError("need at least one weight config")
    theta0 = GateParams.snapshot(np.asarray(theta_init, dtype=float)).theta0
    eval_before = evaluate_gate(theta0, theta0, sequences, top_k)

    groups: dict[LossWeights, list[int]] = {}
    for i, w in enumerate(weight_list):
        groups.setdefault(w.without_lambdas(), []).append(i)
    thetas: list = [None] * len(weight_list)
    logs: list = [None] * len(weight_list)
    failed = len(weight_list), None  # (grid index, error) of the first failure
    for members in groups.values():  # ordered by their first member
        if members[0] > failed[0]:
            continue
        stack, group_logs, failure = _train_lockstep(
            theta0, sequences, cfg, [weight_list[i] for i in members], top_k
        )
        for pos, i in enumerate(members[: len(stack)]):
            thetas[i], logs[i] = stack[pos], tuple(group_logs[pos])
        if failure is not None and members[failure[0]] < failed[0]:
            failed = members[failure[0]], failure[1]

    results = []
    for i in range(len(weight_list)):
        if i == failed[0]:
            raise failed[1]
        results.append(TrainResult(
            params=GateParams(theta=thetas[i], theta0=theta0), log=logs[i],
            eval_before=eval_before,
            eval_after=evaluate_gate(thetas[i], theta0, sequences, top_k),
        ))
    return results


def _train_lockstep(theta0, sequences, cfg: TrainConfig, weights, top_k: int):
    """Train configs that differ only in ``lambda_*`` on one stacked theta.

    Returns the final thetas [C', d, N], the per-config log rows and the
    first failure as (position, error), or None. A config that fails drops
    out with every config after it, since only the first failure in order is
    ever raised, so the C' configs left are a prefix of ``weights``.
    """
    theta = np.repeat(theta0[None], len(weights), axis=0)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    logs: list[list[TrainLogRow]] = [[] for _ in weights]
    failure = None
    prepared = {}  # sequence index -> (hiddens, clamped reference)

    def routed(fn):
        """``fn(theta)`` for the configs left; a config whose logits are not
        finite fails, and the configs before it are retried."""
        nonlocal theta, m, v, failure
        while len(theta):
            try:
                return fn(theta)
            except NonFiniteLogits as e:
                theta, m, v = theta[: e.index], m[: e.index], v[: e.index]
                failure = e.index, e
        return None

    for step in range(cfg.steps):
        i = step % len(sequences)
        if i not in prepared:
            h = _sequence(sequences[i])
            prepared[i] = h, _clamped_reference(theta0, h)
        h, ref = prepared[i]
        logp = routed(lambda th: _log_routing(th, h))
        if logp is None:
            break
        breakdowns, grad = _evaluate(logp, ref, h, weights[: len(theta)], step, top_k,
                                     want_grad=True)
        for c, bd in enumerate(breakdowns):
            if not math.isfinite(bd.total):
                theta, m, v, grad = theta[:c], m[:c], v[:c], grad[:c]
                failure = c, TrainingDiverged(step, bd.total)
                break
        if not len(theta):
            break

        norms = [float(np.linalg.norm(g)) for g in grad]
        if cfg.clip_norm > 0 and any(x > cfg.clip_norm for x in norms):
            scale = [cfg.clip_norm / x if x > cfg.clip_norm else 1.0 for x in norms]
            grad = grad * np.array(scale)[:, None, None]

        if cfg.optimizer == "adam":
            m = cfg.beta1 * m + (1 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
            m_hat = m / (1 - cfg.beta1 ** (step + 1))
            v_hat = v / (1 - cfg.beta2 ** (step + 1))
            theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        else:
            theta -= cfg.lr * grad

        eors = routed(lambda th: sequence_eor(th, h, top_k))
        if eors is None:
            break
        for c, (bd, eor, norm) in enumerate(zip(breakdowns, eors.tolist(), norms)):
            logs[c].append(TrainLogRow(
                step=step,
                total=bd.total,
                trust_kl=bd.trust_kl,
                reuse_rho=bd.reuse_rho,
                reuse=bd.reuse_loss,
                smooth=bd.smooth,
                lag=bd.lag,
                ws=bd.ws,
                alpha_reuse=bd.alpha_reuse,
                alpha_loc=bd.alpha_loc,
                eor=eor,
                grad_norm=norm,
            ))
    return theta, logs, failure
