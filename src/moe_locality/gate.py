"""Log-softmax, deterministic Top-K selection, step-to-step overlap, gate
parameters, and the distribution-stability checks (probability margin,
Pinsker bound).

All probability math runs in float64 with max-subtracted softmax. Ties in
Top-K selection break toward the lowest expert index; that rule is global to
the package so traces and tests are reproducible. :func:`topk_rows` is the
rule's one definition, :func:`overlap_counts` the one count of step-to-step
overlap and :func:`kl_div` the package's one KL divergence.

:func:`topk_rows` gives a stable descending sort's first K entries without
paying for a stable sort on every row: one default (unstable) argsort of the
whole stack, a check that each row's K + 1 leading sorted values strictly
increase, and a stable re-sort of only the rows where they do not.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KL_EPS = 1e-12

__all__ = [
    "KL_EPS",
    "STABILITY_BLOCK",
    "GateParams",
    "StabilityBlock",
    "PinskerResult",
    "log_softmax",
    "topk_rows",
    "overlap_counts",
    "topk",
    "kl_div",
    "probability_margin",
    "pinsker_check",
    "perturb_rows",
    "stability_block",
    "stability_campaign",
    "pinsker_campaign",
    "save_gate",
]


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def topk_rows(p_rows: np.ndarray, k: int) -> np.ndarray:
    """Top-K index array along the last axis, descending, ties to the lowest index.

    The package's one statement of the tie rule: every Top-K set (trace
    validation, rerouting, the reuse term, EOR) is read from here. It equals
    a stable descending sort's first K entries, computed in two steps:

    1. One default (unstable) argsort of ``-p`` over the whole stack. With
       numpy 2.4 on an AVX-512 Xeon it takes about 0.2 us per 32-wide row,
       against 0.8 us for the stable kind.
    2. A row whose K + 1 leading sorted values strictly increase holds K
       values that appear nowhere else in it, so every sort orders its head
       alike. Any other row (an equal pair, NaN, -0.0 next to 0.0, a repeated
       infinity in the head) is re-sorted alone with the stable kind.

    On continuous routing distributions ties have probability zero, so the
    stable re-sort is the rare branch, not the common cost.
    """
    neg = -p_rows
    order = np.argsort(neg, axis=-1)
    head = np.take_along_axis(neg, order[..., : k + 1], axis=-1)
    tied = ~np.all(head[..., :-1] < head[..., 1:], axis=-1)
    if tied.any():
        order[tied] = np.argsort(neg[tied], axis=-1, kind="stable")
    return order[..., :k]


def overlap_counts(rows: np.ndarray) -> np.ndarray:
    """int[..., T-1]: how many members each row of a (..., T, K) array of
    distinct-id Top-K rows shares with the row before it.

    The package's one statement of step-to-step overlap |E_t ∩ E_{t-1}|: EOR
    (its mean over K), the fetch bound K - |E_t ∩ E_{t-1}| and the trainer's
    logged EOR are all read from here.
    """
    return (rows[..., 1:, :, None] == rows[..., :-1, None, :]).sum(axis=(-2, -1))


def topk(p, k: int) -> tuple[int, ...]:
    """The k highest-probability expert indices of one distribution, as a tuple."""
    p = np.asarray(p, dtype=float)
    if k < 1:
        raise ValueError(f"K={k} must be >= 1")
    if k > p.size:
        raise ValueError(f"K={k} exceeds the number of experts {p.size}")
    return tuple(topk_rows(p, k).tolist())


def kl_div(p, q, eps: float = KL_EPS) -> float:
    """KL(P || Q) with Q clamped below by eps; >= 0 up to clamping."""
    p = np.asarray(p, dtype=float)
    q = np.maximum(np.asarray(q, dtype=float), eps)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def probability_margin(q, k: int) -> float | np.ndarray:
    """Gap between the K-th and (K+1)-th largest probabilities of q.

    Zero exactly at a Top-K boundary tie; requires 1 <= K < N_r so the K-th
    and (K+1)-th entries exist. A ``(..., N_r)`` array gives one margin per
    distribution along the last axis; a single distribution gives a float.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    n = q.shape[-1]
    if not 1 <= k < n:
        raise ValueError(f"margin needs 1 <= K < N_r, got K={k}, N_r={n}")
    asc = np.sort(q, axis=-1)
    margin = asc[..., n - k] - asc[..., n - k - 1]
    return float(margin) if margin.ndim == 0 else margin


@dataclass(frozen=True)
class PinskerResult:
    l1_distance: float
    kl_bound: float  # sqrt(2 * KL(P || Q))
    holds: bool


def pinsker_check(p, q, tol: float = 1e-9) -> PinskerResult:
    """Verify ||P - Q||_1 <= sqrt(2 KL(P || Q)) on one pair."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    l1 = float(np.abs(p - q).sum())
    kl = kl_div(p, q)
    bound = float(np.sqrt(max(2.0 * kl, 0.0)))
    return PinskerResult(l1_distance=l1, kl_bound=bound, holds=l1 <= bound + tol)


# ---------------------------------------------------------------------------
# Randomized check campaigns
# ---------------------------------------------------------------------------


STABILITY_BLOCK = 1024  # trials drawn and checked per set of array operations
_MAX_HALVINGS = 100


def perturb_rows(q: np.ndarray, budget: np.ndarray, rng) -> np.ndarray:
    """Per row of q, a random distribution p with ||p - q||_inf strictly below
    that row's ``budget``.

    Each row draws a zero-sum perturbation scaled into its sup-norm ball (so
    the simplex sum is preserved exactly) and halves it until all entries
    stay non-negative; halving never leaves the ball. A row still negative
    after 100 halvings (q has a zero entry the draw cannot clear) gets p = q.
    """
    raw = rng.uniform(-1.0, 1.0, size=q.shape)
    raw -= raw.mean(axis=-1, keepdims=True)
    peak = np.abs(raw).max(axis=-1, keepdims=True)
    unit = np.divide(raw, peak, out=np.zeros_like(raw), where=peak > 0)
    delta = unit * (budget * rng.random(len(q)))[:, None]
    for _ in range(_MAX_HALVINGS):
        bad = np.any(q + delta < 0, axis=-1)
        if not bad.any():
            break
        delta[bad] *= 0.5
    else:
        delta[bad] = 0.0
    return q + delta


@dataclass(frozen=True)
class StabilityBlock:
    """Margin-lemma verdicts for a block of (q, p) pairs, one entry per row."""

    p: np.ndarray
    margin: np.ndarray
    sup_distance: np.ndarray
    condition_met: np.ndarray  # sup_distance < margin / 2
    sets_equal: np.ndarray

    @property
    def checked(self) -> np.ndarray:
        """Rows with a positive margin; a Top-K tie has nothing to keep stable."""
        return self.margin > 0

    @property
    def failed(self) -> np.ndarray:
        return self.checked & self.condition_met & ~self.sets_equal


def stability_block(q: np.ndarray, k: int, rng) -> StabilityBlock:
    """Perturb each row of q within 0.999 of half its probability margin and
    compare the Top-K sets of q and p."""
    margin = probability_margin(q, k)
    p = perturb_rows(q, 0.999 * margin / 2.0, rng)
    dist = np.abs(p - q).max(axis=-1)
    sets_equal = np.all(
        np.sort(topk_rows(p, k), axis=-1) == np.sort(topk_rows(q, k), axis=-1), axis=-1
    )
    return StabilityBlock(p, margin, dist, dist < margin / 2, sets_equal)


def _require_campaign(trials: int, n_experts: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n_experts < 2:
        raise ValueError(f"n_experts must be >= 2, got {n_experts}")


def stability_campaign(trials: int, n_experts: int, k: int, seed: int = 0) -> dict:
    """Randomized executable form of the margin lemma: perturbations inside
    half the probability margin must never change the Top-K set.

    Trials are drawn and checked ``STABILITY_BLOCK`` at a time.
    """
    _require_campaign(trials, n_experts)
    if not 1 <= k < n_experts:
        raise ValueError(f"K must be in [1, {n_experts}), got {k}")
    rng = np.random.default_rng(seed)
    checked = failures = 0
    for start in range(0, trials, STABILITY_BLOCK):
        q = rng.dirichlet(np.ones(n_experts), size=min(STABILITY_BLOCK, trials - start))
        block = stability_block(q, k, rng)
        checked += int(np.count_nonzero(block.checked))
        failures += int(np.count_nonzero(block.failed))
    return {"trials": trials, "checked": checked, "failures": failures}


def pinsker_campaign(trials: int, n_experts: int, seed: int = 0) -> dict:
    _require_campaign(trials, n_experts)
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        p = rng.dirichlet(np.ones(n_experts))
        q = rng.dirichlet(np.ones(n_experts))
        if not pinsker_check(p, q).holds:
            failures += 1
    return {"trials": trials, "checked": trials, "failures": failures}


# ---------------------------------------------------------------------------
# Gate parameters
# ---------------------------------------------------------------------------


@dataclass
class GateParams:
    """Trainable gate matrix plus the frozen reference snapshot.

    ``theta0`` is marked read-only at construction; the trainer mutates only
    ``theta`` and the reference path never reads ``theta``.
    """

    theta: np.ndarray  # (d, N_r)
    theta0: np.ndarray  # frozen copy, same shape

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.theta0 = np.asarray(self.theta0, dtype=float).copy()
        if self.theta.shape != self.theta0.shape or self.theta.ndim != 2:
            raise ValueError(
                f"theta {self.theta.shape} and theta0 {self.theta0.shape} must be equal 2-D shapes"
            )
        self.theta0.setflags(write=False)

    @classmethod
    def snapshot(cls, theta: np.ndarray) -> "GateParams":
        theta = np.asarray(theta, dtype=float)
        return cls(theta=theta.copy(), theta0=theta)


_MAGIC = b"GATE"
_LITTLE = 0  # byte-order tag


def save_gate(params: GateParams, path, write=None) -> None:
    """Flat binary layout: magic, endianness tag, d, N_r, theta, theta0
    (float64 each), plus a JSON sidecar describing the layout at
    ``<path>.json``. ``write(path, chunks)`` writes each file, as one chunk,
    when given (the CLI passes its atomic writer), else they are written in
    place."""
    d, n = params.theta.shape
    sidecar = {
        "format": "gate-params-v1",
        "d": d,
        "n_routed_experts": n,
        "dtype": "float64",
        "byte_order": "little",
        "arrays": ["theta", "theta0"],
    }
    files = {
        path: b"".join([_MAGIC, struct.pack("<BII", _LITTLE, d, n),
                        np.ascontiguousarray(params.theta, dtype="<f8").tobytes(),
                        np.ascontiguousarray(params.theta0, dtype="<f8").tobytes()]),
        str(path) + ".json": (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode(),
    }
    for file, data in files.items():
        if write is None:
            Path(file).write_bytes(data)
        else:
            write(file, [data])
