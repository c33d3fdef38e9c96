"""Reference stability campaign: one Python loop iteration per trial.

``stability_check`` judges one (q, p) pair with frozensets of ``gate.topk``,
``sample_within_margin`` draws one perturbation and halves it in a loop, and
``stability_campaign`` runs them trial by trial. The library's block form
(``gate.stability_block`` / ``gate.perturb_rows``) must give the same verdicts
row by row, which the differential tests check.

``load_gate`` reads the file ``gate.save_gate`` writes, for the round-trip
tests, and ``stable_topk_rows`` is the tie rule as one stable sort, the
oracle for ``gate.topk_rows``'s fast path and for the reference rerouting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from moe_locality.gate import GateParams, probability_margin, topk


def stable_topk_rows(p: np.ndarray, k: int) -> np.ndarray:
    """Top-K along the last axis, descending, ties to the lowest index: the
    first K entries of one stable sort."""
    return np.argsort(-p, axis=-1, kind="stable")[..., :k]


@dataclass(frozen=True)
class StabilityVerdict:
    margin: float
    sup_distance: float
    condition_met: bool  # sup_distance < margin / 2
    sets_equal: bool

    @property
    def holds(self) -> bool:
        """Vacuously true when the margin condition is not met."""
        return self.sets_equal or not self.condition_met


def stability_check(q, p, k: int) -> StabilityVerdict:
    """Does a sup-norm perturbation within half the probability margin leave
    the Top-K set unchanged? ``holds`` is the executable claim: whenever
    ||p - q||_inf < margin/2, the two Top-K sets must agree."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    margin = probability_margin(q, k)
    dist = float(np.max(np.abs(p - q)))
    condition = dist < margin / 2
    equal = frozenset(topk(p, k)) == frozenset(topk(q, k))
    return StabilityVerdict(
        margin=margin, sup_distance=dist, condition_met=condition, sets_equal=equal
    )


def sample_within_margin(q: np.ndarray, budget: float, rng) -> np.ndarray:
    """A random distribution p with ||p - q||_inf strictly below ``budget``.

    Draws a zero-sum perturbation scaled into the sup-norm ball (so the
    simplex sum is preserved exactly) and halves it until all entries stay
    non-negative; halving never leaves the ball.
    """
    raw = rng.uniform(-1.0, 1.0, size=q.size)
    raw -= raw.mean()
    peak = np.abs(raw).max()
    if peak == 0.0:
        return q.copy()
    delta = raw / peak * (budget * rng.random())
    for _ in range(100):
        if not np.any(q + delta < 0):
            return q + delta
        delta *= 0.5
    return q.copy()  # q has a zero entry the zero-sum draw cannot clear


def stability_campaign(trials: int, n_experts: int, k: int, seed: int = 0) -> dict:
    """The margin lemma checked one trial at a time; zero-margin draws are
    skipped before a perturbation is drawn."""
    rng = np.random.default_rng(seed)
    failures = 0
    checked = 0
    for _ in range(trials):
        q = rng.dirichlet(np.ones(n_experts))
        margin = probability_margin(q, k)
        if margin <= 0:
            continue
        p = sample_within_margin(q, 0.999 * margin / 2.0, rng)
        verdict = stability_check(q, p, k)
        checked += 1
        if verdict.condition_met and not verdict.sets_equal:
            failures += 1
    return {"trials": trials, "checked": checked, "failures": failures}


def load_gate(path) -> GateParams:
    """Read a gate-params-v1 file: magic, little-endian tag, d, N_r, then
    theta and theta0 as float64."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != b"GATE":
            raise ValueError(f"not a gate-params file (magic {magic!r})")
        endian, d, n = struct.unpack("<BII", f.read(9))
        if endian != 0:
            raise ValueError("unsupported byte order tag")
        count = d * n
        theta = np.frombuffer(f.read(count * 8), dtype="<f8").reshape(d, n)
        theta0 = np.frombuffer(f.read(count * 8), dtype="<f8").reshape(d, n)
        if f.read(1):
            raise ValueError("trailing bytes after gate matrices")
    return GateParams(theta=theta.copy(), theta0=theta0.copy())
