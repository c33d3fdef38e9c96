"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import contextlib
import io
import json
import time

import numpy as np

from moe_locality.bounds import check_step_bound, check_working_set_bound, run_campaign, run_counterexamples
from moe_locality.cache_sim import CacheConfig, IoModel, Policy, estimate_tpot, simulate
from moe_locality.cli import dispatch, run_gradcheck
from moe_locality.gate import pinsker_campaign, stability_campaign
from moe_locality.objective import LossWeights
from moe_locality.trace import SynthConfig, TraceHeader, synth_trace
from moe_locality.trainer import (
    SyntheticDataConfig,
    TrainConfig,
    init_gate_matrix,
    synth_hidden_sequences,
    train,
)

from reference_objective import mc_reuse_expectation
from reference_sim import naive_simulate
from test_trace import make_trace


def report(number, description, ok):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_c01_gradient_oracle():
    started = time.monotonic()
    worst = run_gradcheck(instances=20, seed=2)
    elapsed = time.monotonic() - started
    report(
        1,
        f"analytic vs central-difference gradients, per term and combined: "
        f"max rel err {worst:.2e} < 1e-5 in {elapsed:.1f}s (< 60s)",
        worst < 1e-5 and elapsed < 60.0,
    )


def test_c02_step_bound_campaign():
    started = time.monotonic()
    summary = run_campaign(n_traces=1000, seed=0)  # C in {K, K+2, 2K}, LRU, resets
    # Tightness: alternating disjoint sets at C=K achieve the bound exactly.
    sets = [(0, 1), (2, 3)] * 5
    header = TraceHeader(1, 4, 2, 1)
    tight = make_trace(header, [(0, t, 0, 0, s) for t, s in enumerate(sets)])
    tight_report = check_step_bound(tight, capacity=2)
    tight_ok = all(r.n_fetch == r.overlap_bound == 2 for r in tight_report.step_records)
    elapsed = time.monotonic() - started
    report(
        2,
        f"fetch bound over {summary['n_traces']} random traces "
        f"({summary['checks']} checks): {summary['violations']} violations; "
        f"disjoint-set case tight; {elapsed:.1f}s (< 120s)",
        summary["violations"] == 0 and tight_ok and elapsed < 120.0,
    )


def test_c03_counterexamples():
    results = run_counterexamples()
    ok = len(results) == 3 and all(r.n_violations >= 1 for r in results)
    names = {r.name: r.n_violations for r in results}
    report(3, f"constructive bound violations per failure mode: {names}", ok)


def test_c04_working_set_bound():
    summary = run_campaign(n_traces=1000, seed=1, working_set=True)  # C = 2K
    # Periodic A,B,A,B trace at C=2K: working-set bound strictly tighter.
    a, b = (0, 1), (2, 3)
    header = TraceHeader(1, 8, 2, 1)
    periodic = make_trace(header, [(0, t, 0, 0, s) for t, s in enumerate([a, b] * 4)])
    ws = check_working_set_bound(periodic, capacity=4)
    late = [r for r in ws.step_records if r.step >= 2]
    tighter = all(r.ws_bound == 0 < r.overlap_bound for r in late) and ws.n_violations == 0
    report(
        4,
        f"working-set bound campaign at C=2K: {summary['violations']} violations; "
        f"periodic trace strictly tighter than the one-step bound",
        summary["violations"] == 0 and tighter,
    )


def test_c05_cache_sim_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(100):
        cfg = SynthConfig(
            n_moe_layers=int(rng.integers(1, 3)),
            n_routed_experts=int(rng.integers(4, 9)),  # N_r <= 8
            top_k=int(rng.integers(1, 4)),
            batch_size=int(rng.integers(1, 3)),
            n_segments=int(rng.integers(1, 3)),
            steps_per_segment=int(rng.integers(2, 11)),  # T <= 20 total
            stickiness=float(rng.random()),
            seed=int(rng.integers(0, 100_000)),
        )
        trace = synth_trace(cfg)
        capacity = int(rng.integers(1, 9))
        policy = ["lru", "lfu", "fifo", "belady"][trial % 4]
        reset = bool(rng.integers(0, 2))
        got = simulate(
            trace, CacheConfig(capacity, Policy(policy), reset), record_events=True
        )
        stats, events, final_resident = naive_simulate(trace, capacity, policy, reset)
        assert [
            (s.layer, s.segment, s.step, s.unique_hits, s.unique_total,
             s.token_hits, s.token_total)
            for s in got.step_stats
        ] == [
            (s["layer"], s["segment"], s["step"], s["unique_hits"], s["unique_total"],
             s["token_hits"], s["token_total"])
            for s in stats
        ]
        assert [e.evicted for e in got.events] == [e["evicted"] for e in events]
        assert list(got.final_resident) == final_resident
        checked += 1
    report(
        5,
        f"simulator vs naive set-based reference (hits, misses, evictions, final "
        f"residents) on {checked} tiny traces, all four policies",
        checked == 100,
    )


def test_c06_lru_capacity_monotonicity():
    ok = True
    for seed in range(10):
        trace = synth_trace(
            SynthConfig(
                n_routed_experts=32, top_k=4, n_segments=2, steps_per_segment=40,
                stickiness=0.4, seed=seed,
            )
        )
        uhrs = [
            simulate(trace, CacheConfig(c, Policy.LRU, True)).overall.uhr
            for c in (4, 6, 8, 12)
        ]
        ok = ok and all(x <= y for x, y in zip(uhrs, uhrs[1:]))
    report(6, "uHR non-decreasing across C in {4, 6, 8, 12} on every test trace", ok)


def test_c07_reuse_expectation_monte_carlo():
    rng = np.random.default_rng(7)
    passes = 0
    total = 100
    for i in range(total):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, min(n, 5)))
        p = rng.dirichlet(np.ones(n))
        prev = rng.choice(n, size=k, replace=False)
        r = mc_reuse_expectation(p, prev, k, n_samples=100_000, seed=9000 + i)
        if r.stderr == 0.0:
            passes += r.estimate == r.expected
        else:
            passes += abs(r.estimate - r.expected) < 4 * r.stderr
    report(
        7,
        f"sampled reuse count vs K^2*m within 4 stderr at 1e5 samples: "
        f"{passes}/{total} instances (>= 99 required)",
        passes >= 99,
    )


def test_c08_stability_and_pinsker():
    stab = stability_campaign(trials=100_000, n_experts=16, k=4, seed=0)
    pin = pinsker_campaign(trials=10_000, n_experts=16, seed=0)
    report(
        8,
        f"Top-K unchanged under margin condition in {stab['checked']} draws "
        f"({stab['failures']} failures); Pinsker holds on {pin['checked']} pairs "
        f"({pin['failures']} failures)",
        stab["failures"] == 0 and pin["failures"] == 0,
    )


def test_c09_toy_training_effect():
    started = time.monotonic()
    data_cfg = SyntheticDataConfig()  # fixed-seed piecewise-stationary benchmark
    sequences = synth_hidden_sequences(data_cfg)
    theta0 = init_gate_matrix(data_cfg.hidden_dim, data_cfg.n_experts, seed=0)
    tcfg = TrainConfig(steps=500, lr=1e-2, seed=0)
    variants = {
        "full": LossWeights(warm_reuse_steps=50, warm_loc_steps=100),
        "no_reuse": LossWeights(lambda_reuse=0.0, warm_reuse_steps=50, warm_loc_steps=100),
        "no_trust": LossWeights(lambda_kl=0.0, warm_reuse_steps=50, warm_loc_steps=100),
    }
    runs = {
        name: train(theta0.copy(), sequences, tcfg, w, data_cfg.top_k)
        for name, w in variants.items()
    }
    elapsed = time.monotonic() - started
    full = runs["full"]
    rel_gain = full.eval_after.eor / full.eval_before.eor - 1.0
    gain_full = full.eval_after.eor - full.eval_before.eor
    gain_no_reuse = runs["no_reuse"].eval_after.eor - runs["no_reuse"].eval_before.eor
    ok = (
        rel_gain >= 0.10
        and gain_no_reuse < gain_full
        and runs["no_trust"].eval_after.trust_kl > full.eval_after.trust_kl
        and elapsed < 300.0
    )
    report(
        9,
        f"full objective EOR {full.eval_before.eor:.3f} -> {full.eval_after.eor:.3f} "
        f"({rel_gain:+.1%} >= +10%); reuse ablation gains less "
        f"({gain_no_reuse:+.3f} < {gain_full:+.3f}); trust ablation drifts more "
        f"({runs['no_trust'].eval_after.trust_kl:.3f} > {full.eval_after.trust_kl:.3f}); "
        f"{elapsed:.0f}s (< 300s)",
        ok,
    )


def test_c10_rerouting_direction():
    trace = synth_trace(
        SynthConfig(
            seed=1, emit_probs=True, n_segments=4, steps_per_segment=40,
            stickiness=0.3, concentration=0.5,
        )
    )
    base = simulate(trace, CacheConfig(4, Policy.LRU, True))
    by_beta = {
        beta: simulate(trace, CacheConfig(4, Policy.LRU, True, reroute_beta=beta))
        for beta in (0.0, 1.0, 4.0)
    }
    bit_match = (
        by_beta[0.0].step_stats == base.step_stats
        and by_beta[0.0].step_unique_miss_series == base.step_unique_miss_series
        and by_beta[0.0].final_resident == base.final_resident
    )
    uhr = {beta: r.overall.uhr for beta, r in by_beta.items()}
    report(
        10,
        f"cache-residency rerouting at C=4/LRU: uHR {uhr[0.0]:.4f} < {uhr[1.0]:.4f} "
        f"< {uhr[4.0]:.4f} and beta=0 bit-matches the plain path",
        uhr[0.0] < uhr[1.0] < uhr[4.0] and bit_match,
    )


def test_c11_tpot_proxy_exactness():
    # 10 misses, 1e6 bytes/expert, 4 GB/s -> 2.5 ms of I/O; B=1 adds it all.
    header = TraceHeader(1, 16, 10, 1)
    trace = make_trace(header, [(0, 0, 0, 0, tuple(range(10)))])
    rep = simulate(trace, CacheConfig(10, Policy.LRU, True))
    tpot = estimate_tpot(rep, IoModel(1e6, 4.0, 1.0), batch=1)
    exact = abs(tpot.io_ms[0] - 2.5) < 1e-12 and abs(tpot.tpot_ms[0] - 3.5) < 1e-12

    quiet = make_trace(header, [(0, t, 0, 0, tuple(range(10))) for t in range(4)])
    rep2 = simulate(quiet, CacheConfig(16, Policy.LRU, True))
    tpot2 = estimate_tpot(rep2, IoModel(1e6, 4.0, 7.25), batch=1)
    zero_miss_exact = all(x == 7.25 for x in tpot2.tpot_ms[1:])
    report(
        11,
        "per-step TPOT proxy reproduces hand-computed values to 1e-12; "
        "zero-miss steps return compute_ms exactly",
        exact and zero_miss_exact,
    )


def _run_capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


def test_c12_subcommand_determinism(tmp_path):
    trace = tmp_path / "t.jsonl"
    ptrace = tmp_path / "p.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "weights": {"warm_reuse_steps": 10, "warm_loc_steps": 20},
                "train": {"steps": 20, "lr": 0.01, "seed": 0},
                "data": {"n_sequences": 2, "seq_len": 32, "hidden_dim": 4,
                         "n_experts": 8, "top_k": 2, "seed": 1},
            }
        )
    )
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps(
            {
                "train": {"steps": 15, "lr": 0.01, "seed": 0},
                "data": {"n_sequences": 2, "seq_len": 32, "hidden_dim": 4,
                         "n_experts": 8, "top_k": 2, "seed": 1},
                "grid": [{"lambda_kl": 0.0}, {"lambda_kl": 0.45}],
            }
        )
    )
    dispatch(["synth", "--seed", "5", "--emit-probs", "--concentration", "0.5",
              "--segments", "2", "--steps", "15", "--out", str(ptrace)])
    dispatch(["synth", "--seed", "5", "--segments", "2", "--steps", "15",
              "--out", str(trace)])

    cases = {
        "synth": (["synth", "--seed", "7", "--out"], "synth.jsonl", True),
        "metrics": (["metrics", "--trace", str(ptrace), "--per-layer", "--out"],
                    "metrics.csv", True),
        "simulate": (["simulate", "--trace", str(ptrace), "--capacity", "4",
                      "--reset-each-segment", "--beta", "1.0", "--out"], "sim.json", True),
        "bound-check": (["bound-check", "--trace", str(trace), "--capacity", "4",
                         "--out"], "bound.json", True),
        "train": (None, None, None),  # handled below (two outputs)
        "sweep": (["sweep", "--config", str(sweep_cfg), "--out"], "sweep.csv", True),
        "validate": (["validate", "--trace", str(trace)], None, False),
        "router": (["router", "--check", "pinsker", "--trials", "300"], None, False),
        "gradcheck": (["gradcheck", "--instances", "2"], None, False),
    }
    ok = True
    details = []
    for name, (argv, out_name, writes_file) in cases.items():
        if name == "train":
            theta, log = tmp_path / "theta.bin", tmp_path / "log.csv"
            full_argv = ["train", "--config", str(cfg), "--out-theta", str(theta),
                         "--log", str(log)]
            blobs = []
            for _ in range(2):
                code, _ = _run_capture(list(full_argv))
                blobs.append((code, theta.read_bytes(), log.read_bytes()))
            same = blobs[0] == blobs[1]
        elif writes_file:
            out = tmp_path / out_name
            blobs = []
            for _ in range(2):
                code, _ = _run_capture(argv + [str(out)])
                blobs.append((code, out.read_bytes()))
            same = blobs[0] == blobs[1]
        else:
            a = _run_capture(list(argv))
            b = _run_capture(list(argv))
            same = a == b
        ok = ok and same
        details.append(f"{name}:{'=' if same else '!'}")
    report(12, "byte-identical reruns per subcommand [" + " ".join(details) + "]", ok)
