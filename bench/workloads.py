"""The benchmark's workloads: the CLI calls each one makes, its inputs and its checks.

Every stage is one ``moe_locality.cli.dispatch`` call with README-style argv,
run from the pass's work directory with relative file names, so reports (and
the manifest ids some of them embed) do not depend on where the benchmark runs.

One seed drives every ``--seed`` and config seed of a workload; ``gradcheck``
keeps its pinned default seed. ``tiny=True`` shrinks every size so the whole
ladder runs in a few seconds (the self-test uses it).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("long-decode", "many-short", "gate-train")

IO_MODEL = ("--expert-bytes", "25e6", "--bandwidth-gbps", "4", "--compute-ms", "40")


@dataclass(frozen=True)
class Stage:
    """One CLI call of a pass.

    ``kind`` tags the call for the per-layer metrics (policy, check type,
    campaign thread count). ``reports`` are the files it must write;
    ``stdout_report`` marks calls whose report is what they print. Each of
    ``checks`` looks at the work directory and the stdout of the stages so
    far and returns a failure message, or None.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    reports: tuple[str, ...] = ()
    stdout_report: bool = False
    checks: tuple[Callable[[Path, dict], str | None], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    stages: tuple[Stage, ...]
    inputs: dict = field(default_factory=dict)  # file name -> bytes, written at set-up
    records: int = 0  # routing records in the workload's trace
    sequences: int = 0  # (layer, batch, segment) sequences in the trace
    layer_steps: int = 0  # (segment, step, layer) triples one simulate call visits


# ---------------------------------------------------------------------------
# Checks that hold for any seed
# ---------------------------------------------------------------------------


def _validate_clean(records: int):
    def check(work: Path, stdout: dict) -> str | None:
        last = stdout["validate"].strip().splitlines()[-1:]
        want = f"0 violation(s) in {records} records"
        return None if last == [want] else f"validate printed {last!r}, want {want!r}"
    return check


def _no_bound_violations(report: str):
    def check(work: Path, stdout: dict) -> str | None:
        data = json.loads((work / report).read_text())
        if "violations" in data and isinstance(data["violations"], int):  # campaign
            bad = data["violations"]
        else:
            bad = data["n_step_violations"] + data["n_avg_violations"] + len(data["violations"])
        return None if bad == 0 else f"{report}: {bad} bound violation(s)"
    return check


def _same_bytes_as(report: str, reference: str):
    def check(work: Path, stdout: dict) -> str | None:
        same = (work / report).read_bytes() == (work / reference).read_bytes()
        return None if same else f"{report} differs from {reference}"
    return check


def _unique_misses(path: Path) -> int:
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            if row["layer"] == "all":
                return int(row["uMiss"])
    raise ValueError(f"{path.name} has no 'all' row")


def _lru_inclusion(reports: tuple[str, ...]):
    """LRU with C >= |U_t| keeps the top C of the recency stack, so unique
    misses cannot grow with capacity (acceptance C06)."""
    def check(work: Path, stdout: dict) -> str | None:
        misses = [_unique_misses(work / r) for r in reports]
        ok = all(a >= b for a, b in zip(misses, misses[1:]))
        return None if ok else f"LRU unique misses grow with capacity: {misses}"
    return check


def _router_clean(work: Path, stdout: dict) -> str | None:
    failures = json.loads(stdout["router"])["failures"]
    return None if failures == 0 else f"router: {failures} stability failure(s)"


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _simulate(out: str, capacity: int, *extra: str) -> tuple[str, ...]:
    return ("simulate", "--trace", "trace.jsonl", "--capacity", str(capacity),
            "--reset-each-segment", *extra, "--out", out)


def _synth(seed: int, *, layers, experts, top_k, batch, segments, steps, stickiness,
           emit_probs) -> tuple[str, ...]:
    argv = ["synth", "--layers", str(layers), "--experts", str(experts),
            "--top-k", str(top_k), "--batch", str(batch), "--segments", str(segments),
            "--steps", str(steps), "--stickiness", str(stickiness)]
    if emit_probs:
        argv.append("--emit-probs")
    return (*argv, "--seed", str(seed), "--out", "trace.jsonl")


def long_decode(seed: int, tiny: bool = False) -> Workload:
    size = dict(layers=4, experts=64, top_k=6, batch=4, segments=2, steps=128)
    if tiny:
        size = dict(layers=2, experts=16, top_k=6, batch=2, segments=2, steps=8)
    records = size["layers"] * size["batch"] * size["segments"] * size["steps"]
    ladder = ("lru_c06.csv", "lru_c12.csv", "lru_c24.csv")
    stages = (
        Stage("synth", "synth", _synth(seed, **size, stickiness=0.4, emit_probs=True),
              ("trace.jsonl",)),
        Stage("validate", "validate", ("validate", "--trace", "trace.jsonl"),
              stdout_report=True, checks=(_validate_clean(records),)),
        Stage("metrics", "metrics",
              ("metrics", "--trace", "trace.jsonl", "--per-layer", "--out", "metrics.csv"),
              ("metrics.csv",)),
        Stage("simulate-lru-c06", "lru", _simulate(ladder[0], 6, "--policy", "lru", *IO_MODEL),
              (ladder[0], "lru_c06_steps.csv")),
        Stage("simulate-lru-c12", "lru", _simulate(ladder[1], 12, "--policy", "lru", *IO_MODEL),
              (ladder[1], "lru_c12_steps.csv")),
        Stage("simulate-lru-c24", "lru", _simulate(ladder[2], 24, "--policy", "lru", *IO_MODEL),
              (ladder[2], "lru_c24_steps.csv"), checks=(_lru_inclusion(ladder),)),
        Stage("simulate-belady-c12", "belady",
              _simulate("belady_c12.csv", 12, "--policy", "belady"),
              ("belady_c12.csv", "belady_c12_steps.csv")),
        Stage("simulate-reroute-c06", "reroute",
              _simulate("reroute_c06.json", 6, "--beta", "2.0"), ("reroute_c06.json",)),
        Stage("bound-check-c06", "step",
              ("bound-check", "--trace", "trace.jsonl", "--capacity", "6",
               "--out", "bound_c06.json"),
              ("bound_c06.json",), checks=(_no_bound_violations("bound_c06.json"),)),
        Stage("bound-check-ws-c12", "ws",
              ("bound-check", "--trace", "trace.jsonl", "--capacity", "12", "--working-set",
               "--out", "ws_c12.json"),
              ("ws_c12.json",), checks=(_no_bound_violations("ws_c12.json"),)),
    )
    return Workload(
        "long-decode", seed, stages, records=records,
        sequences=size["layers"] * size["batch"] * size["segments"],
        layer_steps=size["layers"] * size["segments"] * size["steps"],
    )


def many_short(seed: int, tiny: bool = False) -> Workload:
    size = dict(layers=4, experts=64, top_k=6, batch=1, segments=1000, steps=4)
    campaign = 300
    if tiny:
        size = dict(layers=2, experts=16, top_k=6, batch=1, segments=20, steps=8)
        campaign = 10
    records = size["layers"] * size["batch"] * size["segments"] * size["steps"]

    def campaign_stage(threads: int, *checks) -> Stage:
        out = f"campaign_t{threads}.json"
        return Stage(f"campaign-t{threads}", f"campaign-t{threads}",
                     ("bound-check", "--campaign", str(campaign), "--seed", str(seed),
                      "--threads", str(threads), "--out", out),
                     (out,), checks=(_no_bound_violations(out), *checks))

    stages = (
        Stage("synth", "synth", _synth(seed, **size, stickiness=0.6, emit_probs=False),
              ("trace.jsonl",)),
        Stage("validate", "validate", ("validate", "--trace", "trace.jsonl"),
              stdout_report=True, checks=(_validate_clean(records),)),
        Stage("metrics", "metrics", ("metrics", "--trace", "trace.jsonl", "--out", "metrics.csv"),
              ("metrics.csv",)),
        Stage("simulate-lru-c06", "lru", _simulate("lru_c06.csv", 6, "--policy", "lru", *IO_MODEL),
              ("lru_c06.csv", "lru_c06_steps.csv")),
        Stage("simulate-lru-c12", "lru", _simulate("lru_c12.csv", 12, "--policy", "lru"),
              ("lru_c12.csv", "lru_c12_steps.csv")),
        Stage("simulate-lfu-c12", "lfu", _simulate("lfu_c12.csv", 12, "--policy", "lfu"),
              ("lfu_c12.csv", "lfu_c12_steps.csv")),
        Stage("simulate-belady-c12", "belady",
              _simulate("belady_c12.csv", 12, "--policy", "belady"),
              ("belady_c12.csv", "belady_c12_steps.csv")),
        Stage("bound-check-c06", "step",
              ("bound-check", "--trace", "trace.jsonl", "--capacity", "6",
               "--out", "bound_c06.json"),
              ("bound_c06.json",), checks=(_no_bound_violations("bound_c06.json"),)),
        campaign_stage(1),
        campaign_stage(2, _same_bytes_as("campaign_t2.json", "campaign_t1.json")),
    )
    return Workload(
        "many-short", seed, stages, records=records,
        sequences=size["layers"] * size["batch"] * size["segments"],
        layer_steps=size["layers"] * size["segments"] * size["steps"],
    )


def gate_train(seed: int, tiny: bool = False) -> Workload:
    """README default train config; the sweep varies lambda_kl over 3 points."""
    steps, instances, trials = (20, 1, 200) if tiny else (500, 5, 10_000)
    config = {
        "weights": {"lambda_kl": 0.45, "lambda_reuse": 0.2, "lambda_smooth": 0.05,
                    "lambda_lag": 0.05, "lambda_ws": 0.01, "lag_set": [1, 2, 4, 8, 16],
                    "window": 16, "warm_reuse_steps": 50, "warm_loc_steps": 100},
        "train": {"steps": steps, "lr": 0.01, "optimizer": "adam", "seed": seed},
        "data": {"n_sequences": 4, "seq_len": 64, "hidden_dim": 8, "n_experts": 32,
                 "top_k": 4, "switch_period": 8, "noise": 0.9, "seed": seed + 1},
    }
    sweep = {**config, "grid": [{"lambda_kl": 0.0}, {"lambda_kl": 0.45}, {"lambda_kl": 0.7}]}
    stages = (
        Stage("train", "train",
              ("train", "--config", "train.json", "--out-theta", "gate.bin",
               "--log", "train_log.csv"),
              ("train_log.csv", "gate.bin")),
        Stage("sweep", "sweep", ("sweep", "--config", "sweep.json", "--out", "sweep.csv"),
              ("sweep.csv",)),
        Stage("gradcheck", "gradcheck", ("gradcheck", "--instances", str(instances)),
              stdout_report=True),
        Stage("router", "router",
              ("router", "--check", "stability", "--trials", str(trials), "--seed", str(seed)),
              stdout_report=True, checks=(_router_clean,)),
    )
    inputs = {
        "train.json": json.dumps(config, indent=2).encode(),
        "sweep.json": json.dumps(sweep, indent=2).encode(),
    }
    return Workload("gate-train", seed, stages, inputs=inputs)


_BUILDERS = {"long-decode": long_decode, "many-short": many_short, "gate-train": gate_train}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return _BUILDERS[name](seed, tiny)

