"""Command-line entry point.

Subcommands: synth, validate, metrics, simulate, bound-check, router, train,
gradcheck, sweep. Exit codes: 0 success, 1 usage error, 2 data error,
3 assertion/property failure (e.g. bound violations outside counterexample
mode).

Reports are written atomically (temp file + rename) and are byte-identical
for identical argv and seed. Every run that writes reports also appends one
line to ``<out>.manifest.jsonl`` recording the resolved configuration, a
deterministic manifest id, output hashes, and the wall-clock duration; JSON
reports embed the same manifest id.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import check_step_bound, check_working_set_bound, run_campaign, run_counterexamples
from .cache_sim import CacheConfig, IoModel, Policy, estimate_tpot, simulate
from .gate import pinsker_campaign, save_gate, stability_campaign
from .metrics import compute_metrics, eor
from .objective import LossWeights, fd_gradients, value_and_grad
from .trace import (
    SynthConfig,
    TraceError,
    load_trace,
    parse_trace,
    save_trace,
    synth_trace,
    validate_trace,
)
from .trainer import (
    SyntheticDataConfig,
    TrainConfig,
    init_gate_matrix,
    synth_hidden_sequences,
    train,
    train_grid,
)

GRADCHECK_TOL = 1e-5
# Gradients below the floor are compared absolutely: finite differences at
# h=1e-5 carry ~1e-10 of noise, which would swamp their relative error.
GRADCHECK_FLOOR = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, data: bytes) -> None:
    """Write through a temp file in the same directory, then rename. An
    OSError names ``path``, never the temp file's random name."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, path) from None
        raise


def _csv_bytes(rows: list[dict], columns: list[str]) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _json_bytes(obj) -> bytes:
    """Strict JSON: a NaN or infinity raises ValueError instead of being written."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def _manifest_id(subcommand: str, config: dict, inputs: list[str], outputs: list[str],
                 seed) -> str:
    payload = json.dumps(
        {
            "subcommand": subcommand,
            "config": config,
            "inputs": inputs,
            "outputs": outputs,
            "seed": seed,
            "version": __version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _append_manifest(subcommand: str, config: dict, inputs: list[str], outputs: list[str],
                     seed, started: float) -> str:
    """Append-only run log next to the primary output; returns the manifest id."""
    mid = _manifest_id(subcommand, config, inputs, outputs, seed)
    if not outputs:
        return mid
    record = {
        "manifest_id": mid,
        "subcommand": subcommand,
        "config": config,
        "inputs": inputs,
        "outputs": [
            {"path": p, "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in outputs
            if os.path.exists(p)
        ],
        "seed": seed,
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
    }
    with open(outputs[0] + ".manifest.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return mid


def _config_dict(obj) -> dict:
    if dataclasses.is_dataclass(obj):
        out = {}
        for k, v in dataclasses.asdict(obj).items():
            out[k] = v.value if hasattr(v, "value") else v
        return out
    return dict(obj)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_moe_layers=args.layers,
        n_routed_experts=args.experts,
        top_k=args.top_k,
        batch_size=args.batch,
        n_segments=args.segments,
        steps_per_segment=args.steps,
        stickiness=args.stickiness,
        seed=args.seed,
        emit_probs=args.emit_probs,
        concentration=args.concentration,
    )
    started = time.monotonic()
    trace = synth_trace(cfg)
    save_trace(trace, args.out)
    _append_manifest("synth", _config_dict(cfg), [], [args.out], args.seed, started)
    print(f"wrote {trace.n_records} records to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    with open(args.trace, "rb") as f:
        try:
            trace = parse_trace(f, validate=False)  # structural errors still raise
        except TraceError as e:
            if not e.violations:
                raise
            violations, n_records = e.violations, e.n_records  # records no array holds
        else:
            violations, n_records = validate_trace(trace), trace.n_records
    for v in violations:
        print(str(v))
    print(f"{len(violations)} violation(s) in {n_records} records")
    return 0 if not violations else 2


def _cmd_metrics(args) -> int:
    trace = load_trace(args.trace)
    started = time.monotonic()
    report = compute_metrics(trace, pooled=args.pooled)
    rows = [
        {"metric": "eor", "layer": "all", "value": report.eor},
        {
            "metric": "entropy_norm",
            "layer": "all",
            "value": "unavailable" if report.entropy_norm is None else report.entropy_norm,
        },
        {"metric": "load_cv", "layer": "all", "value": report.load_cv},
        {
            "metric": "unique_experts_per_sequence",
            "layer": "all",
            "value": report.unique_experts_per_sequence,
        },
    ]
    if args.per_layer:
        for layer, value in enumerate(report.mean_ir_per_layer):
            rows.append({"metric": "eor", "layer": layer, "value": value})
    config = {"trace": args.trace, "per_layer": args.per_layer, "pooled": args.pooled}
    mid = _manifest_id("metrics", config, [args.trace], [args.out], None)
    if args.out.endswith(".json"):
        payload = {
            "manifest_id": mid,
            "eor": report.eor,
            "mean_ir_per_layer": list(report.mean_ir_per_layer),
            "entropy_norm": report.entropy_norm,
            "load_cv": report.load_cv,
            "unique_experts_per_sequence": report.unique_experts_per_sequence,
        }
        _atomic_write(args.out, _json_bytes(payload))
    else:
        _atomic_write(args.out, _csv_bytes(rows, ["metric", "layer", "value"]))
    _append_manifest("metrics", config, [args.trace], [args.out], None, started)
    print(f"wrote {args.out}")
    return 0


def _steps_stem(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}_steps{ext or '.csv'}"


def _cmd_simulate(args) -> int:
    trace = load_trace(args.trace)
    started = time.monotonic()
    cfg = CacheConfig(
        capacity=args.capacity,
        policy=Policy(args.policy),
        reset_each_segment=args.reset_each_segment,
        reroute_beta=args.beta,
    )
    io_model = None
    if args.expert_bytes is not None or args.bandwidth_gbps is not None or args.compute_ms is not None:
        if None in (args.expert_bytes, args.bandwidth_gbps, args.compute_ms):
            raise UsageError(
                "--expert-bytes, --bandwidth-gbps and --compute-ms must be given together"
            )
        io_model = IoModel(args.expert_bytes, args.bandwidth_gbps, args.compute_ms)
    report = simulate(trace, cfg)
    tpot = estimate_tpot(report, io_model, trace.header.batch_size) if io_model else None

    layer_rows = []
    for lt in list(report.per_layer) + [report.overall]:
        layer_rows.append(
            {
                "layer": "all" if lt.layer is None else lt.layer,
                "uHR": lt.uhr,
                "tHR": lt.thr,
                "uMiss": lt.unique_misses,
                "tMiss": lt.token_misses,
            }
        )
    step_rows = []
    for i, (s, t) in enumerate(trace.iter_steps()):
        row = {"segment": s, "step": t, "uMiss": report.step_unique_miss_series[i]}
        if tpot is not None:
            row["io_ms"] = tpot.io_ms[i]
            row["tpot_ms"] = tpot.tpot_ms[i]
        step_rows.append(row)

    config = {
        "trace": args.trace,
        "capacity": args.capacity,
        "policy": args.policy,
        "reset_each_segment": args.reset_each_segment,
        "beta": args.beta,
        "io": _config_dict(io_model) if io_model else None,
    }
    eors = None  # (original, rerouted)
    if report.rerouted_trace is not None:
        eors = (eor(trace).overall, eor(report.rerouted_trace).overall)
    outputs = [args.out]
    mid = _manifest_id("simulate", config, [args.trace], [args.out], None)
    if args.out.endswith(".json"):
        payload = {
            "manifest_id": mid,
            "layers": layer_rows,
            "miss_percentiles": report.miss_percentiles,
            "step_unique_miss_series": list(report.step_unique_miss_series),
        }
        if tpot is not None:
            payload["tpot_percentiles"] = tpot.percentiles
            payload["tpot_ms"] = list(tpot.tpot_ms)
        if eors is not None:
            payload["original_eor"], payload["rerouted_eor"] = eors
        _atomic_write(args.out, _json_bytes(payload))
    else:
        _atomic_write(args.out, _csv_bytes(layer_rows, ["layer", "uHR", "tHR", "uMiss", "tMiss"]))
        steps_path = _steps_stem(args.out)
        cols = ["segment", "step", "uMiss"] + (["io_ms", "tpot_ms"] if tpot else [])
        _atomic_write(steps_path, _csv_bytes(step_rows, cols))
        outputs.append(steps_path)
    _append_manifest("simulate", config, [args.trace], outputs, None, started)
    summary = f"uHR={report.overall.uhr:.4f} uMiss={report.overall.unique_misses}"
    if eors is not None:
        summary += f" eor={eors[0]:.4f} rerouted_eor={eors[1]:.4f}"
    print(f"{summary} -> {args.out}")
    return 0


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{flag} must be an integer >= {low}, got {value}")


def _emit_bound_report(out, payload, config: dict, inputs: list[str], seed,
                       started: float) -> None:
    """Print a bound-check report to stdout when ``out`` is absent or "-";
    otherwise write it atomically and append its manifest line."""
    data = _json_bytes(payload)
    if not out or out == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        _atomic_write(out, data)
        _append_manifest("bound-check", config, inputs, [out], seed, started)


def _cmd_bound_check(args) -> int:
    started = time.monotonic()
    if args.threads is not None:
        _require_at_least("--threads", args.threads, 1)
    if args.campaign is not None:
        _require_at_least("--campaign", args.campaign, 1)
    modes = [flag for flag, given in (("--trace", args.trace is not None),
                                      ("--campaign", args.campaign is not None),
                                      ("--counterexamples", args.counterexamples)) if given]
    if len(modes) > 1:
        raise UsageError(f"bound-check modes are exclusive: {' and '.join(modes)} given together")
    if args.capacity is not None and args.trace is None:
        raise UsageError("bound-check --capacity needs --trace")
    stray = [flag for flag, given, owners in (
        ("--working-set", args.working_set, ("--trace", "--campaign")),
        ("--seed", args.seed is not None, ("--campaign",)),
        ("--threads", args.threads is not None, ("--campaign",)),
    ) if given and modes and modes[0] not in owners]
    if stray:
        raise UsageError(f"bound-check {modes[0]} does not take {' or '.join(stray)}")
    if args.counterexamples:
        results = run_counterexamples()
        payload = {
            "mode": "counterexamples",
            "scenarios": [
                {
                    "name": r.name,
                    "assumption_broken": r.assumption_broken,
                    "n_violations": r.n_violations,
                    "description": r.description,
                    "first_violation": dataclasses.asdict(r.first_violation)
                    if r.first_violation
                    else None,
                }
                for r in results
            ],
        }
        ok = all(r.n_violations >= 1 for r in results)
        _emit_bound_report(args.out, payload, {"mode": "counterexamples"}, [], None, started)
        # Violations are the expected outcome here; missing ones are the failure.
        return 0 if ok else 3

    if args.campaign is not None:
        seed = 0 if args.seed is None else args.seed
        summary = run_campaign(
            n_traces=args.campaign,
            seed=seed,
            working_set=args.working_set,
            threads=1 if args.threads is None else args.threads,
        )
        config = {"campaign": args.campaign, "working_set": args.working_set}
        _emit_bound_report(args.out, summary, config, [], seed, started)
        return 0 if summary["violations"] == 0 else 3

    if not args.trace:
        raise UsageError("bound-check needs --trace, --campaign, or --counterexamples")
    if args.capacity is None:
        raise UsageError("bound-check --trace needs --capacity")
    trace = load_trace(args.trace)
    check = check_working_set_bound if args.working_set else check_step_bound
    report = check(trace, args.capacity)
    payload = {
        "mode": report.kind,
        "capacity": report.capacity,
        "n_step_violations": report.n_step_violations,
        "n_avg_violations": report.n_avg_violations,
        "violations": [
            dataclasses.asdict(r)
            for r in report.step_records
            if r.violated or (r.ws_violated or False)
        ],
    }
    config = {"trace": args.trace, "capacity": args.capacity, "working_set": args.working_set}
    _emit_bound_report(args.out, payload, config, [args.trace], None, started)
    return 0 if report.n_violations == 0 else 3


def _cmd_router(args) -> int:
    _require_at_least("--trials", args.trials, 1)
    _require_at_least("--experts", args.experts, 2)
    if args.check == "stability":
        if not 1 <= args.top_k < args.experts:
            raise UsageError(f"--top-k must be in [1, {args.experts}) for "
                             f"--experts {args.experts}, got {args.top_k}")
        summary = stability_campaign(args.trials, args.experts, args.top_k, seed=args.seed)
    else:
        summary = pinsker_campaign(args.trials, args.experts, seed=args.seed)
    print(json.dumps({"check": args.check, **summary}, sort_keys=True))
    return 0 if summary["failures"] == 0 else 3


def _load_json_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise TraceError(f"cannot read config {path}: {e}") from None
    if not isinstance(config, dict):
        raise TraceError(f"config {path} must be a JSON object")
    return config


_CONFIG_TYPES = {
    bool: "true or false",
    int: "an integer",
    float: "a finite number",
    str: "a string",
    tuple: "a list of integers",
}
_CONFIG_SECTIONS = ("weights", "train", "data", "grid")


def _config_fields(cls, section: str, values) -> dict:
    """Keyword arguments for dataclass ``cls`` from one JSON config object.

    Each value must have the type of the field's default (an int or a finite
    float for float fields, a list of integers for tuple fields); an unknown
    key or a wrongly typed value raises TraceError naming ``section.key``.
    """
    if not isinstance(values, dict):
        raise TraceError(f"config {section!r} must be a JSON object, got {values!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in values.items():
        if key not in defaults:
            raise TraceError(f"unknown config key {section}.{key}")
        default = defaults[key]
        if isinstance(default, tuple):
            ok = type(value) is list and all(type(v) is int for v in value)
            value = tuple(value) if ok else value
        elif isinstance(default, float):
            try:
                ok = type(value) in (int, float) and math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                ok = False
        else:  # bool, int, str
            ok = type(value) is type(default)
        if not ok:
            raise TraceError(
                f"config {section}.{key} must be {_CONFIG_TYPES[type(default)]}, got {value!r}"
            )
        kwargs[key] = value
    return kwargs


def _config_object(cls, section: str, values, base=None):
    """Dataclass ``cls`` built from one JSON config object, or ``base`` with
    its fields overridden. A value the dataclass refuses raises TraceError
    naming ``section.field``: each refusal message starts with the field name.
    """
    kwargs = _config_fields(cls, section, values)
    try:
        return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)
    except ValueError as e:
        raise TraceError(f"config {section}.{e}") from None


def _build_train_parts(config: dict):
    for key in config:
        if key not in _CONFIG_SECTIONS:
            raise TraceError(f"unknown config section {key!r}")
    weights = _config_object(LossWeights, "weights", config.get("weights", {}))
    tcfg = _config_object(TrainConfig, "train", config.get("train", {}))
    dcfg = _config_object(SyntheticDataConfig, "data", config.get("data", {}))
    return weights, tcfg, dcfg


_LOG_COLUMNS = [
    "step", "total", "trust_kl", "reuse_rho", "reuse", "smooth", "lag", "ws",
    "alpha_reuse", "alpha_loc", "eor", "grad_norm",
]


def _cmd_train(args) -> int:
    config = _load_json_config(args.config)
    weights, tcfg, dcfg = _build_train_parts(config)
    started = time.monotonic()
    sequences = synth_hidden_sequences(dcfg)
    theta0 = init_gate_matrix(dcfg.hidden_dim, dcfg.n_experts, tcfg.seed)
    result = train(theta0, sequences, tcfg, weights, dcfg.top_k)

    save_gate(result.params, args.out_theta)
    rows = [dataclasses.asdict(r) for r in result.log]
    _atomic_write(args.log, _csv_bytes(rows, _LOG_COLUMNS))
    _append_manifest(
        "train",
        {"weights": _config_dict(weights), "train": _config_dict(tcfg), "data": _config_dict(dcfg)},
        [args.config],
        [args.log, args.out_theta],
        tcfg.seed,
        started,
    )
    print(
        f"eor {result.eval_before.eor:.4f} -> {result.eval_after.eor:.4f}, "
        f"trust_kl {result.eval_after.trust_kl:.4f}; log: {args.log}"
    )
    return 0


def gradcheck_weight_configs() -> list[tuple[str, LossWeights]]:
    """One isolated config per loss term plus the combined default weights."""
    base = dict(warm_reuse_steps=0, warm_loc_steps=0, lag_set=(1, 2, 4), window=4)
    zero = dict(lambda_kl=0, lambda_reuse=0, lambda_smooth=0, lambda_lag=0, lambda_ws=0)
    return [
        ("trust", LossWeights(**{**base, **zero, "lambda_kl": 1.0})),
        ("reuse", LossWeights(**{**base, **zero, "lambda_reuse": 1.0})),
        ("smooth", LossWeights(**{**base, **zero, "lambda_smooth": 1.0})),
        ("lag", LossWeights(**{**base, **zero, "lambda_lag": 1.0})),
        ("ws", LossWeights(**{**base, **zero, "lambda_ws": 1.0})),
        ("combined", LossWeights(**base)),
    ]


def run_gradcheck(instances: int, seed: int) -> float:
    """Worst relative error between analytic and central-difference gradients,
    per isolated term and combined, over randomized small instances; a
    coordinate's error is taken relative to max(|numeric|, GRADCHECK_FLOOR).

    The configs differ only in their loss weights, so one finite-difference
    pass per instance serves all of them.
    """
    if instances < 1:
        raise ValueError(f"gradcheck needs instances >= 1, got {instances}")
    configs = [w for _name, w in gradcheck_weight_configs()]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(4, 17))
        k = int(rng.integers(1, min(n, 6)))
        t = int(rng.integers(4, 33))
        theta = rng.standard_normal((d, n))
        theta0 = theta + 0.1 * rng.standard_normal((d, n))
        hiddens = rng.standard_normal((t, d))
        numerics = fd_gradients(theta, theta0, hiddens, configs, 1000, k)
        for weights, numeric in zip(configs, numerics):
            _, analytic = value_and_grad(theta, theta0, hiddens, weights, 1000, k)
            rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), GRADCHECK_FLOOR))
            worst = max(worst, float(rel))
    return worst


def _cmd_gradcheck(args) -> int:
    _require_at_least("--instances", args.instances, 1)
    worst = run_gradcheck(args.instances, args.seed)
    print(f"max relative error over {args.instances} instances: {worst:.3e}")
    return 0 if worst < GRADCHECK_TOL else 3


def _cmd_sweep(args) -> int:
    config = _load_json_config(args.config)
    grid = config.get("grid", [])
    if not grid or not isinstance(grid, list):
        raise TraceError("sweep config needs a non-empty 'grid' list")
    weights, tcfg, dcfg = _build_train_parts(config)
    started = time.monotonic()
    sequences = synth_hidden_sequences(dcfg)
    theta0 = init_gate_matrix(dcfg.hidden_dim, dcfg.n_experts, tcfg.seed)

    points = [
        _config_object(LossWeights, f"grid[{i}]", overrides, base=weights)
        for i, overrides in enumerate(grid)
    ]
    results = train_grid(theta0, sequences, tcfg, points, dcfg.top_k)
    rows = []
    for i, (overrides, result) in enumerate(zip(grid, results)):
        last = result.log[-1]
        rows.append(
            {
                "point": i,
                "overrides": json.dumps(overrides, sort_keys=True),
                "eor": result.eval_after.eor,
                "trust_kl": result.eval_after.trust_kl,
                "reuse_rho": result.eval_after.reuse_rho,
                "total": last.total,
                "reuse": last.reuse,
                "smooth": last.smooth,
                "lag": last.lag,
                "ws": last.ws,
            }
        )
    columns = ["point", "overrides", "eor", "trust_kl", "reuse_rho", "total",
               "reuse", "smooth", "lag", "ws"]
    _atomic_write(args.out, _csv_bytes(rows, columns))
    _append_manifest("sweep", config, [args.config], [args.out], tcfg.seed, started)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="moe-locality", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic routing trace")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--experts", type=int, default=16)
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--stickiness", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-probs", action="store_true")
    p.add_argument("--concentration", type=float, default=4.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="check a trace against every invariant")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("metrics", help="routing-locality metrics of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--per-layer", action="store_true")
    p.add_argument("--pooled", action="store_true",
                   help="pool adjacent pairs instead of averaging per-sequence EORs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("simulate", help="run the per-layer expert-cache simulator")
    p.add_argument("--trace", required=True)
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--policy", choices=[pol.value for pol in Policy], default="lru")
    p.add_argument("--reset-each-segment", action="store_true")
    p.add_argument("--beta", type=float, default=None,
                   help="cache-residency rerouting bonus (needs probs in the trace)")
    p.add_argument("--expert-bytes", type=float, default=None)
    p.add_argument("--bandwidth-gbps", type=float, default=None)
    p.add_argument("--compute-ms", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound-check", help="verify the fetch bounds or show counterexamples")
    p.add_argument("--trace")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--working-set", action="store_true")
    p.add_argument("--campaign", type=int, default=None,
                   help="run N randomized synthetic traces instead of --trace")
    p.add_argument("--seed", type=int, default=None, help="campaign seed (default 0)")
    p.add_argument("--threads", type=int, default=None, help="campaign threads (default 1)")
    p.add_argument("--counterexamples", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("router", help="randomized stability / Pinsker checks")
    p.add_argument("--check", choices=["stability", "pinsker"], required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--experts", type=int, default=16)
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_router)

    p = sub.add_parser("train", help="fit the toy gate on synthetic hidden states")
    p.add_argument("--config", required=True)
    p.add_argument("--out-theta", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("sweep", help="grid of training runs over loss-weight overrides")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (TraceError, OSError, ValueError) as e:  # OSError messages name the path
        print(f"data error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
