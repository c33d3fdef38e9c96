"""End-to-end benchmark of moe-locality: three workloads through the package's CLI.

    python3 bench/run.py --workload long-decode --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --seed 0 --seconds 40          # all three, one process each

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Each pass runs the workload's stages
in-process through ``moe_locality.cli.dispatch`` (see ``workloads.py``),
checks every output, and repeats until ``--seconds`` are spent.

``--trace 0`` reports the end-to-end metrics (tracing off):
  wall_s       seconds of one pass of CLI calls: the sum of each stage's median
  peak_rss_mb  peak resident memory of the workload's process after an untimed
               warm-up pass
  setup_s      median of fresh processes (one after every pass, at least nine)
               timed from start to package imported and inputs ready (trace
               generation is the synth stage, not set-up)
Both times are host seconds scaled to a reference machine speed by a fixed
kernel timed around and during every call (see ``speed.py``); the raw host
seconds are printed next to them.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.py`` plus the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (stage calls; error_rate = failed / attempted) and ``metrics``.
A stage call fails on a nonzero exit, an exception, a report digest mismatch
(golden digests for the default seed) or a broken invariant; any failure
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_spans"
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 9  # at least; one is taken after every untraced pass
KERNEL_INTERVAL_S = 0.3  # speed samples inside an untraced call, at most this far apart

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    pass


def import_cli():
    """Import ``moe_locality.cli`` from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "moe_locality" / "cli.py").is_file():
        raise SetupError(f"no package source at {src / 'moe_locality'}")
    sys.path.insert(0, str(src))
    import moe_locality.cli as cli

    if Path(cli.__file__).resolve().parent != src / "moe_locality":
        raise SetupError(f"imported {cli.__file__}, not the checkout's package")
    return cli


def prepare(name: str, seed: int, tiny: bool, work: Path) -> workloads.Workload:
    """Set-up: the workload's stage list, and its input files in ``work``."""
    workload = workloads.build(name, seed, tiny)
    work.mkdir(parents=True, exist_ok=True)
    for file_name, data in workload.inputs.items():
        (work / file_name).write_bytes(data)
    return workload


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    stage_s: list[float] = field(default_factory=list)  # host seconds per CLI call, in stage order
    stage_scaled_s: list[float] = field(default_factory=list)  # the same at reference speed
    kernel_samples: int = 0  # speed samples taken inside the calls
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    report_bytes: int = 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pass(cli, workload: workloads.Workload, work: Path, golden: dict | None,
             tracer: tracing.Tracer | None = None, after_stage=None,
             sample_inside: bool = True) -> PassResult:
    """Run every stage once from ``work`` and check its outputs.

    ``golden`` maps stage name -> {report: sha256}; None skips the digest
    check (seeds other than the default). ``after_stage(stage, work)`` runs
    between a stage and its checks; the self-test uses it to corrupt a report.
    ``sample_inside`` takes speed samples inside the calls as well as between
    them; traced calls never do, as the samples would count in their spans.
    """
    for path in work.iterdir():
        if path.name not in workload.inputs:
            path.unlink()
    result = PassResult()
    stdout: dict[str, str] = {}
    cwd = os.getcwd()
    os.chdir(work)
    clock = speed.Clock(KERNEL_INTERVAL_S if sample_inside and tracer is None else None)
    try:
        for stage in workload.stages:
            result.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            code, failure = None, None
            if tracer is not None:
                tracer.stage = stage.name
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        code = clock.call(cli.dispatch, list(stage.argv))
                    else:
                        code = clock.call(tracer.call, "cli.dispatch", cli.dispatch,
                                          list(stage.argv))
            except Exception as e:  # a traceback is a failed call, not a dead benchmark
                failure = f"raised {type(e).__name__}: {e}"
            result.stage_s.append(clock.host_s)
            result.stage_scaled_s.append(clock.scaled_s)
            stdout[stage.name] = out.getvalue()
            if after_stage is not None:
                after_stage(stage, work)
            if failure is None and code != 0:
                failure = f"exit code {code}: {err.getvalue().strip()[:300]}"
            if failure is None:
                failure = _check_stage(stage, work, stdout, golden, result)
            if failure is not None:
                result.failed += 1
                result.errors.append(f"{stage.name}: {failure}")
    finally:
        os.chdir(cwd)
    result.kernel_samples = clock.samples
    return result


def _check_stage(stage, work: Path, stdout: dict, golden: dict | None,
                 result: PassResult) -> str | None:
    digests = {}
    for report in stage.reports:
        path = work / report
        if not path.is_file():
            return f"missing report {report}"
        data = path.read_bytes()
        digests[report] = _sha256(data)
        if report != "trace.jsonl":
            result.report_bytes += len(data)
    if stage.stdout_report:
        digests["<stdout>"] = _sha256(stdout[stage.name].encode())
    result.digests[stage.name] = digests
    if golden is not None:
        want = golden.get(stage.name)
        if want != digests:
            bad = sorted(k for k in set(digests) | set(want or {})
                         if digests.get(k) != (want or {}).get(k))
            return f"report digest mismatch: {', '.join(bad)}"
    for check in stage.checks:
        try:
            failure = check(work, stdout)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            failure = f"check could not read the outputs: {type(e).__name__}: {e}"
        if failure is not None:
            return failure
    return None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(name: str, seed: int, tiny: bool,
                  samples: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to package imported and inputs ready, per fresh
    process: (host seconds, seconds at reference speed).

    The child prints the ``time.perf_counter()`` at which it is ready (the
    clock is system-wide), then times the speed kernel itself, so neither the
    kernel nor interpreter shutdown counts as set-up, and the speed is taken
    where the set-up ran.
    """
    times, scaled = [], []
    for _ in range(samples):
        kernel_before = speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else []),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up process exited with {proc.returncode}")
        ready, kernel_after = map(float, proc.stdout.split())
        times.append(ready - start)
        scaled.append(speed.scale(times[-1], (kernel_before + kernel_after) / 2))
    return times, scaled


def _summary(values: list[float]) -> str:
    return f"median of {len(values)} (min {min(values):.4f}, max {max(values):.4f})"


def pass_wall(passes: list[PassResult], scaled: bool = True) -> float:
    """Seconds of one typical pass: the sum over stages of each stage's median,
    at reference speed unless ``scaled`` is False.

    Contention from other tenants comes in bursts that hit single stages, so
    per-stage medians reject more of it than the median of whole passes.
    """
    per_pass = [p.stage_scaled_s if scaled else p.stage_s for p in passes]
    return sum(statistics.median(stage) for stage in zip(*per_pass))


def environment(args, workload: workloads.Workload, jsonl_mb: float) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu,
        "records": workload.records, "jsonl_mb": round(jsonl_mb, 3),
        "stage_calls_per_pass": len(workload.stages),
    }


def run_workload(args) -> int:
    cli = import_cli()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workload = prepare(args.workload, args.seed, args.tiny, work)
        golden = None
        if args.seed == DEFAULT_SEED and not args.update_golden:
            golden = load_golden()[_golden_key(args.tiny)].get(args.workload)
            if golden is None:
                raise SetupError(f"no golden digests for {args.workload}; "
                                 "record them with --update-golden")
        # Set-up samples are spread over the run, between passes, so that one
        # slow spell of the machine cannot set them all.
        setup_host: list[float] = []
        setup: list[float] = []

        def sample_setup(n: int) -> None:
            host, scaled = measure_setup(args.workload, args.seed, args.tiny, n)
            setup_host.extend(host)
            setup.extend(scaled)

        tracer = tracing.Tracer()
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        per_pass: list[dict[str, float]] = []
        kinds = {s.name: s.kind for s in workload.stages}
        start = time.perf_counter()
        deadline = start + args.seconds
        # An untimed warm-up pass: lazy imports and first calls settle, and the
        # peak memory of one pass is read before any speed sample lands inside
        # a call (their allocations fragment the heap: +6 MB on long-decode).
        # Later passes only add fragmentation.
        warmup = run_pass(cli, workload, work, golden, sample_inside=False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while True:
            loop_start = time.perf_counter()
            gc.collect()
            untraced.append(run_pass(cli, workload, work, golden))
            if not args.trace:
                sample_setup(1)
            if args.trace:
                gc.collect()
                tracer.pass_id = len(traced)
                tracer.install()
                try:
                    traced.append(run_pass(cli, workload, work, golden, tracer=tracer))
                finally:
                    tracer.uninstall()
                per_pass.append(tracing.pass_metrics(tracer.spans, tracer.pass_id, kinds,
                                                     workload))
                per_pass[-1]["cli.report_mb"] = traced[-1].report_bytes / 1e6
            now = time.perf_counter()
            if now + (now - loop_start) > deadline:
                break
        if not args.trace and len(setup) < SETUP_SAMPLES:
            sample_setup(SETUP_SAMPLES - len(setup))
        if args.update_golden:
            update_golden(args.tiny, args.workload, untraced[0].digests)

        passes = [warmup] + untraced + traced
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        jsonl = work / "trace.jsonl"
        jsonl_mb = jsonl.stat().st_size / 1e6 if jsonl.exists() else 0.0
        print("# env " + json.dumps(environment(args, workload, jsonl_mb), sort_keys=True))
        for p in passes:
            for e in p.errors:
                print(f"# FAILED {e}")
        walls = [sum(p.stage_s) for p in untraced]
        wall_s = pass_wall(untraced)
        print(f"wall_s       {wall_s:.4f} s   sum of per-stage medians over {len(untraced)} "
              f"timed passes at reference speed")
        print(f"# host wall  {pass_wall(untraced, scaled=False):.4f} s   same, unscaled "
              f"(whole passes: {_summary(walls)})")
        print(f"# speed kernel: reference {speed.REFERENCE_S} s; "
              f"{sum(p.kernel_samples for p in untraced)} samples inside untraced calls, "
              f"{KERNEL_INTERVAL_S} s apart, plus one before and after each call")
        if args.trace:
            traced_wall_s = pass_wall(traced)
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / f"{args.workload}.jsonl"
            tracing.write_spans(tracer.spans, spans_path)
            print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
            metrics = tracing.median_metrics(per_pass)
            metrics["tracing.overhead_s"] = traced_wall_s - wall_s
            print(f"traced wall  {traced_wall_s:.4f} s   sum of per-stage medians over "
                  f"{len(traced)} traced passes at reference speed")
            for name, unit in tracing.PER_LAYER_UNITS.items():
                print(f"{name:32s} {metrics[name]:.6g} {unit}")
            units = tracing.PER_LAYER_UNITS
        else:
            metrics = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                       "setup_s": statistics.median(setup)}
            print(f"peak_rss_mb  {peak_rss_mb:.2f} MB  process peak after set-up and the warm-up pass")
            print(f"setup_s      {metrics['setup_s']:.4f} s   {_summary(setup)} fresh processes "
                  f"at reference speed (host: {_summary(setup_host)})")
            units = END_TO_END_UNITS
        print(f"error_rate   {failed / attempted:.4f}     {failed} failed of {attempted} "
              f"stage calls ({len(passes)} passes x {len(workload.stages)})")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report and a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            combined["failed"] += 1
            combined["attempted"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------


def _golden_key(tiny: bool) -> str:
    return "tiny" if tiny else "full"


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def update_golden(tiny: bool, name: str, digests: dict) -> None:
    golden = load_golden()
    golden[_golden_key(tiny)][name] = digests
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("all",) + workloads.WORKLOADS, default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure for this long; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size (self-test)")
    parser.add_argument("--update-golden", action="store_true",
                        help=f"record this pass's report digests as the seed-{DEFAULT_SEED} goldens")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.update_golden and (args.seed != DEFAULT_SEED or args.workload == "all"):
        print(f"--update-golden needs one --workload and --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            import_cli()
            work = WORK_ROOT / f"setup-{os.getpid()}"
            prepare(args.workload, args.seed, args.tiny, work)
            ready = time.perf_counter()
            shutil.rmtree(work)
            print(ready, speed.sample())
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
