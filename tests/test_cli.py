import csv
import json
import os
import resource
import subprocess
import sys

import pytest

import moe_locality
from moe_locality.cli import _json_bytes, dispatch, run_gradcheck
from moe_locality.trace import load_trace, validate_trace
from moe_locality.trainer import SyntheticDataConfig, evaluate_gate, synth_hidden_sequences
from reference_gate import load_gate


def run(*argv):
    return dispatch(list(argv))


def csv_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def run_module(*argv, **kwargs):
    """``python -m moe_locality.cli`` in a subprocess that imports the package
    under test, installed or not."""
    root = os.path.dirname(os.path.dirname(moe_locality.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "moe_locality.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def cap_memory():
    """A 1 GiB address-space cap for a subprocess (its ``preexec_fn``)."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    assert run(
        "synth", "--experts", "16", "--top-k", "4", "--segments", "2", "--steps", "20",
        "--stickiness", "0.5", "--seed", "3", "--out", str(path),
    ) == 0
    return path


@pytest.fixture()
def probs_trace_path(tmp_path):
    path = tmp_path / "ptrace.jsonl"
    assert run(
        "synth", "--experts", "16", "--top-k", "4", "--segments", "2", "--steps", "20",
        "--stickiness", "0.3", "--seed", "3", "--emit-probs", "--concentration", "0.5",
        "--out", str(path),
    ) == 0
    return path


NAN_TRACE = (
    b'{"type":"header","n_moe_layers":1,"n_routed_experts":4,"top_k":2,"batch_size":1,'
    b'"has_probs":true}\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1],"probs":[0.5,0.5,NaN,0]}\n'
)


class TestSynthValidate:
    def test_synth_output_validates(self, trace_path):
        trace = load_trace(trace_path)
        assert validate_trace(trace) == []
        assert run("validate", "--trace", str(trace_path)) == 0

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["synth", "--seed", "9", "--emit-probs"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validate_lists_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"type":"header","n_moe_layers":1,"n_routed_experts":4,'
                         b'"top_k":2,"batch_size":1,"has_probs":false}\n'
                         b'{"s":0,"t":0,"l":0,"b":0,"topk":[0,9]}\n'
                         b'{"s":0,"t":2,"l":0,"b":0,"topk":[0,1]}\n')
        assert run("validate", "--trace", str(path)) == 2
        out = capsys.readouterr().out
        assert "[range]" in out and "[contiguity]" in out

    def test_validate_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"type":"header","n_moe_layers":1,"n_routed_experts":4,'
                         b'"top_k":2,"batch_size":1,"has_probs":false}\n{oops\n')
        assert run("validate", "--trace", str(path)) == 2

    def test_missing_file_is_data_error(self):
        assert run("validate", "--trace", "/nonexistent/trace.jsonl") == 2

    def test_nan_probability_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "nan.jsonl"
        path.write_bytes(NAN_TRACE)
        assert run("validate", "--trace", str(path)) == 2
        assert "[probs_nonfinite] (s=0,t=0,l=0,b=0)" in capsys.readouterr().out
        assert run("metrics", "--trace", str(path), "--out", str(tmp_path / "m.csv")) == 2
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("field", ["s", "t"])
    def test_huge_segment_or_step_id_is_data_error(self, tmp_path, field):
        # A subprocess with a timeout and an address-space cap, so that a
        # regression (a structure sized by the id) fails this test instead of
        # exhausting the memory or the time of the whole run.
        record = {"s": 0, "t": 0, "l": 0, "b": 0, "topk": [0, 1], field: 10**30}
        path = tmp_path / "huge_id.jsonl"
        path.write_bytes(b'{"type":"header","n_moe_layers":1,"n_routed_experts":4,'
                         b'"top_k":2,"batch_size":1,"has_probs":false}\n'
                         + json.dumps(record).encode() + b"\n")
        proc = run_module("validate", "--trace", str(path), timeout=60, preexec_fn=cap_memory)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"data error: line 2: segment id or step index {10**30}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field", ["n_moe_layers", "batch_size"])
    @pytest.mark.parametrize("argv", [("validate",), ("metrics", "--out", "m.csv")],
                             ids=lambda argv: argv[0])
    def test_huge_header_dimension_is_data_error(self, tmp_path, field, argv):
        # The header asks for 10**12 records per step and one is given. Capped
        # as above, so that a structure sized by the header fails this test.
        header = {"type": "header", "n_moe_layers": 1, "n_routed_experts": 4, "top_k": 2,
                  "batch_size": 1, "has_probs": False, field: 10**12}
        path = tmp_path / "huge_header.jsonl"
        path.write_bytes(json.dumps(header).encode()
                         + b'\n{"s":0,"t":0,"l":0,"b":0,"topk":[0,1]}\n')
        proc = run_module(*argv, "--trace", str(path), cwd=tmp_path, timeout=60,
                          preexec_fn=cap_memory)
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: line 1: ")
        assert f"{field}={10**12}" in proc.stderr and "batch_size" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_concentration_is_data_error(self, tmp_path, capsys, value):
        out = tmp_path / "c.jsonl"
        assert run("synth", "--emit-probs", "--concentration", value, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: concentration must be a finite number")
        assert not out.exists()

    def test_huge_integer_probability_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.jsonl"
        path.write_bytes(NAN_TRACE.replace(b"NaN", b"1" + b"0" * 400))
        assert run("validate", "--trace", str(path)) == 2
        assert "line 2: field 'probs' holds a number too large" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("validate",), ("metrics", "--out", "m.csv"), ("simulate", "--capacity", "4",
        "--out", "s.csv"), ("bound-check", "--capacity", "4", "--out", "b.json"),
    ], ids=lambda argv: argv[0])
    def test_deeply_nested_line_is_data_error(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.jsonl"
        path.write_bytes(NAN_TRACE.split(b"\n")[0] + b"\n" + b"[" * 100_000 + b"\n")
        argv = [a if a[:1] == "-" or "." not in a else str(tmp_path / a) for a in argv]
        assert run(argv[0], "--trace", str(path), *argv[1:]) == 2
        err = capsys.readouterr().err
        assert err == "data error: line 2: malformed JSON (nested too deeply)\n"

    def test_validate_lists_violations_of_a_row_no_array_holds(self, tmp_path, capsys):
        path = tmp_path / "ragged.jsonl"
        path.write_bytes(b'{"type":"header","n_moe_layers":1,"n_routed_experts":4,'
                         b'"top_k":2,"batch_size":1,"has_probs":false}\n'
                         b'{"s":0,"t":0,"l":0,"b":0,"topk":[0,1,2]}\n'
                         b'{"s":0,"t":1,"l":0,"b":0,"topk":[0,1]}\n')
        assert run("validate", "--trace", str(path)) == 2
        assert capsys.readouterr().out == (
            "[arity] (s=0,t=0,l=0,b=0): topk has 3 entries, expected K=2\n"
            "1 violation(s) in 2 records\n")


class TestMetricsCli:
    def test_csv_report(self, trace_path, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run("metrics", "--trace", str(trace_path), "--per-layer",
                   "--out", str(out)) == 0
        rows = csv_rows(out)
        metrics = {r["metric"] for r in rows}
        assert {"eor", "entropy_norm", "load_cv", "unique_experts_per_sequence"} <= metrics
        eor_all = [r for r in rows if r["metric"] == "eor" and r["layer"] == "all"]
        assert 0.0 <= float(eor_all[0]["value"]) <= 1.0
        # index-only trace: entropy is reported unavailable, never fabricated
        ent = [r for r in rows if r["metric"] == "entropy_norm"][0]
        assert ent["value"] == "unavailable"

    def test_json_report_has_manifest_id(self, probs_trace_path, tmp_path):
        out = tmp_path / "metrics.json"
        assert run("metrics", "--trace", str(probs_trace_path), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert "manifest_id" in payload
        assert payload["entropy_norm"] is not None

    def test_byte_identical_reruns(self, trace_path, tmp_path):
        out = tmp_path / "m.csv"
        run("metrics", "--trace", str(trace_path), "--out", str(out))
        first = out.read_bytes()
        run("metrics", "--trace", str(trace_path), "--out", str(out))
        assert out.read_bytes() == first

    def test_manifest_appended(self, trace_path, tmp_path):
        out = tmp_path / "m.csv"
        run("metrics", "--trace", str(trace_path), "--out", str(out))
        run("metrics", "--trace", str(trace_path), "--out", str(out))
        lines = (tmp_path / "m.csv.manifest.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["subcommand"] == "metrics"
        assert record["outputs"][0]["sha256"]


class TestSimulateCli:
    def test_layer_and_steps_files(self, trace_path, tmp_path):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--trace", str(trace_path), "--capacity", "4",
                   "--policy", "lru", "--reset-each-segment", "--out", str(out)) == 0
        rows = csv_rows(out)
        assert rows[-1]["layer"] == "all"
        steps = csv_rows(tmp_path / "sim_steps.csv")
        assert len(steps) == 40  # 2 segments x 20 steps
        assert "uMiss" in steps[0]

    def test_tpot_columns_with_io_model(self, trace_path, tmp_path):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--trace", str(trace_path), "--capacity", "4",
                   "--expert-bytes", "1e6", "--bandwidth-gbps", "4", "--compute-ms", "5",
                   "--out", str(out)) == 0
        steps = csv_rows(tmp_path / "sim_steps.csv")
        assert "tpot_ms" in steps[0] and "io_ms" in steps[0]

    def test_partial_io_model_is_usage_error(self, trace_path, tmp_path):
        assert run("simulate", "--trace", str(trace_path), "--capacity", "4",
                   "--expert-bytes", "1e6", "--out", str(tmp_path / "x.csv")) == 1

    def test_missing_capacity_is_usage_error(self, trace_path, tmp_path):
        assert run("simulate", "--trace", str(trace_path),
                   "--out", str(tmp_path / "x.csv")) == 1

    def test_reroute_json_reports_eor_shift(self, probs_trace_path, tmp_path):
        out = tmp_path / "sim.json"
        assert run("simulate", "--trace", str(probs_trace_path), "--capacity", "4",
                   "--reset-each-segment", "--beta", "4.0", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["rerouted_eor"] > payload["original_eor"]

    def test_beta_without_probs_is_data_error(self, trace_path, tmp_path):
        assert run("simulate", "--trace", str(trace_path), "--capacity", "4",
                   "--beta", "1.0", "--out", str(tmp_path / "x.csv")) == 2

    def test_reroute_summary_line_and_json_eors_agree(self, probs_trace_path, tmp_path,
                                                      capsys):
        out = tmp_path / "sim.json"
        assert run("simulate", "--trace", str(probs_trace_path), "--capacity", "4",
                   "--beta", "2.0", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        summary = capsys.readouterr().out
        assert f" eor={payload['original_eor']:.4f}" in summary
        assert f" rerouted_eor={payload['rerouted_eor']:.4f}" in summary

    def test_nan_compute_ms_is_data_error(self, trace_path, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run("simulate", "--trace", str(trace_path), "--capacity", "4",
                   "--expert-bytes", "1e6", "--bandwidth-gbps", "4", "--compute-ms", "nan",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "compute_ms" in err
        assert not out.exists()

    def test_inf_expert_bytes_is_data_error(self, trace_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("simulate", "--trace", str(trace_path), "--capacity", "4",
                   "--expert-bytes", "inf", "--bandwidth-gbps", "4", "--compute-ms", "5",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "expert_bytes" in err
        assert not out.exists() and not (tmp_path / "s_steps.csv").exists()

    def test_overflowing_io_model_is_data_error(self, trace_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("simulate", "--trace", str(trace_path), "--capacity", "4",
                   "--expert-bytes", "1e308", "--bandwidth-gbps", "1e-300",
                   "--compute-ms", "5", "--out", str(out)) == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "s_steps.csv").exists()

    def test_nan_beta_is_data_error(self, probs_trace_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("simulate", "--trace", str(probs_trace_path), "--capacity", "4",
                   "--beta", "nan", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "reroute_beta" in err
        assert not out.exists()


def test_json_reports_are_strict():
    assert _json_bytes({"x": 1.5}) == b'{\n  "x": 1.5\n}\n'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _json_bytes({"x": bad})


class TestBoundCheckCli:
    def test_trace_mode_clean(self, trace_path, tmp_path):
        out = tmp_path / "bound.json"
        assert run("bound-check", "--trace", str(trace_path), "--capacity", "4",
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["n_step_violations"] == 0

    def test_working_set_mode(self, trace_path, tmp_path):
        out = tmp_path / "ws.json"
        assert run("bound-check", "--trace", str(trace_path), "--capacity", "8",
                   "--working-set", "--out", str(out)) == 0

    def test_counterexamples_exit_zero_with_violations(self, tmp_path):
        out = tmp_path / "cex.json"
        assert run("bound-check", "--counterexamples", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert len(payload["scenarios"]) == 3
        assert all(s["n_violations"] >= 1 for s in payload["scenarios"])

    def test_campaign_mode(self, tmp_path):
        out = tmp_path / "campaign.json"
        assert run("bound-check", "--campaign", "10", "--seed", "1",
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["violations"] == 0

    def test_requires_some_mode(self):
        assert run("bound-check") == 1

    def test_trace_mode_without_capacity_is_usage_error(self, trace_path, capsys):
        assert run("bound-check", "--trace", str(trace_path)) == 1
        assert "--capacity" in capsys.readouterr().err

    def test_negative_campaign_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run("bound-check", "--campaign", "-3", "--out", str(out)) == 1
        assert "--campaign" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_campaign_is_not_read_as_absent(self, trace_path, tmp_path, capsys):
        # With --trace also given, 0 used to fall through to the trace check.
        out = tmp_path / "c.json"
        assert run("bound-check", "--campaign", "0", "--trace", str(trace_path),
                   "--capacity", "4", "--out", str(out)) == 1
        assert "--campaign" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags, named", [
        pytest.param(("--trace", "{trace}", "--capacity", "4", "--campaign", "2"),
                     ("--trace", "--campaign"), id="trace-campaign"),
        pytest.param(("--trace", "{trace}", "--capacity", "4", "--counterexamples"),
                     ("--trace", "--counterexamples"), id="trace-counterexamples"),
        pytest.param(("--campaign", "2", "--counterexamples"),
                     ("--campaign", "--counterexamples"), id="campaign-counterexamples"),
        pytest.param(("--trace", "{trace}", "--capacity", "4", "--campaign", "2",
                      "--counterexamples"),
                     ("--trace", "--campaign", "--counterexamples"), id="all-three"),
        pytest.param(("--campaign", "2", "--capacity", "3"), ("--capacity", "--trace"),
                     id="campaign-capacity"),
        pytest.param(("--counterexamples", "--capacity", "3"), ("--capacity", "--trace"),
                     id="counterexamples-capacity"),
        pytest.param(("--capacity", "3",), ("--capacity", "--trace"), id="capacity-alone"),
        pytest.param(("--counterexamples", "--working-set"),
                     ("--counterexamples", "--working-set"), id="counterexamples-working-set"),
        pytest.param(("--counterexamples", "--seed", "3"), ("--counterexamples", "--seed"),
                     id="counterexamples-seed"),
        pytest.param(("--counterexamples", "--threads", "2"), ("--counterexamples", "--threads"),
                     id="counterexamples-threads"),
        pytest.param(("--trace", "{trace}", "--capacity", "4", "--seed", "0"),
                     ("--trace", "--seed"), id="trace-seed"),
        pytest.param(("--trace", "{trace}", "--capacity", "4", "--threads", "1"),
                     ("--trace", "--threads"), id="trace-threads"),
    ])
    def test_modes_are_exclusive(self, flags, named, trace_path, tmp_path, capsys):
        out = tmp_path / "b.json"
        argv = [f.format(trace=trace_path) for f in flags]
        assert run("bound-check", *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert all(flag in err for flag in named), err
        assert not out.exists()
        assert not (tmp_path / "b.json.manifest.jsonl").exists()


    def test_campaign_defaults_are_seed_zero_one_thread(self, tmp_path):
        plain, given = tmp_path / "plain.json", tmp_path / "given.json"
        assert run("bound-check", "--campaign", "5", "--out", str(plain)) == 0
        assert run("bound-check", "--campaign", "5", "--seed", "0", "--threads", "1",
                   "--out", str(given)) == 0
        assert plain.read_bytes() == given.read_bytes()
        manifests = [json.loads((tmp_path / f"{name}.json.manifest.jsonl").read_text())
                     for name in ("plain", "given")]
        assert manifests[0]["seed"] == manifests[1]["seed"] == 0


class TestRouterCli:
    def test_stability(self):
        assert run("router", "--check", "stability", "--trials", "500") == 0

    def test_pinsker(self):
        assert run("router", "--check", "pinsker", "--trials", "500") == 0

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(("--check", "stability", "--top-k", "0"), "--top-k", id="top-k-0"),
        pytest.param(("--check", "stability", "--top-k", "-1"), "--top-k", id="top-k-neg"),
        pytest.param(("--check", "stability", "--experts", "4", "--top-k", "4"), "--top-k",
                     id="top-k-eq-experts"),
        pytest.param(("--check", "stability", "--trials", "-5"), "--trials", id="trials-neg"),
        pytest.param(("--check", "pinsker", "--experts", "0"), "--experts", id="experts-0"),
    ])
    def test_out_of_range_flag_is_usage_error(self, capsys, argv, flag):
        assert run("router", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and flag in captured.err


class TestGradcheckCli:
    def test_passes_at_default_seed(self):
        assert run("gradcheck", "--instances", "3") == 0

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_is_usage_error(self, capsys, instances):
        assert run("gradcheck", "--instances", instances) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and "--instances" in captured.err

    @pytest.mark.parametrize("seed", ["0", str(10**30)])
    def test_passes_at_any_seed(self, seed, capsys):
        # Near-zero true gradients are compared absolutely, so no seed's
        # finite-difference noise reads as an analytic error.
        assert run("gradcheck", "--instances", "20", "--seed", seed) == 0, capsys.readouterr()

    def test_library_refuses_no_instances(self):
        with pytest.raises(ValueError, match="instances"):
            run_gradcheck(0, seed=2)


TRAIN_CONFIG = {
    "weights": {"warm_reuse_steps": 10, "warm_loc_steps": 20},
    "train": {"steps": 25, "lr": 0.01, "seed": 0},
    "data": {"n_sequences": 2, "seq_len": 32, "hidden_dim": 4, "n_experts": 8,
             "top_k": 2, "switch_period": 8, "noise": 0.9, "seed": 1},
}


class TestTrainCli:
    def test_writes_theta_and_log(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        theta = tmp_path / "theta.bin"
        log = tmp_path / "log.csv"
        assert run("train", "--config", str(cfg), "--out-theta", str(theta),
                   "--log", str(log)) == 0
        rows = csv_rows(log)
        assert len(rows) == 25
        assert set(rows[0]) == {
            "step", "total", "trust_kl", "reuse_rho", "reuse", "smooth", "lag", "ws",
            "alpha_reuse", "alpha_loc", "eor", "grad_norm",
        }
        assert theta.exists() and (tmp_path / "theta.bin.json").exists()

    def test_log_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        logs = []
        for name in ("a", "b"):
            log = tmp_path / f"{name}.csv"
            run("train", "--config", str(cfg), "--out-theta", str(tmp_path / f"{name}.bin"),
                "--log", str(log))
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_bad_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("train", "--config", str(cfg), "--out-theta", str(tmp_path / "t.bin"),
                   "--log", str(tmp_path / "l.csv")) == 2


BAD_TRAIN_CONFIGS = [
    ({"train": {"steps": "x"}}, "train.steps"),
    ({"weights": {"bogus": 1}}, "weights.bogus"),
    ({"data": {"n_sequences": 2.5}}, "data.n_sequences"),
    ({"weights": {"lag_set": 5}}, "weights.lag_set"),
    ({"weight": {}}, "'weight'"),
    # Values of the right type that the dataclasses refuse.
    ({"train": {"beta2": 1.5}}, "train.beta2"),
    ({"train": {"beta1": -3.0}}, "train.beta1"),
    ({"train": {"beta1": 1.0}}, "train.beta1"),
    ({"train": {"clip_norm": -1.0}}, "train.clip_norm"),
    ({"train": {"adam_eps": 0.0}}, "train.adam_eps"),
    ({"weights": {"window": 0}}, "weights.window"),
    ({"data": {"top_k": 99}}, "data.top_k"),
    ({"data": {"hidden_dim": 0}}, "data.hidden_dim"),
    ({"data": {"hidden_dim": -1}}, "data.hidden_dim"),
    ({"data": {"mean_scale": 2.0}}, "data.mean_scale"),
]


@pytest.mark.parametrize("override,key", BAD_TRAIN_CONFIGS,
                         ids=[key.strip("'") for _, key in BAD_TRAIN_CONFIGS])
def test_bad_train_config_is_data_error_naming_the_key(tmp_path, capsys, override, key):
    config = {**TRAIN_CONFIG, **{section: {**TRAIN_CONFIG.get(section, {}), **values}
                                 for section, values in override.items()}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("train", "--config", str(cfg), "--out-theta", str(tmp_path / "t.bin"),
               "--log", str(tmp_path / "l.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and key in err
    assert not (tmp_path / "l.csv").exists()


class TestSweepCli:
    def test_single_point_equals_train(self, tmp_path):
        cfg = dict(TRAIN_CONFIG)
        cfg["grid"] = [{}]
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        row = csv_rows(out)[0]

        cfg_train = tmp_path / "train.json"
        cfg_train.write_text(json.dumps(TRAIN_CONFIG))
        log = tmp_path / "log.csv"
        assert run("train", "--config", str(cfg_train), "--out-theta", str(tmp_path / "t.bin"),
                   "--log", str(log)) == 0
        last = csv_rows(log)[-1]
        for field in ("total", "reuse", "smooth", "lag", "ws"):
            assert row[field] == last[field], field
        # The train run's gate, evaluated as the sweep evaluates its points.
        gate = load_gate(tmp_path / "t.bin")
        sequences = synth_hidden_sequences(SyntheticDataConfig(**TRAIN_CONFIG["data"]))
        after = evaluate_gate(gate.theta, gate.theta0, sequences, TRAIN_CONFIG["data"]["top_k"])
        for field in ("eor", "trust_kl", "reuse_rho"):
            assert row[field] == str(getattr(after, field)), field

    def test_refused_grid_override_names_the_point(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({**TRAIN_CONFIG, "grid": [{}, {"lambda_kl": -1.0}]}))
        assert run("sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "grid[1].lambda_kl" in err
        assert not (tmp_path / "s.csv").exists()

    def test_kl_grid_direction(self, tmp_path):
        cfg = dict(TRAIN_CONFIG)
        cfg["train"] = {"steps": 120, "lr": 0.01, "seed": 0}
        cfg["grid"] = [{"lambda_kl": 0.0}, {"lambda_kl": 0.45}, {"lambda_kl": 0.7}]
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        trust = [float(r["trust_kl"]) for r in csv_rows(out)]
        assert trust[0] > trust[1] > trust[2]

    def test_bad_grid_override_is_data_error_naming_the_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({**TRAIN_CONFIG, "grid": [{"bogus": 1}]}))
        assert run("sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "grid[0].bogus" in err
        assert not (tmp_path / "s.csv").exists()

    def test_empty_grid_is_data_error(self, tmp_path):
        cfg = dict(TRAIN_CONFIG)
        cfg["grid"] = []
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")) == 2


class TestDispatch:
    def test_unknown_subcommand_usage_error(self):
        assert run("frobnicate") == 1

    def test_threads_env_is_ignored(self, monkeypatch, tmp_path):
        # --threads alone sets the thread count; no environment variable does.
        monkeypatch.setenv("REMOE_LAB_THREADS", "two")
        out = tmp_path / "c.json"
        assert run("bound-check", "--campaign", "3", "--out", str(out)) == 0
        assert json.loads(out.read_text())["violations"] == 0

    def test_directory_trace_is_data_error(self, tmp_path, capsys):
        assert run("validate", "--trace", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_directory_out_is_data_error(self, trace_path, tmp_path, capsys):
        out = tmp_path / "out_dir"
        out.mkdir()
        assert run("metrics", "--trace", str(trace_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out) in err

    @pytest.mark.parametrize("argv", [
        pytest.param(("metrics", "--trace", "{trace}"), id="metrics"),
        pytest.param(("simulate", "--trace", "{trace}", "--capacity", "4"), id="simulate"),
        pytest.param(("bound-check", "--counterexamples"), id="bound-check"),
    ])
    def test_unwritable_out_names_the_requested_path(self, trace_path, tmp_path, capsys, argv):
        # The report goes through a temp file next to it; the error names the
        # --out path, never the temp file's random name.
        out = tmp_path / "missing" / "report.json"
        argv = [a.format(trace=trace_path) for a in argv]
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"data error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert not (tmp_path / "missing").exists()

    def test_threads_flag_below_one_is_usage_error(self, tmp_path, capsys):
        assert run("bound-check", "--campaign", "3", "--threads", "0",
                   "--out", str(tmp_path / "c.json")) == 1
        assert "--threads" in capsys.readouterr().err

    def test_subcommands_never_mutate_the_trace(self, probs_trace_path, tmp_path):
        before = probs_trace_path.read_bytes()
        run("validate", "--trace", str(probs_trace_path))
        run("metrics", "--trace", str(probs_trace_path), "--out", str(tmp_path / "m.csv"))
        run("simulate", "--trace", str(probs_trace_path), "--capacity", "4",
            "--beta", "1.0", "--reset-each-segment", "--out", str(tmp_path / "s.csv"))
        run("bound-check", "--trace", str(probs_trace_path), "--capacity", "4",
            "--out", str(tmp_path / "b.json"))
        assert probs_trace_path.read_bytes() == before

    def test_entry_point_runs(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"
