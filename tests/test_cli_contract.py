"""CLI contract: boundary values for every flag of every subcommand.

Each numeric flag draws 0, -1, nan, inf or an ordinary value, plus a huge one
where the command refuses it or stays cheap with it. Each path flag draws a
good path, a directory or a path under a missing directory. The optimizer
fields of the train/sweep config file are drawn the same way. Whatever the
draw, ``dispatch`` must return an exit code in {0, 1, 2, 3}, put a message
(and never a traceback) on stderr for a usage or data error, raise no
exception and emit no RuntimeWarning; a property command that exits 0 must
have checked at least one item. Counts stay small (``--trials``,
``--instances`` and ``--campaign`` at most 3, ``--threads`` at most 2), so no
draw starts a long run or many threads.
"""

import hashlib
import json
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from moe_locality.bounds import check_step_bound, check_working_set_bound
from moe_locality.cli import dispatch
from moe_locality.trace import load_trace

HUGE_INT = str(10**30)
HUGE_FLOAT = "1e308"
BOUNDARY = ("0", "-1", "nan", "inf")

TINY_CONFIG = {
    "weights": {"warm_reuse_steps": 2, "warm_loc_steps": 4},
    "train": {"steps": 4, "seed": 0},
    "data": {"n_sequences": 1, "seq_len": 8, "hidden_dim": 3, "n_experts": 6, "top_k": 2,
             "switch_period": 4, "seed": 1},
    "grid": [{"lambda_kl": 0.3}],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("contract")
    assert dispatch(["synth", "--layers", "2", "--experts", "8", "--top-k", "3", "--batch", "2",
                     "--segments", "2", "--steps", "5", "--emit-probs", "--seed", "4",
                     "--out", str(base / "trace.jsonl")]) == 0
    (base / "config.json").write_text(json.dumps(TINY_CONFIG))
    (base / "adir").mkdir()
    return base


def num(*valid, huge=None):
    """A numeric flag: its ordinary values and its boundary values, with a
    huge value only where the command refuses it or stays cheap with it."""
    return valid, BOUNDARY + ((huge,) if huge else ())


def choice(*valid):
    return valid, ("bogus",)


# Per subcommand: alternative sets of required flags (the modes), the
# optional flags, and the switches. A path flag is named by its good file;
# its boundary values are a directory and a path under a missing directory.
# --trials and --instances are always given: their defaults are long runs.
SPEC = {
    "synth": (
        [{"--out": "out.jsonl"}],
        {"--layers": num("2"), "--experts": num("6"), "--top-k": num("2", huge=HUGE_INT),
         "--batch": num("2"), "--segments": num("2"), "--steps": num("3"),
         "--stickiness": num("0.5", huge=HUGE_FLOAT),
         "--concentration": num("4", "0.5", huge=HUGE_FLOAT),
         "--seed": num("7", huge=HUGE_INT)},
        ["--emit-probs"],
    ),
    "validate": ([{"--trace": "trace.jsonl"}], {}, []),
    "metrics": (
        [{"--trace": "trace.jsonl", "--out": "m.json"}], {}, ["--per-layer", "--pooled"],
    ),
    "simulate": (
        [{"--trace": "trace.jsonl", "--capacity": num("3", "6", huge=HUGE_INT),
          "--out": "s.json"}],
        {"--policy": choice("lru", "lfu", "fifo", "belady"),
         "--beta": num("1.5", huge=HUGE_FLOAT),
         "--expert-bytes": num("25e6", huge=HUGE_FLOAT),
         "--bandwidth-gbps": num("4", huge=HUGE_FLOAT),
         "--compute-ms": num("40", huge=HUGE_FLOAT)},
        ["--reset-each-segment"],
    ),
    "bound-check": (
        [{"--trace": "trace.jsonl", "--capacity": num("3", "6", huge=HUGE_INT),
          "--out": "b.json"},
         {"--campaign": num("1", "3"), "--out": "b.json"},
         {"--out": "b.json"}],
        {"--seed": num("5", huge=HUGE_INT), "--threads": num("1", "2")},
        ["--working-set", "--counterexamples"],
    ),
    "router": (
        [{"--check": choice("stability", "pinsker"), "--trials": num("1", "3")}],
        {"--experts": num("6"), "--top-k": num("2", huge=HUGE_INT),
         "--seed": num("5", huge=HUGE_INT)},
        [],
    ),
    "gradcheck": ([{"--instances": num("1")}], {"--seed": num("2", huge=HUGE_INT)}, []),
    "train": ([{"--config": "config.json", "--out-theta": "theta.bin", "--log": "log.csv"}],
              {}, []),
    "sweep": ([{"--config": "config.json", "--out": "sweep.csv"}], {}, []),
}


# The optimizer fields of the ``train`` config section, drawn like numeric
# flags and written into a copy of config.json.
CONFIG_FIELDS = {
    "beta1": (("0.9", "0"), BOUNDARY + ("1", "1.5")),
    "beta2": (("0.999", "0"), BOUNDARY + ("1", "1.5")),
    "adam_eps": (("1e-8",), BOUNDARY + (HUGE_FLOAT,)),
    "clip_norm": (("1", "0.05"), BOUNDARY + (HUGE_FLOAT,)),
}


def _config_variant(files, train: dict) -> str:
    """A copy of config.json with ``train`` as its train section."""
    text = json.dumps({**TINY_CONFIG, "train": train}, sort_keys=True)
    path = files / f"config-{hashlib.sha256(text.encode()).hexdigest()[:12]}.json"
    path.write_text(text)
    return str(path)


@st.composite
def argvs(draw, subcommand: str, files):
    """One argv: at most one flag or config field at a boundary value, every
    other flag good or (if optional) absent, so each one's own handling is
    what is tested."""
    modes, optional, switches = SPEC[subcommand]
    required = draw(st.sampled_from(modes))
    values = {}
    for flag, spec in {**required, **optional}.items():
        if isinstance(spec, str):  # a path flag
            good = str(files / spec)
            spec = (good,), (str(files / "adir"), str(files / "missing" / spec))
        values[flag] = spec
    fields = CONFIG_FIELDS if "--config" in required else {}
    bad = draw(st.sampled_from([None, *values, *fields]))
    argv = [subcommand]
    for flag, (valid, boundary) in values.items():
        if flag == bad:
            argv += [flag, draw(st.sampled_from(boundary))]
        elif flag in required or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(valid))]
    train = dict(TINY_CONFIG["train"])
    for field, (valid, boundary) in fields.items():
        if field == bad:
            train[field] = float(draw(st.sampled_from(boundary)))
        elif draw(st.booleans()):
            train[field] = float(draw(st.sampled_from(valid)))
    if train != TINY_CONFIG["train"] and bad != "--config":
        argv[argv.index("--config") + 1] = _config_variant(files, train)
    return argv + [flag for flag in switches if draw(st.booleans())]


def _bound_check_items(argv, report: dict) -> int:
    """How many bounds an exit-0 bound-check run checked."""
    if report.get("mode") == "counterexamples":
        return len(report["scenarios"])
    if "checks" in report:  # campaign
        return report["checks"]
    check = check_working_set_bound if "--working-set" in argv else check_step_bound
    trace = load_trace(argv[argv.index("--trace") + 1])
    result = check(trace, int(argv[argv.index("--capacity") + 1]))
    return len(result.step_records) + len(result.sequence_records)


def _items_checked(argv, stdout: str) -> int | None:
    """Items a property command checked, or None for other subcommands."""
    if argv[0] == "router":
        return json.loads(stdout)["checked"]
    if argv[0] == "gradcheck":
        return int(re.search(r"over (\d+) instances", stdout).group(1))
    if argv[0] == "bound-check":
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as f:
            return _bound_check_items(argv, json.load(f))
    return None


SUBCOMMANDS = ["synth", "validate", "metrics", "simulate", "bound-check", "router",
               "gradcheck", "train", "sweep"]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_draw_keeps_the_exit_contract(subcommand, files, capsys):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs(subcommand, files))
    def check(argv):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = dispatch(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in out + err, argv
        if code == 1:
            assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)
        elif code == 2:
            assert err.startswith("data error: ") and err.count("\n") == 1, (argv, err)
        elif code == 3:
            assert out, argv
        else:
            items = _items_checked(argv, out)
            assert items is None or items >= 1, (argv, out)

    check()
