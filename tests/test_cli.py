"""CLI pipeline: subcommands, exit codes, determinism, config precedence."""

import csv
import errno
import json
import shutil
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import fdp.bench
import fdp.cli
import fdp.policy
from fdp.cli import _check_config_value, cli
from fdp.policy import FactorizedPolicy


FAST_NET = [
    "--components", "2",
    "--diffusion-steps", "10",
    "--obs-embed-dim", "12",
    "--denoiser-hidden", "16",
    "--router-hidden", "8",
]


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory, runner):
    path = tmp_path_factory.mktemp("data") / "demos.jsonl"
    result = runner.invoke(
        cli, ["gen-demos", "--suite", "bimodal1d", "--per-task", "6", "--seed", "7",
              "--out", str(path)]
    )
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, runner, demo_file):
    out = tmp_path_factory.mktemp("run") / "train"
    result = runner.invoke(
        cli, ["train", "--demos", str(demo_file), *FAST_NET,
              "--epochs", "2", "--batch-size", "32", "--seed", "1",
              "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    return out


def test_gen_demos_counts(runner, tmp_path):
    out = tmp_path / "d.jsonl"
    result = runner.invoke(
        cli, ["gen-demos", "--suite", "reach4", "--per-task", "2", "--seed", "7",
              "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "8 episodes" in result.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 9  # header + episodes


def test_gen_demos_rerun_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["gen-demos", "--suite", "bimodal1d", "--per-task", "3", "--seed", "2"]
    assert runner.invoke(cli, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(cli, args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_suite_exit_code_2_lists_suites(runner, tmp_path):
    result = runner.invoke(
        cli, ["gen-demos", "--suite", "nope", "--out", str(tmp_path / "x.jsonl")]
    )
    assert result.exit_code == 2
    assert "reach4" in result.output


def test_train_outputs(trained_dir):
    assert (trained_dir / "checkpoint.json").exists()
    assert (trained_dir / "config.json").exists()
    assert (trained_dir / "training_log.json").exists()
    csv = (trained_dir / "training_log.csv").read_text()
    assert csv.startswith("epoch,train_mse,val_mse")
    policy = FactorizedPolicy.load(trained_dir / "checkpoint.json")
    assert policy.n_components == 2


def test_train_deterministic_checkpoints(runner, demo_file, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        result = runner.invoke(
            cli, ["train", "--demos", str(demo_file), *FAST_NET, "--epochs", "1",
                  "--batch-size", "32", "--seed", "3", "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        outs.append((out / "checkpoint.json").read_bytes())
    assert outs[0] == outs[1]


def test_eval_writes_tables_and_is_deterministic(runner, trained_dir, tmp_path):
    tables = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        result = runner.invoke(
            cli, ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
                  "--suite", "bimodal1d", "--episodes", "4", "--seeds", "0,1",
                  "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert (out / "success_table.csv").exists()
        tables.append((out / "success_table.json").read_bytes())
    assert tables[0] == tables[1]


def test_eval_top_k_equal_n_matches_plain(runner, trained_dir, tmp_path):
    results = []
    for name, extra in (("plain", []), ("topk", ["--top-k", "2"])):
        out = tmp_path / name
        result = runner.invoke(
            cli, ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
                  "--suite", "bimodal1d", "--episodes", "4", "--seeds", "0",
                  *extra, "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        data = json.loads((out / "success_table.json").read_text())
        del data  # parsed to ensure valid JSON
        results.append((out / "success_table.csv").read_text())
    assert results[0] == results[1]


@pytest.mark.parametrize("top_k", ["0", "3"])
def test_eval_top_k_outside_components_is_usage_error(runner, trained_dir, tmp_path, top_k):
    out = tmp_path / "o"
    result = runner.invoke(
        cli, ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
              "--suite", "bimodal1d", "--episodes", "1", "--seeds", "0",
              "--top-k", top_k, "--out-dir", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "--top-k" in result.output
    assert f"{top_k} outside [1, 2]" in result.output
    assert not out.exists()


def test_missing_checkpoint_is_usage_error(runner, tmp_path):
    result = runner.invoke(
        cli, ["eval", "--checkpoint", str(tmp_path / "absent.json"),
              "--suite", "bimodal1d", "--out-dir", str(tmp_path / "o")]
    )
    assert result.exit_code == 2


# checkpoint bytes that do not load (malformed, or a field that is wrong), and
# each command that loads one
BAD_CHECKPOINTS = {
    "truncated": b'{"format": ',
    "not UTF-8": b'{"format": "\xff"}',
    "other version": b'{"format": "fdp-checkpoint", "version": 3}',
}
CHECKPOINT_COMMANDS = {
    "eval": ["eval", "--suite", "bimodal1d"],
    "adapt": ["adapt", "--demos", None],
    "analyze": ["analyze", "--suite", "bimodal1d"],
}


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
@pytest.mark.parametrize("case", BAD_CHECKPOINTS)
def test_a_checkpoint_that_does_not_parse_is_named_exit_3(
    runner, demo_file, tmp_path, case, command
):
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_CHECKPOINTS[case])
    out = tmp_path / "out"
    args = [str(demo_file) if a is None else a for a in CHECKPOINT_COMMANDS[command]]
    result = runner.invoke(cli, [*args, "--checkpoint", str(path), "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert f"error: ValueError: checkpoint {path}: " in result.output
    assert not out.exists()


def test_adapt_pipeline(runner, trained_dir, tmp_path):
    new_demos = tmp_path / "pick.jsonl"
    assert runner.invoke(
        cli, ["gen-demos", "--suite", "drawer-line", "--per-task", "3", "--seed", "5",
              "--out", str(new_demos)]
    ).exit_code == 0
    out = tmp_path / "adapted"
    result = runner.invoke(
        cli, ["adapt", "--checkpoint", str(trained_dir / "checkpoint.json"),
              "--demos", str(new_demos), "--strategy", "new_module",
              "--epochs", "1", "--batch-size", "32", "--seed", "0",
              "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    log = json.loads((out / "adaptation_log.json").read_text())
    assert log["strategy"] == "new_module"
    assert log["frozen_checksums_before"] == log["frozen_checksums_after"]
    adapted = FactorizedPolicy.load(out / "checkpoint.json")
    assert adapted.n_components == 3


def test_adapt_runtime_error_exit_3(runner, trained_dir, tmp_path, demo_file):
    # replay requested without a replay dataset -> runtime error, exit 3
    result = runner.invoke(
        cli, ["adapt", "--checkpoint", str(trained_dir / "checkpoint.json"),
              "--demos", str(demo_file), "--replay-per-task", "5",
              "--epochs", "1", "--out-dir", str(tmp_path / "x")]
    )
    assert result.exit_code == 3
    assert "error:" in result.output


def test_train_on_dataset_of_other_version_exit_3(runner, demo_file, tmp_path):
    lines = demo_file.read_text().splitlines(keepends=True)
    header = {**json.loads(lines[0]), "version": 99}
    bad = tmp_path / "v99.jsonl"
    bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    result = runner.invoke(
        cli, ["train", "--demos", str(bad), *FAST_NET, "--epochs", "1",
              "--out-dir", str(tmp_path / "t")]
    )
    assert result.exit_code == 3
    assert "'version' is 99" in result.output


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--denoiser-hidden", "0", "denoiser_hidden"),
        ("--router-lr-scale", "-2", "router_lr_scale"),
        ("--router-temperature", "inf", "router_temperature"),
    ],
)
def test_train_rejects_bad_policy_widths_and_rates_exit_3(
    runner, demo_file, tmp_path, flag, value, field
):
    out = tmp_path / "t"
    result = runner.invoke(
        cli, ["train", "--demos", str(demo_file), *FAST_NET, flag, value, "--epochs", "1",
              "--out-dir", str(out)]
    )
    assert result.exit_code == 3, result.output
    assert f"{field} " in result.output
    assert not out.exists()


def test_train_names_both_fields_of_a_schedule_that_fails_exit_3(runner, demo_file, tmp_path):
    out = tmp_path / "t"
    result = runner.invoke(
        cli, ["train", "--demos", str(demo_file), *FAST_NET, "--diffusion-steps", "75000",
              "--schedule", "linear", "--epochs", "1", "--out-dir", str(out)]
    )
    assert result.exit_code == 3, result.output
    message = "diffusion_steps 75000 and schedule_kind 'linear' give no valid schedule"
    assert f"error: ScheduleError: {message}" in result.output
    assert not out.exists()


def test_continual_structure(runner, tmp_path):
    out = tmp_path / "cont"
    result = runner.invoke(
        cli, ["continual", "--suite", "continual12", "--pretrain-tasks", "4",
              "--demos-per-task", "2", "--adapt-demos-per-task", "2",
              *FAST_NET, "--components", "4",
              "--epochs", "1", "--adapt-epochs", "1", "--batch-size", "32",
              "--eval-episodes", "1", "--seed", "0", "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "12 components" in result.output
    log = json.loads((out / "continual_log.json").read_text())
    assert [s["n_components"] for s in log["stages"]] == list(range(5, 13))
    assert all(s["frozen_stable"] for s in log["stages"])
    final = FactorizedPolicy.load(out / "checkpoint.json")
    assert final.n_components == 12
    # final stage evaluated every task seen so far
    assert len(log["stages"][-1]["evaluation"]["tasks"]) == 12


def test_analyze_similarity_and_convergence(
    runner, trained_dir, demo_file, tmp_path, monkeypatch
):
    out = tmp_path / "an"
    loads = []
    load = FactorizedPolicy.load

    def counting_load(cls, path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(FactorizedPolicy, "load", classmethod(counting_load))
    result = runner.invoke(
        cli, ["analyze", "--checkpoint", str(trained_dir / "checkpoint.json"),
              "--demos", str(demo_file), "--probes", "16",
              "--suite", "bimodal1d",
              "--logs", str(trained_dir / "training_log.json"),
              "--out-dir", str(out)]
    )
    assert result.exit_code == 0, result.output
    sim = json.loads((out / "similarity.json").read_text())
    assert len(sim["similarity"]) == 2
    assert (out / "similarity.csv").exists()
    assert (out / "convergence.csv").exists()
    solo = json.loads((out / "solo_rollouts.json").read_text())
    assert [s["component"] for s in solo] == [0, 1]
    assert len(loads) == 1  # --demos and --suite share one checkpoint load


VALID_LOG = {"entries": [{"epoch": 0, "train_mse": 0.5, "val_mse": 0.25}],
             "n_train_windows": 3, "n_val_windows": 1, "trainable": ["encoder"]}
BAD_LOGS = {
    "empty object": ("{}", "field 'entries' is missing"),
    "list": ("[1,2]", "expected a JSON object, got list"),
    "entry without val_mse": (
        json.dumps({**VALID_LOG, "entries": [{"epoch": 0, "train_mse": 0.5}]}),
        "field 'entries[0]': field 'val_mse' is missing",
    ),
    "not JSON": ('{"entries": [', "Expecting value"),
}


@pytest.mark.parametrize("case", BAD_LOGS)
def test_analyze_names_the_bad_field_of_a_training_log_exit_3(runner, tmp_path, case):
    text, message = BAD_LOGS[case]
    log = tmp_path / "training_log.json"
    log.write_text(text)
    out = tmp_path / "an"
    result = runner.invoke(cli, ["analyze", "--logs", str(log), "--out-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert f"error: ValueError: training log {log}: {message}" in result.output
    assert not out.exists()


def _fail_midway(write_atomic):
    """write_atomic whose chunks stop halfway with a full disk."""

    def failing(path, chunks):
        text = "".join(chunks)

        def midway():
            yield text[: len(text) // 2]
            raise OSError(errno.ENOSPC, "No space left on device")

        write_atomic(path, midway())

    return failing


# each artifact writer: the module whose write_atomic it calls, the file, and
# the command that writes it, from the demos, a training log and an out-dir
ATOMIC_WRITERS = {
    "checkpoint": (fdp.policy, "checkpoint.json", lambda demos, log, out: [
        "train", "--demos", demos, *FAST_NET, "--epochs", "1", "--out-dir", out]),
    "dataset": (fdp.bench, "demos.jsonl", lambda demos, log, out: [
        "gen-demos", "--suite", "bimodal1d", "--per-task", "2", "--out", f"{out}/demos.jsonl"]),
    "config.json": (fdp.cli, "config.json", lambda demos, log, out: [
        "analyze", "--logs", log, "--out-dir", out]),
}


@pytest.mark.parametrize("writer", ATOMIC_WRITERS)
def test_a_write_that_fails_midway_leaves_the_previous_bytes(
    runner, demo_file, trained_dir, tmp_path, monkeypatch, writer
):
    module, name, command = ATOMIC_WRITERS[writer]
    out = tmp_path / "out"
    args = command(str(demo_file), str(trained_dir / "training_log.json"), str(out))
    result = runner.invoke(cli, [*args, "--seed", "1"])
    assert result.exit_code == 0, result.output
    before = (out / name).read_bytes()
    listing = sorted(p.name for p in out.iterdir())
    with open(tmp_path / "reference", "w"):
        pass
    assert (out / name).stat().st_mode == (tmp_path / "reference").stat().st_mode
    monkeypatch.setattr(module, "write_atomic", _fail_midway(module.write_atomic))
    result = runner.invoke(cli, [*args, "--seed", "2"])  # other bytes
    assert result.exit_code == 3
    assert "No space left on device" in result.output
    assert (out / name).read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == listing


def test_analyze_requires_something(runner, tmp_path):
    result = runner.invoke(cli, ["analyze", "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2


def test_config_file_defaults_and_flag_precedence(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "bimodal1d", "per_task": 3, "seed": 9}))
    out = tmp_path / "via_config.jsonl"
    result = runner.invoke(
        cli, ["gen-demos", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "3 episodes" in result.output
    # explicit flag beats the config file
    out2 = tmp_path / "via_flag.jsonl"
    result = runner.invoke(
        cli, ["gen-demos", "--config", str(cfg), "--per-task", "5", "--out", str(out2)]
    )
    assert result.exit_code == 0
    assert "5 episodes" in result.output


def test_config_file_with_keys_that_are_not_flags_is_usage_error(runner, demo_file, tmp_path):
    # the nested layout older config.json files used; click would ignore it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"demos": str(demo_file), "policy": {"n_components": 2}}))
    out = tmp_path / "t"
    result = runner.invoke(cli, ["train", "--config", str(cfg), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "not flags of this command: ['policy']" in result.output
    assert not out.exists()


# each a --config file whose value has another JSON type than config.json
# writes for its flag: (command, file text, what the error names)
BAD_CONFIGS = {
    "truncated file": ("train", '{"epochs": 1', "not a JSON file"),
    "int flag as list": ("train", '{"epochs": [1, 2]}', "key 'epochs' is [1, 2], not an int"),
    "int flag as bool": ("train", '{"epochs": true}', "key 'epochs' is true, not an int"),
    "int flag as float": ("train", '{"epochs": 1.0}', "key 'epochs' is 1.0, not an int"),
    "int flag as null": ("train", '{"seed": null}', "key 'seed' is null, not an int"),
    "float flag as bool": (
        "train", '{"learning_rate": false}', "key 'learning_rate' is false, not a number"
    ),
    "float flag as string": (
        "train", '{"learning_rate": "0.001"}', "key 'learning_rate' is \"0.001\", not a number"
    ),
    "text flag as list": (
        "train", '{"denoiser_hidden": [16]}', "key 'denoiser_hidden' is [16], not a string"
    ),
    "choice flag as int": ("train", '{"schedule": 1}', "key 'schedule' is 1, not a string"),
    "path flag as null": ("train", '{"demos": null}', "key 'demos' is null, not a string"),
    "nullable int flag as string": (
        "eval", '{"top_k": "2"}', "key 'top_k' is \"2\", not an int or null"
    ),
    "nullable path flag as int": (
        "adapt", '{"replay_demos": 1}', "key 'replay_demos' is 1, not a string or null"
    ),
    "repeatable flag as string": (
        "analyze", '{"logs": "a.json"}', "key 'logs' is \"a.json\", not a list of strings"
    ),
    "repeatable flag with an int": (
        "analyze", '{"logs": [1]}', "key 'logs' is [1], not a list of strings"
    ),
    "repeatable flag as null": ("analyze", '{"logs": null}', "key 'logs' is null, not a list"),
}


# each a --config value of the type config.json holds that its flag refuses
REFUSED_CONFIGS = {
    "widths text with a non-integer": (
        "continual", '{"router_hidden": "16,x"}',
        "key 'router_hidden': '16,x' is not a comma-separated list of integers",
    ),
    "int out of range": ("eval", '{"episodes": 0}', "key 'episodes': 0 is not in the range x>=1"),
}


@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_a_config_value_of_another_type_is_a_usage_error_naming_file_and_key(
    runner, tmp_path, case
):
    _assert_config_usage_error(runner, tmp_path, *BAD_CONFIGS[case])


@pytest.mark.parametrize("case", REFUSED_CONFIGS)
def test_a_config_value_its_flag_refuses_is_a_usage_error_naming_file_and_key(
    runner, tmp_path, case
):
    _assert_config_usage_error(runner, tmp_path, *REFUSED_CONFIGS[case])


def _assert_config_usage_error(runner, tmp_path, command, text, names):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    result = runner.invoke(cli, [command, "--config", str(cfg), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert f"{cfg}: {names}" in result.output
    assert not out.exists()


def test_null_is_refused_for_a_required_flag_even_with_a_none_default():
    # some click releases give a required option without a default None
    flag = click.Option(["--demos"], required=True, default=None, type=click.Path())
    with pytest.raises(click.BadParameter, match="key 'demos' is null, not a string$"):
        _check_config_value("c.json", flag, None)


def test_fdp_seed_env_fallback(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("FDP_SEED", "7")
    a = tmp_path / "env.jsonl"
    assert runner.invoke(
        cli, ["gen-demos", "--suite", "bimodal1d", "--per-task", "2", "--out", str(a)]
    ).exit_code == 0
    monkeypatch.delenv("FDP_SEED")
    b = tmp_path / "explicit.jsonl"
    assert runner.invoke(
        cli, ["gen-demos", "--suite", "bimodal1d", "--per-task", "2", "--seed", "7",
              "--out", str(b)]
    ).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_seed_beats_fdp_seed(runner, tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.jsonl"
    assert runner.invoke(
        cli, ["gen-demos", "--suite", "bimodal1d", "--per-task", "2", "--seed", "1",
              "--out", str(explicit)]
    ).exit_code == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite": "bimodal1d", "per_task": 2, "seed": 1}))
    monkeypatch.setenv("FDP_SEED", "5")
    from_config = tmp_path / "config.jsonl"
    result = runner.invoke(
        cli, ["gen-demos", "--config", str(config), "--out", str(from_config)]
    )
    assert result.exit_code == 0, result.output
    assert from_config.read_bytes() == explicit.read_bytes()


# ---------------------------------------------------------------------------
# config.json: the resolved flags, read back by --config
# ---------------------------------------------------------------------------


# the PolicyConfig flags of train and continual, in --help order, with their defaults
POLICY_FLAGS = [
    ("--components", 4), ("--diffusion-steps", 100), ("--schedule", "cosine"),
    ("--obs-embed-dim", 64), ("--denoiser-hidden", "256,256"), ("--router-hidden", "64"),
    ("--router-temperature", 1.0), ("--router-lr-scale", 1.0), ("--t-pred", 16),
    ("--t-exec", 8), ("--h-obs", 2), ("--learning-rate", 0.001),
]


@pytest.mark.parametrize("command", ["train", "continual"])
def test_the_policy_flags_keep_their_order_and_defaults(command):
    flags = dict(POLICY_FLAGS)
    got = [(p.opts[0], p.default) for p in cli.commands[command].params if p.opts[0] in flags]
    assert [(f, repr(d)) for f, d in got] == [(f, repr(d)) for f, d in POLICY_FLAGS]


@pytest.fixture(scope="module", params=["train", "eval", "adapt", "continual", "analyze"])
def first_run(request, tmp_path_factory, runner, demo_file, trained_dir):
    """One run of a command with non-default flags: (command, out dir)."""
    command = request.param
    ckpt = str(trained_dir / "checkpoint.json")
    args = {
        "train": ["--demos", str(demo_file), *FAST_NET, "--epochs", "2",
                  "--batch-size", "32", "--seed", "1"],
        "eval": ["--checkpoint", ckpt, "--suite", "bimodal1d", "--episodes", "2",
                 "--seeds", "0,1", "--top-k", "1"],
        "adapt": ["--checkpoint", ckpt, "--demos", str(demo_file), "--epochs", "1",
                  "--batch-size", "32", "--seed", "2"],
        "continual": ["--pretrain-tasks", "10", "--demos-per-task", "1",
                      "--adapt-demos-per-task", "1", *FAST_NET, "--epochs", "1",
                      "--adapt-epochs", "1", "--batch-size", "32", "--eval-episodes", "1"],
        "analyze": ["--checkpoint", ckpt, "--demos", str(demo_file), "--probes", "8",
                    "--suite", "bimodal1d", "--logs", str(trained_dir / "training_log.json"),
                    "--seed", "3"],
    }[command]
    out = tmp_path_factory.mktemp("first") / command
    result = runner.invoke(cli, [command, *args, "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    return command, out


def test_config_json_holds_exactly_the_flags_but_out_dir(first_run):
    command, out = first_run
    declared = {p.name for p in cli.commands[command].params if p.expose_value}
    config = json.loads((out / "config.json").read_text())
    assert set(config) == declared - {"out_dir"}


CSV_FILES = {
    "train": ["training_log.csv"],
    "eval": ["success_table.csv"],
    "adapt": [],
    "continual": [],
    "analyze": ["convergence.csv", "similarity.csv"],
}


def test_every_csv_data_cell_is_a_number(first_run):
    """Past the header and the label column (epoch, task or component),
    every cell of every CSV file a command writes reads back with float()."""
    command, out = first_run
    paths = sorted(out.glob("*.csv"))
    assert [p.name for p in paths] == CSV_FILES[command]
    for path in paths:
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert rows and {len(row) for row in rows} == {len(header)}, path
        for row in rows:
            for cell in row[1:]:
                float(cell)


def test_rerun_from_config_json_reproduces_every_artifact(first_run, runner, tmp_path):
    command, out = first_run
    again = tmp_path / "again"
    result = runner.invoke(
        cli, [command, "--config", str(out / "config.json"), "--out-dir", str(again)]
    )
    assert result.exit_code == 0, result.output
    names = sorted(p.name for p in out.iterdir())
    assert sorted(p.name for p in again.iterdir()) == names
    for name in names:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


# ---------------------------------------------------------------------------
# flag values rejected by their click types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train", "--epochs", "0"),
        ("train", "--batch-size", "0"),
        ("adapt", "--batch-size", "0"),
        ("continual", "--batch-size", "0"),
        ("eval", "--episodes", "0"),
        ("eval", "--jobs", "0"),
        ("eval", "--seeds", ""),
        ("eval", "--seeds", "0,x"),
        ("train", "--denoiser-hidden", "16,x"),
        ("train", "--router-hidden", "16;16"),
        ("continual", "--denoiser-hidden", "1.5"),
        ("gen-demos", "--per-task", "0"),
        ("analyze", "--probes", "0"),
        ("adapt", "--replay-per-task", "-1"),
        ("adapt", "--epochs", "-1"),
        ("continual", "--epochs", "-1"),
        ("continual", "--adapt-epochs", "-1"),
        ("adapt", "--strategy", "nope"),
        ("eval", "--suite", "nope"),
        ("continual", "--suite", "nope"),
        ("analyze", "--suite", "nope"),
    ],
)
def test_bad_flag_value_is_usage_error_naming_the_flag(
    runner, demo_file, trained_dir, tmp_path, command, flag, value
):
    ckpt = str(trained_dir / "checkpoint.json")
    required = {
        "train": ["--demos", str(demo_file)],
        "adapt": ["--checkpoint", ckpt, "--demos", str(demo_file)],
        "continual": [],
        "eval": ["--checkpoint", ckpt, "--suite", "bimodal1d"],
        "gen-demos": ["--suite", "bimodal1d"],
        "analyze": ["--checkpoint", ckpt, "--demos", str(demo_file)],
    }[command]
    out = tmp_path / "o"
    dest = ["--out", str(out)] if command == "gen-demos" else ["--out-dir", str(out)]
    result = runner.invoke(cli, [command, *required, flag, value, *dest])
    assert result.exit_code == 2, result.output
    assert f"'{flag}'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "adapt", "continual", "analyze"])
def test_an_empty_out_dir_is_a_usage_error_that_writes_nothing(
    runner, demo_file, trained_dir, tmp_path, monkeypatch, command
):
    ckpt = str(trained_dir / "checkpoint.json")
    args = {  # each runs, given an out dir
        "train": ["--demos", str(demo_file), *FAST_NET, "--epochs", "1"],
        "eval": ["--checkpoint", ckpt, "--suite", "bimodal1d", "--episodes", "1", "--seeds", "0"],
        "adapt": ["--checkpoint", ckpt, "--demos", str(demo_file), "--epochs", "1"],
        "continual": ["--pretrain-tasks", "10", "--demos-per-task", "1",
                      "--adapt-demos-per-task", "1", *FAST_NET, "--epochs", "1",
                      "--adapt-epochs", "1", "--eval-episodes", "1"],
        "analyze": ["--logs", str(trained_dir / "training_log.json")],
    }[command]
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(cli, [command, *args, "--out-dir", ""])
    assert result.exit_code == 2, result.output
    assert "'--out-dir'" in result.output
    assert list(tmp_path.iterdir()) == []


def test_out_dir_dot_writes_into_the_working_directory(runner, trained_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    log = str(trained_dir / "training_log.json")
    result = runner.invoke(cli, ["analyze", "--logs", log, "--out-dir", "."])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "convergence.csv", "convergence.json",
    ]


# ---------------------------------------------------------------------------
# property: a config.json with one key changed runs or names the key
# ---------------------------------------------------------------------------


# another JSON type, null, out-of-range ints, and text that is empty, no
# choice, no path, and no comma-separated integers
MUTANTS = (None, True, 0, -1, 1.5, [0], "", "x", "16,x", "1.5")


def _mutated_config_breaks(runner, command, config):
    """Run command in the working directory with config, each key set to each
    of MUTANTS in turn. Returns the runs that do not end in one of three ways:
    exit 0, writing back the config it read if it has --out-dir; exit 2
    naming the file and key, or the flag when the command refuses the value
    itself; exit 3 naming the key."""
    out_dir = ["--out-dir", "out"] if command != "gen-demos" else []
    broken = []
    for key, value in ((k, v) for k in config for v in MUTANTS):
        mutant = {**config, key: value}
        Path("mutant.json").write_text(json.dumps(mutant))
        result = runner.invoke(cli, [command, "--config", "mutant.json", *out_dir])
        message = (result.output.strip().splitlines() or [""])[-1]
        if result.exit_code == 0:
            ok = not out_dir or json.loads(Path("out/config.json").read_text()) == mutant
        elif result.exit_code == 2:
            ok = f"mutant.json: key '{key}'" in message or "--" + key.replace("_", "-") in message
        else:
            ok = result.exit_code == 3 and key in message
        if not ok:
            broken.append((key, value, result.exit_code, message))
        shutil.rmtree("out", ignore_errors=True)
    return broken


def test_a_mutated_config_json_runs_or_names_the_key(first_run, runner, tmp_path, monkeypatch):
    command, out = first_run
    config = json.loads((out / "config.json").read_text())
    monkeypatch.chdir(tmp_path)  # a mutated path is looked for or written only here
    assert _mutated_config_breaks(runner, command, config) == []


def test_a_mutated_gen_demos_config_runs_or_names_the_key(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = {"suite": "bimodal1d", "per_task": 1, "seed": 0, "out": "demos.jsonl"}
    assert _mutated_config_breaks(runner, "gen-demos", config) == []
