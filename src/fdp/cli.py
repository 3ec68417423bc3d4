"""Command-line pipeline: demo generation, training, evaluation, adaptation,
continual runs, and analysis export.

Each command's settings are declared once, in its click options: flag types
and ranges validate them, and they resolve as explicit flags > --config JSON
file > defaults. The resolved flags (all but --out-dir) are written as
config.json next to the outputs, in the schema --config reads, so any output
directory is reproduced bit-for-bit by re-running with
--config <dir>/config.json. Exit codes: 0 success, 2 usage error, 3 runtime
error. The FDP_SEED environment variable is the default of every --seed flag,
so an explicit --seed and a --config entry both beat it.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import fields
from pathlib import Path

import click

from .adaptation import STRATEGIES, AdaptationConfig, adapt, continual_adapt
from .analysis import build_probe_set, convergence_report, score_similarity, solo_rollout
from .bench import SUITES, EpisodeDataset, PointMassEnv, evaluate, generate_demos, make_suite
from .diffusion import SCHEDULE_KINDS
from .numerics import Rng
from .policy import (
    FactorizedPolicy, PolicyConfig, TrainingLog, canonical_json, read_json, write_atomic,
)


def _fail(message: str) -> "SystemExit":
    click.echo(f"error: {message}", err=True)
    return SystemExit(3)


def runtime_errors_exit_3(fn):
    """Map runtime failures to exit code 3 (usage errors stay click's 2)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 - boundary of the CLI
            raise _fail(f"{type(exc).__name__}: {exc}") from exc

    return wrapper


def _check_config_value(path, param, value) -> None:
    """A --config entry must have the JSON type config.json holds for its
    flag: an int (not a bool) for an int flag, an int or a float for a float
    flag, a string for any other; a list of them for a repeatable flag, and
    null only for an optional flag whose default is None."""
    nullable = not param.required and param.default is None
    if isinstance(param.type, click.types.IntParamType):
        kinds, want = (int,), "an int"
    elif isinstance(param.type, click.types.FloatParamType):
        kinds, want = (int, float), "a number"
    else:
        kinds, want = (str,), "a string"
    if param.multiple:
        ok = isinstance(value, list) and all(type(v) in kinds for v in value)
        want = "a list of " + want.split()[-1] + "s"
    else:
        ok = type(value) in kinds or (value is None and nullable)
        want += " or null" * nullable
    if not ok:
        raise click.BadParameter(f"{path}: key '{param.name}' is {json.dumps(value)}, not {want}")


def load_config_defaults(ctx, param, value):
    """--config callback: JSON entries become defaults; explicit flags win.
    A file that is no JSON object, an unknown key, or a value of another type
    than config.json holds for its flag or that the flag refuses, is a usage
    error naming the file (and the key)."""
    if value is None:
        return None
    try:
        with open(value) as f:
            data = json.load(f)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise click.BadParameter(f"{value}: not a JSON file ({exc})") from exc
    if not isinstance(data, dict):
        raise click.BadParameter(f"{value}: config file must hold a JSON object")
    params = {p.name: p for p in ctx.command.params if p.expose_value}
    unknown = sorted(set(data) - set(params))
    if unknown:
        raise click.BadParameter(f"{value}: keys that are not flags of this command: {unknown}")
    for key, entry in data.items():
        _check_config_value(value, params[key], entry)
        try:  # the flag's type and callback, as if the entry had been typed
            params[key].process_value(ctx, entry)
        except click.BadParameter as exc:
            raise click.BadParameter(f"{value}: key '{key}': {exc.message}") from exc
    ctx.default_map = {**(ctx.default_map or {}), **data}
    return value


config_option = click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    callback=load_config_defaults,
    is_eager=True,
    expose_value=False,
    help="JSON file with default values for this command's flags (flags win).",
)

SUITE = click.Choice(SUITES)
POSITIVE = click.IntRange(min=1)
NON_NEGATIVE = click.IntRange(min=0)

# FDP_SEED is read as the default, not as click's envvar, which would beat
# the --config entries (click ranks an option's envvar above the default map).
seed_option = click.option(
    "--seed", type=int, default=lambda: os.environ.get("FDP_SEED") or 0,
    show_default="FDP_SEED, else 0",
    help="Master seed (falls back to --config, then FDP_SEED).",
)


def check_dir_name(ctx, param, value: str) -> str:
    """--out-dir callback: empty text, which would name the working
    directory, is refused; '.' names it."""
    if not value:
        raise click.BadParameter("empty text names no directory")
    return value


out_dir_option = click.option(
    "--out-dir", type=click.Path(file_okay=False), required=True, callback=check_dir_name
)


def write_outputs(out_dir: Path, files: dict) -> None:
    """Write the command's resolved flags, all but --out-dir, as config.json
    (the schema --config reads), plus the artifact files, under out_dir."""
    params = click.get_current_context().params
    config = {name: value for name, value in params.items() if name != "out_dir"}
    for name, content in {"config.json": config, **files}.items():
        if isinstance(content, (dict, list)):
            content = canonical_json(content) + "\n"
        write_atomic(out_dir / name, [content])


def _ints(text: str) -> tuple:
    """Comma-separated integers; empty items, and so empty text, give none."""
    return tuple(int(w) for w in text.strip().split(",") if w)


def comma_ints(least: int):
    """Callback of a flag of comma-separated integers, at least `least` of
    them. The text is kept as given, so config.json holds it in the form
    --config reads back."""

    def check(ctx, param, value: str) -> str:
        try:
            if len(_ints(value)) >= least:
                return value
        except ValueError:
            pass
        raise click.BadParameter(f"{value!r} is not a comma-separated list of integers")

    return check


# Every PolicyConfig field is a flag with its default, in field order; two are
# named apart from their field, and a tuple of widths is comma-separated text.
FLAG = {"n_components": "components", "schedule_kind": "schedule"}


def policy_config_options(fn):
    for f in reversed(fields(PolicyConfig)):
        kind, default = type(f.default), f.default
        check = None
        if kind is tuple:
            kind, default, check = str, ",".join(str(w) for w in default), comma_ints(least=0)
        elif f.name == "schedule_kind":
            kind = click.Choice(SCHEDULE_KINDS)
        flag = "--" + FLAG.get(f.name, f.name).replace("_", "-")
        fn = click.option(flag, type=kind, default=default, show_default=True, callback=check)(fn)
    return fn


def build_policy_config(params: dict) -> PolicyConfig:
    values = {}
    for f in fields(PolicyConfig):
        value = params[FLAG.get(f.name, f.name)]
        values[f.name] = _ints(value) if type(f.default) is tuple else value
    return PolicyConfig(**values)


@click.group()
def cli():
    """Factorized diffusion policy: train, evaluate, adapt, analyze."""


def check_file_name(ctx, param, value: str) -> str:
    """--out callback: the path must name a file, which empty text does not."""
    if not Path(value).name:
        raise click.BadParameter(f"{value!r} names no file")
    return value


@cli.command("gen-demos")
@config_option
@click.option("--suite", type=SUITE, required=True, help="Benchmark suite name.")
@click.option("--per-task", type=POSITIVE, default=25, show_default=True)
@seed_option
@click.option("--out", type=click.Path(dir_okay=False), required=True, callback=check_file_name)
@runtime_errors_exit_3
def cmd_gen_demos(suite, per_task, seed, out):
    """Generate scripted-expert demonstrations into a dataset file."""
    dataset = generate_demos(make_suite(suite), per_task, seed)
    dataset.save(out)
    click.echo(f"wrote {len(dataset.episodes)} episodes to {out}")


@cli.command("train")
@config_option
@click.option("--demos", type=click.Path(exists=True, dir_okay=False), required=True)
@policy_config_options
@click.option("--epochs", type=POSITIVE, default=150, show_default=True)
@click.option("--batch-size", type=POSITIVE, default=96, show_default=True)
@seed_option
@out_dir_option
@runtime_errors_exit_3
def cmd_train(demos, epochs, batch_size, seed, out_dir, **net_params):
    """Train a policy on a demonstration dataset."""
    dataset = EpisodeDataset.load(demos)
    cfg = build_policy_config(net_params)
    policy = FactorizedPolicy(
        obs_dim=dataset.state_dim, action_dim=dataset.action_dim, config=cfg, seed=seed
    )
    policy.fit(dataset, epochs=epochs, batch_size=batch_size, seed=seed)
    out = Path(out_dir)
    log = policy.training_log_
    csv = "epoch,train_mse,val_mse\n" + "\n".join(
        f"{e['epoch']},{e['train_mse']!r},{e['val_mse']!r}" for e in log.entries
    ) + "\n"
    write_outputs(out, {"training_log.json": log.to_json(), "training_log.csv": csv})
    policy.save(out / "checkpoint.json")
    click.echo(
        f"trained {cfg.n_components} components for {epochs} epochs; "
        f"final val MSE {log.entries[-1]['val_mse']:.4f}; checkpoint in {out}"
    )


@cli.command("eval")
@config_option
@click.option("--checkpoint", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--suite", type=SUITE, required=True)
@click.option("--episodes", type=POSITIVE, default=40, show_default=True)
@click.option("--seeds", default="0,1,2,3,4", show_default=True, callback=comma_ints(least=1),
              help="Comma-separated.")
@click.option("--top-k", type=int, default=None)
@click.option("--jobs", type=POSITIVE, default=1, show_default=True)
@out_dir_option
@runtime_errors_exit_3
def cmd_eval(checkpoint, suite, episodes, seeds, top_k, jobs, out_dir):
    """Evaluate a checkpoint: success table over tasks x seeds."""
    specs = make_suite(suite)
    policy = FactorizedPolicy.load(checkpoint)
    if top_k is not None and not 1 <= top_k <= policy.n_components:
        raise click.BadParameter(
            f"{top_k} outside [1, {policy.n_components}]", param_hint="'--top-k'"
        )
    table = evaluate(
        policy, specs, episodes_per_task=episodes, seeds=_ints(seeds),
        top_k=top_k, jobs=jobs,
    )
    write_outputs(
        Path(out_dir),
        {"success_table.json": table.to_json(), "success_table.csv": table.to_csv()},
    )
    click.echo(f"average success {table.average():.3f} over {len(specs)} tasks")


@cli.command("adapt")
@config_option
@click.option("--checkpoint", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--demos", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--replay-demos", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--strategy", type=click.Choice(STRATEGIES), default="new_module",
              show_default=True)
@click.option("--replay-per-task", type=NON_NEGATIVE, default=0, show_default=True)
@click.option("--epochs", type=NON_NEGATIVE, default=60, show_default=True)
@click.option("--batch-size", type=POSITIVE, default=64, show_default=True)
@seed_option
@out_dir_option
@runtime_errors_exit_3
def cmd_adapt(
    checkpoint, demos, replay_demos, strategy, replay_per_task, epochs, batch_size, seed, out_dir
):
    """Adapt a pretrained checkpoint to a new task dataset."""
    policy = FactorizedPolicy.load(checkpoint)
    new_ds = EpisodeDataset.load(demos)
    replay_ds = EpisodeDataset.load(replay_demos) if replay_demos else None
    config = AdaptationConfig(
        strategy=strategy,
        replay_per_task=replay_per_task,
        epochs=epochs,
        batch_size=batch_size,
    )
    log = adapt(policy, config, new_ds, replay_dataset=replay_ds, seed=seed)
    out = Path(out_dir)
    write_outputs(out, {"adaptation_log.json": log.to_json()})
    policy.save(out / "checkpoint.json")
    click.echo(
        f"adapted with strategy={strategy}; components now {policy.n_components}; "
        f"trainable fraction {log.trainable_parameters / log.total_parameters:.3f}"
    )


@cli.command("continual")
@config_option
@click.option("--suite", type=SUITE, default="continual12", show_default=True)
@click.option("--pretrain-tasks", type=int, default=4, show_default=True)
@click.option("--demos-per-task", type=POSITIVE, default=25, show_default=True)
@click.option("--adapt-demos-per-task", type=POSITIVE, default=10, show_default=True)
@policy_config_options
@click.option("--epochs", type=NON_NEGATIVE, default=150, show_default=True)
@click.option("--adapt-epochs", type=NON_NEGATIVE, default=60, show_default=True)
@click.option("--batch-size", type=POSITIVE, default=96, show_default=True)
@click.option("--eval-episodes", type=POSITIVE, default=10, show_default=True)
@seed_option
@out_dir_option
@runtime_errors_exit_3
def cmd_continual(
    suite,
    pretrain_tasks,
    demos_per_task,
    adapt_demos_per_task,
    epochs,
    adapt_epochs,
    batch_size,
    eval_episodes,
    seed,
    out_dir,
    **net_params,
):
    """Pretrain on the first tasks of a suite, then add one component per
    remaining task, evaluating on everything seen after each stage."""
    specs = make_suite(suite)
    if not 1 <= pretrain_tasks < len(specs):
        raise click.UsageError(
            f"--pretrain-tasks must lie in [1, {len(specs) - 1}] for suite '{suite}'"
        )
    cfg = build_policy_config(net_params)
    pre_specs = specs[:pretrain_tasks]
    pretrain = generate_demos(pre_specs, demos_per_task, seed)
    policy = FactorizedPolicy(
        obs_dim=pretrain.state_dim, action_dim=pretrain.action_dim, config=cfg, seed=seed
    )
    policy.fit(pretrain, epochs=epochs, batch_size=batch_size, seed=seed)

    stages = [
        (spec, generate_demos([spec], adapt_demos_per_task, Rng(seed).child(100 + i).seed % (2**31)))
        for i, spec in enumerate(specs[pretrain_tasks:])
    ]
    adapt_cfg = AdaptationConfig(
        strategy="new_module", epochs=adapt_epochs, batch_size=batch_size
    )

    def eval_fn(p, seen):
        return evaluate(p, seen, episodes_per_task=eval_episodes, seeds=(seed,)).to_json()

    log = continual_adapt(policy, pre_specs, stages, adapt_cfg, seed=seed, evaluate_fn=eval_fn)
    out = Path(out_dir)
    write_outputs(out, {"continual_log.json": log.to_json()})
    policy.save(out / "checkpoint.json")
    click.echo(
        f"continual run over {len(specs)} tasks finished with "
        f"{policy.n_components} components"
    )


@cli.command("analyze")
@config_option
@click.option("--checkpoint", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--demos", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Probe episodes for the similarity matrix.")
@click.option("--probes", type=POSITIVE, default=256, show_default=True)
@click.option("--suite", type=SUITE, default=None,
              help="Run per-component solo rollouts on task 0.")
@click.option("--logs", multiple=True, type=click.Path(exists=True, dir_okay=False),
              help="training_log.json files for a convergence table (repeatable).")
@seed_option
@out_dir_option
@runtime_errors_exit_3
def cmd_analyze(checkpoint, demos, probes, suite, logs, seed, out_dir):
    """Export similarity matrices, solo-rollout traces, and convergence tables."""
    files: dict = {}
    for flag, given in (("--demos", demos), ("--suite", suite)):
        if given and not checkpoint:
            raise click.UsageError(f"{flag} needs --checkpoint")
    if demos or suite:
        policy = FactorizedPolicy.load(checkpoint)
    if demos:
        dataset = EpisodeDataset.load(demos)
        probe_set = build_probe_set(policy, dataset, n=probes, seed=seed)
        sim = score_similarity(policy, probe_set)
        files["similarity.json"] = sim.to_json()
        files["similarity.csv"] = sim.to_csv()
    if suite:
        spec = make_suite(suite)[0]
        solo = []
        for i in range(policy.n_components):
            r = solo_rollout(policy, i, PointMassEnv(spec), Rng(seed).child(i))
            solo.append(
                {
                    "component": i,
                    "task": spec.task,
                    "success": r.success,
                    "steps": len(r.trajectory),
                    "positions": [obs.tolist() for obs, _ in r.trajectory],
                }
            )
        files["solo_rollouts.json"] = solo
    if logs:
        loaded = [read_json(path, "training log", TrainingLog.from_json) for path in logs]
        labels = [Path(p).parent.name or f"run_{i}" for i, p in enumerate(logs)]
        if len(set(labels)) != len(labels):
            labels = [f"run_{i}" for i in range(len(logs))]
        table = convergence_report(loaded, labels=labels)
        files["convergence.json"] = table.to_json()
        files["convergence.csv"] = table.to_csv()
    if not files:
        raise click.UsageError("nothing to analyze: give --demos, --suite, or --logs")
    write_outputs(Path(out_dir), files)
    click.echo(f"wrote {', '.join(sorted(files))} to {out_dir}")


def main():
    cli(prog_name="fdp")


if __name__ == "__main__":
    main()
