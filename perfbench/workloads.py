"""The benchmark workloads, each a closed loop with one client.

Every workload has a set-up, repeated to time it, and a round, repeated for
the measured seconds. A round's inputs depend only on the workload seed, so
every round of a run must produce the same bytes; ``run.py`` checks that.

Operations are counted for ``ops_failed_ratio``: an evaluation episode, a
fit, or a CLI command. An operation fails if it raises, exits non-zero or
fails its correctness gate.
"""

from __future__ import annotations

import json
import math
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import fdp.bench
import fdp.cli
from fdp.bench import make_suite, merge_datasets
from fdp.policy import FactorizedPolicy, PolicyConfig, canonical_json

# The configuration of the acceptance suite's multitask studies.
ACCEPTANCE_CONFIG = dict(
    n_components=4,
    diffusion_steps=50,
    obs_embed_dim=32,
    denoiser_hidden=(24, 24),
    router_hidden=(32,),
)
DEMO_SEED = 100
BATCH_SIZE = 96
# Policies are fixed, as in the acceptance suite. Seeding the policy would
# change its success rate, and with it the number of inferences per round,
# by 6% and more from seed to seed.
POLICY_SEED = 0
FIT_SEED = 0
# Both workloads evaluate on fixed episode streams. Episode latency is close
# to a whole number of inferences: on eval-small 48% of episodes take 2 and
# 32% take 3, so the median episode sits on that step, and the 90th
# percentile on the step to failed episodes. Streams drawn from the workload
# seed moved episode_ms.p50 and .p90 by up to 20% from seed to seed. The
# workload seed orders eval-small's tasks and draws adapt-cli's analysis
# probes and solo-rollout streams.
EVAL_SEED = 0

SIZES = {
    "full": dict(
        setup_repeats=5,
        demos_per_task=25,
        fixture_epochs=60,
        eval_episodes=40,
        cli_train_epochs=5,
        cli_adapt_demos=10,
        cli_adapt_epochs=20,
        cli_replay_per_task=5,
        cli_episodes=6,
        cli_probes=256,
    ),
    "tiny": dict(
        setup_repeats=1,
        demos_per_task=2,
        fixture_epochs=2,
        eval_episodes=1,
        cli_train_epochs=1,
        cli_adapt_demos=2,
        cli_adapt_epochs=1,
        cli_replay_per_task=1,
        cli_episodes=1,
        cli_probes=4,
    ),
}


class OpFailed(RuntimeError):
    """An operation raised; it has already been counted as failed."""


class Ops:
    """Operation accounting for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, weight: int, fn, gate=None):
        """Run fn() as `weight` operations; gate(result) lists problems.

        Returns fn's result; raises OpFailed if fn raised.
        """
        self.attempted += weight
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(label, weight, f"{type(exc).__name__}: {exc}")
            raise OpFailed(label) from exc
        try:
            problems = gate(result) if gate else []
        except Exception as exc:  # noqa: BLE001 - a broken artifact fails the gate
            problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(label, weight, "; ".join(problems))
        return result

    def fail(self, label: str, weight: int, problem: str) -> None:
        self.failed += weight
        self.problems.append(f"{label}: {problem}")


@dataclass
class Round:
    """What one set-up or round produced."""

    outputs: dict = field(default_factory=dict)  # name -> deterministic bytes
    quality: dict = field(default_factory=dict)  # success_rate, final_val_mse
    weight: int = 0  # operations it counted


class Context:
    """Hooks the harness passes to workloads; no-ops unless a tracer is set."""

    tracer = None

    def span(self, op):
        return self.tracer.span(op) if self.tracer else nullcontext()

    def count(self, key, n):
        if self.tracer:
            self.tracer.add(key, n)


def _table_gate(table, n_tasks):
    problems = []
    if len(table.tasks) != n_tasks:
        problems.append(f"success table has {len(table.tasks)} tasks, expected {n_tasks}")
    rates = [r for t in table.tasks for r in table.per_seed[t]] + [table.average()]
    if not all(0.0 <= r <= 1.0 for r in rates):
        problems.append("success rate outside [0, 1]")
    return problems


def _log_gate(entries, epochs):
    problems = []
    if len(entries) != epochs:
        problems.append(f"training log has {len(entries)} epochs, expected {epochs}")
    values = [v for e in entries for v in (e["train_mse"], e["val_mse"])]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite loss in training log")
    return problems


def _fit_outputs(policy) -> dict:
    return {
        "checkpoint.json": canonical_json(policy.to_json()).encode(),
        "training_log.json": canonical_json(policy.training_log_.to_json()).encode(),
    }


def multitask_demos(size):
    per_task = size["demos_per_task"]
    return merge_datasets(
        fdp.bench.generate_demos("reach4", per_task, seed=DEMO_SEED),
        fdp.bench.generate_demos("pick-side", per_task, seed=DEMO_SEED),
    )


def multitask_specs():
    return make_suite("reach4") + make_suite("pick-side")


def fit_acceptance_policy(demos, epochs):
    policy = FactorizedPolicy(
        obs_dim=demos.state_dim,
        action_dim=demos.action_dim,
        config=PolicyConfig(**ACCEPTANCE_CONFIG),
        seed=POLICY_SEED,
    )
    return policy.fit(demos, epochs=epochs, batch_size=BATCH_SIZE, seed=FIT_SEED)


class EvalSmall:
    """Rollouts of a fixture policy at the acceptance config: `evaluate` over
    reach4 + pick-side, in an order drawn from the workload seed, with full
    composition. Overhead-bound at 24x24. The
    set-up fit is joint training from scratch with every group trainable,
    which gives the workload its training metrics."""

    name = "eval-small"
    kernel = "small"  # speed.py reference kernel

    def __init__(self, size, seed, workdir, ctx):
        self.size, self.seed, self.ctx = size, seed, ctx
        specs = multitask_specs()
        order = np.random.default_rng(seed).permutation(len(specs))
        self.specs = [specs[i] for i in order]
        self.policy = None

    def setup(self, ops: Ops) -> Round:
        epochs = self.size["fixture_epochs"]
        demos = ops.run("generate_demos", 0, lambda: multitask_demos(self.size))
        self.policy = ops.run(
            "fixture fit",
            1,
            lambda: fit_acceptance_policy(demos, epochs),
            lambda p: _log_gate(p.training_log_.entries, epochs),
        )
        log = self.policy.training_log_
        return Round(
            outputs=_fit_outputs(self.policy),
            quality={"final_val_mse": log.entries[-1]["val_mse"]},
            weight=1,
        )

    def round(self, ops: Ops) -> Round:
        n = len(self.specs) * self.size["eval_episodes"]
        table = ops.run(
            "evaluate",
            n,
            lambda: fdp.bench.evaluate(
                self.policy,
                self.specs,
                episodes_per_task=self.size["eval_episodes"],
                seeds=(EVAL_SEED,),
                jobs=1,
            ),
            lambda t: _table_gate(t, len(self.specs)),
        )
        return Round(
            outputs={"success_table.json": canonical_json(table.to_json()).encode()},
            quality={"success_rate": table.average()},
            weight=n,
        )


def similarity_gate(path: Path, n_components: int, n_probes: int) -> list[str]:
    sim = json.loads(path.read_text())
    v = np.asarray(sim["similarity"])
    problems = []
    if v.shape != (n_components, n_components):
        return [f"similarity matrix shape {v.shape}, expected {n_components}x{n_components}"]
    if not np.allclose(v, v.T, atol=1e-12):
        problems.append("similarity matrix not symmetric")
    if np.any(np.abs(np.diag(v) - 1.0) > 1e-9):
        problems.append("similarity diagonal not 1")
    if np.any(np.abs(v) > 1.0 + 1e-9):
        problems.append("similarity outside [-1, 1]")
    if sim["n_probes"] + sim["skipped"] != n_probes:
        problems.append("similarity probe count does not add up")
    return problems


class AdaptCli:
    """The README's adaptation pipeline through the `fdp` command, in
    process, at the CLI default config (N=4 grown to 5, 256x256, K=100)."""

    name = "adapt-cli"
    kernel = "small+blas"  # speed.py reference kernel
    COMPONENTS_AFTER = 5  # CLI default of 4, plus the upcycled one

    def __init__(self, size, seed, workdir, ctx):
        self.size, self.seed, self.ctx = size, seed, ctx
        self.dir = Path(workdir)
        self.runner = CliRunner()

    def cli(self, ops: Ops, args: list[str], artifacts: list[Path], gate=None):
        """One `fdp` command as one operation; gate(artifacts) adds checks."""

        def invoke():
            with self.ctx.span(f"cli.command.{args[0]}"):
                return self.runner.invoke(fdp.cli.cli, args, catch_exceptions=True)

        def check(result):
            if result.exit_code != 0:
                detail = result.output.strip().splitlines()[-1:] or [repr(result.exception)]
                return [f"exit code {result.exit_code}: {detail[0]}"]
            missing = [str(p) for p in artifacts if not p.is_file()]
            if missing:
                return [f"missing artifacts {missing}"]
            return gate() if gate else []

        ops.run(f"fdp {args[0]}", 1, invoke, check)

    def setup(self, ops: Ops) -> Round:
        s = self.size
        d = self.dir / "setup"
        shutil.rmtree(d, ignore_errors=True)
        self.reach, self.pick, self.base = d / "reach4.jsonl", d / "pick.jsonl", d / "base"
        self.cli(ops, ["gen-demos", "--suite", "reach4", "--per-task",
                       str(s["demos_per_task"]), "--seed", str(DEMO_SEED),
                       "--out", str(self.reach)], [self.reach])
        self.cli(ops, ["gen-demos", "--suite", "pick-side", "--per-task",
                       str(s["cli_adapt_demos"]), "--seed", str(DEMO_SEED + 1),
                       "--out", str(self.pick)], [self.pick])
        log = self.base / "training_log.json"
        self.cli(
            ops,
            ["train", "--demos", str(self.reach), "--epochs", str(s["cli_train_epochs"]),
             "--seed", str(FIT_SEED), "--out-dir", str(self.base)],
            [self.base / "checkpoint.json", log],
            lambda: _log_gate(json.loads(log.read_text())["entries"], s["cli_train_epochs"]),
        )
        files = [self.reach, self.pick, self.base / "checkpoint.json", log]
        return Round(outputs=_read(self.dir, files), weight=3)

    def round(self, ops: Ops) -> Round:
        s = self.size
        d = self.dir / "round"
        shutil.rmtree(d, ignore_errors=True)
        adapted, analysis = d / "adapted", d / "analysis"
        ckpt, adapt_log = adapted / "checkpoint.json", adapted / "adaptation_log.json"

        def adapt_gate():
            log = json.loads(adapt_log.read_text())
            problems = []
            if not log["frozen_checksums_before"]:
                problems.append("no frozen groups recorded")
            if log["frozen_checksums_before"] != log["frozen_checksums_after"]:
                problems.append("frozen checksums changed")
            return problems + _log_gate(log["training"]["entries"], s["cli_adapt_epochs"])

        self.cli(
            ops,
            ["adapt", "--checkpoint", str(self.base / "checkpoint.json"),
             "--demos", str(self.pick), "--replay-demos", str(self.reach),
             "--replay-per-task", str(s["cli_replay_per_task"]), "--strategy", "new_module",
             "--epochs", str(s["cli_adapt_epochs"]), "--seed", str(FIT_SEED),
             "--out-dir", str(adapted)],
            [ckpt, adapt_log],
            adapt_gate,
        )
        tables = []
        for suite in ("reach4", "pick-side"):
            table = d / f"eval-{suite}" / "success_table.json"
            tables.append(table)
            self.cli(
                ops,
                ["eval", "--checkpoint", str(ckpt), "--suite", suite,
                 "--episodes", str(s["cli_episodes"]), "--seeds", str(EVAL_SEED),
                 "--top-k", "2", "--out-dir", str(table.parent)],
                [table],
                lambda table=table: self._success_gate(table),
            )
        sim, solo = analysis / "similarity.json", analysis / "solo_rollouts.json"
        self.cli(
            ops,
            ["analyze", "--checkpoint", str(ckpt), "--demos", str(self.pick),
             "--probes", str(s["cli_probes"]), "--suite", "pick-side",
             "--seed", str(self.seed), "--out-dir", str(analysis)],
            [sim, solo],
            lambda: similarity_gate(sim, self.COMPONENTS_AFTER, s["cli_probes"])
            + self._solo_gate(solo),
        )
        written = sum(p.stat().st_size for p in d.rglob("*") if p.is_file())
        self.ctx.count("cli.bytes_written", written)
        files = [ckpt, adapt_log, *tables, sim, solo]
        outputs = _read(self.dir, files)
        success = [
            t["mean_success"] for path in tables if path.is_file()
            for t in json.loads(path.read_text())["tasks"]
        ]
        quality = {"success_rate": float(np.mean(success)) if success else None}
        if adapt_log.is_file():
            entries = json.loads(adapt_log.read_text())["training"]["entries"]
            quality["final_val_mse"] = entries[-1]["val_mse"]
        return Round(outputs=outputs, quality=quality, weight=4)

    def _success_gate(self, path):
        table = json.loads(path.read_text())
        rates = [t["mean_success"] for t in table["tasks"]] + [table["average"]]
        return [] if all(0.0 <= r <= 1.0 for r in rates) else ["success rate outside [0, 1]"]

    def _solo_gate(self, path):
        solo = json.loads(path.read_text())
        if len(solo) != self.COMPONENTS_AFTER:
            return [f"{len(solo)} solo rollouts, expected {self.COMPONENTS_AFTER}"]
        return []


def _read(base: Path, paths) -> dict:
    return {str(p.relative_to(base)): p.read_bytes() for p in paths if p.is_file()}


WORKLOADS = {w.name: w for w in (EvalSmall, AdaptCli)}
