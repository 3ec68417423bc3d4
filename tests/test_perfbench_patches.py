"""The benchmark's instrumentation still fits the package.

perfbench patches wrappers onto fdp's modules and classes by name. A renamed
or deleted name would crash every benchmark run, so this installs both patch
layers (without running anything) and checks that each one found its targets
and that every patched attribute is restored afterwards. A tiny fit and
evaluation under both layers check that what they count, training batches
and acts alike, still happens through the names they wrap, and a tiny CLI
chain under the tracer checks that every name it wraps is still called, so
that a per-layer metric cannot silently read zero.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import fdp.bench
from fdp.cli import cli
from fdp.policy import FactorizedPolicy, PolicyConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    """Every fdp module and every class defined in one."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fdp"]
    classes = [
        obj
        for m in modules
        for obj in vars(m).values()
        if inspect.isclass(obj) and obj.__module__.startswith("fdp")
    ]
    return modules + classes


def _snapshot():
    return {id(owner): (owner, dict(vars(owner))) for owner in _owners()}


def _changed(before):
    """Names whose attribute was added, removed or replaced since before."""
    out = []
    for owner, attrs in before.values():
        now = vars(owner)
        for name in set(attrs) | set(now):
            if name not in attrs or name not in now or now[name] is not attrs[name]:
                out.append(f"{owner.__name__}.{name}")
    return out


@pytest.mark.parametrize("layer", ["probe", "tracer"])
def test_instrumentation_installs_and_restores(layer):
    instrument = _load("instrument")
    if layer == "probe":
        target = instrument.Probe(_load("speed").WallClock())
    else:
        target = instrument.Tracer()
    before = _snapshot()
    with instrument.installed(target.install):
        patched = _changed(before)
    assert patched, "no attribute was patched"
    assert _changed(before) == []


def test_the_probe_and_the_tracer_still_see_training():
    instrument = _load("instrument")
    probe, tracer = instrument.Probe(_load("speed").WallClock()), instrument.Tracer()
    ds = fdp.bench.generate_demos("bimodal1d", per_task=3, seed=1)
    cfg = PolicyConfig(
        n_components=2, diffusion_steps=5, obs_embed_dim=8, denoiser_hidden=(8,),
        router_hidden=(4,),
    )
    policy = FactorizedPolicy(ds.state_dim, ds.action_dim, cfg, seed=0)
    with instrument.installed(probe.install), instrument.installed(tracer.install):
        policy.fit(ds, epochs=2, batch_size=16, seed=0)
        fdp.bench.evaluate(policy, "bimodal1d", episodes_per_task=1, seeds=(0,), jobs=1)
    phase = tracer.take()
    batches = 2 * -(-policy.training_log_.n_train_windows // 16)
    assert probe.problems == []
    assert probe.counters()["epochs"] == 2 and probe.episodes > 0
    # one optimizer step and one joint_loss call per batch
    assert phase["counts"]["numerics.adam.steps"] == batches
    assert phase["calls"]["composition.joint_loss"] == batches
    assert phase["counts"]["numerics.backward.rows"] > 0
    # every act goes through the names the probe and the tracer wrap
    assert probe.inferences > 0 and len(probe.acts) == probe.inferences
    assert phase["calls"]["composition.sample_values"] == probe.inferences
    assert phase["calls"]["diffusion.reverse_mean"] == cfg.diffusion_steps * probe.inferences


# Wrapped on purpose though no command reaches them: the chain composes
# noise predictions in ComponentBank, not through composed_score or
# DenoiserComponent.predict.
IDLE_OPS = {"composition.composed_score", "policy.denoiser_predict"}


def test_every_op_the_tracer_wraps_records_a_call_in_a_cli_chain(tmp_path):
    instrument = _load("instrument")
    tracer = instrument.Tracer()
    net = ["--components", "2", "--diffusion-steps", "3", "--obs-embed-dim", "4",
           "--denoiser-hidden", "4", "--router-hidden", "4", "--t-pred", "4", "--t-exec", "2"]
    reach, pick, train = tmp_path / "reach.jsonl", tmp_path / "pick.jsonl", tmp_path / "train"
    adapted = tmp_path / "adapt"
    chain = [
        ["gen-demos", "--suite", "reach4", "--per-task", "1", "--seed", "1", "--out", reach],
        ["gen-demos", "--suite", "pick-side", "--per-task", "1", "--seed", "2", "--out", pick],
        ["train", "--demos", reach, *net, "--epochs", "1", "--out-dir", train],
        ["adapt", "--checkpoint", train / "checkpoint.json", "--demos", pick,
         "--replay-demos", reach, "--replay-per-task", "1", "--epochs", "1",
         "--out-dir", adapted],
        ["eval", "--checkpoint", adapted / "checkpoint.json", "--suite", "pick-side",
         "--episodes", "1", "--seeds", "0", "--top-k", "2", "--out-dir", tmp_path / "eval"],
        ["analyze", "--checkpoint", adapted / "checkpoint.json", "--demos", pick,
         "--probes", "4", "--suite", "pick-side", "--logs", train / "training_log.json",
         "--out-dir", tmp_path / "analysis"],
    ]
    runner = CliRunner()
    with instrument.installed(tracer.install):
        for args in chain:
            result = runner.invoke(cli, [str(a) for a in args])
            assert result.exit_code == 0, f"{args[0]}: {result.output}"
    calls = tracer.take()["calls"]
    assert IDLE_OPS <= set(calls)
    assert sorted(op for op, n in calls.items() if n == 0) == sorted(IDLE_OPS)
