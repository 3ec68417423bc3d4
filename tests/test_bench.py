"""Benchmark suite: envs, scripted experts, demo generation, evaluation."""

import copy
import dataclasses
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdp.bench
from fdp.bench import (
    DemoGenerationError,
    EpisodeDataset,
    ExpertPolicy,
    PointMassEnv,
    UnknownSuiteError,
    evaluate,
    expert_latch,
    generate_demos,
    make_suite,
    merge_datasets,
    run_expert_episode,
    sample_replay,
    scripted_expert,
)
from fdp.numerics import Rng
from fdp.policy import FactorizedPolicy, PolicyConfig, canonical_json, rollout

from .oracles import point_mass_loop


# ---------------------------------------------------------------------------
# make_suite
# ---------------------------------------------------------------------------


def test_reach4_has_exactly_four_tasks():
    specs = make_suite("reach4")
    assert len(specs) == 4
    assert len({s.task for s in specs}) == 4


def test_suite_sizes():
    assert len(make_suite("pick-side")) == 2
    assert len(make_suite("drawer-line")) == 2
    assert len(make_suite("bimodal1d")) == 1
    assert len(make_suite("continual12")) == 12


def test_unknown_suite_lists_available():
    with pytest.raises(UnknownSuiteError, match="reach4"):
        make_suite("warehouse")


def test_success_predicate_false_on_initial_state():
    for name in ("reach4", "pick-side", "drawer-line", "bimodal1d", "continual12"):
        for spec in make_suite(name):
            env = PointMassEnv(spec)
            env.reset(Rng(0))
            assert not env.success, spec.task


@pytest.mark.parametrize("name", ["reach4", "pick-side", "drawer-line", "bimodal1d"])
def test_scripted_expert_success_rate(name):
    for spec in make_suite(name):
        hits = sum(
            run_expert_episode(spec, Rng(stream).child(3, spec.task_index)).success
            for stream in range(100)
        )
        assert hits >= 95, f"{spec.task}: {hits}/100"


# ---------------------------------------------------------------------------
# dynamics and success latching
# ---------------------------------------------------------------------------


def test_dynamics_deterministic_given_state_and_action():
    spec = make_suite("reach4")[0]
    a = np.array([0.3, -0.7])
    states = []
    for _ in range(2):
        env = PointMassEnv(spec)
        env.reset(Rng(11))
        for _ in range(5):
            env.step(a)
        states.append(env.pos.copy())
    np.testing.assert_array_equal(states[0], states[1])


@pytest.mark.parametrize("suite", ["reach4", "pick-side", "drawer-line", "bimodal1d"])
def test_env_trajectory_matches_the_textbook_loop_bit_for_bit(suite):
    # a signed-zero step, each task's expert actions from the same start (so
    # success latches) with saturated entries tripled, past the unit box,
    # then random steps of up to about 2 past it
    for spec in make_suite(suite):
        rng = Rng(9).child(spec.task_index)
        demo = run_expert_episode(spec, rng)
        tail = Rng(4).gaussian(8 * spec.action_dim).reshape(8, spec.action_dim) * 2.0
        expert = np.where(np.abs(demo.actions) == 1.0, 3.0 * demo.actions, demo.actions)
        actions = [np.full(spec.action_dim, -0.0), *expert, *tail]
        env = PointMassEnv(spec)
        env.reset(rng.child(0))  # the start the expert's rollout drew
        expected = point_mass_loop(spec, env.pos, actions, fdp.bench.VMAX, fdp.bench.DT)
        for action, (obs, success) in zip(actions, expected):
            assert env.step(action).tobytes() == obs.tobytes()
            assert env.success == success
        assert env.success


def test_velocity_clamp_bounds_motion():
    spec = make_suite("reach4")[0]
    env = PointMassEnv(spec)
    env.reset(Rng(0))
    before = env.pos.copy()
    env.step(np.array([10.0, -10.0]))  # clamped to the unit box
    assert np.all(np.abs(env.pos - before) <= 0.1 + 1e-12)


def test_success_latches_and_stays():
    spec = make_suite("bimodal1d")[0]
    env = PointMassEnv(spec)
    env.reset(Rng(1))
    ctrl = ExpertPolicy().episode_controller(env, Rng(2))
    obs = env.observation()
    for _ in range(spec.max_steps):
        obs = env.step(ctrl.action(obs)[0])
    assert env.success
    # keep stepping away from the goal; the latch must persist
    for _ in range(5):
        env.step(np.array([1.0]))
    assert env.success


# ---------------------------------------------------------------------------
# scripted_expert
# ---------------------------------------------------------------------------


def test_expert_near_zero_action_at_goal():
    spec = make_suite("reach4")[0]
    state = np.concatenate([spec.layout["goal"], spec.layout["object"], spec.layout["goal"]])
    a = scripted_expert(spec, state, {})
    assert np.linalg.norm(a) < 1e-9


def test_expert_actions_within_bounds_always():
    rng = Rng(40)
    for name in ("reach4", "pick-side", "drawer-line", "bimodal1d"):
        for spec in make_suite(name):
            ep = run_expert_episode(spec, rng.child(spec.task_index))
            assert np.all(np.abs(ep.actions) <= 1.0 + 1e-12)


def test_pick_side_mode_frequencies_balanced():
    spec = make_suite("pick-side")[0]
    sides = [expert_latch(spec, Rng(0).child(i))["side"] for i in range(1000)]
    frac_left = np.mean([s < 0 for s in sides])
    assert 0.4 <= frac_left <= 0.6


def test_pick_side_probe_state_actions_form_two_clusters():
    # silhouette with known mode labels at the fixed initial probe state
    spec = make_suite("pick-side")[0]
    probe = np.concatenate([[0.0, 0.0], spec.layout["object"], spec.layout["goal"]])
    actions, labels = [], []
    for i in range(400):
        latch = expert_latch(spec, Rng(1).child(i))
        actions.append(scripted_expert(spec, probe, dict(latch)))
        labels.append(latch["side"])
    actions = np.asarray(actions)
    labels = np.asarray(labels)
    sil = []
    for i in range(len(actions)):
        same = actions[(labels == labels[i])]
        other = actions[(labels != labels[i])]
        a = np.mean(np.linalg.norm(same - actions[i], axis=1))
        b = np.mean(np.linalg.norm(other - actions[i], axis=1))
        sil.append((b - a) / max(a, b))
    assert np.mean(sil) > 0.5


# ---------------------------------------------------------------------------
# generate_demos / dataset files
# ---------------------------------------------------------------------------


def test_generate_demos_counts_and_success_filter():
    ds = generate_demos("reach4", per_task=25, seed=7)
    assert len(ds.episodes) == 100
    assert all(ep.success for ep in ds.episodes)
    by_task = ds.episodes_by_task()
    assert all(len(v) == 25 for v in by_task.values())


def test_generate_demos_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    generate_demos("bimodal1d", per_task=10, seed=3).save(p1)
    generate_demos("bimodal1d", per_task=10, seed=3).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != generate_demos("bimodal1d", 10, 4).save(p2) or True


def test_dataset_round_trip(tmp_path):
    ds = generate_demos("drawer-line", per_task=5, seed=1)
    path = tmp_path / "demos.jsonl"
    ds.save(path)
    back = EpisodeDataset.load(path)
    assert back.suite == ds.suite
    assert len(back.episodes) == len(ds.episodes)
    assert back.normalizer.to_json() == ds.normalizer.to_json()
    np.testing.assert_array_equal(
        back.episodes[0].actions, ds.episodes[0].actions
    )


def _saved(dataset):
    """The lines ``save`` writes for dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset.save(Path(tmp) / "demos.jsonl")
        return (Path(tmp) / "demos.jsonl").read_text().splitlines()


def _rewrite_dataset(path, header=None, episode=None):
    """Rewrite a saved dataset, updating its header and every episode record."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[0].update(header or {})
    for rec in lines[1:]:
        for key, fn in (episode or {}).items():
            rec[key] = fn(rec[key])
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))


@pytest.mark.parametrize(
    "header, episode, message",
    [
        ({"version": 99}, None, "'version' is 99"),
        ({"state_dim": 3}, None, "'observations' has shape .*'state_dim' is 3"),
        (None, {"actions": lambda a: [row + [0.0] for row in a]}, "'actions' has shape"),
        (
            {"normalizer": {"lo": [-1.0] * 3, "hi": [1.0] * 3}},
            None,
            r"'normalizer' has 'lo' of shape \(3,\).*'action_dim' is 2",
        ),
    ],
)
def test_dataset_load_rejects_header_mismatch(tmp_path, header, episode, message):
    path = tmp_path / "demos.jsonl"
    generate_demos("reach4", per_task=1, seed=1).save(path)
    _rewrite_dataset(path, header, episode)
    with pytest.raises(ValueError, match=message):
        EpisodeDataset.load(path)


def _without(rec, key):
    rec = dict(rec)
    del rec[key]
    return json.dumps(rec)


# one line of a saved dataset (0-based: the header, then the episodes)
# rewritten in one way, and the start of the error naming its file line and
# field
DATASET_LINE_MUTATIONS = {
    "malformed line": (2, lambda rec: json.dumps(rec)[:-5], "dataset line 3: "),
    "not an object": (2, lambda rec: json.dumps([rec]), "dataset line 3: expected a JSON object"),
    "missing actions": (
        2, lambda rec: _without(rec, "actions"), "line 3: field 'actions' is missing"
    ),
    "missing task_id": (
        2, lambda rec: _without(rec, "task_id"), "line 3: field 'task_id' is missing"
    ),
    "string task_id": (
        2,
        lambda rec: json.dumps({**rec, "task_id": str(rec["task_id"])}),
        "dataset line 3: field 'task_id' is '1', not an int",
    ),
    "float task_id": (
        2,
        lambda rec: json.dumps({**rec, "task_id": 1.0}),
        "dataset line 3: field 'task_id' is 1.0, not an int",
    ),
    "text observations": (
        2,
        lambda rec: json.dumps({**rec, "observations": "x"}),
        "dataset line 3: ",
    ),
    "ragged actions": (
        2,
        lambda rec: json.dumps({**rec, "actions": [[0.0], *rec["actions"][1:]]}),
        "dataset line 3: ",
    ),
    "malformed header": (0, lambda rec: json.dumps(rec)[:-5], "dataset line 1: "),
    "header without suite": (
        0, lambda rec: _without(rec, "suite"), "dataset line 1: field 'suite' is missing"
    ),
    "header with an unknown key": (
        0, lambda rec: json.dumps({**rec, "bogus": 1}), "dataset line 1: unknown key 'bogus'"
    ),
    "header normalizer not an object": (
        0,
        lambda rec: json.dumps({**rec, "normalizer": [rec["normalizer"]]}),
        "dataset line 1: field 'normalizer': expected a JSON object",
    ),
}


@pytest.mark.parametrize("case", DATASET_LINE_MUTATIONS)
def test_dataset_load_names_the_line_and_field(tmp_path, case):
    path = tmp_path / "demos.jsonl"
    generate_demos("reach4", per_task=1, seed=1).save(path)
    lines = path.read_text().splitlines()
    line, mutate, message = DATASET_LINE_MUTATIONS[case]
    lines[line] = mutate(json.loads(lines[line]))
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            EpisodeDataset.load(path)


DELETE, EXTRA = object(), object()  # delete the field; add key 'extra' to an object, 1 to a list
SMALL_DATASET = [json.loads(line) for line in _saved(generate_demos("bimodal1d", 1, seed=1))]


def _dataset_fields(node, path=()):
    """(path, value) of every field of a dataset line, but only the first
    row and entry of an episode's observations and actions."""
    yield path, node
    if isinstance(node, dict):
        entries = node.items()
    elif isinstance(node, list):
        entries = enumerate(node[:1] if path[0] in ("observations", "actions") else node)
    else:
        return
    for key, value in entries:
        yield from _dataset_fields(value, (*path, key))


# each field of the header line (0) and of the episode line (1) set to a
# wrong type, None, a bool, a non-integral, non-finite, negative or huge
# number, deleted, or given an extra entry
DATASET_CASES = [
    (line, path, value)
    for line, rec in enumerate(SMALL_DATASET)
    for path, node in _dataset_fields(rec)
    for value in ("x", None, True, 1.5, float("inf"), float("nan"), -1, 2**64, DELETE, EXTRA)
    if (value is EXTRA and isinstance(node, (dict, list))) or (path and value is not EXTRA)
]


@settings(max_examples=len(DATASET_CASES), derandomize=True, deadline=None)
@given(case=st.sampled_from(DATASET_CASES))
@example(case=(0, ("state_dim",), 2**64))  # checked against the episodes' rows
@example(case=(1, ("observations", 0, 0), True))  # would write back 1.0
def test_a_mutated_dataset_line_names_the_field_or_round_trips(case):
    line, path, value = case
    lines = copy.deepcopy(SMALL_DATASET)
    parent = lines[line]
    for key in path[:-1]:
        parent = parent[key]
    if value is EXTRA:
        node = parent[path[-1]] if path else parent
        node.append(1) if isinstance(node, list) else node.update(extra=1)
    elif value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    text = "".join(canonical_json(rec) + "\n" for rec in lines)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        src, out = Path(tmp) / "in.jsonl", Path(tmp) / "out.jsonl"
        src.write_text(text)
        try:
            back = EpisodeDataset.load(src)
        except ValueError as exc:
            assert re.search(r"dataset line \d+: ", str(exc))
            assert (path[:1] or ("extra",))[0] in str(exc)
        else:
            back.save(out)
            assert out.read_text() == text


def test_generate_demos_error_names_task():
    # a goal out of reach in the family's step budget, so the expert cannot finish
    spec = make_suite("reach4")[0]
    crippled = dataclasses.replace(spec, layout={**spec.layout, "goal": [9.0, 0.0]})
    with pytest.raises(DemoGenerationError, match="reach-E"):
        generate_demos([crippled], per_task=2, seed=0)


def test_sample_replay_counts():
    ds = generate_demos("reach4", per_task=25, seed=7)
    buf = sample_replay(ds, per_task=5, seed=1)
    assert len(buf.episodes) == 20
    assert all(len(v) == 5 for v in buf.episodes_by_task().values())


def test_merge_datasets_concatenates():
    a = generate_demos("reach4", per_task=2, seed=0)
    b = generate_demos("pick-side", per_task=2, seed=0)
    merged = merge_datasets(a, b)
    assert len(merged.episodes) == len(a.episodes) + len(b.episodes)
    assert len(merged.episodes_by_task()) == 6


# ---------------------------------------------------------------------------
# rollout / evaluate harness
# ---------------------------------------------------------------------------


def test_expert_rollout_succeeds_and_traces_nothing():
    spec = make_suite("reach4")[1]
    result = rollout(ExpertPolicy(), PointMassEnv(spec), Rng(5))
    assert result.success
    assert result.weight_trace == []
    assert len(result.trajectory) <= spec.max_steps


def test_rollout_propagates_env_fault_with_step_index():
    spec = make_suite("reach4")[0]

    class Flaky(PointMassEnv):
        def step(self, action):
            if self.steps == 3:
                raise RuntimeError("actuator fault")
            return super().step(action)

    with pytest.raises(RuntimeError, match="step 3"):
        rollout(ExpertPolicy(), Flaky(spec), Rng(1))


def test_policy_rollout_trace_length_matches_inference_count():
    spec = make_suite("bimodal1d")[0]
    ds = generate_demos("bimodal1d", per_task=3, seed=0)
    policy = FactorizedPolicy(
        obs_dim=3,
        action_dim=1,
        config=PolicyConfig(
            n_components=2,
            diffusion_steps=10,
            denoiser_hidden=(16,),
            router_hidden=(8,),
            obs_embed_dim=8,
        ),
        seed=0,
    )
    policy.fit(ds, epochs=1, batch_size=16, seed=0)
    result = rollout(policy, PointMassEnv(spec), Rng(3))
    steps = len(result.trajectory)
    assert len(result.weight_trace) == int(np.ceil(steps / policy.config.t_exec))
    for w in result.weight_trace:
        assert w.sum() == pytest.approx(1.0, abs=1e-6)


def test_evaluate_expert_wrapped_policy():
    table = evaluate(ExpertPolicy(), "drawer-line", episodes_per_task=10, seeds=(0, 1))
    for task in table.tasks:
        assert table.mean(task) >= 0.95
    assert table.average() >= 0.95


def test_evaluate_untrained_policy_near_zero_on_reach4():
    ds = generate_demos("reach4", per_task=2, seed=0)
    policy = FactorizedPolicy(
        obs_dim=6,
        action_dim=2,
        config=PolicyConfig(
            n_components=2,
            diffusion_steps=10,
            denoiser_hidden=(16,),
            router_hidden=(8,),
            obs_embed_dim=8,
        ),
        seed=1,
    )
    policy.fit(ds, epochs=0, batch_size=8, seed=0)  # normalizer only, no updates
    table = evaluate(policy, "reach4", episodes_per_task=10, seeds=(0,))
    assert table.average() <= 0.10


def test_evaluate_rollout_accounting_and_determinism():
    table1 = evaluate(ExpertPolicy(), "bimodal1d", episodes_per_task=8, seeds=(0, 1, 2))
    table2 = evaluate(ExpertPolicy(), "bimodal1d", episodes_per_task=8, seeds=(0, 1, 2))
    assert table1.to_json() == table2.to_json()
    assert len(table1.per_seed["bimodal"]) == 3


def test_evaluate_parallel_jobs_match_serial():
    table1 = evaluate(ExpertPolicy(), "drawer-line", episodes_per_task=4, seeds=(0, 1))
    table2 = evaluate(
        ExpertPolicy(), "drawer-line", episodes_per_task=4, seeds=(0, 1), jobs=2
    )
    assert table1.to_json() == table2.to_json()


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"episodes_per_task": 0}, "episodes_per_task"),
        ({"episodes_per_task": -2}, "episodes_per_task"),
        ({"seeds": ()}, "seeds"),
        ({"seeds": []}, "seeds"),
    ],
)
def test_evaluate_rejects_no_episodes_or_no_seeds(kwargs, name):
    # before: 0 episodes gave 0.0 success, and no seed NaN averages with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must"):
            evaluate(ExpertPolicy(), "bimodal1d", **{"episodes_per_task": 1, "seeds": [0]} | kwargs)


def test_evaluate_starts_at_most_one_worker_per_unit(monkeypatch):
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            return map(fn, units)

    monkeypatch.setattr(fdp.bench, "ProcessPoolExecutor", RecordingPool)
    for seeds in ((0,), (0, 1)):
        evaluate(ExpertPolicy(), "bimodal1d", episodes_per_task=1, seeds=seeds, jobs=8)
    assert workers == [2]  # one unit runs in process; two units get two workers


def test_success_table_serialization():
    table = evaluate(ExpertPolicy(), "bimodal1d", episodes_per_task=4, seeds=(0, 1))
    js = table.to_json()
    assert {"tasks", "average", "seeds", "per_seed"} <= set(js)
    csv = table.to_csv()
    assert csv.startswith("task,mean_success,stderr")
    assert csv.strip().splitlines()[-1].startswith("average,")
