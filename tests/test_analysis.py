"""Analysis tooling: solo rollouts, score similarity, convergence tables."""

import copy

import numpy as np
import pytest

from fdp.analysis import (
    ConvergenceTable,
    SimilarityMatrix,
    build_probe_set,
    convergence_report,
    one_hot,
    score_similarity,
    solo_rollout,
)
from fdp.bench import PointMassEnv, generate_demos, make_suite
from fdp.numerics import Rng
from fdp.policy import FactorizedPolicy, PolicyConfig, TrainingLog, rollout

from .oracles import probe_set_loop


SMALL = dict(
    diffusion_steps=10,
    obs_embed_dim=12,
    denoiser_hidden=(16,),
    router_hidden=(8,),
)


@pytest.fixture(scope="module")
def trained_pick():
    ds = generate_demos("pick-side", per_task=6, seed=21)
    policy = FactorizedPolicy(
        obs_dim=6, action_dim=2, config=PolicyConfig(n_components=3, **SMALL), seed=2
    )
    policy.fit(ds, epochs=15, batch_size=48, seed=2)
    return policy, ds


# ---------------------------------------------------------------------------
# solo_rollout
# ---------------------------------------------------------------------------


def test_solo_rollout_single_component_equals_normal_rollout():
    ds = generate_demos("bimodal1d", per_task=4, seed=5)
    policy = FactorizedPolicy(
        obs_dim=3, action_dim=1, config=PolicyConfig(n_components=1, **SMALL), seed=0
    )
    policy.fit(ds, epochs=2, batch_size=32, seed=0)
    spec = make_suite("bimodal1d")[0]
    a = solo_rollout(policy, 0, PointMassEnv(spec), Rng(7))
    b = rollout(policy, PointMassEnv(spec), Rng(7))
    assert a.success == b.success
    assert len(a.trajectory) == len(b.trajectory)
    for (_, a1), (_, a2) in zip(a.trajectory, b.trajectory):
        np.testing.assert_array_equal(a1, a2)


def test_solo_rollout_trace_is_constant_one_hot(trained_pick):
    policy, _ = trained_pick
    spec = make_suite("pick-side")[0]
    result = solo_rollout(policy, 1, PointMassEnv(spec), Rng(3))
    assert len(result.weight_trace) >= 1
    for w in result.weight_trace:
        np.testing.assert_array_equal(w, one_hot(1, 3))


def test_solo_rollout_does_not_mutate_policy(trained_pick):
    policy, _ = trained_pick
    before = policy.group_checksums()
    solo_rollout(policy, 2, PointMassEnv(make_suite("pick-side")[1]), Rng(4))
    assert policy.group_checksums() == before


def test_solo_rollout_components_differ_somewhere(trained_pick):
    policy, _ = trained_pick
    spec = make_suite("pick-side")[0]
    trajs = []
    for i in range(3):
        r = solo_rollout(policy, i, PointMassEnv(spec), Rng(11))
        trajs.append(np.concatenate([a for _, a in r.trajectory]))
    pairs = [(0, 1), (0, 2), (1, 2)]
    assert any(
        trajs[i].shape != trajs[j].shape or not np.allclose(trajs[i], trajs[j])
        for i, j in pairs
    )


def test_solo_rollout_bad_index(trained_pick):
    policy, _ = trained_pick
    with pytest.raises(IndexError):
        solo_rollout(policy, 3, PointMassEnv(make_suite("pick-side")[0]), Rng(0))


# ---------------------------------------------------------------------------
# score_similarity
# ---------------------------------------------------------------------------


def test_duplicate_components_give_unit_off_diagonal(trained_pick):
    policy, ds = trained_pick
    twin = copy.deepcopy(policy)
    twin.components = [twin.components[0], twin.components[0].copy()]
    twin.config.n_components = 2
    probes = build_probe_set(twin, ds, n=32, seed=0)
    sim = score_similarity(twin, probes)
    assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def set_constant_output(comp, out):
    """comp predicts out for every input: its last weight layer zeroed and
    its last bias set to out, through the live views of its parameters."""
    *_, weight, bias = comp.net.params().values()
    weight[...], bias[...] = 0.0, out


def test_orthogonal_constant_outputs_give_zero():
    policy = FactorizedPolicy(
        obs_dim=3, action_dim=1, config=PolicyConfig(n_components=2, **SMALL), seed=0
    )
    for i, comp in enumerate(policy.components):
        set_constant_output(comp, np.eye(16)[i])
    probes = [(np.zeros(6), np.zeros(16), 3)] * 4
    sim = score_similarity(policy, probes)
    assert sim.values[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_probe_set_equals_the_per_probe_loop(trained_pick):
    policy, ds = trained_pick
    got = build_probe_set(policy, ds, n=20, seed=4)
    want = probe_set_loop(policy, ds, n=20, seed=4)
    assert len(got) == len(want) == 20
    for (obs, noisy, k), (want_obs, want_noisy, want_k) in zip(got, want):
        np.testing.assert_array_equal(obs, want_obs)
        np.testing.assert_array_equal(noisy, want_noisy)
        assert type(k) is int and k == want_k


def test_similarity_invariants_on_trained_policy(trained_pick):
    policy, ds = trained_pick
    probes = build_probe_set(policy, ds, n=64, seed=3)
    sim = score_similarity(policy, probes)
    assert sim.values.shape == (3, 3)
    np.testing.assert_allclose(sim.values, sim.values.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(sim.values), 1.0, atol=1e-9)
    assert np.all(sim.values >= -1.0 - 1e-9) and np.all(sim.values <= 1.0 + 1e-9)
    off = sim.values[np.triu_indices(3, 1)]
    assert off.min() < off.max()  # non-degenerate spread
    assert sim.n_probes == 64 and sim.skipped == 0


@pytest.mark.parametrize("k", [0, 11])
def test_probe_step_outside_the_schedule_is_rejected(trained_pick, k):
    policy, ds = trained_pick
    obs, values, _ = build_probe_set(policy, ds, n=1, seed=0)[0]
    with pytest.raises(ValueError, match=rf"probe step {k} outside \[1, 10\]"):
        score_similarity(policy, [(obs, values, k)])


def test_zero_norm_probes_skipped_with_warning(trained_pick):
    policy, ds = trained_pick
    broken = copy.deepcopy(policy)
    set_constant_output(broken.components[2], 0.0)
    probes = build_probe_set(policy, ds, n=8, seed=1)
    with pytest.raises(ValueError):
        score_similarity(broken, probes)  # every probe skipped

    # component 2, with one hidden layer, reads the window alone and has no
    # bias: zeros on every other probe, whose window is all zero
    broken = copy.deepcopy(policy)
    comp = broken.components[2]
    w0, b0, _, b1 = comp.net.params().values()
    w0[comp.window_dim :], b0[...], b1[...] = 0.0, 0.0, 0.0
    probes = [(obs, values * (i % 2), k) for i, (obs, values, k) in enumerate(probes)]
    with pytest.warns(UserWarning, match="skipped"):
        sim = score_similarity(broken, probes)
    assert sim.skipped == 4 and sim.n_probes == 4


# ---------------------------------------------------------------------------
# convergence_report
# ---------------------------------------------------------------------------


def _log(values):
    return TrainingLog(
        entries=[
            {"epoch": i, "train_mse": v, "val_mse": v} for i, v in enumerate(values)
        ]
    )


def test_single_log_identity_table():
    log = _log([0.5, 0.4, 0.3])
    table = convergence_report([log], labels=["only"])
    assert table.columns["only"] == [0.5, 0.4, 0.3]
    assert table.epochs == [0, 1, 2]


def test_mismatched_epochs_truncate_with_warning():
    with pytest.warns(UserWarning, match="truncating"):
        table = convergence_report([_log([1.0] * 50), _log([2.0] * 40)])
    assert len(table.epochs) == 40
    assert all(len(col) == 40 for col in table.columns.values())


def test_monotone_log_round_trip():
    vals = [1.0 / (i + 1) for i in range(20)]
    table = convergence_report([_log(vals)], labels=["run"])
    assert table.columns["run"] == vals
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "epoch,run"
    assert len(lines) == 21
    assert isinstance(table, ConvergenceTable)


def test_convergence_input_validation():
    with pytest.raises(ValueError):
        convergence_report([])
    with pytest.raises(ValueError):
        convergence_report([_log([1.0])], labels=["a", "b"])


def test_similarity_matrix_validation():
    bad = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        SimilarityMatrix(bad, 1, 0)
    good = np.array([[1.0, 0.5], [0.5, 1.0]])
    sm = SimilarityMatrix(good, 1, 0)
    assert "component_1" in sm.to_csv()
