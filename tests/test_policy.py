"""Policy aggregate: encoding, training, inference, rollout, checkpoints."""

import copy
import dataclasses
import json
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdp.composition
import fdp.numerics
from fdp.adaptation import AdaptationConfig, adapt, upcycle_component
from fdp.bench import Episode, EpisodeDataset, generate_demos
from fdp.composition import group_slices
from fdp.numerics import (
    Adam, DimensionMismatchError, FeedForwardNet, NonFiniteError, Rng, StaleCacheError,
    decode_f64, encode_f64,
)
from fdp.policy import (
    STEP_FEATURES,
    ActionNormalizer,
    ComponentBank,
    DenoiserComponent,
    FactorizedPolicy,
    PolicyConfig,
    TrainingLog,
    canonical_json,
    matched_hidden_width,
    sinusoidal_step_embedding,
)

from .oracles import (
    GroupAdam, assert_bank_serves, assert_layers_view_vector, denormalize_masked,
    layered_net, net_backward_loop, net_forward_loop, training_arrays_loop,
)


SMALL = dict(
    diffusion_steps=10,
    obs_embed_dim=12,
    denoiser_hidden=(16,),
    router_hidden=(8,),
)


def small_policy(n=2, seed=0, obs_dim=3, action_dim=1, **over):
    cfg = PolicyConfig(n_components=n, **{**SMALL, **over})
    return FactorizedPolicy(obs_dim=obs_dim, action_dim=action_dim, config=cfg, seed=seed)


# ---------------------------------------------------------------------------
# observation handling
# ---------------------------------------------------------------------------


def test_identity_encoder_embeds_stacked_state():
    policy = small_policy(obs_dim=3, obs_embed_dim=6)
    policy.obs_encoder = layered_net([(np.eye(6), np.zeros(6), "identity")])
    stacked = Rng(1).gaussian(6)
    np.testing.assert_array_equal(policy.encode_observation(stacked), stacked)


def test_encoding_is_deterministic():
    policy = small_policy()
    obs = Rng(2).gaussian(6)
    np.testing.assert_array_equal(
        policy.encode_observation(obs), policy.encode_observation(obs)
    )


def test_observation_dimension_checked():
    policy = small_policy(obs_dim=3)
    with pytest.raises(DimensionMismatchError, match="width"):
        policy.encode_observation(np.zeros(5))


def test_stack_history_repeats_first_frame():
    policy = small_policy(obs_dim=3, h_obs=3)
    frames = np.arange(15.0).reshape(5, 3)
    picks = [[0, 0, 0], [0, 0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 4]]  # steps 0..4
    want = np.array([np.concatenate(frames[p]) for p in picks])
    np.testing.assert_array_equal(policy.stack_history(frames, range(5)), want)
    np.testing.assert_array_equal(policy.stack_history(frames, [4, 1]), want[[4, 1]])
    # the controller's form: the last h_obs frames, step t at min(t, h_obs - 1)
    np.testing.assert_array_equal(policy.stack_history(frames[-3:], [2]), want[4:])
    np.testing.assert_array_equal(policy.stack_history(frames[:2], [1]), want[1:2])


def random_episodes(lengths, obs_dim, action_dim, seed):
    rng, ends = Rng(seed), np.cumsum(lengths)[:-1]
    obs = np.split(rng.gaussian_rows(sum(lengths), obs_dim), ends)
    acts = np.split(rng.gaussian_rows(sum(lengths), action_dim), ends)
    return [Episode("t", 0, o, a, True) for o, a in zip(obs, acts)]


@pytest.mark.parametrize("h_obs", [1, 2, 3])
# t_pred 4: episodes longer, empty, shorter and of one step
@pytest.mark.parametrize("lengths", [[9, 0, 3, 1], [3], [1]])
def test_training_arrays_equal_the_per_step_loop(h_obs, lengths):
    policy = small_policy(obs_dim=3, action_dim=2, t_pred=4, t_exec=2, h_obs=h_obs)
    episodes = random_episodes(lengths, 3, 2, seed=h_obs)
    policy.normalizer = ActionNormalizer.from_actions(np.concatenate([e.actions for e in episodes]))
    windows, stacked = policy.build_training_arrays(episodes)
    want_windows, want_stacked = training_arrays_loop(policy, episodes)
    assert windows.shape == (sum(lengths), 8) and stacked.shape == (sum(lengths), 3 * h_obs)
    np.testing.assert_array_equal(windows, want_windows)
    np.testing.assert_array_equal(stacked, want_stacked)


def test_controller_infers_every_t_exec_steps_and_executes_leading_rows():
    policy = small_policy(obs_dim=3, t_pred=5, t_exec=3, h_obs=2)
    policy.normalizer = ActionNormalizer(np.array([-2.0]), np.array([2.0]))
    controller = policy.episode_controller(None, Rng(4))
    sample_window, inferred, windows = policy.sample_window, [], []

    def spy(obs, *args):
        inferred.append(len(controller.observations) - 1)  # the step being acted on
        np.testing.assert_array_equal(obs, policy.stack_history(frames, [inferred[-1]])[0])
        window, info = sample_window(obs, *args)
        windows.append(policy.normalizer.denormalize(window))
        return window, info

    policy.sample_window = spy
    frames = Rng(5).gaussian(10 * 3).reshape(10, 3)  # 10 steps: not a multiple of t_exec
    executed, infos = zip(*(controller.action(obs) for obs in frames))
    assert inferred == [0, 3, 6, 9]
    assert [info is not None for info in infos] == [t % 3 == 0 for t in range(10)]
    np.testing.assert_array_equal(executed, np.concatenate([w[:3] for w in windows])[:10])


def test_step_embedding_shape_and_range():
    emb = sinusoidal_step_embedding(7, dim=16)
    assert emb.shape == (16,)
    assert np.all(np.abs(emb) <= 1.0)
    batch = sinusoidal_step_embedding(np.array([1, 2, 3]), dim=8)
    assert batch.shape == (3, 8)
    np.testing.assert_array_equal(batch[1], sinusoidal_step_embedding(2, dim=8))


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------


def test_normalization_round_trip_exact():
    rng = Rng(3)
    actions = rng.gaussian(300).reshape(100, 3) * 0.7
    norm = ActionNormalizer.from_actions(actions)
    back = norm.denormalize(norm.normalize(actions))
    np.testing.assert_allclose(back, actions, atol=1e-12)
    inside = norm.normalize(actions)
    assert inside.min() >= -1.0 - 1e-12 and inside.max() <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    dims=st.integers(1, 4),
    rows=st.integers(1, 6),
    degenerate=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_normalizer_round_trip_property(dims, rows, degenerate, seed):
    rng = Rng(seed)
    lo = rng.gaussian(dims) * 3.0
    span = np.where(degenerate[:dims], 0.0, np.exp(rng.gaussian(dims)))
    actions = lo + span * rng.uniform(rows * dims).reshape(rows, dims)
    norm = ActionNormalizer.from_actions(actions)
    z = norm.normalize(actions)
    assert z.min() >= -1.0 - 1e-12 and z.max() <= 1.0 + 1e-12
    np.testing.assert_array_equal(z[:, norm.span == 0.0], 0.0)
    tol = 1e-12 * (1.0 + np.abs(actions).max())
    np.testing.assert_allclose(norm.denormalize(z), actions, rtol=0, atol=tol)
    # the checkpoint form round-trips bit for bit
    clone = ActionNormalizer.from_json(json.loads(json.dumps(norm.to_json())))
    np.testing.assert_array_equal(clone.normalize(actions), z)
    np.testing.assert_array_equal(clone.denormalize(z), norm.denormalize(z))


def test_denormalize_matches_the_masked_assignment_bit_for_bit():
    # dimensions 0 and 2 have zero span; dimension 0's lo is -0.0, whose sign survives
    norm = ActionNormalizer([-0.0, -1.3, 0.4, -2.5e-3], [-0.0, 2.9, 0.4, 7.0])
    rng = Rng(5)
    for shape in ((4,), (16, 4), (2, 3, 4)):
        x = np.clip(rng.gaussian(int(np.prod(shape))).reshape(shape), -1.05, 1.05)
        got = norm.denormalize(x)
        assert got.shape == shape and got.tobytes() == denormalize_masked(norm, x).tobytes()
        assert np.signbit(got[..., 0]).all() and (got[..., 2] == 0.4).all()


def test_degenerate_dimension_maps_to_zero():
    actions = np.column_stack([np.linspace(-1, 1, 10), np.full(10, 0.4)])
    norm = ActionNormalizer.from_actions(actions)
    z = norm.normalize(actions)
    np.testing.assert_array_equal(z[:, 1], 0.0)
    np.testing.assert_allclose(norm.denormalize(z)[:, 1], 0.4, atol=1e-12)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def constant_action_dataset(n_episodes=8, length=12, value=0.3):
    episodes = []
    rng = Rng(9)
    for i in range(n_episodes):
        obs = rng.gaussian(length * 3).reshape(length, 3)
        acts = np.full((length, 1), value)
        episodes.append(Episode("const", 0, obs, acts, True))
    return EpisodeDataset(
        suite="const",
        state_dim=3,
        action_dim=1,
        seed=0,
        episodes=episodes,
        normalizer=ActionNormalizer([value], [value]),
    )


def test_empty_trainable_mask_freezes_everything():
    ds = generate_demos("bimodal1d", per_task=4, seed=1)
    policy = small_policy()
    policy.normalizer = ds.normalizer
    before = policy.group_checksums()
    policy.fit(ds, epochs=3, batch_size=16, seed=0, trainable=[])
    assert policy.group_checksums() == before
    assert len(policy.training_log_.entries) == 3


def test_constant_action_dataset_val_mse_approaches_zero():
    # degenerate dataset: windows are all-zero in normalized units, so the
    # drawn noise is exactly recoverable and the loss can approach zero
    ds = constant_action_dataset()
    policy = small_policy(n=1, denoiser_hidden=(48, 48))
    policy.fit(ds, epochs=200, batch_size=32, seed=0)
    log = policy.training_log_
    assert log.entries[-1]["val_mse"] < 0.1
    assert log.entries[-1]["val_mse"] < log.entries[0]["val_mse"] / 10


def test_training_deterministic_same_seed(tmp_path):
    ds = generate_demos("bimodal1d", per_task=4, seed=1)
    logs, bytes_ = [], []
    for run in range(2):
        policy = small_policy(seed=5)
        policy.fit(ds, epochs=3, batch_size=16, seed=11)
        logs.append(policy.training_log_.to_json())
        path = tmp_path / f"ckpt{run}.json"
        policy.save(path)
        bytes_.append(path.read_bytes())
    assert logs[0] == logs[1]
    assert bytes_[0] == bytes_[1]


def test_fit_requires_episodes():
    policy = small_policy()
    empty = EpisodeDataset(
        suite="x", state_dim=3, action_dim=1, seed=0, episodes=[],
        normalizer=ActionNormalizer([0.0], [1.0]),
    )
    with pytest.raises(ValueError):
        policy.fit(empty, epochs=1, batch_size=8, seed=0)


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("epochs", -1)])
def test_fit_rejects_bad_batch_size_and_epochs(field, value):
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy()
    before = policy.group_checksums()
    kwargs = {"epochs": 1, "batch_size": 8, field: value}
    with pytest.raises(ValueError, match=field):
        policy.fit(ds, seed=0, **kwargs)
    assert policy.group_checksums() == before
    assert policy.normalizer is None


@pytest.mark.parametrize(
    "trainable, over",
    [
        pytest.param(None, {}, id="None"),
        pytest.param(["router", "component:1"], {}, id="trainable1"),  # new_module
        pytest.param(["router"], {}, id="router"),
        pytest.param(["router", "encoder"], {}, id="router+encoder"),
        pytest.param(["encoder", "router", "component:1"], {}, id="new_module+encoder"),
        pytest.param(None, {"router_lr_scale": 0.5}, id="router_lr_scale"),
        # a component row of about 35k entries, longer than one Adam chunk
        pytest.param(None, {"denoiser_hidden": (160, 160)}, id="chunked"),
        pytest.param(
            ["router", "component:1"], {"denoiser_hidden": (160, 160)}, id="chunked-new_module"
        ),
    ],
)
def test_fit_matches_per_array_adam_and_assign(monkeypatch, trainable, over):
    # the one optimizer over the trainable runs of the vector against the
    # per-group reference, checked before every batch and after the last
    ds = generate_demos("bimodal1d", per_task=4, seed=1)
    policy = small_policy(seed=5, **over)
    groups = trainable or policy.group_names()
    frozen = {g: c for g, c in policy.group_checksums().items() if g not in groups}
    oracle, real, pending = GroupAdam(policy, groups), fdp.composition.joint_loss, []

    def checked(*args):
        if pending:  # the step the fit took after the previous batch
            oracle.step(pending.pop())
        oracle.assert_matches(policy)
        loss, grad = real(*args)
        pending.append(grad.copy())
        return loss, grad

    monkeypatch.setattr(fdp.composition, "joint_loss", checked)
    policy.fit(ds, epochs=3, batch_size=16, seed=11, trainable=trainable)
    oracle.step(pending.pop())
    oracle.assert_matches(policy)
    assert oracle.t == 3 * -(-policy.training_log_.n_train_windows // 16)
    assert policy.group_checksums(list(frozen)) == frozen


def test_a_non_finite_gradient_writes_no_group(monkeypatch):
    # the whole gradient is checked before any group is written
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy(n=3, seed=2)
    before = policy.group_checksums()
    real = fdp.composition.joint_loss

    def nan_in_component_1(bank, router, encoder, *args):
        loss, grad = real(bank, router, encoder, *args)
        grad[group_slices(bank, router, encoder)["component:1"].start] = np.nan
        return loss, grad

    monkeypatch.setattr(fdp.composition, "joint_loss", nan_in_component_1)
    with pytest.raises(NonFiniteError, match=r"gradient of 'component:1' at 'layer0.weight'"):
        policy.fit(ds, epochs=1, batch_size=16, seed=4)
    assert policy.group_checksums() == before


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["deepcopy", "pickle"],
)
def test_copied_and_pickled_policies_train_like_the_original(clone):
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy(seed=3)
    untrained = policy.group_checksums()
    twin = clone(policy)
    for g in twin.group_names():
        assert_layers_view_vector(twin._group_net(g))
    twin.fit(ds, epochs=1, batch_size=16, seed=4)
    assert policy.group_checksums() == untrained
    policy.fit(ds, epochs=1, batch_size=16, seed=4)
    trained = twin.group_checksums()
    assert all(trained[g] != untrained[g] for g in trained)
    assert trained == policy.group_checksums()
    assert canonical_json(twin.to_json()) == canonical_json(policy.to_json())
    assert FactorizedPolicy.from_json(twin.to_json()).group_checksums() == trained


# ---------------------------------------------------------------------------
# the component store: one bank for as long as the component list
# ---------------------------------------------------------------------------


def test_an_adam_step_shows_in_the_next_bank_prediction():
    policy = small_policy(n=3)
    bank = policy.bank
    assert_bank_serves(policy)
    rng = Rng(2)
    values, emb = rng.gaussian(policy.window_dim), rng.gaussian(12)
    before = bank.forward(values, emb, 4)[0]
    net = policy.components[1].net
    Adam(lr=1e-2).step(net.vector, rng.gaussian(net.param_count()), [("component:1", net, 0, 1.0)])
    assert policy.bank is bank  # no rebuild
    after = bank.forward(values, emb, 4)[0]
    np.testing.assert_array_equal(after[[0, 2]], before[[0, 2]])
    assert not np.array_equal(after[1], before[1])
    assert_bank_serves(policy)


def test_a_bank_cache_is_stale_once_any_component_is_written():
    policy = small_policy(n=3)
    bank, rng = policy.bank, Rng(3)
    values = rng.gaussian(4 * policy.window_dim).reshape(4, policy.window_dim)
    emb = rng.gaussian(4 * 12).reshape(4, 12)
    _, cache = bank.forward(values, emb, np.array([1, 2, 3, 1]))
    grad_out = rng.gaussian(3 * values.size).reshape(3, *values.shape)
    fresh = bank.backward(cache, grad_out, [0, 1, 2])
    net = policy.components[2].net
    Adam(lr=1e-2).step(net.vector, fresh[2], [("component:2", net, 0, 1.0)])
    assert policy.bank is bank
    with pytest.raises(StaleCacheError):
        bank.backward(cache, grad_out, [0, 1, 2])
    with pytest.raises(StaleCacheError):  # rows the step left alone are refused too
        bank.backward(cache, grad_out[:1], [0])


@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("rows", [[0, 1, 2], [0, 2], [1]])
@pytest.mark.parametrize("batch", [1, 4])
def test_bank_matches_the_textbook_layer_loop_per_component(activation, rows, batch):
    policy = small_policy(n=3, seed=5)
    if activation == "identity":  # hidden layers with no tanh
        for comp in policy.components:
            net = comp.net
            comp.net = FeedForwardNet(net.widths, ["identity"] * len(net.activations), net.vector)
    bank, rng, d = policy.bank, Rng(6), policy.window_dim
    values = rng.gaussian(batch * d).reshape(batch, d)
    emb = rng.gaussian(batch * 12).reshape(batch, 12)
    ks = np.array([1, 10, 5, 3])[:batch]
    preds, cache = bank.forward(values, emb, ks)
    grad_out = rng.gaussian(len(rows) * values.size).reshape(len(rows), batch, d)
    demb, demb_ref = np.zeros_like(emb), np.zeros_like(emb)
    grads = bank.backward(cache, grad_out, rows, demb)
    x = np.concatenate([values, emb, bank.step_table[ks - 1]], axis=1)
    for i, comp in enumerate(policy.components):
        y, trace = net_forward_loop(comp.net, x)
        np.testing.assert_array_equal(preds[i], y)
        if i in rows:  # in index order, as the bank adds them
            grad, gx = net_backward_loop(comp.net, trace, grad_out[rows.index(i)])
            np.testing.assert_array_equal(grads[i], grad)
            demb_ref += gx[:, d : d + 12]
    np.testing.assert_array_equal(demb, demb_ref)


@pytest.mark.parametrize(
    "hidden, emb_dim, batch",
    [((24, 24), 32, 96), ((256, 256), 64, 64), ((256, 256), 64, 1)],
    ids=["acceptance", "cli", "cli-one-row"],
)
def test_bank_embedding_gradient_matches_the_textbook_loop_at_full_widths(hidden, emb_dim, batch):
    # layer 0's input gradient is a product with the embedding's weight rows
    # alone; at the widths the acceptance suite and the CLI train, its sum
    # equals the textbook loop's embedding columns bit for bit
    policy = small_policy(n=3, seed=7, action_dim=2, obs_embed_dim=emb_dim, denoiser_hidden=hidden)
    bank, rng, d = policy.bank, Rng(8), policy.window_dim
    values = rng.gaussian(batch * d).reshape(batch, d)
    emb = rng.gaussian(batch * emb_dim).reshape(batch, emb_dim)
    ks = rng.integers(1, 11, batch)
    _, cache = bank.forward(values, emb, ks)
    grad_out = rng.gaussian(3 * values.size).reshape(3, *values.shape)
    demb, demb_ref = np.zeros_like(emb), np.zeros_like(emb)
    bank.backward(cache, grad_out, [0, 1, 2], demb)
    x = np.concatenate([values, emb, bank.step_table[ks - 1]], axis=1)
    for comp, g in zip(policy.components, grad_out):
        _, gx = net_backward_loop(comp.net, net_forward_loop(comp.net, x)[1], g)
        demb_ref += gx[:, d : d + emb_dim]
    np.testing.assert_array_equal(demb, demb_ref)


@pytest.mark.parametrize("entry", ["init", "from_json", "deepcopy", "pickle"])
def test_a_view_taken_after_each_entry_point_stays_live(entry):
    policy = small_policy(n=3, seed=4)
    if entry == "from_json":
        policy.normalizer = ActionNormalizer([-1.0], [1.0])
        policy = FactorizedPolicy.from_json(json.loads(canonical_json(policy.to_json())))
    elif entry == "deepcopy":
        policy = copy.deepcopy(policy)
    elif entry == "pickle":
        policy = pickle.loads(pickle.dumps(policy))
    view = policy.components[1].net.params()["layer0.weight"]
    rng = Rng(5)
    values, emb = rng.gaussian(policy.window_dim), rng.gaussian(12)
    before = policy.bank.forward(values, emb, 4)[0]
    view += 0.5
    after = policy.bank.forward(values, emb, 4)[0]
    np.testing.assert_array_equal(after[[0, 2]], before[[0, 2]])
    assert not np.array_equal(after[1], before[1])
    assert_bank_serves(policy)


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["deepcopy", "pickle"],
)
def test_copied_and_pickled_policies_bind_a_store_of_their_own(clone):
    policy = small_policy(n=3, seed=2)
    bank = policy.bank
    twin = clone(policy)
    assert_bank_serves(twin)
    assert not np.shares_memory(twin.bank.store, bank.store)
    assert policy.bank is bank
    checksums = policy.group_checksums()
    net = twin.components[0].net
    net.assign(net.vector + 1.0)
    assert policy.group_checksums() == checksums
    assert_bank_serves(twin)
    assert_bank_serves(policy)


def test_a_loaded_checkpoint_binds_a_fresh_store(trained_bimodal):
    loaded = FactorizedPolicy.from_json(trained_bimodal.to_json())
    assert_bank_serves(loaded)
    assert not np.shares_memory(loaded.bank.store, trained_bimodal.bank.store)


def test_a_replaced_component_list_or_vector_gets_a_new_bank():
    policy = small_policy(n=3)
    bank = policy.bank
    policy.components = policy.components[:2]
    assert policy.bank is not bank
    assert_bank_serves(policy)
    bank = policy.bank
    policy.components[1].net = policy.components[1].net.copy()
    assert policy.bank is not bank
    assert_bank_serves(policy)


def test_a_fit_keeps_the_bank_and_never_writes_frozen_rows():
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy(n=3)
    bank = policy.bank
    frozen = {i: bank.store[i].tobytes() for i in (0, 2)}
    checksums = policy.group_checksums()
    policy.fit(ds, epochs=2, batch_size=16, seed=4, trainable=["router", "component:1"])
    assert policy.bank is bank
    assert {i: bank.store[i].tobytes() for i in (0, 2)} == frozen
    after = policy.group_checksums()
    assert [g for g in after if after[g] != checksums[g]] == ["router", "component:1"]
    assert_bank_serves(policy)


def test_fit_rejects_unknown_group():
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy()
    with pytest.raises(KeyError):
        policy.fit(ds, epochs=1, batch_size=8, seed=0, trainable=["backbone"])


@pytest.mark.parametrize("groups", [["component:-1"], ["component:01"], ["component:1", "component:01"]])
def test_fit_rejects_a_group_name_that_is_not_canonical(groups):
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy()
    before = policy.group_checksums()
    with pytest.raises(KeyError, match="unknown parameter group 'component:"):
        policy.fit(ds, epochs=1, batch_size=8, seed=0, trainable=groups)
    assert policy.group_checksums() == before
    assert policy.normalizer is None and policy.training_log_ is None


@pytest.mark.parametrize(
    "obs_dim, action_dim, field", [(6, 1, "state_dim"), (3, 2, "action_dim")]
)
def test_fit_rejects_a_dataset_of_other_widths(obs_dim, action_dim, field):
    ds = generate_demos("bimodal1d", per_task=3, seed=1)  # state 3, action 1
    policy = small_policy(obs_dim=obs_dim, action_dim=action_dim)
    before = policy.group_checksums()
    with pytest.raises(ValueError, match=f"dataset field '{field}' is"):
        policy.fit(ds, epochs=1, batch_size=8, seed=0)
    assert policy.group_checksums() == before
    assert policy.normalizer is None and policy.training_log_ is None


def test_fit_on_one_episode_holds_out_nothing():
    ds = generate_demos("bimodal1d", per_task=1, seed=1)
    assert len(ds.episodes) == 1
    policy = small_policy().fit(ds, epochs=2, batch_size=8, seed=0)
    log = policy.training_log_
    assert log.n_val_windows == 0
    assert log.n_train_windows == sum(len(ep.actions) for ep in ds.episodes)
    assert all(e["val_mse"] == e["train_mse"] for e in log.entries)


def test_fit_rejects_a_group_listed_twice():
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy()
    before = policy.group_checksums()
    with pytest.raises(ValueError, match="'router' is listed more than once"):
        policy.fit(ds, epochs=1, batch_size=8, seed=0, trainable=["router", "encoder", "router"])
    assert policy.group_checksums() == before
    assert policy.normalizer is None and policy.training_log_ is None


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_bimodal():
    ds = generate_demos("bimodal1d", per_task=8, seed=4)
    policy = small_policy(n=2, seed=1, diffusion_steps=20, denoiser_hidden=(24,))
    policy.fit(ds, epochs=40, batch_size=48, seed=3)
    return policy


def test_act_reproducible_with_fixed_seed(trained_bimodal):
    obs = np.array([0.0, -0.6, 0.6, 0.0, -0.6, 0.6])
    a1 = trained_bimodal.act(obs, Rng(42))
    a2 = trained_bimodal.act(obs, Rng(42))
    np.testing.assert_array_equal(a1, a2)
    assert a1.shape == (trained_bimodal.config.t_pred, 1)


def test_act_output_within_denormalized_clamp(trained_bimodal):
    norm = trained_bimodal.normalizer
    lo = norm.denormalize(np.full(norm.lo.shape, -1.05))
    hi = norm.denormalize(np.full(norm.lo.shape, 1.05))
    obs = np.array([0.0, -0.6, 0.6, 0.0, -0.6, 0.6])
    for i in range(5):
        w = trained_bimodal.act(obs, Rng(i))
        assert np.all(w >= lo - 1e-12) and np.all(w <= hi + 1e-12)


def test_bimodal_policy_samples_both_modes(trained_bimodal):
    obs = np.array([0.0, -0.6, 0.6, 0.0, -0.6, 0.6])
    rng = Rng(777)
    left = sum(
        int(trained_bimodal.act(obs, rng.child(i))[:8].sum() < 0) for i in range(100)
    )
    assert 15 <= left <= 85


def test_single_component_router_weight_is_one():
    policy = small_policy(n=1)
    w = policy.router.route(Rng(0).gaussian(12))
    np.testing.assert_array_equal(w, [1.0])


def test_weights_override_bypasses_router(trained_bimodal):
    obs = np.array([0.0, -0.6, 0.6, 0.0, -0.6, 0.6])
    win, info = trained_bimodal.sample_window(
        obs, Rng(5), weights_override=np.array([1.0, 0.0])
    )
    np.testing.assert_array_equal(info.weights, [1.0, 0.0])
    assert win.shape == (trained_bimodal.config.t_pred, trained_bimodal.action_dim)


def test_unfitted_policy_refuses_to_act():
    policy = small_policy()
    with pytest.raises(RuntimeError, match="normalizer"):
        policy.act(np.zeros(6), Rng(0))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_a_training_log_round_trips_through_json(trained_bimodal):
    log = trained_bimodal.training_log_
    assert TrainingLog.from_json(log.to_json()) == log
    assert TrainingLog.from_json(json.loads(canonical_json(log.to_json()))) == log


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("entries", 5, "field 'entries' is 5, not a list"),
        ("entries", [{"epoch": 0.0, "train_mse": 1.0, "val_mse": 1.0}],
         "field 'entries[0].epoch' is 0.0, not an int"),
        ("entries", [{"epoch": 0, "train_mse": 1.0, "val_mse": "1"}],
         "field 'entries[0].val_mse' is '1', not a float"),
        ("entries", [{"epoch": 0, "train_mse": 1.0, "val_mse": 1.0, "x": 1}],
         "unknown key 'x'"),
        ("n_val_windows", True, "field 'n_val_windows' is True, not an int >= 0"),
        ("trainable", ["encoder", 1], "field 'trainable[1]' is 1, not a str"),
        ("bogus", 1, "unknown key 'bogus'"),
    ],
)
def test_a_training_log_names_a_malformed_field(trained_bimodal, key, value, message):
    obj = {**trained_bimodal.training_log_.to_json(), key: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainingLog.from_json(obj)


def test_checkpoint_round_trip_preserves_behavior(tmp_path, trained_bimodal):
    path = tmp_path / "p.json"
    trained_bimodal.save(path)
    back = FactorizedPolicy.load(path)
    assert back.group_checksums() == trained_bimodal.group_checksums()
    obs = np.array([0.0, -0.6, 0.6, 0.0, -0.6, 0.6])
    np.testing.assert_array_equal(back.act(obs, Rng(8)), trained_bimodal.act(obs, Rng(8)))
    assert back.schedule.K == trained_bimodal.schedule.K


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    upcycled=st.integers(0, 2),
    steps=st.integers(2, 5),
    schedule=st.sampled_from(["cosine", "linear"]),
    t_pred=st.integers(1, 3),
    action_dim=st.integers(1, 2),
    hidden=st.lists(st.integers(1, 5), max_size=2),
    seed=st.integers(0, 2**16),
)
def test_checkpoint_round_trip_property(
    n, upcycled, steps, schedule, t_pred, action_dim, hidden, seed
):
    cfg = PolicyConfig(
        n_components=n, diffusion_steps=steps, schedule_kind=schedule,
        t_pred=t_pred, t_exec=1, obs_embed_dim=4, denoiser_hidden=hidden,
        router_hidden=(3,),
    )
    norm = ActionNormalizer(-np.ones(action_dim), np.ones(action_dim))
    policy = FactorizedPolicy(2, action_dim, cfg, normalizer=norm, seed=seed)
    for i in range(upcycled):
        upcycle_component(policy, source=i % policy.n_components)
    text = canonical_json(policy.to_json())
    back = FactorizedPolicy.from_json(json.loads(text))
    assert canonical_json(back.to_json()) == text
    obs = Rng(seed).gaussian(policy.stacked_obs_dim)
    np.testing.assert_array_equal(back.act(obs, Rng(seed + 1)), policy.act(obs, Rng(seed + 1)))


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="format"):
        FactorizedPolicy.load(path)


@pytest.mark.parametrize("kind", ["fresh", "fitted", "adapted"])
def test_a_saved_policy_loads_without_a_draw_and_writes_back_its_bytes(
    tmp_path, monkeypatch, kind
):
    ds = generate_demos("bimodal1d", per_task=3, seed=1)
    policy = small_policy(n=4 if kind == "adapted" else 2, seed=6)
    policy.normalizer = ActionNormalizer([-1.0], [1.0])
    if kind != "fresh":
        policy.fit(ds, epochs=1, batch_size=32, seed=0)
    if kind == "adapted":
        adapt(policy, AdaptationConfig(strategy="new_module", epochs=1, batch_size=32), ds, seed=1)
        assert policy.n_components == 5
    policy.save(tmp_path / "saved.json")
    draws = []
    monkeypatch.setattr(Rng, "_raw", lambda rng, n: draws.append(n))
    back = FactorizedPolicy.load(tmp_path / "saved.json")
    assert draws == []
    assert back.group_checksums() == policy.group_checksums()
    back.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "saved.json").read_bytes()


def test_a_failed_save_leaves_the_existing_file_as_it_was(tmp_path, trained_bimodal):
    path = tmp_path / "checkpoint.json"
    trained_bimodal.save(path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="no action normalizer"):
        small_policy().save(path)  # unfitted
    assert path.read_bytes() == before


def test_checkpoint_rejects_empty_components(trained_bimodal):
    obj = trained_bimodal.to_json()
    obj["parameters"] = {g: obj["parameters"][g] for g in ("encoder", "router")}
    message = "'parameters' must be an object of 4 groups, as 'config.n_components' 2 implies"
    with pytest.raises(ValueError, match=message):
        FactorizedPolicy.from_json(obj)


def test_checkpoint_rejects_router_head_width_mismatch(trained_bimodal):
    # n components in the config and in the groups (copies of component 0),
    # under the router of two
    obj = trained_bimodal.to_json()
    router = {g: obj["parameters"][g] for g in ("encoder", "router")}
    for n in (1, 4):
        components = {f"component:{i}": obj["parameters"]["component:0"] for i in range(n)}
        config = {**obj["config"], "n_components": n}
        changed = {**obj, "config": config, "parameters": {**router, **components}}
        message = rf"'parameters.router' holds 122 values, but .* imply widths \[12, 8, {n}\]"
        with pytest.raises(ValueError, match=message):
            FactorizedPolicy.from_json(changed)


def test_checkpoint_rejects_component_window_width_mismatch(trained_bimodal):
    # action_dim 1 -> 2 with a 2-wide normalizer: the components still
    # predict t_pred x 1 windows
    obj = trained_bimodal.to_json()
    obj = {**obj, "action_dim": 2, "normalizer": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}
    message = r"'parameters.component:0' holds 1480 values, .* imply widths \[60, 24, 32\]"
    with pytest.raises(ValueError, match=message):
        FactorizedPolicy.from_json(obj)


def test_checkpoint_rejects_normalizer_width_mismatch(trained_bimodal):
    obj = {**trained_bimodal.to_json(), "normalizer": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}
    with pytest.raises(ValueError, match=r"'normalizer' has shape \(2,\).*'action_dim' is 1"):
        FactorizedPolicy.from_json(obj)


def test_checkpoint_rejects_encoder_input_width_mismatch(trained_bimodal):
    obj = {**trained_bimodal.to_json(), "obs_dim": 4}
    message = r"'parameters.encoder' holds 84 values, .* imply widths \[8, 12\]"
    with pytest.raises(ValueError, match=message):
        FactorizedPolicy.from_json(obj)


ENCODER_6_TO_10 = r"'parameters.encoder' holds 70 values, .* imply widths \[6, 12\]"


def test_checkpoint_rejects_encoder_output_width_other_than_router_input(trained_bimodal):
    # a 6 -> 10 encoder in front of a router and components that read 12
    obj = trained_bimodal.to_json()
    obj["parameters"]["encoder"] = encode_f64(FeedForwardNet.init([6, 10], "tanh", Rng(0)).vector)
    with pytest.raises(ValueError, match=ENCODER_6_TO_10):
        FactorizedPolicy.from_json(obj)


def test_checkpoint_rejects_encoder_output_width_other_than_component_embedding(
    trained_bimodal,
):
    obj = trained_bimodal.to_json()
    obj["parameters"]["encoder"] = encode_f64(FeedForwardNet.init([6, 10], "tanh", Rng(0)).vector)
    router = FeedForwardNet.init([10, 8, 2], ["tanh", "identity"], Rng(1))
    obj["parameters"]["router"] = encode_f64(router.vector)
    with pytest.raises(ValueError, match=ENCODER_6_TO_10):
        FactorizedPolicy.from_json(obj)


@pytest.mark.parametrize(
    "change", [{"hidden": [24, 4]}, {"hidden": [23]}, {"step_dim": 14}]
)
def test_checkpoint_rejects_components_of_other_architectures(trained_bimodal, change):
    # the parameters carry no architecture, so one of another size is what shows
    obj = trained_bimodal.to_json()
    cfg = trained_bimodal.config
    arch = {"hidden": list(cfg.denoiser_hidden), "step_dim": STEP_FEATURES, **change}
    other = DenoiserComponent.init(
        trained_bimodal.window_dim, cfg.obs_embed_dim, arch["hidden"], Rng(3), arch["step_dim"],
    )
    obj["parameters"]["component:1"] = encode_f64(other.net.vector)
    message = r"'parameters.component:1' holds \d+ values, .* imply widths \[44, 24, 16\]"
    with pytest.raises(ValueError, match=message):
        FactorizedPolicy.from_json(obj)


@pytest.mark.parametrize("temperature", [float("inf"), float("nan"), 0.0])
def test_checkpoint_rejects_a_router_temperature_that_is_not_finite_and_positive(
    tmp_path, trained_bimodal, temperature
):
    obj = trained_bimodal.to_json()
    obj["config"]["router_temperature"] = temperature
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(obj))  # inf and nan as JSON's Infinity and NaN
    message = "field 'config': router_temperature must be finite and positive"
    with pytest.raises(ValueError, match=message):
        FactorizedPolicy.load(path)


# each a net whose widths differ from those the config implies in one way
NET_CORRUPTIONS = {
    "extra activation": lambda w: [*w[:-1], 3, w[-1]],
    "short widths": lambda w: [w[0], w[-1]],
    "wrong width": lambda w: [w[0], w[1] + 1, *w[2:]],
    "short bias": lambda w: w,  # and its vector one value short
}


@pytest.mark.parametrize(
    "net, case",
    [
        (net, case)
        for net in ("encoder", "router", "components[1]")
        for case in NET_CORRUPTIONS
        if (net, case) != ("encoder", "short widths")  # the encoder has no hidden layer to drop
    ],
)
def test_checkpoint_rejects_a_net_that_disagrees_with_its_widths(trained_bimodal, net, case):
    obj = trained_bimodal.to_json()
    group = {"components[1]": "component:1"}.get(net, net)
    widths = {"encoder": [6, 12], "router": [12, 8, 2], "component:1": [44, 24, 16]}[group]
    vector = FeedForwardNet.init(NET_CORRUPTIONS[case](widths), "tanh", Rng(2)).vector
    vector = vector[:-1] if case == "short bias" else vector
    obj["parameters"][group] = encode_f64(vector)
    message = f"'parameters.{group}' holds {vector.size} values, but obs_dim, action_dim and "
    with pytest.raises(ValueError, match=re.escape(message + f"config imply widths {widths}")):
        FactorizedPolicy.from_json(obj)


def test_checkpoint_rejects_an_unknown_config_key(trained_bimodal):
    obj = trained_bimodal.to_json()
    obj["config"]["bogus"] = 1
    with pytest.raises(ValueError, match="checkpoint field 'config': unknown key 'bogus'"):
        FactorizedPolicy.from_json(obj)


DELETE = object()  # a mutation that removes the field

# (path to one field of a valid checkpoint, its new value from the old, the
# start of the message[, a label that tells apart rows of one path])
CHECKPOINT_MUTATIONS = [
    ((), lambda v: [], "a checkpoint must be a JSON object, got list", "list"),
    ((), lambda v: "x", "a checkpoint must be a JSON object, got str", "str"),
    ((), lambda v: None, "a checkpoint must be a JSON object, got NoneType", "null"),
    # a group's string: not a string, not base64, not the canonical base64 of
    # its bytes, of non-finite values, or one value short
    (("parameters", "encoder"), lambda v: 5, "field 'parameters.encoder': argument should be"),
    (("parameters", "router"), lambda v: "!" + v[1:], "field 'parameters.router': "),
    (
        ("parameters", "component:0"),
        lambda v: "AAAAAAAA8D9=",
        "field 'parameters.component:0': non-canonical base64 ending '8D9='",
    ),
    (
        ("parameters", "component:1"),
        lambda v: encode_f64(np.full(decode_f64(v).size, np.inf)),
        "field 'parameters.component:1': non-finite parameter at 'layer0.weight'",
    ),
    (
        ("parameters", "encoder"),
        lambda v: encode_f64(decode_f64(v)[:-1]),
        "field 'parameters.encoder' holds 83 values, but obs_dim, action_dim and config imply "
        "widths [6, 12], 84 values",
        "short",
    ),
    # missing, unknown or misnamed groups
    (("parameters", "encoder"), DELETE, "field 'parameters' must be an object of 4 groups, as "),
    (("parameters", "component:1"), DELETE, "field 'parameters' must be an object of 4 groups"),
    (("parameters", "bogus"), lambda v: "", "field 'parameters' must be an object of 4 groups"),
    (
        ("parameters",),
        lambda v: {("component:01" if g == "component:1" else g): s for g, s in v.items()},
        "field 'parameters': field 'component:1' is missing",
        "misnamed",
    ),
    (("parameters",), lambda v: 5, "field 'parameters' must be an object of 4 groups"),
    (("parameters",), DELETE, "field 'parameters' is missing"),
    (("normalizer", "lo"), lambda v: "x", "field 'normalizer': "),
    (("normalizer", "hi"), DELETE, "field 'normalizer': field 'hi' is missing"),
    (("config", "learning_rate"), lambda v: "0.001", "field 'config': learning_rate must be"),
    (("obs_dim",), lambda v: "x", "field 'obs_dim' must be an int"),
    (("seed",), lambda v: 3.9, "field 'seed' must be an int, got 3.9"),
    (("action_dim",), lambda v: True, "field 'action_dim' must be an int, got True"),
    (("version",), lambda v: True, "field 'version' is True, not 4"),
    (("version",), lambda v: 1, "field 'version' is 1, not 4", "1"),
    # a config the parameters do not fit, or one that is invalid itself
    (("config", "router_temperature"), lambda v: 0.0, "field 'config': router_temperature must"),
    (
        ("config", "denoiser_hidden"),
        lambda v: [7],
        "field 'parameters.component:0' holds 1480 values, but obs_dim, action_dim and config "
        "imply widths [44, 7, 16]",
    ),
    (
        ("config", "n_components"),
        lambda v: 3,
        "field 'parameters' must be an object of 5 groups, as 'config.n_components' 3 implies",
    ),
    # type-exact fields: what loads writes the same bytes back
    (("config", "t_exec"), lambda v: 4.0, "field 'config': t_exec must be int, got 4.0"),
    (("config", "router_hidden"), lambda v: [8.0], "router_hidden widths must be ints"),
    (("normalizer", "hi"), lambda v: [1], "field 'normalizer': field 'hi' must be a list of"),
    (("bogus",), lambda v: 1, "unknown key 'bogus'"),
]


@pytest.mark.parametrize(
    "path, mutate, message",
    [row[:3] for row in CHECKPOINT_MUTATIONS],
    ids=[
        " ".join([".".join(map(str, path)) or "checkpoint", *label])
        + " deleted" * (mutate is DELETE)
        for path, mutate, _, *label in CHECKPOINT_MUTATIONS
    ],
)
def test_checkpoint_names_a_malformed_or_missing_field(trained_bimodal, path, mutate, message):
    obj = trained_bimodal.to_json()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if not path:
        obj = mutate(obj)
    elif mutate is DELETE:
        del parent[path[-1]]
    else:
        old = parent.get(path[-1]) if isinstance(parent, dict) else parent[path[-1]]
        parent[path[-1]] = mutate(old)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            FactorizedPolicy.from_json(obj)


def test_a_version_2_checkpoint_is_refused_naming_the_version(trained_bimodal):
    # version 2's config also held encoder_hidden and append_task_id
    obj = trained_bimodal.to_json()
    obj["version"] = 2
    obj["config"].update(encoder_hidden=[], append_task_id=False)
    with pytest.raises(ValueError, match=re.escape("checkpoint field 'version' is 2, not 4")):
        FactorizedPolicy.from_json(obj)


def test_a_version_3_checkpoint_is_refused_naming_the_version(trained_bimodal):
    # version 3's config also held step_embed_dim, activation and validation_fraction
    obj = trained_bimodal.to_json()
    obj["version"] = 3
    obj["config"].update(step_embed_dim=16, activation="tanh", validation_fraction=0.1)
    with pytest.raises(ValueError, match=re.escape("checkpoint field 'version' is 3, not 4")):
        FactorizedPolicy.from_json(obj)


def _fields(node, path=()):
    """(path, value) of every field of a checkpoint object."""
    yield path, node
    entries = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in entries:
        yield from _fields(value, (*path, key))


EXTRA = object()  # a mutation that adds an entry: key 'extra' to an object, a 1 to a list
MUTATIONS = ("x", None, True, 1.5, float("inf"), float("nan"), -1, 2**64, DELETE, EXTRA)


def _mutated(text, path, value):
    """The JSON text's object with the field at path set to value, deleted
    (DELETE) or given an extra entry (EXTRA)."""
    obj = json.loads(text)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is EXTRA:
        node = parent[path[-1]] if path else obj
        node.append(1) if isinstance(node, list) else node.update(extra=1)
    elif value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _cases(text):
    """Each field of the JSON text set to each of MUTATIONS, the root only
    given an extra entry, and EXTRA only on an object or a list."""
    return [
        (path, value)
        for path, node in _fields(json.loads(text))
        for value in MUTATIONS
        if (value is EXTRA and isinstance(node, (dict, list))) or (path and value is not EXTRA)
    ]


SMALL_CHECKPOINT = canonical_json(
    FactorizedPolicy(
        2, 1,
        PolicyConfig(
            n_components=2, diffusion_steps=3, t_pred=2, t_exec=1, h_obs=1, obs_embed_dim=2,
            denoiser_hidden=(3,), router_hidden=(2,),
        ),
        normalizer=ActionNormalizer([-1.0], [1.0]),
        seed=5,
    ).to_json()
)
# each field set to a wrong type, None, a bool, a non-integral, non-finite,
# negative or huge number, deleted, or given an extra entry
ROUND_TRIP_CASES = _cases(SMALL_CHECKPOINT)


@settings(max_examples=len(ROUND_TRIP_CASES), derandomize=True, deadline=None)
@given(case=st.sampled_from(ROUND_TRIP_CASES))
@example(case=(("config", "n_components"), 2**64))  # counted, never listed
@example(case=(("config", "diffusion_steps"), 2**64))
def test_a_mutated_checkpoint_names_the_field_or_round_trips(case):
    path, value = case
    obj = _mutated(SMALL_CHECKPOINT, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            back = FactorizedPolicy.from_json(obj)
        except ValueError as exc:
            assert (path[:1] or ("extra",))[0] in str(exc)
        else:
            assert canonical_json(back.to_json()) == canonical_json(obj)


SMALL_LOG = canonical_json(TrainingLog(
    [{"epoch": 0, "train_mse": 0.5, "val_mse": 0.25},
     {"epoch": 1, "train_mse": 0.375, "val_mse": 0.125}],
    n_train_windows=12, n_val_windows=3, trainable=("encoder", "router"),
).to_json())
LOG_CASES = _cases(SMALL_LOG)


@settings(max_examples=len(LOG_CASES), derandomize=True, deadline=None)
@given(case=st.sampled_from(LOG_CASES))
def test_a_mutated_training_log_names_the_field_or_round_trips(case):
    path, value = case
    obj = _mutated(SMALL_LOG, path, value)
    try:
        back = TrainingLog.from_json(obj)
    except ValueError as exc:
        # the top-level field, its entry (entries[1], trainable[0]), and an entry's key
        named = "".join(f"[{key}]" for key in path[1:2]) if len(path) > 1 else ""
        assert f"{(path[:1] or ('extra',))[0]}{named}" in str(exc)
        assert len(path) < 3 or path[2] in str(exc)
    else:
        assert canonical_json(back.to_json()) == canonical_json(obj)


def test_bind_and_a_bank_run_no_finiteness_check(monkeypatch):
    policy = small_policy(n=3)
    calls = []
    monkeypatch.setattr(fdp.numerics, "check_finite", lambda name, arr: calls.append(name) or arr)
    monkeypatch.setattr(FeedForwardNet, "_check_finite_blocks", lambda *args: calls.append(args))
    encoder = policy.obs_encoder
    encoder.bind(np.empty(encoder.param_count()))
    ComponentBank(policy.components, policy.schedule.K)
    policy.bank  # the encoder was bound elsewhere: the bank and the vector are built anew
    assert encoder.vector.base is policy.vector
    assert calls == []


def test_denoiser_rejects_net_narrower_than_window_and_step():
    net = FeedForwardNet.init([3, 4], ["identity"], Rng(0))
    with pytest.raises(DimensionMismatchError, match="step_dim=16"):
        DenoiserComponent(net, window_dim=4, step_dim=16)


def test_matched_hidden_width_parameter_parity():
    in_dim, out_dim = 80, 32
    h1 = matched_hidden_width(4, 24, in_dim, out_dim)

    def count(h):
        return in_dim * h + h + h * h + h + h * out_dim + out_dim

    assert abs(4 * count(24) - count(h1)) / (4 * count(24)) < 0.02


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(n_components=0)
    with pytest.raises(ValueError, match=re.escape("t_exec must lie in [1, t_pred 8], got 9")):
        PolicyConfig(t_pred=8, t_exec=9)
    with pytest.raises(ValueError, match="t_pred must be >= 1, got 0"):
        PolicyConfig(t_pred=0, t_exec=1)
    with pytest.raises(ValueError, match="t_pred must be >= 1, got -1"):
        PolicyConfig(t_pred=-1)
    with pytest.raises(ValueError):
        PolicyConfig(h_obs=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("h_obs", 0),
        ("h_obs", -1),
        ("t_exec", 0),
        ("t_exec", 17),
        ("learning_rate", -1.0),
        ("learning_rate", 0.0),
        ("obs_embed_dim", 0),
        ("router_hidden", (0,)),
        ("denoiser_hidden", (0,)),
        ("denoiser_hidden", (16, -1)),
        ("router_hidden", (-3,)),
        ("learning_rate", float("inf")),
        ("learning_rate", float("nan")),
        ("router_lr_scale", -1.0),
        ("router_lr_scale", 0.0),
        ("router_lr_scale", float("inf")),
        ("router_temperature", 0.0),
        ("router_temperature", -1.0),
        ("router_temperature", float("inf")),
        ("router_temperature", float("nan")),
        ("schedule_kind", 1),
        ("t_exec", 4.5),
        ("n_components", True),
        ("diffusion_steps", 1),
        ("schedule_kind", "quadratic"),
        ("denoiser_hidden", (16.0,)),
        ("learning_rate", "0.001"),
        ("n_components", -1),
        ("diffusion_steps", 2**64),
    ],
)
def test_policy_config_names_the_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        PolicyConfig(**{field: value})


TINY_CONFIG = dict(
    n_components=2, diffusion_steps=2, t_pred=2, t_exec=1, h_obs=1, obs_embed_dim=2,
    denoiser_hidden=(2,), router_hidden=(2,),
)
# each field of a tiny config set to a wrong type, None, a bool, a
# non-integral, non-finite, negative or huge number
CONFIG_CASES = [
    (f.name, value)
    for f in dataclasses.fields(PolicyConfig)
    for value in ("x", None, True, 1.5, float("inf"), float("nan"), -1, 2**64)
]


@settings(max_examples=len(CONFIG_CASES), derandomize=True, deadline=None)
@given(case=st.sampled_from(CONFIG_CASES))
def test_a_policy_config_field_is_named_or_accepted_and_then_acts(case):
    name, value = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = PolicyConfig(**{**TINY_CONFIG, name: value})
        except ValueError as exc:
            assert name in str(exc)
            return
        if isinstance(value, (int, float)) and value <= 2:
            policy = FactorizedPolicy(2, 1, cfg, ActionNormalizer([-1.0], [1.0]), seed=3)
            window = policy.act(Rng(0).gaussian(policy.stacked_obs_dim), Rng(1))
            assert window.shape == (cfg.t_pred, 1)


def test_group_names_and_counts():
    policy = small_policy(n=3)
    assert policy.group_names() == [
        "encoder", "router", "component:0", "component:1", "component:2",
    ]
    total = sum(policy.n_parameters([g]) for g in policy.group_names())
    assert total == policy.n_parameters()
