"""Adaptation strategies: upcycling, freezing, replay, continual stages."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdp.adaptation
import fdp.composition
from fdp.adaptation import (
    AdaptationError,
    adapt,
    continual_adapt,
    extend_router_head,
    mean_routing_weights,
    upcycle_component,
)
from fdp.bench import evaluate, generate_demos, make_suite
from fdp.numerics import Rng
from fdp.policy import FactorizedPolicy, PolicyConfig

from .oracles import assert_bank_serves, assert_layers_view_vector


SMALL = dict(
    diffusion_steps=10,
    obs_embed_dim=12,
    denoiser_hidden=(16,),
    router_hidden=(8,),
)


def small_policy(n=2, seed=0, obs_dim=6, action_dim=2):
    return FactorizedPolicy(
        obs_dim=obs_dim,
        action_dim=action_dim,
        config=PolicyConfig(n_components=n, **SMALL),
        seed=seed,
    )


@pytest.fixture(scope="module")
def reach_ds():
    return generate_demos("reach4", per_task=4, seed=11)


@pytest.fixture(scope="module")
def pretrained(reach_ds):
    policy = small_policy(n=2)
    return policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)


@pytest.fixture(scope="module")
def pick_ds():
    return generate_demos([make_suite("pick-side")[0]], per_task=4, seed=12)


# ---------------------------------------------------------------------------
# upcycle_component
# ---------------------------------------------------------------------------


def test_upcycle_copies_source_bitwise(reach_ds):
    policy = small_policy(n=3)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    upcycle_component(policy, source=1)
    assert policy.n_components == 4
    assert policy.components[3].checksum() == policy.components[1].checksum()
    assert policy.router.net.out_dim == 4


def test_upcycle_new_weight_is_uniform_share(reach_ds):
    policy = small_policy(n=3)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    _, obs = policy.build_training_arrays(reach_ds.episodes[:2])
    emb = policy.obs_encoder(obs)
    logits_before = policy.router.net(emb)
    upcycle_component(policy, source=0)
    logits_after = policy.router.net(emb)
    np.testing.assert_allclose(logits_after[:, :3], logits_before, rtol=0, atol=0)
    np.testing.assert_array_equal(logits_after[:, 3], 0.0)
    # with the new logit forced out (weight 0), the composition is unchanged
    w_old = policy.router.route(emb[0])[:3]
    stacked = np.concatenate([w_old / w_old.sum(), [0.0]])
    from fdp.composition import composed_score

    values = Rng(3).gaussian(policy.window_dim)
    full = composed_score(policy.components[:3], w_old / w_old.sum(), values, emb[0], 2)
    ext = composed_score(policy.components, stacked, values, emb[0], 2)
    np.testing.assert_allclose(ext.aggregate, full.aggregate, rtol=0, atol=0)


def test_upcycle_checkpoint_round_trip(tmp_path, reach_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    upcycle_component(policy, source=0)
    path = tmp_path / "ckpt.json"
    policy.save(path)
    back = FactorizedPolicy.load(path)
    assert back.n_components == 3
    assert back.group_checksums() == policy.group_checksums()


def test_policies_built_from_one_config_keep_their_own(tmp_path, reach_ds):
    cfg = PolicyConfig(n_components=2, **SMALL)
    upcycled, other = (FactorizedPolicy(6, 2, cfg, reach_ds.normalizer, seed) for seed in (0, 1))
    upcycle_component(upcycled, source=0)
    assert (upcycled.config.n_components, other.config.n_components) == (3, 2)
    assert cfg.n_components == 2
    other.save(tmp_path / "other.json")
    assert FactorizedPolicy.load(tmp_path / "other.json").n_components == 2
    assert FactorizedPolicy(6, 2, cfg).n_components == 2


def test_a_failed_upcycle_leaves_the_policy_untouched(monkeypatch):
    policy = small_policy(n=2)
    router_net, components, before = policy.router.net, list(policy.components), policy.vector.copy()

    def fail(net):
        raise MemoryError("no room for a wider head")

    monkeypatch.setattr(fdp.adaptation, "extend_router_head", fail)
    with pytest.raises(MemoryError):
        upcycle_component(policy, source=0)
    assert policy.router.net is router_net and policy.components == components
    assert policy.config.n_components == 2
    np.testing.assert_array_equal(policy.vector, before)


def test_upcycle_source_validation():
    policy = small_policy(n=2)
    before = policy.group_checksums()
    for source in (-1, 2, 5):
        with pytest.raises(AdaptationError, match=rf"upcycle source index {source} outside \[0, 2\)"):
            upcycle_component(policy, source)
    assert policy.group_checksums() == before and policy.n_components == 2


def test_highest_weight_selector_matches_mean_weights(reach_ds):
    policy = small_policy(n=3, seed=4)
    policy.fit(reach_ds, epochs=2, batch_size=32, seed=1)
    source = int(np.argmax(mean_routing_weights(policy, reach_ds)))
    copied = policy.components[source].checksum()
    log = adapt(policy, reach_ds, strategy="new_module", epochs=0, batch_size=32)
    assert log.upcycle_source == source
    assert policy.components[3].checksum() == copied


def test_extend_router_head_shapes():
    net = small_policy(n=2).router.net
    wide = extend_router_head(net)
    assert wide.out_dim == net.out_dim + 1
    assert wide.in_dim == net.in_dim


def test_upcycled_component_and_widened_router_own_their_vectors():
    policy = small_policy(n=2)
    source_net, old_router = policy.components[1].net, policy.router.net
    upcycle_component(policy, source=1)
    for net in (policy.components[2].net, policy.router.net):
        assert_layers_view_vector(net)
    assert not np.shares_memory(policy.components[2].net.vector, source_net.vector)
    assert not np.shares_memory(policy.router.net.vector, old_router.vector)


def test_upcycling_and_a_rolled_back_adapt_rebuild_the_store(reach_ds, pick_ds, monkeypatch):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    bank = policy.bank
    upcycle_component(policy, source=1)
    assert policy.bank is not bank and len(policy.bank) == 3
    assert_bank_serves(policy)
    frozen = {i: policy.components[i].checksum() for i in range(3)}

    joint_loss, calls = fdp.composition.joint_loss, []

    def fail_on_second_batch(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return joint_loss(*args)

    monkeypatch.setattr(fdp.composition, "joint_loss", fail_on_second_batch)
    with pytest.raises(RuntimeError, match="injected"):
        adapt(policy, pick_ds, strategy="new_module", epochs=2, batch_size=32)
    assert policy.n_components == 3
    assert {i: policy.components[i].checksum() for i in range(3)} == frozen
    assert_bank_serves(policy)


# ---------------------------------------------------------------------------
# adapt
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, message",
    [
        ("new", "adaptation dataset field 'state_dim' is 3"),
        ("replay", "replay dataset field 'state_dim' is 3"),
        ("action", "adaptation dataset field 'action_dim' is 1"),
    ],
)
def test_adapt_rejects_demos_of_other_widths(reach_ds, case, message):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    line = generate_demos("drawer-line", per_task=2, seed=5)  # 3-wide state, 1-wide action
    new_ds, replay_ds = {
        "new": (line, None),
        "replay": (reach_ds, line),
        "action": (dataclasses.replace(reach_ds, action_dim=1), None),
    }[case]
    replay_per_task = int(replay_ds is not None)
    before = policy.group_checksums()
    with pytest.raises(ValueError, match=message):
        adapt(
            policy, new_ds, strategy="new_module", epochs=1, batch_size=64,
            replay_per_task=replay_per_task, replay_dataset=replay_ds,
        )
    assert policy.group_checksums() == before
    assert policy.n_components == 2


@pytest.mark.parametrize(
    "strategy, fail_in",
    [
        ("new_module", "upcycle"),
        ("new_module", "fit"),
        ("full", "fit"),
        ("router", "fit"),
        ("router+encoder", "fit"),
    ],
)
def test_adapt_failure_restores_the_policy(reach_ds, pick_ds, monkeypatch, strategy, fail_in):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    checksums, log = policy.group_checksums(), policy.training_log_
    nets = [policy._group_net(g) for g in policy.group_names()]

    if fail_in == "upcycle":  # after the component is appended, before the router grows
        def extend_router_head(net):
            raise RuntimeError("injected")

        monkeypatch.setattr(fdp.adaptation, "extend_router_head", extend_router_head)
    else:  # after one optimizer step has written the trainable nets in place
        joint_loss, calls = fdp.composition.joint_loss, []

        def fail_on_second_batch(*args):
            calls.append([net.checksum() for net in nets])
            if len(calls) == 2:
                raise RuntimeError("injected")
            return joint_loss(*args)

        monkeypatch.setattr(fdp.composition, "joint_loss", fail_on_second_batch)
    with pytest.raises(RuntimeError, match="injected"):
        adapt(policy, pick_ds, strategy=strategy, epochs=2, batch_size=32)

    if fail_in == "fit" and strategy != "new_module":
        # the first step wrote some of the pre-existing nets before the failure
        assert calls[1] != [checksums[g] for g in policy.group_names()]
    assert policy.group_checksums() == checksums
    assert [policy._group_net(g) for g in policy.group_names()] == nets
    assert policy.n_components == 2
    assert policy.router.n_components == 2
    assert policy.config.n_components == 2
    assert policy.training_log_ is log


def test_new_module_freezes_original_components(reach_ds, pick_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=2, batch_size=32, seed=0)
    before = {f"component:{i}": policy.components[i].checksum() for i in range(2)}
    before["encoder"] = policy.obs_encoder.checksum()
    log = adapt(policy, pick_ds, strategy="new_module", epochs=2, batch_size=32, seed=5)
    assert policy.n_components == 3
    for i in range(2):
        assert policy.components[i].checksum() == before[f"component:{i}"]
    assert policy.obs_encoder.checksum() == before["encoder"]
    assert log.frozen_stable()
    assert set(log.trainable_groups) == {"router", "component:2"}


def test_new_module_keeps_every_frozen_groups_checkpoint_string(reach_ds, pick_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=2, batch_size=32, seed=0)
    before = policy.to_json()["parameters"]
    adapt(policy, pick_ds, strategy="new_module", epochs=2, batch_size=32, seed=5)
    after = policy.to_json()["parameters"]
    frozen = ["encoder", "component:0", "component:1"]
    assert {g: after[g] for g in frozen} == {g: before[g] for g in frozen}
    assert after["router"] != before["router"] and set(after) == {*before, "component:2"}


def test_router_strategy_touches_router_only(reach_ds, pick_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=2, batch_size=32, seed=0)
    sums = policy.group_checksums()
    log = adapt(policy, pick_ds, strategy="router", epochs=2, batch_size=32, seed=5)
    after = policy.group_checksums()
    assert after["router"] != sums["router"]
    for g in sums:
        if g != "router":
            assert after[g] == sums[g]
    assert log.trainable_groups == ("router",)


def test_router_fraction_small_at_default_architecture():
    # parameter counting on the default (desk-scale) architecture
    policy = FactorizedPolicy(obs_dim=6, action_dim=2, seed=0)
    frac = policy.n_parameters(["router"]) / policy.n_parameters()
    assert frac < 0.02


def test_full_strategy_updates_everything(reach_ds, pick_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=2, batch_size=32, seed=0)
    sums = policy.group_checksums()
    adapt(policy, pick_ds, strategy="full", epochs=2, batch_size=32, seed=5)
    after = policy.group_checksums()
    assert all(after[g] != sums[g] for g in sums)


def test_router_encoder_strategy(reach_ds, pick_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=2, batch_size=32, seed=0)
    sums = policy.group_checksums()
    adapt(policy, pick_ds, strategy="router+encoder", epochs=2, batch_size=32, seed=5)
    after = policy.group_checksums()
    assert after["router"] != sums["router"]
    assert after["encoder"] != sums["encoder"]
    assert after["component:0"] == sums["component:0"]
    assert after["component:1"] == sums["component:1"]


def test_replay_mixing_counts(reach_ds, pick_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    log = adapt(
        policy, pick_ds, strategy="new_module", epochs=1, batch_size=32,
        replay_per_task=2, replay_dataset=reach_ds, seed=5,
    )
    assert log.replay_episodes == 8  # 2 per task x 4 pretrain tasks


def test_replay_requirements_enforced(reach_ds, pick_ds):
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=1, batch_size=32, seed=0)
    with pytest.raises(AdaptationError):
        adapt(
            policy, pick_ds, strategy="new_module", epochs=1, batch_size=64,
            replay_per_task=2, seed=0,
        )
    with pytest.raises(AdaptationError):
        adapt(
            policy, pick_ds, strategy="new_module", epochs=1, batch_size=64,
            replay_per_task=0, replay_dataset=reach_ds, seed=0,
        )


def test_restoring_cached_router_recovers_pretrain_behavior(reach_ds, pick_ds):
    # retention mechanics: truncate to the original components and restore the
    # cached router; evaluation must reproduce the pre-adaptation results
    policy = small_policy(n=2)
    policy.fit(reach_ds, epochs=2, batch_size=32, seed=0)
    specs = make_suite("reach4")[:2]
    table_before = evaluate(policy, specs, episodes_per_task=4, seeds=(0,))
    cached_router = policy.router.net.copy()
    adapt(policy, pick_ds, strategy="new_module", epochs=2, batch_size=32, seed=5)
    policy.components = policy.components[:2]
    policy.config.n_components = 2
    policy.router.net = cached_router
    table_after = evaluate(policy, specs, episodes_per_task=4, seeds=(0,))
    assert table_before.to_json() == table_after.to_json()


# ---------------------------------------------------------------------------
# continual_adapt
# ---------------------------------------------------------------------------


def test_continual_adds_one_component_per_stage(reach_ds):
    specs = make_suite("continual12")[:6]
    pretrain_specs = specs[:4]
    pretrain = generate_demos(pretrain_specs, per_task=3, seed=1)
    policy = small_policy(n=4)
    policy.fit(pretrain, epochs=1, batch_size=32, seed=0)
    checks0 = [policy.components[i].checksum() for i in range(4)]

    stages = [
        (spec, generate_demos([spec], per_task=3, seed=2 + i))
        for i, spec in enumerate(specs[4:6])
    ]
    log = continual_adapt(
        policy,
        pretrain_specs,
        stages,
        epochs=1,
        batch_size=32,
        seed=9,
        evaluate_fn=lambda p, seen: {"n_tasks": len(seen)},
    )
    assert policy.n_components == 6
    assert [e["n_components"] for e in log.stages] == [5, 6]
    assert [e["evaluation"]["n_tasks"] for e in log.stages] == [5, 6]
    assert all(e["frozen_stable"] for e in log.stages)
    # transitive freeze of the original components
    for i in range(4):
        assert policy.components[i].checksum() == checks0[i]


# every setting of adapt, with the others valid
ADAPT_SETTINGS = {"strategy": "new_module", "epochs": 1, "batch_size": 16, "replay_per_task": 0}


def test_config_validation(pretrained, reach_ds):
    policy = copy.deepcopy(pretrained)
    before = policy.group_checksums()
    for name, value in (("strategy", "distill"), ("replay_per_task", -1),
                        ("replay_per_task", None)):  # a wrong type names its argument too
        with pytest.raises(AdaptationError, match=name):
            adapt(policy, reach_ds, **{**ADAPT_SETTINGS, name: value})
    assert policy.group_checksums() == before and policy.n_components == 2


# refused by fit, after adapt has upcycled: the policy is restored
@pytest.mark.parametrize(
    "field, value",
    [
        ("batch_size", 0),
        ("epochs", -1),
        ("batch_size", 1.5),
        ("batch_size", True),
        ("epochs", "3"),
        ("epochs", float("nan")),
    ],
)
def test_config_rejects_bad_batch_size_and_epochs(field, value, pretrained, reach_ds):
    policy = copy.deepcopy(pretrained)
    before = policy.group_checksums()
    with pytest.raises(ValueError, match=field):
        adapt(policy, reach_ds, **{**ADAPT_SETTINGS, field: value})
    assert policy.group_checksums() == before and policy.n_components == 2


class Interrupted(Exception):
    pass


# each setting given a wrong type, None, a bool, zero, a non-integral,
# non-finite, negative or huge number
ADAPT_CASES = [
    (name, value)
    for name in ADAPT_SETTINGS
    for value in ("x", None, True, 0, 1.5, float("inf"), float("nan"), -1, 2**64)
]


@settings(max_examples=len(ADAPT_CASES), derandomize=True, deadline=None)
@given(case=st.sampled_from(ADAPT_CASES))
def test_an_adapt_setting_is_named_or_accepted_and_then_adapts(case, reach_ds, pretrained):
    """A refused value names its argument and leaves the policy as it was;
    an accepted one adapts. An accepted epoch count too large to run (2**64)
    is interrupted after 100 batches (an epoch here is 9), which rolls it
    back."""
    name, value = case
    policy = copy.deepcopy(pretrained)
    before = policy.group_checksums()
    joint_loss, batches = fdp.composition.joint_loss, []

    def bounded(*args):
        batches.append(1)
        if len(batches) > 100:
            raise Interrupted
        return joint_loss(*args)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(fdp.composition, "joint_loss", bounded)
        try:
            log = adapt(policy, reach_ds, **{**ADAPT_SETTINGS, name: value}, seed=0)
        except (ValueError, Interrupted) as exc:
            endless = (name, value) == ("epochs", 2**64)
            assert isinstance(exc, Interrupted) if endless else name in str(exc)
            assert policy.group_checksums() == before and policy.n_components == 2
            return
    assert policy.n_components == 3
    assert len(log.training.entries) == {"epochs": value}.get(name, 1)
