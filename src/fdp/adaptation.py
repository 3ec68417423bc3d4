"""Task-transfer strategies: full fine-tuning, router-only, router+encoder,
and upcycled new components with frozen predecessors; continual multi-round
adaptation; replay-buffer retention.

The freeze contract is mechanical: parameter groups outside the trainable
mask are never written, so their bytes (and SHA-256 checksums) are identical
before and after adaptation. Adding a component copies an existing one
(upcycling) and extends the router head with a zero row, which leaves the
pre-adaptation behavior reachable: truncating back to the original components
and restoring the cached router reproduces the old policy exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .bench import EpisodeDataset, merge_datasets, sample_replay
from .numerics import FeedForwardNet, Rng, param_count
from .policy import FactorizedPolicy, TrainingLog

STRATEGIES = ("full", "router", "router+encoder", "new_module")


class AdaptationError(ValueError):
    pass


def mean_routing_weights(policy: FactorizedPolicy, dataset: EpisodeDataset) -> np.ndarray:
    """Router weights averaged over every step of a dataset."""
    _, obs = policy.build_training_arrays(dataset.episodes)
    return policy.router.route(policy.obs_encoder(obs)).mean(axis=0)


def extend_router_head(net: FeedForwardNet) -> FeedForwardNet:
    """Widen the final layer by one zero-initialized logit.

    The new component starts with logit 0, i.e. the uniform share under the
    softmax of the existing logits plus one; existing weights are untouched.
    """
    widths = [*net.widths[:-1], net.out_dim + 1]
    wide = FeedForwardNet(widths, net.activations, np.zeros(param_count(widths)))
    for old, new in zip(net.params().values(), wide.params().values()):
        new[..., : old.shape[-1]] = old
    return wide


def upcycle_component(policy: FactorizedPolicy, source: int) -> None:
    """Append a parameter-exact copy of component ``source`` and a
    zero-initialized router output. Both are made before the policy is
    touched, so a failure leaves it as it was."""
    n = policy.n_components
    if not 0 <= source < n:
        raise AdaptationError(f"upcycle source index {source} outside [0, {n})")
    router_net = extend_router_head(policy.router.net)
    component = policy.components[source].copy()
    policy.router.net = router_net
    policy.components.append(component)
    policy.config.n_components = policy.n_components


@dataclass
class AdaptationLog:
    strategy: str
    trainable_groups: tuple
    trainable_parameters: int
    total_parameters: int
    frozen_checksums_before: dict
    frozen_checksums_after: dict
    upcycle_source: int | None
    replay_episodes: int
    training: TrainingLog | None = None
    stages: list = field(default_factory=list)

    def frozen_stable(self) -> bool:
        return self.frozen_checksums_before == self.frozen_checksums_after

    def to_json(self) -> dict:
        return asdict(self)  # the training log too; a tuple is written as a JSON list


def adapt(
    policy: FactorizedPolicy,
    new_dataset: EpisodeDataset,
    *,
    strategy: str,
    epochs: int,
    batch_size: int,
    replay_per_task: int = 0,
    replay_dataset: EpisodeDataset | None = None,
    seed: int = 0,
) -> AdaptationLog:
    """Adapt the policy in place to a new task under the given strategy,
    training ``epochs`` epochs of ``batch_size`` windows (``fit`` checks both).
    If upcycling or training raises, the policy is restored before the error
    propagates.

    new_module copies the component of highest mean routing weight on the
    new demos (the lowest index on ties). With replay_per_task > 0, that many
    episodes per task are subsampled from replay_dataset and globally
    shuffled into the training stream, so the mix is proportional to dataset
    sizes in expectation.
    """
    if strategy not in STRATEGIES:
        raise AdaptationError(f"unknown strategy '{strategy}'; expected one of {STRATEGIES}")
    if type(replay_per_task) is not int or replay_per_task < 0:  # a bool is not a count
        raise AdaptationError(f"replay_per_task must be an int >= 0, got {replay_per_task!r}")
    if replay_per_task > 0 and replay_dataset is None:
        raise AdaptationError("replay_per_task > 0 requires a replay dataset")
    if replay_per_task == 0 and replay_dataset is not None:
        raise AdaptationError("replay dataset given but replay_per_task is 0")
    policy.check_dataset(new_dataset, "adaptation")
    if replay_per_task > 0:
        policy.check_dataset(replay_dataset, "replay")

    # Upcycling adds a new component and swaps in a new router net, so
    # references to the pre-adapt objects undo it. fit() writes the trainable
    # nets in place, so the vectors of the pre-existing ones among them are
    # copied first; frozen nets are never written.
    components, router_net = list(policy.components), policy.router.net
    old_nets = [policy._group_net(g) for g in policy.group_names()]
    normalizer, training_log = policy.normalizer, policy.training_log_
    saved = {}
    try:
        source = None
        if strategy == "new_module":
            source = int(np.argmax(mean_routing_weights(policy, new_dataset)))
            upcycle_component(policy, source)

        groups = {
            "full": policy.group_names(),
            "router": ["router"],
            "router+encoder": ["router", "encoder"],
            "new_module": ["router", f"component:{policy.n_components - 1}"],
        }[strategy]
        for g in groups:
            net = policy._group_net(g)
            if net in old_nets:
                saved[net] = net.vector.copy()
        frozen = [g for g in policy.group_names() if g not in groups]
        before = policy.group_checksums(frozen)

        train_ds = new_dataset
        replay_count = 0
        if replay_per_task > 0:
            buffer = sample_replay(replay_dataset, replay_per_task, seed)
            replay_count = len(buffer.episodes)
            train_ds = merge_datasets(new_dataset, buffer)

        policy.fit(train_ds, epochs=epochs, batch_size=batch_size, seed=seed, trainable=groups)
    except BaseException:
        policy.components, policy.router.net = components, router_net
        policy.config.n_components = len(components)
        for net, vector in saved.items():
            net.assign(vector)
        policy.normalizer, policy.training_log_ = normalizer, training_log
        raise
    after = policy.group_checksums(frozen)
    return AdaptationLog(
        strategy=strategy,
        trainable_groups=tuple(groups),
        trainable_parameters=policy.n_parameters(groups),
        total_parameters=policy.n_parameters(),
        frozen_checksums_before=before,
        frozen_checksums_after=after,
        upcycle_source=source,
        replay_episodes=replay_count,
        training=policy.training_log_,
    )


def continual_adapt(
    policy: FactorizedPolicy,
    pretrain_specs,
    stages,  # sequence of (EnvSpec, EpisodeDataset), one new task per stage
    *,
    epochs: int,
    batch_size: int,
    seed: int = 0,
    evaluate_fn=None,
) -> AdaptationLog:
    """Sequential adaptation: one upcycled component per new task, each stage
    an ``adapt`` under the new_module strategy without replay.

    After each stage the policy covers pretrain tasks plus every stage task so
    far; evaluate_fn(policy, specs_seen) is recorded per stage when given.
    Earlier components stay frozen throughout (transitively: each stage's
    frozen set contains all previous components).
    """
    log = AdaptationLog(
        strategy="new_module",
        trainable_groups=(),
        trainable_parameters=0,
        total_parameters=policy.n_parameters(),
        frozen_checksums_before={},
        frozen_checksums_after={},
        upcycle_source=None,
        replay_episodes=0,
    )
    seen_specs = list(pretrain_specs)
    for stage_idx, (spec, dataset) in enumerate(stages):
        stage_seed = Rng(seed).child(stage_idx).seed % (2**31)
        stage_log = adapt(
            policy, dataset, strategy="new_module", epochs=epochs, batch_size=batch_size,
            seed=stage_seed,
        )
        seen_specs.append(spec)
        entry = {
            "stage": stage_idx,
            "task": spec.task,
            "n_components": policy.n_components,
            "trainable_parameters": stage_log.trainable_parameters,
            "frozen_stable": stage_log.frozen_stable(),
            "upcycle_source": stage_log.upcycle_source,
        }
        if evaluate_fn is not None:
            entry["evaluation"] = evaluate_fn(policy, list(seen_specs))
        log.stages.append(entry)
        log.total_parameters = policy.n_parameters()
    return log
