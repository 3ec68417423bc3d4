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


@dataclass
class AdaptationConfig:
    """How to adapt a pretrained policy to a new task."""

    strategy: str = "new_module"
    replay_per_task: int = 0  # episodes kept per pretrain task; 0 disables replay
    epochs: int = 60
    batch_size: int = 64

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise AdaptationError(
                f"unknown strategy '{self.strategy}'; expected one of {STRATEGIES}"
            )
        for name, low in (("replay_per_task", 0), ("epochs", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # a bool is not a count
                raise AdaptationError(f"{name} must be an int >= {low}, got {value!r}")


def mean_routing_weights(policy: FactorizedPolicy, dataset: EpisodeDataset) -> np.ndarray:
    """Router weights averaged over every step of a dataset."""
    _, obs = policy.build_training_arrays(dataset.episodes)
    return policy.router.route(policy.obs_encoder(obs)).mean(axis=0)


def select_upcycle_source(
    policy: FactorizedPolicy,
    source: int | None = None,
    dataset: EpisodeDataset | None = None,
) -> int:
    """Resolve the component to copy: index source, or for None the one of
    highest mean routing weight on the adaptation demos (ties to the lowest)."""
    n = policy.n_components
    if source is not None:
        if not 0 <= source < n:
            raise AdaptationError(f"upcycle source index {source} outside [0, {n})")
        return source
    if dataset is None:
        raise AdaptationError("highest-weight selection needs adaptation demos")
    mean_w = mean_routing_weights(policy, dataset)
    return int(np.argmax(mean_w))  # argmax returns the lowest index on ties


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


def upcycle_component(
    policy: FactorizedPolicy,
    source: int | None = None,
    dataset: EpisodeDataset | None = None,
) -> int:
    """Append a parameter-exact copy of the source component (as resolved by
    select_upcycle_source) and a zero-initialized router output; returns it.
    Both are made before the policy is touched, so a failure leaves it as it
    was."""
    src = select_upcycle_source(policy, source, dataset)
    router_net = extend_router_head(policy.router.net)
    component = policy.components[src].copy()
    policy.router.net = router_net
    policy.components.append(component)
    policy.config.n_components = policy.n_components
    return src


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


def trainable_groups_for(
    policy: FactorizedPolicy, config: AdaptationConfig, new_component: int | None
) -> list[str]:
    if config.strategy == "full":
        return policy.group_names()
    if config.strategy == "router":
        return ["router"]
    if config.strategy == "router+encoder":
        return ["router", "encoder"]
    return ["router", f"component:{new_component}"]


def adapt(
    policy: FactorizedPolicy,
    config: AdaptationConfig,
    new_dataset: EpisodeDataset,
    replay_dataset: EpisodeDataset | None = None,
    seed: int = 0,
) -> AdaptationLog:
    """Adapt the policy in place to a new task under the configured strategy.
    If upcycling or training raises, the policy is restored before the error
    propagates.

    With replay_per_task > 0 a replay buffer is subsampled from replay_dataset
    and globally shuffled into the training stream, so the mix is proportional
    to dataset sizes in expectation.
    """
    if not new_dataset.episodes:
        raise AdaptationError("adaptation dataset has no episodes")
    if config.replay_per_task > 0 and replay_dataset is None:
        raise AdaptationError("replay_per_task > 0 requires a replay dataset")
    if config.replay_per_task == 0 and replay_dataset is not None:
        raise AdaptationError("replay dataset given but replay_per_task is 0")
    widths = {"state_dim": policy.obs_dim, "action_dim": policy.action_dim}
    for role, ds in (("adaptation", new_dataset), ("replay", replay_dataset)):
        for name, width in widths.items():
            if ds is not None and getattr(ds, name) != width:
                raise AdaptationError(
                    f"{role} dataset field '{name}' is {getattr(ds, name)}, "
                    f"but the policy expects {width}"
                )

    # Upcycling adds a new component and swaps in a new router net, so
    # references to the pre-adapt objects undo it. fit() writes the trainable
    # nets in place, so the vectors of the pre-existing ones among them are
    # copied first; frozen nets are never written.
    components, router_net = list(policy.components), policy.router.net
    old_nets = [policy._group_net(g) for g in policy.group_names()]
    normalizer, training_log = policy.normalizer, policy.training_log_
    saved = {}
    try:
        new_component = None
        source = None
        if config.strategy == "new_module":
            source = upcycle_component(policy, dataset=new_dataset)
            new_component = policy.n_components - 1

        groups = trainable_groups_for(policy, config, new_component)
        for g in groups:
            net = policy._group_net(g)
            if net in old_nets:
                saved[net] = net.vector.copy()
        frozen = [g for g in policy.group_names() if g not in groups]
        before = policy.group_checksums(frozen)

        train_ds = new_dataset
        replay_count = 0
        if config.replay_per_task > 0:
            buffer = sample_replay(replay_dataset, config.replay_per_task, seed)
            replay_count = len(buffer.episodes)
            train_ds = merge_datasets(new_dataset, buffer)

        policy.fit(
            train_ds,
            epochs=config.epochs,
            batch_size=config.batch_size,
            seed=seed,
            trainable=groups,
        )
    except BaseException:
        policy.components, policy.router.net = components, router_net
        policy.config.n_components = len(components)
        for net, vector in saved.items():
            net.assign(vector)
        policy.normalizer, policy.training_log_ = normalizer, training_log
        raise
    after = policy.group_checksums(frozen)
    return AdaptationLog(
        strategy=config.strategy,
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
    config = AdaptationConfig(epochs=epochs, batch_size=batch_size)
    log = AdaptationLog(
        strategy=config.strategy,
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
        stage_log = adapt(policy, config, dataset, seed=stage_seed)
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
