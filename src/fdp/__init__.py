"""Factorized diffusion policy: multiple small diffusion components composed
through an observation-conditioned router into one product-of-experts policy,
with modular adaptation and analysis tooling on synthetic benchmarks."""

from .numerics import Adam, FeedForwardNet, Rng
from .diffusion import NoiseSchedule, make_schedule
from .composition import Router, composed_score, joint_loss, sample_values
from .policy import ActionNormalizer, FactorizedPolicy, PolicyConfig, rollout
from .bench import (
    EpisodeDataset,
    ExpertPolicy,
    PointMassEnv,
    evaluate,
    generate_demos,
    make_suite,
)
from .adaptation import AdaptationConfig, adapt, continual_adapt, upcycle_component
from .analysis import build_probe_set, convergence_report, score_similarity, solo_rollout

__all__ = [
    "ActionNormalizer",
    "Adam",
    "AdaptationConfig",
    "EpisodeDataset",
    "ExpertPolicy",
    "FactorizedPolicy",
    "FeedForwardNet",
    "NoiseSchedule",
    "PointMassEnv",
    "PolicyConfig",
    "Rng",
    "Router",
    "adapt",
    "build_probe_set",
    "composed_score",
    "continual_adapt",
    "convergence_report",
    "evaluate",
    "generate_demos",
    "joint_loss",
    "make_schedule",
    "make_suite",
    "rollout",
    "sample_values",
    "score_similarity",
    "solo_rollout",
    "upcycle_component",
]
