"""Errors at the library's boundaries: each raise names what was wrong, and
the value it was given where there is one."""

import dataclasses
import re

import click
import numpy as np
import pytest

from fdp.adaptation import AdaptationConfig, AdaptationError, adapt
from fdp.analysis import build_probe_set, score_similarity
from fdp.bench import PointMassEnv, evaluate, generate_demos, make_suite, merge_datasets
from fdp.cli import cli
from fdp.composition import CompositionError, sample_values
from fdp.diffusion import make_schedule
from fdp.numerics import FeedForwardNet, Rng
from fdp.policy import (
    ComponentBank, FactorizedPolicy, PolicyConfig, rollout, sinusoidal_step_embedding,
)

from .oracles import AnalyticGaussianDenoiser, LoopBank

SMALL = PolicyConfig(
    n_components=2, diffusion_steps=6, obs_embed_dim=4, denoiser_hidden=(5,), router_hidden=(),
    t_pred=4, t_exec=2,
)


@pytest.fixture(scope="module")
def bimodal():
    return generate_demos("bimodal1d", 2, seed=0)


def policy(normalizer=None):
    """A bimodal1d-sized policy, untrained, with or without a normalizer."""
    return FactorizedPolicy(3, 1, SMALL, normalizer, seed=0)


def sample_without_embedding(_):
    sched = make_schedule(4)
    bank = LoopBank([AnalyticGaussianDenoiser(sched, 0.0, 1.0)], sched.K)
    sample_values(bank, np.array([1.0]), None, sched, 2, Rng(0))


# (call on the bimodal1d demos, exception type, message): each of these once
# failed with another type or a message that blamed something else
MISBLAMED = {
    "evaluate without a normalizer": (
        lambda ds: evaluate(policy(), "bimodal1d", episodes_per_task=1, seeds=(0,)),
        RuntimeError, "policy has no action normalizer; fit it first",
    ),
    "rollout without a normalizer": (
        lambda ds: rollout(policy(), PointMassEnv(make_suite("bimodal1d")[0]), Rng(0)),
        RuntimeError, "policy has no action normalizer; fit it first",
    ),
    "sample_values without an embedding": (
        sample_without_embedding, CompositionError, "obs_embedding is None",
    ),
    "build_probe_set of no probes": (
        lambda ds: build_probe_set(policy(ds.normalizer), ds, n=0),
        ValueError, "build_probe_set needs n >= 1 probes, got 0",
    ),
}


@pytest.mark.parametrize("case", MISBLAMED)
def test_a_boundary_error_blames_what_is_wrong(case, bimodal):
    call, kind, message = MISBLAMED[case]
    with pytest.raises(kind, match=re.escape(message)):
        call(bimodal)


def config_of_a_list(_, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    cli.main(["eval", "--config", str(path)], standalone_mode=False)


# (call on the bimodal1d demos and a scratch directory, exception type,
# message): raises that no other test reaches
UNREACHED = {
    "adapt with no episodes": (
        lambda ds, _: adapt(
            policy(ds.normalizer), AdaptationConfig(epochs=1),
            dataclasses.replace(ds, episodes=[]),
        ),
        AdaptationError, "adaptation dataset has no episodes",
    ),
    "merge of other widths": (
        lambda ds, _: merge_datasets(ds, generate_demos("reach4", 1, seed=0)),
        ValueError, "cannot merge datasets of (state_dim, action_dim) (3, 1) and (6, 2)",
    ),
    "no demos per task": (
        lambda ds, _: generate_demos("bimodal1d", 0, seed=0),
        ValueError, "per_task must be >= 1, got 0",
    ),
    "env step of another width": (
        lambda ds, _: PointMassEnv(make_suite("reach4")[0]).step(np.zeros(3)),
        ValueError, "action shape (3,) != (2,)",
    ),
    "config file of a list": (
        config_of_a_list, click.BadParameter, "config file must hold a JSON object, got list",
    ),
    "similarity of no probes": (
        lambda ds, _: score_similarity(policy(ds.normalizer), []),
        ValueError, "probe set is empty",
    ),
    "integers of an empty range": (
        lambda ds, _: Rng(0).integers(3, 3), ValueError, "empty integer range [3, 3)",
    ),
    "net of one width": (
        lambda ds, _: FeedForwardNet([3], [], []),
        ValueError, "widths must list at least input and output sizes, got [3]",
    ),
    "net of an unknown activation": (
        lambda ds, _: FeedForwardNet([3, 2], ["relu"], np.zeros(8)),
        ValueError, "layer 0 has unknown activation 'relu'",
    ),
    "step embedding of an odd width": (
        lambda ds, _: sinusoidal_step_embedding(3, dim=5),
        ValueError, "step embedding dim must be even, got 5",
    ),
    "bank of no components": (
        lambda ds, _: ComponentBank([], 4),
        CompositionError, "a component bank needs at least one component",
    ),
}


@pytest.mark.parametrize("case", UNREACHED)
def test_an_error_branch_names_the_bad_value(case, bimodal, tmp_path):
    call, kind, message = UNREACHED[case]
    with pytest.raises(kind, match=re.escape(message)):
        call(bimodal, tmp_path)
