"""Specialization diagnostics: per-component solo rollouts, pairwise score
cosine similarity over a probe set, and training-convergence tables.

Everything is read-only over a trained policy; outputs serialize to CSV and
JSON with stable column names (documented in the README) for external
plotting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import forward_noise
from .numerics import Rng, as_f64
from .policy import FactorizedPolicy, RolloutResult, rollout


@dataclass
class SimilarityMatrix:
    """Mean pairwise cosine similarity between component noise predictions."""

    values: np.ndarray  # (N, N)
    n_probes: int
    skipped: int  # probes dropped because a component predicted a zero vector

    def __post_init__(self):
        v = self.values
        assert v.ndim == 2 and v.shape[0] == v.shape[1]
        if not np.allclose(v, v.T, atol=1e-12):
            raise ValueError("similarity matrix must be symmetric")
        if np.any(np.abs(np.diag(v) - 1.0) > 1e-9):
            raise ValueError("similarity diagonal must be 1")
        if np.any(v < -1.0 - 1e-9) or np.any(v > 1.0 + 1e-9):
            raise ValueError("similarities must lie in [-1, 1]")

    def to_json(self) -> dict:
        return {
            "similarity": self.values.tolist(),
            "n_probes": self.n_probes,
            "skipped": self.skipped,
        }

    def to_csv(self) -> str:
        n = self.values.shape[0]
        lines = ["," + ",".join(f"component_{j}" for j in range(n))]
        for i in range(n):
            lines.append(
                f"component_{i}," + ",".join(repr(x) for x in self.values[i])
            )
        return "\n".join(lines) + "\n"


def one_hot(index: int, n: int) -> np.ndarray:
    if not 0 <= index < n:
        raise IndexError(f"component index {index} outside [0, {n})")
    w = np.zeros(n)
    w[index] = 1.0
    return w


def solo_rollout(
    policy: FactorizedPolicy, component_index: int, env, rng: Rng
) -> RolloutResult:
    """Rollout with the router bypassed: weight 1 on one component."""
    w = one_hot(component_index, policy.n_components)
    return rollout(policy, env, rng, weights_override=w)


def build_probe_set(
    policy: FactorizedPolicy, dataset, n: int = 256, seed: int = 0
) -> list:
    """(stacked obs, noisy window, k) tuples from dataset episodes, k uniform;
    the n noise rows are one ``gaussian_rows`` block, as n ``gaussian`` calls."""
    windows, obs = policy.build_training_arrays(dataset.episodes)
    rng = Rng(seed)
    rows = rng.integers(0, len(windows), n)
    ks = rng.integers(1, policy.schedule.K + 1, n)
    eps = rng.gaussian_rows(n, windows.shape[1])
    noisy = forward_noise(policy.schedule, windows[rows], ks, eps)
    return [(obs[row], x, int(k)) for row, x, k in zip(rows, noisy, ks)]


def score_similarity(policy: FactorizedPolicy, probes) -> SimilarityMatrix:
    """Mean cosine similarity of per-component predictions over the probes.

    Probes run on the policy's ``bank``.

    Probes where any component predicts a zero-norm vector are skipped and
    counted (a warning summarizes the count).
    """
    if not probes:
        raise ValueError("probe set is empty")
    n = policy.n_components
    bank = policy.bank
    acc = np.zeros((n, n))
    used = 0
    skipped = 0
    for obs, values, k in probes:
        if not 1 <= k <= policy.schedule.K:
            raise ValueError(f"probe step {k} outside [1, {policy.schedule.K}]")
        emb = policy.encode_observation(obs)
        preds = bank.forward(as_f64(values, "probe values"), emb, k)[0]
        norms = [float(np.linalg.norm(p)) for p in preds]
        if min(norms) == 0.0:
            skipped += 1
            continue
        for i in range(n):
            for j in range(i, n):
                acc[i, j] += float(preds[i] @ preds[j]) / (norms[i] * norms[j])
        used += 1
    if used == 0:
        raise ValueError("every probe was skipped (zero-norm predictions)")
    if skipped:
        warnings.warn(f"score_similarity skipped {skipped} zero-norm probes")
    sim = acc / used
    sim = sim + np.triu(sim, 1).T
    np.fill_diagonal(sim, 1.0)
    return SimilarityMatrix(sim, used, skipped)


@dataclass
class ConvergenceTable:
    """Per-epoch validation MSE, aligned across runs (truncated to shortest)."""

    labels: list
    epochs: list
    columns: dict  # label -> list of val MSE

    def to_json(self) -> dict:
        return {"labels": self.labels, "epochs": self.epochs, "val_mse": self.columns}

    def to_csv(self) -> str:
        header = "epoch," + ",".join(self.labels)
        lines = [header]
        for i, ep in enumerate(self.epochs):
            lines.append(
                f"{ep}," + ",".join(repr(self.columns[l][i]) for l in self.labels)
            )
        return "\n".join(lines) + "\n"


def convergence_report(logs, labels=None) -> ConvergenceTable:
    """Align training logs into one table of validation MSE per epoch."""
    logs = list(logs)
    if not logs:
        raise ValueError("no training logs given")
    if labels is None:
        labels = [f"run_{i}" for i in range(len(logs))]
    if len(labels) != len(logs):
        raise ValueError("one label per log required")
    lengths = [len(log.entries) for log in logs]
    n = min(lengths)
    if len(set(lengths)) > 1:
        warnings.warn(f"epoch counts differ {lengths}; truncating to {n}")
    columns = {
        label: [float(e["val_mse"]) for e in log.entries[:n]]
        for label, log in zip(labels, logs)
    }
    return ConvergenceTable(list(labels), list(range(n)), columns)
