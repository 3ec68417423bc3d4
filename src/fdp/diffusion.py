"""Denoising diffusion math, written once: noise schedule, forward corruption,
the per-component noise-prediction loss, and the reverse update (plain, or
with the clean-sample estimate clipped).

Conventions (variance-preserving, K discrete steps, step index k in 1..K):

    forward:   a^k = sqrt(abar_k) a^0 + sqrt(1 - abar_k) eps,  eps ~ N(0, I)
    reverse:   a^{k-1} = (a^k - gamma_k * eps_hat) / sqrt(1 - beta_k) + sigma_k z
    gamma_k  = beta_k / sqrt(1 - abar_k)
    sigma_k  = sqrt(beta_k) for k > 1, and sigma_1 = 0 (final step noise-free)

The reverse mean is the standard posterior mean; sigma_k = sqrt(beta_k) is the
variance-preserving noise choice (it keeps a unit-Gaussian target's variance
fixed under the exact score, which the analytic-score tests rely on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, as_f64


class ScheduleError(ValueError):
    """Invalid schedule request or broken schedule invariant."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Diffusion step count and per-step coefficients.

    betas[k-1] is beta_k for k in 1..K; alpha_bar[k] is the cumulative signal
    level abar_k for k in 0..K with abar_0 = 1 exactly.
    """

    K: int
    kind: str
    betas: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray  # sigma[k-1]; sigma[0] = 0 by convention
    # reverse-update coefficients, entry k-1 for step k, as read-only 0-d arrays
    gamma: tuple  # beta_k / sqrt(1 - abar_k)
    recip_sqrt_alpha: tuple  # 1 / sqrt(1 - beta_k)
    # and the x0-clipped update's
    sqrt_one_minus_ab: tuple  # sqrt(1 - abar_k)
    sqrt_ab: tuple  # sqrt(abar_k)
    x0_coef: tuple  # sqrt(abar_{k-1}) beta_k
    values_coef: tuple  # sqrt(1 - beta_k) (1 - abar_{k-1})
    one_minus_ab: tuple  # 1 - abar_k

    def __post_init__(self):
        if self.K < 2:
            raise ScheduleError(f"need at least 2 diffusion steps, got K={self.K}")
        if np.any(np.diff(self.betas) < -1e-12):
            raise ScheduleError("betas must be monotone non-decreasing")
        ab = self.alpha_bar
        if ab[0] != 1.0:
            raise ScheduleError("abar_0 must equal 1 exactly")
        if np.any(np.diff(ab) >= 0.0):
            raise ScheduleError("abar must be strictly decreasing")
        for name, arr in (("gamma", self.gamma), ("sigma", self.sigma)):
            if not np.all(np.isfinite(arr)):
                raise ScheduleError(f"{name} contains non-finite entries")
        if np.any(self.sigma < 0.0):
            raise ScheduleError("sigma must be non-negative")
        if self.sigma[0] != 0.0:
            raise ScheduleError("sigma_1 must be 0")


SCHEDULE_KINDS = ("cosine", "linear")


def make_schedule(K: int, kind: str = "cosine") -> NoiseSchedule:
    """Build a schedule of K steps. kind is 'cosine' (default) or 'linear'.

    cosine: abar follows the squared-cosine profile with offset 0.008, betas
    clipped to 0.999. linear: betas linearly spaced over [1e-4, 0.02].
    """
    if K < 2:
        raise ScheduleError(f"need at least 2 diffusion steps, got K={K}")
    if kind == "cosine":
        ks = np.arange(K + 1, dtype=np.float64)
        s = 0.008
        f = np.cos((ks / K + s) / (1 + s) * math.pi / 2.0) ** 2
        abar = f / f[0]
        betas = np.clip(1.0 - abar[1:] / abar[:-1], 1e-8, 0.999)
    elif kind == "linear":
        betas = np.linspace(1e-4, 0.02, K)
    else:
        raise ScheduleError(f"unknown schedule kind '{kind}' (cosine or linear)")
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    sigma = np.sqrt(betas)
    sigma[0] = 0.0
    ab, ab_prev = alpha_bar[1:], alpha_bar[:-1]
    tables = {
        "gamma": betas / np.sqrt(1.0 - ab),
        "recip_sqrt_alpha": 1.0 / np.sqrt(1.0 - betas),
        "sqrt_one_minus_ab": np.sqrt(1.0 - ab),
        "sqrt_ab": np.sqrt(ab),
        "x0_coef": np.sqrt(ab_prev) * betas,
        "values_coef": np.sqrt(1.0 - betas) * (1.0 - ab_prev),
        "one_minus_ab": 1.0 - ab,
    }
    for t in tables.values():
        t.flags.writeable = False  # and so is each 0-d view, a faster operand than a float
    scalars = {n: tuple(t[i, ...] for i in range(K)) for n, t in tables.items()}
    return NoiseSchedule(K, kind, betas, alpha_bar, sigma, **scalars)


def forward_noise(schedule: NoiseSchedule, a0, k, eps) -> np.ndarray:
    """Corrupt clean windows to step k: sqrt(abar_k) a0 + sqrt(1-abar_k) eps;
    k is one step, or an array of one step per row of a (B, dim) batch."""
    a0 = as_f64(a0, "a0")
    eps = as_f64(eps, "eps")
    if eps.shape != a0.shape:
        raise ValueError(f"eps shape {eps.shape} != a0 shape {a0.shape}")
    ks = np.asarray(k)
    if np.any(ks < 0) or np.any(ks > schedule.K):
        raise ScheduleError(f"step k={k} outside [0, {schedule.K}]")
    ab = schedule.alpha_bar[ks]
    if ks.ndim:
        ab = ab[:, None]
    return np.sqrt(ab) * a0 + np.sqrt(1.0 - ab) * eps


@dataclass
class ComponentLossGrads:
    denoiser: np.ndarray  # laid out like the denoiser net's vector
    obs_embedding: np.ndarray


def component_loss(denoiser, schedule: NoiseSchedule, a0, obs_embedding, rng: Rng):
    """Noise-prediction MSE for one component on one clean window.

    Draws k uniform on [1, K] and eps ~ N(0, I), corrupts a0, and scores the
    denoiser's prediction: loss = mean((eps - pred)^2). Returns the loss and
    gradients for the denoiser parameters and the observation embedding.
    """
    dim = np.size(a0)
    k = int(rng.integers(1, schedule.K + 1, 1)[0])
    eps = rng.gaussian(dim)
    noisy = forward_noise(schedule, a0, k, eps)
    pred, cache = denoiser.predict(noisy, obs_embedding, k)
    resid = pred - eps
    loss = float(np.mean(resid * resid))
    if not math.isfinite(loss):
        raise ValueError("component loss is non-finite")
    dpred = 2.0 * resid / dim
    grad, _, demb = denoiser.backward(cache, dpred)
    return loss, ComponentLossGrads(grad, demb)


def reverse_mean(
    schedule: NoiseSchedule, values, eps_hat, k: int, x0_clip: float | None = None,
    out=None, scratch=None,
) -> np.ndarray:
    """Posterior mean of the reverse update from step k to k-1.

    With x0_clip set, the implied clean-sample estimate is clipped to
    [-x0_clip, x0_clip] before the posterior mean is formed; this equals the
    plain update whenever the estimate is already in range. The coefficients
    come from the schedule's tables, so the only per-step work is on arrays.
    The result is written into out and returned (a fresh array when out is
    None); values and eps_hat are left untouched unless out is one of them.
    The x0 estimate (gamma_k eps_hat in the plain update) goes into scratch
    when given, an array like values that is none of the other three.
    """
    if not 1 <= k <= schedule.K:
        raise ScheduleError(f"step k={k} outside [1, {schedule.K}]")
    i = k - 1
    if x0_clip is None:
        scaled = np.multiply(eps_hat, schedule.gamma[i], out=scratch)
        mean = np.subtract(values, scaled, out=out)
        mean *= schedule.recip_sqrt_alpha[i]
        return mean
    x0 = np.multiply(eps_hat, schedule.sqrt_one_minus_ab[i], out=scratch)
    np.subtract(values, x0, out=x0)
    x0 /= schedule.sqrt_ab[i]
    x0.clip(-x0_clip, x0_clip, out=x0)  # ndarray.clip skips np.clip's dispatch
    x0 *= schedule.x0_coef[i]
    mean = np.multiply(values, schedule.values_coef[i], out=out)
    mean += x0
    mean /= schedule.one_minus_ab[i]
    return mean
