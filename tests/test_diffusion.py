"""Noise schedule, forward corruption, component loss, and reverse updates."""

import dataclasses
import math

import numpy as np
import pytest

from fdp.composition import sample_values
from fdp.diffusion import ScheduleError, forward_noise, make_schedule, reverse_mean
from fdp.numerics import FeedForwardNet, Rng

from .oracles import (
    AnalyticGaussianDenoiser,
    FixedOutputDenoiser,
    LoopBank,
    PointMassDenoiser,
    central_diff,
    component_loss,
    max_rel_err,
)


# ---------------------------------------------------------------------------
# make_schedule
# ---------------------------------------------------------------------------


def test_cosine_terminal_is_near_pure_noise():
    sched = make_schedule(100, "cosine")
    assert sched.alpha_bar[-1] < 0.01
    # oracle: squared-cosine profile with the documented 0.999 beta clip,
    # recomputed from scratch
    s = 0.008
    f = lambda x: math.cos((x + s) / (1 + s) * math.pi / 2.0) ** 2
    abar = 1.0
    prev = 1.0
    for k in range(1, 101):
        cur = f(k / 100) / f(0.0)
        beta = min(max(1.0 - cur / prev, 1e-8), 0.999)
        abar *= 1.0 - beta
        prev = cur
    assert sched.alpha_bar[-1] == pytest.approx(abar, rel=1e-12)


def test_abar_zero_is_exactly_one():
    for kind in ("cosine", "linear"):
        assert make_schedule(10, kind).alpha_bar[0] == 1.0


def test_linear_abar_strictly_decreasing():
    sched = make_schedule(100, "linear")
    assert np.all(np.diff(sched.alpha_bar) < 0.0)
    assert sched.betas[0] == pytest.approx(1e-4)
    assert sched.betas[-1] == pytest.approx(0.02)


@pytest.mark.parametrize("K", [2, 5, 50, 100, 250])
@pytest.mark.parametrize("kind", ["cosine", "linear"])
def test_schedule_invariants(K, kind):
    sched = make_schedule(K, kind)
    assert np.all(sched.betas > 0.0) and np.all(sched.betas < 1.0)
    assert np.all(np.diff(sched.betas) >= -1e-12)
    assert np.all(np.diff(sched.alpha_bar) < 0.0)
    assert sched.sigma[0] == 0.0
    assert np.all(sched.sigma >= 0.0)
    for arr in (sched.gamma, sched.sigma, sched.recip_sqrt_alpha):
        assert np.all(np.isfinite(arr))


def test_schedule_rejects_small_K_and_unknown_kind():
    with pytest.raises(ScheduleError):
        make_schedule(1)
    with pytest.raises(ScheduleError):
        make_schedule(10, "quadratic")


# ---------------------------------------------------------------------------
# forward_noise
# ---------------------------------------------------------------------------


def test_forward_noise_k0_returns_clean_window():
    sched = make_schedule(20)
    a0 = Rng(1).gaussian(8)
    out = forward_noise(sched, a0, 0, np.zeros(8))
    np.testing.assert_array_equal(out, a0)


def test_forward_noise_zero_signal_is_scaled_noise():
    sched = make_schedule(20)
    eps = Rng(2).gaussian(6)
    k = 7
    out = forward_noise(sched, np.zeros(6), k, eps)
    np.testing.assert_allclose(
        out, math.sqrt(1.0 - sched.alpha_bar[k]) * eps, rtol=1e-15
    )


def test_forward_noise_length_mismatch():
    sched = make_schedule(10)
    with pytest.raises(ValueError):
        forward_noise(sched, np.zeros(4), 3, np.zeros(5))


def test_forward_noise_marginal_moments_monte_carlo():
    # oracle: E = sqrt(abar) a0, Var = (1 - abar) per coordinate
    sched = make_schedule(50)
    a0 = np.array([0.8, -0.3, 1.5])
    k = 20
    rng = Rng(77)
    n = 10**5
    draws = np.empty((n, 3))
    eps = rng.gaussian(3 * n).reshape(n, 3)
    ab = sched.alpha_bar[k]
    for i in range(3):
        draws[:, i] = math.sqrt(ab) * a0[i] + math.sqrt(1 - ab) * eps[:, i]
    expected_mean = math.sqrt(ab) * a0
    expected_var = (1.0 - ab) * np.ones(3)
    single = forward_noise(sched, a0, k, eps[0])
    np.testing.assert_allclose(single, draws[0], rtol=1e-12)
    assert np.all(np.abs(draws.mean(axis=0) - expected_mean) < 0.02)
    assert np.all(np.abs(draws.var(axis=0) / expected_var - 1.0) < 0.02)


def test_forward_noise_per_row_steps_match_scalar_calls():
    sched = make_schedule(30)
    rng = Rng(21)
    a0 = rng.gaussian(5 * 4).reshape(5, 4)
    eps = rng.gaussian(5 * 4).reshape(5, 4)
    ks = np.array([0, 1, 7, 29, 30])
    rows = np.stack([forward_noise(sched, a0[i], int(k), eps[i]) for i, k in enumerate(ks)])
    np.testing.assert_array_equal(forward_noise(sched, a0, ks, eps), rows)
    with pytest.raises(ScheduleError):
        forward_noise(sched, a0, np.array([1, 2, 3, 4, 31]), eps)


# ---------------------------------------------------------------------------
# component_loss
# ---------------------------------------------------------------------------


class _EchoNoiseDenoiser:
    """Cheats by replaying the exact noise the loss drew (loss must be 0).

    Works because component_loss inverts the corruption: for known k and a0,
    eps = (noisy - sqrt(abar_k) a0) / sqrt(1 - abar_k).
    """

    def __init__(self, schedule, a0):
        self.schedule = schedule
        self.a0 = a0

    def predict(self, values, obs_embedding, k):
        ab = self.schedule.alpha_bar[k]
        return (values - math.sqrt(ab) * self.a0) / math.sqrt(1.0 - ab), None

    def backward(self, cache, grad_out):
        return {}, np.zeros_like(grad_out), None


def test_exact_noise_prediction_gives_zero_loss():
    sched = make_schedule(40)
    a0 = Rng(5).gaussian(10)
    loss, _ = component_loss(_EchoNoiseDenoiser(sched, a0), sched, a0, None, Rng(6))
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_zero_output_denoiser_loss_is_mean_eps_squared():
    sched = make_schedule(40)
    a0 = np.zeros(32)
    rng = Rng(7)
    losses = [
        component_loss(FixedOutputDenoiser(dim=32), sched, a0, None, rng)[0]
        for _ in range(2000)
    ]
    # E[mean(eps^2)] = 1; CLT bound at 2000 draws of 32-dim means
    assert abs(np.mean(losses) - 1.0) < 0.02


class _NetDenoiser:
    """Minimal parametric denoiser: net over [values | emb | k/K]."""

    def __init__(self, net, K, window_dim, emb_dim):
        self.net, self.K = net, K
        self.window_dim, self.emb_dim = window_dim, emb_dim

    def predict(self, values, obs_embedding, k):
        x = np.concatenate([values, obs_embedding, [k / self.K]])
        return self.net.forward(x)


def test_component_loss_gradients_match_finite_differences():
    sched = make_schedule(12)
    dim, emb_dim = 6, 3
    rng = Rng(9)
    net = FeedForwardNet.init([dim + emb_dim + 1, 8, dim], ["tanh", "identity"], rng)
    den = _NetDenoiser(net, sched.K, dim, emb_dim)
    a0 = rng.gaussian(dim) * 0.5
    emb = rng.gaussian(emb_dim)

    loss, grads = component_loss(den, sched, a0, emb, Rng(31))

    def loss_fn():
        return component_loss(den, sched, a0, emb, Rng(31))[0]

    views = net.layout(grads.denoiser)
    for path, p in net.params().items():
        numeric = central_diff(loss_fn, p)
        assert max_rel_err(views[path], numeric) <= 1e-4, path
    numeric_emb = central_diff(loss_fn, emb)
    assert max_rel_err(grads.obs_embedding, numeric_emb) <= 1e-4


# ---------------------------------------------------------------------------
# reverse_mean and the reverse chain (sample_values with one component)
# ---------------------------------------------------------------------------


def test_reverse_with_analytic_standard_normal_score():
    # 10^4 independent 1-d chains run as one wide vector
    sched = make_schedule(100, "cosine")
    den = AnalyticGaussianDenoiser(sched, mu=0.0, var=1.0)
    n = 10**4
    bank, no_emb = LoopBank([den], sched.K), np.zeros(0)
    a, _ = sample_values(bank, np.array([1.0]), no_emb, sched, n, Rng(404))
    assert abs(a.mean()) < 0.05
    assert abs(a.var() - 1.0) < 0.03


def test_reverse_sigma_zero_point_mass_converges():
    sched = make_schedule(60)
    quiet = dataclasses.replace(sched, sigma=np.zeros(sched.K))
    c = 0.7
    den = PointMassDenoiser(quiet, c)
    bank, no_emb = LoopBank([den], quiet.K), np.zeros(0)
    a, _ = sample_values(bank, np.array([1.0]), no_emb, quiet, 5, Rng(12))
    np.testing.assert_allclose(a, c, atol=1e-8)


def test_last_reverse_step_is_noise_free():
    sched = make_schedule(10)
    rng = Rng(55)
    bank = LoopBank([FixedOutputDenoiser(dim=4)], sched.K)
    sample_values(bank, np.array([1.0]), np.zeros(0), sched, 4, rng)
    # K rows: the initial draw plus one per step k > 1, none after step 1
    ref = Rng(55)
    ref.gaussian_rows(sched.K, 4)
    np.testing.assert_array_equal(rng.gaussian(3), ref.gaussian(3))

    values = np.array([0.5, -0.5, 1.0, 0.0])
    eps_hat = np.array([0.1, 0.2, -0.3, 0.4])
    expected = sched.recip_sqrt_alpha[0] * (values - sched.gamma[0] * eps_hat)
    np.testing.assert_array_equal(reverse_mean(sched, values, eps_hat, 1), expected)


def test_reverse_mean_x0_clip():
    sched = make_schedule(20)
    k = 8
    ab = sched.alpha_bar[k]
    x0 = np.array([0.3, -0.9, 0.0])
    eps_hat = np.array([0.5, -1.2, 2.0])
    values = math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps_hat
    plain = reverse_mean(sched, values, eps_hat, k)
    # the clean estimate lies in [-1, 1]: clipping leaves the update unchanged
    np.testing.assert_allclose(
        reverse_mean(sched, values, eps_hat, k, 1.0), plain, rtol=1e-12, atol=1e-14
    )

    # out of range: the update is the posterior mean of the clipped estimate
    far = np.array([3.0, -2.5, 0.2])
    values = math.sqrt(ab) * far + math.sqrt(1.0 - ab) * eps_hat
    clipped = np.clip(far, -1.0, 1.0)
    ab_prev, beta = sched.alpha_bar[k - 1], sched.betas[k - 1]
    expected = (
        math.sqrt(ab_prev) * beta * clipped + math.sqrt(1.0 - beta) * (1.0 - ab_prev) * values
    ) / (1.0 - ab)
    out = reverse_mean(sched, values, eps_hat, k, 1.0)
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    assert not np.allclose(out, reverse_mean(sched, values, eps_hat, k))


@pytest.mark.parametrize("clip", [None, 1.0])
@pytest.mark.parametrize("k", [-1, 0, 11])
def test_reverse_mean_rejects_steps_outside_the_schedule(k, clip):
    sched = make_schedule(10)
    values = np.array([0.5, -0.5])
    with pytest.raises(ScheduleError, match=f"k={k}"):
        reverse_mean(sched, values, np.zeros(2), k, clip)


@pytest.mark.parametrize("kind", ["cosine", "linear"])
def test_reverse_coefficient_tables_equal_the_scalar_expressions(kind):
    sched = make_schedule(30, kind)
    for k in range(1, sched.K + 1):
        ab_k, ab_prev, beta = sched.alpha_bar[k], sched.alpha_bar[k - 1], sched.betas[k - 1]
        assert sched.sqrt_one_minus_ab[k - 1] == np.sqrt(1.0 - ab_k)
        assert sched.sqrt_ab[k - 1] == np.sqrt(ab_k)
        assert sched.x0_coef[k - 1] == np.sqrt(ab_prev) * beta
        assert sched.values_coef[k - 1] == np.sqrt(1.0 - beta) * (1.0 - ab_prev)
        assert sched.one_minus_ab[k - 1] == 1.0 - ab_k


def test_reverse_mean_leaves_its_inputs_untouched():
    sched = make_schedule(10)
    values, eps_hat = np.array([3.0, -0.2, 0.7]), np.array([0.1, -2.0, 0.4])
    kept = values.copy(), eps_hat.copy()
    for clip in (None, 1.0):
        out = reverse_mean(sched, values, eps_hat, 5, clip)
        assert not np.shares_memory(out, values) and not np.shares_memory(out, eps_hat)
        np.testing.assert_array_equal(values, kept[0])
        np.testing.assert_array_equal(eps_hat, kept[1])


@pytest.mark.parametrize("clip", [None, 1.0])
def test_reverse_mean_writes_into_out(clip):
    sched = make_schedule(10)
    values, eps_hat = np.array([3.0, -0.2, 0.7]), np.array([0.1, -2.0, 0.4])
    kept = values.copy(), eps_hat.copy()
    buffer = np.full((2, 1, 5), 7.0)  # a row of a chain's input buffer, as sampling passes it
    out = buffer[1, 0, :3]
    assert reverse_mean(sched, values, eps_hat, 5, clip, out=out) is out
    np.testing.assert_array_equal(out, reverse_mean(sched, values, eps_hat, 5, clip))
    assert np.all(buffer[0] == 7.0) and np.all(buffer[1, 0, 3:] == 7.0)
    np.testing.assert_array_equal(values, kept[0])
    np.testing.assert_array_equal(eps_hat, kept[1])
    for k in (0, 11):
        with pytest.raises(ScheduleError, match=f"k={k}"):
            reverse_mean(sched, values, eps_hat, k, clip, out=np.zeros(3))
