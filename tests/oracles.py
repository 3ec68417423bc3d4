"""Independent oracles shared across test modules.

These deliberately avoid the package's own gradient, sampling and
optimizer paths: analytic Gaussian scores, the per-component loop for the
composed noise prediction and the per-step reverse sampler built on it,
closed-form product-of-Gaussians moments, the per-array Adam, a generic
central-finite-difference gradient checker, and the layout check of a net's
parameter vector.
"""

from dataclasses import dataclass, field

import numpy as np

from fdp.numerics import DimensionMismatchError, NonFiniteError


class AnalyticGaussianDenoiser:
    """Exact noise prediction for a Gaussian data distribution N(mu, var).

    For the variance-preserving forward process, the marginal at step k is
    N(sqrt(abar_k) mu, abar_k var + 1 - abar_k), so the optimal prediction is
        eps*(a, k) = sqrt(1-abar_k) (a - sqrt(abar_k) mu) / (abar_k var + 1 - abar_k)
    applied elementwise. Stateless: no parameters, no caches.
    """

    def __init__(self, schedule, mu, var):
        self.schedule = schedule
        self.mu = float(mu)
        self.var = float(var)

    def predict(self, values, obs_embedding, k):
        ab = self.schedule.alpha_bar[k]
        m = ab * self.var + (1.0 - ab)
        eps = np.sqrt(1.0 - ab) * (values - np.sqrt(ab) * self.mu) / m
        return eps, None

    def backward(self, cache, grad_out):
        return {}, np.zeros_like(grad_out), None


class FixedOutputDenoiser:
    """Returns a fixed vector (or zeros) regardless of input."""

    def __init__(self, output=None, dim=None):
        self.output = output
        self.dim = dim

    def predict(self, values, obs_embedding, k):
        if self.output is not None:
            return np.array(self.output, dtype=np.float64), None
        return np.zeros(self.dim if self.dim else values.shape[-1]), None

    def backward(self, cache, grad_out):
        return {}, np.zeros_like(grad_out), None


class PointMassDenoiser:
    """Perfect denoiser for a point mass at c: inverts the forward corruption."""

    def __init__(self, schedule, c):
        self.schedule = schedule
        self.c = c

    def predict(self, values, obs_embedding, k):
        ab = self.schedule.alpha_bar[k]
        return (values - np.sqrt(ab) * self.c) / np.sqrt(1.0 - ab), None


def composed_prediction_loop(components, weights, values, obs_embedding, k):
    """Reference composed noise prediction: sum_i w_i * eps_i, one component at
    a time in index order. weights is (N,), or (B, N) for one row per sample."""
    w = np.asarray(weights, dtype=np.float64)
    total = 0.0
    for i, comp in enumerate(components):
        w_i = w[i] if w.ndim == 1 else w[:, i : i + 1]
        total = total + w_i * comp.predict(values, obs_embedding, k)[0]
    return total


def sample_values_loop(components, weights, obs_embedding, schedule, dim, rng, x0_clip=None):
    """Reference reverse sampler: one rng.gaussian(dim) per step and the
    composed prediction one component at a time, with the x0-clipped update
    (or the plain posterior mean when x0_clip is None), each written out from
    abar and beta with scalar coefficients. Components and weights are the
    ones evaluated, after any top-k selection."""
    values = rng.gaussian(dim)
    for k in range(schedule.K, 0, -1):
        eps_hat = composed_prediction_loop(components, weights, values, obs_embedding, k)
        ab_k, ab_prev = schedule.alpha_bar[k], schedule.alpha_bar[k - 1]
        beta = schedule.betas[k - 1]
        if x0_clip is None:
            # (a - beta / sqrt(1 - abar_k) eps) / sqrt(1 - beta), the division
            # taken as a product with the reciprocal, as the schedule rounds it
            values = (1.0 / np.sqrt(1.0 - beta)) * (
                values - beta / np.sqrt(1.0 - ab_k) * eps_hat
            )
        else:
            x0 = (values - np.sqrt(1.0 - ab_k) * eps_hat) / np.sqrt(ab_k)
            x0 = np.clip(x0, -x0_clip, x0_clip)
            values = (
                np.sqrt(ab_prev) * beta * x0
                + np.sqrt(1.0 - beta) * (1.0 - ab_prev) * values
            ) / (1.0 - ab_k)
        if k > 1:
            values = values + schedule.sigma[k - 1] * rng.gaussian(dim)
    return values


def composed_residual_loop(policy, windows, obs, ks, eps):
    """Reference residual sum_i w_i eps_i - eps of a policy on clean windows
    corrupted at steps ks with noise eps."""
    emb = policy.obs_encoder(obs)
    w = policy.router.route(emb)
    ab = policy.schedule.alpha_bar[ks][:, None]
    noisy = np.sqrt(ab) * windows + np.sqrt(1.0 - ab) * eps
    return composed_prediction_loop(policy.components, w, noisy, emb, ks) - eps


def product_of_gaussians(mus, variances, weights):
    """Moments of prod_i N(mu_i, var_i)^{w_i}: precision-weighted combination."""
    mus = np.asarray(mus, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    precision = np.sum(weights / variances)
    mean = np.sum(weights * mus / variances) / precision
    return mean, 1.0 / precision


def central_diff(f, arr, h=1e-5):
    """Elementwise central finite differences of scalar f wrt array arr (in place)."""
    num = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        num[idx] = (fp - fm) / (2.0 * h)
    return num


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))))


@dataclass
class DictAdam:
    """Reference Adam over a dict of named parameter arrays, one array at a
    time. ``step`` returns new arrays and leaves its inputs untouched."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params, grads):
        self.t += 1
        out = {}
        for path, p in params.items():
            g = grads[path]
            if g.shape != p.shape:
                raise DimensionMismatchError(
                    f"gradient shape {g.shape} != parameter shape {p.shape} at '{path}'"
                )
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient at '{path}'")
            if path not in self.m:
                self.m[path] = np.zeros_like(p)
                self.v[path] = np.zeros_like(p)
            self.m[path] = self.beta1 * self.m[path] + (1.0 - self.beta1) * g
            self.v[path] = self.beta2 * self.v[path] + (1.0 - self.beta2) * g * g
            m_hat = self.m[path] / (1.0 - self.beta1**self.t)
            v_hat = self.v[path] / (1.0 - self.beta2**self.t)
            out[path] = p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return out


def assert_layers_view_vector(net, flat=None):
    """The layers' weights and biases (or, given flat, the blocks of
    net.layout(flat)) are C-contiguous views into net.vector (or flat), laid
    out weight then bias, layer by layer, in params() order."""
    if flat is None:
        flat, blocks = net.vector, [a for l in net.layers for a in (l.weight, l.bias)]
    else:
        blocks = list(net.layout(flat).values())
    offset = 0
    for p, block in zip(net.params().values(), blocks, strict=True):
        assert block.shape == p.shape
        assert block.flags.c_contiguous and block.base is flat
        np.testing.assert_array_equal(block.ravel(), flat[offset : offset + block.size])
        offset += block.size
    assert offset == flat.size == net.param_count()
