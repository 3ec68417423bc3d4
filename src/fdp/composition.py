"""Composition of diffusion components: observation-conditioned routing,
weighted score aggregation, product-of-experts reverse sampling, and the
joint training loss.

Weights live on the simplex (softmax with temperature). Sampling evaluates
the router once per inference call and aggregates per-step noise predictions
as sum_i w_i eps_i; components are always reduced in index order so
floating-point sums are reproducible. Training composes the same weighted sum
inside the noise-prediction MSE, so gradients reach every component, the
router, and the observation encoder in one pass with no hard selection.
Every caller sums the per-component predictions with weighted_sum, so the
composition is written once. Sampling, the joint loss and validation take
the components as a ComponentBank (one np.matmul per layer for all
denoisers, forward and backward), which the policy keeps bound to its
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, forward_noise, reverse_mean
from .numerics import FeedForwardNet, Rng, as_f64

SIMPLEX_TOL = 1e-6


class CompositionError(ValueError):
    """Component/weight bookkeeping violation; names the offending index."""


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise stable softmax of logits / temperature."""
    z = as_f64(logits, "logits") / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class RouterCache:
    net_cache: object
    weights: np.ndarray


@dataclass
class Router:
    """Observation-conditioned weight head: MLP to N logits, softmax simplex."""

    net: FeedForwardNet
    temperature: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.temperature < np.inf:
            raise ValueError(
                f"router temperature must be finite and positive, got {self.temperature}"
            )

    @property
    def n_components(self) -> int:
        return self.net.out_dim

    def route(self, obs_embedding: np.ndarray) -> np.ndarray:
        """Simplex weights for one embedding (or a batch of them)."""
        return self.route_with_cache(obs_embedding)[0]

    def route_with_cache(self, obs_embedding: np.ndarray):
        logits, net_cache = self.net.forward(obs_embedding)
        w = softmax(logits, self.temperature)
        return w, RouterCache(net_cache, w)

    def backward(self, cache: RouterCache, grad_weights: np.ndarray, out=None, input_grad=True):
        """Gradients through softmax and the routing net.

        Returns (parameter gradient vector, written into out if given;
        gradient wrt the observation embedding, or None without input_grad).
        """
        w = cache.weights
        g = as_f64(grad_weights, "grad_weights")
        inner = (g * w).sum(axis=-1, keepdims=True)
        dlogits = w * (g - inner) / self.temperature
        return self.net.backward(cache.net_cache, dlogits, out, input_grad)


def check_simplex(w: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    w = as_f64(w, "weights")
    if np.any(w < -tol) or abs(float(w.sum()) - 1.0) > tol:
        raise CompositionError(f"weights not on the simplex: {w}")
    return w


@dataclass
class ComposedScore:
    """Weighted aggregate of per-component noise predictions."""

    per_component: list
    weights: np.ndarray
    aggregate: np.ndarray


def component_predictions(components, values, obs_embedding, k):
    """Each component's noise prediction and backward cache, in index order;
    a prediction not shaped like the window raises, naming the component."""
    preds, caches = [], []
    for i, comp in enumerate(components):
        eps_i, cache = comp.predict(values, obs_embedding, k)
        eps_i = np.asarray(eps_i, dtype=np.float64)
        if eps_i.shape != np.shape(values):
            raise CompositionError(
                f"component {i} output shape {eps_i.shape} != window shape "
                f"{np.shape(values)}"
            )
        preds.append(eps_i)
        caches.append(cache)
    return preds, caches


def weighted_sum(weights, preds) -> np.ndarray:
    """sum_i w_i eps_i, reduced in index order; preds holds the N predictions,
    as a list or stacked on a leading axis, and weights is (N,), or (N, B) for
    one per batch row, which gets trailing unit axes unless it has them: one
    product, then one index-order sum over the component axis."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if len(preds) != n:
        raise CompositionError(f"{len(preds)} components but {n} weights")
    stack = np.asarray(preds, dtype=np.float64)
    if w.ndim < stack.ndim:
        w = w.reshape(w.shape + (1,) * (stack.ndim - w.ndim))
    terms = stack * w
    if terms.size == len(terms):
        # one value per prediction: numpy would reduce the stack as one
        # contiguous run, pairwise from 8 terms on; keep the index order
        return sum(terms[1:], terms[0])
    # the -0.0 start adds exactly nothing, so this is terms[0] + terms[1] + ...
    return np.add.reduce(terms, axis=0, initial=-0.0)


def composed_score(
    components, weights, values: np.ndarray, obs_embedding, k
) -> ComposedScore:
    """aggregate = sum_i w_i eps_i(values, obs, k), components kept for analysis."""
    preds, _ = component_predictions(components, values, obs_embedding, k)
    w = np.asarray(weights, dtype=np.float64)
    return ComposedScore(preds, w, weighted_sum(w, preds))


def select_top_k(weights: np.ndarray, top_k: int):
    """Indices of the top_k largest weights (ties to the lower index) and the
    renormalized simplex restricted to them. Indices are returned ascending."""
    w = check_simplex(weights)
    n = w.shape[-1]
    if not 1 <= top_k <= n:
        raise CompositionError(f"top_k={top_k} outside [1, {n}]")
    # stable sort on (-w, index): equal weights resolve to the lower index
    order = np.lexsort((np.arange(n), -w))
    idx = np.sort(order[:top_k])
    sub = w[idx]
    return idx, sub / sub.sum()


@dataclass
class SampleInfo:
    """Bookkeeping from one compositional inference call."""

    weights: np.ndarray  # full router output (length N)
    active: np.ndarray  # component indices actually evaluated
    denoiser_evals: int  # total per-component forward passes


def sample_values(
    components, weights: np.ndarray, obs_embedding, schedule: NoiseSchedule, dim: int, rng: Rng,
    top_k: int | None = None, x0_clip: float | None = None,
) -> tuple[np.ndarray, SampleInfo]:
    """Reverse-sample one flattened action window under the composed score.

    The weights are fixed for the whole call (router runs once per inference).
    With top_k set, only the top_k components by weight are evaluated and their
    weights are renormalized on the simplex. Components whose weight is
    exactly zero (one-hot solo weights) are not evaluated at all.

    components is a ComponentBank built for at least the schedule's K steps;
    the active components run on one ``select``ed sub-bank, which holds the
    chain (``start_chain``); all K noise draws are taken, scaled by their
    sigma_k, at once. Each step is one bank call for the composed prediction
    on its row (``predict_row``), one ``reverse_mean`` into the next row and
    one noise row added (none after step 1). The sub-bank tabulates layer
    0's embedding and step terms once per call and folds the weights into
    the last layer, so a step runs only the work that changes with it, into
    the chain's buffers; the sample equals the per-component oracle up to
    the regrouped float64 sums (within 1e-12 in the tests).

    x0_clip is passed to ``reverse_mean``: it keeps learned models on the data
    manifold (normalized actions live in [-1, 1]). Leave None for unbounded
    targets such as analytic Gaussian scores.
    """
    w = check_simplex(weights)
    if len(components) != w.shape[-1]:
        raise CompositionError(
            f"{len(components)} components but {w.shape[-1]} weights"
        )
    if components.steps < schedule.K:
        raise CompositionError(f"bank tabulates {components.steps} steps, schedule K={schedule.K}")
    if top_k is not None and top_k != len(components):
        idx, w_used = select_top_k(w, top_k)
    else:
        idx, w_used = np.arange(len(components)), w
    # a zero-weight term adds an exact zero; skipping it changes no nonzero bit
    nonzero = w_used != 0.0
    idx, w_used = idx[nonzero], w_used[nonzero]
    bank = components.select(idx)
    if obs_embedding is None:  # as_f64 would make it a NaN and blame the values
        raise CompositionError("obs_embedding is None; a component without one takes np.zeros(0)")
    emb = as_f64(obs_embedding, "obs_embedding")

    # row 0 starts the chain; row i > 0 is the noise injected after step
    # K - i + 1, scaled by its sigma here in one multiply
    noise = rng.gaussian_rows(schedule.K, dim)
    noise[1:] *= schedule.sigma[:0:-1, None]
    values = bank.start_chain(noise[0], emb, w_used, schedule.K)
    rows, x0 = list(values), np.empty(dim)  # every row's view, taken once
    for i, k in enumerate(range(schedule.K, 0, -1)):
        eps_hat = bank.predict_row(i)
        reverse_mean(schedule, rows[i], eps_hat, k, x0_clip, out=rows[i + 1], scratch=x0)
        if k > 1:
            rows[i + 1] += noise[i + 1]
    return as_f64(values[-1].copy(), "sampled window"), SampleInfo(w, idx, len(idx) * schedule.K)


def composed_residual(
    components, router: Router, obs_encoder: FeedForwardNet, windows, obs, schedule, ks, eps
) -> tuple[np.ndarray, tuple]:
    """sum_i w_i eps_i - eps for clean windows corrupted at steps ks with noise
    eps, where w = router(encoder(obs)) per row and components is a
    ComponentBank, plus the forward caches (encoder, embedding, router,
    (N, B, window_dim) predictions, bank)."""
    emb, enc_cache = obs_encoder.forward(obs)
    w, router_cache = router.route_with_cache(emb)
    noisy = forward_noise(schedule, windows, ks, eps)
    preds, cache = components.forward(noisy, emb, ks)
    return weighted_sum(w.T, preds) - eps, (enc_cache, emb, router_cache, preds, cache)


def group_slices(components, router: Router, obs_encoder: FeedForwardNet) -> dict[str, slice]:
    """Each parameter group's slice of a vector laid out like a policy's
    parameters: the rows of the bank's (N, P) store ('component:i'), then the
    encoder's vector, then the router's."""
    n, p = components.store.shape
    out = {f"component:{i}": slice(i * p, (i + 1) * p) for i in range(n)}
    end = n * p + obs_encoder.param_count()
    out["encoder"], out["router"] = slice(n * p, end), slice(end, end + router.net.param_count())
    return out


def joint_loss(
    components, router: Router, obs_encoder: FeedForwardNet, batch: tuple[np.ndarray, np.ndarray],
    schedule: NoiseSchedule, rng: Rng, trainable=None,
) -> tuple[float, np.ndarray]:
    """Composed noise-prediction MSE over a batch of (clean window, obs) pairs.

    Per sample: draw k uniform on [1, K] and eps ~ N(0, I), corrupt the window,
    and penalize || eps - sum_i w_i eps_i ||^2 with w = router(encoder(obs)).
    The loss is the mean over batch and coordinates; gradients flow through the
    weighted sum into every component, the router, and the encoder at once.

    components is a ComponentBank. trainable names the groups to
    differentiate ('encoder', 'router', 'component:i'; None means all), whose
    slices of the returned fresh vector, laid out by ``group_slices``, hold
    their gradients; other slices may hold anything. One stacked backward
    covers every component when the encoder trains, and only the trainable
    ones when it is frozen; a frozen router runs a backward only for the
    encoder. Only the input gradients the encoder needs are taken. Gradients
    match an all-trainable call bit for bit.
    """
    windows, obs = batch
    windows = as_f64(windows, "windows")
    obs = as_f64(obs, "obs")
    if windows.ndim != 2 or obs.ndim != 2 or windows.shape[0] != obs.shape[0]:
        raise ValueError("batch must be (B, window_dim) and (B, obs_dim)")
    b, dim = windows.shape

    ks = rng.integers(1, schedule.K + 1, b)
    eps = rng.gaussian(b * dim).reshape(b, dim)
    resid, (enc_cache, emb, router_cache, preds, cache) = composed_residual(
        components, router, obs_encoder, windows, obs, schedule, ks, eps
    )
    loss = float(np.mean(resid * resid))
    if not np.isfinite(loss):
        raise ValueError("joint loss is non-finite")

    names = [f"component:{i}" for i in range(len(components))]
    if trainable is None:
        trainable = ["encoder", "router", *names]
    train_encoder = "encoder" in trainable
    slices = group_slices(components, router, obs_encoder)
    grad = np.empty(slices["router"].stop)
    w = router_cache.weights
    dagg = 2.0 * resid / resid.size
    demb = np.zeros_like(emb) if train_encoder else None
    rows = [i for i, g in enumerate(names) if train_encoder or g in trainable]
    if rows:  # component i's output gradient is w[:, i] * dagg
        out = grad[: slices["encoder"].start].reshape(components.store.shape)
        components.backward(cache, w.T[rows, :, None] * dagg, rows, demb, out)
    if "router" in trainable or train_encoder:
        dw = np.ascontiguousarray(np.sum(dagg * preds, axis=2).T)
        _, demb_router = router.backward(router_cache, dw, grad[slices["router"]], train_encoder)
        if train_encoder:
            demb += demb_router
            obs_encoder.backward(enc_cache, demb, grad[slices["encoder"]], False)
    return loss, grad
