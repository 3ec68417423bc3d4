"""Independent oracles shared across test modules.

These deliberately avoid the package's own gradient, sampling and
optimizer paths: analytic Gaussian scores and ``LoopBank``, which samples
and trains on them one component at a time, the textbook dense forward and
backward of one net, one 2-d layer at a time, the per-component loop for the
composed noise prediction and the per-step reverse sampler built on it, the
per-component joint loss and its gradients, closed-form product-of-Gaussians
moments, the per-array Adam and the per-group step a fit is checked
against, the textbook Fisher-Yates shuffle, the masked-assignment
denormalization, the step-by-step point-mass dynamics, the per-step
training arrays and the per-probe probe set, a generic
central-finite-difference gradient checker, and the layout checks of a
net's and a policy's parameter vectors. The one exception is ``sample_loop``: the reverse chain as
a loop over fresh arrays, the reference for the sampler's in-place buffer.

A sampler over stacked nets regroups float64 sums (each act tabulates layer
0's embedding and step terms and folds the weights into the last layer), so
its windows and per-step predictions are compared with these references
under one bound, ``assert_chain_close``; ``LoopBank`` chains compare exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from fdp.composition import check_simplex, group_slices, select_top_k, weighted_sum
from fdp.diffusion import forward_noise, reverse_mean
from fdp.numerics import DimensionMismatchError, FeedForwardNet, NonFiniteError, Rng


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


class LoopBank:
    """A ``ComponentBank`` double over components with no parameters, such as
    the analytic ones above, for ``sample_values`` and ``joint_loss``: each
    component's own ``predict``, one at a time, composed with
    ``weighted_sum``; its store holds no columns."""

    def __init__(self, components, steps):
        self.components, self.steps = list(components), steps
        self.store = np.empty((len(self.components), 0))

    def __len__(self):
        return len(self.components)

    def select(self, idx):
        return LoopBank([self.components[i] for i in idx], self.steps)

    def start_chain(self, values, obs_embedding, w, steps):
        self.emb, self.weights = obs_embedding, w
        self.inputs = np.empty((steps + 1, len(values)))
        self.inputs[0] = values
        return self.inputs

    def predict_row(self, i):
        k = len(self.inputs) - 1 - i
        return weighted_sum(self.weights, self.forward(self.inputs[i], self.emb, k)[0])

    def forward(self, values, obs_embedding, k):
        outs = [comp.predict(values, obs_embedding, k) for comp in self.components]
        return np.stack([pred for pred, _ in outs]), [cache for _, cache in outs]

    def backward(self, cache, grad_out, rows, demb=None, out=None):
        for i, g in zip(rows, grad_out):
            _, _, de = self.components[i].backward(cache[i], g)
            if demb is not None:
                demb += de
        return out


# activation, and its derivative wrt the pre-activation z given a = act(z)
_ACTS = {
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
}


def net_forward_loop(net, x):
    """Textbook forward of a FeedForwardNet on a (d_in,) or (B, d_in) input,
    one 2-d layer at a time from ``net.params()``: the output, shaped like x,
    and each layer's (input, pre-activation, activation) on 2-d rows."""
    params, x = net.params(), np.asarray(x, dtype=np.float64)
    a, trace = (x[None, :] if x.ndim == 1 else x), []
    for i, act in enumerate(net.activations):
        z = a @ params[f"layer{i}.weight"] + params[f"layer{i}.bias"]
        trace.append((a, z, _ACTS[act][0](z)))
        a = trace[-1][2]
    return (a[0] if x.ndim == 1 else a), trace


def net_backward_loop(net, trace, grad_out):
    """Textbook backward for a ``net_forward_loop`` trace: the parameter
    gradient, laid out like ``net.vector``, and the input gradient, shaped
    like grad_out's rows; both summed over the batch."""
    params, g = net.params(), np.asarray(grad_out, dtype=np.float64)
    squeeze = g.ndim == 1
    g, blocks = (g[None, :] if squeeze else g), []
    for i in range(len(trace) - 1, -1, -1):
        a, z, out = trace[i]
        dz = g * _ACTS[net.activations[i]][1](z, out)
        blocks = [a.T @ dz, dz.sum(axis=0), *blocks]
        g = dz @ params[f"layer{i}.weight"].T
    return np.concatenate([b.ravel() for b in blocks]), (g[0] if squeeze else g)


# absolute bound on a stacked-net chain's windows and per-step composed
# predictions against the per-component references: a few ulps of the
# largest values in the tests (unclipped chains reach a few hundred)
CHAIN_ATOL = 1e-12


def assert_chain_close(got, expected):
    """got equals expected elementwise within CHAIN_ATOL (absolute)."""
    np.testing.assert_allclose(got, expected, rtol=0, atol=CHAIN_ATOL)


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


def sample_loop(bank, weights, obs_embedding, schedule, dim, rng, top_k=None, x0_clip=None):
    """``sample_values`` as one loop over fresh arrays: each step rebuilds the
    [values | embedding | step] input in ``bank.predict``, sums with
    ``weighted_sum`` on (N,) weights, takes a fresh ``reverse_mean`` and adds
    the scaled noise row. Returns the window and the evaluated indices."""
    w = check_simplex(weights)
    if top_k is not None and top_k != len(bank):
        idx, w_used = select_top_k(w, top_k)
    else:
        idx, w_used = np.arange(len(bank)), w
    nonzero = w_used != 0.0
    idx, w_used = idx[nonzero], w_used[nonzero]
    sub = bank.select(idx)
    noise = rng.gaussian_rows(schedule.K, dim)
    noise[1:] *= schedule.sigma[:0:-1, None]
    values = noise[0]
    for k in range(schedule.K, 0, -1):
        eps_hat = weighted_sum(w_used, sub.forward(values, obs_embedding, k)[0])
        values = reverse_mean(schedule, values, eps_hat, k, x0_clip)
        if k > 1:
            values += noise[schedule.K - k + 1]
    return values, idx


def residual_loop(components, router, obs_encoder, windows, obs, schedule, ks, eps):
    """Reference residual sum_i w_i eps_i - eps on clean windows corrupted at
    steps ks with noise eps, w = router(encoder(obs)) per row; takes the
    arguments of ``composed_residual``."""
    emb = obs_encoder(obs)
    w = router.route(emb)
    ab = schedule.alpha_bar[ks][:, None]
    noisy = np.sqrt(ab) * windows + np.sqrt(1.0 - ab) * eps
    return composed_prediction_loop(components, w, noisy, emb, ks) - eps


def composed_residual_loop(policy, windows, obs, ks, eps):
    """``residual_loop`` of a policy's own components, router and encoder."""
    return residual_loop(
        policy.components, policy.router, policy.obs_encoder, windows, obs,
        policy.schedule, ks, eps,
    )


def joint_loss_loop(components, router, obs_encoder, batch, schedule, rng, trainable=None):
    """Reference joint loss, one component at a time: each component's own
    predict and backward, every gradient computed, and the groups in
    trainable (None: all) returned. Takes the arguments of ``joint_loss``
    and draws the same steps and noise from rng."""
    windows, obs = batch
    b, dim = windows.shape
    ks = rng.integers(1, schedule.K + 1, b)
    eps = rng.gaussian(b * dim).reshape(b, dim)
    emb, enc_cache = obs_encoder.forward(obs)
    w, router_cache = router.route_with_cache(emb)
    ab = schedule.alpha_bar[ks][:, None]
    noisy = np.sqrt(ab) * windows + np.sqrt(1.0 - ab) * eps
    outs = [comp.predict(noisy, emb, ks) for comp in components]
    total = 0.0
    for i, (pred, _) in enumerate(outs):
        total = total + w[:, i : i + 1] * pred
    resid = total - eps
    dagg = 2.0 * resid / resid.size
    grads, demb = {}, np.zeros_like(emb)
    for i, (comp, (_, cache)) in enumerate(zip(components, outs)):
        grads[f"component:{i}"], _, de = comp.backward(cache, w[:, i : i + 1] * dagg)
        demb += de
    dw = np.stack([np.sum(dagg * pred, axis=1) for pred, _ in outs], axis=1)
    grads["router"], demb_router = router.backward(router_cache, dw)
    demb += demb_router
    grads["encoder"], _ = obs_encoder.backward(enc_cache, demb)
    if trainable is not None:
        grads = {g: grads[g] for g in trainable}
    return float(np.mean(resid * resid)), grads


def training_arrays_loop(policy, episodes):
    """Reference ``build_training_arrays``, one step at a time: the window is
    the step's next t_pred actions, padded by repeating the episode's last,
    and the stacked observation is the last h_obs frames of a growing
    history, its first frame repeated while it is shorter."""
    t_pred, h = policy.config.t_pred, policy.config.h_obs
    windows, stacked = [], []
    for ep in episodes:
        obs = np.asarray(ep.observations, dtype=np.float64)
        acts = policy.normalizer.normalize(ep.actions)
        history = []
        for t in range(len(acts)):
            history.append(obs[t])
            win = acts[t : t + t_pred]
            if len(win) < t_pred:
                win = np.concatenate([win, np.repeat(win[-1:], t_pred - len(win), axis=0)])
            windows.append(win.reshape(-1))
            stacked.append(np.concatenate(([history[0]] * (h - len(history)) + history)[-h:]))
    return np.asarray(windows), np.asarray(stacked)


def probe_set_loop(policy, dataset, n, seed):
    """Reference ``build_probe_set`` on ``training_arrays_loop``: one
    ``gaussian`` draw and one ``forward_noise`` call per probe."""
    windows, obs = training_arrays_loop(policy, dataset.episodes)
    rng = Rng(seed)
    rows = rng.integers(0, len(windows), n)
    ks = rng.integers(1, policy.schedule.K + 1, n)
    probes = []
    for row, k in zip(rows, ks):
        noisy = forward_noise(policy.schedule, windows[row], int(k), rng.gaussian(windows.shape[1]))
        probes.append((obs[row], noisy, int(k)))
    return probes


def permutation_loop(rng, n):
    """Textbook Fisher-Yates over arange(n): for i = n-1..1, swap i with
    j = min(floor(u * (i + 1)), i), one uniform draw u per i in that order."""
    out = np.arange(n)
    if n < 2:
        return out
    draws = rng.uniform(n - 1)
    for i in range(n - 1, 0, -1):
        j = min(int(draws[n - 1 - i] * (i + 1)), i)
        out[i], out[j] = out[j], out[i]
    return out


def product_of_gaussians(mus, variances, weights):
    """Moments of prod_i N(mu_i, var_i)^{w_i}: precision-weighted combination."""
    mus = np.asarray(mus, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    precision = np.sum(weights / variances)
    mean = np.sum(weights * mus / variances) / precision
    return mean, 1.0 / precision


def denormalize_masked(norm, x):
    """``ActionNormalizer.denormalize`` by masked assignment: lo's bits on a
    zero-span dimension, (x + 1) * 0.5 * span + lo on the others."""
    out = np.broadcast_to(norm.lo, np.shape(x)).copy()
    ok = norm.span > 0.0
    out[..., ok] = (x[..., ok] + 1.0) * 0.5 * norm.span[ok] + norm.lo[ok]
    return out


def point_mass_loop(spec, pos, actions, vmax, dt):
    """The point-mass dynamics, step by step, from position pos under fixed
    actions: clip to the unit box (np.clip), integrate, drag an engaged
    drawer, measure the error to the target (np.linalg.norm for a 2-d task)
    and latch success after hold_steps steps inside the tolerance. Returns
    each step's (observation, success)."""
    lay, pos = spec.layout, np.array(pos, dtype=np.float64)
    drawer, engaged, hold, success, out = lay.get("drawer"), False, 0, False, []
    for action in actions:
        pos = pos + np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0) * vmax * dt
        if spec.kind == "drawer":
            engaged = engaged or abs(pos[0] - drawer) <= lay["engage_dist"]
            drawer = float(pos[0]) if engaged else drawer
        if spec.kind in ("reach", "pick_side"):
            error = float(np.linalg.norm(pos - np.asarray(lay["goal"])))
            obs = np.concatenate([pos, lay["object"], lay["goal"]])
        elif spec.kind == "drawer":
            error = abs(drawer - lay["target"])
            obs = np.array([pos[0], drawer, lay["target"]])
        else:
            error = min(abs(pos[0] - g) for g in lay["goals"])
            obs = np.array([pos[0], *lay["goals"]])
        hold = hold + 1 if error < spec.success_tol else 0
        success = success or hold >= spec.hold_steps
        out.append((obs, success))
    return out


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


class GroupAdam:
    """A fit's optimizer written one group at a time: one DictAdam per
    trained group, at the policy's learning rate (the router's times
    router_lr_scale), stepped on the per-array views of the group's slice of
    a gradient vector laid out by ``group_slices``. It keeps its own copy of
    the trained groups' arrays, taken from the policy when made."""

    def __init__(self, policy, groups):
        cfg = policy.config
        self.slices = group_slices(policy.bank, policy.router, policy.obs_encoder)
        self.nets = {g: policy._group_net(g) for g in groups}
        self.params = {
            g: {k: v.copy() for k, v in net.params().items()} for g, net in self.nets.items()
        }
        self.opts = {
            g: DictAdam(lr=cfg.learning_rate * (cfg.router_lr_scale if g == "router" else 1.0))
            for g in groups
        }

    @property
    def t(self) -> int:
        (t,) = {opt.t for opt in self.opts.values()}
        return t

    def step(self, grad):
        for g, net in self.nets.items():
            self.params[g] = self.opts[g].step(self.params[g], net.layout(grad[self.slices[g]]))

    def assert_matches(self, policy):
        """Every trained group of policy holds this oracle's arrays, bit for bit."""
        for g, params in self.params.items():
            for path, p in policy._group_net(g).params().items():
                np.testing.assert_array_equal(p, params[path], err_msg=f"{g} {path}")


def layered_net(layers):
    """The FeedForwardNet of (weight, bias, activation) triples, its vector
    each weight (row-major) then bias, layer by layer."""
    widths = [np.shape(layers[0][0])[0], *(np.shape(w)[1] for w, _, _ in layers)]
    vector = np.concatenate([np.ravel(a) for w, b, _ in layers for a in (w, b)])
    return FeedForwardNet(widths, [act for _, _, act in layers], vector)


def _address(a):
    return a.__array_interface__["data"][0]


def assert_layers_view_vector(net, flat=None):
    """The blocks of net.layout(flat), by default net.params(), are
    C-contiguous views into flat (net.vector by default), laid out weight
    then bias, layer by layer. flat may itself be a view, such as a row of a
    component store: each block must start at its own offset into flat's
    memory."""
    flat = net.vector if flat is None else flat
    blocks = list(net.layout(flat).values())
    assert flat.ndim == 1 and flat.flags.c_contiguous
    offset = 0
    for p, block in zip(net.params().values(), blocks, strict=True):
        assert block.shape == p.shape
        assert block.flags.c_contiguous and np.shares_memory(block, flat)
        assert _address(block) == _address(flat) + offset * flat.itemsize
        np.testing.assert_array_equal(block.ravel(), flat[offset : offset + block.size])
        offset += block.size
    assert offset == flat.size == net.param_count()


def assert_bank_serves(policy):
    """The policy's bank is bound to its current components: the same list,
    one store row per component net, in order, the store the head of the
    policy's vector, the encoder's and the router's vectors its next slices,
    and each prediction equal to the component's own."""
    bank, vector = policy.bank, policy.vector
    assert bank.components == policy.components and len(bank) == policy.n_components
    assert bank.store.base is vector and _address(bank.store) == _address(vector)
    for comp, row in zip(policy.components, bank.store, strict=True):
        assert comp.net.vector.base is vector
        assert _address(comp.net.vector) == _address(row)
        assert_layers_view_vector(comp.net)
    offset = bank.store.size
    for net in (policy.obs_encoder, policy.router.net):
        assert net.vector.base is vector
        assert _address(net.vector) == _address(vector) + offset * vector.itemsize
        assert_layers_view_vector(net)
        offset += net.param_count()
    assert offset == vector.size
    rng = Rng(0)
    values = rng.gaussian(policy.window_dim)
    emb = rng.gaussian(policy.config.obs_embed_dim)
    for k in (1, policy.schedule.K):
        expected = [comp.predict(values, emb, k)[0] for comp in policy.components]
        np.testing.assert_array_equal(bank.forward(values, emb, k)[0], expected)
