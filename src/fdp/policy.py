"""The factorized policy aggregate: observation encoding, joint training of
components + router + encoder, compositional inference, receding-horizon
rollout, and checkpoint I/O.

The policy is constructed with hyperparameters; ``fit(dataset)`` trains in
place and returns self (log under ``training_log_``), and ``act`` samples an
action window for one observation. A single-component policy with
its (constant) softmax weight of 1.0 is exactly the monolithic
diffusion-policy baseline.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .composition import (
    CompositionError, Router, SampleInfo, check_simplex, composed_residual, group_slices,
    sample_values,
)
from .diffusion import SCHEDULE_KINDS, ScheduleError, make_schedule
from .numerics import Adam, DimensionMismatchError, FeedForwardNet, Rng, as_f64
from .numerics import StaleCacheError, decode_f64, encode_f64, json_fields, stack_backward
from .numerics import param_count, stack_forward, typed_field

CHECKPOINT_FORMAT = "fdp-checkpoint"
CHECKPOINT_VERSION = 4
NORMALIZED_CLAMP = 1.05  # post-sampling clamp on normalized action entries
MAX_DIFFUSION_STEPS = 100_000  # each schedule table and the step table hold K rows
CANONICAL_JSON = {"sort_keys": True, "separators": (",", ":")}  # json.dumps/JSONEncoder arguments
STEP_FEATURES = 16  # sin/cos features of the diffusion step in a denoiser's input
ACTIVATION = "tanh"  # of the encoder and of every hidden layer
VALIDATION_FRACTION = 0.1  # of the episodes fit holds out: one at least of two or more


def sinusoidal_step_embedding(k, dim: int = STEP_FEATURES) -> np.ndarray:
    """Fixed sin/cos features of the diffusion step index.

    dim must be even; frequencies follow the usual geometric ladder
    10000^(-2j/dim). Accepts a scalar step or a batch of steps.
    """
    if dim % 2 != 0:
        raise ValueError(f"step embedding dim must be even, got {dim}")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ks = np.asarray(k, dtype=np.float64)
    ang = ks[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


class DenoiserComponent:
    """One noise-prediction network over [noisy window | obs embedding | step features]."""

    def __init__(self, net: FeedForwardNet, window_dim: int, step_dim: int = STEP_FEATURES):
        if net.in_dim < window_dim + step_dim or net.out_dim != window_dim:
            raise DimensionMismatchError(
                f"denoiser net must map window+emb+step -> window "
                f"({net.in_dim} -> {net.out_dim}, window_dim={window_dim}, "
                f"step_dim={step_dim})"
            )
        if (last := net.activations[-1]) != "identity":  # sampling folds the weights into it
            raise ValueError(f"a denoiser's last activation must be identity, got {last!r}")
        self.net = net
        self.window_dim = window_dim
        self.step_dim = step_dim
        self.emb_dim = net.in_dim - window_dim - step_dim

    def predict(self, values, obs_embedding, k):
        """Noise estimate for a window (or batch of windows) at step(s) k."""
        values = as_f64(values, "values")
        emb = as_f64(obs_embedding, "obs_embedding")
        step = sinusoidal_step_embedding(k, self.step_dim)
        if values.ndim == 2 and step.ndim == 1:
            step = np.broadcast_to(step, (values.shape[0], self.step_dim))
        if values.ndim == 2 and emb.ndim == 1:
            emb = np.broadcast_to(emb, (values.shape[0], self.emb_dim))
        x = np.concatenate([values, emb, step], axis=-1)
        return self.net.forward(x)

    def copy(self) -> "DenoiserComponent":
        return DenoiserComponent(self.net.copy(), self.window_dim, self.step_dim)

    def checksum(self) -> str:
        return self.net.checksum()


class ComponentBank:
    """Predictions and gradients of a component list at diffusion steps 1..K.

    DenoiserComponents of one architecture are bound to the rows of one
    (N, P) ``store`` (``FeedForwardNet.bind``; the given one, else a fresh
    one), whose (N, fan_in, fan_out) weight and (N, 1, fan_out) bias views
    make each layer one np.matmul for every component (``stack``, from
    ``FeedForwardNet.stacked``); the step features are tabulated once.
    In-place writes to the nets (Adam steps) show in the next prediction,
    until a newer bank binds the same nets. Forward and backward run the
    kernel each net runs alone
    (``stack_forward``/``stack_backward``), and numpy runs a stacked matmul as
    one BLAS call per slab, so results are bit-identical to each component's
    own ``predict`` and ``backward``. Any other component, or another
    architecture than component 0's, raises CompositionError naming it.
    """

    def __init__(self, components, steps: int, store=None):
        self.components, self.steps = list(components), steps
        if not self.components:
            raise CompositionError("a component bank needs at least one component")
        for i, comp in enumerate(self.components):
            if not isinstance(comp, DenoiserComponent):
                name = type(comp).__name__
                raise CompositionError(f"component {i} ({name}) is not a DenoiserComponent")
            arch = (comp.net.widths, comp.net.activations, comp.window_dim, comp.step_dim)
            if i == 0:
                first_arch = arch
            elif arch != first_arch:
                raise CompositionError(
                    f"component {i} (widths, activations, window_dim, step_dim) "
                    f"{arch} differs from component 0's {first_arch}"
                )
        first = self.components[0]
        self.layout = first.net.layout
        self.emb_cols = slice(first.window_dim, first.window_dim + first.emb_dim)
        self.store = np.empty((len(self), first.net.param_count())) if store is None else store
        for comp, row in zip(self.components, self.store):
            comp.net.bind(row)
        self.stack = first.net.stacked(self.store)
        self.step_table = sinusoidal_step_embedding(np.arange(1, steps + 1), first.step_dim)

    def __len__(self) -> int:
        return len(self.components)

    def select(self, idx) -> "ComponentBank":
        """A bank over components idx (ascending) for one inference call, which
        holds its chain (``start_chain``): its weights and biases are views of
        the store for a contiguous range of idx (full composition), else copies."""
        sub = copy.copy(self)
        sub.components = [self.components[i] for i in idx]
        rows = _as_slice(idx)
        sub.stack = [(w[rows], b[rows], act) for w, b, act in self.stack]
        return sub

    def start_chain(self, values, obs_embedding, w, steps: int) -> np.ndarray:
        """Hold one reverse chain over steps K = steps..1 under weights w (N,);
        return its (K + 1, dim) values buffer, row 0 set to values, row i
        feeding step K - i. Done once: a (K, N, 1, h0) table of each
        component's layer-0 embedding, step and bias terms per row, and the
        weights folded into the last layer: W_f stacks w_i W_L,i, (N h, dim),
        b_f = sum_i w_i b_L,i (a one-layer net's layer 0 is its last, whose
        outputs W_f weighs through stacked w_i I). Middle biases are copied:
        their per-step add runs 2x faster, as does the table's contiguous row."""
        dim = len(values)
        self.inputs = np.empty((steps + 1, 1, dim))
        self.inputs[0, 0] = values
        (w0, b0, act0), *middle = self.stack
        got = dim + np.shape(obs_embedding)[-1] + self.step_table.shape[1]
        if got != w0.shape[1]:
            raise DimensionMismatchError(f"layer 0 expects width {w0.shape[1]}, got {got}")
        table = self.step_table[steps - 1 :: -1] @ np.hstack(w0[:, self.emb_cols.stop :])
        table = table.reshape(steps, *b0.shape)
        table += np.matmul(obs_embedding[None], w0[:, self.emb_cols]) + b0
        w_last, b_last, _ = middle.pop() if middle else (np.eye(dim), np.zeros_like(b0), None)
        self.w_f, self.b_f = (w[:, None, None] * w_last).reshape(-1, dim), w @ b_last[:, 0]
        self.middle = [(weight, b.copy(), act) for weight, b, act in middle]
        self.w0, self.table, self.act0 = w0[:, :dim], table, act0
        self.chain = [np.empty(b.shape) for _, b, _ in self.stack[: len(middle) + 1]]
        self.hidden, self.eps_hat = self.chain[-1].reshape(-1), np.empty(dim)
        return self.inputs[:, 0]

    def predict_row(self, i: int) -> np.ndarray:
        """sum_i w_i eps_i on row i of the ``start_chain`` buffer (step K - i),
        unchecked: the row times layer 0's value rows plus its table row, then
        ``stack_forward`` of the middle layers, into the chain's buffers, then
        W_f and b_f, into a buffer the next call overwrites."""
        x = np.matmul(self.inputs[i], self.w0, out=self.chain[0])
        x += self.table[i]
        if self.act0 is not None:
            self.act0(x, out=x)
        if self.middle:
            stack_forward(self.middle, x, self.chain[1:])
        eps_hat = np.dot(self.hidden, self.w_f, out=self.eps_hat)  # the last chain buffer
        eps_hat += self.b_f
        return eps_hat

    def forward(self, values, obs_embedding, k):
        """Every component's noise estimate, a fresh (N, *values.shape) array,
        for a window and its embedding at step k (or one row of each and one
        step per window of a batch), after a finiteness check of the stacked
        input; and the cache ``backward`` takes: the nets' versions and the
        ``stack_forward`` activations."""
        x = np.concatenate([values, obs_embedding, self.step_table[k - 1]], axis=-1)
        width = self.stack[0][0].shape[1]
        if x.shape[-1] != width:
            raise DimensionMismatchError(f"layer 0 expects input width {width}, got {x.shape[-1]}")
        as_f64(x, "input")
        versions = [c.net.version for c in self.components]
        acts = stack_forward(self.stack, x.reshape(1, -1, width))
        return acts[-1].reshape(-1, *values.shape), (versions, acts)

    def backward(self, cache, grad_out, rows, demb=None, out=None) -> np.ndarray:
        """Parameter gradients of components ``rows`` (ascending) from a
        ``forward`` cache and one (B, window_dim) output gradient per row,
        written into those rows of out (an (N, P) matrix like the store, or
        a fresh one), which is returned. Each row's embedding gradient, from
        layer 0's embedding weight rows alone, is added into demb in index
        order; with demb None, layer 0 computes no input gradient. A cache
        recorded before any of the nets was written raises StaleCacheError."""
        out = np.empty_like(self.store) if out is None else out
        versions, acts = cache
        if versions != [c.net.version for c in self.components]:
            raise StaleCacheError("forward cache is stale: a component changed since it was made")
        rows = _as_slice(rows)
        grad = out[rows] if isinstance(rows, slice) else np.empty((len(rows), out.shape[1]))
        cols = demb is not None and self.emb_cols
        views = list(self.layout(grad).values())
        de = stack_backward(self.stack, acts, grad_out, views, rows, cols)
        if not isinstance(rows, slice):
            out[rows] = grad
        for d in de if cols else ():
            demb += d
        return out


def _as_slice(rows):
    """Ascending rows as a slice if they are a range (indexing then gives views)."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] + 1 == len(rows) else rows


class ActionNormalizer:
    """Per-dimension affine map between env action units and [-1, 1]."""

    def __init__(self, lo, hi):
        self.lo = as_f64(lo, "lo")
        self.hi = as_f64(hi, "hi")
        if self.lo.shape != self.hi.shape or np.any(self.hi < self.lo):
            raise ValueError("normalizer needs hi >= lo per dimension")
        self.span = self.hi - self.lo

    @classmethod
    def from_actions(cls, actions: np.ndarray) -> "ActionNormalizer":
        a = as_f64(actions, "actions").reshape(-1, actions.shape[-1])
        return cls(a.min(axis=0), a.max(axis=0))

    def normalize(self, a: np.ndarray) -> np.ndarray:
        a = as_f64(a, "actions")
        out = np.zeros_like(a)
        ok = self.span > 0.0
        out[..., ok] = 2.0 * (a[..., ok] - self.lo[ok]) / self.span[ok] - 1.0
        return out

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        x = as_f64(x, "normalized actions")  # a zero-span dimension gets lo's bits
        return np.where(self.span > 0.0, (x + 1.0) * 0.5 * self.span + self.lo, self.lo)

    def to_json(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "ActionNormalizer":
        """From 'lo' and 'hi', each a list of floats, else ValueError names it."""
        bounds = json_fields(obj, "lo", "hi")
        for name, values in zip(("lo", "hi"), bounds):
            if not (isinstance(values, list) and all(type(v) is float for v in values)):
                raise ValueError(f"field '{name}' must be a list of floats, got {values!r}")
        return cls(*bounds)


@dataclass
class PolicyConfig:
    """Hyperparameters of the factorized policy: the CLI's policy flags, in order."""

    n_components: int = 4
    diffusion_steps: int = 100
    schedule_kind: str = "cosine"
    obs_embed_dim: int = 64
    denoiser_hidden: tuple = (256, 256)
    router_hidden: tuple = (64,)
    router_temperature: float = 1.0
    router_lr_scale: float = 1.0
    t_pred: int = 16
    t_exec: int = 8
    h_obs: int = 2
    learning_rate: float = 1e-3

    def __post_init__(self):
        for f in fields(self):  # of its default's type; an int is also a float, a list a tuple
            value, kind = getattr(self, f.name), type(f.default)
            if type(value) not in {float: (int, float), tuple: (tuple, list)}.get(kind, (kind,)):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")
        if self.t_pred < 1:
            raise ValueError(f"t_pred must be >= 1, got {self.t_pred}")
        if not 1 <= self.t_exec <= self.t_pred:
            raise ValueError(f"t_exec must lie in [1, t_pred {self.t_pred}], got {self.t_exec}")
        if self.h_obs < 1:
            raise ValueError(f"h_obs must be >= 1, got {self.h_obs}")
        if not 2 <= self.diffusion_steps <= MAX_DIFFUSION_STEPS:
            steps = self.diffusion_steps
            raise ValueError(f"diffusion_steps must lie in [2, {MAX_DIFFUSION_STEPS}], got {steps}")
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule_kind must be in {SCHEDULE_KINDS}, got {self.schedule_kind}")
        for name in ("learning_rate", "router_lr_scale", "router_temperature"):
            rate = getattr(self, name)
            if not 0.0 < rate < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {rate}")
        if self.obs_embed_dim < 1:
            raise ValueError(f"obs_embed_dim must be >= 1, got {self.obs_embed_dim}")
        for name in ("denoiser_hidden", "router_hidden"):
            widths = tuple(getattr(self, name))
            if not all(type(w) is int and w >= 1 for w in widths):
                raise ValueError(f"{name} widths must be ints >= 1, got {widths}")
            setattr(self, name, widths)

    @classmethod
    def from_json(cls, obj: dict) -> "PolicyConfig":
        """``PolicyConfig(**obj)``; a missing or unknown key raises ValueError."""
        names = [f.name for f in fields(cls)]
        return cls(**dict(zip(names, json_fields(obj, *names))))


@dataclass
class TrainingLog:
    """Per-epoch train / held-out validation MSE plus run metadata."""

    entries: list = field(default_factory=list)
    n_train_windows: int = 0
    n_val_windows: int = 0
    trainable: tuple = ()

    def to_json(self) -> dict:
        return asdict(self)  # a tuple is written as a JSON list

    @classmethod
    def from_json(cls, obj) -> "TrainingLog":
        """Inverse of ``to_json``; a missing, unknown or mistyped field raises
        ValueError naming it."""
        entries, n_train, n_val, trainable = json_fields(obj, *(f.name for f in fields(cls)))
        kinds = {"epoch": int, "train_mse": float, "val_mse": float}
        for i, entry in enumerate(typed_field("entries", entries, list)):
            try:
                values = json_fields(entry, *kinds)
            except ValueError as exc:
                raise ValueError(f"field 'entries[{i}]': {exc}") from exc
            for key, value in zip(kinds, values):
                typed_field(f"entries[{i}].{key}", value, kinds[key])
        groups = list(trainable) if type(trainable) is tuple else trainable  # to_json's tuple
        for i, group in enumerate(typed_field("trainable", groups, list)):
            typed_field(f"trainable[{i}]", group, str)
        typed_field("n_train_windows", n_train, int, 0)
        typed_field("n_val_windows", n_val, int, 0)
        return cls(entries, n_train, n_val, tuple(groups))


@dataclass
class RolloutResult:
    success: bool
    trajectory: list  # (observation, executed action) pairs, in env units
    weight_trace: list  # router weights at each inference call


class FactorizedPolicy:
    """Product-of-experts diffusion policy with an observation-conditioned router.

    Parameters are grouped as 'encoder', 'router', 'component:i'; training and
    adaptation select groups through a trainable mask, and groups outside the
    mask are never written (bit-identical before/after). Every net is bound
    to its slice of one ``vector`` (``group_slices``), whose head is the
    bank's component store.
    """

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        config: PolicyConfig | None = None,
        normalizer: ActionNormalizer | None = None,
        seed: int = 0,
    ):
        self.obs_dim = int(obs_dim)
        self.action_dim = int(action_dim)
        self.config = replace(config or PolicyConfig())  # its own: upcycling writes into it
        self.normalizer = normalizer
        self.seed = int(seed)
        self.training_log_ = None
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self, vectors=None):
        """Derive each net's widths and activations, the schedule and the router
        temperature from (obs_dim, action_dim, config). The nets are drawn from
        the seed's child streams (encoder 0, router 1, component i 10 + i), or
        hold ``vectors``, (group, vector) pairs in ``group_names()`` order,
        each vector of the derived size, else ValueError names the group."""
        cfg, emb, window = self.config, self.config.obs_embed_dim, self.window_dim
        try:
            self.schedule = make_schedule(cfg.diffusion_steps, cfg.schedule_kind)
        except ScheduleError as exc:
            raise ScheduleError(
                f"diffusion_steps {cfg.diffusion_steps} and schedule_kind "
                f"{cfg.schedule_kind!r} give no valid schedule: {exc}"
            ) from exc

        def arch(d_in, hidden, d_out, last):
            return [d_in, *hidden, d_out], [ACTIVATION] * len(hidden) + [last]

        component = arch(window + emb + STEP_FEATURES, cfg.denoiser_hidden, window, "identity")
        archs = [
            arch(self.stacked_obs_dim, (), emb, ACTIVATION),
            arch(emb, cfg.router_hidden, cfg.n_components, "identity"),
            *[component] * cfg.n_components,
        ]
        if vectors is None:
            rng, streams = Rng(self.seed).child(0xB11D), [0, 1, *range(10, 10 + cfg.n_components)]
            nets = [FeedForwardNet.init(*a, rng.child(s)) for a, s in zip(archs, streams)]
        else:
            nets = []
            for (widths, acts), (group, vector) in zip(archs, vectors):
                size = param_count(widths)
                if vector.size != size:
                    raise ValueError(
                        f"checkpoint field 'parameters.{group}' holds {vector.size} values, but "
                        f"obs_dim, action_dim and config imply widths {widths}, {size} values"
                    )
                name = f"parameters.{group}"
                nets.append(_load_field(name, FeedForwardNet, widths, acts, vector))
            del vector  # vectors decode one at a time: free the last before the bank's copy
        self.obs_encoder, router_net, *component_nets = nets
        self.router = Router(router_net, cfg.router_temperature)
        self.components = [DenoiserComponent(c, window) for c in component_nets]
        self.bank  # binds the components, so views taken from now on are live

    @property
    def window_dim(self) -> int:
        return self.config.t_pred * self.action_dim

    @property
    def stacked_obs_dim(self) -> int:
        return self.obs_dim * self.config.h_obs

    @property
    def n_components(self) -> int:
        return len(self.components)

    # -- parameter bookkeeping ----------------------------------------------

    def group_names(self) -> list[str]:
        return ["encoder", "router"] + [f"component:{i}" for i in range(self.n_components)]

    def _group_net(self, group: str) -> FeedForwardNet:
        # only the canonical names: 'component:01' or 'component:-1' would
        # alias a net that a mask test by name then misses
        if group not in self.group_names():
            raise KeyError(f"unknown parameter group '{group}'")
        if group == "encoder":
            return self.obs_encoder
        if group == "router":
            return self.router.net
        return self.components[int(group.split(":", 1)[1])].net

    def n_parameters(self, groups=None) -> int:
        return sum(
            self._group_net(g).param_count()
            for g in (groups if groups is not None else self.group_names())
        )

    def group_checksums(self, groups=None) -> dict[str, str]:
        """SHA-256 of each group's parameters (every group by default)."""
        names = self.group_names() if groups is None else groups
        return {g: self._group_net(g).checksum() for g in names}

    @property
    def bank(self) -> ComponentBank:
        """The ComponentBank bound to ``components``, its store the head of
        ``vector``. Both are built anew (never patched) once the list or any
        net was replaced or bound elsewhere, and on construction,
        ``from_json``, deepcopy and unpickling, so parameter views taken
        after them stay live until the list or a net changes."""
        bank, comps = self.__dict__.get("_bank"), self.components
        nets = [self.obs_encoder, self.router.net]
        if bank is None or bank.components != comps or not all(
            net.vector.base is self._vector for net in nets + [c.net for c in comps]
        ):
            head = (len(comps), comps[0].net.param_count())
            self._vector = np.empty(math.prod(head) + self.n_parameters(["encoder", "router"]))
            store = self._vector[: math.prod(head)].reshape(head)
            bank = self._bank = ComponentBank(comps, self.schedule.K, store)
            slices = group_slices(bank, self.router, self.obs_encoder)
            for net, group in zip(nets, ("encoder", "router")):
                net.bind(self._vector[slices[group]])
        return bank

    @property
    def vector(self) -> np.ndarray:
        """Every parameter, laid out by ``group_slices``."""
        self.bank
        return self._vector

    def __getstate__(self):
        return {**self.__dict__, "_bank": None, "_vector": None}

    def __setstate__(self, state):  # a copy binds a vector of its own
        self.__dict__.update(state)
        self.bank

    # -- inference -----------------------------------------------------------

    def _check_fitted(self):
        if self.normalizer is None:
            raise RuntimeError("policy has no action normalizer; fit it first")

    def validate_observation(self, obs: np.ndarray) -> np.ndarray:
        obs = as_f64(obs, "observation")
        if obs.shape[-1] != self.stacked_obs_dim:
            raise DimensionMismatchError(
                f"observation width {obs.shape[-1]} != expected "
                f"{self.stacked_obs_dim} (obs_dim {self.obs_dim} x h_obs "
                f"{self.config.h_obs})"
            )
        return obs

    def encode_observation(self, obs: np.ndarray) -> np.ndarray:
        """Deterministic fixed-size embedding of a stacked observation."""
        return self.obs_encoder(self.validate_observation(obs))

    def stack_history(self, observations, steps) -> np.ndarray:
        """One stacked observation per step t of ``steps``: the episode's
        frames max(t - h_obs + 1 + j, 0) for j = 0..h_obs-1, so the first
        frame repeats at the episode's start."""
        h = self.config.h_obs
        frames = as_f64(observations, "observation frames")
        idx = np.maximum(np.asarray(steps)[:, None] + np.arange(1 - h, 1), 0)
        return frames[idx].reshape(len(idx), h * frames.shape[-1])

    def sample_window(
        self,
        obs: np.ndarray,
        rng: Rng,
        top_k: int | None = None,
        weights_override: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SampleInfo]:
        """Compositional reverse sampling of one normalized action window,
        shaped (t_pred, action_dim) with entries in [-1, 1] up to the clamp.

        The router runs once per call; with weights_override the router is
        bypassed entirely (solo-component analysis).
        """
        emb = self.encode_observation(obs)
        if weights_override is not None:
            w = check_simplex(weights_override)
        else:
            w = self.router.route(emb)
        values, info = sample_values(
            self.bank, w, emb, self.schedule, self.window_dim, rng, top_k, x0_clip=NORMALIZED_CLAMP
        )
        values = np.clip(values, -NORMALIZED_CLAMP, NORMALIZED_CLAMP)
        return values.reshape(self.config.t_pred, self.action_dim), info

    def act(
        self,
        obs: np.ndarray,
        rng: Rng,
        top_k: int | None = None,
        weights_override: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sample and denormalize one action window for a stacked observation."""
        self._check_fitted()
        window, _ = self.sample_window(obs, rng, top_k, weights_override)
        return self.normalizer.denormalize(window)

    def episode_controller(self, env, rng: Rng, top_k=None, weights_override=None):
        self._check_fitted()
        return _PolicyController(self, rng, top_k, weights_override)

    # -- training --------------------------------------------------------------

    def build_training_arrays(self, episodes) -> tuple[np.ndarray, np.ndarray]:
        """(normalized windows, stacked observations), a row per step t of
        each episode of L steps: window j holds action min(t + j, L - 1)."""
        self._check_fitted()
        windows, stacked = [], []
        for ep in episodes:
            acts = self.normalizer.normalize(as_f64(ep.actions, "episode actions"))
            steps = np.arange(len(acts))
            idx = np.minimum(steps[:, None] + np.arange(self.config.t_pred), len(acts) - 1)
            windows.append(acts[idx].reshape(len(acts), self.window_dim))
            stacked.append(self.stack_history(ep.observations, steps))
        return np.concatenate(windows), np.concatenate(stacked)

    def fit(
        self,
        dataset,
        epochs: int = 30,
        batch_size: int = 64,
        seed: int = 0,
        trainable=None,
    ) -> "FactorizedPolicy":
        """Joint imitation training; see TrainingLog for the per-epoch record.

        trainable selects parameter groups ('encoder', 'router', 'component:i'),
        each at most once; None means all groups, and only these get gradients.
        Deterministic given the seed: data order, drawn steps, and noise all
        come from child streams of it.
        """
        from .composition import joint_loss

        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        for name, width in (("state_dim", self.obs_dim), ("action_dim", self.action_dim)):
            if getattr(dataset, name) != width:
                raise ValueError(
                    f"dataset field '{name}' is {getattr(dataset, name)}, "
                    f"but the policy expects {width}"
                )
        groups = self.group_names() if trainable is None else sorted(trainable)
        for i, g in enumerate(groups):
            self._group_net(g)  # validates names early
            if i and g == groups[i - 1]:
                raise ValueError(f"trainable group '{g}' is listed more than once")
        episodes = list(dataset.episodes)
        if not episodes:
            raise ValueError("dataset has no episodes")
        n_val = max(1, round(VALIDATION_FRACTION * len(episodes))) if len(episodes) > 1 else 0
        if self.normalizer is None:
            self.normalizer = dataset.normalizer

        rng = Rng(seed)
        order = rng.child(1).permutation(len(episodes))
        val_eps = [episodes[i] for i in order[:n_val]]
        train_eps = [episodes[i] for i in order[n_val:]]

        w_train, o_train = self.build_training_arrays(train_eps)
        if n_val:
            w_val, o_val = self.build_training_arrays(val_eps)
            val_rng = rng.child(2)
            val_ks = val_rng.integers(1, self.schedule.K + 1, len(w_val))
            val_eps_noise = val_rng.gaussian(w_val.size).reshape(w_val.shape)
            # batch_size-row slices, so the forward caches of only one slice
            # are alive at a time. No slice is a lone row (a trailing one
            # joins the slice before it): numpy multiplies a single row by
            # gemv, whose rounding differs from the gemm of the whole set.
            slice_rows = max(batch_size, 2)
            bounds = list(range(slice_rows, len(w_val) - 1, slice_rows))
            val_slices = list(zip(*(
                np.split(a, bounds) for a in (w_val, o_val, val_ks, val_eps_noise)
            )))

        # one optimizer over the trainable slices of the vector, in order
        slices = group_slices(self.bank, self.router, self.obs_encoder)
        scale = self.config.router_lr_scale
        trained = [
            (g, self._group_net(g), slices[g].start, scale if g == "router" else 1.0)
            for g in sorted(groups, key=lambda g: slices[g].start)
        ]
        opt = Adam(lr=self.config.learning_rate)
        log = TrainingLog(
            n_train_windows=len(w_train),
            n_val_windows=int(n_val and len(w_val)),
            trainable=tuple(groups),
        )
        epoch_rng = rng.child(3)
        for epoch in range(epochs):
            perm = epoch_rng.permutation(len(w_train))
            losses = []
            for start in range(0, len(perm), batch_size):
                sel = perm[start : start + batch_size]
                loss, grad = joint_loss(
                    self.bank, self.router, self.obs_encoder,
                    (w_train[sel], o_train[sel]), self.schedule, epoch_rng, groups,
                )
                losses.append(loss)
                opt.step(self.vector, grad, trained)
            entry = {"epoch": epoch, "train_mse": float(np.mean(losses))}
            entry["val_mse"] = entry["train_mse"]
            if n_val:
                resid = np.concatenate([
                    composed_residual(
                        self.bank, self.router, self.obs_encoder,
                        w, o, self.schedule, ks, eps,
                    )[0]
                    for w, o, ks, eps in val_slices
                ])
                entry["val_mse"] = float(np.mean(resid * resid))
            log.entries.append(entry)
        self.training_log_ = log
        return self

    # -- checkpointing -----------------------------------------------------------

    def to_json(self) -> dict:
        """The checkpoint: what the policy is built from, and one base64
        string of each group's ``vector`` (``encode_f64``) under its name."""
        self._check_fitted()
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "obs_dim": self.obs_dim,
            "action_dim": self.action_dim,
            "seed": self.seed,
            "config": asdict(self.config),
            "normalizer": self.normalizer.to_json(),
            "parameters": {g: encode_f64(self._group_net(g).vector) for g in self.group_names()},
        }

    def save(self, path) -> None:  # streamed, never one string of the whole file
        write_atomic(path, json.JSONEncoder(**CANONICAL_JSON).iterencode(self.to_json()))

    @classmethod
    def from_json(cls, obj) -> "FactorizedPolicy":
        """Inverse of ``to_json``: the config builds the policy (``_build``)
        and each ``parameters`` string fills its group's net, with no random
        draw; a missing, unknown or malformed field raises ValueError naming
        it."""
        if not isinstance(obj, dict):
            raise ValueError(f"a checkpoint must be a JSON object, got {type(obj).__name__}")
        for key, want in (("format", CHECKPOINT_FORMAT), ("version", CHECKPOINT_VERSION)):
            if canonical_json(obj.get(key)) != canonical_json(want):
                raise ValueError(f"checkpoint field '{key}' is {obj.get(key)!r}, not {want!r}")
        sizes = ("obs_dim", "action_dim", "seed")
        *_, config, normalizer, parameters = json_fields(
            obj, "format", "version", *sizes, "config", "normalizer", "parameters"
        )
        policy = cls.__new__(cls)
        for key in sizes:
            if type(obj[key]) is not int:
                raise ValueError(f"checkpoint field '{key}' must be an int, got {obj[key]!r}")
            setattr(policy, key, obj[key])
        policy.config = cfg = _load_field("config", PolicyConfig.from_json, config)
        policy.normalizer = _load_field("normalizer", ActionNormalizer.from_json, normalizer)
        if policy.normalizer.lo.shape != (policy.action_dim,):
            raise ValueError(
                f"checkpoint field 'normalizer' has shape {policy.normalizer.lo.shape}, "
                f"but 'action_dim' is {policy.action_dim}"
            )
        n = cfg.n_components  # counted before the groups are listed: it may be 2**64
        if not (isinstance(parameters, dict) and len(parameters) == n + 2):
            raise ValueError(
                f"checkpoint field 'parameters' must be an object of {n + 2} groups, "
                f"as 'config.n_components' {n} implies"
            )
        groups = ["encoder", "router", *(f"component:{i}" for i in range(n))]
        strings = _load_field("parameters", lambda p: json_fields(p, *groups), parameters)
        policy.training_log_ = None
        policy._build(
            (g, _load_field(f"parameters.{g}", decode_f64, s)) for g, s in zip(groups, strings)
        )
        return policy

    @classmethod
    def load(cls, path) -> "FactorizedPolicy":
        """``from_json`` of the file, through ``read_json``."""
        return read_json(path, "checkpoint", cls.from_json)


def _load_field(name: str, load, *args):
    """load(*args); a ValueError or TypeError is re-raised as a ValueError
    naming the checkpoint field."""
    try:
        return load(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint field '{name}': {exc}") from exc


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON so identical state gives identical bytes."""
    return json.dumps(obj, **CANONICAL_JSON)


def csv_text(header, rows) -> str:
    """A header and rows as comma-separated lines; a float cell, a numpy one
    too, is written as ``repr(float(x))``, which ``float()`` reads back."""

    def cell(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def write_atomic(path, chunks) -> None:
    """Write the text chunks to a temporary file in path's directory (made if
    missing), then rename it over path: a write that fails, in the chunks'
    making too, leaves path's previous bytes and no temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:  # the mode open(path, "w") gives
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path, what: str, load):
    """load(the file's JSON value); text that is not UTF-8 JSON, or a
    ValueError that load raises, raises ValueError naming what and the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return load(json.load(f))
    except ValueError as exc:  # malformed JSON or text that is not UTF-8 too
        raise ValueError(f"{what} {path}: {exc}") from exc


class _PolicyController:
    """Receding-horizon execution state for one episode: its observations and
    the denormalized window being executed."""

    def __init__(self, policy, rng, top_k=None, weights_override=None):
        self.policy = policy
        self.rng = rng
        self.top_k = top_k
        self.weights_override = weights_override
        self.observations: list[np.ndarray] = []
        self.window = None

    def action(self, obs: np.ndarray):
        """Action of step t (the observations so far): row t % t_exec of the
        window inferred when t % t_exec == 0, with its SampleInfo, else None."""
        t = len(self.observations)
        t_exec = self.policy.config.t_exec
        self.observations.append(obs)
        info = None
        if t % t_exec == 0:  # step t is frame min(t, h - 1) of the last h
            h = self.policy.config.h_obs
            stacked = self.policy.stack_history(self.observations[-h:], [min(t, h - 1)])[0]
            window, info = self.policy.sample_window(
                stacked, self.rng, self.top_k, self.weights_override
            )
            self.window = self.policy.normalizer.denormalize(window)
        return self.window[t % t_exec], info


def rollout(policy, env, rng: Rng, top_k: int | None = None, **controller_kw) -> RolloutResult:
    """Run one episode under receding-horizon control.

    Re-infers every t_exec steps (on the fresh observation), executes the
    first t_exec actions of each predicted window, and stops on latched
    success or after env.spec.max_steps steps. The weight trace has one
    entry per inference.
    """
    obs = env.reset(rng.child(0))
    controller = policy.episode_controller(env, rng.child(1), top_k=top_k, **controller_kw)
    trajectory, trace = [], []
    while len(trajectory) < env.spec.max_steps and not env.success:
        action, info = controller.action(obs)
        if info is not None:
            trace.append(info.weights)
        trajectory.append((obs, action))
        try:
            obs = env.step(action)
        except Exception as exc:
            step = len(trajectory) - 1
            raise RuntimeError(f"environment step failed at step {step}: {exc}") from exc
    return RolloutResult(bool(env.success), trajectory, trace)
