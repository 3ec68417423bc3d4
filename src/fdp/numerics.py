"""Dense float64 numerics: small feed-forward nets with hand-written gradients,
an Adam optimizer, and a counter-based RNG whose streams are portable.

Everything here is deliberately boring: plain numpy arrays, explicit shapes,
no autodiff graph. A network is its widths, its activations and one
contiguous float64 parameter vector (its own, or a row of a matrix it is bound
to), of which every layer's weight and bias are views. Gradients are vectors
laid out the same way. Writes go through ``assign`` or an ``Adam`` step, which
update the vector in place and bump the net's version so stale backward
caches can be detected. Dense forward and backward are written once, for a
stack of nets of one architecture (``stack_forward``/``stack_backward``); a
net is a stack of one.
"""

from __future__ import annotations

import base64
import hashlib
import math
from dataclasses import dataclass

import numpy as np

class DimensionMismatchError(ValueError):
    """Input or gradient shape incompatible with a layer; names the layer."""


class StaleCacheError(RuntimeError):
    """Backward called with a cache recorded before the net's parameters changed."""


class NonFiniteError(ValueError):
    """NaN or inf encountered; message carries the offending parameter path."""


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in '{name}'")
    return arr


def as_f64(arr, name: str = "array") -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    return check_finite(name, out)


# ---------------------------------------------------------------------------
# Counter-based RNG (SplitMix64 + Box-Muller)
# ---------------------------------------------------------------------------

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)
_U53 = float(1 << 53)


def _mix64(x: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer (Steele, Lea & Flood 2014). Pure uint64 arithmetic,
    # so streams are bit-identical on every platform.
    # In place on an array; a scalar is rebound.
    x ^= x >> np.uint64(30)
    x *= _SM64_M1
    x ^= x >> np.uint64(27)
    x *= _SM64_M2
    x ^= x >> np.uint64(31)
    return x


class Rng:
    """Deterministic counter-based generator.

    The i-th raw output after seeding is ``mix64(seed + i * GAMMA)`` where mix64
    is the SplitMix64 finalizer; a call consuming n values just advances the
    counter by n. Gaussians use the Box-Muller cosine branch on two uniforms,
    so every draw is a fixed function of (seed, counter) and golden values are
    portable across machines.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        x = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        x *= _SM64_GAMMA  # array arithmetic wraps without a warning
        x += np.uint64(self.seed)
        return _mix64(x)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53-bit resolution."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) / _U53

    def gaussian(self, n: int) -> np.ndarray:
        """n i.i.d. standard normal samples via Box-Muller (cos branch only)."""
        return self.gaussian_rows(1, n)[0]

    def gaussian_rows(self, rows: int, n: int) -> np.ndarray:
        """(rows, n) standard normals; row r equals the r-th of ``rows``
        successive ``gaussian(n)`` calls, and the counter advances the same."""
        if rows < 1 or n < 1:
            raise ValueError(f"gaussian sample count must be >= 1, got {rows} x {n}")
        raw = self._raw(2 * n * rows)
        raw >>= np.uint64(11)
        # each row's u1 then u2 draws, as two contiguous (rows, n) blocks
        u = raw.reshape(rows, 2, n).transpose(1, 0, 2).astype(np.float64, order="C")
        u[0] += 1.0  # u1 in (0, 1] so the log is finite; u2 in [0, 1)
        u /= _U53
        u1, u2 = u
        np.sqrt(np.multiply(np.log(u1, out=u1), -2.0, out=u1), out=u1)
        np.cos(np.multiply(u2, 2.0 * np.pi, out=u2), out=u2)
        return u1 * u2

    def integers(self, lo: int, hi: int, n: int = 1) -> np.ndarray:
        """n ints uniform on [lo, hi). Floor-of-uniform; bias is O(range/2^53)."""
        if hi <= lo:
            raise ValueError(f"empty integer range [{lo}, {hi})")
        return lo + np.minimum(
            (self.uniform(n) * (hi - lo)).astype(np.int64), hi - lo - 1
        )

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n) driven by this stream."""
        if n < 2:
            return np.arange(n)
        top = np.arange(n - 1, 0, -1)  # swap i = n-1..1 with js, one draw each
        js = np.minimum((self.uniform(n - 1) * (top + 1)).astype(np.int64), top)
        out = list(range(n))
        for i, j in zip(top.tolist(), js.tolist()):
            out[i], out[j] = out[j], out[i]
        return np.array(out)

    def child(self, *stream_ids: int) -> "Rng":
        """Derive an independent stream from (seed, stream ids), deterministically."""
        with np.errstate(over="ignore"):
            s = np.uint64(self.seed)
            for sid in stream_ids:
                s = _mix64(
                    (s + _SM64_GAMMA) ^ _mix64(np.uint64(int(sid) & 0xFFFFFFFFFFFFFFFF))
                )
        return Rng(int(s[()] if isinstance(s, np.ndarray) else s))


# ---------------------------------------------------------------------------
# Feed-forward networks with explicit backward passes
# ---------------------------------------------------------------------------


# every activation as the ufunc applied to z in place, None for identity
ACT_UFUNCS = {"tanh": np.tanh, "identity": None}
ACTIVATIONS = tuple(ACT_UFUNCS)


def stack_forward(layers, x: np.ndarray, outs=None) -> list:
    """Every activation of N nets of one architecture, [x, a_1, ..., a_L]:
    layers holds one (N, fan_in, fan_out) weight, (N, 1, fan_out) bias and
    ``ACT_UFUNCS`` activation per layer, and x is one (1, B, fan_in) input for
    all N; each layer is one np.matmul, which numpy runs as one BLAS call per
    net, into outs[j] if given (caller-owned (N, B, fan_out) buffers)."""
    acts = [x]
    for (weight, bias, ufunc), out in zip(layers, outs or [None] * len(layers)):
        x = np.matmul(x, weight, out=out)
        x += bias
        if ufunc is not None:
            ufunc(x, out=x)
        acts.append(x)
    return acts


def stack_backward(layers, acts, g, grad_views, rows, input_cols):
    """Backpropagate the (R, B, fan_out) output gradient g of nets ``rows`` (a
    slice or ascending indices of the stack) through the ``stack_forward``
    activations acts. Each layer's dW and db, summed over the batch, go into
    grad_views (weight, bias, weight, ... of an (R, P) matrix laid out like
    the nets' vectors); returns the (R, B, cols) input gradient of layer 0's
    input_cols (a slice), from their weight rows alone, or with input_cols
    falsy returns None, and then layer 0 computes none."""
    for j in range(len(layers) - 1, -1, -1):
        weight, _, ufunc = layers[j]
        if ufunc is np.tanh:  # the derivative wrt z from a, 1 - a * a, in one buffer
            d = np.square(acts[j + 1][rows])
            g = np.multiply(g, np.subtract(1.0, d, out=d), out=d)
        x = acts[j] if j == 0 else acts[j][rows]
        np.matmul(x.transpose(0, 2, 1), g, out=grad_views[2 * j])
        g.sum(axis=1, out=grad_views[2 * j + 1])
        if j:
            g = np.matmul(g, weight[rows].transpose(0, 2, 1))
        elif input_cols:
            return np.matmul(g, weight[rows][:, input_cols].transpose(0, 2, 1))
    return None


class FeedForwardNet:
    """Dense MLP over float64 with per-layer activations and exact gradients.

    Rows are samples: ``forward`` accepts (d_in,) or (batch, d_in). A net is
    its ``widths``, its ``activations`` and one contiguous float64
    ``vector`` holding every parameter, layer by layer, weight (row-major)
    then bias. ``bind`` moves it into a row of a shared matrix, such as a
    component store. ``layout`` gives each layer's weight and bias views into
    any vector laid out like it, such as the gradient ``backward`` returns.
    Parameter updates go through ``assign`` or ``Adam.step``, which write the
    vector in place and bump an internal version; ``backward`` refuses
    caches recorded under an older version.
    """

    def __init__(self, widths: list[int], activations: list[str], vector):
        """The net of ``widths`` = [in, h1, ..., out] and one ``activations``
        entry per layer whose ``vector`` is a copy of vector, laid out as
        ``layout`` reads it. Another number of activations than layers, or of
        values than the parameter count, raises ValueError naming the
        expected and the given count; an unknown activation or a non-finite
        value raises naming the layer or block."""
        if len(widths) < 2:
            raise ValueError(f"widths must list at least input and output sizes, got {list(widths)}")
        if len(activations) != len(widths) - 1:
            raise ValueError(
                f"widths {list(widths)} need {len(widths) - 1} activations, got {len(activations)}"
            )
        for i, act in enumerate(activations):
            if act not in ACTIVATIONS:
                raise ValueError(f"layer {i} has unknown activation {act!r}")
        self.widths, self.activations = list(widths), list(activations)
        self.vector = np.array(vector, dtype=np.float64)
        size = param_count(widths)
        if self.vector.shape != (size,):
            raise ValueError(f"widths {self.widths} need {size} values, got {self.vector.size}")
        self._check_finite_blocks(self.vector, "parameter")
        self._stack = self.stacked(self.vector[None])  # a one-net stack, rebuilt by bind
        self._version = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def init(
        cls,
        widths: list[int],
        activations: list[str] | str,
        rng: Rng,
    ) -> "FeedForwardNet":
        """Random init: W ~ N(0, 1/fan_in), b = 0. widths = [in, h1, ..., out]."""
        if isinstance(activations, str):
            activations = [activations] * (len(widths) - 1)
        blocks = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            w = rng.gaussian(fan_in * fan_out)
            w *= 1.0 / math.sqrt(fan_in)
            blocks += [w, np.zeros(fan_out)]
        return cls(widths, activations, np.concatenate(blocks))

    # -- introspection ------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def param_count(self) -> int:
        return self.vector.size

    def layout(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views into ``flat``, a vector laid out like ``vector`` or a matrix
        of such rows, keyed 'layer{i}.weight' / 'layer{i}.bias' in order."""
        return _layout(self.widths, flat)

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter views, ``layout(vector)``."""
        return self.layout(self.vector)

    def _check_finite_blocks(self, flat: np.ndarray, what: str) -> None:
        """Raise NonFiniteError naming the first block of ``flat`` (laid out
        like ``vector``) that holds a NaN or inf."""
        if not np.isfinite(flat).all():
            for path, block in self.layout(flat).items():
                if not np.isfinite(block).all():
                    raise NonFiniteError(f"non-finite {what} at '{path}'")

    def bind(self, vector: np.ndarray) -> None:
        """Move the parameters into ``vector`` (a writable float64 vector of
        ``param_count()`` entries, such as a row of a component store); values
        and version stay, and nothing is re-checked."""
        vector[...] = self.vector
        self.vector = vector
        self._stack = self.stacked(vector[None])

    def stacked(self, store: np.ndarray) -> list:
        """The ``stack_forward`` layers of an (N, P) matrix of vectors laid out
        like ``vector``: (N, fan_in, fan_out) weight and (N, 1, fan_out) bias
        views of it, and each layer's ``ACT_UFUNCS`` entry."""
        views = list(self.layout(store).values())
        return [
            (w, b[:, None], ACT_UFUNCS[act])
            for w, b, act in zip(views[::2], views[1::2], self.activations)
        ]

    def assign(self, values) -> None:
        """Copy a vector laid out like ``vector`` into it and invalidate
        outstanding caches. Shape and finiteness are checked before anything
        is written."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.vector.shape:
            raise DimensionMismatchError(
                f"parameter vector shape {values.shape} != {self.vector.shape}"
            )
        self._check_finite_blocks(values, "parameter")
        self.vector[...] = values
        self._version += 1

    def copy(self) -> "FeedForwardNet":
        return FeedForwardNet(self.widths, self.activations, self.vector)

    def __reduce__(self):
        # Deep copies and pickles rebuild the net from its vector, so the
        # copy's one-row stack views its own vector. (numpy would copy each
        # view into an array of its own, and writes to the copy's vector
        # would not reach its forward.)
        state = {"_version": self._version}
        return FeedForwardNet, (self.widths, self.activations, self.vector), state

    def checksum(self) -> str:
        """SHA-256 over the little-endian float64 bytes of all parameters."""
        return hashlib.sha256(
            np.ascontiguousarray(self.vector, dtype="<f8").tobytes()
        ).hexdigest()

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The output for x, (d_in,) or (batch, d_in), shaped like it, and the
        cache ``backward`` takes: the version, whether x was 1-d, and the
        ``stack_forward`` activations."""
        x = as_f64(x, "input")
        if x.ndim not in (1, 2):
            raise DimensionMismatchError(f"input must be 1-d or 2-d, got ndim={x.ndim}")
        if x.shape[-1] != self.in_dim:
            raise DimensionMismatchError(
                f"layer 0 expects input width {self.in_dim}, got {x.shape[-1]}"
            )
        acts = stack_forward(self._stack, x.reshape(1, -1, self.in_dim))
        out = acts[-1][0]
        return (out[0] if x.ndim == 1 else out), (self._version, x.ndim == 1, acts)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: tuple, grad_out: np.ndarray, out=None, input_grad: bool = True):
        """Exact gradients for the recorded forward pass, summed over the
        batch: (the parameter gradient, laid out like ``vector``, in out or
        a fresh vector; the input gradient, or None without input_grad).
        """
        version, squeeze, acts = cache
        if version != self._version:
            raise StaleCacheError(
                "forward cache is stale: parameters changed since it was recorded"
            )
        g = as_f64(grad_out, "grad_out")
        if squeeze and g.ndim == 1:
            g = g[None, :]
        if g.shape != acts[-1].shape[1:]:
            raise DimensionMismatchError(
                f"grad_out shape {g.shape} != output shape {acts[-1].shape[1:]}"
            )
        grad = np.empty_like(self.vector) if out is None else out
        views = list(self.layout(grad[None]).values())
        cols = input_grad and slice(None)
        gx = stack_backward(self._stack, acts, g[None], views, slice(None), cols)
        return grad, (gx if gx is None else gx[0, 0] if squeeze else gx[0])


def param_count(widths) -> int:
    """Weights and biases of a net of ``widths``."""
    return sum(a * b + b for a, b in zip(widths, widths[1:]))


def _layout(widths, flat: np.ndarray) -> dict[str, np.ndarray]:
    """``FeedForwardNet.layout`` of a net of ``widths``."""
    out, offset = {}, 0
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        for name, shape in (("weight", (fan_in, fan_out)), ("bias", (fan_out,))):
            size = math.prod(shape)
            block = flat[..., offset : offset + size]
            out[f"layer{i}.{name}"] = block.reshape(*flat.shape[:-1], *shape)
            offset += size
    return out


def json_fields(obj, *keys) -> list:
    """obj[key] for each key; a missing key, a key not among keys, or obj
    not a JSON object raises ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"field '{key}' is missing")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown key '{unknown[0]}'")
    return [obj[key] for key in keys]


def typed_field(name: str, value, kind: type, least=None):
    """value if its type is kind (a bool is no int) and it is not below
    least; else ValueError naming the field."""
    if type(value) is not kind or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"field '{name}' is {value!r}, not {'an' if kind is int else 'a'} "
                         f"{kind.__name__}{bound}")
    return value


def encode_f64(arr: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
    ).decode("ascii")


def decode_f64(s: str) -> np.ndarray:
    """The read-only float64 view of what ``encode_f64`` wrote as s. Base64
    that is not the canonical encoding of its bytes (non-zero unused bits in
    the final quantum) raises ValueError, so what loads writes back s."""
    raw = base64.b64decode(s, validate=True)
    if base64.b64encode(raw[3 * ((len(raw) - 1) // 3) :]).decode("ascii") != s[-4:]:
        raise ValueError(f"non-canonical base64 ending {s[-4:]!r}")
    return np.frombuffer(raw, dtype="<f8")


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_CHUNK = 1 << 15  # entries per pass of an Adam step, through two scratch buffers


@dataclass
class Adam:
    """Adaptive-moment optimizer over nets whose vectors lie in one parameter
    vector, which ``step`` updates in place from a gradient laid out the same
    way. lr 1e-3, decays (0.9, 0.999), eps 1e-8 by default. Adjacent nets of
    one rate form a *run*; the moments hold the runs' entries, in order. A
    step checks every run's gradient before it writes anything, then updates
    ADAM_CHUNK entries at a time with no allocation, every operation
    elementwise in the textbook order: the per-array recurrence's bits.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray, nets) -> None:
        """One step of nets, (name, net, start, lr scale) in ascending start,
        net.vector being params[start : start + size]; bumps their versions.
        A non-finite gradient raises NonFiniteError naming net and block."""
        if grad.shape != params.shape:
            raise DimensionMismatchError(
                f"gradient shape {grad.shape} != parameter vector shape {params.shape}"
            )
        runs = []  # [start, stop, lr]
        for _, net, start, scale in nets:
            if runs and runs[-1][1:] == [start, self.lr * scale]:
                runs[-1][1] += net.param_count()
            else:
                runs.append([start, start + net.param_count(), self.lr * scale])
        if not all(np.isfinite(grad[start:stop]).all() for start, stop, _ in runs):
            for name, net, start, _ in nets:
                what = f"gradient of '{name}'"
                net._check_finite_blocks(grad[start : start + net.param_count()], what)
        if self.m is None:
            self.m = np.zeros(sum(stop - start for start, stop, _ in runs))
            self.v = np.zeros_like(self.m)
            self._scratch = np.empty((2, min(self.m.size, ADAM_CHUNK)))
        self.t += 1
        c1, c2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        at = 0  # into the moments
        for start, stop, lr in runs:
            for lo in range(start, stop, ADAM_CHUNK):
                n = min(ADAM_CHUNK, stop - lo)
                g, p, (a, b) = grad[lo : lo + n], params[lo : lo + n], self._scratch[:, :n]
                m, v, at = self.m[at : at + n], self.v[at : at + n], at + n
                # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g
                m *= self.beta1
                m += np.multiply(g, 1.0 - self.beta1, out=a)
                v *= self.beta2
                v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=a), g, out=a)
                # p -= lr * m_hat / (sqrt(v_hat) + eps)
                np.multiply(np.divide(m, c1, out=a), lr, out=a)
                np.add(np.sqrt(np.divide(v, c2, out=b), out=b), self.eps, out=b)
                p -= np.divide(a, b, out=a)
        for _, net, _, _ in nets:
            net._version += 1
