"""Core numerics: nets, explicit gradients, Adam, counter-based RNG."""

import copy
import hashlib
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdp.numerics import (
    ACTIVATIONS,
    ADAM_CHUNK,
    Adam,
    DimensionMismatchError,
    FeedForwardNet,
    NonFiniteError,
    Rng,
    StaleCacheError,
    decode_f64,
    encode_f64,
)

from .oracles import (
    DictAdam, assert_layers_view_vector, central_diff, layered_net, net_backward_loop,
    net_forward_loop, permutation_loop,
)


def finite_diff_param_grads(net, x, grad_out, h=1e-5):
    """Central-difference gradients of loss = sum(net(x) * grad_out)."""

    def loss():
        return float(np.sum(net(x) * grad_out))

    out = {}
    for path, p in net.params().items():
        num = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss()
            p[idx] = orig - h
            lm = loss()
            p[idx] = orig
            num[idx] = (lp - lm) / (2 * h)
        out[path] = num
    return out


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b)))


# ---------------------------------------------------------------------------
# net_forward
# ---------------------------------------------------------------------------


def test_identity_single_layer_passes_input_through():
    net = layered_net([(np.eye(4), np.zeros(4), "identity")])
    x = np.array([0.3, -1.2, 0.0, 2.5])
    y = net(x)
    np.testing.assert_array_equal(y, x)


def test_zero_weight_net_returns_bias():
    b = np.array([1.0, -2.0, 0.5])
    net = layered_net([(np.zeros((5, 3)), b, "identity")])
    for x in (np.zeros(5), np.ones(5), Rng(3).gaussian(5)):
        np.testing.assert_array_equal(net(x), b)


def test_forward_matches_straight_line_reimplementation():
    # independent oracle: unrolled three-layer forward written inline
    rng = Rng(11)
    net = FeedForwardNet.init([6, 5, 4, 3], ["tanh", "identity", "identity"], rng)
    x = rng.gaussian(6)
    w0, b0, w1, b1, w2, b2 = net.params().values()
    a1 = np.tanh(x @ w0 + b0)
    a2 = a1 @ w1 + b1
    expected = a2 @ w2 + b2
    np.testing.assert_allclose(net(x), expected, rtol=0, atol=0)


def test_forward_batched_rows_match_single_calls():
    rng = Rng(12)
    net = FeedForwardNet.init([4, 8, 2], "tanh", rng)
    xb = rng.gaussian(12).reshape(3, 4)
    yb = net(xb)
    for i in range(3):
        np.testing.assert_allclose(net(xb[i]), yb[i], rtol=1e-12)


def test_forward_dimension_mismatch_names_layer():
    net = FeedForwardNet.init([4, 3], "tanh", Rng(0))
    with pytest.raises(DimensionMismatchError, match="layer 0"):
        net(np.zeros(5))


@pytest.mark.parametrize("layer, name", [(0, "weight"), (0, "bias"), (1, "weight"), (1, "bias")])
def test_constructor_rejects_a_non_finite_triple_naming_its_block(layer, name):
    layers = [(np.zeros((3, 4)), np.zeros(4), "tanh"), (np.ones((4, 2)), np.ones(2), "identity")]
    layers[layer][("weight", "bias").index(name)][-1] = np.nan
    with pytest.raises(NonFiniteError, match=f"'layer{layer}.{name}'"):
        layered_net(layers)


# ---------------------------------------------------------------------------
# net_backward
# ---------------------------------------------------------------------------


def test_linear_net_gradient_closed_form():
    # y = W x, upstream g  =>  dL/dW = x g^T (our layout: (fan_in, fan_out))
    rng = Rng(21)
    w = rng.gaussian(12).reshape(4, 3)
    net = layered_net([(w, np.zeros(3), "identity")])
    x = rng.gaussian(4)
    g = rng.gaussian(3)
    _, cache = net.forward(x)
    grad, gx = net.backward(cache, g)
    grads = net.layout(grad)
    np.testing.assert_allclose(grads["layer0.weight"], np.outer(x, g), rtol=1e-12)
    np.testing.assert_allclose(grads["layer0.bias"], g, rtol=1e-12)
    np.testing.assert_allclose(gx, w @ g, rtol=1e-12)


@pytest.mark.parametrize(
    "widths,acts",
    [
        ([3, 5, 2], ["tanh", "identity"]),
        ([6, 4, 4, 3], ["tanh", "tanh", "identity"]),
        ([2, 8, 1], ["tanh", "tanh"]),
        ([5, 5, 5], ["identity", "tanh"]),
    ],
)
def test_backward_matches_finite_differences(widths, acts):
    rng = Rng(sum(widths))
    net = FeedForwardNet.init(widths, acts, rng)
    x = rng.gaussian(widths[0]) * 0.5
    g = rng.gaussian(widths[-1])
    _, cache = net.forward(x)
    grads = net.layout(net.backward(cache, g)[0])
    numeric = finite_diff_param_grads(net, x, g)
    for path in grads:
        assert rel_err(grads[path], numeric[path]) <= 1e-4, path


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    data=st.data(),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_backward_matches_finite_differences_property(widths, data, rows, seed):
    acts = data.draw(st.lists(
        st.sampled_from(ACTIVATIONS), min_size=len(widths) - 1, max_size=len(widths) - 1
    ))
    rng = Rng(seed)
    net = FeedForwardNet.init(widths, acts, rng)
    x = rng.gaussian(rows * widths[0]).reshape(rows, widths[0])
    g = rng.gaussian(rows * widths[-1]).reshape(rows, widths[-1])
    _, cache = net.forward(x)
    grad, gx = net.backward(cache, g)
    grads = net.layout(grad)
    numeric = finite_diff_param_grads(net, x, g)
    assert grads.keys() == numeric.keys()
    for path in grads:
        np.testing.assert_allclose(grads[path], numeric[path], rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(
        gx, central_diff(lambda: float(np.sum(net(x) * g)), x), rtol=1e-5, atol=1e-7
    )


@pytest.mark.parametrize("acts", [
    ["tanh", "identity"], ["tanh", "tanh"], ["identity"], ["tanh", "identity", "identity"],
])
@pytest.mark.parametrize("rows", [None, 1, 4])
def test_net_matches_the_textbook_layer_loop_bit_for_bit(acts, rows):
    # rows None is a 1-d input; 1 is a one-row batch, which numpy multiplies
    # by gemv rather than gemm
    rng = Rng(36 + len(acts))
    widths = [5, 7, 6, 3][: len(acts) + 1]
    net = FeedForwardNet.init(widths, acts, rng)
    shape = () if rows is None else (rows,)
    x = rng.gaussian(math.prod(shape) * widths[0]).reshape(*shape, widths[0])
    g = rng.gaussian(math.prod(shape) * widths[-1]).reshape(*shape, widths[-1])
    y, cache = net.forward(x)
    grad, gx = net.backward(cache, g)
    y_ref, trace = net_forward_loop(net, x)
    grad_ref, gx_ref = net_backward_loop(net, trace, g)
    assert y.shape == g.shape and gx.shape == x.shape
    for got, ref in ((y, y_ref), (grad, grad_ref), (gx, gx_ref)):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("acts", [
    ["tanh", "identity"], ["tanh", "tanh"], ["identity"], ["tanh", "identity", "identity"],
])
@pytest.mark.parametrize("rows", [None, 1, 4])
def test_backward_without_input_gradient_writes_the_same_parameter_gradient(acts, rows):
    # no input gradient is returned, and the parameter gradient, written into
    # the vector given, is the textbook loop's bit for bit
    rng = Rng(38 + len(acts))
    widths = [5, 7, 6, 3][: len(acts) + 1]
    net = FeedForwardNet.init(widths, acts, rng)
    shape = () if rows is None else (rows,)
    x = rng.gaussian(math.prod(shape) * widths[0]).reshape(*shape, widths[0])
    g = rng.gaussian(math.prod(shape) * widths[-1]).reshape(*shape, widths[-1])
    _, cache = net.forward(x)
    out = np.full(net.param_count() + 2, np.nan)
    grad, gx = net.backward(cache, g, out[1:-1], input_grad=False)
    assert gx is None and np.shares_memory(grad, out)
    assert np.isnan(out[[0, -1]]).all()
    grad_ref, _ = net_backward_loop(net, net_forward_loop(net, x)[1], g)
    np.testing.assert_array_equal(grad, grad_ref)
    np.testing.assert_array_equal(grad, net.backward(cache, g)[0])


def test_an_empty_batch_gives_empty_outputs_and_zero_gradients():
    net = FeedForwardNet.init([3, 4, 2], ["tanh", "identity"], Rng(37))
    y, cache = net.forward(np.zeros((0, 3)))
    grad, gx = net.backward(cache, np.zeros((0, 2)))
    assert y.shape == (0, 2) and gx.shape == (0, 3)
    assert grad.shape == net.vector.shape and not grad.any()


def test_zero_upstream_gradient_gives_zero_param_gradients():
    rng = Rng(31)
    net = FeedForwardNet.init([4, 6, 2], "tanh", rng)
    _, cache = net.forward(rng.gaussian(4))
    grad, gx = net.backward(cache, np.zeros(2))
    assert grad.shape == net.vector.shape
    assert not grad.any()
    assert not gx.any()


def test_backward_shapes_match_parameters():
    rng = Rng(32)
    net = FeedForwardNet.init([7, 3, 5], "tanh", rng)
    _, cache = net.forward(rng.gaussian(7))
    grad, _ = net.backward(cache, rng.gaussian(5))
    grads = net.layout(grad)
    for path, p in net.params().items():
        assert grads[path].shape == p.shape


def test_stale_cache_rejected_after_param_update():
    rng = Rng(33)
    net = FeedForwardNet.init([3, 3], "tanh", rng)
    _, cache = net.forward(rng.gaussian(3))
    net.assign(net.vector * 1.01)
    with pytest.raises(StaleCacheError):
        net.backward(cache, np.ones(3))


# ---------------------------------------------------------------------------
# optimizer_step
# ---------------------------------------------------------------------------


def adam_step(opt, net, grad):
    """One step of a lone net, its whole vector one run at opt.lr."""
    opt.step(net.vector, grad, [("net", net, 0, 1.0)])


def test_adam_zero_gradient_keeps_params():
    net = layered_net([(Rng(41).gaussian(6).reshape(2, 3), np.zeros(3), "tanh")])
    before = net.vector.copy()
    opt = Adam()
    adam_step(opt, net, np.zeros(net.param_count()))
    np.testing.assert_array_equal(net.vector, before)
    assert opt.t == 1


def test_adam_first_step_is_lr_times_sign():
    # from zero moments, bias correction makes |update| = lr exactly
    net = layered_net([(np.array([[1.0]]), np.array([-2.0]), "identity")])
    p = net.vector.copy()
    g = np.array([0.3, -7.0])
    opt = Adam(lr=1e-3)
    adam_step(opt, net, g)
    np.testing.assert_allclose(net.vector, p - 1e-3 * np.sign(g), rtol=0, atol=1e-9)


def test_adam_constant_gradient_matches_scalar_simulation():
    # independent oracle: textbook Adam recurrence simulated on a scalar
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 0.37
    m = v = 0.0
    x_ref = 1.5
    for t in range(1, 51):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    net = layered_net([(np.array([[1.5]]), np.array([1.5]), "identity")])
    opt = Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
    for _ in range(50):
        adam_step(opt, net, np.array([g, g]))
    np.testing.assert_allclose(net.vector, [x_ref, x_ref], rtol=1e-12)
    # per-step movement approaches lr * sign(g)
    before = net.vector[0]
    adam_step(opt, net, np.array([g, g]))
    assert abs((before - net.vector[0]) - lr) < 1e-5


def test_adam_nonfinite_gradient_names_path():
    net = FeedForwardNet.init([2, 2, 2, 2, 2], "tanh", Rng(0))
    before = net.vector.copy()
    g = np.zeros(net.param_count())
    g[-1] = np.nan  # last entry of layer3.bias
    opt = Adam()
    with pytest.raises(NonFiniteError, match="layer3.bias"):
        adam_step(opt, net, g)
    np.testing.assert_array_equal(net.vector, before)


def test_adam_shape_mismatch_rejected():
    net = FeedForwardNet.init([1, 3], "tanh", Rng(0))
    opt = Adam()
    with pytest.raises(DimensionMismatchError):
        adam_step(opt, net, np.zeros(net.param_count() + 1))


def random_net(rng):
    """A net of 1-3 layers with random widths in [1, 6] and activations."""
    n_layers = int(rng.integers(1, 4)[0])
    widths = [int(w) for w in rng.integers(1, 7, n_layers + 1)]
    acts = [ACTIVATIONS[int(a)] for a in rng.integers(0, len(ACTIVATIONS), n_layers)]
    return FeedForwardNet.init(widths, acts, rng)


@pytest.mark.parametrize("seed", range(6))
def test_flat_adam_matches_per_array_oracle(seed):
    rng = Rng(100 + seed)
    net = random_net(rng)
    params = {k: v.copy() for k, v in net.params().items()}
    lr = float(rng.uniform(1)[0]) * 0.1
    opt, oracle = Adam(lr=lr), DictAdam(lr=lr)
    for _ in range(5):
        grad = rng.gaussian(net.param_count())
        adam_step(opt, net, grad)
        params = oracle.step(params, net.layout(grad))
        for path, p in net.params().items():
            np.testing.assert_array_equal(p, params[path])
    assert opt.t == oracle.t == 5
    for flat, ref in ((opt.m, oracle.m), (opt.v, oracle.v)):
        for path, block in net.layout(flat).items():
            np.testing.assert_array_equal(block, ref[path])


def test_adam_steps_runs_of_nets_in_one_vector_like_per_array_oracles():
    # three nets in one vector, the middle one frozen: two runs, the last at
    # half the rate and longer than a chunk, so it is stepped in pieces
    rng = Rng(42)
    nets = [
        FeedForwardNet.init([3, 4], "tanh", rng),
        FeedForwardNet.init([2, 2], "tanh", rng),
        FeedForwardNet.init([200, 200], "tanh", rng),
    ]
    vector = np.empty(sum(n.param_count() for n in nets))
    starts = np.cumsum([0] + [n.param_count() for n in nets])
    for net, start in zip(nets, starts):
        net.bind(vector[start : start + net.param_count()])
    assert nets[2].param_count() > ADAM_CHUNK
    trained = [("a", nets[0], starts[0], 1.0), ("c", nets[2], starts[2], 0.5)]
    frozen = nets[1].vector.copy()
    opt = Adam(lr=0.01)
    oracles = {name: (net, DictAdam(lr=0.01 * scale)) for name, net, _, scale in trained}
    params = {name: {k: v.copy() for k, v in net.params().items()} for name, net, _, _ in trained}
    for _ in range(3):
        grad = rng.gaussian(vector.size)
        grad[starts[1] : starts[2]] = np.nan  # a frozen slice is never read
        opt.step(vector, grad, trained)
        for name, (net, oracle) in oracles.items():
            start = starts[0] if name == "a" else starts[2]
            views = net.layout(grad[start : start + net.param_count()])
            params[name] = oracle.step(params[name], views)
            for path, p in net.params().items():
                np.testing.assert_array_equal(p, params[name][path])
    np.testing.assert_array_equal(nets[1].vector, frozen)
    assert opt.m.size == nets[0].param_count() + nets[2].param_count()
    assert [n.version for n in nets] == [3, 0, 3]


def test_adam_checks_every_run_before_writing_and_names_the_net():
    rng = Rng(43)
    nets = [FeedForwardNet.init([3, 4], "tanh", rng), FeedForwardNet.init([2, 2], "tanh", rng)]
    vector = np.empty(nets[0].param_count() + nets[1].param_count())
    nets[0].bind(vector[: nets[0].param_count()])
    nets[1].bind(vector[nets[0].param_count() :])
    trained = [("first", nets[0], 0, 1.0), ("second", nets[1], nets[0].param_count(), 2.0)]
    before = vector.copy()
    grad = rng.gaussian(vector.size)
    grad[-1] = np.inf  # the last bias entry of the second run
    opt = Adam()
    with pytest.raises(NonFiniteError, match="gradient of 'second' at 'layer0.bias'"):
        opt.step(vector, grad, trained)
    np.testing.assert_array_equal(vector, before)
    assert opt.t == 0 and [n.version for n in nets] == [0, 0]


def test_stale_cache_rejected_after_adam_step():
    rng = Rng(34)
    net = FeedForwardNet.init([3, 4, 2], "tanh", rng)
    _, cache = net.forward(rng.gaussian(3))
    adam_step(Adam(), net, rng.gaussian(net.param_count()))
    with pytest.raises(StaleCacheError):
        net.backward(cache, np.ones(2))


@pytest.mark.parametrize(
    "activations, size, message",
    [
        (["identity"], 100, "widths [2, 2] need 6 values, got 100"),
        (["identity"], 3, "widths [2, 2] need 6 values, got 3"),
        (["identity", "tanh"], 6, "widths [2, 2] need 1 activations, got 2"),
        ([], 6, "widths [2, 2] need 1 activations, got 0"),
    ],
    ids=["long vector", "short vector", "extra activation", "no activation"],
)
def test_from_vector_names_the_expected_and_the_given_counts(activations, size, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FeedForwardNet([2, 2], activations, np.arange(float(size)))


def test_layers_share_memory_with_vector():
    net = FeedForwardNet.init([4, 5, 3], ["tanh", "identity"], Rng(7))
    copy = net.copy()
    clone = FeedForwardNet(net.widths, net.activations, net.vector)
    identity = layered_net([(np.eye(3), np.zeros(3), "identity")])
    for n in (net, copy, clone, identity):
        assert_layers_view_vector(n)
        assert n.vector.flags.writeable
    assert not np.shares_memory(copy.vector, net.vector)
    assert not np.shares_memory(clone.vector, net.vector)
    # a write through a layer view is a write to the vector, and vice versa
    w0, _, _, b1 = net.params().values()
    b1[0] = 9.0
    assert net.vector[-3] == 9.0
    net.vector[0] = -9.0
    assert w0[0, 0] == -9.0
    assert copy.vector[0] != -9.0


def test_bind_moves_the_parameters_into_a_row_of_a_matrix():
    net = FeedForwardNet.init([4, 5, 3], ["tanh", "identity"], Rng(8))
    before, version = net.vector.copy(), net.version
    store = np.zeros((3, net.param_count()))
    net.bind(store[1])
    assert net.vector.base is store and net.version == version
    np.testing.assert_array_equal(store[1], before)
    assert not store[0].any() and not store[2].any()
    assert_layers_view_vector(net)
    net.assign(before * 2.0)  # writes land in the row
    np.testing.assert_array_equal(store[1], before * 2.0)
    # layout of a matrix stacks each block over the rows
    for path, block in net.layout(store).items():
        assert block.shape == (3, *net.params()[path].shape)
        assert np.shares_memory(block, store)
        np.testing.assert_array_equal(block[1], net.params()[path])


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("clone", [copy.deepcopy, pickle_round_trip])
def test_copied_and_pickled_nets_keep_layers_as_vector_views(clone):
    rng = Rng(9)
    net = FeedForwardNet.init([3, 4, 2], ["tanh", "identity"], rng)
    net.assign(net.vector)
    twin = clone(net)
    assert_layers_view_vector(twin)
    assert not np.shares_memory(twin.vector, net.vector)
    assert twin.version == net.version == 1
    assert twin.checksum() == net.checksum()
    x = rng.gaussian(6).reshape(2, 3)
    y, cache = twin.forward(x)
    np.testing.assert_array_equal(y, net(x))
    before = (net.checksum(), net.vector.copy())
    adam_step(Adam(lr=0.1), twin, rng.gaussian(twin.param_count()))
    # the step reaches forward, the vector and checksum together, on the copy only
    assert_layers_view_vector(twin)
    assert not np.array_equal(twin(x), y)
    assert twin.checksum() != before[0]
    assert twin.copy().checksum() == twin.checksum()
    assert net.checksum() == before[0]
    np.testing.assert_array_equal(net.vector, before[1])
    with pytest.raises(StaleCacheError):
        twin.backward(cache, np.ones((2, 2)))


def test_assign_copies_into_the_vector_and_checks_before_writing():
    rng = Rng(8)
    net = FeedForwardNet.init([3, 2], "tanh", rng)
    x = rng.gaussian(3)
    _, cache = net.forward(x)
    vector, before = net.vector, net.vector.copy()
    new = np.array([1.0, 1, 1, 1, 1, 1, 1, np.inf])
    with pytest.raises(NonFiniteError, match="layer0.bias"):
        net.assign(new)
    with pytest.raises(DimensionMismatchError, match=r"\(7,\) != \(8,\)"):
        net.assign(new[:-1])
    # a rejected write changes nothing, the version included
    np.testing.assert_array_equal(net.vector, before)
    assert net.version == 0
    net.backward(cache, np.ones(2))
    new[-2:] = [2.0, 3.0]
    net.assign(new)
    assert net.vector is vector
    assert_layers_view_vector(net)
    np.testing.assert_array_equal(net.vector, [1, 1, 1, 1, 1, 1, 2, 3])
    np.testing.assert_array_equal(net(x), np.tanh(np.full(2, x.sum()) + [2, 3]))
    new[-2] = 5.0  # the net holds a copy
    assert net.vector[-2] == 2.0
    with pytest.raises(StaleCacheError):
        net.backward(cache, np.ones(2))


def test_backward_returns_a_fresh_vector_laid_out_like_the_parameters():
    rng = Rng(35)
    net = FeedForwardNet.init([4, 5, 3], ["tanh", "identity"], rng)
    x, g = rng.gaussian(8).reshape(2, 4), rng.gaussian(6).reshape(2, 3)
    _, cache = net.forward(x)
    grad, _ = net.backward(cache, g)
    again, _ = net.backward(cache, g)
    assert grad.shape == net.vector.shape and grad.flags.c_contiguous
    assert not np.shares_memory(grad, net.vector)
    assert not np.shares_memory(grad, again)
    np.testing.assert_array_equal(grad, again)
    assert_layers_view_vector(net, grad)
    # each block is the textbook product of its layer, in params() order
    w0, b0, w1, _ = net.params().values()
    z0 = x @ w0 + b0
    dz0 = (g @ w1.T) * (1.0 - np.tanh(z0) ** 2)
    expected = {
        "layer0.weight": x.T @ dz0, "layer0.bias": dz0.sum(axis=0),
        "layer1.weight": np.tanh(z0).T @ g, "layer1.bias": g.sum(axis=0),
    }
    views = net.layout(grad)
    assert list(views) == list(net.params()) == list(expected)
    for path, block in views.items():
        np.testing.assert_allclose(block, expected[path], rtol=1e-12, err_msg=path)


# ---------------------------------------------------------------------------
# rng_gaussian and friends
# ---------------------------------------------------------------------------


def test_gaussian_golden_values_seed_42():
    # frozen from the documented SplitMix64 + Box-Muller construction
    got = Rng(42).gaussian(4)
    expected = np.array(
        [
            0.7513233388844741,
            1.2951186331501912,
            0.31529374335589466,
            0.45683668873197425,
        ]
    )
    np.testing.assert_array_equal(got, expected)


def test_gaussian_moments_one_million_samples():
    z = Rng(123).gaussian(10**6)
    assert -0.005 <= z.mean() <= 0.005
    assert 0.99 <= z.var() <= 1.01


def test_gaussian_requires_positive_count():
    with pytest.raises(ValueError):
        Rng(0).gaussian(0)


def test_gaussian_rows_match_successive_gaussian_calls():
    rows, loop = Rng(7), Rng(7)
    block = rows.gaussian_rows(5, 3)
    np.testing.assert_array_equal(block, np.stack([loop.gaussian(3) for _ in range(5)]))
    assert rows._counter == loop._counter
    np.testing.assert_array_equal(rows.uniform(4), loop.uniform(4))
    for bad in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError):
            Rng(0).gaussian_rows(*bad)


@pytest.mark.parametrize(
    "seed, shape, digest",
    [
        (0, (50, 32), "d6c392fb8138770444c216bca587dda67045c1c54b2636f515f1778197d26b4d"),
        (0, (100, 32), "4e8d03eb2a991b3b92a580626bd80c058f831ba2cb76674b388bc5227ec00aff"),
        (12345, (50, 32), "a5835164eacf9ac671df6fe31810cd6bdbb608cec598b936ba0895c5237b3136"),
        (12345, (100, 32), "5e3afe5249e0e2d441bedb946642bc9ecdbafd5a123c3016cc09136d073bba45"),
    ],
)
def test_gaussian_rows_bytes_are_pinned(seed, shape, digest):
    # an act's noise draws at K=50 and K=100 over a 32-wide window, recorded
    # from the out-of-place SplitMix64/Box-Muller code the in-place one replaced
    draws = Rng(seed).gaussian_rows(*shape)
    assert draws.flags.c_contiguous and draws.dtype == np.float64
    assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == digest


def test_same_seed_same_stream():
    a, b = Rng(99), Rng(99)
    np.testing.assert_array_equal(a.gaussian(64), b.gaussian(64))
    np.testing.assert_array_equal(a.uniform(10), b.uniform(10))
    np.testing.assert_array_equal(a.permutation(20), b.permutation(20))


def test_child_streams_deterministic_and_distinct():
    r = Rng(7)
    assert r.child(0, 5).seed == Rng(7).child(0, 5).seed
    seeds = {r.child(i).seed for i in range(100)}
    assert len(seeds) == 100
    # deriving children does not consume from the parent stream
    np.testing.assert_array_equal(Rng(7).gaussian(3), r.gaussian(3))


def test_integers_cover_range_uniformly():
    k = Rng(17).integers(1, 11, 20000)
    assert k.min() == 1 and k.max() == 10
    counts = np.bincount(k, minlength=11)[1:]
    assert counts.min() > 1600  # expectation 2000 per bin


def test_permutation_is_a_permutation():
    for n in (1, 2, 7, 31):
        p = Rng(n).permutation(n)
        assert sorted(p.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 1490, 5000])
def test_permutation_matches_the_textbook_loop(n):
    for seed in range(20):
        rng, ref = Rng(seed), Rng(seed)
        got = rng.permutation(n)
        np.testing.assert_array_equal(got, permutation_loop(ref, n))
        assert got.dtype == np.arange(n).dtype
        assert rng.uniform(1) == ref.uniform(1)  # the same draws were taken


# ---------------------------------------------------------------------------
# checksums and base64
# ---------------------------------------------------------------------------


def test_decode_f64_takes_only_the_canonical_encoding():
    np.testing.assert_array_equal(decode_f64("AAAAAAAA8D8="), [1.0])
    with pytest.raises(ValueError, match="non-canonical base64 ending '8D9='"):
        decode_f64("AAAAAAAA8D9=")  # the same bytes, with an unused bit set
    for n in (0, 1, 3):  # final quanta of no, 2 and 3 bytes
        text = encode_f64(Rng(n).gaussian(n) if n else np.empty(0))
        assert encode_f64(decode_f64(text)) == text


def test_checksum_changes_with_params():
    net = FeedForwardNet.init([3, 3], "tanh", Rng(1))
    before = net.checksum()
    new = net.vector.copy()
    new[-1] += 1e-9
    net.assign(new)
    assert net.checksum() != before
