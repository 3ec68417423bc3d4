"""Routing, weighted score aggregation, compositional sampling, joint loss."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdp.composition
import fdp.policy
from fdp.adaptation import upcycle_component
from fdp.analysis import build_probe_set, score_similarity
from fdp.bench import generate_demos
from fdp.composition import (
    CompositionError,
    Router,
    component_predictions,
    composed_residual,
    composed_score,
    group_slices,
    joint_loss,
    sample_values,
    select_top_k,
    softmax,
    weighted_sum,
)
from fdp.diffusion import make_schedule
from fdp.numerics import Adam, FeedForwardNet, Rng
from fdp.policy import (
    NORMALIZED_CLAMP,
    VALIDATION_FRACTION,
    ComponentBank,
    DenoiserComponent,
    FactorizedPolicy,
    PolicyConfig,
    canonical_json,
)

from .oracles import (
    AnalyticGaussianDenoiser,
    LoopBank,
    assert_chain_close,
    central_diff,
    composed_prediction_loop,
    component_loss,
    composed_residual_loop,
    init_component,
    joint_loss_loop,
    layered_net,
    max_rel_err,
    product_of_gaussians,
    residual_loop,
    sample_loop,
    sample_values_loop,
)


def constant_logit_router(logits, temperature=1.0):
    """Router whose net ignores its input and emits fixed logits."""
    n = len(logits)
    net = layered_net([(np.zeros((3, n)), np.array(logits, float), "identity")])
    return Router(net, temperature)


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------


def test_equal_logits_give_uniform_weights():
    router = constant_logit_router([0.0, 0.0, 0.0, 0.0])
    w = router.route(np.zeros(3))
    np.testing.assert_allclose(w, 0.25, rtol=1e-15)


def test_saturated_logits_concentrate_on_one_component():
    router = constant_logit_router([30.0, -30.0, -30.0])
    w = router.route(np.zeros(3))
    assert w[0] > 1.0 - 1e-12
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_high_temperature_drives_weights_uniform():
    rng = Rng(3)
    for _ in range(10):
        logits = rng.gaussian(5)
        router = constant_logit_router(logits, temperature=1e3)
        w = router.route(np.zeros(3))
        assert np.max(np.abs(w - 0.2)) < 1e-3


def test_route_simplex_invariant_random_nets():
    rng = Rng(9)
    for trial in range(50):
        net = FeedForwardNet.init([4, 6, 3], ["tanh", "identity"], rng.child(trial))
        w = Router(net).route(rng.gaussian(4) * 2.0)
        assert np.all(w >= 0.0)
        assert abs(float(w.sum()) - 1.0) <= 1e-6


def test_router_backward_matches_finite_differences():
    rng = Rng(10)
    net = FeedForwardNet.init([4, 5, 3], ["tanh", "identity"], rng)
    router = Router(net, temperature=0.7)
    emb = rng.gaussian(4)
    target = rng.gaussian(3)

    def scalar_loss():
        return float(router.route(emb) @ target)

    w, cache = router.route_with_cache(emb)
    grad, demb = router.backward(cache, target)
    views = net.layout(grad)
    for path, p in net.params().items():
        numeric = central_diff(scalar_loss, p)
        assert max_rel_err(views[path], numeric) <= 1e-4, path
    assert max_rel_err(demb, central_diff(scalar_loss, emb)) <= 1e-4


# ---------------------------------------------------------------------------
# composed_score
# ---------------------------------------------------------------------------


def test_single_component_aggregate_is_its_output():
    sched = make_schedule(10)
    den = AnalyticGaussianDenoiser(sched, 0.3, 1.0)
    values = Rng(4).gaussian(6)
    score = composed_score([den], np.array([1.0]), values, None, 5)
    np.testing.assert_array_equal(score.aggregate, score.per_component[0])


def test_identical_components_any_simplex_weight():
    sched = make_schedule(10)
    a = AnalyticGaussianDenoiser(sched, -0.5, 2.0)
    b = AnalyticGaussianDenoiser(sched, -0.5, 2.0)
    values = Rng(5).gaussian(4)
    for w in ([0.5, 0.5], [0.9, 0.1], [0.0, 1.0]):
        score = composed_score([a, b], np.array(w), values, None, 3)
        np.testing.assert_allclose(score.aggregate, score.per_component[0], rtol=1e-12)


def test_component_output_mismatch_names_index():
    sched = make_schedule(10)

    class Bad:
        def predict(self, values, emb, k):
            return np.zeros(3), None

    good = AnalyticGaussianDenoiser(sched, 0.0, 1.0)
    with pytest.raises(CompositionError, match="component 1"):
        composed_score([good, Bad()], np.array([0.5, 0.5]), np.zeros(5), None, 2)


def test_product_of_equal_variance_gaussians_sampler_moments():
    # closed-form oracle: product of N(-1,1)^.5 and N(+1,1)^.5 is N(0, 1)
    mean, var = product_of_gaussians([-1.0, 1.0], [1.0, 1.0], [0.5, 0.5])
    assert mean == 0.0 and var == pytest.approx(1.0)
    sched = make_schedule(100, "cosine")
    comps = [
        AnalyticGaussianDenoiser(sched, -1.0, 1.0),
        AnalyticGaussianDenoiser(sched, 1.0, 1.0),
    ]
    rng = Rng(2024)
    n = 10**4
    values, info = sample_values(
        LoopBank(comps, sched.K), np.array([0.5, 0.5]), np.zeros(0), sched, n, rng
    )
    assert abs(values.mean() - mean) < 0.05
    assert abs(values.var() / var - 1.0) < 0.05
    assert info.denoiser_evals == 2 * sched.K


# ---------------------------------------------------------------------------
# top-k selection
# ---------------------------------------------------------------------------


def test_top_k_monotone_nesting_and_tie_break():
    rng = Rng(31)
    for trial in range(40):
        w = softmax(rng.gaussian(6))
        previous = None
        for m in range(1, 7):
            idx, sub = select_top_k(w, m)
            assert np.all(sub >= 0) and sub.sum() == pytest.approx(1.0, abs=1e-9)
            if previous is not None:
                assert set(previous).issubset(set(idx))
            previous = idx
    # exact ties resolve to the lower index
    idx, _ = select_top_k(np.array([0.25, 0.25, 0.25, 0.25]), 2)
    np.testing.assert_array_equal(idx, [0, 1])


def test_top_k_bounds_checked():
    with pytest.raises(CompositionError):
        select_top_k(np.array([0.5, 0.5]), 3)
    with pytest.raises(CompositionError):
        select_top_k(np.array([0.5, 0.5]), 0)


def test_top_k_equal_to_n_is_bitwise_identical():
    sched = make_schedule(50)
    comps = [AnalyticGaussianDenoiser(sched, m, 1.0) for m in (-1.0, 0.0, 1.0)]
    w = np.array([0.2, 0.5, 0.3])
    bank = LoopBank(comps, sched.K)
    a, info_a = sample_values(bank, w, np.zeros(0), sched, 8, Rng(77))
    b, info_b = sample_values(bank, w, np.zeros(0), sched, 8, Rng(77), top_k=3)
    np.testing.assert_array_equal(a, b)
    assert info_a.denoiser_evals == info_b.denoiser_evals == 3 * sched.K


def test_single_component_sampling_is_plain_ddpm_loop():
    # independent oracle: hand-rolled single-component reverse loop with the
    # same stream consumption must match bitwise
    from fdp.diffusion import reverse_mean

    sched = make_schedule(25)
    den = AnalyticGaussianDenoiser(sched, 0.4, 0.8)
    got, _ = sample_values(LoopBank([den], sched.K), np.array([1.0]), np.zeros(0), sched, 6, Rng(9))

    rng = Rng(9)
    values = rng.gaussian(6)
    for k in range(sched.K, 0, -1):
        eps_hat, _ = den.predict(values, None, k)
        values = reverse_mean(sched, values, eps_hat, k)
        if k > 1:
            values = values + sched.sigma[k - 1] * rng.gaussian(6)
    np.testing.assert_array_equal(got, values)


def test_top_k_prunes_evaluations_and_renormalizes():
    sched = make_schedule(30)
    comps = [AnalyticGaussianDenoiser(sched, m, 1.0) for m in (-1, 0, 1, 2)]
    w = np.array([0.4, 0.3, 0.2, 0.1])
    _, info = sample_values(LoopBank(comps, sched.K), w, np.zeros(0), sched, 4, Rng(5), top_k=2)
    np.testing.assert_array_equal(info.active, [0, 1])
    assert info.denoiser_evals == 2 * sched.K
    np.testing.assert_array_equal(info.weights, w)


@pytest.mark.parametrize("top_k", [None, 2])
def test_zero_weight_components_are_not_evaluated(top_k):
    sched = make_schedule(30)
    comps = [AnalyticGaussianDenoiser(sched, m, 1.0) for m in (-1, 0, 1, 2)]
    w = np.array([0.0, 0.0, 1.0, 0.0])
    bank = LoopBank(comps, sched.K)
    got, info = sample_values(bank, w, np.zeros(0), sched, 4, Rng(5), top_k=top_k)
    np.testing.assert_array_equal(info.active, [2])
    assert info.denoiser_evals == sched.K
    # the reference evaluates every component, the zero-weight ones included
    idx, w_used = select_top_k(w, top_k) if top_k else (np.arange(4), w)
    expected = sample_values_loop([comps[i] for i in idx], w_used, None, sched, 4, Rng(5))
    np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# joint_loss
# ---------------------------------------------------------------------------


def _tiny_setup(n_components=3, window_dim=6, emb_dim=4, obs_dim=4, seed=0, hidden=(7,)):
    rng = Rng(seed)
    sched = make_schedule(8)
    encoder = FeedForwardNet.init([obs_dim, emb_dim], ["tanh"], rng.child(1))
    router = Router(
        FeedForwardNet.init([emb_dim, 5, n_components], ["tanh", "identity"], rng.child(2))
    )
    comps = [
        init_component(window_dim, emb_dim, list(hidden), rng.child(10 + i), step_dim=4)
        for i in range(n_components)
    ]
    return sched, encoder, router, ComponentBank(comps, sched.K)


def test_single_component_joint_loss_reduces_to_component_loss():
    sched, _, _, bank = _tiny_setup(n_components=1)
    encoder = layered_net([(np.eye(4), np.zeros(4), "identity")])
    router = Router(FeedForwardNet.init([4, 1], ["identity"], Rng(3)))
    obs = Rng(4).gaussian(4)
    window = Rng(5).gaussian(6) * 0.3

    loss_joint, _ = joint_loss(
        bank, router, encoder, (window[None, :], obs[None, :]), sched, Rng(99)
    )
    loss_single, _ = component_loss(bank.components[0], sched, window, obs, Rng(99))
    assert loss_joint == pytest.approx(loss_single, rel=1e-12)


def test_perfect_noise_echo_gives_zero_loss_for_any_weights():
    sched = make_schedule(8)

    class EchoBatch:
        def predict(self, values, emb, ks):
            ab = sched.alpha_bar[np.asarray(ks)]
            return values / np.sqrt(1.0 - ab)[:, None], (values.shape, emb.shape)

        def backward(self, cache, grad):
            vshape, eshape = cache
            return np.zeros(0), np.zeros(vshape), np.zeros(eshape)

    encoder = layered_net([(np.eye(3), np.zeros(3), "identity")])
    router = Router(FeedForwardNet.init([3, 4, 2], ["tanh", "identity"], Rng(1)))
    windows = np.zeros((5, 6))  # a0 = 0 makes the echo exact
    obs = Rng(2).gaussian(15).reshape(5, 3)
    bank = LoopBank([EchoBatch(), EchoBatch()], sched.K)
    loss, _ = joint_loss(bank, router, encoder, (windows, obs), sched, Rng(3))
    assert loss == pytest.approx(0.0, abs=1e-24)


def test_joint_loss_gradients_match_finite_differences():
    sched, encoder, router, bank = _tiny_setup()
    rng = Rng(8)
    windows = rng.gaussian(2 * 6).reshape(2, 6) * 0.4
    obs = rng.gaussian(2 * 4).reshape(2, 4)

    loss, grad = joint_loss(bank, router, encoder, (windows, obs), sched, Rng(123))
    grads = by_group(bank, router, encoder, grad)

    def loss_fn():
        return joint_loss(bank, router, encoder, (windows, obs), sched, Rng(123))[0]

    nets = {"router": router.net, "encoder": encoder}
    nets.update({f"component:{i}": comp.net for i, comp in enumerate(bank.components)})
    assert grads.keys() == nets.keys()
    for group, net in nets.items():
        views = net.layout(grads[group])
        for path, p in net.params().items():
            assert max_rel_err(views[path], central_diff(loss_fn, p)) <= 1e-4, f"{group} {path}"


def test_gradient_liveness_every_component_active():
    sched, encoder, router, bank = _tiny_setup(n_components=4, seed=6)
    rng = Rng(14)
    windows = rng.gaussian(8 * 6).reshape(8, 6)
    obs = rng.gaussian(8 * 4).reshape(8, 4)
    grads = by_group(bank, router, encoder, joint_loss(
        bank, router, encoder, (windows, obs), sched, Rng(15))[1])
    for i in range(4):
        g = grads[f"component:{i}"]
        assert float(np.sum(g * g)) > 0.0, f"component {i} got no gradient"


# trainable masks over n components, as fit() and the adaptation strategies pass them
MASKS = {
    "full": lambda n: ["encoder", "router", *(f"component:{i}" for i in range(n))],
    "router": lambda n: ["router"],
    "router+encoder": lambda n: ["router", "encoder"],
    "new_module": lambda n: ["router", f"component:{n - 1}"],
    "new_module+encoder": lambda n: ["encoder", "router", f"component:{n - 1}"],
    "component_only": lambda n: ["component:1"],
    "empty": lambda n: [],
}


def by_group(bank, router, encoder, grad, groups=None):
    """The groups' views (every group by default) of a ``joint_loss``
    gradient vector."""
    slices = group_slices(bank, router, encoder)
    return {g: grad[slices[g]] for g in (slices if groups is None else groups)}


def _assert_masked_grads_match(full, masked, groups, bank, router, encoder):
    """Both calls return one vector laid out by ``group_slices``, and the
    masked call's slice of each group in the mask is the all-trainable
    call's bit for bit."""
    nets = _group_nets(encoder, router, bank)
    assert full.shape == masked.shape == (sum(n.param_count() for n in nets.values()),)
    full, masked = by_group(bank, router, encoder, full), by_group(bank, router, encoder, masked)
    for group in groups:
        assert masked[group].shape == nets[group].vector.shape, group
        np.testing.assert_array_equal(masked[group], full[group], err_msg=group)


def _group_nets(encoder, router, bank):
    nets = {"encoder": encoder, "router": router.net}
    nets.update({f"component:{i}": c.net for i, c in enumerate(bank.components)})
    return nets


def _batch(rng, b=8, window_dim=6, obs_dim=4):
    windows = rng.gaussian(b * window_dim).reshape(b, window_dim)
    return windows, rng.gaussian(b * obs_dim).reshape(b, obs_dim)


@pytest.mark.parametrize("mask", MASKS)
def test_masked_joint_loss_matches_the_all_trainable_gradients(mask):
    sched, encoder, router, bank = _tiny_setup(n_components=4, seed=3)
    batch = _batch(Rng(21))
    loss, full = joint_loss(bank, router, encoder, batch, sched, Rng(5))
    groups = MASKS[mask](4)
    masked_loss, masked = joint_loss(bank, router, encoder, batch, sched, Rng(5), groups)
    assert masked_loss == loss
    _assert_masked_grads_match(full, masked, groups, bank, router, encoder)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    emb_dim=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_masked_joint_loss_matches_the_all_trainable_gradients_property(
    n, hidden, emb_dim, data, seed
):
    sched, encoder, router, bank = _tiny_setup(
        n_components=n, window_dim=3, emb_dim=emb_dim, obs_dim=2, seed=seed, hidden=hidden
    )
    names = MASKS["full"](n)
    groups = data.draw(st.lists(st.sampled_from(names), unique=True))
    batch = _batch(Rng(seed).child(1), b=5, window_dim=3, obs_dim=2)
    _, full = joint_loss(bank, router, encoder, batch, sched, Rng(seed))
    _, masked = joint_loss(bank, router, encoder, batch, sched, Rng(seed), groups)
    _assert_masked_grads_match(full, masked, groups, bank, router, encoder)


@pytest.mark.parametrize("mask", MASKS)
def test_frozen_groups_get_no_backward_work(monkeypatch, mask):
    # the router and encoder run FeedForwardNet.backward; the components run
    # one stacked bank backward over the rows that need one
    sched, encoder, router, bank = _tiny_setup(n_components=4, seed=3)
    batch = _batch(Rng(21))
    real_net, real_bank = FeedForwardNet.backward, ComponentBank.backward
    calls, bank_calls = [], []

    def spy(self, cache, grad_out, out=None, input_grad=True):
        result = real_net(self, cache, grad_out, out, input_grad)
        calls.append((self, result))
        return result

    def bank_spy(self, cache, grad_out, rows, demb=None, out=None):
        bank_calls.append((list(rows), demb is not None))
        return real_bank(self, cache, grad_out, rows, demb, out)

    monkeypatch.setattr(FeedForwardNet, "backward", spy)
    monkeypatch.setattr(ComponentBank, "backward", bank_spy)
    joint_loss(bank, router, encoder, batch, sched, Rng(5))
    assert [net for net, _ in calls] == [router.net, encoder]
    router_gx = calls[0][1][1]
    assert calls[1][1][1] is None  # nothing reads the observation gradient
    assert bank_calls == [([0, 1, 2, 3], True)]
    calls.clear()
    bank_calls.clear()
    groups = MASKS[mask](4)
    joint_loss(bank, router, encoder, batch, sched, Rng(5), groups)

    train_encoder = "encoder" in groups
    if train_encoder:
        # a frozen router still passes the same input gradient to the encoder
        assert calls[0][0] is router.net
        np.testing.assert_array_equal(calls[0][1][1], router_gx)
        assert calls[1][1][1] is None
    elif "router" in groups:  # with no encoder to pass it to, none is taken
        assert calls[0][0] is router.net and calls[0][1][1] is None
    expected_nets = [router.net] if train_encoder or "router" in groups else []
    assert [net for net, _ in calls] == expected_nets + ([encoder] if train_encoder else [])
    rows = [i for i in range(4) if train_encoder or f"component:{i}" in groups]
    # no rows, no backward; with the encoder frozen, no embedding gradient
    assert bank_calls == ([(rows, train_encoder)] if rows else [])


@pytest.mark.parametrize("mask", MASKS)
def test_masked_fit_matches_a_fit_that_computes_every_gradient(monkeypatch, mask):
    ds = generate_demos("bimodal1d", per_task=3, seed=4)
    cfg = PolicyConfig(
        n_components=3, diffusion_steps=10, obs_embed_dim=8,
        denoiser_hidden=(12,), router_hidden=(6,),
    )
    groups = MASKS[mask](3)

    def fit_bytes():
        policy = FactorizedPolicy(obs_dim=3, action_dim=1, config=cfg, seed=1)
        policy.fit(ds, epochs=2, batch_size=16, seed=2, trainable=groups)
        return (
            canonical_json(policy.to_json()),
            canonical_json(policy.training_log_.to_json()),
        )

    masked = fit_bytes()
    real, passed = fdp.composition.joint_loss, []

    def every_gradient(*args):
        # the reference ignores the trainable set and computes every gradient
        *args, trainable = args
        passed.append(trainable)
        return real(*args)

    monkeypatch.setattr(fdp.composition, "joint_loss", every_gradient)
    assert fit_bytes() == masked
    assert passed and all(t == sorted(groups) for t in passed)


# the stacked bank against the per-component loop, under the masks fit()
# and adapt() pass: component:0 and component:2 are two rows that are not
# a contiguous run
ORACLE_MASKS = {
    "all": MASKS["full"],
    "router": MASKS["router"],
    "new_module": MASKS["new_module"],
    "encoder+component": lambda n: ["encoder", "component:0"],
    "components_0_2": lambda n: ["component:0", "component:2"],
}
ORACLE_SHAPES = {
    "tanh": {},
    "N=1": {"n_components": 1},
    "2 rows": {"rows": 2},
}


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("mask", ORACLE_MASKS)
def test_stacked_joint_loss_matches_the_per_component_loop(mask, shape):
    opts = dict(ORACLE_SHAPES[shape])
    rows = opts.pop("rows", 8)
    sched, encoder, router, bank = _tiny_setup(seed=7, hidden=(7, 5), **opts)
    names = MASKS["full"](len(bank))
    groups = [g for g in ORACLE_MASKS[mask](len(bank)) if g in names]
    batch = _batch(Rng(22), b=rows)
    loss, grads = joint_loss_loop(bank.components, router, encoder, batch, sched, Rng(9), groups)
    got_loss, got = joint_loss(bank, router, encoder, batch, sched, Rng(9), groups)
    assert got_loss == loss
    assert grads.keys() == set(groups)
    got = by_group(bank, router, encoder, got, groups)
    for g in groups:
        np.testing.assert_array_equal(got[g], grads[g], err_msg=g)


@pytest.mark.parametrize("mask", ORACLE_MASKS)
def test_fit_matches_the_per_component_loop(monkeypatch, mask):
    # loss, gradients (through every Adam step) and validation MSE, bit for bit
    ds = generate_demos("bimodal1d", per_task=4, seed=4)
    cfg = PolicyConfig(
        n_components=3, diffusion_steps=10, obs_embed_dim=8,
        denoiser_hidden=(12, 6), router_hidden=(6,),
    )
    groups = ORACLE_MASKS[mask](3)

    def fit_bytes():
        policy = FactorizedPolicy(obs_dim=3, action_dim=1, config=cfg, seed=1)
        policy.fit(ds, epochs=2, batch_size=16, seed=2, trainable=groups)
        assert policy.training_log_.n_val_windows > 0
        return (
            canonical_json(policy.to_json()),
            canonical_json(policy.training_log_.to_json()),
        )

    stacked = fit_bytes()

    def loop_gradient(bank, router, encoder, *args):
        # the loop's per-group arrays, in a vector laid out like the policy's;
        # the groups it leaves out stay NaN, which a step that read them
        # would raise on
        loss, grads = joint_loss_loop(bank.components, router, encoder, *args)
        slices = group_slices(bank, router, encoder)
        grad = np.full(slices["router"].stop, np.nan)
        for g, arr in grads.items():
            grad[slices[g]] = arr
        return loss, grad

    monkeypatch.setattr(fdp.composition, "joint_loss", loop_gradient)
    monkeypatch.setattr(
        fdp.policy, "composed_residual",
        lambda bank, *args: (residual_loop(bank.components, *args), None),
    )
    assert fit_bytes() == stacked


def test_joint_loss_batch_shape_validation():
    sched, encoder, router, bank = _tiny_setup()
    with pytest.raises(ValueError):
        joint_loss(bank, router, encoder, (np.zeros((2, 6)), np.zeros((3, 4))), sched, Rng(0))


# ---------------------------------------------------------------------------
# every composed path against the per-component reference loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted():
    ds = generate_demos("bimodal1d", per_task=5, seed=4)
    cfg = PolicyConfig(
        n_components=3, diffusion_steps=10, obs_embed_dim=8,
        denoiser_hidden=(12,), router_hidden=(6,),
    )
    policy = FactorizedPolicy(obs_dim=3, action_dim=1, config=cfg, seed=1)
    return policy.fit(ds, epochs=3, batch_size=32, seed=2), ds


def test_composed_score_matches_reference_loop(fitted):
    policy, ds = fitted
    _, obs = policy.build_training_arrays(ds.episodes[:1])
    emb = policy.encode_observation(obs[3])
    w = policy.router.route(emb)
    values = Rng(1).gaussian(policy.window_dim)
    for k in (1, 4, 10):
        score = composed_score(policy.components, w, values, emb, k)
        expected = composed_prediction_loop(policy.components, w, values, emb, k)
        np.testing.assert_array_equal(score.aggregate, expected)


def test_joint_loss_matches_reference_loop(fitted):
    policy, ds = fitted
    windows, obs = policy.build_training_arrays(ds.episodes[:2])
    loss, _ = joint_loss(
        policy.bank, policy.router, policy.obs_encoder, (windows, obs),
        policy.schedule, Rng(7),
    )
    rng = Rng(7)  # joint_loss draws the steps, then the noise
    ks = rng.integers(1, policy.schedule.K + 1, len(windows))
    eps = rng.gaussian(windows.size).reshape(windows.shape)
    expected = composed_residual_loop(policy, windows, obs, ks, eps)
    resid, _ = composed_residual(
        policy.bank, policy.router, policy.obs_encoder, windows, obs,
        policy.schedule, ks, eps,
    )
    np.testing.assert_array_equal(resid, expected)
    np.testing.assert_array_equal(loss, np.mean(expected * expected))


def _assert_val_mse_matches_reference_loop(policy, ds):
    # fit's held-out split and frozen draws for seed 2
    rng = Rng(2)
    n_val = max(1, int(round(VALIDATION_FRACTION * len(ds.episodes))))
    order = rng.child(1).permutation(len(ds.episodes))
    windows, obs = policy.build_training_arrays([ds.episodes[i] for i in order[:n_val]])
    val_rng = rng.child(2)
    ks = val_rng.integers(1, policy.schedule.K + 1, len(windows))
    eps = val_rng.gaussian(windows.size).reshape(windows.shape)
    expected = composed_residual_loop(policy, windows, obs, ks, eps)
    np.testing.assert_array_equal(
        policy.training_log_.entries[-1]["val_mse"], np.mean(expected * expected)
    )


def test_validation_mse_matches_reference_loop(fitted):
    _assert_val_mse_matches_reference_loop(*fitted)


@pytest.mark.parametrize(
    "batch_size, rows", [(32, [8]), (3, [3, 3, 2]), (7, [8]), (1, [2, 2, 2, 2])]
)
def test_validation_in_batch_slices_matches_reference_loop(
    fitted, monkeypatch, batch_size, rows
):
    # 8 held-out windows; no slice is a lone row, which numpy would multiply
    # by gemv and so round differently from the whole-set reference
    policy, ds = fitted
    seen = []

    def recording(*args):
        seen.append(len(args[3]))
        return composed_residual(*args)

    monkeypatch.setattr(fdp.policy, "composed_residual", recording)
    policy = copy.deepcopy(policy).fit(ds, epochs=1, batch_size=batch_size, seed=2)
    assert seen == rows
    _assert_val_mse_matches_reference_loop(policy, ds)


def test_score_similarity_matches_reference_loop(fitted):
    policy, ds = fitted
    probes = build_probe_set(policy, ds, n=12, seed=5)
    n = policy.n_components
    acc = np.zeros((n, n))
    for obs, values, k in probes:
        emb = policy.encode_observation(obs)
        preds = [comp.predict(values, emb, k)[0] for comp in policy.components]
        norms = [float(np.linalg.norm(p)) for p in preds]
        for i in range(n):
            for j in range(i, n):
                acc[i, j] += float(preds[i] @ preds[j]) / (norms[i] * norms[j])
    expected = acc / len(probes)
    expected = expected + np.triu(expected, 1).T
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_array_equal(score_similarity(policy, probes).values, expected)


# ---------------------------------------------------------------------------
# the component bank against the per-component reference loop
# ---------------------------------------------------------------------------


def _sample_window_loop(policy, obs, rng, top_k=None, weights_override=None):
    emb = policy.encode_observation(obs)
    w = policy.router.route(emb) if weights_override is None else weights_override
    comps = policy.components
    if top_k is not None:
        idx, w = select_top_k(w, top_k)
        comps = [comps[i] for i in idx]
    values = sample_values_loop(
        comps, w, emb, policy.schedule, policy.window_dim, rng, x0_clip=NORMALIZED_CLAMP
    )
    values = np.clip(values, -NORMALIZED_CLAMP, NORMALIZED_CLAMP)
    return values.reshape(policy.config.t_pred, policy.action_dim)


@pytest.mark.parametrize("case", ["full", "top_k", "one_hot", "upcycled"])
def test_sample_window_matches_reference_loop(fitted, case):
    policy, ds = fitted
    kwargs = {}
    if case == "top_k":
        kwargs = {"top_k": 2}
    elif case == "one_hot":
        kwargs = {"weights_override": np.array([0.0, 1.0, 0.0])}
    elif case == "upcycled":
        policy = copy.deepcopy(policy)
        upcycle_component(policy, source=1)
    _, obs = policy.build_training_arrays(ds.episodes[:1])
    for row in (0, 5):
        got, info = policy.sample_window(obs[row], Rng(row), **kwargs)
        expected = _sample_window_loop(policy, obs[row], Rng(row), **kwargs)
        assert_chain_close(got, expected)
        assert info.denoiser_evals == len(info.active) * policy.schedule.K


def test_bank_matches_component_predictions(fitted):
    policy, ds = fitted
    bank = policy.bank
    windows, obs = policy.build_training_arrays(ds.episodes[:1])
    emb = policy.encode_observation(obs)
    ks = Rng(3).integers(1, policy.schedule.K + 1, len(windows))
    # one row, then a batch with one embedding and step per row
    for values, e, k in ((windows[2], emb[2], int(ks[2])), (windows, emb, ks)):
        preds, _ = component_predictions(policy.components, values, e, k)
        np.testing.assert_array_equal(bank.forward(values, e, k)[0], preds)
    # both ends of the step table
    for k in (1, policy.schedule.K):
        preds, _ = component_predictions(policy.components, windows[0], emb[0], k)
        np.testing.assert_array_equal(bank.forward(windows[0], emb[0], k)[0], preds)


def test_bank_rejects_other_architectures_naming_the_component():
    rng = Rng(4)
    comps = [init_component(6, 4, [7], rng.child(i), step_dim=4) for i in range(2)]
    others = [
        init_component(6, 4, [8], rng.child(5), step_dim=4),
        DenoiserComponent(FeedForwardNet.init([14, 7, 6], "identity", rng.child(6)), 6, 4),
        init_component(6, 2, [7], rng.child(7), step_dim=6),
    ]
    for other in others:
        with pytest.raises(CompositionError, match="component 2 "):
            ComponentBank([*comps, other], 5)
    # so does any other component
    analytic = AnalyticGaussianDenoiser(make_schedule(5), 0.0, 1.0)
    with pytest.raises(CompositionError, match=r"component 1 \(AnalyticGaussianDenoiser\) is not"):
        ComponentBank([comps[0], analytic], 5)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 9),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    window_dim=st.sampled_from([1, 3]),
    top_k=st.integers(1, 9),
    clip=st.sampled_from([None, NORMALIZED_CLAMP]),
    seed=st.integers(0, 2**16),
)
def test_bank_sampling_matches_loop_property(n, hidden, window_dim, top_k, clip, seed):
    rng = Rng(seed)
    emb_dim = 2
    comps = [
        init_component(window_dim, emb_dim, hidden, rng.child(i), step_dim=4)
        for i in range(n)
    ]
    sched = make_schedule(6)
    w = softmax(rng.child(10).gaussian(n))
    emb = rng.child(11).gaussian(emb_dim)
    top_k = min(top_k, n)
    bank = ComponentBank(comps, sched.K)
    got, info = sample_values(bank, w, emb, sched, window_dim, Rng(seed), top_k, clip)
    # top_k = n is the full composition, not a renormalized selection
    idx, w_used = select_top_k(w, top_k) if top_k < n else (np.arange(n), w)
    expected = sample_values_loop(
        [comps[i] for i in idx], w_used, emb, sched, window_dim, Rng(seed), clip
    )
    assert_chain_close(got, expected)
    np.testing.assert_array_equal(info.active, idx)


@pytest.mark.parametrize(
    "case", ["full", "top_k", "one_hot", "n1", "no_clip", "analytic"]
)
def test_sample_values_matches_the_fresh_array_loop(case):
    rng, sched = Rng(21), make_schedule(12)
    n = 1 if case == "n1" else 4
    if case == "analytic":  # the bank double: one component at a time
        comps = [AnalyticGaussianDenoiser(sched, m, 1.0) for m in (-1, 0.5, 2, 0)]
        emb = np.zeros(0)
    else:
        comps = [init_component(6, 5, [9, 7], rng.child(i), step_dim=4) for i in range(n)]
        emb = rng.child(9).gaussian(5)
    w = np.eye(n)[2] if case == "one_hot" else softmax(rng.child(10).gaussian(n))
    top_k = 2 if case == "top_k" else None
    clip = None if case in ("no_clip", "analytic") else NORMALIZED_CLAMP
    bank = (LoopBank if case == "analytic" else ComponentBank)(comps, sched.K)
    for seed in (0, 1):
        got, info = sample_values(bank, w, emb, sched, 6, Rng(seed), top_k, clip)
        expected, idx = sample_loop(bank, w, emb, sched, 6, Rng(seed), top_k, clip)
        if case == "analytic":  # the double: the same sums, bit for bit
            np.testing.assert_array_equal(got, expected)
        else:
            assert_chain_close(got, expected)
        np.testing.assert_array_equal(info.active, idx)


@pytest.mark.parametrize("top_k", [None, 3])
@pytest.mark.parametrize("case", ["two_hidden", "identity_only", "one_hidden", "one_wide"])
def test_chain_matches_the_per_component_oracle(case, top_k, monkeypatch):
    # two_hidden: a middle layer between the table and the folded last one;
    # identity_only: layer 0 is the last layer and takes the weights;
    # one_hidden: no middle layer between the table and the folded last one;
    # one_wide: nine 1-wide predictions, which numpy would sum pairwise; a
    # slip in a step's sum rarely reaches the sample, so every step's
    # composed prediction is compared too
    steps, reverse_mean = [], fdp.composition.reverse_mean

    def recorded_reverse_mean(schedule, values, eps_hat, k, *args, **kwargs):
        steps.append((values.copy(), eps_hat.copy(), k))
        return reverse_mean(schedule, values, eps_hat, k, *args, **kwargs)

    monkeypatch.setattr(fdp.composition, "reverse_mean", recorded_reverse_mean)
    rng, sched = Rng(31), make_schedule(10)
    n, dim = (9, 1) if case == "one_wide" else (4, 6)
    hidden = {"identity_only": [], "one_hidden": [7]}.get(case, [7, 5])
    comps = [init_component(dim, 3, hidden, rng.child(i), step_dim=4) for i in range(n)]
    emb, w = rng.child(20).gaussian(3), softmax(rng.child(21).gaussian(n))
    bank = ComponentBank(comps, sched.K)
    idx, w_used = select_top_k(w, top_k) if top_k else (np.arange(n), w)
    active = [comps[i] for i in idx]
    windows = []
    for seed, clip in ((0, NORMALIZED_CLAMP), (1, None)):
        got, info = sample_values(bank, w, emb, sched, dim, Rng(seed), top_k, clip)
        expected = sample_values_loop(active, w_used, emb, sched, dim, Rng(seed), clip)
        assert_chain_close(got, expected)
        np.testing.assert_array_equal(info.active, idx)
        windows.append(got)
    assert len(steps) == 2 * sched.K
    for values, eps_hat, k in steps:
        expected = composed_prediction_loop(active, w_used, values, emb, k)
        assert_chain_close(eps_hat, expected)
    # each act tabulates its own terms: an act on another observation in
    # between leaves the first call's bits as they were
    other_emb = rng.child(22).gaussian(3)
    other, _ = sample_values(bank, w, other_emb, sched, dim, Rng(0), top_k, NORMALIZED_CLAMP)
    again, _ = sample_values(bank, w, emb, sched, dim, Rng(0), top_k, NORMALIZED_CLAMP)
    assert not np.array_equal(other, windows[0])
    assert again.tobytes() == windows[0].tobytes()


@pytest.mark.parametrize("write", ["adam", "assign"])
@pytest.mark.parametrize("weights, active", [(None, [0, 1, 2]), ([0.5, 0.1, 0.4], [0, 2])])
def test_sampling_after_a_parameter_write_matches_a_fresh_load(fitted, write, weights, active):
    # full composition runs on views of the store, a non-contiguous top-k on copies
    policy = copy.deepcopy(fitted[0])
    obs = fitted[0].build_training_arrays(fitted[1].episodes[:1])[1][0]
    top_k, w = (None, None) if weights is None else (2, np.array(weights))
    before, info = policy.sample_window(obs, Rng(5), top_k, w)
    np.testing.assert_array_equal(info.active, active)
    for i, comp in enumerate(policy.components):
        delta = Rng(40 + i).gaussian(comp.net.param_count())
        if write == "adam":
            Adam(lr=1e-2).step(comp.net.vector, delta, [("component", comp.net, 0, 1.0)])
        else:
            comp.net.assign(comp.net.vector + 1e-2 * delta)
    fresh = FactorizedPolicy.from_json(policy.to_json())
    after, _ = policy.sample_window(obs, Rng(5), top_k, w)
    np.testing.assert_array_equal(after, fresh.sample_window(obs, Rng(5), top_k, w)[0])
    assert not np.array_equal(after, before)


def test_sampling_rejects_a_bank_built_for_fewer_steps():
    comps = [init_component(4, 3, [5], Rng(0).child(i), step_dim=4) for i in range(2)]
    bank = ComponentBank(comps, 6)
    with pytest.raises(CompositionError, match=r"6 steps.* K=10"):
        sample_values(bank, np.array([0.5, 0.5]), Rng(1).gaussian(3), make_schedule(10), 4, Rng(2))


class FixedPrediction:
    def __init__(self, pred):
        self.pred = pred

    def predict(self, values, obs_embedding, k):
        return self.pred, None


@pytest.mark.parametrize("n", [1, 4, 8, 9, 16, 33])
@pytest.mark.parametrize("shape", [(1,), (2,), (5, 1), (5, 3)])
def test_weighted_sum_adds_in_index_order(n, shape):
    # a 1-wide stack is where numpy would sum 8 or more terms pairwise
    rng = Rng(n)
    size = int(np.prod(shape))
    preds = [rng.gaussian(size).reshape(shape) * 10.0 ** (i % 7 - 3) for i in range(n)]
    weights = [softmax(rng.gaussian(n))]
    if len(shape) == 2:
        weights.append(softmax(rng.gaussian(shape[0] * n).reshape(shape[0], n)))
    comps = [FixedPrediction(p) for p in preds]
    for w in weights:
        expected = composed_prediction_loop(comps, w, None, None, None)
        for stacked in (preds, np.stack(preds)):
            # component axis first: (B, N) weights go in as (N, B)
            np.testing.assert_array_equal(weighted_sum(w.T, stacked), expected)


@pytest.mark.parametrize("shape", [(1,), (4,)])
def test_weighted_sum_keeps_a_negative_zero_sum(shape):
    out = weighted_sum(np.array([0.2, 0.3, 0.5]), np.full((3, *shape), -0.0))
    assert np.all(out == 0.0) and np.all(np.signbit(out))


def test_one_inference_makes_one_reverse_update_and_one_bank_call_per_step(
    fitted, monkeypatch
):
    # perfbench's tracer counts these calls through the same module-level names
    policy, ds = fitted
    calls = {"reverse_mean": 0, "predict_row": 0}
    reverse_mean, predict_row = fdp.composition.reverse_mean, ComponentBank.predict_row

    def counted_reverse_mean(*args, **kwargs):
        calls["reverse_mean"] += 1
        return reverse_mean(*args, **kwargs)

    def counted_predict_row(self, *args, **kwargs):
        calls["predict_row"] += 1
        return predict_row(self, *args, **kwargs)

    monkeypatch.setattr(fdp.composition, "reverse_mean", counted_reverse_mean)
    monkeypatch.setattr(ComponentBank, "predict_row", counted_predict_row)
    _, obs = policy.build_training_arrays(ds.episodes[:1])
    policy.sample_window(obs[0], Rng(0))
    assert calls == {"reverse_mean": policy.schedule.K, "predict_row": policy.schedule.K}


def test_bank_prediction_survives_later_predictions(fitted):
    policy, ds = fitted
    bank = policy.bank
    windows, obs = policy.build_training_arrays(ds.episodes[:1])
    emb = policy.encode_observation(obs)
    first = bank.forward(windows[0], emb[0], 3)[0]
    kept = first.copy()
    later = bank.forward(windows[1], emb[1], 4)[0]
    assert not np.shares_memory(first, later)
    np.testing.assert_array_equal(first, kept)
