"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line with the measured values.

The heavyweight studies (multitask trend, component sweep, pruning,
retention) are deterministic: demo seeds, training seeds, and evaluation
streams are all frozen, so the reported numbers reproduce bit-for-bit. Their
independent runs go to two worker processes, which changes no number.
"""

import copy
import dataclasses
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from click.testing import CliRunner

from fdp.adaptation import adapt, continual_adapt
from fdp.analysis import build_probe_set, score_similarity
from fdp.bench import evaluate, generate_demos, make_suite, merge_datasets
from fdp.cli import cli
from fdp.composition import Router, group_slices, joint_loss, sample_values
from fdp.diffusion import make_schedule
from fdp.numerics import FeedForwardNet, Rng
from fdp.policy import ComponentBank, FactorizedPolicy, PolicyConfig

from .oracles import (
    AnalyticGaussianDenoiser, LoopBank, central_diff, component_loss, init_component,
    matched_hidden_width, max_rel_err, product_of_gaussians,
)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def in_workers(run, jobs):
    """[run(*job) for job in jobs], two jobs at a time in worker processes.

    Every job is deterministic in its arguments and shares no state with the
    others, so the results are exactly those of the serial loop.
    """
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        return list(pool.map(run, *zip(*jobs)))


# ---------------------------------------------------------------------------
# shared study configurations (frozen)
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 2, 3, 4)
EPISODES = 40
DEMO_SEED = 100

MULTI_CFG = dict(
    diffusion_steps=50,
    obs_embed_dim=32,
    denoiser_hidden=(24, 24),
    router_hidden=(32,),
)
MATCHED_H1 = matched_hidden_width(4, 24, 32 + 32 + 16, 32)


def multitask_specs(tol: float):
    specs = make_suite("reach4") + make_suite("pick-side")
    return [dataclasses.replace(s, success_tol=tol) for s in specs]


@pytest.fixture(scope="module")
def multitask_demos():
    return merge_datasets(
        generate_demos("reach4", 25, seed=DEMO_SEED),
        generate_demos("pick-side", 25, seed=DEMO_SEED),
    )


def train_multitask(n, hidden, seed, demos, epochs):
    cfg = PolicyConfig(n_components=n, denoiser_hidden=hidden, **{
        k: v for k, v in MULTI_CFG.items() if k != "denoiser_hidden"
    })
    policy = FactorizedPolicy(obs_dim=6, action_dim=2, config=cfg, seed=seed)
    policy.fit(demos, epochs=epochs, batch_size=96, seed=seed)
    return policy


def multitask_run(n, hidden, seed, demos, specs):
    """One run of the multitask study: (parameter count, success rate, seconds)."""
    t0 = time.time()
    policy = train_multitask(n, hidden, seed, demos, epochs=150)
    rate = evaluate(policy, specs, EPISODES, seeds=(seed,)).average()
    return policy.n_parameters(), rate, time.time() - t0


@pytest.fixture(scope="module")
def multitask_study(multitask_demos):
    """Criteria 4 and 5: N in {1 (width-matched), 2, 3, 4}, 5 seeds, 40
    episodes per task at tolerance 0.10, 150 training epochs. The study's
    seconds are the sum of its runs' own times, as if run one after another."""
    specs = multitask_specs(0.10)
    labels = (
        ("N1", 1, (MATCHED_H1, MATCHED_H1)),
        ("N2", 2, (24, 24)),
        ("N3", 3, (24, 24)),
        ("N4", 4, (24, 24)),
    )
    runs = in_workers(
        multitask_run,
        [(n, hidden, seed, multitask_demos, specs) for _, n, hidden in labels for seed in SEEDS],
    )
    study = {"params": {}, "rates": {}, "seconds": sum(r[2] for r in runs)}
    for i, (label, _, _) in enumerate(labels):
        per_seed = runs[i * len(SEEDS) : (i + 1) * len(SEEDS)]
        study["params"][label] = per_seed[-1][0]
        study["rates"][label] = np.array([r[1] for r in per_seed])
    return study


def pruning_run(seed, demos, specs):
    """One converged N=4 policy with its full and top-2 success rates."""
    policy = train_multitask(4, (24, 24), seed, demos, epochs=900)
    full = evaluate(policy, specs, EPISODES, seeds=(seed,)).average()
    top2 = evaluate(policy, specs, EPISODES, seeds=(seed,), top_k=2).average()
    return policy, full, top2


@pytest.fixture(scope="module")
def pruning_study(multitask_demos):
    """Criterion 8: converged N=4 policies (900 epochs); full versus top-2
    evaluation on the default-tolerance suite."""
    specs = make_suite("reach4") + make_suite("pick-side")
    runs = in_workers(pruning_run, [(seed, multitask_demos, specs) for seed in SEEDS])
    return {
        "full": np.array([r[1] for r in runs]),
        "top2": np.array([r[2] for r in runs]),
        "policies": [r[0] for r in runs],
    }


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_oracle():
    t0 = time.time()
    worst = 0.0
    checked = 0
    rng = Rng(2025)
    for trial in range(10):
        trial_rng = rng.child(trial)
        n_comp = 2 + trial % 3
        window_dim = 4 + 2 * (trial % 3)
        emb_dim = 3 + trial % 2
        obs_dim = 3 + trial % 3
        sched = make_schedule(6 + trial % 5, "cosine" if trial % 2 else "linear")
        encoder = FeedForwardNet.init([obs_dim, emb_dim], ["tanh"], trial_rng.child(0))
        router = Router(
            FeedForwardNet.init(
                [emb_dim, 4, n_comp], ["tanh", "identity"], trial_rng.child(1)
            )
        )
        comps = [
            init_component(window_dim, emb_dim, [5], trial_rng.child(2 + i), step_dim=4)
            for i in range(n_comp)
        ]
        b = 2
        windows = trial_rng.child(50).gaussian(b * window_dim).reshape(b, window_dim) * 0.5
        obs = trial_rng.child(51).gaussian(b * obs_dim).reshape(b, obs_dim)
        loss_seed = 1000 + trial

        bank = ComponentBank(comps, sched.K)  # binds the nets before params() views them
        _, grad = joint_loss(bank, router, encoder, (windows, obs), sched, Rng(loss_seed))
        slices = group_slices(bank, router, encoder)

        def loss_fn():
            return joint_loss(
                bank, router, encoder, (windows, obs), sched, Rng(loss_seed)
            )[0]

        nets = {"encoder": encoder, "router": router.net}
        nets.update({f"component:{i}": comp.net for i, comp in enumerate(comps)})
        for group, net in nets.items():
            views = net.layout(grad[slices[group]])
            for path, p in net.params().items():
                worst = max(worst, max_rel_err(views[path], central_diff(loss_fn, p)))
                checked += 1

        # per-component loss gradients (single-component objective)
        a0 = trial_rng.child(60).gaussian(window_dim) * 0.5
        emb = trial_rng.child(61).gaussian(emb_dim)
        _, cgrads = component_loss(comps[0], sched, a0, emb, Rng(loss_seed))

        def closs_fn():
            return component_loss(comps[0], sched, a0, emb, Rng(loss_seed))[0]

        views = comps[0].net.layout(cgrads.denoiser)
        for path, p in comps[0].net.params().items():
            worst = max(worst, max_rel_err(views[path], central_diff(closs_fn, p)))
            checked += 1
        worst = max(worst, max_rel_err(cgrads.obs_embedding, central_diff(closs_fn, emb)))

    elapsed = time.time() - t0
    report(
        1,
        "gradient oracle",
        worst <= 1e-4 and elapsed < 60.0,
        f"max rel err {worst:.2e} over {checked} parameter blocks in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. product-of-Gaussians sampling
# ---------------------------------------------------------------------------


def test_criterion_02_product_of_gaussians_sampling():
    t0 = time.time()
    mean_ref, var_ref = product_of_gaussians([-1.0, 1.0], [0.25, 0.25], [0.5, 0.5])
    sched = make_schedule(100, "cosine")
    comps = [
        AnalyticGaussianDenoiser(sched, -1.0, 0.25),
        AnalyticGaussianDenoiser(sched, 1.0, 0.25),
    ]
    n = 10**4
    bank = LoopBank(comps, sched.K)
    values, _ = sample_values(bank, np.array([0.5, 0.5]), np.zeros(0), sched, n, Rng(314159))
    mean, var = float(values.mean()), float(values.var())
    elapsed = time.time() - t0
    ok = abs(mean - mean_ref) < 0.05 and abs(var / var_ref - 1.0) < 0.05 and elapsed < 60
    report(
        2,
        "product-of-Gaussians sampling",
        ok,
        f"mean {mean:+.4f} (ref {mean_ref:+.1f} ± 0.05), "
        f"var {var:.4f} (ref {var_ref:.4f} ± 5%), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. multimodality capture
# ---------------------------------------------------------------------------


def mode_mass(demos, n_components, hidden, seed=0, samples=5000):
    """Share of sampled windows from the bimodal start state that go left."""
    start_obs = np.array([0.0, -0.6, 0.6, 0.0, -0.6, 0.6])
    cfg = PolicyConfig(
        n_components=n_components,
        diffusion_steps=50,
        obs_embed_dim=16,
        denoiser_hidden=hidden,
        router_hidden=(16,),
    )
    policy = FactorizedPolicy(obs_dim=3, action_dim=1, config=cfg, seed=seed)
    policy.fit(demos, epochs=200, batch_size=96, seed=seed)
    rng = Rng(424242)
    left = sum(
        int(policy.act(start_obs, rng.child(i))[:8].sum() < 0)
        for i in range(samples)
    )
    return left / samples


def test_criterion_03_bimodal_mode_capture():
    demos = generate_demos("bimodal1d", 25, seed=DEMO_SEED)
    h1 = matched_hidden_width(4, 24, 16 + 16 + 16, 16)
    left4, left1 = in_workers(mode_mass, [(demos, 4, (24, 24)), (demos, 1, (h1, h1))])
    ok = 0.30 <= left4 <= 0.70
    report(
        3,
        "bimodal mode capture",
        ok,
        f"4-component left-mode mass {left4:.3f} (bounds [0.30, 0.70]); "
        f"matched 1-component recorded at {left1:.3f}",
    )


# ---------------------------------------------------------------------------
# 4. multitask trend and 5. component-count sweep
# ---------------------------------------------------------------------------


def test_criterion_04_multitask_trend(multitask_study):
    r4 = multitask_study["rates"]["N4"]
    r1 = multitask_study["rates"]["N1"]
    p4, p1 = multitask_study["params"]["N4"], multitask_study["params"]["N1"]
    matched = abs(p4 - p1) / p4 < 0.05
    ok = r4.mean() >= r1.mean() and matched and multitask_study["seconds"] < 1800
    report(
        4,
        "multitask trend (factorized vs monolithic)",
        ok,
        f"N=4 {r4.mean():.3f} vs N=1 {r1.mean():.3f} over {len(SEEDS)} seeds x "
        f"{EPISODES} episodes; params {p4} vs {p1}; study {multitask_study['seconds']:.0f}s",
    )


def test_criterion_05_component_count_sweep(multitask_study):
    means, ses = {}, {}
    for label in ("N2", "N3", "N4"):
        r = multitask_study["rates"][label]
        means[label] = r.mean()
        ses[label] = r.std(ddof=1) / np.sqrt(len(r))
    ok = True
    details = []
    for lo, hi in (("N2", "N3"), ("N3", "N4")):
        pooled = float(np.hypot(ses[lo], ses[hi]))
        ok &= means[hi] >= means[lo] - pooled
        details.append(f"{lo} {means[lo]:.3f} -> {hi} {means[hi]:.3f} (pooled se {pooled:.3f})")
    report(5, "component-count sweep", bool(ok), "; ".join(details))


# ---------------------------------------------------------------------------
# 6. freeze bit-exactness
# ---------------------------------------------------------------------------


def test_criterion_06_freeze_bit_exactness():
    pretrain = generate_demos("reach4", 6, seed=DEMO_SEED)
    new_task = generate_demos([make_suite("pick-side")[0]], 6, seed=DEMO_SEED + 1)
    cfg = PolicyConfig(
        n_components=3,
        diffusion_steps=10,
        obs_embed_dim=12,
        denoiser_hidden=(16,),
        router_hidden=(8,),
    )
    policy = FactorizedPolicy(obs_dim=6, action_dim=2, config=cfg, seed=3)
    policy.fit(pretrain, epochs=5, batch_size=48, seed=3)
    before = [policy.components[i].checksum() for i in range(3)]
    adapt(policy, new_task, strategy="new_module", epochs=5, batch_size=48, seed=4)
    after = [policy.components[i].checksum() for i in range(3)]
    ok = before == after and policy.n_components == 4
    report(
        6,
        "freeze bit-exactness",
        ok,
        f"SHA-256 of {len(before)} pretrained components unchanged through "
        "new_module adaptation",
    )


# ---------------------------------------------------------------------------
# 7. retention with replay
# ---------------------------------------------------------------------------


def retention_run(seed, reach_specs, pretrain_ds, new_ds):
    """Success on the pretraining tasks before adaptation, after new_module
    adaptation with 5-demo replay, and after it without replay."""
    cfg = PolicyConfig(n_components=4, **MULTI_CFG)
    policy = FactorizedPolicy(obs_dim=6, action_dim=2, config=cfg, seed=seed)
    policy.fit(pretrain_ds, epochs=300, batch_size=96, seed=seed)
    pre = evaluate(policy, reach_specs, EPISODES, seeds=(seed,)).average()

    replayed = copy.deepcopy(policy)
    adapt(
        replayed, new_ds, strategy="new_module", epochs=100, batch_size=64,
        replay_per_task=5, replay_dataset=pretrain_ds, seed=seed,
    )
    with_buf = evaluate(replayed, reach_specs, EPISODES, seeds=(seed,)).average()

    bare = copy.deepcopy(policy)
    adapt(bare, new_ds, strategy="new_module", epochs=100, batch_size=64, seed=seed)
    without_buf = evaluate(bare, reach_specs, EPISODES, seeds=(seed,)).average()
    return pre, with_buf, without_buf


def test_criterion_07_retention_with_replay():
    reach_specs = make_suite("reach4")
    pick_spec = make_suite("pick-side")[0]
    pretrain_ds = generate_demos("reach4", 25, seed=DEMO_SEED)
    new_ds = generate_demos([pick_spec], 10, seed=200)

    runs = in_workers(
        retention_run, [(seed, reach_specs, pretrain_ds, new_ds) for seed in SEEDS]
    )
    pre, with_buf, without_buf = zip(*runs)
    pre_m, with_m, wo_m = np.mean(pre), np.mean(with_buf), np.mean(without_buf)
    ok = with_m >= 0.85 * pre_m and with_m >= wo_m
    report(
        7,
        "retention with 5-demo replay",
        ok,
        f"pretrain {pre_m:.3f}; with replay {with_m:.3f} "
        f"(needs >= {0.85 * pre_m:.3f}); without {wo_m:.3f}",
    )


# ---------------------------------------------------------------------------
# 8. top-k pruning
# ---------------------------------------------------------------------------


def test_criterion_08_topk_pruning(pruning_study):
    policy = pruning_study["policies"][0]
    obs = np.zeros(policy.stacked_obs_dim)
    _, info_full = policy.sample_window(obs, Rng(1))
    _, info_top2 = policy.sample_window(obs, Rng(1), top_k=2)
    half_exact = (
        info_full.denoiser_evals == 4 * policy.schedule.K
        and info_top2.denoiser_evals == 2 * policy.schedule.K
        and info_full.denoiser_evals == 2 * info_top2.denoiser_evals
    )
    full = pruning_study["full"]
    top2 = pruning_study["top2"]
    rel_drop = float((full.mean() - top2.mean()) / full.mean())
    ok = half_exact and rel_drop <= 0.25
    report(
        8,
        "top-2 pruning",
        ok,
        f"evals {info_full.denoiser_evals} -> {info_top2.denoiser_evals} (exactly half); "
        f"success {full.mean():.3f} -> {top2.mean():.3f}, relative drop {rel_drop:.1%} "
        "(bound 25%)",
    )


# ---------------------------------------------------------------------------
# 9. continual structure
# ---------------------------------------------------------------------------


def test_criterion_09_continual_structure():
    specs = make_suite("continual12")
    pre_specs = specs[:4]
    pretrain = generate_demos(pre_specs, 4, seed=DEMO_SEED)
    cfg = PolicyConfig(
        n_components=4,
        diffusion_steps=10,
        obs_embed_dim=12,
        denoiser_hidden=(16,),
        router_hidden=(8,),
    )
    policy = FactorizedPolicy(obs_dim=6, action_dim=2, config=cfg, seed=0)
    policy.fit(pretrain, epochs=3, batch_size=48, seed=0)

    checksum_history = {i: policy.components[i].checksum() for i in range(4)}
    stages = [
        (spec, generate_demos([spec], 4, seed=DEMO_SEED + 1 + i))
        for i, spec in enumerate(specs[4:])
    ]
    stable = True

    def eval_fn(p, seen):
        nonlocal stable
        for idx, sha in checksum_history.items():
            stable &= p.components[idx].checksum() == sha
        checksum_history[p.n_components - 1] = p.components[-1].checksum()
        return evaluate(p, seen, episodes_per_task=2, seeds=(0,)).to_json()

    log = continual_adapt(
        policy,
        pre_specs,
        stages,
        epochs=2,
        batch_size=48,
        seed=7,
        evaluate_fn=eval_fn,
    )
    counts = [s["n_components"] for s in log.stages]
    final_tasks = len(log.stages[-1]["evaluation"]["tasks"])
    ok = (
        policy.n_components == 12
        and counts == list(range(5, 13))
        and stable
        and all(s["frozen_stable"] for s in log.stages)
        and final_tasks == 12
    )
    report(
        9,
        "continual structure",
        ok,
        f"components {counts[-1]}, stage counts {counts}, earlier components "
        f"bitwise stable, final evaluation covers {final_tasks} tasks",
    )


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    fast = [
        "--components", "2", "--diffusion-steps", "10", "--obs-embed-dim", "12",
        "--denoiser-hidden", "16", "--router-hidden", "8",
    ]
    digests = []
    for run in ("a", "b"):
        base = tmp_path / run
        demos = base / "demos.jsonl"
        assert runner.invoke(
            cli, ["gen-demos", "--suite", "bimodal1d", "--per-task", "5", "--seed", "3",
                  "--out", str(demos)]
        ).exit_code == 0
        assert runner.invoke(
            cli, ["train", "--demos", str(demos), *fast, "--epochs", "2",
                  "--batch-size", "32", "--seed", "3", "--out-dir", str(base / "t")]
        ).exit_code == 0
        assert runner.invoke(
            cli, ["eval", "--checkpoint", str(base / "t" / "checkpoint.json"),
                  "--suite", "bimodal1d", "--episodes", "4", "--seeds", "0,1",
                  "--out-dir", str(base / "e")]
        ).exit_code == 0
        assert runner.invoke(
            cli, ["adapt", "--checkpoint", str(base / "t" / "checkpoint.json"),
                  "--demos", str(demos), "--epochs", "1", "--batch-size", "32",
                  "--seed", "4", "--out-dir", str(base / "a")]
        ).exit_code == 0
        digests.append(
            tuple(
                (base / rel).read_bytes()
                for rel in (
                    "demos.jsonl",
                    "t/checkpoint.json",
                    "t/training_log.json",
                    "e/success_table.json",
                    "e/success_table.csv",
                    "a/checkpoint.json",
                    "a/adaptation_log.json",
                )
            )
        )
    ok = digests[0] == digests[1]
    report(
        10,
        "CLI determinism",
        ok,
        "gen-demos, train, eval, adapt reruns byte-identical across "
        f"{len(digests[0])} artifacts",
    )


# ---------------------------------------------------------------------------
# 11. similarity invariants
# ---------------------------------------------------------------------------


def test_criterion_11_similarity_invariants():
    import copy

    demos = generate_demos("pick-side", 6, seed=DEMO_SEED)
    cfg = PolicyConfig(
        n_components=3,
        diffusion_steps=10,
        obs_embed_dim=12,
        denoiser_hidden=(16,),
        router_hidden=(8,),
    )
    policy = FactorizedPolicy(obs_dim=6, action_dim=2, config=cfg, seed=1)
    policy.fit(demos, epochs=10, batch_size=48, seed=1)
    probes = build_probe_set(policy, demos, n=64, seed=5)
    sim = score_similarity(policy, probes)
    symmetric = bool(np.allclose(sim.values, sim.values.T, atol=1e-12))
    unit_diag = bool(np.all(np.abs(np.diag(sim.values) - 1.0) <= 1e-9))

    twin = copy.deepcopy(policy)
    twin.components = [twin.components[0], twin.components[0].copy()]
    twin.config.n_components = 2
    sim_dup = score_similarity(twin, build_probe_set(twin, demos, n=32, seed=6))
    dup_ok = abs(sim_dup.values[0, 1] - 1.0) <= 1e-12

    ok = symmetric and unit_diag and dup_ok
    report(
        11,
        "similarity invariants",
        ok,
        f"symmetric={symmetric}, unit diagonal={unit_diag}, duplicate off-diagonal "
        f"{sim_dup.values[0, 1]:.12f}",
    )
