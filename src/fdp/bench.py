"""Synthetic multitask benchmarks: point-mass environments with multimodal
expert behavior, scripted experts, demonstration datasets, and success-rate
evaluation.

All dynamics are a velocity-command integrator (dt 0.1, speed clamp 1.0),
deterministic given (state, action); randomness enters only through reset
jitter and per-episode expert mode latches. Observation layouts are fixed per
family: 2-d tasks see [pos, object, goal] (6 dims), 1-d tasks see three
scalars ([agent, drawer, target] or [pos, left goal, right goal]).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import Rng, as_f64, json_fields, typed_field
from .policy import ActionNormalizer, canonical_json, csv_text, rollout, write_atomic

SUITES = ("reach4", "pick-side", "drawer-line", "bimodal1d", "continual12")
DATASET_FORMAT = "fdp-episodes"
DATASET_VERSION = 1
HEADER_KEYS = ("format", "version", "suite", "state_dim", "action_dim", "seed", "normalizer")
EPISODE_KEYS = ("task", "task_id", "observations", "actions", "success")  # each later line

DT = 0.1
VMAX = 1.0


class UnknownSuiteError(ValueError):
    def __init__(self, name):
        super().__init__(f"unknown suite '{name}'; available: {', '.join(SUITES)}")


class DemoGenerationError(RuntimeError):
    """Scripted expert failed to produce enough successful episodes."""


class Family(NamedTuple):
    """Constants shared by every task of one dynamics family."""

    state_dim: int
    action_dim: int
    max_steps: int
    hold_steps: int
    start_jitter: float  # scale of the Gaussian start position


FAMILIES = {
    "reach": Family(state_dim=6, action_dim=2, max_steps=45, hold_steps=3, start_jitter=0.05),
    "pick_side": Family(state_dim=6, action_dim=2, max_steps=60, hold_steps=3, start_jitter=0.05),
    "drawer": Family(state_dim=3, action_dim=1, max_steps=55, hold_steps=3, start_jitter=0.04),
    "bimodal": Family(state_dim=3, action_dim=1, max_steps=30, hold_steps=2, start_jitter=0.03),
}


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one task: its dynamics family (whose constants
    it reads through), success tolerance and layout."""

    suite: str
    task: str
    task_index: int
    kind: str  # a key of FAMILIES
    success_tol: float
    layout: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown env kind '{self.kind}'; known: {', '.join(FAMILIES)}")

    state_dim = property(lambda self: FAMILIES[self.kind].state_dim)
    action_dim = property(lambda self: FAMILIES[self.kind].action_dim)
    max_steps = property(lambda self: FAMILIES[self.kind].max_steps)
    hold_steps = property(lambda self: FAMILIES[self.kind].hold_steps)


def make_suite(name: str) -> list[EnvSpec]:
    """Task specs for a named suite; raises UnknownSuiteError otherwise."""
    if name in ("reach4", "continual12"):
        if name == "reach4":
            goals = zip((f"reach-{d}" for d in "ENWS"),
                        [(0.8, 0.0), (0.0, 0.8), (-0.8, 0.0), (0.0, -0.8)])
        else:
            angles = [2.0 * np.pi * i / 12.0 for i in range(12)]
            goals = [(f"reach-{i:02d}", (0.8 * np.cos(a), 0.8 * np.sin(a)))
                     for i, a in enumerate(angles)]
        tasks = [(task, "reach", 0.12, {"goal": list(g), "object": list(g)}) for task, g in goals]
    elif name == "pick-side":
        tasks = [
            (f"pick-{label}", "pick_side", 0.12,
             {"object": [0.55 * side, 0.0], "goal": [0.95 * side, 0.0], "detour": 0.38})
            for label, side in (("right", 1.0), ("left", -1.0))
        ]
    elif name == "drawer-line":
        tasks = [
            (task, "drawer", 0.08, {"drawer": 0.35, "target": target, "engage_dist": 0.05})
            for task, target in (("drawer-push", 0.75), ("drawer-pull", -0.05))
        ]
    elif name == "bimodal1d":
        tasks = [("bimodal", "bimodal", 0.1, {"goals": [-0.6, 0.6]})]
    else:
        raise UnknownSuiteError(name)
    return [EnvSpec(name, task, i, *rest) for i, (task, *rest) in enumerate(tasks)]


class PointMassEnv:
    """Velocity-command point mass with a latched success predicate.

    step() clamps the commanded velocity to the unit box times VMAX and
    integrates with DT; success latches after hold_steps consecutive steps
    inside the tolerance and stays latched.
    """

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        family, lay = FAMILIES[spec.kind], spec.layout  # resolved once per env
        self._action_dim, self._hold_steps = family.action_dim, family.hold_steps
        self._start_jitter = family.start_jitter
        self._goal = np.asarray(lay.get("goal", ()), dtype=np.float64)
        # what the observation holds after the position: the 2-d tasks'
        # object and goal, bimodal's two goals, the drawer's target
        self._scene = np.concatenate([lay.get("object", ()), self._goal, lay.get("goals", ())])
        self._target, self._engage_dist = lay.get("target"), lay.get("engage_dist")
        self.pos = None
        self.drawer = None
        self.engaged = False
        self.success = False
        self._hold = 0
        self.steps = 0

    def reset(self, rng: Rng) -> np.ndarray:
        self.pos = rng.gaussian(self._action_dim) * self._start_jitter
        if self.spec.kind == "drawer":
            self.drawer = float(self.spec.layout["drawer"])
            self.engaged = False
        self.success = False
        self._hold = 0
        self.steps = 0
        return self.observation()

    def observation(self) -> np.ndarray:
        if self.spec.kind == "drawer":
            return np.array([self.pos[0], self.drawer, self._target])
        return np.concatenate([self.pos, self._scene])

    def _target_error(self) -> float:
        kind = self.spec.kind
        if kind in ("reach", "pick_side"):
            d = self.pos - self._goal
            return math.sqrt(d.dot(d))  # np.linalg.norm of a real vector, bit for bit
        if kind == "drawer":
            return abs(self.drawer - self._target)
        return min(abs(self.pos[0] - g) for g in self._scene)  # bimodal's goals

    def step(self, action) -> np.ndarray:
        action = np.minimum(np.maximum(as_f64(action, "action"), -1.0), 1.0)  # np.clip
        if action.shape != (self._action_dim,):
            raise ValueError(f"action shape {action.shape} != ({self._action_dim},)")
        self.pos = self.pos + action * VMAX * DT
        if self.spec.kind == "drawer":
            if not self.engaged and abs(self.pos[0] - self.drawer) <= self._engage_dist:
                self.engaged = True
            if self.engaged:
                self.drawer = float(self.pos[0])
        self.steps += 1
        if self._target_error() < self.spec.success_tol:
            self._hold += 1
        else:
            self._hold = 0
        if self._hold >= self._hold_steps:
            self.success = True  # latched
        return self.observation()


# ---------------------------------------------------------------------------
# Scripted experts
# ---------------------------------------------------------------------------

EXPERT_GAIN = 3.0


def scripted_expert(spec: EnvSpec, state: np.ndarray, latch: dict) -> np.ndarray:
    """Proportional control toward phase-dependent waypoints.

    latch carries per-episode mode decisions (created by expert_latch); it is
    mutated to track phase transitions. Actions are clamped to the unit box.
    """
    state = as_f64(state, "state")
    if spec.kind == "reach":
        target = np.asarray(spec.layout["goal"])
        err = target - state[:2]
    elif spec.kind == "pick_side":
        obj = np.asarray(spec.layout["object"])
        goal = np.asarray(spec.layout["goal"])
        direction = goal - obj
        perp = np.array([-direction[1], direction[0]])
        perp = perp / np.linalg.norm(perp)
        waypoint = obj + latch["side"] * spec.layout["detour"] * perp
        pos = state[:2]
        if not latch.get("past_detour") and np.linalg.norm(pos - waypoint) < 0.12:
            latch["past_detour"] = True
        err = (goal if latch.get("past_detour") else waypoint) - pos
    elif spec.kind == "drawer":
        agent, drawer, target = state
        if abs(agent - drawer) > spec.layout["engage_dist"] * 0.8 and not latch.get(
            "engaged"
        ):
            err = np.array([drawer - agent])
        else:
            latch["engaged"] = True
            err = np.array([target - agent])
    else:  # bimodal
        goal = spec.layout["goals"][latch["mode"]]
        err = np.array([goal - state[0]])
    return np.clip(EXPERT_GAIN * err, -1.0, 1.0)


def expert_latch(spec: EnvSpec, rng: Rng) -> dict:
    """Per-episode mode decisions; multimodal tasks pick a branch here."""
    if spec.kind == "pick_side":
        return {"side": 1.0 if rng.uniform(1)[0] < 0.5 else -1.0}
    if spec.kind == "bimodal":
        return {"mode": 0 if rng.uniform(1)[0] < 0.5 else 1}
    return {}


class ExpertPolicy:
    """Scripted expert behind the same controller surface the rollout harness
    drives, so experts and learned policies share one evaluation path."""

    def episode_controller(self, env, rng: Rng, top_k=None, weights_override=None):
        return _ExpertController(env.spec, rng)


class _ExpertController:
    def __init__(self, spec, rng):
        self.spec = spec
        self.latch = expert_latch(spec, rng)

    def action(self, obs):
        return scripted_expert(self.spec, obs, self.latch), None


# ---------------------------------------------------------------------------
# Episodes and datasets
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    task: str
    task_id: int
    observations: np.ndarray  # (L, state_dim)
    actions: np.ndarray  # (L, action_dim)
    success: bool

    def __post_init__(self):
        self.observations = as_f64(self.observations, "observations")
        self.actions = as_f64(self.actions, "actions")
        if len(self.observations) != len(self.actions):
            raise ValueError("episode observations and actions must align")

    def __len__(self):
        return len(self.actions)


@dataclass
class EpisodeDataset:
    """Episodes grouped by task plus the action-normalizer statistics."""

    suite: str
    state_dim: int
    action_dim: int
    seed: int
    episodes: list
    normalizer: ActionNormalizer

    def episodes_by_task(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for ep in self.episodes:
            out.setdefault(ep.task, []).append(ep)
        return out

    def save(self, path) -> None:
        """Line-delimited records: one header line, then one episode per line."""
        header = (DATASET_FORMAT, DATASET_VERSION, self.suite, self.state_dim, self.action_dim,
                  self.seed, self.normalizer.to_json())

        def lines():
            yield canonical_json(dict(zip(HEADER_KEYS, header))) + "\n"
            for ep in self.episodes:
                rec = (ep.task, ep.task_id, ep.observations.tolist(), ep.actions.tolist())
                yield canonical_json(dict(zip(EPISODE_KEYS, (*rec, ep.success)))) + "\n"

        write_atomic(path, lines())

    @classmethod
    def load(cls, path) -> "EpisodeDataset":
        """Inverse of ``save``: what loads writes back its own bytes, and a
        malformed line raises ValueError naming the line and the field."""
        with open(path) as f:
            try:
                header = dict(zip(HEADER_KEYS, json_fields(json.loads(f.readline()), *HEADER_KEYS)))
                for key, want in (("format", DATASET_FORMAT), ("version", DATASET_VERSION)):
                    if canonical_json(header[key]) != canonical_json(want):
                        raise ValueError(f"field '{key}' is {header[key]!r}, expected {want!r}")
                for key, kind, least in (("suite", str, None), ("state_dim", int, 1),
                                         ("action_dim", int, 1), ("seed", int, None)):
                    typed_field(key, header[key], kind, least)
                try:
                    norm = ActionNormalizer.from_json(header["normalizer"])
                except ValueError as exc:
                    raise ValueError(f"field 'normalizer': {exc}") from exc
                if norm.lo.shape != (header["action_dim"],):
                    raise ValueError(
                        f"field 'normalizer' has 'lo' of shape {norm.lo.shape}, "
                        f"but the header's 'action_dim' is {header['action_dim']}"
                    )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"dataset line 1: {exc}: {path}") from exc
            episodes = []
            for line_no, line in enumerate(f, start=2):
                try:
                    rec = json_fields(json.loads(line), *EPISODE_KEYS)
                    episodes.append(Episode(
                        typed_field("task", rec[0], str), typed_field("task_id", rec[1], int, 0),
                        _rows("observations", rec[2], "state_dim", header["state_dim"]),
                        _rows("actions", rec[3], "action_dim", header["action_dim"]),
                        typed_field("success", rec[4], bool),
                    ))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"dataset line {line_no}: {exc}: {path}") from exc
        fields = [header[key] for key in ("suite", "state_dim", "action_dim", "seed")]
        return cls(*fields, episodes, norm)


def _rows(name: str, rows, dim: str, width: int) -> list:
    """rows if they are a list of lists of width floats (an int or a bool
    would write back other bytes); else ValueError naming the field."""
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(type(v) is float for r in rows for v in r)):
        raise ValueError(f"field '{name}' must be a list of lists of floats")
    shape = (len(rows), *sorted({len(r) for r in rows}))
    if shape[1:] != (width,):
        raise ValueError(f"field '{name}' has shape {shape}, but the header's '{dim}' is {width}")
    return rows


def merge_datasets(a: EpisodeDataset, b: EpisodeDataset) -> EpisodeDataset:
    if (a.state_dim, a.action_dim) != (b.state_dim, b.action_dim):
        raise ValueError(
            f"cannot merge datasets of (state_dim, action_dim) {(a.state_dim, a.action_dim)} "
            f"and {(b.state_dim, b.action_dim)}"
        )
    return EpisodeDataset(
        suite=f"{a.suite}+{b.suite}" if a.suite != b.suite else a.suite,
        state_dim=a.state_dim,
        action_dim=a.action_dim,
        seed=a.seed,
        episodes=list(a.episodes) + list(b.episodes),
        normalizer=ActionNormalizer(np.minimum(a.normalizer.lo, b.normalizer.lo),
                                    np.maximum(a.normalizer.hi, b.normalizer.hi)),
    )


def sample_replay(dataset: EpisodeDataset, per_task: int, seed: int) -> EpisodeDataset:
    """Seeded per-task subsample used as a retention replay buffer."""
    rng = Rng(seed)
    kept = []
    for t, (task, eps) in enumerate(sorted(dataset.episodes_by_task().items())):
        order = rng.child(t).permutation(len(eps))
        kept.extend(eps[i] for i in order[: min(per_task, len(eps))])
    return EpisodeDataset(
        suite=f"{dataset.suite}-replay",
        state_dim=dataset.state_dim,
        action_dim=dataset.action_dim,
        seed=seed,
        episodes=kept,
        normalizer=dataset.normalizer,
    )


def run_expert_episode(spec: EnvSpec, rng: Rng) -> Episode:
    """One scripted-expert rollout recorded as (observation, action) pairs."""
    result = rollout(ExpertPolicy(), PointMassEnv(spec), rng)
    return Episode(
        task=spec.task,
        task_id=spec.task_index,
        observations=np.asarray([obs for obs, _ in result.trajectory]),
        actions=np.asarray([a for _, a in result.trajectory]),
        success=result.success,
    )


def generate_demos(specs, per_task: int, seed: int) -> EpisodeDataset:
    """Expert demonstrations: per_task successful episodes per spec.

    Failures are resampled (fresh seed stream) up to 10x per_task attempts;
    exceeding that raises DemoGenerationError naming the task.
    """
    if isinstance(specs, str):
        specs = make_suite(specs)
    if per_task < 1:
        raise ValueError(f"per_task must be >= 1, got {per_task}")
    root = Rng(seed)
    episodes = []
    for spec in specs:
        kept = 0
        for attempt in range(10 * per_task):
            ep = run_expert_episode(spec, root.child(spec.task_index, attempt))
            if ep.success:
                episodes.append(ep)
                kept += 1
                if kept == per_task:
                    break
        if kept < per_task:
            raise DemoGenerationError(
                f"expert reached only {kept}/{per_task} successes on task "
                f"'{spec.task}' after {10 * per_task} attempts"
            )
    all_actions = np.concatenate([ep.actions for ep in episodes], axis=0)
    return EpisodeDataset(
        suite=specs[0].suite if len({s.suite for s in specs}) == 1 else "mixed",
        state_dim=specs[0].state_dim,
        action_dim=specs[0].action_dim,
        seed=seed,
        episodes=episodes,
        normalizer=ActionNormalizer.from_actions(all_actions),
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class SuccessTable:
    """Per-task success rates: mean and standard error over seeds."""

    tasks: list
    per_seed: dict  # task -> list of per-seed rates, seed order
    seeds: list
    episodes_per_task: int

    def mean(self, task: str) -> float:
        return float(np.mean(self.per_seed[task]))

    def stderr(self, task: str) -> float:
        rates = np.asarray(self.per_seed[task])
        if len(rates) < 2:
            return 0.0
        return float(rates.std(ddof=1) / np.sqrt(len(rates)))

    def average(self) -> float:
        return float(np.mean([self.mean(t) for t in self.tasks]))

    def average_stderr(self) -> float:
        per_seed_avg = np.mean([self.per_seed[t] for t in self.tasks], axis=0)
        if len(per_seed_avg) < 2:
            return 0.0
        return float(per_seed_avg.std(ddof=1) / np.sqrt(len(per_seed_avg)))

    def to_json(self) -> dict:
        return {
            "tasks": [
                {"task": t, "mean_success": self.mean(t), "stderr": self.stderr(t)}
                for t in self.tasks
            ],
            "average": self.average(),
            "average_stderr": self.average_stderr(),
            "seeds": list(self.seeds),
            "episodes_per_task": self.episodes_per_task,
            "per_seed": {t: list(map(float, v)) for t, v in self.per_seed.items()},
        }

    def to_csv(self) -> str:
        rows = [(t, self.mean(t), self.stderr(t)) for t in self.tasks]
        rows.append(("average", self.average(), self.average_stderr()))
        return csv_text(("task", "mean_success", "stderr"), rows)


def _eval_unit(args):
    policy, spec, seed, episodes, top_k = args
    hits = 0
    for ep_idx in range(episodes):
        rng = Rng(seed).child(0xE7A1, spec.task_index, ep_idx)
        result = rollout(policy, PointMassEnv(spec), rng, top_k=top_k)
        hits += int(result.success)
    return hits / episodes


def evaluate(
    policy,
    specs,
    episodes_per_task: int = 40,
    seeds=(0, 1, 2, 3, 4),
    top_k: int | None = None,
    jobs: int = 1,
) -> SuccessTable:
    """Success table over tasks x seeds. Episode streams derive from
    (seed, task, episode index) so the result is independent of job count."""
    if isinstance(specs, str):
        specs = make_suite(specs)
    seeds = list(seeds)
    if episodes_per_task < 1:
        raise ValueError(f"episodes_per_task must be >= 1, got {episodes_per_task}")
    if not seeds:
        raise ValueError("seeds must hold at least one seed, got none")
    units = [
        (policy, spec, seed, episodes_per_task, top_k)
        for spec in specs
        for seed in seeds
    ]
    workers = min(jobs, len(units))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rates = list(pool.map(_eval_unit, units))
    else:
        rates = [_eval_unit(u) for u in units]
    per_seed = {}
    for i, spec in enumerate(specs):
        per_seed[spec.task] = rates[i * len(seeds) : (i + 1) * len(seeds)]
    return SuccessTable(
        tasks=[s.task for s in specs],
        per_seed=per_seed,
        seeds=seeds,
        episodes_per_task=episodes_per_task,
    )
