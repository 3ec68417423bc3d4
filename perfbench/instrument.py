"""Instrumentation for the fdp benchmark, installed from outside the package.

Two layers of wrappers are patched onto fdp's modules and classes and taken
off again afterwards:

* ``Probe`` times what a user of fdp sees (one inference, one evaluation
  episode, one ``evaluate``, one fit and its epochs). It is on in every run,
  costs two clock reads per call, and feeds the end-to-end metrics. In plain
  runs it also ticks the speed gauge (``speed.py``) and reads its work clock,
  which leaves out the time spent in the gauge's kernel.
* ``Tracer`` records one span per call at each layer boundary (name, start,
  end, parent) plus exact work counters. It is on only in the traced rounds
  of a ``--trace 1`` run and feeds the per-layer metrics.

fdp binds many imported names directly (``bench`` does ``from .policy import
rollout``), so every function is wrapped at each name its callers look up,
and methods are wrapped on their class.
"""

from __future__ import annotations

import inspect
import math
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import fdp
import fdp.adaptation
import fdp.analysis
import fdp.bench
import fdp.cli
import fdp.composition
import fdp.diffusion
import fdp.numerics
import fdp.policy
from fdp.bench import EpisodeDataset, PointMassEnv
from fdp.composition import Router
from fdp.numerics import Adam, FeedForwardNet, Rng
from fdp.policy import DenoiserComponent, FactorizedPolicy

FIT_SIGNATURE = inspect.signature(FactorizedPolicy.fit)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []
        self._wrapped = {}

    def wrap(self, targets, make):
        """Replace each (owner, name) with make(original).

        A function reachable under several names gets one wrapper, so a call
        is recorded once whichever name the caller used. Class attributes are
        read raw from ``__dict__`` so classmethods keep their binding.
        """
        for owner, name in targets:
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if id(raw) not in self._wrapped:
                if isinstance(raw, classmethod):
                    self._wrapped[id(raw)] = classmethod(make(raw.__func__))
                else:
                    self._wrapped[id(raw)] = make(raw)
            self._saved.append((owner, name, raw))
            setattr(owner, name, self._wrapped[id(raw)])

    def restore(self):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
        self._wrapped.clear()


@contextmanager
def installed(install):
    """Apply install(patches) for the duration of a with block."""
    patches = Patches()
    try:
        install(patches)
        yield
    finally:
        patches.restore()


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------------------
# End-to-end probe
# ---------------------------------------------------------------------------


class Probe:
    """Latency samples and exact counts of the user-visible operations.

    A latency sample is a (start, end) span on the gauge's work clock, so
    that it can be rescaled by the machine speed measured around it.
    """

    def __init__(self, gauge):
        self.gauge = gauge  # speed.Gauge, or speed.WallClock for raw times
        self.clock = gauge.clock
        self._reset()

    def take(self) -> "Probe":
        """The samples gathered so far, as a new object; this one restarts."""
        taken = Probe.__new__(Probe)
        taken.__dict__.update(self.__dict__)
        self._reset()
        return taken

    def _reset(self):
        self.acts = []
        self.episode_spans = []
        self.evaluate_spans = []
        self.episodes = 0
        self.env_steps = 0
        self.inferences = 0
        self.denoiser_evals = 0
        self.fits = []  # one dict per completed fit
        self.epochs = []
        self.problems = []
        self._batch_starts = []

    def counters(self) -> dict:
        return {
            "episodes": self.episodes,
            "inferences": self.inferences,
            "denoiser_evals": self.denoiser_evals,
            "env_steps": self.env_steps,
            "train_windows": sum(f["windows"] for f in self.fits),
            "epochs": len(self.epochs),
        }

    def install(self, p: Patches):
        p.wrap([(FactorizedPolicy, "sample_window")], self._sample_window)
        p.wrap([(fdp.bench, "rollout")], self._rollout)
        p.wrap([(fdp.bench, "evaluate"), (fdp.cli, "evaluate")], self._evaluate)
        p.wrap([(FactorizedPolicy, "fit")], self._fit)
        p.wrap([(fdp.composition, "joint_loss")], self._joint_loss)

    def _sample_window(self, fn):
        def sample_window(*args, **kwargs):
            self.gauge.tick()
            t0 = self.clock()
            out = fn(*args, **kwargs)
            self.acts.append((t0, self.clock()))
            self.inferences += 1
            self.denoiser_evals += out[1].denoiser_evals
            return out

        return sample_window

    def _rollout(self, fn):
        def rollout(*args, **kwargs):
            self.gauge.tick()
            t0 = self.clock()
            result = fn(*args, **kwargs)
            self.episode_spans.append((t0, self.clock()))
            self.episodes += 1
            self.env_steps += len(result.trajectory)
            actions = np.asarray([a for _, a in result.trajectory])
            if not np.all(np.isfinite(actions)):
                self.problems.append("episode executed a non-finite action")
            return result

        return rollout

    def _evaluate(self, fn):
        def evaluate(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.evaluate_spans.append((t0, self.clock()))

        return evaluate

    def _joint_loss(self, fn):
        def joint_loss(*args, **kwargs):
            self.gauge.tick()
            self._batch_starts.append(self.clock())
            return fn(*args, **kwargs)

        return joint_loss

    def _fit(self, fn):
        def fit(*args, **kwargs):
            bound = FIT_SIGNATURE.bind(*args, **kwargs)
            bound.apply_defaults()
            self._batch_starts = []
            t0 = self.clock()
            policy = fn(*args, **kwargs)
            t1 = self.clock()
            log = policy.training_log_
            epochs = len(log.entries)
            per_epoch = math.ceil(log.n_train_windows / bound.arguments["batch_size"])
            starts = self._batch_starts
            if len(starts) != per_epoch * epochs:
                self.problems.append(
                    f"fit ran {len(starts)} batches, expected {per_epoch} x {epochs}"
                )
            else:
                edges = starts[::per_epoch] + [t1]
                self.epochs.extend(zip(edges, edges[1:]))
            self.fits.append({"span": (t0, t1), "windows": log.n_train_windows * epochs})
            return policy

        return fit


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Spans at layer boundaries, kept in flat arrays for the whole phase.

    A span is (op id, parent span index, start, end); its index is its
    position in the arrays, assigned when it opens, so children can name it.
    Self time is a span's duration minus the durations of its direct
    children.
    """

    def __init__(self):
        self.ops: list[str] = []
        self._op_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.frozen_nets: set = set()

    def op_id(self, op: str) -> int:
        if op not in self._op_ids:
            self._op_ids[op] = len(self.ops)
            self.ops.append(op)
        return self._op_ids[op]

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, op: str, count=None, before=None):
        """Wrapper factory: one span per call, then count(args, kwargs, out)."""
        oid = self.op_id(op)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        def make(fn):
            # span() inlined: this runs about a million times per round
            def traced(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                i = len(start)
                name.append(oid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(perf_counter())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end[i] = perf_counter()
                    stack.pop()
                if count is not None:
                    count(args, kwargs, out)
                return out

            return traced

        return make

    @contextmanager
    def span(self, op: str):
        """A span around a block of the harness's own code."""
        i = len(self.start)
        self.name.append(self.op_id(op))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()

    def take(self) -> dict:
        """Close the current phase: its spans, per-op totals and counters."""
        if self.stack != [-1]:
            raise RuntimeError("phase ended with open spans")
        names = np.frombuffer(self.name, dtype=np.intc).copy()
        parents = np.frombuffer(self.parent, dtype=np.intc).copy()
        starts = np.frombuffer(self.start, dtype=np.float64).copy()
        ends = np.frombuffer(self.end, dtype=np.float64).copy()
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        dur = ends - starts
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        n_ops = len(self.ops)
        per_op = {
            "calls": np.bincount(names, minlength=n_ops),
            "total_s": np.bincount(names, weights=dur, minlength=n_ops),
            "self_s": np.bincount(names, weights=dur - covered, minlength=n_ops),
        }
        phase = {k: dict(zip(self.ops, v.tolist())) for k, v in per_op.items()}
        phase["counts"] = self.counts
        phase["spans"] = {"name": names, "parent": parents, "start": starts, "end": ends}
        self.counts = {}
        return phase

    # -- the layer boundaries ------------------------------------------------

    def install(self, p: Patches):
        w = self.wrap
        # numerics
        p.wrap([(FeedForwardNet, "forward")], w("numerics.forward", self._forward_rows))
        p.wrap([(FeedForwardNet, "backward")], w("numerics.backward", self._backward_rows))
        p.wrap([(Adam, "step")], w("numerics.adam", lambda a, k, o: self.add("numerics.adam.steps", 1)))
        p.wrap([(fdp.numerics, "check_finite")], w("numerics.check_finite"))
        draws = lambda key: lambda a, k, o: self._draws(key, len(o))  # noqa: E731
        p.wrap([(Rng, "gaussian")], w("numerics.rng", draws("numerics.rng.gaussian_draws")))
        p.wrap([(Rng, "uniform")], w("numerics.rng", draws(None)))
        p.wrap([(Rng, "integers"), (Rng, "permutation")], w("numerics.rng"))
        # diffusion
        p.wrap(
            [(fdp.composition, "reverse_mean"), (fdp.diffusion, "reverse_mean")],
            w("diffusion.reverse_mean"),
        )
        # composition
        p.wrap(
            [(fdp.policy, "sample_values"), (fdp.composition, "sample_values")],
            w("composition.sample_values", self._sample_values),
        )
        p.wrap([(fdp.composition, "composed_score")], w("composition.composed_score"))
        p.wrap([(Router, "route_with_cache")], w("composition.router"))
        p.wrap(
            [(fdp.composition, "joint_loss")],
            w("composition.joint_loss", lambda a, k, o: self.add(
                "composition.joint_loss.rows", _rows(_arg(a, k, 3, "batch")[0]))),
        )
        # policy
        p.wrap([(FactorizedPolicy, "sample_window")], w("policy.sample_window"))
        p.wrap([(DenoiserComponent, "predict")], w("policy.denoiser_predict"))
        p.wrap([(fdp.policy, "sinusoidal_step_embedding")], w("policy.step_embedding"))
        p.wrap([(FactorizedPolicy, "fit")], w("policy.fit", before=self._fit_groups))
        p.wrap(
            [(FactorizedPolicy, "save")],
            w("policy.checkpoint_io", lambda a, k, o: self._file_bytes(
                "policy.checkpoint_io.bytes", _arg(a, k, 1, "path"))),
        )
        p.wrap(
            [(FactorizedPolicy, "load")],
            w("policy.checkpoint_io", lambda a, k, o: self._file_bytes(
                "policy.checkpoint_io.bytes", _arg(a, k, 1, "path"))),
        )
        # bench
        p.wrap(
            [(fdp.policy, "rollout"), (fdp.bench, "rollout"), (fdp.analysis, "rollout")],
            w("bench.rollout"),
        )
        p.wrap([(PointMassEnv, "step")], w("bench.env_step"))
        p.wrap(
            [(fdp.bench, "generate_demos"), (fdp.cli, "generate_demos")],
            w("bench.generate_demos"),
        )
        p.wrap([(EpisodeDataset, "save"), (EpisodeDataset, "load")], w("bench.dataset_io"))
        # adaptation
        p.wrap([(fdp.adaptation, "adapt"), (fdp.cli, "adapt")], w("adaptation.adapt"))
        p.wrap([(FeedForwardNet, "checksum")], w("adaptation.checksum"))
        # analysis
        p.wrap(
            [(fdp.analysis, "score_similarity"), (fdp.cli, "score_similarity")],
            w("analysis.score_similarity", lambda a, k, o: self.add(
                "analysis.score_similarity.probes", len(_arg(a, k, 1, "probes")))),
        )
        p.wrap(
            [(fdp.analysis, "solo_rollout"), (fdp.cli, "solo_rollout")],
            w("analysis.solo_rollout"),
        )

    def _forward_rows(self, args, kwargs, out):
        self.add("numerics.forward.rows", _rows(_arg(args, kwargs, 1, "x")))

    def _backward_rows(self, args, kwargs, out):
        rows = _rows(_arg(args, kwargs, 2, "grad_out"))
        self.add("numerics.backward.rows", rows)
        if id(args[0]) in self.frozen_nets:
            self.add("adaptation.frozen_backward_rows", rows)

    def _draws(self, key, n):
        self.add("numerics.rng.draws", n)
        if key:
            self.add(key, n)

    def _file_bytes(self, key, path):
        self.add(key, os.path.getsize(path))

    def _sample_values(self, args, kwargs, out):
        info = out[1]
        steps = _arg(args, kwargs, 3, "schedule").K
        n = len(_arg(args, kwargs, 0, "components"))
        self.add("composition.denoiser_evals", info.denoiser_evals)
        zero = int(np.sum(info.weights[info.active] == 0.0)) * steps
        if zero:
            # weights overridden with zeros (solo rollouts): every component
            # still runs, but only the nonzero ones contribute
            self.add("composition.zero_weight_evals", zero)
        else:
            self.add("composition.routed_evals", info.denoiser_evals)
            self.add("composition.routed_full_evals", n * steps)

    def _fit_groups(self, args, kwargs):
        bound = FIT_SIGNATURE.bind(*args, **kwargs)
        policy, trainable = bound.arguments["self"], bound.arguments.get("trainable")
        nets = {"encoder": policy.obs_encoder, "router": policy.router.net}
        for i, comp in enumerate(policy.components):
            nets[f"component:{i}"] = comp.net
        trainable = set(nets) if trainable is None else set(trainable)
        self.frozen_nets = {id(net) for g, net in nets.items() if g not in trainable}
