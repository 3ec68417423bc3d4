"""Benchmark harness for fdp: closed-loop workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload eval-small --seed 0 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. A
fuller record (machine, code version, output digest, exact work counters,
problems) is written under ``.perfbench/results/``; the spans of a traced run
go to ``.perfbench/trace-<workload>.npz``. See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = Path(".perfbench")  # relative to the checkout root, the working directory

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "episodes_per_s": ("1/s", "higher"),
    "episode_ms.p50": ("ms", "lower"),
    "episode_ms.p90": ("ms", "lower"),
    "act_ms.p50": ("ms", "lower"),
    "act_ms.p95": ("ms", "lower"),
    "train_windows_per_s": ("1/s", "higher"),
    "epoch_ms.p50": ("ms", "lower"),
    "epoch_ms.p90": ("ms", "lower"),
    "success_rate": ("ratio", "higher"),
    "final_val_mse": ("mse", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_CALLS = ("count", "lower")
_MS = ("ms", "lower")
PER_LAYER = {
    "numerics.forward.calls": _CALLS,
    "numerics.forward.rows": _CALLS,
    "numerics.forward.self_ms": _MS,
    "numerics.backward.calls": _CALLS,
    "numerics.backward.rows": _CALLS,
    "numerics.backward.self_ms": _MS,
    "numerics.adam.steps": _CALLS,
    "numerics.adam.self_ms": _MS,
    "numerics.check_finite.calls": _CALLS,
    "numerics.check_finite.self_ms": _MS,
    "numerics.rng.draws": _CALLS,
    "numerics.rng.gaussian_draws": _CALLS,
    "numerics.rng.self_ms": _MS,
    "diffusion.reverse_mean.calls": _CALLS,
    "diffusion.reverse_mean.self_ms": _MS,
    "composition.sample_values.calls": _CALLS,
    "composition.sample_values.self_ms": _MS,
    "composition.composed_score.calls": _CALLS,
    "composition.composed_score.self_ms": _MS,
    "composition.router.calls": _CALLS,
    "composition.router.self_ms": _MS,
    "composition.joint_loss.calls": _CALLS,
    "composition.joint_loss.rows": _CALLS,
    "composition.joint_loss.self_ms": _MS,
    "composition.denoiser_evals": _CALLS,
    "composition.zero_weight_evals": _CALLS,
    "composition.topk_eval_share": ("ratio", "lower"),
    "policy.sample_window.calls": _CALLS,
    "policy.sample_window.self_ms": _MS,
    "policy.denoiser_predict.calls": _CALLS,
    "policy.denoiser_predict.self_ms": _MS,
    "policy.step_embedding.calls": _CALLS,
    "policy.step_embedding.self_ms": _MS,
    "policy.fit.calls": _CALLS,
    "policy.fit.self_ms": _MS,
    "policy.checkpoint_io.ms": _MS,
    "policy.checkpoint_io.bytes": ("B", "lower"),
    "bench.rollout.calls": _CALLS,
    "bench.rollout.self_ms": _MS,
    "bench.env_step.calls": _CALLS,
    "bench.env_step.self_ms": _MS,
    "bench.generate_demos.calls": _CALLS,
    "bench.generate_demos.self_ms": _MS,
    "bench.dataset_io.ms": _MS,
    "adaptation.adapt.calls": _CALLS,
    "adaptation.adapt.self_ms": _MS,
    "adaptation.checksum.calls": _CALLS,
    "adaptation.checksum.self_ms": _MS,
    "adaptation.frozen_backward_share": ("ratio", "lower"),
    "analysis.score_similarity.probes": _CALLS,
    "analysis.score_similarity.self_ms": _MS,
    "analysis.solo_rollout.calls": _CALLS,
    "analysis.solo_rollout.self_ms": _MS,
    "cli.command_ms.gen-demos": _MS,
    "cli.command_ms.train": _MS,
    "cli.command_ms.adapt": _MS,
    "cli.command_ms.eval": _MS,
    "cli.command_ms.analyze": _MS,
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": _CALLS,
}


# ---------------------------------------------------------------------------
# Machine and code version
# ---------------------------------------------------------------------------


def _read_text(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _openblas():
    """(runtime config string, thread count) of numpy's OpenBLAS, if found."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return config().decode(), threads()
    return None, None


def machine_record() -> dict:
    import numpy as np

    cpuinfo = _read_text("/proc/cpuinfo") or ""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            tag = {"Data": "d", "Instruction": "i"}.get(kind.strip(), "")
            caches[f"L{level.strip()}{tag}"] = size.strip()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    runtime, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "runtime": runtime},
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _tree_sha256(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def code_version() -> dict:
    """SHA-256 of the package and of the benchmark sources, plus the git
    commit when there is one."""
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = out.stdout.strip() or None
    return {
        "source_sha256": _tree_sha256(ROOT / "src"),
        "bench_sha256": _tree_sha256(HERE),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        data = outputs[name]
        h.update(f"{name}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def compare_with_store(key: str, entry: dict) -> list[str]:
    """Runs of one code version on one seed must agree on the digest and the
    exact counters; the first run of a key records them."""
    path = STATE / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    known = store.setdefault(key, {})
    problems = [
        f"{field} differs from an earlier run of this code and seed"
        for field, value in entry.items()
        if field in known and known[field] != value
    ]
    for field, value in entry.items():
        known.setdefault(field, value)
    path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return problems


def baseline_digest(key: str):
    data = json.loads((HERE / "baseline.json").read_text())
    return data["digests"].get(key)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _pct(samples, q):
    import numpy as np

    return float(np.percentile(samples, q)) * 1e3


def _seconds(gauge, spans) -> list[float]:
    """Durations of (start, end) work-clock spans, at reference speed."""
    return [(b - a) * gauge.scale(a, b) for a, b in spans]


def _per_round(gauge, probes, field, q):
    """A percentile taken within each round, at reference speed, averaged
    over the rounds."""
    values = [_pct(_seconds(gauge, getattr(p, field)), q) for p in probes if getattr(p, field)]
    return statistics.fmean(values) if values else None


def _ratio(num, den):
    return num / den if den else None


def end_to_end(gauge, setup_spans, round_spans, setup_probes, round_probes, quality) -> dict:
    """Every timing at reference speed: each span is rescaled by the machine
    speed the gauge measured around it (see speed.py)."""
    fit_probes = [p for p in round_probes if p.fits] or [p for p in setup_probes if p.fits]
    fits = [f for p in fit_probes for f in p.fits]
    return {
        "setup_s": statistics.median(_seconds(gauge, setup_spans)),
        "wall_s": statistics.fmean(_seconds(gauge, round_spans)),
        "episodes_per_s": _ratio(
            sum(p.episodes for p in round_probes),
            sum(_seconds(gauge, [s for p in round_probes for s in p.evaluate_spans])),
        ),
        "episode_ms.p50": _per_round(gauge, round_probes, "episode_spans", 50),
        "episode_ms.p90": _per_round(gauge, round_probes, "episode_spans", 90),
        "act_ms.p50": _per_round(gauge, round_probes, "acts", 50),
        "act_ms.p95": _per_round(gauge, round_probes, "acts", 95),
        "train_windows_per_s": _ratio(
            sum(f["windows"] for f in fits), sum(_seconds(gauge, [f["span"] for f in fits]))
        ),
        "epoch_ms.p50": _per_round(gauge, fit_probes, "epochs", 50),
        "epoch_ms.p90": _per_round(gauge, fit_probes, "epochs", 90),
        "success_rate": quality.get("success_rate"),
        "final_val_mse": quality.get("final_val_mse"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setup_phase, round_phases, untraced_walls, traced_walls) -> dict:
    """Set-up once plus one round: counts from one round (all rounds agree),
    times averaged over the traced rounds."""

    def combined(kind):
        ops = set(setup_phase[kind]).union(*(set(r[kind]) for r in round_phases))
        mean = {op: statistics.fmean(r[kind].get(op, 0) for r in round_phases) for op in ops}
        return {op: setup_phase[kind].get(op, 0) + mean[op] for op in ops}

    total, self_s = combined("total_s"), combined("self_s")
    calls = dict(setup_phase["calls"])
    for op, n in round_phases[0]["calls"].items():
        calls[op] = calls.get(op, 0) + n
    counts = dict(setup_phase["counts"])
    for key, n in round_phases[0]["counts"].items():
        counts[key] = counts.get(key, 0) + n
    special = {
        "composition.topk_eval_share": _ratio(
            counts.get("composition.routed_evals", 0),
            counts.get("composition.routed_full_evals", 0),
        ) or 0.0,
        "adaptation.frozen_backward_share": _ratio(
            counts.get("adaptation.frozen_backward_rows", 0),
            counts.get("numerics.backward.rows", 0),
        ) or 0.0,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "trace.spans": sum(calls.values()),
    }
    out = {}
    for name in PER_LAYER:
        op, kind = name.rsplit(".", 1)
        if name in special:
            out[name] = special[name]
        elif op == "cli.command_ms":
            out[name] = total.get(f"cli.command.{kind}", 0.0) * 1e3
        elif kind == "calls":
            out[name] = calls.get(op, 0)
        elif kind == "self_ms":
            out[name] = self_s.get(op, 0.0) * 1e3
        elif kind == "ms":
            out[name] = total.get(op, 0.0) * 1e3
        else:
            out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(args, run_id: str, code: dict) -> dict:
    import numpy as np

    import workloads as wl
    from instrument import Probe, Tracer, installed
    from speed import Gauge, WallClock

    size = wl.SIZES[args.size]
    ctx = wl.Context()
    # no pid in the path: adapt-cli writes it into config.json files, whose
    # sizes are counted, so one checkout runs one workload at a time
    workdir = STATE / "work" / args.workload
    workload = wl.WORKLOADS[args.workload](size, args.seed, workdir, ctx)
    ops = wl.Ops()
    # traced runs report raw times; plain runs run the speed gauge
    gauge = WallClock() if args.trace else Gauge(wl.WORKLOADS[args.workload].kernel)
    probe = Probe(gauge)
    tracer = Tracer() if args.trace else None
    record = {"problems": ops.problems}

    def mismatch(label, weight, first, other):
        if other != first:
            ops.fail(label, weight, "outputs or counters differ from the first repeat")

    def traced(flag):
        ctx.tracer = tracer if flag else None
        return installed(tracer.install if flag else lambda p: None)

    setup_spans, setup_probes, setup_digests = [], [], []
    repeats = 1 if args.trace else size["setup_repeats"]

    def setup():
        t0 = probe.clock()
        with traced(args.trace):
            result = workload.setup(ops)
        setup_spans.append((t0, probe.clock()))
        setup_probes.append(probe.take())
        if setup_probes[-1].problems:
            ops.fail("set-up", result.weight, "; ".join(setup_probes[-1].problems))
        setup_digests.append(digest(result.outputs))
        mismatch("set-up", result.weight, setup_digests[0], setup_digests[-1])
        return result

    try:
        with installed(probe.install):
            setup_quality = setup().quality
            setup_phase = tracer.take() if args.trace else None
            if ops.failed:
                raise wl.OpFailed("set-up")

            # rounds until the time is up; when tracing, plain and traced
            # rounds alternate, so their difference is the tracing overhead.
            # The set-up repeats are spread over the run, so that setup_s and
            # the training metrics taken from them see the same mix of the
            # machine's fast and slow phases as the rounds do.
            walls = {False: [], True: []}
            first, round_phases, round_probes = None, [], []
            t_start = time.perf_counter()
            while (
                not walls[bool(args.trace)]
                or time.perf_counter() - t_start < args.seconds
                or len(setup_spans) < repeats
            ):
                trace_this = bool(args.trace) and len(walls[False]) > len(walls[True])
                t0 = probe.clock()
                with traced(trace_this):
                    result = workload.round(ops)
                walls[trace_this].append((t0, probe.clock()))
                if trace_this:
                    round_phases.append(tracer.take())
                    mismatch(
                        "traced round", result.weight,
                        (round_phases[0]["calls"], round_phases[0]["counts"]),
                        (round_phases[-1]["calls"], round_phases[-1]["counts"]),
                    )
                round_probes.append(probe.take())
                this = (digest(result.outputs), round_probes[-1].counters(), result.quality)
                first = first or this
                mismatch("round", result.weight, first, this)
                if round_probes[-1].problems:
                    ops.fail("round", result.weight, "; ".join(round_probes[-1].problems))
                # set-up repeat k (the first is 0) is due once k/repeats of
                # the time has passed; after the last round, every one is
                elapsed = time.perf_counter() - t_start
                due = repeats
                if elapsed < args.seconds:
                    due = min(repeats, 1 + int(elapsed * repeats / args.seconds))
                while len(setup_spans) < due:
                    setup()
    except wl.OpFailed:
        record["aborted"] = True
        return record
    finally:
        ctx.tracer = None
        shutil.rmtree(workdir, ignore_errors=True)

    round_digest, counters, quality = first
    run_digest = digest({"setup": setup_digests[0].encode(), "round": round_digest.encode()})
    quality = {**setup_quality, **quality}
    key = f"{args.workload}|{args.size}|{args.seed}"
    entry = {"digest": run_digest, "counters": counters}
    if args.trace:
        entry.update(traced_calls=round_phases[0]["calls"], traced_counts=round_phases[0]["counts"])
    store_key = f"{code['source_sha256']}|{code['bench_sha256']}|{key}"
    for problem in compare_with_store(store_key, entry):
        ops.fail("cross-run check", 1, problem)
    baseline = baseline_digest(key)
    record.update(
        digest=run_digest,
        baseline_digest=baseline,
        digest_matches_baseline=None if baseline is None else baseline == run_digest,
        counters=counters,
        rounds={"plain": len(walls[False]), "traced": len(walls[True])},
        quality=quality,
        attempted=ops.attempted,
        failed=min(ops.failed, ops.attempted),
    )
    if args.trace:
        durations = {k: [b - a for a, b in spans] for k, spans in walls.items()}
        record["metrics"] = per_layer(setup_phase, round_phases, durations[False], durations[True])
        record["traced_counts"] = entry["traced_counts"]
        spans = {
            f"{name}_{k}": v
            for name, phase in (("setup", setup_phase), ("round", round_phases[0]))
            for k, v in phase["spans"].items()
        }
        np.savez(STATE / f"trace-{args.workload}.npz", ops=np.array(tracer.ops),
                 run_id=np.array(run_id), **spans)
    else:
        record["metrics"] = end_to_end(
            gauge, setup_spans, walls[False], setup_probes, round_probes, quality
        )
        record["samples"] = {
            "setup_s": [b - a for a, b in setup_spans],
            "setup_scale": [gauge.scale(a, b) for a, b in setup_spans],
            "wall_s": [b - a for a, b in walls[False]],
            "round_scale": [gauge.scale(a, b) for a, b in walls[False]],
            "kernel_runs": len(gauge.samples),
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["eval-small", "adapt-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs every workload in seconds, for the schema test")
    args = parser.parse_args(argv)

    # one BLAS thread; numpy is first imported after this point
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "fdp" / "__init__.py").is_file():
        print(f"error: no fdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (STATE / "results").mkdir(parents=True, exist_ok=True)

    code = code_version()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{int(time.time() * 1000)}"
    record = {
        "run_id": run_id,
        "args": vars(args),
        "machine": machine_record(),
        "code": code,
        **run(args, run_id, code),
    }
    record_path = STATE / "results" / f"{run_id}.json"
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if record.get("aborted"):
        record_path.write_text(json.dumps(record, indent=1))
        print("error: set-up or a round raised; no result", file=sys.stderr)
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {n: {"value": record["metrics"][n], "unit": table[n][0]} for n in table}
    record["ops_failed_ratio"] = record["failed"] / record["attempted"]
    record_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("digest", "digest_matches_baseline", "counters")}))
    print(json.dumps({
        "correct": record["failed"] == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
