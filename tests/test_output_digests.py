"""Output bytes pinned across commits.

Criterion 10 compares two runs of one commit; this test compares one run
with digests committed next to it, so a change that moves a floating-point
bit of any artifact fails here and must re-record ``output_digests.json`` in
the same commit, saying why.

It runs a tiny CLI chain in the working directory of the test: ``gen-demos``
(every suite), ``train``, ``eval --top-k 2``, ``adapt --strategy
new_module`` with ``--replay-demos``, and ``analyze`` (similarity, solo
rollouts, convergence). Every file the chain writes is hashed with SHA-256,
and so are the ``sample_window`` outputs of a fixed, untrained fixture
policy under full composition, top-k and one-hot weights.

gemm rounding can depend on the BLAS build and the CPU it picks kernels for,
so the file also records numpy's version and BLAS configuration (the
build's, and the one OpenBLAS reports at run time, which names the kernel it
chose), and a mismatch prints both sides. On a machine whose configuration
differs from the recorded one the digests may differ with no change to the
code: there, check out the commit that recorded the file, run

    PYTHONPATH=src python tests/test_output_digests.py --record

to record that machine's digests, then check out the commit under test and
run this test against that file. A pass shows the commit keeps every output
bit on that machine. Commit a re-recorded file only with a change that moves
bits on purpose, recorded on the machine the file names. The test never
skips: a silent skip would hide exactly the changes it exists to catch.
"""

import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from fdp.cli import cli
from fdp.numerics import Rng
from fdp.policy import ActionNormalizer, FactorizedPolicy, PolicyConfig

DIGEST_FILE = Path(__file__).with_name("output_digests.json")

NET = [
    "--components", "3", "--diffusion-steps", "10", "--obs-embed-dim", "12",
    "--denoiser-hidden", "16,16", "--router-hidden", "8",
]

CHAIN = [
    ["gen-demos", "--suite", "reach4", "--per-task", "3", "--seed", "5", "--out", "reach.jsonl"],
    ["gen-demos", "--suite", "pick-side", "--per-task", "2", "--seed", "6", "--out", "pick.jsonl"],
    *(["gen-demos", "--suite", suite, "--per-task", "2", "--seed", "7", "--out", f"{suite}.jsonl"]
      for suite in ("drawer-line", "bimodal1d", "continual12")),
    ["train", "--demos", "reach.jsonl", *NET, "--epochs", "3", "--batch-size", "32",
     "--seed", "1", "--out-dir", "train"],
    ["eval", "--checkpoint", "train/checkpoint.json", "--suite", "reach4", "--episodes", "2",
     "--seeds", "0", "--top-k", "2", "--out-dir", "eval"],
    ["adapt", "--checkpoint", "train/checkpoint.json", "--demos", "pick.jsonl",
     "--replay-demos", "reach.jsonl", "--replay-per-task", "1", "--strategy", "new_module",
     "--epochs", "2", "--batch-size", "32", "--seed", "2", "--out-dir", "adapt"],
    ["analyze", "--checkpoint", "adapt/checkpoint.json", "--demos", "pick.jsonl",
     "--probes", "8", "--suite", "pick-side", "--logs", "train/training_log.json",
     "--seed", "3", "--out-dir", "analysis"],
]


def blas_runtime():
    """The configuration numpy's bundled OpenBLAS reports, if it has one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if config is not None:
                config.restype = ctypes.c_char_p
                return config().decode()
    return None


def environment() -> dict:
    """What the digests depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": blas_runtime(),
        "machine": platform.machine(),
    }


def fixture_windows() -> dict:
    """sample_window bytes of a fixed untrained policy, one per case."""
    cfg = PolicyConfig(
        n_components=3, diffusion_steps=12, t_pred=4, t_exec=2, obs_embed_dim=6,
        denoiser_hidden=(10, 10), router_hidden=(5,),
    )
    policy = FactorizedPolicy(2, 2, cfg, ActionNormalizer([-1.0, -2.0], [1.0, 2.0]), seed=9)
    obs = Rng(4).gaussian(policy.stacked_obs_dim)
    cases = {
        "full": {},
        "top_k": {"top_k": 2},
        "one_hot": {"weights_override": np.array([0.0, 1.0, 0.0])},
    }
    return {
        f"sample_window/{name}": _sha(policy.sample_window(obs, Rng(11), **kw)[0].tobytes())
        for name, kw in cases.items()
    }


def run_chain(workdir: Path) -> dict:
    """Digest of every artifact of the CLI chain run in workdir, by path."""
    runner = CliRunner()
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths keep config.json free of the directory
    try:
        for args in CHAIN:
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, f"{args[0]} failed: {result.output}"
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(workdir).as_posix(): _sha(path.read_bytes())
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def current(workdir: Path) -> dict:
    return {**run_chain(workdir), **fixture_windows()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_output_bytes_match_the_recorded_digests(tmp_path):
    recorded = json.loads(DIGEST_FILE.read_text())
    got = current(tmp_path)
    if got != recorded["digests"]:
        names = sorted(set(got) | set(recorded["digests"]))
        moved = [n for n in names if got.get(n) != recorded["digests"].get(n)]
        raise AssertionError(
            f"{len(moved)} of {len(names)} output digests differ from {DIGEST_FILE.name}: "
            f"{moved}\nrecorded environment: {recorded['environment']}\n"
            f"this environment:     {environment()}\n"
            "if the environments differ, see this module's docstring"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_digests.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = current(Path(tmp))
    DIGEST_FILE.write_text(
        json.dumps({"environment": environment(), "digests": digests}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"recorded {len(digests)} digests to {DIGEST_FILE}")
