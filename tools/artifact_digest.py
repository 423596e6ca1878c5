"""Digest every artifact the experiment runners write, for identity checks.

    PYTHONPATH=src python3 tools/artifact_digest.py > digest.json

Runs each of the five runners on a small config (the profile runner in
all three regimes, and above 2000 vertices on both sides of its start
rule: the lumped witnesses alone, and joined by the collision witnesses
on an early grid),
plus the benchmark's ``escape-n20000`` workload at full size, as
``perfbench/workloads.py`` defines it, in a temporary directory.  Prints one JSON object that maps
``<run>/<artifact>`` to the sha256 of each artifact except
``manifest.json`` (it holds timings) and ``<run>/verdicts`` to the
``[name, passed, value]`` of each verdict.  A ``.npz`` graph is digested
over its member arrays, because the archive stamps the write time.
Whatever ``dbmwalk`` is on ``PYTHONPATH`` is the one measured, so two
checkouts compare by running this script with each ``src`` in turn and
diffing the outputs.  The whole digest takes about 10 s on one core.

The exit status is 1 if any run has a failed verdict, after the whole
digest is printed, and 0 otherwise, so a CI step running this script
fails on a failed verdict as well as on a crash.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from dbmwalk import experiments
from dbmwalk.experiments import (
    ExperimentConfig,
    run_annealed_experiment,
    run_generate,
    run_profile_experiment,
    run_proxy_experiment,
    run_qsd_experiment,
)
from dbmwalk.graph import DbmParams

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def _config(out: Path, n: int, alpha: float, regime: str = "supercritical", **kw) -> ExperimentConfig:
    seeds = kw.pop("seeds", (1,))
    params = DbmParams(n=n, m=kw.pop("m", 2), lam=kw.pop("lam", 3.0), alpha=alpha, seed=seeds[0])
    return ExperimentConfig(
        params=params, regime=regime, beta_grid=kw.pop("beta_grid", (0.5, 1.0)),
        seeds=seeds, out_dir=str(out), **kw,
    )


def _workload(root: Path, name: str):
    """Thunk running benchmark workload ``name`` at full size, default seeds."""
    w = WORKLOADS[name]
    params, config, kwargs = w.sized("full")
    cfg = ExperimentConfig(
        params=DbmParams(seed=w.seeds[0], **params), seeds=w.seeds,
        out_dir=str(root / name), **config,
    )
    runner = getattr(experiments, w.runner)
    return lambda: runner(cfg, **kwargs)


def _runs(root: Path):
    """(run name, thunk) for every run the digest covers."""
    critical = ExperimentConfig.critical(
        400, 2, 3.0, 2.0, seed=1, beta_grid=(0.5, 2.0, 3.0), seeds=(1, 2),
        out_dir=str(root / "profile-critical"),
    )
    return [
        ("profile-super", lambda: run_profile_experiment(_config(
            root / "profile-super", 500, 0.02, seeds=(1, 2), threads=2,
            beta_grid=(0.5, 1.0, 2.0), timescale="inverse_alpha"))),
        ("profile-sub", lambda: run_profile_experiment(_config(
            root / "profile-sub", 800, 0.3, "subcritical", seeds=(1, 2),
            beta_grid=(0.5, 2.5), sample_starts=None))),
        ("profile-critical", lambda: run_profile_experiment(critical)),
        ("profile-witness", lambda: run_profile_experiment(_config(
            root / "profile-witness", 1100, 0.005, seeds=(1, 2), lam=2.0,
            beta_grid=(0.5, 1.0, 2.0), timescale="inverse_alpha"))),
        ("profile-early", lambda: run_profile_experiment(_config(
            root / "profile-early", 1100, 0.002, seeds=(1, 2), lam=2.0,
            beta_grid=(0.5, 1.0, 2.0, 5.0)))),
        ("qsd-small", lambda: run_qsd_experiment(
            _config(root / "qsd-small", 500, 0.02, seeds=(3, 4)))),
        ("annealed", lambda: run_annealed_experiment(
            _config(root / "annealed", 400, 0.05, seeds=(2,)), t=4, reps=4000, t_max=20)),
        ("proxy", lambda: run_proxy_experiment(_config(root / "proxy", 500, 0.02, seeds=(1, 2)))),
        ("generate", lambda: run_generate(_config(root / "generate", 300, 0.02, seeds=(5,)))),
        ("escape-n20000", _workload(root, "escape-n20000")),
    ]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path) as data:
            for key in sorted(data.files):
                arr = data[key]
                h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    digest: dict[str, object] = {}
    all_passed = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in _runs(Path(tmp)):
            manifest = run()
            for f in manifest.files:
                digest[f"{name}/{f}"] = _sha256(Path(tmp) / name / f)
            digest[f"{name}/verdicts"] = [[v.name, v.passed, v.value] for v in manifest.verdicts]
            all_passed = all_passed and manifest.all_passed
    json.dump(digest, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
