"""One fresh interpreter: set up a workload, optionally run it once, report.

    python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the workload, size, seeds, mode ("setup" or "run"),
whether to trace, and the output directory.  The last line of standard
output is a JSON report.  ``run.py`` starts this script once per runner
call, so every call pays its own set-up and has its own peak memory.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    t_import = time.perf_counter()
    import dbmwalk.cli  # noqa: F401  (the import a CLI user pays for)

    import_s = time.perf_counter() - t_import
    import dbmwalk
    import numpy
    import scipy
    from dbmwalk import experiments
    from dbmwalk.graph import DbmParams

    if src not in Path(dbmwalk.__file__).resolve().parents:
        raise SystemExit(f"dbmwalk was imported from {dbmwalk.__file__}, not from {src}")

    workload = WORKLOADS[spec["workload"]]
    seeds = tuple(spec["seeds"])
    params, config, kwargs = workload.sized(spec["size"])
    cfg = experiments.ExperimentConfig(
        params=DbmParams(seed=seeds[0], **params),
        seeds=seeds,
        out_dir=spec["out_dir"],
        **config,
    )
    ready = time.monotonic()
    report = {
        "ready_monotonic": ready,
        "import_s": import_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if spec["mode"] == "setup":
        return report

    runner = getattr(experiments, workload.runner)
    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        manifest = runner(cfg, **kwargs)
    except Exception:  # a failing runner is a result: its verdicts count as failed
        error = traceback.format_exc()
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    if error is None:
        verdicts = [
            {"name": v.name, "passed": bool(v.passed), "value": v.value} for v in manifest.verdicts
        ]
        out = Path(spec["out_dir"])
        artifacts = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(manifest.files)
            if name != "manifest.json"
        }
    else:
        verdicts = [{"name": "runner", "passed": False, "value": None}] * workload.verdicts
        artifacts = {}
    report.update(
        run_s=run_s,
        peak_rss_mb=_peak_rss_mb(),
        verdicts=verdicts,
        artifacts=artifacts,
        error=error,
    )
    if tracer is not None:
        report["layers"] = tracer.metrics(run_s, len(seeds))
        report["spans"] = [
            {"name": s.name, "thread": s.thread, "parent": s.parent,
             "start": s.start - t0, "end": s.end - t0, "self_s": s.self_s}
            for s in tracer.spans()
        ]
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
