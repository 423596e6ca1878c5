"""dbmwalk benchmark: time to verdict of the experiment runners.

    python3 perfbench/run.py --workload profile-n4000 --seed 1 --seconds 28 --trace 0

Each runner call runs in a fresh interpreter (``worker.py``).  With
``--trace 0`` the calls are untraced and the run reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` untraced and traced calls
alternate and the run reports its per-layer metrics.  Calls repeat until
``--seconds`` have passed (at least two calls).  Every call's verdicts
are counted, and every call must write byte-identical artifacts
(``manifest.json`` aside, as it holds timings).

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted`` and ``failed`` (verdicts
of all calls) and ``metrics``.  The exit code is 0 only if the run is
correct.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
TIME_LIMIT_S = 170.0  # for one workload, set-up and calls included
MIN_SETUP_SAMPLES = 5
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Session:
    """Starts worker interpreters for one workload within a time limit."""

    def __init__(self, workload, seeds, size, out_dir: Path) -> None:
        self.workload = workload
        self.seeds = seeds
        self.size = size
        self.out_dir = out_dir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.calls = 0

    def spawn(self, mode: str, trace: bool = False) -> dict:
        self.calls += 1
        spec = {
            "workload": self.workload.name,
            "size": self.size,
            "seeds": list(self.seeds),
            "mode": mode,
            "trace": trace,
            "src": str(SRC),
            "out_dir": str(self.out_dir / f"call{self.calls}"),
        }
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.workload.name}: out of time after {self.calls - 1} calls")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload.name}: worker exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{self.workload.name}: worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready_monotonic"] - t_spawn
        return report


def run_workload(name: str, seed: int | None, seconds: float, trace: bool, size: str) -> dict:
    workload = WORKLOADS[name]
    seeds = workload.seeds_for(seed)
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    load_before = _loadavg()
    try:
        session = Session(workload, seeds, size, out_dir)
        session.spawn("setup")  # warm-up: byte-compiles and fills the file cache
        plain, traced, probes = [], [], []
        t_start = time.monotonic()
        rounds = 0
        while True:
            plain.append(session.spawn("run"))
            if trace:
                traced.append(session.spawn("run", trace=True))
            rounds += 1
            if rounds >= (1 if trace else 2) and time.monotonic() - t_start >= seconds:
                break
        while len(plain) + len(probes) < MIN_SETUP_SAMPLES:
            probes.append(session.spawn("setup"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    load_after = _loadavg()

    calls = plain + traced
    errors = [c["error"] for c in calls if c["error"]]
    attempted = sum(len(c["verdicts"]) for c in calls)
    failed = sum(not v["passed"] for c in calls for v in c["verdicts"])
    identical = all(c["artifacts"] == calls[0]["artifacts"] for c in calls) and not errors
    failed_names = sorted({v["name"] for c in calls for v in c["verdicts"] if not v["passed"]})

    med = statistics.median
    samples = {
        "run_s": [c["run_s"] for c in plain],
        "setup_s": [c["setup_s"] for c in plain + probes],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
    }
    end_to_end = {k: med(v) for k, v in samples.items()}
    end_to_end["verdicts_failed_frac"] = failed / attempted
    counts = {k: len(v) for k, v in samples.items()}
    counts["verdicts_failed_frac"] = attempted

    layers, spans = {}, []
    if trace:
        # all per-layer numbers come from one traced call: the median one
        pick = sorted(traced, key=lambda c: c["run_s"])[(len(traced) - 1) // 2]
        layers = dict(pick["layers"])
        layers["trace.overhead_frac"] = (
            med([c["run_s"] for c in traced]) / end_to_end["run_s"] - 1.0
        )
        layers["cli.import_s"] = med([c["import_s"] for c in calls + probes])
        spans = pick["spans"]

    return {
        "workload": name,
        "context": {
            "seed_arg": seed,
            "seeds": list(seeds),
            "size": size,
            "seconds": seconds,
            "trace": int(trace),
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "versions": calls[0]["versions"],
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "failed_verdicts": failed_names,
        "artifacts_identical": identical,
        "errors": errors,
        "end_to_end": end_to_end,
        "samples": samples,
        "counts": counts,
        "layers": layers,
        "spans": spans,
    }


def _print_result(res: dict, units: dict[str, str]) -> None:
    ctx = res["context"]
    print(f"== {res['workload']}  seeds={ctx['seeds']}  size={ctx['size']}  trace={ctx['trace']}")
    print("context " + json.dumps(ctx, sort_keys=True))
    for key, value in res["end_to_end"].items():
        n = res["counts"][key]
        what = "verdicts" if key == "verdicts_failed_frac" else "samples"
        print(f"  {key:<36} {value:>14.6g} {units[key]:<10} n={n} {what}")
    for key, value in sorted(res["layers"].items()):
        print(f"  {key:<36} {value:>14.6g} {units[key]}")
    if res["failed_verdicts"]:
        print(f"  FAILED verdicts: {', '.join(res['failed_verdicts'])}")
    if not res["artifacts_identical"]:
        print("  FAILED: artifacts differ between repeats or a runner raised")
    for err in res["errors"]:
        print("  runner error:\n" + err)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, help="first workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=28.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full", help="toy: self-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "dbmwalk" / "__init__.py").is_file():
        print(f"no dbmwalk sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["verdicts_failed_frac"] = "fraction"
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(res, indent=1, sort_keys=True) + "\n"
            )
            _print_result(res, units)
            results.append(res)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for res in results:
        values = res["layers"] if args.trace else res["end_to_end"]
        prefix = "" if len(results) == 1 else f"{res['workload']}/"
        for key in wanted:
            metrics[prefix + key] = {"value": values[key], "unit": units[key]}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
