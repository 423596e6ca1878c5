"""Command-line front end for the experiment harness.

Subcommands map one-to-one onto the run_* functions in ``experiments``.
A JSON config file can prefill any option; explicit flags win.  The
exit code is 0 only when every acceptance verdict in the run's manifest
passed, 1 when one failed, and 2 when ``report`` cannot read a manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    REGIMES,
    TIMESCALES,
    ExperimentConfig,
    RunManifest,
    run_annealed_experiment,
    run_generate,
    run_profile_experiment,
    run_proxy_experiment,
    run_qsd_experiment,
)
from .graph import DbmParams

_DEFAULT_BETAS = {
    "subcritical": "0.5,1.5",
    "critical": "0.5,2,3",
    "supercritical": "0.5,1,2,5",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file prefilling any of the options below")
    p.add_argument("--n", type=int, help="vertices per community")
    p.add_argument("--m", type=int, help="number of communities")
    p.add_argument("--lambda", dest="lam", type=float, help="edge density multiplier")
    p.add_argument("--alpha", type=float, help="rewiring probability")
    p.add_argument(
        "--regime", choices=REGIMES, help="coupling regime; critical derives alpha from --C"
    )
    p.add_argument("--C", dest="c", type=float, help="critical-regime constant")
    p.add_argument("--betas", help="comma-separated scaled times")
    p.add_argument(
        "--timescale", choices=TIMESCALES, help="how betas translate to step counts"
    )
    p.add_argument("--seeds", help="comma-separated seeds (default 1,2,3)")
    p.add_argument(
        "--starts",
        help=(
            "start policy: 'exhaustive' or a sample size (default 64); a graph "
            "of at most 2000 vertices starts from every vertex either way, and "
            "the manifest's profile_compression.starts holds the count used"
        ),
    )
    p.add_argument("--threads", type=int, help="worker threads across seeds")
    p.add_argument("--out", help="output directory (default out/<command>)")


def _build_config(args: argparse.Namespace, command: str) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)

    def pick(flag, key, default=None):
        return flag if flag is not None else raw.get(key, default)

    n = pick(args.n, "n", 4000)
    m = pick(args.m, "m", 2)
    lam = pick(args.lam, "lambda", 2.0)
    regime = pick(args.regime, "regime", "supercritical")
    c = pick(args.c, "c")
    alpha = pick(args.alpha, "alpha")
    seeds = pick(args.seeds, "seeds", "1,2,3")
    seeds = tuple(int(s) for s in seeds.split(",")) if isinstance(seeds, str) else tuple(seeds)
    # an unknown regime gets no default grid; ExperimentConfig rejects it
    betas = pick(args.betas, "beta_grid", _DEFAULT_BETAS.get(regime, ()))
    if isinstance(betas, str):
        betas = tuple(float(b) for b in betas.split(","))
    else:
        betas = tuple(float(b) for b in betas)
    timescale = pick(args.timescale, "timescale", "entropic")
    # a manifest's config block holds the policy name and the size apart
    starts = pick(args.starts, "start_policy", "sampled")
    sample_starts = raw.get("sample_starts", 64)
    if starts in ("sampled", "exhaustive"):
        start_policy = starts
    else:  # a sample size: the --starts string, or a number from the file
        start_policy = "sampled"
        sample_starts = int(starts) if isinstance(starts, str) else starts
    out_dir = pick(args.out, "out_dir", f"out/{command}")
    threads = pick(args.threads, "threads", 1)

    common = dict(
        beta_grid=betas,
        timescale=timescale,
        start_policy=start_policy,
        sample_starts=sample_starts,
        seeds=seeds,
        out_dir=out_dir,
        threads=threads,
    )
    if regime == "critical":
        if c is None:
            raise SystemExit("critical regime needs --C")
        return ExperimentConfig.critical(n, m, lam, c, seed=seeds[0], **common)
    if alpha is None:
        raise SystemExit("need --alpha (or --regime critical with --C)")
    params = DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=seeds[0])
    return ExperimentConfig(params=params, regime=regime, c=c, **common)


def _finish(manifest: RunManifest) -> int:
    for v in manifest.verdicts:
        mark = "pass" if v.passed else "FAIL"
        left_out = "" if v.censored is None else f", {v.censored} censored samples left out"
        print(f"[{mark}] {v.name}: value {v.value:.6g}, tolerance {v.tolerance}{left_out}")
    print(f"artifacts: {', '.join(manifest.files)}")
    return 0 if manifest.all_passed else 1


def _report(path: Path) -> int:
    """Print a finished run's manifest; exit 2 when it cannot be read."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        passed = all(v["passed"] for v in manifest["verdicts"])
    except OSError as exc:
        return _cannot_report(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:
        return _cannot_report(f"{path} is not valid JSON: {exc}")
    except (KeyError, TypeError):
        return _cannot_report(f"{path} has no valid list of verdicts")
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0 if passed else 1


def _cannot_report(message: str) -> int:
    print(f"dbmwalk report: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="dbmwalk",
        description="simulation harness for random walks on the directed block model",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("generate", "generate graphs and a degree summary"),
        ("profile", "empirical mixing profile vs the limiting curve"),
        ("qsd", "per-community escape pipeline and jump statistics"),
        ("annealed", "revealed-walk community law and jump survival"),
        ("proxy", "two-scale surrogate measures"),
        ("report", "print the manifest of a finished run"),
    ):
        p = sub.add_parser(name, help=blurb)
        if name == "report":
            p.add_argument("out_dir", help="run directory holding manifest.json")
        else:
            _add_common(p)

    args = top.parse_args(argv)
    if args.command == "report":
        return _report(Path(args.out_dir) / "manifest.json")

    try:
        config = _build_config(args, args.command)
    except (TypeError, ValueError) as exc:  # TypeError: a config value of the wrong JSON type
        raise SystemExit(f"invalid configuration: {exc}") from exc
    runner = {
        "generate": run_generate,
        "profile": run_profile_experiment,
        "qsd": run_qsd_experiment,
        "annealed": run_annealed_experiment,
        "proxy": run_proxy_experiment,
    }[args.command]
    return _finish(runner(config))


if __name__ == "__main__":
    sys.exit(main())
