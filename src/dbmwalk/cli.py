"""Command-line front end for the experiment harness.

Subcommands map one-to-one onto the run_* functions in ``experiments``.
A JSON config file can prefill any option; explicit flags win.  The
exit code is 0 when every acceptance verdict in the run's manifest
passed, 1 when one failed, and 2 when the input was refused: a config
that cannot be read or is invalid, or a manifest ``report`` cannot read.
A refusal prints one ``dbmwalk <command>: <message>`` line to stderr.
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
from .walk import SAMPLED_STARTS, START_STATE_LIMIT

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
    p.add_argument("--C", dest="c", type=float, help="constant of the critical regime only")
    p.add_argument("--betas", help="comma-separated scaled times")
    p.add_argument(
        "--timescale",
        choices=TIMESCALES,
        help=(
            "how betas translate to step counts: entropic (t / t_ent, every regime, "
            "the default) or inverse_alpha (alpha * t, supercritical only)"
        ),
    )
    p.add_argument("--seeds", help="comma-separated seeds (default 1,2,3)")
    p.add_argument(
        "--starts",
        help=(
            "start policy of the profile and qsd mixing times: 'exhaustive' or a "
            f"sample size (default {SAMPLED_STARTS}); a space of at most "
            f"{START_STATE_LIMIT} states is started from every state either way; "
            "the manifest records profile_compression.starts and mixing_time_exhaustive"
        ),
    )
    p.add_argument("--threads", type=int, help="worker threads across seeds")
    p.add_argument("--out", help="output directory (default out/<command>)")


def _read_json(path) -> object:
    """The parsed contents of a JSON file; a ValueError names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _number(option: str, text: object, kind: type) -> int | float:
    """``kind(text)``; a ValueError names the flag or file key and the value."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{option}: {text!r} is not {noun}") from None


def _build_config(args: argparse.Namespace, command: str) -> ExperimentConfig:
    raw = _read_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ValueError(f"{args.config} holds no JSON object")

    def pick(flag, key, default=None):
        return flag if flag is not None else raw.get(key, default)

    n = pick(args.n, "n", 4000)
    m = pick(args.m, "m", 2)
    lam = pick(args.lam, "lambda", 2.0)
    regime = pick(args.regime, "regime", "supercritical")
    c = pick(args.c, "c")
    alpha = pick(args.alpha, "alpha")
    seeds = pick(args.seeds, "seeds", "1,2,3")
    if isinstance(seeds, str):
        name = "--seeds" if args.seeds is not None else "seeds"
        seeds = [_number(name, s, int) for s in seeds.split(",")]
    seeds = tuple(seeds)
    # an unknown regime gets no default grid; ExperimentConfig rejects it
    betas = pick(args.betas, "beta_grid", _DEFAULT_BETAS.get(regime, ()))
    if isinstance(betas, str):
        betas = betas.split(",")
    name = "--betas" if args.betas is not None else "beta_grid"
    betas = tuple(_number(name, b, float) for b in betas)
    # a manifest's config block holds the policy name and the size apart;
    # ExperimentConfig holds the default of every option left unset here
    common = {
        "timescale": pick(args.timescale, "timescale"),
        "start_policy": pick(args.starts, "start_policy"),
        "sample_starts": raw.get("sample_starts"),
        "threads": pick(args.threads, "threads"),
    }
    if args.starts not in (None, "sampled", "exhaustive"):  # --starts k: a sample size
        common.update(start_policy="sampled", sample_starts=_number("--starts", args.starts, int))
    common = {key: value for key, value in common.items() if value is not None}
    out_dir = pick(args.out, "out_dir", f"out/{command}")
    common.update(beta_grid=betas, seeds=seeds, out_dir=out_dir)
    base_seed = seeds[0] if seeds else 0  # ExperimentConfig refuses an empty list
    if regime == "critical" and c is None:
        raise ValueError("critical regime needs --C")
    # a given alpha is checked against 1/(c*t_ent) by ExperimentConfig
    if regime == "critical" and alpha is None:
        return ExperimentConfig.critical(n, m, lam, c, seed=base_seed, **common)
    if alpha is None:
        raise ValueError("need --alpha (or --regime critical with --C)")
    params = DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=base_seed)
    return ExperimentConfig(params=params, regime=regime, c=c, **common)


def _finish(manifest: RunManifest) -> int:
    for v in manifest.verdicts:
        mark = "pass" if v.passed else "FAIL"
        left_out = "" if v.censored is None else f", {v.censored} censored samples left out"
        print(f"[{mark}] {v.name}: value {v.value:.6g}, tolerance {v.tolerance}{left_out}")
    print(f"artifacts: {', '.join(manifest.files)}")
    return 0 if manifest.all_passed else 1


def _report(path: Path) -> int:
    """Print a finished run's manifest; exit 1 when a verdict failed."""
    manifest = _read_json(path)
    try:
        passed = all(v["passed"] for v in manifest["verdicts"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} has no valid list of verdicts") from exc
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0 if passed else 1


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
    try:
        if args.command == "report":
            return _report(Path(args.out_dir) / "manifest.json")
        config = _build_config(args, args.command)
    except (TypeError, ValueError) as exc:  # TypeError: a config value of the wrong JSON type
        why = exc if args.command == "report" else f"invalid configuration: {exc}"
        print(f"dbmwalk {args.command}: {why}", file=sys.stderr)
        return 2
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
