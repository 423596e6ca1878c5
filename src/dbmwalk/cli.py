"""Command-line front end for the experiment harness.

Subcommands map one-to-one onto the run_* functions in ``experiments``
through the ``_COMMANDS`` table, plus ``report``.  A JSON config file can
prefill any option, and a key it does not know is refused; explicit
flags win.  The exit code is 0 when every
acceptance verdict in the run's manifest passed, 1 when one failed, 2
when the input was refused: a config that cannot be read or is invalid,
or a manifest ``report`` cannot read, and 3 when a valid run could not
finish, such as when no acceptable graph could be drawn or ``--out``
names a file or a path under one.  A refusal or an unfinished run
prints one ``dbmwalk <command>: <message>`` line to stderr.
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
from .graph import DbmParams, require_real
from .walk import WITNESS_CANDIDATES

_COMMANDS = {
    "generate": (run_generate, "generate graphs and a degree summary"),
    "profile": (run_profile_experiment, "empirical mixing profile vs the limiting curve"),
    "qsd": (run_qsd_experiment, "per-community escape pipeline and jump statistics"),
    "annealed": (run_annealed_experiment, "revealed-walk community law and jump survival"),
    "proxy": (run_proxy_experiment, "two-scale surrogate measures"),
}
# the keys _build_config reads: a manifest's config block plus out_dir
_CONFIG_KEYS = {
    "n", "m", "lambda", "alpha", "regime", "c", "seeds", "beta_grid", "timescale",
    "sample_starts", "threads", "out_dir",
}
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
        help=f"'exhaustive' or a witness candidate count (default {WITNESS_CANDIDATES})",
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
    """``kind(text)``; a ValueError names the flag or file key and the value.

    A value that is not text came from the config file as a JSON value,
    which must already be a number: ``kind`` would turn true into 1.
    """
    if not isinstance(text, str):
        require_real(option, text)
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{option}: {text!r} is not {noun}") from None


def _build_config(args: argparse.Namespace, command: str) -> ExperimentConfig:
    raw = _read_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ValueError(f"{args.config} holds no JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{args.config}: unknown key {unknown[0]!r}")

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
    # ExperimentConfig holds the default of every option left unset here
    common = {
        "timescale": pick(args.timescale, "timescale"),
        "threads": pick(args.threads, "threads"),
    }
    common = {key: value for key, value in common.items() if value is not None}
    if args.starts == "exhaustive":
        common["sample_starts"] = None
    elif args.starts is not None:
        common["sample_starts"] = _number("--starts", args.starts, int)
    elif "sample_starts" in raw:  # null: every state
        common["sample_starts"] = raw["sample_starts"]
    out_dir = pick(args.out, "out_dir", f"out/{command}")
    common.update(beta_grid=betas, seeds=seeds, out_dir=out_dir)
    seed = seeds[0] if seeds else 0  # ExperimentConfig refuses an empty list
    if regime == "critical" and c is None:
        raise ValueError("critical regime needs --C")
    # a given alpha is checked against 1/(c*t_ent) by ExperimentConfig
    if regime == "critical" and alpha is None:
        return ExperimentConfig.critical(n, m, lam, c, seed=seed, **common)
    if alpha is None:
        raise ValueError("need --alpha (or --regime critical with --C)")
    params = DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=seed)
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
    verdicts = manifest.get("verdicts") if isinstance(manifest, dict) else None
    if not isinstance(verdicts, list) or not all(
        isinstance(v, dict) and isinstance(v.get("passed"), bool) for v in verdicts
    ):
        raise ValueError(f"{path} has no valid list of verdicts")
    passed = all(v["passed"] for v in verdicts)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="dbmwalk",
        description="simulation harness for random walks on the directed block model",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        _add_common(sub.add_parser(name, help=blurb))
    report = sub.add_parser("report", help="print the manifest of a finished run")
    report.add_argument("out_dir", help="run directory holding manifest.json")

    args = top.parse_args(argv)
    try:
        if args.command == "report":
            return _report(Path(args.out_dir) / "manifest.json")
        config = _build_config(args, args.command)
    except (TypeError, ValueError) as exc:  # TypeError: a config value of the wrong JSON type
        why = exc if args.command == "report" else f"invalid configuration: {exc}"
        print(f"dbmwalk {args.command}: {why}", file=sys.stderr)
        return 2
    runner, _ = _COMMANDS[args.command]
    try:
        manifest = runner(config)
    except (OSError, RuntimeError, ValueError) as exc:  # no acceptable graph, an unusable --out
        print(f"dbmwalk {args.command}: {exc}", file=sys.stderr)
        return 3
    return _finish(manifest)


if __name__ == "__main__":
    sys.exit(main())
