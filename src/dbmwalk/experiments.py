"""Experiment presets, sweep execution, and artifact emission.

Each experiment takes an ExperimentConfig, runs one unit of work per
seed (parallelizable, each seed carries its own derived random
streams), and writes CSV/SVG artifacts plus a manifest.  Output bytes
are a pure function of the config: per-seed results are assembled in
seed order after all workers finish, floats are serialized via repr,
and every file is written by exactly one writer.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import meanfield, qsd, svg
from .annealed import annealed_community_law, annealed_jump_survival
from .graph import (
    DbmParams,
    Digraph,
    generate,
    pre_rewiring_subgraph,
    require_int,
    require_real,
    require_seed,
    save_binary,
)
from .proxy import TwoScaleSchedule, surrogate_measures
from .walk import (
    WITNESS_CANDIDATES,
    ProbVector,
    community_mass,
    drop_transition_operator,
    mixing_profile,
    profile_starts,
    sample_tau_jump,
    stationary,
    tv_distance,
)

REGIMES = ("subcritical", "critical", "supercritical")
TIMESCALES = ("entropic", "inverse_alpha")

# Regime windows, checked before any compute.  The step-regime product
# threshold and the smooth-regime slack are harness choices at finite n
# (the asymptotic statements put alpha*t_ent at infinity resp. zero);
# the factor-10 guard on 1/alpha has no finite-n margin to inherit, so
# it is a recorded default.
SUBCRITICAL_MIN_PRODUCT = 0.5
SUBCRITICAL_MAX_ALPHA = 0.5
SUPERCRITICAL_MAX_PRODUCT = 0.2
SUPERCRITICAL_ALPHA_GUARD = 10.0
CRITICAL_MATCH_RTOL = 1e-6

MAX_GRAPH_REJECTS = 5
RESEED_STRIDE = 7_777_777  # retry k of seed s generates with s + k*stride

# Profile tolerances (desk scale).  The subcritical profile is checked
# on either side of its step; every other limit by the gap |d - limit|
# from a first beta on: (verdict prefix, first beta, tolerance, limit
# as printed in the tolerance).  The entropic plateau (m-1)/m holds while
# alpha*t is small: it is read off the mean field at the same step t.
PROFILE_TOLERANCES = {"subcritical": {"early_min": 0.8, "late_max": 0.25}}
PROFILE_GAPS = {
    "critical": ("tail_gap", 2.0, 0.15, "limit"),
    "supercritical_alpha": ("curve_gap", 0.0, 0.1, "limit"),
    "supercritical_ent": ("plateau_gap", 2.0, 0.12, "mean field at t"),
}


def analytic_entropic_time(params: DbmParams) -> float:
    """Entropic time from the exact out-degree law, no graph needed.

    Rewiring moves an out-edge without changing the out-degree, so the
    out-degree is Binomial(n-1, p) for every alpha and the mean log
    degree is computable up front.
    """
    n, p = params.n, params.p
    ks = np.arange(n)
    pmf = _binomial_pmf(n - 1, p)
    h = float(np.sum(pmf * np.log(np.maximum(ks, 1))))
    if h <= 0.0:
        raise ValueError("degenerate degree law: mean log out-degree is zero")
    return math.log(n) / h


def _binomial_pmf(trials: int, p: float) -> np.ndarray:
    """Binomial(trials, p) pmf over 0..trials, by the ratio recurrence.

    The weights start at 1 on the mode and multiply outward by the ratio
    of neighbouring terms, which is at most 1 on either side of the
    mode, so nothing overflows; far tails underflow to 0.  At p = 1 the
    upward range is empty and p/(1-p) is never formed.
    """
    mode = min(int((trials + 1) * p), trials)
    w = np.ones(trials + 1)
    if mode < trials:
        k = np.arange(mode, trials)
        w[mode + 1 :] = np.cumprod((trials - k) / (k + 1) * (p / (1.0 - p)))
    k = np.arange(mode, 0, -1)
    w[:mode][::-1] = np.cumprod(k / (trials - k + 1) * ((1.0 - p) / p))
    return w / w.sum()


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: graph parameters, regime, time grid, and run plumbing."""

    params: DbmParams
    regime: str
    beta_grid: tuple[float, ...]
    timescale: str = "entropic"  # or "inverse_alpha"
    c: float | None = None
    sample_starts: int | None = WITNESS_CANDIDATES  # None: every state
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "out"
    threads: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        for seed in self.seeds:
            require_seed(seed)
            if seed + MAX_GRAPH_REJECTS * RESEED_STRIDE >= 2**63:
                raise ValueError(
                    f"seed {seed} can re-draw past 2**63: retry k of seed s generates "
                    f"with s + k*{RESEED_STRIDE}, k up to {MAX_GRAPH_REJECTS}"
                )
        if self.sample_starts is not None:
            require_int("sample_starts", self.sample_starts)
            if self.sample_starts < 1:
                raise ValueError(f"need at least one witness candidate, got {self.sample_starts}")
        require_int("threads", self.threads)
        if self.c is not None:
            require_real("c", self.c)
        for beta in self.beta_grid:
            require_real("beta_grid", beta)
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.timescale not in TIMESCALES:
            raise ValueError(f"unknown timescale {self.timescale!r}")
        # only the supercritical decay is stated on alpha*t, and only the
        # critical limit has a constant; every other limit reads t/t_ent
        if self.timescale == "inverse_alpha" and self.regime != "supercritical":
            raise ValueError(f"timescale inverse_alpha is supercritical-only, not {self.regime}")
        if self.c is not None and self.regime != "critical":
            raise ValueError(f"the constant c is critical-only, got c={self.c} in {self.regime}")
        if not self.beta_grid or any(b <= 0 for b in self.beta_grid):
            raise ValueError("beta grid must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        for a in self.seeds:  # a retry of seed a must not draw seed b's graph
            for b in self.seeds:
                if 0 < b - a <= MAX_GRAPH_REJECTS * RESEED_STRIDE and (b - a) % RESEED_STRIDE == 0:
                    raise ValueError(
                        f"seeds {a} and {b} can re-draw one graph: "
                        f"retry k of seed s generates with s + k*{RESEED_STRIDE}"
                    )
        if self.threads < 1:
            raise ValueError(f"need at least one thread, got {self.threads}")
        self.validate_regime()
        self.time_grid()

    @property
    def t_ent(self) -> float:
        return analytic_entropic_time(self.params)

    def validate_regime(self) -> None:
        alpha = self.params.alpha
        t_ent = self.t_ent
        if self.regime == "subcritical":
            if alpha > SUBCRITICAL_MAX_ALPHA:
                raise ValueError(
                    f"subcritical needs alpha <= {SUBCRITICAL_MAX_ALPHA}, got {alpha}"
                )
            if alpha * t_ent < SUBCRITICAL_MIN_PRODUCT:
                raise ValueError(
                    f"subcritical window violated: alpha*t_ent = {alpha * t_ent:.3g} "
                    f"< {SUBCRITICAL_MIN_PRODUCT}"
                )
        elif self.regime == "critical":
            if self.c is None or self.c <= 0:
                raise ValueError("critical regime needs a positive constant c")
            want = 1.0 / (self.c * t_ent)
            if abs(alpha - want) > CRITICAL_MATCH_RTOL * want:
                raise ValueError(
                    f"critical regime pins alpha = 1/(c*t_ent) = {want:.6g}, "
                    f"config has {alpha:.6g}"
                )
        else:
            if alpha <= 0.0:
                raise ValueError("supercritical needs alpha > 0")
            if alpha * t_ent > SUPERCRITICAL_MAX_PRODUCT:
                raise ValueError(
                    f"supercritical window violated: alpha*t_ent = "
                    f"{alpha * t_ent:.3g} > {SUPERCRITICAL_MAX_PRODUCT}"
                )
            prm = self.params
            if 1.0 / alpha > prm.lam * prm.n * math.log(prm.n) / SUPERCRITICAL_ALPHA_GUARD:
                raise ValueError(
                    "supercritical window violated: 1/alpha exceeds "
                    f"lam*n*log(n)/{SUPERCRITICAL_ALPHA_GUARD:g}"
                )

    @staticmethod
    def critical(
        n: int, m: int, lam: float, c: float, **kw
    ) -> "ExperimentConfig":
        """Build a critical-regime config with alpha pinned to 1/(c*t_ent)."""
        require_real("c", c)  # checked before alpha is derived from it
        if not c > 0:
            raise ValueError("critical regime needs a positive constant c")
        probe = DbmParams(n=n, m=m, lam=lam, alpha=0.0, seed=0)
        alpha = 1.0 / (c * analytic_entropic_time(probe))
        params = DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=kw.pop("seed", 0))
        return ExperimentConfig(params=params, regime="critical", c=c, **kw)

    def time_grid(self) -> dict[float, int]:
        """Map each beta to an integer step count on the configured scale, below 2**63."""
        t_ent = self.t_ent
        out: dict[float, int] = {}
        for beta in self.beta_grid:
            raw = beta * t_ent if self.timescale == "entropic" else beta / self.params.alpha
            if not raw < 2**63:
                raise ValueError(f"beta {beta:g} takes {raw:.3g} steps, not below 2**63")
            out[beta] = max(1, round(raw))
        return out

    def limit_regime(self) -> str:
        """Name of the limiting-profile branch for this config."""
        if self.regime == "supercritical":
            return (
                "supercritical_ent"
                if self.timescale == "entropic"
                else "supercritical_alpha"
            )
        return self.regime

    def to_dict(self) -> dict:
        """The manifest's config block: plain Python numbers, so numpy ones hash alike."""
        prm = self.params
        return {
            "n": int(prm.n),
            "m": int(prm.m),
            "lambda": float(prm.lam),
            "alpha": float(prm.alpha),
            "regime": self.regime,
            "c": None if self.c is None else float(self.c),
            "beta_grid": [float(b) for b in self.beta_grid],
            "timescale": self.timescale,
            "sample_starts": None if self.sample_starts is None else int(self.sample_starts),
            "seeds": [int(s) for s in self.seeds],
            "threads": int(self.threads),
        }


@dataclass(frozen=True)
class Verdict:
    """One acceptance check; ``censored`` counts the samples it left out.

    ``censoring_bound`` = censored / (kept + censored) bounds the sup
    distance between the CDF of the kept samples (conditioned on not
    being censored) and the unconditioned one.
    """

    name: str
    passed: bool
    value: float
    tolerance: str
    censored: int | None = None
    censoring_bound: float | None = None


@dataclass
class RunManifest:
    """What a run wrote and found; every CSV and ``<`` verdict goes through it."""

    config: dict
    config_hash: str
    version: str
    out_dir: Path
    seeds_used: list[int] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    def register(self, path: Path) -> Path:
        self.files.append(path.name)
        return path

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """Write and register ``name``; every float, Python or numpy, as repr(float(v))."""
        with open(self.register(self.out_dir / name), "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
                for row in rows
            )

    def check(self, name: str, value, bound: float, shown: str | None = None, **extra) -> None:
        """Append the verdict ``value < bound``; its tolerance reads ``shown``, or ``< bound``."""
        self.verdicts.append(
            Verdict(name, bool(value < bound), float(value), shown or f"< {bound}", **extra)
        )

    def write(self) -> Path:
        payload = {
            "config": self.config,
            "config_hash": self.config_hash,
            "version": self.version,
            "seeds_used": self.seeds_used,
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "diagnostics": self.diagnostics,
            "verdicts": [v.__dict__ for v in self.verdicts],
            "files": self.files,
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _new_manifest(config: ExperimentConfig) -> RunManifest:
    from . import __version__

    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return RunManifest(
        config=config.to_dict(),
        config_hash=hashlib.sha256(blob).hexdigest()[:16],
        version=__version__,
        out_dir=Path(config.out_dir),
    )


@contextmanager
def _run(config: ExperimentConfig, per_seed):
    """The skeleton every runner shares, as a ``with`` block.

    Creates the manifest and its output directory, then maps the
    module-level ``per_seed(config, seed) -> (diagnostics, result)`` over
    every seed of ``config.seeds`` on ``config.threads`` threads.  The
    diagnostics records, whose ``seed`` entry is the seed actually used,
    go to the manifest in seed order.  The block receives
    (manifest, results in seed order) and writes the artifacts and
    verdicts through the manifest; on leaving it the total time is
    recorded and manifest.json is written.
    """
    manifest = _new_manifest(config)
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    task = functools.partial(per_seed, config)
    seeds = [int(s) for s in config.seeds]  # a numpy seed would reach the manifest
    if config.threads <= 1:
        done = [task(s) for s in seeds]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            done = list(pool.map(task, seeds))
    manifest.seeds_used = [diag["seed"] for diag, _ in done]
    manifest.diagnostics["per_seed"] = [diag for diag, _ in done]
    manifest.timings["seed_sweep"] = time.perf_counter() - t0
    yield manifest, [result for _, result in done]
    manifest.timings["total"] = time.perf_counter() - t0
    manifest.write()


def _solver_diagnostics(pi: ProbVector, **extra) -> dict:
    """How a stationary solve ended, for the manifest."""
    return {
        **extra,
        "stationary_iterations": pi.iterations,
        "stationary_residual": pi.residual,
    }


def _accepted_graph(
    config: ExperimentConfig,
    seed: int,
    need_all_communities: bool = False,
) -> tuple[Digraph, int]:
    """Generate until accepted; returns the seed actually used.

    Acceptance is strong connectivity of the whole graph (every profile
    and stationary computation needs it), plus each within-community
    subgraph when the per-community pipeline will run.
    """
    for attempt in range(MAX_GRAPH_REJECTS + 1):
        used = seed + attempt * RESEED_STRIDE
        graph, _ = generate(config.params, seed=used)
        if not graph.is_strongly_connected():
            continue
        if need_all_communities and not _communities_connected(graph):
            continue
        return graph, used
    raise RuntimeError(
        f"graph rejected {MAX_GRAPH_REJECTS + 1} consecutive times (seed {seed})"
    )


def _communities_connected(graph: Digraph) -> bool:
    return all(
        pre_rewiring_subgraph(graph, i).is_strongly_connected()
        for i in range(graph.params.m)
    )


# -- profile ---------------------------------------------------------------


def _profile_seed(config: ExperimentConfig, seed: int):
    graph, used = _accepted_graph(config, seed)
    pi = stationary(graph)
    times = sorted(set(config.time_grid().values()))
    starts, witnesses = profile_starts(graph, pi, times, config.sample_starts)
    profile = mixing_profile(graph, starts, times, pi)
    compression = {
        "starts": int(starts.size),
        "witnesses": witnesses.tolist(),
        "checkpoint": profile.checkpoint,
        "rank": profile.rank,
        "tv_bound": profile.tv_bound,
        "tail_spectrum": profile.tail_spectrum,
        "meanfield_rate": meanfield.subdominant_eigenvalue(graph.m, config.params.alpha),
        "col_steps": profile.col_steps,
    }
    diag = _solver_diagnostics(pi, seed=used, profile_compression=compression)
    return diag, dict(zip(profile.times, profile.distances))


def run_profile_experiment(config: ExperimentConfig) -> RunManifest:
    """Empirical mixing profile vs the limiting curve, with verdicts."""
    with _run(config, _profile_seed) as (manifest, per_seed):
        grid = config.time_grid()
        betas = sorted(grid)
        prm = config.params
        rows = [
            [grid[b], d[grid[b]], "max", prm.n, prm.m, prm.lam, prm.alpha, used, "stationary"]
            for used, d in zip(manifest.seeds_used, per_seed)
            for b in betas
        ]
        manifest.write_csv(
            "profile.csv",
            ["t", "distance", "aggregation", "n", "m", "lambda", "alpha", "seed", "reference"],
            rows,
        )

        limit_name = config.limit_regime()
        steps = config.timescale == "entropic"  # every t/t_ent limit jumps at beta = 1
        curve_betas = _curve_betas(max(betas), steps)
        curve_values = np.array(
            [meanfield.limiting_profile(limit_name, b, prm.m, config.c) for b in curve_betas]
        )
        curve_betas = np.asarray(curve_betas)
        theory_rows = [
            [b, v, limit_name, prm.m, float(config.c) if config.c else 0.0]
            for b, v in zip(curve_betas, curve_values)
        ]
        manifest.write_csv("theory.csv", ["beta", "value", "regime", "m", "C"], theory_rows)

        mean_dist = {
            beta: float(np.mean([d[grid[beta]] for d in per_seed])) for beta in betas
        }
        _profile_verdicts(config, mean_dist, manifest)

        pieces = (curve_betas < 1.0, curve_betas > 1.0) if steps else (curve_betas > 0.0,)
        svg.write(
            str(manifest.register(manifest.out_dir / "profile.svg")),
            f"mixing profile, {config.regime} (n={prm.n}, m={prm.m}, alpha={prm.alpha:g})",
            "beta" + (" (time / t_ent)" if steps else " (time * alpha)"),
            "max-start TV distance",
            [
                (label, curve_betas[piece], curve_values[piece])
                for label, piece in zip(("limiting curve", "(after the step)"), pieces)
            ],
            ("empirical (seed mean)", betas, [mean_dist[b] for b in betas]),
        )
    return manifest


def _curve_betas(max_beta: float, steps: bool) -> list[float]:
    """Where the limiting curve is drawn: at most 400 exact b/100 points up to max_beta + 0.5.

    The stride is 0.05 while max_beta + 0.5 <= 20 and a whole multiple of
    0.05 beyond; a step at beta = 1 is sampled just either side instead.
    """
    top = int(100 * (max_beta + 0.5))
    betas = [b / 100.0 for b in range(5, top + 1, 5 * math.ceil(top / 2000))]
    if steps:
        betas = sorted([b for b in betas if abs(b - 1.0) > 1e-9] + [0.999, 1.001])
    return betas


def _profile_verdicts(
    config: ExperimentConfig, mean_dist: dict[float, float], manifest: RunManifest
) -> None:
    """One verdict per beta in its regime's windows; a grid with none gets one failed verdict."""
    if config.regime == "subcritical":
        tol = PROFILE_TOLERANCES["subcritical"]
        early, late = tol["early_min"], tol["late_max"]
        windows = "beta <= 0.75 or beta >= 1.25"
        for beta, d in mean_dist.items():
            if beta <= 0.75:
                verdict = Verdict(f"early_distance_beta_{beta:g}", d > early, d, f"> {early}")
                manifest.verdicts.append(verdict)
            elif beta >= 1.25:
                manifest.check(f"late_distance_beta_{beta:g}", d, late)
    else:
        limit = config.limit_regime()
        prefix, first_beta, tol, shown = PROFILE_GAPS[limit]
        windows = f"beta >= {first_beta:g}"
        grid, m, alpha = config.time_grid(), config.params.m, config.params.alpha
        for beta, d in mean_dist.items():
            if beta < first_beta:
                continue  # the tail and the plateau come only past the step
            if limit == "supercritical_ent":
                want = meanfield.limiting_profile("supercritical_alpha", alpha * grid[beta], m)
            else:
                want = meanfield.limiting_profile(limit, beta, m, config.c)
            manifest.check(f"{prefix}_beta_{beta:g}", abs(d - want), tol, f"|d - {shown}| < {tol}")
    if not manifest.verdicts:  # a grid that checks nothing fails, as a KS test of no samples
        manifest.verdicts.append(Verdict("checked_betas", False, 0.0, f"> 0 betas with {windows}"))


# -- qsd -------------------------------------------------------------------

QSD_IOTA_RELERR_TOL = 0.25
QSD_KS_TOL = 0.08
TAU_JUMP_REPS = 600  # tau_jump samples per seed


def _qsd_seed(config: ExperimentConfig, seed: int):
    prm = config.params
    graph, used = _accepted_graph(config, seed, need_all_communities=True)
    cap = math.ceil(6 * config.t_ent * math.log(prm.n))
    rows, per_community = zip(*(_qsd_community(config, graph, i, cap) for i in range(prm.m)))
    diag = {"seed": used} | {key: [d[key] for d in per_community] for key in per_community[0]}
    tau_jump, diag["tau_jump_censored"] = sample_tau_jump(
        graph, starts=graph.community_vertices(0), reps=TAU_JUMP_REPS, seed=used
    )
    return diag, (list(rows), tau_jump)


def _qsd_community(config: ExperimentConfig, graph: Digraph, i: int, cap: int):
    """Community i's qsd CSV row and diagnostics, holding no other community's kernels.

    The local P^T is dropped once q is read, since the rest reads only the
    merged kernel, and the merged kernel dies on return.
    """
    view = qsd.community_view(graph, i)
    merged = qsd.build_merged_kernel(view)
    sol = qsd.quasi_stationary(view, merged)
    q = qsd.restart_rate(view, sol)
    drop_transition_operator(view.local)
    t_mix, starts = qsd.mixing_time_estimate(merged, cap, config.sample_starts)
    mass = qsd.return_mass(merged, t_mix)
    hit = qsd.hitting_time_estimates(view, mass)
    exhaustive = starts.size == merged.n_states
    diag = {
        "local_stationary": _solver_diagnostics(view.pi_local),
        "qsd": {"iterations": sol.iterations, "residual": sol.residual},
        "mixing_time_exhaustive": exhaustive,
        "mixing_time_starts": int(starts.size),
        # the witnesses as community labels; the last start is the merged state
        "mixing_time_witnesses": [] if exhaustive else view.kept[starts[:-1]].tolist(),
        "return_mass_horizon": mass.t_horizon,
        "hitting_oracle": {"z": mass.z, "bound": mass.bound, "steps": mass.steps},
    }
    row = [i, sol.iota, qsd.iota_first_order(config.params), mass.r_tilde, t_mix]
    row += [hit.estimate, hit.oracle, view.gate_labels.size, qsd.nice_fraction(graph, view), q]
    return row, diag


def _ks_exp1(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a nonnegative sample and Exp(1)."""
    cdf = -np.expm1(-np.sort(x))
    steps = np.arange(cdf.size + 1) / cdf.size
    return float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))


def _ks_geometric_exp1(q: list[float], alpha: float) -> float:
    """Exact KS distance between alpha*T and Exp(1), T the equal mixture of Geometric(q_j).

    T lives on {1, 2, ...}, so its CDF is flat on [k, k+1): the gap is
    read at both ends of every step, out to the first k where each law's
    tail, and so the mixture's, is below 1e-12; past that k no gap
    exceeds the last one read by more than 1e-12.
    """
    k = np.arange(math.ceil(math.log(1e-12) / math.log1p(-min(q))) + 1)
    tail = sum(np.exp(k * math.log1p(-r)) for r in q) / len(q)  # P(T > k)
    survival = np.exp(-alpha * np.append(k, k[-1] + 1))  # P(Exp(1) > alpha k)
    return float(max(np.abs(survival[:-1] - tail).max(), np.abs(survival[1:] - tail).max()))


def run_qsd_experiment(config: ExperimentConfig) -> RunManifest:
    """Per-community escape pipeline plus the restart and jump laws of community 0."""
    with _run(config, _qsd_seed) as (manifest, per_seed):
        header = [
            "i",
            "iota",
            "lambda_alpha_logn",
            "r_tilde",
            "t_mix",
            "hitting_estimate",
            "hitting_oracle",
            "gate_count",
            "nice_fraction",
            "q",
        ]
        for used, (rows, _) in zip(manifest.seeds_used, per_seed):
            manifest.write_csv(f"qsd_seed{used}.csv", header, rows)

        first_order = qsd.iota_first_order(config.params)
        iotas = np.array([row[1] for rows, _ in per_seed for row in rows])
        rel = np.abs(iotas / first_order - 1.0)
        manifest.check(
            "iota_first_order_relerr",
            np.median(rel),
            QSD_IOTA_RELERR_TOL,
            f"median < {QSD_IOTA_RELERR_TOL}",
        )
        alpha = config.params.alpha
        q = [rows[0][-1] for rows, _ in per_seed]  # community 0's restart rate per seed
        manifest.check("ks_alpha_tau_rho_exp1", _ks_geometric_exp1(q, alpha), QSD_KS_TOL)
        # the tau_jump KS test sees the uncensored samples; the verdict counts
        # the rest, and with none left reads the largest KS distance, 1, and fails
        arr = np.concatenate([tj for _, tj in per_seed])
        censored = sum(r["tau_jump_censored"] for r in manifest.diagnostics["per_seed"])
        manifest.check(
            "ks_alpha_tau_jump_exp1",
            _ks_exp1(alpha * arr) if arr.size else 1.0,
            QSD_KS_TOL,
            censored=censored,
            censoring_bound=censored / (arr.size + censored),
        )
    return manifest


# -- annealed ---------------------------------------------------------------

ANNEALED_MAX_SE = 3.0  # largest deviation, in standard errors, of either verdict


def _annealed_seed(config: ExperimentConfig, seed: int, t: int, reps: int, t_max: int):
    prm = config.params
    law = annealed_community_law(prm, start=0, t=t, reps=reps, seed=seed)
    surv = annealed_jump_survival(prm, t_max=t_max, reps=reps // 5, seed=seed)
    diag = {
        "seed": seed,
        "law_stuck": law.stuck,
        "law_cycle_free_rate": law.cycle_free_rate,
        "survival_stuck": surv.stuck,
    }
    return diag, (law, surv)


def _pooled(results, counts: str):
    """The first of ``results`` with the count field ``counts``, ``stuck`` and ``reps`` summed."""
    sums = {f: sum(getattr(r, f) for r in results) for f in (counts, "stuck", "reps")}
    return replace(results[0], **sums)


def run_annealed_experiment(
    config: ExperimentConfig, t: int = 10, reps: int = 100_000, t_max: int = 50
) -> RunManifest:
    """Revealed-walk community law and jump survival tables from the counts of every seed."""
    seed_fn = functools.partial(_annealed_seed, t=t, reps=reps, t_max=t_max)
    with _run(config, seed_fn) as (manifest, per_seed):
        laws, survs = zip(*per_seed)
        law, surv = _pooled(laws, "counts"), _pooled(survs, "survivors")
        law_rows = [
            [t, i, law.conditional[i], law.conditional_se[i], law.q_row[i]]
            for i in range(config.params.m)
        ]
        law_header = ["t", "community", "frequency", "stderr", "q_closed_form"]
        manifest.write_csv("annealed_law.csv", law_header, law_rows)
        surv_rows = zip(surv.times, surv.survival, surv.stderr, surv.theory)
        surv_header = ["t", "survival", "stderr", "theory"]
        manifest.write_csv("annealed_survival.csv", surv_header, surv_rows)

        shown = f"< {ANNEALED_MAX_SE:g} SE"
        dev = np.max(np.abs(law.conditional - law.q_row) / np.maximum(law.conditional_se, 1e-300))
        manifest.check("community_law_max_dev_se", dev, ANNEALED_MAX_SE, shown)
        end_dev = abs(surv.survival[-1] - surv.theory[-1]) / max(surv.stderr[-1], 1e-300)
        manifest.check("jump_survival_end_dev_se", end_dev, ANNEALED_MAX_SE, shown)
    return manifest


# -- proxy -------------------------------------------------------------------

# Bound on max_i TV(nu_i, exact law_i).  Swept over n in {200, 500, 1000,
# 4000}, lambda in {1.5, 2, 3, 4}, m in {2, 3, 5}, alpha 0.3, 0.02, 0.05 and
# C = 2 (critical), seeds 1-5, schedules from the exact t_ent (960 graphs):
# surrogates read 0.0035-0.077 (above 0.05 only at n = 200, lambda = 2, a
# one-step burn-in); mixtures of the columns without their burn-in read
# 0.079-0.25 (below 0.08 on 3 graphs, all lambda 4, n = 4000, m = 2); mixing
# by Q^L in place of Q^(L+1) reads 0.0083-0.15, which no bound catches at
# every size.
PROXY_TRUE_LAW_TOL = 0.08


def _proxy_seed(config: ExperimentConfig, seed: int):
    graph, used = _accepted_graph(config, seed)
    sch = TwoScaleSchedule.from_entropic_time(config.t_ent)
    sm = surrogate_measures(graph, sch)
    pi = stationary(graph)
    result = (sch, sm.tv_to_average, tv_distance(sm.average, pi), sm.tv_to_true)
    return _solver_diagnostics(pi, seed=used), result


def run_proxy_experiment(config: ExperimentConfig) -> RunManifest:
    """Two-scale surrogate sweep: spread, distance to stationarity and to the exact law."""
    with _run(config, _proxy_seed) as (manifest, per_seed):
        rows = [
            [i, tv_to_nu[i], tv_pi, tv_to_true[i], sch.eps, sch.burn_in, sch.long_leg]
            for sch, tv_to_nu, tv_pi, tv_to_true in per_seed
            for i in range(config.params.m)
        ]
        header = ["i", "tv_to_nu", "tv_nu_to_pi", "tv_to_true", "eps", "h_eps", "s_eps"]
        manifest.write_csv("proxy.csv", header, rows)
        worst = max(tv_to_true.max() for *_, tv_to_true in per_seed)
        manifest.check("tv_to_true_max", worst, PROXY_TRUE_LAW_TOL)
    return manifest


# -- generation-only ---------------------------------------------------------


def _generate_seed(config: ExperimentConfig, seed: int):
    graph, used = _accepted_graph(config, seed)
    path = Path(config.out_dir) / f"graph_seed{used}.npz"
    save_binary(graph, str(path))
    pi = stationary(graph)
    dev = np.max(np.abs(community_mass(graph, pi) - 1 / config.params.m))
    return _solver_diagnostics(pi, seed=used), (path, graph.edge_count, dev)


def run_generate(config: ExperimentConfig) -> RunManifest:
    """Generate graphs and a degree/connectivity summary, no walks."""
    with _run(config, _generate_seed) as (manifest, per_seed):
        rows = []
        for used, (path, edges, dev) in zip(manifest.seeds_used, per_seed):
            manifest.register(path)
            rows.append([used, edges, dev])
        manifest.write_csv("graphs.csv", ["seed", "edges", "community_mass_dev"], rows)
    return manifest
