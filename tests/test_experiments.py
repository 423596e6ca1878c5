"""Experiment harness and CLI tests on small, fast configurations."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, kstest

from conftest import params_from_edge_probability, spsolve_hitting_oracle

from dbmwalk import experiments, qsd, walk
from dbmwalk.annealed import annealed_community_law, annealed_jump_survival
from dbmwalk.cli import _CONFIG_KEYS, main
from dbmwalk.experiments import (
    MAX_GRAPH_REJECTS,
    QSD_KS_TOL,
    RESEED_STRIDE,
    ExperimentConfig,
    Verdict,
    _accepted_graph,
    _curve_betas,
    _ks_exp1,
    _ks_geometric_exp1,
    _new_manifest,
    _profile_verdicts,
    analytic_entropic_time,
    run_annealed_experiment,
    run_generate,
    run_profile_experiment,
    run_proxy_experiment,
    run_qsd_experiment,
)
from dbmwalk.graph import DbmParams, generate, load_binary
from dbmwalk.proxy import TwoScaleSchedule
from dbmwalk.rng import NS_EXPERIMENT, derived_rng
from dbmwalk.walk import STATIONARY_TOL


def retired_draw(graph, seed: int) -> np.ndarray:
    """The starts an early grid stepped before the collision witnesses.

    64 uniform draws of ``seed``'s experiment stream and the out-degree
    extremes, sorted and distinct.
    """
    deg = graph.out_degree
    drawn = derived_rng(seed, NS_EXPERIMENT, 0).choice(graph.vertex_count, size=64, replace=False)
    return np.unique(np.concatenate([drawn, [deg.argmin(), deg.argmax()]]))


def super_config(out_dir: str, **kw) -> ExperimentConfig:
    base = dict(n=500, m=2, lam=3.0, alpha=0.02)
    base.update({k: kw.pop(k) for k in ("n", "m", "lam", "alpha") if k in kw})
    seeds = kw.pop("seeds", (1,))
    params = DbmParams(
        n=base["n"], m=base["m"], lam=base["lam"], alpha=base["alpha"], seed=seeds[0]
    )
    return ExperimentConfig(
        params=params,
        regime="supercritical",
        beta_grid=kw.pop("beta_grid", (0.5, 1.0)),
        seeds=seeds,
        out_dir=out_dir,
        **kw,
    )


def sub_config(out_dir: str, **kw) -> ExperimentConfig:
    base = dict(n=800, m=2, lam=3.0, alpha=0.3)
    base.update({k: kw.pop(k) for k in ("n", "m", "lam", "alpha") if k in kw})
    seeds = kw.pop("seeds", (1,))
    params = DbmParams(
        n=base["n"], m=base["m"], lam=base["lam"], alpha=base["alpha"], seed=seeds[0]
    )
    return ExperimentConfig(
        params=params,
        regime="subcritical",
        beta_grid=kw.pop("beta_grid", (0.5, 1.5)),
        sample_starts=None,
        seeds=seeds,
        out_dir=out_dir,
        **kw,
    )


def read_csv_header(path: Path) -> list[str]:
    return path.read_text().splitlines()[0].split(",")


DRAWN = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def scipy_entropic_time(params: DbmParams) -> float:
    k = np.arange(params.n)
    h = float((binom.pmf(k, params.n - 1, params.p) * np.log(np.maximum(k, 1))).sum())
    return math.log(params.n) / h


@DRAWN
@given(n=st.integers(3, 20000), lam=st.floats(1e-3, 20.0))
@example(n=500, lam=3.0)
@example(n=20000, lam=1e-3)  # n * p < 1: the mode is 0
def test_analytic_entropic_time_matches_direct_sum(n, lam):
    assume(lam * math.log(n) / n <= 1.0)
    params = DbmParams(n=n, m=2, lam=lam, alpha=0.1, seed=0)
    assert analytic_entropic_time(params) == pytest.approx(scipy_entropic_time(params), rel=1e-13)


@pytest.mark.parametrize("n", [5, 50])
def test_analytic_entropic_time_at_full_density(n):
    # p = 1: every out-degree is n - 1, and the ratio recurrence never forms p/(1-p)
    params = params_from_edge_probability(n=n, m=2, p=1.0, alpha=0.1, seed=0)
    assert params.p == 1.0
    assert analytic_entropic_time(params) == pytest.approx(math.log(n) / math.log(n - 1), rel=1e-15)


@DRAWN
@given(
    size=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
    decimals=st.integers(0, 6),
    zeros=st.integers(0, 5),
)
@example(size=1, seed=0, decimals=0, zeros=1)
@example(size=5, seed=0, decimals=0, zeros=5)
def test_ks_exp1_matches_kstest(size, seed, decimals, zeros):
    # rounding makes ties, and the leading entries sit at x = 0
    rng = np.random.default_rng(seed)
    x = np.round(rng.exponential(rng.uniform(0.2, 5.0), size), decimals)
    x[:zeros] = 0.0
    assert abs(_ks_exp1(x) - kstest(x, "expon").statistic) <= 1e-15


@pytest.mark.parametrize("q", [[0.017], [0.015, 0.019, 0.021, 0.024]])
def test_ks_geometric_exp1_is_the_sup_over_a_dense_grid(q):
    # the grid reads the gap within h of each jump of T's CDF and Exp(1)'s
    # density is at most 1, so the exact sup is at least the grid maximum
    # and at most h above it
    alpha = 0.02
    x, h = np.linspace(0.0, 40.0, 2_000_000, retstep=True)
    k = np.floor(x / alpha)
    cdf = np.mean([1.0 - (1.0 - r) ** k for r in q], axis=0)
    grid = np.abs(cdf + np.expm1(-x)).max()
    exact = _ks_geometric_exp1(q, alpha)
    assert grid <= exact <= grid + h, (exact - grid, h)


def run_in_fresh_interpreter(code: str) -> None:
    """Run ``code`` with the repo's ``src`` first on the path; it passes unless it raises."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_run_imports_scipy_stats():
    # the test modules import scipy.stats themselves, so look in a fresh interpreter
    run_in_fresh_interpreter("\n".join([
        "import sys",
        "import dbmwalk.cli",
        "from dbmwalk.experiments import ExperimentConfig",
        "from dbmwalk.graph import DbmParams",
        "params = DbmParams(n=500, m=2, lam=3.0, alpha=0.02, seed=1)",
        "ExperimentConfig(params=params, regime='supercritical', beta_grid=(0.5, 1.0))",
        "ExperimentConfig.critical(n=500, m=2, lam=3.0, c=2.0, beta_grid=(0.5, 2.0))",
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.stats'))",
        "assert not loaded, loaded",
    ]))


def test_no_run_imports_scipy_linalg_or_csgraph():
    # strong connectivity is two reachability sweeps, so neither the import
    # nor a connectivity check loads csgraph or the linalg packages behind it
    run_in_fresh_interpreter("\n".join([
        "import sys",
        "import dbmwalk.cli, dbmwalk.experiments",
        "from dbmwalk.graph import DbmParams, generate, pre_rewiring_subgraph",
        "graph, _ = generate(DbmParams(n=500, m=2, lam=3.0, alpha=0.02, seed=1))",
        "assert graph.is_strongly_connected() and pre_rewiring_subgraph(graph, 0).is_strongly_connected()",
        "banned = ('scipy.stats', 'scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg')",
        "loaded = sorted(m for m in sys.modules if m.startswith(banned))",
        "assert not loaded, loaded",
    ]))


def test_subcritical_window():
    sub_config("unused")  # accepted
    with pytest.raises(ValueError, match="alpha"):
        sub_config("unused", alpha=0.6)  # cap on alpha
    with pytest.raises(ValueError, match="window"):
        # alpha*t_ent far below the cutoff product
        params = DbmParams(n=800, m=2, lam=3.0, alpha=0.01, seed=1)
        ExperimentConfig(
            params=params, regime="subcritical", beta_grid=(0.5,), out_dir="unused"
        )


def test_supercritical_window():
    super_config("unused")  # accepted
    with pytest.raises(ValueError, match="window"):
        super_config("unused", alpha=0.15)  # product too large
    with pytest.raises(ValueError, match="window"):
        super_config("unused", alpha=1e-4)  # rewiring too rare for this n
    with pytest.raises(ValueError, match="alpha"):
        super_config("unused", alpha=0.0)


def test_critical_pins_alpha():
    config = ExperimentConfig.critical(
        n=500, m=2, lam=3.0, c=2.0, beta_grid=(0.5, 2.0), out_dir="unused"
    )
    want = 1.0 / (2.0 * analytic_entropic_time(config.params))
    assert config.params.alpha == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="pins"):
        params = DbmParams(n=500, m=2, lam=3.0, alpha=0.123, seed=0)
        ExperimentConfig(
            params=params, regime="critical", c=2.0, beta_grid=(0.5,), out_dir="x"
        )
    with pytest.raises(ValueError, match="constant"):
        params = DbmParams(n=500, m=2, lam=3.0, alpha=0.1, seed=0)
        ExperimentConfig(
            params=params, regime="critical", beta_grid=(0.5,), out_dir="x"
        )


def test_config_misc_guards():
    params = DbmParams(n=500, m=2, lam=3.0, alpha=0.02, seed=1)
    good = dict(params=params, regime="supercritical", beta_grid=(1.0,), out_dir="x")
    with pytest.raises(ValueError, match="regime"):
        ExperimentConfig(**{**good, "regime": "mixed"})
    with pytest.raises(ValueError, match="timescale"):
        ExperimentConfig(**{**good, "timescale": "seconds"})
    # None starts from every state and skips the sample-size checks
    assert ExperimentConfig(**{**good, "sample_starts": None}).to_dict()["sample_starts"] is None
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig(**{**good, "beta_grid": ()})
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig(**{**good, "beta_grid": (0.5, -1.0)})
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(**{**good, "seeds": ()})
    for size in (0, -5):
        with pytest.raises(ValueError, match="witness candidate"):
            ExperimentConfig(**{**good, "sample_starts": size})
    # seed s re-draws as s + k*RESEED_STRIDE for k up to MAX_GRAPH_REJECTS
    for k in (1, MAX_GRAPH_REJECTS):
        with pytest.raises(ValueError, match=f"^seeds 2 and {2 + k * RESEED_STRIDE} can re-draw"):
            ExperimentConfig(**{**good, "seeds": (7, 2 + k * RESEED_STRIDE, 2)})
    far = (2, 2 + (MAX_GRAPH_REJECTS + 1) * RESEED_STRIDE, 3 + RESEED_STRIDE)
    assert ExperimentConfig(**{**good, "seeds": far}).seeds == far
    # every re-draw of an accepted seed is a seed a graph file stores
    top = 2**63 - 1 - MAX_GRAPH_REJECTS * RESEED_STRIDE
    assert ExperimentConfig(**{**good, "seeds": (top,)}).seeds == (top,)
    with pytest.raises(ValueError, match=rf"^seed {top + 1} can re-draw past 2\*\*63: "):
        ExperimentConfig(**{**good, "seeds": (1, top + 1)})
    # the alpha*t clock belongs to the supercritical decay alone, and the
    # constant c to the critical limit alone
    sub = DbmParams(n=800, m=2, lam=3.0, alpha=0.3, seed=1)
    clock = "^timescale inverse_alpha is supercritical-only, not"
    with pytest.raises(ValueError, match=f"{clock} subcritical$"):
        ExperimentConfig(
            params=sub, regime="subcritical", beta_grid=(1.5,), timescale="inverse_alpha"
        )
    with pytest.raises(ValueError, match=f"{clock} critical$"):
        ExperimentConfig.critical(
            n=800, m=2, lam=3.0, c=2.0, beta_grid=(2.0, 3.0), timescale="inverse_alpha"
        )
    with pytest.raises(ValueError, match="^the constant c is critical-only, got c=2.0 in super"):
        ExperimentConfig(**{**good, "c": 2.0})


def test_time_grid_and_limit_regime():
    config = super_config("unused", beta_grid=(0.5, 1.0, 2.0))
    t_ent = config.t_ent
    grid = config.time_grid()
    for beta in (0.5, 1.0, 2.0):
        assert grid[beta] == max(1, round(beta * t_ent))
    assert config.limit_regime() == "supercritical_ent"
    inv = super_config("unused", timescale="inverse_alpha", beta_grid=(0.1, 0.4))
    assert inv.time_grid() == {0.1: round(0.1 / 0.02), 0.4: round(0.4 / 0.02)}
    assert inv.limit_regime() == "supercritical_alpha"
    assert sub_config("unused").limit_regime() == "subcritical"


def profile_verdicts(config: ExperimentConfig, mean_dist: dict[float, float]) -> list:
    manifest = _new_manifest(config)
    _profile_verdicts(config, mean_dist, manifest)
    return [(v.name, v.passed, v.value, v.tolerance) for v in manifest.verdicts]


def test_profile_verdicts_in_every_regime():
    # hand-set seed means against the closed-form limits, one branch each
    def gap(x):
        return pytest.approx(abs(x), rel=1e-12)

    sub = {0.5: 0.9, 0.75: 0.7, 1.0: 0.5, 1.25: 0.2, 2.0: 0.3}
    assert profile_verdicts(sub_config("unused"), sub) == [
        ("early_distance_beta_0.5", True, 0.9, "> 0.8"),
        ("early_distance_beta_0.75", False, 0.7, "> 0.8"),
        ("late_distance_beta_1.25", True, 0.2, "< 0.25"),
        ("late_distance_beta_2", False, 0.3, "< 0.25"),
    ]
    # critical, m = 2, C = 2: limit (1/2) exp(-(beta / C) * m / (m - 1)) = exp(-beta) / 2
    critical = ExperimentConfig.critical(
        n=500, m=2, lam=3.0, c=2.0, beta_grid=(1.5, 2.0, 3.0), out_dir="unused"
    )
    assert profile_verdicts(critical, {1.5: 0.9, 2.0: 0.1, 3.0: 0.3}) == [
        ("tail_gap_beta_2", True, gap(0.1 - math.exp(-2.0) / 2), "|d - limit| < 0.15"),
        ("tail_gap_beta_3", False, gap(0.3 - math.exp(-3.0) / 2), "|d - limit| < 0.15"),
    ]
    # alpha time scale, m = 3: limit (2/3) exp(-beta * 3/2), checked from the first beta
    inv = super_config("unused", m=3, timescale="inverse_alpha", beta_grid=(0.5, 1.0))
    assert profile_verdicts(inv, {0.5: 0.3, 1.0: 0.6}) == [
        ("curve_gap_beta_0.5", True, gap(0.3 - 2 / 3 * math.exp(-0.75)), "|d - limit| < 0.1"),
        ("curve_gap_beta_1", False, gap(0.6 - 2 / 3 * math.exp(-1.5)), "|d - limit| < 0.1"),
    ]
    # entropic time scale, m = 3: from beta = 2 on, the plateau 2/3 as
    # the mean field at the same step t has it, (2/3) exp(-alpha t * 3/2)
    ent = super_config("unused", m=3, beta_grid=(0.5, 2.0, 3.0))
    grid = ent.time_grid()
    mean_field = {b: 2 / 3 * math.exp(-0.02 * grid[b] * 1.5) for b in (2.0, 3.0)}
    assert mean_field[3.0] < mean_field[2.0] < 2 / 3
    shown = "|d - mean field at t| < 0.12"
    assert profile_verdicts(ent, {0.5: 0.99, 2.0: 0.6, 3.0: 0.4}) == [
        ("plateau_gap_beta_2", True, gap(mean_field[2.0] - 0.6), shown),
        ("plateau_gap_beta_3", False, gap(mean_field[3.0] - 0.4), shown),
    ]


@pytest.mark.parametrize(
    "argv, windows",
    [
        (["--alpha", "0.01", "--betas", "0.5,1.5"], "beta >= 2"),
        (["--regime", "critical", "--C", "2", "--betas", "0.5,1.5"], "beta >= 2"),
        (["--regime", "subcritical", "--alpha", "0.4", "--betas", "1.0"],
         "beta <= 0.75 or beta >= 1.25"),
    ],
    ids=["supercritical", "critical", "subcritical"],
)
def test_cli_profile_whose_grid_checks_nothing_fails(tmp_path, capsys, argv, windows):
    # no beta of the grid lies in a window of its regime: one failed
    # verdict names the windows, and the run exits 1
    base = ["profile", "--n", "200", "--m", "2", "--lambda", "3", "--seeds", "1"]
    assert main(base + argv + ["--out", str(tmp_path)]) == 1
    verdicts = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert verdicts == [f"[FAIL] checked_betas: value 0, tolerance > 0 betas with {windows}"]


def test_cli_profile_plateau_past_small_alpha_t_passes(tmp_path, capsys):
    # beta = 20 is t = 39 and alpha t = 0.39: the walk has left the
    # plateau (m-1)/m = 0.5 by 0.26, and the mean field at t = 39 with it
    argv = ["profile", "--n", "200", "--m", "2", "--lambda", "3", "--alpha", "0.01",
            "--seeds", "1", "--betas", "20", "--out", str(tmp_path)]
    assert main(argv) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(verdicts) == 1 and verdicts[0].startswith("[pass] plateau_gap_beta_20: ")


def test_limiting_curve_points_stay_bounded_as_beta_grows():
    # up to a largest beta of 19.5 the curve keeps its 0.05 grid, so
    # those theory.csv and profile.svg files keep their bytes
    for top, steps in [(0.5, True), (3.0, True), (19.5, True), (2.0, False), (19.5, False)]:
        grid = [b / 100.0 for b in range(5, int(100 * (top + 0.5)) + 1, 5)]
        if steps:
            grid = sorted([b for b in grid if abs(b - 1.0) > 1e-9] + [0.999, 1.001])
        assert _curve_betas(top, steps) == grid
    # beyond, at most 400 exact b/100 points, plus the two around the step
    for top in (1e4, 1e6):
        far = _curve_betas(top, True)
        assert len(far) <= 402 and 0.999 in far and 1.001 in far and far[-1] <= top + 0.5
        assert all(b == round(100 * b) / 100 for b in far if b not in (0.999, 1.001))
    assert len(_curve_betas(1e4, True)) == 402


def test_manifest_hash_and_verdicts():
    a = _new_manifest(super_config("same"))
    b = _new_manifest(super_config("same"))
    c = _new_manifest(super_config("same", alpha=0.03))
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    a.verdicts.append(Verdict("x", True, 1.0, "< 2"))
    assert a.all_passed
    a.verdicts.append(Verdict("y", False, 3.0, "< 2"))
    assert not a.all_passed


def test_write_csv_keeps_float_precision(tmp_path):
    manifest = _new_manifest(super_config(str(tmp_path)))
    value = 0.1 + 0.2  # not representable as a short decimal
    manifest.write_csv("t.csv", ["a", "b"], [[1, value]])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[1]) == value
    assert manifest.files == ["t.csv"]


def test_write_csv_writes_numpy_floats_as_their_digits(tmp_path):
    # under numpy 2, repr(np.float64(0.1)) is 'np.float64(0.1)'; a cell
    # holds the digits whatever the float's type, and an int as itself
    manifest = _new_manifest(super_config(str(tmp_path)))
    row = [np.int64(3), np.float64(0.1), np.float32(0.5), 0.1 + 0.2, "max"]
    manifest.write_csv("t.csv", ["i", "a", "b", "c", "s"], [row])
    assert (tmp_path / "t.csv").read_text() == "i,a,b,c,s\n3,0.1,0.5,0.30000000000000004,max\n"


def test_check_stores_python_types_and_shows_its_bound(tmp_path):
    manifest = _new_manifest(super_config(str(tmp_path)))
    manifest.check("a", np.float64(0.5), 1.0)
    manifest.check("b", np.float32(2.0), 1.0, "|d| < 1", censored=3, censoring_bound=0.25)
    a, b = manifest.verdicts
    assert a == Verdict("a", True, 0.5, "< 1.0")
    assert b == Verdict("b", False, 2.0, "|d| < 1", censored=3, censoring_bound=0.25)
    assert [type(v.passed) for v in manifest.verdicts] == [bool, bool]
    assert [type(v.value) for v in manifest.verdicts] == [float, float]
    assert not manifest.all_passed
    manifest.write()
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["verdicts"] == [a.__dict__, b.__dict__]


def test_accepted_graph_seed_passthrough_and_rejection():
    config = super_config("unused")
    graph, used = _accepted_graph(config, 1)
    assert used == 1
    assert graph.is_strongly_connected()
    # mean degree below one: never strongly connected, always rejected
    sparse_params = DbmParams(n=30, m=2, lam=0.2, alpha=0.5, seed=1)
    sparse = ExperimentConfig(
        params=sparse_params, regime="subcritical", beta_grid=(1.0,), out_dir="x"
    )
    with pytest.raises(RuntimeError, match="rejected"):
        _accepted_graph(sparse, 1)


def test_a_redrawn_graph_records_its_redraw_seed(tmp_path):
    # seed 5 draws a graph that is not strongly connected; its first
    # re-draw, 5 + RESEED_STRIDE, is accepted and is the seed on record
    params = DbmParams(n=40, m=2, lam=1.5, alpha=0.3, seed=5)
    config = ExperimentConfig(
        params=params, regime="subcritical", beta_grid=(1.0,), seeds=(5,), out_dir=str(tmp_path)
    )
    manifest = run_generate(config)
    redrawn = 5 + RESEED_STRIDE
    assert manifest.seeds_used == [redrawn]
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert_solver_diagnostics(diagnostics, [redrawn])
    assert manifest.files == ["graph_seed7777782.npz", "graphs.csv"]
    assert load_binary(str(tmp_path / "graph_seed7777782.npz")).params.seed == redrawn


def test_profile_run_artifacts(tmp_path):
    config = sub_config(str(tmp_path), seeds=(1, 2), beta_grid=(0.5, 2.5))
    manifest = run_profile_experiment(config)
    assert read_csv_header(tmp_path / "profile.csv") == [
        "t", "distance", "aggregation", "n", "m", "lambda", "alpha", "seed", "reference",
    ]
    assert read_csv_header(tmp_path / "theory.csv") == [
        "beta", "value", "regime", "m", "C",
    ]
    rows = (tmp_path / "profile.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * len(config.beta_grid)
    # every registered artifact exists, and the manifest round-trips
    for name in manifest.files:
        assert (tmp_path / name).exists()
    assert (tmp_path / "profile.svg").exists()
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["config"]["n"] == 800
    assert payload["seeds_used"] == [1, 2]
    assert payload["files"] == manifest.files
    names = {v["name"] for v in payload["verdicts"]}
    assert names == {"early_distance_beta_0.5", "late_distance_beta_2.5"}
    assert all(v["tolerance"] for v in payload["verdicts"])
    assert manifest.all_passed  # this config sits deep in its regime
    # the theory curve never samples the discontinuity itself
    betas = [float(r.split(",")[0]) for r in (tmp_path / "theory.csv").read_text().splitlines()[1:]]
    assert 1.0 not in betas
    assert 0.999 in betas and 1.001 in betas
    assert_solver_diagnostics(payload["diagnostics"], [1, 2], extra=("profile_compression",))
    # a grid this short is never compressed, and the record says so
    last = max(config.time_grid().values())
    for r in payload["diagnostics"]["per_seed"]:
        assert r["profile_compression"] == {
            "starts": 1600, "witnesses": [], "checkpoint": None, "rank": None, "tv_bound": 0.0,
            "tail_spectrum": None, "meanfield_rate": 1.0 - 2 * 0.3,
            "col_steps": 1600 * last,
        }


def assert_solver_diagnostics(diag: dict, seeds: list[int], extra: tuple = ()) -> None:
    """One record per seed, in seed order, for the global stationary solve."""
    records = diag["per_seed"]
    assert [r["seed"] for r in records] == seeds
    for r in records:
        assert sorted(r) == sorted(["seed", "stationary_iterations", "stationary_residual", *extra])
        assert r["stationary_iterations"] > 0
        assert r["stationary_residual"] < 1e-12


def test_compressed_profile_determinism_across_threads(tmp_path):
    # on the inverse-alpha clock the 400 start columns collapse onto a
    # few after local mixing, those are stepped once more, and the tail
    # steps the rank x rank chain they span, whose second eigenvalue is
    # near the mean field's 1 - 2 alpha; the bytes must still not depend
    # on the thread count
    def run(tag: str, threads: int) -> bytes:
        config = super_config(
            str(tmp_path / tag), n=200, alpha=0.01, seeds=(1, 2, 3), threads=threads,
            beta_grid=(0.5, 1.0, 2.0), timescale="inverse_alpha",
        )
        run_profile_experiment(config)
        payload = json.loads((tmp_path / tag / "manifest.json").read_text())
        for r in payload["diagnostics"]["per_seed"]:
            record = r["profile_compression"]
            assert record["checkpoint"] is not None
            assert record["rank"] < record["starts"] == 400
            assert record["tv_bound"] <= 0.5e-12
            assert len(record["tail_spectrum"]) == record["rank"]
            assert record["meanfield_rate"] == 1.0 - 2 * 0.01
            assert record["tail_spectrum"][0] == pytest.approx(1.0, abs=1e-12)
            assert abs(record["tail_spectrum"][1] - record["meanfield_rate"]) < 5e-3
            assert record["col_steps"] == 400 * record["checkpoint"] + record["rank"]
        return (tmp_path / tag / "profile.csv").read_bytes()

    assert run("flat", 1) == run("pooled", 4)


def test_profile_determinism_across_threads(tmp_path):
    flat = sub_config(str(tmp_path / "flat"), seeds=(1, 2, 3))
    pooled = sub_config(str(tmp_path / "pooled"), seeds=(1, 2, 3), threads=4)
    run_profile_experiment(flat)
    run_profile_experiment(pooled)
    for name in ("profile.csv", "theory.csv", "profile.svg"):
        a = (tmp_path / "flat" / name).read_bytes()
        b = (tmp_path / "pooled" / name).read_bytes()
        assert a == b, name


def test_profile_above_2000_vertices_steps_the_lumped_witnesses(tmp_path):
    # every recorded time lies past the first checkpoint, so the starts
    # are the 4 highest lumped-bound vertices of each community; they
    # read the every-vertex maximum, above the retired random starts'
    # lower estimate
    def run(tag: str, **kw) -> tuple[list[float], dict]:
        config = super_config(
            str(tmp_path / tag), n=1100, lam=2.0, alpha=0.005, beta_grid=(0.5, 1.0, 2.0),
            timescale="inverse_alpha", **kw,
        )
        assert run_profile_experiment(config).all_passed
        rows = csv.DictReader((tmp_path / tag / "profile.csv").read_text().splitlines())
        (record,) = json.loads((tmp_path / tag / "manifest.json").read_text())["diagnostics"][
            "per_seed"
        ]
        return [float(r["distance"]) for r in rows], record

    got, record = run("witness")
    every, every_record = run("every", sample_starts=None)
    drawn, drawn_record = run("k", sample_starts=2200)  # k of every vertex: exact
    compression = record["profile_compression"]
    witnesses = np.array(compression["witnesses"])
    assert compression["starts"] == witnesses.size == 8
    assert np.bincount(witnesses // 1100).tolist() == [4, 4]
    assert (compression["checkpoint"], compression["rank"]) == (32, 2)
    assert every_record["profile_compression"]["starts"] == 2200
    assert every_record["profile_compression"]["witnesses"] == []
    assert drawn_record["profile_compression"] == every_record["profile_compression"]
    assert drawn == every
    assert np.abs(np.array(got) - every).max() <= 1e-12

    graph, _ = generate(DbmParams(n=1100, m=2, lam=2.0, alpha=0.005, seed=1), record["seed"])
    pi = walk.stationary(graph)
    before = walk.mixing_profile(graph, retired_draw(graph, record["seed"]), [100, 200, 400], pi)
    assert np.all(np.array(got) >= before.distances)


def test_profile_above_2000_vertices_with_an_early_time_adds_the_collision_witnesses(tmp_path):
    # t = 1, 3, 5: before local mixing the slowest start is a local
    # feature that community masses do not see, so the lumped witnesses
    # alone read well below the profile at t = 3, which also steps the
    # collision witnesses among the 64 lowest out-degrees
    config = super_config(str(tmp_path), n=1100, lam=2.0, alpha=0.002, beta_grid=(0.5, 1.0, 2.0))
    assert run_profile_experiment(config).all_passed
    rows = csv.DictReader((tmp_path / "profile.csv").read_text().splitlines())
    got = [float(r["distance"]) for r in rows]
    (record,) = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["per_seed"]
    graph, _ = generate(config.params, record["seed"])
    pi = walk.stationary(graph)
    times = sorted(set(config.time_grid().values()))
    assert times == [1, 3, 5]
    lumped = walk.lumped_witnesses(graph, pi, walk.PROFILE_CHECKPOINT)
    local = walk.collision_witnesses(walk.transition_operator(graph), graph.out_degree, 64)
    compression = record["profile_compression"]
    assert compression["witnesses"] == np.union1d(lumped, local).tolist()
    assert compression["starts"] == len(compression["witnesses"])
    assert compression["starts"] // walk.PROFILE_STARTS_PER_RANK == 2
    assert got[1] > walk.mixing_profile(graph, lumped, times, pi).distances[1] + 0.05


@pytest.mark.parametrize("alpha", [0.002, 0.005])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_early_grid_witnesses_read_the_every_vertex_maximum(alpha, seed):
    # the entropic grid at beta 0.5, 1, 2 steps t = 1, 3, 5 on the
    # 2200 vertices: the lumped and collision witnesses read the maximum
    # over every vertex at each time, and never below the 64 uniform
    # draws and degree extremes that such a grid once stepped
    config = super_config(
        "unused", n=1100, lam=2.0, alpha=alpha, seeds=(seed,), beta_grid=(0.5, 1.0, 2.0)
    )
    graph, used = experiments._accepted_graph(config, seed)
    pi = walk.stationary(graph)
    times = sorted(set(config.time_grid().values()))
    assert times == [1, 3, 5]
    starts, _ = walk.profile_starts(graph, pi, times, config.sample_starts)
    got = walk.mixing_profile(graph, starts, times, pi).distances
    every = np.max(
        [
            walk.mixing_profile(graph, block, times, pi).distances
            for block in np.array_split(np.arange(graph.vertex_count), 4)
        ],
        axis=0,
    )
    gap = every - got
    assert np.all(gap <= 1e-15), dict(zip(times, gap.tolist()))
    retired = walk.mixing_profile(graph, retired_draw(graph, used), times, pi).distances
    assert np.all(got >= retired), dict(zip(times, (retired - got).tolist()))


def test_qsd_run_artifacts(tmp_path):
    config = super_config(str(tmp_path), seeds=(3, 4))
    manifest = run_qsd_experiment(config)
    for seed in (3, 4):
        assert read_csv_header(tmp_path / f"qsd_seed{seed}.csv") == [
            "i", "iota", "lambda_alpha_logn", "r_tilde", "t_mix",
            "hitting_estimate", "hitting_oracle", "gate_count", "nice_fraction", "q",
        ]
        rows = (tmp_path / f"qsd_seed{seed}.csv").read_text().splitlines()[1:]
        assert len(rows) == config.params.m
    assert not (tmp_path / "restart.csv").exists()
    # q = iota times the mean coin of a gate visit, and the tau_rho verdict
    # is the exact KS of the seeds' community-0 Geometric(q) laws
    rates = []  # (iota, q) per seed and community
    for seed in (3, 4):
        lines = (tmp_path / f"qsd_seed{seed}.csv").read_text().splitlines()[1:]
        rates.append([(float(r.split(",")[1]), float(r.split(",")[9])) for r in lines])
    assert all(0.0 < q <= iota for seed_rates in rates for iota, q in seed_rates)
    ks_rho = _ks_geometric_exp1([seed_rates[0][1] for seed_rates in rates], config.params.alpha)
    assert manifest.verdicts[1] == Verdict("ks_alpha_tau_rho_exp1", True, ks_rho, f"< {QSD_KS_TOL}")
    names = [v.name for v in manifest.verdicts]
    assert names[0] == "iota_first_order_relerr"
    assert "ks_alpha_tau_rho_exp1" in names
    assert "ks_alpha_tau_jump_exp1" in names
    for v in manifest.verdicts:
        assert math.isfinite(v.value)
    # censored samples and sampled mixing estimates are counted, not dropped
    records = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["per_seed"]
    assert [r["seed"] for r in records] == [3, 4]
    for diag in records:
        assert sorted(diag) == [
            "hitting_oracle", "local_stationary", "mixing_time_exhaustive",
            "mixing_time_starts", "mixing_time_witnesses", "qsd",
            "return_mass_horizon", "seed", "tau_jump_censored",
        ]
        assert len(diag["qsd"]) == config.params.m
        assert all(r["residual"] < STATIONARY_TOL and r["iterations"] > 0 for r in diag["qsd"])
        csv = (tmp_path / f"qsd_seed{diag['seed']}.csv").read_text().splitlines()[1:]
        # every merged state (the kept labels and the merged gate state) is a start
        assert diag["mixing_time_exhaustive"] == [True] * config.params.m
        gates = [int(row.split(",")[7]) for row in csv]
        assert diag["mixing_time_starts"] == [config.params.n - g + 1 for g in gates]
        assert diag["mixing_time_witnesses"] == [[]] * config.params.m
        # the horizon return_mass used, t_mix * log(1 / min pi~) > t_mix,
        # per community
        t_mix = [int(row.split(",")[4]) for row in csv]
        horizons = diag["return_mass_horizon"]
        assert len(horizons) == config.params.m
        assert all(isinstance(h, int) and h > t for h, t in zip(horizons, t_mix))
        assert len(diag["local_stationary"]) == config.params.m
        assert all(r["stationary_residual"] < 1e-12 for r in diag["local_stationary"])
        assert 0 <= diag["tau_jump_censored"] <= 600
    # the sampled KS verdict counts the censored samples it left out, over
    # all seeds; the tau_rho verdict reads an exact law and censors nothing
    censored = {v.name: v.censored for v in manifest.verdicts}
    jump_censored = sum(r["tau_jump_censored"] for r in records)
    assert censored == {
        "iota_first_order_relerr": None,
        "ks_alpha_tau_rho_exp1": None,
        "ks_alpha_tau_jump_exp1": jump_censored,
    }
    # and bounds the CDF shift that conditioning on the kept ones causes
    # by the censored share of the 2 x 600 samples
    bounds = {v.name: v.censoring_bound for v in manifest.verdicts}
    assert bounds == {
        "iota_first_order_relerr": None,
        "ks_alpha_tau_rho_exp1": None,
        "ks_alpha_tau_jump_exp1": jump_censored / 1200,
    }
    with pytest.raises(ValueError, match="alpha"):
        run_qsd_experiment(super_config(str(tmp_path), alpha=0.0))


def test_qsd_exhaustive_starts_cover_a_large_merged_space(tmp_path):
    # about 50 gates per community at this alpha leave a merged space above
    # the 2000 states up to which every start is stepped at any sample size
    config = super_config(str(tmp_path / "every"), n=2200, alpha=0.001, sample_starts=None)
    run_qsd_experiment(config)
    rows = [r.split(",") for r in (tmp_path / "every/qsd_seed1.csv").read_text().splitlines()[1:]]
    gate_counts = [int(row[7]) for row in rows]
    assert all(config.params.n - g + 1 > 2000 for g in gate_counts)
    (diag,) = json.loads((tmp_path / "every/manifest.json").read_text())["diagnostics"]["per_seed"]
    assert diag["mixing_time_exhaustive"] == [True] * config.params.m
    assert diag["mixing_time_starts"] == [config.params.n - g + 1 for g in gate_counts]

    # the default k steps the merged state, two collision witnesses and the
    # lowest-out-degree candidate when it is not one of them, recorded as
    # distinct non-gate labels, and reads the same t_mix here
    run_qsd_experiment(super_config(str(tmp_path / "witness"), n=2200, alpha=0.001))
    csv = (tmp_path / "witness/qsd_seed1.csv").read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in csv] == [row[4] for row in rows]
    payload = json.loads((tmp_path / "witness/manifest.json").read_text())
    (diag,) = payload["diagnostics"]["per_seed"]
    assert diag["mixing_time_exhaustive"] == [False] * config.params.m
    graph, _ = generate(config.params, diag["seed"])
    for i, labels in enumerate(diag["mixing_time_witnesses"]):
        assert len(set(labels)) == len(labels) in (2, 3)
        assert diag["mixing_time_starts"][i] == len(labels) + 1
        assert not graph.rewired_out_degree[i * config.params.n + np.array(labels)].any()


def test_qsd_run_reads_the_hitting_oracle_above_2000_vertices(tmp_path):
    # at 2200 vertices per community every row has a finite oracle, z / pi~(d)
    # of the manifest's return sum, whose tail bound passes and holds against
    # the sparse direct solve
    config = super_config(str(tmp_path), n=2200, alpha=0.001)
    run_qsd_experiment(config)
    rows = [r.split(",") for r in (tmp_path / "qsd_seed1.csv").read_text().splitlines()[1:]]
    (diag,) = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["per_seed"]
    records, horizons = diag["hitting_oracle"], diag["return_mass_horizon"]
    assert len(rows) == len(records) == len(horizons) == config.params.m
    graph, _ = generate(config.params, diag["seed"])
    for row, record, horizon in zip(rows, records, horizons):
        oracle = float(row[6])
        assert math.isfinite(oracle) and record["steps"] >= horizon
        assert record["bound"] <= qsd.HITTING_ORACLE_RTOL * record["z"]
        view = qsd.community_view(graph, int(row[0]))
        assert view.n > 2000 and oracle == record["z"] / view.gate_mass
        assert abs(oracle - spsolve_hitting_oracle(view)) <= record["bound"] / view.gate_mass


# Traced peak of one full-size escape-n20000 seed (n = 20000, m = 2,
# lambda = 2, alpha = 0.002): generation, acceptance, both communities'
# escape pipeline and the tau_jump sampler.  tracemalloc, numpy 2.4.6,
# scipy 1.17.1: 51.6-51.8 MB on seeds 1-4 and 101 while the graph cached a
# per-edge source array, each view a survivor kernel and the next community
# started beside the last one's kernels; 30.7-30.8 MB holding one
# community's kernels at a time, the peak inside build_merged_kernel.  Each
# of three leaks alone reads above the bound on seed 1: the cached source
# array 37.4 MB, the local P^T kept past q 36.9 MB, the first community's
# merged kernel kept through the second 35.7 MB.
ESCAPE_SEED_PEAK_BOUND_MB = 34.0


def test_an_escape_seed_holds_one_community_at_a_time(tmp_path):
    config = super_config(
        str(tmp_path), n=20000, lam=2.0, alpha=0.002, beta_grid=(0.5, 1.0, 2.0, 5.0)
    )
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        experiments._qsd_seed(config, 1)
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak_mb < ESCAPE_SEED_PEAK_BOUND_MB


def test_qsd_run_fails_a_ks_verdict_whose_samples_are_all_censored(tmp_path, monkeypatch):
    # with every jump time censored the law is not checked, so its verdict
    # reads the largest KS distance, fails, and keeps the censored count
    def all_censored(graph, *, starts, reps, seed):
        return np.empty(0), reps

    monkeypatch.setattr(experiments, "sample_tau_jump", all_censored)
    manifest = run_qsd_experiment(super_config(str(tmp_path), seeds=(3,)))
    payload = json.loads((tmp_path / "manifest.json").read_text())
    (diag,) = payload["diagnostics"]["per_seed"]
    assert diag["tau_jump_censored"] == 600
    verdict = Verdict(
        "ks_alpha_tau_jump_exp1", False, 1.0, f"< {QSD_KS_TOL}",
        censored=600, censoring_bound=1.0,
    )
    assert manifest.verdicts[-1] == verdict
    assert payload["verdicts"][-1] == verdict.__dict__
    assert not manifest.all_passed


def test_annealed_run_artifacts(tmp_path):
    config = super_config(str(tmp_path), n=400, alpha=0.05, seeds=(2,))
    manifest = run_annealed_experiment(config, t=4, reps=4000, t_max=20)
    assert read_csv_header(tmp_path / "annealed_law.csv") == [
        "t", "community", "frequency", "stderr", "q_closed_form",
    ]
    assert read_csv_header(tmp_path / "annealed_survival.csv") == [
        "t", "survival", "stderr", "theory",
    ]
    law_rows = (tmp_path / "annealed_law.csv").read_text().splitlines()[1:]
    assert len(law_rows) == config.params.m
    surv_rows = (tmp_path / "annealed_survival.csv").read_text().splitlines()[1:]
    assert len(surv_rows) == 21
    assert [v.name for v in manifest.verdicts] == [
        "community_law_max_dev_se",
        "jump_survival_end_dev_se",
    ]
    assert all(math.isfinite(v.value) for v in manifest.verdicts)
    # stuck walks are counted, never dropped silently
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["seeds_used"] == [2]
    (diag,) = payload["diagnostics"]["per_seed"]
    assert sorted(diag) == ["law_cycle_free_rate", "law_stuck", "seed", "survival_stuck"]
    assert diag["law_stuck"] == 0 and diag["survival_stuck"] == 0
    assert 0.9 < diag["law_cycle_free_rate"] < 1.0


def test_annealed_run_pools_every_seed(tmp_path):
    # the tables come from the law and survival counts summed over the seeds
    def run(threads):
        config = super_config(str(tmp_path / f"threads{threads}"), n=400, alpha=0.05,
                              seeds=(2, 3), threads=threads)
        return config, run_annealed_experiment(config, t=4, reps=4000, t_max=20)

    config, manifest = run(1)
    assert manifest.seeds_used == [2, 3]
    assert len(manifest.diagnostics["per_seed"]) == 2
    prm = config.params
    laws = [annealed_community_law(prm, start=0, t=4, reps=4000, seed=s) for s in (2, 3)]
    survs = [annealed_jump_survival(prm, t_max=20, reps=800, seed=s) for s in (2, 3)]
    counts, survivors = laws[0].counts + laws[1].counts, survs[0].survivors + survs[1].survivors
    freq, survival = counts / counts.sum(), survivors / 1600
    law_table = np.column_stack([
        np.full(2, 4), np.arange(2), freq, np.sqrt(freq * (1 - freq) / counts.sum()),
        laws[0].q_row,
    ])
    surv_table = np.column_stack([
        np.arange(21), survival, np.sqrt(np.maximum(survival * (1 - survival), 1e-300) / 1600),
        survs[0].theory,
    ])
    out = Path(config.out_dir)
    for name, table in (("annealed_law.csv", law_table), ("annealed_survival.csv", surv_table)):
        assert np.array_equal(np.loadtxt(out / name, delimiter=",", skiprows=1), table)
    assert not np.array_equal(freq, laws[0].conditional)  # neither seed alone
    threaded = Path(run(2)[0].out_dir)
    for name in ("annealed_law.csv", "annealed_survival.csv"):
        assert (threaded / name).read_bytes() == (out / name).read_bytes()


def test_proxy_and_generate_runs(tmp_path):
    config = super_config(str(tmp_path / "proxy"), seeds=(1,))
    manifest = run_proxy_experiment(config)
    assert read_csv_header(tmp_path / "proxy" / "proxy.csv") == [
        "i", "tv_to_nu", "tv_nu_to_pi", "tv_to_true", "eps", "h_eps", "s_eps",
    ]
    assert manifest.all_passed
    assert [v.name for v in manifest.verdicts] == ["tv_to_true_max"]
    assert_solver_diagnostics(manifest.diagnostics, [1])

    gen = super_config(str(tmp_path / "gen"), seeds=(5,))
    manifest = run_generate(gen)
    assert (tmp_path / "gen" / "graph_seed5.npz").exists()
    assert read_csv_header(tmp_path / "gen" / "graphs.csv") == [
        "seed", "edges", "community_mass_dev",
    ]
    assert manifest.seeds_used == [5]
    assert_solver_diagnostics(
        json.loads((tmp_path / "gen" / "manifest.json").read_text())["diagnostics"], [5]
    )


def test_proxy_schedule_comes_from_the_exact_entropic_time(tmp_path):
    # the exact t_ent (2.5103) admits the run and sets the schedule; this
    # graph's empirical t_ent (2.4969) would give h_eps = s_eps = 1
    config = sub_config(str(tmp_path), n=500, lam=2.0, seeds=(1,))
    assert config.t_ent == pytest.approx(2.5103, abs=1e-4)
    run_proxy_experiment(config)
    sch = TwoScaleSchedule.from_entropic_time(config.t_ent)
    assert (sch.burn_in, sch.long_leg) == (2, 2)
    rows = (tmp_path / "proxy.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-2:] for row in rows] == [["2", "2"]] * config.params.m


def test_proxy_verdict_passes_on_the_readme_example(tmp_path, capsys):
    # README: dbmwalk proxy --regime subcritical --n 4000 --m 2 --lambda 2 --alpha 0.3
    argv = ["proxy", "--regime", "subcritical", "--n", "4000", "--m", "2", "--lambda", "2"]
    assert main(argv + ["--alpha", "0.3", "--out", str(tmp_path)]) == 0
    assert "[pass] tv_to_true_max" in capsys.readouterr().out
    with open(tmp_path / "proxy.csv", newline="") as fh:
        worst = max(float(row["tv_to_true"]) for row in csv.DictReader(fh))
    assert 0.0 < worst < experiments.PROXY_TRUE_LAW_TOL


def test_generated_graph_files_record_their_own_seed(tmp_path):
    run_generate(super_config(str(tmp_path), n=200, seeds=(1, 2)))
    loaded = load_binary(str(tmp_path / "graph_seed2.npz"))
    assert loaded.params.seed == 2
    regenerated, _ = generate(loaded.params)
    assert np.array_equal(regenerated.indptr, loaded.indptr)
    assert np.array_equal(regenerated.targets, loaded.targets)


def test_cli_proxy_run_and_report(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(
        [
            "proxy", "--n", "500", "--m", "2", "--lambda", "3", "--alpha", "0.02",
            "--seeds", "1", "--out", out,
        ]
    )
    shown = capsys.readouterr().out
    assert code == 0
    assert "[pass] tv_to_true_max" in shown
    assert "artifacts: proxy.csv" in shown

    code = main(["report", out])
    shown = capsys.readouterr().out
    assert code == 0
    payload = json.loads(shown)
    assert payload["config"]["n"] == 500


def assert_refused(capsys, argv: list[str], pattern: str) -> None:
    """main refuses argv: exit 2, nothing on stdout, one stderr line.

    The line reads ``dbmwalk <command>: <message>`` and the message
    matches ``pattern`` (searched, as ``pytest.raises(match=...)`` does).
    """
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    prefix = f"dbmwalk {argv[0]}: "
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err
    assert re.search(pattern, err[len(prefix) : -1]), err


def test_cli_rejects_out_of_regime_parameters(tmp_path, capsys):
    argv = ["profile", "--n", "800", "--m", "2", "--lambda", "3", "--alpha", "0.01"]
    argv += ["--regime", "subcritical", "--out", str(tmp_path)]
    assert_refused(capsys, argv, "invalid configuration")


def test_cli_critical_needs_constant(tmp_path, capsys):
    assert_refused(capsys, ["profile", "--regime", "critical", "--out", str(tmp_path)], "--C")


def test_cli_needs_alpha(tmp_path, capsys):
    assert_refused(capsys, ["profile", "--n", "500", "--out", str(tmp_path)], "alpha")


def test_cli_config_file_with_flag_override(tmp_path):
    out = str(tmp_path / "run")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 300, "m": 2, "lambda": 3.0, "alpha": 0.02,
                "regime": "supercritical", "seeds": "7", "out_dir": out,
            }
        )
    )
    code = main(["generate", "--config", str(cfg), "--n", "400"])
    assert code == 0
    payload = json.loads((Path(out) / "manifest.json").read_text())
    assert payload["config"]["n"] == 400  # flag wins over the file
    assert payload["config"]["seeds"] == [7]
    assert (Path(out) / "graph_seed7.npz").exists()


def test_cli_config_file_with_unknown_regime(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regime": "mixed", "alpha": 0.02}))
    argv = ["profile", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert_refused(capsys, argv, "^invalid configuration: unknown regime 'mixed'$")


@pytest.mark.parametrize(
    "raw", [{"seeds": 3}, {"beta_grid": 0.5}, {"alpha": "0.02"}], ids=["seeds", "beta_grid", "alpha"]
)
def test_cli_config_file_value_of_the_wrong_type(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.02, **raw}))
    argv = ["generate", "--n", "300", "--config", str(cfg), "--out", str(tmp_path / "run")]
    assert_refused(capsys, argv, "^invalid configuration: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "raw, flags, message",
    [
        ({"n": 400.0}, [], "n must be an integer, got 400.0"),
        ({"m": True}, [], "m must be an integer, got True"),
        ({"seeds": [1.7, 2.2]}, [], "seed must be an integer, got 1.7"),
        ({"sample_starts": 10.5}, [], "sample_starts must be an integer, got 10.5"),
        ({"threads": 1.5}, [], "threads must be an integer, got 1.5"),
        ({}, ["--threads", "-3"], "need at least one thread, got -3"),
        ({}, ["--seeds", "1,1", "--threads", "2"], r"seeds must be distinct, got \[1, 1\]"),
        ({"seeds": []}, [], "need at least one seed"),
        ({"seeds": [5, 7777782]}, [], "seeds 5 and 7777782 can re-draw one graph: .*"),
        ({}, ["--seeds", "1,x"], "--seeds: 'x' is not an integer"),
        ({}, ["--betas", "0.5,abc"], "--betas: 'abc' is not a number"),
        ({}, ["--starts", "abc"], "--starts: 'abc' is not an integer"),
        ({"beta_grid": [0.5, "abc"]}, [], "beta_grid: 'abc' is not a number"),
        (
            {"regime": "subcritical", "alpha": 0.3, "timescale": "inverse_alpha"},
            [],
            "timescale inverse_alpha is supercritical-only, not subcritical",
        ),
        (
            {"regime": "critical", "c": 2.0},
            [],
            r"critical regime pins alpha = 1/\(c\*t_ent\) = 0\.246087, config has 0\.02",
        ),
        ({"lambda": True}, [], "lambda must be a real number, got True"),
        ({"regime": "critical", "c": True}, [], "c must be a real number, got True"),
        ({"beta_grid": [True, 2]}, [], "beta_grid must be a real number, got True"),
        ({"out_dir": 5}, [], "out_dir must be a string, got 5"),
        ({"out_dir": None}, [], "out_dir must be a string, got None"),
        ({}, ["--betas", "inf"], "beta_grid must be finite, got inf"),
        ({}, ["--betas", "1e308"], r"beta 1e\+308 takes inf steps, not below 2\*\*63"),
        ({}, ["--betas", "1e30"], r"beta 1e\+30 takes 2\.03e\+30 steps, not below 2\*\*63"),
        ({"beta_grid": [math.inf]}, [], "beta_grid must be finite, got inf"),
        ({}, ["--betas", "nan"], "beta_grid must be finite, got nan"),
        ({"regime": "critical", "alpha": None}, ["--C", "nan"], "c must be finite, got nan"),
        ({"regime": "critical", "alpha": None}, ["--C", "inf"], "c must be finite, got inf"),
        (
            {"regime": "critical", "alpha": None},
            ["--C", "0"],
            "critical regime needs a positive constant c",
        ),
        ({}, ["--seeds", "-1"], "seed must be non-negative, got -1"),
        ({}, ["--seeds", str(2**63)], r"seed must be below 2\*\*63, got 9223372036854775808"),
        (
            {},
            ["--seeds", str(2**63 - 1)],
            r"seed 9223372036854775807 can re-draw past 2\*\*63: "
            r"retry k of seed s generates with s \+ k\*7777777, k up to 5",
        ),
        ({"thread": 2}, [], r".*cfg\.json: unknown key 'thread'"),
        ({"start_policy": "exhaustive"}, [], r".*cfg\.json: unknown key 'start_policy'"),
        ({"base_seed": 1}, [], r".*cfg\.json: unknown key 'base_seed'"),
        ({}, ["--starts", "sampled"], "--starts: 'sampled' is not an integer"),
    ],
    ids=["float_n", "bool_m", "float_seeds", "float_starts", "float_threads",
         "negative_threads", "duplicate_seeds", "empty_seeds", "seeds_sharing_a_redraw",
         "bad_seed_flag", "bad_beta_flag", "bad_starts_flag", "bad_beta_key",
         "subcritical_on_alpha_clock", "critical_alpha_mismatch",
         "bool_lambda", "bool_c", "bool_beta", "int_out_dir", "null_out_dir",
         "inf_beta_flag", "overflowing_beta_flag", "int64_beta_flag", "inf_beta_key", "nan_beta_flag", "nan_critical_c",
         "inf_critical_c", "zero_critical_c", "negative_seed", "big_seed",
         "seed_redrawing_past_int64", "unknown_key",
         "start_policy_key", "base_seed_key", "sampled_starts_flag"],
)
def test_cli_config_is_validated_not_coerced(tmp_path, capsys, raw, flags, message):
    # each of these used to run: truncated, recorded as given, on a clock
    # its regime's limit is not stated on, with an alpha the critical
    # constant overrode, or, for two threads on one seed or two seeds one
    # re-draw apart, writing the same graph file twice; a flag that is not
    # a number is refused by its name; an out_dir that is not a string
    # used to end in a TypeError traceback; an infinite beta or a critical
    # constant of zero used to end in a traceback, a NaN beta or constant
    # or an infinite constant in a failed run (exit 3), a negative seed in
    # numpy's refusal after the output directory was made, a beta whose
    # step count is infinite or not below 2**63 in an OverflowError
    # traceback (exit 1) with an empty output directory, a seed past
    # the graph file's int64 in an OverflowError traceback (exit 1) after
    # it was made, a seed whose re-draw passes it, once its first graph
    # was rejected, in a refused re-draw seed (exit 3), and an unknown
    # key (here a misspelt "threads") was silently ignored; a manifest's
    # former start_policy and base_seed keys are unknown keys too, and
    # --starts takes 'exhaustive' or a sample size, nothing else
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 300, "lambda": 3.0, "alpha": 0.02, "seeds": [1], **raw}))
    out = [] if "out_dir" in raw else ["--out", str(tmp_path / "run")]
    argv = ["generate", "--config", str(cfg)] + out + flags
    assert_refused(capsys, argv, f"^invalid configuration: {message}$")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_run_that_cannot_finish_exits_3(tmp_path, capsys):
    # at lambda = 1 an n = 300 graph sits at the connectivity threshold,
    # and every re-draw of seed 1 is rejected: a valid config, no run
    argv = ["generate", "--n", "300", "--lambda", "1", "--alpha", "0.02", "--seeds", "1"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "dbmwalk generate: graph rejected 6 consecutive times (seed 1)\n"


@pytest.mark.parametrize("under", ["", "sub"], ids=["a_file", "under_a_file"])
def test_cli_out_that_cannot_be_created_exits_3(tmp_path, capsys, under):
    # an --out naming an existing file, or a path under one, used to end
    # in a FileExistsError or NotADirectoryError traceback with exit 1,
    # the failed-verdict code
    blocker = tmp_path / "x"
    blocker.write_text("kept\n")
    argv = ["generate", "--n", "200", "--alpha", "0.05", "--seeds", "1"]
    assert main(argv + ["--out", str(blocker / under)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dbmwalk generate: ") and err.count("\n") == 1, err
    assert re.search("File exists|Not a directory", err), err
    assert [p.name for p in tmp_path.iterdir()] == ["x"]
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read .*cfg.json: No such file or directory"),
        ("[300, 2]", ".*cfg.json holds no JSON object"),
        ("{\"n\": 300,", ".*cfg.json is not valid JSON: Expecting .*"),
    ],
    ids=["missing_file", "json_list", "malformed_json"],
)
def test_cli_refuses_an_unreadable_config_file(tmp_path, capsys, text, message):
    # the file is refused before any option is read, so nothing is written
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    argv = ["generate", "--config", str(cfg), "--alpha", "0.02", "--out", str(tmp_path / "run")]
    assert_refused(capsys, argv, f"^invalid configuration: {message}$")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("starts", ["0", "-5"])
def test_cli_rejects_empty_or_negative_start_samples(tmp_path, capsys, starts):
    argv = ["generate", "--n", "300", "--lambda", "3", "--alpha", "0.02", "--seeds", "1"]
    argv += ["--starts", starts, "--out", str(tmp_path / "run")]
    assert_refused(capsys, argv, "invalid configuration: need at least one witness candidate")
    assert not (tmp_path / "run").exists()


def test_cli_exhaustive_starts_keep_their_config_hash(tmp_path):
    # --starts exhaustive and a config file's "sample_starts": null both
    # mean every state; out_dir is not hashed, so one config_hash fits both
    want = ExperimentConfig(
        params=DbmParams(n=300, m=2, lam=3.0, alpha=0.02, seed=1),
        regime="supercritical",
        beta_grid=(0.5, 1.0, 2.0, 5.0),
        sample_starts=None,
        seeds=(1,),
    )
    argv = ["generate", "--n", "300", "--lambda", "3", "--alpha", "0.02", "--seeds", "1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample_starts": None}))
    for tag, given in (("flag", ["--starts", "exhaustive"]), ("file", ["--config", str(cfg)])):
        out = tmp_path / tag
        assert main(argv + given + ["--out", str(out)]) == 0
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["config"]["sample_starts"] is None
        assert "start_policy" not in payload["config"]
        assert payload["config_hash"] == _new_manifest(want).config_hash


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "0.02", "--starts", "10"],
        ["--alpha", "0.02", "--starts", "exhaustive"],
        ["--regime", "critical", "--C", "2"],
    ],
    ids=["sampled", "exhaustive", "critical"],
)
def test_cli_replays_its_own_manifest_config(tmp_path, flags):
    argv = ["generate", "--n", "300", "--m", "2", "--lambda", "3", "--seeds", "1"] + flags
    first = tmp_path / "first"
    assert main(argv + ["--out", str(first)]) == 0
    payload = json.loads((first / "manifest.json").read_text())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload["config"]))
    again = tmp_path / "again"
    assert main(["generate", "--config", str(cfg), "--out", str(again)]) == 0
    replayed = json.loads((again / "manifest.json").read_text())
    assert replayed["config"] == payload["config"]
    assert replayed["config_hash"] == payload["config_hash"]


def test_cli_config_keys_are_the_manifest_config_keys():
    # a config file takes exactly what a manifest's config block holds,
    # plus out_dir, so a manifest replays and no accepted key goes unread
    config = ExperimentConfig(
        params=DbmParams(n=300, m=2, lam=3.0, alpha=0.02, seed=1),
        regime="supercritical",
        beta_grid=(0.5,),
    )
    assert _CONFIG_KEYS == set(config.to_dict()) | {"out_dir"}


def test_numpy_numbers_hash_like_python_numbers(tmp_path):
    # require_int and require_real take numpy scalars, and json.dumps
    # refuses numpy integers: a numpy-typed config used to fail before its
    # run started
    def config(num, real, out):
        params = DbmParams(n=num(300), m=num(2), lam=real(3.0), alpha=real(0.02), seed=num(1))
        return ExperimentConfig(
            params=params,
            regime="supercritical",
            beta_grid=(real(0.5),),
            sample_starts=num(10),
            seeds=(num(1),),
            threads=num(1),
            out_dir=str(tmp_path / out),
        )

    plain = config(int, float, "plain")
    typed = config(np.int64, np.float64, "typed")
    assert _new_manifest(typed).config_hash == _new_manifest(plain).config_hash
    manifest = run_generate(typed)
    assert manifest.config == plain.to_dict()
    assert (tmp_path / "typed" / "graph_seed1.npz").exists()
    # the annealed runner records the seed it was handed, not a redrawn one
    run_annealed_experiment(config(np.int64, np.float64, "annealed"), t=2, reps=50, t_max=4)
    assert json.loads((tmp_path / "annealed" / "manifest.json").read_text())["seeds_used"] == [1]


def test_cli_critical_config_comes_from_experiment_config(tmp_path):
    out = str(tmp_path / "run")
    argv = ["generate", "--regime", "critical", "--C", "2", "--n", "300", "--lambda", "3"]
    assert main(argv + ["--seeds", "4", "--out", out]) == 0
    payload = json.loads((Path(out) / "manifest.json").read_text())
    want = ExperimentConfig.critical(
        n=300, m=2, lam=3.0, c=2.0, seed=4, beta_grid=(0.5, 2.0, 3.0), seeds=(4,), out_dir=out
    )
    assert payload["config"] == want.to_dict()


@pytest.mark.parametrize(
    "case, message",
    [
        ("no_directory", "^cannot read .*manifest.json: No such file or directory$"),
        ("no_manifest", "^cannot read .*manifest.json: No such file or directory$"),
        ("invalid_json", "^.*manifest.json is not valid JSON: Expecting .*$"),
        ("no_verdicts", "^.*manifest.json has no valid list of verdicts$"),
        ("verdicts_object", "^.*manifest.json has no valid list of verdicts$"),
        ("text_passed", "^.*manifest.json has no valid list of verdicts$"),
    ],
    ids=["no_directory", "no_manifest", "invalid_json", "no_verdicts", "verdicts_object",
         "text_passed"],
)
def test_report_fails_cleanly_on_unreadable_runs(tmp_path, capsys, case, message):
    # a verdicts object, or a passed flag that is not a JSON boolean, used
    # to be reported with exit 0
    manifests = {
        "no_verdicts": {"config": {"n": 5}},
        "verdicts_object": {"verdicts": {}},
        "text_passed": {"verdicts": [{"passed": "false"}]},
    }
    run = tmp_path / "run"
    if case != "no_directory":
        run.mkdir()
    if case == "invalid_json":
        (run / "manifest.json").write_text("{not json")
    if case in manifests:
        (run / "manifest.json").write_text(json.dumps(manifests[case]))
    assert_refused(capsys, ["report", str(run)], message)


def test_report_exit_code_follows_verdicts(tmp_path, capsys):
    verdicts = [{"name": "a", "passed": True}, {"name": "b", "passed": False}]
    (tmp_path / "manifest.json").write_text(json.dumps({"verdicts": verdicts}))
    assert main(["report", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["verdicts"] == verdicts
