"""Experiment harness and CLI tests on small, fast configurations."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from dbmwalk.cli import main
from dbmwalk.experiments import (
    ExperimentConfig,
    Verdict,
    _accepted_graph,
    _new_manifest,
    _write_csv,
    analytic_entropic_time,
    run_annealed_experiment,
    run_generate,
    run_profile_experiment,
    run_proxy_experiment,
    run_qsd_experiment,
)
from dbmwalk.graph import DbmParams


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
        start_policy="exhaustive",
        seeds=seeds,
        out_dir=out_dir,
        **kw,
    )


def read_csv_header(path: Path) -> list[str]:
    return path.read_text().splitlines()[0].split(",")


def test_analytic_entropic_time_matches_direct_sum():
    params = DbmParams(n=500, m=2, lam=3.0, alpha=0.1, seed=0)
    k = np.arange(500)
    h = float((binom.pmf(k, 499, params.p) * np.log(np.maximum(k, 1))).sum())
    assert analytic_entropic_time(params) == pytest.approx(math.log(500) / h, rel=1e-12)


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
    with pytest.raises(ValueError, match="start policy"):
        ExperimentConfig(**{**good, "start_policy": "all"})
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig(**{**good, "beta_grid": ()})
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig(**{**good, "beta_grid": (0.5, -1.0)})
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(**{**good, "seeds": ()})


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
    path = tmp_path / "t.csv"
    value = 0.1 + 0.2  # not representable as a short decimal
    _write_csv(path, ["a", "b"], [[1, value]])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[1]) == value


def test_accepted_graph_seed_passthrough_and_rejection():
    config = super_config("unused")
    graph, _, used = _accepted_graph(config, 1)
    assert used == 1
    assert graph.is_strongly_connected()
    # mean degree below one: never strongly connected, always rejected
    sparse_params = DbmParams(n=30, m=2, lam=0.2, alpha=0.5, seed=1)
    sparse = ExperimentConfig(
        params=sparse_params, regime="subcritical", beta_grid=(1.0,), out_dir="x"
    )
    with pytest.raises(RuntimeError, match="rejected"):
        _accepted_graph(sparse, 1)


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


def test_profile_determinism_across_threads(tmp_path):
    flat = sub_config(str(tmp_path / "flat"), seeds=(1, 2, 3))
    pooled = sub_config(str(tmp_path / "pooled"), seeds=(1, 2, 3), threads=4)
    run_profile_experiment(flat)
    run_profile_experiment(pooled)
    for name in ("profile.csv", "theory.csv", "profile.svg"):
        a = (tmp_path / "flat" / name).read_bytes()
        b = (tmp_path / "pooled" / name).read_bytes()
        assert a == b, name


def test_qsd_run_artifacts(tmp_path):
    config = super_config(str(tmp_path), seeds=(3,))
    manifest = run_qsd_experiment(config, restart_reps=150)
    assert read_csv_header(tmp_path / "qsd_seed3.csv") == [
        "i", "iota", "lambda_alpha_logn", "r_tilde", "t_mix",
        "hitting_estimate", "hitting_oracle", "gate_count", "nice_fraction",
    ]
    assert read_csv_header(tmp_path / "restart.csv") == ["rep", "tau_rho", "kappa", "rho"]
    rows = (tmp_path / "qsd_seed3.csv").read_text().splitlines()[1:]
    assert len(rows) == config.params.m
    restarts = (tmp_path / "restart.csv").read_text().splitlines()[1:]
    assert len(restarts) == 150
    names = [v.name for v in manifest.verdicts]
    assert names[0] == "iota_first_order_relerr"
    assert "ks_alpha_tau_rho_exp1" in names
    assert "ks_alpha_tau_jump_exp1" in names
    for v in manifest.verdicts:
        assert math.isfinite(v.value)
    with pytest.raises(ValueError, match="alpha"):
        run_qsd_experiment(super_config(str(tmp_path), alpha=0.0))


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
    diag = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert sorted(diag) == ["law_cycle_free_rate", "law_stuck", "survival_stuck"]
    assert diag["law_stuck"] == 0 and diag["survival_stuck"] == 0
    assert 0.9 < diag["law_cycle_free_rate"] < 1.0


def test_proxy_and_generate_runs(tmp_path):
    config = super_config(str(tmp_path / "proxy"), seeds=(1,))
    manifest = run_proxy_experiment(config)
    assert read_csv_header(tmp_path / "proxy" / "proxy.csv") == [
        "i", "tv_to_nu", "tv_nu_to_pi", "eps", "h_eps", "s_eps",
    ]
    assert manifest.all_passed
    assert manifest.verdicts[0].name == "mixture_identity_gap"

    gen = super_config(str(tmp_path / "gen"), seeds=(5,))
    manifest = run_generate(gen)
    assert (tmp_path / "gen" / "graph_seed5.npz").exists()
    assert read_csv_header(tmp_path / "gen" / "graphs.csv") == [
        "seed", "edges", "community_mass_dev",
    ]
    assert manifest.seeds_used == [5]


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
    assert "[pass] mixture_identity_gap" in shown
    assert "artifacts: proxy.csv" in shown

    code = main(["report", out])
    shown = capsys.readouterr().out
    assert code == 0
    payload = json.loads(shown)
    assert payload["config"]["n"] == 500


def test_cli_rejects_out_of_regime_parameters(tmp_path):
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(
            [
                "profile", "--n", "800", "--m", "2", "--lambda", "3",
                "--alpha", "0.01", "--regime", "subcritical",
                "--out", str(tmp_path),
            ]
        )


def test_cli_critical_needs_constant(tmp_path):
    with pytest.raises(SystemExit, match="--C"):
        main(["profile", "--regime", "critical", "--out", str(tmp_path)])


def test_cli_needs_alpha(tmp_path):
    with pytest.raises(SystemExit, match="alpha"):
        main(["profile", "--n", "500", "--out", str(tmp_path)])


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
    assert payload["config"]["base_seed"] == 7
    assert (Path(out) / "graph_seed7.npz").exists()
