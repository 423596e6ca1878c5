"""The benchmark's workloads: one ``dbmwalk.experiments`` runner call each.

Every workload is a closed loop: one runner call at a time from one
process.  ``config`` holds the ``ExperimentConfig`` fields at full size;
``toy`` overrides some of them for the self-test.  A benchmark ``--seed``
s replaces the default seeds (d_0, d_1, ...) by (s, s+1, ...), so the
number of seeds, and with it the layer mix, stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # function name in dbmwalk.experiments
    why: str
    seeds: tuple[int, ...]  # default seeds
    config: dict  # ExperimentConfig fields besides params/seeds/out_dir
    params: dict  # DbmParams fields besides seed
    verdicts: int  # verdicts one passing runner call reports
    runner_kwargs: dict = field(default_factory=dict)
    toy: dict = field(default_factory=dict)  # overrides of params/config/runner_kwargs

    def seeds_for(self, seed: int | None) -> tuple[int, ...]:
        if seed is None:
            return self.seeds
        return tuple(seed + k for k in range(len(self.seeds)))

    def sized(self, size: str) -> tuple[dict, dict, dict]:
        """(params, config, runner_kwargs) at ``size`` ("full" or "toy")."""
        params, config, kwargs = dict(self.params), dict(self.config), dict(self.runner_kwargs)
        if size == "toy":
            params.update(self.toy.get("params", {}))
            config.update(self.toy.get("config", {}))
            kwargs.update(self.toy.get("runner_kwargs", {}))
        elif size != "full":
            raise ValueError(f"unknown size {size!r}")
        return params, config, kwargs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="profile-n4000",
            runner="run_profile_experiment",
            why=(
                "mixing-profile SpMM plus a slow, nearly decomposable global "
                "stationary solve; the only workload on the per-seed thread pool"
            ),
            seeds=(1, 2),
            params={"n": 4000, "m": 2, "lam": 2.0, "alpha": 0.002},
            config={
                "regime": "supercritical",
                "beta_grid": (0.5, 1.0, 2.0),
                "timescale": "inverse_alpha",
                "sample_starts": 64,
                "threads": 2,
            },
            verdicts=3,
            toy={"params": {"n": 400, "alpha": 0.005}},
        ),
        Workload(
            name="escape-n20000",
            runner="run_qsd_experiment",
            why=(
                "single-threaded escape pipeline spread over generation, local "
                "stationary solves, QSD, merged kernel and the two samplers"
            ),
            seeds=(1, 2, 3, 4),
            params={"n": 20000, "m": 2, "lam": 2.0, "alpha": 0.002},
            config={
                "regime": "supercritical",
                "beta_grid": (0.5, 1.0, 2.0, 5.0),
                "threads": 1,
            },
            verdicts=3,
            toy={"params": {"n": 2500, "alpha": 0.01}},
        ),
        Workload(
            name="annealed-n2000",
            runner="run_annealed_experiment",
            why=(
                "pure-Python revealed-graph walker; builds no graph and no "
                "sparse matrix"
            ),
            seeds=(7,),
            params={"n": 2000, "m": 2, "lam": 2.0, "alpha": 0.05},
            config={
                "regime": "supercritical",
                "beta_grid": (0.5, 1.0, 2.0, 5.0),
                "threads": 1,
            },
            verdicts=2,
            runner_kwargs={"t": 10, "t_max": 50, "reps": 5000},
            toy={"runner_kwargs": {"reps": 500}},
        ),
    )
}
