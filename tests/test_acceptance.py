"""Acceptance suite: twenty numbered desk-scale checks with fixed tolerances.

Each test prints one ``criterion NN: PASS/FAIL (...)`` line (visible
with -rA or on failure) and asserts its criterion.  Each check runs at a
size, and with a statistic, at which its claim holds for the exact
process; criteria 13 and 17 carry the measurements behind their choice
in their comments.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import (
    dense_kernel,
    dense_stationary,
    params_from_edge_probability,
    q_matrix,
    random_sc_digraph,
)
from test_annealed import exact_two_step_law, outcome_counts

from dbmwalk.annealed import (
    annealed_community_law,
    annealed_jump_survival,
    annealed_walks,
)
from dbmwalk.experiments import ExperimentConfig, _accepted_graph, analytic_entropic_time
from dbmwalk.graph import DbmParams, generate, pre_rewiring_subgraph
from dbmwalk.meanfield import limiting_profile, q_power_matrix
from dbmwalk.proxy import TwoScaleSchedule, surrogate_measures
from dbmwalk.qsd import (
    build_merged_kernel,
    community_view,
    iota_first_order,
    mixing_time_estimate,
    quasi_stationary,
    restart_process,
    return_mass,
    survival_curve,
)
from dbmwalk.rng import NS_ANNEALED, NS_EXPERIMENT, derived_rng
from dbmwalk.walk import (
    community_mass,
    entropy_and_entropic_time,
    indegree_approximation,
    jump_target_frequencies,
    local_stationary,
    mixing_profile,
    path_mass_ratios,
    sample_tau_jump,
    select_starts,
    stationary,
    tv_distance,
)


def report(num: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {mark} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def sampled_starts(graph, seed: int, k: int = 64) -> np.ndarray:
    """Plain uniform start sample; the worst-start max is taken over it."""
    rng = derived_rng(seed, NS_EXPERIMENT, 0)
    return np.unique(rng.choice(graph.vertex_count, size=k, replace=False))


# --- shared heavy sweeps -----------------------------------------------------

SWEEP_PARAMS = DbmParams(n=4000, m=2, lam=2.0, alpha=0.002, seed=1)
SWEEP_SEEDS = tuple(range(1, 21))


@pytest.fixture(scope="session")
def escape_sweep():
    """Per-seed, per-community escape statistics for criteria 4-7."""
    t0 = time.perf_counter()
    config = ExperimentConfig(
        params=SWEEP_PARAMS,
        regime="supercritical",
        beta_grid=(1.0,),
        seeds=SWEEP_SEEDS,
        out_dir="unused",
    )
    first = iota_first_order(SWEEP_PARAMS)
    cap = math.ceil(6 * analytic_entropic_time(SWEEP_PARAMS) * math.log(SWEEP_PARAMS.n))
    rows = []
    shared = {}
    for seed in SWEEP_SEEDS:
        graph, used = _accepted_graph(config, seed, need_all_communities=True)
        row = {"relerr": [], "gate_ratio": [], "r_tilde": []}
        for i in range(SWEEP_PARAMS.m):
            view = community_view(graph, i)
            sol = quasi_stationary(view)
            merged = build_merged_kernel(view)
            t_mix, _ = mixing_time_estimate(merged, cap)
            mass = return_mass(merged, t_mix)
            row["relerr"].append(abs(sol.iota / first - 1.0))
            row["gate_ratio"].append(view.gate_mass / first)
            row["r_tilde"].append(mass.r_tilde)
            if seed == SWEEP_SEEDS[0] and i == 0:
                shared = {"graph": graph, "view": view, "sol": sol}
        rows.append(row)
    return {"rows": rows, "shared": shared, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def supercritical_profile():
    """Worst-sampled-start TV profile on the inverse-alpha clock (9-10)."""
    t0 = time.perf_counter()
    params = SWEEP_PARAMS
    plateau_t = max(1, round(5 * analytic_entropic_time(params)))
    times = [plateau_t] + [round(beta / params.alpha) for beta in (0.5, 1.0, 2.0)]
    per_seed = []
    for seed in (1, 2, 3):
        graph, _ = generate(params, seed)
        assert graph.is_strongly_connected()
        pi = stationary(graph)
        prof = mixing_profile(graph, sampled_starts(graph, seed), times, pi)
        per_seed.append(dict(zip(prof.times, prof.distances)))
    mean = {t: float(np.mean([d[t] for d in per_seed])) for t in per_seed[0]}
    return {"mean": mean, "plateau_t": plateau_t, "elapsed": time.perf_counter() - t0}


# --- 1-3: exact oracles ------------------------------------------------------


def test_criterion_01_closed_form_kernel_powers():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(2, 7):
        for alpha in (0.0, 0.01, 0.1, 0.5, 1.0):
            q = q_matrix(m, alpha)
            power = np.eye(m)
            for t in range(201):
                worst = max(worst, float(np.abs(q_power_matrix(m, alpha, t) - power).max()))
                power = power @ q
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-12 and elapsed < 1.0, f"max |closed - dense| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_stationary_solver_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        graph = random_sc_digraph(rng, int(rng.integers(20, 201)))
        pi = stationary(graph)
        ref = dense_stationary(dense_kernel(graph))
        worst = max(worst, float(np.abs(pi.values - ref).sum()))
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-10 and elapsed < 10.0, f"max L1 gap = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_qsd_geometric_law():
    t0 = time.perf_counter()
    worst_eig, worst_surv = 0.0, 0.0
    for alpha in (0.002, 0.005):
        params = DbmParams(n=2000, m=2, lam=2.0, alpha=alpha, seed=1)
        graph, _ = generate(params, 1)
        for i in range(2):
            view = community_view(graph, i)
            sol = quasi_stationary(view)
            keep = np.flatnonzero(~view.gate_mask)
            sub = dense_kernel(view.local)[np.ix_(keep, keep)]
            mu = sol.mu_star.values[keep]
            worst_eig = max(
                worst_eig, float(np.abs(sub.T @ mu - (1.0 - sol.iota) * mu).sum())
            )
            surv = survival_curve(view, sol, 50)
            geo = (1.0 - sol.iota) ** np.arange(51)
            worst_surv = max(worst_surv, float(np.abs(surv - geo).max()))
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst_eig < 1e-10 and worst_surv < 1e-8 and elapsed < 120.0,
        f"eigen gap {worst_eig:.2e}, survival gap {worst_surv:.2e}, {elapsed:.1f}s",
    )


# --- 4-7: escape pipeline at n=4000 ------------------------------------------


def test_criterion_04_escape_rate_first_order(escape_sweep):
    hits = sum(all(r < 0.25 for r in row["relerr"]) for row in escape_sweep["rows"])
    med = float(np.median([r for row in escape_sweep["rows"] for r in row["relerr"]]))
    ok = hits >= 17 and escape_sweep["elapsed"] < 300.0
    report(4, ok, f"{hits}/20 seeds, median relerr {med:.3f}, sweep {escape_sweep['elapsed']:.0f}s")


def test_criterion_05_gate_mass(escape_sweep):
    hits = sum(
        all(0.7 <= g <= 1.3 for g in row["gate_ratio"]) for row in escape_sweep["rows"]
    )
    med = float(np.median([g for row in escape_sweep["rows"] for g in row["gate_ratio"]]))
    report(5, hits >= 17, f"{hits}/20 seeds, median ratio {med:.3f}")


def test_criterion_06_return_mass(escape_sweep):
    hits = sum(
        all(1.0 <= r <= 1.2 for r in row["r_tilde"]) for row in escape_sweep["rows"]
    )
    worst = max(r for row in escape_sweep["rows"] for r in row["r_tilde"])
    report(6, hits >= 17, f"{hits}/20 seeds, worst r~ {worst:.4f}")


def test_criterion_07_exponential_jump_law(escape_sweep):
    t0 = time.perf_counter()
    graph = escape_sweep["shared"]["graph"]
    alpha = SWEEP_PARAMS.alpha
    samples, censored = sample_tau_jump(
        graph, starts=graph.community_vertices(0), reps=10_000, seed=1
    )
    ks_jump = stats.kstest(alpha * samples.astype(float), "expon").statistic
    res = restart_process(
        escape_sweep["shared"]["view"], escape_sweep["shared"]["sol"], reps=10_000, seed=1
    )
    taus = np.array([s.tau_rho for s in res if s.tau_rho is not None], dtype=float)
    ks_rho = stats.kstest(alpha * taus, "expon").statistic
    elapsed = time.perf_counter() - t0
    ok = ks_jump < 0.08 and ks_rho < 0.08 and censored == 0 and elapsed < 120.0
    report(7, ok, f"KS jump {ks_jump:.4f}, KS marked {ks_rho:.4f}, {elapsed:.1f}s")


def test_criterion_08_jump_target_uniformity():
    # one graph's targets follow its realized rewired edges, so the law is
    # uniform only on average over graphs: pool 100 jumps from each of 100
    # independent draws
    params = DbmParams(n=2000, m=4, lam=2.0, alpha=0.002, seed=1)
    counts = np.zeros(4, dtype=np.int64)
    for seed in range(1, 101):
        graph, _ = generate(params, seed)
        c, _ = jump_target_frequencies(
            graph, graph.community_vertices(0), reps=100, seed=seed
        )
        counts += c
    chi2, p = stats.chisquare(counts[1:])
    report(8, counts[0] == 0 and p > 0.01, f"counts {counts[1:].tolist()}, p = {p:.4f}")


# --- 9-12: mixing profiles ---------------------------------------------------


def test_criterion_09_supercritical_profile(supercritical_profile):
    gaps = {}
    for beta in (0.5, 1.0, 2.0):
        t = round(beta / SWEEP_PARAMS.alpha)
        want = limiting_profile("supercritical_alpha", beta, SWEEP_PARAMS.m)
        gaps[beta] = abs(supercritical_profile["mean"][t] - want)
    ok = all(g < 0.1 for g in gaps.values()) and supercritical_profile["elapsed"] < 300.0
    detail = ", ".join(f"beta {b}: gap {g:.3f}" for b, g in gaps.items())
    report(9, ok, f"{detail}, {supercritical_profile['elapsed']:.0f}s")


def test_criterion_10_local_equilibrium_plateau(supercritical_profile):
    d = supercritical_profile["mean"][supercritical_profile["plateau_t"]]
    report(10, 0.38 <= d <= 0.62, f"plateau distance {d:.4f} at t={supercritical_profile['plateau_t']}")


def test_criterion_11_subcritical_step():
    params = DbmParams(n=4000, m=2, lam=2.0, alpha=0.3, seed=1)
    t_ent = analytic_entropic_time(params)
    t1, t2 = max(1, round(0.5 * t_ent)), max(1, round(1.5 * t_ent))
    early, late = [], []
    for seed in (1, 2, 3):
        graph, _ = generate(params, seed)
        pi = stationary(graph)
        prof = mixing_profile(graph, sampled_starts(graph, seed), [t1, t2], pi)
        d = dict(zip(prof.times, prof.distances))
        early.append(d[t1])
        late.append(d[t2])
    e, l = float(np.mean(early)), float(np.mean(late))
    report(11, e > 0.8 and l < 0.25, f"d({t1}) = {e:.3f} > 0.8, d({t2}) = {l:.3f} < 0.25")


def test_criterion_12_critical_tail():
    config = ExperimentConfig.critical(
        n=4000, m=2, lam=2.0, c=2.0, beta_grid=(2.0, 3.0), out_dir="unused"
    )
    grid = config.time_grid()
    acc = {beta: [] for beta in (2.0, 3.0)}
    for seed in (1, 2, 3):
        graph, _ = generate(config.params, seed)
        pi = stationary(graph)
        prof = mixing_profile(
            graph, sampled_starts(graph, seed), sorted(grid.values()), pi
        )
        d = dict(zip(prof.times, prof.distances))
        for beta in acc:
            acc[beta].append(d[grid[beta]])
    gaps = {
        beta: abs(float(np.mean(v)) - 0.5 * math.exp(-beta)) for beta, v in acc.items()
    }
    ok = all(g < 0.15 for g in gaps.values())
    report(12, ok, ", ".join(f"beta {b}: gap {g:.4f}" for b, g in gaps.items()))


# --- 13-15: annealed and path statistics -------------------------------------


def test_criterion_13_annealed_community_law():
    # The revealed walk revisits a vertex with probability, to first order,
    # (1/(n-1)) sum_{s=2..t} sum_{k=2..s} (1/m + (1-1/m) b^k), with
    # b = 1 - alpha*m/(m-1) (`first_order_revisit_rate`), about t^2/(2n).
    # `joint` counts only cycle-free runs, so it sits that share below the
    # Q^t row.  At n=2000 the rate is 1.83% (measured 1.75-1.86%, seeds
    # 7-12, 1e5 reps) and joint is 6.4-10.0 SE low, while the conditional
    # row is within 2.2 SE of Q^t.  At n=20000 the predicted rate is 0.18%:
    # measured 0.15-0.20% with joint 0.8-2.5 SE off (seeds 7-12).  The
    # walker's cost does not grow with n, so this n costs what n=2000 does
    # (about 0.5 s); n=8000 is too small (joint 2.3-5.2 SE, seeds 7-10).
    params = DbmParams(n=20_000, m=2, lam=2.0, alpha=0.05, seed=7)
    law = annealed_community_law(params, start=0, t=10, reps=100_000, seed=7)
    q_row = q_power_matrix(params.m, params.alpha, 10)[0]
    dev = float(
        np.max(np.abs(law.joint - q_row) / np.maximum(law.joint_se, 1e-300))
    )
    cf_fail = 1.0 - law.cycle_free_rate
    report(
        13,
        dev < 3.0 and cf_fail < 0.01,
        f"joint dev {dev:.1f} SE (< 3), cycle-free failure {cf_fail:.2%} (< 1%)",
    )


def test_criterion_14_annealed_jump_survival():
    params = DbmParams(n=2000, m=2, lam=2.0, alpha=0.01, seed=3)
    surv = annealed_jump_survival(params, t_max=50, reps=30_000, seed=3)
    dev = abs(surv.survival[-1] - surv.theory[-1]) / max(surv.stderr[-1], 1e-300)
    report(14, dev < 3.0, f"survival(50) off by {dev:.2f} SE")


def test_criterion_15_path_mass_concentration():
    t0 = time.perf_counter()
    params = DbmParams(n=10_000, m=2, lam=2.0, alpha=0.0, seed=5)
    graph, _ = generate(params, 5)
    sub = pre_rewiring_subgraph(graph, 0)
    ent = entropy_and_entropic_time(sub)
    t = max(1, round(5 * ent.t_ent))
    ratios = path_mass_ratios(sub, np.arange(sub.n), t, reps=10_000, seed=5)
    med = float(np.median(ratios))
    cover = float(np.mean((ratios >= 0.7) & (ratios <= 1.3)))
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= med <= 1.15 and cover >= 0.9 and elapsed < 120.0
    report(15, ok, f"median {med:.3f}, coverage {cover:.1%}, t={t}, {elapsed:.1f}s")


# --- 16-18: surrogates, degrees, masses --------------------------------------


def test_criterion_16_two_scale_surrogates():
    params = DbmParams(n=4000, m=2, lam=2.0, alpha=0.3, seed=1)
    graph, _ = generate(params, 1)
    sch = TwoScaleSchedule.from_entropic_time(analytic_entropic_time(params))
    sm = surrogate_measures(graph, sch)
    tv_pi = tv_distance(sm.average, stationary(graph))
    spread = float(max(sm.tv_to_average))
    report(16, tv_pi < 0.05 and spread < 0.05, f"tv to stationary {tv_pi:.4f}, spread {spread:.4f}")


def test_criterion_17_indegree_error_trend():
    # The trend is asserted on the 99th percentile of |raw/pi_i - 1|.  The
    # max is set by a few low-in-degree vertices with a low-out-degree
    # in-neighbour, an extreme-value statistic that barely moves at desk
    # sizes: over seeds 1-8 its mean is 0.467 at n=1000 and at 4000, 0.436
    # at 16000 and 0.403 at 64000, about 0.06 apart between seeds, and even
    # 1000 -> 64000 improves on only 7 of 8 seeds.  The bulk does shrink:
    # from n=1000 to 4000 the 99th percentile drops on 8 of 8 seeds, from
    # 0.30-0.36 to 0.26-0.27, each by at least 0.03, and the median from
    # 0.071-0.083 to 0.059-0.064.  The max stays in the detail line.
    wins = 0
    pairs = []
    for seed in (1, 2, 3, 4, 5):
        p99, top = {}, {}
        for n in (1000, 4000):
            params = DbmParams(n=n, m=2, lam=2.0, alpha=0.0, seed=seed)
            graph, _ = generate(params, seed)
            pi_local = local_stationary(graph, 0)
            err = indegree_approximation(graph, 0, pi_local)
            p99[n] = float(np.quantile(err, 0.99))
            top[n] = float(err.max())
        wins += p99[4000] < p99[1000]
        pairs.append(
            f"p99 {p99[1000]:.2f}->{p99[4000]:.2f} max {top[1000]:.2f}->{top[4000]:.2f}"
        )
    report(17, wins >= 4, f"{wins}/5 pairs improved ({', '.join(pairs)})")


def test_criterion_18_community_masses_critical():
    config = ExperimentConfig.critical(
        n=4000, m=2, lam=2.0, c=2.0, beta_grid=(1.0,), out_dir="unused"
    )
    graph, _ = generate(config.params, 1)
    dev = float(np.abs(community_mass(graph, stationary(graph)) - 0.5).max())
    report(18, dev < 0.02, f"max |mass - 1/2| = {dev:.5f}")


# --- 19-20: annealed identity and determinism --------------------------------


def test_criterion_19_annealed_equals_graph_average():
    params = params_from_edge_probability(n=5, m=2, p=0.6, alpha=0.3, seed=0)
    exact = exact_two_step_law(params, 0)
    rng = derived_rng(0, NS_ANNEALED, 7)
    reps = 1_000_000
    counts = outcome_counts(annealed_walks(params, 0, 2, reps, rng))
    tv = 0.5 * sum(abs(counts.get(k, 0) / reps - q) for k, q in exact.items())
    tv += 0.5 * sum(c / reps for k, c in counts.items() if k not in exact)
    report(19, tv < 0.02, f"TV to exhaustive average = {tv:.4f} at 1e6 samples")


def test_criterion_20_deterministic_reruns(tmp_path):
    params = DbmParams(n=800, m=2, lam=3.0, alpha=0.3, seed=1)

    def run(tag: str, threads: int):
        from dbmwalk.experiments import run_profile_experiment

        config = ExperimentConfig(
            params=params,
            regime="subcritical",
            beta_grid=(0.5, 1.5),
            sample_starts=None,
            seeds=tuple(range(1, 9)),
            out_dir=str(tmp_path / tag),
            threads=threads,
        )
        run_profile_experiment(config)
        return {
            name: (tmp_path / tag / name).read_bytes()
            for name in ("profile.csv", "theory.csv")
        }

    base = run("a", 1)
    again = run("b", 1)
    pooled = run("c", 8)
    ok = base == again == pooled
    report(20, ok, "profile.csv and theory.csv byte-identical over rerun and 8 threads")
