"""Empirical failure rates of the sigma-band checks on the two-walker,
escape-walk, ancestral-sampler, density, coalescence-time, occupancy and
duality estimators, over fresh seeds.

Each check repeats one band test from the test suite, the acceptance
tests C2-C10 or ``verify paper`` with its own estimator call, sizes and
band, on K master seeds that no test uses, and prints how often it failed
next to the rate its band nominally allows.  It changes no band and no
seed anywhere.

    PYTHONPATH=src python tools/calibrate_bands.py --seeds 20
    PYTHONPATH=src python tools/calibrate_bands.py --seeds 20 --only psi_d3,c8_two_meet
    PYTHONPATH=src python tools/calibrate_bands.py --seeds 10 --only c5_density

Nominal rates: ``z`` bands allow erfc(z / sqrt 2), and a test that takes
the largest of k such z values at most k times that; one-sided bounds on
a quantity whose true value lies inside them allow at most half of it;
bands with an added slack allow at most that.  A two-sample KS bound
allows at most the Kolmogorov tail at its scaled threshold (less on
discrete laws).  For fixed bands it is the mass a normal law at the mean
estimate with the mean standard error puts outside the band, which counts
a bias such as the finite horizon's.  C7's KS distance has no standard
error of its own, so its nominal rate takes the spread of the values over
the seeds instead.  C5 costs about a minute a seed.  The censored column counts
the seeds with any pair censored at its horizon (for alpha(D), more than
the 5% the test allows); it fails a check only where the test itself
asserts it.  Apart from ``runner._SCALAR_BELOW`` and
``crw._subset_distribution``, which the scalar-pass check uses as its test
does, only public functions are called, so the script also runs against
older trees (``--cm3-reps 100 --cm3-horizon 0`` is the paper row before its
floor was raised; the ``cm1000`` checks need exact pair oracles past
250 000 pair states).
"""

from __future__ import annotations

import argparse
import math
import time
from functools import lru_cache

import numpy as np

from coalesce import runner
from coalesce.chains import MarkovChain, build_generator, spectrum
from coalesce.crw import (
    _subset_distribution,
    estimate_density,
    exact_k_particle_law,
    exact_occupancy_density,
    occupancy_covariances,
    sample_tau_coal_many,
)
from coalesce.graphs import (
    DegreeDistribution,
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    sample_configuration_model,
    torus_graph,
)
from coalesce.meeting import alpha_survival, mc_pair_meeting, mean_meeting_time
from coalesce.runner import run_task
from coalesce.seeding import derive_rng
from coalesce.stats import ks_distance_two_sample
from coalesce.theory import (
    alpha_regular_tree,
    estimate_alpha_D,
    estimate_psi_d,
    kingman_tau_coal,
    mean_field_predictions,
)
from coalesce.voter import duality_gap, gamma_ks, sample_nhat_ancestral

# tests/test_meeting.py
IRREGULAR_RATES = np.array([
    [0.0, 1.5, 0.25, 0.0, 0.0],
    [1.5, 0.0, 0.7, 2.0, 0.0],
    [0.25, 0.7, 0.0, 0.0, 1.1],
    [0.0, 2.0, 0.0, 0.0, 0.4],
    [0.0, 0.0, 1.1, 0.4, 0.0],
])
LOLLIPOP = Graph.from_edges(
    7, [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(3, 4), (4, 5), (5, 6)]
)
# tests/test_voter.py::TestAncestralExactMoments: graph, convention, t
ANCESTRAL_CASES = {
    "lollipop": (LOLLIPOP, "per_edge_unit", 0.8),
    "cycle9_total_unit": (cycle_graph(9), "total_unit", 2.0),
}
FIRST_SEED = 910_000


def z_band(z):
    """A check |estimate - reference| <= z * stderr."""
    def verdict(value, ref, se):
        return abs(value - ref) <= z * se
    return verdict, math.erfc(z / math.sqrt(2.0)), "="


def alpha_check(c, x, t, reps, z):
    # the exact value on first use, so that --only skips the others' solves
    exact = lru_cache(maxsize=None)(lambda: alpha_survival(c, x, t)["value"])

    def run(seed):
        res = alpha_survival(c, x, t, mode="mc", reps=reps, rng=derive_rng(seed, "alpha-cal", x))
        return res["value"], exact(), res["stderr"], 0
    return run, z_band(z), False


def pair_check(g, reps, z, uncensored):
    """``uncensored``: the test also fails on a censored pair."""
    exact = lru_cache(maxsize=None)(lambda: mean_meeting_time(build_generator(g), "pi_pi"))

    def run(seed):
        res = mc_pair_meeting(g, reps, derive_rng(seed, "pairmc-cal", g.n))
        return res["mean"], exact(), res["stderr"], res["censored"]
    return run, z_band(z), uncensored


@lru_cache(maxsize=None)
def psi_check(seed):
    res = estimate_psi_d(3, 10_000, 30_000, derive_rng(seed, "psi3-cal", 0))
    return res["psi_hat"], 0.659, res["stderr"], 0


def psi_exact_check(seed):
    """psi_check's runs, against the exact finite-horizon value."""
    # imported here so that the other checks still run on trees without it
    from coalesce.theory import psi_d_horizon

    value, _, se, _ = psi_check(seed)
    return value, psi_d_horizon(3, 10_000), se, 0


def alpha_d_check(d):
    exact = alpha_regular_tree(d)

    def run(seed):
        res = estimate_alpha_D(DegreeDistribution.delta(d), 14, 60.0, 6000,
                               derive_rng(seed, "alphaD-cal", d))
        # the test allows up to 5% of pairs censored at the horizon
        return res["alpha_hat"], exact, res["stderr"], int(res["censored_fraction"] > 0.05)
    return run, (lambda v, r, se: abs(v - r) <= 4.0 * se + 0.05, z_band(4.0)[1], "<="), True


def cm3_check(label, reps, horizon=None):
    """2 t_meet alpha / n on the 20k 3-regular configuration model, in
    [0.85, 1.15] with no censored run (C8 at 500 pairs; the paper row)."""
    def run(seed):
        g = sample_configuration_model(DegreeDistribution.delta(3), 20_000,
                                       derive_rng(seed, label + "-graph", 0),
                                       require_connected=True)
        res = mc_pair_meeting(g, reps, derive_rng(seed, label + "-meet", 0),
                              horizon_events=horizon)
        scale = 2.0 / g.n * alpha_regular_tree(3)
        return res["mean"] * scale, 1.0, res["stderr"] * scale, res["censored"]
    return run, (lambda v, r, se: 0.85 <= v <= 1.15, 0.15, "band"), True


@lru_cache(maxsize=None)
def c7_stats(seed):
    """C7's m2 and m3, each with a standard error, and its Gamma(2, 2) KS
    distance: 10 000 trajectories of two draws on torus(3, 10) at t = 15."""
    x = sample_nhat_ancestral(torus_graph(3, 10), 15.0, 10_000, derive_rng(seed, "c7", 0),
                              draws_per_trajectory=2).astype(float).reshape(-1, 2)
    mean = x.mean()
    out = {"ks": (gamma_ks(x.reshape(-1)), math.nan)}
    for k in (2, 3):
        raw = (x**k).mean()
        # the delta method on whole trajectories, whose two draws correlate
        infl = (x**k).mean(axis=1) / mean**k - k * raw * x.mean(axis=1) / mean ** (k + 1)
        out[f"m{k}"] = (raw / mean**k, infl.std(ddof=1) / math.sqrt(len(infl)))
    return out


def c7_check(stat, lo, hi):
    """One of C7's statistics in the fixed band [lo, hi]."""
    def run(seed):
        value, se = c7_stats(seed)[stat]
        return value, (lo + hi) / 2.0, se, 0
    return run, (lambda v, r, se: lo <= v <= hi, (hi - lo) / 2.0, "band"), False


@lru_cache(maxsize=None)
def ancestral_moments(case, seed):
    """Mean and standard error of nhat^k, k = 1, 2, over 40 000 draws."""
    g, convention, t = ANCESTRAL_CASES[case]
    x = sample_nhat_ancestral(g, t, 40_000, derive_rng(seed, "anc-moments", 0),
                              convention=convention).astype(float)
    return {k: ((x**k).mean(), (x**k).std(ddof=1) / math.sqrt(len(x))) for k in (1, 2)}


def ancestral_check(case, k):
    """E[nhat^k] against n^k P(k + 1 uniform walkers coalesced by t)."""
    g, convention, t = ANCESTRAL_CASES[case]
    exact = exact_k_particle_law(build_generator(g, convention), k, t)["e_ntk"]

    def run(seed):
        value, se = ancestral_moments(case, seed)[k]
        return value, exact, se, 0
    return run, z_band(4.5), False


def max_z_check(zs_of_seed, z, k, one_sided=False):
    """A test that asserts all of k z values at most ``z`` (in absolute
    value unless ``one_sided``)."""
    def run(seed):
        zs = np.asarray(zs_of_seed(seed), dtype=float)
        return float(zs.max() if one_sided else np.abs(zs).max()), 0.0, 1.0, 0
    tail = math.erfc(z / math.sqrt(2.0)) / (2.0 if one_sided else 1.0)
    return run, (lambda v, r, se: v <= z, min(1.0, k * tail), "<="), False


def kolmogorov_tail(lam):
    """P(sup |Brownian bridge| > lam), the two-sample KS limit law's tail."""
    return min(1.0, 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
                              for j in range(1, 101)))


def ks_check(ks_of_seed, n, m, thr):
    """A two-sample KS distance between n and m draws at most ``thr``."""
    def run(seed):
        return ks_of_seed(seed), 0.0, math.nan, 0
    lam = thr * math.sqrt(n * m / (n + m))
    return run, (lambda v, r, se: v <= thr, kolmogorov_tail(lam), "<="), False


def band_check(stat_of_seed, lo, hi):
    """A value, given with its standard error, in the fixed band [lo, hi]."""
    def run(seed):
        value, se = stat_of_seed(seed)
        return value, (lo + hi) / 2.0, se, 0
    return run, (lambda v, r, se: lo <= v <= hi, (hi - lo) / 2.0, "band"), False


def density_zs(g, times, reps, label, exact):
    """z of estimate_density against ``exact(t)`` at each time."""
    def zs(seed):
        est = estimate_density(g, times, reps, derive_rng(seed, label, 0))
        return [(p - exact(t)) / se for t, p, se in zip(times, est.p_hat, est.stderr)]
    return zs


def c2_zs(seed):
    """C2: both graphs' density against the subset chain, 100 000 replicates."""
    out = []
    for name, g in (("path2", path_graph(2)), ("cycle4", cycle_graph(4))):
        c = build_generator(g)
        out += density_zs(g, [0.5, 1.0, 2.0], 100_000, f"c2-{name}",
                          lambda t: float(exact_occupancy_density(c, t)[0]))(seed)
    return out


@lru_cache(maxsize=None)
def c4_stats(seed):
    """C4: 100 000 coalescence times on K8, their mean's z against 7/8 and
    their KS distance from the Kingman stage sampler."""
    taus = sample_tau_coal_many(complete_graph(8), 100_000, derive_rng(seed, "c4", 0))
    ref = kingman_tau_coal(8, 0.5, 100_000, derive_rng(seed, "c4-ref", 0))["samples"]
    z = (taus.mean() - 0.875) / (taus.std(ddof=1) / math.sqrt(len(taus)))
    return z, ks_distance_two_sample(taus, ref)


def c5_stat(seed):
    """C5: sqrt(pi t) P_hat on cycle(10^5), total-unit, 10 trajectories."""
    t = 200.0
    est = estimate_density(cycle_graph(100_000), [t], 10, derive_rng(seed, "c5", 0),
                           convention="total_unit")
    scale = math.sqrt(math.pi * t)
    return scale * est.p_hat[0], scale * est.stderr[0]


@lru_cache(maxsize=None)
def torus310_eigentime():
    return spectrum(build_generator(torus_graph(3, 10))).eigentime_sum() / 2.0


def c6_stat(seed):
    """C6: n t P_hat / (2 M) on torus(3, 10) at t = 15, 200 replicates."""
    t = 15.0
    est = estimate_density(torus_graph(3, 10), [t], 200, derive_rng(seed, "c6", 0))
    scale = 1000.0 * t / (2.0 * torus310_eigentime())
    return scale * est.p_hat[0], scale * est.stderr[0]


def c8_density_stat(seed):
    """C8's density half: t P_hat alpha on a fresh 20k 3-regular
    configuration model at t = 50, 24 replicates."""
    g = sample_configuration_model(DegreeDistribution.delta(3), 20_000,
                                   derive_rng(seed, "c8-graph", 0), require_connected=True)
    t = 50.0
    est = estimate_density(g, [t], 24, derive_rng(seed, "c8-density", 0))
    scale = t * alpha_regular_tree(3)
    return scale * est.p_hat[0], scale * est.stderr[0]


C10_PAIRS = [(v, (v + 1) % 6) for v in range(6)] + [(v, (v + 2) % 6) for v in range(6)]


def c10_zs(seed):
    """C10: cov / stderr of every pair at both times, 100 000 replicates."""
    res = occupancy_covariances(cycle_graph(6), C10_PAIRS, [0.5, 1.0], 100_000,
                                derive_rng(seed, "c10", 0))
    return [r["cov_hat"] / r["stderr"] for r in res.values()]


def monotone_zs(seed):
    """TestDensity::test_p_hat_nonincreasing_within_noise: each rise of
    P_hat over the next grid time, in units of the two standard errors."""
    est = estimate_density(cycle_graph(6), [0.0, 0.3, 0.8, 1.5, 3.0], 5000,
                           derive_rng(seed, "mono", 0))
    p, se = est.p_hat, est.stderr
    return (p[1:] - p[:-1]) / np.hypot(se[1:], se[:-1])


def cycle3_tau_stat(seed):
    """TestKParticle::test_cycle3_k2_vs_mc: P(tau_coal <= 0.5) on the
    3-cycle from 20 000 draws."""
    taus = sample_tau_coal_many(cycle_graph(3), 20_000, derive_rng(seed, "kp", 0))
    p = float((taus <= 0.5).mean())
    return p, math.sqrt(p * (1 - p) / len(taus))


def cycle3_tau_check():
    exact = exact_k_particle_law(build_generator(cycle_graph(3)), 2, 0.5, "distinct")["p_coal"]

    def run(seed):
        p, se = cycle3_tau_stat(seed)
        return p, exact, se, 0
    return run, z_band(3.0), False


@lru_cache(maxsize=None)
def mf310_ratios(seed):
    """test_full_pipeline_torus310: t P_hat over t A1 and over t A2, with
    alpha from 20 000 Monte Carlo pairs; each must lie in [1/1.2, 1/0.8]."""
    g = torus_graph(3, 10)
    t = 15.0
    alpha = alpha_survival(build_generator(g), 0, t, mode="mc", reps=20_000,
                           rng=derive_rng(seed, "mf310", 1))["value"]
    preds = mean_field_predictions(1000, t, torus310_eigentime(), alpha)
    est = estimate_density(g, [t], 200, derive_rng(seed, "mf310", 0))
    return {k: (est.p_hat[0] / preds[k].value, est.stderr[0] / preds[k].value)
            for k in ("A1", "A2")}


def complete4_ks(seed):
    """test_complete4_law_match: 50 000 coalescence times on K4 against
    the Kingman stage sampler."""
    taus = sample_tau_coal_many(complete_graph(4), 50_000, derive_rng(seed, "king", 0))
    ref = kingman_tau_coal(4, 0.5, 50_000, derive_rng(seed, "king", 1))["samples"]
    return ks_distance_two_sample(taus, ref)


@lru_cache(maxsize=None)
def dual_stats(seed, swap):
    """TestDualityGap on cycle(4) at t = 1, 20 000 replicates a side."""
    return duality_gap(cycle_graph(4), 1.0, 20_000, derive_rng(seed, "dual", int(swap)),
                       swap_streams=swap)


def dual_z(gap, se, swap=False):
    def zs(seed):
        res = dual_stats(seed, swap)
        return [res[gap] / res[se]]
    return max_z_check(zs, 4.0, 1)


KINDS = ["density", "tracked_cluster", "occupancy", "nhat", "tau_coal"]


def sample_z(x, reference):
    x = np.asarray(x, dtype=float)
    return (x.mean() - reference) / (x.std(ddof=1) / math.sqrt(len(x)))


def scalar_laws_zs(g, convention, times):
    """TestRunnerLaws::test_tasks_against_oracles with every block on the
    scalar engines: 20 000 replicates of each task, and at each time the z
    of the density, tracked-cluster, nhat and per-site occupancy means and
    of P(tau_coal <= t) against the exact oracles."""
    c = build_generator(g, convention)
    single = np.array([bin(v).count("1") == 1 for v in range(1, 1 << g.n)])
    refs = [(exact_occupancy_density(c, t), exact_k_particle_law(c, 1, t)["e_ntk"],
             _subset_distribution(c, t)[single].sum()) for t in times]

    def zs(seed):
        reps = 20_000
        saved = runner._SCALAR_BELOW
        runner._SCALAR_BELOW = dict.fromkeys(saved, 1 << 20)
        try:
            rows = {k: np.array(run_task(g, convention, {"task": k}, times, reps, seed)[1],
                                dtype=float) for k in KINDS}
        finally:
            runner._SCALAR_BELOW = saved
        out = []
        for i, (occ_exact, e_n, p_one) in enumerate(refs):
            dens, tracked, occ, nhat = (rows[k][i::len(times)] for k in KINDS[:4])
            out += [sample_z(dens[:, 2], occ_exact.sum()), sample_z(tracked[:, 3], e_n),
                    sample_z(nhat[:, 2], e_n)]
            # the indicators must sum to the cluster count
            if not (occ[:, 3:].sum(axis=1) == occ[:, 2]).all():
                out.append(math.inf)
            out += [sample_z(occ[:, 3 + v], occ_exact[v]) for v in range(g.n)]
            hits = rows["tau_coal"][:, 1] <= times[i]
            out.append((hits.mean() - p_one) / math.sqrt(p_one * (1 - p_one) / reps))
        return out
    return zs


def checks(cm3_reps, cm3_horizon):
    irregular = MarkovChain.from_rates(IRREGULAR_RATES)
    # a mixed-degree configuration model: 10^6 pair states, solved exactly
    # by the pair chain applied in matrix form
    cm1000 = sample_configuration_model(DegreeDistribution.from_pairs([(3, 0.5), (4, 0.5)]),
                                        1000, derive_rng(0, "cm1000-cal", 0),
                                        require_connected=True)
    return {
        # tests/test_meeting.py
        "alpha_mc_cycle4": alpha_check(build_generator(cycle_graph(4)), 0, 0.25, 100_000, 3.0),
        "alpha_mc_irregular_x2": alpha_check(irregular, 2, 0.8, 40_000, 4.5),
        "alpha_mc_irregular_x3": alpha_check(irregular, 3, 0.3, 40_000, 4.5),
        "pair_k2": pair_check(path_graph(2), 20_000, 4.0, True),
        "pair_cycle12": pair_check(cycle_graph(12), 20_000, 4.0, True),
        "pair_lollipop": pair_check(LOLLIPOP, 40_000, 4.5, True),
        # Monte Carlo two-walker estimators against the exact pair chain
        "pair_cm1000": pair_check(cm1000, 4000, 4.0, True),
        "alpha_mc_cm1000": alpha_check(build_generator(cm1000), 0, 2.0, 20_000, 4.0),
        # tests/test_theory.py
        "psi_d3": (psi_check, (lambda v, r, se: abs(v - r) <= 0.01, 0.01, "band"), False),
        "psi_d3_exact": (psi_exact_check, z_band(4.5), False),
        "alpha_D_delta3": alpha_d_check(3),
        "alpha_D_delta4": alpha_d_check(4),
        # C8 and verify paper's paper_cm3/two_meet_over_n_alpha
        "c8_two_meet": cm3_check("c8", 500),
        "paper_cm3_two_meet": cm3_check("paper-cm", cm3_reps, cm3_horizon),
        # tests/test_voter.py and C7, on the ancestral sampler
        "anc_lollipop_k1": ancestral_check("lollipop", 1),
        "anc_lollipop_k2": ancestral_check("lollipop", 2),
        "anc_cycle9_k1": ancestral_check("cycle9_total_unit", 1),
        "anc_cycle9_k2": ancestral_check("cycle9_total_unit", 2),
        "c7_m2": c7_check("m2", 1.4, 1.6),
        "c7_m3": c7_check("m3", 2.5, 3.5),
        "c7_ks": c7_check("ks", 0.0, 0.05),
        # tests/test_acceptance.py on the density, tau_coal and occupancy
        # estimators
        "c2_density": max_z_check(c2_zs, 4.0, 6),
        "c4_mean": max_z_check(lambda s: [c4_stats(s)[0]], 4.0, 1),
        "c4_ks": ks_check(lambda s: c4_stats(s)[1], 100_000, 100_000, 0.02),
        "c5_density": band_check(c5_stat, 0.90, 1.10),
        "c6_density": band_check(c6_stat, 0.80, 1.20),
        "c8_density": band_check(c8_density_stat, 0.80, 1.20),
        "c10_cov": max_z_check(c10_zs, 3.0, 24, one_sided=True),
        # tests/test_crw.py
        "density_two_path": max_z_check(
            density_zs(path_graph(2), [0.5, 1.0, 2.0], 20_000, "dens",
                       lambda t: (1 + math.exp(-2 * t)) / 2), 4.0, 3),
        "density_monotone": max_z_check(monotone_zs, 4.0, 4, one_sided=True),
        "occupancy_mc_agrees": max_z_check(
            density_zs(cycle_graph(4), [0.5, 1.0, 2.0], 20_000, "occ",
                       lambda t: float(exact_occupancy_density(
                           build_generator(cycle_graph(4)), t)[0])), 4.0, 3),
        "kparticle_cycle3": cycle3_tau_check(),
        "runner_scalar_lollipop": max_z_check(
            scalar_laws_zs(LOLLIPOP, "per_edge_unit", [0.3, 0.8, 2.0]), 4.5, 33),
        # tests/test_theory.py
        "mf310_A1": band_check(lambda s: mf310_ratios(s)["A1"], 1 / 1.2, 1 / 0.8),
        "mf310_A2": band_check(lambda s: mf310_ratios(s)["A2"], 1 / 1.2, 1 / 0.8),
        "complete4_ks": ks_check(complete4_ks, 50_000, 50_000, 0.02),
        # tests/test_voter.py::TestDualityGap
        "dual_ks": ks_check(lambda s: dual_stats(s, False)["ks_nhat_vs_Nt"],
                            20_000, 20_000, 0.02),
        "dual_survival": dual_z("abs_gap_survival_vs_density", "se_survival_vs_density"),
        "dual_invN": dual_z("abs_gap_Pt_vs_invNt", "se_Pt_vs_invNt"),
        "dual_swap_ks": ks_check(lambda s: dual_stats(s, True)["ks_nhat_vs_Nt"],
                                 20_000, 20_000, 0.02),
        "dual_swap_invN": dual_z("abs_gap_Pt_vs_invNt", "se_Pt_vs_invNt", swap=True),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20, help="fresh master seeds per check")
    ap.add_argument("--only", default="", help="comma-separated check names")
    ap.add_argument("--cm3-reps", type=int, default=800,
                    help="pairs of the paper row (verify paper's floor at --scale 0.2)")
    ap.add_argument("--cm3-horizon", type=int, default=10**7,
                    help="event budget of the paper row's pairs (0: the default)")
    args = ap.parse_args(argv)
    table = checks(args.cm3_reps, args.cm3_horizon or None)
    names = [n for n in args.only.split(",") if n] or list(table)
    print(f"{'check':24} {'fails':>7} {'rate':>7} {'nominal':>12} {'mean':>10} "
          f"{'mean se':>10} {'censored':>8} {'secs':>7}")
    for name in names:
        run, (verdict, nominal, kind), uncensored = table[name]
        fails, values, ses, censored = 0, [], [], 0
        t0 = time.perf_counter()
        for k in range(args.seeds):
            value, ref, se, cens = run(FIRST_SEED + k)
            fails += (uncensored and cens > 0) or not verdict(value, ref, se)
            censored += cens > 0
            values.append(value)
            ses.append(se)
        se_bar = float(np.mean(ses))
        if math.isnan(se_bar):
            # no standard error per run: the spread over the seeds
            se_bar = float(np.std(values, ddof=1))
        if kind == "band":
            # a normal law at the mean estimate and the mean standard error
            # leaves the fixed band [ref - nominal, ref + nominal] this often
            gap = (ref - float(np.mean(values))) / se_bar / math.sqrt(2.0)
            half = nominal / se_bar / math.sqrt(2.0)
            nominal = f"~{(math.erfc(half - gap) + math.erfc(half + gap)) / 2.0:.1e}"
        else:
            nominal = f"{'<=' if kind == '<=' else ''}{nominal:.1e}"
        print(f"{name:24} {fails:>3}/{args.seeds:<3} {fails / args.seeds:7.3f} {nominal:>12} "
              f"{np.mean(values):10.5g} {se_bar:10.3g} {censored:>8} "
              f"{time.perf_counter() - t0:7.1f}", flush=True)


if __name__ == "__main__":
    main()
