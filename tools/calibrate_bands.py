"""Empirical failure rates of the sigma-band checks on the two-walker,
escape-walk and ancestral-sampler estimators, over fresh seeds.

Each check repeats one band test from the test suite, C7, C8 or ``verify
paper`` with its own estimator call, sizes and band, on K master seeds
that no test uses, and prints how often it failed next to the rate its
band nominally allows.  It changes no band and no seed anywhere.

    PYTHONPATH=src python tools/calibrate_bands.py --seeds 20
    PYTHONPATH=src python tools/calibrate_bands.py --seeds 20 --only psi_d3,c8_two_meet

Nominal rates: ``z`` bands allow erfc(z / sqrt 2); bands with an added
slack allow at most that; for fixed bands it is the mass a normal law at
the mean estimate with the mean standard error puts outside the band, which
counts a bias such as the finite horizon's.  C7's KS distance has no
standard error of its own, so its nominal rate takes the spread of the
values over the seeds instead.  The censored column counts
the seeds with any pair censored at its horizon (for alpha(D), more than
the 5% the test allows); it fails a check only where the test itself
asserts it.  Only public functions are called, so the script also runs
against older trees (``--cm3-reps 100 --cm3-horizon 0`` is the paper row
before its floor was raised).
"""

from __future__ import annotations

import argparse
import math
import time
from functools import lru_cache

import numpy as np

from coalesce.chains import MarkovChain, build_generator
from coalesce.crw import exact_k_particle_law
from coalesce.graphs import (
    DegreeDistribution,
    Graph,
    cycle_graph,
    path_graph,
    sample_configuration_model,
    torus_graph,
)
from coalesce.meeting import alpha_survival, mc_pair_meeting, mean_meeting_time
from coalesce.seeding import derive_rng
from coalesce.theory import alpha_regular_tree, estimate_alpha_D, estimate_psi_d
from coalesce.voter import gamma_ks, sample_nhat_ancestral

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
    exact = alpha_survival(c, x, t)["value"]

    def run(seed):
        res = alpha_survival(c, x, t, mode="mc", reps=reps, rng=derive_rng(seed, "alpha-cal", x))
        return res["value"], exact, res["stderr"], 0
    return run, z_band(z), False


def pair_check(g, reps, z, uncensored):
    """``uncensored``: the test also fails on a censored pair."""
    exact = mean_meeting_time(build_generator(g), "pi_pi")

    def run(seed):
        res = mc_pair_meeting(g, reps, derive_rng(seed, "pairmc-cal", g.n))
        return res["mean"], exact, res["stderr"], res["censored"]
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


def checks(cm3_reps, cm3_horizon):
    irregular = MarkovChain.from_rates(IRREGULAR_RATES)
    return {
        # tests/test_meeting.py
        "alpha_mc_cycle4": alpha_check(build_generator(cycle_graph(4)), 0, 0.25, 100_000, 3.0),
        "alpha_mc_irregular_x2": alpha_check(irregular, 2, 0.8, 40_000, 4.5),
        "alpha_mc_irregular_x3": alpha_check(irregular, 3, 0.3, 40_000, 4.5),
        "pair_k2": pair_check(path_graph(2), 20_000, 4.0, True),
        "pair_cycle12": pair_check(cycle_graph(12), 20_000, 4.0, True),
        "pair_lollipop": pair_check(LOLLIPOP, 40_000, 4.5, True),
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
