"""The benchmark's four workloads.

Each workload object is built from the run's seed and size and has:

- ``build()``: input construction, counted in ``setup_s``;
- ``warm()``: first calls on tiny inputs, so lazy initialisation is also
  counted in ``setup_s`` and not in ``wall_s``;
- ``run(rep, threads)``: the timed section; repetition ``rep`` draws from
  its own streams, derived from the seed; ``rep_seconds`` is its nominal
  duration on a 2-core Xeon, which sets the repetitions a run makes;
- ``check(out)``: correctness checks against references that do not depend
  on the engine's random streams (exact oracles, closed forms, identities
  in law between two code paths, model bands calibrated on fresh seeds).

Functions are reached as module attributes (``graphs.torus_graph``) so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import tempfile

import numpy as np
import scipy.linalg

from coalesce import chains, crw, graphs, meeting, runner, seeding, stats, theory, verify, voter
from coalesce.config import validate_config


@dataclasses.dataclass
class Check:
    name: str
    value: float
    threshold: float
    ok: bool


def z_check(name, estimate, reference, se, z_max) -> Check:
    """|estimate - reference| within z_max standard errors."""
    if se > 0.0:
        z = abs(estimate - reference) / se
    else:
        z = 0.0 if estimate == reference else math.inf
    return Check(name, z, z_max, z <= z_max)


def at_most(name, value, limit) -> Check:
    return Check(name, float(value), float(limit), bool(value <= limit))


def _rep_seed(seed: int, name: str, rep: int) -> int:
    return seeding.derive_seed(seed, "bench:" + name, rep) % (1 << 63)


class ExperimentSmall:
    """runner.run_experiment on cycle(8): five tasks, CSVs in a temp dir."""

    name = "experiment_small"
    workers = 2
    rep_seconds = 11
    times = [0.5, 1.0, 2.0]
    tasks = ["density", "tracked_cluster", "occupancy", "nhat", "tau_coal"]
    # two-sided z limit; with ~17 checks a run the chance of a false
    # failure is below 1e-4
    z_max = 4.5
    # KS limit sqrt(-ln(alpha / 2) / 2) * sqrt(2 / R) at alpha = 1e-6
    ks_c = math.sqrt(-math.log(0.5e-6) / 2.0)

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.replicates = 400 if smoke else 20_000
        self.scratch = scratch
        self._exact = None

    def _config(self, master_seed, replicates):
        return validate_config({
            "schema": 1,
            "graph": {"family": "cycle", "params": [8]},
            "rate_convention": "per_edge_unit",
            "times": self.times,
            "replicates": replicates,
            "master_seed": master_seed,
            "outputs": "unused",
            "tasks": [{"task": k} for k in self.tasks],
        })

    def build(self):
        self.config = self._config(0, self.replicates)

    def warm(self):
        out = tempfile.mkdtemp(dir=self.scratch)
        try:
            runner.run_experiment(self._config(0, 2), threads=1, out_dir=out)
        finally:
            shutil.rmtree(out)

    def run(self, rep, threads):
        cfg = dataclasses.replace(
            self.config, master_seed=_rep_seed(self.seed, self.name, rep)
        )
        out = tempfile.mkdtemp(dir=self.scratch)
        return runner.run_experiment(cfg, threads=threads, out_dir=out), out

    def check(self, result):
        manifest, out = result
        try:
            data = {
                r["task"]: np.loadtxt(os.path.join(out, r["file"]), delimiter=",",
                                      skiprows=1, ndmin=2)
                for r in manifest["results"]
            }
        finally:
            shutil.rmtree(out)
        if self._exact is None:
            c8 = chains.build_generator(graphs.cycle_graph(8))
            self._exact = {t: crw.exact_occupancy_density(c8, t) for t in self.times}
        R = self.replicates
        checks = []
        expected = {k: R * (1 if k == "tau_coal" else len(self.times)) for k in self.tasks}
        got = {k: len(v) for k, v in data.items()}
        checks.append(Check("csv_rows", sum(got.values()), sum(expected.values()),
                            got == expected))
        occ = data["occupancy"]
        checks.append(Check("occupancy_xi_is_row_sum",
                            float(np.abs(occ[:, 3:].sum(axis=1) - occ[:, 2]).max()),
                            0.0, bool((occ[:, 3:].sum(axis=1) == occ[:, 2]).all())))
        tau = data["tau_coal"][:, 1]
        for i, t in enumerate(self.times):
            exact = self._exact[t]
            xi = data["density"][i::len(self.times), 2]
            dens = xi / 8.0
            checks.append(z_check(f"density_t{t}_vs_subset_chain", dens.mean(),
                                  exact.mean(), dens.std(ddof=1) / math.sqrt(R),
                                  self.z_max))
            ind = occ[i::len(self.times), 3:]
            se = np.maximum(ind.std(axis=0, ddof=1), 1e-300) / math.sqrt(R)
            zs = np.abs(ind.mean(axis=0) - exact) / se
            checks.append(Check(f"occupancy_t{t}_max_z_vs_subset_chain",
                                float(zs.max()), 5.0, bool(zs.max() <= 5.0)))
            n_t = data["tracked_cluster"][i::len(self.times), 3]
            inv = 1.0 / n_t
            checks.append(z_check(f"inv_N_t{t}_vs_subset_chain", inv.mean(), exact.mean(),
                                  inv.std(ddof=1) / math.sqrt(R), self.z_max))
            nhat = data["nhat"][i::len(self.times), 2]
            ks = stats.ks_distance_two_sample(nhat, n_t)
            checks.append(at_most(f"ks_nhat_vs_N_t{t}", ks, self.ks_c * math.sqrt(2.0 / R)))
            # P(tau_coal <= t) = P(one cluster at t), from two independent tasks
            p1 = float((tau <= t).mean())
            p2 = float((xi == 1).mean())
            pool = (p1 + p2) / 2.0
            checks.append(z_check(f"tau_coal_cdf_t{t}_vs_density", p1, p2,
                                  math.sqrt(2.0 * pool * (1.0 - pool) / R), self.z_max))
        return checks


class AncestralTorus:
    """voter.sample_nhat_ancestral on torus(3, 10) at t = 15."""

    name = "ancestral_torus"
    workers = 1
    rep_seconds = 12
    t = 15.0

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.trajectories = 40 if smoke else 1500
        # calibrated on 16 fresh seeds at 1500 trajectories: KS 0.020-0.037,
        # E[1/nhat] / A2 0.92-1.02 with standard error 0.02-0.045
        self.ks_max = 0.015 + 1.8 / math.sqrt(self.trajectories)
        self.band_slack_se = 4.0 if smoke else 0.0

    def build(self):
        self.graph = graphs.torus_graph(3, 10)
        c = chains.build_generator(self.graph)
        t_meet = chains.spectrum(c).eigentime_sum() / 2.0
        self.a2 = theory.mean_field_predictions(self.graph.n, self.t, t_meet, 1.0)["A2"].value

    def warm(self):
        voter.sample_nhat_ancestral(graphs.torus_graph(3, 3), 1.0, 2,
                                    seeding.derive_rng(0, "bench-warm", 0))

    def run(self, rep, threads):
        rng = seeding.derive_rng(self.seed, "bench:" + self.name, rep)
        return voter.sample_nhat_ancestral(self.graph, self.t, self.trajectories, rng,
                                           draws_per_trajectory=2)

    def check(self, samples):
        ks = voter.gamma_ks(samples)
        inv = 1.0 / samples.astype(float)
        ratio = inv.mean() / self.a2
        se = inv.std(ddof=1) / math.sqrt(len(inv)) / self.a2
        slack = self.band_slack_se * se
        return [
            at_most("gamma22_ks", ks, self.ks_max),
            Check("inv_nhat_over_A2_in_0.8_1.2", ratio, 0.2 + slack,
                  bool(abs(ratio - 1.0) <= 0.2 + slack)),
        ]


# Watson's closed form for the escape probability of simple walk on Z^3
PSI_3 = 0.659462670
# alpha(D) for the 3-regular tree: the walkers' distance steps up at rate 4
# and down at rate 2, so P(never meet from distance 1) = 1/2, times degree 3
ALPHA_DELTA3 = 1.5


class PaperKernels:
    """The paper suite's two-walker kernels and theory estimators, plus its
    20k-vertex configuration-model build; no CRW engine code."""

    name = "paper_kernels"
    workers = 1
    rep_seconds = 4.5
    z_max = 4.5

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.scale = 0.05 if smoke else 1.0

    def _n(self, full):
        return max(2, int(full * self.scale))

    def build(self):
        self.delta3 = graphs.DegreeDistribution.delta(3)
        self.alpha_chain = chains.build_generator(graphs.torus_graph(3, 6))
        self.meet_graph = graphs.torus_graph(3, 10)
        # references: exact killed-pair uniformization, and the eigentime
        # identity t_meet = sum 1/lambda / 2 on the closed-form spectrum
        self.alpha_exact = meeting.alpha_survival(self.alpha_chain, 0, 2.0)["value"]
        c = chains.build_generator(self.meet_graph)
        self.t_meet = chains.spectrum(c).eigentime_sum() / 2.0

    def warm(self):
        rng = seeding.derive_rng(0, "bench-warm", 0)
        c = chains.build_generator(graphs.torus_graph(3, 3))
        graphs.sample_configuration_model(self.delta3, 100, rng, require_connected=True)
        meeting.alpha_survival(c, 0, 1.0, mode="mc", reps=10, rng=rng)
        meeting.mc_pair_meeting(graphs.torus_graph(3, 3), 2, rng)
        theory.estimate_psi_d(3, 10, 10, rng)
        theory.estimate_alpha_D(self.delta3, 5, 1.0, 10, rng)

    def run(self, rep, threads):
        rng = seeding.derive_rng(self.seed, "bench:" + self.name, rep)
        return {
            "cm": graphs.sample_configuration_model(
                self.delta3, 20_000, rng, require_connected=True),
            "alpha": meeting.alpha_survival(self.alpha_chain, 0, 2.0, mode="mc",
                                            reps=self._n(40_000), rng=rng),
            # the horizon is far beyond the meeting-time tail: nothing censored
            "meet": meeting.mc_pair_meeting(self.meet_graph, self._n(1000), rng,
                                            horizon_events=10**7),
            "psi": theory.estimate_psi_d(3, 10_000, self._n(4000), rng),
            "alpha_D": theory.estimate_alpha_D(self.delta3, 30, 200.0,
                                               self._n(4000), rng),
        }

    def check(self, out):
        g = out["cm"]
        alpha, meet, psi, ad = out["alpha"], out["meet"], out["psi"], out["alpha_D"]
        # the finite horizon biases psi upward by about 0.003 at 10^4 steps
        psi_lo = PSI_3 - self.z_max * psi["stderr"]
        psi_hi = PSI_3 + 0.01 + self.z_max * psi["stderr"]
        # deleted self-loops leave a Poisson(1) number of degree-1 vertices
        deg = g.degrees
        short = int((deg < 3).sum())
        return [
            Check("cm_build_degrees_and_connected", short, 10,
                  bool(g.n == 20_000 and ((deg == 3) | (deg == 1)).all() and short <= 10
                       and graphs.is_connected(g))),
            z_check("alpha_mc_vs_exact_torus36", alpha["value"], self.alpha_exact,
                    alpha["stderr"], self.z_max),
            z_check("pair_meeting_mc_vs_eigentime_torus310", meet["mean"], self.t_meet,
                    meet["stderr"], self.z_max),
            Check("pair_meeting_censored", meet["censored"], 0, meet["censored"] == 0),
            Check("psi3_vs_watson", psi["psi_hat"], psi_hi,
                  bool(psi_lo <= psi["psi_hat"] <= psi_hi)),
            z_check("alpha_D_delta3_vs_gamblers_ruin", ad["alpha_hat"], ALPHA_DELTA3,
                    ad["stderr"], self.z_max),
        ]


def _death_chain_law(m0: int, t: float) -> np.ndarray:
    """Law at t of the cluster count of CRW on K_n (per-edge rates) from m0
    clusters: each of m clusters lands on another at rate m - 1, whatever n."""
    q = np.zeros((m0, m0))
    for m in range(2, m0 + 1):
        q[m - 1, m - 2] = m * (m - 1)
        q[m - 1, m - 1] = -m * (m - 1)
    return scipy.linalg.expm(q * t)[m0 - 1]


class ExactOracles:
    """Linear solves, sparse uniformization and dense BLAS; no Monte Carlo."""

    name = "exact_oracles"
    workers = 1
    rep_seconds = 10
    occ_times = (0.1, 0.5, 1.0)

    def __init__(self, seed: int, smoke: bool, scratch: str):
        self.seed = seed
        self.smoke = smoke

    def build(self):
        s = self.smoke
        # cycle(48) keeps the sparse solve path (more than 40 vertices)
        self.pair = chains.build_generator(
            graphs.cycle_graph(48) if s else graphs.torus_graph(3, 4))
        self.alpha = chains.build_generator(graphs.torus_graph(3, 3 if s else 6))
        self.kpart = chains.build_generator(
            graphs.cycle_graph(6) if s else graphs.torus_graph(3, 3))
        self.occ = chains.build_generator(graphs.complete_graph(6 if s else 12))
        dist = graphs.DegreeDistribution.from_pairs([(3, 0.5), (4, 0.3), (5, 0.2)])
        g = graphs.sample_configuration_model(
            dist, 100 if s else 1000, seeding.derive_rng(self.seed, "bench-cm", 0),
            require_connected=True)
        self.cm = chains.build_generator(g)

    def warm(self):
        c4 = chains.build_generator(graphs.cycle_graph(4))
        meeting.pairwise_meeting_times(chains.build_generator(graphs.cycle_graph(41)))
        meeting.alpha_survival(c4, 0, 1.0)
        crw.exact_k_particle_law(c4, 1, 0.5)
        crw.exact_occupancy_density(c4, 0.5)
        p5 = chains.build_generator(graphs.path_graph(5))
        chains.spectrum(p5)
        chains.transition_matrix(p5, 1.0)

    def run(self, rep, threads):
        return {
            "pair": meeting.pairwise_meeting_times(self.pair),
            "alpha": meeting.alpha_survival(self.alpha, 0, 2.0),
            "kpart": [crw.exact_k_particle_law(self.kpart, 2, 1.0, start=s)
                      for s in ("pi_tensor", "distinct")],
            "occ": [crw.exact_occupancy_density(self.occ, t) for t in self.occ_times],
            "spectrum": chains.spectrum(self.cm),
            "transition": chains.transition_matrix(self.cm, 2.0),
            "suite": verify.exact_suite(_rep_seed(self.seed, self.name, rep)),
        }

    def check(self, out):
        prof = out["pair"]
        closed = chains.spectrum(self.pair).eigentime_sum()
        checks = [
            at_most("eigentime_residual_pair_solve_vs_closed_form",
                    abs(closed - 2.0 * prof.t_meet_pi), 1e-8),
            at_most("pair_solve_residual", prof.residual, 1e-8),
        ]
        rx = float(self.alpha.row_rates[0])
        a2 = out["alpha"]["value"]
        a1 = meeting.alpha_survival(self.alpha, 0, 1.0)["value"]
        checks.append(Check("alpha_exact_in_range_and_decreasing", a2, rx,
                            bool(0.0 < a2 <= a1 <= rx)))
        n = self.kpart.n
        pi, distinct = out["kpart"]
        checks.append(Check("kparticle_laws_are_probabilities", pi["p_coal"], 1.0,
                            bool(0.0 <= distinct["p_coal"] <= 1.0 and 0.0 <= pi["p_coal"] <= 1.0
                                 and abs(pi["e_ntk"] - n * n * pi["p_coal"]) <= 1e-9 * n * n)))
        k6 = chains.build_generator(graphs.complete_graph(6))
        p3 = crw.exact_k_particle_law(k6, 2, 1.0, start="distinct")["p_coal"]
        checks.append(at_most("kparticle_K6_vs_death_chain",
                              abs(p3 - _death_chain_law(3, 1.0)[0]), 1e-9))
        counts = np.arange(1, self.occ.n + 1)
        gap = max(abs(p.sum() - _death_chain_law(self.occ.n, t) @ counts)
                  for p, t in zip(out["occ"], self.occ_times))
        checks.append(at_most("occupancy_vs_complete_graph_death_chain", gap, 1e-9))
        ev = out["spectrum"].eigenvalues
        P = out["transition"]
        checks.append(at_most("spectrum_zero_mode", abs(ev[0]), 1e-8))
        checks.append(at_most("transition_row_sums",
                              float(np.abs(P.sum(axis=1) - 1.0).max()), 1e-9))
        checks.append(at_most("trace_P_t_vs_spectrum",
                              abs(np.trace(P) - np.exp(-2.0 * ev).sum()), 1e-8))
        rows, ok = out["suite"]
        checks.append(Check("exact_suite_ok", sum(not r[5] for r in rows), 0, bool(ok)))
        return checks


WORKLOADS = {w.name: w for w in (ExperimentSmall, AncestralTorus, PaperKernels, ExactOracles)}
