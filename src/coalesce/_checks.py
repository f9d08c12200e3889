"""The banded Monte Carlo checks, each written once.

A check draws a sample at a seed (the ``verify`` rows also at a scale, a
thread count and a worker pool), reads a value, its standard error and a
count of censored runs from it, and judges the value against a reference
with a band.  The acceptance and unit tests run their checks at their fixed
seeds, ``verify statistical`` and ``verify paper`` make a row of each check
of their suite, named ``<check>/<quantity>``, and
``tools/calibrate_bands.py`` runs any check on fresh seeds.  The acceptance
tests C2-C10 read the table; C5, C6 and C8 read ``verify paper``'s own
rows at scale 1 on one thread, and C3 reads the ``duality_cycle6`` sampler
of ``verify statistical`` at 20 000 replicates.  ``_values`` and every
view in ``crw`` and ``voter``, ``estimate_density`` and the ancestral
sampler too, read the runner's derived blocks, which read one stream
layout on either engine, so a runner law is checked once, on the lockstep
kernels (``runner_lockstep_*``).
Only the torus A1 pair still samples twice: P_hat over A1 on torus(3, 10)
is ``mf310_A1`` (the unit test's Monte Carlo alpha) and
``paper_torus310/ratio_A1`` (the exact alpha), with two bands.

Checks that read one sample share a draw, run once per seed.  A one-stream
draw takes a master seed, from which it derives its calibration stream, or
a whole ``derive_rng`` key ``(seed, label, counter)``: the test's stream.
No graph, chain or exact reference is built at import, only on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from . import runner
from .config import _TASK_KINDS
from .chains import MarkovChain, build_generator, spectrum
from .crw import (_density, _subset_distribution, estimate_density, exact_k_particle_law,
                  exact_occupancy_density, occupancy_covariances, sample_tau_coal_many)
from .graphs import (DegreeDistribution, Graph, complete_graph, cycle_graph, path_graph,
                     sample_configuration_model, torus_graph)
from .meeting import alpha_survival, mc_pair_meeting, mean_meeting_time
from .seeding import derive_rng
from .stats import jackknife_cov, ks_distance_two_sample
from .theory import (alpha_regular_tree, bg_prediction, estimate_alpha_D, estimate_psi_d,
                     exact_density_1d, kingman_tau_coal, mean_field_predictions, psi_d,
                     psi_d_horizon, reversal_identity_residual)
from .voter import (duality_gap, duality_statistics, gamma_ks, sample_nhat_ancestral,
                    size_bias_histogram)

# non-integer rates and unequal row totals
IRREGULAR_RATES = np.array([
    [0.0, 1.5, 0.25, 0.0, 0.0],
    [1.5, 0.0, 0.7, 2.0, 0.0],
    [0.25, 0.7, 0.0, 0.0, 1.1],
    [0.0, 2.0, 0.0, 0.0, 0.4],
    [0.0, 0.0, 1.1, 0.4, 0.0],
])


class Sample(NamedTuple):
    """A check's reading at one seed; ``notes`` holds numbers an acceptance
    line prints beside it."""

    value: float
    sigma: float
    censored: int = 0
    notes: dict | None = None


class Outcome(NamedTuple):
    value: float
    sigma: float
    censored: int
    reference: float
    band: "Band"
    ok: bool
    notes: dict | None


@dataclass(frozen=True)
class Band:
    """How a value is judged against its reference.

    ``z``: |value - reference| <= width * sigma + slack.  ``band``: value in
    [reference - width, reference + width].  ``<=``: value <= width, where
    the value is the largest of ``count`` z values (of their absolute values
    unless ``one_sided``).  ``ks``: a two-sample KS distance between
    ``sizes`` draws, at most width.  ``>=``: value >= width - slack, an
    exact bound.
    """

    kind: str
    width: float
    slack: float = 0.0
    count: int = 1
    one_sided: bool = False
    sizes: tuple = ()

    def passes(self, value, reference, sigma) -> bool:
        if self.kind == "z":
            return abs(value - reference) <= self.width * sigma + self.slack
        if self.kind == "band":
            return reference - self.width <= value <= reference + self.width
        if self.kind == ">=":
            return value >= self.width - self.slack
        return value <= self.width


@dataclass(frozen=True)
class Check:
    """``draw(seed, scale, threads, pool)`` returns a Sample, or, for a
    draw that several checks read, a dict of them by check name.
    ``reference`` is a number or a function that computes it, ``band`` a
    Band or a function of the scale that gives one.  With ``uncensored`` a
    censored run fails the check; ``suite`` names the ``verify`` suite that
    has the check as a row."""

    name: str
    draw: Callable
    band: Band | Callable
    reference: float | Callable = 0.0
    uncensored: bool = False
    suite: str | None = None


def run_checks(names, seed, scale=1.0, threads=1, pool=None, memo=None) -> dict:
    """Each named check's Outcome at ``seed``.  A draw runs once per seed
    over the calls that share ``memo``."""
    memo = {} if memo is None else memo
    out = {}
    for name in names:
        check = CHECKS[name]
        key = (check.draw, seed)
        if key not in memo:
            memo[key] = check.draw(seed, scale, threads, pool)
        s = memo[key]
        if isinstance(s, dict):
            s = s[name]
        ref = check.reference() if callable(check.reference) else check.reference
        band = check.band(scale) if callable(check.band) else check.band
        ok = band.passes(s.value, ref, s.sigma) and not (check.uncensored and s.censored)
        out[name] = Outcome(s.value, s.sigma, s.censored, ref, band, bool(ok), s.notes)
    return out


def _stream(seed, label, counter=0):
    """The stream ``(seed, label, counter)``, or ``seed`` itself when it is
    a whole key."""
    return derive_rng(*seed) if isinstance(seed, tuple) else derive_rng(seed, label, counter)


@cache
def _lollipop():
    """K4 with a three-edge tail: seven vertices, degrees 3, 3, 3, 4, 2, 2, 1."""
    return Graph.from_edges(
        7, [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(3, 4), (4, 5), (5, 6)]
    )


@cache
def _cm1000():
    """A mixed-degree configuration model: 10^6 pair states, solved exactly
    by the pair chain applied in matrix form."""
    return sample_configuration_model(DegreeDistribution.from_pairs([(3, 0.5), (4, 0.5)]),
                                      1000, derive_rng(0, "cm1000-cal", 0),
                                      require_connected=True)


_irregular = cache(lambda: MarkovChain.from_rates(IRREGULAR_RATES))
_path2 = cache(lambda: path_graph(2))
_cycle4 = cache(lambda: cycle_graph(4))
_cycle9 = cache(lambda: cycle_graph(9))


@cache
def _torus310():
    """torus(3, 10), its chain, and its mean meeting time from the spectrum."""
    g = torus_graph(3, 10)
    c = build_generator(g)
    return g, c, spectrum(c).eigentime_sum() / 2.0


def _values(graph, task, times, reps, seed, threads, pool, convention="per_edge_unit"):
    """A runner task's values, as ``runner._task_values`` stacks them."""
    return runner._task_values(graph, convention, {"task": task}, times, reps, seed,
                               threads, pool)[2]


def _reps(floor, full):
    return lambda scale: max(floor, int(full * scale))


_REPS_20K = _reps(2000, 20_000)


# -- statistics that a test and a verify row share -------------------------

def _ratio(p_hat, se, prediction):
    """A density over a prediction for it."""
    return Sample(p_hat / prediction, se / prediction)


def _subset_density(graph, times):
    """The density at each time, from the subset chain."""
    return exact_occupancy_density(build_generator(graph), times)[:, 0]


def _kingman(taus, ref, n):
    """|z| of the mean coalescence time on K_n against 1 - 1/n, and the KS
    distance from the Kingman stage sampler."""
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    return abs(taus.mean() - (1.0 - 1.0 / n)) / se, ks_distance_two_sample(taus, ref)


def _z(x, reference):
    x = np.asarray(x, dtype=float)
    return (x.mean() - reference) / (x.std(ddof=1) / math.sqrt(len(x)))


_TIMES = [0.5, 1.0, 2.0]
# the two-vertex path's density, (1 + e^{-2t}) / 2
_TWO_PATH = (1 + np.exp(-2 * np.asarray(_TIMES))) / 2
_PAIRS6 = [(v, (v + 1) % 6) for v in range(6)] + [(v, (v + 2) % 6) for v in range(6)]
_RATIO_10 = Band("band", 0.10)
_RATIO_20 = Band("band", 0.20)
_DENSITY_Z = Band("<=", 4.0)
_ARRATIA = Band("<=", 3.0, count=24, one_sided=True)
# t P_hat over t A1 and t A2 in [1/1.2, 1/0.8]: each prediction within 20%
# of the density, where verify asks the density within 20% of each
_MF310 = Band("band", (1 / 0.8 - 1 / 1.2) / 2.0)
_MF310_CENTRE = (1 / 1.2 + 1 / 0.8) / 2.0


def _ks_band(reps):
    """The two-sample KS band of ``verify``: 1.63 sqrt(2 / n) + 0.01 for n
    draws a side."""
    def band(scale):
        n = reps(scale)
        return Band("ks", 1.63 * np.sqrt((n + n) / (n * n)) + 0.01, sizes=(n, n))
    return band


# -- the two-walker estimators (tests/test_meeting.py, test_theory.py) -----

def _alpha_check(name, chain, x, t, reps, z):
    def draw(seed, *_):
        res = alpha_survival(chain(), x, t, mode="mc", reps=reps,
                             rng=_stream(seed, "alpha-cal", x))
        return Sample(res["value"], res["stderr"])
    return Check(name, draw, Band("z", z), cache(lambda: alpha_survival(chain(), x, t)["value"]))


def _pair_check(name, graph, reps, z):
    """The test also fails on a censored pair."""
    def draw(seed, *_):
        g = graph()
        res = mc_pair_meeting(g, reps, _stream(seed, "pairmc-cal", g.n))
        return Sample(res["mean"], res["stderr"], res["censored"])
    exact = cache(lambda: mean_meeting_time(build_generator(graph()), "pi_pi"))
    return Check(name, draw, Band("z", z), exact, uncensored=True)


def _psi3(seed, *_):
    res = estimate_psi_d(3, 10_000, 30_000, _stream(seed, "psi3-cal"))
    s = Sample(res["psi_hat"], res["stderr"])
    return {"psi_d3": s, "psi_d3_exact": s}


def _alpha_d_check(d):
    def draw(seed, *_):
        res = estimate_alpha_D(DegreeDistribution.delta(d), 14, 60.0, 6000,
                               _stream(seed, "alphaD-cal", d))
        # the test allows up to 5% of pairs censored at the horizon
        return Sample(res["alpha_hat"], res["stderr"], int(res["censored_fraction"] > 0.05))
    return Check(f"alpha_D_delta{d}", draw, Band("z", 4.0, slack=0.05),
                 alpha_regular_tree(d), uncensored=True)


# -- the ancestral sampler (tests/test_voter.py, C7) -----------------------

def _ancestral_checks(case, graph, convention, t):
    """E[nhat^k], k = 1, 2, over 40 000 draws, against n^k P(k + 1 uniform
    walkers coalesced by t)."""
    def draw(seed, *_):
        x = sample_nhat_ancestral(graph(), t, 40_000, derive_rng(seed, "anc-moments", 0),
                                  convention=convention).astype(float)
        return {f"anc_{case}_k{k}": Sample((x**k).mean(), (x**k).std(ddof=1) / math.sqrt(len(x)))
                for k in (1, 2)}
    return [Check(f"anc_{case}_k{k}", draw, Band("z", 4.5),
                  cache(lambda k=k: exact_k_particle_law(build_generator(graph(), convention),
                                                         k, t)["e_ntk"]))
            for k in (1, 2)]


def _c7(seed, *_):
    """C7's m2 and m3, each with a standard error, and its Gamma(2, 2) KS
    distance: 10 000 trajectories of two draws on torus(3, 10) at t = 15."""
    x = sample_nhat_ancestral(torus_graph(3, 10), 15.0, 10_000, derive_rng(seed, "c7", 0),
                              draws_per_trajectory=2).astype(float).reshape(-1, 2)
    mean = x.mean()
    out = {"c7_ks": Sample(gamma_ks(x.reshape(-1)), math.nan)}
    for k in (2, 3):
        raw = (x**k).mean()
        # the delta method on whole trajectories, whose two draws correlate
        infl = (x**k).mean(axis=1) / mean**k - k * raw * x.mean(axis=1) / mean ** (k + 1)
        out[f"c7_m{k}"] = Sample(raw / mean**k, infl.std(ddof=1) / math.sqrt(len(infl)))
    return out


# -- the density, coalescence-time and occupancy estimators ----------------

def _density_z(reps, *cases):
    """The largest |z| of ``estimate_density`` at times 0.5, 1 and 2 over
    the (stream label, graph, exact density) cases, where no exact density
    means the subset chain's."""
    def draw(seed, *_):
        zs = []
        for label, graph, exact in cases:
            g = graph()
            est = estimate_density(g, _TIMES, reps, derive_rng(seed, label, 0))
            exact = _subset_density(g, _TIMES) if exact is None else exact
            zs.extend(np.abs(est.p_hat - exact) / est.stderr)
        return Sample(max(zs), 1.0)
    return draw


def _c4(seed, *_):
    """C4: 100 000 coalescence times on K8 against the Kingman stage sampler."""
    taus = sample_tau_coal_many(complete_graph(8), 100_000, derive_rng(seed, "c4", 0))
    ref = kingman_tau_coal(8, 0.5, 100_000, derive_rng(seed, "c4-ref", 0))["samples"]
    z, ks = _kingman(taus, ref, 8)
    return {"c4_mean": Sample(z, 1.0, notes={"mean": taus.mean()}),
            "c4_ks": Sample(ks, math.nan)}


def _c9(seed, *_):
    """C9: the largest standardized reversal-identity residual, 100 000
    replicates each, on K2 at k = 1 and the 3-cycle at k = 1 and 2, at
    t = 0.5 and 1."""
    worst = 0.0
    for name, g, k in (("K2", path_graph(2), 1), ("cycle3", cycle_graph(3), 1),
                       ("cycle3", cycle_graph(3), 2)):
        c = build_generator(g)
        for t in (0.5, 1.0):
            res = reversal_identity_residual(c, k, t, 100_000,
                                             derive_rng(seed, f"c9-{name}-{k}-{t}", 0))
            worst = max(worst, res["residual"])
    return Sample(worst, 1.0)


def _c10(seed, *_):
    """C10: cov / stderr of every pair at both times, 100 000 replicates."""
    res = occupancy_covariances(cycle_graph(6), _PAIRS6, [0.5, 1.0], 100_000,
                                derive_rng(seed, "c10", 0))
    return Sample(max(r["cov_hat"] / r["stderr"] for r in res.values()), 1.0)


def _monotone(seed, *_):
    """TestDensity::test_p_hat_nonincreasing_within_noise: each rise of
    P_hat over the next grid time, in units of the two standard errors."""
    est = estimate_density(cycle_graph(6), [0.0, 0.3, 0.8, 1.5, 3.0], 5000,
                           derive_rng(seed, "mono", 0))
    p, se = est.p_hat, est.stderr
    return Sample(float(np.max((p[1:] - p[:-1]) / np.hypot(se[1:], se[:-1]))), 1.0)


def _cycle3_tau(seed, *_):
    """TestKParticle::test_cycle3_k2_vs_mc: P(tau_coal <= 0.5) on the
    3-cycle from 20 000 draws."""
    taus = sample_tau_coal_many(cycle_graph(3), 20_000, derive_rng(seed, "kp", 0))
    p = float((taus <= 0.5).mean())
    return Sample(p, math.sqrt(p * (1 - p) / len(taus)))


def _complete4(seed, *_):
    """TestKingman::test_complete4_law_match: 50 000 coalescence times on
    K4 against the Kingman stage sampler."""
    taus = sample_tau_coal_many(complete_graph(4), 50_000, derive_rng(seed, "king", 0))
    ref = kingman_tau_coal(4, 0.5, 50_000, derive_rng(seed, "king", 1))["samples"]
    return Sample(_kingman(taus, ref, 4)[1], math.nan)


def _mf310(seed, *_):
    """test_full_pipeline_torus310: P_hat over A1 and over A2, with alpha
    from 20 000 Monte Carlo pairs."""
    g, c, m = _torus310()
    t = 15.0
    alpha = alpha_survival(c, 0, t, mode="mc", reps=20_000,
                           rng=derive_rng(seed, "mf310", 1))["value"]
    preds = mean_field_predictions(g.n, t, m, alpha)
    est = estimate_density(g, [t], 200, derive_rng(seed, "mf310", 0))
    return {f"mf310_{k}": _ratio(est.p_hat[0], est.stderr[0], preds[k].value)
            for k in ("A1", "A2")}


def _mf36(*_):
    """test_consistency_exact_alpha_torus36 and C6: the two mean-field forms
    agree through 2 t_meet alpha_2 / n near 1 on torus(3, 6), with the
    spectrum's meeting time and the exact alpha.  No Monte Carlo: sigma 0."""
    c = build_generator(torus_graph(3, 6))
    m = spectrum(c).eigentime_sum() / 2.0
    return Sample(2.0 * m * alpha_survival(c, 0, 2.0)["value"] / 216.0, 0.0)


def _dual_cycle4(seed, *_):
    """TestDualityGap on cycle(4) at t = 1, 20 000 replicates a side."""
    res = duality_gap(cycle_graph(4), 1.0, 20_000, derive_rng(seed, "dual", 0))
    return {"dual_ks": Sample(res["ks_nhat_vs_Nt"], math.nan),
            "dual_survival": Sample(res["abs_gap_survival_vs_density"]
                                    / res["se_survival_vs_density"], 1.0),
            "dual_invN": Sample(res["abs_gap_Pt_vs_invNt"] / res["se_Pt_vs_invNt"], 1.0)}


def _runner_laws(case, graph, n, convention, times):
    """TestRunnerLaws: 20 000 replicates of each task, and at each time the
    z of the density, tracked-cluster, nhat and per-site occupancy means and
    of P(tau_coal <= t) against the exact oracles.  The blocks run on the
    lockstep kernels; the scalar engines give the same rows."""
    @cache
    def refs():
        g = graph()
        c = build_generator(g, convention)
        single = np.array([bin(v).count("1") == 1 for v in range(1, 1 << g.n)])
        # P(tau_coal <= t) is the subset chain's mass on singletons
        return [(exact_occupancy_density(c, t), exact_k_particle_law(c, 1, t)["e_ntk"],
                 _subset_distribution(c, t)[single].sum()) for t in times]

    def draw(seed, *_):
        g, reps = graph(), 20_000
        vals = {k: _values(g, k, times, reps, seed, 1, None, convention) for k in _TASK_KINDS}
        zs = []
        for i, (occ_exact, e_n, p_one) in enumerate(refs()):
            # each replicate's values at times[i]: the cluster count first
            dens, tracked, occ, nhat = (vals[k][:, i] for k in
                                        ("density", "tracked_cluster", "occupancy", "nhat"))
            zs += [_z(dens[:, 0], occ_exact.sum()), _z(tracked[:, 1], e_n),
                   _z(nhat[:, 0], e_n)]
            # the indicators must sum to the cluster count
            if not (occ[:, 1:].sum(axis=1) == occ[:, 0]).all():
                zs.append(math.inf)
            zs += [_z(occ[:, 1 + v], occ_exact[v]) for v in range(g.n)]
            hits = vals["tau_coal"] <= times[i]
            zs.append((hits.mean() - p_one) / math.sqrt(p_one * (1 - p_one) / reps))
        return Sample(float(np.abs(zs).max()), 1.0)
    return Check(f"runner_lockstep_{case}", draw, Band("<=", 4.5, count=len(times) * (n + 4)))


# -- verify statistical ----------------------------------------------------

def _occupancy_vs_exact(name, graph):
    """Monte Carlo density against the subset-chain oracle, and the
    oracle against the occupancy floor 1 / (1 + d_max t)."""
    def draw(seed, scale, threads, pool):
        g = graph()
        est = _density(g, "per_edge_unit", _TIMES, _REPS_20K(scale), seed, threads, pool)
        out = {}
        for t, exact, p_hat, se in zip(_TIMES, _subset_density(g, _TIMES), est.p_hat, est.stderr):
            out[f"mc_vs_exact_{name}/z_t{t}"] = Sample(abs(p_hat - exact) / se, 1.0)
            out[f"occupancy_floor_{name}/t{t}"] = Sample(exact - 1.0 / (1.0 + g.d_max * t), 0.0)
        return out
    floor = Band(">=", 0.0, slack=1e-12)
    return [Check(f"{kind}_{name}/{q}{t}", draw, band, suite="statistical")
            for t in _TIMES
            for kind, q, band in (("mc_vs_exact", "z_t", _DENSITY_Z),
                                  ("occupancy_floor", "t", floor))]


_DUALITY_REPS = _reps(1000, 5000)


def _duality(reps, names):
    """Duality on the 6-cycle at t = 1 from ``reps(scale)`` replicates of
    the runner's nhat and tracked-cluster blocks, under the first of
    ``names``: the KS distance of nhat against N_t, the z of P_t against
    E[1 / N_t] and the largest z of the four size-bias bins.  These compare
    P(nhat = k) with k P(|C_0| = k), where |C_0| is opinion 0's cluster size
    in the same runs: on the transitive cycle it has the law of a uniform
    opinion's cluster size."""
    def draw(seed, scale, threads, pool):
        g6, t = cycle_graph(6), 1.0
        nhat, n_0 = _values(g6, "nhat", [t], reps(scale), seed, threads, pool)[:, 0].T
        crw = _values(g6, "tracked_cluster", [t], reps(scale), seed, threads, pool)[:, 0]
        dual = duality_statistics(
            nhat.astype(float), crw[:, 1].astype(float), crw[:, 0].astype(float), g6.n
        )
        z = dual["abs_gap_Pt_vs_invNt"] / dual["se_Pt_vs_invNt"]
        bins = max(abs(b["diff"]) / b["se"] for b in size_bias_histogram(nhat, n_0, 4))
        return dict(zip(names, (Sample(dual["ks_nhat_vs_Nt"], math.nan), Sample(z, 1.0),
                                Sample(bins, 1.0))))
    return draw


_C3 = _duality(lambda scale: 20_000, ("c3_ks", "c3_invN", "c3_bins"))
_DUALITY_CYCLE6 = _duality(_DUALITY_REPS, ("duality_cycle6/ks_nhat_vs_N",
                                           "duality_cycle6/z_Pt_vs_invN"))


def _kingman_k8(seed, scale, threads, pool):
    """Complete-graph coalescence against the exponential-stage sampler."""
    reps = _REPS_20K(scale)
    taus = _values(complete_graph(8), "tau_coal", [], reps, seed, threads, pool)
    ref = kingman_tau_coal(8, 0.5, reps, derive_rng(seed, "verify-kingman-ref", 0))
    z, ks = _kingman(taus, ref["samples"], 8)
    return {"kingman_K8/z_mean": Sample(z, 1.0),
            "kingman_K8/ks_two_sample": Sample(ks, math.nan)}


def _arratia(seed, scale, threads, pool):
    """Negative association of occupation indicators on the 6-cycle."""
    times = [0.5, 1.0]
    occ = _values(cycle_graph(6), "occupancy", times, _REPS_20K(scale), seed, threads, pool)
    worst = -1e18
    for ti in range(len(times)):
        # the indicators follow the cluster count
        ind = occ[:, ti, 1:].astype(float)
        for a, b in _PAIRS6:
            jk = jackknife_cov(ind[:, a], ind[:, b])
            cov, se = jk["cov_hat"], jk["stderr"]
            worst = max(worst, cov / se if se > 0 else 0.0)
    return Sample(worst, 1.0)


def _reversal(seed, scale, threads, pool):
    """Time-reversal identity at k = 1 on the two-state chain."""
    res = reversal_identity_residual(build_generator(path_graph(2)), 1, 1.0,
                                     _REPS_20K(scale), derive_rng(seed, "verify-reversal", 0))
    return Sample(res["residual"], 1.0)


# -- verify paper ----------------------------------------------------------

def _paper_cycle(seed, scale, threads, pool):
    """One-dimensional ring: inverse square-root law, unit total rate."""
    g, t = cycle_graph(100_000), 200.0
    est = _density(g, "total_unit", [t], max(4, int(10 * scale)), seed, threads, pool)
    p_hat, se = est.p_hat[0], est.stderr[0]
    pred = bg_prediction(1, t)
    # the density the estimator targets: t = 200 is far below n^2
    return {"paper_cycle1e5_d1/ratio_bg": _ratio(p_hat, se, pred),
            "paper_cycle1e5_d1/ratio_exact_1d": _ratio(p_hat, se, exact_density_1d(t)),
            "predictions": [{"label": "BG(1)", "value": pred, "inputs": {"t": t, "n": g.n}}]}


def _paper_torus(seed, scale, threads, pool):
    """Three-dimensional torus: mean-field forms and the lattice law."""
    g, c, m_eig = _torus310()
    t, n = 15.0, g.n
    est = _density(g, "per_edge_unit", [t], max(40, int(200 * scale)), seed, threads, pool)
    p_hat, se = est.p_hat[0], est.stderr[0]
    # exact, on the torus's n-state difference walk
    alpha_t = alpha_survival(c, 0, t)
    preds = mean_field_predictions(n, t, m_eig, alpha_t["value"])
    psi3 = psi_d(3)
    # lattice law stated for unit-total-rate walkers; per-edge runs 2d faster
    bg3 = bg_prediction(3, 2 * 3 * t, psi_hat=psi3)
    return {
        "paper_torus310/ratio_A1": _ratio(p_hat, se, preds["A1"].value),
        "paper_torus310/ratio_A2": _ratio(p_hat, se, preds["A2"].value),
        "paper_torus310/ratio_bg3": _ratio(p_hat, se, bg3),
        "predictions": [
            {"label": "A1", "value": preds["A1"].value,
             "inputs": {"t": t, "alpha_t": alpha_t["value"]},
             "stderr": alpha_t["stderr"] / (t * alpha_t["value"] ** 2)},
            {"label": "A2", "value": preds["A2"].value,
             "inputs": {"t": t, "t_meet": m_eig, "n": n}},
            {"label": "BG(3)", "value": bg3,
             "inputs": {"t": t, "psi_d": psi3, "rate_scale": 6}},
        ],
    }


def _paper_cm3(seed, scale, threads, pool):
    """Configuration model with constant degree three: t P_hat alpha and
    2 t_meet alpha / n, each near 1, on a fresh 20k graph."""
    g = sample_configuration_model(DegreeDistribution.delta(3), 20_000,
                                   derive_rng(seed, "paper-cm-graph", 0), require_connected=True)
    t, alpha = 50.0, alpha_regular_tree(3)
    est = _density(g, "per_edge_unit", [t], max(8, int(24 * scale)), seed, threads, pool)
    p_hat, se = est.p_hat[0], est.stderr[0]
    # 800 pairs put sigma near a third of the band.  A pair needs about 4e4
    # events on average; a budget of 50 n / r_min (3.3e5 on a graph with no
    # degree-1 vertex) censored a pair on 2 of 20 fresh seeds
    meet = mc_pair_meeting(g, max(800, int(500 * scale)), derive_rng(seed, "paper-cm-meet", 0),
                           horizon_events=10**7)
    # censored pairs are left out of the mean, which biases it low
    two_meet = Sample((2.0 * meet["mean"] / g.n) * alpha, 2.0 * meet["stderr"] / g.n * alpha,
                      meet["censored"])
    return {"paper_cm3/t_phat_alpha": Sample(t * p_hat * alpha, se * t * alpha),
            "paper_cm3/two_meet_over_n_alpha": two_meet,
            "predictions": [{"label": "alpha(delta3)", "value": alpha, "inputs": {"d": 3}}]}


TABLE = [
    # tests/test_meeting.py
    _alpha_check("alpha_mc_cycle4", cache(lambda: build_generator(_cycle4())), 0, 0.25,
                 100_000, 3.0),
    _alpha_check("alpha_mc_irregular_x2", _irregular, 2, 0.8, 40_000, 4.5),
    _alpha_check("alpha_mc_irregular_x3", _irregular, 3, 0.3, 40_000, 4.5),
    _pair_check("pair_k2", _path2, 20_000, 4.0),
    _pair_check("pair_cycle12", cache(lambda: cycle_graph(12)), 20_000, 4.0),
    _pair_check("pair_lollipop", _lollipop, 40_000, 4.5),
    # Monte Carlo two-walker estimators against the exact pair chain
    _pair_check("pair_cm1000", _cm1000, 4000, 4.0),
    _alpha_check("alpha_mc_cm1000", cache(lambda: build_generator(_cm1000())), 0, 2.0,
                 20_000, 4.0),
    # tests/test_theory.py
    Check("psi_d3", _psi3, Band("band", 0.01), 0.659),
    Check("psi_d3_exact", _psi3, Band("z", 4.5), cache(lambda: psi_d_horizon(3, 10_000))),
    _alpha_d_check(3),
    _alpha_d_check(4),
    # tests/test_voter.py and C7, on the ancestral sampler
    *_ancestral_checks("lollipop", _lollipop, "per_edge_unit", 0.8),
    *_ancestral_checks("cycle9", _cycle9, "total_unit", 2.0),
    Check("c7_m2", _c7, Band("band", 0.1), 1.5),
    Check("c7_m3", _c7, Band("band", 0.5), 3.0),
    Check("c7_ks", _c7, Band("band", 0.025), 0.025),
    # tests/test_acceptance.py; C2 takes both graphs' density against the
    # subset chain, and C5, C6 and C8 read verify paper's rows
    Check("c2_density", _density_z(100_000, ("c2-path2", _path2, None),
                                   ("c2-cycle4", _cycle4, None)), Band("<=", 4.0, count=6)),
    Check("c3_ks", _C3, Band("ks", 0.02, sizes=(20_000, 20_000))),
    Check("c3_invN", _C3, Band("<=", 4.0)),
    Check("c3_bins", _C3, Band("<=", 4.0, count=4)),
    Check("c4_mean", _c4, Band("<=", 4.0)),
    Check("c4_ks", _c4, Band("ks", 0.02, sizes=(100_000, 100_000))),
    Check("c9_reversal", _c9, Band("<=", 3.0, count=6)),
    Check("c10_cov", _c10, _ARRATIA),
    # tests/test_crw.py
    Check("density_two_path", _density_z(20_000, ("dens", _path2, _TWO_PATH)),
          Band("<=", 4.0, count=3)),
    Check("density_monotone", _monotone, Band("<=", 4.0, count=4, one_sided=True)),
    Check("occupancy_mc_agrees", _density_z(20_000, ("occ", _cycle4, None)),
          Band("<=", 4.0, count=3)),
    Check("kparticle_cycle3", _cycle3_tau, Band("z", 3.0),
          cache(lambda: exact_k_particle_law(build_generator(cycle_graph(3)), 2, 0.5,
                                             "distinct")["p_coal"])),
    _runner_laws("lollipop", _lollipop, 7, "per_edge_unit", [0.3, 0.8, 2.0]),
    _runner_laws("cycle9_total_unit", _cycle9, 9, "total_unit", [0.5, 2.0, 5.0]),
    # tests/test_theory.py
    Check("mf310_A1", _mf310, _MF310, _MF310_CENTRE),
    Check("mf310_A2", _mf310, _MF310, _MF310_CENTRE),
    Check("mf36_exact_alpha", _mf36, _RATIO_20, 1.0),
    Check("complete4_ks", _complete4, Band("ks", 0.02, sizes=(50_000, 50_000))),
    # tests/test_voter.py::TestDualityGap
    Check("dual_ks", _dual_cycle4, Band("ks", 0.02, sizes=(20_000, 20_000))),
    Check("dual_survival", _dual_cycle4, Band("<=", 4.0)),
    Check("dual_invN", _dual_cycle4, Band("<=", 4.0)),
    # verify statistical, in row order
    *_occupancy_vs_exact("path2", _path2),
    *_occupancy_vs_exact("cycle4", _cycle4),
    Check("duality_cycle6/ks_nhat_vs_N", _DUALITY_CYCLE6, _ks_band(_DUALITY_REPS),
          suite="statistical"),
    Check("duality_cycle6/z_Pt_vs_invN", _DUALITY_CYCLE6, _DENSITY_Z, suite="statistical"),
    Check("kingman_K8/z_mean", _kingman_k8, _DENSITY_Z, suite="statistical"),
    Check("kingman_K8/ks_two_sample", _kingman_k8, _ks_band(_REPS_20K), suite="statistical"),
    Check("arratia_cycle6/max_z", _arratia, _ARRATIA, suite="statistical"),
    Check("reversal_K2/residual", _reversal, Band("<=", 3.0), suite="statistical"),
    # verify paper, in row order
    Check("paper_cycle1e5_d1/ratio_bg", _paper_cycle, _RATIO_10, 1.0, suite="paper"),
    Check("paper_cycle1e5_d1/ratio_exact_1d", _paper_cycle, _RATIO_10, 1.0, suite="paper"),
    Check("paper_torus310/ratio_A1", _paper_torus, _RATIO_20, 1.0, suite="paper"),
    Check("paper_torus310/ratio_A2", _paper_torus, _RATIO_20, 1.0, suite="paper"),
    Check("paper_torus310/ratio_bg3", _paper_torus, Band("band", 0.25), 1.0, suite="paper"),
    Check("paper_cm3/t_phat_alpha", _paper_cm3, _RATIO_20, 1.0, suite="paper"),
    Check("paper_cm3/two_meet_over_n_alpha", _paper_cm3, Band("band", 0.15), 1.0,
          uncensored=True, suite="paper"),
]
CHECKS = {check.name: check for check in TABLE}
