"""Bundled verification suites behind the ``verify`` CLI subcommand.

exact: machine-precision identities on built-in chains, < 10 s.
statistical: sigma-band Monte Carlo checks against exact oracles.
paper: a table of measured t * density against the mean-field and lattice
predictions on the three reference graph families.

Suites return (rows, ok), the paper suite additionally its prediction
records.  Rows are byte-deterministic for a fixed seed whatever the worker
count, because all replicate work runs on derived per-replicate streams.
"""

from __future__ import annotations

import numpy as np

from .chains import (
    MarkovChain,
    build_generator,
    product_chain,
    spectrum,
    transition_matrix,
    _return_integral,
)
from .crw import exact_occupancy_density
from .graphs import (
    DegreeDistribution,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    sample_configuration_model,
    torus_graph,
    vertex_expansion_exact,
)
from .meeting import (
    aldous_brown_check,
    alpha_survival,
    eigentime_residual,
    kac_residual,
    mc_pair_meeting,
    pairwise_meeting_times,
)
from .runner import _task_values, worker_pool
from .seeding import derive_rng
from .stats import jackknife_cov, ks_distance_two_sample
from .theory import (
    alpha_regular_tree,
    bg_prediction,
    exact_density_1d,
    kingman_tau_coal,
    mean_field_predictions,
    psi_d,
    reversal_identity_residual,
)
from .voter import duality_statistics

__all__ = ["exact_suite", "statistical_suite", "paper_suite", "SUITE_HEADER"]

SUITE_HEADER = ["check", "quantity", "value", "sigma", "threshold", "ok"]


def _row(check, quantity, value, sigma, threshold, ok):
    return (check, quantity, float(value), float(sigma), float(threshold), bool(ok))


def _random_chain(rng) -> MarkovChain:
    """Small random connected weighted chain: spanning tree plus extras."""
    n = int(rng.integers(3, 9))
    rates = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w = float(rng.integers(1, 4))
        rates[u, v] = rates[v, u] = w
    for u in range(n):
        for v in range(u + 1, n):
            if rates[u, v] == 0.0 and rng.random() < 0.3:
                w = float(rng.integers(1, 4))
                rates[u, v] = rates[v, u] = w
    return MarkovChain.from_rates(rates)


def _builtin_chains(*names):
    """Per-edge-unit chains on the named built-in graphs, all six when none
    is named."""
    graphs = {"path2": lambda: path_graph(2), "cycle4": lambda: cycle_graph(4),
              "cycle6": lambda: cycle_graph(6), "complete4": lambda: complete_graph(4),
              "torus33": lambda: torus_graph(3, 3), "hypercube3": lambda: hypercube_graph(3)}
    return [(name, build_generator(graphs[name]())) for name in names or graphs]


def exact_suite(seed: int = 0) -> tuple[list, bool]:
    rows = []
    rng = derive_rng(seed, "verify-exact", 0)

    # stationary flow identity on random (chain, subset) pairs
    worst = 0.0
    for _ in range(20):
        c = _random_chain(rng)
        size = int(rng.integers(1, c.n))
        A = rng.choice(c.n, size=size, replace=False)
        worst = max(worst, kac_residual(c, A))
    rows.append(_row("kac_random", "max_residual_20", worst, 0.0, 1e-9, worst <= 1e-9))

    for name, c in _builtin_chains("path2", "cycle4", "complete4", "torus33"):
        r = eigentime_residual(c, assume_transitive=True)
        rows.append(_row("eigentime", name, r, 0.0, 1e-8, r <= 1e-8))

    # exponential-approximation margins on the pair chain's diagonal
    c4 = build_generator(cycle_graph(4))
    pc = product_chain(c4)
    diag = [x * 4 + x for x in range(4)]
    report = aldous_brown_check(pc, diag, [round(0.1 * i, 10) for i in range(1, 21)])
    min_margin = min(
        min(r["margin_tail"], r["margin_density_upper"], r["margin_density_lower"])
        for r in report
    )
    rows.append(
        _row("aldous_brown", "min_margin", min_margin, 0.0, -1e-6, min_margin >= -1e-6)
    )

    # contraction of the heat kernel at the relaxation rate
    for name, c in _builtin_chains():
        t_rel = spectrum(c).t_rel
        ok = True
        worst = -1e18
        for s, t in ((0.3, 0.4), (0.5, 1.0)):
            ps = transition_matrix(c, s)
            pst = transition_matrix(c, s + t)
            lhs = pst.max() - 1.0 / c.n
            rhs = np.exp(-t / t_rel) * (np.diag(ps).max() - 1.0 / c.n)
            worst = max(worst, lhs - rhs)
            ok = ok and lhs <= rhs + 1e-12
        rows.append(_row("poincare", name, worst, 0.0, 1e-12, ok))

    # spectral gap against exhaustive vertex expansion
    for name, g in [
        ("cycle4", cycle_graph(4)),
        ("cycle6", cycle_graph(6)),
        ("complete4", complete_graph(4)),
        ("hypercube3", hypercube_graph(3)),
        ("hypercube4", hypercube_graph(4)),
    ]:
        c = build_generator(g)
        kappa = vertex_expansion_exact(g)
        gap = spectrum(c).eigenvalues[1]
        bound = kappa**2 / (2.0 * g.d_max)
        rows.append(_row("cheeger", name, gap - bound, 0.0, 0.0, gap >= bound - 1e-12))

    s4 = spectrum(c4)
    rows.append(
        _row("t_rel_cycle4", "abs_err", abs(s4.t_rel - 0.5), 0.0, 1e-8,
             abs(s4.t_rel - 0.5) <= 1e-8)
    )
    m4 = pairwise_meeting_times(c4).t_meet_pi
    rows.append(
        _row("t_meet_cycle4", "abs_err", abs(m4 - 0.625), 0.0, 1e-8,
             abs(m4 - 0.625) <= 1e-8)
    )

    # spectrum edge and relaxation floor on every built-in
    for name, c in _builtin_chains():
        spec = spectrum(c)
        lam_n = spec.eigenvalues[-1]
        ok = lam_n <= 2.0 * c.r_max + 1e-9 and spec.t_rel >= 1.0 / (2.0 * c.r_max) - 1e-12
        rows.append(_row("rate_bounds", name, lam_n, 0.0, 2.0 * c.r_max, ok))

    # semigroup property of the uniformized kernel
    for name, c in _builtin_chains("cycle6", "torus33"):
        gap = np.abs(
            transition_matrix(c, 1.5) - transition_matrix(c, 0.9) @ transition_matrix(c, 0.6)
        ).max()
        rows.append(_row("semigroup", name, gap, 0.0, 1e-10, gap <= 1e-10))

    # trace-integral envelope around the mean meeting time, transitive chains
    for name, c in _builtin_chains("cycle4", "complete4", "torus33"):
        spec = spectrum(c)
        m = pairwise_meeting_times(c).t_meet_pi
        integral_to = _return_integral(c)
        ok = True
        worst = 1e18
        for t in (spec.t_rel, 2.0 * spec.t_rel, 5.0):
            val = float(integral_to(2.0 * t)[0]) / 2.0  # integral of p_{2s} over [0,t]
            lo, hi = m / (2.0 * c.n), (m + t) / c.n
            ok = ok and lo - 1e-9 <= val <= hi + 1e-9
            worst = min(worst, min(val - lo, hi - val))
        rows.append(_row("meeting_integral", name, worst, 0.0, -1e-9, ok))

    # informational: the meeting-rate product, reported but not asserted
    for name, c in [("K2", build_generator(path_graph(2))),
                    ("complete4", build_generator(complete_graph(4)))]:
        m = pairwise_meeting_times(c).t_meet_pi
        rows.append(
            _row("diag_m_rmax_over_n", name, m * c.r_max / c.n, 0.0, 0.0, True)
        )

    ok = all(r[5] for r in rows)
    return rows, ok


def _values(graph, task, times, reps, seed, threads, pool,
            convention="per_edge_unit"):
    """A runner task's values, as ``runner._task_values`` stacks them."""
    return _task_values(graph, convention, {"task": task}, times, reps, seed,
                        threads, pool)[2]


def _density_stats(graph, convention, times, reps, seed, threads, pool):
    """Per grid time, the density and its standard error."""
    vals = _values(graph, "density", times, reps, seed, threads, pool, convention)
    # a contiguous row per grid time, so each mean and std sums in replicate order
    xi = vals[..., 0].T.astype(float, order="C")
    return {
        t: (x.mean() / graph.n, x.std(ddof=1) / graph.n / np.sqrt(len(x)))
        for t, x in zip(times, xi)
    }


def statistical_suite(
    seed: int = 0, threads: int = 1, scale: float = 1.0
) -> tuple[list, bool]:
    with worker_pool(threads) as pool:
        return _statistical_suite(seed, threads, scale, pool)


def _statistical_suite(seed, threads, scale, pool):
    rows = []

    def ks_threshold(n, m=None):
        if m is None:
            return 1.63 / np.sqrt(n) + 0.01
        return 1.63 * np.sqrt((n + m) / (n * m)) + 0.01

    # Monte Carlo density against the subset-chain oracle
    for name, g in [("path2", path_graph(2)), ("cycle4", cycle_graph(4))]:
        c = build_generator(g)
        times = [0.5, 1.0, 2.0]
        reps = max(2000, int(20000 * scale))
        stats = _density_stats(g, "per_edge_unit", times, reps, seed, threads, pool)
        for t, dens in zip(times, exact_occupancy_density(c, times)):
            exact = float(dens[0])
            p_hat, se = stats[t]
            z = abs(p_hat - exact) / se
            rows.append(_row(f"mc_vs_exact_{name}", f"z_t{t}", z, se, 4.0, z <= 4.0))
            bound = 1.0 / (1.0 + g.d_max * t)
            rows.append(
                _row(
                    f"occupancy_floor_{name}",
                    f"t{t}",
                    exact - bound,
                    0.0,
                    0.0,
                    exact >= bound - 1e-12,
                )
            )

    # duality on the 6-cycle
    g6 = cycle_graph(6)
    reps = max(1000, int(5000 * scale))
    t = 1.0
    nhat = _values(g6, "nhat", [t], reps, seed, threads, pool)[:, 0, 0]
    crw = _values(g6, "tracked_cluster", [t], reps, seed, threads, pool)[:, 0]
    dual = duality_statistics(
        nhat.astype(float), crw[:, 1].astype(float), crw[:, 0].astype(float), g6.n
    )
    ks = dual["ks_nhat_vs_Nt"]
    thr = ks_threshold(reps, reps)
    rows.append(_row("duality_cycle6", "ks_nhat_vs_N", ks, 0.0, thr, ks <= thr))
    se = dual["se_Pt_vs_invNt"]
    z = dual["abs_gap_Pt_vs_invNt"] / se
    rows.append(_row("duality_cycle6", "z_Pt_vs_invN", z, se, 4.0, z <= 4.0))

    # complete-graph coalescence against the exponential-stage sampler
    g8 = complete_graph(8)
    reps = max(2000, int(20000 * scale))
    taus = _values(g8, "tau_coal", [], reps, seed, threads, pool)
    mean_exp = 1.0 - 1.0 / 8.0
    se = taus.std(ddof=1) / np.sqrt(reps)
    z = abs(taus.mean() - mean_exp) / se
    rows.append(_row("kingman_K8", "z_mean", z, float(se), 4.0, z <= 4.0))
    ref = kingman_tau_coal(8, 0.5, reps, derive_rng(seed, "verify-kingman-ref", 0))
    ks = ks_distance_two_sample(taus, ref["samples"])
    thr = ks_threshold(reps, reps)
    rows.append(_row("kingman_K8", "ks_two_sample", ks, 0.0, thr, ks <= thr))

    # negative association of occupation indicators on the 6-cycle
    reps = max(2000, int(20000 * scale))
    times = [0.5, 1.0]
    occ = _values(g6, "occupancy", times, reps, seed, threads, pool)
    pairs = [(v, (v + 1) % 6) for v in range(6)] + [(v, (v + 2) % 6) for v in range(6)]
    worst = -1e18
    ok = True
    for ti in range(len(times)):
        # the indicators follow the cluster count
        ind = occ[:, ti, 1:].astype(float)
        for a, b in pairs:
            jk = jackknife_cov(ind[:, a], ind[:, b])
            cov, se = jk["cov_hat"], jk["stderr"]
            z = cov / se if se > 0 else 0.0
            worst = max(worst, z)
            ok = ok and cov <= 3.0 * se
    rows.append(_row("arratia_cycle6", "max_z", worst, 0.0, 3.0, ok))

    # time-reversal identity at k = 1 on the two-state chain
    c2 = build_generator(path_graph(2))
    res = reversal_identity_residual(
        c2, 1, 1.0, max(2000, int(20000 * scale)), derive_rng(seed, "verify-reversal", 0)
    )
    rows.append(
        _row("reversal_K2", "residual", res["residual"], res["stderr"], 3.0,
             res["residual"] <= 3.0)
    )

    ok = all(r[5] for r in rows)
    return rows, ok


def paper_suite(seed: int = 0, threads: int = 1, scale: float = 1.0) -> tuple[list, bool]:
    """Measured t * density against the predictions; ratio bands mirror the
    desk-scale acceptance windows."""
    with worker_pool(threads) as pool:
        return _paper_suite(seed, threads, scale, pool)


def _paper_suite(seed, threads, scale, pool):
    rows = []
    predictions = []

    # one-dimensional ring: inverse square-root law, unit total rate
    g = cycle_graph(100_000)
    t = 200.0
    reps = max(4, int(10 * scale))
    stats = _density_stats(g, "total_unit", [t], reps, seed, threads, pool)
    p_hat, se = stats[t]
    pred = bg_prediction(1, t)
    ratio = p_hat / pred
    rows.append(_row("paper_cycle1e5_d1", "ratio_bg", ratio, se / pred, 0.10,
                     0.90 <= ratio <= 1.10))
    # the density the estimator targets: t = 200 is far below n^2
    exact = exact_density_1d(t)
    ratio = p_hat / exact
    rows.append(_row("paper_cycle1e5_d1", "ratio_exact_1d", ratio, se / exact, 0.10,
                     0.90 <= ratio <= 1.10))
    predictions.append(
        {"label": "BG(1)", "value": pred, "inputs": {"t": t, "n": g.n}}
    )

    # three-dimensional torus: mean-field forms and the lattice law
    g = torus_graph(3, 10)
    t = 15.0
    n = g.n
    c = build_generator(g)
    m_eig = spectrum(c).eigentime_sum() / 2.0
    reps = max(40, int(200 * scale))
    stats = _density_stats(g, "per_edge_unit", [t], reps, seed, threads, pool)
    p_hat, se = stats[t]
    # exact, on the torus's n-state difference walk
    alpha_t = alpha_survival(c, 0, t)
    preds = mean_field_predictions(n, t, m_eig, alpha_t["value"])
    ratio1 = p_hat / preds["A1"].value
    ratio2 = p_hat / preds["A2"].value
    rows.append(_row("paper_torus310", "ratio_A1", ratio1, se / preds["A1"].value,
                     0.20, 0.80 <= ratio1 <= 1.20))
    rows.append(_row("paper_torus310", "ratio_A2", ratio2, se / preds["A2"].value,
                     0.20, 0.80 <= ratio2 <= 1.20))
    psi3 = psi_d(3)
    # lattice law stated for unit-total-rate walkers; per-edge runs 2d faster
    bg3 = bg_prediction(3, 2 * 3 * t, psi_hat=psi3)
    ratio3 = p_hat / bg3
    rows.append(_row("paper_torus310", "ratio_bg3", ratio3, se / bg3, 0.25,
                     0.75 <= ratio3 <= 1.25))
    predictions.extend(
        [
            {"label": "A1", "value": preds["A1"].value,
             "inputs": {"t": t, "alpha_t": alpha_t["value"]},
             "stderr": alpha_t["stderr"] / (t * alpha_t["value"] ** 2)},
            {"label": "A2", "value": preds["A2"].value,
             "inputs": {"t": t, "t_meet": m_eig, "n": n}},
            {"label": "BG(3)", "value": bg3,
             "inputs": {"t": t, "psi_d": psi3, "rate_scale": 6}},
        ]
    )

    # configuration model with constant degree three
    dist = DegreeDistribution.delta(3)
    g = sample_configuration_model(
        dist, 20_000, derive_rng(seed, "paper-cm-graph", 0), require_connected=True
    )
    t = 50.0
    reps = max(8, int(24 * scale))
    stats = _density_stats(g, "per_edge_unit", [t], reps, seed, threads, pool)
    p_hat, se = stats[t]
    alpha = alpha_regular_tree(3)
    val1 = t * p_hat * alpha
    rows.append(_row("paper_cm3", "t_phat_alpha", val1, se * t * alpha,
                     0.20, 0.80 <= val1 <= 1.20))
    # 800 pairs put sigma near a third of the band.  A pair needs about 4e4
    # events on average; a budget of 50 n / r_min (3.3e5 on a graph with no
    # degree-1 vertex) censored a pair on 2 of 20 fresh seeds
    meet = mc_pair_meeting(
        g, max(800, int(500 * scale)), derive_rng(seed, "paper-cm-meet", 0),
        horizon_events=10**7,
    )
    val2 = (2.0 * meet["mean"] / g.n) * alpha
    # censored runs are left out of the mean, which biases it low
    censored = meet["censored"]
    quantity = "two_meet_over_n_alpha"
    if censored:
        quantity += f"[{censored} censored]"
    rows.append(_row("paper_cm3", quantity, val2, 2.0 * meet["stderr"] / g.n * alpha,
                     0.15, censored == 0 and 0.85 <= val2 <= 1.15))
    predictions.append({"label": "alpha(delta3)", "value": alpha, "inputs": {"d": 3}})

    ok = all(r[5] for r in rows)
    return rows, ok, predictions
