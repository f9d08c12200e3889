"""Bundled verification suites behind the ``verify`` CLI subcommand.

exact: machine-precision identities on built-in chains, < 10 s.
statistical: sigma-band Monte Carlo checks against exact oracles.
paper: a table of measured t * density against the mean-field and lattice
predictions on the three reference graph families.

The statistical and paper rows are the checks of ``coalesce._checks`` in
those suites, which the tests and ``tools/calibrate_bands.py`` also run.

Suites return (rows, ok), the paper suite additionally its prediction
records.  Rows are byte-deterministic for a fixed seed whatever the worker
count, because all replicate work runs on derived per-replicate streams.
"""

from __future__ import annotations

import numpy as np

from ._flat import check_count
from .chains import (
    MarkovChain,
    build_generator,
    product_chain,
    spectrum,
    transition_matrix,
    _return_integral,
)
from .graphs import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    torus_graph,
    vertex_expansion_exact,
)
from .meeting import (
    aldous_brown_check,
    eigentime_residual,
    kac_residual,
    pairwise_meeting_times,
)
from .runner import worker_pool
from .seeding import derive_rng

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


def statistical_suite(
    seed: int = 0, threads: int = 1, scale: float = 1.0
) -> tuple[list, bool]:
    """Sigma-band Monte Carlo checks against exact oracles: the table's
    statistical checks, one row each."""
    check_count(threads, 1, "threads")
    with worker_pool(threads) as pool:
        rows, ok, _ = _suite("statistical", seed, threads, scale, pool)
    return rows, ok


def paper_suite(seed: int = 0, threads: int = 1, scale: float = 1.0) -> tuple[list, bool]:
    """Measured t * density against the predictions; ratio bands mirror the
    desk-scale acceptance windows."""
    check_count(threads, 1, "threads")
    with worker_pool(threads) as pool:
        return _suite("paper", seed, threads, scale, pool)


def _suite(suite, seed, threads, scale, pool):
    """One row for each check of the table in ``suite``, in table order,
    the verdict, and the prediction records its draws give."""
    # loaded here, so that the exact suite runs without the table
    from ._checks import TABLE, run_checks

    memo = {}
    names = [check.name for check in TABLE if check.suite == suite]
    rows = []
    for name, out in run_checks(names, seed, scale, threads, pool, memo).items():
        check, quantity = name.split("/")
        if out.censored:
            # censored runs are left out of the mean, which biases it low
            quantity += f"[{out.censored} censored]"
        rows.append(_row(check, quantity, out.value, out.sigma, out.band.width, out.ok))
    predictions = [p for draw in memo.values() if isinstance(draw, dict)
                   for p in draw.get("predictions", ())]
    return rows, all(r[5] for r in rows), predictions
