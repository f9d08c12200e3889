"""Acceptance criteria, one test per criterion, at the stated sizes and
tolerances.  Each test prints a single pass/fail line (run pytest with -s to
see them inline)."""

import subprocess
import sys
import time

import numpy as np
import pytest

from coalesce.chains import build_generator, spectrum
from coalesce.crw import (
    estimate_density,
    exact_occupancy_cov,
    exact_occupancy_density,
    occupancy_covariances,
    sample_tau_coal_many,
)
from coalesce.graphs import (
    DegreeDistribution,
    complete_graph,
    cycle_graph,
    path_graph,
    sample_configuration_model,
    torus_graph,
)
from coalesce.meeting import alpha_survival, mc_pair_meeting
from coalesce.seeding import derive_rng
from coalesce.stats import ks_distance_two_sample
from coalesce.theory import (
    alpha_regular_tree,
    exact_density_1d,
    kingman_tau_coal,
    reversal_identity_residual,
)
from coalesce.verify import exact_suite
from coalesce.voter import (
    duality_statistics,
    gamma_ks,
    sample_nhat_ancestral,
    simulate_voter,
    size_bias_histogram,
)
from coalesce.crw import simulate_crw


def report(cid, ok, detail):
    print(f"\nACCEPTANCE {cid}: {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_exact_identity_suite():
    t0 = time.monotonic()
    rows, ok = exact_suite(seed=0)
    elapsed = time.monotonic() - t0
    failed = [r for r in rows if not r[5]]
    report(
        "C1",
        ok and elapsed < 10.0,
        f"{len(rows)} exact checks, {len(failed)} failures, {elapsed:.1f}s",
    )


def test_c02_mc_vs_exact_occupancy():
    t0 = time.monotonic()
    times = [0.5, 1.0, 2.0]
    worst_z = 0.0
    floor_ok = True
    for name, g in (("path2", path_graph(2)), ("cycle4", cycle_graph(4))):
        c = build_generator(g)
        est = estimate_density(g, times, 100_000, derive_rng(2025, f"c2-{name}", 0))
        for t, p, se in zip(times, est.p_hat, est.stderr):
            exact = exact_occupancy_density(c, t)
            worst_z = max(worst_z, abs(p - float(exact[0])) / se)
            floor_ok = floor_ok and bool(
                (exact >= 1.0 / (1.0 + g.d_max * t) - 1e-12).all()
            )
    elapsed = time.monotonic() - t0
    report(
        "C2",
        worst_z <= 4.0 and floor_ok and elapsed < 30.0,
        f"max |z| = {worst_z:.2f} (<=4), occupancy floor {'holds' if floor_ok else 'fails'}, {elapsed:.1f}s",
    )


def test_c03_duality_cycle6():
    t0 = time.monotonic()
    g = cycle_graph(6)
    reps = 20_000
    t = 1.0
    rng_v = derive_rng(2025, "c3-voter", 0)
    nhat = np.empty(reps, dtype=int)
    n_init = np.empty(reps, dtype=int)
    for r in range(reps):
        rec = simulate_voter(g, [t], rng_v)
        nhat[r] = rec["nhat"][0]
        n_init[r] = rec["n_init"][0]
    rng_c = derive_rng(2025, "c3-crw", 0)
    ncrw = np.empty(reps, dtype=int)
    xi = np.empty(reps, dtype=int)
    for r in range(reps):
        rec = simulate_crw(g, [t], rng_c, track="tracked_cluster")
        ncrw[r] = rec["N"][0]
        xi[r] = rec["xi_size"][0]
    dual = duality_statistics(nhat, ncrw, xi, g.n)
    ks = dual["ks_nhat_vs_Nt"]
    z_inv = dual["abs_gap_Pt_vs_invNt"] / dual["se_Pt_vs_invNt"]
    worst_bin = max(
        abs(b["diff"]) / b["se"] for b in size_bias_histogram(nhat, n_init, 4)
    )
    bins_ok = worst_bin <= 4.0
    elapsed = time.monotonic() - t0
    report(
        "C3",
        ks <= 0.02 and z_inv <= 4.0 and bins_ok and elapsed < 60.0,
        f"KS = {ks:.4f} (<=0.02), z_invN = {z_inv:.2f}, max bin z = {worst_bin:.2f}, {elapsed:.1f}s",
    )


def test_c04_kingman_complete_graph():
    t0 = time.monotonic()
    taus = sample_tau_coal_many(complete_graph(8), 100_000, derive_rng(2025, "c4", 0))
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    z = abs(taus.mean() - 0.875) / se
    ref = kingman_tau_coal(8, 0.5, 100_000, derive_rng(2025, "c4-ref", 0))["samples"]
    ks = ks_distance_two_sample(taus, ref)
    elapsed = time.monotonic() - t0
    report(
        "C4",
        z <= 4.0 and ks <= 0.02 and elapsed < 60.0,
        f"mean = {taus.mean():.5f} (z = {z:.2f}), KS = {ks:.4f} (<=0.02), {elapsed:.1f}s",
    )


def test_c05_density_law_d1():
    t0 = time.monotonic()
    g = cycle_graph(100_000)
    t = 200.0
    est = estimate_density(g, [t], 10, derive_rng(2025, "c5", 0), convention="total_unit")
    value = np.sqrt(np.pi * t) * est.p_hat[0]
    # reported beside the band: the density the estimator targets
    z = (est.p_hat[0] - exact_density_1d(t)) / est.stderr[0]
    elapsed = time.monotonic() - t0
    report(
        "C5",
        0.90 <= value <= 1.10 and elapsed < 120.0,
        f"sqrt(pi t) P_hat = {value:.4f} in [0.90, 1.10], z vs exact = {z:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_c06_mean_field_window_d3():
    t0 = time.monotonic()
    g = torus_graph(3, 10)
    t = 15.0
    m = spectrum(build_generator(g)).eigentime_sum() / 2.0
    est = estimate_density(g, [t], 200, derive_rng(2025, "c6", 0))
    ratio = 1000.0 * t * est.p_hat[0] / (2.0 * m)
    # exact-survival cross-check of the alpha-based form on the 6-side torus
    c6 = build_generator(torus_graph(3, 6))
    m6 = spectrum(c6).eigentime_sum() / 2.0
    alpha6 = alpha_survival(c6, 0, 2.0)["value"]
    cross = 2.0 * m6 * alpha6 / 216.0
    elapsed = time.monotonic() - t0
    report(
        "C6",
        abs(ratio - 1.0) <= 0.20 and abs(cross - 1.0) <= 0.20 and elapsed < 300.0,
        f"n t P/(2M) = {ratio:.4f}, exact-alpha consistency = {cross:.4f}, {elapsed:.1f}s",
    )


def test_c07_gamma_moments():
    t0 = time.monotonic()
    g = torus_graph(3, 10)
    samples = sample_nhat_ancestral(
        g, 15.0, 10_000, derive_rng(2025, "c7", 0), draws_per_trajectory=2
    ).astype(float)
    norm = samples / samples.mean()
    m2 = float(np.mean(norm**2))
    m3 = float(np.mean(norm**3))
    ks = gamma_ks(samples)
    elapsed = time.monotonic() - t0
    report(
        "C7",
        1.4 <= m2 <= 1.6 and 2.5 <= m3 <= 3.5 and ks <= 0.05 and elapsed < 180.0,
        f"m2 = {m2:.3f} in [1.4,1.6], m3 = {m3:.3f} in [2.5,3.5], KS = {ks:.4f} (<=0.05), {elapsed:.1f}s",
    )


def test_c08_configuration_model():
    t0 = time.monotonic()
    d3 = DegreeDistribution.delta(3)
    g = sample_configuration_model(
        d3, 20_000, derive_rng(2025, "c8-graph", 0), require_connected=True
    )
    t = 50.0
    est = estimate_density(g, [t], 24, derive_rng(2025, "c8-density", 0))
    alpha = alpha_regular_tree(3)
    val1 = t * est.p_hat[0] * alpha
    meet = mc_pair_meeting(g, 500, derive_rng(2025, "c8-meet", 0))
    # censored runs are left out of the mean meeting time, biasing it low
    val2 = (2.0 * meet["mean"] / g.n) * alpha
    elapsed = time.monotonic() - t0
    report(
        "C8",
        0.8 <= val1 <= 1.2 and 0.85 <= val2 <= 1.15 and meet["censored"] == 0
        and elapsed < 600.0,
        f"t P alpha = {val1:.3f} in [0.8,1.2], 2 t_meet alpha / n = {val2:.3f} in [0.85,1.15], "
        f"censored = {meet['censored']}, {elapsed:.1f}s",
    )


def test_c09_reversal_identity():
    t0 = time.monotonic()
    cases = [
        ("K2", build_generator(path_graph(2)), 1),
        ("cycle3", build_generator(cycle_graph(3)), 1),
        ("cycle3", build_generator(cycle_graph(3)), 2),
    ]
    worst = 0.0
    for i, (name, c, k) in enumerate(cases):
        for t in (0.5, 1.0):
            res = reversal_identity_residual(
                c, k, t, 100_000, derive_rng(2025, f"c9-{name}-{k}-{t}", 0)
            )
            worst = max(worst, res["residual"])
    elapsed = time.monotonic() - t0
    report(
        "C9",
        worst <= 3.0 and elapsed < 120.0,
        f"max standardized residual = {worst:.2f} (<=3), {elapsed:.1f}s",
    )


def test_c10_arratia_negativity():
    t0 = time.monotonic()
    g6 = cycle_graph(6)
    pairs = [(v, (v + 1) % 6) for v in range(6)] + [(v, (v + 2) % 6) for v in range(6)]
    res = occupancy_covariances(
        g6, pairs, [0.5, 1.0], 100_000, derive_rng(2025, "c10", 0)
    )
    worst = max(r["cov_hat"] / r["stderr"] for r in res.values())
    mc_ok = all(r["cov_hat"] <= 3.0 * r["stderr"] for r in res.values())
    c4 = build_generator(cycle_graph(4))
    exact_ok = all(
        exact_occupancy_cov(c4, x, y, t) <= 0.0
        for x, y in ((0, 1), (0, 2))
        for t in (0.5, 1.0, 2.0)
    )
    elapsed = time.monotonic() - t0
    report(
        "C10",
        mc_ok and exact_ok and elapsed < 60.0,
        f"max cov z = {worst:.2f} (<=3), exact covariances nonpositive: {exact_ok}, {elapsed:.1f}s",
    )


def test_c11_determinism_across_workers(tmp_path):
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        cmd = [
            sys.executable, "-m", "coalesce.cli", "verify", "statistical",
            "--seed", "7", "--threads", str(workers), "--scale", "0.2",
            "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs[workers] = (out / "statistical.csv").read_bytes()
    ok = outs[1] == outs[8]
    report("C11", ok, f"statistical.csv identical at 1 and 8 workers: {ok}")
