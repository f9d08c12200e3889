"""Acceptance criteria, one test per criterion, at the stated sizes and
tolerances.  Each test prints a single pass/fail line (run pytest with -s to
see them inline).  The Monte Carlo statistics and bands of C2-C10 are checks
of the shared table in ``coalesce._checks``; C5, C6 and C8 read ``verify
paper``'s own rows, C2, C4 and C10 read ``verify statistical``'s rows at
scale 5 (100 000 replicates), and C3 reads its ``duality_cycle6`` sampler,
the runner's derived blocks, at 20 000 replicates."""

import subprocess
import sys
import time

from coalesce._checks import run_checks
from coalesce.chains import build_generator
from coalesce.crw import exact_occupancy_cov
from coalesce.graphs import cycle_graph
from coalesce.verify import exact_suite


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
    # the density against the subset chain, and the subset chain against
    # the occupancy floor 1 / (1 + d_max t), on path2 and cycle4
    out = run_checks([
        "mc_vs_exact_path2/z_t0.5", "mc_vs_exact_path2/z_t1.0", "mc_vs_exact_path2/z_t2.0",
        "mc_vs_exact_cycle4/z_t0.5", "mc_vs_exact_cycle4/z_t1.0", "mc_vs_exact_cycle4/z_t2.0",
        "occupancy_floor_path2/t0.5", "occupancy_floor_path2/t1.0", "occupancy_floor_path2/t2.0",
        "occupancy_floor_cycle4/t0.5", "occupancy_floor_cycle4/t1.0",
        "occupancy_floor_cycle4/t2.0",
    ], 2025, scale=5.0)
    z = max(o.value for name, o in out.items() if name.startswith("mc_vs_exact"))
    margin = min(o.value for name, o in out.items() if name.startswith("occupancy_floor"))
    elapsed = time.monotonic() - t0
    report(
        "C2",
        all(o.ok for o in out.values()) and elapsed < 30.0,
        f"max |z| = {z:.2f} (<=4), least occupancy floor margin = {margin:.4f} (>=0), "
        f"{elapsed:.1f}s",
    )


def test_c03_duality_cycle6():
    t0 = time.monotonic()
    out = run_checks(["c3_ks", "c3_invN", "c3_bins"], 2025)
    ks, z_inv, worst_bin = (out[k].value for k in out)
    elapsed = time.monotonic() - t0
    report(
        "C3",
        all(o.ok for o in out.values()) and elapsed < 60.0,
        f"KS = {ks:.4f} (<=0.02), z_invN = {z_inv:.2f}, max bin z = {worst_bin:.2f}, {elapsed:.1f}s",
    )


def test_c04_kingman_complete_graph():
    t0 = time.monotonic()
    out = run_checks(["kingman_K8/z_mean", "kingman_K8/ks_two_sample"], 2025, scale=5.0)
    z, ks = out["kingman_K8/z_mean"], out["kingman_K8/ks_two_sample"]
    elapsed = time.monotonic() - t0
    report(
        "C4",
        z.ok and ks.ok and elapsed < 60.0,
        f"mean = {z.notes['mean']:.5f} (z = {z.value:.2f}), KS = {ks.value:.4f} "
        f"(<={ks.band.width:.4f}), {elapsed:.1f}s",
    )


def test_c05_density_law_d1():
    t0 = time.monotonic()
    out = run_checks(["paper_cycle1e5_d1/ratio_bg", "paper_cycle1e5_d1/ratio_exact_1d"], 2025)
    bg, exact = out["paper_cycle1e5_d1/ratio_bg"], out["paper_cycle1e5_d1/ratio_exact_1d"]
    elapsed = time.monotonic() - t0
    report(
        "C5",
        bg.ok and exact.ok and elapsed < 120.0,
        f"sqrt(pi t) P_hat = {bg.value:.4f} in [0.90, 1.10], P_hat / exact = {exact.value:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_c06_mean_field_window_d3():
    t0 = time.monotonic()
    # with the exact-survival cross-check of the alpha-based form on the
    # 6-side torus
    out = run_checks(["paper_torus310/ratio_A2", "mf36_exact_alpha"], 2025)
    c6, cross = out["paper_torus310/ratio_A2"], out["mf36_exact_alpha"]
    elapsed = time.monotonic() - t0
    report(
        "C6",
        c6.ok and cross.ok and elapsed < 300.0,
        f"n t P/(2M) = {c6.value:.4f}, exact-alpha consistency = {cross.value:.4f}, {elapsed:.1f}s",
    )


def test_c07_gamma_moments():
    t0 = time.monotonic()
    out = run_checks(["c7_m2", "c7_m3", "c7_ks"], 2025)
    m2, m3, ks = (out[k].value for k in out)
    elapsed = time.monotonic() - t0
    report(
        "C7",
        all(o.ok for o in out.values()) and elapsed < 180.0,
        f"m2 = {m2:.3f} in [1.4,1.6], m3 = {m3:.3f} in [2.5,3.5], KS = {ks:.4f} (<=0.05), {elapsed:.1f}s",
    )


def test_c08_configuration_model():
    t0 = time.monotonic()
    out = run_checks(["paper_cm3/t_phat_alpha", "paper_cm3/two_meet_over_n_alpha"], 2025)
    density, meet = out["paper_cm3/t_phat_alpha"], out["paper_cm3/two_meet_over_n_alpha"]
    elapsed = time.monotonic() - t0
    report(
        "C8",
        density.ok and meet.ok and elapsed < 600.0,
        f"t P alpha = {density.value:.3f} in [0.8,1.2], 2 t_meet alpha / n = {meet.value:.3f} in [0.85,1.15], "
        f"censored = {meet.censored}, {elapsed:.1f}s",
    )


def test_c09_reversal_identity():
    t0 = time.monotonic()
    c9 = run_checks(["c9_reversal"], 2025)["c9_reversal"]
    elapsed = time.monotonic() - t0
    report(
        "C9",
        c9.ok and elapsed < 120.0,
        f"max standardized residual = {c9.value:.2f} (<=3), {elapsed:.1f}s",
    )


def test_c10_arratia_negativity():
    t0 = time.monotonic()
    c10 = run_checks(["arratia_cycle6/max_z"], 2025, scale=5.0)["arratia_cycle6/max_z"]
    c4 = build_generator(cycle_graph(4))
    exact_ok = all(
        exact_occupancy_cov(c4, x, y, t) <= 0.0
        for x, y in ((0, 1), (0, 2))
        for t in (0.5, 1.0, 2.0)
    )
    elapsed = time.monotonic() - t0
    report(
        "C10",
        c10.ok and exact_ok and elapsed < 60.0,
        f"max cov z = {c10.value:.2f} (<=3), exact covariances nonpositive: {exact_ok}, {elapsed:.1f}s",
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
