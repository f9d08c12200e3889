"""Empirical failure rates of the banded checks over fresh seeds.

Runs checks of the shared table in ``coalesce._checks`` (the acceptance
tests C3, C7 and C9, the unit tests' sigma bands on the two-walker,
escape-walk, ancestral-sampler, density, coalescence-time and duality
estimators, and the ``verify statistical`` and ``verify paper`` rows at
scale 1, which C2, C4 and C10 read at scale 5 and C5, C6 and C8 at scale 1)
on K master seeds that no test uses, and prints how often each failed next
to the rate its band nominally allows.  It changes no band and no seed
anywhere.

    PYTHONPATH=src python tools/calibrate_bands.py --seeds 20
    PYTHONPATH=src python tools/calibrate_bands.py --seeds 20 --only psi_d3,paper_cm3/two_meet_over_n_alpha
    PYTHONPATH=src python tools/calibrate_bands.py --seeds 10 --only paper_cycle1e5_d1/ratio_bg

The last, C5's cycle(10^5) row, costs about 21 s a seed on one core of a
2-core machine (Python 3.11, numpy 2.4).

Nominal rates: ``z`` bands allow erfc(z / sqrt 2), and a test that takes
the largest of k such z values at most k times that; one-sided bounds on a
quantity whose true value lies inside them allow at most half of it; bands
with an added slack allow at most that.  A value with standard error 0 is
exact, so its band allows 0 if it holds and 1 if not.  A two-sample KS
bound allows at most the Kolmogorov tail at its scaled threshold (less on
discrete laws).  For fixed bands it is the mass a normal law at the mean
estimate with the mean standard error puts outside the band, which counts a
bias such as the finite horizon's.  C7's KS distance has no standard error
of its own, so its nominal rate takes the spread of the values over the
seeds instead.  The censored column counts the seeds with any pair
censored at its horizon (for alpha(D), more than the 5% the test allows);
it fails a check only where the test itself asserts it.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from coalesce._checks import CHECKS, run_checks

FIRST_SEED = 910_000


def kolmogorov_tail(lam):
    """P(sup |Brownian bridge| > lam), the two-sample KS limit law's tail."""
    return min(1.0, 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
                              for j in range(1, 101)))


def nominal(band, reference, values, se_bar):
    """The failure rate ``band`` nominally allows, as printed."""
    if se_bar == 0.0:
        # an exact value: it fails on every seed or on none
        return f"{0.0 if band.passes(float(np.mean(values)), reference, 0.0) else 1.0:.1e}"
    if band.kind == "band":
        # a normal law at the mean estimate and the mean standard error
        # leaves the fixed band [reference - width, reference + width] this often
        gap = (reference - float(np.mean(values))) / se_bar / math.sqrt(2.0)
        half = band.width / se_bar / math.sqrt(2.0)
        return f"~{(math.erfc(half - gap) + math.erfc(half + gap)) / 2.0:.1e}"
    if band.kind == "z":
        rate = math.erfc(band.width / math.sqrt(2.0))
        return f"{'<=' if band.slack else ''}{rate:.1e}"
    if band.kind == "ks":
        n, m = band.sizes
        rate = kolmogorov_tail(band.width * math.sqrt(n * m / (n + m)))
    elif band.kind == "<=":
        tail = math.erfc(band.width / math.sqrt(2.0)) / (2.0 if band.one_sided else 1.0)
        rate = min(1.0, band.count * tail)
    else:
        rate = 0.0  # an exact bound
    return f"<={rate:.1e}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20, help="fresh master seeds per check")
    ap.add_argument("--only", default="", help="comma-separated check names")
    args = ap.parse_args(argv)
    names = [n for n in args.only.split(",") if n] or list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        ap.error(f"--only: no check named {', '.join(unknown)}")
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    print(f"{'check':32} {'fails':>7} {'rate':>7} {'nominal':>12} {'mean':>10} "
          f"{'mean se':>10} {'censored':>8} {'secs':>7}")
    # checks that read one draw share it on each seed
    memo = {}
    for name in names:
        fails, values, ses, censored = 0, [], [], 0
        t0 = time.perf_counter()
        for k in range(args.seeds):
            out = run_checks([name], FIRST_SEED + k, memo=memo)[name]
            fails += not out.ok
            censored += out.censored > 0
            values.append(out.value)
            ses.append(out.sigma)
        se_bar = float(np.mean(ses))
        if math.isnan(se_bar):
            # no standard error per run: the spread over the seeds, which
            # one seed does not have
            se_bar = float(np.std(values, ddof=1)) if args.seeds > 1 else math.nan
        rate = nominal(out.band, out.reference, values, se_bar)
        print(f"{name:32} {fails:>3}/{args.seeds:<3} {fails / args.seeds:7.3f} {rate:>12} "
              f"{np.mean(values):10.5g} {se_bar:10.3g} {censored:>8} "
              f"{time.perf_counter() - t0:7.1f}", flush=True)


if __name__ == "__main__":
    main()
