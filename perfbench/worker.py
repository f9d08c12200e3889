"""One measurement process of the benchmark; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace [--smoke] --scratch DIR

``setup`` times import, input construction and warm-up only.  ``run``
repeats the workload's timed section as often as its nominal repetition
time fits in the budget, checking every repetition.  ``trace`` runs one
untraced and one traced repetition with one worker and reports the
per-layer numbers.  The result is one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import sys
import time


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _setup(args):
    t0 = time.perf_counter()
    import coalesce  # noqa: F401
    import workloads

    t_import = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.scratch)
    wl.build()
    t_build = time.perf_counter()
    wl.warm()
    t_warm = time.perf_counter()
    setup = {
        "import_s": t_import - t0,
        "build_s": t_build - t_import,
        "warm_s": t_warm - t_build,
        "setup_s": t_warm - t0,
    }
    return wl, setup


def _timed(wl, rep, threads):
    gc.collect()
    t0 = time.perf_counter()
    out = wl.run(rep, threads)
    return out, time.perf_counter() - t0


def _checks_json(checks):
    return [{"name": c.name, "value": float(c.value), "threshold": float(c.threshold),
             "ok": bool(c.ok)} for c in checks]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--scratch", required=True)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    wl, setup = _setup(args)
    result = {"setup": setup}
    if args.mode == "run":
        # a fixed repetition count for the budget keeps peak memory comparable
        walls, checks = [], []
        for rep in range(max(1, int(args.seconds // wl.rep_seconds))):
            out, wall = _timed(wl, rep, wl.workers)
            walls.append(wall)
            checks.extend(wl.check(out))
            del out
        result.update(walls=walls, workers=wl.workers, checks=_checks_json(checks))
    elif args.mode == "trace":
        import tracing

        # one worker keeps every span in this process
        out, untraced = _timed(wl, 0, 1)
        checks = wl.check(out)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            gc.collect()
            t0 = time.perf_counter()
            out = tracer.span("bench.rep", wl.run, 0, 1)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                       "trace.overhead_s": traced - untraced})
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        checks.extend(wl.check(out))
        result.update(layers=layers, workers=1, checks=_checks_json(checks))

    import numpy
    import scipy

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas_threads": _blas_threads()}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
