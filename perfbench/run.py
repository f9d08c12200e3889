"""Benchmark for coalesce: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: experiment_small, ancestral_torus, paper_kernels, exact_oracles
(see ``workloads.py``).  The package is imported from ``./src``, compiled to
bytecode first.  Each workload runs in its own process.

``--trace 0`` repeats the workload's timed section as often as its nominal
repetition time fits in ``--seconds`` (at least once) and reports
``wall_s`` (median repetition), ``setup_s`` (median of three processes:
import, input construction and warm-up), ``peak_rss_mb`` (the workload
process plus its pool workers) and ``checks_passed_frac``.
``--trace 1`` runs one untraced and one traced repetition with one worker and
reports per-layer self times, counts and the tracing overhead; the spans are
written to ``.perfbench_out/``.  ``--smoke`` runs tiny inputs in seconds.

``--workload all`` runs every workload untraced and traced and ends with a
summary table.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero, and no result is printed, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("experiment_small", "ancestral_torus", "paper_kernels", "exact_oracles")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_frac": "ratio",
}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _children(pid: int) -> list[int]:
    kids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            pass
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _PoolPeak(threading.Thread):
    """Largest summed peak RSS of a process's live children, polled."""

    def __init__(self, pid: int, interval: float = 0.02):
        super().__init__(daemon=True)
        self.pid, self.interval = pid, interval
        self.peak_kb = 0
        self.stop = threading.Event()

    def run(self):
        while not self.stop.wait(self.interval):
            total = sum(_hwm_kb(k) for k in _children(self.pid))
            self.peak_kb = max(self.peak_kb, total)


def _worker(args, workload: str, mode: str, env: dict, deadline: float, spans_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--scratch", str(ROOT / ".perfbench_tmp")]
    if args.smoke:
        cmd.append("--smoke")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    sampler = _PoolPeak(proc.pid)
    sampler.start()
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        sampler.stop.set()
        sampler.join()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["pool_peak_kb"] = sampler.peak_kb
    return result


def _environment(worker_env: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [Path(d, f).read_text().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]}_{fields[1].lower()}"] = fields[2]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **worker_env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "platform": platform.platform(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_checks(checks):
    for c in checks:
        status = "ok" if c["ok"] else "FAIL"
        print(f"  check {c['name']}: {c['value']:.6g} (limit {c['threshold']:.6g}) {status}")


def measure(args, workload: str, trace: int, env: dict) -> dict:
    """One untraced or traced measurement of one workload; prints its report."""
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{workload}-seed{args.seed}.csv.gz"
            main_run = _worker(args, workload, "trace", env, deadline, spans)
            probes = []
        else:
            main_run = _worker(args, workload, "run", env, deadline)
            probes = [_worker(args, workload, "setup", env, deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = main_run["checks"]
    attempted = len(checks)
    failed = sum(not c["ok"] for c in checks)
    print(f"perfbench {workload} seed={args.seed} trace={trace} "
          f"workers={main_run['workers']}{' smoke' if args.smoke else ''}")
    if trace:
        layers = main_run["layers"]
        metrics = {k: _metric(layers[k], unit) for k, (unit, _) in PER_LAYER.items()}
        for k, m in metrics.items():
            print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        walls = main_run["walls"]
        setups = [r["setup"] for r in [main_run] + probes]
        rss_mb = (main_run["maxrss_kb"] + main_run["pool_peak_kb"]) / 1024.0
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": rss_mb,
            "checks_passed_frac": (attempted - failed) / attempted,
        }
        metrics = {k: _metric(values[k], END_TO_END[k]) for k in END_TO_END}
        print(f"  wall_s {values['wall_s']:.4f} s: median of {len(walls)} repetitions "
              f"[{', '.join(f'{w:.4f}' for w in walls)}]")
        print(f"  setup_s {values['setup_s']:.4f} s: median of {len(setups)} processes "
              + "; ".join(f"import {s['import_s']:.3f} + build {s['build_s']:.3f}"
                          f" + warm {s['warm_s']:.3f}" for s in setups))
        print(f"  peak_rss_mb {rss_mb:.1f} MB: workload process "
              f"{main_run['maxrss_kb'] / 1024:.1f} + pool workers "
              f"{main_run['pool_peak_kb'] / 1024:.1f}")
        print(f"  checks_failed_frac {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} failed)")
    _report_checks(checks)
    print("  env: " + json.dumps(_environment(main_run["env"]), sort_keys=True))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs every workload untraced and traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs for self-tests")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "coalesce" / "__init__.py").is_file():
        return _fail(f"no package source at {src / 'coalesce'}")
    if not compileall.compile_dir(str(src / "coalesce"), quiet=1):
        return _fail("compiling the package failed")
    env = dict(os.environ)
    env.pop("COALESCE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    try:
        for workload, trace in runs:
            results[workload, trace] = measure(args, workload, trace, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return _fail(str(exc))

    if len(runs) == 1:
        metrics = results[runs[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for (w, _), r in results.items()
                   for k, m in r["metrics"].items()}
        print("summary")
        for w in WORKLOADS:
            e2e, layers = results[w, 0]["metrics"], results[w, 1]["metrics"]
            failed = results[w, 0]["failed"] / results[w, 0]["attempted"]
            print(f"  {w:17s} wall_s {e2e['wall_s']['value']:.4f} s  "
                  f"setup_s {e2e['setup_s']['value']:.4f} s  "
                  f"peak_rss_mb {e2e['peak_rss_mb']['value']:.1f} MB  "
                  f"checks_failed_frac {failed:.4g} ratio  "
                  f"trace.overhead_s {layers['trace.overhead_s']['value']:.4f} s")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
