"""Experiment execution: replicate-parallel tasks with derived seed streams.

Each replicate draws from its own generator, derived from
(master_seed, task label, replicate index), so the output rows are identical
whatever the worker count and stay fixed when other tasks are added to a
config.  Rows are assembled replicate-major, time-minor.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .config import ExperimentConfig, build_graph, check_sites, load_config
from .errors import TaskError
from .graphs import Graph
from .io import sha256_text, write_csv, write_json
from .seeding import derive_rng

__all__ = ["run_experiment", "run_task", "parallel_chunks", "resolve_threads"]


def resolve_threads(threads: int | None) -> int:
    """Explicit value, else the COALESCE_THREADS variable, else 1."""
    if threads is not None and threads >= 1:
        return threads
    env = os.environ.get("COALESCE_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _task_label(task: dict) -> str:
    # the replicate count is excluded so extending a run keeps the
    # streams of already-computed replicates
    core = {k: v for k, v in task.items() if k != "replicates"}
    return "task:" + json.dumps(core, sort_keys=True)


def _replicate_rows(graph, convention, task, times, label, master_seed, rep):
    from .crw import simulate_crw
    from .voter import simulate_voter

    rng = derive_rng(master_seed, label, rep)
    kind = task["task"]
    if kind == "density":
        rec = simulate_crw(graph, times, rng, track="density", convention=convention)
        return [(rep, t, int(x)) for t, x in zip(times, rec["xi_size"])]
    if kind == "tracked_cluster":
        rec = simulate_crw(
            graph, times, rng, track="tracked_cluster", convention=convention
        )
        return [
            (rep, t, int(x), int(nn))
            for t, x, nn in zip(times, rec["xi_size"], rec["N"])
        ]
    if kind == "occupancy":
        sites = task.get("sites") or list(range(graph.n))
        rec = simulate_crw(
            graph,
            times,
            rng,
            track="occupancy",
            site_list=sites,
            convention=convention,
        )
        return [
            (rep, t, int(x), *[int(b) for b in occ_row])
            for t, x, occ_row in zip(times, rec["xi_size"], rec["occ"])
        ]
    if kind == "tau_coal":
        from .crw import sample_tau_coal

        return [(rep, sample_tau_coal(graph, rng, convention))]
    if kind == "nhat":
        rec = simulate_voter(graph, times, rng, convention=convention)
        return [(rep, t, int(v)) for t, v in zip(times, rec["nhat"])]
    raise TaskError(kind, "unknown task kind")


def _chunk_worker(args):
    graph, convention, task, times, label, master_seed, start, stop = args
    rows = []
    for rep in range(start, stop):
        rows.extend(
            _replicate_rows(graph, convention, task, times, label, master_seed, rep)
        )
    return start, rows


def parallel_chunks(args_list, threads: int):
    """Run chunk workers and return their row lists in chunk order."""
    if threads <= 1 or len(args_list) <= 1:
        results = [_chunk_worker(a) for a in args_list]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_chunk_worker, args_list))
    return [rows for _, rows in sorted(results, key=lambda r: r[0])]


def task_header(task: dict, graph: Graph) -> list[str]:
    kind = task["task"]
    if kind == "density":
        return ["replicate", "t", "xi_size"]
    if kind == "tracked_cluster":
        return ["replicate", "t", "xi_size", "N_t"]
    if kind == "occupancy":
        sites = task.get("sites") or list(range(graph.n))
        return ["replicate", "t", "xi_size", *[f"occ_{v}" for v in sites]]
    if kind == "tau_coal":
        return ["replicate", "tau_coal"]
    if kind == "nhat":
        return ["replicate", "t", "nhat"]
    raise TaskError(kind, "unknown task kind")


def run_task(
    graph: Graph,
    convention: str,
    task: dict,
    times: list,
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> tuple[list[str], list[tuple]]:
    """All rows for one task, replicate-major."""
    label = _task_label(task)
    times = task.get("times", times)
    reps = task.get("replicates", replicates)
    chunk = max(1, min(reps, (reps + 4 * threads - 1) // (4 * threads)))
    args_list = [
        (graph, convention, task, times, label, master_seed, start, min(start + chunk, reps))
        for start in range(0, reps, chunk)
    ]
    rows: list[tuple] = []
    for chunk_rows in parallel_chunks(args_list, threads):
        rows.extend(chunk_rows)
    return task_header(task, graph), rows


def run_experiment(config, threads: int | None = None, out_dir=None) -> dict:
    """Run every task in a config; one CSV per task plus a JSON manifest.

    ``config`` is a path or an ExperimentConfig.  The manifest embeds the
    config verbatim, so running the manifest file reproduces the data.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    threads = resolve_threads(threads)
    out = out_dir if out_dir is not None else config.outputs
    os.makedirs(out, exist_ok=True)
    graph = build_graph(config.graph, config.master_seed)
    check_sites(config.tasks, graph.n)
    config_digest = sha256_text(json.dumps(config.as_dict(), sort_keys=True))
    results = []
    for i, task in enumerate(config.tasks):
        t0 = time.monotonic()
        try:
            header, rows = run_task(
                graph,
                config.rate_convention,
                task,
                config.times,
                config.replicates,
                config.master_seed,
                threads,
            )
        except TaskError:
            raise
        except Exception as exc:
            raise TaskError(task["task"], str(exc)) from exc
        name = f"{i:02d}_{task['task']}"
        path = os.path.join(out, name + ".csv")
        digest = write_csv(path, header, rows)
        results.append(
            {
                "task": task["task"],
                "file": name + ".csv",
                "columns": header,
                "rows": len(rows),
                "sha256": digest,
                "inputs_digest": config_digest,
                "wall_time_s": round(time.monotonic() - t0, 3),
                "version": __version__,
                "seed": config.master_seed,
            }
        )
    manifest = {"version": __version__, "config": config.as_dict(), "results": results}
    write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest
