"""Experiment execution: block-seeded replicates.

A task's replicates run in fixed-size blocks whose size depends only on the
vertex count.  Block k draws from one generator derived from
(master_seed, task label, k), which seeds its variate streams
(``crw._kind_streams``).  A chunk's blocks run together in passes of at
most ``_PASS_BYTES`` per state array (four blocks from 512 vertices).  A
replicate's row therefore depends only on its index: rows are identical
whatever the worker count (worker chunks are whole blocks), extending
``replicates`` keeps the earlier rows, and adding tasks to a config never
perturbs the streams of existing ones.  A block runs on the lockstep
kernels or, when too narrow for lockstep iterations to pay (on large
graphs), on the scalar routines, whose records ``_pass`` stacks into the
kernels' one; both engines give the same rows and counters, so
``_SCALAR_BELOW`` is a choice of speed alone.  Rows are assembled
replicate-major, time-minor.

``threads`` counts the calling process: a task's blocks are cut into about
two chunks per process, and at ``threads`` > 1 a pool of ``threads - 1``
workers, one pool for every task of ``run_experiment``, runs all but the
last of each group of ``threads`` consecutive chunks (counted back from a
task's last chunk), and the calling process runs the last.  The next
task's chunks are queued before the calling process runs a task's last
chunk.  The chunks return as finished CSV text, which the calling process
writes and hashes in block order.

``estimate_density``, ``sample_tau_coal_many``, ``duality_gap`` and
``sample_nhat_ancestral`` read the same blocks through
``_task_values`` at one thread, at a master seed they draw from the
caller's generator.  ``_pass`` is the one caller of the lockstep kernels.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext, suppress

import numpy as np

from . import __version__
from ._flat import check_count, check_grid
from .config import _TASK_KINDS, ExperimentConfig, build_graph, check_sites, load_config
from .crw import (LEAD, _BlockDraws, _check_connected, _lockstep_crw, _scalar_crw,
                  _scalar_rows, _state_dtype, flat_graph)
from .errors import TaskError
from .graphs import Graph
from .io import block_csv, make_dir, sha256_text, write_csv_chunks, write_json
from .seeding import derive_rng
from .voter import _lockstep_voter, _voter_once

__all__ = [
    "run_experiment", "run_task", "worker_pool", "resolve_threads", "block_rows"
]

# wider blocks buy little speed on small graphs, and every iteration draws
# the full width, however few replicates a run asks for
_BLOCK_CAP = 1024
# and on large graphs a block holds about this many state cells; the width
# fixes a block's streams, so both are kept fixed
_BLOCK_CELLS = 1 << 19
# the most bytes per state array, and per per-row array, of a lockstep
# pass of blocks, where wide passes pay
_PASS_BYTES = 1 << 22
# a block narrower than this runs on the scalar engines, which give the
# same rows: a lockstep iteration costs tens of microseconds whatever its
# width, and in tau_coal the slowest rows run on alone once the others have
# coalesced
_SCALAR_BELOW = {kind: 64 if kind == "tau_coal" else 16 for kind in _TASK_KINDS}


def block_rows(n: int) -> int:
    """Replicates per block on an n-vertex graph; depends only on n."""
    return min(_BLOCK_CAP, max(1, _BLOCK_CELLS // n))


def resolve_threads(threads: int | None) -> int:
    """An explicit value, which must be an integer >= 1, else 1."""
    return 1 if threads is None else check_count(threads, 1, "threads")


def _task_label(task: dict) -> str:
    # without the replicate count, extending a run keeps the earlier rows,
    # and without the tracked label count, label 0 is the one-label task's
    core = {k: v for k, v in task.items() if k not in ("replicates", "labels")}
    return "task:" + json.dumps(core, sort_keys=True)


def _pass(flat, task, grid, rngs, count, width):
    """``count`` replicates in blocks of ``width``, block k drawing from
    ``rngs[k]`` and only the last block short: their values, shaped
    (replicate, time, column) or one coalescence time per replicate, and
    the kernels' record, counters summed; each block's rows are those of
    the block alone, on either engine.  The columns are the task's CSV
    columns, ``nhat`` also opinion 0's cluster size, and ``tracked_cluster``
    the sizes of ``task["labels"]`` (default 1) tracked clusters."""
    kind = task["task"]
    sites = (task.get("sites") or range(flat.n)) if kind == "occupancy" else None
    to_one = kind == "tau_coal"
    tracked = task.get("labels", 1) if kind == "tracked_cluster" else 0
    if width < _SCALAR_BELOW[kind]:
        def start(draws, window):
            if kind == "nhat":
                return _voter_once(flat, draws, grid, window)
            # the tracked particles are the row's leading uniforms
            labels = [int(draws[LEAD]() * flat.n) for _ in range(tracked)] if tracked else None
            return _scalar_crw(flat, draws, grid, labels, sites, to_one, window)

        # the rows' records stacked into the lockstep kernels' record
        recs = _scalar_rows(rngs, width, count, start)
        rec = {key: sum(r[key] for r in recs) if key in ("events", "thinning_rejections")
               else np.stack([r[key] for r in recs]) for key in recs[0]}
    elif kind == "nhat":
        rec = _lockstep_voter(flat, _BlockDraws(rngs, width), count, grid)
    else:
        draws = _BlockDraws(rngs, width)
        labels = (draws.lead(count, tracked) * flat.n).astype(int) if tracked else None
        rec = _lockstep_crw(flat, draws, count, grid, labels, sites, to_one)
    if to_one:
        return rec["tau"], rec
    if kind == "nhat":
        return np.stack([rec["nhat"], rec["n_0"]], axis=2), rec
    # xi, then the tracked cluster's size or the occupation indicators
    extra = [rec[k] for k in ("sizes", "occ") if k in rec]
    return np.concatenate([rec["xi"][..., None], *extra], axis=2), rec


def _csv_values(task, vals):
    """A task's values without the columns its CSV leaves out: the voter's
    opinion-0 cluster size."""
    return vals[..., :1] if task["task"] == "nhat" else vals


def _rows(start, grid, vals):
    """CSV rows of replicates numbered from ``start``: (replicate, t,
    *columns) per replicate and grid time, or (replicate, tau_coal)."""
    reps = range(start, start + len(vals))
    if vals.ndim == 1:
        return list(zip(reps, vals.tolist()))
    return [
        (rep, t, *v)
        for rep, per_t in zip(reps, vals.tolist())
        for t, v in zip(grid, per_t)
    ]


def _chunk_worker(args):
    """A chunk's blocks as (first replicate, values) and its counters.  The
    blocks run together in passes of at most ``_PASS_BYTES`` per state
    array, one generator per block, so a pass holds one block where a
    block alone fills that budget."""
    flat, task, grid, label, master_seed, reps, width, first, stop = args
    cell = np.dtype(_state_dtype(flat.n)).itemsize
    per_pass = max(1, _PASS_BYTES // (width * max(flat.n * cell, 8)))
    blocks = []
    tally = Counter()
    for lo in range(first, stop, per_pass):
        hi = min(lo + per_pass, stop)
        rngs = [derive_rng(master_seed, label, k) for k in range(lo, hi)]
        start = lo * width
        vals, rec = _pass(flat, task, grid, rngs, min(hi * width, reps) - start, width)
        blocks.extend((start + i, vals[i:i + width]) for i in range(0, len(vals), width))
        tally.update(events=rec["events"], blocks=hi - lo,
                     thinning_rejections=rec["thinning_rejections"])
    return blocks, tally


def _chunk_text(args):
    """A chunk's blocks as CSV text, formatted in the worker, and its
    counters."""
    blocks, tally = _chunk_worker(args)
    task, grid = args[1:3]
    return "".join(block_csv(start, grid, _csv_values(task, vals))
                   for start, vals in blocks), tally


def worker_pool(threads: int):
    """A process pool of ``threads - 1`` workers to share among tasks,
    which with the calling process makes ``threads`` processes; at one
    thread a context that yields None (run in this process)."""
    if threads > 1:
        return ProcessPoolExecutor(max_workers=threads - 1)
    return nullcontext()


def _queue(worker, args_list, pool, threads):
    """A task's chunks, queued: (this process's chunk, the futures of the
    pool's chunks) per group of ``threads`` consecutive chunks, counted back
    from the last, so that only the first group may be short.  ``pool``'s
    ``threads - 1`` workers run all but the last chunk of each group while
    this process runs the last.  Without a pool every chunk is a group of
    its own, run here."""
    if pool is None:
        return [(args, []) for args in args_list]
    # counted back from the end, this process starts on chunk 0 at once and
    # the workers' last chunks run beside its own; all the pool's chunks are
    # queued at once, so no worker waits for this process's chunk of a group
    ends = range(len(args_list), 0, -threads)[::-1]
    groups = [args_list[max(0, end - threads):end] for end in ends]
    return [(group[-1], [pool.submit(worker, args) for args in group[:-1]])
            for group in groups]


def _cancel(queued):
    """Drop the queued chunks not yet started."""
    for _, futures in queued:
        for future in futures:
            future.cancel()


def _results(worker, queued, before_last=None):
    """Lazily, ``worker``'s result for each queued chunk in chunk order.
    ``before_last`` is called just before this process runs its last
    chunk.  After an error, the chunks not yet started are dropped."""
    try:
        for i, (args, futures) in enumerate(queued):
            if before_last is not None and i == len(queued) - 1:
                before_last()
            last = worker(args)
            for future in futures:
                yield future.result()
            yield last
    finally:
        _cancel(queued)


def _tally():
    return Counter(events=0, thinning_rejections=0, blocks=0)


def _counted(results, tally):
    """The payloads of (payload, counters) chunk results, adding the
    counters to ``tally`` as they pass."""
    for payload, counts in results:
        tally.update(counts)
        yield payload


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


def _task_chunks(graph, convention, task, times, replicates, master_seed, threads,
                 per_process=2):
    """A task's header, time grid, row count and chunk arguments: about
    ``per_process`` chunks of whole blocks per process."""
    header = task_header(task, graph)
    label = _task_label(task)
    grid = check_grid(task.get("times", times))
    reps = task.get("replicates", replicates)
    if task["task"] == "tau_coal":
        _check_connected(graph)
        nrows = reps
    else:
        nrows = reps * len(grid)
    flat = flat_graph(graph, convention)
    width = block_rows(graph.n)
    nblocks = -(-reps // width)
    per_chunk = max(1, -(-nblocks // (per_process * threads)))
    args_list = [
        (flat, task, grid, label, master_seed, reps, width, first,
         min(first + per_chunk, nblocks))
        for first in range(0, nblocks, per_chunk)
    ]
    return header, grid, nrows, args_list


def _task_values(graph, convention, task, times, replicates, master_seed,
                 threads=1, pool=None):
    """One task's header, time grid, values (every replicate's, stacked as
    ``_pass`` shapes them) and counters, as ``run_task`` describes them.
    Every value is kept, so at one thread the task runs as one chunk."""
    check_count(threads, 1, "threads")
    header, grid, _, args_list = _task_chunks(
        graph, convention, task, times, replicates, master_seed, threads, min(threads, 2)
    )
    tally = _tally()
    with (worker_pool(threads) if pool is None else nullcontext(pool)) as pool:
        queued = _queue(_chunk_worker, args_list, pool, threads)
        chunks = _counted(_results(_chunk_worker, queued), tally)
        vals = [vals for blocks in chunks for _, vals in blocks]
    return header, grid, np.concatenate(vals) if vals else np.empty(0), dict(tally)


def run_task(
    graph: Graph,
    convention: str,
    task: dict,
    times: list,
    replicates: int,
    master_seed: int,
    threads: int = 1,
    pool=None,
) -> tuple[list[str], list[tuple], dict]:
    """All rows for one task, replicate-major, and the kernels' counters:
    kept rings (``events``), ``thinning_rejections`` and ``blocks``.  The
    chunks run on ``threads`` processes, this one and ``threads - 1``
    workers: those of ``pool`` when one is given, else of a pool of their
    own.  A given ``pool`` must come from ``worker_pool(threads)`` with the
    same ``threads``: the chunks are grouped by ``threads`` alone, so at one
    thread the pool goes unused."""
    header, grid, vals, tally = _task_values(
        graph, convention, task, times, replicates, master_seed, threads, pool
    )
    return header, _rows(0, grid, _csv_values(task, vals)), tally


def run_experiment(config, threads: int | None = None, out_dir=None) -> dict:
    """Run every task in a config; one CSV per task plus a JSON manifest.

    ``config`` is a path or an ExperimentConfig.  The manifest embeds the
    config verbatim, so running the manifest file reproduces the data.  One
    pool of ``threads - 1`` workers serves every task, and this process
    runs its share of the chunks; each chunk is formatted as CSV lines
    where it runs, and this process writes and hashes them in block order.
    A task's chunks are queued just before this process runs the previous
    task's last chunk, so the workers go on to them at once.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    threads = resolve_threads(threads)
    out = out_dir if out_dir is not None else config.outputs
    make_dir(out)
    graph = build_graph(config.graph, config.master_seed)
    check_sites(config.tasks, graph.n)
    config_digest = sha256_text(json.dumps(config.as_dict(), sort_keys=True))
    results = []
    # the header, row count and queued chunks of tasks queued ahead of their turn
    ahead = {}
    with worker_pool(threads) as pool:

        def queue(i):
            header, _, nrows, args_list = _task_chunks(
                graph, config.rate_convention, config.tasks[i], config.times,
                config.replicates, config.master_seed, threads,
            )
            ahead[i] = header, nrows, _queue(_chunk_text, args_list, pool, threads)

        def queue_next(i):
            # a task that cannot be planned yet raises when planned in its turn
            if i < len(config.tasks):
                with suppress(Exception):
                    queue(i)

        try:
            for i, task in enumerate(config.tasks):
                t0 = time.monotonic()
                name = f"{i:02d}_{task['task']}"
                tally = _tally()
                try:
                    if i not in ahead:
                        queue(i)
                    header, nrows, queued = ahead.pop(i)
                    texts = _counted(
                        _results(_chunk_text, queued, lambda: queue_next(i + 1)), tally)
                    path = os.path.join(out, name + ".csv")
                    digest = write_csv_chunks(path, header, texts)
                except TaskError:
                    raise
                except Exception as exc:
                    raise TaskError(task["task"], str(exc)) from exc
                results.append(
                    {
                        "task": task["task"],
                        "file": name + ".csv",
                        "columns": header,
                        "rows": nrows,
                        "sha256": digest,
                        "inputs_digest": config_digest,
                        **tally,
                        "wall_time_s": round(time.monotonic() - t0, 3),
                        "version": __version__,
                        "seed": config.master_seed,
                    }
                )
        finally:
            # after an error, the next task's queued chunks are dropped too
            for _, _, queued in ahead.values():
                _cancel(queued)
    manifest = {
        "version": __version__,
        "threads": threads,
        "config": config.as_dict(),
        "results": results,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest
