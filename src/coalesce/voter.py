"""Voter-model simulation and the distributional checks linking opinion
cluster sizes to coalescing-walk quantities.

The forward engine plays every directed-edge ring, so it is exact pathwise
and is what all duality gap checks run on.  The runner plays blocks of
replicates, recording the uniform vertex's and opinion 0's cluster sizes,
on the lockstep kernel (``_lockstep_voter``) or the scalar one
(``_voter_once``), which read the one stream layout of
``crw._kind_streams`` and give the same rows; ``simulate_voter``'s are
row 0 of a one-row block on the caller's generator (``crw._one_row``).
For large graphs the opinion cluster of a uniform vertex can be sampled
through the ancestral coalescing system instead (equal in law), the only
practical route at thousands of vertices.  ``sample_nhat_ancestral`` and
``duality_gap`` are views over the runner's derived blocks at a master
seed drawn from the caller's generator, the sampler's ``tracked_cluster``
rows each tracking several labels.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ._flat import FlatGraph, check_count, check_grid
from .crw import _one_row, _state_dtype, flat_graph
from .errors import EmptySamples
from .stats import ks_distance_two_sample, ks_distance_vs_cdf
from .graphs import Graph

__all__ = [
    "simulate_voter",
    "sample_nhat_ancestral",
    "duality_gap",
    "duality_statistics",
    "gamma_ks",
    "gamma22_cdf",
    "size_bias_histogram",
]

def _voter_once(flat: FlatGraph, draws: tuple, grid: list, window: int = 0):
    """Forward voter run, drawing and pausing as ``crw._scalar_crw`` does;
    its record holds, at each grid time, the cluster sizes of one uniform
    vertex's current opinion, of a second one's initial opinion (the first
    and second leading uniforms) and of opinion 0 (``n_0``; 0 when
    extinct), and the number of opinions left, with the rings played
    (``events``); no ring is thinned away.
    """
    lead, expo, slot, _, nbr_u = draws
    n, off, nbr, deg = flat.n, flat.off, flat.nbr, flat.deg
    opinion = list(range(n))
    counts = [1] * n  # live voters per initial opinion
    cum = np.cumsum(flat.rate).tolist()
    total = cum[-1]
    u_hat = int(lead() * n)
    u_init = int(lead() * n)
    ngrid = len(grid)
    nhat = np.empty(ngrid, dtype=np.int64)
    n_init = np.empty(ngrid, dtype=np.int64)
    n_distinct = np.empty(ngrid, dtype=np.int64)
    n_0 = np.empty(ngrid, dtype=np.int64)
    alive = n
    clock = 0.0
    events = 0
    gi = 0
    pause = window or -1
    while gi < ngrid:
        if events == pause:
            yield None
            pause += window
        # with no edges nothing ever rings: the state is frozen
        t_next = clock + expo() / total if total > 0.0 else float("inf")
        while gi < ngrid and grid[gi] < t_next:
            nhat[gi] = counts[opinion[u_hat]]
            n_init[gi] = counts[u_init]
            n_distinct[gi] = alive
            n_0[gi] = counts[0]
            gi += 1
        if gi == ngrid:
            break
        clock = t_next
        events += 1
        x = bisect_right(cum, slot() * total)
        y = nbr[off[x] + int(nbr_u() * deg[x])]
        ox, oy = opinion[x], opinion[y]
        if ox != oy:
            counts[oy] -= 1
            if counts[oy] == 0:
                alive -= 1
            counts[ox] += 1
            opinion[y] = ox
    yield {"nhat": nhat, "n_init": n_init, "n_distinct": n_distinct, "n_0": n_0,
           "events": events, "thinning_rejections": 0}


def _lockstep_voter(flat: FlatGraph, draws, rows: int, grid: list) -> dict:
    """``rows`` forward voter trajectories advanced in lockstep, one ring per
    row per numpy iteration; records ``nhat`` (rows, grid), the cluster size
    of a uniform vertex's current opinion, and ``n_0`` (rows, grid), opinion
    0's cluster size, as ``_voter_once`` does.

    The rows read ``draws`` as in ``crw._lockstep_crw``.  The ring source
    x is picked in proportion to its rate by a search on the cumulative
    rates, then a neighbor y of x adopts the opinion of x.  Also returns
    the ring count (``events``); no ring is thinned away.  The state is
    stored as ``_state_dtype(n)``.
    """
    n = flat.n
    state = _state_dtype(n)
    off = np.asarray(flat.off[:-1], dtype=np.int64)
    deg = np.asarray(flat.deg, dtype=np.int64)
    nbr = np.asarray(flat.nbr, dtype=state)
    cum = np.cumsum(flat.rate)
    total = float(cum[-1])
    ngrid = len(grid)
    gpad = np.append(np.asarray(grid, dtype=float), np.inf)
    nhat = np.empty((rows, ngrid), dtype=np.int64)
    n_0 = np.empty((rows, ngrid), dtype=np.int64)
    # cell r * n + v: the opinion of voter v, and the voters holding opinion v
    opinion = np.tile(np.arange(n, dtype=state), rows)
    counts = np.ones(rows * n, dtype=state)
    # per live row, kept aligned with `live`; with an empty grid no row runs
    u_hat = (draws.lead(rows)[:, 0] * n).astype(np.int64)
    live = np.arange(rows if ngrid else 0)
    b = live * n
    u_hat = b + u_hat[live]
    clock = np.zeros(live.size)
    g = np.zeros(live.size, dtype=np.int64)  # next grid index
    t_rec = np.full(live.size, gpad[0])  # next grid time
    events = 0
    while live.size:
        if total > 0.0:
            t_next = clock + draws.expo(live) / total
        else:
            # with no edges nothing ever rings: the state is frozen
            t_next = np.full(live.size, np.inf)
        # record the state at every grid time before the next ring
        rec = np.flatnonzero(t_rec < t_next)
        if rec.size:
            while rec.size:
                at, br = (live[rec], g[rec]), b[rec]
                nhat[at] = counts[br + opinion[u_hat[rec]]]
                # cell b holds the voters of opinion 0
                n_0[at] = counts[br]
                g[rec] += 1
                t_rec[rec] = gpad[g[rec]]
                rec = rec[t_rec[rec] < t_next[rec]]
            ok = g < ngrid
            live, b, u_hat, g, t_rec, t_next = (
                live[ok], b[ok], u_hat[ok], g[ok], t_rec[ok], t_next[ok])
            if not live.size:
                break
            draws.keep(live)
        clock = t_next
        u = draws.uniforms(live, 2)
        x = np.searchsorted(cum, u[0] * total, side="right")
        by = b + nbr[off[x] + (u[1] * deg[x]).astype(np.int64)]
        ox = opinion[b + x]
        oy = opinion[by]
        events += live.size
        counts[b + oy] -= 1
        counts[b + ox] += 1
        opinion[by] = ox
    return {"nhat": nhat, "n_0": n_0, "events": events,
            "thinning_rejections": 0}


def simulate_voter(
    g: Graph,
    t_grid,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> dict:
    """One forward voter trajectory on a sorted time grid.

    Every vertex starts with its own opinion; a ring of (x, y) makes y adopt
    the opinion of x.  Returned arrays match the grid: ``nhat`` is the
    cluster size of a uniform vertex's current opinion, ``n_init`` the size
    of a uniform initial opinion's cluster (0 once extinct), ``n_distinct``
    the number of opinions left and ``n_0`` opinion 0's cluster size.
    """
    grid = check_grid(t_grid)
    flat = flat_graph(g, convention)
    out = next(_voter_once(flat, _one_row(rng), grid))
    out["t"] = np.array(grid)
    return out


def sample_nhat_ancestral(
    g: Graph,
    t: float,
    trajectories: int,
    rng: np.random.Generator,
    draws_per_trajectory: int = 1,
    convention: str = "per_edge_unit",
) -> np.ndarray:
    """Samples of the uniform vertex's opinion-cluster size at time t.

    Uses the ancestral representation: the cluster size equals, in law, the
    size of the coalescing-walk cluster containing a uniformly chosen
    initial particle.  Each trajectory yields ``draws_per_trajectory``
    draws (correlated within a trajectory, exact in law individually), the
    cluster sizes of as many labels drawn before the walks, which gives the
    law of labels picked at time t.  The trajectories are the runner's
    ``tracked_cluster`` rows at a master seed drawn from ``rng``, label 0
    the task's own, so the first k do not depend on ``trajectories``.
    """
    from .runner import _task_values

    trajectories = check_count(trajectories, 1, "trajectories")
    labels = check_count(draws_per_trajectory, 1, "draws_per_trajectory")
    grid = check_grid([t], "t")
    task = {"task": "tracked_cluster", "labels": labels}
    vals = _task_values(g, convention, task, grid, trajectories, int(rng.integers(1 << 63)))[2]
    # the cluster count, then the tracked clusters' sizes
    return vals[:, 0, 1:].reshape(-1)


def duality_gap(
    g: Graph,
    t: float,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> dict:
    """Distributional duality checks at one time, voter side versus
    coalescing side run on independent streams.

    Returns the two-sample KS distance between the voter cluster size and
    the tracked coalescing cluster count, the gap between opinion-0 survival
    frequency and the occupation frequency of vertex 0, and the gap between
    density and mean inverse cluster count, each with a standard error.
    The three samples are the runner's ``nhat``, ``tracked_cluster`` and
    ``occupancy`` (site 0) tasks at one master seed drawn from ``rng``;
    each task's stream depends only on that seed and the task.
    """
    from .runner import _task_values

    reps = check_count(reps, 2)
    grid = check_grid([t], "t")
    seed = int(rng.integers(1 << 63))

    def run(task):
        return _task_values(g, convention, task, grid, reps, seed)[2][:, 0]

    # nhat, then opinion 0's cluster size; the cluster count, then the
    # tracked cluster's size
    nhat, n_0 = run({"task": "nhat"}).T
    xi, ncrw = run({"task": "tracked_cluster"}).T
    occ0 = run({"task": "occupancy", "sites": [0]})[:, 1]
    p_surv = (n_0 > 0).mean()
    p_occ = occ0.mean()
    return {
        **duality_statistics(nhat, ncrw, xi, g.n),
        "abs_gap_survival_vs_density": abs(p_surv - p_occ),
        "se_survival_vs_density": float(
            np.sqrt((p_surv * (1 - p_surv) + p_occ * (1 - p_occ)) / reps)
        ),
        "nhat": nhat,
        "N_samples": ncrw,
    }


def duality_statistics(nhat, ncrw, xi, n: int) -> dict:
    """Duality checks on independent samples at one time: the two-sample KS
    distance between the voter cluster size ``nhat`` and the tracked
    coalescing cluster count ``ncrw``, and the gap between the density
    E[xi] / n and E[1 / N_t] with its standard error."""
    ncrw = np.asarray(ncrw)
    xi = np.asarray(xi)
    reps = len(ncrw)
    inv_n = 1.0 / ncrw
    se = np.sqrt(xi.std(ddof=1) ** 2 / n**2 / reps + inv_n.std(ddof=1) ** 2 / reps)
    return {
        "ks_nhat_vs_Nt": ks_distance_two_sample(nhat, ncrw),
        "abs_gap_Pt_vs_invNt": abs(xi.mean() / n - inv_n.mean()),
        "se_Pt_vs_invNt": float(se),
    }


def gamma22_cdf(x):
    """Gamma with shape 2 and rate 2: F(x) = 1 - exp(-2x)(1 + 2x)."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, 1.0 - np.exp(-2.0 * x) * (1.0 + 2.0 * x), 0.0)


def gamma_ks(samples) -> float:
    """One-sample KS distance of mean-normalized samples from Gamma(2, 2)."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySamples("no samples")
    return ks_distance_vs_cdf(x / x.mean(), gamma22_cdf)


def size_bias_histogram(nhat_samples, n_init_samples, kmax: int) -> list[dict]:
    """Per-bin comparison of P(nhat = k) with k * P(n_init = k).

    The two laws satisfy this identity exactly; the report carries the
    per-bin difference and its standard error.  The samples are paired by
    replicate, as when both come from the same runs, and the standard error
    is that of the per-replicate differences.
    """
    nh = np.asarray(nhat_samples)
    ni = np.asarray(n_init_samples)
    reps = len(nh)
    out = []
    for k in range(1, kmax + 1):
        a = (nh == k).astype(float)
        b = float(k) * (ni == k).astype(float)
        diff = a.mean() - b.mean()
        se = float((a - b).std(ddof=1) / np.sqrt(reps))
        out.append({"k": k, "diff": float(diff), "se": se})
    return out
