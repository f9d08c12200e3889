"""Coalescing random walk engine and exact small-instance oracles.

The Monte Carlo engine realizes the directed-edge ring representation with
one global exponential clock.  Rings whose source is unoccupied change
nothing, so by default the engine thins them away and runs at the total rate
of the occupied sites, which is exact for the occupancy process and orders of
magnitude faster at low density.  A full-stream mode keeps every ring so that
runs started from different initial particle sets share one event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ._flat import FlatGraph
from .chains import MarkovChain, poisson_weights
from .errors import ParameterOutOfRange, SameVertex, TooLargeForExact
from .graphs import Graph
from .seeding import BufferedDraws

__all__ = [
    "DensityEstimate",
    "simulate_crw",
    "estimate_density",
    "exact_occupancy_density",
    "exact_occupancy_cov",
    "exact_k_particle_law",
    "sample_tau_coal",
    "sample_tau_coal_many",
    "pair_covariance",
    "occupancy_covariances",
]

_SUBSET_CAP = 12
_KPARTICLE_CAP = 20_000
_SUBSET_TOL = 1e-10


@lru_cache(maxsize=32)
def flat_graph(g: Graph, convention: str) -> FlatGraph:
    """Cached flat adjacency; Graph is frozen so hashing by value is safe."""
    return FlatGraph(g, convention)


def _find(parent: list, i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


class _Run:
    """One live coalescing-walk trajectory."""

    __slots__ = (
        "flat",
        "draws",
        "full",
        "m",
        "loc",
        "slot_root",
        "at_site",
        "parent",
        "size",
        "rate_sum",
        "clock",
        "events",
    )

    def __init__(self, flat: FlatGraph, draws: BufferedDraws, initial_sites=None,
                 full_stream=False):
        n = flat.n
        sites = list(range(n)) if initial_sites is None else sorted(initial_sites)
        self.flat = flat
        self.draws = draws
        self.full = full_stream
        self.m = len(sites)
        self.loc = list(sites)
        self.slot_root = list(sites)
        self.at_site = [-1] * n
        for i, v in enumerate(sites):
            self.at_site[v] = i
        self.parent = list(range(n))
        self.size = [1] * n
        self.rate_sum = float(sum(flat.rate[v] for v in sites))
        self.clock = 0.0
        self.events = 0

    def cluster_size(self, label: int) -> int:
        return self.size[_find(self.parent, label)]

    def total_rate(self) -> float:
        if self.full:
            return self.flat.r0 * self.flat.n if self.flat.regular else sum(
                self.flat.rate
            )
        if self.flat.regular:
            return self.flat.r0 * self.m
        return self.rate_sum

    def step(self) -> None:
        """Apply one ring; the caller advances the clock beforehand."""
        flat = self.flat
        draws = self.draws
        rate = flat.rate
        if self.full:
            # source drawn over every vertex regardless of occupancy
            while True:
                x = int(draws.u01() * flat.n)
                if flat.regular or draws.u01() * flat.r_max <= rate[x]:
                    break
            y = flat.neighbor(x, draws.u01())
            i = self.at_site[x]
            if i < 0:
                self.events += 1
                return
        else:
            while True:
                i = int(draws.u01() * self.m)
                x = self.loc[i]
                if flat.regular or draws.u01() * flat.r_max <= rate[x]:
                    break
            y = flat.neighbor(x, draws.u01())
        self.events += 1
        j = self.at_site[y]
        self.at_site[x] = -1
        if j >= 0:
            ra = _find(self.parent, self.slot_root[i])
            rb = _find(self.parent, self.slot_root[j])
            if ra != rb:
                if self.size[ra] < self.size[rb]:
                    ra, rb = rb, ra
                self.parent[rb] = ra
                self.size[ra] += self.size[rb]
            self.slot_root[j] = ra
            self.m -= 1
            last = self.m
            if i != last:
                self.loc[i] = self.loc[last]
                self.slot_root[i] = self.slot_root[last]
                self.at_site[self.loc[i]] = i
            self.loc.pop()
            self.slot_root.pop()
            self.rate_sum -= rate[x]
        else:
            self.loc[i] = y
            self.at_site[y] = i
            self.rate_sum += rate[y] - rate[x]


_LOCKSTEP_CELLS = 1 << 19


def _lockstep_rows(n: int) -> int:
    """Trajectories per lockstep block; keeps each state array near 2 MB."""
    return max(1, _LOCKSTEP_CELLS // n)


def _lockstep_cluster_sizes(
    flat: FlatGraph, t: float, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Cluster sizes at time t of tracked initial labels, one row per
    trajectory, all rows advanced in lockstep.

    ``labels`` has shape (rows, draws); row r is an independent trajectory
    started from every site occupied and reports the size of the cluster
    holding each of its labels.  Each iteration gives every live row one
    ring of its clock at rate r_max * m; on irregular graphs the ring is
    kept with probability rate(x) / r_max, which is exact for the occupancy
    process.  A row retires when its next ring would pass t or one cluster
    is left.  Labels start equal to their slots and are followed through
    merges and swap-fills, so no union-find is needed.
    """
    n = flat.n
    off = np.asarray(flat.off[:-1], dtype=np.int64)
    deg = np.asarray(flat.deg, dtype=np.int64)
    # the pad keeps the pick in range at an isolated x, whose ring is rejected
    nbr = np.asarray(flat.nbr + [0], dtype=np.int32)
    keep = None if flat.regular else np.asarray(flat.rate) / flat.r_max
    rows = labels.shape[0]
    # flat state: cell r * n + k is slot (or site) k of row r
    loc = np.tile(np.arange(n, dtype=np.int32), rows)  # slot -> site
    at = loc.copy()  # site -> slot, -1 when empty
    size = np.ones(rows * n, dtype=np.int32)  # cluster size per slot
    out = np.ones(labels.shape, dtype=np.int64)
    # per live row, kept aligned with `live`
    live = np.arange(rows if flat.r_max > 0 else 0)  # with no edges nothing moves
    b = live * n
    m = np.full(live.size, n, dtype=np.int64)
    clock = np.zeros(live.size)
    track = labels[live].astype(np.int64)  # slot now holding each label
    while live.size:
        clock += rng.standard_exponential(live.size) / (flat.r_max * m)
        ok = (clock <= t) & (m > 1)
        if not ok.all():
            done = ~ok
            out[live[done]] = size[b[done, None] + track[done]]
            live, b, m, clock, track = live[ok], b[ok], m[ok], clock[ok], track[ok]
            if not live.size:
                break
        u = rng.random((3, live.size))
        i = (u[0] * m).astype(np.int64)
        bi = b + i
        x = loc[bi]
        y = nbr[off[x] + (u[1] * deg[x]).astype(np.int64)]
        kept = True
        if keep is not None:
            # a rejected ring moves x onto itself, which changes nothing
            kept = u[2] < keep[x]
            y = np.where(kept, y, x)
        by = b + y
        j = at[by]
        merge = (j >= 0) & kept
        k = np.flatnonzero(merge)
        bk, ik, jk, bik = b[k], i[k], j[k], bi[k]
        m[k] -= 1
        last = m[k]
        size[bk + jk] += size[bik]
        # slot `last` fills the hole at i (a no-op when i is last)
        src = bk + last
        moved = loc[src]
        loc[bik] = moved
        size[bik] = size[src]
        at[bk + moved] = ik
        tr = track[k]
        tr = np.where(tr == ik[:, None], jk[:, None], tr)
        track[k] = np.where(tr == last[:, None], ik[:, None], tr)
        at[b + x] = -1
        mv = np.flatnonzero(~merge)
        loc[bi[mv]] = y[mv]
        at[by[mv]] = i[mv]
    return out


def _simulate_one(
    flat: FlatGraph,
    draws: BufferedDraws,
    grid: list,
    track: str,
    site_list,
    initial_sites,
    full_stream: bool,
) -> dict:
    run = _Run(flat, draws, initial_sites, full_stream)
    tracked = None
    if track == "tracked_cluster":
        # the tracked label comes first from the replicate stream so density
        # and cluster observables share one trajectory without bias
        tracked = run.loc[int(draws.u01() * run.m)]
    sites = None
    if track == "occupancy":
        sites = (
            list(range(flat.n)) if site_list is None else [int(v) for v in site_list]
        )

    ngrid = len(grid)
    xi = np.empty(ngrid, dtype=np.int64)
    ncol = np.empty(ngrid, dtype=np.int64) if tracked is not None else None
    occ = np.empty((ngrid, len(sites)), dtype=bool) if sites is not None else None

    def record(gi: int):
        xi[gi] = run.m
        if ncol is not None:
            ncol[gi] = run.cluster_size(tracked)
        if occ is not None:
            at = run.at_site
            occ[gi] = [at[v] >= 0 for v in sites]

    gi = 0
    # a lone cluster still moves, which matters only for occupancy tracking
    motion_matters = occ is not None
    while gi < ngrid:
        if run.m == 1 and not motion_matters and not full_stream:
            for rest in range(gi, ngrid):
                record(rest)
            gi = ngrid
            break
        t_next = run.clock + draws.expo() / run.total_rate()
        while gi < ngrid and grid[gi] < t_next:
            record(gi)
            gi += 1
        if gi == ngrid:
            break
        run.clock = t_next
        run.step()
    out = {"t": np.array(grid), "xi_size": xi, "events": run.events}
    if ncol is not None:
        out["N"] = ncol
    if occ is not None:
        out["occ"] = occ
        out["sites"] = sites
    return out


def _check_grid(t_grid) -> list:
    grid = [float(t) for t in t_grid]
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0.0):
        raise ParameterOutOfRange("t_grid must be sorted and nonnegative")
    return grid


def simulate_crw(
    g: Graph,
    t_grid,
    rng: np.random.Generator,
    track: str = "density",
    site_list=None,
    initial_sites=None,
    convention: str = "per_edge_unit",
    full_stream: bool = False,
) -> dict:
    """One trajectory sampled on a sorted time grid.

    track selects the observables: "density" records the occupied-site
    count, "tracked_cluster" additionally follows the cluster of one
    uniformly chosen initial particle, "occupancy" records indicators for
    ``site_list`` (all sites when None).
    """
    grid = _check_grid(t_grid)
    if track not in ("density", "tracked_cluster", "occupancy"):
        raise ParameterOutOfRange(f"unknown track mode {track!r}")
    flat = flat_graph(g, convention)
    draws = BufferedDraws(rng, block=1024)
    return _simulate_one(flat, draws, grid, track, site_list, initial_sites, full_stream)


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Replicate mean and standard error of the occupied-site fraction."""

    t_grid: np.ndarray
    p_hat: np.ndarray
    stderr: np.ndarray
    replicates: int
    n: int
    xi_var: np.ndarray
    arratia_ok: np.ndarray


def estimate_density(
    g: Graph,
    t_grid,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> DensityEstimate:
    """Monte Carlo density estimate with the negative-association variance
    diagnostic Var(|occupied|) <= E|occupied| checked per grid time."""
    if reps < 2:
        raise ParameterOutOfRange("need at least 2 replicates")
    grid = _check_grid(t_grid)
    flat = flat_graph(g, convention)
    draws = BufferedDraws(rng, block=1 << 16)
    s1 = np.zeros(len(grid))
    s2 = np.zeros(len(grid))
    comp1 = np.zeros(len(grid))
    comp2 = np.zeros(len(grid))
    for _ in range(reps):
        xi = _simulate_one(flat, draws, grid, "density", None, None, False)[
            "xi_size"
        ].astype(float)
        # Kahan-compensated accumulation keeps the sums order-stable
        y1 = xi - comp1
        t1 = s1 + y1
        comp1 = (t1 - s1) - y1
        s1 = t1
        y2 = xi * xi - comp2
        t2 = s2 + y2
        comp2 = (t2 - s2) - y2
        s2 = t2
    mean_xi = s1 / reps
    var_xi = np.maximum(0.0, s2 / reps - mean_xi**2) * reps / (reps - 1)
    p_hat = mean_xi / g.n
    stderr = np.sqrt(var_xi) / g.n / np.sqrt(reps)
    slack = 1.0 + 4.0 * np.sqrt(2.0 / (reps - 1))
    arratia_ok = var_xi <= mean_xi * slack + 1e-12
    return DensityEstimate(
        t_grid=np.asarray(grid),
        p_hat=p_hat,
        stderr=stderr,
        replicates=reps,
        n=g.n,
        xi_var=var_xi,
        arratia_ok=arratia_ok,
    )


def _directed_rates(c: MarkovChain):
    xs, ys = np.nonzero(c.rates)
    return xs, ys, c.rates[xs, ys]


def _subset_distribution(c: MarkovChain, t: float) -> np.ndarray:
    """Law of the occupied set at time t over the 2^n - 1 nonempty subsets.

    The occupied set is itself a Markov chain: a ring of (x, y) maps S to
    (S \\ {x}) | {y} when x is in S.  Solved by uniformization.
    """
    n = c.n
    if n > _SUBSET_CAP:
        raise TooLargeForExact("subset-chain oracle capped at 12 vertices")
    if t < 0.0:
        raise ParameterOutOfRange("t must be nonnegative")
    masks = np.arange(1, 1 << n, dtype=np.int64)
    nstates = len(masks)
    lam = float(c.row_rates.sum())
    rows, cols, data = [], [], []
    for x, y, r in zip(*_directed_rates(c)):
        has = (masks >> int(x)) & 1 == 1
        src = masks[has]
        tgt = (src & ~(1 << int(x))) | (1 << int(y))
        rows.append(src - 1)
        cols.append(tgt - 1)
        data.append(np.full(len(src), r / lam))
        src0 = masks[~has]
        rows.append(src0 - 1)
        cols.append(src0 - 1)
        data.append(np.full(len(src0), r / lam))
    kernel = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nstates, nstates),
    )
    kt = kernel.T.tocsr()
    mu = np.zeros(nstates)
    mu[nstates - 1] = 1.0  # all sites occupied
    weights = poisson_weights(lam * t, _SUBSET_TOL)
    acc = weights[0] * mu
    for w in weights[1:]:
        mu = kt @ mu
        acc += w * mu
    return acc


def exact_occupancy_density(c: MarkovChain, t: float) -> np.ndarray:
    """Exact per-vertex occupation probability at time t."""
    mu = _subset_distribution(c, t)
    masks = np.arange(1, 1 << c.n, dtype=np.int64)
    out = np.empty(c.n)
    for x in range(c.n):
        out[x] = mu[((masks >> x) & 1) == 1].sum()
    return out


def exact_occupancy_cov(c: MarkovChain, x: int, y: int, t: float) -> float:
    """Exact covariance of the occupation indicators of two vertices."""
    if x == y:
        raise SameVertex("need two distinct vertices")
    mu = _subset_distribution(c, t)
    masks = np.arange(1, 1 << c.n, dtype=np.int64)
    in_x = ((masks >> x) & 1) == 1
    in_y = ((masks >> y) & 1) == 1
    p_x = mu[in_x].sum()
    p_y = mu[in_y].sum()
    p_xy = mu[in_x & in_y].sum()
    return float(p_xy - p_x * p_y)


def exact_k_particle_law(
    c: MarkovChain, k: int, t: float, start: str = "pi_tensor"
) -> dict:
    """Coalescence law of k+1 labeled walkers by uniformization on V^{k+1}.

    A ring of (x, y) moves every coordinate equal to x to y, so the diagonal
    is absorbing as a set.  Returns P(all k+1 walkers share one location by
    t); under independent uniform starts also n^k times that probability,
    which equals the k-th moment of the tracked-cluster count.
    """
    if k < 1:
        raise ParameterOutOfRange("k must be >= 1")
    n = c.n
    nstates = n ** (k + 1)
    if nstates > _KPARTICLE_CAP:
        raise TooLargeForExact("k-particle state space capped at 20000")
    if start == "distinct" and k + 1 > n:
        raise ParameterOutOfRange("more walkers than vertices for distinct start")
    powers = n ** np.arange(k + 1, dtype=np.int64)
    idx = np.arange(nstates, dtype=np.int64)
    coords = (idx[:, None] // powers[None, :]) % n
    lam = float(c.row_rates.sum())
    rows, cols, data = [], [], []
    for x, y, r in zip(*_directed_rates(c)):
        has = (coords == int(x)).any(axis=1)
        src = idx[has]
        moved = coords[has].copy()
        moved[moved == int(x)] = int(y)
        tgt = moved @ powers
        rows.append(src)
        cols.append(tgt)
        data.append(np.full(len(src), r / lam))
        src0 = idx[~has]
        rows.append(src0)
        cols.append(src0)
        data.append(np.full(len(src0), r / lam))
    kernel = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nstates, nstates),
    )
    kt = kernel.T.tocsr()
    if start == "pi_tensor":
        mu = np.full(nstates, 1.0 / nstates)
    elif start == "distinct":
        distinct = np.array(
            [len(set(row)) == k + 1 for row in coords], dtype=bool
        )
        mu = np.where(distinct, 1.0, 0.0)
        mu /= mu.sum()
    else:
        raise ParameterOutOfRange(f"unknown start {start!r}")
    weights = poisson_weights(lam * t, _SUBSET_TOL)
    acc = weights[0] * mu
    for w in weights[1:]:
        mu = kt @ mu
        acc += w * mu
    diag = (coords == coords[:, :1]).all(axis=1)
    p = float(acc[diag].sum())
    out = {"p_coal": p, "start": start, "k": k, "t": t}
    if start == "pi_tensor":
        out["e_ntk"] = float(n**k) * p
    return out


def _tau_coal_once(flat: FlatGraph, draws: BufferedDraws) -> float:
    run = _Run(flat, draws)
    while run.m > 1:
        run.clock += draws.expo() / run.total_rate()
        run.step()
    return run.clock


def sample_tau_coal(
    g: Graph,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> float:
    """One draw of the time until a single cluster remains (0 when n = 1)."""
    if g.n == 1:
        return 0.0
    return _tau_coal_once(flat_graph(g, convention), BufferedDraws(rng, block=1024))


def sample_tau_coal_many(
    g: Graph,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> np.ndarray:
    """Batch of coalescence-time draws sharing one buffered stream."""
    if g.n == 1:
        return np.zeros(reps)
    flat = flat_graph(g, convention)
    draws = BufferedDraws(rng, block=1 << 16)
    return np.array([_tau_coal_once(flat, draws) for _ in range(reps)])


def occupancy_covariances(
    g: Graph,
    pairs,
    t_grid,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> dict:
    """Sample covariance of occupation indicators for several vertex pairs,
    sharing one batch of trajectories; jackknife standard errors."""
    pairs = [(int(a), int(b)) for a, b in pairs]
    for a, b in pairs:
        if a == b:
            raise SameVertex("covariance needs two distinct vertices")
    sites = sorted({v for p in pairs for v in p})
    pos = {v: i for i, v in enumerate(sites)}
    grid = _check_grid(t_grid)
    flat = flat_graph(g, convention)
    draws = BufferedDraws(rng, block=1 << 16)
    ind = np.empty((reps, len(grid), len(sites)), dtype=bool)
    for r in range(reps):
        ind[r] = _simulate_one(flat, draws, grid, "occupancy", sites, None, False)[
            "occ"
        ]
    out = {}
    for a, b in pairs:
        for ti, t in enumerate(grid):
            av = ind[:, ti, pos[a]].astype(float)
            bv = ind[:, ti, pos[b]].astype(float)
            out[((a, b), t)] = _jackknife_cov(av, bv)
    return out


def _jackknife_cov(a: np.ndarray, b: np.ndarray) -> dict:
    reps = len(a)
    sa, sb, sab = a.sum(), b.sum(), (a * b).sum()
    cov = sab / reps - (sa / reps) * (sb / reps)
    d = reps - 1
    cov_del = (sab - a * b) / d - (sa - a) * (sb - b) / (d * d)
    se = float(np.sqrt((d / reps) * np.sum((cov_del - cov_del.mean()) ** 2)))
    return {"cov_hat": float(cov), "stderr": se}


def pair_covariance(
    g: Graph,
    x: int,
    y: int,
    t: float,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> dict:
    """Occupation-indicator covariance for one pair at one time."""
    return occupancy_covariances(g, [(x, y)], [t], reps, rng, convention)[
        ((int(x), int(y)), float(t))
    ]
