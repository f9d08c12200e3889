"""Coalescing random walk engine and exact small-instance oracles.

The Monte Carlo engines realize the directed-edge ring representation from
every site occupied.  Rings whose source is unoccupied change nothing, so
each trajectory's clock runs only over its m clusters, and every engine
thins by the one rule of ``_flat``: a ring comes at rate r_max * m and
picks a uniform cluster, at x, then slot floor(u * width) of x, where
``FlatGraph.width`` is the largest degree.  On an irregular graph a slot
past deg[x] is a stay, which changes nothing but the
``thinning_rejections`` count.  This is exact for the occupancy process and
orders of magnitude faster at low density.  The lockstep kernel
``_lockstep_crw``, run by ``runner._pass`` alone, gives every trajectory of
a pass of blocks one ring per numpy iteration; ``_scalar_crw`` runs one in
plain Python; the two-walker routine ``_flat.walk_pairs`` moves each walker
on a graph by the same rule.  A runner block's rows read one stream per variate
kind in one layout (``_kind_streams``), so both engines give them the same
values and counters.
``simulate_crw`` and ``sample_tau_coal`` give row 0 of a one-row block on
the caller's generator (``_one_row``); ``estimate_density`` and
``sample_tau_coal_many`` are views over the runner's derived blocks at a
master seed drawn from the caller's generator.

The exact subset and (k+1)-walker oracles step with one sparse kernel,
``_ring_kernel``, built with no loop from (state, occupied site) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count

import numpy as np

from ._flat import FlatGraph, check_count, check_grid, check_subset, check_vertex
from .chains import MarkovChain, translation_group, uniformize
from .errors import (
    BadSubset,
    NotConnected,
    ParameterOutOfRange,
    SameVertex,
    TooLargeForExact,
)
from .graphs import Graph, is_connected

__all__ = [
    "DensityEstimate",
    "simulate_crw",
    "estimate_density",
    "exact_occupancy_density",
    "exact_occupancy_cov",
    "exact_k_particle_law",
    "sample_tau_coal",
    "sample_tau_coal_many",
]

_SUBSET_CAP = 12
_KPARTICLE_CAP = 20_000
_SUBSET_TOL = 1e-10


@lru_cache(maxsize=32)
def flat_graph(g: Graph, convention: str) -> FlatGraph:
    """Cached flat adjacency.  Graph is frozen and compares by value; its
    hash reads only n, the entry count and family, not the arrays."""
    return FlatGraph(g, convention)


def _state_dtype(n: int) -> type:
    """The narrowest signed integer type holding 0..n, the type of every
    per-site and per-slot lockstep state array."""
    return np.int16 if n < 1 << 15 else np.int32


# the variate kind of each block stream in seeding order: leading uniforms
# (the tracked labels; the voter's two uniform vertices), clock, slot, neighbour
LEAD, EXPO, SLOT, NBR = range(4)
# a scalar block draws about this many variates of a kind at a time
_WINDOW_CELLS = 1 << 16


def _kind_streams(rng: np.random.Generator) -> list:
    """A block's draw call per variate kind (exponentials for the clock,
    else uniforms), each on a generator seeded by one of five draws of
    ``rng``, the fourth going unused.  At iteration i, row r of a block of
    ``width`` rows reads entry i * width + r of each kind's stream (its
    j-th leading uniform is entry j * width + r).  A ring, a stay too, is
    one iteration and reads one variate of each kind it uses, so a row's
    variates depend neither on the other rows nor on the engine,
    ``_BlockDraws`` (lockstep) or ``_scalar_rows`` (scalar)."""
    # the fourth seed fed a thinning stream that no ring reads now; it is
    # still drawn, so every other kind has the seed it had
    gens = [np.random.Generator(np.random.PCG64(seed))
            for seed in rng.integers(1 << 63, size=5)[[0, 1, 2, 4]].tolist()]
    return [g.standard_exponential if kind == EXPO else g.random for kind, g in enumerate(gens)]


def _one_row(rng: np.random.Generator) -> list:
    """Row 0 of ``runner._pass`` on ``[rng]`` at width 1: per variate kind, a
    callable reading its stream in chunks of 256, which numpy draws as one."""
    return [chain.from_iterable(iter(lambda fill=fill: fill(256).tolist(), None)).__next__
            for fill in _kind_streams(rng)]


class _BlockDraws:
    """A lockstep iteration's variates for rows in blocks of ``width``,
    block k drawing ``width`` of each kind (an exponential, then slot and
    neighbour uniforms) from the kind streams of ``rngs[k]`` into its slice
    of that kind's buffer.  Only blocks with a live row draw."""

    def __init__(self, rngs: list, width: int):
        self.width = width
        self.streams = [_kind_streams(rng) for rng in rngs]
        self.e = np.empty(len(rngs) * width)
        self.u = np.empty((2, len(rngs) * width))
        cuts = [slice(k * width, (k + 1) * width) for k in range(len(rngs))]
        self.e_parts = [(s[EXPO], self.e[cut]) for s, cut in zip(self.streams, cuts)]
        self.u_parts = [[(s[kind], self.u[i, cut]) for i, kind in enumerate((SLOT, NBR))]
                        for s, cut in zip(self.streams, cuts)]
        self.starts = np.arange(len(rngs) + 1) * width
        self.active = range(len(rngs))

    def lead(self, rows: int, count: int = 1) -> np.ndarray:
        """The first ``rows`` rows' first ``count`` leading uniforms, (rows, count)."""
        return np.concatenate([s[LEAD]((count, self.width)) for s in self.streams], 1)[:, :rows].T

    def narrow(self, live: np.ndarray) -> None:
        """From now on only the blocks holding a row of ``live``, which is
        sorted, draw."""
        if len(self.streams) > 1:
            self.active = np.flatnonzero(np.diff(np.searchsorted(live, self.starts))).tolist()

    def expo(self, live: np.ndarray) -> np.ndarray:
        """The live rows' exponentials, aligned with ``live``."""
        for k in self.active:
            fill, out = self.e_parts[k]
            fill(out=out)
        # live rows that are a prefix take a slice, not a gather
        return self.e[:live.size] if live[-1] == live.size - 1 else self.e[live]

    def uniforms(self, live: np.ndarray) -> np.ndarray:
        """The live rows' slot and neighbour uniforms, (2, live)."""
        for k in self.active:
            for fill, out in self.u_parts[k]:
                fill(out=out)
        # take() gathers columns several times faster than u[:, live]
        return self.u[:, :live.size] if live[-1] == live.size - 1 else self.u.take(live, axis=1)


def _scalar_rows(rngs: list, width: int, rows: int, start) -> list:
    """The records of ``rows`` rows in blocks of ``width``, block k drawing
    from ``rngs[k]``, each run by the scalar routine ``start(draws,
    window)``.  A block's rows run interleaved, ``window`` rings at a time,
    so each kind's variates for a window are drawn once, (window, width),
    and row r reads column r as a list; only the last window is kept, and
    every window of leading uniforms, which rows read before any ring."""
    window = max(1, _WINDOW_CELLS // width)
    recs = []
    for first, rng in zip(range(0, rows, width), rngs):
        fills = _kind_streams(rng)
        drawn = [[] for _ in fills]

        def column(kind, r, fills=fills, drawn=drawn):
            chunks = drawn[kind]
            for c in count():
                if c == len(chunks):
                    if kind != LEAD and chunks:
                        chunks[-1] = None
                    chunks.append(fills[kind]((window, width)))
                yield chunks[c][:, r].tolist()

        runs = [start(tuple(chain.from_iterable(column(kind, r)).__next__
                            for kind in range(len(fills))), window)
                for r in range(min(width, rows - first))]
        done = [None] * len(runs)
        while None in done:
            done = [rec if rec is not None else next(run) for rec, run in zip(done, runs)]
        recs += done
    return recs


def _lockstep_crw(
    flat: FlatGraph,
    draws: _BlockDraws,
    rows: int,
    grid: list,
    labels: np.ndarray | None = None,
    sites=None,
    to_one: bool = False,
) -> dict:
    """``rows`` independent coalescing-walk trajectories from every site
    occupied, all advanced in lockstep, one ring per row per iteration.

    At each grid time the kernel records the cluster count ``xi`` (rows, grid); with
    ``labels`` of shape (rows, d), the sizes of the clusters holding those
    initial sites (rows, grid, d); with ``sites``, their occupation
    indicators (rows, grid, sites).  With ``to_one`` the grid is ignored and
    ``tau`` holds the time one cluster is left; the graph must then be
    connected.  Also returns the rings that moved a cluster (``events``)
    and the stays (``thinning_rejections``).

    A row holds its m clusters as a slot list ``loc`` (slot -> site), from
    which a ring picks a uniform slot, and their sizes by site in ``size``
    (0 at an empty site).  A ring from x to y, or a stay (y = x), empties x
    and adds its size to y's; when y was occupied the slot is dropped and
    the last slot fills its hole.  Labels are followed by site, so no
    union-find is needed.

    The rows read ``draws``, a ``_BlockDraws``, so a row's values depend
    only on its block's streams: a pass of blocks gives each block's rows
    and counters as the block alone, or ``_scalar_crw``, would.

    The state arrays ``loc``, ``size`` and ``nbr`` and the label sites are
    stored as ``_state_dtype(n)``, which halves the memory traffic of the
    gathers and scatters; index arithmetic is done in int64.
    """
    n = flat.n
    state = _state_dtype(n)
    off = np.asarray(flat.off[:-1], dtype=np.int64)
    deg = np.asarray(flat.deg, dtype=np.int64)
    # the pad holds every slot of every x in range; one past deg[x] is a stay
    nbr = np.asarray(flat.nbr + [0] * flat.width, dtype=state)
    ngrid = 0 if to_one else len(grid)
    # the grid padded with a time never reached
    gpad = np.append(np.asarray(grid if ngrid else [], dtype=float), np.inf)
    # flat state: cell r * n + k is slot (or site) k of row r
    loc = np.tile(np.arange(n, dtype=state), rows)  # slot -> site
    size = np.ones(rows * n, dtype=state)  # cluster size per site, 0 when empty
    out = {"xi": np.empty((rows, ngrid), dtype=np.int64)}
    if labels is not None:
        out["sizes"] = np.empty((rows, ngrid, labels.shape[1]), dtype=np.int64)
    if sites is not None:
        sites = np.asarray(sites, dtype=np.int64)
        out["occ"] = np.empty((rows, ngrid, sites.size), dtype=bool)
    if to_one:
        out["tau"] = np.zeros(rows)
    # a lone cluster still moves, which matters only for occupancy
    frozen_at_one = sites is None and not to_one
    rings = rejected = 0
    # per live row, kept aligned with `live`; with an empty grid no row runs
    live = np.arange(rows if to_one or ngrid else 0)
    b = live * n
    m = np.full(live.size, n, dtype=np.int64)
    clock = np.zeros(live.size)
    g = np.zeros(live.size, dtype=np.int64)  # next grid index
    t_rec = np.full(live.size, gpad[0])  # next grid time
    # the site of each label, label-major (d, live) and C-ordered: the
    # masked copy below runs several times slower on a transposed layout
    tsite = None if labels is None else labels[live].T.astype(state, order="C")
    while live.size:
        if flat.r_max == 0.0:
            # with no edges nothing ever rings: the state is frozen
            t_next = np.full(live.size, np.inf)
        else:
            t_next = clock + draws.expo(live) / (flat.r_max * m)
        # record the state at every grid time before the next ring
        rec = np.flatnonzero(t_rec < t_next)
        if rec.size or to_one:
            while rec.size:
                rr, gr = live[rec], g[rec]
                out["xi"][rr, gr] = m[rec]
                if tsite is not None:
                    out["sizes"][rr, gr] = size[b[rec] + tsite[:, rec]].T
                if sites is not None:
                    out["occ"][rr, gr] = size[b[rec, None] + sites] > 0
                g[rec] += 1
                t_rec[rec] = gpad[g[rec]]
                rec = rec[t_rec[rec] < t_next[rec]]
            done = (m == 1) if to_one else (g == ngrid)
            if done.any():
                if to_one:
                    out["tau"][live[done]] = clock[done]
                ok = ~done
                live, b, m, g, t_rec, t_next = (
                    live[ok], b[ok], m[ok], g[ok], t_rec[ok], t_next[ok])
                if tsite is not None:
                    tsite = tsite[:, ok]
                if not live.size:
                    break
                draws.narrow(live)
        clock = t_next
        u = draws.uniforms(live)
        bi = b + (u[0] * m).astype(np.int64)
        xs = loc[bi]
        # gathers run faster on an intp index than on a 16-bit one
        x = xs.astype(np.intp)
        j = (u[1] * flat.width).astype(np.int64)
        y = nbr[off[x] + j]
        if not flat.regular:
            stay = j >= deg[x]
            np.copyto(y, xs, where=stay)
            rejected += int(np.count_nonzero(stay))
        rings += live.size
        bx = b + x
        by = b + y
        sx = size[bx]
        # x is emptied first: a stay puts back its own size, merging nothing
        size[bx] = 0
        sy = size[by]
        size[by] = sx + sy
        loc[bi] = y
        # rows whose y was occupied merged: slot m - 1 fills the hole at i
        k = np.flatnonzero(sy > 0)
        m[k] -= 1
        last = m[k]
        loc[bi[k]] = loc[b[k] + last]
        if frozen_at_one:
            # a lone cluster changes nothing any more: its clock stops
            clock[k[last == 1]] = np.inf
        if tsite is not None:
            np.copyto(tsite, y, where=tsite == xs)
    out["events"] = rings - rejected
    out["thinning_rejections"] = rejected
    return out


def _scalar_crw(
    flat: FlatGraph,
    draws: tuple,
    grid: list,
    labels=None,
    sites=None,
    to_one: bool = False,
    window: int = 0,
):
    """One coalescing-walk trajectory from every site occupied: a generator
    that yields ``_lockstep_crw``'s record for one row (``labels`` a list,
    the grid axis first), after a None before every ring c * ``window``,
    c >= 1, when ``window`` is set.  ``draws`` holds one zero-argument
    callable per variate kind, in ``_kind_streams``' order; the leading one
    goes unread.

    Slot i holds one cluster, at site loc[i] with size[i]; at_site maps a
    site back to its slot (-1 when empty).  A ring comes after Exp / (r_max
    * m), picks a uniform slot, its site x, then slot j = floor(u * width)
    of x: the neighbour y in it, or a stay when j >= deg[x].  When y is
    occupied the cluster at x joins it and the last slot fills the hole;
    each label follows its cluster's slot.
    """
    n, r_max, width = flat.n, flat.r_max, flat.width
    off, nbr, deg = flat.off, flat.nbr, flat.deg
    _, expo, slot, nbr_u = draws
    inf = float("inf")
    m = n
    loc = list(range(n))
    at_site = list(range(n))
    size = [1] * n
    ngrid = 0 if to_one else len(grid)
    # the grid padded with a time never reached
    gpad = [*grid[:ngrid], inf]
    out = {"xi": np.empty(ngrid, dtype=np.int64)}
    xi = out["xi"]
    # slot k holds site k at the start, so a label's first slot is its site
    track = None if labels is None else [int(v) for v in labels]
    if track is not None:
        sizes = out["sizes"] = np.empty((ngrid, len(track)), dtype=np.int64)
    if sites is not None:
        sites = [int(v) for v in sites]
        occ = out["occ"] = np.empty((ngrid, len(sites)), dtype=bool)
    if r_max == 0.0 or not (to_one or ngrid):
        # nothing rings, or nothing is recorded
        still = n
    else:
        # at one cluster the run is over, unless the lone cluster's moves
        # show in the occupation indicators
        still = 0 if sites is not None and not to_one else 1
    clock = 0.0
    gi = 0
    t_rec = gpad[0]
    rings = rejections = 0
    pause = window or -1
    while True:
        if m == still:
            # no ring left changes what is recorded: the state holds
            t_next = inf
        else:
            if rings == pause:
                yield None
                pause += window
            t_next = clock + expo() / (r_max * m)
        if t_rec < t_next:
            while t_rec < t_next:
                xi[gi] = m
                if track is not None:
                    sizes[gi] = [size[s] for s in track]
                if sites is not None:
                    occ[gi] = [at_site[v] >= 0 for v in sites]
                gi += 1
                t_rec = gpad[gi]
            if gi == ngrid:
                break
        if t_next == inf:
            break
        clock = t_next
        rings += 1
        i = int(slot() * m)
        x = loc[i]
        j = int(nbr_u() * width)
        if j >= deg[x]:
            rejections += 1
            continue
        y = nbr[off[x] + j]
        j = at_site[y]
        at_site[x] = -1
        if j < 0:
            loc[i] = y
            at_site[y] = i
            continue
        size[j] += size[i]
        m -= 1
        if track is not None:
            track = [j if s == i else s for s in track]
        if i != m:
            loc[i] = x = loc[m]
            size[i] = size[m]
            at_site[x] = i
            if track is not None:
                track = [i if s == m else s for s in track]
    if to_one:
        out["tau"] = clock
    out["events"] = rings - rejections
    out["thinning_rejections"] = rejections
    yield out


def simulate_crw(
    g: Graph,
    t_grid,
    rng: np.random.Generator,
    track: str = "density",
    site_list=None,
    convention: str = "per_edge_unit",
) -> dict:
    """One trajectory from every site occupied, sampled on a sorted time
    grid.

    track selects the observables: "density" records the occupied-site
    count, "tracked_cluster" additionally follows the cluster of one
    uniformly chosen initial particle, "occupancy" records indicators for
    ``site_list`` (all sites when None).  Also returns the rings that
    moved a cluster (``events``) and the stays (``thinning_rejections``).
    """
    grid = check_grid(t_grid)
    if track not in ("density", "tracked_cluster", "occupancy"):
        raise ParameterOutOfRange(f"unknown track mode {track!r}")
    if site_list is not None:
        site_list = [check_vertex(v, g.n, f"site_list[{j}]") for j, v in enumerate(site_list)]
    flat = flat_graph(g, convention)
    draws = _one_row(rng)
    labels = sites = None
    if track == "tracked_cluster":
        # the tracked particle comes first from the replicate stream so
        # density and cluster observables share one trajectory without bias
        labels = [int(draws[LEAD]() * flat.n)]
    elif track == "occupancy":
        sites = range(flat.n) if site_list is None else site_list
    rec = next(_scalar_crw(flat, draws, grid, labels, sites))
    out = {"t": np.array(grid), "xi_size": rec["xi"], "events": rec["events"],
           "thinning_rejections": rec["thinning_rejections"]}
    if labels is not None:
        out["N"] = rec["sizes"][:, 0]
    if sites is not None:
        out["occ"] = rec["occ"]
        out["sites"] = list(sites)
    return out


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
    diagnostic Var(|occupied|) <= E|occupied| checked per grid time: the
    runner's ``density`` blocks at a master seed drawn from ``rng``."""
    reps = check_count(reps, 2)
    grid = check_grid(t_grid)
    return _density(g, convention, grid, reps, int(rng.integers(1 << 63)))


def _density(g, convention, grid, reps, seed, threads=1, pool=None) -> DensityEstimate:
    """``estimate_density`` at master seed ``seed``, run as ``_task_values`` runs it."""
    from .runner import _task_values

    vals = _task_values(g, convention, {"task": "density"}, grid, reps, seed, threads, pool)[2]
    # a contiguous row per grid time, so each sum runs in replicate order
    xi = vals[..., 0].T.astype(float, order="C")
    mean_xi = np.array([x.mean() for x in xi])
    var_xi = np.array([x.var(ddof=1) for x in xi])
    slack = 1.0 + 4.0 * np.sqrt(2.0 / (reps - 1))
    return DensityEstimate(
        t_grid=np.asarray(grid),
        p_hat=mean_xi / g.n,
        stderr=np.sqrt(var_xi) / g.n / np.sqrt(reps),
        replicates=reps,
        n=g.n,
        xi_var=var_xi,
        arratia_ok=var_xi <= mean_xi * slack + 1e-12,
    )


def _ring_kernel(c: MarkovChain, src: np.ndarray, x: np.ndarray, move):
    """Transposed jump kernel and rate of a process in which a ring of (x, y)
    moves every occupant of x to y, from the pairs (``src[i]``, ``x[i]``),
    state-major, of a state and one of its occupied sites; every state has
    one, so the states are 0..src.max().  A state leaves at the sum of r(x)
    over its occupied sites, and the chain is uniformized at the largest
    such rate; only the moving entries and one diagonal are stored.  Each
    pair is expanded by its site's row of rates, and ``move(src, x, y)``
    gives the targets of those rings as one array.
    """
    nstates = int(src.max()) + 1
    indptr, nbrs, rates = c.csr
    exit_rate = np.bincount(src, weights=c.row_rates[x], minlength=nstates)
    lam = float(exit_rate.max())
    # entry e of the expanded pairs is entry at[e] of the CSR rates
    count = np.diff(indptr)[x]
    at = np.arange(int(count.sum())) + np.repeat(indptr[x] - np.cumsum(count) + count, count)
    src, x = np.repeat(src, count), np.repeat(x, count)
    idx = np.arange(nstates, dtype=np.int64)
    # a chain with no edges never moves: its kernel is the identity
    diag = 1.0 - exit_rate / lam if lam > 0.0 else np.ones(nstates)
    import scipy.sparse as sp

    return sp.csr_matrix(
        (np.concatenate([diag, rates[at] / lam]),
         (np.concatenate([idx, move(src, x, nbrs[at])]), np.concatenate([idx, src]))),
        shape=(nstates, nstates),
    ), lam


def _subset_occupancy(n: int) -> np.ndarray:
    """Occupancy matrix of the 2^n - 1 nonempty subsets; row s - 1 is the
    subset with bit mask s."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


@lru_cache(maxsize=4)
def _subset_kernel(c: MarkovChain):
    """The subset chain's transposed jump kernel and rate, as
    ``_ring_kernel`` returns them.  Built once per chain object (a
    ``MarkovChain`` hashes by identity), since repeated oracle calls on one
    chain would rebuild the same kernel each time."""

    def move(src, x, y):
        # row s - 1 holds mask s
        return (((src + 1) & ~(1 << x)) | (1 << y)) - 1

    kt, lam = _ring_kernel(c, *np.nonzero(_subset_occupancy(c.n)), move)
    # a copy made after the build's temporaries are freed: the kept kernel
    # then does not pin their heap pages (about 8 MB on K12)
    return kt.copy(), lam


def _subset_distribution(c: MarkovChain, t, start=None) -> np.ndarray:
    """Law of the occupied set at time t over the 2^n - 1 nonempty subsets,
    indexed as in ``_subset_occupancy``, started from the nonempty set of
    sites ``start`` (default: every site).  For a list of times, one law
    per row from one uniformization pass; each row equals the law computed
    at its time alone, bit for bit.

    The occupied set is itself a Markov chain: a ring of (x, y) maps S to
    (S \\ {x}) | {y} when x is in S.  Solved by uniformization.
    """
    n = c.n
    if n > _SUBSET_CAP:
        raise TooLargeForExact("subset-chain oracle capped at 12 vertices")
    times = [check_grid([s], "t")[0] for s in np.atleast_1d(t)]
    if not times:
        raise ParameterOutOfRange("t must be one or more nonnegative times")
    sites = range(n) if start is None else check_subset(start, n, "start")
    if not sites:
        raise BadSubset("start must be a nonempty set of sites")
    kt, lam = _subset_kernel(c)
    mu = np.zeros(kt.shape[0])
    mu[sum(1 << x for x in sites) - 1] = 1.0
    laws = uniformize(kt.dot, mu, lam, times, _SUBSET_TOL)[0]
    return np.array(laws) if np.ndim(t) else laws[0]


def exact_occupancy_density(c: MarkovChain, t) -> np.ndarray:
    """Exact per-vertex occupation probability at time t, or one row per
    time for a list of times."""
    # the law first: it checks the vertex cap before the 2^n - 1 rows exist
    laws = _subset_distribution(c, t)
    occ_t = _subset_occupancy(c.n).T
    if laws.ndim == 1:
        return occ_t @ laws
    return np.array([occ_t @ mu for mu in laws])


def exact_occupancy_cov(c: MarkovChain, x: int, y: int, t: float) -> float:
    """Exact covariance of the occupation indicators of two vertices."""
    x, y = check_vertex(x, c.n, "x"), check_vertex(y, c.n, "y")
    if x == y:
        raise SameVertex("need two distinct vertices")
    mu = _subset_distribution(c, t)
    occ = _subset_occupancy(c.n)
    p = occ.T @ mu
    p_xy = mu[occ[:, x] & occ[:, y]].sum()
    return float(p_xy - p[x] * p[y])


def exact_k_particle_law(
    c: MarkovChain, k: int, t: float, start: str = "pi_tensor"
) -> dict:
    """Coalescence law of k+1 labeled walkers by uniformization.

    A ring of (x, y) moves every coordinate equal to x to y, so the diagonal
    is absorbing as a set.  The chain runs on V^{k+1}, or, when
    ``translation_group`` finds one, on the n^k states with walker 0 pinned
    at the identity: a ring at the identity carries walker 0 to y, so the
    configuration is re-centred by -y, and state 0 is the coalesced one.
    The law is translation invariant and both starts are uniform on
    translation orbits, so the two chains give the same law.  The states
    solved are capped at 20000.  Returns P(all k+1 walkers share one
    location by t); under independent uniform starts also n^k times that
    probability, which equals the k-th moment of the tracked-cluster count.
    """
    k = check_count(k, 1, "k")
    [t] = check_grid([t], "t")
    if start not in ("pi_tensor", "distinct"):
        raise ParameterOutOfRange(f"unknown start {start!r}")
    n = c.n
    group = translation_group(c)
    free = k + 1 if group is None else k  # walkers not pinned
    nstates = n**free
    if nstates > _KPARTICLE_CAP:
        raise TooLargeForExact("k-particle state space capped at 20000")
    if start == "distinct" and k + 1 > n:
        raise ParameterOutOfRange("more walkers than vertices for distinct start")
    powers = n ** np.arange(free, dtype=np.int64)
    coords = (np.arange(nstates, dtype=np.int64)[:, None] // powers[None, :]) % n
    if group is not None:
        add, neg = group
        coords = np.hstack([np.zeros((nstates, 1), dtype=np.int64), coords])
    # the occupied sites: the first walker at each site, in sorted order
    srt = np.sort(coords, axis=1)
    src, j = np.nonzero(np.diff(srt, axis=1, prepend=-1))
    sites = np.bincount(src, minlength=nstates)  # distinct locations per state

    def move(src, x, y):
        moved = np.where(coords[src] == x[:, None], y[:, None], coords[src])
        if group is not None:
            # a ring at the identity carries walker 0 to y: re-centre by -y
            moved, at0 = moved[:, 1:], x == 0
            moved[at0] = add(moved[at0], neg(y[at0])[:, None])
        return moved @ powers

    kt, lam = _ring_kernel(c, src, srt[src, j], move)
    # uniform on every state, or on those with k + 1 distinct sites
    mu = np.ones(nstates) if start == "pi_tensor" else np.where(sites == k + 1, 1.0, 0.0)
    mu /= mu.sum()
    acc, terms, tail = uniformize(kt.dot, mu, lam, [t], _SUBSET_TOL)
    p = float(acc[0][sites == 1].sum())
    out = {"p_coal": p, "start": start, "k": k, "t": t, "terms": terms,
           "tail_mass": tail}
    if start == "pi_tensor":
        out["e_ntk"] = float(n**k) * p
    return out


def _check_connected(g: Graph) -> None:
    """Coalescence to one cluster needs a connected graph."""
    if not is_connected(g):
        raise NotConnected("particles on different components never coalesce")


def sample_tau_coal(
    g: Graph,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> float:
    """One draw of the time until a single cluster remains (0 when n = 1)."""
    _check_connected(g)
    if g.n == 1:
        return 0.0
    flat = flat_graph(g, convention)
    return next(_scalar_crw(flat, _one_row(rng), [], to_one=True))["tau"]


def sample_tau_coal_many(
    g: Graph,
    reps: int,
    rng: np.random.Generator,
    convention: str = "per_edge_unit",
) -> np.ndarray:
    """``reps`` coalescence-time draws: the runner's ``tau_coal`` blocks at
    a master seed drawn from ``rng``."""
    from .runner import _task_values

    reps = check_count(reps)
    seed = int(rng.integers(1 << 63))
    return _task_values(g, convention, {"task": "tau_coal"}, [], reps, seed)[2]
