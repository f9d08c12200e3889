"""Shared pieces of the event engines: flat adjacency arrays, the
lockstep two-walker kernel and the time-grid check.

Neighbor lists are expanded by multiplicity so a uniform slot pick realizes
the jump law r_{x,y} / r(x) for both rate conventions.  A walk is given to
the two-walker kernel as vectorized ``rate(v)`` and ``pick(v, u)``, the
latter mapping uniform variates to jump targets; ``graph_pick`` (a
``FlatGraph``), ``chain_pick`` (a weighted chain) and the forest of lazily
grown trees in ``theory`` provide one.  ``chain_walk`` is the scalar pick
of a chain, for the one-walk-at-a-time loops.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_right

import numpy as np

from .errors import ParameterOutOfRange, TotalUnitOnIrregular
from .graphs import Graph


class FlatGraph:
    """Graph unpacked into plain lists for tight loops."""

    __slots__ = ("n", "off", "nbr", "deg", "rate", "r_max", "r_min", "regular", "r0")

    def __init__(self, g: Graph, convention: str = "per_edge_unit"):
        self.n = g.n
        off, nbr, mult = g.csr
        # slot offsets: each adjacency entry takes ``mult`` slots
        slots = np.concatenate(([0], np.cumsum(mult)))[off]
        self.off = slots.tolist()
        self.nbr = np.repeat(nbr, mult).tolist()
        self.deg = np.diff(slots).tolist()
        if convention == "per_edge_unit":
            self.rate = [float(d) for d in self.deg]
        elif convention == "total_unit":
            if len(set(self.deg)) != 1:
                raise TotalUnitOnIrregular("total-unit walk needs a regular graph")
            self.rate = [1.0] * g.n
        else:
            raise ParameterOutOfRange(f"unknown rate convention {convention!r}")
        self.r_max = max(self.rate)
        self.r_min = min(self.rate)
        self.regular = len(set(self.rate)) == 1
        self.r0 = self.rate[0] if self.regular else 0.0

    def neighbor(self, x: int, u: float) -> int:
        """Neighbor of x picked by a uniform variate u in [0, 1)."""
        base = self.off[x]
        return self.nbr[base + int(u * (self.off[x + 1] - base))]


def chain_walk(c):
    """Rate list and neighbor pick of a chain's weighted jump law: target y
    with probability r_{x,y} / r(x), by bisection on cumulative rates."""
    targets = []
    cums = []
    for row in c.rates:
        nz = row.nonzero()[0]
        targets.append(nz.tolist())
        cums.append(row[nz].cumsum().tolist())

    def neighbor(x, u):
        row = cums[x]
        return targets[x][bisect_right(row, u * row[-1])]

    return c.row_rates.tolist(), neighbor


# outcomes of walk_pairs
MEET, TIME, BUDGET, KILLED = 0, 1, 2, 3

# pairs per walk_pairs call; keeps each per-pair array near 128 KB
PAIR_BLOCK = 1 << 14


def graph_pick(flat: FlatGraph):
    """Rates and vectorized pick of a flat graph's walk: a uniform slot of
    the multiplicity-expanded neighbor list."""
    off = np.asarray(flat.off[:-1], dtype=np.int64)
    deg = np.asarray(flat.deg, dtype=np.int64)
    nbr = np.asarray(flat.nbr, dtype=np.int64)
    rate = np.asarray(flat.rate)

    def pick(v, u):
        return nbr[off[v] + (u * deg[v]).astype(np.int64)]

    return rate.take, pick


def chain_pick(c):
    """Rates and vectorized pick of a chain's weighted jump law: target y
    with probability r_{x,y} / r(x), by one searchsorted over the
    row-concatenated cumulative rates."""
    rows, cols = c.rates.nonzero()
    cum = np.cumsum(c.rates[rows, cols])
    first = np.searchsorted(rows, np.arange(c.n))
    last = np.searchsorted(rows, np.arange(c.n), side="right") - 1
    below = np.concatenate(([0.0], cum))[first]
    rate = c.row_rates

    def pick(v, u):
        k = np.searchsorted(cum, below[v] + u * rate[v], side="right")
        # rounding can carry the key past the row's last entry
        return cols[np.minimum(k, last[v])]

    return rate.take, pick


def walk_pairs(rate, pick, a, b, rng, t_max=math.inf, max_events=sys.maxsize):
    """Pairs of independent walkers from a[i] and b[i], all stepped in
    lockstep until each pair retires.

    ``rate(v)`` gives the jump rates of the vertices v and ``pick(v, u)``
    their jump targets for uniform variates u, or -1 to kill the pair.
    Each iteration gives every live pair one event: an exponential clock
    at rate r(a) + r(b), a uniform that picks the walker that moves, with
    probability proportional to its rate, and a uniform for its target.
    The walkers are exchangeable, so after each event ``a`` holds the one
    that moved.  Returns (outcome, clock) arrays: MEET at the meeting time
    (0 for a[i] == b[i]), TIME with the first clock past t_max, KILLED at
    the killing jump, BUDGET after ``max_events`` events.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    outcome = np.full(a.size, MEET, dtype=np.int8)
    out_clock = np.zeros(a.size)
    live = np.flatnonzero(a != b)
    a, b = a[live], b[live]
    ra, rb = rate(a), rate(b)
    clock = np.zeros(live.size)
    events = 0
    while live.size and events < max_events:
        events += 1
        tot = ra + rb
        clock += rng.standard_exponential(live.size) / tot
        u = rng.random((2, live.size))
        moves_a = u[0] * tot < ra
        stay = np.where(moves_a, b, a)
        rb = np.where(moves_a, rb, ra)
        a = pick(a + b - stay, u[1])
        b = stay
        ra = rate(a)
        stop = a == b
        stop |= a < 0
        if t_max < math.inf:
            stop |= clock > t_max
        if np.count_nonzero(stop):
            k = np.flatnonzero(stop)
            ended = np.where(a[k] < 0, KILLED, MEET)
            ended[clock[k] > t_max] = TIME
            outcome[live[k]] = ended
            out_clock[live[k]] = clock[k]
            go = ~stop
            live, a, b, ra, rb, clock = live[go], a[go], b[go], ra[go], rb[go], clock[go]
    outcome[live] = BUDGET
    out_clock[live] = clock
    return outcome, out_clock


def check_grid(t_grid) -> list:
    """Time grid as floats; entries must be finite, nonnegative, sorted
    real numbers (not booleans)."""
    grid = []
    for t in t_grid:
        if isinstance(t, bool) or not (isinstance(t, numbers.Real) and math.isfinite(t)):
            raise ParameterOutOfRange(f"grid times must be finite numbers, got {t!r}")
        grid.append(float(t))
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0.0):
        raise ParameterOutOfRange("t_grid must be sorted and nonnegative")
    return grid
