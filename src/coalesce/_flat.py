"""Shared pieces of the event engines: flat adjacency arrays, the
two-walker loop and the time-grid check.

Neighbor lists are expanded by multiplicity so a uniform slot pick realizes
the jump law r_{x,y} / r(x) for both rate conventions.  A walk is given to
the two-walker loop as a rate list ``rate[v]`` and a pick ``neighbor(v, u)``
that maps a uniform variate to a jump target; ``FlatGraph``, weighted chains
(``chain_walk``) and the lazily grown trees of ``theory`` provide one.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_right

from .errors import ParameterOutOfRange, TotalUnitOnIrregular
from .graphs import Graph


class FlatGraph:
    """Graph unpacked into plain lists for tight loops."""

    __slots__ = ("n", "off", "nbr", "deg", "rate", "r_max", "r_min", "regular", "r0")

    def __init__(self, g: Graph, convention: str = "per_edge_unit"):
        self.n = g.n
        off = [0]
        nbr: list[int] = []
        for u in range(g.n):
            for v, m in g.adjacency[u]:
                nbr.extend([v] * m)
            off.append(len(nbr))
        self.off = off
        self.nbr = nbr
        self.deg = [off[i + 1] - off[i] for i in range(g.n)]
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


def walk_pair(rate, neighbor, a, b, draws, t_max=math.inf, max_events=sys.maxsize):
    """Two independent walkers from a and b until they meet.

    Returns (outcome, clock): "meet" at the meeting time, "time" once the
    next jump would pass t_max, "budget" after max_events jumps, "killed"
    when ``neighbor`` returned -1 for the walker that moved.
    """
    if a == b:
        return "meet", 0.0
    expo = draws.expo
    u01 = draws.u01
    ra = rate[a]
    rb = rate[b]
    clock = 0.0
    for _ in range(max_events):
        total = ra + rb
        clock += expo() / total
        if clock > t_max:
            return "time", clock
        if u01() * total < ra:
            a = neighbor(a, u01())
            if a == b:
                return "meet", clock
            if a < 0:
                return "killed", clock
            ra = rate[a]
        else:
            b = neighbor(b, u01())
            if a == b:
                return "meet", clock
            if b < 0:
                return "killed", clock
            rb = rate[b]
    return "budget", clock


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
