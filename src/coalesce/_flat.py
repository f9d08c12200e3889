"""Shared pieces of the event engines: flat adjacency arrays, the
uniformized two-walker kernel and the time-grid check.

Neighbor lists are expanded by multiplicity so a uniform slot pick realizes
the jump law r_{x,y} / r(x) for both rate conventions.  ``walk_pairs``,
the one two-walker routine, runs every walker at the constant rate r_max
of its walk and thins: a walk is given to it as ``(r_max, pick)``, where
``pick(v, u, out)`` advances walkers one step per row of uniform variates,
to y with probability r(v, y) / r_max and otherwise staying at v.
``graph_pick`` (a padded slot table of a ``FlatGraph``), ``chain_pick``
(Walker alias tables of a weighted chain) and the forest of lazily grown
trees in ``theory`` provide one.  ``theory``'s branching-integral
estimator moves its walker families on ``chain_pick`` too.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import BadSubset, ParameterOutOfRange, TotalUnitOnIrregular
from .graphs import Graph


class FlatGraph:
    """Graph unpacked into plain lists for tight loops."""

    __slots__ = ("n", "off", "nbr", "deg", "rate", "r_max", "r_min", "regular")

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


# outcomes of walk_pairs
MEET, TIME, BUDGET, KILLED = 0, 1, 2, 3

# pairs per estimator call of walk_pairs; keeps each per-pair array near 128 KB
PAIR_BLOCK = 1 << 14

# a block advances L live pairs K steps per walker with K * L <= _CELLS and
# K in [_MIN_STEPS, _MAX_STEPS]: short blocks while many pairs are live, long
# ones in the tail.  A block needs about 64 bytes a step and pair, so its
# arrays stay near 1 MB; budgets of 2^15 to 2^17 cells ran no faster and
# held more memory
_CELLS = 1 << 14
_MIN_STEPS, _MAX_STEPS = 4, 256
# path mark of a walker past its block's steps; -1 is a kill
_PAST = -2
# below this many live pairs np.cumsum sums a block's coins faster than a
# loop over its rows (numpy's strided accumulate is slow on wide blocks)
_NARROW = 256


def block_steps(live: int, room: int) -> int:
    """Steps per walker in a block of ``live`` pairs whose largest remaining
    event budget is ``room``: the cell budget's K, cut to the room's need
    (a block holds 2K + 1 events).  A function of the live pairs' count and
    budgets alone, so a seed fixes every block."""
    steps = min(_MAX_STEPS, max(_MIN_STEPS, _CELLS // live))
    return max(1, min(steps, room // 2))


def graph_pick(flat: FlatGraph):
    """Uniformized walk of a flat graph: ``(r_max, pick)``.

    A padded slot table holds each vertex's multiplicity-expanded neighbor
    list in its first r(x) of r_max columns and x itself in the rest (the
    thinned stays; none on a regular graph).  ``pick(v, u, out)`` advances
    walkers from the vertices v (shape (L,)) one step per row of the uniform
    variates u (shape (K, L)) and writes their positions into the int64
    array out (u's shape), which it returns; u is used as scratch.  A step
    takes slot floor(u * width), so it moves to y with probability
    r(x, y) / r_max and stays with probability 1 - r(x) / r_max.  The
    table has n * max-degree entries, built without a loop over vertices.
    """
    n = flat.n
    width = max(flat.deg, default=1)
    deg = np.asarray(flat.deg, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    slot = np.arange(rows.size) - np.asarray(flat.off[:-1], dtype=np.int64)[rows]
    table = np.repeat(np.arange(n, dtype=np.int64), width).reshape(n, width)
    table[rows, slot] = flat.nbr
    # vertex v is held as its row offset v * width, so a step is one add and
    # one take (every index is in range; mode="clip" skips a buffered copy)
    table = (table * width).ravel()

    def pick(v, u, out):
        np.multiply(u, width, out=u)
        np.copyto(out, u, casting="unsafe")
        at = v * width
        for k in range(out.shape[0]):
            np.add(at, out[k], out=out[k])
            at = table.take(out[k], out=out[k], mode="clip")
        np.floor_divide(out, width, out=out)
        return out

    return flat.r_max, pick


def _alias_columns(weight):
    """Walker alias tables, one per row of ``weight`` (rows summing to 1),
    built for all rows at once: column j of row x is kept with probability
    ``keep[x, j]`` and otherwise passed to column ``alias[x, j]``."""
    n, width = weight.shape
    scaled = weight * width
    keep = np.ones((n, width))
    alias = np.tile(np.arange(width), (n, 1))
    done = np.zeros((n, width), dtype=bool)
    # each round settles one underfull column in every row that has one
    # and an overfull column to fill it
    for _ in range(width):
        small = ~done & (scaled < 1.0)
        large = ~done & (scaled >= 1.0)
        x = np.flatnonzero(small.any(axis=1) & large.any(axis=1))
        if not x.size:
            break
        s = small[x].argmax(axis=1)
        g = large[x].argmax(axis=1)
        keep[x, s] = scaled[x, s]
        alias[x, s] = g
        scaled[x, g] -= 1.0 - scaled[x, s]
        done[x, s] = True
    # what rounding leaves unsettled keeps its own column
    return keep, alias


def chain_pick(c):
    """Uniformized walk of a chain's weighted jump law: ``(r_max, pick)``,
    with ``pick(v, u, out)`` as in ``graph_pick``.

    Row x holds its targets y at weights r(x, y) / r_max and, when
    r(x) < r_max, a stay at x with the rest, in a Walker alias table padded
    with zero-weight stays: one variate picks the column by its integer
    part and keeps it or takes its alias by its fraction.
    """
    n = c.n
    r_max = c.r_max
    rows, cols, rates = c.entries()
    indptr = c.csr[0]
    stay = np.maximum(0.0, 1.0 - c.row_rates / r_max)
    width = int(np.diff(indptr).max()) + int((stay > 0.0).any())
    target = np.repeat(np.arange(n, dtype=np.int64), width).reshape(n, width)
    weight = np.zeros((n, width))
    slot = np.arange(rows.size) - indptr[rows]
    target[rows, slot] = cols
    weight[rows, slot] = rates / r_max
    weight[:, -1] += stay
    keep, alias = _alias_columns(weight)
    # entry 2 * (x * width + j) holds column j's target and the next entry
    # its alias's, both as codes 2 * width * y; a variate scaled by width
    # keeps column j below j + keep[x, j]
    span = 2 * width
    code = np.empty((n, width, 2), dtype=np.int64)
    code[:, :, 0] = target
    code[:, :, 1] = np.take_along_axis(target, alias, axis=1)
    code = (code * span).ravel()
    bound = np.zeros((n, width, 2))
    bound[:, :, 0] = np.arange(width) + keep
    bound = bound.ravel()

    def pick(v, u, out):
        np.multiply(u, width, out=u)
        np.copyto(out, u, casting="unsafe")
        out <<= 1
        at = v * span
        lim = np.empty(v.shape)
        alt = np.empty(v.shape, dtype=bool)
        for k in range(out.shape[0]):
            np.add(at, out[k], out=out[k])
            np.greater_equal(u[k], bound.take(out[k], out=lim, mode="clip"), out=alt)
            np.add(out[k], alt, out=out[k])
            at = code.take(out[k], out=out[k], mode="clip")
        np.floor_divide(out, span, out=out)
        return out

    return r_max, pick


def walk_pairs(r_max, pick, a, b, rng, t_max=math.inf, max_events=sys.maxsize):
    """Pairs of independent walkers from a[i] and b[i], uniformized at the
    rate r_max and advanced in blocks until each pair retires.

    ``pick(v, u, out)`` advances walkers from v one step per row of the
    uniform variates u (which it may overwrite) and writes their positions
    into out: y with probability r(v, y) / r_max, v itself otherwise (a
    thinned stay), or -1 to kill the pair (a killed walker stays at -1).
    A pair's events are then a Poisson process at rate 2 r_max, each
    moving either walker with probability 1/2, whatever the path.

    A block of L live pairs takes K = ``block_steps(L, room)`` steps per
    walker, room being the largest remaining budget: K variates per walker
    drawn for walker a and then for walker b, both paths advanced K steps
    by ``pick``, and 2K + 1 fair coins per pair (``rng.bytes``, one bit
    each, event-major) that say which walker each event moves, a 1 moving
    walker a.  Coin cumsums index the two paths at every event; a pair's
    events in the block run until one walker would need step K + 1 or the
    pair reaches its event budget, and its first meeting or kill among
    them retires it.  A pair resumes the next block from where it stopped,
    so the unused steps of a path are dropped; which steps are used
    depends on the coins alone, so each walker's path stays a Markov path.

    Clocks come from event counts: the k-th event of a pair comes at
    Gamma(k) / (2 r_max).  With a finite t_max each pair first draws its
    event count by t_max, N ~ Poisson(2 r_max t_max), which caps its
    budget; its k-th event, k <= N, comes at t_max * Beta(k, N - k + 1),
    and after N events without a meeting it retires as TIME at
    t_max + Exp(2 r_max).

    The clocks are drawn after the last block, in pair order: the
    exponentials of the TIME pairs, then the Gamma (or, with a horizon,
    Beta) clocks of the other pairs with an event.

    Returns per-pair (outcome, clock, events, thinned): MEET at the meeting
    time (0 with no event for a[i] == b[i]), TIME with the first clock past
    t_max, KILLED at the killing event, BUDGET at the ``max_events``-th
    event; the events each pair used, and the stays among them.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    outcome = np.full(a.size, MEET, dtype=np.int8)
    events = np.zeros(a.size, dtype=np.int64)
    thinned = np.zeros(a.size, dtype=np.int64)
    live = np.flatnonzero(a != b)
    a, b = a[live], b[live]
    horizon = t_max < math.inf
    budget = np.full(live.size, max_events, dtype=np.int64)
    n_t = np.zeros(outcome.size, dtype=np.int64)
    if horizon:
        n_t[live] = rng.poisson(2.0 * r_max * t_max, live.size)
        np.minimum(budget, n_t[live], out=budget)
        # the horizon cuts a pair before its budget: TIME, not BUDGET
        outcome[live] = np.where(n_t[live] < max_events, TIME, BUDGET)
    else:
        outcome[live] = BUDGET
    used = np.zeros(live.size, dtype=np.int64)
    stays = np.zeros(live.size, dtype=np.int64)
    go = budget > 0
    live, a, b, budget, used, stays = live[go], a[go], b[go], budget[go], used[go], stays[go]
    # one workspace for every block: no block has more than `cells` steps
    # per walker, and fresh pages cost more than the work on them
    cells = max(_CELLS, _MIN_STEPS * live.size)
    span = 2 * cells + 2 * live.size
    work = np.empty(cells)
    paths = np.empty((2, cells + 2 * live.size), dtype=np.int64)
    ints = np.empty((2, span), dtype=np.int64)
    moves = np.empty(span, dtype=np.int16)
    flags = np.empty((2, span), dtype=bool)
    while live.size:
        size = live.size
        room = budget - used
        steps = block_steps(size, int(room.max()))
        rows = 2 * steps + 2
        col = np.arange(size)
        # rows 0..K of a path are a walker's positions after each of its
        # steps; row K + 1 holds a mark for a walker past its path
        both = paths[:, :(steps + 2) * size].reshape(2, steps + 2, size)
        both[:, -1] = _PAST
        path_a, path_b = both
        u = rng.random(out=work[:steps * size]).reshape(steps, size)
        pick(a, u, path_a[1:-1])
        u = rng.random(out=work[:steps * size]).reshape(steps, size)
        pick(b, u, path_b[1:-1])
        path_a[0] = a
        path_b[0] = b
        coins = np.unpackbits(np.frombuffer(rng.bytes(((rows - 1) * size + 7) // 8),
                                            dtype=np.uint8), count=(rows - 1) * size)
        # moved_a[r]: walker a's steps after r events, the coin cumsum
        moved_a = moves[:rows * size].reshape(rows, size)
        moved_a[0] = 0
        moved_a[1:] = coins.reshape(rows - 1, size)
        if size < _NARROW:
            np.cumsum(moved_a, axis=0, out=moved_a)
        else:
            for r in range(1, rows):
                np.add(moved_a[r], moved_a[r - 1], out=moved_a[r])
        # the walkers' positions after r events, taken from the flat paths
        # at row times row length plus column; take clips an index past the
        # paths onto the mark
        pos_a, pos_b = ints[:, :rows * size].reshape(2, rows, size)
        np.multiply(moved_a, size, out=pos_a, dtype=np.int64)
        pos_a += col
        np.add.outer(np.arange(rows) * size, 2 * col, out=pos_b)
        pos_b -= pos_a
        path_a.ravel().take(pos_a, out=pos_a, mode="clip")
        path_b.ravel().take(pos_b, out=pos_b, mode="clip")
        # a pair stops at its first meeting, kill, mark or spent budget; by
        # row 2K + 1 one walker has made K + 1 steps, so every pair stops.
        # Only the mover changes at an event, so the first mark meets a
        # walker still on its path: it is never read as a meeting
        stop, neg = flags[:, :rows * size].reshape(2, rows, size)
        np.equal(pos_a, pos_b, out=stop)
        for pos in (pos_a, pos_b):
            stop |= np.less(pos, 0, out=neg)
        if room.min() < rows - 1:
            np.greater(np.arange(rows)[:, None], room, out=neg)
            stop |= neg
        first = stop.argmax(axis=0)
        end_a = pos_a[first, col]
        end_b = pos_b[first, col]
        # a negative value at the stop is the mover's: -1 a kill, else a mark
        low = np.minimum(end_a, end_b)
        ended = (first <= room) & ((end_a == end_b) | (low == -1))
        done = first - 1 + ended
        steps_a = moved_a[done, col]
        for path, moved in ((path_a, steps_a), (path_b, done - steps_a)):
            same = np.equal(path[1:-1], path[:-2], out=stop[:steps])
            if same.any():
                same &= np.arange(1, steps + 1)[:, None] <= moved
                stays += np.count_nonzero(same, axis=0)
        used += done
        a = pos_a[done, col]
        b = pos_b[done, col]
        retire = ended | (used == budget)
        if retire.any():
            k = np.flatnonzero(retire)
            gone = live[k]
            met = ended[k]
            outcome[gone[met]] = np.where(low[k][met] == -1, KILLED, MEET)
            events[gone] = used[k]
            thinned[gone] = stays[k]
            go = ~retire
            live, a, b, budget, used, stays = (live[go], a[go], b[go], budget[go],
                                               used[go], stays[go])
    clock = np.zeros(outcome.size)
    timed = outcome == TIME
    clock[timed] = t_max + rng.standard_exponential(int(timed.sum())) / (2.0 * r_max)
    k = np.flatnonzero(~timed & (events > 0))
    if horizon:
        clock[k] = t_max * rng.beta(events[k], n_t[k] - events[k] + 1)
    else:
        clock[k] = rng.standard_gamma(events[k]) / (2.0 * r_max)
    return outcome, clock, events, thinned


def check_count(value, least: int = 1, name: str = "reps") -> int:
    """A count such as a replicate count: an integer, not a boolean, of at
    least ``least``.  Errors name the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterOutOfRange(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_scale(value) -> float:
    """A replicate scale: a positive finite real, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ParameterOutOfRange(f"scale must be a positive finite number, got {value!r}")
    return float(value)


def check_vertex(value, n: int, name: str) -> int:
    """A vertex of an n-vertex graph: an integer, not a boolean, in
    0..n - 1.  Errors name the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < n:
        raise ParameterOutOfRange(f"{name} must be a vertex in 0..{n - 1}, got {value!r}")
    return int(value)


def check_subset(values, n: int, name: str) -> set:
    """The distinct members of ``values``, each an integer, not a boolean,
    in 0..n - 1.  Errors are ``BadSubset`` naming the input ``name``."""
    members = set()
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not 0 <= v < n:
            raise BadSubset(f"{name} must hold integers in 0..{n - 1}, got {v!r}")
        members.add(int(v))
    return members


def check_grid(t_grid, name: str = "t_grid") -> list:
    """Time grid as floats; entries must be finite, nonnegative, sorted
    real numbers (not booleans).  Errors name the field ``name``."""
    grid = []
    for t in t_grid:
        if isinstance(t, bool) or not (isinstance(t, numbers.Real) and math.isfinite(t)):
            raise ParameterOutOfRange(f"{name} must hold finite numbers, got {t!r}")
        grid.append(float(t))
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0.0):
        raise ParameterOutOfRange(f"{name} must be sorted and nonnegative")
    return grid
