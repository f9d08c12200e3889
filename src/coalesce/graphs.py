"""Graph construction: configuration model and deterministic transitive
families.

All graphs are finite undirected multigraphs, stored only as CSR
(compressed sparse row) arrays: row offsets, neighbours and multiplicities,
with no per-vertex Python objects.  Multiplicities are kept explicitly; a
multi-edge of multiplicity m acts as jump rate m for the walk built on top
of the graph.  Self-loops produced by half-edge matching are deleted (a loop
ring moves nothing).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .errors import (
    InfeasibleDegreeSequence,
    NotConnectedAfterRetries,
    ParameterOutOfRange,
    TooLargeForExact,
    ZeroMean,
)
from .io import open_out, read_text

__all__ = [
    "DegreeDistribution",
    "Graph",
    "size_biased",
    "sample_configuration_model",
    "make_transitive",
    "cycle_graph",
    "torus_graph",
    "complete_graph",
    "hypercube_graph",
    "path_graph",
    "is_connected",
    "vertex_expansion_exact",
    "write_graph",
    "read_graph",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree law given by explicit support ``[(degree, probability), ...]``."""

    support: tuple[tuple[int, float], ...]
    mean: float = field(init=False)

    def __post_init__(self):
        if not self.support:
            raise ParameterOutOfRange("empty degree support")
        support = tuple(_support_entry(d, p) for d, p in self.support)
        total = sum(p for _, p in support)
        if abs(total - 1.0) > _PROB_TOL:
            raise ParameterOutOfRange(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mean", float(sum(d * p for d, p in support)))

    @classmethod
    def from_pairs(cls, pairs) -> "DegreeDistribution":
        return cls(tuple(sorted(_support_entry(d, p) for d, p in pairs)))

    @classmethod
    def delta(cls, degree: int) -> "DegreeDistribution":
        """Point mass at one degree."""
        return cls(((degree, 1.0),))

    @classmethod
    def uniform(cls, degrees) -> "DegreeDistribution":
        """Equal mass on each distinct degree."""
        degs = list(dict.fromkeys(degrees))
        p = 1.0 / len(degs)
        return cls.from_pairs((d, p) for d in degs)

    @property
    def min_degree(self) -> int:
        return min(d for d, _ in self.support)

    @property
    def max_degree(self) -> int:
        return max(d for d, _ in self.support)

    @property
    def cm_safe(self) -> bool:
        """True when the minimum supported degree is >= 3 (expander regime)."""
        return self.min_degree >= 3

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        degs = np.array([d for d, _ in self.support], dtype=np.int64)
        probs = np.array([p for _, p in self.support], dtype=float)
        probs = probs / probs.sum()
        return rng.choice(degs, size=n, p=probs)


def _support_entry(d, p) -> tuple[int, float]:
    """One support entry as (int, float): the degree an integer >= 1 that
    is not a bool, the probability a finite number in [0, 1]."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise ParameterOutOfRange(
            f"degree entry ({d!r}, {p!r}): degree must be an integer >= 1")
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(
            f"degree entry ({d!r}, {p!r}): probability must be a number in [0, 1]")
    return int(d), float(p)


def size_biased(dist: DegreeDistribution) -> DegreeDistribution:
    """Size-biased offspring law: D*(k) = (k+1) D(k+1) / mean(D)."""
    if dist.mean <= 0.0:
        raise ZeroMean("degree distribution has zero mean")
    pairs = [(d - 1, d * p / dist.mean) for d, p in dist.support if d >= 1]
    pairs = [(d, p) for d, p in pairs if p > 0.0]
    if any(d < 1 for d, _ in pairs):
        # degree-1 atoms bias down to 0 offspring; keep them as explicit support
        raise ParameterOutOfRange("size-biased law leaves the degree-1 support")
    return DegreeDistribution.from_pairs(pairs)


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite multigraph as read-only CSR (compressed sparse row) arrays.

    ``csr`` is ``(off, nbr, mult)``: vertex v's entries are ``off[v]`` to
    ``off[v + 1]``, sorted by neighbour, with ``nbr`` the neighbours and
    ``mult`` the edge multiplicities; offsets and neighbours are int32,
    multiplicities int64.  No entry is a self-loop, and an edge (u, v, m)
    appears from both endpoints.  ``family`` tags deterministic built-ins,
    e.g. ("cycle", 4), and implies vertex transitivity for the named
    families.  Graphs compare by value (``n``, ``family`` and the three
    arrays); the hash reads only ``n``, the entry count and ``family``, so
    it costs nothing per entry.
    """

    n: int
    csr: tuple
    family: tuple | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterOutOfRange("graph needs at least one vertex")
        off, nbr, mult = self.csr
        # offsets and neighbours are bounded by the entry count and n
        csr = (np.asarray(off, dtype=np.int32), np.asarray(nbr, dtype=np.int32),
               np.asarray(mult, dtype=np.int64))
        for a in csr:
            a.setflags(write=False)
        object.__setattr__(self, "csr", csr)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return ((self.n, self.family) == (other.n, other.family)
                and all(np.array_equal(a, b) for a, b in zip(self.csr, other.csr)))

    def __hash__(self):
        return hash((self.n, len(self.csr[1]), self.family))

    @classmethod
    def from_edges(cls, n, edges, family=None) -> "Graph":
        """Build from (u, v) or (u, v, multiplicity) rows: an iterable of
        tuples, or an integer array of two or three columns.

        Self-loops are dropped, whatever their endpoint; any other edge
        must lie inside the vertex range and have a positive multiplicity.
        The rows go into int64 arrays, repeated edges merge over the packed
        keys lo * n + hi, and one sort by (vertex, neighbour) lays out the
        CSR arrays.
        """
        if isinstance(edges, np.ndarray):
            rows = np.asarray(edges, dtype=np.int64)
            if rows.shape[1] == 2:
                rows = np.column_stack((rows, np.ones(len(rows), dtype=np.int64)))
        else:
            rows = np.array([(e[0], e[1], e[2] if len(e) > 2 else 1) for e in edges],
                            dtype=np.int64).reshape(-1, 3)
        lo = rows[:, :2].min(axis=1)
        hi = rows[:, :2].max(axis=1)
        edge = lo != hi
        outside = (lo < 0) | (hi >= n)
        bad = np.flatnonzero(edge & (outside | (rows[:, 2] < 1)))
        if bad.size:
            u, v, _ = rows[bad[0]].tolist()
            if outside[bad[0]]:
                raise ParameterOutOfRange(f"edge ({u},{v}) outside vertex range")
            raise ParameterOutOfRange("edge multiplicity must be positive")
        key, inverse = np.unique(lo[edge] * n + hi[edge], return_inverse=True)
        mult = np.zeros(key.size, dtype=np.int64)
        np.add.at(mult, inverse, rows[edge, 2])
        # each edge from both ends, sorted by (vertex, neighbour)
        src = np.concatenate((key // n, key % n))
        dst = np.concatenate((key % n, key // n))
        order = np.lexsort((dst, src))
        off = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        # made in the types Graph keeps, so no copies are added at the peak
        csr = (off.astype(np.int32), dst[order].astype(np.int32), np.tile(mult, 2)[order])
        return cls(n=n, csr=csr, family=family)

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex total degree, counting multiplicities."""
        off, _, mult = self.csr
        return np.diff(np.concatenate(([0], np.cumsum(mult)))[off])

    @property
    def d_max(self) -> int:
        return int(self.degrees.max())

    @property
    def edge_total(self) -> int:
        """Number of edges counted with multiplicity."""
        return int(self.degrees.sum()) // 2

    @property
    def transitive(self) -> bool:
        return self.family is not None and self.family[0] in _TRANSITIVE

    def edge_list(self) -> list[tuple[int, int, int]]:
        """Undirected edges as (u, v, mult) of Python ints with u < v, sorted."""
        _, nbr, mult = self.csr
        u = _entry_rows(self.csr[0])
        up = u < nbr
        return sorted(zip(u[up].tolist(), nbr[up].tolist(), mult[up].tolist()))

    def is_regular(self) -> bool:
        degs = self.degrees
        return bool((degs == degs[0]).all())


def is_connected(g: Graph) -> bool:
    """Whether the graph has one connected component."""
    # gathers run faster on intp indices than on the stored int32
    return _connected(g.n, _entry_rows(g.csr[0]), g.csr[1].astype(np.intp))


def _entry_rows(off: np.ndarray) -> np.ndarray:
    """The row each entry of CSR arrays with offsets off belongs to."""
    return np.repeat(np.arange(len(off) - 1), np.diff(off))


def _connected(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether the n vertices and the edges src[i] -- dst[i], as intp
    arrays, form one component.

    Every vertex carries the label of a vertex no larger than itself, the
    root of its tree.  Each round, every edge whose ends carry different
    labels pulls the larger root down to the smaller label, then labels
    jump to their roots.  Every component an edge leaves merges with
    another, so the components at least halve each round.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[src], label[dst]
        cross = lu != lv
        if not cross.any():
            # vertex 0 is its own root, so one component means all labels 0
            return not label.any()
        np.minimum.at(label, lu[cross], lv[cross])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


_CM_MAX_RETRIES = 200


def sample_configuration_model(
    D: DegreeDistribution,
    n: int,
    rng: np.random.Generator,
    require_connected: bool = False,
) -> Graph:
    """Random multigraph by uniform matching of half edges.

    Degrees are i.i.d. from D, resampled as a whole sequence until their sum
    is even.  The shuffled stubs, paired in order, go to ``Graph.from_edges``
    as one array: self-loops are deleted there, and parallel edges kept with
    multiplicity.  With ``require_connected`` the entire graph is
    rejection-resampled until ``is_connected``.  Each of the two redraws
    gives up after ``_CM_MAX_RETRIES`` tries.
    """
    if n < 2:
        raise ParameterOutOfRange("configuration model needs n >= 2")
    if D.mean <= 0.0:
        raise ZeroMean("degree distribution has zero mean")
    if require_connected and not D.cm_safe:
        warnings.warn(
            "require_connected with minimum degree < 3 may reject many samples",
            stacklevel=2,
        )

    def draw_even_degrees():
        for _ in range(_CM_MAX_RETRIES):
            degs = D.sample(n, rng)
            if int(degs.sum()) % 2 == 0:
                return degs
        raise InfeasibleDegreeSequence(
            f"no even degree sum within {_CM_MAX_RETRIES} draws"
        )

    for _ in range(_CM_MAX_RETRIES):
        degs = draw_even_degrees()
        stubs = np.repeat(np.arange(n, dtype=np.int64), degs)
        rng.shuffle(stubs)
        g = Graph.from_edges(n, stubs.reshape(-1, 2))
        if not require_connected or is_connected(g):
            return g
    raise NotConnectedAfterRetries(
        f"no connected sample within {_CM_MAX_RETRIES} attempts"
    )


# offsets and neighbours are int32, so no graph has more CSR entries
_MAX_ENTRIES = (1 << 31) - 1


def _check_size(family: str, params: tuple, n: int, degree: int) -> None:
    """Refuse a family graph of n vertices with ``degree`` CSR entries each,
    before any array or list is built, when int32 offsets and neighbours
    cannot index it."""
    if n > _MAX_ENTRIES or n * degree > _MAX_ENTRIES:
        raise ParameterOutOfRange(
            f"{family}({', '.join(map(str, params))}) has more than {_MAX_ENTRIES} "
            "vertices or CSR entries")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterOutOfRange("cycle needs n >= 3")
    _check_size("cycle", (n,), int(n), 2)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, family=("cycle", n))


def path_graph(n: int) -> Graph:
    """Simple path; the 2-path is the smallest connected test chain."""
    if n < 2:
        raise ParameterOutOfRange("path needs n >= 2")
    _check_size("path", (n,), int(n), 2)
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(n, edges, family=None)


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ParameterOutOfRange("complete graph needs n >= 2")
    _check_size("complete", (n,), int(n), int(n) - 1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, edges, family=("complete", n))


def torus_graph(d: int, L: int) -> Graph:
    """d-dimensional discrete torus of side L, lexicographic labeling."""
    if d < 1 or L < 3:
        raise ParameterOutOfRange("torus needs d >= 1 and L >= 3")
    # L^d is past the limit by 32 axes, so a huge d costs no big power
    _check_size("torus", (d, L), int(L) ** min(int(d), 32), 2 * int(d))
    n = L**d
    v = np.arange(n)
    # each vertex to its neighbour one step up along the axis of stride s
    up = [v + ((v // s + 1) % L - v // s % L) * s for s in L ** np.arange(d)]
    edges = np.column_stack((np.tile(v, d), np.concatenate(up)))
    return Graph.from_edges(n, edges, family=("torus", d, L))


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube on the bit strings 0..2^d - 1."""
    if d < 1:
        raise ParameterOutOfRange("hypercube needs d >= 1")
    _check_size("hypercube", (d,), 1 << min(int(d), 32), int(d))
    n = 1 << d
    # each vertex to its neighbour across every axis, each edge once
    v = np.repeat(np.arange(n), d)
    w = v ^ np.tile(1 << np.arange(d), n)
    up = v < w
    return Graph.from_edges(n, np.column_stack((v[up], w[up])), family=("hypercube", d))


# the vertex-transitive families: builder and parameter count
_TRANSITIVE = {"cycle": (cycle_graph, 1), "torus": (torus_graph, 2),
               "complete": (complete_graph, 1), "hypercube": (hypercube_graph, 1)}


def make_transitive(family: str, *params: int) -> Graph:
    """Dispatch on family name: cycle(n), torus(d, L), complete(n), hypercube(d)."""
    if family not in _TRANSITIVE:
        raise ParameterOutOfRange(f"unknown transitive family {family!r}")
    build, count = _TRANSITIVE[family]
    if len(params) != count:
        raise ParameterOutOfRange(
            f"family {family!r} takes {count} parameter(s), got {len(params)}")
    return build(*params)


def vertex_expansion_exact(g: Graph) -> float:
    """Exhaustive vertex expansion: min over nonempty S with |S| <= n/2 of
    |boundary(S)| / |S|, boundary = outside vertices adjacent to S."""
    n = g.n
    if n > 20:
        raise TooLargeForExact("vertex expansion enumeration capped at n = 20")
    if n < 2:
        raise ParameterOutOfRange("expansion needs n >= 2")
    nbr_mask = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(nbr_mask, _entry_rows(g.csr[0]),
                     np.left_shift(1, g.csr[1], dtype=np.int64))
    # every nonempty subset as a bit mask; reach is the union of the
    # neighbourhoods of its members
    s = np.arange(1, 1 << n, dtype=np.int64)
    size = np.zeros_like(s)
    reach = np.zeros_like(s)
    for v in range(n):
        member = s >> v & 1
        size += member
        reach |= nbr_mask[v] * member
    outside = reach & ~s
    boundary = np.zeros_like(s)
    for v in range(n):
        boundary += outside >> v & 1
    keep = size <= n // 2
    return float((boundary[keep] / size[keep]).min())


def write_graph(g: Graph, path) -> None:
    """Version-tagged text format, exact round-trip."""
    lines = g.edge_list()
    with open_out(path) as fh:
        fh.write(f"crwgraph v1 {g.n} {len(lines)}\n")
        for u, v, m in lines:
            fh.write(f"{u} {v} {m}\n")


def _int_fields(path, lineno: int, fields: list, count: int) -> list[int]:
    try:
        values = [int(f) for f in fields]
    except ValueError:
        values = None
    if values is None or len(values) != count:
        raise ParameterOutOfRange(
            f"{path}:{lineno}: expected {count} integers, got {' '.join(fields)!r}"
        )
    return values


def read_graph(path) -> Graph:
    """Read a file written by write_graph; an unreadable or malformed file
    raises ParameterOutOfRange naming the path (and the line)."""
    with StringIO(read_text(path)) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "crwgraph" or header[1] != "v1":
            raise ParameterOutOfRange(f"{path}: not a crwgraph v1 file")
        n, m_lines = _int_fields(path, 1, header[2:], 2)
        if m_lines < 0:
            raise ParameterOutOfRange(f"{path}:1: negative edge count {m_lines}")
        edges = []
        for lineno in range(2, m_lines + 2):
            line = fh.readline()
            if not line:
                raise ParameterOutOfRange(
                    f"{path}:{lineno}: file ends after {lineno - 2} of {m_lines} edges"
                )
            u, v, mult = _int_fields(path, lineno, line.split(), 3)
            if not (0 <= u < n and 0 <= v < n):
                problem = f"edge ({u},{v}) outside vertex range 0..{n - 1}"
            elif u == v:
                problem = f"self-loop at vertex {u}"
            elif mult < 1:
                problem = f"edge multiplicity {mult} is not positive"
            else:
                edges.append((u, v, mult))
                continue
            raise ParameterOutOfRange(f"{path}:{lineno}: {problem}")
        if fh.readline().strip():
            raise ParameterOutOfRange(
                f"{path}:{m_lines + 2}: more than the {m_lines} edges in the header"
            )
    return Graph.from_edges(n, edges)
