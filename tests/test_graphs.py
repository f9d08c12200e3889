import os
import subprocess
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from conftest import dense

from coalesce import graphs
from coalesce._flat import FlatGraph
from coalesce.errors import (
    InfeasibleDegreeSequence,
    NotConnectedAfterRetries,
    ParameterOutOfRange,
    TooLargeForExact,
    TotalUnitOnIrregular,
)
from coalesce.graphs import (
    DegreeDistribution,
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    is_connected,
    make_transitive,
    path_graph,
    read_graph,
    sample_configuration_model,
    size_biased,
    torus_graph,
    vertex_expansion_exact,
    write_graph,
)
from coalesce.seeding import derive_rng

D3 = DegreeDistribution.delta(3)
D34 = DegreeDistribution.uniform([3, 4])


class TestDegreeDistribution:
    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            DegreeDistribution(((3, 0.5), (4, 0.6)))
        with pytest.raises(ParameterOutOfRange):
            DegreeDistribution(((0, 1.0),))

    @pytest.mark.parametrize("pairs,entry", [
        ([(3.7, 1.0)], "(3.7, 1.0)"),
        ([(True, 1.0)], "(True, 1.0)"),
        ([("3", 1.0)], "('3', 1.0)"),
        ([(0, 1.0)], "(0, 1.0)"),
        ([(3, 0.5), (4, float("nan"))], "(4, nan)"),
        ([(3, float("inf"))], "(3, inf)"),
        ([(3, 1.5), (4, -0.5)], "(3, 1.5)"),
        ([(3, True)], "(3, True)"),
    ])
    def test_bad_entry_named(self, pairs, entry):
        with pytest.raises(ParameterOutOfRange) as err:
            DegreeDistribution.from_pairs(pairs)
        assert f"degree entry {entry}" in str(err.value)

    @pytest.mark.parametrize("build,entry", [
        (lambda: DegreeDistribution.delta(3.7), "(3.7, 1.0)"),
        (lambda: DegreeDistribution.delta(True), "(True, 1.0)"),
        (lambda: DegreeDistribution.uniform([3.5, 4.2]), "(3.5, 0.5)"),
    ], ids=["delta_fraction", "delta_bool", "uniform_fractions"])
    def test_bad_degree_named_by_delta_and_uniform(self, build, entry):
        # these laws used to become delta(3), delta(1) and uniform on {3, 4}
        with pytest.raises(ParameterOutOfRange) as err:
            build()
        assert f"degree entry {entry}" in str(err.value)

    def test_numpy_numbers_accepted(self):
        dist = DegreeDistribution.from_pairs(
            [(np.int64(4), np.float64(0.5)), (np.int32(3), 0.5)])
        assert dist.support == ((3, 0.5), (4, 0.5))
        assert all(type(d) is int and type(p) is float for d, p in dist.support)

    def test_mean(self):
        assert D34.mean == pytest.approx(3.5)
        assert D3.cm_safe and not DegreeDistribution.uniform([2, 3]).cm_safe


class TestSizeBiased:
    def test_delta3(self):
        star = size_biased(D3)
        assert dict(star.support) == {2: 1.0}
        assert star.mean == pytest.approx(2.0)

    def test_uniform34(self):
        star = size_biased(D34)
        probs = dict(star.support)
        assert probs[2] == pytest.approx(3 / 7)
        assert probs[3] == pytest.approx(4 / 7)

    def test_twice_normalized(self):
        rng = derive_rng(0, "sb", 0)
        for _ in range(20):
            degs = sorted(set(rng.integers(3, 9, size=3).tolist()))
            probs = rng.random(len(degs))
            probs /= probs.sum()
            # renormalize exactly so the constructor's tolerance is met
            dist = DegreeDistribution.from_pairs(zip(degs, probs))
            twice = size_biased(size_biased(dist))
            assert abs(sum(p for _, p in twice.support) - 1.0) <= 1e-12


class TestConfigurationModel:
    def test_delta3_n10_handshake(self):
        g = sample_configuration_model(D3, 10, derive_rng(3, "cm", 0))
        assert (g.degrees == 3).all()
        assert g.edge_total == 15

    def test_odd_sum_infeasible(self):
        with pytest.raises(InfeasibleDegreeSequence):
            sample_configuration_model(D3, 3, derive_rng(0, "cm", 0))

    def test_handshake_always(self):
        for seed in range(10):
            g = sample_configuration_model(D34, 60, derive_rng(seed, "cmh", 0))
            assert int(g.degrees.sum()) == 2 * g.edge_total

    def test_connected_rate(self):
        # connectivity holds with high probability at minimum degree 3
        hits = sum(
            is_connected(
                sample_configuration_model(D34, 1000, derive_rng(s, "conn", 0))
            )
            for s in range(100)
        )
        assert hits >= 95

    def test_connectivity_rejection_exhausts(self):
        # a perfect matching on >= 4 vertices is never connected
        d1 = DegreeDistribution.delta(1)
        with pytest.warns(UserWarning):
            with pytest.raises(NotConnectedAfterRetries):
                sample_configuration_model(d1, 6, derive_rng(0, "cm", 0), require_connected=True)

    def test_degree_histogram(self):
        g = sample_configuration_model(D34, 10_000, derive_rng(11, "hist", 0))
        degs = g.degrees
        # self-loop deletion can shave a handful of degrees; 3-sigma
        # multinomial bands leave far more room than that
        n3 = int((degs == 3).sum())
        band = 3.0 * np.sqrt(10_000 * 0.25)
        assert abs(n3 - 5000) <= band + 20


def reference_edges(n, edges):
    """Graph.from_edges's merged edges as a loop over the rows with a dict
    of multiplicities, the way it was built before the array assembly:
    sorted (u, v, m) with u < v."""
    mult = {}
    for e in edges:
        u, v = e[0], e[1]
        m = e[2] if len(e) > 2 else 1
        if u == v:
            continue
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterOutOfRange(f"edge ({u},{v}) outside vertex range")
        if m < 1:
            raise ParameterOutOfRange("edge multiplicity must be positive")
        key = (u, v) if u < v else (v, u)
        mult[key] = mult.get(key, 0) + int(m)
    return sorted((u, v, m) for (u, v), m in mult.items())


def reference_from_edges(n, edges, family=None):
    """Graph.from_edges with its CSR arrays laid out by a loop over the
    reference edges."""
    adj = [[] for _ in range(n)]
    for u, v, m in reference_edges(n, edges):
        adj[u].append((v, m))
        adj[v].append((u, m))
    off, nbr, mults = [0], [], []
    for a in adj:
        for v, m in sorted(a):
            nbr.append(v)
            mults.append(m)
        off.append(len(nbr))
    csr = tuple(np.array(x, dtype=np.int64) for x in (off, nbr, mults))
    return Graph(n=n, csr=csr, family=family)


def reference_multiplicities(g):
    """The dense multiplicity matrix as a loop over the edge list."""
    r = np.zeros((g.n, g.n))
    for u, v, m in g.edge_list():
        r[u, v] = r[v, u] = m
    return r


def reference_configuration_model(D, n, rng, require_connected=False):
    """sample_configuration_model with the per-edge dict merge it had before
    the array assembly, the same draws in the same order, and a record of
    the events met: "odd" (a degree sum redrawn), "disconnected" (a graph
    redrawn), "loop" and "multi" (in the returned graph's matching)."""
    seen = set()
    for _ in range(200):
        for _ in range(200):
            degs = D.sample(n, rng)
            if int(degs.sum()) % 2 == 0:
                break
            seen.add("odd")
        else:
            raise InfeasibleDegreeSequence("odd")
        stubs = np.repeat(np.arange(n, dtype=np.int64), degs)
        rng.shuffle(stubs)
        mult = {}
        for u, v in zip(stubs[0::2].tolist(), stubs[1::2].tolist()):
            if u == v:
                seen.add("loop")
                continue
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + 1
        if any(m > 1 for m in mult.values()):
            seen.add("multi")
        g = reference_from_edges(n, [(u, v, m) for (u, v), m in mult.items()])
        if not require_connected or is_connected(g):
            return g, seen
        seen.add("disconnected")
        seen.discard("loop")
        seen.discard("multi")
    raise NotConnectedAfterRetries("disconnected")


def raised(build):
    """The exception type and message a call raises, or its result."""
    try:
        return build()
    except ParameterOutOfRange as exc:
        return type(exc), str(exc)


class TestFromEdgesAssembly:
    """The array assembly against the dict-loop reference, compared with ==."""

    @pytest.mark.parametrize("edges", [
        [],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 1), (1, 0), (0, 1, 3), (2, 2), (2, 2, 5), (3, 1, 2)],  # multi-edges, loops
        [(9, 9), (0, 1), (-4, -4, 0)],  # loops outside the range are dropped
        ((u, (u * 3) % 5) for u in range(5)),  # a generator, with a loop at 0
        np.array([[0, 1], [1, 0], [4, 4], [3, 2], [2, 3]]),
        np.array([[0, 1, 2], [1, 0, 1], [4, 2, 7]]),
    ], ids=["empty", "triangle", "loops_and_multi", "far_loops", "generator",
            "array2", "array3"])
    def test_matches_reference(self, edges):
        rows = edges if isinstance(edges, np.ndarray) else list(edges)
        got = Graph.from_edges(5, rows, family=("test", 5))
        assert got == reference_from_edges(5, rows, family=("test", 5))
        assert got.edge_list() == reference_edges(5, rows)
        assert all(type(x) is int for e in got.edge_list() for x in e)
        assert np.array_equal(dense(got.csr, got.n), reference_multiplicities(got))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_multigraphs(self, seed):
        rng = derive_rng(seed, "from-edges", 0)
        n = int(rng.integers(1, 30))
        k = int(rng.integers(0, 4 * n))
        rows = rng.integers(0, n, (k, 3))
        rows[:, 2] = rng.integers(1, 4, k)
        edges = [tuple(r) if r[2] > 1 else tuple(r[:2]) for r in rows.tolist()]
        got = Graph.from_edges(n, edges)
        assert got == reference_from_edges(n, edges)
        assert got.edge_list() == reference_edges(n, edges)
        assert np.array_equal(dense(got.csr, got.n), reference_multiplicities(got))
        assert Graph.from_edges(n, rows) == reference_from_edges(n, rows.tolist())

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 5)],
        [(0, 1), (-1, 2)],
        [(0, 1, 0)],
        [(0, 1), (2, 3, -2)],
        [(4, 4, 0), (1, 2, 0), (0, 7)],  # the first bad edge decides the message
        [(0, 7, 0), (1, 2, 0)],  # outside the range comes before the multiplicity
    ])
    def test_same_errors(self, edges):
        expected = raised(lambda: reference_from_edges(5, edges))
        assert expected[0] is ParameterOutOfRange
        assert raised(lambda: Graph.from_edges(5, edges)) == expected
        if len({len(e) for e in edges}) == 1:
            assert raised(lambda: Graph.from_edges(5, np.array(edges))) == expected

    def test_every_builder(self, monkeypatch):
        # each builder's own edge rows, through both assemblies
        calls = []
        original = Graph.from_edges.__func__

        def spy(cls, n, edges, family=None):
            edges = edges if isinstance(edges, np.ndarray) else list(edges)
            got = original(cls, n, edges, family=family)
            calls.append(got == reference_from_edges(n, edges, family=family))
            return got

        monkeypatch.setattr(Graph, "from_edges", classmethod(spy))
        for g in (cycle_graph(7), path_graph(5), complete_graph(6), torus_graph(3, 4),
                  torus_graph(1, 5), hypercube_graph(4), make_transitive("torus", 2, 3)):
            assert g.n > 1
        sample_configuration_model(D34, 50, derive_rng(0, "cm-ref", 0))
        assert len(calls) == 8 and all(calls)


CM_CASES = [
    (D3, 20, False),
    (D3, 8, True),
    (D3, 12, False),
    (D34, 9, False),
    (D34, 30, True),
    (DegreeDistribution.uniform([1, 2, 3]), 10, True),
    (DegreeDistribution.uniform([1, 2, 3]), 40, False),
]


class TestConfigurationModelAssembly:
    @pytest.mark.parametrize("case", range(len(CM_CASES)))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, case, seed):
        D, n, connected = CM_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = sample_configuration_model(D, n, derive_rng(seed, "cm-ref", case),
                                             require_connected=connected)
            want, _ = reference_configuration_model(D, n, derive_rng(seed, "cm-ref", case),
                                                    require_connected=connected)
        assert got == want

    def test_cases_meet_every_event(self):
        # the cases above do redraw odd sums and disconnected graphs, and
        # return graphs built from loops and multi-edges
        seen = set()
        for case, (D, n, connected) in enumerate(CM_CASES):
            for seed in range(4):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    seen |= reference_configuration_model(
                        D, n, derive_rng(seed, "cm-ref", case), require_connected=connected)[1]
        assert seen == {"odd", "disconnected", "loop", "multi"}

    @pytest.mark.parametrize("D", [D3, D34], ids=["delta3", "uniform34"])
    def test_20k_graph(self, D):
        rng = derive_rng(9, "cm-ref-20k", 0)
        got = sample_configuration_model(D, 20_000, rng, require_connected=True)
        rng = derive_rng(9, "cm-ref-20k", 0)
        assert got == reference_configuration_model(D, 20_000, rng, require_connected=True)[0]


class TestTransitiveFamilies:
    def test_cycle4(self):
        g = make_transitive("cycle", 4)
        assert g.n == 4 and g.edge_total == 4 and (g.degrees == 2).all()

    def test_torus35(self):
        g = make_transitive("torus", 3, 5)
        assert g.n == 125 and (g.degrees == 6).all() and g.edge_total == 375

    def test_complete4(self):
        assert make_transitive("complete", 4).edge_total == 6

    def test_hypercube3(self):
        g = make_transitive("hypercube", 3)
        assert g.n == 8 and g.edge_total == 12 and (g.degrees == 3).all()

    @pytest.mark.parametrize("d", range(1, 11))
    def test_hypercube_equals_loop(self, d):
        # the vectorized builder against the loop it replaced
        n = 1 << d
        edges = [(v, v ^ (1 << j)) for v in range(n) for j in range(d) if v < v ^ (1 << j)]
        assert hypercube_graph(d) == Graph.from_edges(n, edges, family=("hypercube", d))

    def test_bad_parameters(self):
        for family, params in [("cycle", (2,)), ("torus", (0, 5)), ("complete", (1,)),
                               ("nonsense", (3,))]:
            with pytest.raises(ParameterOutOfRange):
                make_transitive(family, *params)

    @pytest.mark.parametrize(
        "g,perm",
        [
            (cycle_graph(6), lambda v: (v + 1) % 6),
            (torus_graph(2, 4), lambda v: (v + 4) % 16),  # shift first coordinate
            (hypercube_graph(3), lambda v: v ^ 1),
            (complete_graph(5), lambda v: (v + 1) % 5),
        ],
    )
    def test_shift_invariance(self, g, perm):
        r = dense(g.csr, g.n)
        p = np.array([perm(v) for v in range(g.n)])
        assert np.array_equal(r[np.ix_(p, p)], r)
        assert (g.degrees == g.degrees[0]).all()


# a child process capped at 1 GiB of address space builds one family graph
# and prints the ParameterOutOfRange it raises
CAPPED_BUILD = """
import resource, sys
from coalesce import graphs
from coalesce.errors import ParameterOutOfRange
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
try:
    getattr(graphs, sys.argv[1] + "_graph")(*map(int, sys.argv[2:]))
except ParameterOutOfRange as e:
    print(e)
"""


class TestFamilySize:
    """The family builders refuse graphs whose int32 CSR arrays would
    overflow before they build anything.  Each case runs in a capped child,
    so a builder that starts allocating fails fast there instead."""

    @pytest.mark.parametrize("family, params", [("torus", (40, 40)), ("hypercube", (40,)),
                                                ("complete", (100_000,)),
                                                ("cycle", (3_000_000_000,)),
                                                ("path", (3_000_000_000,))])
    def test_oversized_refused(self, family, params):
        src = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", CAPPED_BUILD, family, *map(str, params)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout == (f"{family}({', '.join(map(str, params))}) has more than "
                               "2147483647 vertices or CSR entries\n")

    def test_largest_entries_accepted(self, monkeypatch):
        # the bound is on the entries of the graph asked for: torus(2, 4)
        # has 64, so a limit of 64 still builds it and 63 refuses it
        monkeypatch.setattr(graphs, "_MAX_ENTRIES", 64)
        assert torus_graph(2, 4).csr[1].size == 64
        monkeypatch.setattr(graphs, "_MAX_ENTRIES", 63)
        with pytest.raises(ParameterOutOfRange, match=r"^torus\(2, 4\)"):
            torus_graph(2, 4)


class TestConnectivity:
    def test_cycle_connected(self):
        assert is_connected(cycle_graph(5))

    def test_two_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_connected(g)

    def test_single_vertex(self):
        assert is_connected(Graph.from_edges(1, []))


def reference_adjacency(g):
    """Per vertex, the sorted (neighbour, multiplicity) pairs, by a loop
    over g.edge_list()."""
    adj = [[] for _ in range(g.n)]
    for u, v, m in g.edge_list():
        adj[u].append((v, m))
        adj[v].append((u, m))
    return [sorted(a) for a in adj]


def reference_degrees(g):
    """Graph.degrees as a loop over the edge list."""
    return np.array([sum(m for _, m in nbrs) for nbrs in reference_adjacency(g)],
                    dtype=np.int64)


def reference_is_connected(g):
    """is_connected as a depth-first loop over the edge list."""
    adj = reference_adjacency(g)
    seen = {0}
    stack = [0]
    while stack:
        for v, _ in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


class TestArrayDegreesAndConnectivity:
    """Degrees and connectivity read the CSR arrays; they must equal the
    loops over the edge list."""

    CASES = {
        "two_components": Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5, 2)]),
        "edgeless": Graph.from_edges(4, []),
        "isolated_last": Graph.from_edges(4, [(0, 1), (1, 2)]),
        "single_vertex": Graph.from_edges(1, []),
        "lollipop": Graph.from_edges(
            7, [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(3, 4), (4, 5), (5, 6)]),
        "multi_edge": Graph.from_edges(3, [(0, 1), (0, 1), (1, 2, 3)]),
        "wide_multiplicity": Graph.from_edges(3, [(0, 1, 3 << 31), (1, 2)]),
        # long chains of labels to jump along
        "long_path": path_graph(500),
        "two_long_cycles": Graph.from_edges(
            600, [(v, (v + 1) % 300) for v in range(300)]
            + [(300 + v, 300 + (v + 1) % 300) for v in range(300)]),
        "joined_cycles": Graph.from_edges(
            600, [(v, (v + 1) % 300) for v in range(300)]
            + [(300 + v, 300 + (v + 1) % 300) for v in range(300)] + [(599, 0)]),
    }

    @staticmethod
    def check(g):
        deg = g.degrees
        assert deg.dtype == np.int64
        np.testing.assert_array_equal(deg, reference_degrees(g))
        assert is_connected(g) is reference_is_connected(g)
        # the same graph rebuilt from int64 copies of its arrays gets the
        # stored types back, and compares and hashes equal
        plain = Graph(n=g.n, csr=tuple(a.astype(np.int64) for a in g.csr))
        for a, b, dtype in zip(plain.csr, g.csr, [np.int32, np.int32, np.int64]):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype == dtype
        assert plain == g and hash(plain) == hash(g)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_small_cases(self, name):
        self.check(self.CASES[name])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_configuration_models(self, seed):
        rng = derive_rng(seed, "csr-cm", 0)
        D = [D3, D34, DegreeDistribution.uniform([1, 2, 3])][seed % 3]
        n = int(rng.integers(2, 300))
        g = sample_configuration_model(D, n if seed % 3 or n % 2 == 0 else n + 1, rng)
        self.check(g)

    def test_disconnected_configuration_models_seen(self):
        # the degree-1 and -2 law leaves many sampled graphs in pieces
        D = DegreeDistribution.uniform([1, 2])
        connected = []
        for seed in range(10):
            g = sample_configuration_model(D, 40, derive_rng(seed, "csr-cm", 1))
            self.check(g)
            connected.append(is_connected(g))
        assert not all(connected)

    def test_equality_reads_every_field(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert g == Graph.from_edges(4, [(2, 3), (1, 0)])
        # the same n, entry count and family: equal hashes, unequal graphs
        other = Graph.from_edges(4, [(0, 2), (1, 3)])
        assert hash(other) == hash(g) and other != g
        assert g != Graph.from_edges(4, [(0, 1, 2), (2, 3)])
        assert g != Graph.from_edges(4, [(0, 1), (2, 3)], family=("test", 4))
        assert g != Graph.from_edges(5, [(0, 1), (2, 3)])
        assert g.__eq__(g.csr) is NotImplemented

    def test_arrays_are_read_only(self):
        g = cycle_graph(5)
        for a in g.csr:
            with pytest.raises(ValueError):
                a[0] = 1


def reference_flat_graph(g, convention):
    """FlatGraph's fields as the loop over the edge list."""
    adj = reference_adjacency(g)
    off = [0]
    nbr = []
    for u in range(g.n):
        for v, m in adj[u]:
            nbr.extend([v] * m)
        off.append(len(nbr))
    deg = [off[i + 1] - off[i] for i in range(g.n)]
    if convention == "per_edge_unit":
        rate = [float(d) for d in deg]
    elif len(set(deg)) != 1:
        raise TotalUnitOnIrregular("total-unit walk needs a regular graph")
    else:
        rate = [1.0] * g.n
    regular = len(set(rate)) == 1
    return {"n": g.n, "off": off, "nbr": nbr, "deg": deg, "rate": rate,
            "r_max": max(rate), "r_min": min(rate), "regular": regular}


class TestFlatGraphFromCsr:
    """FlatGraph reads Graph.csr; every field must equal the edge loop's,
    as plain lists of Python ints and floats."""

    CASES = {
        "multi_edge": TestArrayDegreesAndConnectivity.CASES["multi_edge"],
        "lollipop": TestArrayDegreesAndConnectivity.CASES["lollipop"],
        "edgeless": Graph.from_edges(4, []),
        "single_vertex": Graph.from_edges(1, []),
        "cycle5": cycle_graph(5),
        "torus33": torus_graph(3, 3),
    }

    @staticmethod
    def check(g):
        for convention in ("per_edge_unit", "total_unit"):
            try:
                ref = reference_flat_graph(g, convention)
            except TotalUnitOnIrregular:
                with pytest.raises(TotalUnitOnIrregular):
                    FlatGraph(g, convention)
                continue
            flat = FlatGraph(g, convention)
            for name, value in ref.items():
                got = getattr(flat, name)
                assert got == value and type(got) is type(value), name
                if isinstance(value, list):
                    assert all(type(a) is type(b) for a, b in zip(got, value)), name

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_small_cases(self, name):
        self.check(self.CASES[name])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_configuration_models(self, seed):
        rng = derive_rng(seed, "flat-cm", 0)
        D = [D3, D34, DegreeDistribution.uniform([1, 2, 3])][seed % 3]
        n = int(rng.integers(2, 300))
        self.check(sample_configuration_model(D, n + n % 2, rng))

    def test_regular_configuration_model_both_conventions(self):
        # a δ(3) draw with no self-loop keeps every degree 3, so the
        # total-unit convention builds instead of raising
        for seed in range(20):
            g = sample_configuration_model(D3, 40, derive_rng(seed, "flat-cm", 1))
            if g.is_regular():
                break
        assert g.is_regular()
        self.check(g)


class TestVertexExpansion:
    def test_complete4(self):
        assert vertex_expansion_exact(complete_graph(4)) == pytest.approx(1.0)

    def test_cycle6(self):
        assert vertex_expansion_exact(cycle_graph(6)) == pytest.approx(2 / 3)

    def test_k2(self):
        assert vertex_expansion_exact(complete_graph(2)) == pytest.approx(1.0)

    def test_too_large(self):
        with pytest.raises(TooLargeForExact):
            vertex_expansion_exact(cycle_graph(21))

    @pytest.mark.parametrize("g", [
        cycle_graph(4), cycle_graph(7), complete_graph(5), hypercube_graph(3),
        hypercube_graph(4), torus_graph(2, 3), path_graph(9),
        Graph.from_edges(7, [(a, b) for a in range(4) for b in range(a + 1, 4)]
                         + [(3, 4), (4, 5), (5, 6)]),
        Graph.from_edges(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ], ids=["cycle4", "cycle7", "complete5", "hypercube3", "hypercube4", "torus23",
            "path9", "lollipop", "multi_edge"])
    def test_matches_enumeration_of_subsets(self, g):
        assert vertex_expansion_exact(g) == brute_force_expansion(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_enumeration_on_random_graphs(self, seed):
        rng = derive_rng(seed, "expansion", 0)
        n = int(rng.integers(4, 12))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35]
        g = Graph.from_edges(n, pairs)
        assert vertex_expansion_exact(g) == brute_force_expansion(g)


def brute_force_expansion(g):
    """min |boundary(S)| / |S| over every S with 1 <= |S| <= n / 2, by sets."""
    nbrs = [{v for v, _ in a} for a in reference_adjacency(g)]
    best = float("inf")
    for size in range(1, g.n // 2 + 1):
        for s in combinations(range(g.n), size):
            boundary = set().union(*(nbrs[u] for u in s)) - set(s)
            best = min(best, len(boundary) / size)
    return best


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        g = sample_configuration_model(D34, 40, derive_rng(5, "file", 0))
        path = tmp_path / "g.crwgraph"
        write_graph(g, path)
        back = read_graph(path)
        assert back.n == g.n and back.edge_list() == g.edge_list()
        lines = path.read_text().splitlines()
        assert lines[0] == f"crwgraph v1 {g.n} {len(g.edge_list())}"

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        with pytest.raises(ParameterOutOfRange):
            read_graph(path)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("crwgraph v1 3 2\n0 1 1\n", 3),  # truncated
            ("crwgraph v1 3 2\n0 1 1\n1 2\n", 3),  # short edge line
            ("crwgraph v1 three 2\n0 1 1\n1 2 1\n", 1),  # non-integer header
            ("crwgraph v1 3 -1\n", 1),  # negative edge count
            ("crwgraph v1 3 1\n0 1 1\n1 2 1\n", 3),  # more edges than the header
            ("crwgraph v1 3 1\n0 5 1\n", 2),  # endpoint past n - 1
            ("crwgraph v1 3 2\n0 1 1\n-1 2 1\n", 3),  # negative endpoint
            ("crwgraph v1 3 2\n0 1 1\n2 2 1\n", 3),  # self-loop
            ("crwgraph v1 3 1\n0 1 0\n", 2),  # zero multiplicity
        ],
    )
    def test_malformed_names_path_and_line(self, tmp_path, text, lineno):
        path = tmp_path / "bad.crwgraph"
        path.write_text(text)
        with pytest.raises(ParameterOutOfRange, match=f"bad.crwgraph:{lineno}:"):
            read_graph(path)
