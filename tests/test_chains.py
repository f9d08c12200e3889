import math
import os
import pickle
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import IRREGULAR_RATES, dense
from scipy.stats import poisson

from coalesce import chains
from coalesce.chains import (
    MarkovChain,
    build_generator,
    poisson_weights,
    product_chain,
    spectrum,
    transition_matrix,
    translation_group,
    uniformize,
)
from coalesce.errors import (
    NotConnected,
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
    path_graph,
    sample_configuration_model,
    torus_graph,
)
from coalesce.meeting import pairwise_meeting_times
from coalesce.seeding import derive_rng


def reference_rate_graph_connected(r):
    """Irreducibility as a depth-first search over the dense rows."""
    n = r.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        for v in np.nonzero(r[stack.pop()])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def random_symmetric_rates(seed):
    """Sparse random symmetric rates on 1 to 39 states: some connected,
    some in pieces."""
    rng = derive_rng(seed, "chain-connected", 0)
    n = int(rng.integers(1, 40))
    edge = np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.2), 1)
    rates = np.where(edge, rng.uniform(0.5, 2.0, (n, n)), 0.0)
    return rates + rates.T


class TestBuildGenerator:
    def test_two_path(self, k2_chain):
        assert np.array_equal(k2_chain.generator().toarray(), [[-1.0, 1.0], [1.0, -1.0]])

    def test_cycle4_diagonal(self, cycle4_chain):
        assert np.array_equal(cycle4_chain.generator().diagonal(), [-2.0] * 4)

    def test_total_unit_complete4(self):
        c = build_generator(complete_graph(4), "total_unit")
        off = dense(c.csr, c.n)[0, 1]
        assert off == pytest.approx(1 / 3)
        assert np.allclose(c.row_rates, 1.0, atol=1e-12)

    def test_total_unit_irregular(self):
        with pytest.raises(TotalUnitOnIrregular):
            build_generator(path_graph(3), "total_unit")

    def test_not_connected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnected):
            build_generator(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_irreducibility_matches_depth_first_search(self, seed):
        rates = random_symmetric_rates(seed)
        if reference_rate_graph_connected(rates):
            assert MarkovChain.from_rates(rates).n == len(rates)
        else:
            with pytest.raises(NotConnected):
                MarkovChain.from_rates(rates)

    def test_irreducibility_cases_seen(self):
        connected = [reference_rate_graph_connected(random_symmetric_rates(seed))
                     for seed in range(12)]
        assert any(connected) and not all(connected)

    def test_asymmetric_rates_rejected(self):
        rates = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ParameterOutOfRange):
            MarkovChain.from_rates(rates)

    @pytest.mark.parametrize("rates", [[0.0], [[[0.0]]], 3.0, np.zeros((2, 3))],
                             ids=["1d", "3d", "scalar", "2x3"])
    def test_non_square_rates_rejected(self, rates):
        with pytest.raises(ParameterOutOfRange):
            MarkovChain.from_rates(rates)


class TestTransitionMatrix:
    def test_two_path_value(self, k2_chain):
        p = transition_matrix(k2_chain, 0.5)
        assert p[0, 0] == pytest.approx((1 + np.exp(-1)) / 2, abs=1e-10)

    def test_identity_at_zero(self, cycle4_chain):
        assert np.array_equal(transition_matrix(cycle4_chain, 0.0), np.eye(4))

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0, True])
    def test_bad_time_rejected(self, cycle4_chain, t):
        with pytest.raises(ParameterOutOfRange, match="^t must"):
            transition_matrix(cycle4_chain, t)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, 2.0, 1.0, True, "1e-9"])
    def test_bad_tol_rejected(self, cycle4_chain, tol):
        with pytest.raises(ParameterOutOfRange, match="^tol must"):
            transition_matrix(cycle4_chain, 0.5, tol)
        with pytest.raises(ParameterOutOfRange, match="^tol must"):
            poisson_weights(0.0, tol)
        # t = 0 and a chain with no jumps return before any uniformization
        with pytest.raises(ParameterOutOfRange, match="^tol must"):
            transition_matrix(cycle4_chain, 0.0, tol)
        one_state = MarkovChain.from_rates(np.zeros((1, 1)))
        with pytest.raises(ParameterOutOfRange, match="^tol must"):
            transition_matrix(one_state, 1.0, tol)

    def test_stochastic_symmetric_nonneg(self, torus33_chain):
        p = transition_matrix(torus33_chain, 0.7, tol=1e-12)
        assert np.all(p >= 0.0)
        assert np.allclose(p, p.T, atol=1e-13)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 10e-12

    def test_diagonal_dominates_pairs(self):
        # p_t(x,y) <= (p_t(x,x) + p_t(y,y)) / 2 for symmetric rates
        rng = derive_rng(4, "maxxyp", 0)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            rates = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.7), 1)
            rates = rates + rates.T
            rates[np.abs(rates) < 1e-12] = 0.0
            if not _connected(rates):
                continue
            c = MarkovChain.from_rates(rates)
            p = transition_matrix(c, float(rng.random() * 2))
            d = np.diag(p)
            assert np.all(p <= (d[:, None] + d[None, :]) / 2 + 1e-12)

    def test_matches_eigendecomposition_irregular(self):
        # unequal degrees, so the kernel keeps a nonzero diagonal
        dist = DegreeDistribution.from_pairs([(3, 0.5), (4, 0.3), (5, 0.2)])
        g = sample_configuration_model(dist, 200, derive_rng(8, "tm-cm", 0),
                                       require_connected=True)
        c = build_generator(g)
        lam, vecs = np.linalg.eigh(c.generator().toarray())
        for t in (0.05, 0.7, 3.0):
            p = transition_matrix(c, t)
            exact = (vecs * np.exp(lam * t)) @ vecs.T
            assert np.abs(p - exact).max() <= 1e-12
            assert np.abs(p - p.T).max() <= 1e-15

    def test_semigroup(self, cycle4_chain):
        tol = 1e-12
        gap = np.abs(
            transition_matrix(cycle4_chain, 1.1, tol)
            - transition_matrix(cycle4_chain, 0.4, tol)
            @ transition_matrix(cycle4_chain, 0.7, tol)
        ).max()
        assert gap <= 100 * tol

    def test_too_large(self):
        with pytest.raises(TooLargeForExact):
            transition_matrix(build_generator(cycle_graph(5000)), 1.0)


def reference_transition_matrix(c, t, tol=1e-12):
    """transition_matrix as one uniformization of the whole identity."""
    lam = c.r_max
    kernel = sp.csr_matrix(dense(c.csr, c.n) / lam)
    kernel.setdiag(1.0 - c.row_rates / lam)
    return uniformize(kernel.dot, np.eye(c.n), lam, [t], tol)[0][0]


def cm_chain(n, seed):
    """Per-edge-unit chain on an irregular configuration model."""
    dist = DegreeDistribution.from_pairs([(3, 0.5), (4, 0.3), (5, 0.2)])
    g = sample_configuration_model(dist, n, derive_rng(seed, "tm-panel", n),
                                   require_connected=True)
    return build_generator(g)


class TestTransitionPanels:
    """Column panels on a thread pool give the bits of the whole-identity
    run, whatever the panel count and the number of threads."""

    @staticmethod
    def width(n):
        return max(1, chains._PANEL_BYTES // (8 * n))

    # below one panel, exactly one panel, whole panels, panels plus a remainder
    @pytest.mark.parametrize("n", [40, 256, 512, 1000])
    @pytest.mark.parametrize("t, tol", [(2.0, 1e-12), (0.35, 1e-9)])
    def test_matches_whole_identity(self, n, t, tol):
        c = cm_chain(n, 1)
        panels = -(-n // self.width(n))
        assert panels == {40: 1, 256: 1, 512: 4, 1000: 16}[n]
        assert np.array_equal(transition_matrix(c, t, tol),
                              reference_transition_matrix(c, t, tol))

    def test_total_unit_torus(self):
        c = build_generator(torus_graph(3, 7), "total_unit")
        assert np.array_equal(transition_matrix(c, 1.3),
                              reference_transition_matrix(c, 1.3))

    def test_same_bits_at_any_thread_count(self, monkeypatch):
        c = cm_chain(600, 2)
        pools = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(chains, "ThreadPoolExecutor", Spy)
        out = {}
        switch = sys.getswitchinterval()
        # more threads than cores, switching often: the panels write
        # disjoint columns of one array and only read the kernel
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 5):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, k=cpus: set(range(k)))
                out[cpus] = transition_matrix(c, 1.7)
        finally:
            sys.setswitchinterval(switch)
        assert pools == [1, 2, 5]
        assert np.array_equal(out[1], out[2]) and np.array_equal(out[1], out[5])
        assert np.array_equal(out[1], reference_transition_matrix(c, 1.7))

    def test_one_panel_starts_no_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a single panel needs no pool")

        monkeypatch.setattr(chains, "ThreadPoolExecutor", refuse)
        c = cm_chain(200, 3)
        assert np.array_equal(transition_matrix(c, 0.8), reference_transition_matrix(c, 0.8))

    def test_no_thread_left_alive(self):
        before = set(threading.enumerate())
        transition_matrix(cm_chain(700, 4), 1.0)
        assert set(threading.enumerate()) == before


class TestPoissonWeights:
    """The weights are the bits scipy.stats.poisson gives, length included,
    so every uniformization oracle keeps its values."""

    @staticmethod
    def assert_same(lam_t, tol):
        w = poisson_weights(lam_t, tol)
        if lam_t <= 0.0:
            ref = np.array([1.0])
        else:
            kmax = int(poisson.ppf(1.0 - tol, lam_t)) + 2
            ref = poisson.pmf(np.arange(kmax + 1), lam_t)
        assert w.shape == ref.shape and np.array_equal(w, ref), (lam_t, tol)

    @pytest.mark.parametrize("lam_t", [-1.0, 0.0, 1e-300, 1e-9, 1e-3, 0.1, 0.5, 1.0,
                                       3.7, 15.0, 60.0, 300.0, 1e4, 3e4])
    def test_bit_identical(self, lam_t):
        for tol in [1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16]:
            self.assert_same(lam_t, tol)

    def test_bit_identical_log_uniform_sweep(self):
        rng = derive_rng(9, "poisson-weights", 0)
        for lam_t, tol in zip(10 ** rng.uniform(-6, 4.5, 400), 10 ** rng.uniform(-16, -6, 400)):
            self.assert_same(float(lam_t), float(tol))


def _connected(rates):
    n = rates.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in np.nonzero(rates[u])[0]:
            if v not in seen:
                seen.add(int(v))
                stack.append(int(v))
    return len(seen) == n


TAGGED = [cycle_graph(7), torus_graph(2, 4), torus_graph(3, 3), complete_graph(6),
          hypercube_graph(3)]
TAGGED_IDS = ["cycle7", "torus24", "torus33", "complete6", "hypercube3"]


class TestSpectrum:
    def test_cycle4(self, cycle4_chain):
        s = spectrum(cycle4_chain)
        assert np.allclose(s.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-10)
        assert s.t_rel == pytest.approx(0.5, abs=1e-10)

    def test_complete_n(self):
        for n in (4, 7):
            s = spectrum(build_generator(complete_graph(n)))
            assert np.allclose(s.eigenvalues[1:], float(n), atol=1e-9)
            assert s.t_rel == pytest.approx(1 / n, abs=1e-10)

    def test_k2_floor(self, k2_chain):
        s = spectrum(k2_chain)
        assert s.t_rel == pytest.approx(0.5, abs=1e-12)
        assert s.t_rel >= 1.0 / (2.0 * k2_chain.r_max) - 1e-12

    @pytest.mark.parametrize(
        "graph", [cycle_graph(6), torus_graph(2, 4), hypercube_graph(3)]
    )
    def test_closed_form_matches_dense(self, graph):
        c = build_generator(graph)
        closed = spectrum(c).eigenvalues
        full = np.sort(np.linalg.eigvalsh(-c.generator().toarray()))
        assert np.allclose(closed, full, atol=1e-9)

    def test_total_unit_scaling(self):
        per_edge = spectrum(build_generator(cycle_graph(8)))
        total = spectrum(build_generator(cycle_graph(8), "total_unit"))
        assert np.allclose(per_edge.eigenvalues / 2.0, total.eigenvalues, atol=1e-12)

    @staticmethod
    def dense_eigenvalues(c):
        return np.sort(np.linalg.eigvalsh(-c.generator().toarray()))

    @pytest.mark.parametrize("rates", ["weighted", "doubled", "chord"])
    def test_tag_that_does_not_match_rates(self, rates):
        # a cycle tag on other rates: the closed form does not apply
        r = dense(build_generator(cycle_graph(6)).csr, 6)
        if rates == "weighted":
            r[2, 3] = r[3, 2] = 0.5
        elif rates == "doubled":
            r *= 2.0
        else:
            r[2, 5] = r[5, 2] = 1.0
        c = MarkovChain(6, MarkovChain.from_rates(r).csr, family=("cycle", 6))
        got = spectrum(c).eigenvalues
        assert np.all(np.abs(got - self.dense_eigenvalues(c)) <= 1e-10)
        if rates == "weighted":
            assert np.allclose(got, [0, 0.753, 1, 2.445, 3, 3.802], atol=1e-3)

    @pytest.mark.parametrize("convention", ["per_edge_unit", "total_unit"])
    @pytest.mark.parametrize("g", TAGGED, ids=TAGGED_IDS)
    def test_closed_form_on_tagged_built_ins(self, g, convention):
        c = build_generator(g, convention)
        closed = chains._closed_form_eigenvalues(g.family, convention)
        assert np.array_equal(spectrum(c).eigenvalues, chains.Spectrum(closed).eigenvalues)
        # the same rates as a custom chain take the dense path
        custom = MarkovChain(c.n, c.csr, "custom", family=g.family)
        assert np.array_equal(spectrum(custom).eigenvalues, chains.Spectrum(
            np.linalg.eigvalsh(-custom.generator().toarray())).eigenvalues)
        assert np.all(np.abs(spectrum(custom).eigenvalues - closed) <= 1e-10)

    def test_family_rates_checked_once_per_chain(self, monkeypatch):
        # each chain builds its family's generator once, however often
        # spectrum is called, and the spectra equal a fresh chain's
        fresh = [build_generator(g, "total_unit") for g in TAGGED]
        cases = [build_generator(g, "total_unit") for g in TAGGED]
        built = []
        original = chains.build_generator

        def spy(g, convention="per_edge_unit"):
            built.append(g.family)
            return original(g, convention)

        monkeypatch.setattr(chains, "build_generator", spy)
        for _ in range(3):
            for c in cases:
                assert np.array_equal(spectrum(c).eigenvalues, chains.Spectrum(
                    chains._closed_form_eigenvalues(c.family, c.convention)).eigenvalues)
        assert built == [g.family for g in TAGGED]
        for c, ref in zip(cases, fresh):
            assert np.array_equal(spectrum(c).eigenvalues, spectrum(ref).eigenvalues)

    def test_spectrum_edge_bound(self, torus33_chain):
        s = spectrum(torus33_chain)
        assert s.eigenvalues[-1] <= 2.0 * torus33_chain.r_max + 1e-9


class TestReturnIntegrals:
    """``_return_integral``: each state's integral of its return probability,
    which ``verify exact``'s ``meeting_integral`` row reads."""

    def test_transitive_flat_profile(self, cycle4_chain):
        integ = chains._return_integral(cycle4_chain)(1.0)
        assert integ.max() == pytest.approx(integ.min(), abs=1e-9)

    def test_two_path_value(self, k2_chain):
        integ = chains._return_integral(k2_chain)(1.0)
        assert integ.max() == pytest.approx(0.5 + (1 - np.exp(-2)) / 4, abs=1e-8)

    def test_short_time_slope(self, k2_chain):
        t = 1e-4
        big = chains._return_integral(k2_chain)(t).max()
        assert big / t == pytest.approx(1.0, abs=1e-3)
        assert big <= t

    def test_monotone_in_t(self, torus33_chain):
        integral_to = chains._return_integral(torus33_chain)
        integ = [integral_to(t) for t in (0.5, 1.0, 2.0)]
        values = [i.max() for i in integ]
        assert values == sorted(values)
        assert all(i.min() <= v for i, v in zip(integ, values))


class TestPoincare:
    @pytest.mark.parametrize("s,t", [(0.3, 0.4), (0.5, 1.0)])
    def test_contraction(self, torus33_chain, s, t):
        t_rel = spectrum(torus33_chain).t_rel
        ps = transition_matrix(torus33_chain, s)
        pst = transition_matrix(torus33_chain, s + t)
        n = torus33_chain.n
        lhs = pst.max() - 1.0 / n
        rhs = np.exp(-t / t_rel) * (np.diag(ps).max() - 1.0 / n)
        assert lhs <= rhs + 1e-12


class TestProductChain:
    def test_shape_and_gap(self, cycle4_chain):
        pc = product_chain(cycle4_chain)
        assert pc.n == 16
        assert spectrum(pc).t_rel == pytest.approx(
            spectrum(cycle4_chain).t_rel, abs=1e-9
        )

    def test_kronecker_sum_of_rates(self, cycle4_chain):
        pc = product_chain(cycle4_chain)
        r = dense(cycle4_chain.csr, 4)
        eye = np.eye(4)
        assert np.array_equal(dense(pc.csr, 16), np.kron(r, eye) + np.kron(eye, r))
        assert np.array_equal(pc.row_rates, np.full(16, 4.0))


def cm20k():
    """The 20 000-vertex delta(3) configuration model of the paper suite."""
    return sample_configuration_model(DegreeDistribution.delta(3), 20_000,
                                      derive_rng(0, "csr-cm", 0), require_connected=True)


class TestCsrRates:
    """Rates are read-only CSR arrays; nothing n x n is built for them."""

    @pytest.mark.parametrize("g", [torus_graph(3, 10), torus_graph(3, 5), torus_graph(3, 3),
                                   torus_graph(2, 6), cycle_graph(9), complete_graph(8),
                                   hypercube_graph(5)],
                             ids=["torus3_10", "torus3_5", "torus3_3", "torus2_6", "cycle9",
                                  "complete8", "hypercube5"])
    def test_total_unit_rows_share_one_rate(self, g):
        # dense pairwise row sums gave 794 of the 1000 rows of the
        # total-unit torus(3, 10) the rate 1 - 1.1e-16 and the rest 1
        c = build_generator(g, "total_unit")
        assert c.r_min == c.r_max
        assert c.r_max == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("L", [3, 5, 10])
    def test_total_unit_torus3_rate_is_one(self, L):
        # six fl(1/6) summed in stored order made 1 - 2^-53 on every row
        c = build_generator(torus_graph(3, L), "total_unit")
        assert c.r_min == c.r_max == 1.0

    @pytest.mark.parametrize("case", ["irregular", "random"])
    def test_row_rates_correctly_rounded(self, case):
        rates = IRREGULAR_RATES
        if case == "random":
            # rates over six decades, so that sums in any order round
            rng = derive_rng(17, "row-rates", 0)
            rates = np.triu(rng.random((12, 12)) * 10.0 ** rng.uniform(-3, 3, (12, 12)), 1)
            rates = rates + rates.T
        c = MarkovChain.from_rates(rates)
        assert c.row_rates.tolist() == [math.fsum(row) for row in rates]

    @pytest.mark.parametrize("build", [lambda: torus_graph(3, 16), cm20k],
                             ids=["torus3_16", "cm20k"])
    def test_read_only_entries_of_the_graph(self, build):
        g = build()
        c = build_generator(g)
        off, cols, data = c.csr
        assert np.array_equal(off, g.csr[0]) and np.array_equal(cols, g.csr[1])
        assert np.array_equal(data, g.csr[2])
        # one entry per neighbour and end, multiplicities as rates
        assert data.sum() == 2 * g.edge_total
        if g.family is not None:
            assert cols.size == 2 * g.edge_total
        for a in (off, cols, data, c.row_rates):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_torus_chain_keeps_under_one_megabyte(self):
        # a dense rate matrix on torus(3, 16) took 134 MB
        g = torus_graph(3, 16)
        tracemalloc.start()
        try:
            c = build_generator(g)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert c.n == 4096 and kept < 1 << 20

    def test_pair_cap_before_any_n_squared(self):
        c = build_generator(cm20k())
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeForExact):
                pairwise_meeting_times(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_states_past_int32_keys(self):
        # n * n passes 2**31 - 1 here, so packed (row, column) keys must
        # not be computed in the stored int32
        c = build_generator(cycle_graph(50_000))
        assert c.n * c.n > 2**31 and c.r_min == c.r_max == 2.0
        off, cols, data = (np.array(a) for a in c.csr)
        data[0] = 3.0
        with pytest.raises(ParameterOutOfRange, match="symmetric"):
            MarkovChain(c.n, (off, cols, data))

    def test_one_state_chain_rates_are_float(self):
        # bincount of no entries is int64, and the generator then warned
        # that scipy would keep the integer type
        c = MarkovChain.from_rates(np.zeros((1, 1)))
        assert c.row_rates.dtype == np.float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = c.generator()
        assert q.dtype == np.float64 and q.toarray().tolist() == [[0.0]]

    def test_from_rates_copies_dense_input(self):
        r = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]])
        c = MarkovChain.from_rates(r)
        r[0, 1] = 7.0
        assert np.array_equal(dense(c.csr, 3)[0], [0.0, 1.0, 2.0])
        assert not np.shares_memory(c.csr[2], r)

    @pytest.mark.parametrize("csr,match", [
        (([0, 1, 2], [1, 0], [1.0, 1.0, 1.0]), "do not describe"),
        (([0, 1, 2, 3], [1, 0], [1.0, 1.0]), "do not describe"),
        (([0, 2, 1], [1, 0], [1.0, 1.0]), "do not describe"),
        (([0, 1, 2], [1, 2], [1.0, 1.0]), "in range"),
        (([0, 1, 2], [1, -1], [1.0, 1.0]), "in range"),
        (([0, 2, 3], [1, 1, 0], [1.0] * 3), "unique"),
        (([0, 2, 3], [0, 1, 0], [1.0] * 3), "off the diagonal"),
        (([0, 1, 2], [1, 0], [1.0, -1.0]), "positive"),
        (([0, 1, 2], [1, 0], [0.0, 0.0]), "positive"),
        (([0, 1, 2], [1, 0], [1.0, float("nan")]), "positive"),
        (([0, 1, 2], [1, 0], [1.0, 2.0]), "symmetric"),
        (([0, 1, 1], [1], [1.0]), "symmetric"),
    ])
    def test_bad_arrays_rejected(self, csr, match):
        with pytest.raises(ParameterOutOfRange, match=match):
            MarkovChain(2, csr)

    def test_unsorted_row_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="sorted"):
            MarkovChain(3, ([0, 2, 3, 4], [2, 1, 0, 0], [1.0] * 4))


class TestTranslationGroup:
    @pytest.mark.parametrize("convention", ["per_edge_unit", "total_unit"])
    @pytest.mark.parametrize("g", TAGGED, ids=TAGGED_IDS)
    def test_group_translates_rates(self, g, convention):
        c = build_generator(g, convention)
        add, neg = translation_group(c)
        ids = np.arange(c.n)
        assert np.array_equal(add(ids, neg(ids)), np.zeros(c.n))
        assert np.array_equal(add(ids, 0), ids)
        for shift in ids:
            assert np.array_equal(add(ids, shift), add(shift, ids))
            moved = add(ids, shift)
            assert np.array_equal(np.sort(moved), ids)
            rates = dense(c.csr, c.n)
            assert np.array_equal(rates[np.ix_(moved, moved)], rates)

    def test_chain_with_its_group_found_pickles(self):
        # the group is kept with the chain but not pickled with it
        c = build_generator(torus_graph(2, 4))
        add, _ = translation_group(c)
        back = pickle.loads(pickle.dumps(c))
        ids = np.arange(c.n)
        assert np.array_equal(translation_group(back)[0](ids, 5), add(ids, 5))
        assert all(np.array_equal(a, b) for a, b in zip(back.csr, c.csr))

    def test_torus_adds_coordinates(self):
        # lexicographic labels on Z_4 x Z_4: (1, 2) + (3, 3) = (0, 1), -(1, 3) = (3, 1)
        add, neg = translation_group(build_generator(torus_graph(2, 4)))
        assert add(1 * 4 + 2, 3 * 4 + 3) == 0 * 4 + 1
        assert neg(1 * 4 + 3) == 3 * 4 + 1

    def test_untagged_chain_has_none(self, cycle4_chain):
        assert translation_group(MarkovChain.from_rates(dense(cycle4_chain.csr, 4))) is None
        assert translation_group(build_generator(path_graph(5))) is None

    def test_tag_that_does_not_match_rates(self, cycle4_chain):
        def tagged(rates, family):
            return MarkovChain(len(rates), MarkovChain.from_rates(rates).csr, family=family)

        path = dense(build_generator(path_graph(6)).csr, 6)
        assert translation_group(tagged(path, ("cycle", 6))) is None
        weighted = dense(cycle4_chain.csr, 4)
        weighted[0, 1] = weighted[1, 0] = 2.0
        assert translation_group(tagged(weighted, ("cycle", 4))) is None
        # every translate of row 0 is present, but rows 1 and 3 have more
        chord = dense(cycle4_chain.csr, 4)
        chord[1, 3] = chord[3, 1] = 1.0
        assert translation_group(tagged(chord, ("cycle", 4))) is None
        # a tag of the wrong size, and one that names no group
        assert translation_group(
            MarkovChain(4, cycle4_chain.csr, family=("cycle", 5))) is None
        assert translation_group(
            MarkovChain(4, cycle4_chain.csr, family=("ladder", 4))) is None

    @pytest.mark.parametrize("family", [
        ("torus", 2), ("cycle",), ("hypercube", -1), ("torus", 2, 3.0), ("cycle", True),
    ])
    def test_malformed_family_tag_rejected(self, family):
        g = torus_graph(2, 3)
        with pytest.raises(ParameterOutOfRange, match="family"):
            MarkovChain(g.n, build_generator(g).csr, family=family)
        tagged = Graph(n=g.n, csr=g.csr, family=family)
        with pytest.raises(ParameterOutOfRange, match="family"):
            build_generator(tagged)
