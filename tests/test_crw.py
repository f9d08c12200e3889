import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (IRREGULAR_RATES, KINDS, LOLLIPOP, checks_pass, difference_generator,
                      generator_survival, k_particle_reference, pair_generator,
                      subset_kernel_reference, task_values)

from coalesce.chains import MarkovChain, build_generator, poisson_weights, spectrum, uniformize
from coalesce.crw import (
    _subset_distribution,
    estimate_density,
    exact_k_particle_law,
    exact_occupancy_cov,
    exact_occupancy_density,
    flat_graph,
    sample_tau_coal,
    sample_tau_coal_many,
    simulate_crw,
    _scalar_crw,
)
from coalesce.errors import (
    BadSubset,
    NotConnected,
    ParameterOutOfRange,
    SameVertex,
    TooLargeForExact,
)
from coalesce.graphs import (Graph, complete_graph, cycle_graph, hypercube_graph, path_graph,
                             torus_graph)
from coalesce.chains import translation_group
from coalesce.meeting import _survival, _two_walkers, pairwise_meeting_times
from coalesce import crw, runner
from coalesce.runner import run_task
from coalesce.seeding import derive_rng
from coalesce.voter import duality_gap

P2 = path_graph(2)
C4 = cycle_graph(4)


def two_path_density(t):
    return (1 + np.exp(-2 * t)) / 2


class TestSimulate:
    def test_time_zero(self):
        rec = simulate_crw(C4, [0.0], derive_rng(0, "sim", 0), track="tracked_cluster")
        assert rec["xi_size"][0] == 4
        assert rec["N"][0] == 1

    def test_xi_nonincreasing(self):
        grid = np.linspace(0.0, 3.0, 13)
        for rep in range(20):
            rec = simulate_crw(cycle_graph(8), grid, derive_rng(1, "sim", rep))
            xi = rec["xi_size"]
            assert (np.diff(xi) <= 0).all()

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            simulate_crw(C4, [1.0, 0.5], derive_rng(0, "sim", 0))

    @pytest.mark.parametrize("track", ["density", "tracked_cluster", "occupancy"])
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), True])
    def test_nonfinite_or_bool_grid_rejected(self, track, t):
        # a NaN grid time used to hang the occupancy track
        with pytest.raises(ParameterOutOfRange):
            simulate_crw(C4, [t], derive_rng(0, "sim", 0), track=track)

    def test_site_out_of_range_rejected(self):
        for sites in ([4], [-1]):
            with pytest.raises(ParameterOutOfRange):
                simulate_crw(C4, [1.0], derive_rng(0, "sim", 0), track="occupancy",
                             site_list=sites)

    @pytest.mark.parametrize("site", [0.5, 1.0, True, "1"])
    def test_site_must_be_an_integer(self, site):
        # a fractional site used to be read as the site below it
        with pytest.raises(ParameterOutOfRange, match=r"^site_list\[1\] must be a vertex"):
            simulate_crw(C4, [1.0], derive_rng(0, "sim", 0), track="occupancy",
                         site_list=[0, site])

    def test_numpy_sites_accepted(self):
        rec = simulate_crw(C4, [0.0], derive_rng(0, "sim", 0), track="occupancy",
                           site_list=np.array([3, 1]))
        assert rec["sites"] == [3, 1] and rec["occ"].all()

    def test_edgeless_graph_holds_state(self):
        g = Graph.from_edges(3, [])
        rec = simulate_crw(g, [0.0, 1.0, 5.0], derive_rng(0, "sim", 0), track="occupancy")
        assert rec["xi_size"].tolist() == [3, 3, 3]
        assert rec["occ"].all()

    def test_determinism(self):
        a = simulate_crw(cycle_graph(10), [0.5, 1.5], derive_rng(7, "det", 3),
                         track="tracked_cluster")
        b = simulate_crw(cycle_graph(10), [0.5, 1.5], derive_rng(7, "det", 3),
                         track="tracked_cluster")
        assert np.array_equal(a["xi_size"], b["xi_size"])
        assert np.array_equal(a["N"], b["N"])

    def test_cluster_size_conservation(self):
        # every site a label and an occupancy site: the clusters' sizes sum
        # to n, so the sum over labels of 1 / size counts the clusters
        flat = flat_graph(cycle_graph(9), "per_edge_unit")
        draws = crw._one_row(derive_rng(2, "cons", 0))
        grid = np.linspace(0.0, 4.0, 40).tolist()
        rec = next(_scalar_crw(flat, draws, grid, labels=range(9), sites=range(9)))
        inv = (1.0 / rec["sizes"]).sum(axis=1)
        np.testing.assert_allclose(inv, rec["xi"], rtol=1e-12)
        assert (rec["occ"].sum(axis=1) == rec["xi"]).all()
        assert rec["xi"][-1] < 9


class TestDensity:
    def test_time_zero_exact(self):
        est = estimate_density(C4, [0.0], 50, derive_rng(4, "dens", 0))
        assert est.p_hat[0] == 1.0
        assert est.stderr[0] == 0.0

    def test_nan_grid_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            estimate_density(C4, [0.5, float("nan")], 50, derive_rng(4, "dens", 0))

    def test_two_path_against_oracle(self):
        # verify statistical's rows at 20 000 replicates, against the subset
        # chain, which test_two_path_closed_form checks against (1 + e^{-2t}) / 2
        checks_pass(5, "mc_vs_exact_path2/z_t0.5", "mc_vs_exact_path2/z_t1.0",
                    "mc_vs_exact_path2/z_t2.0")

    def test_single_survivor_regime(self):
        est = estimate_density(complete_graph(8), [50.0], 500, derive_rng(6, "dens", 0))
        assert est.p_hat[0] == pytest.approx(1 / 8, abs=1e-12)

    def test_arratia_diagnostic(self):
        est = estimate_density(cycle_graph(6), [0.5, 1.0], 5000, derive_rng(7, "dens", 0))
        assert est.arratia_ok.all()

    def test_p_hat_nonincreasing_within_noise(self):
        checks_pass(8, "density_monotone")


class TestExactOccupancy:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_two_path_closed_form(self, k2_chain, t):
        dens = exact_occupancy_density(k2_chain, t)
        assert np.allclose(dens, two_path_density(t), atol=1e-9)

    def test_time_zero(self, cycle4_chain):
        assert np.array_equal(exact_occupancy_density(cycle4_chain, 0.0), np.ones(4))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_occupancy_floor(self, cycle4_chain, t):
        dens = exact_occupancy_density(cycle4_chain, t)
        assert (dens >= 1.0 / (1.0 + 2.0 * t)).all()

    def test_mc_agrees(self):
        checks_pass(8, "mc_vs_exact_cycle4/z_t0.5", "mc_vs_exact_cycle4/z_t1.0",
                    "mc_vs_exact_cycle4/z_t2.0")

    def test_too_large(self, monkeypatch):
        # the cap comes first: the (2^n - 1) x n occupancy rows of
        # torus(3, 3) asked for 27 GiB before it was checked
        def built(n):
            raise AssertionError(f"occupancy rows built for n = {n}")

        monkeypatch.setattr(crw, "_subset_occupancy", built)
        with pytest.raises(TooLargeForExact):
            exact_occupancy_density(build_generator(cycle_graph(13)), 1.0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_exact_covariance_nonpositive(self, cycle4_chain, t):
        for x, y in [(0, 1), (0, 2)]:
            assert exact_occupancy_cov(cycle4_chain, x, y, t) <= 0.0

    def test_cov_needs_distinct(self, cycle4_chain):
        with pytest.raises(SameVertex):
            exact_occupancy_cov(cycle4_chain, 1, 1, 0.5)


class TestKParticle:
    def test_k2_closed_form(self, k2_chain):
        for t in (0.3, 1.0):
            law = exact_k_particle_law(k2_chain, 1, t)
            expected = 0.5 + 0.5 * (1 - np.exp(-2 * t))
            assert law["p_coal"] == pytest.approx(expected, abs=1e-9)
            assert law["e_ntk"] == pytest.approx(2 * expected, abs=1e-9)

    def test_distinct_start_zero_time(self, k2_chain):
        assert exact_k_particle_law(k2_chain, 1, 0.0, "distinct")["p_coal"] == 0.0

    def test_cycle3_k2_vs_mc(self):
        # distinct 3-walker start on the 3-cycle is the full initial condition,
        # so the coalescence law equals the law of tau_coal
        checks_pass(9, "kparticle_cycle3")

    def test_moment_identity_against_tracked_cluster(self, cycle4_chain):
        # mean tracked-cluster count equals n * P(two uniform walkers coalesce)
        samples = task_values(C4, "tracked_cluster", [0.7], 20_000,
                              derive_rng(10, "kp", 0))[:, 0, 1].astype(float)
        target = exact_k_particle_law(cycle4_chain, 1, 0.7)["e_ntk"]
        assert abs(samples.mean() - target) <= 4.0 * samples.std(ddof=1) / np.sqrt(len(samples))

    def test_mean_cluster_count_band(self, cycle4_chain):
        # |E N_t - n t / M| <= n ((t/M)^2 + t_rel / M), all sides exact
        m = pairwise_meeting_times(cycle4_chain).t_meet_pi
        t_rel = spectrum(cycle4_chain).t_rel
        for t in (0.1, 0.3, 0.6):
            e_n = exact_k_particle_law(cycle4_chain, 1, t)["e_ntk"]
            assert abs(e_n - 4 * t / m) <= 4 * ((t / m) ** 2 + t_rel / m) + 1e-12

    def test_too_large(self):
        # the cap counts the states solved: 12^4 labelled states on the
        # untagged path, 142^2 pinned states on the tagged cycle
        with pytest.raises(TooLargeForExact):
            exact_k_particle_law(build_generator(path_graph(12)), 3, 1.0)
        with pytest.raises(TooLargeForExact):
            exact_k_particle_law(build_generator(cycle_graph(142)), 2, 1.0)

    def test_reports_truncation(self, cycle4_chain):
        for k, t in ((1, 0.5), (2, 3.0)):
            law = exact_k_particle_law(cycle4_chain, k, t)
            assert law["terms"] > 1
            assert 0.0 <= law["tail_mass"] <= 1e-10


    def test_uniformized_at_largest_exit_rate(self, cycle4_chain):
        # k + 1 walkers occupy at most k + 1 sites, so the chain leaves a
        # state at rate at most (k + 1) r, not n r
        for k, t in ((1, 0.5), (2, 3.0)):
            law = exact_k_particle_law(cycle4_chain, k, t)
            assert law["terms"] == len(poisson_weights((k + 1) * 2.0 * t, 1e-10))


@st.composite
def small_chains(draw, n_min=2, n_max=4):
    """Connected chains with non-integer, unequal rates."""
    n = draw(st.integers(n_min, n_max))
    rate = st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False)
    order = draw(st.permutations(range(n)))
    rates = np.zeros((n, n))
    # a spanning path keeps the chain connected; other edges are optional
    for a, b in zip(order, order[1:]):
        rates[a, b] = rates[b, a] = draw(rate)
    for a in range(n):
        for b in range(a + 1, n):
            if rates[a, b] == 0.0 and draw(st.booleans()):
                rates[a, b] = rates[b, a] = draw(rate)
    return MarkovChain.from_rates(rates)


class TestCrossOracles:
    """Independent exact oracles for the same probability agree."""

    @settings(max_examples=40, deadline=None)
    @given(c=small_chains(), t=st.floats(0.0, 3.0))
    def test_two_walker_law_vs_killed_pair_chain(self, c, t):
        # k-particle ring kernel on V^2 against the pair generator killed on
        # its diagonal, both from the uniform law on pairs
        diag = np.eye(c.n, dtype=bool).ravel()
        uniform = np.full(c.n * c.n, 1.0 / (c.n * c.n))
        surv = generator_survival(pair_generator(c), diag, uniform, t)
        p_coal = exact_k_particle_law(c, 1, t)["p_coal"]
        assert abs(p_coal - (1.0 - surv)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(c=small_chains(3, 3), t=st.floats(0.0, 3.0))
    def test_three_walkers_vs_subset_chain(self, c, t):
        # three distinct walkers on three sites start from the full set, so
        # they have all met exactly when the subset chain is on a singleton
        single = np.array([bin(s).count("1") == 1 for s in range(1, 8)])
        p_one = _subset_distribution(c, t)[single].sum()
        p_coal = exact_k_particle_law(c, 2, t, "distinct")["p_coal"]
        assert abs(p_coal - p_one) <= 1e-10


class TestSubsetChainFromAnySet:
    @pytest.mark.parametrize("g", [cycle_graph(6), complete_graph(5)], ids=["cycle6", "complete5"])
    @pytest.mark.parametrize("t", [0.3, 1.2])
    def test_pair_meets_as_difference_walk_hits_identity(self, g, t):
        # two walkers from {a, b} have met by t exactly when the occupied set
        # is a singleton, and Y - X is the difference walk from b - a
        c = build_generator(g)
        add, neg = translation_group(c)
        single = np.array([bin(s).count("1") == 1 for s in range(1, 1 << c.n)])
        identity = np.arange(c.n) == 0
        for a, b in [(0, 1), (1, 3), (4, 2)]:
            p_one = _subset_distribution(c, t, {a, b})[single].sum()
            mu0 = np.zeros(c.n)
            mu0[add(b, neg(a))] = 1.0
            surv = generator_survival(difference_generator(c, add), identity, mu0, t)
            assert abs(p_one - (1.0 - surv)) <= 1e-10

    def test_default_start_is_every_site(self, cycle4_chain):
        assert np.array_equal(_subset_distribution(cycle4_chain, 0.6),
                              _subset_distribution(cycle4_chain, 0.6, range(4)))

    def test_start_is_a_point_mass(self, cycle4_chain):
        mu = _subset_distribution(cycle4_chain, 0.0, [2, 0])
        assert mu[0b101 - 1] == 1.0 and mu.sum() == 1.0

    @pytest.mark.parametrize("start", [[], [4], [-1, 2], [0.5], [True], [np.True_],
                                       [2, 1.0], ["1"]])
    def test_rejects_bad_start(self, cycle4_chain, start):
        with pytest.raises(BadSubset, match="^start must"):
            _subset_distribution(cycle4_chain, 0.5, start)


class TestSubsetTimesAndCache:
    """One uniformization pass serves a list of times, and the subset
    kernel is built once per chain; neither changes a bit of the laws."""

    TIMES = [0.0, 0.3, 1.1, 2.5]

    @staticmethod
    def uncached(c, t):
        """The law at one time from a freshly built kernel."""
        kt, lam = crw._subset_kernel.__wrapped__(c)
        mu = np.zeros(kt.shape[0])
        mu[-1] = 1.0
        return uniformize(kt.dot, mu, lam, [t], 1e-10)[0][0]

    @pytest.mark.parametrize("name", ["cycle5", "lollipop"])
    def test_list_of_times_is_bitwise_each_time(self, name, lollipop):
        g = cycle_graph(5) if name == "cycle5" else lollipop
        c = build_generator(g)
        laws = _subset_distribution(c, self.TIMES)
        assert laws.shape == (len(self.TIMES), (1 << g.n) - 1)
        dens = exact_occupancy_density(c, self.TIMES)
        for i, t in enumerate(self.TIMES):
            assert np.array_equal(laws[i], self.uncached(c, t))
            assert np.array_equal(laws[i], _subset_distribution(c, t))
            assert np.array_equal(dens[i], exact_occupancy_density(c, t))

    def test_kernel_built_once_per_chain(self, monkeypatch):
        built = []
        ring_kernel = crw._ring_kernel

        def spy(chain, src, x, move):
            built.append(chain)
            return ring_kernel(chain, src, x, move)

        monkeypatch.setattr(crw, "_ring_kernel", spy)
        crw._subset_kernel.cache_clear()
        c, other = build_generator(cycle_graph(6)), build_generator(cycle_graph(6))
        first = exact_occupancy_density(c, 0.4)
        for t in (0.4, 0.9):
            exact_occupancy_density(c, t)
            exact_occupancy_cov(c, 0, 1, t)
        assert built == [c]
        # an equal chain that is another object gets its own kernel
        assert np.array_equal(exact_occupancy_density(other, 0.4), first)
        assert built == [c, other]

    @pytest.mark.parametrize("t", [-0.1, [0.5, -1.0], []])
    def test_rejects_bad_times(self, cycle4_chain, t):
        with pytest.raises(ParameterOutOfRange):
            _subset_distribution(cycle4_chain, t)


class TestTauCoal:
    def test_single_vertex(self):
        assert sample_tau_coal(Graph.from_edges(1, []), derive_rng(0, "tau", 0)) == 0.0

    @pytest.mark.parametrize("g", [Graph.from_edges(4, [(0, 1), (2, 3)]),
                                   Graph.from_edges(3, [])])
    def test_disconnected_rejected(self, g):
        # two components used to loop forever; no edges divided by zero
        with pytest.raises(NotConnected):
            sample_tau_coal(g, derive_rng(0, "tau", 0))
        with pytest.raises(NotConnected):
            sample_tau_coal_many(g, 5, derive_rng(0, "tau", 0))

    def test_k2_exponential(self):
        taus = sample_tau_coal_many(P2, 20_000, derive_rng(11, "tau", 0))
        se = taus.std(ddof=1) / np.sqrt(len(taus))
        assert abs(taus.mean() - 0.5) <= 4.0 * se

    def test_complete4_stage_sum(self):
        taus = sample_tau_coal_many(complete_graph(4), 20_000, derive_rng(12, "tau", 0))
        se = taus.std(ddof=1) / np.sqrt(len(taus))
        assert abs(taus.mean() - 0.75) <= 4.0 * se


# runner tasks on the lockstep kernels


class TestBlockPath:
    def test_narrow_blocks_run_scalar(self, monkeypatch):
        # a block's width, and so its path, depends only on the vertex count
        def taken(name):
            def run(*args):
                raise LookupError(name)
            return run

        # the scalar path starts its rows, the lockstep one its block draws
        monkeypatch.setattr(runner, "_scalar_rows", taken("scalar"))
        monkeypatch.setattr(runner, "_BlockDraws", taken("lockstep"))
        flat = flat_graph(cycle_graph(8), "per_edge_unit")
        for kind in KINDS:
            floor = 64 if kind == "tau_coal" else 16
            for width, path in [(floor - 1, "scalar"), (floor, "lockstep")]:
                with pytest.raises(LookupError) as ran:
                    runner._pass(flat, {"task": kind}, [1.0], [None], 1, width)
                got = ran.value.args[0]
                assert got == path, (kind, width)
        assert runner.block_rows(1 << 15) == 16 and runner.block_rows(1 << 13) == 64
        assert runner.block_rows(1000) == 524


class TestRunnerLaws:
    """Every task against an exact oracle, |z| <= 4.5: the irregular lollipop
    takes the thinning path, total-unit cycle(9) the regular one.  Small
    graphs run on the lockstep kernels, and ``test_lockstep.TestOneLayout``
    shows that the scalar engines, which large graphs run on, give the same
    rows.  The edge cases, which take branches of their own in each
    engine, run on both."""

    @pytest.fixture(params=["lockstep", "scalar"])
    def path(self, request, monkeypatch):
        if request.param == "scalar":
            monkeypatch.setattr(runner, "_SCALAR_BELOW", dict.fromkeys(KINDS, 1 << 20))
        return request.param

    @pytest.mark.parametrize("case", ["lollipop", "cycle9_total_unit"])
    def test_tasks_against_oracles(self, case):
        checks_pass(21, f"runner_lockstep_{case}")

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_vertex(self, kind, path):
        header, rows, tally = run_task(Graph.from_edges(1, []), "per_edge_unit",
                                       {"task": kind}, [0.0, 1.0], 5, 3)
        expected = {"density": (1,), "tracked_cluster": (1, 1), "occupancy": (1, 1),
                    "nhat": (1,), "tau_coal": None}[kind]
        if expected is None:
            assert rows == [(r, 0.0) for r in range(5)]
        else:
            assert rows == [(r, t, *expected) for r in range(5) for t in (0.0, 1.0)]
        assert tally["events"] == 0 and tally["blocks"] == 1

    @pytest.mark.parametrize("kind", KINDS[:4])
    def test_edgeless_graph_holds_state(self, kind, path):
        rows = run_task(Graph.from_edges(3, []), "per_edge_unit", {"task": kind},
                        [0.0, 5.0], 4, 3)[1]
        expected = {"density": (3,), "tracked_cluster": (3, 1),
                    "occupancy": (3, 1, 1, 1), "nhat": (1,)}[kind]
        assert rows == [(r, t, *expected) for r in range(4) for t in (0.0, 5.0)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_replicates(self, kind, path):
        header, rows, tally = run_task(cycle_graph(8), "per_edge_unit", {"task": kind},
                                       [1.0], 0, 3)
        assert rows == []
        assert tally == {"events": 0, "thinning_rejections": 0, "blocks": 0}

    @pytest.mark.parametrize("kind", KINDS[:4])
    def test_empty_grid_gives_no_rows(self, kind, path):
        # nothing to record, so no trajectory may run on without end
        header, rows, tally = run_task(cycle_graph(8), "per_edge_unit", {"task": kind},
                                       [], 5, 3)
        assert rows == [] and tally["events"] == 0


# graph, convention, grid and replicates per case
ONE_PATH = {
    # 2500 replicates are three blocks, run as one lockstep pass
    "cycle8": (cycle_graph(8), "per_edge_unit", [0.2, 1.0, 3.0], 2500),
    "lollipop": (LOLLIPOP, "per_edge_unit", [0.2, 1.0, 3.0], 300),
    "cycle9_total_unit": (cycle_graph(9), "total_unit", [0.5, 2.0, 5.0], 300),
    # past 2^15 vertices blocks of 13, 13 and 4 rows run on the scalar engines
    "cycle40000": (cycle_graph(40_000), "per_edge_unit", [0.02, 0.05], 30),
}


class TestOnePath:
    """``sample_tau_coal_many`` and ``duality_gap`` are views over the
    runner's derived blocks: each draws one master seed from the caller's
    generator, and its values equal ``runner._task_values``' at that seed,
    bit for bit."""

    @staticmethod
    def master(seed, case):
        """The master seed a view draws from ``derive_rng(seed, case, 0)``,
        and that generator's state after the draw."""
        rng = derive_rng(seed, case, 0)
        return int(rng.integers(1 << 63)), rng.bit_generator.state

    @staticmethod
    def values(case, task, grid, master):
        g, convention, _, reps = ONE_PATH[case]
        return runner._task_values(g, convention, task, grid, reps, master)[2]

    # coalescence on cycle(40000) takes of order n^2 time
    @pytest.mark.parametrize("case", ["cycle8", "lollipop", "cycle9_total_unit"])
    def test_tau_coal(self, case):
        g, convention, _, reps = ONE_PATH[case]
        rng = derive_rng(61, case, 0)
        taus = sample_tau_coal_many(g, reps, rng, convention)
        master, state = self.master(61, case)
        assert rng.bit_generator.state == state
        assert np.array_equal(taus, self.values(case, {"task": "tau_coal"}, [], master))

    @pytest.mark.parametrize("case", list(ONE_PATH))
    def test_duality_sides(self, case):
        g, convention, times, reps = ONE_PATH[case]
        t = times[-1]
        rng = derive_rng(63, case, 0)
        res = duality_gap(g, t, reps, rng, convention)
        master, state = self.master(63, case)
        assert rng.bit_generator.state == state
        # the three tasks share the master seed; their labels part the streams
        nhat, n_0 = self.values(case, {"task": "nhat"}, [t], master)[:, 0].T
        crw = self.values(case, {"task": "tracked_cluster"}, [t], master)[:, 0]
        occ0 = self.values(case, {"task": "occupancy", "sites": [0]}, [t], master)[:, 0, 1]
        assert np.array_equal(res["nhat"], nhat)
        assert np.array_equal(res["N_samples"], crw[:, 1])
        # opinion 0 survives while its cluster is not empty
        assert res["abs_gap_survival_vs_density"] == abs((n_0 > 0).mean() - occ0.mean())

    @pytest.mark.parametrize("case", ["cycle8", "cycle40000"])
    def test_blocks_derived_from_master_seed(self, case):
        # block k draws from (master seed, task label, k) whatever came
        # before it, on a pass of lockstep blocks or on scalar blocks
        g, convention, times, reps = ONE_PATH[case]
        task, master = {"task": "occupancy", "sites": [0, 1]}, 64
        flat, width = flat_graph(g, convention), runner.block_rows(g.n)
        label = runner._task_label(task)
        vals = np.concatenate([
            runner._pass(flat, task, times, [derive_rng(master, label, k)],
                         min(width, reps - start), width)[0]
            for k, start in enumerate(range(0, reps, width))
        ])
        assert len(vals) == reps and reps > 2 * width
        assert np.array_equal(vals, self.values(case, task, times, master))


C6 = cycle_graph(6)
# the smallest valid replicate count of each estimator
LEAST_REPS = {"estimate_density": 2, "sample_tau_coal_many": 1, "duality_gap": 2}


def call_estimator(name, reps):
    rng = derive_rng(0, "inputs", 0)
    if name == "estimate_density":
        return estimate_density(C6, [1.0], reps, rng)
    if name == "sample_tau_coal_many":
        return sample_tau_coal_many(C6, reps, rng)
    return duality_gap(C6, 1.0, reps, rng)


class TestEstimatorInputs:
    """Bad replicate counts fail with ParameterOutOfRange naming the field,
    not with a raw error or a nan."""

    @pytest.mark.parametrize("reps", [0, 1, -1, 2.5, True, "10"])
    @pytest.mark.parametrize("name", list(LEAST_REPS))
    def test_bad_reps(self, name, reps):
        if reps == LEAST_REPS[name] and not isinstance(reps, bool):
            call_estimator(name, reps)
            return
        with pytest.raises(ParameterOutOfRange, match="^reps must"):
            call_estimator(name, reps)

    @pytest.mark.parametrize("name", list(LEAST_REPS))
    def test_numpy_integer_reps(self, name):
        call_estimator(name, np.int64(LEAST_REPS[name]))


class TestOracleInputs:
    """Bad times, walker counts and vertices given to the exact oracles fail
    with ParameterOutOfRange naming the field, not with a raw error or a
    silent answer; numpy scalars are still accepted."""

    C = build_generator(C6)

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf"), True])
    def test_k_particle_time(self, t):
        with pytest.raises(ParameterOutOfRange, match="^t must"):
            exact_k_particle_law(self.C, 1, t)

    @pytest.mark.parametrize("k", [1.5, True, 0, "1"])
    def test_k_particle_walkers(self, k):
        with pytest.raises(ParameterOutOfRange, match="^k must"):
            exact_k_particle_law(self.C, k, 1.0)

    def test_k_particle_start_before_any_build(self, monkeypatch):
        def build(*args):
            raise AssertionError("kernel built before the start was checked")

        monkeypatch.setattr(crw, "_ring_kernel", build)
        with pytest.raises(ParameterOutOfRange, match="unknown start 'pi-tensor'"):
            exact_k_particle_law(self.C, 1, 1.0, "pi-tensor")

    def test_k_particle_numpy_scalars(self):
        law = exact_k_particle_law(self.C, np.int64(1), np.float64(0.5))
        assert law == exact_k_particle_law(self.C, 1, 0.5)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), [0.5, float("nan")],
                                   [1.0, float("inf")], -0.5])
    @pytest.mark.parametrize("oracle", [exact_occupancy_density, _subset_distribution])
    def test_subset_chain_times(self, oracle, t):
        with pytest.raises(ParameterOutOfRange, match="^t must"):
            oracle(self.C, t)

    @pytest.mark.parametrize("y", [9, 6, -1, 1.0, True])
    def test_covariance_vertices(self, y):
        with pytest.raises(ParameterOutOfRange, match="^y must be a vertex"):
            exact_occupancy_cov(self.C, 0, y, 1.0)
        with pytest.raises(ParameterOutOfRange, match="^x must be a vertex"):
            exact_occupancy_cov(self.C, y, 0, 1.0)

    def test_covariance_numpy_vertices(self):
        got = exact_occupancy_cov(self.C, np.int64(0), np.int64(2), np.float64(1.0))
        assert got == exact_occupancy_cov(self.C, 0, 2, 1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_covariance_time(self, t):
        with pytest.raises(ParameterOutOfRange, match="^t must"):
            exact_occupancy_cov(self.C, 0, 1, t)


def same_kernel(got, want):
    """Two transposed kernels and rates as ``_ring_kernel`` returns them:
    the same stored entries, each within 1e-12 relative."""
    (kt, lam), (ref, ref_lam) = got, want
    assert abs(lam - ref_lam) <= 1e-12 * ref_lam
    kt, ref = kt.tocsr(copy=True), ref.tocsr(copy=True)
    kt.sum_duplicates()
    ref.sum_duplicates()
    assert np.array_equal(kt.indptr, ref.indptr) and np.array_equal(kt.indices, ref.indices)
    assert np.all(np.abs(kt.data - ref.data) <= 1e-12 * np.abs(ref.data))


def same_law(got, want):
    assert got.keys() == want.keys()
    for key in ("p_coal", "e_ntk"):
        if key in want:
            assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])
    assert got["terms"] == want["terms"]
    assert abs(got["tail_mass"] - want["tail_mass"]) <= 1e-12


REFERENCE_CHAINS = {
    "cycle5": build_generator(cycle_graph(5)),
    "cycle9": build_generator(cycle_graph(9)),
    "K12": build_generator(complete_graph(12)),
    "lollipop": build_generator(LOLLIPOP),
    "torus33": build_generator(torus_graph(3, 3)),
    "hypercube3": build_generator(hypercube_graph(3)),
    "path7": build_generator(path_graph(7)),
    "irregular5": MarkovChain.from_rates(IRREGULAR_RATES),
}


def _k_particle_cases():
    """(chain, pinned, k) for k = 1, 2, 3 wherever the states fit under the
    cap; pinned only where a translation group pins walker 0."""
    for name, c in REFERENCE_CHAINS.items():
        for pinned in (True, False):
            if pinned and translation_group(c) is None:
                continue
            for k in (1, 2, 3):
                if c.n ** (k if pinned else k + 1) <= crw._KPARTICLE_CAP:
                    yield pytest.param(name, pinned, k,
                                       id=f"{name}-{'pinned' if pinned else 'unpinned'}-k{k}")


class TestRingKernelMatchesPerRingReference:
    """The loop-free ring kernel against the per-ring build on a states x
    sites occupancy matrix (``conftest.per_ring_kernel``)."""

    @pytest.mark.parametrize("name", [name for name, c in REFERENCE_CHAINS.items()
                                      if c.n <= crw._SUBSET_CAP])
    def test_subset_kernel_and_laws(self, name):
        c = REFERENCE_CHAINS[name]
        kt, lam = subset_kernel_reference(c)
        same_kernel(crw._subset_kernel.__wrapped__(c), (kt, lam))
        for start in (range(c.n), [0, c.n - 1]):
            mu = np.zeros(kt.shape[0])
            mu[sum(1 << x for x in start) - 1] = 1.0
            for t in (0.3, 1.7):
                want = uniformize(kt.dot, mu, lam, [t], 1e-10)[0][0]
                got = _subset_distribution(c, t, start)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("name,pinned,k", list(_k_particle_cases()))
    def test_k_particle_kernel_and_laws(self, name, pinned, k, monkeypatch):
        c = REFERENCE_CHAINS[name]
        if not pinned:
            # the same rates with no tag: the chain on V^{k+1}
            c = MarkovChain(c.n, c.csr, c.convention)
        built = []
        ring_kernel = crw._ring_kernel

        def spy(*args):
            built.append(ring_kernel(*args))
            return built[-1]

        monkeypatch.setattr(crw, "_ring_kernel", spy)
        for start in ("pi_tensor", "distinct"):
            for t in (0.3, 1.7):
                want, kt, lam = k_particle_reference(c, k, t, start, pinned)
                same_law(exact_k_particle_law(c, k, t, start), want)
                same_kernel(built[-1], (kt, lam))

    def test_cap_scale_cycle_against_difference_walk(self):
        # 5000 pinned states: walker 1 relative to walker 0 is the difference
        # walk, which _two_walkers runs killed at the identity.  Both chains
        # are uniformized at rate 4 and sum the same Poisson terms, so the
        # coalesced mass is the summed weight less the survival.
        c, t = build_generator(cycle_graph(5000)), 40.0
        tracemalloc.start()
        law = exact_k_particle_law(c, 1, t)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 << 20
        _, step, lam, mask, _ = _two_walkers(c, table=False)
        surv, terms, tail = _survival(step, lam, mask, np.full(c.n, 1.0 / c.n), [t], 1e-10)
        assert (terms, tail) == (law["terms"], law["tail_mass"])
        want = (1.0 - tail) - surv[0]
        assert abs(law["p_coal"] - want) <= 1e-12 * want
