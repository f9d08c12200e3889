import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from conftest import (IRREGULAR_RATES, DenseBuilt, checks_pass, dense, difference_generator,
                      generator_survival, kron_pairwise, pair_generator)

from coalesce import _flat, chains, crw, meeting
from coalesce.chains import (
    MarkovChain,
    build_generator,
    product_chain,
    spectrum,
    transition_matrix,
    translation_group,
)
from coalesce.crw import exact_k_particle_law, exact_occupancy_density
from coalesce.errors import (
    BadSubset,
    CoalesceError,
    NotConnected,
    NotTransitive,
    ParameterOutOfRange,
    TooLargeForExact,
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
from coalesce.meeting import (
    aldous_brown_check,
    alpha_survival,
    eigentime_residual,
    kac_residual,
    mc_pair_meeting,
    mean_meeting_time,
    pairwise_meeting_times,
)
from coalesce.seeding import derive_rng

def cycle_pair_oracle(n):
    """Expected meeting time on the n-cycle at graph distance k: k(n-k)/4."""
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            k = min((x - y) % n, (y - x) % n)
            out[x, y] = k * (n - k) / 4.0
    return out


class TestPairwise:
    def test_k2(self, k2_chain):
        prof = pairwise_meeting_times(k2_chain)
        assert prof.pairwise[0, 1] == pytest.approx(0.5, abs=1e-10)
        assert prof.pairwise[0, 0] == 0.0

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_cycle_oracle(self, n):
        prof = pairwise_meeting_times(build_generator(cycle_graph(n)))
        assert np.allclose(prof.pairwise, cycle_pair_oracle(n), atol=1e-8)
        assert prof.residual <= 1e-9

    def test_symmetry_zero_diag(self, torus33_chain):
        prof = pairwise_meeting_times(torus33_chain)
        assert np.allclose(prof.pairwise, prof.pairwise.T, atol=1e-9)
        assert np.array_equal(np.diag(prof.pairwise), np.zeros(27))

    def test_sparse_path_matches_dense(self):
        # every size goes through the conjugate-gradient solve; 2450 unknowns here
        c = build_generator(cycle_graph(50))
        prof = pairwise_meeting_times(c)
        assert np.allclose(prof.pairwise, cycle_pair_oracle(50), atol=1e-7)


def barbell(m, path):
    """Two copies of K_m joined by a path of ``path`` edges."""
    edges = [(a, b) for a in range(m) for b in range(a + 1, m)]
    far = m + path - 1
    edges += [(far + a, far + b) for a in range(m) for b in range(a + 1, m)]
    edges += [(v, v + 1) for v in range(m - 1, far)]
    return Graph.from_edges(far + m, edges)


def irregular_cm(n, seed):
    dist = DegreeDistribution.from_pairs([(3, 0.5), (4, 0.2), (6, 0.3)])
    return sample_configuration_model(dist, n, derive_rng(seed, "cg-cm", 0),
                                      require_connected=True)


class TestHittingSolve:
    @pytest.mark.parametrize("g", [barbell(12, 8), path_graph(60), irregular_cm(60, 3)],
                             ids=["barbell", "path60", "cm60"])
    def test_cg_matches_dense_solve(self, g):
        # the same restricted system, factorized densely
        c = build_generator(g)
        prof = pairwise_meeting_times(c)
        off = ~np.eye(c.n, dtype=bool).ravel()
        sub = -pair_generator(c)[off][:, off].toarray()
        ref = scipy.linalg.solve(sub, np.ones(sub.shape[0]), assume_a="pos",
                                 overwrite_a=True)
        got = prof.pairwise.ravel()[off]
        assert np.all(np.abs(got - ref) <= 1e-10 * ref)
        assert prof.residual <= 1e-8

    def test_no_convergence_raises(self, monkeypatch):
        def stalled(a, b, rtol, callback):
            # scipy reports an unconverged solve by its iteration count
            return np.zeros_like(b), 3

        monkeypatch.setattr(scipy.sparse.linalg, "cg", stalled)
        with pytest.raises(CoalesceError, match="3 iterations, residual 1"):
            pairwise_meeting_times(build_generator(cycle_graph(5)))


    def test_profile_reports_the_system_solved(self, lollipop, torus33_chain):
        # the pair chain off its diagonal, or the difference walk off the
        # identity, and the conjugate-gradient iterations on it
        prof = pairwise_meeting_times(build_generator(lollipop))
        assert prof.unknowns == 7 * 6 and 0 < prof.iterations <= 7 * 6
        prof = pairwise_meeting_times(torus33_chain)
        assert prof.unknowns == 26 and 0 < prof.iterations <= 26

    def test_iterations_are_the_callback_count(self, monkeypatch):
        calls = []
        cg = scipy.sparse.linalg.cg

        def spy(a, b, rtol, callback):
            return cg(a, b, rtol=rtol, callback=lambda x: calls.append(callback(x)))

        monkeypatch.setattr(scipy.sparse.linalg, "cg", spy)
        prof = pairwise_meeting_times(build_generator(path_graph(9)))
        assert prof.iterations == len(calls) > 0


class TestMeanMeetingTime:
    def test_cycle4(self, cycle4_chain):
        assert mean_meeting_time(cycle4_chain, "pi_pi") == pytest.approx(5 / 8, abs=1e-9)

    def test_complete4(self, complete4_chain):
        assert mean_meeting_time(complete4_chain, "pi_pi") == pytest.approx(3 / 8, abs=1e-9)
        assert mean_meeting_time(complete4_chain, "distinct") == pytest.approx(0.5, abs=1e-9)

    def test_k2(self, k2_chain):
        assert mean_meeting_time(k2_chain, "pi_pi") == pytest.approx(0.25, abs=1e-10)

    def test_pi_distinct_identity(self, torus33_chain):
        prof = pairwise_meeting_times(torus33_chain)
        assert prof.t_meet_pi == pytest.approx(
            (1 - 1 / 27) * prof.t_meet_distinct, abs=1e-10
        )

    def test_unknown_mode(self, k2_chain):
        with pytest.raises(ParameterOutOfRange):
            mean_meeting_time(k2_chain, "nope")

    def test_unknown_mode_before_any_solve(self, monkeypatch):
        def solve(c):
            raise AssertionError("solved before the mode was checked")

        monkeypatch.setattr(meeting, "pairwise_meeting_times", solve)
        with pytest.raises(ParameterOutOfRange, match="unknown mode 'pi-pi'"):
            mean_meeting_time(build_generator(cycle_graph(5)), "pi-pi")

    def test_one_state_chain(self):
        # no distinct pair: the distinct mean is refused, and nothing warns
        one = MarkovChain.from_rates(np.zeros((1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = pairwise_meeting_times(one)
            assert prof.t_meet_pi == 0.0 and np.isnan(prof.t_meet_distinct)
            assert mean_meeting_time(one) == 0.0
            with pytest.raises(ParameterOutOfRange, match="^distinct starts need two"):
                mean_meeting_time(one, "distinct")


class TestAlphaSurvival:
    def test_zero_time(self, cycle4_chain):
        res = alpha_survival(cycle4_chain, 1, 0.0)
        assert res["value"] == pytest.approx(2.0, abs=1e-10)

    def test_k2_closed_form(self, k2_chain):
        res = alpha_survival(k2_chain, 0, 0.5)
        assert res["value"] == pytest.approx(np.exp(-1), abs=1e-9)

    def test_exact_vs_mc(self):
        checks_pass((9, "alpha-mc", 0), "alpha_mc_cycle4")

    def test_mc_reports_events_and_stays(self, torus33_chain):
        # rows of unequal total rate thin at r_max; a regular chain does not
        res = alpha_survival(MarkovChain.from_rates(IRREGULAR_RATES), 2, 0.8, mode="mc",
                             reps=2000, rng=derive_rng(12, "alpha-irr", 0))
        assert 0 < res["thinned"] < res["events"]
        lo, hi = res["ci95"]
        assert lo <= res["value"] <= hi
        assert hi - lo == pytest.approx(2 * 1.96 * res["stderr"], rel=1e-12)
        res = alpha_survival(torus33_chain, 0, 0.8, mode="mc", reps=2000,
                             rng=derive_rng(12, "alpha-irr", 1))
        assert res["events"] > 0 and res["thinned"] == 0

    def test_exact_vs_mc_irregular_weighted(self):
        # the irregular rates exercise the alias table and its thinned stays
        checks_pass((11, "alpha-irr", 2), "alpha_mc_irregular_x2")
        checks_pass((11, "alpha-irr", 3), "alpha_mc_irregular_x3")

    @pytest.mark.parametrize("name", ["cycle4_chain", "torus33_chain", "irregular"])
    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_killed_pair_matches_two_particle_law(self, name, t, request):
        # uniform law on distinct pairs, killed on the diagonal, against the
        # independent two-walker coalescence oracle
        if name == "irregular":
            c = MarkovChain.from_rates(IRREGULAR_RATES)
        else:
            c = request.getfixturevalue(name)
        diag = np.eye(c.n, dtype=bool).ravel()
        mu0 = np.where(diag, 0.0, 1.0 / (c.n * (c.n - 1)))
        surv = generator_survival(pair_generator(c), diag, mu0, t)
        p_coal = exact_k_particle_law(c, 1, t, "distinct")["p_coal"]
        assert abs(surv - (1.0 - p_coal)) <= 1e-10

    def test_nonincreasing(self, cycle4_chain):
        vals = [alpha_survival(cycle4_chain, 0, t)["value"] for t in (0.0, 0.3, 0.8, 1.5)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [-1, 4, 1.5, True])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_rejects_bad_vertex(self, cycle4_chain, x, mode):
        # -1 used to return the value for vertex n - 1; n ended in IndexError
        with pytest.raises(ParameterOutOfRange):
            alpha_survival(cycle4_chain, x, 0.5, mode=mode, reps=10,
                           rng=derive_rng(0, "alpha-x", 0))

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_state_with_no_neighbours(self, mode):
        # the one-state chain: exact mode raised ZeroDivisionError, mc mode
        # IndexError
        one = MarkovChain.from_rates(np.zeros((1, 1)))
        with pytest.raises(ParameterOutOfRange, match="^x = 0 has no neighbours"):
            alpha_survival(one, 0, 0.5, mode=mode, reps=10, rng=derive_rng(0, "alpha-one", 0))

    def test_one_cap_on_states_and_table(self):
        # 2049 states on the difference walk; 2049^2 pair states and a
        # 2049 x 2049 table pass the cap
        c = build_generator(cycle_graph(2049))
        assert 0.0 < alpha_survival(c, 3, 0.5)["value"] < 2.0
        with pytest.raises(TooLargeForExact):
            pairwise_meeting_times(c)
        with pytest.raises(TooLargeForExact):
            alpha_survival(path_graph(2049), 3, 0.5)

    def test_mc_zero_time_is_rate(self):
        # every pair starts apart and its first event comes after t = 0
        c = MarkovChain.from_rates(IRREGULAR_RATES)
        res = alpha_survival(c, 1, 0.0, mode="mc", reps=500, rng=derive_rng(0, "alpha-t0", 0))
        assert res["value"] == pytest.approx(4.2, abs=1e-15)
        assert res["stderr"] == 0.0

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0, "1", True])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_rejects_bad_time(self, cycle4_chain, t, mode):
        # NaN raised a raw ValueError in exact mode and returned 0.0 in mc mode
        with pytest.raises(ParameterOutOfRange):
            alpha_survival(cycle4_chain, 0, t, mode=mode, reps=10,
                           rng=derive_rng(0, "alpha-t", 0))

    @pytest.mark.parametrize("reps", [0, -3, 2.5, True])
    def test_rejects_bad_reps(self, cycle4_chain, reps):
        # reps = 0 raised a raw ZeroDivisionError
        with pytest.raises(ParameterOutOfRange):
            alpha_survival(cycle4_chain, 0, 0.5, mode="mc", reps=reps,
                           rng=derive_rng(0, "alpha-reps", 0))

    def test_accepts_numpy_vertex(self, cycle4_chain):
        res = alpha_survival(cycle4_chain, np.int64(2), 0.5)["value"]
        assert res == alpha_survival(cycle4_chain, 2, 0.5)["value"]

    def test_accepts_graph_directly(self, cycle4_chain):
        from_chain = alpha_survival(cycle4_chain, 0, 0.5)["value"]
        from_graph = alpha_survival(cycle_graph(4), 0, 0.5)["value"]
        assert from_graph == pytest.approx(from_chain, abs=1e-12)


TAGGED = [cycle_graph(7), torus_graph(2, 4), torus_graph(3, 3), complete_graph(6),
          hypercube_graph(3)]
TAGGED_IDS = ["cycle7", "torus24", "torus33", "complete6", "hypercube3"]


@pytest.fixture(params=[(g, conv) for g in TAGGED for conv in ("per_edge_unit", "total_unit")],
                ids=[f"{i}-{conv}" for i in TAGGED_IDS for conv in ("edge", "total")])
def quotient_pair(request):
    """A tagged chain, which takes the translation quotient, and an untagged
    copy of its rates, which takes the generic path."""
    g, conv = request.param
    c = build_generator(g, conv)
    assert translation_group(c) is not None
    return c, MarkovChain.from_rates(dense(c.csr, c.n))


class TestTranslationQuotient:
    """The oracles on the translation quotient against the generic path."""

    def test_pairwise_meeting_times(self, quotient_pair):
        c, plain = quotient_pair
        got, ref = pairwise_meeting_times(c), pairwise_meeting_times(plain)
        assert np.abs(got.pairwise - ref.pairwise).max() <= 1e-10
        assert abs(got.t_meet_pi - ref.t_meet_pi) <= 1e-10
        assert abs(got.t_meet_distinct - ref.t_meet_distinct) <= 1e-10
        assert got.residual <= 1e-10 and ref.residual <= 1e-10

    @pytest.mark.parametrize("x", [0, 5])
    def test_alpha_exact(self, quotient_pair, x):
        c, plain = quotient_pair
        for t in (0.4, 2.0):
            got, ref = alpha_survival(c, x, t), alpha_survival(plain, x, t)
            assert abs(got["value"] - ref["value"]) <= 1e-10
            assert got["terms"] == ref["terms"]

    def test_difference_walk_is_the_chain_at_double_speed(self, quotient_pair):
        # the same bits as the difference generator built entry by entry
        c, _ = quotient_pair
        add, neg = translation_group(c)
        d, off = difference_generator(c, add), np.arange(c.n) != 0
        h = np.zeros(c.n)
        h[off] = scipy.sparse.linalg.cg(-d[off][:, off], np.ones(c.n - 1), rtol=1e-13)[0]
        ids = np.arange(c.n)
        assert np.array_equal(pairwise_meeting_times(c).pairwise,
                              h[add(ids[None, :], neg(ids[:, None]))])
        for x, t in ((0, 0.4), (5, 2.0)):
            nbrs, rates = c.row(x)
            mu0 = np.zeros(c.n)
            mu0[add(nbrs, neg(x))] = rates / c.row_rates[x]
            assert (alpha_survival(c, x, t)["value"]
                    == c.row_rates[x] * generator_survival(d, ~off, mu0, t))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("start", ["pi_tensor", "distinct"])
    def test_k_particle_law(self, quotient_pair, k, start, monkeypatch):
        c, plain = quotient_pair
        ref = exact_k_particle_law(plain, k, 0.8, start)
        solved = []
        ring_kernel = crw._ring_kernel

        def spy(chain, src, x, move):
            solved.append(int(src.max()) + 1)
            return ring_kernel(chain, src, x, move)

        monkeypatch.setattr(crw, "_ring_kernel", spy)
        got = exact_k_particle_law(c, k, 0.8, start)
        assert solved == [c.n**k]
        assert abs(got["p_coal"] - ref["p_coal"]) <= 1e-10
        assert got["terms"] == ref["terms"]
        if start == "pi_tensor":
            assert abs(got["e_ntk"] - ref["e_ntk"]) <= 1e-10 * c.n**k

    def test_group_found_once_per_chain(self, monkeypatch):
        # the oracles on one chain share one group, and give the outputs
        # they give on chains that each find their own
        g = torus_graph(2, 4)

        def outputs(chain=None):
            """Each oracle's output on ``chain``, or on a fresh chain each."""
            def on():
                return build_generator(g) if chain is None else chain

            prof = pairwise_meeting_times(on())
            return [prof.pairwise.tolist(), prof.t_meet_pi, prof.residual,
                    alpha_survival(on(), 1, 0.7), exact_k_particle_law(on(), 2, 0.7),
                    spectrum(on()).eigenvalues.tolist()]

        want = outputs()
        found = []
        find = chains._translation_group

        def spy(chain):
            found.append(chain)
            return find(chain)

        monkeypatch.setattr(chains, "_translation_group", spy)
        c, other = build_generator(g), build_generator(g)
        assert outputs(c) == want and outputs(c) == want
        assert found == [c]
        assert outputs(other) == want
        assert found == [c, other]

    @pytest.mark.parametrize("rates", ["path", "weighted_cycle", "cycle_with_chord"])
    def test_tag_that_does_not_match_rates_takes_generic_path(self, rates):
        # a cycle tag on rates that are not translation invariant
        if rates == "path":
            r = dense(build_generator(path_graph(6)).csr, 6)
        else:
            r = dense(build_generator(cycle_graph(6)).csr, 6)
            if rates == "weighted_cycle":
                r[2, 3] = r[3, 2] = 0.5
            else:
                r[2, 5] = r[5, 2] = 1.0
        tagged = MarkovChain(6, MarkovChain.from_rates(r).csr, family=("cycle", 6))
        plain = MarkovChain.from_rates(r)
        got, ref = pairwise_meeting_times(tagged), pairwise_meeting_times(plain)
        assert np.array_equal(got.pairwise, ref.pairwise)
        assert got.residual == ref.residual
        assert alpha_survival(tagged, 1, 0.7) == alpha_survival(plain, 1, 0.7)
        for start in ("pi_tensor", "distinct"):
            assert (exact_k_particle_law(tagged, 2, 0.7, start)
                    == exact_k_particle_law(plain, 2, 0.7, start))


def edge_rates(g):
    """A graph's per-edge-unit rates as a dense loop over its edge list."""
    r = np.zeros((g.n, g.n))
    for u, v, m in g.edge_list():
        r[u, v] = r[v, u] = m
    return r


def _csr_cases():
    """(chain, its dense rates) on per-edge-unit and custom chains, tagged
    and untagged, regular and not."""
    graphs = {"cycle8": cycle_graph(8), "torus34": torus_graph(3, 4),
              "complete6": complete_graph(6), "path5": path_graph(5),
              "lollipop": Graph.from_edges(7, [(a, b) for a in range(4) for b in range(a + 1, 4)]
                                           + [(3, 4), (4, 5), (5, 6)]),
              "cm60": irregular_cm(60, 4)}
    cases = {name: (build_generator(g), edge_rates(g)) for name, g in graphs.items()}
    int9 = np.triu(derive_rng(5, "int9", 0).integers(0, 3, (9, 9)).astype(float), 1)
    int9[0, 1:] = 1.0
    for name, r in [("irregular5", IRREGULAR_RATES), ("int9", int9 + int9.T)]:
        cases[name] = (MarkovChain.from_rates(r), r)
    r4 = edge_rates(cycle_graph(4))
    eye = np.eye(4)
    cases["cycle4_pair"] = (product_chain(build_generator(cycle_graph(4))),
                            np.kron(r4, eye) + np.kron(eye, r4))
    return cases


CSR_CASES = _csr_cases()


KRON_CASES = {"barbell": build_generator(barbell(12, 8)),
              "path60": build_generator(path_graph(60)),
              "cm60": build_generator(irregular_cm(60, 3)),
              **{name: CSR_CASES[name][0]
                 for name in ("lollipop", "irregular5", "int9", "cycle4_pair")}}


def kron_alpha(c, x, t):
    """r(x) P(no meeting by t) on the Kronecker pair generator."""
    nbrs, rates = c.row(x)
    rx = float(c.row_rates[x])
    mu0 = np.zeros((c.n, c.n))
    mu0[x, nbrs] = rates / rx
    return rx * generator_survival(pair_generator(c), np.eye(c.n, dtype=bool).ravel(),
                                   mu0.ravel(), t)


class TestPairChainMatchesKronecker:
    """The pair chain applied as QH + HQ against the Kronecker-sum
    reference, on chains with no translation group."""

    @staticmethod
    def check(c, xs, ts):
        assert translation_group(c) is None
        got, want = pairwise_meeting_times(c).pairwise, kron_pairwise(c)
        assert np.array_equal(got == 0.0, np.eye(c.n, dtype=bool))
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        for x in xs:
            for t in ts:
                ref = kron_alpha(c, x, t)
                assert abs(alpha_survival(c, x, t)["value"] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("name", list(KRON_CASES))
    def test_pairwise_and_alpha(self, name):
        c = KRON_CASES[name]
        self.check(c, (0, c.n - 1), (0.4, 2.0))

    def test_past_the_old_cap(self):
        # 360 000 pair states; the Kronecker build stopped at 250 000
        dist = DegreeDistribution.from_pairs([(3, 0.5), (4, 0.5)])
        c = build_generator(sample_configuration_model(dist, 600, derive_rng(1, "kron-cm", 0),
                                                       require_connected=True))
        self.check(c, (0,), (1.0,))


@pytest.fixture(params=list(CSR_CASES), scope="module")
def csr_case(request):
    """A chain and its stand-in built from dense rates."""
    c, r = CSR_CASES[request.param]
    return c, DenseBuilt(r, family=c.family, convention=c.convention)


class TestCsrRatesMatchDense:
    """Every oracle gives the same bits on the CSR rates as on the inputs
    dense rates gave (``conftest.DenseBuilt``)."""

    def test_operators(self, csr_case):
        c, ref = csr_case
        for got, want in zip(c.csr, ref.csr):
            assert np.array_equal(got, want)
        assert np.array_equal(c.row_rates, ref.row_rates)
        q, q_ref = c.generator(), ref.generator()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(q, part), getattr(q_ref, part))

    def test_pairwise_and_alpha(self, csr_case):
        c, ref = csr_case
        got, want = pairwise_meeting_times(c), pairwise_meeting_times(ref)
        assert np.array_equal(got.pairwise, want.pairwise)
        assert (got.t_meet_pi, got.residual) == (want.t_meet_pi, want.residual)
        for x in (0, c.n - 1):
            assert alpha_survival(c, x, 0.7) == alpha_survival(ref, x, 0.7)
            assert (alpha_survival(c, x, 0.7, "mc", 3000, derive_rng(3, "csr", x))
                    == alpha_survival(ref, x, 0.7, "mc", 3000, derive_rng(3, "csr", x)))

    def test_transition_and_subset_oracles(self, csr_case):
        c, ref = csr_case
        assert np.array_equal(transition_matrix(c, 0.9), transition_matrix(ref, 0.9))
        A = [0, 1]
        assert kac_residual(c, A) == kac_residual(ref, A)
        assert (aldous_brown_check(c, A, [0.0, 0.3, 1.2])
                == aldous_brown_check(ref, A, [0.0, 0.3, 1.2]))

    def test_particle_oracles(self, csr_case):
        c, ref = csr_case
        if c.n <= 12:
            assert np.array_equal(exact_occupancy_density(c, [0.2, 0.8]),
                                  exact_occupancy_density(ref, [0.2, 0.8]))
        k = 2 if c.n <= 16 else 1
        for start in ("pi_tensor", "distinct"):
            assert (exact_k_particle_law(c, k, 0.6, start)
                    == exact_k_particle_law(ref, k, 0.6, start))


def parent_exit_measure(r, A):
    """Exit flow and law from A as computed from a dense rate matrix."""
    mask = np.zeros(len(r), dtype=bool)
    mask[list(A)] = True
    pi = 1.0 / len(r)
    flow = pi * r[mask][:, ~mask].sum()
    weights = np.zeros(len(r))
    weights[~mask] = pi * r[mask][:, ~mask].sum(axis=0) / flow
    return flow, weights


def parent_pick_table(r):
    """``chain_pick``'s rate and (target, weight) table as built from a
    dense rate matrix."""
    n = len(r)
    row_rates = r.sum(axis=1)
    r_max = float(row_rates.max())
    rows, cols = r.nonzero()
    nnz = np.bincount(rows, minlength=n)
    stay = np.maximum(0.0, 1.0 - row_rates / r_max)
    width = int(nnz.max()) + int((stay > 0.0).any())
    target = np.repeat(np.arange(n, dtype=np.int64), width).reshape(n, width)
    weight = np.zeros((n, width))
    slot = np.arange(rows.size) - (np.cumsum(nnz) - nnz)[rows]
    target[rows, slot] = cols
    weight[rows, slot] = r[rows, cols] / r_max
    weight[:, -1] += stay
    return r_max, target, weight


class TestDenseReferences:
    """Exit laws and jump tables against the dense formulas they replace."""

    @pytest.mark.parametrize("name", ["int9", "cycle4_pair", "lollipop", "irregular5"])
    def test_exit_measure(self, name):
        # kac_residual against the residual of the dense exit flow and law
        c, r = CSR_CASES[name]
        for size in range(1, c.n):
            for A in itertools.islice(itertools.combinations(range(c.n), size), 40):
                flow, weights = parent_exit_measure(r, A)
                mask = np.isin(np.arange(c.n), A)
                h = meeting._hitting_times(c.generator().dot, mask)[0]
                want = abs(1.0 - mask.sum() / c.n - float(flow) * float(weights @ h))
                if name == "irregular5":
                    # the flow adds the stored rates in row order, the dense
                    # block sum in numpy's order: non-integer rates can move
                    # it by an ulp
                    assert kac_residual(c, A) == pytest.approx(want, rel=0.0, abs=1e-15)
                else:
                    assert kac_residual(c, A) == want

    @pytest.mark.parametrize("name", list(CSR_CASES))
    def test_chain_pick_table(self, name, monkeypatch):
        c, r = CSR_CASES[name]
        r_max, target, weight = parent_pick_table(r)
        keep, alias = _flat._alias_columns(weight)
        width = target.shape[1]
        # the weights chain_pick hands to the alias builder
        seen = []
        build = _flat._alias_columns

        def spy(w):
            seen.append(w.copy())
            return build(w)

        monkeypatch.setattr(_flat, "_alias_columns", spy)
        # one step from every state at a grid of variates, through the
        # alias rule: keep column j below j + keep[x, j], else its alias
        u = np.tile((np.arange(997) + 0.5) / 997, c.n)
        v = np.repeat(np.arange(c.n, dtype=np.int64), 997)
        scaled = u * width
        j = scaled.astype(np.int64)
        want = np.where(scaled < j + keep[v, j], target[v, j], target[v, alias[v, j]])
        got_rate, pick = _flat.chain_pick(c)
        assert got_rate == r_max and np.array_equal(seen[0], weight)
        got = pick(v, u[None].copy(), np.empty((1, v.size), dtype=np.int64))[0]
        assert np.array_equal(got, want)


class TestExitMeasure:
    """The subsets ``kac_residual`` takes its exit law from."""

    def test_bad_subset(self, cycle4_chain):
        with pytest.raises(BadSubset):
            kac_residual(cycle4_chain, [])
        with pytest.raises(BadSubset):
            kac_residual(cycle4_chain, [0, 1, 2, 3])

    @pytest.mark.parametrize("A", [[0.5], [True], [np.True_], [1, 4], [-1], [1, "2"]])
    def test_bad_members(self, cycle4_chain, A):
        # a member is a state: an integer, not a boolean, in range
        with pytest.raises(BadSubset, match="^A must"):
            kac_residual(cycle4_chain, A)

    def test_numpy_members_accepted(self, cycle4_chain):
        assert kac_residual(cycle4_chain, np.array([2])) == kac_residual(cycle4_chain, [2])


class TestKac:
    def test_k2_hand_values(self, k2_chain):
        assert kac_residual(k2_chain, [0]) <= 1e-12

    def test_random_chains(self):
        rng = derive_rng(2, "kac", 0)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            rates = np.zeros((n, n))
            for v in range(1, n):
                u = int(rng.integers(0, v))
                rates[u, v] = rates[v, u] = float(rng.integers(1, 4))
            c = MarkovChain.from_rates(rates)
            A = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            assert kac_residual(c, A) <= 1e-9

    def test_full_set_rejected(self, cycle4_chain):
        with pytest.raises(BadSubset):
            kac_residual(cycle4_chain, range(4))


class TestAldousBrown:
    def test_cycle4_product_diagonal(self, cycle4_chain):
        pc = product_chain(cycle4_chain)
        diag = [x * 4 + x for x in range(4)]
        grid = [round(0.1 * i, 10) for i in range(1, 21)]
        for row in aldous_brown_check(pc, diag, grid):
            assert row["margin_tail"] >= -1e-6
            assert row["margin_density_upper"] >= -1e-6
            assert row["margin_density_lower"] >= -1e-6

    @pytest.mark.parametrize("name", ["cycle4", "path7", "cycle4_pair"])
    def test_one_curve_matches_per_time_calls(self, cycle4_chain, name):
        # the grid shares one uniformization; each margin must equal the
        # one computed from that time alone, bit for bit
        if name == "cycle4":
            c, A = cycle4_chain, [0]
        elif name == "path7":
            c, A = build_generator(path_graph(7)), [0, 6]
        else:
            c, A = product_chain(cycle4_chain), [x * 4 + x for x in range(4)]
        grid = [round(0.1 * i, 10) for i in range(21)] + [3.0, 7.5]
        together = aldous_brown_check(c, A, grid)
        assert together == [aldous_brown_check(c, A, [t])[0] for t in grid]

    def test_negative_time_rejected(self, cycle4_chain):
        with pytest.raises(ParameterOutOfRange):
            aldous_brown_check(cycle4_chain, [0], [0.5, -0.1])

    def test_negative_zero_reported_as_zero(self, cycle4_chain):
        [row] = aldous_brown_check(cycle4_chain, [0], [-0.0])
        assert row == aldous_brown_check(cycle4_chain, [0], [0.0])[0]
        assert not np.signbit(row["t"])

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), True])
    def test_nonfinite_time_rejected(self, cycle4_chain, t):
        # nan used to fail as a raw KeyError
        with pytest.raises(ParameterOutOfRange, match="^t_grid must"):
            aldous_brown_check(cycle4_chain, [0], [0.5, t])

    def test_zero_time_tail_bound(self, cycle4_chain):
        pc = product_chain(cycle4_chain)
        diag = [x * 4 + x for x in range(4)]
        row = aldous_brown_check(pc, diag, [0.0])[0]
        assert row["margin_tail"] >= 0.0

    def test_random_six_state_chains(self):
        rng = derive_rng(3, "ab", 0)
        for _ in range(5):
            rates = np.triu(rng.random((6, 6)) + 0.2, 1)
            rates = rates + rates.T
            c = MarkovChain.from_rates(rates)
            A = rng.choice(6, size=int(rng.integers(1, 5)), replace=False)
            for row in aldous_brown_check(c, A, [0.2, 0.7, 1.5]):
                assert row["margin_tail"] >= -1e-6


class TestEigentime:
    def test_cycle4(self, cycle4_chain):
        assert eigentime_residual(cycle4_chain) <= 1e-8

    def test_complete4(self, complete4_chain):
        # inverse-eigenvalue sum 3/4 equals twice the mean meeting time 3/8
        assert eigentime_residual(complete4_chain) <= 1e-8

    def test_k2_by_hand(self, k2_chain):
        assert spectrum(k2_chain).eigentime_sum() == pytest.approx(0.5, abs=1e-12)
        assert eigentime_residual(k2_chain, assume_transitive=True) <= 1e-8

    def test_requires_transitivity(self):
        c = build_generator(path_graph(3))
        with pytest.raises(NotTransitive):
            eigentime_residual(c)


class TestMeetingIntegralEnvelope:
    @pytest.mark.parametrize(
        "chain_name", ["cycle4_chain", "complete4_chain", "torus33_chain"]
    )
    def test_envelope(self, chain_name, request):
        from coalesce.chains import _return_integral

        c = request.getfixturevalue(chain_name)
        m = pairwise_meeting_times(c).t_meet_pi
        t_rel = spectrum(c).t_rel
        integral_to = _return_integral(c)
        for t in (t_rel, 2 * t_rel, 5.0):
            val = float(integral_to(2.0 * t)[0]) / 2.0
            assert m / (2 * c.n) - 1e-9 <= val <= (m + t) / c.n + 1e-9


class TestMcPairMeeting:
    @pytest.mark.parametrize("n, edges", [(3, [(0, 1)]), (4, [(0, 1), (2, 3)])])
    def test_disconnected_rejected(self, n, edges):
        # an isolated vertex divided by r_min = 0; two components reported a
        # finite mean from the pairs that happened to start together
        with pytest.raises(NotConnected):
            mc_pair_meeting(Graph.from_edges(n, edges), 10, derive_rng(0, "pairmc", 2))

    def test_one_vertex(self):
        # the default budget divided by r_min = 0; both walkers start met
        res = mc_pair_meeting(Graph.from_edges(1, []), 10, derive_rng(0, "pairmc", 7))
        assert (res["mean"], res["stderr"], res["finished"]) == (0.0, 0.0, 10)

    def test_k2_mean(self):
        checks_pass((4, "pairmc", 0), "pair_k2")

    def test_cycle_mean_matches_solve(self):
        # a budget of 50 n / r_min censored a pair on 8 of 20 fresh seeds
        checks_pass((5, "pairmc", 1), "pair_cycle12")

    @pytest.mark.parametrize("reps", [0, -3, 2.5, True])
    def test_rejects_bad_reps(self, reps):
        # 0 and -3 returned a NaN mean
        with pytest.raises(ParameterOutOfRange):
            mc_pair_meeting(cycle_graph(4), reps, derive_rng(0, "pairmc", 3))

    def test_irregular_mean_matches_solve(self):
        # unequal rates exercise the thinned stays at r_max = 4; K2 and the
        # cycle have none
        checks_pass((6, "pairmc", 0), "pair_lollipop")

    def test_one_event_horizon_censors_live_pairs(self):
        # on K2 every pair starts together or meets at its first event
        res = mc_pair_meeting(path_graph(2), 2000, derive_rng(7, "pairmc", 0),
                              horizon_events=1)
        assert (res["finished"], res["censored"]) == (2000, 0)
        # on cycle(6) a pair finishes within one event when it starts
        # together (1/6) or adjacent and the mover steps onto the other (1/6)
        reps = 30_000
        res = mc_pair_meeting(cycle_graph(6), reps, derive_rng(7, "pairmc", 1),
                              horizon_events=1)
        assert res["finished"] + res["censored"] == reps
        p = res["finished"] / reps
        assert abs(p - 1 / 3) <= 4.5 * np.sqrt(2 / 9 / reps)

    @pytest.mark.parametrize("horizon", [-5, 0, float("nan"), 2.5, True, "10"])
    def test_rejects_bad_horizon(self, horizon):
        # -5, 0 and nan censored every pair with distinct starts and
        # returned mean 0.0 from the equal starts alone
        with pytest.raises(ParameterOutOfRange, match="horizon_events"):
            mc_pair_meeting(cycle_graph(6), 10, derive_rng(0, "pairmc", 4),
                            horizon_events=horizon)

    def test_default_budget_counts_uniformized_events(self, lollipop, monkeypatch):
        # 200 n r_max / r_min^2: 200 * 7 * 4 / 1 on the lollipop, and
        # 200 n / 2 on the cycle, as before thinning
        budgets = []
        run = meeting.walk_pairs

        def spy(*args, **kwargs):
            budgets.append(kwargs["max_events"])
            return run(*args, **kwargs)

        monkeypatch.setattr(meeting, "walk_pairs", spy)
        mc_pair_meeting(lollipop, 10, derive_rng(0, "pairmc", 5))
        mc_pair_meeting(cycle_graph(12), 10, derive_rng(0, "pairmc", 6))
        mc_pair_meeting(cycle_graph(12), 10, derive_rng(0, "pairmc", 6),
                        horizon_events=np.int64(7))
        assert budgets == [5600, 1200, 7]

    def test_reports_events_and_stays(self, lollipop):
        # the cycle is regular: no stay; the lollipop thins at r_max = 4
        res = mc_pair_meeting(cycle_graph(12), 2000, derive_rng(9, "pairmc", 0))
        assert res["events"] > 0 and res["thinned"] == 0
        res = mc_pair_meeting(lollipop, 2000, derive_rng(9, "pairmc", 1))
        assert 0 < res["thinned"] < res["events"]

    def test_censored_pairs_bound_the_mean_below(self):
        # a censored pair's last clock precedes its meeting time, so the
        # expectation of mean_lower is at most the mean meeting time
        g = cycle_graph(12)
        short = mc_pair_meeting(g, 4000, derive_rng(8, "pairmc", 0), horizon_events=30)
        full = mc_pair_meeting(g, 4000, derive_rng(8, "pairmc", 0))
        assert short["censored"] > 400
        assert short["censored_fraction"] == short["censored"] / 4000
        assert full["censored"] == 0 and full["censored_fraction"] == 0.0
        assert full["mean_lower"] == full["mean"]
        assert short["mean_lower"] < full["mean"]
        # the finished pairs alone are biased low as well, by more
        assert short["mean"] < short["mean_lower"]


class TestWalkPairs:
    """The uniformized two-walker kernel and its picks."""

    def test_one_event_budget(self):
        r_max, pick = _flat.graph_pick(_flat.FlatGraph(cycle_graph(6)))
        rng = derive_rng(8, "pairs", 0)
        n = 20_000
        # three apart: one jump leaves every pair apart and live
        out, clock, events, _ = _flat.walk_pairs(r_max, pick, np.zeros(n), np.full(n, 3),
                                                 rng, max_events=1)
        assert (out == _flat.BUDGET).all() and (clock > 0.0).all()
        assert (events == 1).all()
        # adjacent: the mover lands on the other walker with probability 1/2
        out, clock, _, _ = _flat.walk_pairs(r_max, pick, np.zeros(n), np.ones(n), rng,
                                            max_events=1)
        assert set(np.unique(out)) == {_flat.MEET, _flat.BUDGET}
        assert abs((out == _flat.MEET).mean() - 0.5) <= 4.5 * np.sqrt(0.25 / n)
        # the first event of a pair at total rate 4 comes after Exp(4)
        assert abs(clock.mean() - 0.25) <= 4.5 * 0.25 / np.sqrt(n)

    def test_same_start_meets_at_zero(self):
        r_max, pick = _flat.graph_pick(_flat.FlatGraph(cycle_graph(6)))
        out, clock, events, _ = _flat.walk_pairs(r_max, pick, [2, 2, 0], [2, 5, 5],
                                                 derive_rng(9, "pairs", 0))
        assert out[0] == _flat.MEET and clock[0] == 0.0 and events[0] == 0
        assert (out == _flat.MEET).all() and (clock[1:] > 0.0).all()

    def test_time_horizon(self):
        r_max, pick = _flat.graph_pick(_flat.FlatGraph(cycle_graph(6)))
        out, clock, _, _ = _flat.walk_pairs(r_max, pick, np.zeros(5000), np.full(5000, 3),
                                            derive_rng(10, "pairs", 0), t_max=0.4)
        timed = out == _flat.TIME
        assert timed.any() and (clock[timed] > 0.4).all()
        assert (clock[out == _flat.MEET] <= 0.4).all()

    def test_chain_pick_law(self):
        # one step from x goes to y with probability r(x, y) / r_max and
        # stays with 1 - r(x) / r_max: on an evenly spaced grid of variates
        # the alias table's frequencies are within its spacing of the law
        c = MarkovChain.from_rates(IRREGULAR_RATES)
        r_max, pick = _flat.chain_pick(c)
        assert r_max == c.row_rates.max()
        n = 1 << 20
        for x in range(5):
            law = dense(c.csr, c.n)[x] / r_max
            law[x] = 1.0 - c.row_rates[x] / r_max
            u = (np.arange(n) + 0.5) / n
            y = pick(np.full(n, x), u[None], np.empty((1, n), dtype=np.int64))[0]
            freq = np.bincount(y, minlength=5) / n
            assert np.abs(freq - law).max() <= 8.0 / n
        # and random variates agree with it in law
        u = derive_rng(11, "pick", 0).random((1, 200_000))
        for x in range(5):
            law = dense(c.csr, c.n)[x] / r_max
            law[x] = 1.0 - c.row_rates[x] / r_max
            y = pick(np.full(u.shape[1], x), u.copy(), np.empty(u.shape, dtype=np.int64))[0]
            freq = np.bincount(y, minlength=5) / u.shape[1]
            assert (np.abs(freq - law) <= 4.5 * np.sqrt(law * (1 - law) / u.shape[1])
                    + 1e-12).all()

    def test_graph_pick_law(self, lollipop):
        # each of the r_max = 4 slots of a vertex holds a neighbor (with
        # multiplicity) or, past its degree, the vertex itself
        r_max, pick = _flat.graph_pick(_flat.FlatGraph(lollipop))
        assert r_max == 4.0
        slots = (np.arange(4) + 0.5) / 4
        c = build_generator(lollipop)
        for x in range(7):
            y = pick(np.full(4, x), slots[None].copy(), np.empty((1, 4), dtype=np.int64))[0]
            law = dense(c.csr, c.n)[x] / r_max
            law[x] = 1.0 - c.row_rates[x] / r_max
            assert np.array_equal(np.bincount(y, minlength=7), 4 * law)
        assert sorted(pick(np.full(4, 3), slots[None].copy(),
                           np.empty((1, 4), dtype=np.int64))[0]) == [0, 1, 2, 4]
        out = pick(np.array([6, 4, 4, 6]), np.array([[0.1, 0.1, 0.6, 0.9]]),
                   np.empty((1, 4), dtype=np.int64))
        assert list(out[0]) == [5, 3, 4, 6]
        # steps chain along the rows of u: 6 -> 5 -> 4 -> 4 (a stay)
        walk = pick(np.array([6]), np.array([[0.1], [0.1], [0.9]]),
                    np.empty((3, 1), dtype=np.int64))
        assert list(walk[:, 0]) == [5, 4, 4]
        u = derive_rng(12, "pick", 0).random((1, 200_000))
        for x in (0, 4, 6):
            law = dense(c.csr, c.n)[x] / r_max
            law[x] = 1.0 - c.row_rates[x] / r_max
            y = pick(np.full(u.shape[1], x), u.copy(), np.empty(u.shape, dtype=np.int64))[0]
            freq = np.bincount(y, minlength=7) / u.shape[1]
            assert (np.abs(freq - law) <= 4.5 * np.sqrt(law * (1 - law) / u.shape[1])
                    + 1e-12).all()

    @pytest.mark.parametrize("graph", ["cycle8", "lollipop"])
    @pytest.mark.parametrize("size", [1, (1 << 16) + 5])
    def test_scalar_replay(self, pair_replay, lollipop, graph, size):
        # the kernel's draws, replayed one event at a time through a scalar
        # slot pick, give the same outcomes, event and stay counts and
        # clocks: at one pair (blocks of 256 steps) and past 2^16 pairs
        # (blocks of 4 steps, then cut to the remaining budget)
        g = cycle_graph(8) if graph == "cycle8" else lollipop
        flat = _flat.FlatGraph(g)
        r_max, pick = _flat.graph_pick(flat)
        width = max(flat.deg)

        def step(x, u):
            j = int(u * width)
            return flat.nbr[flat.off[x] + j] if j < flat.deg[x] else x

        rng = derive_rng(13, "replay-" + graph, size)
        if size == 1:
            runs = [(rng.integers(0, g.n, 2), {}) for _ in range(12)]
            runs.append((np.array([0, 1]), {"max_events": 700}))
            runs.append((np.array([0, 4]), {"t_max": 40.0}))
        else:
            runs = [(rng.integers(0, g.n, (2, size)), {"max_events": 12}),
                    (rng.integers(0, g.n, (2, size)), {"t_max": 0.5})]
        seen = set()
        thinned = 0
        for (a, b), kw in runs:
            out, _, _, stays = pair_replay(r_max, pick, step, np.atleast_1d(a),
                                           np.atleast_1d(b), rng, **kw)
            seen.update(out.tolist())
            thinned += int(stays.sum())
        assert _flat.MEET in seen and (size == 1 or {_flat.BUDGET, _flat.TIME} <= seen)
        # only the lollipop's vertices of degree below 4 stay
        assert (thinned > 0) == (graph == "lollipop")

    def test_same_seed_same_results(self, lollipop):
        c = build_generator(torus_graph(3, 3))
        for run in (
            lambda s: alpha_survival(c, 0, 0.7, mode="mc", reps=3000,
                                     rng=derive_rng(s, "det", 0)),
            lambda s: mc_pair_meeting(lollipop, 3000, derive_rng(s, "det", 1)),
        ):
            assert run(1) == run(1)
            assert run(1) != run(2)
