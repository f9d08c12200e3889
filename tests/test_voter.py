import numpy as np
import pytest
from conftest import checks_pass, task_values

from coalesce.chains import build_generator
from coalesce import runner, voter
from coalesce.crw import (
    _BlockDraws,
    _state_dtype,
    exact_occupancy_density,
    flat_graph,
)
from coalesce.errors import EmptySamples, ParameterOutOfRange
from coalesce.graphs import Graph, cycle_graph, path_graph, torus_graph
from coalesce.seeding import derive_rng
from coalesce.stats import ks_distance_two_sample
from coalesce.voter import (
    duality_gap,
    gamma22_cdf,
    gamma_ks,
    normalized_moments,
    sample_nhat_ancestral,
    simulate_voter,
    size_bias_histogram,
)

C6 = cycle_graph(6)


class TestSimulateVoter:
    def test_time_zero(self):
        rec = simulate_voter(C6, [0.0], derive_rng(0, "voter", 0))
        assert rec["nhat"][0] == 1
        assert rec["n_distinct"][0] == 6
        assert rec["n_0"][0] == 1

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), True])
    def test_bad_grid_rejected(self, t):
        # a NaN grid time used to hang the forward engine
        with pytest.raises(ParameterOutOfRange):
            simulate_voter(cycle_graph(4), [t], derive_rng(0, "voter", 0))

    def test_edgeless_graph_is_frozen(self):
        # nothing rings, so every grid time records the initial state
        rec = simulate_voter(Graph.from_edges(3, []), [0.0, 1.0, 5.0],
                             derive_rng(0, "voter", 1))
        assert rec["nhat"].tolist() == [1, 1, 1]
        assert rec["n_init"].tolist() == [1, 1, 1]
        assert rec["n_distinct"].tolist() == [3, 3, 3]
        assert rec["n_0"].tolist() == [1, 1, 1]

    def test_k2_agreement_probability(self):
        t = 0.4
        nhat = task_values(path_graph(2), "nhat", [t], 20_000, derive_rng(1, "voter", 0))
        p = (nhat[:, 0, 0] == 2).mean()
        expected = 1 - np.exp(-2 * t)
        assert abs(p - expected) <= 4 * np.sqrt(expected * (1 - expected) / 20_000)

    def test_distinct_count_nonincreasing(self):
        grid = np.linspace(0.0, 4.0, 17)
        for rep in range(20):
            rec = simulate_voter(cycle_graph(8), grid, derive_rng(2, "voter", rep))
            assert (np.diff(rec["n_distinct"]) <= 0).all()


class TestDualityGap:
    def test_cycle4_within_bands(self):
        checks_pass(3, "dual_ks", "dual_survival", "dual_invN")

    def test_time_zero_ks(self):
        res = duality_gap(C6, 0.0, 500, derive_rng(4, "dual", 0))
        assert res["ks_nhat_vs_Nt"] == 0.0

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0, True, "1.0"])
    def test_bad_time_rejected(self, t):
        # nan and inf used to hang; -1 returned all-zero gaps
        with pytest.raises(ParameterOutOfRange, match="^t must"):
            duality_gap(C6, t, 100, derive_rng(4, "dual", 1))

    def test_two_path_hand_identity(self):
        # E(1/nhat) = exp(-2t) + (1 - exp(-2t))/2 = (1 + exp(-2t))/2, the density
        t = 0.7
        inv = 1.0 / task_values(path_graph(2), "nhat", [t], 20_000,
                                derive_rng(5, "dual", 0))[:, 0, 0]
        target = (1 + np.exp(-2 * t)) / 2
        assert abs(inv.mean() - target) <= 4 * inv.std(ddof=1) / np.sqrt(len(inv))


class TestLockstepVoterSurvival:
    def test_cycle6_against_exact_occupancy(self):
        # by duality, opinion 0 survives to t exactly when site 0 is
        # occupied at t in the coalescing walk from every site
        times, rows = [0.3, 1.0, 2.5], 20_000
        rec = voter._lockstep_voter(flat_graph(C6, "per_edge_unit"),
                                    _BlockDraws([derive_rng(65, "survival", 0)], rows), rows,
                                    times)
        exact = exact_occupancy_density(build_generator(C6), times)[:, 0]
        for i, p in enumerate(exact):
            hat = (rec["n_0"][:, i] > 0).mean()
            assert abs(hat - p) <= 4.5 * np.sqrt(p * (1 - p) / rows), (times[i], hat, p)


class TestOpinionZeroColumn:
    """The runner's nhat values carry, beside the CSV's nhat, opinion 0's
    cluster size; ``test_lockstep.TestOneLayout`` shows the scalar path
    gives the same values."""

    @staticmethod
    def values(g, times, reps, seed):
        """nhat and opinion 0's cluster size, (replicate, time) each."""
        vals = runner._task_values(g, "per_edge_unit", {"task": "nhat"}, times, reps,
                                   seed)[2]
        return vals[..., 0], vals[..., 1]

    def test_k2_pathwise_and_law(self):
        # on K2 the voters disagree (nhat 1, opinion 0 held once) until the
        # first ring, which leaves opinion 0 held twice or not at all, each
        # with probability (1 - e^{-2t}) / 2
        reps, t = 20_000, 0.4
        nhat, n_0 = self.values(path_graph(2), [0.0, t], reps, 66)
        assert (n_0[:, 0] == 1).all()
        assert ((n_0 == 1) == (nhat == 1)).all() and set(np.unique(n_0)) <= {0, 1, 2}
        p = (1 - np.exp(-2 * t)) / 2
        for k, pk in ((0, p), (1, 1 - 2 * p), (2, p)):
            hat = (n_0[:, 1] == k).mean()
            assert abs(hat - pk) <= 4.5 * np.sqrt(pk * (1 - pk) / reps), (k, hat, pk)

    def test_cycle6_martingale(self):
        # with symmetric rates opinion 0's cluster size is a martingale
        # from 1; at consensus it is 0 or n
        nhat, n_0 = self.values(C6, [0.0, 1.0, 3.0], 5000, 67)
        assert (n_0[:, 0] == 1).all()
        assert np.isin(n_0[nhat == 6], [0, 6]).all() and (n_0 <= 6).all()
        for col in n_0[:, 1:].T:
            assert abs(col.mean() - 1.0) <= 4.5 * col.std(ddof=1) / np.sqrt(len(col))


class TestAncestralSampler:
    def test_matches_forward_law(self):
        t = 1.0
        fwd = task_values(C6, "nhat", [t], 10_000, derive_rng(6, "anc", 0))[:, 0, 0]
        anc = sample_nhat_ancestral(C6, t, 10_000, derive_rng(6, "anc", 1))
        assert ks_distance_two_sample(fwd, anc) <= 1.63 * np.sqrt(2 / 10_000) + 0.01

    def test_multi_draw_shape(self):
        out = sample_nhat_ancestral(C6, 0.5, 100, derive_rng(7, "anc", 0),
                                    draws_per_trajectory=5)
        assert out.shape == (500,)

    @pytest.mark.parametrize("t", [float("nan"), -1.0, float("inf"), "1.0", True])
    def test_bad_time_rejected(self, t):
        with pytest.raises(ParameterOutOfRange):
            sample_nhat_ancestral(cycle_graph(4), t, 10, derive_rng(7, "anc", 1))

    @pytest.mark.parametrize("field, trajectories, draws", [
        ("trajectories", 2.5, 1), ("trajectories", 0, 1), ("trajectories", True, 1),
        ("draws_per_trajectory", 2, 1.5), ("draws_per_trajectory", 2, 0),
    ])
    def test_bad_counts_rejected(self, field, trajectories, draws):
        with pytest.raises(ParameterOutOfRange, match=f"^{field} must"):
            sample_nhat_ancestral(C6, 1.0, trajectories, derive_rng(7, "anc", 1),
                                  draws_per_trajectory=draws)

    def test_isolated_vertex_stays_alone(self):
        g = Graph.from_edges(3, [(0, 1)])
        out = sample_nhat_ancestral(g, 5.0, 2000, derive_rng(7, "anc", 2),
                                    draws_per_trajectory=3)
        assert set(np.unique(out)) == {1, 2}


class TestAncestralExactMoments:
    """E[nhat^k] equals n^k P(k+1 uniform walkers coalesced by t)."""

    @pytest.mark.parametrize("case", ["lollipop", "cycle9"], ids=["lollipop", "cycle9_total_unit"])
    def test_first_two_moments(self, case):
        checks_pass(12, f"anc_{case}_k1", f"anc_{case}_k2")


# C7's graph, on which 1100 trajectories are blocks of 524, 524 and 52 rows
T310 = torus_graph(3, 10)


def t310_sample(trajectories, labels):
    """``labels`` ancestral draws per trajectory on torus(3, 10) at t = 1,
    one row per trajectory."""
    out = sample_nhat_ancestral(T310, 1.0, trajectories, derive_rng(16, "anc-view", 0),
                                draws_per_trajectory=labels)
    return out.reshape(trajectories, labels)


class TestAncestralView:
    """The sampler is a view over the runner's ``tracked_cluster`` blocks at
    one master seed drawn from the caller's generator; row r's label j is
    entry j * width + r of its block's leading uniforms."""

    def test_one_label_is_the_task_column(self):
        rng, ref = derive_rng(16, "anc-view", 0), derive_rng(16, "anc-view", 0)
        out = sample_nhat_ancestral(T310, 1.0, 1100, rng)
        master = int(ref.integers(1 << 63))
        assert rng.bit_generator.state == ref.bit_generator.state
        vals = runner._task_values(T310, "per_edge_unit", {"task": "tracked_cluster"},
                                   [1.0], 1100, master)[2]
        np.testing.assert_array_equal(out, vals[:, 0, 1])

    @pytest.mark.parametrize("labels", [2, 3])
    def test_label_zero_is_the_one_label_draw(self, labels):
        np.testing.assert_array_equal(t310_sample(1100, labels)[:, 0],
                                      t310_sample(1100, 1)[:, 0])

    def test_prefix_stable_across_blocks(self):
        # the first 600 trajectories end past the first block
        assert runner.block_rows(T310.n) == 524
        np.testing.assert_array_equal(t310_sample(600, 2), t310_sample(1100, 2)[:600])

    def test_pass_budget_changes_no_draw(self, monkeypatch):
        run_pass, passes = runner._pass, []

        def spy(flat, task, grid, rngs, count, width):
            passes.append(len(rngs))
            return run_pass(flat, task, grid, rngs, count, width)

        monkeypatch.setattr(runner, "_pass", spy)
        ref = t310_sample(1100, 2)
        # a byte budget below one block runs each block as a pass of its own
        monkeypatch.setattr(runner, "_PASS_BYTES", 1)
        got = t310_sample(1100, 2)
        assert passes == [3, 1, 1, 1]
        np.testing.assert_array_equal(got, ref)


class TestAncestralBlocks:
    """The kernels keep their state in the narrowest integer type that
    holds n."""

    def test_state_dtype(self):
        assert _state_dtype(1) is np.int16
        assert _state_dtype((1 << 15) - 1) is np.int16
        assert _state_dtype(1 << 15) is np.int32

    def test_past_int16_range(self):
        # vertex labels above 2^15 - 1 would wrap in 16-bit state; the
        # 13-row blocks run on the scalar engine
        n = 40_000
        out = sample_nhat_ancestral(cycle_graph(n), 0.05, 2, derive_rng(15, "anc", 0),
                                    draws_per_trajectory=4)
        assert out.shape == (8,) and out.min() >= 1 and out.max() <= n

    def test_voter_kernel_past_int16_range(self):
        n = 40_000
        flat = flat_graph(cycle_graph(n), "per_edge_unit")
        draws = _BlockDraws([derive_rng(15, "voter", 0)], 2)
        nhat = voter._lockstep_voter(flat, draws, 2, [0.05])["nhat"]
        assert nhat.shape == (2, 1) and nhat.min() >= 1 and nhat.max() <= n


class TestSizeBiasIdentity:
    def test_cycle6_bins(self):
        rng = derive_rng(8, "nteq", 0)
        nh = np.empty(20_000, dtype=int)
        ni = np.empty(20_000, dtype=int)
        for r in range(20_000):
            rec = simulate_voter(C6, [1.0], rng)
            nh[r] = rec["nhat"][0]
            ni[r] = rec["n_init"][0]
        for row in size_bias_histogram(nh, ni, 4):
            assert abs(row["diff"]) <= 4.0 * row["se"]

    def test_inverse_cluster_tail_identity(self):
        # mean(1/N 1[N >= M]) = P(n_init >= M) for M in {2, 3}, where opinion
        # 0's cluster size has the law of n_init on the transitive cycle
        reps = 20_000
        n_init = task_values(C6, "nhat", [1.0], reps, derive_rng(9, "tail", 0))[:, 0, 1]
        ncrw = task_values(C6, "tracked_cluster", [1.0], reps,
                           derive_rng(9, "tail", 1))[:, 0, 1].astype(float)
        for m in (2, 3):
            lhs_samples = (1.0 / ncrw) * (ncrw >= m)
            rhs_samples = (n_init >= m).astype(float)
            diff = lhs_samples.mean() - rhs_samples.mean()
            se = np.sqrt(
                lhs_samples.var(ddof=1) / reps + rhs_samples.var(ddof=1) / reps
            )
            assert abs(diff) <= 4.0 * se


class TestNormalizedMoments:
    def test_constant_samples(self):
        res = normalized_moments(np.full(100, 3.7), 4)
        assert res["m"] == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-12)

    def test_synthetic_gamma(self):
        rng = derive_rng(10, "gam", 0)
        x = rng.gamma(2.0, 0.5, size=100_000)
        res = normalized_moments(x, 3, rng=rng)
        assert res["m"][1] == pytest.approx(1.5, abs=0.02)
        assert res["m"][2] == pytest.approx(3.0, abs=0.12)
        lo2, hi2 = res["ci95"][1]
        assert lo2 <= 1.5 <= hi2

    def test_empty_rejected(self):
        with pytest.raises(EmptySamples):
            normalized_moments([], 2)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            normalized_moments([0.0, 0.0], 2)


class TestGammaKs:
    def test_calibration(self):
        rng = derive_rng(11, "ks", 0)
        x = rng.gamma(2.0, 0.5, size=10_000)
        assert gamma_ks(x) <= 1.63 / np.sqrt(10_000)

    def test_cdf_values(self):
        assert gamma22_cdf(0.0) == 0.0
        assert gamma22_cdf(1.0) == pytest.approx(1 - np.exp(-2) * 3, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySamples):
            gamma_ks([])
