import tracemalloc
from functools import partial

import numpy as np
import pytest

from math import comb

from conftest import IRREGULAR_RATES, checks_pass

from coalesce import _flat, theory
from coalesce.chains import MarkovChain, build_generator
from coalesce.errors import (
    DegenerateDepth,
    EmptySamples,
    KTooLarge,
    MissingPsi,
    NonpositiveTime,
    ParameterOutOfRange,
)
from coalesce.graphs import DegreeDistribution, Graph, cycle_graph, size_biased
from coalesce.seeding import derive_rng
from coalesce.theory import (
    alpha_regular_tree,
    bg_prediction,
    branching_integral_mc,
    enumerate_patterns,
    estimate_alpha_D,
    estimate_psi_d,
    exact_density_1d,
    kingman_tau_coal,
    mean_field_predictions,
    psi_d,
    psi_d_horizon,
    reversal_identity_residual,
)

D3 = DegreeDistribution.delta(3)


class TestMeanFieldPredictions:
    def test_consistency_algebra(self):
        # alpha = n / (2 t_meet) makes the two forms coincide
        n, t, t_meet = 100, 3.0, 12.5
        preds = mean_field_predictions(n, t, t_meet, n / (2 * t_meet))
        assert preds["A1"].value == pytest.approx(preds["A2"].value, rel=1e-12)

    def test_full_pipeline_torus310(self):
        # the window t_rel << t << t_meet needs the 10-side torus.  The exact
        # alpha_15 is available there on the difference walk, but it does not
        # mend the A1 half, which sits about 15% above the density (ROADMAP
        # item 4), so the Monte Carlo alpha this check was calibrated on is
        # kept: P_hat / A1 in [1/1.2, 1/0.8], where verify paper's ratio_A1
        # row, on the exact alpha, asks for [0.8, 1.2]
        checks_pass(20, "mf310_A1", "mf310_A2")

    def test_consistency_exact_alpha_torus36(self):
        # exact-mode survival: the alpha-based and meeting-time-based forms
        # agree through 2 * t_meet * alpha_t / n near 1 inside the window
        checks_pass(0, "mf36_exact_alpha")

    def test_zero_time_rejected(self):
        with pytest.raises(NonpositiveTime):
            mean_field_predictions(10, 0.0, 1.0, 1.0)


class TestExactDensity1d:
    def test_matches_subset_chain_on_cycle12(self):
        # t << n^2, so Z's law holds on the cycle up to the uniformization
        # tolerance of the 4096-state subset chain
        from coalesce.crw import exact_occupancy_density

        ts = [0.5, 1.0, 2.0, 4.0]
        c = build_generator(cycle_graph(12), "total_unit")
        for t, occ in zip(ts, exact_occupancy_density(c, ts)):
            assert np.abs(occ - exact_density_1d(t)).max() <= 1e-11

    def test_start_and_lattice_law(self):
        assert exact_density_1d(0.0) == 1.0
        # the ratio to 1/sqrt(pi t) tends to 1 from below
        ratios = [exact_density_1d(t) / bg_prediction(1, t) for t in (10.0, 200.0, 1e6)]
        assert ratios == sorted(ratios) and 0.999 < ratios[1] < ratios[2] < 1.0
        assert exact_density_1d(200.0) * 1e5 == pytest.approx(3988.18, abs=0.01)

    @pytest.mark.parametrize("t", [-1.0, np.inf, np.nan, True, "1"])
    def test_bad_time(self, t):
        with pytest.raises(ParameterOutOfRange):
            exact_density_1d(t)


class TestBgPrediction:
    def test_d1(self):
        assert bg_prediction(1, 100.0) == pytest.approx(0.056418958354775624, abs=1e-12)

    def test_d2(self):
        assert bg_prediction(2, 100.0) == pytest.approx(0.014658711977588557, abs=1e-12)

    def test_d3_needs_psi(self):
        with pytest.raises(MissingPsi):
            bg_prediction(3, 100.0)
        assert bg_prediction(3, 10.0, psi_hat=0.66) == pytest.approx(1 / 6.6)

    def test_domain(self):
        with pytest.raises(NonpositiveTime):
            bg_prediction(2, 1.0)
        with pytest.raises(ParameterOutOfRange):
            bg_prediction(0, 5.0)

    @pytest.mark.parametrize("psi_hat", [float("nan"), 0.0, -1.0, 2.0, float("inf"), True])
    def test_bad_psi_rejected(self, psi_hat):
        # an escape probability is a number in (0, 1]
        with pytest.raises(ParameterOutOfRange, match="^psi_hat must"):
            bg_prediction(3, 10.0, psi_hat=psi_hat)

    def test_psi_one_accepted(self):
        assert bg_prediction(3, 10.0, psi_hat=1.0) == pytest.approx(0.1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_nonfinite_time_rejected(self, d, t):
        # nan used to come back as the prediction
        with pytest.raises(ParameterOutOfRange, match="^t must"):
            bg_prediction(d, t, psi_hat=0.66)


def _no_return_by(d, h):
    """P(simple walk on Z^d avoids the origin at steps 1..h), by evolving
    its law on the box of radius h with the origin absorbing."""
    law = np.zeros((2 * h + 3,) * d)
    origin = (h + 1,) * d
    law[origin] = 1.0
    for _ in range(h):
        law = sum(np.roll(law, s, axis=j) for j in range(d) for s in (-1, 1)) / (2 * d)
        law[origin] = 0.0
    return law.sum()


class TestPsiExact:
    def test_watson_closed_form(self):
        # Watson (1939): 1 - 1/u(3) with u(3) from the Gamma-function form
        assert abs(psi_d(3) - 0.659462670) <= 1e-9

    @pytest.mark.parametrize("d, p_return", [(4, 0.193202), (5, 0.135179), (6, 0.104715)])
    def test_polya_return_probabilities(self, d, p_return):
        assert abs(psi_d(d) - (1.0 - p_return)) <= 1e-5

    def test_recurrent_dimensions(self):
        assert psi_d(1) == 0.0 and psi_d(2) == 0.0

    @pytest.mark.parametrize("d", [0, -1, 2.5, True])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ParameterOutOfRange):
            psi_d(d)


class TestPsiEstimate:
    @pytest.mark.parametrize("d, h", [(1, 2), (1, 7), (1, 40), (2, 20), (3, 24)])
    def test_finite_horizon_law(self, d, h):
        # the estimator's finite-horizon value, not psi_d, is exact here:
        # C(2m, m) / 4^m in d = 1, the absorbed law's mass otherwise
        exact = comb(h - h % 2, h // 2) / 2 ** (h - h % 2) if d == 1 else _no_return_by(d, h)
        if d == 1:
            assert exact == pytest.approx(_no_return_by(1, h), abs=1e-14)
        reps = 40_000
        res = estimate_psi_d(d, h, reps, derive_rng(13, "psi-law", d * 100 + h))
        assert abs(res["psi_hat"] - exact) <= 4.5 * np.sqrt(exact * (1 - exact) / reps)

    @pytest.mark.parametrize("d", [1, 3, 6, 8, 9, 40, 129])
    def test_first_double_step(self, d):
        # back at step 2 with probability 1/(2d).  The (2d)^2 pairs are drawn
        # as bytes with no redraw (d = 1, 8), bytes with redraws (3, 6),
        # 16-bit words (9, 40; two code words at 40) and 32-bit words folded
        # onto their pair (129)
        reps, p = 40_000, 1 / (2 * d)
        res = estimate_psi_d(d, 2, reps, derive_rng(14, f"psi{d}", 0))
        assert abs(res["psi_hat"] - (1 - p)) <= 4.5 * np.sqrt(p * (1 - p) / reps)

    def test_high_dimension_peak_memory(self):
        # the 66 564 direction pairs at d = 129 need only their codes, one
        # entry a pair per code word, not a d-vector of displacements each
        tracemalloc.start()
        try:
            estimate_psi_d(129, 2, 100, derive_rng(14, "psi-peak", 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 << 20

    @pytest.mark.parametrize("seed", range(8))
    def test_nearby_horizons_share_draws(self, seed):
        # two steps more can only lose walks; with draws that depended on
        # the horizon, the two counts would differ by noise of about 30
        a, b = (estimate_psi_d(3, h, 2000, derive_rng(seed, "psi-nest", 0))["psi_hat"]
                for h in (200, 202))
        assert b <= a

    def test_odd_horizon_adds_no_return(self):
        # returns come at even steps only
        runs = [estimate_psi_d(3, h, 2000, derive_rng(15, "psi-odd", 0)) for h in (6, 7)]
        assert runs[0]["psi_hat"] == runs[1]["psi_hat"] and runs[0]["upper_biased"]

    @pytest.mark.parametrize("h", [-5, -1, 2.5, True])
    def test_rejects_bad_horizon(self, h):
        # -5 returned psi_hat 1.0
        with pytest.raises(ParameterOutOfRange):
            estimate_psi_d(3, h, 100, derive_rng(0, "psi", 0))

    @pytest.mark.parametrize("estimator", ["psi", "alpha_D"])
    def test_rejects_fractional_reps(self, estimator):
        # a raw TypeError from numpy before
        with pytest.raises(ParameterOutOfRange):
            if estimator == "psi":
                estimate_psi_d(3, 10, 2.5, derive_rng(0, "psi", 0))
            else:
                estimate_alpha_D(D3, 5, 1.0, 2.5, derive_rng(0, "alphaD", 0))

    def test_same_seed_same_result(self):
        runs = [estimate_psi_d(3, 300, 3000, derive_rng(s, "psi-det", 0)) for s in (1, 1, 2)]
        assert runs[0] == runs[1] != runs[2]

    def test_d1_decays_with_horizon(self):
        values = [
            estimate_psi_d(1, h, 20_000, derive_rng(0, "psi1", 0))["psi_hat"]
            for h in (100, 400, 1600)
        ]
        assert values[0] > values[1] > values[2]

    def test_monotone_under_shared_seed(self):
        # identical draws for the first h steps, so longer horizons only lose
        a = estimate_psi_d(3, 200, 5000, derive_rng(1, "psi3", 0))["psi_hat"]
        b = estimate_psi_d(3, 400, 5000, derive_rng(1, "psi3", 0))["psi_hat"]
        assert b <= a

    def test_d3_value(self):
        # psi_d3_exact: the value the estimator targets at its horizon, exactly
        checks_pass((2, "psi3", 0), "psi_d3", "psi_d3_exact")

    @pytest.mark.slow
    def test_d3_value_full_scale(self):
        res = estimate_psi_d(3, 100_000, 100_000, derive_rng(3, "psi3full", 0))
        assert abs(res["psi_hat"] - 0.659) <= 0.01
        # the value the estimator targets at its horizon, exactly
        assert abs(res["psi_hat"] - psi_d_horizon(3, 100_000)) <= 4.5 * res["stderr"]

    def test_no_reps_rejected(self):
        with pytest.raises(EmptySamples):
            estimate_psi_d(3, 100, 0, derive_rng(0, "psi", 0))

    # estimate_psi_d(d, h, reps, derive_rng(17, "psi-pin", 10_000 d + h)) as
    # the rejection-sampled move words give it, from version 0.6.0; 2047 and
    # 2048 straddle no field width, 2046 and 2047 do.  The ids leave out the
    # values, so a stream change re-pins them under the same ids
    PINNED = [
        (1, 1600, 2000, 0.0175, 0.002932042803234632),
        (2, 300, 2000, 0.3575, 0.01071666342664544),
        (3, 6, 2000, 0.7615, 0.009529369076701774),
        (3, 7, 2000, 0.753, 0.009643417444039223),
        (3, 2000, 2000, 0.6755, 0.010468995892634595),
        (4, 500, 2000, 0.807, 0.008824709626950906),
        (40, 2, 2000, 0.987, 0.0025328837320335107),
        (3, 2046, 1000, 0.677, 0.014787528529135624),
        (3, 2047, 1000, 0.673, 0.014834790190629592),
        (3, 2048, 1000, 0.66, 0.014979986648859203),
        (7, 61, 3000, 0.909, 0.00525099990478004),
        (5, 129, 1500, 0.8726666666666667, 0.008606956703951965),
    ]

    @pytest.mark.parametrize("d, h, reps, psi_hat, stderr", PINNED,
                             ids=[f"{d}-{h}-{reps}" for d, h, reps, *_ in PINNED])
    def test_pinned_results(self, d, h, reps, psi_hat, stderr):
        res = estimate_psi_d(d, h, reps, derive_rng(17, "psi-pin", 10_000 * d + h))
        assert res == {"psi_hat": psi_hat, "stderr": stderr, "upper_biased": True,
                       "horizon_steps": h}

    @pytest.mark.parametrize("d, h", [(1, 0), (3, 1), (3, 6), (3, 2046), (3, 2047),
                                      (3, 2048), (3, 100_000), (7, 61), (40, 2),
                                      (40, 2048)])
    def test_lattice_code_round_trip(self, d, h):
        # every point within +-h must come back from its code, field by
        # field with the sign extended, not only the origin
        bits, place = theory._lattice_code(d, h)
        per_word = 63 // bits
        assert place.shape == (-(-d // per_word), d)
        rng = derive_rng(18, "psi-code", d)
        x = np.concatenate([np.full((1, d), h), np.full((1, d), -h),
                            rng.integers(-h, h + 1, (200, d))])
        x[2, ::2] = -h
        code = x @ place.T
        back = np.zeros_like(x)
        rest = code.copy()
        for j in range(d):
            # the lowest field left in the word, sign-extended, then dropped
            word = rest[:, j // per_word]
            field = word & ((1 << bits) - 1)
            back[:, j] = np.where(field >= 1 << (bits - 1), field - (1 << bits), field)
            rest[:, j // per_word] = (word - back[:, j]) >> bits
        assert not rest.any()
        assert np.array_equal(back, x)
        assert ((code == 0).all(axis=1) == (x == 0).all(axis=1)).all()

    def test_one_word_to_a_walk_in_d3(self):
        assert theory._lattice_code(3, 100_000)[1].shape == (1, 3)
        assert theory._lattice_code(40, 2)[1].shape == (2, 40)


def _renewal_no_return(d, h):
    """P(no return within h steps) from the first-return renewal
    f_m = u_m - sum_{j<m} f_j u_{m-j}, O(m^2), with u_2m from exact
    integers: C(2m, m)/4^m in d = 1, times a(m)/9^m in d = 3 with
    a(m) = sum_k C(m, k)^2 C(2k, k)."""
    u = [1.0]
    for m in range(1, h // 2 + 1):
        u_m = comb(2 * m, m) / 4**m
        if d == 3:
            u_m *= sum(comb(m, k) ** 2 * comb(2 * k, k) for k in range(m + 1)) / 9**m
        u.append(u_m)
    u = np.array(u)
    f = np.zeros_like(u)
    for m in range(1, u.size):
        f[m] = u[m] - f[1:m] @ u[m - 1:0:-1]
    return 1.0 - f.sum()


class TestPsiHorizon:
    @pytest.mark.parametrize("d, h", [(1, 0), (1, 1), (1, 2), (1, 9), (1, 40), (3, 0),
                                      (3, 2), (3, 5), (3, 12), (3, 24)])
    def test_absorbed_law(self, d, h):
        assert psi_d_horizon(d, h) == pytest.approx(_no_return_by(d, h), abs=1e-14)

    def test_d1_central_binomial(self):
        for h in (2, 7, 40, 1000, 10**5):
            m = h // 2
            assert psi_d_horizon(1, h) == pytest.approx(comb(2 * m, m) / 4**m, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("h", [2, 3, 64, 257, 1000])
    def test_renewal_loop(self, d, h):
        assert abs(psi_d_horizon(d, h) - _renewal_no_return(d, h)) <= 1e-14

    def test_known_values(self):
        assert psi_d_horizon(3, 2) == pytest.approx(5 / 6, abs=1e-15)
        assert abs(psi_d_horizon(3, 10_000) - 0.6623322) <= 1e-7
        assert abs(psi_d_horizon(3, 100_000) - 0.6603701) <= 1e-7

    def test_decreases_to_psi3(self):
        values = [psi_d_horizon(3, h) for h in (10, 100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > psi_d(3)
        # the tail of the first-return law is of order h^(-1/2)
        assert values[-1] - psi_d(3) <= 0.001

    def test_odd_horizon_adds_no_return(self):
        assert psi_d_horizon(3, 7) == psi_d_horizon(3, 6)

    @pytest.mark.parametrize("d", [2, 4, 40, 0, 2.5, True])
    def test_other_dimensions_rejected(self, d):
        with pytest.raises(ParameterOutOfRange):
            psi_d_horizon(d, 10)

    @pytest.mark.parametrize("h", [-1, 2.5, True])
    def test_bad_horizon_rejected(self, h):
        with pytest.raises(ParameterOutOfRange):
            psi_d_horizon(3, h)


class TestAlphaD:
    def test_bounds(self):
        res = estimate_alpha_D(D3, 8, 30.0, 2000, derive_rng(4, "alphaD", 0))
        assert 0.0 < res["alpha_hat"] <= 3.0
        assert res["alpha_low"] <= res["alpha_high"]

    def test_degree3_tree_oracle(self):
        # adjacent walkers on the 3-regular tree: the distance chain steps
        # down at rate 2 and up at rate 4, so the never-meet probability is
        # 1/2 and the weighted constant is 3/2
        checks_pass((5, "alphaD", 0), "alpha_D_delta3")

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf"), True])
    def test_rejects_bad_horizon(self, t):
        # -1 returned 3.0; NaN silently ignored the horizon
        with pytest.raises(ParameterOutOfRange):
            estimate_alpha_D(D3, 8, t, 100, derive_rng(0, "alphaD", 0))

    def test_same_seed_same_result(self):
        runs = [estimate_alpha_D(D3, 8, 30.0, 500, derive_rng(s, "alphaD-det", 0))
                for s in (1, 1, 2)]
        assert runs[0] == runs[1] != runs[2]

    def test_forest_growth_and_depth_exit(self):
        rng = derive_rng(7, "forest", 0)
        law = DegreeDistribution.from_pairs([(3, 0.5), (5, 0.5)])
        f = theory._Forest(np.array([2, 4]), theory._sampler(size_biased(law)), rng, 2)
        # a root's slots are all children, grown on first use
        kids = f.pick(np.array([0, 1]), np.array([0.99, 0.0]))
        assert f.size == 2 + 2 + 4 and list(kids) == [3, 4]
        assert list(f.parent[2:8]) == [0, 0, 1, 1, 1, 1] and (f.depth[2:8] == 1).all()
        assert set(f.deg[2:8]) <= {3, 5}
        # slot 0 of a non-root vertex is its parent; the others its children
        v = np.array([3, 3])
        w = f.pick(v, np.array([0.0, 0.99]))
        assert w[0] == 0 and f.parent[w[1]] == 3 and f.depth[w[1]] == 2
        # a jump past the depth ball kills the pair and grows nothing
        size = f.size
        deep = np.array([w[1], w[1]])
        out = f.pick(deep, np.array([0.0, 0.99]))
        assert out[0] == 3 and out[1] == -1 and f.size == size

    @pytest.mark.parametrize("size", [1, (1 << 16) + 5])
    def test_scalar_replay_with_kills(self, pair_replay, size):
        # degrees 3 and 5 at r_max = 5: degree-3 vertices thin, and a depth
        # ball of 3 kills pairs; the kernel's draws replayed one event at a
        # time through a scalar slot rule on the grown trees agree exactly
        law = DegreeDistribution.from_pairs([(3, 0.5), (5, 0.5)])
        rng = derive_rng(14, "forest-replay", size)
        trees = 12 if size == 1 else 1
        kinds = set()
        thinned = 0
        for _ in range(trees):
            f = theory._Forest(theory._sampler(law)(rng.random(size)),
                               theory._sampler(size_biased(law)),
                               derive_rng(15, "grow", size), 3)
            roots = np.arange(size)
            b = f.pick(roots, rng.random(size))
            kids = {}

            def step(x, u):
                j = int(u * 5)
                if j >= f.deg[x]:
                    return x
                if f.parent[x] >= 0:
                    if j == 0:
                        return int(f.parent[x])
                    j -= 1
                if f.depth[x] >= f.max_depth:
                    return -1
                if not kids:
                    # the kernel grew every vertex the replay steps down from
                    for v in range(f.size):
                        kids.setdefault(int(f.parent[v]), []).append(v)
                return kids[x][j]

            out, _, _, stays = pair_replay(5, partial(f.steps, r_max=5), step, roots, b, rng,
                                           t_max=60.0 if size == 1 else 1.5)
            kinds.update(out.tolist())
            thinned += int(stays.sum())
        assert _flat.KILLED in kinds and thinned > 0
        if size > 1:
            assert {_flat.MEET, _flat.TIME} <= kinds

    def test_reports_events_and_stays(self):
        # delta(3) trees never thin at r_max = 3; degrees {3, 5} do at 5
        res = estimate_alpha_D(D3, 8, 30.0, 500, derive_rng(8, "alphaD", 0))
        assert res["events"] > 0 and res["thinned"] == 0
        law = DegreeDistribution.from_pairs([(3, 0.5), (5, 0.5)])
        res = estimate_alpha_D(law, 8, 30.0, 500, derive_rng(8, "alphaD", 1))
        assert 0 < res["thinned"] < res["events"]

    def test_shallow_depth_rejected(self):
        with pytest.raises(DegenerateDepth):
            estimate_alpha_D(D3, 0, 10.0, 100, derive_rng(0, "alphaD", 0))

    @pytest.mark.parametrize("depth", [5.5, "7", True])
    def test_depth_must_be_integer(self, depth):
        # 5.5 ran as depth 6, and "7" ended in a raw TypeError
        with pytest.raises(ParameterOutOfRange, match="^depth must"):
            estimate_alpha_D(D3, depth, 10.0, 100, derive_rng(0, "alphaD", 0))

    def test_regular_tree_closed_form(self):
        assert alpha_regular_tree(3) == 1.5
        assert alpha_regular_tree(4) == pytest.approx(8.0 / 3.0, rel=1e-15)
        for d in (2, 3.5):
            with pytest.raises(ParameterOutOfRange):
                alpha_regular_tree(d)

    def test_degree4_tree_oracle(self):
        # down at rate 2, up at rate 6: never meeting has probability 2/3
        checks_pass((6, "alphaD", 0), "alpha_D_delta4")


class TestKingman:
    def test_n2_is_scaled_exponential(self):
        res = kingman_tau_coal(2, 0.7, 50_000, derive_rng(6, "king", 0))
        assert res["mean_analytic"] == pytest.approx(0.7)
        se = res["samples"].std(ddof=1) / np.sqrt(len(res["samples"]))
        assert abs(res["samples"].mean() - 0.7) <= 4 * se

    def test_n4_mean(self):
        res = kingman_tau_coal(4, 0.5, 50_000, derive_rng(7, "king", 0))
        assert res["mean_analytic"] == pytest.approx(0.75)
        se = res["samples"].std(ddof=1) / np.sqrt(len(res["samples"]))
        assert abs(res["samples"].mean() - 0.75) <= 4 * se

    def test_complete4_law_match(self):
        checks_pass(8, "complete4_ks")

    def test_parameters_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            kingman_tau_coal(1, 1.0, 10, derive_rng(0, "king", 0))
        with pytest.raises(ParameterOutOfRange):
            kingman_tau_coal(4, 0.0, 10, derive_rng(0, "king", 0))

    @pytest.mark.parametrize("field, args", [
        ("n", (2.5, 1.0, 10)), ("n", (True, 1.0, 10)), ("reps", (4, 1.0, 0)),
        ("reps", (4, 1.0, 2.5)), ("M", (4, float("nan"), 10)), ("M", (4, float("inf"), 10)),
    ])
    def test_field_named(self, field, args):
        with pytest.raises(ParameterOutOfRange, match=f"^{field} must"):
            kingman_tau_coal(*args, derive_rng(0, "king", 0))


class TestPatterns:
    def test_k1(self):
        assert enumerate_patterns(1) == [[0, 0]]

    @pytest.mark.parametrize("k,count", [(2, 2), (3, 6), (4, 24), (6, 720)])
    def test_counts(self, k, count):
        pats = enumerate_patterns(k)
        assert len(pats) == count
        for p in pats:
            assert p[0] == 0 and p[1] == 0
            assert all(0 <= p[l] <= l - 1 for l in range(1, k + 1))
        assert pats == sorted(pats)

    def test_k_bounds(self):
        with pytest.raises(KTooLarge):
            enumerate_patterns(7)
        with pytest.raises(KTooLarge):
            enumerate_patterns(0)


class TestBranchingIntegral:
    def test_k2_closed_form(self, k2_chain):
        t = 1.0
        res = branching_integral_mc(k2_chain, 1, t, 50_000, derive_rng(9, "br", 0))
        closed = (1 - np.exp(-2 * t)) / 2
        assert abs(res["estimate"] - closed) <= 3.0 * res["stderr"]

    def test_zero_time(self, k2_chain):
        res = branching_integral_mc(k2_chain, 1, 0.0, 100, derive_rng(0, "br", 0))
        assert res["estimate"] == 0.0

    def test_matches_pair_chain_integral(self):
        # k = 1 sum equals the integral of the pair-meeting density weight
        from coalesce.crw import exact_k_particle_law

        c = build_generator(cycle_graph(3))
        t = 0.5
        res = branching_integral_mc(c, 1, t, 50_000, derive_rng(10, "br", 0))
        cond = exact_k_particle_law(c, 1, t, "distinct")["p_coal"]
        exact = 3 * cond * (1 - 1 / 3) / 2.0  # n P(coal, distinct) / 2!
        assert abs(res["estimate"] - exact) <= 3.0 * res["stderr"]

    def test_k_cap(self, k2_chain):
        with pytest.raises(KTooLarge):
            branching_integral_mc(k2_chain, 4, 1.0, 10, derive_rng(0, "br", 0))

    @pytest.mark.parametrize("field, k, t, reps", [
        # a nonfinite t used to hang, and no replicates divided by zero
        ("t", 1, float("nan"), 10), ("t", 1, float("inf"), 10), ("t", 1, -1.0, 10),
        ("reps", 1, 1.0, 0), ("reps", 1, 1.0, 2.5), ("k", 1.5, 1.0, 10), ("k", 0, 1.0, 10),
    ])
    def test_bad_inputs_rejected(self, k2_chain, field, k, t, reps):
        with pytest.raises(ParameterOutOfRange, match=f"^{field} must"):
            branching_integral_mc(k2_chain, k, t, reps, derive_rng(0, "br", 0))


class TestReversalIdentity:
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_k2_k1(self, k2_chain, t):
        res = reversal_identity_residual(k2_chain, 1, t, 50_000, derive_rng(11, "rv", 0))
        assert res["residual"] <= 3.0

    def test_cycle3_k2(self):
        c = build_generator(cycle_graph(3))
        res = reversal_identity_residual(c, 2, 0.5, 50_000, derive_rng(12, "rv", 0))
        assert res["residual"] <= 3.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_irregular_rates(self, k):
        # unequal row rates: a newborn stays on its parent with probability
        # 1 - r(parent) / r_max, so each birth weighs r_max; scoring births
        # at the mean rate read residuals of 140 to 200 here
        c = MarkovChain.from_rates(IRREGULAR_RATES)
        res = reversal_identity_residual(c, k, 0.5, 100_000, derive_rng(13, "rv", k))
        assert res["residual"] <= 4.0

    def test_zero_time(self, k2_chain):
        res = reversal_identity_residual(k2_chain, 1, 0.0, 100, derive_rng(0, "rv", 0))
        assert res["residual"] == 0.0

    def test_one_state_chain(self):
        # r_max = 0: every newborn lands on its parent.  Both divided by zero
        one = build_generator(Graph.from_edges(1, []))
        res = branching_integral_mc(one, 2, 1.0, 100, derive_rng(0, "br", 0))
        assert (res["estimate"], res["stderr"]) == (0.0, 0.0)
        with pytest.raises(ParameterOutOfRange, match="more walkers than vertices"):
            reversal_identity_residual(one, 1, 1.0, 100, derive_rng(0, "rv", 0))

    @pytest.mark.parametrize("reps", [1, 0, 2.5])
    def test_needs_two_replicates(self, k2_chain, reps):
        # one replicate has no standard error: the residual used to be inf
        with pytest.raises(ParameterOutOfRange, match="^reps must"):
            reversal_identity_residual(k2_chain, 1, 1.0, reps, derive_rng(0, "rv", 0))
