"""Tests for the squared-infinity-norm relaxation and its prox machinery."""

import math

import numpy as np
import pytest

from onebit_mimo import (
    SolverResult,
    SymbolFrame,
    SystemConfig,
    brute_force_qp,
    estimate_gradient_lipschitz,
    gen_rayleigh_channel,
    get_constellation,
    linear_quantized_precode,
    optimal_beta_for,
    prox_sq_inf,
    qp_objective,
    real_embed,
    squid_precode,
    squid_relax,
    stack_real,
    zf_matrix,
)
from onebit_mimo import squid
from onebit_mimo.squid import (
    REFINEMENT_ROUNDS,
    _clip_level,
    _greedy_sign_refine,
    _lsq_prox_gain,
)

from oracles import (
    bisection_prox_sq_inf,
    grid_search_linf_sq_2d,
    sequential_sign_refine,
    sorted_clip_level,
    sq_inf_prox_objective,
)


class TestObjective:
    """The objective ``squid_relax`` reports, recomputed from its iterate."""

    @staticmethod
    def _relaxed_objective(b_r, h_r, s_r, cfg):
        num_ues, num_antennas = h_r.shape[0] // 2, h_r.shape[1] // 2
        num_slots = s_r.shape[1]
        penalty = (2 * num_ues * num_antennas * num_slots
                   * cfg.noise_var / cfg.transmit_power)
        return (np.sum((s_r - h_r @ b_r) ** 2)
                + penalty * np.max(np.abs(b_r)) ** 2)

    def test_zero_vector_gives_signal_energy(self):
        # the solver starts from b = 0, where the objective is ||s||^2 and
        # its own dual bound certifies it; a silent channel makes it optimal
        cfg = SystemConfig(3, 2, 1, noise_var=0.5)
        frame = SymbolFrame.random(get_constellation("16qam"), 2, 1, seed=1)
        res = squid_relax(np.zeros((4, 6)), stack_real(frame.s), cfg)
        assert res.converged
        assert np.array_equal(res.x, np.zeros((6, 1)))
        assert res.objective == pytest.approx(
            np.sum(np.abs(frame.s) ** 2), rel=1e-12)

    def test_equal_magnitude_penalty_collapses_to_l2_form(self):
        # an identity channel and a frame of equal entries s (1 + j) give a
        # relaxed optimum with equal-magnitude entries; there the inf-norm
        # penalty equals (U N0 / P) ||b||^2
        num_ues = num_antennas = 3
        num_slots = 2
        cfg = SystemConfig(num_antennas, num_ues, num_slots,
                           noise_var=0.25, transmit_power=2.0)
        h_r = real_embed(np.eye(num_ues, dtype=complex))
        s_r = stack_real(0.8 * (1 + 1j) * np.ones((num_ues, num_slots)))
        res = squid_relax(h_r, s_r, cfg, max_iters=5000, rel_tol=1e-14)
        b_r = res.x
        assert b_r.shape == (2 * num_antennas, num_slots)
        assert np.allclose(np.abs(b_r), np.abs(b_r[0, 0]), rtol=1e-9, atol=0)
        l2_form = (np.sum((s_r - h_r @ b_r) ** 2)
                   + (num_ues * cfg.noise_var / cfg.transmit_power)
                   * np.sum(b_r ** 2))
        assert res.objective == pytest.approx(l2_form, rel=1e-12)

    def test_matches_independent_recomputation(self):
        cfg = SystemConfig(6, 2, 3, noise_var=1.5 / 10.0 ** (3.0 / 10.0),
                           transmit_power=1.5)
        h = gen_rayleigh_channel(2, 6, seed=2)
        frame = SymbolFrame.random(get_constellation("64qam"), 2, 3, seed=3)
        h_r, s_r = real_embed(h), stack_real(frame.s)
        res = squid_relax(h_r, s_r, cfg, max_iters=40)
        assert res.objective == pytest.approx(
            self._relaxed_objective(res.x, h_r, s_r, cfg), rel=1e-12)
        # one fixed-point residual per iteration
        assert res.history.shape == (res.iterations,)

    def test_no_drift_at_paper_size(self):
        # the reported objective is the relaxed objective at the returned x
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=16.0)
        h = gen_rayleigh_channel(16, 128, seed=60)
        frame = SymbolFrame.random(get_constellation("16qam"), 16, 10, seed=61)
        h_r, s_r = real_embed(h), stack_real(frame.s)
        res = squid_relax(h_r, s_r, cfg)
        assert isinstance(res, SolverResult)
        assert res.converged and res.iterations > 50
        assert res.history.shape == (res.iterations,)
        assert res.objective == pytest.approx(
            self._relaxed_objective(res.x, h_r, s_r, cfg), rel=1e-10)

    def test_returned_iterate_outlives_the_loop_buffers(self):
        # the loop overwrites its iterate in place, so the kept point must be
        # a copy: at every budget the objective is that of the returned x,
        # and a later call leaves an earlier result's x as it was
        cases = []
        for num_antennas, num_ues, num_slots, budgets, seed in (
                (6, 2, 3, range(1, 13), 4), (128, 16, 10, (7,), 62)):
            cfg = SystemConfig.from_snr_db(num_antennas, num_ues, num_slots,
                                           snr_db=8.0)
            h_r = real_embed(gen_rayleigh_channel(num_ues, num_antennas, seed=seed))
            s_r = stack_real(SymbolFrame.random(
                get_constellation("16qam"), num_ues, num_slots, seed=seed + 1).s)
            cases += [(h_r, s_r, cfg, budget) for budget in budgets]
        for h_r, s_r, cfg, budget in cases:
            res = squid_relax(h_r, s_r, cfg, max_iters=budget)
            kept = res.x.copy()
            assert res.objective == pytest.approx(
                self._relaxed_objective(res.x, h_r, s_r, cfg), rel=1e-12)
            squid_relax(h_r, s_r, cfg, max_iters=budget + 1)
            assert np.array_equal(res.x, kept)


class TestClipLevel:
    """The warm-startable clip-level search behind the prox."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(21)
        # paper scale, n = 2BK = 2560, from a wide active set to one entry
        for tau in (98.5, 15.6, 2.5, 0.05):
            yield rng.standard_normal(2560), tau
        single = np.zeros(2560)
        single[17] = -1.7
        for tau in (0.01, 1.0, 100.0):
            yield single, tau
        tied = np.repeat([2.0, -2.0, 1.0, -0.5, 0.5], [5, 3, 4, 6, 2])
        for tau in (0.1, 3.0, 6.0, 50.0):
            yield tied, tau

    def test_matches_sort_and_bisection_from_any_guess(self):
        for v, tau in self._cases():
            mags = np.abs(v)
            root = sorted_clip_level(mags, tau)
            bisected = float(np.max(np.abs(bisection_prox_sq_inf(v, tau))))
            assert abs(bisected - root) <= 1e-12
            # a guess above the root must not lose the entries between them;
            # one just below it takes the active set from the entries above
            # it alone; one so close to it on either side that no entry
            # lies between them ends the search after its first pass; and
            # every guess gives the level from 0 exactly
            cold = _clip_level(mags, tau, 0.0)
            for guess in (0.0, 0.5 * root, root, 10.0 * root,
                          np.nextafter(root, 0.0), root * (1.0 - 1e-9),
                          root * (1.0 - 1e-3), np.nextafter(root, np.inf),
                          root * (1.0 + 1e-9), root * (1.0 + 1e-3)):
                t = _clip_level(mags, tau, guess)
                assert abs(t - root) <= 1e-12 and abs(t - bisected) <= 1e-12
                assert t == cold

    def test_entry_between_guess_and_root_is_not_lost(self):
        # the root is 5/6 with 4 and 1 active; each guess leaves one
        # magnitude strictly between itself and the root (0.3 above 0.1, 1
        # below 1.5), so the first pass does not hold the final set
        mags, tau = np.array([4.0, 1.0, 0.3]), 2.0
        assert sorted_clip_level(mags, tau) == 5.0 / 6.0
        for guess in (0.1, 1.5):
            assert _clip_level(mags, tau, guess) == 5.0 / 6.0

    @pytest.mark.parametrize("snr_db", [0.0, 8.0, 16.0])
    def test_warm_start_leaves_the_relaxation_unchanged(self, snr_db,
                                                        monkeypatch):
        # every guess gives the level from 0 exactly, so a run that starts
        # each clip-level search from 0 takes the same path bit for bit
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=snr_db)
        for seed in range(60, 62):
            h_r = real_embed(gen_rayleigh_channel(16, 128, seed=seed))
            s_r = stack_real(SymbolFrame.random(get_constellation("16qam"),
                                                16, 10, seed=100 + seed).s)
            warm = squid_relax(h_r, s_r, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(squid, "_clip_level",
                              lambda mags, tau, guess: _clip_level(mags, tau, 0.0))
                cold = squid_relax(h_r, s_r, cfg)
            assert np.array_equal(warm.x, cold.x)
            assert warm.objective == cold.objective
            assert warm.iterations == cold.iterations
            assert np.array_equal(warm.history, cold.history)


class TestProxSqInf:
    def test_zero_weight_is_identity(self):
        v = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(prox_sq_inf(v, 0.0), v)

    def test_zero_vector_fixed_point(self):
        assert np.array_equal(prox_sq_inf(np.zeros(5), 2.0), np.zeros(5))

    def test_worked_two_point_case(self):
        # magnitudes (3, 1), tau = 1/2: threshold t solves t = (3 - t), t = 3/2
        out = prox_sq_inf(np.array([3.0, -1.0]), 0.5)
        assert np.allclose(out, [1.5, -1.0], atol=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 65))
            v = rng.standard_normal(n) * 10 ** rng.uniform(-2, 2)
            tau = 10 ** rng.uniform(-3, 2)
            assert np.allclose(prox_sq_inf(v, tau),
                               bisection_prox_sq_inf(v, tau), atol=1e-9)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(12) * 3.0
        tau = 0.7
        x = prox_sq_inf(v, tau)
        f_star = sq_inf_prox_objective(x, v, tau)
        for _ in range(10000):
            probe = x + rng.standard_normal(12) * rng.uniform(1e-4, 1.0)
            assert f_star <= sq_inf_prox_objective(probe, v, tau) + 1e-12

    def test_stationarity_equation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.standard_normal(int(rng.integers(1, 40))) * 5.0
            tau = 10 ** rng.uniform(-2, 1.5)
            x = prox_sq_inf(v, tau)
            t = np.max(np.abs(x))
            residual = 2 * tau * t - np.maximum(np.abs(v) - t, 0.0).sum()
            assert abs(residual) < 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            v1 = rng.standard_normal(n) * 4.0
            v2 = rng.standard_normal(n) * 4.0
            tau = 10 ** rng.uniform(-2, 2)
            lhs = np.linalg.norm(prox_sq_inf(v1, tau) - prox_sq_inf(v2, tau))
            assert lhs <= np.linalg.norm(v1 - v2) + 1e-12

    def test_negative_weight_rejected(self):
        # NaN fails tau >= 0 too, rather than clipping everything to NaN
        for tau in (-0.1, np.nan):
            with pytest.raises(ValueError):
                prox_sq_inf(np.ones(3), tau)

    @pytest.mark.parametrize("tau", (1.0, 0.0))
    @pytest.mark.parametrize("v", ([math.inf, 1.0], [math.nan, 1.0, -2.0],
                                   [1.0, -math.inf]), ids=("inf", "nan", "minus_inf"))
    def test_nonfinite_entry_rejected(self, v, tau):
        # no finite level minimizes the prox objective there; clipping would
        # return [inf, 1] or [nan, 0.75, -0.75] as if it were the answer
        with pytest.raises(ValueError, match="must be finite"):
            prox_sq_inf(np.array(v), tau)


class TestSquidRelax:
    def test_huge_noise_drives_solution_to_zero(self):
        cfg = SystemConfig(4, 2, 2, noise_var=1e7, transmit_power=1.0)
        h = gen_rayleigh_channel(2, 4, seed=7)
        frame = SymbolFrame.random(get_constellation("qpsk"), 2, 2, seed=8)
        res = squid_relax(real_embed(h), stack_real(frame.s), cfg)
        assert np.max(np.abs(res.x)) < 1e-6
        assert res.objective == pytest.approx(np.sum(np.abs(frame.s) ** 2),
                                              rel=1e-6)

    def test_matches_dense_grid_on_scalar_system(self):
        cfg = SystemConfig(1, 1, 1, noise_var=0.3, transmit_power=1.0)
        h = np.array([[1.0 + 0j]])
        s = np.array([[0.9 - 0.4j]])
        res = squid_relax(real_embed(h), stack_real(s), cfg,
                          max_iters=5000, rel_tol=1e-12)
        penalty = 2 * cfg.noise_var / cfg.transmit_power  # 2UBK N0 / P, all dims 1
        s_r2 = stack_real(s).ravel()
        grid_obj, _ = grid_search_linf_sq_2d(s_r2, penalty,
                                             half_width=1.5, step=1e-3)
        assert abs(res.objective - grid_obj) <= 1e-4

    def test_fixed_point_residual_never_rises(self):
        # the relaxed Douglas-Rachford operator is averaged, hence nonexpansive
        cfg = SystemConfig.from_snr_db(16, 4, 3, snr_db=5.0)
        h = gen_rayleigh_channel(4, 16, seed=9)
        frame = SymbolFrame.random(get_constellation("16qam"), 4, 3, seed=10)
        res = squid_relax(real_embed(h), stack_real(frame.s), cfg,
                          max_iters=300, rel_tol=1e-15)
        assert res.history.shape == (300,)
        assert np.all(np.diff(res.history) <= 1e-10 * res.history[0])

    def test_never_worse_than_zero_vector(self):
        cfg = SystemConfig.from_snr_db(8, 2, 2, snr_db=0.0)
        h = gen_rayleigh_channel(2, 8, seed=11)
        frame = SymbolFrame.random(get_constellation("8psk"), 2, 2, seed=12)
        res = squid_relax(real_embed(h), stack_real(frame.s), cfg, max_iters=3)
        assert res.objective <= np.sum(np.abs(frame.s) ** 2) + 1e-12

    def test_relaxation_lower_bounds_discrete_optimum(self):
        # the relaxed feasible set contains every discrete candidate
        cfg = SystemConfig(2, 1, 1, noise_var=0.2)
        for seed in range(5):
            h = gen_rayleigh_channel(1, 2, seed=40 + seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1,
                                       seed=50 + seed)
            res = squid_relax(real_embed(h), stack_real(frame.s), cfg,
                              max_iters=20000, rel_tol=1e-14)
            x_best = brute_force_qp(frame.s, h, cfg).x
            discrete = qp_objective(frame.s, h, x_best,
                                    optimal_beta_for(frame.s, h @ x_best, cfg.noise_var),
                                    cfg.noise_var)
            assert res.objective <= discrete + 1e-9

    def test_complex_inputs_rejected(self):
        # the relaxation works on the real embedding only
        cfg = SystemConfig(4, 2, 2, noise_var=0.1)
        h = gen_rayleigh_channel(2, 4, seed=7)
        frame = SymbolFrame.random(get_constellation("qpsk"), 2, 2, seed=8)
        with pytest.raises(TypeError):
            squid_relax(h, frame.s, cfg)
        with pytest.raises(TypeError):
            squid_relax(real_embed(h), frame.s, cfg)

    # a NaN in the frame would run out the iteration budget and an inf
    # overflow the dual bound, so both are rejected, as real_embed rejects
    # a non-finite channel
    @pytest.mark.parametrize("channel_shape, frame_shape, fill, budget, message", [
        ((4, 4), (4, 2), 1.0, {"max_iters": 0}, "max_iters must be >= 1"),
        ((4, 4), (4, 2), 1.0, {"rel_tol": 0.0}, "rel_tol must be finite and > 0"),
        ((4, 4), (6, 2), 1.0, {}, "dimensions disagree"),
        ((4, 4), (4, 2), 1.0, {"rel_tol": math.inf}, "rel_tol must be finite and > 0"),
        ((4, 4), (4, 2), 1.0, {"max_iters": 2.5}, "max_iters must be an integer"),
        ((4, 4), (4, 2), math.nan, {}, "frame entries must be finite"),
        ((4, 4), (4, 2), math.inf, {}, "frame entries must be finite"),
        ((4, 4), (4,), 1.0, {}, r"must be 2-D, got shapes \(4, 4\) and \(4,\)"),
        ((4,), (4, 2), 1.0, {}, r"must be 2-D, got shapes \(4,\) and \(4, 2\)"),
    ], ids=["max_iters", "rel_tol", "shape_mismatch", "rel_tol_inf", "max_iters_float",
            "frame_nan", "frame_inf", "frame_1d", "channel_1d"])
    def test_invalid_arguments_rejected(self, channel_shape, frame_shape, fill, budget,
                                        message):
        s_r = np.ones(frame_shape)
        s_r.flat[2] = fill  # entry (1, 0) of a 2-D frame
        with pytest.raises(ValueError, match=message):
            squid_relax(np.ones(channel_shape), s_r,
                        SystemConfig(2, 2, 2, noise_var=0.1), **budget)

    def test_lipschitz_estimate_tracks_eigenvalue(self):
        rng = np.random.default_rng(13)
        h_r = rng.standard_normal((8, 12))
        lam = np.linalg.eigvalsh(h_r.T @ h_r)[-1]
        assert estimate_gradient_lipschitz(h_r @ h_r.T) == pytest.approx(2 * lam,
                                                                       rel=1e-12)

    @pytest.mark.parametrize("num_antennas, num_ues, num_slots",
                             [(8, 2, 3), (128, 16, 10)])
    def test_woodbury_prox_matches_dense_solve(self, num_antennas, num_ues,
                                               num_slots):
        # prox of gamma ||s - H_R b||^2 at z solves the 2B x 2B system
        h_r = real_embed(gen_rayleigh_channel(num_ues, num_antennas, seed=23))
        s_r = stack_real(SymbolFrame.random(get_constellation("16qam"), num_ues,
                                            num_slots, seed=24).s)
        z = np.random.default_rng(25).standard_normal((2 * num_antennas, num_slots))
        for gamma in (1e-3, 0.1, 10.0):
            dense = np.linalg.solve(np.eye(2 * num_antennas) + 2 * gamma * h_r.T @ h_r,
                                    z + 2 * gamma * h_r.T @ s_r)
            got = z + _lsq_prox_gain(h_r, h_r @ h_r.T, gamma) @ (s_r - h_r @ z)
            assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


class TestDualCertificate:
    """A Fenchel dual bound certifies how close ``squid_relax`` gets.

    With P(b) = ||s_r - H_R b||^2 + lam ||b||_inf^2, lam = 2UBK N0 / P, and
    r = s_r - H_R b, every b gives D = 2<r, s_r> - ||r||^2 - ||H_R^T r||_1^2
    / lam <= P* <= P(b), since ||u||^2 >= 2<r, u> - ||r||^2 for every u and
    2 |<H_R^T r, b>| <= 2 ||H_R^T r||_1 ||b||_inf <= lam ||b||_inf^2 +
    ||H_R^T r||_1^2 / lam.
    """

    #: (P - D) / P at the default stop, per SNR: twice the largest gap over
    #: 20 paper-point instances drawn from other seeds (channel seeds
    #: 1000-1009, and the trial draws of master seeds 1-5), which measured
    #: 1.0e-3, 2.5e-3 and 1.3e-2 under an objective-change stop; the gap
    #: stop leaves 7.7e-4, 3.7e-3 and 2.0e-2 on them
    GAP_BOUND = {0.0: 2e-3, 8.0: 5e-3, 16.0: 2.5e-2}

    @staticmethod
    def _certify(h, s, cfg, **budget):
        """The result with (P, D) at its solution, P recomputed from its
        iterate."""
        h_r, s_r = real_embed(h), stack_real(s)
        res = squid_relax(h_r, s_r, cfg, **budget)
        lam = (2 * cfg.num_ues * cfg.num_bs_antennas * cfg.num_slots
               * cfg.noise_var / cfg.transmit_power)
        r = s_r - h_r @ res.x
        primal = np.sum(r * r) + lam * np.max(np.abs(res.x)) ** 2
        assert primal == pytest.approx(res.objective, rel=1e-9)
        dual = (2 * np.sum(r * s_r) - np.sum(r * r)
                - np.sum(np.abs(h_r.T @ r)) ** 2 / lam)
        return res, primal, dual

    @pytest.mark.parametrize("snr_db", sorted(GAP_BOUND))
    def test_gap_at_the_paper_point(self, snr_db):
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=snr_db)
        for seed in range(70, 73):
            h = gen_rayleigh_channel(16, 128, seed=seed)
            frame = SymbolFrame.random(get_constellation("16qam"), 16, 10,
                                       seed=100 + seed)
            _, primal, dual = self._certify(h, frame.s, cfg)
            assert dual <= primal
            assert (primal - dual) / primal < self.GAP_BOUND[snr_db]

    @pytest.mark.parametrize("snr_db", sorted(GAP_BOUND))
    def test_converged_result_meets_its_stop(self, snr_db):
        # the stop is P - D <= rel_tol ||s||^2 at the returned x
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=snr_db)
        for seed in range(80, 83):
            h = gen_rayleigh_channel(16, 128, seed=seed)
            frame = SymbolFrame.random(get_constellation("16qam"), 16, 10,
                                       seed=100 + seed)
            res, primal, dual = self._certify(h, frame.s, cfg)
            assert res.converged
            assert 0 <= primal - dual <= squid.REL_TOL * np.sum(np.abs(frame.s) ** 2)

    @pytest.mark.parametrize("snr_db", sorted(GAP_BOUND))
    def test_over_relaxation_saves_iterations(self, snr_db, monkeypatch):
        # the plain update (RELAXATION = 1) and the module's both meet the
        # stop, so their objectives agree to within the larger gap; on 50
        # calibration instances per SNR (channel seeds 3000-3049) the relaxed
        # run never took more iterations, and fewer on all but one at 16 dB
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=snr_db)
        relaxation = squid.RELAXATION
        totals = {1.0: 0, relaxation: 0}
        for seed in range(90, 93):
            h = gen_rayleigh_channel(16, 128, seed=seed)
            s = SymbolFrame.random(get_constellation("16qam"), 16, 10,
                                   seed=100 + seed).s
            objectives, gaps = [], []
            for alpha in totals:
                monkeypatch.setattr(squid, "RELAXATION", alpha)
                res, primal, dual = self._certify(h, s, cfg)
                assert res.converged
                assert 0 <= primal - dual <= squid.REL_TOL * np.sum(np.abs(s) ** 2)
                totals[alpha] += res.iterations
                objectives.append(primal)
                gaps.append(primal - dual)
            assert abs(objectives[1] - objectives[0]) <= max(gaps)
        assert totals[relaxation] < totals[1.0]

    def test_gap_closes_with_a_tight_tolerance(self):
        # 9.9e-9 after 250 iterations when measured
        cfg = SystemConfig.from_snr_db(8, 2, 3, snr_db=5.0)
        h = gen_rayleigh_channel(2, 8, seed=18)
        frame = SymbolFrame.random(get_constellation("16qam"), 2, 3, seed=19)
        _, primal, dual = self._certify(h, frame.s, cfg, rel_tol=1e-15)
        assert 0 <= primal - dual < 1e-7 * primal


class TestSignRefine:
    def test_slot_parallel_matches_sequential(self):
        # at a fixed factor the slots are independent, so refining them all
        # at once must give the per-slot oracle's frame exactly
        flipped = 0
        for num_antennas in (8, 16, 32):
            for num_slots in (1, 3, 5):
                for snr_db in (0.0, 12.0):
                    for seed in range(3):
                        num_ues = num_antennas // 4
                        cfg = SystemConfig.from_snr_db(
                            num_antennas, num_ues, num_slots, snr_db=snr_db)
                        h_r = real_embed(gen_rayleigh_channel(
                            num_ues, num_antennas, seed=70 + seed))
                        s_r = stack_real(SymbolFrame.random(
                            get_constellation("16qam"), num_ues, num_slots,
                            seed=80 + seed).s)
                        rng = np.random.default_rng(90 + seed)
                        x_r = cfg.quant_level * rng.choice(
                            [-1.0, 1.0], size=(2 * num_antennas, num_slots))
                        args = (x_r, h_r, s_r, cfg.noise_var, cfg.quant_level)
                        got = _greedy_sign_refine(*args)
                        assert np.array_equal(
                            got, sequential_sign_refine(*args, REFINEMENT_ROUNDS))
                        flipped += int(np.sum(got != x_r))
        assert flipped > 0


class TestSquidPrecode:
    def test_one_dimensional_frame_rejected(self):
        h = gen_rayleigh_channel(2, 4, seed=7)
        with pytest.raises(ValueError, match="must be 2-D"):
            squid_precode(np.ones(2, dtype=complex), h, SystemConfig(4, 2, 1, noise_var=0.1))

    def test_recovers_exhaustive_optimum_on_tiny_instance(self):
        cfg = SystemConfig(2, 1, 1, noise_var=0.1)
        h = gen_rayleigh_channel(1, 2, seed=0)
        frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1, seed=1000)
        x_star = brute_force_qp(frame.s, h, cfg).x
        res = squid_precode(frame.s, h, cfg)
        assert np.array_equal(res.x, x_star)

    def test_output_power_per_slot(self):
        cfg = SystemConfig(16, 4, 3, noise_var=2.0 / 10.0 ** (2.0 / 10.0),
                           transmit_power=2.0)
        h = gen_rayleigh_channel(4, 16, seed=14)
        frame = SymbolFrame.random(get_constellation("qpsk"), 4, 3, seed=15)
        res = squid_precode(frame.s, h, cfg)
        assert np.allclose(np.sum(np.abs(res.x) ** 2, axis=0),
                           cfg.transmit_power, rtol=1e-14)
        assert optimal_beta_for(frame.s, h @ res.x, cfg.noise_var) > 0

    def test_beats_quantized_zf_at_scale(self):
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=4.0)
        for seed in range(10):
            h = gen_rayleigh_channel(16, 128, seed=seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 16, 10,
                                       seed=500 + seed)
            sq = squid_precode(frame.s, h, cfg)
            zf = linear_quantized_precode(frame.s, h, cfg, zf_matrix)
            obj_sq, obj_zf = (
                qp_objective(frame.s, h, res.x,
                             optimal_beta_for(frame.s, h @ res.x, cfg.noise_var),
                             cfg.noise_var)
                for res in (sq, zf))
            assert obj_sq < obj_zf

    def test_nonconvergence_flagged(self, monkeypatch):
        # the precoder runs the fixed budget, so cut it inside the solver
        relax = squid.squid_relax
        monkeypatch.setattr(squid, "squid_relax", lambda h_r, s_r, cfg: relax(
            h_r, s_r, cfg, max_iters=2, rel_tol=1e-15))
        cfg = SystemConfig.from_snr_db(8, 2, 2, snr_db=10.0)
        h = gen_rayleigh_channel(2, 8, seed=16)
        frame = SymbolFrame.random(get_constellation("16qam"), 2, 2, seed=17)
        res = squid_precode(frame.s, h, cfg)
        assert not res.converged
