"""Tests for the squared-infinity-norm relaxation and its prox machinery."""

import math

import numpy as np
import pytest

from onebit_mimo import (
    SolverResult,
    SquidOptions,
    SymbolFrame,
    SystemConfig,
    brute_force_qp,
    estimate_gradient_lipschitz,
    gen_rayleigh_channel,
    get_constellation,
    linear_quantized_precode,
    prox_sq_inf,
    qp_objective,
    real_embed,
    squid_precode,
    squid_relax,
    stack_real,
    zf_matrix,
)
from onebit_mimo.squid import REFINEMENT_ROUNDS, _clip_level, _greedy_sign_refine

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
        # the solver starts at b = 0, where the objective is ||s||^2
        cfg = SystemConfig(3, 2, 1, noise_var=0.5)
        h = gen_rayleigh_channel(2, 3, seed=0)
        frame = SymbolFrame.random(get_constellation("16qam"), 2, 1, seed=1)
        res = squid_relax(real_embed(h), stack_real(frame.s), cfg)
        assert res.history[0] == pytest.approx(
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
        res = squid_relax(h_r, s_r, cfg,
                          SquidOptions(max_iters=5000, rel_tol=1e-14))
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
        res = squid_relax(h_r, s_r, cfg, SquidOptions(max_iters=40))
        assert res.objective == pytest.approx(
            self._relaxed_objective(res.x, h_r, s_r, cfg), rel=1e-12)
        assert res.objective == res.history.min()

    @pytest.mark.parametrize("momentum", [True, False])
    def test_no_drift_at_paper_size(self, momentum):
        # the iteration derives the extrapolated point's residual from the
        # residuals of its two iterates instead of multiplying by h_r again
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=16.0)
        h = gen_rayleigh_channel(16, 128, seed=60)
        frame = SymbolFrame.random(get_constellation("16qam"), 16, 10, seed=61)
        h_r, s_r = real_embed(h), stack_real(frame.s)
        res = squid_relax(h_r, s_r, cfg, SquidOptions(momentum=momentum))
        assert isinstance(res, SolverResult)
        assert res.iterations > 50
        # the history opens with the objective at b = 0
        assert res.history.shape == (res.iterations + 1,)
        assert res.objective == pytest.approx(
            self._relaxed_objective(res.x, h_r, s_r, cfg), rel=1e-10)


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
            # it alone, and every guess gives the level from 0 exactly
            cold = _clip_level(mags, tau, 0.0)
            for guess in (0.0, 0.5 * root, root, 10.0 * root,
                          np.nextafter(root, 0.0), root * (1.0 - 1e-9),
                          root * (1.0 - 1e-3)):
                t = _clip_level(mags, tau, guess)
                assert abs(t - root) <= 1e-12 and abs(t - bisected) <= 1e-12
                assert t == cold


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
        with pytest.raises(ValueError):
            prox_sq_inf(np.ones(3), -0.1)


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
                          SquidOptions(max_iters=5000, rel_tol=1e-12))
        penalty = 2 * cfg.noise_var / cfg.transmit_power  # 2UBK N0 / P, all dims 1
        s_r2 = stack_real(s).ravel()
        grid_obj, _ = grid_search_linf_sq_2d(s_r2, penalty,
                                             half_width=1.5, step=1e-3)
        assert abs(res.objective - grid_obj) <= 1e-4

    def test_descent_without_momentum(self):
        cfg = SystemConfig.from_snr_db(16, 4, 3, snr_db=5.0)
        h = gen_rayleigh_channel(4, 16, seed=9)
        frame = SymbolFrame.random(get_constellation("16qam"), 4, 3, seed=10)
        res = squid_relax(real_embed(h), stack_real(frame.s), cfg,
                          SquidOptions(momentum=False, max_iters=300))
        diffs = np.diff(res.history)
        assert np.all(diffs <= 1e-10 * max(res.history[0], 1.0))

    def test_never_worse_than_zero_vector(self):
        cfg = SystemConfig.from_snr_db(8, 2, 2, snr_db=0.0)
        h = gen_rayleigh_channel(2, 8, seed=11)
        frame = SymbolFrame.random(get_constellation("8psk"), 2, 2, seed=12)
        res = squid_relax(real_embed(h), stack_real(frame.s), cfg,
                          SquidOptions(max_iters=3))
        assert res.objective <= np.sum(np.abs(frame.s) ** 2) + 1e-12

    def test_relaxation_lower_bounds_discrete_optimum(self):
        # the relaxed feasible set contains every discrete candidate
        cfg = SystemConfig(2, 1, 1, noise_var=0.2)
        for seed in range(5):
            h = gen_rayleigh_channel(1, 2, seed=40 + seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1,
                                       seed=50 + seed)
            res = squid_relax(real_embed(h), stack_real(frame.s), cfg,
                              SquidOptions(max_iters=20000, rel_tol=1e-14))
            _, _, discrete = brute_force_qp(frame.s, h, cfg)
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

    @pytest.mark.parametrize("call", [
        lambda: SquidOptions(max_iters=0),
        lambda: SquidOptions(rel_tol=0.0),
        lambda: squid_relax(np.ones((4, 4)), np.ones((6, 2)),
                            SystemConfig(2, 2, 2, noise_var=0.1)),
        lambda: SquidOptions(rel_tol=math.inf),
        lambda: SquidOptions(max_iters=2.5),
    ], ids=["max_iters", "rel_tol", "shape_mismatch", "rel_tol_inf", "max_iters_float"])
    def test_invalid_arguments_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_lipschitz_estimate_tracks_eigenvalue(self):
        rng = np.random.default_rng(13)
        h_r = rng.standard_normal((8, 12))
        lam = np.linalg.eigvalsh(h_r.T @ h_r)[-1]
        assert estimate_gradient_lipschitz(h_r) == pytest.approx(2 * lam, rel=1e-12)


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
    def test_recovers_exhaustive_optimum_on_tiny_instance(self):
        cfg = SystemConfig(2, 1, 1, noise_var=0.1)
        h = gen_rayleigh_channel(1, 2, seed=0)
        frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1, seed=1000)
        x_star, _, _ = brute_force_qp(frame.s, h, cfg)
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
        assert res.beta > 0

    def test_beats_quantized_zf_at_scale(self):
        cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=4.0)
        for seed in range(10):
            h = gen_rayleigh_channel(16, 128, seed=seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 16, 10,
                                       seed=500 + seed)
            sq = squid_precode(frame.s, h, cfg)
            zf = linear_quantized_precode(frame.s, h, cfg, zf_matrix)
            obj_sq = qp_objective(frame.s, h, sq.x, sq.beta, cfg.noise_var)
            obj_zf = qp_objective(frame.s, h, zf.x, zf.beta, cfg.noise_var)
            assert obj_sq < obj_zf

    def test_nonconvergence_flagged(self):
        cfg = SystemConfig.from_snr_db(8, 2, 2, snr_db=10.0)
        h = gen_rayleigh_channel(2, 8, seed=16)
        frame = SymbolFrame.random(get_constellation("16qam"), 2, 2, seed=17)
        res = squid_precode(frame.s, h, cfg,
                            SquidOptions(max_iters=2, rel_tol=1e-15))
        assert "squid_nonconverged" in res.flags
