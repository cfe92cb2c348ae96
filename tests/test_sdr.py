"""Tests for the semidefinite relaxation: lifting, ADMM solver, rounding."""

import math

import numpy as np
import pytest

from onebit_mimo import (
    SdpProblem,
    SdrOptions,
    SolverResult,
    SymbolFrame,
    SystemConfig,
    assemble_T,
    brute_force_qp,
    extract_rank_one,
    gen_rayleigh_channel,
    get_constellation,
    project_psd,
    qp_objective,
    real_embed,
    sdr_precode,
    solve_sdp,
    stack_real,
    vec,
)

from oracles import refined_search_sdp_n3


def _lifted_problem(s, h, cfg):
    return assemble_T(real_embed(h), stack_real(s), cfg.num_ues, cfg.noise_var,
                      cfg.transmit_power)


class TestAssembleT:
    def test_zero_signal_zeroes_borders(self):
        rng = np.random.default_rng(0)
        hbar = rng.standard_normal((4, 6))
        prob = assemble_T(hbar, np.zeros(4), 2, 0.5, 1.0)
        assert prob.t[-1, -1] == 0.0
        assert np.array_equal(prob.t[:-1, -1], np.zeros(6))
        assert np.array_equal(prob.t[-1, :-1], np.zeros(6))

    def test_quadratic_form_identity(self):
        # [b; 1]^T T [b; 1] must equal the vectorized objective, every b
        rng = np.random.default_rng(1)
        hbar = rng.standard_normal((6, 8))
        sbar = rng.standard_normal(6)
        num_ues, n0, p = 3, 0.4, 2.0
        prob = assemble_T(hbar, sbar, num_ues, n0, p)
        for _ in range(20):
            b = rng.standard_normal(8)
            lifted = np.concatenate([b, [1.0]])
            lhs = lifted @ prob.t @ lifted
            rhs = (np.sum((sbar - hbar @ b) ** 2)
                   + (num_ues * n0 / p) * np.sum(b ** 2))
            assert abs(lhs - rhs) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        hbar = rng.standard_normal((4, 4))
        prob = assemble_T(hbar, rng.standard_normal(4), 2, 0.1, 1.0)
        assert np.array_equal(prob.t, prob.t.T)

    @pytest.mark.parametrize("call", [
        lambda: SdrOptions(tol=0.0),
        lambda: SdrOptions(max_iters=0),
        lambda: assemble_T(np.ones((4, 4)), np.ones(6), 2, 0.1, 1.0),
        lambda: SdrOptions(tol=math.inf),
        lambda: SdrOptions(max_iters=100.0),
    ], ids=["tol", "max_iters", "row_mismatch", "tol_inf", "max_iters_float"])
    def test_invalid_arguments_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestProjectPsd:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        psd = a @ a.T
        assert np.allclose(project_psd(psd), psd, atol=1e-12)

    def test_indefinite_diagonal_clipped(self):
        out = project_psd(np.diag([1.0, -2.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_random_probe_optimality(self):
        # nearest PSD matrix: no random PSD candidate may be closer
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        out = project_psd(m)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12
        base = np.linalg.norm(out - m)
        for _ in range(1000):
            g = rng.standard_normal((4, 4))
            probe = g @ g.T * rng.uniform(0.01, 2.0)
            assert base <= np.linalg.norm(probe - m) + 1e-12


class TestSolveSdp:
    def test_penalized_diagonal_driven_to_zero(self):
        prob = SdpProblem(t=np.diag([1.0, 1.0, 0.0]))
        sol = solve_sdp(prob, tol=1e-8)
        assert sol.converged
        assert sol.objective == pytest.approx(0.0, abs=1e-6)
        assert sol.x[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert sol.x[1, 1] == pytest.approx(0.0, abs=1e-6)
        assert sol.x[2, 2] == pytest.approx(1.0, abs=1e-6)

    def test_matches_parameterized_search_oracle(self):
        cfg = SystemConfig(1, 1, 1, noise_var=0.2)
        for seed in range(4):
            h = gen_rayleigh_channel(1, 1, seed=seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1,
                                       seed=100 + seed)
            prob = _lifted_problem(frame.s, h, cfg)
            sol = solve_sdp(prob, tol=1e-10, max_iters=50000)
            oracle_obj, _ = refined_search_sdp_n3(prob.t)
            assert abs(sol.objective - oracle_obj) <= 1e-4

    def test_lower_bounds_discrete_enumeration(self):
        cfg = SystemConfig(3, 2, 1, noise_var=0.3)
        for seed in range(6):
            h = gen_rayleigh_channel(2, 3, seed=20 + seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 2, 1,
                                       seed=30 + seed)
            sol = solve_sdp(_lifted_problem(frame.s, h, cfg),
                            tol=1e-9, max_iters=30000)
            _, _, discrete = brute_force_qp(frame.s, h, cfg)
            assert sol.objective <= discrete + 1e-6

    def test_solution_feasibility(self):
        cfg = SystemConfig(2, 2, 2, noise_var=0.25)
        h = gen_rayleigh_channel(2, 2, seed=40)
        frame = SymbolFrame.random(get_constellation("qpsk"), 2, 2, seed=41)
        sol = solve_sdp(_lifted_problem(frame.s, h, cfg), tol=1e-6)
        assert sol.converged
        assert np.linalg.eigvalsh(sol.x)[0] >= -1e-8
        diag = np.diagonal(sol.x)[:-1]
        assert np.max(np.abs(diag - diag.mean())) <= 1e-6
        assert abs(sol.x[-1, -1] - 1.0) <= 1e-6

    def test_residuals_decrease_over_windows(self):
        cfg = SystemConfig(2, 1, 1, noise_var=0.2)
        h = gen_rayleigh_channel(1, 2, seed=42)
        frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1, seed=43)
        sol = solve_sdp(_lifted_problem(frame.s, h, cfg), tol=1e-14,
                        max_iters=600)
        assert isinstance(sol, SolverResult)
        assert sol.history.shape == (sol.iterations, 2)
        combined = sol.history.sum(axis=1)
        window = 100
        stops = range(0, combined.size - window + 1, window)
        means = [combined[i:i + window].mean() for i in stops]
        assert len(means) >= 2
        for earlier, later in zip(means, means[1:]):
            if earlier < 1e-12:
                break
            assert later < earlier

    def test_budget_exhaustion_flagged(self):
        cfg = SystemConfig(2, 2, 1, noise_var=0.1)
        h = gen_rayleigh_channel(2, 2, seed=44)
        frame = SymbolFrame.random(get_constellation("qpsk"), 2, 1, seed=45)
        sol = solve_sdp(_lifted_problem(frame.s, h, cfg), tol=1e-12, max_iters=5)
        assert not sol.converged
        assert sol.iterations == 5
        assert "sdr_nonconverged" in extract_rank_one(sol, frame.s, h, cfg).flags


class TestExtractRankOne:
    def test_exact_rank_one_recovered(self):
        cfg = SystemConfig(2, 1, 2, noise_var=0.2)
        h = gen_rayleigh_channel(1, 2, seed=50)
        frame = SymbolFrame.random(get_constellation("qpsk"), 1, 2, seed=51)
        rng = np.random.default_rng(52)
        level = cfg.quant_level
        signs = np.where(rng.standard_normal(8) >= 0, 1.0, -1.0)
        bbar = 0.9 * level * signs  # 2BK entries with 1-bit-consistent signs
        lifted = np.concatenate([bbar, [1.0]])
        sol = SolverResult(x=np.outer(lifted, lifted), objective=0.0,
                           iterations=1, converged=True, history=np.zeros((1, 2)))
        res = extract_rank_one(sol, frame.s, h, cfg)
        xbar = vec(stack_real(res.x))
        assert np.array_equal(np.sign(xbar), signs)
        assert np.allclose(np.abs(xbar), level, rtol=1e-14)

    def test_sign_flip_invariance(self):
        cfg = SystemConfig(2, 1, 1, noise_var=0.2)
        h = gen_rayleigh_channel(1, 2, seed=53)
        frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1, seed=54)
        rng = np.random.default_rng(55)
        v = rng.standard_normal(5)
        v[-1] = abs(v[-1])

        def solution(vv):
            return SolverResult(x=np.outer(vv, vv), objective=0.0, iterations=1,
                                converged=True, history=np.zeros((1, 2)))

        plus = extract_rank_one(solution(v), frame.s, h, cfg)
        minus = extract_rank_one(solution(-v), frame.s, h, cfg)
        assert np.array_equal(plus.x, minus.x)

    def test_rounding_near_discrete_optimum(self):
        cfg = SystemConfig(2, 2, 1, noise_var=0.2)
        close = 0
        trials = 30
        for seed in range(trials):
            h = gen_rayleigh_channel(2, 2, seed=600 + seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 2, 1,
                                       seed=700 + seed)
            sol = solve_sdp(_lifted_problem(frame.s, h, cfg),
                            tol=1e-8, max_iters=20000)
            rounded = extract_rank_one(sol, frame.s, h, cfg)
            obj = qp_objective(frame.s, h, rounded.x, rounded.beta, cfg.noise_var)
            _, _, best = brute_force_qp(frame.s, h, cfg)
            assert best <= obj
            if obj <= 1.05 * best:
                close += 1
        assert close >= int(0.9 * trials)

    def test_degenerate_spectrum_flagged(self):
        cfg = SystemConfig(1, 1, 1, noise_var=0.2)
        h = gen_rayleigh_channel(1, 1, seed=56)
        frame = SymbolFrame.random(get_constellation("qpsk"), 1, 1, seed=57)
        sol = SolverResult(x=np.eye(3), objective=0.0, iterations=1,
                           converged=True, history=np.zeros((1, 2)))
        res = extract_rank_one(sol, frame.s, h, cfg)
        assert "degenerate_eigenvector" in res.flags


class TestSdrPrecode:
    def test_per_slot_equals_independent_calls(self):
        cfg3 = SystemConfig(2, 1, 3, noise_var=0.2)
        cfg1 = SystemConfig(2, 1, 1, noise_var=0.2)
        h = gen_rayleigh_channel(1, 2, seed=60)
        frame = SymbolFrame.random(get_constellation("qpsk"), 1, 3, seed=61)
        whole = sdr_precode(frame.s, h, cfg3)
        for k in range(3):
            single = sdr_precode(frame.s[:, k:k + 1], h, cfg1)
            assert np.array_equal(whole.x[:, k:k + 1], single.x)

    def test_block_and_per_slot_agree_on_separable_frame(self):
        # duplicated slots make the joint optimum slot-separable; the joint
        # K-slot lift is the vectorize -> assemble -> solve -> extract chain
        cfg = SystemConfig(2, 1, 2, noise_var=0.2)
        h = gen_rayleigh_channel(1, 2, seed=62)
        one = SymbolFrame.random(get_constellation("qpsk"), 1, 1, seed=63)
        s = np.concatenate([one.s, one.s], axis=1)
        per_slot = sdr_precode(s, h, cfg)
        block = extract_rank_one(solve_sdp(_lifted_problem(s, h, cfg)), s, h, cfg)
        obj_ps = qp_objective(s, h, per_slot.x, per_slot.beta, cfg.noise_var)
        obj_bk = qp_objective(s, h, block.x, block.beta, cfg.noise_var)
        assert obj_bk == pytest.approx(obj_ps, rel=1e-3)

    def test_output_power_per_slot(self):
        cfg = SystemConfig(4, 2, 2, noise_var=3.0 / 10.0 ** (6.0 / 10.0),
                           transmit_power=3.0)
        h = gen_rayleigh_channel(2, 4, seed=64)
        frame = SymbolFrame.random(get_constellation("16qam"), 2, 2, seed=65)
        res = sdr_precode(frame.s, h, cfg)
        level = cfg.quant_level
        assert np.all(np.isin(res.x.real, [level, -level]))
        assert np.all(np.isin(res.x.imag, [level, -level]))
        assert np.allclose(np.sum(np.abs(res.x) ** 2, axis=0),
                           cfg.transmit_power, rtol=1e-14)

    @pytest.mark.slow
    def test_large_array_single_slot_smoke(self):
        # n = 257 lifted dimension: within the default iteration budget the
        # rounded frame must be valid and beat the quantized-ZF objective;
        # the 1e-6 residual itself is out of reach at this size (sublinear
        # ADMM tail near the rank-one solution), so the run stays flagged
        from onebit_mimo import linear_quantized_precode, zf_matrix

        cfg = SystemConfig.from_snr_db(128, 16, 1, snr_db=0.0)
        h = gen_rayleigh_channel(16, 128, seed=0)
        frame = SymbolFrame.random(get_constellation("qpsk"), 16, 1, seed=80)
        res = sdr_precode(frame.s, h, cfg)
        level = cfg.quant_level
        assert np.all(np.isin(res.x.real, [level, -level]))
        assert res.beta > 0
        obj_sdr = qp_objective(frame.s, h, res.x, res.beta, cfg.noise_var)
        zf = linear_quantized_precode(frame.s, h, cfg, zf_matrix)
        obj_zf = qp_objective(frame.s, h, zf.x, zf.beta, cfg.noise_var)
        assert obj_sdr < obj_zf
