"""Tests for the system model: generators, embedding, objective, factor."""

import math

import numpy as np
import pytest

from onebit_mimo import (
    PRECODERS,
    SymbolFrame,
    SystemConfig,
    TrialConfig,
    apply_channel,
    assemble_T,
    gen_awgn,
    gen_rayleigh_channel,
    get_constellation,
    modulate,
    one_bit_quantize,
    optimal_beta_for,
    qp_objective,
    real_embed,
    stack_real,
    unstack_real,
    unvec,
    vec,
)

from oracles import grid_search_beta, mse_objective_termwise, naive_matmul


class TestSystemConfig:
    def test_from_snr_db_fixes_power(self):
        cfg = SystemConfig.from_snr_db(8, 2, 1, snr_db=7.0)
        assert cfg.transmit_power == 1.0

    @pytest.mark.parametrize("snr_db", [
        -np.inf, np.inf, np.nan, -4000.0, 4000.0, -3085.0])
    def test_from_snr_db_rejects_snr_without_finite_noise(self, snr_db):
        # -inf and -4000 underflow the SNR to 0, inf and nan give N0 = 0 and
        # nan, 4000 overflows 10 ** (snr_db / 10), and -3085 leaves a
        # subnormal SNR whose inverse is inf
        with pytest.raises(ValueError, match="snr_db"):
            SystemConfig.from_snr_db(8, 2, 1, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-3000.0, -12.5, 0.0, 7.0, 3000.0])
    def test_from_snr_db_noise_is_p_over_snr(self, snr_db):
        cfg = SystemConfig.from_snr_db(8, 2, 1, snr_db=snr_db)
        assert cfg.noise_var == 1.0 / (10.0 ** (snr_db / 10.0))

    def test_rejects_fewer_antennas_than_ues(self):
        with pytest.raises(ValueError):
            SystemConfig(2, 4, 1, noise_var=0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(num_bs_antennas=0, num_ues=1, num_slots=1, noise_var=0.1),
        dict(num_bs_antennas=2, num_ues=1, num_slots=0, noise_var=0.1),
        dict(num_bs_antennas=2, num_ues=1, num_slots=1, noise_var=0.0),
        dict(num_bs_antennas=2, num_ues=1, num_slots=1, noise_var=0.1,
             transmit_power=-1.0),
        dict(num_bs_antennas=2, num_ues=1, num_slots=1, noise_var=np.inf),
        dict(num_bs_antennas=2, num_ues=1, num_slots=1, noise_var=0.1,
             transmit_power=np.inf),
        dict(num_bs_antennas=4.5, num_ues=1, num_slots=1, noise_var=0.1),
        dict(num_bs_antennas=2, num_ues=1.0, num_slots=1, noise_var=0.1),
        dict(num_bs_antennas=2, num_ues=1, num_slots=np.float64(2.0), noise_var=0.1),
        dict(num_bs_antennas=2, num_ues=1, num_slots=True, noise_var=0.1),
    ])
    def test_rejects_nonpositive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)


class TestRayleighChannel:
    def test_seed_determinism(self):
        a = gen_rayleigh_channel(1, 1, seed=7)
        b = gen_rayleigh_channel(1, 1, seed=7)
        assert np.array_equal(a, b)

    def test_unit_entry_variance(self):
        h = gen_rayleigh_channel(16, 128, seed=0)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_shape(self):
        h = gen_rayleigh_channel(2, 4, seed=3)
        assert type(h) is np.ndarray and h.dtype == complex
        assert h.shape == (2, 4)
        assert real_embed(h).shape == (4, 8)


class TestDrawnBitForBit:
    """The generators fill one complex array in place; every entry must equal
    that of the plain complex expression over the same two normal draws."""

    @pytest.mark.parametrize("seed", (0, 7, 123, np.random.SeedSequence(5)))
    @pytest.mark.parametrize("shape", ((1, 1), (3, 5), (16, 128)))
    def test_channel(self, seed, shape):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = (a + 1j * b) / math.sqrt(2.0)
        assert gen_rayleigh_channel(*shape, seed).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", (0, 7, 123, np.random.SeedSequence(5)))
    @pytest.mark.parametrize("noise_var", (1e-3, 0.37, 2.5))
    def test_noise(self, seed, noise_var):
        shape = (16, 10)
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = math.sqrt(noise_var / 2.0) * (a + 1j * b)
        assert gen_awgn(*shape, noise_var, seed).tobytes() == expected.tobytes()


class TestSymbolFrame:
    def test_rows_are_per_ue_modulations(self):
        const = get_constellation("64qam")
        frame = SymbolFrame.random(const, 3, 4, seed=5)
        assert frame.s.shape == (3, 4)
        assert frame.bits.shape == (3, 4 * const.bits_per_symbol)
        for u in range(3):
            assert np.array_equal(frame.s[u], modulate(frame.bits[u], const))


class TestAwgn:
    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            gen_awgn(1, 1, noise_var=0.0, seed=0)

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError, match="noise_var must be finite, got inf"):
            gen_awgn(2, 2, noise_var=math.inf, seed=0)

    def test_sample_variance(self):
        n0 = 0.37
        n = gen_awgn(100, 1000, noise_var=n0, seed=11)
        assert np.mean(np.abs(n) ** 2) == pytest.approx(n0, rel=0.02)

    def test_different_seeds_differ(self):
        a = gen_awgn(2, 2, 1.0, seed=1)
        b = gen_awgn(2, 2, 1.0, seed=2)
        assert not np.array_equal(a, b)


class TestApplyChannel:
    def test_zero_input_gives_noise(self):
        n = np.arange(6, dtype=float).reshape(2, 3) * (1 + 1j)
        y = apply_channel(np.ones((2, 4)), np.zeros((4, 3)), n)
        assert np.array_equal(y, n)

    def test_identity_channel_passes_input(self):
        x = np.array([[1 + 2j], [3 - 1j]])
        y = apply_channel(np.eye(2), x, np.zeros((2, 1)))
        assert np.array_equal(y, x)

    def test_matches_naive_multiply(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        n = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        expected = naive_matmul(h, x) + n
        assert np.allclose(apply_channel(h, x, n), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(np.ones((2, 3)), np.ones((4, 1)), np.zeros((2, 1)))


class TestRealEmbedding:
    def test_real_matrix_has_zero_off_blocks(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        h_r = real_embed(h)
        assert np.array_equal(h_r[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(h_r[2:, :2], np.zeros((2, 2)))

    def test_pure_imaginary_unit(self):
        assert np.array_equal(real_embed(np.array([[1j]])),
                              np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_embedding_commutes_with_products(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
            lhs = unstack_real(real_embed(h) @ stack_real(v))
            assert np.allclose(lhs, h @ v, atol=1e-12)

    def test_homomorphism(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            h2 = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            assert np.allclose(real_embed(h1 @ h2),
                               real_embed(h1) @ real_embed(h2), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            real_embed(np.array([[np.nan + 0j]]))

    @pytest.mark.parametrize("h", [1j, np.ones(3, dtype=complex),
                                   np.ones((2, 2, 2), dtype=complex)],
                             ids=["0-d", "1-D", "3-D"])
    def test_rejects_non_matrix(self, h):
        with pytest.raises(ValueError, match="channel must be a 2-D matrix"):
            real_embed(h)

    def test_equals_block_form_bit_for_bit(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        h[0, 0], h[1, 2] = complex(0.0, -0.0), complex(-0.0, 0.0)
        re, im = h.real, h.imag
        expected = np.block([[re, -im], [im, re]])
        got = real_embed(h)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestShapeChecks:
    @pytest.mark.parametrize("call", [
        lambda: unstack_real(np.ones((3, 2))),
        lambda: unvec(np.ones(5), 2, 3),
        lambda: gen_rayleigh_channel(0, 2, seed=0),
    ], ids=["odd_unstack", "unvec_size", "no_ues"])
    def test_malformed_shape_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestVectorization:
    """assemble_T's lift of K slots to I_K kron h_r and vec(s_r)."""

    def test_single_slot_is_identity(self):
        rng = np.random.default_rng(8)
        h_r = rng.standard_normal((4, 6))
        s_r = rng.standard_normal((4, 3))
        column = assemble_T(h_r, s_r[:, :1], 2, 0.3, 1.0)
        vector = assemble_T(h_r, s_r[:, 0], 2, 0.3, 1.0)
        assert np.array_equal(column.t, vector.t)

    def test_two_slots_block_diagonal(self):
        h_r = np.array([[1.0, 2.0], [3.0, 4.0]])
        s_r = np.array([[1.0, -1.0], [2.0, 0.5]])
        one = assemble_T(h_r, s_r[:, 0], 1, 0.5, 2.0).t[:2, :2]
        gram = assemble_T(h_r, s_r, 1, 0.5, 2.0).t[:4, :4]
        assert np.array_equal(gram[:2, :2], one)
        assert np.array_equal(gram[2:, 2:], one)
        assert np.array_equal(gram[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(gram[2:, :2], np.zeros((2, 2)))

    def test_frobenius_l2_identity(self):
        # [vec(B); 1]^T T [vec(B); 1] = ||S - H B||_F^2 + (U N0/P)||B||_F^2
        rng = np.random.default_rng(9)
        h_r = rng.standard_normal((4, 6))
        s_r = rng.standard_normal((4, 3))
        b_r = rng.standard_normal((6, 3))
        problem = assemble_T(h_r, s_r, 2, 0.3, 1.5)
        lifted = np.append(vec(b_r), 1.0)
        lhs = lifted @ problem.t @ lifted
        rhs = (np.linalg.norm(s_r - h_r @ b_r) ** 2
               + (2 * 0.3 / 1.5) * np.linalg.norm(b_r) ** 2)
        assert problem.dim == 6 * 3 + 1
        assert abs(lhs - rhs) < 1e-12 * rhs

    def test_vec_unvec_roundtrip_column_major(self):
        m = np.arange(6.0).reshape(2, 3)
        v = vec(m)
        assert np.array_equal(v, [0, 3, 1, 4, 2, 5])
        assert np.array_equal(unvec(v, 2, 3), m)


class TestQpObjective:
    def test_zero_factor_gives_signal_energy(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        val = qp_objective(s, np.ones((2, 4)), np.ones((4, 3)), 0.0, 0.5)
        assert val == pytest.approx(np.sum(np.abs(s) ** 2))

    def test_perfect_match_leaves_noise_term(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        beta, n0 = 0.7, 0.2
        s = beta * (h @ x)
        assert qp_objective(s, h, x, beta, n0) == pytest.approx(
            beta ** 2 * 6 * n0)

    def test_matches_termwise_recomputation(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        expected = mse_objective_termwise(s, h, x, 0.42, 0.13)
        assert qp_objective(s, h, x, 0.42, 0.13) == pytest.approx(expected, rel=1e-12)


class TestOptimalBeta:
    def test_orthogonal_signal_gives_zero(self):
        h = np.eye(2, dtype=complex)
        x = np.array([[1.0], [0.0]], dtype=complex)
        s = np.array([[0.0], [1.0]], dtype=complex)  # Re tr((HX)^H S) = 0
        assert optimal_beta_for(s, h @ x, 0.3) == 0.0

    def test_scaled_match_with_vanishing_noise(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        s = 2.5 * (h @ x)
        assert optimal_beta_for(s, h @ x, 1e-15) == pytest.approx(2.5, rel=1e-10)

    def test_agrees_with_grid_search(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            n0 = 0.2
            beta = optimal_beta_for(s, h @ x, n0)
            assert abs(beta - grid_search_beta(s, h, x, n0)) <= 1e-3

    def test_is_the_constrained_minimizer(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        x = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        beta = optimal_beta_for(s, h @ x, 0.1)
        f_star = qp_objective(s, h, x, beta, 0.1)
        for other in np.linspace(0.0, 5.0, 101):
            assert f_star <= qp_objective(s, h, x, float(other), 0.1) + 1e-12


class TestClosedFormAccuracy:
    """qp_objective and optimal_beta_for take inner products instead of a
    residual; on seeded 1-bit frames they must stay within a few ulps of
    the entry-by-entry objective and of the abs-square factor."""

    SNRS_DB = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)

    @pytest.mark.parametrize("size, precoder", [
        ((4, 2, 3), "zfq"), ((4, 2, 3), "mrtq"), ((4, 2, 3), "squid"),
        ((4, 2, 3), "sdr"), ((128, 16, 10), "zfq"), ((128, 16, 10), "mrtq"),
        ((128, 16, 10), "squid")],
        ids=["B4-zfq", "B4-mrtq", "B4-squid", "B4-sdr",
             "paper-zfq", "paper-mrtq", "paper-squid"])
    def test_seeded_one_bit_frames(self, size, precoder):
        num_bs, num_ues, num_slots = size
        const = get_constellation("16qam")
        for i, snr_db in enumerate(self.SNRS_DB):
            system = SystemConfig.from_snr_db(num_bs, num_ues, num_slots, snr_db)
            h = gen_rayleigh_channel(num_ues, num_bs, seed=100 + i)
            s = SymbolFrame.random(const, num_ues, num_slots, seed=200 + i).s
            cfg = TrialConfig(system=system, constellation="16qam", precoder=precoder)
            x = PRECODERS[precoder](s, h, cfg).x
            n0 = system.noise_var
            hx = h @ x
            beta_star = optimal_beta_for(s, hx, n0)
            reference = float(np.vdot(hx, s).real) / (
                float(np.sum(np.abs(hx) ** 2)) + s.size * n0)
            assert beta_star > 0
            assert abs(beta_star - reference) <= 1e-14 * reference
            for beta in (0.0, beta_star, 2.0 * beta_star):
                expected = mse_objective_termwise(s, h, x, beta, n0)
                got = qp_objective(s, h, x, beta, n0)
                assert abs(got - expected) <= 1e-12 * expected, (snr_db, beta)
                zero = mse_objective_termwise(s, h, np.zeros_like(x), beta, n0)
                got = qp_objective(s, h, np.zeros_like(x), beta, n0)
                assert abs(got - zero) <= 1e-12 * zero, (snr_db, beta)
            assert optimal_beta_for(s, np.zeros_like(hx), n0) == 0.0


class TestFrameInvariants:
    def test_power_constraint_exact_membership(self):
        # entries must equal +-l +-jl bit for bit, not approximately
        cfg = SystemConfig(8, 2, 4, noise_var=0.1, transmit_power=3.0)
        rng = np.random.default_rng(10)
        z = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        level = cfg.quant_level
        x = unstack_real(one_bit_quantize(stack_real(z), level))
        assert np.all(np.isin(x.real, [level, -level]))
        assert np.all(np.isin(x.imag, [level, -level]))
        power = np.sum(np.abs(x) ** 2, axis=0)
        assert np.allclose(power, cfg.transmit_power, rtol=1e-14)

    def test_objective_equivalence_matrix_vs_vectorized(self):
        # Frame MSE == lifted real objective at b = vec(embed(beta X))
        rng = np.random.default_rng(11)
        cfg = SystemConfig(4, 2, 3, noise_var=0.2, transmit_power=1.0)
        z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x = unstack_real(one_bit_quantize(stack_real(z), cfg.quant_level))
        h = gen_rayleigh_channel(2, 4, seed=12)
        s = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        beta = 0.8
        eq5 = qp_objective(s, h, x, beta, cfg.noise_var)
        problem = assemble_T(real_embed(h), stack_real(s), cfg.num_ues,
                             cfg.noise_var, cfg.transmit_power)
        lifted = np.append(vec(stack_real(beta * x)), 1.0)
        eq8 = lifted @ problem.t @ lifted
        assert abs(eq5 - eq8) < 1e-10

    def test_real_vec_roundtrip(self):
        # the relaxations' real vectors map back to frames this way
        rng = np.random.default_rng(14)
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        back = unstack_real(unvec(vec(stack_real(b)), 6, 2))
        assert np.array_equal(back, b)
