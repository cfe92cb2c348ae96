"""Tests for linear precoding matrices and the 1-bit quantized baseline."""

import numpy as np
import pytest

from onebit_mimo import (
    SymbolFrame,
    SystemConfig,
    brute_force_qp,
    gen_rayleigh_channel,
    get_constellation,
    linear_quantized_precode,
    mrt_matrix,
    one_bit_quantize,
    optimal_beta_for,
    qp_objective,
    stack_real,
    unstack_real,
    zf_matrix,
)


def _gaussian(seed, rows, cols):
    """A complex rows x cols channel or frame with standard normal parts."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestZfMatrix:
    """zf_matrix(h, s) is the zero-forcing precoder applied to the frame S."""

    def test_identity_channel(self):
        s = _gaussian(10, 3, 2)
        assert np.allclose(zf_matrix(np.eye(3, dtype=complex), s), s, atol=1e-12)

    def test_scaled_identity(self):
        s = _gaussian(11, 2, 4)
        assert np.allclose(zf_matrix(2.0 * np.eye(2, dtype=complex), s), 0.5 * s,
                           atol=1e-12)

    def test_zero_forcing_residual(self):
        h = _gaussian(0, 4, 8)
        s = _gaussian(12, 4, 5)
        z = zf_matrix(h, s)
        assert z.shape == (8, 5)
        assert np.linalg.norm(h @ z - s) < 1e-9

    def test_rank_deficient_raises(self):
        h = np.ones((2, 4), dtype=complex)  # duplicated rows
        with pytest.raises(np.linalg.LinAlgError):
            zf_matrix(h, np.ones((2, 3), dtype=complex))


class TestMrtMatrix:
    """mrt_matrix(h, s) is H^H S, computed as exactly that product."""

    def test_identity_channel(self):
        s = _gaussian(13, 2, 3)
        assert np.array_equal(mrt_matrix(np.eye(2, dtype=complex), s), s)

    def test_row_scaling_conjugates(self):
        h = _gaussian(1, 2, 3)
        scale = 2.0 - 1.5j
        h2 = h.copy()
        h2[1] *= scale
        s = np.array([[0.0], [1.0 + 0j]])  # UE 1 alone
        assert np.allclose(mrt_matrix(h2, s), np.conj(scale) * mrt_matrix(h, s),
                           atol=1e-12)

    def test_equals_conjugate_transpose(self):
        h = _gaussian(2, 3, 5)
        s = _gaussian(14, 3, 4)
        assert mrt_matrix(h, s).tobytes() == (h.conj().T @ s).tobytes()


def quantize(z, transmit_power):
    """The complex frame z rounded to its system's 1-bit set, B = len(z)."""
    level = SystemConfig(len(z), 1, 1, noise_var=1.0,
                         transmit_power=transmit_power).quant_level
    return unstack_real(one_bit_quantize(stack_real(z), level))


class TestOneBitQuantize:
    def test_worked_example(self):
        z = np.array([1 - 1j, -2 + 3j])
        x = quantize(z, transmit_power=1.0)  # l = 1/2 for B = 2
        assert np.array_equal(x, np.array([0.5 - 0.5j, -0.5 + 0.5j]))

    def test_zero_maps_to_positive_corner(self):
        x = quantize(np.zeros(4, dtype=complex), transmit_power=2.0)
        level = np.sqrt(2.0 / 8.0)
        assert np.allclose(x, level * (1 + 1j) * np.ones(4), rtol=0, atol=0)

    def test_output_power_is_transmit_power(self):
        rng = np.random.default_rng(3)
        for power in (0.5, 1.0, 4.0):
            z = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            x = quantize(z, power)
            assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), power, rtol=1e-14)

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        x = quantize(z, 1.0)
        assert np.array_equal(quantize(x, 1.0), x)

    def test_complex_input_rejected(self):
        with pytest.raises(TypeError):
            one_bit_quantize(np.array([1 - 1j, -2 + 3j]), 0.5)


def _special_frame():
    """A 6 x 3 product with 0, -0.0, NaN and +-inf in either part."""
    rng = np.random.default_rng(9)
    z = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    specials = (0.0, -0.0, np.nan, np.inf, -np.inf)
    for i, v in enumerate(specials):
        z.real[i, 0] = v
        z.imag[i, 1] = v
        z[i, 2] = complex(v, specials[-1 - i])
    return z


class TestInPlaceRounding:
    """linear_quantized_precode rounds its product through the float view;
    that must give the round trip through stack_real and unstack_real."""

    @pytest.mark.parametrize("make_product", (
        lambda z: z,
        lambda z: z[:, :1],
        lambda z: np.asfortranarray(z),
        lambda z: np.repeat(z, 2, axis=1)[:, ::2],
        lambda z: z.real,
    ), ids=("contiguous", "one_slot", "fortran_order", "strided", "real"))
    def test_equals_the_stacked_round_trip(self, make_product):
        z = make_product(_special_frame())
        cfg = SystemConfig(6, 2, z.shape[1], noise_var=0.1, transmit_power=2.0)
        h = gen_rayleigh_channel(2, 6, seed=3)
        s = np.ones((2, z.shape[1]), dtype=complex)
        snapshot = z.copy()
        res = linear_quantized_precode(s, h, cfg, lambda h, s: z)
        expected = unstack_real(one_bit_quantize(stack_real(z), cfg.quant_level))
        assert res.x.dtype == expected.dtype and res.x.shape == expected.shape
        assert res.x.tobytes() == expected.tobytes()
        assert np.array_equal(z, snapshot, equal_nan=True)  # the product is left alone

    def test_special_values_round_as_documented(self):
        level = 0.5
        z = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -1e-300])
        assert np.array_equal(one_bit_quantize(z, level),
                              [level, level, -level, level, -level, -level])


class TestLinearQuantizedPrecode:
    def test_single_antenna_single_ue(self):
        cfg = SystemConfig(1, 1, 1, noise_var=0.1, transmit_power=1.0)
        res = linear_quantized_precode(np.array([[1 + 0j]]), np.eye(1, dtype=complex), cfg,
                                       zf_matrix)
        level = cfg.quant_level
        assert res.x[0, 0] == level * (1 + 1j)

    def test_slot_separability(self):
        cfg3 = SystemConfig(4, 2, 3, noise_var=0.1)
        cfg1 = SystemConfig(4, 2, 1, noise_var=0.1)
        h = gen_rayleigh_channel(2, 4, seed=5)
        frame = SymbolFrame.random(get_constellation("qpsk"), 2, 3, seed=6)
        whole = linear_quantized_precode(frame.s, h, cfg3, zf_matrix)
        for k in range(3):
            single = linear_quantized_precode(frame.s[:, k:k + 1], h, cfg1, zf_matrix)
            assert np.array_equal(whole.x[:, k:k + 1], single.x)

    def test_mrt_kind_dispatch(self):
        cfg = SystemConfig(4, 2, 1, noise_var=0.1)
        h = gen_rayleigh_channel(2, 4, seed=7)
        frame = SymbolFrame.random(get_constellation("qpsk"), 2, 1, seed=8)
        res = linear_quantized_precode(frame.s, h, cfg, mrt_matrix)
        assert np.allclose(np.sum(np.abs(res.x) ** 2, axis=0),
                           cfg.transmit_power, rtol=1e-14)

    def test_never_beats_exhaustive_optimum(self):
        cfg = SystemConfig(3, 2, 2, noise_var=0.2)
        for seed in range(8):
            h = gen_rayleigh_channel(2, 3, seed=100 + seed)
            frame = SymbolFrame.random(get_constellation("qpsk"), 2, 2,
                                       seed=200 + seed)
            res = linear_quantized_precode(frame.s, h, cfg, zf_matrix)
            beta = optimal_beta_for(frame.s, h @ res.x, cfg.noise_var)
            zfq_obj = qp_objective(frame.s, h, res.x, beta, cfg.noise_var)
            x_best = brute_force_qp(frame.s, h, cfg).x
            best = qp_objective(frame.s, h, x_best,
                                optimal_beta_for(frame.s, h @ x_best, cfg.noise_var),
                                cfg.noise_var)
            assert best <= zfq_obj
