"""Tests for genie / pilot / blind estimation of the precoding factor."""

import math

import numpy as np
import pytest

from onebit_mimo import (
    PrecodeResult,
    blind_estimate,
    genie_estimate,
    pilot_mle,
)
from onebit_mimo.gain_estimation import EPS_BETA


class TestPilotMle:
    def test_noiseless_unit_factor(self):
        es = 1.0
        est = pilot_mle(np.sqrt(es), es=es)
        assert est.betas[0] == pytest.approx(1.0)
        assert est.clamped == 0

    def test_doubled_observation_halves_estimate(self):
        est = pilot_mle(2.0 * np.sqrt(1.0), es=1.0)
        assert est.betas[0] == pytest.approx(0.5)

    def test_vanishing_observation_clamped(self):
        est = pilot_mle(1e-15 + 0j)
        assert est.clamped == 1
        assert est.betas[0] == EPS_BETA

    def test_negative_real_part_clamped(self):
        est = pilot_mle(-1.0 + 0j)
        assert est.clamped == 1
        assert est.betas[0] == EPS_BETA

    def test_median_accuracy_at_high_snr(self):
        # y = (1/beta) sqrt(Es) + n at rho = 20 dB; the estimate inverts y
        rng = np.random.default_rng(0)
        beta = 0.7
        es, n0 = 1.0, 10.0 ** (-2.0)
        noise = np.sqrt(n0 / 2) * (rng.standard_normal((10_000, 2)) @ [1, 1j])
        est = pilot_mle(np.sqrt(es) / beta + noise, es=es)
        assert np.median(np.abs(est.betas - beta) / beta) < 0.15

    def test_all_ues_match_scalar_complex_division(self):
        # one call over all UEs reproduces Re{sqrt(Es) / y} as Python
        # computes it for each UE, bit for bit, clamps included
        rng = np.random.default_rng(3)
        y1 = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        y1[:100] *= 1e-3
        y1[100:110] = rng.standard_normal(10)          # purely real
        y1[110:120] = 1j * rng.standard_normal(10)     # purely imaginary
        y1[120] = 0.0
        est = pilot_mle(y1, es=2.0)
        expected = []
        for y in y1:
            raw = (math.sqrt(2.0) / complex(y)).real if abs(y) >= 1e-12 else 0.0
            expected.append(raw if raw >= EPS_BETA else EPS_BETA)
        assert np.array_equal(est.betas, expected)
        assert est.clamped == sum(e == EPS_BETA for e in expected)
        assert type(est.clamped) is int

    def test_nonfinite_observation_rejected(self):
        with pytest.raises(ValueError):
            pilot_mle(np.array([1.0, np.nan + 0j]))


class TestBlindEstimate:
    def test_exact_when_sample_energy_matches(self):
        # noiseless y = s/beta with the frame at exactly average energy
        beta = 1.6
        s = np.array([1 + 0j, -1 + 0j, 1j, -1j])  # per-symbol energy 1
        est = blind_estimate(s / beta, es=1.0, noise_var=0.0)
        assert est.betas[0] == pytest.approx(beta, rel=1e-12)
        assert est.clamped == 0

    def test_all_zero_observation_clamped(self):
        est = blind_estimate(np.zeros(8, dtype=complex), es=1.0, noise_var=0.0)
        assert est.clamped == 1

    def test_large_sample_consistency_with_known_error_energy(self):
        rng = np.random.default_rng(1)
        beta, es, n0, e0 = 2.0, 1.0, 0.025, 0.01
        k = 100_000
        s = np.exp(2j * np.pi * rng.integers(0, 4, k) / 4)  # unit energy
        e = np.sqrt(e0 / 2) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        n = np.sqrt(n0 / 2) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        y = s / beta + e + n
        est = blind_estimate(y, es=es, noise_var=n0, err_energy=e0)
        assert abs(est.betas[0] / beta - 1.0) < 0.01

    def test_scale_consistency(self):
        # scaling y by alpha while scaling assumed energies by alpha^2
        # divides the estimate by alpha
        rng = np.random.default_rng(2)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        n0, e0 = 0.05, 0.02
        base = blind_estimate(y, es=1.0, noise_var=n0, err_energy=e0)
        for alpha in (0.5, 2.0, 10.0):
            scaled = blind_estimate(alpha * y, es=1.0,
                                    noise_var=alpha ** 2 * n0,
                                    err_energy=alpha ** 2 * e0)
            assert scaled.betas[0] == pytest.approx(base.betas[0] / alpha,
                                                    rel=1e-12)

    def test_rows_are_independent_ues(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        y[2] = 0.0
        est = blind_estimate(y, es=1.0, noise_var=0.1)
        assert est.betas.shape == (6,)
        for u in range(6):
            assert est.betas[u] == blind_estimate(y[u], es=1.0,
                                                  noise_var=0.1).betas[0]
        assert est.clamped == 1
        assert type(est.clamped) is int

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            blind_estimate(np.array([], dtype=complex), es=1.0, noise_var=0.1)


class TestGenie:
    def test_passes_through_exact_factor(self):
        pre = PrecodeResult(x=np.zeros((2, 1), dtype=complex), beta=0.42)
        est = genie_estimate(pre, num_ues=3)
        assert np.array_equal(est.betas, [0.42, 0.42, 0.42])
        assert est.clamped == 0

    def test_zero_factor_clamped(self):
        pre = PrecodeResult(x=np.zeros((2, 1), dtype=complex), beta=0.0)
        est = genie_estimate(pre, num_ues=4)
        assert est.clamped == 4
        assert type(est.clamped) is int
        assert np.all(est.betas == EPS_BETA)

    def test_nonfinite_factor_rejected(self):
        pre = PrecodeResult(x=np.zeros((2, 1), dtype=complex), beta=math.nan)
        with pytest.raises(ValueError):
            genie_estimate(pre, num_ues=2)
