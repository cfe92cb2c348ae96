"""Tests for genie / pilot / blind estimation of the precoding factor."""

import math
import warnings

import numpy as np
import pytest

from onebit_mimo import (
    blind_estimate,
    genie_estimate,
    pilot_mle,
)
from onebit_mimo.gain_estimation import EPS_BETA, _checked


class TestPilotMle:
    def test_noiseless_unit_factor(self):
        est = pilot_mle(1.0)
        assert est.betas[0] == pytest.approx(1.0)
        assert est.clamped == 0

    def test_doubled_observation_halves_estimate(self):
        est = pilot_mle(2.0)
        assert est.betas[0] == pytest.approx(0.5)

    def test_vanishing_observation_clamped(self):
        est = pilot_mle(1e-15 + 0j)
        assert est.clamped == 1
        assert est.betas[0] == EPS_BETA

    def test_exact_zero_clamped(self):
        # 1/0 gives inf or nan in numpy; with warnings as errors this also
        # checks that the division stays quiet before the clamp replaces it
        est = pilot_mle(0j)
        assert est.betas.tolist() == [EPS_BETA]
        assert est.clamped == 1
        est = pilot_mle([0j, 1 + 0j, complex(-0.0, 0.0)])
        assert est.betas.tolist() == [EPS_BETA, 1.0, EPS_BETA]
        assert est.clamped == 2

    def test_tiny_samples_among_ordinary_ones(self):
        # only samples with |y| < 1e-12 can divide by zero, or overflow as the
        # subnormal 1e-310 does; they are clamped in a quiet division, and every
        # other sample gets Re{1/y} as Python computes it, bit for bit
        y1 = np.array([0.8 - 0.3j, 0j, 1.7 + 0.2j, 1e-13 + 0j, 0.4 + 1.1j,
                       1e-300j, 0.05 + 2.0j, 1e-310 + 0j])
        tiny = np.abs(y1) < 1e-12
        est = pilot_mle(y1)
        assert est.betas[tiny].tolist() == [EPS_BETA] * 4
        assert est.clamped == 4
        for beta, y in zip(est.betas[~tiny], y1[~tiny]):
            assert beta.hex() == (1 / complex(y)).real.hex()

    def test_huge_samples_clamped_without_overflow(self):
        # |y| > 1/EPS_BETA puts Re{1/y} below EPS_BETA, so such a sample is
        # clamped before the division, which would overflow at 1e308 + 1e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = pilot_mle([1e308 + 1e308j, -1e300, 1e10, 2])
        assert est.betas.tolist() == [EPS_BETA] * 3 + [0.5]
        assert est.clamped == 3

    def test_negative_real_part_clamped(self):
        est = pilot_mle(-1.0 + 0j)
        assert est.clamped == 1
        assert est.betas[0] == EPS_BETA

    def test_median_accuracy_at_high_snr(self):
        # y = 1/beta + n at rho = 20 dB; the estimate inverts y
        rng = np.random.default_rng(0)
        beta = 0.7
        n0 = 10.0 ** (-2.0)
        noise = np.sqrt(n0 / 2) * (rng.standard_normal((10_000, 2)) @ [1, 1j])
        est = pilot_mle(1.0 / beta + noise)
        assert np.median(np.abs(est.betas - beta) / beta) < 0.15

    def test_all_ues_match_scalar_complex_division(self):
        # one call over all UEs reproduces Re{1 / y} as Python
        # computes it for each UE, bit for bit, clamps included
        rng = np.random.default_rng(3)
        y1 = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        y1[:100] *= 1e-3
        y1[100:110] = rng.standard_normal(10)          # purely real
        y1[110:120] = 1j * rng.standard_normal(10)     # purely imaginary
        y1[120] = 0.0
        est = pilot_mle(y1)
        expected = []
        for y in y1:
            raw = (1.0 / complex(y)).real if abs(y) >= 1e-12 else 0.0
            expected.append(raw if raw >= EPS_BETA else EPS_BETA)
        assert np.array_equal(est.betas, expected)
        assert est.clamped == sum(e == EPS_BETA for e in expected)
        assert type(est.clamped) is int

    def test_nonfinite_observation_rejected(self):
        with pytest.raises(ValueError):
            pilot_mle(np.array([1.0, np.nan + 0j]))

    @pytest.mark.parametrize("pilot", [complex(math.inf, 0.0), complex(-math.inf, 0.0),
                                       complex(0.5, math.inf), complex(-math.inf, 2.0)],
                             ids=["inf", "-inf", "inf-imag", "-inf-real"])
    def test_infinite_pilot_rejected(self, pilot):
        # Re{1/y} is 0 for one infinite part; a clamp to EPS_BETA there
        # would let the trial go on counting bit errors
        with pytest.raises(ValueError, match="non-finite pilot sample"):
            pilot_mle(np.array([1.0, pilot]))


class TestBlindEstimate:
    def test_exact_when_sample_energy_matches(self):
        # noiseless y = s/beta with the frame at exactly average energy
        beta = 1.6
        s = np.array([1 + 0j, -1 + 0j, 1j, -1j])  # per-symbol energy 1
        est = blind_estimate(s / beta, noise_var=0.0)
        assert est.betas[0] == pytest.approx(beta, rel=1e-12)
        assert est.clamped == 0

    def test_all_zero_observation_clamped(self):
        est = blind_estimate(np.zeros(8, dtype=complex), noise_var=0.0)
        assert est.clamped == 1

    def test_large_sample_consistency_with_known_error_energy(self):
        rng = np.random.default_rng(1)
        beta, n0, e0 = 2.0, 0.025, 0.01
        k = 100_000
        s = np.exp(2j * np.pi * rng.integers(0, 4, k) / 4)  # unit energy
        e = np.sqrt(e0 / 2) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        n = np.sqrt(n0 / 2) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        y = s / beta + e + n
        est = blind_estimate(y, noise_var=n0, err_energy=e0)
        assert abs(est.betas[0] / beta - 1.0) < 0.01

    def test_scale_consistency(self):
        # scaling y by alpha while scaling assumed energies by alpha^2
        # divides the estimate by alpha
        rng = np.random.default_rng(2)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        n0, e0 = 0.05, 0.02
        base = blind_estimate(y, noise_var=n0, err_energy=e0)
        for alpha in (0.5, 2.0, 10.0):
            scaled = blind_estimate(alpha * y, noise_var=alpha ** 2 * n0,
                                    err_energy=alpha ** 2 * e0)
            assert scaled.betas[0] == pytest.approx(base.betas[0] / alpha,
                                                    rel=1e-12)

    def test_rows_are_independent_ues(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        y[2] = 0.0
        est = blind_estimate(y, noise_var=0.1)
        assert est.betas.shape == (6,)
        for u in range(6):
            assert est.betas[u] == blind_estimate(y[u], noise_var=0.1).betas[0]
        assert est.clamped == 1
        assert type(est.clamped) is int

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            blind_estimate(np.array([], dtype=complex), noise_var=0.1)


class TestGenie:
    def test_passes_through_exact_factor(self):
        est = genie_estimate(0.42, num_ues=3)
        assert np.array_equal(est.betas, [0.42, 0.42, 0.42])
        assert est.clamped == 0

    def test_zero_factor_clamped(self):
        est = genie_estimate(0.0, num_ues=4)
        assert est.clamped == 4
        assert type(est.clamped) is int
        assert np.all(est.betas == EPS_BETA)

    def test_nonfinite_factor_rejected(self):
        with pytest.raises(ValueError):
            genie_estimate(math.nan, num_ues=2)


@pytest.mark.parametrize("estimate", [
    lambda: genie_estimate(math.inf, num_ues=3),
    lambda: genie_estimate(math.nan, num_ues=3),
    lambda: pilot_mle(np.array([1.0, complex(math.inf, math.inf)])),
    lambda: pilot_mle(np.array([complex(math.nan, 1.0), 1.0])),
    lambda: blind_estimate(np.array([[1.0, 1.0], [math.inf, 1.0]]), noise_var=0.1),
    lambda: blind_estimate(np.array([[1.0, 1j], [0.5, complex(0.0, -math.inf)]]), noise_var=0.1),
    lambda: blind_estimate(np.array([[1.0, math.nan], [1.0, 1.0]]), noise_var=0.1),
], ids=["genie-inf", "genie-nan", "pilot-inf+infj", "pilot-nan", "blind-inf",
        "blind-inf-imag", "blind-nan"])
def test_each_estimator_raises_on_nonfinite_input(estimate):
    with pytest.raises(ValueError, match="finite and positive"):
        estimate()


@pytest.mark.parametrize("betas, ok", [
    ([0.5, 2.0], True), ([], True), ([0.5, math.nan], False), ([math.inf, 1.0], False),
    ([1.0, -math.inf], False), ([0.0, 1.0], False), ([1.0, -3.0], False),
], ids=["positive", "empty", "nan", "inf", "-inf", "zero", "negative"])
def test_checked_admits_only_finite_positive_estimates(betas, ok):
    betas = np.array(betas, dtype=float)
    if ok:
        assert _checked(betas, np.zeros(betas.shape, bool)).clamped == 0
    else:
        with pytest.raises(ValueError, match="finite and positive"):
            _checked(betas, np.zeros(betas.shape, bool))
