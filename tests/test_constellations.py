"""Tests for constellation tables, Gray labelings, modulation, detection."""

import numpy as np
import pytest

from onebit_mimo import CONSTELLATION_IDS, detect, get_constellation, modulate

from oracles import linear_scan_detect

ALL_IDS = list(CONSTELLATION_IDS)
CONSTANT_MODULUS_IDS = ["qpsk", "8psk", "16psk"]


@pytest.mark.parametrize("name", ALL_IDS)
class TestTables:
    def test_unit_average_energy(self, name):
        c = get_constellation(name)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-15

    def test_labels_are_a_bijection(self, name):
        c = get_constellation(name)
        m = c.bits_per_symbol
        codes = [int("".join(map(str, row)), 2) for row in c.labels]
        # stored in label order: row c spells c, so the map is a bijection
        assert codes == list(range(2 ** m))
        assert len(c.points) == 2 ** m

    def test_modulate_demap_roundtrip_all_labels(self, name):
        c = get_constellation(name)
        bits = c.labels.reshape(-1)
        symbols = modulate(bits, c)
        _, bits_hat = detect(symbols, c)
        assert np.array_equal(bits_hat.reshape(-1), bits)


class TestGrayProperty:
    @pytest.mark.parametrize("name", CONSTANT_MODULUS_IDS)
    def test_psk_circular_neighbors_differ_in_one_bit(self, name):
        c = get_constellation(name)
        order = np.argsort(np.angle(c.points) % (2 * np.pi))
        for i in range(len(order)):
            a = c.labels[order[i]]
            b = c.labels[order[(i + 1) % len(order)]]
            assert int(np.sum(a != b)) == 1

    @pytest.mark.parametrize("name", ["16qam", "64qam"])
    def test_qam_grid_neighbors_differ_in_one_bit(self, name):
        c = get_constellation(name)
        res = {complex(round(p.real, 9), round(p.imag, 9)): i
               for i, p in enumerate(c.points)}
        reals = sorted({round(p.real, 9) for p in c.points})
        spacing = reals[1] - reals[0]
        for p, i in res.items():
            for dz in (spacing, 1j * spacing):
                q = complex(round((p + dz).real, 9), round((p + dz).imag, 9))
                if q in res:
                    assert int(np.sum(c.labels[i] != c.labels[res[q]])) == 1


class TestModulate:
    def test_qpsk_double_zero_maps_northeast(self):
        c = get_constellation("qpsk")
        sym = modulate([0, 0], c)
        assert sym[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_16qam_energy_over_all_labels(self):
        c = get_constellation("16qam")
        symbols = modulate(c.labels.reshape(-1), c)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0)

    def test_rejects_ragged_bit_count(self):
        with pytest.raises(ValueError):
            modulate([0, 1, 0], get_constellation("qpsk"))


class TestDetect:
    @pytest.mark.parametrize("name", ALL_IDS)
    def test_exact_point_detected(self, name):
        c = get_constellation(name)
        for i, p in enumerate(c.points):
            idx, bits = detect(p, c)
            assert idx == i
            assert np.array_equal(bits, c.labels[i])

    def test_origin_tie_breaks_to_lowest_index(self):
        idx, _ = detect(0j, get_constellation("qpsk"))
        assert idx == 0

    @pytest.mark.parametrize("name", ALL_IDS)
    def test_matches_linear_scan(self, name):
        c = get_constellation(name)
        rng = np.random.default_rng(17)
        shat = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        idx, _ = detect(shat, c)
        for k in range(shat.size):
            assert idx[k] == linear_scan_detect(shat[k], c.points)

    @pytest.mark.parametrize("name", CONSTANT_MODULUS_IDS)
    def test_constant_modulus_scale_invariance(self, name):
        # decisions never depend on a positive receiver-side scaling
        c = get_constellation(name)
        mags = np.abs(c.points)
        assert mags.max() - mags.min() < 1e-12
        rng = np.random.default_rng(18)
        shat = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        base, _ = detect(shat, c)
        for alpha in (1e-3, 0.5, 7.0, 1e4):
            scaled, _ = detect(alpha * shat, c)
            assert np.array_equal(base, scaled)

    def test_qam_is_not_constant_modulus(self):
        mags = np.abs(get_constellation("16qam").points)
        assert not mags.max() - mags.min() < 1e-12

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            get_constellation("32apsk")
