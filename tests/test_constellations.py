"""Tests for constellation tables, Gray labelings, modulation, detection."""

import numpy as np
import pytest

from onebit_mimo import CONSTELLATION_IDS, detect, get_constellation, modulate

from oracles import joint_search_detect, linear_scan_detect

ALL_IDS = list(CONSTELLATION_IDS)
CONSTANT_MODULUS_IDS = ["qpsk", "8psk", "16psk"]
SQUARE_IDS = ["qpsk", "16qam", "64qam"]


def _complex(re, im):
    """re + j im without the NaN that 1j * inf makes of a zero real part."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _assert_matches_linear_scan(shat, c):
    codes = detect(shat, c)
    assert codes.shape == np.shape(shat)
    for k in np.ndindex(codes.shape):
        assert codes[k] == linear_scan_detect(shat[k], c.points), shat[k]


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
        codes = detect(symbols, c)
        assert codes.shape == symbols.shape
        assert np.array_equal(c.labels[codes].reshape(-1), bits)


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
            idx = detect(p, c)
            assert np.shape(idx) == ()  # a scalar gives a 0-d code
            assert idx == i

    def test_origin_tie_breaks_to_lowest_index(self):
        idx = detect(0j, get_constellation("qpsk"))
        assert idx == 0

    @pytest.mark.parametrize("name", ALL_IDS)
    def test_matches_linear_scan(self, name):
        c = get_constellation(name)
        rng = np.random.default_rng(17)
        shat = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        idx = detect(shat, c)
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
        base = detect(shat, c)
        for alpha in (1e-3, 0.5, 7.0, 1e4):
            scaled = detect(alpha * shat, c)
            assert np.array_equal(base, scaled)

    def test_qam_is_not_constant_modulus(self):
        mags = np.abs(get_constellation("16qam").points)
        assert not mags.max() - mags.min() < 1e-12

    def test_64qam_axes_are_read_off_the_table(self):
        c = get_constellation("64qam")
        in_phase, quadrature = c.axes
        grid = (in_phase[:, None] + 1j * quadrature).ravel()
        assert np.array_equal(grid.real, c.points.real)
        assert np.array_equal(grid.imag, c.points.imag)

    @pytest.mark.parametrize("name", ["qpsk", "16qam", "8psk", "16psk"])
    def test_joint_search_below_64_points(self, name):
        assert get_constellation(name).axes is None

    @pytest.mark.parametrize("name", SQUARE_IDS)
    def test_exact_ties_match_linear_scan(self, name):
        # every midpoint that lies exactly between its two adjacent levels,
        # against every level and such midpoint on the other axis; each tie
        # goes to the lowest label
        c = get_constellation(name)
        levels = np.unique(c.points.real)
        mids = (levels[:-1] + levels[1:]) / 2
        mids = mids[mids - levels[:-1] == levels[1:] - mids]
        assert 0.0 in mids and len(mids) == {"qpsk": 1, "16qam": 1, "64qam": 5}[name]
        values = np.concatenate([levels, mids])
        shat = np.concatenate([_complex(mids[:, None], values).ravel(),
                               _complex(values[:, None], mids).ravel(), [0j]])
        _assert_matches_linear_scan(shat, c)

    @pytest.mark.parametrize("name", ["64qam"])
    def test_codes_equal_joint_search(self, name):
        # bit for bit, where rounding decides: at every float midpoint, also
        # those an ulp off the true one, and far out, where one axis's
        # distance swamps the other's
        c = get_constellation(name)
        levels = np.unique(c.points.real)
        mids = (levels[:-1] + levels[1:]) / 2
        values = np.concatenate([levels, mids, np.nextafter(mids, np.inf),
                                 [1e10, -1e10, 1e150, np.inf, -np.inf, np.nan]])
        rng = np.random.default_rng(21)
        shat = np.concatenate([_complex(values[:, None], values).ravel(),
                               _complex(rng.standard_normal(2000),
                                        rng.standard_normal(2000))])
        assert np.array_equal(detect(shat, c), joint_search_detect(shat, c.points))

    @pytest.mark.parametrize("name", SQUARE_IDS + ["8psk"])
    def test_far_outside_the_grid_matches_linear_scan(self, name):
        c = get_constellation(name)
        near = np.concatenate([np.unique(c.points.real), [0.0, 0.3, -0.7]])
        far = np.array([3.0, -25.0, 1e3, -1e6, 1e10])
        rng = np.random.default_rng(19)
        angles = np.exp(2j * np.pi * rng.random(50))
        shat = np.concatenate([_complex(far[:, None], near).ravel(),
                               _complex(near[:, None], far).ravel(),
                               _complex(far[:, None], far).ravel(),
                               (far[:, None] * angles).ravel()])
        _assert_matches_linear_scan(shat, c)

    @pytest.mark.parametrize("name", SQUARE_IDS + ["8psk"])
    def test_nonfinite_samples_match_linear_scan(self, name):
        # the scan finds no point nearer than infinity, so label 0
        c = get_constellation(name)
        finite = np.array([0.0, 0.4, -1.1, 30.0])
        bad = np.array([np.nan, np.inf, -np.inf])
        shat = np.concatenate([_complex(bad[:, None], finite).ravel(),
                               _complex(finite[:, None], bad).ravel(),
                               _complex(bad[:, None], bad).ravel()])
        _assert_matches_linear_scan(shat, c)
        assert not detect(shat, c).any()

    @pytest.mark.parametrize("name", SQUARE_IDS + ["8psk"])
    def test_block_and_scalar_shapes(self, name):
        c = get_constellation(name)
        rng = np.random.default_rng(20)
        block = _complex(rng.standard_normal((16, 10)), rng.standard_normal((16, 10)))
        _assert_matches_linear_scan(block, c)
        _assert_matches_linear_scan(block[:, :0], c)
        scalar = detect(complex(block[3, 4]), c)
        assert np.shape(scalar) == ()
        assert scalar == linear_scan_detect(block[3, 4], c.points)

    def test_unknown_id_rejected(self):
        # an id has one spelling: the command line strips and lower-cases
        for name in ("32apsk", " 16qam", "16QAM", "qpsk\n"):
            with pytest.raises(ValueError, match="unknown constellation"):
                get_constellation(name)
