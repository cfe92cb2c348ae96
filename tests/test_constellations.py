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

    @pytest.mark.parametrize("bits", [
        [0, 0, 0, 2], np.array([3, 0, 1, 255], dtype=np.uint8), [0, 0, 1, -1],
        np.array([0, 0, 0, 256]), [0.5, 0, 1, 1], [0.0, np.nan, 1.0, 0.0]],
        ids=["two", "uint8", "negative", "wraps_to_zero", "fraction", "nan"])
    def test_rejects_bits_other_than_zero_and_one(self, bits):
        # a 2 would index another label's point; 256 and 0.5 would turn
        # into a valid bit in a cast to uint8
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            modulate(bits, get_constellation("16qam"))

    def test_zeros_and_ones_of_any_dtype_accepted(self):
        c = get_constellation("16qam")
        bits = c.labels.reshape(-1)
        for given in (bits.tolist(), bits.astype(bool), bits.astype(float),
                      bits.astype(np.int64)):
            assert np.array_equal(modulate(given, c), modulate(bits, c))


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
        # every grid's slicer levels are the table's own, bit for bit, on
        # both axes, and its code table puts each label at its sorted levels
        for name in SQUARE_IDS:
            c = get_constellation(name)
            levels = c.slicer.levels
            side = levels.size
            assert side ** 2 == c.points.size
            assert np.array_equal(np.sort(c.points.real[::side]), levels)
            assert np.array_equal(np.sort(c.points.imag[:side]), levels)
            assert np.array_equal(c.points.real[c.slicer.codes], np.repeat(levels, side))
            assert np.array_equal(c.points.imag[c.slicer.codes], np.tile(levels, side))

    @pytest.mark.parametrize("name", ["8psk", "16psk"])
    def test_joint_search_below_64_points(self, name):
        # the PSK sets have no slicer: the joint search decides them
        assert get_constellation(name).slicer is None

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

    @pytest.mark.parametrize("name", SQUARE_IDS)
    def test_codes_equal_joint_search(self, name):
        # bit for bit, where rounding decides: at every float midpoint, also
        # those an ulp off the true one, and far out, where one axis's
        # distance swamps the other's; as one array, which a NaN sends to
        # the joint search, and sample by sample, most of which are sliced
        c = get_constellation(name)
        levels = np.unique(c.points.real)
        mids = (levels[:-1] + levels[1:]) / 2
        values = np.concatenate([levels, mids, np.nextafter(mids, np.inf),
                                 [1e10, -1e10, 1e150, np.inf, -np.inf, np.nan]])
        rng = np.random.default_rng(21)
        random = _complex(rng.standard_normal(2000), rng.standard_normal(2000))
        shat = np.concatenate([_complex(values[:, None], values).ravel(), random])
        expected = joint_search_detect(shat, c.points)
        assert np.array_equal(detect(shat, c), expected)
        assert np.array_equal(detect(random, c), expected[-random.size:])
        assert [int(detect(z, c)) for z in shat] == expected.tolist()

    @pytest.mark.parametrize("case", [
        "clamped_beside_large", "far_component", "nonfinite", "negative_zero",
        "empty", "scalar", "column_slice"])
    @pytest.mark.parametrize("name", SQUARE_IDS)
    def test_hard_inputs_equal_joint_search(self, name, case):
        # inputs where a slice could go wrong; any warning is an error here
        c = get_constellation(name)
        levels = np.unique(c.points.real)
        mids = (levels[:-1] + levels[1:]) / 2
        on_threshold = np.concatenate([mids, np.nextafter(mids, np.inf),
                                       np.nextafter(mids, -np.inf)])
        rng = np.random.default_rng(22)
        block = _complex(rng.standard_normal((16, 9)), rng.standard_normal((16, 9)))
        if case == "clamped_beside_large":
            # a pilot UE whose factor is clamped to 1e-9, beside one whose
            # tiny pilot makes its factor large: sliced, as every component
            # clears the guard; then with a UE nearer zero still, where the
            # joint search's distances round to ties
            away = np.copysign(1.0 + abs(block.real), block.real)
            clamped = 1e-9 * _complex(away, -away[::-1])
            sliced = np.concatenate([clamped, 30.0 + block])
            assert np.array_equal(detect(sliced, c), joint_search_detect(sliced, c.points))
            shat = np.concatenate([sliced, 1e-18 * block])
        elif case == "far_component":
            far = np.array([1e6, -1e6, 1e150, -1e150])
            shat = np.concatenate([_complex(far[:, None], on_threshold).ravel(),
                                   _complex(on_threshold[:, None], far).ravel()])
        elif case == "nonfinite":
            bad = np.array([np.nan, np.inf, -np.inf])
            shat = np.concatenate([_complex(bad[:, None], block[0].real).ravel(),
                                   _complex(block[0].imag[:, None], bad).ravel(),
                                   block[1]])
        elif case == "negative_zero":
            values = np.concatenate([[-0.0, 0.0], levels, block[0].real])
            shat = np.concatenate([_complex(-0.0, values), _complex(values, -0.0)])
        elif case == "empty":
            shat = block[:, :0]
        elif case == "scalar":
            shat = np.complex128(block[3, 4])
        else:
            shat = block[:, 4]
            assert not shat.flags.c_contiguous
        codes = detect(shat, c)
        assert codes.shape == np.shape(shat)
        assert np.array_equal(codes, joint_search_detect(shat, c.points))
        for z in np.ravel(shat):
            assert detect(z, c) == joint_search_detect(z, c.points)

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
