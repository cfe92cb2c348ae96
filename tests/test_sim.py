"""Tests for the Monte-Carlo harness: trials, exhaustive oracle, sweeps, CSV."""

import math

import numpy as np
import pytest

from onebit_mimo import (
    PRECODER_IDS,
    PRECODERS,
    ChannelMatrix,
    SweepConfig,
    SystemConfig,
    TrialConfig,
    brute_force_qp,
    gen_rayleigh_channel,
    records_to_csv,
    run_trial,
    sweep,
    trial_seed_for,
)
from onebit_mimo.sim import CSV_HEADER, draw_trial_data

from oracles import enumerate_qp


def _tiny_system(snr_db=10.0, num_bs_antennas=4, num_ues=2, num_slots=2):
    return SystemConfig.from_snr_db(num_bs_antennas, num_ues, num_slots,
                                    snr_db=snr_db)


class TestTrialSeeding:
    def test_counter_scheme_is_deterministic(self):
        a = trial_seed_for(7, 3, 11)
        b = trial_seed_for(7, 3, 11)
        assert a.entropy == b.entropy
        assert np.array_equal(a.generate_state(4), b.generate_state(4))

    def test_distinct_counters_give_distinct_streams(self):
        a = trial_seed_for(7, 0, 0).generate_state(4)
        for args in ((7, 0, 1), (7, 1, 0), (8, 0, 0)):
            assert not np.array_equal(a, trial_seed_for(*args).generate_state(4))

    def test_draw_trial_data_is_pure_in_the_seed(self):
        system = _tiny_system()
        seed = trial_seed_for(1, 0, 0)
        h1, f1, n1 = draw_trial_data(system, "qpsk", 2, seed)
        h2, f2, n2 = draw_trial_data(system, "qpsk", 2, trial_seed_for(1, 0, 0))
        assert np.array_equal(h1.h, h2.h)
        assert np.array_equal(f1.bits, f2.bits)
        assert np.array_equal(n1, n2)


class TestRunTrial:
    def test_noiseless_single_link_is_error_free(self):
        system = SystemConfig(1, 1, 4, noise_var=1e-12, transmit_power=1.0)
        cfg = TrialConfig(system=system, constellation="qpsk",
                          precoder="bruteforce", estimator="genie")
        res = run_trial(cfg, trial_seed_for(0, 0, 0))
        assert res.bits_total == 8
        assert int(res.bit_errors.sum()) == 0

    def test_same_seed_reproduces_counts(self):
        cfg = TrialConfig(system=_tiny_system(snr_db=0.0), constellation="16qam",
                          precoder="zfq", estimator="blind")
        a = run_trial(cfg, trial_seed_for(5, 1, 2))
        b = run_trial(cfg, trial_seed_for(5, 1, 2))
        assert np.array_equal(a.bit_errors, b.bit_errors)
        assert a.objective == b.objective

    def test_reusing_one_seed_object_is_side_effect_free(self):
        cfg = TrialConfig(system=_tiny_system(snr_db=0.0), precoder="zfq")
        seed = trial_seed_for(5, 1, 2)
        a = run_trial(cfg, seed)
        b = run_trial(cfg, seed)
        assert np.array_equal(a.bit_errors, b.bit_errors)

    def test_exhaustive_precoder_dominates_squid_objective(self):
        system = SystemConfig.from_snr_db(4, 2, 1, snr_db=5.0)
        for trial in range(6):
            seed = trial_seed_for(3, 0, trial)
            res_bf = run_trial(TrialConfig(system=system, precoder="bruteforce",
                                           estimator="genie"), seed)
            res_sq = run_trial(TrialConfig(system=system, precoder="squid",
                                           estimator="genie"), seed)
            assert res_bf.objective <= res_sq.objective + 1e-12

    def test_pilot_mode_consumes_first_slot(self):
        system = _tiny_system(num_slots=5)
        cfg = TrialConfig(system=system, constellation="qpsk",
                          precoder="zfq", estimator="pilot")
        res = run_trial(cfg, trial_seed_for(0, 0, 0))
        # payload = K - 1 slots, 2 bits per QPSK symbol
        assert res.bits_total == system.num_ues * 4 * 2

    def test_pilot_needs_two_slots(self):
        with pytest.raises(ValueError):
            TrialConfig(system=SystemConfig(2, 1, 1, noise_var=0.1),
                        estimator="pilot")

    def test_registry_names_every_precoder(self):
        system = _tiny_system(num_bs_antennas=2, num_slots=1)
        for precoder in PRECODER_IDS:
            res = PRECODERS[precoder](np.ones((2, 1), dtype=complex),
                                      gen_rayleigh_channel(2, 2, seed=1),
                                      TrialConfig(system=system, precoder=precoder))
            assert res.x.shape == (2, 1)
        assert PRECODER_IDS == tuple(PRECODERS)

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(system=_tiny_system(), precoder="dirty-paper")
        with pytest.raises(ValueError):
            TrialConfig(system=_tiny_system(), estimator="oracle")


class TestBruteForce:
    def test_aligned_scalar_case(self):
        cfg = SystemConfig(1, 1, 1, noise_var=0.01)
        level = cfg.quant_level
        s = np.array([[3.0 * level * (1 + 1j)]])
        x, beta, _ = brute_force_qp(s, ChannelMatrix(np.eye(1)), cfg)
        assert x[0, 0] == level * (1 + 1j)
        assert beta > 0

    def test_matches_plain_loop_enumeration(self):
        cfg = SystemConfig(2, 2, 2, noise_var=0.3)
        rng = np.random.default_rng(21)
        for _ in range(3):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x, beta, obj = brute_force_qp(s, h, cfg)
            x_o, beta_o, obj_o = enumerate_qp(s, h, cfg.quant_level, cfg.noise_var)
            assert np.allclose(x, x_o, atol=1e-14)
            assert obj == pytest.approx(obj_o, rel=1e-10)

    def test_guard_rejects_oversized_search(self):
        cfg = SystemConfig(16, 2, 1, noise_var=0.1)
        s = np.ones((2, 1), dtype=complex)
        h = np.ones((2, 16), dtype=complex)
        with pytest.raises(ValueError):
            brute_force_qp(s, h, cfg)


class TestSweep:
    def _cfg(self, **overrides):
        base = dict(num_bs_antennas=4, num_ues=2, num_slots=2,
                    snr_db=(0.0, 6.0), constellation="qpsk",
                    precoders=("zfq", "squid"), estimator="blind",
                    trials=3, seed=9, out=None)
        base.update(overrides)
        return SweepConfig(**base)

    def test_empty_precoder_list_rejected(self):
        with pytest.raises(ValueError):
            self._cfg(precoders=())

    def test_bad_settings_rejected_at_construction(self, tmp_path):
        # sweep would only meet these at a point's turn, after earlier trials
        for overrides in (dict(precoders=("zfq", "nope")),
                          dict(estimator="oracle"),
                          dict(estimator="pilot", num_slots=1),
                          dict(num_bs_antennas=1),
                          dict(out=tmp_path / "missing" / "x.csv")):
            with pytest.raises(ValueError):
                self._cfg(**overrides)
        with pytest.raises(KeyError):
            self._cfg(constellation="5qam")

    def test_single_point_single_trial(self):
        records = sweep(self._cfg(snr_db=(4.0,), precoders=("zfq",), trials=1))
        assert len(records) == 1
        rec = records[0]
        assert rec.trials == 1
        assert rec.bits_total == 2 * 2 * 2  # U slots bits-per-symbol
        assert 0 <= rec.bit_errors <= rec.bits_total

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep(self._cfg(out=out1))
        sweep(self._cfg(out=out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_schema(self):
        records = sweep(self._cfg(trials=2))
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "zfq" and first[2] == "qpsk"
        assert first[3] == "blind"

    def test_record_order_is_point_major(self):
        records = sweep(self._cfg(trials=1))
        keys = [(r.snr_db, r.precoder) for r in records]
        assert keys == [(0.0, "zfq"), (0.0, "squid"),
                        (6.0, "zfq"), (6.0, "squid")]

    def test_paired_seeds_across_precoders(self):
        # both precoders face the same channel/bits/noise in each trial,
        # so the brute-force objective dominates trial by trial
        system = SystemConfig.from_snr_db(3, 2, 2, snr_db=5.0)
        for trial in range(4):
            seed = trial_seed_for(9, 0, trial)
            objs = {}
            for precoder in ("bruteforce", "zfq", "squid"):
                cfg = TrialConfig(system=system, precoder=precoder,
                                  estimator="blind")
                objs[precoder] = run_trial(cfg, seed).objective
            assert objs["bruteforce"] <= objs["zfq"] + 1e-12
            assert objs["bruteforce"] <= objs["squid"] + 1e-12

    def test_constant_modulus_ber_ignores_the_factor(self):
        # with constant-modulus symbols, any positive factor estimate gives
        # the same minimum-distance decisions, so genie and blind agree
        for constellation in ("qpsk", "8psk"):
            system = _tiny_system(snr_db=2.0, num_slots=4)
            for trial in range(5):
                seed = trial_seed_for(11, 0, trial)
                counts = {}
                for estimator in ("genie", "blind"):
                    cfg = TrialConfig(system=system, constellation=constellation,
                                      precoder="squid", estimator=estimator)
                    counts[estimator] = run_trial(cfg, seed).bit_errors
                assert np.array_equal(counts["genie"], counts["blind"])

    def test_early_stop_reduces_trials(self):
        noisy = self._cfg(snr_db=(-10.0,), precoders=("zfq",), trials=50,
                          stop_after_errors=5)
        records = sweep(noisy)
        assert records[0].bit_errors >= 5
        assert records[0].trials < 50

    def test_hard_failures_counted_not_dropped(self):
        cfg = self._cfg(num_bs_antennas=16, precoders=("bruteforce",),
                        snr_db=(0.0,), trials=2)  # guard trips every trial
        records = sweep(cfg)
        assert records[0].failures == 2
        assert records[0].trials == 2
        assert records[0].bits_total == 0
        # no finished trial, no BER: NaN rather than a perfect 0
        assert math.isnan(records[0].ber)
        assert records_to_csv(records).split("\n")[1].split(",")[7] == "nan"

    def test_golden_regression(self):
        # frozen counts pin the RNG contract end to end
        records = sweep(self._cfg(trials=2, precoders=("zfq",), snr_db=(0.0,)))
        rec = records[0]
        assert (rec.bit_errors, rec.bits_total) == (GOLDEN_ERRORS, 16)


# frozen from the documented seeding scheme (master seed 9, point 0,
# trials 0..1); any change to the RNG contract shows up here
GOLDEN_ERRORS = 5
