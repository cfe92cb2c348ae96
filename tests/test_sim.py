"""Tests for the Monte-Carlo harness: trials, exhaustive oracle, sweeps, CSV."""

import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest

from onebit_mimo import (
    ESTIMATOR_IDS,
    PRECODER_IDS,
    PRECODERS,
    PrecodeResult,
    SweepConfig,
    SystemConfig,
    TrialConfig,
    apply_channel,
    brute_force_qp,
    detect,
    gen_rayleigh_channel,
    get_constellation,
    modulate,
    optimal_beta_for,
    qp_objective,
    real_embed,
    records_to_csv,
    run_trial,
    squid_relax,
    stack_real,
    sweep,
    trial_seed_for,
)
from onebit_mimo import linear, sdr, sim, squid
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

    @pytest.mark.parametrize("payload_slots", (0, 3, 1.5), ids=("zero", "K_plus_1", "fraction"))
    def test_payload_slots_outside_one_to_k_rejected(self, payload_slots):
        # K = 2: a longer payload would sit beside 2 slots of noise, and none
        # would be an empty frame
        with pytest.raises(ValueError, match="payload_slots"):
            draw_trial_data(_tiny_system(), "qpsk", payload_slots, trial_seed_for(1, 0, 0))

    @pytest.mark.parametrize("payload_slots", (1, 3))
    def test_payload_slots_from_one_to_k_accepted(self, payload_slots):
        system = _tiny_system(num_slots=3)
        _, frame, noise = draw_trial_data(system, "16qam", payload_slots,
                                          trial_seed_for(1, 0, 0))
        assert frame.s.shape == noise.shape == (2, 3)
        assert frame.bits.shape == (2, 4 * payload_slots)


def _draw_arrays(system, constellation, payload_slots, seed):
    h, frame, noise = draw_trial_data(system, constellation, payload_slots, seed)
    return h.h, frame.s, frame.bits, noise


def _cold_draw(system, constellation, payload_slots, seed):
    """A draw made right after a different one, so the cache cannot serve it."""
    draw_trial_data(_tiny_system(snr_db=-3.0), "8psk", 1, 12345)
    return [a.copy() for a in _draw_arrays(system, constellation,
                                           payload_slots, seed)]


def _assert_same(arrays, expected):
    assert all(np.array_equal(a, e) for a, e in zip(arrays, expected, strict=True))


class TestDrawCache:
    """draw_trial_data keeps its last draw; that must never show."""

    def test_arrays_are_read_only(self):
        h, frame, noise = draw_trial_data(_tiny_system(), "16qam", 2,
                                          trial_seed_for(1, 0, 0))
        for array in (h.h, frame.s, frame.bits, noise):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_repeat_call_returns_equal_data(self):
        seed = trial_seed_for(1, 0, 0)
        expected = _cold_draw(_tiny_system(), "16qam", 2, seed)
        _assert_same(_draw_arrays(_tiny_system(), "16qam", 2, seed), expected)
        _assert_same(_draw_arrays(_tiny_system(), "16qam", 2, seed), expected)

    @pytest.mark.parametrize("index, value", (
        (0, _tiny_system(snr_db=3.0)), (1, "qpsk"), (2, 1),
    ), ids=("noise_var", "constellation", "payload_slots"))
    def test_one_changed_argument_draws_afresh(self, index, value):
        base = (_tiny_system(), "16qam", 2, trial_seed_for(1, 0, 0))
        changed = list(base)
        changed[index] = value
        expected = _cold_draw(*changed)
        first = [a.copy() for a in _draw_arrays(*base)]  # cached next
        fresh = _draw_arrays(*changed)
        _assert_same(fresh, expected)
        assert not all(a.shape == f.shape and np.array_equal(a, f)
                       for a, f in zip(fresh, first))

    def test_equal_seeds_in_any_form_give_equal_values(self):
        system = _tiny_system()
        expected = _cold_draw(system, "qpsk", 2, np.random.SeedSequence(5))
        for seed in (np.random.SeedSequence(5), 5, np.int64(5),
                     np.random.SeedSequence(5)):
            _assert_same(_draw_arrays(system, "qpsk", 2, seed), expected)
        expected = _cold_draw(system, "qpsk", 2, trial_seed_for(1, 2, 3))
        for seed in ((1, 2, 3), [1, 2, 3], np.array([1, 2, 3]),
                     np.random.SeedSequence([1, 2, 3])):
            _assert_same(_draw_arrays(system, "qpsk", 2, seed), expected)

    def test_unhashable_seed_changed_in_place_draws_afresh(self):
        system = _tiny_system()
        seed = [1, 2]
        first = [a.copy() for a in _draw_arrays(system, "qpsk", 2, seed)]
        seed[0] = 3
        expected = _cold_draw(system, "qpsk", 2, [3, 2])
        draw_trial_data(system, "qpsk", 2, [1, 2])
        fresh = _draw_arrays(system, "qpsk", 2, seed)
        _assert_same(fresh, expected)
        assert not np.array_equal(fresh[0], first[0])

    def test_threads_drawing_at_once_get_their_own_data(self):
        system = _tiny_system()
        seeds = [trial_seed_for(4, 0, t) for t in range(3)]
        expected = [_cold_draw(system, "16qam", 2, seed) for seed in seeds]
        wrong = []

        def draw_many(offset):
            for i in range(200):
                k = (i + offset) % len(seeds)
                got = _draw_arrays(system, "16qam", 2, seeds[k])
                if not all(np.array_equal(a, e) for a, e in zip(got, expected[k])):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw_many, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("estimator", ("pilot", "blind"))
    def test_every_precoder_gets_the_draws_transmit_frame(self, monkeypatch, estimator):
        # the drawn frame is the K-slot transmit frame: pilots of 1, then the
        # payload its bits modulate
        frames = []

        def recording(fn):
            def call(s, h, cfg):
                frames.append(s)
                return fn(s, h, cfg)
            return call

        precoders = ("zfq", "mrtq", "squid")
        for precoder in precoders:
            monkeypatch.setitem(sim.PRECODERS, precoder, recording(sim.PRECODERS[precoder]))
        system, seed = _tiny_system(), trial_seed_for(2, 0, 0)
        for precoder in precoders:
            run_trial(TrialConfig(system=system, precoder=precoder,
                                  estimator=estimator), seed)
        pilots = sim.ESTIMATORS[estimator][0]
        frame = draw_trial_data(system, "qpsk", system.num_slots - pilots, seed)[1]
        assert len(frames) == len(precoders)
        assert all(s is frame.s for s in frames)
        s_tx = frame.s
        assert s_tx.shape == (system.num_ues, system.num_slots)
        assert s_tx.flags.c_contiguous and not s_tx.flags.writeable
        with pytest.raises(ValueError):
            s_tx[...] = 0
        assert s_tx[:, :pilots].tobytes() == np.ones((system.num_ues, pilots), complex).tobytes()
        payload = modulate(frame.bits, get_constellation("qpsk")).reshape(system.num_ues, -1)
        assert s_tx[:, pilots:].tobytes() == payload.tobytes()


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

    def test_library_gets_the_channel_array(self, monkeypatch):
        # the precoder sees the drawn arrays themselves, with no pilot slot
        # the payload frame; the trial forms H X once, outside the precoder
        channels, frames = [], []

        def recording(fn):
            def call(s, h, cfg):
                channels.append(h)
                frames.append(s)
                return fn(s, h, cfg)
            return call

        monkeypatch.setitem(sim.PRECODERS, "zfq", recording(sim.PRECODERS["zfq"]))
        seed = trial_seed_for(2, 0, 0)
        run_trial(TrialConfig(system=_tiny_system(), precoder="zfq"), seed)
        drawn, frame, _ = draw_trial_data(_tiny_system(), "qpsk", 2, seed)
        assert len(channels) == 1
        assert channels[0] is drawn.h
        assert type(drawn.h) is np.ndarray and not drawn.h.flags.writeable
        assert frames[0] is frame.s and not frame.s.flags.writeable

    @pytest.mark.parametrize("system, constellation, precoders", (
        (SystemConfig.from_snr_db(4, 2, 2, snr_db=3.0), "16qam", PRECODER_IDS),
        (SystemConfig.from_snr_db(128, 16, 10, snr_db=4.0), "64qam", ("zfq", "mrtq")),
        (SystemConfig.from_snr_db(128, 16, 10, snr_db=8.0), "16qam", ("zfq", "squid")),
    ), ids=("B4", "linear_pilot_point", "paper_squid_point"))
    @pytest.mark.parametrize("estimator", ESTIMATOR_IDS)
    def test_numbers_equal_the_public_functions(self, monkeypatch, system,
                                                constellation, precoders, estimator):
        # run_trial forms H X once; the factor the estimator gets, the
        # objective and the samples must equal optimal_beta_for's,
        # qp_objective's and apply_channel's exactly
        seen = {}

        def recording(key, fn):
            def call(*args):
                seen[key] = args, fn(*args)
                return seen[key][1]
            return call

        pilots, estimate = sim.ESTIMATORS[estimator]
        monkeypatch.setitem(sim.ESTIMATORS, estimator,
                            (pilots, recording("estimate", estimate)))
        for precoder in precoders:
            monkeypatch.setitem(sim.PRECODERS, precoder,
                                recording("precode", PRECODERS[precoder]))
            cfg = TrialConfig(system=system, constellation=constellation,
                              precoder=precoder, estimator=estimator)
            for trial in range(3):
                seed = trial_seed_for(31, 0, trial)
                res = run_trial(cfg, seed)
                h, frame, noise = draw_trial_data(system, constellation,
                                                  system.num_slots - pilots, seed)
                s_tx = frame.s
                pre = seen["precode"][1]
                (beta, y_seen, _), _ = seen["estimate"]
                expected_beta = optimal_beta_for(s_tx, h.h @ pre.x, system.noise_var)
                assert beta.hex() == expected_beta.hex()
                expected = qp_objective(s_tx, h.h, pre.x, beta, system.noise_var)
                assert res.objective.hex() == expected.hex()
                y = apply_channel(h.h, pre.x, noise)
                assert y_seen.tobytes() == y.tobytes()

    @pytest.mark.parametrize("estimator", ("pilot", "blind"))
    def test_trial_runs_on_the_draw_it_made(self, monkeypatch, estimator):
        # whatever draw_trial_data returns is the trial's whole input: another
        # seed's draw swapped in reaches the precoder, and its bits the count
        seen = {}

        def recording(key, fn):
            def call(*args):
                seen[key] = args, fn(*args)
                return seen[key][1]
            return call

        system = _tiny_system(snr_db=0.0, num_slots=3)
        pilots, estimate = sim.ESTIMATORS[estimator]
        monkeypatch.setitem(sim.PRECODERS, "zfq", recording("precode", PRECODERS["zfq"]))
        monkeypatch.setitem(sim.ESTIMATORS, estimator,
                            (pilots, recording("estimate", estimate)))
        other = draw_trial_data(system, "16qam", system.num_slots - pilots,
                                trial_seed_for(7, 0, 0))
        monkeypatch.setattr(sim, "draw_trial_data", lambda *args: other)
        cfg = TrialConfig(system=system, constellation="16qam", precoder="zfq",
                          estimator=estimator)
        res = run_trial(cfg, trial_seed_for(6, 0, 0))
        frame = other[1]
        assert seen["precode"][0][0] is frame.s
        (_, y, _), est = seen["estimate"]
        const = get_constellation("16qam")
        bits_hat = const.labels[detect(est.betas[:, None] * y[:, pilots:], const)]
        errors = (bits_hat.reshape(system.num_ues, -1) != frame.bits).sum(axis=1)
        assert res.bit_errors.tolist() == errors.tolist()
        assert res.bits_total == frame.bits.size

    def test_frame_of_the_wrong_length_fails_the_trial(self, monkeypatch):
        # H X + N would broadcast a B x 1 frame over K = 3 slots silently
        system = SystemConfig.from_snr_db(4, 2, 3, snr_db=3.0)
        short = PrecodeResult(x=np.full((4, 1), system.quant_level * (1 + 1j)))
        monkeypatch.setitem(sim.PRECODERS, "zfq", lambda s, h, cfg: short)
        with pytest.raises(ValueError, match=r"shape \(4, 1\), not \(B, K\) = \(4, 3\)"):
            run_trial(TrialConfig(system=system, precoder="zfq"), trial_seed_for(1, 0, 0))
        records = sweep(SweepConfig(num_bs_antennas=4, num_ues=2, num_slots=3,
                                    snr_db=(3.0,), constellation="qpsk",
                                    precoders=("zfq", "mrtq"), estimator="blind",
                                    trials=2, seed=1))
        assert [(r.failures, r.bits_total > 0) for r in records] == [(2, False), (0, True)]

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

    @pytest.mark.parametrize("power", [1.0, 3.0])
    @pytest.mark.parametrize("precoder", PRECODER_IDS)
    def test_every_frame_lies_on_the_transmit_set(self, precoder, power):
        # B=3, K=2 keeps the oracle's 4^(BK) = 2^12 search inside its guard
        system = SystemConfig(3, 2, 2, noise_var=0.3, transmit_power=power)
        cfg = TrialConfig(system=system, constellation="16qam", precoder=precoder)
        level = system.quant_level
        for trial in range(3):
            h, frame, _ = draw_trial_data(system, "16qam", 2, trial_seed_for(21, 0, trial))
            x = PRECODERS[precoder](frame.s, h.h, cfg).x
            assert x.shape == (3, 2)
            # entries equal +-l +-jl bit for bit, not approximately
            assert np.all((x.real == level) | (x.real == -level))
            assert np.all((x.imag == level) | (x.imag == -level))
            power_per_slot = np.sum(np.abs(x) ** 2, axis=0)
            assert np.allclose(power_per_slot, power, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("precoder", PRECODER_IDS)
    def test_every_frame_is_c_ordered(self, precoder):
        # h @ x can take another BLAS path for a Fortran-ordered frame, and
        # under some kernels that moves the last bits of the product
        system = SystemConfig(3, 2, 2, noise_var=0.3)
        h, frame, _ = draw_trial_data(system, "16qam", 2, trial_seed_for(21, 0, 0))
        x = PRECODERS[precoder](frame.s, h.h, TrialConfig(system=system,
                                                          precoder=precoder)).x
        assert x.flags.c_contiguous

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
        x = brute_force_qp(s, np.eye(1), cfg).x
        beta = optimal_beta_for(s, np.eye(1) @ x, cfg.noise_var)
        assert x[0, 0] == level * (1 + 1j)
        assert beta > 0

    def test_matches_plain_loop_enumeration(self):
        cfg = SystemConfig(2, 2, 2, noise_var=0.3)
        rng = np.random.default_rng(21)
        for _ in range(3):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = brute_force_qp(s, h, cfg).x
            obj = qp_objective(s, h, x, optimal_beta_for(s, h @ x, cfg.noise_var),
                               cfg.noise_var)
            x_o, beta_o, obj_o = enumerate_qp(s, h, cfg.quant_level, cfg.noise_var)
            assert np.allclose(x, x_o, atol=1e-14)
            assert obj == pytest.approx(obj_o, rel=1e-10)

    @pytest.mark.parametrize("shape", [(6, 2, 1), (2, 1, 3), (3, 2, 2)],
                             ids=["B6-K1", "B2-K3", "B3-K2"])
    def test_lift_maps_each_bit_to_its_frame_entry(self, shape):
        # 12 sign bits each; a lift or unvec taken in the wrong order prices
        # or returns another frame than the plain loop's
        num_antennas, num_ues, num_slots = shape
        cfg = SystemConfig(num_antennas, num_ues, num_slots, noise_var=0.3)
        rng = np.random.default_rng(sum(shape))
        h = rng.standard_normal((num_ues, num_antennas)) \
            + 1j * rng.standard_normal((num_ues, num_antennas))
        s = rng.standard_normal((num_ues, num_slots)) \
            + 1j * rng.standard_normal((num_ues, num_slots))
        x = brute_force_qp(s, h, cfg).x
        obj = qp_objective(s, h, x, optimal_beta_for(s, h @ x, cfg.noise_var),
                           cfg.noise_var)
        assert obj == pytest.approx(enumerate_qp(s, h, cfg.quant_level, cfg.noise_var)[2],
                                    rel=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_candidate_objectives_rank_last(self):
        # [l+jl, l+jl] and its negation overflow H X, so their objective is
        # 0 * inf = NaN; it must not hide the finite candidates of its chunk
        cfg = SystemConfig(2, 1, 1, noise_var=0.1)
        s = np.array([[1 + 0j]])
        h = np.array([[1e154 + 0j, 1e154 + 0j]])
        x = brute_force_qp(s, h, cfg).x
        obj = qp_objective(s, h, x, optimal_beta_for(s, h @ x, cfg.noise_var),
                           cfg.noise_var)
        # the optimum ties, so compare objectives rather than frames
        assert obj == pytest.approx(enumerate_qp(s, h, cfg.quant_level, cfg.noise_var)[2],
                                    rel=0, abs=1e-12)

    def test_guard_rejects_oversized_search(self):
        cfg = SystemConfig(16, 2, 1, noise_var=0.1)
        s = np.ones((2, 1), dtype=complex)
        h = np.ones((2, 16), dtype=complex)
        with pytest.raises(ValueError):
            brute_force_qp(s, h, cfg)

    @pytest.mark.parametrize("entry", [complex(math.nan, 0.0), complex(1.0, math.inf)],
                             ids=["nan", "inf"])
    def test_nonfinite_frame_rejected(self, entry):
        # a NaN frame has no optimum to return, and an infinite one would
        # overflow the objective
        cfg = SystemConfig(2, 2, 1, noise_var=0.1)
        s = np.array([[1.0], [entry]])
        with pytest.raises(ValueError, match="must be finite"):
            brute_force_qp(s, np.eye(2, dtype=complex), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_objective_overflowing_is_rejected(self):
        # finite input whose every candidate objective overflows to inf or
        # NaN leaves the scan with no optimum to return; at B = 1 every
        # candidate's H X overflows, so every objective is 0 * inf = NaN
        cfg = SystemConfig(1, 1, 1, noise_var=0.1)
        with pytest.raises(ValueError, match="objectives overflowed"):
            brute_force_qp(np.array([[1 + 0j]]), np.array([[1e300 + 0j]]), cfg)


@pytest.mark.parametrize("entry", [complex(math.nan, 0.0), complex(1.0, math.inf)],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("precoder", ["squid", "sdr", "bruteforce", "squid_relax"])
def test_every_nonlinear_precoder_rejects_a_nonfinite_frame(precoder, entry):
    # SQUID, SDR and the oracle share one frame check, run before any solver
    system = SystemConfig(2, 2, 2, noise_var=0.1)
    s = np.ones((2, 2), dtype=complex)
    s[1, 0] = entry
    h = gen_rayleigh_channel(2, 2, seed=3)
    with pytest.raises(ValueError, match="frame entries must be finite"):
        if precoder == "squid_relax":
            squid_relax(real_embed(h), stack_real(s), system)
        else:
            PRECODERS[precoder](s, h, TrialConfig(system=system, precoder=precoder))


def _never_called(*args, **kwargs):
    raise AssertionError("a solver ran on arrays that do not fit the config")


@pytest.mark.parametrize("h_shape, s_shape", [
    ((2, 4), (2, 2)), ((3, 8), (3, 2)), ((2, 8), (2, 3)), ((2, 8), (2,)),
], ids=["antennas", "ues", "slots", "frame_1d"])
@pytest.mark.parametrize("precoder", ["zfq", "mrtq", "squid", "sdr", "bruteforce"])
def test_every_precoder_rejects_arrays_that_do_not_fit_the_config(precoder, h_shape,
                                                                  s_shape, monkeypatch):
    # B, U and K come from the config alone, so a channel or frame of another
    # size is rejected before any solve rather than precoded at the config's
    # level; the oracle's scan has no entry to patch, so its message shows it
    for module, name in ((linear, "zf_matrix"), (linear, "mrt_matrix"),
                         (squid, "_lsq_prox_gain"), (sdr, "solve_sdp")):
        monkeypatch.setattr(module, name, _never_called)
    system = SystemConfig.from_snr_db(8, 2, 2, snr_db=10.0)
    rng = np.random.default_rng(4)
    h = rng.standard_normal(h_shape) + 1j * rng.standard_normal(h_shape)
    with pytest.raises(ValueError, match=r"do not fit \(U, B, K\) = \(2, 8, 2\)"):
        PRECODERS[precoder](np.ones(s_shape, dtype=complex), h,
                            TrialConfig(system=system, precoder=precoder))


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
                          dict(out=tmp_path / "missing" / "x.csv"),
                          dict(constellation="5qam"),
                          dict(out=tmp_path),
                          dict(out=""),
                          dict(snr_db=()),
                          dict(trials=0),
                          dict(seed=-1),
                          dict(constellation=" 16qam"),
                          dict(constellation="QPSK"),
                          dict(precoders=("ZFQ",)),
                          dict(estimator="BLIND"),
                          dict(precoders=("zfq", "squid", "zfq"))):
            with pytest.raises(ValueError):
                self._cfg(**overrides)
        # a non-integral count would only fail inside the first trial
        for field, value in (("num_bs_antennas", 4.5), ("num_ues", 2.0),
                             ("num_slots", 2.0), ("trials", 2.5), ("seed", 1.5),
                             ("trials", True)):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                self._cfg(**{field: value})
        with pytest.raises(ValueError, match="precoder 'zfq' is listed more than once"):
            self._cfg(precoders=("zfq", "zfq"))
        # two rows with one (snr_db, precoder) key: equal, or equal once printed
        for snr_db, named in (((4, 4), "4.0 and 4.0"), ((-0.0, 0.0), "-0.0 and 0.0"),
                              ((0.0, 1.0000001, 1.0000002), "1.0000001 and 1.0000002")):
            with pytest.raises(ValueError, match=f"snr_db lists one point twice: {named}"):
                self._cfg(snr_db=snr_db)

    @pytest.mark.parametrize("field, value", [("snr_db", "10"), ("precoders", "squid")])
    def test_string_for_a_list_rejected(self, field, value):
        # tuple() of a string walks its characters: "10" would sweep 1 dB and 0 dB
        with pytest.raises(ValueError, match=f"{field} must be a sequence, not a string"):
            self._cfg(**{field: value})

    def test_negative_zero_snr_stored_as_zero(self, tmp_path):
        # -0 dB draws the trials of 0 dB, so its rows carry the same label
        negative = self._cfg(snr_db=(-0.0, 6.0), out=tmp_path / "negative.csv")
        assert math.copysign(1.0, negative.snr_db[0]) == 1.0
        sweep(negative)
        sweep(self._cfg(snr_db=(0.0, 6.0), out=tmp_path / "zero.csv"))
        assert (tmp_path / "negative.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()

    def test_numpy_integer_counts_accepted(self):
        counts = dict(num_bs_antennas=np.int64(4), num_ues=np.int64(2),
                      num_slots=np.int64(2), trials=np.int64(3), seed=np.int64(9))
        assert ([r.csv_row() for r in sweep(self._cfg(**counts))]
                == [r.csv_row() for r in sweep(self._cfg())])

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

    def test_interrupt_keeps_finished_points(self, tmp_path, monkeypatch):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        sweep(self._cfg(precoders=("zfq",), out=full))
        finished = b"".join(full.read_bytes().splitlines(keepends=True)[:2])
        calls = []
        uninterrupted = sim.run_trial

        def interrupt_in_point_1(tcfg, seed):
            calls.append(seed)
            if len(calls) == 3 + 2:  # point 1's second trial (3 per point)
                raise KeyboardInterrupt
            return uninterrupted(tcfg, seed)

        monkeypatch.setattr(sim, "run_trial", interrupt_in_point_1)
        with pytest.raises(KeyboardInterrupt):
            sweep(self._cfg(precoders=("zfq",), out=cut))
        assert cut.read_bytes() == finished  # the header and point 0's row

    @staticmethod
    def _per_precoder(cfg):
        """The records of one single-precoder sweep per precoder, point-major."""
        alone = [sweep(dataclasses.replace(cfg, precoders=(p,)))
                 for p in cfg.precoders]
        return [rows[point] for point in range(len(cfg.snr_db)) for rows in alone]

    @pytest.mark.parametrize("overrides", (
        # bruteforce is over its guard, so each of its trials fails first
        dict(num_bs_antennas=16, precoders=("bruteforce", "zfq"), trials=4),
    ), ids=("failing_precoder",))
    def test_shared_draw_matches_single_precoder_sweeps(self, overrides):
        cfg = self._cfg(**overrides)
        together = sweep(cfg)
        alone = self._per_precoder(cfg)
        assert ([dataclasses.replace(r, wall_time=0.0) for r in together]
                == [dataclasses.replace(r, wall_time=0.0) for r in alone])
        assert records_to_csv(together) == records_to_csv(alone)
        assert together[0].failures == cfg.trials
        assert together[1].failures == 0 and together[1].bits_total > 0

    def test_interrupt_keeps_whole_points_of_every_precoder(self, tmp_path,
                                                            monkeypatch):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        cfg = self._cfg(precoders=("zfq", "mrtq", "squid"))
        sweep(dataclasses.replace(cfg, out=full))
        finished = b"".join(full.read_bytes().splitlines(keepends=True)[:4])
        calls = []
        uninterrupted = sim.run_trial

        def interrupt_in_point_1(tcfg, seed):
            calls.append(tcfg.precoder)
            if len(calls) == 3 * 3 + 3 + 2:  # point 1, second trial, mrtq
                assert tcfg.precoder == "mrtq"
                raise KeyboardInterrupt
            return uninterrupted(tcfg, seed)

        monkeypatch.setattr(sim, "run_trial", interrupt_in_point_1)
        with pytest.raises(KeyboardInterrupt):
            sweep(dataclasses.replace(cfg, out=cut))
        assert cut.read_bytes() == finished  # the header and point 0's rows

    def test_wall_time_is_each_precoders_own(self, monkeypatch):
        # sleeps stand in for precoder cost: the precoders' own time lands
        # in their own records, whatever their order in the trial
        cost = {"zfq": 0.02, "mrtq": 0.0}
        uninterrupted = sim.run_trial

        def slow(tcfg, seed):
            time.sleep(cost[tcfg.precoder])
            return uninterrupted(tcfg, seed)

        monkeypatch.setattr(sim, "run_trial", slow)
        zfq, mrtq = sweep(self._cfg(snr_db=(0.0,), precoders=("mrtq", "zfq"),
                                    trials=3))[::-1]
        assert zfq.wall_time >= 3 * cost["zfq"] > mrtq.wall_time

    def test_each_trial_draws_its_channel_once(self, monkeypatch):
        draws = []
        uncounted = sim.gen_rayleigh_channel

        def counted(*args):
            draws.append(args)
            return uncounted(*args)

        monkeypatch.setattr(sim, "gen_rayleigh_channel", counted)
        records = sweep(self._cfg(precoders=("zfq", "mrtq", "squid")))
        assert [r.trials for r in records] == [3] * 6
        assert len(draws) == 2 * 3  # points x trials, whatever the precoders

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

    def test_linalg_error_counted_as_failure(self, monkeypatch):
        # LinAlgError is a ValueError, so the sweep's one except clause
        # counts it; the other precoder of each trial still finishes
        def singular(s, h, cfg):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(sim.PRECODERS, "zfq", singular)
        zfq, mrtq = sweep(self._cfg(snr_db=(0.0,), precoders=("zfq", "mrtq")))
        assert (zfq.failures, zfq.trials, zfq.bits_total) == (3, 3, 0)
        assert (mrtq.failures, mrtq.trials) == (0, 3) and mrtq.bits_total > 0

    def test_golden_regression(self):
        # frozen counts pin the RNG contract end to end
        records = sweep(self._cfg(trials=2, precoders=("zfq",), snr_db=(0.0,)))
        rec = records[0]
        assert (rec.bit_errors, rec.bits_total) == (GOLDEN_ERRORS, 16)


# frozen from the documented seeding scheme (master seed 9, point 0,
# trials 0..1); any change to the RNG contract shows up here
GOLDEN_ERRORS = 5
