"""Equivariance of the precoders and the receive path under the channel's symmetries.

Take D (U x U) and Q (B x B) diagonal with entries in {1, -1, j, -j}, and Pi
a permutation of the B antennas. The channel H' = D H Pi Q and the frame
S' = D S pose the same problem as (H, S): a frame X' for them gives
H' X' = D H X with X = Pi Q X', so the MSE and the factor are those of X.
A unit in {1, -1, j, -j} only swaps and negates real and imaginary parts,
so each precoder's frame for (H', S') must map back to its frame for (H, S)
bit for bit. A real embedding with the sign of an Im block flipped poses
SQUID another problem, which these maps do not carry into the original one,
and its frames then no longer map back.
"""

import numpy as np
import pytest

from onebit_mimo import PRECODERS, SystemConfig, TrialConfig, run_trial, trial_seed_for
from onebit_mimo import sim
from onebit_mimo.model import ChannelMatrix
from onebit_mimo.sim import draw_trial_data

UNITS = np.array([1, -1, 1j, -1j])
SNRS_DB = (0.0, 8.0, 16.0)
TRIALS = 2
#: (precoder, (B, U, K), SNR points in dB): the paper point, MRT at a small
#: size, SDR at one point since each of its calls takes about 0.3 s, and the
#: exhaustive oracle within its guard
CASES = (("zfq", (128, 16, 10), SNRS_DB), ("squid", (128, 16, 10), SNRS_DB),
         ("mrtq", (16, 4, 2), SNRS_DB), ("sdr", (8, 2, 2), (8.0,)),
         ("bruteforce", (2, 2, 2), SNRS_DB))
CASE_IDS = tuple(f"{p}-B{size[0]}" for p, size, _ in CASES)


def _symmetry(num_ues, num_antennas, seed, ue_phases=True):
    """(d, perm, q): the diagonals of D and Q and the permutation Pi, where
    column b of H Pi is column perm[b] of H; D = I unless ``ue_phases``. The
    units repeat in turn before they are shuffled, so each diagonal of four
    or more entries holds all four."""
    rng = np.random.default_rng(seed)
    d = rng.permutation(np.resize(UNITS, num_ues)) if ue_phases \
        else np.ones(num_ues, dtype=complex)
    return d, rng.permutation(num_antennas), rng.permutation(np.resize(UNITS, num_antennas))


def _transformed(h, s, d, perm, q):
    """(D H Pi Q, D S), by exact multiplications with units."""
    return d[:, None] * h[:, perm] * q, d[:, None] * s


def _mapped_back(x_prime, perm, q):
    """X = Pi Q X': row perm[b] of X is q_b times row b of X'."""
    x = np.empty_like(x_prime)
    x[perm] = q[:, None] * x_prime
    return x


def _points(size, snrs_db):
    """(system, trial seed) for every trial at every SNR point."""
    for point, snr_db in enumerate(snrs_db):
        system = SystemConfig.from_snr_db(*size, snr_db=snr_db)
        for trial in range(TRIALS):
            yield system, trial_seed_for(41, point, trial)


@pytest.mark.parametrize("precoder, size, snrs_db", CASES, ids=CASE_IDS)
def test_frames_map_back(precoder, size, snrs_db):
    for system, seed in _points(size, snrs_db):
        cfg = TrialConfig(system=system, constellation="16qam", precoder=precoder)
        drawn, frame, _ = draw_trial_data(system, "16qam", system.num_slots, seed)
        d, perm, q = _symmetry(system.num_ues, system.num_bs_antennas, seed)
        h_prime, s_prime = _transformed(drawn.h, frame.s, d, perm, q)
        x = PRECODERS[precoder](frame.s, drawn.h, cfg).x
        x_prime = PRECODERS[precoder](s_prime, h_prime, cfg).x
        assert _mapped_back(x_prime, perm, q).tobytes() == x.tobytes()


@pytest.mark.parametrize("estimator", ("pilot", "blind"))
@pytest.mark.parametrize("precoder, size, snrs_db", CASES, ids=CASE_IDS)
def test_receive_path_is_unchanged(monkeypatch, precoder, size, snrs_db, estimator):
    # with D = I the UEs see the same H X, so the same samples, estimates and
    # bit errors; H' X' sums over the antennas in another order, which moves
    # H X and what follows from it by rounding only
    seen = []

    def recording(fn):
        def call(beta, y, cfg):
            seen.append((beta, y, fn(beta, y, cfg)))
            return seen[-1][2]
        return call

    pilots, estimate = sim.ESTIMATORS[estimator]
    monkeypatch.setitem(sim.ESTIMATORS, estimator, (pilots, recording(estimate)))
    for system, seed in _points(size, snrs_db):
        cfg = TrialConfig(system=system, constellation="16qam", precoder=precoder,
                          estimator=estimator)
        drawn, frame, noise = draw_trial_data(system, "16qam",
                                              system.num_slots - pilots, seed)
        d, perm, q = _symmetry(system.num_ues, system.num_bs_antennas, seed,
                               ue_phases=False)
        h_prime, _ = _transformed(drawn.h, frame.s, d, perm, q)
        res = run_trial(cfg, seed)
        with monkeypatch.context() as m:
            m.setattr(sim, "draw_trial_data",
                      lambda *args: (ChannelMatrix(h_prime), frame, noise))
            res_prime = run_trial(cfg, seed)
        (beta, y, est), (beta_prime, y_prime, est_prime) = seen[-2:]
        scale = np.abs(y).max()
        np.testing.assert_allclose(y_prime, y, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(beta_prime, beta, rtol=1e-12)
        np.testing.assert_allclose(est_prime.betas, est.betas, rtol=1e-12)
        assert est_prime.clamped == est.clamped
        np.testing.assert_allclose(res_prime.objective, res.objective, rtol=1e-12)
        assert res_prime.bit_errors.tolist() == res.bit_errors.tolist()
