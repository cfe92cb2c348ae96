"""Fingerprint of 540 seeded ``run_trial`` results, as two sha256 digests.

The cases:

- ``zfq``, ``mrtq``, ``squid`` and ``sdr`` at B=4, U=2, K=3, for every
  constellation and estimator, at -4, 8 and 16 dB, two trials each (master
  seed 11): 360 results;
- ``zfq``, ``mrtq`` and ``squid`` at the paper point B=128, U=16, K=10, with
  blind 16-QAM and pilot 64-QAM, at 0, 8 and 16 dB, ten trials each (master
  seed 12): 180 results.

Trial t at SNR index p draws from ``trial_seed_for(master seed, p, t)``, as a
sweep does, and every precoder of a trial sees the same draw. The cases
split into ``QUICK`` (450 results, about half a second) and ``SDR`` (the 90
``sdr`` results, several seconds).

Each group has two digests. The *portable* one covers each result's
per-UE bit errors, bits, clamps and non-convergence; it has held under
several OpenBLAS kernels, so ``tests/test_fingerprint.py`` pins it. The
*exact* one also covers ``objective.hex()``, which can move in its last
bits with the BLAS kernel, so it is printed and never pinned; two builds on
one machine with equal exact digests give equal results bit for bit.

Run ``python tests/fingerprint.py`` (with ``onebit_mimo`` importable) to
print both digests of both groups.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from onebit_mimo.model import SystemConfig
from onebit_mimo.sim import TrialConfig, run_trial, trial_seed_for

#: every constellation and every estimator, spelled out so that a new id
#: does not change the cases
_EVERY_MODE = tuple((c, e) for c in ("qpsk", "8psk", "16psk", "16qam", "64qam")
                    for e in ("genie", "pilot", "blind"))
#: (B, U, K), SNRs in dB, trials per SNR, master seed, (constellation,
#: estimator) pairs
_SMALL = ((4, 2, 3), (-4.0, 8.0, 16.0), 2, 11, _EVERY_MODE)
_PAPER = ((128, 16, 10), (0.0, 8.0, 16.0), 10, 12,
          (("16qam", "blind"), ("64qam", "pilot")))

#: groups of (case set, precoders)
QUICK = ((_SMALL, ("zfq", "mrtq", "squid")), (_PAPER, ("zfq", "mrtq", "squid")))
SDR = ((_SMALL, ("sdr",)),)


class Digests(NamedTuple):
    exact: str
    portable: str


def cases(group):
    """Yield (label, trial config, trial seed) for every result of ``group``."""
    for (size, snrs, trials, seed, modes), precoders in group:
        for point, snr_db in enumerate(snrs):
            system = SystemConfig.from_snr_db(*size, snr_db=snr_db)
            for constellation, estimator in modes:
                for trial in range(trials):
                    trial_seed = trial_seed_for(seed, point, trial)
                    for precoder in precoders:
                        label = (f"{size} {snr_db:g} dB {constellation} {estimator} "
                                 f"seed {seed} trial {trial} {precoder}")
                        yield (label, TrialConfig(system, constellation, precoder, estimator),
                               trial_seed)


def digests(group) -> Digests:
    """Exact and portable sha256 of every result of ``group``, in case order."""
    exact, portable = hashlib.sha256(), hashlib.sha256()
    for label, cfg, trial_seed in cases(group):
        res = run_trial(cfg, trial_seed)
        line = (f"{label}: errors {res.bit_errors.tolist()} bits {res.bits_total} "
                f"clamps {res.clamp_flags} nonconverged {res.nonconverged}")
        portable.update(f"{line}\n".encode())
        exact.update(f"{line} objective {res.objective.hex()}\n".encode())
    return Digests(exact.hexdigest(), portable.hexdigest())


if __name__ == "__main__":
    for name, group in (("quick", QUICK), ("sdr", SDR)):
        d = digests(group)
        print(f"{name} exact    {d.exact}")
        print(f"{name} portable {d.portable}")
