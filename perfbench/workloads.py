"""The benchmark's workloads: seeded BER sweeps at fixed sizes.

Each workload is the keyword set of one ``onebit_mimo.sim.SweepConfig``
minus its seed, which the benchmark takes from the command line. ``lead``
names the precoder behind the ``lead_ms_per_trial`` and ``lead_frame_mse``
metrics: the one the workload exists to measure. ``zfq`` rides along in
every workload as the paired-seed baseline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: dict
    lead: str
    #: (better, worse): the BER of ``better`` must be below that of ``worse``
    #: at every SNR point
    headline: tuple | None = None


WORKLOADS = {w.name: w for w in (
    # The paper's operating point. SQUID is about 95% of the trial time and
    # its iteration count roughly doubles from 0 to 8 dB, so an iteration cut
    # shows at high SNR and not at low SNR within one workload.
    Workload(
        name="paper-squid",
        sweep=dict(num_bs_antennas=128, num_ues=16, num_slots=10,
                   snr_db=(0.0, 8.0, 16.0), constellation="16qam",
                   precoders=("zfq", "squid"), estimator="blind", trials=30),
        lead="squid",
        headline=("squid", "zfq"),
    ),
    # Same size, no iterative solver: SQUID and SDR changes must not move
    # it. It takes the pilot-slot path, the pilot estimator and 64-point
    # detection, and its ~1 ms trials expose per-trial overhead.
    Workload(
        name="linear-pilot",
        sweep=dict(num_bs_antennas=128, num_ues=16, num_slots=10,
                   snr_db=(-4.0, 4.0, 12.0), constellation="64qam",
                   precoders=("zfq", "mrtq"), estimator="pilot", trials=50),
        lead="mrtq",
    ),
    # The largest size at which per-slot ADMM converges within its default
    # budget; the only workload where the eigh-bound SDR path does the
    # work, and the one that covers the genie estimator. Not gated in
    # BENCHMARK.json: a run takes about 70 s, and its per-seed ADMM work
    # varies too widely for the bounds (see README.md).
    Workload(
        name="sdr-small",
        sweep=dict(num_bs_antennas=16, num_ues=4, num_slots=4,
                   snr_db=(6.0, 10.0), constellation="16qam",
                   precoders=("sdr", "squid", "zfq"), estimator="genie",
                   trials=8),
        lead="sdr",
    ),
)}
