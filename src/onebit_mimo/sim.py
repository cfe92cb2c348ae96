"""Monte-Carlo BER sweeps, the exhaustive oracle, and CSV emission.

One trial runs the full downlink pipeline: draw a Rayleigh channel, draw
payload bits, modulate, precode with the selected precoder, form H X once
and add noise to it, rescale each UE's samples by its estimated precoding
factor, detect, and count bit errors over the payload slots. A precoder
returns only its frame; the factor (the frame's MSE-optimal one) and the
frame MSE come from one fit of the same H X to S, which takes each inner product
once, and equal :func:`~onebit_mimo.model.optimal_beta_for`'s and ``qp_objective``'s
bit for bit, as the samples equal :func:`~onebit_mimo.model.apply_channel`'s.

Seeding scheme (counter mode): the per-trial seed is
``SeedSequence((master_seed, point_index, trial_index))`` where
``point_index`` indexes the SNR list. The trial seed is spawned into three
child streams, consumed in fixed order: channel, bits, noise. The derivation
involves neither the precoder nor the estimator, so all precoders at one
(point, trial) see identical channel, bits and noise (paired-seed fairness),
trials are embarrassingly parallel, and reruns of the same sweep
configuration are byte-identical.

A sweep is trial-major within each SNR point: it derives a trial's seed
once and runs that trial for every precoder in turn. :func:`draw_trial_data`
keeps its last draw, keyed on the seed object, so the second and later
precoders of a trial reuse the first one's channel, frame and noise. The
drawn triple is the trial's whole input: the frame's ``s`` is the K-slot
transmit frame, the pilot slots of 1 leading the payload, and its ``bits``
are the payload's. The drawn arrays are read-only, so no precoder can alter
what the next one sees.

CSV schema (fixed): snr_db,precoder,constellation,estimator,trials,
bits_total,bit_errors,ber,clamp_flags
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import linear
from .constellations import detect, get_constellation
from .gain_estimation import blind_estimate, genie_estimate, pilot_mle
from .linear import linear_quantized_precode
from .model import (
    ChannelMatrix,
    PrecodeResult,
    SymbolFrame,
    SystemConfig,
    _check_count,
    _fit,
    _frame_energy,
    # no trial calls apply_channel; perfbench's span tracer rebinds it here by name
    apply_channel,
    gen_awgn,
    gen_rayleigh_channel,
    # nor qp_objective, which the tracer rebinds here as well
    qp_objective,
    real_embed,
    stack_real,
    unstack_real,
    unvec,
    vec,
)
from .sdr import sdr_precode
from .squid import squid_precode

#: precoder id -> (frame, channel, trial config) -> PrecodeResult; each entry
#: looks its precoder and linear matrix up by name when called, so rebinding
#: the module attribute (as a tracer does) takes effect
PRECODERS = {
    "zfq": lambda s, h, cfg: linear_quantized_precode(s, h, cfg.system, linear.zf_matrix),
    "mrtq": lambda s, h, cfg: linear_quantized_precode(s, h, cfg.system, linear.mrt_matrix),
    "squid": lambda s, h, cfg: squid_precode(s, h, cfg.system),
    "sdr": lambda s, h, cfg: sdr_precode(s, h, cfg.system),
    "bruteforce": lambda s, h, cfg: brute_force_qp(s, h, cfg.system),
}
PRECODER_IDS = tuple(PRECODERS)
#: estimator id -> (pilot slots, (precoding factor, y, trial config) ->
#: FactorEstimate); the pilot slots lead the frame with 1 at every UE, and
#: each entry looks its estimator up by name when called
ESTIMATORS = {
    "genie": (0, lambda beta, y, cfg: genie_estimate(beta, cfg.system.num_ues)),
    "pilot": (1, lambda beta, y, cfg: pilot_mle(y[:, 0])),
    "blind": (0, lambda beta, y, cfg: blind_estimate(y, cfg.system.noise_var)),
}
ESTIMATOR_IDS = tuple(ESTIMATORS)

CSV_HEADER = ("snr_db,precoder,constellation,estimator,trials,"
              "bits_total,bit_errors,ber,clamp_flags")

#: largest enumerable search space for the exhaustive oracle, 4^(BK) <= 2^24
BRUTE_FORCE_GUARD_BITS = 24
_BRUTE_FORCE_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Configuration and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialConfig:
    """One concrete simulation point: system, constellation, precoder, estimator.
    The solvers run at their fixed budgets, so none is part of a point."""

    system: SystemConfig
    constellation: str = "qpsk"
    precoder: str = "squid"
    estimator: str = "blind"

    def __post_init__(self):
        get_constellation(self.constellation)
        if self.precoder not in PRECODER_IDS:
            raise ValueError(f"unknown precoder {self.precoder!r}; choose from {PRECODER_IDS}")
        if self.estimator not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator {self.estimator!r}; choose from {ESTIMATOR_IDS}")
        if self.system.num_slots <= (pilots := ESTIMATORS[self.estimator][0]):
            raise ValueError(f"{self.estimator} estimation consumes {pilots} "
                             f"slot(s); need num_slots > {pilots}")


@dataclass(frozen=True)
class TrialResult:
    """Per-UE bit error counts plus trial metadata."""

    bit_errors: np.ndarray
    bits_total: int
    clamp_flags: int
    nonconverged: int
    objective: float


@dataclass(frozen=True)
class SweepConfig:
    """A grid of SNR points x precoders at one system size and P = 1.

    Construction validates every setting (ids, counts, SNRs, output path),
    so a bad one or a repeated precoder or SNR point (equal in value or in
    its CSV label) fails before any trial runs; so does a string for
    ``snr_db`` or ``precoders``, which would otherwise be split into its
    characters. An SNR of -0.0 is stored as 0.0. Every point runs all
    ``trials`` for every precoder. Like :class:`TrialConfig`, it holds no
    solver setting.
    """

    num_bs_antennas: int
    num_ues: int
    num_slots: int
    snr_db: tuple
    constellation: str
    precoders: tuple
    estimator: str
    trials: int
    seed: int
    out: str | Path | None = None

    def __post_init__(self):
        # tuple() of a string would walk its characters
        if strings := [f for f in ("snr_db", "precoders") if isinstance(getattr(self, f), str)]:
            raise ValueError(f"{strings[0]} must be a sequence, not a string")
        snr_db = tuple(float(v) for v in self.snr_db)
        object.__setattr__(self, "precoders", tuple(self.precoders))
        if not snr_db:
            raise ValueError("snr_db list must be nonempty")
        if not self.precoders:
            raise ValueError("precoder list must be nonempty")
        if repeated := [p for p in self.precoders if self.precoders.count(p) > 1]:
            raise ValueError(f"precoder {repeated[0]!r} is listed more than once")
        for i, a in enumerate(snr_db):
            # the CSV labels a point {:g}, so equal labels make rows ambiguous
            if clash := [b for b in snr_db[:i] if b == a or f"{b:g}" == f"{a:g}"]:
                raise ValueError(f"snr_db lists one point twice: {clash[0]!r} and "
                                 f"{a!r} (CSV labels {clash[0]:g}, {a:g})")
        # -0.0 + 0.0 is 0.0, so -0 dB and 0 dB share the CSV label 0
        object.__setattr__(self, "snr_db", tuple(v + 0.0 for v in snr_db))
        _check_count("trials", self.trials, 1)
        _check_count("seed", self.seed, 0)
        if self.out is not None and Path(self.out).is_dir():
            raise ValueError(f"output path {str(self.out)!r} names a directory, not a file")
        if self.out is not None and not Path(self.out).parent.is_dir():
            raise ValueError(f"output directory of {str(self.out)!r} does not exist")
        for snr_db in self.snr_db:
            for precoder in self.precoders:
                self.trial_config(snr_db, precoder)

    def trial_config(self, snr_db: float, precoder: str) -> TrialConfig:
        """The configuration of every trial of one (SNR, precoder) point."""
        system = SystemConfig.from_snr_db(self.num_bs_antennas, self.num_ues,
                                          self.num_slots, snr_db=snr_db)
        return TrialConfig(system=system, constellation=self.constellation,
                           precoder=precoder, estimator=self.estimator)


@dataclass
class BerRecord:
    """Aggregated error counts for one (SNR, precoder) point.

    :func:`sweep` builds each record with zero counts and adds every trial
    to it in place. ``wall_time``, ``failures`` and ``nonconverged`` (the
    trials whose solver stopped on its iteration budget) are metadata kept
    out of the CSV so reruns stay byte-identical.
    ``wall_time`` is the time of this precoder's own trials at the point.
    Each trial's seed derivation and its draw (see :func:`sweep`) are
    charged to the first precoder.
    """

    snr_db: float
    precoder: str
    constellation: str
    estimator: str
    bit_errors: int = 0
    bits_total: int = 0
    trials: int = 0
    clamp_flags: int = 0
    wall_time: float = 0.0
    failures: int = 0
    nonconverged: int = 0

    @property
    def ber(self) -> float:
        """Bit error rate; NaN when no trial finished (every trial failed)."""
        return self.bit_errors / self.bits_total if self.bits_total else math.nan

    def csv_row(self) -> str:
        return (f"{self.snr_db:g},{self.precoder},{self.constellation},"
                f"{self.estimator},{self.trials},{self.bits_total},"
                f"{self.bit_errors},{self.ber:.12g},{self.clamp_flags}")


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Trial pipeline
# ---------------------------------------------------------------------------

def trial_seed_for(master_seed: int, point_index: int, trial_index: int) -> np.random.SeedSequence:
    """Documented counter-mode derivation of the per-trial seed."""
    return np.random.SeedSequence((master_seed, point_index, trial_index))


def draw_trial_data(system: SystemConfig, constellation: str,
                    payload_slots: int, trial_seed):
    """Draw (channel, frame, noise) for one trial.

    The channel is a :class:`ChannelMatrix`: its ``h`` is the complex U x B
    array the precoders take, ``h_real`` a fresh real embedding. The frame's
    ``s`` is the U x K transmit frame, its first K - ``payload_slots`` slots
    pilots of 1, and its ``bits`` those of the payload slots only;
    ``payload_slots`` is an integer in [1, K]. Pure function of the seed and
    the listed arguments; the precoder and estimator choices never enter,
    which is what makes paired-seed comparisons fair. A seed that is not a
    ``SeedSequence`` becomes a new one. The last draw is kept and returned
    again for the same ``SeedSequence`` object with equal other arguments,
    so its arrays (``h.h``, ``frame.s``, ``frame.bits``, ``noise``) are
    read-only, and a ``SeedSequence``'s entropy must not be changed in place
    once it has drawn. Safe to call from several threads at once.
    """
    _check_count("payload_slots", payload_slots, 1)
    if payload_slots > system.num_slots:
        raise ValueError(f"payload_slots must be <= num_slots = {system.num_slots}, "
                         f"got {payload_slots}")
    if not isinstance(trial_seed, np.random.SeedSequence):
        trial_seed = np.random.SeedSequence(trial_seed)
    return _draw(system, constellation, payload_slots, trial_seed)


#: one entry suffices, because a sweep hands each trial's seed to its
#: precoders one after another; a ``SeedSequence`` hashes by identity, and
#: the cache holds it, so its id cannot be reused while the entry lives
@lru_cache(maxsize=1)
def _draw(system: SystemConfig, constellation: str, payload_slots: int,
          ss: np.random.SeedSequence):
    # like ss.spawn(3), but stateless: reusing one seed object must not shift
    # the child streams between calls
    chan_seed, bits_seed, noise_seed = (
        np.random.SeedSequence(entropy=ss.entropy, spawn_key=ss.spawn_key + (i,))
        for i in range(3)
    )
    const = get_constellation(constellation)
    h = gen_rayleigh_channel(system.num_ues, system.num_bs_antennas, chan_seed)
    frame = SymbolFrame.random(const, system.num_ues, payload_slots, bits_seed)
    noise = gen_awgn(system.num_ues, system.num_slots, system.noise_var, noise_seed)
    if pilots := system.num_slots - payload_slots:
        s = np.empty((system.num_ues, system.num_slots), complex)
        s[:, :pilots], s[:, pilots:] = 1.0, frame.s
        frame = SymbolFrame(s, frame.bits)
    for array in (h, frame.s, frame.bits, noise):
        array.flags.writeable = False
    return ChannelMatrix(h), frame, noise


def run_trial(cfg: TrialConfig, trial_seed) -> TrialResult:
    """Run one end-to-end trial; fully determined by ``trial_seed``."""
    system = cfg.system
    const = get_constellation(cfg.constellation)
    pilots, estimate = ESTIMATORS[cfg.estimator]

    drawn, frame, noise = draw_trial_data(system, cfg.constellation,
                                          system.num_slots - pilots, trial_seed)

    pre = PRECODERS[cfg.precoder](frame.s, drawn.h, cfg)
    # hx + noise would broadcast a frame of the wrong length silently
    if np.shape(pre.x) != (system.num_bs_antennas, system.num_slots):
        raise ValueError(f"precoder {cfg.precoder!r} returned a frame of shape "
                         f"{np.shape(pre.x)}, not (B, K) = "
                         f"{(system.num_bs_antennas, system.num_slots)}")
    hx = drawn.h @ pre.x  # the noiseless receive, for the factor, y and the frame MSE
    beta, objective = _fit(frame.s, hx, system.noise_var)
    y = hx + noise
    est = estimate(beta, y, cfg)
    s_hat = est.betas[:, None] * y[:, pilots:]
    # take and the sum method skip the dispatch of fancy indexing and np.sum
    bits_hat = const.labels.take(detect(s_hat, const), axis=0).reshape(system.num_ues, -1)
    bit_errors = (bits_hat != frame.bits).sum(axis=1)

    return TrialResult(
        bit_errors=bit_errors,
        bits_total=int(frame.bits.size),
        clamp_flags=est.clamped,
        nonconverged=int(not pre.converged),
        objective=objective,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def brute_force_qp(s: np.ndarray, h: np.ndarray, cfg: SystemConfig) -> PrecodeResult:
    """Exact minimizer of the frame MSE over the full 1-bit transmit set.

    Enumerates all 4^(BK) sign patterns of the real-embedded frame (pattern
    index bit j, LSB first, selects the sign of entry j of vec(X_R); bit
    0 -> +l), pricing each chunk with one product through the lift I_K kron H_R of
    :func:`~onebit_mimo.sdr.assemble_T`, in :func:`qp_objective`'s form at each candidate's
    optimal factor. The first strict minimum wins, so ties break by enumeration order, and a NaN
    objective ranks last. Guarded to 4^(BK) <= 2^24. Shapes ``cfg.check_shapes`` refuses and a
    non-finite entry of ``s`` or ``h`` raise ``ValueError`` before the scan, and a scan whose
    objectives all overflow, after.

    Returns the optimal frame only, as every precoder does; its factor and
    MSE are ``optimal_beta_for`` and ``qp_objective`` of that frame.
    """
    cfg.check_shapes(h, s)
    num_antennas, num_slots = cfg.num_bs_antennas, cfg.num_slots
    n_bits = 2 * num_antennas * num_slots
    if n_bits > BRUTE_FORCE_GUARD_BITS:
        raise ValueError(
            f"search space 4^(B*K) = 2^{n_bits} exceeds the 2^"
            f"{BRUTE_FORCE_GUARD_BITS} guard"
        )
    h_bar = np.kron(np.eye(num_slots), real_embed(h))
    s_r = stack_real(s)
    _frame_energy(s_r)  # vdot's last bit would move the tie-breaks of exact ties
    s_energy = float(np.sum(s_r * s_r))
    s_bar = vec(s_r)
    noise_term = cfg.num_ues * num_slots * cfg.noise_var

    best_obj = math.inf
    bit_weights = np.arange(n_bits, dtype=np.uint32)
    total = 1 << n_bits
    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(start + _BRUTE_FORCE_CHUNK, total),
                        dtype=np.uint32)
        xr = cfg.quant_level * (1.0 - 2.0 * ((idx[:, None] >> bit_weights) & 1))
        hx = xr @ h_bar.T
        num = hx @ s_bar
        den = np.einsum("pi,pi->p", hx, hx) + noise_term
        beta = np.maximum(0.0, num / den)
        obj = s_energy - beta * (2.0 * num - beta * den)
        local = int(np.argmin(np.where(obj == obj, obj, math.inf)))
        if obj[local] < best_obj:
            best_obj = float(obj[local])
            best_xr = xr[local]
    if best_obj == math.inf:
        raise ValueError("candidate objectives overflowed")
    return PrecodeResult(unstack_real(unvec(best_xr, 2 * num_antennas, num_slots)))


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------

def sweep(cfg: SweepConfig) -> list:
    """Run the Monte-Carlo sweep, writing the CSV to ``out`` if it is set.

    Iterates SNR points and, within a point, trials: each trial's seed comes
    from :func:`trial_seed_for` once, and every precoder runs that trial in
    ``cfg.precoders`` order, reusing the first one's draw, so each BER is
    errors over a fixed number of bits. A rerun with the same configuration
    produces byte-identical CSV output. A trial that raises ``ValueError``
    (``np.linalg.LinAlgError`` is one) counts in that precoder's ``failures``
    rather than being dropped silently; any other exception propagates and
    ends the run, keeping the points already written. A point's rows are
    written in precoder order and flushed together once its trials run out,
    so an interrupted sweep keeps its finished points, whole. Records come in
    the same order, and each one's ``wall_time`` follows :class:`BerRecord`'s rule.
    """
    records = []
    with open(os.devnull if cfg.out is None else cfg.out, "w", encoding="ascii") as out:
        print(CSV_HEADER, file=out, flush=True)
        for point_index, snr_db in enumerate(cfg.snr_db):
            point = [BerRecord(snr_db, p, cfg.constellation, cfg.estimator)
                     for p in cfg.precoders]
            runs = [(r, cfg.trial_config(snr_db, r.precoder)) for r in point]
            for trial_index in range(cfg.trials):
                # the seed derivation and the draw count against the first
                # precoder of the trial
                t = time.perf_counter()
                seed = trial_seed_for(cfg.seed, point_index, trial_index)
                for r, tcfg in runs:
                    r.trials += 1
                    try:
                        res = run_trial(tcfg, seed)
                    except ValueError:  # LinAlgError is one
                        r.failures += 1
                    else:
                        r.bit_errors += int(res.bit_errors.sum())
                        r.bits_total += res.bits_total
                        r.clamp_flags += res.clamp_flags
                        r.nonconverged += res.nonconverged
                    now = time.perf_counter()
                    r.wall_time += now - t
                    t = now
            records.extend(point)
            out.write("".join(f"{r.csv_row()}\n" for r in point))
            out.flush()
    return records
