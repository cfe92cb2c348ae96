"""System model for the 1-bit quantized massive MU-MIMO downlink.

Holds the domain types (system configuration, the drawn channel, symbol
frame, precoder and solver outputs), channel/noise generation, the real
embedding, the 1-bit rounding every precoder ends with, column-major
vectorization (the K-slot lift is :func:`onebit_mimo.sdr.assemble_T`), and
the frame mean-square-error objective that every precoder minimizes.

A channel is the complex U x B ndarray H.

Conventions
-----------
- Downlink: Y = H X + N with H of shape (U, B), X of shape (B, K).
- Transmit set: every entry of X lies in {+-l +-jl} with l = sqrt(P / (2B))
  (:attr:`SystemConfig.quant_level`), so each slot satisfies ||x[k]||^2 = P.
- Power: sweeps fix P = 1 and set N0 = 1/SNR (:meth:`SystemConfig.from_snr_db`);
  another P takes a :class:`SystemConfig` built directly.
- vec() is column-major (column stacking), so vec(A B C) = (C^T kron A) vec(B)
  holds with the textbook convention.
- RNG: every stochastic helper takes an explicit ``seed`` (int or
  numpy ``SeedSequence``); streams come from numpy's PCG64 family and are
  splittable via ``SeedSequence.spawn``, so trials are reproducible and
  independently parallelizable.

All functions here are pure; values are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellations import modulate


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _check_count(name: str, value, low: int) -> None:
    """ValueError naming ``name`` unless ``value`` is a Python or numpy int >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """Static dimensions and power/noise levels of one downlink setup.

    Attributes
    ----------
    num_bs_antennas : number of base-station antennas B (B >= num_ues)
    num_ues : number of single-antenna user equipments U
    num_slots : number of time slots K the channel stays constant for
    transmit_power : instantaneous per-slot transmit power P (energy units)
    noise_var : complex noise variance N0 per receive entry (energy units)
    """

    num_bs_antennas: int
    num_ues: int
    num_slots: int
    noise_var: float
    transmit_power: float = 1.0

    def __post_init__(self):
        for name in ("num_bs_antennas", "num_ues", "num_slots"):
            _check_count(name, getattr(self, name), 1)
        if self.num_bs_antennas < self.num_ues:
            raise ValueError(
                f"need at least as many BS antennas as UEs, got "
                f"B={self.num_bs_antennas} < U={self.num_ues}"
            )
        if not 0.0 < self.transmit_power < math.inf:
            raise ValueError("transmit_power must be finite and > 0")
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError("noise_var must be finite and > 0")

    def check_shapes(self, h: np.ndarray, s: np.ndarray, embedded: bool = False) -> None:
        """The size rule of every precoder: ValueError unless the channel array ``h`` is
        U x B and the frame array ``s`` U x K, or, if ``embedded``, 2U x 2B and 2U x K."""
        m = 2 if embedded else 1
        u = m * self.num_ues
        if h.shape != (u, m * self.num_bs_antennas) or s.shape != (u, self.num_slots):
            raise ValueError(f"{'real-embedded ' if embedded else ''}channel of shape "
                             f"{h.shape} and frame of shape {s.shape} do not fit (U, B, K) = "
                             f"({self.num_ues}, {self.num_bs_antennas}, {self.num_slots})")

    @property
    def quant_level(self) -> float:
        """Per-component 1-bit DAC output level l = sqrt(P / (2B))."""
        return math.sqrt(self.transmit_power / (2.0 * self.num_bs_antennas))

    @classmethod
    def from_snr_db(cls, num_bs_antennas: int, num_ues: int, num_slots: int,
                    snr_db: float) -> "SystemConfig":
        """Fix P = 1 and derive N0 = 1 / SNR; ValueError unless N0 is finite and > 0."""
        try:
            noise_var = 1.0 / (10.0 ** (snr_db / 10.0))
        except (OverflowError, ZeroDivisionError):
            noise_var = math.nan
        if not 0.0 < noise_var < math.inf:
            raise ValueError(f"snr_db = {snr_db} dB gives no finite positive noise variance")
        return cls(num_bs_antennas, num_ues, num_slots, noise_var=noise_var)


def one_bit_quantize(z_r: np.ndarray, level: float) -> np.ndarray:
    """The 1-bit rounding every precoder ends with: +level where z_r >= 0, else -level.

    ``z_r`` is any real array, and ``level`` is :attr:`SystemConfig.quant_level`;
    sign(0) = +1, and NaN rounds to -level. The rounding is entrywise, so a
    real embedding (2B x K from :func:`stack_real` or :func:`unvec`) and the
    float view of a contiguous complex frame (B x 2K, each real part next to
    its imaginary part) give the same entries, each in its own place.
    """
    if np.iscomplexobj(z_r):
        raise TypeError("one_bit_quantize takes a real array such as stack_real(z) "
                        "or z.view(float)")
    return np.where(z_r >= 0, level, -level)


# ---------------------------------------------------------------------------
# Real embedding and vectorization
# ---------------------------------------------------------------------------

def real_embed(h: np.ndarray) -> np.ndarray:
    """Real 2x2-block embedding of a complex operator.

    Maps H (U x B) to [[Re H, -Im H], [Im H, Re H]] (2U x 2B) so that complex
    products become real ones: stack_real(H v) = real_embed(H) @ stack_real(v).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError(f"channel must be a 2-D matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    (num_ues, num_antennas), re, im = h.shape, h.real, h.imag
    out = np.empty((2 * num_ues, 2 * num_antennas))
    out[:num_ues, :num_antennas] = out[num_ues:, num_antennas:] = re
    np.negative(im, out=out[:num_ues, num_antennas:])
    out[num_ues:, :num_antennas] = im
    return out


def _frame_energy(s: np.ndarray) -> float:
    """||S||_F^2 of a symbol frame, complex or stacked real; ValueError unless finite."""
    energy = float(np.vdot(s, s).real)
    if not energy < math.inf:
        raise ValueError("symbol frame entries must be finite")
    return energy


def stack_real(m: np.ndarray) -> np.ndarray:
    """Stack real over imaginary parts: (n, ...) complex -> (2n, ...) real."""
    m = np.asarray(m, dtype=complex)
    return np.concatenate([m.real, m.imag], axis=0)


def unstack_real(m_r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`stack_real`, C-ordered so that equal frames take one BLAS path in H X."""
    m_r = np.asarray(m_r, dtype=float)
    n = m_r.shape[0]
    if n % 2 != 0:
        raise ValueError("leading dimension must be even")
    return np.add(m_r[: n // 2], 1j * m_r[n // 2:], order="C")


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(m).flatten(order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a rows x cols matrix."""
    return np.asarray(v).reshape((rows, cols), order="F")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class ChannelMatrix:
    """A drawn channel ``h`` (U x B) and its real embedding; only the trial draw builds one."""

    def __init__(self, h: np.ndarray):
        self.h = h

    @property
    def h_real(self) -> np.ndarray:
        """Real embedding of ``h`` (:func:`real_embed`), a new array on each read."""
        return real_embed(self.h)


@dataclass(frozen=True)
class SymbolFrame:
    """Transmit symbols (U x K) and the source bits of their payload.

    ``bits`` has shape (U, P * bits_per_symbol) for the last P slots of ``s``,
    the payload, each row the concatenation of the per-slot bit labels. Frames
    built through :meth:`random` are all payload (P = K) and contain only
    constellation members; the harness's draw puts pilot columns of 1 before
    the payload.
    """

    s: np.ndarray
    bits: np.ndarray

    @classmethod
    def random(cls, constellation, num_ues: int, num_slots: int, seed) -> "SymbolFrame":
        rng = np.random.default_rng(seed)
        m = constellation.bits_per_symbol
        bits = rng.integers(0, 2, size=(num_ues, num_slots * m)).astype(np.uint8)
        return cls(s=modulate(bits, constellation).reshape(num_ues, -1), bits=bits)


@dataclass(frozen=True)
class PrecodeResult:
    """1-bit transmit frame X in {+-l +-jl}^(B x K), with no precoding factor:
    :func:`optimal_beta_for` gives the factor of any frame from H X.

    ``converged`` is False when an iterative precoder's solver stopped on its
    iteration budget; the frame itself is always valid.
    """

    x: np.ndarray
    converged: bool = True


@dataclass(frozen=True)
class SolverResult:
    """Outcome of an iterative relaxation solver: its solution ``x`` and the
    ``history`` of its run, whose form each solver documents."""

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    history: np.ndarray


# ---------------------------------------------------------------------------
# Stochastic generators
# ---------------------------------------------------------------------------

def gen_rayleigh_channel(num_ues: int, num_bs_antennas: int, seed) -> np.ndarray:
    """I.i.d. Rayleigh fading channel H (U x B), CN(0, 1) per complex entry.

    Deterministic given the seed; each complex entry is built from two
    independent real Gaussians of variance 1/2, equal bit for bit to
    ``(a + 1j * b) / sqrt(2)`` with a and b the generator's first and
    second ``standard_normal`` draws.
    """
    if num_ues < 1 or num_bs_antennas < 1:
        raise ValueError("dimensions must be positive")
    h = _complex_normal(np.random.default_rng(seed), (num_ues, num_bs_antennas))
    h /= math.sqrt(2.0)
    return h


def gen_awgn(num_ues: int, num_slots: int, noise_var: float, seed) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian noise, variance N0 per entry;
    equal bit for bit to ``sqrt(N0 / 2) * (a + 1j * b)``, with a and b drawn
    as in :func:`gen_rayleigh_channel`."""
    if not (noise_var > 0):
        raise ValueError("noise_var must be > 0")
    if not noise_var < math.inf:
        raise ValueError(f"noise_var must be finite, got {noise_var}")
    n = _complex_normal(np.random.default_rng(seed), (num_ues, num_slots))
    n *= math.sqrt(noise_var / 2.0)
    return n


def _complex_normal(rng, shape) -> np.ndarray:
    """a + 1j b from two standard normal draws, a first, filled in place
    rather than through two temporaries."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


# ---------------------------------------------------------------------------
# Channel application and the shared MSE objective
# ---------------------------------------------------------------------------

def apply_channel(h, x, n: np.ndarray) -> np.ndarray:
    """Noisy downlink observation Y = H X + N."""
    h = np.asarray(h, dtype=complex)
    x = np.asarray(x, dtype=complex)
    n = np.asarray(n, dtype=complex)
    if h.shape[1] != x.shape[0] or n.shape != (h.shape[0], x.shape[1]):
        raise ValueError(
            f"dimension mismatch: H {h.shape}, X {x.shape}, N {n.shape}"
        )
    return h @ x + n


def qp_objective(s: np.ndarray, h, x: np.ndarray, beta: float, noise_var: float) -> float:
    """Total MSE of the frame, ||S - beta H X||_F^2 + beta^2 U K N0, priced with no residual
    as ||S||^2 - beta (2 Re<HX, S> - beta (||HX||^2 + U K N0)) by the fit :func:`optimal_beta_for`
    shares, step for step as the oracle ranks candidates. Its error is a few ulps of ||S||^2, so
    only S ~ beta HX with N0 -> 0, which no 1-bit frame reaches, loses relative accuracy."""
    s = np.asarray(s, dtype=complex)
    h = np.asarray(h, dtype=complex)
    x = np.asarray(x, dtype=complex)
    return _fit(s, h @ x, noise_var, beta)[1]


def optimal_beta_for(s: np.ndarray, hx: np.ndarray, noise_var: float) -> float:
    """Closed-form minimizer of :func:`qp_objective` over the factor, from the fit it shares:
    beta* = max(0, Re<HX, S> / (||HX||_F^2 + U K N0)) for the noiseless receive HX (U x K)."""
    return _fit(s, hx, noise_var)[0]


def _fit(s, hx, noise_var, beta=None):
    """(beta, frame MSE at beta), beta* if None, from Re<HX, S> and ||HX||^2 + U K N0 taken once."""
    num, den = float(np.vdot(hx, s).real), float(np.vdot(hx, hx).real) + s.size * noise_var
    beta = max(0.0, num / den) if beta is None else beta
    return beta, float(np.vdot(s, s).real) - beta * (2.0 * num - beta * den)
