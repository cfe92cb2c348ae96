"""Infinite-resolution linear precoders and the linear-quantized baseline.

Linear-quantized precoding runs a classical linear precoder P (ZF or MRT,
picked by ``sim.PRECODERS``) and pushes each antenna output through the
1-bit DACs:

    x[k] = sqrt(P/(2B)) * (sign(Re{P s[k]}) + j sign(Im{P s[k]})).

The signum convention is sign(a) = +1 for a >= 0, applied componentwise.
Any scaling of the linear precoder cancels in the sign, so no normalization
is applied before quantization.
"""

from __future__ import annotations

import math

import numpy as np

from .model import PrecodeResult, SystemConfig, optimal_beta_for


def zf_matrix(h) -> np.ndarray:
    """Zero-forcing precoder P = H^H (H H^H)^-1 (B x U); raises if H is singular."""
    h = np.asarray(h, dtype=complex)
    gram = h @ h.conj().T
    return np.linalg.solve(gram, h).conj().T  # H^H G^-1 with G Hermitian


def mrt_matrix(h) -> np.ndarray:
    """Maximum ratio transmission precoder P = H^H (B x U)."""
    return np.asarray(h, dtype=complex).conj().T


def _sgn(a: np.ndarray) -> np.ndarray:
    # sign(0) = +1 by the global signum convention
    return np.where(a >= 0, 1.0, -1.0)


def one_bit_quantize(z: np.ndarray, transmit_power: float) -> np.ndarray:
    """Quantize each entry to the 1-bit DAC set {+-l +-jl}, l = sqrt(P/(2B)).

    ``z`` is a length-B vector or a B x K frame; B is its leading dimension.
    The output satisfies ||x[k]||^2 = P for every slot by construction.
    """
    z = np.asarray(z, dtype=complex)
    level = math.sqrt(transmit_power / (2.0 * z.shape[0]))
    return level * (_sgn(z.real) + 1j * _sgn(z.imag))


def linear_quantized_precode(s: np.ndarray, h, cfg: SystemConfig,
                             matrix) -> PrecodeResult:
    """Linear precoding with P = matrix(H), then 1-bit quantization.

    Works slot by slot. The precoding factor is the MSE-optimal receiver-side
    scaling for the quantized frame, which makes this baseline comparable to
    the nonlinear precoders under the common objective.
    """
    s = np.asarray(s, dtype=complex)
    h = np.asarray(h, dtype=complex)
    x = one_bit_quantize(matrix(h) @ s, cfg.transmit_power)
    beta = optimal_beta_for(x, s, h, cfg.noise_var)
    return PrecodeResult(x=x, beta=beta)

