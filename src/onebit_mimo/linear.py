"""Infinite-resolution linear precoders and the linear-quantized baseline.

Linear-quantized precoding runs a classical linear precoder P (ZF or MRT,
picked by ``sim.PRECODERS``) and pushes each antenna output through the
1-bit DACs (:func:`~onebit_mimo.model.one_bit_quantize`):

    x[k] = sqrt(P/(2B)) * (sign(Re{P s[k]}) + j sign(Im{P s[k]})),

with sign(a) = +1 for a >= 0, applied componentwise. Any scaling of the
linear precoder cancels in the sign, so no normalization is applied before
quantization. The product P S is rounded in place through its float view;
the rounding is entrywise, so the frame equals that of rounding
``stack_real(P S)``, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .model import (
    PrecodeResult,
    SystemConfig,
    one_bit_quantize,
    # not called here; perfbench's span tracer rebinds it here by name
    optimal_beta_for,
)


def zf_matrix(h) -> np.ndarray:
    """Zero-forcing precoder P = H^H (H H^H)^-1 (B x U); raises if H is singular."""
    h = np.asarray(h, dtype=complex)
    gram = h @ h.conj().T
    return np.linalg.solve(gram, h).conj().T  # H^H G^-1 with G Hermitian


def mrt_matrix(h) -> np.ndarray:
    """Maximum ratio transmission precoder P = H^H (B x U)."""
    return np.asarray(h, dtype=complex).conj().T


def linear_quantized_precode(s: np.ndarray, h, cfg: SystemConfig,
                             matrix) -> PrecodeResult:
    """Linear precoding with P = matrix(H), then 1-bit quantization, slot by
    slot; like every precoder's, the frame is judged at its MSE-optimal factor."""
    # the float view needs a contiguous complex array; a matmul result
    # already is one, so this copies nothing on the precoders' path
    z = np.ascontiguousarray(matrix(h) @ s, dtype=complex)
    x = one_bit_quantize(z.view(float), cfg.quant_level).view(complex)
    return PrecodeResult(x=x)

