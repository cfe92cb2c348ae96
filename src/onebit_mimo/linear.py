"""Infinite-resolution linear precoders and the linear-quantized baseline.

Linear-quantized precoding applies a classical linear precoder P (ZF or
MRT, picked by ``sim.PRECODERS``) to the frame and pushes each antenna
output through the 1-bit DACs (:func:`~onebit_mimo.model.one_bit_quantize`):

    x[k] = sqrt(P/(2B)) * (sign(Re{P s[k]}) + j sign(Im{P s[k]})),

with sign(a) = +1 for a >= 0, applied componentwise. Any scaling of the
linear precoder cancels in the sign, so no normalization is applied before
quantization. A precoder's function maps (H, S) to the B x K product P S;
P itself is never formed, so ZF costs one U x U solve with K right-hand
sides. The product is rounded in place through its float view; the
rounding is entrywise, so the frame equals that of rounding
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


def zf_matrix(h, s) -> np.ndarray:
    """Zero-forcing precoder applied to the frame, P S = H^H (H H^H)^-1 S
    (B x K); raises if H is singular."""
    h = np.asarray(h, dtype=complex)
    h_herm = h.conj().T
    return h_herm @ np.linalg.solve(h @ h_herm, s)


def mrt_matrix(h, s) -> np.ndarray:
    """Maximum ratio transmission precoder applied to the frame, P S = H^H S (B x K)."""
    return np.asarray(h, dtype=complex).conj().T @ s


def linear_quantized_precode(s: np.ndarray, h: np.ndarray, cfg: SystemConfig,
                             matrix) -> PrecodeResult:
    """Linear precoding of the frame with P S = matrix(H, S), then 1-bit quantization,
    slot by slot, of arrays ``h`` and ``s`` that ``cfg.check_shapes`` passes; like
    every precoder's, the frame is judged at its MSE-optimal factor."""
    cfg.check_shapes(h, s)
    # the float view needs a contiguous complex array; a matmul result
    # already is one, so this copies nothing on the precoders' path
    z = np.ascontiguousarray(matrix(h, s), dtype=complex)
    x = one_bit_quantize(z.view(float), cfg.quant_level).view(complex)
    return PrecodeResult(x=x)
