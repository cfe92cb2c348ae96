"""UE-side estimation of the precoding factor from received samples.

Each UE rescales its received samples by an estimate of the common
precoding factor before minimum-distance detection. Three methods, each run
once over all U UEs:

- genie: the exact factor, which the trial fits once with the frame MSE
- pilot_mle: one pilot slot carrying sqrt(Es) = 1 at every UE (every
  constellation here has Es = 1); the estimate is the real part of 1/y_u[1]
- blind: matches the sample variance of the received signal to
  beta^-2 Es + E0 + N0 and solves for the factor; the error energy E0 is
  unknown in practice and defaults to 0

The estimators are undefined for nonpositive real parts / denominators, so
values are clamped (and counted) to keep sweeps running. A non-finite
received sample, or a genie factor that is NaN or +inf, raises ``ValueError``
before any estimate is formed, so the trial fails rather than going on at a
clamped factor. Every estimate formed is finite and positive, so none is
checked afterwards. When every pilot magnitude lies in [1e-12, 1/EPS_BETA],
as at any working SNR, pilot_mle divides the samples in one pass; outside
that range it guards the division first, with the same estimates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: lower clamp for the estimate itself
EPS_BETA = 1e-9
#: lower clamp for the blind estimator's variance denominator
EPS_DENOM = 1e-12


class FactorEstimate(NamedTuple):
    """Per-UE factor estimates and the number of UEs whose value was clamped."""

    betas: np.ndarray
    clamped: int


def pilot_mle(y1) -> FactorEstimate:
    """Maximum-likelihood estimates from the pilot observations y_u[1].

    beta_hat = Re{1 / y_u[1]}, clamped to [EPS_BETA, inf). ``y1`` holds one
    pilot sample per UE (a scalar is one UE).
    """
    y1 = np.atleast_1d(np.asarray(y1, dtype=complex))
    mags = np.abs(y1)
    # in this range 1/y neither divides by zero nor overflows, so no sample needs
    # the guards below; a NaN fails both tests and an inf the second, so they
    # reach the guards and raise
    if mags.min(initial=math.inf) >= 1e-12 and mags.max(initial=0.0) <= 1.0 / EPS_BETA:
        raw = np.reciprocal(y1).real
        return FactorEstimate(np.maximum(raw, EPS_BETA), int(np.count_nonzero(raw < EPS_BETA)))
    # |y| is infinite or NaN where a part of y is; Re{1/y} = 0 there would be clamped
    if not np.isfinite(mags).all():
        raise ValueError("a non-finite pilot sample has no finite and positive estimate")
    # numpy divides by Smith's method, as CPython does a complex scalar, so the estimates
    # match the scalar formula bit for bit; only |y| < 1e-12 or |y| > 1/EPS_BETA can divide
    # by zero or overflow, and both are clamped whatever 1/y is (|Re 1/y| <= 1/|y|), so
    # they are divided as 2/EPS_BETA instead, whose EPS_BETA/2 is clamped with the rest
    raw = np.reciprocal(np.where((mags < 1e-12) | (mags > 1.0 / EPS_BETA),
                                 2.0 / EPS_BETA + 0j, y1)).real
    clamped = raw < EPS_BETA
    return FactorEstimate(np.where(clamped, EPS_BETA, raw), int(np.count_nonzero(clamped)))


def blind_estimate(y, noise_var: float, err_energy: float = 0.0) -> FactorEstimate:
    """Blind estimates from the sample variance of each UE's received slots.

    beta_hat = sqrt(1 / (mean_k |y_u[k]|^2 - E0 - N0)) with the denominator
    clamped to EPS_DENOM; all slots carry payload. ``y`` is U x K (a 1-D
    array is one UE). ``noise_var`` and ``err_energy`` are the values the UE
    assumes, not generated quantities, so zero is allowed for both.
    """
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    if y.shape[1] < 1:
        raise ValueError("need at least one received sample")
    # a non-finite sample makes the denominator +inf or NaN, which would give the
    # estimate 0 or NaN; -inf, from an infinite err_energy or noise_var, is clamped
    denom = np.add.reduce(np.abs(y) ** 2, axis=1) / y.shape[1] - err_energy - noise_var
    if not (denom < math.inf).all():
        raise ValueError("a non-finite sample energy has no finite and positive estimate")
    clamped = denom < EPS_DENOM
    return FactorEstimate(np.sqrt(1.0 / np.where(clamped, EPS_DENOM, denom)),
                          int(np.count_nonzero(clamped)))


def genie_estimate(beta: float, num_ues: int) -> FactorEstimate:
    """The frame's exact factor ``beta``, granted by a genie to all ``num_ues`` UEs."""
    # -inf is clamped like any factor below EPS_BETA; NaN and +inf raise
    if not beta < math.inf:
        raise ValueError(f"factor {beta} has no finite and positive estimate")
    return FactorEstimate(np.full(num_ues, max(beta, EPS_BETA)),
                          num_ues if beta < EPS_BETA else 0)
