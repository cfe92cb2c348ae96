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
received sample, or an estimate that is still not finite and positive, raises
``ValueError``, so the trial fails rather than going on at a clamped factor.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
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


def _checked(betas: np.ndarray, clamped: np.ndarray) -> FactorEstimate:
    # a NaN carries through min and max and fails the comparison; an empty
    # array, which holds no estimate, passes
    if not (betas.min(initial=math.inf) > 0 and betas.max(initial=0.0) < math.inf):
        raise ValueError("estimate must be finite and positive")
    return FactorEstimate(betas, int(np.count_nonzero(clamped)))


def pilot_mle(y1) -> FactorEstimate:
    """Maximum-likelihood estimates from the pilot observations y_u[1].

    beta_hat = Re{1 / y_u[1]}, clamped to [EPS_BETA, inf). ``y1`` holds one
    pilot sample per UE (a scalar is one UE).
    """
    y1 = np.atleast_1d(np.asarray(y1, dtype=complex))
    # |y| is infinite or NaN where a part of y is; Re{1/y} = 0 there would be clamped
    if not np.isfinite(mags := np.abs(y1)).all():
        raise ValueError("a non-finite pilot sample has no finite and positive estimate")
    # numpy divides by Smith's method, as CPython does a complex scalar, so the estimates
    # match the scalar formula bit for bit; only |y| < 1e-12 or |y| > 1/EPS_BETA can divide
    # by zero or overflow, and both are clamped whatever 1/y is (|Re 1/y| <= 1/|y|), so
    # they are marked first; the rest are finite, so none needs _checked
    clamped = (mags < 1e-12) | (mags > 1.0 / EPS_BETA)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore") \
            if np.count_nonzero(clamped) else nullcontext():
        raw = np.reciprocal(y1).real
    clamped |= raw < EPS_BETA
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
    # a non-finite sample makes the denominator infinite or NaN, and the
    # estimate 0 or NaN, which _checked rejects
    denom = np.add.reduce(np.abs(y) ** 2, axis=1) / y.shape[1] - err_energy - noise_var
    clamped = denom < EPS_DENOM
    return _checked(np.sqrt(1.0 / np.where(clamped, EPS_DENOM, denom)), clamped)


def genie_estimate(beta: float, num_ues: int) -> FactorEstimate:
    """The frame's exact factor ``beta``, granted by a genie to all ``num_ues`` UEs."""
    clamped = np.full(num_ues, beta < EPS_BETA)
    return _checked(np.full(num_ues, max(beta, EPS_BETA)), clamped)
