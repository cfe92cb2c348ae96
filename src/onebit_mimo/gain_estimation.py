"""UE-side estimation of the precoding factor from received samples.

Each UE rescales its received samples by an estimate of the common
precoding factor before minimum-distance detection. Three methods, each run
once over all U UEs:

- genie: the exact factor the precoder chose (reference curves)
- pilot_mle: one pilot slot carrying sqrt(Es) = 1 at every UE (every
  constellation here has Es = 1); the estimate is the real part of 1/y_u[1]
- blind: matches the sample variance of the received signal to
  beta^-2 Es + E0 + N0 and solves for the factor; the error energy E0 is
  unknown in practice and defaults to 0

The estimators are undefined for nonpositive real parts / denominators, so
values are clamped (and counted) to keep sweeps running. An estimate that is
still not finite and positive raises ``ValueError``.
"""

from __future__ import annotations

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
    if not np.all(np.isfinite(betas) & (betas > 0)):
        raise ValueError("estimate must be finite and positive")
    return FactorEstimate(betas, int(np.count_nonzero(clamped)))


def pilot_mle(y1) -> FactorEstimate:
    """Maximum-likelihood estimates from the pilot observations y_u[1].

    beta_hat = Re{1 / y_u[1]}, clamped to [EPS_BETA, inf). ``y1`` holds one
    pilot sample per UE (a scalar is one UE).
    """
    y1 = np.atleast_1d(np.asarray(y1, dtype=complex))
    re, im = y1.real, y1.imag
    # Smith's division, as CPython divides a complex scalar, so the
    # estimates match the scalar formula bit for bit
    with np.errstate(divide="ignore", invalid="ignore"):
        real_major = np.abs(re) >= np.abs(im)
        ratio = np.where(real_major, im / re, re / im)
        raw = np.where(real_major, 1.0 / (re + im * ratio),
                       ratio / (re * ratio + im))
    clamped = (np.abs(y1) < 1e-12) | (raw < EPS_BETA)
    return _checked(np.where(clamped, EPS_BETA, raw), clamped)


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
    denom = np.mean(np.abs(y) ** 2, axis=1) - err_energy - noise_var
    clamped = denom < EPS_DENOM
    return _checked(np.sqrt(1.0 / np.where(clamped, EPS_DENOM, denom)), clamped)


def genie_estimate(beta: float, num_ues: int) -> FactorEstimate:
    """The precoder's exact factor ``beta``, granted by a genie to all ``num_ues`` UEs."""
    clamped = np.full(num_ues, beta < EPS_BETA)
    return _checked(np.full(num_ues, max(beta, EPS_BETA)), clamped)
