"""Squared-infinity-norm relaxation of the 1-bit precoding problem.

On the constraint set of the exact problem every entry of the real-embedded
vector has the same magnitude, so ||b||_2^2 = 2BK ||b||_inf^2. Dropping the
equal-magnitude constraints leaves the convex program

    minimize_b  ||sbar - Hbar b||_2^2 + (2 U B K N0 / P) ||b||_inf^2

which this module solves with an accelerated proximal-gradient method:
gradient steps on the least-squares term, exact proximal steps on the
squared-infinity-norm penalty (a clip at a level found by Newton and
Michelot steps, warm-started from the previous iteration's level plus its
last change), step size 1/L with L = 2 sigma_max(H_R)^2, the exact
Lipschitz constant of the gradient (I_K kron H_R has the singular values
of H_R). Each iteration takes one product with the per-slot embedded
channel and one with its transpose; the block matrix I_K kron H_R is never
formed.
:func:`squid_relax` returns a :class:`~onebit_mimo.model.SolverResult`.
:func:`squid_precode` rounds the relaxed solution to the 1-bit set
(:func:`one_bit_quantize`), refines the signs greedily for up to
``REFINEMENT_ROUNDS`` rounds, and returns the frame with its conditionally
optimal precoding factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PrecodeResult,
    SolverResult,
    SystemConfig,
    _check_count,
    one_bit_quantize,
    optimal_beta_for,
    real_embed,
    stack_real,
    unstack_real,
)

#: greedy sign-refinement rounds after rounding the relaxed solution
REFINEMENT_ROUNDS = 10


@dataclass(frozen=True)
class SquidOptions:
    max_iters: int = 2000
    rel_tol: float = 1e-6
    momentum: bool = True

    def __post_init__(self):
        _check_count("max_iters", self.max_iters, 1)
        if not 0 < self.rel_tol < np.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")


def _clip_level(mags: np.ndarray, tau: float, guess: float) -> float:
    """Root t of phi(t) = sum_i max(m_i - t, 0) - 2 tau t for tau > 0.

    phi is convex and decreasing, so one Newton step from any ``guess`` lands
    at or below the root, keeping every entry above the root. When it lands
    above ``guess``, the entries above ``guess`` already hold all it keeps,
    so a guess below the root costs one pass over ``mags``, not two.
    Michelot steps t = sum(active) / (2 tau + |active|) on that shrinking
    set reach the root exactly, in few passes when ``guess`` is close to it.
    """
    mags = mags.ravel()  # compress selects faster than a boolean index
    above = mags.compress(mags > guess)
    t = above.sum() / (2.0 * tau + above.size)
    pool = above if t > guess else mags
    active = pool.compress(pool >= t)
    while True:
        t = active.sum() / (2.0 * tau + active.size)
        keep = active >= t
        if keep.all():
            return float(t)
        active = active.compress(keep)


def prox_sq_inf(v: np.ndarray, tau: float) -> np.ndarray:
    """Proximal operator of tau * ||.||_inf^2.

    Returns the unique minimizer of tau ||x||_inf^2 + 0.5 ||x - v||^2. The
    solution clips v at magnitude t, where t >= 0 solves the stationarity
    equation 2 tau t = sum_i max(|v_i| - t, 0) (:func:`_clip_level`); for
    tau = 0 the answer is v.
    """
    v = np.asarray(v, dtype=float)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0 or v.size == 0:
        return v.copy()
    t = _clip_level(np.abs(v), tau, 0.0)
    return np.clip(v, -t, t)


def estimate_gradient_lipschitz(h_r: np.ndarray) -> float:
    """L = 2 sigma_max(H_R)^2, the Lipschitz constant of the gradient of
    ||sbar - Hbar b||^2."""
    return 2.0 * float(np.linalg.norm(h_r, 2)) ** 2


def squid_relax(h_r: np.ndarray, s_r: np.ndarray, cfg: SystemConfig,
                opts: SquidOptions = SquidOptions()) -> SolverResult:
    """Solve the relaxed problem; returns the best (2B x K) iterate as ``x``.

    Works on the real embedding: ``h_r`` is the (2U x 2B) embedded channel
    and ``s_r`` the (2U x K) stacked frame (:func:`real_embed`,
    :func:`stack_real`). Iterates b <- prox(b - gamma * 2 Hbar^T (Hbar b -
    sbar), gamma * penalty) with step gamma = 1/L and Nesterov momentum
    (without it, t stays 1 and the extrapolation weight is 0), stopping when
    the relative objective change drops below ``rel_tol`` or ``max_iters``
    is reached. The returned objective never exceeds the objective at b = 0
    (the starting point), which opens the objective ``history`` of
    ``iterations + 1`` entries.
    """
    if np.iscomplexobj(h_r) or np.iscomplexobj(s_r):
        raise TypeError("squid_relax takes real_embed(h) and stack_real(s)")
    h_r = np.asarray(h_r, dtype=float)
    s_r = np.asarray(s_r, dtype=float)
    num_ues, num_antennas = h_r.shape[0] // 2, h_r.shape[1] // 2
    num_slots = s_r.shape[1]
    if s_r.shape[0] != h_r.shape[0]:
        raise ValueError("symbol frame and channel dimensions disagree")

    penalty = (2.0 * num_ues * num_antennas * num_slots
               * cfg.noise_var / cfg.transmit_power)
    gamma = 1.0 / max(estimate_gradient_lipschitz(h_r), 1e-12)
    tau = gamma * penalty

    # the extrapolated point is affine in b_next and b, and so is its residual
    step_t = (2.0 * gamma) * h_r.T
    b = np.zeros((2 * num_antennas, num_slots))
    y, resid, resid_y = b, -s_r, -s_r
    t_momentum, level, level_change = 1.0, 0.0, 0.0
    f_cur = float(np.vdot(s_r, s_r))
    history = [f_cur]
    b_best, f_best = b, f_cur
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iters + 1):
        stepped = y - step_t @ resid_y
        # the level mostly shrinks, so the last change predicts the next
        level_next = _clip_level(np.abs(stepped), tau,
                                 max(level + level_change, 0.0))
        level, level_change = level_next, level_next - level
        b_next = np.clip(stepped, -level, level)  # its inf-norm is level

        resid_next = (h_r @ b_next) - s_r
        f_next = float(np.vdot(resid_next, resid_next)) + penalty * level ** 2
        history.append(f_next)
        if f_next < f_best:
            b_best, f_best = b_next, f_next

        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum ** 2)) if opts.momentum else 1.0
        coef = (t_momentum - 1.0) / t_new
        y = b_next + coef * (b_next - b)
        resid_y = resid_next + coef * (resid_next - resid)
        t_momentum = t_new

        rel_change = abs(f_next - f_cur) / max(abs(f_cur), 1e-30)
        b, resid, f_cur = b_next, resid_next, f_next
        if rel_change < opts.rel_tol:
            converged = True
            break

    return SolverResult(x=b_best, objective=f_best, iterations=iterations,
                        converged=converged, history=np.asarray(history))


def _greedy_sign_refine(x_r: np.ndarray, h_r: np.ndarray, s_r: np.ndarray,
                        noise_var: float, level: float) -> np.ndarray:
    """Coordinate descent on the exact frame MSE over the sign pattern.

    The least-squares minimizer of the relaxation is far from unique (the
    block channel has a huge nullspace) and one-shot sign rounding of any
    minimizer leaves a large gap to nearby sign patterns. Flipping one
    entry of a slot changes the fitted column by a rank-one term, so one
    product with H_R^T prices every candidate flip of every slot. At a fixed
    factor the slots are independent: each step applies every slot's best
    strictly improving flip until no slot has one left, re-optimizing the
    factor between rounds. Flips only ever lower the objective, so all
    dominance properties against the exhaustive optimum are preserved.
    """
    num_ues = h_r.shape[0] // 2
    num_slots = s_r.shape[1]
    slots = np.arange(num_slots)
    col_energy = np.sum(h_r * h_r, axis=0)
    x_r = x_r.copy()

    def beta_for(frame_r):
        fitted = h_r @ frame_r
        den = float(np.sum(fitted * fitted)) + num_ues * num_slots * noise_var
        return max(0.0, float(np.sum(fitted * s_r)) / den)

    for _ in range(REFINEMENT_ROUNDS):
        beta = beta_for(x_r)
        if beta == 0.0:
            break
        resid = s_r - beta * (h_r @ x_r)
        flip_cost = (4.0 * beta ** 2 * level ** 2 * col_energy)[:, None]
        flipped = False
        while True:
            gain = 4.0 * beta * x_r * (h_r.T @ resid) + flip_cost
            rows = np.argmin(gain, axis=0)
            cols = np.nonzero(gain[rows, slots] < -1e-12)[0]
            if cols.size == 0:
                break
            rows = rows[cols]
            resid[:, cols] += 2.0 * beta * x_r[rows, cols] * h_r[:, rows]
            x_r[rows, cols] = -x_r[rows, cols]
            flipped = True
        if not flipped:
            break
    return x_r


def squid_precode(s: np.ndarray, h, cfg: SystemConfig,
                  opts: SquidOptions = SquidOptions()) -> PrecodeResult:
    """Relax, round to the 1-bit transmit set, recover the precoding factor.

    Rounding quantizes the real-embedded relaxed solution entrywise
    (:func:`one_bit_quantize`), then a deterministic greedy sign-flip
    refinement lowers the frame MSE. The factor is recomputed as the
    conditional optimum for the final frame rather than read off the
    relaxed iterate, which is never worse under the frame MSE.
    """
    h_r, s_r = real_embed(h), stack_real(s)
    relaxed = squid_relax(h_r, s_r, cfg, opts)
    level = cfg.quant_level
    x_r = one_bit_quantize(relaxed.x, level)
    x = unstack_real(_greedy_sign_refine(x_r, h_r, s_r, cfg.noise_var, level))
    beta = optimal_beta_for(x, s, h, cfg.noise_var)
    flags = () if relaxed.converged else ("squid_nonconverged",)
    return PrecodeResult(x=x, beta=beta, flags=flags)
