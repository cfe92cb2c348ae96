"""Squared-infinity-norm relaxation of the 1-bit precoding problem.

On the constraint set of the exact problem every entry of the real-embedded
vector has the same magnitude, so ||b||_2^2 = 2BK ||b||_inf^2. Dropping the
equal-magnitude constraints leaves the convex program

    minimize_b  ||sbar - Hbar b||_2^2 + (2 U B K N0 / P) ||b||_inf^2

which this module solves by Douglas-Rachford splitting, as the paper's
SQUID does. The prox of the least-squares term is a (2B x 2B) solve, done
through Woodbury on the (2U x 2U) Gram matrix of the per-slot embedded
channel H_R, so after one factorization per call each iteration takes one
product with H_R and one with a (2B x 2U) matrix; the block matrix
I_K kron H_R is never formed. The prox of the squared-infinity-norm penalty
is a clip at a level found by a Newton step warm-started from the previous
iteration's level, which ends the search after one selection pass when that
pass already holds the final set, and otherwise by Michelot steps. The step is
STEP_SCALE / sqrt(L lam / (2BK)), with L = 2 sigma_max(H_R)^2 the Lipschitz
constant of the least-squares gradient and lam / (2BK) the curvature the
penalty has on the equal-magnitude set (after Giselsson and Boyd, "Linear
convergence and metric selection for Douglas-Rachford splitting and ADMM",
IEEE TAC 2017). The update is over-relaxed by RELAXATION: for any factor
in (0, 2) the relaxed DR operator is still averaged, so it converges
(Eckstein and Bertsekas, Math. Prog. 1992), and a factor above 1 speeds up
its linear rate (Giselsson and Boyd). The run stops on a certified Fenchel
duality gap of at most REL_TOL times the objective at b = 0, or after
MAX_ITERS iterations, the defaults of :func:`squid_relax`'s budget.
:func:`squid_relax` returns a :class:`~onebit_mimo.model.SolverResult`.
:func:`squid_precode` rounds the relaxed solution to the 1-bit set
(:func:`one_bit_quantize`), refines the signs greedily for up to
``REFINEMENT_ROUNDS`` rounds, and returns the frame.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    PrecodeResult,
    SolverResult,
    SystemConfig,
    _check_count,
    _frame_energy,
    one_bit_quantize,
    # not called here; perfbench's span tracer rebinds it here by name
    optimal_beta_for,
    real_embed,
    stack_real,
    unstack_real,
)

#: greedy sign-refinement rounds after rounding the relaxed solution
REFINEMENT_ROUNDS = 10
#: the Douglas-Rachford step is STEP_SCALE / sqrt(L lam / (2BK))
STEP_SCALE = 2.0
#: the Douglas-Rachford update is z <- z + RELAXATION (c - b); any value in
#: (0, 2) converges, and over-relaxing above 1 takes fewer iterations
RELAXATION = 1.7
#: iterations between two checks of the certified duality gap
GAP_CHECK_EVERY = 5
#: default iteration budget of :func:`squid_relax`
MAX_ITERS = 2000
#: default stop: certified gap P - D at most REL_TOL ||sbar||^2
REL_TOL = 1.5e-4


def _clip_level(mags: np.ndarray, tau: float, guess: float) -> float:
    """Root t of phi(t) = sum_i max(m_i - t, 0) - 2 tau t for tau > 0.

    phi is convex and decreasing, so one Newton step from any ``guess``, the
    value t = sum(active) / (2 tau + |active|) on the entries above it, lands
    at or below the root, keeping every entry above the root. When it lands
    above ``guess``, the entries above ``guess`` already hold all it keeps,
    so the search goes on among them alone. Each pass selects the entries at
    or above t; when they are the set t was computed from, t is the root, so
    a guess that leaves no entry between itself and the root costs one
    selection pass and one count. Otherwise Michelot steps on the selected,
    shrinking set reach the root exactly, in few passes when ``guess`` is
    close to it.
    """
    mags = mags.ravel()  # compress selects faster than a boolean index
    active = mags.compress(mags > guess)
    t = active.sum() / (2.0 * tau + active.size)
    pool = active if t > guess else mags
    while True:
        keep = pool >= t
        # the kept entries lie within active or hold all of it, so equal
        # counts mean equal sets
        if np.count_nonzero(keep) == active.size:
            return float(t)
        pool = active = pool.compress(keep)
        t = active.sum() / (2.0 * tau + active.size)


def prox_sq_inf(v: np.ndarray, tau: float) -> np.ndarray:
    """Proximal operator of tau * ||.||_inf^2.

    Returns the unique minimizer of tau ||x||_inf^2 + 0.5 ||x - v||^2. The
    solution clips v at magnitude t, where t >= 0 solves the stationarity
    equation 2 tau t = sum_i max(|v_i| - t, 0) (:func:`_clip_level`); for
    tau = 0 the answer is v. A NaN tau or a non-finite entry of v raises
    ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    # a NaN or inf entry leaves no finite level, and the clip no minimizer
    if not (mags := np.abs(v)).max(initial=0.0) < math.inf:
        raise ValueError("v must be finite")
    if tau == 0:
        return v.copy()
    t = _clip_level(mags, tau, 0.0)
    return np.clip(v, -t, t)


def estimate_gradient_lipschitz(gram: np.ndarray) -> float:
    """L = 2 sigma_max(H_R)^2, the Lipschitz constant of the gradient of
    ||sbar - Hbar b||^2, read off the (2U x 2U) Gram matrix H_R H_R^T."""
    return 2.0 * float(np.linalg.eigvalsh(gram)[-1])


def _lsq_prox_gain(h_r: np.ndarray, gram: np.ndarray, gamma: float) -> np.ndarray:
    """W = 2 gamma H_R^T (I + 2 gamma H_R H_R^T)^-1, a (2B x 2U) matrix;
    ``gram`` is H_R H_R^T.

    By Woodbury, the prox of gamma ||s - H_R b||^2 at z, the solution b of
    (I + 2 gamma H_R^T H_R) b = z + 2 gamma H_R^T s, is z + W (s - H_R z).
    """
    shifted = np.eye(gram.shape[0]) + (2.0 * gamma) * gram
    # inverting the small matrix is several times faster here than solve()
    # with the 2B right-hand sides of H_R
    return (2.0 * gamma) * (h_r.T @ np.linalg.inv(shifted))


def squid_relax(h_r: np.ndarray, s_r: np.ndarray, cfg: SystemConfig,
                max_iters: int = MAX_ITERS, rel_tol: float = REL_TOL) -> SolverResult:
    """Solve the relaxed problem; returns the best checked (2B x K) iterate as
    ``x``, a fresh array that no later call writes to.

    Works on the real embedding: ``h_r`` is the (2U x 2B) embedded channel
    and ``s_r`` the (2U x K) stacked frame (:func:`real_embed`,
    :func:`stack_real`) of ``cfg``'s sizes, checked by ``cfg.check_shapes``.
    Douglas-Rachford splitting of P(b) = f(b) + g(b),
    f(b) = ||sbar - Hbar b||^2 and g(b) = lam ||b||_inf^2, from z = 0:

        b = prox_{gamma f}(z),  c = prox_{gamma g}(2b - z),
        z <- z + alpha (c - b)

    with step gamma = STEP_SCALE / sqrt(L lam / (2BK)) and alpha =
    RELAXATION. The loop holds b - z rather than b, so relaxing costs no
    extra pass over the iterate, and it writes every product and update
    into buffers allocated once per call. Every ``GAP_CHECK_EVERY``
    iterations, and at the last, c is certified by the Fenchel dual bound
    D(r) = 2<r, sbar> - ||r||^2 - ||Hbar^T r||_1^2 / lam <= P*, with
    r = sbar - Hbar c. The best checked c is kept, starting from b = 0 with
    P = ||sbar||^2, whose own bound is computed only if no check beats it,
    so the returned objective never exceeds ||sbar||^2. The run converges
    once the kept point's P - D <= ``rel_tol`` * ||sbar||^2, or stops after
    ``max_iters`` iterations.

    ``history`` holds the fixed-point residual ||z_new - z|| =
    alpha ||c - b||, one entry per iteration. It never rises. The update is
    z_new = T(z) with T = (1 - alpha/2) I + (alpha/2) R_g R_f, where R are
    the reflections 2 prox - I. R_g R_f is nonexpansive, so T is averaged
    for alpha < 2 and nonexpansive for alpha <= 2, and each residual
    ||T(z_new) - T(z)|| is at most the one before, ||z_new - z||.
    """
    if np.iscomplexobj(h_r) or np.iscomplexobj(s_r):
        raise TypeError("squid_relax takes real_embed(h) and stack_real(s)")
    _check_count("max_iters", max_iters, 1)
    if not 0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")
    h_r = np.asarray(h_r, dtype=float)
    s_r = np.asarray(s_r, dtype=float)
    cfg.check_shapes(h_r, s_r, embedded=True)
    # a NaN would run out the budget and an inf overflow the dual bound
    f_zero = _frame_energy(s_r)

    num_antennas, num_slots = cfg.num_bs_antennas, cfg.num_slots
    penalty = (2.0 * cfg.num_ues * num_antennas * num_slots
               * cfg.noise_var / cfg.transmit_power)
    gram = h_r @ h_r.T
    lipschitz = max(estimate_gradient_lipschitz(gram), 1e-12)
    gamma = STEP_SCALE / np.sqrt(lipschitz * penalty / (2 * num_antennas * num_slots))
    tau = gamma * penalty
    gain = _lsq_prox_gain(h_r, gram, gamma)

    def dual_bound(resid, fit):
        corr = float(np.sum(np.abs(h_r.T @ resid)))
        return 2.0 * float(np.vdot(resid, s_r)) - fit - corr ** 2 / penalty

    r = np.empty_like(s_r)
    z = np.zeros((2 * num_antennas, num_slots))
    g, v, mags, c, move = (np.empty_like(z) for _ in range(5))
    level = 0.0
    # b = 0's dual bound is only needed while no checked iterate beats it
    x_best, f_best, d_best = np.zeros_like(z), f_zero, None
    history = []
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        np.subtract(s_r, np.matmul(h_r, z, out=r), out=r)
        np.matmul(gain, r, out=g)  # b = z + g
        np.add(z, g, out=v)
        v += g  # 2b - z
        level = _clip_level(np.abs(v, out=mags), tau, level)
        np.minimum(v, level, out=c)
        np.maximum(c, -level, out=c)  # its inf-norm is level
        np.subtract(c, z, out=move)
        move -= g
        move *= RELAXATION  # RELAXATION (c - b)
        z += move
        history.append(math.sqrt(np.vdot(move, move)))

        if iterations % GAP_CHECK_EVERY == 0 or iterations == max_iters:
            np.subtract(s_r, np.matmul(h_r, c, out=r), out=r)
            fit = float(np.vdot(r, r))
            primal = fit + penalty * level ** 2
            if primal < f_best:
                # c is overwritten by the next iteration
                x_best, f_best, d_best = c.copy(), primal, dual_bound(r, fit)
            elif d_best is None:
                d_best = dual_bound(s_r, f_zero)
            if f_best - d_best <= rel_tol * f_zero:
                converged = True
                break

    return SolverResult(x=x_best, objective=f_best, iterations=iterations,
                        converged=converged, history=np.asarray(history))


def _greedy_sign_refine(x_r: np.ndarray, h_r: np.ndarray, s_r: np.ndarray,
                        cfg: SystemConfig) -> np.ndarray:
    """Coordinate descent on the exact frame MSE over the sign pattern of ``x_r``,
    with U, K, N0 and the level l read from ``cfg``.

    The least-squares minimizer of the relaxation is far from unique (the
    block channel has a huge nullspace) and one-shot sign rounding of any
    minimizer leaves a large gap to nearby sign patterns. Flipping one
    entry of a slot changes the fitted column by a rank-one term, so one
    product with H_R^T prices every candidate flip of every slot. At a fixed
    factor the slots are independent: each step applies every slot's best
    strictly improving flip until no slot has one left, re-optimizing the
    factor between rounds. A slot changes only by its own flips, so one with
    no improving flip leaves the round, and each step prices only the slots
    still in it. Flips only ever lower the objective, so all dominance
    properties against the exhaustive optimum are preserved.
    The frame, its residual and S are held slot-major (K x 2B and K x 2U),
    so each slot's candidates are one contiguous row. At a factor of 0 no flip gains.
    """
    slots = np.arange(cfg.num_slots)
    h_cols = h_r.T  # row i is column i of H_R
    col_energy = np.sum(h_r * h_r, axis=0)
    noise_term = cfg.num_ues * cfg.num_slots * cfg.noise_var
    x_t = x_r.T.copy()
    s_t = s_r.T

    for _ in range(REFINEMENT_ROUNDS):
        fitted = x_t @ h_cols
        den = float(np.sum(fitted * fitted)) + noise_term
        beta = max(0.0, float(np.sum(fitted * s_t)) / den)
        resid = s_t - beta * fitted
        flip_cost = 4.0 * beta ** 2 * cfg.quant_level ** 2 * col_energy
        live, flipped = slots, False
        while True:
            gain = 4.0 * beta * x_t[live] * (resid @ h_r) + flip_cost
            picks = np.argmin(gain, axis=1)
            improving = gain.min(axis=1) < -1e-12
            if not improving.any():
                break
            # resid keeps only the rows of the slots still in the round
            live, picks, resid = live[improving], picks[improving], resid[improving]
            signs = x_t[live, picks]
            resid += (2.0 * beta * signs)[:, None] * h_cols[picks]
            x_t[live, picks] = -signs
            flipped = True
        if not flipped:
            break
    return x_t.T


def squid_precode(s: np.ndarray, h, cfg: SystemConfig) -> PrecodeResult:
    """Relax, then round to the 1-bit transmit set.

    Rounding quantizes the real-embedded relaxed solution entrywise
    (:func:`one_bit_quantize`), then a deterministic greedy sign-flip
    refinement lowers the frame MSE. No factor is read off the relaxed
    iterate: the frame is judged at its conditionally optimal factor
    (:func:`~onebit_mimo.model.optimal_beta_for`), which is never worse.
    """
    h_r, s_r = real_embed(h), stack_real(s)
    relaxed = squid_relax(h_r, s_r, cfg)
    x_r = one_bit_quantize(relaxed.x, cfg.quant_level)
    x = unstack_real(_greedy_sign_refine(x_r, h_r, s_r, cfg))
    return PrecodeResult(x=x, converged=relaxed.converged)
