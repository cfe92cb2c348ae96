"""Semidefinite relaxation of the 1-bit precoding problem.

:func:`assemble_T` stacks the K slots of the real problem into one block
system (I_K kron H_R, vec(S_R)) and lifts it with the homogenization
[b^T 1]^T [b^T 1]: minimizing the quadratic form becomes minimizing
tr(T X) over PSD matrices whose first 2BK diagonal entries are tied
together (all |b_i| share one magnitude) and whose last diagonal entry is
pinned to 1. The SDP is solved by a self-contained ADMM that alternates a
closed-form projection onto the affine constraint set with a projection
onto the PSD cone and returns a :class:`~onebit_mimo.model.SolverResult`.
The program sees only T's symmetric part, so :func:`solve_sdp` symmetrizes
T once per call; every iterate then stays exactly symmetric, and
:func:`project_psd`, which symmetrizes its result, is the one step that
keeps it so. A 1-bit frame is then extracted by rounding the leading
eigenvector (:func:`~onebit_mimo.model.one_bit_quantize`). ADMM stops at
residual ``tol`` = 1e-6 or after ``max_iters`` = 5000 iterations, the
defaults of :func:`solve_sdp`'s keyword arguments.

:func:`sdr_precode` solves K independent single-slot SDPs, the evaluated
configuration, and returns their rounded slots as one frame. The joint
K-slot SDP (dimension 2BK+1) is :func:`assemble_T` on the whole (2U x K)
frame -> :func:`solve_sdp` -> :func:`extract_rank_one`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    unvec,
    vec,
)


@dataclass(frozen=True)
class SdpProblem:
    """Cost matrix of the lifted program.

    Constraints: X[b,b] = X[0,0] for b < dim - 1, X[-1,-1] = 1, X PSD.
    """

    t: np.ndarray

    @property
    def dim(self) -> int:
        return self.t.shape[0]


def assemble_T(h_r: np.ndarray, s_r: np.ndarray, num_ues: int,
               noise_var: float, transmit_power: float) -> SdpProblem:
    """Cost matrix of the program lifted to Hbar = I_K kron h_r, sbar = vec(s_r).

    ``h_r`` is the embedded channel (2U x 2B) and ``s_r`` the stacked frame,
    (2U,) for one slot or (2U, K); ``num_ues`` must be the U of ``h_r``. T has
    dimension 2BK+1, and for every b:
    [b^T 1] T [b^T 1]^T = ||sbar - Hbar b||^2 + (U N0/P)||b||^2.
    """
    if np.shape(h_r)[0] != 2 * num_ues:
        raise ValueError(f"h_r has {np.shape(h_r)[0]} rows, not 2U = {2 * num_ues}")
    s_r = np.asarray(s_r, dtype=float)
    num_slots = s_r.shape[1] if s_r.ndim == 2 else 1
    hbar_r = np.kron(np.eye(num_slots), np.asarray(h_r, dtype=float))
    sbar_r = vec(s_r)
    if hbar_r.shape[0] != sbar_r.size:
        raise ValueError("h_r and s_r row dimensions disagree")
    n_vec = hbar_r.shape[1]
    gram = hbar_r.T @ hbar_r + (num_ues * noise_var / transmit_power) * np.eye(n_vec)
    cross = hbar_r.T @ sbar_r
    t = np.empty((n_vec + 1, n_vec + 1))
    t[:n_vec, :n_vec] = gram
    t[:n_vec, n_vec] = -cross
    t[n_vec, :n_vec] = -cross
    t[n_vec, n_vec] = float(sbar_r @ sbar_r)
    return SdpProblem(t=t)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clip negative eigenvalues to 0."""
    m = np.asarray(m, dtype=float)
    sym = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    clipped = np.maximum(eigvals, 0.0)
    out = (eigvecs * clipped) @ eigvecs.T
    return 0.5 * (out + out.T)


#: residual balancing stops after this many iterations; fixed-penalty ADMM is
#: what carries the convergence guarantee, and unbounded per-iteration
#: adaptation can lock the iterates into a limit cycle
RHO_ADAPT_BURN_IN = 1000


def solve_sdp(problem: SdpProblem, tol: float = 1e-6,
              max_iters: int = 5000) -> SolverResult:
    """ADMM over the affine constraint set and the PSD cone.

    T is replaced by its symmetric part once per call, which leaves every T
    that :func:`assemble_T` builds unchanged bit for bit. x-update: project
    (z - u - T/rho) onto the affine set (closed form: average the tied
    diagonal, pin the corner); z-update: PSD projection of (x + u); scaled
    dual update. T, z and u are exactly symmetric, so every x is too, and
    :func:`project_psd` keeps z so; no other step symmetrizes. Stops when
    max(primal, dual) residual and the constraint violation of z drop below
    ``tol``; the violation is checked only once both residuals are. The
    penalty starts at 1 and is adapted by residual balancing (factor 2 when
    the residual ratio exceeds 10) during the first ``RHO_ADAPT_BURN_IN``
    iterations and then frozen.
    Returns z as ``x``, with ``converged=False`` if the budget runs out (z is
    PSD by construction either way), and the (iterations, 2) primal and dual
    residuals as ``history``.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    _check_count("max_iters", max_iters, 1)
    t = 0.5 * (problem.t + problem.t.T)
    n_vec = problem.dim - 1
    tied = np.arange(n_vec)
    z = np.zeros(t.shape)
    z[n_vec, n_vec] = 1.0
    dual = np.zeros(t.shape)
    history = []
    rho = 1.0
    converged = False

    for iterations in range(1, max_iters + 1):
        x = z - dual - t / rho
        x[tied, tied] = float(x[tied, tied].mean())
        x[n_vec, n_vec] = 1.0
        z_prev = z
        z = project_psd(x + dual)
        dual = dual + x - z

        primal = float(np.linalg.norm(x - z))
        dual_res = float(rho * np.linalg.norm(z - z_prev))
        history.append((primal, dual_res))

        if max(primal, dual_res) < tol:
            diag = np.diagonal(z)[:n_vec]
            if max(np.abs(diag - diag.mean()).max(), abs(z[n_vec, n_vec] - 1.0)) <= tol:
                converged = True
                break

        if iterations <= RHO_ADAPT_BURN_IN:
            if primal > 10.0 * dual_res:
                rho *= 2.0
                dual = dual / 2.0
            elif dual_res > 10.0 * primal:
                rho /= 2.0
                dual = dual * 2.0

    return SolverResult(x=z, objective=float(np.sum(t * z)), iterations=iterations,
                        converged=converged, history=np.asarray(history))


def extract_rank_one(sol: SolverResult, cfg: SystemConfig) -> PrecodeResult:
    """Round the SDP solution to a 1-bit frame via its leading eigenvector.

    The global sign is flipped so the homogenization entry is nonnegative
    (it stands for the constant 1), and the first 2BK entries are
    de-vectorized, quantized (:func:`one_bit_quantize`) and de-embedded to a
    frame in {+-l +-jl}. A (near-)degenerate leading eigenvalue is resolved
    deterministically by the eigensolver's ordering. The result is
    ``converged`` as ``sol`` is.
    """
    _, eigvecs = np.linalg.eigh(sol.x)
    leading = eigvecs[:, -1]
    if leading[-1] < 0:
        leading = -leading

    rows = 2 * cfg.num_bs_antennas
    b_r = unvec(leading[:-1], rows, (leading.size - 1) // rows)
    x = unstack_real(one_bit_quantize(b_r, cfg.quant_level))
    return PrecodeResult(x=x, converged=sol.converged)


def sdr_precode(s: np.ndarray, h: np.ndarray, cfg: SystemConfig) -> PrecodeResult:
    """End-to-end SDR precoding.

    Rejects shapes ``cfg.check_shapes`` refuses and a non-finite ``s`` with
    ``ValueError``, then solves K independent single-slot SDPs (dimension 2B+1
    each) and concatenates the rounded slots. The result is ``converged`` only
    if every slot's ADMM converged.
    """
    cfg.check_shapes(h, s)
    _frame_energy(s)
    h_r, s_r = real_embed(h), stack_real(s)
    slots = []
    for k in range(cfg.num_slots):
        sol = solve_sdp(assemble_T(h_r, s_r[:, k], cfg.num_ues,
                                   cfg.noise_var, cfg.transmit_power))
        slots.append(extract_rank_one(sol, cfg))
    x = np.concatenate([slot.x for slot in slots], axis=1)
    return PrecodeResult(x=x, converged=all(slot.converged for slot in slots))
