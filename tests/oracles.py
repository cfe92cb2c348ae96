"""Independent reference implementations used as test oracles.

Each routine here recomputes a quantity through a different route than the
library (naive loops, grid search, bisection, exhaustive enumeration) so the
tests never compare an implementation against itself.
"""

import numpy as np


def naive_matmul(a, b):
    """Triple-loop complex matrix product."""
    a = np.asarray(a)
    b = np.asarray(b)
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            acc = 0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def mse_objective_termwise(s, h, x, beta, noise_var):
    """Entry-by-entry recomputation of ||S - beta H X||_F^2 + beta^2 U K N0."""
    s = np.asarray(s)
    hx = naive_matmul(h, x)
    total = 0.0
    for u in range(s.shape[0]):
        for k in range(s.shape[1]):
            diff = s[u, k] - beta * hx[u, k]
            total += diff.real ** 2 + diff.imag ** 2
    return total + beta ** 2 * s.size * noise_var


def grid_search_beta(s, h, x, noise_var, beta_max=10.0, step=1e-4):
    """Scalar grid minimizer of the frame MSE over the precoding factor."""
    s = np.asarray(s)
    hx = np.asarray(h) @ np.asarray(x)
    betas = np.arange(0.0, beta_max + step, step)
    s_energy = np.sum(np.abs(s) ** 2)
    num = np.vdot(hx, s).real
    den = np.sum(np.abs(hx) ** 2) + s.size * noise_var
    objective = s_energy - 2.0 * betas * num + betas ** 2 * den
    return float(betas[np.argmin(objective)])


def linear_scan_detect(shat, points):
    """Index of the nearest constellation point by explicit linear scan."""
    best, best_d = 0, float("inf")
    for i, p in enumerate(points):
        d = abs(shat - p)
        if d < best_d:
            best, best_d = i, d
    return best


def joint_search_detect(shat, points):
    """Nearest point by one argmin over the rounded |shat - p|^2 of all M
    points, ties to the lowest index: the search that a per-axis decision on
    a square grid must reproduce code for code, near-ties included."""
    shat = np.asarray(shat, dtype=complex)[..., None]
    re = shat.real - points.real
    im = shat.imag - points.imag
    return np.argmin(re * re + im * im, axis=-1)


def bisection_prox_sq_inf(v, tau, iters=200):
    """Prox of tau*||.||_inf^2 via bisection on the stationarity equation.

    psi(t) = 2 tau t - sum_i max(|v_i| - t, 0) is strictly increasing with
    psi(0) <= 0 and psi(max|v|) >= 0, so its root is bracketed.
    """
    v = np.asarray(v, dtype=float)
    if tau == 0:
        return v.copy()
    mags = np.abs(v)
    hi = float(mags.max(initial=0.0))
    if hi == 0.0:
        return np.zeros_like(v)
    lo = 0.0

    def psi(t):
        return 2.0 * tau * t - np.maximum(mags - t, 0.0).sum()

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if psi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return np.sign(v) * np.minimum(mags, t)


def sorted_clip_level(mags, tau):
    """Clip level of the prox of tau*||.||_inf^2 (tau > 0) by a full sort.

    With magnitudes sorted u_1 >= ... >= u_n and prefix sums S_k, the active
    support size is k* = max{k : u_k > S_k / (2 tau + k)} and the level is
    S_{k*} / (2 tau + k*); it is 0 when every magnitude is 0.
    """
    u = np.sort(np.ravel(mags))[::-1]
    if u.size == 0 or u[0] == 0.0:
        return 0.0
    thresholds = np.cumsum(u) / (2.0 * tau + np.arange(1, u.size + 1))
    return float(thresholds[np.nonzero(u > thresholds)[0][-1]])


def sequential_sign_refine(x_r, h_r, s_r, noise_var, level, rounds):
    """Greedy sign refinement of the frame MSE, one slot and one flip at a time.

    Each round fixes the factor beta, then for each slot in turn applies the
    best strictly improving single flip until that slot has none left.
    """
    num_ues = h_r.shape[0] // 2
    num_slots = s_r.shape[1]
    col_energy = np.sum(h_r * h_r, axis=0)
    x_r = x_r.copy()

    def beta_for(frame_r):
        fitted = h_r @ frame_r
        den = float(np.sum(fitted * fitted)) + num_ues * num_slots * noise_var
        return max(0.0, float(np.sum(fitted * s_r)) / den)

    for _ in range(rounds):
        beta = beta_for(x_r)
        if beta == 0.0:
            break
        flipped = 0
        for k in range(num_slots):
            resid = s_r[:, k] - beta * (h_r @ x_r[:, k])
            while True:
                gain = 4.0 * beta * x_r[:, k] * (h_r.T @ resid) \
                    + 4.0 * beta ** 2 * level ** 2 * col_energy
                j = int(np.argmin(gain))
                if gain[j] >= -1e-12:
                    break
                resid = resid + 2.0 * beta * x_r[j, k] * h_r[:, j]
                x_r[j, k] = -x_r[j, k]
                flipped += 1
        if flipped == 0:
            break
    return x_r


def sq_inf_prox_objective(x, v, tau):
    x = np.asarray(x, dtype=float)
    return tau * np.max(np.abs(x), initial=0.0) ** 2 + 0.5 * np.sum((x - v) ** 2)


def grid_search_linf_sq_2d(s_r2, penalty, half_width, step):
    """Dense 2-D grid minimizer of ||s - b||^2 + penalty*||b||_inf^2 (H = I2).

    Returns (best objective, best b). Evaluates the grid in row chunks to
    bound memory.
    """
    axis = np.arange(-half_width, half_width + step, step)
    s0, s1 = float(s_r2[0]), float(s_r2[1])
    best_obj = float("inf")
    best_b = (0.0, 0.0)
    chunk = 512
    for start in range(0, axis.size, chunk):
        b0 = axis[start:start + chunk][:, None]
        b1 = axis[None, :]
        obj = ((s0 - b0) ** 2 + (s1 - b1) ** 2
               + penalty * np.maximum(np.abs(b0), np.abs(b1)) ** 2)
        flat = int(np.argmin(obj))
        i, j = np.unravel_index(flat, obj.shape)
        if obj[i, j] < best_obj:
            best_obj = float(obj[i, j])
            best_b = (float(b0[i, 0]), float(axis[j]))
    return best_obj, np.array(best_b)


def refined_search_sdp_n3(t, rounds=30, grid_points=81, margin=6.0):
    """Fine parameterized search of the n=3 lifted program.

    Feasible X = [[a, e, c], [e, a, d], [c, d, 1]] with X PSD. By the Schur
    complement on the unit corner, X is PSD iff a >= c^2, a >= d^2 and
    (e - c d)^2 <= (a - c^2)(a - d^2); the objective is linear in e, so for
    each (a, c, d) the best e sits at an interval endpoint:
    e* = c d - sign(t12) sqrt((a - c^2)(a - d^2)). That leaves an exact
    3-D parameterization of the feasible boundaryless search space, scanned
    on a grid and refined around the incumbent.
    """
    t = np.asarray(t, dtype=float)
    assert t.shape == (3, 3)
    diag_w = t[0, 0] + t[1, 1]
    t12, t13, t23 = t[0, 1], t[0, 2], t[1, 2]
    sign_e = 1.0 if t12 >= 0 else -1.0
    lo = np.array([0.0, -2.0, -2.0])   # a, c, d
    hi = np.array([4.0, 2.0, 2.0])
    best_obj = float("inf")
    best_p = None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(3)]
        a, c, d = np.meshgrid(*axes, indexing="ij", sparse=True)
        slack_c = a - c * c
        slack_d = a - d * d
        feasible = (slack_c >= 0) & (slack_d >= 0)
        gap = np.sqrt(np.where(feasible, slack_c * slack_d, 0.0))
        e = c * d - sign_e * gap
        obj = diag_w * a + 2.0 * t12 * e + 2.0 * t13 * c + 2.0 * t23 * d + t[2, 2]
        obj = np.where(feasible, obj, np.inf)
        flat = int(np.argmin(obj))
        idx = np.unravel_index(flat, obj.shape)
        params = np.array([axes[i][idx[i]] for i in range(3)])
        val = float(obj[idx])
        if val < best_obj:
            best_obj = val
            best_p = params
        spans = (hi - lo) / (grid_points - 1)
        lo = np.maximum(best_p - margin * spans, [0.0, -np.inf, -np.inf])
        hi = best_p + margin * spans
    return best_obj, best_p


def enumerate_qp(s, h, level, noise_var):
    """Plain-loop exhaustive search of the 1-bit precoding problem.

    Independent of the library's chunked/vectorized enumeration; only
    usable for very small frames.
    """
    import itertools

    s = np.asarray(s)
    h = np.asarray(h)
    num_antennas = h.shape[1]
    num_slots = s.shape[1]
    best = (None, 0.0, float("inf"))
    for pattern in itertools.product([level, -level], repeat=2 * num_antennas * num_slots):
        xr = np.asarray(pattern, dtype=float).reshape(
            (2 * num_antennas, num_slots), order="F")
        x = xr[:num_antennas] + 1j * xr[num_antennas:]
        hx = h @ x
        num = np.vdot(hx, s).real
        den = np.sum(np.abs(hx) ** 2) + s.size * noise_var
        beta = max(0.0, num / den)
        obj = float(np.sum(np.abs(s - beta * hx) ** 2) + beta ** 2 * s.size * noise_var)
        if obj < best[2]:
            best = (x, beta, obj)
    return best
