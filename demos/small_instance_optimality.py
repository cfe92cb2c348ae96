"""Compare every precoder against the exhaustive optimum on toy systems.

At B antennas and K slots the 1-bit transmit frame lives in a set of size
4^(B*K), so for tiny systems the globally MSE-optimal frame can be found by
enumeration. This script draws a handful of small Rayleigh channels and
prints the frame MSE of quantized ZF, quantized MRT, the squared-inf-norm
relaxation and the semidefinite relaxation next to the exhaustive optimum
and the SDP lower bound. The ``sdr`` column rounds the joint K-slot SDP whose
value is the bound.

Run:  python demos/small_instance_optimality.py
"""

import numpy as np

from onebit_mimo import (
    SymbolFrame,
    SystemConfig,
    assemble_T,
    brute_force_qp,
    extract_rank_one,
    gen_rayleigh_channel,
    get_constellation,
    linear_quantized_precode,
    qp_objective,
    solve_sdp,
    squid_precode,
    stack_real,
    vectorize_system,
)

cfg = SystemConfig.from_snr_db(num_bs_antennas=3, num_ues=2, num_slots=2,
                               snr_db=10.0)
qpsk = get_constellation("qpsk")

print(f"B={cfg.num_bs_antennas}, U={cfg.num_ues}, K={cfg.num_slots}, "
      f"snr={cfg.snr_db:.0f} dB, search space 4^(BK)={4 ** 6} frames")
print(f"{'seed':>4} {'sdp bound':>10} {'optimum':>10} {'sdr':>10} "
      f"{'squid':>10} {'zfq':>10} {'mrtq':>10}")

for seed in range(8):
    h = gen_rayleigh_channel(cfg.num_ues, cfg.num_bs_antennas, seed=seed)
    frame = SymbolFrame.random(qpsk, cfg.num_ues, cfg.num_slots, seed=100 + seed)

    def objective_of(result):
        return qp_objective(frame.s, h, result.x, result.beta, cfg.noise_var)

    _, _, best = brute_force_qp(frame.s, h, cfg)
    hbar, sbar = vectorize_system(h.h_real, stack_real(frame.s))
    sol = solve_sdp(
        assemble_T(hbar, sbar, cfg.num_ues, cfg.noise_var, cfg.transmit_power),
        tol=1e-8, max_iters=20000,
    )
    row = [
        sol.objective,
        best,
        objective_of(extract_rank_one(sol, frame.s, h, cfg)),
        objective_of(squid_precode(frame.s, h, cfg)),
        objective_of(linear_quantized_precode(frame.s, h, cfg, kind="zf")),
        objective_of(linear_quantized_precode(frame.s, h, cfg, kind="mrt")),
    ]
    print(f"{seed:>4} " + " ".join(f"{v:10.4f}" for v in row))

print("\nThe SDP value lower-bounds the optimum; every heuristic sits at or "
      "above it.")
