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
    mrt_matrix,
    optimal_beta_for,
    qp_objective,
    real_embed,
    solve_sdp,
    squid_precode,
    stack_real,
    zf_matrix,
)

snr_db = 10.0
cfg = SystemConfig.from_snr_db(num_bs_antennas=3, num_ues=2, num_slots=2,
                               snr_db=snr_db)
qpsk = get_constellation("qpsk")

print(f"B={cfg.num_bs_antennas}, U={cfg.num_ues}, K={cfg.num_slots}, "
      f"snr={snr_db:.0f} dB, search space 4^(BK)={4 ** 6} frames")
print(f"{'seed':>4} {'sdp bound':>10} {'optimum':>10} {'sdr':>10} "
      f"{'squid':>10} {'zfq':>10} {'mrtq':>10}")

for seed in range(8):
    h = gen_rayleigh_channel(cfg.num_ues, cfg.num_bs_antennas, seed=seed)
    frame = SymbolFrame.random(qpsk, cfg.num_ues, cfg.num_slots, seed=100 + seed)

    def objective_of(result):
        beta = optimal_beta_for(frame.s, h @ result.x, cfg.noise_var)
        return qp_objective(frame.s, h, result.x, beta, cfg.noise_var)

    sol = solve_sdp(
        assemble_T(real_embed(h), stack_real(frame.s), cfg.num_ues,
                   cfg.noise_var, cfg.transmit_power),
        tol=1e-8, max_iters=20000,
    )
    row = [
        sol.objective,
        objective_of(brute_force_qp(frame.s, h, cfg)),
        objective_of(extract_rank_one(sol, cfg)),
        objective_of(squid_precode(frame.s, h, cfg)),
        objective_of(linear_quantized_precode(frame.s, h, cfg, zf_matrix)),
        objective_of(linear_quantized_precode(frame.s, h, cfg, mrt_matrix)),
    ]
    print(f"{seed:>4} " + " ".join(f"{v:10.4f}" for v in row))

print("\nThe SDP value lower-bounds the optimum; every heuristic sits at or "
      "above it.")
