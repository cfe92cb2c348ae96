"""1-bit DAC precoding for the massive MU-MIMO downlink.

Library layout:

- :mod:`onebit_mimo.model` - system configuration, channel/noise generation,
  real embedding, vec/unvec, 1-bit rounding, the shared frame-MSE objective,
  the result types of the precoders and of their relaxation solvers
- :mod:`onebit_mimo.constellations` - Gray-labeled constellation tables,
  modulation, minimum-distance detection
- :mod:`onebit_mimo.linear` - ZF/MRT matrices and the linear-quantized
  baseline
- :mod:`onebit_mimo.squid` - squared-infinity-norm convex relaxation solved
  by Douglas-Rachford splitting with a certified-gap stop
- :mod:`onebit_mimo.sdr` - semidefinite relaxation: the K-slot lift, a
  built-in ADMM solver and rank-one extraction
- :mod:`onebit_mimo.gain_estimation` - genie / pilot / blind estimation of
  the precoding factor at all UEs at once
- :mod:`onebit_mimo.sim` - the precoder registry, Monte-Carlo BER sweeps,
  exhaustive oracle, CSV
"""

from .constellations import (
    CONSTELLATION_IDS,
    Constellation,
    detect,
    get_constellation,
    modulate,
)
from .gain_estimation import (
    FactorEstimate,
    blind_estimate,
    genie_estimate,
    pilot_mle,
)
from .linear import (
    linear_quantized_precode,
    mrt_matrix,
    zf_matrix,
)
from .model import (
    ChannelMatrix,
    PrecodeResult,
    SolverResult,
    SymbolFrame,
    SystemConfig,
    apply_channel,
    gen_awgn,
    gen_rayleigh_channel,
    one_bit_quantize,
    optimal_beta_for,
    qp_objective,
    real_embed,
    stack_real,
    unstack_real,
    unvec,
    vec,
)
from .sdr import (
    SdpProblem,
    assemble_T,
    extract_rank_one,
    project_psd,
    sdr_precode,
    solve_sdp,
)
from .sim import (
    BerRecord,
    ESTIMATOR_IDS,
    PRECODER_IDS,
    PRECODERS,
    SweepConfig,
    TrialConfig,
    TrialResult,
    brute_force_qp,
    records_to_csv,
    run_trial,
    sweep,
    trial_seed_for,
)
from .squid import (
    estimate_gradient_lipschitz,
    prox_sq_inf,
    squid_precode,
    squid_relax,
)

__version__ = "0.1.0"
