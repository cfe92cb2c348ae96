"""1-bit DAC precoding for the massive MU-MIMO downlink.

Library layout:

- :mod:`onebit_mimo.model` - system configuration, channel/noise generation,
  real embedding, vectorization, the shared frame-MSE objective
- :mod:`onebit_mimo.constellations` - Gray-labeled constellation tables,
  modulation, minimum-distance detection
- :mod:`onebit_mimo.linear` - ZF/MRT matrices, the 1-bit quantizer and the
  linear-quantized baseline
- :mod:`onebit_mimo.squid` - squared-infinity-norm convex relaxation solved
  by accelerated proximal gradient
- :mod:`onebit_mimo.sdr` - semidefinite relaxation with a built-in ADMM
  solver and rank-one extraction
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
    one_bit_quantize,
    zf_matrix,
)
from .model import (
    ChannelMatrix,
    PrecodeResult,
    SymbolFrame,
    SystemConfig,
    apply_channel,
    gen_awgn,
    gen_rayleigh_channel,
    optimal_beta_for,
    qp_objective,
    real_embed,
    stack_real,
    unstack_real,
    unvec,
    vec,
    vectorize_system,
)
from .sdr import (
    SdpProblem,
    SdpSolution,
    SdrOptions,
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
    SquidOptions,
    SquidResult,
    estimate_gradient_lipschitz,
    prox_sq_inf,
    squid_precode,
    squid_relax,
)

__version__ = "0.1.0"
