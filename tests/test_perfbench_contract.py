"""What the benchmark's span tracer needs from the library.

``perfbench/spans.py`` times a sweep by rebinding module attributes of
``onebit_mimo``. That only works while those attributes exist and ``sim``
looks them up at call time; otherwise spans silently vanish and the frame
check inspects nothing. ``perfbench/run.py``'s microbenchmarks call the
library directly. Both are loaded from their files, unchanged.
"""

import importlib.util
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from onebit_mimo import SweepConfig, SystemConfig, real_embed, sweep
from onebit_mimo.sim import draw_trial_data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PRECODERS = ("zfq", "mrtq", "squid", "sdr")


@contextmanager
def _loaded(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def spans():
    with _loaded("spans") as module:
        yield module


@pytest.mark.parametrize("estimator", ("genie", "pilot", "blind"))
def test_traced_sweep_sees_every_layer(spans, estimator):
    tracer = spans.Tracer()
    with spans.traced(tracer):
        records = sweep(SweepConfig(
            num_bs_antennas=4, num_ues=2, num_slots=3, snr_db=(6.0,),
            constellation="16qam", precoders=PRECODERS, estimator=estimator,
            trials=1, seed=3))
    assert all(r.failures == 0 for r in records)

    seen = {s.name for s in tracer.spans}
    wanted = {name for _, _, name, _ in spans.SITES
              if name.split(".")[0] in ("linear", "squid", "sdr",
                                        "gain_estimation")}
    assert wanted <= seen

    framed = {s.name for s in tracer.spans if "frame" in s.counts}
    assert framed == {"linear.precode", "squid.precode", "sdr.precode"}
    per_precoder = [s.counts["precoder"] for s in tracer.spans
                    if s.name == "sim.trial"]
    assert sorted(per_precoder) == sorted(PRECODERS)
    assert spans.infeasible_frames(tracer.spans) == 0

    clamps = [s.counts["clamped"] for s in tracer.spans
              if s.name == "gain_estimation.estimate"]
    assert len(clamps) == len(PRECODERS)  # one estimator call per trial
    assert all(type(c) is int for c in clamps)


def test_each_trial_span_holds_exactly_one_draw(spans):
    # the tracer starts a trial at every span opened with none open, so a
    # draw made outside run_trial would count as a trial of its own
    tracer = spans.Tracer()
    with spans.traced(tracer):
        sweep(SweepConfig(
            num_bs_antennas=4, num_ues=2, num_slots=3, snr_db=(0.0, 6.0),
            constellation="qpsk", precoders=PRECODERS, estimator="blind",
            trials=3, seed=5))
    trial_spans = {i for i, s in enumerate(tracer.spans) if s.name == "sim.trial"}
    draws = [s for s in tracer.spans if s.name == "model.draw"]
    assert len(trial_spans) == 2 * 3 * len(PRECODERS)
    assert all(s.parent in trial_spans for s in draws)
    assert sorted(s.parent for s in draws) == sorted(trial_spans)


def test_drawn_channel_keeps_its_real_embedding():
    system = SystemConfig.from_snr_db(8, 3, 2, snr_db=0.0)
    h, _, _ = draw_trial_data(system, "qpsk", 2, np.random.SeedSequence(1))
    assert h.h_real.shape == (6, 16)
    assert h.h_real.tobytes() == real_embed(h.h).tobytes()


def test_microbenchmarks_run_on_the_library():
    # they read the draw's h_real, assemble_T's dim, solve_sdp and prox_sq_inf
    with _loaded("run") as run:
        metrics = run.microbenchmarks(seed=7)
    assert sorted(metrics) == ["sdr.gflop_per_s_dim257", "sdr.ms_per_iter_dim257",
                               "squid.prox_melem_per_s", "squid.prox_us"]
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
