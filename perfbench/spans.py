"""In-memory span tracer that times calls into the library from outside it.

``traced`` swaps module attributes of ``onebit_mimo`` for timing wrappers
and restores them on exit, so the library itself runs unmodified and a
``sweep`` called inside the block is traced as it stands. A span keeps its
name, the trial it belongs to (the identifier all spans of one trial
share), the span that caused it, its start and end, and counts read off
the call's result. Every other wrapped call happens inside ``run_trial``,
so a span opened with no span open is a trial span and starts a trial.

Span names are ``<module>.<call>``; the module prefix is the layer the time
is charged to. ``draw_trial_data`` lives in ``sim`` but only calls the
``model`` generators, so it is charged to ``model``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from onebit_mimo import linear, sdr, sim, squid


@dataclass
class Span:
    name: str
    trial: int
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans; one instance per traced sweep."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._trials = 0

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        if parent < 0:
            trial = self._trials
            self._trials += 1
        else:
            trial = self.spans[parent].trial
        span = Span(name, trial, parent, 0.0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, count=None):
        def traced_call(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counts = count(result, args)
            return result
        return traced_call


def _trial_counts(result, args):
    # a trial that raises keeps no counts; sweep counts it in ``failures``
    return {"precoder": args[0].precoder, "result": result}


def _frame_counts(result, args):
    # kept until the traced sweep ends and checked then, outside every span
    return {"frame": result.x, "system": args[2]}


def _solver_counts(result, args):
    return {"iterations": result.iterations, "converged": result.converged}


def _clamp_counts(result, args):
    return {"clamped": result.clamped}


#: (module, attribute, span name, count function)
SITES = (
    (sim, "run_trial", "sim.trial", _trial_counts),
    (sim, "draw_trial_data", "model.draw", None),
    (sim, "apply_channel", "model.apply", None),
    (sim, "qp_objective", "model.objective", None),
    (linear, "optimal_beta_for", "model.objective", None),
    (squid, "optimal_beta_for", "model.objective", None),
    (sdr, "optimal_beta_for", "model.objective", None),
    (sim, "detect", "constellations.detect", None),
    (sim, "linear_quantized_precode", "linear.precode", _frame_counts),
    (linear, "zf_matrix", "linear.zf", None),
    (sim, "genie_estimate", "gain_estimation.estimate", _clamp_counts),
    (sim, "pilot_mle", "gain_estimation.estimate", _clamp_counts),
    (sim, "blind_estimate", "gain_estimation.estimate", _clamp_counts),
    (sim, "squid_precode", "squid.precode", _frame_counts),
    (squid, "squid_relax", "squid.relax", _solver_counts),
    (squid, "estimate_gradient_lipschitz", "squid.lipschitz", None),
    (sim, "sdr_precode", "sdr.precode", _frame_counts),
    (sdr, "solve_sdp", "sdr.solve", _solver_counts),
    (sdr, "extract_rank_one", "sdr.extract", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Route the calls in ``SITES`` through ``tracer`` inside the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in SITES]
    try:
        for module, attr, name, count in SITES:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def infeasible_frames(spans) -> int:
    """Count precoder outputs outside {+-l +-jl} or off per-slot power P.

    Drops each checked frame from its span so the spans stay small.
    """
    bad = 0
    for span in spans:
        x = span.counts.pop("frame", None)
        if x is None:
            continue
        system = span.counts.pop("system")
        level = system.quant_level
        on_grid = (np.allclose(np.abs(x.real), level, rtol=1e-12, atol=0)
                   and np.allclose(np.abs(x.imag), level, rtol=1e-12, atol=0))
        power = np.sum(np.abs(x) ** 2, axis=0)
        bad += not (on_grid and x.shape[0] == system.num_bs_antennas and
                    np.allclose(power, system.transmit_power, rtol=1e-9, atol=0))
    return bad
