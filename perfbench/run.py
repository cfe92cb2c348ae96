"""Trial-throughput benchmark for seeded BER sweeps.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-squid --seed 7 --seconds 50 --trace 0

One run of a workload:

1. set-up: fresh interpreters import ``onebit_mimo`` from ``src/`` and build
   the workload's ``SweepConfig``; ``setup_s`` is their median;
2. warm-up: one trial per precoder at the first SNR point;
3. timed: untraced ``sweep`` calls of the whole workload, the call the CLI
   makes, repeated while another fits in ``--seconds`` (at least two); each
   end-to-end timing sums, over the SNR points and precoders, the best
   wall time each had in these passes, and the set-up probes of step 1 run
   between them, spread over ``--seconds``; with ``--trace 1`` a traced
   sweep follows each pass, for ``trace.overhead_frac``;
4. traced: one more ``sweep`` of the workload with every layer call,
   ``run_trial`` included, wrapped by a span (see ``spans.py``). It yields
   the frames, frame MSEs and per-layer timings.

The run fails (``correct`` false, exit status 1) unless the CSVs of all
timed and traced sweeps are byte-identical, every frame is a valid 1-bit
frame with per-slot power P, every BER lies within the stated tolerance of
``reference.json``, and on ``paper-squid`` SQUID beats ZF-quantized at
every SNR. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last stdout line is the JSON result either way.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

#: set-up probes per run; their median is ``setup_s``
SETUP_RUNS = 7
#: a point's BER may sit this many standard errors from the reference
BER_TOLERANCE_Z = 6.0

_SETUP_PROBE = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import onebit_mimo
from onebit_mimo.sim import SweepConfig
SweepConfig(**json.loads(sys.argv[2]))
print(time.perf_counter() - start)
"""


def _load_library():
    if not (SRC / "onebit_mimo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no onebit_mimo package under {SRC}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import onebit_mimo
    if SRC not in Path(onebit_mimo.__file__).resolve().parents:
        sys.exit(f"perfbench: imported onebit_mimo from {onebit_mimo.__file__}, "
                 f"not from {SRC}")


def setup_probe(sweep_kwargs: dict, seed: int) -> float:
    """Seconds a fresh interpreter takes to import and configure a sweep."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC),
         json.dumps({**sweep_kwargs, "seed": seed})],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_passes(cfg, seconds: float, probe, traced_too: bool) -> tuple:
    """Untraced sweeps of ``cfg``: two, then more while another fits.

    With ``traced_too``, a traced sweep follows each untraced one, so that
    both see the same stretches of machine speed; its spans are dropped.
    Between passes, outside the timed region, ``probe`` runs about every
    ``seconds / SETUP_RUNS``. Returns the untraced and the traced (wall,
    records) passes and the probe results.
    """
    from onebit_mimo.sim import sweep
    from spans import Tracer

    passes, traced_passes, probes = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = sweep(cfg)
        passes.append((time.perf_counter() - t0, records))
        if traced_too:
            traced_passes.append(traced_sweep(cfg, Tracer()))
        step = time.perf_counter() - t0
        if time.perf_counter() - start >= len(probes) * seconds / SETUP_RUNS:
            probes.append(probe())
        if len(passes) >= 2 and time.perf_counter() - start + step > seconds:
            return passes, traced_passes, probes


def traced_sweep(cfg, tracer) -> tuple:
    """``sweep(cfg)`` with its layer calls recorded by ``tracer``.

    Returns the wall seconds of the call and the records.
    """
    from onebit_mimo.sim import sweep
    from spans import traced

    with traced(tracer):
        t0 = time.perf_counter()
        records = sweep(cfg)
        return time.perf_counter() - t0, records


def trial_spans(tracer) -> list:
    return [s for s in tracer.spans if s.name == "sim.trial"]


def best_walls(passes) -> list:
    """Per record (SNR point and precoder), its least wall time over passes.

    A slow stretch of the machine that covers part of a pass then spoils
    only the records it covers, not the whole pass.
    """
    return [min(walls) for walls in zip(*(
        [r.wall_time for r in records] for _, records in passes))]


def _ms_per_trial(records, walls, precoder: str) -> float:
    own = [(r, w) for r, w in zip(records, walls) if r.precoder == precoder]
    return 1e3 * sum(w for _, w in own) / sum(r.trials for r, _ in own)


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def gate(workload, passes, traced_passes, infeasible: int) -> list:
    """Return the failed checks, empty when the run is correct."""
    from onebit_mimo.sim import records_to_csv

    failed = []
    csv = records_to_csv(passes[0][1])
    if any(records_to_csv(r) != csv for _, r in passes[1:]):
        failed.append("sweeps at one seed differ in CSV bytes")

    # the per-layer numbers must describe the program the timings measure
    if any(records_to_csv(r) != csv for _, r in traced_passes):
        failed.append("a traced sweep's CSV differs from the untraced one")
    if infeasible:
        failed.append(f"{infeasible} frames outside {{+-l +-jl}} or off power P")

    reference = json.loads(REFERENCE.read_text())[workload.name]
    for r in passes[0][1]:
        ref = reference[f"{r.snr_db:g}/{r.precoder}"]
        tol = BER_TOLERANCE_Z * ref["trial_ber_std"] * math.sqrt(
            1.0 / max(r.trials - r.failures, 1) + 1.0 / ref["trials"])
        if abs(r.ber - ref["ber"]) > tol:
            failed.append(f"BER {r.ber:.5g} at {r.snr_db:g} dB {r.precoder} is "
                          f"outside reference {ref['ber']:.5g} +- {tol:.3g}")

    if workload.headline:
        better, worse = workload.headline
        ber = {(r.snr_db, r.precoder): r.ber for r in passes[0][1]}
        for snr in sorted(set(s for s, _ in ber)):
            if not ber[(snr, better)] < ber[(snr, worse)]:
                failed.append(f"{better} BER {ber[(snr, better)]:.5g} is not below "
                              f"{worse} BER {ber[(snr, worse)]:.5g} at {snr:g} dB")
    return failed


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced sweep
# ---------------------------------------------------------------------------

LAYERS = ("model", "constellations", "linear", "squid", "sdr",
          "gain_estimation", "sim")


def layer_metrics(spans, lead: str, traced_wall: float, failures: int) -> dict:
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def per_trial_ms(name):
        """Span time per trial that makes the call at all."""
        found = by_name.get(name, [])
        trials = {s.trial for s in found}
        return sum(s.ms for s in found) / len(trials) if trials else 0.0

    def solver(name):
        calls = by_name.get(name, [])
        iters = [s.counts["iterations"] for s in calls]
        return {
            "ms_per_iter": sum(s.ms for s in calls) / sum(iters) if iters else 0.0,
            "p50": _percentile(iters, 50), "p95": _percentile(iters, 95),
            "converged": (sum(s.counts["converged"] for s in calls) / len(calls)
                          if calls else 0.0),
        }

    trials = by_name["sim.trial"]
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ms[span.parent] += span.ms
    self_ms = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        self_ms[span.layer] += span.ms - child_ms[i]
    # sweep's own loop (seed derivation, config checks, record keeping) runs
    # between the trial spans
    traced_ms = 1e3 * traced_wall
    self_ms["sim"] += traced_ms - sum(s.ms for s in trials)

    squid_s, sdr_s = solver("squid.relax"), solver("sdr.solve")
    m = {
        "model.draw_ms": per_trial_ms("model.draw"),
        "model.apply_ms": per_trial_ms("model.apply"),
        "model.objective_ms": per_trial_ms("model.objective"),
        "constellations.detect_ms": per_trial_ms("constellations.detect"),
        "linear.zf_ms": per_trial_ms("linear.zf"),
        "linear.precode_ms": per_trial_ms("linear.precode"),
        "gain_estimation.estimate_ms": per_trial_ms("gain_estimation.estimate"),
        "gain_estimation.clamps": sum(
            s.counts["clamped"] for s in by_name["gain_estimation.estimate"]),
        "sim.harness_ms": self_ms["sim"] / len(trials),
        "squid.precode_ms": per_trial_ms("squid.precode"),
        "squid.relax_ms": per_trial_ms("squid.relax"),
        "squid.lipschitz_ms": per_trial_ms("squid.lipschitz"),
        "squid.round_refine_ms": (per_trial_ms("squid.precode")
                                  - per_trial_ms("squid.relax")),
        "squid.ms_per_iter": squid_s["ms_per_iter"],
        "squid.iters_p50": squid_s["p50"],
        "squid.iters_p95": squid_s["p95"],
        "squid.converged_frac": squid_s["converged"],
        "sdr.precode_ms": per_trial_ms("sdr.precode"),
        "sdr.extract_ms": per_trial_ms("sdr.extract"),
        "sdr.ms_per_iter": sdr_s["ms_per_iter"],
        "sdr.admm_iters_p50": sdr_s["p50"],
        "sdr.admm_iters_p95": sdr_s["p95"],
        "sdr.converged_frac": sdr_s["converged"],
    }
    for label, precoder in (("zfq", "zfq"), ("lead", lead)):
        times = [s.ms for s in trials if s.counts.get("precoder") == precoder]
        m[f"sim.trial_ms_p50.{label}"] = _percentile(times, 50)
        m[f"sim.trial_ms_p95.{label}"] = _percentile(times, 95)
        m[f"sim.trial_samples.{label}"] = len(times)
    for layer in LAYERS:
        m[f"{layer}.share"] = self_ms[layer] / traced_ms
    m["sim.failures"] = failures
    return m


# ---------------------------------------------------------------------------
# Paper-size microbenchmarks
# ---------------------------------------------------------------------------

#: SQUID's prox at the paper point acts on the real embedding, n = 2BK
PROX_N = 2 * 128 * 10


def admm_flops(n: int) -> float:
    """Nominal flops of one ADMM iteration at dimension n, computed.

    9n^3 for a symmetric eigendecomposition with vectors (Golub & Van Loan)
    plus 2n^3 to rebuild V diag(max(w, 0)) V^T.
    """
    return 11.0 * n ** 3


def microbenchmarks(seed: int) -> dict:
    from onebit_mimo.model import SystemConfig, stack_real, vec
    from onebit_mimo.sdr import assemble_T, solve_sdp
    from onebit_mimo.sim import draw_trial_data
    from onebit_mimo.squid import prox_sq_inf

    # prox input at the scale SQUID sees at 8 dB: entries near l = 1/16 and
    # tau = gamma * penalty of about 14
    v = 0.06 * np.random.default_rng(seed).standard_normal(PROX_N)
    calls = 200
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            prox_sq_inf(v, 14.0)
        per_call.append((time.perf_counter() - t0) / calls)
    prox_us = 1e6 * statistics.median(per_call)

    # one slot of the paper point lifts to dimension 2B + 1 = 257
    system = SystemConfig.from_snr_db(128, 16, 1, snr_db=8.0)
    h, frame, _ = draw_trial_data(system, "16qam", 1, seed)
    problem = assemble_T(h.h_real, vec(stack_real(frame.s)), system.num_ues,
                         system.noise_var, system.transmit_power)
    per_iter = []
    for _ in range(3):
        t0 = time.perf_counter()
        sol = solve_sdp(problem, tol=1e-300, max_iters=20)
        per_iter.append((time.perf_counter() - t0) / sol.iterations)
    iter_s = statistics.median(per_iter)
    return {
        "squid.prox_us": prox_us,
        "squid.prox_melem_per_s": PROX_N / prox_us,
        "sdr.ms_per_iter_dim257": 1e3 * iter_s,
        "sdr.gflop_per_s_dim257": admm_flops(problem.dim) / iter_s / 1e9,
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return vendor, threads


def provenance(workload, seed: int, passes) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "onebit_mimo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    vendor, threads = _blas()
    return {
        "workload": workload.name, "seed": seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": vendor, "blas_threads": threads,
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
        "trials_per_point": workload.sweep["trials"],
        "trials_per_pass": sum(r.trials for r in passes[0][1]),
        "timed_passes": len(passes),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args, WORKLOADS[args.workload]


def _mean_frame_mse(trials, precoder: str) -> float:
    return statistics.fmean(s.counts["result"].objective for s in trials
                            if s.counts.get("precoder") == precoder)


def _span_row(span) -> list:
    counts = dict(span.counts)
    result = counts.pop("result", None)
    if result is not None:
        counts.update(bit_errors=int(result.bit_errors.sum()),
                      frame_mse=result.objective)
    return [span.name, span.trial, span.parent, span.start, span.end, counts]


def main(argv=None) -> int:
    args, workload = parse_args(argv)
    _load_library()
    from onebit_mimo.sim import SweepConfig, sweep
    from spans import Tracer, infeasible_frames

    cfg = SweepConfig(seed=args.seed, **workload.sweep)
    # set-up probes are spread over the run so that their median does not
    # hinge on how busy the machine was in one moment
    probe = partial(setup_probe, workload.sweep, args.seed)
    sweep(replace(cfg, snr_db=cfg.snr_db[:1], trials=1))
    passes, traced_passes, setup = timed_passes(cfg, args.seconds, probe,
                                                traced_too=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [probe() for _ in range(SETUP_RUNS - len(setup))]

    tracer = Tracer()
    traced_passes.append(traced_sweep(cfg, tracer))
    traced_wall = traced_passes[-1][0]
    trials = trial_spans(tracer)
    failed_checks = gate(workload, passes, traced_passes,
                         infeasible_frames(tracer.spans))

    walls = [wall for wall, _ in passes]
    best = best_walls(passes)
    all_records = [r for _, records in passes + traced_passes for r in records]
    trials_per_pass = len(trials)
    attempted = sum(r.trials for r in all_records)
    failures = sum(r.failures for r in all_records)
    end_to_end = {
        "trials_per_s": trials_per_pass / sum(best),
        "lead_ms_per_trial": _ms_per_trial(passes[0][1], best, workload.lead),
        "lead_frame_mse": _mean_frame_mse(trials, workload.lead),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }

    prov = provenance(workload, args.seed, passes)
    print("provenance " + json.dumps(prov))
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in walls)
          + "; traced " + " ".join(f"{w:.3f}" for w, _ in traced_passes))
    for precoder in cfg.precoders:
        ms = _ms_per_trial(passes[0][1], best, precoder)
        print(f"  {precoder}_ms_per_trial {ms:.6g} ms"
              f"  {precoder}_frame_mse {_mean_frame_mse(trials, precoder):.6g} Es")
    print(f"  failed_trial_frac {failures / attempted:.6g} ratio"
          f" ({failures} of {attempted} trials)")
    for check in failed_checks:
        print(f"FAILED: {check}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = layer_metrics(tracer.spans, workload.lead, traced_wall, failures)
        metrics["trace.overhead_frac"] = (
            sum(best_walls(traced_passes)) / sum(best) - 1.0)
        metrics.update(microbenchmarks(args.seed))
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{workload.name}-seed{args.seed}.json").write_text(json.dumps(
            {"provenance": prov, "spans": [_span_row(s) for s in tracer.spans]}))
    else:
        metrics = end_to_end
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")

    correct = not failed_checks
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failures if correct else attempted,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
