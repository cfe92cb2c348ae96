"""Regenerate ``reference.json``, the BER reference of the correctness gate.

Usage, from the root of a checkout (takes a few minutes):

    python3 perfbench/make_reference.py

Each workload is swept with ``REFERENCE_TRIALS`` trials per point at
``REFERENCE_SEED``, a seed kept apart from the ones benchmark runs use. Per
point it stores the BER and the standard deviation of the per-trial BER,
from which ``run.py`` derives its tolerance. Regenerate only when a change
is meant to move BERs, and say so in the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

REFERENCE_SEED = 1_000_003
REFERENCE_TRIALS = {"paper-squid": 300, "linear-pilot": 1500, "sdr-small": 60}


def main() -> int:
    run._load_library()
    from onebit_mimo.sim import SweepConfig
    from spans import Tracer

    reference = {}
    for name, workload in WORKLOADS.items():
        cfg = replace(SweepConfig(seed=REFERENCE_SEED, **workload.sweep),
                      trials=REFERENCE_TRIALS[name])
        tracer = Tracer()
        _, records = run.traced_sweep(cfg, tracer)
        # sweep runs each record's trials in turn, so they are its next spans
        trials = iter(run.trial_spans(tracer))
        points = {}
        for r in records:
            results = [next(trials).counts.get("result") for _ in range(r.trials)]
            points[f"{r.snr_db:g}/{r.precoder}"] = [
                x.bit_errors.sum() / x.bits_total for x in results if x is not None]
        reference[name] = {
            point: {"ber": statistics.fmean(bers), "trials": len(bers),
                    "trial_ber_std": statistics.stdev(bers)}
            for point, bers in points.items()}
        print(name, json.dumps(reference[name]), flush=True)
    reference["seed"] = REFERENCE_SEED
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
