"""Seeded results must not depend on the BLAS thread count or kernel.

Two child interpreters run the same paper-point sweep, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``=2``, and report a digest of the
CSV bytes, a few ``run_trial`` results and the thread count OpenBLAS says
it runs with. A BLAS upgrade whose kernels split work by thread count
would change the digests and fail here.

A third child forces OpenBLAS's generic kernel (``OPENBLAS_CORETYPE=Prescott``)
and runs acceptance criterion C1, the three CSV pins and the quick
fingerprint's pinned portable digest, without pytest to keep it short. C1
compares objectives exactly, so it fails if equal frames of different
memory layout price differently under that kernel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onebit_mimo

PROBE = r"""
import ctypes, json, sys
from pathlib import Path

import numpy as np


def blas_threads():
    # the OpenBLAS that numpy's wheel bundles; None for any other BLAS
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None
"""

CHILD = PROBE + r"""
import hashlib

from onebit_mimo.sim import SweepConfig, run_trial, sweep, trial_seed_for

cfg = SweepConfig(num_bs_antennas=128, num_ues=16, num_slots=10,
                  snr_db=(0.0, 8.0, 16.0), constellation="16qam",
                  precoders=("zfq", "mrtq", "squid"), estimator="blind",
                  trials=4, seed=4242, out=sys.argv[1])
sweep(cfg)
csv = hashlib.sha256(Path(cfg.out).read_bytes()).hexdigest()
trials = []
for point, snr_db in enumerate(cfg.snr_db):
    for precoder in cfg.precoders:
        res = run_trial(cfg.trial_config(snr_db, precoder),
                        trial_seed_for(cfg.seed, point, 5))
        trials.append([precoder, res.objective.hex(), res.bit_errors.tolist()])
json.dump({"threads": blas_threads(), "csv": csv, "trials": trials}, sys.stdout)
"""


KERNEL_CHILD = PROBE + r"""
if blas_threads() is None:
    json.dump(None, sys.stdout)
    sys.exit()
# as pytest.ini has it
import warnings
warnings.simplefilter("error")
sys.path.insert(0, sys.argv[1])
import test_acceptance
import test_csv_pin
import test_fingerprint

test_acceptance.test_c1_oracle_optimality(test_acceptance.small_instances.__wrapped__())
test_csv_pin.test_sweep_csv_matches_pinned_text()
test_csv_pin.test_paper_size_linear_sweep_matches_pinned_text()
test_csv_pin.test_paper_size_squid_sweep_matches_pinned_text()
test_fingerprint.test_quick_cases_match_pinned_digest()
json.dump("passed", sys.stdout)
"""


def _run(code: str, arg: str, **env_vars) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_vars)
    src = str(Path(onebit_mimo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, arg], env=env,
                          capture_output=True, text=True, timeout=300)


def _run_child(threads: int, out: Path) -> dict:
    done = _run(CHILD, str(out), OPENBLAS_NUM_THREADS=str(threads))
    done.check_returncode()
    return json.loads(done.stdout)


def test_results_do_not_depend_on_blas_threads(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its thread count at the usable cores")
    one, two = _run_child(1, tmp_path / "one.csv"), _run_child(2, tmp_path / "two.csv")
    if one["threads"] is None:
        pytest.skip("numpy does not bundle OpenBLAS here; its thread count is unreadable")
    # each child ran with the thread count it was given
    assert (one["threads"], two["threads"]) == (1, 2)
    assert one["csv"] == two["csv"]
    assert one["trials"] == two["trials"]


def test_results_do_not_depend_on_the_blas_kernel():
    done = _run(KERNEL_CHILD, str(Path(__file__).resolve().parent),
                OPENBLAS_CORETYPE="Prescott")
    assert done.returncode == 0, done.stdout + done.stderr
    # the acceptance module prints a report line before the verdict
    verdict = json.loads(done.stdout.splitlines()[-1])
    if verdict is None:
        pytest.skip("numpy does not bundle OpenBLAS here; its kernel cannot be forced")
    assert verdict == "passed"
