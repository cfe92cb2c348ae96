"""The 540 seeded results of ``fingerprint`` keep their portable digests.

A change that moves any bit error, bit count, clamp or non-convergence of
these cases fails here; one that moves only objectives shows in the exact
digests that ``python tests/fingerprint.py`` prints. The 90 ``sdr``
results take several seconds, so they have their own slow test.
"""

import pytest

import fingerprint

QUICK_PORTABLE = "41db5c8107d9ca636b19c035aedf990c60f4559184af4848e545049e30a09c69"
SDR_PORTABLE = "84420d2ad313d22f439656d0f566648214f25b65c085a12affe8cec2d36318d1"


def test_cases_cover_every_result():
    quick, sdr = (list(fingerprint.cases(g)) for g in (fingerprint.QUICK, fingerprint.SDR))
    assert (len(quick), len(sdr)) == (450, 90)
    assert len({label for label, _, _ in quick + sdr}) == 540


def test_quick_cases_match_pinned_digest():
    assert fingerprint.digests(fingerprint.QUICK).portable == QUICK_PORTABLE


@pytest.mark.slow
def test_sdr_cases_match_pinned_digest():
    assert fingerprint.digests(fingerprint.SDR).portable == SDR_PORTABLE
