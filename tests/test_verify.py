"""Check-level pins: the `detail` strings of `run_checks`, and the slow large-prime tier."""

import json
import os

import pytest

from pblock.verify import run_checks

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference", "verify.json")


@pytest.mark.parametrize("p", [5, 7])
def test_check_details_match_the_reference(p):
    with open(REFERENCE) as fh:
        expected = json.load(fh)[str(p)]
    report = run_checks(p)
    assert report.all_passed
    assert {c.name: c.detail for c in report.checks} == expected


@pytest.mark.slow
def test_every_check_passes_at_29_then_31():
    # One process, as a sweep runs them: the second prime must not see the first's state.
    for p in (29, 31):
        failed = [(c.name, c.counterexample, c.detail) for c in run_checks(p).checks
                  if not c.passed]
        assert not failed, (p, failed)
