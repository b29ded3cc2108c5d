"""Check-level pins: the `detail` strings of `run_checks`, and the slow large-prime tier."""

import json
import os

import pytest

import pblock as pb
from pblock import verify
from pblock.verify import run_checks

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference", "verify.json")


@pytest.mark.parametrize("p", [5, 7, 11])
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


def test_partner_counts_fails_on_a_partner_outside_the_block(monkeypatch):
    # The check, not a filter in the partner search, catches a partner that leaves the block.
    real = verify._partners
    target = pb.enumerate_block(pb.restriction_block(5, 2))[3]

    def leaky(la_tilde, p, i):
        found = real(la_tilde, p, i)
        return found[:-1] + ((1,),) if la_tilde == target else found

    monkeypatch.setattr(verify, "_partners", leaky)
    (check,) = run_checks(5, ["partner-counts"]).checks
    assert not check.passed
    assert check.counterexample == pb.format_partition(target)
    assert check.detail == "a partner over B_2 lies outside the principal block"


@pytest.mark.parametrize("not_odd_prime", [2, 9, 5.0])
def test_oracle_equivalence_rejects_a_prime_the_oracles_do_not_cover(not_odd_prime):
    with pytest.raises(ValueError, match="needs an odd prime"):
        verify.check_oracle_equivalence(not_odd_prime)


def test_oracle_equivalence_fails_when_one_oracle_flips(monkeypatch):
    real = verify._is_jm_fayers
    target = (6, 4, 2, 2, 1, 1)
    monkeypatch.setattr(verify, "_is_jm_fayers",
                        lambda la, p: real(la, p) != (la == target))
    (check,) = run_checks(5, ["oracle-equivalence"]).checks
    assert not check.passed
    assert check.counterexample == pb.format_partition(target)
    assert check.detail == "power-diagram and quotient tests disagree"


def test_jm_classification_fails_when_a_third_partition_passes(monkeypatch):
    real = verify._is_jm_fayers
    extra = (3 * 5 - 1, 1)
    monkeypatch.setattr(verify, "_is_jm_fayers", lambda la, p: la == extra or real(la, p))
    (check,) = run_checks(5, ["jm-classification"]).checks
    assert not check.passed
    assert check.counterexample == pb.format_partition(extra)
    assert check.detail == "quotient test passes off the expected pair"


def test_lemma34_fails_when_the_weight_kernel_is_off(monkeypatch):
    # Every removal from the first regular&restricted member reads weight 3, so it has no witness.
    target = verify._principal_table(5).both[0]
    smaller = {pb.remove_node(target, node) for node in pb.removable_nodes(target)}
    real = verify._p_weight
    monkeypatch.setattr(verify, "_p_weight", lambda la, p: 3 if la in smaller else real(la, p))
    (check,) = run_checks(5, ["lemma34"]).checks
    assert not check.passed
    assert check.counterexample == pb.format_partition(target)
    assert check.detail == "no removable node keeps weight 2 plus regular&restricted"


def test_theta_table_fails_when_the_restriction_kernel_is_off(monkeypatch):
    # A singular image for one regular member flips regularity on its first normal runner.
    target = verify._principal_table(5).regular[3]
    real = verify._theta
    monkeypatch.setattr(verify, "_theta", lambda display, i: (
        (1,) * 14 if display.to_partition() == target else real(display, i)))
    (check,) = run_checks(5, ["theta-table"]).checks
    assert not check.passed
    assert check.counterexample == pb.format_partition(target)
    assert check.detail.startswith("regularity flips under restriction to B_")
