"""Check-level pins: the `detail` strings of `run_checks`, and the slow large-prime tier."""

import importlib
import inspect
import json
import os
import textwrap
import tracemalloc

import pytest

import pblock as pb
from pblock import abacus, blocks, partitions, verify
from pblock.verify import run_checks

mullineux_module = importlib.import_module("pblock.mullineux")  # pblock.mullineux is also the function

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference", "verify.json")


@pytest.mark.parametrize("p", [5, 7, 11])
def test_check_details_match_the_reference(p):
    with open(REFERENCE) as fh:
        expected = json.load(fh)[str(p)]
    report = run_checks(p)
    assert report.all_passed
    assert {c.name: c.detail for c in report.checks} == expected


@pytest.mark.slow
def test_every_check_passes_at_29_31_then_37():
    # One process, as a sweep runs them: a later prime must not see an earlier one's state.
    for p in (29, 31, 37):
        failed = [(c.name, c.counterexample, c.detail) for c in run_checks(p).checks
                  if not c.passed]
        assert not failed, (p, failed)


@pytest.fixture
def fresh_table():
    """Build the principal-block table under the test's patches, and drop it afterwards."""
    verify._principal_table.cache_clear()
    yield
    verify._principal_table.cache_clear()


@pytest.mark.parametrize("p", [5, 7, 11])
def test_the_table_holds_each_partition_once(p):
    # A Mullineux image is the regular member that equals it, not a second tuple.
    table = verify._principal_table(p)
    members = {id(la) for la in table.members}
    assert all(id(image) in members for image in table.images.values())


def test_mullineux_conformance_fails_on_an_image_outside_the_block(monkeypatch, fresh_table):
    # The target lies above its true image, so the check meets it first.
    target = tuple(verify._principal_table(5).images)[2]
    verify._principal_table.cache_clear()
    real = verify._mullineux
    monkeypatch.setattr(verify, "_mullineux", lambda la, p: (16,) if la == target else real(la, p))
    assert _failure("mullineux-conformance") == (pb.format_partition(target),
                                                 "not an involution on the block")
    assert verify._principal_table(5).images[target] == (16,)


def test_mullineux_conformance_fails_when_good_nodes_drop_the_top_one(monkeypatch):
    # Four members at p = 7 have three good nodes, two Mullineux pairs; the first is named.
    real = partitions.good_nodes

    def mutant(la, p):
        goods = real(la, p)
        return goods[1:] if len(goods) >= 3 else goods

    monkeypatch.setattr(mullineux_module, "good_nodes", mutant)
    assert _failure("mullineux-conformance", 7) == ("7,6,5,2,1",
                                                    "good nodes do not pair off with negated residues")


@pytest.mark.parametrize("p", [5, 7])
def test_mullineux_conformance_fails_when_the_pair_kernel_flips_wrongly(monkeypatch, fresh_table, p):
    # Flip rims of p cells but not of 2p: the table is built first, so only the kernel sees it.
    verify._principal_table(p)
    monkeypatch.setattr(mullineux_module, "_flipped", lambda sizes, rows, q: (
        sizes, tuple(a - r + (a != q) for a, r in zip(sizes, rows))))
    assert _failure("mullineux-conformance", p) == (f"{2 * p},{p}",
                                                    "good nodes do not pair off with negated residues")


@pytest.mark.parametrize("name", ["prop31", "loewy-partition"])
def test_block_walking_checks_keep_no_per_member_side_table(name):
    # With the table warm at p = 23, a flag dict per member (prop31) peaks at 1.6 MB and
    # a set per Loewy class at 345 KB; streaming over the table stays near 100 KB.
    verify._principal_table(23)
    tracemalloc.start()
    try:
        verify.CHECKS[name](23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("p", [5, 7])
def test_a_member_joining_the_regular_restricted_set_fails_both_sweeps(monkeypatch, fresh_table, p):
    # Two regular hooks read as restricted: no clause (1)-(3) decodes either one, and
    # both keep their length-2 family, so each sweep names the lesser hook.
    joined = {pb.from_3p(pb.BeadNotation(3, (i,)), p) for i in (2, 3)}
    assert all(pb.is_p_regular(la, p) and not pb.is_p_restricted(la, p) for la in joined)
    real = verify.is_p_restricted

    def patched(la, q):
        return la in joined or real(la, q)

    monkeypatch.setattr(verify, "is_p_restricted", patched)
    monkeypatch.setattr(blocks, "is_p_restricted", patched)
    least = pb.format_partition(min(joined))
    assert _failure("prop31", p) == (least, "regular&restricted set differs from the three families")
    assert _failure("loewy-partition", p) == (least, "length-4 class is not the regular&restricted set")


@pytest.mark.parametrize("p", [5, 7])
def test_loewy_partition_fails_when_a_member_leaves_the_regular_restricted_set(
        monkeypatch, fresh_table, p):
    target = verify._principal_table(p).both[3]
    verify._principal_table.cache_clear()
    real = verify.is_p_restricted
    monkeypatch.setattr(verify, "is_p_restricted", lambda la, q: la != target and real(la, q))
    assert _failure("loewy-partition", p) == (pb.format_partition(target),
                                              "length-4 class is not the regular&restricted set")


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


@pytest.mark.parametrize("p", [5, 7])
def test_loewy_partition_fails_when_the_family_rule_is_off(monkeypatch, p):
    # The mutant moves <1> out of the single-bead family and puts <p,1> in.
    real = blocks._loewy2_family

    def mutant(runners, q):
        if runners == (1,):
            return None
        return "single-bead" if runners == (q, 1) else real(runners, q)

    monkeypatch.setattr(blocks, "_loewy2_family", mutant)
    counterexample, detail = _failure("loewy-partition", p)
    assert detail == "length-2 class differs from its families"
    assert counterexample in {pb.format_partition(pb.from_3p(pb.BeadNotation(3, runners), p))
                              for runners in ((1,), (p, 1))}


def test_loewy_partition_fails_when_a_family_is_misnamed(monkeypatch):
    real = blocks._loewy2_family
    monkeypatch.setattr(blocks, "_loewy2_family", lambda runners, p: (
        "single-bead" if runners == (5, 4) else real(runners, p)))
    assert _failure("loewy-partition") == (
        pb.format_partition(pb.from_3p(pb.BeadNotation(3, (5, 4)), 5)),
        "length-2 clause does not name the 'exceptional' family")


def test_loewy_partition_names_the_least_partition_missing_from_the_length_1_class(monkeypatch):
    # An empty length-1 class is a failed check, not an IndexError out of run_checks.
    real = blocks.loewy_length_detail
    extreme = {(15,), (1,) * 15}
    monkeypatch.setattr(blocks, "loewy_length_detail", lambda la, p: (
        (3, "patched") if la in extreme else real(la, p)))
    assert _failure("loewy-partition") == (pb.format_partition((1,) * 15),
                                           "length-1 class is not the extreme pair")


def _shifted_core_test():
    """``_is_jm_fayers`` with its weight-0 test reading the bead p - 1 positions below each hole."""
    source = textwrap.dedent(inspect.getsource(abacus._is_jm_fayers))
    assert source.count("mask >> p & ~mask") == 1
    namespace = dict(vars(abacus))  # the mutant's recursion calls the mutant
    exec(source.replace("mask >> p & ~mask", "mask >> p - 1 & ~mask"), namespace)
    return namespace["_is_jm_fayers"]


@pytest.mark.parametrize("p", [5, 23])
def test_oracle_equivalence_fails_when_the_core_test_shifts_by_p_minus_1(monkeypatch, p):
    monkeypatch.setattr(verify, "_is_jm_fayers", _shifted_core_test())
    assert _failure("oracle-equivalence", p)[1] == "power-diagram and quotient tests disagree"


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
    target = tuple(verify._principal_table(5).images)[3]
    real = verify._theta
    monkeypatch.setattr(verify, "_theta", lambda la, p, i: (
        (1,) * 14 if la == target else real(la, p, i)))
    (check,) = run_checks(5, ["theta-table"]).checks
    assert not check.passed
    assert check.counterexample == pb.format_partition(target)
    assert check.detail.startswith("regularity flips under restriction to B_")


def _failure(check_name, p=5):
    (check,) = run_checks(p, [check_name]).checks
    assert not check.passed
    return check.counterexample, check.detail


@pytest.mark.parametrize("runners, rule", [
    ((1, 2), "two-index regular&restricted"),
    ((4, 4, 2), "repeated-index"),
    ((2, 2, 5), "repeated-index"),  # j > i: printed as written, not as the sorted <5,2,2>
    ((4, 2, 1), "distinct-index"),
])
def test_prop31_names_the_placement_and_clause_it_contradicts(monkeypatch, runners, rule):
    # Flip both flags of one placement: it leaves or joins the regular&restricted set.
    target = pb.from_3p(pb.BeadNotation(3, runners), 5)
    real = verify.classify_3p

    def flipped(la, p):
        flags = real(la, p)
        if la == target:
            both = flags["p_regular"] and flags["p_restricted"]
            flags = {**flags, "p_regular": not both, "p_restricted": not both}
        return flags

    monkeypatch.setattr(verify, "classify_3p", flipped)
    assert _failure("prop31") == (pb.format_partition(target),
                                  f"<{','.join(map(str, runners))}> contradicts the {rule} rule")


@pytest.mark.parametrize("runners", [(2, 5), (3, 1), (3, 2), (5, 2)])
def test_prop212_names_the_placement_of_each_family(monkeypatch, runners):
    # One placement from each of families (1)-(4) gets one normal node too many.
    target = pb.from_3p(pb.BeadNotation(3, runners), 5)
    real = verify.tau_p
    monkeypatch.setattr(verify, "tau_p", lambda la, p: real(la, p) + (la == target))
    assert _failure("prop212") == (pb.format_partition(target),
                                   f"<{runners[0]},{runners[1]}> node counts differ")


@pytest.mark.parametrize("runners, s, image", [((4, 1), 5, "<7,4>"), ((5, 2), 6, "<7,4>")])
def test_theta_table_names_the_placement_and_block_of_each_table(monkeypatch, runners, s, image):
    target = pb.from_3p(pb.BeadNotation(3, runners), 7)
    real = verify.theta
    monkeypatch.setattr(verify, "theta", lambda la, p, i: (
        (1,) * 20 if (la, i) == (target, s) else real(la, p, i)))
    assert _failure("theta-table", 7) == (
        pb.format_partition(target),
        f"restriction of <{runners[0]},{runners[1]}> to B_{s} is not {image}")


@pytest.mark.parametrize("i, dropped", [(3, "<3,2>"), (5, "<4,4>")])
def test_xi_sets_names_a_dropped_placement(monkeypatch, i, dropped):
    real = verify.irreducible_set_X
    monkeypatch.setattr(verify, "irreducible_set_X", lambda p, k: tuple(
        nota for nota in real(p, k) if (k, str(nota)) != (i, dropped)))
    assert _failure("xi-sets") == (f"B_{i}: {dropped}",
                                   f"irreducible set of B_{i} differs from the classified list")


@pytest.mark.parametrize("names", [None, ["oracle-equivalence"], ["xi-sets", "prop31"]])
def test_run_checks_applies_the_block_rule_before_any_check(monkeypatch, names):
    ran = []
    for name in verify.CHECKS:
        monkeypatch.setitem(verify.CHECKS, name, ran.append)
    for p in (3, 9, 5.0):
        with pytest.raises(ValueError, match=f"p must be a prime at least 5, got {p}"):
            run_checks(p, names)
    assert ran == []


def test_a_check_that_crashes_still_gets_a_verdict(monkeypatch, fresh_table):
    # Without the + 1, a flipped symbol names no partition, so rebuilding an image raises.
    monkeypatch.setattr(mullineux_module, "_flipped", lambda sizes, rows, p: (
        sizes, tuple([a - r for a, r in zip(sizes, rows)])))
    checks = run_checks(5).checks
    assert [c.name for c in checks] == sorted(verify.CHECKS)
    assert {c.name for c in checks if c.passed} == {"oracle-equivalence", "xi-sets"}
    for check in checks:
        if not check.passed:
            assert check.counterexample is None, check
            assert check.detail.startswith("ValueError: no unique p-rim addition for"), check


def test_prop31_fails_when_the_neither_class_is_empty(monkeypatch):
    # Marking the <i,i> hooks regular empties the neither-regular-nor-restricted set;
    # the least <i,i> hook is named, not an IndexError out of run_checks.
    family = {pb.from_3p(pb.BeadNotation(3, (i, i)), 5) for i in range(1, 6)}
    real = verify.classify_3p
    monkeypatch.setattr(verify, "classify_3p", lambda la, p: (
        {**real(la, p), "p_regular": True} if la in family else real(la, p)))
    assert _failure("prop31") == (pb.format_partition(min(family)),
                                  "neither-regular-nor-restricted set is not the <i,i> family")
