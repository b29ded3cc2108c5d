"""Acceptance suite: every criterion at its stated scope, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Time budgets are asserted where stated.
"""

import random
import time
from contextlib import contextmanager

import pblock as pb
from pblock.abacus import AbacusDisplay
from pblock.blocks import BeadNotation
from pblock.mullineux import rim_hook_leg_sum
from pblock.verify import run_checks
from conftest import all_partitions_up_to


def N3(*runners):
    return BeadNotation(3, runners)


@contextmanager
def criterion(number, title, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL [{time.monotonic() - start:.1f}s]")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number:2d} ({title}): PASS [{elapsed:.1f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def run_named_checks(primes, names):
    for p in primes:
        report = run_checks(p, names)
        for check in report.checks:
            assert check.passed, (
                f"p={p} {check.name}: {check.detail}; counterexample {check.counterexample}")


def test_criterion_01_irreducibility_classification():
    with criterion(1, "irreducible Spechts in the principal block", budget=10):
        for p in (5, 7, 11):
            block = pb.enumerate_block(pb.principal_block(p))
            passing = {la for la in block if pb.is_jm_fayers(la, p)}
            assert passing == {(3 * p,), (1,) * (3 * p)}, p


def test_criterion_02_dual_oracle_equivalence():
    with criterion(2, "diagram test == quotient test, n <= 28", budget=60):
        for p in (5, 7, 11):
            for la in all_partitions_up_to(28):
                assert pb.is_jm_direct(la, p) == pb.is_jm_fayers(la, p), (la, p)


def test_criterion_03_irreducible_sets_of_defect2_blocks():
    with criterion(3, "irreducible sets of B_i"):
        run_named_checks((5, 7), ["xi-sets"])


def test_criterion_04_mullineux_conformance():
    with criterion(4, "Mullineux symbols and images"):
        for p in (5, 7, 11):
            la = pb.from_3p(N3(p, p - 1, p - 3), p)
            assert pb.mullineux_symbol(la, p) == pb.MullineuxSymbol((p + 1, p, p - 1), (4, 3, 3))
            expected = pb.from_3p(N3(3, 5), 5) if p == 5 else pb.from_3p(N3(6, 5, 3), p)
            assert pb.mullineux(la, p) == expected
        assert pb.mullineux_symbol((8, 6, 1), 5) == pb.MullineuxSymbol((6, 5, 4), (3, 2, 2))
        assert pb.mullineux((5, 4, 3, 2, 1), 5) == (7, 5, 2, 1)
        second = {(8, 6, 1), (6, 6, 1, 1, 1), (6, 4, 2, 2, 1),
                  (5, 5, 5), (5, 5, 3, 1, 1), (5, 4, 4, 2)}
        third = {(5, 5, 4, 1), (7, 4, 2, 2), (6, 5, 2, 1, 1),
                 (9, 6), (8, 5, 2), (7, 6, 1, 1)}
        assert {pb.mullineux(la, 5) for la in second} == third


def test_criterion_05_involution_and_parity():
    with criterion(5, "involution and parity sweeps", budget=60):
        for p in (5, 7, 11):
            # Each image is computed once; the involution is read back from the map.
            images = {la: pb.mullineux(la, p)
                      for la in all_partitions_up_to(25) if pb.is_p_regular(la, p)}
            for la, image in images.items():
                assert sum(image) == sum(la) and pb.is_p_regular(image, p)
                assert images[image] == la, (la, p)
        for p in (5, 7):
            for la in pb.enumerate_block(pb.principal_block(p)):
                if pb.is_p_regular(la, p):
                    assert pb.parity(pb.mullineux(la, p), p) != pb.parity(la, p), (la, p)
        for p in (5, 7):
            for la in all_partitions_up_to(25):
                assert pb.parity(la, p) == pb.parity(pb.conjugate(la), p), (la, p)
        rng = random.Random(20260810)
        for p in (5, 7):
            for la in all_partitions_up_to(25):
                base = rim_hook_leg_sum(la, p) % 2
                for _ in range(20):
                    assert rim_hook_leg_sum(la, p, rng) % 2 == base, (la, p)


def test_criterion_06_placement_classifiers_and_node_counts():
    with criterion(6, "placement classifiers and node-count formulas"):
        run_named_checks((5, 7, 11, 13), ["prop31", "prop212"])


def test_criterion_07_restriction_machinery():
    with criterion(7, "partner counts, restriction table, induced pairs"):
        run_named_checks((5, 7), ["partner-counts"])
        run_named_checks((5, 7, 11), ["theta-table"])


def test_criterion_08_loewy_classifier_coherence():
    with criterion(8, "Loewy classes partition the block"):
        run_named_checks((5, 7, 11, 13), ["loewy-partition"])
        assert pb.loewy_length((5, 4, 3, 2, 1), 5) == 4
        for p in (5, 7, 11, 13):
            assert pb.loewy_length(pb.from_3p(N3(p, p - 1, p - 2), p), p) == 3


def test_criterion_09_worked_example_fidelity():
    with criterion(9, "worked examples reproduced bit-exactly", budget=1):
        # nodes of (6,4,2,2,1,1)
        la = (6, 4, 2, 2, 1, 1)
        assert pb.removable_nodes(la) == [(1, 6), (2, 4), (4, 2), (6, 1)]
        assert pb.residue((1, 6), 5) == 0 and pb.residue((2, 4), 5) == 2
        assert pb.normal_nodes(la, 5) == [(1, 6), (2, 4)] == pb.good_nodes(la, 5)
        # hook diagram; entry (1,2) equals entry (2,1) = 8 by self-conjugacy
        diagram = pb.hook_lengths(la)
        assert diagram[0] == [11, 8, 5, 4, 2, 1]
        assert diagram[1] == [8, 5, 2, 1]
        assert diagram[0][0] == 11
        # the 15-bead display of (7,7,2,2,1)
        display = AbacusDisplay.from_partition((7, 7, 2, 2, 1), 5, 15)
        assert display.occupied == frozenset({22, 21, 15, 14, 12} | set(range(1, 11)))
        assert pb.p_quotient((7, 7, 2, 2, 1), 5, 15).components == ((2,), (1,), (), (), ())
        reordered, pyramid = pb.reordered_quotient((7, 7, 2, 2, 1), 5, 15)
        assert pyramid.q == (13, 16, 19, 20, 22)
        assert pyramid.runner_labels() == (2, 5, 1, 3, 4)
        assert pyramid.nonzero_entries() == {(1, 3): 1, (1, 4): 1, (1, 5): 1, (2, 5): 1}
        assert reordered.components == ((), (2,), (), (), (1,))
        # core and weight of (6,4,2)
        assert pb.p_core((6, 4, 2), 5) == (1, 1) and pb.p_weight((6, 4, 2), 5) == 2
        # the seven-runner placement example
        assert pb.from_3p(N3(6, 3), 7) == (13, 4, 2, 1, 1)
        # node counts of the two five-runner placements
        assert pb.from_3p(N3(5, 3, 1), 5) == (5, 4, 3, 2, 1)
        assert pb.tau((8, 6, 1)) == 3 and pb.tau_p((8, 6, 1), 5) == 2
        assert pb.tau((5, 4, 3, 2, 1)) == 5 and pb.tau_p((5, 4, 3, 2, 1), 5) == 2
        assert AbacusDisplay.from_partition((8, 6, 1), 5, 15).removable_beads() == [14, 20, 23]
        assert AbacusDisplay.from_partition((8, 6, 1), 5, 15).normal_beads() == [20, 23]
        assert AbacusDisplay.from_partition((5, 4, 3, 2, 1), 5, 15).normal_beads() == [18, 20]


def test_criterion_10_abacus_node_equivalences():
    with criterion(10, "bead moves match node and rim-hook operations, n <= 25"):
        for p in (5, 7):
            for la in all_partitions_up_to(25):
                r = pb.default_bead_count(la, p)
                display = AbacusDisplay.from_partition(la, p, r)
                for m in display.removable_beads():
                    node = display.bead_node(m)
                    assert display.push_left(m).to_partition() == pb.remove_node(la, node)
                via_beads = sorted(display.push_up(m).to_partition()
                                   for m in display.rim_hook_beads())
                assert via_beads == sorted(s for s, _ in pb.rim_hook_removals(la, p))
                assert ({display.bead_node(m) for m in display.normal_beads()}
                        == set(pb.normal_nodes(la, p)))
                bigger = AbacusDisplay.from_partition(la, p, r + p)
                assert bigger.core() == pb.p_core(la, p)
                assert (sorted(pb.p_quotient(la, p, r + p).components)
                        == sorted(pb.p_quotient(la, p, r).components))
