"""The input boundary: every public entry point checks p and its partition before it uses them."""

import re
import signal
import sys
from contextlib import contextmanager

import pytest

import pblock as pb
from pblock import abacus, blocks, hooks, partitions
from pblock.mullineux import strip_p_rim


@contextmanager
def deadline(seconds):
    """Turn a hang into a failure: raise TimeoutError once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


MODULUS_ENTRY_POINTS = {
    "default_bead_count": pb.default_bead_count,
    "p_core": pb.p_core,
    "p_weight": pb.p_weight,
    "p_quotient": pb.p_quotient,
    "reordered_quotient": pb.reordered_quotient,
    "rim_hook_removals": pb.rim_hook_removals,
    "rim_hook_leg_sum": abacus.rim_hook_leg_sum,
    "parity": pb.parity,
    "p_power_diagram": pb.p_power_diagram,
    "p_adic_valuation": lambda la, p: hooks.p_adic_valuation(sum(la), p),
    "normal_nodes": pb.normal_nodes,
    "good_nodes": pb.good_nodes,
    "tau_p": pb.tau_p,
    "is_p_regular": pb.is_p_regular,
    "is_p_restricted": pb.is_p_restricted,
    "strip_p_rim": strip_p_rim,
    "residue": pb.residue,  # (3, 1) read as a node
}


@pytest.mark.parametrize("name", sorted(MODULUS_ENTRY_POINTS))
@pytest.mark.parametrize("p", [0, 1, -3, 5.0, True, "5"])
def test_entry_points_reject_a_modulus_below_2_or_not_an_int(name, p):
    with deadline(5), pytest.raises(ValueError, match=f"p must be an integer at least 2, got {p}"):
        MODULUS_ENTRY_POINTS[name]((3, 1), p)


@pytest.mark.parametrize("p", [0, 1, 5.0, True])
def test_quotients_with_an_explicit_bead_count_reject_the_modulus_too(p):
    for entry in (pb.p_quotient, pb.reordered_quotient):
        with pytest.raises(ValueError, match=f"p must be an integer at least 2, got {p}"):
            entry((3, 1), p, 10)


@pytest.mark.parametrize("p", [0, 1, -3, 5.0, True])
def test_runner_decoding_checks_the_modulus(p):
    with pytest.raises(ValueError, match=f"p must be an integer at least 2, got {p}"):
        pb.decode_notation(pb.BeadNotation(3, (1,)), p, (3,) * 5)


@pytest.mark.parametrize("runners", [(1.5,), (True,), (2, 1.0)])
def test_bead_notation_rejects_runners_that_are_not_int(runners):
    with pytest.raises(ValueError, match="runner indices must be integers"):
        pb.BeadNotation(3, runners)


STAIRCASE = (5, 4, 3, 2, 1)
TOP = pb.from_3p(pb.BeadNotation(3, (5, 4)), 5)  # the larger partner on runner 5

# Entry points that take a partition first, with the rest of their arguments.
CANONICAL_CASES = [
    (pb.classify_3p, STAIRCASE, (5,)),
    (pb.loewy_length, STAIRCASE, (5,)),
    (pb.loewy_length_detail, STAIRCASE, (5,)),
    (pb.to_3p, STAIRCASE, (5,)),
    (pb.theta, STAIRCASE, (5, 3)),
    (pb.in_lambda_set, STAIRCASE, (5, 3)),
    (pb.partners, pb.theta(STAIRCASE, 5, 3), (5, 3)),
    (pb.sigma_partner, TOP, (5, 5)),
    (pb.check_good_node_compatibility, STAIRCASE, (5,)),
    (pb.mullineux, STAIRCASE, (5,)),
    (pb.parity, STAIRCASE, (5,)),
    (pb.p_core, STAIRCASE, (5,)),
    (pb.p_quotient, STAIRCASE, (5,)),
    (pb.rim_hook_removals, STAIRCASE, (5,)),
    (pb.is_jm_direct, STAIRCASE, (5,)),
    (pb.is_jm_fayers, STAIRCASE, (5,)),
    (pb.hook_lengths, STAIRCASE, ()),
    (pb.p_power_diagram, (10, 5), (5,)),
]


@pytest.mark.parametrize("entry, la, args", CANONICAL_CASES,
                         ids=[entry.__name__ for entry, _, _ in CANONICAL_CASES])
def test_a_list_or_trailing_zeros_get_the_canonical_answer(entry, la, args):
    expected = entry(la, *args)
    assert entry(list(la), *args) == expected
    assert entry(la + (0,), *args) == expected
    assert entry([*la, 0, 0], *args) == expected


@pytest.mark.parametrize("entry, la, args", CANONICAL_CASES,
                         ids=[entry.__name__ for entry, _, _ in CANONICAL_CASES])
@pytest.mark.parametrize("bad", [None, 7, ("a",), ("5", "5", "5")], ids=repr)
def test_malformed_partitions_get_value_error_at_every_entry_point(entry, la, args, bad):
    with pytest.raises(ValueError, match="is not a partition"):
        entry(bad, *args)


# partition() calls made by one call: one for a partition argument, none for what the entry
# point builds itself, and none through another public function that would check it again.
PARTITION_CALLS = [(entry, la, args, 1) for entry, la, args in CANONICAL_CASES
                   if entry is not pb.in_lambda_set] + [
    # Membership, then mullineux._regular, the one place of the "is not p-regular" message.
    (pb.in_lambda_set, STAIRCASE, (5, 3), 2),
    (pb.reordered_quotient, STAIRCASE, (5,), 1),
    (pb.encode_notation, STAIRCASE, (5, (3,) * 5), 1),
    (pb.from_3p, pb.BeadNotation(3, (3, 2, 1)), (5,), 0),
    (pb.decode_notation, pb.BeadNotation(3, (4, 2)), (5, blocks.counts_3p(5, 2)), 0),
    (pb.restriction_block, 5, (3,), 0),
    (pb.irreducible_set_X, 5, (3,), 1),  # the core that enumerate_block checks
]


@pytest.mark.parametrize("entry, la, args, calls", PARTITION_CALLS,
                         ids=[entry.__name__ for entry, *_ in PARTITION_CALLS])
def test_each_entry_point_canonicalises_its_partition_once(monkeypatch, entry, la, args, calls):
    real, seen = partitions.partition, []

    def counting(parts):
        seen.append(parts)
        return real(parts)

    binders = [name for name, module in sorted(sys.modules.items())
               if name.split(".")[0] == "pblock" and getattr(module, "partition", None) is real]
    assert {"pblock.abacus", "pblock.blocks", "pblock.hooks", "pblock.mullineux",
            "pblock.partitions"} <= set(binders)
    for name in binders:
        monkeypatch.setattr(sys.modules[name], "partition", counting)
    entry(la, *args)
    assert len(seen) == calls, seen


def test_hook_lengths_reject_a_non_partition():
    with pytest.raises(ValueError, match="is not a partition"):
        pb.hook_lengths((1, 2))


# Entry points that take a block index i, with the least i each accepts.
BLOCK_INDEX_CASES = {
    "defect2_block": (lambda i: pb.defect2_block(5, i), 2),
    "restriction_block": (lambda i: pb.restriction_block(5, i), 1),
    "theta": (lambda i: pb.theta(STAIRCASE, 5, i), 1),
    "partners": (lambda i: pb.partners(pb.theta(STAIRCASE, 5, 3), 5, i), 1),
    "sigma_partner": (lambda i: pb.sigma_partner(TOP, 5, i), 2),
    "in_lambda_set": (lambda i: pb.in_lambda_set(STAIRCASE, 5, i), 1),
    "irreducible_set_X": (lambda i: pb.irreducible_set_X(5, i), 2),
    "counts_3p": (lambda i: blocks.counts_3p(5, i), 1),
    "counts_223": (lambda i: blocks.counts_223(5, i), 2),
}


@pytest.mark.parametrize("name", sorted(BLOCK_INDEX_CASES))
@pytest.mark.parametrize("i", [0, 6, 2.0, True, "2"])
def test_block_index_entry_points_share_one_rule(name, i):
    entry, least = BLOCK_INDEX_CASES[name]
    message = f"runner {i} out of range for p=5: need {least} <= i <= p"
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(i)


def test_decoding_checks_each_runner_by_the_same_rule():
    # BeadNotation keeps runners 1-based ints, so only a runner above p is left to reject.
    message = "runner 6 out of range for p=5: need 1 <= i <= p"
    with pytest.raises(ValueError, match=re.escape(message)):
        pb.decode_notation(pb.BeadNotation(3, (6, 2)), 5, (3,) * 5)


# The entry points that read the bead mask, each with an input it must reject and the message.
MASK_REJECTIONS = [
    ("non-member to_3p", lambda: pb.to_3p((13, 2), 5), "(13, 2) is not in the principal block for p=5"),
    ("non-member classify_3p", lambda: pb.classify_3p([13, 2, 0], 5),
     "[13, 2, 0] is not in the principal block for p=5"),
    ("non-member theta", lambda: pb.theta((13, 2), 5, 2), "(13, 2) is not in the principal block for p=5"),
    ("non-member in_lambda_set", lambda: pb.in_lambda_set((13, 2), 5, 2),
     "(13, 2) is not in the principal block for p=5"),
    ("non-member loewy_length", lambda: pb.loewy_length((13, 2), 5),
     "(13, 2) is not in the principal block for p=5"),
    ("wrong bead counts", lambda: pb.encode_notation(STAIRCASE, 5, blocks.counts_3p(5, 2)),
     "(5, 4, 3, 2, 1) has bead counts (3, 3, 3, 3, 3), expected (4, 2, 3, 3, 3)"),
    ("too few beads to encode", lambda: pb.encode_notation((1,) * 4, 5, (1, 1, 1, 0, 0)),
     "bead count must be an integer at least 4, got 3"),
    ("oversized component",
     lambda: pb.decode_notation(pb.BeadNotation(3, (2, 2, 2)), 5, blocks.counts_3p(5, 2)),
     "component (1, 1, 1) needs more than 2 beads on runner 2"),
    ("colliding beads", lambda: abacus._moved(5, (3,) * 5, abacus._pushed_up(5, (3,) * 5), [(1, (0, 1))]),
     "expected 15 beads, got 14"),
    ("not a core", lambda: pb.enumerate_block(blocks.BlockLabel(5, (5,), 1)), "(5,) is not a 5-core"),
    ("member of another B_j", lambda: pb.partners(pb.theta(STAIRCASE, 5, 2), 5, 3),
     f"{pb.theta(STAIRCASE, 5, 2)} is not in B_3 for p=5"),
    ("member of B_1 for B_2", lambda: pb.partners(pb.theta(STAIRCASE, 5, 1), 5, 2),
     f"{pb.theta(STAIRCASE, 5, 1)} is not in B_2 for p=5"),
    ("principal-block member", lambda: pb.partners(STAIRCASE, 5, 3), "(5, 4, 3, 2, 1) is not in B_3 for p=5"),
    ("partners at a composite p", lambda: pb.partners(pb.theta(STAIRCASE, 5, 3), 9, 3),
     "p must be a prime at least 5, got 9"),
    ("runner counts of the wrong length", lambda: pb.decode_notation(pb.BeadNotation(3, (2, 1)), 5, (3,) * 4),
     "4 runner counts but 5 components"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in MASK_REJECTIONS],
                         ids=[case[0] for case in MASK_REJECTIONS])
def test_mask_paths_keep_every_rejection_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_enumeration_still_reports_colliding_component_tuples(monkeypatch):
    monkeypatch.setattr(blocks, "_decode", lambda mask: (15,))
    with pytest.raises(RuntimeError, match=re.escape("component tuples collided for block(p=5, core=-, w=3)")):
        pb.enumerate_block(pb.principal_block(5))


def _explicit_display(la, p, r):
    return pb.AbacusDisplay(p, r, pb.AbacusDisplay.from_partition(la, p, len(la)).occupied)


BEAD_COUNT_ENTRY_POINTS = {
    "p_quotient": pb.p_quotient,
    "reordered_quotient": pb.reordered_quotient,
    "AbacusDisplay.from_partition": pb.AbacusDisplay.from_partition,
    "AbacusDisplay": _explicit_display,
}


@pytest.mark.parametrize("name", sorted(BEAD_COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("r", [1, 10.0, True])
def test_bead_count_entry_points_share_one_rule(name, r):
    la = (3, 1)  # needs at least len(la) = 2 beads
    message = f"bead count must be an integer at least 2, got {r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        BEAD_COUNT_ENTRY_POINTS[name](la, 5, r)
