"""Blocks of small weight: bead-placement notation, restriction maps, classifiers.

Partitions of 3p with empty p-core form the principal block; a partition of
3p - 1 with core (i-1, 1^(p-i)) lies in the weight-2 block B_i (2 <= i <= p),
and one with core (p, 1^(p-1)) in the weight-1 block B_1.  On an abacus display
whose pushed-up bead counts are fixed, such a partition is named by the runners
carrying its displaced bead weights, written <i>, <i,j> or <i,j,k>.
Membership, placement, enumeration and restriction read a display's private bead
mask through the abacus kernels, without building the display.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import eq

from .abacus import (AbacusDisplay, _components, _counts, _decode, _is_jm_fayers, _mask, _mask_weight,
                     _moved, _pushed_left, _pushed_up, default_bead_count, p_core)
from .mullineux import _regular
from .partitions import (
    Partition,
    _require_bead_count,
    _require_modulus,
    _require_runner,
    _residue,
    _with,
    addable_nodes,
    conjugate,
    format_partition,
    is_hook,
    is_p_regular,
    is_p_restricted,
    is_prime,
    normal_nodes,
    partition,
    partitions_of,
    removable_nodes,
)


def require_block_prime(p: int) -> None:
    """Block machinery assumes odd characteristic at least 5."""
    if not is_prime(p) or p < 5:
        raise ValueError(f"p must be a prime at least 5, got {p}")


# ---------------------------------------------------------------------------
# Bead-placement notation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class BeadNotation:
    """Weight placement on a display: which runners carry the displaced beads.

    For weight 3: <i> is one bead of weight 3; <i,j> one bead of weight 2 on
    runner i and one of weight 1 on runner j (i = j allowed, order matters);
    <i,j,k> three beads of weight 1 (runners not necessarily distinct).  For
    weight 2: <i> is one bead of weight 2, <i,j> two beads of weight 1.  For
    weight 1: <i> is the single bead of weight 1.
    """

    weight: int
    runners: tuple[int, ...]

    def __post_init__(self):
        if self.weight not in (1, 2, 3):
            raise ValueError(f"unsupported block weight {self.weight}")
        k = len(self.runners)
        if not 1 <= k <= self.weight:
            raise ValueError(f"bad runner tuple {self.runners} for weight {self.weight}")
        if any(type(r) is not int for r in self.runners):
            raise ValueError(f"runner indices must be integers: {self.runners}")
        if any(r < 1 for r in self.runners):
            raise ValueError(f"runner indices are 1-based: {self.runners}")
        # Tuples of equal-weight beads are unordered; store them descending.
        if k == self.weight and k > 1:
            object.__setattr__(self, "runners", tuple(sorted(self.runners, reverse=True)))

    def __str__(self):
        return "<" + ",".join(str(r) for r in self.runners) + ">"

    def components(self) -> dict[int, Partition]:
        """Displaced bead weights per runner, as partition columns."""
        comps: dict[int, Partition] = {}
        for r, w in zip(self.runners, _bead_weights(self.weight, len(self.runners))):
            comps[r] = comps.get(r, ()) + (w,)
        return comps

    @classmethod
    def from_components(cls, weight: int, components: dict[int, Partition]) -> "BeadNotation":
        beads = sorted(((w, r) for r, c in components.items() for w in c), reverse=True)
        if tuple([w for w, _ in beads]) != _bead_weights(weight, len(beads)):
            raise ValueError(f"components {components} do not fit a weight-{weight} placement")
        return cls(weight, tuple([r for _, r in beads]))


def _bead_weights(weight: int, k: int) -> tuple[int, ...]:
    """Weights of k displaced beads, heaviest first, as a placement names their runners."""
    return (weight - k + 1,) + (1,) * (k - 1)


def parse_notation(text: str, weight: int) -> BeadNotation:
    """Parse the text form ``<i>``, ``<i,j>`` or ``<i,j,k>``."""
    m = re.fullmatch(r"\s*<\s*(\d+(?:\s*,\s*\d+)*)\s*>\s*", text)
    if not m:
        raise ValueError(f"cannot parse bead notation {text!r}")
    return BeadNotation(weight, tuple(int(x) for x in m.group(1).split(",")))


def counts_3p(p: int, i: int) -> tuple[int, ...]:
    """Bead counts of B_i on the 3p-bead display: <3^(i-2), 4, 2, 3^(p-i)>, or <2, 3^(p-2), 4> for B_1."""
    _require_runner(i, p)
    return (3,) * (i - 2) + (4, 2) + (3,) * (p - i) if i > 1 else (2,) + (3,) * (p - 2) + (4,)


def counts_223(p: int, s: int) -> tuple[int, ...]:
    """Bead counts <2, 3^(p-s), 2^(s-2), 3> of the (3p-s+1)-bead display for B_s."""
    _require_runner(s, p, 2)
    return (2,) + (3,) * (p - s) + (2,) * (s - 2) + (3,)


def decode_notation(nota: BeadNotation, p: int, counts) -> Partition:
    """The partition named by a placement on the display with the given bead counts."""
    _require_modulus(p)
    _require_runner(max(nota.runners), p)  # BeadNotation keeps runners 1-based ints
    comps = nota.components()
    return AbacusDisplay.partition_from_runners(p, counts, [comps.get(j, ()) for j in range(1, p + 1)])


def encode_notation(la: Partition, p: int, counts) -> BeadNotation:
    """Name a partition on the display with the given bead counts."""
    r, parts = sum(counts), partition(la)
    _require_bead_count(r, len(parts))
    _require_modulus(p)
    mask = _mask(parts, r)
    if _counts(mask, p) != tuple(counts):
        raise ValueError(f"{la} has bead counts {_counts(mask, p)}, expected {tuple(counts)}")
    comps = _components(mask, p)
    weight = sum(map(sum, comps.values()))
    return BeadNotation.from_components(weight, {j: comps.get(j, ()) for j in range(1, p + 1)})


# ---------------------------------------------------------------------------
# Block labels and enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockLabel:
    p: int
    core: Partition
    weight: int

    @property
    def n(self) -> int:
        return sum(self.core) + self.p * self.weight

    def __str__(self):
        return f"block(p={self.p}, core={format_partition(self.core)}, w={self.weight})"


def principal_block(p: int) -> BlockLabel:
    require_block_prime(p)
    return BlockLabel(p, (), 3)


def defect2_block(p: int, i: int) -> BlockLabel:
    require_block_prime(p)
    _require_runner(i, p, 2)
    return BlockLabel(p, partition((i - 1,) + (1,) * (p - i)), 2)


def defect1_block(p: int) -> BlockLabel:
    require_block_prime(p)
    return BlockLabel(p, (p,) + (1,) * (p - 1), 1)


def restriction_block(p: int, i: int) -> BlockLabel:
    """B_i for 1 <= i <= p."""
    require_block_prime(p)
    _require_runner(i, p)
    return defect1_block(p) if i == 1 else defect2_block(p, i)


def in_block(la: Partition, label: BlockLabel) -> bool:
    return sum(la) == label.n and p_core(la, label.p) == label.core


def _bead_moves(p: int, shapes, w: int, first: int = 1):
    """Each p-quotient of total size w on runners >= ``first``, sparse: ((j, kappa), ...).

    Runners ascend and each component kappa is nonempty; ``shapes[size]``
    lists the partitions of ``size``.  Positions are left to ``abacus._moved``.
    """
    if w == 0:
        yield ()
        return
    for j in range(first, p + 1):
        for size in range(1, w + 1):
            for kappa in shapes[size]:
                for rest in _bead_moves(p, shapes, w - size, j + 1):
                    yield ((j, kappa),) + rest


def enumerate_block(label: BlockLabel) -> tuple[Partition, ...]:
    """All partitions with the label's core and weight, descending lex.

    Each member is the core's pushed-up mask (``_pushed_up``, built once) with
    at most ``weight`` beads moved down their runners (``_moved``), one way per
    p-quotient of the weight (``_bead_moves``).  The bead count first grows (p
    beads at a time, one more per runner) until every runner holds ``weight``
    beads, so every component fits.
    """
    p, w = label.p, label.weight
    r = default_bead_count(label.core, p)
    core = _mask(partition(label.core), r)
    counts = _counts(core, p)
    if _components(core, p):
        raise ValueError(f"{label.core} is not a {p}-core")
    extra = max(0, w - min(counts))
    counts = tuple([c + extra for c in counts])
    rest = _pushed_up(p, counts)
    shapes = {size: tuple(partitions_of(size)) for size in range(1, w + 1)}
    out = [_decode(_moved(p, counts, rest, moves)) for moves in _bead_moves(p, shapes, w)]
    out.sort(reverse=True)
    if any(map(eq, out, islice(out, 1, None))):  # sorted, so a collision sits next to its twin
        raise RuntimeError(f"component tuples collided for {label}")
    return tuple(out)


# ---------------------------------------------------------------------------
# The principal block: <3^p> notation and classifiers
# ---------------------------------------------------------------------------

def _member_3p(la: Partition, p: int, i: int = 1) -> tuple[Partition, int]:
    """A principal-block partition and its <3^p> mask (weight 3: empty core), runner i in range."""
    require_block_prime(p)
    _require_runner(i, p)
    if sum(la) == 3 * p:
        mask = _mask(parts := partition(la), 3 * p)
        if _mask_weight(mask, p) == 3:
            return parts, mask
    raise ValueError(f"{la} is not in the principal block for p={p}")


def to_3p(la: Partition, p: int) -> BeadNotation:
    return BeadNotation.from_components(3, _components(_member_3p(la, p)[1], p))


def from_3p(nota: BeadNotation, p: int) -> Partition:
    require_block_prime(p)
    if nota.weight != 3:
        raise ValueError(f"{nota} is not a weight-3 placement")
    return decode_notation(nota, p, (3,) * p)


def classify_3p(la: Partition, p: int) -> dict[str, bool]:
    """Regular/restricted/self-conjugate/hook flags of a principal-block partition."""
    la = _member_3p(la, p)[0]
    return {
        "p_regular": is_p_regular(la, p),
        "p_restricted": is_p_restricted(la, p),
        "self_conjugate": conjugate(la) == la,
        "hook": is_hook(la),
    }


def tau(la: Partition) -> int:
    """Number of removable nodes."""
    return len(removable_nodes(la))


def tau_p(la: Partition, p: int) -> int:
    """Number of normal nodes."""
    return len(normal_nodes(la, p))


def theta(la: Partition, p: int, i: int) -> Partition:
    """Push the removable bead on runner i left: remove the (i-1)-residue node.

    Defined whenever the <3^p> display has a removable bead on runner i,
    regular or not; the result lies in B_i.
    """
    return _theta(_member_3p(la, p, i)[0], p, i)


def _theta(la: Partition, p: int, i: int) -> Partition:
    """:func:`theta` for a principal-block partition and a runner i in range, unchecked.

    Moves the one removable bead m on runner i to m - 1.  The image lies in B_i iff the
    3p-bead display then has B_i's runner counts (:func:`counts_3p`), which fix the core.
    """
    moved = _pushed_left(_mask(la, 3 * p), p, i)
    if _counts(moved, p) != counts_3p(p, i):
        raise RuntimeError(f"restriction of {la} left the expected block B_{i}")
    return _decode(moved)


def partners(la_tilde: Partition, p: int, i: int) -> tuple[Partition, ...]:
    """Principal-block partitions restricting to ``la_tilde`` in B_i, descending.

    These are the partitions obtained by adding an addable node of residue
    i - 1 to ``la_tilde``; there are two of them for i >= 2 and three for i = 1.
    Each lies in the principal block: see :func:`_partners`.
    """
    la_tilde = partition(la_tilde)
    if not in_block(la_tilde, restriction_block(p, i)):
        raise ValueError(f"{la_tilde} is not in B_{i} for p={p}")
    return _partners(la_tilde, p, i)


def _partners(la_tilde: Partition, p: int, i: int) -> tuple[Partition, ...]:
    """:func:`partners` for a member of B_i, unchecked.

    B_i's residue content is the principal block's less one node of residue
    i - 1, so adding such a node gives the principal block's content, and
    content decides the block (Nakayama): no result needs a core test.
    """
    res = (i - 1) % p
    # Addable nodes come top-down, so the partners come in descending lex order.
    return tuple([_with(la_tilde, node) for node in addable_nodes(la_tilde)
                  if _residue(node, p) == res])


def sigma_partner(la: Partition, p: int, i: int) -> Partition:
    """The unique smaller partner with the same restriction to B_i (i >= 2)."""
    la = partition(la)
    require_block_prime(p)
    _require_runner(i, p, 2)
    pair = partners(theta(la, p, i), p, i)
    if la not in pair:
        raise RuntimeError(f"{la} missing from its own partner pair {pair}")
    smaller = [mu for mu in pair if mu < la]
    if not smaller:
        raise ValueError(f"{la} is the smaller partner on runner {i}")
    return max(smaller)


def in_lambda_set(la: Partition, p: int, i: int) -> bool:
    """Normal-bead test on runner i of the <3^p> display (p-regular input only)."""
    _member_3p(la, p, i)
    _regular(la, p)
    display = AbacusDisplay.from_partition(la, p, 3 * p)
    return not set(display.beads_on_runner(i)).isdisjoint(display.normal_beads())


def irreducible_set_X(p: int, i: int) -> tuple[BeadNotation, ...]:
    """Placements in B_i (on the <3^(i-2),4,2,3^(p-i)> display) passing the quotient test."""
    hits = [la for la in enumerate_block(defect2_block(p, i)) if _is_jm_fayers(la, p)]
    counts = counts_3p(p, i)
    return tuple(encode_notation(la, p, counts) for la in hits)


# ---------------------------------------------------------------------------
# Loewy-length classifier
# ---------------------------------------------------------------------------

def _loewy2_family(runners: tuple[int, ...], p: int) -> str | None:
    """Length-2 family of a placement not of length 1: a runner repeated 1-3 times, or 4 others."""
    if len(set(runners)) == 1:
        return ("single-bead", "double-repeat", "triple-repeat")[len(runners) - 1]
    if runners in ((p, p - 1), (p - 1, p), (2, 2, 1), (2, 1, 1)):
        return "exceptional"
    return None


def loewy_length_detail(la: Partition, p: int) -> tuple[int, str]:
    """Loewy length 1-4 of the Specht module, with the clause that decided it."""
    la = partition(la)
    nota = to_3p(la, p)
    if nota.runners in ((p,), (1, 1, 1)):
        return 1, "irreducible: row or column partition of the block"
    family = _loewy2_family(nota.runners, p)
    if family:
        return 2, f"length-2 family '{family}'"
    if is_p_regular(la, p) and is_p_restricted(la, p):
        return 4, "regular and restricted"
    return 3, "remaining case: regular xor restricted, not length <= 2"


def loewy_length(la: Partition, p: int) -> int:
    return loewy_length_detail(la, p)[0]
