"""Blocks of small weight: bead-placement notation, restriction maps, classifiers.

Partitions of 3p with empty p-core form the principal block; a partition of
3p - 1 with core (i-1, 1^(p-i)) lies in the weight-2 block B_i (2 <= i <= p),
and one with core (p, 1^(p-1)) in the weight-1 block B_1.  On an abacus display
whose pushed-up bead counts are fixed, such a partition is named by the runners
carrying its displaced bead weights, written <i>, <i,j> or <i,j,k>.
Principal-block membership is read off the runner counts of the 3p-bead
display: the p-core is empty exactly when every runner carries three beads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .abacus import AbacusDisplay, default_bead_count, is_jm_fayers, p_core
from .partitions import (
    Partition,
    add_node,
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
    residue,
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
        if tuple(w for w, _ in beads) != _bead_weights(weight, len(beads)):
            raise ValueError(f"components {components} do not fit a weight-{weight} placement")
        return cls(weight, tuple(r for _, r in beads))


def _bead_weights(weight: int, k: int) -> tuple[int, ...]:
    """Weights of k displaced beads, heaviest first, as a placement names their runners."""
    return (weight - k + 1,) + (1,) * (k - 1)


def parse_notation(text: str, weight: int) -> BeadNotation:
    """Parse the text form ``<i>``, ``<i,j>`` or ``<i,j,k>``."""
    m = re.fullmatch(r"\s*<\s*(\d+(?:\s*,\s*\d+)*)\s*>\s*", text)
    if not m:
        raise ValueError(f"cannot parse bead notation {text!r}")
    return BeadNotation(weight, tuple(int(x) for x in m.group(1).split(",")))


def counts_42(p: int, i: int) -> tuple[int, ...]:
    """Bead counts <3^(i-2), 4, 2, 3^(p-i)> of the 3p-bead display for B_i."""
    if not 2 <= i <= p:
        raise ValueError(f"need 2 <= i <= p, got {i}")
    return (3,) * (i - 2) + (4, 2) + (3,) * (p - i)


def counts_223(p: int, s: int) -> tuple[int, ...]:
    """Bead counts <2, 3^(p-s), 2^(s-2), 3> of the (3p-s+1)-bead display for B_s."""
    if not 2 <= s <= p:
        raise ValueError(f"need 2 <= s <= p, got {s}")
    return (2,) + (3,) * (p - s) + (2,) * (s - 2) + (3,)


def decode_notation(nota: BeadNotation, p: int, counts) -> Partition:
    """The partition named by a placement on the display with the given bead counts."""
    if any(r > p for r in nota.runners):
        raise ValueError(f"runner out of range in {nota} for p={p}")
    comps = nota.components()
    display = AbacusDisplay.from_runners(p, counts, [comps.get(j, ()) for j in range(1, p + 1)])
    return display.to_partition()


def _notation(display: AbacusDisplay) -> BeadNotation:
    comps = display.components()
    weight = sum(sum(c) for c in comps)
    return BeadNotation.from_components(weight, {j + 1: c for j, c in enumerate(comps)})


def encode_notation(la: Partition, p: int, counts) -> BeadNotation:
    """Name a partition on the display with the given bead counts."""
    display = AbacusDisplay.from_partition(la, p, sum(counts))
    if display.counts() != tuple(counts):
        raise ValueError(f"{la} has bead counts {display.counts()}, expected {tuple(counts)}")
    return _notation(display)


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
    if not 2 <= i <= p:
        raise ValueError(f"need 2 <= i <= p, got {i}")
    return BlockLabel(p, partition((i - 1,) + (1,) * (p - i)), 2)


def defect1_block(p: int) -> BlockLabel:
    require_block_prime(p)
    return BlockLabel(p, (p,) + (1,) * (p - 1), 1)


def restriction_block(p: int, i: int) -> BlockLabel:
    """B_i for 1 <= i <= p."""
    return defect1_block(p) if i == 1 else defect2_block(p, i)


def in_block(la: Partition, label: BlockLabel) -> bool:
    return sum(la) == label.n and p_core(la, label.p) == label.core


def _component_tuples(p: int, w: int) -> Iterator[tuple[Partition, ...]]:
    if p == 0:
        if w == 0:
            yield ()
        return
    for size in range(w + 1):
        for head in partitions_of(size):
            for tail in _component_tuples(p - 1, w - size):
                yield (head,) + tail


def enumerate_block(label: BlockLabel) -> tuple[Partition, ...]:
    """All partitions with the label's core and weight, descending lex.

    Generated constructively from tuples of runner components; the bead count
    grows (p beads at a time, one more per runner) until every runner can hold
    a full-weight component.
    """
    p = label.p
    display = AbacusDisplay.from_partition(label.core, p, default_bead_count(label.core, p))
    if any(display.components()):
        raise ValueError(f"{label.core} is not a {p}-core")
    extra = max(0, label.weight - min(display.counts()))
    counts = tuple(c + extra for c in display.counts())
    out = [AbacusDisplay.from_runners(p, counts, comps).to_partition()
           for comps in _component_tuples(p, label.weight)]
    if len(set(out)) != len(out):
        raise RuntimeError(f"component tuples collided for {label}")
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# The principal block: <3^p> notation and classifiers
# ---------------------------------------------------------------------------

def _display_3p(la: Partition, p: int) -> AbacusDisplay:
    """The <3^p> display of a principal-block partition; raises for any other input."""
    require_block_prime(p)
    if sum(la) == 3 * p:
        display = AbacusDisplay.from_partition(la, p, 3 * p)
        if display.counts() == (3,) * p:
            return display
    raise ValueError(f"{la} is not in the principal block for p={p}")


def to_3p(la: Partition, p: int) -> BeadNotation:
    return _notation(_display_3p(la, p))


def from_3p(nota: BeadNotation, p: int) -> Partition:
    require_block_prime(p)
    if nota.weight != 3:
        raise ValueError(f"{nota} is not a weight-3 placement")
    return decode_notation(nota, p, (3,) * p)


def classify_3p(la: Partition, p: int) -> dict[str, bool]:
    """Regular/restricted/self-conjugate/hook flags of a principal-block partition."""
    _display_3p(la, p)
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
    if not 1 <= i <= p:
        raise ValueError(f"runner {i} out of range for p={p}")
    display = _display_3p(la, p)
    removable = display.removable_beads()
    beads = [m for m in display.beads_on_runner(i) if m in removable]
    if not beads:
        raise ValueError(f"{la} has no removable bead on runner {i}")
    if len(beads) > 1:
        raise RuntimeError(f"{la} has several removable beads on runner {i}: {beads}")
    pushed = display.push_left(beads[0])
    if pushed.core() != restriction_block(p, i).core:
        raise RuntimeError(f"restriction of {la} left the expected block B_{i}")
    return pushed.to_partition()


def partners(la_tilde: Partition, p: int, i: int) -> tuple[Partition, ...]:
    """Principal-block partitions restricting to ``la_tilde`` in B_i, descending.

    These are the partitions obtained by adding an addable node of residue
    i - 1 to ``la_tilde``; there are two of them for i >= 2 and three for i = 1.
    """
    label = restriction_block(p, i)
    if not in_block(la_tilde, label):
        raise ValueError(f"{la_tilde} is not in B_{i} for p={p}")
    res = (i - 1) % p
    out = [add_node(la_tilde, node)
           for node in addable_nodes(la_tilde) if residue(node, p) == res]
    out = [mu for mu in out if p_core(mu, p) == ()]
    return tuple(sorted(out, reverse=True))


def sigma_partner(la: Partition, p: int, i: int) -> Partition:
    """The unique smaller partner with the same restriction to B_i (i >= 2)."""
    if not 2 <= i <= p:
        raise ValueError(f"sigma is defined for 2 <= i <= p, got {i}")
    pair = partners(theta(la, p, i), p, i)
    if la not in pair:
        raise RuntimeError(f"{la} missing from its own partner pair {pair}")
    smaller = [mu for mu in pair if mu < la]
    if not smaller:
        raise ValueError(f"{la} is the smaller partner on runner {i}")
    return max(smaller)


def in_lambda_set(la: Partition, p: int, i: int) -> bool:
    """Normal-bead test on runner i of the <3^p> display (p-regular input only)."""
    if not is_p_regular(la, p):
        raise ValueError(f"{la} is not {p}-regular")
    display = _display_3p(la, p)
    return not set(display.beads_on_runner(i)).isdisjoint(display.normal_beads())


def irreducible_set_X(p: int, i: int) -> tuple[BeadNotation, ...]:
    """Placements in B_i (on the <3^(i-2),4,2,3^(p-i)> display) passing the quotient test."""
    if not 2 <= i <= p:
        raise ValueError(f"need 2 <= i <= p, got {i}")
    counts = counts_42(p, i)
    hits = [la for la in enumerate_block(defect2_block(p, i)) if is_jm_fayers(la, p)]
    return tuple(encode_notation(la, p, counts) for la in hits)


# ---------------------------------------------------------------------------
# Loewy-length classifier
# ---------------------------------------------------------------------------

def loewy2_families(p: int) -> dict[str, frozenset[BeadNotation]]:
    """The four families whose members have Loewy length 2."""
    require_block_prime(p)
    return {
        "single-bead": frozenset(BeadNotation(3, (i,)) for i in range(1, p)),
        "triple-repeat": frozenset(BeadNotation(3, (i, i, i)) for i in range(2, p + 1)),
        "double-repeat": frozenset(BeadNotation(3, (i, i)) for i in range(1, p + 1)),
        "exceptional": frozenset({
            BeadNotation(3, (p, p - 1)), BeadNotation(3, (p - 1, p)),
            BeadNotation(3, (2, 2, 1)), BeadNotation(3, (2, 1, 1)),
        }),
    }


def loewy_length_detail(la: Partition, p: int) -> tuple[int, str]:
    """Loewy length 1-4 of the Specht module, with the clause that decided it."""
    nota = to_3p(la, p)
    if nota in (BeadNotation(3, (p,)), BeadNotation(3, (1, 1, 1))):
        return 1, "irreducible: row or column partition of the block"
    for family, members in loewy2_families(p).items():
        if nota in members:
            return 2, f"length-2 family '{family}'"
    if is_p_regular(la, p) and is_p_restricted(la, p):
        return 4, "regular and restricted"
    return 3, "remaining case: regular xor restricted, not length <= 2"


def loewy_length(la: Partition, p: int) -> int:
    return loewy_length_detail(la, p)[0]
