"""Abacus displays: beta-numbers, bead moves, cores, quotients and pyramids.

Positions are 1-based, numbered row-major: position m sits on runner
``(m-1) % p + 1`` in row ``(m-1) // p + 1``.  A display with r beads encodes
the partition with beta-numbers ``beta_i = la_i + r - i + 1``, so the minimum
beta-number is 1.

Each display sorts its beads into per-runner rows once, when it is built.
Those rows, with the display methods that read them, are the only place the
position <-> (runner, row) arithmetic lives: bead counts, the p-core, the
quotient, the pyramid and the normal beads are all read off the rows, and
code outside this module asks the display instead of computing runners or
rows itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .partitions import (
    Node,
    Partition,
    is_p_regular,
    is_p_restricted,
    is_prime,
    partition,
)


def default_bead_count(la: Partition, p: int) -> int:
    """Least multiple of p that accommodates the parts of ``la`` (at least p)."""
    return p * max(1, -(-len(la) // p))


def _decode_betas(betas, r: int) -> Partition:
    """Parts of the r-bead display ``betas``; a partition by construction."""
    parts = (b - r + i for i, b in enumerate(sorted(betas, reverse=True)))
    return tuple(part for part in parts if part)


@dataclass(frozen=True)
class AbacusDisplay:
    """An immutable set of r occupied positions on p runners.

    ``rows[j-1]`` lists, ascending, the rows of the beads on runner j.
    """

    p: int
    r: int
    occupied: frozenset[int]
    rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if len(self.occupied) != self.r:
            raise ValueError(f"expected {self.r} beads, got {len(self.occupied)}")
        ordered = sorted(self.occupied)
        if ordered and ordered[0] < 1:
            raise ValueError("positions are 1-based")
        rows = [[] for _ in range(self.p)]
        for m in ordered:
            rows[(m - 1) % self.p].append((m - 1) // self.p + 1)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    @classmethod
    def from_partition(cls, la: Partition, p: int, r: int) -> "AbacusDisplay":
        if r < len(la):
            raise ValueError(f"need at least {len(la)} beads for {la}, got {r}")
        la = partition(la)
        # Beads 1..r-k carry the zero parts (k = len(la)); part i, 0-based, sits at la_i + r - i.
        betas = [*range(1, r - len(la) + 1), *(part + r - i for i, part in enumerate(la))]
        return cls(p, r, frozenset(betas))

    @classmethod
    def from_runners(cls, p: int, counts, components) -> "AbacusDisplay":
        """The display with ``counts[j-1]`` beads on runner j, displaced by ``components[j-1]``."""
        occupied = set()
        for j, (c, kappa) in enumerate(zip(counts, components, strict=True), start=1):
            if len(kappa) > c:
                raise ValueError(f"component {kappa} needs more than {c} beads on runner {j}")
            padded = tuple(kappa) + (0,) * (c - len(kappa))
            occupied.update((padded[t - 1] + c - t) * p + j for t in range(1, c + 1))
        return cls(p, sum(counts), frozenset(occupied))

    def to_partition(self) -> Partition:
        return _decode_betas(self.occupied, self.r)

    def runner(self, pos: int) -> int:
        return (pos - 1) % self.p + 1

    def beads_on_runner(self, i: int) -> list[int]:
        return [(t - 1) * self.p + i for t in self.rows[i - 1]]

    # -- runner-level data ----------------------------------------------------

    def counts(self) -> tuple[int, ...]:
        """Beads per runner, left to right."""
        return tuple(map(len, self.rows))

    def components(self) -> tuple[Partition, ...]:
        """Bead weights per runner, bottom bead first: the left-to-right quotient."""
        comps = []
        for rows in self.rows:
            weights = [t - s for s, t in enumerate(rows, start=1)]
            comps.append(tuple(w for w in reversed(weights) if w))
        return tuple(comps)

    def core(self) -> Partition:
        """The p-core: every runner's beads pushed up into its top rows."""
        return _decode_betas([(t - 1) * self.p + j for j, c in enumerate(self.counts(), start=1)
                              for t in range(1, c + 1)], self.r)

    # -- bead moves (each returns a new display) -----------------------------

    def _move(self, src: int, dst: int) -> "AbacusDisplay":
        if src not in self.occupied:
            raise ValueError(f"no bead at position {src}")
        if dst < 1 or dst in self.occupied:
            raise ValueError(f"cannot move bead to position {dst}")
        return AbacusDisplay(self.p, self.r, self.occupied - {src} | {dst})

    def push_left(self, pos: int) -> "AbacusDisplay":
        """Move a bead to the empty position before it (removes a node)."""
        return self._move(pos, pos - 1)

    def push_up(self, pos: int) -> "AbacusDisplay":
        """Move a bead one row up its runner (removes a rim p-hook)."""
        return self._move(pos, pos - self.p)

    # -- bead classification --------------------------------------------------

    def removable_beads(self) -> list[int]:
        return sorted(m for m in self.occupied if m > 1 and m - 1 not in self.occupied)

    def rim_hook_beads(self) -> list[int]:
        """Beads movable one row up; one per removable rim p-hook."""
        return sorted(m for m in self.occupied
                      if m - self.p >= 1 and m - self.p not in self.occupied)

    def leg_length(self, pos: int) -> int:
        """Leg length of the rim p-hook removed by ``push_up(pos)``: beads strictly between."""
        return sum(1 for b in self.occupied if pos - self.p < b < pos)

    def normal_beads(self) -> list[int]:
        """Removable beads passing the runner-count criterion.

        A removable bead in row t of runner i >= 2 is normal when, for every
        j >= 1, runner i carries at least as many beads in rows t+1..t+j as
        runner i-1 does.  On runner 1 the comparison is against runner p with
        the window shifted up one row (rows t..t+j-1).  As prefix counts: the
        k-th bead below row t on runner i sits no lower than the k-th on the
        compared runner, for every k up to the compared runner's count.
        """
        normals = []
        for i, mine in enumerate(self.rows, start=1):
            # Rows of the compared runner, level with runner i.  For runner 1,
            # row 1 stands for position 0, where no bead can move.
            left = self.rows[i - 2] if i > 1 else (1,) + tuple(t + 1 for t in self.rows[-1])
            for t in mine:
                if t in left:
                    continue  # not removable
                below = [u for u in mine if u > t]
                rival = [u for u in left if u > t]
                if len(below) >= len(rival) and all(a <= b for a, b in zip(below, rival)):
                    normals.append((t - 1) * self.p + i)
        return sorted(normals)

    def bead_node(self, pos: int) -> Node:
        """The node of the decoded partition carried by the bead at ``pos``."""
        if pos not in self.occupied:
            raise ValueError(f"no bead at position {pos}")
        i = sorted(self.occupied, reverse=True).index(pos) + 1
        return (i, pos - self.r + i - 1)

    # -- rendering -------------------------------------------------------------

    def render(self, labels=None) -> str:
        """Text grid in the style of an abacus figure: runner header, then rows."""
        labels = labels or list(range(1, self.p + 1))
        height = max((rows[-1] for rows in self.rows if rows), default=1) + 1
        lines = [" ".join(str(lab) for lab in labels), "-" * (2 * self.p - 1)]
        for t in range(1, height + 1):
            lines.append(" ".join("●" if t in rows else "○" for rows in self.rows))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "occupied": sorted(self.occupied)}


@dataclass(frozen=True)
class PQuotient:
    """A p-tuple of partitions recording how far each runner's beads sit below their rest position."""

    components: tuple[Partition, ...]
    numbering: str  # "left-to-right" or "reordered"

    def total(self) -> int:
        return sum(sum(c) for c in self.components)


@dataclass(frozen=True)
class Pyramid:
    """First-empty positions of the pushed-up display, with the runner relabelling.

    ``q`` is ascending; ``sigma[j-1]`` is the left-to-right runner carrying
    reordered label j.
    """

    p: int
    q: tuple[int, ...]
    sigma: tuple[int, ...]

    def entry(self, k: int, ell: int) -> int:
        if not 1 <= k < ell <= self.p:
            raise ValueError(f"need 1 <= k < ell <= p, got ({k}, {ell})")
        return (self.q[ell - 1] - self.q[k - 1]) // self.p

    def nonzero_entries(self) -> dict[tuple[int, int], int]:
        out = {}
        for k in range(1, self.p):
            for ell in range(k + 1, self.p + 1):
                b = self.entry(k, ell)
                if b:
                    out[(k, ell)] = b
        return out

    def runner_labels(self) -> tuple[int, ...]:
        """Label shown above each left-to-right runner after reordering."""
        labels = [0] * self.p
        for j, runner in enumerate(self.sigma, start=1):
            labels[runner - 1] = j
        return tuple(labels)


def p_core(la: Partition, p: int) -> Partition:
    return AbacusDisplay.from_partition(la, p, default_bead_count(la, p)).core()


def p_weight(la: Partition, p: int) -> int:
    return (sum(la) - sum(p_core(la, p))) // p


def rim_hook_removals(la: Partition, p: int) -> list[tuple[Partition, int]]:
    """One (smaller partition, leg length) pair per removable rim p-hook.

    Entries are ordered by the hook's hand, topmost hand first.  The leg
    length is the number of beta-numbers strictly between beta - p and beta.
    """
    display = AbacusDisplay.from_partition(la, p, default_bead_count(la, p))
    return [(display.push_up(m).to_partition(), display.leg_length(m))
            for m in reversed(display.rim_hook_beads())]


def rim_hook_leg_sum(la: Partition, p: int, rng: random.Random | None = None) -> int:
    """Total leg length over a complete rim p-hook removal.

    The canonical sequence (rng=None) always removes the hook whose hand is
    highest; passing an rng picks uniformly instead, which is useful for
    checking order-independence.  The walk moves beta-numbers in place.
    """
    betas = set(AbacusDisplay.from_partition(la, p, default_bead_count(la, p)).occupied)
    total = 0
    while True:
        movable = sorted(m for m in betas if m > p and m - p not in betas)
        if not movable:
            return total
        m = movable[-1] if rng is None else rng.choice(movable)
        total += sum(1 for b in betas if m - p < b < m)
        betas.remove(m)
        betas.add(m - p)


def _quotient_display(la: Partition, p: int, r: int | None) -> AbacusDisplay:
    if r is None:
        r = default_bead_count(la, p)
    if r % p != 0:
        raise ValueError(f"bead count {r} is not a multiple of {p}")
    return AbacusDisplay.from_partition(la, p, r)


def p_quotient(la: Partition, p: int, r: int | None = None) -> PQuotient:
    """Left-to-right p-quotient; the bead count must be a multiple of p."""
    return PQuotient(_quotient_display(la, p, r).components(), "left-to-right")


def reordered_quotient(la: Partition, p: int, r: int | None = None) -> tuple[PQuotient, Pyramid]:
    """The quotient in the non left-to-right numbering, with its pyramid.

    The runners are relabelled so that the first empty positions of the
    pushed-up display come in ascending order; component j of the reordered
    quotient is the left-to-right component of the runner with label j.
    """
    return _reordered(_quotient_display(la, p, r))


def _reordered(display: AbacusDisplay) -> tuple[PQuotient, Pyramid]:
    first_empty = sorted((c * display.p + j, j) for j, c in enumerate(display.counts(), start=1))
    q = tuple(pos for pos, _ in first_empty)
    sigma = tuple(runner for _, runner in first_empty)
    ltr = display.components()
    reordered = PQuotient(tuple(ltr[runner - 1] for runner in sigma), "reordered")
    return reordered, Pyramid(display.p, q, sigma)


def is_jm_fayers(la: Partition, p: int) -> bool:
    """Quotient/pyramid irreducibility test on the reordered display.

    With reordered quotient [mu_1, ..., mu_p] and pyramid B, the partition
    passes iff the interior components vanish, mu_1 is restricted and mu_p
    regular (both recursively passing), and the first row of mu_k plus the
    first column of mu_ell never exceeds B(k, ell) + 1.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("the test needs an odd prime p")
    display = _quotient_display(la, p, None)
    if sum(display.core()) == sum(la):  # weight 0; cheaper to read than the quotient
        return True
    quotient, pyramid = _reordered(display)
    mu = quotient.components
    if any(mu[i] for i in range(1, p - 1)):
        return False
    if not (is_p_restricted(mu[0], p) and is_jm_fayers(mu[0], p)):
        return False
    if not (is_p_regular(mu[-1], p) and is_jm_fayers(mu[-1], p)):
        return False
    for k in range(1, p):
        for ell in range(k + 1, p + 1):
            first_row = mu[k - 1][0] if mu[k - 1] else 0
            first_col = len(mu[ell - 1])
            if first_row + first_col > pyramid.entry(k, ell) + 1:
                return False
    return True
