"""Abacus displays: beta-numbers, bead moves, cores, quotients and pyramids.

Positions are 1-based, numbered row-major: position m sits on runner
``(m-1) % p + 1`` in row ``(m-1) // p + 1``.  A display with r beads encodes
the partition with beta-numbers ``beta_i = la_i + r - i + 1``, so the minimum
beta-number is 1.

Only this module places beads, one helper per rule: ``_betas`` places a partition's
beads, ``_rows`` sorts positions into runner rows and ``_weight`` reads the p-weight
off them.  A display sorts its beads once, when built, and reads its counts, quotient,
pyramid and normal beads off its rows; ``_is_jm_fayers`` and ``_p_weight`` read rows
without a display.  ``_pushed`` turns runner counts into the pushed-up display (the
core's) and ``_place`` moves its beads down by quotient components.  Code outside this
module asks these instead of computing positions.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import add, sub

from .partitions import (
    Node,
    Partition,
    _require_bead_count,
    _require_modulus,
    _require_odd_prime,
    is_p_regular,
    is_p_restricted,
    partition,
)


def default_bead_count(la: Partition, p: int) -> int:
    """Least multiple of p that accommodates the parts of ``la`` (at least p)."""
    _require_modulus(p)
    return p * max(1, -(-len(la) // p))


def _betas(la: Partition, r: int) -> list[int]:
    """Ascending positions of ``la``'s r >= len(la) beads: part i, 0-based, at la_i + r - i."""
    z = r - len(la)
    return [*range(1, z + 1), *map(add, reversed(la), range(z + 1, r + 1))]


def _rows(betas, p: int) -> list[list[int]]:
    """Rows of the ascending positions ``betas`` per runner: ``rows[j-1]`` for runner j."""
    rows = [[] for _ in range(p)]
    for m in betas:
        m -= 1
        rows[m % p].append(m // p + 1)
    return rows


def _weight(rows) -> int:
    """The p-weight: each runner's rows, less the rows 1..c its pushed-up beads fill."""
    return sum(sum(beads) - len(beads) * (len(beads) + 1) // 2 for beads in rows)


def _decode_betas(betas, r: int) -> Partition:
    """Parts of the r-bead display ``betas``; a partition by construction."""
    # Ascending, the k-th bead carries part b_k - k, so the zero parts come first.
    parts = list(map(sub, sorted(betas), range(1, r + 1)))
    return tuple(parts[bisect_right(parts, 0):][::-1])


def _pushed(p: int, counts) -> frozenset[int]:
    """Positions of the pushed-up display with ``counts[j-1]`` beads on runner j."""
    return frozenset((t - 1) * p + j for j, c in enumerate(counts, start=1) for t in range(1, c + 1))


def _place(p: int, counts, rest: frozenset[int], moves) -> set[int]:
    """The pushed-up display ``rest`` of ``counts`` with beads moved down by a sparse quotient.

    For each (j, kappa) in ``moves``, the t-th lowest bead of runner j moves kappa_t rows down.
    """
    betas = set(rest)
    for j, kappa in moves:
        c = counts[j - 1]
        if len(kappa) > c:
            raise ValueError(f"component {kappa} needs more than {c} beads on runner {j}")
        betas.difference_update([(c - t) * p + j for t in range(1, len(kappa) + 1)])
        betas.update([(c - t + part) * p + j for t, part in enumerate(kappa, start=1)])
    if len(betas) != len(rest):
        raise ValueError(f"expected {len(rest)} beads, got {len(betas)}")
    return betas


def _component(rows: tuple[int, ...]) -> Partition:
    """Bead weights of one runner's ascending rows, bottom bead first."""
    weights = [t - s for s, t in enumerate(rows, start=1)]  # ascending, zeros first
    del weights[:bisect_right(weights, 0)]
    weights.reverse()
    return tuple(weights)


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
        _require_modulus(self.p)
        _require_bead_count(self.r, len(self.occupied))
        if len(self.occupied) != self.r:
            raise ValueError(f"expected {self.r} beads, got {len(self.occupied)}")
        ordered = sorted(self.occupied)
        if ordered and ordered[0] < 1:
            raise ValueError("positions are 1-based")
        object.__setattr__(self, "rows", tuple([tuple(beads) for beads in _rows(ordered, self.p)]))

    @classmethod
    def from_partition(cls, la: Partition, p: int, r: int) -> "AbacusDisplay":
        la = partition(la)
        _require_bead_count(r, len(la))
        return cls(p, r, frozenset(_betas(la, r)))

    @staticmethod
    def partition_from_runners(p: int, counts, components) -> Partition:
        """The partition with ``counts[j-1]`` beads on runner j, displaced by ``components[j-1]``."""
        _require_modulus(p)
        if len(components) != len(counts):
            raise ValueError(f"{len(counts)} runner counts but {len(components)} components")
        moves = [(j, kappa) for j, kappa in enumerate(components, start=1) if kappa]
        return _decode_betas(_place(p, counts, _pushed(p, counts), moves), sum(counts))

    def to_partition(self) -> Partition:
        return _decode_betas(self.occupied, self.r)

    def runner(self, pos: int) -> int:
        return (pos - 1) % self.p + 1

    def beads_on_runner(self, i: int) -> list[int]:
        return [(t - 1) * self.p + i for t in self.rows[i - 1]]

    # -- runner-level data ----------------------------------------------------

    def counts(self) -> tuple[int, ...]:
        """Beads per runner, left to right."""
        return tuple([len(rows) for rows in self.rows])

    def components(self) -> tuple[Partition, ...]:
        """Bead weights per runner, bottom bead first: the left-to-right quotient.

        A runner whose last bead sits in the row of its bead count is not moved.
        """
        return tuple([_component(rows) if rows and rows[-1] != len(rows) else ()
                      for rows in self.rows])

    def weight(self) -> int:
        return _weight(self.rows)

    def core(self) -> Partition:
        """The p-core: every runner's beads pushed up into its top rows."""
        return _decode_betas(_pushed(self.p, self.counts()), self.r)

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
            left = self.rows[i - 2] if i > 1 else (1, *[t + 1 for t in self.rows[-1]])
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

    def render(self) -> str:
        """Text grid in the style of an abacus figure: runner header, then rows."""
        height = max((rows[-1] for rows in self.rows if rows), default=1) + 1
        lines = [" ".join(map(str, range(1, self.p + 1))), "-" * (2 * self.p - 1)]
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
    return _p_weight(partition(la), p)


def _p_weight(la: Partition, p: int) -> int:
    """:func:`p_weight` for a partition and an ``int`` p >= 2, unchecked: no display is built."""
    return _weight(_rows(_betas(la, default_bead_count(la, p)), p))


def rim_hook_removals(la: Partition, p: int) -> list[tuple[Partition, int]]:
    """One (smaller partition, leg length) pair per removable rim p-hook.

    Entries are ordered by the hook's hand, topmost hand first.  The leg
    length is the number of beta-numbers strictly between beta - p and beta.
    """
    display = AbacusDisplay.from_partition(la, p, default_bead_count(la, p))
    return [(display.push_up(m).to_partition(), display.leg_length(m))
            for m in reversed(display.rim_hook_beads())]


def rim_hook_leg_sum(la: Partition, p: int) -> int:
    """Total leg length over a complete rim p-hook removal, highest hand first.

    The walk moves the default display's beads, kept ascending, in place: the
    highest movable bead is the first found from the top, and a leg, the beads
    strictly between m - p and m, is a difference of two bisections.  Any other
    removal order (:func:`rim_hook_removals` lists them) gives the same parity.
    """
    la = partition(la)
    r = default_bead_count(la, p)
    betas = _betas(la, r)
    occupied = set(betas)
    total = 0
    while True:
        k = r - 1
        while k >= 0 and betas[k] > p and betas[k] - p in occupied:
            k -= 1
        if k < 0 or betas[k] <= p:
            return total
        m = betas[k]
        total += k - bisect_right(betas, m - p)
        del betas[k]
        insort(betas, m - p)
        occupied.remove(m)
        occupied.add(m - p)


def _quotient_display(la: Partition, p: int, r: int | None) -> AbacusDisplay:
    display = AbacusDisplay.from_partition(la, p, default_bead_count(la, p) if r is None else r)
    if display.r % p != 0:
        raise ValueError(f"bead count {r} is not a multiple of {p}")
    return display


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


def _pyramid(p: int, counts) -> Pyramid:
    """Runners, ``counts[j-1]`` beads on runner j, ordered by the first empty position."""
    q = tuple(sorted(c * p + j for j, c in enumerate(counts, start=1)))
    return Pyramid(p, q, tuple((m - 1) % p + 1 for m in q))


def _reordered(display: AbacusDisplay) -> tuple[PQuotient, Pyramid]:
    pyramid = _pyramid(display.p, display.counts())
    ltr = display.components()
    return PQuotient(tuple(ltr[runner - 1] for runner in pyramid.sigma), "reordered"), pyramid


def is_jm_fayers(la: Partition, p: int) -> bool:
    """Quotient/pyramid irreducibility test on the reordered display.

    With reordered quotient [mu_1, ..., mu_p] and pyramid B, the partition
    passes iff the interior components vanish, mu_1 is restricted and mu_p
    regular (both recursively passing), and the first row of mu_k plus the
    first column of mu_ell never exceeds B(k, ell) + 1.
    """
    _require_odd_prime(p)
    return _is_jm_fayers(partition(la), p)


def _is_jm_fayers(la: Partition, p: int) -> bool:
    """:func:`is_jm_fayers` for a partition and an odd prime, unchecked.

    The runner rows of the default display are read without building it.  A runner's
    component vanishes iff its last bead sits in the row of its bead count, so the weight
    is 0 iff no runner is moved, and the interior components vanish iff only the runners
    with the least and the greatest first empty position q are.  Then each pair
    1 < k < ell < p bounds 0 by B(k, ell) + 1 >= 1.  As q ascends, B(1, ell) does not
    decrease in ell and B(k, p) does not increase in k, so of the remaining bounds only
    B(1, 2), B(p-1, p) and B(1, p) can bind.
    """
    rows = _rows(_betas(la, default_bead_count(la, p)), p)
    moved = [j for j, beads in enumerate(rows) if beads and beads[-1] != len(beads)]
    if not moved:
        return True
    q = sorted([len(beads) * p + j for j, beads in enumerate(rows)])
    lo, hi = q[0] % p, q[-1] % p
    if any(j != lo and j != hi for j in moved):
        return False
    first, last = _component(rows[lo]), _component(rows[hi])
    first_row, first_col = (first[0] if first else 0), len(last)
    if (first_row > (q[1] - q[0]) // p + 1 or first_col > (q[-1] - q[-2]) // p + 1
            or first_row + first_col > (q[-1] - q[0]) // p + 1):
        return False
    return (is_p_restricted(first, p) and _is_jm_fayers(first, p)
            and is_p_regular(last, p) and _is_jm_fayers(last, p))
