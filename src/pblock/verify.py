"""Named verification sweeps over whole blocks, with pass/fail reporting.

Every check is exhaustive over its stated domain and deterministic; a failing
check always carries a concrete counterexample.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import chain, product
from types import MappingProxyType

from .abacus import _is_jm_fayers, _mask, _normal_beads, _p_weight
from .blocks import (
    BeadNotation,
    _partners,
    _theta,
    classify_3p,
    counts_3p,
    counts_223,
    decode_notation,
    enumerate_block,
    from_3p,
    irreducible_set_X,
    loewy_length,
    loewy_length_detail,
    partners,
    principal_block,
    require_block_prime,
    restriction_block,
    sigma_partner,
    tau,
    tau_p,
    theta,
)
from .hooks import _is_jm_direct
from .mullineux import (
    MullineuxSymbol,
    _good_node_sides,
    _mullineux,
    mullineux,
    mullineux_symbol,
    parity,
)
from .partitions import (
    Partition,
    _require_odd_prime,
    _without,
    format_partition,
    is_p_regular,
    is_p_restricted,
    normal_nodes,
    partitions_of,
    removable_nodes,
)


class CheckFailure(Exception):
    def __init__(self, counterexample: str, message: str):
        super().__init__(message)
        self.counterexample = counterexample
        self.message = message


def _fail(la, message: str):
    text = format_partition(la) if isinstance(la, tuple) else str(la)
    raise CheckFailure(text, message)


def _N2(*runners) -> BeadNotation:
    return BeadNotation(2, runners)


def _N3(*runners) -> BeadNotation:
    return BeadNotation(3, runners)


@dataclass(frozen=True)
class _PrincipalTable:
    """What the checks share about the principal block at one prime.

    ``members`` is descending lex; ``images`` maps each regular member, in that order, to
    its Mullineux image, and ``both`` lists the regular and restricted ones.  The table holds
    each partition once: an image is the member equal to it, or kept as computed if none is.
    """

    members: tuple[Partition, ...]
    both: tuple[Partition, ...]
    images: MappingProxyType[Partition, Partition]


def _position(ordered: tuple[Partition, ...], la: Partition) -> int:
    """Index of ``la`` in a descending tuple of partitions, or -1: a bisection."""
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] > la:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo < len(ordered) and ordered[lo] == la else -1


def _interned(ordered: tuple[Partition, ...], la: Partition) -> Partition:
    """The member of ``ordered`` equal to ``la``, or ``la`` itself if there is none."""
    at = _position(ordered, la)
    return la if at < 0 else ordered[at]


@functools.lru_cache(maxsize=1)  # one prime at a time: a sweep drops a table before building the next
def _principal_table(p: int) -> _PrincipalTable:
    members = enumerate_block(principal_block(p))
    images = {la: _interned(members, _mullineux(la, p)) for la in members if is_p_regular(la, p)}
    both = tuple(la for la in images if is_p_restricted(la, p))
    return _PrincipalTable(members, both, MappingProxyType(images))


def _loewy2_families(p: int) -> dict[str, frozenset[BeadNotation]]:
    """The paper's four families of <3^p> placements whose Specht modules have Loewy length 2."""
    return {
        "single-bead": frozenset(_N3(i) for i in range(1, p)),
        "triple-repeat": frozenset(_N3(i, i, i) for i in range(2, p + 1)),
        "double-repeat": frozenset(_N3(i, i) for i in range(1, p + 1)),
        "exceptional": frozenset({_N3(p, p - 1), _N3(p - 1, p), _N3(2, 2, 1), _N3(2, 1, 1)}),
    }


# ---------------------------------------------------------------------------
# Individual checks: each returns a detail string or raises CheckFailure.
# ---------------------------------------------------------------------------

def check_jm_classification(p: int) -> str:
    block = _principal_table(p).members
    expected = {(3 * p,), (1,) * (3 * p)}
    passing = {la for la in block if _is_jm_fayers(la, p)}
    if passing != expected:
        _fail(sorted(passing ^ expected)[0], "quotient test passes off the expected pair")
    return f"{len(block)} partitions; only the row and column pass"


def check_xi_sets(p: int) -> str:
    for i in range(2, p + 1):
        expected = set(_induced_pairs(p, i))
        got = set(irreducible_set_X(p, i))
        if got != expected:
            _fail(f"B_{i}: " + ", ".join(map(str, sorted(got ^ expected))),
                  f"irreducible set of B_{i} differs from the classified list")
    return f"irreducible sets of B_2..B_{p} match the classified lists"


def check_prop31(p: int) -> str:
    block = _principal_table(p).members
    # One pass classifies each member once and keeps only the small sets that
    # clauses (5)-(8) compare.  ``marks`` follows the block's order: 1 for a
    # regular&restricted member, raised to 2 once (1)-(3) decode it.
    marks = bytearray(len(block))
    sc, neither, hooks, rnh = set(), set(), set(), set()
    for k, la in enumerate(block):
        flags = classify_3p(la, p)
        regular, restricted, hook = flags["p_regular"], flags["p_restricted"], flags["hook"]
        marks[k] = regular and restricted
        if flags["self_conjugate"]:
            sc.add(la)
        if not regular and not restricted:
            neither.add(la)
        if hook:
            hooks.add(la)
        elif regular and not restricted:
            rnh.add(la)

    # (1)-(3) as rows (runners, regular&restricted?, rule).  The runners are
    # kept as written: _N3 would print <i,i,j> sorted.
    excluded = {(3, 2, 1), (p, p - 1, p - 2)}
    rows = chain(
        (((i, j), i < j <= p - 1, "two-index regular&restricted")
         for i, j in product(range(1, p + 1), repeat=2)),
        (((i, i, j), 2 <= j < i, "repeated-index")
         for i, j in product(range(1, p + 1), repeat=2) if i != j),
        (((i, j, k), (i, j, k) not in excluded, "distinct-index")
         for i in range(3, p + 1) for j in range(2, i) for k in range(1, j)),
    )
    for runners, expected, rule in rows:
        la = from_3p(_N3(*runners), p)
        k = _position(block, la)
        hit = k >= 0 and marks[k] > 0
        if hit != expected:
            _fail(la, f"<{','.join(map(str, runners))}> contradicts the {rule} rule")
        if hit:
            marks[k] = 2
    # (4) the three families exhaust the regular&restricted partitions.  By
    # (1)-(3) they are the regular&restricted placements decoded there; the
    # least member left unmarked is the last in the block's descending order.
    if 1 in marks:
        _fail(block[marks.rindex(1)], "regular&restricted set differs from the three families")
    # (5) self-conjugates: a placement is fixed by conjugation exactly when its
    # runner multiset is symmetric about (p+1)/2.
    half = (p + 1) // 2
    sc_family = {from_3p(_N3(half, half), p)}
    sc_family |= {from_3p(_N3(p + 1 - m, half, m), p) for m in range(1, (p - 1) // 2 + 1)}
    if sc != sc_family:
        _fail(sorted(sc ^ sc_family)[0], "self-conjugate set differs from the symmetric forms")
    # (6) neither regular nor restricted: exactly <i,i>, equal to (p+i, 1^(2p-i)).
    for i in range(1, p + 1):
        la = from_3p(_N3(i, i), p)
        if la != (p + i,) + (1,) * (2 * p - i):
            _fail(la, f"<{i},{i}> is not the expected hook")
    if neither != {from_3p(_N3(i, i), p) for i in range(1, p + 1)}:
        _fail(sorted(neither)[0], "neither-regular-nor-restricted set is not the <i,i> family")
    # (7) hooks.
    hooks_family = {from_3p(nota, p) for i in range(1, p + 1)
                    for nota in (_N3(i), _N3(i, i), _N3(i, i, i))}
    if hooks != hooks_family:
        _fail(sorted(hooks ^ hooks_family)[0], "hook set differs from the three bead shapes")
    # (8) regular, not restricted, not a hook.
    rnh_family = {from_3p(_N3(i, p), p) for i in range(1, p)}
    rnh_family |= {from_3p(_N3(i, j), p) for i in range(2, p + 1) for j in range(1, i)}
    rnh_family.add(from_3p(_N3(p, p - 1, p - 2), p))
    if rnh != rnh_family:
        _fail(sorted(rnh ^ rnh_family)[0], "regular-not-restricted non-hooks differ from the families")
    return f"all eight clauses hold over {len(block)} partitions"


def check_prop212(p: int) -> str:
    # (1)-(4) as rows (placement, (removable, normal) node counts).
    rows = chain(
        ((_N3(i, p), (2, 1) if i in (1, p - 1) else (3, 2)) for i in range(1, p)),
        ((_N3(i, 1), (2 if i == 2 else 3, 1)) for i in range(2, p + 1)),
        ((_N3(j + 1, j), (2 if j == p - 1 else 3, 2)) for j in range(2, p)),
        ((_N3(i, j), (3 if i == p else 4, 2)) for i in range(4, p + 1) for j in range(2, i - 1)),
    )
    for nota, (removable, normal) in rows:
        la = from_3p(nota, p)
        if tau(la) != removable or tau_p(la, p) != normal:
            _fail(la, f"{nota} node counts differ")
    # (5) normal-node ceiling for regular partitions.
    spread = set()
    if p >= 7:
        spread = {from_3p(_N3(i, j, k), p)
                  for i in range(3, p + 1) for j in range(2, i - 1) for k in range(2, j - 1)}
    for la in _principal_table(p).images:
        count = tau_p(la, p)
        if p == 5 and count > 2:
            _fail(la, "a 5-regular partition with more than two normal nodes")
        if p >= 7 and ((count == 3) != (la in spread) or count > 3):
            _fail(la, "normal-node count contradicts the spread-out-triple rule")
    aside = from_3p(_N3(2, 1), p)
    return (f"families (1)-(4) and the ceiling hold; "
            f"outside the stated range, <2,1> has {tau(aside)} removable "
            f"and {tau_p(aside, p)} normal nodes")


def check_lemma34(p: int) -> str:
    exceptional = from_3p(_N3(1, 2), p)
    both = _principal_table(p).both
    for la in both:
        witnesses = []
        for node in removable_nodes(la):
            smaller = _without(la, node)
            if (_p_weight(smaller, p) == 2 and is_p_regular(smaller, p)
                    and is_p_restricted(smaller, p)):
                witnesses.append(node)
        if not witnesses:
            _fail(la, "no removable node keeps weight 2 plus regular&restricted")
        normal = set(normal_nodes(la, p))
        has_normal_witness = any(node in normal for node in witnesses)
        if has_normal_witness != (la != exceptional):
            _fail(la, "normal-witness existence contradicts the single exception")
    return f"{len(both)} regular&restricted partitions have the stated witnesses"


def check_mullineux_conformance(p: int) -> str:
    source = from_3p(_N3(p, p - 1, p - 3), p)
    symbol = mullineux_symbol(source, p)
    if symbol.a != (p + 1, p, p - 1) or symbol.r != (4, 3, 3):
        _fail(source, f"symbol of <{p},{p-1},{p-3}> is {symbol.a};{symbol.r}")
    target = from_3p(_N3(3, 5), p) if p == 5 else from_3p(_N3(6, 5, 3), p)
    if mullineux(source, p) != target:
        _fail(source, "image of the worked triple placement is off")
    if p == 5:
        if mullineux_symbol((8, 6, 1), 5) != MullineuxSymbol((6, 5, 4), (3, 2, 2)):
            _fail((8, 6, 1), "symbol of (8,6,1) is off")
        if mullineux((5, 4, 3, 2, 1), 5) != (7, 5, 2, 1):
            _fail((5, 4, 3, 2, 1), "image of the staircase is off")
        second_layer = {(8, 6, 1), (6, 6, 1, 1, 1), (6, 4, 2, 2, 1),
                        (5, 5, 5), (5, 5, 3, 1, 1), (5, 4, 4, 2)}
        third_layer = {(5, 5, 4, 1), (7, 4, 2, 2), (6, 5, 2, 1, 1),
                       (9, 6), (8, 5, 2), (7, 6, 1, 1)}
        if {mullineux(la, 5) for la in second_layer} != third_layer:
            _fail(sorted(second_layer)[0], "the six-element layer does not map onto its twin")
    table = _principal_table(p)
    for la, image in table.images.items():
        if table.images.get(image) != la:
            _fail(la, "not an involution on the block")
    # Each pair {la, image} once, at its first member in block order (descending lex).
    failing = [mu for la, image in table.images.items() if image <= la
               for mu, holds in zip((la, image), _good_node_sides(la, image, p)) if not holds]
    if failing:  # name the first in block order, as a walk over every member would
        _fail(max(failing), "good nodes do not pair off with negated residues")
    return f"worked symbols and images match; involution holds on {len(table.images)} block partitions"


def check_parity_flip(p: int) -> str:
    table = _principal_table(p)
    for la, image in table.images.items():
        if image > la and table.images.get(image) == la:
            continue  # the pair was checked at its first member, ``image``
        if parity(image, p) == parity(la, p):
            _fail(la, "image has the same parity")
    return f"parity flips under the involution for all {len(table.images)} regular partitions"


def check_theta_table(p: int) -> str:
    # Restriction images of <i,1> and of spread-out <i,j> (gap i - j >= 2), as rows
    # (placement, target block B_s, image in the target notation).
    rows = chain(
        ((_N3(i, 1), s, expected) for i in range(3, p)
         for s, expected in ((2, _N2(i - 1)), (i, _N2(p, p - i + 2)), (i + 1, _N2(p, p - i + 1)))),
        ((_N3(i, j), s, expected) for j in range(2, p) for i in range(j + 2, p)
         for s, expected in ((j, _N2(i - j + 1)), (j + 1, _N2(i - j)),
                             (i, _N2(p, p - i + j + 1)), (i + 1, _N2(p, p - i + j)))),
    )
    for nota, s, expected in rows:
        la = from_3p(nota, p)
        if theta(la, p, s) != decode_notation(expected, p, counts_223(p, s)):
            _fail(la, f"restriction of {nota} to B_{s} is not {expected}")
    # One walk over the block, in descending order.  On the normal-bead
    # domain of each runner, restriction preserves regularity (the bead
    # criterion applies verbatim to singular partitions; a merely removable
    # bead is not enough, since pushing it can erase the repeated part) and,
    # on regular partitions, the order: each image lies below the previous one.
    previous: dict[int, Partition] = {}
    for la in _principal_table(p).members:
        regular = is_p_regular(la, p)
        for i in sorted({(m - 1) % p + 1 for m in _normal_beads(_mask(la, 3 * p), p)}):
            image = _theta(la, p, i)
            if regular != is_p_regular(image, p):
                _fail(la, f"regularity flips under restriction to B_{i}")
            if regular:
                if i in previous and not previous[i] > image:
                    _fail(la, f"restriction to B_{i} is not order-preserving")
                previous[i] = image
    return "restriction table, monotonicity and regularity preservation hold"


def _induced_pairs(p: int, i: int) -> dict[BeadNotation, tuple[BeadNotation, BeadNotation]]:
    pairs = {_N2(i, i): (_N3(i, i, i), _N3(i - 1, i - 1, i - 1)),
             _N2(i - 1): (_N3(i), _N3(i - 1)),
             _N2(i, i - 1): (_N3(i, i), _N3(i - 1, i - 1))}
    if i == 2:
        pairs[_N2(2)] = (_N3(2, 2, 1), _N3(2, 1, 1))
    if i == p:
        pairs[_N2(p - 1, p - 1)] = (_N3(p, p - 1), _N3(p - 1, p))
    return pairs


def check_partner_counts(p: int) -> str:
    block = set(_principal_table(p).members)
    for i in range(1, p + 1):
        expected = 3 if i == 1 else 2
        for la_tilde in enumerate_block(restriction_block(p, i)):
            found = _partners(la_tilde, p, i)
            if len(found) != expected:
                _fail(la_tilde, f"{len(found)} partners over B_{i}, expected {expected}")
            if not block.issuperset(found):
                _fail(la_tilde, f"a partner over B_{i} lies outside the principal block")
    top = from_3p(_N3(p, p - 1), p)
    if sigma_partner(top, p, p) != from_3p(_N3(p - 1, p), p):
        _fail(top, "sigma partner of the <p,p-1> placement is off")
    for i in range(2, p + 1):
        counts = counts_3p(p, i)
        for key, (upper, lower) in _induced_pairs(p, i).items():
            la_tilde = decode_notation(key, p, counts)
            expected_pair = (from_3p(upper, p), from_3p(lower, p))
            if partners(la_tilde, p, i) != expected_pair:
                _fail(la_tilde, f"induced pair over B_{i} for {key} is not ({upper}, {lower})")
    return "partner counts, the sigma example and all induced pairs match"


def check_loewy_partition(p: int) -> str:
    # The classifier's family rule against the families as the paper lists them.
    length2 = {from_3p(nota, p): family
               for family, members in _loewy2_families(p).items() for nota in members}
    if len(length2) != 3 * p + 2:
        _fail(sorted(length2)[0], "length-2 families overlap or have the wrong cardinality")

    table = _principal_table(p)
    block, both = table.members, table.both
    # One pass counts the classes and keeps the members of lengths 1 and 2.  The
    # length-4 class is walked against ``both``, a subsequence of the block in
    # the same order; ``stray`` ends on the least member where the two differ.
    sizes = dict.fromkeys((1, 2, 3, 4), 0)
    small: dict[int, set[Partition]] = {1: set(), 2: set()}
    stray, k = None, 0
    for la in block:
        length = loewy_length(la, p)
        if length not in sizes:
            _fail(la, "classes do not partition the block")
        sizes[length] += 1
        if length in small:
            small[length].add(la)
        listed = k < len(both) and both[k] == la
        k += listed
        if (length == 4) != listed:
            stray = la
    if small[1] != (extreme := {(3 * p,), (1,) * (3 * p)}):
        _fail(sorted(small[1] ^ extreme)[0], "length-1 class is not the extreme pair")
    if small[2] != length2.keys():
        _fail(sorted(small[2] ^ length2.keys())[0], "length-2 class differs from its families")
    for la, family in length2.items():
        if loewy_length_detail(la, p)[1] != f"length-2 family '{family}'":
            _fail(la, f"length-2 clause does not name the '{family}' family")
    if stray is not None:
        _fail(stray, "length-4 class is not the regular&restricted set")
    spot = from_3p(_N3(p, p - 1, p - 2), p)
    if loewy_length(spot, p) != 3:
        _fail(spot, "the excluded triple placement should have length 3")
    if p == 5 and loewy_length((5, 4, 3, 2, 1), 5) != 4:
        _fail((5, 4, 3, 2, 1), "the staircase should have length 4")
    return (f"classes of sizes {list(sizes.values())} "
            f"partition the {len(block)} block partitions")


def check_oracle_equivalence(p: int) -> str:
    _require_odd_prime(p)
    checked = 0
    for n in range(28 + 1):
        for la in partitions_of(n):
            checked += 1
            if _is_jm_direct(la, p) != _is_jm_fayers(la, p):
                _fail(la, "power-diagram and quotient tests disagree")
    return f"both irreducibility tests agree on {checked} partitions (n <= 28)"


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CHECKS = {
    "jm-classification": check_jm_classification,
    "xi-sets": check_xi_sets,
    "prop31": check_prop31,
    "prop212": check_prop212,
    "lemma34": check_lemma34,
    "mullineux-conformance": check_mullineux_conformance,
    "parity-flip": check_parity_flip,
    "theta-table": check_theta_table,
    "partner-counts": check_partner_counts,
    "loewy-partition": check_loewy_partition,
    "oracle-equivalence": check_oracle_equivalence,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: str | None
    detail: str
    elapsed: float

    def to_json_dict(self) -> dict:
        return {"name": self.name, "status": "pass" if self.passed else "fail",
                "counterexample": self.counterexample, "detail": self.detail,
                "elapsed": round(self.elapsed, 3)}


@dataclass(frozen=True)
class VerificationReport:
    p: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "checks": [c.to_json_dict() for c in self.checks]}


def run_checks(p: int, names=None) -> VerificationReport:
    """Run the named checks (all of them by default), ordered by check name."""
    require_block_prime(p)
    if names is None:
        names = sorted(CHECKS)
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    results = []
    for name in sorted(names):
        start = time.monotonic()
        try:
            detail = CHECKS[name](p)
            results.append(CheckResult(name, True, None, detail, time.monotonic() - start))
        except CheckFailure as failure:
            results.append(CheckResult(name, False, failure.counterexample,
                                       failure.message, time.monotonic() - start))
    return VerificationReport(p, tuple(results))
