"""Command-line surface: inspect a partition, enumerate blocks, verify theorems."""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import abacus, blocks, hooks, verify
from .mullineux import mullineux as mullineux_image  # noqa: F401  (bench/test_bench.py checks its tracing)
from .mullineux import MullineuxSymbol, _flipped, _rebuild, mullineux_symbol, parity
from .partitions import (
    addable_nodes,
    conjugate,
    format_partition,
    good_nodes,
    is_hook,
    is_p_regular,
    is_p_restricted,
    normal_nodes,
    parse_partition,
    removable_nodes,
)

DEFAULT_PRIMES = (5, 7, 11)
DEEP_PRIME = 13


def _prime_arg(text: str) -> int:
    try:
        p = int(text)
        blocks.require_block_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"p={text} rejected: {exc}") from None
    return p


def _partition_arg(text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(payload: dict, as_json: bool, text: str | None) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def _inspect_record(la, p: int) -> dict:
    display = abacus.AbacusDisplay.from_partition(la, p, abacus.default_bead_count(la, p))
    core = display.core()
    in_principal = sum(la) == 3 * p and core == ()
    # Principal-block partitions are shown on their 3p-bead display, as in the
    # block figures; everything else uses the least multiple of p that fits.
    if in_principal and display.r != 3 * p:
        display = abacus.AbacusDisplay.from_partition(la, p, 3 * p)
    reordered, pyramid = abacus._reordered(display)
    record = {
        "partition": list(la),
        "size": sum(la),
        "conjugate": list(conjugate(la)),
        "p_regular": is_p_regular(la, p),
        "p_restricted": is_p_restricted(la, p),
        "core": list(core),
        "weight": reordered.total(),
        "display": display.to_json_dict(),
        "quotient": [list(c) for c in display.components()],
        "reordered_quotient": [list(c) for c in reordered.components],
        "pyramid": {
            "q": list(pyramid.q),
            "runner_labels": list(pyramid.runner_labels()),
            "nonzero": {f"{k},{l}": b for (k, l), b in pyramid.nonzero_entries().items()},
        },
        "hook_diagram": hooks.hook_lengths(la),
        "p_power_diagram": hooks.p_power_diagram(la, p),
        "jm_direct": hooks.is_jm_direct(la, p),
        "jm_fayers": abacus.is_jm_fayers(la, p),
        "parity": parity(la, p),
        "removable_nodes": [list(n) for n in removable_nodes(la)],
        "addable_nodes": [list(n) for n in addable_nodes(la)],
        "normal_nodes": [list(n) for n in normal_nodes(la, p)],
        "good_nodes": [list(n) for n in good_nodes(la, p)],
    }
    if record["p_regular"]:
        symbol = mullineux_symbol(la, p)
        record["mullineux"] = list(_rebuild(*_flipped(symbol.a, symbol.r, p), p))
        record["mullineux_symbol"] = symbol.to_json_dict()
    if in_principal:
        length, reason = blocks.loewy_length_detail(la, p)
        record["notation"] = str(blocks.to_3p(la, p))
        record["loewy_length"] = length
        record["loewy_reason"] = reason
        record["tau"] = blocks.tau(la)
        record["tau_p"] = blocks.tau_p(la, p)
    return record


def _inspect_text(record: dict, p: int, provenance: bool) -> str:
    la = tuple(record["partition"])
    lines = [f"partition {format_partition(la)}  (n={record['size']}, p={p})"]
    lines.append(f"conjugate          {format_partition(tuple(record['conjugate']))}")
    lines.append(f"{p}-regular          {record['p_regular']}")
    lines.append(f"{p}-restricted       {record['p_restricted']}")
    lines.append(f"{p}-core / weight    {format_partition(tuple(record['core']))} / {record['weight']}")
    if "notation" in record:
        lines.append(f"block notation     {record['notation']}")
        loewy = f"loewy length       {record['loewy_length']}"
        if provenance:
            loewy += f"  [{record['loewy_reason']}]"
        lines.append(loewy)
        lines.append(f"tau / tau_p        {record['tau']} / {record['tau_p']}")
    lines.append(f"parity             {'+1' if record['parity'] == 1 else '-1'}")
    lines.append(f"irreducible        diagram-test={record['jm_direct']} quotient-test={record['jm_fayers']}")
    if "mullineux" in record:
        lines.append(f"mullineux image    {format_partition(tuple(record['mullineux']))}")
        sym = MullineuxSymbol(**{k: tuple(v) for k, v in record["mullineux_symbol"].items()})
        sym = sym.format().splitlines()
        lines.append(f"mullineux symbol   {sym[0]}")
        lines.append(f"                   {sym[1]}")
    def nodes(key):
        return " ".join(f"({i},{j})" for i, j in record[key]) or "-"
    lines.append(f"removable nodes    {nodes('removable_nodes')}")
    lines.append(f"addable nodes      {nodes('addable_nodes')}")
    lines.append(f"normal nodes       {nodes('normal_nodes')}")
    lines.append(f"good nodes         {nodes('good_nodes')}")
    lines.append(f"quotient           {[list(c) for c in record['quotient']]}")
    lines.append(f"reordered quotient {[list(c) for c in record['reordered_quotient']]}")
    pyr = record["pyramid"]
    lines.append(f"pyramid q          {pyr['q']}")
    lines.append(f"runner labels      {pyr['runner_labels']}")
    lines.append(f"pyramid nonzero    {pyr['nonzero'] or '{}'}")
    lines.append("")
    display = abacus.AbacusDisplay(p, record["display"]["r"],
                                   frozenset(record["display"]["occupied"]))
    lines.append(display.render())
    lines.append("")
    lines.append("hook lengths:")
    lines.append(hooks.format_diagram(record["hook_diagram"]))
    lines.append(f"{p}-power diagram:")
    lines.append(hooks.format_diagram(record["p_power_diagram"]))
    return "\n".join(lines)


def cmd_inspect(args) -> int:
    record = _inspect_record(args.partition, args.p)
    payload = {"p": args.p, "command": "inspect", "results": [record]}
    text = None if args.json else _inspect_text(record, args.p, args.provenance)
    _emit(payload, args.json, text)
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def _block_label(spec: str, p: int):
    if spec == "principal":
        return blocks.principal_block(p)
    match = re.fullmatch(r"[Bb](\d+)", spec)
    if not match:
        raise argparse.ArgumentTypeError(f"block spec {spec!r}: use 'principal' or 'B<i>' with 1 <= i <= p")
    try:
        return blocks.restriction_block(p, int(match.group(1)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"block spec {spec!r}: {exc}") from None


def _enumerate_record(la, label) -> dict:
    p = label.p
    record = {
        "partition": list(la),
        "p_regular": is_p_regular(la, p),
        "p_restricted": is_p_restricted(la, p),
        "hook": is_hook(la),
        "jm": abacus.is_jm_fayers(la, p),
    }
    if label.weight == 3:
        record["notation"] = str(blocks.to_3p(la, p))
        record["loewy"] = blocks.loewy_length(la, p)
        record["parity"] = parity(la, p)
    elif label.weight == 2:
        i = label.core[0] + 1  # core is (i-1, 1^(p-i))
        record["notation"] = str(blocks.encode_notation(la, p, blocks.counts_3p(p, i)))
    return record


def _matches(record: dict, filt: str) -> bool:
    if filt == "jm":
        return record["jm"]
    if filt == "regular":
        return record["p_regular"]
    if filt == "restricted":
        return record["p_restricted"]
    if filt == "hook":
        return bool(record["hook"])
    match = re.fullmatch(r"loewy=([1-4])", filt)
    if match:
        if "loewy" not in record:
            raise ValueError(f"filter {filt!r} needs the principal block: only its Loewy lengths are classified")
        return record["loewy"] == int(match.group(1))
    raise argparse.ArgumentTypeError(
        f"unknown filter {filt!r}: use jm, regular, restricted, hook or loewy=<1-4>")


def cmd_enumerate(args) -> int:
    label = _block_label(args.block, args.p)
    records = [_enumerate_record(la, label) for la in blocks.enumerate_block(label)]
    if args.filter:
        records = [rec for rec in records if _matches(rec, args.filter)]
    payload = {"p": args.p, "command": "enumerate", "block": args.block, "results": records}
    header = f"{'partition':<28} {'notation':<12} {'reg':<5} {'restr':<5} {'jm':<5}"
    if label.weight == 3:
        header += f" {'loewy':<5} {'parity':<6}"
    lines = [header, "-" * len(header)]
    for rec in records:
        line = (f"{format_partition(tuple(rec['partition'])):<28} {rec.get('notation', '-'):<12} "
                f"{str(rec['p_regular']):<5} {str(rec['p_restricted']):<5} {str(rec['jm']):<5}")
        if label.weight == 3:
            line += f" {rec['loewy']:<5} {'+1' if rec['parity'] == 1 else '-1':<6}"
        lines.append(line)
    lines.append(f"({len(records)} partitions)")
    _emit(payload, args.json, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.theorem == "all":
        names = None
    elif args.theorem in verify.CHECKS:
        names = [args.theorem]
    else:
        print(f"unknown theorem {args.theorem!r}; known: {', '.join(sorted(verify.CHECKS))}",
              file=sys.stderr)
        return 2
    primes = [args.p] if args.p else list(DEFAULT_PRIMES) + ([DEEP_PRIME] if args.deep else [])
    reports = [verify.run_checks(p, names) for p in primes]
    payload = {"p": primes[0] if len(primes) == 1 else primes, "command": "verify",
               "results": [rep.to_json_dict() for rep in reports]}
    lines = []
    for rep in reports:
        lines.append(f"p = {rep.p}")
        for check in rep.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{status}] {check.name:<22} ({check.elapsed:6.2f}s)  {check.detail}")
            if not check.passed:
                lines.append(f"         counterexample: {check.counterexample}")
    ok = all(rep.all_passed for rep in reports)
    lines.append("all checks passed" if ok else "verification FAILED")
    _emit(payload, args.json, "\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pblock",
        description="Partition, abacus and block combinatorics for symmetric groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    insp = sub.add_parser("inspect", help="full report on one partition")
    insp.add_argument("partition", type=_partition_arg,
                      help="comma-separated parts, e.g. 5,4,3,2,1 ('-' for empty)")
    insp.add_argument("--p", type=_prime_arg, required=True)
    insp.add_argument("--json", action="store_true")
    insp.add_argument("--provenance", action="store_true",
                      help="show which classifier clause decided the Loewy length")
    insp.set_defaults(func=cmd_inspect)

    enum = sub.add_parser("enumerate", help="list a block with classification columns")
    enum.add_argument("block", help="'principal' or 'B<i>'")
    enum.add_argument("--p", type=_prime_arg, required=True)
    enum.add_argument("--json", action="store_true")
    enum.add_argument("--filter", default=None,
                      help="jm, regular, restricted, hook or loewy=<1-4>")
    enum.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="run the exhaustive theorem checks")
    ver.add_argument("--p", type=_prime_arg, default=None,
                     help=f"single prime (default: sweep {DEFAULT_PRIMES})")
    ver.add_argument("--theorem", default="all",
                     help="check name or 'all' (see README for the list)")
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--deep", action="store_true",
                     help=f"include p={DEEP_PRIME} in the default sweep")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
