"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the repo root."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pblock  # noqa: E402
from pblock import abacus, blocks, cli, hooks, partitions, verify  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

mullineux = spans.submodule(pblock, "mullineux")


def test_inputs_are_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build("inspect-stream", 7) != workloads.build("inspect-stream", 8)


def test_inspect_stream_composition():
    pool = workloads.inspect_pool()
    picks = workloads.inspect_stream(3, pool)
    n_principal = len(pool) - workloads.RANDOM_POOL_SIZE
    assert len(picks) == workloads.STREAM_LENGTH
    assert sum(i < n_principal for i in picks) == workloads.STREAM_LENGTH // 2
    for i in picks:
        p, la = pool[i]
        assert p in workloads.PRIMES
        assert list(la) == sorted(la, reverse=True) and min(la) >= 1
        if i < n_principal:
            assert sum(la) == 3 * p
        else:
            assert workloads.N_MIN <= sum(la) <= workloads.N_MAX


@pytest.mark.parametrize("p", workloads.PRIMES)
def test_generated_principal_block_matches_the_library(p):
    assert workloads.principal_block(p) == list(blocks.enumerate_block(blocks.principal_block(p)))


def test_references_cover_the_pool_and_the_verify_primes():
    assert len(workloads.load_inspect_reference()) == len(workloads.inspect_pool())
    details = workloads.load_verify_reference()
    for _, primes in workloads.VERIFY_CALLS.values():
        for p in primes:
            assert set(details[p]) == set(verify.CHECKS)


def _sample_outputs():
    la = (6, 4, 2, 2, 1)
    p = 5
    principal = (5, 4, 3, 2, 1)
    return [
        abacus.p_core(la, p), abacus.p_weight(la, p),
        abacus.AbacusDisplay.from_partition(la, p, 10),
        abacus.AbacusDisplay.from_partition(principal, p, 15).normal_beads(),
        abacus.reordered_quotient(la, p), abacus.is_jm_fayers(la, p),
        pblock.is_jm_fayers((15,), p),
        len(blocks.enumerate_block(blocks.principal_block(p))),
        blocks.to_3p(principal, p), blocks.from_3p(blocks.to_3p(principal, p), p),
        blocks.classify_3p(principal, p), blocks.theta(principal, p, 2),
        blocks.in_lambda_set(principal, p, 2), blocks.partners(blocks.theta(principal, p, 2), p, 2),
        blocks.loewy_length(principal, p),
        blocks.encode_notation(principal, p, (3,) * p),
        blocks.decode_notation(blocks.BeadNotation(3, (2, 1)), p, (3,) * p),
        hooks.is_jm_direct(la, p), hooks.hook_lengths(la),
        list(partitions.partitions_of(8)), partitions.normal_nodes(la, p),
        mullineux.mullineux(principal, p), mullineux.mullineux_symbol(principal, p),
        mullineux.partition_from_symbol(mullineux.mullineux_symbol(principal, p), p),
        mullineux.parity(la, p), mullineux.check_good_node_compatibility(principal, p),
        verify.CHECKS["prop212"](p),
    ]


def test_span_wrappers_return_identical_values(capsys):
    plain = _sample_outputs()
    cli.main(["inspect", "6,4,2,2,1", "--p", "5", "--json"])
    plain_cli = capsys.readouterr().out
    tracer = spans.Tracer()
    tracer.install(pblock)
    try:
        assert blocks.p_core is abacus.p_core and blocks.p_core.__wrapped__ is not None
        assert cli.mullineux_image is mullineux.mullineux
        traced = _sample_outputs()
        cli.main(["inspect", "6,4,2,2,1", "--p", "5", "--json"])
        traced_cli = capsys.readouterr().out
        report = tracer.report()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert traced_cli == plain_cli
    assert not hasattr(abacus.p_core, "__wrapped__")
    for module, names in spans.TRACED.items():
        for name in names:
            assert report[f"{module}.{name}.calls"] >= 1, (module, name)
    assert report["verify.prop212.calls"] == 1
    assert set(report) >= {f"{module}.self_s" for module in spans.MODULES}


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(range(n))

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def outer(n):
        return [traced_leaf(n) for _ in range(3)] + [sum(range(n))]

    traced_outer = tracer.wrap("n.outer", outer)
    assert traced_outer(20000) == [sum(range(20000))] * 4
    report = tracer.report()
    assert report["m.leaf.calls"] == 3
    assert report["n.outer.calls"] == 1
    assert report["m.self_s"] + report["n.self_s"] == pytest.approx(report["n.outer.s"])
    assert 0 < report["n.self_s"] < report["n.outer.s"]


def test_recursion_opens_no_nested_span():
    tracer = spans.Tracer()
    calls = []

    def fact(n):
        calls.append(n)
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("m.fact", fact)
    assert traced(6) == 720
    report = tracer.report()
    assert report["m.fact.calls"] == 6
    assert report["m.self_s"] == pytest.approx(report["m.fact.s"])


def test_gate_counts_each_mismatch():
    expect = {5: {"prop31": "ok", "xi-sets": "fine"}}
    result = {"rc": 0, "checks": [[5, "prop31", "pass", "ok", None],
                                  [5, "xi-sets", "pass", "changed", None]]}
    assert run.failed_operations(result, expect)[0] == 2
    assert len(run.failed_operations(result, expect)[1]) == 1
    record = {"rc": 0, "jm_agree": True, "digest": "abcd1234"}
    assert run.failed_operations(record, "abcd1234") == (1, [])
    assert run.failed_operations(dict(record, jm_agree=False), "abcd1234")[1]
    assert run.failed_operations(record, "ffff0000")[1]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(spans.CHECK_NAMES) == set(verify.CHECKS)
