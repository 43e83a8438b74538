"""Each correctness check passes on the program's output and fails on a
wrong input; the ledger keeps its identity; the metric lists match
``BENCHMARK.json``.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest -q e2ebench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from common import END_TO_END, PER_LAYER  # noqa: E402
from ledger import Ledger, WrapSpec  # noqa: E402

from repro.core import multigroup, protocol  # noqa: E402
from repro.core.parallel import run_group_pass  # noqa: E402
from repro.sim.random import spawn_rng  # noqa: E402

TTL = 12


@pytest.fixture(scope="module")
def world():
    n = 10_000
    rng = spawn_rng(3, "e2ebench-test")
    csr = protocol.synthetic_power_law_csr(n, rng)
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    latency = protocol.edge_latencies_from_coords(csr, coords)
    members = np.sort(rng.choice(n, size=n // 20, replace=False))
    return {"csr": csr, "coords": coords, "latency": latency,
            "members": members, "roots": [0, 17, 4242]}


def _pass(world, root, scheme="nssa", epoch_ms=None):
    roots = np.array([root])
    rngs = [spawn_rng(5, "ssa")] if scheme == "ssa" else None
    caps = np.ones(world["csr"].node_count)
    flood = multigroup.flood_advertisements_batch(
        world["csr"], world["latency"], roots, TTL, scheme,
        capacities=caps if scheme == "ssa" else None, rngs=rngs,
        epoch_ms=epoch_ms)
    rows, indptr = multigroup.pack_members([world["members"]])
    on_tree, _ = multigroup.climb_subscriptions_batch(flood, rows, indptr)
    parent = np.where(on_tree, flood.upstream, -1)
    delays = multigroup.tree_delays_batch(parent, on_tree,
                                          coords=world["coords"],
                                          roots=roots)
    return {"arrival": flood.arrival[0].copy(),
            "upstream": flood.upstream[0].copy(),
            "hops": flood.hops[0].copy(), "on_tree": on_tree[0].copy(),
            "parent": parent[0].copy(), "delays": delays[0].copy()}


def _fixed_point(world, root, res):
    csr = world["csr"]
    return checks.nssa_fixed_point(csr.indptr, csr.indices,
                                   world["latency"], root, TTL,
                                   res["arrival"], res["hops"])


def _consistency(world, root, res):
    csr = world["csr"]
    return checks.flood_consistency(csr.indptr, csr.indices,
                                    world["latency"], root, TTL,
                                    res["arrival"], res["upstream"],
                                    res["hops"])


# ----------------------------------------------------------------------
# Array floods
# ----------------------------------------------------------------------
def test_exact_epoch_flood_passes_every_array_check(world):
    csr = world["csr"]
    for root in world["roots"]:
        for scheme in ("nssa", "ssa"):
            res = _pass(world, root, scheme)
            assert _consistency(world, root, res) == 0
            assert checks.not_before_shortest_paths(
                csr.indptr, csr.indices, world["latency"], root,
                res["arrival"]) == 0
            assert checks.climb_closure(
                res["upstream"], res["arrival"], world["members"], root,
                res["on_tree"]) == 0
            assert checks.tree_delay_sums(
                res["parent"], res["on_tree"], res["hops"],
                world["coords"], root, res["delays"]) == 0
        assert _fixed_point(world, root, _pass(world, root)) == 0


def test_fixed_point_rejects_wide_epoch_flood(world):
    wide = 4.0 * float(world["latency"].mean())
    broken = sum(_fixed_point(world, root, _pass(world, root,
                                                 epoch_ms=wide))
                 for root in world["roots"])
    assert broken > 0


def test_consistency_rejects_wrong_arrival_hops_and_upstream(world):
    root = world["roots"][0]
    res = _pass(world, root)
    row = int(np.nonzero(np.isfinite(res["arrival"])
                         & (res["hops"] == 3))[0][0])
    late = dict(res, arrival=res["arrival"].copy())
    late["arrival"][row] += 1.0
    assert _consistency(world, root, late) >= 1
    hops = dict(res, hops=res["hops"].copy())
    hops["hops"][row] += 1
    assert _consistency(world, root, hops) >= 1
    far = dict(res, upstream=res["upstream"].copy())
    neighbours = set(world["csr"].neighbors(row).tolist())
    far["upstream"][row] = next(r for r in range(world["csr"].node_count)
                                if r not in neighbours and r != row)
    assert _consistency(world, root, far) >= 1


def test_shortest_path_bound_rejects_early_arrival(world):
    csr = world["csr"]
    root = world["roots"][0]
    res = _pass(world, root, "ssa")
    row = int(np.nonzero(np.isfinite(res["arrival"])
                         & (res["hops"] >= 2))[0][0])
    res["arrival"][row] = 1e-6  # earlier than any path can deliver
    assert checks.not_before_shortest_paths(
        csr.indptr, csr.indices, world["latency"], root,
        res["arrival"]) == 1


def test_climb_closure_rejects_missing_and_extra_tree_rows(world):
    root = world["roots"][0]
    res = _pass(world, root)
    tree_rows = np.nonzero(res["on_tree"])[0]
    missing = res["on_tree"].copy()
    missing[tree_rows[tree_rows != root][0]] = False
    assert checks.climb_closure(res["upstream"], res["arrival"],
                                world["members"], root, missing) == 1
    extra = res["on_tree"].copy()
    extra[np.nonzero(~extra)[0][0]] = True
    assert checks.climb_closure(res["upstream"], res["arrival"],
                                world["members"], root, extra) == 1


def test_tree_delays_reject_a_wrong_delay(world):
    root = world["roots"][0]
    res = _pass(world, root)
    row = int(np.nonzero(res["on_tree"] & (res["hops"] == 2))[0][0])
    res["delays"][row] += 0.5
    assert checks.tree_delay_sums(res["parent"], res["on_tree"],
                                  res["hops"], world["coords"], root,
                                  res["delays"]) == 1


# ----------------------------------------------------------------------
# Object path (figures_4k)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def group():
    from repro.experiments import common as exp

    deployment = exp.build_for_experiment(120, "groupcast", 11)
    rng = exp.experiment_rng(11, "e2ebench-test")
    captured = {}
    advertise, disseminate = exp.propagate_advertisement, exp.disseminate

    def keep_advertisement(*args, **kwargs):
        captured["advertisement"] = advertise(*args, **kwargs)
        return captured["advertisement"]

    def keep_report(*args, **kwargs):
        captured["report"] = disseminate(*args, **kwargs)
        return captured["report"]

    exp.propagate_advertisement = keep_advertisement
    exp.disseminate = keep_report
    try:
        members = [int(m) for m in rng.choice(120, size=20, replace=False)]
        run = exp.establish_and_measure_group(deployment, 5, members,
                                              "nssa", rng)
    finally:
        exp.propagate_advertisement = advertise
        exp.disseminate = disseminate
    overlay = deployment.overlay
    adjacency = {p: [(n, deployment.peer_distance_ms(p, n))
                     for n in overlay.neighbors(p)]
                 for p in overlay.peer_ids()}
    ttl = exp.announcement_for_size(
        120, deployment.config.announcement).advertisement_ttl
    return {"deployment": deployment, "run": run, "ttl": ttl,
            "neighbours": adjacency.__getitem__, **captured}


def test_heap_flood_matches_nssa_receipts_and_rejects_a_late_one(group):
    receipts = dict(group["advertisement"].receipts)
    arrival, _, _ = checks.heap_flood(group["neighbours"], 5, group["ttl"])
    assert checks.receipts_match_flood(receipts, arrival) == 0
    peer = next(p for p in receipts if p != 5)
    receipts[peer] = dataclasses.replace(
        receipts[peer], elapsed_ms=receipts[peer].elapsed_ms + 1.0)
    assert checks.receipts_match_flood(receipts, arrival) == 1


def test_relay_check_rejects_a_non_neighbour_upstream(group):
    deployment = group["deployment"]
    receipts = dict(group["advertisement"].receipts)
    shortest, _, _ = checks.heap_flood(group["neighbours"], 5, math.inf)

    def relay(r):
        return checks.receipts_relay_valid(
            r, 5, group["ttl"], deployment.overlay.has_link,
            deployment.peer_distance_ms, shortest)

    assert relay(receipts) == 0
    peer = next(p for p, r in receipts.items() if r.hops >= 2)
    stranger = next(p for p in receipts
                    if p != peer
                    and not deployment.overlay.has_link(p, peer))
    receipts[peer] = dataclasses.replace(receipts[peer], upstream=stranger)
    assert relay(receipts) >= 1


def test_tree_chains_reject_a_cycle(group):
    tree = group["run"].tree
    assert checks.tree_chains(tree, 5) == 0

    class Looped:
        node_count = 3
        members = frozenset({1})

        @staticmethod
        def parent(node):
            return {1: 2, 2: 1}[node]

    assert checks.tree_chains(Looped, 0) == 1


def test_dissemination_delays_reject_a_wrong_delay(group):
    report = group["report"]
    distance = group["deployment"].peer_distance_ms
    tree = group["run"].tree
    delays = dict(report.member_delays_ms)
    assert checks.dissemination_delays(tree, report.source, distance,
                                       delays) == 0
    member = next(iter(delays))
    delays[member] += 0.25
    assert checks.dissemination_delays(tree, report.source, distance,
                                       delays) == 1


# ----------------------------------------------------------------------
# Tenancy
# ----------------------------------------------------------------------
def test_reference_group_matches_batch_pass_and_rejects_wrong_input():
    from repro.workloads.groups import sample_group_rows

    n = 512
    rng = spawn_rng(9, "e2ebench-test-tenancy")
    csr = protocol.synthetic_power_law_csr(n, rng)
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    latency = protocol.edge_latencies_from_coords(csr, coords,
                                                  min_latency_ms=2.0)
    roots, rows, indptr = sample_group_rows(rng, 40, n, max_size=64)
    result = run_group_pass(csr, latency, coords, roots, rows, indptr,
                            ttl=6)
    for g in range(40):
        members = rows[indptr[g]:indptr[g + 1]]
        ref = checks.reference_group(csr.indptr, csr.indices, latency,
                                     coords, int(roots[g]), members, 6)
        assert ref["receipts"] == result.receipts[g]
        assert ref["tree_nodes"] == result.tree_nodes[g]
        assert ref["members_on_tree"] == result.members_on_tree[g]
        assert math.isclose(ref["delay_max_ms"], result.delay_max_ms[g],
                            rel_tol=checks.RTOL)
    members = rows[indptr[0]:indptr[1]]
    short = checks.reference_group(csr.indptr, csr.indices, latency,
                                   coords, int(roots[0]), members, 1)
    assert short["receipts"] != result.receipts[0]


def test_attainment_rows_reject_flipped_flag_and_bad_totals():
    rows = [
        {"tenant": 0, "groups": 3, "members": 10, "delivered": 10,
         "delivery_ratio": 1.0, "p99_ms": 100.0, "attained": True},
        {"tenant": 1, "groups": 2, "members": 10, "delivered": 9,
         "delivery_ratio": 0.9, "p99_ms": 100.0, "attained": False},
    ]
    assert checks.attainment_rows(rows, 5, 20, 0.95, 500.0) == 0
    assert checks.attainment_rows(rows, 6, 20, 0.95, 500.0) == 1
    flipped = [dict(rows[0]), dict(rows[1], attained=True)]
    assert checks.attainment_rows(flipped, 5, 20, 0.95, 500.0) == 1
    slow = [dict(rows[0], p99_ms=900.0), rows[1]]
    assert checks.attainment_rows(slow, 5, 20, 0.95, 500.0) == 1


# ----------------------------------------------------------------------
# Live
# ----------------------------------------------------------------------
def test_live_deliveries_reject_stray_missing_and_early():
    published = [(1, 7, 2, 100.0)]
    members = {1: {2, 3}}
    trees = {1: {2, 3, 4}}
    good = {(1, 7): {2: 100.0, 3: 103.0, 4: 101.0}}
    assert checks.live_deliveries(published, good, members, trees) == 0
    stray = {(1, 7): {2: 100.0, 3: 103.0, 4: 101.0, 9: 102.0}}
    assert checks.live_deliveries(published, stray, members, trees) == 1
    missing = {(1, 7): {2: 100.0, 4: 101.0}}
    assert checks.live_deliveries(published, missing, members, trees) == 2
    early = {(1, 7): {2: 100.0, 3: 99.0, 4: 101.0}}
    assert checks.live_deliveries(published, early, members, trees) == 1


# ----------------------------------------------------------------------
# Ledger and metric lists
# ----------------------------------------------------------------------
class _Toy:
    def outer(self):
        time.sleep(0.01)
        return self.inner() + 1

    def inner(self):
        time.sleep(0.02)
        return 1


def test_ledger_self_times_and_other_add_up_to_wall():
    ledger = Ledger()
    toy = _Toy()
    specs = [WrapSpec(_Toy, "outer", "a.outer"),
             WrapSpec(_Toy, "inner", "a.inner")]
    with ledger.phase(specs):
        assert toy.outer() == 2
        time.sleep(0.005)
    assert _Toy.outer.__qualname__ == "_Toy.outer"
    assert ledger.self_s["a.inner"] >= 0.02
    assert 0.01 <= ledger.self_s["a.outer"] < 0.02
    total = sum(ledger.self_s.values()) + ledger.other_s()
    assert math.isclose(total, ledger.wall_s, rel_tol=1e-9)
    assert ledger.other_s() >= 0.005
    assert [s[2] for s in ledger.spans] == ["a.inner", "a.outer"]
    assert ledger.spans[0][1] == ledger.spans[1][0]  # inner's parent


def test_ledger_restores_wrapped_attributes():
    before = _Toy.__dict__["outer"]
    with Ledger().installed([WrapSpec(_Toy, "outer", "x")]):
        assert _Toy.__dict__["outer"] is not before
    assert _Toy.__dict__["outer"] is before


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
