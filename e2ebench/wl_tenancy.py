"""tenancy_10k: 10,000 Zipf groups over 2,048 rows, owned by 50 tenants.

Inputs (all from the seed): a ``synthetic_power_law_csr`` of 2,048
rows with uniform coordinates priced by ``edge_latencies_from_coords``
(2 ms floor, so the flood's default exact epoch is 2 ms on every seed),
``sample_group_rows`` rosters of up to 256 members and
``assign_tenants`` over 50 tenants.  NSSA, TTL 8, dimensional sketches
on, 8 fixed shards, ``jobs=2``.

A round is ``run_sharded`` -> ``AttainmentTable.from_pass`` -> canonical
JSON.  One operation is one group (10,000 per round); all of a round's
groups are submitted together and their results are ready when the
round ends, so every operation's latency is the round's wall time.
"""

from __future__ import annotations

import time

import numpy as np

import checks
from common import (Outcome, Stopwatch, children_cpu_s, cpu_s, peak_rss_mb,
                    quiet_gc)
from ledger import Ledger, WrapSpec

ROWS = 2048
GROUPS = 10_000
TENANTS = 50
MAX_GROUP_SIZE = 256
TTL = 8
SHARDS = 8
JOBS = 2
LATENCY_FLOOR_MS = 2.0
SETUPS = 9
#: Groups re-derived by the reference flood in the checks.
SAMPLED_GROUPS = 24


def build(seed: int) -> dict:
    from repro.core import protocol
    from repro.sim.random import spawn_rng
    from repro.workloads import groups

    rng = spawn_rng(seed, "e2ebench", "tenancy-world")
    csr = protocol.synthetic_power_law_csr(ROWS, rng)
    coords = rng.uniform(0.0, 100.0, size=(ROWS, 2))
    latency = protocol.edge_latencies_from_coords(
        csr, coords, min_latency_ms=LATENCY_FLOOR_MS)
    roots, member_rows, indptr = groups.sample_group_rows(
        spawn_rng(seed, "e2ebench", "tenancy-groups"), GROUPS, ROWS,
        max_size=MAX_GROUP_SIZE)
    tenants = groups.assign_tenants(
        spawn_rng(seed, "e2ebench", "tenancy-tenants"), GROUPS, TENANTS)
    return {"csr": csr, "coords": coords, "latency": latency,
            "roots": roots, "member_rows": member_rows, "indptr": indptr,
            "tenants": tenants}


def _round(world: dict, jobs: int) -> tuple:
    from repro.core import parallel
    from repro.experiments.tenancy import DEFAULT_SPEC
    from repro.obs.dims import DEFAULT_SKETCH_LAYOUT
    from repro.obs.slo import AttainmentTable

    result = parallel.run_sharded(
        world["csr"], world["latency"], world["coords"], world["roots"],
        world["member_rows"], world["indptr"], ttl=TTL, scheme="nssa",
        shards=SHARDS, jobs=jobs, dims_layout=DEFAULT_SKETCH_LAYOUT)
    table = AttainmentTable.from_pass(
        result, DEFAULT_SPEC, world["tenants"], DEFAULT_SKETCH_LAYOUT)
    return result, table, table.to_canonical_json()


def _check(outcome: Outcome, world: dict, seed: int, result, table) -> None:
    from repro.experiments.tenancy import DEFAULT_SPEC
    from repro.sim.random import spawn_rng

    csr = world["csr"]
    indptr = world["indptr"]
    sample = spawn_rng(seed, "e2ebench", "tenancy-sample").choice(
        GROUPS, size=SAMPLED_GROUPS, replace=False)
    bad = 0
    for g in sorted(int(x) for x in sample):
        members = world["member_rows"][indptr[g]:indptr[g + 1]]
        ref = checks.reference_group(
            csr.indptr, csr.indices, world["latency"], world["coords"],
            int(world["roots"][g]), members, TTL)
        got = {"receipts": int(result.receipts[g]),
               "tree_nodes": int(result.tree_nodes[g]),
               "members_on_tree": int(result.members_on_tree[g]),
               "delay_max_ms": float(result.delay_max_ms[g])}
        bad += sum(int(ref[k] != got[k]) for k in
                   ("receipts", "tree_nodes", "members_on_tree"))
        bad += int(not np.isclose(ref["delay_max_ms"], got["delay_max_ms"],
                                  rtol=checks.RTOL))
    outcome.check("groups.match_reference_flood", bad,
                  f"{SAMPLED_GROUPS} seeded groups")
    outcome.check("tenants.rows_consistent", checks.attainment_rows(
        table.rows(), GROUPS, int(indptr[-1]),
        DEFAULT_SPEC.min_delivery_ratio, DEFAULT_SPEC.max_p99_delay_ms))


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        return _run_traced(seed, outcome)
    world = None
    for _ in range(SETUPS):
        world = None
        quiet_gc()
        start = time.perf_counter()
        world = build(seed)
        outcome.setup_s.append(time.perf_counter() - start)
    quiet_gc()
    cpu0 = cpu_s()
    began = time.perf_counter()
    first = None
    while first is None or time.perf_counter() - began < seconds:
        start = time.perf_counter()
        result, table, blob = _round(world, JOBS)
        outcome.latencies_ms.append(1000.0 * (time.perf_counter() - start))
        outcome.attempted += GROUPS
        if first is None:
            first = (result, table, blob)
        elif blob != first[2]:
            outcome.check("rounds_repeat", 1, "a repeated round differed")
    outcome.cpu_s = cpu_s() - cpu0
    outcome.peak_rss_mb = peak_rss_mb()
    _check(outcome, world, seed, first[0], first[1])
    return outcome


def _run_traced(seed: int, outcome: Outcome) -> Outcome:
    import numpy
    from repro.core import parallel, protocol
    from repro.obs.dims import DEFAULT_SKETCH_LAYOUT
    from repro.obs.slo import AttainmentTable
    from repro.workloads import groups

    ledger = Ledger()
    with ledger.phase([
            WrapSpec(protocol, "synthetic_power_law_csr", "core.world"),
            WrapSpec(protocol, "edge_latencies_from_coords", "core.world"),
            WrapSpec(groups, "sample_group_rows", "workloads.rosters"),
            WrapSpec(groups, "assign_tenants", "workloads.rosters")]):
        world = build(seed)
    # The pool pass: only the executor's own entry points are wrapped,
    # so forked workers run the kernels bare.
    quiet_gc()
    workers0 = children_cpu_s()
    with Stopwatch() as pool:
        with ledger.phase([
                WrapSpec(parallel.SharedWorld, "publish",
                         "parallel.publish"),
                WrapSpec(parallel, "run_sharded", "parallel.pass")]):
            pooled = parallel.run_sharded(
                world["csr"], world["latency"], world["coords"],
                world["roots"], world["member_rows"], world["indptr"],
                ttl=TTL, scheme="nssa", shards=SHARDS, jobs=JOBS,
                dims_layout=DEFAULT_SKETCH_LAYOUT)
    worker_cpu = children_cpu_s() - workers0
    # The kernel split: the same shards inline, bare then traced.
    quiet_gc()
    with Stopwatch() as bare:
        _round(world, 1)
    quiet_gc()
    specs = [
        WrapSpec(parallel, "run_group_pass", "core.pass"),
        WrapSpec(parallel, "flood_advertisements_batch", "core.flood"),
        WrapSpec(parallel, "climb_subscriptions_batch", "core.climb"),
        WrapSpec(parallel, "tree_delays_batch", "core.delays"),
        WrapSpec(parallel, "group_delay_cells_batch", "obs.dims"),
        WrapSpec(numpy, "diff", "core.np_diff", store=False),
        WrapSpec(AttainmentTable, "from_pass", "obs.attainment"),
        WrapSpec(AttainmentTable, "to_canonical_json", "obs.json"),
    ]
    with Stopwatch() as traced:
        with ledger.phase(specs):
            result, table, _ = _round(world, 1)
    outcome.attempted = GROUPS
    outcome.peak_rss_mb = peak_rss_mb()
    if pooled.merged_digest() != result.merged_digest():
        outcome.check("pool_equals_inline", 1)
    _check(outcome, world, seed, result, table)
    outcome.layers = {
        "core.np_diff_calls": ledger.layer_calls("core.np_diff"),
        "core.rows_reached": int(result.receipts.sum()),
        "parallel.worker_cpu_s": worker_cpu,
        "parallel.efficiency": worker_cpu / (JOBS * pool.wall_s),
        "ledger.wall_s": ledger.wall_s,
        "other_s": ledger.other_s(),
        "trace_overhead": traced.wall_s / bare.wall_s,
    }
    outcome.notes["ledger"] = ledger
    return outcome
