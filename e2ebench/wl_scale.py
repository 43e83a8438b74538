"""scale_1m: one NSSA and one SSA group pass over a 10^6-row world.

Inputs (all from the seed): a ``synthetic_power_law_csr`` of 10^6 rows,
uniform coordinates in a 100 x 100 ms square priced by
``edge_latencies_from_coords`` with a 0.1 ms floor, Table-1 capacities,
the highest-degree row as rendezvous and 5% of rows as members.  TTL 12
and the flood's default exact epoch (the minimum edge latency, which
the floor pins to 0.1 ms on every seed, so the epoch count does not
swing with the seed's closest pair of rows).

One operation is one group pass: ``flood_advertisements_batch`` ->
``climb_subscriptions_batch`` -> ``tree_delays_batch``; a round is the
NSSA pass then the SSA pass.
"""

from __future__ import annotations

import time

import numpy as np

import checks
from common import Outcome, Stopwatch, cpu_s, peak_rss_mb, quiet_gc
from ledger import Ledger, WrapSpec

ROWS = 1_000_000
TTL = 12
MEMBER_FRACTION = 0.05
LATENCY_FLOOR_MS = 0.1
SETUPS = 2
SCHEMES = ("nssa", "ssa")


def build_world(seed: int) -> dict:
    from repro.core import protocol
    from repro.peers.capacity import PAPER_CAPACITY_DISTRIBUTION
    from repro.sim.random import spawn_rng

    rng = spawn_rng(seed, "e2ebench", "scale-world")
    csr = protocol.synthetic_power_law_csr(ROWS, rng)
    coords = rng.uniform(0.0, 100.0, size=(ROWS, 2))
    latency = protocol.edge_latencies_from_coords(
        csr, coords, min_latency_ms=LATENCY_FLOOR_MS)
    capacities = PAPER_CAPACITY_DISTRIBUTION.sample(rng, ROWS)
    # The rendezvous is the best-connected row: from a random low-degree
    # row an SSA flood can die out within a few hops on some seeds, which
    # would swing the pass's cost by 20x from seed to seed.
    root = int(np.argmax(csr.degrees()))
    pick = spawn_rng(seed, "e2ebench", "scale-group")
    members = np.sort(pick.choice(ROWS, size=int(ROWS * MEMBER_FRACTION),
                                  replace=False))
    return {"csr": csr, "coords": coords, "latency": latency,
            "capacities": capacities, "root": root, "members": members}


def group_pass(world: dict, scheme: str, seed: int) -> dict:
    from repro.core import multigroup
    from repro.sim.random import spawn_rng

    roots = np.array([world["root"]], dtype=np.int64)
    rngs = ([spawn_rng(seed, "e2ebench", "scale-ssa")]
            if scheme == "ssa" else None)
    flood = multigroup.flood_advertisements_batch(
        world["csr"], world["latency"], roots, TTL, scheme,
        capacities=world["capacities"] if scheme == "ssa" else None,
        rngs=rngs)
    member_rows, member_indptr = multigroup.pack_members([world["members"]])
    on_tree, _ = multigroup.climb_subscriptions_batch(
        flood, member_rows, member_indptr)
    parent = np.where(on_tree, flood.upstream, -1)
    delays = multigroup.tree_delays_batch(
        parent, on_tree, coords=world["coords"], roots=roots)
    return {"arrival": flood.arrival[0], "upstream": flood.upstream[0],
            "hops": flood.hops[0], "on_tree": on_tree[0],
            "parent": parent[0], "delays": delays[0]}


def _round(world: dict, seed: int, outcome: Outcome | None) -> dict:
    results = {}
    for scheme in SCHEMES:
        start = time.perf_counter()
        results[scheme] = group_pass(world, scheme, seed)
        if outcome is not None:
            outcome.attempted += 1
            outcome.latencies_ms.append(
                1000.0 * (time.perf_counter() - start))
    return results


def _check(outcome: Outcome, world: dict, results: dict) -> None:
    csr = world["csr"]
    indptr, indices = csr.indptr, csr.indices
    root = world["root"]
    for scheme, res in results.items():
        outcome.check(f"{scheme}.flood_consistency", checks.flood_consistency(
            indptr, indices, world["latency"], root, TTL,
            res["arrival"], res["upstream"], res["hops"]))
        outcome.check(f"{scheme}.not_before_shortest_paths",
                      checks.not_before_shortest_paths(
                          indptr, indices, world["latency"], root,
                          res["arrival"]))
        outcome.check(f"{scheme}.climb_closure", checks.climb_closure(
            res["upstream"], res["arrival"], world["members"], root,
            res["on_tree"]))
        outcome.check(f"{scheme}.tree_delays", checks.tree_delay_sums(
            res["parent"], res["on_tree"], res["hops"], world["coords"],
            root, res["delays"]))
    outcome.check("nssa.fixed_point", checks.nssa_fixed_point(
        indptr, indices, world["latency"], root, TTL,
        results["nssa"]["arrival"], results["nssa"]["hops"]))


def _digest(results: dict) -> tuple:
    return tuple((int(np.isfinite(r["arrival"]).sum()),
                  int(r["on_tree"].sum()))
                 for r in results.values())


def trace_specs() -> list[WrapSpec]:
    import numpy
    from repro.core import multigroup, protocol

    return [
        WrapSpec(protocol, "synthetic_power_law_csr", "core.world"),
        WrapSpec(protocol, "edge_latencies_from_coords", "core.world"),
        WrapSpec(multigroup, "flood_advertisements_batch", "core.flood"),
        WrapSpec(multigroup, "climb_subscriptions_batch", "core.climb"),
        WrapSpec(multigroup, "tree_delays_batch", "core.delays"),
        WrapSpec(numpy, "diff", "core.np_diff", store=False),
    ]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        return _run_traced(seed, outcome)
    world = None
    for _ in range(SETUPS):
        world = None
        quiet_gc()
        start = time.perf_counter()
        world = build_world(seed)
        outcome.setup_s.append(time.perf_counter() - start)
    quiet_gc()
    cpu0 = cpu_s()
    began = time.perf_counter()
    first = _round(world, seed, outcome)
    digest = _digest(first)
    while time.perf_counter() - began < seconds:
        if _digest(_round(world, seed, outcome)) != digest:
            outcome.check("rounds_repeat", 1, "a repeated round differed")
    outcome.cpu_s = cpu_s() - cpu0
    outcome.peak_rss_mb = peak_rss_mb()
    _check(outcome, world, first)
    return outcome


def _run_traced(seed: int, outcome: Outcome) -> Outcome:
    ledger = Ledger()
    specs = trace_specs()
    with ledger.phase(specs):
        world = build_world(seed)
    quiet_gc()
    with Stopwatch() as bare:
        _round(world, seed, None)
    quiet_gc()
    with Stopwatch() as traced:
        with ledger.phase(specs):
            results = _round(world, seed, outcome)
    outcome.cpu_s = traced.cpu_s
    outcome.peak_rss_mb = peak_rss_mb()
    _check(outcome, world, results)
    reached = sum(int(np.isfinite(r["arrival"]).sum())
                  for r in results.values())
    outcome.layers = {
        "core.np_diff_calls": ledger.layer_calls("core.np_diff"),
        "core.rows_reached": reached,
        "ledger.wall_s": ledger.wall_s,
        "other_s": ledger.other_s(),
        "trace_overhead": traced.wall_s / bare.wall_s,
    }
    outcome.notes["ledger"] = ledger
    return outcome
