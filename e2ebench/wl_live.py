"""live_50hz: 64 live peers over UDP loopback, 4 NSSA groups x 16 members.

A run visits eight independent worlds, one after another.  Each world's
set-up builds a 64-peer GroupCast deployment (seeded from the run's
seed and the world's index), hosts it with
``Deployment.serve(pace_latencies=False)`` (no latency-table pacing: the
transport runs at loopback speed), attaches a ``LiveTelemetry`` pump
with the default watchdogs, then advertises the four groups and
subscribes their members until the transport is quiescent; ``setup_s``
is the median of the eight set-ups.

Each world's timed part is an open loop: 50 publishes per second for an
eighth of the run's seconds, round-robin over the groups and over each
group's members, issued from a task on the cluster's own event loop,
then a drain to quiescence; then the cluster is torn down.  One
operation is one publish.  A delivery's latency is measured from the
publish's *due* time (so a stalled loop is charged for the wait it
imposes) to the member's delivery.  Spreading the run over eight worlds
keeps the tree shapes behind the latency figures from swinging with
one seed's topology.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

import checks
from common import Outcome, peak_rss_mb, percentile, quiet_gc
from ledger import Ledger, WrapSpec

PEERS = 64
GROUPS = 4
MEMBERS = 16
RATE_HZ = 50.0
#: Independent worlds per run; each gets its own set-up and an equal
#: share of the open loop.
WORLDS = 8
SETTLE_S = 15.0
COUNTERS = ("net.sent", "net.delivered", "net.dead_lettered",
            "runtime.acks_sent", "runtime.retransmits",
            "runtime.duplicates_suppressed")


def _plan(seed: int) -> dict[int, dict]:
    """Group id -> rendezvous and member list, from the seed."""
    from repro.sim.random import spawn_rng

    rng = spawn_rng(seed, "e2ebench", "live-groups")
    plan = {}
    for gid in range(1, GROUPS + 1):
        members = sorted(int(m) for m in rng.choice(
            PEERS, size=MEMBERS, replace=False))
        plan[gid] = {"rendezvous": int(rng.integers(PEERS)),
                     "members": members}
    return plan


def _counters(cluster) -> dict[str, int]:
    return {name: cluster.registry.counter(name).value
            for name in COUNTERS}


async def _set_up(seed: int, plan: dict):
    """Build, serve and grow the group trees; returns (cluster, live)."""
    from repro.deployment import build_deployment
    from repro.obs import default_watchdogs
    from repro.obs.live import LiveTelemetry

    deployment = build_deployment(PEERS, kind="groupcast", seed=seed)
    cluster = deployment.serve(pace_latencies=False)
    live = LiveTelemetry(cluster, rules=default_watchdogs())
    await cluster.start()
    live.start()
    for gid, group in plan.items():
        cluster.advertise(gid, group["rendezvous"], scheme="nssa")
    if not await cluster.settle(SETTLE_S):
        raise RuntimeError("advertisements never went quiescent")
    for gid, group in plan.items():
        cluster.subscribe(gid, group["members"])
    if not await cluster.settle(SETTLE_S):
        raise RuntimeError("subscriptions never went quiescent")
    for gid, group in plan.items():
        missing = set(group["members"]) - cluster.members_on_tree(gid)
        if missing:
            raise RuntimeError(f"group {gid}: members off tree: {missing}")
    return cluster, live


async def _tear_down(cluster, live) -> None:
    await live.close()
    await cluster.stop()


async def _open_loop(cluster, plan: dict, publishes: int) -> dict:
    """Publish on schedule, drain, and collect what the checks need."""
    transport = cluster.transport
    period_ms = 1000.0 / RATE_HZ
    groups = sorted(plan)
    published = []
    late_ms = []
    first_due = transport.now() + period_ms
    for i in range(publishes):
        due = first_due + i * period_ms
        wait_ms = due - transport.now()
        if wait_ms > 0.0:
            await asyncio.sleep(wait_ms / 1000.0)
        now = transport.now()
        late_ms.append(max(0.0, now - due))
        gid = groups[i % GROUPS]
        members = plan[gid]["members"]
        source = members[(i // GROUPS) % MEMBERS]
        payload = cluster.publish(gid, source)
        published.append((gid, payload, source, now, due))
    drained = await cluster.settle(SETTLE_S)
    return {"published": published, "late_ms": late_ms,
            "drained": drained}


async def _episode(seed: int, world: int, seconds: float) -> dict:
    """Set up one world, run its share of the open loop, tear down."""
    world_seed = seed * WORLDS + world
    plan = _plan(world_seed)
    quiet_gc()
    start = time.perf_counter()
    cluster, live = await _set_up(world_seed, plan)
    setup_s = time.perf_counter() - start
    after_setup = _counters(cluster)
    quiet_gc()
    cpu0 = time.process_time()
    loop = await _open_loop(cluster, plan, int(round(RATE_HZ * seconds)))
    cpu = time.process_time() - cpu0
    peak = peak_rss_mb()
    final = _counters(cluster)
    deliveries = {}
    for gid, payload, *_ in loop["published"]:
        deliveries[(gid, payload)] = cluster.deliveries(gid, payload)
    trees = {}
    for gid in plan:
        nodes = {peer for peer, runtime in cluster.peers.items()
                 if (state := runtime.node.groups.get(gid)) is not None
                 and state.on_tree}
        trees[gid] = nodes
    await _tear_down(cluster, live)
    return {"plan": plan, "setup_s": setup_s, "cpu_s": cpu,
            "peak_rss_mb": peak, "after_setup": after_setup,
            "final": final, "deliveries": deliveries, "trees": trees,
            **loop}


def _episodes(seed: int, seconds: float) -> list[dict]:
    """The run's worlds, one after another, each in its own event loop."""
    return [asyncio.run(_episode(seed, world, seconds / WORLDS))
            for world in range(WORLDS)]


def _score(outcome: Outcome, episodes: list[dict]) -> dict:
    """Fold the run's episodes into the outcome: operations, latencies,
    checks.  Returns the derived runtime figures."""
    latencies = []
    totals = {"datagrams": 0, "retransmits": 0, "duplicates": 0,
              "setup_retransmits": 0}
    late = []
    for k, ep in enumerate(episodes):
        plan = ep["plan"]
        members = {gid: set(g["members"]) for gid, g in plan.items()}
        ok = []
        for gid, payload, source, at, due in ep["published"]:
            got = ep["deliveries"][(gid, payload)]
            outcome.attempted += 1
            if not members[gid] <= set(got):
                outcome.failed += 1
                continue
            ok.append((gid, payload, source, at))
            latencies.extend(got[m] - due for m in members[gid]
                             if m != source)
        outcome.check(f"world{k}.deliveries_exact", checks.live_deliveries(
            ok, ep["deliveries"], members, ep["trees"]))
        final = ep["final"]
        outcome.check(f"world{k}.sent_eq_delivered_plus_dead_lettered", int(
            final["net.sent"]
            != final["net.delivered"] + final["net.dead_lettered"]))
        outcome.check(f"world{k}.drained_to_quiescence",
                      int(not ep["drained"]))
        window = {c: final[c] - ep["after_setup"][c] for c in COUNTERS}
        totals["datagrams"] += (window["net.sent"]
                                + window["runtime.retransmits"]
                                + window["runtime.acks_sent"])
        totals["retransmits"] += window["runtime.retransmits"]
        totals["duplicates"] += window["runtime.duplicates_suppressed"]
        totals["setup_retransmits"] += \
            ep["after_setup"]["runtime.retransmits"]
        late.extend(ep["late_ms"])
    outcome.latencies_ms = latencies
    outcome.setup_s = [ep["setup_s"] for ep in episodes]
    outcome.cpu_s = sum(ep["cpu_s"] for ep in episodes)
    outcome.peak_rss_mb = max(ep["peak_rss_mb"] for ep in episodes)
    return {**totals,
            "cpu_us_per_datagram": 1e6 * outcome.cpu_s
            / max(totals["datagrams"], 1),
            "late_ms": statistics.fmean(late),
            "p99_ms": percentile(latencies, 99.0) if latencies else 0.0}


def trace_specs() -> list[WrapSpec]:
    from repro.obs.live import LiveTelemetry
    from repro.runtime import asyncio_transport
    from repro.runtime.node import PeerRuntime
    from repro.runtime.reliability import ReliableEndpoint

    import wl_figures

    specs = [
        WrapSpec(asyncio_transport, "encode_frame", "runtime.encode",
                 store=False),
        WrapSpec(asyncio_transport, "decode_frame", "runtime.decode",
                 store=False),
        WrapSpec(PeerRuntime, "handle", "runtime.handler"),
        WrapSpec(LiveTelemetry, "poll", "obs.live"),
    ]
    for name in ("package", "on_frame", "due_retransmits", "next_due_ms"):
        specs.append(WrapSpec(ReliableEndpoint, name, "runtime.arq",
                              store=False))
    # The deployment build inside set-up, layer by layer.
    return specs + wl_figures.trace_specs()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        return _run_traced(seed, seconds, outcome)
    derived = _score(outcome, _episodes(seed, seconds))
    print(f"live: {outcome.attempted} publishes over {WORLDS} worlds, "
          f"{len(outcome.latencies_ms)} deliveries, "
          f"p50 {np.median(outcome.latencies_ms):.3f} ms, "
          f"p99 {derived['p99_ms']:.3f} ms, "
          f"{derived['cpu_us_per_datagram']:.1f} us/datagram, "
          f"generator late {derived['late_ms']:.3f} ms (mean), "
          f"{derived['retransmits']} retransmits")
    return outcome


def _run_traced(seed: int, seconds: float, outcome: Outcome) -> Outcome:
    bare = Outcome()
    derived = _score(bare, _episodes(seed, seconds))
    ledger = Ledger()
    with ledger.phase(trace_specs()):
        episodes = _episodes(seed, seconds)
    _score(outcome, episodes)
    loop_s = max(0.0, ledger.cpu_s - ledger.root_s)
    outcome.layers = {
        "runtime.frames_encoded": ledger.layer_calls("runtime.encode"),
        "runtime.frames_decoded": ledger.layer_calls("runtime.decode"),
        "runtime.loop_s": loop_s,
        "runtime.datagrams": derived["datagrams"],
        "runtime.retransmits": derived["retransmits"],
        "runtime.duplicates_suppressed": derived["duplicates"],
        "runtime.setup_retransmits": derived["setup_retransmits"],
        "runtime.generator_late_ms": derived["late_ms"],
        "runtime.cpu_us_per_datagram": derived["cpu_us_per_datagram"],
        "runtime.delivery_p99_ms": derived["p99_ms"],
        "network.routing_calls": ledger.layer_calls("network.routing"),
        "coords.distance_calls": ledger.layer_calls("coords.distance"),
        "overlay.joins": ledger.layer_calls("overlay.join"),
        "ledger.wall_s": ledger.wall_s,
        "other_s": ledger.other_s(loop_s),
        "trace_overhead": outcome.cpu_s / bare.cpu_s,
    }
    outcome.notes["ledger"] = ledger
    return outcome
