"""figures_4k: the paper pipeline on the object path at 4,000 peers.

Set-up builds one GroupCast and one PLOD deployment
(``build_for_experiment``, the figures' own configuration, seeded by
the run's seed).  A round is the work behind Figures 7-17 on those two
worlds:

* Figures 7-10: degree histogram, power-law fit, sampled clustering
  coefficient and average neighbour distance of both overlays;
* Figures 11-17: for each overlay and each scheme (SSA, NSSA), 10
  lookup groups (the Fig 11-13 rendezvous points) and 10 application
  groups (the Fig 14-17 groups), each one run by
  ``establish_and_measure_group``, then node stress and overload index
  of each combination's application trees.

One operation is one ``establish_and_measure_group`` call: 80 per round.
Its latency is the call's wall time (closed loop, one caller).
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy as np

import checks
from common import Outcome, Stopwatch, cpu_s, peak_rss_mb, quiet_gc
from ledger import Ledger, WrapSpec

PEERS = 4000
KINDS = ("groupcast", "plod")
SCHEMES = ("ssa", "nssa")
LOOKUP_GROUPS = 20
APP_GROUPS = 20


def build(seed: int) -> dict:
    from repro.experiments import common as exp

    return {kind: exp.build_for_experiment(PEERS, kind, seed)
            for kind in KINDS}


def _group_specs(deployments: dict, seed: int) -> tuple[list, int]:
    """The round's 160 groups as (kind, scheme, purpose, rendezvous,
    peer ids, rng), plus the member count per group.  Rendezvous points
    and rngs are drawn as the figure sweeps draw them (same labels), so
    seed 7 starts the figures' own draws."""
    from repro.experiments import common as exp

    members_count = exp.group_member_count(PEERS)
    specs = []
    for kind in KINDS:
        deployment = deployments[kind]
        ids = deployment.peer_ids()
        rng = exp.experiment_rng(seed, f"lookup-{kind}-{PEERS}")
        points = exp.pick_rendezvous_points(deployment, LOOKUP_GROUPS, rng)
        for scheme in SCHEMES:
            for point in points:
                specs.append((kind, scheme, "lookup", point, ids, rng))
        for scheme in SCHEMES:
            rng = exp.experiment_rng(seed, f"app-{kind}-{scheme}-{PEERS}")
            points = exp.pick_rendezvous_points(deployment, APP_GROUPS, rng)
            for point in points:
                specs.append((kind, scheme, "app", point, ids, rng))
    return specs, members_count


def _overlay_measures(deployments: dict, seed: int) -> dict:
    from repro.metrics import overlay_metrics
    from repro.sim.random import spawn_rng

    out = {}
    for kind, deployment in deployments.items():
        overlay = deployment.overlay
        values, counts = overlay_metrics.degree_histogram(overlay)
        exponent, r2 = overlay_metrics.power_law_fit(values, counts)
        clustering = overlay.clustering_coefficient(
            rng=spawn_rng(seed, "clustering", kind), sample=500)
        distances = overlay_metrics.average_neighbor_distance_ms(
            overlay, deployment.underlay)
        distances = distances[distances > 0]
        out[kind] = {
            "mean_degree": 2.0 * overlay.edge_count / overlay.peer_count,
            "degree_histogram": (values, counts),
            "exponent": exponent, "r2": r2, "clustering": clustering,
            "neighbour_ms": float(distances.mean()),
        }
    return out


class Capture:
    """Keeps what ``establish_and_measure_group`` computes but does not
    return (the advertisement outcome, the payload source and member
    delays), for the checks after the timed part.  Only references are
    kept; nothing is copied inside the timed part."""

    def __init__(self) -> None:
        self.current: dict = {}

    @contextlib.contextmanager
    def installed(self):
        from repro.experiments import common as exp

        advertise, disseminate = exp.propagate_advertisement, exp.disseminate

        def capture_advertise(*args, **kwargs):
            outcome = advertise(*args, **kwargs)
            self.current["advertisement"] = outcome
            return outcome

        def capture_disseminate(*args, **kwargs):
            report = disseminate(*args, **kwargs)
            self.current["source"] = report.source
            self.current["member_delays"] = report.member_delays_ms
            return report

        exp.propagate_advertisement = capture_advertise
        exp.disseminate = capture_disseminate
        try:
            yield self
        finally:
            exp.propagate_advertisement = advertise
            exp.disseminate = disseminate


def _round(deployments: dict, seed: int, outcome: Outcome | None,
           capture: Capture | None = None) -> dict:
    """One round of figure work; returns the per-group runs and the
    per-combination summaries the checks read."""
    from repro.experiments import common as exp
    from repro.metrics import tree_metrics

    measures = _overlay_measures(deployments, seed)
    specs, members_count = _group_specs(deployments, seed)
    runs = []
    for kind, scheme, purpose, point, ids, rng in specs:
        deployment = deployments[kind]
        picks = rng.choice(len(ids), size=members_count, replace=False)
        members = [ids[int(i)] for i in picks]
        if capture is not None:
            capture.current = {}
        start = time.perf_counter()
        try:
            run_ = exp.establish_and_measure_group(
                deployment, point, members, scheme, rng)
        except Exception as exc:  # counted as a failed operation
            run_ = None
            if outcome is not None:
                outcome.failed += 1
                outcome.notes.setdefault("errors", []).append(repr(exc))
        if outcome is not None:
            outcome.attempted += 1
            outcome.latencies_ms.append(
                1000.0 * (time.perf_counter() - start))
        runs.append((kind, scheme, purpose, point, members, run_,
                     capture.current if capture is not None else None))
    combos = {}
    for kind in KINDS:
        capacities = {info.peer_id: info.capacity
                      for info in deployments[kind].overlay.peers()}
        for scheme in SCHEMES:
            trees = [r.tree for k, s, p, _, _, r, _ in runs
                     if k == kind and s == scheme and p == "app"
                     and r is not None]
            combos[(kind, scheme)] = {
                "node_stress": tree_metrics.node_stress(trees),
                "overload": tree_metrics.overload_index(
                    tree_metrics.aggregate_workloads(trees), capacities),
            }
    return {"measures": measures, "runs": runs, "combos": combos}


def _digest(result: dict) -> tuple:
    return tuple((r.advertisement_messages, len(r.tree.members))
                 if r is not None else None
                 for *_, r, _ in result["runs"])


def _check(outcome: Outcome, deployments: dict, result: dict) -> None:
    from repro.experiments import common as exp

    flood_bad = relay_bad = chain_bad = delay_bad = ratio_bad = 0
    count_bad = 0
    for kind in KINDS:
        deployment = deployments[kind]
        overlay = deployment.overlay
        ttl = exp.announcement_for_size(
            PEERS, deployment.config.announcement).advertisement_ttl
        adjacency = {
            peer: [(n, deployment.peer_distance_ms(peer, n))
                   for n in overlay.neighbors(peer)]
            for peer in overlay.peer_ids()}
        neighbours = adjacency.__getitem__
        for k, scheme, _, point, _, run_, seen in result["runs"]:
            if k != kind or run_ is None:
                continue
            advertisement = seen["advertisement"]
            receipts = advertisement.receipts
            if scheme == "nssa":
                arrival, _, _ = checks.heap_flood(neighbours, point, ttl)
                flood_bad += checks.receipts_match_flood(receipts, arrival)
            shortest, _, _ = checks.heap_flood(neighbours, point, math.inf)
            relay_bad += checks.receipts_relay_valid(
                receipts, point, ttl, overlay.has_link,
                deployment.peer_distance_ms, shortest)
            chain_bad += checks.tree_chains(run_.tree, point)
            delay_bad += checks.dissemination_delays(
                run_.tree, seen["source"], deployment.peer_distance_ms,
                seen["member_delays"])
            ratio_bad += int(not (run_.delay_penalty >= 1.0 - 1e-9
                                  and run_.link_stress >= 1.0 - 1e-9))
            count_bad += int(advertisement.messages_sent
                             != len(receipts) - 1
                             + advertisement.duplicates)
    outcome.check("nssa.matches_heap_flood", flood_bad)
    outcome.check("flood.relays_valid", relay_bad)
    outcome.check("trees.chains_reach_rendezvous", chain_bad)
    outcome.check("trees.delivery_delays", delay_bad)
    outcome.check("trees.penalty_and_stress_at_least_1", ratio_bad)
    outcome.check("advertise.msgs_eq_receipts_minus_1_plus_dups", count_bad)
    _check_shapes(outcome, result)


def _mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


def _check_shapes(outcome: Outcome, result: dict) -> None:
    """The paper's qualitative claims that held at 4,000 peers on every
    seed tried, 1-20 (restated from benchmarks/test_fig*.py)."""
    m = result["measures"]
    gc_, pl = m["groupcast"], m["plod"]
    # The tail is compared at the 99th percentile: both maxima sit at the
    # PLOD degree cap on some seeds (121 vs 121 on seed 18), while the
    # 99th percentiles stay far apart (about 41 vs 108).
    tail = {kind: float(np.percentile(np.repeat(*m[kind]["degree_histogram"]),
                                      99.0))
            for kind in KINDS}
    outcome.check("shape.fig7_8_groupcast_lacks_long_tail",
                  int(not tail["groupcast"] < tail["plod"]))
    outcome.check("shape.fig7_8_mean_degree_3_to_12",
                  int(not all(3.0 < x["mean_degree"] < 12.0
                              for x in (gc_, pl))))
    outcome.check("shape.fig9_10_groupcast_neighbours_closer",
                  int(not gc_["neighbour_ms"] < 0.6 * pl["neighbour_ms"]))

    def runs(kind, scheme, purpose):
        return [r for k, s, p, _, _, r, _ in result["runs"]
                if k == kind and s == scheme and p == purpose
                and r is not None]

    def msgs(kind, scheme):
        return _mean([r.advertisement_messages + r.subscription_messages
                      + r.search_messages
                      for r in runs(kind, scheme, "lookup")])

    outcome.check("shape.fig11_ssa_fewer_messages_than_nssa",
                  sum(int(not msgs(k, "ssa") < msgs(k, "nssa"))
                      for k in KINDS))
    rdp = {(k, s): _mean([r.delay_penalty for r in runs(k, s, "app")])
           for k in KINDS for s in SCHEMES}
    outcome.check("shape.fig14_groupcast_ssa_lower_penalty_than_plod",
                  int(not rdp[("groupcast", "ssa")] < rdp[("plod", "ssa")]))
    combos = result["combos"]
    outcome.check("shape.fig17_groupcast_ssa_overload_at_most_plod",
                  int(not combos[("groupcast", "ssa")]["overload"]
                      <= combos[("plod", "ssa")]["overload"]))


def trace_specs() -> list[WrapSpec]:
    import repro.deployment as deployment
    from repro.coords.base import CoordinateSpace
    from repro.coords.gnp import GNPSystem
    from repro.experiments import common as exp
    from repro.metrics import overlay_metrics, tree_metrics
    from repro.network import multicast
    from repro.network.underlay import UnderlayNetwork
    from repro.overlay.bootstrap import UtilityBootstrap
    from repro.overlay.graph import OverlayNetwork
    from repro.peers.peer import PeerInfo

    specs = [
        WrapSpec(deployment, "generate_transit_stub", "network.topology"),
        WrapSpec(UnderlayNetwork, "attach_peer", "network.attach"),
        WrapSpec(multicast, "build_ip_multicast_tree", "network.multicast"),
        WrapSpec(GNPSystem, "fit_landmarks", "coords.fit"),
        WrapSpec(GNPSystem, "embed_peers", "coords.embed"),
        WrapSpec(CoordinateSpace, "distance", "coords.distance",
                 store=False),
        WrapSpec(PeerInfo, "coordinate_distance", "coords.distance",
                 store=False),
        WrapSpec(UtilityBootstrap, "join", "overlay.join", store=False),
        WrapSpec(deployment, "generate_plod_overlay", "overlay.plod"),
        WrapSpec(exp, "propagate_advertisement", "groupcast.advertise"),
        WrapSpec(exp, "subscribe_members", "groupcast.subscribe"),
        WrapSpec(exp, "disseminate", "groupcast.disseminate"),
        WrapSpec(OverlayNetwork, "clustering_coefficient", "metrics.overlay"),
    ]
    for name in ("degree_histogram", "power_law_fit",
                 "average_neighbor_distance_ms"):
        specs.append(WrapSpec(overlay_metrics, name, "metrics.overlay"))
    for name in ("relative_delay_penalty", "link_stress", "node_stress",
                 "aggregate_workloads", "overload_index"):
        specs.append(WrapSpec(tree_metrics, name, "metrics.tree"))
    for name in ("peer_distance_ms", "peer_distances_ms",
                 "peer_distance_matrix", "peer_pair_distances",
                 "peer_path_links", "peer_path_links_many",
                 "peer_hop_count", "peer_hop_counts", "multicast_links",
                 "router_distance_ms", "router_path",
                 "router_distances_from"):
        specs.append(WrapSpec(UnderlayNetwork, name, "network.routing",
                              store=False))
    return specs


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        return _run_traced(seed, outcome)
    quiet_gc()
    start = time.perf_counter()
    deployments = build(seed)
    outcome.setup_s.append(time.perf_counter() - start)
    quiet_gc()
    cpu0 = cpu_s()
    began = time.perf_counter()
    with Capture().installed() as capture:
        first = _round(deployments, seed, outcome, capture)
    digest = _digest(first)
    while time.perf_counter() - began < seconds:
        if _digest(_round(deployments, seed, outcome)) != digest:
            outcome.check("rounds_repeat", 1, "a repeated round differed")
    outcome.cpu_s = cpu_s() - cpu0
    outcome.peak_rss_mb = peak_rss_mb()
    _check(outcome, deployments, first)
    return outcome


def _cache_stats(deployments: dict) -> tuple[int, int]:
    hits = misses = 0
    for deployment in deployments.values():
        stats = deployment.underlay.routing.cache_stats()
        hits += stats["hits"]
        misses += stats["misses"]
    return hits, misses


def _run_traced(seed: int, outcome: Outcome) -> Outcome:
    ledger = Ledger()
    specs = trace_specs()
    with ledger.phase(specs):
        deployments = build(seed)
    probe_msgs = sum(d.stats.total() for d in deployments.values())
    edges = sum(d.overlay.edge_count for d in deployments.values())
    quiet_gc()
    with Stopwatch() as bare:
        _round(deployments, seed, None)
    hits0, misses0 = _cache_stats(deployments)
    quiet_gc()
    with Stopwatch() as traced:
        with ledger.phase(specs), Capture().installed() as capture:
            result = _round(deployments, seed, outcome, capture)
    hits1, misses1 = _cache_stats(deployments)
    outcome.peak_rss_mb = peak_rss_mb()
    _check(outcome, deployments, result)
    done = [seen["advertisement"] for *_, r, seen in result["runs"]
            if r is not None]
    runs = [r for *_, r, _ in result["runs"] if r is not None]
    outcome.layers = {
        "network.routing_calls": ledger.layer_calls("network.routing"),
        "network.cache_hits": hits1 - hits0,
        "network.cache_misses": misses1 - misses0,
        "coords.distance_calls": ledger.layer_calls("coords.distance"),
        "overlay.joins": ledger.layer_calls("overlay.join"),
        "overlay.probe_msgs": probe_msgs,
        "overlay.edges": edges,
        "groupcast.advertise_msgs": sum(a.messages_sent for a in done),
        "groupcast.advertise_duplicates": sum(a.duplicates for a in done),
        "groupcast.receipts": sum(len(a.receipts) for a in done),
        "groupcast.subscribe_msgs": sum(r.subscription_messages
                                        for r in runs),
        "groupcast.search_msgs": sum(r.search_messages for r in runs),
        "groupcast.members_joined": sum(len(r.tree.members) for r in runs),
        "ledger.wall_s": ledger.wall_s,
        "other_s": ledger.other_s(),
        "trace_overhead": traced.wall_s / bare.wall_s,
    }
    outcome.notes["ledger"] = ledger
    return outcome
