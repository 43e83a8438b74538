"""Correctness checks computed apart from the program.

Every check takes the program's outputs plus the inputs it was given and
recomputes a property the method must have with the benchmark's own
code: a vectorised fixed point over the CSR for the array floods, a heap
flood for the object floods and the tenancy reference, a level-order
delay sum for trees.  Each returns the number of violating rows (or
items); 0 passes.  ``test_checks.py`` shows each one failing on a wrong
input.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Mapping

import numpy as np

#: Relative tolerance for recomputed float sums.  The program and the
#: checks add the same float64 terms in the same order, so results agree
#: to the last bit; the tolerance only absorbs a reordering of equal-cost
#: operations and stays far below one edge latency.
RTOL = 1e-9


def _close(a, b) -> np.ndarray:
    return np.isclose(a, b, rtol=RTOL, atol=1e-9)


# ----------------------------------------------------------------------
# Array floods (scale_1m)
# ----------------------------------------------------------------------
def _edge_sources(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64),
                     np.diff(indptr))


def flood_consistency(indptr, indices, latency, root: int, ttl: int,
                      arrival, upstream, hops) -> int:
    """Rows whose flood record is not a valid relay of its upstream.

    A reached row other than the root must name an upstream that was
    reached with ``hops < ttl`` and is an overlay neighbour; its arrival
    must equal the upstream's arrival plus that edge's latency and its
    hops one more than the upstream's.  The root arrives at 0 with 0
    hops; unreached rows carry no upstream and no hops.
    """
    n = indptr.shape[0] - 1
    arrival = np.asarray(arrival, dtype=float)
    upstream = np.asarray(upstream, dtype=np.int64)
    hops = np.asarray(hops, dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    bad[root] = not (arrival[root] == 0.0 and hops[root] == 0
                     and upstream[root] < 0)
    reached = np.isfinite(arrival)
    unreached = ~reached
    bad |= unreached & ((upstream >= 0) | (hops >= 0))
    rows = np.nonzero(reached)[0]
    rows = rows[rows != root]
    up = upstream[rows]
    valid = (up >= 0) & (up < n)
    bad[rows[~valid]] = True
    rows, up = rows[valid], up[valid]
    # Locate edge (up -> row) in the CSR via sorted flat keys.
    keys = _edge_sources(indptr) * np.int64(n) + indices
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    want = up * np.int64(n) + rows
    pos = np.searchsorted(sorted_keys, want)
    pos = np.minimum(pos, sorted_keys.shape[0] - 1)
    is_edge = sorted_keys[pos] == want
    edge_latency = np.where(is_edge, latency[order[pos]], np.nan)
    ok = (is_edge
          & np.isfinite(arrival[up])
          & (hops[up] < ttl)
          & (hops[rows] == hops[up] + 1)
          & _close(arrival[rows], arrival[up] + edge_latency))
    bad[rows[~ok]] = True
    return int(bad.sum())


def nssa_fixed_point(indptr, indices, latency, root: int, ttl: int,
                     arrival, hops) -> int:
    """Rows breaking the NSSA flood's fixed point.

    Every reached row's arrival equals the minimum, over reached
    neighbours with ``hops < ttl``, of their arrival plus the edge
    latency; an unreached row has no such neighbour.
    """
    n = indptr.shape[0] - 1
    arrival = np.asarray(arrival, dtype=float)
    hops = np.asarray(hops, dtype=np.int64)
    src = _edge_sources(indptr)
    sends = np.isfinite(arrival[src]) & (hops[src] < ttl) & (hops[src] >= 0)
    best = np.full(n, np.inf)
    np.minimum.at(best, indices[sends], arrival[src[sends]] + latency[sends])
    best[root] = 0.0
    reached = np.isfinite(arrival)
    bad = reached & ~_close(arrival, np.where(np.isfinite(best), best, -1.0))
    bad |= ~reached & np.isfinite(best)
    return int(bad.sum())


def not_before_shortest_paths(indptr, indices, latency, root: int,
                              arrival) -> int:
    """Reached rows arriving before the TTL-free shortest-path distance.

    Any flood, SSA or NSSA, delivers along some overlay path, so no row
    can hear the advertisement earlier than the shortest-path distance
    from the rendezvous (the NSSA fixed point without a TTL).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = indptr.shape[0] - 1
    graph = csr_matrix((np.asarray(latency, dtype=float),
                        np.asarray(indices), np.asarray(indptr)),
                       shape=(n, n))
    dist = dijkstra(graph, directed=True, indices=root)
    arrival = np.asarray(arrival, dtype=float)
    reached = np.isfinite(arrival)
    early = reached & (arrival < dist * (1.0 - RTOL) - 1e-9)
    return int(early.sum())


def climb_closure(upstream, arrival, members, root: int, on_tree) -> int:
    """Rows where the tree mask differs from the members' reverse paths.

    The tree is the root plus every row on the upstream chain of a
    reached member; chains are walked here one level at a time.
    """
    upstream = np.asarray(upstream, dtype=np.int64)
    expected = np.zeros(upstream.shape[0], dtype=bool)
    expected[root] = True
    cursor = np.asarray(members, dtype=np.int64)
    cursor = cursor[np.isfinite(np.asarray(arrival)[cursor])]
    for _ in range(upstream.shape[0]):
        cursor = np.unique(cursor[~expected[cursor]])
        if cursor.size == 0:
            break
        expected[cursor] = True
        cursor = upstream[cursor]
        cursor = cursor[cursor >= 0]
    return int((expected != np.asarray(on_tree, dtype=bool)).sum())


def tree_delay_sums(parent, on_tree, hops, coords, root: int,
                    delays) -> int:
    """Rows whose tree delay is not the coordinate-distance sum along
    their parent chain (off-tree rows must read ``inf``).

    Rows are settled in hop order, so each parent is final before its
    children; a chain that does not reach the root leaves its rows
    unsettled and they count as violations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    on_tree = np.asarray(on_tree, dtype=bool)
    hops = np.asarray(hops, dtype=np.int64)
    expected = np.full(parent.shape[0], np.inf)
    expected[root] = 0.0
    tree_rows = np.nonzero(on_tree)[0]
    tree_rows = tree_rows[tree_rows != root]
    for level in range(1, int(hops[tree_rows].max(initial=0)) + 1):
        rows = tree_rows[hops[tree_rows] == level]
        up = parent[rows]
        ok = (up >= 0) & on_tree[np.maximum(up, 0)] \
            & (hops[np.maximum(up, 0)] == level - 1)
        rows, up = rows[ok], up[ok]
        delta = coords[rows] - coords[up]
        expected[rows] = expected[up] + np.sqrt((delta * delta).sum(axis=1))
    delays = np.asarray(delays, dtype=float)
    both_inf = np.isinf(expected) & np.isinf(delays)
    good = both_inf | _close(delays, np.where(np.isinf(expected), -1.0,
                                              expected))
    return int((~good).sum())


# ----------------------------------------------------------------------
# Heap floods (object path and tenancy reference)
# ----------------------------------------------------------------------
def heap_flood(neighbours: Callable[[int], Iterable[tuple[int, float]]],
               root: int, ttl: float):
    """First-arrival flood with a hop limit, written as a heap Dijkstra.

    Returns ``(arrival, hops, upstream)`` dicts over reached peers.  A
    peer forwards to every neighbour iff its hop count is below ``ttl``;
    ``ttl=math.inf`` gives plain shortest paths.
    """
    arrival = {root: 0.0}
    hops = {root: 0}
    upstream = {root: -1}
    settled = set()
    heap = [(0.0, root)]
    while heap:
        at, peer = heapq.heappop(heap)
        if peer in settled or at > arrival[peer]:
            continue
        settled.add(peer)
        if hops[peer] >= ttl:
            continue
        for other, cost in neighbours(peer):
            candidate = at + cost
            if candidate < arrival.get(other, math.inf):
                arrival[other] = candidate
                hops[other] = hops[peer] + 1
                upstream[other] = peer
                heapq.heappush(heap, (candidate, other))
    return arrival, hops, upstream


def receipts_match_flood(receipts: Mapping[int, object],
                         reference_arrival: Mapping[int, float]) -> int:
    """Peers whose NSSA receipt differs from the reference heap flood
    (missing, extra, or arriving at a different time)."""
    bad = len(set(receipts) ^ set(reference_arrival))
    for peer, receipt in receipts.items():
        expected = reference_arrival.get(peer)
        if expected is not None and not math.isclose(
                receipt.elapsed_ms, expected, rel_tol=RTOL, abs_tol=1e-9):
            bad += 1
    return bad


def receipts_relay_valid(receipts: Mapping[int, object], rendezvous: int,
                         ttl: int, is_neighbour: Callable[[int, int], bool],
                         latency: Callable[[int, int], float],
                         shortest: Mapping[int, float]) -> int:
    """Receipts (any scheme) that are not a valid relay of their
    upstream, or arrive before the TTL-free shortest path."""
    bad = 0
    for peer, receipt in receipts.items():
        if peer == rendezvous:
            bad += not (receipt.upstream is None and receipt.hops == 0
                        and receipt.elapsed_ms == 0.0)
            continue
        up = receipts.get(receipt.upstream)
        if up is None or up.hops >= ttl \
                or receipt.hops != up.hops + 1 \
                or not is_neighbour(receipt.upstream, peer) \
                or not math.isclose(
                    receipt.elapsed_ms,
                    up.elapsed_ms + latency(receipt.upstream, peer),
                    rel_tol=RTOL, abs_tol=1e-9) \
                or receipt.elapsed_ms < shortest.get(peer, math.inf) \
                * (1.0 - RTOL) - 1e-9:
            bad += 1
    return bad


def tree_chains(tree, root: int) -> int:
    """Joined members whose parent chain does not reach the rendezvous
    point without a cycle."""
    bad = 0
    limit = tree.node_count + 1
    for member in tree.members:
        node, steps = member, 0
        while node != root and steps < limit:
            node = tree.parent(node)
            steps += 1
            if node is None:
                break
        bad += node != root
    return bad


def dissemination_delays(tree, source: int,
                         distance: Callable[[int, int], float],
                         member_delays: Mapping[int, float]) -> int:
    """Members whose reported delay is not the sum of underlay latencies
    along their tree path from the source (recomputed by BFS)."""
    adjacency: dict[int, list[int]] = {}
    for child, parent in tree.edges():
        adjacency.setdefault(child, []).append(parent)
        adjacency.setdefault(parent, []).append(child)
    delay = {source: 0.0}
    queue = [source]
    for node in queue:
        for other in sorted(adjacency.get(node, ())):
            if other not in delay:
                delay[other] = delay[node] + distance(node, other)
                queue.append(other)
    expected = {m: delay.get(m, math.inf) for m in tree.members
                if m != source}
    bad = len(set(expected) ^ set(member_delays))
    for member, value in member_delays.items():
        if member in expected and not math.isclose(
                value, expected[member], rel_tol=RTOL, abs_tol=1e-9):
            bad += 1
    return bad


# ----------------------------------------------------------------------
# Tenancy
# ----------------------------------------------------------------------
def reference_group(indptr, indices, latency, coords, root: int,
                    members, ttl: int) -> dict[str, float]:
    """Receipts, tree nodes, members on tree and max member delay of one
    group, by heap flood + reverse-path climb + delay sum."""
    def neighbours(row):
        lo, hi = indptr[row], indptr[row + 1]
        return zip(indices[lo:hi].tolist(), latency[lo:hi].tolist())

    arrival, _, upstream = heap_flood(neighbours, root, ttl)
    on_tree = {root}
    for member in members:
        node = int(member)
        if node not in arrival:
            continue
        while node not in on_tree:
            on_tree.add(node)
            node = upstream[node]
    delay = {root: 0.0}

    def tree_delay(node):
        chain = []
        while node not in delay:
            chain.append(node)
            node = upstream[node]
        for child in reversed(chain):
            parent = upstream[child]
            delta = coords[child] - coords[parent]
            delay[child] = delay[parent] + float(
                np.sqrt((delta * delta).sum()))
        return delay[chain[0]] if chain else delay[node]

    joined = [int(m) for m in members if int(m) in on_tree]
    delays = [tree_delay(m) for m in joined]
    return {
        "receipts": len(arrival),
        "tree_nodes": len(on_tree),
        "members_on_tree": len(joined),
        "delay_max_ms": max(delays) if delays else math.inf,
    }


def attainment_rows(rows: list[dict], n_groups: int, member_total: int,
                    min_ratio: float, max_p99_ms: float) -> int:
    """Tenant-table violations: totals that do not add up to the roster,
    and attained flags that disagree with the row's own columns."""
    bad = int(sum(r["groups"] for r in rows) != n_groups)
    bad += int(sum(r["members"] for r in rows) != member_total)
    for row in rows:
        ratio_ok = row["delivery_ratio"] >= min_ratio
        p99 = row.get("p99_ms")
        p99_ok = row["members"] == 0 or (p99 is not None
                                         and p99 <= max_p99_ms)
        expected_ratio = (row["delivered"] / row["members"]
                          if row["members"] else 1.0)
        bad += int(row["attained"] != (ratio_ok and p99_ok))
        bad += int(not math.isclose(row["delivery_ratio"], expected_ratio))
    return bad


# ----------------------------------------------------------------------
# Live
# ----------------------------------------------------------------------
def live_deliveries(published: list[tuple[int, int, int, float]],
                    deliveries: Mapping[tuple[int, int], Mapping[int, float]],
                    members: Mapping[int, set[int]],
                    tree_nodes: Mapping[int, set[int]]) -> int:
    """Payloads delivered wrongly: to a peer off the group's tree, or to
    a member set other than the group's, or stamped before publish.

    ``published`` holds ``(group, payload_id, source, published_ms)``.
    """
    bad = 0
    for group, payload, _source, at_ms in published:
        got = deliveries.get((group, payload), {})
        peers = set(got)
        bad += int(peers != tree_nodes[group])
        bad += int((peers & members[group]) != members[group])
        bad += sum(1 for t in got.values() if t < at_ms)
    return bad
