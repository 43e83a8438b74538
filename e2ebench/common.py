"""Shared plumbing of the end-to-end benchmark: metric lists, run
hygiene, resource readings and the per-workload outcome record."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (the directory holding ``src/`` and this benchmark).
ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> module implementing ``run(seed, seconds, trace)``.
WORKLOADS = {
    "figures_4k": "wl_figures",
    "scale_1m": "wl_scale",
    "tenancy_10k": "wl_tenancy",
    "live_50hz": "wl_live",
}

#: End-to-end metrics, reported by every workload from its untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Per-layer metrics, reported by every workload from its traced run.  A
#: layer the workload never calls reads 0 (it did no work there).
PER_LAYER = (
    ("network.topology_s", "s", "lower"),
    ("network.attach_s", "s", "lower"),
    ("network.routing_s", "s", "lower"),
    ("network.routing_calls", "count", "lower"),
    ("network.cache_hits", "count", "higher"),
    ("network.cache_misses", "count", "lower"),
    ("network.multicast_s", "s", "lower"),
    ("coords.fit_s", "s", "lower"),
    ("coords.embed_s", "s", "lower"),
    ("coords.distance_s", "s", "lower"),
    ("coords.distance_calls", "count", "lower"),
    ("overlay.join_s", "s", "lower"),
    ("overlay.joins", "count", "lower"),
    ("overlay.plod_s", "s", "lower"),
    ("overlay.probe_msgs", "count", "lower"),
    ("overlay.edges", "count", "lower"),
    ("groupcast.advertise_s", "s", "lower"),
    ("groupcast.advertise_msgs", "count", "lower"),
    ("groupcast.advertise_duplicates", "count", "lower"),
    ("groupcast.receipts", "count", "higher"),
    ("groupcast.subscribe_s", "s", "lower"),
    ("groupcast.subscribe_msgs", "count", "lower"),
    ("groupcast.search_msgs", "count", "lower"),
    ("groupcast.members_joined", "count", "higher"),
    ("groupcast.disseminate_s", "s", "lower"),
    ("metrics.tree_s", "s", "lower"),
    ("metrics.overlay_s", "s", "lower"),
    ("core.world_s", "s", "lower"),
    ("workloads.rosters_s", "s", "lower"),
    ("core.flood_s", "s", "lower"),
    ("core.pass_s", "s", "lower"),
    ("core.np_diff_s", "s", "lower"),
    ("core.np_diff_calls", "count", "lower"),
    ("core.rows_reached", "count", "higher"),
    ("core.climb_s", "s", "lower"),
    ("core.delays_s", "s", "lower"),
    ("parallel.publish_s", "s", "lower"),
    ("parallel.pass_s", "s", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("obs.dims_s", "s", "lower"),
    ("obs.attainment_s", "s", "lower"),
    ("obs.json_s", "s", "lower"),
    ("obs.live_s", "s", "lower"),
    ("runtime.encode_s", "s", "lower"),
    ("runtime.frames_encoded", "count", "lower"),
    ("runtime.decode_s", "s", "lower"),
    ("runtime.frames_decoded", "count", "lower"),
    ("runtime.arq_s", "s", "lower"),
    ("runtime.handler_s", "s", "lower"),
    ("runtime.loop_s", "s", "lower"),
    ("runtime.datagrams", "count", "lower"),
    ("runtime.retransmits", "count", "lower"),
    ("runtime.duplicates_suppressed", "count", "lower"),
    ("runtime.setup_retransmits", "count", "lower"),
    ("runtime.generator_late_ms", "ms", "lower"),
    ("runtime.cpu_us_per_datagram", "us", "lower"),
    ("runtime.delivery_p99_ms", "ms", "lower"),
    ("ledger.wall_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    checks: list[tuple[str, int, str]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def check(self, name: str, violations: int, detail: str = "") -> None:
        """Record one correctness check (0 violations passes)."""
        self.checks.append((name, int(violations), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(v == 0 for _, v, _ in self.checks)

    def end_to_end(self) -> dict[str, float]:
        """The untraced end-to-end metrics of this run."""
        done = self.attempted - self.failed
        return {
            "setup_s": statistics.median(self.setup_s),
            "latency_p50_ms": statistics.median(self.latencies_ms),
            "cpu_ms_per_op": 1000.0 * self.cpu_s / max(done, 1),
            "peak_rss_mb": self.peak_rss_mb,
        }


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime)


def children_cpu_s() -> float:
    """CPU seconds of reaped child processes (pool workers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set so far, MiB: this process plus its largest
    reaped child (a pool worker), where there were children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def quiet_gc() -> None:
    """Full collection before a timed part, so earlier garbage is not
    charged to it."""
    gc.collect()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` (no git process); a
    source export without ``.git`` reports ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def environment() -> dict[str, object]:
    """Run hygiene block printed with every run."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "platform": sys.platform,
    }


class Stopwatch:
    """Wall and CPU of one block (``with Stopwatch() as sw``)."""

    def __enter__(self) -> "Stopwatch":
        self.wall0 = time.perf_counter()
        self.cpu0 = cpu_s()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.wall0
        self.cpu_s = cpu_s() - self.cpu0
