"""Run one workload in this process and print its result.

Started by ``run.py`` in a fresh interpreter with a pinned
``PYTHONHASHSEED``; not meant to be run by hand (use ``run.py``).  The
last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (END_TO_END, PER_LAYER, ROOT, WORKLOADS,  # noqa: E402
                    environment)

sys.path.insert(0, str(ROOT / "src"))

#: Where the traced run writes its spans.
SPANS_DIR = HERE / "out"


def layer_metrics(outcome) -> dict[str, float]:
    """Every per-layer metric: the ledger's self times by layer, the
    workload's counts, and 0 for layers this workload never reached."""
    ledger = outcome.notes["ledger"]
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    known = set(values)
    for layer, seconds in ledger.self_s.items():
        name = f"{layer}_s"
        if name not in known:
            raise KeyError(f"ledger layer {layer!r} has no metric")
        values[name] = seconds
    for name, value in outcome.layers.items():
        if name not in known:
            raise KeyError(f"unknown per-layer metric {name!r}")
        values[name] = value
    return values


def print_ledger(workload: str, ledger, values: dict[str, float]) -> None:
    wall = values["ledger.wall_s"]
    print(f"layer ledger: {workload} (traced wall {wall:.4f} s, "
          f"tracing overhead {values['trace_overhead']:.3f}x)")
    print(f"  {'metric':34s} {'value':>14s} {'share':>7s}")
    for name, _, _ in PER_LAYER:
        value = values[name]
        if value == 0:
            continue
        in_wall = (name[:-2] in ledger.self_s
                   or name in ("runtime.loop_s", "other_s"))
        share = f"{100.0 * value / wall:6.1f}%" if in_wall and wall else ""
        print(f"  {name:34s} {value:14.6g} {share:>7s}")
    # The identity the ledger keeps: span self times, the CPU carved out
    # for the event loop and the remainder add up to the traced wall.
    total = (sum(ledger.self_s.values()) + values["runtime.loop_s"]
             + values["other_s"])
    print(f"  self times + runtime.loop_s + other_s = {total:.6f} s "
          f"(ledger wall {wall:.6f} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = importlib.import_module(WORKLOADS[args.workload])
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    outcome = module.run(args.seed, args.seconds, bool(args.trace))

    for error in outcome.notes.get("errors", [])[:10]:
        print(f"failed operation: {error}")
    for name, violations, detail in outcome.checks:
        status = "ok  " if violations == 0 else "FAIL"
        print(f"check {status} {name}: {violations} violations"
              + (f" ({detail})" if detail else ""))
    units = {name: unit for name, unit, _ in
             (PER_LAYER if args.trace else END_TO_END)}
    if args.trace:
        values = layer_metrics(outcome)
        ledger = outcome.notes["ledger"]
        print_ledger(args.workload, ledger, values)
        spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        ledger.write_spans(spans)
        print(f"spans: {len(ledger.spans)} written to "
              f"{spans.relative_to(ROOT)}, {ledger.dropped_spans} "
              f"over the in-memory cap (counted, not stored)")
    else:
        values = outcome.end_to_end()
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
