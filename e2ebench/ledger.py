"""Span ledger: times calls into the program's public functions from outside.

The traced run wraps public functions *where their callers look them
up* (a module attribute or a class attribute), records one span per
call (name, start, end, parent) and folds the spans into per-layer self
times.  A layer's self time is its spans' durations minus the time their
child spans cover, so the self times of all spans add up to the time
covered by root spans; the benchmark's own code between root spans is
reported as ``other_s``.  Nothing under ``src/`` changes: wrappers are
installed for one ledger phase and the original attributes are restored
when it ends.

Hot leaf functions (underlay distance queries, coordinate distances,
frame codecs) are wrapped with ``store=False``: they still count and
still charge their time to their layer and to their parent's child
time, but do not keep a span record each, so memory stays bounded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

#: Cap on stored span records; later spans still count in the ledger.
MAX_SPANS = 250_000

_INHERITED = object()


@dataclass(frozen=True)
class WrapSpec:
    """One public function to time: ``owner.attr`` charged to ``layer``."""

    owner: object
    attr: str
    layer: str
    store: bool = True


class Ledger:
    """In-memory span recorder and per-layer self-time ledger."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.dropped_spans = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0, self._next_id,
                            self._stack[-1][3] if self._stack else 0])
        self._next_id += 1

    def _exit(self, store: bool) -> None:
        end = time.perf_counter()
        layer, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
        if store:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, layer,
                                   start - self._origin,
                                   end - self._origin))
            else:
                self.dropped_spans += 1

    def _wrapper(self, original: Callable, layer: str,
                 store: bool) -> Callable:
        ledger = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            ledger._enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                ledger._exit(store)

        return traced

    # ------------------------------------------------------------------
    # Phases: install wrappers, time the wall, restore
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, specs: Iterable[WrapSpec]):
        """Patch every spec'd attribute; restore them on exit."""
        saved = []
        try:
            for spec in specs:
                # Classes keep the raw descriptor (a classmethod stays a
                # classmethod on restore); inherited attributes are
                # removed again instead of being copied down.
                raw = (vars(spec.owner).get(spec.attr, _INHERITED)
                       if isinstance(spec.owner, type)
                       else getattr(spec.owner, spec.attr))
                saved.append((spec.owner, spec.attr, raw))
                setattr(spec.owner, spec.attr, self._wrapper(
                    getattr(spec.owner, spec.attr), spec.layer,
                    spec.store))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                if raw is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    @contextlib.contextmanager
    def phase(self, specs: Iterable[WrapSpec]):
        """One ledger phase: wrappers installed, wall and CPU counted."""
        with self.installed(specs):
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                yield self
            finally:
                self.wall_s += time.perf_counter() - wall0
                self.cpu_s += time.process_time() - cpu0

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def layer_calls(self, *layers: str) -> int:
        """Summed call count of the named layers."""
        return sum(self.calls.get(layer, 0) for layer in layers)

    def other_s(self, carved_s: float = 0.0) -> float:
        """Phase wall time outside every root span (minus ``carved_s``,
        time the caller attributes to a layer by other means)."""
        return self.wall_s - self.root_s - carved_s

    def write_spans(self, path: Path) -> None:
        """Write stored spans as JSON lines (id, parent, name, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, layer, start, end in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": layer,
                     "start_s": round(start, 9), "end_s": round(end, 9)},
                    separators=(",", ":")) + "\n")
