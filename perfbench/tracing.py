"""Spans around the benchmark's stage calls and a per-layer profile.

A :class:`Tracer` records one span per stage call (name, start, end,
parent) in memory.  Spans opened with ``profile=True`` are *leaf*
spans: when the tracer was created with a profiler, ``cProfile`` runs
only inside them, so every profiled microsecond lies inside exactly one
leaf span.  The traced wall time then splits into

* the self time of the non-leaf spans (the benchmark's own
  bookkeeping and the unprofiled ``import`` stage), and
* the profiler's self time, which :func:`layer_ledger` maps onto the
  repository's modules.

``cProfile`` self time is per function.  A function of the ``repro``
package belongs to the layer named by its module path (see
:func:`module_layer`).  Anything else -- a C builtin such as
``dict.get``, ``sorted``, ``heapq.heappush`` or ``ufunc.reduceat``, or
a pure-Python stdlib or numpy helper -- is charged to the layers of
its callers, split by the self time pstats records per caller.  Time
whose call chain never reaches ``repro`` code stays unmapped and shows
in ``trace.coverage``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager

#: The layers the ledger reports, named after the package's modules.
LAYERS = ("harness", "topology", "core.max_estimate", "core.cluster_sync",
          "core", "protocols", "baselines", "sim", "net", "clocks",
          "analysis", "faults", "engine_vec")

_SPLIT_CORE = ("max_estimate", "cluster_sync")


class Tracer:
    """In-memory spans, plus a profiler that runs only in leaf spans."""

    def __init__(self, profile: bool = False) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.profiler = cProfile.Profile() if profile else None
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, profile: bool = False):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "leaf": profile, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._stack.append(record["id"])
        profiler = self.profiler if profile else None
        record["start"] = time.perf_counter() - self._origin
        if profiler is not None:
            profiler.enable()
        try:
            yield record
        finally:
            if profiler is not None:
                profiler.disable()
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in opening order."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def nonleaf_self_s(self) -> float:
        """Summed self time of the non-leaf spans: each one's duration
        minus the part its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - child_time[s["id"]]
                   for s in self.spans if not s["leaf"])


def module_layer(filename: str, package_dir: str) -> str | None:
    """The layer of a function defined in ``filename``, or ``None``
    when the file is not a module of the package rooted at
    ``package_dir`` (or is one no layer claims, e.g. ``errors.py``)."""
    path = os.path.normpath(filename)
    if not path.startswith(package_dir + os.sep):
        return None
    parts = path[len(package_dir) + 1:-len(".py")].split(os.sep)
    top = parts[0]
    if top == "core" and len(parts) > 1 and parts[1] in _SPLIT_CORE:
        return f"core.{parts[1]}"
    return top if top in LAYERS else None


def layer_ledger(profiler: cProfile.Profile, package_dir: str) -> dict:
    """Self seconds per layer, unmapped seconds, and raw stats.

    Returns ``{"self_s": {layer: seconds}, "unmapped_s": seconds,
    "profiled_s": seconds, "stats": pstats stats dict}``.
    """
    stats = pstats.Stats(profiler).stats
    package_dir = os.path.normpath(package_dir)
    shares: dict = {}

    def share(func, visiting) -> dict[str, float]:
        """Fraction of ``func``'s self time owed to each layer."""
        if func in shares:
            return shares[func]
        layer = module_layer(func[0], package_dir)
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        callers = stats[func][4]
        weights = {c: v[2] for c, v in callers.items() if c in stats}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: v[1] for c, v in callers.items() if c in stats}
            total = sum(weights.values())
        out: dict[str, float] = {}
        visiting.add(func)
        for caller, weight in weights.items():
            if caller in visiting:
                continue
            for name, fraction in share(caller, visiting).items():
                out[name] = out.get(name, 0.0) + fraction * weight / total
        visiting.discard(func)
        shares[func] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS}
    profiled = unmapped = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        profiled += tt
        mapped = 0.0
        for name, fraction in share(func, set()).items():
            self_s[name] += tt * fraction
            mapped += fraction
        unmapped += tt * max(0.0, 1.0 - mapped)
    return {"self_s": self_s, "unmapped_s": unmapped,
            "profiled_s": profiled, "stats": stats}


#: Work counts read from the profiler: name -> (module of the package,
#: functions called, layer the calls must come from or ``None`` for all).
CALL_COUNTS = {
    "core.max_estimate.decode_calls": ("core/max_estimate.py",
                                       ("_confirmed_level",), None),
    "net.flush_calls": ("net/network.py", ("_flush",), None),
    "net.broadcast_calls": ("net/network.py", ("broadcast",), None),
    # Messages the faults layer hands to the network.
    "faults.injections": ("net/network.py",
                          ("send", "send_with_delay", "broadcast"), "faults"),
}


def call_counts(stats: dict, package_dir: str) -> dict[str, int]:
    """The :data:`CALL_COUNTS` work counts of one profile."""
    package_dir = os.path.normpath(package_dir)
    counts = {}
    for name, (module, functions, layer) in CALL_COUNTS.items():
        path = os.path.join(package_dir, module)
        total = 0
        for func, value in stats.items():
            if func[2] not in functions or os.path.normpath(func[0]) != path:
                continue
            if layer is None:
                total += value[1]
            else:
                total += sum(v[1] for caller, v in value[4].items()
                             if module_layer(caller[0], package_dir) == layer)
        counts[name] = total
    return counts


def cumulative_s(stats: dict, package_dir: str, module: str,
                 function: str) -> float:
    """Cumulative (inclusive) profiled seconds of one function."""
    path = os.path.join(os.path.normpath(package_dir), module)
    return sum(v[3] for f, v in stats.items()
               if f[2] == function and os.path.normpath(f[0]) == path)
