"""Layer spans recorded from outside the program.

The traced run wraps public functions of each layer at the attribute the
caller resolves (a class attribute, or the name a module imported), runs
the workload, and restores every attribute afterwards.  Span names follow
the ROADMAP's layer taxonomy, so spans emitted later from inside the
program can carry the same names.

Spans are kept in memory as ``[name, start, end, parent, step]`` and
written out once the run ends.  A call re-entering a span of the same name
(``snapshot_delta`` calling ``snapshot``, ``route`` calling
``single_source``) is folded into the outer span.  Self time is a span's
duration minus the durations of its direct children.  A span carries the
id of the step last started, so work a unit does between steps counts
toward the step before it, as its time does in the end-to-end figures.
"""

from __future__ import annotations

import gc
import json
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro.core.network as core_network
import repro.demand.fluid as demand_fluid
import repro.experiments.demand as demand_experiment
import repro.experiments.figure2 as figure2
import repro.isl.topology as isl_topology
import scipy.sparse.csgraph as csgraph
from repro.core.network import NetworkSnapshot, OpenSpaceNetwork
from repro.core.spatial import SpatialGridIndex
from repro.faults.inject import FaultInjector
from repro.isl.topology import IslTopologyBuilder
from repro.orbits.walker import WalkerConstellation
from repro.routing.csr import CsrAdjacency

#: ``OpenSpaceNetwork.delta_stats`` keys and the counts they feed.
BUILD_COUNTS = {"full_builds": "network.builds.full",
                "delta_builds": "network.builds.delta"}


class LayerTracer:
    """Installs the layer wrappers and turns their spans into metrics."""

    def __init__(self):
        self.spans: List[list] = []
        self.step = -1
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._installed: List[tuple] = []
        self._returned = weakref.WeakValueDictionary()
        self._builds_before: Dict[str, int] = {}
        self._gc_started = 0.0
        self.gc_collections = 0
        self.gc_seconds = 0.0

    # -- counters fed by hooks ------------------------------------------

    def _add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _before_network_snapshot(self, args) -> None:
        stats = args[0].delta_stats
        self._builds_before = {key: stats[key] for key in BUILD_COUNTS}

    def _after_network_snapshot(self, args, result) -> None:
        # Builds happen only inside ``snapshot``; no network is kept alive.
        stats = args[0].delta_stats
        for key, count in BUILD_COUNTS.items():
            self._add(count, stats[key] - self._builds_before[key])
        # A cached answer is the very object an earlier call returned.
        if self._returned.get(id(result)) is result:
            self._add("network.snapshot.hits")
        else:
            self._returned[id(result)] = result

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        add = self._add
        return [
            (OpenSpaceNetwork, "satellite_positions", "orbits.propagate", {}),
            (OpenSpaceNetwork, "prime_positions", "orbits.propagate", {}),
            (WalkerConstellation, "positions_over", "orbits.propagate", {}),
            (SpatialGridIndex, "candidate_pairs", "isl.candidates", dict(
                after=lambda a, r: add("isl.candidates.pairs", len(r[0])))),
            (IslTopologyBuilder, "snapshot", "isl.snapshot", dict(
                after=lambda a, r: add("isl.links", r.link_count))),
            (IslTopologyBuilder, "snapshot_delta", "isl.snapshot", dict(
                after=lambda a, r: add("isl.links", r[0].link_count))),
            (isl_topology, "best_link_between", "phy.budget", dict(
                after=lambda a, r: add("isl.budgets"))),
            (core_network, "rf_link_budget", "phy.budget", {}),
            (OpenSpaceNetwork, "snapshot", "network.snapshot", dict(
                before=self._before_network_snapshot,
                after=self._after_network_snapshot)),
            (OpenSpaceNetwork, "gateway_probe_paths", "network.probe", {}),
            (CsrAdjacency, "from_graph", "routing.csr_build", {}),
            (CsrAdjacency, "append_leaf_arrays", "routing.csr_build", {}),
            (CsrAdjacency, "shortest_paths", "routing.dijkstra", {}),
            (CsrAdjacency, "single_source", "routing.dijkstra", {}),
            (core_network, "block_diagonal_dijkstra", "routing.dijkstra", {}),
            (NetworkSnapshot, "route", "routing.dijkstra", {}),
            (csgraph, "dijkstra", "routing.dijkstra", {}),
            (demand_fluid, "map_cells_to_routes", "demand.routes", {}),
            (demand_fluid, "waterfill_rates", "demand.waterfill", {}),
            (demand_experiment, "run_fluid", "demand.fluid", dict(
                after=lambda a, r: add("demand.fluid.iterations",
                                       r.iterations))),
            (demand_experiment, "settle_demand", "demand.settle", {}),
            (FaultInjector, "apply", "faults.apply", {}),
            (FaultInjector, "repair", "faults.apply", {}),
            (figure2, "figure_2b_latency", "figure2.point", {}),
        ]

    def install(self) -> None:
        """Wrap every target and start counting collector passes."""
        for owner, attr, name, hooks in self._targets():
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, name, **hooks))
            else:
                wrapped = self._wrap(original, name, **hooks)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all are restored."""
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        restored = all(
            (owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) is original
            for owner, attr, original in self._installed
        )
        self._installed.clear()
        return restored

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += perf_counter() - self._gc_started

    # -- reduction ------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``ms`` and ``self_ms``."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(
                name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            duration_ms = (end - start) * 1000.0
            entry["calls"] += 1
            entry["ms"] += duration_ms
            entry["self_ms"] += duration_ms - child_ms[index]
        return totals

    def layer_metrics(self, steps: int) -> Dict[str, float]:
        """Per-layer metrics, each a traced-loop total per timed step."""
        totals = self.totals()
        counts = self.counts

        def span(name: str, field: str) -> float:
            return totals.get(name, {}).get(field, 0.0) / steps

        def count(key: str) -> float:
            return counts.get(key, 0.0) / steps

        snapshot_calls = totals.get("network.snapshot", {}).get("calls", 0)
        budgets = counts.get("isl.budgets", 0.0)
        return {
            "orbits.propagate.calls": span("orbits.propagate", "calls"),
            "orbits.propagate.ms": span("orbits.propagate", "ms"),
            "isl.candidates.calls": span("isl.candidates", "calls"),
            "isl.candidates.ms": span("isl.candidates", "ms"),
            "isl.candidates.pairs": count("isl.candidates.pairs"),
            "isl.snapshot.calls": span("isl.snapshot", "calls"),
            "isl.snapshot.ms": span("isl.snapshot", "ms"),
            "isl.assign.self_ms": span("isl.snapshot", "self_ms"),
            "isl.links": count("isl.links"),
            "isl.links_per_budget": (
                counts.get("isl.links", 0.0) / budgets if budgets else 0.0),
            "phy.budget.calls": span("phy.budget", "calls"),
            "phy.budget.ms": span("phy.budget", "ms"),
            "network.snapshot.calls": span("network.snapshot", "calls"),
            "network.snapshot.ms": span("network.snapshot", "ms"),
            "network.attach.self_ms": span("network.snapshot", "self_ms"),
            "network.probe.calls": span("network.probe", "calls"),
            "network.probe.ms": span("network.probe", "ms"),
            "network.probe.self_ms": span("network.probe", "self_ms"),
            "network.builds.full": count("network.builds.full"),
            "network.builds.delta": count("network.builds.delta"),
            "network.cache_hit_ratio": (
                counts.get("network.snapshot.hits", 0.0) / snapshot_calls
                if snapshot_calls else 0.0),
            "routing.csr_build.calls": span("routing.csr_build", "calls"),
            "routing.csr_build.ms": span("routing.csr_build", "ms"),
            "routing.dijkstra.calls": span("routing.dijkstra", "calls"),
            "routing.dijkstra.ms": span("routing.dijkstra", "ms"),
            "demand.routes.ms": span("demand.routes", "ms"),
            "demand.waterfill.calls": span("demand.waterfill", "calls"),
            "demand.waterfill.ms": span("demand.waterfill", "ms"),
            "demand.fluid.iterations": count("demand.fluid.iterations"),
            "demand.settle.ms": span("demand.settle", "ms"),
            "faults.apply.calls": span("faults.apply", "calls"),
            "faults.apply.ms": span("faults.apply", "ms"),
            "figure2.point.self_ms": span("figure2.point", "self_ms"),
            "runtime.gc.collections": self.gc_collections / steps,
            "runtime.gc.ms": self.gc_seconds * 1000.0 / steps,
        }

    def write(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON array per span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for name, start, end, parent, step in self.spans:
                out.write(json.dumps([
                    name, round((start - origin) * 1e6, 1),
                    round((end - origin) * 1e6, 1), parent, step,
                ]) + "\n")
