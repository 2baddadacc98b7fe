"""The benchmark's four workloads.

Each workload builds its inputs from a seed variant, then runs *units*:
the smallest piece of work whose output the benchmark can check against a
pinned digest.  A unit is one step for ``scale_epochs``,
``demand_diurnal`` and ``figure2_relay``, and one whole fault scenario
(hundreds of ``SimulationEngine.step`` events, each a step) for
``faults_churn``.  Every step is timed through ``timer.time`` so the
harness sees individual step durations.  Unit inputs cycle with period
``cycle``: a run measures whole cycles only, so every run covers the same
mix of inputs however fast the program is, and the pinned reference
table stays finite.

``run_unit`` returns the unit's raw output and ``digest`` reduces it to
the checked digest, so hashing outputs is not timed as program work.

All calls into the program go through public functions, and through the
module attribute the caller resolves, so the traced run can wrap them
from outside (see ``tracing.py``).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import repro.experiments.demand as demand_experiment
import repro.experiments.figure2 as figure2
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.availability import SAMPLE_SITES
from repro.experiments.resilience_dynamic import run_fault_scenario
from repro.experiments.scale import PROBE_STATIONS, plane_count_for
from repro.faults.schedule import satellite_mtbf_schedule
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.walker import iridium_like, walker_delta
from repro.parallel import derive_seed
from repro.simulation.engine import SimulationEngine

#: Seeds map onto this many input variants; references are pinned for
#: every variant, so every seed is checked against a pinned digest.
VARIANTS = 8


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def digest_of(*parts) -> str:
    """Short content hash of ``repr(parts)`` (floats repr exactly)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:20]


class ScaleEpochs:
    """1200-satellite Walker-Delta fleet, 3000 km ISLs, one orbit of epochs.

    Each step builds ``OpenSpaceNetwork.snapshot(t)`` at the next epoch
    and routes gs-virginia -> gs-frankfurt on it.  The 36 epochs of the
    cycle span one orbital period, so a cycle (about 15 s on the
    reference host) fits one run.  No epoch repeats within the cycle, so
    the snapshot cache can never hit and every step after the first is a
    delta build over fresh geometry.  The cache is cut to 8 entries so
    peak memory stops growing after 8 steps.
    """

    name = "scale_epochs"
    cycle = 36

    def __init__(self, variant: int, tiny: bool = False):
        satellites = 240 if tiny else 1200
        constellation = walker_delta(satellites, plane_count_for(satellites))
        fleet = build_fleet(constellation, "perfbench", SizeClass.MEDIUM)
        self.network = OpenSpaceNetwork(
            fleet, default_station_network(), max_isl_range_km=3000.0,
            snapshot_cache_size=8,
        )
        period_s = next(iter(constellation)).period_s
        phase = variant / VARIANTS
        self.times = [
            (k + phase) * period_s / self.cycle for k in range(self.cycle)
        ]

    def _step(self, time_s: float):
        snap = self.network.snapshot(time_s)
        return snap, snap.route(*PROBE_STATIONS)

    def run_unit(self, index: int, timer):
        return timer.time(self._step, self.times[index % self.cycle])

    @staticmethod
    def digest(output) -> str:
        snap, route = output
        return digest_of(snap.digest(), route)


class FaultsChurn:
    """The 66-satellite reference fleet under MTBF 1 h / MTTR 900 s churn.

    A unit is one ``run_fault_scenario(engine="batched")`` over a 2 h
    horizon on a fresh network; each discrete event it processes is one
    step.  Step cost depends on how many satellites are down, so a run
    covers all 8 schedules of its variant (about 16 s on the reference
    host) to average that out.  The unit's output is the tracker summary
    plus every gateway probe path the scenario computed.
    """

    name = "faults_churn"
    cycle = 8

    def __init__(self, variant: int, tiny: bool = False):
        self.horizon_s = 1800.0 if tiny else 2 * 3600.0
        self.fleet = build_fleet(iridium_like(), "resil-dyn", SizeClass.MEDIUM)
        self.stations = default_station_network()
        self.users = [
            UserTerminal(f"u-{name}", site, "resil-dyn", min_elevation_deg=10.0)
            for name, site in SAMPLE_SITES
        ]
        self.schedules = [
            satellite_mtbf_schedule(
                [spec.satellite_id for spec in self.fleet], self.horizon_s,
                mtbf_s=3600.0, mttr_s=900.0,
                seed=derive_seed(variant, "perfbench-faults", unit),
            )
            for unit in range(self.cycle)
        ]

    def run_unit(self, index: int, timer):
        network = OpenSpaceNetwork(self.fleet, self.stations)
        probes = []
        with _timed_engine_steps(timer), _captured_probes(probes):
            result = run_fault_scenario(
                network, self.schedules[index % self.cycle], self.users,
                horizon_s=self.horizon_s, epochs=8, engine="batched",
            )
        return result, probes

    @staticmethod
    def digest(output) -> str:
        result, probes = output
        summary = sorted(
            (key, value) for key, value in result.items()
            if not key.startswith("_")
        )
        return digest_of(summary, [
            (time_s, sorted(paths.items())) for time_s, paths in probes
        ])


@contextmanager
def _timed_engine_steps(timer):
    """Time every ``SimulationEngine.step`` event as one benchmark step."""
    original = SimulationEngine.__dict__["step"]

    def step(engine):
        return timer.time(original, engine)

    SimulationEngine.step = step
    try:
        yield
    finally:
        SimulationEngine.step = original


@contextmanager
def _captured_probes(sink):
    """Record every ``gateway_probe_paths`` answer, in call order."""
    original = OpenSpaceNetwork.__dict__["gateway_probe_paths"]

    def gateway_probe_paths(network, time_s, users, *args, **kwargs):
        paths = original(network, time_s, users, *args, **kwargs)
        sink.append((time_s, paths))
        return paths

    OpenSpaceNetwork.gateway_probe_paths = gateway_probe_paths
    try:
        yield
    finally:
        OpenSpaceNetwork.gateway_probe_paths = original


class DemandDiurnal:
    """1 M users over ~530 grid cells, 288 satellites, hour cycling the day.

    Each step is one ``demand_sweep`` point: fleet, network with one
    user terminal per loaded cell, multi-source routing, waterfilling
    and settlement.  Load follows the hour, so a run measures whole days.
    """

    name = "demand_diurnal"
    cycle = 24

    def __init__(self, variant: int, tiny: bool = False):
        self.seed = derive_seed(variant, "perfbench-demand")
        if tiny:
            self.size = dict(satellite_counts=(50,), total_users=20_000,
                             bands=6, equator_columns=12)
        else:
            self.size = dict(satellite_counts=(288,), total_users=1_000_000,
                             bands=18, equator_columns=36)

    def run_unit(self, index: int, timer):
        return timer.time(
            demand_experiment.demand_sweep,
            hours_utc=(float(index % self.cycle),), seed=self.seed, jobs=1,
            **self.size,
        )

    @staticmethod
    def digest(rows) -> str:
        return digest_of([sorted(row.items()) for row in rows])


class Figure2Relay:
    """Figure 2(b) at 70 satellites, batched engine, a new seed per step.

    Never touches ``OpenSpaceNetwork``, the ISL builder or ``phy``: the
    control workload for changes to those layers.
    """

    name = "figure2_relay"
    cycle = 64

    def __init__(self, variant: int, tiny: bool = False):
        self.trials, self.epochs = (1, 4) if tiny else (4, 16)
        self.seeds = [
            derive_seed(variant, "perfbench-figure2", unit)
            for unit in range(self.cycle)
        ]

    def run_unit(self, index: int, timer):
        return timer.time(
            figure2.figure_2b_latency, satellite_counts=(70,),
            trials=self.trials, epochs=self.epochs,
            seed=self.seeds[index % self.cycle], engine="batched", jobs=1,
        )

    @staticmethod
    def digest(result) -> str:
        return digest_of(result["series"],
                         sorted(result["reachability"].items()))


WORKLOADS = {
    cls.name: cls
    for cls in (ScaleEpochs, FaultsChurn, DemandDiurnal, Figure2Relay)
}
