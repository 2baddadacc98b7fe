"""The inter-satellite link abstraction.

An :class:`IslLink` binds two spacecraft terminals of a mutually supported
technology at a given range, and exposes the capacity, latency, and power
figures the routing and economics layers consume.  Per the OpenSpace
profile, "satellites should be able to communicate through either RF
signals or laser technology, depending on the specifications and current
load of the spacecraft involved" — :func:`best_link_between` implements
that selection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.orbits.constants import SPEED_OF_LIGHT_KM_S
from repro.phy.linkbudget import LinkBudget, LinkBudgetArrays
from repro.phy.modulation import achievable_rate_bps, achievable_rate_bps_array
from repro.phy.optical import (
    OpticalTerminal,
    optical_link_budget,
    optical_link_budget_arrays,
)
from repro.phy.rf import RFTerminal, rf_link_budget, rf_link_budget_arrays

Terminal = Union[RFTerminal, OpticalTerminal]


class LinkTechnology(enum.Enum):
    """ISL technology classes in the OpenSpace interoperability profile."""

    RF_UHF = "rf_uhf"
    RF_SBAND = "rf_sband"
    OPTICAL = "optical"

    @property
    def is_rf(self) -> bool:
        return self in (LinkTechnology.RF_UHF, LinkTechnology.RF_SBAND)


_BAND_TO_TECH = {"uhf": LinkTechnology.RF_UHF, "s_band": LinkTechnology.RF_SBAND}
#: Every technology, in declaration order.
_TECHNOLOGIES = tuple(LinkTechnology)


def technology_of(terminal: Terminal) -> Optional[LinkTechnology]:
    """Classify a terminal as an ISL technology (None for ground bands)."""
    if isinstance(terminal, OpticalTerminal):
        return LinkTechnology.OPTICAL
    return _BAND_TO_TECH.get(terminal.band_name)


@dataclass(frozen=True)
class IslLink:
    """One established (or candidate) inter-satellite link.

    Attributes:
        node_a: Identifier of one endpoint (satellite id).
        node_b: Identifier of the other endpoint.
        technology: Selected link technology.
        distance_km: Slant range at evaluation time.
        budget: Full link-budget detail.
        capacity_bps: MODCOD-limited data rate (0 when the link does not
            close; such links are filtered out by the topology builder).
    """

    node_a: str
    node_b: str
    technology: LinkTechnology
    distance_km: float
    budget: LinkBudget
    capacity_bps: float

    @property
    def propagation_delay_s(self) -> float:
        """One-way speed-of-light delay across the link."""
        return self.distance_km / SPEED_OF_LIGHT_KM_S

    @property
    def usable(self) -> bool:
        """True when the link closes with nonzero capacity."""
        return self.capacity_bps > 0.0

    def serialization_delay_s(self, frame_bits: float = 12_000.0) -> float:
        """Time to clock one frame onto the link (infinite when unusable)."""
        if not self.usable:
            return float("inf")
        return frame_bits / self.capacity_bps


def _evaluate(node_a: str, node_b: str, tech: LinkTechnology,
              term_a: Terminal, term_b: Terminal,
              distance_km: float) -> IslLink:
    """Build an :class:`IslLink` for one concrete terminal pairing."""
    if tech is LinkTechnology.OPTICAL:
        budget = optical_link_budget(term_a, term_b, distance_km)
        # Optical capacity: Shannon-limited but clipped to the terminal's
        # electrical bandwidth at a practical 2 bps/Hz.
        capacity = min(
            budget.shannon_capacity_bps,
            2.0 * min(term_a.data_bandwidth_hz, term_b.data_bandwidth_hz),
        )
        if budget.snr_db < 3.0:
            capacity = 0.0
    else:
        budget = rf_link_budget(term_a, term_b, distance_km)
        capacity = achievable_rate_bps(budget.snr_db, budget.bandwidth_hz)
    return IslLink(
        node_a=node_a,
        node_b=node_b,
        technology=tech,
        distance_km=distance_km,
        budget=budget,
        capacity_bps=capacity,
    )


def terminals_by_technology(terminals: Sequence[Terminal]
                            ) -> Dict[LinkTechnology, Terminal]:
    """The first terminal of each ISL technology a spacecraft carries.

    Keys follow :class:`LinkTechnology` declaration order, so iterating
    the result is deterministic: equal-capacity candidates resolve the
    same way in every process, whatever its hash seed.
    """
    first: Dict[LinkTechnology, Terminal] = {}
    for terminal in terminals:
        tech = technology_of(terminal)
        if tech is not None:
            first.setdefault(tech, terminal)
    return {tech: first[tech] for tech in _TECHNOLOGIES if tech in first}


def candidate_links(node_a: str, terminals_a: Sequence[Terminal],
                    node_b: str, terminals_b: Sequence[Terminal],
                    distance_km: float) -> Iterable[IslLink]:
    """Every mutually supported technology pairing between two spacecraft.

    Yielded in :class:`LinkTechnology` declaration order.
    """
    by_tech_a = terminals_by_technology(terminals_a)
    by_tech_b = terminals_by_technology(terminals_b)
    for tech, term_a in by_tech_a.items():
        if tech in by_tech_b:
            yield _evaluate(
                node_a, node_b, tech, term_a, by_tech_b[tech], distance_km
            )


@dataclass(frozen=True)
class PricedTechnology:
    """One technology priced between one terminal pair over many ranges.

    The array form of :func:`_evaluate`: every field is bitwise equal,
    range for range, to the scalar pricing.

    Attributes:
        technology: The technology priced.
        budgets: Link budgets over the ranges.
        capacity_bps: MODCOD- or bandwidth-limited capacities; 0 where
            the link does not close.
        shannon_bps: For optical links, the Shannon capacities the
            bandwidth clip was taken from; ``None`` for RF.
    """

    technology: LinkTechnology
    budgets: LinkBudgetArrays
    capacity_bps: np.ndarray
    shannon_bps: Optional[np.ndarray]

    def link(self, node_a: str, node_b: str, index: int,
             distance_km: float) -> IslLink:
        """The :class:`IslLink` at one range, as :func:`_evaluate` makes it.

        Field types follow the scalar path, because snapshot digests
        hash the link's ``repr``: ``path_loss_db`` is an ``np.float64``
        and the other budget fields ``float`` (ISL bands are
        exo-atmospheric, so the extra loss is a sum of terminal
        constants); RF capacity is a ``float``, optical capacity
        Python's ``min`` of the Shannon ``np.float64`` and the ``float``
        clip.
        """
        budgets = self.budgets
        if self.shannon_bps is None:
            capacity = float(self.capacity_bps[index])
        else:
            capacity = min(self.shannon_bps[index], 2.0 * budgets.bandwidth_hz)
        return IslLink(
            node_a=node_a,
            node_b=node_b,
            technology=self.technology,
            distance_km=distance_km,
            budget=LinkBudget(
                tx_power_dbw=budgets.tx_power_dbw,
                tx_gain_dbi=budgets.tx_gain_dbi,
                rx_gain_dbi=budgets.rx_gain_dbi,
                path_loss_db=budgets.path_loss_db[index],
                extra_loss_db=float(budgets.extra_loss_db[index]),
                noise_power_dbw=budgets.noise_power_dbw,
                bandwidth_hz=budgets.bandwidth_hz,
            ),
            capacity_bps=capacity,
        )


def price_technology(tech: LinkTechnology, term_a: Terminal,
                     term_b: Terminal,
                     distances_km: np.ndarray) -> PricedTechnology:
    """Price one technology between two terminals over many slant ranges."""
    if tech is LinkTechnology.OPTICAL:
        budgets = optical_link_budget_arrays(term_a, term_b, distances_km)
        shannon = budgets.shannon_capacity_bps
        # The budget bandwidth is the smaller terminal's, clipped at a
        # practical 2 bps/Hz as in _evaluate.
        capacity = np.minimum(shannon, 2.0 * budgets.bandwidth_hz)
        capacity[budgets.snr_db < 3.0] = 0.0
        return PricedTechnology(tech, budgets, capacity, shannon)
    budgets = rf_link_budget_arrays(term_a, term_b, distances_km)
    capacity = achievable_rate_bps_array(budgets.snr_db, budgets.bandwidth_hz)
    return PricedTechnology(tech, budgets, capacity, None)


def best_link_between(node_a: str, terminals_a: Sequence[Terminal],
                      node_b: str, terminals_b: Sequence[Terminal],
                      distance_km: float,
                      prefer_optical: bool = True) -> Optional[IslLink]:
    """Pick the best usable link between two spacecraft.

    "Satellites must permit RF-based communication links at a minimum and
    optionally also support standardized laser-based links" — so the best
    link is the highest-capacity usable candidate, which in practice means
    optical when both sides carry (and can afford) a laser terminal, and
    the best RF band otherwise.

    Args:
        node_a: Identifier of one endpoint.
        terminals_a: Its ISL-capable terminals.
        node_b: Identifier of the other endpoint.
        terminals_b: Its ISL-capable terminals.
        distance_km: Slant range.
        prefer_optical: When False, optical candidates are skipped — used
            when a spacecraft's power budget cannot afford laser pointing.

    Returns:
        The selected :class:`IslLink`, or None when no candidate closes.
    """
    best: Optional[IslLink] = None
    for link in candidate_links(node_a, terminals_a, node_b, terminals_b,
                                distance_km):
        if not prefer_optical and link.technology is LinkTechnology.OPTICAL:
            continue
        if not link.usable:
            continue
        if best is None or link.capacity_bps > best.capacity_bps:
            best = link
    return best
