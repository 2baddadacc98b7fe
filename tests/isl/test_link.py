"""Tests for the ISL link abstraction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.isl.link import (
    IslLink,
    LinkTechnology,
    best_link_between,
    candidate_links,
    technology_of,
)
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import (
    standard_ku_space_terminal,
    standard_sband_isl_terminal,
    standard_uhf_isl_terminal,
)


class TestTechnologyClassification:
    def test_rf_bands(self):
        assert technology_of(standard_uhf_isl_terminal()) is LinkTechnology.RF_UHF
        assert technology_of(
            standard_sband_isl_terminal()
        ) is LinkTechnology.RF_SBAND

    def test_optical(self):
        assert technology_of(OpticalTerminal()) is LinkTechnology.OPTICAL

    def test_ground_band_is_not_isl(self):
        assert technology_of(standard_ku_space_terminal()) is None

    def test_is_rf_flags(self):
        assert LinkTechnology.RF_UHF.is_rf
        assert LinkTechnology.RF_SBAND.is_rf
        assert not LinkTechnology.OPTICAL.is_rf


class TestCandidateLinks:
    def test_only_common_technologies(self):
        a = [standard_uhf_isl_terminal(), standard_sband_isl_terminal()]
        b = [standard_sband_isl_terminal()]
        links = list(candidate_links("x", a, "y", b, 1000.0))
        assert {l.technology for l in links} == {LinkTechnology.RF_SBAND}

    def test_no_common_technology(self):
        a = [standard_uhf_isl_terminal()]
        b = [OpticalTerminal()]
        assert list(candidate_links("x", a, "y", b, 1000.0)) == []

    def test_all_three_when_fully_equipped(self):
        terms = [
            standard_uhf_isl_terminal(),
            standard_sband_isl_terminal(),
            OpticalTerminal(),
        ]
        links = list(candidate_links("x", terms, "y", terms, 1000.0))
        assert len(links) == 3


class TestBestLink:
    FULL = [
        standard_uhf_isl_terminal(),
        standard_sband_isl_terminal(),
        OpticalTerminal(),
    ]
    RF_ONLY = [standard_uhf_isl_terminal(), standard_sband_isl_terminal()]

    def test_optical_wins_when_available(self):
        link = best_link_between("a", self.FULL, "b", self.FULL, 2000.0)
        assert link.technology is LinkTechnology.OPTICAL

    def test_falls_back_to_rf(self):
        link = best_link_between("a", self.FULL, "b", self.RF_ONLY, 2000.0)
        assert link.technology.is_rf

    def test_prefer_optical_false_skips_laser(self):
        link = best_link_between("a", self.FULL, "b", self.FULL, 2000.0,
                                 prefer_optical=False)
        assert link.technology.is_rf

    def test_sband_beats_uhf(self):
        link = best_link_between("a", self.RF_ONLY, "b", self.RF_ONLY, 2000.0)
        assert link.technology is LinkTechnology.RF_SBAND

    def test_none_when_too_far(self):
        link = best_link_between("a", self.RF_ONLY, "b", self.RF_ONLY, 50000.0)
        assert link is None

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            best_link_between("a", self.FULL, "b", self.FULL, 0.0)


class TestIslLinkProperties:
    def _link(self, distance_km=3000.0):
        t = standard_sband_isl_terminal()
        return best_link_between("a", [t], "b", [t], distance_km)

    def test_propagation_delay(self):
        link = self._link(2997.92458)
        assert link.propagation_delay_s == pytest.approx(0.01)

    def test_usable_flag(self):
        assert self._link().usable

    def test_serialization_delay(self):
        link = self._link()
        expected = 12_000.0 / link.capacity_bps
        assert link.serialization_delay_s() == pytest.approx(expected)

    def test_serialization_infinite_when_dead(self):
        dead = IslLink("a", "b", LinkTechnology.RF_UHF, 1.0,
                       self._link().budget, 0.0)
        assert dead.serialization_delay_s() == float("inf")


#: Prints the technology order ``candidate_links`` yields for terminals
#: listed in reverse declaration order.
_ORDER_SCRIPT = """
from repro.isl.link import candidate_links
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import standard_sband_isl_terminal, standard_uhf_isl_terminal
terminals = [OpticalTerminal(), standard_sband_isl_terminal(),
             standard_uhf_isl_terminal()]
print([link.technology.name
       for link in candidate_links("a", terminals, "b", terminals, 1500.0)])
"""


class TestTechnologyOrder:
    def test_candidates_follow_declaration_order(self):
        terminals = [OpticalTerminal(), standard_sband_isl_terminal(),
                     standard_uhf_isl_terminal()]
        links = candidate_links("a", terminals, "b", terminals, 1500.0)
        assert [link.technology for link in links] == list(LinkTechnology)

    def test_order_independent_of_hash_seed(self):
        # LinkTechnology hashes by name, so a set of technologies
        # iterates in a PYTHONHASHSEED-dependent order; the candidate
        # order (and so the winner of a capacity tie) must not.
        src = str(Path(__file__).resolve().parents[2] / "src")
        orders = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _ORDER_SCRIPT], env=env,
                capture_output=True, text=True, check=True,
            )
            orders.add(result.stdout.strip())
        assert orders == {str([tech.name for tech in LinkTechnology])}
