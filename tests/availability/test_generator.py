"""Tests for Table 2 groups and host population construction."""

import pytest

from repro.availability.distributions import Exponential
from repro.availability.generator import (
    GroupSpec,
    HostAvailability,
    build_group_hosts,
    table2_groups,
)
from repro.util.rng import RandomSource


class TestTable2:
    def test_exact_paper_values(self):
        groups = table2_groups()
        assert [(g.mtbi, g.service_mean) for g in groups] == [
            (10.0, 4.0),
            (10.0, 8.0),
            (20.0, 4.0),
            (20.0, 8.0),
        ]

    def test_all_groups_stable(self):
        # Even the harshest group (MTBI 10, service 8) must have rho < 1.
        for group in table2_groups():
            assert group.arrival_rate * group.service_mean < 1.0

    def test_group_validation(self):
        with pytest.raises(ValueError):
            GroupSpec("bad", mtbi=0.0, service_mean=1.0)


class TestHostAvailability:
    def test_dedicated(self):
        host = HostAvailability(host_id="d0")
        assert host.is_dedicated
        assert host.arrival_rate == 0.0
        assert host.mtbi == float("inf")
        assert host.service_mean == 0.0
        assert host.process(RandomSource(1)) is None

    def test_interrupted(self):
        host = HostAvailability(
            host_id="i0",
            arrival=Exponential(mean=10.0),
            service=Exponential(mean=4.0),
            group="g",
        )
        assert not host.is_dedicated
        assert host.arrival_rate == pytest.approx(0.1)
        assert host.mtbi == 10.0
        assert host.process(RandomSource(1)) is not None

    def test_partial_spec_rejected(self):
        with pytest.raises(ValueError, match="both"):
            HostAvailability(host_id="x", arrival=Exponential(mean=1.0))


class TestBuildGroupHosts:
    def test_counts(self):
        hosts = build_group_hosts(128, 0.5)
        assert len(hosts) == 128
        interrupted = [h for h in hosts if not h.is_dedicated]
        assert len(interrupted) == 64

    def test_even_group_split(self):
        hosts = build_group_hosts(128, 0.5)
        by_group = {}
        for host in hosts:
            by_group[host.group] = by_group.get(host.group, 0) + 1
        assert by_group["dedicated"] == 64
        # "the interrupted nodes were further divided evenly into four groups"
        for name in ("group-1", "group-2", "group-3", "group-4"):
            assert by_group[name] == 16

    def test_unique_ids(self):
        hosts = build_group_hosts(50, 0.75)
        assert len({h.host_id for h in hosts}) == 50

    def test_ratio_zero_all_dedicated(self):
        hosts = build_group_hosts(10, 0.0)
        assert all(h.is_dedicated for h in hosts)

    def test_ratio_one_none_dedicated(self):
        hosts = build_group_hosts(8, 1.0)
        assert not any(h.is_dedicated for h in hosts)

    def test_rounding(self):
        hosts = build_group_hosts(10, 0.25)
        assert sum(1 for h in hosts if not h.is_dedicated) == 2  # round(2.5) banker's

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_group_hosts(0, 0.5)
        with pytest.raises(ValueError):
            build_group_hosts(10, 1.5)

    def test_service_distribution_kinds(self):
        for kind in ("exponential", "deterministic", "lognormal"):
            hosts = build_group_hosts(8, 1.0, service_distribution=kind)
            assert hosts[0].service is not None
        with pytest.raises(ValueError):
            build_group_hosts(8, 1.0, service_distribution="zipf")

    def test_group_parameters_applied(self):
        hosts = build_group_hosts(8, 1.0)
        group1 = [h for h in hosts if h.group == "group-1"][0]
        assert group1.mtbi == 10.0
        assert group1.service_mean == 4.0
