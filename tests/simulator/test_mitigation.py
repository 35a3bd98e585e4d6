"""Degraded-link windows and the mitigation service that answers them.

Unit-level: the three strategies' effective-factor math and the
apply/release bookkeeping against a bare Network. Integration-level: a
scripted DegradedLink campaign armed through a real cluster's chaos
engine, run end-to-end under strict invariant auditing.
"""

import pytest

from repro.availability.generator import HostAvailability
from repro.experiments.config import EmulationConfig, Strategy
from repro.experiments.emulation import run_emulation_point
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.simulator.engine import Simulator
from repro.simulator.events import LinkDegraded, LinkRestored
from repro.simulator.mitigation import MITIGATIONS, LinkMitigationService
from repro.simulator.network import Network
from repro.simulator.scenarios import ChaosCampaign, DegradedLink
from repro.simulator.topology import ClosTopology


def clos_net(hosts=4, racks=2, oversub=1.0, width=4):
    sim = Simulator()
    topo = ClosTopology(
        hosts=hosts,
        racks=racks,
        host_link_bps=100.0,
        oversubscription=oversub,
        trunk_width=width,
    )
    net = Network(sim, link_bps=100.0, fair_sharing=True, topology=topo)
    return sim, net


class TestEffectiveFactor:
    def test_do_nothing_pays_corruption_twice(self):
        _, net = clos_net()
        svc = LinkMitigationService(net, strategy="do-nothing")
        factor = svc.effective_factor(("tor-up", 0), 0.8, 0.1)
        assert factor == pytest.approx(0.8 * 0.9 * 0.9)

    def test_retransmit_tax_pays_corruption_once(self):
        _, net = clos_net()
        svc = LinkMitigationService(net, strategy="retransmit-tax")
        factor = svc.effective_factor(("tor-up", 0), 0.8, 0.1)
        assert factor == pytest.approx(0.8 * 0.9)

    def test_disable_reroute_keeps_surviving_members(self):
        _, net = clos_net(width=4)
        svc = LinkMitigationService(net, strategy="disable-reroute")
        # Corruption vanishes entirely; (4-1)/4 of the trunk survives.
        assert svc.effective_factor(("tor-up", 0), 0.5, 0.3) == pytest.approx(0.75)

    def test_disable_reroute_falls_back_on_single_cables(self):
        _, net = clos_net(width=4)
        svc = LinkMitigationService(net, strategy="disable-reroute")
        # A host access link has width 1: nothing to reroute onto.
        factor = svc.effective_factor(("up", 0), 0.5, 0.3)
        assert factor == pytest.approx(0.5 * 0.7 * 0.7)

    def test_unknown_strategy_rejected(self):
        _, net = clos_net()
        with pytest.raises(ValueError, match="strategy"):
            LinkMitigationService(net, strategy="prayer")

    def test_registry_lists_all_strategies(self):
        assert MITIGATIONS == ("do-nothing", "disable-reroute", "retransmit-tax")


class TestApplyRelease:
    def degrade(self, spec, cf=0.5, p=0.0, t=0.0):
        return LinkDegraded(time=t, link=spec, capacity_factor=cf, corruption_rate=p)

    def restore(self, spec, cf=0.5, p=0.0, t=0.0):
        return LinkRestored(time=t, link=spec, capacity_factor=cf, corruption_rate=p)

    def test_degrade_scales_and_restore_releases(self):
        _, net = clos_net()
        svc = LinkMitigationService(net, strategy="do-nothing")
        nominal = net.link_capacity(("tor-up", 0))
        svc.handle_link_degraded(self.degrade("tor-up:0", cf=0.5))
        assert net.link_capacity(("tor-up", 0)) == pytest.approx(nominal * 0.5)
        svc.handle_link_restored(self.restore("tor-up:0", cf=0.5))
        assert net.link_capacity(("tor-up", 0)) == nominal

    def test_overlapping_windows_compose(self):
        _, net = clos_net()
        svc = LinkMitigationService(net, strategy="do-nothing")
        nominal = net.link_capacity(("tor-up", 0))
        svc.handle_link_degraded(self.degrade("tor-up:0", cf=0.5))
        svc.handle_link_degraded(self.degrade("tor-up:0", cf=0.25))
        assert net.link_capacity(("tor-up", 0)) == pytest.approx(nominal * 0.125)
        svc.handle_link_restored(self.restore("tor-up:0", cf=0.5))
        assert net.link_capacity(("tor-up", 0)) == pytest.approx(nominal * 0.25)
        svc.handle_link_restored(self.restore("tor-up:0", cf=0.25))
        assert net.link_capacity(("tor-up", 0)) == nominal

    def test_restore_without_degrade_is_noop(self):
        _, net = clos_net()
        svc = LinkMitigationService(net, strategy="do-nothing")
        nominal = net.link_capacity(("tor-up", 0))
        svc.handle_link_restored(self.restore("tor-up:0"))
        assert net.link_capacity(("tor-up", 0)) == nominal

    def test_stop_releases_everything(self):
        _, net = clos_net()
        svc = LinkMitigationService(net, strategy="do-nothing")
        nominal_tor = net.link_capacity(("tor-up", 0))
        nominal_down = net.link_capacity(("tor-down", 1))
        svc.handle_link_degraded(self.degrade("tor-up:0", cf=0.5))
        svc.handle_link_degraded(self.degrade("tor-down:1", cf=0.5))
        svc.stop()
        assert net.link_capacity(("tor-up", 0)) == nominal_tor
        assert net.link_capacity(("tor-down", 1)) == nominal_down
        assert svc._held == {}

    def test_degraded_link_slows_live_transfers(self):
        sim, net = clos_net(oversub=1.0)
        svc = LinkMitigationService(net, strategy="do-nothing")
        t = net.start_transfer(0, 1, 1000.0, lambda t: None)  # cross-rack
        assert t.rate == pytest.approx(100.0)
        # The tor-up trunk carries 200 nominal (2 hosts x 100); at 0.25 it
        # binds below the access links and the flow drops to 50.
        svc.handle_link_degraded(self.degrade("tor-up:0", cf=0.25))
        assert t.rate == pytest.approx(50.0)
        svc.handle_link_restored(self.restore("tor-up:0", cf=0.25))
        assert t.rate == pytest.approx(100.0)


def degraded_campaign(**kw):
    defaults = dict(start=20.0, duration=60.0, count=0, capacity_factor=0.3)
    defaults.update(kw)
    return ChaosCampaign(
        name="limping-fabric", scenarios=(DegradedLink(**defaults),)
    )


@pytest.mark.slow
class TestDegradedCampaign:
    """End-to-end: armed windows, strict audits, strategy comparison."""

    CONFIG = dict(
        node_count=8,
        interrupted_ratio=0.5,
        blocks_per_node=2.0,
        seed=7,
        topology="clos",
        racks=4,
        oversubscription=4.0,
    )

    @pytest.mark.parametrize("strategy", MITIGATIONS)
    def test_strict_audit_clean_under_every_strategy(self, strategy):
        result = run_emulation_point(
            EmulationConfig(**self.CONFIG, link_mitigation=strategy),
            Strategy("adapt", 1),
            audit="strict",
            chaos=degraded_campaign(corruption_rate=0.2),
        )
        assert result.resilience is not None
        assert result.resilience.activations[0].targets  # links resolved

    def test_degradation_slows_the_job(self):
        healthy = run_emulation_point(
            EmulationConfig(**self.CONFIG, link_mitigation="do-nothing"),
            Strategy("adapt", 1),
        )
        degraded = run_emulation_point(
            EmulationConfig(**self.CONFIG, link_mitigation="do-nothing"),
            Strategy("adapt", 1),
            chaos=degraded_campaign(capacity_factor=0.05, duration=120.0),
        )
        assert degraded.elapsed > healthy.elapsed

    def test_unmitigated_campaign_leaves_links_nominal(self):
        # Without a mitigation service nobody answers the events: the run
        # must still complete with clean audits and unchanged makespan.
        baseline = run_emulation_point(
            EmulationConfig(**self.CONFIG), Strategy("adapt", 1)
        )
        unanswered = run_emulation_point(
            EmulationConfig(**self.CONFIG),
            Strategy("adapt", 1),
            audit="strict",
            chaos=degraded_campaign(capacity_factor=0.05),
        )
        assert unanswered.elapsed == baseline.elapsed


class TestClusterArming:
    def hosts(self, n=4):
        # Dedicated hosts: no interruptions, so link windows act alone.
        return [HostAvailability(host_id=f"node-{i:05d}") for i in range(n)]

    def test_windows_apply_and_lift_on_schedule(self):
        config = ClusterConfig(
            seed=3,
            detection="oracle",
            topology="clos",
            racks=2,
            link_mitigation="do-nothing",
            chaos=ChaosCampaign(
                name="one-window",
                scenarios=(
                    DegradedLink(
                        start=10.0,
                        duration=5.0,
                        links=("tor-up:0",),
                        capacity_factor=0.5,
                    ),
                ),
            ),
        )
        cluster = build_cluster(self.hosts(), config)
        nominal = cluster.network.link_capacity(("tor-up", 0))
        cluster.sim.run(until=12.0)
        assert cluster.network.link_capacity(("tor-up", 0)) == pytest.approx(
            nominal * 0.5
        )
        assert len(cluster.mitigation._held) == 1
        cluster.sim.run(until=16.0)
        assert cluster.network.link_capacity(("tor-up", 0)) == nominal
        assert cluster.mitigation._held == {}
        cluster.stop()

    def test_host_link_targets_resolve_through_the_id_table(self):
        config = ClusterConfig(
            seed=3,
            detection="oracle",
            topology="clos",
            racks=2,
            link_mitigation="do-nothing",
            chaos=ChaosCampaign(
                name="host-edge",
                scenarios=(
                    DegradedLink(
                        start=5.0,
                        duration=5.0,
                        links=("up:node-00001",),
                        capacity_factor=0.5,
                    ),
                ),
            ),
        )
        cluster = build_cluster(self.hosts(), config)
        nid = cluster.ids.id_of("node-00001")
        nominal = cluster.network.nominal_rate_bps
        cluster.sim.run(until=7.0)
        assert cluster.network.link_capacity(("up", nid)) == pytest.approx(
            nominal * 0.5
        )
        cluster.sim.run(until=11.0)
        assert cluster.network.link_capacity(("up", nid)) == nominal
        cluster.stop()
