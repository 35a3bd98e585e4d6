"""Tests for the Service protocol and ServiceRegistry lifecycle kernel."""

from repro.runtime.services import Service, ServiceRegistry


class FakeService:
    """Minimal structural Service (no inheritance, by design)."""

    def __init__(self, label, log):
        self.label = label
        self._log = log

    def start(self):
        self._log.append(("start", self.label))

    def stop(self):
        self._log.append(("stop", self.label))


class TestProtocol:
    def test_structural_conformance(self):
        assert isinstance(FakeService("x", []), Service)

    def test_missing_member_fails_check(self):
        class NotAService:  # simlint: ignore[C003] — half a lifecycle on purpose
            def start(self):
                pass

        assert not isinstance(NotAService(), Service)

    def test_real_subsystems_conform(self):
        from repro.hdfs.detection import OracleDetector
        from repro.hdfs.namenode import NameNode
        from repro.simulator.engine import Simulator
        from repro.simulator.network import Network

        sim = Simulator()
        assert isinstance(Network(sim, link_bps=1e6), Service)
        assert isinstance(OracleDetector(NameNode()), Service)


class TestRegistry:
    def test_register_and_lookup(self):
        # The registry is found by iteration: it holds what was registered.
        registry = ServiceRegistry()
        service = FakeService("a", [])
        registry.register(service)
        assert list(registry) == [service]
        assert len(registry) == 1

    def test_start_order_is_registration_stop_order_is_reverse(self):
        log = []
        registry = ServiceRegistry()
        for label in ("producer", "middle", "consumer"):
            registry.register(FakeService(label, log))
        registry.start_all()
        registry.stop_all()
        assert log == [
            ("start", "producer"),
            ("start", "middle"),
            ("start", "consumer"),
            ("stop", "consumer"),
            ("stop", "middle"),
            ("stop", "producer"),
        ]

    def test_iteration_yields_services(self):
        registry = ServiceRegistry()
        a, b = FakeService("a", []), FakeService("b", [])
        registry.register(a)
        registry.register(b)
        assert list(registry) == [a, b]


class TestRegisterBulk:
    def test_order_and_lifecycle_preserved(self):
        registry = ServiceRegistry()
        log = []
        registry.register(FakeService("a", log))
        registry.register_bulk([FakeService("b", log), FakeService("c", log)])
        registry.register(FakeService("d", log))
        assert len(registry) == 4
        registry.start_all()
        registry.stop_all()
        assert log == [
            ("start", "a"),
            ("start", "b"),
            ("start", "c"),
            ("start", "d"),
            ("stop", "d"),
            ("stop", "c"),
            ("stop", "b"),
            ("stop", "a"),
        ]
