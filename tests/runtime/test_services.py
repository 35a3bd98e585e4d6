"""Tests for the Service protocol and ServiceRegistry lifecycle kernel."""

import pytest

from repro.runtime.services import Service, ServiceRegistry


class FakeService:
    """Minimal structural Service (no inheritance, by design)."""

    def __init__(self, name, log):
        self.name = name
        self._log = log

    def start(self):
        self._log.append(("start", self.name))

    def stop(self):
        self._log.append(("stop", self.name))

    def describe(self):
        return {"service": self.name}


class TestProtocol:
    def test_structural_conformance(self):
        assert isinstance(FakeService("x", []), Service)

    def test_missing_member_fails_check(self):
        class NotAService:  # simlint: ignore[C003] — half a lifecycle on purpose
            name = "broken"

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
        registry = ServiceRegistry()
        service = FakeService("a", [])
        registry.register(service)
        assert registry.get("a") is service
        assert "a" in registry
        assert len(registry) == 1
        assert registry.names == ["a"]

    def test_rejects_non_service(self):
        registry = ServiceRegistry()
        with pytest.raises(TypeError, match="Service protocol"):
            registry.register(object())

    def test_rejects_duplicate_name(self):
        registry = ServiceRegistry()
        registry.register(FakeService("a", []))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(FakeService("a", []))

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no service"):
            ServiceRegistry().get("ghost")

    def test_start_order_is_registration_stop_order_is_reverse(self):
        log = []
        registry = ServiceRegistry()
        for name in ("producer", "middle", "consumer"):
            registry.register(FakeService(name, log))
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

    def test_describe_all_in_registration_order(self):
        registry = ServiceRegistry()
        registry.register(FakeService("a", []))
        registry.register(FakeService("b", []))
        assert registry.describe_all() == [{"service": "a"}, {"service": "b"}]

    def test_iteration_yields_services(self):
        registry = ServiceRegistry()
        a, b = FakeService("a", []), FakeService("b", [])
        registry.register(a)
        registry.register(b)
        assert list(registry) == [a, b]


class LazyNameService:
    """A service whose name is expensive: bulk registration must not read it."""

    def __init__(self, node_id, log):
        self._node_id = node_id
        self._log = log
        self.reads = 0

    @property
    def name(self):
        self.reads += 1
        return f"lazy:{self._node_id}"

    def start(self):
        self._log.append(("start", self._node_id))

    def stop(self):
        self._log.append(("stop", self._node_id))

    def describe(self):
        return {"service": self._node_id}


class TestRegisterBulk:
    def test_bulk_reads_at_most_one_name(self):
        # The structural protocol check may probe `name` once (for the
        # first instance of the class — the type cache absorbs the rest);
        # bulk registration itself must not touch any name.
        registry = ServiceRegistry()
        log = []
        services = [LazyNameService(i, log) for i in range(4)]
        assert registry.register_bulk(services) == 4
        assert sum(s.reads for s in services) <= 1
        assert all(s.reads == 0 for s in services[1:])
        assert len(registry) == 4

    def test_order_and_lifecycle_preserved(self):
        registry = ServiceRegistry()
        log = []
        registry.register(FakeService("a", log))
        registry.register_bulk([FakeService("b", log), FakeService("c", log)])
        registry.register(FakeService("d", log))
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

    def test_name_lookup_after_bulk(self):
        registry = ServiceRegistry()
        log = []
        registry.register_bulk([FakeService("x", log), FakeService("y", log)])
        assert registry.get("y").name == "y"
        assert "x" in registry
        assert registry.names == ["x", "y"]

    def test_duplicate_detected_at_first_lookup(self):
        registry = ServiceRegistry()
        log = []
        registry.register_bulk([FakeService("dup", log), FakeService("dup", log)])
        with pytest.raises(ValueError, match="already registered"):
            registry.get("dup")

    def test_bulk_rejects_non_services(self):
        registry = ServiceRegistry()
        with pytest.raises(TypeError):
            registry.register_bulk([object()])

    def test_eager_register_still_detects_duplicates(self):
        registry = ServiceRegistry()
        log = []
        registry.register(FakeService("same", log))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(FakeService("same", log))
