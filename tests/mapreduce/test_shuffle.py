"""Tests for the minimal shuffle/reduce extension."""

import pytest

from repro.mapreduce.shuffle import ShufflePhase
from repro.simulator.engine import Simulator
from repro.simulator.network import Network


def setup(up=100.0):
    sim = Simulator()
    net = Network(sim, link_bps=up)
    return sim, ShufflePhase(sim, net)


class TestShuffle:
    def test_single_reducer_colocated(self):
        sim, phase = setup()
        results = []
        phase.run(
            map_output_nodes={"t0": "r"},
            map_output_bytes=1000.0,
            reducer_nodes=["r"],
            reduce_gamma=5.0,
            on_complete=results.append,
        )
        sim.run()
        assert len(results) == 1
        r = results[0]
        assert r.elapsed == pytest.approx(5.0)  # no network needed
        assert r.transfers == 0
        assert r.local_fetches == 1

    def test_remote_fetch_then_reduce(self):
        sim, phase = setup(up=100.0)
        results = []
        phase.run(
            map_output_nodes={"t0": "m"},
            map_output_bytes=1000.0,
            reducer_nodes=["r"],
            reduce_gamma=5.0,
            on_complete=results.append,
        )
        sim.run()
        # 1000 bytes at 100 B/s = 10s fetch + 5s reduce.
        assert results[0].elapsed == pytest.approx(15.0)
        assert results[0].bytes_shuffled == pytest.approx(1000.0)

    def test_partitioning_across_reducers(self):
        sim, phase = setup(up=100.0)
        results = []
        phase.run(
            map_output_nodes={"t0": "m0", "t1": "m1"},
            map_output_bytes=1000.0,
            reducer_nodes=["r0", "r1"],
            reduce_gamma=1.0,
            on_complete=results.append,
        )
        sim.run()
        assert len(results) == 1
        # Each reducer pulls 500 bytes from each of 2 maps.
        assert results[0].transfers == 4
        assert results[0].bytes_shuffled == pytest.approx(2000.0)

    def test_validation(self):
        sim, phase = setup()
        with pytest.raises(ValueError):
            phase.run({}, 10.0, ["r"], 1.0)
        with pytest.raises(ValueError):
            phase.run({"t": "m"}, 10.0, [], 1.0)
        with pytest.raises(ValueError):
            phase.run({"t": "m"}, -1.0, ["r"], 1.0)
        with pytest.raises(ValueError):
            phase.run({"t": "m"}, 10.0, ["r"], 0.0)
