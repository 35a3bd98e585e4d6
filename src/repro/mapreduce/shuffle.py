"""Minimal shuffle/reduce-phase model (extension).

The paper explicitly scopes ADAPT to the map phase ("there is no immediate
relationship between the data placement strategy and the reduce phase ...
we leave the reduce phase optimization for future work", Section IV.C).
This module ships a deliberately small shuffle model so examples can show
an end-to-end job: each reducer streams its partition of every map output
over the shared network and then runs for a fixed reduce length.
Interruptions during the reduce phase are *not* modelled — the model exists
to measure how placement-induced map-output locations shape shuffle
traffic, not to extend ADAPT's claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.ids import NodeId
from repro.core.placement import NodeView
from repro.simulator.engine import Simulator
from repro.simulator.network import Network, Transfer
from repro.util.rng import RandomSource
from repro.util.validation import check_non_negative, check_positive


def select_reducer_nodes(
    views: Sequence[NodeView],
    count: int,
    rng: RandomSource,
    availability_aware: bool = True,
) -> List[NodeId]:
    """Choose the nodes to host reduce tasks (future-work extension).

    A reducer holds all of its partition's intermediate data for the whole
    phase, so an interruption costs a full re-shuffle. With
    ``availability_aware=True`` reducers go to the ``count`` nodes with the
    lowest expected task time factor — i.e. the most dependable hosts, the
    reduce-phase analogue of ADAPT's map-side placement. Otherwise,
    uniformly random (stock Hadoop), matching the paper's baseline.

    ``views`` is a sequence of :class:`repro.core.placement.NodeView`.
    """
    up = [v for v in views if v.is_up]
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(up) < count:
        raise ValueError(f"need {count} up nodes, have {len(up)}")
    if not availability_aware:
        return sorted(rng.sample([v.node_id for v in up], count))

    def dependability(view: NodeView) -> float:
        return view.estimate.steady_state_availability

    ranked = sorted(up, key=lambda v: (-dependability(v), v.node_id))
    return [v.node_id for v in ranked[:count]]


@dataclass(frozen=True)
class ShuffleResult:
    """Outcome of a shuffle+reduce phase."""

    started_at: float
    finished_at: float
    bytes_shuffled: float
    transfers: int
    local_fetches: int

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


class ShufflePhase:
    """Runs reducers that fetch map outputs and then execute."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self._sim = sim
        self._network = network

    def run(
        self,
        map_output_nodes: Dict[str, NodeId],
        map_output_bytes: float,
        reducer_nodes: Sequence[NodeId],
        reduce_gamma: float,
        on_complete: Optional[Callable[[ShuffleResult], None]] = None,
    ) -> None:
        """Start the phase; ``on_complete`` fires when every reducer is done.

        ``map_output_nodes`` maps task id -> node that holds its output;
        each reducer fetches ``map_output_bytes / len(reducers)`` from every
        map output (hash partitioning of intermediate keys), co-located
        fetches being free.
        """
        if not map_output_nodes:
            raise ValueError("no map outputs to shuffle")
        if not reducer_nodes:
            raise ValueError("need at least one reducer")
        check_non_negative("map_output_bytes", map_output_bytes)
        check_positive("reduce_gamma", reduce_gamma)

        started = self._sim.now
        partition = map_output_bytes / len(reducer_nodes)
        state = {
            "pending_reducers": len(reducer_nodes),
            "bytes": 0.0,
            "transfers": 0,
            "local": 0,
        }

        def reducer_done() -> None:
            state["pending_reducers"] -= 1
            if state["pending_reducers"] == 0 and on_complete is not None:
                on_complete(
                    ShuffleResult(
                        started_at=started,
                        finished_at=self._sim.now,
                        bytes_shuffled=state["bytes"],
                        transfers=state["transfers"],
                        local_fetches=state["local"],
                    )
                )

        for reducer in reducer_nodes:
            sources = []
            for _task_id, node in sorted(map_output_nodes.items()):
                if node == reducer or partition <= 0.0:
                    state["local"] += 1
                else:
                    sources.append(node)
            self._run_reducer(reducer, sources, partition, reduce_gamma, reducer_done, state)

    def _run_reducer(
        self,
        reducer: NodeId,
        sources: List[NodeId],
        partition: float,
        reduce_gamma: float,
        done: Callable[[], None],
        state: dict,
    ) -> None:
        remaining = {"fetches": len(sources)}

        def start_reduce() -> None:
            self._sim.schedule(reduce_gamma, done, label=f"reduce:{reducer}")

        if not sources:
            start_reduce()
            return

        def on_fetch(transfer: Transfer) -> None:
            state["bytes"] += transfer.size
            remaining["fetches"] -= 1
            if remaining["fetches"] == 0:
                start_reduce()

        for source in sources:
            state["transfers"] += 1
            self._network.start_transfer(
                source=source,
                destination=reducer,
                size_bytes=partition,
                on_complete=on_fetch,
                label=f"shuffle:{source}->{reducer}",
            )
