"""The NameNode: centralised metadata management plus ADAPT's extensions.

Responsibilities mirror Section II.B / IV: file-to-block mapping, block
location tracking, DataNode liveness (as *believed*, fed by heartbeats or
by an oracle), and — with ADAPT enabled — delegating placement decisions to
an availability-aware policy driven by the Performance Predictor.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.ids import NodeId
from repro.core.placement import NodeView, PlacementPolicy
from repro.core.predictor import PerformancePredictor
from repro.core.rebalance import RebalanceMove, plan_rebalance
from repro.hdfs.blocks import Block, DfsFile
from repro.hdfs.datanode import DataNode
from repro.util.rng import RandomSource


class NameNode:
    """Metadata server: files, block locations, liveness, placement."""

    def __init__(
        self,
        predictor: Optional[PerformancePredictor] = None,
        placement_liveness_filter: bool = True,
    ) -> None:
        """``placement_liveness_filter`` controls whether ingest placement
        is restricted to currently-live nodes. Disabling it models data
        that was loaded at an earlier time: by the time a job runs, host
        availability has re-randomised, so conditioning placement on
        *momentary* liveness is impossible and only long-run availability
        (what ADAPT's model predicts) matters. The large-scale trace-driven
        experiments disable it; the emulated testbed keeps it on.
        """
        self._predictor = predictor if predictor is not None else PerformancePredictor()
        self._placement_liveness_filter = placement_liveness_filter
        self._rack_of: Optional[Callable[[NodeId], int]] = None
        self._datanodes: Dict[NodeId, DataNode] = {}
        self._files: Dict[str, DfsFile] = {}
        self._blocks: Dict[str, Block] = {}
        #: Block id -> holders, in the order their replicas landed. A tuple
        #: (48 B for one holder, against 216 B for a one-element set):
        #: there is one per block, and holder sets change only on the rare
        #: re-replication, GC, move or purge, which rebuild it.
        self._locations: Dict[str, Tuple[NodeId, ...]] = {}
        self._locations_view = MappingProxyType(self._locations)
        self._live: Dict[NodeId, bool] = {}

    # -- membership -------------------------------------------------------------

    @property
    def predictor(self) -> PerformancePredictor:
        """The ADAPT Performance Predictor attached to this NameNode."""
        return self._predictor

    def set_rack_constraint(self, rack_of: Optional[Callable[[NodeId], int]]) -> None:
        """Enforce HDFS's off-rack rule on every future ingest.

        ``rack_of`` maps a node id to its rack index (normally the
        topology's ``rack_of``). When set, every placement plan built by
        :meth:`create_file` refuses to put all replicas of a block in a
        single rack (for replication >= 2), substituting the last chosen
        holder with an off-rack node. The substitution consumes no
        randomness, so enabling it never shifts the placement RNG stream.
        Pass ``None`` to lift the constraint.
        """
        self._rack_of = rack_of

    def register_datanode(self, datanode: DataNode) -> None:
        """Admit a DataNode to the cluster."""
        node_id = datanode.node_id
        if node_id in self._datanodes:
            raise ValueError(f"datanode {node_id!r} already registered")
        self._datanodes[node_id] = datanode
        self._live[node_id] = True
        self._predictor.register_node(node_id)

    @property
    def datanode_ids(self) -> List[NodeId]:
        return sorted(self._datanodes)

    def datanode(self, node_id: NodeId) -> DataNode:
        return self._datanodes[node_id]

    # -- liveness (the NameNode's belief) ------------------------------------------

    def mark_dead(self, node_id: NodeId) -> None:
        """Believe the node is gone (heartbeat timeout or oracle event)."""
        self._require_node(node_id)
        self._live[node_id] = False

    def mark_alive(self, node_id: NodeId) -> None:
        """Believe the node returned."""
        self._require_node(node_id)
        self._live[node_id] = True

    def is_live(self, node_id: NodeId) -> bool:
        return self._live[node_id]

    def live_nodes(self) -> List[NodeId]:
        return sorted(n for n, live in self._live.items() if live)

    def _require_node(self, node_id: NodeId) -> None:
        if node_id not in self._datanodes:
            raise KeyError(f"unknown datanode {node_id!r}")

    # -- file namespace -------------------------------------------------------------

    @property
    def file_names(self) -> List[str]:
        return sorted(self._files)

    def file(self, name: str) -> DfsFile:
        try:
            return self._files[name]
        except KeyError:
            raise KeyError(f"no such file {name!r}") from None

    def block(self, block_id: str) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise KeyError(f"no such block {block_id!r}") from None

    def create_file(
        self,
        name: str,
        num_blocks: int,
        block_size: int,
        replication: int,
        policy: PlacementPolicy,
        gamma: float,
        rng: RandomSource,
    ) -> DfsFile:
        """Create a file and place every block through ``policy``.

        This is the write path behind ``copyFromLocal``: a placement plan is
        built once per ingest (the lifetime of ADAPT's hash table,
        Section IV.B.1) and consulted for each block's replica set.
        """
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        dfs_file = DfsFile.build(name, num_blocks, block_size, replication)
        plan = policy.build_plan(self.placement_views(), num_blocks, replication, gamma)
        if self._rack_of is not None:
            plan.set_rack_constraint(self._rack_of)
        placement_rng = rng.substream("placement", name)
        holders_per_block = plan.choose_replicas_many(placement_rng, len(dfs_file.blocks))
        # Commit loop, inlined from _store_replica with the instance dicts
        # hoisted: ingest is the build hot path (m*k replica commits), and
        # the plan only returns nodes drawn from placement_views(), i.e.
        # registered ones, so the per-replica membership check is elided.
        blocks = self._blocks
        locations = self._locations
        datanodes = self._datanodes
        for block, holders in zip(dfs_file.blocks, holders_per_block, strict=True):
            blocks[block.block_id] = block
            for node_id in holders:
                datanodes[node_id].store(block)
            locations[block.block_id] = tuple(holders)
        self._files[name] = dfs_file
        return dfs_file

    def delete_file(self, name: str) -> None:
        """Remove a file and all its replicas."""
        dfs_file = self.file(name)
        for block in dfs_file.blocks:
            for node_id in self._locations.get(block.block_id, ()):
                self._remove_replica(block.block_id, node_id)
            self._locations.pop(block.block_id, None)
            self._blocks.pop(block.block_id, None)
        del self._files[name]

    # -- block locations ---------------------------------------------------------------

    @property
    def locations(self) -> Mapping[str, Tuple[NodeId, ...]]:
        """Read-only live view, block id -> holders in landing order: the
        task path's locality query (a replica change rebinds the tuple)."""
        return self._locations_view

    def replica_holders(self, block_id: str) -> Set[NodeId]:
        """All nodes holding a replica (regardless of liveness)."""
        if block_id not in self._locations:
            raise KeyError(f"no such block {block_id!r}")
        return set(self._locations[block_id])

    def up_holders(self, block_id: str) -> List[NodeId]:
        """Replica holders currently believed live, in sorted order."""
        return sorted(n for n in self.replica_holders(block_id) if self._live[n])

    def blocks_on(self, node_id: NodeId) -> Set[str]:
        """Block ids stored on one node."""
        self._require_node(node_id)
        return self._datanodes[node_id].block_ids()

    def location_snapshot(self) -> Dict[str, Set[NodeId]]:
        """Copy of the whole location map (block id -> holder set).

        For auditing: callers get an isolated snapshot they can compare
        against physical DataNode contents without aliasing live state.
        """
        return {block_id: set(holders) for block_id, holders in self._locations.items()}

    def block_distribution(self, name: str) -> Dict[NodeId, int]:
        """Replica count per node for one file (the ``df``-style view)."""
        dfs_file = self.file(name)
        counts: Dict[NodeId, int] = {node_id: 0 for node_id in self._datanodes}
        for block in dfs_file.blocks:
            for node_id in self._locations[block.block_id]:
                counts[node_id] += 1
        return counts

    def replica_map(self, name: str) -> Dict[str, List[NodeId]]:
        """block id -> sorted holders for one file."""
        dfs_file = self.file(name)
        return {
            block.block_id: sorted(self._locations[block.block_id])
            for block in dfs_file.blocks
        }

    def located_on(self, node_id: NodeId) -> List[str]:
        """Block ids whose *metadata* lists the node as a holder.

        Unlike :meth:`blocks_on` this reads the location map, not the
        DataNode's physical storage — so it stays correct for a node whose
        disk was wiped but whose loss has not been processed yet.
        """
        self._require_node(node_id)
        return sorted(
            block_id for block_id, holders in self._locations.items() if node_id in holders
        )

    def replication_target(self, block_id: str) -> int:
        """The replication degree the block's file asks for."""
        block = self.block(block_id)
        return self._files[block.file_name].replication

    def under_replicated(self) -> Dict[str, int]:
        """block id -> live replica count, for blocks below their target.

        "Live" means held on a node the NameNode currently believes alive;
        blocks with zero live replicas are included (count 0) as long as
        some replica location is still recorded, and lost blocks (no
        locations at all) are included too.
        """
        shortfall: Dict[str, int] = {}
        for block_id, holders in self._locations.items():
            live = sum(1 for n in holders if self._live[n])
            if live < self.replication_target(block_id):
                shortfall[block_id] = live
        return shortfall

    def add_replica(self, block_id: str, node_id: NodeId) -> None:
        """Materialise a new replica (re-replication landed)."""
        block = self.block(block_id)
        if node_id in self._locations[block_id]:
            raise ValueError(f"{node_id} already holds {block_id}")
        self._store_replica(block, node_id)

    def remove_replica(self, block_id: str, node_id: NodeId) -> None:
        """Drop one replica (over-replication garbage collection).

        Refuses to remove the last recorded replica — durability GC must
        never turn an over-replicated block into a lost one.
        """
        if node_id not in self.replica_holders(block_id):
            raise ValueError(f"{node_id} does not hold {block_id}")
        if len(self._locations[block_id]) <= 1:
            raise ValueError(f"refusing to remove the last replica of {block_id}")
        self._remove_replica(block_id, node_id)

    def purge_node(self, node_id: NodeId) -> Tuple[List[str], List[str]]:
        """Erase every replica the node held from the location map.

        Called when a node's loss is known to be permanent (its disk is
        gone, so the usual down-but-recoverable bookkeeping is wrong).
        Returns ``(affected, lost)``: all block ids the node held, and the
        subset left with zero replicas anywhere — unrecoverable data loss.
        The node stays registered (and dead) so historic queries resolve.
        """
        self._require_node(node_id)
        affected = self.located_on(node_id)
        lost: List[str] = []
        datanode = self._datanodes[node_id]
        for block_id in affected:
            self._drop_location(block_id, node_id)
            if datanode.has_block(block_id):
                datanode.remove(block_id)
            if not self._locations[block_id]:
                lost.append(block_id)
        return affected, lost

    def _store_replica(self, block: Block, node_id: NodeId) -> None:
        self._require_node(node_id)
        self._datanodes[node_id].store(block)
        self._locations[block.block_id] += (node_id,)

    def _remove_replica(self, block_id: str, node_id: NodeId) -> None:
        self._datanodes[node_id].remove(block_id)
        self._drop_location(block_id, node_id)

    def _drop_location(self, block_id: str, node_id: NodeId) -> None:
        self._locations[block_id] = tuple(
            n for n in self._locations[block_id] if n != node_id
        )

    # -- placement views & rebalancing ------------------------------------------------

    def node_views(self, live_only: bool = True) -> List[NodeView]:
        """Placement-ready per-node views from the predictor's estimates.

        A node is placeable only when it is both *believed* live and
        *physically* up: a write to a crashed-but-undetected DataNode
        fails its pipeline and HDFS re-places the block elsewhere, which
        filtering here models directly.
        """
        views = []
        for node_id in self.datanode_ids:
            live = self._live[node_id] and self._datanodes[node_id].is_up
            if live_only and not live:
                continue
            views.append(
                NodeView(
                    node_id=node_id,
                    estimate=self._predictor.estimate(node_id),
                    is_up=live,
                )
            )
        return views

    def placement_views(self) -> List[NodeView]:
        """The views ingest placement sees.

        With the liveness filter on, only live+up nodes are placeable;
        with it off, every registered node is eligible (see __init__).
        """
        if self._placement_liveness_filter:
            return self.node_views(live_only=True)
        return [
            NodeView(node_id=node_id, estimate=self._predictor.estimate(node_id), is_up=True)
            for node_id in self.datanode_ids
        ]

    def plan_adapt(
        self,
        name: str,
        policy: PlacementPolicy,
        gamma: float,
        rng: RandomSource,
    ) -> List[RebalanceMove]:
        """Plan the ``adapt <file>`` redistribution (Section IV.A)."""
        return plan_rebalance(
            replica_map=self.replica_map(name),
            policy=policy,
            nodes=self.placement_views(),
            gamma=gamma,
            rng=rng.substream("rebalance", name),
        )

    def apply_move(self, move: RebalanceMove) -> None:
        """Execute one replica move at the metadata level."""
        block = self.block(move.block_id)
        if move.source not in self._locations[move.block_id]:
            raise ValueError(f"{move.source} does not hold {move.block_id}")
        if move.destination in self._locations[move.block_id]:
            raise ValueError(f"{move.destination} already holds {move.block_id}")
        self._store_replica(block, move.destination)
        self._remove_replica(move.block_id, move.source)
