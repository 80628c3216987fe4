"""Pluggable placement: which replicas own (and store) which model.

Following the policy-free middleware idea, a :class:`PlacementPolicy`
answers one question — :meth:`~PlacementPolicy.owners`: given a model id and
a set of replicas, which of them hold the model's registry entry, in
preference order.  The router (re-)registers bundles accordingly on publish
and membership changes, and dispatches among the routable owners by load
with one rule of its own (see :class:`~repro.serve.cluster.router.ClusterRouter`):
the first owner below a full batch of outstanding rows, else the least loaded.

Built-ins:

* :class:`PlacementPolicy` — replicate everywhere, in membership order.
* :class:`ConsistentHashPolicy` — shard the catalogue over a
  :class:`~repro.serve.cluster.hashring.ConsistentHashRing`; each model lives
  on ``replication_factor`` ring successors, so per-replica instance caches
  stay shard-resident (the cluster's aggregate cache scales with members) and
  failover follows the ring to the next owner.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .hashring import ConsistentHashRing
from .replica import ReplicaWorker


class PlacementPolicy:
    """Strategy interface: override any subset; defaults replicate everywhere."""

    def owners(self, model_id: str, replicas: Sequence[ReplicaWorker]) -> List[ReplicaWorker]:
        """Replicas of ``replicas`` that hold ``model_id``, in preference order."""
        return list(replicas)

    def on_membership_change(self, replica_ids: Sequence[str]) -> None:
        """Called by the router whenever replicas join or leave."""

    def preview_owners(
        self, model_ids: Sequence[str], replica_ids: Sequence[str]
    ) -> Dict[str, List[str]]:
        """The ownership this policy *would* choose for a hypothetical
        membership — without mutating any live state.

        This is the autoscaler's rebalance-planning hook: before a replica
        joins (or after one is chosen to leave), the executor asks what the
        post-change shard map will be, publishes the affected bundles to
        their future owners, and warms them — so the actual membership change
        is a cutover between two warm states, never a cold start.  The
        default (replicate everywhere) assigns every model to every replica.
        """
        return {model_id: list(replica_ids) for model_id in model_ids}


class ConsistentHashPolicy(PlacementPolicy):
    """Shard models over a hash ring with bounded replication.

    ``replication_factor`` owners per model id trades memory for failover
    headroom: with ``r`` owners the cluster tolerates ``r - 1`` replica
    failures per shard without a cache-cold (or catalogue-miss) dispatch.
    Owners come in the ring's preference order, restricted to the replicas
    asked about, so a failed primary hands over to the model's next *owner*
    before any non-owner.
    """

    def __init__(self, replication_factor: int = 2, vnodes: int = 64) -> None:
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.replication_factor = replication_factor
        self.ring = ConsistentHashRing(vnodes=vnodes)

    def on_membership_change(self, replica_ids: Sequence[str]) -> None:
        wanted = set(replica_ids)
        for node in self.ring.nodes():
            if node not in wanted:
                self.ring.remove(node)
        for node in wanted:
            if node not in self.ring:
                self.ring.add(node)

    def owners(self, model_id: str, replicas: Sequence[ReplicaWorker]) -> List[ReplicaWorker]:
        by_id = {replica.replica_id: replica for replica in replicas}
        owners = self.ring.preference_list(model_id, count=self.replication_factor)
        return [by_id[node] for node in owners if node in by_id]

    def preview_owners(
        self, model_ids: Sequence[str], replica_ids: Sequence[str]
    ) -> Dict[str, List[str]]:
        """Ownership under a hypothetical membership, on a scratch ring.

        Builds a throwaway ring with the same ``vnodes`` (ring points are a
        pure function of replica id, so the preview agrees exactly with what
        :meth:`on_membership_change` will later commit) and walks each
        model's preference list at this policy's replication factor.
        """
        ring = ConsistentHashRing(replica_ids, vnodes=self.ring.vnodes)
        return {
            model_id: ring.preference_list(model_id, count=self.replication_factor)
            for model_id in model_ids
        }
