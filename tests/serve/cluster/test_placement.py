"""Placement policies answer ownership only: which replicas hold a model,
in preference order.  Dispatch among the owners is the router's rule
(pinned in ``test_router.py``)."""

from __future__ import annotations

import pytest

from repro.serve.cluster import ConsistentHashPolicy, PlacementPolicy


class StubReplica:
    """Just enough surface for the policies: an id."""

    def __init__(self, replica_id: str) -> None:
        self.replica_id = replica_id


def stubs(count: int) -> list:
    return [StubReplica(f"r{index}") for index in range(count)]


def ids(replicas) -> list:
    return [replica.replica_id for replica in replicas]


class TestDefaultPolicy:
    def test_replicates_everywhere_in_given_order(self):
        replicas = stubs(3)
        assert PlacementPolicy().owners("m", replicas) == replicas
        assert PlacementPolicy().owners("m", replicas[::-1]) == replicas[::-1]

    def test_preview_assigns_every_model_to_every_replica(self):
        plan = PlacementPolicy().preview_owners(["a", "b"], ["r0", "r1"])
        assert plan == {"a": ["r0", "r1"], "b": ["r0", "r1"]}


class TestConsistentHashPolicy:
    def test_owners_follow_the_ring_prefix(self):
        policy = ConsistentHashPolicy(replication_factor=2, vnodes=32)
        replicas = stubs(3)
        policy.on_membership_change(ids(replicas))
        owners = policy.owners("model-a", replicas)
        assert len(owners) == 2
        preference = policy.ring.preference_list("model-a")
        assert ids(owners) == preference[:2]

    def test_owners_restricted_to_the_replicas_asked_about(self):
        policy = ConsistentHashPolicy(replication_factor=2, vnodes=32)
        replicas = stubs(3)
        policy.on_membership_change(ids(replicas))
        first, second, third = policy.ring.preference_list("model-a")
        routable = [replica for replica in replicas if replica.replica_id != first]
        # A failed primary leaves its co-owner; the third replica, which does
        # not hold the model, never becomes an owner.
        assert ids(policy.owners("model-a", routable)) == [second]
        assert policy.owners("model-a", [r for r in replicas if r.replica_id == third]) == []

    def test_preview_agrees_with_the_committed_ring(self):
        policy = ConsistentHashPolicy(replication_factor=2, vnodes=32)
        models = [f"model-{index}" for index in range(8)]
        plan = policy.preview_owners(models, ["r0", "r1", "r2"])
        replicas = stubs(3)
        policy.on_membership_change(ids(replicas))
        assert plan == {model: ids(policy.owners(model, replicas)) for model in models}

    def test_membership_change_updates_the_ring(self):
        policy = ConsistentHashPolicy(vnodes=16)
        policy.on_membership_change(["r0", "r1"])
        assert policy.ring.nodes() == ["r0", "r1"]
        policy.on_membership_change(["r1", "r2"])
        assert policy.ring.nodes() == ["r1", "r2"]

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError):
            ConsistentHashPolicy(replication_factor=0)
