"""Cluster mode: consistent-hash sharding of the Laminar registry.

The pieces, bottom-up:

* :class:`~repro.laminar.cluster.ring.HashRing` — consistent hashing
  with virtual nodes; balanced placement, minimal movement on
  membership change.
* :class:`~repro.laminar.cluster.config.ClusterConfig` — the shared
  shard map (ids, addresses, vnodes, replication) every party loads.
* :class:`~repro.laminar.cluster.router.ShardRouter` — action payload →
  placement key → owner shards; used by clients to route and by servers
  to reject misdirected keyed requests with 421.
* :class:`~repro.laminar.cluster.supervisor.ClusterSupervisor` — boots
  N servers (own registry db and semantic indexes; a dynamic run on a
  shard brings its own work-queue broker), health-checks them, and
  supports kill/restart for failover drills.
* :class:`~repro.laminar.cluster.client.ShardedClient` — the
  :class:`~repro.laminar.client.client.LaminarClient` verb surface over
  the whole cluster: keyed routing, replica failover, scatter-gather
  merges.
"""

from repro.laminar.cluster.config import ClusterConfig, ShardInfo
from repro.laminar.cluster.ring import HashRing
from repro.laminar.cluster.router import ShardRouter, routing_key
from repro.laminar.cluster.supervisor import ClusterSupervisor, ShardHandle
from repro.laminar.cluster.client import ShardedClient, qualify_job_id, split_job_id

__all__ = [
    "ClusterConfig",
    "ShardInfo",
    "HashRing",
    "ShardRouter",
    "routing_key",
    "ClusterSupervisor",
    "ShardHandle",
    "ShardedClient",
    "qualify_job_id",
    "split_job_id",
]
