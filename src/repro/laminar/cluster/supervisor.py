"""Boot, health-check and recover a cluster of Laminar server shards.

The supervisor owns N :class:`~repro.laminar.server.app.LaminarServer`
instances, each served over its own TCP transport, with

* its own registry database (``shard-<id>.db`` under ``db_dir``, or
  in-memory), and
* its own semantic-index directory (under ``index_dir``),

and publishes the resulting :class:`ClusterConfig` for shard-aware
clients.  A background loop health-checks every shard and keeps the
``laminar_cluster_*`` gauges current; :meth:`kill` / :meth:`restart`
exist so tests (and the CI smoke job) can exercise failover for real.

This is the orchestrator-fans-out-to-workers shape (PaPy's router in
front of a worker pool; Wukong's decentralised scheduling): the
supervisor only *places and watches* — requests never pass through it,
clients talk straight to the owning shard.
"""

from __future__ import annotations

import threading
import time

from repro.laminar.cluster.config import ClusterConfig, ShardInfo
from repro.laminar.cluster.router import ShardRouter
from repro.obs import MetricsRegistry

__all__ = ["ClusterSupervisor", "ShardHandle"]


class ShardHandle:
    """One managed shard: its server, transport and liveness state."""

    def __init__(self, info: ShardInfo) -> None:
        self.info = info
        self.server = None
        self.transport = None
        self.healthy = False
        self.last_check = 0.0
        self.restarts = 0

    @property
    def running(self) -> bool:
        return self.server is not None

    def to_public(self) -> dict:
        return {
            "shardId": self.info.shard_id,
            "host": self.info.host,
            "port": self.info.port,
            "running": self.running,
            "healthy": self.healthy,
            "restarts": self.restarts,
            "lastCheck": self.last_check,
        }


class ClusterSupervisor:
    """Launches and babysits N server shards in this process.

    Parameters
    ----------
    shards:
        How many shards to run (ids ``s0`` ... ``s{n-1}``).
    db_dir:
        Directory for per-shard sqlite registries; ``None`` = in-memory.
    index_dir:
        Directory for per-shard semantic-index persistence; optional.
    replication:
        Key replication factor recorded in the published config (the
        *client* enacts replica writes; shards are unaware of it).
    health_interval:
        Seconds between health sweeps; 0 disables the background loop
        (``check_health()`` can still be called manually).
    server_options:
        Extra keyword arguments for every :class:`LaminarServer`
        (``job_workers``, ``job_queue_capacity``, ...).
    """

    def __init__(
        self,
        shards: int = 3,
        host: str = "127.0.0.1",
        db_dir: str | None = None,
        index_dir: str | None = None,
        vnodes: int = 64,
        replication: int = 2,
        health_interval: float = 0.5,
        heartbeat_interval: float = 0.2,
        registry: MetricsRegistry | None = None,
        **server_options,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self._host = host
        self._db_dir = db_dir
        self._index_dir = index_dir
        self._health_interval = float(health_interval)
        self._heartbeat_interval = float(heartbeat_interval)
        self._server_options = dict(server_options)
        self.handles: dict[str, ShardHandle] = {
            f"s{i}": ShardHandle(ShardInfo(shard_id=f"s{i}", host=host))
            for i in range(shards)
        }
        self.config = ClusterConfig(
            shards=[h.info for h in self.handles.values()],
            vnodes=vnodes,
            replication=replication,
        )
        self.router = ShardRouter(self.config)
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None
        self._lock = threading.RLock()
        self.obs_registry = registry if registry is not None else MetricsRegistry()
        self._g_shards = self.obs_registry.gauge(
            "laminar_cluster_shards", "Shards configured in this cluster."
        )
        self._g_healthy = self.obs_registry.gauge(
            "laminar_cluster_shards_healthy", "Shards passing health checks."
        )
        self._g_up = self.obs_registry.gauge(
            "laminar_cluster_shard_up",
            "Per-shard liveness as seen by the supervisor.",
            ("shard",),
        )
        self._c_checks = self.obs_registry.counter(
            "laminar_cluster_health_checks_total",
            "Health probes performed, by outcome.",
            ("outcome",),
        )
        self._c_restarts = self.obs_registry.counter(
            "laminar_cluster_shard_restarts_total", "Shard restarts performed."
        )
        self._g_shards.set(float(shards))

    # -- lifecycle -----------------------------------------------------------

    def _boot_shard(self, handle: ShardHandle, port: int = 0) -> None:
        """Construct and serve one shard (caller holds the lock)."""
        from repro.laminar.server.app import LaminarServer
        from repro.laminar.transport.tcp import TcpServerTransport

        shard_id = handle.info.shard_id
        db_path = ":memory:"
        if self._db_dir is not None:
            db_path = f"{self._db_dir}/shard-{shard_id}.db"
        index_dir = None
        if self._index_dir is not None:
            index_dir = f"{self._index_dir}/shard-{shard_id}"
        server = LaminarServer(
            db_path,
            index_dir=index_dir,
            shard_id=shard_id,
            cluster_config=self.config,
            **self._server_options,
        )
        try:
            transport = TcpServerTransport(
                server,
                host=handle.info.host,
                port=port,
                heartbeat_interval=self._heartbeat_interval,
            ).start()
        except OSError:
            if port == 0:
                server.close()
                raise
            # The old port is still in TIME_WAIT/taken — rebind anywhere
            # and publish the new address through the config.
            transport = TcpServerTransport(
                server,
                host=handle.info.host,
                port=0,
                heartbeat_interval=self._heartbeat_interval,
            ).start()
        host, bound_port = transport.address
        handle.info = ShardInfo(shard_id=shard_id, host=host, port=bound_port)
        self.config.replace(handle.info)
        handle.server = server
        handle.transport = transport
        handle.healthy = True
        self._g_up.labels(shard_id).set(1.0)

    def start(self) -> ClusterConfig:
        """Boot every shard; returns the published cluster config."""
        with self._lock:
            for handle in self.handles.values():
                if not handle.running:
                    self._boot_shard(handle)
        self._g_healthy.set(float(sum(h.healthy for h in self.handles.values())))
        if self._health_interval > 0 and self._health_thread is None:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="laminar-cluster-health", daemon=True
            )
            self._health_thread.start()
        return self.config

    def stop(self) -> None:
        """Stop the health loop and shut every shard down."""
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None
        with self._lock:
            for handle in self.handles.values():
                self._teardown(handle)

    def _teardown(self, handle: ShardHandle) -> None:
        if handle.transport is not None:
            handle.transport.stop()
            handle.transport = None
        if handle.server is not None:
            handle.server.close()
            handle.server = None
        handle.healthy = False
        self._g_up.labels(handle.info.shard_id).set(0.0)

    # -- fault injection / recovery ------------------------------------------

    def kill(self, shard_id: str) -> None:
        """Take one shard down (connections die, registry is dropped) —
        the failure mode the failover tests exercise."""
        with self._lock:
            self._teardown(self.handles[shard_id])
        self._g_healthy.set(float(sum(h.healthy for h in self.handles.values())))

    def restart(self, shard_id: str) -> ShardInfo:
        """Boot a killed shard again, preferring its previous port.

        With an on-disk ``db_dir`` the shard comes back with its
        registry partition intact; in-memory shards return empty (their
        keys are served by replicas until re-registered).
        """
        with self._lock:
            handle = self.handles[shard_id]
            if handle.running:
                return handle.info
            self._boot_shard(handle, port=handle.info.port)
            handle.restarts += 1
        self._c_restarts.inc()
        self._g_healthy.set(float(sum(h.healthy for h in self.handles.values())))
        return handle.info

    # -- health ---------------------------------------------------------------

    def check_health(self) -> dict[str, bool]:
        """Probe every shard once; returns ``{shard_id: healthy}``."""
        results: dict[str, bool] = {}
        with self._lock:
            for shard_id, handle in self.handles.items():
                healthy = False
                if handle.server is not None:
                    try:
                        response = handle.server.handle({"action": "ping"})
                        healthy = response.get("status") == 200
                    except Exception:  # noqa: BLE001 - a sick shard is unhealthy
                        healthy = False
                handle.healthy = healthy
                handle.last_check = time.time()
                self._c_checks.labels("ok" if healthy else "down").inc()
                self._g_up.labels(shard_id).set(1.0 if healthy else 0.0)
                results[shard_id] = healthy
        self._g_healthy.set(float(sum(results.values())))
        return results

    def _health_loop(self) -> None:
        while not self._stop.wait(self._health_interval):
            self.check_health()

    def status(self) -> dict:
        """JSON-able cluster view (shards, health, ring parameters)."""
        return {
            "shards": [h.to_public() for h in self.handles.values()],
            "healthy": sum(h.healthy for h in self.handles.values()),
            "total": len(self.handles),
            "vnodes": self.config.vnodes,
            "replication": self.config.replication,
        }

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
