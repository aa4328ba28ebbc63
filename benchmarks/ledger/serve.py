"""System under test: boot it in this process or in a child process.

:func:`boot` builds either one TCP-served ``LaminarServer`` or a 3-shard
``ClusterSupervisor`` on port 0 and returns the handshake (addresses,
pid) plus a ``close`` callable.  Registries are in-memory, the server's
default: with a SQLite file every commit is an fsync, and the host's
fsync latency moved whole runs by 2-3x from one minute to the next.

Run as a script it is the **server child**: it prints the handshake as
one JSON line, points its stdout at ``/dev/null`` (PE ``print``s of
non-``simple`` mappings land there), and exits when its stdin reaches
EOF — so it can never outlive the runner.  When two CPUs are available
the child pins itself to one and the runner to the other.

:class:`ServerChild` is the runner's side: spawn, read the handshake,
read the child's peak RSS, and always reap the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

__all__ = ["boot", "ServerChild", "CLUSTER_SHARDS"]

ROOT = Path(__file__).resolve().parents[2]

#: CPUs this process may use, read before the runner pins itself to one.
CPUS = sorted(os.sched_getaffinity(0))

CLUSTER_SHARDS = 3
CLUSTER_JOB_WORKERS = 2
CLUSTER_REPLICATION = 2


def boot(mode: str):
    """Start the system; returns ``(handshake, close)``."""
    if mode == "single":
        from repro.laminar.server.app import LaminarServer
        from repro.laminar.transport.tcp import TcpServerTransport

        server = LaminarServer()
        transport = TcpServerTransport(server).start()
        host, port = transport.address

        def close() -> None:
            transport.stop()
            server.close()

        return {"mode": mode, "pid": os.getpid(), "host": host, "port": port}, close
    if mode == "cluster":
        from repro.laminar.cluster import ClusterSupervisor

        supervisor = ClusterSupervisor(
            shards=CLUSTER_SHARDS,
            replication=CLUSTER_REPLICATION,
            job_workers=CLUSTER_JOB_WORKERS,
        )
        config = supervisor.start()
        return (
            {"mode": mode, "pid": os.getpid(), "cluster": config.to_dict()},
            supervisor.stop,
        )
    raise ValueError(f"unknown mode {mode!r}")


class ServerChild:
    """The system booted in a child process (the end-to-end runs)."""

    def __init__(self, mode: str) -> None:
        env = dict(os.environ)  # carries the runner's PYTHONHASHSEED and BLAS cap
        env["PYTHONPATH"] = str(ROOT / "src")
        # One core each, as the 2-connection closed loop assumes: without
        # pinning the scheduler moves both around and run-to-run spread triples.
        cpu = "-"
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {CPUS[0]})
            cpu = str(CPUS[1])
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), mode, cpu],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server child exited with code {self.process.wait()} "
                    "before its handshake"
                )
            self.handshake = json.loads(line)
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        """High-water RSS of the child so far (Linux ``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported for the server child")

    def close(self) -> None:
        """Stop the child: stdin EOF, then kill if it lingers."""
        process = self.process
        try:
            if process.poll() is None:
                try:
                    process.stdin.close()
                except OSError:
                    pass
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            process.stdout.close()


def main(argv: list[str]) -> int:
    mode, cpu = argv
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})  # before any thread exists
    handshake, close = boot(mode)
    try:
        sys.stdout.write(json.dumps(handshake) + "\n")
        sys.stdout.flush()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        sys.stdin.buffer.read()  # returns at EOF: the runner closed or died
    finally:
        close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
