#!/usr/bin/env python
"""A real multicoordinated Paxos cluster: OS subprocesses over UDP/TCP.

Launches the ISSUE's reference deployment on localhost -- 3 acceptors,
2 coordinators and 2 learners, each as its **own OS process** (``python
-m repro.net.node``), every protocol message crossing a real UDP socket
(TCP for oversized frames).  The driver (this process) hosts the two
proposers and a :class:`PipelinedClient`, exactly as it would on the
simulator -- the role classes and the client are byte-for-byte the same
code; only the Runtime behind them changed.

The run asserts the two properties CI's ``net-smoke`` job gates on:

* **100% delivery** -- every submitted command is acked by *every*
  learner (observed via the learners' ``Learned`` broadcasts to the
  driver-hosted proposers);
* **identical learner orders** -- a ``CtlOrders`` audit fetches each
  learner's delivered sequence over the wire; they must be equal and
  contain every command.

and prints wall-clock throughput and latency percentiles.

Run:  python examples/cluster_launcher.py [--commands N] [--loss P]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cstruct.commands import Command  # noqa: E402
from repro.net.cluster import (  # noqa: E402
    DRIVER_NODE,
    Deployment,
    address_book,
    wall_clock_liveness,
    wall_clock_retransmit,
)
from repro.net.node import ControlClient, config_from_spec, control_pid  # noqa: E402
from repro.smr.client import PipelinedClient  # noqa: E402

SHAPE = {
    "n_proposers": 2,
    "n_coordinators": 2,
    "n_acceptors": 3,
    "n_learners": 2,
    "f": 1,
}


def reserve_ports(count: int) -> list[int]:
    """Find *count* localhost ports free for both UDP and TCP.

    Binds both sockets per port before releasing any, so the ports are
    distinct; the (tiny) window between release and the subprocess
    re-binding is the usual localhost-launcher race.
    """
    holds, ports = [], []
    while len(ports) < count:
        udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        udp.bind(("127.0.0.1", 0))
        port = udp.getsockname()[1]
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            tcp.bind(("127.0.0.1", port))
        except OSError:
            udp.close()
            continue
        holds += [udp, tcp]
        ports.append(port)
    for sock in holds:
        sock.close()
    return ports


def percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


async def run(args: argparse.Namespace) -> int:
    spec_base = {
        "shape": SHAPE,
        "retransmit": vars(wall_clock_retransmit()),
        "liveness": vars(wall_clock_liveness()),
        "loss_rate": args.loss,
        "lifetime": args.timeout + 30.0,
    }
    config = config_from_spec(spec_base)
    book = address_book([config])
    remote_nodes = sorted(set(book.nodes) - {DRIVER_NODE})
    for node, port in zip(remote_nodes, reserve_ports(len(remote_nodes))):
        book.nodes[node] = ("127.0.0.1", port)

    # This process runs the driver node only; every other node of the
    # same book is a subprocess.
    deployment = Deployment(
        config, seed=99, loss_rate=args.loss, book=book, nodes=[DRIVER_NODE]
    )
    await deployment.start(start_round=False)  # resolves the driver's ephemeral port
    driver, cluster = deployment.driver, deployment.cluster

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    children: list[subprocess.Popen] = []
    control: ControlClient | None = None
    try:
        for node in remote_nodes:
            spec = {
                **spec_base,
                "node": node,
                "seed": 99,
                "driver": DRIVER_NODE,
                **book.to_json(),
            }
            children.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.net.node", json.dumps(spec)],
                    env=env,
                )
            )

        control = ControlClient(control_pid(DRIVER_NODE), driver, set(remote_nodes))
        if not await driver.wait_until(control.all_ready, timeout=20.0):
            missing = control.expected - control.hellos
            print(f"FAIL: nodes never reported ready: {sorted(missing)}")
            return 1
        print(f"{len(remote_nodes)} nodes up "
              f"({', '.join(remote_nodes)}); starting round")
        control.start_cluster(coord=0)

        client = PipelinedClient("launcher", cluster, window=8)
        cluster.attach_client(client)
        cmds = [
            Command(f"net-{i}", "put", f"key{i % 8}", i)
            for i in range(args.commands)
        ]
        started = driver.clock
        client.submit(cmds)

        def finished() -> bool:
            return client.all_completed() and cluster.all_acked(cmds)

        if not await driver.wait_until(finished, timeout=args.timeout):
            done = len(client.completed)
            fully = sum(cluster.all_acked([c]) for c in cmds)
            print(f"FAIL: {done}/{len(cmds)} completed, "
                  f"{fully}/{len(cmds)} acked by all learners")
            return 1
        elapsed = driver.clock - started

        # Order audit over the wire: every learner, identical sequences.
        learner_nodes = [book.node_of(pid) for pid in config.topology.learners]
        # The audit rides the same (possibly lossy) links: ask again until
        # one round of replies is complete.
        for _attempt in range(10):
            control.audit_orders(learner_nodes)
            got_all = await driver.wait_until(
                lambda: len(control.learner_orders()) == len(config.topology.learners),
                timeout=1.0,
            )
            if got_all:
                break
        if not got_all:
            print("FAIL: order audit incomplete")
            return 1
        orders = control.learner_orders()
        distinct = {order for order in orders.values()}
        if len(distinct) != 1 or set(next(iter(distinct))) != set(cmds):
            print(f"FAIL: learner orders diverge or are incomplete: "
                  f"{ {pid: len(o) for pid, o in orders.items()} }")
            return 1

        latencies = sorted(
            lat for lat in (client.latency(c) for c in cmds) if lat is not None
        )
        print(f"OK: {len(cmds)} commands, 100% delivered, "
              f"{len(orders)} learners with identical orders")
        print(f"  wall time    {elapsed:8.2f} s")
        print(f"  throughput   {len(cmds) / elapsed:8.1f} cmds/s")
        print(f"  messages     {driver.metrics.total_messages:8d} sent by driver "
              f"({driver.frames_udp} udp / {driver.frames_tcp} tcp frames)")
        print(f"  latency p50  {1e3 * percentile(latencies, 0.50):8.1f} ms")
        print(f"  latency p99  {1e3 * percentile(latencies, 0.99):8.1f} ms")
        return 0
    finally:
        if control is not None:
            control.shutdown_cluster(remote_nodes)
            await asyncio.sleep(0.3)  # let the shutdowns drain
        await deployment.stop()
        deadline = time.monotonic() + 10.0
        for child in children:
            try:
                child.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                child.kill()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", type=int, default=60)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="injected per-hop drop probability")
    parser.add_argument("--timeout", type=float, default=45.0)
    args = parser.parse_args()
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
