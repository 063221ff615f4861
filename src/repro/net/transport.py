"""`NetRuntime`: the asyncio UDP/TCP implementation of the Runtime seam.

One :class:`NetRuntime` is one *node*: an OS process bound to one
UDP+TCP port pair, hosting any number of protocol roles (the
:class:`~repro.core.runtime.Process` subclasses of either engine).  The
same role classes that run on the deterministic simulator run here
unchanged -- the runtime provides the identical surface
(``send``/``schedule``/``clock``/``rng``/``metrics``/``make_storage``,
see :class:`repro.core.runtime.Runtime`).

Transport model (documented in ``docs/transport.md``):

* **UDP datagrams** carry every frame that fits ``mtu`` bytes -- one
  encoded envelope ``(src, dst, msg)`` per datagram, no fragmentation,
  fire-and-forget.  The engines' retransmission layer is what turns this
  fair-lossy service into liveness, exactly as it does under the
  simulator's ``drop_rate``.
* **TCP fallback** carries frames larger than ``mtu`` (snapshot chunks,
  large batches): a per-destination connection with 4-byte big-endian
  length-prefixed framing, (re)established lazily.  A connection error
  keeps the frame and reconnects with exponential backoff under a
  capped retry budget; only an exhausted budget loses the frame, and it
  never blocks the node or other destinations.
* A message between two pids hosted on the *same* node short-circuits
  the socket (scheduled on the loop, still asynchronous -- never a
  reentrant call), mirroring the simulator's reliable self-delivery.

Loss injection (``loss_rate``, ``add_drop_filter``) mirrors the
simulator's network hooks so the transport conformance suite can run the
same lossy scenarios against both backends.

The wall clock and the runtime's RNG live *behind* the Runtime protocol:
role code never reads ``time.*`` or seeds randomness itself, which is
what keeps the simulator bit-deterministic (the protolint ``determinism``
rule enforces it).  ``clock`` is the loop's monotonic time re-based to 0
at :meth:`NetRuntime.start`, so timestamps look like the simulator's.
"""

from __future__ import annotations

import asyncio
import random
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.net.codec import CodecContext, CodecError, decode, encode, envelope, seal
from repro.sim.metrics import Metrics
from repro.sim.storage import StableStorage

_LEN = struct.Struct("!I")

#: payload bytes above which a frame travels over TCP instead of UDP
DEFAULT_MTU = 1400

#: Receive-buffer bytes per datagram: no UDP payload is larger.  asyncio's
#: selector transport otherwise reads every datagram into a fresh 256 KiB
#: buffer -- above glibc's mmap and heap-trim thresholds, where what one
#: datagram costs depends on where the heap's top happens to sit: two
#: stable regimes 10-35 % apart in latency percentiles, picked by memory
#: layout (a docstring edit or the checkout's path moves a deployment from
#: one to the other; measured on the ledger's socket workloads).
MAX_DATAGRAM = 64 * 1024

DropFilter = Callable[[Hashable, Hashable, Any], bool]


@dataclass
class AddressBook:
    """Where every node listens and which node hosts every pid.

    ``nodes`` maps node name -> ``(host, port)`` (one UDP socket and one
    TCP listener per node, same port number); ``placement`` maps process
    id -> node name.  The book is plain data so a launcher can ship it to
    subprocesses as JSON.
    """

    nodes: dict[str, tuple[str, int]] = field(default_factory=dict)
    placement: dict[str, str] = field(default_factory=dict)

    def node_of(self, pid: Hashable) -> str | None:
        return self.placement.get(str(pid))

    def addr_of(self, node: str) -> tuple[str, int]:
        host, port = self.nodes[node]
        return host, port

    def pids_on(self, node: str) -> list[str]:
        return [pid for pid, where in self.placement.items() if where == node]

    def to_json(self) -> dict:
        return {
            "nodes": {name: list(addr) for name, addr in self.nodes.items()},
            "placement": dict(self.placement),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AddressBook":
        return cls(
            nodes={name: (host, port) for name, (host, port) in data["nodes"].items()},
            placement=dict(data["placement"]),
        )


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, runtime: "NetRuntime") -> None:
        self.runtime = runtime

    def datagram_received(self, data: bytes, addr) -> None:
        self.runtime._on_frame(data)

    def error_received(self, exc) -> None:  # pragma: no cover - platform noise
        pass


class NetRuntime:
    """One network node: an asyncio loop serving hosted protocol roles.

    Implements :class:`repro.core.runtime.Runtime`.  Lifecycle::

        runtime = NetRuntime("acc0", book, seed=3)
        await runtime.start()          # bind sockets (resolves port 0)
        SMRAcceptor("acc0", runtime, config)   # roles attach themselves
        ...
        await runtime.wait_until(lambda: ..., timeout=10.0)
        await runtime.stop()

    Processes must be constructed after :meth:`start` -- their timers
    need the running loop.
    """

    def __init__(
        self,
        node: str,
        book: AddressBook,
        seed: int = 0,
        mtu: int = DEFAULT_MTU,
        loss_rate: float = 0.0,
        codec_context: CodecContext | None = None,
        tcp_retry_limit: int = 4,
        tcp_backoff_base: float = 0.05,
        tcp_backoff_cap: float = 1.0,
    ) -> None:
        self.node = node
        self.book = book
        self.mtu = mtu
        self.loss_rate = loss_rate
        self.tcp_retry_limit = tcp_retry_limit
        self.tcp_backoff_base = tcp_backoff_base
        self.tcp_backoff_cap = tcp_backoff_cap
        self.tcp_reconnects = 0
        self.rng = random.Random(seed)
        self.metrics = Metrics()
        self.processes: dict[Hashable, Any] = {}
        self.port: int | None = None
        self.errors: list[BaseException] = []
        self.codec_context = codec_context or CodecContext()
        self.frames_udp = 0
        self.frames_tcp = 0
        # Encode once per message, not once per destination: ``broadcast``
        # sends one object to every peer, so the last message's bytes are
        # kept (keyed by identity; holding the object keeps its id its own)
        # and sealed into a cached per-(src, dst) envelope.
        self._encoded_msg: Any = self  # no message is the runtime itself
        self._encoded = b""
        self._envelopes: dict[tuple[Hashable, Hashable], bytes] = {}
        self._taps: list[Callable[[Hashable, Hashable, Any], None]] = []
        self._drop_filters: list[DropFilter] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0 = 0.0
        self._udp: asyncio.DatagramTransport | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._tcp_queues: dict[str, asyncio.Queue] = {}
        self._tasks: list[asyncio.Task] = []

    # -- Runtime protocol --------------------------------------------------

    @property
    def clock(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._t0

    def add_process(self, process: Any) -> None:
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process

    def schedule(self, delay: float, action: Callable[[], None]):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if self._loop is None:
            raise RuntimeError("NetRuntime.start() must run before scheduling")
        return self._loop.call_later(delay, self._guarded, action)

    def make_storage(self, owner: str) -> StableStorage:
        return StableStorage(owner=owner)

    def send(self, src: Hashable, dst: Hashable, msg: Any) -> None:
        self.metrics.on_send(src, dst, msg)
        if src != dst:  # self-sends are reliable, as on the simulator
            for drop in self._drop_filters:
                if drop(src, dst, msg):
                    self.metrics.on_drop()
                    return
            if self.loss_rate and self.rng.random() < self.loss_rate:
                self.metrics.on_drop()
                return
        dst_node = self.book.node_of(dst)
        if dst_node == self.node or dst_node is None:
            # Local (or unknown -- stale book) destination: stay off the
            # socket but remain asynchronous, like the simulator's
            # self-delivery.  Unknown pids are dropped at dispatch.
            if self._loop is None:
                raise RuntimeError("NetRuntime.start() must run before sending")
            self._loop.call_soon(self._guarded, lambda: self._deliver(src, dst, msg))
            return
        if msg is not self._encoded_msg:
            self._encoded_msg, self._encoded = msg, encode(msg)
        opened = self._envelopes.get((src, dst))
        if opened is None:
            opened = self._envelopes[src, dst] = envelope(str(src), str(dst))
        data = seal(opened, self._encoded)  # == encode((str(src), str(dst), msg))
        self.metrics.count_bytes(src, dst, msg, len(data))
        if len(data) <= self.mtu:
            self.frames_udp += 1
            assert self._udp is not None
            self._udp.sendto(data, self.book.addr_of(dst_node))
        else:
            self.frames_tcp += 1
            self._send_tcp(dst_node, data)

    # -- fault injection / observation (conformance-test hooks) ------------

    def add_drop_filter(self, drop: DropFilter) -> DropFilter:
        self._drop_filters.append(drop)
        return drop

    def remove_drop_filter(self, drop: DropFilter) -> None:
        self._drop_filters.remove(drop)

    def add_delivery_tap(self, tap: Callable[[Hashable, Hashable, Any], None]) -> None:
        """Observe every delivered ``(src, dst, msg)`` without touching roles."""
        self._taps.append(tap)

    def crash(self, pid: Hashable) -> None:
        self.processes[pid].crash()

    def recover(self, pid: Hashable) -> None:
        self.processes[pid].recover()

    def alive(self, pid: Hashable) -> bool:
        return self.processes[pid].alive

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the UDP socket and TCP listener; resolve port 0."""
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        host, port = self.book.addr_of(self.node)
        for _attempt in range(32):
            udp, _ = await self._loop.create_datagram_endpoint(
                lambda: _UdpProtocol(self), local_addr=(host, port)
            )
            actual = udp.get_extra_info("sockname")[1]
            try:
                server = await asyncio.start_server(self._serve_tcp, host, actual)
            except OSError:
                udp.close()
                if port != 0:
                    raise
                continue  # ephemeral UDP port taken on the TCP side: retry
            break
        else:  # pragma: no cover - 32 collisions in a row
            raise OSError(f"could not bind a UDP+TCP port pair for {self.node}")
        if hasattr(udp, "max_size"):  # the selector loop's datagram transport
            udp.max_size = MAX_DATAGRAM
        self._udp = udp
        self._tcp_server = server
        self.port = actual
        self.book.nodes[self.node] = (host, actual)

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        if self._udp is not None:
            self._udp.close()
            self._udp = None

    async def wait_until(
        self, predicate: Callable[[], bool], timeout: float
    ) -> bool:
        """Poll *predicate* until it holds or *timeout* wall seconds pass."""
        assert self._loop is not None
        deadline = self._loop.time() + timeout
        while not predicate():
            if self.errors:
                raise self.errors[0]
            if self._loop.time() >= deadline:
                return predicate()
            await asyncio.sleep(0.02)
        return True

    # -- internals ---------------------------------------------------------

    def _guarded(self, action: Callable[[], None]) -> None:
        try:
            action()
        except Exception as exc:  # noqa: BLE001 - surfaced via wait_until
            self.errors.append(exc)

    def _deliver(self, src: Hashable, dst: Hashable, msg: Any) -> None:
        self.metrics.on_deliver(dst, msg)
        for tap in self._taps:
            tap(src, dst, msg)
        process = self.processes.get(dst)
        if process is not None:
            process.deliver(msg, src)

    def _on_frame(self, data: bytes) -> None:
        try:
            received = decode(data, self.codec_context)
            if type(received) is not tuple or len(received) != 3:
                raise CodecError(f"not a (src, dst, msg) envelope: {received!r}")
        except CodecError as exc:
            self.errors.append(exc)
            return
        src, dst, msg = received
        self._guarded(lambda: self._deliver(src, dst, msg))

    def _send_tcp(self, node: str, data: bytes) -> None:
        queue = self._tcp_queues.get(node)
        if queue is None:
            queue = self._tcp_queues[node] = asyncio.Queue()
            assert self._loop is not None
            task = self._loop.create_task(self._tcp_pump(node, queue))
            self._tasks.append(task)
        queue.put_nowait(data)

    async def _tcp_pump(self, node: str, queue: asyncio.Queue) -> None:
        """Drain one destination's oversized frames over a lazy connection.

        A connection error keeps the frame and reconnects with
        exponential backoff (``tcp_backoff_base`` doubling per attempt,
        capped at ``tcp_backoff_cap`` seconds), retrying the same frame
        at most ``tcp_retry_limit`` extra times.  Past that budget the
        frame is dropped and the pump moves on -- a dead peer stalls
        only its own queue, and only for the bounded backoff sum; the
        loss is fair-lossy, healed by the engines' retransmission layer
        like any dropped datagram.
        """
        writer: asyncio.StreamWriter | None = None
        try:
            while True:
                data = await queue.get()
                for attempt in range(self.tcp_retry_limit + 1):
                    try:
                        if writer is None:
                            host, port = self.book.addr_of(node)
                            _, writer = await asyncio.open_connection(host, port)
                        writer.write(_LEN.pack(len(data)) + data)
                        await writer.drain()
                        break
                    except OSError:
                        if writer is not None:
                            writer.close()
                            writer = None
                        if attempt >= self.tcp_retry_limit:
                            self.metrics.on_drop()
                            break
                        self.tcp_reconnects += 1
                        await asyncio.sleep(
                            min(
                                self.tcp_backoff_base * (2**attempt),
                                self.tcp_backoff_cap,
                            )
                        )
        finally:
            if writer is not None:
                writer.close()

    async def _serve_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                header = await reader.readexactly(_LEN.size)
                (length,) = _LEN.unpack(header)
                self._on_frame(await reader.readexactly(length))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:  # server shutdown
            pass
        finally:
            writer.close()


def loopback_book(node_names, host: str = "127.0.0.1") -> AddressBook:
    """An address book with every node on an ephemeral loopback port."""
    return AddressBook(nodes={name: (host, 0) for name in node_names})
