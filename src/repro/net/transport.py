"""`NetRuntime`: the asyncio UDP/TCP implementation of the Runtime seam.

One :class:`NetRuntime` is one *node*: an OS process bound to one
UDP+TCP port pair, hosting any number of protocol roles (the
:class:`~repro.core.runtime.Process` subclasses of either engine).  The
same role classes that run on the deterministic simulator run here
unchanged -- the runtime provides the identical surface
(``send``/``schedule``/``clock``/``rng``/``metrics``/``make_storage``,
see :class:`repro.core.runtime.Runtime`).

Transport model (documented in ``docs/transport.md``):

* **UDP datagrams** carry every message whose own frame fits ``mtu``
  bytes.  A frame is a *bundle* of length-prefixed envelopes ``src, dst,
  payload`` (``net/codec.py``): what the node's roles send to one node is
  held and written as one datagram per destination node (more only if
  ``mtu`` needs them), at the end of each receive-pump drain and once per
  loop iteration for sends made outside a drain.  A message is encoded
  once however many envelopes carry it, and a payload is decoded once
  per node however many copies arrive (:class:`MessageTable`).  No
  fragmentation, fire-and-forget.  The engines'
  retransmission layer is what turns this fair-lossy service into
  liveness, exactly as it does under the simulator's ``drop_rate``.
* **Source binding.**  A node sends from its bound socket, so a
  datagram's source address is its book address: a datagram is accepted
  only if every envelope's ``src`` is placed on the node at that address.
* **The receive pump.**  The UDP socket is a raw non-blocking socket
  registered with ``loop.add_reader``; each readiness event drains it
  (up to ``PUMP_BATCH`` datagrams, one ``MAX_DATAGRAM``-byte read each)
  and reads and delivers every datagram inline.  asyncio's datagram
  transport would read one datagram per loop iteration instead.  A
  drain is the runtime's delivery batch: what a role defers
  (:meth:`NetRuntime.defer`) runs once after the drain's last datagram,
  and what the drain's handlers and deferred actions send leaves after
  that, one datagram per destination node.  Outside a drain the rest
  of the loop iteration is the batch, ended by one ``call_soon``.
  The socket's kernel receive buffer is sized (``RCVBUF``) for the
  bursts this produces.  Sends go to the same socket; a send the kernel
  refuses with ``EAGAIN`` queues, and the queue flushes FIFO (later
  datagrams behind it) from a writer callback.  ``add_reader`` and
  ``add_writer`` need a selector event loop -- asyncio's default on
  Linux, and the ledger's ``ProgramLoop``.
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
import re
import socket
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.net.codec import (
    LONE_OVERHEAD,
    MESSAGES,
    CodecContext,
    CodecError,
    bundles,
    decode,
    encode,
    frame,
    prefixed,
    route,
    split,
)
from repro.sim.metrics import Metrics
from repro.sim.storage import StableStorage

_LEN = struct.Struct("!I")

#: bytes above which a message's own frame travels over TCP instead of UDP,
#: and the most one datagram of bundled envelopes may carry
DEFAULT_MTU = 1400

#: Receive-buffer bytes per datagram: no UDP payload is larger.  asyncio's
#: selector transport reads every datagram into a fresh 256 KiB buffer --
#: above glibc's mmap and heap-trim thresholds, where what one datagram
#: costs depends on where the heap's top happens to sit: two stable
#: regimes 10-35 % apart in latency percentiles, picked by memory layout
#: (a docstring edit or the checkout's path moves a deployment from one to
#: the other; measured on the ledger's socket workloads).
MAX_DATAGRAM = 64 * 1024

#: Most datagrams one reader callback drains before it yields to the rest
#: of the loop (timers, TCP, other nodes' sockets); each datagram is a
#: bundle of one or more messages.  The reader stays registered, so
#: whatever is left is read on the next loop iteration.
PUMP_BATCH = 64

#: Requested kernel receive buffer per UDP socket (Linux doubles it and
#: caps it at ``net.core.rmem_max``).  The default 208 KiB holds about 250
#: datagrams of a few small messages each, fewer bundles near ``mtu``:
#: less than a recovery round can put on one learner's socket at once --
#: a phase-2 message per pending instance from every acceptor, produced a
#: pump batch at a time and bundled per acceptor node only up to ``mtu``
#: -- and every message in a datagram the kernel drops there waits for
#: the proposer's next retry.
RCVBUF = 1 << 20

#: Entries in each of a node's two generations of decoded messages
#: (:class:`MessageTable`): a drain's distinct payloads fit many times over.
MESSAGE_GENERATION = 128

DropFilter = Callable[[Hashable, Hashable, Any], bool]

#: A payload whose value holds a list, set or dict: a tag ``"l"``, ``"s"``
#: or ``"d"`` opening an array.  Exact on valid JSON -- a quote inside a
#: string is escaped, so ``["`` never starts inside one.
_MUTABLE = re.compile(rb'\["[lsd]"[,\]]').search


class MessageTable:
    """One decoded object per message payload per node (hash-consing).

    What :class:`~repro.cstruct.commands.InternTable` is to a command,
    for a whole message: the copies of one value a node receives -- the
    identical "2a"s of a coordinator quorum at an acceptor, the identical
    "2b"s of an acceptor quorum at a learner or a coordinator -- are one
    decode and one object.  Keyed by the payload's bytes, so a hit costs
    one hash of them and no parse.

    A miss decodes through this module's ``decode`` (the ledger tracer's
    seam) and refuses, with :class:`CodecError`, a value that is no
    registered message.  A payload whose value holds a list, set or dict
    is decoded but never kept: a handler may mutate what it was handed,
    and a later copy must not see it.  Everything kept is immutable, so an
    eviction or an emptied table costs speed, never correctness.

    Bounded like the command and history tables: two generations of
    ``MESSAGE_GENERATION`` entries, a hit in the old one promoted, the
    old one dropped when the young one fills; and no payload over
    ``largest`` bytes (the runtime's ``mtu``: what came by TCP) is kept.
    The table
    belongs to one runtime, not to the :class:`CodecContext` a loopback
    deployment shares between its nodes: no node may hit on another's
    decode.
    """

    def __init__(self, context: CodecContext, largest: int = DEFAULT_MTU) -> None:
        self.context = context
        self.largest = largest
        self._young: dict[bytes, Any] = {}
        self._old: dict[bytes, Any] = {}

    def __len__(self) -> int:
        return len(self._young) + len(self._old)

    def message(self, payload: bytes) -> Any:
        """The node's instance of the message *payload* encodes."""
        msg = self._young.get(payload)
        if msg is not None:
            return msg
        msg = self._old.get(payload)
        if msg is None:
            msg = decode(payload, self.context)
            if msg.__class__ not in MESSAGES:
                raise CodecError(f"an envelope carrying no message: {msg!r:.200}")
            if len(payload) > self.largest or _MUTABLE(payload) is not None:
                return msg
        if len(self._young) >= MESSAGE_GENERATION:
            self._young, self._old = {}, self._young
        self._young[payload] = msg
        return msg


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
        self.frames_udp = 0  # datagrams written, each a bundle of envelopes
        self.frames_tcp = 0
        self.rejected = 0  # datagrams dropped for an envelope's src
        # Encode once per message, not once per destination: ``broadcast``
        # sends one object to every peer, so the last message's payload
        # field is kept (keyed by identity; holding the object keeps its id
        # its own) and put behind a cached per-(src, dst) route.
        self._encoded_msg: Any = self  # no message is the runtime itself
        self._encoded = b""
        self._routes: dict[tuple[Hashable, Hashable], bytes] = {}
        # Decode once per payload, not once per copy (docs/transport.md,
        # *Decoded messages are canonical instances, per node*).
        self.messages = MessageTable(self.codec_context, largest=mtu)
        # Envelopes held for the next flush, per destination node, in send
        # order; and, per node address, the pids placed there.
        self._outbox: dict[str, list[bytes]] = {}
        self._holding = False  # in a drain or a batch's end: it flushes
        self._ending = False  # a batch's end is queued on the loop
        self._placed: dict[tuple[str, int], frozenset] = {}
        self._taps: list[Callable[[Hashable, Hashable, Any], None]] = []
        self._drop_filters: list[DropFilter] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0 = 0.0
        self._udp: socket.socket | None = None
        # Datagrams the kernel refused with EAGAIN, oldest first: while it
        # is non-empty every datagram queues behind it, so UDP order holds.
        self._sendq: deque[tuple[bytes, tuple[str, int]]] = deque()
        # Actions deferred in the current delivery batch (action -> its
        # process and that process's crash count), in first-deferred order.
        self._deferred: dict[Callable[[], None], tuple[Any, int]] = {}
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

    def defer(self, process: Any, action: Callable[[], None]) -> None:
        """Run *action* once, after the delivery batch that defers it.

        A batch is a receive-pump drain; outside one (TCP frames,
        same-node sends, timers) it is the rest of the loop iteration,
        which ends in one ``call_soon`` (:meth:`_end_batch`).  Either
        way the actions run in first-deferred order, each guarded, and
        one whose process crashed (or crashed and recovered) since is
        skipped; then the outbox is flushed."""
        deferred = self._deferred
        owner = (process, process.crash_count)
        if deferred.get(action) != owner:  # new, or deferred by a past life
            deferred.pop(action, None)
            deferred[action] = owner
        if not (self._holding or self._ending):
            self._ending = True
            self._loop.call_soon(self._end_batch)

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
            self._encoded_msg, self._encoded = msg, prefixed(encode(msg))
        opened = self._routes.get((src, dst))
        if opened is None:
            opened = self._routes[src, dst] = route(str(src), str(dst))
        envelope = opened + self._encoded
        size = LONE_OVERHEAD + len(envelope)  # its frame's, were it alone
        self.metrics.count_bytes(src, dst, msg, size)
        if size > self.mtu:
            self.frames_tcp += 1
            self._send_tcp(dst_node, frame([envelope]))
            return
        held = self._outbox.get(dst_node)
        if held is not None:
            held.append(envelope)
            return
        if not (self._holding or self._ending):
            self._ending = True  # flushes before the loop next polls
            self._loop.call_soon(self._end_batch)
        self._outbox[dst_node] = [envelope]

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
            udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                udp.setblocking(False)
                udp.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF)
                udp.bind((host, port))
                actual = udp.getsockname()[1]
                server = await asyncio.start_server(self._serve_tcp, host, actual)
            except OSError:
                udp.close()
                if port != 0:
                    raise
                continue  # ephemeral UDP port taken on the TCP side: retry
            break
        else:  # pragma: no cover - 32 collisions in a row
            raise OSError(f"could not bind a UDP+TCP port pair for {self.node}")
        self._udp = udp
        self._loop.add_reader(udp.fileno(), self._pump)
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
            # Unregister before closing: the fd number is free for reuse
            # the moment it is closed.
            self._loop.remove_reader(self._udp.fileno())
            self._loop.remove_writer(self._udp.fileno())
            self._outbox.clear()  # a flush still pending finds nothing
            self._sendq.clear()
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

    def _read(self, data: bytes) -> list:
        """One frame's envelopes, flat: ``[src, dst, msg, src, dst, msg, ...]``.

        Every field is checked before this returns: the frame's lengths
        and pids (:func:`~repro.net.codec.split`) and each payload's
        message (:class:`MessageTable`); anything else raises
        :class:`CodecError`."""
        fields = split(data)
        message = self.messages.message
        for i in range(2, len(fields), 3):
            fields[i] = message(fields[i])
        return fields

    def _on_frame(self, data: bytes, source: tuple[str, int] | None = None) -> None:
        """Read one frame and deliver its envelopes inline, in order.

        The frame is checked whole before any of it is delivered: an
        unreadable one (:class:`CodecError`) is recorded for
        :meth:`wait_until`, and a datagram from *source* whose envelopes
        are not all from pids the book places on the node at *source* is
        dropped and counted in :attr:`rejected`.  A handler's exception is
        recorded and the rest of the bundle is still delivered; nothing
        reaches the event loop."""
        try:
            bundle = self._read(data)
        except Exception as exc:  # noqa: BLE001 - surfaced via wait_until
            self.errors.append(exc)
            return
        if source is not None:
            placed = self._placed.get(source) or self._placed_at(source)
            if not placed.issuperset(bundle[0::3]):
                self.rejected += 1
                return
        items = iter(bundle)
        for src, dst, msg in zip(items, items, items):
            try:
                self._deliver(src, dst, msg)
            except Exception as exc:  # noqa: BLE001 - surfaced via wait_until
                self.errors.append(exc)

    def _placed_at(self, source: tuple[str, int]) -> frozenset:
        """The pids the book places on the node at *source*; none for a
        stranger.  Kept per node address: a node binds its book address
        once, before it sends (:meth:`start`), and placement is fixed."""
        for name, addr in self.book.nodes.items():
            if tuple(addr) == source:
                placed = self._placed[source] = frozenset(self.book.pids_on(name))
                return placed
        return frozenset()

    def _pump(self) -> None:
        """Reader callback: drain the UDP socket, up to ``PUMP_BATCH``,
        then end the batch the drain is (:meth:`_run_deferred`).  What
        this loop iteration deferred before the drain joins it."""
        udp = self._udp
        self._holding = True
        try:
            for _ in range(PUMP_BATCH):
                try:
                    data, source = udp.recvfrom(MAX_DATAGRAM)
                except BlockingIOError:
                    break
                except OSError:  # e.g. a queued ICMP error: platform noise
                    continue
                self._on_frame(data, source)
        finally:
            self._run_deferred()

    def _end_batch(self) -> None:
        """The ``call_soon`` that ends a batch outside a drain: the rest
        of the loop iteration in which something was deferred or sent."""
        self._ending = False
        self._holding = True
        self._run_deferred()

    def _run_deferred(self) -> None:
        """Run the batch's deferred actions, each guarded like a frame and
        skipped if its process crashed since deferring it, then flush
        what the batch sent.  What the actions defer is the next batch."""
        deferred, self._deferred = self._deferred, {}
        try:
            for action, (process, crashes) in deferred.items():
                if process.alive and process.crash_count == crashes:
                    self._guarded(action)
        finally:
            self._holding = False
            if self._deferred and not self._ending:
                self._ending = True
                self._loop.call_soon(self._end_batch)
            self._flush()

    def _flush(self) -> None:
        """Write the held envelopes: per destination node, in send order,
        bundled into as few datagrams of at most ``mtu`` bytes as fit them.
        After :meth:`stop` there is no socket: what is held is dropped."""
        outbox = self._outbox
        if not outbox:
            return
        if self._udp is not None:
            for node, held in outbox.items():
                addr = self.book.addr_of(node)
                for data in bundles(held, self.mtu):
                    self.frames_udp += 1
                    self._send_udp(data, addr)
        outbox.clear()

    def _send_udp(self, data: bytes, addr: tuple[str, int]) -> None:
        if self._sendq:
            self._sendq.append((data, addr))
            return
        try:
            self._udp.sendto(data, addr)
        except BlockingIOError:
            self._sendq.append((data, addr))
            self._loop.add_writer(self._udp.fileno(), self._flush_udp)
        except OSError:  # the datagram is lost, as any datagram may be
            pass

    def _flush_udp(self) -> None:
        """Writer callback: send the queued datagrams in order until the
        kernel refuses again; unregister once the queue is empty."""
        queue = self._sendq
        while queue:
            data, addr = queue[0]
            try:
                self._udp.sendto(data, addr)
            except BlockingIOError:
                return
            except OSError:
                pass
            queue.popleft()
        self._loop.remove_writer(self._udp.fileno())

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
