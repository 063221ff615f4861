"""Planted: un-journalled state mutated by a handler *below* an in-repo base.

The role classes inherit their reliability machinery (``on_recover``, the
journalled registries, ``VOLATILE`` declarations) from shared bases such
as ``repro.core.reliability.ReliableProposer``.  A rule that analysed one
class at a time would skip ``WindowedProposer`` entirely -- it defines no
``on_recover`` of its own -- and miss the bug planted in its handler.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Ack:
    item: str


class Storage:
    """Stand-in for repro.sim.storage.StableStorage."""

    def __init__(self) -> None:
        self.data = {}

    def write(self, key, value):
        self.data[key] = value

    def read(self, key, default=None):
        return self.data.get(key, default)


class Process:
    def __init__(self, pid):
        self.pid = pid
        self.storage = Storage()

    def send(self, dst, msg):
        pass


class ProposerBase(Process):
    """Miniature shared base: journals and restores its unacked registry."""

    VOLATILE = {"retransmissions"}

    def __init__(self, pid):
        super().__init__(pid)
        self._unacked = {}
        self.retransmissions = 0

    def _retire(self, item):
        self._unacked.pop(item, None)
        self.storage.write("unacked", tuple(self._unacked))

    def on_recover(self):
        self._unacked = dict.fromkeys(self.storage.read("unacked", ()))


class WindowedProposer(ProposerBase):
    def __init__(self, pid):
        super().__init__(pid)
        self._window = 0

    def on_ack(self, msg, src):
        self._retire(msg.item)  # fine: the base journals and restores it
        self.retransmissions += 1  # fine: declared VOLATILE on the base
        self._window += 1  # BUG: never journalled, restored or declared


def client(node):
    node.send("p0", Ack("x"))
