"""Planted: message fields that no receiver reads (the ``fields`` rule).

``Ballot.voter`` names the vote's own sender, which the handler already
has as ``src``: the self-naming field the engines used to count quorums
by, through which one process could vote as many voters.
``Offer.hint`` is read by nobody at all.  The other fields are read --
``Offer.cmd`` by a helper the handler calls, ``Ballot.rnd`` by a method
of the handler's base class -- and must stay silent.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Ballot:
    rnd: int
    val: str
    voter: str  # planted: names the sender, never read


@dataclass(frozen=True)
class Offer:
    cmd: str
    hint: tuple = ()  # planted: read by nobody


class Process:
    def send(self, dst, msg):
        pass


class TallyBase(Process):
    def _round_of(self, msg):
        return msg.rnd


class Tally(TallyBase):
    def __init__(self):
        self.votes = {}
        self.queue = []

    def on_ballot(self, msg, src):
        self.votes.setdefault(self._round_of(msg), {})[src] = msg.val

    def on_offer(self, msg, src):
        self._enqueue(msg)

    def _enqueue(self, msg):
        self.queue.append(msg.cmd)


def voter(node):
    node.send("n1", Ballot(1, "x", "acc0"))
    node.send("n1", Offer("c"))
