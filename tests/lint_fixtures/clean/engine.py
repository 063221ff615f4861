"""A miniature protocol that satisfies every protolint rule.

Every construct here is the sanctioned counterpart of a plant in
``../violations``: journalled-and-restored durable state plus a declared
``VOLATILE`` set, a seeded RNG, sorted iteration on the emitting path, a
fully validated config, and a message vocabulary that matches both its
handlers and ``docs.md`` and whose every field a handler reads.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Echo:
    nonce: int


@dataclass(frozen=True)
class EchoAck:
    nonce: int


@dataclass
class EchoConfig:
    fanout: int = 2
    period: float = 1.0
    seed: int = 7  # protolint: ignore[config] -- every int is a valid seed

    def __post_init__(self):
        if self.fanout < 1:
            raise ValueError("fanout must be at least 1")
        if self.period <= 0:
            raise ValueError("period must be positive")


class Storage:
    def __init__(self):
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


class EchoNode(Process):
    VOLATILE = {"echoes_seen"}  # statistics, rebuilt from zero

    def __init__(self, pid, config):
        super().__init__(pid)
        self.config = config
        self.rng = random.Random(config.seed)
        self.peers = set()
        self.horizon = 0
        self.echoes_seen = 0

    def on_echo(self, msg, src):
        self.echoes_seen += 1
        self._absorb(msg)
        for peer in sorted(self.peers):  # canonical emission order
            self.send(peer, Echo(msg.nonce + 1))

    def _absorb(self, msg):
        self.horizon = max(self.horizon, msg.nonce)
        self.storage.write("horizon", self.horizon)

    def on_recover(self):
        self.horizon = self.storage.read("horizon", 0)


class EchoRelay(EchoNode):
    """Inherits journalling, ``on_recover`` and ``VOLATILE`` from EchoNode."""

    def on_echoack(self, msg, src):
        self.echoes_seen += 1  # VOLATILE, declared on the base
        self._absorb(msg)  # the base reads msg.nonce, journals the horizon


def client(node):
    node.send("n1", Echo(0))
    node.send("n1", EchoAck(0))
