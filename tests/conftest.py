"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.core.generalized import build_generalized
from repro.core.messages import Propose, ProposeBatch
from repro.core.reliability import UNBATCHED
from repro.cstruct.commands import (
    INTERNED,
    AlwaysConflict,
    Command,
    KeyConflict,
    NeverConflict,
)
from repro.cstruct.history import CommandHistory, HistoryTable
from repro.net import codec
from repro.net.transport import MessageTable
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import Batch, IPropose, build_smr
from repro.smr.machine import kv_conflict


def cmd(cid: str, op: str = "put", key: str = "x", arg=None) -> Command:
    """Shorthand command constructor used across the suite."""
    return Command(cid=cid, op=op, key=key, arg=arg)


def wire_frame(*envelopes) -> bytes:
    """The wire frame of these ``(src, dst, msg)`` envelopes, in order:
    what a runtime writes for them when they fit one datagram."""
    return codec.frame([
        codec.route(src, dst) + codec.prefixed(codec.encode(msg)) for src, dst, msg in envelopes
    ])


@pytest.fixture
def emptied_intern_table(monkeypatch):
    """Every lookup finds the command intern table empty.

    No two decodes share an object under this fixture, so a test that
    passes with it does not lean on identity: ``Command`` equality and
    hashing are by value, interning is only an accelerator.
    ``tests/test_command_identity.py`` runs the equality, ordering, codec
    and checker modules with it (``-o usefixtures=emptied_intern_table``).
    """

    class Forgetful(dict):
        def __setitem__(self, key, value) -> None:
            pass

    monkeypatch.setattr(INTERNED, "_young", Forgetful())
    monkeypatch.setattr(INTERNED, "_old", {})


@pytest.fixture
def emptied_message_table(monkeypatch):
    """Every runtime's table of decoded messages is empty at each lookup.

    Every copy of a payload is decoded afresh under this fixture, so a
    test that passes with it does not lean on two deliveries sharing an
    object.  ``tests/test_message_identity.py`` runs the transport and
    codec modules with it (``-o usefixtures=emptied_message_table``).
    """
    lookup = MessageTable.message

    def emptied(self, payload):
        self._young.clear()
        self._old.clear()
        return lookup(self, payload)

    monkeypatch.setattr(MessageTable, "message", emptied)


@pytest.fixture
def forgetful_history_tables(monkeypatch):
    """No decode, ``extend``, ``without`` or encode answers from memory.

    The codec contexts' history tables keep nothing, the derivation memos
    on a history remember nothing and a history is packed afresh for every
    frame, so a test that passes with this does not lean on two equal
    histories being one object: ``CommandHistory`` equality and hashing are
    by value, sharing is only an accelerator.
    ``tests/test_history_identity.py`` runs the history, codec, checker,
    parity and seed-replay modules with it
    (``-o usefixtures=forgetful_history_tables``).
    """
    monkeypatch.setattr(HistoryTable, "_keep", lambda self, hist: None)
    monkeypatch.setattr(CommandHistory, "_remember", lambda self, slot, key, derived: None)
    monkeypatch.setitem(
        codec._PACKERS, CommandHistory, lambda obj: codec._pack_all("h", obj.linear_extension())
    )


@pytest.fixture
def command_eq_calls(monkeypatch):
    """A one-element list counting Python-level ``Command.__eq__`` calls."""
    calls = [0]
    by_value = Command.__eq__

    def counted(self, other):
        calls[0] += 1
        return by_value(self, other)

    monkeypatch.setattr(Command, "__eq__", counted)
    return calls


@pytest.fixture
def always():
    return AlwaysConflict()


@pytest.fixture
def never():
    return NeverConflict()


@pytest.fixture
def by_key():
    return KeyConflict(read_ops=frozenset({"get"}))


# -- both production engines behind one test surface ---------------------------


class Engine:
    """What a test needs to drive either engine's reliability core alike.

    The shared bases (``repro.core.reliability``, ``CheckpointingLearner``)
    are exercised through ``@pytest.mark.parametrize("engine", ENGINES)``
    instead of one copy of each test per engine.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def deploy(self, seed=1, drop_rate=0.0, batching=UNBATCHED, n_learners=2, **layers):
        """``(sim, cluster)`` with a multicoordinated round started.

        *batching* is a ``BatchingConfig``; *layers* are the
        engine-agnostic configs (retransmit, checkpoint, sessions, liveness).
        """
        sim = Simulation(
            seed=seed, network=NetworkConfig(drop_rate=drop_rate), max_events=4_000_000
        )
        if self.name == "instances":
            cluster = build_smr(sim, n_learners=n_learners, batching=batching, **layers)
        else:
            cluster = build_generalized(
                sim,
                CommandHistory.bottom(kv_conflict()),
                n_learners=n_learners,
                batching=batching,
                **layers,
            )
        cluster.start_round(cluster.config.schedule.make_round(coord=0, count=1, rtype=2))
        return sim, cluster

    def is_proposal(self, msg) -> bool:
        """A proposer's first transmission or retransmission."""
        return isinstance(msg, (IPropose, Propose, ProposeBatch))

    def proposed(self, msg) -> tuple:
        """The commands a proposal message carries."""
        if isinstance(msg, IPropose):
            return msg.cmd.cmds if isinstance(msg.cmd, Batch) else (msg.cmd,)
        return getattr(msg, "cmds", None) or (msg.cmd,)


ENGINES = [Engine("instances"), Engine("generalized")]
