"""A vote counts once per sending process, and only a coordinator's 2a counts.

Quorums are counted by the envelope's ``src``: no message names its own
sender, so one process cannot fill a quorum by sending several votes,
and a 2a from a process that is not a coordinator is dropped.  Each case
below is one ``"intruder"`` process delivering what used to be votes of
several self-named voters.  Checking *which role* ``src`` plays (an
intruder voting next to one real acceptor) is a separate admission check
and is not covered here.
"""

import pytest

from repro.core.generalized import build_generalized
from repro.core.messages import Phase1b, Phase2a, Phase2aDelta, Phase2b, Phase2bDelta
from repro.core.multicoordinated import build_consensus
from repro.cstruct.history import CommandHistory
from repro.sim.scheduler import Simulation
from repro.smr.instances import I1b, I2a, I2b, build_smr
from repro.smr.machine import kv_conflict
from tests.conftest import cmd

INTRUDER = "intruder"
EVIL = cmd("evil", "put", "x", 666)
GHOSTS = 2  # a classic quorum of three acceptors


def _bottom():
    return CommandHistory.bottom(kv_conflict())


def _classic_round(cluster, rtype=1):
    return cluster.config.schedule.make_round(coord=0, count=1, rtype=rtype)


def _sent_by(sim, pid):
    """Every send *pid* makes from now on (observed, never dropped)."""
    sent = []

    def observe(src, dst, msg):
        if src == pid:
            sent.append((dst, msg))
        return False

    sim.network.add_drop_filter(observe)
    return sent


# -- learners -------------------------------------------------------------------------


def test_one_sender_is_one_vote_at_the_instances_learner():
    sim = Simulation(seed=1)
    cluster = build_smr(sim, n_learners=2)
    rnd = _classic_round(cluster, rtype=2)
    cluster.start_round(rnd)
    sim.run(until=10)
    learner = cluster.learners[0]
    for _ in range(GHOSTS):
        learner.deliver(I2b(rnd, 0, EVIL), INTRUDER)
    assert 0 not in learner.decided
    assert not learner.has_delivered(EVIL)


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_one_sender_is_one_vote_at_the_generalized_learner(kind):
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=_bottom())
    rnd = _classic_round(cluster)
    learner = cluster.learners[0]
    evil = _bottom().extend([EVIL])
    for _ in range(GHOSTS):
        if kind == "full":
            learner.deliver(Phase2b(rnd, evil), INTRUDER)
        else:
            # A full bottom vote starts the stream; the delta extends it.
            learner.deliver(Phase2b(rnd, _bottom()), INTRUDER)
            learner.deliver(Phase2bDelta(rnd, 0, 0, (EVIL,)), INTRUDER)
    assert not learner.has_delivered(EVIL)
    assert not learner.learned.contains(EVIL)


# -- coordinators: a 1b quorum -----------------------------------------------------------


def test_one_sender_is_one_1b_at_the_consensus_coordinator():
    sim = Simulation(seed=1)
    cluster = build_consensus(sim)
    earlier = _classic_round(cluster)
    rnd = cluster.config.schedule.make_round(coord=0, count=2, rtype=1)
    coordinator = cluster.coordinators[0]
    for _ in range(GHOSTS):
        coordinator.deliver(Phase1b(rnd, earlier, EVIL), INTRUDER)
    assert coordinator.crnd == rnd
    assert coordinator.cval is None


def test_one_sender_is_one_1b_at_the_generalized_coordinator():
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=_bottom())
    earlier = _classic_round(cluster)
    rnd = cluster.config.schedule.make_round(coord=0, count=2, rtype=1)
    coordinator = cluster.coordinators[0]
    for _ in range(GHOSTS):
        coordinator.deliver(Phase1b(rnd, earlier, _bottom().extend([EVIL])), INTRUDER)
    assert coordinator.crnd == rnd
    assert coordinator.cval is None


def test_one_sender_is_one_1b_at_the_instances_coordinator():
    sim = Simulation(seed=1)
    cluster = build_smr(sim)
    earlier = _classic_round(cluster)
    rnd = cluster.config.schedule.make_round(coord=0, count=2, rtype=1)
    coordinator = cluster.coordinators[0]
    sent = _sent_by(sim, coordinator.pid)
    for _ in range(GHOSTS):
        coordinator.deliver(I1b(rnd, ((0, earlier, EVIL),)), INTRUDER)
    assert coordinator.crnd == rnd
    assert not coordinator.phase1_done
    assert not [msg for _, msg in sent if isinstance(msg, I2a)]


# -- a 2a from a non-coordinator ----------------------------------------------------------


def test_a_2a_from_a_non_coordinator_is_not_endorsed_by_instances_coordinators():
    """Coordinators forward a peer's assignment to the acceptors; a
    stranger's is no peer's, so no coordquorum forms around it."""
    sim = Simulation(seed=1)
    cluster = build_smr(sim)
    rnd = _classic_round(cluster, rtype=2)
    cluster.start_round(rnd)
    sim.run(until=10)
    for coordinator in cluster.coordinators[1:]:
        coordinator.deliver(I2a(rnd, 0, EVIL), INTRUDER)
    sim.run(until=30)
    assert all(not learner.has_delivered(EVIL) for learner in cluster.learners)
    assert all(0 not in acceptor.votes for acceptor in cluster.acceptors)


def _acceptor_state(acceptor, names):
    return {name: repr(getattr(acceptor, name)) for name in names}


def test_a_2a_from_a_non_coordinator_is_dropped_by_the_consensus_acceptor():
    sim = Simulation(seed=1)
    cluster = build_consensus(sim)
    acceptor = cluster.acceptors[0]
    names = ("rnd", "vrnd", "vval", "_p2a", "_any_open", "_collided")
    before = _acceptor_state(acceptor, names)
    sent = _sent_by(sim, acceptor.pid)
    acceptor.deliver(Phase2a(_classic_round(cluster), EVIL), INTRUDER)
    assert _acceptor_state(acceptor, names) == before
    assert sent == []


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_a_2a_from_a_non_coordinator_is_dropped_by_the_generalized_acceptor(kind):
    sim = Simulation(seed=1)
    cluster = build_generalized(sim, bottom=_bottom())
    acceptor = cluster.acceptors[0]
    rnd = _classic_round(cluster)
    if kind == "full":
        msg = Phase2a(rnd, _bottom().extend([EVIL]))
    else:
        msg = Phase2aDelta(rnd, 0, 0, (EVIL,))
    names = ("rnd", "vrnd", "vval", "_p2a", "_2a_mirror", "_resync_pending")
    before = _acceptor_state(acceptor, names)
    sent = _sent_by(sim, acceptor.pid)
    acceptor.deliver(msg, INTRUDER)
    assert _acceptor_state(acceptor, names) == before
    assert sent == []


def test_a_2a_from_a_non_coordinator_is_dropped_by_the_instances_acceptor():
    sim = Simulation(seed=1)
    cluster = build_smr(sim)
    acceptor = cluster.acceptors[0]
    names = ("rnd", "votes", "_p2a", "_collided")
    before = _acceptor_state(acceptor, names)
    sent = _sent_by(sim, acceptor.pid)
    acceptor.deliver(I2a(_classic_round(cluster), 0, EVIL), INTRUDER)
    assert _acceptor_state(acceptor, names) == before
    assert sent == []
