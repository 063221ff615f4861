"""Liveness under message loss: the multi-instance reliability layer.

The paper's link model is fair-lossy plus retransmission (Section 2.1.1).
These tests cover each re-driver of the reliability layer in isolation --
proposer retransmission with backoff, coordinator gossip and observed-set
journalling, learner gap detection and catch-up -- and then end-to-end
delivery on networks dropping 30% and 50% of all messages.
"""

import pytest

from repro.core.liveness import LivenessConfig
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import Simulation
from repro.smr.instances import (
    BatchingConfig,
    I2b,
    IDecided,
    IPropose,
    RetransmitConfig,
    build_smr,
)
from tests.conftest import ENGINES, cmd


def deploy(seed=1, drop_rate=0.0, retransmit=None, liveness=None, **kwargs):
    sim = Simulation(
        seed=seed,
        network=NetworkConfig(drop_rate=drop_rate),
        max_events=4_000_000,
    )
    cluster = build_smr(sim, liveness=liveness, retransmit=retransmit, **kwargs)
    rnd = cluster.config.schedule.make_round(coord=0, count=1, rtype=2)
    cluster.start_round(rnd)
    return sim, cluster


def make_cmds(n):
    return [cmd(f"c{i}", "put", f"k{i}", i) for i in range(n)]


# -- config validation (mirrors the NetworkConfig range checks) --------------


def test_retransmit_config_validation():
    RetransmitConfig()  # defaults are valid
    with pytest.raises(ValueError):
        RetransmitConfig(retry_interval=0.0)
    with pytest.raises(ValueError):
        RetransmitConfig(backoff=0.5)
    with pytest.raises(ValueError):
        RetransmitConfig(retry_interval=10.0, max_interval=5.0)
    with pytest.raises(ValueError):
        RetransmitConfig(gossip_interval=-1.0)
    with pytest.raises(ValueError):
        RetransmitConfig(catchup_interval=0.0)


def test_liveness_config_validation():
    LivenessConfig()  # defaults are valid
    with pytest.raises(ValueError):
        LivenessConfig(heartbeat_period=0.0)
    with pytest.raises(ValueError):
        LivenessConfig(check_period=-1.0)
    with pytest.raises(ValueError):
        LivenessConfig(stuck_timeout=0.0)
    with pytest.raises(ValueError):
        LivenessConfig(heartbeat_period=4.0, suspect_timeout=4.0)
    with pytest.raises(ValueError):
        LivenessConfig(recovery_rtype=7)


# -- proposer retransmission --------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES, ids=repr)
def test_proposer_retransmits_with_exponential_backoff(engine):
    retransmit = RetransmitConfig(
        retry_interval=2.0, backoff=2.0, max_interval=16.0,
        gossip_interval=500.0, catchup_interval=500.0,
    )
    sim, cluster = engine.deploy(retransmit=retransmit, n_learners=1)
    sim.run(until=10)

    send_times = []

    def swallow_proposals(src, dst, msg):
        if engine.is_proposal(msg):
            if dst == cluster.config.topology.coordinators[0]:
                send_times.append(sim.clock)
            return True
        return False

    sim.network.add_drop_filter(swallow_proposals)
    command = make_cmds(1)[0]
    cluster.propose(command, delay=1.0, proposer=0)
    sim.run(until=sim.clock + 60.0)

    proposer = cluster.proposers[0]
    assert proposer.retransmissions >= 4
    assert command in proposer._unacked
    # Gaps between attempts follow the backoff schedule, capped at
    # max_interval: 2, 4, 8, 16, 16...
    gaps = [b - a for a, b in zip(send_times, send_times[1:])]
    assert gaps[:4] == [2.0, 4.0, 8.0, 16.0]
    assert all(gap == 16.0 for gap in gaps[4:])

    # Heal the network: the next retry goes through and the ack retires
    # the value from the unacked buffer.
    sim.network.remove_drop_filter(swallow_proposals)
    assert sim.run_until(
        lambda: cluster.everyone_delivered([command]), timeout=sim.clock + 100.0
    )
    sim.run(until=sim.clock + 40.0)
    assert proposer._unacked == {}


def test_unacked_values_survive_proposer_crash():
    retransmit = RetransmitConfig(retry_interval=3.0, gossip_interval=500.0)
    sim, cluster = deploy(retransmit=retransmit, n_learners=1)
    sim.run(until=10)

    # The learner hears nothing, so no ack can retire the value.
    def blind_learner(src, dst, msg):
        return dst == cluster.config.topology.learners[0] and isinstance(
            msg, (I2b, IDecided)
        )

    sim.network.add_drop_filter(blind_learner)
    command = make_cmds(1)[0]
    cluster.propose(command, delay=1.0, proposer=0)
    sim.run(until=20)
    proposer = cluster.proposers[0]
    assert command in proposer._unacked

    proposer.crash()
    assert proposer._unacked == {}  # volatile state lost
    proposer.recover()  # journal re-ships and re-arms the retry timer
    assert command in proposer._unacked

    sim.network.remove_drop_filter(blind_learner)
    assert cluster.run_until_delivered([command], timeout=sim.clock + 200.0)
    sim.run(until=sim.clock + 40.0)
    assert proposer._unacked == {}


def test_propose_to_crashed_proposer_is_a_lost_message():
    """A dead proposer must not half-register an unacked value.

    Registering while crashed would journal a value whose retry timer
    never re-arms: recovery would see it already tracked, skip the
    re-ship, and strand it forever.  The crash model instead drops the
    client message outright; resubmission is the client's re-driver.
    """
    sim, cluster = deploy(retransmit=RetransmitConfig())
    sim.run(until=10)
    proposer = cluster.proposers[0]
    proposer.crash()
    command = make_cmds(1)[0]
    proposer.propose(command)
    assert proposer._unacked == {}
    assert proposer.storage.read("unacked", ()) == ()
    proposer.recover()
    assert proposer._unacked == {}  # nothing stranded half-registered


def test_no_retransmissions_on_a_reliable_network():
    sim, cluster = deploy(retransmit=RetransmitConfig(), liveness=LivenessConfig())
    commands = make_cmds(6)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 2 * i)
    assert cluster.run_until_delivered(commands, timeout=2000)
    assert all(p.retransmissions == 0 for p in cluster.proposers)


# -- learner gap detection and catch-up ---------------------------------------


def test_learner_gap_filled_from_acceptor_vote_journal():
    # Retry/gossip silenced: only the gap-driven catch-up path can heal.
    retransmit = RetransmitConfig(
        retry_interval=500.0, max_interval=500.0,
        gossip_interval=500.0, catchup_interval=2.0,
    )
    sim, cluster = deploy(retransmit=retransmit, n_learners=1)
    sim.run(until=10)
    learner = cluster.learners[0]

    # The learner misses every I2b quorum below the top instance.
    def drop_low_instances(src, dst, msg):
        return (
            dst == learner.pid and isinstance(msg, I2b) and msg.instance < 3
        )

    blinder = sim.network.add_drop_filter(drop_low_instances)
    commands = make_cmds(4)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=1.0 + 3 * i, proposer=0)
    sim.run(until=sim.clock + 20.0)
    # All four instances decided at the coordinators; the learner only saw
    # the top one, so instances 0-2 are detected as gaps.
    assert max(len(c.decided) for c in cluster.coordinators) == 4
    assert learner.decided.keys() == {3}
    assert learner.gaps() == [0, 1, 2]
    assert learner.delivered == []  # nothing deliverable past the gap

    sim.network.remove_drop_filter(blinder)
    assert cluster.run_until_delivered(commands, timeout=sim.clock + 100.0)
    assert learner.catchup_requests >= 1
    assert learner.delivered == commands
    assert learner.gaps() == []


def test_blind_learner_caught_up_by_peers_and_decision_reannounce():
    """A learner that never receives a single I2b still converges.

    The proposer keeps retransmitting until *every* learner acks; a
    coordinator answers the retransmission with IDecided (top instance),
    which opens gaps that peer learners fill via catch-up -- all without
    any I2b reaching the blind learner.
    """
    retransmit = RetransmitConfig(retry_interval=3.0, catchup_interval=3.0)
    sim, cluster = deploy(
        retransmit=retransmit, liveness=LivenessConfig(), n_learners=2, seed=3
    )
    blind = cluster.learners[1]
    sim.network.add_drop_filter(
        lambda src, dst, msg: dst == blind.pid and isinstance(msg, I2b)
    )
    commands = make_cmds(6)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + 2 * i)
    assert cluster.run_until_delivered(commands, timeout=3000)
    assert blind.delivered == cluster.learners[0].delivered


def test_recovered_learner_catches_up_without_new_traffic():
    """Decisions made during a learner outage reach it after recovery.

    The dead learner never acked them, so the proposers are still
    retrying; the resulting IDecided re-announcements raise its top
    decided instance and the gap poll fills the rest -- no new client
    traffic required.
    """
    sim, cluster = deploy(seed=2, retransmit=RetransmitConfig(), liveness=LivenessConfig(), n_learners=2)
    commands = make_cmds(8)
    for i, command in enumerate(commands[:4]):
        cluster.propose(command, delay=10.0 + i)
    sim.run(until=20)
    learner = cluster.learners[1]
    assert all(learner.has_delivered(c) for c in commands[:4])
    learner.crash()
    for i, command in enumerate(commands[4:]):
        cluster.propose(command, delay=1.0 + i)  # decided while it is down
    sim.run(until=sim.clock + 15.0)
    assert all(cluster.learners[0].has_delivered(c) for c in commands)
    assert not any(learner.has_delivered(c) for c in commands[4:])
    learner.recover()  # no further client traffic ever
    assert sim.run_until(
        lambda: all(learner.has_delivered(c) for c in commands),
        timeout=sim.clock + 2_000.0,
    )
    assert learner.delivered == cluster.learners[0].delivered


# -- coordinator gossip and crash-recovery ------------------------------------


def test_observed_set_journalled_across_coordinator_crash():
    sim, cluster = deploy(retransmit=RetransmitConfig())
    sim.run(until=10)
    coordinator = cluster.coordinators[2]
    command = make_cmds(1)[0]
    coordinator.on_ipropose(IPropose(command), "prop0")
    assert command in coordinator._observed

    coordinator.crash()
    assert coordinator._observed == {}  # volatile state lost with the crash
    coordinator.recover()
    assert command in coordinator._observed  # reloaded from stable storage


def test_command_seen_only_by_crashed_coordinator_is_recovered():
    """Observed-journal + gossip + stuck detection re-drive a lost command.

    The command reaches only coordinator 2, whose outbound links are cut
    before it can drive an instance; the coordinator then crashes.  On
    recovery the journalled observed set is gossiped to the leader, whose
    stuck detection re-proposes the command.  (Proposer retransmission is
    silenced so that only this path can deliver.)
    """
    retransmit = RetransmitConfig(
        retry_interval=10_000.0, max_interval=10_000.0,
        gossip_interval=4.0, catchup_interval=4.0,
    )
    liveness = LivenessConfig(stuck_timeout=8.0, check_period=4.0)
    sim, cluster = deploy(retransmit=retransmit, liveness=liveness)
    sim.run(until=10)
    topology = cluster.config.topology
    stranded_pid = topology.coordinators[2]

    # The proposal reaches only coordinator 2...
    proposal_filter = sim.network.add_drop_filter(
        lambda src, dst, msg: isinstance(msg, IPropose) and dst != stranded_pid
    )
    # ...whose outbound links are cut, so it cannot drive the instance.
    for other in (*topology.acceptors, *topology.coordinators):
        if other != stranded_pid:
            sim.network.block(stranded_pid, other)

    command = make_cmds(1)[0]
    cluster.propose(command, delay=1.0, proposer=0)
    sim.run(until=sim.clock + 3.0)
    stranded = cluster.coordinators[2]
    assert command in stranded._observed
    assert not any(command in c._observed for c in cluster.coordinators[:2])

    stranded.crash()
    sim.network.heal()
    sim.network.remove_drop_filter(proposal_filter)
    stranded.recover()
    assert cluster.run_until_delivered([command], timeout=sim.clock + 300.0)


def test_coordinators_missing_i2b_quorum_converge_via_2a_reannounce():
    """Acceptors answer a re-announced 2a with their journalled vote.

    If every coordinator misses an instance's I2b quorum (the learners can
    still decide it from their own copies), the coordinators would
    otherwise re-announce the 2a forever -- the acceptors' vote guard
    blocks a re-accept and nothing re-sent the vote -- leaving _sent and
    the batching pipeline slot occupied for good.  With retry and
    catch-up silenced, convergence here proves the re-announce/vote-echo
    path alone heals the coordinators.
    """
    retransmit = RetransmitConfig(
        retry_interval=10_000.0, max_interval=10_000.0,
        gossip_interval=2.0, catchup_interval=10_000.0,
    )
    sim, cluster = deploy(
        retransmit=retransmit,
        batching=BatchingConfig(max_batch=1, flush_interval=1.0, pipeline_depth=1),
    )
    sim.run(until=10)
    coordinator_pids = set(cluster.config.topology.coordinators)
    blackout = sim.network.add_drop_filter(
        lambda src, dst, msg: isinstance(msg, I2b) and dst in coordinator_pids
    )
    first, second = make_cmds(2)
    cluster.propose(first, delay=1.0, proposer=0)
    sim.run(until=sim.clock + 10.0)
    # The learner decided (and delivered) instance 0; no coordinator did.
    assert cluster.learners[0].delivered == [first]
    assert all(0 not in c.decided for c in cluster.coordinators)

    sim.network.remove_drop_filter(blackout)
    cluster.propose(second, delay=1.0, proposer=0)
    assert cluster.run_until_delivered([first, second], timeout=sim.clock + 200.0)
    sim.run(until=sim.clock + 20.0)
    # The vote echo let every coordinator record the decision and retire
    # its 2a state: the re-announce loop has terminated.
    assert all(0 in c.decided for c in cluster.coordinators)
    assert all(c._sent == {} for c in cluster.coordinators)
    assert all(c.assigned == {} for c in cluster.coordinators)


def test_stale_observed_entry_retired_by_gossip_answer():
    """A coordinator that slept through a decision stops gossiping it.

    The coordinator observes a command, crashes, and recovers after the
    command was decided: its reloaded observed set is stale (it never saw
    the decision).  Peers answering its gossip with IDecided let it retire
    the entry instead of re-broadcasting it forever.
    """
    retransmit = RetransmitConfig(
        retry_interval=10_000.0, max_interval=10_000.0,
        gossip_interval=2.0, catchup_interval=2.0,
    )
    sim, cluster = deploy(retransmit=retransmit)
    sim.run(until=10)
    sleeper = cluster.coordinators[2]
    command = make_cmds(1)[0]
    cluster.propose(command, delay=1.0, proposer=0)
    # Crash right after the proposal reaches the coordinators, before the
    # decision; the remaining coordinator quorum decides without it.
    sim.run(until=sim.clock + 2.5)
    assert command in sleeper._observed
    sleeper.crash()
    assert cluster.run_until_delivered([command], timeout=sim.clock + 100.0)

    sleeper.recover()
    assert command in sleeper._observed  # stale journal entry reloaded
    sim.run(until=sim.clock + 10.0)  # a couple of gossip rounds
    assert command not in sleeper._observed  # retired via peers' IDecided
    assert command in sleeper.decided.values()


# -- decided-state retirement (bounded coordinator/learner state) -------------


def test_inflight_state_retired_after_decisions():
    sim, cluster = deploy(
        retransmit=RetransmitConfig(),
        liveness=LivenessConfig(),
        batching=BatchingConfig(max_batch=4, flush_interval=2.0),
    )
    commands = make_cmds(16)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=5.0 + i)
    assert cluster.run_until_delivered(commands, timeout=3000)
    sim.run(until=sim.clock + 60.0)  # let trailing acks/gossip settle
    for coordinator in cluster.coordinators:
        assert coordinator.assigned == {}
        assert coordinator._assigned_cmds == set()
        assert coordinator._sent == {}  # decided instances retired
        assert coordinator._sent_values == {}
        assert coordinator._p2b == {}  # vote buffers released on decision
        assert coordinator._observed == {}  # everything proposed was served
    for learner in cluster.learners:
        assert learner._votes == {}
    for acceptor in cluster.acceptors:
        # Late third-coordinator endorsements must not rebuild the released
        # quorum buffers, or acceptor state grows with decided history.
        assert acceptor._p2a == {}
        assert acceptor._collided == set()


def test_race_losing_command_is_redriven_without_a_round_change():
    """Retiring _sent entries unblocks requeued race losers.

    In the seed, a command whose 2a lost its instance race stayed shadowed
    by its own stale ``_sent`` entry: the requeue hit the already-driving
    check and dropped the command until the next round change.  After the
    fix, feeding the coordinator an I2b quorum deciding *another* value
    for its instance must leave its own command re-assigned to a fresh
    instance.
    """
    sim, cluster = deploy()
    sim.run(until=10)
    coordinator = cluster.coordinators[0]
    rnd = coordinator.crnd
    own, rival = make_cmds(2)
    coordinator.on_ipropose(IPropose(own), "prop0")
    assert coordinator.assigned[0].cmd == own  # instance 0 claimed

    # A rival coordinator quorum decided instance 0 with another value.
    for acceptor in cluster.config.topology.acceptors[:2]:
        coordinator.on_i2b(I2b(rnd, 0, rival, acceptor), acceptor)
    assert coordinator.decided[0] == rival
    assert coordinator.reassignments == 1
    # The loser was re-driven into a fresh instance, not silently dropped
    # (the seed's stale _sent entry made the requeue a no-op).
    assert coordinator.assigned[1].cmd == own
    assert coordinator._sent[1] == own
    assert 0 not in coordinator._sent  # decided instance retired


# -- end-to-end delivery under random loss ------------------------------------


@pytest.mark.parametrize("drop_rate", [0.3, 0.5])
@pytest.mark.parametrize(
    "batching",
    [None, BatchingConfig(max_batch=4, flush_interval=2.0, pipeline_depth=2)],
    ids=["unbatched", "batched"],
)
def test_all_commands_delivered_under_loss(drop_rate, batching):
    for seed in (1, 2):
        sim, cluster = deploy(
            seed=seed,
            drop_rate=drop_rate,
            retransmit=RetransmitConfig(),
            liveness=LivenessConfig(),
            batching=batching,
            n_proposers=2,
            n_learners=2,
        )
        commands = make_cmds(24)
        for i, command in enumerate(commands):
            cluster.propose(command, delay=10.0 + 3.0 * (i // 4))
        assert cluster.run_until_delivered(commands, timeout=20_000), (
            f"undelivered commands at drop_rate={drop_rate}, seed={seed}"
        )
        first, second = cluster.delivery_orders()
        assert first == second  # identical total order at both learners
        assert sorted(first, key=str) == sorted(commands, key=str)


def test_client_resubmission_backstop():
    """Client-level retry delivers even with the engine's layer off."""
    from repro.smr.client import Client
    from repro.smr.machine import KVStore
    from repro.smr.replica import Replica

    with pytest.raises(ValueError):
        Client("bad", cluster=None, retry_interval=0.0)
    with pytest.raises(ValueError):
        Client("bad", cluster=None, max_retries=-1)

    sim, cluster = deploy()  # no retransmit, no liveness: nothing re-drives
    sim.run(until=10)
    replica = Replica(cluster.learners[0], KVStore())
    client = Client("cl", cluster, retry_interval=5.0)
    client.watch_replica(replica)

    swallowed = []

    def swallow_first_attempt(src, dst, msg):
        if isinstance(msg, IPropose) and len(swallowed) < 3:
            swallowed.append(msg)
            return True
        return False

    sim.network.add_drop_filter(swallow_first_attempt)
    command = cmd("cl0", "put", "k", 1)
    client.issue(command, delay=1.0)
    # The first attempt vanished on every link; the watchdog resubmits.
    assert cluster.run_until_delivered([command], timeout=sim.clock + 200.0)
    assert client.retries[command] >= 1
    sim.run(until=sim.clock + 20.0)
    assert client.all_completed()


def test_seed_engine_strands_commands_under_loss():
    """Control: without the reliability layer the same run stalls."""
    sim, cluster = deploy(
        seed=1, drop_rate=0.3, retransmit=None, liveness=LivenessConfig(),
        n_proposers=2, n_learners=2,
    )
    commands = make_cmds(24)
    for i, command in enumerate(commands):
        cluster.propose(command, delay=10.0 + 3.0 * (i // 4))
    assert not cluster.run_until_delivered(commands, timeout=5_000)
