"""Topology naming and coordinator index mapping."""

from repro.core.topology import Topology


def test_build_generates_role_prefixed_pids():
    topo = Topology.build(1, 2, 3, 2)
    assert topo.proposers == ("prop0",)
    assert topo.coordinators == ("coord0", "coord1")
    assert topo.acceptors == ("acc0", "acc1", "acc2")
    assert topo.learners == ("learn0", "learn1")


def test_coordinator_index_roundtrip():
    topo = Topology.build(1, 3, 3, 1)
    for index in topo.coordinator_indices:
        assert topo.coordinator_index(topo.coordinator_pid(index)) == index
    # Any other process -- another role, or a stranger -- is no coordinator.
    for pid in ("acc0", "learn0", "intruder"):
        assert topo.coordinator_index(pid) is None


def test_coordinator_pids_sorted_by_index():
    topo = Topology.build(1, 3, 3, 1)
    assert topo.coordinator_pids({2, 0}) == ["coord0", "coord2"]
