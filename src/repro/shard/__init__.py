"""Sharded multi-group consensus: key-hashed engine groups + merge group.

The horizontal-scale layer: N independent consensus groups sequence
disjoint-key traffic in parallel (near-linear aggregate throughput in
group count), while cross-shard commands are ordered once by a
designated generalized *merge group* and spliced into every owning
group's stream at router-stamped barriers.  See the package modules:

* :mod:`repro.cstruct.sharding` -- the key→group hash and key-set
  conflict relation (deployment-independent).
* :mod:`repro.shard.router` -- driver-side dispatch, barrier stamping.
* :mod:`repro.shard.replica` -- per-site execution: group total order
  plus merge-closure splices at barriers.
* :mod:`repro.shard.deploy` -- the config list, the backend-agnostic
  wiring (:class:`ShardedGroups`) and the simulator deployment.
* :mod:`repro.shard.net` -- the same wiring on
  :class:`repro.net.cluster.Deployment` (loopback sockets).
"""

from repro.cstruct.sharding import ShardKeyConflict, ShardMap
from repro.shard.deploy import (
    ShardedDeployment,
    ShardedGroups,
    make_group_config,
    make_merge_config,
    make_sharded_configs,
    shard_topology,
)
from repro.shard.replica import BARRIER_OP, ShardReplica, barrier_command
from repro.shard.router import ShardRouter

__all__ = [
    "BARRIER_OP",
    "ShardKeyConflict",
    "ShardMap",
    "ShardReplica",
    "ShardRouter",
    "ShardedDeployment",
    "ShardedGroups",
    "barrier_command",
    "make_group_config",
    "make_merge_config",
    "make_sharded_configs",
    "shard_topology",
]
