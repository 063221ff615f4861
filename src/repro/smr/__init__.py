"""State-machine replication on top of the agreement protocols.

The paper's application framing: replicas apply deterministic commands from
an agreed (partially or totally ordered) command structure.

* :mod:`repro.smr.machine` -- the state-machine interface and a key-value
  store whose operations define a natural conflict relation;
* :mod:`repro.smr.replica` -- the replica: a state machine executing a
  learner's delivery stream at most once, on either engine;
* :mod:`repro.smr.client` -- clients issuing commands and tracking
  completion;
* :mod:`repro.smr.instances` -- the multicoordinated MultiPaxos engine
  (one instance per command or per :class:`repro.smr.instances.Batch`)
  with batching + pipelining (one command per instance by default).
"""

from repro.smr.client import Client
from repro.smr.instances import Batch, BatchingConfig, build_smr
from repro.smr.machine import KVStore, StateMachine, kv_conflict
from repro.smr.replica import Replica

__all__ = [
    "Batch",
    "BatchingConfig",
    "Client",
    "KVStore",
    "Replica",
    "StateMachine",
    "build_smr",
    "kv_conflict",
]
