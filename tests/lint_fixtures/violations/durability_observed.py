"""Planted durability violations, including the minimized ``_observed`` bug.

This reproduces the real regression protolint exists to catch: a
coordinator's observed-command set (``_observed``, which feeds the
leader's stuck detection) was mutated in the propose handler but neither
journalled nor declared volatile, so a crash silently dropped the
commands it was tracking.
"""


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


class BuggyCoordinator(Process):
    """The minimized PR-2 bug: ``_observed`` mutated, never journalled."""

    def __init__(self, pid):
        super().__init__(pid)
        self.crnd = 0
        self._observed = {}

    def on_propose(self, msg, src):
        # BUG: mutated in a handler, not journalled, not restored, not
        # declared VOLATILE -> silently empty after crash recovery.
        self._observed[msg] = 1
        self.crnd += 1

    def on_recover(self):
        self.crnd = self.storage.read("crnd", 0)


class PartiallyDurable(Process):
    """Journals one attribute, forgets a second mutated in the same handler."""

    VOLATILE = {"stats"}

    def __init__(self, pid):
        super().__init__(pid)
        self.votes = {}
        self.horizon = 0
        self.stats = 0

    def on_vote(self, msg, src):
        self.votes[msg] = src
        self.storage.write("votes", self.votes)
        self.horizon = max(self.horizon, msg)  # BUG: never journalled
        self.stats += 1  # fine: declared VOLATILE

    def on_recover(self):
        self.votes = self.storage.read("votes", {})
