"""protolint: protocol-aware static analysis for this repository.

Five rules, all driven off stdlib ``ast``:

* ``durability``   -- handler-mutated state in recoverable processes is
  journaled, restored on recovery, or declared ``VOLATILE``;
* ``determinism``  -- no unseeded randomness, wall-clock reads, ``id()``
  ordering, or unordered iteration feeding ordered sinks;
* ``taxonomy``     -- message classes, handlers, and ``docs/messages.md``
  agree in both directions;
* ``config``       -- ``*Config`` dataclasses validate numeric fields in
  ``__post_init__``;
* ``fields``       -- every field of a message is read by a handler of it
  or by something a handler calls.

Run via ``repro-lint`` (console script) or ``python -m repro.lint``;
programmatic entry point is :func:`run_lint`.  See ``docs/lint.md`` for
the rule catalog and suppression syntax.
"""

from repro.lint.engine import Finding, Module, RULES, run_lint

# Importing the rule modules populates the RULES registry.
from repro.lint import configs as _configs  # noqa: F401
from repro.lint import determinism as _determinism  # noqa: F401
from repro.lint import durability as _durability  # noqa: F401
from repro.lint import fields as _fields  # noqa: F401
from repro.lint import taxonomy as _taxonomy  # noqa: F401

__all__ = ["Finding", "Module", "RULES", "run_lint"]
