"""Rule ``taxonomy``: the message vocabulary, the handlers and the docs agree.

``Process.deliver`` dispatches a message to ``on_<classname.lower()>``;
``docs/messages.md`` is the human-facing registry of that vocabulary.
Three artifacts -- frozen-dataclass message definitions, handler methods,
doc table entries -- drift independently unless something ties them
together.  This rule does:

* a frozen dataclass is recognized as a **message** when some
  ``Process`` subclass -- direct, or through in-repo base classes, whose
  ``on_*`` methods are its handlers too -- defines a matching
  ``on_<lowername>(self, msg, src)`` handler, or when an instance of it
  is passed to ``send``/``broadcast``;
* every message must have **>= 1 handler** (a sent-but-unhandled message
  hits ``on_unhandled`` and raises at runtime -- catch it at lint time);
* every message must be **constructed somewhere** (a handler for a
  message nothing ever sends is dead vocabulary); binding the class to a
  name (``PHASE1A = I1a``) counts, since whoever holds the alias
  constructs through it;
* every message must have a row in the **taxonomy document**, and every
  documented name must still exist as a message in the code.

Value types that are frozen dataclasses but not messages (``Batch``,
``RoundId``, conflict relations, ...) are ignored automatically: nothing
handles or sends them directly.
"""

from __future__ import annotations

import ast
import re
from typing import Sequence

from repro.lint.engine import (
    ClassIndex,
    Context,
    Finding,
    Module,
    decorator_is_frozen_dataclass,
    register,
)

_DOC_ROW_RE = re.compile(r"^\s*\|\s*`([A-Za-z_][A-Za-z0-9_]*)`")


def _process_subclasses(module: Module, index: ClassIndex) -> list[ast.ClassDef]:
    """Classes descending from Process, directly or through in-repo bases
    -- the dispatch targets."""
    return [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef) and index.is_process(module, node)
    ]


def _documented_names(context: Context) -> set[str] | None:
    if context.docs_path is None or not context.docs_path.is_file():
        return None
    documented: set[str] = set()
    for line in context.docs_path.read_text().splitlines():
        match = _DOC_ROW_RE.match(line)
        if match and match.group(1) not in ("message",):
            documented.add(match.group(1))
    return documented


class MessageInventory:
    """Everything the rule learned about the message vocabulary.

    Built by :func:`collect_inventory`; also the machine-readable message
    registry other tooling keys off (the codec round-trip test suite
    enumerates ``messages`` so a new message class without wire support
    fails CI).
    """

    def __init__(self, modules: Sequence[Module]) -> None:
        self.frozen: dict[str, tuple[Module, ast.ClassDef]] = {}
        self.handlers: dict[str, list[tuple[Module, ast.FunctionDef]]] = {}
        self.constructed: set[str] = set()
        self.sent_names: set[str] = set()
        index = ClassIndex(modules)

        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and decorator_is_frozen_dataclass(
                    node
                ):
                    self.frozen[node.name] = (module, node)
            for cls in _process_subclasses(module, index):
                for func in cls.body:
                    if (
                        isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and func.name.startswith("on_")
                        and func.name not in ("on_crash", "on_recover", "on_unhandled")
                        and len(func.args.args) == 3
                    ):
                        self.handlers.setdefault(func.name[3:], []).append(
                            (module, func)
                        )

        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                    # ``PHASE1A = I1a``: a base class constructs the
                    # subclass's message through the alias.
                    if node.value.id in self.frozen:
                        self.constructed.add(node.value.id)
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name) and node.func.id in self.frozen:
                    self.constructed.add(node.func.id)
                func = node.func
                is_send = isinstance(func, ast.Attribute) and func.attr in (
                    "send",
                    "broadcast",
                )
                if is_send:
                    for arg in node.args:
                        for sub in ast.walk(arg):
                            if (
                                isinstance(sub, ast.Call)
                                and isinstance(sub.func, ast.Name)
                                and sub.func.id in self.frozen
                            ):
                                self.sent_names.add(sub.func.id)

    @property
    def messages(self) -> set[str]:
        """message = frozen dataclass that is handled or directly sent."""
        return {
            name
            for name in self.frozen
            if name.lower() in self.handlers or name in self.sent_names
        }


def message_names(modules: Sequence[Module]) -> set[str]:
    """The taxonomy rule's notion of the message vocabulary of *modules*."""
    return MessageInventory(modules).messages


@register(
    "taxonomy",
    "every message has a handler, an emission site, and a docs/messages.md "
    "row (and vice versa)",
)
def check_taxonomy(modules: Sequence[Module], context: Context) -> list[Finding]:
    inventory = MessageInventory(modules)
    frozen = inventory.frozen
    handlers = inventory.handlers
    constructed = inventory.constructed
    messages = inventory.messages

    findings: list[Finding] = []
    for name in sorted(messages):
        module, cls = frozen[name]
        path = str(module.path)
        if module.suppressed("taxonomy", cls.lineno):
            # class-level suppression: exempt from every direction
            continue
        if name.lower() not in handlers:
            findings.append(
                Finding(
                    rule="taxonomy",
                    path=path,
                    line=cls.lineno,
                    message=(
                        f"message {name} is sent but no Process subclass "
                        f"defines on_{name.lower()}; delivery would raise "
                        f"on_unhandled"
                    ),
                )
            )
        if name not in constructed:
            findings.append(
                Finding(
                    rule="taxonomy",
                    path=path,
                    line=cls.lineno,
                    message=(
                        f"message {name} has a handler but is never "
                        f"constructed; dead vocabulary"
                    ),
                )
            )

    # stale handlers: on_<x> in a Process subclass with no message class
    lower_to_name = {name.lower(): name for name in frozen}
    for lowname, sites in sorted(handlers.items()):
        if lowname in lower_to_name:
            continue
        for module, func in sites:
            findings.append(
                Finding(
                    rule="taxonomy",
                    path=str(module.path),
                    line=func.lineno,
                    message=(
                        f"handler on_{lowname} matches no frozen-dataclass "
                        f"message class; stale handler or missing message"
                    ),
                )
            )

    documented = _documented_names(context)
    if documented is not None:
        for name in sorted(messages):
            module, cls = frozen[name]
            if module.suppressed("taxonomy", cls.lineno):
                continue
            if name not in documented:
                findings.append(
                    Finding(
                        rule="taxonomy",
                        path=str(module.path),
                        line=cls.lineno,
                        message=(
                            f"message {name} has no row in "
                            f"{context.docs_path.name}; document its "
                            f"sender/receiver/purpose and enabling config"
                        ),
                    )
                )
        for name in sorted(documented - messages):
            findings.append(
                Finding(
                    rule="taxonomy",
                    path=str(context.docs_path),
                    line=1,
                    message=(
                        f"documented message {name} does not exist as a "
                        f"handled/sent frozen-dataclass message; stale "
                        f"doc entry"
                    ),
                )
            )
    return findings
