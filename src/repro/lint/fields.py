"""Rule ``fields``: every field a message carries is read by its receiver.

Every frame encodes every field of its message (``net/codec.py``), so a
field that no receiver reads is wire bytes with no reader -- and a field
that names the message's own sender is a second copy of the envelope's
``src`` that vote counting can be fooled through (``docs/messages.md``,
*The sender is the envelope*).  This rule finds both kinds:

* the vocabulary is the taxonomy rule's
  (:class:`repro.lint.taxonomy.MessageInventory`), which is what the
  codec registers;
* a message's *readers* are its ``on_<name>`` handlers plus everything
  they reach: ``self.m`` (called, or passed on as a callback) resolves to
  the methods named ``m`` in the handler class's family -- its in-repo
  bases, its in-repo subclasses and theirs -- ``f(...)`` to the
  module-level functions named ``f``, and ``x.m(...)`` to every scanned
  method named ``m``;
* a field is read when a reader loads an attribute of that name
  (``msg.rnd``, ``reply.floor``, ``getattr(msg, "rnd")``).  Names are not
  typed, so a same-named attribute of another object counts too: the
  rule can miss an unread field, never invent one.

A field whose only reader is outside the handlers (a test, a tracer)
is a finding; suppress it on the field's line with a reason, or delete
the field.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.engine import ClassIndex, Context, Finding, Module, is_self_attr, register
from repro.lint.taxonomy import MessageInventory

_Function = ast.FunctionDef | ast.AsyncFunctionDef


def _message_fields(cls: ast.ClassDef) -> Iterator[tuple[str, int]]:
    """(name, line) of the dataclass fields declared on *cls*."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if not ast.unparse(node.annotation).startswith("ClassVar"):
                yield node.target.id, node.lineno


def _methods(cls: ast.ClassDef) -> dict[str, _Function]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class _Reach:
    """Which functions a handler reaches, resolved by name (see module doc)."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.index = ClassIndex(modules)
        self.classes: list[tuple[Module, ast.ClassDef]] = [
            (module, node)
            for module in modules
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        ]
        self.functions: dict[str, list[_Function]] = {}
        self.methods: dict[str, list[_Function]] = {}
        self._families: dict[int, dict[str, list[_Function]]] = {}
        for module in modules:
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions.setdefault(node.name, []).append(node)
        for _, cls in self.classes:
            for name, func in _methods(cls).items():
                self.methods.setdefault(name, []).append(func)

    def family(self, module: Module, cls: ast.ClassDef) -> dict[str, list[_Function]]:
        """Methods by name of *cls*, its in-repo bases and its subclasses."""
        if id(cls) in self._families:
            return self._families[id(cls)]
        family: dict[str, list[_Function]] = {}
        merged: set[int] = set()
        for other_module, other in self.classes:
            lineage = self.index.lineage(other_module, other)
            if not any(ancestor is cls for _, ancestor in lineage):
                continue
            for _, ancestor in lineage:
                if id(ancestor) not in merged:
                    merged.add(id(ancestor))
                    for name, func in _methods(ancestor).items():
                        family.setdefault(name, []).append(func)
        self._families[id(cls)] = family
        return family

    def closure(self, root: _Function, family: dict[str, list[_Function]]) -> list[_Function]:
        seen = {id(root): root}
        frontier = [root]
        while frontier:
            for node in ast.walk(frontier.pop()):
                for callee in self._callees(node, family):
                    if id(callee) not in seen:
                        seen[id(callee)] = callee
                        frontier.append(callee)
        return list(seen.values())

    def _callees(self, node: ast.AST, family) -> list[_Function]:
        name = is_self_attr(node)
        if name is not None:
            return family.get(name, [])
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                return self.functions.get(node.func.id, [])
            if isinstance(node.func, ast.Attribute):
                return self.methods.get(node.func.attr, [])
        return []


def _attributes_read(func: _Function) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            read.add(node.args[1].value)
    return read


@register(
    "fields",
    "every field of a message is read by one of its handlers or by "
    "something a handler calls",
)
def check_fields(modules: Sequence[Module], context: Context) -> list[Finding]:
    inventory = MessageInventory(modules)
    reach = _Reach(modules)
    owner = {
        id(func): (module, cls)
        for module, cls in reach.classes
        for func in _methods(cls).values()
    }
    read_cache: dict[int, set[str]] = {}
    findings: list[Finding] = []
    for name in sorted(inventory.messages):
        module, cls = inventory.frozen[name]
        read: set[str] = set()
        for _, handler in inventory.handlers.get(name.lower(), []):
            family = reach.family(*owner[id(handler)])
            for func in reach.closure(handler, family):
                if id(func) not in read_cache:
                    read_cache[id(func)] = _attributes_read(func)
                read |= read_cache[id(func)]
        for field, line in _message_fields(cls):
            if field not in read:
                findings.append(
                    Finding(
                        rule="fields",
                        path=str(module.path),
                        line=line,
                        message=(
                            f"{name}.{field} is read by no on_{name.lower()} "
                            f"handler nor anything one calls; every frame "
                            f"carries it for no reader"
                        ),
                    )
                )
    return findings
