"""Rule ``durability``: handler-mutated state must survive recovery.

The crash-recovery model (Section 2.1.1, ``repro.sim.process``) makes a
process's volatile state vanish on crash; :meth:`on_recover` rebuilds it
from :class:`~repro.sim.storage.StableStorage`.  The PR 2 bug class this
rule re-detects statically: a message handler mutates an instance
attribute, nothing journals it, ``on_recover`` never restores it -- the
state silently evaporates at the first crash and the protocol limps on
with amnesia (``SMRCoordinator._observed`` lost its §4.3 progress
tracking exactly this way).

For every class that defines ``on_recover``, every instance attribute
mutated inside a message or timer handler must be at least one of:

* **journaled** -- referenced in the arguments of a
  ``self.storage.write/write_many/append/append_many`` call somewhere in
  the class (the write is what makes a later restore possible);
* **restored** -- assigned or mutated in ``on_recover`` or a method it
  (transitively) calls;
* **declared volatile** -- listed in a class-level ``VOLATILE = {...}``
  set: deliberately crash-lossy state (statistics counters, buffers
  re-filled by retransmission, failure-detector caches).

Handlers are the dispatch targets of ``Process.deliver`` -- methods named
``on_*`` taking ``(self, msg, src)`` -- plus every method referenced as a
callback (timer actions, failure-detector hooks), plus everything those
methods transitively call.

A class is analysed together with its in-repo base classes
(:class:`~repro.lint.engine.ClassIndex`): inherited methods and handlers,
``VOLATILE`` declarations and ``storage.write*`` calls all count, a
subclass method overriding its base's.  A finding is anchored where the
mutation is written -- in the base's file when the handler is inherited.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.lint.engine import (
    ClassIndex,
    Context,
    Finding,
    Module,
    is_self_attr,
    register,
)

#: ``self.storage`` methods that persist state.
_STORAGE_WRITERS = {"write", "write_many", "append", "append_many"}

#: Method names whose call on ``self.<attr>`` counts as mutating the attr.
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "difference_update",
    "discard",
    "extend",
    "insert",
    "intersection_update",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "setdefault",
    "symmetric_difference_update",
    "update",
}

#: Base-class infrastructure attributes outside the protocol state model.
_INFRA_ATTRS = {"storage", "sim", "pid", "alive", "crash_count", "_timers"}


def _methods(
    lineage: Sequence[tuple[Module, ast.ClassDef]],
) -> dict[str, tuple[Module, ast.FunctionDef]]:
    """Methods by name with their defining module; nearest class wins."""
    methods: dict[str, tuple[Module, ast.FunctionDef]] = {}
    for module, cls in reversed(lineage):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[node.name] = (module, node)
    return methods


def _volatile_names(cls: ast.ClassDef) -> set[str]:
    """The class-level ``VOLATILE = {...}`` declaration, if any."""
    for node in cls.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == "VOLATILE" for t in targets):
            continue
        if isinstance(value, ast.Call):  # frozenset({...})
            if value.args:
                value = value.args[0]
        if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            return {
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def _called_methods(func: ast.FunctionDef) -> set[str]:
    """Names of ``self.<m>(...)`` calls anywhere under *func* (incl. lambdas)."""
    called: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = is_self_attr(node.func)
            if name is not None:
                called.add(name)
    return called


def _referenced_methods(cls: ast.ClassDef, methods) -> set[str]:
    """Methods referenced as bare ``self.<m>`` (callback registrations)."""
    refs: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                name = is_self_attr(arg)
                if name is not None and name in methods:
                    refs.add(name)
    return refs


def _closure(roots: set[str], methods) -> set[str]:
    """Transitive closure of *roots* under direct ``self.<m>()`` calls."""
    seen: set[str] = set()
    frontier = [name for name in roots if name in methods]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        for callee in _called_methods(methods[name][1]):
            if callee in methods and callee not in seen:
                frontier.append(callee)
    return seen


def _mutated_attrs(func: ast.FunctionDef) -> dict[str, int]:
    """``self.<attr>`` mutations in *func*: attr -> first line."""
    mutated: dict[str, int] = {}

    def record(name: str | None, line: int) -> None:
        if name is not None and name not in mutated:
            mutated[name] = line

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(_store_target(target), node.lineno)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            record(_store_target(node.target), node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                record(_store_target(target), node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                record(is_self_attr(node.func.value), node.lineno)
    return mutated


def _store_target(target: ast.expr) -> str | None:
    """The self-attribute a store/delete target reaches, if any.

    Handles ``self.x``, ``self.x[k]`` and tuple targets are unpacked by
    the caller via ast.walk (Assign targets may be Tuple -- walk finds the
    inner nodes, so only direct shapes are handled here).
    """
    if isinstance(target, ast.Attribute):
        return is_self_attr(target)
    if isinstance(target, ast.Subscript):
        return _store_target(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            name = _store_target(elt)
            if name is not None:
                return name
    return None


def _journaled_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes referenced in the arguments of storage-writing calls."""
    journaled: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _STORAGE_WRITERS):
            continue
        receiver = func.value
        if is_self_attr(receiver) != "storage":
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                name = is_self_attr(sub)
                if name is not None:
                    journaled.add(name)
    return journaled


def _handler_roots(methods, lineage) -> set[str]:
    roots: set[str] = set()
    for name, (_, func) in methods.items():
        if (
            name.startswith("on_")
            and name not in ("on_crash", "on_recover", "on_unhandled")
            and len(func.args.args) == 3
        ):
            roots.add(name)
    roots |= {
        name
        for _, cls in lineage
        for name in _referenced_methods(cls, methods)
        if name not in ("on_crash", "on_recover")
    }
    return roots


@register(
    "durability",
    "handler-mutated state must be journaled, restored in on_recover, "
    "or declared VOLATILE",
)
def check_durability(modules: Sequence[Module], context: Context) -> list[Finding]:
    findings: list[Finding] = []
    index = ClassIndex(modules)
    for module in modules:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            lineage = index.lineage(module, cls)
            methods = _methods(lineage)
            if "on_recover" not in methods:
                continue
            volatile: set[str] = set()
            journaled: set[str] = set()
            for _, ancestor in lineage:
                volatile |= _volatile_names(ancestor)
                journaled |= _journaled_attrs(ancestor)
            roots = _handler_roots(methods, lineage)
            handler_methods = _closure(roots, methods)
            restored_methods = _closure({"on_recover"}, methods)
            restored: set[str] = set()
            for name in restored_methods:
                restored |= set(_mutated_attrs(methods[name][1]))
            for name in sorted(handler_methods):
                owner, func = methods[name]
                for attr, line in sorted(_mutated_attrs(func).items()):
                    if attr in _INFRA_ATTRS or attr in volatile:
                        continue
                    if attr in restored or attr in journaled:
                        continue
                    findings.append(
                        Finding(
                            rule="durability",
                            path=str(owner.path),
                            line=line,
                            message=(
                                f"{cls.name}.{attr} is mutated in handler "
                                f"'{name}' but is neither journaled to "
                                f"stable storage, restored in on_recover, "
                                f"nor declared in VOLATILE"
                            ),
                        )
                    )
    # One finding per (class, attr): a second mutation site adds noise,
    # not information.  Keep the earliest line.
    unique: dict[tuple[str, str], Finding] = {}
    for finding in findings:
        key = (finding.path, finding.message.split(" is mutated", 1)[0])
        kept = unique.get(key)
        if kept is None or finding.line < kept.line:
            unique[key] = finding
    return list(unique.values())
