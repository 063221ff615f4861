"""protolint rule engine: module loading, suppressions, rule registry.

The analyzer is a thin driver over five protocol-aware rules (see the
sibling modules).  Everything is stdlib ``ast``: a :class:`Module` is one
parsed source file plus the per-line suppression table; a rule is a
callable taking the whole module list (rules like the message-taxonomy
check are inherently cross-module) and returning :class:`Finding`s.

Suppressions
------------

Two mechanisms, mirroring what the rules check:

* ``# protolint: ignore[rule]`` (comma-separated rule names, or bare
  ``ignore`` for all rules) on the flagged line or on a comment line
  directly above it silences findings anchored to that line;
* a class-level ``VOLATILE = {"attr", ...}`` declaration is consumed by
  the durability rule: the listed handler-mutated attributes are
  *deliberately* lost on crash (statistics counters, caches rebuilt by
  the retransmission layer, ...) and need neither journaling nor
  restoration.  It is a declaration, not an escape hatch -- the set is
  part of the class's documented crash-recovery contract.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

_SUPPRESS_RE = re.compile(r"#\s*protolint:\s*ignore(?:\[([a-z\-,\s]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Module:
    """A parsed source file plus its suppression table."""

    path: Path
    tree: ast.Module
    source: str
    # line number -> set of suppressed rule names ("*" = every rule)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Module":
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            tree=tree,
            source=source,
            suppressions=_parse_suppressions(source),
        )

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether *rule* is silenced on *line* (or the line above it)."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules and ("*" in rules or rule in rules):
                # An ignore on the preceding line only reaches down from a
                # comment-only line -- a trailing ignore on a *code* line
                # suppresses that line alone.
                if candidate == line or self._comment_only(candidate):
                    return True
        return False

    def _comment_only(self, line: int) -> bool:
        if line < 1:
            return False
        lines = self.source.splitlines()
        if line > len(lines):
            return False
        return lines[line - 1].lstrip().startswith("#")


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    table: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        raw = match.group(1)
        if raw is None or not raw.strip():
            table[lineno] = {"*"}
        else:
            table[lineno] = {name.strip() for name in raw.split(",") if name.strip()}
    return table


@dataclass
class Context:
    """Cross-rule configuration shared by one analyzer run."""

    #: Path to the message-taxonomy document (``docs/messages.md``); None
    #: disables the doc-coverage direction of the taxonomy rule.
    docs_path: Path | None = None


Rule = Callable[[Sequence[Module], Context], list[Finding]]

#: name -> (rule callable, one-line description).  Populated by
#: :func:`register`; the import in ``__init__`` brings the rule modules in.
RULES: dict[str, tuple[Rule, str]] = {}


def register(name: str, description: str) -> Callable[[Rule], Rule]:
    def wrap(rule: Rule) -> Rule:
        RULES[name] = (rule, description)
        return rule

    return wrap


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Python files under *paths* (files are taken as-is), sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(files)


def discover_docs(paths: Iterable[Path]) -> Path | None:
    """Find ``docs/messages.md`` walking up from the first scanned path."""
    for path in paths:
        probe = path.resolve()
        if probe.is_file():
            probe = probe.parent
        while True:
            candidate = probe / "docs" / "messages.md"
            if candidate.is_file():
                return candidate
            if probe.parent == probe:
                break
            probe = probe.parent
    return None


def run_lint(
    paths: Sequence[Path | str],
    rules: Sequence[str] | None = None,
    docs: Path | str | None = None,
    auto_docs: bool = True,
) -> list[Finding]:
    """Run the analyzer; returns surviving (unsuppressed) findings.

    Args:
        paths: Files and/or directories to scan.
        rules: Rule names to run (default: all registered rules).
        docs: Path to the taxonomy document; auto-discovered from the
            scanned paths when omitted (unless *auto_docs* is False, which
            disables the doc-coverage checks entirely).
    """
    resolved = [Path(p) for p in paths]
    modules = [Module.load(f) for f in collect_files(resolved)]
    if docs is not None:
        docs_path = Path(docs)
    elif auto_docs:
        docs_path = discover_docs(resolved)
    else:
        docs_path = None
    context = Context(docs_path=docs_path)
    selected = list(RULES) if rules is None else list(rules)
    unknown = [name for name in selected if name not in RULES]
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(unknown)}")
    by_path = {str(m.path): m for m in modules}
    findings: set[Finding] = set()
    for name in selected:
        rule, _ = RULES[name]
        for finding in rule(modules, context):
            module = by_path.get(finding.path)
            if module is not None and module.suppressed(finding.rule, finding.line):
                continue
            findings.add(finding)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))


# -- in-tree base classes (used by the class-shaped rules) ---------------------


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [
        base.id if isinstance(base, ast.Name) else base.attr
        for base in cls.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    ]


class ClassIndex:
    """Every class of the scanned modules, for base-class resolution.

    A role class inherits methods, handlers, ``VOLATILE`` declarations
    and ``storage.write*`` calls from in-repo bases (the shared
    reliability core); a rule looking at one ``ClassDef`` at a time would
    silently lose all of them.  Bases are resolved by simple name among
    the scanned modules -- the class's own module first, else the only
    other definition; anything else (stdlib, out-of-scan) is not
    followed.  ``Process`` itself is the dispatch root, not protocol
    state: resolution stops below it.
    """

    def __init__(self, modules: Sequence[Module]) -> None:
        self._by_name: dict[str, list[tuple[Module, ast.ClassDef]]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self._by_name.setdefault(node.name, []).append((module, node))

    def lineage(self, module: Module, cls: ast.ClassDef) -> list[tuple[Module, ast.ClassDef]]:
        """*cls* followed by its in-tree ancestors, nearest first."""
        out = [(module, cls)]
        for near, ancestor in out:  # grows while iterated: breadth-first
            for name in _base_names(ancestor):
                found = self._by_name.get(name, []) if name != "Process" else []
                local = [entry for entry in found if entry[0] is near]
                base = local[0] if local else found[0] if len(found) == 1 else None
                if base is not None and all(base[1] is not seen for _, seen in out):
                    out.append(base)
        return out

    def is_process(self, module: Module, cls: ast.ClassDef) -> bool:
        """Whether *cls* descends from something named like ``Process``."""
        return any(
            "Process" in name
            for _, ancestor in self.lineage(module, cls)
            for name in _base_names(ancestor)
        )


# -- shared AST helpers (used by several rules) -------------------------------


def is_self_attr(node: ast.AST) -> str | None:
    """The attribute name if *node* is ``self.<name>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def self_attrs_in(node: ast.AST) -> set[str]:
    """Every ``self.<name>`` attribute referenced anywhere under *node*."""
    found: set[str] = set()
    for sub in ast.walk(node):
        name = is_self_attr(sub)
        if name is not None:
            found.add(name)
    return found


def decorator_is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    """True for ``@dataclass(frozen=True)`` (with or without module prefix)."""
    for dec in cls.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        func = dec.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "dataclass":
            continue
        for kw in dec.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


def is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else None
        )
        if name == "dataclass":
            return True
    return False
