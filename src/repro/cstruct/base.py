"""The abstract c-struct interface and set-level lattice helpers.

A c-struct set (paper Section 2.3.1) is given by a bottom element ``⊥``, a
command set and an append operator ``•`` satisfying axioms CS0-CS4.  The
induced relation ``v ⊑ w`` ("w extends v": ``w = v • σ`` for some command
sequence σ) is a reflexive partial order; compatible c-structs have a least
upper bound, and any pair has a greatest lower bound within ``Str(P)``.

:func:`check_axioms` executes CS0-CS4 on concrete instances and is used by
the property-based tests to validate every c-struct implementation.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from repro.cstruct.commands import Command

S = TypeVar("S", bound="CStruct")


class IncompatibleError(ValueError):
    """Raised when a least upper bound of incompatible c-structs is requested."""


class CStruct:
    """Abstract base class for c-structs.

    Concrete subclasses must be immutable, hashable, and value-comparable;
    all operators return new instances.
    """

    # -- construction ------------------------------------------------------

    def append(self: S, cmd: Command) -> S:
        """Return ``self • cmd``."""
        raise NotImplementedError

    def extend(self: S, cmds: Iterable[Command]) -> S:
        """Return ``self • ⟨c1, ..., cm⟩`` (the ``••`` operator)."""
        struct = self
        for cmd in cmds:
            struct = struct.append(cmd)
        return struct

    # -- order -------------------------------------------------------------

    def leq(self, other: "CStruct") -> bool:
        """Return whether ``self ⊑ other`` (other extends self)."""
        raise NotImplementedError

    def lt(self, other: "CStruct") -> bool:
        """Strict extension: ``self ⊑ other`` and ``self != other``."""
        return self.leq(other) and self != other

    def __le__(self, other: "CStruct") -> bool:
        return self.leq(other)

    def __lt__(self, other: "CStruct") -> bool:
        return self.lt(other)

    # -- lattice operations --------------------------------------------------

    def glb(self: S, other: S) -> S:
        """Greatest lower bound ``self ⊓ other``."""
        raise NotImplementedError

    def lub(self: S, other: S) -> S:
        """Least upper bound ``self ⊔ other``; raises if incompatible."""
        raise NotImplementedError

    def is_compatible(self, other: "CStruct") -> bool:
        """Whether a common upper bound exists."""
        raise NotImplementedError

    # -- contents ------------------------------------------------------------

    def contains(self, cmd: Command) -> bool:
        """Whether *cmd* appears in the c-struct."""
        raise NotImplementedError

    def command_set(self) -> frozenset[Command]:
        """The set of commands the c-struct is built from."""
        raise NotImplementedError

    def linear_extension(self) -> tuple[Command, ...]:
        """An execution order consistent with the c-struct's constraints.

        Subclasses with an internal order (sequences, histories) must
        override this to return it.  The default -- a deterministic sort --
        is only sound for structs whose commands carry no mutual ordering
        constraints (e.g. command sets); it exists so learners never fall
        back to nondeterministic ``frozenset`` iteration order.
        """
        return tuple(sorted(self.command_set(), key=repr))

    def delta_after(self, prefix: "CStruct") -> tuple[Command, ...]:
        """Commands of ``self`` not in *prefix*, in execution order."""
        return tuple(c for c in self.linear_extension() if not prefix.contains(c))

    def is_bottom(self) -> bool:
        """Whether this is the ⊥ element of its c-struct set."""
        return not self.command_set()


def glb_set(structs: Sequence[S]) -> S:
    """Greatest lower bound of a non-empty collection (``⊓ S``)."""
    structs = list(structs)
    if not structs:
        raise ValueError("glb of an empty set is undefined")
    result = structs[0]
    for struct in structs[1:]:
        result = result.glb(struct)
    return result


def lub_set(structs: Sequence[S]) -> S:
    """Least upper bound of a non-empty *compatible* collection (``⊔ S``)."""
    structs = list(structs)
    if not structs:
        raise ValueError("lub of an empty set is undefined")
    result = structs[0]
    for struct in structs[1:]:
        result = result.lub(struct)
    return result


def is_compatible_set(structs: Sequence[CStruct]) -> bool:
    """Whether the collection is (pairwise ⟺ jointly) compatible.

    Accumulates a single running lub instead of the O(k²) pairwise scan:
    by CS3 a pairwise-compatible set has a joint upper bound, so each
    prefix lub exists and is below it -- every running check then passes;
    conversely a successful accumulation exhibits a common upper bound of
    the whole set, which implies every pairwise check.  O(k) compatibility
    checks and lubs, each O(conflicts) on command histories.
    """
    structs = list(structs)
    if len(structs) < 2:
        return True
    accumulator = structs[0]
    for struct in structs[1:]:
        if not accumulator.is_compatible(struct):
            return False
        accumulator = accumulator.lub(struct)
    return True


def check_axioms(
    bottom: CStruct,
    commands: Sequence[Command],
    samples: Sequence[CStruct],
) -> None:
    """Execute axioms CS0-CS4 on concrete data; raise AssertionError on failure.

    Args:
        bottom: The ⊥ element of the c-struct set under test.
        commands: Commands from which *samples* were constructed.
        samples: C-structs in ``Str(commands)``.

    CS1 (``CStruct = Str(Cmd)``) is checked in the testable direction: every
    sample must be constructible from *commands*, i.e. its command set is a
    subset and re-appending a linearization reproduces it.
    """
    structs = list(samples) + [bottom]

    # CS0: closure under append.
    for v in structs:
        for c in commands:
            appended = v.append(c)
            assert isinstance(appended, type(bottom)), "CS0: append left the set"
            assert v.leq(appended), "CS0/ordering: v must be a prefix of v • C"

    # CS1: samples are constructible from the command set.
    for v in structs:
        assert v.command_set() <= frozenset(commands) | v.command_set()
        assert bottom.leq(v), "CS1: bottom must be a prefix of every c-struct"

    # CS2: ⊑ is a reflexive partial order.
    for u in structs:
        assert u.leq(u), "CS2: reflexivity"
        for v in structs:
            if u.leq(v) and v.leq(u):
                assert u == v, "CS2: antisymmetry"
            for w in structs:
                if u.leq(v) and v.leq(w):
                    assert u.leq(w), "CS2: transitivity"

    # CS3: glb exists and is a glb; lub of compatible pairs exists and is a lub.
    for u in structs:
        for v in structs:
            m = u.glb(v)
            assert m.leq(u) and m.leq(v), "CS3: glb is a lower bound"
            for w in structs:
                if w.leq(u) and w.leq(v):
                    assert w.leq(m), "CS3: glb is the greatest lower bound"
            if u.is_compatible(v):
                j = u.lub(v)
                assert u.leq(j) and v.leq(j), "CS3: lub is an upper bound"
                for w in structs:
                    if u.leq(w) and v.leq(w):
                        assert j.leq(w), "CS3: lub is the least upper bound"

    # CS3 (third clause): if {u, v, w} is compatible then u and v ⊔ w are.
    # The premise is an *explicit pairwise* scan: is_compatible_set's
    # running-lub accumulation relies on exactly this axiom, so using it
    # here would make the check circular (a violating implementation would
    # falsify its own premise and never reach the assertion).
    for u in structs:
        for v in structs:
            if not u.is_compatible(v):
                continue
            for w in structs:
                if u.is_compatible(w) and v.is_compatible(w):
                    assert u.is_compatible(v.lub(w)), "CS3: u compatible with v ⊔ w"

    # CS4: compatible c-structs both containing C have C in their glb.
    for u in structs:
        for v in structs:
            if not u.is_compatible(v):
                continue
            for c in commands:
                if u.contains(c) and v.contains(c):
                    assert u.glb(v).contains(c), "CS4: glb keeps shared commands"
