"""Exception taxonomy for the knowledge-space engine.

Every engine error derives from KsError so callers (and the CLI) can catch one
base class. Names follow the operation contracts; most carry only a message.
"""


class KsError(Exception):
    """Base class for all engine errors."""


# ===== identifiers and representations =====

class InvalidId(KsError):
    """An identifier contains characters outside [A-Za-z0-9_.-]."""


class InvalidRep(KsError):
    """A value KSIF cannot write: an empty word, name or label, text that
    is not text, a bad scalar, or a flag that is not a bool."""


class DuplicateId(KsError):
    """An id is already taken in the relevant store."""


class NotFound(KsError):
    """A lookup found no record under an id; ref is that id where the raiser
    names one, so KSIF import can report it as a dangling reference."""

    def __init__(self, message: str, ref: "str | None" = None):
        super().__init__(message)
        self.ref = ref


# ===== semantic link network =====

class UnknownNode(NotFound):
    pass


class UnknownLinkType(NotFound):
    pass


class UnknownLink(NotFound):
    pass


class DuplicateExplicitLink(KsError):
    """At most one explicit link may exist per (source, type, target)."""


class NegativeWeight(KsError):
    pass


class NonFiniteWeight(KsError):
    """A weight is nan or infinite, or a sum of weights overflowed."""


class CannotRetractDerived(KsError):
    """Only explicit links can be retracted directly."""


class MalformedPattern(KsError):
    """A query pattern does not have exactly one hole or fails to parse."""


# ===== rule engine =====

class InvalidRule(KsError):
    """A rule violates arity, safety, or no-creation constraints."""


class UnknownRule(InvalidRule, NotFound):
    """A rule id naming neither a stored rule nor a transitive type's closure."""


# ===== classification space =====

class UnknownDimension(NotFound):
    pass


class UnknownCategory(NotFound):
    pass


class MissingCoordinate(KsError):
    """A point does not cover every dimension of the space."""


class AlreadyPlaced(KsError):
    pass


class UnknownResource(NotFound):
    pass


class EmptySubset(KsError):
    pass


class FullSubset(KsError):
    pass


class DimensionNameClash(KsError):
    pass


class NonPositiveInput(KsError):
    """Capacity comparisons require x > 0 and integer n >= 1."""


# ===== concepts and reading =====

class UnknownConcept(NotFound):
    pass


class UnknownCompartment(NotFound):
    pass


class TooFewConcepts(KsError):
    """Generalization needs at least two input concepts."""


class MalformedTree(KsError):
    pass


class MultipleRoots(KsError):
    pass


class CyclicHierarchy(KsError):
    """A class or parent chain loops back on itself."""


# ===== discovery =====

class InvalidCandidate(KsError):
    """A verification candidate payload does not match its declared kind."""


class InvalidProblem(KsError):
    """A problem has an unknown kind, or lacks the evidence its kind needs."""


class UncategorizedProblem(KsError):
    pass


class AlreadyAtRoot(KsError):
    pass


class EmptyTypeSet(KsError):
    pass


class TooLarge(KsError):
    """An analogy operand exceeds the configured node budget."""


class EmptySource(KsError):
    pass


# ===== interchange format =====

class KsifError(KsError):
    """Base class for import problems."""


class BadHeader(KsifError):
    pass


class UnknownKind(KsifError):
    def __init__(self, line: int, kind: str):
        super().__init__(f"line {line}: unknown record kind {kind!r}")
        self.line = line
        self.kind = kind


class MalformedRecord(KsifError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DanglingReference(KsifError):
    def __init__(self, ref: str, context: str = ""):
        detail = f" ({context})" if context else ""
        super().__init__(f"unresolved reference {ref!r}{detail}")
        self.ref = ref
