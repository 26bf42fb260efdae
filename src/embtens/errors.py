"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ToolkitError):
    """Shapes of the supplied objects do not fit together."""


class NotASubspace(ToolkitError):
    """A claimed containment of subspaces does not hold."""


class NotCoherentAction(ToolkitError):
    """An operation required a coherent action but the check failed."""


class NotAnEmbeddingTensor(ToolkitError):
    """An operation required a verified embedding tensor."""


class NotLeibnizLie(ToolkitError):
    """An operation required a verified Leibniz-Lie structure."""


class ActionIllDefined(ToolkitError):
    """The quotient action is not constant on equivalence classes."""


class NotCoherentDerivation(ToolkitError):
    """A left-multiplication operator is not a coherent derivation."""


class NotNijenhuis(ToolkitError):
    """The supplied element fails the Nijenhuis conditions."""


class NotACocycle(ToolkitError):
    """A cochain expected to be a cocycle is not."""


class ArityCapExceeded(ToolkitError):
    """A graded operation would produce a map above the arity cap."""


class DegreeOutOfRange(ToolkitError):
    """Requested cohomology degree is outside the configured range."""


class RoutesDisagree(ToolkitError):
    """Two independent routes of one check gave different verdicts; the
    checker itself is broken."""


class WorkspaceError(ToolkitError):
    """Base class for workspace loading problems."""


class ParseError(WorkspaceError):
    """Malformed workspace input; the message carries the position."""


class UnresolvedReference(WorkspaceError):
    """A named cross-reference does not resolve inside the workspace."""


class FlavorViolation(WorkspaceError):
    """A declared algebra flavor is unknown, or fails its axiom check on load."""
