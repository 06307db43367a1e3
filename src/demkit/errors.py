"""Exception types shared across the package."""


class DemkitError(Exception):
    """Base class for every error raised by demkit."""


class OutOfRangeError(DemkitError, IndexError):
    """A vertex id is not in 0..n-1."""


class SelfLoopError(DemkitError, ValueError):
    """An edge joins a vertex to itself."""


class EdgeNotPresentError(DemkitError, ValueError):
    """An operation referenced an edge the graph does not contain."""


class DisconnectedError(DemkitError, ValueError):
    """The operation requires a connected graph."""


class IsTreeError(DemkitError, ValueError):
    """The operation requires a graph with at least one cycle."""


class NotZeroError(DemkitError, ValueError):
    """The pair set is nonempty, so the empty-set classifier does not apply."""


class BadParameterError(DemkitError, ValueError):
    """A parameter, or the size of a generated or read graph, is outside its valid range."""


class TooLargeError(DemkitError, ValueError):
    """Input exceeds the size guard of an exponential subroutine."""


class FormatError(DemkitError, ValueError):
    """An input file does not follow the edge-list format."""
