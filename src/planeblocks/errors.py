"""Exception hierarchy shared by all planeblocks modules."""


class PlaneBlocksError(Exception):
    """Base class for all errors raised by this package."""


# --- plane graph construction ---

class NonSimple(PlaneBlocksError):
    """A rotation contains a loop or a repeated neighbor."""


class AsymmetricAdjacency(PlaneBlocksError):
    """u lists v as a neighbor but v does not list u (or an id is out of range)."""


class Disconnected(PlaneBlocksError):
    """The rotation system describes more than one connected component."""


class GenusNonZero(PlaneBlocksError):
    """Face tracing gives v - e + f != 2; not a sphere embedding."""


class UnknownDart(PlaneBlocksError):
    """A directed edge reference does not exist in the graph."""


# --- graph file parsing ---

class GraphSyntaxError(PlaneBlocksError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingOuterDart(PlaneBlocksError):
    """The declared outer dart refers to an edge that is not in the graph."""


# --- structural predicates ---

class BadLength(PlaneBlocksError):
    """Cycle length below 3."""


# --- contribution ledger ---

class ConservationViolation(PlaneBlocksError):
    """A ledger total disagrees with the graph total; internal bug, never ignored."""


# --- theorem profiles ---

class UnknownProfile(PlaneBlocksError):
    """No verification profile with the requested id."""


class UnexpectedBlock(PlaneBlocksError):
    """A block kind outside the profile's catalog on a hypothesis-satisfying graph."""


class HypothesisViolated(PlaneBlocksError):
    """The graph does not satisfy the profile's hypotheses."""


class DegenerateProfile(PlaneBlocksError):
    """Profile coefficients do not permit solving for the edge count."""


# --- search ---

class CeilingExceeded(PlaneBlocksError):
    """Requested vertex count above the configured enumeration ceiling."""

