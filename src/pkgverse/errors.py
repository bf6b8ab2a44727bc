"""Exception hierarchy shared by every pkgverse module.

All library errors derive from :class:`PkgverseError` so callers (and the
CLI) can catch one base class. I/O failures are reported with the builtin
``OSError`` family and are not wrapped.
"""


class PkgverseError(Exception):
    """Base class for every error raised by this package."""


# --- graph construction -----------------------------------------------------

class DuplicateUnit(PkgverseError):
    """A unit with the same (name, release) already exists."""


class UnknownUnit(PkgverseError):
    """A unit reference does not resolve to a stored unit."""


class SelfLoop(PkgverseError):
    """A use-edge may not point from a unit to itself."""


class ParallelEdge(PkgverseError):
    """A use-edge for this ordered (from, to) pair already exists."""


class TimeAnomaly(PkgverseError):
    """Strict mode: the used unit was released after its user."""


class NameAxiomViolation(PkgverseError):
    """Update edges may only connect units sharing the same name."""


class TimeOrderViolation(PkgverseError):
    """An update edge must point strictly forward in time."""


class BranchingUpdate(PkgverseError):
    """A unit may have at most one update successor and one predecessor."""


class SnapshotOrderError(PkgverseError):
    """diff() requires the older snapshot to not postdate the newer one."""


# --- event log ---------------------------------------------------------------

class SchemaError(PkgverseError):
    """An event payload does not match the wire schema for its kind."""


class CorruptLog(PkgverseError):
    """A log line is not valid JSON (truncated or garbled file)."""


class TornTail(CorruptLog):
    """The final line of a log lacks its newline and is not a JSON object:
    the torn tail of an interrupted append, or of one still in progress."""


# --- parsing / ingestion ------------------------------------------------------

class ParseError(PkgverseError):
    """Input document is structurally invalid."""


class MissingField(ParseError):
    """A required field is absent from the input document."""


class VersionParseError(ParseError):
    """String is not a well-formed semantic version."""


class CsvError(ParseError):
    """A CSV input is malformed; the message carries the row number."""


class InvalidTimestamp(ParseError):
    """Value is neither epoch seconds nor ISO-8601."""


# --- dependency resolution -----------------------------------------------------

class NoMatchingVersion(PkgverseError):
    """No available version satisfies the requested range."""


class UnknownRoot(PkgverseError):
    """The requested root package@version is not present at that time."""


# --- contribution analysis ------------------------------------------------------

class ConflictingAlias(PkgverseError):
    """An alias string is explicitly bound to two different canonical ids."""


class InvalidRange(PkgverseError):
    """A time range or window width is empty or negative."""


# --- sampling --------------------------------------------------------------------

class UnknownPackage(PkgverseError):
    """A package name is not present in the snapshot under analysis."""


class InsufficientData(PkgverseError):
    """The chosen metric needs inputs that were not supplied."""
