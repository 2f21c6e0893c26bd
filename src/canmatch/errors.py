"""Exception and warning types shared across the pipeline."""

from __future__ import annotations


class CanMatchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CanMatchError):
    """Unreadable or malformed input, or an invalid option value (exit 2)."""


class NothingProduced(CanMatchError):
    """The input was valid but produced nothing to continue with (exit 3)."""


# --- options ---

class BadOption(InputError):
    """A command-line or config-file option has an invalid value."""


# --- CAN log parsing ---

class EmptyLog(InputError):
    """The log contains no usable rows for one or both signals."""


class MalformedRow(InputError):
    """A CSV row has the wrong arity, or a non-numeric, non-finite or negative value."""


class UnknownSignal(InputError):
    """A CSV row names a signal other than speed or pedal."""


class NonMonotonicTime(InputError):
    """A timestamp is negative or the series cannot be ordered."""


# --- road network ---

class XmlMalformed(InputError):
    """The OSM input is not UTF-8 or well-formed XML, or lacks an attribute
    or a numeric coordinate."""


class NoDrivableWays(InputError):
    """No way in the OSM input carries a drivable highway tag."""


class DanglingNodeRef(InputError):
    """A way references a node id that is not defined in the input."""


class SchemaMismatch(InputError):
    """A graph is missing required keys, is truncated, or holds a non-finite
    coordinate or a non-finite or non-positive edge length."""


class VersionUnsupported(InputError):
    """A serialized graph declares a format version we cannot read."""


class EmptyResult(NothingProduced):
    """An operation produced nothing usable (no surviving graph, no candidates)."""


# --- trajectory reconstruction ---

class InsufficientData(NothingProduced):
    """Too few candidate points to derive a clustering threshold."""


class TooFewNodes(NothingProduced):
    """Fewer than two trajectory nodes survive extraction and merging."""


# --- matching ---

class TrajectoryTooShort(NothingProduced):
    """The trajectory has no edges to match."""


# --- simulation ---

class NoSuchPath(NothingProduced):
    """No simple path of the requested length was found."""


# --- warnings (soft conditions; computation continues) ---

class DegenerateClusters(UserWarning):
    """All gaps equal; the threshold falls back to that common value."""


class NoCandidates(UserWarning):
    """A signal produced no candidate points."""


class DuplicateTimestamp(UserWarning):
    """A signal repeats a timestamp; the first occurrence wins."""


class PairingTruncated(UserWarning):
    """Node sequences of unequal length were paired over the shorter one."""
