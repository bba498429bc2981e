"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish the specific
failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class TreeError(ReproError):
    """A structural operation on a tree was invalid.

    Raised for example when adding a child to a node from a different
    tree, re-parenting the root, or requesting a node id that does not
    exist.
    """


class NewickError(ReproError):
    """A Newick string could not be parsed.

    Attributes
    ----------
    position:
        Zero-based character offset in the input at which the error was
        detected, or ``None`` when no single position is responsible.
    line, column:
        One-based line and column of ``position`` when the parser knew
        the text (the Newick scanner always does), else ``None``.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        *,
        line: int | None = None,
        column: int | None = None,
    ) -> None:
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        elif position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column


class NewickEmptyStatementError(NewickError):
    """A Newick file holds an empty tree statement (a stray ``;``).

    Kept apart from other syntax errors because reading past it would
    silently add a phantom tree and shift every later tree's index.
    """


class MiningParameterError(ReproError, ValueError):
    """A mining parameter (maxdist, minoccur, minsup, ...) was invalid.

    Also a :class:`ValueError`, so call sites that predate the
    dedicated hierarchy (and external callers treating bad knobs as
    plain value errors) keep working.
    """


class ArenaError(ReproError):
    """A flat-array tree arena or label table operation was invalid.

    Raised for example when a forest holds more distinct labels than
    the packed-key encoding can address (2^21), or when a tree is
    flattened against a label table that does not cover its labels.
    """


class EngineError(ReproError):
    """The mining engine was misconfigured or failed to execute.

    Raised for example when the worker count is not a positive integer
    or the on-disk cache directory cannot be created.
    """


class StoreError(ReproError):
    """An on-disk pair store was missing, corrupt or stale.

    Raised for example when a store manifest fails to parse or
    validate, when a shard file referenced by the manifest is missing
    or truncated, or when the store was written under a different
    packed-key scheme.  Callers are expected to count the degradation
    (``store.read_errors``) and rebuild by re-packing from the corpus.
    """


class TraceError(ReproError):
    """A JSON-lines trace file could not be parsed into spans.

    Raised by :mod:`repro.obs.profile` when a ``--trace`` file handed
    to ``repro-mine profile`` is not JSON lines, or a span record is
    missing required fields.
    """


class HistoryError(ReproError):
    """The run-history warehouse was missing, corrupt or misused.

    Raised for example when a manifest handed to ``ingest`` lacks a
    bench name, or when the warehouse directory cannot be created.
    Individually corrupt segment *lines* never raise — they degrade to
    a counted miss (``history.read_errors``) like every other on-disk
    artifact in the package.
    """


class ConsensusError(ReproError):
    """A consensus method was applied to an invalid input profile.

    Raised for example when the input trees do not all share the same
    leaf (taxon) set, or when the profile is empty.
    """


class ParsimonyError(ReproError):
    """A parsimony computation received inconsistent input.

    Raised for example when a tree's leaves do not match the alignment's
    taxa, or when an alignment has ragged rows.
    """


class AlignmentError(ParsimonyError):
    """A sequence alignment was malformed or could not be parsed."""


class FreeTreeError(ReproError):
    """A free-tree (undirected acyclic graph) operation was invalid.

    Raised for example when the input graph is not connected or contains
    a cycle.
    """


class DatasetError(ReproError):
    """A bundled dataset could not be constructed or validated."""
