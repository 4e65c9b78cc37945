"""Exception hierarchy shared across the pipeline.

Every domain error raised by this package derives from ReadmitError so
callers (notably the CLI) can map failures onto stable exit codes.
"""

from __future__ import annotations


class ReadmitError(Exception):
    """Base class for all errors raised by this package."""


# --- input / record errors -------------------------------------------------

class EmptyKeyPart(ReadmitError):
    """A client key field is blank after trimming."""


class MalformedCsv(ReadmitError):
    """A CSV input failed validation. Carries row/column diagnostics.

    Raised only while reading CSVs in the calling process. It does not
    survive pickling (args hold only the message), so it must not be
    raised inside a sweep's worker processes.
    """

    def __init__(self, path: str, row: int, column: str | None, reason: str):
        self.path = path
        self.row = row
        self.column = column
        where = f"{path}, row {row}" + (f", column {column!r}" if column else "")
        super().__init__(f"{where}: {reason}")


class NoEpisodes(ReadmitError):
    """A profile has no residence episodes."""


# --- feature encoding ------------------------------------------------------

class UnmappableFamilyType(ReadmitError):
    """family_type has no residual category; unmatched values are fatal."""


class MissingAge(ReadmitError):
    """No training row has an age to impute missing ages from."""


class EmptyAfterFiltering(ReadmitError):
    """Income mode dropped every row."""


# --- resampling ------------------------------------------------------------

class ClassTooSmall(ReadmitError):
    """A class has fewer members than the requested fold count."""


class MinorityTooSmall(ReadmitError):
    """Minority class is too small for the requested neighbor count."""


# --- models ----------------------------------------------------------------

class SingleClass(ReadmitError):
    """Training (or evaluation) labels contain only one class."""


class Diverged(ReadmitError):
    """An iterative fit produced non-finite parameters."""


class WidthMismatch(ReadmitError):
    """Row width does not match the model or fitted statistics."""


# --- evaluation ------------------------------------------------------------

class LengthMismatch(ReadmitError):
    """Labels and scores have different lengths."""


class NoPositives(ReadmitError):
    """Sensitivity is undefined: tp + fn == 0."""


class EmptyMatrix(ReadmitError):
    """Accuracy is undefined: the confusion matrix has no counts."""


# --- synthetic cohorts -----------------------------------------------------

class InfeasibleSpec(ReadmitError):
    """The cohort spec cannot be calibrated to the requested rates."""
