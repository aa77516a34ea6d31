"""Exception hierarchy shared by all fuzzydb modules."""


class FuzzyDbError(Exception):
    """Base class for every error raised by this package."""


class FuzzyValueError(FuzzyDbError):
    """Invalid fuzzy value construction, or a value used where its kind is not allowed."""


class SimilarityError(FuzzyDbError):
    """Similarity relation misuse: unknown element, bad dimensions, pinned diagonal."""


class CatalogError(FuzzyDbError):
    """Catalog registration, lookup, or persistence failure."""


class ConversionError(CatalogError):
    """Conversion-row protocol violation during encode or decode."""


class FsqlError(FuzzyDbError):
    """Base for FSQL front-end errors; carries a source position when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} at {line}:{column}"
        super().__init__(message)
        self.line = line
        self.column = column


class FsqlSyntaxError(FsqlError):
    """Lexical or grammatical error in FSQL text."""


class CompileError(FsqlError):
    """Query failed catalog validation (unknown table/column/label, type mismatch)."""


class DataFileError(FuzzyDbError):
    """Malformed table data file; messages include the offending row number."""


def undecodable_line(path) -> int:
    """1-based line of the first byte in path that is not UTF-8, or 0 if there is none.

    '\n', '\r' and '\r\n' each end a line, as both readers take them.  Readers
    call this only after a decoding failure, so normal reads stay streaming.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len((data[:exc.start] + b"?").splitlines())  # '?' stands for the bad byte
    return 0
