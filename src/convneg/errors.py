"""Domain exceptions shared across the package."""

from pathlib import Path


class ConvnegError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidOperator(ConvnegError):
    """Matrix violates the operator invariants (shape, symmetry, PSD, labels)."""


class InvalidIndex(ConvnegError):
    """Basis or factor index out of range."""


class DimMismatch(ConvnegError):
    """Operands live on incompatible spaces."""


class EmptyMixture(ConvnegError):
    """Mixture with no terms or with all-zero weights."""


class ZeroOperator(ConvnegError):
    """Operation undefined on the zero operator."""


class NotSubnormalized(ConvnegError):
    """Complement negation requires max eigenvalue <= 1."""


class ParseError(ConvnegError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text for ``str.splitlines``; a ParseError names the
    file and the line of its first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"{str(path)!r} is not UTF-8 text ({exc.reason})", line) from None


class CyclicTaxonomy(ConvnegError):
    """Hypernym graph contains a cycle; the message shows one."""


class UnknownWord(ConvnegError):
    """Word not present in the lexicon or taxonomy."""


class AmbiguousWord(ConvnegError):
    """Word resolvable in more than one loaded lexicon."""


class UnknownActor(ConvnegError):
    """Actor not declared in the text circuit."""


class ZeroNegation(ConvnegError):
    """Conversational negation collapsed to the zero operator."""


class TooManyWords(ConvnegError):
    """Word string longer than the negation-set enumeration guard."""


class AlignmentError(ConvnegError):
    """Word strings cannot be compared position by position."""


class TooLarge(ConvnegError):
    """Composite state would exceed the dimension guard."""
