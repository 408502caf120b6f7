"""Dense real symmetric PSD matrices and the algebra used by every other module.

Operators are immutable values: each function returns a fresh instance and the
underlying arrays are marked read-only, so they can be shared freely across
threads. All eigendecompositions go through ``numpy.linalg.eigh`` (full
symmetric decomposition, no iterative methods) for determinism at the small
dimensions this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    EmptyMixture,
    InvalidIndex,
    InvalidOperator,
    ParseError,
    ZeroOperator,
)

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
EQ_TOL = 1e-9
ZERO_TRACE_TOL = 1e-12
PINV_TOL = 1e-10


def psd_floor(lam_max: float) -> float:
    """Most negative eigenvalue still read as rounding of a PSD matrix.

    -PSD_TOL up to unit scale, then -PSD_TOL times the largest eigenvalue:
    an eigensolver's error grows with the matrix norm, so e.g. the
    pseudoinverse of an ill-conditioned operator (norm 1e8) shows
    eigenvalues of -1e-8 in its null space.
    """
    return -PSD_TOL * max(1.0, lam_max)


def _as_square(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidOperator(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidOperator("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class Operator:
    """Real symmetric positive semidefinite matrix with optional basis labels.

    Construction validates symmetry (tolerance 1e-12) and positivity:
    eigenvalues below ``psd_floor`` of the largest eigenvalue are rejected,
    those between it and 0 are clamped to zero by projecting onto the PSD
    cone. ``labels``, when non-empty, names the basis vectors and must be
    unique.
    """

    matrix: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        a = _as_square(self.matrix)
        defect = float(np.max(np.abs(a - a.T)))
        if defect > SYMMETRY_TOL:
            raise InvalidOperator(f"matrix is not symmetric (defect {defect:.3e})")
        a = (a + a.T) / 2.0
        lam = np.linalg.eigvalsh(a)
        lam_min = float(lam[0])
        if lam_min < psd_floor(float(lam[-1])):
            raise InvalidOperator(f"matrix is not PSD (min eigenvalue {lam_min:.3e})")
        if lam_min < 0.0:
            lam, vecs = np.linalg.eigh(a)
            a = vecs @ np.diag(np.clip(lam, 0.0, None)) @ vecs.T
            a = (a + a.T) / 2.0
        labels = tuple(self.labels)
        if labels:
            if len(labels) != a.shape[0]:
                raise InvalidOperator(
                    f"{len(labels)} labels for dimension {a.shape[0]}"
                )
            if len(set(labels)) != len(labels):
                raise InvalidOperator("basis labels must be unique")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues."""
        return np.linalg.eigvalsh(self.matrix)

    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues()[-1])

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def is_zero(self, tol: float = ZERO_TRACE_TOL) -> bool:
        return self.trace() <= tol

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()

    def allclose(self, other: "Operator", tol: float = EQ_TOL) -> bool:
        return self.dim == other.dim and bool(
            np.all(np.abs(self.matrix - other.matrix) <= tol)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operator(dim={self.dim}, trace={self.trace():.6g})"


@dataclass(frozen=True)
class OperatorDiagnostics:
    """Validation report: the invariants hold iff ``passed`` is true."""

    dim: int
    symmetry_defect: float
    min_eigenvalue: float
    trace: float
    labels_ok: bool
    max_eigenvalue: float

    @property
    def passed(self) -> bool:
        return (
            self.symmetry_defect <= SYMMETRY_TOL
            and self.min_eigenvalue >= psd_floor(self.max_eigenvalue)
            and self.labels_ok
        )


def pure(index: int, dim: int) -> Operator:
    """Rank-1 projector onto basis vector ``index`` of a ``dim``-dimensional space."""
    if dim < 1:
        raise InvalidIndex(f"dimension must be positive, got {dim}")
    if not 0 <= index < dim:
        raise InvalidIndex(f"index {index} out of range for dimension {dim}")
    m = np.zeros((dim, dim))
    m[index, index] = 1.0
    return Operator(m)


def identity(dim: int, labels: Sequence[str] = ()) -> Operator:
    return Operator(np.eye(dim), tuple(labels))


def diagonal(entries: Sequence[float], labels: Sequence[str] = ()) -> Operator:
    return Operator(np.diag(np.asarray(entries, dtype=np.float64)), tuple(labels))


def mix(terms: Sequence[tuple[float, Operator]]) -> Operator:
    """Weighted sum of operators; PSD by closure of the PSD cone."""
    if not terms:
        raise EmptyMixture("mixture needs at least one term")
    weights = [float(w) for w, _ in terms]
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    if all(w == 0 for w in weights):
        raise EmptyMixture("all mixture weights are zero")
    dim = terms[0][1].dim
    acc = np.zeros((dim, dim))
    for w, op in terms:
        if op.dim != dim:
            raise DimMismatch(f"mixture of dim {op.dim} operator into dim {dim}")
        acc += w * op.matrix
    return Operator(acc, terms[0][1].labels)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; labels combine as ``"x⊗y"`` when both sides are labelled."""
    m = np.kron(a.matrix, b.matrix)
    labels: tuple[str, ...] = ()
    if a.labels and b.labels:
        labels = tuple(f"{la}⊗{lb}" for la in a.labels for lb in b.labels)
    return Operator(m, labels)


def partial_trace(a: Operator, shape: Sequence[int], keep: int) -> Operator:
    """Trace out every tensor factor except ``keep``; ``shape`` lists the
    factor dimensions in order.

    Preserves the total trace. The result carries no basis labels because
    composite labels are not decomposable in general.
    """
    dims = tuple(int(d) for d in shape)
    if not dims or any(d < 1 for d in dims):
        raise InvalidOperator(f"factor dims must be positive, got {dims}")
    if math.prod(dims) != a.dim:
        raise DimMismatch(f"shape {dims} does not factor dimension {a.dim}")
    if not 0 <= keep < len(dims):
        raise InvalidIndex(f"keep={keep} out of range for {len(dims)} factors")
    n = len(dims)
    t = a.matrix.reshape(dims + dims)
    row_axes = list(range(n))
    col_axes = [i + n if i == keep else i for i in range(n)]
    reduced = np.einsum(t, row_axes + col_axes, [keep, keep + n])
    return Operator((reduced + reduced.T) / 2.0)


def hadamard(a: Operator, b: Operator) -> Operator:
    """Entrywise product; PSD by the Schur product theorem."""
    if a.dim != b.dim:
        raise DimMismatch(f"hadamard of dims {a.dim} and {b.dim}")
    return Operator(a.matrix * b.matrix, a.labels or b.labels)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(matrix)
    root = vecs @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vecs.T
    return (root + root.T) / 2.0


def conjugate_update(state: Operator, effect: Operator) -> Operator:
    """Update ``state`` by ``effect`` via sqrt(effect) @ state @ sqrt(effect).

    Trace-monotone whenever the effect is sup-normalized.
    """
    if state.dim != effect.dim:
        raise DimMismatch(f"update of dim {state.dim} state by dim {effect.dim} effect")
    s = _psd_sqrt(effect.matrix)
    out = s @ state.matrix @ s
    return Operator((out + out.T) / 2.0, state.labels)


def normalize(a: Operator, mode: str = "trace") -> Operator:
    """Scale to unit trace (state view) or unit max eigenvalue (predicate view)."""
    if mode == "trace":
        t = a.trace()
        if t <= ZERO_TRACE_TOL:
            raise ZeroOperator("cannot trace-normalize the zero operator")
        return Operator(a.matrix / t, a.labels)
    if mode == "sup":
        top = a.max_eigenvalue()
        if top <= ZERO_TRACE_TOL:
            raise ZeroOperator("cannot sup-normalize the zero operator")
        return Operator(a.matrix / top, a.labels)
    raise ValueError(f"unknown normalization mode {mode!r}")


def pseudoinverse(a: Operator, tol: float = PINV_TOL) -> Operator:
    """Moore-Penrose pseudoinverse; eigenvalues <= tol are treated as zero."""
    lam, vecs = np.linalg.eigh(a.matrix)
    support = lam > tol
    if not np.any(support):
        raise ZeroOperator("pseudoinverse of the (numerically) zero operator")
    inv = np.where(support, 1.0 / np.where(support, lam, 1.0), 0.0)
    out = vecs @ np.diag(inv) @ vecs.T
    return Operator((out + out.T) / 2.0, a.labels)


def support_projector(a: Operator, tol: float = PINV_TOL) -> Operator:
    """Orthogonal projector onto the range of ``a``."""
    lam, vecs = np.linalg.eigh(a.matrix)
    keep = lam > tol
    out = vecs[:, keep] @ vecs[:, keep].T
    return Operator((out + out.T) / 2.0, a.labels)


def validate(a: Operator | np.ndarray) -> OperatorDiagnostics:
    """Diagnostic check of the operator invariants; never raises."""
    if isinstance(a, Operator):
        m, labels = a.matrix, a.labels
    else:
        m = np.asarray(a, dtype=np.float64)
        labels = ()
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        return OperatorDiagnostics(
            0, float("inf"), float("-inf"), float("nan"), False, float("nan")
        )
    defect = float(np.max(np.abs(m - m.T)))
    sym = (m + m.T) / 2.0
    lam = np.linalg.eigvalsh(sym)
    labels_ok = not labels or (
        len(labels) == m.shape[0] and len(set(labels)) == len(labels)
    )
    return OperatorDiagnostics(
        m.shape[0], defect, float(lam[0]), float(np.trace(m)), labels_ok, float(lam[-1])
    )


# ---------------------------------------------------------------------------
# Text format: line 1 "OPERATOR <dim>", line 2 "LABELS <comma list or ->",
# then dim rows of dim space-separated entries at full (round-trip) precision.
# ---------------------------------------------------------------------------


def operator_to_lines(a: Operator) -> list[str]:
    lines = [f"OPERATOR {a.dim}"]
    lines.append("LABELS " + (",".join(a.labels) if a.labels else "-"))
    for row in a.matrix:
        lines.append(" ".join(repr(float(x)) for x in row))
    return lines


class LineReader:
    """Iterator over raw text lines that counts what it has consumed.

    ``lineno`` is the 1-based number of the last line consumed, for error
    messages. Iteration ends quietly at end of input; ``require`` raises
    ParseError there instead.
    """

    def __init__(self, lines: Iterable[str]):
        self._lines = iter(lines)
        self.lineno = 0

    def __iter__(self) -> "LineReader":
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        self.lineno += 1
        return line.rstrip("\n")

    def require(self, what: str) -> str:
        """The next line; ParseError("unexpected end of <what>") if none."""
        try:
            line = next(self._lines)
        except StopIteration:
            raise ParseError(f"unexpected end of {what}", self.lineno) from None
        self.lineno += 1
        return line.rstrip("\n")


def operator_from_lines(reader: LineReader) -> Operator:
    """Parse one operator block from ``reader``; errors name the reader's line.

    The loader re-validates all invariants.
    """
    header = reader.require("operator block")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "OPERATOR":
        raise ParseError(f"expected 'OPERATOR <dim>', got {header!r}", reader.lineno)
    try:
        dim = int(parts[1])
    except ValueError:
        raise ParseError(f"bad operator dimension {parts[1]!r}", reader.lineno) from None
    if dim < 1:
        raise ParseError(f"operator dimension must be positive, got {dim}", reader.lineno)
    label_line = reader.require("operator block")
    if not label_line.startswith("LABELS "):
        raise ParseError(f"expected 'LABELS ...', got {label_line!r}", reader.lineno)
    raw = label_line[len("LABELS ") :].strip()
    labels: tuple[str, ...] = () if raw == "-" else tuple(raw.split(","))
    rows = []
    for _ in range(dim):
        row_line = reader.require("operator block")
        fields = row_line.split()
        if len(fields) != dim:
            raise ParseError(f"expected {dim} entries, got {len(fields)}", reader.lineno)
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise ParseError(f"bad matrix entry in {row_line!r}", reader.lineno) from None
    try:
        return Operator(np.array(rows), labels)
    except InvalidOperator as exc:
        raise ParseError(f"invalid operator ending at this line: {exc}", reader.lineno) from exc


def operator_to_text(a: Operator) -> str:
    return "\n".join(operator_to_lines(a)) + "\n"


def operator_from_text(text: str) -> Operator:
    return operator_from_lines(LineReader(text.splitlines()))
