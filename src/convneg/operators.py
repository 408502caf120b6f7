"""Real symmetric PSD operators and the algebra used by every other module.

An operator is stored in one of two ways, chosen once at construction. A
matrix whose off-diagonal entries are all exactly zero is kept as its
diagonal alone, whether it was given as a vector or as a matrix. Every
operator a taxonomy-built lexicon holds is one: indicators over descendant
leaves and mixtures of them. Validation, the spectrum, the trace, ``mix``,
``hadamard``, ``normalize``, ``complement``, ``trace_product``,
``pseudoinverse``, ``support_projector`` and ``conjugate_update`` (of a
diagonal state by a diagonal effect) then cost O(n), and the dense
``matrix`` is built afresh on each read and not kept. Any other matrix, such
as a store-injected or rotated operator, is kept dense with the eigenvalues
of the one dense check (``validate`` reports it), which symmetrizes it and
runs ``eigvalsh`` once; those three, ``tensor`` and ``partial_trace``
compute densely on it, their result stored by the same rule. Both kinds
accept and reject the same matrices, since a diagonal matrix's eigenvalues
are its entries, and give the same entries; callers see no difference but
speed. (For every diagonal form the O(n) form is the definition; the dense
path agrees with it wherever LAPACK does not rescale, that is while the
largest entry lies between about 1e-146 and 1e145.) Validation keeps a dense
matrix's entries; only a diagonal's entries between ``psd_floor`` and 0
become exactly 0. This module holds the algebra alone: the text of a lexicon
store is read and written by ``lexicon``.

Operators are immutable values: each function returns a fresh instance and the
underlying arrays are marked read-only, so they can be shared freely across
threads. An operator keeps its trace once computed, but no pickle or copy
carries it. All eigendecompositions go through ``numpy.linalg.eigh`` (full
symmetric decomposition, no iterative methods) for determinism at the small
dimensions this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimMismatch,
    EmptyMixture,
    InvalidIndex,
    InvalidOperator,
    NotSubnormalized,
    ZeroOperator,
)

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
ZERO_TRACE_TOL = 1e-12
PINV_TOL = 1e-10
# complement accepts a predicate whose top eigenvalue exceeds 1 by this much
# (rounding in sup-normalization), and clamps what it causes below psd_floor
COMPLEMENT_TOL = 1e-9


def psd_floor(lam_max: float) -> float:
    """Most negative eigenvalue still read as rounding of a PSD matrix.

    -PSD_TOL up to unit scale, then -PSD_TOL times the largest eigenvalue:
    an eigensolver's error grows with the matrix norm, so e.g. the
    pseudoinverse of an ill-conditioned operator (norm 1e8) shows
    eigenvalues of -1e-8 in its null space. Between this floor and 0 a
    diagonal's entries become exactly 0; a dense matrix is kept as it is.
    """
    return -PSD_TOL * max(1.0, lam_max)


def _as_square(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidOperator(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidOperator("matrix entries must be finite")
    return a


def _spectral(m: np.ndarray, f) -> np.ndarray:
    """V·f(Λ)·Vᵀ for the symmetric m = V·Λ·Vᵀ (``eigh``), symmetrized."""
    lam, vecs = np.linalg.eigh(m)
    out = vecs @ np.diag(f(lam)) @ vecs.T
    return (out + out.T) / 2.0


def _checked_diagonal(d: np.ndarray) -> np.ndarray:
    """The dense PSD check for a diagonal matrix, in O(n).

    Its eigenvalues are the entries ``d``: the same floor rejects, the same
    window is clamped to zero. Returns ``d`` itself when nothing is clamped.
    """
    lam_min, lam_max = float(d.min()), float(d.max())
    # min and max propagate NaN, and an infinite entry is one of them
    if not (math.isfinite(lam_min) and math.isfinite(lam_max)):
        raise InvalidOperator("matrix entries must be finite")
    if lam_min < psd_floor(lam_max):
        raise InvalidOperator(f"matrix is not PSD (min eigenvalue {lam_min:.3e})")
    if lam_min < 0.0:
        return np.maximum(d, 0.0)
    return d


def _dense_check(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetry defect, sym = (a + a.T) / 2 and sym's ascending eigenvalues of a
    square ``a``, each computed once; the eigenvalues NaN, unwarned, if sym overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect, sym = float(np.max(np.abs(a - a.T))), (a + a.T) / 2.0
    lam = np.linalg.eigvalsh(sym) if np.isfinite(sym).all() else np.full(len(a), math.nan)
    return defect, sym, lam


def _checked_dense(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_dense_check`` raised for a finite ``a``: returns sym and its eigenvalues."""
    defect, sym, lam = _dense_check(a)
    if defect > SYMMETRY_TOL:
        raise InvalidOperator(f"matrix is not symmetric (defect {defect:.3e})")
    if math.isnan(lam[0]):
        raise InvalidOperator(f"entry magnitude {np.abs(a).max():.3e} overflows (a + a.T) / 2")
    if lam[0] < psd_floor(lam[-1]):
        raise InvalidOperator(f"matrix is not PSD (min eigenvalue {lam[0]:.3e})")
    return sym, lam


def _checked_labels(labels: Sequence[str], dim: int) -> tuple[str, ...]:
    labels = tuple(labels)
    if labels:
        if len(labels) != dim:
            raise InvalidOperator(f"{len(labels)} labels for dimension {dim}")
        if len(set(labels)) != len(labels):
            raise InvalidOperator("basis labels must be unique")
    return labels


class Operator:
    """Real symmetric positive semidefinite matrix with optional basis labels.

    Construction validates symmetry (tolerance 1e-12) and positivity:
    eigenvalues below ``psd_floor`` of the largest eigenvalue are rejected,
    those between it and 0 are read as rounding. A diagonal's entries in
    that window become exactly 0; a dense matrix keeps its entries
    (symmetrized as (m + m.T) / 2), so its smallest eigenvalue may stay just
    below 0. ``labels``, when non-empty, names the basis vectors and must be
    unique. A diagonal matrix is stored as its diagonal (see the module
    docstring); ``matrix`` is always the dense, read-only matrix. The trace
    is kept once computed; pickles and copies carry none and compute it again.
    """

    _trace: float | None = None  # trace(), once computed

    def __init__(self, matrix, labels: Sequence[str] = ()):
        a = _as_square(matrix)
        diag = np.diagonal(a)
        if np.count_nonzero(a) == np.count_nonzero(diag):
            # a copy, so the n x n array is not kept alive as its base
            checked, dense, lam = _checked_diagonal(diag.copy()), None, None
        else:
            checked, (dense, lam) = None, _checked_dense(a)
        self._init(checked, dense, _checked_labels(labels, a.shape[0]), lam)

    def _init(self, diag: np.ndarray | None, matrix: np.ndarray | None, labels, spectrum):
        for arr in (diag, matrix, spectrum):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "_diag", diag)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_spectrum", spectrum)
        object.__setattr__(self, "labels", labels)
        return self

    @classmethod
    def _of(cls, diag: np.ndarray, labels) -> Operator:
        """The diagonal operator of an already-checked ``diag`` and labels, taking the
        array itself, made read-only; a dense one comes only from the constructor."""
        return cls.__new__(cls)._init(diag, None, labels, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Operator is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Operator is immutable (cannot delete {name!r})")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_trace"}

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only. A diagonal operator builds a fresh one
        on each read and keeps none, so reading it leaves no n x n matrix on a
        shared operator."""
        if self._matrix is not None:
            return self._matrix
        m = np.diag(self._diag)
        m.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return len(self._diag) if self._diag is not None else self._matrix.shape[0]

    def trace(self) -> float:
        """Sum of the main diagonal: inf, unwarned, where that overflows."""
        t = self._trace
        if t is None:
            with np.errstate(over="ignore"):
                t = float(self._diag.sum() if self._diag is not None else np.trace(self._matrix))
            object.__setattr__(self, "_trace", t)
        return t

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, a fresh array."""
        return np.sort(self._diag) if self._diag is not None else self._spectrum.copy()

    def max_eigenvalue(self) -> float:
        return float(self._diag.max() if self._diag is not None else self._spectrum[-1])

    def min_eigenvalue(self) -> float:
        return float(self._diag.min() if self._diag is not None else self._spectrum[0])

    def is_zero(self) -> bool:
        """Trace at most ZERO_TRACE_TOL: the zero every function here refuses."""
        return self.trace() <= ZERO_TRACE_TOL

    def diagonal(self) -> np.ndarray:
        return _main_diagonal(self).copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operator(dim={self.dim}, trace={self.trace():.6g})"


def _main_diagonal(a: Operator) -> np.ndarray:
    """Read-only diagonal of ``a`` without a copy."""
    return a._diag if a._diag is not None else np.diagonal(a._matrix)


def _entries(a: Operator) -> np.ndarray:
    """The diagonal of a diagonal operator, else its dense matrix."""
    return a._diag if a._diag is not None else a._matrix


def _from_entries(x: np.ndarray, labels: tuple[str, ...]) -> Operator:
    """Inverse of ``_entries``: a dense operator from a fresh 2-D array, or a
    diagonal one from a fresh 1-D array, validated in O(n). ``labels`` must
    already fit the size."""
    if x.ndim == 2:
        return Operator(x, labels)
    return Operator._of(_checked_diagonal(x), labels)


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


def identity(dim: int, labels: Sequence[str] = ()) -> Operator:
    return diagonal(np.ones(dim), labels)


def diagonal(entries: Sequence[float], labels: Sequence[str] = ()) -> Operator:
    """The diagonal operator with these entries; O(n), no dense matrix built."""
    d = np.array(entries, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise InvalidOperator(f"expected a nonempty vector of entries, got shape {d.shape}")
    # entries before labels, the order in which Operator checks diag(d)
    return Operator._of(_checked_diagonal(d), _checked_labels(labels, d.size))


def mix(terms: Sequence[tuple[float, Operator]]) -> Operator:
    """Weighted sum of operators; PSD by closure of the PSD cone."""
    if not terms:
        raise EmptyMixture("mixture needs at least one term")
    weights = [float(w) for w, _ in terms]
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    if all(w == 0 for w in weights):
        raise EmptyMixture("all mixture weights are zero")
    ops = [op for _, op in terms]
    dim = ops[0].dim
    for op in ops:
        if op.dim != dim:
            raise DimMismatch(f"mixture of dim {op.dim} operator into dim {dim}")
    diag = all(op._diag is not None for op in ops)
    acc = np.zeros(dim if diag else (dim, dim))
    for w, op in zip(weights, ops):
        acc += w * (op._diag if diag else op.matrix)
    return _from_entries(acc, ops[0].labels)


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
    """Entrywise product; PSD by the Schur product theorem. Diagonal when
    either factor is."""
    if a.dim != b.dim:
        raise DimMismatch(f"hadamard of dims {a.dim} and {b.dim}")
    labels = a.labels or b.labels
    if a._diag is not None or b._diag is not None:
        return _from_entries(_main_diagonal(a) * _main_diagonal(b), labels)
    return Operator(a.matrix * b.matrix, labels)


def complement(p: Operator) -> Operator:
    """I - P for a sup-normalized (or sub-normalized) predicate.

    A top eigenvalue up to COMPLEMENT_TOL above 1 is accepted as rounding.
    A diagonal I - P sets the negative entries it causes to 0; a dense one
    is projected onto the PSD cone only if the dense check fails it.
    """
    top = p.max_eigenvalue()
    if top > 1.0 + COMPLEMENT_TOL:
        raise NotSubnormalized(f"complement needs max eigenvalue <= 1, got {top!r}")
    if p._diag is not None:
        return _from_entries(np.maximum(1.0 - p._diag, 0.0), p.labels)
    m = np.eye(p.dim) - p.matrix
    try:
        return Operator(m, p.labels)  # dense, and symmetric bit for bit: kept as it is
    except InvalidOperator:
        return Operator(_spectral(m, lambda lam: np.clip(lam, 0.0, None)), p.labels)


def trace_product(a: Operator, b: Operator) -> float:
    """Tr(A·B).

    O(n) when either operand is diagonal, since Tr(A·diag(b)) = sum A_ii b_i
    for any A. That sum is correctly rounded (``math.fsum``), so it does not
    depend on the order of the basis: leaves that tie exactly, tie in floats.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"trace product of dims {a.dim} and {b.dim}")
    if a._diag is not None or b._diag is not None:
        return math.fsum((_main_diagonal(a) * _main_diagonal(b)).tolist())
    return float(np.sum(a.matrix * b.matrix))


def conjugate_update(state: Operator, effect: Operator) -> Operator:
    """Update ``state`` by ``effect`` via sqrt(effect) @ state @ sqrt(effect).

    Trace-monotone whenever the effect is sup-normalized. When both are
    diagonal this is (sqrt(e)·s)·sqrt(e) entrywise, the dense path's
    products in its order; adding 0.0 gives a zero the sign the dense
    path's sums give it.
    """
    if state.dim != effect.dim:
        raise DimMismatch(f"update of dim {state.dim} state by dim {effect.dim} effect")
    if state._diag is not None and effect._diag is not None:
        root = np.sqrt(effect._diag)
        return _from_entries(root * state._diag * root + 0.0, state.labels)
    s = _spectral(effect.matrix, lambda lam: np.sqrt(np.clip(lam, 0.0, None)))
    out = s @ state.matrix @ s
    return Operator((out + out.T) / 2.0, state.labels)


def normalize(a: Operator, mode: str = "trace") -> Operator:
    """Scale to unit trace (state view) or unit max eigenvalue (predicate
    view); either refuses exactly what ``is_zero`` calls zero, and an overflowing scale."""
    if mode == "trace":
        scale = a.trace()
    elif mode == "sup":
        scale = a.max_eigenvalue()
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if a.is_zero():
        raise ZeroOperator(f"cannot {mode}-normalize the zero operator")
    if scale == math.inf:
        what = "trace" if mode == "trace" else "max eigenvalue"
        raise InvalidOperator(f"cannot {mode}-normalize: its {what} overflows to inf")
    try:
        return _from_entries(_entries(a) / scale, a.labels)
    except InvalidOperator as exc:  # scaled up, rounding below the absolute PSD floor
        raise InvalidOperator(
            f"cannot {mode}-normalize: min eigenvalue {a.min_eigenvalue():.3e} "
            f"at trace {a.trace():.3e} falls below the PSD floor once scaled"
        ) from exc


def pseudoinverse(a: Operator) -> Operator:
    """Moore-Penrose pseudoinverse; eigenvalues <= PINV_TOL are treated as
    zero. For a diagonal operator, 1/d_i where d_i > PINV_TOL, else 0."""

    def invert(lam: np.ndarray) -> np.ndarray:
        support = lam > PINV_TOL
        if not np.any(support):
            raise ZeroOperator("pseudoinverse of the (numerically) zero operator")
        return np.where(support, 1.0 / np.where(support, lam, 1.0), 0.0)

    if a._diag is not None:
        return _from_entries(invert(a._diag), a.labels)
    return Operator(_spectral(a._matrix, invert), a.labels)


def support_projector(a: Operator) -> Operator:
    """Orthogonal projector onto the range of ``a`` (eigenvalues above
    PINV_TOL): for a diagonal operator, the indicator of d_i > PINV_TOL."""
    if a._diag is not None:
        return _from_entries((a._diag > PINV_TOL).astype(np.float64), a.labels)
    lam, vecs = np.linalg.eigh(a._matrix)
    keep = lam > PINV_TOL
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
    defect, _, lam = _dense_check(m)
    labels_ok = not labels or (len(labels) == m.shape[0] and len(set(labels)) == len(labels))
    with np.errstate(over="ignore"):
        trace = float(np.trace(m))
    return OperatorDiagnostics(m.shape[0], defect, float(lam[0]), trace, labels_ok, float(lam[-1]))
