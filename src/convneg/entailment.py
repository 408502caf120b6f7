"""Graded entailment between operators.

Two measures are provided. ``loewner_k`` is order-theoretic: the largest k
with B - k*A still PSD, clamped into [0, 1], in O(n) on two diagonals.
``overlap_score`` reads the first argument as a mixture (trace-normalized)
and asks what fraction of it is consistent with a predicate, optionally
smoothed by the predicate word's worldly context so that near-misses grade
above zero instead of collapsing to orthogonality.

A lexicon is read-only, so it keeps the smoothed predicates built for the
sigma last used (``Lexicon._smoothed``), each with every ``overlap_score``
computed with it, weakly keyed by state (operators hash by identity), and
each finished ``alternatives`` ranking. When every leaf predicate is
diagonal their diagonals are stacked once, a smoothed one then viewing its
row, and all leaves are scored in one product with the state's main diagonal;
``_fsum_rows`` gives each row ``trace_product``'s correctly rounded sum, so
scores and exact ties do not change: one float64 pass, the same on every
platform, proves most rows' sums and sends the rest to ``math.fsum``. Dense
ones are scored one by one.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import DimMismatch, InvalidOperator, UnknownWord, ZeroOperator
from .lexicon import Lexicon
from .operators import (
    Operator,
    PINV_TOL,
    _main_diagonal,
    _zero_trace,
    mix,
    normalize,
    trace_product,
)

SIGMA_DEFAULT = 0.5
SUPPORT_RESIDUAL_TOL = 1e-8
# LAPACK's symmetric eigensolvers (dsyevd) rescale a matrix whose largest
# entry lies outside about [1e-146, 1e146], which rounds its eigenvalues
EIGH_UNSCALED = (1e-140, 1e140)
_BLOCK = 64
# narrower stacks take math.fsum alone, which is faster there; square random
# stacks, timeit minimum, one BLAS thread, 2-vCPU x86-64, pass vs fsum:
# 32.0 vs 29.1 us at 28 columns, 33.2 vs 37.7 at 32, 36.3 vs 58.0 at 40
_NARROW = 32


def _check_sigma(sigma: float) -> float:
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    return sigma


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _diagonal_k(a: np.ndarray, b: np.ndarray) -> float | None:
    """``loewner_k_raw`` of diag(a) below diag(b), bit for bit, in O(n); None
    where the dense path's eigensolver would rescale (``EIGH_UNSCALED``)."""
    lo, hi = EIGH_UNSCALED
    top_a, top_b = float(a.max()), float(b.max())
    keep = b > PINV_TOL * top_b
    residual = float(a.max(where=~keep, initial=0.0))
    if any(0.0 < x < lo or x > hi for x in (top_a, top_b, residual)):
        return None
    if residual > SUPPORT_RESIDUAL_TOL * top_a:
        return 0.0
    root, inside = np.sqrt(b[keep]), a[keep]
    # the dense path's two solves: OpenBLAS divides one right-hand side by
    # the pivot and multiplies several by its reciprocal
    m = inside / root / root if root.size == 1 else inside * (1.0 / root) * (1.0 / root)
    top = float(m.max())
    if 0.0 < top < lo or top > hi:
        return None
    return 1.0 / top if top > 0.0 else 0.0


def loewner_k_raw(a: Operator, b: Operator) -> float:
    """Unclamped max{k >= 0 : B - k*A is PSD}.

    Zero when the support of A escapes the support of B (projector residual
    above 1e-8, measured relative to A's largest eigenvalue); may exceed 1
    otherwise. Exposed separately so the scale law k(cA, B) = k(A, B)/c can
    be checked before clamping. One eigendecomposition of B gives its support
    (eigenvalues above PINV_TOL relative to the largest) and the basis that
    restricts both operators to it; k is 1 over the top eigenvalue of A's
    restriction whitened by the Cholesky factor of B's (two triangular
    solves). k(A, A) is 1 only up to rounding: where B's support is one
    direction the solves divide by its root twice, so
    k(diag(0.3), diag(0.3)) is one ulp below 1. Two diagonals take an O(n)
    form with the same roundings: support b_i > PINV_TOL * max(b), residual
    max a_i off it, and on it k = 1 / max(a_i * (1/r_i) * (1/r_i)) with
    r_i = sqrt(b_i), or 1 / max(a_i / r_i / r_i) when the support is one
    direction.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"entailment between dims {a.dim} and {b.dim}")
    if a.is_zero():
        raise ZeroOperator("graded entailment needs a nonzero left operand")
    if b.is_zero():
        return 0.0
    if a._diag is not None and b._diag is not None:
        k = _diagonal_k(a._diag, b._diag)
        if k is not None:
            return k
    lam, vecs = np.linalg.eigh(b.matrix)
    keep = lam > PINV_TOL * lam[-1]
    kernel = vecs[:, ~keep]
    comp = kernel @ kernel.T
    outside = comp @ a.matrix @ comp
    residual = float(np.linalg.eigvalsh((outside + outside.T) / 2)[-1])
    if residual > SUPPORT_RESIDUAL_TOL * a.max_eigenvalue():
        return 0.0
    v = vecs[:, keep]
    tb = v.T @ b.matrix @ v
    chol = np.linalg.cholesky((tb + tb.T) / 2)
    m = np.linalg.solve(chol, np.linalg.solve(chol, v.T @ a.matrix @ v).T)
    top = float(np.linalg.eigvalsh((m + m.T) / 2)[-1])
    if top <= 0.0:
        return 0.0
    return 1.0 / top


def loewner_k(a: Operator, b: Operator) -> float:
    """Graded Loewner entailment of A below B, clamped into [0, 1]."""
    return _clamp01(loewner_k_raw(a, b))


class _Smoothed:
    """One lexicon's smoothed predicates at one sigma.

    ``words`` maps a word to its predicate and its overlaps by state.
    ``diags`` stacks the leaves' predicate diagonals, once all are diagonal,
    and ``rankings`` keeps each negated state's ranked leaf names and scores.
    """

    __slots__ = ("words", "diags", "rankings")

    def __init__(self) -> None:
        self.words: dict[str, tuple] = {}
        self.diags: np.ndarray | None = None
        self.rankings = weakref.WeakKeyDictionary()


def _memo(lex: Lexicon, sigma: float) -> _Smoothed:
    """The lexicon's table for ``sigma``, checked when new; one for another sigma replaces it."""
    memo = lex._smoothed
    table = memo.get(sigma)
    if table is None:
        _check_sigma(sigma)
        memo.clear()
        table = memo[sigma] = _Smoothed()
    return table


def _record(
    word: str, lex: Lexicon, sigma: float, table: _Smoothed, row: np.ndarray | None = None
) -> tuple:
    """The word's entry in ``table``, built if it has none. A diagonal
    predicate is copied into the stack ``row``, if one is given, and a
    smoothed one (sigma > 0) is then held as a view of that row."""
    hit = table.words.get(word)
    if hit is None:
        pred = p = lex.word_operator(word)
        if sigma:
            pred = normalize(mix([(1.0, p), (sigma, lex.worldly_context(word))]), "sup")
        hit = table.words[word] = (pred, weakref.WeakKeyDictionary())
    if row is not None and hit[0]._diag is not None:
        row[:] = hit[0]._diag
        if sigma:
            hit = table.words[word] = (Operator._of(row, hit[0].labels), hit[1])
    return hit


def smoothed_predicate(word: str, lex: Lexicon, sigma: float = SIGMA_DEFAULT) -> Operator:
    """Predicate of ``word`` blended with its worldly context.

    sigma = 0 returns the word operator unchanged; otherwise the sum
    P_word + sigma * wc_word is sup-normalized back to a predicate. It is
    built once per lexicon for the sigma last used, and then returned as is.
    """
    return _record(word, lex, sigma, _memo(lex, sigma))[0]


def _fsum_rows(diags: np.ndarray, v: np.ndarray) -> list[float]:
    """``[math.fsum(row) for row in (diags * v).tolist()]``, bit for bit and
    with the same errors, formed ``_BLOCK`` rows at a time.

    A row x of n >= ``_NARROW`` entries is split in float64 (Rump, Ogita and
    Oishi, Accurate Floating-Point Summation Part I, SIAM J. Sci. Comput.
    31(1), 2008). With u = 2**-53, 2**k >= n + 2, max|x_j| < 2**e and
    sigma = 2**(k + e), q_j = (x_j + sigma) - sigma is x_j rounded to a
    multiple of u*sigma, |q_j| <= 2**e, and r_j = x_j - q_j is exact with
    |r_j| <= u*sigma (their Lemma 3.3). Each partial sum of the q_j is a
    multiple of u*sigma below n * 2**e < sigma, so t = sum q_j is exact in
    any order, and the row's exact sum is s = t + sum r_j. The float64 sum
    rho of the r_j is within gamma_{n-1} * sum|r_j| <= gamma_{n-1} * n*u*sigma
    of theirs (Higham, Accuracy and Stability of Numerical Algorithms,
    section 4.2). As gamma_{n-1} * n*u < 2*(n-1)*n*u**2 <= ``bound``, a power
    of two, B = bound * sigma bounds that error: it is exact, or below
    2**-1074, where the error, a multiple of 2**-1074, is 0. Where sigma is
    subnormal every step is exact. With d = t + rho and TwoSum's exact
    c = t + rho - d, |s - d| <= |c| + B. d is returned, being s correctly
    rounded as fsum gives it, if one of two certificates holds:

    - |c| + B, as rounded, is below h, half the gap from |d| to the float
      below it (h is a float, so the exact value is below it too). The gap
      above is no smaller, so s lies strictly inside d's rounding interval.
      A zero d fails (h = 0).
    - rho is exact, so d is s rounded, exact ties to even as in fsum. Let
      2**(f-1) <= |x_j| < 2**f for the row's smallest nonzero |x_j|. Every
      x_j (a subnormal one too) and q_j, so every r_j and every partial sum
      of them, is a multiple of 2**(f-53). Those sums are at most
      n*u*sigma <= 2**(f + g) in magnitude, g = ceil(log2 n) + k + e - 53 - f,
      so they are exact while g <= 0, that is e - f <= ``spread``. A row of
      zeros has only zero remainders, and d = +0.0, as fsum gives.

    Both need a finite sigma: max|x_j| < 2**(1023 - k), which also keeps
    sum|x_j| below 2**1023, so fsum's partial sums stay finite. Other rows
    (a non-finite entry fails that test) go through fsum, and so does every
    row of a stack narrower than ``_NARROW`` columns.
    """
    n = diags.shape[1]
    if n < _NARROW:
        return [math.fsum(row) for row in (diags * v).tolist()]
    k = (n + 1).bit_length()
    bound = 2.0 ** (((n - 1) * n).bit_length() - 105)
    spread = 53 - k - (n - 1).bit_length()
    limit = 2.0 ** (1023 - k)
    sums: list[float] = []
    for i in range(0, len(diags), _BLOCK):
        x = diags[i : i + _BLOCK] * v
        with np.errstate(invalid="ignore", over="ignore"):
            top = np.abs(x).max(axis=1)
            e = np.frexp(top)[1]
            sigma = np.ldexp(1.0, e + k)
            q = x + sigma[:, None]
            q -= sigma[:, None]
            t = q.sum(axis=1)
            x -= q
            rho = x.sum(axis=1)
            d = t + rho
            z = d - t
            err = np.abs((t - (d - z)) + (rho - z)) + bound * sigma
            ok = (err < np.abs(d - np.nextafter(d, 0)) / 2) | (top == 0)
            ok &= top < limit
        sums += d.tolist()
        for j in np.flatnonzero(~ok).tolist():
            row = diags[i + j] * v
            if top[j] < limit and e[j] - np.frexp(np.abs(row[row != 0]).min())[1] <= spread:
                continue
            sums[i + j] = math.fsum(row.tolist())
    return sums


def _state_trace(a: Operator) -> float:
    """The trace of the state ``a`` to score: ZeroOperator if zero, InvalidOperator if inf."""
    if _zero_trace(t := a.trace()):
        raise ZeroOperator("overlap score needs a nonzero state")
    if t == math.inf:
        raise InvalidOperator("overlap score needs a state whose trace does not overflow to inf")
    return t


def _leaf_scores(a: Operator, lex: Lexicon, sigma: float) -> list[float]:
    """``overlap_score(a, leaf, lex, sigma)`` for each leaf of ``lex``.

    The leaf predicates are written into one stack as they are built; once
    all are diagonal the stack is kept, and ``_fsum_rows`` sums each row of
    it times ``a``'s main diagonal as ``trace_product`` would. Otherwise each
    leaf goes through ``trace_product``.
    """
    t = _state_trace(a)
    table = _memo(lex, sigma)
    if table.diags is None:  # a stack's leaves are words: none raises UnknownWord
        if not any(map(lex.__contains__, lex.leaves)):
            where = f"lexicon {lex.name!r}" if lex.name else "the lexicon"
            raise UnknownWord(
                f"no leaf of {where} is a word: its leaves are bare basis labels, "
                "so there are no alternatives to rank"
            )
        stack = np.empty((lex.dim, lex.dim))
        preds = [_record(leaf, lex, sigma, table, row)[0] for leaf, row in zip(lex.leaves, stack)]
    if a.dim != lex.dim:
        raise DimMismatch(f"state dim {a.dim} vs predicate dim {lex.dim}")
    if table.diags is None:
        if not all(p._diag is not None for p in preds):
            return [_clamp01(trace_product(a, p) / t) for p in preds]
        stack.setflags(write=False)
        table.diags = stack
    return [_clamp01(s / t) for s in _fsum_rows(table.diags, _main_diagonal(a))]


def overlap_score(
    a: Operator, word: str, lex: Lexicon, sigma: float = SIGMA_DEFAULT
) -> float:
    """Probability that the mixture ``a`` is consistent with ``word``.

    Tr(rho_a . smoothed predicate), which lies in [0, 1] because the state is
    trace-normalized and the predicate sup-normalized. Kept with the word's
    predicate, weakly keyed by ``a``.
    """
    table = lex._smoothed.get(sigma)  # only a valid sigma has one
    hit = table and table.words.get(word)
    if hit and a in hit[1]:  # a zero state is never kept
        return hit[1][a]
    t = _state_trace(a)
    pred, kept = _record(word, lex, sigma, _memo(lex, sigma))
    if a.dim != lex.dim:
        raise DimMismatch(f"state dim {a.dim} vs predicate dim {lex.dim}")
    score = kept[a] = _clamp01(trace_product(a, pred) / t)
    return score
