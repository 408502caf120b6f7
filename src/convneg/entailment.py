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
row, with two exponents that bound the stack's entries, and all leaves are
scored in one product with the state's main diagonal. Each row gets
``trace_product``'s correctly rounded sum, so scores and exact ties do not
change: the kept bounds and two of the state's prove at once that every
row's float64 pass is exact (``_stack_sums``), the same on every platform;
failing that, ``_fsum_rows`` certifies row by row and sends the rest to
``math.fsum``. Dense ones are scored one by one.
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
    mix,
    normalize,
    trace_product,
)

SIGMA_DEFAULT = 0.5
SUPPORT_RESIDUAL_TOL = 1e-8
_BLOCK = 64
# narrower stacks take math.fsum alone, which is faster there; ragged DAG
# stacks at sigma 0.5 against their words' negations, timeit minimum, one
# BLAS thread, 2-vCPU x86-64, kept-bounds pass vs fsum: 12.2 vs 10.5 us at
# 16 leaves, 12.2 vs 15.2 at 20, 12.7 vs 34.9 at 32
_NARROW = 20
_FLOAT_MAX = np.finfo(np.float64).max


def _check_sigma(sigma: float) -> float:
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    return sigma


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def loewner_k_raw(a: Operator, b: Operator) -> float:
    """Unclamped max{k >= 0 : B - k*A is PSD}.

    Zero when the support of A escapes the support of B (projector residual
    above 1e-8, measured relative to A's largest eigenvalue); may exceed 1
    otherwise. Exposed separately so the scale law k(cA, B) = k(A, B)/c can
    be checked before clamping. B's support is its eigenvalues above
    PINV_TOL relative to the largest. For two diagonals k is min b_i/a_i over
    the support entries with a_i > 0, correctly rounded at every scale (each
    quotient is, and min is monotone), inf past the float range; so
    k(A, A) = 1. Otherwise one eigendecomposition of B gives its support and
    the basis that restricts both operators to it; k is 1 over the top
    eigenvalue of A's restriction whitened by the Cholesky factor of B's (two
    triangular solves). Where the symmetrized m overflows, k is 0.0: m is
    PSD, so |m_ij| <= max m_ii <= its top eigenvalue, which is then at least
    2**1023, and k < 2**-1022.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"entailment between dims {a.dim} and {b.dim}")
    if a.is_zero():
        raise ZeroOperator("graded entailment needs a nonzero left operand")
    if b.is_zero():
        return 0.0
    if a._diag is not None and b._diag is not None:
        x, y = a._diag, b._diag
        keep = y > PINV_TOL * y.max()
        if x.max(where=~keep, initial=0.0) > SUPPORT_RESIDUAL_TOL * x.max():
            return 0.0
        on = keep & (x > 0.0)
        with np.errstate(over="ignore"):
            return float((y[on] / x[on]).min())
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
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.linalg.solve(chol, np.linalg.solve(chol, v.T @ a.matrix @ v).T)
        m = (m + m.T) / 2
    if not np.isfinite(m).all():
        return 0.0
    top = float(np.linalg.eigvalsh(m)[-1])
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
    with ``bounds``, its entries' ``_binades``; ``rankings`` keeps each
    negated state's ranked leaf names and scores.
    """

    __slots__ = ("words", "diags", "bounds", "rankings")

    def __init__(self) -> None:
        self.words: dict[str, tuple] = {}
        self.diags: np.ndarray | None = None
        self.bounds: tuple[int, int] | None = None
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


def _binades(x: np.ndarray) -> tuple[int, int]:
    """Exponents e and f of the entries of ``x``, all finite: every
    |x_j| < 2**e, and every nonzero one >= 2**(f - 1). All zero: e = 0 and
    f = 1024."""
    m = np.abs(x)
    return math.frexp(m.max())[1], math.frexp(m.min(where=m != 0, initial=_FLOAT_MAX))[1]


def _spans(e: int, f: int, n: int) -> bool:
    """Whether a row of n entries, none above 2**e in magnitude and every
    nonzero one at least 2**(f - 1), has remainders that sum exactly when
    split against 2**(e + k) (``_fsum_rows``' second certificate)."""
    return e - f <= 53 - (n + 1).bit_length() - (n - 1).bit_length()


def _fsum_rows(diags: np.ndarray, v: np.ndarray) -> list[float]:
    """``[math.fsum(row) for row in (diags * v).tolist()]``, bit for bit and
    with the same errors, formed ``_BLOCK`` rows at a time.

    A row x of n >= ``_NARROW`` entries is split in float64 (Rump, Ogita and
    Oishi, Accurate Floating-Point Summation Part I, SIAM J. Sci. Comput.
    31(1), 2008). With u = 2**-53, 2**k >= n + 2, max|x_j| <= 2**e and
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
      2**(f-1) <= |x_j| for every nonzero x_j. Every such x_j (a subnormal
      one too) and every q_j, so every r_j and every partial sum of them, is
      a multiple of 2**(f-53). Those sums are at most n*u*sigma <= 2**(f + g)
      in magnitude, g = ceil(log2 n) + k + e - 53 - f, so they are exact
      while g <= 0 (``_spans``). A row of zeros has only zero remainders, and
      d = +0.0, as fsum gives.

    Both need a finite sigma: max|x_j| < 2**(1023 - k), which also keeps
    sum|x_j| below 2**1023, so fsum's partial sums stay finite. Other rows
    (a non-finite entry fails that test) go through fsum, and so does every
    row of a stack narrower than ``_NARROW`` columns. ``_stack_sums`` proves
    a kept stack's rows from bounds instead.
    """
    n = diags.shape[1]
    if n < _NARROW:
        return [math.fsum(row) for row in (diags * v).tolist()]
    k = (n + 1).bit_length()
    bound = 2.0 ** (((n - 1) * n).bit_length() - 105)
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
            if top[j] < limit and _spans(*_binades(row), n):
                continue
            sums[i + j] = math.fsum(row.tolist())
    return sums


def _stack_sums(diags: np.ndarray, bounds: tuple[int, int], v: np.ndarray) -> list[float]:
    """``_fsum_rows(diags, v)``, bit for bit, every row proven at once from
    the stack's kept ``bounds = _binades(diags)`` and the state's.

    Every |D_ij| < 2**E and every nonzero one is at least 2**(F - 1); the
    same holds for v with E_v and F_v. So each product x_ij = D_ij*v_j, as
    rounded, has |x_ij| <= 2**e with e = E + E_v, and a nonzero one is at
    least 2**(f - 1) with f = F + F_v - 1: rounding is monotone, and below
    2**-1074 a nonzero float exceeds any bound. Thus, where ``_spans(e, f,
    n)`` holds and sigma = 2**(e + k) is finite (e <= 1023 - k, so that
    sum|x_ij| < 2**1023 and fsum raises nothing), every row meets
    ``_fsum_rows``' second certificate split against that one sigma, and
    t + rho is returned. (sigma underflows to 0 only where every product is
    0.) Each sum of q_j or of r_j is then exact in any order, so a product
    with ones sums them. Entries must be finite, as every Operator's are.
    Otherwise, and for a stack narrower than ``_NARROW`` columns,
    ``_fsum_rows`` sums.
    """
    n = diags.shape[1]
    if n >= _NARROW:
        ev, fv = _binades(v)
        e, k = bounds[0] + ev, (n + 1).bit_length()
        if e <= 1023 - k and _spans(e, bounds[1] + fv - 1, n):
            sigma, ones = math.ldexp(1.0, e + k), np.ones(n)
            sums: list[float] = []
            for i in range(0, len(diags), _BLOCK):
                x = diags[i : i + _BLOCK] * v
                q = x + sigma
                q -= sigma
                x -= q
                sums += (q @ ones + x @ ones).tolist()
            return sums
    return _fsum_rows(diags, v)


def _state_trace(a: Operator) -> float:
    """The trace of the state ``a`` to score: ZeroOperator if zero, InvalidOperator if inf."""
    if a.is_zero():
        raise ZeroOperator("overlap score needs a nonzero state")
    if (t := a.trace()) == math.inf:
        raise InvalidOperator("overlap score needs a state whose trace does not overflow to inf")
    return t


def _leaf_scores(a: Operator, lex: Lexicon, sigma: float) -> list[float]:
    """``overlap_score(a, leaf, lex, sigma)`` for each leaf of ``lex``.

    The leaf predicates are written into one stack as they are built; once
    all are diagonal the stack is kept with its exponent bounds, and
    ``_stack_sums`` sums each row of it times ``a``'s main diagonal as
    ``trace_product`` would. Otherwise each leaf goes through
    ``trace_product``.
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
        parts = [_binades(stack[i : i + _BLOCK]) for i in range(0, lex.dim, _BLOCK)]
        table.bounds = max(e for e, _ in parts), min(f for _, f in parts)
        table.diags = stack
    return [_clamp01(s / t) for s in _stack_sums(table.diags, table.bounds, _main_diagonal(a))]


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
    # scores are floats, so None is a miss; a zero state is never kept
    if hit and (score := hit[1].get(a)) is not None:
        return score
    t = _state_trace(a)
    pred, kept = _record(word, lex, sigma, _memo(lex, sigma))
    if a.dim != lex.dim:
        raise DimMismatch(f"state dim {a.dim} vs predicate dim {lex.dim}")
    score = kept[a] = _clamp01(trace_product(a, pred) / t)
    return score
