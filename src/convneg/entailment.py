"""Graded entailment between operators.

Two measures are provided. ``loewner_k`` is order-theoretic: the largest k
with B - k*A still PSD, clamped into [0, 1]. ``overlap_score`` reads the
first argument as a mixture (trace-normalized) and asks what fraction of it
is consistent with a predicate, optionally smoothed by the predicate word's
worldly context so that near-misses grade above zero instead of collapsing
to orthogonality.

A smoothed predicate depends on the word and sigma only, so each lexicon
keeps the ones built for the sigma last used (``Lexicon._smoothed``) and
builds each once; an entry is checked by identity against the word and
context operators it was built from. Each entry also keeps every score
``overlap_score`` computed with it, weakly keyed by state (operators hash by
identity), so a repeated overlap is a lookup. ``alternatives`` scores
every leaf in one product of the state's main diagonal with the leaves'
predicate diagonals, stacked once per lexicon, whenever the state or every
predicate is diagonal; each score is the same correctly rounded sum as
``trace_product``'s, so scores and exact ties do not change.
"""

from __future__ import annotations

import math
import operator
import weakref
from typing import Sequence

import numpy as np

from .errors import DimMismatch, ZeroOperator
from .lexicon import Lexicon
from .operators import (
    Operator,
    PINV_TOL,
    ZERO_TRACE_TOL,
    _main_diagonal,
    mix,
    normalize,
    trace_product,
)

SIGMA_DEFAULT = 0.5
SUPPORT_RESIDUAL_TOL = 1e-8


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
    be checked before clamping. One eigendecomposition of B gives its support
    (eigenvalues above PINV_TOL relative to the largest) and the basis that
    restricts both operators to it; whitening by the Cholesky factor of B's
    restriction, rounded as A's is, keeps k(A, A) = 1 at any conditioning.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"entailment between dims {a.dim} and {b.dim}")
    if a.is_zero():
        raise ZeroOperator("graded entailment needs a nonzero left operand")
    if b.is_zero():
        return 0.0
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

    ``words`` maps a word to the word and context operators its predicate
    was built from (no context at sigma 0), the predicate, and its overlaps
    by state. ``stack`` holds the leaves' predicates, in leaf order, and their
    main diagonals stacked one row per leaf.
    """

    __slots__ = ("words", "stack")

    def __init__(self) -> None:
        self.words: dict[str, tuple] = {}
        self.stack: tuple[list[Operator], np.ndarray] | None = None


def _memo(lex: Lexicon, sigma: float) -> _Smoothed:
    """The lexicon's table for ``sigma``; one for another sigma replaces it."""
    memo = lex._smoothed
    table = memo.get(sigma)
    if table is None:
        memo.clear()
        table = memo[sigma] = _Smoothed()
    return table


def _kept(word: str, lex: Lexicon, sigma: float, table: _Smoothed) -> tuple | None:
    """The word's entry in ``table`` while it is current; raises nothing."""
    hit = table.words.get(word)
    wc = lex.wc_ops.get(word) if sigma else None
    # by identity, so an operator replaced in the lexicon is never served stale
    return hit if hit and hit[0] is lex.word_ops.get(word) and hit[1] is wc else None


def _predicate(word: str, lex: Lexicon, sigma: float, table: _Smoothed) -> Operator:
    hit = _kept(word, lex, sigma, table)
    if hit is None:
        p = lex.word_operator(word)
        wc = lex.worldly_context(word) if sigma else None
        pred = normalize(mix([(1.0, p), (sigma, wc)]), "sup") if sigma else p
        hit = table.words[word] = (p, wc, pred, weakref.WeakKeyDictionary())
    return hit[2]


def smoothed_predicate(word: str, lex: Lexicon, sigma: float = SIGMA_DEFAULT) -> Operator:
    """Predicate of ``word`` blended with its worldly context.

    sigma = 0 returns the word operator unchanged; otherwise the sum
    P_word + sigma * wc_word is sup-normalized back to a predicate. It is
    built once per lexicon for the sigma last used, and then returned as is.
    """
    _check_sigma(sigma)
    return _predicate(word, lex, sigma, _memo(lex, sigma))


def _stack(preds: list[Operator], leaves: bool, table: _Smoothed) -> np.ndarray:
    """Main diagonals of ``preds``, one row each; kept in ``table`` when they
    are the leaves' predicates."""
    if leaves and table.stack is not None:
        known, stack = table.stack
        if all(map(operator.is_, known, preds)):
            return stack
    stack = np.array([_main_diagonal(p) for p in preds])
    if leaves:
        stack.setflags(write=False)
        table.stack = (preds, stack)
    return stack


def _overlap_scores(
    a: Operator, words: Sequence[str], lex: Lexicon, sigma: float
) -> list[float]:
    """``overlap_score(a, word, lex, sigma)`` for each of ``words``.

    When every trace product takes ``trace_product``'s O(n) path (``a`` or
    every predicate is diagonal), ``a``'s main diagonal multiplies the
    predicates' stacked diagonals in one product, and each row's
    ``math.fsum`` sums the products ``trace_product`` would. Otherwise each
    pair goes through ``trace_product``.
    """
    t = a.trace()
    if t <= ZERO_TRACE_TOL:
        raise ZeroOperator("overlap score needs a nonzero state")
    _check_sigma(sigma)
    table = _memo(lex, sigma)
    n, preds = a.dim, []
    for word in words:
        p = _predicate(word, lex, sigma, table)
        if p.dim != n:
            raise DimMismatch(f"state dim {n} vs predicate dim {p.dim}")
        preds.append(p)
    if a._diag is None and any(p._diag is None for p in preds):
        return [_clamp01(trace_product(a, p) / t) for p in preds]
    rows = (_stack(preds, words == lex.leaves, table) * _main_diagonal(a)).tolist()
    return [_clamp01(math.fsum(row) / t) for row in rows]


def overlap_score(
    a: Operator, word: str, lex: Lexicon, sigma: float = SIGMA_DEFAULT
) -> float:
    """Probability that the mixture ``a`` is consistent with ``word``.

    Tr(rho_a . smoothed predicate), which lies in [0, 1] because the state is
    trace-normalized and the predicate sup-normalized.
    """
    table = lex._smoothed.get(sigma)  # only a valid sigma has one
    hit = table and _kept(word, lex, sigma, table)
    if hit and a in hit[3]:  # a zero state is never kept
        return hit[3][a]
    score = _overlap_scores(a, (word,), lex, sigma)[0]
    # the scoring just made the word's record current
    lex._smoothed[sigma].words[word][3][a] = score
    return score
