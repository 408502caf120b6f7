"""Graded entailment between operators.

Two measures are provided. ``loewner_k`` is order-theoretic: the largest k
with B - k*A still PSD, clamped into [0, 1]. ``overlap_score`` reads the
first argument as a mixture (trace-normalized) and asks what fraction of it
is consistent with a predicate, optionally smoothed by the predicate word's
worldly context so that near-misses grade above zero instead of collapsing
to orthogonality.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatch, ZeroOperator
from .lexicon import Lexicon
from .operators import Operator, PINV_TOL, ZERO_TRACE_TOL, mix, normalize, trace_product

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


def smoothed_predicate(word: str, lex: Lexicon, sigma: float = SIGMA_DEFAULT) -> Operator:
    """Predicate of ``word`` blended with its worldly context.

    sigma = 0 returns the word operator unchanged; otherwise the sum
    P_word + sigma * wc_word is sup-normalized back to a predicate.
    """
    _check_sigma(sigma)
    p = lex.word_operator(word)
    if sigma == 0:
        return p
    return normalize(mix([(1.0, p), (sigma, lex.worldly_context(word))]), "sup")


def overlap_score(
    a: Operator, word: str, lex: Lexicon, sigma: float = SIGMA_DEFAULT
) -> float:
    """Probability that the mixture ``a`` is consistent with ``word``.

    Tr(rho_a . smoothed predicate), which lies in [0, 1] because the state is
    trace-normalized and the predicate sup-normalized.
    """
    t = a.trace()
    if t <= ZERO_TRACE_TOL:
        raise ZeroOperator("overlap score needs a nonzero state")
    p = smoothed_predicate(word, lex, sigma)
    if a.dim != p.dim:
        raise DimMismatch(f"state dim {a.dim} vs predicate dim {p.dim}")
    return _clamp01(trace_product(a, p) / t)
