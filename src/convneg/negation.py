"""Conversational negation of a single word.

The pipeline is: take the logical negation of the word's predicate, then
compose it with the word's worldly context so that mass lands on plausible
alternatives instead of spreading uniformly over everything the word is not.
Both the logical negation and the composition operation are pluggable via
``NegationConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entailment import SIGMA_DEFAULT, overlap_score
from .errors import NotSubnormalized, ZeroNegation
from .lexicon import Lexicon, _check_decay
from .operators import (
    Operator,
    PINV_TOL,
    ZERO_TRACE_TOL,
    conjugate_update,
    hadamard,
    normalize,
    pseudoinverse,
)

LOGICAL_CHOICES = ("complement", "pinv")
COMPOSITION_CHOICES = ("hadamard", "conjugate")
VIEW_CHOICES = ("trace", "sup")
# complement accepts a predicate whose top eigenvalue exceeds 1 by this much
# (rounding in sup-normalization) and clamps the negative eigenvalues it causes
COMPLEMENT_TOL = 1e-9


@dataclass(frozen=True)
class NegationConfig:
    """Choice points of the negation pipeline.

    decay=None defers to the lexicon's stored worldly contexts; a number
    recomputes them on the fly for the composition step of cn_word (requires
    a lexicon built from a taxonomy). Scoring always smooths predicates with
    the stored contexts, so alternatives under a decay override compose at
    cfg.decay but smooth at the lexicon's decay.
    sigma is the predicate smoothing used when scoring alternatives, string
    interpretations and actors; it is the only source of sigma for them.
    """

    logical: str = "complement"
    composition: str = "hadamard"
    decay: float | None = None
    view: str = "trace"
    sigma: float = SIGMA_DEFAULT

    def __post_init__(self) -> None:
        if self.logical not in LOGICAL_CHOICES:
            raise ValueError(f"logical must be one of {LOGICAL_CHOICES}, got {self.logical!r}")
        if self.composition not in COMPOSITION_CHOICES:
            raise ValueError(
                f"composition must be one of {COMPOSITION_CHOICES}, got {self.composition!r}"
            )
        if self.view not in VIEW_CHOICES:
            raise ValueError(f"view must be one of {VIEW_CHOICES}, got {self.view!r}")
        if self.decay is not None:
            _check_decay(self.decay)
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


DEFAULTS = NegationConfig()


def logical_not_complement(p: Operator) -> Operator:
    """I - P for a sup-normalized (or sub-normalized) predicate."""
    top = p.max_eigenvalue()
    if top > 1.0 + COMPLEMENT_TOL:
        raise NotSubnormalized(f"complement needs max eigenvalue <= 1, got {top!r}")
    m = np.eye(p.dim) - p.matrix
    low = float(np.linalg.eigvalsh(m)[0])
    if low < 0.0:
        # eigenvalues in [-COMPLEMENT_TOL, 0) from the window above; clamp
        lam, vecs = np.linalg.eigh(m)
        m = vecs @ np.diag(np.clip(lam, 0.0, None)) @ vecs.T
        m = (m + m.T) / 2.0
    return Operator(m, p.labels)


def logical_not_pinv(a: Operator, tol: float = PINV_TOL) -> Operator:
    """Sup-normalized Moore-Penrose pseudoinverse: inverts on support only."""
    return normalize(pseudoinverse(a, tol), "sup")


def _logical_not(p: Operator, cfg: NegationConfig) -> Operator:
    if cfg.logical == "complement":
        return logical_not_complement(p)
    return logical_not_pinv(p)


def _compose(neg: Operator, wc: Operator, cfg: NegationConfig) -> Operator:
    if cfg.composition == "hadamard":
        return hadamard(neg, wc)
    return conjugate_update(neg, wc)


def cn_word(word: str, lex: Lexicon, cfg: NegationConfig = DEFAULTS) -> Operator:
    """Conversational negation of ``word``: logical negation, then worldly
    context, normalized per cfg.view."""
    p = normalize(lex.word_operator(word), "sup")
    wc = lex.worldly_context(word, decay=cfg.decay)
    composed = _compose(_logical_not(p, cfg), wc, cfg)
    if composed.trace() <= ZERO_TRACE_TOL:
        raise ZeroNegation(
            f"negation of {word!r} is the zero operator "
            f"(logical={cfg.logical}, composition={cfg.composition})"
        )
    return normalize(composed, cfg.view)


def alternatives(
    word: str,
    lex: Lexicon,
    cfg: NegationConfig = DEFAULTS,
    top_k: int | None = None,
) -> list[tuple[str, float]]:
    """Leaf concepts a speaker plausibly meant instead of ``word``.

    Every leaf except the word itself, ranked by overlap with cn_word(word);
    ties broken by leaf order. top_k=None returns the full ranking.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    state = cn_word(word, lex, cfg)
    scored = [
        (overlap_score(state, leaf, lex, cfg.sigma), i, leaf)
        for i, leaf in enumerate(lex.leaves)
        if leaf != word
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    ranked = [(leaf, score) for score, _, leaf in scored]
    return ranked if top_k is None else ranked[:top_k]
