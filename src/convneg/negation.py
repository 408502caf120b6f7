"""Conversational negation of a single word.

The pipeline is: take the logical negation of the word's predicate, then
compose it with the word's worldly context so that mass lands on plausible
alternatives instead of spreading uniformly over everything the word is not.
Both the logical negation and the composition operation are pluggable via
``NegationConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entailment import SIGMA_DEFAULT, _check_sigma, _leaf_scores, _memo
from .errors import ZeroNegation, ZeroOperator
from .lexicon import Lexicon, _check_decay
from .operators import (
    Operator,
    complement,
    conjugate_update,
    hadamard,
    normalize,
    pseudoinverse,
)

# size prior of string and actor negation: lambda^(|S'|-1) for a negation set S'
LAMBDA_DEFAULT = 0.75


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
    cn_word's states are unit-trace; ``normalize(state, "sup")`` is the predicate view.
    """

    logical: str = "complement"
    composition: str = "hadamard"
    decay: float | None = None
    sigma: float = SIGMA_DEFAULT

    def __post_init__(self) -> None:
        if self.logical not in LOGICAL_CHOICES:
            raise ValueError(f"logical must be one of {LOGICAL_CHOICES}, got {self.logical!r}")
        if self.composition not in COMPOSITION_CHOICES:
            raise ValueError(
                f"composition must be one of {COMPOSITION_CHOICES}, got {self.composition!r}"
            )
        if self.decay is not None:
            _check_decay(self.decay)
        _check_sigma(self.sigma)


def logical_not_complement(p: Operator) -> Operator:
    """I - P for a sup-normalized (or sub-normalized) predicate
    (``operators.complement``)."""
    return complement(p)


def logical_not_pinv(a: Operator) -> Operator:
    """Sup-normalized Moore-Penrose pseudoinverse: inverts on support only
    (eigenvalues above ``PINV_TOL``)."""
    return normalize(pseudoinverse(a), "sup")


# the negation pipeline's choices by name; NegationConfig checks names against these
_LOGICAL = {"complement": logical_not_complement, "pinv": logical_not_pinv}
_COMPOSITION = {"hadamard": hadamard, "conjugate": conjugate_update}
LOGICAL_CHOICES = tuple(_LOGICAL)
COMPOSITION_CHOICES = tuple(_COMPOSITION)
DEFAULTS = NegationConfig()


def cn_word(word: str, lex: Lexicon, cfg: NegationConfig = DEFAULTS) -> Operator:
    """Conversational negation of ``word``: logical negation, then worldly
    context, as a unit-trace state. Kept per lexicon in one table per
    (logical, composition, decay), the lexicon's decay keyed as None, of at
    most one operator per concept; a ZeroNegation is never kept."""
    decay = None if cfg.decay == lex.decay else cfg.decay
    table = lex._negations.setdefault((cfg.logical, cfg.composition, decay), {})
    if word in table:
        return table[word]
    p = lex.word_operator(word)
    wc = lex.worldly_context(word, decay=decay)
    try:
        pred = normalize(p, "sup")
    except ZeroOperator:
        raise ZeroOperator(f"word {word!r} has the zero operator") from None
    composed = _COMPOSITION[cfg.composition](_LOGICAL[cfg.logical](pred), wc)
    try:
        out = table[word] = normalize(composed, "trace")
    except ZeroOperator:
        raise ZeroNegation(
            f"negation of {word!r} is the zero operator "
            f"(logical={cfg.logical}, composition={cfg.composition})"
        ) from None
    return out


def alternatives(
    word: str,
    lex: Lexicon,
    cfg: NegationConfig = DEFAULTS,
    top_k: int | None = None,
) -> list[tuple[str, float]]:
    """Leaf concepts a speaker plausibly meant instead of ``word``.

    Every leaf except the word itself, ranked by overlap with cn_word(word);
    ties keep leaf order. Kept per (word, config); top_k=None returns all.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    state = cn_word(word, lex, cfg)
    kept = _memo(lex, cfg.sigma).rankings
    ranking = kept.get(state)
    if ranking is None:
        scores, leaves = _leaf_scores(state, lex, cfg.sigma), lex.leaves
        # a stable sort, so equal scores keep leaf order under reverse=True too
        order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
        order = [i for i in order if leaves[i] != word]
        # tuples from lists: tuple() grows a tuple from a generator by resizes
        names, scores = tuple([leaves[i] for i in order]), tuple([scores[i] for i in order])
        ranking = kept[state] = names, scores
    return list(zip(ranking[0][:top_k], ranking[1][:top_k]))
