"""Conversational negation of word strings.

Negating "red wine" does not say which word the speaker rejects, so the
negation is a weighted mixture over every non-empty negation set: subsets of
positions whose words are replaced by their single-word negation while the
rest stay put. A NegationMixture is fixed by each position's kept and negated
operator plus one weight per set, so it stores those and builds a term's
states only when ``terms`` is read. Weights come from a follow-up sentence
(entailment product, word by word) shaped by a size prior that favors
negating few words. The overlaps are smoothed by the same sigma as
single-word alternatives: the one in NegationConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Sequence

from .entailment import overlap_score
from .errors import AlignmentError, TooManyWords, ZeroNegation
from .lexicon import Lexicon, resolve_word
from .negation import DEFAULTS, LAMBDA_DEFAULT, NegationConfig, cn_word
from .operators import Operator

MAX_STRING_WORDS = 20
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Slot:
    """One string position: a word plus the lexicon providing its space."""

    word: str
    lex: Lexicon

    def __post_init__(self) -> None:
        self.lex.require(self.word)


@dataclass(frozen=True)
class WordString:
    positions: tuple[Slot, ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("a word string needs at least one position")

    @classmethod
    def resolve(cls, words: Sequence[str], lexicons: Sequence[Lexicon]) -> "WordString":
        """Build a string by locating each word's unique lexicon."""
        return cls(tuple(Slot(w, resolve_word(w, lexicons)) for w in words))

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(slot.word for slot in self.positions)

    def originals(self) -> tuple[Operator, ...]:
        return tuple(slot.lex.word_operator(slot.word) for slot in self.positions)


@dataclass(frozen=True)
class MixtureTerm:
    subset: tuple[int, ...]
    weight: float
    states: tuple[Operator, ...]


@dataclass(frozen=True)
class NegationMixture:
    """Weights over the negation sets (canonical order) plus each position's
    kept and negated operator; a term's states are built when ``terms`` is read."""

    kept: tuple[Operator, ...]
    negated: tuple[Operator, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        n, m = len(self.kept), len(self.weights)
        if len(self.negated) != n or m != _count_negation_sets(n):
            raise ValueError(f"{n} kept, {len(self.negated)} negated operators, {m} weights")
        total = math.fsum(self.weights)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(enumerate_negation_sets(len(self.kept)))

    @property
    def terms(self) -> tuple[MixtureTerm, ...]:
        return tuple(
            MixtureTerm(subset, w, _choose(subset, self.kept, self.negated))
            for subset, w in zip(self.subsets, self.weights)
        )


def _count_negation_sets(n: int) -> int:
    """2^n - 1, for a string length within the guard."""
    if not 1 <= n <= MAX_STRING_WORDS:
        raise TooManyWords(f"string length must lie in 1..{MAX_STRING_WORDS}, got {n}")
    return 2**n - 1


def enumerate_negation_sets(n: int) -> list[tuple[int, ...]]:
    """All non-empty position subsets, smallest first, lexicographic within size."""
    _count_negation_sets(n)
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        out.extend(combinations(range(n), size))
    return out


def _check_lambda(lambda_size: float) -> None:
    if not 0.0 < lambda_size <= 1.0:
        raise ValueError(f"lambda_size must lie in (0, 1], got {lambda_size}")


def size_prior(n: int, lambda_size: float = LAMBDA_DEFAULT) -> tuple[float, ...]:
    """Normalized lambda_size^(|S|-1) over the negation sets, in canonical order."""
    _check_lambda(lambda_size)
    _count_negation_sets(n)
    prior = [w for k in range(1, n + 1) for w in [lambda_size ** (k - 1)] * math.comb(n, k)]
    total = sum(prior)
    return tuple(p / total for p in prior)


def _negations(s: WordString, cfg: NegationConfig) -> tuple[Operator, ...]:
    """cn_word at every position.

    A failed negation is reported against the first negation set that needs
    it: the singleton of the lowest failing position.
    """
    out = []
    for i, slot in enumerate(s.positions):
        try:
            out.append(cn_word(slot.word, slot.lex, cfg))
        except ZeroNegation as exc:
            raise ZeroNegation(f"negation set {{{i}}}: {exc}") from exc
    return tuple(out)


def _choose(subset: tuple[int, ...], kept: Sequence, negated: Sequence) -> tuple:
    """Per-position picks for one negation set: negated inside it, kept outside."""
    return tuple(negated[i] if i in subset else k for i, k in enumerate(kept))


def cn_string(
    s: WordString, weights: Sequence[float], cfg: NegationConfig = DEFAULTS
) -> NegationMixture:
    """The mixture over negation sets with the given per-subset weights."""
    count = _count_negation_sets(len(s))
    if len(weights) != count:
        raise ValueError(f"need {count} weights, got {len(weights)}")
    ws = [float(w) for w in weights]
    if not all(0.0 <= w < math.inf for w in ws):
        raise ValueError("subset weights must be finite and nonnegative")
    try:
        total = math.fsum(ws)
    except OverflowError:
        raise ValueError("subset weights sum past the float range") from None
    if total <= 0:
        raise ValueError("subset weights must not all vanish")
    return NegationMixture(
        s.originals(), _negations(s, cfg), tuple(w / total for w in ws)
    )


def _check_alignment(n: int, target: WordString, spaces: Sequence[tuple[str, ...]]) -> None:
    if n != len(target):
        raise AlignmentError(f"length mismatch: {n} positions vs {len(target)}")
    for i, slot in enumerate(target.positions):
        if slot.lex.leaves != spaces[i]:
            raise AlignmentError(
                f"position {i}: slot spaces differ "
                f"({', '.join(spaces[i])}) vs ({', '.join(slot.lex.leaves)})"
            )


def _overlaps(states: Sequence[Operator], target: WordString, sigma: float) -> list[float]:
    """Per-position overlap of each state with the target word there."""
    if len(states) != len(target):
        raise AlignmentError(f"length mismatch: {len(states)} states vs {len(target)}")
    out = []
    for i, (op, slot) in enumerate(zip(states, target.positions)):
        if op.dim != slot.lex.dim:
            raise AlignmentError(
                f"position {i}: state dim {op.dim} vs slot space dim {slot.lex.dim}"
            )
        if op.labels and tuple(op.labels) != slot.lex.leaves:
            raise AlignmentError(
                f"position {i}: state space ({', '.join(op.labels)}) "
                f"vs slot space ({', '.join(slot.lex.leaves)})"
            )
        out.append(overlap_score(op, slot.word, slot.lex, sigma))
    return out


def derive_weights(
    s: WordString,
    context: WordString,
    lambda_size: float = LAMBDA_DEFAULT,
    cfg: NegationConfig = DEFAULTS,
) -> tuple[float, ...]:
    """Subset weights from a follow-up sentence.

    weight(S') is proportional to lambda_size^(|S'|-1) times the word-by-word
    overlap (smoothed by cfg.sigma) of the S'-interpretation with the
    follow-up. When the follow-up rules out every interpretation, the size
    prior alone decides.
    """
    raw = interpretation_scores(s, context, lambda_size, cfg)
    return _weights_from_scores(raw, len(s), lambda_size)


def _weights_from_scores(
    raw: Sequence[float], n: int, lambda_size: float
) -> tuple[float, ...]:
    """derive_weights for an n-word string from its interpretation_scores."""
    total = sum(raw)
    if total <= 0:
        return size_prior(n, lambda_size)
    return tuple(r / total for r in raw)


def interpretation_scores(
    s: WordString,
    context: WordString,
    lambda_size: float = LAMBDA_DEFAULT,
    cfg: NegationConfig = DEFAULTS,
) -> list[float]:
    """Size-weighted match of every interpretation against ``context``, in
    canonical subset order (the unnormalized quantity behind derive_weights
    and best_interpretation).

    The string score factors per position, so each position's overlap is
    computed once for its original word and once for its negation, and
    _product_tree multiplies them into every subset's score.
    """
    _check_lambda(lambda_size)
    _check_alignment(len(s), context, tuple(slot.lex.leaves for slot in s.positions))
    _count_negation_sets(len(s))
    negations = _negations(s, cfg)  # first: a zero word operator fails here, by name
    kept = _overlaps(s.originals(), context, cfg.sigma)
    negated = _overlaps(negations, context, cfg.sigma)
    return _product_tree(kept, negated, lambda_size)


def _product_tree(kept: list[float], negated: list[float], lambda_size: float) -> list[float]:
    """lambda_size^(|S|-1) times negated[i] for i in S and kept[i] elsewhere,
    for every negation set S in canonical order. Each tree node multiplies its
    parent by position i's negated factor, then by its kept one, so a leaf is
    the product of the positions' overlaps in position order, and the leaves come in
    lexicographic order of their sets, which a stable sort by size keeps."""
    leaves = [1.0]
    for a, b in zip(negated, kept):
        nodes = leaves * 2
        nodes[::2] = [x * a for x in leaves]
        nodes[1::2] = [x * b for x in leaves]
        leaves = nodes
    # bit n-1-i of leaf t is set when t keeps position i; the last leaf keeps all
    order = sorted(range(len(leaves) - 1), key=int.bit_count, reverse=True)
    prior = [lambda_size ** (len(kept) - kept_count - 1) for kept_count in range(len(kept))]
    return [prior[t.bit_count()] * leaves[t] for t in order]


def best_interpretation(
    s: WordString,
    target: WordString,
    lambda_size: float = LAMBDA_DEFAULT,
    cfg: NegationConfig = DEFAULTS,
) -> tuple[tuple[int, ...], float]:
    """The negation set whose interpretation best matches ``target``.

    Ties (including the all-zero case) go to the earliest subset in canonical
    order, so a fully uninformative target yields the first singleton.
    """
    return _best_from_scores(interpretation_scores(s, target, lambda_size, cfg), len(s))


def _best_from_scores(raw: Sequence[float], n: int) -> tuple[tuple[int, ...], float]:
    """best_interpretation for an n-word string from its interpretation_scores."""
    best = raw.index(max(raw))
    sets = chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))
    return next(islice(sets, best, None)), raw[best]
