"""Conversational negation of word strings.

Negating "red wine" does not say which word the speaker rejects, so the
negation is a weighted mixture over every non-empty negation set: subsets of
positions whose words are replaced by their single-word negation while the
rest stay put. A NegationMixture is fixed by each position's kept and negated
operator plus one weight per set, so it stores those and builds a term's
states only when ``terms`` is read. Weights come from a follow-up sentence:
score_string's StringScores holds each position's overlap with it, kept and
negated, and every set's product of them under a size prior that favors
negating few words, smoothed by NegationConfig's sigma, as alternatives are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Iterator, Sequence

import numpy as np

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
    # score_string's last result, with the context, lambda_size and cfg it
    # answers: not compared, shown, carried over by replace, copied or pickled
    _scored: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("a word string needs at least one position")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_scored"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _scored=None)

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
        return tuple(_negation_sets(len(self.kept)))

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


def _negation_sets(n: int) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets of range(n), smallest first, lexicographic within size."""
    return chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))


def enumerate_negation_sets(n: int) -> list[tuple[int, ...]]:
    """All non-empty position subsets, in canonical order."""
    _count_negation_sets(n)
    return list(_negation_sets(n))


def _check_lambda(lambda_size: float) -> None:
    if not 0.0 < lambda_size <= 1.0:
        raise ValueError(f"lambda_size must lie in (0, 1], got {lambda_size}")


# kept per (n, type(lambda_size), lambda_size): a numpy float64 lambda_size
# gives float64 elements, a float or an int float ones; an error is not kept
@functools.lru_cache(maxsize=8, typed=True)
def size_prior(n: int, lambda_size: float = LAMBDA_DEFAULT) -> tuple[float, ...]:
    """Normalized lambda_size^(|S|-1) over the negation sets, in canonical order:
    each size's quotient once, repeated; the sum over every set, in order."""
    _check_lambda(lambda_size)
    _count_negation_sets(n)
    sizes = [(lambda_size ** (k - 1), math.comb(n, k)) for k in range(1, n + 1)]
    total = sum(chain.from_iterable([p] * count for p, count in sizes))
    return tuple(chain.from_iterable([p / total] * count for p, count in sizes))


def _negations(s: WordString, cfg: NegationConfig) -> tuple[Operator, ...]:
    """cn_word at every position. A failed negation is reported against the
    first negation set that needs it: the singleton of the lowest failing one."""
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
    """The mixture over negation sets with the given per-subset weights, as
    floats divided by their math.fsum (over an array: the same IEEE quotients)."""
    count = _count_negation_sets(len(s))
    if len(weights) != count:
        raise ValueError(f"need {count} weights, got {len(weights)}")
    ws = list(map(float, weights))
    arr = np.array(ws, dtype=np.float64)
    if not ((arr >= 0.0) & (arr < math.inf)).all():
        raise ValueError("subset weights must be finite and nonnegative")
    try:
        total = math.fsum(ws)
    except OverflowError:
        raise ValueError("subset weights sum past the float range") from None
    if total <= 0:
        raise ValueError("subset weights must not all vanish")
    return NegationMixture(s.originals(), _negations(s, cfg), tuple((arr / total).tolist()))


def _check_alignment(s: WordString, target: WordString) -> None:
    if len(s) != len(target):
        raise AlignmentError(f"length mismatch: {len(s)} positions vs {len(target)}")
    for i, (slot, other) in enumerate(zip(s.positions, target.positions)):
        if slot.lex.leaves != other.lex.leaves:
            raise AlignmentError(
                f"position {i}: slot spaces differ "
                f"({', '.join(slot.lex.leaves)}) vs ({', '.join(other.lex.leaves)})"
            )


def _overlaps(ops: Sequence[Operator], target: WordString, sigma: float) -> tuple[float, ...]:
    """Per-position overlap of each state with the target word there."""
    return tuple(overlap_score(op, t.word, t.lex, sigma) for op, t in zip(ops, target.positions))


@dataclass(frozen=True)
class StringScores:
    """A string scored against a follow-up. Position i overlaps the
    follow-up's word there by ``negated[i]`` (a_i) when negated and by
    ``kept[i]`` (b_i) when kept; ``scores`` holds, in canonical subset order,
    lambda_size^(|S|-1) times a_i for i in S and b_i elsewhere."""

    kept: tuple[float, ...]
    negated: tuple[float, ...]
    lambda_size: float
    scores: tuple[float, ...]

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_negation_sets(len(self.kept)))

    @property
    def weights(self) -> tuple[float, ...]:
        """The scores normalized; the size prior alone when the follow-up
        rules out every interpretation."""
        total = sum(self.scores)
        if total <= 0:
            return size_prior(len(self.kept), self.lambda_size)
        return tuple(r / total for r in self.scores)

    @property
    def best(self) -> tuple[tuple[int, ...], float]:
        """The top-scoring negation set and its score. Ties (the all-zero case
        too) go to the earliest set, so an uninformative target gives (0,)."""
        k = self.scores.index(max(self.scores))
        return next(islice(_negation_sets(len(self.kept)), k, None)), self.scores[k]


def score_string(
    s: WordString,
    context: WordString,
    lambda_size: float = LAMBDA_DEFAULT,
    cfg: NegationConfig = DEFAULTS,
) -> StringScores:
    """Every interpretation of ``s`` scored against ``context``, overlaps
    smoothed by cfg.sigma. Each position's overlap is computed once kept and
    once negated, and _product_tree multiplies them into every set's score.
    The spaces match: _check_alignment checks the slots, and each lexicon
    its operators' labels. ``s`` keeps its last result (never an error) for
    the very same ``context`` object and an equal lambda_size and cfg."""
    key = (type(lambda_size), lambda_size, cfg)
    last = s._scored
    if last is not None and last[0] is context and last[1] == key:
        return last[2]
    _check_lambda(lambda_size)
    _check_alignment(s, context)
    _count_negation_sets(len(s))
    negations = _negations(s, cfg)  # first: a zero word operator fails here, by name
    kept = _overlaps(s.originals(), context, cfg.sigma)
    negated = _overlaps(negations, context, cfg.sigma)
    scores = tuple(_product_tree(kept, negated, lambda_size))
    scored = StringScores(kept, negated, lambda_size, scores)
    object.__setattr__(s, "_scored", (context, key, scored))
    return scored


def _product_tree(
    kept: Sequence[float], negated: Sequence[float], lambda_size: float
) -> list[float]:
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


def derive_weights(
    s: WordString,
    context: WordString,
    lambda_size: float = LAMBDA_DEFAULT,
    cfg: NegationConfig = DEFAULTS,
) -> tuple[float, ...]:
    """Subset weights from a follow-up sentence: score_string's ``weights``."""
    return score_string(s, context, lambda_size, cfg).weights


def interpretation_scores(
    s: WordString,
    context: WordString,
    lambda_size: float = LAMBDA_DEFAULT,
    cfg: NegationConfig = DEFAULTS,
) -> list[float]:
    """Size-weighted match of every interpretation against ``context``:
    score_string's ``scores``, as a list."""
    return list(score_string(s, context, lambda_size, cfg).scores)


def best_interpretation(
    s: WordString,
    target: WordString,
    lambda_size: float = LAMBDA_DEFAULT,
    cfg: NegationConfig = DEFAULTS,
) -> tuple[tuple[int, ...], float]:
    """The negation set whose interpretation best matches ``target``, and its
    score: score_string's ``best``."""
    return score_string(s, target, lambda_size, cfg).best
