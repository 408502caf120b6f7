import copy
import dataclasses
import itertools
import math
import pickle
import re
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COLORS_TSV, DRINKS_TSV, FIG1_TSV
from convneg.entailment import SIGMA_DEFAULT, overlap_score
from convneg.errors import (
    AlignmentError,
    AmbiguousWord,
    TooManyWords,
    UnknownWord,
    ZeroNegation,
)
from convneg.lexicon import build_lexicon
from convneg.negation import NegationConfig, cn_word
from convneg.strings import (
    MAX_STRING_WORDS,
    WEIGHT_SUM_TOL,
    MixtureTerm,
    NegationMixture,
    Slot,
    StringScores,
    WordString,
    _choose,
    _overlaps,
    _product_tree,
    best_interpretation,
    cn_string,
    derive_weights,
    enumerate_negation_sets,
    interpretation_scores,
    score_string,
    size_prior,
)
from convneg.taxonomy import parse_taxonomy


def string_score(states, target, sigma=SIGMA_DEFAULT):
    """Word-by-word overlap of ``states`` with ``target``, multiplied across
    positions: the score every interpretation's weight is built from."""
    return math.prod(_overlaps(states, target, sigma))


@pytest.fixture(scope="module")
def colors():
    return build_lexicon(parse_taxonomy(COLORS_TSV), name="colors")


@pytest.fixture(scope="module")
def drinks():
    return build_lexicon(parse_taxonomy(DRINKS_TSV), name="drinks")


@pytest.fixture(scope="module")
def fig1():
    return build_lexicon(parse_taxonomy(FIG1_TSV), name="fig1")


@pytest.fixture(scope="module")
def red_wine(colors, drinks):
    return WordString.resolve(["red", "wine"], [colors, drinks])


LONG_POOL = ("red", "wine", "white", "beer", "rosé", "juice")


def subsets_oracle(n):
    masks = range(1, 2**n)
    raw = [tuple(i for i in range(n) if m >> i & 1) for m in masks]
    return sorted(raw, key=lambda t: (len(t), t))


class TestEnumerate:
    def test_small_cases(self):
        assert enumerate_negation_sets(1) == [(0,)]
        assert enumerate_negation_sets(2) == [(0,), (1,), (0, 1)]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_bitmask_oracle(self, n):
        assert enumerate_negation_sets(n) == subsets_oracle(n)

    @pytest.mark.parametrize("n", [0, -3, 21])
    def test_guard(self, n):
        with pytest.raises(TooManyWords):
            enumerate_negation_sets(n)


class TestWordString:
    def test_resolve_routes_each_word(self, red_wine, colors, drinks):
        assert red_wine.words == ("red", "wine")
        assert red_wine.positions[0].lex is colors
        assert red_wine.positions[1].lex is drinks

    def test_unknown_word(self, colors, drinks):
        with pytest.raises(UnknownWord):
            WordString.resolve(["red", "tea"], [colors, drinks])

    def test_ambiguous_word(self, colors):
        paints = build_lexicon(parse_taxonomy("red\tpaint\nblue\tpaint\n"), name="paints")
        with pytest.raises(AmbiguousWord, match="colors.*paints"):
            WordString.resolve(["red"], [colors, paints])

    def test_slot_checks_membership(self, colors):
        with pytest.raises(UnknownWord):
            Slot("wine", colors)

    def test_needs_a_position(self):
        with pytest.raises(ValueError):
            WordString(())


class TestCnString:
    def test_single_word_degenerates(self, fig1):
        s = WordString.resolve(["hamster"], [fig1])
        mix = cn_string(s, [1.0])
        assert mix.subsets == ((0,),)
        assert mix.weights == (1.0,)
        np.testing.assert_array_equal(
            mix.terms[0].states[0].matrix, cn_word("hamster", fig1).matrix
        )

    def test_concentrated_weight_keeps_other_positions(self, red_wine, colors, drinks):
        mix = cn_string(red_wine, [1.0, 0.0, 0.0])
        assert mix.weights == (1.0, 0.0, 0.0)
        term = mix.terms[0]
        np.testing.assert_array_equal(
            term.states[0].matrix, cn_word("red", colors).matrix
        )
        # untouched position carries the original word operator
        np.testing.assert_array_equal(
            term.states[1].matrix, drinks.word_operator("wine").matrix
        )

    def test_uniform_weights_normalize(self, red_wine):
        mix = cn_string(red_wine, [1.0, 1.0, 1.0])
        assert mix.weights == pytest.approx((1 / 3,) * 3, abs=1e-15)
        assert sum(mix.weights) == pytest.approx(1.0, abs=1e-12)

    def test_term_states_follow_subsets(self, red_wine, colors, drinks):
        mix = cn_string(red_wine, [1, 1, 1])
        both = mix.terms[2]
        assert both.subset == (0, 1)
        np.testing.assert_array_equal(both.states[0].matrix, cn_word("red", colors).matrix)
        np.testing.assert_array_equal(both.states[1].matrix, cn_word("wine", drinks).matrix)

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [1, 1, 1, 1],
            [-1, 1, 1],
            [0, 0, 0],
            [math.nan, 1, 1],
            [math.inf, 1, 1],
            [1e308, 1e308, 1],
        ],
    )
    def test_bad_weights(self, red_wine, weights):
        with pytest.raises(ValueError):
            cn_string(red_wine, weights)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([math.nan, 1, 1], "subset weights must be finite and nonnegative"),
            ([1, math.inf, 1], "subset weights must be finite and nonnegative"),
            ([1, 1, -math.inf], "subset weights must be finite and nonnegative"),
            ([1, -1, 1], "subset weights must be finite and nonnegative"),
            ([0, 0, 0], "subset weights must not all vanish"),
            ([1e308, 1e308, 1], "subset weights sum past the float range"),
            # a bad weight is named before a sum that would overflow
            ([math.nan, 1e308, 1e308], "subset weights must be finite and nonnegative"),
            ([-1, 1e308, 1e308], "subset weights must be finite and nonnegative"),
            # and the count before any weight
            ([math.nan], "need 3 weights, got 1"),
        ],
        ids=["nan", "inf", "-inf", "negative", "zeros", "overflow", "nan-overflow",
             "negative-overflow", "count"],
    )
    def test_bad_weight_messages(self, red_wine, weights, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cn_string(red_wine, weights)

    def test_weights_convert_by_float(self, red_wine):
        raw = [3, np.float64(0.1), Fraction(1, 3)]
        floats = [float(w) for w in raw]
        got = cn_string(red_wine, raw).weights
        assert hexes(got) == hexes(cn_string(red_wine, floats).weights)
        assert hexes(got) == hexes([w / math.fsum(floats) for w in floats])
        assert {type(w) for w in got} == {float}

    def test_signed_zero_weight_is_kept(self, red_wine):
        assert hexes(cn_string(red_wine, [-0.0, 2.0, 0.0]).weights) == hexes([-0.0, 1.0, 0.0])

    def test_zero_negation_names_the_subset(self, fig1):
        s = WordString.resolve(["entity"], [fig1])
        with pytest.raises(ZeroNegation, match=r"negation set \{0\}.*entity"):
            cn_string(s, [1.0])

    def test_mixture_invariant(self, red_wine, colors, drinks):
        states = (colors.word_operator("red"), drinks.word_operator("wine"))
        with pytest.raises(ValueError, match="sum"):
            NegationMixture(states, states, (0.9, 0.0, 0.0))

    def test_mixture_shape(self, red_wine):
        states = red_wine.originals()
        with pytest.raises(ValueError, match="1 negated operators"):
            NegationMixture(states, states[:1], (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="1 weights"):
            NegationMixture(states, states, (1.0,))

    # (n, lambda) pairs whose mixture weights, normalized and checked with a
    # plain sum, drift past WEIGHT_SUM_TOL
    @pytest.mark.parametrize("n, lam", [(17, 0.5), (18, 1.0), (19, 0.25), (20, 0.75)])
    def test_long_strings_negate(self, colors, drinks, n, lam):
        s = WordString.resolve([LONG_POOL[i % 6] for i in range(n)], [colors, drinks])
        mix = cn_string(s, size_prior(n, lam))
        assert len(mix.weights) == 2**n - 1
        assert abs(math.fsum(mix.weights) - 1.0) <= WEIGHT_SUM_TOL

    def test_long_string_with_derived_weights(self, colors, drinks):
        n = 17
        s = WordString.resolve([LONG_POOL[i % 6] for i in range(n)], [colors, drinks])
        follow = WordString.resolve([LONG_POOL[(i + 2) % 6] for i in range(n)], [colors, drinks])
        weights = derive_weights(s, follow, 0.5, NegationConfig(sigma=0.5))
        assert abs(math.fsum(cn_string(s, weights).weights) - 1.0) <= WEIGHT_SUM_TOL

    @pytest.mark.parametrize(
        "score", [interpretation_scores, derive_weights, best_interpretation]
    )
    def test_scoring_past_the_guard_raises(self, colors, drinks, score):
        n = MAX_STRING_WORDS + 1
        s = WordString.resolve([LONG_POOL[i % 6] for i in range(n)], [colors, drinks])
        with pytest.raises(TooManyWords, match=f"got {n}"):
            score(s, s)


class TestStringScore:
    def test_red_interpretation(self, red_wine, colors, drinks):
        follow = WordString.resolve(["white", "wine"], [colors, drinks])
        states = (cn_word("red", colors), drinks.word_operator("wine"))
        assert string_score(states, follow, sigma=0.5) == pytest.approx(2 / 3, abs=1e-12)

    def test_wine_interpretation(self, red_wine, colors, drinks):
        follow = WordString.resolve(["white", "wine"], [colors, drinks])
        states = (colors.word_operator("red"), cn_word("wine", drinks))
        assert string_score(states, follow, sigma=0.5) == pytest.approx(1 / 9, abs=1e-12)

    def test_string_vs_itself(self, red_wine):
        assert string_score(red_wine.originals(), red_wine, sigma=0) == 1.0

    # a string is checked against its follow-up once, by score_string; the
    # Lexicon constructor checks each operator's dim and labels
    def test_length_mismatch(self, red_wine, colors):
        follow = WordString.resolve(["white"], [colors])
        with pytest.raises(AlignmentError, match="length mismatch: 2 positions vs 1"):
            score_string(red_wine, follow)

    def test_dim_mismatch(self, colors, fig1):
        s = WordString.resolve(["red"], [colors])
        follow = WordString.resolve(["dog"], [fig1])
        with pytest.raises(
            AlignmentError,
            match=r"position 0: slot spaces differ \(red, white, rosé\) "
            r"vs \(hamster, guinea_pig, dog, planet\)",
        ):
            score_string(s, follow)

    def test_same_dim_wrong_space(self, colors, drinks):
        # colors and drinks are both 3-dimensional; the leaves catch the swap
        s = WordString.resolve(["red"], [colors])
        follow = WordString.resolve(["wine"], [drinks])
        with pytest.raises(AlignmentError, match="slot spaces differ"):
            score_string(s, follow)


class TestDeriveWeights:
    def test_red_wine_against_white_wine(self, red_wine, colors, drinks):
        follow = WordString.resolve(["white", "wine"], [colors, drinks])
        w = derive_weights(red_wine, follow, lambda_size=0.75, cfg=NegationConfig(sigma=0.5))
        np.testing.assert_allclose(w, (12 / 17, 2 / 17, 3 / 17), atol=1e-12)
        # ordering: negate-red beats negate-both beats negate-wine
        assert w[0] > w[2] > w[1]

    def test_sigma_comes_from_cfg(self, red_wine, colors, drinks):
        # unsmoothed, "white" rules out keeping "red" and "wine" rules out
        # negating "wine": only {red} survives
        white_wine = WordString.resolve(["white", "wine"], [colors, drinks])
        assert derive_weights(red_wine, white_wine, cfg=NegationConfig(sigma=0)) == (
            1.0,
            0.0,
            0.0,
        )

    def test_matches_exhaustive_oracle(self, red_wine, colors, drinks):
        from convneg.entailment import overlap_score
        from convneg.negation import DEFAULTS

        follow = WordString.resolve(["rosé", "beer"], [colors, drinks])
        lam, sig = 0.6, 0.25
        got = derive_weights(red_wine, follow, lam, NegationConfig(sigma=sig))
        ops = {
            (0, False): colors.word_operator("red"),
            (0, True): cn_word("red", colors, DEFAULTS),
            (1, False): drinks.word_operator("wine"),
            (1, True): cn_word("wine", drinks, DEFAULTS),
        }
        raw = []
        for subset in subsets_oracle(2):
            prod = lam ** (len(subset) - 1)
            for i, slot in enumerate(follow.positions):
                prod *= overlap_score(ops[(i, i in subset)], slot.word, slot.lex, sig)
            raw.append(prod)
        want = np.asarray(raw) / sum(raw)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_fallback_to_size_prior(self, red_wine):
        w = derive_weights(red_wine, red_wine, lambda_size=0.5, cfg=NegationConfig(sigma=0))
        np.testing.assert_allclose(w, (0.4, 0.4, 0.2), atol=1e-12)

    def test_uninformative_follow_up_reduces_to_prior(self, red_wine, colors, drinks):
        # top concepts entail everything, so every interpretation scores 1
        follow = WordString.resolve(["color", "drink"], [colors, drinks])
        w = derive_weights(red_wine, follow, lambda_size=0.75, cfg=NegationConfig(sigma=0))
        np.testing.assert_allclose(w, (4 / 11, 4 / 11, 3 / 11), atol=1e-12)

    def test_single_word_weight_is_one(self, fig1):
        s = WordString.resolve(["hamster"], [fig1])
        t = WordString.resolve(["dog"], [fig1])
        for lam in (0.25, 1.0):
            assert derive_weights(s, t, lambda_size=lam, cfg=NegationConfig(sigma=0)) == (1.0,)
        # orthogonal target: fallback, still (1.0,)
        assert derive_weights(s, s, lambda_size=0.5, cfg=NegationConfig(sigma=0)) == (1.0,)

    def test_size_prior_monotone_under_uniform_scores(self, colors, drinks):
        s = WordString.resolve(["red", "wine"], [colors, drinks])
        follow = WordString.resolve(["color", "drink"], [colors, drinks])
        w = derive_weights(s, follow, lambda_size=0.75, cfg=NegationConfig(sigma=0))
        by_size = {}
        for subset, weight in zip(enumerate_negation_sets(2), w):
            by_size.setdefault(len(subset), []).append(weight)
        assert min(by_size[1]) >= max(by_size[2])

    def test_permutation_equivariance(self, colors, drinks):
        s = WordString.resolve(["red", "wine"], [colors, drinks])
        follow = WordString.resolve(["white", "beer"], [colors, drinks])
        swapped = WordString.resolve(["wine", "red"], [drinks, colors])
        follow_swapped = WordString.resolve(["beer", "white"], [drinks, colors])
        w = derive_weights(s, follow, 0.75, NegationConfig(sigma=0.5))
        v = derive_weights(swapped, follow_swapped, 0.75, NegationConfig(sigma=0.5))
        assert v[0] == pytest.approx(w[1], abs=1e-15)
        assert v[1] == pytest.approx(w[0], abs=1e-15)
        assert v[2] == pytest.approx(w[2], abs=1e-15)

    def test_weights_sum_to_one(self, red_wine, colors, drinks):
        for target in (["white", "wine"], ["rosé", "juice"], ["red", "beer"]):
            follow = WordString.resolve(target, [colors, drinks])
            w = derive_weights(red_wine, follow)
            assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_validation(self, red_wine):
        for lam in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                derive_weights(red_wine, red_wine, lambda_size=lam)

    @pytest.mark.parametrize("lam", [0.0, -1.0, 1.5, 2.0, math.nan, math.inf])
    def test_size_prior_checks_lambda_like_derive_weights(self, red_wine, lam):
        message = re.escape(f"lambda_size must lie in (0, 1], got {lam}")
        with pytest.raises(ValueError, match=message):
            size_prior(2, lam)
        with pytest.raises(ValueError, match=message):
            derive_weights(red_wine, red_wine, lambda_size=lam)

    def test_misaligned_context(self, red_wine, colors, drinks):
        follow = WordString.resolve(["white"], [colors])
        with pytest.raises(AlignmentError):
            derive_weights(red_wine, follow)
        # same length, each word in the other position's space
        follow = WordString.resolve(["wine", "red"], [colors, drinks])
        with pytest.raises(AlignmentError, match=r"position 0: slot spaces differ \(red, white, rosé\)"):
            derive_weights(red_wine, follow)


class TestBestInterpretation:
    def test_red_wine(self, red_wine, colors, drinks):
        follow = WordString.resolve(["white", "wine"], [colors, drinks])
        subset, score = best_interpretation(red_wine, follow, 0.75, NegationConfig(sigma=0.5))
        assert subset == (0,)
        assert score == pytest.approx(2 / 3, abs=1e-12)

    def test_string_vs_itself_falls_to_first_singleton(self, red_wine):
        subset, score = best_interpretation(red_wine, red_wine, 0.75, NegationConfig(sigma=0))
        assert subset == (0,)
        assert score == 0.0

    def test_single_word(self, fig1):
        s = WordString.resolve(["hamster"], [fig1])
        t = WordString.resolve(["guinea_pig"], [fig1])
        subset, score = best_interpretation(s, t, 0.75, NegationConfig(sigma=0))
        assert subset == (0,)
        assert score == pytest.approx(7 / 11, abs=1e-12)

    def test_tie_breaks_canonically(self, colors, drinks):
        s = WordString.resolve(["red", "wine"], [colors, drinks])
        follow = WordString.resolve(["color", "drink"], [colors, drinks])
        subset, score = best_interpretation(s, follow, 0.75, NegationConfig(sigma=0))
        assert subset == (0,)  # {0} and {1} both score 1; earliest wins
        assert score == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# differential check: factored interpretation scores against exhaustive scoring


def exhaustive_scores(s, target, lam, cfg):
    """lambda^(|S|-1) * string_score over every negation set, states built
    subset by subset."""
    raw = []
    for subset in enumerate_negation_sets(len(s)):
        states = tuple(
            cn_word(slot.word, slot.lex, cfg) if i in subset else slot.lex.word_operator(slot.word)
            for i, slot in enumerate(s.positions)
        )
        raw.append(lam ** (len(subset) - 1) * string_score(states, target, cfg.sigma))
    return raw


def hexes(xs):
    """Exact float bits, so 0.0 and -0.0 differ."""
    return [x.hex() for x in xs]


def _negation_fails(slot, cfg):
    try:
        cn_word(slot.word, slot.lex, cfg)
    except ZeroNegation:
        return True
    return False


@st.composite
def string_pairs(draw, lexes):
    n = draw(st.integers(1, 5))
    picked = [draw(st.sampled_from(lexes)) for _ in range(n)]
    words = [draw(st.sampled_from(lex.concepts)) for lex in picked]
    if draw(st.booleans()):
        follow = list(words)  # with sigma 0 often all-zero
    else:
        follow = [draw(st.sampled_from(lex.concepts)) for lex in picked]
    s = WordString(tuple(Slot(w, lex) for w, lex in zip(words, picked)))
    t = WordString(tuple(Slot(w, lex) for w, lex in zip(follow, picked)))
    return s, t


class TestFactoredScoresMatchExhaustive:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        lam=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        sigma=st.sampled_from([0.0, 0.25, 0.5]),
        decay=st.sampled_from([None, 0.3]),
    )
    def test_bitwise_equal_and_canonical_best(self, colors, drinks, fig1, data, lam, sigma, decay):
        s, target = data.draw(string_pairs((colors, drinks, fig1)))
        cfg = NegationConfig(decay=decay, sigma=sigma)
        failing = [i for i, slot in enumerate(s.positions) if _negation_fails(slot, cfg)]
        if failing:
            # roots negate to zero; the first singleton that needs one is named
            for score in (interpretation_scores, score_string):
                with pytest.raises(ZeroNegation, match=rf"negation set \{{{failing[0]}\}}"):
                    score(s, target, lam, cfg)
            return
        want = exhaustive_scores(s, target, lam, cfg)
        got = interpretation_scores(s, target, lam, cfg)
        assert hexes(got) == hexes(want)
        scored = score_string(s, target, lam, cfg)
        assert hexes(scored.scores) == hexes(want)
        assert scored.lambda_size == lam
        assert scored.subsets == tuple(enumerate_negation_sets(len(s)))
        # each position's overlap with the follow-up, kept (b_i) and negated (a_i)
        pairs = list(zip(s.positions, target.positions))
        kept = [overlap_score(p.lex.word_operator(p.word), t.word, t.lex, sigma) for p, t in pairs]
        negations = [cn_word(p.word, p.lex, cfg) for p, _ in pairs]
        negated = [overlap_score(op, t.word, t.lex, sigma) for op, (_, t) in zip(negations, pairs)]
        assert (hexes(scored.kept), hexes(scored.negated)) == (hexes(kept), hexes(negated))
        # weights: a plain sum and r / total, or the size prior when all vanish
        total = sum(want)
        weights = [r / total for r in want] if total > 0 else size_prior(len(s), lam)
        assert hexes(scored.weights) == hexes(weights)
        assert hexes(derive_weights(s, target, lam, cfg)) == hexes(weights)
        # best: the canonical argmax, the earliest set among equal scores
        k = max(range(len(want)), key=lambda i: (want[i], -i))
        for subset, score in (scored.best, best_interpretation(s, target, lam, cfg)):
            assert (subset, score.hex()) == (enumerate_negation_sets(len(s))[k], want[k].hex())

    def test_all_zero_and_tied_targets_covered(self, colors, drinks):
        s = WordString.resolve(["red", "wine", "white"], [colors, drinks])
        zero = interpretation_scores(s, s, 0.75, NegationConfig(sigma=0))
        assert hexes(zero) == hexes(exhaustive_scores(s, s, 0.75, NegationConfig(sigma=0)))
        assert max(zero) == 0.0
        assert best_interpretation(s, s, 0.75, NegationConfig(sigma=0)) == ((0,), 0.0)
        top = WordString.resolve(["color", "drink", "color"], [colors, drinks])
        tied = interpretation_scores(s, top, 1.0, NegationConfig(sigma=0))
        assert hexes(tied) == hexes(exhaustive_scores(s, top, 1.0, NegationConfig(sigma=0)))
        assert set(tied) == {1.0}
        assert best_interpretation(s, top, 1.0, NegationConfig(sigma=0)) == ((0,), 1.0)


# ---------------------------------------------------------------------------
# differential check: the product tree against every subset multiplied out

# overlaps on a coarse grid, so exact ties and near-ties (0.75 * 0.1 against
# 0.075) are common; zeros make all-zero and signed-zero scores
QUANTIZED = st.sampled_from([0.0, 0.075, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0])


def reference_tree(kept, negated, lam):
    """lambda^(|S|-1) times math.prod of each negation set's picks."""
    return [
        lam ** (len(subset) - 1) * math.prod(_choose(subset, kept, negated))
        for subset in enumerate_negation_sets(len(kept))
    ]


class TestProductTreeMatchesExhaustive:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), lam=st.sampled_from([0.25, 0.3, 0.75, 1.0]))
    def test_bitwise_equal_with_earliest_best(self, data, lam):
        n = data.draw(st.integers(1, 12))
        factor = st.one_of(QUANTIZED, st.floats(0.0, 1.0))
        kept = data.draw(st.lists(factor, min_size=n, max_size=n))
        negated = data.draw(st.lists(factor, min_size=n, max_size=n))
        want = reference_tree(kept, negated, lam)
        got = _product_tree(kept, negated, lam)
        assert hexes(got) == hexes(want)
        k = max(range(len(want)), key=lambda i: (want[i], -i))
        best = StringScores(tuple(kept), tuple(negated), lam, tuple(got)).best
        assert best == (enumerate_negation_sets(n)[k], want[k])

    def test_signed_zeros_kept(self):
        got = _product_tree([-0.0, 0.5], [0.25, -0.0], 1.0)
        assert hexes(got) == hexes(reference_tree([-0.0, 0.5], [0.25, -0.0], 1.0))
        # {0} scores 0.0 * 1.0, {1} -0.0 * 1.0 and {0,1} 0.0 * 1.0: the first wins
        kept, negated = (-0.0, 1.0), (0.0, 1.0)
        scored = StringScores(kept, negated, 1.0, tuple(_product_tree(kept, negated, 1.0)))
        assert hexes(scored.scores) == hexes([0.0, -0.0, 0.0])
        subset, score = scored.best
        assert (subset, score.hex()) == ((0,), (0.0).hex())

    @pytest.mark.parametrize("lam", [0.25, 0.3, 0.75, 1.0, 1e-3, 1 / 3, 0.123456789])
    def test_size_prior_matches_subset_listing(self, lam, subset_sizes):
        for n, sizes in subset_sizes.items():
            raw = [lam ** (k - 1) for k in sizes]
            total = sum(raw)
            assert bits(size_prior(n, lam)) == bits([r / total for r in raw]), n

    @pytest.mark.parametrize("lam", [0.3, 0.75, 1.0, 1 / 3, 0.123456789])
    def test_prior_mixture_divides_by_fsum(self, colors, drinks, lam):
        for n in range(1, 17):
            s = WordString.resolve([LONG_POOL[i % 6] for i in range(n)], [colors, drinks])
            prior = size_prior(n, lam)
            total = math.fsum(prior)
            assert bits(cn_string(s, prior).weights) == bits([w / total for w in prior]), n


class TestKeptSizePrior:
    """size_prior is kept per (n, type(lambda_size), lambda_size), so each
    call returns what an uncached call returns, element types included."""

    LAMBDAS = (0.75, np.float64(0.75), 1)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_each_type_gets_an_uncached_answer(self, order):
        size_prior.cache_clear()
        for n in (1, 3, 7):
            for lam in (self.LAMBDAS[i] for i in order):
                got, want = size_prior(n, lam), size_prior.__wrapped__(n, lam)
                assert [type(x) for x in got] == [type(x) for x in want]
                assert hexes(got) == hexes(want)
                assert size_prior(n, lam) is got
        # numpy's scalar type stays in the elements, an int lambda gives floats
        assert {type(x) for x in size_prior(3, np.float64(0.75))} == {np.float64}
        assert {type(x) for x in size_prior(3, 1)} == {float}

    def test_errors_raise_on_every_call(self):
        for _ in range(2):
            for lam in (0.0, 2.0, math.nan, np.float64(1.5)):
                with pytest.raises(ValueError, match="lambda_size must lie in"):
                    size_prior(3, lam)
            for n in (0, MAX_STRING_WORDS + 1):
                with pytest.raises(TooManyWords, match=f"got {n}"):
                    size_prior(n)
                with pytest.raises(TooManyWords, match=f"got {n}"):
                    size_prior(n, np.float64(0.75))


@pytest.fixture(scope="module")
def subset_sizes():
    """Each negation set's size, in canonical order, for every n up to the guard."""
    return {
        n: [len(subset) for subset in enumerate_negation_sets(n)]
        for n in range(1, MAX_STRING_WORDS + 1)
    }


def bits(xs):
    """The float64 bytes of ``xs``: a bitwise comparison at C speed."""
    return array("d", xs).tobytes()


# ---------------------------------------------------------------------------
# a string keeps its last scored result


def counting(monkeypatch, *names):
    """Count calls of the named strings-module functions."""
    import convneg.strings

    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(convneg.strings, name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(convneg.strings, name, wrapper)
    return calls


class TestKeptScores:
    @pytest.fixture
    def pair(self, colors, drinks):
        """A fresh string and follow-up, so nothing is kept from other tests."""
        return (
            WordString.resolve(["red", "wine"], [colors, drinks]),
            WordString.resolve(["white", "wine"], [colors, drinks]),
        )

    def test_repeat_returns_the_kept_object(self, pair, monkeypatch):
        s, follow = pair
        calls = counting(monkeypatch, "overlap_score", "cn_word")
        first = score_string(s, follow, 0.75, NegationConfig(sigma=0.5))
        assert score_string(s, follow, 0.75, NegationConfig(sigma=0.5)) is first
        assert derive_weights(s, follow, 0.75, NegationConfig(sigma=0.5)) == first.weights
        assert interpretation_scores(s, follow, 0.75, NegationConfig(sigma=0.5)) == list(first.scores)
        assert best_interpretation(s, follow, 0.75, NegationConfig(sigma=0.5)) == first.best
        assert calls == {"overlap_score": 4, "cn_word": 2}  # one scoring: 2n and n

    def test_other_keys_recompute(self, pair, colors, drinks):
        s, follow = pair
        first = score_string(s, follow)
        twin = WordString(follow.positions)  # equal content, another object
        assert twin == follow
        for args in [(twin,), (follow, 0.5), (follow, 0.75, NegationConfig(sigma=0))]:
            base = score_string(s, follow)
            got = score_string(s, *args)
            assert got is not base
            assert got is score_string(s, *args)
        assert score_string(s, twin) == first
        # an equal lambda of another type is another key: the field keeps the type
        assert type(score_string(s, follow, 1).lambda_size) is int
        assert type(score_string(s, follow, 1.0).lambda_size) is float

    def test_only_the_last_result_is_kept(self, pair, colors, drinks):
        s, follow = pair
        other = WordString.resolve(["red", "beer"], [colors, drinks])
        first = score_string(s, follow)
        second = score_string(s, other)
        assert score_string(s, other) is second
        again = score_string(s, follow)
        assert again is not first and again == first
        assert score_string(s, other) is not second

    def test_errors_raise_on_every_call(self, pair, colors, drinks, fig1):
        s, follow = pair
        kept = score_string(s, follow)
        short = WordString.resolve(["red"], [colors])
        long = WordString.resolve([LONG_POOL[i % 6] for i in range(21)], [colors, drinks])
        entity = WordString.resolve(["entity"], [fig1])
        for _ in range(2):
            with pytest.raises(AlignmentError, match="length mismatch"):
                score_string(s, short)
            with pytest.raises(TooManyWords, match="got 21"):
                score_string(long, long)
            with pytest.raises(ZeroNegation, match=r"negation set \{0\}"):
                score_string(entity, entity)
            with pytest.raises(ValueError, match="lambda_size"):
                score_string(s, follow, 2.0)
        assert score_string(s, follow) is kept

    def test_copies_start_empty(self, pair):
        s, follow = pair
        kept = score_string(s, follow)
        twins = [
            pickle.loads(pickle.dumps(s)),
            copy.copy(s),
            copy.deepcopy(s),
            dataclasses.replace(s),
        ]
        for twin in twins:
            assert twin.words == s.words and repr(twin) == repr(s)
            assert twin._scored is None
        # a shallow copy shares the lexicons, so it compares equal
        assert twins[1] == s and twins[3] == s
        assert score_string(twins[1], follow) is not kept
        # nor does a pickle carry the kept scores
        assert pickle.dumps(s) == pickle.dumps(WordString(s.positions))
        assert score_string(twins[3], follow) == kept
        assert "_scored" not in repr(s)


# ---------------------------------------------------------------------------
# differential check: terms built on read against eagerly built terms


def eager_terms(s, weights, cfg):
    """cn_string's terms built up front, every state tuple materialized and
    the weights normalized by a plain sum."""
    originals = s.originals()
    negated = []
    for i, slot in enumerate(s.positions):
        try:
            negated.append(cn_word(slot.word, slot.lex, cfg))
        except ZeroNegation as exc:
            raise ZeroNegation(f"negation set {{{i}}}: {exc}") from exc
    total = sum(float(w) for w in weights)
    return tuple(
        MixtureTerm(
            subset,
            float(w) / total,
            tuple(negated[i] if i in subset else op for i, op in enumerate(originals)),
        )
        for subset, w in zip(enumerate_negation_sets(len(s)), weights)
    )


def fingerprint(op):
    """An operator's labels, representation and exact entries."""
    entries = op._diag if op._diag is not None else op._matrix
    return (op.labels, op._diag is None, entries.shape, entries.tobytes())


@st.composite
def strings_and_weights(draw, lexes):
    n = draw(st.integers(1, 6))
    picked = [draw(st.sampled_from(lexes)) for _ in range(n)]
    s = WordString(tuple(Slot(draw(st.sampled_from(lex.concepts)), lex) for lex in picked))
    k = 2**n - 1
    if draw(st.booleans()):
        weights = [0.0] * k
        weights[draw(st.integers(0, k - 1))] = draw(st.sampled_from([1.0, 0.3, 7.0]))
    else:
        value = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.integers(0, 5))
        weights = draw(st.lists(value, min_size=k, max_size=k))
        if not any(weights):
            weights[draw(st.integers(0, k - 1))] = 1.0
    return s, weights


class TestTermsMatchEager:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), decay=st.sampled_from([None, 0.3]))
    def test_terms_equal_eager_reference(self, colors, drinks, fig1, data, decay):
        s, weights = data.draw(strings_and_weights((colors, drinks, fig1)))
        cfg = NegationConfig(decay=decay)
        try:
            want = eager_terms(s, weights, cfg)
        except ZeroNegation as exc:
            # roots negate to zero: cn_string itself names the singleton
            with pytest.raises(ZeroNegation) as caught:
                cn_string(s, weights, cfg)
            assert str(caught.value) == str(exc)
            assert str(exc).startswith("negation set {")
            return
        mix = cn_string(s, weights, cfg)
        got = mix.terms
        assert mix.subsets == tuple(t.subset for t in want)
        assert [t.subset for t in got] == [t.subset for t in want]
        for g, w in zip(got, want):
            assert abs(g.weight - w.weight) <= 1e-15
            assert [fingerprint(op) for op in g.states] == [fingerprint(op) for op in w.states]
        assert mix.weights == tuple(t.weight for t in got)
