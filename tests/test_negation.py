import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import FIG1_TSV, FIXTURES, golden_stores, rand_full_rank_psd
from convneg.entailment import overlap_score
from convneg.errors import NotSubnormalized, ZeroNegation
from convneg.lexicon import build_lexicon
from convneg.negation import (
    COMPOSITION_CHOICES,
    DEFAULTS,
    LOGICAL_CHOICES,
    NegationConfig,
    alternatives,
    cn_word,
    logical_not_complement,
    logical_not_pinv,
)
from convneg.operators import Operator, diagonal, identity, normalize
from convneg.taxonomy import parse_taxonomy

ALL_CONFIGS = [
    NegationConfig(logical=lg, composition=cp)
    for lg in ("complement", "pinv")
    for cp in ("hadamard", "conjugate")
]


@pytest.fixture(scope="module")
def fig1():
    return build_lexicon(parse_taxonomy(FIG1_TSV))


@pytest.fixture(scope="module")
def two_leaf():
    return build_lexicon(parse_taxonomy("a\troot\nb\troot\n"))


class TestNegationConfig:
    def test_defaults(self):
        assert DEFAULTS == NegationConfig("complement", "hadamard", None, 0.5)
        assert repr(DEFAULTS) == (
            "NegationConfig(logical='complement', composition='hadamard', decay=None, sigma=0.5)"
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"logical": "not"},
            {"composition": "tensor"},
            {"decay": 0.0},
            {"decay": 1.0},
            {"sigma": -0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NegationConfig(**kwargs)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            NegationConfig(sigma=sigma)


class TestLogicalNotComplement:
    def test_projector(self):
        out = logical_not_complement(diagonal([1, 0, 0, 0]))
        np.testing.assert_array_equal(out.matrix, np.diag([0.0, 1, 1, 1]))

    def test_identity_goes_to_zero(self):
        assert logical_not_complement(identity(3)).is_zero()

    def test_double_negation_on_projectors(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            rank = int(rng.integers(0, dim + 1))
            basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            p = Operator(basis[:, :rank] @ basis[:, :rank].T)
            back = logical_not_complement(logical_not_complement(p))
            np.testing.assert_allclose(back.matrix, p.matrix, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotSubnormalized):
            logical_not_complement(Operator(1.5 * np.eye(2)))

    def test_tolerates_roundoff_above_one(self):
        out = logical_not_complement(Operator((1 + 5e-10) * np.eye(2)))
        assert out.min_eigenvalue() >= -1e-10


class TestLogicalNotPinv:
    def test_reciprocal_on_support(self):
        out = logical_not_pinv(diagonal([1, 0.5, 0, 0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 1, 0, 0]), atol=1e-12)

    def test_identity_fixed_point(self):
        out = logical_not_pinv(identity(4))
        np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-12)

    def test_involution_up_to_supnorm(self, rng):
        for _ in range(50):
            a = rand_full_rank_psd(rng, int(rng.integers(1, 6)))
            twice = logical_not_pinv(logical_not_pinv(a))
            np.testing.assert_allclose(
                twice.matrix, normalize(a, "sup").matrix, atol=1e-8
            )


class TestCnWord:
    def test_hamster_sup_view(self, fig1):
        out = normalize(cn_word("hamster", fig1), "sup")
        np.testing.assert_allclose(out.matrix, np.diag([0, 1, 3 / 7, 1 / 7]), atol=1e-12)
        assert out.labels == ("hamster", "guinea_pig", "dog", "planet")

    def test_hamster_trace_view(self, fig1):
        out = cn_word("hamster", fig1)
        np.testing.assert_allclose(
            out.matrix, np.diag([0, 7 / 11, 3 / 11, 1 / 11]), atol=1e-12
        )

    def test_two_leaf_exact(self, two_leaf):
        out = cn_word("a", two_leaf)
        assert np.array_equal(out.matrix, two_leaf.word_operator("b").matrix)

    def test_root_raises_under_complement(self, fig1):
        with pytest.raises(ZeroNegation, match=r"entity.*complement"):
            cn_word("entity", fig1)

    def test_root_survives_under_pinv(self, fig1):
        out = cn_word("entity", fig1, NegationConfig(logical="pinv"))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_all_concepts_all_configs_stay_psd(self, fig1):
        for cfg in ALL_CONFIGS:
            for word in sorted(fig1.concepts):
                if word == "entity" and cfg.logical == "complement":
                    with pytest.raises(ZeroNegation):
                        cn_word(word, fig1, cfg)
                    continue
                out = cn_word(word, fig1, cfg)
                assert out.min_eigenvalue() >= -1e-10
                assert out.trace() == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_matches_hadamard_on_diagonals(self, fig1):
        # sqrt(wc) rho sqrt(wc) and entrywise product agree when all operators
        # share the leaf eigenbasis
        for word in ("hamster", "rodent", "dog"):
            had = cn_word(word, fig1, NegationConfig(composition="hadamard"))
            conj = cn_word(word, fig1, NegationConfig(composition="conjugate"))
            np.testing.assert_allclose(had.matrix, conj.matrix, atol=1e-12)

    def test_decay_override_changes_context(self, fig1):
        flat = cn_word("hamster", fig1, NegationConfig(decay=0.9))
        steep = cn_word("hamster", fig1)
        assert not np.allclose(flat.matrix, steep.matrix)
        # flatter decay pushes relatively more mass to distant leaves
        assert flat.matrix[3, 3] > steep.matrix[3, 3]

    def test_denies_the_word_itself(self, fig1):
        for leaf in fig1.leaves:
            state = cn_word(leaf, fig1)
            assert overlap_score(state, leaf, fig1, sigma=0) == 0.0


class TestAlternatives:
    def test_hamster_ranking(self, fig1):
        cfg = NegationConfig(sigma=0)
        got = alternatives("hamster", fig1, cfg, top_k=3)
        assert [w for w, _ in got] == ["guinea_pig", "dog", "planet"]
        for (_, score), want in zip(got, (7 / 11, 3 / 11, 1 / 11)):
            assert score == pytest.approx(want, abs=1e-9)

    def test_word_itself_never_listed(self, fig1):
        got = alternatives("hamster", fig1)
        assert "hamster" not in [w for w, _ in got]
        assert len(got) == 3

    def test_top_k_truncates(self, fig1):
        assert len(alternatives("hamster", fig1, top_k=2)) == 2
        with pytest.raises(ValueError):
            alternatives("hamster", fig1, top_k=0)

    def test_decay_override_smooths_with_stored_context(self, fig1):
        # cfg.decay recomputes the context cn_word composes with; the scoring
        # predicate is smoothed with the stored (decay 0.5) context
        cfg = NegationConfig(decay=0.25, sigma=0.5)
        got = alternatives("hamster", fig1, cfg)
        assert got[0] == ("guinea_pig", pytest.approx(0.805996, abs=1e-6))
        at_override = build_lexicon(fig1.taxonomy, decay=0.25)
        state = cn_word("hamster", fig1, cfg)
        assert overlap_score(state, "guinea_pig", at_override, 0.5) == pytest.approx(
            0.793063, abs=1e-6
        )

    def test_two_leaf(self, two_leaf):
        assert alternatives("a", two_leaf, DEFAULTS, 1) == [("b", pytest.approx(1.0))]

    def test_sibling_preference(self):
        cfg = NegationConfig(sigma=0)
        for source in (FIG1_TSV, (FIXTURES / "names.tsv").read_text(),
                       (FIXTURES / "roles.tsv").read_text()):
            tax = parse_taxonomy(source)
            lex = build_lexicon(tax)
            for word in lex.leaves:
                siblings = {
                    leaf
                    for parent in tax.parents[word]
                    for leaf in tax.children[parent]
                    if leaf in lex.leaves and leaf != word
                }
                if not siblings:
                    continue
                scores = dict(alternatives(word, lex, cfg))
                others = set(scores) - siblings
                if others:
                    assert min(scores[s] for s in siblings) >= max(
                        scores[o] for o in others
                    )

    def test_ranking_invariant_under_word_scaling(self, fig1):
        for c in (0.25, 4.0):
            ops = dict(fig1.word_ops)
            orig = ops["hamster"]
            ops["hamster"] = Operator(c * orig.matrix, orig.labels)
            scaled = dataclasses.replace(fig1, word_ops=ops)
            for cfg in ALL_CONFIGS:
                assert [w for w, _ in alternatives("hamster", scaled, cfg)] == [
                    w for w, _ in alternatives("hamster", fig1, cfg)
                ]


GOLDEN_CONFIGS = [
    NegationConfig(logical, composition, decay=decay, sigma=sigma)
    for sigma in (0.0, 0.25, 0.5)
    for logical in LOGICAL_CHOICES
    for composition in COMPOSITION_CHOICES
    for decay in (None, 0.3)
]
# SHA-256 of ``golden_rankings`` per lexicon of ``golden_stores``, recorded
# from the ranking that sorted (-score, leaf index) keys and checked every
# leaf's smoothed predicate on every call. fig1-turned negates dense
# operators, whose pseudoinverse and conjugate update take LAPACK's
# eigensolver: its digest is tied to the numpy/BLAS build (CI prints it).
GOLDEN_RANKINGS = {
    "colors": "61a2683a64fb43a6446ad5183ff9ff7eba2901f366c6b0c2295cf2efbcd6e999",
    "drinks": "0ad6f063d485f442031000ba5eae773516b6093982ee11907c46d4a51e8fa7fd",
    "fig1": "9c0dba00e42aca2635bb23311fbb5c6cdde8145d502421a0f14a7da35aea9e76",
    "fig1-turned": "358888890df3b2383cf46adf365953c88928cce66938bd99c47c0c3df2ed0355",
    "kinds": "df2e30bc9a68918161428067a4f8028f6af77c1d9e96abf2d31e5c6e6b65f76e",
    "names": "33099f18b66d4f44c18470637c48b693ff33944586c56e22df16fab39be183e1",
    "roles": "bf537725d2e73777618689b82c2284b8dd2ef7506fb7674edf78f2bd05ab413a",
}


def golden_rankings(lex):
    """Every concept's full ranking under every ``GOLDEN_CONFIGS`` entry,
    scores by ``float.hex``, one line per call, or the ZeroNegation."""
    lines = []
    for cfg in GOLDEN_CONFIGS:
        for word in lex.concepts:
            try:
                got = " ".join(f"{leaf}={score.hex()}" for leaf, score in alternatives(word, lex, cfg))
            except ZeroNegation:
                got = "ZeroNegation"
            lines.append(f"{cfg} {word}: {got}\n")
    return "".join(lines)


class TestGoldenRankings:
    def test_golden_rankings(self):
        stores = golden_stores()
        assert sorted(stores) == sorted(GOLDEN_RANKINGS)
        for name, lex in stores.items():
            first = golden_rankings(lex)
            # the second pass copies out the kept rankings
            assert golden_rankings(lex) == first, name
            digest = hashlib.sha256(first.encode()).hexdigest()
            assert digest == GOLDEN_RANKINGS[name], name
