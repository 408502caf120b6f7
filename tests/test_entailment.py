import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COLORS_TSV,
    EQ_TOL,
    FIG1_TSV,
    FIXTURES,
    psd_operators,
    rand_full_rank_psd,
    rand_psd,
)
from convneg.entailment import (
    SUPPORT_RESIDUAL_TOL,
    _leaf_scores,
    loewner_k,
    loewner_k_raw,
    overlap_score,
    smoothed_predicate,
)
from convneg.errors import DimMismatch, InvalidOperator, UnknownWord, ZeroOperator
from convneg.lexicon import build_lexicon
from convneg.operators import (
    Operator,
    diagonal,
    hadamard,
    identity,
    normalize,
    support_projector,
)
from convneg.taxonomy import load_taxonomy, parse_taxonomy


@pytest.fixture(scope="module")
def fig1():
    return build_lexicon(parse_taxonomy(FIG1_TSV))


@pytest.fixture(scope="module")
def colors():
    return build_lexicon(parse_taxonomy(COLORS_TSV))


@pytest.fixture(scope="module")
def kinds():
    return build_lexicon(load_taxonomy(FIXTURES / "kinds.tsv"))


def cn_hamster_state(fig1):
    # complement . hadamard . trace-normalize, spelled out from primitives so
    # this file does not depend on the negation module
    p = fig1.word_operator("hamster")
    wc = fig1.worldly_context("hamster")
    comp = Operator(np.eye(4) - p.matrix, p.labels)
    return normalize(hadamard(comp, wc), "trace")


class TestLoewnerK:
    def test_hamster_below_rodent(self, fig1):
        k = loewner_k(fig1.word_operator("hamster"), fig1.word_operator("rodent"))
        assert k == pytest.approx(1.0, abs=1e-9)

    def test_rodent_not_below_hamster(self, fig1):
        assert loewner_k(fig1.word_operator("rodent"), fig1.word_operator("hamster")) == 0.0

    def test_self_entailment(self, rng):
        for dim in (1, 2, 5):
            a = rand_psd(rng, dim, rank=max(1, dim - 1))
            if a.is_zero():
                continue
            assert loewner_k(a, a) == pytest.approx(1.0, abs=1e-9)

    @given(a=psd_operators(min_dim=1, max_dim=4))
    @settings(deadline=None, max_examples=60)
    def test_self_entailment_hypothesis(self, a):
        assert loewner_k(a, a) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_self_entailment_ill_conditioned(self, seed):
        # two eigenvalues just above the support cut in a random basis: B's
        # eigenvalues alone whiten A only to ~1e-6 here
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        m = q @ np.diag([1.0, 3e-10, 5e-10, 0.0]) @ q.T
        a = Operator((m + m.T) / 2)
        assert loewner_k_raw(a, a) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_self_entailment_at_any_scale(self, scale):
        # the support cut is relative to B's largest eigenvalue, so the
        # direction where A is 5e-8 of its top stays in B's support at any scale
        a = diagonal([scale * 1e-3, scale * 5e-11])
        assert loewner_k_raw(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_left_raises(self):
        z = Operator(np.zeros((2, 2)))
        with pytest.raises(ZeroOperator):
            loewner_k(z, identity(2))

    def test_zero_right_is_zero(self):
        assert loewner_k(identity(2), Operator(np.zeros((2, 2)))) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            loewner_k(identity(2), identity(3))

    def test_scale_law_preclamp(self, rng):
        # k(cA, B) = k(A, B)/c exactly, before the [0,1] clamp
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            a = rand_psd(rng, dim)
            b = rand_full_rank_psd(rng, dim)
            base = loewner_k_raw(a, b)
            for c in (0.5, 2.0, 10.0):
                scaled = loewner_k_raw(Operator(c * a.matrix), b)
                assert scaled == pytest.approx(base / c, rel=1e-9)

    def test_maximality(self, rng):
        # B - kA stays PSD at the reported k and fails just above it
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            a = rand_psd(rng, dim)
            b = rand_full_rank_psd(rng, dim)
            k = loewner_k_raw(a, b)
            gap = np.linalg.eigvalsh(b.matrix - k * a.matrix)
            assert gap[0] >= -1e-8 * b.max_eigenvalue()
            worse = np.linalg.eigvalsh(b.matrix - 1.01 * k * a.matrix)
            assert worse[0] < 0.0

    def test_monotone_in_upper_operator(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            a = rand_psd(rng, dim)
            b = rand_full_rank_psd(rng, dim)
            c = rand_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            bigger = Operator(b.matrix + c.matrix)
            assert loewner_k(a, b) <= loewner_k(a, bigger) + 1e-10

    def test_contrapositive_on_indicators(self, rng):
        # P_A below P_B as indicator subsets forces I-P_B below I-P_A with k=1
        for _ in range(200):
            dim = int(rng.integers(3, 9))
            b_size = int(rng.integers(2, dim))           # proper, so I-P_B != 0
            b_set = rng.choice(dim, size=b_size, replace=False)
            a_size = int(rng.integers(1, b_size))        # proper nonempty subset
            a_set = rng.choice(b_set, size=a_size, replace=False)
            pa = np.zeros(dim)
            pa[a_set] = 1.0
            pb = np.zeros(dim)
            pb[b_set] = 1.0
            not_a = diagonal(1.0 - pa)
            not_b = diagonal(1.0 - pb)
            assert loewner_k(not_b, not_a) == pytest.approx(1.0, abs=1e-9)


def loewner_k_raw_two_eigh(a, b):
    """Reference: the support projector and B^{-1/2} from two separate
    eigendecompositions of B."""
    if b.is_zero():
        return 0.0
    comp = np.eye(b.dim) - support_projector(b).matrix
    outside = comp @ a.matrix @ comp
    residual = float(np.linalg.eigvalsh((outside + outside.T) / 2)[-1])
    if residual > SUPPORT_RESIDUAL_TOL * a.max_eigenvalue():
        return 0.0
    lam, vecs = np.linalg.eigh(b.matrix)
    keep = lam > 1e-10
    root_pinv = vecs[:, keep] @ np.diag(1.0 / np.sqrt(lam[keep])) @ vecs[:, keep].T
    m = root_pinv @ a.matrix @ root_pinv
    top = float(np.linalg.eigvalsh((m + m.T) / 2)[-1])
    if top <= 0.0:
        return 0.0
    return 1.0 / top


def _rotated(spectrum, basis):
    """basis[:, :r] diag(spectrum) basis[:, :r]^T for r = len(spectrum)."""
    v = basis[:, : len(spectrum)]
    m = v @ np.diag(spectrum) @ v.T
    return Operator((m + m.T) / 2.0)


@st.composite
def loewner_pairs(draw):
    """(A, B) with B of any rank and A either inside B's support or generic."""
    dim = draw(st.integers(1, 5))
    b_rank = draw(st.integers(1, dim))
    a_rank = draw(st.integers(1, dim))
    inside = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b_basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    b = _rotated(rng.uniform(0.2, 1.0, b_rank), b_basis)
    if inside:
        mix = b_basis[:, :b_rank] @ rng.standard_normal((b_rank, a_rank))
        a_basis, _ = np.linalg.qr(mix)
        a_rank = min(a_rank, b_rank)
    else:
        a_basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return _rotated(rng.uniform(0.2, 1.0, a_rank), a_basis), b


class TestLoewnerOneDecomposition:
    @given(pair=loewner_pairs())
    @settings(deadline=None, max_examples=200)
    def test_matches_two_decomposition_reference(self, pair):
        a, b = pair
        assert abs(loewner_k_raw(a, b) - loewner_k_raw_two_eigh(a, b)) <= EQ_TOL

    def test_rank_deficient_b_covers_both_branches(self):
        b = diagonal([1.0, 0.5, 0.0])
        inside, escaping = diagonal([0.5, 0.5, 0.0]), diagonal([0.5, 0.0, 0.5])
        assert loewner_k_raw(inside, b) == pytest.approx(1.0, abs=EQ_TOL)
        assert loewner_k_raw_two_eigh(inside, b) == pytest.approx(1.0, abs=EQ_TOL)
        assert loewner_k_raw(escaping, b) == loewner_k_raw_two_eigh(escaping, b) == 0.0


class TestSmoothedPredicate:
    def test_sigma_zero_is_plain_predicate(self, colors):
        out = smoothed_predicate("white", colors, sigma=0)
        assert np.array_equal(out.matrix, colors.word_operator("white").matrix)

    def test_colors_half_sigma(self, colors):
        out = smoothed_predicate("white", colors, sigma=0.5)
        want = np.diag([1 / 3, 1.0, 1 / 3])
        np.testing.assert_allclose(out.matrix, want, atol=1e-12)

    def test_keeps_full_entries_at_one(self, fig1, colors, kinds):
        for lex in (fig1, colors, kinds):
            for word in lex.concepts:
                p = lex.word_operator(word).diagonal()
                s = smoothed_predicate(word, lex, sigma=0.5).diagonal()
                assert np.all(s[p == 1.0] == pytest.approx(1.0, abs=1e-12))
                assert s.max() == pytest.approx(1.0, abs=1e-12)

    def test_negative_sigma_rejected(self, colors):
        with pytest.raises(ValueError):
            smoothed_predicate("white", colors, sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, colors, sigma):
        with pytest.raises(ValueError, match="sigma"):
            smoothed_predicate("white", colors, sigma=sigma)

    def test_unknown_word(self, colors):
        with pytest.raises(UnknownWord):
            smoothed_predicate("wine", colors, sigma=0.5)


class TestOverlapScore:
    def test_word_against_itself_is_max(self, kinds):
        rho = normalize(kinds.word_operator("human"), "trace")
        assert overlap_score(rho, "human", kinds, sigma=0) == pytest.approx(1.0, abs=1e-12)
        # smoothing does not disturb a perfectly aligned state
        assert overlap_score(rho, "human", kinds, sigma=0.5) == pytest.approx(1.0, abs=1e-12)

    def test_cn_hamster_alternatives(self, fig1):
        state = cn_hamster_state(fig1)
        assert overlap_score(state, "guinea_pig", fig1, sigma=0) == pytest.approx(7 / 11, abs=1e-9)
        assert overlap_score(state, "dog", fig1, sigma=0) == pytest.approx(3 / 11, abs=1e-9)
        assert overlap_score(state, "planet", fig1, sigma=0) == pytest.approx(1 / 11, abs=1e-9)
        assert overlap_score(state, "hamster", fig1, sigma=0) == 0.0

    @pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5])
    def test_sibling_ordering_survives_smoothing(self, fig1, sigma):
        state = cn_hamster_state(fig1)
        gp = overlap_score(state, "guinea_pig", fig1, sigma)
        dog = overlap_score(state, "dog", fig1, sigma)
        planet = overlap_score(state, "planet", fig1, sigma)
        assert gp > dog > planet

    def test_no_trace_normalization_needed_by_caller(self, fig1):
        state = cn_hamster_state(fig1)
        doubled = Operator(2.0 * state.matrix, state.labels)
        assert overlap_score(doubled, "dog", fig1, sigma=0) == pytest.approx(
            overlap_score(state, "dog", fig1, sigma=0), abs=1e-12
        )

    def test_zero_state_raises(self, fig1):
        with pytest.raises(ZeroOperator):
            overlap_score(Operator(np.zeros((4, 4))), "dog", fig1)

    def test_overflowing_state_raises(self, fig1):
        # its trace reads inf, unwarned: not zero, but no score divides by it
        state = diagonal([1e308] * 4, fig1.leaves)
        message = "^overlap score needs a state whose trace does not overflow to inf$"
        with pytest.raises(InvalidOperator, match=message):
            overlap_score(state, "dog", fig1)
        with pytest.raises(InvalidOperator, match=message):
            _leaf_scores(state, fig1, 0.5)

    def test_dim_mismatch(self, fig1, colors):
        with pytest.raises(DimMismatch):
            overlap_score(identity(3), "dog", fig1)
        assert colors.word_operator("red").dim == 3  # guard: mismatch was real

    def test_bounded_on_random_states(self, rng, fig1):
        for _ in range(300):
            state = rand_psd(rng, 4, rank=int(rng.integers(1, 5)))
            if state.is_zero():
                continue
            for word in fig1.concepts:
                s = overlap_score(state, word, fig1, sigma=0.5)
                assert 0.0 <= s <= 1.0
