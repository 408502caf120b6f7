"""Diagonal operators against the dense path they stand in for.

Taxonomy-built operators are stored as their diagonals. These tests check
that representation against dense references kept here: the eigenvalue-based
validation, the dense algebra, and the whole word-negation pipeline spelled
out in numpy. They also check that a rotated (dense, non-diagonal) lexicon
answers like the diagonal one, through ``dataclasses.replace`` and through a
store round trip.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convneg.errors import InvalidOperator, NotSubnormalized, ZeroNegation
from convneg.lexicon import build_lexicon, load_lexicon, save_lexicon
from convneg.negation import NegationConfig, alternatives, cn_word
from convneg.entailment import overlap_score
from convneg.operators import (
    COMPLEMENT_TOL,
    EQ_TOL,
    PINV_TOL,
    ZERO_TRACE_TOL,
    Operator,
    complement,
    diagonal,
    hadamard,
    mix,
    normalize,
    psd_floor,
    trace_product,
    validate,
)
from convneg.taxonomy import parse_taxonomy

CONFIGS = [
    (logical, composition)
    for logical in ("complement", "pinv")
    for composition in ("hadamard", "conjugate")
]


# ---------------------------------------------------------------------------
# dense references


def dense_check(m: np.ndarray) -> np.ndarray:
    """The dense construction check: finite, PSD down to psd_floor of the top
    eigenvalue, slightly negative eigenvalues clamped by eigendecomposition."""
    if not np.all(np.isfinite(m)):
        raise InvalidOperator("matrix entries must be finite")
    lam = np.linalg.eigvalsh(m)
    if lam[0] < psd_floor(lam[-1]):
        raise InvalidOperator("matrix is not PSD")
    if lam[0] < 0.0:
        lam, vecs = np.linalg.eigh(m)
        m = vecs @ np.diag(np.clip(lam, 0.0, None)) @ vecs.T
    return m


def dense_sqrt(m: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vecs.T


def dense_top(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[-1])


class DenseLexicon:
    """Word negation on a taxonomy with dense numpy matrices throughout."""

    def __init__(self, tax, decay):
        self.tax, self.decay = tax, decay
        self.leaves = tax.leaves

    def indicator(self, word):
        member = set(self.tax.descendant_leaves(word))
        return np.diag([1.0 if leaf in member else 0.0 for leaf in self.leaves])

    def context(self, word, decay=None):
        hyps = self.tax.hypernyms(word)
        if not hyps:
            return np.eye(len(self.leaves))
        raw = np.array([(decay or self.decay) ** depth for _, depth in hyps])
        weights = raw / raw.sum()
        return sum(w * self.indicator(h) for w, (h, _) in zip(weights, hyps))

    def smoothed(self, word, sigma):
        p = self.indicator(word)
        if sigma == 0:
            return p
        m = p + sigma * self.context(word)
        return m / dense_top(m)

    def cn_word(self, word, logical, composition, decay):
        p = self.indicator(word)
        p = p / dense_top(p)
        if logical == "complement":
            neg = dense_check(np.eye(len(self.leaves)) - p)
        else:
            lam, vecs = np.linalg.eigh(p)
            keep = lam > PINV_TOL
            inv = vecs @ np.diag(np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)) @ vecs.T
            neg = inv / dense_top(inv)
        wc = self.context(word, decay)
        if composition == "hadamard":
            out = neg * wc
        else:
            s = dense_sqrt(wc)
            out = s @ neg @ s
        if np.trace(out) <= ZERO_TRACE_TOL:
            raise ZeroNegation(word)
        return out / np.trace(out)

    def alternatives(self, word, logical, composition, decay, sigma):
        state = self.cn_word(word, logical, composition, decay)
        return {
            leaf: min(1.0, max(0.0, float(np.sum(state * self.smoothed(leaf, sigma)))))
            for leaf in self.leaves
            if leaf != word
        }


# ---------------------------------------------------------------------------
# random inputs


@st.composite
def taxonomies(draw, max_concepts=9):
    """Random DAG taxonomies: each concept after the first names one or two
    earlier concepts as parents, so the graph is acyclic; at least two leaves."""
    n = draw(st.integers(min_value=3, max_value=max_concepts))
    lines = []
    for child in range(1, n):
        parents = draw(
            st.lists(st.integers(0, child - 1), min_size=1, max_size=2, unique=True)
        )
        lines += [f"c{child}\tc{parent}" for parent in parents]
    tax = parse_taxonomy("\n".join(lines) + "\n")
    if len(tax.leaves) < 2:
        tax = parse_taxonomy("\n".join(lines + [f"c{n}\tc0"]) + "\n")
    return tax


def random_orthogonal(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotated(lex, q):
    """Every operator conjugated by ``q``: dense, non-diagonal store entries."""

    def rotate(op):
        m = q @ op.matrix @ q.T
        return Operator((m + m.T) / 2.0, lex.leaves)

    return dataclasses.replace(
        lex,
        word_ops={c: rotate(op) for c, op in lex.word_ops.items()},
        wc_ops={c: rotate(op) for c, op in lex.wc_ops.items()},
    )


def outcome(fn, *args):
    """Scores of an alternatives call, or the ZeroNegation it raises."""
    try:
        return dict(fn(*args))
    except ZeroNegation:
        return ZeroNegation


def assert_same_scores(got, want):
    if want is ZeroNegation or got is ZeroNegation:
        assert got is want
        return
    assert got.keys() == want.keys()
    for leaf in want:
        assert abs(got[leaf] - want[leaf]) <= EQ_TOL, (leaf, got[leaf], want[leaf])


# ---------------------------------------------------------------------------


class TestValidationMatchesDense:
    # LAPACK rescales a matrix whose norm lies below about 1e-146, which
    # rounds its eigenvalues; above that, eigvalsh returns a diagonal's
    # entries exactly, so the comparison below can be exact
    entries = st.floats(
        min_value=-2e-10, max_value=3.0, allow_nan=False, allow_infinity=False
    ).filter(lambda x: x == 0 or abs(x) > 1e-140)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.lists(
            st.one_of(
                entries,
                st.sampled_from([0.0, -1e-10, -1.0000001e-10, -5e-11, 1.0, 2.0]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_accepts_rejects_and_clamps_like_eigvalsh(self, d):
        m = np.diag(d)
        try:
            want = dense_check(m)
        except InvalidOperator:
            with pytest.raises(InvalidOperator, match="not PSD"):
                diagonal(d)
            with pytest.raises(InvalidOperator, match="not PSD"):
                Operator(m)
            return
        for op in (diagonal(d), Operator(m)):
            assert np.array_equal(op.matrix, want)
            assert op.min_eigenvalue() >= 0.0
            assert np.array_equal(op.eigenvalues(), np.linalg.eigvalsh(want))

    def test_floor_is_the_boundary(self):
        # at unit scale the floor is -PSD_TOL; above it, it scales with the top
        assert diagonal([1.0, -1e-10]).min_eigenvalue() == 0.0
        with pytest.raises(InvalidOperator):
            diagonal([1.0, -1.0000001e-10])
        assert diagonal([1e6, -1e-4]).min_eigenvalue() == 0.0
        with pytest.raises(InvalidOperator):
            diagonal([1e6, -1.0000001e-4])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        for make in (lambda: diagonal([1.0, bad]), lambda: Operator(np.diag([1.0, bad]))):
            with pytest.raises(InvalidOperator, match="finite"):
                make()

    def test_non_vector_entries(self):
        with pytest.raises(InvalidOperator):
            diagonal([])
        with pytest.raises(InvalidOperator):
            diagonal([[1.0]])

    def test_validate_reports_the_diagonal(self):
        report = validate(diagonal([0.5, 0.0, 2.0]))
        assert report.passed
        assert (report.min_eigenvalue, report.max_eigenvalue, report.trace) == (0.0, 2.0, 2.5)
        assert report.symmetry_defect == 0.0


class TestDiagonalOperator:
    def test_dense_diagonal_input_is_detected(self):
        # a dense diagonal matrix answers exactly like the vector constructor
        m = np.diag([0.25, 0.0, 1.0])
        for op in (Operator(m), diagonal([0.25, 0.0, 1.0])):
            assert op.trace() == 1.25
            assert op.max_eigenvalue() == 1.0
            np.testing.assert_array_equal(op.matrix, m)

    def test_matrix_is_dense_and_read_only(self):
        op = diagonal([1.0, 2.0], ("a", "b"))
        np.testing.assert_array_equal(op.matrix, [[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            op.matrix[0, 1] = 1.0
        assert op.labels == ("a", "b")

    def test_immutable(self):
        op = diagonal([1.0, 2.0])
        with pytest.raises(AttributeError):
            op.labels = ("x", "y")

    def test_pickle_and_copy(self):
        dense = Operator(np.array([[1.0, 0.5], [0.5, 1.0]]), ("a", "b"))
        for op in (diagonal([1.0, 2.0], ("a", "b")), dense):
            twins = [pickle.loads(pickle.dumps(op, protocol)) for protocol in (0, 5)]
            for twin in twins + [copy.deepcopy(op), copy.copy(op)]:
                np.testing.assert_array_equal(twin.matrix, op.matrix)
                assert twin.labels == op.labels
                with pytest.raises(AttributeError):
                    twin.labels = ()

    def test_reading_matrix_keeps_no_dense_copy(self, tmp_path):
        # conjugate composition and a store save both read the dense matrix of
        # the lexicon's own operators; none of it may stay on them
        lex = build_lexicon(parse_taxonomy("a\tb\nc\tb\nb\tr\nd\tr\n"), decay=0.5)
        for logical in ("complement", "pinv"):
            alternatives("a", lex, NegationConfig(logical, "conjugate"))
        save_lexicon(lex, tmp_path / "fig.lex")
        for ops in (lex.word_ops, lex.wc_ops):
            for op in ops.values():
                assert op._matrix is None
                assert op.matrix is not op.matrix

    def test_labels_checked(self):
        with pytest.raises(InvalidOperator):
            diagonal([1.0, 2.0], ("a",))
        with pytest.raises(InvalidOperator):
            diagonal([1.0, 2.0], ("a", "a"))

    def test_non_diagonal_stays_dense(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        op = Operator(m)
        np.testing.assert_array_equal(op.matrix, m)
        np.testing.assert_allclose(op.eigenvalues(), [0.5, 1.5], atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        w=st.floats(0.0, 3.0),
    )
    def test_algebra_matches_dense(self, a, seed, w):
        rng = np.random.default_rng(seed)
        n = len(a)
        b = rng.random(n) * rng.integers(0, 2, n)
        x = rng.standard_normal((n, n))
        dense = Operator(x @ x.T)  # non-diagonal PSD
        da, db = np.diag(a), np.diag(b)
        A, B = diagonal(a), diagonal(b)
        for op, ref in (
            (mix([(1.0, A), (w, B)]), da + w * db),
            (hadamard(A, B), da * db),
            (hadamard(A, dense), da * dense.matrix),
            (mix([(1.0, A), (w, dense)]), da + w * dense.matrix),
        ):
            np.testing.assert_allclose(op.matrix, ref, rtol=0, atol=EQ_TOL)
        assert A.trace() == pytest.approx(np.trace(da), abs=EQ_TOL)
        assert trace_product(dense, B) == pytest.approx(
            float(np.sum(dense.matrix * db)), abs=EQ_TOL
        )
        assert trace_product(A, B) == pytest.approx(float(np.sum(da * db)), abs=EQ_TOL)
        if A.max_eigenvalue() > ZERO_TRACE_TOL:
            np.testing.assert_allclose(
                normalize(A, "trace").matrix, da / np.trace(da), rtol=0, atol=EQ_TOL
            )
            sup = normalize(A, "sup")
            np.testing.assert_allclose(sup.matrix, da / dense_top(da), rtol=0, atol=EQ_TOL)
            np.testing.assert_allclose(
                complement(sup).matrix,
                dense_check(np.eye(n) - sup.matrix),
                rtol=0,
                atol=EQ_TOL,
            )

    def test_complement_window(self):
        # a top entry up to COMPLEMENT_TOL above 1 is rounding, and clamped
        out = complement(diagonal([1.0 + COMPLEMENT_TOL / 2, 0.25]))
        np.testing.assert_array_equal(out.matrix, np.diag([0.0, 0.75]))
        with pytest.raises(NotSubnormalized):
            complement(diagonal([1.0 + 2 * COMPLEMENT_TOL, 0.25]))

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_product_ignores_basis_order(self, p, seed):
        # correctly rounded, so exact ties between leaves survive as float ties
        rho = np.random.default_rng(seed).random(len(p))
        perm = np.random.default_rng(seed + 1).permutation(len(p))
        assert trace_product(diagonal(rho), diagonal(p)) == trace_product(
            diagonal(rho[perm]), diagonal(np.asarray(p)[perm])
        )


class TestWordNegationMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(
        tax=taxonomies(),
        pick=st.integers(0, 10**6),
        sigma=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 3.0)),
        decay=st.sampled_from([None, 0.3, 0.5, 0.8]),
    )
    def test_alternatives(self, tax, pick, sigma, decay):
        lex = build_lexicon(tax, decay=0.5)
        ref = DenseLexicon(tax, 0.5)
        word = tax.order[pick % len(tax.order)]
        for logical, composition in CONFIGS:
            cfg = NegationConfig(logical, composition, decay=decay, sigma=sigma)
            assert_same_scores(
                outcome(alternatives, word, lex, cfg),
                outcome(ref.alternatives, word, logical, composition, decay, sigma),
            )

    def test_decay_override_smooths_with_stored_context(self):
        tax = parse_taxonomy("a\tb\nc\tb\nb\tr\nd\tr\n")
        lex, ref = build_lexicon(tax), DenseLexicon(tax, 0.5)
        got = dict(alternatives("a", lex, NegationConfig(decay=0.2, sigma=1.0)))
        want = ref.alternatives("a", "complement", "hadamard", 0.2, 1.0)
        assert_same_scores(got, want)


class TestRotatedLexiconMatches:
    """Tr(QρQᵀ·QPQᵀ) = Tr(ρP): a rotated lexicon scores like the original.

    Complement, pseudoinverse, conjugation and both normalizations commute
    with the rotation, so for conjugate composition the whole ``alternatives``
    call must agree. The Hadamard product does not commute with it, so there
    the rotated state is scored against the rotated predicates.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        tax=taxonomies(),
        pick=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from([0.0, 0.5, 1.7]),
    )
    def test_replace_and_store_round_trip(self, tax, pick, seed, sigma, tmp_path_factory):
        lex = build_lexicon(tax, decay=0.5)
        q = random_orthogonal(seed, lex.dim)
        turned = rotated(lex, q)
        path = tmp_path_factory.mktemp("store") / "rotated.lex"
        save_lexicon(turned, path)
        loaded = load_lexicon(path)
        word = tax.order[pick % len(tax.order)]
        for logical in ("complement", "pinv"):
            cfg = NegationConfig(logical, "conjugate", sigma=sigma)
            want = outcome(alternatives, word, lex, cfg)
            for other in (turned, loaded):
                assert_same_scores(outcome(alternatives, word, other, cfg), want)
            cfg = NegationConfig(logical, "conjugate", decay=0.3, sigma=sigma)
            assert_same_scores(
                outcome(alternatives, word, turned, cfg),
                outcome(alternatives, word, lex, cfg),
            )
        try:
            state = cn_word(word, lex, NegationConfig(sigma=sigma))
        except ZeroNegation:
            return
        m = q @ state.matrix @ q.T
        turned_state = Operator((m + m.T) / 2.0)
        for leaf in lex.leaves:
            want = overlap_score(state, leaf, lex, sigma)
            for other in (turned, loaded):
                assert abs(overlap_score(turned_state, leaf, other, sigma) - want) <= EQ_TOL
