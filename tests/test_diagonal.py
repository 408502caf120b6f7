"""Diagonal operators against the dense path they stand in for.

Taxonomy-built operators are stored as their diagonals. These tests check
that representation against dense references kept here: the eigenvalue-based
validation, the dense algebra, and the whole word-negation pipeline spelled
out in numpy. They also check that a rotated (dense, non-diagonal) lexicon
answers like the diagonal one, through ``dataclasses.replace`` and through a
store round trip. The indicator builder and the store's operator writer and
reader are checked against the per-leaf and per-entry versions they replaced,
kept here, down to error messages and line numbers on corrupted blocks, also
in stores that repeat blocks or rows, and the shared worldly contexts against
a per-concept mixture. The O(n) pseudoinverse, conjugate update and
support projector are checked bit for bit against the eigendecomposition, and
``alternatives``/``overlap_score``, with their memoized smoothed predicates
and kept rankings, against a per-leaf reference that rebuilds each
predicate, the float64 leaf-score sums against ``math.fsum`` row by row (on
hard rows and on tree stacks, whose scores are also checked against the exact
Fraction oracle), and ``loewner_k`` on diagonals against its dense path. A
dense operator's kept spectrum is checked against ``eigvalsh`` of its matrix,
whatever made it.
"""

import copy
import dataclasses
import gc
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import convneg.entailment
import convneg.lexicon
import convneg.negation
import convneg.operators
from convneg.errors import (
    ConvnegError,
    DimMismatch,
    InvalidOperator,
    NotSubnormalized,
    ParseError,
    UnknownWord,
    ZeroNegation,
    ZeroOperator,
)
from convneg.lexicon import (
    MAX_ENTRY,
    Lexicon,
    build_lexicon,
    load_lexicon,
    operator_from_lines,
    operator_to_lines,
    row_frames,
    save_lexicon,
)
from convneg.negation import (
    COMPOSITION_CHOICES,
    LOGICAL_CHOICES,
    NegationConfig,
    alternatives,
    cn_word,
)
from convneg.entailment import (
    SUPPORT_RESIDUAL_TOL,
    _NARROW,
    _diagonal_k,
    _fsum_rows,
    _leaf_scores,
    loewner_k,
    loewner_k_raw,
    overlap_score,
    smoothed_predicate,
)
from convneg.operators import (
    COMPLEMENT_TOL,
    PINV_TOL,
    PSD_TOL,
    SYMMETRY_TOL,
    ZERO_TRACE_TOL,
    Operator,
    complement,
    conjugate_update,
    diagonal,
    hadamard,
    identity,
    mix,
    normalize,
    partial_trace,
    pseudoinverse,
    psd_floor,
    support_projector,
    tensor,
    trace_product,
    validate,
)
from convneg.taxonomy import load_taxonomy, parse_taxonomy

from conftest import EQ_TOL, FIXTURES, descendant_leaves, random_orthogonal, rotated
from test_acceptance import DiagOracle

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
        member = set(descendant_leaves(self.tax, word))
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

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.lists(
            st.one_of(st.floats(-PSD_TOL, 3.0), st.sampled_from([0.0, -0.0, -PSD_TOL, 1.0])),
            min_size=1,
            max_size=8,
        )
    )
    def test_extreme_eigenvalues_are_the_spectrum_ends(self, d):
        for op in (diagonal(d), Operator(np.diag(d))):
            assert op.max_eigenvalue() == op.eigenvalues()[-1]
            assert op.min_eigenvalue() == op.eigenvalues()[0]

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
            # one representation: the diagonal alone, not a view into m
            assert op._matrix is None and op._diag.base is None
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
        with pytest.raises(AttributeError, match="cannot delete 'labels'"):
            del op.labels

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
        # conjugate composition reads the dense matrix of the lexicon's own
        # operators; none of it may stay on them, nor on the operators a store
        # round trip gives back
        lex = build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"), decay=0.5)
        for logical in ("complement", "pinv"):
            alternatives("hamster", lex, NegationConfig(logical, "conjugate"))
        save_lexicon(lex, tmp_path / "fig1.lex")
        loaded = load_lexicon(tmp_path / "fig1.lex")
        for ops in (lex.word_ops, lex.wc_ops, loaded.word_ops, loaded.wc_ops):
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
        if not A.is_zero():
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
        # dense: a top eigenvalue in (1 + PSD_TOL, 1 + COMPLEMENT_TOL] leaves
        # I - P below psd_floor, so it is projected onto the PSD cone; at a
        # top of 1, I - P keeps its entries
        q = random_orthogonal(5, 3)
        for top in (1.0 + 2 * PSD_TOL, 1.0 + COMPLEMENT_TOL / 2, 1.0 + 0.99 * COMPLEMENT_TOL):
            p = Operator(q @ np.diag([top, 0.25, 0.0]) @ q.T)
            assert np.linalg.eigvalsh(np.eye(3) - p.matrix)[0] < psd_floor(1.0)
            out = complement(p)
            np.testing.assert_allclose(out.matrix, q @ np.diag([0.0, 0.75, 1.0]) @ q.T, atol=EQ_TOL)
        p = Operator(q @ np.diag([1.0, 0.25, 0.0]) @ q.T)
        m = np.eye(3) - p.matrix
        assert np.array_equal(complement(p).matrix, (m + m.T) / 2.0)

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


# ---------------------------------------------------------------------------
# references for the lexicon builder and the store's operator blocks


def reference_indicator(tax, word, leaves):
    """The per-leaf indicator: filter every leaf by descendant membership."""
    member = set(descendant_leaves(tax, word))
    return diagonal([1.0 if leaf in member else 0.0 for leaf in leaves], leaves)


def reference_to_lines(a):
    """Writer that formats every entry of the dense matrix."""
    lines = [f"OPERATOR {a.dim}"]
    lines.append("LABELS " + (",".join(a.labels) if a.labels else "-"))
    lines.extend(" ".join(map(repr, row)) for row in a.matrix.tolist())
    return lines


def reference_from_lines(lines, at, concept, leaves, blocks, rows):
    """Reader that splits and parses every row of ``concept``'s block, whose
    OPERATOR line is ``lines[at]``, into a dense matrix, then checks its
    LABELS text against the store's ``leaves``; it keeps nothing in the
    store's memos ``blocks`` and ``rows``."""

    def line(i):
        if i >= len(lines):
            raise ParseError("unexpected end of operator block", len(lines))
        return lines[i]

    header = line(at)
    parts = header.split()
    if len(parts) != 2 or parts[0] != "OPERATOR":
        raise ParseError(f"expected 'OPERATOR <dim>', got {header!r}", at + 1)
    try:
        dim = int(parts[1])
    except ValueError:
        raise ParseError(f"bad operator dimension {parts[1]!r}", at + 1) from None
    if dim != len(leaves):
        raise ParseError(
            f"operator for {concept!r} has dim {dim}, leaf space has {len(leaves)}", at + 1
        )
    label_line = line(at + 1)
    if not label_line.startswith("LABELS "):
        raise ParseError(f"expected 'LABELS ...', got {label_line!r}", at + 2)
    raw = label_line[len("LABELS ") :].strip()
    matrix = []
    for k in range(dim):
        row_line = line(at + 2 + k)
        fields = row_line.split()
        if len(fields) != dim:
            raise ParseError(f"expected {dim} entries, got {len(fields)}", at + 3 + k)
        try:
            matrix.append([float(x) for x in fields])
        except ValueError:
            raise ParseError(f"bad matrix entry in {row_line!r}", at + 3 + k) from None
    for k, row in enumerate(matrix):
        if any(MAX_ENTRY < abs(x) < math.inf for x in row):
            raise ParseError(f"entry magnitude above {MAX_ENTRY:g}", at + 3 + k)
    try:
        op = Operator(np.array(matrix), () if raw == "-" else leaves)
    except InvalidOperator as exc:
        raise ParseError(f"invalid operator ending at this line: {exc}", at + 2 + dim) from exc
    if raw not in ("-", ",".join(leaves)):
        raise ParseError("LABELS must be '-' or the LEAVES list", at + 2)
    return op


def kept(op):
    """An operator's labels, representation and exact entries."""
    entries = op._diag if op._diag is not None else op._matrix
    return (op.labels, op._diag is None, entries.shape, entries.tobytes())


def read_outcome(read, lines, leaves):
    """What a block reader makes of ``lines`` as the first block of a store
    over ``leaves``, with fresh memos: the error it raises, or the operator
    (``kept``)."""
    try:
        op = read(lines, 0, "c", leaves, {}, [{} for _ in leaves])
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", *kept(op))


@st.composite
def stored_operators(draw, n=None, kind=None):
    """Operators a store can hold: diagonal, diagonal with entries in the
    clamp window, dense PSD, dense PSD blocks on the diagonal (exact zeros,
    and -0.0 where a masked entry was negative), and rotated indicators; dim
    ``n`` or 1-6, of ``kind`` or any, with or without labels."""
    n = n or draw(st.integers(1, 6))
    labels = tuple(f"x{i}" for i in range(n)) if draw(st.booleans()) else ()
    kind = kind or draw(st.sampled_from(["diagonal", "clamped", "dense", "blocks", "rotated"]))
    if kind in ("diagonal", "clamped"):
        low = -PSD_TOL if kind == "clamped" else 0.0
        entries = st.one_of(
            st.floats(low, 1e6),
            st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 5e-324, 1e-300, 1e300]),
        )
        d = draw(st.lists(entries, min_size=n, max_size=n))
        return Operator(np.diag(d), labels) if kind == "clamped" else diagonal(d, labels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("dense", "blocks"):
        x = rng.standard_normal((n, n))
        m = x @ x.T
        if kind == "blocks":
            group = rng.integers(0, 2, n)
            m = m * (group[:, None] == group[None, :])
    else:
        q = random_orthogonal(int(rng.integers(2**32)), n)
        m = q @ np.diag(rng.integers(0, 2, n).astype(float)) @ q.T
    return Operator((m + m.T) / 2.0, labels)


@st.composite
def stores(draw):
    """Lexicons whose blocks repeat: one to four concepts of one dim, their
    word and context operators drawn from up to four distinct ones. One of
    those may be another's entries without labels, with -0.0 made 0.0, or
    with a changed last diagonal entry (another block with the same first
    row). Dim 1-6, or 32 with a rotated first block."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 32]))
    first = stored_operators(n, "rotated" if n == 32 else None)
    distinct = [draw(first)] + draw(st.lists(stored_operators(n), max_size=2))
    variant = draw(st.sampled_from(["none", "unlabelled", "unsigned-zeros", "last-entry"]))
    if variant == "unlabelled":
        distinct.append(Operator(distinct[0].matrix))
    elif variant == "unsigned-zeros":
        distinct.append(Operator(distinct[0].matrix + 0.0, distinct[0].labels))
    elif variant == "last-entry":
        m = distinct[0].matrix.copy()
        m[-1, -1] += 1.0
        distinct.append(Operator(m, distinct[0].labels))
    count = draw(st.integers(1, 4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2 * count, max_size=2 * count))
    ops = [distinct[i] for i in picks]
    concepts = tuple(f"c{k}" for k in range(count))
    return Lexicon(
        concepts=concepts,
        leaves=tuple(f"x{i}" for i in range(n)),
        word_ops=dict(zip(concepts, ops[::2])),
        wc_ops=dict(zip(concepts, ops[1::2])),
        decay=0.5,
    )


@st.composite
def row_sharing_stores(draw):
    """Diagonal stores whose distinct blocks share rows: two to eight blocks
    of one dim with entries from 0.0, -0.0, 1.0 and 0.5, so the all-zero row
    recurs at every position and "1.0 at i" at position i, with or without
    labels."""
    n = draw(st.integers(1, 6))
    labels = tuple(f"x{i}" for i in range(n)) if draw(st.booleans()) else ()
    entries = st.lists(st.sampled_from([0.0, 0.0, -0.0, 1.0, 1.0, 0.5]), min_size=n, max_size=n)
    count = draw(st.integers(1, 4))
    ops = [diagonal(draw(entries), labels) for _ in range(2 * count)]
    concepts = tuple(f"c{k}" for k in range(count))
    return Lexicon(
        concepts=concepts,
        leaves=tuple(f"x{i}" for i in range(n)),
        word_ops=dict(zip(concepts, ops[::2])),
        wc_ops=dict(zip(concepts, ops[1::2])),
        decay=0.5,
    )


def respelled(token):
    """The same number in other text: "1.0" -> "1.00", "-1e-05" -> "-01e-05"."""
    if "e" not in token:
        return token + "0"
    sign = "-" if token.startswith("-") else ""
    return sign + "0" + token[len(sign) :]


CORRUPTIONS = [
    "none",
    "truncate",
    "drop-entry",
    "extra-entry",
    "bad-diagonal",
    "bad-off-diagonal",
    "nan-diagonal",
    "inf-diagonal",
    "negative-diagonal",
    "tiny-negative-diagonal",
    "negative-zero-off-diagonal",
    "integer-zero-off-diagonal",
    "tab-separated",
    "tab-padded-entry",
    "separator-padded-entry",
    "padded-row",
    "label-count",
    "label-count-and-negative-diagonal",
    "label-order",
    "padded-labels",
    "dim-claim",
    "respelled-entry",
    "sign-flipped-zero",
    "oversized-diagonal",
    "oversized-off-diagonal",
    "bound-diagonal",
    # dense-block variants: tokens no longer their own transpose as text,
    # or a bad token in a mirrored pair, or two faulty rows
    "respelled-lower-triangle",
    "nudged-within-tolerance",
    "nudged-beyond-tolerance",
    "bad-lower-entry",
    "bad-mirrored-pair",
    "bad-entry-then-count",
    "count-then-bad-entry",
]


def corrupt(lines, kind, r, c, late_fallback=False):
    """``lines`` (one operator block) with one corruption in row ``r`` (and
    its mirror or a second row, for some kinds);
    ``c`` picks a column (an off-diagonal one where there is one), or for
    truncation the number of lines kept. ``late_fallback`` also writes an
    off-diagonal "-0.0" into the last row, so a reader that took the rows
    before it as diagonal must rebuild them."""
    head, rows = list(lines[:2]), [line.split(" ") for line in lines[2:]]
    n = len(rows)
    if kind == "truncate":
        return lines[: c % (n + 2)]
    if late_fallback and n > 1:
        rows[-1][0] = "-0.0"
    col = c % n
    off = col if col != r or n == 1 else (col + 1) % n
    if kind == "drop-entry":
        del rows[r][col]
    elif kind == "extra-entry":
        rows[r].append("0.0")
    elif kind == "bad-diagonal":
        rows[r][r] = "1.0.0"
    elif kind == "bad-off-diagonal":
        rows[r][off] = "x"
    elif kind in ("nan-diagonal", "inf-diagonal"):
        rows[r][r] = kind.split("-")[0]
    elif kind == "negative-diagonal":
        rows[r][r] = "-1.0"
    elif kind == "label-count-and-negative-diagonal":
        # both wrong: the entries are checked first
        rows[r][r] = "-1.0"
        head[1] = "LABELS " + ",".join(f"y{i}" for i in range(n + 1))
    elif kind == "oversized-diagonal":
        rows[r][r] = "1e308"
    elif kind == "oversized-off-diagonal":
        # the float next to the bound, in a dense block
        rows[r][off] = repr(-math.nextafter(MAX_ENTRY, math.inf))
    elif kind == "bound-diagonal":
        rows[r][r] = repr(MAX_ENTRY)
    elif kind == "tiny-negative-diagonal":
        rows[r][r] = "-1e-11"
    elif kind == "negative-zero-off-diagonal":
        rows[r][off] = "-0.0"
    elif kind == "integer-zero-off-diagonal":
        rows[r][off] = "0"
    elif kind == "tab-padded-entry":
        rows[r][r] = "\t" + rows[r][r]
    elif kind == "separator-padded-entry":
        # whitespace to str.split, not to float
        rows[r][r] = "\x1f" + rows[r][r]
    elif kind == "label-count":
        head[1] = "LABELS " + ",".join(f"y{i}" for i in range(n + 1))
    elif kind == "label-order":
        # the store's leaves x0, x1, ... in reverse: another basis where n > 1
        head[1] = "LABELS " + ",".join(f"x{i}" for i in reversed(range(n)))
    elif kind == "padded-labels":
        head[1] = "LABELS  " + head[1][len("LABELS ") :] + " \t"
    elif kind == "dim-claim":
        # a header dim from 0 to 2n, so the store's own dim among others
        head[0] = f"OPERATOR {c % (2 * n + 1)}"
    elif kind == "respelled-entry":
        # an entry below the diagonal where there is one: equal to its
        # mirror in value, not in text
        j = c % r if r else off
        rows[r][j] = respelled(rows[r][j])
    elif kind == "respelled-lower-triangle":
        # every entry below the diagonal the same number in other text:
        # "0.5" -> "5.00000000000000000e-01", "0.0" <-> "-0.0"
        for i in range(n):
            for j in range(i):
                x = rows[i][j]
                rows[i][j] = {"0.0": "-0.0", "-0.0": "0.0"}.get(x, f"{float(x):.17e}")
    elif kind in ("nudged-within-tolerance", "nudged-beyond-tolerance"):
        # one off-diagonal entry (below the diagonal where there is one)
        # moved by half or four times SYMMETRY_TOL
        i, j = max(r, off), min(r, off)
        step = 0.5 if kind == "nudged-within-tolerance" else 4.0
        rows[i][j] = repr(float(rows[i][j]) + step * SYMMETRY_TOL)
    elif kind == "bad-lower-entry":
        rows[max(r, off)][min(r, off)] = "x"
    elif kind == "bad-mirrored-pair":
        # still its own transpose as text: the first of the two rows is named
        rows[r][off] = rows[off][r] = "1.0.0"
    elif kind in ("bad-entry-then-count", "count-then-bad-entry"):
        # a bad token in one row and a wrong-count row in another, either first
        first, second = sorted((r, (r + 1 + c) % n))
        bad, short = (first, second) if kind == "bad-entry-then-count" else (second, first)
        rows[bad][0] = "x"
        rows[short].append("0.0")
    elif kind == "sign-flipped-zero":
        # the first off-diagonal zero, if any: "0.0" <-> "-0.0"
        zeros = [j for j, x in enumerate(rows[r]) if j != r and x in ("0.0", "-0.0")]
        if zeros:
            rows[r][zeros[0]] = "0.0" if rows[r][zeros[0]] == "-0.0" else "-0.0"
    out = head + [" ".join(row) for row in rows]
    if kind == "tab-separated":
        out[2 + r] = "\t".join(rows[r])
    elif kind == "padded-row":
        out[2 + r] = " " + out[2 + r] + " "
    return out


class TestStoreBlocksMatchReference:
    """The O(n) diagonal writer and reader against the per-entry ones."""

    @settings(max_examples=400, deadline=None)
    @given(
        op=stored_operators(),
        kind=st.sampled_from(CORRUPTIONS),
        r=st.integers(0, 5),
        c=st.integers(0, 7),
        late_fallback=st.booleans(),
    )
    def test_written_and_read_like_reference(self, op, kind, r, c, late_fallback):
        n = op.dim
        lines = operator_to_lines(op, row_frames(n))
        assert lines == reference_to_lines(op)
        # a following block's first line, which a block cut short reads as a row
        block = corrupt(lines, kind, r % n, c, late_fallback) + ["WC next"]
        leaves = tuple(f"x{i}" for i in range(n))
        got = read_outcome(operator_from_lines, block, leaves)
        assert got == read_outcome(reference_from_lines, block, leaves)
        if kind == "none" and not late_fallback:
            # the block reads back as the operator written
            assert got[1:3] == (op.labels, op._diag is None)
            if op._diag is not None:
                assert got[4] == op._diag.tobytes()

    def test_corruptions_of_a_store_name_the_same_line(self, tmp_path):
        # the same corruptions in the middle of a whole fig1 store
        lex = build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))
        save_lexicon(lex, tmp_path / "fig1.lex")
        lines = (tmp_path / "fig1.lex").read_text().splitlines()
        start = lines.index("WC rodent") + 1
        for kind in CORRUPTIONS:
            for r in range(lex.dim):
                damaged = lines[:start] + corrupt(lines[start : start + 6], kind, r, 3)
                damaged += lines[start + 6 :] if kind != "truncate" else []
                path = tmp_path / "damaged.lex"
                path.write_text("\n".join(damaged) + "\n")
                outcomes = []
                for read in (operator_from_lines, reference_from_lines):
                    try:
                        with pytest.MonkeyPatch.context() as m:
                            m.setattr(convneg.lexicon, "operator_from_lines", read)
                            loaded = load_lexicon(path)
                    except ParseError as exc:
                        outcomes.append((str(exc), exc.line))
                    else:
                        outcomes.append(
                            [(o._diag is None, o.matrix.tobytes()) for o in loaded.wc_ops.values()]
                        )
                assert outcomes[0] == outcomes[1], (kind, r)

    @settings(max_examples=300, deadline=None)
    @given(
        lex=stores(),
        kind=st.sampled_from(CORRUPTIONS),
        row=st.sampled_from(["first", "middle", "last"]),
        c=st.integers(0, 7),
        pick=st.integers(0, 7),
    )
    def test_repeated_blocks_written_and_read_like_reference(
        self, lex, kind, row, c, pick, tmp_path_factory
    ):
        # each distinct block is written, read and validated once per store;
        # the bytes, and what each block reads as, are the reference's
        path = tmp_path_factory.mktemp("store") / "repeats.lex"
        save_lexicon(lex, path)
        lines = path.read_text().splitlines()
        want = ["LEXICON v1", "DECAY 0.5", "LEAVES " + ",".join(lex.leaves)]
        for concept in lex.concepts:
            want += [f"WORD {concept}", *reference_to_lines(lex.word_ops[concept])]
            want += [f"WC {concept}", *reference_to_lines(lex.wc_ops[concept])]
        assert lines == want
        # damage one row of a block that repeats an earlier one, if any does
        size = 2 + lex.dim
        starts = list(range(4, len(lines), size + 1))
        blocks = [lines[s : s + size] for s in starts]
        repeats = [k for k, b in enumerate(blocks) if b in blocks[:k]] or range(len(blocks))
        s = starts[repeats[pick % len(repeats)]]
        r = {"first": 0, "middle": lex.dim // 2, "last": lex.dim - 1}[row]
        damaged = lines[:s] + corrupt(lines[s : s + size], kind, r, c) + lines[s + size :]
        path.write_text("\n".join(damaged) + "\n")
        outcomes = []
        for read in (operator_from_lines, reference_from_lines):
            try:
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(convneg.lexicon, "operator_from_lines", read)
                    loaded = load_lexicon(path)
            except ParseError as exc:
                outcomes.append((str(exc), exc.line))
            else:
                outcomes.append([kept(o) for o in (*loaded.word_ops.values(), *loaded.wc_ops.values())])
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=300, deadline=None)
    @given(
        lex=row_sharing_stores(),
        kind=st.sampled_from(CORRUPTIONS + ["earlier-row", "moved-row"]),
        r=st.integers(0, 5),
        c=st.integers(0, 7),
        pick=st.integers(0, 7),
    )
    def test_repeated_rows_read_like_reference(self, lex, kind, r, c, pick, tmp_path_factory):
        # a diagonal row read before at the same position is its entry, not
        # matched again; at another position, or damaged, it is read afresh
        path = tmp_path_factory.mktemp("store") / "rows.lex"
        save_lexicon(lex, path)
        lines = path.read_text().splitlines()
        size = 2 + lex.dim
        starts = list(range(4, len(lines), size + 1))
        rows = [lines[s + 2 : s + size] for s in starts]
        # damage a block each of whose rows was read before at its position,
        # if there is one
        known, repeats = set(), []
        for k, block in enumerate(rows):
            if k and known.issuperset(enumerate(block)):
                repeats.append(k)
            known.update(enumerate(block))
        candidates = repeats or range(len(starts))
        k = candidates[pick % len(candidates)]
        s, r = starts[k], r % lex.dim
        if kind in ("earlier-row", "moved-row"):
            # a row of an earlier block (of the first: its own), put at its
            # own position or at another one
            earlier = rows[pick % k if k else 0]
            source = r if kind == "earlier-row" else (r + 1 + c) % lex.dim
            damaged = list(lines)
            damaged[s + 2 + r] = earlier[source]
        else:
            damaged = lines[:s] + corrupt(lines[s : s + size], kind, r, c) + lines[s + size :]
        path.write_text("\n".join(damaged) + "\n")
        outcomes = []
        for read in (operator_from_lines, reference_from_lines):
            try:
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(convneg.lexicon, "operator_from_lines", read)
                    loaded = load_lexicon(path)
            except ParseError as exc:
                outcomes.append((str(exc), exc.line))
            else:
                outcomes.append([kept(o) for o in (*loaded.word_ops.values(), *loaded.wc_ops.values())])
        assert outcomes[0] == outcomes[1]

    def test_rows_of_every_kind_recur_across_blocks(self, tmp_path):
        # the all-zero row at every position, "1.0 at i" and "-0.0 at i" at
        # position i, each read from the row memo after its first reading
        n = 3
        ops = [diagonal(d) for d in ([1, 0, 0], [0, 0, 0], [1, -0.0, 1], [0, 1, -0.0])]
        lex = Lexicon(
            concepts=("a", "b"),
            leaves=("x", "y", "z"),
            word_ops={"a": ops[0], "b": ops[2]},
            wc_ops={"a": ops[1], "b": ops[3]},
            decay=0.5,
        )
        save_lexicon(lex, tmp_path / "rows.lex")
        lines = (tmp_path / "rows.lex").read_text().splitlines()
        loaded = load_lexicon(tmp_path / "rows.lex")
        for concept in lex.concepts:
            for ops_of in ("word_ops", "wc_ops"):
                assert kept(getattr(loaded, ops_of)[concept]) == kept(getattr(lex, ops_of)[concept])
        blocks, rows = {}, [{} for _ in lex.leaves]
        for at in range(4, len(lines), n + 3):  # each block's OPERATOR line
            concept = lines[at - 1].split()[1]  # from the block's WORD or WC line
            operator_from_lines(lines, at, concept, lex.leaves, blocks, rows)
        zero = "0.0 0.0 0.0"
        assert [zero in memo for memo in rows] == [True] * n
        assert rows[0]["1.0 0.0 0.0"] == 1.0
        assert math.copysign(1.0, rows[1]["0.0 -0.0 0.0"]) == -1.0

    def test_repeated_blocks_load_as_one_operator(self, tmp_path):
        # sibling leaves share their hypernyms, hence their context block
        save_lexicon(build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv")), tmp_path / "fig1.lex")
        loaded = load_lexicon(tmp_path / "fig1.lex")
        assert loaded.wc_ops["hamster"] is loaded.wc_ops["guinea_pig"]
        assert loaded.wc_ops["rodent"] is not loaded.wc_ops["hamster"]
        # every labelled block holds the store's leaves tuple itself
        for op in (*loaded.word_ops.values(), *loaded.wc_ops.values()):
            assert op.labels is loaded.leaves


def hexes(values) -> list[str]:
    return [float.hex(float(x)) for x in np.ravel(values)]


class TestKeptSpectrum:
    """A dense operator keeps the eigenvalues of its one check and reads its
    spectrum from them: bit for bit what eigvalsh gives on its matrix,
    whichever function made it."""

    @staticmethod
    def sources(op, other):
        """Dense and diagonal operators made from ``op`` and ``other`` (same
        dim) by each function that returns one; refusals are skipped."""
        try:
            sup = normalize(op, "sup")
        except ZeroOperator:  # op.is_zero()
            sup = op
        n = op.dim
        made = {
            "Operator": lambda: Operator(op.matrix, op.labels),
            "mix": lambda: mix([(0.5, op), (0.25, other)]),
            "normalize-trace": lambda: normalize(op, "trace"),
            "normalize-sup": lambda: normalize(op, "sup"),
            # I - P passes the dense check as it is, or is projected onto the
            # PSD cone when P's top eigenvalue lies past the floor above 1
            "complement-kept": lambda: complement(sup),
            "complement-projected": lambda: complement(
                Operator(sup.matrix * (1.0 + 5 * PSD_TOL), sup.labels)
            ),
            "conjugate_update": lambda: conjugate_update(op, normalize(other, "sup")),
            "pseudoinverse": lambda: pseudoinverse(op),
            "support_projector": lambda: support_projector(op),
            "tensor": lambda: tensor(op, other),
            "partial_trace": lambda: partial_trace(tensor(op, other), (n, n), 1),
            "store": lambda: operator_from_lines(
                operator_to_lines(op, row_frames(n)),
                0,
                "c",
                op.labels or tuple(f"x{i}" for i in range(n)),
                {},
                [{} for _ in range(n)],
            ),
        }
        for name, make in made.items():
            try:
                yield name, make()
            except ConvnegError:
                pass

    @settings(max_examples=150, deadline=None)
    @given(op=st.integers(1, 6).flatmap(lambda n: st.tuples(stored_operators(n), stored_operators(n))))
    # a trace above ZERO_TRACE_TOL whose top eigenvalue is not: not zero, so it sup-normalizes
    @example(op=(diagonal([1e-12, 1e-12, 0.0]), Operator(np.eye(3))))
    def test_spectrum_is_eigvalsh_of_the_matrix(self, op):
        op, other = op
        # products of two operators (tensor, conjugate_update) overflow past this
        assume(max(np.abs(op.matrix).max(), np.abs(other.matrix).max()) <= 1e100)
        for name, made in self.sources(op, other):
            if made._diag is not None:
                continue
            want = np.linalg.eigvalsh(made.matrix)
            got = made.eigenvalues()
            assert hexes(got) == hexes(want), name
            assert float.hex(made.max_eigenvalue()) == float.hex(float(want[-1])), name
            assert float.hex(made.min_eigenvalue()) == float.hex(float(want[0])), name
            # the array returned is the caller's: writing it changes nothing
            got[:] = 7.0
            assert hexes(made.eigenvalues()) == hexes(want), name
            assert made._spectrum is not None and not made._spectrum.flags.writeable

    def test_every_source_makes_a_dense_operator(self):
        # the property above is not vacuous: each source has a dense result
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 3))
        op = Operator(x @ x.T + np.eye(3))
        names = [name for name, made in self.sources(op, op) if made._diag is None]
        assert names == [
            "Operator", "mix", "normalize-trace", "normalize-sup", "complement-kept",
            "complement-projected", "conjugate_update", "pseudoinverse", "support_projector",
            "tensor", "partial_trace", "store",
        ]

    def test_complement_branches(self):
        # the two complement sources take the two branches
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 3))
        sup = normalize(Operator(x @ x.T), "sup")
        with mock.patch.object(convneg.operators, "_spectral", wraps=convneg.operators._spectral) as spy:
            complement(sup)
            assert spy.call_count == 0
            complement(Operator(sup.matrix * (1.0 + 5 * PSD_TOL)))
            assert spy.call_count == 1


class TestIndicatorsMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(tax=taxonomies(max_concepts=14))
    def test_bitwise_equal_to_per_leaf_filter(self, tax):
        lex = build_lexicon(tax)
        for word in tax.order:
            want = reference_indicator(tax, word, tax.leaves)
            got = lex.word_ops[word]
            assert got.labels == want.labels == tax.leaves
            assert got._matrix is None
            assert got._diag.tobytes() == want._diag.tobytes()
            # built without validation: the same dtype and read-only array
            assert got._diag.dtype == want._diag.dtype and not got._diag.flags.writeable


def reference_context(tax, word_ops, word, decay, leaves):
    """The worldly context built per concept, from its own hypernym chain."""
    hyps = tax.hypernyms(word)
    if not hyps:
        return identity(len(leaves), leaves)
    raw = np.array([decay ** depth for _, depth in hyps])
    weights = raw / raw.sum()
    return mix([(w, word_ops[h]) for w, (h, _) in zip(weights, hyps)])


class TestSharedContexts:
    @settings(max_examples=100, deadline=None)
    @given(
        tax=taxonomies(max_concepts=14),
        decay=st.sampled_from([0.5, 0.3, 0.9]),
        other=st.sampled_from([0.25, 0.7]),
    )
    def test_one_operator_per_chain_bitwise_per_concept(self, tax, decay, other):
        lex = build_lexicon(tax, decay=decay)
        shared = {}
        for c in tax.order:
            wc = lex.wc_ops[c]
            assert kept(wc) == kept(reference_context(tax, lex.word_ops, c, decay, tax.leaves))
            # concepts with one hypernym chain, i.e. the same parents, such as
            # siblings, hold one operator; other chains hold others
            assert shared.setdefault(tax.hypernyms(c), wc) is wc
            assert shared.setdefault(frozenset(tax.parents[c]), wc) is wc
            # a decay override is still computed per concept
            assert lex.worldly_context(c, decay=decay) is wc
            want = reference_context(tax, lex.word_ops, c, other, tax.leaves)
            assert kept(lex.worldly_context(c, decay=other)) == kept(want)
        chains = {tax.hypernyms(c) for c in tax.order}
        assert len({id(op) for op in lex.wc_ops.values()}) == len(chains)

    def test_siblings_share_one_context(self):
        lex = build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))
        assert lex.wc_ops["hamster"] is lex.wc_ops["guinea_pig"]
        assert lex.wc_ops["rodent"] is lex.wc_ops["dog"]
        assert lex.wc_ops["hamster"] is not lex.wc_ops["rodent"]


# ---------------------------------------------------------------------------
# O(n) pseudoinverse, conjugate update and support projector


def dense_pseudoinverse(a, tol=PINV_TOL):
    """The eigendecomposition path, on the dense matrix."""
    lam, vecs = np.linalg.eigh(a.matrix)
    support = lam > tol
    if not np.any(support):
        raise ZeroOperator("pseudoinverse of the (numerically) zero operator")
    inv = np.where(support, 1.0 / np.where(support, lam, 1.0), 0.0)
    out = vecs @ np.diag(inv) @ vecs.T
    return Operator((out + out.T) / 2.0, a.labels)


def dense_conjugate_update(state, effect):
    s = dense_sqrt(effect.matrix)
    s = (s + s.T) / 2.0
    out = s @ state.matrix @ s
    return Operator((out + out.T) / 2.0, state.labels)


def dense_support_projector(a, tol=PINV_TOL):
    lam, vecs = np.linalg.eigh(a.matrix)
    keep = lam > tol
    out = vecs[:, keep] @ vecs[:, keep].T
    return Operator((out + out.T) / 2.0, a.labels)


def kept_or_error(fn, *args):
    try:
        return kept(fn(*args))
    except ZeroOperator:
        return ZeroOperator


@st.composite
def general_diagonals(draw, n):
    """Diagonal operators of dim ``n``: entries at and around PINV_TOL, in
    the clamp window, signed zeros and plain floats, or a lexicon's worldly
    context. LAPACK rescales a matrix whose largest entry lies below about
    1e-146 (or above about 1e145), which rounds its eigenvalues; the entries
    stay inside that range, where the dense path is exact."""
    labels = tuple(f"x{i}" for i in range(n)) if draw(st.booleans()) else ()
    if draw(st.integers(0, 4)) == 0:
        tax = draw(taxonomies())
        lex = build_lexicon(tax, decay=draw(st.sampled_from([0.3, 0.5, 0.8])))
        wc = lex.wc_ops[tax.order[draw(st.integers(0, len(tax.order) - 1))]]
        d = list(wc.diagonal()[:n]) + [0.0] * (n - min(n, wc.dim))
    else:
        near = [PINV_TOL, math.nextafter(PINV_TOL, 0), math.nextafter(PINV_TOL, 1), 2 * PINV_TOL]
        entries = st.one_of(
            st.floats(0.0, 3.0).filter(lambda x: x == 0 or x > 1e-140),
            st.sampled_from([0.0, -0.0, -PSD_TOL / 2, -PSD_TOL, 1.0, 0.5, 1e100, *near]),
        )
        d = draw(st.lists(entries, min_size=n, max_size=n))
    if max(d) < 1e-140:
        d[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, 1.0, PINV_TOL]))
    return Operator(np.diag(d), labels) if draw(st.booleans()) else diagonal(d, labels)


class TestDiagonalFormsMatchDense:
    """Representation and exact entries, zero signs included, against the
    eigendecomposition each O(n) form replaces."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7))
    def test_pseudoinverse_and_support(self, data, n):
        a = data.draw(general_diagonals(n))
        assert kept_or_error(pseudoinverse, a) == kept_or_error(dense_pseudoinverse, a)
        assert kept(support_projector(a)) == kept(dense_support_projector(a))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7))
    def test_conjugate_update(self, data, n):
        state = data.draw(general_diagonals(n))
        effect = data.draw(general_diagonals(n))
        assert kept(conjugate_update(state, effect)) == kept(dense_conjugate_update(state, effect))

    def test_signed_zeros_and_the_cut(self):
        a = diagonal([-0.0, PINV_TOL, math.nextafter(PINV_TOL, 1), 2.0])
        assert pseudoinverse(a)._diag.tobytes() == np.array([0.0, 0.0, 1 / a._diag[2], 0.5]).tobytes()
        assert support_projector(a)._diag.tolist() == [0.0, 0.0, 1.0, 1.0]
        with pytest.raises(ZeroOperator):
            pseudoinverse(diagonal([-0.0, PINV_TOL]))
        # a state's -0.0 comes out +0.0, as the dense path's sums give it
        out = conjugate_update(diagonal([-0.0, 1.0]), diagonal([4.0, 0.25]))
        assert out._diag.tobytes() == np.array([0.0, 0.25]).tobytes()


# ---------------------------------------------------------------------------
# alternatives and overlap scores against a per-leaf reference


def reference_predicate(word, lex, sigma):
    """P~ rebuilt on every call: sup-normalize(P_word + sigma * wc_word)."""
    p = lex.word_operator(word)
    if sigma == 0:
        return p
    return normalize(mix([(1.0, p), (sigma, lex.worldly_context(word))]), "sup")


def reference_overlap(state, word, lex, sigma):
    t = state.trace()
    return min(1.0, max(0.0, trace_product(state, reference_predicate(word, lex, sigma)) / t))


def reference_alternatives(word, lex, cfg):
    """One overlap per leaf, each with its predicate rebuilt, then ranked;
    a lexicon without word leaves raises before any leaf is named."""
    state = cn_word(word, lex, cfg)
    if not any(leaf in lex for leaf in lex.leaves):
        where = f"lexicon {lex.name!r}" if lex.name else "the lexicon"
        raise UnknownWord(
            f"no leaf of {where} is a word: its leaves are bare basis labels, "
            "so there are no alternatives to rank"
        )
    scored = [
        (reference_overlap(state, leaf, lex, cfg.sigma), i, leaf)
        for i, leaf in enumerate(lex.leaves)
        if leaf != word
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(leaf, score) for score, _, leaf in scored]


def exact_outcome(fn, *args):
    """repr of a result, so zero signs and exact ties count, or the error."""
    try:
        return repr(fn(*args))
    except ConvnegError as exc:
        return (type(exc), str(exc))


SIGMAS = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0, 7.5]),
    st.floats(0.0, 0.25),
    st.floats(1.0, 10.0),
)


class TestAlternativesMatchPerLeafReference:
    @settings(max_examples=60, deadline=None)
    @given(
        tax=taxonomies(),
        pick=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
        sigmas=st.lists(SIGMAS, min_size=1, max_size=3),
        decay=st.sampled_from([None, 0.3, 0.8]),
    )
    def test_bitwise_with_ties(self, tax, pick, seed, sigmas, decay, tmp_path_factory):
        lex = build_lexicon(tax, decay=0.5)
        turned = rotated(lex, random_orthogonal(seed, lex.dim))
        # every other concept's operators rotated: dense and diagonal predicates
        # side by side
        half = dataclasses.replace(
            lex,
            **{
                table: {c: getattr(turned if i % 2 else lex, table)[c] for i, c in enumerate(tax.order)}
                for table in ("word_ops", "wc_ops")
            },
        )
        folder = tmp_path_factory.mktemp("store")
        save_lexicon(lex, folder / "plain.lex")
        save_lexicon(turned, folder / "rotated.lex")
        lexicons = [
            lex, turned, half, load_lexicon(folder / "plain.lex"), load_lexicon(folder / "rotated.lex")
        ]
        word = tax.order[pick % len(tax.order)]
        # several sigmas in turn on the same lexicons: the memo is reused,
        # then replaced, then rebuilt
        for sigma in [*sigmas, sigmas[0]]:
            for other in lexicons:
                for logical, composition in CONFIGS:
                    cfg = NegationConfig(logical, composition, decay=decay, sigma=sigma)
                    assert exact_outcome(alternatives, word, other, cfg) == exact_outcome(
                        reference_alternatives, word, other, cfg
                    )
                try:
                    state = cn_word(word, other, NegationConfig(sigma=sigma))
                except ZeroNegation:
                    continue
                for w in other.concepts:
                    assert exact_outcome(overlap_score, state, w, other, sigma) == exact_outcome(
                        reference_overlap, state, w, other, sigma
                    )

    def test_exact_ties_stay_ties(self):
        # siblings of a leaf score exactly alike and keep their leaf order
        tax = parse_taxonomy("a\tr\nb\tr\nc\tr\nd\tr\n")
        for sigma in (0.0, 0.5, 2.0):
            ranked = alternatives("a", build_lexicon(tax), NegationConfig(sigma=sigma))
            assert [leaf for leaf, _ in ranked] == ["b", "c", "d"]
            assert len({score for _, score in ranked}) == 1


class TestSmoothedPredicateMemo:
    def fig1(self):
        return build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))

    def test_built_once_per_sigma(self):
        lex = self.fig1()
        first = smoothed_predicate("rodent", lex, 0.5)
        assert smoothed_predicate("rodent", lex, 0.5) is first
        # another sigma replaces the table: one sigma is held at a time
        other = smoothed_predicate("rodent", lex, 2.0)
        assert list(lex._smoothed) == [2.0]
        again = smoothed_predicate("rodent", lex, 0.5)
        assert again is not first and kept(again) == kept(first)
        assert list(lex._smoothed) == [0.5]
        assert kept(other) == kept(reference_predicate("rodent", lex, 2.0))
        assert smoothed_predicate("rodent", lex, 0) is lex.word_ops["rodent"]

    @pytest.mark.parametrize("table", ["word_ops", "wc_ops"])
    def test_operator_replaced_in_place_is_not_served_stale(self, table):
        # the maps are read-only: a changed operator means a new lexicon,
        # which answers like the per-leaf reference; the old one keeps its answers
        lex = self.fig1()
        cfg = NegationConfig(sigma=0.5)
        ranked = alternatives("dog", lex, cfg)
        score = overlap_score(lex.word_ops["dog"], "hamster", lex, 0.5)
        stale = kept(cn_word("hamster", lex, cfg))
        changed = with_operator(lex, table, "hamster", "guinea_pig" if table == "word_ops" else "rodent")
        assert not changed._smoothed and not changed._negations
        assert exact_outcome(alternatives, "dog", changed, cfg) == exact_outcome(
            reference_alternatives, "dog", changed, cfg
        )
        state = changed.word_ops["dog"]
        assert float.hex(overlap_score(state, "hamster", changed, 0.5)) == float.hex(
            reference_overlap(state, "hamster", changed, 0.5)
        )
        assert kept(smoothed_predicate("hamster", changed, 0.5)) == kept(
            reference_predicate("hamster", changed, 0.5)
        )
        assert kept(cn_word("hamster", changed, cfg)) != stale
        assert repr(alternatives("dog", lex, cfg)) == repr(ranked)
        assert overlap_score(lex.word_ops["dog"], "hamster", lex, 0.5) is score
        assert kept(cn_word("hamster", lex, cfg)) == stale

    def test_alternating_sigma_answers_like_a_fresh_lexicon(self):
        lex = self.fig1()
        for sigma in (0.5, 0.0, 2.0, 0.5, 0.5, 0.0):
            cfg = NegationConfig("pinv", "conjugate", sigma=sigma)
            assert repr(alternatives("hamster", lex, cfg)) == repr(
                alternatives("hamster", self.fig1(), cfg)
            )

    def test_leaf_predicates_view_their_stack_rows(self):
        lex = self.fig1()
        a = diagonal([0.4, 0.3, 0.2, 0.1])
        for sigma in (0.5, 0.0, 2.0):
            # a record built before the stack keeps its overlaps after it
            before = overlap_score(a, "dog", lex, sigma)
            alternatives("hamster", lex, NegationConfig(sigma=sigma))
            stack = lex._smoothed[sigma].diags
            assert not stack.flags.writeable
            for i, leaf in enumerate(lex.leaves):
                pred = smoothed_predicate(leaf, lex, sigma)
                assert kept(pred) == kept(reference_predicate(leaf, lex, sigma))
                assert stack[i].tobytes() == pred._diag.tobytes()
                if sigma:
                    # one copy of each diagonal: the record's is its stack row
                    assert pred._diag.base is stack and np.shares_memory(pred._diag, stack[i])
                    assert not pred._diag.flags.writeable
                else:
                    assert pred is lex.word_ops[leaf]
                assert float.hex(overlap_score(a, leaf, lex, sigma)) == float.hex(
                    reference_overlap(a, leaf, lex, sigma)
                )
            assert overlap_score(a, "dog", lex, sigma) is before

    def test_memo_is_private_and_bounded(self):
        lex = self.fig1()
        blank, twin = pickle.dumps(lex), dataclasses.replace(lex)
        for word in lex.concepts:
            smoothed_predicate(word, lex, 0.5)
        alternatives("hamster", lex, NegationConfig(sigma=0.5))
        (table,) = lex._smoothed.values()
        # not compared, not pickled, not carried over by replace or copy
        assert lex == twin and not twin._smoothed
        assert pickle.dumps(lex) == blank
        assert not pickle.loads(blank)._smoothed and not copy.copy(lex)._smoothed
        assert not dataclasses.replace(lex)._smoothed
        # one n-vector per word plus the leaves' stack: no more than the
        # lexicon's own word and context operators hold
        held = sum(pred._diag.nbytes for pred, _ in table.words.values())
        held += table.diags.nbytes
        own = sum(op._diag.nbytes for ops in (lex.word_ops, lex.wc_ops) for op in ops.values())
        assert held <= own


FIG1_WORDS = ("hamster", "guinea_pig", "rodent", "dog", "animal", "planet", "entity")


@st.composite
def fig1_states(draw):
    """A nonzero state on fig1's four leaves: a diagonal, or a dense matrix
    (a random rotation of a diagonal)."""
    d = draw(st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4).filter(lambda d: sum(d) > 1e-6))
    if draw(st.booleans()):
        return diagonal(d)
    q = random_orthogonal(draw(st.integers(0, 2**32 - 1)), 4)
    m = q @ np.diag(d) @ q.T
    return Operator((m + m.T) / 2.0)


def scores_kept_for(lex, sigma, word):
    """The overlaps the lexicon keeps for ``word``'s predicate at ``sigma``."""
    return lex._smoothed[sigma].words[word][1]


def with_operator(lex, table, word, source):
    """A new lexicon: ``lex`` with ``word``'s entry in ``table`` taken from ``source``."""
    ops = getattr(lex, table)
    return dataclasses.replace(lex, **{table: {**ops, word: ops[source]}})


class TestOverlapMemo:
    """overlap_score keeps each score in the word's smoothed-predicate
    record, weakly keyed by the state: a repeated call is a lookup."""

    def fig1(self):
        return build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.lists(fig1_states(), min_size=1, max_size=3),
        calls=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(FIG1_WORDS), st.sampled_from((0.0, 0.25, 0.5))),
            min_size=1,
            max_size=12,
        ),
    )
    def test_kept_scores_match_a_fresh_lexicon(self, states, calls):
        lex = self.fig1()
        for i, word, sigma in calls:
            a = states[i % len(states)]
            got = overlap_score(a, word, lex, sigma)
            want = overlap_score(a, word, self.fig1(), sigma)
            assert float.hex(got) == float.hex(want) == float.hex(reference_overlap(a, word, lex, sigma))
            # a repeated call returns the very float computed before
            assert overlap_score(a, word, lex, sigma) is got
            assert scores_kept_for(lex, sigma, word)[a] is got

    @pytest.mark.parametrize("table", ["word_ops", "wc_ops"])
    def test_operator_replaced_in_place_is_never_served_stale(self, table):
        # a changed operator means a new lexicon, with records of its own
        lex = self.fig1()
        a = diagonal([0.4, 0.3, 0.2, 0.1])
        before = overlap_score(a, "hamster", lex, 0.5)
        changed = with_operator(lex, table, "hamster", "dog" if table == "word_ops" else "animal")
        after = overlap_score(a, "hamster", changed, 0.5)
        assert float.hex(after) == float.hex(reference_overlap(a, "hamster", changed, 0.5))
        assert after != before
        assert overlap_score(a, "hamster", changed, 0.5) is after
        assert list(scores_kept_for(changed, 0.5, "hamster").items()) == [(a, after)]
        assert overlap_score(a, "hamster", lex, 0.5) is before
        assert list(scores_kept_for(lex, 0.5, "hamster").items()) == [(a, before)]
        if table == "word_ops":
            # sigma 0 scores against the word operator alone
            assert float.hex(overlap_score(a, "hamster", changed, 0.0)) == float.hex(
                reference_overlap(a, "hamster", changed, 0.0)
            )

    def test_sigma_switch_drops_the_kept_scores(self):
        lex = self.fig1()
        a = diagonal([0.4, 0.3, 0.2, 0.1])
        first = overlap_score(a, "rodent", lex, 0.5)
        assert list(scores_kept_for(lex, 0.5, "rodent").items()) == [(a, first)]
        overlap_score(a, "rodent", lex, 0.25)
        assert list(lex._smoothed) == [0.25]
        again = overlap_score(a, "rodent", lex, 0.5)
        assert again is not first and float.hex(again) == float.hex(first)

    def test_zero_state_raises_on_every_call(self):
        lex = self.fig1()
        zero = diagonal([0.0] * 4)
        for sigma in (0.5, 0.5, 0.0, 0.0):
            with pytest.raises(ZeroOperator, match="nonzero state"):
                overlap_score(zero, "rodent", lex, sigma)
        overlap_score(diagonal([1.0, 0, 0, 0]), "rodent", lex, 0.5)
        with pytest.raises(ZeroOperator, match="nonzero state"):
            overlap_score(zero, "rodent", lex, 0.5)
        assert zero not in scores_kept_for(lex, 0.5, "rodent")

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_invalid_sigma_raises_in_the_same_order(self, bad):
        lex = self.fig1()
        a, zero = diagonal([0.4, 0.3, 0.2, 0.1]), diagonal([0.0] * 4)
        overlap_score(a, "rodent", lex, 0.5)
        for _ in range(2):
            # the state first, then sigma, then the word
            with pytest.raises(ZeroOperator):
                overlap_score(zero, "flubber", lex, bad)
            for word in ("flubber", "rodent"):
                with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
                    overlap_score(a, word, lex, bad)
        # nothing was kept for it, and the kept table stays
        assert list(lex._smoothed) == [0.5]

    def test_a_state_nothing_else_holds_drops_out(self):
        lex = self.fig1()
        a = diagonal([0.4, 0.3, 0.2, 0.1])
        b = diagonal([0.1, 0.2, 0.3, 0.4])
        overlap_score(a, "rodent", lex, 0.5)
        overlap_score(b, "rodent", lex, 0.5)
        kept_scores = scores_kept_for(lex, 0.5, "rodent")
        assert len(kept_scores) == 2
        del a
        gc.collect()
        assert list(kept_scores) == [b]

    def test_kept_scores_are_private(self):
        lex = self.fig1()
        blank, twin = pickle.dumps(lex), dataclasses.replace(lex)
        a = diagonal([0.4, 0.3, 0.2, 0.1])
        for word in FIG1_WORDS:
            overlap_score(a, word, lex, 0.5)
        # not pickled, compared, shown, replaced or copied
        assert pickle.dumps(lex) == blank
        assert lex == twin and repr(lex) == repr(twin)
        for other in (
            pickle.loads(pickle.dumps(lex)),
            dataclasses.replace(lex),
            copy.copy(lex),
            copy.deepcopy(lex),
        ):
            assert not other._smoothed


EVERY_CONFIG = [
    NegationConfig(logical, composition)
    for logical in LOGICAL_CHOICES
    for composition in COMPOSITION_CHOICES
]


def negation_or_error(word, lex, cfg):
    try:
        return kept(cn_word(word, lex, cfg))
    except ZeroNegation as exc:
        return str(exc)


class TestNegationMemo:
    def fig1(self):
        return build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))

    def test_hit_equals_a_fresh_lexicon_for_every_config(self):
        lex = self.fig1()
        for cfg in EVERY_CONFIG:
            for word in lex.concepts:
                first = negation_or_error(word, lex, cfg)
                assert negation_or_error(word, lex, cfg) == first
                assert first == negation_or_error(word, self.fig1(), cfg)
        # one table per (logical, composition, decay), the lexicon's own
        # decay keyed as None, one entry per concept that negates to a
        # nonzero operator
        assert sorted(lex._negations) == sorted(
            (c.logical, c.composition, None) for c in EVERY_CONFIG
        )
        for (logical, _, _), table in lex._negations.items():
            assert len(table) == len(lex.concepts) - (logical == "complement")
        cfg = NegationConfig(sigma=0.0)
        assert cn_word("hamster", lex, cfg) is cn_word("hamster", lex)

    def test_zero_negation_raised_on_every_call(self):
        lex = self.fig1()
        for decay in (None, 0.3, None, 0.3):
            with pytest.raises(ZeroNegation, match="'entity'"):
                cn_word("entity", lex, NegationConfig(decay=decay))
        assert lex._negations == {
            ("complement", "hadamard", None): {},
            ("complement", "hadamard", 0.3): {},
        }

    def test_decay_override_answers_like_a_fresh_lexicon(self):
        lex = self.fig1()
        for decay in (0.3, 0.9, None, 0.3, lex.decay, 0.9, None):
            cfg = NegationConfig("pinv", "conjugate", decay=decay)
            assert kept(cn_word("hamster", lex, cfg)) == kept(
                cn_word("hamster", self.fig1(), cfg)
            )
        # one table per decay; the lexicon's own decay shares the None table
        assert sorted(lex._negations, key=repr) == [
            ("pinv", "conjugate", 0.3),
            ("pinv", "conjugate", 0.9),
            ("pinv", "conjugate", None),
        ]
        for decay in (0.3, 0.9, None, lex.decay):
            cfg = NegationConfig("pinv", "conjugate", decay=decay)
            key = ("pinv", "conjugate", None if decay == lex.decay else decay)
            assert cn_word("hamster", lex, cfg) is lex._negations[key]["hamster"]
        own = NegationConfig("pinv", "conjugate", decay=lex.decay)
        assert cn_word("hamster", lex, own) is cn_word("hamster", lex, dataclasses.replace(own, decay=None))

    def test_memo_is_private(self):
        lex = self.fig1()
        blank, twin = pickle.dumps(lex), dataclasses.replace(lex)
        alternatives("hamster", lex)
        assert lex._negations
        # not compared, shown, pickled, or carried over by replace or copy
        assert lex == twin and not twin._negations
        assert "_negations" not in repr(lex)
        assert pickle.dumps(lex) == blank
        assert not pickle.loads(blank)._negations and not copy.copy(lex)._negations
        assert not dataclasses.replace(lex)._negations


def rankings_kept(lex, sigma):
    """The finished rankings the lexicon keeps by negated state at ``sigma``."""
    return lex._smoothed[sigma].rankings


def leaf_scores(state, lex, sigma):
    return _leaf_scores(state, lex, sigma)


class TestLeafScoreMemo:
    """Each (word, config)'s finished ranking is kept beside the leaves'
    stacked predicates, weakly keyed by the negated state: a repeated
    alternatives call copies the kept ranking out."""

    def fig1(self):
        return build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))

    @settings(max_examples=40, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(FIG1_WORDS),
                st.integers(0, len(EVERY_CONFIG) - 1),
                st.sampled_from((0.0, 0.25, 0.5)),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_hit_equals_a_fresh_lexicon(self, calls):
        lex = self.fig1()
        for word, c, sigma in calls:
            cfg = dataclasses.replace(EVERY_CONFIG[c], sigma=sigma)
            try:
                state = cn_word(word, lex, cfg)
            except ZeroNegation:
                continue
            got = alternatives(word, lex, cfg)
            want = alternatives(word, self.fig1(), cfg)
            assert repr(got) == repr(want) == repr(reference_alternatives(word, lex, cfg))
            # the scorer keeps nothing and gives the per-leaf reference's bits
            ref = [reference_overlap(state, leaf, lex, sigma) for leaf in lex.leaves]
            assert list(map(float.hex, leaf_scores(state, lex, sigma))) == list(map(float.hex, ref))
            # a repeated call returns a new list of the very scores kept before
            names, scores = rankings_kept(lex, sigma)[state]
            again = alternatives(word, lex, cfg)
            assert again == got and again is not got
            assert [leaf for leaf, _ in again] == list(names)
            assert all(score is k for (_, score), k in zip(again, scores, strict=True))

    def test_every_config_sigma_and_top_k(self):
        for sigma in (0.0, 0.25, 0.5):
            lex = self.fig1()
            for cfg in EVERY_CONFIG:
                for decay in (None, 0.3):
                    cfg = dataclasses.replace(cfg, sigma=sigma, decay=decay)
                    for word in FIG1_WORDS:
                        for top_k in (None, 1, 2, 3, 4):
                            fresh = exact_outcome(alternatives, word, self.fig1(), cfg, top_k)
                            got, want = ranked_outcome(word, lex, cfg, top_k)
                            assert got == fresh == want, (cfg, word, top_k)
            # one ranking per (word, config) that negates to a nonzero state
            assert len(rankings_kept(lex, sigma)) == sum(map(len, lex._negations.values()))

    def test_returned_list_is_the_callers(self):
        lex = self.fig1()
        for cfg in (NegationConfig(), NegationConfig("pinv", "conjugate", sigma=0.0)):
            for top_k in (None, 2):
                want = repr(reference_alternatives("hamster", lex, cfg)[:top_k])
                for _ in range(3):
                    got = alternatives("hamster", lex, cfg, top_k)
                    assert repr(got) == want
                    got[0] = ("planet", 1.0)
                    got.append(("hamster", 0.5))
                    got.reverse()
                    del got[1:]

    def test_dense_predicates_keep_their_ranking(self, tmp_path):
        lex = self.fig1()
        turned = rotated(lex, random_orthogonal(5, 4))
        save_lexicon(turned, tmp_path / "turned.lex")
        for other in (turned, load_lexicon(tmp_path / "turned.lex")):
            for cfg in (NegationConfig(), NegationConfig("pinv", "conjugate", sigma=0.0)):
                first = alternatives("dog", other, cfg)
                state = cn_word("dog", other, cfg)
                assert other._smoothed[cfg.sigma].diags is None
                assert list(zip(*rankings_kept(other, cfg.sigma)[state])) == first
                # the second call scores nothing and matches the reference
                with mock.patch.object(convneg.negation, "_leaf_scores") as scorer:
                    again = alternatives("dog", other, cfg)
                assert not scorer.called
                assert repr(again) == repr(first) == repr(reference_alternatives("dog", other, cfg))

    @settings(max_examples=30, deadline=None)
    @given(
        tax=taxonomies(),
        picks=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, len(EVERY_CONFIG) - 1)),
            min_size=1,
            max_size=5,
        ),
        sigma=SIGMAS,
    )
    def test_rankings_unchanged(self, tax, picks, sigma):
        lex = build_lexicon(tax)
        # each query twice: the second copies the kept ranking
        for pick, c in picks * 2:
            word = tax.order[pick % len(tax.order)]
            cfg = dataclasses.replace(EVERY_CONFIG[c], sigma=sigma)
            assert exact_outcome(alternatives, word, lex, cfg) == exact_outcome(
                reference_alternatives, word, lex, cfg
            )

    # sigma 0 scores against the word operators alone
    @pytest.mark.parametrize("table, sigma", [("word_ops", 0.0), ("word_ops", 0.5), ("wc_ops", 0.5)])
    def test_leaf_operator_replaced_in_place_is_never_served_stale(self, table, sigma):
        # a changed leaf operator means a new lexicon, with a stack of its own
        lex = self.fig1()
        cfg = NegationConfig(sigma=sigma)
        before = alternatives("dog", lex, cfg)
        state = cn_word("dog", lex, cfg)
        changed = with_operator(lex, table, "hamster", "dog" if table == "word_ops" else "planet")
        after = alternatives("dog", changed, cfg)
        assert repr(after) == repr(reference_alternatives("dog", changed, cfg))
        assert after != before
        assert list(rankings_kept(changed, sigma)) == [cn_word("dog", changed, cfg)]
        # the old lexicon keeps its stack and its ranking
        assert list(rankings_kept(lex, sigma)) == [state]
        assert list(zip(*rankings_kept(lex, sigma)[state])) == before
        assert repr(alternatives("dog", lex, cfg)) == repr(before)

    def test_zero_state_raises_on_every_call_and_is_never_kept(self):
        lex = self.fig1()
        alternatives("dog", lex)
        state, zero = cn_word("dog", lex), diagonal([0.0] * 4)
        bad_sigma = NegationConfig()
        object.__setattr__(bad_sigma, "sigma", -1.0)
        for _ in range(3):
            with pytest.raises(ZeroOperator, match="nonzero state"):
                leaf_scores(zero, lex, 0.5)
            with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
                leaf_scores(state, lex, -1.0)
            with pytest.raises(ZeroNegation, match="'entity'"):
                alternatives("entity", lex)
            # the checks run before a kept ranking is read: top_k, the word, sigma
            with pytest.raises(ValueError, match="top_k must be >= 1"):
                alternatives("dog", lex, top_k=0)
            with pytest.raises(UnknownWord, match="'flubber'"):
                alternatives("flubber", lex)
            with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
                alternatives("dog", lex, bad_sigma)
        assert zero not in rankings_kept(lex, 0.5)
        assert list(rankings_kept(lex, 0.5)) == [state]

    def test_a_state_nothing_else_holds_drops_out(self):
        lex = self.fig1()
        alternatives("hamster", lex)
        alternatives("dog", lex)
        kept_rankings = rankings_kept(lex, 0.5)
        assert len(kept_rankings) == 2
        # the negations table holds each state; once it lets one go, so does the memo
        negations = lex._negations[("complement", "hadamard", None)]
        b = negations["dog"]
        del negations["hamster"]
        gc.collect()
        assert list(kept_rankings) == [b]

    def test_kept_scores_are_private(self):
        lex = self.fig1()
        blank, twin = pickle.dumps(lex), dataclasses.replace(lex)
        for word in ("hamster", "dog", "rodent"):
            alternatives(word, lex)
        assert len(rankings_kept(lex, 0.5)) == 3
        # not pickled, compared, shown, replaced or copied
        assert pickle.dumps(lex) == blank
        assert lex == twin and repr(lex) == repr(twin)
        for other in (
            pickle.loads(pickle.dumps(lex)),
            dataclasses.replace(lex),
            copy.copy(lex),
            copy.deepcopy(lex),
        ):
            assert not other._smoothed


FIG1_LEAVES = ("hamster", "guinea_pig", "dog", "planet")
# one step on a fig1 lexicon: an edit (a new lexicon with a leaf's word or
# context operator replaced by another concept's, restored, or the leaf
# deleted as a word; or a sigma switch; or none), then a query
EDITS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(["word_ops", "wc_ops"]),
              st.sampled_from(FIG1_LEAVES), st.sampled_from(FIG1_WORDS)),
    st.tuples(st.just("restore"), st.sampled_from(["word_ops", "wc_ops"]),
              st.sampled_from(FIG1_LEAVES)),
    st.tuples(st.just("delete"), st.sampled_from(FIG1_LEAVES)),
    st.tuples(st.just("sigma"), st.sampled_from((0.0, 0.25, 0.5))),
    st.tuples(st.just("none")),
)
QUERIES = st.one_of(
    st.tuples(st.just("alternatives"), st.sampled_from(FIG1_WORDS),
              st.integers(0, len(EVERY_CONFIG) - 1)),
    st.tuples(st.just("overlap"), st.sampled_from(FIG1_WORDS), st.sampled_from(FIG1_LEAVES)),
)


def ranked_outcome(word, lex, cfg, top_k=None):
    """``alternatives`` and its per-leaf reference, each by ``exact_outcome``."""
    want = exact_outcome(reference_alternatives, word, lex, cfg)
    if top_k is not None and not isinstance(want, tuple):
        want = repr(reference_alternatives(word, lex, cfg)[:top_k])
    return exact_outcome(alternatives, word, lex, cfg, top_k), want


def kary_taxonomy(n_leaves, k=4):
    """A complete k-ary tree with ``n_leaves`` leaves, a power of k."""
    lines, level = [], ["r"]
    while len(level) < n_leaves:
        level = [f"{parent}.{i}" for parent in level for i in range(k)]
        lines += [f"{c}\t{c.rsplit('.', 1)[0]}" for c in level]
    return parse_taxonomy("\n".join(lines) + "\n")


def two_level_taxonomy(groups, size):
    """``groups`` concepts under one root, each over ``size`` leaves of its own."""
    lines = [f"g{i}\tr" for i in range(groups)]
    lines += [f"g{i}.{j}\tg{i}" for i in range(groups) for j in range(size)]
    return parse_taxonomy("\n".join(lines) + "\n")


def dag_tsv(seed, n_leaves):
    """A seeded random DAG as taxonomy TSV text: nodes grouped 2-4 under new
    parents, level by level up to one root, then about one node in eight
    given a second parent from a higher level, so no cycle can form."""
    rng = np.random.default_rng(seed)
    level, edges, height = [f"x{i}" for i in range(n_leaves)], [], {}
    while len(level) > 1:
        order, level, i = rng.permutation(level).tolist(), [], 0
        while i < len(order):
            size = int(rng.integers(2, 5))
            parent = f"h{len(height)}"
            height[parent] = 1 + max(height.get(c, 0) for c in order[i : i + size])
            edges += [(c, parent) for c in order[i : i + size]]
            level.append(parent)
            i += size
    root = level[0]
    for child in sorted({c for c, _ in edges}):
        if rng.random() < 0.125:
            above = [p for p in height if height[p] > height.get(child, 0) and p != root]
            parent = str(rng.choice(above)) if above else root
            if (child, parent) not in edges:
                edges.append((child, parent))
    return "".join(f"{c}\t{p}\n" for c, p in edges)


def fsum_rows_or_error(x, v):
    try:
        return [s.hex() for s in _fsum_rows(x, v)]
    except OverflowError:
        return OverflowError


def reference_rows_or_error(x, v):
    try:
        return [math.fsum(row).hex() for row in (x * v).tolist()]
    except OverflowError:
        return OverflowError


ROW_KINDS = ("zeros", "subnormal", "signed", "positive", "range", "overflow", "tie", "tie_cancel")


def hard_row(rng, kind, n):
    """One row of ``kind``: signed zeros, subnormals, signed entries over 120
    binades, scorer-like entries in [0, 1), 1e-300...1e300 magnitudes, near-
    overflow entries, or rows whose sum sits at a + ulp/2 +- 2**-k (spread over
    n - 1 equal entries, or at an exact midpoint with a pair +-B beside it)."""
    if kind == "zeros":
        return rng.choice([0.0, -0.0], n)
    if kind == "subnormal":
        return rng.integers(-(2**20), 2**20, n) * 5e-324
    if kind == "signed":
        return rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))
    if kind == "positive":
        return rng.random(n)
    if kind == "range":
        return rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == "overflow":
        row = np.zeros(n)
        row[rng.integers(0, n, 3)] = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.3, 1.0, 3) * 1.7e308
        return row
    a = float(rng.uniform(1.0, 2.0) if rng.random() < 0.7 else 1.0) * 2.0 ** int(rng.integers(-40, 40))
    if rng.random() < 0.5:
        a = -a
    half = (math.nextafter(abs(a), math.inf) - abs(a)) / 2
    if rng.random() < 0.5:  # a power of two's gap below is the smaller one
        half = (abs(a) - math.nextafter(abs(a), 0)) / 2
    off = half * (rng.choice([-1.0, 1.0]) + rng.choice([-1.0, 1.0]) * 2.0 ** -int(rng.integers(1, 70)))
    if kind == "tie" or n < 4:
        row = np.full(n, off / max(n - 1, 1))
        row[0] = a
    else:
        row = np.zeros(n)
        big = abs(a) * 2.0 ** int(rng.integers(-3, 12))
        row[:4] = a, off, big, -big
    return rng.permutation(row)


class TestCertifiedRowSums:
    """``_fsum_rows`` gives ``math.fsum``'s bits and errors on every row."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from((1, 2, 63, 64, 65, 4096)),
        count=st.sampled_from((1, 2, 5, 257, 300)),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        scaled=st.booleans(),
    )
    def test_bitwise_equal_to_fsum(self, n, count, kinds, seed, scaled):
        rng = np.random.default_rng(seed)
        x = np.array([hard_row(rng, kinds[i % len(kinds)], n) for i in range(count)])
        # a scaled row's products are not the constructed ones, nor can they overflow
        v = rng.random(n) + 0.5 if scaled and "overflow" not in kinds else np.ones(n)
        assert fsum_rows_or_error(x, v) == reference_rows_or_error(x, v)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 4096])
    def test_near_ties(self, n):
        # rows built to sit within a few rounding errors of a float's
        # rounding boundary: a wrong bound or interval shows here
        rng = np.random.default_rng(n)
        for kind in ("tie", "tie_cancel") * (8 if n == 4096 else 200):
            x = np.array([hard_row(rng, kind, n) for _ in range(4 if n == 4096 else 40)])
            v = np.ones(n)
            assert fsum_rows_or_error(x, v) == reference_rows_or_error(x, v)

    @pytest.mark.parametrize("n", [_NARROW, 64, 4096])
    def test_sum_just_below_a_power_of_two(self, n):
        # 2**p * (1/2 + (1/2 - 2**-54) - 2**-120) lies just below the midpoint
        # under 2**p, so fsum rounds it down; the pass's sum lands on that
        # midpoint and rounds to 2**p, even. Only the half gap below 2**p,
        # not the twice wider one above, sends such a row to math.fsum
        rng = np.random.default_rng(n)
        x = np.zeros((40, n))
        for row in x:
            p, sign = int(rng.integers(-60, 60)), rng.choice([-1.0, 1.0])
            row[rng.permutation(n)[:3]] = sign * np.ldexp([0.5, 0.5 - 2.0**-54, -(2.0**-120)], p)
        want = reference_rows_or_error(x, np.ones(n))
        assert fsum_rows_or_error(x, np.ones(n)) == want
        assert {math.frexp(float.fromhex(s))[0] for s in want} <= {1 - 2.0**-53, 2.0**-53 - 1}

    def test_midpoint_sums_within_the_spread(self):
        # 1 + (2**-m + 2**-53) - 2**-m is exactly the midpoint above 1, which
        # fsum rounds to 1.0, even; in 64 columns the remainders' float64 sum
        # is proven exact while m <= 40 (``spread``), past that math.fsum sums
        for m, calls in ((40, 0), (41, 1)):
            for sign in (1.0, -1.0):
                x = np.zeros((1, 64))
                x[0, [0, 30, 63]] = sign, sign * (2.0**-m + 2.0**-53), -sign * 2.0**-m
                with mock.patch("math.fsum", wraps=math.fsum) as fsum:
                    assert _fsum_rows(x, np.ones(64)) == [sign]
                assert fsum.call_count == calls

    def test_overflow_is_kept(self):
        x = np.array([[1.0, 2.0], [1e308, 1e308]])
        with pytest.raises(OverflowError):
            _fsum_rows(x, np.ones(2))
        # finite sums whose partial sums overflow in fsum; in the second,
        # the float64 sum of magnitudes loses the four ulp(max)/4 entries
        # added to max and stays finite
        with pytest.raises(OverflowError):
            _fsum_rows(np.array([[1e308, 1e308, -1e308]]), np.ones(3))
        row = np.zeros(40)
        row[::8] = np.finfo(float).max, 2.0**969, 2.0**969, -(2.0**969), -(2.0**969)
        with pytest.raises(OverflowError):
            math.fsum(row.tolist())
        with pytest.raises(OverflowError):
            _fsum_rows(row[None], np.ones(40))

    @pytest.mark.parametrize("n", [_NARROW - 1, _NARROW])
    def test_narrow_stacks_take_fsum(self, n):
        rng = np.random.default_rng(n)
        for kind in ROW_KINDS:
            x = np.array([hard_row(rng, kind, n) for _ in range(n)])
            v = np.ones(n) if kind == "overflow" else rng.random(n) + 0.5
            with mock.patch("math.fsum", wraps=math.fsum) as fsum:
                got = fsum_rows_or_error(x, v)
            assert got == reference_rows_or_error(x, v), kind
            if n < _NARROW:
                assert fsum.call_count == n or got is OverflowError, kind
        x, v = rng.random((n, n)), rng.random(n)
        with mock.patch("math.fsum", wraps=math.fsum) as fsum:
            got = fsum_rows_or_error(x, v)
        assert got == reference_rows_or_error(x, v)
        if n < _NARROW:
            assert fsum.call_count == n
        else:  # the float64 pass certifies most rows
            assert fsum.call_count < n // 4

    def tree_states(self, lex):
        words = (lex.leaves[5], lex.leaves[700], "r.0", "r.1.2", "r.3.3.1")
        for word in words:
            for cfg in (NegationConfig(), NegationConfig("pinv", "conjugate")):
                yield cn_word(word, lex, cfg)

    def test_tree_of_1024_leaves(self):
        lex = build_lexicon(kary_taxonomy(1024))
        for sigma in (0.0, 0.5):
            alternatives(lex.leaves[0], lex, NegationConfig(sigma=sigma))
            diags = lex._smoothed[sigma].diags
            for state in self.tree_states(lex):
                v = state._diag
                assert fsum_rows_or_error(diags, v) == reference_rows_or_error(diags, v)

    def test_few_rows_fall_back(self):
        # a sum that always fell back to math.fsum would pass every test above
        lex = build_lexicon(kary_taxonomy(1024))
        alternatives(lex.leaves[0], lex)
        diags = lex._smoothed[0.5].diags
        states = list(self.tree_states(lex))
        with mock.patch("math.fsum", wraps=math.fsum) as fsum:
            for state in states:
                _fsum_rows(diags, state._diag)
        assert fsum.call_count < 0.25 * len(states) * len(diags)

    def test_zero_rows_are_certified(self):
        # at sigma 0 a leaf's predicate is its word operator alone, so rows
        # outside a state's support are zero rows: +0.0 without math.fsum
        lex = build_lexicon(kary_taxonomy(1024))
        alternatives(lex.leaves[0], lex, NegationConfig(sigma=0.0))
        diags = lex._smoothed[0.0].diags
        # a stack narrower than _NARROW columns takes math.fsum outright
        rows = [(np.array([[-0.0, 0.0], [-0.0, -0.0]]).repeat(_NARROW // 2, axis=1), np.ones(_NARROW))]
        for state in self.tree_states(lex):
            rows.append((diags[~(diags * state._diag).any(axis=1)], state._diag))
        assert sum(len(x) for x, _ in rows) > len(rows)
        with mock.patch("math.fsum", wraps=math.fsum) as fsum:
            sums = [s.hex() for x, v in rows for s in _fsum_rows(x, v)]
        assert fsum.call_count == 0
        assert set(sums) == {"0x0.0p+0"}

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize(
        "shape", [(2**a, 2**b) for a in (2, 3, 4) for b in (2, 3, 4)] + [64, 1024], ids=str
    )
    def test_tree_stacks(self, shape, sigma):
        # two-level trees (groups x leaves per group) and 4-ary trees: fsum's
        # bits on every row, and under 1% of the rows of a stack at least
        # _NARROW columns wide reach math.fsum
        tax = kary_taxonomy(shape) if isinstance(shape, int) else two_level_taxonomy(*shape)
        lex = build_lexicon(tax)
        alternatives(lex.leaves[0], lex, NegationConfig(sigma=sigma))
        diags = lex._smoothed[sigma].diags
        inner = [c for c in lex.concepts if c != "r" and c not in lex.leaves]
        words = [*lex.leaves[:: max(1, len(lex.leaves) // 3)], *inner[:: len(inner) // 2]]
        configs = [("complement", "hadamard"), ("pinv", "conjugate"), ("complement", "conjugate")]
        calls = rows = 0
        for word in words:
            for cfg in [NegationConfig(*names, sigma=sigma) for names in configs] + [
                NegationConfig(decay=0.25, sigma=sigma)
            ]:
                v = cn_word(word, lex, cfg)._diag
                with mock.patch("math.fsum", wraps=math.fsum) as fsum:
                    got = fsum_rows_or_error(diags, v)
                assert got == reference_rows_or_error(diags, v), (word, cfg)
                calls, rows = calls + fsum.call_count, rows + len(diags)
        if lex.dim < _NARROW:
            assert calls == rows
        else:
            assert calls < 0.01 * rows

    @pytest.mark.parametrize("seed", [3, 8])
    def test_scores_match_the_exact_model(self, seed, tmp_path):
        # the scores of a stack of _NARROW or more columns against the
        # Fraction oracle's exact overlaps, concept by concept
        path = tmp_path / "dag.tsv"
        path.write_text(dag_tsv(seed, 64), encoding="utf-8")
        lex, oracle = build_lexicon(load_taxonomy(path)), DiagOracle(path)
        assert lex.dim == 64 >= _NARROW
        for sigma in (Fraction(0), Fraction(1, 2)):
            for word in [*lex.leaves[::21], "h0", "h7", "h14"]:
                got = dict(alternatives(word, lex, NegationConfig(sigma=float(sigma))))
                assert set(got) == set(oracle.leaves) - {word}
                state = oracle.cn(word)
                for leaf, score in got.items():
                    assert abs(score - oracle.overlap(state, leaf, sigma)) <= 1e-12, (word, leaf)


class TestLeafStackCheck:
    """Whatever the kept leaf stack serves, and every error, matches the
    per-leaf reference, on each lexicon built by ``dataclasses.replace``."""

    def fig1(self):
        return build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(EDITS, QUERIES), min_size=1, max_size=30))
    def test_any_edit_sequence_matches_the_reference(self, steps):
        base, sigma = self.fig1(), 0.5
        lex, ops, deleted = base, {t: dict(getattr(base, t)) for t in ("word_ops", "wc_ops")}, set()
        for edit, query in steps:
            if edit[0] in ("replace", "restore", "delete"):
                if edit[0] == "replace":
                    _, table, leaf, source = edit
                    ops[table][leaf] = getattr(base, table)[source]
                elif edit[0] == "restore":
                    _, table, leaf = edit
                    ops[table][leaf] = getattr(base, table)[leaf]
                    deleted.discard(leaf)
                else:
                    deleted.add(edit[1])
                lex = dataclasses.replace(
                    base,
                    concepts=tuple(c for c in base.concepts if c not in deleted),
                    **{t: {c: op for c, op in m.items() if c not in deleted} for t, m in ops.items()},
                )
            elif edit[0] == "sigma":
                sigma = edit[1]
            if query[0] == "alternatives":
                _, word, c = query
                got, want = ranked_outcome(word, lex, dataclasses.replace(EVERY_CONFIG[c], sigma=sigma))
                assert got == want, (edit, query)
            else:
                _, word, leaf = query
                try:
                    state = normalize(lex.word_operator(word), "trace")
                except ConvnegError:
                    continue
                assert exact_outcome(overlap_score, state, leaf, lex, sigma) == exact_outcome(
                    reference_overlap, state, leaf, lex, sigma
                ), (edit, query)

    # sigma 0 scores against the word operators alone
    @pytest.mark.parametrize("table, sigma", [("word_ops", 0.0), ("word_ops", 0.5), ("wc_ops", 0.5)])
    @pytest.mark.parametrize("scorer", ["alternatives", "overlap"])
    def test_replaced_scored_and_restored(self, table, sigma, scorer):
        lex = self.fig1()
        cfg = NegationConfig(sigma=sigma)
        ranked = alternatives("dog", lex, cfg)
        kept_stack = lex._smoothed[sigma].diags
        changed = with_operator(lex, table, "hamster", "dog" if table == "word_ops" else "planet")
        if scorer == "alternatives":
            got, want = ranked_outcome("dog", changed, cfg)
            assert got == want != repr(ranked)
        else:
            # only the leaf's own record is built, no stack
            state = cn_word("dog", changed, cfg)
            assert float.hex(overlap_score(state, "hamster", changed, sigma)) == float.hex(
                reference_overlap(state, "hamster", changed, sigma)
            )
            assert changed._smoothed[sigma].diags is None
        # the original lexicon still serves its own stack
        for _ in range(2):
            got, want = ranked_outcome("dog", lex, cfg)
            assert got == want == repr(ranked)
        assert lex._smoothed[sigma].diags is kept_stack

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_deleted_leaf_raises_on_every_call(self, sigma):
        lex = self.fig1()
        cfg = NegationConfig(sigma=sigma)
        ranked = alternatives("dog", lex, cfg)
        # guinea_pig stays a leaf but is no word of the new lexicon
        kept_ops = {t: {c: op for c, op in getattr(lex, t).items() if c != "guinea_pig"}
                    for t in ("word_ops", "wc_ops")}
        without = dataclasses.replace(lex, concepts=tuple(kept_ops["word_ops"]), **kept_ops)
        for _ in range(3):
            with pytest.raises(UnknownWord, match="'guinea_pig'"):
                alternatives("dog", without, cfg)
            got, want = ranked_outcome("dog", without, cfg)
            assert got == want
        assert repr(alternatives("dog", lex, cfg)) == repr(ranked)

    @pytest.mark.parametrize("dense", [False, True])
    def test_bare_leaves_raise_on_every_call(self, dense):
        # no leaf is a word: the error says so rather than naming 'l0'
        ops = [diagonal([1.0, 0.5, 0.0]), diagonal([0.0, 1.0, 1.0]), identity(3)]
        if dense:
            q = random_orthogonal(3, 3)
            ops = [Operator((m + m.T) / 2.0) for m in (q @ op.matrix @ q.T for op in ops)]
        lex = Lexicon(
            concepts=("x", "y"),
            leaves=("l0", "l1", "l2"),
            word_ops={"x": ops[0], "y": ops[1]},
            wc_ops={"x": ops[2], "y": ops[2]},
            decay=0.5,
            name="bare",
        )
        for sigma in (0.0, 0.5):
            for _ in range(2):
                with pytest.raises(UnknownWord, match="no leaf of lexicon 'bare' is a word: its leaves are bare basis labels"):
                    alternatives("x", lex, NegationConfig(sigma=sigma))
            assert lex._smoothed[sigma].diags is None

    def test_wrong_dim_state_raises_on_every_call(self):
        lex = self.fig1()
        alternatives("dog", lex)
        state = cn_word("dog", lex)
        for a in (diagonal([0.5, 0.3, 0.2]), Operator(np.full((5, 5), 0.2))):
            for _ in range(2):
                with pytest.raises(DimMismatch, match=f"state dim {a.dim} vs predicate dim 4"):
                    leaf_scores(a, lex, 0.5)
        assert list(rankings_kept(lex, 0.5)) == [state]

    def test_dense_state_against_diagonal_predicates_uses_the_stack(self):
        lex = self.fig1()
        q = random_orthogonal(11, 4)
        m = q @ np.diag([0.4, 0.3, 0.2, 0.1]) @ q.T
        a = Operator((m + m.T) / 2.0)
        for sigma in (0.0, 0.5):
            with mock.patch.object(convneg.entailment, "_fsum_rows", wraps=_fsum_rows) as rows, \
                    mock.patch.object(convneg.entailment, "trace_product") as per_leaf:
                got = leaf_scores(a, lex, sigma)
            want = [reference_overlap(a, leaf, lex, sigma) for leaf in lex.leaves]
            assert list(map(float.hex, got)) == list(map(float.hex, want))
            # one product with the stack, no leaf scored on its own
            assert rows.call_count == 1 and not per_leaf.called
            assert rows.call_args.args[0] is lex._smoothed[sigma].diags

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_dense_predicates_take_the_per_pair_path(self, sigma, tmp_path):
        lex = self.fig1()
        turned = rotated(lex, random_orthogonal(5, 4))
        save_lexicon(turned, tmp_path / "turned.lex")
        # hamster's operators alone rotated: one dense leaf predicate
        half = dataclasses.replace(
            lex,
            word_ops={**lex.word_ops, "hamster": turned.word_ops["hamster"]},
            wc_ops={**lex.wc_ops, "hamster": turned.wc_ops["hamster"]},
        )
        for other in (turned, load_lexicon(tmp_path / "turned.lex"), half):
            # with any dense leaf predicate, a diagonal state and a dense one
            # both go leaf by leaf and nothing is stacked; rankings are kept
            a = diagonal([0.4, 0.3, 0.2, 0.1])
            for _ in range(2):
                got = leaf_scores(a, other, sigma)
                want = [reference_overlap(a, leaf, other, sigma) for leaf in other.leaves]
                assert list(map(float.hex, got)) == list(map(float.hex, want))
            states = set()
            for cfg in EVERY_CONFIG:
                cfg = dataclasses.replace(cfg, sigma=sigma)
                for word in ("dog", "rodent"):
                    for _ in range(2):
                        got, want = ranked_outcome(word, other, cfg)
                        assert got == want
                    try:
                        states.add(cn_word(word, other, cfg))
                    except ZeroNegation:
                        pass
            table = other._smoothed[sigma]
            assert table.diags is None and set(table.rankings) == states

    def test_sigma_switch_rebuilds_the_stack(self):
        lex = self.fig1()
        for sigma in (0.5, 0.0, 0.25, 0.5, 0.5, 0.0):
            cfg = NegationConfig("pinv", "conjugate", sigma=sigma)
            got, want = ranked_outcome("hamster", lex, cfg)
            assert got == want
            assert list(lex._smoothed) == [sigma]
            assert list(lex._smoothed[sigma].rankings) == [cn_word("hamster", lex, cfg)]

    @pytest.mark.parametrize("top_k", [None, 1, 2, 4])
    def test_exact_ties_keep_leaf_order(self, top_k):
        # a star's leaves tie exactly against any other leaf's negation
        lex = build_lexicon(parse_taxonomy("a\tr\nb\tr\nc\tr\nd\tr\ne\tr\n"))
        for sigma in (0.0, 0.5):
            for word in ("a", "c", "r"):
                for _ in range(2):
                    got, want = ranked_outcome(word, lex, NegationConfig(sigma=sigma), top_k)
                    assert got == want

    @settings(max_examples=100, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([0.0, -0.0, 1 / 3, 0.25, 0.5, 1.0]), min_size=5, max_size=5),
        pick=st.integers(0, 5),
        top_k=st.one_of(st.none(), st.integers(1, 6)),
    )
    def test_signed_zeros_and_ties_rank_as_the_index_key(self, scores, pick, top_k):
        # the ranking alone, on planted scores: -0.0 == 0.0 ties
        lex = build_lexicon(parse_taxonomy("a\tr\nb\tr\nc\tr\nd\tr\ne\tr\n"))
        word = ("a", "b", "c", "d", "e", "r")[pick]
        scored = [(s, i, leaf) for i, (leaf, s) in enumerate(zip(lex.leaves, scores)) if leaf != word]
        scored.sort(key=lambda t: (-t[0], t[1]))
        want = [(leaf, s) for s, _, leaf in scored][:top_k]
        with mock.patch.object(convneg.negation, "_leaf_scores", lambda *args: tuple(scores)):
            # pinv, so that the root's negation is not zero
            assert repr(alternatives(word, lex, NegationConfig("pinv"), top_k)) == repr(want)


# ---------------------------------------------------------------------------
# loewner_k on diagonals against the dense path


def dense_loewner_k_raw(a, b):
    """``loewner_k_raw`` as every pair ran it before the O(n) form for
    diagonals: one eigendecomposition of B, Cholesky whitening, two solves."""
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


def k_outcome(fn, a, b):
    """A k as its exact float, or the error."""
    try:
        return float.hex(fn(a, b))
    except (ConvnegError, np.linalg.LinAlgError, RuntimeWarning) as exc:
        return (type(exc), str(exc))


def assert_k_matches_dense(a, b):
    want = k_outcome(dense_loewner_k_raw, a, b)
    assert k_outcome(loewner_k_raw, a, b) == want
    clamped = want if isinstance(want, tuple) else float.hex(min(1.0, float.fromhex(want)))
    assert k_outcome(loewner_k, a, b) == clamped


# LAPACK's eigensolvers rescale a matrix whose largest entry lies outside
# about [1e-146, 1e146]; scales around both ends and up to MAX_ENTRY
SCALES = (1e-12, 1e-8, 1e-3, 1.0, 1e3, 1e8, 1e130, 1e134, 1e138, 1e140, 1e142, 7e145, 1e146,
          1.5e146, 1e150, 1e200, MAX_ENTRY)


@st.composite
def loewner_diagonals(draw, n):
    """A diagonal of dim ``n`` at one scale: signed zeros, quantized ties,
    entries at the support cut and at the residual bound, and plain floats."""
    entries = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, -0.0, 1 / 3, 2 / 3, 1.0, PINV_TOL, 2 * PINV_TOL, SUPPORT_RESIDUAL_TOL,
                         math.nextafter(SUPPORT_RESIDUAL_TOL, 1)]),
    )
    d = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    return diagonal(np.minimum(d * draw(st.sampled_from(SCALES)), MAX_ENTRY))


class TestLoewnerDiagonalMatchesDense:
    """The O(n) form of loewner_k_raw on two diagonals, bit for bit and
    error for error, against the dense path it replaces."""

    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), n=st.integers(1, 70))
    def test_random_diagonals(self, data, n):
        a, b = data.draw(loewner_diagonals(n)), data.draw(loewner_diagonals(n))
        assert_k_matches_dense(a, b)
        assert_k_matches_dense(b, a)
        if not a.is_zero():
            assert_k_matches_dense(a, a)

    def test_every_ordered_pair_of_fig1_concepts(self):
        lex = build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))
        for ops in (lex.word_ops, lex.wc_ops):
            for a in ops.values():
                for b in ops.values():
                    assert_k_matches_dense(a, b)

    def test_one_support_direction_divides(self):
        # one direction in B's support is divided out; several are multiplied
        # by reciprocals, and the two round differently here
        for pad in (0, 1, 5):
            a = diagonal([0.3] + [0.0] * pad)
            assert float.hex(loewner_k_raw(a, a)) == "0x1.ffffffffffffep-1"
            assert_k_matches_dense(a, a)
        twice = diagonal([0.3, 0.3, 0.0])
        assert loewner_k_raw(twice, twice) == 1.0
        assert_k_matches_dense(twice, twice)

    def test_zero_operands_and_dims(self):
        one = diagonal([1.0, 0.5, 0.0])
        for zero in (diagonal([0.0] * 3), diagonal([1e-13, 0.0, 0.0])):
            assert loewner_k_raw(one, zero) == 0.0
            with pytest.raises(ZeroOperator, match="nonzero left operand"):
                loewner_k_raw(zero, one)
            assert_k_matches_dense(one, zero)
            assert_k_matches_dense(zero, one)
        with pytest.raises(DimMismatch):
            loewner_k_raw(one, diagonal([1.0, 1.0]))

        # B full rank: nothing lies off its support
        full = diagonal([4.0, 4.0, 4.0])
        assert loewner_k_raw(one, full) == 4.0 and loewner_k(one, full) == 1.0
        assert_k_matches_dense(one, full)

    def test_whitened_ratio_past_the_unscaled_range(self):
        # both tops lie inside EIGH_UNSCALED but a/b on B's support does not:
        # the O(n) form declines, and the dense path answers
        a, b = np.array([1e135, 1.0]), np.array([1e-9, 1.0])
        assert _diagonal_k(a, b) is None
        assert_k_matches_dense(diagonal(a), diagonal(b))

    def test_no_eigendecomposition_inside_the_unscaled_range(self, monkeypatch):
        a, b = diagonal([0.5, 0.25, 0.0, 1e-9]), diagonal([1.0, 0.5, 1e-11, 0.0])
        want = dense_loewner_k_raw(a, b)

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition on the diagonal path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert float.hex(loewner_k_raw(a, b)) == float.hex(want)
        n = 1024
        big = diagonal(np.arange(n) % 3 == 0)
        assert loewner_k_raw(big, identity(n)) == 1.0
        with pytest.raises(AssertionError, match="eigendecomposition"):
            loewner_k_raw(diagonal([1e150, 0.0, 1.0]), diagonal([1e150, 1.0, 1.0]))
