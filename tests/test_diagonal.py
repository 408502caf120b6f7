"""Diagonal operators against the dense path they stand in for.

Taxonomy-built operators are stored as their diagonals. These tests check
that representation against dense references kept here: the eigenvalue-based
validation, the dense algebra, and the whole word-negation pipeline spelled
out in numpy. They also check that a rotated (dense, non-diagonal) lexicon
answers like the diagonal one, through ``dataclasses.replace`` and through a
store round trip. The indicator builder and the store's operator writer and
reader are checked against the per-leaf and per-entry versions they replaced,
kept here, down to error messages and line numbers on corrupted blocks, also
in stores that repeat blocks.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convneg.lexicon
from convneg.errors import InvalidOperator, NotSubnormalized, ParseError, ZeroNegation
from convneg.lexicon import Lexicon, build_lexicon, load_lexicon, save_lexicon
from convneg.negation import NegationConfig, alternatives, cn_word
from convneg.entailment import overlap_score
from convneg.operators import (
    COMPLEMENT_TOL,
    EQ_TOL,
    PINV_TOL,
    PSD_TOL,
    ZERO_TRACE_TOL,
    LineReader,
    Operator,
    complement,
    diagonal,
    hadamard,
    mix,
    normalize,
    operator_from_lines,
    operator_to_lines,
    psd_floor,
    trace_product,
    validate,
)
from convneg.taxonomy import load_taxonomy, parse_taxonomy

from conftest import FIXTURES

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


# ---------------------------------------------------------------------------
# references for the lexicon builder and the store's operator blocks


def reference_indicator(tax, word, leaves):
    """The per-leaf indicator: filter every leaf by descendant membership."""
    member = set(tax.descendant_leaves(word))
    return diagonal([1.0 if leaf in member else 0.0 for leaf in leaves], leaves)


def reference_to_lines(a):
    """Writer that formats every entry of the dense matrix."""
    lines = [f"OPERATOR {a.dim}"]
    lines.append("LABELS " + (",".join(a.labels) if a.labels else "-"))
    lines.extend(" ".join(map(repr, row)) for row in a.matrix.tolist())
    return lines


def reference_from_lines(reader):
    """Reader that splits and parses every row into a dense matrix."""
    header = reader.require("operator block")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "OPERATOR":
        raise ParseError(f"expected 'OPERATOR <dim>', got {header!r}", reader.lineno)
    try:
        dim = int(parts[1])
    except ValueError:
        raise ParseError(f"bad operator dimension {parts[1]!r}", reader.lineno) from None
    if dim < 1:
        raise ParseError(f"operator dimension must be positive, got {dim}", reader.lineno)
    label_line = reader.require("operator block")
    if not label_line.startswith("LABELS "):
        raise ParseError(f"expected 'LABELS ...', got {label_line!r}", reader.lineno)
    raw = label_line[len("LABELS ") :].strip()
    labels = () if raw == "-" else tuple(raw.split(","))
    rows = []
    for _ in range(dim):
        row_line = reader.require("operator block")
        fields = row_line.split()
        if len(fields) != dim:
            raise ParseError(f"expected {dim} entries, got {len(fields)}", reader.lineno)
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise ParseError(f"bad matrix entry in {row_line!r}", reader.lineno) from None
    try:
        return Operator(np.array(rows), labels)
    except InvalidOperator as exc:
        raise ParseError(f"invalid operator ending at this line: {exc}", reader.lineno) from exc


def kept(op):
    """An operator's labels, representation and exact entries."""
    entries = op._diag if op._diag is not None else op._matrix
    return (op.labels, op._diag is None, entries.shape, entries.tobytes())


def read_outcome(read, lines):
    """What a block reader makes of ``lines``: the error it raises, or the
    operator (``kept``) and how many lines it consumed."""
    reader = LineReader(lines)
    try:
        op = read(reader)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", reader.lineno, *kept(op))


@st.composite
def stored_operators(draw, n=None):
    """Operators a store can hold: diagonal, diagonal with entries in the
    clamp window, dense PSD, dense PSD blocks on the diagonal (exact zeros,
    and -0.0 where a masked entry was negative), and rotated indicators; dim
    ``n`` or 1-6, with or without labels."""
    n = n or draw(st.integers(1, 6))
    labels = tuple(f"x{i}" for i in range(n)) if draw(st.booleans()) else ()
    kind = draw(st.sampled_from(["diagonal", "clamped", "dense", "blocks", "rotated"]))
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
    row)."""
    n = draw(st.integers(1, 6))
    distinct = draw(st.lists(stored_operators(n), min_size=1, max_size=3))
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
    "respelled-entry",
    "sign-flipped-zero",
]


def corrupt(lines, kind, r, c, late_fallback=False):
    """``lines`` (one operator block) with one corruption in row ``r``;
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
    elif kind == "respelled-entry":
        # an entry below the diagonal where there is one: equal to its
        # mirror in value, not in text
        j = c % r if r else off
        rows[r][j] = respelled(rows[r][j])
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
        lines = operator_to_lines(op)
        assert lines == reference_to_lines(op)
        n = op.dim
        # a following block's first line: neither reader may consume it
        block = corrupt(lines, kind, r % n, c, late_fallback) + ["WC next"]
        got = read_outcome(operator_from_lines, block)
        assert got == read_outcome(reference_from_lines, block)
        if kind == "none" and not late_fallback:
            # the block reads back as the operator written
            assert got[2:4] == (op.labels, op._diag is None)
            if op._diag is not None:
                assert got[5] == op._diag.tobytes()

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

    def test_repeated_blocks_load_as_one_operator(self, tmp_path):
        # sibling leaves share their hypernyms, hence their context block
        save_lexicon(build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv")), tmp_path / "fig1.lex")
        loaded = load_lexicon(tmp_path / "fig1.lex")
        assert loaded.wc_ops["hamster"] is loaded.wc_ops["guinea_pig"]
        assert loaded.wc_ops["rodent"] is not loaded.wc_ops["hamster"]


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
