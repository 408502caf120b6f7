import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convneg.errors import (
    ConvnegError,
    DimMismatch,
    EmptyMixture,
    InvalidIndex,
    InvalidOperator,
    NotSubnormalized,
    ParseError,
    ZeroOperator,
)
from convneg.lexicon import operator_from_lines, operator_to_lines, row_frames
from convneg.operators import (
    COMPLEMENT_TOL,
    SYMMETRY_TOL,
    Operator,
    _spectral,
    complement,
    conjugate_update,
    diagonal,
    hadamard,
    identity,
    mix,
    normalize,
    partial_trace,
    psd_floor,
    pseudoinverse,
    support_projector,
    tensor,
    trace_product,
    validate,
)

from conftest import psd_operators, rand_psd, rand_full_rank_psd, random_orthogonal


@st.composite
def tiny_operators(draw):
    """Diagonal and dense PSD operators of dim 1-5 scaled by 1e-13 to 1, so
    their traces fall on both sides of ZERO_TRACE_TOL; a dense one is
    Q·diag(lam)·Qᵀ for a seeded random orthogonal Q."""
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-13, 2e-13, 5e-13, 1e-12, 3e-12, 1e-11, 1e-6, 1.0]))
    lam = scale * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        return diagonal(lam)
    q = random_orthogonal(draw(st.integers(0, 2**16)), n)
    m = q @ np.diag(lam) @ q.T
    return Operator((m + m.T) / 2.0)


def brute_partial_trace(m: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    """Index-loop oracle for the partial trace, independent of einsum."""
    d_keep = dims[keep]
    out = np.zeros((d_keep, d_keep))
    traced = [range(d) for i, d in enumerate(dims) if i != keep]

    def flat(idx):
        f = 0
        for d, i in zip(dims, idx):
            f = f * d + i
        return f

    import itertools

    for rest in itertools.product(*traced):
        for a in range(d_keep):
            for b in range(d_keep):
                r = list(rest)
                r.insert(keep, a)
                c = list(rest)
                c.insert(keep, b)
                out[a, b] += m[flat(r), flat(c)]
    return out


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidOperator):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidOperator):
            Operator(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_non_square(self):
        for m in (np.ones((2, 3)), np.ones(2), np.ones((0, 0))):
            with pytest.raises(InvalidOperator, match="nonempty square matrix"):
                Operator(m)

    def test_clamps_tiny_negative_eigenvalue(self):
        m = np.diag([1.0, -5e-11])
        op = Operator(m)
        assert op.min_eigenvalue() >= 0.0

    def test_dense_window_keeps_entries(self, monkeypatch):
        # eigenvalues in [psd_floor, 0) are rounding: a dense matrix is kept
        # as (m + m.T) / 2, bit for bit, without an eigendecomposition
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        m = q @ np.diag([1.0, 0.5, -5e-11, 0.0]) @ q.T
        monkeypatch.setattr(np.linalg, "eigh", None)
        op = Operator(m)
        assert op.matrix.tobytes() == ((m + m.T) / 2.0).tobytes()
        assert psd_floor(1.0) <= op.min_eigenvalue() < 0.0

    def test_psd_tolerance_is_absolute_up_to_unit_scale(self):
        with pytest.raises(InvalidOperator, match="not PSD"):
            Operator(np.diag([1.0, -5e-10]))
        with pytest.raises(InvalidOperator, match="not PSD"):
            Operator(np.diag([1e-3, -5e-10]))

    def test_psd_tolerance_scales_with_largest_eigenvalue(self):
        assert Operator(np.diag([1e8, -5e-3])).min_eigenvalue() >= 0.0
        with pytest.raises(InvalidOperator, match="not PSD"):
            Operator(np.diag([1e8, -5e-2]))

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidOperator):
            Operator(np.eye(2), ("a",))
        with pytest.raises(InvalidOperator):
            Operator(np.eye(2), ("a", "a"))

    def test_matrix_is_read_only(self):
        op = identity(2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0


class TestKeptTrace:
    """An immutable Operator keeps its trace once computed; a pickle or copy
    carries none and computes the same float again."""

    @pytest.mark.parametrize(
        "entries, infinite",
        [
            (np.array([0.25, 0.5, 0.125]), False),
            (np.array([[1.0, 0.5], [0.5, 1.0]]), False),
            # traces past the float range: inf, unwarned
            (np.array([1e308, 1e308]), True),
            (np.diag([8e307] * 3) + np.diag([1e307, 1e307], 1) + np.diag([1e307, 1e307], -1), True),
        ],
        ids=["diagonal", "dense", "diagonal-inf", "dense-inf"],
    )
    def test_copies_recompute_the_kept_trace(self, entries, infinite):
        op = diagonal(entries) if entries.ndim == 1 else Operator(entries)
        blank = pickle.dumps(op)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = op.trace()
            assert math.isinf(t) == infinite
            assert op._trace is t and op.trace() is t
            assert pickle.dumps(op) == blank
            twins = [pickle.loads(pickle.dumps(op, protocol)) for protocol in (0, 5)]
            for twin in twins + [copy.copy(op), copy.deepcopy(op)]:
                assert twin._trace is None and "_trace" not in vars(twin)
                assert float.hex(twin.trace()) == float.hex(t)
                assert twin._trace is not None


class TestMix:
    def test_maximally_mixed(self):
        out = mix([(0.5, diagonal([1, 0])), (0.5, diagonal([0, 1]))])
        assert np.array_equal(out.matrix, diagonal([0.5, 0.5]).matrix)

    def test_identity_case(self):
        a = diagonal([0.3, 0.7])
        assert np.array_equal(mix([(1.0, a)]).matrix, a.matrix)

    def test_nested_indicator_sum(self):
        # hand-sum of 4/7, 2/7, 1/7 over nested diagonal indicators
        out = mix(
            [
                (4 / 7, diagonal([1, 1, 0, 0])),
                (2 / 7, diagonal([1, 1, 1, 0])),
                (1 / 7, diagonal([1, 1, 1, 1])),
            ]
        )
        expected = np.diag([1.0, 1.0, 3 / 7, 1 / 7])
        np.testing.assert_allclose(out.matrix, expected, atol=1e-15)

    def test_errors(self):
        with pytest.raises(EmptyMixture):
            mix([])
        with pytest.raises(EmptyMixture):
            mix([(0.0, identity(2))])
        with pytest.raises(DimMismatch):
            mix([(1.0, identity(2)), (1.0, identity(3))])
        with pytest.raises(ValueError):
            mix([(-1.0, identity(2))])


class TestTensor:
    def test_pure_times_pure(self):
        out = tensor(diagonal([1, 0]), diagonal([0, 1]))
        assert np.array_equal(out.matrix, diagonal([0, 1, 0, 0]).matrix)

    def test_identity_case(self):
        assert np.array_equal(tensor(identity(2), identity(2)).matrix, identity(4).matrix)

    def test_trace_multiplicative(self, rng):
        for _ in range(100):
            a = rand_psd(rng, int(rng.integers(1, 5)))
            b = rand_psd(rng, int(rng.integers(1, 5)))
            assert tensor(a, b).trace() == pytest.approx(a.trace() * b.trace(), abs=1e-9)

    def test_labels_combine(self):
        a = diagonal([1, 0], ("x", "y"))
        b = diagonal([1, 1], ("u", "v"))
        assert tensor(a, b).labels == ("x⊗u", "x⊗v", "y⊗u", "y⊗v")
        assert tensor(a, identity(2)).labels == ()


class TestPartialTrace:
    def test_product_state_separates(self, rng):
        a = rand_psd(rng, 3)
        b = rand_psd(rng, 2)
        reduced = partial_trace(tensor(a, b), (3, 2), keep=0)
        np.testing.assert_allclose(reduced.matrix, a.matrix * b.trace(), atol=1e-9)

    def test_identity_case(self):
        out = partial_trace(identity(4), (2, 2), keep=1)
        np.testing.assert_allclose(out.matrix, 2 * np.eye(2), atol=1e-12)

    def test_trace_preserved_on_random_inputs(self, rng):
        for _ in range(100):
            a = rand_psd(rng, 4)
            reduced = partial_trace(a, (2, 2), keep=int(rng.integers(0, 2)))
            assert reduced.trace() == pytest.approx(a.trace(), abs=1e-9)

    def test_against_brute_force_oracle(self, rng):
        for dims in [(2, 3), (3, 2), (2, 2, 2)]:
            a = rand_psd(rng, int(np.prod(dims)))
            for keep in range(len(dims)):
                expected = brute_partial_trace(a.matrix, dims, keep)
                got = partial_trace(a, dims, keep)
                np.testing.assert_allclose(got.matrix, expected, atol=1e-10)

    def test_errors(self):
        with pytest.raises(DimMismatch):
            partial_trace(identity(4), (2, 3), keep=0)
        with pytest.raises(InvalidIndex):
            partial_trace(identity(4), (2, 2), keep=2)

    @pytest.mark.parametrize("dims", [(-2, -2), (4, 1, 0), ()])
    def test_rejects_non_positive_dims(self, dims):
        # (-2, -2) factors dimension 4 by product alone
        with pytest.raises(InvalidOperator, match="factor dims must be positive"):
            partial_trace(identity(4), dims, keep=0)


class TestHadamard:
    def test_entrywise_oracle(self):
        out = hadamard(diagonal([0, 1, 1, 1]), diagonal([1, 1, 3 / 7, 1 / 7]))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0, 3 / 7, 1 / 7]), atol=0)

    def test_with_identity_zeroes_off_diagonal(self, rng):
        a = rand_psd(rng, 4)
        out = hadamard(a, identity(4))
        np.testing.assert_allclose(out.matrix, np.diag(np.diag(a.matrix)), atol=1e-12)

    def test_psd_closure_sweep(self, rng):
        # Schur product theorem, checked by eigenvalue oracle on 1000 pairs
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            a = rand_psd(rng, d)
            b = rand_psd(rng, d)
            prod = a.matrix * b.matrix
            assert np.linalg.eigvalsh(prod)[0] >= -1e-10
            hadamard(a, b)  # construction re-checks the invariants

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            hadamard(identity(2), identity(3))
        with pytest.raises(DimMismatch, match="trace product of dims 2 and 3"):
            trace_product(identity(2), identity(3))


class TestConjugateUpdate:
    def test_identity_effect(self, rng):
        rho = normalize(rand_psd(rng, 3), "trace")
        out = conjugate_update(rho, identity(3))
        np.testing.assert_allclose(out.matrix, rho.matrix, rtol=0, atol=1e-12)

    def test_projector_effect_selects_support(self):
        out = conjugate_update(diagonal([0.5, 0.5]), diagonal([1, 0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.0]), atol=1e-12)

    def test_psd_and_trace_monotone_sweep(self, rng):
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            state = rand_psd(rng, d)
            effect = rand_psd(rng, d)
            if effect.is_zero():
                continue
            effect = normalize(effect, "sup")
            out = conjugate_update(state, effect)
            assert out.min_eigenvalue() >= -1e-10
            assert out.trace() <= state.trace() + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            conjugate_update(identity(2), identity(3))


class TestNormalize:
    def test_trace_mode(self):
        out = normalize(diagonal([2, 2]), "trace")
        assert np.array_equal(out.matrix, diagonal([0.5, 0.5]).matrix)

    def test_sup_mode(self):
        out = normalize(diagonal([2, 1]), "sup")
        assert np.array_equal(out.matrix, diagonal([1, 0.5]).matrix)

    def test_trace_mode_derived(self):
        out = normalize(diagonal([0, 1, 3 / 7, 1 / 7]), "trace")
        np.testing.assert_allclose(
            out.matrix, np.diag([0.0, 7 / 11, 3 / 11, 1 / 11]), atol=1e-15
        )

    def test_zero_operator(self):
        with pytest.raises(ZeroOperator):
            normalize(diagonal([0.0, 0.0]), "trace")
        with pytest.raises(ZeroOperator):
            normalize(diagonal([0.0, 0.0]), "sup")
        with pytest.raises(ValueError):
            normalize(identity(2), "L2")

    @settings(max_examples=300, deadline=None)
    @given(op=tiny_operators(), mode=st.sampled_from(["trace", "sup"]))
    # trace 2e-12 is not zero, though its top eigenvalue is at ZERO_TRACE_TOL
    @example(op=diagonal([1e-12, 1e-12, 0.0]), mode="sup")
    def test_refuses_exactly_the_zero_operators(self, op, mode):
        if op.is_zero():
            with pytest.raises(ZeroOperator, match=f"^cannot {mode}-normalize the zero operator$"):
                normalize(op, mode)
        else:
            out = normalize(op, mode)
            unit = out.trace() if mode == "trace" else out.max_eigenvalue()
            assert unit == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    def test_overflowing_trace_is_refused_unwarned(self, dense):
        # finite entries whose sum passes the largest float: the trace reads
        # inf, which is not zero, sup-normalizes, and cannot be scaled to 1
        op = Operator(np.diag([8e307] * 3)) if dense else diagonal([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op.trace() == math.inf
            assert not op.is_zero()
            with pytest.raises(
                InvalidOperator, match="^cannot trace-normalize: its trace overflows to inf$"
            ):
                normalize(op, "trace")
            assert normalize(op, "sup").max_eigenvalue() == 1.0

    def test_tiny_dense_operator_is_refused_by_its_own_spectrum(self):
        # eigenvalues -5e-11 and 1e-10 lie within the absolute PSD floor, but
        # scaled to unit trace they are -1 and 2, and to unit top eigenvalue
        # -0.5 and 1: the refusal names the operator's own figures
        op = Operator([[2.5e-11, 7.5e-11], [7.5e-11, 2.5e-11]])
        for mode in ("trace", "sup"):
            with pytest.raises(InvalidOperator) as exc:
                normalize(op, mode)
            assert str(exc.value) == (
                f"cannot {mode}-normalize: min eigenvalue -5.000e-11 at trace 5.000e-11 "
                "falls below the PSD floor once scaled"
            )
        # a valid operator of that scale keeps its exact scaled entries
        op = Operator([[7.5e-11, 2.5e-11], [2.5e-11, 7.5e-11]])
        assert np.array_equal(normalize(op, "trace").matrix, op.matrix / op.trace())
        assert np.array_equal(normalize(op, "sup").matrix, op.matrix / op.max_eigenvalue())


class TestPseudoinverse:
    def test_diagonal_reciprocal_on_support(self):
        out = pseudoinverse(diagonal([2, 0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.0]), atol=1e-12)

    def test_identity_case(self):
        out = pseudoinverse(identity(3))
        np.testing.assert_allclose(out.matrix, identity(3).matrix, rtol=0, atol=1e-12)

    def test_moore_penrose_on_rank_deficient(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a = rand_psd(rng, d, rank=int(rng.integers(1, d)))
            p = pseudoinverse(a)
            am, pm = a.matrix, p.matrix
            np.testing.assert_allclose(am @ pm @ am, am, atol=1e-8)
            np.testing.assert_allclose(pm @ am @ pm, pm, atol=1e-8)
            np.testing.assert_allclose((am @ pm).T, am @ pm, atol=1e-8)
            np.testing.assert_allclose((pm @ am).T, pm @ am, atol=1e-8)

    def test_zero_operator(self):
        with pytest.raises(ZeroOperator):
            pseudoinverse(diagonal([0.0, 0.0]))

    def test_ill_conditioned_input(self):
        # eigenvalues 0, 0, 3.7e-9, 3.25: the inverse has norm 2.7e8 and its
        # rounding shows as an eigenvalue near -2e-8
        a = Operator(np.array([
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 2.25, 0.0, 1.5],
            [0.0, 0.0, 3.7252903e-09, 0.0],
            [0.0, 1.5, 0.0, 1.0],
        ]))
        p = pseudoinverse(a)
        assert validate(p).passed
        assert p.max_eigenvalue() == pytest.approx(1 / 3.7252903e-09, rel=1e-9)
        am, pm = a.matrix, p.matrix
        np.testing.assert_allclose(am @ pm @ am, am, atol=1e-6)


class TestSupportProjector:
    def test_projects_onto_range(self):
        p = support_projector(diagonal([2.0, 0.0, 1.0]))
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


class TestInverseAntitonicity:
    def test_full_rank_pairs(self, rng):
        # A <= B implies inv(B) <= inv(A) for full-rank PSD pairs
        for _ in range(200):
            d = int(rng.integers(1, 6))
            a = rand_full_rank_psd(rng, d)
            b = Operator(a.matrix + rand_psd(rng, d).matrix)
            diff = pseudoinverse(a).matrix - pseudoinverse(b).matrix
            assert np.linalg.eigvalsh((diff + diff.T) / 2)[0] >= -1e-8


class TestValidate:
    def test_passes_on_identity(self):
        assert validate(diagonal([1, 1])).passed

    def test_fails_on_indefinite_matrix(self):
        diag = validate(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not diag.passed
        assert diag.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_psd_tolerance_scales_with_largest_eigenvalue(self):
        assert validate(np.diag([1e8, -5e-3])).passed
        assert not validate(np.diag([1e8, -5e-2])).passed
        assert not validate(np.diag([1.0, -5e-10])).passed

    def test_non_square_fails_without_raising(self):
        for m in (np.ones((2, 3)), np.ones(2), np.ones((0, 0))):
            report = validate(m)
            assert not report.passed
            assert (report.dim, report.labels_ok) == (0, False)

    def test_reports_symmetry_defect(self):
        diag = validate(np.array([[1.0, 0.1], [0.0, 1.0]]))
        assert diag.symmetry_defect == pytest.approx(0.1)
        assert not diag.passed

    def test_overflowing_symmetrization(self):
        # every entry is finite, but (m + m.T) / 2 overflows: Operator names
        # the entry magnitude and validate reports a failure; neither warns
        m = np.array([[1e308, 1e308], [1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidOperator, match=r"^entry magnitude 1\.000e\+308 overflows"):
                Operator(m)
            report = validate(m)
        assert not report.passed
        assert report.symmetry_defect == 0.0
        assert math.isnan(report.min_eigenvalue) and math.isnan(report.max_eigenvalue)


def old_complement(p: Operator) -> Operator:
    """``complement`` as it was before it checked I - P by ``validate``: its
    own eigenvalue test against ``psd_floor``."""
    top = p.max_eigenvalue()
    if top > 1.0 + COMPLEMENT_TOL:
        raise NotSubnormalized(f"complement needs max eigenvalue <= 1, got {top!r}")
    if p._diag is not None:
        return diagonal(np.maximum(1.0 - p._diag, 0.0), p.labels)
    m = np.eye(p.dim) - p.matrix
    lam = np.linalg.eigvalsh(m)
    if lam[0] < psd_floor(float(lam[-1])):
        m = _spectral(m, lambda lam: np.clip(lam, 0.0, None))
    return Operator(m, p.labels)


def outcome(f, *args) -> tuple:
    """The result's entries and labels, or the error's type and message."""
    try:
        out = f(*args)
    except ConvnegError as exc:
        return type(exc), str(exc)
    return out.matrix.tobytes(), out.labels


@st.composite
def near_floor_matrices(draw, max_dim: int = 5):
    """Q·diag(lam)·Qᵀ for a random rotation Q, symmetrized, whose smallest
    eigenvalue sits on either side of ``psd_floor`` of the largest, at 0 or
    far below it, plus an asymmetry in one entry pair below, at or above
    SYMMETRY_TOL."""
    dim = draw(st.integers(2, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    top = draw(st.sampled_from([1.0, 1e-3, 40.0, 1e6]))
    floor = psd_floor(top)
    low = draw(st.sampled_from([0.0, 0.5, floor * 0.99, floor * 1.01, floor * 2, -0.3 * top]))
    lam = np.concatenate([[low], rng.uniform(0, top, dim - 2), [top]])
    m = q @ np.diag(lam) @ q.T
    m = (m + m.T) / 2.0
    skew = draw(st.sampled_from([0.0, 0.4, 1.0, 3.0, 1e6])) * SYMMETRY_TOL
    m[0, 1] += skew
    return m


class TestOnePsdRule:
    """``validate`` is the dense check: ``Operator`` raises exactly when its
    report fails, naming symmetry first, and dense ``complement`` projects
    I - P exactly when the report on it fails."""

    @settings(max_examples=400, deadline=None)
    @given(m=near_floor_matrices())
    def test_operator_raises_iff_validate_fails(self, m):
        report = validate(m)
        kind, message = outcome(Operator, m)
        assert (kind is InvalidOperator) == (not report.passed)
        if report.symmetry_defect > SYMMETRY_TOL:
            assert message == f"matrix is not symmetric (defect {report.symmetry_defect:.3e})"
        elif not report.passed:
            assert message == f"matrix is not PSD (min eigenvalue {report.min_eigenvalue:.3e})"

    @settings(max_examples=300, deadline=None)
    @given(m=near_floor_matrices(), over=st.sampled_from([0.0, 2e-11, 1e-10, 5e-10, 2e-9]))
    def test_dense_complement_as_before(self, m, over):
        # a predicate whose top eigenvalue lies up to COMPLEMENT_TOL above 1
        # (or past it), so I - P lands near, above and below the floor
        square = m @ m.T
        p = Operator((square + square.T) / 2.0)
        p = Operator(p.matrix / p.max_eigenvalue() * (1.0 + over), tuple("abcde"[: p.dim]))
        assert outcome(complement, p) == outcome(old_complement, p)


def operator_to_text(a: Operator) -> str:
    return "\n".join(operator_to_lines(a, row_frames(a.dim))) + "\n"


def operator_from_text(text: str, leaves: tuple[str, ...]) -> Operator:
    """The block ``text`` read as the first block of a store over ``leaves``."""
    return operator_from_lines(text.splitlines(), 0, "c", leaves, {}, [{} for _ in leaves])


class TestTextFormat:
    def test_round_trip_exact(self, rng):
        a = rand_psd(rng, 4)
        b = operator_from_text(operator_to_text(a), tuple("abcd"))
        assert np.array_equal(a.matrix, b.matrix)
        assert a.labels == b.labels

    def test_round_trip_with_labels(self):
        a = diagonal([1, 0.5], ("x", "y"))
        b = operator_from_text(operator_to_text(a), ("x", "y"))
        assert b.labels == ("x", "y")
        assert np.array_equal(a.matrix, b.matrix)

    def test_truncated_block(self):
        text = "OPERATOR 3\nLABELS -\n1 0 0\n"
        with pytest.raises(ParseError, match="unexpected end of operator block"):
            operator_from_text(text, tuple("abc"))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="expected 'OPERATOR <dim>'"):
            operator_from_text("MATRIX 2\nLABELS -\n1 0\n0 1\n", tuple("ab"))

    def test_invalid_entries_rejected(self):
        text = "OPERATOR 2\nLABELS -\n1 2\n2 1\n"
        with pytest.raises(ParseError, match="not PSD"):
            operator_from_text(text, tuple("ab"))


@settings(max_examples=150, deadline=None)
@given(a=psd_operators(), b=psd_operators())
def test_property_outputs_stay_valid(a, b):
    """Every operation's output passes the invariant check."""
    outputs = [tensor(a, b)]
    if a.dim == b.dim:
        outputs.append(mix([(0.5, a), (1.5, b)]))
        outputs.append(hadamard(a, b))
        outputs.append(conjugate_update(a, normalize(b, "sup")))
    if not a.is_zero():
        outputs.append(normalize(a, "trace"))
        outputs.append(normalize(a, "sup"))
        outputs.append(pseudoinverse(a))
    for op in outputs:
        assert validate(op).passed


@settings(max_examples=100, deadline=None)
@given(a=psd_operators(min_dim=4, max_dim=4))
def test_property_partial_trace_preserves_trace(a):
    for keep in (0, 1):
        assert partial_trace(a, (2, 2), keep).trace() == pytest.approx(
            a.trace(), abs=1e-9
        )
