"""Gate suite: the five guarantees this package ships with.

Every frozen number here is re-derived first by an oracle that shares no code
with the package: exact Fraction arithmetic on leaf-diagonal matrices, read
straight from the fixture TSV files, plus bitmask subset enumeration. Only
after the oracle reproduces a value is the package output checked against it
at the stated tolerance. Each criterion prints one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).
"""

from __future__ import annotations

import functools
import tempfile
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

import numpy as np

from conftest import FIXTURES, rand_full_rank_psd, rand_psd, story_lexicons
from convneg import (
    Lexicon,
    NegationConfig,
    Operator,
    WordString,
    alternatives,
    best_interpretation,
    build_lexicon,
    cn_string,
    cn_word,
    conjugate_update,
    contributing_words,
    contribution_string,
    derive_weights,
    enumerate_negation_sets,
    hadamard,
    load_lexicon,
    load_script,
    load_taxonomy,
    loewner_k,
    loewner_k_raw,
    logical_not_complement,
    mix,
    normalize,
    parse_script,
    parse_taxonomy,
    partial_trace,
    pseudoinverse,
    rank_alternatives,
    save_lexicon,
    support_projector,
    tensor,
    validate,
)
from convneg.cli import run as cli_run
from convneg.operators import PINV_TOL
from convneg.strings import Slot

N_CASES = 500
SEED = 20240817

A1_ARGV = ("negate-word", "hamster", "--taxonomy", str(FIXTURES / "fig1.tsv"), "--sigma", "0")
A2_ARGV = (
    "negate-string", "red wine", "--follow-up", "white wine",
    "--taxonomies", f"{FIXTURES / 'colors.tsv'},{FIXTURES / 'drinks.tsv'}",
    "--lambda", "0.75", "--sigma", "0.5",
)
A3_ARGV = (
    "text", "negate-actor", str(FIXTURES / "story.txt"), "Alice",
    "--taxonomies", ",".join(str(FIXTURES / f"{n}.tsv") for n in ("names", "kinds", "roles")),
    "--rank", "--sigma", "0", "--lambda", "0.75",
)


def criterion(label: str, budget: float | None = None):
    """One PASS/FAIL line per criterion; the budget is wall time in seconds."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                if budget is not None and dt >= budget:
                    raise AssertionError(f"runtime {dt:.2f}s over the {budget:.0f}s budget")
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS ({dt:.2f}s)")

        return wrapper

    return deco


def cli(*argv: str) -> str:
    out = StringIO()
    code = cli_run(list(argv), out=out, err=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


# ---------------------------------------------------------------------------
# The oracle. Everything on the toy fixtures is diagonal in the leaf basis,
# so complements, Schur products, traces and sup norms reduce to elementwise
# rational arithmetic on the diagonal.


class DiagOracle:
    def __init__(self, path: Path, decay: Fraction = Fraction(1, 2)) -> None:
        order: list[str] = []
        self.parents: dict[str, list[str]] = {}
        self.children: dict[str, list[str]] = {}
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            child, parent = (part.strip() for part in line.split("\t"))
            for name in (child, parent):
                if name not in self.parents:
                    order.append(name)
                    self.parents[name] = []
                    self.children[name] = []
            self.parents[child].append(parent)
            self.children[parent].append(child)
        self.leaves = [c for c in order if not self.children[c]]
        self.decay = decay

    def __contains__(self, word: str) -> bool:
        return word in self.parents

    def indicator(self, concept: str) -> list[Fraction]:
        seen, stack = {concept}, [concept]
        while stack:
            for child in self.children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return [Fraction(leaf in seen) for leaf in self.leaves]

    def wc(self, word: str) -> list[Fraction]:
        # ancestors at shortest edge distance, weights decay^depth normalized
        depth: dict[str, int] = {}
        frontier, seen, d = [word], {word}, 0
        while frontier:
            d += 1
            nxt = []
            for node in frontier:
                for parent in self.parents[node]:
                    if parent not in seen:
                        seen.add(parent)
                        depth[parent] = d
                        nxt.append(parent)
            frontier = nxt
        if not depth:
            return [Fraction(1)] * len(self.leaves)
        total = sum(self.decay**dd for dd in depth.values())
        out = [Fraction(0)] * len(self.leaves)
        for hyper, dd in depth.items():
            w = self.decay**dd / total
            out = [o + w * x for o, x in zip(out, self.indicator(hyper))]
        return out

    def cn(self, word: str) -> list[Fraction]:
        # complement of the predicate, Schur'd with the context, unit trace
        mixed = [(1 - p) * w for p, w in zip(self.indicator(word), self.wc(word))]
        t = sum(mixed)
        assert t > 0, f"negation of {word} vanished"
        return [x / t for x in mixed]

    def smoothed(self, word: str, sigma: Fraction) -> list[Fraction]:
        sm = [p + sigma * w for p, w in zip(self.indicator(word), self.wc(word))]
        peak = max(sm)
        return [x / peak for x in sm]

    def overlap(self, state: list[Fraction], word: str, sigma: Fraction) -> Fraction:
        t = sum(state)
        return sum(a * b for a, b in zip(state, self.smoothed(word, sigma))) / t


def bitmask_subsets(n: int) -> list[tuple[int, ...]]:
    subs = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2**n)]
    return sorted(subs, key=lambda s: (len(s), s))


def oracle_scores(
    oracles: list[DiagOracle],
    words: list[str],
    targets: list[str],
    lam: Fraction,
    sigma: Fraction,
) -> list[Fraction]:
    """lam^(|S|-1) times the word-by-word overlap, per subset in canonical order."""
    per = []
    for w in words:
        hits = [o for o in oracles if w in o]
        assert len(hits) == 1, w
        per.append(hits[0])
    out = []
    for subset in bitmask_subsets(len(words)):
        score = Fraction(1)
        for i, (w, t) in enumerate(zip(words, targets)):
            state = per[i].cn(w) if i in subset else per[i].indicator(w)
            score *= per[i].overlap(state, t, sigma)
        out.append(lam ** (len(subset) - 1) * score)
    return out


# ---------------------------------------------------------------------------
# A1: negating one word surfaces its taxonomy siblings, nearest first.


@criterion("A1 word negation (hamster alternatives)", budget=1.0)
def test_a1_word_negation():
    oracle = DiagOracle(FIXTURES / "fig1.tsv")
    state = oracle.cn("hamster")
    expected = {
        "guinea_pig": Fraction(7, 11),
        "dog": Fraction(3, 11),
        "planet": Fraction(1, 11),
    }
    for leaf, frozen in expected.items():
        assert oracle.overlap(state, leaf, Fraction(0)) == frozen

    lex = build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"))
    ranked = alternatives("hamster", lex, NegationConfig(sigma=0.0))
    assert [w for w, _ in ranked] == ["guinea_pig", "dog", "planet"]
    for word, score in ranked:
        assert abs(score - float(expected[word])) < 1e-9
    scores = [s for _, s in ranked]
    assert scores[0] > scores[1] > scores[2]

    rows = [line.split() for line in cli(*A1_ARGV).splitlines()[1:]]
    assert rows == [
        ["1", "guinea_pig", "0.636364"],
        ["2", "dog", "0.272727"],
        ["3", "planet", "0.090909"],
    ]


# ---------------------------------------------------------------------------
# A2: a follow-up utterance fixes how much of a two-word string was negated.


@criterion("A2 string negation (red-wine weights)", budget=1.0)
def test_a2_string_negation():
    colors = DiagOracle(FIXTURES / "colors.tsv")
    drinks = DiagOracle(FIXTURES / "drinks.tsv")
    raw = oracle_scores(
        [colors, drinks], ["red", "wine"], ["white", "wine"],
        lam=Fraction(3, 4), sigma=Fraction(1, 2),
    )
    assert raw == [Fraction(2, 3), Fraction(1, 9), Fraction(1, 6)]
    total = sum(raw)
    exact = [r / total for r in raw]
    frozen = (0.705882, 0.117647, 0.176471)
    for e, f in zip(exact, frozen):
        assert abs(float(e) - f) < 1e-6

    lexes = [
        build_lexicon(load_taxonomy(FIXTURES / name), name=name.split(".")[0])
        for name in ("colors.tsv", "drinks.tsv")
    ]
    s = WordString.resolve(["red", "wine"], lexes)
    fu = WordString.resolve(["white", "wine"], lexes)
    weights = derive_weights(s, fu, lambda_size=0.75, cfg=NegationConfig(sigma=0.5))
    for w, f, e in zip(weights, frozen, exact):
        assert abs(w - f) < 1e-6
        assert abs(w - float(e)) < 1e-12
    p_red, p_wine, p_both = weights
    assert p_red > p_both > p_wine
    subset, best = best_interpretation(s, fu, lambda_size=0.75, cfg=NegationConfig(sigma=0.5))
    assert subset == (0,)
    assert abs(best - 2 / 3) < 1e-12

    out = cli(*A2_ARGV).splitlines()
    assert [line.split() for line in out[1:4]] == [
        ["{red}", "0.705882", "0.666667"],
        ["{wine}", "0.117647", "0.111111"],
        ["{red,wine}", "0.176471", "0.166667"],
    ]
    assert out[4] == "best {red} 0.666667"


# ---------------------------------------------------------------------------
# A3: negating an actor in a story ranks the other actors sensibly.


@criterion("A3 actor negation (story ranking)", budget=5.0)
def test_a3_actor_ranking():
    oracles = [DiagOracle(FIXTURES / f"{n}.tsv") for n in ("names", "kinds", "roles")]
    alice = ["alice", "human", "archaeologist"]
    others = {
        "Bob": ["bob", "human", "biologist"],
        "Claire": ["claire", "human", "pianist"],
        "Daisy": ["daisy", "dog", "pet"],
    }
    lam = Fraction(3, 4)
    subsets = bitmask_subsets(3)

    def oracle_best(target, sigma):
        raw = oracle_scores(oracles, alice, target, lam, sigma)
        i = max(range(len(raw)), key=lambda k: (raw[k], -k))
        return subsets[i], raw[i]

    frozen = {"Bob": 0.143182, "Claire": 0.061364, "Daisy": 0.002557}
    best0 = {name: oracle_best(words, Fraction(0)) for name, words in others.items()}
    assert {n: sub for n, (sub, _) in best0.items()} == {
        "Bob": (0, 2), "Claire": (0, 2), "Daisy": (0, 1, 2),
    }
    for name, (_, score) in best0.items():
        assert abs(float(score) - frozen[name]) < 1e-6
    for sigma in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        b, c, d = (oracle_best(others[n], sigma)[1] for n in ("Bob", "Claire", "Daisy"))
        assert b > c > d

    circuit = load_script(FIXTURES / "story.txt", story_lexicons())
    s, labels = contribution_string(circuit, "Alice")
    assert s.words == ("alice", "human", "archaeologist")
    assert labels == ("Alice", "human", "archaeologist")
    for sigma in (0.0, 0.25, 0.5):
        rows = rank_alternatives(circuit, "Alice", NegationConfig(sigma=sigma), 0.75)
        assert [a.name for a, _, _ in rows] == ["Bob", "Claire", "Daisy"]
        if sigma == 0.0:
            assert [sub for _, sub, _ in rows] == [(0, 2), (0, 2), (0, 1, 2)]
            for actor, _, score in rows:
                assert abs(score - frozen[actor.name]) < 1e-6

    rows = [line.split() for line in cli(*A3_ARGV).splitlines()[1:]]
    assert rows == [
        ["1", "Bob", "{Alice,archaeologist}", "0.143182"],
        ["2", "Claire", "{Alice,archaeologist}", "0.061364"],
        ["3", "Daisy", "{Alice,human,archaeologist}", "0.002557"],
    ]


# ---------------------------------------------------------------------------
# A4: randomized property batteries, N_CASES cases each unless exhaustive.


def _battery_psd_closure(rng):
    # every operator-core output lands back in the PSD cone
    for _ in range(N_CASES):
        d = int(rng.integers(2, 6))
        a, b = rand_psd(rng, d), rand_psd(rng, d)
        outputs = [
            mix([(0.3, a), (0.7, b)]),
            tensor(a, b),
            hadamard(a, b),
            conjugate_update(a, b),
            support_projector(a),
            partial_trace(tensor(a, b), (d, d), 0),
        ]
        if a.trace() > 1e-9:
            outputs.append(normalize(a, "trace"))
            outputs.append(pseudoinverse(a))
        for op in outputs:
            assert validate(op).passed


def _battery_schur_psd(rng):
    for _ in range(N_CASES):
        d = int(rng.integers(1, 7))
        prod = hadamard(rand_psd(rng, d), rand_psd(rng, d))
        assert prod.min_eigenvalue() >= -1e-10


def _battery_partial_trace(rng):
    for _ in range(N_CASES):
        d1, d2 = (int(x) for x in rng.integers(2, 5, size=2))
        composite = rand_psd(rng, d1 * d2)
        for keep in (0, 1):
            reduced = partial_trace(composite, (d1, d2), keep)
            assert abs(reduced.trace() - composite.trace()) <= 1e-9
            assert validate(reduced).passed


def _battery_moore_penrose(rng):
    for _ in range(N_CASES):
        while True:  # the 1e-8 bound needs a sane condition number
            d = int(rng.integers(2, 7))
            a = rand_psd(rng, d, rank=int(rng.integers(1, d + 1)))
            nonzero = [float(x) for x in a.eigenvalues() if x > PINV_TOL]
            if nonzero and min(nonzero) >= 1e-6:
                break
        m, p = a.matrix, pseudoinverse(a).matrix
        # 1e-8 relative to the reproduced operand (p blows up as m degenerates)
        assert np.max(np.abs(m @ p @ m - m)) <= 1e-8 * max(1.0, np.max(np.abs(m)))
        assert np.max(np.abs(p @ m @ p - p)) <= 1e-8 * max(1.0, np.max(np.abs(p)))
        assert np.max(np.abs(m @ p - (m @ p).T)) <= 1e-8


def _battery_loewner(rng):
    # k(A, A) = 1; growing the right side never shrinks k
    for _ in range(N_CASES):
        d = int(rng.integers(2, 6))
        a = rand_psd(rng, d)
        if a.trace() <= 1e-9:
            a = rand_full_rank_psd(rng, d)
        assert abs(loewner_k(a, a) - 1.0) <= 1e-9
        b = rand_full_rank_psd(rng, d)
        grown = mix([(1.0, b), (1.0, rand_psd(rng, d))])
        assert loewner_k_raw(a, grown) >= loewner_k_raw(a, b) - 1e-9


def _battery_double_negation(rng):
    # the complement is an involution on projectors
    for _ in range(N_CASES):
        d = int(rng.integers(1, 7))
        r = int(rng.integers(0, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        m = q[:, :r] @ q[:, :r].T if r else np.zeros((d, d))
        proj = Operator((m + m.T) / 2.0)
        again = logical_not_complement(logical_not_complement(proj))
        assert np.max(np.abs(again.matrix - proj.matrix)) <= 1e-12


def _battery_inverse_antitone(rng):
    # A <= B implies inv(B) <= inv(A) on full-rank operators
    for _ in range(N_CASES):
        d = int(rng.integers(2, 6))
        a = rand_full_rank_psd(rng, d)
        b = mix([(1.0, a), (1.0, rand_psd(rng, d))])
        gap = pseudoinverse(a).matrix - pseudoinverse(b).matrix
        assert float(np.linalg.eigvalsh((gap + gap.T) / 2.0)[0]) >= -1e-8


def _battery_subset_enumeration():
    # exhaustive for n <= 10
    for n in range(1, 11):
        subs = enumerate_negation_sets(n)
        assert len(subs) == 2**n - 1
        assert subs == bitmask_subsets(n)


def _random_string(rng, lexes, max_len=3):
    n = int(rng.integers(1, max_len + 1))
    slots = []
    for _ in range(n):
        lex = lexes[int(rng.integers(0, len(lexes)))]
        slots.append(Slot(str(rng.choice(lex.leaves)), lex))
    return WordString(tuple(slots))


def _battery_weight_normalization(rng, lexes):
    for _ in range(N_CASES):
        s = _random_string(rng, lexes)
        k = 2 ** len(s) - 1
        if rng.random() < 0.5:
            raw = rng.random(k)
            if raw.sum() <= 0:
                raw[0] = 1.0
            mixture = cn_string(s, list(raw))
        else:
            target = WordString(
                tuple(Slot(str(rng.choice(slot.lex.leaves)), slot.lex) for slot in s.positions)
            )
            mixture = cn_string(s, derive_weights(s, target, 0.75, NegationConfig(sigma=0.5)))
        assert abs(sum(mixture.weights) - 1.0) <= 1e-12


def _battery_singleton_consistency(rng, lexes):
    # the {i} term negates word i alone and keeps the other originals
    for _ in range(N_CASES):
        s = _random_string(rng, lexes)
        n = len(s)
        i = int(rng.integers(0, n))
        weights = [0.0] * (2**n - 1)
        weights[i] = 1.0  # singletons open the canonical order
        term = cn_string(s, weights).terms[i]
        assert term.subset == (i,)
        assert term.weight == 1.0
        want = cn_word(s.positions[i].word, s.positions[i].lex)
        assert np.max(np.abs(term.states[i].matrix - want.matrix)) <= 1e-12
        for j in range(n):
            if j != i:
                orig = s.positions[j].lex.word_operator(s.positions[j].word)
                assert np.array_equal(term.states[j].matrix, orig.matrix)


def _battery_link_closure(rng):
    # contributing words = union-find closure over binary gates
    lexes = story_lexicons() + (
        build_lexicon(parse_taxonomy("likes\tverb\nmeets\tverb\navoids\tverb\n"), name="verbs"),
    )
    pool = ("Alice", "Bob", "Claire", "Dave", "Daisy")
    kind_words = ("human", "dog", "cat")
    role_words = ("archaeologist", "biologist", "pianist", "pet")
    verbs = ("likes", "meets", "avoids")
    for _ in range(N_CASES):
        k = int(rng.integers(2, 6))
        actors = pool[:k]
        attrs = {}
        lines = []
        for name in actors:
            words = [
                str(rng.choice(kind_words if rng.random() < 0.5 else role_words))
                for _ in range(int(rng.integers(1, 3)))
            ]
            attrs[name] = words
            lines.extend(f"{name} is a {w}." for w in words)
        gates = []
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.4:
                    verb = str(rng.choice(verbs))
                    gates.append(((i, j), verb))
                    lines.append(f"{actors[i]} {verb} {actors[j]}.")
        circuit = parse_script("\n".join(lines), lexes)

        q = int(rng.integers(0, k))
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, j), _ in gates:
            parent[find(i)] = find(j)
        component = {i for i in range(k) if find(i) == find(q)}

        expected = set()
        for i in component:
            expected.add(actors[i].lower())
            expected.update(attrs[actors[i]])
        expected.update(verb for (i, _), verb in gates if i in component)
        got = {w for _, w in contributing_words(circuit, actors[q])}
        assert got == expected


@criterion("A4 property batteries (11 suites)", budget=60.0)
def test_a4_property_batteries():
    rng = np.random.default_rng(SEED)
    string_lexes = tuple(
        build_lexicon(load_taxonomy(FIXTURES / name), name=name.split(".")[0])
        for name in ("fig1.tsv", "colors.tsv", "drinks.tsv")
    )
    _battery_psd_closure(rng)
    _battery_schur_psd(rng)
    _battery_partial_trace(rng)
    _battery_moore_penrose(rng)
    _battery_loewner(rng)
    _battery_double_negation(rng)
    _battery_inverse_antitone(rng)
    _battery_subset_enumeration()
    _battery_weight_normalization(rng, string_lexes)
    _battery_singleton_consistency(rng, string_lexes)
    _battery_link_closure(rng)


# ---------------------------------------------------------------------------
# A5: repeat runs are byte-identical and the store round-trips exactly.


@criterion("A5 determinism and store round-trip")
def test_a5_determinism():
    for argv in (A1_ARGV, A2_ARGV, A3_ARGV):
        assert cli(*argv) == cli(*argv)

    rng = np.random.default_rng(SEED)
    diag = build_lexicon(load_taxonomy(FIXTURES / "fig1.tsv"), name="fig1")
    dense_ops = {c: rand_full_rank_psd(rng, 3) for c in ("x", "y")}
    dense = Lexicon(
        concepts=("x", "y"),
        leaves=("l0", "l1", "l2"),
        word_ops=dense_ops,
        wc_ops={c: rand_full_rank_psd(rng, 3) for c in ("x", "y")},
        decay=0.5,
        taxonomy=None,
        name="dense",
    )
    with tempfile.TemporaryDirectory() as td:
        for lex in (diag, dense):
            path = Path(td) / f"{lex.name}.lex"
            save_lexicon(lex, path)
            back = load_lexicon(path)
            assert back.concepts == lex.concepts
            assert back.leaves == lex.leaves
            assert back.decay == lex.decay
            for c in lex.concepts:
                assert np.array_equal(back.word_ops[c].matrix, lex.word_ops[c].matrix)
                assert np.array_equal(back.wc_ops[c].matrix, lex.wc_ops[c].matrix)
