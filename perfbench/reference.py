"""Independent references for the output checks.

``ExactTaxonomy`` recomputes word negation and entailment over a generated
taxonomy in exact ``Fraction`` arithmetic. Every taxonomy-built operator is
diagonal in the leaf basis, so each one is a vector here: indicators over
descendant leaves, worldly contexts as decay-weighted hypernym mixtures. It
reads only the generator's edge list, never the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from gen import Tax

SCORE_TOL = 1e-9


class ExactTaxonomy:
    def __init__(self, tax: Tax, decay: float):
        self.leaves = tax.leaves
        self.decay = Fraction(decay)
        self.parents = tax.parents
        children: dict[str, list[str]] = {}
        for child, parent in tax.edges:
            children.setdefault(parent, []).append(child)
        self.members: dict[str, frozenset[str]] = {}
        for concept in tax.concepts:
            seen, stack = {concept}, [concept]
            while stack:
                for c in children.get(stack.pop(), ()):
                    if c not in seen:
                        seen.add(c)
                        stack.append(c)
            self.members[concept] = frozenset(seen)
        self._wc: dict[tuple[str, Fraction], list[Fraction]] = {}
        self._pred: dict[tuple[str, Fraction], list[Fraction]] = {}

    def indicator(self, concept: str) -> list[Fraction]:
        m = self.members[concept]
        return [Fraction(1) if leaf in m else Fraction(0) for leaf in self.leaves]

    def hypernym_depths(self, concept: str) -> dict[str, int]:
        depth: dict[str, int] = {}
        frontier, d = [concept], 0
        while frontier:
            d += 1
            nxt = []
            for node in frontier:
                for parent in self.parents.get(node, ()):
                    if parent != concept and parent not in depth:
                        depth[parent] = d
                        nxt.append(parent)
            frontier = nxt
        return depth

    def worldly_context(self, concept: str, decay: Fraction) -> list[Fraction]:
        key = (concept, decay)
        if key not in self._wc:
            hyps = self.hypernym_depths(concept)
            if not hyps:
                self._wc[key] = [Fraction(1)] * len(self.leaves)
            else:
                raw = {h: decay**d for h, d in hyps.items()}
                total = sum(raw.values())
                vec = [Fraction(0)] * len(self.leaves)
                for h, r in raw.items():
                    for i, x in enumerate(self.indicator(h)):
                        vec[i] += r / total * x
                self._wc[key] = vec
        return self._wc[key]

    def predicate(self, concept: str, sigma: Fraction) -> list[Fraction]:
        """Smoothed predicate; smoothing uses the stored (lexicon) decay."""
        key = (concept, sigma)
        if key not in self._pred:
            p = self.indicator(concept)
            if sigma:
                wc = self.worldly_context(concept, self.decay)
                m = [a + sigma * b for a, b in zip(p, wc)]
                top = max(m)
                p = [x / top for x in m]
            self._pred[key] = p
        return self._pred[key]

    def overlap(self, state: list[Fraction], concept: str, sigma: Fraction) -> Fraction:
        total = sum(state)
        score = sum(s * q for s, q in zip(state, self.predicate(concept, sigma))) / total
        return min(max(score, Fraction(0)), Fraction(1))

    def cn_word(self, word: str, logical: str, decay: float | None) -> list[Fraction]:
        """Trace-normalized negation. For a 0/1 indicator the sup-normalized
        pseudoinverse is the indicator itself, and the conjugate update by a
        diagonal context equals the Hadamard product."""
        p = self.indicator(word)
        neg = [1 - x for x in p] if logical == "complement" else p
        wc = self.worldly_context(word, self.decay if decay is None else Fraction(decay))
        state = [a * b for a, b in zip(neg, wc)]
        total = sum(state)
        return [x / total for x in state]

    def alternatives(self, word: str, logical: str, decay: float | None, sigma: float):
        state = self.cn_word(word, logical, decay)
        sig = Fraction(sigma)
        scored = [
            (self.overlap(state, leaf, sig), i, leaf)
            for i, leaf in enumerate(self.leaves)
            if leaf != word
        ]
        scored.sort(key=lambda t: (-t[0], t[1]))
        return [(leaf, score) for score, _, leaf in scored]

    def loewner(self, a: str, b: str) -> Fraction:
        return Fraction(1) if self.members[a] & set(self.leaves) <= self.members[b] else Fraction(0)

    def overlap_words(self, a: str, b: str, sigma: float) -> Fraction:
        return self.overlap(self.indicator(a), b, Fraction(sigma))


def canonical_subsets(n: int) -> list[tuple[int, ...]]:
    """Non-empty position subsets, smallest first, lexicographic within a size."""
    return [s for size in range(1, n + 1) for s in combinations(range(n), size)]


def ranking_problems(got, want, tol: float = SCORE_TOL) -> list[str]:
    """Differences between two (name, score) rankings beyond ``tol``.

    Positions may swap only between names whose reference scores tie within
    ``tol``; every score must match its reference."""
    want_score = {name: float(score) for name, score in want}
    if len(got) != len(want) or sorted(n for n, _ in got) != sorted(want_score):
        return [f"ranked names differ ({len(got)} vs {len(want)} entries)"]
    problems = []
    for (name, score), (want_name, _) in zip(got, want):
        if abs(score - want_score[name]) > tol:
            problems.append(f"{name}: score {score!r} vs reference {want_score[name]!r}")
        elif name != want_name and abs(want_score[name] - want_score[want_name]) > tol:
            problems.append(f"{name} ranked where {want_name} belongs")
    return problems
