"""Lexicons: word operators and worldly contexts over a taxonomy's leaf space.

The builder produces diagonal predicates in the leaf basis: a word's operator
is the indicator over its descendant leaves (sup-normalized by construction),
and its worldly context is the weighted mixture of hypernym indicators with
geometrically decaying weights, closest hypernym first. Both are made from
their diagonals (``operators.diagonal``, ``operators.mix``), so validating
and combining them over n leaves costs O(n) per operator rather than an n×n
eigendecomposition. Externally trained (non-diagonal) operators can be
injected through the store format, or by replacing ``word_ops``/``wc_ops``;
they are kept dense and every function here works on them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConvnegError, AmbiguousWord, ParseError, UnknownWord, _read_text
from .operators import (
    LineReader,
    Operator,
    _entries,
    diagonal,
    hadamard,
    identity,
    mix,
    operator_from_lines,
    operator_to_lines,
)
from .taxonomy import Taxonomy

DEFAULT_DECAY = 0.5


@dataclass(frozen=True)
class Lexicon:
    """Immutable map from concepts to operators on a shared leaf space."""

    concepts: tuple[str, ...]
    leaves: tuple[str, ...]
    word_ops: dict[str, Operator] = field(repr=False)
    wc_ops: dict[str, Operator] = field(repr=False)
    decay: float
    taxonomy: Taxonomy | None = field(default=None, repr=False)
    name: str = ""

    @property
    def dim(self) -> int:
        return len(self.leaves)

    def __contains__(self, word: str) -> bool:
        return word in self.word_ops

    def require(self, word: str) -> None:
        if word not in self.word_ops:
            where = f" in lexicon {self.name!r}" if self.name else ""
            raise UnknownWord(f"unknown word {word!r}{where}")

    def word_operator(self, word: str) -> Operator:
        """Predicate-view operator of ``word``."""
        self.require(word)
        return self.word_ops[word]

    def hypernyms(self, word: str) -> tuple[tuple[str, int], ...]:
        self.require(word)
        if self.taxonomy is None:
            raise ConvnegError(
                "hypernym listing needs a taxonomy-backed lexicon "
                "(this one was loaded from an operator store)"
            )
        return self.taxonomy.hypernyms(word)

    def worldly_context(self, word: str, decay: float | None = None) -> Operator:
        """Worldly context of ``word``; optionally recomputed at another decay."""
        self.require(word)
        if decay is None or decay == self.decay:
            return self.wc_ops[word]
        if self.taxonomy is None:
            raise ConvnegError(
                "decay override needs a taxonomy-backed lexicon "
                "(this one was loaded from an operator store)"
            )
        return _worldly_context(self.taxonomy, self.word_ops, word, decay, self.leaves)


def _check_decay(decay: float) -> float:
    decay = float(decay)
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    return decay


def _indicator(
    taxonomy: Taxonomy, word: str, basis: Operator, position: dict[str, int]
) -> Operator:
    """Indicator over ``word``'s descendant leaves, set through the leaf
    ``position`` map. The product with ``basis``, the labelled identity,
    attaches the leaf labels without checking them again per concept."""
    d = np.zeros(basis.dim)
    d[[position[c] for c in taxonomy.descendants(word) if c in position]] = 1.0
    return hadamard(basis, diagonal(d))


def _worldly_context(
    taxonomy: Taxonomy,
    word_ops: dict[str, Operator],
    word: str,
    decay: float,
    leaves: tuple[str, ...],
) -> Operator:
    hyps = taxonomy.hypernyms(word)
    if not hyps:
        return identity(len(leaves), leaves)
    raw = np.array([decay ** depth for _, depth in hyps])
    weights = raw / raw.sum()
    return mix([(w, word_ops[h]) for w, (h, _) in zip(weights, hyps)])


def build_lexicon(taxonomy: Taxonomy, decay: float = DEFAULT_DECAY, name: str = "") -> Lexicon:
    """Build word and worldly-context operators for every concept."""
    decay = _check_decay(decay)
    leaves = taxonomy.leaves
    position = {leaf: i for i, leaf in enumerate(leaves)}
    basis = identity(len(leaves), leaves)
    word_ops = {c: _indicator(taxonomy, c, basis, position) for c in taxonomy.order}
    wc_ops = {
        c: _worldly_context(taxonomy, word_ops, c, decay, leaves)
        for c in taxonomy.order
    }
    return Lexicon(
        concepts=taxonomy.order,
        leaves=leaves,
        word_ops=word_ops,
        wc_ops=wc_ops,
        decay=decay,
        taxonomy=taxonomy,
        name=name,
    )


def resolve_word(word: str, lexicons: Sequence[Lexicon]) -> Lexicon:
    """Find the unique lexicon containing ``word``."""
    hits = [lex for lex in lexicons if word in lex]
    if not hits:
        raise UnknownWord(f"word {word!r} not found in any loaded lexicon")
    if len(hits) > 1:
        names = ", ".join(lex.name or f"<dim {lex.dim}>" for lex in hits)
        raise AmbiguousWord(f"word {word!r} is ambiguous across lexicons: {names}")
    return hits[0]


# ---------------------------------------------------------------------------
# Store format: "LEXICON v1", "DECAY <real>", "LEAVES <comma list>", then one
# "WORD <name>" + operator block and one "WC <name>" + operator block per
# concept. Decimal entries use full round-trip precision.
# ---------------------------------------------------------------------------


def save_lexicon(lex: Lexicon, path: str | Path) -> None:
    lines = ["LEXICON v1", f"DECAY {lex.decay!r}", "LEAVES " + ",".join(lex.leaves)]
    # sibling leaves share their hypernyms, so their contexts are equal
    # operators: each distinct one is formatted once
    blocks: dict[tuple, list[str]] = {}
    for concept in lex.concepts:
        for kind, op in (("WORD", lex.word_ops[concept]), ("WC", lex.wc_ops[concept])):
            entries = _entries(op)
            key = (entries.shape, entries.tobytes(), op.labels)
            if key not in blocks:
                blocks[key] = operator_to_lines(op)
            lines.append(f"{kind} {concept}")
            lines.extend(blocks[key])
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_lexicon(path: str | Path, name: str = "") -> Lexicon:
    """Load a lexicon store; re-validates every operator's invariants."""
    reader = LineReader(_read_text(path).splitlines())

    if reader.require("lexicon file") != "LEXICON v1":
        raise ParseError("expected header 'LEXICON v1'", reader.lineno)
    decay_line = reader.require("lexicon file")
    if not decay_line.startswith("DECAY "):
        raise ParseError("expected 'DECAY <real>'", reader.lineno)
    try:
        decay = _check_decay(float(decay_line.split(" ", 1)[1]))
    except ValueError as exc:
        raise ParseError(f"bad decay: {exc}", reader.lineno) from None
    leaves_line = reader.require("lexicon file")
    if not leaves_line.startswith("LEAVES "):
        raise ParseError("expected 'LEAVES <comma list>'", reader.lineno)
    leaves = tuple(leaves_line[len("LEAVES ") :].split(","))
    if len(set(leaves)) != len(leaves) or any(not leaf for leaf in leaves):
        raise ParseError("leaf names must be nonempty and unique", reader.lineno)

    concepts: list[str] = []
    word_ops: dict[str, Operator] = {}
    wc_ops: dict[str, Operator] = {}
    for line in reader:
        if not line:
            continue
        kind, _, concept = line.partition(" ")
        if kind not in ("WORD", "WC") or not concept:
            raise ParseError(
                f"expected 'WORD <name>' or 'WC <name>', got {line!r}", reader.lineno
            )
        op = operator_from_lines(reader)
        if op.dim != len(leaves):
            raise ParseError(
                f"operator for {concept!r} has dim {op.dim}, leaf space has {len(leaves)}",
                reader.lineno,
            )
        target = word_ops if kind == "WORD" else wc_ops
        if concept in target:
            raise ParseError(f"duplicate {kind} block for {concept!r}", reader.lineno)
        target[concept] = op
        if kind == "WORD":
            concepts.append(concept)

    if not concepts:
        raise ParseError("lexicon store has no WORD blocks")
    missing = [c for c in concepts if c not in wc_ops]
    if missing:
        raise ParseError(f"missing WC block for: {', '.join(missing)}")
    orphans = [c for c in wc_ops if c not in word_ops]
    if orphans:
        raise ParseError(f"WC block without WORD block for: {', '.join(orphans)}")

    return Lexicon(
        concepts=tuple(concepts),
        leaves=leaves,
        word_ops=word_ops,
        wc_ops=wc_ops,
        decay=decay,
        taxonomy=None,
        name=name or Path(path).stem,
    )
