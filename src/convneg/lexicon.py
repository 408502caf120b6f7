"""Lexicons: word operators and worldly contexts over a taxonomy's leaf space.

The builder produces diagonal predicates in the leaf basis: a word's operator
is the indicator over its descendant leaves (sup-normalized by construction;
all are built in one walk of ``Taxonomy.bottom_up``), and its worldly context
is the weighted mixture of hypernym indicators with geometrically decaying
weights, closest hypernym first. Both are made from their diagonals
(``operators.diagonal``, ``operators.mix``), so validating and combining
them over n leaves costs O(n) per operator rather than an n×n
eigendecomposition. Externally trained (non-diagonal) operators can be
injected through the store format, or through ``dataclasses.replace``; they
are kept dense and every function here works on them unchanged. A lexicon's
maps are read-only copies, checked once when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AmbiguousWord,
    ConvnegError,
    DimMismatch,
    ParseError,
    UnknownWord,
    _read_text,
)
from .operators import (
    LineReader,
    Operator,
    _entries,
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
    word_ops: Mapping[str, Operator] = field(repr=False)
    wc_ops: Mapping[str, Operator] = field(repr=False)
    decay: float
    taxonomy: Taxonomy | None = field(default=None, repr=False)
    name: str = ""
    __hash__ = None  # its maps are unhashable, so hash() names the class
    # memos built on demand, entailment's smoothed predicates and cn_word's
    # negations: not compared, shown, carried over by replace, copied or pickled
    _smoothed: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _negations: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        words = set(self.concepts)
        for table in ("word_ops", "wc_ops"):
            ops = MappingProxyType(dict(getattr(self, table)))
            object.__setattr__(self, table, ops)
            for word in self.concepts:
                if word not in ops:
                    raise UnknownWord(f"concept {word!r} has no entry in {table}")
            for word, op in ops.items():
                if word not in words:
                    raise UnknownWord(f"{table} entry {word!r} is not a concept")
                if op.dim != self.dim:
                    raise DimMismatch(
                        f"{table} operator for {word!r} has dim {op.dim}, leaf space has {self.dim}"
                    )
                if op.labels not in ((), self.leaves):  # O(1) when `is` the leaves, as built
                    raise DimMismatch(
                        f"{table} operator for {word!r} has labels ({', '.join(op.labels)}), "
                        f"leaf space is ({', '.join(self.leaves)})"
                    )

    def __getstate__(self) -> dict:
        state = {k: v for k, v in self.__dict__.items() if k not in ("_smoothed", "_negations")}
        return {**state, "word_ops": dict(self.word_ops), "wc_ops": dict(self.wc_ops)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _smoothed={}, _negations={})
        for table in ("word_ops", "wc_ops"):
            self.__dict__[table] = MappingProxyType(state[table])

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
        return _context(self.taxonomy.hypernyms(word), self.word_ops, decay, self.leaves)


def _check_decay(decay: float) -> float:
    decay = float(decay)
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    return decay


def _indicators(taxonomy: Taxonomy, leaves: tuple[str, ...]) -> dict[str, Operator]:
    """Each concept's indicator over its descendant leaves, labelled by the
    checked ``leaves``. One pass over ``taxonomy.bottom_up`` builds each
    concept's leaf set once, as the union of its children's, after theirs."""
    below = {leaf: {i} for i, leaf in enumerate(leaves)}
    for c in taxonomy.bottom_up:
        if c not in below:
            below[c] = set().union(*map(below.get, taxonomy.children[c]))
    # as ``diagonal`` makes them, but a 0/1 row needs no check
    bits = {c: np.bincount(list(below[c]), minlength=len(leaves)) * 1.0 for c in taxonomy.order}
    return {c: Operator._of(row, None, leaves) for c, row in bits.items()}


def _context(
    hyps: tuple[tuple[str, int], ...],
    word_ops: dict[str, Operator],
    decay: float,
    leaves: tuple[str, ...],
) -> Operator:
    """The mixture of the ``hyps`` chain's indicators, weights decaying
    with depth; the labelled identity for a root."""
    if not hyps:
        return identity(len(leaves), leaves)
    raw = np.array([decay ** depth for _, depth in hyps])
    weights = raw / raw.sum()
    return mix([(w, word_ops[h]) for w, (h, _) in zip(weights, hyps)])


def build_lexicon(taxonomy: Taxonomy, decay: float = DEFAULT_DECAY, name: str = "") -> Lexicon:
    """Build word and worldly-context operators for every concept.

    A concept's hypernym chain is a function of its set of parents (they are
    the chain's depth-1 entries), so concepts with the same parents, such as
    sibling leaves, share one context operator, built once.
    """
    decay = _check_decay(decay)
    leaves = taxonomy.leaves
    basis = identity(len(leaves), leaves)  # checks the leaf labels once
    word_ops = _indicators(taxonomy, basis.labels)
    contexts: dict[frozenset[str], Operator] = {}
    wc_ops = {}
    for c in taxonomy.order:
        parents = frozenset(taxonomy.parents[c])
        if parents not in contexts:
            contexts[parents] = _context(taxonomy.hypernyms(c), word_ops, decay, leaves)
        wc_ops[c] = contexts[parents]
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
# concept. Decimal entries use full round-trip precision. A block's LABELS
# line reads "-" or the LEAVES list, so its basis is the store's leaf basis.
# ---------------------------------------------------------------------------


def save_lexicon(lex: Lexicon, path: str | Path) -> None:
    lines = ["LEXICON v1", f"DECAY {lex.decay!r}", "LEAVES " + ",".join(lex.leaves)]
    # sibling leaves share their hypernyms, so their contexts are equal
    # operators: each distinct one is formatted once, all from one set of
    # diagonal row frames
    blocks: dict[tuple, list[str]] = {}
    frames: dict = {}
    for concept in lex.concepts:
        for kind, op in (("WORD", lex.word_ops[concept]), ("WC", lex.wc_ops[concept])):
            entries = _entries(op)
            key = (entries.shape, entries.tobytes(), op.labels)
            if key not in blocks:
                blocks[key] = operator_to_lines(op, frames)
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
    leaves, leaves_lineno = tuple(leaves_line[len("LEAVES ") :].split(",")), reader.lineno
    if len(set(leaves)) != len(leaves) or any(not leaf for leaf in leaves):
        raise ParseError("leaf names must be nonempty and unique", leaves_lineno)

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
        labels_line = reader.lineno + 2  # this line, OPERATOR, then LABELS
        op = operator_from_lines(reader)
        if op.dim != len(leaves):
            raise ParseError(
                f"operator for {concept!r} has dim {op.dim}, leaf space has {len(leaves)}",
                reader.lineno,
            )
        if op.labels and op.labels != leaves:
            raise ParseError("LABELS must be '-' or the LEAVES list", labels_line)
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
    unnamed = [leaf for leaf in leaves if leaf not in word_ops]
    if 0 < len(unnamed) < len(leaves):
        raise ParseError(f"leaf without a WORD block: {', '.join(unnamed)}", leaves_lineno)

    return Lexicon(
        concepts=tuple(concepts),
        leaves=leaves,
        word_ops=word_ops,
        wc_ops=wc_ops,
        decay=decay,
        taxonomy=None,
        name=name or Path(path).stem,
    )
