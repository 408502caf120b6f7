"""Lexicons: word operators and worldly contexts over a taxonomy's leaf space,
and the text store that saves and loads them.

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

This module alone reads and writes store text (``save_lexicon``,
``load_lexicon``; the format is described above ``MAX_ENTRY``). A load reads
the lines by index, every block against the one ``LEAVES`` line (a loaded
operator's labels are the lexicon's leaves tuple itself), and makes its own
memos of blocks and diagonal rows, which it passes to the block reader.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AmbiguousWord,
    ConvnegError,
    DimMismatch,
    InvalidOperator,
    ParseError,
    UnknownWord,
    _read_text,
)
from .operators import Operator, _entries, _from_entries, identity, mix
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
                # O(1) when `is` the leaves, as built and loaded
                if op.labels not in ((), self.leaves):
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

    def _taxonomy(self, what: str) -> Taxonomy:
        if self.taxonomy is None:
            raise ConvnegError(
                f"{what} needs a taxonomy-backed lexicon (this one was loaded from an operator store)"
            )
        return self.taxonomy

    def hypernyms(self, word: str) -> tuple[tuple[str, int], ...]:
        self.require(word)
        return self._taxonomy("hypernym listing").hypernyms(word)

    def worldly_context(self, word: str, decay: float | None = None) -> Operator:
        """Worldly context of ``word``; optionally recomputed at another decay."""
        self.require(word)
        if decay is None or decay == self.decay:
            return self.wc_ops[word]
        hyps = self._taxonomy("decay override").hypernyms(word)
        return _context(hyps, self.word_ops, _check_decay(decay), self.leaves)


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
    return {c: Operator._of(row, leaves) for c, row in bits.items()}


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
# "WORD <name>" and one "WC <name>" operator block per concept. A block is
# "OPERATOR <dim>", "LABELS <- or the LEAVES list>", then dim rows of dim
# space-separated entries at full (round-trip) precision. Every block is in
# the store's leaf basis, so it is read against the LEAVES line: its dim must
# be the number of leaves, checked at its OPERATOR line, and its LABELS text,
# stripped, must be "-" or the LEAVES text, checked after its entries; a
# labelled block's operator holds the store's leaves tuple itself.
# A diagonal operator is written in the same n rows: row i is repr(d_i) between
# "0.0 " * i and " 0.0" * (n-1-i), zeros cut once per store. A block whose
# every row reads that way is read by parsing each row's one token: O(n)
# number work per block, not n^2. Any other block has each row split once. A
# dense matrix is exactly symmetric: its upper triangle is formatted once and
# mirrored, and a block whose tokens equal their transpose is read from its
# upper triangle, mirrored; any other has every token parsed, row by row. A
# finite entry above MAX_ENTRY in magnitude is refused, naming the first row
# with one, before the block is validated. One load reads each distinct
# thing once, by two memos it makes per call: a block whose LABELS line and
# rows repeat an earlier one is that block's operator, neither parsed nor
# validated again; a diagonal row read before at the same position is its
# entry, not matched again. Input that ends inside the header or a block is a
# ParseError ("unexpected end of ...") naming the last line, 0 if empty.
# ---------------------------------------------------------------------------

# largest magnitude of a finite entry a store holds: a sum of up to 1e8 of
# them (a trace, a mixture, a symmetrization) stays below 1.8e308
MAX_ENTRY = 1e300
_upper = functools.lru_cache(maxsize=16)(np.triu_indices)  # by dim


def row_frames(n: int) -> tuple[list[str], list[str]]:
    """The zeros before and after each diagonal row's entry at dim ``n``."""
    zeros = "0.0 " * n
    return [zeros[: 4 * i] for i in range(n)], [zeros[4 * i + 3 : 4 * n - 1] for i in range(n)]


def operator_to_lines(a: Operator, frames: tuple[list[str], list[str]]) -> list[str]:
    """The block's text lines; ``frames`` are ``row_frames`` of its dim."""
    lines = [f"OPERATOR {a.dim}", "LABELS " + (",".join(a.labels) if a.labels else "-")]
    if a._diag is None:
        # (m + m.T) / 2 is symmetric bit for bit: row i starts with column i
        rows: list[list[str]] = []
        for i, row in enumerate(a._matrix.tolist()):
            rows.append([above[i] for above in rows] + list(map(repr, row[i:])))
        lines.extend(map(" ".join, rows))
    else:
        before, after = frames
        lines.extend(map("".join, zip(before, map(repr, a._diag.tolist()), after)))
    return lines


def _unworded(leaves: tuple[str, ...], words: Mapping[str, Operator]) -> list[str]:
    """The leaves not in ``words`` if some are: a store's are all words or all bare labels."""
    unnamed = [leaf for leaf in leaves if leaf not in words]
    return unnamed if len(unnamed) < len(leaves) else []


def _check_names(lex: Lexicon) -> None:
    """ValueError naming the first leaf or concept a store cannot carry: an
    empty name, one with a line break (where ``str.splitlines`` breaks), or
    a leaf that repeats, holds a comma or edge whitespace; then ``_unworded``'s leaves."""
    names = [*lex.leaves, *lex.concepts]
    # one pass over the joined names: each is a line, up to the first with a break
    lines = ("\n".join(names) + "\n").splitlines()
    seen: set[str] = set()
    for i, (name, line) in enumerate(zip(names, lines)):
        leaf = i < len(lex.leaves)
        if name != line or not name or leaf and (name in seen or "," in name or name != name.strip()):
            kind = "leaf" if leaf else "concept"
            raise ValueError(f"{kind} name {name!r} cannot be written to a lexicon store")
        seen.add(name)
    if unnamed := _unworded(lex.leaves, lex.word_ops):
        raise ValueError(f"leaf without a WORD block cannot be saved: {', '.join(unnamed)}")


def save_lexicon(lex: Lexicon, path: str | Path) -> None:
    _check_names(lex)
    lines = ["LEXICON v1", f"DECAY {lex.decay!r}", "LEAVES " + ",".join(lex.leaves)]
    # sibling leaves share their hypernyms, so their contexts are equal
    # operators: each distinct one is formatted once, all from one cut of frames
    frames = row_frames(lex.dim)
    blocks: dict[tuple, list[str]] = {}
    for concept in lex.concepts:
        for kind, op in (("WORD", lex.word_ops[concept]), ("WC", lex.wc_ops[concept])):
            entries = _entries(op)
            key = (entries.shape, entries.tobytes(), op.labels)
            if key not in blocks:
                blocks[key] = operator_to_lines(op, frames)
            lines.append(f"{kind} {concept}")
            lines.extend(blocks[key])
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _line(lines: list[str], i: int, what: str) -> str:
    """``lines[i]``; ParseError("unexpected end of <what>") at the last line if there is none."""
    if i < len(lines):
        return lines[i]
    raise ParseError(f"unexpected end of {what}", len(lines))


def _diagonal_rows(seen: list[dict[str, float]], text: list[str]) -> list[float] | None:
    """The entries of a full block whose every row reads as diagonal, each
    row read before at its position taken from the load's row memo
    ``seen``; None at the first row that does not."""
    dim = len(text)
    diag = list(map(dict.get, seen, text))  # None where not read before
    if None in diag:
        # O(dim) text, not frames: the rows of a corrupt block need not be long
        zeros = "0.0 " * dim
        for i in [i for i, x in enumerate(diag) if x is None]:
            row_line, tail = text[i], zeros[4 * i + 3 : 4 * dim - 1]
            if not (row_line.startswith(zeros[: 4 * i]) and row_line.endswith(tail)):
                return None
            try:
                # float() takes no inner whitespace, so a row it accepts
                # here splits into i zeros, this entry and n-1-i zeros
                diag[i] = seen[i][row_line] = float(row_line[4 * i : len(row_line) - len(tail)])
            except ValueError:
                return None  # the general path reports it
    return diag


def _dense_entries(dim: int, text: list[str], first: int) -> np.ndarray:
    """The matrix of a block's rows ``text`` (line ``first`` on), by the store format's rule;
    raises at the first faulty row, or at the last line for a missing one."""
    table = [row_line.split() for row_line in text]
    if len(table) == dim and table == list(map(list, zip(*table))):
        tokens = chain.from_iterable(row[i:] for i, row in enumerate(table))
        entries, iu = np.empty((dim, dim)), _upper(dim)
        try:
            entries[iu] = entries.T[iu] = np.fromiter(map(float, tokens), np.float64)
            return entries
        except ValueError:
            pass  # a bad token, reported from its first row below
    rows = []
    for i, (row_line, fields) in enumerate(zip(text, table)):
        if len(fields) != dim:
            raise ParseError(f"expected {dim} entries, got {len(fields)}", first + i)
        try:
            rows.append(list(map(float, fields)))
        except ValueError:
            raise ParseError(f"bad matrix entry in {row_line!r}", first + i) from None
    if len(rows) < dim:  # the input ended inside the block: name its last line
        raise ParseError("unexpected end of operator block", first + len(rows) - 1)
    return np.array(rows)


def operator_from_lines(
    lines: list[str], at: int, concept: str, leaves: tuple[str, ...], blocks: dict, rows: list
) -> Operator:
    """The operator of ``concept``'s block, whose OPERATOR line is ``lines[at]``,
    read against the store's ``leaves`` and memos ``blocks`` and ``rows``
    (see the store format above); errors name 1-based line numbers."""
    header = _line(lines, at, "operator block")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "OPERATOR":
        raise ParseError(f"expected 'OPERATOR <dim>', got {header!r}", at + 1)
    try:
        dim = int(parts[1])
    except ValueError:
        raise ParseError(f"bad operator dimension {parts[1]!r}", at + 1) from None
    if dim != len(leaves):
        raise ParseError(f"operator for {concept!r} has dim {dim}, leaf space has {len(leaves)}", at + 1)
    label_line = _line(lines, at + 1, "operator block")
    if not label_line.startswith("LABELS "):
        raise ParseError(f"expected 'LABELS ...', got {label_line!r}", at + 2)
    text, first = lines[at + 2 : at + 2 + dim], at + 3  # the rows, and the first one's number
    key = (label_line, *text)
    if (op := blocks.get(key)) is not None:
        return op
    diag = _diagonal_rows(rows, text) if len(text) == dim else None
    if diag is None:  # raises at the first faulty row or at the end of input
        entries = _dense_entries(dim, text, first)
        low, high = entries.min(), entries.max()
    else:
        entries, low, high = diag, min(diag), max(diag)
    # an extreme that is NaN fails this test too; the search skips non-finite entries
    if not (-MAX_ENTRY <= low and high <= MAX_ENTRY):
        magnitude = np.abs(entries).reshape(dim, -1)
        oversized = np.flatnonzero(((magnitude > MAX_ENTRY) & (magnitude < math.inf)).any(axis=1))
        if oversized.size:
            raise ParseError(f"entry magnitude above {MAX_ENTRY:g}", first + int(oversized[0]))
    raw = label_line[len("LABELS ") :].strip()
    try:
        op = _from_entries(np.asarray(entries), () if raw == "-" else leaves)
    except InvalidOperator as exc:
        raise ParseError(f"invalid operator ending at this line: {exc}", first + dim - 1) from exc
    # checked after the entries, so a bad row or matrix is reported first
    if raw != "-" and raw != ",".join(leaves):
        raise ParseError("LABELS must be '-' or the LEAVES list", at + 2)
    blocks[key] = op
    return op


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a lexicon store, named by the file's stem; re-validates every
    operator's invariants. ``dataclasses.replace(lex, name=...)`` renames it."""
    lines = _read_text(path).splitlines()
    if _line(lines, 0, "lexicon file") != "LEXICON v1":
        raise ParseError("expected header 'LEXICON v1'", 1)
    decay_line = _line(lines, 1, "lexicon file")
    if not decay_line.startswith("DECAY "):
        raise ParseError("expected 'DECAY <real>'", 2)
    try:
        decay = _check_decay(float(decay_line.split(" ", 1)[1]))
    except ValueError as exc:
        raise ParseError(f"bad decay: {exc}", 2) from None
    leaves_line = _line(lines, 2, "lexicon file")
    if not leaves_line.startswith("LEAVES "):
        raise ParseError("expected 'LEAVES <comma list>'", 3)
    leaves = tuple(leaves_line[len("LEAVES ") :].split(","))
    if len(set(leaves)) != len(leaves) or any(not leaf for leaf in leaves):
        raise ParseError("leaf names must be nonempty and unique", 3)

    # this load's memos of blocks and of diagonal rows (see the store format)
    blocks: dict[tuple[str, ...], Operator] = {}
    rows: list[dict[str, float]] = [{} for _ in leaves]
    word_ops: dict[str, Operator] = {}
    wc_ops: dict[str, Operator] = {}
    lineno = 3  # the lines read so far
    while lineno < len(lines):
        line = lines[lineno]
        lineno += 1
        if not line:
            continue
        kind, _, concept = line.partition(" ")
        if kind not in ("WORD", "WC") or not concept:
            raise ParseError(f"expected 'WORD <name>' or 'WC <name>', got {line!r}", lineno)
        op = operator_from_lines(lines, lineno, concept, leaves, blocks, rows)
        lineno += len(leaves) + 2
        target = word_ops if kind == "WORD" else wc_ops
        if concept in target:
            raise ParseError(f"duplicate {kind} block for {concept!r}", lineno)
        target[concept] = op

    # duplicates are refused, so the WORD blocks' order is the concepts'
    if not word_ops:
        raise ParseError("lexicon store has no WORD blocks")
    if missing := [c for c in word_ops if c not in wc_ops]:
        raise ParseError(f"missing WC block for: {', '.join(missing)}")
    if orphans := [c for c in wc_ops if c not in word_ops]:
        raise ParseError(f"WC block without WORD block for: {', '.join(orphans)}")
    if unnamed := _unworded(leaves, word_ops):
        raise ParseError(f"leaf without a WORD block: {', '.join(unnamed)}", 3)

    return Lexicon(tuple(word_ops), leaves, word_ops, wc_ops, decay, name=Path(path).stem)
