"""Hypernym taxonomies: TSV ingestion, DAG validation, traversal.

File format: UTF-8, one ``child<TAB>parent`` edge per line, ``#`` comments and
blank lines ignored. Concept ordering (and hence leaf ordering and every
number built on top of it) is fixed by first appearance in the file.

One pass of Kahn's topological sort both orders the concepts for bottom-up
walks (``Taxonomy.bottom_up``) and rejects a cycle. The CyclicTaxonomy
message names the cycle reached from the first concept in file order that is
on or below a cycle by following, each time, its first parent in file order
that is too: the cycle a depth-first search of the parents meets first.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CyclicTaxonomy, ParseError, UnknownWord, _read_text


@dataclass(frozen=True)
class Taxonomy:
    """Directed acyclic hypernym graph; edges point child -> parent."""

    order: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    parents: dict[str, tuple[str, ...]] = field(repr=False)
    children: dict[str, tuple[str, ...]] = field(repr=False)
    # every concept, each after all its children: the reverse of a
    # topological order of the edges
    bottom_up: tuple[str, ...] = field(compare=False, repr=False)
    __hash__ = None  # its dicts are unhashable, so hash() names the class

    @property
    def concepts(self) -> frozenset[str]:
        return frozenset(self.order)

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(c for c in self.order if not self.children[c])

    @property
    def roots(self) -> tuple[str, ...]:
        return tuple(c for c in self.order if not self.parents[c])

    def require(self, concept: str) -> None:
        if concept not in self.parents:
            raise UnknownWord(f"unknown concept {concept!r}")

    def hypernyms(self, concept: str) -> tuple[tuple[str, int], ...]:
        """Strict ancestors with shortest edge-distance, sorted by (depth, name)."""
        self.require(concept)
        depth: dict[str, int] = {}
        frontier = [concept]
        d = 0
        seen = {concept}
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
        return tuple(sorted(depth.items(), key=lambda kv: (kv[1], kv[0])))


def _check_name(name: str, lineno: int) -> str:
    if "," in name or any(ch.isspace() for ch in name):
        raise ParseError(f"concept name {name!r} may not contain commas or whitespace", lineno)
    return name


def parse_taxonomy(text: str) -> Taxonomy:
    order: list[str] = []
    known: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_set: set[tuple[str, str]] = set()

    def note(name: str) -> None:
        if name not in known:
            known.add(name)
            order.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(
                f"expected 'child<TAB>parent', got {raw!r}", lineno
            )
        child = _check_name(parts[0].strip(), lineno)
        parent = _check_name(parts[1].strip(), lineno)
        if (child, parent) in edge_set:
            warnings.warn(f"duplicate edge {child} -> {parent} at line {lineno}")
            continue
        note(child)
        note(parent)
        edge_set.add((child, parent))
        edges.append((child, parent))

    if not edges:
        raise ParseError("taxonomy has no edges")

    parents = {c: [] for c in order}
    children = {c: [] for c in order}
    for child, parent in edges:
        parents[child].append(parent)
        children[parent].append(child)

    # Kahn's pass: each concept is placed once all its parents are
    pending = {c: len(parents[c]) for c in order}
    top_down = [c for c in order if not pending[c]]
    for c in top_down:  # grows as each concept's last parent is placed
        for child in children[c]:
            pending[child] -= 1
            if not pending[child]:
                top_down.append(child)
    if len(top_down) < len(order):
        # a concept left over has a parent left over, so this walk (see the
        # module docstring) ends in a cycle
        step: dict[str, int] = {}  # the walk so far, each concept's step
        c = next(c for c in order if pending[c])
        while c not in step:
            step[c] = len(step)
            c = next(p for p in parents[c] if pending[p])
        raise CyclicTaxonomy("cycle: " + " -> ".join([*list(step)[step[c] :], c]))

    return Taxonomy(
        order=tuple(order),
        edges=tuple(edges),
        parents={c: tuple(v) for c, v in parents.items()},
        children={c: tuple(v) for c, v in children.items()},
        bottom_up=tuple(reversed(top_down)),
    )


def load_taxonomy(path: str | Path) -> Taxonomy:
    return parse_taxonomy(_read_text(path))
