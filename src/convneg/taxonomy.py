"""Hypernym taxonomies: TSV ingestion, DAG validation, traversal.

File format: UTF-8, one ``child<TAB>parent`` edge per line, ``#`` comments and
blank lines ignored. Concept ordering (and hence leaf ordering and every
number built on top of it) is fixed by first appearance in the file.
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

    @property
    def concepts(self) -> frozenset[str]:
        return frozenset(self.order)

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(c for c in self.order if not self.children[c])

    @property
    def roots(self) -> tuple[str, ...]:
        return tuple(c for c in self.order if not self.parents[c])

    def __contains__(self, concept: str) -> bool:
        return concept in self.parents

    def require(self, concept: str) -> None:
        if concept not in self.parents:
            raise UnknownWord(f"unknown concept {concept!r}")

    def descendants(self, concept: str) -> set[str]:
        """``concept`` and every concept reachable downward from it."""
        self.require(concept)
        seen = {concept}
        stack = [concept]
        while stack:
            for child in self.children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def descendant_leaves(self, concept: str) -> tuple[str, ...]:
        """Leaves reachable downward from ``concept`` (itself, if a leaf), in leaf order."""
        seen = self.descendants(concept)
        return tuple(leaf for leaf in self.leaves if leaf in seen)

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

    _reject_cycles(order, parents)

    return Taxonomy(
        order=tuple(order),
        edges=tuple(edges),
        parents={c: tuple(v) for c, v in parents.items()},
        children={c: tuple(v) for c, v in children.items()},
    )


def _reject_cycles(order, parents) -> None:
    # iterative DFS over child->parent edges; a back edge closes a cycle
    WHITE, GREY, BLACK = 0, 1, 2
    color = {c: WHITE for c in order}
    for start in order:
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        path = [start]
        color[start] = GREY
        while stack:
            node, i = stack[-1]
            if i < len(parents[node]):
                stack[-1] = (node, i + 1)
                nxt = parents[node][i]
                if color[nxt] == GREY:
                    cycle = path[path.index(nxt):] + [nxt]
                    raise CyclicTaxonomy("cycle: " + " -> ".join(cycle))
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()


def load_taxonomy(path: str | Path) -> Taxonomy:
    return parse_taxonomy(_read_text(path))
