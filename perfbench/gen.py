"""Seeded input generators for every workload.

Each input is a pure function of ``(seed, stream, index)``: the same seed
gives byte-identical taxonomy TSV, script and string text, and the program
under test only ever sees that text. The benchmark keeps the generated
structure (edges, depths, link groups) for its own reference checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Composite-dimension guard of the circuits layer at the time the benchmark
# was written; stories whose linked group exceeds it are "over-guard".
GUARD_DIM = 4096

WORD_QUERY_LEAVES = 64
# One cycle of word-query kinds; a fixed share of each, spread out.
WORD_QUERY_CYCLE = (
    "default", "default", "pinv", "default", "default", "conjugate", "default",
    "loewner", "default", "decay", "default", "default", "pinv", "default",
    "conjugate", "default", "overlap", "default", "decay", "default",
)
DECAY_OVERRIDES = (0.25, 0.75)

# Plain stores cycle through STORE_LEAVES; every fifth store has
# STORE_ROTATED_LEAVES leaves and rotated operators (costing less than a
# plain 48-leaf store). Each size is a cluster of near-equal op costs, and
# p50 and p90 fall inside one (32 plain, 48 plain), not on the steep edge
# between two.
STORE_LEAVES = (16, 24, 32, 32, 48)
STORE_ROTATE_EVERY = 5
STORE_ROTATED_LEAVES = 32

# Cycled; a 50/50 split would put p50 on the cost step between n=6 and n=7.
STRING_LENGTHS = (6, 7, 7, 7)
FAMILIES = 3
FAMILY_NAME_LEAVES = (3, 4, 3)  # kinds, roles and verbs have 3 leaves each
OVER_GUARD_EVERY = 5  # every fifth story links three actors
LINK_POSITIONS = ("first", "middle", "last")
EFFECT_MODES = ("none", "subject", "both")

SYLLABLES = (
    "ba", "ko", "ri", "su", "ne", "la", "mo", "ti",
    "ga", "pe", "du", "vi", "ro", "ha", "ze", "fu",
)


def rng_for(seed: int, stream: str, index: int = 0) -> random.Random:
    return random.Random(f"{seed}:{stream}:{index}")


@dataclass(frozen=True)
class Tax:
    """A generated taxonomy: its TSV text and the structure behind it."""

    text: str
    edges: tuple[tuple[str, str], ...]
    root: str
    parents: dict[str, tuple[str, ...]] = field(repr=False)

    @property
    def concepts(self) -> tuple[str, ...]:
        """Concepts in order of first appearance in the TSV."""
        seen: dict[str, None] = {}
        for child, parent in self.edges:
            seen.setdefault(child)
            seen.setdefault(parent)
        return tuple(seen)

    @property
    def leaves(self) -> tuple[str, ...]:
        has_child = {parent for _, parent in self.edges}
        return tuple(c for c in self.concepts if c not in has_child)

    @property
    def non_root(self) -> tuple[str, ...]:
        return tuple(c for c in self.concepts if c != self.root)

    def ancestors(self, concept: str) -> set[str]:
        out: set[str] = set()
        stack = [concept]
        while stack:
            for parent in self.parents.get(stack.pop(), ()):
                if parent not in out:
                    out.add(parent)
                    stack.append(parent)
        return out


def _make_tax(edges: list[tuple[str, str]], root: str, header: str) -> Tax:
    parents: dict[str, list[str]] = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)
    text = f"# {header}\n" + "".join(f"{c}\t{p}\n" for c, p in edges)
    return Tax(text, tuple(edges), root, {c: tuple(p) for c, p in parents.items()})


# Children per new parent, cycled; 1 passes a node up a level unchanged.
GROUP_SIZES = (3, 2, 1, 4, 2, 3, 1, 2)


def ragged_taxonomy(rng: random.Random, n_leaves: int, prefix: str, extra_share: float) -> Tax:
    """A random tree grouped 2-4 children per parent, with some nodes passed
    up a level (ragged depths) and ``extra_share`` of nodes given a second
    parent (a DAG). No concept but the root covers every leaf.

    Group sizes follow ``GROUP_SIZES``, so the concept count depends on the
    leaf count alone; the seed decides which nodes share a parent."""
    leaves = [f"{prefix}{i}" for i in range(n_leaves)]
    level = list(leaves)
    edges: list[tuple[str, str]] = []
    internal: list[str] = []
    groups = 0
    while len(level) > 1:
        rng.shuffle(level)
        nxt: list[str] = []
        i = 0
        while i < len(level):
            size = GROUP_SIZES[groups % len(GROUP_SIZES)]
            groups += 1
            if size == 1 and len(level) <= 3:
                size = 2
            size = min(size, len(level) - i)
            if size == 1:
                nxt.append(level[i])
                i += 1
                continue
            parent = f"{prefix}h{len(internal)}"
            internal.append(parent)
            edges.extend((child, parent) for child in level[i : i + size])
            nxt.append(parent)
            i += size
        level = nxt
    root = level[0]

    children: dict[str, list[str]] = {}
    for child, parent in edges:
        children.setdefault(parent, []).append(child)

    def below(node: str) -> set[str]:
        out, stack = {node}, [node]
        while stack:
            for c in children.get(stack.pop(), ()):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def covers_all(node: str) -> bool:
        return len(below(node) & leaf_set) == n_leaves

    leaf_set = set(leaves)
    candidates = [p for p in internal if p != root]
    for node in sorted(leaf_set | set(internal) - {root}):
        if not candidates or rng.random() >= extra_share:
            continue
        parent = rng.choice(candidates)
        if parent in below(node) or (node, parent) in edges:
            continue
        edges.append((node, parent))
        children.setdefault(parent, []).append(node)
        if any(covers_all(p) for p in candidates):
            edges.pop()
            children[parent].pop()

    rng.shuffle(edges)
    return _make_tax(edges, root, f"synthetic taxonomy, {n_leaves} leaves")


# ---------------------------------------------------------------------------
# word_queries


def word_query_taxonomy(seed: int) -> Tax:
    return ragged_taxonomy(rng_for(seed, "wq-taxonomy"), WORD_QUERY_LEAVES, "c", 0.05)


@dataclass(frozen=True)
class WordQuery:
    kind: str  # default | pinv | conjugate | decay | loewner | overlap
    word: str  # the negated word, or the left word of an entail query
    other: str = ""  # right word of an entail query
    decay: float | None = None


def word_query(seed: int, i: int, tax: Tax) -> WordQuery:
    rng = rng_for(seed, "wq", i)
    kind = WORD_QUERY_CYCLE[i % len(WORD_QUERY_CYCLE)]
    if kind in ("loewner", "overlap"):
        a = rng.choice(tax.leaves)
        ancestors = sorted(tax.ancestors(a) - {tax.root})
        pool = ancestors if ancestors and rng.random() < 0.5 else tax.non_root
        return WordQuery(kind, a, rng.choice(pool))
    decay = rng.choice(DECAY_OVERRIDES) if kind == "decay" else None
    return WordQuery(kind, rng.choice(tax.non_root), decay=decay)


# ---------------------------------------------------------------------------
# lexicon_store


@dataclass(frozen=True)
class StoreSpec:
    tax: Tax
    word: str
    rotate: bool
    rotation_seed: int


def store_spec(seed: int, i: int) -> StoreSpec:
    rng = rng_for(seed, "store", i)
    rotate = i % STORE_ROTATE_EVERY == STORE_ROTATE_EVERY - 1
    plain_before = i - (i + 1) // STORE_ROTATE_EVERY
    n = STORE_ROTATED_LEAVES if rotate else STORE_LEAVES[plain_before % len(STORE_LEAVES)]
    tax = ragged_taxonomy(rng, n, "s", 0.05)
    return StoreSpec(tax, rng.choice(tax.non_root), rotate, rng.getrandbits(32))


# ---------------------------------------------------------------------------
# text_requests


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        w = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _small_taxonomy(rng: random.Random, n_leaves: int, taken: set[str], kind: str) -> Tax:
    """Leaves 0-1 under one group, the rest and the group under the root."""
    leaves = _words(rng, n_leaves, taken)
    group, root = _words(rng, 2, taken)
    edges = [(leaves[0], group), (leaves[1], group), (group, root)]
    edges += [(leaf, root) for leaf in leaves[2:]]
    return _make_tax(edges, root, f"synthetic {kind} lexicon")


def families(seed: int) -> list[dict[str, Tax]]:
    """Per family: small name/kind/role/verb taxonomies with distinct words."""
    out = []
    for f in range(FAMILIES):
        rng = rng_for(seed, "family", f)
        taken: set[str] = set()
        out.append({
            "names": _small_taxonomy(rng, FAMILY_NAME_LEAVES[f], taken, "name"),
            "kinds": _small_taxonomy(rng, 3, taken, "kind"),
            "roles": _small_taxonomy(rng, 3, taken, "role"),
            "verbs": _small_taxonomy(rng, 3, taken, "verb"),
        })
    return out


def own_dim(family: dict[str, Tax]) -> int:
    """Dimension of one actor's own factors: name, kind and role spaces."""
    return (
        len(family["names"].leaves) * len(family["kinds"].leaves) * len(family["roles"].leaves)
    )


@dataclass(frozen=True)
class Story:
    family: int
    script: str
    free_actor: str  # link-free actor, ranked against the others
    linked_actor: str  # subject of the first link
    verb: str
    effects: str  # none | subject | both
    effect_seed: int
    string: tuple[str, ...]
    follow_up: tuple[str, ...]
    group_size: int  # actors in the linked group
    joint_dim: int  # product of factor dims over the linked group

    @property
    def over_guard(self) -> bool:
        return self.joint_dim > GUARD_DIM


def story(seed: int, i: int, fams: list[dict[str, Tax]]) -> Story:
    rng = rng_for(seed, "story", i)
    f = i % FAMILIES
    fam = fams[f]
    actors = [w.capitalize() for w in fam["names"].non_root]
    rng.shuffle(actors)
    lines = []
    for actor in actors:
        lines.append(f"{actor} is a {rng.choice(fam['kinds'].non_root)}.")
        lines.append(f"{actor} is a {rng.choice(fam['roles'].non_root)}.")
    group_size = 3 if i % OVER_GUARD_EVERY == OVER_GUARD_EVERY - 1 else 2
    group = actors[:group_size]
    verb = rng.choice(fam["verbs"].non_root)
    position = LINK_POSITIONS[(i // FAMILIES) % len(LINK_POSITIONS)]
    at = {"first": 0, "middle": len(lines) // 2, "last": len(lines)}[position]
    lines.insert(at, f"{group[0]} {verb} {group[1]}.")
    if group_size == 3:
        lines.append(f"{group[1]} {rng.choice(fam['verbs'].non_root)} {group[2]}.")

    n = STRING_LENGTHS[i % len(STRING_LENGTHS)]
    order = ("names", "kinds", "roles", "verbs")
    start = rng.randrange(len(order))
    string, follow = [], []
    for p in range(n):
        pool = fam[order[(start + p) % len(order)]].non_root
        word = rng.choice(pool)
        string.append(word)
        follow.append(word if rng.random() < 0.4 else rng.choice(pool))

    return Story(
        family=f,
        script="".join(line + "\n" for line in lines),
        free_actor=rng.choice(actors[group_size:]),
        linked_actor=group[0],
        verb=verb,
        effects=EFFECT_MODES[(i // (FAMILIES * len(LINK_POSITIONS))) % len(EFFECT_MODES)],
        effect_seed=rng.getrandbits(32),
        string=tuple(string),
        follow_up=tuple(follow),
        group_size=group_size,
        joint_dim=own_dim(fam) ** group_size,
    )


# ---------------------------------------------------------------------------
# sanity of the generators


def acyclic(edges) -> bool:
    """Kahn's algorithm over child -> parent edges."""
    nodes = {x for e in edges for x in e}
    indegree = dict.fromkeys(nodes, 0)
    out: dict[str, list[str]] = {}
    for child, parent in edges:
        indegree[parent] += 1
        out.setdefault(child, []).append(parent)
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in out.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return seen == len(nodes)


def sample_texts(workload: str, seed: int, count: int = 6) -> list[str]:
    """Generated program-facing text for the first ``count`` inputs."""
    if workload == "word_queries":
        return [word_query_taxonomy(seed).text]
    if workload == "lexicon_store":
        return [store_spec(seed, i).tax.text for i in range(count)]
    if workload == "text_requests":
        fams = families(seed)
        texts = [t.text for fam in fams for t in fam.values()]
        for i in range(count):
            s = story(seed, i, fams)
            texts.append(s.script + " ".join(s.string) + "|" + " ".join(s.follow_up))
        return texts
    return []


def sample_taxonomies(workload: str, seed: int, count: int = 6) -> list[Tax]:
    if workload == "word_queries":
        return [word_query_taxonomy(seed)]
    if workload == "lexicon_store":
        return [store_spec(seed, i).tax for i in range(count)]
    if workload == "text_requests":
        return [t for fam in families(seed) for t in fam.values()]
    return []


def sanity(workload: str, seed: int) -> list[str]:
    """Same seed, same bytes; another seed, other bytes; every taxonomy acyclic."""
    problems = []
    first = sample_texts(workload, seed)
    if first != sample_texts(workload, seed):
        problems.append("same seed gave different text")
    if first and first == sample_texts(workload, seed + 1):
        problems.append("seeds differ but text is identical")
    for tax in sample_taxonomies(workload, seed):
        if not acyclic(tax.edges):
            problems.append(f"generated taxonomy rooted at {tax.root} has a cycle")
    return problems
