import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from convneg.lexicon import build_lexicon
from convneg.operators import Operator
from convneg.taxonomy import load_taxonomy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# absolute tolerance for float results checked against a dense or numpy reference
EQ_TOL = 1e-9


def descendants(tax, concept):
    """``concept`` and every concept reachable downward from it in ``tax``."""
    tax.require(concept)
    seen = {concept}
    stack = [concept]
    while stack:
        for child in tax.children[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def descendant_leaves(tax, concept):
    """Leaves reachable downward from ``concept`` (itself, if a leaf), in leaf order."""
    seen = descendants(tax, concept)
    return tuple(leaf for leaf in tax.leaves if leaf in seen)


def story_lexicons():
    """The names/kinds/roles triple backing the 8-line story fixture."""
    return tuple(
        build_lexicon(load_taxonomy(FIXTURES / f"{n}.tsv"), name=n)
        for n in ("names", "kinds", "roles")
    )


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


HADAMARD4 = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def golden_stores():
    """A store built from every fixture, and fig1's turned by the orthogonal
    H/2 (H the 4x4 Hadamard matrix): its dense entries are sums of d_k/4 and
    -d_k/4 by ``math.fsum``, so their bits do not depend on the BLAS."""
    stores = {f.stem: build_lexicon(load_taxonomy(f)) for f in sorted(FIXTURES.glob("*.tsv"))}
    fig1 = stores["fig1"]

    def turn(op):
        d, h = op.diagonal().tolist(), HADAMARD4
        m = [
            [math.fsum(0.25 * h[i][k] * h[j][k] * d[k] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        return Operator(np.array(m), fig1.leaves)

    stores["fig1-turned"] = dataclasses.replace(
        fig1,
        word_ops={c: turn(op) for c, op in fig1.word_ops.items()},
        wc_ops={c: turn(op) for c, op in fig1.wc_ops.items()},
    )
    return stores


FIG1_TSV = """\
# four-leaf hierarchy used throughout the tests
hamster\trodent
guinea_pig\trodent
rodent\tanimal
dog\tanimal
animal\tentity
planet\tentity
"""

COLORS_TSV = "red\tcolor\nwhite\tcolor\nrosé\tcolor\n"
DRINKS_TSV = "wine\tdrink\nbeer\tdrink\njuice\tdrink\n"


def rand_psd(rng: np.random.Generator, dim: int, rank: int | None = None,
             scale: float = 1.0) -> Operator:
    """Random PSD operator with entries O(scale); rank defaults to full."""
    r = dim if rank is None else rank
    x = rng.standard_normal((dim, r))
    m = x @ x.T
    m *= scale / max(dim, 1)
    return Operator((m + m.T) / 2.0)


def rand_full_rank_psd(rng: np.random.Generator, dim: int, ridge: float = 0.1) -> Operator:
    base = rand_psd(rng, dim)
    return Operator(base.matrix + ridge * np.eye(dim))


@st.composite
def psd_operators(draw, min_dim: int = 1, max_dim: int = 5, nonzero: bool = True):
    """Hypothesis strategy for small PSD operators built as X @ X.T."""
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    rank = draw(st.integers(min_value=1, max_value=dim))
    entries = draw(
        st.lists(
            st.floats(min_value=-1.5, max_value=1.5, allow_nan=False, width=32),
            min_size=dim * rank,
            max_size=dim * rank,
        )
    )
    x = np.asarray(entries, dtype=np.float64).reshape(dim, rank)
    m = x @ x.T
    if nonzero and float(np.trace(m)) <= 1e-9:
        m = m + np.eye(dim)
    return Operator((m + m.T) / 2.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def without_blocks(text, concept):
    """A store's text with the WORD and WC blocks of ``concept`` removed."""
    out, skip = [], False
    for line in text.splitlines():
        if line.startswith(("WORD ", "WC ")):
            skip = line.split(" ", 1)[1] == concept
        if not skip:
            out.append(line)
    return "\n".join(out) + "\n"


def dag_tsv(seed, n_leaves, ragged=False):
    """A seeded random DAG as taxonomy TSV text: nodes grouped 2-4 under new
    parents, level by level up to one root, then about one node in eight
    given a second parent from a higher level, so no cycle can form.
    ``ragged`` passes some nodes up a level ungrouped, so leaves lie at
    uneven depths."""
    rng = np.random.default_rng(seed)
    level, edges, height = [f"x{i}" for i in range(n_leaves)], [], {}
    while len(level) > 1:
        order, level, i = rng.permutation(level).tolist(), [], 0
        while i < len(order):
            size = int(rng.integers(1 if ragged else 2, 5))
            if size == 1:
                level.append(order[i])
                i += 1
                continue
            parent = f"h{len(height)}"
            height[parent] = 1 + max(height.get(c, 0) for c in order[i : i + size])
            edges += [(c, parent) for c in order[i : i + size]]
            level.append(parent)
            i += size
    root = level[0]
    for child in sorted({c for c, _ in edges}):
        if rng.random() < 0.125:
            above = [p for p in height if height[p] > height.get(child, 0) and p != root]
            parent = str(rng.choice(above)) if above else root
            if (child, parent) not in edges:
                edges.append((child, parent))
    return "".join(f"{c}\t{p}\n" for c, p in edges)
