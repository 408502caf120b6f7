import copy
import dataclasses
import hashlib
import inspect
import math
import pickle
import re
import tracemalloc
import warnings
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convneg.lexicon
from convneg.circuits import Actor, UnaryGate
from convneg.errors import ConvnegError, AmbiguousWord, DimMismatch, ParseError, UnknownWord
from convneg.lexicon import (
    MAX_ENTRY,
    Lexicon,
    build_lexicon,
    load_lexicon,
    operator_to_lines,
    resolve_word,
    row_frames,
    save_lexicon,
)
from convneg.operators import Operator, _entries, diagonal
from convneg.strings import Slot, WordString
from convneg.taxonomy import load_taxonomy, parse_taxonomy

from conftest import COLORS_TSV, FIG1_TSV, FIXTURES, golden_stores, without_blocks


@pytest.fixture(scope="module")
def fig1_lex():
    return build_lexicon(parse_taxonomy(FIG1_TSV), decay=0.5, name="fig1")


class TestWordOperator:
    def test_leaf_indicator(self, fig1_lex):
        np.testing.assert_array_equal(
            fig1_lex.word_operator("hamster").matrix, np.diag([1.0, 0, 0, 0])
        )

    def test_internal_node_indicator(self, fig1_lex):
        # oracle: enumerate descendant leaves by hand
        np.testing.assert_array_equal(
            fig1_lex.word_operator("rodent").matrix, np.diag([1.0, 1, 0, 0])
        )

    def test_root_covers_all_leaves(self, fig1_lex):
        np.testing.assert_array_equal(
            fig1_lex.word_operator("entity").matrix, np.eye(4)
        )

    def test_unknown_word(self, fig1_lex):
        with pytest.raises(UnknownWord):
            fig1_lex.word_operator("flubber")

    def test_labels_are_leaves(self, fig1_lex):
        assert fig1_lex.word_operator("dog").labels == fig1_lex.leaves


class TestWorldlyContext:
    def test_hamster_weights(self, fig1_lex):
        # decay 0.5 over depths 1,2,3 gives weights 4/7, 2/7, 1/7; hand-sum of
        # the rodent/animal/entity indicators is diag(1, 1, 3/7, 1/7)
        wc = fig1_lex.worldly_context("hamster")
        np.testing.assert_allclose(wc.matrix, np.diag([1.0, 1.0, 3 / 7, 1 / 7]), atol=1e-15)

    def test_root_falls_back_to_identity(self, fig1_lex):
        np.testing.assert_array_equal(fig1_lex.worldly_context("entity").matrix, np.eye(4))

    def test_two_leaf_space(self):
        lex = build_lexicon(parse_taxonomy("a\troot\nb\troot\n"))
        np.testing.assert_array_equal(lex.worldly_context("a").matrix, np.eye(2))

    def test_weights_nonincreasing_and_normalized(self, fig1_lex):
        # reconstruct the weights from the wc diagonal of a chain word
        wc = fig1_lex.worldly_context("hamster").diagonal()
        p_entity = wc[3]
        p_animal = wc[2] - wc[3]
        p_rodent = wc[1] - wc[2]
        weights = [p_rodent, p_animal, p_entity]
        assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_decay_override(self, fig1_lex):
        wc = fig1_lex.worldly_context("hamster", decay=0.25)
        raw = np.array([0.25, 0.0625, 0.015625])
        w = raw / raw.sum()
        expected = np.diag([1.0, 1.0, w[1] + w[2], w[2]])
        np.testing.assert_allclose(wc.matrix, expected, atol=1e-12)

    def test_decay_validation(self):
        tax = parse_taxonomy("a\troot\n")
        with pytest.raises(ValueError):
            build_lexicon(tax, decay=0.0)
        with pytest.raises(ValueError):
            build_lexicon(tax, decay=1.0)

    @pytest.mark.parametrize("decay", [0.0, 1.0, 2.0, -1.0, math.nan, math.inf])
    def test_decay_override_is_checked(self, fig1_lex, decay):
        # 0.0 once divided by zero and -1.0 gave negative mixture weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^decay must lie in \(0, 1\), got "):
                fig1_lex.worldly_context("hamster", decay=decay)


class TestDiagonalNesting:
    def test_word_diag_below_hypernym_diag(self, fig1_lex):
        for word in fig1_lex.concepts:
            dw = fig1_lex.word_operator(word).diagonal()
            for h, _ in fig1_lex.hypernyms(word):
                dh = fig1_lex.word_operator(h).diagonal()
                assert np.all(dw <= dh + 1e-15)


class TestResolveWord:
    def test_unique_hit(self, fig1_lex):
        colors = build_lexicon(parse_taxonomy(COLORS_TSV), name="colors")
        assert resolve_word("red", [fig1_lex, colors]) is colors

    def test_unknown(self, fig1_lex):
        with pytest.raises(UnknownWord):
            resolve_word("flubber", [fig1_lex])

    def test_ambiguous(self):
        a = build_lexicon(parse_taxonomy("dog\tx\ncat\tx\n"), name="a")
        b = build_lexicon(parse_taxonomy("dog\ty\nfox\ty\n"), name="b")
        with pytest.raises(AmbiguousWord):
            resolve_word("dog", [a, b])


TABLES = ("word_ops", "wc_ops")


def with_table(lex, table, ops):
    """``lex``'s constructor arguments with ``table`` set to ``ops``."""
    args = {f.name: getattr(lex, f.name) for f in dataclasses.fields(lex) if f.init}
    return {**args, table: ops}


def refused(lex, table, ops, error, message):
    """Both ways of building a lexicon with ``table`` set to ``ops`` raise."""
    for build in (lambda: Lexicon(**with_table(lex, table, ops)),
                  lambda: dataclasses.replace(lex, **{table: ops})):
        with pytest.raises(error, match=message) as caught:
            build()
        assert isinstance(caught.value, ConvnegError)


class TestReadOnlyLexicon:
    """Both maps are read-only copies, checked once when the lexicon is
    built; a changed operator means a new lexicon, built with
    ``dataclasses.replace``."""

    @pytest.mark.parametrize("table", TABLES)
    def test_missing_entry_is_refused(self, fig1_lex, table):
        # so worldly_context never meets a word without a context
        ops = {c: op for c, op in getattr(fig1_lex, table).items() if c != "dog"}
        refused(fig1_lex, table, ops, UnknownWord, f"concept 'dog' has no entry in {table}")

    @pytest.mark.parametrize("table", TABLES)
    def test_extra_entry_is_refused(self, fig1_lex, table):
        ops = {**getattr(fig1_lex, table), "pluto": fig1_lex.word_ops["planet"]}
        refused(fig1_lex, table, ops, UnknownWord, f"{table} entry 'pluto' is not a concept")

    @pytest.mark.parametrize("table", TABLES)
    def test_wrong_dim_operator_is_refused(self, fig1_lex, table):
        ops = {**getattr(fig1_lex, table), "dog": diagonal([1.0, 0.0])}
        message = f"{table} operator for 'dog' has dim 2, leaf space has 4"
        refused(fig1_lex, table, ops, DimMismatch, message)

    @pytest.mark.parametrize("table", TABLES)
    def test_mislabelled_operator_is_refused(self, fig1_lex, table):
        # so a string's overlaps need no label check: every operator is
        # unlabelled or labelled by the leaves, in their order
        swapped = ("planet", "dog", "guinea_pig", "hamster")
        ops = {**getattr(fig1_lex, table), "dog": Operator(np.diag([0.0, 0.0, 1.0, 0.0]), swapped)}
        message = re.escape(
            f"{table} operator for 'dog' has labels (planet, dog, guinea_pig, hamster), "
            "leaf space is (hamster, guinea_pig, dog, planet)"
        )
        refused(fig1_lex, table, ops, DimMismatch, message)
        # unlabelled, or labelled by an equal tuple that is not the leaves itself
        for labels in ((), tuple(list(fig1_lex.leaves))):
            op = Operator(np.diag([0.0, 0.0, 1.0, 0.0]), labels)
            lex = dataclasses.replace(fig1_lex, **{table: {**getattr(fig1_lex, table), "dog": op}})
            assert getattr(lex, table)["dog"] is op
        # a built lexicon's operators hold the leaves tuple itself, so the check is O(1)
        assert all(op.labels is fig1_lex.leaves for op in getattr(fig1_lex, table).values())

    @pytest.mark.parametrize("table", TABLES)
    def test_maps_cannot_be_changed(self, fig1_lex, table):
        ops = getattr(fig1_lex, table)
        own = dict(ops)
        with pytest.raises((TypeError, AttributeError)):
            ops["dog"] = ops["planet"]
        with pytest.raises((TypeError, AttributeError)):
            ops.pop("dog")
        with pytest.raises((TypeError, AttributeError)):
            del ops["dog"]
        # the lexicon holds its own copy of the map it was given
        given = dict(own)
        lex = Lexicon(**with_table(fig1_lex, table, given))
        given["dog"] = own["planet"]
        del given["hamster"]
        assert dict(getattr(lex, table)) == own == dict(ops)

    def test_pickle_and_copies_keep_equal_read_only_maps(self):
        lex = build_lexicon(parse_taxonomy(FIG1_TSV), decay=0.5, name="fig1")
        for twin in (pickle.loads(pickle.dumps(lex)), copy.copy(lex), copy.deepcopy(lex)):
            assert (twin.concepts, twin.leaves, twin.decay, twin.name) == (
                lex.concepts, lex.leaves, lex.decay, lex.name
            )
            for table in TABLES:
                ops = getattr(twin, table)
                assert type(ops) is MappingProxyType
                assert list(ops) == list(getattr(lex, table))
                for c, op in ops.items():
                    want = getattr(lex, table)[c]
                    assert op.labels == want.labels
                    assert _entries(op).tobytes() == _entries(want).tobytes()
                with pytest.raises((TypeError, AttributeError)):
                    ops["dog"] = ops["planet"]
            # siblings still share one context operator
            assert twin.wc_ops["hamster"] is twin.wc_ops["guinea_pig"]
            assert not twin._smoothed and not twin._negations
        assert copy.copy(lex) == lex

    def test_unhashable_by_name(self, fig1_lex):
        # a lexicon's maps and a taxonomy's dicts are unhashable, so each
        # class says so itself; what holds one names it
        taxonomy = fig1_lex.taxonomy
        for value, name in [
            (fig1_lex, "Lexicon"),
            (taxonomy, "Taxonomy"),
            (Slot("dog", fig1_lex), "Lexicon"),
            (WordString((Slot("dog", fig1_lex),)), "Lexicon"),
            (Actor("Dog", "dog", fig1_lex), "Lexicon"),
            (UnaryGate("Dog", "dog", fig1_lex), "Lexicon"),
        ]:
            with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
                hash(value)
            with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
                hash(copy.copy(value))
        assert fig1_lex == dataclasses.replace(fig1_lex)
        assert taxonomy == dataclasses.replace(taxonomy)


def rotation(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def rotated(lex, q):
    """Every operator conjugated by ``q``: dense, non-diagonal store entries."""

    def rotate(op):
        m = q @ op.matrix @ q.T
        return Operator((m + m.T) / 2.0, op.labels)

    return dataclasses.replace(
        lex,
        word_ops={c: rotate(op) for c, op in lex.word_ops.items()},
        wc_ops={c: rotate(op) for c, op in lex.wc_ops.items()},
    )


def put(i, text):
    """A store damage: line ``i + 1`` replaced by ``text``."""
    return lambda ls: ls[:i] + [text] + ls[i + 1 :]


# SHA-256 of the stores ``golden_stores`` writes, recorded from the writer
# that sliced each diagonal row from a fresh string of zeros and built one
# worldly context per concept
GOLDEN_STORES = {
    "colors": "e44346411a05c66ea62655784edb06900ff470807fbdf52b888f958978717a7f",
    "drinks": "7b4a9188b60749a2779d099f8d8c79c5748e5c73b57a91986cdf337dac71fea7",
    "fig1": "12ee3a60db0b8de1cecc58f7e6b2a3f65300552e76311719f815d5c97b4084fd",
    "fig1-turned": "5e3d9dfbc8125dd857134f711b2aad2eaef110cc395c3cea4115ae7046596b94",
    "kinds": "b331fd69793df1344afdbbe81bba4909481caca4470105662762e46ecc826d72",
    "names": "3dc958fe72cd3d5de0b81f0374d39e3bfa3a7ed497e946649f13dcc4226b3520",
    "roles": "dd5b27747c59ca9ffdc4cf53bed13bd1352fcb8081a7281bfb429c00990858f1",
}


class TestStore:
    def test_golden_bytes(self, tmp_path):
        stores = golden_stores()
        assert sorted(stores) == sorted(GOLDEN_STORES)
        assert any(op._diag is None for op in stores["fig1-turned"].wc_ops.values())
        for name, lex in stores.items():
            path, again = tmp_path / f"{name}.lex", tmp_path / "again.lex"
            save_lexicon(lex, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_STORES[name], name
            save_lexicon(load_lexicon(path), again)
            assert again.read_bytes() == path.read_bytes(), name

    def test_round_trip_exact(self, fig1_lex, tmp_path):
        # a dense block's entries survive validation, so a rotated store
        # re-saves byte for byte too
        rng = np.random.default_rng(7)
        colors = build_lexicon(parse_taxonomy(COLORS_TSV))
        for lex in (fig1_lex, rotated(fig1_lex, rotation(rng, 4)), rotated(colors, rotation(rng, 3))):
            path, again = tmp_path / "a.lex", tmp_path / "b.lex"
            save_lexicon(lex, path)
            loaded = load_lexicon(path)
            assert loaded.leaves == lex.leaves
            assert loaded.concepts == lex.concepts
            assert loaded.decay == lex.decay
            for c in lex.concepts:
                for ops in ("word_ops", "wc_ops"):
                    want, got = getattr(lex, ops)[c], getattr(loaded, ops)[c]
                    assert got.matrix.tobytes() == want.matrix.tobytes()
                    assert (got._diag is None) == (want._diag is None)
            save_lexicon(loaded, again)
            assert again.read_bytes() == path.read_bytes()

    def test_writer_matches_per_entry_formatter(self, tmp_path, monkeypatch):
        """The writer puts each diagonal entry between zeros cut once per store
        and formats dense rows whole; its bytes equal the per-entry formatter
        (kept here) on each fixture's diagonal store and on a rotated, dense
        one."""

        def per_entry_lines(a, frames):
            lines = [f"OPERATOR {a.dim}"]
            lines.append("LABELS " + (",".join(a.labels) if a.labels else "-"))
            for row in a.matrix:
                lines.append(" ".join(repr(float(x)) for x in row))
            return lines

        rng = np.random.default_rng(7)
        for fixture in ("colors", "drinks", "fig1", "kinds", "names", "roles"):
            lex = build_lexicon(load_taxonomy(FIXTURES / f"{fixture}.tsv"))
            for store in (lex, rotated(lex, rotation(rng, lex.dim))):
                frames = row_frames(store.dim)
                for op in [*store.word_ops.values(), *store.wc_ops.values()]:
                    assert operator_to_lines(op, frames) == per_entry_lines(op, frames)
                new, old = tmp_path / "new.lex", tmp_path / "old.lex"
                save_lexicon(store, new)
                with monkeypatch.context() as m:
                    m.setattr(convneg.lexicon, "operator_to_lines", per_entry_lines)
                    save_lexicon(store, old)
                assert new.read_bytes() == old.read_bytes(), fixture

    def test_save_is_deterministic(self, fig1_lex, tmp_path):
        p1, p2 = tmp_path / "a.lex", tmp_path / "b.lex"
        save_lexicon(fig1_lex, p1)
        save_lexicon(fig1_lex, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, fig1_lex, tmp_path):
        path = tmp_path / "fig1.lex"
        save_lexicon(fig1_lex, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(ParseError):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "damage, line, message",
        [
            # lines 25-31 hold the second WC block (rodent); line 28 is its first row
            (lambda ls: ls[:27] + ["x 0.0 0.0 0.0"] + ls[28:], 28, "bad matrix entry"),
            (lambda ls: ls[:27] + [""] + ls[28:], 28, "expected 4 entries, got 0"),
            (lambda ls: ls[:26], 26, "unexpected end of operator block"),
            (put(0, "LEXICON v2"), 1, "expected header 'LEXICON v1'"),
            (put(1, "DECAYS 0.5"), 2, "expected 'DECAY <real>'"),
            (put(1, "DECAY half"), 2, "bad decay: could not convert"),
            (put(1, "DECAY 1.5"), 2, r"bad decay: decay must lie in \(0, 1\), got 1.5"),
            (put(2, "LEAF hamster"), 3, "expected 'LEAVES <comma list>'"),
            (put(2, "LEAVES hamster,,dog,planet"), 3, "leaf names must be nonempty and unique"),
            (put(2, "LEAVES dog,guinea_pig,dog,planet"), 3, "leaf names must be nonempty"),
            (put(24, "WX rodent"), 25, "expected 'WORD <name>' or 'WC <name>', got 'WX rodent'"),
            (put(24, "WC"), 25, "expected 'WORD <name>' or 'WC <name>', got 'WC'"),
            (put(25, "OPERATOR four"), 26, "bad operator dimension 'four'"),
            # a block's dim is checked against the leaves at its header, before its rows
            (put(25, "OPERATOR 0"), 26, "operator for 'rodent' has dim 0, leaf space has 4"),
            (
                lambda ls: ls[:25] + ["OPERATOR 1", "LABELS -", "1.0"] + ls[31:],
                26,
                "operator for 'rodent' has dim 1, leaf space has 4",
            ),
            # the leaves in another order: a block in another basis
            (put(26, "LABELS planet,dog,guinea_pig,hamster"), 27, "LABELS must be '-' or the LEAVES"),
            (put(26, "LABELS hamster,guinea_pig,dog,pluto"), 27, "LABELS must be '-' or the LEAVES"),
            (put(26, "LABELS hamster,guinea_pig,dog"), 27, "LABELS must be '-' or the LEAVES"),
            (put(26, "LABELS hamster,guinea_pig,dog,dog"), 27, "LABELS must be '-' or the LEAVES"),
            (put(24, "WC hamster"), 31, "duplicate WC block for 'hamster'"),
            (lambda ls: ls[:3], None, "lexicon store has no WORD blocks"),
            (lambda ls: ls + ["WC pluto", *ls[25:31]], None, "WC block without WORD block for: pluto"),
            # blank lines between blocks are skipped, and counted
            (lambda ls: ls[:24] + ["", ""] + ls[24:27] + ["x 0.0 0.0 0.0"] + ls[28:], 30, "bad matrix entry"),
        ],
        ids=[
            "bad-entry", "blank-row", "truncated", "header", "decay-line", "decay-value",
            "decay-range", "leaves-line", "empty-leaf", "duplicate-leaf", "block-kind",
            "block-name", "dimension-value", "dimension-range", "dimension-vs-leaves",
            "labels-order", "labels-names", "labels-count", "labels-repeated", "duplicate-block",
            "no-words", "orphan-wc", "blank-lines",
        ],
    )
    def test_error_names_the_line(self, fig1_lex, tmp_path, damage, line, message):
        path = tmp_path / "fig1.lex"
        save_lexicon(fig1_lex, path)
        lines = path.read_text().splitlines()
        assert lines[24:27] == ["WC rodent", "OPERATOR 4", "LABELS " + ",".join(fig1_lex.leaves)]
        path.write_text("\n".join(damage(lines)) + "\n")
        with pytest.raises(ParseError, match=message) as exc:
            load_lexicon(path)
        assert exc.value.line == line

    def test_claimed_dim_allocates_nothing_before_its_rows(self, tmp_path):
        # a header claiming 2,000,000 rows in a store of two leaves: the claim
        # is refused at its line, and nothing sized by it is allocated
        path = tmp_path / "claim.lex"
        rows = ["1.0 0.0", "0.0 1.0"]
        path.write_text(
            "\n".join(["LEXICON v1", "DECAY 0.5", "LEAVES l0,l1", "WORD a", "OPERATOR 2000000"])
            + "\n".join(["", "LABELS -", *rows, "WC a", "OPERATOR 2", "LABELS -", *rows, ""])
        )
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="'a' has dim 2000000, leaf space has 2") as exc:
                load_lexicon(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.line == 5
        assert peak < 1 << 20

    def test_truncated_block_is_not_an_earlier_block(self, tmp_path):
        # the last block ends after the first two rows of an earlier block of
        # the same dim and LABELS line: it is short, not that block again
        rows = ["1.0 0.0 0.0", "0.0 0.0 0.0", "0.0 0.0 0.0"]
        path = tmp_path / "short.lex"
        path.write_text(
            "\n".join(
                ["LEXICON v1", "DECAY 0.5", "LEAVES l0,l1,l2", "WORD a", "OPERATOR 3", "LABELS -"]
                + rows
                + ["WC a", "OPERATOR 3", "LABELS -"]
                + rows[:2]
            )
            + "\n"
        )
        with pytest.raises(ParseError, match="unexpected end of operator block") as exc:
            load_lexicon(path)
        assert exc.value.line == 14

    def test_entry_magnitude_is_bounded(self, fig1_lex, tmp_path):
        # hamster's WORD block holds diag(1, 0, 0, 0) on lines 7-10
        path = tmp_path / "fig1.lex"
        save_lexicon(fig1_lex, path)
        lines = path.read_text().splitlines()
        assert lines[3] == "WORD hamster" and lines[6] == "1.0 0.0 0.0 0.0"

        def load(rows):
            damaged = list(lines)
            for row, text in rows.items():
                damaged[row] = text
            path.write_text("\n".join(damaged) + "\n")
            return load_lexicon(path)

        assert load({6: f"{MAX_ENTRY!r} 0.0 0.0 0.0"}).word_ops["hamster"].max_eigenvalue() == MAX_ENTRY
        for rows, line in [
            ({6: "1e308 0.0 0.0 0.0"}, 7),
            ({6: f"{math.nextafter(MAX_ENTRY, math.inf)!r} 0.0 0.0 0.0"}, 7),
            ({8: "0.0 0.0 1.0 -1e301"}, 9),  # a dense block, off the diagonal
            ({6: "nan 0.0 0.0 0.0", 8: "0.0 0.0 1e308 0.0"}, 9),  # NaN first
            ({6: "inf 0.0 0.0 0.0", 9: "0.0 0.0 0.0 -1e308"}, 10),
        ]:
            with pytest.raises(ParseError, match="entry magnitude above 1e") as exc:
                load(rows)
            assert exc.value.line == line
        # non-finite entries keep their own message
        with pytest.raises(ParseError, match="finite"):
            load({6: "inf 0.0 0.0 0.0"})

    def test_corrupted_entry_fails_psd_validation(self, fig1_lex, tmp_path):
        path = tmp_path / "fig1.lex"
        save_lexicon(fig1_lex, path)
        text = path.read_text()
        # first WORD block is the hamster projector diag(1,0,0,0); flipping an
        # off-diagonal pair to 3.0 makes it indefinite
        lines = text.splitlines()
        start = lines.index("WORD hamster") + 3
        row0 = lines[start].split()
        row1 = lines[start + 1].split()
        row0[1] = "3.0"
        row1[0] = "3.0"
        lines[start] = " ".join(row0)
        lines[start + 1] = " ".join(row1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="invalid operator"):
            load_lexicon(path)

    def test_missing_wc_block(self, tmp_path):
        text = (
            "LEXICON v1\nDECAY 0.5\nLEAVES a\n"
            "WORD a\nOPERATOR 1\nLABELS a\n1.0\n"
        )
        path = tmp_path / "bad.lex"
        path.write_text(text)
        with pytest.raises(ParseError, match="missing WC"):
            load_lexicon(path)

    def test_leaf_without_word_block(self, fig1_lex, tmp_path):
        # it used to load, and every negate-word on it raised UnknownWord
        path = tmp_path / "noplanet.lex"
        save_lexicon(fig1_lex, path)
        path.write_text(without_blocks(path.read_text(), "planet"))
        with pytest.raises(ParseError, match="^line 3: leaf without a WORD block: planet$") as exc:
            load_lexicon(path)
        assert exc.value.line == 3

    def test_bare_leaf_labels_still_load(self, tmp_path):
        # no leaf is a word: the leaves only label the basis
        text = "LEXICON v1\nDECAY 0.5\nLEAVES l0\nWORD a\nOPERATOR 1\nLABELS -\n1.0\n"
        path = tmp_path / "bare.lex"
        path.write_text(text + text.split("\n", 3)[3].replace("WORD", "WC"))
        assert load_lexicon(path).leaves == ("l0",)

    def test_loaded_lexicon_has_no_taxonomy(self, fig1_lex, tmp_path):
        path = tmp_path / "fig1.lex"
        save_lexicon(fig1_lex, path)
        loaded = load_lexicon(path)
        assert loaded.taxonomy is None
        with pytest.raises(ConvnegError):
            loaded.hypernyms("hamster")
        # stored worldly contexts still work
        np.testing.assert_allclose(
            loaded.worldly_context("hamster").matrix,
            fig1_lex.worldly_context("hamster").matrix,
            atol=0,
        )

    def test_store_loaded_lexicon_names_what_needs_a_taxonomy(self, fig1_lex, tmp_path):
        save_lexicon(fig1_lex, tmp_path / "fig1.lex")
        loaded = load_lexicon(tmp_path / "fig1.lex")
        tail = " needs a taxonomy-backed lexicon (this one was loaded from an operator store)"
        for what, call in (
            ("hypernym listing", lambda: loaded.hypernyms("hamster")),
            ("decay override", lambda: loaded.worldly_context("hamster", decay=0.3)),
        ):
            with pytest.raises(ConvnegError) as exc:
                call()
            assert str(exc.value) == what + tail

    def test_loaded_lexicon_is_named_by_its_file_stem(self, fig1_lex, tmp_path):
        assert list(inspect.signature(load_lexicon).parameters) == ["path"]
        save_lexicon(fig1_lex, tmp_path / "rodents.lex")
        loaded = load_lexicon(tmp_path / "rodents.lex")
        assert loaded.name == "rodents"
        assert dataclasses.replace(loaded, name="pets").name == "pets"



# every line boundary str.splitlines knows
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def load_outcome(path):
    """A loaded store's words and operator entries, or its ParseError."""
    try:
        lex = load_lexicon(path)
    except ParseError as exc:
        return str(exc), exc.line
    return lex.concepts, lex.leaves, lex.decay, [
        (c, lex.word_ops[c].matrix.tobytes(), lex.wc_ops[c].matrix.tobytes()) for c in lex.concepts
    ]


class TestSplitLines:
    """A store's lines are split by ``str.splitlines``: any of its line
    breaks, mixed freely, reads as LF, and error line numbers count them."""

    @pytest.mark.parametrize("breaks", [("\r\n",), ("\r",), LINE_BREAKS], ids=["crlf", "cr", "mixed"])
    def test_any_line_break_reads_as_lf(self, breaks, tmp_path):
        save_lexicon(build_lexicon(parse_taxonomy(FIG1_TSV)), tmp_path / "lf.lex")
        lf = (tmp_path / "lf.lex").read_bytes()
        lines = lf.decode().split("\n")[:-1]

        def store(lines, name, final=True):
            text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
            (tmp_path / name).write_bytes(text.encode() if final else text.rstrip("".join(breaks)).encode())
            return tmp_path / name

        for final in (True, False):
            assert load_outcome(store(lines, "any.lex", final)) == load_outcome(tmp_path / "lf.lex")
        save_lexicon(load_lexicon(tmp_path / "any.lex"), tmp_path / "again.lex")
        assert (tmp_path / "again.lex").read_bytes() == lf
        for k in range(1, len(lines) + 1):
            damaged = lines[: k - 1] + ["junk"] + lines[k:]
            outcome = load_outcome(store(damaged, "bad.lex"))
            assert outcome[1] == k
            (tmp_path / "bad-lf.lex").write_text("\n".join(damaged) + "\n", encoding="utf-8")
            assert outcome == load_outcome(tmp_path / "bad-lf.lex")

    def test_empty_store(self, tmp_path):
        (tmp_path / "empty.lex").write_bytes(b"")
        assert load_outcome(tmp_path / "empty.lex") == ("line 0: unexpected end of lexicon file", 0)


def two_leaf_lexicon(leaves, concepts=("a",), labelled=True):
    """A lexicon over ``leaves``, each of ``concepts`` the first leaf's
    indicator with the identity context, its operators labelled or not."""
    labels = leaves if labelled else ()
    return Lexicon(
        concepts=concepts,
        leaves=leaves,
        word_ops={c: diagonal([1.0, 0.0], labels) for c in concepts},
        wc_ops={c: diagonal([1.0, 1.0], labels) for c in concepts},
        decay=0.5,
    )


class TestUnstorableNames:
    """save_lexicon refuses a leaf or concept name its store could not carry,
    naming it, before it writes a byte: each of these once saved a store
    that failed to load, or loaded other names."""

    @pytest.mark.parametrize(
        "leaf",
        # "b ": LABELS is read stripped, LEAVES is not; "b,c": splits into
        # three leaves; "b\nc": breaks the LEAVES line
        ["b ", "b,c", "b\nc", " b", "", "a", *(f"b{br}c" for br in LINE_BREAKS)],
        ids=["trailing-space", "comma", "newline", "leading-space", "empty", "repeated",
             *(f"break-{ord(br[0]):x}-{len(br)}" for br in LINE_BREAKS)],
    )
    def test_leaf_is_refused(self, leaf, tmp_path):
        # repeated names cannot label an operator's basis
        lex = two_leaf_lexicon(("a", leaf), labelled=leaf != "a")
        path = tmp_path / "bad.lex"
        with pytest.raises(ValueError, match=f"^leaf name {re.escape(repr(leaf))} cannot be written"):
            save_lexicon(lex, path)
        assert not path.exists()

    @pytest.mark.parametrize("concept", ["", *(f"x{br}y" for br in LINE_BREAKS)])
    def test_concept_is_refused(self, concept, tmp_path):
        lex = two_leaf_lexicon(("a", "b"), concepts=("a", "b", concept))
        path = tmp_path / "bad.lex"
        with pytest.raises(ValueError, match=f"^concept name {re.escape(repr(concept))} cannot be written"):
            save_lexicon(lex, path)
        assert not path.exists()

    def test_leaves_only_partly_words_are_refused(self, tmp_path):
        # load refuses such a store at its LEAVES line: leaf without a WORD block
        lex = Lexicon(
            concepts=("b",),
            leaves=("a", "b", "c"),
            word_ops={"b": diagonal([0.0, 1.0, 0.0])},
            wc_ops={"b": diagonal([1.0, 1.0, 1.0])},
            decay=0.5,
        )
        path = tmp_path / "bad.lex"
        with pytest.raises(ValueError, match="^leaf without a WORD block cannot be saved: a, c$"):
            save_lexicon(lex, path)
        assert not path.exists()
        with pytest.raises(ValueError, match="^leaf without a WORD block cannot be saved: b$"):
            save_lexicon(two_leaf_lexicon(("a", "b")), path)
        assert not path.exists()

    def test_leaves_that_are_all_bare_labels_round_trip(self, tmp_path):
        lex = two_leaf_lexicon(("l0", "l1"), concepts=("x",))
        save_lexicon(lex, tmp_path / "ok.lex")
        assert load_lexicon(tmp_path / "ok.lex").leaves == lex.leaves

    def test_names_the_store_can_carry_round_trip(self, tmp_path):
        # inner whitespace in a leaf, edge whitespace and commas in a concept
        lex = two_leaf_lexicon(("a", "b c"), concepts=("a", "b c", " x, y "))
        save_lexicon(lex, tmp_path / "ok.lex")
        loaded = load_lexicon(tmp_path / "ok.lex")
        assert (loaded.leaves, loaded.concepts) == (lex.leaves, lex.concepts)
