import pytest

from convneg.errors import CyclicTaxonomy, ParseError, UnknownWord
from convneg.taxonomy import load_taxonomy, parse_taxonomy

from conftest import FIG1_TSV, FIXTURES


@pytest.fixture(scope="module")
def fig1():
    return parse_taxonomy(FIG1_TSV)


def test_fig1_leaves_and_dim(fig1):
    assert fig1.leaves == ("hamster", "guinea_pig", "dog", "planet")
    assert len(fig1.leaves) == 4
    assert fig1.roots == ("entity",)
    assert fig1.concepts == {
        "hamster", "guinea_pig", "rodent", "dog", "animal", "entity", "planet",
    }


def test_checked_in_fixture_matches_inline_text(fig1):
    on_disk = load_taxonomy(FIXTURES / "fig1.tsv")
    assert on_disk.leaves == fig1.leaves
    assert set(on_disk.edges) == set(fig1.edges)


def test_single_edge():
    tax = parse_taxonomy("a\troot\n")
    assert tax.leaves == ("a",)
    assert tax.roots == ("root",)


def test_cycle_detected():
    with pytest.raises(CyclicTaxonomy) as exc:
        parse_taxonomy("a\tb\nb\ta\n")
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_self_loop_is_a_cycle():
    with pytest.raises(CyclicTaxonomy):
        parse_taxonomy("a\ta\n")


def test_duplicate_edge_warns_and_deduplicates():
    with pytest.warns(UserWarning, match="duplicate edge"):
        tax = parse_taxonomy("a\tb\na\tb\n")
    assert tax.edges == (("a", "b"),)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_taxonomy("a\tb\nnot an edge line\n")
    assert exc.value.line == 2
    for bad in ("a,b\tc", "a\tb c"):
        with pytest.raises(ParseError, match="may not contain commas or whitespace") as exc:
            parse_taxonomy(f"a\tb\n{bad}\n")
        assert exc.value.line == 2


def test_comments_and_blank_lines_ignored():
    tax = parse_taxonomy("# heading\n\na\tb\n  \n# tail\n")
    assert tax.leaves == ("a",)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_taxonomy("# nothing here\n")


def test_hypernyms_chain(fig1):
    assert fig1.hypernyms("hamster") == (("rodent", 1), ("animal", 2), ("entity", 3))


def test_hypernyms_of_root_empty(fig1):
    assert fig1.hypernyms("entity") == ()


def test_hypernyms_two_parents_name_sorted():
    tax = parse_taxonomy("x\tbeta\nx\talpha\nbeta\troot\nalpha\troot\n")
    assert tax.hypernyms("x") == (("alpha", 1), ("beta", 1), ("root", 2))


def test_hypernyms_shortest_path_in_dag():
    # c is reachable from w both directly and through b; depth is the shorter one
    tax = parse_taxonomy("w\tb\nw\tc\nb\tc\nc\troot\n")
    assert tax.hypernyms("w") == (("b", 1), ("c", 1), ("root", 2))


def test_descendant_leaves(fig1):
    assert fig1.descendant_leaves("rodent") == ("hamster", "guinea_pig")
    assert fig1.descendant_leaves("entity") == ("hamster", "guinea_pig", "dog", "planet")
    assert fig1.descendant_leaves("hamster") == ("hamster",)
    assert fig1.descendants("rodent") == {"rodent", "hamster", "guinea_pig"}


def test_unknown_concept(fig1):
    with pytest.raises(UnknownWord):
        fig1.hypernyms("flubber")
    with pytest.raises(UnknownWord):
        fig1.descendant_leaves("flubber")
    with pytest.raises(UnknownWord):
        fig1.descendants("flubber")
