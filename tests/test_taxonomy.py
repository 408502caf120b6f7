import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convneg.errors import CyclicTaxonomy, ParseError, UnknownWord
from convneg.taxonomy import load_taxonomy, parse_taxonomy

from conftest import FIG1_TSV, FIXTURES, descendant_leaves, descendants


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
    for bad in ("not an edge line", "\tb", "a\t", " \t b", "a\t\tb"):
        with pytest.raises(ParseError, match="expected 'child<TAB>parent'") as exc:
            parse_taxonomy(f"a\tb\n{bad}\n")
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
    assert descendant_leaves(fig1, "rodent") == ("hamster", "guinea_pig")
    assert descendant_leaves(fig1, "entity") == ("hamster", "guinea_pig", "dog", "planet")
    assert descendant_leaves(fig1, "hamster") == ("hamster",)
    assert descendants(fig1, "rodent") == {"rodent", "hamster", "guinea_pig"}


def test_unknown_concept(fig1):
    with pytest.raises(UnknownWord):
        fig1.hypernyms("flubber")
    with pytest.raises(UnknownWord):
        descendant_leaves(fig1, "flubber")
    with pytest.raises(UnknownWord):
        descendants(fig1, "flubber")


# ---------------------------------------------------------------------------
# the Kahn pass against the colouring depth-first search it replaced


def reference_cycle(edges):
    """The CyclicTaxonomy message of the depth-first search over each
    concept's parents in file order, or None for an acyclic edge list."""
    order, parents = [], {}
    for child, parent in edges:
        for c in (child, parent):
            if c not in parents:
                order.append(c)
                parents[c] = []
        if parent not in parents[child]:
            parents[child].append(parent)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {c: WHITE for c in order}
    for start in order:
        if color[start] != WHITE:
            continue
        stack = [(start, 0)]
        path = [start]
        color[start] = GREY
        while stack:
            node, i = stack[-1]
            if i < len(parents[node]):
                stack[-1] = (node, i + 1)
                nxt = parents[node][i]
                if color[nxt] == GREY:
                    return "cycle: " + " -> ".join(path[path.index(nxt) :] + [nxt])
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


NAMES = "abcdefghi"


@settings(max_examples=500, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), min_size=1, max_size=14
    )
)
@example(edges=[("a", "a")])
@example(edges=[("a", "b"), ("a", "b"), ("b", "a")])
@example(edges=[("x", "a"), ("a", "b"), ("b", "a"), ("x", "c"), ("c", "d"), ("d", "c")])
@example(edges=[("d", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "d")])
@example(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
def test_kahn_pass_matches_depth_first_search(edges):
    text = "".join(f"{child}\t{parent}\n" for child, parent in edges)
    want = reference_cycle(edges)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate edges
        if want is not None:
            with pytest.raises(CyclicTaxonomy) as exc:
                parse_taxonomy(text)
            assert str(exc.value) == want
            return
        tax = parse_taxonomy(text)
    assert sorted(tax.bottom_up) == sorted(tax.order)
    position = {c: i for i, c in enumerate(tax.bottom_up)}
    assert all(position[child] < position[parent] for child, parent in tax.edges)


def test_cycle_message_names_the_first_cycle_met():
    # b is the first concept in file order below a cycle; its first parent
    # x is not, so the walk goes on through its second, c
    edges = [("a", "r"), ("b", "x"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "c"), ("x", "r")]
    text = "".join(f"{child}\t{parent}\n" for child, parent in edges)
    with pytest.raises(CyclicTaxonomy, match="^cycle: c -> d -> e -> c$"):
        parse_taxonomy(text)
    assert reference_cycle(edges) == "cycle: c -> d -> e -> c"

