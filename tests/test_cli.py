import ast
import dataclasses
import hashlib
import importlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convneg
import convneg.cli
import convneg.strings
from conftest import FIXTURES, dag_tsv, golden_stores, without_blocks
from convneg.cli import run
from convneg.lexicon import save_lexicon
from convneg.operators import Operator
from test_acceptance import DiagOracle

F1 = str(FIXTURES / "fig1.tsv")
F2 = f"{FIXTURES / 'colors.tsv'},{FIXTURES / 'drinks.tsv'}"
F3 = f"{FIXTURES / 'names.tsv'},{FIXTURES / 'kinds.tsv'},{FIXTURES / 'roles.tsv'}"
STORY = str(FIXTURES / "story.txt")


def invoke(*argv):
    out, err = StringIO(), StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def readme_output(command: str) -> str:
    """The output README shows under the example that starts ``$ convneg <command>``."""
    lines = (FIXTURES.parent / "README.md").read_text(encoding="utf-8").splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(f"$ convneg {command}"))
    while lines[i].endswith("\\"):
        i += 1
    end = next(k for k in range(i + 1, len(lines)) if not lines[k] or lines[k] == "```")
    return "\n".join(lines[i + 1 : end]) + "\n"


def readme_commands() -> list[tuple[str, list[str]]]:
    """Each ``$ convneg`` example in README's CLI section: its first line, as
    readme_output finds it, and its arguments, continuation lines joined."""
    lines = (FIXTURES.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## CLI")
    end = next(k for k in range(start + 1, len(lines)) if lines[k].startswith("## "))
    out, section = [], iter(lines[start:end])
    for line in section:
        if line.startswith("$ convneg "):
            first = line.removeprefix("$ convneg ").removesuffix("\\").rstrip()
            words = [line]
            while words[-1].endswith("\\"):
                words[-1] = words[-1].removesuffix("\\")
                words.append(next(section))
            out.append((first, shlex.split(" ".join(words))[2:]))
    assert out, "README's CLI section shows no $ convneg example"
    return out


def readme_python() -> str:
    """The ``python`` code block of README's Python API section."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Python API")) + len("```python\n")
    return text[start : text.index("```", start)]


class TestReadmeExamples:
    @pytest.mark.parametrize("first, argv", [pytest.param(*c, id=c[0]) for c in readme_commands()])
    def test_stdout_is_byte_identical(self, monkeypatch, first, argv):
        monkeypatch.chdir(FIXTURES.parent)
        assert invoke(*argv) == (0, readme_output(first), "")

    def test_python_api_block_runs_as_written(self, monkeypatch):
        # from the repo root; an expression's value must read as the comment
        # line under it, each "..." standing for more digits
        monkeypatch.chdir(FIXTURES.parent)
        block = readme_python()
        lines, namespace, checked = block.splitlines(), {}, 0
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.end_lineno].removeprefix("# ")
            assert re.fullmatch(re.escape(comment).replace(re.escape("..."), r"\d*"), repr(value))
            checked += 1
        assert checked == 1


class TestNegateWord:
    def test_hamster_table(self):
        code, out, err = invoke("negate-word", "hamster", "--taxonomy", F1, "--sigma", "0")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "concept", "score"]
        assert [l.split() for l in lines[1:]] == [
            ["1", "guinea_pig", "0.636364"],
            ["2", "dog", "0.272727"],
            ["3", "planet", "0.090909"],
        ]

    def test_top_limits_rows(self):
        code, out, _ = invoke(
            "negate-word", "hamster", "--taxonomy", F1, "--sigma", "0", "--top", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_tsv_format(self):
        code, out, _ = invoke(
            "negate-word", "hamster", "--taxonomy", F1, "--sigma", "0", "--format", "tsv"
        )
        assert code == 0
        assert out.splitlines()[1] == "1\tguinea_pig\t0.636364"

    def test_pinv_and_conjugate_run(self):
        code, out, _ = invoke(
            "negate-word", "hamster", "--taxonomy", F1,
            "--neg", "pinv", "--comp", "conjugate",
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_unknown_word(self):
        code, out, err = invoke("negate-word", "flubber", "--taxonomy", F1)
        assert code == 1
        assert out == ""
        assert "UnknownWord" in err and "flubber" in err

    def test_zero_negation(self):
        code, _, err = invoke("negate-word", "entity", "--taxonomy", F1)
        assert code == 1
        assert "ZeroNegation" in err

    def test_bad_choice_is_usage_error(self):
        code, _, _ = invoke("negate-word", "hamster", "--taxonomy", F1, "--neg", "xor")
        assert code == 2

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = invoke("negate-word", "hamster", "--taxonomy", F1, "--frobnicate")
        assert code == 2

    def test_negative_sigma_is_domain_error(self):
        code, _, err = invoke("negate-word", "hamster", "--taxonomy", F1, "--sigma", "-1")
        assert code == 1
        assert "ValueError" in err


class TestNegateString:
    def test_red_wine_weights(self):
        code, out, err = invoke(
            "negate-string", "red wine", "--follow-up", "white wine",
            "--taxonomies", F2, "--lambda", "0.75", "--sigma", "0.5",
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].split() == ["subset", "weight", "score"]
        assert [l.split() for l in lines[1:4]] == [
            ["{red}", "0.705882", "0.666667"],
            ["{wine}", "0.117647", "0.111111"],
            ["{red,wine}", "0.176471", "0.166667"],
        ]
        assert lines[4] == "best {red} 0.666667"

    def test_scores_once(self, monkeypatch):
        """One request: 2n overlaps and n negations (n = 2), README's output."""
        calls = {"overlap_score": 0, "cn_word": 0}

        def counting(name):
            real = getattr(convneg.strings, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(convneg.strings, name, counting(name))
        code, out, err = invoke(
            "negate-string", "red wine", "--follow-up", "white wine", "--taxonomies", F2
        )
        assert (code, err) == (0, "")
        assert calls == {"overlap_score": 4, "cn_word": 2}
        assert out == readme_output("negate-string")

    def test_too_many_words(self):
        words = " ".join(["red wine white beer juice"] * 5).split()[:21]
        code, out, err = invoke(
            "negate-string", " ".join(words), "--follow-up", " ".join(words),
            "--taxonomies", F2,
        )
        assert (code, out) == (1, "")
        assert err == "error: TooManyWords: string length must lie in 1..20, got 21\n"

    def test_misaligned_follow_up(self):
        code, _, err = invoke(
            "negate-string", "red wine", "--follow-up", "white",
            "--taxonomies", F2,
        )
        assert code == 1
        assert "AlignmentError" in err

    def test_ambiguous_word(self, tmp_path):
        dup = tmp_path / "dup.tsv"
        dup.write_text("red\tpaint\nblue\tpaint\n")
        code, _, err = invoke(
            "negate-string", "red", "--follow-up", "blue",
            "--taxonomies", f"{F2},{dup}",
        )
        assert code == 1
        assert "AmbiguousWord" in err


class TestNonFiniteSigma:
    @pytest.mark.parametrize(
        "argv",
        [
            ("negate-word", "hamster", "--taxonomy", F1, "--sigma", "nan"),
            ("negate-word", "hamster", "--taxonomy", F1, "--sigma", "inf"),
            ("negate-string", "red wine", "--follow-up", "white wine",
             "--taxonomies", F2, "--sigma", "inf"),
            ("negate-string", "red wine", "--follow-up", "white wine",
             "--taxonomies", F2, "--sigma", "nan"),
            ("entail", "hamster", "rodent", "--taxonomy", F1, "--sigma", "nan"),
            ("text", "negate-actor", STORY, "Alice", "--taxonomies", F3,
             "--rank", "--sigma", "inf"),
        ],
    )
    def test_rejected_naming_sigma(self, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = invoke(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValueError: ") and "sigma" in err
        assert err.count("\n") == 1
        assert [str(w.message) for w in caught] == []


class TestRejectedArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            # the size prior alone (no --rank, no --context) checks lambda too
            (("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--lambda", "2"),
             "lambda_size must lie in (0, 1], got 2.0"),
            (("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--lambda", "0"),
             "lambda_size must lie in (0, 1], got 0.0"),
            (("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--lambda", "-1"),
             "lambda_size must lie in (0, 1], got -1.0"),
            (("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--lambda", "nan"),
             "lambda_size must lie in (0, 1], got nan"),
            (("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--rank", "--lambda", "2"),
             "lambda_size must lie in (0, 1], got 2.0"),
            (("negate-string", "red wine", "--follow-up", "white wine", "--taxonomies", F2,
              "--lambda", "2"), "lambda_size must lie in (0, 1], got 2.0"),
            (("negate-string", "red", "--follow-up", "white", "--taxonomies", ","),
             "no taxonomy files given"),
            # an empty word string is named by its argument
            (("negate-string", "", "--follow-up", "white wine", "--taxonomies", F2),
             "the string is empty: a word string needs at least one position"),
            (("negate-string", "red wine", "--follow-up", " ", "--taxonomies", F2),
             "--follow-up is empty: a word string needs at least one position"),
            (("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--context", " "),
             "--context is empty: a word string needs at least one position"),
            (("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--context", ""),
             "--context is empty: a word string needs at least one position"),
        ],
        ids=["prior-2", "prior-0", "prior-negative", "prior-nan", "rank-2", "string-2",
             "no-taxonomies", "empty-string", "empty-follow-up", "blank-context", "empty-context"],
    )
    def test_error_line(self, argv, message):
        code, out, err = invoke(*argv)
        assert (code, out, err) == (1, "", f"error: ValueError: {message}\n")


class TestClosedPipe:
    def test_reader_leaving_is_not_an_error(self):
        # 2^14 rows overflow the pipe after the reader has taken one line
        words = " ".join(["red wine white beer juice"] * 3).split()[:14]
        argv = ["negate-string", " ".join(words), "--follow-up", " ".join(words),
                "--taxonomies", F2]
        src = str(Path(convneg.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        with subprocess.Popen(
            [sys.executable, "-m", "convneg.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline().split() == [b"subset", b"weight", b"score"]
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 1


class TestEntail:
    def test_khyp_directions(self):
        code, out, _ = invoke(
            "entail", "hamster", "rodent", "--taxonomy", F1, "--measure", "khyp"
        )
        assert (code, out) == (0, "1.000000\n")
        _, out, _ = invoke(
            "entail", "rodent", "hamster", "--taxonomy", F1, "--measure", "khyp"
        )
        assert out == "0.000000\n"

    @pytest.mark.parametrize(
        "edits, directions",
        [
            # hamster's WORD entry 1e300, rodent's two 1e-12: k is subnormal
            ({7: "1e+300 0.0 0.0 0.0", 21: "1e-12 0.0 0.0 0.0", 22: "0.0 1e-12 0.0 0.0"}, 1),
            ({7: "1e+200 0.0 0.0 0.0"}, 2),
        ],
        ids=["1e300-1e-12", "1e200"],
    )
    def test_khyp_on_a_scaled_diagonal_store(self, tmp_path, edits, directions):
        # the first store printed nan, exit 0, through the dense fallback
        store = tmp_path / "fig1.lex"
        invoke("lexicon", "build", F1, "--out", str(store))
        lines = store.read_text().splitlines()
        assert (lines[3], lines[17]) == ("WORD hamster", "WORD rodent")
        for number, line in edits.items():
            lines[number - 1] = line
        store.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke("lexicon", "check", str(store))[0] == 0
            for a, b in (("hamster", "rodent"), ("rodent", "hamster"))[:directions]:
                argv = ("entail", a, b, "--taxonomy", str(store), "--measure", "khyp")
                assert invoke(*argv) == (0, "0.000000\n", "")

    def test_khyp_on_a_scaled_dense_store(self, tmp_path):
        # fig1-turned with hamster's WORD operator times 1e300 and rodent's
        # times 1e-12: the whitened matrix overflowed, and khyp printed nan
        lex = golden_stores()["fig1-turned"]
        ops = dict(lex.word_ops)
        ops["hamster"] = Operator(ops["hamster"].matrix * 1e300, lex.leaves)
        ops["rodent"] = Operator(ops["rodent"].matrix * 1e-12, lex.leaves)
        store = tmp_path / "turned.lex"
        save_lexicon(dataclasses.replace(lex, word_ops=ops), store)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke("lexicon", "check", str(store))[0] == 0
            argv = ("entail", "hamster", "rodent", "--taxonomy", str(store), "--measure", "khyp")
            assert invoke(*argv) == (0, "0.000000\n", "")

    def test_overlap(self):
        code, out, _ = invoke(
            "entail", "dog", "planet", "--taxonomy", F1,
            "--measure", "overlap", "--sigma", "0",
        )
        assert (code, out) == (0, "0.000000\n")


class TestPrintedScoresAreExact:
    """On generated diagonal taxonomies, every score ``negate-word`` and
    ``entail --measure overlap`` print lies within half a printed unit
    (5e-7), plus 1e-12, of the exact Fraction model's value. Scores are
    compared concept by concept: near-ties may order differently in floats."""

    BOUND = Fraction(5, 10**7) + Fraction(1, 10**12)

    @settings(max_examples=25, deadline=None)
    @given(
        n_leaves=st.sampled_from((3, 5, 12, 31, 40, 64)),
        ragged=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from(("0", "0.25", "0.5")),
        pick=st.integers(0, 10**6),
    )
    def test_negate_word_and_overlap(self, n_leaves, ragged, seed, sigma, pick):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dag.tsv"
            path.write_text(dag_tsv(seed, n_leaves, ragged), encoding="utf-8")
            oracle, exact_sigma = DiagOracle(path), Fraction(sigma)
            concepts = list(oracle.parents)
            word, other = concepts[pick % len(concepts)], concepts[pick // len(concepts) % len(concepts)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                negated = invoke("negate-word", word, "--taxonomy", str(path), "--sigma", sigma, "--format", "tsv")
                entailed = invoke("entail", word, other, "--taxonomy", str(path), "--measure", "overlap", "--sigma", sigma)
        kept = [(1 - p) * w for p, w in zip(oracle.indicator(word), oracle.wc(word))]
        if not any(kept):
            assert negated[0] == 1 and negated[2].startswith("error: ZeroNegation: ")
        else:
            code, out, err = negated
            assert (code, err) == (0, "")
            printed = {concept: Fraction(score) for _, concept, score in (line.split("\t") for line in out.splitlines()[1:])}
            assert set(printed) == set(oracle.leaves) - {word}
            state = oracle.cn(word)
            for leaf, score in printed.items():
                assert abs(score - oracle.overlap(state, leaf, exact_sigma)) <= self.BOUND, (word, leaf)
        code, out, err = entailed
        assert (code, err) == (0, "")
        exact = oracle.overlap(oracle.indicator(word), other, exact_sigma)
        assert abs(Fraction(out.strip()) - exact) <= self.BOUND, (word, other)


class TestTaxonomyAndLexicon:
    def test_validate_reports_shape(self):
        code, out, _ = invoke("taxonomy", "validate", F1)
        assert code == 0
        assert out == "ok: 7 concepts, 4 leaves, 1 roots, 6 edges\n"

    def test_validate_cycle(self, tmp_path):
        cyc = tmp_path / "cyc.tsv"
        cyc.write_text("a\tb\nb\ta\n")
        code, _, err = invoke("taxonomy", "validate", str(cyc))
        assert code == 1
        assert "CyclicTaxonomy" in err and "a -> b -> a" in err

    def test_taxonomy_whose_first_concept_starts_with_lexicon(self, tmp_path):
        # its first line starts like a store header but holds a tab: a TSV
        tsv = tmp_path / "it.tsv"
        tsv.write_text("LEXICON_ENTRY\tword\nhamster\tword\n")
        assert invoke("taxonomy", "validate", str(tsv)) == (
            0, "ok: 3 concepts, 2 leaves, 1 roots, 2 edges\n", ""
        )
        store = str(tmp_path / "it.lex")
        assert invoke("lexicon", "build", str(tsv), "--out", store)[0] == 0
        direct = invoke("negate-word", "hamster", "--taxonomy", str(tsv), "--sigma", "0")
        assert direct[0] == 0 and direct[1].splitlines()[1].split()[1] == "LEXICON_ENTRY"
        assert invoke("negate-word", "hamster", "--taxonomy", store, "--sigma", "0") == direct
        assert invoke("entail", "hamster", "word", "--taxonomy", str(tsv)) == (0, "1.000000\n", "")

    def test_missing_file(self):
        code, _, err = invoke("taxonomy", "validate", "/nonexistent/f.tsv")
        assert code == 1
        assert "FileNotFoundError" in err

    def test_build_check_and_reuse(self, tmp_path):
        store = tmp_path / "fig1.lex"
        code, out, _ = invoke("lexicon", "build", F1, "--out", str(store))
        assert code == 0
        assert out.startswith(f"wrote {store}: 7 concepts, dim 4")
        code, out, _ = invoke("lexicon", "check", str(store))
        assert code == 0
        assert out == "ok: 7 concepts, dim 4, decay 0.5\n"
        # the store drives negation exactly like the taxonomy it came from
        _, direct, _ = invoke("negate-word", "hamster", "--taxonomy", F1, "--sigma", "0")
        _, via_store, _ = invoke(
            "negate-word", "hamster", "--taxonomy", str(store), "--sigma", "0"
        )
        assert via_store == direct

    def test_decay_validation(self, tmp_path):
        code, _, err = invoke(
            "lexicon", "build", F1, "--out", str(tmp_path / "x.lex"), "--decay", "1.5"
        )
        assert code == 1
        assert "ValueError" in err

    def test_store_with_bare_leaves(self, tmp_path):
        from convneg.lexicon import Lexicon, save_lexicon
        from convneg.operators import diagonal, identity

        # no leaf is a word: entail answers, negate-word says why it cannot
        ops = {"x": diagonal([1.0, 0.5, 0.0]), "y": diagonal([0.0, 1.0, 1.0])}
        lex = Lexicon(("x", "y"), ("l0", "l1", "l2"), ops, dict.fromkeys(ops, identity(3)), 0.5)
        store = str(tmp_path / "bare.lex")
        save_lexicon(lex, store)
        assert invoke("lexicon", "check", store) == (0, "ok: 2 concepts, dim 3, decay 0.5\n", "")
        assert invoke("entail", "x", "y", "--taxonomy", store)[0] == 0
        code, out, err = invoke("negate-word", "x", "--taxonomy", store)
        assert (code, out) == (1, "")
        assert err == (
            "error: UnknownWord: no leaf of lexicon 'bare' is a word: its leaves are "
            "bare basis labels, so there are no alternatives to rank\n"
        )

    def test_corrupted_store(self, tmp_path):
        store = tmp_path / "fig1.lex"
        invoke("lexicon", "build", F1, "--out", str(store))
        text = store.read_text().replace("1.0", "abc", 1)
        store.write_text(text)
        code, _, err = invoke("lexicon", "check", str(store))
        assert code == 1
        assert "ParseError" in err

    def test_oversized_store_entry_is_a_parse_error(self, tmp_path):
        # it used to pass `lexicon check`, and khyp printed nan after a numpy
        # overflow warning
        store = tmp_path / "fig1.lex"
        invoke("lexicon", "build", F1, "--out", str(store))
        lines = store.read_text().splitlines()
        assert lines[3] == "WORD hamster" and lines[6] == "1.0 0.0 0.0 0.0"
        lines[6] = "1e308 0.0 0.0 0.0"
        store.write_text("\n".join(lines) + "\n")
        want = (1, "", "error: ParseError: line 7: entry magnitude above 1e+300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke("lexicon", "check", str(store)) == want
            assert invoke("entail", "hamster", "rodent", "--taxonomy", str(store), "--measure", "khyp") == want
            assert invoke("negate-word", "hamster", "--taxonomy", str(store)) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ("negate-word", "hamster", "--taxonomy"),
            ("negate-word", "hamster", "--neg", "pinv", "--comp", "conjugate", "--taxonomy"),
            ("entail", "hamster", "rodent", "--taxonomy"),
            ("entail", "hamster", "rodent", "--measure", "khyp", "--taxonomy"),
            ("negate-string", "hamster", "--follow-up", "rodent", "--taxonomies"),
            ("negate-string", "dog hamster", "--follow-up", "rodent dog", "--taxonomies"),
        ],
    )
    def test_zero_word_operator_is_named(self, tmp_path, argv):
        # the store passes `lexicon check`; the errors used to name no word
        store = tmp_path / "fig1.lex"
        invoke("lexicon", "build", F1, "--out", str(store))
        lines = store.read_text().splitlines()
        assert lines[3] == "WORD hamster" and lines[6] == "1.0 0.0 0.0 0.0"
        lines[6] = "0.0 0.0 0.0 0.0"
        store.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke("lexicon", "check", str(store))[0] == 0
            assert invoke(*argv, str(store)) == (
                1, "", "error: ZeroOperator: word 'hamster' has the zero operator\n"
            )

    def test_leaf_without_word_block_is_a_parse_error(self, tmp_path):
        # it used to pass `lexicon check`, then negate-word failed on the leaf
        store = tmp_path / "noplanet.lex"
        invoke("lexicon", "build", F1, "--out", str(store))
        store.write_text(without_blocks(store.read_text(), "planet"))
        want = (1, "", "error: ParseError: line 3: leaf without a WORD block: planet\n")
        assert invoke("lexicon", "check", str(store)) == want
        assert invoke("negate-word", "hamster", "--taxonomy", str(store)) == want

    def test_store_rejects_decay_override(self, tmp_path):
        store = tmp_path / "fig1.lex"
        invoke("lexicon", "build", F1, "--out", str(store))
        code, _, err = invoke(
            "negate-word", "hamster", "--taxonomy", str(store), "--decay", "0.7"
        )
        assert code == 1
        assert "taxonomy-backed" in err


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a ParseError naming the file and its line,
    for every kind of input file and every command that reads it."""

    COMMANDS = {
        "taxonomy": [
            ["taxonomy", "validate", "BAD"],
            ["lexicon", "build", "BAD", "--out", "OUT"],
            ["negate-word", "a", "--taxonomy", "BAD"],
            ["negate-string", "a", "--follow-up", "c", "--taxonomies", "BAD"],
            ["entail", "a", "b", "--taxonomy", "BAD"],
        ],
        "store": [
            ["lexicon", "check", "BAD"],
            ["negate-word", "hamster", "--taxonomy", "BAD"],
        ],
        "script": [["text", "negate-actor", "BAD", "Alice", "--taxonomies", F3]],
    }

    @pytest.mark.parametrize("kind", sorted(COMMANDS))
    def test_error_names_file_and_line(self, kind, tmp_path):
        bad = tmp_path / "bad"
        if kind == "taxonomy":
            # the bad byte starts its line
            lines, line = [b"a\tb", b"\xffc\tb"], 2
        elif kind == "store":
            invoke("lexicon", "build", F1, "--out", str(tmp_path / "fig1.lex"))
            lines, line = (tmp_path / "fig1.lex").read_bytes().split(b"\n"), 5
            lines[4] += b"\xff"
        else:
            lines, line = (FIXTURES / "story.txt").read_bytes().split(b"\n"), 3
            lines[2] = b"Bob is a \xff."
        bad.write_bytes(b"\n".join(lines))
        want = f"error: ParseError: line {line}: {str(bad)!r} is not UTF-8 text (invalid start byte)\n"
        for command in self.COMMANDS[kind]:
            argv = [{"BAD": str(bad), "OUT": str(tmp_path / "out.lex")}.get(a, a) for a in command]
            assert invoke(*argv) == (1, "", want), command


class TestNegateActor:
    def test_rank_table(self):
        code, out, err = invoke(
            "text", "negate-actor", STORY, "Alice", "--taxonomies", F3,
            "--rank", "--sigma", "0", "--lambda", "0.75",
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "actor", "subset", "score"]
        assert [l.split() for l in lines[1:]] == [
            ["1", "Bob", "{Alice,archaeologist}", "0.143182"],
            ["2", "Claire", "{Alice,archaeologist}", "0.061364"],
            ["3", "Daisy", "{Alice,human,archaeologist}", "0.002557"],
        ]

    def test_mixture_table(self):
        code, out, _ = invoke(
            "text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--sigma", "0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["subset", "weight"]
        assert len(lines) == 8  # header + 7 subsets
        weights = [float(l.split()[1]) for l in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=5e-6)  # printed at 6 decimals
        assert lines[1].split()[0] == "{Alice}"

    def test_context_shifts_weights(self):
        code, out, _ = invoke(
            "text", "negate-actor", STORY, "Alice", "--taxonomies", F3,
            "--context", "bob human biologist", "--sigma", "0",
        )
        assert code == 0
        top = out.splitlines()[1].split()
        # the follow-up singles out {Alice,archaeologist}
        rows = {l.split()[0]: float(l.split()[1]) for l in out.splitlines()[1:]}
        assert max(rows, key=rows.get) == "{Alice,archaeologist}"
        assert top[0] == "{Alice}"

    def test_context_reads_names_as_the_script_does(self):
        # the script and the labels say "Bob"; the names lexicon holds "bob"
        argv = ("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, "--context")
        code, out, err = invoke(*argv, "Bob human biologist")
        assert (code, err) == (0, "")
        assert (code, out, err) == invoke(*argv, "bob human biologist")
        assert invoke(*argv, "Flubber human biologist") == (
            1, "", "error: UnknownWord: word 'Flubber' not found in any loaded lexicon\n"
        )

    def test_rank_labels_skip_the_actors_verb_slots(self, tmp_path):
        # a verb gate on Alice herself is not one of her own words: ranking
        # scores and labels only her name and attributes
        script = tmp_path / "story.txt"
        story = Path(STORY).read_text(encoding="utf-8")
        script.write_text("Alice loves Alice.\n" + story, encoding="utf-8")
        verbs = tmp_path / "verbs.tsv"
        verbs.write_text("loves\tfeels\n")
        code, out, err = invoke(
            "text", "negate-actor", str(script), "Alice", "--taxonomies", f"{F3},{verbs}",
            "--rank", "--sigma", "0",
        )
        assert (code, err) == (0, "")
        assert out == readme_output("text negate-actor fixtures/story.txt Alice")

    def test_long_actor_negates(self, tmp_path):
        # 18 contributing words: the mixture's weights need a correctly
        # rounded sum to pass the unit-sum check
        lines = ["Alice is a human.", "Alice is an archaeologist."] * 9
        script = tmp_path / "long.txt"
        script.write_text("\n".join(lines[:17]) + "\n", encoding="utf-8")
        code, out, err = invoke(
            "text", "negate-actor", str(script), "Alice", "--taxonomies", F3,
            "--lambda", "1.0", "--format", "tsv",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 2**18 - 1
        assert rows[0] == "{Alice}\t0.000004"  # uniform: 1 / (2^18 - 1)

    def test_unknown_actor(self):
        code, _, err = invoke(
            "text", "negate-actor", STORY, "Eve", "--taxonomies", F3, "--rank"
        )
        assert code == 1
        assert "UnknownActor" in err

    def test_misaligned_rival_is_named(self, tmp_path):
        script = tmp_path / "story.txt"
        script.write_text(
            "Alice is a human.\nBob is a human.\nClaire is a human.\nClaire is a pianist.\n",
            encoding="utf-8",
        )
        code, out, err = invoke(
            "text", "negate-actor", str(script), "Alice", "--taxonomies", F3, "--rank"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: AlignmentError: actor 'Claire' against 'Alice': "
            "length mismatch: 2 positions vs 3\n"
        )


class TestNegateActorDigests:
    """Every negate-actor output, its stdout pinned by SHA-256."""

    CASES = {
        "mixture": ([], "55ae8e8a5fc6b825368eb3960418721a787241d7ab4e40bae9d2f55f040f676f"),
        "mixture-context": (
            ["--context", "bob human biologist"],
            "7422c93694ccc3f28a6f71987735fb4a76c4de66d631801c6e59a9fd8136c915",
        ),
        "rank-sigma-0": (
            ["--rank", "--sigma", "0"],
            "32bbdb30113b5aab252af138b505489c5beb06ed073e162bc4226c170bc219eb",
        ),
        "rank-sigma-0.5": (
            ["--rank", "--sigma", "0.5"],
            "a8d305d78eb922e4d46218f68f7596c6e41b9e2c6462915a8cd0fde347fe39f6",
        ),
        "mixture-tsv": (
            ["--format", "tsv"],
            "15fc0a5dd541536beecc5064d5763e62c4cb58de12c142266d7078aa3122bd18",
        ),
        "rank-tsv": (
            ["--rank", "--format", "tsv"],
            "f505ab835fc5f52f8d00aacc088f9e0c5433f020a539d45a169371d9ad584c98",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_story_alice(self, case):
        flags, digest = self.CASES[case]
        code, out, err = invoke("text", "negate-actor", STORY, "Alice", "--taxonomies", F3, *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_lone_actor_ranks_nobody(self, tmp_path):
        script = tmp_path / "lone.txt"
        script.write_text("Alice is a human.\n", encoding="utf-8")
        code, out, err = invoke(
            "text", "negate-actor", str(script), "Alice", "--taxonomies", F3, "--rank"
        )
        assert (code, out, err) == (0, "rank  actor  subset  score\n", "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "37b57cf99ea250dc41fb2d26da0b1577035996b8271a369d47b38f15821a28b9"
        )


class TestDemoScripts:
    """Each scripts/*.py demo, run under -W error, its stdout pinned by SHA-256."""

    DIGESTS = {
        "actor_ranking_demo.py": "edcd838c1d0eb1976d5b9beaebdb7c5122e73d33b1ebc9f86a0522e3f81ad32e",
        "follow_up_weights_demo.py": "e8123d3c7fed381fc43349dad9d3de5ee38228f29174e859f463d5eaba337bf4",
        "word_alternatives_demo.py": "c939a98b08c5f98c5ad53c3fd51c6f2ca962adf009eab416fc60202bd0903f35",
    }

    def test_every_demo_is_pinned(self):
        assert sorted(p.name for p in (FIXTURES.parent / "scripts").glob("*.py")) == sorted(
            self.DIGESTS
        )

    @pytest.mark.parametrize("demo", DIGESTS)
    def test_stdout_digest(self, demo):
        src = str(Path(convneg.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-W", "error", str(FIXTURES.parent / "scripts" / demo)],
            env=env, capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == self.DIGESTS[demo]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("negate-word", "hamster", "--taxonomy", F1, "--sigma", "0"),
            (
                "negate-string", "red wine", "--follow-up", "white wine",
                "--taxonomies", F2, "--lambda", "0.75", "--sigma", "0.5",
            ),
            (
                "text", "negate-actor", STORY, "Alice", "--taxonomies", F3,
                "--rank", "--sigma", "0", "--lambda", "0.75",
            ),
            ("entail", "hamster", "rodent", "--taxonomy", F1, "--measure", "khyp"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, argv):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
        assert first[0] == 0


# the package's public names by the module its eager __init__ imported them from
EAGER_EXPORTS = {
    "circuits": [
        "Actor", "ActorView", "BinaryGate", "TextCircuit", "UnaryGate", "actor_view",
        "cn_actor", "composed_factors", "contributing_words", "contribution_string",
        "load_script", "parse_script", "rank_alternatives",
    ],
    "entailment": [
        "SIGMA_DEFAULT", "loewner_k", "loewner_k_raw", "overlap_score", "smoothed_predicate",
    ],
    "errors": [
        "AlignmentError", "AmbiguousWord", "ConvnegError", "CyclicTaxonomy", "DimMismatch",
        "EmptyMixture", "InvalidIndex", "InvalidOperator", "NotSubnormalized", "ParseError",
        "TooLarge", "TooManyWords", "UnknownActor", "UnknownWord", "ZeroNegation",
        "ZeroOperator",
    ],
    "lexicon": [
        "DEFAULT_DECAY", "Lexicon", "build_lexicon", "load_lexicon", "resolve_word",
        "save_lexicon",
    ],
    "negation": [
        "DEFAULTS", "LAMBDA_DEFAULT", "NegationConfig", "alternatives", "cn_word",
        "logical_not_complement", "logical_not_pinv",
    ],
    "operators": [
        "Operator", "conjugate_update", "diagonal", "hadamard", "identity", "mix",
        "normalize", "partial_trace", "pseudoinverse", "support_projector",
        "tensor", "validate",
    ],
    "strings": [
        "MixtureTerm", "NegationMixture", "StringScores", "WordString",
        "best_interpretation", "cn_string", "derive_weights", "enumerate_negation_sets",
        "interpretation_scores", "score_string",
    ],
    "taxonomy": ["Taxonomy", "load_taxonomy", "parse_taxonomy"],
}


class TestCliImports:
    def test_cli_imports_no_private_name_from_the_package(self):
        tree = ast.parse(Path(convneg.cli.__file__).read_text(encoding="utf-8"))
        private = [
            f"{'.' * node.level}{node.module or ''}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "convneg")
            for alias in node.names
            if any(part.startswith("_") for part in [*(node.module or "").split("."), alias.name])
        ]
        assert private == []

    def test_lexicon_alone_reads_and_writes_store_text(self):
        # operators.py holds the algebra alone and raises no ParseError; no
        # module but lexicon.py spells a store line's keyword (cli.py sniffs a
        # file's first bytes for b"LEXICON" only to pick the loader)
        package = Path(convneg.__file__).parent
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
        imported = [
            alias.name
            for node in ast.walk(trees["operators.py"])
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
        assert "ParseError" not in imported
        keywords = ("LEXICON v1", "DECAY ", "LEAVES ", "WORD ", "WC ", "OPERATOR ", "LABELS ")
        spelled = {
            name
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith(keywords)
        }
        assert spelled == {"lexicon.py"}

    def test_only_operators_makes_an_operator_without_init(self):
        # Operator._of is the one way to wrap already-checked arrays, and it
        # takes a diagonal and labels only: a dense operator comes from the
        # constructor's check. ZERO_TRACE_TOL is compared once
        # (Operator.is_zero, on the operator's kept trace), and the
        # modules that test a state for zero do not import it
        package = Path(convneg.__file__).parent
        trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
        nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
        uses = [
            f"{name}:{node.lineno}"
            for name, node in nodes
            if name != "operators.py"
            and isinstance(node, ast.Attribute)
            and (node.attr == "_init" or (node.attr == "__new__" and ast.unparse(node.value) == "Operator"))
        ]
        assert uses == []
        calls = [
            (f"{name}:{node.lineno}", len(node.args), len(node.keywords))
            for name, node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_of"
        ]
        assert len(calls) == 4 and all(call[1:] == (2, 0) for call in calls), calls
        compares = [
            f"{name}:{node.lineno}"
            for name, node in nodes
            if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Name) and n.id == "ZERO_TRACE_TOL" for n in ast.walk(node))
        ]
        assert len(compares) == 1 and compares[0].startswith("operators.py:"), compares
        for name in ("entailment.py", "negation.py"):
            imported = [
                alias.name
                for node in ast.walk(trees[name])
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            ]
            assert "ZERO_TRACE_TOL" not in imported, name


class TestLazyImports:
    def test_public_names_resolve_to_the_same_objects(self):
        names = [n for module, ns in EAGER_EXPORTS.items() for n in (module, *ns)]
        assert convneg.__all__ == sorted(names)
        for module, ns in EAGER_EXPORTS.items():
            defining = importlib.import_module(f"convneg.{module}")
            assert getattr(convneg, module) is defining
            for name in ns:
                assert getattr(convneg, name) is getattr(defining, name), name
        star: dict = {}
        exec("from convneg import *", star)
        assert sorted(k for k in star if k != "__builtins__") == convneg.__all__
        assert set(convneg.__all__) <= set(dir(convneg))
        with pytest.raises(AttributeError):
            convneg.no_such_name

    @pytest.mark.parametrize(
        "argv, layers",
        [
            (["negate-word", "hamster", "--taxonomy", F1], []),
            (["entail", "hamster", "rodent", "--taxonomy", F1, "--measure", "khyp"], []),
            (["negate-string", "red wine", "--follow-up", "white wine", "--taxonomies", F2], ["strings"]),
            (["text", "negate-actor", STORY, "Alice", "--taxonomies", F3], ["circuits", "strings"]),
        ],
        ids=["negate-word", "entail", "negate-string", "negate-actor"],
    )
    def test_commands_import_only_the_layers_they_use(self, argv, layers):
        probe = (
            "import sys, convneg.cli\n"
            "code = convneg.cli.run(sys.argv[1:])\n"
            "print(code, sorted(m[8:] for m in sys.modules if m in "
            "('convneg.strings', 'convneg.circuits')))\n"
        )
        src = str(Path(convneg.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout.splitlines()[-1] == f"0 {layers}", done.stderr
