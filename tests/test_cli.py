import warnings
from io import StringIO

import pytest

import convneg.strings
from conftest import FIXTURES
from convneg.cli import run

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

    def test_overlap(self):
        code, out, _ = invoke(
            "entail", "dog", "planet", "--taxonomy", F1,
            "--measure", "overlap", "--sigma", "0",
        )
        assert (code, out) == (0, "0.000000\n")


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

    def test_corrupted_store(self, tmp_path):
        store = tmp_path / "fig1.lex"
        invoke("lexicon", "build", F1, "--out", str(store))
        text = store.read_text().replace("1.0", "abc", 1)
        store.write_text(text)
        code, _, err = invoke("lexicon", "check", str(store))
        assert code == 1
        assert "ParseError" in err

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

    def test_unknown_actor(self):
        code, _, err = invoke(
            "text", "negate-actor", STORY, "Eve", "--taxonomies", F3, "--rank"
        )
        assert code == 1
        assert "UnknownActor" in err


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
