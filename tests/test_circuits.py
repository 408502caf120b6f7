import copy
import dataclasses
import functools
import inspect
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import convneg.circuits as circuits
from conftest import FIXTURES, story_lexicons
from convneg.circuits import (
    Actor,
    BinaryGate,
    UnaryGate,
    actor_view,
    cn_actor,
    composed_factors,
    contributing_words,
    load_script,
    parse_script,
    rank_alternatives,
)
from convneg.errors import (
    AlignmentError,
    AmbiguousWord,
    ConvnegError,
    DimMismatch,
    InvalidOperator,
    ParseError,
    UnknownActor,
    ZeroOperator,
)
from convneg.lexicon import build_lexicon
from convneg.negation import DEFAULTS, NegationConfig
from convneg.operators import (
    ZERO_TRACE_TOL,
    Operator,
    _entries,
    _from_entries,
    conjugate_update,
    diagonal,
    identity,
    normalize,
)
from convneg.strings import (
    WordString,
    best_interpretation,
    derive_weights,
    enumerate_negation_sets,
    interpretation_scores,
)
from convneg.taxonomy import parse_taxonomy

LOVE_SCRIPT = "Alice is evil.\nBob is old.\nAlice loves Bob.\n"


@pytest.fixture(scope="module")
def lexes():
    return story_lexicons()


@pytest.fixture(scope="module")
def story(lexes):
    return load_script(FIXTURES / "story.txt", lexes)


@pytest.fixture(scope="module")
def love_lexes(lexes):
    traits = build_lexicon(
        parse_taxonomy("evil\ttrait\nold\ttrait\nvirtuous\ttrait\nyoung\ttrait\n"),
        name="traits",
    )
    verbs = build_lexicon(parse_taxonomy("loves\tverb\nhates\tverb\n"), name="verbs")
    return (*lexes, traits, verbs)


@pytest.fixture(scope="module")
def love(love_lexes):
    return parse_script(LOVE_SCRIPT, love_lexes)


class TestParseScript:
    def test_story_shape(self, story):
        assert story.actor_names == ("Alice", "Bob", "Claire", "Daisy")
        assert len(story.gates) == 8
        assert all(isinstance(g, UnaryGate) for g in story.gates)
        assert story.links == frozenset()

    def test_actor_resolution(self, story, lexes):
        alice = story.actor("Alice")
        assert alice.word == "alice"
        assert alice.lex is lexes[0]

    def test_binary_gate_and_link(self, love):
        assert len(love.gates) == 3
        gate = love.gates[2]
        assert isinstance(gate, BinaryGate)
        assert (gate.subject, gate.verb, gate.object) == ("Alice", "loves", "Bob")
        assert love.links == frozenset({frozenset({"Alice", "Bob"})})

    def test_is_a_and_is_an_and_period(self, lexes):
        c = parse_script("Alice is a human\nBob is an archaeologist.\n", lexes)
        assert [g.word for g in c.gates] == ["human", "archaeologist"]

    def test_comments_and_blanks(self, lexes):
        c = parse_script("# intro\n\nAlice is a human.  # trailing\n", lexes)
        assert len(c.gates) == 1

    def test_unknown_attribute_word(self, lexes):
        with pytest.raises(ParseError, match="line 2.*flubber"):
            parse_script("Alice is a human.\nAlice is flubber.\n", lexes)

    def test_unknown_actor_name(self, lexes):
        with pytest.raises(ParseError, match="line 1.*Zorp"):
            parse_script("Zorp is a human.\n", lexes)

    def test_lowercase_actor_needs_declaration(self, lexes):
        with pytest.raises(ParseError, match="declare"):
            parse_script("bob is a human.\n", lexes)
        c = parse_script("actor bob\nbob is a human.\n", lexes)
        assert c.actor_names == ("bob",)

    def test_duplicate_declaration(self, lexes):
        with pytest.raises(ParseError, match="already"):
            parse_script("actor Alice\nactor Alice\n", lexes)

    def test_malformed_lines(self, lexes):
        for bad in ("actor\n", "Alice\n", "Alice is\n", "Alice loves Bob dearly\n"):
            with pytest.raises(ParseError):
                parse_script(bad, lexes)
        with pytest.raises(ParseError, match="cannot parse attribute line 'Alice is a human archaeologist'") as exc:
            parse_script("actor Alice\nAlice is a human archaeologist.\n", lexes)
        assert exc.value.line == 2

    def test_ambiguous_word(self, lexes):
        other = build_lexicon(parse_taxonomy("human\tandroid\nreplicant\tandroid\n"))
        with pytest.raises(AmbiguousWord):
            parse_script("Alice is a human.\n", (*lexes, other))


class TestActorView:
    def test_story_alice(self, story):
        view = actor_view(story, "Alice")
        assert view.actor is story.actor("Alice")
        assert len(view.gates) == 2
        assert all(g is s for g, s in zip(view.gates, story.gates[:2]))
        assert view.unary_string().words == ("alice", "human", "archaeologist")
        assert view.labels == ("Alice", "human", "archaeologist")
        assert [s.lex for s in view.unary_string().positions] == [
            view.actor.lex, *(g.lex for g in view.gates)
        ]

    def test_gateless_actor(self, lexes):
        c = parse_script("actor Dave\n", lexes)
        view = actor_view(c, "Dave")
        assert view.gates == ()
        assert view.unary_string().words == ("dave",)
        assert view.labels == ("Dave",)

    def test_love_script_leaves_out_the_verb(self, love):
        # Alice loves Bob is a link, not one of Alice's own words
        for name, attribute in (("Alice", "evil"), ("Bob", "old")):
            view = actor_view(love, name)
            assert [g.word for g in view.gates] == [attribute]
            assert view.unary_string().words == (name.lower(), attribute)
            assert view.labels == (name, attribute)

    def test_lowercase_declared_actor(self, lexes):
        c = parse_script("actor bob\nbob is a human.\nbob is a biologist.\n", lexes)
        view = actor_view(c, "bob")
        assert view.unary_string().words == ("bob", "human", "biologist")
        assert view.labels == ("bob", "human", "biologist")

    def test_unknown_actor(self, story):
        with pytest.raises(UnknownActor):
            actor_view(story, "Eve")


class TestContributingWords:
    def test_story_alice_no_links(self, story):
        assert [w for _, w in contributing_words(story, "Alice")] == [
            "alice",
            "human",
            "archaeologist",
        ]

    def test_love_script_closure(self, love):
        got = [w for _, w in contributing_words(love, "Alice")]
        assert got == ["alice", "evil", "bob", "old", "loves"]
        # symmetric: Bob sees the same five words
        assert [w for _, w in contributing_words(love, "Bob")] == got

    def test_sources_alternate_actor_and_gate(self, love):
        sources = [src for src, _ in contributing_words(love, "Alice")]
        assert isinstance(sources[0], Actor)
        assert isinstance(sources[1], UnaryGate)
        assert isinstance(sources[2], Actor)
        assert isinstance(sources[4], BinaryGate)

    def test_disjoint_groups_stay_separate(self, love_lexes):
        script = LOVE_SCRIPT + "Claire is virtuous.\nDave is young.\nClaire hates Dave.\n"
        c = parse_script(script, love_lexes)
        alice_words = {w for _, w in contributing_words(c, "Alice")}
        claire_words = {w for _, w in contributing_words(c, "Claire")}
        assert alice_words == {"alice", "evil", "bob", "old", "loves"}
        assert claire_words == {"claire", "virtuous", "dave", "young", "hates"}
        assert not alice_words & claire_words

    def test_closure_on_random_circuits(self, rng, love_lexes):
        names = ("Alice", "Bob", "Claire", "Dave")
        for _ in range(60):
            lines = [f"actor {n}" for n in names]
            pairs = []
            for _ in range(int(rng.integers(0, 4))):
                i, j = rng.choice(4, size=2, replace=False)
                pairs.append((names[i], names[j]))
                lines.append(f"{names[i]} loves {names[j]}")
            c = parse_script("\n".join(lines), love_lexes)
            # oracle: union-find over the drawn pairs
            root = {n: n for n in names}

            def find(x):
                while root[x] != x:
                    x = root[x]
                return x

            for a, b in pairs:
                root[find(a)] = find(b)
            for n in names:
                group = {m for m in names if find(m) == find(n)}
                got = {w for src, w in contributing_words(c, n) if isinstance(src, Actor)}
                assert got == {m.lower() for m in group}


class TestComposedState:
    def test_no_gates_gives_name_state(self, lexes):
        c = parse_script("actor Dave\n", lexes)
        (out,) = composed_factors(c, "Dave").values()
        np.testing.assert_array_equal(out.matrix, np.diag([0, 0, 0, 1.0, 0]))
        assert out.labels == lexes[0].leaves

    def test_story_alice_factors(self, story):
        factors = composed_factors(story, "Alice")
        np.testing.assert_allclose(
            factors["names"].matrix, np.diag([1.0, 0, 0, 0, 0]), atol=1e-12
        )
        np.testing.assert_allclose(factors["kinds"].matrix, np.diag([1.0, 0, 0]), atol=1e-12)
        np.testing.assert_allclose(
            factors["roles"].matrix, np.diag([1.0, 0, 0, 0]), atol=1e-12
        )

    def test_story_alice_composite_is_product(self, story):
        factors = composed_factors(story, "Alice")
        out = functools.reduce(np.kron, [op.matrix for op in factors.values()])
        assert out.shape == (60, 60)
        want = np.zeros((60, 60))
        want[0, 0] = 1.0  # pure alice ⊗ human ⊗ archaeologist
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_same_space_updates_reuse_the_factor(self, lexes):
        c = parse_script("Alice is a human.\nAlice is a human.\n", lexes)
        out = composed_factors(c, "Alice")
        assert list(out) == ["names", "kinds"]  # not names, kinds, kinds@2
        # a second lexicon named kinds is a factor of its own, keyed by position
        sizes = build_lexicon(parse_taxonomy("tall\tsize\nshort\tsize\n"), name="kinds")
        c = parse_script("Alice is a human.\nAlice is tall.\n", (*lexes, sizes))
        out = composed_factors(c, "Alice")
        assert list(out) == ["names", "kinds", "kinds@2"]
        np.testing.assert_array_equal(out["kinds@2"].matrix, np.diag([1.0, 0.0]))

    def test_contradictory_updates_collapse(self, lexes):
        c = parse_script("Alice is a human.\nAlice is a dog.\n", lexes)
        with pytest.raises(ZeroOperator):
            composed_factors(c, "Alice")

    def test_zero_name_operator_names_the_actor(self, lexes):
        names = lexes[0]
        ops = {**names.word_ops, "alice": diagonal(np.zeros(names.dim), names.leaves)}
        zeroed = (dataclasses.replace(names, word_ops=ops), *lexes[1:])
        c = parse_script("Alice is a human.\nBob is a human.\n", zeroed)
        # Alice lies outside Bob's closure, yet her name is checked all the same
        for target in ("Alice", "Bob"):
            with pytest.raises(
                ZeroOperator, match="^name word 'alice' of actor Alice has the zero operator$"
            ):
                composed_factors(c, target)

    def test_entangled_partner_traced_out(self, love):
        factors = composed_factors(love, "Alice", effects=None)
        assert set(factors) == {"names", "traits"}  # Bob's wires are gone
        np.testing.assert_allclose(
            factors["traits"].matrix, np.diag([1.0, 0, 0, 0]), atol=1e-12
        )

    def test_effect_rotates_object_name(self, love, lexes):
        v = np.zeros(5)
        v[[0, 1]] = 1 / np.sqrt(2)  # alice-bob superposition projector
        eff = Operator(np.outer(v, v))
        out = composed_factors(love, "Bob", effects={"loves": (None, eff)})
        np.testing.assert_allclose(out["names"].matrix, np.outer(v, v), atol=1e-12)

    def test_effect_orthogonal_to_object_collapses(self, love):
        eff = Operator(np.diag([1.0, 0, 0, 0, 0]))  # alice only; bob is index 1
        with pytest.raises(ZeroOperator):
            composed_factors(love, "Bob", effects={"loves": (None, eff)})

    def test_effect_dim_mismatch(self, love):
        with pytest.raises(DimMismatch):
            composed_factors(love, "Bob", effects={"loves": (None, Operator(np.eye(3)))})

    def test_name_operator_of_wrong_dim(self, lexes):
        # the lexicon refuses it, so no circuit can hold one
        names = lexes[0]
        with pytest.raises(DimMismatch, match="'alice' has dim 2, leaf space has 5"):
            dataclasses.replace(names, word_ops={**names.word_ops, "alice": diagonal([1.0, 1.0])})

    def test_unary_growth_guard(self):
        lexes = [
            build_lexicon(
                parse_taxonomy("".join(f"w{k}_{i}\troot{k}\n" for i in range(9))),
                name=f"space{k}",
            )
            for k in range(5)
        ]
        lines = ["actor W0_0"] + [f"W0_0 is w{k}_1" for k in range(1, 5)]
        c = parse_script("\n".join(lines), lexes)
        # 9 * 9 * 9 * 9 * 9 dims in all, read as one 9-dim marginal per space
        factors = composed_factors(c, "W0_0")
        assert list(factors) == [f"space{k}" for k in range(5)]
        for k, op in enumerate(factors.values()):
            want = np.zeros(9)
            want[0 if k == 0 else 1] = 1.0
            np.testing.assert_array_equal(op.matrix, np.diag(want))

    def test_link_past_old_joint_guard_returns_unit_trace_factors(self):
        big = [
            build_lexicon(
                parse_taxonomy("".join(f"b{k}_{i}\tbroot{k}\n" for i in range(9))),
                name=f"big{k}",
            )
            for k in range(3)
        ]
        verbs = build_lexicon(parse_taxonomy("meets\tverb\n"), name="v")
        script = (
            "actor B0_0\nactor B1_0\n"
            "B0_0 is b1_1\nB1_0 is b0_1\n"
            "B0_0 meets B1_0\n"
        )
        c = parse_script(script, (*big, verbs))
        # the linked pair spans (9*9) * (9*9) = 6561 dims; only own factors count
        factors = composed_factors(c, "B0_0")
        assert set(factors) == {"big0", "big1"}
        for op in factors.values():
            assert op.trace() == pytest.approx(1.0, abs=1e-12)


class TestCnActor:
    def test_story_alice_size_prior(self, story):
        mix = cn_actor(story, "Alice", NegationConfig(sigma=0))
        assert len(mix.terms) == 7
        assert mix.subsets == tuple(enumerate_negation_sets(3))
        assert sum(mix.weights) == pytest.approx(1.0, abs=1e-12)
        # prior at lambda 0.75: sizes (1,1,1,2,2,2,3) -> raw (1,1,1,.75,.75,.75,.5625)
        raw = [1, 1, 1, 0.75, 0.75, 0.75, 0.5625]
        np.testing.assert_allclose(mix.weights, np.array(raw) / sum(raw), atol=1e-12)

    def test_lambda_outside_unit_interval(self, story):
        context = actor_view(story, "Bob").unary_string()
        for kwargs in ({}, {"context": context}):
            with pytest.raises(ValueError, match=r"lambda_size must lie in \(0, 1\], got 2.0"):
                cn_actor(story, "Alice", lambda_size=2.0, **kwargs)

    def test_single_slot_actor(self, lexes):
        from convneg.negation import cn_word

        c = parse_script("actor Dave\n", lexes)
        mix = cn_actor(c, "Dave")
        assert len(mix.terms) == 1
        np.testing.assert_allclose(
            mix.terms[0].states[0].matrix, cn_word("dave", lexes[0]).matrix, atol=1e-15
        )

    def test_non_negated_positions_keep_originals(self, story, lexes):
        mix = cn_actor(story, "Alice")
        names, kinds, roles = lexes
        originals = (
            names.word_operator("alice"),
            kinds.word_operator("human"),
            roles.word_operator("archaeologist"),
        )
        for term in mix.terms:
            for pos in range(3):
                if pos not in term.subset:
                    np.testing.assert_array_equal(
                        term.states[pos].matrix, originals[pos].matrix
                    )

    def test_context_weights_match_derive_weights(self, story, lexes):
        names, kinds, roles = lexes
        context = WordString.resolve(["bob", "human", "biologist"], lexes)
        mix = cn_actor(story, "Alice", NegationConfig(sigma=0), context=context)
        s = WordString.resolve(["alice", "human", "archaeologist"], lexes)
        want = derive_weights(s, context, 0.75, NegationConfig(sigma=0))
        np.testing.assert_allclose(mix.weights, want, atol=1e-15)

    def test_closure_blows_past_guard(self, love_lexes):
        from convneg.errors import TooManyWords

        names = [f"N{i}" for i in range(11)]
        tax = parse_taxonomy("".join(f"n{i}\tnames2\n" for i in range(11)))
        lex = build_lexicon(tax, name="names2")
        verbs = build_lexicon(parse_taxonomy("meets\tverb\n"), name="verbs2")
        lines = [f"{names[i]} meets {names[i + 1]}" for i in range(10)]
        c = parse_script("\n".join(lines), (lex, verbs))
        # 11 names + 10 verbs = 21 contributing words
        with pytest.raises(TooManyWords):
            cn_actor(c, "N0")


class TestRankAlternatives:
    def test_story_sigma_zero(self, story):
        rows = rank_alternatives(story, "Alice", NegationConfig(sigma=0), 0.75)
        assert [(a.name, subset) for a, subset, _ in rows] == [
            ("Bob", (0, 2)),
            ("Claire", (0, 2)),
            ("Daisy", (0, 1, 2)),
        ]
        scores = [score for _, _, score in rows]
        assert scores[0] == pytest.approx(0.75 * 0.3 * (7 / 11), abs=1e-9)
        assert scores[1] == pytest.approx(0.75 * 0.3 * (3 / 11), abs=1e-9)
        assert scores[2] == pytest.approx(0.5625 * 0.1 * 0.5 * (1 / 11), abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.25, 0.5])
    def test_ordering_stable_under_smoothing(self, story, sigma):
        rows = rank_alternatives(story, "Alice", NegationConfig(sigma=sigma), 0.75)
        assert [a.name for a, _, _ in rows] == ["Bob", "Claire", "Daisy"]

    def test_identical_actors_tie_in_declaration_order(self, lexes):
        c = parse_script(
            "Alice is a human.\nBob is a human.\nClaire is a human.\n", lexes
        )
        rows = rank_alternatives(c, "Alice", NegationConfig(sigma=0), 0.75)
        assert [a.name for a, _, _ in rows] == ["Bob", "Claire"]
        assert rows[0][2] == pytest.approx(rows[1][2], abs=1e-15)
        # identical up to the name: negating the name alone explains the switch
        assert rows[0][1] == (0,)
        assert rows[0][2] == pytest.approx(0.3, abs=1e-12)

    def test_reordering_other_actors_keeps_scores(self, lexes):
        a = "Alice is a human.\nAlice is an archaeologist.\n"
        bob = "Bob is a human.\nBob is a biologist.\n"
        claire = "Claire is a human.\nClaire is a pianist.\n"
        cfg = NegationConfig(sigma=0)
        first = rank_alternatives(parse_script(a + bob + claire, lexes), "Alice", cfg, 0.75)
        second = rank_alternatives(parse_script(a + claire + bob, lexes), "Alice", cfg, 0.75)
        assert [(x.name, s, pytest.approx(v)) for x, s, v in first] == [
            (x.name, s, v) for x, s, v in second
        ]

    def test_single_other_actor(self, lexes):
        c = parse_script("Alice is a human.\nBob is a human.\n", lexes)
        rows = rank_alternatives(c, "Alice", NegationConfig(sigma=0), 0.75)
        assert len(rows) == 1

    def test_entangled_actor_rejected(self, love):
        with pytest.raises(AlignmentError, match="link"):
            rank_alternatives(love, "Alice")

    def test_misaligned_slots_rejected(self, lexes):
        # Bob lines up with Alice; Claire's extra attribute does not, and the
        # error names her and the negated actor
        c = parse_script(
            "Alice is a human.\nBob is a human.\nClaire is a human.\nClaire is a pianist.\n",
            lexes,
        )
        with pytest.raises(
            AlignmentError,
            match=r"^actor 'Claire' against 'Alice': length mismatch: 2 positions vs 3$",
        ):
            rank_alternatives(c, "Alice")

    def test_unknown_actor(self, story):
        with pytest.raises(UnknownActor):
            rank_alternatives(story, "Eve")


def reference_rank(c, name, cfg, lambda_size):
    """The ranking by the ``(-score, position)`` key, scores negated back."""
    s = actor_view(c, name).unary_string()
    rows = []
    for position, other in enumerate(c.actors):
        if other.name != name:
            target = actor_view(c, other.name).unary_string()
            subset, score = circuits.best_interpretation(s, target, lambda_size, cfg)
            rows.append((-score, position, other, subset))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [(other, subset, -neg_score) for neg_score, _, other, subset in rows]


class TestRankMatchesIndexKey:
    """One stable sort by score, descending, ranks as the (-score, position) key."""

    SCRIPTS = [
        "Alice is a human.\nBob is a human.\nClaire is a human.\n",
        "Alice is a human.\nAlice is an archaeologist.\nBob is a human.\n"
        "Bob is a biologist.\nClaire is a human.\nClaire is an archaeologist.\n"
        "Dave is a human.\nDave is a biologist.\n",
    ]

    @staticmethod
    def bits(rows):
        return [(a.name, subset, score.hex()) for a, subset, score in rows]

    @pytest.mark.parametrize("sigma", [0, 0.5])
    @pytest.mark.parametrize("script", range(len(SCRIPTS)))
    def test_scripts_with_tied_scores(self, lexes, script, sigma):
        c = parse_script(self.SCRIPTS[script], lexes)
        cfg = NegationConfig(sigma=sigma)
        got = rank_alternatives(c, "Alice", cfg, 0.75)
        want = reference_rank(c, "Alice", cfg, 0.75)
        assert self.bits(got) == self.bits(want)
        assert len({score for _, _, score in got}) < len(got)  # some scores tie

    @pytest.mark.parametrize(
        "scores",
        [(0.0, 0.3, -0.0, 0.3), (5e-324, 0.0, 5e-324, -0.0), (0.1, 0.1, 0.1, 0.1)],
        ids=["signed-zeros", "subnormal", "all-tied"],
    )
    def test_scripted_zero_and_tied_scores(self, lexes, scores, monkeypatch):
        names = ["Alice", "Bob", "Claire", "Dave", "Daisy"]
        c = parse_script("".join(f"{n} is a human.\n" for n in names), lexes)
        outcomes = []
        for rank in (rank_alternatives, reference_rank):
            by_call = iter(scores)  # the other actors in declaration order
            monkeypatch.setattr(
                circuits, "best_interpretation", lambda *args: ((0,), next(by_call))
            )
            outcomes.append(self.bits(rank(c, "Alice", DEFAULTS, 0.75)))
        assert outcomes[0] == outcomes[1]
        # ties keep declaration order and each score's sign
        ranked = sorted(zip(names[1:], scores), key=lambda r: -r[1])
        assert outcomes[0] == [(n, (0,), score.hex()) for n, score in ranked]


class TestSigmaFromConfig:
    def test_rank_follows_cfg_sigma(self, story):
        # README's `--rank --sigma 0` numbers, with sigma given only in the config
        rows = rank_alternatives(story, "Alice", NegationConfig(sigma=0))
        assert [(a.name, round(score, 6)) for a, _, score in rows] == [
            ("Bob", 0.143182),
            ("Claire", 0.061364),
            ("Daisy", 0.002557),
        ]

    @pytest.mark.parametrize(
        "fn",
        [derive_weights, interpretation_scores, best_interpretation, cn_actor, rank_alternatives],
    )
    def test_no_separate_sigma_parameter(self, fn):
        params = inspect.signature(fn).parameters
        assert "sigma" not in params
        assert params["cfg"].default is DEFAULTS


# ---------------------------------------------------------------------------
# differential checks: factored circuits against a dense joint-state
# reference (to rounding) and against dense marginals of the factors (bit for bit)


def _dense_root(m):
    lam, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vecs.T


def _dense_keep(state, dims, keep):
    """Partial trace of a dense joint state onto the factors in ``keep``."""
    n = len(dims)
    t = state.reshape(dims + dims)
    cols = [j + n if j in keep else j for j in range(n)]
    m = np.einsum(t, list(range(n)) + cols, keep + [j + n for j in keep])
    d = int(np.prod([dims[j] for j in keep]))
    return m.reshape(d, d)


def dense_reference(c, name, effects=None):
    """One dense joint state per linked group: grown by Kronecker products,
    updated by lifted conjugations, traced out at the end. Returns the
    group's dims, the untrimmed marginal on each of ``name``'s factors keyed
    by lexicon name, and the untrimmed marginal on all of them jointly."""
    groups = {}
    for a in c.actors:
        name_op = a.lex.word_operator(a.word).matrix
        groups[a.name] = {"factors": [(a.name, a.lex)], "state": name_op / np.trace(name_op)}

    def conjugate(group, owner, lex, effect):
        factors = group["factors"]
        idx = next((i for i, (o, x) in enumerate(factors) if o == owner and x is lex), None)
        if idx is None:
            group["state"] = np.kron(group["state"], np.eye(lex.dim) / lex.dim)
            factors.append((owner, lex))
            idx = len(factors) - 1
        dims = [x.dim for _, x in factors]
        before, after = int(np.prod(dims[:idx])), int(np.prod(dims[idx + 1 :]))
        root = np.kron(np.eye(before), np.kron(_dense_root(effect), np.eye(after)))
        group["state"] = root @ group["state"] @ root

    for g in c.gates:
        if isinstance(g, UnaryGate):
            conjugate(groups[g.actor], g.actor, g.lex, g.lex.word_operator(g.word).matrix)
            continue
        group, other = groups[g.subject], groups[g.object]
        if group is not other:
            group["state"] = np.kron(group["state"], other["state"])
            group["factors"] += other["factors"]
            for owner, _ in other["factors"]:
                groups[owner] = group
        for owner, eff in zip((g.subject, g.object), (effects or {}).get(g.verb, (None, None))):
            if eff is not None:
                conjugate(group, owner, c.actor(owner).lex, eff.matrix)

    group = groups[name]
    dims = [x.dim for _, x in group["factors"]]
    own = [i for i, (o, _) in enumerate(group["factors"]) if o == name]
    marginals = {group["factors"][i][1].name: _dense_keep(group["state"], dims, [i]) for i in own}
    return dims, marginals, _dense_keep(group["state"], dims, own)


def kron_reference(c, name, effects=None):
    """The circuit path that built every marginal densely: fresh factors as
    ``Operator(np.eye(n) / n)``, marginals as a Kronecker product grown from
    a 1x1 ones matrix times a ``scale *=`` loop over the other factors'
    traces, then ``Operator(...)`` and ``normalize``. Returns the outcome of
    composed_factors (a result or the exception raised) and the dims of
    ``name``'s group."""
    groups = {}
    for a in c.actors:
        groups[a.name] = [(a.name, a.lex, normalize(a.lex.word_operator(a.word), "trace"))]

    def update(factors, owner, lex, effect):
        for i, (o, x, state) in enumerate(factors):
            if o == owner and x is lex:
                factors[i] = (o, x, conjugate_update(state, effect))
                return
        fresh = Operator(np.eye(lex.dim) / lex.dim)
        factors.append((owner, lex, conjugate_update(fresh, effect)))

    for g in c.gates:
        if isinstance(g, UnaryGate):
            update(groups[g.actor], g.actor, g.lex, g.lex.word_operator(g.word))
            continue
        group, other = groups[g.subject], groups[g.object]
        if group is not other:
            group.extend(other)
            for owner, _, _ in other:
                groups[owner] = group
        for owner, eff in zip((g.subject, g.object), (effects or {}).get(g.verb, (None, None))):
            if eff is not None:
                update(group, owner, c.actor(owner).lex, eff)
    group = groups[name]

    def marginal(keep):
        mat, scale = np.ones((1, 1)), 1.0
        for i, (_, _, state) in enumerate(group):
            if i in keep:
                mat = np.kron(mat, state.matrix)
            else:
                scale *= state.trace()
        return mat * scale

    def factors():
        out = {}
        for i, (owner, lex, _) in enumerate(group):
            if owner == name:
                key = lex.name or f"factor{i}"
                key = f"{key}@{i}" if key in out else key
                out[key] = normalize(Operator(marginal({i}), lex.leaves), "trace")
        return out

    return _outcome(factors), [lex.dim for _, lex, _ in group]


def _outcome(fn):
    try:
        return fn()
    except ConvnegError as exc:
        return exc


def _bits(outcome):
    """Everything that tells two outcomes apart: keys in order, storage
    (diagonal or dense), exact bytes (signed zeros too) and labels, or the
    exception's type and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    ops = outcome if isinstance(outcome, dict) else {None: outcome}
    return [
        (key, op._diag is None, _entries(op).tobytes(), op.labels) for key, op in ops.items()
    ]


DIFF_ACTORS = ("Ann", "Ben", "Cal")
DIFF_WORDS = ("kind", "warm", "nice", "cold", "young", "old", "age")


@pytest.fixture(scope="module")
def diff_lexes():
    return (
        build_lexicon(parse_taxonomy("ann\tperson\nben\tperson\ncal\tperson\ndan\tperson\n"), name="names"),
        build_lexicon(parse_taxonomy("kind\tnice\nwarm\tnice\ncold\tmean\n"), name="traits"),
        build_lexicon(parse_taxonomy("young\tage\nold\tage\n"), name="ages"),
        build_lexicon(parse_taxonomy("meets\tverb\nhelps\tverb\n"), name="verbs"),
    )


def _random_effect(rng, dim, low=0.3):
    """Sup-normalized, non-diagonal PSD effect with spectrum in [low, 1]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = rng.uniform(low, 1.0, dim)
    lam /= lam.max()
    m = q @ np.diag(lam) @ q.T
    return Operator((m + m.T) / 2.0)


_line = st.one_of(
    st.tuples(st.sampled_from(DIFF_ACTORS), st.sampled_from(DIFF_WORDS)).map(
        lambda t: f"{t[0]} is {t[1]}"
    ),
    st.tuples(
        st.sampled_from(DIFF_ACTORS), st.sampled_from(("meets", "helps")), st.sampled_from(DIFF_ACTORS)
    ).map(" ".join),
)


class TestFactoredMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(_line, min_size=0, max_size=6),
        target=st.sampled_from(DIFF_ACTORS),
        seed=st.integers(0, 2**32 - 1),
        sides=st.lists(st.sampled_from(("subject", "object", "both")), min_size=2, max_size=2),
        annihilate=st.booleans(),
    )
    # other factors' traces whose product rounds differently when reordered
    @example(
        lines=["Cal helps Ben", "Ann is old", "Ben helps Ann", "Ben is warm"],
        target="Ann", seed=3961484165, sides=["both", "both"], annihilate=False,
    )
    def test_random_scripts(self, diff_lexes, lines, target, seed, sides, annihilate):
        rng = np.random.default_rng(seed)
        names_dim = diff_lexes[0].dim
        effects = {}
        for verb, side in zip(("meets", "helps"), sides):
            subj = None if side == "object" else _random_effect(rng, names_dim)
            obj = None if side == "subject" else _random_effect(rng, names_dim)
            effects[verb] = (subj, obj)
        script = [f"actor {a}" for a in DIFF_ACTORS] + lines
        if annihilate:
            # Dan's untouched pure name state lies in the kernel of this effect,
            # so linking Dan to the target zeroes the target's whole group.
            keep = np.ones(names_dim)
            keep[diff_lexes[0].leaves.index("dan")] = 0.0
            kernel = np.diag(keep)
            m = kernel @ _random_effect(rng, names_dim).matrix @ kernel
            effects["loves"] = (None, Operator((m + m.T) / 2.0))
            script.append(f"{target} loves Dan")
        lexes = diff_lexes
        if annihilate:
            lexes = (*diff_lexes, build_lexicon(parse_taxonomy("loves\tfeeling\n"), name="feelings"))
        c = parse_script("\n".join(script), lexes)
        want_factors, dims = kron_reference(c, target, effects)
        # before the dense reference, whose joint state grows with the group
        assume(int(np.prod(dims)) <= 600)
        _, marginals, joint = dense_reference(c, target, effects)

        assert _bits(_outcome(lambda: composed_factors(c, target, effects))) == _bits(want_factors)

        if np.trace(joint) <= ZERO_TRACE_TOL:
            with pytest.raises(ZeroOperator):
                composed_factors(c, target, effects)
            return
        assert not annihilate
        got = composed_factors(c, target, effects)
        assert set(got) == set(marginals)
        for key, m in marginals.items():
            np.testing.assert_allclose(got[key].matrix, m / np.trace(m), atol=1e-10)


def full_evolve(c, effects):
    """Every actor's linked group, evolved by every gate of the script: the
    circuit path before evolution kept to the target's link closure."""

    def update(factors, owner, lex, effect):
        for i, (o, flex, state) in enumerate(factors):
            if o == owner and flex is lex:
                factors[i] = (o, flex, conjugate_update(state, effect))
                return
        fresh = normalize(identity(lex.dim), "trace")
        factors.append((owner, lex, conjugate_update(fresh, effect)))

    groups = {}
    for a in c.actors:
        try:
            state = normalize(a.lex.word_operator(a.word), "trace")
        except ZeroOperator:
            raise ZeroOperator(f"name word {a.word!r} of actor {a.name} has the zero operator") from None
        groups[a.name] = [(a.name, a.lex, state)]
    for g in c.gates:
        if isinstance(g, UnaryGate):
            update(groups[g.actor], g.actor, g.lex, g.lex.word_operator(g.word))
            continue
        group, other = groups[g.subject], groups[g.object]
        if group is not other:
            group.extend(other)
            for owner, _, _ in other:
                groups[owner] = group
        if effects and g.verb in effects:
            for actor_name, eff in zip((g.subject, g.object), effects[g.verb]):
                if eff is None:
                    continue
                act = c.actor(actor_name)
                if eff.dim != act.lex.dim:
                    raise DimMismatch(
                        f"effect for {g.verb!r} on {actor_name} has dim "
                        f"{eff.dim}, name space has dim {act.lex.dim}"
                    )
                update(group, actor_name, act.lex, eff)
    return groups


def full_composed_factors(c, name, effects=None):
    a = c.actor(name)
    group = full_evolve(c, effects)[a.name]
    traces = [state.trace() for _, _, state in group]
    out = {}
    for i, (owner, lex, state) in enumerate(group):
        if owner != a.name:
            continue
        key = lex.name or f"factor{i}"
        if key in out:
            key = f"{key}@{i}"
        scale = math.prod(traces[:i] + traces[i + 1 :])
        out[key] = normalize(_from_entries(_entries(state) * scale, lex.leaves), "trace")
    return out


CLOSURE_ACTORS = ("Ann", "Ben", "Cal", "Dan", "Eve")
CLOSURE_TRAITS = ("kind", "warm", "cold", "young", "old")


def closure_lexicons():
    return (
        build_lexicon(
            parse_taxonomy("".join(f"{a.lower()}\tperson\n" for a in CLOSURE_ACTORS)), name="names"
        ),
        build_lexicon(parse_taxonomy("kind\tnice\nwarm\tnice\ncold\tmean\n"), name="traits"),
        build_lexicon(parse_taxonomy("young\tage\nold\tage\n"), name="ages"),
        build_lexicon(parse_taxonomy("meets\tverb\nhelps\tverb\n"), name="verbs"),
    )


_closure_line = st.one_of(
    st.tuples(st.sampled_from(CLOSURE_ACTORS), st.sampled_from(CLOSURE_TRAITS)).map(
        lambda t: f"{t[0]} is {t[1]}"
    ),
    # subject and object may be the same actor: a self-verb links nothing
    st.tuples(
        st.sampled_from(CLOSURE_ACTORS),
        st.sampled_from(("meets", "helps")),
        st.sampled_from(CLOSURE_ACTORS),
    ).map(" ".join),
)


def _closure_effects(seed, sides, dim):
    """Random effects for meets and helps on the subject, the object, both
    or neither; a wrong-dim effect acts on the subject at dim + 1."""
    rng = np.random.default_rng(seed)
    effects = {}
    for verb, side in zip(("meets", "helps"), sides):
        if side == "none":
            continue
        n = dim + (side == "wrong-dim")
        subj = None if side == "object" else _random_effect(rng, n)
        obj = None if side in ("subject", "wrong-dim") else _random_effect(rng, n)
        effects[verb] = (subj, obj)
    return effects


class TestClosureMatchesFullEvolution:
    """composed_factors evolves only the target's link closure; its bits, or
    its error, are those of a full evolution."""

    @settings(max_examples=120, deadline=None)
    @given(
        lines=st.lists(_closure_line, min_size=0, max_size=10),
        target=st.sampled_from(CLOSURE_ACTORS),
        seed=st.integers(0, 2**32 - 1),
        sides=st.lists(
            st.sampled_from(("subject", "object", "both", "none", "wrong-dim")),
            min_size=2,
            max_size=2,
        ),
        broken=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(CLOSURE_ACTORS + CLOSURE_TRAITS), st.sampled_from(("wrong-dim", "zero"))
            ),
        ),
    )
    # disconnected groups, effects on actors outside the target's group
    @example(
        lines=["Ann meets Ben", "Cal helps Dan", "Dan is kind", "Eve is old", "Ben is warm"],
        target="Ann", seed=1, sides=["both", "both"], broken=None,
    )
    # self-verbs
    @example(
        lines=["Ann meets Ann", "Ben helps Ben", "Ann is warm", "Ben meets Cal"],
        target="Ann", seed=2, sides=["both", "subject"], broken=None,
    )
    # an outside actor's zero or wrong-dim name, and an outside attribute word
    @example(lines=["Ann is kind"], target="Ann", seed=3, sides=["none", "none"], broken=("Eve", "zero"))
    @example(
        lines=["Ann is kind"], target="Ann", seed=4, sides=["none", "none"], broken=("Eve", "wrong-dim")
    )
    @example(
        lines=["Cal is cold", "Ann is kind"], target="Ann", seed=5, sides=["none", "none"],
        broken=("cold", "wrong-dim"),
    )
    @example(
        lines=["Cal is cold", "Ann is kind"], target="Ann", seed=6, sides=["none", "none"],
        broken=("cold", "zero"),
    )
    # an outside effect of the wrong dim
    @example(
        lines=["Cal meets Dan", "Ann is kind"], target="Ann", seed=7, sides=["wrong-dim", "none"],
        broken=None,
    )
    def test_random_scripts(self, lines, target, seed, sides, broken):
        lexes = closure_lexicons()
        effects = _closure_effects(seed, sides, lexes[0].dim)
        if broken is not None:
            word, how = broken[0].lower(), broken[1]
            i = next(i for i, x in enumerate(lexes) if word in x)
            n = lexes[i].dim + (how == "wrong-dim")
            ops = {**lexes[i].word_ops, word: diagonal(np.zeros(n) if how == "zero" else np.ones(n))}
            if how == "wrong-dim":
                # the lexicon refuses it, so no script can hold one
                with pytest.raises(DimMismatch, match=f"'{word}' has dim {n}, leaf space has {n - 1}"):
                    dataclasses.replace(lexes[i], word_ops=ops)
            else:
                lexes = (*lexes[:i], dataclasses.replace(lexes[i], word_ops=ops), *lexes[i + 1 :])
        script = [f"actor {a}" for a in CLOSURE_ACTORS] + lines
        c = parse_script("\n".join(script), lexes)
        assert _bits(_outcome(lambda: composed_factors(c, target, effects))) == _bits(
            _outcome(lambda: full_composed_factors(c, target, effects))
        )

    def test_outside_overflow_leaves_the_target_alone(self):
        # a full evolution overflows Ben's group, and so refused every actor
        lexes = closure_lexicons()
        effects = {"meets": (diagonal([1e300] * lexes[0].dim), None)}
        head = "actor Ann\nactor Ben\nactor Cal\nAnn is kind\n"
        c = parse_script(head + "Ben meets Cal\nBen meets Cal\n", lexes)
        alone = parse_script(head, lexes)
        assert _bits(composed_factors(c, "Ann", effects)) == _bits(composed_factors(alone, "Ann", effects))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(InvalidOperator, match="finite"):
                full_composed_factors(c, "Ann", effects)
            with pytest.raises(InvalidOperator, match="finite"):
                composed_factors(c, "Ben", effects)


def _zeroed(lexes, word):
    """``lexes`` with ``word``'s operator replaced by the zero operator."""
    i = next(i for i, lex in enumerate(lexes) if word in lex)
    ops = {**lexes[i].word_ops, word: diagonal(np.zeros(lexes[i].dim))}
    return (*lexes[:i], dataclasses.replace(lexes[i], word_ops=ops), *lexes[i + 1 :])


def _check_kept(lexes):
    """Checks that each wire state the lexicons keep is the nonzero state its
    key names, bit for bit; returns the words they are kept for."""
    words = set()
    for lex in lexes:
        for (kind, word), state in lex._wires.items():
            op = lex.word_operator(word)
            if kind == "name":
                want = normalize(op, "trace")
            else:
                assert kind == "opened"
                want = conjugate_update(diagonal(np.full(lex.dim, 1.0 / lex.dim)), op)
            assert _bits(state) == _bits(want) and not state.is_zero()
            words.add(word)
    return words


class TestKeptWireStates:
    """Each lexicon keeps the wire states that depend only on it and a word
    (name states and attribute words' opening states); composed_factors on
    lexicons that keep them gives the bits, or the error, of freshly built
    ones."""

    @settings(max_examples=80, deadline=None)
    @given(
        warm=st.lists(_closure_line, min_size=0, max_size=10),
        lines=st.lists(_closure_line, min_size=0, max_size=10),
        target=st.sampled_from(CLOSURE_ACTORS),
        seed=st.integers(0, 2**32 - 1),
        sides=st.lists(st.sampled_from(("subject", "object", "both", "none")), min_size=2, max_size=2),
        zero=st.one_of(st.none(), st.sampled_from(CLOSURE_ACTORS + CLOSURE_TRAITS)),
    )
    # a zero name word outside and inside the closure, a zero attribute word
    @example(warm=["Eve is kind"], lines=["Ann is kind"], target="Ann", seed=1, sides=["none", "none"], zero="Eve")
    @example(warm=["Ann is old"], lines=["Ann is old"], target="Ann", seed=2, sides=["none", "none"], zero="Ann")
    @example(
        warm=["Ben is kind", "Ann meets Ben"], lines=["Ben is kind", "Ann helps Ben"], target="Ann",
        seed=3, sides=["both", "both"], zero="kind",
    )
    def test_warmed_lexicons_answer_as_fresh_ones(self, warm, lines, target, seed, sides, zero):
        def built():
            lexes = closure_lexicons()
            return lexes if zero is None else _zeroed(lexes, zero.lower())

        lexes, fresh = built(), built()
        effects = _closure_effects(seed, sides, lexes[0].dim)
        head = [f"actor {a}" for a in CLOSURE_ACTORS]
        warming = parse_script("\n".join(head + warm), lexes)
        for actor in CLOSURE_ACTORS:
            _outcome(lambda: composed_factors(warming, actor, effects))
        script = "\n".join(head + lines)
        want = _bits(_outcome(lambda: composed_factors(parse_script(script, fresh), target, effects)))
        c = parse_script(script, lexes)
        for _ in range(2):
            assert _bits(_outcome(lambda: composed_factors(c, target, effects))) == want
        kept = _check_kept(lexes)
        # a zero name or zero opening state is made, and raises, on every call
        assert zero is None or zero.lower() not in kept

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(_closure_line, min_size=0, max_size=10),
        target=st.sampled_from(CLOSURE_ACTORS),
        seed=st.integers(0, 2**32 - 1),
        sides=st.lists(st.sampled_from(("subject", "object", "both", "none")), min_size=2, max_size=2),
    )
    @example(lines=["Ann is kind", "Ann is old", "Ann meets Ben"], target="Ann", seed=1, sides=["both", "none"])
    def test_second_call_opens_unary_factors_from_the_lexicon(self, lines, target, seed, sides):
        lexes = closure_lexicons()
        # one attribute line per (actor, lexicon): each unary gate opens its factor
        opened, script = set(), [f"actor {a}" for a in CLOSURE_ACTORS]
        for line in lines:
            actor, verb, word = line.split()
            if verb == "is":
                key = (actor, next(lex.name for lex in lexes if word in lex))
                if key in opened:
                    continue
                opened.add(key)
            script.append(line)
        c = parse_script("\n".join(script), lexes)
        effects = _closure_effects(seed, sides, lexes[0].dim)
        calls = []
        real = circuits.conjugate_update

        def spy(state, effect):
            # verb effects are dense: a diagonal effect is an attribute word's
            calls.append(effect._diag is not None)
            return real(state, effect)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(circuits, "conjugate_update", spy)
            first = _bits(composed_factors(c, target, effects))
            unary = [g for g in c.gates if isinstance(g, UnaryGate)]
            closure = circuits._link_closure(c, target)
            # one opening state per word, kept from its first gate on
            assert calls.count(True) == len({g.word for g in unary if g.actor in closure})
            calls.clear()
            assert _bits(composed_factors(c, target, effects)) == first
            assert True not in calls

    def test_a_word_keeps_its_name_and_opening_states_apart(self):
        # rex names an actor and is an attribute of another: two wire states
        def built():
            return (
                build_lexicon(parse_taxonomy("ann\tperson\nben\tperson\n"), name="people"),
                build_lexicon(parse_taxonomy("rex\tpet\ntom\tpet\nfido\tpet\n"), name="pets"),
            )

        script = "actor Ann\nactor Rex\nAnn is rex\n"
        for order in (("Ann", "Rex"), ("Rex", "Ann")):
            lexes = built()
            c = parse_script(script, lexes)
            for actor in order * 2:
                want = composed_factors(parse_script(script, built()), actor)
                assert _bits(composed_factors(c, actor)) == _bits(want)
            assert _check_kept(lexes) == {"ann", "rex"}
            assert set(lexes[1]._wires) == {("name", "rex"), ("opened", "rex")}

    def test_memo_is_private(self, lexes, story):
        blanks = [pickle.dumps(lex) for lex in story_lexicons()]
        twins = [dataclasses.replace(lex) for lex in lexes]
        for actor in story.actor_names:
            composed_factors(story, actor)
            cn_actor(story, actor)
        rank_alternatives(story, "Alice")
        assert all(lex._wires for lex in lexes)
        assert lexes[0].word_ops["alice"]._trace is not None  # a name's trace is kept
        for lex, blank, twin, fresh in zip(lexes, blanks, twins, story_lexicons()):
            # not compared, shown or pickled, and no operator pickles its trace
            assert lex == twin and not twin._wires and "_wires" not in repr(lex)
            assert pickle.dumps(lex) == blank
            for table in ("word_ops", "wc_ops"):
                ops, fresh_ops = getattr(lex, table), getattr(fresh, table)
                assert [pickle.dumps(op) for op in ops.values()] == [
                    pickle.dumps(op) for op in fresh_ops.values()
                ]
            # not carried over by replace or copy
            for other in (
                pickle.loads(blank),
                dataclasses.replace(lex),
                copy.copy(lex),
                copy.deepcopy(lex),
            ):
                assert not other._wires
