"""Text circuits: actor wires updated by attribute and verb gates.

A script line like ``Alice is a human`` applies a predicate to Alice's wire;
``Alice loves Bob`` links two wires and may apply a verb effect to each name.
Every gate updates a single factor, one state per (actor, lexicon), so a
linked group is a list of factor states, never one joint matrix, and only
the gates of the actor's link closure run. A marginal is read off the
factors: composed_factors scales each factor's own entries by the other
factors' traces, so no joint or composite matrix is ever built. A wire's
opening state depends only on its lexicon and word, so each lexicon keeps it
(``Lexicon._wires``): a name word's trace-normalized operator, an attribute
word's update of the maximally mixed state. Only verb effects and second
touches of a factor are computed per call, and a zero state is never kept.

Reading all updates to a wire as one long word string lets the
string-negation machinery negate an actor: every word that touched the wire,
directly or through a linking verb, is a candidate for the negation set.
cn_actor and rank_alternatives take their smoothing sigma from the
NegationConfig, like the string functions they call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DimMismatch,
    ParseError,
    UnknownActor,
    UnknownWord,
    ZeroOperator,
    _read_text,
)
from .lexicon import Lexicon, resolve_word
from .negation import DEFAULTS, LAMBDA_DEFAULT, NegationConfig
from .operators import Operator, _entries, _from_entries, conjugate_update, diagonal, normalize
from .strings import (
    NegationMixture,
    Slot,
    WordString,
    best_interpretation,
    cn_string,
    derive_weights,
    size_prior,
)


@dataclass(frozen=True)
class Actor:
    """A wire: display name as written, name word, and its name lexicon."""

    name: str
    word: str
    lex: Lexicon


@dataclass(frozen=True)
class UnaryGate:
    actor: str
    word: str
    lex: Lexicon


@dataclass(frozen=True)
class BinaryGate:
    subject: str
    verb: str
    lex: Lexicon
    object: str


Gate = UnaryGate | BinaryGate


@dataclass(frozen=True)
class TextCircuit:
    actors: tuple[Actor, ...]
    gates: tuple[Gate, ...]
    links: frozenset[frozenset[str]]

    def actor(self, name: str) -> Actor:
        for a in self.actors:
            if a.name == name:
                return a
        raise UnknownActor(f"actor {name!r} is not declared in this script")

    @property
    def actor_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.actors)


@dataclass(frozen=True)
class ActorView:
    """An actor's own words: its name, then its attribute gates in text
    order. Verbs are left out; they belong to a link, not to one actor."""

    actor: Actor
    gates: tuple[UnaryGate, ...]

    def unary_string(self) -> WordString:
        """The name word, then each attribute word, as one word string."""
        a = self.actor
        return WordString((Slot(a.word, a.lex), *(Slot(g.word, g.lex) for g in self.gates)))

    @property
    def labels(self) -> tuple[str, ...]:
        """Display labels: the name as written, then each attribute word."""
        return (self.actor.name, *(g.word for g in self.gates))


# ---------------------------------------------------------------------------
# script parsing


def _resolve(word: str, lexicons: Sequence[Lexicon], lineno: int) -> Lexicon:
    try:
        return resolve_word(word, lexicons)
    except UnknownWord as exc:
        raise ParseError(str(exc), line=lineno) from exc


def name_word(token: str, lexicons: Sequence[Lexicon]) -> str | None:
    """The word a name token stands for: the token as written when a lexicon
    holds it, else lower-cased when one holds that, else None."""
    return next((w for w in (token, token.lower()) if any(w in lx for lx in lexicons)), None)


def parse_script(text: str, lexicons: Sequence[Lexicon]) -> TextCircuit:
    """Line grammar: ``actor <Name>``, ``<Name> is [a|an] <word>``,
    ``<Name> <verb> <Name>``; ``#`` comments; trailing punctuation ignored.

    Capitalized names auto-declare on first mention; lowercase actor names
    need an explicit ``actor`` line.
    """
    actors: dict[str, Actor] = {}
    order: list[Actor] = []
    gates: list[Gate] = []
    links: set[frozenset[str]] = set()

    def declare(token: str, lineno: int) -> Actor:
        word = name_word(token, lexicons)
        if word is None:
            raise ParseError(f"actor name {token!r} not found in any lexicon", line=lineno)
        a = Actor(token, word, _resolve(word, lexicons, lineno))
        actors[token] = a
        order.append(a)
        return a

    def reference(token: str, lineno: int) -> Actor:
        if token in actors:
            return actors[token]
        if token[:1].isupper():
            return declare(token, lineno)
        raise ParseError(
            f"unknown actor {token!r} (declare lowercase actors with 'actor {token}')",
            line=lineno,
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip().rstrip(".!?").strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "actor":
            if len(tokens) != 2:
                raise ParseError("actor lines read 'actor <Name>'", line=lineno)
            if tokens[1] in actors:
                raise ParseError(f"actor {tokens[1]!r} already declared", line=lineno)
            declare(tokens[1], lineno)
        elif len(tokens) >= 3 and tokens[1] == "is":
            rest = tokens[2:]
            if rest[0] in ("a", "an") and len(rest) > 1:
                rest = rest[1:]
            if len(rest) != 1:
                raise ParseError(f"cannot parse attribute line {line!r}", line=lineno)
            actor = reference(tokens[0], lineno)
            lex = _resolve(rest[0], lexicons, lineno)
            gates.append(UnaryGate(actor.name, rest[0], lex))
        elif len(tokens) == 3:
            subject = reference(tokens[0], lineno)
            obj = reference(tokens[2], lineno)
            lex = _resolve(tokens[1], lexicons, lineno)
            gates.append(BinaryGate(subject.name, tokens[1], lex, obj.name))
            if subject.name != obj.name:
                links.add(frozenset((subject.name, obj.name)))
        else:
            raise ParseError(f"cannot parse line {line!r}", line=lineno)

    return TextCircuit(tuple(order), tuple(gates), frozenset(links))


def load_script(path, lexicons: Sequence[Lexicon]) -> TextCircuit:
    return parse_script(_read_text(path), lexicons)


# ---------------------------------------------------------------------------
# views and contributing words


def actor_view(c: TextCircuit, name: str) -> ActorView:
    a = c.actor(name)
    return ActorView(a, tuple(g for g in c.gates if isinstance(g, UnaryGate) and g.actor == a.name))


def _link_closure(c: TextCircuit, name: str) -> set[str]:
    group = {name}
    frontier = [name]
    while frontier:
        current = frontier.pop()
        for pair in c.links:
            if current in pair:
                for other in pair:
                    if other not in group:
                        group.add(other)
                        frontier.append(other)
    return group


def contributing_words(c: TextCircuit, name: str) -> list[tuple[Actor | Gate, str]]:
    """Everything negating ``name`` may touch: its own name and gates plus, via
    linking verbs, the names and gates of linked actors; text order, each
    actor's name just before its first gate."""
    a = c.actor(name)
    group = _link_closure(c, a.name)
    out: list[tuple[Actor | Gate, str]] = []
    named: set[str] = set()

    def emit_name(actor_name: str) -> None:
        if actor_name not in named:
            named.add(actor_name)
            act = c.actor(actor_name)
            out.append((act, act.word))

    for g in c.gates:
        if isinstance(g, UnaryGate) and g.actor in group:
            emit_name(g.actor)
            out.append((g, g.word))
        elif isinstance(g, BinaryGate) and (g.subject in group or g.object in group):
            emit_name(g.subject)
            emit_name(g.object)
            out.append((g, g.verb))
    emit_name(a.name)  # an actor with no gates still contributes its name
    return out


# ---------------------------------------------------------------------------
# circuit semantics


Effects = Mapping[str, tuple[Operator | None, Operator | None]]
_Factor = tuple[str, Lexicon, Operator]  # (owner, lexicon, state)


def _kept(lex: Lexicon, key: tuple[str, str], make: Callable[[], Operator]) -> Operator:
    """The wire state ``lex`` keeps under ``key``: ``make()``, kept unless zero
    (see ``Lexicon``), so an error or a zero state is made again on every call."""
    state = lex._wires.get(key)
    if state is None:
        state = make()
        if not state.is_zero():
            lex._wires[key] = state
    return state


def _name_state(a: Actor) -> Operator:
    """The actor's name word trace-normalized: the state its wire opens in."""
    try:
        return normalize(a.lex.word_operator(a.word), "trace")
    except ZeroOperator:
        raise ZeroOperator(f"name word {a.word!r} of actor {a.name} has the zero operator") from None


def _update(
    factors: list[_Factor], owner: str, lex: Lexicon, effect: Operator, word: str | None = None
) -> None:
    """Conjugate the owner's factor on ``lex`` by ``effect``, the operator of
    the attribute ``word`` or a verb effect. A verb acts on a name's factor,
    there from the start; an attribute word opens a missing factor in the
    state ``lex`` keeps for it, the maximally mixed state updated by it."""
    for i, (o, flex, state) in enumerate(factors):
        if o == owner and flex is lex:
            factors[i] = (o, flex, conjugate_update(state, effect))
            return
    def opened() -> Operator:
        return conjugate_update(diagonal(np.full(lex.dim, 1.0 / lex.dim)), effect)

    factors.append((owner, lex, _kept(lex, ("opened", word), opened)))


def _evolve(c: TextCircuit, name: str, effects: Effects | None) -> list[_Factor]:
    """The actor's linked group as a list of per-(actor, lexicon) factor
    states, in first-touch order.

    Every gate acts on a single factor, so the group's joint state is the
    Kronecker product of the factors and is never formed. Factor states are
    not renormalized: an update that annihilates one factor zeroes every
    marginal of the group. Only the gates of the actor's link closure run: a
    binary gate that touches it has both ends in it, so none is reordered.
    Other names and effects are only checked, as their updates would be.
    """
    closure = _link_closure(c, name)
    groups: dict[str, list[_Factor]] = {}
    for a in c.actors:
        # outside the closure a name is only checked: a zero one raises here
        if a.name in closure or a.lex.word_operator(a.word).is_zero():
            state = _kept(a.lex, ("name", a.word), lambda: _name_state(a))
            groups[a.name] = [(a.name, a.lex, state)]
    for g in c.gates:
        if isinstance(g, UnaryGate):
            if g.actor in closure:
                _update(groups[g.actor], g.actor, g.lex, g.lex.word_operator(g.word), g.word)
            continue
        if g.subject in closure:
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
                if g.subject in closure:
                    _update(group, actor_name, act.lex, eff)
    return groups[name]


def composed_factors(
    c: TextCircuit, name: str, effects: Effects | None = None
) -> dict[str, Operator]:
    """Per-space marginals of the actor's evolved state, trace-normalized,
    keyed by lexicon name (positional key for unnamed lexicons): a factor's
    own state times the other factors' traces, multiplied in group order."""
    a = c.actor(name)
    group = _evolve(c, a.name, effects)
    traces = [state.trace() for _, _, state in group]
    out: dict[str, Operator] = {}
    for i, (owner, lex, state) in enumerate(group):
        if owner != a.name:
            continue
        key = lex.name or f"factor{i}"
        if key in out:
            key = f"{key}@{i}"
        scale = math.prod(traces[:i] + traces[i + 1 :])
        out[key] = normalize(_from_entries(_entries(state) * scale, lex.leaves), "trace")
    return out


# ---------------------------------------------------------------------------
# actor negation and ranking


def contribution_string(c: TextCircuit, name: str) -> tuple[WordString, tuple[str, ...]]:
    """contributing_words as a WordString, plus display labels (actor names
    keep their script capitalization)."""
    entries = contributing_words(c, name)
    slots = tuple(Slot(word, source.lex) for source, word in entries)
    display = tuple(src.name if isinstance(src, Actor) else word for src, word in entries)
    return WordString(slots), display


def cn_actor(
    c: TextCircuit,
    name: str,
    cfg: NegationConfig = DEFAULTS,
    *,
    context: WordString | None = None,
    lambda_size: float = LAMBDA_DEFAULT,
) -> NegationMixture:
    """Negate an actor: mixture over negation sets of its contributing words.

    Weights come from the context string when one is given (overlaps smoothed
    by cfg.sigma), else from the size prior alone.
    """
    s, _ = contribution_string(c, name)
    if context is None:
        return cn_string(s, size_prior(len(s), lambda_size), cfg)
    return cn_string(s, derive_weights(s, context, lambda_size, cfg), cfg)


def rank_alternatives(
    c: TextCircuit,
    name: str,
    cfg: NegationConfig = DEFAULTS,
    lambda_size: float = LAMBDA_DEFAULT,
) -> list[tuple[Actor, tuple[int, ...], float]]:
    """Who else the speaker might have meant: every other actor scored by the
    best interpretation of "not <name>" against that actor's word sequence,
    with overlaps smoothed by cfg.sigma.

    Actors must be structurally parallel (same slot count, same spaces per
    position), else the AlignmentError names the rival; the negated actor
    must not be linked.
    """
    negated = c.actor(name)
    if any(negated.name in pair for pair in c.links):
        raise AlignmentError(
            f"actor {name!r} shares binary gates; ranking needs a link-free actor"
        )
    s = actor_view(c, negated.name).unary_string()
    rows = []
    for other in c.actors:
        if other.name == negated.name:
            continue
        target = actor_view(c, other.name).unary_string()
        try:
            subset, score = best_interpretation(s, target, lambda_size, cfg)
        except AlignmentError as exc:
            raise AlignmentError(f"actor {other.name!r} against {negated.name!r}: {exc}") from exc
        rows.append((other, subset, score))
    # a stable sort, so equal scores keep declaration order under reverse=True too
    return sorted(rows, key=lambda r: r[2], reverse=True)
