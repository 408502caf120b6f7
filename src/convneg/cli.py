"""Command-line front end.

Every number is printed with six decimals (Python's round-half-even float
formatting) and every table in a fixed canonical order, so identical
invocations produce byte-identical stdout. Domain failures exit 1 with
``error: <ErrorName>: <message>`` on stderr; usage problems exit 2.

Taxonomy arguments accept either a child<TAB>parent TSV or a lexicon store
written by ``lexicon build`` (detected by the store's header line).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Sequence

from .circuits import (
    actor_view,
    cn_actor,
    contribution_string,
    load_script,
    rank_alternatives,
)
from .entailment import SIGMA_DEFAULT, loewner_k, overlap_score
from .errors import ConvnegError
from .lexicon import DEFAULT_DECAY, Lexicon, build_lexicon, load_lexicon, save_lexicon
from .negation import (
    COMPOSITION_CHOICES,
    DEFAULTS,
    LOGICAL_CHOICES,
    NegationConfig,
    alternatives,
)
from .strings import (
    LAMBDA_DEFAULT,
    WordString,
    _best_from_scores,
    _weights_from_scores,
    enumerate_negation_sets,
    interpretation_scores,
)
from .taxonomy import load_taxonomy


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _subset_label(subset: Sequence[int], labels: Sequence[str]) -> str:
    return "{" + ",".join(labels[i] for i in subset) + "}"


def _emit(header: Sequence[str], rows: list[tuple[str, ...]], fmt: str, out: IO[str]) -> None:
    table = [tuple(header), *rows]
    if fmt == "tsv":
        for row in table:
            print("\t".join(row), file=out)
        return
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        print(line.rstrip(), file=out)


def _load_one(path: str) -> Lexicon:
    p = Path(path)
    with open(p, "rb") as fh:
        first = fh.readline()
    if first.startswith(b"LEXICON"):
        return load_lexicon(p)
    return build_lexicon(load_taxonomy(p), name=p.stem)


def _load_many(paths: str) -> list[Lexicon]:
    out = [_load_one(p.strip()) for p in paths.split(",") if p.strip()]
    if not out:
        raise ValueError("no taxonomy files given")
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_taxonomy_validate(args, out: IO[str]) -> int:
    tax = load_taxonomy(args.file)
    print(
        f"ok: {len(tax.order)} concepts, {len(tax.leaves)} leaves, "
        f"{len(tax.roots)} roots, {len(tax.edges)} edges",
        file=out,
    )
    return 0


def _cmd_lexicon_build(args, out: IO[str]) -> int:
    tax = load_taxonomy(args.taxonomy)
    lex = build_lexicon(tax, decay=args.decay, name=Path(args.out).stem)
    save_lexicon(lex, args.out)
    print(f"wrote {args.out}: {len(lex.concepts)} concepts, dim {lex.dim}", file=out)
    return 0


def _cmd_lexicon_check(args, out: IO[str]) -> int:
    lex = load_lexicon(args.store)
    print(
        f"ok: {len(lex.concepts)} concepts, dim {lex.dim}, decay {lex.decay!r}",
        file=out,
    )
    return 0


def _cmd_negate_word(args, out: IO[str]) -> int:
    lex = _load_one(args.taxonomy)
    cfg = NegationConfig(
        logical=args.neg, composition=args.comp, decay=args.decay, sigma=args.sigma
    )
    ranked = alternatives(args.word, lex, cfg, args.top)
    rows = [
        (str(i), concept, _fmt(score))
        for i, (concept, score) in enumerate(ranked, start=1)
    ]
    _emit(("rank", "concept", "score"), rows, args.format, out)
    return 0


def _cmd_negate_string(args, out: IO[str]) -> int:
    lexes = _load_many(args.taxonomies)
    s = WordString.resolve(args.string.split(), lexes)
    follow = WordString.resolve(args.follow_up.split(), lexes)
    cfg = NegationConfig(sigma=args.sigma)
    # derive_weights and best_interpretation, sharing one scoring pass
    raw = interpretation_scores(s, follow, args.lambda_size, cfg)
    weights = _weights_from_scores(raw, len(s), args.lambda_size)
    labels = s.words
    rows = [
        (_subset_label(subset, labels), _fmt(w), _fmt(r))
        for subset, w, r in zip(enumerate_negation_sets(len(s)), weights, raw)
    ]
    _emit(("subset", "weight", "score"), rows, args.format, out)
    subset, score = _best_from_scores(raw, len(s))
    print(f"best {_subset_label(subset, labels)} {_fmt(score)}", file=out)
    return 0


def _cmd_entail(args, out: IO[str]) -> int:
    lex = _load_one(args.taxonomy)
    if args.measure == "khyp":
        value = loewner_k(lex.word_operator(args.a), lex.word_operator(args.b))
    else:
        value = overlap_score(lex.word_operator(args.a), args.b, lex, args.sigma)
    print(_fmt(value), file=out)
    return 0


def _cmd_negate_actor(args, out: IO[str]) -> int:
    lexes = _load_many(args.taxonomies)
    circuit = load_script(args.script, lexes)
    cfg = NegationConfig(sigma=args.sigma)
    if args.rank:
        view = actor_view(circuit, args.actor)
        labels = [args.actor] + [
            slot.word for slot in view.slots[1:] if slot.gate is not None
        ]
        rows = [
            (str(i), actor.name, _subset_label(subset, labels), _fmt(score))
            for i, (actor, subset, score) in enumerate(
                rank_alternatives(circuit, args.actor, cfg, args.lambda_size),
                start=1,
            )
        ]
        _emit(("rank", "actor", "subset", "score"), rows, args.format, out)
        return 0
    context = None
    if args.context:
        context = WordString.resolve(args.context.split(), lexes)
    mix = cn_actor(circuit, args.actor, cfg, context=context, lambda_size=args.lambda_size)
    _, labels = contribution_string(circuit, args.actor)
    rows = [
        (_subset_label(term.subset, labels), _fmt(term.weight)) for term in mix.terms
    ]
    _emit(("subset", "weight"), rows, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "tsv"), default="table")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convneg",
        description="Conversational negation over positive-operator lexicons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tax = sub.add_parser("taxonomy", help="taxonomy file utilities")
    tax_sub = tax.add_subparsers(dest="subcommand", required=True)
    tv = tax_sub.add_parser("validate", help="parse and report a taxonomy")
    tv.add_argument("file")
    tv.set_defaults(func=_cmd_taxonomy_validate)

    lx = sub.add_parser("lexicon", help="lexicon store utilities")
    lx_sub = lx.add_subparsers(dest="subcommand", required=True)
    lb = lx_sub.add_parser("build", help="build operators from a taxonomy")
    lb.add_argument("taxonomy")
    lb.add_argument("--out", required=True)
    lb.add_argument("--decay", type=float, default=DEFAULT_DECAY)
    lb.set_defaults(func=_cmd_lexicon_build)
    lc = lx_sub.add_parser("check", help="load a store and re-validate it")
    lc.add_argument("store")
    lc.set_defaults(func=_cmd_lexicon_check)

    nw = sub.add_parser("negate-word", help="alternatives to a negated word")
    nw.add_argument("word")
    nw.add_argument("--taxonomy", required=True)
    nw.add_argument("--neg", choices=LOGICAL_CHOICES, default=DEFAULTS.logical)
    nw.add_argument("--comp", choices=COMPOSITION_CHOICES, default=DEFAULTS.composition)
    nw.add_argument("--decay", type=float, default=None)
    nw.add_argument("--sigma", type=float, default=SIGMA_DEFAULT)
    nw.add_argument("--top", type=int, default=None)
    _add_format(nw)
    nw.set_defaults(func=_cmd_negate_word)

    ns = sub.add_parser("negate-string", help="negation-set weights for a string")
    ns.add_argument("string")
    ns.add_argument("--follow-up", required=True, dest="follow_up")
    ns.add_argument("--taxonomies", required=True)
    ns.add_argument("--lambda", type=float, default=LAMBDA_DEFAULT, dest="lambda_size")
    ns.add_argument("--sigma", type=float, default=SIGMA_DEFAULT)
    _add_format(ns)
    ns.set_defaults(func=_cmd_negate_string)

    en = sub.add_parser("entail", help="graded entailment between two words")
    en.add_argument("a")
    en.add_argument("b")
    en.add_argument("--taxonomy", required=True)
    en.add_argument("--measure", choices=("khyp", "overlap"), default="overlap")
    en.add_argument("--sigma", type=float, default=SIGMA_DEFAULT)
    en.set_defaults(func=_cmd_entail)

    tx = sub.add_parser("text", help="text-circuit operations")
    tx_sub = tx.add_subparsers(dest="subcommand", required=True)
    na = tx_sub.add_parser("negate-actor", help="negate an actor in a script")
    na.add_argument("script")
    na.add_argument("actor")
    na.add_argument("--taxonomies", required=True)
    na.add_argument("--rank", action="store_true")
    na.add_argument("--context", default=None)
    na.add_argument("--sigma", type=float, default=SIGMA_DEFAULT)
    na.add_argument("--lambda", type=float, default=LAMBDA_DEFAULT, dest="lambda_size")
    _add_format(na)
    na.set_defaults(func=_cmd_negate_actor)

    return parser


def run(argv: Sequence[str] | None = None, out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except (ConvnegError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
