"""Rank who "not Alice" refers to in the story fixture, across sigma values.

Prints each actor's contributing words first, then the ranking of the other
actors against the negated one for a few smoothing strengths.
"""

from pathlib import Path

from convneg import (
    NegationConfig,
    build_lexicon,
    cn_actor,
    contribution_string,
    load_script,
    load_taxonomy,
    rank_alternatives,
)

ROOT = Path(__file__).resolve().parents[1]
NEGATED = "Alice"


def main() -> None:
    lexes = [
        build_lexicon(load_taxonomy(ROOT / "fixtures" / f), name=f.split(".")[0])
        for f in ("names.tsv", "kinds.tsv", "roles.tsv")
    ]
    circuit = load_script(ROOT / "fixtures" / "story.txt", lexes)

    for actor in circuit.actors:
        _, labels = contribution_string(circuit, actor.name)
        print(f"{actor.name}: {' '.join(labels)}")
    print()

    mixture = cn_actor(circuit, NEGATED)
    _, labels = contribution_string(circuit, NEGATED)
    for term in mixture.terms:
        subset = ",".join(labels[i] for i in term.subset)
        print(f"  not-{NEGATED} weight {term.weight:.4f} on {{{subset}}}")
    print()

    for sigma in (0.0, 0.25, 0.5):
        ranked = rank_alternatives(circuit, NEGATED, NegationConfig(sigma=sigma))
        row = "  ".join(
            f"{actor.name} {score:.6f}" for actor, _, score in ranked
        )
        print(f"sigma={sigma:.2f}  {row}")


if __name__ == "__main__":
    main()
