"""Show how a follow-up utterance redistributes weight over negation sets.

Negates "red wine" against a few follow-ups and a lambda sweep, printing the
weight each subset of positions receives.
"""

from pathlib import Path

from convneg import WordString, build_lexicon, cn_string, load_taxonomy, score_string

ROOT = Path(__file__).resolve().parents[1]
FOLLOW_UPS = ["white wine", "red beer", "white beer"]
LAMBDAS = [0.25, 0.5, 0.75, 1.0]


def main() -> None:
    lexes = [
        build_lexicon(load_taxonomy(ROOT / "fixtures" / f), name=f.split(".")[0])
        for f in ("colors.tsv", "drinks.tsv")
    ]
    target = WordString.resolve("red wine".split(), lexes)

    for follow in FOLLOW_UPS:
        fu = WordString.resolve(follow.split(), lexes)
        for lam in LAMBDAS:
            scored = score_string(target, fu, lambda_size=lam)
            mixture = cn_string(target, scored.weights)
            subset, score = scored.best
            cells = "  ".join(
                "{%s} %.4f" % (",".join(target.words[i] for i in ss), w)
                for ss, w in zip(mixture.subsets, mixture.weights)
            )
            names = ",".join(target.words[i] for i in subset)
            print(f'"{follow}" lam={lam:.2f}  {cells}  best={{{names}}} ({score:.4f})')
        print()


if __name__ == "__main__":
    main()
