"""Sweep the four negation variants for one word and compare rankings.

Usage: python scripts/word_alternatives_demo.py [word] [--sigma S]
"""

import argparse
from pathlib import Path

from convneg import (
    SIGMA_DEFAULT,
    NegationConfig,
    alternatives,
    build_lexicon,
    cn_word,
    load_taxonomy,
)

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("word", nargs="?", default="hamster")
    ap.add_argument("--taxonomy", default=str(ROOT / "fixtures" / "fig1.tsv"))
    ap.add_argument("--sigma", type=float, default=SIGMA_DEFAULT)
    args = ap.parse_args()

    lex = build_lexicon(load_taxonomy(args.taxonomy))
    for logical in ("complement", "pinv"):
        for composition in ("hadamard", "conjugate"):
            cfg = NegationConfig(logical=logical, composition=composition, sigma=args.sigma)
            state = cn_word(args.word, lex, cfg)
            ranked = alternatives(args.word, lex, cfg)
            head = ", ".join(f"{w} {s:.4f}" for w, s in ranked[:3])
            print(f"not-{args.word} [{logical}/{composition}]  trace={state.trace():.4f}")
            print(f"  {head}")


if __name__ == "__main__":
    main()
