"""The four workloads: set-up, one op, and that op's output checks.

A workload object offers:

- ``prepare(seed, workdir)``: write the set-up inputs (run before any
  workload process starts);
- ``setup(tr)``: the program's set-up calls made before the first op;
- ``spec(i)``: the inputs of op ``i``, generated from the seed (untimed);
- ``run(spec, tr)``: the op itself, as public calls into the package, each
  wrapped in a span when ``tr`` is a tracer;
- ``refused(spec, exc)``: whether an exception is a documented refusal;
- ``check(i, spec, out)``: problems with the op's output (untimed);
- ``summary(out)``: a compact output, compared between traced and untraced
  runs of the same op;
- ``properties(n)``: input properties over the first ``n`` ops.

Nothing here imports numpy or the package at module level: the package
module is handed in after the workload process has timed its import.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import subprocess
import sys
from pathlib import Path

import gen
from reference import SCORE_TOL, ExactTaxonomy, canonical_subsets, ranking_problems

ROOT = Path(__file__).resolve().parent.parent
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def operator_bytes(*lexicons) -> int:
    """Computed bytes of the word and context operator matrices held."""
    return sum(
        op.matrix.nbytes
        for lex in lexicons
        for ops in (lex.word_ops, lex.wc_ops)
        for op in ops.values()
    )


def ranked_alternatives(cn, word, lex, cfg, tr):
    """``alternatives`` as one call, or, traced, as the calls it is made of:
    ``cn_word``, one ``overlap_score`` per candidate leaf, then the ranking."""
    if not tr.traced:
        return cn.alternatives(word, lex, cfg)
    state = tr.call("negation.cn_word", cn.cn_word, word, lex, cfg)
    scored = [
        (tr.call("entailment.overlap", cn.overlap_score, state, leaf, lex, cfg.sigma), i, leaf)
        for i, leaf in enumerate(lex.leaves)
        if leaf != word
    ]
    with tr.span("negation.rank"):
        scored.sort(key=lambda t: (-t[0], t[1]))
        return [(leaf, score) for score, _, leaf in scored]


def random_orthogonal(seed: int, n: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class Workload:
    name = ""
    # set-up probes for setup_s run ``setup`` too, unless this is false
    probe_runs_setup = True
    # ops run in child processes, so their speed is calibrated by process starts
    timed_in_child = False

    def __init__(self, seed: int, workdir: Path, cn):
        self.seed = seed
        self.workdir = workdir
        self.cn = cn

    @staticmethod
    def prepare(seed: int, workdir: Path) -> None:
        pass

    def setup(self, tr) -> None:
        pass

    def after_setup(self, tr) -> None:
        """Benchmark-side state built after set-up is timed."""

    def refused(self, spec, exc: Exception) -> bool:
        return False

    def summary(self, out):
        return out

    def properties(self, n: int) -> dict:
        return {}

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


class WordQueries(Workload):
    name = "word_queries"
    exact_share = 0.25  # share of negation ops checked against the exact reference

    @staticmethod
    def prepare(seed, workdir):
        (workdir / "taxonomy.tsv").write_text(gen.word_query_taxonomy(seed).text, encoding="utf-8")

    def setup(self, tr):
        tax = tr.call("taxonomy.parse", self.cn.load_taxonomy, self.workdir / "taxonomy.tsv")
        self.lex = tr.call("lexicon.build", self.cn.build_lexicon, tax)

    def after_setup(self, tr):
        self.tax = gen.word_query_taxonomy(self.seed)
        self.exact = ExactTaxonomy(self.tax, self.lex.decay)
        tr.maximum("lexicon.operator_bytes", operator_bytes(self.lex))

    def spec(self, i):
        return gen.word_query(self.seed, i, self.tax)

    def config(self, q):
        return self.cn.NegationConfig(
            logical="pinv" if q.kind == "pinv" else "complement",
            composition="conjugate" if q.kind == "conjugate" else "hadamard",
            decay=q.decay,
        )

    def run(self, q, tr):
        cn, lex = self.cn, self.lex
        if q.kind == "loewner":
            return tr.call(
                "entailment.loewner", cn.loewner_k,
                lex.word_operator(q.word), lex.word_operator(q.other),
            )
        if q.kind == "overlap":
            return tr.call(
                "entailment.overlap", cn.overlap_score, lex.word_operator(q.word), q.other, lex
            )
        return ranked_alternatives(cn, q.word, lex, self.config(q), tr)

    def check(self, i, q, out):
        if q.kind in ("loewner", "overlap"):
            if q.kind == "loewner":
                want = self.exact.loewner(q.word, q.other)
            else:
                want = self.exact.overlap_words(q.word, q.other, self.cn.SIGMA_DEFAULT)
            if not 0.0 <= out <= 1.0 or abs(out - float(want)) > SCORE_TOL:
                return [f"{q.kind}({q.word}, {q.other}) = {out!r}, reference {float(want)!r}"]
            return []
        problems = [f"score {s!r} of {name} outside [0, 1]" for name, s in out if not 0 <= s <= 1]
        names = sorted(name for name, _ in out)
        if names != sorted(leaf for leaf in self.tax.leaves if leaf != q.word):
            problems.append(f"ranking of not-{q.word} is not every other leaf once")
        if gen.rng_for(self.seed, "wq-check", i).random() < self.exact_share:
            cfg = self.config(q)
            want = self.exact.alternatives(q.word, cfg.logical, q.decay, cfg.sigma)
            problems += ranking_problems(out, want)
        return problems

    def properties(self, n):
        kinds = [gen.WORD_QUERY_CYCLE[i % len(gen.WORD_QUERY_CYCLE)] for i in range(n)]
        return {
            "leaves": len(self.tax.leaves),
            "concepts": len(self.tax.concepts),
            "max_parents": max(len(p) for p in self.tax.parents.values()),
            "kind_share": {k: round(kinds.count(k) / n, 4) for k in sorted(set(kinds))},
        }


# ---------------------------------------------------------------------------


class LexiconStore(Workload):
    name = "lexicon_store"

    def spec(self, i):
        s = gen.store_spec(self.seed, i)
        q = random_orthogonal(s.rotation_seed, len(s.tax.leaves)) if s.rotate else None
        return s, q

    def run(self, spec, tr):
        cn = self.cn
        s, q = spec
        tax = tr.call("taxonomy.parse", cn.parse_taxonomy, s.tax.text)
        lex = tr.call("lexicon.build", cn.build_lexicon, tax, name="store")
        if q is not None:
            lex = self.rotated(lex, q, tr)
        path = self.workdir / "store.lex"
        tr.call("lexicon.save", cn.save_lexicon, lex, path)
        tr.count("lexicon.store_bytes", path.stat().st_size)
        loaded = tr.call("lexicon.load", cn.load_lexicon, path)
        tr.maximum("lexicon.operator_bytes", operator_bytes(lex, loaded))
        return lex, loaded, ranked_alternatives(cn, s.word, loaded, cn.DEFAULTS, tr)

    def rotated(self, lex, q, tr):
        """Every operator conjugated by ``q``: dense, non-diagonal store entries."""

        def rotate(op):
            m = q @ op.matrix @ q.T
            return tr.call("operators.construct", self.cn.Operator, (m + m.T) / 2.0, lex.leaves)

        return dataclasses.replace(
            lex,
            word_ops={c: rotate(op) for c, op in lex.word_ops.items()},
            wc_ops={c: rotate(op) for c, op in lex.wc_ops.items()},
        )

    def check(self, i, spec, out):
        import numpy as np

        s, _ = spec
        lex, loaded, ranked = out
        if (loaded.concepts, loaded.leaves, loaded.decay) != (lex.concepts, lex.leaves, lex.decay):
            return ["loaded store has other concepts, leaves or decay than the built one"]
        problems = []
        for c in lex.concepts:
            for kind, a, b in (("WORD", lex.word_ops, loaded.word_ops), ("WC", lex.wc_ops, loaded.wc_ops)):
                diff = float(np.max(np.abs(a[c].matrix - b[c].matrix)))
                if diff > SCORE_TOL:
                    problems.append(f"{kind} {c}: loaded operator differs by {diff:.3e}")
        problems += [f"score {x!r} of {name} outside [0, 1]" for name, x in ranked if not 0 <= x <= 1]
        built = self.cn.alternatives(s.word, lex)
        problems += [f"built vs loaded: {p}" for p in ranking_problems(ranked, built)]
        return problems

    def summary(self, out):
        return out[2]

    def properties(self, n):
        specs = [gen.store_spec(self.seed, i) for i in range(n)]
        leaves = [len(s.tax.leaves) for s in specs]
        return {
            "leaves_min": min(leaves),
            "leaves_max": max(leaves),
            "leaves_mean": round(sum(leaves) / n, 2),
            "concepts_mean": round(sum(len(s.tax.concepts) for s in specs) / n, 2),
            "rotated_share": round(sum(s.rotate for s in specs) / n, 4),
        }


# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TextOut:
    circuit: object
    weights: tuple
    scores: list
    best: tuple
    ranked: list
    factors: dict
    mixture: object


class TextRequests(Workload):
    name = "text_requests"
    kinds = ("names", "kinds", "roles", "verbs")

    @staticmethod
    def prepare(seed, workdir):
        for f, fam in enumerate(gen.families(seed)):
            for kind, tax in fam.items():
                (workdir / f"family{f}-{kind}.tsv").write_text(tax.text, encoding="utf-8")

    def setup(self, tr):
        cn = self.cn
        self.lexes = [
            [
                tr.call(
                    "lexicon.build", cn.build_lexicon,
                    tr.call("taxonomy.parse", cn.load_taxonomy, self.workdir / f"family{f}-{kind}.tsv"),
                    name=kind,
                )
                for kind in self.kinds
            ]
            for f in range(gen.FAMILIES)
        ]

    def after_setup(self, tr):
        self.fams = gen.families(self.seed)
        tr.maximum("lexicon.operator_bytes", operator_bytes(*(x for f in self.lexes for x in f)))

    def spec(self, i):
        import numpy as np

        st = gen.story(self.seed, i, self.fams)
        if st.effects == "none":
            return st, None
        dim = len(self.fams[st.family]["names"].leaves)
        rng = np.random.default_rng(st.effect_seed)
        mats = []
        for _ in range(1 if st.effects == "subject" else 2):
            q = random_orthogonal(int(rng.integers(2**32)), dim)
            m = q @ np.diag(rng.uniform(0.3, 1.0, dim)) @ q.T
            mats.append((m + m.T) / 2.0)
        return st, (mats[0], mats[1] if len(mats) > 1 else None)

    def run(self, spec, tr):
        cn = self.cn
        st, mats = spec
        lexes = self.lexes[st.family]
        circuit = tr.call("circuits.parse", cn.parse_script, st.script, lexes)
        s = cn.WordString.resolve(st.string, lexes)
        follow = cn.WordString.resolve(st.follow_up, lexes)
        weights = tr.call("strings.derive_weights", cn.derive_weights, s, follow)
        scores = tr.call("strings.interpretation_scores", cn.interpretation_scores, s, follow)
        best = tr.call("strings.best_interpretation", cn.best_interpretation, s, follow)
        tr.count("strings.subsets", 3 * (2 ** len(st.string) - 1))
        ranked = tr.call("circuits.rank", cn.rank_alternatives, circuit, st.free_actor)
        effects = None
        if mats is not None:
            effects = {
                st.verb: tuple(
                    None if m is None else tr.call("operators.construct", cn.Operator, m)
                    for m in mats
                )
            }
        tr.maximum("circuits.joint_dim_max", st.joint_dim)
        factors = tr.call("circuits.composed", cn.composed_factors, circuit, st.linked_actor, effects)
        mixture = tr.call("circuits.cn_actor", cn.cn_actor, circuit, st.linked_actor)
        return TextOut(circuit, weights, scores, best, ranked, factors, mixture)

    def refused(self, spec, exc):
        return isinstance(exc, self.cn.TooLarge) and spec[0].over_guard

    def check(self, i, spec, out):
        import numpy as np

        cn = self.cn
        st, _ = spec
        problems = []
        subsets = canonical_subsets(len(st.string))
        w, r = out.weights, out.scores
        if len(w) != len(subsets) or len(r) != len(subsets):
            return [f"{len(w)} weights and {len(r)} scores for {len(subsets)} negation sets"]
        if min(w) < 0 or abs(sum(w) - 1.0) > SCORE_TOL:
            problems.append(f"weights sum to {sum(w)!r}")
        total = sum(r)
        if total > 0 and any(abs(a - b / total) > SCORE_TOL for a, b in zip(w, r)):
            problems.append("weights are not the normalized interpretation scores")
        top = r.index(max(r))
        if out.best != (subsets[top], r[top]):
            problems.append(f"best_interpretation {out.best} is not the canonical argmax")

        others = sorted(a for a in out.circuit.actor_names if a != st.free_actor)
        if sorted(a.name for a, _, _ in out.ranked) != others:
            problems.append("ranking does not list every other actor once")
        negated = cn.actor_view(out.circuit, st.free_actor).unary_string()
        for actor, subset, score in out.ranked:
            target = cn.actor_view(out.circuit, actor.name).unary_string()
            if cn.best_interpretation(negated, target) != (subset, score):
                problems.append(f"ranked score of {actor.name} is not its best interpretation")
        ranked_scores = [x for _, _, x in out.ranked]
        if ranked_scores != sorted(ranked_scores, reverse=True):
            problems.append("ranking is not in descending score order")

        if sorted(out.factors) != ["kinds", "names", "roles"]:
            problems.append(f"composed factors {sorted(out.factors)}")
        for key, op in out.factors.items():
            m = op.matrix
            if abs(np.trace(m) - 1.0) > SCORE_TOL or np.linalg.eigvalsh(m)[0] < -SCORE_TOL:
                problems.append(f"factor {key} is not a unit-trace PSD state")
        words = 3 * st.group_size + st.group_size - 1
        terms = out.mixture.terms
        if len(terms) != 2**words - 1 or abs(sum(t.weight for t in terms) - 1.0) > SCORE_TOL:
            problems.append(f"cn_actor mixture has {len(terms)} terms for {words} words")
        return problems

    def summary(self, out):
        return (
            tuple(out.weights),
            tuple(out.scores),
            out.best,
            tuple((a.name, subset, score) for a, subset, score in out.ranked),
            tuple((k, op.matrix.tolist()) for k, op in sorted(out.factors.items())),
            tuple((t.subset, t.weight) for t in out.mixture.terms),
        )

    def properties(self, n):
        stories = [gen.story(self.seed, i, self.fams) for i in range(n)]
        lengths = sorted({len(s.string) for s in stories})
        return {
            "string_lengths": lengths,
            "actors_per_story": sorted({len(f["names"].non_root) for f in self.fams}),
            "own_dims": [gen.own_dim(f) for f in self.fams],
            "joint_dim_max_under_guard": max(s.joint_dim for s in stories if not s.over_guard),
            "circuits.joint_dim_max": max(s.joint_dim for s in stories),
            "over_guard_share": round(sum(s.over_guard for s in stories) / n, 4),
            "effects_share": round(sum(s.effects != "none" for s in stories) / n, 4),
        }


# ---------------------------------------------------------------------------

FIG1_WORD = """\
rank  concept     score
1     guinea_pig  0.636364
2     dog         0.272727
3     planet      0.090909
"""
STORE = "<store>"

# The README's commands on the checked-in fixtures, with their README output,
# plus negate-word against a store built from fig1 during set-up.
CLI_COMMANDS = (
    (
        ("negate-word", "hamster", "--taxonomy", "fixtures/fig1.tsv", "--sigma", "0"),
        FIG1_WORD,
    ),
    (
        ("negate-string", "red wine", "--follow-up", "white wine",
         "--taxonomies", "fixtures/colors.tsv,fixtures/drinks.tsv"),
        "subset      weight    score\n"
        "{red}       0.705882  0.666667\n"
        "{wine}      0.117647  0.111111\n"
        "{red,wine}  0.176471  0.166667\n"
        "best {red} 0.666667\n",
    ),
    (
        ("text", "negate-actor", "fixtures/story.txt", "Alice",
         "--taxonomies", "fixtures/names.tsv,fixtures/kinds.tsv,fixtures/roles.tsv",
         "--rank", "--sigma", "0"),
        "rank  actor   subset                       score\n"
        "1     Bob     {Alice,archaeologist}        0.143182\n"
        "2     Claire  {Alice,archaeologist}        0.061364\n"
        "3     Daisy   {Alice,human,archaeologist}  0.002557\n",
    ),
    (("entail", "hamster", "rodent", "--taxonomy", "fixtures/fig1.tsv"), "1.000000\n"),
    (("negate-word", "hamster", "--taxonomy", STORE, "--sigma", "0"), FIG1_WORD),
)
SPANS_PREFIX = "PERFBENCH_SPANS "


class CliCold(Workload):
    name = "cli_cold"
    probe_runs_setup = False
    timed_in_child = True

    def setup(self, tr):
        cn = self.cn
        self.store = self.workdir / "fig1.lex"
        tax = tr.call("taxonomy.parse", cn.load_taxonomy, ROOT / "fixtures" / "fig1.tsv")
        lex = tr.call("lexicon.build", cn.build_lexicon, tax)
        tr.call("lexicon.save", cn.save_lexicon, lex, self.store)
        tr.maximum("lexicon.operator_bytes", operator_bytes(lex))
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def spec(self, i):
        order = list(range(len(CLI_COMMANDS)))
        gen.rng_for(self.seed, "cli", i // len(order)).shuffle(order)
        argv, expected = CLI_COMMANDS[order[i % len(order)]]
        store = os.path.relpath(self.store, ROOT)
        return tuple(store if a == STORE else a for a in argv), expected

    def run(self, spec, tr):
        argv, _ = spec
        if not tr.traced:
            return self.spawn([sys.executable, "-m", "convneg.cli", *argv])
        return tr.call("cli.process", self.traced_process, argv, tr)

    def spawn(self, cmd):
        p = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120, check=False
        )
        return p.returncode, p.stdout, p.stderr

    def traced_process(self, argv, tr):
        """The same command through a child that reports its start-up stages."""
        import json

        rc, stdout, stderr = self.spawn([sys.executable, str(CLI_CHILD), *argv])
        lines = stderr.splitlines(keepends=True)
        if lines and lines[-1].startswith(SPANS_PREFIX):
            for name, start, end in json.loads(lines.pop()[len(SPANS_PREFIX):]):
                tr.add(name, start, end)
        return rc, stdout, "".join(lines)

    def check(self, i, spec, out):
        _, expected = spec
        rc, stdout, stderr = out
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {stderr.strip()[-200:]}")
        if stdout != expected:
            problems.append(f"stdout differs from the README output: {stdout!r}")
        if rc == 0 and stderr:
            problems.append(f"unexpected stderr: {stderr.strip()[-200:]}")
        return problems

    def summary(self, out):
        return out[:2]

    def properties(self, n):
        return {"commands": len(CLI_COMMANDS), "fixtures": "fig1, colors+drinks, story"}

    def rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (WordQueries, LexiconStore, TextRequests, CliCold)}
