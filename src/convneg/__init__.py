"""Conversational negation over positive-operator word meanings.

The package splits into layers: `operators` (PSD matrices with labelled
diagonals), `taxonomy`/`lexicon` (hyponymy DAGs and the operator lexicons
built from them), `entailment` (graded hyponymy and overlap scores),
`negation` (single-word negation in context), `strings` (negation of
multi-word strings as mixtures over negation sets), and `circuits`
(actor negation inside text circuits).  `cli` wraps the lot.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or a command that needs only some layers, does not
import the rest.
"""

import importlib

# each public name, and each module, by the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "circuits": (
            "Actor",
            "ActorView",
            "BinaryGate",
            "TextCircuit",
            "UnaryGate",
            "actor_view",
            "cn_actor",
            "composed_factors",
            "contributing_words",
            "contribution_string",
            "load_script",
            "parse_script",
            "rank_alternatives",
        ),
        "entailment": (
            "SIGMA_DEFAULT",
            "loewner_k",
            "loewner_k_raw",
            "overlap_score",
            "smoothed_predicate",
        ),
        "errors": (
            "AlignmentError",
            "AmbiguousWord",
            "ConvnegError",
            "CyclicTaxonomy",
            "DimMismatch",
            "EmptyMixture",
            "InvalidIndex",
            "InvalidOperator",
            "NotSubnormalized",
            "ParseError",
            "TooLarge",
            "TooManyWords",
            "UnknownActor",
            "UnknownWord",
            "ZeroNegation",
            "ZeroOperator",
        ),
        "lexicon": (
            "DEFAULT_DECAY",
            "Lexicon",
            "build_lexicon",
            "load_lexicon",
            "resolve_word",
            "save_lexicon",
        ),
        "negation": (
            "DEFAULTS",
            "LAMBDA_DEFAULT",
            "NegationConfig",
            "alternatives",
            "cn_word",
            "logical_not_complement",
            "logical_not_pinv",
        ),
        "operators": (
            "Operator",
            "conjugate_update",
            "diagonal",
            "hadamard",
            "identity",
            "mix",
            "normalize",
            "partial_trace",
            "pseudoinverse",
            "pure",
            "support_projector",
            "tensor",
            "validate",
        ),
        "strings": (
            "MixtureTerm",
            "NegationMixture",
            "StringScores",
            "WordString",
            "best_interpretation",
            "cn_string",
            "derive_weights",
            "enumerate_negation_sets",
            "interpretation_scores",
            "score_string",
        ),
        "taxonomy": ("Taxonomy", "load_taxonomy", "parse_taxonomy"),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
