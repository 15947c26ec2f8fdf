"""Avoidability of unary patterns of size four under morphic permutations.

The library computes the divisibility parameters alpha_1..alpha_14 of a
pattern x f^i(x) f^j(x) f^k(x), enumerates the rule-defined families of
minimal unavoidable parameter sets, derives the bound sigma that separates
avoidable from unavoidable alphabet sizes, searches for maximal avoiding
words by backtracking, and certifies avoidance on prefixes of explicitly
constructed morphic words.
"""

__version__ = "0.1.0"

from .alphas import (
    ALPHA_INDICES,
    INFINITY,
    REPRESENTATIONS,
    AlphaProfile,
    PatternExponents,
    canonical_pattern,
    is_swapped_form,
    profile,
    realizable,
    representation,
)
from .families import (
    ClassificationReport,
    all_unavoidable_sets,
    classify,
    enumerate_family,
    sigma,
)
from .search import (
    InstanceWitness,
    PermModel,
    SearchConfig,
    SearchResult,
    forbidden_patterns,
    longest_avoiding_word,
    model_permutations,
    suffix_instance,
    verify_word_avoids,
)
from .verifier import (
    AvoidanceCertificate,
    MorphicWordSpec,
    h_alpha_spec,
    load_spec,
    max_gap_without_full_image,
    verify_prefix_avoids,
)
from .words import (
    Morphism,
    Permutation,
    Word,
    is_cube_free,
    is_four_power_free,
    is_overlap_free,
    is_square_free,
)

__all__ = [
    "__version__",
    "ALPHA_INDICES",
    "INFINITY",
    "REPRESENTATIONS",
    "AlphaProfile",
    "PatternExponents",
    "canonical_pattern",
    "is_swapped_form",
    "profile",
    "realizable",
    "representation",
    "ClassificationReport",
    "all_unavoidable_sets",
    "classify",
    "enumerate_family",
    "sigma",
    "InstanceWitness",
    "PermModel",
    "SearchConfig",
    "SearchResult",
    "forbidden_patterns",
    "longest_avoiding_word",
    "model_permutations",
    "suffix_instance",
    "verify_word_avoids",
    "AvoidanceCertificate",
    "MorphicWordSpec",
    "h_alpha_spec",
    "load_spec",
    "max_gap_without_full_image",
    "verify_prefix_avoids",
    "Morphism",
    "Permutation",
    "Word",
    "is_cube_free",
    "is_four_power_free",
    "is_overlap_free",
    "is_square_free",
]
