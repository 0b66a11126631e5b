"""Hamiltonian circle labels in complete graphs over the Klein four-group.

Edges of a complete graph carry labels from the four-element group; the
label of a circle is the sum of its edge labels.  This library classifies
instances by their triangle-label diversity, predicts which of the four
labels Hamiltonian circles can realize, constructs explicit witness
circles for all four when diversity allows, and machine-verifies the
underlying structural claims over their full finite domains.
"""

from .census import (
    CommonSignTriple,
    K4Class,
    TriangleCensus,
    classify_k4,
    find_consecutive_distinct_triple,
    triangle_census,
)
from .graph import (
    Circle,
    Path,
    SignedCompleteGraph,
    build,
    triangle_sign,
    walk_sign,
)
from .group import ELEMENTS, F22, add, fourth_element, pair_sums
from .io_gen import (
    ParseError,
    gen_exhaustive_normalized,
    gen_random,
    instance_from_index,
    named_instance,
    parse,
    serialize,
)
from .lemma_lab import VerificationReport, describe, lemma_ids, verify
from .oracle import Spectrum, hamiltonian_paths_spectrum, hamiltonian_spectrum
from .solver import (
    CounterexampleCandidateError,
    RestrictedSpectrumError,
    SpectrumPrediction,
    UnsupportedSizeError,
    WitnessSet,
    WitnessVerificationError,
    construct_witnesses,
    predict_spectrum,
    verify_witness_set,
)
from .switching import apply as apply_switching
from .switching import normalize_at

__version__ = "0.1.0"

__all__ = [
    "F22", "ELEMENTS", "add", "fourth_element", "pair_sums",
    "SignedCompleteGraph", "Circle", "Path", "build",
    "walk_sign", "triangle_sign",
    "apply_switching", "normalize_at",
    "TriangleCensus", "triangle_census", "K4Class", "classify_k4",
    "CommonSignTriple", "find_consecutive_distinct_triple",
    "Spectrum", "hamiltonian_spectrum", "hamiltonian_paths_spectrum",
    "SpectrumPrediction", "predict_spectrum", "WitnessSet",
    "construct_witnesses", "verify_witness_set",
    "RestrictedSpectrumError", "UnsupportedSizeError",
    "CounterexampleCandidateError", "WitnessVerificationError",
    "VerificationReport", "verify", "lemma_ids", "describe",
    "serialize", "parse", "ParseError",
    "gen_random", "gen_exhaustive_normalized", "instance_from_index",
    "named_instance",
]
