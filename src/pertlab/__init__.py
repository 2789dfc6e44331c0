"""Exact perturbation-stability experiments for Hilbert functions over
truncated local rings."""

from .certify import (EXACT, TWO_LEVEL, UNCERTIFIED, CertifiedValue,
                      two_level_value)
from .errors import (FilterRegularityError, ManifestError, PertlabError,
                     PolyParseError, RingConstructionError, RingMismatchError,
                     TruncationError)
from .harness import (ExperimentConfig, ExperimentReport, RingSpec,
                      find_min_N, run_experiment, sample_in_power)
from .ideals import (IdealHandle, IdealPowers, ideal, ideal_colon,
                     ideal_intersection, ideal_length, ideal_power,
                     ideal_product, ideal_sum, m_primary_level, maximal_ideal,
                     unit_ideal, zero_ideal)
from .invariants import (HilbertTable, KoszulReport, SequenceReport, ar_number,
                         filter_regular_check, filter_regular_sequence_check,
                         gr_hilbert_function, hs_table,
                         koszul_homology_length, koszul_report)
from .polynomials import parse_poly
from .rings import (Element, Poly, RingDescriptor, Subspace, build_ring,
                    default_truncation, nakayama_contains_power)
from .verifiers import (BoundReport, VerdictRecord, Workspace,
                        bound_N_one_element, check_control_colon,
                        check_main_equality, check_perturbed_filter_regular,
                        check_surjection_monotonicity, report_ar_comparison)

__version__ = "0.1.0"

__all__ = [
    "EXACT", "TWO_LEVEL", "UNCERTIFIED", "CertifiedValue", "two_level_value",
    "PertlabError", "PolyParseError", "RingMismatchError",
    "RingConstructionError", "TruncationError", "FilterRegularityError",
    "ManifestError",
    "parse_poly",
    "RingDescriptor", "Poly", "Element", "Subspace", "build_ring",
    "default_truncation", "nakayama_contains_power",
    "IdealHandle", "IdealPowers", "ideal", "ideal_colon",
    "ideal_intersection", "ideal_length", "ideal_power",
    "ideal_product", "ideal_sum", "m_primary_level", "maximal_ideal",
    "unit_ideal", "zero_ideal",
    "HilbertTable", "KoszulReport", "SequenceReport", "ar_number",
    "filter_regular_check", "filter_regular_sequence_check",
    "gr_hilbert_function", "hs_table", "koszul_homology_length", "koszul_report",
    "BoundReport", "VerdictRecord", "Workspace", "bound_N_one_element",
    "check_control_colon", "check_main_equality",
    "check_perturbed_filter_regular", "check_surjection_monotonicity",
    "report_ar_comparison",
    "RingSpec", "ExperimentConfig", "ExperimentReport", "find_min_N",
    "run_experiment", "sample_in_power",
]
