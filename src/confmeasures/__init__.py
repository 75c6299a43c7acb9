"""Accuracy measures for classifier comparison on confusion matrices.

The package computes a catalog of class-specific and multiclass accuracy
measures from joint-proportion confusion matrices, generates matrix series
with controlled error rates and class imbalance, derives the discrimination
lines separating two such classifiers under each measure, and detects groups
of measures that rank classifiers identically.
"""

__version__ = "0.1.0"

from .discrimination import (
    ConcordanceResult,
    DiscriminationLine,
    EquivalencePartition,
    LineRow,
    Preference,
    consistency,
    discrimination_line,
    equivalence_classes,
    preference,
    series_pairs,
)
from .errors import (
    ConfmeasuresError,
    DegenerateChance,
    EmptyMatrix,
    InsufficientData,
    InvalidInput,
    NoConvergence,
    NotComparable,
    PerfectClassification,
    TooFewClasses,
)
from .gt import (
    GtIndexResult,
    QuasiIndependenceFit,
    fit_quasi_independence,
    gt_index,
)
from .matrix import ConfusionMatrix, from_counts
from .measures import (
    MeasureKind,
    MeasureReport,
    MeasureValue,
    class_measure,
    evaluate,
    evaluate_stack,
    overall_measure,
    parse_kind,
    report,
    round_half_up,
    value_range,
)
from .series import (
    ProportionVector,
    SeriesMode,
    class_proportions,
    series_matrix,
    series_stack,
    uniform_grid,
)

__all__ = [
    "ConcordanceResult", "ConfmeasuresError", "ConfusionMatrix",
    "DegenerateChance", "DiscriminationLine", "EmptyMatrix",
    "EquivalencePartition", "GtIndexResult", "InsufficientData",
    "InvalidInput", "LineRow", "MeasureKind", "MeasureReport", "MeasureValue",
    "NoConvergence", "NotComparable", "PerfectClassification", "Preference",
    "ProportionVector", "QuasiIndependenceFit", "SeriesMode", "TooFewClasses",
    "class_measure", "class_proportions", "consistency",
    "discrimination_line", "equivalence_classes", "evaluate", "evaluate_stack",
    "fit_quasi_independence", "from_counts", "gt_index", "overall_measure",
    "parse_kind", "preference", "report", "round_half_up", "series_matrix",
    "series_pairs", "series_stack", "uniform_grid", "value_range",
]
