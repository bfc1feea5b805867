"""Re-identification attack and entropy-based privacy measurement for
pseudonymized smart-meter readings with published billing totals."""

from .model import (
    AnonymizedInstance,
    GroundTruth,
    PermutationRecord,
    ReadingMatrix,
    anonymize,
    build_ground_truth,
    recover_matrix,
)
from .mcssp import (
    CountTable,
    MarginalCounts,
    NoSolutionsError,
    ResourceGuard,
    ResourceLimitError,
    backward_counts,
    forward_counts,
    marginal_counts,
)
from .joint import (
    AgreedAssignment,
    JointSolutionSet,
    agreed_assignments,
    solve_joint,
)
from .privacy import (
    EntropyReport,
    PeriodDistribution,
    entropy_report,
    marginal_probabilities,
    period_entropy,
    revealed_positions,
)
from .stats import (
    DistributionSpec,
    FitResult,
    cvm_statistic,
    fit_exponential,
    fit_normal,
    rank_distributions,
    sample_reading_matrix,
    unbiased_rate,
)

__version__ = "0.1.0"
