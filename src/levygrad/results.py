"""Monte Carlo estimates and the one pass/fail rule that compares them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["EstimatorResult", "ComparisonReport", "compare"]

THRESHOLD_SE = 3.0


@dataclass(frozen=True)
class EstimatorResult:
    """Summary of one Monte Carlo run.

    ``n_samples`` counts all requested paths; ``n_rejected`` counts the
    subset dropped by the rejection policy (zero normalizer). ``mean`` and
    ``std_error`` are computed over the accepted paths only. ``sample_rows``
    (left out of ``to_dict``) holds the per-path rows (sample_index, f_value,
    weight, I1, I2, I3, normalizer) when a weighted estimator collects them.
    """

    mean: float
    std_error: float
    n_samples: int
    n_rejected: int = 0
    diagnostics: dict[str, float] = field(default_factory=dict)
    sample_rows: list[tuple] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_rejected > self.n_samples:
            raise ValueError("n_rejected cannot exceed n_samples")
        if self.n_samples < 0 or self.n_rejected < 0:
            raise ValueError("sample counts must be nonnegative")

    @property
    def n_used(self) -> int:
        return self.n_samples - self.n_rejected

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "n_rejected": self.n_rejected,
            "diagnostics": dict(sorted(self.diagnostics.items())),
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Two-sided comparison |lhs - rhs| <= THRESHOLD_SE * combined SE + tolerance_abs.

    The z-score and the verdict are derived from the stored numbers, never
    stored. With a zero combined SE, z is 0.0 when the means agree and +-inf
    otherwise.
    """

    lhs_mean: float
    rhs_mean: float
    combined_se: float
    tolerance_abs: float = 0.0
    label: str = ""

    @property
    def z_score(self) -> float:
        diff = self.lhs_mean - self.rhs_mean
        if self.combined_se > 0:
            return diff / self.combined_se
        return 0.0 if diff == 0 else math.copysign(math.inf, diff)

    @property
    def passed(self) -> bool:
        diff = abs(self.lhs_mean - self.rhs_mean)
        return diff <= THRESHOLD_SE * self.combined_se + self.tolerance_abs

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs_mean": self.lhs_mean,
            "rhs_mean": self.rhs_mean,
            "combined_se": self.combined_se,
            "z_score": self.z_score,
            "threshold_se": THRESHOLD_SE,
            "tolerance_abs": self.tolerance_abs,
            "passed": self.passed,
        }


def compare(
    lhs: EstimatorResult | float,
    rhs: EstimatorResult | float,
    *,
    tolerance_abs: float = 0.0,
    label: str = "",
) -> ComparisonReport:
    """Build a ComparisonReport from estimator results and/or exact reals.

    Exact reals contribute zero variance.
    """
    lm = lhs.mean if isinstance(lhs, EstimatorResult) else float(lhs)
    rm = rhs.mean if isinstance(rhs, EstimatorResult) else float(rhs)
    lv = lhs.std_error**2 if isinstance(lhs, EstimatorResult) else 0.0
    rv = rhs.std_error**2 if isinstance(rhs, EstimatorResult) else 0.0
    return ComparisonReport(lm, rm, math.sqrt(lv + rv), tolerance_abs, label)
