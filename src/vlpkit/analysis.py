"""Positioning error statistics: summary numbers, CDF, histogram, report comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import DispersionSummary, dispersion_summary
# Unused here, but the benchmark tracer wraps vlpkit.analysis.min_enclosing_circle.
from .calibration import min_enclosing_circle  # noqa: F401
from .errors import EmptyInput, LengthMismatch
from .positioning import PositionFix

HISTOGRAM_BIN_CM = 0.25


@dataclass(frozen=True)
class ErrorReport:
    """Per-trial planar errors and their summary statistics, in cm."""

    per_trial_errors: tuple[float, ...]  # input order, x-y plane
    per_trial_errors_3d: tuple[float, ...]
    mean: float
    max_error: float
    p90: float  # nearest-rank 90th percentile
    rms: float
    cdf: tuple[tuple[float, float], ...]  # (error, cumulative fraction), ascending
    histogram: tuple[tuple[float, ...], tuple[int, ...]]  # (bin edges, counts)
    dispersion: DispersionSummary | None = None


@dataclass(frozen=True)
class ReportComparison:
    """How report b moved relative to reference report a."""

    mean_ratio: float
    p90_ratio: float
    max_ratio: float
    mean_diff: float
    p90_diff: float
    max_diff: float


def error_stats(
    fixes: Sequence[PositionFix],
    ground_truths: Sequence[Sequence[float]],
) -> ErrorReport:
    """Error report for fixes paired with their true camera positions.

    Errors are planar (x-y) Euclidean distances; the vertical component is
    kept as a separate 3D error column. The 90th percentile is the
    nearest-rank order statistic, and histogram bins are a fixed quarter
    centimetre wide from zero to the max error rounded up to a whole cm.
    Statistics are computed over sorted errors, so trial order never matters.
    When every ground truth is the same point, a dispersion summary of the
    fixes is attached.
    """
    if len(fixes) != len(ground_truths):
        raise LengthMismatch(
            f"{len(fixes)} fixes paired with {len(ground_truths)} ground truths"
        )
    if not fixes:
        raise EmptyInput("error_stats received no fixes")
    planar = []
    spatial = []
    for fix, truth in zip(fixes, ground_truths):
        dx = fix.position[0] - float(truth[0])
        dy = fix.position[1] - float(truth[1])
        dz = fix.position[2] - float(truth[2])
        planar.append(math.hypot(dx, dy))
        spatial.append(math.hypot(dx, dy, dz))

    errors = np.sort(np.asarray(planar))
    n = len(errors)
    mean = float(errors.mean())
    max_error = float(errors[-1])
    rms = float(np.sqrt(np.mean(errors * errors)))
    p90 = float(errors[math.ceil(0.9 * n) - 1])
    cdf = tuple((float(e), (idx + 1) / n) for idx, e in enumerate(errors))

    top = max(1, math.ceil(max_error))
    edges = np.arange(0.0, top + HISTOGRAM_BIN_CM / 2, HISTOGRAM_BIN_CM)
    counts, _ = np.histogram(errors, bins=edges)

    dispersion = None
    truths = [tuple(float(c) for c in t) for t in ground_truths]
    if all(t == truths[0] for t in truths):
        dispersion = dispersion_summary(fixes, truths[0])

    return ErrorReport(
        per_trial_errors=tuple(planar),
        per_trial_errors_3d=tuple(spatial),
        mean=mean,
        max_error=max_error,
        p90=p90,
        rms=rms,
        cdf=cdf,
        histogram=(tuple(float(e) for e in edges), tuple(int(c) for c in counts)),
        dispersion=dispersion,
    )


def _ratio(reference: float, value: float) -> float:
    if value == reference:
        return 1.0
    if reference == 0.0:
        return math.inf
    return value / reference


def compare_reports(a: ErrorReport, b: ErrorReport) -> ReportComparison:
    """Ratios and differences of the headline statistics, b relative to a."""
    return ReportComparison(
        mean_ratio=_ratio(a.mean, b.mean),
        p90_ratio=_ratio(a.p90, b.p90),
        max_ratio=_ratio(a.max_error, b.max_error),
        mean_diff=b.mean - a.mean,
        p90_diff=b.p90 - a.p90,
        max_diff=b.max_error - a.max_error,
    )
