"""Error reports: summary statistics, CDF, histogram, dispersion, comparisons."""

import math
import random

import numpy as np
import pytest

import oracles
from vlpkit import (
    EmptyInput,
    ErrorReport,
    LengthMismatch,
    compare_reports,
    error_stats,
)


def fix_at(x, y, z=0.0):
    """One fix position; error_stats takes a sequence of them or an (n, 3) array."""
    return (x, y, z)


def ladder_report(n=10):
    """Errors exactly 1..n cm: each fix sits k cm east of the truth."""
    fixes = [fix_at(float(k), 0.0) for k in range(1, n + 1)]
    truths = [(0.0, 0.0, 0.0)] * n
    return error_stats(fixes, truths)


def test_integer_ladder_summary_statistics():
    report = ladder_report(10)
    assert report.per_trial_errors == tuple(float(k) for k in range(1, 11))
    assert report.mean == 5.5
    assert report.max_error == 10.0
    assert report.p90 == 9.0
    assert report.rms == math.sqrt(38.5)


def test_nearest_rank_percentile_edges():
    # 10 samples: rank ceil(9.0) = 9; a single sample is its own percentile.
    assert ladder_report(10).p90 == 9.0
    assert ladder_report(1).p90 == 1.0
    report20 = ladder_report(20)
    assert report20.p90 == 18.0
    # naive oracle agrees on all three
    for n in (1, 10, 20):
        _, _, p90 = oracles.naive_stats(range(1, n + 1))
        assert ladder_report(n).p90 == float(p90)


def test_matches_naive_oracle_on_random_errors():
    rng = random.Random(123)
    for _ in range(25):
        n = rng.randint(1, 60)
        fixes = [
            fix_at(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(n)
        ]
        truths = [(0.0, 0.0, 0.0)] * n
        report = error_stats(fixes, truths)
        mean, max_error, p90 = oracles.naive_stats(report.per_trial_errors)
        assert report.mean == pytest.approx(mean, rel=1e-12)
        assert report.max_error == max_error
        assert report.p90 == p90


def test_order_of_trials_is_irrelevant():
    fixes = [fix_at(float(k), 0.0) for k in (4, 1, 3, 2)]
    truths = [(0.0, 0.0, 0.0)] * 4
    fwd = error_stats(fixes, truths)
    rev = error_stats(list(reversed(fixes)), truths)
    assert fwd.mean == rev.mean
    assert fwd.p90 == rev.p90
    assert fwd.cdf == rev.cdf
    assert fwd.histogram == rev.histogram
    # per-trial columns keep input order
    assert fwd.per_trial_errors == tuple(reversed(rev.per_trial_errors))


def test_exact_fixes_give_zero_report():
    fixes = [fix_at(1.0, 2.0), fix_at(1.0, 2.0)]
    truths = [(1.0, 2.0, 0.0)] * 2
    report = error_stats(fixes, truths)
    assert report.mean == 0.0
    assert report.max_error == 0.0
    assert report.p90 == 0.0
    assert report.rms == 0.0
    assert report.histogram[0] == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert sum(report.histogram[1]) == 2
    assert report.cdf[-1] == (0.0, 1.0)


def test_planar_and_3d_errors_differ_by_vertical():
    fixes = [fix_at(4.0, 0.0, 3.0)]
    truths = [(0.0, 0.0, 0.0)]
    report = error_stats(fixes, truths)
    assert report.per_trial_errors == (4.0,)
    assert report.per_trial_errors_3d == (5.0,)


def test_cdf_is_monotone_and_ends_at_one():
    rng = random.Random(7)
    fixes = [fix_at(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(50)]
    report = error_stats(fixes, [(0.0, 0.0, 0.0)] * 50)
    errs = [e for e, _ in report.cdf]
    fracs = [f for _, f in report.cdf]
    assert errs == sorted(errs)
    assert fracs[0] == pytest.approx(1.0 / 50.0)
    assert fracs[-1] == 1.0
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def test_histogram_covers_range_with_quarter_cm_bins():
    fixes = [fix_at(0.3, 0.0), fix_at(1.4, 0.0), fix_at(2.3, 0.0)]
    report = error_stats(fixes, [(0.0, 0.0, 0.0)] * 3)
    edges, counts = report.histogram
    assert edges[0] == 0.0
    assert edges[-1] == 3.0
    assert len(edges) == 13
    assert len(counts) == 12
    assert sum(counts) == 3
    steps = [b - a for a, b in zip(edges, edges[1:])]
    assert all(s == pytest.approx(0.25, abs=1e-12) for s in steps)
    assert counts[1] == 1  # 0.3 in [0.25, 0.5)
    assert counts[5] == 1  # 1.4 in [1.25, 1.5)
    assert counts[9] == 1  # 2.3 in [2.25, 2.5)


def test_dispersion_attached_only_for_repeated_ground_truth():
    fixes = [fix_at(1.0, 0.0), fix_at(-1.0, 0.0), fix_at(0.0, 0.5)]
    same = error_stats(fixes, [(0.0, 0.0, 0.0)] * 3)
    assert same.dispersion is not None
    assert same.dispersion.sample_count == 3
    assert same.dispersion.enclosing_radius == pytest.approx(1.0, abs=1e-9)
    mixed = error_stats(fixes, [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    assert mixed.dispersion is None


def test_dispersion_mean_offset_is_signed():
    fixes = [fix_at(2.0, -1.0), fix_at(4.0, -3.0)]
    report = error_stats(fixes, [(1.0, 1.0, 0.0)] * 2)
    assert report.dispersion.mean_offset[0] == pytest.approx(2.0, abs=1e-12)
    assert report.dispersion.mean_offset[1] == pytest.approx(-3.0, abs=1e-12)


def test_error_paths():
    with pytest.raises(EmptyInput):
        error_stats([], [])
    with pytest.raises(EmptyInput):
        error_stats(np.empty((0, 3)), np.empty((0, 3)))
    with pytest.raises(LengthMismatch):
        error_stats([fix_at(0.0, 0.0)], [(0.0, 0.0, 0.0)] * 2)
    with pytest.raises(ValueError, match=r"\(n, 3\) array of positions, got shape \(3,\)"):
        error_stats(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
        error_stats(np.zeros((2, 3)), np.zeros((2, 2)))


def test_errors_of_an_array_are_math_hypot_of_its_floats():
    rng = np.random.default_rng(5)
    positions = rng.uniform(-60.0, 60.0, (200, 3))
    truths = rng.uniform(-60.0, 60.0, (200, 3))
    report = error_stats(positions, truths)
    pairs = list(zip(positions.tolist(), truths.tolist()))
    assert report.per_trial_errors == tuple(math.hypot(p[0] - t[0], p[1] - t[1]) for p, t in pairs)
    assert report.per_trial_errors_3d == tuple(math.hypot(p[0] - t[0], p[1] - t[1], p[2] - t[2]) for p, t in pairs)
    assert error_stats([tuple(p) for p in positions.tolist()], truths.tolist()) == report


def test_compare_reports_identity_is_unity():
    report = ladder_report(10)
    cmp = compare_reports(report, report)
    assert cmp.mean_ratio == 1.0
    assert cmp.p90_ratio == 1.0
    assert cmp.max_ratio == 1.0
    assert cmp.mean_diff == 0.0


def test_compare_reports_halving_errors():
    worse = ladder_report(10)
    fixes = [fix_at(k / 2.0, 0.0) for k in range(1, 11)]
    better = error_stats(fixes, [(0.0, 0.0, 0.0)] * 10)
    cmp = compare_reports(worse, better)
    assert cmp.mean_ratio == pytest.approx(0.5, rel=1e-12)
    assert cmp.p90_ratio == pytest.approx(0.5, rel=1e-12)
    assert cmp.max_ratio == pytest.approx(0.5, rel=1e-12)
    assert cmp.mean_diff == pytest.approx(-2.75, rel=1e-12)


def test_compare_reports_zero_reference_gives_infinite_ratio():
    zero = error_stats([fix_at(0.0, 0.0)], [(0.0, 0.0, 0.0)])
    nonzero = error_stats([fix_at(3.0, 4.0)], [(0.0, 0.0, 0.0)])
    cmp = compare_reports(zero, nonzero)
    assert cmp.mean_ratio == math.inf
    back = compare_reports(zero, zero)
    assert back.mean_ratio == 1.0


def test_report_is_a_frozen_value_object():
    report = ladder_report(3)
    assert isinstance(report, ErrorReport)
    with pytest.raises(AttributeError):
        report.mean = 0.0
