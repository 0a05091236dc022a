from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import brute_wilcoxon_one_sided
from tripletseg.errors import StatsError
from tripletseg.stats import (
    SubsetPartition,
    compare_methods,
    partition_frames,
    wilcoxon_one_sided,
)

FRAME_IDS = [("vid%d" % (i % 4), i) for i in range(40)]


# partitioning


def test_partition_deterministic_for_seed():
    a = partition_frames(FRAME_IDS, n_subsets=5, subset_size=6, seed=7)
    b = partition_frames(FRAME_IDS, n_subsets=5, subset_size=6, seed=7)
    assert a == b
    assert isinstance(a, SubsetPartition)
    assert a.seed == 7 and a.subset_size == 6


def test_partition_differs_across_seeds():
    a = partition_frames(FRAME_IDS, n_subsets=5, subset_size=6, seed=0)
    b = partition_frames(FRAME_IDS, n_subsets=5, subset_size=6, seed=1)
    assert a.subsets != b.subsets


def test_partition_sizes_and_disjointness():
    part = partition_frames(FRAME_IDS, n_subsets=6, subset_size=6, seed=3)
    assert len(part.subsets) == 6
    assert all(len(s) == 6 for s in part.subsets)
    seen = [k for s in part.subsets for k in s]
    assert len(seen) == len(set(seen)) == 36
    assert set(seen) <= set(FRAME_IDS)


def test_partition_input_order_irrelevant_after_shuffle():
    # the shuffle is keyed on positions, so a permuted input yields a
    # different partition, but both are valid partitions of the same pool
    part = partition_frames(list(reversed(FRAME_IDS)), n_subsets=4,
                            subset_size=10, seed=3)
    seen = [k for s in part.subsets for k in s]
    assert sorted(seen) == sorted(FRAME_IDS)


def test_partition_insufficient_frames():
    with pytest.raises(StatsError, match="have 40"):
        partition_frames(FRAME_IDS, n_subsets=5, subset_size=9, seed=0)


def test_partition_rejects_bad_args():
    with pytest.raises(StatsError):
        partition_frames(FRAME_IDS, n_subsets=0, subset_size=5, seed=0)
    with pytest.raises(StatsError):
        partition_frames(FRAME_IDS, n_subsets=2, subset_size=0, seed=0)
    with pytest.raises(StatsError, match="unique"):
        partition_frames([("v", 1), ("v", 1)], n_subsets=1, subset_size=1, seed=0)


# wilcoxon


def test_wilcoxon_matches_brute_force_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(2, 11))
        x = np.round(rng.normal(size=n), 3).tolist()
        y = np.round(rng.normal(size=n), 3).tolist()
        if all(a == b for a, b in zip(x, y)):
            x[0] += 1.0
        result = wilcoxon_one_sided(x, y, method="exact")
        w, n_eff, p = brute_wilcoxon_one_sided(x, y)
        assert result.statistic == pytest.approx(w, abs=1e-12)
        assert result.n_effective == n_eff
        assert result.p_value == pytest.approx(p, abs=1e-12)
        assert result.method == "exact"
    # tie-heavy integer differences: many shared average ranks
    for _ in range(60):
        n = int(rng.integers(2, 13))
        x = rng.integers(-3, 4, size=n).tolist()
        y = [0] * n
        if not any(x):
            x[0] = 1
        result = wilcoxon_one_sided(x, y, method="exact")
        w, n_eff, p = brute_wilcoxon_one_sided(x, y)
        assert result.statistic == pytest.approx(w, abs=1e-12)
        assert result.n_effective == n_eff
        assert result.p_value == pytest.approx(p, abs=1e-12)


def test_wilcoxon_textbook_pairs():
    # classic 10-pair example: all positive differences, no ties
    x = [12.1, 10.4, 11.9, 13.0, 10.1, 11.2, 12.8, 10.7, 11.5, 12.3]
    y = [10.0, 9.8, 10.2, 11.1, 9.7, 10.0, 11.0, 9.9, 10.1, 10.4]
    result = wilcoxon_one_sided(x, y, method="exact")
    assert result.statistic == 55.0
    assert result.n_effective == 10
    assert result.p_value == pytest.approx(1 / 2 ** 10, abs=1e-15)


def test_wilcoxon_all_positive_n20_exact():
    x = [float(i + 2) for i in range(20)]
    y = [float(i + 1) for i in range(20)]
    result = wilcoxon_one_sided(x, y, method="exact")
    assert result.n_effective == 20
    assert result.p_value == 2 ** -20


def test_wilcoxon_all_positive_n12():
    x = [float(i + 2) for i in range(12)]
    y = [float(i + 1) for i in range(12)]
    result = wilcoxon_one_sided(x, y)
    assert result.method == "exact"
    assert result.statistic == 78.0
    assert result.p_value == pytest.approx(1 / 4096, abs=0)


def test_wilcoxon_statistic_complement_identity(rng):
    # W+ + W- = n(n+1)/2 when computed on mirrored inputs without ties
    for _ in range(20):
        n = int(rng.integers(3, 12))
        diffs = rng.normal(size=n)
        diffs = diffs[diffs != 0]
        x = diffs.tolist()
        y = [0.0] * len(x)
        w_pos = wilcoxon_one_sided(x, y, method="exact").statistic
        w_neg = wilcoxon_one_sided(y, x, method="exact").statistic
        n_eff = len(x)
        assert w_pos + w_neg == pytest.approx(n_eff * (n_eff + 1) / 2)


def test_wilcoxon_zero_differences_dropped():
    x = [1.0, 2.0, 3.0, 5.0]
    y = [1.0, 2.0, 2.0, 4.0]
    result = wilcoxon_one_sided(x, y, method="exact")
    assert result.n_effective == 2


def test_wilcoxon_all_zero_differences_error():
    with pytest.raises(StatsError, match="all differences are zero"):
        wilcoxon_one_sided([1.0, 2.0], [1.0, 2.0])


def test_wilcoxon_length_mismatch():
    with pytest.raises(StatsError, match="differ in length"):
        wilcoxon_one_sided([1.0], [1.0, 2.0])


def test_wilcoxon_empty():
    with pytest.raises(StatsError):
        wilcoxon_one_sided([], [])


def test_wilcoxon_method_selection(rng):
    x = rng.normal(size=25).tolist()
    y = rng.normal(size=25).tolist()
    assert wilcoxon_one_sided(x, y).method == "normal_approx"
    assert wilcoxon_one_sided(x, y, method="normal_approx").method == "normal_approx"
    small_x, small_y = x[:8], y[:8]
    assert wilcoxon_one_sided(small_x, small_y).method == "exact"
    forced = wilcoxon_one_sided(small_x, small_y, method="normal_approx")
    assert forced.method == "normal_approx"
    with pytest.raises(StatsError, match="unknown method"):
        wilcoxon_one_sided(x, y, method="bootstrap")


def test_wilcoxon_exact_too_large():
    x = list(range(1, 22))
    y = [0.0] * 21
    with pytest.raises(StatsError, match="exact method"):
        wilcoxon_one_sided(x, y, method="exact")


def test_exact_and_normal_agree_midsize(rng):
    # with moderate n and mixed signs the two routes agree closely
    for n in (15, 17, 20):
        for _ in range(5):
            x = rng.normal(loc=0.3, size=n).tolist()
            y = rng.normal(size=n).tolist()
            exact = wilcoxon_one_sided(x, y, method="exact")
            approx = wilcoxon_one_sided(x, y, method="normal_approx")
            assert exact.statistic == approx.statistic
            assert abs(exact.p_value - approx.p_value) <= 0.01


def test_wilcoxon_handles_ties_in_ranks():
    # |diffs| = 1,1,2,2 -> average ranks 1.5,1.5,3.5,3.5
    x = [1.0, -1.0, 2.0, 2.0]
    y = [0.0, 0.0, 0.0, 0.0]
    result = wilcoxon_one_sided(x, y, method="exact")
    assert result.statistic == pytest.approx(1.5 + 3.5 + 3.5)
    w, n_eff, p = brute_wilcoxon_one_sided(x, y)
    assert result.p_value == pytest.approx(p, abs=1e-12)


def test_wilcoxon_json_dict():
    result = wilcoxon_one_sided([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
    doc = result.to_json_dict()
    assert set(doc) == {"W", "n_effective", "p_value", "method"}
    assert doc["W"] == 6.0
    assert doc["n_effective"] == 3
    assert doc["p_value"] == pytest.approx(1 / 8)


# compare_methods


def test_compare_methods_hand_case():
    a = [91.3, 89.9, 90.9, 91.2]
    b = [90.0, 90.0, 90.0, 90.0]
    result = compare_methods(a, b)
    assert result.deltas == pytest.approx([1.3, -0.1, 0.9, 1.2])
    assert result.median_a == pytest.approx((90.9 + 91.2) / 2)
    assert result.median_b == 90.0
    assert result.wilcoxon.statistic == 9.0
    assert result.wilcoxon.p_value == pytest.approx(2 / 16)
    text = result.render_text()
    assert "W=9" in text and "p=" in text


def test_compare_methods_length_mismatch():
    with pytest.raises(StatsError, match="differ in length"):
        compare_methods([1.0], [1.0, 2.0])
