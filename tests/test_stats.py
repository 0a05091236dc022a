from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_wilcoxon_one_sided
from tripletseg.errors import StatsError
from tripletseg.stats import (
    SubsetPartition,
    _Xoshiro256StarStar,
    _median,
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


# splitmix64 maps its state one to one onto its output, and the four states
# it passes through are distinct, so at most one of the four seeded words is 0
# and xoshiro256** never starts from its all-zero fixed point
ZERO_FIRST_WORD_SEED = 2**64 - 0x9E3779B97F4A7C15


def test_seed_whose_first_word_is_zero_leaves_three_nonzero_words():
    state = _Xoshiro256StarStar(ZERO_FIRST_WORD_SEED)._s
    assert state[0] == 0
    assert all(state[1:])


@pytest.mark.parametrize("seed, subsets", [
    (ZERO_FIRST_WORD_SEED, ((6, 3, 7), (4, 8, 2), (1, 0, 9))),
    (0, ((4, 2, 1), (7, 5, 6), (3, 9, 8))),
    (1, ((3, 8, 0), (9, 2, 5), (6, 4, 1))),
    (2**64 - 1, ((1, 5, 4), (9, 3, 0), (7, 6, 8))),
], ids=["zero-first-word", "0", "1", "max"])
def test_partition_subsets_pinned(seed, subsets):
    assert partition_frames(list(range(10)), 3, 3, seed).subsets == subsets


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


@pytest.mark.parametrize("n", [1, 2, 21, 50, 200])
def test_normal_approx_of_all_tied_differences_is_finite(n):
    # the tie correction is largest when all n differences tie; the variance
    # is then n(n+1)(2n+1)/24 - (n^3 - n)/48 = n(n+1)^2/16 > 0
    for signs in ([1.0] * n, [(-1.0) ** i for i in range(n)]):
        result = wilcoxon_one_sided(signs, [0.0] * n, method="normal_approx")
        w = (n + 1) / 2 * signs.count(1.0)
        z = (w - 0.5 - n * (n + 1) / 4) / math.sqrt(n * (n + 1) ** 2 / 16)
        assert result.n_effective == n and math.isfinite(result.p_value)
        assert result.p_value == pytest.approx(0.5 * math.erfc(z / math.sqrt(2)), rel=1e-12)


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


# tie-heavy inputs; "squares" has 3 unequal tie groups and no zero
# difference, "steps" 4 groups plus zeros that are dropped. W, n_effective,
# the p-value's bits and the method were recorded from the numpy
# implementation; its normal approximation agrees with
# scipy.stats.wilcoxon(..., alternative="greater", method="approx") to 1e-14
TIE_HEAVY_PINS = [
    ("squares", 21, "auto", 150.0, 21, "0x1.cdf2f35fe2b3ep-4", "normal_approx"),
    ("squares", 21, "normal_approx", 150.0, 21, "0x1.cdf2f35fe2b3ep-4", "normal_approx"),
    ("squares", 30, "auto", 284.0, 30, "0x1.20ef51ae028f6p-3", "normal_approx"),
    ("squares", 30, "normal_approx", 284.0, 30, "0x1.20ef51ae028f6p-3", "normal_approx"),
    ("squares", 60, "auto", 1181.5, 60, "0x1.6c2d3beb0737ap-6", "normal_approx"),
    ("squares", 60, "normal_approx", 1181.5, 60, "0x1.6c2d3beb0737ap-6", "normal_approx"),
    ("steps", 21, "auto", 82.0, 19, "0x1.67f2000000000p-1", "exact"),
    ("steps", 21, "normal_approx", 82.0, 19, "0x1.6a6d5b09e84f8p-1", "normal_approx"),
    ("steps", 30, "auto", 170.5, 27, "0x1.5ab8a11426e8cp-1", "normal_approx"),
    ("steps", 30, "normal_approx", 170.5, 27, "0x1.5ab8a11426e8cp-1", "normal_approx"),
    ("steps", 60, "auto", 722.0, 54, "0x1.2502f4dff52a5p-1", "normal_approx"),
    ("steps", 60, "normal_approx", 722.0, 54, "0x1.2502f4dff52a5p-1", "normal_approx"),
]


@pytest.mark.parametrize("name,n,method,w,n_eff,p_hex,used", TIE_HEAVY_PINS)
def test_wilcoxon_tie_heavy_bits_pinned(name, n, method, w, n_eff, p_hex, used):
    if name == "squares":
        x, y = [(k * k) % 7 for k in range(n)], [1.5] * n
    else:
        x, y = [((k * 5) % 9 - 4) / 2 for k in range(n)], [0.0] * n
    result = wilcoxon_one_sided(x, y, method=method)
    assert result.statistic == w
    assert result.n_effective == n_eff
    assert result.p_value.hex() == p_hex
    assert result.method == used


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


@pytest.mark.parametrize("a,b,medians", [
    ([91.3, 89.9, 90.9, 91.2, 90.4], [90.0, 90.5, 89.7, 90.2, 90.0], (90.9, 90.0, 1.0)),
    ([0.1, 0.7, 0.2, 0.4], [0.3, 0.1, 0.1, 0.2],
     (0.30000000000000004, 0.15000000000000002, 0.15000000000000002)),
])
def test_compare_methods_medians_odd_and_even(a, b, medians):
    # odd n takes the middle value, even n the mean of the middle two
    result = compare_methods(a, b)
    assert (result.median_a, result.median_b, result.median_delta) == medians
    assert medians == (np.median(a), np.median(b), np.median(np.subtract(a, b)))


BIG = 1.7976931348623157e308  # the largest finite float


@given(st.lists(st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, BIG, -BIG]),
), min_size=1, max_size=12))
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([-0.0, -0.0])
@example([-0.0])
@example([BIG, BIG, 1.0])
@example([BIG, BIG])
@example([2.0, 1.0, 2.0, 1.0])
@settings(max_examples=500, derandomize=True, deadline=None, database=None)
def test_median_has_the_float_bits_of_statistics_median(values):
    # odd and even n, ties, signed zeros and sums that overflow; hex tells
    # -0.0 from 0.0
    assert _median(values).hex() == statistics.median(values).hex()


def test_compare_methods_length_mismatch():
    with pytest.raises(StatsError, match="differ in length"):
        compare_methods([1.0], [1.0, 2.0])
