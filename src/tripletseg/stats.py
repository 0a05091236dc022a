"""Subset partitioning and paired one-sided Wilcoxon signed-rank testing.

Partitioning must be reproducible across platforms and releases, so it
uses a self-contained, documented generator instead of a library RNG
whose stream could change: a splitmix64-seeded xoshiro256** (xorshift
family) drives a Fisher-Yates shuffle, then consecutive chunks become
the subsets.

The Wilcoxon test is one-sided with alternative median(x - y) > 0. The
p-value is exact up to 20 effective pairs, counting the sign assignments
that reach the observed statistic by dynamic programming, and a normal
approximation with tie and continuity corrections beyond that.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Any, Hashable, NamedTuple, Sequence, TypeVar

from .errors import StatsError

_MASK64 = (1 << 64) - 1

K = TypeVar("K", bound=Hashable)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class _Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state initialization.

    next() returns rotl(s1 * 5, 7) * 9, then updates the four state words
    with the standard shift/xor schedule all modulo 2^64.
    """

    def __init__(self, seed: int) -> None:
        sm = seed & _MASK64
        state = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            state.append(word)
        if not any(state):
            state[0] = 1  # the all-zero state is a fixed point
        self._s = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result


def _fisher_yates(items: list, rng: _Xoshiro256StarStar) -> None:
    # j = next() % (i+1); the modulo bias is far below any practical
    # effect for i < 2^32 and keeps the stream definition simple
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


class SubsetPartition(NamedTuple):
    seed: int
    subset_size: int
    subsets: tuple[tuple, ...]


class WilcoxonResult(NamedTuple):
    statistic: float
    n_effective: int
    p_value: float
    method: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "W": self.statistic,
            "n_effective": self.n_effective,
            "p_value": self.p_value,
            "method": self.method,
        }


class ComparisonResult(NamedTuple):
    per_subset: tuple[tuple[float, float], ...]
    deltas: tuple[float, ...]
    median_a: float
    median_b: float
    median_delta: float
    wilcoxon: WilcoxonResult

    def render_text(self) -> str:
        w = self.wilcoxon
        lines = [
            f"paired subsets: {len(self.per_subset)}",
            f"median a: {self.median_a:.4f}  median b: {self.median_b:.4f}  "
            f"median delta: {self.median_delta:+.4f}",
            f"wilcoxon one-sided (a > b): W={w.statistic:g} "
            f"n_effective={w.n_effective} p={w.p_value:.6g} [{w.method}]",
        ]
        return "\n".join(lines)


def partition_frames(
    frame_ids: Sequence[K], n_subsets: int, subset_size: int, seed: int
) -> SubsetPartition:
    """Shuffle the ids with the seeded generator, then cut consecutive
    chunks. Leftover ids beyond n_subsets * subset_size stay unused."""
    if n_subsets < 1 or subset_size < 1:
        raise StatsError("n_subsets and subset_size must be at least 1")
    needed = n_subsets * subset_size
    if needed > len(frame_ids):
        raise StatsError(
            f"need {needed} frames for {n_subsets} subsets of {subset_size}, "
            f"have {len(frame_ids)}"
        )
    if len(set(frame_ids)) != len(frame_ids):
        raise StatsError("frame ids must be unique")
    shuffled = list(frame_ids)
    _fisher_yates(shuffled, _Xoshiro256StarStar(seed))
    subsets = tuple(
        tuple(shuffled[k * subset_size:(k + 1) * subset_size])
        for k in range(n_subsets)
    )
    return SubsetPartition(seed=seed, subset_size=subset_size, subsets=subsets)


def _doubled_ranks(values: list[float]) -> tuple[list[int], list[int]]:
    """Twice the ranks 1..n, tied values sharing the mean of their ranks so
    each stays an integer; and the size of each tie group, in value order."""
    ties = {v: len(list(group)) for v, group in groupby(sorted(values))}
    doubled, below = {}, 0
    for v, t in ties.items():
        doubled[v], below = (below + 1) + (below + t), below + t
    return [doubled[v] for v in values], list(ties.values())


def _exact_upper_tail(ranks2: list[int], w2_observed: int) -> float:
    """P(W >= observed) over the 2^n equally likely sign assignments, on
    doubled ranks. ``counts[w]`` is the exact number of assignments whose
    positive ranks sum to ``w``; each rank r adds a copy shifted up by r."""
    counts = [1] + [0] * sum(ranks2)
    for r in ranks2:
        counts[r:] = [c + s for c, s in zip(counts[r:], counts)]
    return sum(counts[w2_observed:]) / (1 << len(ranks2))


def wilcoxon_one_sided(
    x: Sequence[float], y: Sequence[float], method: str = "auto"
) -> WilcoxonResult:
    """One-sided Wilcoxon signed-rank test of median(x - y) > 0.

    Zero differences are dropped; tied absolute differences share their
    average rank. W is the sum of ranks of positive differences. With
    ``method="auto"`` the p-value is exact for up to 20 effective pairs
    and a tie- and continuity-corrected normal approximation above that.
    """
    if method not in ("auto", "exact", "normal_approx"):
        raise StatsError(f"unknown method {method!r}")
    if len(x) != len(y):
        raise StatsError(f"paired samples differ in length: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise StatsError("empty samples")
    d = [float(a) - float(b) for a, b in zip(x, y)]
    if not all(map(math.isfinite, d)):
        raise StatsError("non-finite difference")
    d = [v for v in d if v != 0.0]
    n = len(d)
    if n == 0:
        raise StatsError("all differences are zero; no test possible")

    ranks2, ties = _doubled_ranks([abs(v) for v in d])
    w2 = sum(r for r, v in zip(ranks2, d) if v > 0)
    w = w2 / 2

    if method == "exact" and n > 20:
        raise StatsError(
            f"exact method is capped at n=20 nonzero differences, got {n}"
        )
    if method == "exact" or (method == "auto" and n <= 20):
        p = _exact_upper_tail(ranks2, w2)
        return WilcoxonResult(statistic=w, n_effective=n, p_value=p, method="exact")

    mean = n * (n + 1) / 4.0
    tie_term = sum(t**3 - t for t in ties) / 48.0
    # at least n(n+1)^2/16 > 0, its value when all n differences tie
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    z = (w - 0.5 - mean) / math.sqrt(var)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return WilcoxonResult(
        statistic=w, n_effective=n, p_value=p, method="normal_approx"
    )


def _median(values: Sequence[float]) -> float:
    """``statistics.median`` of non-empty ``values``, by the same formula so
    the float bits agree, without importing statistics, which brings in
    fractions and decimal."""
    data = sorted(values)
    i = len(data) // 2
    return data[i] if len(data) % 2 else (data[i - 1] + data[i]) / 2


def compare_methods(
    values_a: Sequence[float], values_b: Sequence[float]
) -> ComparisonResult:
    """Paired comparison of two per-subset metric series (a vs b)."""
    if len(values_a) != len(values_b):
        raise StatsError(
            f"per-subset series differ in length: {len(values_a)} vs {len(values_b)}"
        )
    wilcoxon = wilcoxon_one_sided(values_a, values_b)
    a, b = [float(v) for v in values_a], [float(v) for v in values_b]
    deltas = [u - v for u, v in zip(a, b)]
    return ComparisonResult(
        per_subset=tuple(zip(a, b)),
        deltas=tuple(deltas),
        median_a=_median(a),
        median_b=_median(b),
        median_delta=_median(deltas),
        wilcoxon=wilcoxon,
    )
