"""Run-length encoded binary masks and exact overlap computation.

Masks use column-major (Fortran) order run-length encoding: ``counts``
alternates background/foreground run lengths, always starting with
background. A mask that begins with foreground therefore has a leading
zero count. Canonical form allows a zero count only at index 0 and never
a trailing zero, so encodings are unique and comparable.

IoU between two masks is computed exactly on the run intervals with
integer arithmetic; masks are never materialised as pixel arrays for
that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

from .errors import MaskError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RleMask:
    """Validated run-length mask over an ``height x width`` grid."""

    height: int
    width: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise MaskError(f"mask size {self.height}x{self.width} must be positive")
        if self.height * self.width >= 2**63:
            raise MaskError(f"mask size {self.height}x{self.width} overflows int64")
        if not self.counts:
            raise MaskError("empty counts")
        if len(self.counts) > 1 and self.counts[-1] == 0:
            raise MaskError("trailing zero count")
        # C builtins pass plain int counts; the loop checks the rest and names a bad index
        if (set(map(type, self.counts)) <= {int} and self.counts[0] >= 0
                and (len(self.counts) == 1 or min(self.counts[1:]) > 0)):
            total = sum(self.counts)
        else:
            import numpy as np
            total = 0
            for idx, c in enumerate(self.counts):
                if not isinstance(c, (int, np.integer)) or isinstance(c, bool):
                    raise MaskError(f"counts[{idx}] is not an integer")
                if c < 0:
                    raise MaskError(f"counts[{idx}] is negative")
                if c == 0 and idx != 0:
                    raise MaskError(f"zero count at index {idx}, only allowed first")
                total += int(c)
        if total != self.height * self.width:
            raise MaskError(
                f"counts sum {total} != {self.height}*{self.width} pixels"
            )

    @cached_property
    def area(self) -> int:
        """Number of foreground pixels."""
        return int(sum(self.counts[1::2]))

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        # computed once per mask; read-only, since every caller shares them
        import numpy as np
        counts = np.asarray(self.counts, dtype=np.int64)
        ends = np.cumsum(counts)
        starts = ends - counts
        runs = (starts[1::2].copy(), ends[1::2].copy())
        for arr in runs:
            arr.flags.writeable = False
        return runs

    @classmethod
    def from_json_dict(cls, obj: Any) -> "RleMask":
        if not isinstance(obj, dict):
            raise MaskError("mask must be an object with 'size' and 'counts'")
        try:
            size = obj["size"]
            counts = obj["counts"]
        except (KeyError, TypeError):
            raise MaskError("mask must have 'size' and 'counts' fields") from None
        if (
            not isinstance(size, (list, tuple))
            or len(size) != 2
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in size)
        ):
            raise MaskError("mask 'size' must be [height, width] integers")
        if not isinstance(counts, (list, tuple)):
            raise MaskError("mask 'counts' must be a list of integers")
        return cls(height=size[0], width=size[1], counts=tuple(counts))

    def to_json_dict(self) -> dict[str, Any]:
        return {"size": [self.height, self.width], "counts": list(self.counts)}


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner plus size, in pixels."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w < 1 or self.h < 1:
            raise MaskError(f"box size {self.w}x{self.h} must be at least 1x1")
        if self.x < 0 or self.y < 0:
            raise MaskError(f"box corner ({self.x}, {self.y}) is negative")


def rle_decode(mask: RleMask) -> np.ndarray:
    """Expand to a dense ``(height, width)`` bool array."""
    import numpy as np
    counts = np.asarray(mask.counts, dtype=np.int64)
    values = np.zeros(len(counts), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, counts)
    return flat.reshape((mask.height, mask.width), order="F")


def rle_encode(bitmap: np.ndarray) -> RleMask:
    """Encode a dense 2-D bool array into canonical run-length form."""
    import numpy as np
    if bitmap.ndim != 2:
        raise MaskError(f"expected 2-D array, got {bitmap.ndim}-D")
    h, w = bitmap.shape
    flat = np.asarray(bitmap, dtype=bool).reshape(-1, order="F")
    # change points: indices where the value differs from its predecessor
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    boundaries = np.concatenate(([0], changes, [flat.size]))
    counts = np.diff(boundaries).tolist()
    if flat[0]:
        counts.insert(0, 0)
    return RleMask(height=h, width=w, counts=tuple(int(c) for c in counts))


def foreground_intervals(mask: RleMask) -> tuple[np.ndarray, np.ndarray]:
    """Half-open ``[start, end)`` foreground runs in flat column-major
    index, as read-only arrays computed once per mask."""
    return mask._runs


def _interval_overlap(
    a_starts: np.ndarray,
    a_ends: np.ndarray,
    b_starts: np.ndarray,
    b_ends: np.ndarray,
) -> int:
    """Total length of the intersection of two disjoint interval sets.

    Both sets are sorted and internally disjoint (they come from run
    encodings), so the runs of B overlapping a run of A form one index
    range ``[lo, hi)``: those ending after it starts and starting before
    it ends. That gives at most ``|A| + |B|`` overlapping pairs, each
    contributing ``min(end) - max(start)``.
    """
    import numpy as np
    lo = np.searchsorted(b_ends, a_starts, side="right")
    hi = np.searchsorted(b_starts, a_ends, side="left")
    n = hi - lo
    total = int(n.sum())
    if total == 0:
        return 0
    a_idx = np.repeat(np.arange(len(a_starts)), n)
    b_idx = np.arange(total) + np.repeat(lo - (np.cumsum(n) - n), n)
    inter = (np.minimum(a_ends[a_idx], b_ends[b_idx])
             - np.maximum(a_starts[a_idx], b_starts[b_idx]))
    return int(inter.sum())


def mask_intersection_union(a: RleMask, b: RleMask) -> tuple[int, int]:
    """Exact intersection and union pixel counts of two same-size masks."""
    if (a.height, a.width) != (b.height, b.width):
        raise MaskError(
            f"mask size mismatch: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
    a_starts, a_ends = foreground_intervals(a)
    b_starts, b_ends = foreground_intervals(b)
    inter = _interval_overlap(a_starts, a_ends, b_starts, b_ends)
    union = a.area + b.area - inter
    return inter, union


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union. Exactly one empty mask gives 0.0."""
    inter, union = mask_intersection_union(a, b)
    if union == 0:
        raise MaskError("IoU of two empty masks is undefined")
    return inter / union


def mask_to_bbox(mask: RleMask) -> BBox:
    """Tight bounding box of the foreground. Empty masks are an error.

    A foreground run confined to one column spans rows
    ``[start % H, (end - 1) % H]``; a run crossing a column boundary
    touches both the top and bottom row of the grid.
    """
    starts, ends = foreground_intervals(mask)
    if starts.size == 0:
        raise MaskError("cannot take bounding box of an empty mask")
    h = mask.height
    col_min = int((starts // h).min())
    col_max = int(((ends - 1) // h).max())
    same_col = (starts // h) == ((ends - 1) // h)
    if bool(same_col.all()):
        row_min = int((starts % h).min())
        row_max = int(((ends - 1) % h).max())
    else:
        # any run crossing a column boundary touches rows 0 and h-1
        row_min = 0
        row_max = h - 1
    return BBox(x=col_min, y=row_min, w=col_max - col_min + 1, h=row_max - row_min + 1)


def box_iou(a: BBox, b: BBox) -> float:
    """IoU of two boxes, treating w and h as exact pixel extents."""
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union
