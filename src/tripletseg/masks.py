"""Run-length encoded binary masks and exact overlap computation.

Masks use column-major (Fortran) order run-length encoding: ``counts``
alternates background/foreground run lengths, always starting with
background. A mask that begins with foreground therefore has a leading
zero count. Canonical form allows a zero count only at index 0 and never
a trailing zero, so encodings are unique and comparable.

IoU is computed exactly, one matrix between two lists of masks, by merging
run lists in plain Python integers, never pixel arrays; a matrix lists a row's
runs at most once per row and a column's at most once per call, and takes
areas per call. Counts are checked and boxes computed in plain Python too.
Only ``foreground_intervals``, ``rle_decode`` and ``rle_encode`` load numpy.

A validated mask stores its counts in one ``array('I')``, 4 bytes per count
as in COCO's mask API, or in an ``array('q')`` once its frame has 2**32
pixels; building the array rejects a count too wide for its word, and
``array('I')`` a negative one. Every reader sees plain Python ints;
``rle_decode`` reads the buffer directly, in the array's dtype.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from contextlib import suppress
from itertools import accumulate, islice, repeat
from operator import add, mod
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import MaskError

if TYPE_CHECKING:
    import numpy as np


class RleMask:
    """Validated run-length mask over an ``height x width`` grid. ``counts``
    may be any sequence of integers, stored as an ``array('I')``, or from 2**32
    pixels on an ``array('q')``. Masks are immutable and compare and hash by value."""

    __slots__ = ("height", "width", "counts")

    def __init__(self, height: int, width: int, counts: Sequence[int]) -> None:
        if height < 1 or width < 1:
            raise MaskError(f"mask size {height}x{width} must be positive")
        if height * width >= 2**63:
            raise MaskError(f"mask size {height}x{width} overflows int64")
        if len(counts) == 0:
            raise MaskError("empty counts")
        if len(counts) > 1 and counts[-1] == 0:
            raise MaskError("trailing zero count")
        # plain ints with no zero after the first, in a list, a tuple or an array of
        # the stored type (each sized exactly by array()), go into the array in C,
        # which rejects a too wide count, and as 'I' a negative one. The loop checks
        # the rest (numpy ints are Integral) and names a bad index; a too wide count fails the sum
        code = "I" if height * width < 2**32 else "q"
        stored = None
        if ((type(counts) in (list, tuple) or getattr(counts, "typecode", "") == code)
                and set(map(type, counts)) <= {int} and 0 not in counts[1:]
                and (code == "I" or min(counts) >= 0)):
            with suppress(OverflowError):
                stored = array(code, counts)
        if stored is None:
            from numbers import Integral
            for idx, c in enumerate(counts):
                if not isinstance(c, Integral) or isinstance(c, bool):
                    raise MaskError(f"counts[{idx}] is not an integer")
                if c < 0:
                    raise MaskError(f"counts[{idx}] is negative")
                if c == 0 and idx != 0:
                    raise MaskError(f"zero count at index {idx}, only allowed first")
            counts = list(map(int, counts))
        total = sum(counts)
        if total != height * width:
            raise MaskError(f"counts sum {total} != {height}*{width} pixels")
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "counts", array(code, counts) if stored is None else stored)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), (self.height, self.width, self.counts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.height, self.width, self.counts) == (other.height, other.width, other.counts)

    def __hash__(self) -> int:
        return hash((self.height, self.width, self.counts.tobytes()))

    def __repr__(self) -> str:
        return (f"RleMask(height={self.height!r}, width={self.width!r}, "
                f"counts={tuple(self.counts)!r})")

    @property
    def area(self) -> int:
        """Number of foreground pixels."""
        return sum(self.counts[1::2])

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
        return cls(height=size[0], width=size[1], counts=counts)

    def to_json_dict(self) -> dict[str, Any]:
        return {"size": [self.height, self.width], "counts": self.counts.tolist()}


class _BoxFields(NamedTuple):
    x: int
    y: int
    w: int
    h: int


class BBox(_BoxFields):
    """Axis-aligned box: top-left corner plus size, in pixels. Construction
    and ``_replace`` both check it."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> BBox:
        self = super().__new__(cls, *args, **kwargs)
        if self.w < 1 or self.h < 1:
            raise MaskError(f"box size {self.w}x{self.h} must be at least 1x1")
        if self.x < 0 or self.y < 0:
            raise MaskError(f"box corner ({self.x}, {self.y}) is negative")
        return self

    @classmethod
    def _make(cls, fields: Any) -> BBox:  # `_replace` builds through `_make`
        return cls(*fields)


def rle_decode(mask: RleMask) -> np.ndarray:
    """Expand to a dense ``(height, width)`` bool array."""
    import numpy as np
    counts = np.frombuffer(mask.counts, dtype=mask.counts.typecode)
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
    if h < 1 or w < 1:
        raise MaskError(f"mask size {h}x{w} must be positive")
    flat = np.asarray(bitmap, dtype=bool).reshape(-1, order="F")
    # change points: indices where the value differs from its predecessor
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    boundaries = np.concatenate(([0], changes, [flat.size]))
    counts = np.diff(boundaries).tolist()
    if flat[0]:
        counts.insert(0, 0)
    return RleMask(height=h, width=w, counts=counts)


def _span(mask: RleMask) -> tuple[int, int]:
    """First foreground pixel and one past the last, in flat column-major
    index, from the first and last counts. An empty mask's span is empty."""
    counts, total = mask.counts, mask.height * mask.width
    return counts[0], total - counts[-1] if len(counts) % 2 else total


def _bounds(mask: RleMask) -> list[int]:
    """Start and end of each foreground run in flat column-major index, one
    sorted list from one running sum over the counts."""
    bounds = list(accumulate(mask.counts))
    if len(bounds) % 2:
        bounds.pop()  # the pixel total, after trailing background
    return bounds


def _intersection(a: list[int], b: list[int], start: int) -> int:
    """Pixels shared by two masks, from their run bounds: A is the mask whose
    foreground ends first, and ``start``, before A's last end, is where the
    span both cover starts. Each list is bisected to the run holding or
    following ``start`` (an even index: a run's start); two pointers then
    walk them, each step advancing the run that ends first. B's run advances
    only while it ends before one of A's, so a next B run always exists and
    only A's runs need a bound."""
    i, j = bisect_right(a, start) & -2, bisect_right(b, start) & -2
    b0, b1 = b[j], b[j + 1]
    inter = 0
    runs = islice(a, i, None)
    for a0, a1 in zip(runs, runs):
        while b1 < a1:
            if b1 > a0:
                inter += b1 - (a0 if a0 > b0 else b0)
            j += 2
            b0, b1 = b[j], b[j + 1]
        if a1 > b0:
            inter += a1 - (a0 if a0 > b0 else b0)
    return inter


def foreground_intervals(mask: RleMask) -> tuple[np.ndarray, np.ndarray]:
    """Half-open ``[start, end)`` foreground runs in flat column-major index."""
    import numpy as np
    start, end = np.fromiter(_bounds(mask), np.int64).reshape(-1, 2).T.copy()
    start.flags.writeable = end.flags.writeable = False
    return start, end


def intersection_matrix(a_masks: Iterable[RleMask], b_masks: Iterable[RleMask]) -> list[list[int]]:
    """Exact foreground intersection of each (a, b) pair of same-size masks,
    one row per ``a``, by merging run lists. A pair whose spans are apart
    lists no run; a row lists its mask's runs at most once, and a column its
    mask's at most once per call."""
    b_masks = list(b_masks)
    b_spans, b_runs = list(map(_span, b_masks)), [None] * len(b_masks)
    rows = []
    for a in a_masks:
        (a_start, a_end), a_runs, row = _span(a), None, []
        for k, (b, (b_start, b_end)) in enumerate(zip(b_masks, b_spans)):
            if a.height != b.height or a.width != b.width:
                raise MaskError(
                    f"mask size mismatch: {a.height}x{a.width} vs {b.height}x{b.width}")
            start = a_start if a_start > b_start else b_start
            if start >= (a_end if a_end < b_end else b_end):  # spans apart
                row.append(0)
                continue
            # spans that meet are not empty, so neither list of runs is
            a_runs = a_runs or _bounds(a)
            b_k = b_runs[k] = b_runs[k] or _bounds(b)
            row.append(_intersection(a_runs, b_k, start) if a_end <= b_end
                       else _intersection(b_k, a_runs, start))
        rows.append(row)
    return rows


def iou_matrix(a_masks: Iterable[RleMask], b_masks: Iterable[RleMask]) -> list[list[float]]:
    """IoU of each (a, b) pair, one row per ``a``. Exactly one empty mask gives 0.0."""
    a_masks, b_masks = list(a_masks), list(b_masks)
    b_areas = [b.area for b in b_masks]
    rows = []
    for a_area, inters in zip([a.area for a in a_masks], intersection_matrix(a_masks, b_masks)):
        unions = [a_area + b_area - i for b_area, i in zip(b_areas, inters)]
        if 0 in unions:
            raise MaskError("IoU of two empty masks is undefined")
        rows.append([i / u for i, u in zip(inters, unions)])
    return rows


def mask_intersection_union(a: RleMask, b: RleMask) -> tuple[int, int]:
    """Exact intersection and union pixel counts of two same-size masks."""
    [[inter]] = intersection_matrix([a], [b])
    return inter, a.area + b.area - inter


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union. Exactly one empty mask gives 0.0."""
    [[iou]] = iou_matrix([a], [b])
    return iou


def mask_boxes(masks: Iterable[RleMask]) -> list[BBox]:
    """Tight bounding box of each mask's foreground; empty masks are an error.
    Runs start at the running sums before foreground counts. A run whose start
    row plus length exceeds H crosses a column, so the box spans all rows."""
    boxes: list[BBox] = []
    for m in masks:
        h, counts = m.height, m.counts
        if len(counts) == 1:
            raise MaskError("cannot take bounding box of an empty mask")
        rows = list(map(mod, islice(accumulate(counts), 0, len(counts) - 1, 2), repeat(h)))
        stop = max(map(add, rows, counts[1::2]))
        y0, y1 = (0, h - 1) if stop > h else (min(rows), stop - 1)
        start, end = _span(m)
        x0, x1 = start // h, (end - 1) // h
        boxes.append(BBox(x=x0, y=y0, w=x1 - x0 + 1, h=y1 - y0 + 1))
    return boxes


def mask_to_bbox(mask: RleMask) -> BBox:
    """Tight bounding box of the foreground. Empty masks are an error."""
    return mask_boxes([mask])[0]


def box_iou(a: BBox, b: BBox) -> float:
    """IoU of two boxes, treating w and h as exact pixel extents."""
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union
