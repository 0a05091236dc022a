from __future__ import annotations

import contextlib
import json
import pickle
import struct
import sys
from array import array
from numbers import Integral

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bbox_iou,
    bitmap_bbox,
    bitmap_intersection_union,
    naive_rle_decode,
    naive_rle_encode,
)
from synth import random_bitmap, random_blob, rect_rle
from tripletseg.errors import MaskError
from tripletseg.masks import (
    BBox,
    RleMask,
    box_iou,
    foreground_intervals,
    intersection_matrix,
    iou_matrix,
    mask_boxes,
    mask_intersection_union,
    mask_iou,
    mask_to_bbox,
    rle_decode,
    rle_encode,
)


def test_encode_matches_naive_loop(rng):
    for _ in range(50):
        bitmap = random_bitmap(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        mask = rle_encode(bitmap)
        assert list(mask.counts) == naive_rle_encode(bitmap)


def test_decode_matches_naive_loop(rng):
    for _ in range(50):
        bitmap = random_bitmap(rng, int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        mask = rle_encode(bitmap)
        expected = naive_rle_decode(mask.height, mask.width, list(mask.counts))
        assert np.array_equal(rle_decode(mask), expected)


def test_round_trip_identity(rng):
    for _ in range(100):
        bitmap = random_bitmap(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        assert np.array_equal(rle_decode(rle_encode(bitmap)), bitmap)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_round_trip_identity_property(h, w, seed):
    bitmap = np.random.default_rng(seed).random((h, w)) < 0.5
    assert np.array_equal(rle_decode(rle_encode(bitmap)), bitmap)


def test_canonical_form_examples():
    # all background
    m = RleMask(height=2, width=2, counts=(4,))
    assert m.area == 0
    # starts with foreground: leading zero
    m = RleMask(height=2, width=2, counts=(0, 1, 3))
    assert m.area == 1
    assert rle_decode(m)[0, 0]
    # numpy integers are accepted like ints
    m = RleMask(height=2, width=2, counts=(np.int64(1), np.int64(3)))
    assert m.area == 3
    m = RleMask(height=2, width=2, counts=(np.uint8(0), np.int32(1), np.intp(3)))
    assert list(m.counts) == [0, 1, 3] and all(type(c) is int for c in m.counts)


def test_mask_value_contract():
    # counts from a tuple, a list, numpy ints, a JSON dict or another mask
    # make equal masks that hash equal
    ref = RleMask(height=2, width=3, counts=(1, 2, 3))
    same = [
        RleMask(height=2, width=3, counts=[1, 2, 3]),
        RleMask(height=2, width=3, counts=(np.int64(1), np.int32(2), np.uint8(3))),
        RleMask.from_json_dict({"size": [2, 3], "counts": [1, 2, 3]}),
        RleMask(height=2, width=3, counts=ref.counts),
        RleMask(height=2, width=3, counts=np.array([1, 2, 3])),
    ]
    for m in same:
        assert m == ref and hash(m) == hash(ref)
    assert len({ref, *same}) == 1
    assert ref != RleMask(height=2, width=3, counts=(1, 3, 2))
    assert ref != RleMask(height=3, width=2, counts=(1, 2, 3))
    assert ref != (2, 3, (1, 2, 3))
    # repr reads as a tuple of counts, as it did when counts were a tuple
    assert repr(ref) == "RleMask(height=2, width=3, counts=(1, 2, 3))"
    assert repr(RleMask(height=2, width=2, counts=[4])) == "RleMask(height=2, width=2, counts=(4,))"
    doc = ref.to_json_dict()
    assert doc == {"size": [2, 3], "counts": [1, 2, 3]}
    assert all(type(c) is int for c in doc["counts"])


def test_counts_stored_at_four_bytes_each():
    counts = [300, 20] * 500 + [480 * 854 - 320 * 500]
    for given in (counts, tuple(counts), [np.int64(c) for c in counts]):
        m = RleMask(height=480, width=854, counts=given)
        assert m.counts.typecode == "I" and m.counts.itemsize == 4
        assert sys.getsizeof(m.counts) == sys.getsizeof(array("I")) + 4 * len(counts)
        assert m.counts.tolist() == counts


# the largest frames of each width: 2**32 - 1 pixels and 2**32 pixels
WIDTHS = [((65535, 65537), "I", 4), ((65536, 65536), "q", 8)]


@pytest.mark.parametrize("size,typecode,itemsize", WIDTHS)
def test_count_width_follows_frame_pixels(size, typecode, itemsize):
    h, w = size
    counts = [h * w - 2**20 - 3, 2**20, 3]
    for given in (counts, tuple(counts), [np.int64(c) for c in counts]):
        m = RleMask(height=h, width=w, counts=given)
        assert (m.counts.typecode, m.counts.itemsize) == (typecode, itemsize)
        assert sys.getsizeof(m.counts) == sys.getsizeof(array(typecode)) + itemsize * 3
        assert m.counts.tolist() == counts and m.area == 2**20
    # a count above the word fails the sum check, not the packing
    with pytest.raises(MaskError, match=r"^counts sum"):
        RleMask(height=h, width=w, counts=(2**64 if itemsize == 8 else 2**32, 1))


@pytest.mark.parametrize("size,typecode,itemsize", WIDTHS)
def test_both_count_widths_keep_the_value_contract(size, typecode, itemsize):
    h, w = size
    ref = RleMask(height=h, width=w, counts=(5, h * w - 6, 1))
    same = [
        RleMask(height=h, width=w, counts=[5, h * w - 6, 1]),
        RleMask(height=h, width=w, counts=ref.counts),
        RleMask(height=h, width=w, counts=np.array([5, h * w - 6, 1], dtype=np.uint64)),
        pickle.loads(pickle.dumps(ref)),
        RleMask.from_json_dict(json.loads(json.dumps(ref.to_json_dict()))),
    ]
    for m in same:
        assert m.counts.typecode == typecode
        assert m == ref and hash(m) == hash(ref)
    assert len({ref, *same}) == 1
    assert ref != RleMask(height=h, width=w, counts=(6, h * w - 7, 1))
    assert ref.to_json_dict() == {"size": [h, w], "counts": [5, h * w - 6, 1]}
    assert all(type(c) is int for c in ref.to_json_dict()["counts"])
    assert repr(ref) == f"RleMask(height={h}, width={w}, counts=(5, {h * w - 6}, 1))"


def test_intersection_matrix_over_mixed_count_widths():
    # 4-byte and 8-byte counts, each mask's run list summed in Python ints
    (small, _, _), (large, _, _) = WIDTHS
    typecodes = set()
    for h, w in (small, large, (5, 4)):
        a = RleMask(height=h, width=w, counts=(3, 7, h * w - 10))
        b = RleMask(height=h, width=w, counts=(0, 5, 1, 2, h * w - 8))
        typecodes |= {a.counts.typecode, b.counts.typecode}
        pairs = [(a, b), (b, a), (a, a)]
        matrix = intersection_matrix([x for x, _ in pairs], [y for _, y in pairs])
        assert [matrix[i][i] for i in range(3)] == [
            intersection_matrix([x], [y])[0][0] for x, y in pairs] == [4, 4, 7]
        assert matrix == [[4, 7, 7], [7, 4, 4], [4, 7, 7]]
    assert typecodes == {"I", "q"}


def test_full_2_62_pixel_mask_packs():
    big = RleMask(height=2**31, width=2**31, counts=(0, 2**62))
    assert list(big.counts) == [0, 2**62] and big.area == 2**62
    assert RleMask.from_json_dict(big.to_json_dict()) == big
    assert big.to_json_dict()["counts"] == [0, 2**62]


@pytest.mark.parametrize(
    "counts,message",
    [
        ((2, 0, 2), "zero count at index"),
        ((3, 1, 0), "trailing zero"),
        ((3,), "counts sum"),
        ((2, -1, 3), "negative"),
        ((), "empty counts"),
        # each message names the first bad index
        ((True, 3), r"^counts\[0\] is not an integer$"),
        ((2, "2"), r"^counts\[1\] is not an integer$"),
        ((2, 2.0), r"^counts\[1\] is not an integer$"),
        ((1, 1, -1, 3), r"^counts\[2\] is negative$"),
        ((1, 1, 0, 2), r"^zero count at index 2, only allowed first$"),
        ((1, 1, 1), r"^counts sum 3 != 2\*2 pixels$"),
        # numpy's bool and float scalars are not Integral, its integers are
        ((np.bool_(True), 3), r"^counts\[0\] is not an integer$"),
        ((np.uint8(2), np.float64(2.0)), r"^counts\[1\] is not an integer$"),
        # past int64 and past 64 bits: each count is fine alone, the sum is not
        ((2**63, 3), r"^counts sum 9223372036854775811 != 2\*2 pixels$"),
        ((1, 2**64), r"^counts sum 18446744073709551617 != 2\*2 pixels$"),
        ((1, -2**64), r"^counts\[1\] is negative$"),
        # numpy arrays are sized by length, not by truth value
        (np.array([], dtype=np.int64), "^empty counts$"),
        (np.array([0]), r"^counts sum 0 != 2\*2 pixels$"),
        (np.array([3, 1, 0]), "trailing zero"),
    ],
)
def test_invalid_counts_rejected(counts, message):
    with pytest.raises(MaskError, match=message):
        RleMask(height=2, width=2, counts=counts)


def _struct_packed_counts(height, width, counts):
    """The stored counts as the constructor built them through ``struct``
    packers: plain int counts packed unsigned in one call, anything else
    checked count by count; the packed bytes went into an array and out
    through a slice, which sizes it exactly."""
    if len(counts) == 0:
        raise MaskError("empty counts")
    if len(counts) > 1 and counts[-1] == 0:
        raise MaskError("trailing zero count")
    code = "I" if height * width < 2**32 else "Q"
    packed = None
    if set(map(type, counts)) <= {int} and 0 not in counts[1:]:
        try:
            packed = struct.Struct(f"{len(counts)}{code}").pack(*counts)
        except struct.error:
            pass
    if packed is None:
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
    packed = packed or struct.Struct(f"{len(counts)}{code}").pack(*counts)
    return array("I" if code == "I" else "q", packed)[:]


# each word's edges, and 2**63, which is too wide for int64 but fits uint64
EDGE_COUNTS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64)


def _as_kind(value, kind):
    """``value`` as a count of another type, where that type can hold it."""
    if kind == "bool" and value in (0, 1):
        return bool(value)
    if kind == "float":
        return float(value)
    if kind == "int64" and -2**63 <= value < 2**63:
        return np.int64(value)
    if kind == "uint64" and 0 <= value < 2**64:
        return np.uint64(value)
    return value


@st.composite
def _count_inputs(draw):
    h, w = draw(st.sampled_from([(65535, 65537), (65536, 65536), (3, 5)]))
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 2**20), min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # a word's edge, or a negative
        counts[draw(st.integers(0, n - 1))] = draw(
            st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(-2**64, -1)))
    # the last count closes the sum, which may take it below zero, or leaves it one off
    counts[-1] = h * w - sum(counts[:-1]) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    if draw(st.booleans()):
        counts.insert(0, 0)  # a leading zero
    zero_at = draw(st.sampled_from([None, None, None, "inner", "trailing"]))
    if zero_at == "inner":
        counts.insert(draw(st.integers(1, len(counts))), 0)
    elif zero_at == "trailing":
        counts.append(0)
    if draw(st.booleans()):
        kinds = st.sampled_from(["int"] * 5 + ["bool", "float", "int64", "uint64"])
        counts = [_as_kind(c, draw(kinds)) for c in counts]
    container = draw(st.sampled_from([list, list, tuple, "array", "ndarray", "objects"]))
    if container == "array":
        with contextlib.suppress(OverflowError, TypeError):
            return h, w, array(draw(st.sampled_from("Iq")), counts)
    elif container == "ndarray":
        with contextlib.suppress(OverflowError):
            return h, w, np.array(counts)
    if container in ("ndarray", "objects"):
        return h, w, np.array(counts, dtype=object)
    return h, w, counts if container is list else tuple(counts)


def _stored_or_error(build, h, w, counts):
    try:
        stored = build(h, w, counts)
    except MaskError as exc:
        return "error", str(exc)
    return stored.typecode, stored.tobytes(), sys.getsizeof(stored)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(_count_inputs())
def test_counts_stored_as_by_struct_packing(case):
    # the same typecode, bytes and size, or the same error, as packing did
    h, w, counts = case
    want = _stored_or_error(_struct_packed_counts, h, w, counts)
    assert _stored_or_error(lambda *args: RleMask(*args).counts, h, w, counts) == want


@pytest.mark.parametrize(
    "shape,message",
    [
        ((4,), r"^expected 2-D array, got 1-D$"),
        ((0, 3), r"^mask size 0x3 must be positive$"),
        ((3, 0), r"^mask size 3x0 must be positive$"),
        ((0, 0), r"^mask size 0x0 must be positive$"),
    ],
)
def test_rle_encode_rejects_bad_shapes(shape, message):
    with pytest.raises(MaskError, match=message):
        rle_encode(np.zeros(shape, dtype=bool))


def test_from_json_dict_validation():
    ok = RleMask.from_json_dict({"size": [2, 3], "counts": [6]})
    assert (ok.height, ok.width) == (2, 3)
    for bad in (
        None,
        {"size": [2], "counts": [4]},
        {"size": [2, 2]},
        {"counts": [4]},
        {"size": [2, 2], "counts": "4"},
        # counts and sizes are checked as they are, never coerced
        {"size": [2, 2], "counts": ["2", "2"]},
        {"size": [2, 2], "counts": [True, 3]},
        {"size": [2, 2], "counts": ["x", 2]},
        {"size": [2, 2], "counts": [None, 2]},
        {"size": [2, 2], "counts": [[1], 3]},
        {"size": [2, 2], "counts": [2.0, 2]},
        {"size": [True, 4], "counts": [4]},
        # more pixels than an int64 run offset can hold
        {"size": [2**40, 2**40], "counts": [0, 2**80]},
    ):
        with pytest.raises(MaskError):
            RleMask.from_json_dict(bad)


def _flat_bitmap(height, width, pixels):
    """Bitmap with the given flat column-major pixels set."""
    flat = np.zeros(height * width, dtype=bool)
    flat[list(pixels)] = True
    return flat.reshape((height, width), order="F")


def test_iou_exact_against_bitmap_oracle(rng):
    cases = []
    for _ in range(200):
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        cases.append((random_bitmap(rng, h, w), random_blob(rng, h, w)))
    blob = random_blob(rng, 12, 9)
    cases += [
        # runs that touch, one ending where the other starts, but never overlap
        (_flat_bitmap(4, 3, [0, 1, 2, 6, 7, 8]), _flat_bitmap(4, 3, [3, 4, 5, 9, 10, 11])),
        # one run crossing columns against many short runs
        (_flat_bitmap(5, 6, range(3, 27)), _flat_bitmap(5, 6, range(0, 30, 2))),
        (blob, blob.copy()),
        (np.zeros_like(blob), blob),
    ]
    for a_bitmap, b_bitmap in cases:
        for x_bitmap, y_bitmap in ((a_bitmap, b_bitmap), (b_bitmap, a_bitmap)):
            x, y = rle_encode(x_bitmap), rle_encode(y_bitmap)
            inter, union = mask_intersection_union(x, y)
            assert (inter, union) == bitmap_intersection_union(x_bitmap, y_bitmap)
            assert mask_iou(x, y) == inter / union


def test_foreground_intervals_read_only():
    mask = rect_rle(6, 5, 1, 1, 3, 2)
    for arr in foreground_intervals(mask):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert mask_to_bbox(mask) == BBox(x=1, y=1, w=2, h=3)


def test_iou_empty_cases():
    empty = RleMask(height=2, width=2, counts=(4,))
    full = RleMask(height=2, width=2, counts=(0, 4))
    assert mask_iou(empty, full) == 0.0
    assert mask_iou(full, empty) == 0.0
    with pytest.raises(MaskError, match="undefined"):
        mask_iou(empty, empty)


def test_iou_size_mismatch():
    a = RleMask(height=2, width=2, counts=(0, 4))
    b = RleMask(height=2, width=3, counts=(0, 6))
    with pytest.raises(MaskError, match="size mismatch"):
        mask_iou(a, b)


def test_identical_masks_iou_one(rng):
    for _ in range(20):
        bitmap = random_blob(rng, 16, 16)
        m = rle_encode(bitmap)
        assert mask_iou(m, m) == 1.0


def test_mask_to_bbox_matches_bitmap(rng):
    for _ in range(100):
        h = int(rng.integers(2, 24))
        w = int(rng.integers(2, 24))
        bitmap = random_blob(rng, h, w)
        box = mask_to_bbox(rle_encode(bitmap))
        assert (box.x, box.y, box.w, box.h) == bitmap_bbox(bitmap)


def test_mask_to_bbox_single_pixel():
    bitmap = np.zeros((5, 7), dtype=bool)
    bitmap[3, 2] = True
    box = mask_to_bbox(rle_encode(bitmap))
    assert (box.x, box.y, box.w, box.h) == (2, 3, 1, 1)


def test_mask_to_bbox_empty_rejected():
    with pytest.raises(MaskError, match="empty"):
        mask_to_bbox(RleMask(height=3, width=3, counts=(9,)))


def test_bbox_validation():
    with pytest.raises(MaskError):
        BBox(x=0, y=0, w=0, h=1)
    with pytest.raises(MaskError):
        BBox(x=-1, y=0, w=1, h=1)


def test_box_iou_hand_cases():
    a = BBox(x=0, y=0, w=2, h=2)
    b = BBox(x=1, y=1, w=2, h=2)
    assert box_iou(a, b) == pytest.approx(1 / 7)
    assert box_iou(a, a) == 1.0
    c = BBox(x=10, y=10, w=2, h=2)
    assert box_iou(a, c) == 0.0


def test_box_iou_matches_oracle(rng):
    for _ in range(100):
        vals = rng.integers(0, 10, size=4)
        a = BBox(int(vals[0]), int(vals[1]), int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        b = BBox(int(vals[2]), int(vals[3]), int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        assert box_iou(a, b) == bbox_iou(
            (a.x, a.y, a.w, a.h), (b.x, b.y, b.w, b.h)
        )


def test_rect_rle_helper_matches_dense(rng):
    # the synthetic rectangle builder must agree with encode of a dense rect
    for _ in range(50):
        height = int(rng.integers(2, 20))
        width = int(rng.integers(2, 20))
        h = int(rng.integers(1, height + 1))
        w = int(rng.integers(1, width + 1))
        y0 = int(rng.integers(0, height - h + 1))
        x0 = int(rng.integers(0, width - w + 1))
        bitmap = np.zeros((height, width), dtype=bool)
        bitmap[y0:y0 + h, x0:x0 + w] = True
        assert rect_rle(height, width, y0, x0, h, w) == rle_encode(bitmap)


# batched kernels

BIG = 2**31  # a BIG x BIG mask has 2**62 pixels


def _kernel_pairs(rng):
    """Pairs for one batched call: mixed frame sizes, empty masks, one
    mask object on both sides and in several pairs, runs crossing columns,
    and full 2**62-pixel masks."""
    pairs = []
    for _ in range(60):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        pairs.append((rle_encode(random_bitmap(rng, h, w)), rle_encode(random_blob(rng, h, w))))
    shared = rle_encode(random_blob(rng, 9, 7))
    empty = RleMask(height=9, width=7, counts=(63,))
    crossing = rle_encode(_flat_bitmap(5, 6, range(3, 27)))
    pairs += [
        (shared, shared),
        (shared, empty),
        (empty, shared),
        (empty, empty),
        (shared, rle_encode(random_blob(rng, 9, 7))),
        (crossing, rle_encode(_flat_bitmap(5, 6, range(0, 30, 2)))),
        (crossing, crossing),
    ]
    return pairs


def _batched(items, batch):
    return [items[i:i + batch] for i in range(0, len(items), batch)]


# rows split over calls of 1, 7 or 16384 masks: no state crosses calls
BATCHES = [1, 7, 16384]


@pytest.mark.parametrize("batch", BATCHES)
def test_pair_kernels_match_bitmaps(rng, batch):
    pairs = _kernel_pairs(rng)
    big_a = RleMask(height=BIG, width=BIG, counts=(0, 2**62))
    big_b = RleMask(height=BIG, width=BIG, counts=(0, 2**62))
    pairs += [(big_a, big_b), (big_b, big_a), (big_a, big_a)]
    pairs += _kernel_pairs(rng)[:5]

    # one matrix per mask size: every a of that size against every b
    by_size = {}
    for a, b in pairs:
        a_masks, b_masks = by_size.setdefault((a.height, a.width), ([], []))
        a_masks.append(a)
        b_masks.append(b)
    for a_masks, b_masks in by_size.values():
        inters = [row for part in _batched(a_masks, batch)
                  for row in intersection_matrix(part, b_masks)]
        if a_masks[0].height == BIG:
            assert inters == [[2**62] * 3] * 3
        else:
            assert inters == [[bitmap_intersection_union(rle_decode(a), rle_decode(b))[0]
                               for b in b_masks] for a in a_masks]

    for a, b in pairs:
        if a.area or b.area:
            [[iou]] = iou_matrix([a], [b])
            if a.height == BIG:
                assert iou == 1.0
            else:
                inter, union = bitmap_intersection_union(rle_decode(a), rle_decode(b))
                assert iou == inter / union


@pytest.mark.parametrize("batch", BATCHES)
def test_mask_boxes_match_bitmaps(rng, batch):
    items = [m for pair in _kernel_pairs(rng) for m in pair if m.area]
    items += [
        RleMask(height=1, width=6, counts=(2, 3, 1)),  # height 1
        RleMask(height=1, width=6, counts=(0, 1, 4, 1)),
        RleMask(height=4, width=3, counts=(5, 3, 4)),  # row 1 + 3 == H ends the column
        RleMask(height=4, width=3, counts=(2, 2, 1, 3, 4)),
        RleMask(height=4, width=3, counts=(4, 2, 6)),  # row 0 after a background column
        RleMask(height=4, width=3, counts=(0, 4, 4, 2, 2)),  # ... after a full column
        RleMask(height=4, width=3, counts=(6, 6)),  # foreground through the last pixel
        RleMask(height=4, width=3, counts=(10, 2)),
        RleMask(height=4, width=3, counts=(0, 3, 9)),  # leading foreground
        RleMask(height=4, width=3, counts=(11, 1)),  # bottom-right pixel
        # np.int16 counts: the second run starts at 35100, past the int16 range
        RleMask(height=200, width=200, counts=tuple(np.int16([20000, 100, 15000, 100, 4800]))),
    ]
    big = RleMask(height=BIG, width=BIG, counts=(0, 2**62))
    items[10:10] = [big, big]
    boxes = [box for part in _batched(items, batch) for box in mask_boxes(part)]
    assert len(boxes) == len(items)
    for mask, box in zip(items, boxes):
        assert {type(v) for v in (box.x, box.y, box.w, box.h)} == {int}
        if mask is big:
            assert box == BBox(x=0, y=0, w=BIG, h=BIG)
        else:
            assert (box.x, box.y, box.w, box.h) == bitmap_bbox(rle_decode(mask))


def test_2_62_pixel_masks_list_and_intersect_exactly():
    # two 2**62-pixel masks: int64 intervals, and Python ints in the merge
    full = RleMask(height=BIG, width=BIG, counts=(0, 2**62))
    half = RleMask(height=BIG, width=BIG, counts=(2**61, 2**61))
    assert [x.tolist() for x in foreground_intervals(full)] == [[0], [2**62]]
    assert [x.tolist() for x in foreground_intervals(half)] == [[2**61], [2**62]]
    assert intersection_matrix([full, half], [full, half]) == [[2**62, 2**61], [2**61, 2**61]]


@st.composite
def _bounds(draw, lo, hi, first=None, last=None):
    """Sorted run bounds in ``[lo, hi]``: start, end, start, ... One
    foreground pixel or more per run, and background between runs."""
    inner = draw(st.sets(st.integers(lo, hi), max_size=10))
    bounds = sorted(inner | {b for b in (first, last) if b is not None})
    if len(bounds) % 2:  # drop the last bound not given, else all
        free = [b for b in bounds if b not in (first, last)]
        bounds = [b for b in bounds if b != free[-1]] if free else []
    return bounds


def _from_bounds(height, width, bounds):
    counts = [y - x for x, y in zip([0, *bounds], [*bounds, height * width])]
    if len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return RleMask(height=height, width=width, counts=counts)


@st.composite
def _mask_pairs(draw):
    """Two masks of one size, B placed against A: anywhere, on A's span,
    touching its end at one index, after it, or inside it. Bounds at 0 and at
    the pixel total give leading foreground and foreground through the last
    pixel; heights up to 8 give several runs in one column."""
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n = height * width
    a = draw(_bounds(0, n))
    kind = draw(st.sampled_from(["any", "span", "touch", "after", "inside"]))
    if not a or kind == "any":
        b = draw(_bounds(0, n))
    elif kind == "span":
        b = draw(_bounds(a[0], a[-1], first=a[0], last=a[-1]))
    elif kind == "touch":
        b = draw(_bounds(a[-1], n, first=a[-1])) if a[-1] < n else []
    elif kind == "after":
        b = draw(_bounds(a[-1] + 1, n)) if a[-1] < n else []
    else:
        b = draw(_bounds(a[0] + 1, a[-1] - 1)) if a[-1] - a[0] > 1 else []
    return _from_bounds(height, width, a), _from_bounds(height, width, b)


@settings(max_examples=1500, derandomize=True, deadline=None, database=None)
@given(_mask_pairs())
def test_merged_intersections_match_bitmaps(pair):
    # the full 2 x 2 matrix of (a, b): (a, b), (b, a), (a, a) and (b, b)
    bitmaps = {m: naive_rle_decode(m.height, m.width, list(m.counts)) for m in pair}
    expected = [[bitmap_intersection_union(bitmaps[x], bitmaps[y])[0] for y in pair]
                for x in pair]
    assert intersection_matrix(pair, pair) == expected


def test_matrix_of_masks_made_on_the_fly():
    # generators are accepted for both lists; each row's mask is made when its
    # row starts and may be dropped before the next row's is made
    def made(shift):
        return (RleMask(height=4, width=4, counts=(k + shift, 16 - k - shift))
                for k in range(1, 9))
    expected = [[16 - max(i, j + 1) for j in range(1, 9)] for i in range(1, 9)]
    inters = intersection_matrix(made(0), made(1))
    assert [inters[i][i] for i in range(8)] == list(range(14, 6, -1))
    assert inters == expected
    assert iou_matrix(made(0), made(1)) == [
        [inter / (16 - min(i, j + 1)) for j, inter in enumerate(row, 1)]
        for i, row in enumerate(expected, 1)]


@pytest.mark.parametrize("case", ["repeated-in-a", "repeated-in-b", "in-both"])
def test_matrices_with_a_mask_object_used_twice(rng, case):
    # each row and each column lists its own runs, whichever object it holds
    m, n, o = (rle_encode(random_blob(rng, 9, 7)) for _ in range(3))
    a_masks, b_masks = {
        "repeated-in-a": ([m, m, n], [o, n]),
        "repeated-in-b": ([n, o], [m, n, m]),
        "in-both": ([m, n, o], [o, m]),
    }[case]
    expected = [[bitmap_intersection_union(rle_decode(a), rle_decode(b)) for b in b_masks]
                for a in a_masks]
    assert intersection_matrix(a_masks, b_masks) == [[i for i, _ in row] for row in expected]
    assert iou_matrix(a_masks, b_masks) == [[i / u for i, u in row] for row in expected]


def test_matrix_rows_from_a_one_shot_generator(rng):
    bitmaps = [random_blob(rng, 9, 7) for _ in range(8)]
    b_masks = [rle_encode(random_blob(rng, 9, 7)) for _ in range(5)]
    expected = [[bitmap_intersection_union(a, rle_decode(b))[0] for b in b_masks]
                for a in bitmaps]
    # each row's mask is made as its row starts and dropped when it ends
    assert intersection_matrix((rle_encode(a) for a in bitmaps), b_masks) == expected


def test_mask_holds_only_its_counts(rng):
    assert RleMask.__slots__ == ("height", "width", "counts")
    masks = [rle_encode(random_blob(rng, 9, 7)) for _ in range(4)]
    iou_matrix(masks, masks[::-1])
    mask_boxes(masks)
    mask_intersection_union(masks[0], masks[1])
    assert [m.area for m in masks] == [int(rle_decode(m).sum()) for m in masks]


def test_batched_kernel_errors():
    full = RleMask(height=2, width=2, counts=(0, 4))
    empty = RleMask(height=2, width=2, counts=(4,))
    wide = RleMask(height=2, width=3, counts=(0, 6))
    with pytest.raises(MaskError, match=r"^mask size mismatch: 2x2 vs 2x3$"):
        intersection_matrix([full], [full, wide])
    with pytest.raises(MaskError, match=r"^mask size mismatch: 2x3 vs 2x2$"):
        iou_matrix([full, wide], [full])
    with pytest.raises(MaskError, match=r"^IoU of two empty masks is undefined$"):
        iou_matrix([full, empty], [full, empty])
    with pytest.raises(MaskError, match=r"^cannot take bounding box of an empty mask$"):
        mask_boxes([full, empty])
    assert iou_matrix([], []) == [] and iou_matrix([full], []) == [[]]
    assert mask_boxes([]) == []
