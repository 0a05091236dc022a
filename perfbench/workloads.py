"""Seeded synthetic workloads for the benchmark.

A workload is written as the files a user of the toolkit starts from: a
frame-level label stream (CSV), an instance mask stream (one JSON file per
video, no triplet ids), and two methods' predictions in the seg/det format
(masks) and in the rec format (100 scores per frame). ``align`` turns the
two streams into the ground-truth directory that every later subcommand
reads.

The generator knows, without calling the toolkit, what ``align`` must
produce: which frames are matched, which instances get a triplet, and how
many entries of each ambiguity kind the report holds. It returns those
expectations so the benchmark can check the program's outputs.

Per-frame counts (grounded instruments, false positives, frame kinds) are
drawn as a fixed multiset in shuffled order, so every seed gives the same
totals and only the geometry and scores change. That keeps the work per
run the same across seeds.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np


WIDTH, HEIGHT = 854, 480
AMBIGUOUS_SHARE = 0.06  # frames with one ambiguity, the four kinds in turn
MISSING_SHARE = 0.04  # frames in only one stream, half of them each way

AMBIGUITY_KINDS = (
    "MultiInstanceOneTriplet",
    "MultiTripletOneInstance",
    "TripletWithoutInstance",
    "InstanceWithoutTriplet",
)


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; only the seed varies between runs."""

    name: str
    n_videos: int
    frames_per_video: int
    grounded: tuple[int, ...]  # grounded instruments per frame, as a multiset
    false_positives: tuple[int, ...]  # extra predictions per frame, as a multiset
    shape: str  # "tool", "cross" or "rect"


# Why each workload exists is stated in BENCHMARK.json.
SPECS = {
    s.name: s
    for s in (
        Spec(name="seg-crowded", n_videos=4, frames_per_video=20,
             grounded=(1, 2, 3, 4), false_positives=(8,), shape="tool"),
        Spec(name="frames-sparse", n_videos=10, frames_per_video=75,
             grounded=(1, 2), false_positives=(0, 1), shape="rect"),
        Spec(name="seg-overlap", n_videos=4, frames_per_video=20,
             grounded=(2, 3), false_positives=(2,), shape="cross"),
    )
}


@dataclass(frozen=True)
class Shape:
    """A parametric mask: a band along a line, optionally ending in two
    jaws, or an axis-aligned rectangle (``slope == 0``, no jaws)."""

    x0: int
    n_cols: int
    y_mid: float
    slope: float
    half: int
    jaw_cols: int

    def moved(self, rng: np.random.Generator, shift: int, width: int,
              height: int) -> "Shape":
        """The same shape displaced by up to ``shift`` pixels and thickened
        or thinned by one pixel, kept inside the frame."""
        dx = int(rng.integers(-shift, shift + 1))
        dy = int(rng.integers(-shift, shift + 1))
        x0 = min(max(self.x0 + dx, 0), width - self.n_cols)
        y_mid = min(max(self.y_mid + dy, 2.0), height - 3.0)
        half = max(2, self.half + int(rng.integers(-1, 2)))
        return Shape(x0, self.n_cols, y_mid, self.slope, half, self.jaw_cols)

    def missed(self, height: int) -> "Shape":
        """The same shape moved towards the frame's middle row by 1.5
        thicknesses, so its IoU with the original is below one half."""
        step = 3 * self.half if self.y_mid < height / 2 else -3 * self.half
        return Shape(self.x0, self.n_cols, self.y_mid + step, self.slope, self.half,
                     self.jaw_cols)


def _tool(rng: np.random.Generator, width: int, height: int) -> Shape:
    n_cols = int(rng.integers(90, 131))
    x0 = int(rng.integers(0, width - n_cols + 1))
    slope = float(rng.uniform(-0.6, 0.6))
    y_mid = float(rng.uniform(30, height - 30))
    return Shape(x0, n_cols, y_mid, slope, int(rng.integers(6, 15)), n_cols // 7)


def _cross(rng: np.random.Generator, width: int, height: int) -> Shape:
    n_cols = int(rng.integers(290, 331))
    lead = float(rng.uniform(0.35, 0.65))
    x0 = int(width / 2 - lead * n_cols)
    slope = float(rng.uniform(-0.5, 0.5))
    y_mid = height / 2 + float(rng.uniform(-8, 8))
    return Shape(x0, n_cols, y_mid, slope, int(rng.integers(15, 31)), n_cols // 7)


def _rect(rng: np.random.Generator, width: int, height: int) -> Shape:
    n_cols = int(rng.integers(6, 17))
    half = int(rng.integers(4, 15))
    x0 = int(rng.integers(0, width - n_cols + 1))
    y_mid = float(rng.integers(half + 2, height - half - 2))
    return Shape(x0, n_cols, y_mid, 0.0, half, 0)


_SHAPES = {"tool": _tool, "cross": _cross, "rect": _rect}


def render(shape: Shape, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Foreground runs ``[start, end)`` in flat column-major index.

    Rows are clipped to ``[1, height - 1)``, so runs of neighbouring
    columns never touch and every run is a separate pair of counts.
    """
    cols = np.arange(shape.n_cols)
    centre = shape.y_mid + shape.slope * (cols - shape.n_cols / 2)
    jaw = cols >= shape.n_cols - shape.jaw_cols
    gap = np.where(jaw, 1 + (cols - (shape.n_cols - shape.jaw_cols)) // 2, 0)
    # per column: the shaft, or the upper jaw followed by the lower jaw
    lo = np.stack((centre - shape.half - gap, centre + gap), axis=1)
    hi = np.stack((np.where(jaw, centre - gap, centre + shape.half),
                   np.where(jaw, centre + shape.half + gap, centre)), axis=1)
    lo = np.clip(np.rint(lo), 1, height - 1).astype(np.int64)
    hi = np.clip(np.rint(hi), 1, height - 1).astype(np.int64)
    base = ((shape.x0 + cols) * height)[:, None]
    keep = hi > lo
    if not keep.any():  # a shape squeezed against an edge keeps one pixel
        start = shape.x0 * height + 1
        return np.array([start]), np.array([start + 1])
    return (base + lo)[keep], (base + hi)[keep]


def rle_counts(starts: np.ndarray, ends: np.ndarray, total: int) -> list[int]:
    """Canonical counts of disjoint, non-touching, sorted runs."""
    gaps = starts - np.concatenate(([0], ends[:-1]))
    counts = np.empty(2 * len(starts) + 1, dtype=np.int64)
    counts[0:-1:2] = gaps
    counts[1:-1:2] = ends - starts
    counts[-1] = total - ends[-1]
    return counts.tolist()


def box_of(starts: np.ndarray, ends: np.ndarray, height: int) -> tuple[int, int, int, int]:
    """``(x_min, y_min, x_max, y_max)`` inclusive, of runs within columns."""
    return (
        int((starts // height).min()),
        int((starts % height).min()),
        int(((ends - 1) // height).max()),
        int(((ends - 1) % height).max()),
    )


def boxes_overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _multiset(values: tuple[int, ...], n: int, rng: np.random.Generator) -> list[int]:
    return [int(v) for v in rng.permutation(np.resize(np.array(values), n))]


def _score(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _frame_kinds(n: int, rng: np.random.Generator) -> list[str]:
    n_missing = int(round(MISSING_SHARE * n / 2))
    n_ambiguous = int(round(AMBIGUOUS_SHARE * n))
    kinds = ["label_only"] * n_missing + ["mask_only"] * n_missing
    kinds += [AMBIGUITY_KINDS[k % 4] for k in range(n_ambiguous)]
    kinds += ["plain"] * (n - len(kinds))
    return [kinds[i] for i in rng.permutation(n)]


def generate(spec: Spec, seed: int, out: Path, triplets: dict[int, tuple]) -> dict:
    """Write one workload under ``out`` and return what ``align``,
    ``stats`` and ``eval`` must report for it, plus its input properties.

    ``triplets`` maps triplet id to ``(instrument, verb, target)``, as in
    ``TripletSchema.triplets``.
    """
    n_triplets = len(triplets)
    by_instrument: dict[int, list[int]] = {}
    for tid in sorted(triplets):
        by_instrument.setdefault(triplets[tid][0], []).append(tid)
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    make_shape = _SHAPES[spec.shape]
    width, height = WIDTH, HEIGHT
    total = width * height
    n = spec.n_videos * spec.frames_per_video
    kinds = _frame_kinds(n, rng)
    grounded = _multiset(spec.grounded, n, rng)
    fps = _multiset(spec.false_positives, n, rng)
    shift = 3 if spec.shape == "rect" else 4

    label_rows: list[tuple[str, int, int]] = []
    mask_videos: dict[str, list[dict]] = {}
    preds_a: list[dict] = []
    preds_b: list[dict] = []
    rec_a: list[dict] = []
    rec_b: list[dict] = []
    expect = Counter()
    runs = []
    pairs = overlapping = 0

    def mask_of(shape: Shape) -> tuple[dict, tuple[int, int, int, int]]:
        starts, ends = render(shape, height)
        runs.append(2 * len(starts) + 1)
        return (
            {"size": [height, width], "counts": rle_counts(starts, ends, total)},
            box_of(starts, ends, height),
        )

    def predict(video_id, frame_id, triplet, shape, score, gt_boxes, b_misses=False):
        nonlocal pairs, overlapping
        mask, box = mask_of(shape)
        pairs += len(gt_boxes)
        overlapping += sum(boxes_overlap(box, g) for g in gt_boxes)
        preds_a.append({"video_id": video_id, "frame_id": frame_id,
                        "triplet_id": triplet, "score": score, "mask": mask})
        # method B: the same detection, moved again and rescored; a miss
        # turns one of A's true positives into a false positive
        b_shape = shape.missed(height) if b_misses else shape.moved(rng, 2, width, height)
        b_mask, _ = mask_of(b_shape)
        b_score = round(min(max(score + float(rng.normal(0, 0.08)), 0.0), 1.0), 4)
        preds_b.append({"video_id": video_id, "frame_id": frame_id,
                        "triplet_id": triplet, "score": b_score, "mask": b_mask})

    for idx in range(n):
        video_id = f"video{idx // spec.frames_per_video:02d}"
        frame_id = idx % spec.frames_per_video
        kind = kinds[idx]
        classes = [int(c) for c in rng.permutation(6)]
        used = classes[: grounded[idx]]
        labels = [int(rng.choice(by_instrument[c])) for c in used]
        instances = [(c, make_shape(rng, width, height)) for c in used]
        spare = classes[grounded[idx]]
        if kind == "MultiInstanceOneTriplet":  # two instances, one label
            labels.append(int(rng.choice(by_instrument[spare])))
            instances += [(spare, make_shape(rng, width, height)) for _ in range(2)]
        elif kind == "MultiTripletOneInstance":  # one instance, two labels
            labels += [int(t) for t in rng.choice(by_instrument[spare], 2,
                                                   replace=False)]
            instances.append((spare, make_shape(rng, width, height)))
        elif kind == "TripletWithoutInstance":
            labels.append(int(rng.choice(by_instrument[spare])))
        elif kind == "InstanceWithoutTriplet":
            instances.append((spare, make_shape(rng, width, height)))

        if kind != "mask_only":
            label_rows += [(video_id, frame_id, t) for t in labels]
        gt_records = []
        if kind != "label_only":
            frame = {"frame_id": frame_id, "frame_triplets": [], "instances": []}
            for inst_id, (cls, shape) in enumerate(instances):
                mask, box = mask_of(shape)
                frame["instances"].append({"instance_id": inst_id,
                                           "instrument_id": cls, "flags": [],
                                           "mask": mask})
                if inst_id < len(used):
                    gt_records.append((labels[inst_id], shape, box))
            mask_videos.setdefault(video_id, []).append(frame)

        if kind in ("label_only", "mask_only"):
            expect["FrameMissingInOneSource"] += 1
            if kind == "mask_only":
                # a prediction on a frame that is not in the ground truth
                expect["unknown_pred_frames"] += 1
                predict(video_id, frame_id, int(rng.integers(n_triplets)),
                        make_shape(rng, width, height), _score(rng, 0.0, 0.8), [])
            continue

        expect["gt_frames"] += 1
        expect["instances"] += len(instances)
        expect["grounded"] += len(used)
        expect["labels_on_matched"] += len(labels)
        if kind != "plain":
            expect[kind] += {"MultiTripletOneInstance": 2}.get(kind, 1)

        gt_boxes = [box for _, _, box in gt_records]
        for triplet, shape, _ in gt_records:
            if rng.random() < 0.25:  # right instrument, wrong verb or target
                triplet = int(rng.choice(by_instrument[triplets[triplet][0]]))
            predict(video_id, frame_id, triplet, shape.moved(rng, shift, width, height),
                    _score(rng, 0.3, 1.0), gt_boxes, b_misses=rng.random() < 0.2)
        for _ in range(fps[idx]):
            predict(video_id, frame_id, int(rng.integers(n_triplets)),
                    make_shape(rng, width, height), _score(rng, 0.0, 0.8), gt_boxes)

        active = np.zeros(n_triplets, dtype=bool)
        active[labels] = True
        scores = np.where(active, rng.uniform(0.3, 1.0, n_triplets),
                          rng.uniform(0.0, 0.5, n_triplets))
        scores_b = np.clip(scores + rng.normal(0, 0.08, n_triplets), 0.0, 1.0)
        rec_a.append({"video_id": video_id, "frame_id": frame_id,
                      "scores": np.round(scores, 4).tolist()})
        rec_b.append({"video_id": video_id, "frame_id": frame_id,
                      "scores": np.round(scores_b, 4).tolist()})

    out.mkdir(parents=True, exist_ok=True)
    with (out / "labels.csv").open("w", encoding="utf-8") as handle:
        handle.write("video_id,frame_id,triplet_id\n")
        handle.writelines(f"{v},{f},{t}\n" for v, f, t in label_rows)
    (out / "masks").mkdir(exist_ok=True)
    for video_id, frames in mask_videos.items():
        doc = {"video_id": video_id, "width": width, "height": height, "frames": frames}
        (out / "masks" / f"{video_id}.json").write_text(json.dumps(doc), encoding="utf-8")
    for name, doc in (("preds_a_seg.json", preds_a), ("preds_b_seg.json", preds_b),
                      ("preds_a_rec.json", rec_a), ("preds_b_rec.json", rec_b)):
        (out / name).write_text(json.dumps(doc), encoding="utf-8")

    expected = {
        "gt_frames": expect["gt_frames"],
        "instances": expect["instances"],
        "grounded": expect["grounded"],
        "labels_on_matched": expect["labels_on_matched"],
        "ambiguity": {k: expect[k] for k in (*AMBIGUITY_KINDS, "FrameMissingInOneSource")},
        "unknown_pred_frames": expect["unknown_pred_frames"],
        "videos": len(mask_videos),
    }
    properties = {
        "frames": n,
        "label_rows": len(label_rows),
        "seg_predictions": len(preds_a),
        "rec_records": len(rec_a),
        "masks": len(runs),
        "runs_per_mask_mean": float(np.mean(runs)),
        "iou_pairs": pairs,
        "box_overlap_share": overlapping / pairs if pairs else 0.0,
    }
    return {"expected": expected, "properties": properties}
