"""Evaluation protocol: matching, average precision, component decomposition.

Three modes share one report shape and one two-stage pipeline. Stage 1,
``match``, reduces the input to a ``MatchTable`` on dense class indices.
Segmentation and detection modes match scored predictions to
ground-truth instances per frame (mask IoU or box IoU at a threshold),
one row per prediction. Recognition mode ranks frame-level class scores
against frame-level labels, one row per frame and class. Stage 2,
``score``, computes every class AP from the table, pooled or per video,
over all frames or any subset of them. Components project the triplet
vocabulary onto instrument, verb, target, the two pairs, and the full
triplet space.
"""

from __future__ import annotations

import logging
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .dataset_io import DetectionRecord, FrameRecord, RecognitionRecord
from .errors import EvaluationError, SchemaError
from .masks import BBox, RleMask, box_iou, mask_boxes, pair_ious
from .schema import COMPONENTS, ComponentKey, TripletSchema

log = logging.getLogger(__name__)

# JSON report spelling of each component
COMPONENT_LABELS = {"i": "I", "v": "V", "t": "T", "iv": "IV", "it": "IT", "ivt": "IVT"}

FrameKey = tuple[str, int]


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings; ``ap_method=None`` picks the mode's default
    (monotone precision envelope for seg/det, raw step sum for rec).
    ``jobs`` is accepted for compatibility and must be at least 1; the
    work runs in one process."""

    mode: str
    iou_threshold: float = 0.5
    components: tuple[str, ...] = COMPONENTS
    averaging: str = "pooled"
    ap_method: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("seg", "det", "rec"):
            raise EvaluationError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.iou_threshold <= 1.0:
            raise EvaluationError(
                f"iou_threshold {self.iou_threshold} outside (0, 1]"
            )
        if not self.components:
            raise EvaluationError("components must be non-empty")
        for comp in self.components:
            if comp not in COMPONENTS:
                raise EvaluationError(
                    f"unknown component {comp!r}; choose from {', '.join(COMPONENTS)}"
                )
        if self.averaging not in ("pooled", "per_video"):
            raise EvaluationError(f"unknown averaging {self.averaging!r}")
        if self.ap_method not in (None, "envelope", "step"):
            raise EvaluationError(f"unknown ap_method {self.ap_method!r}")
        if self.jobs < 1:
            raise EvaluationError("jobs must be at least 1")

    @property
    def resolved_ap_method(self) -> str:
        if self.ap_method is not None:
            return self.ap_method
        return "step" if self.mode == "rec" else "envelope"


@dataclass(frozen=True)
class ComponentResult:
    """Scores of one component: mAP is the mean of per-class APs, ×100."""

    mAP: float
    per_class: dict[ComponentKey, float] = field(repr=False)
    gt_count: int = 0
    pred_count: int = 0


@dataclass(frozen=True)
class EvalReport:
    mode: str
    iou_threshold: float
    averaging: str
    ap_method: str
    frame_count: int
    components: dict[str, ComponentResult] = field(repr=False)

    def to_json_dict(self) -> dict[str, Any]:
        def class_key(key: ComponentKey) -> str:
            return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)

        return {
            "mode": self.mode,
            "iou_threshold": self.iou_threshold,
            "averaging": self.averaging,
            "ap_method": self.ap_method,
            "frame_count": self.frame_count,
            "components": {
                COMPONENT_LABELS[comp]: {
                    "mAP": res.mAP,
                    "per_class": {class_key(k): v for k, v in res.per_class.items()},
                    "gt_count": res.gt_count,
                    "pred_count": res.pred_count,
                }
                for comp, res in self.components.items()
            },
        }

    def render_table(self) -> str:
        header = [f"mAP_{COMPONENT_LABELS[c]}" for c in COMPONENTS]
        cells = []
        for comp in COMPONENTS:
            res = self.components.get(comp)
            cells.append("-" if res is None else f"{res.mAP:.2f}")
        widths = [max(len(h), len(c)) for h, c in zip(header, cells)]
        line1 = "  ".join(h.rjust(w) for h, w in zip(header, widths))
        line2 = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        meta = (
            f"mode={self.mode} iou={self.iou_threshold:g} "
            f"averaging={self.averaging} ap={self.ap_method} "
            f"frames={self.frame_count}"
        )
        return f"{meta}\n{line1}\n{line2}"


def match_from_matrix(matrix: np.ndarray, iou_threshold: float) -> list[bool]:
    """Greedy one-to-one matching on a predictions × GT IoU matrix.

    Rows must already be in descending score order (ties resolved by
    input order). Each prediction takes the unmatched ground truth with
    the highest IoU at or above the threshold; IoU ties go to the lowest
    GT index.
    """
    return _greedy([
        [(g, iou) for g, iou in enumerate(row) if iou >= iou_threshold and iou > 0]
        for row in np.asarray(matrix, dtype=np.float64).tolist()
    ])


def _greedy(rows: list[list[tuple[int, float]]]) -> list[bool]:
    """``match_from_matrix`` on each row's (GT, IoU) entries at or above the threshold."""
    taken: set[int] = set()
    flags = []
    for row in rows:
        free = [(iou, -g) for g, iou in row if g not in taken]
        if free:  # highest IoU, ties to the lowest GT index
            taken.add(-max(free)[1])
        flags.append(bool(free))
    return flags


def average_precision(
    scored_flags: Sequence[tuple[float, bool]] | np.ndarray, gt_count: int, method: str
) -> float:
    """AP in [0, 1] from (score, is_true_positive) pairs, given as a
    sequence of pairs or as an (n, 2) array.

    ``envelope`` integrates the monotone precision envelope (detection
    convention); ``step`` sums raw precision at each recall increment
    (classification convention). Classes without ground truth cannot be
    scored and must be excluded before calling.
    """
    if method not in ("envelope", "step"):
        raise EvaluationError(f"unknown AP method {method!r}")
    if gt_count < 1:
        raise EvaluationError("average precision needs at least one GT item")
    pairs = np.asarray(scored_flags, dtype=np.float64).reshape(-1, 2)
    if not len(pairs):
        return 0.0
    order = np.argsort(-pairs[:, 0], kind="stable")
    tp = pairs[order, 1] != 0.0
    tp_cum = np.cumsum(tp, dtype=np.float64)
    precision = tp_cum / np.arange(1, len(tp) + 1, dtype=np.float64)
    if method == "envelope":
        precision = np.maximum.accumulate(precision[::-1])[::-1]
    # recall rises by exactly 1/gt_count at each true positive
    return float(precision[tp].sum() / gt_count)


def _pred_geometry(
    index: int, det: DetectionRecord, mode: str, frame_size: tuple[int, int] | None
) -> RleMask | BBox:
    """The geometry a prediction is scored with, checked before any IoU is
    computed: a mask or det box must fit its ground-truth frame (if the
    frame is known), and a det prediction without a box needs a non-empty
    mask."""
    where = f"prediction {index} ({det.video_id}, {det.frame_id}) triplet {det.triplet_id}"
    if mode == "det" and det.bbox is not None:
        box = det.bbox
        if frame_size is not None and (
            box.y + box.h > frame_size[0] or box.x + box.w > frame_size[1]
        ):
            raise EvaluationError(
                f"{where}: bbox [{box.x}, {box.y}, {box.w}, {box.h}] does not fit "
                f"frame size {frame_size[0]}x{frame_size[1]}"
            )
        return box
    if det.mask is None:
        need = "masks" if mode == "seg" else "a mask or a bbox"
        raise EvaluationError(f"{mode} mode requires {need} on all predictions; {where} has none")
    size = (det.mask.height, det.mask.width)
    if frame_size is not None and size != frame_size:
        raise EvaluationError(
            f"{where}: mask size {size[0]}x{size[1]} does not match "
            f"frame size {frame_size[0]}x{frame_size[1]}"
        )
    if mode == "det" and det.mask.area == 0:
        raise EvaluationError(f"{where}: empty mask and no bbox")
    return det.mask


@dataclass(frozen=True)
class ClassRows:
    """One component of a match table, on dense class indices. Scored rows
    (``frame``, ``cls``, ``score``, ``tp``) follow the table's frame order,
    and input order within a frame; ground truth is one (``gt_frame``,
    ``gt_cls``) entry per GT item."""

    frame: np.ndarray
    cls: np.ndarray
    score: np.ndarray
    tp: np.ndarray
    gt_frame: np.ndarray
    gt_cls: np.ndarray


@dataclass(frozen=True)
class MatchTable:
    """Stage-1 output. ``frames`` lists the frame keys in row order: sorted,
    with prediction-only frames, in seg/det mode; ground-truth order in rec
    mode. ``frame_preds`` counts each frame's prediction records and
    ``n_preds`` all records matched, including those on unknown frames."""

    config: EvalConfig
    class_keys: dict[str, tuple[ComponentKey, ...]]
    frames: list[FrameKey]
    in_gt: np.ndarray
    frame_preds: np.ndarray
    n_preds: int
    rows: dict[str, ClassRows]


def _class_indices(
    schema: TripletSchema, triplet_ids: Sequence[int], component: str
) -> np.ndarray:
    """Dense class index of each triplet id; ids outside the schema raise."""
    table = np.array(schema.class_index[component], dtype=np.int64)
    ids = np.asarray(triplet_ids, dtype=np.int64)
    known = (ids >= 0) & (ids < len(table))
    out = np.full(ids.shape, -1, dtype=np.int64)
    out[known] = table[ids[known]]
    if (out < 0).any():
        raise SchemaError(f"unknown triplet_id {ids[out < 0][0]}")
    return out


def _match_grounded(
    gt_frames: Sequence[FrameRecord], preds: Sequence[DetectionRecord],
    config: EvalConfig, schema: TripletSchema,
) -> MatchTable:
    """Ground truth consists of the grounded instances (those carrying a
    triplet assignment). Predictions on frames absent from the ground
    truth are warned about and scored as false positives in their stated
    frame. IoU is computed once per (prediction, GT) pair of a frame, all
    frames in one batch; each component's greedy pass skips cross-class pairs."""
    gt_by_frame: dict[FrameKey, list[tuple[int, RleMask]]] = {}
    frame_size: dict[FrameKey, tuple[int, int]] = {}
    for rec in gt_frames:
        frame_size[(rec.video_id, rec.frame_id)] = (rec.height, rec.width)
        gt_by_frame[(rec.video_id, rec.frame_id)] = [
            (g.triplet_id, g.mask) for g in rec.instances if g.triplet_id is not None
        ]
    preds_by_frame: dict[FrameKey, list[tuple[int, float, RleMask | BBox]]] = {}
    for index, det in enumerate(preds):
        key = (det.video_id, det.frame_id)
        preds_by_frame.setdefault(key, []).append((
            det.triplet_id, det.score,
            _pred_geometry(index, det, config.mode, frame_size.get(key)),
        ))
    unknown = preds_by_frame.keys() - gt_by_frame.keys()
    if unknown:
        log.warning(
            "%d predicted frame(s) absent from ground truth (e.g. %s); "
            "their predictions score as false positives",
            len(unknown), sorted(unknown)[:5],
        )

    keys = sorted(gt_by_frame.keys() | preds_by_frame.keys())
    gts = [gt_by_frame.get(k, []) for k in keys]
    dets = [preds_by_frame.get(k, []) for k in keys]
    n_gt = np.array([len(g) for g in gts], dtype=np.int64)
    n_pred = np.array([len(d) for d in dets], dtype=np.int64)

    def classes(tids: list[int]) -> np.ndarray:  # (items, components)
        return np.stack([_class_indices(schema, tids, c) for c in config.components], axis=1)

    gt_cls = classes([tid for g in gts for tid, _ in g])
    pred_cls = classes([tid for d in dets for tid, _, _ in d])
    scores = np.array([s for d in dets for _, s, _ in d], dtype=np.float64)

    # rows in descending score order, ties keeping input order
    orders = [sorted(range(len(d)), key=lambda p: -d[p][1]) if g else []
              for g, d in zip(gts, dets)]
    pair_pred = [d[p][2] for g, d, order in zip(gts, dets, orders) for p in order for _ in g]
    pair_gt = [m for g, order in zip(gts, orders) for _ in order for _, m in g]
    if config.mode == "seg":
        ious = pair_ious(pair_pred, pair_gt)
    else:
        masks = [m for g in gts for _, m in g]
        masks += [x for d in dets for _, _, x in d if isinstance(x, RleMask)]
        box = dict(zip(map(id, masks), mask_boxes(masks)))
        ious = [box_iou(box.get(id(p), p), box[id(g)]) for p, g in zip(pair_pred, pair_gt)]

    gt_cols, pred_cols = gt_cls.T.tolist(), pred_cls.T.tolist()
    hits: list[int] = []  # flat (prediction, component) index of each TP
    at = g0 = p0 = 0
    for g, d, order in zip(gts, dets, orders):
        n, frame_ious = len(g), ious[at:at + len(order) * len(g)]
        cands = [[(j, iou) for j, iou in enumerate(frame_ious[i * n:i * n + n])
                  if iou >= config.iou_threshold] for i in range(len(order))]
        for c, (g_col, p_col) in enumerate(zip(gt_cols, pred_cols) if any(cands) else ()):
            flags = _greedy([[(j, iou) for j, iou in row if p_col[p0 + p] == g_col[g0 + j]]
                             for p, row in zip(order, cands)])
            hits += [(p0 + p) * len(gt_cols) + c for p, hit in zip(order, flags) if hit]
        at, g0, p0 = at + len(frame_ious), g0 + n, p0 + len(d)
    tp = np.zeros(pred_cls.shape, dtype=bool)
    tp.flat[hits] = True

    frame = np.repeat(np.arange(len(keys)), n_pred)
    gt_frame = np.repeat(np.arange(len(keys)), n_gt)
    rows = {
        comp: ClassRows(frame, pred_cls[:, c], scores, tp[:, c], gt_frame, gt_cls[:, c])
        for c, comp in enumerate(config.components)
    }
    in_gt = np.array([k in gt_by_frame for k in keys], dtype=bool)
    return MatchTable(config, schema.class_keys, keys, in_gt, n_pred, len(preds), rows)


def _match_recognition(
    gt_frames: Sequence[FrameRecord], preds: Sequence[RecognitionRecord],
    config: EvalConfig, schema: TripletSchema,
) -> MatchTable:
    """A frame's class score is the maximum over the scores of triplets
    projecting to the class; its label is positive iff any frame-level
    triplet projects to the class. Frames without a prediction record
    score zero everywhere; records for unknown frames are warned about
    and ignored."""
    keys = [(r.video_id, r.frame_id) for r in gt_frames]
    key_index = {k: i for i, k in enumerate(keys)}

    n_frames = len(keys)
    scores = np.zeros((n_frames, schema.n_triplets), dtype=np.float64)
    frame_preds = np.zeros(n_frames, dtype=np.int64)
    seen: set[FrameKey] = set()
    unknown: set[FrameKey] = set()
    for rec in preds:
        key = (rec.video_id, rec.frame_id)
        if key in seen:
            raise EvaluationError(f"duplicate recognition record for frame {key}")
        seen.add(key)
        idx = key_index.get(key)
        if idx is None:
            unknown.add(key)
            continue
        scores[idx] = rec.scores
        frame_preds[idx] = 1
    if unknown:
        log.warning(
            "%d recognition record(s) for frames absent from ground truth "
            "(e.g. %s); ignored", len(unknown), sorted(unknown)[:5],
        )

    tids = np.array(sorted(schema.triplets), dtype=np.int64)
    label_tids = [t for r in gt_frames for t in r.frame_triplets]
    label_frame = np.repeat(np.arange(n_frames), [len(r.frame_triplets) for r in gt_frames])
    rows = {}
    for comp in config.components:
        n_cls = len(schema.class_keys[comp])
        cls = _class_indices(schema, tids, comp)
        by_class = np.argsort(cls, kind="stable")
        class_scores = np.maximum.reduceat(
            scores[:, tids[by_class]], np.searchsorted(cls[by_class], np.arange(n_cls)), axis=1
        )
        labels = np.zeros((n_frames, n_cls), dtype=bool)
        labels[label_frame, _class_indices(schema, label_tids, comp)] = True
        rows[comp] = ClassRows(
            np.repeat(np.arange(n_frames), n_cls), np.tile(np.arange(n_cls), n_frames),
            class_scores.ravel(), labels.ravel(), *np.nonzero(labels),
        )
    in_gt = np.ones(n_frames, dtype=bool)
    return MatchTable(config, schema.class_keys, keys, in_gt, frame_preds, len(preds), rows)


def match(
    gt_frames: Sequence[FrameRecord],
    preds: Sequence[DetectionRecord] | Sequence[RecognitionRecord],
    config: EvalConfig,
    schema: TripletSchema,
    frames: Collection[FrameKey] | None = None,
) -> MatchTable:
    """Stage 1: match predictions to ground truth in the config's mode.
    With ``frames`` given, only those frames are matched."""
    if frames is not None:
        wanted = set(frames)
        gt_frames = [r for r in gt_frames if (r.video_id, r.frame_id) in wanted]
        preds = [p for p in preds if (p.video_id, p.frame_id) in wanted]
    if len({(r.video_id, r.frame_id) for r in gt_frames}) != len(gt_frames):
        raise EvaluationError("duplicate (video_id, frame_id) in ground truth")
    if config.mode == "rec":
        return _match_recognition(gt_frames, preds, config, schema)
    return _match_grounded(gt_frames, preds, config, schema)


def _score_component(
    rows: ClassRows, keys: tuple[ComponentKey, ...], selected: np.ndarray,
    group: np.ndarray, n_groups: int, method: str, pred_count: int,
) -> ComponentResult:
    """Every class AP of one component over the selected frames, ranking
    each (class, group) bucket once; groups are videos or one pool."""
    keep = selected[rows.frame]
    frame, cls = rows.frame[keep], rows.cls[keep]
    pairs = np.column_stack((rows.score[keep], rows.tp[keep]))
    gt_keep = selected[rows.gt_frame]
    gt_frame, gt_cls = rows.gt_frame[gt_keep], rows.gt_cls[gt_keep]

    # rows bucketed by (class, group); the stable sort keeps row order
    # within a bucket, so each ranking ties exactly as in the frame sequence
    n_buckets = len(keys) * n_groups
    bucket = cls * n_groups + group[frame]
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(n_buckets + 1))
    gt = np.bincount(
        gt_cls * n_groups + group[gt_frame], minlength=n_buckets
    ).reshape(len(keys), n_groups)

    aps: dict[int, float] = {}
    for k in np.flatnonzero(gt.sum(axis=1)):
        group_aps = []
        for g in np.flatnonzero(gt[k]):
            b = k * n_groups + g
            ranked = pairs[order[bounds[b]:bounds[b + 1]]]
            group_aps.append(average_precision(ranked, int(gt[k, g]), method))
        aps[int(k)] = float(np.mean(group_aps)) * 100.0

    # mAP averages classes in order of their first frame, then class index;
    # the summation order fixes the last bit of the report's mAP
    first = np.full(len(keys), len(selected))
    np.minimum.at(first, cls, frame)
    np.minimum.at(first, gt_cls, gt_frame)
    in_order = sorted(aps, key=lambda k: (first[k], k))
    return ComponentResult(
        mAP=float(np.mean([aps[k] for k in in_order])) if aps else 0.0,
        per_class={keys[k]: ap for k, ap in aps.items()},
        gt_count=len(gt_frame),
        pred_count=pred_count,
    )


def score(table: MatchTable, frames: Collection[FrameKey] | None = None) -> EvalReport:
    """Stage 2: the report of a match table over all of its frames, or over
    ``frames`` only, which must be ground-truth frames of the table.
    Pooled averaging ranks each class over all selected frames; per-video
    averaging takes the mean AP over the videos holding the class."""
    config = table.config
    if frames is None:
        selected = np.ones(len(table.frames), dtype=bool)
        pred_count = table.n_preds
    else:
        wanted = set(frames)
        position = {k: i for i, k in enumerate(table.frames) if table.in_gt[i]}
        missing = wanted - position.keys()
        if missing:
            raise EvaluationError(
                f"subset frames not in ground truth: {sorted(missing)[:5]}"
            )
        selected = np.zeros(len(table.frames), dtype=bool)
        selected[[position[k] for k in wanted]] = True
        pred_count = int(table.frame_preds[selected].sum())

    if config.averaging == "per_video":
        videos, group = np.unique([vid for vid, _ in table.frames], return_inverse=True)
        n_groups = len(videos)
    else:
        group, n_groups = np.zeros(len(table.frames), dtype=np.int64), 1
    method = config.resolved_ap_method
    return EvalReport(
        mode=config.mode,
        iou_threshold=config.iou_threshold,
        averaging=config.averaging,
        ap_method=method,
        frame_count=int((selected & table.in_gt).sum()),
        components={
            comp: _score_component(
                table.rows[comp], table.class_keys[comp], selected, group,
                n_groups, method, pred_count,
            )
            for comp in config.components
        },
    )


def evaluate_grounded(
    gt_frames: Sequence[FrameRecord],
    preds: Sequence[DetectionRecord],
    config: EvalConfig,
    schema: TripletSchema,
) -> EvalReport:
    """Instance-grounded evaluation (seg or det mode)."""
    if config.mode not in ("seg", "det"):
        raise EvaluationError(f"evaluate_grounded cannot run mode {config.mode!r}")
    return score(match(gt_frames, preds, config, schema))


def evaluate_recognition(
    gt_frames: Sequence[FrameRecord],
    preds: Sequence[RecognitionRecord],
    config: EvalConfig,
    schema: TripletSchema,
) -> EvalReport:
    """Frame-level recognition evaluation."""
    if config.mode != "rec":
        raise EvaluationError(f"evaluate_recognition cannot run mode {config.mode!r}")
    return score(match(gt_frames, preds, config, schema))


def evaluate(
    gt_frames: Sequence[FrameRecord],
    preds: Sequence[DetectionRecord] | Sequence[RecognitionRecord],
    config: EvalConfig,
    schema: TripletSchema,
) -> EvalReport:
    """Match, then score, in the config's mode."""
    return score(match(gt_frames, preds, config, schema))
