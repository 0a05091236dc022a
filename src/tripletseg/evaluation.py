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
import math
from collections.abc import Collection
from itertools import compress, count, groupby, repeat
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from .dataset_io import DetectionRecord, FrameRecord, RecognitionRecord
from .errors import EvaluationError, SchemaError
from .masks import BBox, RleMask, box_iou, mask_boxes, pair_ious
from .schema import COMPONENTS, ComponentKey, TripletSchema

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

# JSON report spelling of each component
COMPONENT_LABELS = {"i": "I", "v": "V", "t": "T", "iv": "IV", "it": "IT", "ivt": "IVT"}

FrameKey = tuple[str, int]


class _ConfigFields(NamedTuple):
    mode: str
    iou_threshold: float = 0.5
    components: tuple[str, ...] = COMPONENTS
    averaging: str = "pooled"
    ap_method: str | None = None
    jobs: int = 1


class EvalConfig(_ConfigFields):
    """Evaluation settings; ``ap_method=None`` picks the mode's default
    (monotone precision envelope for seg/det, raw step sum for rec).
    ``jobs`` is accepted for compatibility and must be at least 1; the
    work runs in one process. Construction and ``_replace`` both check it."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> EvalConfig:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, fields: Any) -> EvalConfig:  # `_replace` builds through `_make`
        return cls(*fields)

    @property
    def resolved_ap_method(self) -> str:
        if self.ap_method is not None:
            return self.ap_method
        return "step" if self.mode == "rec" else "envelope"


class ComponentResult(NamedTuple):
    """Scores of one component: mAP is the mean of per-class APs, ×100."""

    mAP: float
    per_class: dict[ComponentKey, float]
    gt_count: int = 0
    pred_count: int = 0


class EvalReport(NamedTuple):
    mode: str
    iou_threshold: float
    averaging: str
    ap_method: str
    frame_count: int
    components: dict[str, ComponentResult]

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
    rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    return _greedy([
        [(g, iou) for g, iou in enumerate(map(float, row)) if iou >= iou_threshold and iou > 0]
        for row in rows
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
    pairs = scored_flags.tolist() if hasattr(scored_flags, "tolist") else scored_flags
    return _average_precision([s for s, _ in pairs], [tp for _, tp in pairs], gt_count, method)


def _average_precision(
    score: Sequence[float], tp: Sequence[bool], gt_count: int, method: str
) -> float:
    """``average_precision`` of a score column and its true-positive flags."""
    if method not in ("envelope", "step"):
        raise EvaluationError(f"unknown AP method {method!r}")
    if gt_count < 1:
        raise EvaluationError("average precision needs at least one GT item")
    # a stable sort: tied scores keep input order
    order = sorted(range(len(score)), key=score.__getitem__, reverse=True)
    # precision at each true positive's rank; recall rises by 1/gt_count there
    ranks = compress(count(1), map(tp.__getitem__, order))
    precision = [hit / rank for hit, rank in enumerate(ranks, 1)]
    if method == "envelope":  # the envelope's maxima lie on true positives
        for i in range(len(precision) - 2, -1, -1):
            precision[i] = max(precision[i], precision[i + 1])
    return math.fsum(precision) / gt_count


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


class ClassRows(NamedTuple):
    """One component of a match table, per dense class index ``k``: the
    scored rows of class ``k`` (``frame[k]``, ``score[k]``, ``tp[k]``)
    follow the table's frame order, and input order within a frame;
    ``gt_frame[k]`` holds the frame of each of its GT items."""

    frame: list[Sequence[int]]
    score: list[Sequence[float]]
    tp: list[list[bool]]
    gt_frame: list[list[int]]


class MatchTable(NamedTuple):
    """Stage-1 output. ``frames`` lists the frame keys in row order: sorted,
    with prediction-only frames, in seg/det mode; ground-truth order in rec
    mode, where every class has one row per frame. ``frame_preds`` counts
    each frame's prediction records and ``n_preds`` all records matched,
    including those on unknown frames."""

    config: EvalConfig
    class_keys: dict[str, tuple[ComponentKey, ...]]
    frames: list[FrameKey]
    in_gt: list[bool]
    frame_preds: list[int]
    n_preds: int
    rows: dict[str, ClassRows]


def _class_indices(
    schema: TripletSchema, triplet_ids: Sequence[int], component: str
) -> list[int]:
    """Dense class index of each triplet id; ids outside the schema raise."""
    index = {t: k for t, k in enumerate(schema.class_index[component]) if k >= 0}
    out = list(map(index.get, triplet_ids, repeat(-1)))
    if -1 in out:
        raise SchemaError(f"unknown triplet_id {triplet_ids[out.index(-1)]}")
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

    def classes(tids: list[int]) -> list[list[int]]:  # one column per component
        return [_class_indices(schema, tids, c) for c in config.components]

    gt_cols = classes([tid for g in gts for tid, _ in g])
    pred_cols = classes([tid for d in dets for tid, _, _ in d])
    scores = [s for d in dets for _, s, _ in d]

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

    tp = [[False] * len(scores) for _ in config.components]
    at = g0 = p0 = 0
    for g, d, order in zip(gts, dets, orders):
        n, frame_ious = len(g), ious[at:at + len(order) * len(g)]
        cands = [[(j, iou) for j, iou in enumerate(frame_ious[i * n:i * n + n])
                  if iou >= config.iou_threshold] for i in range(len(order))]
        for g_col, p_col, c_tp in zip(gt_cols, pred_cols, tp) if any(cands) else ():
            flags = _greedy([[(j, iou) for j, iou in row if p_col[p0 + p] == g_col[g0 + j]]
                             for p, row in zip(order, cands)])
            for p in compress(order, flags):
                c_tp[p0 + p] = True
        at, g0, p0 = at + len(frame_ious), g0 + n, p0 + len(d)

    frame = [f for f, d in enumerate(dets) for _ in d]
    gt_frame = [f for f, g in enumerate(gts) for _ in g]
    rows = {}
    for comp, p_col, g_col, c_tp in zip(config.components, pred_cols, gt_cols, tp):
        n_cls = len(schema.class_keys[comp])
        rows[comp] = by_class = ClassRows(*([[] for _ in range(n_cls)] for _ in range(4)))
        for k, f, s, hit in zip(p_col, frame, scores, c_tp):
            by_class.frame[k].append(f)
            by_class.score[k].append(s)
            by_class.tp[k].append(hit)
        for k, f in zip(g_col, gt_frame):
            by_class.gt_frame[k].append(f)
    return MatchTable(config, schema.class_keys, keys, [k in gt_by_frame for k in keys],
                      list(map(len, dets)), len(preds), rows)


# the finer component each coarse one takes its recognition class maxima from
_FINER = {"iv": "ivt", "it": "ivt", "i": "iv", "v": "iv", "t": "it"}


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
    score_rows = [(0.0,) * schema.n_triplets] * n_frames
    frame_preds = [0] * n_frames
    seen: set[FrameKey] = set()
    unknown: set[FrameKey] = set()
    for rec in preds:
        key = (rec.video_id, rec.frame_id)
        if key in seen:
            raise EvaluationError(f"duplicate recognition record for frame {key}")
        seen.add(key)
        if len(rec.scores) != schema.n_triplets:
            raise EvaluationError(
                f"recognition record for frame {key} has {len(rec.scores)} scores; "
                f"expected exactly {schema.n_triplets}"
            )
        idx = key_index.get(key)
        if idx is None:
            unknown.add(key)
            continue
        score_rows[idx] = rec.scores
        frame_preds[idx] = 1
    if unknown:
        log.warning(
            "%d recognition record(s) for frames absent from ground truth "
            "(e.g. %s); ignored", len(unknown), sorted(unknown)[:5],
        )

    # one score column per triplet id, over the frames; ivt's classes are the
    # table's triplets, and a coarser class's column is the maximum over the
    # columns of the finer classes it holds, so each is computed only once
    columns = list(zip(*score_rows)) or [()] * schema.n_triplets
    tids = sorted(schema.triplets)
    needed = {*config.components, *(_FINER[c] for c in config.components if c in ("i", "v", "t"))}
    class_columns: dict[str, list[Sequence[float]]] = {"ivt": [columns[t] for t in tids]}
    for comp in ("iv", "it", "i", "v", "t"):
        if comp not in needed:
            continue
        finer = _FINER[comp]
        coarse_of = dict(zip(_class_indices(schema, tids, finer),
                             _class_indices(schema, tids, comp)))
        members: list[list[Sequence[float]]] = [[] for _ in schema.class_keys[comp]]
        for k, col in enumerate(class_columns[finer]):
            members[coarse_of[k]].append(col)
        class_columns[comp] = [cols[0] if len(cols) == 1 else list(map(max, *cols))
                               for cols in members]
    label_tids = [t for r in gt_frames for t in r.frame_triplets]
    label_frame = [f for f, r in enumerate(gt_frames) for _ in r.frame_triplets]
    frames = range(n_frames)
    rows = {}
    for comp in config.components:
        labels = [[False] * n_frames for _ in schema.class_keys[comp]]
        for k, f in zip(_class_indices(schema, label_tids, comp), label_frame):
            labels[k][f] = True
        rows[comp] = ClassRows(
            [frames] * len(labels), class_columns[comp],
            labels, [list(compress(frames, flags)) for flags in labels],
        )
    return MatchTable(config, schema.class_keys, keys, [True] * n_frames, frame_preds,
                      len(preds), rows)


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
    rows: ClassRows, keys: tuple[ComponentKey, ...], ranking: list[int] | None,
    splits: dict[int, dict[int, list[int]]], method: str, pred_count: int,
) -> ComponentResult:
    """Every class AP of one component. ``ranking`` gives each frame's
    ranking, -1 if left out, or is None to rank all rows together; ``splits``
    caches each frame column's row indices per ranking. A ranking keeps row
    order, so it ties exactly as in the frame sequence. Sums are exactly
    rounded, so no result depends on the order of classes or rankings."""
    aps: dict[int, float] = {}
    gt_count = 0
    for k, (frame, score, tp, gt_frame) in enumerate(
            zip(rows.frame, rows.score, rows.tp, rows.gt_frame)):
        if ranking is None:
            gt_count += len(gt_frame)
            if gt_frame:
                aps[k] = _average_precision(score, tp, len(gt_frame), method) * 100.0
            continue
        held = [r for r in map(ranking.__getitem__, gt_frame) if r >= 0]
        gt_count += len(held)
        if not held:
            continue
        split = splits.get(id(frame))
        if split is None:  # row indices per ranking, gathered run by run
            split = splits[id(frame)] = {}
            of_row = list(map(ranking.__getitem__, frame)).__getitem__
            for r, run in groupby(range(len(frame)), of_row):
                split.setdefault(r, []).extend(run)
        ranked_aps = []
        for r in dict.fromkeys(held):  # the rankings holding GT of the class
            at = split.get(r, ())
            ranked_aps.append(_average_precision(
                list(map(score.__getitem__, at)), list(map(tp.__getitem__, at)),
                held.count(r), method))
        aps[k] = math.fsum(ranked_aps) / len(ranked_aps) * 100.0

    return ComponentResult(
        mAP=math.fsum(aps.values()) / len(aps) if aps else 0.0,
        per_class={keys[k]: ap for k, ap in aps.items()},
        gt_count=gt_count,
        pred_count=pred_count,
    )


def score(table: MatchTable, frames: Collection[FrameKey] | None = None) -> EvalReport:
    """Stage 2: the report of a match table over all of its frames, or over
    ``frames`` only, which must be ground-truth frames of the table.
    Pooled averaging ranks each class over all selected rows; per-video
    averaging ranks each video's rows apart, its prediction-only frames
    included in a full evaluation. A subset restricts every ranking to its
    frames. A class AP is the mean over the rankings holding its GT."""
    config = table.config
    pred_count, frame_count = table.n_preds, sum(table.in_gt)
    # each frame's ranking: its video's ordinal per video, 0 pooled, -1 when
    # a subset leaves it out; None while all rows form one ranking
    ordinal: dict[str, int] = {}
    ranking = ([ordinal.setdefault(vid, len(ordinal)) for vid, _ in table.frames]
               if config.averaging == "per_video" else None)
    if frames is not None:
        wanted = set(frames)
        position = {k: i for i, k in enumerate(table.frames) if table.in_gt[i]}
        missing = wanted - position.keys()
        if missing:
            raise EvaluationError(f"subset frames not in ground truth: {sorted(missing)[:5]}")
        full, ranking = ranking, [-1] * len(table.frames)
        for f in map(position.__getitem__, wanted):
            ranking[f] = 0 if full is None else full[f]
        pred_count = sum(table.frame_preds[position[k]] for k in wanted)
        frame_count = len(wanted)

    method = config.resolved_ap_method
    splits: dict[int, dict[int, list[int]]] = {}  # rec classes share one frame column
    return EvalReport(
        mode=config.mode,
        iou_threshold=config.iou_threshold,
        averaging=config.averaging,
        ap_method=method,
        frame_count=frame_count,
        components={
            comp: _score_component(
                table.rows[comp], table.class_keys[comp], ranking, splits, method, pred_count)
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
