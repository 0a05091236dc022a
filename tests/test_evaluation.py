from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    naive_average_precision,
    oracle_grounded_eval,
    oracle_recognition_eval,
)
from synth import micro_instance, perfect_predictions, rect_rle
from tripletseg.dataset_io import (
    DetectionRecord,
    FrameRecord,
    GroundedInstance,
    RecognitionRecord,
)
from tripletseg.errors import EvaluationError, SchemaError
from tripletseg.evaluation import (
    EvalConfig,
    average_precision,
    evaluate,
    evaluate_grounded,
    evaluate_recognition,
    match,
    match_from_matrix,
    score,
)
from tripletseg.masks import BBox, RleMask, box_iou, mask_iou, mask_to_bbox
from tripletseg.schema import COMPONENTS, TripletSchema

H, W = 16, 16


def _mask(y, x, h=4, w=4):
    return rect_rle(H, W, y, x, h, w)


def _frame(video_id, frame_id, triplet_masks, schema, extra_triplets=()):
    instances = tuple(
        GroundedInstance(
            instance_id=i,
            instrument_id=schema.project(tid, "i"),
            triplet_id=tid,
            mask=mask,
        )
        for i, (tid, mask) in enumerate(triplet_masks)
    )
    return FrameRecord(
        video_id=video_id,
        frame_id=frame_id,
        width=W,
        height=H,
        instances=instances,
        frame_triplets=tuple(
            sorted([tid for tid, _ in triplet_masks] + list(extra_triplets))
        ),
    )


def _det(video_id, frame_id, tid, score, mask=None, bbox=None):
    return DetectionRecord(
        video_id=video_id, frame_id=frame_id, triplet_id=tid,
        score=score, mask=mask, bbox=bbox,
    )


# match_from_matrix


def _iou_matrix(preds, gts, iou_fn):
    """Predictions (already in score order) x GT IoU matrix."""
    return np.array([[iou_fn(p, g) for g in gts] for p in preds])


def test_match_single_tp():
    gt = [_mask(0, 0)]
    preds = [_mask(0, 0)]
    assert match_from_matrix(_iou_matrix(preds, gt, mask_iou), 0.5) == [True]


def test_match_one_to_one_constraint():
    gt = [_mask(0, 0, 8, 8)]
    close = _mask(0, 0, 8, 8)
    slightly_off = _mask(0, 1, 8, 8)
    preds = [close, slightly_off]
    assert match_from_matrix(_iou_matrix(preds, gt, mask_iou), 0.5) == [True, False]


def test_match_below_threshold():
    gt = [_mask(0, 0, 4, 4)]
    preds = [_mask(8, 8, 4, 4)]
    assert match_from_matrix(_iou_matrix(preds, gt, mask_iou), 0.5) == [False]


def test_match_iou_tie_takes_lowest_gt_index():
    gt = [BBox(0, 0, 4, 4), BBox(8, 8, 4, 4)]
    # equidistant pred overlapping both equally is impossible with these;
    # instead give a pred with identical IoU to two identical boxes
    gt = [BBox(0, 0, 4, 4), BBox(0, 0, 4, 4)]
    preds = [BBox(0, 0, 4, 4), BBox(0, 0, 4, 4)]
    flags = match_from_matrix(_iou_matrix(preds, gt, box_iou), 0.5)
    assert flags == [True, True]


def test_match_from_matrix_equals_row_scan(rng):
    # the plain row scan the greedy replaced, as reference: IoU ties, zero
    # entries at threshold 0 and NaN entries must match as they did
    def scan(matrix, threshold):
        taken, flags = set(), []
        for row in matrix:
            best_g, best_iou = -1, 0.0
            for g, iou in enumerate(row):
                if iou >= threshold and iou > best_iou and g not in taken:
                    best_g, best_iou = g, iou
            if best_g >= 0:
                taken.add(best_g)
            flags.append(best_g >= 0)
        return flags

    for _ in range(300):
        shape = (int(rng.integers(0, 5)), int(rng.integers(1, 5)))
        matrix = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, np.nan], size=shape)
        for threshold in (0.0, 0.5, 1.0):
            assert match_from_matrix(matrix, threshold) == scan(matrix.tolist(), threshold)


# average_precision


def test_ap_single_tp_both_methods():
    assert average_precision([(0.9, True)], 1, "envelope") == 1.0
    assert average_precision([(0.9, True)], 1, "step") == 1.0


def test_ap_step_hand_case():
    assert average_precision([(0.9, False), (0.2, True)], 1, "step") == 0.5


def test_ap_envelope_hand_case():
    assert average_precision([(0.9, True), (0.8, False)], 1, "envelope") == 1.0


def test_ap_envelope_vs_step_differ():
    pairs = [(0.9, False), (0.8, True), (0.7, False), (0.6, True)]
    step = average_precision(pairs, 2, "step")
    envelope = average_precision(pairs, 2, "envelope")
    assert step == pytest.approx((1 / 2 + 2 / 4) / 2)
    assert envelope == pytest.approx((1 / 2 + 1 / 2) / 2)


def test_ap_rejects_zero_gt_and_bad_method():
    with pytest.raises(EvaluationError, match="at least one GT"):
        average_precision([(0.9, True)], 0, "step")
    with pytest.raises(EvaluationError, match="unknown AP method"):
        average_precision([(0.9, True)], 1, "trapezoid")


def test_ap_matches_oracle_randomized(rng):
    for _ in range(200):
        n = int(rng.integers(1, 12))
        pairs = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
        gt_count = int(sum(f for _, f in pairs) + rng.integers(0, 4))
        if gt_count == 0:
            continue
        for method in ("envelope", "step"):
            assert average_precision(pairs, gt_count, method) == pytest.approx(
                naive_average_precision(pairs, gt_count, method), abs=1e-12
            )


def _many_videos(rng, schema, n_parts=8):
    """Ground truth, seg/det predictions and rec predictions over up to
    ``2 * n_parts`` videos, joined from ``micro_instance`` problems; no two
    scores tie, and ground truth is in (video_id, frame_id) order, as read."""
    frames, preds = [], []
    for part in range(n_parts):
        part_frames, part_preds = micro_instance(rng, schema)
        frames += [r._replace(video_id=f"p{part}{r.video_id}") for r in part_frames]
        preds += [p._replace(video_id=f"p{part}{p.video_id}") for p in part_preds]
    frames.sort()
    rec = [RecognitionRecord(r.video_id, r.frame_id, tuple(rng.random(schema.n_triplets)))
           for r in frames]
    return frames, preds, rec


@pytest.mark.parametrize("averaging", ["per_video", "pooled"])
@pytest.mark.parametrize("mode", ["seg", "det", "rec"])
def test_report_does_not_depend_on_video_names(schema, mode, averaging):
    # renaming reverses the videos' sort order, and so the order in which
    # classes, videos and frames reach the scorer; exact sums ignore it
    for seed in range(4):
        frames, preds, rec = _many_videos(np.random.default_rng(seed), schema)
        videos = sorted({r.video_id for r in frames})
        renamed = {v: f"v{len(videos) - i:03d}" for i, v in enumerate(videos)}

        def rename(records):
            return [r._replace(video_id=renamed[r.video_id]) for r in records]

        if mode == "rec":
            preds = rec
        config = EvalConfig(mode=mode, averaging=averaging)
        before = evaluate(frames, preds, config, schema)
        after = evaluate(sorted(rename(frames)), rename(preds), config, schema)
        assert json.dumps(after.to_json_dict()) == json.dumps(before.to_json_dict()), seed


# projection


def test_project_detections(schema):
    tid = 42
    i, v, t = schema.triplets[tid]
    assert schema.project(tid, "i") == i
    assert schema.project(tid, "ivt") == tid
    assert schema.project(tid, "iv") == (i, v)


def test_project_no_dedup(schema):
    # two triplets sharing an instrument stay two detections after
    # projection; one-to-one matching leaves the second one a false positive
    by_instrument = {}
    for tid, (i, _, _) in sorted(schema.triplets.items()):
        by_instrument.setdefault(i, []).append(tid)
    tid_a, tid_b = by_instrument[0][:2]
    box = BBox(0, 0, 4, 4)
    frames = [_frame("v", 0, [(tid_a, _mask(0, 0))], schema)]
    dets = [_det("v", 0, tid_a, 0.5, bbox=box), _det("v", 0, tid_b, 0.4, bbox=box)]
    table = match(frames, dets, EvalConfig(mode="det", components=("i",)), schema)
    assert table.rows["i"].tp[schema.class_index["i"][tid_a]] == [True, False]


# evaluate_grounded


def test_perfect_prediction_fixed_point_micro(schema, rng):
    for _ in range(10):
        frames, _ = micro_instance(rng, schema)
        if not any(r.instances for r in frames):
            continue
        preds = perfect_predictions(frames)
        for mode in ("seg", "det"):
            for tau in (0.25, 0.5, 0.99):
                config = EvalConfig(mode=mode, iou_threshold=tau)
                report = evaluate_grounded(frames, preds, config, schema)
                for comp, res in report.components.items():
                    assert res.mAP == 100.0, (mode, tau, comp)
                    assert all(v == 100.0 for v in res.per_class.values())


def test_empty_predictions_zero_map(schema):
    frames = [_frame("v", 0, [(0, _mask(0, 0))], schema)]
    report = evaluate_grounded(
        frames, [], EvalConfig(mode="seg"), schema
    )
    for res in report.components.values():
        assert res.mAP == 0.0
        assert res.pred_count == 0
        assert res.gt_count == 1


def test_oracle_equivalence_sample(schema, rng):
    for _ in range(50):
        frames, preds = micro_instance(rng, schema)
        for mode in ("seg", "det"):
            config = EvalConfig(mode=mode, iou_threshold=0.5)
            report = evaluate_grounded(frames, preds, config, schema)
            expected = oracle_grounded_eval(
                frames, preds, mode, 0.5, config.components, schema
            )
            for comp in config.components:
                got = report.components[comp]
                want = expected[comp]
                assert got.per_class.keys() == want["per_class"].keys()
                for key, value in want["per_class"].items():
                    assert got.per_class[key] == pytest.approx(value, abs=1e-9)
                assert got.mAP == pytest.approx(want["mAP"], abs=1e-9)


def test_det_mode_with_bbox_only_predictions(schema, rng):
    for _ in range(20):
        frames, preds = micro_instance(rng, schema, with_bbox_only=True)
        config = EvalConfig(mode="det", iou_threshold=0.5)
        report = evaluate_grounded(frames, preds, config, schema)
        expected = oracle_grounded_eval(
            frames, preds, "det", 0.5, config.components, schema
        )
        for comp in config.components:
            for key, value in expected[comp]["per_class"].items():
                assert report.components[comp].per_class[key] == pytest.approx(
                    value, abs=1e-9
                )


def test_monotone_in_iou_threshold(schema, rng):
    frames, preds = micro_instance(rng, schema)
    taus = (0.3, 0.5, 0.7, 0.9)
    reports = [
        evaluate_grounded(
            frames, preds, EvalConfig(mode="seg", iou_threshold=t), schema
        )
        for t in taus
    ]
    for comp in reports[0].components:
        for key in reports[0].components[comp].per_class:
            values = [r.components[comp].per_class[key] for r in reports]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("averaging", ["pooled", "per_video"])
@pytest.mark.parametrize("mode", ["seg", "det", "rec"])
def test_score_scale_invariance(schema, mode, averaging):
    # AP reads only the order of scores: squaring scores on a k/64 grid keeps
    # 0 at 0 (the score of a frame without a rec record), keeps every tie and
    # keeps distinct scores distinct, so every byte of the report stays
    config = EvalConfig(mode=mode, averaging=averaging)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        frames, preds, rec = _many_videos(rng, schema, n_parts=4)
        if mode == "rec":
            data = [r._replace(scores=tuple((rng.integers(0, 65, len(r.scores)) / 64).tolist()))
                    for r in rec if rng.random() < 0.8]
            squared = [r._replace(scores=tuple(s * s for s in r.scores)) for r in data]
        else:
            data = [p._replace(score=int(rng.integers(0, 65)) / 64) for p in preds]
            squared = [p._replace(score=p.score * p.score) for p in data]
        a = evaluate(frames, data, config, schema)
        b = evaluate(frames, squared, config, schema)
        assert json.dumps(b.to_json_dict()) == json.dumps(a.to_json_dict()), seed


@pytest.mark.parametrize("averaging", ["pooled", "per_video"])
@pytest.mark.parametrize("mode", ["seg", "det", "rec"])
def test_record_on_an_unknown_frame_scored_last_changes_no_ap(schema, mode, averaging):
    # a false positive ranked below every other row adds no precision at any
    # true positive, whether it joins a video's ranking or starts a video
    # without ground truth; rec ignores records on unknown frames
    config = EvalConfig(mode=mode, averaging=averaging)

    def aps(report):
        return {c: (r.mAP, r.per_class) for c, r in report.components.items()}

    for seed in range(4):
        frames, preds, rec = _many_videos(np.random.default_rng(seed), schema, n_parts=4)
        data = rec if mode == "rec" else preds
        before = evaluate(frames, data, config, schema)
        scores = [s for r in rec for s in r.scores] if mode == "rec" else [p.score for p in preds]
        low = min(scores) / 2
        gt = next(g for r in frames for g in r.instances if g.triplet_id is not None)
        for key in ((frames[-1].video_id, frames[-1].frame_id + 1), ("unseen", 0)):
            extra = (RecognitionRecord(*key, (low,) * schema.n_triplets) if mode == "rec"
                     else _det(*key, gt.triplet_id, low, mask=gt.mask))
            after = evaluate(frames, [extra, *data], config, schema)
            assert aps(after) == aps(before), (seed, key)
            assert after.frame_count == before.frame_count


def test_seg_mode_requires_masks(schema):
    frames = [_frame("v", 0, [(0, _mask(0, 0))], schema)]
    preds = [_det("v", 0, 0, 0.9, bbox=BBox(0, 0, 4, 4))]
    with pytest.raises(EvaluationError, match="seg mode requires masks"):
        evaluate_grounded(frames, preds, EvalConfig(mode="seg"), schema)


def test_unknown_frame_predictions_score_as_fp(schema, caplog):
    frames = [_frame("v", 0, [(0, _mask(0, 0))], schema)]
    good = _det("v", 0, 0, 0.9, mask=_mask(0, 0))
    stray = _det("v", 99, 0, 0.95, mask=_mask(0, 0))
    with caplog.at_level("WARNING"):
        report = evaluate_grounded(
            frames, [good, stray], EvalConfig(mode="seg"), schema
        )
    assert any("absent from ground truth" in r.message for r in caplog.records)
    # the stray outranks the TP: envelope AP = 1/2 / 1 at position 2
    res = report.components["ivt"]
    assert res.per_class[0] == pytest.approx(50.0)
    assert report.frame_count == 1


def _tied_dataset(rng, schema, with_bbox_only):
    """Eight micro instances under distinct video ids (so frame sizes mix),
    scores on a 0.1 grid (so ties are common), and a copy of every third
    prediction on a frame absent from the ground truth."""
    frames, preds = [], []
    for k in range(8):
        inst_frames, inst_preds = micro_instance(rng, schema, with_bbox_only)
        frames += [r._replace(video_id=f"{r.video_id}-{k}") for r in inst_frames]
        inst_preds = [d._replace(video_id=f"{d.video_id}-{k}", score=round(d.score, 1))
                      for d in inst_preds]
        preds += inst_preds + [d._replace(frame_id=d.frame_id + 100) for d in inst_preds[::3]]
    return frames, preds


def _reference_tp(frames, preds, config, schema):
    """TP flags per component from one mask_iou or box_iou call per pair
    and match_from_matrix per frame, in match-table row order."""
    seg = config.mode == "seg"

    def geometry(det):
        return det.mask if seg else det.bbox or mask_to_bbox(det.mask)

    gts = {
        (r.video_id, r.frame_id): [
            (g.triplet_id, g.mask if seg else mask_to_bbox(g.mask))
            for g in r.instances if g.triplet_id is not None
        ]
        for r in frames
    }
    by_frame = {}
    for det in preds:
        by_frame.setdefault((det.video_id, det.frame_id), []).append(det)
    iou_fn = mask_iou if seg else box_iou
    flags = {comp: [] for comp in config.components}
    for key in sorted(gts.keys() | by_frame.keys()):
        dets, frame_gts = by_frame.get(key, []), gts.get(key, [])
        order = np.argsort(-np.array([d.score for d in dets]), kind="stable")
        for comp in config.components:
            frame_flags = [False] * len(dets)
            if dets and frame_gts:
                matrix = np.array([[
                    iou_fn(geometry(dets[p]), g)
                    if schema.project(dets[p].triplet_id, comp) == schema.project(tid, comp)
                    else 0.0
                    for tid, g in frame_gts
                ] for p in order])
                for p, hit in zip(order, match_from_matrix(matrix, config.iou_threshold)):
                    frame_flags[p] = hit
            flags[comp] += frame_flags
    return flags


@pytest.mark.parametrize("mode", ["seg", "det"])
def test_match_flags_equal_a_per_frame_reference(schema, rng, mode):
    frames, preds = _tied_dataset(rng, schema, with_bbox_only=mode == "det")
    assert len({d.score for d in preds}) < len(preds)
    assert any(d.frame_id >= 100 for d in preds)
    reference = _reference_tp(frames, preds, EvalConfig(mode=mode), schema)
    assert any(any(flags) for flags in reference.values())
    # the reference's flags follow frame order, then input order; the table
    # holds them per class in that order
    ordered = sorted(preds, key=lambda d: (d.video_id, d.frame_id))
    reference = {
        comp: [[hit for hit, d in zip(flags, ordered)
                if schema.class_index[comp][d.triplet_id] == k]
               for k in range(len(schema.class_keys[comp]))]
        for comp, flags in reference.items()
    }
    table = match(frames, preds, EvalConfig(mode=mode), schema)
    assert {comp: rows.tp for comp, rows in table.rows.items()} == reference


def test_parallel_jobs_identical_report(schema, rng):
    frames, preds = micro_instance(rng, schema)
    config1 = EvalConfig(mode="seg", jobs=1)
    config3 = EvalConfig(mode="seg", jobs=3)
    a = evaluate_grounded(frames, preds, config1, schema)
    b = evaluate_grounded(frames, preds, config3, schema)
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_per_video_averaging_hand_case(schema):
    tid = 0
    mask = _mask(0, 0, 8, 8)
    far = _mask(8, 8, 4, 4)
    frames = [
        _frame("va", 0, [(tid, mask), (tid, far)], schema),
        _frame("vb", 0, [(tid, mask)], schema),
    ]
    preds = [
        _det("va", 0, tid, 0.9, mask=mask),
        _det("va", 0, tid, 0.8, mask=far),
        _det("vb", 0, tid, 0.7, mask=_mask(0, 8, 4, 4)),  # disjoint: FP
    ]
    pooled = evaluate_grounded(
        frames, preds, EvalConfig(mode="seg", averaging="pooled"), schema
    )
    per_video = evaluate_grounded(
        frames, preds, EvalConfig(mode="seg", averaging="per_video"), schema
    )
    # pooled: [TP, TP, FP] over 3 GT -> envelope AP = (1 + 1)/3
    assert pooled.components["ivt"].per_class[tid] == pytest.approx(200 / 3)
    # per video: va AP=1, vb AP=0 -> 50
    assert per_video.components["ivt"].per_class[tid] == pytest.approx(50.0)


@pytest.mark.parametrize("mode", ["seg", "det"])
def test_unknown_frame_prediction_joins_its_video_ranking(schema, mode, caplog):
    tid = 0
    frames = [_frame("va", 0, [(tid, _mask(0, 0))], schema),
              _frame("vb", 0, [(tid, _mask(0, 0))], schema)]
    preds = [
        _det("va", 99, tid, 0.95, mask=_mask(0, 0)),  # frame 99 is not in the ground truth
        _det("va", 0, tid, 0.9, mask=_mask(0, 0)),
        _det("vb", 0, tid, 0.8, mask=_mask(0, 0)),
        _det("vz", 5, tid, 0.99, mask=_mask(0, 0)),  # a video without ground truth
    ]
    with caplog.at_level("WARNING"):
        table = match(frames, preds, EvalConfig(mode=mode, averaging="per_video"), schema)
    # va ranks [FP, TP] over 1 GT: AP 1/2; vb ranks [TP]: AP 1; vz holds no GT
    assert score(table).components["ivt"].per_class[tid] == 75.0
    # a subset ranks only its own frames' rows, so the stray drops out
    subset = score(table, frames={("va", 0), ("vb", 0)})
    assert subset.components["ivt"].per_class[tid] == 100.0


def test_eval_config_validation():
    with pytest.raises(EvaluationError):
        EvalConfig(mode="boxes")
    with pytest.raises(EvaluationError):
        EvalConfig(mode="seg", iou_threshold=0.0)
    with pytest.raises(EvaluationError):
        EvalConfig(mode="seg", iou_threshold=1.5)
    with pytest.raises(EvaluationError):
        EvalConfig(mode="seg", components=())
    with pytest.raises(EvaluationError):
        EvalConfig(mode="seg", components=("x",))
    with pytest.raises(EvaluationError):
        EvalConfig(mode="seg", averaging="median")
    with pytest.raises(EvaluationError):
        EvalConfig(mode="seg", ap_method="11pt")
    with pytest.raises(EvaluationError):
        EvalConfig(mode="seg", jobs=0)
    assert EvalConfig(mode="seg").resolved_ap_method == "envelope"
    assert EvalConfig(mode="rec").resolved_ap_method == "step"
    assert EvalConfig(mode="seg", ap_method="step").resolved_ap_method == "step"


# evaluate_recognition


def _rec(video_id, frame_id, hot, schema):
    scores = [0.0] * schema.n_triplets
    for tid, value in hot.items():
        scores[tid] = value
    return RecognitionRecord(
        video_id=video_id, frame_id=frame_id, scores=tuple(scores)
    )


def test_recognition_one_hot_perfect(schema):
    frames = [
        _frame("v", 0, [], schema, extra_triplets=(0, 50)),
        _frame("v", 1, [], schema, extra_triplets=(94,)),
    ]
    preds = [
        _rec("v", 0, {0: 1.0, 50: 1.0}, schema),
        _rec("v", 1, {94: 1.0}, schema),
    ]
    report = evaluate_recognition(frames, preds, EvalConfig(mode="rec"), schema)
    for res in report.components.values():
        assert res.mAP == 100.0


def test_recognition_positive_ranked_first(schema):
    frames = [
        _frame("v", 0, [], schema, extra_triplets=(0,)),
        _frame("v", 1, [], schema),
    ]
    preds = [
        _rec("v", 0, {0: 0.9}, schema),
        _rec("v", 1, {0: 0.2}, schema),
    ]
    report = evaluate_recognition(frames, preds, EvalConfig(mode="rec"), schema)
    assert report.components["ivt"].per_class[0] == pytest.approx(100.0, abs=1e-12)


def test_recognition_positive_ranked_second(schema):
    frames = [
        _frame("v", 0, [], schema, extra_triplets=(0,)),
        _frame("v", 1, [], schema),
    ]
    preds = [
        _rec("v", 0, {0: 0.2}, schema),
        _rec("v", 1, {0: 0.9}, schema),
    ]
    report = evaluate_recognition(frames, preds, EvalConfig(mode="rec"), schema)
    assert report.components["ivt"].per_class[0] == pytest.approx(50.0, abs=1e-12)


def test_recognition_missing_record_scores_zero(schema):
    frames = [
        _frame("v", 0, [], schema, extra_triplets=(0,)),
        _frame("v", 1, [], schema, extra_triplets=(0,)),
    ]
    preds = [_rec("v", 0, {0: 0.9}, schema)]
    report = evaluate_recognition(frames, preds, EvalConfig(mode="rec"), schema)
    # frame 1 is a positive with score 0: ranked last
    # step AP over [(0.9, pos), (0.0, pos)] with 2 GT = (1 + 1)/2
    assert report.components["ivt"].per_class[0] == pytest.approx(100.0)
    assert report.components["ivt"].gt_count == 2


def test_recognition_unknown_frames_warned_ignored(schema, caplog):
    frames = [_frame("v", 0, [], schema, extra_triplets=(0,))]
    preds = [
        _rec("v", 0, {0: 0.9}, schema),
        _rec("zz", 7, {0: 1.0}, schema),
    ]
    with caplog.at_level("WARNING"):
        report = evaluate_recognition(frames, preds, EvalConfig(mode="rec"), schema)
    assert any("absent from ground truth" in r.message for r in caplog.records)
    assert report.components["ivt"].per_class[0] == 100.0


@pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
def test_recognition_record_of_wrong_length_rejected(schema, extra):
    frames = [_frame("v", f, [], schema, extra_triplets=(0, 99)) for f in range(2)]
    preds = [_rec("v", 0, {0: 0.9}, schema),
             RecognitionRecord("v", 1, (0.5,) * (schema.n_triplets + extra))]
    with pytest.raises(EvaluationError, match=(
            f"frame \\('v', 1\\) has {schema.n_triplets + extra} scores; "
            f"expected exactly {schema.n_triplets}")):
        evaluate(frames, preds, EvalConfig(mode="rec"), schema)


def test_recognition_rejects_a_second_record_for_a_frame(schema):
    frames = [_frame("v", 0, [], schema, extra_triplets=(0,))]
    preds = [_rec("v", 0, {0: 0.9}, schema), _rec("v", 0, {0: 0.1}, schema)]
    with pytest.raises(EvaluationError) as info:
        evaluate(frames, preds, EvalConfig(mode="rec"), schema)
    assert str(info.value) == "duplicate recognition record for frame ('v', 0)"


@pytest.mark.parametrize("evaluator, mode", [(evaluate_grounded, "rec"),
                                             (evaluate_recognition, "seg")])
def test_mode_evaluators_reject_the_other_mode(schema, evaluator, mode):
    with pytest.raises(EvaluationError) as info:
        evaluator([], [], EvalConfig(mode=mode), schema)
    assert str(info.value) == f"{evaluator.__name__} cannot run mode {mode!r}"


def test_recognition_projection_by_max_matches_enumeration(schema, rng):
    frames = []
    rec_map = {}
    preds = []
    for f in range(10):
        pool = [int(t) for t in rng.choice(100, size=3, replace=False)]
        frames.append(_frame("v", f, [], schema, extra_triplets=tuple(pool[:2])))
        scores = {tid: float(rng.random()) for tid in pool}
        preds.append(_rec("v", f, scores, schema))
        rec_map[("v", f)] = preds[-1].scores
    config = EvalConfig(mode="rec")
    report = evaluate_recognition(frames, preds, config, schema)
    expected = oracle_recognition_eval(
        frames, rec_map, config.components, schema
    )
    for comp in config.components:
        got = report.components[comp]
        want = expected[comp]
        assert got.per_class.keys() == want["per_class"].keys()
        for key, value in want["per_class"].items():
            assert got.per_class[key] == pytest.approx(value, abs=1e-12)


# six triplets with ids 3 and 6 unused, so score vectors hold unscored slots
SMALL_TRIPLETS = {0: (0, 0, 0), 1: (0, 1, 0), 2: (1, 0, 1), 4: (1, 1, 2), 5: (0, 0, 2),
                  7: (1, 0, 0)}
SMALL_SCHEMA = TripletSchema(
    n_triplets=8, n_instruments=2, n_verbs=2, n_targets=3, triplets=SMALL_TRIPLETS,
    instrument_names={0: "a", 1: "b"}, verb_names={0: "c", 1: "d"},
    target_names={0: "e", 1: "f", 2: "g"},
)


def _small_problem(mode, gt_tid, pred_tids):
    """One 16x16 frame of SMALL_SCHEMA holding one GT instance (seg/det) or
    label (rec) of triplet ``gt_tid``, and a record per id in ``pred_tids``
    (seg/det) or a single recognition record."""
    instance = GroundedInstance(instance_id=0, instrument_id=0, triplet_id=gt_tid,
                                mask=_mask(0, 0))
    frame = FrameRecord(video_id="v", frame_id=0, width=W, height=H,
                        instances=() if mode == "rec" else (instance,),
                        frame_triplets=(gt_tid,))
    if mode == "rec":
        return [frame], [RecognitionRecord("v", 0, (0.5,) * SMALL_SCHEMA.n_triplets)]
    return [frame], [_det("v", 0, tid, 0.9, mask=_mask(0, 0)) for tid in pred_tids]


@pytest.mark.parametrize("tid", [3, 8, -1], ids=["hole", "above", "negative"])
@pytest.mark.parametrize("mode, side", [("seg", "gt"), ("seg", "pred"), ("det", "gt"),
                                        ("det", "pred"), ("rec", "gt")])
def test_match_rejects_ids_outside_the_table(mode, side, tid):
    frames, preds = (_small_problem(mode, tid, [0]) if side == "gt"
                     else _small_problem(mode, 0, [0, tid, 6]))
    with pytest.raises(SchemaError) as info:
        evaluate(frames, preds, EvalConfig(mode=mode), SMALL_SCHEMA)
    assert str(info.value) == f"unknown triplet_id {tid}"


# few distinct values, so scores tie, 0.0 with -0.0 among them
TIED_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def recognition_problems(draw):
    """Frames over up to three videos, some without a record, plus records
    on frames absent from the ground truth, in any order."""
    videos = draw(st.lists(st.sampled_from("abc"), max_size=12))
    frames = [
        FrameRecord(video_id=v, frame_id=f, width=W, height=H, instances=(),
                    frame_triplets=tuple(sorted(draw(st.sets(
                        st.sampled_from(sorted(SMALL_TRIPLETS)), max_size=3)))))
        for f, v in enumerate(videos)
    ]
    scored = [(r.video_id, r.frame_id) for r in frames if draw(st.booleans())]
    scored += [("z", f) for f in draw(st.sets(st.integers(100, 103), max_size=2))]
    records = [RecognitionRecord(video_id=v, frame_id=f, scores=tuple(draw(st.lists(
        TIED_SCORES, min_size=8, max_size=8)))) for v, f in scored]
    return frames, draw(st.permutations(records))


@given(problem=recognition_problems())
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_recognition_matches_oracle_with_ties(problem):
    frames, records = problem
    rec_map = {(r.video_id, r.frame_id): r.scores for r in records}
    for averaging in ("pooled", "per_video"):
        report = evaluate(frames, records, EvalConfig(mode="rec", averaging=averaging),
                          SMALL_SCHEMA)
        if averaging == "pooled":
            want = oracle_recognition_eval(frames, rec_map, COMPONENTS, SMALL_SCHEMA)
        else:  # mean over the videos holding each class, then over classes
            per_video = [
                oracle_recognition_eval([r for r in frames if r.video_id == v], rec_map,
                                        COMPONENTS, SMALL_SCHEMA)
                for v in sorted({r.video_id for r in frames})
            ]
            want = {}
            for comp in COMPONENTS:
                aps = {}
                for result in per_video:
                    for key, ap in result[comp]["per_class"].items():
                        aps.setdefault(key, []).append(ap)
                per_class = {key: sum(v) / len(v) for key, v in aps.items()}
                m_ap = sum(per_class.values()) / len(per_class) if per_class else 0.0
                want[comp] = {"mAP": m_ap, "per_class": per_class}
        for comp in COMPONENTS:
            got = report.components[comp]
            assert got.per_class.keys() == want[comp]["per_class"].keys()
            for key, value in want[comp]["per_class"].items():
                assert got.per_class[key] == pytest.approx(value, abs=1e-12)
            assert got.mAP == pytest.approx(want[comp]["mAP"], abs=1e-12)


@given(problem=recognition_problems(),
       components=st.sampled_from([COMPONENTS, ("t",), ("v", "i"), ("it",)]))
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
def test_recognition_class_columns_are_member_maxima(problem, components):
    # coarse columns come from finer ones; each must equal the direct maximum
    # over the scores of the triplets that project to the class
    frames, records = problem
    by_key = {(r.video_id, r.frame_id): r.scores for r in records}
    rows = [by_key.get((r.video_id, r.frame_id), (0.0,) * 8) for r in frames]
    table = match(frames, records, EvalConfig(mode="rec", components=components),
                  SMALL_SCHEMA)
    assert set(table.rows) == set(components)
    for comp in components:
        keys = SMALL_SCHEMA.class_keys[comp]
        assert len(table.rows[comp].score) == len(keys)
        for key, column in zip(keys, table.rows[comp].score):
            members = [t for t in sorted(SMALL_TRIPLETS) if SMALL_SCHEMA.project(t, comp) == key]
            assert list(column) == [max(row[t] for t in members) for row in rows]


# subset scoring


@pytest.mark.parametrize("averaging", ["pooled", "per_video"])
@pytest.mark.parametrize("mode", ["seg", "det", "rec"])
def test_subset_equal_to_full(schema, mode, averaging):
    # with no predictions on unknown frames, the subset of every GT frame
    # selects every row; scores on a 1/8 grid tie, and ties must break alike
    config = EvalConfig(mode=mode, averaging=averaging)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        frames, preds, rec = _many_videos(rng, schema, n_parts=3)
        if mode == "rec":
            data = [r._replace(scores=tuple((rng.integers(0, 9, len(r.scores)) / 8).tolist()))
                    for r in rec if rng.random() < 0.8]
        else:
            data = [p._replace(score=int(rng.integers(0, 9)) / 8) for p in preds]
        table = match(frames, data, config, schema)
        full = score(table)
        subset = score(table, frames={(r.video_id, r.frame_id) for r in frames})
        assert subset == full, seed
        assert json.dumps(subset.to_json_dict()) == json.dumps(full.to_json_dict()), seed


def test_disjoint_subsets_partition_gt_count(schema, rng):
    frames, preds = micro_instance(rng, schema)
    keys = sorted({(r.video_id, r.frame_id) for r in frames})
    half = len(keys) // 2
    config = EvalConfig(mode="seg")
    full = evaluate_grounded(frames, preds, config, schema)
    table = match(frames, preds, config, schema)
    a = score(table, frames=set(keys[:half]))
    b = score(table, frames=set(keys[half:]))
    assert (
        a.components["ivt"].gt_count + b.components["ivt"].gt_count
        == full.components["ivt"].gt_count
    )


def test_subset_unknown_frame_rejected(schema, rng):
    frames, preds = micro_instance(rng, schema)
    table = match(frames, preds, EvalConfig(mode="seg"), schema)
    with pytest.raises(EvaluationError, match="not in ground truth"):
        score(table, frames={("nope", 1)})


@pytest.mark.parametrize("mode", ["seg", "det", "rec"])
def test_duplicate_ground_truth_frame_rejected(schema, rng, mode):
    frames, preds = micro_instance(rng, schema)
    with pytest.raises(EvaluationError, match=r"duplicate \(video_id, frame_id\) in ground"):
        evaluate(frames + [frames[0]], [] if mode == "rec" else preds,
                 EvalConfig(mode=mode), schema)


def test_subset_oracle_equivalence(schema, rng):
    frames, preds = micro_instance(rng, schema)
    keys = sorted({(r.video_id, r.frame_id) for r in frames})
    subset = set(keys[: max(1, len(keys) // 2)])
    config = EvalConfig(mode="seg")
    report = score(match(frames, preds, config, schema), frames=subset)
    sub_frames = [r for r in frames if (r.video_id, r.frame_id) in subset]
    sub_preds = [p for p in preds if (p.video_id, p.frame_id) in subset]
    expected = oracle_grounded_eval(
        sub_frames, sub_preds, "seg", 0.5, config.components, schema
    )
    for comp in config.components:
        for key, value in expected[comp]["per_class"].items():
            assert report.components[comp].per_class[key] == pytest.approx(
                value, abs=1e-9
            )


def test_subset_of_full_table_equals_filtered_evaluation(schema, rng):
    for _ in range(15):
        frames, preds = micro_instance(rng, schema)
        # predictions on frames absent from the ground truth
        preds = preds + [
            _det(p.video_id, p.frame_id + 100, p.triplet_id, p.score, mask=p.mask)
            for p in preds[:2]
        ]
        recs = [
            _rec(r.video_id, r.frame_id,
                 {int(t): float(rng.random()) for t in rng.choice(100, size=5)},
                 schema)
            for r in frames if rng.random() < 0.8
        ] + [_rec("zz", 7, {0: 1.0}, schema)]
        keys = sorted({(r.video_id, r.frame_id) for r in frames})
        subset = {k for k in keys if rng.random() < 0.5} or {keys[0]}
        sub_frames = [r for r in frames if (r.video_id, r.frame_id) in subset]
        for mode, data in (("seg", preds), ("det", preds), ("rec", recs)):
            sub_data = [p for p in data if (p.video_id, p.frame_id) in subset]
            for averaging in ("pooled", "per_video"):
                config = EvalConfig(mode=mode, averaging=averaging)
                got = score(match(frames, data, config, schema), frames=subset)
                want = evaluate(sub_frames, sub_data, config, schema)
                assert got == want, (mode, averaging)
                assert got.to_json_dict() == want.to_json_dict()


def _per_video_oracle(frames, preds, mode, components, schema):
    """Per-video averaging from the oracle: each class AP is the mean over
    the videos holding the class of the oracle run on that video's own
    frames and predictions."""
    aps = {comp: {} for comp in components}
    for video in sorted({r.video_id for r in frames}):
        result = oracle_grounded_eval([r for r in frames if r.video_id == video],
                                      [p for p in preds if p.video_id == video],
                                      mode, 0.5, components, schema)
        for comp in components:
            for key, ap in result[comp]["per_class"].items():
                aps[comp].setdefault(key, []).append(ap)
    return {comp: {key: sum(v) / len(v) for key, v in per_class.items()}
            for comp, per_class in aps.items()}


@pytest.mark.parametrize("mode", ["seg", "det"])
def test_grounded_per_video_matches_oracle_with_ties(schema, rng, mode):
    config = EvalConfig(mode=mode, averaging="per_video")
    shared = 0  # classes averaged over more than one video
    for _ in range(20):
        # four micro problems joined into three videos, scores on a 0.1 grid
        # so they tie, and copies of some predictions on frames absent from
        # the ground truth; those score below every other prediction, where
        # a false positive cannot change an AP, since the oracle drops them
        frames, preds = [], []
        for part in range(4):
            part_frames, part_preds = micro_instance(rng, schema, with_bbox_only=mode == "det")
            video = {v: f"{v}-{part % 3}" for v in ("vid0", "vid1")}
            frames += [r._replace(video_id=video[r.video_id], frame_id=10 * part + r.frame_id)
                       for r in part_frames]
            preds += [d._replace(video_id=video[d.video_id], frame_id=10 * part + d.frame_id,
                                 score=round(0.1 + 0.9 * d.score, 1)) for d in part_preds]
        preds += [d._replace(frame_id=d.frame_id + 100, score=0.0) for d in preds[::4]]
        frames.sort()
        assert len({d.score for d in preds}) < len(preds)
        keys = [(r.video_id, r.frame_id) for r in frames]
        subset = {k for k in keys if rng.random() < 0.5} or {keys[0]}
        table = match(frames, preds, config, schema)
        for got, kept in ((evaluate(frames, preds, config, schema), set(keys)),
                          (score(table, frames=subset), subset)):
            want = _per_video_oracle([r for r in frames if (r.video_id, r.frame_id) in kept],
                                     [d for d in preds if (d.video_id, d.frame_id) in kept],
                                     mode, config.components, schema)
            for comp in config.components:
                assert got.components[comp].per_class.keys() == want[comp].keys()
                for key, value in want[comp].items():
                    assert got.components[comp].per_class[key] == pytest.approx(value, abs=1e-9)
        videos_of = {}
        for r in frames:
            for g in r.instances:
                videos_of.setdefault(g.triplet_id, set()).add(r.video_id)
        shared += sum(len(videos) > 1 for videos in videos_of.values())
    assert shared > 0


@st.composite
def grounded_problems(draw):
    """Seg/det frames of one small size over up to three videos. A GT mask
    is a rectangle, often the previous GT instance moved a column right,
    class and all. A predicted mask is a rectangle, empty, a copy of a GT
    instance, or the overlap of two GT instances one column apart, which
    ties its IoU with both. A prediction's box, if it has one, is its
    rectangle's, so det mode boxes some predictions from their masks; an
    empty mask always comes with a box. Many boxes meet no GT box. Some GT
    instances are ungrounded, some frames hold no GT or nothing at all,
    some predictions lie on frames absent from the ground truth, and scores
    tie often."""
    height, width = draw(st.integers(1, 2)), draw(st.integers(2, 4))

    def rect():  # (y, x, h, w)
        y, x = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        return y, x, draw(st.integers(1, height - y)), draw(st.integers(1, width - x))

    tids = st.sampled_from(sorted(SMALL_TRIPLETS))
    frames, gt = [], {}
    for f, video in enumerate(draw(st.lists(st.sampled_from("abc"), max_size=6))):
        items = gt[(video, f)] = []  # (rectangle, triplet id)
        for _ in range(draw(st.integers(0, 3))):
            if items and items[-1][0][1] + items[-1][0][3] < width and draw(st.booleans()):
                (y, x, h, w), tid = items[-1]
                items.append(((y, x + 1, h, w), tid))  # moved a column right
            else:
                items.append((rect(), draw(tids | st.none())))
        instances = tuple(
            GroundedInstance(instance_id=i, instrument_id=0, triplet_id=tid,
                             mask=rect_rle(height, width, *r))
            for i, (r, tid) in enumerate(items))
        frames.append(FrameRecord(
            video_id=video, frame_id=f, width=width, height=height, instances=instances,
            frame_triplets=tuple(sorted(g.triplet_id for g in instances
                                        if g.triplet_id is not None))))
    keys = list(gt)
    keys += [(draw(st.sampled_from("az")), 100 + k) for k in range(draw(st.integers(0, 2)))]
    preds = []
    for key in keys:
        items = gt.get(key, [])
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["rect", "copy", "overlap", "empty"]))
            r, tid = rect(), None
            if kind == "copy" and items:
                r, tid = draw(st.sampled_from(items))
            elif kind == "overlap" and len(items) > 1:
                i = draw(st.integers(1, len(items) - 1))
                (y, x, h, w), tid = items[i]
                if items[i - 1][0] == (y, x - 1, h, w) and w > 1:
                    r = (y, x, h, w - 1)
            if tid is None or not draw(st.integers(0, 3)):  # a copy's class, mostly
                tid = draw(tids)
            empty = kind == "empty"
            mask = (RleMask(height=height, width=width, counts=(height * width,)) if empty
                    else rect_rle(height, width, *r))
            bbox = BBox(x=r[1], y=r[0], w=r[3], h=r[2]) if empty or draw(st.booleans()) else None
            preds.append(DetectionRecord(video_id=key[0], frame_id=key[1], triplet_id=tid,
                                         score=draw(TIED_SCORES), mask=mask, bbox=bbox))
    return frames, draw(st.permutations(preds))


def _iou_tie_problem():
    """The first prediction ties two GT instances at IoU 0.5 and the second
    meets only the first GT at the threshold, so the GT the tie takes sets
    the AP: 50 when it takes the lowest GT index."""
    gt = tuple(GroundedInstance(instance_id=x, instrument_id=0, triplet_id=0,
                                mask=rect_rle(1, 3, 0, x, 1, 2)) for x in (0, 1))
    frame = FrameRecord(video_id="a", frame_id=0, width=3, height=1, instances=gt,
                        frame_triplets=(0, 0))
    preds = [_det("a", 0, 0, 0.9, mask=rect_rle(1, 3, 0, 1, 1, 1), bbox=BBox(x=1, y=0, w=1, h=1)),
             _det("a", 0, 0, 0.5, mask=gt[0].mask)]
    return [frame], preds


@pytest.mark.parametrize("mode", ["seg", "det"])
@given(problem=grounded_problems())
@example(problem=_iou_tie_problem())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_grounded_matches_oracle_on_drawn_problems(mode, problem):
    frames, preds = problem
    # the oracle scores GT frames only; an empty GT frame (the oracle reads
    # no frame size) for each frame absent from the ground truth makes its
    # predictions false positives there
    known = {(r.video_id, r.frame_id) for r in frames}
    padded = frames + [
        FrameRecord(video_id=v, frame_id=f, width=0, height=0, instances=(), frame_triplets=())
        for v, f in sorted({(d.video_id, d.frame_id) for d in preds} - known)]
    for averaging in ("pooled", "per_video"):
        report = evaluate(frames, preds, EvalConfig(mode=mode, averaging=averaging),
                          SMALL_SCHEMA)
        want = (
            {comp: res["per_class"] for comp, res in oracle_grounded_eval(
                padded, preds, mode, 0.5, COMPONENTS, SMALL_SCHEMA).items()}
            if averaging == "pooled"
            else _per_video_oracle(padded, preds, mode, COMPONENTS, SMALL_SCHEMA))
        for comp in COMPONENTS:
            got = report.components[comp]
            assert got.per_class.keys() == want[comp].keys()
            for key, value in want[comp].items():
                assert got.per_class[key] == pytest.approx(value, abs=1e-9)
            m_ap = sum(want[comp].values()) / len(want[comp]) if want[comp] else 0.0
            assert got.mAP == pytest.approx(m_ap, abs=1e-9)


@pytest.mark.parametrize("mode", ["seg", "det"])
@given(problem=grounded_problems(), data=st.data())
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
def test_permuted_predictions_give_the_same_report(mode, problem, data):
    frames, preds = problem
    ranks = data.draw(st.permutations(range(len(preds))))
    preds = [d._replace(score=(r + 1) / (len(preds) + 1)) for d, r in zip(preds, ranks)]
    shuffled = data.draw(st.permutations(preds))
    for averaging in ("pooled", "per_video"):
        config = EvalConfig(mode=mode, averaging=averaging)
        assert (json.dumps(evaluate(frames, shuffled, config, SMALL_SCHEMA).to_json_dict())
                == json.dumps(evaluate(frames, preds, config, SMALL_SCHEMA).to_json_dict()))


# report shape


def test_report_json_shape(schema):
    frames = [_frame("v", 0, [(0, _mask(0, 0))], schema)]
    preds = [_det("v", 0, 0, 1.0, mask=_mask(0, 0))]
    report = evaluate_grounded(frames, preds, EvalConfig(mode="seg"), schema)
    doc = report.to_json_dict()
    assert set(doc) == {
        "mode", "iou_threshold", "averaging", "ap_method", "frame_count",
        "components",
    }
    assert set(doc["components"]) == {"I", "V", "T", "IV", "IT", "IVT"}
    iv = doc["components"]["IV"]
    assert set(iv) == {"mAP", "per_class", "gt_count", "pred_count"}
    (key,) = iv["per_class"]
    assert "," in key  # pair classes serialize as "i,v"
    json.dumps(doc)  # must be serializable as-is


def test_render_table_row(schema):
    frames = [_frame("v", 0, [(0, _mask(0, 0))], schema)]
    preds = [_det("v", 0, 0, 1.0, mask=_mask(0, 0))]
    report = evaluate_grounded(frames, preds, EvalConfig(mode="seg"), schema)
    table = report.render_table()
    assert "mAP_IVT" in table
    assert table.count("100.00") == 6
