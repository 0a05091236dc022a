from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tripletseg
from oracles import brute_wilcoxon_one_sided
from synth import micro_instance, rect_rle
from tripletseg.cli import main
from tripletseg.dataset_io import (
    FrameRecord,
    GroundedInstance,
    write_ground_truth,
)

H, W = 16, 16


def _mask(y, x, h=4, w=4):
    return rect_rle(H, W, y, x, h, w)


@pytest.fixture()
def gt_dir(tmp_path, schema):
    frames = []
    for video in ("vid01", "vid02"):
        for f in range(3):
            tid = (0, 50, 94)[f]
            inst = GroundedInstance(
                instance_id=0,
                instrument_id=schema.project(tid, "i"),
                triplet_id=tid,
                mask=_mask(f, f),
            )
            frames.append(FrameRecord(
                video_id=video, frame_id=f, width=W, height=H,
                instances=(inst,), frame_triplets=(tid,),
            ))
    out = tmp_path / "gt"
    write_ground_truth(frames, out)
    return out


def _write_perfect_preds(gt_dir, path):
    preds = []
    for video_file in sorted(gt_dir.glob("*.json")):
        doc = json.loads(video_file.read_text())
        for frame in doc["frames"]:
            for inst in frame["instances"]:
                preds.append({
                    "video_id": doc["video_id"],
                    "frame_id": frame["frame_id"],
                    "triplet_id": inst["triplet_id"],
                    "score": 1.0,
                    "mask": inst["mask"],
                })
    path.write_text(json.dumps(preds))
    return path


def test_validate_clean(gt_dir, capsys):
    assert main(["validate", "--gt", str(gt_dir)]) == 0
    out = capsys.readouterr().out
    assert "2 files, 6 frames, 0 errors" in out


def test_validate_broken_file(gt_dir, capsys):
    bad = gt_dir / "vid01.json"
    doc = json.loads(bad.read_text())
    doc["frames"][0]["instances"][0]["triplet_id"] = 999
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--gt", str(gt_dir)]) == 1
    captured = capsys.readouterr()
    assert "vid01.json" in captured.err
    assert all(line.startswith("error: ") for line in captured.err.splitlines())
    assert "1 errors" in captured.out


def test_validate_missing_dir(tmp_path, capsys):
    assert main(["validate", "--gt", str(tmp_path / "nope")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--gt", "x"])  # missing required --preds/--mode
    assert exc.value.code == 2


def test_unknown_triplet_in_preds_is_domain_error(gt_dir, tmp_path, capsys):
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps([{
        "video_id": "vid01", "frame_id": 0, "triplet_id": 100, "score": 0.5,
        "bbox": [0, 0, 2, 2],
    }]))
    code = main(["eval", "--gt", str(gt_dir), "--preds", str(preds),
                 "--mode", "det"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_all_modes_perfect(gt_dir, tmp_path, capsys):
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    for mode in ("seg", "det"):
        out_file = tmp_path / f"report_{mode}.json"
        code = main(["eval", "--gt", str(gt_dir), "--preds", str(preds),
                     "--mode", mode, "--out", str(out_file)])
        assert code == 0
        table = capsys.readouterr().out
        assert table.count("100.00") == 6
        doc = json.loads(out_file.read_text())
        assert doc["mode"] == mode
        assert doc["components"]["IVT"]["mAP"] == 100.0


def test_eval_rec_mode(gt_dir, tmp_path, capsys, schema):
    records = []
    for video in ("vid01", "vid02"):
        for f in range(3):
            tid = (0, 50, 94)[f]
            scores = [0.0] * schema.n_triplets
            scores[tid] = 1.0
            records.append({"video_id": video, "frame_id": f, "scores": scores})
    preds = tmp_path / "rec.json"
    preds.write_text(json.dumps(records))
    code = main(["eval", "--gt", str(gt_dir), "--preds", str(preds),
                 "--mode", "rec"])
    assert code == 0
    assert capsys.readouterr().out.count("100.00") == 6


def test_eval_seg_rejects_rec_format(gt_dir, tmp_path, capsys, schema):
    preds = tmp_path / "rec.json"
    preds.write_text(json.dumps([{
        "video_id": "vid01", "frame_id": 0,
        "scores": [0.0] * schema.n_triplets,
    }]))
    code = main(["eval", "--gt", str(gt_dir), "--preds", str(preds),
                 "--mode", "seg"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_output_byte_stable_and_jobs_invariant(gt_dir, tmp_path, capsys):
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    outputs = []
    for jobs, name in (("1", "a.json"), ("1", "b.json"), ("3", "c.json")):
        out_file = tmp_path / name
        assert main(["eval", "--gt", str(gt_dir), "--preds", str(preds),
                     "--mode", "seg", "--jobs", jobs,
                     "--out", str(out_file)]) == 0
        outputs.append(out_file.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]


def test_unused_triplet_at_the_largest_id_leaves_reports_unchanged(tmp_path, capsys, schema):
    frames, preds = [], []
    rng = np.random.default_rng(27)
    for part in range(6):
        part_frames, part_preds = micro_instance(rng, schema)
        frames += [r._replace(video_id=f"p{part}{r.video_id}") for r in part_frames]
        preds += [p._replace(video_id=f"p{part}{p.video_id}") for p in part_preds]
    write_ground_truth(frames, tmp_path / "gt")
    pred_file = tmp_path / "preds.json"
    pred_file.write_text(json.dumps([{**p._asdict(), "mask": p.mask.to_json_dict()}
                                     for p in preds]))
    # the packaged vocabulary plus a triplet no record uses, at the largest id a schema holds
    sparse = tmp_path / "sparse_schema.csv"
    packaged = resources.files("tripletseg").joinpath("data/triplet_schema.csv")
    sparse.write_text(packaged.read_text(encoding="utf-8")
                      + "65535,0,0,5,grasper,grasp,blood_vessel\n", encoding="utf-8")
    for mode in ("seg", "det"):
        for averaging in ("pooled", "per_video"):
            outputs = []
            for name, flags in (("default", []), ("sparse", ["--schema", str(sparse)])):
                out = tmp_path / f"{mode}_{averaging}_{name}.json"
                assert main(["eval", "--gt", str(tmp_path / "gt"), "--preds", str(pred_file),
                             "--mode", mode, "--averaging", averaging, "--out", str(out),
                             *flags]) == 0
                outputs.append((out.read_bytes(), capsys.readouterr()))
            assert outputs[0] == outputs[1], (mode, averaging)
            assert len(json.loads(outputs[0][0])["components"]["IVT"]["per_class"]) > 1


BAD_GEOMETRY = [
    ("seg", 1, {"mask": {"size": [10, 10], "counts": [0, 100]}},
     "mask size 10x10 does not match frame size 16x16"),
    ("det", 1, {"mask": {"size": [10, 10], "counts": [0, 100]}},
     "mask size 10x10 does not match frame size 16x16"),
    # checked on frames outside the ground truth too
    ("det", 99, {"mask": {"size": [H, W], "counts": [H * W]}}, "empty mask and no bbox"),
    # each side on its own: one box overflows only the width, one only the height
    ("det", 1, {"bbox": [10, 0, 7, 4]}, "bbox [10, 0, 7, 4] does not fit frame size 16x16"),
    ("det", 1, {"bbox": [0, 10, 4, 7]}, "bbox [0, 10, 4, 7] does not fit frame size 16x16"),
]
BAD_GEOMETRY_IDS = ["seg-size", "det-size", "det-empty", "det-bbox-width", "det-bbox-height"]


@pytest.mark.parametrize("mode, frame_id, geometry, message", BAD_GEOMETRY, ids=BAD_GEOMETRY_IDS)
def test_eval_rejects_bad_prediction_geometry(gt_dir, tmp_path, capsys,
                                              mode, frame_id, geometry, message):
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    records = json.loads(preds.read_text())
    records.insert(1, {"video_id": "vid01", "frame_id": frame_id,
                       "triplet_id": 50, "score": 0.5, **geometry})
    preds.write_text(json.dumps(records))
    code = main(["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", mode])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"prediction 1 (vid01, {frame_id}) triplet 50" in err[0]
    assert message in err[0]


def test_eval_accepts_bbox_on_frame_edge(gt_dir, tmp_path, capsys):
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    records = json.loads(preds.read_text())
    records.insert(1, {"video_id": "vid01", "frame_id": 1, "triplet_id": 50,
                       "score": 0.5, "bbox": [W - 4, H - 4, 4, 4]})
    preds.write_text(json.dumps(records))
    assert main(["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", "det"]) == 0
    capsys.readouterr()


BAD_RECORD = [
    ("seg", 1, {"mask": {"size": [10, 10], "counts": [0, 100]}},
     "prediction 2 (vid01, 1) triplet 50: mask size 10x10 does not match frame size 16x16"),
    ("seg", 99, {"bbox": [0, 0, 4, 4]},
     "seg mode requires masks on all predictions; prediction 2 (vid01, 99) triplet 50 has none"),
    ("det", 99, {"mask": {"size": [H, W], "counts": [H * W]}},
     "prediction 2 (vid01, 99) triplet 50: empty mask and no bbox"),
    ("det", 1, {"bbox": [10, 0, 7, 4]},
     "prediction 2 (vid01, 1) triplet 50: bbox [10, 0, 7, 4] does not fit frame size 16x16"),
]
BAD_RECORD_IDS = ["seg-size", "seg-maskless", "det-empty", "det-bbox"]


@pytest.mark.parametrize("mode, frame_id, geometry, message", BAD_RECORD, ids=BAD_RECORD_IDS)
def test_eval_names_file_of_a_bad_record_before_matching(gt_dir, tmp_path, capsys, monkeypatch,
                                                         mode, frame_id, geometry, message):
    from tripletseg import evaluation

    calls = []
    monkeypatch.setattr(evaluation, "match", lambda *args: calls.append(args))
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    records = json.loads(preds.read_text())
    records.insert(2, {"video_id": "vid01", "frame_id": frame_id,
                       "triplet_id": 50, "score": 0.5, **geometry})
    preds.write_text(json.dumps(records))
    out = tmp_path / "report.json"
    argv = ["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", mode, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {preds}: {message}"]
    assert captured.out == "" and calls == [] and not out.exists()


@pytest.mark.parametrize(
    "at, mode, frame_id, geometry",
    [(1, *case[:3]) for case in BAD_GEOMETRY] + [(2, *case[:3]) for case in BAD_RECORD],
    ids=[f"rejects-{i}" for i in BAD_GEOMETRY_IDS] + [f"names-{i}" for i in BAD_RECORD_IDS])
def test_reader_states_the_geometry_rule_of_match(gt_dir, tmp_path, schema,
                                                 at, mode, frame_id, geometry):
    # the reader's error is the one evaluate raises on the same records, with
    # the file's path in front: one rule, written once
    from tripletseg.dataset_io import read_ground_truth, read_predictions
    from tripletseg.errors import EvaluationError
    from tripletseg.evaluation import EvalConfig, evaluate

    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    records = json.loads(preds.read_text())
    records.insert(at, {"video_id": "vid01", "frame_id": frame_id,
                        "triplet_id": 50, "score": 0.5, **geometry})
    preds.write_text(json.dumps(records))
    frames = read_ground_truth(gt_dir, schema)
    sizes = {(r.video_id, r.frame_id): (r.height, r.width) for r in frames}
    with pytest.raises(EvaluationError) as read_error:
        read_predictions(preds, mode, schema, sizes)
    with pytest.raises(EvaluationError) as evaluate_error:
        evaluate(frames, read_predictions(preds, mode, schema), EvalConfig(mode=mode), schema)
    assert str(read_error.value) == f"{preds}: {evaluate_error.value}"


# a JSON object that gives a key twice is an error in every input file


def _repeat_key(text, key, at=0):
    """``text`` with the ``at``-th ``"key": value`` given twice in a row."""
    start = -1
    for _ in range(at + 1):
        start = text.index(f'"{key}":', start + 1)
    value = start + len(key) + 3
    _, end = json.JSONDecoder().raw_decode(text, value + (text[value] == " "))
    return f"{text[:end]}, {text[start:end]}{text[end:]}"


def _gt_width(gt_dir, tmp_path):
    path = gt_dir / "vid02.json"
    path.write_text(_repeat_key(path.read_text(), "width"))
    return [], f"{path}: duplicate key 'width'"


def _preds_key(key, at, index, mode="seg"):
    """A prediction file whose record ``index`` gives ``key`` twice."""
    def make(gt_dir, tmp_path):
        preds = tmp_path / "preds.json"
        if mode == "rec":
            preds.write_text(json.dumps([{"video_id": v, "frame_id": f, "scores": [0.5] * 100}
                                         for v in ("vid01", "vid02") for f in range(3)]))
        else:
            _write_perfect_preds(gt_dir, preds)
        preds.write_text(_repeat_key(preds.read_text(), key, at))
        return (["--preds", str(preds), "--mode", mode],
                f"{preds}[{index}]: duplicate key {key!r}")
    return make


@pytest.mark.parametrize("command, make", [
    ("validate", _gt_width),
    ("stats", _gt_width),
    ("eval", _preds_key("video_id", 1, 1)),
    # in the mask object of record 3, the first checked in its record
    ("eval", _preds_key("size", 3, 3, "det")),
    ("eval", _preds_key("frame_id", 4, 4, "rec")),
], ids=["validate-gt-width", "stats-gt-width", "seg-video_id", "det-mask-size", "rec-frame_id"])
def test_duplicate_keys_rejected(gt_dir, tmp_path, capsys, monkeypatch, command, make):
    from tripletseg import evaluation

    calls = []
    monkeypatch.setattr(evaluation, "match", lambda *args: calls.append(args))
    flags, message = make(gt_dir, tmp_path)
    assert main([command, "--gt", str(gt_dir), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    # validate goes on to list the other files, and counts one error
    assert captured.out == ("vid01.json: ok (3 frames)\n2 files, 3 frames, 1 errors\n"
                            if command == "validate" else "")
    assert calls == []


def test_duplicate_key_in_either_compare_file(gt_dir, tmp_path, capsys, perfect_docs):
    text = json.dumps(perfect_docs)
    for a_text, b_text, side in ((_repeat_key(text, "score", 2), text, "a.json"),
                                 (text, _repeat_key(text, "triplet_id", 5), "b.json")):
        argv = _compare_argv(gt_dir, tmp_path, [], [], "seg")
        (tmp_path / "a.json").write_text(a_text)
        (tmp_path / "b.json").write_text(b_text)
        assert main(argv) == 1
        key, index = ("score", 2) if side == "a.json" else ("triplet_id", 5)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / side}[{index}]: duplicate key {key!r}"]
        assert not (tmp_path / "cmp.json").exists()


def test_duplicate_keys_rejected_in_mask_stream_and_values(gt_dir, tmp_path, capsys):
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    stream = masks_dir / "vid01.json"
    stream.write_text(_repeat_key(stream.read_text(), "instance_id", at=2))
    argv = ["align", "--labels", str(labels_file), "--masks", str(masks_dir),
            "--out", str(tmp_path / "aligned")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {stream}: duplicate key 'instance_id'"]
    assert not (tmp_path / "aligned").exists()
    values_a, values_b = tmp_path / "a.json", tmp_path / "b.json"
    values_a.write_text("[1, 2, 3]")
    values_b.write_text('[1, {"x": 1, "x": 2}, 3]')
    assert main(["compare", "--values-a", str(values_a), "--values-b", str(values_b)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {values_b}: duplicate key 'x'"]


def test_duplicate_key_reported_in_file_order(gt_dir, tmp_path, capsys):
    preds = tmp_path / "preds.json"
    dup = '{"video_id": "vid01", "video_id": "vid01", "frame_id": 0}'
    # record 0 is bad before record 1 repeats a key
    preds.write_text(f'[{{"video_id": 7}}, {dup}]')
    argv = ["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", "seg"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {preds}[0].video_id: expected a string, got int"]
    # record 0 repeats a key before the array breaks off
    preds.write_text(f'[{dup}, {{"video_id": 7}}, {{"video_id"')
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {preds}[0]: duplicate key 'video_id'"]
    # a key given twice in a whole-file parse names no record
    preds.write_text(f'{{"a": 1, "a": 2}}')
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {preds}: duplicate key 'a'"]


# one malformed input per raise site that the tests above do not reach


def _video_fault(edit, message):
    """``stats`` on the ground truth after ``edit`` rewrote vid01.json's document."""
    def make(gt_dir, tmp_path):
        path = gt_dir / "vid01.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return ["stats", "--gt", str(gt_dir)], f"{path}: {message}"
    return make


def _schema_fault(text, message):
    """``stats`` with ``text`` as its --schema file."""
    def make(gt_dir, tmp_path):
        path = tmp_path / "schema.csv"
        path.write_text(text)
        return ["stats", "--gt", str(gt_dir), "--schema", str(path)], f"{path}{message}"
    return make


def _empty_gt(gt_dir, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    return ["stats", "--gt", str(empty)], f"{empty}: no video JSON files"


def _three_number_bbox(gt_dir, tmp_path):
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps([{"video_id": "vid01", "frame_id": 0, "triplet_id": 0,
                                  "score": 0.5, "bbox": [0, 0, 2]}]))
    return (["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", "det"],
            f"{preds}[0].bbox: must be [x, y, w, h] integers")


def _overflowing_difference(gt_dir, tmp_path):
    values_a, values_b = tmp_path / "a.json", tmp_path / "b.json"
    values_a.write_text("[1e308, 1.0]")
    values_b.write_text("[-1e308, 0.0]")
    return (["compare", "--values-a", str(values_a), "--values-b", str(values_b)],
            "non-finite difference")


def _first_instance(**fields):
    """A ``_video_fault`` edit setting ``fields`` on the first frame's first instance."""
    def edit(doc):
        doc["frames"][0]["instances"][0].update(fields)
        return doc
    return edit


def _preds_fault(mode, text, message):
    """``eval --mode mode`` on a prediction file holding ``text``."""
    def make(gt_dir, tmp_path):
        preds = tmp_path / "preds.json"
        preds.write_text(text)
        return (["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", mode],
                f"{preds}{message}")
    return make


def _values_a_alone(gt_dir, tmp_path):
    values = tmp_path / "a.json"
    values.write_text("[1.0, 2.0]")
    return ["compare", "--values-a", str(values)], "both --values-a and --values-b are required"


def _compare_without_gt(gt_dir, tmp_path):
    preds = str(_write_perfect_preds(gt_dir, tmp_path / "preds.json"))
    return ["compare", "--preds-a", preds, "--preds-b", preds], "--gt is required"


SCHEMA_HEADER = "triplet_id,instrument_id,verb_id,target_id,instrument_name,verb_name,target_name\n"


@pytest.mark.parametrize("make", [
    _video_fault(lambda doc: [doc], "top level must be an object"),
    _video_fault(lambda doc: {**doc, "frames": [doc["frames"][0],
                                                {**doc["frames"][1], "frame_id": 0}]},
                 "frames[1]: duplicate frame_id 0"),
    _video_fault(lambda doc: {**doc, "frames": [{**doc["frames"][0], "instances": {}}]},
                 "frames[0].instances: must be an array"),
    _empty_gt,
    _three_number_bbox,
    _schema_fault("", ": empty schema file"),
    _schema_fault(SCHEMA_HEADER, ": no triplet rows"),
    _schema_fault(SCHEMA_HEADER + "0,0,0,0,grasper,grasp\n", ":2: expected 7 fields, got 6"),
    _overflowing_difference,
    _values_a_alone,
    _compare_without_gt,
    _preds_fault("seg", "{}", ": top level must be an array of records"),
    _preds_fault("det", json.dumps([{"video_id": "vid01", "frame_id": 0, "triplet_id": 0,
                                     "score": 0.5, "bbox": [0, 0, 0, 4]}]),
                 "[0].bbox: box size 0x4 must be at least 1x1"),
    _video_fault(_first_instance(instrument_id=6),
                 "frames[0].instances[0].instrument_id: 6 outside [0, 6)"),
    _video_fault(_first_instance(flags="x"),
                 "frames[0].instances[0].flags: must be a list of strings"),
    _video_fault(_first_instance(mask={"size": [0, 4], "counts": [0]}),
                 "frames[0].instances[0].mask: mask size 0x4 must be positive"),
    _video_fault(lambda doc: {**doc, "width": 0}, "frame size 0x16 must be positive"),
    _video_fault(lambda doc: {**doc, "frames": [{**doc["frames"][0], "frame_triplets": [100]}]},
                 "frames[0].frame_triplets[0]: unknown triplet 100"),
], ids=["gt-top-level", "gt-duplicate-frame", "gt-instances", "gt-empty-directory",
        "preds-bbox", "schema-empty", "schema-header-only", "schema-six-fields",
        "values-overflow", "values-a-alone", "compare-without-gt", "preds-object",
        "preds-bbox-width", "gt-instrument", "gt-flags", "gt-mask-size", "gt-width",
        "gt-frame-triplet"])
def test_each_input_fault_exits_1_with_one_error_line(gt_dir, tmp_path, capsys, make):
    argv, message = make(gt_dir, tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


JSON_BOM = "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"


@pytest.mark.parametrize("target, message", [
    ("labels", "starts with a UTF-8 byte order mark"),
    ("schema", "starts with a UTF-8 byte order mark"),
    ("gt", JSON_BOM),
    ("preds", JSON_BOM),
], ids=["labels", "schema", "gt", "preds"])
def test_byte_order_mark_names_the_file(gt_dir, tmp_path, capsys, target, message):
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    schema_file = tmp_path / "schema.csv"
    schema_file.write_bytes(
        resources.files("tripletseg").joinpath("data/triplet_schema.csv").read_bytes())
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    path, argv = {
        "labels": (labels_file, ["align", "--labels", str(labels_file),
                                 "--masks", str(masks_dir), "--out", str(tmp_path / "aligned")]),
        "schema": (schema_file, ["stats", "--gt", str(gt_dir), "--schema", str(schema_file)]),
        "gt": (gt_dir / "vid01.json", ["stats", "--gt", str(gt_dir)]),
        "preds": (preds, ["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", "seg"]),
    }[target]
    assert main(argv) == 0  # the same file without the mark is read
    capsys.readouterr()
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {path}: {message}"]
    assert captured.out == ""


def test_empty_prediction_file(gt_dir, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for mode in ("seg", "det"):
        out = tmp_path / f"eval_{mode}.json"
        assert main(["eval", "--gt", str(gt_dir), "--preds", str(empty), "--mode", mode,
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["frame_count"] == 6
        assert all(c["mAP"] == 0.0 and c["pred_count"] == 0
                   for c in report["components"].values())
    # rec scores as if every ground-truth frame scored 0 for every triplet;
    # the values themselves follow row order among the tied scores
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps([{"video_id": v, "frame_id": f, "scores": [0.0] * 100}
                                 for v in ("vid01", "vid02") for f in range(3)]))
    for averaging in ("pooled", "per_video"):
        reports = []
        for preds, pred_count in ((empty, 0), (zeros, 6)):
            out = tmp_path / f"eval_rec_{averaging}.json"
            assert main(["eval", "--gt", str(gt_dir), "--preds", str(preds), "--mode", "rec",
                         "--averaging", averaging, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert [c.pop("pred_count") for c in report["components"].values()] == [pred_count] * 6
            reports.append(report)
        assert reports[0] == reports[1]
    capsys.readouterr()
    for mode in ("seg", "det", "rec"):
        assert main(["compare", "--gt", str(gt_dir), "--preds-a", str(empty),
                     "--preds-b", str(empty), "--mode", mode, "--n-subsets", "2",
                     "--subset-size", "3"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: all differences are zero; no test possible"]


@pytest.mark.parametrize("form, flags, message", [
    ("eval", ["--components", "i,x"], "unknown component 'x'; choose from i, v, t, iv, it, ivt"),
    ("pipeline", ["--metric", "x"], "unknown component 'x'; choose from i, v, t, iv, it, ivt"),
    ("pipeline", ["--metric", "i,v"], "--metric names one component, got 'i,v'"),
    ("values", ["--metric", "bogus,x"],
     "unknown component 'bogus'; choose from i, v, t, iv, it, ivt"),
    ("values", ["--metric", "i,v"], "--metric names one component, got 'i,v'"),
], ids=["eval-unknown", "compare-unknown", "compare-two", "values-unknown", "values-two"])
def test_bad_component_names_rejected(gt_dir, tmp_path, capsys, form, flags, message):
    preds = str(_write_perfect_preds(gt_dir, tmp_path / "preds.json"))
    values = tmp_path / "values.json"
    values.write_text("[1.0, 2.0]")
    argv = {
        "eval": ["eval", "--gt", str(gt_dir), "--preds", preds, "--mode", "seg"],
        "pipeline": ["compare", "--gt", str(gt_dir), "--preds-a", preds,
                     "--preds-b", preds, "--mode", "seg"],
        "values": ["compare", "--values-a", str(values), "--values-b", str(values)],
    }[form]
    assert main([*argv, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


def test_eval_component_subset(gt_dir, tmp_path, capsys):
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    out_file = tmp_path / "r.json"
    assert main(["eval", "--gt", str(gt_dir), "--preds", str(preds),
                 "--mode", "seg", "--components", "i,ivt",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert set(doc["components"]) == {"I", "IVT"}


def test_stats_command(gt_dir, tmp_path, capsys):
    json_out = tmp_path / "stats.json"
    assert main(["stats", "--gt", str(gt_dir), "--json-out", str(json_out)]) == 0
    out = capsys.readouterr().out
    assert "6 annotated frames and 6 spatially grounded triplets" in out
    assert "(6 instrument instances, 2 videos)" in out
    doc = json.loads(json_out.read_text())
    assert doc["frames"] == 6
    assert doc["grounded_triplets"] == 6
    assert set(doc["per_video"]) == {"vid01", "vid02"}


def _mask_stream(gt_dir, tmp_path):
    """A label CSV and a mask-stream directory made from a GT directory."""
    masks_dir = tmp_path / "masks"
    masks_dir.mkdir()
    labels_file = tmp_path / "labels.csv"
    with labels_file.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "frame_id", "triplet_id"])
        for video_file in sorted(gt_dir.glob("*.json")):
            doc = json.loads(video_file.read_text())
            for frame in doc["frames"]:
                for tid in frame["frame_triplets"]:
                    writer.writerow([doc["video_id"], frame["frame_id"], tid])
                for inst in frame["instances"]:
                    del inst["triplet_id"]
            (masks_dir / video_file.name).write_text(json.dumps(doc))
    return labels_file, masks_dir


def test_align_round_trip(gt_dir, tmp_path, capsys, schema):
    # strip assignments out of a GT copy to form a mask stream, then align
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    out_dir = tmp_path / "aligned"
    report_file = tmp_path / "ambiguities.json"
    code = main(["align", "--labels", str(labels_file),
                 "--masks", str(masks_dir), "--out", str(out_dir),
                 "--report", str(report_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "assigned 6 of 6" in out
    assert json.loads(report_file.read_text()) == []

    # aligned output must itself validate and evaluate perfectly
    assert main(["validate", "--gt", str(out_dir)]) == 0
    preds = _write_perfect_preds(out_dir, tmp_path / "preds.json")
    assert main(["eval", "--gt", str(out_dir), "--preds", str(preds),
                 "--mode", "seg"]) == 0
    capsys.readouterr()


def test_align_refuses_to_write_into_its_mask_stream(gt_dir, tmp_path, capsys):
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    before = {p.name: p.read_bytes() for p in masks_dir.iterdir()}
    for out in (str(masks_dir), f"{masks_dir}/", str(tmp_path / "x" / ".." / "masks")):
        code = main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                     "--out", out, "--report", str(tmp_path / "amb.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "is the --masks directory" in err[0]
        assert {p.name: p.read_bytes() for p in masks_dir.iterdir()} == before
        assert not (tmp_path / "amb.json").exists()
    # the check comes before any input is read: a missing label file is not reached
    assert main(["align", "--labels", str(tmp_path / "none.csv"), "--masks", str(masks_dir),
                 "--out", str(masks_dir)]) == 1
    assert "is the --masks directory" in capsys.readouterr().err
    # an --out that cannot be resolved is still an I/O error, not a crash
    (tmp_path / "loop_a").symlink_to(tmp_path / "loop_b")
    (tmp_path / "loop_b").symlink_to(tmp_path / "loop_a")
    assert main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                 "--out", str(tmp_path / "loop_a")]) == 2
    assert capsys.readouterr().err.startswith("i/o error")


def test_align_refuses_a_report_among_the_videos(gt_dir, tmp_path, capsys):
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    out_dir = tmp_path / "aligned"
    assert main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    before = {d: {p.name: p.read_bytes() for p in d.iterdir()} for d in (masks_dir, out_dir)}
    (tmp_path / "link").symlink_to(out_dir)
    for report in (masks_dir / "amb.json", out_dir / "vid01.json", out_dir / "new.json",
                   tmp_path / "x" / ".." / "masks" / "amb.json", tmp_path / "link" / "r.json"):
        # the check comes before any input is read: a missing label file is not reached
        for labels in (labels_file, tmp_path / "none.csv"):
            code = main(["align", "--labels", str(labels), "--masks", str(masks_dir),
                         "--out", str(out_dir), "--report", str(report)])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: --report {report} is a *.json file in --masks or --out, "
                           "which later commands read as a video"]
            assert {d: {p.name: p.read_bytes() for p in d.iterdir()} for d in before} == before
    # the mask stream still aligns and the ground truth still validates
    assert main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                 "--out", str(tmp_path / "again")]) == 0
    assert main(["validate", "--gt", str(out_dir)]) == 0
    capsys.readouterr()


def test_align_writes_a_report_beside_or_below_the_videos(gt_dir, tmp_path, capsys):
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    out_dir = tmp_path / "aligned"
    (out_dir / "sub").mkdir(parents=True)
    for report in (tmp_path / "amb.json", out_dir / "amb.txt", out_dir / "sub" / "amb.json"):
        assert main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                     "--out", str(out_dir), "--report", str(report)]) == 0
        assert json.loads(report.read_text()) == []
    capsys.readouterr()
    assert main(["validate", "--gt", str(out_dir)]) == 0
    assert "2 files, 6 frames, 0 errors" in capsys.readouterr().out


@pytest.mark.parametrize("command, out_flag, in_flag", [
    ("align", "--out", "--masks"),
    ("align", "--out", "--labels"),
    ("align", "--report", "--labels"),
    ("align", "--report", "--schema"),
    ("align", "--report", "--masks"),
    ("align", "--report", "--out"),
    ("stats", "--json-out", "--gt"),
    ("stats", "--json-out", "--schema"),
    ("eval", "--out", "--gt"),
    ("eval", "--out", "--preds"),
    ("eval", "--out", "--schema"),
    ("compare", "--out", "--gt"),
    ("compare", "--out", "--preds-a"),
    ("compare", "--out", "--preds-b"),
    ("compare", "--out", "--schema"),
    ("compare", "--out", "--values-a"),
    ("compare", "--out", "--values-b"),
])
def test_outputs_may_not_resolve_to_an_input(gt_dir, tmp_path, capsys,
                                             command, out_flag, in_flag):
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    preds_a = _write_perfect_preds(gt_dir, tmp_path / "a.json")
    preds_b = _write_perfect_preds(gt_dir, tmp_path / "b.json")
    # no input is read before the check, so none needs to be valid
    for name in ("schema.csv", "va.json", "vb.json"):
        (tmp_path / name).write_text("not read\n")
    (tmp_path / "aligned").mkdir()
    flags = {
        "align": {"--labels": labels_file, "--masks": masks_dir, "--out": tmp_path / "aligned",
                  "--report": tmp_path / "amb.json"},
        "stats": {"--gt": gt_dir, "--json-out": tmp_path / "stats.json"},
        "eval": {"--gt": gt_dir, "--preds": preds_a, "--mode": "seg",
                 "--out": tmp_path / "r.json"},
        "compare": ({"--values-a": tmp_path / "va.json", "--values-b": tmp_path / "vb.json"}
                    if in_flag.startswith("--values") else
                    {"--gt": gt_dir, "--preds-a": preds_a, "--preds-b": preds_b, "--mode": "seg"}),
    }[command]
    flags = {**flags, "--schema": tmp_path / "schema.csv"}
    target = flags[in_flag]
    if target.is_dir() and not (command, out_flag) == ("align", "--out"):
        target = target / "vid01.json"
    # a path that resolves to the input without naming it
    clash = tmp_path / "x" / ".." / target.relative_to(tmp_path)
    flags[out_flag] = clash
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = [command, *(str(v) for item in flags.items() for v in item)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out_flag} {clash} is ")
    assert in_flag in err[0]
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_align_warns_of_stale_json_in_out(gt_dir, tmp_path, capsys, caplog):
    labels_file, masks_dir = _mask_stream(gt_dir, tmp_path)
    clean, used = tmp_path / "clean", tmp_path / "used"

    def align(out, *extra):
        caplog.clear()
        code = main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                     "--out", str(out), *extra])
        capsys.readouterr()
        return code, [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]

    assert align(clean) == (0, [])
    assert align(clean) == (0, [])  # a rerun rewrites the same names
    used.mkdir()
    for name in ("old1.json", "old2.json", "report.json", "vid01.json", "notes.txt"):
        (used / name).write_text("{}")
    code, warnings = align(used, "--report", str(tmp_path / "report.json"))
    assert code == 0
    assert len(warnings) == 1
    assert "3 *.json file(s)" in warnings[0]
    assert warnings[0].endswith(": old1.json, old2.json, report.json")
    for path in clean.iterdir():
        assert (used / path.name).read_bytes() == path.read_bytes()
    for k in range(4):
        (used / f"extra{k}.json").write_text("{}")
    _, warnings = align(used)
    assert "7 *.json file(s)" in warnings[0]
    assert warnings[0].endswith(
        ": extra0.json, extra1.json, extra2.json, extra3.json, old1.json, ...")


def test_align_reports_ambiguities(tmp_path, capsys, schema):
    masks_dir = tmp_path / "masks"
    masks_dir.mkdir()
    doc = {
        "video_id": "vid01", "width": W, "height": H,
        "frames": [{
            "frame_id": 0,
            "frame_triplets": [],
            "instances": [
                {"instance_id": 0, "instrument_id": 0,
                 "mask": _mask(0, 0).to_json_dict()},
                {"instance_id": 1, "instrument_id": 0,
                 "mask": _mask(8, 8).to_json_dict()},
            ],
        }],
    }
    (masks_dir / "vid01.json").write_text(json.dumps(doc))
    labels_file = tmp_path / "labels.csv"
    labels_file.write_text("video_id,frame_id,triplet_id\nvid01,0,0\n")
    out_dir = tmp_path / "aligned"
    code = main(["align", "--labels", str(labels_file),
                 "--masks", str(masks_dir), "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "assigned 0 of 1" in out
    assert "MultiInstanceOneTriplet" in out


def test_align_rejects_jobs_below_one(tmp_path, capsys):
    masks_dir = tmp_path / "masks"
    masks_dir.mkdir()
    doc = {
        "video_id": "vid01", "width": W, "height": H,
        "frames": [{
            "frame_id": 0,
            "frame_triplets": [],
            "instances": [
                {"instance_id": 0, "instrument_id": 0,
                 "mask": _mask(0, 0).to_json_dict()},
            ],
        }],
    }
    (masks_dir / "vid01.json").write_text(json.dumps(doc))
    labels_file = tmp_path / "labels.csv"
    labels_file.write_text("video_id,frame_id,triplet_id\nvid01,0,0\n")
    out_dir = tmp_path / "aligned"
    code = main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                 "--out", str(out_dir), "--jobs", "0"])
    assert code == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_align_rejects_unknown_label_triplet(tmp_path, capsys):
    masks_dir = tmp_path / "masks"
    masks_dir.mkdir()
    doc = {
        "video_id": "v", "width": W, "height": H,
        "frames": [{
            "frame_id": 0,
            "frame_triplets": [],
            "instances": [
                {"instance_id": 0, "instrument_id": 0,
                 "mask": _mask(0, 0).to_json_dict()},
            ],
        }],
    }
    (masks_dir / "v.json").write_text(json.dumps(doc))
    labels_file = tmp_path / "labels.csv"
    labels_file.write_text("video_id,frame_id,triplet_id\nv,0,9999\n")
    code = main(["align", "--labels", str(labels_file), "--masks", str(masks_dir),
                 "--out", str(tmp_path / "aligned")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "(v, 0)" in err[0] and "unknown triplet 9999" in err[0]


def test_non_utf8_schema_is_domain_error(gt_dir, tmp_path, capsys):
    schema_file = tmp_path / "schema.csv"
    schema_file.write_bytes(b"triplet_id,instrument_id\xff\n")
    code = main(["stats", "--gt", str(gt_dir), "--schema", str(schema_file)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(schema_file) in err[0] and "unexpected failure" not in err[0]


@pytest.mark.parametrize("name", ["absent.csv", "."], ids=["missing", "directory"])
def test_unreadable_schema_is_io_error(gt_dir, tmp_path, capsys, name):
    code = main(["validate", "--gt", str(gt_dir), "--schema", str(tmp_path / name)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ")


def test_compare_values_form(tmp_path, capsys):
    values_a = tmp_path / "a.json"
    values_b = tmp_path / "b.json"
    values_a.write_text("[91.3, 89.9, 90.9, 91.2]")
    values_b.write_text("[90.0, 90.0, 90.0, 90.0]")
    out_file = tmp_path / "cmp.json"
    code = main([
        "compare",
        "--values-a", str(values_a),
        "--values-b", str(values_b),
        "--out", str(out_file),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "W=9" in text
    doc = json.loads(out_file.read_text())
    assert doc["metric"] == "mAP_IVT"
    assert doc["n_subsets"] == 4 and doc["subset_size"] is None
    assert doc["seed"] is None
    assert doc["wilcoxon"]["W"] == 9.0
    assert doc["wilcoxon"]["p_value"] == pytest.approx(0.125)
    assert doc["per_subset"] == [
        {"a": 91.3, "b": 90.0}, {"a": 89.9, "b": 90.0},
        {"a": 90.9, "b": 90.0}, {"a": 91.2, "b": 90.0},
    ]


def test_compare_values_form_rejects_non_numbers(tmp_path, capsys):
    values_a = tmp_path / "a.json"
    values_b = tmp_path / "b.json"
    values_a.write_text('["high", "low"]')
    values_b.write_text("[1, 2]")
    code = main(["compare", "--values-a", str(values_a),
                 "--values-b", str(values_b)])
    assert code == 1
    assert "array of numbers" in capsys.readouterr().err


def test_compare_values_form_rejects_malformed_json(tmp_path, capsys):
    values_a = tmp_path / "a.json"
    values_b = tmp_path / "b.json"
    values_a.write_text("[1, 2")
    values_b.write_text("[1, 2]")
    code = main(["compare", "--values-a", str(values_a),
                 "--values-b", str(values_b)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(values_a) in err and "invalid JSON" in err
    assert "unexpected failure" not in err
    assert len(err.strip().splitlines()) == 1


def test_compare_pipeline_form(gt_dir, tmp_path, capsys):
    preds_a = _write_perfect_preds(gt_dir, tmp_path / "a.json")
    # method b misses one frame's instances entirely
    docs = json.loads(preds_a.read_text())
    worse = [p for p in docs if not (p["video_id"] == "vid02"
                                     and p["frame_id"] == 2)]
    preds_b = tmp_path / "b.json"
    preds_b.write_text(json.dumps(worse))
    out_file = tmp_path / "cmp.json"
    code = main([
        "compare", "--gt", str(gt_dir),
        "--preds-a", str(preds_a), "--preds-b", str(preds_b),
        "--mode", "seg", "--metric", "ivt",
        "--n-subsets", "3", "--subset-size", "2", "--seed", "11",
        "--out", str(out_file),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text())
    assert doc["metric"] == "mAP_IVT_seg"
    assert doc["n_subsets"] == 3 and doc["subset_size"] == 2
    assert doc["seed"] == 11
    assert len(doc["per_subset"]) == 3
    assert all(row["a"] >= row["b"] for row in doc["per_subset"])
    assert set(doc["wilcoxon"]) == {"W", "n_effective", "p_value", "method"}


def test_compare_swapping_methods_swaps_every_pair(gt_dir, tmp_path, capsys):
    # each frame's one GT instance is found behind k false positives of its
    # class, so its AP is 100/(k+1); A and B win on different frames and by
    # different margins, some of them tied
    def write(path, false_positives):
        docs = [{**doc, "score": 0.5}
                for doc in json.loads(_write_perfect_preds(gt_dir, path).read_text())]
        fp_mask = _mask(12, 12).to_json_dict()
        for doc, k in zip(list(docs), false_positives):
            docs += [{**doc, "score": 0.9, "mask": fp_mask}] * k
        path.write_text(json.dumps(docs))
        return path

    preds = {"a": write(tmp_path / "a.json", [0, 1, 2, 0, 3, 1]),
             "b": write(tmp_path / "b.json", [1, 0, 0, 2, 1, 4])}
    docs = {}
    for first, second in (("a", "b"), ("b", "a")):
        out_file = tmp_path / f"cmp_{first}{second}.json"
        code = main([
            "compare", "--gt", str(gt_dir),
            "--preds-a", str(preds[first]), "--preds-b", str(preds[second]),
            "--mode", "seg", "--n-subsets", "6", "--subset-size", "1", "--seed", "3",
            "--out", str(out_file),
        ])
        assert code == 0
        docs[first] = json.loads(out_file.read_text())
    capsys.readouterr()
    ab, ba = docs["a"], docs["b"]
    assert ba["per_subset"] == [{"a": r["b"], "b": r["a"]} for r in ab["per_subset"]]
    n = ab["wilcoxon"]["n_effective"]
    assert n == ba["wilcoxon"]["n_effective"] == 6
    assert ab["wilcoxon"]["W"] + ba["wilcoxon"]["W"] == n * (n + 1) / 2
    for doc in (ab, ba):
        a, b = zip(*((r["a"], r["b"]) for r in doc["per_subset"]))
        w, n_effective, p = brute_wilcoxon_one_sided(a, b)
        assert (doc["wilcoxon"]["W"], doc["wilcoxon"]["n_effective"]) == (w, n_effective)
        assert doc["wilcoxon"]["p_value"] == pytest.approx(p, abs=1e-12)


def test_compare_checks_partition_before_reading_predictions(gt_dir, tmp_path, capsys):
    # 20 subsets of 1000 frames cannot come from 6 frames; that is the
    # error, not the prediction file that does not exist
    preds_b = _write_perfect_preds(gt_dir, tmp_path / "b.json")
    code = main([
        "compare", "--gt", str(gt_dir),
        "--preds-a", str(tmp_path / "missing.json"), "--preds-b", str(preds_b),
        "--mode", "seg", "--n-subsets", "20", "--subset-size", "1000",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == "error: need 20000 frames for 20 subsets of 1000, have 6"


def test_compare_matches_each_method_once(gt_dir, tmp_path, capsys, monkeypatch):
    from tripletseg import evaluation

    calls = []
    real_match = evaluation.match

    def counting_match(*args, **kwargs):
        calls.append(1)
        return real_match(*args, **kwargs)

    monkeypatch.setattr(evaluation, "match", counting_match)
    preds_a = _write_perfect_preds(gt_dir, tmp_path / "a.json")
    docs = json.loads(preds_a.read_text())
    preds_b = tmp_path / "b.json"
    preds_b.write_text(json.dumps(docs[1:]))
    code = main([
        "compare", "--gt", str(gt_dir),
        "--preds-a", str(preds_a), "--preds-b", str(preds_b),
        "--mode", "seg", "--n-subsets", "3", "--subset-size", "2",
    ])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 2


def test_compare_validates_records_on_unscored_frames_but_skips_them(gt_dir, tmp_path, capsys):
    from tripletseg.stats import partition_frames

    split = ["--n-subsets", "3", "--subset-size", "1", "--seed", "11"]
    keys = [(v, f) for v in ("vid01", "vid02") for f in range(3)]
    unscored = ("vid01", 1)
    assert all(unscored not in s for s in partition_frames(keys, 3, 1, 11).subsets)
    docs = json.loads(_write_perfect_preds(gt_dir, tmp_path / "perfect.json").read_text())
    at = [(d["video_id"], d["frame_id"]) for d in docs].index(unscored)
    # B misses a frame the subsets score, so the methods differ
    worse = [d for d in docs if (d["video_id"], d["frame_id"]) != ("vid02", 0)]

    def compare(a_docs, b_docs):
        (tmp_path / "a.json").write_text(json.dumps(a_docs))
        (tmp_path / "b.json").write_text(json.dumps(b_docs))
        out_file = tmp_path / "cmp.json"
        out_file.unlink(missing_ok=True)
        code = main(["compare", "--gt", str(gt_dir), "--preds-a", str(tmp_path / "a.json"),
                     "--preds-b", str(tmp_path / "b.json"), "--mode", "seg", *split,
                     "--out", str(out_file)])
        err = capsys.readouterr().err.splitlines()
        return code, err, out_file.read_bytes() if out_file.exists() else None

    code, err, expected = compare(docs, worse)
    assert (code, err) == (0, [])
    bad_sum = {**docs[at], "mask": {"size": [H, W], "counts": [H * W - 3, 4]}}
    for a_docs, b_docs, name in ((docs[:at] + [bad_sum] + docs[at + 1:], worse, "a.json"),
                                 (docs, worse[:at] + [bad_sum] + worse[at + 1:], "b.json")):
        code, err, report = compare(a_docs, b_docs)
        assert (code, report) == (1, None)
        assert err == [f"error: {tmp_path / name}[{at}].mask: counts sum {H * W + 1} != "
                       f"{H}*{W} pixels"]
    # a valid mask of another frame size is never matched on an unscored frame
    wide = {**docs[at], "mask": {"size": [H, W + 1], "counts": [1, H * (W + 1) - 1]}}
    assert compare(docs[:at] + [wide] + docs[at + 1:], worse) == (0, [], expected)
    assert compare(docs, worse[:at] + [wide] + worse[at + 1:]) == (0, [], expected)


# three subsets of one frame each, none of which holds ("vid01", 1)
UNSCORED_SPLIT = ["--n-subsets", "3", "--subset-size", "1", "--seed", "11"]


def _compare_argv(gt_dir, tmp_path, a_docs, b_docs, mode):
    """compare's arguments on two prediction lists, written to a.json and
    b.json, with the report at cmp.json."""
    for name, docs in (("a.json", a_docs), ("b.json", b_docs)):
        (tmp_path / name).write_text(json.dumps(docs))
    return ["compare", "--gt", str(gt_dir), "--preds-a", str(tmp_path / "a.json"),
            "--preds-b", str(tmp_path / "b.json"), "--mode", mode, *UNSCORED_SPLIT,
            "--out", str(tmp_path / "cmp.json")]


@pytest.fixture()
def perfect_docs(gt_dir, tmp_path):
    return json.loads(_write_perfect_preds(gt_dir, tmp_path / "perfect.json").read_text())


@pytest.mark.parametrize("side", ["a.json", "b.json"])
def test_compare_names_file_and_file_index_of_a_bad_record(gt_dir, tmp_path, capsys,
                                                          perfect_docs, side):
    from tripletseg.stats import partition_frames

    keys = [(d["video_id"], d["frame_id"]) for d in perfect_docs]
    vid, fid = partition_frames(keys, 3, 1, 11).subsets[0][0]
    # after the record of the unscored frame, which compare does not match
    at = keys.index(("vid01", 1)) + 1
    bad = {"video_id": vid, "frame_id": fid, "triplet_id": 50, "score": 0.5,
           "mask": {"size": [10, 10], "counts": [0, 100]}}
    docs = {name: list(perfect_docs) for name in ("a.json", "b.json")}
    docs[side].insert(at, bad)
    code = main(_compare_argv(gt_dir, tmp_path, docs["a.json"], docs["b.json"], "seg"))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {tmp_path / side}: prediction {at} ({vid}, {fid}) triplet 50: "
        f"mask size 10x10 does not match frame size {H}x{W}"]
    assert not (tmp_path / "cmp.json").exists()


@pytest.mark.parametrize("mode, geometry, message", [
    ("seg", {"bbox": [0, 0, 4, 4]}, "seg mode requires masks on all predictions; "
                                    "prediction 2 (vid01, 1) triplet 50 has none"),
    ("det", {"mask": {"size": [H, W], "counts": [H * W]}},
     "prediction 2 (vid01, 1) triplet 50: empty mask and no bbox"),
], ids=["seg-maskless", "det-empty"])
def test_compare_checks_records_on_unscored_frames(gt_dir, tmp_path, capsys, perfect_docs,
                                                   mode, geometry, message):
    from tripletseg.stats import partition_frames

    keys = [(d["video_id"], d["frame_id"]) for d in perfect_docs]
    assert all(("vid01", 1) not in s for s in partition_frames(keys, 3, 1, 11).subsets)
    # B misses a frame the subsets score, so the methods differ
    worse = [d for d in perfect_docs if (d["video_id"], d["frame_id"]) != ("vid02", 0)]
    bad = {"video_id": "vid01", "frame_id": 1, "triplet_id": 50, "score": 0.5, **geometry}
    assert main(_compare_argv(gt_dir, tmp_path, perfect_docs, worse, mode)) == 0
    capsys.readouterr()
    (tmp_path / "cmp.json").unlink()
    for a_docs, b_docs, side in ((perfect_docs[:2] + [bad] + perfect_docs[2:], worse, "a.json"),
                                 (perfect_docs, worse[:2] + [bad] + worse[2:], "b.json")):
        assert main(_compare_argv(gt_dir, tmp_path, a_docs, b_docs, mode)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path / side}: {message}"]
        assert not (tmp_path / "cmp.json").exists()


def test_compare_rejects_b_before_matching_a(gt_dir, tmp_path, capsys, perfect_docs,
                                             monkeypatch):
    from tripletseg import evaluation

    calls = []
    monkeypatch.setattr(evaluation, "match", lambda *args: calls.append(args))
    bad = {**perfect_docs[0], "mask": {"size": [10, 10], "counts": [0, 100]}}
    argv = _compare_argv(gt_dir, tmp_path, perfect_docs, [bad, *perfect_docs[1:]], "seg")
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'b.json'}: prediction 0 ")
    assert calls == []


@pytest.mark.parametrize("command, mode, side", [
    ("eval", "seg", "a.json"), ("eval", "det", "a.json"),
    ("compare", "seg", "a.json"), ("compare", "seg", "b.json"),
    ("compare", "det", "a.json"), ("compare", "det", "b.json"),
])
def test_geometry_fault_reported_before_a_later_decode_fault(gt_dir, tmp_path, capsys, perfect_docs,
                                                             command, mode, side):
    from tripletseg.stats import partition_frames

    keys = [(d["video_id"], d["frame_id"]) for d in perfect_docs]
    vid, fid = partition_frames(keys, 3, 1, 11).subsets[0][0]  # a frame compare scores
    docs = {name: list(perfect_docs) for name in ("a.json", "b.json")}
    bad = docs[side]
    # record 1 decodes but does not fit its frame; record 3 does not decode
    bad[1] = {**bad[1], "video_id": vid, "frame_id": fid,
              "mask": {"size": [10, 10], "counts": [0, 100]}}
    bad[3] = {**bad[3], "score": 1.5}
    if command == "eval":
        (tmp_path / side).write_text(json.dumps(bad))
        argv = ["eval", "--gt", str(gt_dir), "--preds", str(tmp_path / side), "--mode", mode,
                "--out", str(tmp_path / "cmp.json")]
    else:
        argv = _compare_argv(gt_dir, tmp_path, docs["a.json"], docs["b.json"], mode)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {tmp_path / side}: prediction 1 ({vid}, {fid}) triplet {bad[1]['triplet_id']}: "
        f"mask size 10x10 does not match frame size {H}x{W}"]
    assert captured.out == "" and not (tmp_path / "cmp.json").exists()


def test_compare_identical_predictions_errors(gt_dir, tmp_path, capsys):
    preds = _write_perfect_preds(gt_dir, tmp_path / "a.json")
    code = main([
        "compare", "--gt", str(gt_dir),
        "--preds-a", str(preds), "--preds-b", str(preds),
        "--mode", "seg", "--n-subsets", "3", "--subset-size", "2",
    ])
    assert code == 1
    assert "all differences are zero" in capsys.readouterr().err


def test_compare_mixed_argument_forms_rejected(gt_dir, tmp_path, capsys):
    values = tmp_path / "a.json"
    values.write_text("[1, 2]")
    code = main(["compare", "--values-a", str(values), "--gt", str(gt_dir)])
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_fusion_check_command(tmp_path, capsys):
    json_out = tmp_path / "fusion.json"
    code = main(["fusion-check", "--seed", "0", "--json-out", str(json_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("pass") >= 7
    doc = json.loads(json_out.read_text())
    assert all(doc["checks"].values())
    assert doc["grad_check"]["passed"] is True


def test_fusion_check_determinism(capsys):
    assert main(["fusion-check", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["fusion-check", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


HUGE = str(2**62)  # so wide that numpy refuses the arrays before allocating anything


@pytest.mark.parametrize("flags, flag", [
    (["--levels", "0"], "--levels"),
    (["--d", "0"], "--d"),
    (["--d", "-1"], "--d"),
    (["--queries", "0"], "--queries"),
    (["--height", "0"], "--height"),
    (["--tissue-classes", "0"], "--tissue-classes"),
    (["--height", "1", "--levels", "2"], "--height"),
    (["--seed", "-1"], "--seed"),
    (["--d", HUGE, "--queries", "1", "--height", "1", "--width", "1", "--levels", "1",
      "--tissue-classes", "1"], "--d"),
    (["--queries", HUGE], "--queries"),
    (["--height", HUGE, "--levels", "3"], "--height"),
], ids=["levels-0", "d-0", "d-neg", "queries-0", "height-0", "tissue-classes-0",
        "height-below-pyramid", "seed-neg", "d-2-62", "queries-2-62", "height-2-62"])
def test_fusion_check_rejects_bad_arguments(capsys, flags, flag):
    assert main(["fusion-check", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert flag in lines[0]


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)", "74.5 GiB"),
    ("", "allocation failed"),
], ids=["numpy-message", "bare"])
def test_out_of_memory_is_one_line_and_exit_2(monkeypatch, capsys, message, shown):
    from tripletseg import fusion

    def self_check(*args):
        raise MemoryError(message)

    monkeypatch.setattr(fusion, "self_check", self_check)
    assert main(["fusion-check", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")
    assert shown in lines[0]


def _child_env() -> dict[str, str]:
    """An environment whose Python imports the same package as this
    process, installed or not, with OpenBLAS's thread count left unset."""
    src = str(Path(tripletseg.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


# after a command returns, its process runs one OS thread (Linux only)
ONE_THREAD_CHECK = (
    "    if os.path.isdir('/proc/self/task') and len(os.listdir('/proc/self/task')) != 1:\n"
    "        sys.exit(f'{argv[0]} left {len(os.listdir(\"/proc/self/task\"))} threads')\n"
)


def test_console_script_subprocess(gt_dir):
    result = subprocess.run(
        [sys.executable, "-m", "tripletseg.cli", "stats", "--gt", str(gt_dir)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0
    assert "6 annotated frames" in result.stdout


def test_validate_stats_align_never_load_numpy(gt_dir, tmp_path, schema):
    # nor dataclasses or inspect: records are NamedTuples or __slots__ classes;
    # nor statistics: compare takes its medians in plain Python
    # label and mask streams that align back into gt_dir
    labels = ["video_id,frame_id,triplet_id"]
    (tmp_path / "masks").mkdir()
    for path in sorted(gt_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        for frame in doc["frames"]:
            labels += [f"{doc['video_id']},{frame['frame_id']},{t}"
                       for t in frame["frame_triplets"]]
            for inst in frame["instances"]:
                del inst["triplet_id"]
        (tmp_path / "masks" / path.name).write_text(json.dumps(doc))
    (tmp_path / "labels.csv").write_text("\n".join(labels) + "\n")
    # recognition scoring is plain Python too, and only align imports alignment
    records = [{"video_id": video, "frame_id": f,
                "scores": [float(t == (0, 50, 94)[f]) for t in range(schema.n_triplets)]}
               for video in ("vid01", "vid02") for f in range(3)]
    (tmp_path / "rec.json").write_text(json.dumps(records))
    report = tmp_path / "report.json"
    # detection boxes come from the counts in plain Python: one mask, one bbox
    mask = json.loads((gt_dir / "vid01.json").read_text())["frames"][0]["instances"][0]["mask"]
    (tmp_path / "det.json").write_text(json.dumps([
        {"video_id": "vid01", "frame_id": 0, "triplet_id": 0, "score": 0.9, "mask": mask},
        {"video_id": "vid02", "frame_id": 1, "triplet_id": 50, "score": 0.8, "bbox": [1, 1, 4, 4]},
    ]))
    det_report = tmp_path / "det_report.json"
    seg_report = tmp_path / "seg_report.json"
    # compare matches and scores both methods in plain Python too, and the
    # Wilcoxon test needs no numpy
    (tmp_path / "rec_b.json").write_text(json.dumps(
        [{**r, "scores": r["scores"][-1:] + r["scores"][:-1]} for r in records]))
    _write_perfect_preds(gt_dir, tmp_path / "perfect.json")
    # seg masks intersect by merging their run lists in plain Python
    seg_b = json.loads((tmp_path / "perfect.json").read_text())[1:]
    (tmp_path / "seg_b.json").write_text(json.dumps(seg_b))
    pipeline = ["--gt", str(gt_dir), "--n-subsets", "2", "--subset-size", "3", "--out"]
    (tmp_path / "values_a.json").write_text("[91.3, 89.9, 90.9, 91.2]")
    (tmp_path / "values_b.json").write_text("[90.0, 90.0, 90.0, 90.0]")
    # a count that is no integer takes the slow check, which names it
    bad_gt = tmp_path / "bad_gt"
    bad_gt.mkdir()
    doc = json.loads((gt_dir / "vid01.json").read_text())
    doc["frames"][0]["instances"][0]["mask"]["counts"][1] = "4"
    (bad_gt / "vid01.json").write_text(json.dumps(doc))
    commands = [
        (0, ["validate", "--gt", str(gt_dir)]),
        (0, ["stats", "--gt", str(gt_dir)]),
        (0, ["eval", "--gt", str(gt_dir), "--preds", str(tmp_path / "rec.json"),
             "--mode", "rec", "--averaging", "per_video", "--out", str(report)]),
        (0, ["eval", "--gt", str(gt_dir), "--preds", str(tmp_path / "det.json"),
             "--mode", "det", "--out", str(det_report)]),
        (0, ["eval", "--gt", str(gt_dir), "--preds", str(tmp_path / "perfect.json"),
             "--mode", "seg", "--out", str(seg_report)]),
        (0, ["compare", "--mode", "seg", "--preds-a", str(tmp_path / "perfect.json"),
             "--preds-b", str(tmp_path / "seg_b.json"), *pipeline, str(tmp_path / "cmp_seg.json")]),
        (0, ["compare", "--mode", "det", "--preds-a", str(tmp_path / "perfect.json"),
             "--preds-b", str(tmp_path / "det.json"), *pipeline, str(tmp_path / "cmp_det.json")]),
        (0, ["compare", "--mode", "rec", "--preds-a", str(tmp_path / "rec.json"),
             "--preds-b", str(tmp_path / "rec_b.json"), *pipeline, str(tmp_path / "cmp_rec.json")]),
        (0, ["compare", "--values-a", str(tmp_path / "values_a.json"),
             "--values-b", str(tmp_path / "values_b.json"), "--out", str(tmp_path / "cmp.json")]),
        (1, ["validate", "--gt", str(bad_gt)]),
        (0, ["align", "--labels", str(tmp_path / "labels.csv"), "--masks",
             str(tmp_path / "masks"), "--out", str(tmp_path / "aligned")]),
    ]
    child = (
        "import json, os, sys\n"
        "from tripletseg.cli import main\n"
        "for code, argv in json.loads(sys.argv[1]):\n"
        "    if main(argv) != code:\n"
        "        sys.exit(f'{argv[0]} did not exit {code}')\n"
        "    names = ('dataclasses', 'inspect', 'numpy', 'statistics', 'tripletseg.alignment')\n"
        "    for name in names[:4 if argv[0] == 'align' else 5]:\n"
        "        if name in sys.modules:\n"
        "            sys.exit(f'{argv[0]} loaded {name}')\n"
        + ONE_THREAD_CHECK
    )
    result = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert "counts[1] is not an integer" in result.stderr
    assert json.loads(report.read_text())["components"]["IVT"]["mAP"] == 100.0
    assert json.loads(seg_report.read_text())["components"]["IVT"]["mAP"] == 100.0
    det_ivt = json.loads(det_report.read_text())["components"]["IVT"]
    assert det_ivt["per_class"] == {"0": 50.0, "50": 50.0, "94": 0.0}
    assert det_ivt["mAP"] == pytest.approx(100 / 3)
    for name in ("cmp_det.json", "cmp_rec.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert all(row["a"] == 100.0 > row["b"] for row in doc["per_subset"])
        assert doc["wilcoxon"] == {"W": 3.0, "n_effective": 2, "p_value": 0.25,
                                   "method": "exact"}
    assert json.loads((tmp_path / "cmp.json").read_text())["wilcoxon"]["p_value"] == 2 / 16
    for path in gt_dir.glob("*.json"):
        assert (tmp_path / "aligned" / path.name).read_bytes() == path.read_bytes()


def test_seg_eval_and_fusion_check_never_load_dataclasses(gt_dir, tmp_path):
    preds = _write_perfect_preds(gt_dir, tmp_path / "preds.json")
    child = (
        "import sys\n"
        "from tripletseg.cli import main\n"
        "for argv in (sys.argv[1:], ['fusion-check', '--seed', '0']):\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'{argv[0]} failed')\n"
        "    if 'dataclasses' in sys.modules:\n"
        "        sys.exit(f'{argv[0]} loaded dataclasses')\n"
        "    if argv[0] == 'eval' and 'numpy' in sys.modules:\n"
        "        sys.exit('eval --mode seg loaded numpy')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, "eval", "--gt", str(gt_dir), "--preds", str(preds),
         "--mode", "seg"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0, result.stderr


def test_numpy_commands_start_openblas_with_one_thread(tmp_path):
    # unless OPENBLAS_NUM_THREADS is set, which the CLI keeps; the pool's size
    # changes no output byte of fusion-check's matmuls, the one command on numpy
    child = (
        "import json, os, sys\n"
        "from tripletseg.cli import main\n"
        "threads, out, commands = sys.argv[1:]\n"
        "for argv in json.loads(commands):\n"
        "    if main([a.replace('{out}', out) for a in argv]) != 0:\n"
        "        sys.exit(f'{argv[0]} failed')\n"
        "    if 'numpy' not in sys.modules:\n"
        "        sys.exit(f'{argv[0]} did not load numpy')\n"
        "    if os.environ.get('OPENBLAS_NUM_THREADS') != threads:\n"
        "        sys.exit(f'{argv[0]} left OPENBLAS_NUM_THREADS at '\n"
        "                 f'{os.environ.get(\"OPENBLAS_NUM_THREADS\")!r}')\n"
        "    if threads != '1':\n"
        "        continue\n"
        + ONE_THREAD_CHECK
    )
    commands = [["fusion-check", "--seed", "0", "--json-out", "{out}/fusion.json"]]
    outputs = {}
    for threads in (None, "2"):
        out = tmp_path / f"out-{threads}"
        out.mkdir()
        env = _child_env()
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run(
            [sys.executable, "-c", child, threads or "1", str(out), json.dumps(commands)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert list(outputs[None]) == ["fusion.json"]
    assert outputs[None] == outputs["2"]


def test_library_use_leaves_the_environment_alone():
    # only cli.main caps OpenBLAS's threads; importing the package and
    # decoding a mask with numpy changes nothing
    child = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "from tripletseg.masks import RleMask, rle_decode\n"
        "mask = RleMask(height=4, width=4, counts=(5, 6, 5))\n"
        "if rle_decode(mask).sum() != 6 or 'numpy' not in sys.modules:\n"
        "    sys.exit('rle_decode did not run on numpy')\n"
        "if dict(os.environ) != before:\n"
        "    sys.exit('the environment changed')\n"
    )
    result = subprocess.run([sys.executable, "-c", child],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# never-panic fuzzing: every mutated input ends in exit 0, 1 or 2, and a
# failure is one stderr line that never comes from the catch-all branch

FUZZ_COMMANDS = tuple([*cmd.split(), "--schema", "{root}/schema.csv"] for cmd in (
    "validate --gt {root}/gt",
    "stats --gt {root}/gt",
    "align --labels {root}/labels.csv --masks {root}/masks --out {root}/aligned"
    " --report {root}/ambiguities.json",
    "eval --gt {root}/gt --preds {root}/seg.json --mode seg",
    "eval --gt {root}/gt --preds {root}/seg.json --mode det",
    "eval --gt {root}/gt --preds {root}/rec.json --mode rec",
    "compare --values-a {root}/values.json --values-b {root}/values_b.json",
    "compare --gt {root}/gt --preds-a {root}/seg.json --preds-b {root}/seg_b.json"
    " --mode seg --n-subsets 3 --subset-size 1",
))
FUZZ_TARGETS = ("gt/vid01.json", "masks/vid01.json", "labels.csv", "seg.json",
                "rec.json", "values.json", "schema.csv")
MASK_TARGETS = ("gt/vid01.json", "masks/vid01.json", "seg.json")
MUTATIONS = ("truncate", "drop", "wrong_type", "rle_sum", "huge", "nan",
             "non_utf8", "deep")
DEEP = "\x00deep\x00"


@pytest.fixture(scope="module")
def canonical_files(tmp_path_factory, schema):
    """Bytes of a small fixture that every FUZZ_COMMANDS entry accepts,
    so each failure the fuzz test sees comes from its one mutation."""
    root = tmp_path_factory.mktemp("canonical")
    frames = [
        FrameRecord(
            video_id="vid01", frame_id=f, width=W, height=H,
            instances=(GroundedInstance(
                instance_id=0, instrument_id=schema.project(tid, "i"),
                triplet_id=tid, mask=_mask(f, f),
            ),),
            frame_triplets=(tid,),
        )
        for f, tid in enumerate((0, 50, 94))
    ]
    write_ground_truth(frames, root / "gt")
    gt = json.loads((root / "gt" / "vid01.json").read_text())
    files = {"gt/vid01.json": (root / "gt" / "vid01.json").read_bytes()}
    seg = json.loads(_write_perfect_preds(root / "gt", root / "seg.json").read_text())
    files["seg.json"] = json.dumps(seg).encode()
    files["seg_b.json"] = json.dumps(seg[1:]).encode()
    for frame in gt["frames"]:
        for inst in frame["instances"]:
            del inst["triplet_id"]
    files["masks/vid01.json"] = json.dumps(gt).encode()
    files["labels.csv"] = b"video_id,frame_id,triplet_id\n" + b"".join(
        f"vid01,{r.frame_id},{r.frame_triplets[0]}\n".encode() for r in frames)
    files["rec.json"] = json.dumps([
        {"video_id": "vid01", "frame_id": r.frame_id,
         "scores": [float(t in r.frame_triplets) for t in range(schema.n_triplets)]}
        for r in frames
    ]).encode()
    files["values.json"] = b"[91.3, 89.9, 90.9, 91.2]"
    files["values_b.json"] = b"[90.0, 90.0, 90.0, 90.0]"
    schema_csv = Path(tripletseg.__file__).parent / "data" / "triplet_schema.csv"
    files["schema.csv"] = schema_csv.read_bytes()
    assert [code for _, code, _ in _run_commands(files)] == [0] * len(FUZZ_COMMANDS)
    return files


def _slots(node):
    """Every (container, key) pair of a JSON tree, parents first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    return [slot for key, value in items for slot in [(node, key), *_slots(value)]]


def _mutate(raw: bytes, name: str, kind: str, at: int, pick: int) -> bytes:
    """Apply one mutation; ``at`` chooses the position, ``pick`` the value."""
    if kind == "truncate":
        return raw[:at % len(raw)]
    if kind == "non_utf8":
        at %= len(raw) + 1
        return raw[:at] + b"\xff\xfe" + raw[at:]
    if name.endswith(".csv"):
        doc = list(csv.reader(io.StringIO(raw.decode(), newline="")))
        slots = [(row, i) for row in doc for i in range(len(row))]
    else:
        doc = json.loads(raw)
        slots = _slots(doc)
        if kind == "rle_sum":
            slots = [(c, k) for c, k in slots if k == "counts"]
    container, key = slots[at % len(slots)]
    if kind == "drop":
        del container[key]
    elif kind == "rle_sum":
        container[key][-1] += (-1, 1)[pick % 2]
    else:
        values = {
            "wrong_type": ["x", None, True, [], {}, 1.5],
            "huge": [2**63, 2**80, -(2**80), 10**400],
            "nan": [float("nan"), float("inf"), float("-inf")],
            "deep": [DEEP],
        }[kind]
        container[key] = values[pick % len(values)]
    depth = (50, 100_000)[pick % 2] if kind == "deep" else 0
    nested = "[" * depth + "]" * depth
    if name.endswith(".csv"):
        out = io.StringIO(newline="")
        csv.writer(out, lineterminator="\n").writerows(doc)
        return out.getvalue().replace(DEEP, nested).encode()
    return json.dumps(doc).replace(json.dumps(DEEP), nested).encode()


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _run_commands(files: dict[str, bytes]) -> list[tuple[list[str], int, list[str]]]:
    """Write the files to a fresh directory and run each FUZZ_COMMANDS entry
    on them. Returns each argv, its exit code, and its stderr lines plus the
    package's log records, which pytest keeps from reaching stderr."""
    records = _Records()
    package_log = logging.getLogger("tripletseg")
    package_log.addHandler(records)
    results = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, raw in files.items():
                (Path(tmp) / name).parent.mkdir(exist_ok=True)
                (Path(tmp) / name).write_bytes(raw)
            for cmd in FUZZ_COMMANDS:
                argv = [a.format(root=tmp) for a in cmd]
                err = io.StringIO()
                records.lines.clear()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
                results.append((argv, code, err.getvalue().splitlines() + records.lines))
    finally:
        package_log.removeHandler(records)
    return results


@given(kind=st.sampled_from(MUTATIONS), target=st.sampled_from(FUZZ_TARGETS),
       at=st.integers(0, 2**16), pick=st.integers(0, 11))
@example(kind="non_utf8", target="gt/vid01.json", at=0, pick=0)
@example(kind="non_utf8", target="seg.json", at=0, pick=0)
@example(kind="non_utf8", target="labels.csv", at=0, pick=0)
@example(kind="deep", target="seg.json", at=0, pick=1)
@example(kind="huge", target="schema.csv", at=7, pick=1)  # triplet id 2**80
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
def test_cli_never_panics_on_mutated_inputs(canonical_files, kind, target, at, pick):
    if kind == "rle_sum":  # only these files carry RLE counts
        target = MASK_TARGETS[FUZZ_TARGETS.index(target) % len(MASK_TARGETS)]
    files = dict(canonical_files)
    files[target] = _mutate(files[target], target, kind, at, pick)
    for argv, code, lines in _run_commands(files):
        assert code in (0, 1, 2), argv
        if code:
            assert len(lines) == 1, (argv, lines)
            assert "unexpected failure" not in lines[0]
