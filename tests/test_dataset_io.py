from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synth import micro_instance, rect_rle
from tripletseg.dataset_io import (
    DetectionRecord,
    FrameRecord,
    GroundedInstance,
    _parse_detection,
    _parse_recognition,
    dataset_stats,
    load_json,
    parse_video_file,
    read_ground_truth,
    read_predictions,
    write_ground_truth,
)
from tripletseg.errors import DatasetError
from tripletseg.masks import RleMask
from tripletseg.schema import TripletSchema


def _video_doc(schema):
    """Two-frame video over an 8x6 grid; triplet 0 is instrument 0."""
    h, w = 8, 6
    mask_a = rect_rle(h, w, 1, 1, 3, 2).to_json_dict()
    mask_b = rect_rle(h, w, 4, 3, 2, 2).to_json_dict()
    tid = 0
    instrument = schema.project(tid, "i")
    return {
        "video_id": "vid0",
        "width": w,
        "height": h,
        "frames": [
            {
                "frame_id": 3,
                "frame_triplets": [tid, 50],
                "instances": [
                    {
                        "instance_id": 0,
                        "instrument_id": instrument,
                        "triplet_id": tid,
                        "flags": [],
                        "mask": mask_a,
                    },
                    {
                        "instance_id": 1,
                        "instrument_id": 2,
                        "triplet_id": None,
                        "flags": ["unmatched"],
                        "mask": mask_b,
                    },
                ],
            },
            {"frame_id": 1, "frame_triplets": [], "instances": []},
        ],
    }


@pytest.fixture()
def gt_dir(tmp_path, schema):
    doc = _video_doc(schema)
    (tmp_path / "vid0.json").write_text(json.dumps(doc), encoding="utf-8")
    doc2 = {
        "video_id": "vid1",
        "width": 6,
        "height": 8,
        "frames": [{"frame_id": 0, "frame_triplets": [], "instances": []}],
    }
    (tmp_path / "vid1.json").write_text(json.dumps(doc2), encoding="utf-8")
    return tmp_path


def test_read_ground_truth_sorted(gt_dir, schema):
    frames = read_ground_truth(gt_dir, schema)
    assert [(r.video_id, r.frame_id) for r in frames] == [
        ("vid0", 1), ("vid0", 3), ("vid1", 0)
    ]
    rec = frames[1]
    assert rec.width == 6 and rec.height == 8
    assert rec.frame_triplets == (0, 50)
    assert rec.instances[0].triplet_id == 0
    assert rec.instances[1].flags == frozenset({"unmatched"})


def test_missing_directory_is_oserror(tmp_path, schema):
    with pytest.raises(FileNotFoundError):
        read_ground_truth(tmp_path / "nope", schema)


def test_instrument_triplet_consistency_error(tmp_path, schema):
    doc = _video_doc(schema)
    doc["frames"][0]["instances"][0]["instrument_id"] = 5
    (tmp_path / "vid0.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match=r"instances\[0\].*instrument"):
        read_ground_truth(tmp_path, schema)


def test_bad_mask_error_names_instance(tmp_path, schema):
    doc = _video_doc(schema)
    doc["frames"][0]["instances"][1]["mask"]["counts"] = [5, 5]
    (tmp_path / "vid0.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match=r"instances\[1\]\.mask"):
        read_ground_truth(tmp_path, schema)


def test_duplicate_instance_id_rejected(tmp_path, schema):
    doc = _video_doc(schema)
    doc["frames"][0]["instances"][1]["instance_id"] = 0
    (tmp_path / "vid0.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="duplicate instance_id"):
        read_ground_truth(tmp_path, schema)


def test_frame_triplets_superset_enforced(tmp_path, schema):
    doc = _video_doc(schema)
    doc["frames"][0]["frame_triplets"] = [50]
    (tmp_path / "vid0.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="absent from"):
        read_ground_truth(tmp_path, schema)


def test_video_id_must_match_filename(tmp_path, schema):
    doc = _video_doc(schema)
    (tmp_path / "other.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="does not match file name"):
        read_ground_truth(tmp_path, schema)


def test_empty_mask_rejected(tmp_path, schema):
    doc = _video_doc(schema)
    doc["frames"][0]["instances"][0]["mask"] = {"size": [8, 6], "counts": [48]}
    (tmp_path / "vid0.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="empty mask"):
        read_ground_truth(tmp_path, schema)


def test_mask_size_must_match_frame(tmp_path, schema):
    doc = _video_doc(schema)
    doc["frames"][0]["instances"][0]["mask"] = {"size": [4, 6], "counts": [0, 24]}
    (tmp_path / "vid0.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="does not match frame"):
        read_ground_truth(tmp_path, schema)


def test_writer_rejects_a_video_of_two_frame_sizes(tmp_path):
    frames = [FrameRecord("v", f, w, 8, (), ()) for f, w in enumerate((6, 7))]
    with pytest.raises(DatasetError) as info:
        write_ground_truth(frames, tmp_path / "gt")
    assert str(info.value) == "video v: inconsistent frame sizes [(6, 8), (7, 8)]"
    assert not (tmp_path / "gt" / "v.json").exists()


def test_write_read_round_trip_byte_stable(tmp_path, gt_dir, schema):
    frames = read_ground_truth(gt_dir, schema)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    write_ground_truth(frames, out1)
    frames2 = read_ground_truth(out1, schema)
    assert frames2 == frames
    write_ground_truth(frames2, out2)
    for path1 in sorted(out1.glob("*.json")):
        path2 = out2 / path1.name
        assert path1.read_bytes() == path2.read_bytes()


def _reference_texts(frames):
    """Each video's file name and the text ``json.dumps(indent=2)`` gives
    for its canonical document: the writer's byte-for-byte reference."""
    texts = {}
    for video_id in sorted({r.video_id for r in frames}):
        recs = sorted((r for r in frames if r.video_id == video_id), key=lambda r: r.frame_id)
        doc = {
            "video_id": video_id,
            "width": recs[0].width,
            "height": recs[0].height,
            "frames": [{
                "frame_id": r.frame_id,
                "frame_triplets": sorted(r.frame_triplets),
                "instances": [{
                    "instance_id": g.instance_id,
                    "instrument_id": g.instrument_id,
                    "triplet_id": g.triplet_id,
                    "flags": sorted(g.flags),
                    "mask": g.mask.to_json_dict(),
                } for g in sorted(r.instances, key=lambda g: g.instance_id)],
            } for r in recs],
        }
        texts[f"{video_id}.json"] = json.dumps(doc, indent=2) + "\n"
    return texts


def test_writer_matches_reference_encoder(tmp_path):
    # the writer lays out json.dumps(indent=2)'s layout itself; the plain
    # encoder over the whole document is the reference
    flags = frozenset({'say "hi"', "back\\slash", "naïve 胆囊", "nul\x00",
                       '"counts": ', '"counts": []'})
    full = RleMask(height=3, width=4, counts=(0, 12))
    pixel = RleMask(height=3, width=4, counts=(5, 1, 6))
    frames = [
        FrameRecord(video_id='vid "é"', frame_id=2, width=4, height=3, instances=(
            GroundedInstance(instance_id=1, instrument_id=0, triplet_id=None,
                             mask=full, flags=flags),
            GroundedInstance(instance_id=0, instrument_id=2, triplet_id=17, mask=pixel),
        ), frame_triplets=(17, 3)),
        FrameRecord(video_id='vid "é"', frame_id=0, width=4, height=3,
                    instances=(), frame_triplets=()),
        FrameRecord(video_id="vid01", frame_id=5, width=4, height=3, instances=(
            GroundedInstance(instance_id=3, instrument_id=1, triplet_id=None, mask=pixel),
        ), frame_triplets=(9,)),
    ]
    written = write_ground_truth(frames, tmp_path)
    assert [p.name for p in written] == ['vid "é".json', "vid01.json"]
    reference = _reference_texts(frames)
    for path in written:
        assert path.read_bytes() == reference[path.name].encode()


def _runs(bits):
    """Column-major counts of a flat mask: background first, so a mask
    that starts with foreground leads with 0 and an empty one is one count."""
    counts, value, run = [], False, 0
    for bit in bits:
        if bit != value:
            counts.append(run)
            value, run = bit, 0
        run += 1
    return [*counts, run]


# quotes, backslashes, control characters, non-ASCII text, lone surrogates
_FLAG_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t é胆\u2028\U0001f600'),
    st.integers(0xD800, 0xDFFF).map(chr),
    st.characters(),
)


@st.composite
def _instance(draw, instance_id, height, width):
    bits = draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width))
    return GroundedInstance(
        instance_id=instance_id,
        instrument_id=draw(st.integers(0, 5)),
        triplet_id=draw(st.none() | st.integers(0, 99)),
        mask=RleMask(height=height, width=width, counts=_runs(bits)),
        flags=draw(st.frozensets(st.text(_FLAG_CHARS, max_size=4), max_size=3)),
    )


@st.composite
def _videos(draw):
    """Frames of up to three videos, in a drawn order, with frames and
    instances unsorted."""
    frames = []
    for video_id in draw(st.lists(st.sampled_from(["vid01", "v2", 'q "é"', "b\\s"]),
                                  min_size=1, max_size=3, unique=True)):
        height, width = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        for frame_id in draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True)):
            ids = draw(st.lists(st.integers(0, 9), max_size=3, unique=True))
            frames.append(FrameRecord(
                video_id=video_id, frame_id=frame_id, width=width, height=height,
                instances=tuple(draw(_instance(i, height, width)) for i in ids),
                frame_triplets=tuple(draw(st.lists(st.integers(0, 99), max_size=4))),
            ))
    return draw(st.permutations(frames))


def _instance_with(**fields):
    fields = {"instrument_id": 0, "triplet_id": None, **fields}
    return GroundedInstance(**fields)


@given(frames=_videos())
@example(frames=[  # one of each case the writer must lay out as json.dumps does
    FrameRecord("v2", 9, 1, 1, (), (3, 1, 3)),
    FrameRecord("vid01", 4, 3, 2, (
        _instance_with(instance_id=5, triplet_id=17, mask=RleMask(2, 3, (0, 2, 4)),
                       flags=frozenset({'q"', "b\\", "c\x01", "é胆", "\ud800", "z\udfff"})),
        _instance_with(instance_id=2, mask=RleMask(2, 3, (6,))),
    ), ()),
    FrameRecord("vid01", 1, 3, 2, (), (40,)),
    FrameRecord("v2", 0, 1, 1, (_instance_with(instance_id=0, mask=RleMask(1, 1, (0, 1))),), ()),
])
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_writer_output_is_json_dumps_indent2(frames):
    reference = _reference_texts(frames)
    with tempfile.TemporaryDirectory() as tmp:
        written = write_ground_truth(frames, tmp)
        assert [p.name for p in written] == list(reference)
        assert sorted(p.name for p in Path(tmp).iterdir()) == sorted(reference)
        for path in written:
            assert path.read_bytes() == reference[path.name].encode()


def test_read_predictions_seg(tmp_path, schema):
    mask = rect_rle(8, 6, 0, 0, 2, 2).to_json_dict()
    doc = [
        {"video_id": "v", "frame_id": 0, "triplet_id": 3, "score": 0.5,
         "mask": mask, "bbox": None},
        {"video_id": "v", "frame_id": 1, "triplet_id": 5, "score": 1.0,
         "mask": mask, "bbox": [0, 0, 2, 2]},
    ]
    path = tmp_path / "preds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    records = read_predictions(path, "seg", schema)
    assert len(records) == 2
    assert records[0].mask is not None and records[0].bbox is None
    assert records[1].bbox is not None


def test_read_predictions_bbox_only_det(tmp_path, schema):
    doc = [{"video_id": "v", "frame_id": 0, "triplet_id": 3, "score": 0.5,
            "mask": None, "bbox": [1, 2, 3, 4]}]
    path = tmp_path / "preds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    records = read_predictions(path, "det", schema)
    assert records[0].mask is None
    assert (records[0].bbox.x, records[0].bbox.y) == (1, 2)


def test_read_predictions_requires_geometry(tmp_path, schema):
    doc = [{"video_id": "v", "frame_id": 0, "triplet_id": 3, "score": 0.5,
            "mask": None, "bbox": None}]
    path = tmp_path / "preds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="mask or a bbox"):
        read_predictions(path, "det", schema)


def test_read_predictions_score_range(tmp_path, schema):
    doc = [{"video_id": "v", "frame_id": 0, "triplet_id": 3, "score": 1.5,
            "mask": None, "bbox": [0, 0, 1, 1]}]
    path = tmp_path / "preds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="outside"):
        read_predictions(path, "det", schema)


def test_read_predictions_rec(tmp_path, schema):
    scores = [0.0] * schema.n_triplets
    scores[7] = 0.9
    doc = [{"video_id": "v", "frame_id": 0, "scores": scores}]
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    records = read_predictions(path, "rec", schema)
    assert records[0].scores[7] == 0.9


@pytest.mark.parametrize(
    "text, message",
    [
        ("true", "scores[5]: expected a number, got bool"),
        ('"0.5"', "scores[5]: expected a number, got str"),
        ("NaN", "scores[5]: non-finite value"),
        ("Infinity", "scores[5]: non-finite value"),
        ("-0.1", "scores[5]: -0.1 outside [0, 1]"),
        ("1.5", "scores[5]: 1.5 outside [0, 1]"),
        ("1" + "0" * 400, "scores[5]: number out of range"),
    ],
    ids=["true", "string", "nan", "infinity", "negative", "above-one", "huge-int"],
)
def test_read_predictions_rec_bad_score(tmp_path, schema, text, message):
    # a NaN between in-range values passes min() and max(), so only the
    # sum catches it on the fast path
    scores = ["0.5"] * schema.n_triplets
    scores[5] = text
    path = tmp_path / "rec.json"
    path.write_text(
        '[{"video_id": "v", "frame_id": 0, "scores": [' + ", ".join(scores) + "]}]",
        encoding="utf-8",
    )
    with pytest.raises(DatasetError) as info:
        read_predictions(path, "rec", schema)
    assert str(info.value) == f"{path}[0].{message}"


def test_read_predictions_rec_score_values(tmp_path, schema):
    scores = [0.25] * schema.n_triplets
    scores[1:4] = [0, 1, -0.0]
    path = tmp_path / "rec.json"
    path.write_text(json.dumps([{"video_id": "v", "frame_id": 0, "scores": scores}]),
                    encoding="utf-8")
    (record,) = read_predictions(path, "rec", schema)
    assert [repr(s) for s in record.scores[:5]] == ["0.25", "0.0", "1.0", "-0.0", "0.25"]
    assert all(type(s) is float for s in record.scores)
    # a vocabulary of no triplets takes the checking loop, not min([])
    empty = _parse_recognition({"video_id": "v", "frame_id": 0, "scores": []}, "rec", 0)
    assert empty.scores == ()


def test_read_predictions_rec_duplicate(tmp_path, schema):
    scores = [0.0] * schema.n_triplets
    doc = [
        {"video_id": "v", "frame_id": 0, "scores": scores},
        {"video_id": "v", "frame_id": 0, "scores": scores},
    ]
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="duplicate record"):
        read_predictions(path, "rec", schema)


def test_read_predictions_rec_wrong_length(tmp_path, schema):
    doc = [{"video_id": "v", "frame_id": 0, "scores": [0.5] * 99}]
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="exactly 100 scores"):
        read_predictions(path, "rec", schema)


def test_mask_stream_shape_allows_missing_triplet(tmp_path, schema):
    doc = _video_doc(schema)
    for frame in doc["frames"]:
        for inst in frame["instances"]:
            del inst["triplet_id"]
        frame["frame_triplets"] = []
    path = tmp_path / "vid0.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="missing triplet_id"):
        parse_video_file(path, schema)
    frames = parse_video_file(path, schema, require_triplet_field=False)
    assert all(g.triplet_id is None for r in frames for g in r.instances)


def test_dataset_stats_counts(gt_dir, schema):
    frames = read_ground_truth(gt_dir, schema)
    summary = dataset_stats(frames, schema)
    assert summary.n_frames == 3
    assert summary.n_instances == 2
    assert summary.n_grounded == 1
    assert summary.per_video["vid0"] == {
        "frames": 2, "instances": 2, "grounded_triplets": 1
    }
    assert summary.histograms["ivt"] == {0: 1}
    assert summary.histograms["i"] == {schema.project(0, "i"): 1}
    assert "3 annotated frames and 1 spatially grounded triplets" in (
        summary.render_text()
    )


def test_dataset_stats_empty(schema):
    summary = dataset_stats([], schema)
    assert summary.n_frames == 0
    assert summary.n_instances == 0
    assert summary.n_grounded == 0
    assert summary.histograms == {"i": {}, "v": {}, "t": {}, "ivt": {}}


def test_dataset_stats_order_invariant(rng, schema):
    frames, _ = micro_instance(rng, schema)
    a = dataset_stats(frames, schema)
    b = dataset_stats(list(reversed(frames)), schema)
    assert a.n_frames == b.n_frames
    assert a.n_instances == b.n_instances
    assert a.n_grounded == b.n_grounded
    assert a.histograms == b.histograms


def test_detection_record_validation_via_file(tmp_path, schema):
    doc = [{"video_id": "v", "frame_id": 0, "triplet_id": 999, "score": 0.5,
            "mask": None, "bbox": [0, 0, 1, 1]}]
    path = tmp_path / "preds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="unknown triplet"):
        read_predictions(path, "det", schema)


# prediction files are read record by record


def _reference_read(path, mode, schema):
    """The reader's contract, built from parts: the whole document first,
    then each record in file order."""
    doc = load_json(path)
    if not isinstance(doc, list):
        raise DatasetError(f"{path}: top level must be an array of records")
    if mode != "rec":
        return [_parse_detection(obj, f"{path}[{idx}]", schema) for idx, obj in enumerate(doc)]
    records, seen = [], set()
    for idx, obj in enumerate(doc):
        rec = _parse_recognition(obj, f"{path}[{idx}]", schema.n_triplets)
        key = (rec.video_id, rec.frame_id)
        if key in seen:
            raise DatasetError(f"{path}[{idx}]: duplicate record for frame {key}")
        seen.add(key)
        records.append(rec)
    return records


def _outcome(read, path, mode, schema):
    try:
        return read(path, mode, schema)
    except DatasetError as exc:
        return str(exc)


SMALL_REC_SCHEMA = TripletSchema(
    n_triplets=3, n_instruments=1, n_verbs=2, n_targets=2,
    triplets={0: (0, 0, 0), 1: (0, 1, 0), 2: (0, 1, 1)},
    instrument_names={0: "a"}, verb_names={0: "b", 1: "c"}, target_names={0: "d", 1: "e"},
)


@pytest.mark.parametrize("mode", ["seg", "rec"])
def test_read_predictions_every_cut_and_deletion_reports_as_before(tmp_path, schema, mode):
    if mode == "seg":
        mask = rect_rle(8, 6, 1, 1, 2, 2).to_json_dict()
        doc = [
            {"video_id": "v", "frame_id": 0, "triplet_id": 3, "score": 0.5, "mask": mask},
            {"video_id": "v", "frame_id": 1, "triplet_id": 5, "score": 1,
             "mask": None, "bbox": [0, 0, 2, 2]},
        ]
    else:
        schema = SMALL_REC_SCHEMA
        doc = [{"video_id": "v", "frame_id": f, "scores": [0.5, 0, 1]} for f in range(2)]
    # two layouts, so the whitespace JSON allows around punctuation is covered
    texts = [json.dumps(doc), " " + json.dumps(doc, indent=1) + "\n"]
    path = tmp_path / "preds.json"
    variants = {t[:i] for t in texts for i in range(len(t))}
    variants |= {t[:i] + t[i + 1:] for t in texts for i in range(len(t))}
    faults = 0
    for text in sorted(variants):
        path.write_text(text, encoding="utf-8")
        want = _outcome(_reference_read, path, mode, schema)
        assert _outcome(read_predictions, path, mode, schema) == want, text
        faults += isinstance(want, str)
    assert faults > len(variants) // 2


def test_read_predictions_faults_reported_in_file_order(tmp_path, schema):
    # record 0 is bad and the array is never closed: the first fault wins
    path = tmp_path / "preds.json"
    path.write_text('[{"video_id": 7}, {"video_id": "v"', encoding="utf-8")
    with pytest.raises(DatasetError) as info:
        read_predictions(path, "det", schema)
    assert str(info.value) == f"{path}[0].video_id: expected a string, got int"


def test_read_predictions_peaks_below_decoded_document(tmp_path, schema):
    # counts above 256 are int objects of their own once decoded
    rng = np.random.default_rng(5)
    doc = []
    for f in range(300):
        counts = rng.integers(300, 900, size=200).tolist()
        counts.append(480 * 854 - sum(counts))
        doc.append({"video_id": "v", "frame_id": f, "triplet_id": 3, "score": 0.5,
                    "mask": {"size": [480, 854], "counts": counts}})
    text = json.dumps(doc)
    path = tmp_path / "preds.json"
    path.write_text(text, encoding="utf-8")
    del doc
    tracemalloc.start()
    try:
        decoded = json.loads(text)
        decoded_size = tracemalloc.get_traced_memory()[0]
        del decoded
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        records = read_predictions(path, "seg", schema)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(records) == 300
    assert peak < decoded_size
