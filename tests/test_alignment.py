from __future__ import annotations

import json
from collections import Counter

import pytest

from synth import rect_rle
from tripletseg.alignment import (
    InstanceMaskFrame,
    TripletLabelFrame,
    align_frames,
    alignment_stats,
    read_label_stream,
    read_mask_stream,
)
from tripletseg.errors import AlignmentError, DatasetError

H, W = 12, 10


def _mask_frame(video_id, frame_id, instances):
    return InstanceMaskFrame(
        video_id=video_id,
        frame_id=frame_id,
        width=W,
        height=H,
        instances=tuple(instances),
    )


def _inst(instance_id, instrument_id, offset=0):
    return (instance_id, instrument_id,
            rect_rle(H, W, 1 + offset, 1 + offset, 3, 3))


def _label_frame(video_id, frame_id, triplets):
    return TripletLabelFrame(
        video_id=video_id, frame_id=frame_id, triplets=tuple(sorted(triplets))
    )


def _first_triplet_of_instrument(schema, instrument, count=1):
    tids = [t for t, (i, _, _) in sorted(schema.triplets.items()) if i == instrument]
    return tids[:count]


def test_unique_match_assigned(schema):
    (tid,) = _first_triplet_of_instrument(schema, 0)
    labels = [_label_frame("v", 0, [tid])]
    masks = [_mask_frame("v", 0, [_inst(0, 0)])]
    frames, report = align_frames(labels, masks, schema)
    assert len(frames) == 1
    assert report.entries == ()
    g = frames[0].instances[0]
    assert g.triplet_id == tid
    assert g.flags == frozenset()
    assert frames[0].frame_triplets == (tid,)


def test_two_instances_one_triplet_blocked(schema):
    (tid,) = _first_triplet_of_instrument(schema, 0)
    labels = [_label_frame("v", 0, [tid])]
    masks = [_mask_frame("v", 0, [_inst(0, 0), _inst(1, 0, offset=4)])]
    frames, report = align_frames(labels, masks, schema)
    kinds = [e.kind for e in report.entries]
    assert kinds == ["MultiInstanceOneTriplet"]
    for g in frames[0].instances:
        assert g.triplet_id is None
        assert g.flags == frozenset({"ambiguous"})
    # the label still appears at frame level
    assert frames[0].frame_triplets == (tid,)


def test_two_triplets_one_instance_blocked(schema):
    tid_a, tid_b = _first_triplet_of_instrument(schema, 0, count=2)
    labels = [_label_frame("v", 0, [tid_a, tid_b])]
    masks = [_mask_frame("v", 0, [_inst(0, 0)])]
    frames, report = align_frames(labels, masks, schema)
    kinds = Counter(e.kind for e in report.entries)
    assert kinds == {"MultiTripletOneInstance": 2}
    assert frames[0].instances[0].triplet_id is None
    assert frames[0].instances[0].flags == frozenset({"ambiguous"})


def test_triplet_without_instance(schema):
    tid_scissors = _first_triplet_of_instrument(schema, 3)[0]
    labels = [_label_frame("v", 0, [tid_scissors])]
    masks = [_mask_frame("v", 0, [])]
    frames, report = align_frames(labels, masks, schema)
    assert [e.kind for e in report.entries] == ["TripletWithoutInstance"]
    assert frames[0].instances == ()
    assert frames[0].frame_triplets == (tid_scissors,)


def test_instance_without_triplet(schema):
    labels = [_label_frame("v", 0, [])]
    masks = [_mask_frame("v", 0, [_inst(0, 4)])]
    frames, report = align_frames(labels, masks, schema)
    assert [e.kind for e in report.entries] == ["InstanceWithoutTriplet"]
    g = frames[0].instances[0]
    assert g.triplet_id is None
    assert g.flags == frozenset({"unmatched"})


def test_frame_missing_in_one_source(schema):
    (tid,) = _first_triplet_of_instrument(schema, 0)
    labels = [_label_frame("v", 0, [tid]), _label_frame("v", 1, [tid])]
    masks = [_mask_frame("v", 0, [_inst(0, 0)]), _mask_frame("v", 2, [_inst(0, 0)])]
    frames, report = align_frames(labels, masks, schema)
    assert [(r.video_id, r.frame_id) for r in frames] == [("v", 0)]
    kinds = Counter(e.kind for e in report.entries)
    assert kinds["FrameMissingInOneSource"] == 2
    # labels on unmatched frames do not enter the rate denominator
    summary = alignment_stats(report, frames)
    assert summary["assigned"] == 1
    assert summary["total_labels_on_matched_frames"] == 1
    assert summary["assignment_rate"] == 1.0


def test_multiset_labels_two_identical_triplets(schema):
    # two identical labels of the same instrument with one instance:
    # blocked as MultiTripletOneInstance, multiplicity respected
    (tid,) = _first_triplet_of_instrument(schema, 0)
    labels = [_label_frame("v", 0, [tid, tid])]
    masks = [_mask_frame("v", 0, [_inst(0, 0)])]
    frames, report = align_frames(labels, masks, schema)
    kinds = Counter(e.kind for e in report.entries)
    assert kinds == {"MultiTripletOneInstance": 2}
    assert frames[0].frame_triplets == (tid, tid)


def test_never_invents_labels(schema):
    (tid,) = _first_triplet_of_instrument(schema, 0)
    labels = [_label_frame("v", 0, [tid])]
    masks = [_mask_frame("v", 0, [_inst(0, 0), _inst(1, 2, offset=2)])]
    frames, report = align_frames(labels, masks, schema)
    assigned = [g.triplet_id for r in frames for g in r.instances
                if g.triplet_id is not None]
    assert assigned == [tid]
    # the class-2 instance had no labels of its class
    kinds = Counter(e.kind for e in report.entries)
    assert kinds == {"InstanceWithoutTriplet": 1}


def test_unsorted_streams_rejected(schema):
    (tid,) = _first_triplet_of_instrument(schema, 0)
    labels = [_label_frame("v", 1, [tid]), _label_frame("v", 0, [tid])]
    with pytest.raises(AlignmentError, match="not sorted"):
        align_frames(labels, [], schema)
    masks = [_mask_frame("v", 0, []), _mask_frame("v", 0, [])]
    with pytest.raises(AlignmentError, match="duplicate"):
        align_frames([], masks, schema)


def test_mixed_fixture_hand_enumeration(schema):
    t0 = _first_triplet_of_instrument(schema, 0)[0]     # grasper class
    t1a, t1b = _first_triplet_of_instrument(schema, 1, 2)  # bipolar class
    t3 = _first_triplet_of_instrument(schema, 3)[0]     # scissors class
    labels = [
        _label_frame("v", 0, [t0, t1a, t1b, t3]),
        _label_frame("v", 1, [t0]),
    ]
    masks = [
        _mask_frame("v", 0, [
            _inst(0, 0),                 # unique: assigned t0
            _inst(1, 1), _inst(2, 1, 3),  # one instrument class, labels t1a+t1b
            # no scissors instance: t3 dangles
            _inst(3, 5, 5),              # irrigator with no labels
        ]),
        _mask_frame("v", 1, [_inst(0, 0)]),
    ]
    frames, report = align_frames(labels, masks, schema)
    kinds = Counter(e.kind for e in report.entries)
    # two bipolar instances AND two bipolar labels: instance-side ambiguity wins
    assert kinds == {
        "MultiInstanceOneTriplet": 2,
        "TripletWithoutInstance": 1,
        "InstanceWithoutTriplet": 1,
    }
    summary = alignment_stats(report, frames)
    assert summary["assigned"] == 2
    assert summary["total_labels_on_matched_frames"] == 5
    assert summary["assignment_rate"] == pytest.approx(0.4)


def test_conservation_identity(schema, rng):
    # random streams: every label on a matched frame lands in exactly one bucket
    all_tids = sorted(schema.triplets)
    labels = []
    masks = []
    for v in range(3):
        vid = f"v{v}"
        for f in range(10):
            tids = [int(t) for t in rng.choice(all_tids, size=int(rng.integers(0, 5)))]
            if rng.random() < 0.8:
                labels.append(_label_frame(vid, f, tids))
            insts = []
            for i in range(int(rng.integers(0, 4))):
                insts.append(_inst(i, int(rng.integers(0, 6)), offset=i))
            if rng.random() < 0.8:
                masks.append(_mask_frame(vid, f, insts))
    frames, report = align_frames(labels, masks, schema)
    counts = report.counts()
    label_map = {(lf.video_id, lf.frame_id): lf for lf in labels}
    mask_keys = {(mf.video_id, mf.frame_id) for mf in masks}
    total_matched_labels = sum(
        len(lf.triplets) for key, lf in label_map.items() if key in mask_keys
    )
    assigned = sum(
        1 for r in frames for g in r.instances if g.triplet_id is not None
    )
    assert assigned + counts["MultiInstanceOneTriplet"] + counts[
        "MultiTripletOneInstance"] + counts["TripletWithoutInstance"] == (
        total_matched_labels
    )


def test_parallel_alignment_identical(schema, rng):
    all_tids = sorted(schema.triplets)
    labels = []
    masks = []
    for v in range(4):
        vid = f"v{v}"
        for f in range(6):
            tids = [int(t) for t in rng.choice(all_tids, size=int(rng.integers(0, 4)))]
            labels.append(_label_frame(vid, f, tids))
            insts = [
                _inst(i, int(rng.integers(0, 6)), offset=i)
                for i in range(int(rng.integers(0, 3)))
            ]
            masks.append(_mask_frame(vid, f, insts))
    frames1, report1 = align_frames(labels, masks, schema, jobs=1)
    frames3, report3 = align_frames(labels, masks, schema, jobs=3)
    assert frames1 == frames3
    assert report1 == report3


def test_label_stream_reader(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "video_id,frame_id,triplet_id\n"
        "v,1,10\n"
        "v,0,3\n"
        "v,0,3\n"
        "w,0,5\n",
        encoding="utf-8",
    )
    frames = read_label_stream(path)
    assert [(f.video_id, f.frame_id, f.triplets) for f in frames] == [
        ("v", 0, (3, 3)), ("v", 1, (10,)), ("w", 0, (5,)),
    ]


def test_label_stream_rejects_bad_rows(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("video_id,frame_id,triplet_id\nv,x,1\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="non-integer"):
        read_label_stream(path)
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="bad header"):
        read_label_stream(path)


@pytest.mark.parametrize("field", ["1_2", "\u0661\u0662", "\uff11\uff12", "\u00b2", "+-1", "", " "],
                         ids=["underscore", "arabic-indic", "fullwidth", "superscript",
                              "two-signs", "empty", "blank"])
@pytest.mark.parametrize("column", [1, 2])
def test_label_stream_rejects_non_plain_integers(tmp_path, field, column):
    # int() would read 1_2 and the Arabic-Indic or fullwidth digits as 12
    row = ["v", "0", "0"]
    row[column] = field
    path = tmp_path / "labels.csv"
    path.write_text("video_id,frame_id,triplet_id\n" + ",".join(row) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=f"labels.csv:2: non-integer field$"):
        read_label_stream(path)


def test_label_stream_allows_sign_and_whitespace(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("video_id,frame_id,triplet_id\nv, +12 ,\t007\n", encoding="utf-8")
    assert [(f.frame_id, f.triplets) for f in read_label_stream(path)] == [(12, (7,))]


def test_mask_stream_rejects_assigned_triplets(tmp_path, schema):
    doc = {
        "video_id": "v",
        "width": W,
        "height": H,
        "frames": [{
            "frame_id": 0,
            "frame_triplets": [0],
            "instances": [{
                "instance_id": 0,
                "instrument_id": schema.project(0, "i"),
                "triplet_id": 0,
                "flags": [],
                "mask": rect_rle(H, W, 0, 0, 2, 2).to_json_dict(),
            }],
        }],
    }
    (tmp_path / "v.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(AlignmentError, match="already carries"):
        read_mask_stream(tmp_path, schema)
