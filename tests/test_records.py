"""The record contract: every record class is immutable, equal records
compare and hash equal, records copy and pickle, and the validating classes
check ``_replace`` too."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from tripletseg.alignment import (
    AmbiguityEntry,
    AmbiguityReport,
    InstanceMaskFrame,
    TripletLabelFrame,
)
from tripletseg.dataset_io import (
    DetectionRecord,
    FrameRecord,
    GroundedInstance,
    RecognitionRecord,
    StatsSummary,
)
from tripletseg.errors import EvaluationError, MaskError
from tripletseg.evaluation import ClassRows, ComponentResult, EvalConfig, EvalReport, MatchTable
from tripletseg.fusion import FusionParams, GradCheckReport
from tripletseg.masks import BBox, RleMask
from tripletseg.schema import TripletSchema
from tripletseg.stats import ComparisonResult, SubsetPartition, WilcoxonResult


def _mask():
    return RleMask(height=2, width=3, counts=[1, 2, 3])


def _instance():
    return GroundedInstance(instance_id=1, instrument_id=0, triplet_id=3, mask=_mask(),
                            flags=frozenset({"ambiguous"}))


def _wilcoxon():
    return WilcoxonResult(statistic=3.0, n_effective=2, p_value=0.25, method="exact")


def _rows():
    return ClassRows(frame=[[0]], score=[[0.5]], tp=[[True]], gt_frame=[[0]])


# (factory, hashable): each factory builds a new, equal record per call;
# records that hold dicts, lists or arrays are not hashable
RECORDS = {
    "RleMask": (_mask, True),
    "BBox": (lambda: BBox(x=0, y=1, w=2, h=3), True),
    "TripletSchema": (lambda: TripletSchema(
        n_triplets=2, n_instruments=1, n_verbs=1, n_targets=2,
        triplets={0: (0, 0, 0), 1: (0, 0, 1)}, instrument_names={0: "a"},
        verb_names={0: "b"}, target_names={0: "c", 1: "d"}), False),
    "GroundedInstance": (_instance, True),
    "FrameRecord": (lambda: FrameRecord(video_id="v", frame_id=0, width=3, height=2,
                                        instances=(_instance(),), frame_triplets=(3,)), True),
    "DetectionRecord": (lambda: DetectionRecord(video_id="v", frame_id=0, triplet_id=3,
                                                score=0.5, mask=_mask()), True),
    "RecognitionRecord": (lambda: RecognitionRecord(video_id="v", frame_id=0,
                                                    scores=(0.25, 1.0)), True),
    "StatsSummary": (lambda: StatsSummary(n_frames=1, n_instances=1, n_grounded=1,
                                          per_video={"v": {"frames": 1}},
                                          histograms={"ivt": {3: 1}}), False),
    "EvalConfig": (lambda: EvalConfig(mode="det", components=("i", "ivt")), True),
    "ComponentResult": (lambda: ComponentResult(mAP=50.0, per_class={3: 50.0}), False),
    "EvalReport": (lambda: EvalReport(
        mode="det", iou_threshold=0.5, averaging="pooled", ap_method="envelope",
        frame_count=1, components={"ivt": ComponentResult(mAP=50.0, per_class={3: 50.0})}),
        False),
    "ClassRows": (_rows, False),
    "MatchTable": (lambda: MatchTable(
        config=EvalConfig(mode="det"), class_keys={"ivt": (3,)}, frames=[("v", 0)],
        in_gt=[True], frame_preds=[1], n_preds=1, rows={"ivt": _rows()}), False),
    "SubsetPartition": (lambda: SubsetPartition(seed=0, subset_size=1,
                                                subsets=((("v", 0),),)), True),
    "WilcoxonResult": (_wilcoxon, True),
    "ComparisonResult": (lambda: ComparisonResult(
        per_subset=((1.0, 0.5),), deltas=(0.5,), median_a=1.0, median_b=0.5,
        median_delta=0.5, wilcoxon=_wilcoxon()), True),
    "TripletLabelFrame": (lambda: TripletLabelFrame(video_id="v", frame_id=0,
                                                    triplets=(3, 3)), True),
    "InstanceMaskFrame": (lambda: InstanceMaskFrame(video_id="v", frame_id=0, width=3,
                                                    height=2, instances=((1, 0, _mask()),)),
                          True),
    "AmbiguityEntry": (lambda: AmbiguityEntry(video_id="v", frame_id=0,
                                              kind="TripletWithoutInstance", detail="3"), True),
    "AmbiguityReport": (lambda: AmbiguityReport(entries=(AmbiguityEntry(
        video_id="v", frame_id=0, kind="TripletWithoutInstance", detail="3"),)), True),
    "GradCheckReport": (lambda: GradCheckReport(step=1e-5, tolerance=1e-4,
                                                block_errors={"queries": 0.0}, passed=True),
                        False),
}


def _params():
    return FusionParams.random(2, 3, np.random.default_rng(0))


def _first_field(record) -> str:
    return (getattr(record, "_fields", None) or type(record).__slots__)[0]


@pytest.mark.parametrize("factory", [f for f, _ in RECORDS.values()] + [_params],
                         ids=[*RECORDS, "FusionParams"])
def test_records_reject_attribute_assignment(factory):
    record = factory()
    name = _first_field(record)
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("factory, hashable", RECORDS.values(), ids=RECORDS)
def test_equal_records_compare_and_hash_equal(factory, hashable):
    a, b = factory(), factory()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("factory", [f for f, _ in RECORDS.values()], ids=RECORDS)
def test_records_copy_and_pickle(factory):
    record = factory()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_bbox_replace_checks():
    box = BBox(0, 0, 1, 1)
    with pytest.raises(MaskError, match="must be at least 1x1"):
        box._replace(w=0)
    with pytest.raises(MaskError, match="is negative"):
        box._replace(x=-1)
    with pytest.raises(MaskError):
        BBox._make([0, 0, 0, 1])
    wide = box._replace(w=3)
    assert type(wide) is BBox and wide == BBox(0, 0, 3, 1)


def test_eval_config_replace_checks():
    config = EvalConfig("seg")
    with pytest.raises(EvaluationError, match=r"outside \(0, 1\]"):
        config._replace(iou_threshold=2.0)
    with pytest.raises(EvaluationError, match="unknown mode"):
        config._replace(mode="bogus")
    det = config._replace(mode="det")
    assert type(det) is EvalConfig and det.resolved_ap_method == "envelope"
    assert det == EvalConfig(mode="det")


def test_fusion_params_replace_checks_and_converts():
    params = _params()
    with pytest.raises(ValueError, match="gate_bias must be"):
        params._replace(gate_bias=np.zeros((2, 1)))
    bumped = params._replace(gate_bias=[1, 2])
    assert type(bumped) is FusionParams
    assert bumped.gate_bias.dtype == np.float64 and not bumped.gate_bias.flags.writeable
    assert np.array_equal(bumped.query_proj, params.query_proj)
