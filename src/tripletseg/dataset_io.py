"""Reading, writing, and validation of grounded datasets and predictions.

Ground truth lives as one JSON file per video. Each frame carries its
instrument instances (each an instance mask, an instrument class, and an
optional triplet assignment) plus the frame-level triplet labels. Three
prediction formats are supported: segmentation and detection files are
arrays of scored detections, recognition files are arrays of per-frame
score vectors.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Iterator
from pathlib import Path
from typing import Any, NamedTuple

from .errors import DatasetError, EvaluationError
from .masks import BBox, MaskError, RleMask
from .schema import TripletSchema


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's dict; DatasetError names the first key given twice,
    which a plain dict would keep only the last value of."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise DatasetError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
# an array's punctuation with the whitespace JSON allows around it
_OPEN, _COMMA, _CLOSE = (re.compile(rf"[ \t\n\r]*{p}[ \t\n\r]*") for p in (r"\[", ",", r"\]"))
# json.dumps(indent=2) runs in pure Python, so the writer builds that layout
# itself from a line break plus the indent of each nesting depth, the array
# item separator at that depth, and the C encoder for the long count lists
_NL = ["\n" + "  " * depth for depth in range(8)]
_SEP = ["," + nl for nl in _NL]
_encode_counts = json.JSONEncoder(separators=(_SEP[7], ": ")).encode


class GroundedInstance(NamedTuple):
    """One instrument instance, optionally carrying a triplet assignment."""

    instance_id: int
    instrument_id: int
    triplet_id: int | None
    mask: RleMask
    flags: frozenset[str] = frozenset()


class FrameRecord(NamedTuple):
    """One annotated frame: instances plus frame-level triplet labels."""

    video_id: str
    frame_id: int
    width: int
    height: int
    instances: tuple[GroundedInstance, ...]
    frame_triplets: tuple[int, ...]


class DetectionRecord(NamedTuple):
    """A scored triplet detection with mask and/or box geometry."""

    video_id: str
    frame_id: int
    triplet_id: int
    score: float
    mask: RleMask | None = None
    bbox: BBox | None = None


class RecognitionRecord(NamedTuple):
    """Frame-level score vector over the full triplet vocabulary."""

    video_id: str
    frame_id: int
    scores: tuple[float, ...]


class StatsSummary(NamedTuple):
    """Aggregate dataset counts and per-class histograms."""

    n_frames: int
    n_instances: int
    n_grounded: int
    per_video: dict[str, dict[str, int]]
    histograms: dict[str, dict[int, int]]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "frames": self.n_frames,
            "instances": self.n_instances,
            "grounded_triplets": self.n_grounded,
            "per_video": {
                vid: dict(counts) for vid, counts in sorted(self.per_video.items())
            },
            "histograms": {
                comp: {str(k): v for k, v in sorted(hist.items())}
                for comp, hist in self.histograms.items()
            },
        }

    def render_text(self) -> str:
        return (
            f"{self.n_frames:,} annotated frames and "
            f"{self.n_grounded:,} spatially grounded triplets "
            f"({self.n_instances:,} instrument instances, "
            f"{len(self.per_video)} videos)"
        )


def read_text(path: str | Path) -> str:
    """A file's text as UTF-8; DatasetError names a file that is not."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8: {exc}") from exc


def _loads(path: str | Path, text: str) -> Any:
    # json.loads keeps its message for a byte order mark, which decode lacks
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise DatasetError(f"{path}: invalid JSON: {exc}") from exc
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def load_json(path: str | Path) -> Any:
    """A UTF-8 JSON file's document; DatasetError names a file that is not
    JSON or nests too deeply to parse. I/O errors stay OSError."""
    return _loads(path, read_text(path))


def _array_items(path: str | Path, text: str) -> Iterator[Any]:
    """The elements of a JSON array document, decoded one at a time, so the
    whole list never exists at once. Anything else (a syntax error, or a top
    level that is not an array) goes to the full parse, so it reports exactly
    what ``load_json`` reports. An element is yielded only once the comma or
    closing bracket after it is seen: text that a syntax error garbled into a
    value never reaches the record checks."""
    done = 0
    step = _OPEN.match(text)
    if step and _CLOSE.fullmatch(text, step.end()):
        return
    while step:
        try:
            obj, end = _DECODER.raw_decode(text, step.end())
        except (ValueError, RecursionError):
            break
        except DatasetError as exc:
            raise DatasetError(f"{path}[{done}]: {exc}") from None
        step = _COMMA.match(text, end)
        last = step is None
        if last and not _CLOSE.fullmatch(text, end):
            break
        yield obj
        done += 1
        if last:
            return
    doc = _loads(path, text)
    if not isinstance(doc, list):
        raise DatasetError(f"{path}: top level must be an array of records")
    yield from doc[done:]


def video_files(directory: str | Path) -> list[Path]:
    """The sorted ``*.json`` files of a per-video directory, which must
    exist (else FileNotFoundError) and hold one (else DatasetError)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"directory not found: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise DatasetError(f"{directory}: no video JSON files")
    return paths


def _expect_int(obj: Any, locus: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise DatasetError(f"{locus}: expected an integer, got {type(obj).__name__}")
    return obj


def _expect_str(obj: Any, locus: str) -> str:
    if not isinstance(obj, str):
        raise DatasetError(f"{locus}: expected a string, got {type(obj).__name__}")
    return obj


def _expect_number(obj: Any, locus: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise DatasetError(f"{locus}: expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError:
        raise DatasetError(f"{locus}: number out of range") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise DatasetError(f"{locus}: non-finite value")
    return value


def _parse_mask(obj: Any, locus: str) -> RleMask:
    try:
        return RleMask.from_json_dict(obj)
    except MaskError as exc:
        raise DatasetError(f"{locus}.mask: {exc}") from exc


def _parse_instance(
    obj: Any, locus: str, schema: TripletSchema, width: int, height: int,
    require_triplet_field: bool = True,
) -> GroundedInstance:
    if not isinstance(obj, dict):
        raise DatasetError(f"{locus}: instance must be an object")
    instance_id = _expect_int(obj.get("instance_id"), f"{locus}.instance_id")
    instrument_id = _expect_int(obj.get("instrument_id"), f"{locus}.instrument_id")
    if not 0 <= instrument_id < schema.n_instruments:
        raise DatasetError(
            f"{locus}.instrument_id: {instrument_id} outside "
            f"[0, {schema.n_instruments})"
        )
    triplet_raw = obj.get("triplet_id")
    if triplet_raw is None:
        triplet_id = None
        if require_triplet_field and "triplet_id" not in obj:
            # GT files spell out null explicitly; a mask-stream file omits it
            raise DatasetError(f"{locus}: missing triplet_id field (use null)")
    else:
        triplet_id = _expect_int(triplet_raw, f"{locus}.triplet_id")
        if triplet_id not in schema.triplets:
            raise DatasetError(f"{locus}.triplet_id: unknown triplet {triplet_id}")
        if schema.project(triplet_id, "i") != instrument_id:
            raise DatasetError(
                f"{locus}: triplet {triplet_id} has instrument "
                f"{schema.project(triplet_id, 'i')} but instance declares "
                f"{instrument_id}"
            )
    flags_raw = obj.get("flags", [])
    if not isinstance(flags_raw, list) or not all(isinstance(f, str) for f in flags_raw):
        raise DatasetError(f"{locus}.flags: must be a list of strings")
    mask = _parse_mask(obj.get("mask"), locus)
    if (mask.height, mask.width) != (height, width):
        raise DatasetError(
            f"{locus}.mask: size {mask.height}x{mask.width} does not match "
            f"frame {height}x{width}"
        )
    if len(mask.counts) == 1:  # the one canonical empty mask
        raise DatasetError(f"{locus}.mask: empty mask")
    return GroundedInstance(
        instance_id=instance_id,
        instrument_id=instrument_id,
        triplet_id=triplet_id,
        mask=mask,
        flags=frozenset(flags_raw),
    )


def parse_video_file(
    path: Path, schema: TripletSchema, require_triplet_field: bool = True
) -> list[FrameRecord]:
    """Parse one per-video JSON file into validated FrameRecords.

    ``require_triplet_field=False`` accepts mask-stream files, which share
    the shape but omit triplet assignments.
    """
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: top level must be an object")
    video_id = _expect_str(doc.get("video_id"), f"{path}: video_id")
    if path.stem != video_id:
        raise DatasetError(
            f"{path}: video_id {video_id!r} does not match file name"
        )
    width = _expect_int(doc.get("width"), f"{path}: width")
    height = _expect_int(doc.get("height"), f"{path}: height")
    if width < 1 or height < 1:
        raise DatasetError(f"{path}: frame size {width}x{height} must be positive")
    frames_raw = doc.get("frames")
    if not isinstance(frames_raw, list):
        raise DatasetError(f"{path}: frames must be an array")

    records = []
    seen_frames: set[int] = set()
    for f_idx, frame_obj in enumerate(frames_raw):
        locus = f"{path}: frames[{f_idx}]"
        if not isinstance(frame_obj, dict):
            raise DatasetError(f"{locus}: frame must be an object")
        frame_id = _expect_int(frame_obj.get("frame_id"), f"{locus}.frame_id")
        if frame_id in seen_frames:
            raise DatasetError(f"{locus}: duplicate frame_id {frame_id}")
        seen_frames.add(frame_id)

        triplets_raw = frame_obj.get("frame_triplets")
        if not isinstance(triplets_raw, list):
            raise DatasetError(f"{locus}.frame_triplets: must be an array")
        frame_triplets = []
        for t_idx, tid in enumerate(triplets_raw):
            tid = _expect_int(tid, f"{locus}.frame_triplets[{t_idx}]")
            if tid not in schema.triplets:
                raise DatasetError(
                    f"{locus}.frame_triplets[{t_idx}]: unknown triplet {tid}"
                )
            frame_triplets.append(tid)

        instances_raw = frame_obj.get("instances")
        if not isinstance(instances_raw, list):
            raise DatasetError(f"{locus}.instances: must be an array")
        instances = []
        seen_ids: set[int] = set()
        for i_idx, inst_obj in enumerate(instances_raw):
            inst = _parse_instance(
                inst_obj, f"{locus}.instances[{i_idx}]", schema, width, height,
                require_triplet_field=require_triplet_field,
            )
            if inst.instance_id in seen_ids:
                raise DatasetError(
                    f"{locus}.instances[{i_idx}]: duplicate instance_id "
                    f"{inst.instance_id}"
                )
            seen_ids.add(inst.instance_id)
            instances.append(inst)

        assigned = {g.triplet_id for g in instances if g.triplet_id is not None}
        missing = assigned - set(frame_triplets)
        if missing:
            raise DatasetError(
                f"{locus}: assigned triplets {sorted(missing)} absent from "
                f"frame_triplets"
            )
        records.append(
            FrameRecord(
                video_id=video_id,
                frame_id=frame_id,
                width=width,
                height=height,
                instances=tuple(sorted(instances, key=lambda g: g.instance_id)),
                frame_triplets=tuple(sorted(frame_triplets)),
            )
        )
    records.sort(key=lambda r: r.frame_id)
    return records


def read_ground_truth(gt_dir: str | Path, schema: TripletSchema) -> list[FrameRecord]:
    """Load every ``<video_id>.json`` under a directory, sorted by key."""
    frames: list[FrameRecord] = []
    for path in video_files(gt_dir):
        frames.extend(parse_video_file(path, schema))
    frames.sort(key=lambda r: (r.video_id, r.frame_id))
    return frames


def _array(items: list[str], depth: int) -> str:
    """Encoded items as ``json.dumps(indent=2)`` lays out an array at ``depth``."""
    return f"[{_NL[depth + 1]}{_SEP[depth + 1].join(items)}{_NL[depth]}]" if items else "[]"


def _instances_text(instances: tuple[GroundedInstance, ...]) -> str:
    n5, n6, n7 = _NL[5:]
    return _array([
        f'{{{n5}"instance_id": {g.instance_id},{n5}"instrument_id": {g.instrument_id},'
        f'{n5}"triplet_id": {"null" if g.triplet_id is None else g.triplet_id},'
        f'{n5}"flags": {_array(list(map(json.dumps, sorted(g.flags))), 5)},'
        f'{n5}"mask": {{{n6}"size": [{n7}{g.mask.height},{n7}{g.mask.width}{n6}],'
        f'{n6}"counts": [{n7}{_encode_counts(g.mask.counts.tolist())[1:-1]}{n6}]{n5}}}{_NL[4]}}}'
        for g in sorted(instances, key=lambda g: g.instance_id)
    ], 3)


def write_ground_truth(frames: list[FrameRecord], out_dir: str | Path) -> list[Path]:
    """Write frames back into canonical per-video JSON files.

    Canonical is the layout of ``json.dumps(doc, indent=2)`` with one mask
    count per line and a final newline: fixed key order; sorted frames,
    instances, flags and frame_triplets; strings ASCII-escaped. Reading a
    canonical file and writing it again reproduces it byte for byte.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_video: dict[str, list[FrameRecord]] = {}
    for rec in frames:
        by_video.setdefault(rec.video_id, []).append(rec)
    written = []
    n1, n2, n3 = _NL[1:4]
    for video_id in sorted(by_video):
        recs = sorted(by_video[video_id], key=lambda r: r.frame_id)
        if len(sizes := {(r.width, r.height) for r in recs}) != 1:
            raise DatasetError(f"video {video_id}: inconsistent frame sizes {sorted(sizes)}")
        frames_text = _array([
            f'{{{n3}"frame_id": {r.frame_id},'
            f'{n3}"frame_triplets": {_array(list(map(str, sorted(r.frame_triplets))), 3)},'
            f'{n3}"instances": {_instances_text(r.instances)}{n2}}}'
            for r in recs
        ], 1)
        path = out_dir / f"{video_id}.json"
        path.write_text(
            f'{{{n1}"video_id": {json.dumps(video_id)},{n1}"width": {recs[0].width},'
            f'{n1}"height": {recs[0].height},{n1}"frames": {frames_text}\n}}\n',
            encoding="utf-8",
        )
        written.append(path)
    return written


def _parse_detection(
    obj: Any, locus: str, schema: TripletSchema
) -> DetectionRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"{locus}: record must be an object")
    video_id = _expect_str(obj.get("video_id"), f"{locus}.video_id")
    frame_id = _expect_int(obj.get("frame_id"), f"{locus}.frame_id")
    triplet_id = _expect_int(obj.get("triplet_id"), f"{locus}.triplet_id")
    if triplet_id not in schema.triplets:
        raise DatasetError(f"{locus}.triplet_id: unknown triplet {triplet_id}")
    score = _expect_number(obj.get("score"), f"{locus}.score")
    if not 0.0 <= score <= 1.0:
        raise DatasetError(f"{locus}.score: {score} outside [0, 1]")
    mask = None if obj.get("mask") is None else _parse_mask(obj["mask"], locus)
    bbox_raw = obj.get("bbox")
    bbox = None
    if bbox_raw is not None:
        if (
            not isinstance(bbox_raw, list)
            or len(bbox_raw) != 4
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in bbox_raw)
        ):
            raise DatasetError(f"{locus}.bbox: must be [x, y, w, h] integers")
        try:
            bbox = BBox(*bbox_raw)
        except MaskError as exc:
            raise DatasetError(f"{locus}.bbox: {exc}") from exc
    if mask is None and bbox is None:
        raise DatasetError(f"{locus}: needs a mask or a bbox")
    return DetectionRecord(
        video_id=video_id,
        frame_id=frame_id,
        triplet_id=triplet_id,
        score=score,
        mask=mask,
        bbox=bbox,
    )


def pred_geometry(
    index: int, det: DetectionRecord, mode: str, frame_size: tuple[int, int] | None
) -> RleMask | BBox:
    """A seg/det prediction's own geometry, checked before any IoU is
    computed: its det bbox, else its mask. A mask or det box must fit its
    ground-truth frame (if the frame is known), and a det prediction without
    a box needs a non-empty mask. EvaluationError names the record by
    ``index``."""
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
    if mode == "det" and len(det.mask.counts) == 1:  # the canonical empty mask
        raise EvaluationError(f"{where}: empty mask and no bbox")
    return det.mask


def _parse_recognition(
    obj: Any, locus: str, n_classes: int
) -> RecognitionRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"{locus}: record must be an object")
    video_id = _expect_str(obj.get("video_id"), f"{locus}.video_id")
    frame_id = _expect_int(obj.get("frame_id"), f"{locus}.frame_id")
    scores_raw = obj.get("scores")
    if not isinstance(scores_raw, list) or len(scores_raw) != n_classes:
        raise DatasetError(
            f"{locus}.scores: expected exactly {n_classes} scores"
        )
    # C builtins pass numbers in [0, 1] (a NaN makes the sum NaN); the loop names a bad one
    if not (scores_raw and set(map(type, scores_raw)) <= {int, float}
            and min(scores_raw) >= 0 and max(scores_raw) <= 1
            and (total := sum(scores_raw)) == total):
        for s_idx, s in enumerate(scores_raw):
            value = _expect_number(s, f"{locus}.scores[{s_idx}]")
            if not 0.0 <= value <= 1.0:
                raise DatasetError(f"{locus}.scores[{s_idx}]: {value} outside [0, 1]")
    return RecognitionRecord(
        video_id=video_id, frame_id=frame_id, scores=tuple(map(float, scores_raw))
    )


def read_predictions(
    path: str | Path, mode: str, schema: TripletSchema,
    frame_size: dict[tuple[str, int], tuple[int, int]] | None = None,
) -> list[DetectionRecord] | list[RecognitionRecord]:
    """Load a prediction file for the given evaluation mode. Given
    ``frame_size``, the (height, width) of each ground-truth (video_id,
    frame_id), each seg/det record also passes ``pred_geometry`` right after
    it is decoded (a frame missing from the map counts as absent from the
    ground truth), and the EvaluationError names the file."""
    if mode not in ("seg", "det", "rec"):
        raise DatasetError(f"unknown mode {mode!r}")
    # records are decoded and checked one at a time, so with several faults
    # the first one in file order is reported
    items = enumerate(_array_items(path, read_text(path)))
    if mode == "rec":
        records_r: list[RecognitionRecord] = []
        seen: set[tuple[str, int]] = set()
        for idx, obj in items:
            rec = _parse_recognition(obj, f"{path}[{idx}]", schema.n_triplets)
            key = (rec.video_id, rec.frame_id)
            if key in seen:
                raise DatasetError(
                    f"{path}[{idx}]: duplicate record for frame {key}"
                )
            seen.add(key)
            records_r.append(rec)
        return records_r
    records_d = []
    try:
        for idx, obj in items:
            det = _parse_detection(obj, f"{path}[{idx}]", schema)
            if frame_size is not None:
                pred_geometry(idx, det, mode, frame_size.get((det.video_id, det.frame_id)))
            records_d.append(det)
    except EvaluationError as exc:
        raise EvaluationError(f"{path}: {exc}") from None
    return records_d


def read_values(path: str | Path) -> list[float]:
    """Load per-subset metric values: a JSON array of finite numbers."""
    doc = load_json(path)
    if not isinstance(doc, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc
    ):
        raise DatasetError(f"{path}: expected a JSON array of numbers")
    return [_expect_number(v, f"{path}[{idx}]") for idx, v in enumerate(doc)]


def dataset_stats(frames: list[FrameRecord], schema: TripletSchema) -> StatsSummary:
    """Count frames, instances, and grounded triplets, with histograms."""
    per_video: dict[str, dict[str, int]] = {}
    hists: dict[str, Counter] = {c: Counter() for c in ("i", "v", "t", "ivt")}
    n_instances = 0
    n_grounded = 0
    for rec in frames:
        vid = per_video.setdefault(
            rec.video_id, {"frames": 0, "instances": 0, "grounded_triplets": 0}
        )
        vid["frames"] += 1
        vid["instances"] += len(rec.instances)
        n_instances += len(rec.instances)
        for g in rec.instances:
            if g.triplet_id is None:
                continue
            n_grounded += 1
            vid["grounded_triplets"] += 1
            for comp in ("i", "v", "t", "ivt"):
                hists[comp][schema.project(g.triplet_id, comp)] += 1
    return StatsSummary(
        n_frames=len(frames),
        n_instances=n_instances,
        n_grounded=n_grounded,
        per_video=per_video,
        histograms={c: dict(h) for c, h in hists.items()},
    )
