"""Fuse a frame-level triplet label stream with an instance mask stream.

Frames from the two streams are joined on (video_id, frame_id). Within a
joined frame, labels and instances are grouped by instrument class; a
label is auto-assigned to an instance only when the match is unique in
both directions (one candidate instance, one candidate label). Every
other situation is recorded in an ambiguity report for manual resolution
rather than guessed at.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from .dataset_io import (
    FrameRecord, GroundedInstance, parse_video_file, read_text, video_files,
)
from .errors import AlignmentError, DatasetError
from .masks import RleMask
from .schema import TripletSchema, parse_int

AMBIGUITY_KINDS = (
    "MultiInstanceOneTriplet",
    "MultiTripletOneInstance",
    "TripletWithoutInstance",
    "InstanceWithoutTriplet",
    "FrameMissingInOneSource",
)


class TripletLabelFrame(NamedTuple):
    """Frame-level labels: a multiset of triplet ids."""

    video_id: str
    frame_id: int
    triplets: tuple[int, ...]


class InstanceMaskFrame(NamedTuple):
    """Instrument instances of one frame, without triplet assignments."""

    video_id: str
    frame_id: int
    width: int
    height: int
    instances: tuple[tuple[int, int, RleMask], ...]  # (instance_id, instrument_id, mask)


class AmbiguityEntry(NamedTuple):
    video_id: str
    frame_id: int
    kind: str
    detail: str

    def to_json_dict(self) -> dict[str, Any]:
        return self._asdict()


class AmbiguityReport(NamedTuple):
    entries: tuple[AmbiguityEntry, ...]

    def counts(self) -> dict[str, int]:
        c = Counter(e.kind for e in self.entries)
        return {kind: c.get(kind, 0) for kind in AMBIGUITY_KINDS}


def read_label_stream(path: str | Path) -> list[TripletLabelFrame]:
    """Read a label CSV with columns video_id, frame_id, triplet_id."""
    try:
        rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise DatasetError(f"{path}: {exc}") from exc
    if not rows:
        raise DatasetError(f"{path}: empty label file")
    if [h.strip() for h in rows[0]] != ["video_id", "frame_id", "triplet_id"]:
        raise DatasetError(
            f"{path}: bad header, expected video_id,frame_id,triplet_id"
        )
    grouped: dict[tuple[str, int], list[int]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 fields")
        video_id = row[0].strip()
        try:
            frame_id, triplet_id = parse_int(row[1]), parse_int(row[2])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: non-integer field") from None
        grouped.setdefault((video_id, frame_id), []).append(triplet_id)
    return [
        TripletLabelFrame(video_id=v, frame_id=f, triplets=tuple(sorted(ts)))
        for (v, f), ts in sorted(grouped.items())
    ]


def read_mask_stream(
    mask_dir: str | Path, schema: TripletSchema
) -> list[InstanceMaskFrame]:
    """Read per-video instance files (GT shape, triplet_id absent)."""
    frames: list[InstanceMaskFrame] = []
    for path in video_files(mask_dir):
        for rec in parse_video_file(path, schema, require_triplet_field=False):
            for g in rec.instances:
                if g.triplet_id is not None:
                    raise AlignmentError(
                        f"{path}: frame {rec.frame_id} instance {g.instance_id} "
                        f"already carries triplet {g.triplet_id}; mask streams "
                        f"must be unassigned"
                    )
            frames.append(InstanceMaskFrame(
                rec.video_id, rec.frame_id, rec.width, rec.height,
                tuple((g.instance_id, g.instrument_id, g.mask) for g in rec.instances),
            ))
    frames.sort(key=lambda f: (f.video_id, f.frame_id))
    return frames


def _check_stream_order(keys: list[tuple[str, int]], name: str) -> None:
    for prev, cur in zip(keys, keys[1:]):
        if cur < prev:
            raise AlignmentError(
                f"{name} stream not sorted: {cur} after {prev}"
            )
        if cur == prev:
            raise AlignmentError(f"{name} stream has duplicate frame {cur}")


def _align_one_frame(
    labels: TripletLabelFrame,
    masks: InstanceMaskFrame,
    schema: TripletSchema,
) -> tuple[FrameRecord, list[AmbiguityEntry]]:
    video_id, frame_id = masks.video_id, masks.frame_id
    entries: list[AmbiguityEntry] = []

    by_class_labels: dict[int, list[int]] = {}
    for tid in labels.triplets:
        by_class_labels.setdefault(schema.project(tid, "i"), []).append(tid)
    by_class_instances: dict[int, list[tuple[int, int, RleMask]]] = {}
    for inst in masks.instances:
        by_class_instances.setdefault(inst[1], []).append(inst)

    def name(tid: int) -> str:
        return f"triplet {tid} ({schema.triplet_name(tid)})"

    # each class resolves to the triplet its instances get, their flags,
    # and the ambiguity entries it raises; only a one-to-one class assigns,
    # and a class without instances needs no flags
    instances_out: list[GroundedInstance] = []
    for cls in sorted(by_class_labels.keys() | by_class_instances.keys()):
        tids = by_class_labels.get(cls, [])
        insts = by_class_instances.get(cls, [])
        triplet_id, flags, kind, details = None, frozenset({"ambiguous"}), "", []
        if len(insts) == 1 and len(tids) == 1:
            triplet_id, flags = tids[0], frozenset()
        elif not insts:
            kind = "TripletWithoutInstance"
            details = [f"{name(t)} has no instance of instrument {cls}" for t in tids]
        elif not tids:
            kind, flags = "InstanceWithoutTriplet", frozenset({"unmatched"})
            details = [f"instance {inst_id} of instrument {cls} has no candidate triplet"
                       for inst_id, _, _ in insts]
        elif len(insts) > 1:
            # several instances compete for the labels of this class;
            # no assignment regardless of how many labels there are
            kind = "MultiInstanceOneTriplet"
            details = [f"{name(t)} has {len(insts)} candidate instances of "
                       f"instrument {cls}" for t in tids]
        else:
            kind = "MultiTripletOneInstance"
            details = [f"{name(t)} is one of {len(tids)} candidates for "
                       f"instance {insts[0][0]}" for t in tids]
        entries += [AmbiguityEntry(video_id, frame_id, kind, d) for d in details]
        instances_out += [
            GroundedInstance(inst_id, cls, triplet_id, mask, flags)
            for inst_id, _, mask in insts
        ]

    record = FrameRecord(
        video_id=video_id,
        frame_id=frame_id,
        width=masks.width,
        height=masks.height,
        instances=tuple(sorted(instances_out, key=lambda g: g.instance_id)),
        frame_triplets=tuple(sorted(labels.triplets)),
    )
    return record, entries


def align_frames(
    labels: list[TripletLabelFrame],
    masks: list[InstanceMaskFrame],
    schema: TripletSchema,
    jobs: int = 1,
) -> tuple[list[FrameRecord], AmbiguityReport]:
    """Join the two streams and auto-assign unique bipartite matches.

    Frames present in only one stream produce report entries and no
    output record. ``jobs`` is accepted for compatibility and must be at
    least 1; the work runs in one process.
    """
    if jobs < 1:
        raise AlignmentError("jobs must be at least 1")
    for f in labels:
        for tid in f.triplets:
            if tid not in schema.triplets:
                raise AlignmentError(
                    f"label frame ({f.video_id}, {f.frame_id}): unknown triplet {tid}"
                )
    label_keys = [(f.video_id, f.frame_id) for f in labels]
    mask_keys = [(f.video_id, f.frame_id) for f in masks]
    _check_stream_order(label_keys, "label")
    _check_stream_order(mask_keys, "mask")
    label_map = dict(zip(label_keys, labels))
    mask_map = dict(zip(mask_keys, masks))

    records: list[FrameRecord] = []
    entries: list[AmbiguityEntry] = []
    for key in sorted(label_map.keys() | mask_map.keys()):
        lab = label_map.get(key)
        msk = mask_map.get(key)
        if lab is None or msk is None:
            missing_side = "mask" if msk is None else "label"
            entries.append(
                AmbiguityEntry(
                    *key, "FrameMissingInOneSource",
                    f"frame absent from the {missing_side} stream",
                )
            )
            continue
        record, frame_entries = _align_one_frame(lab, msk, schema)
        records.append(record)
        entries.extend(frame_entries)
    entries.sort(key=lambda e: (e.video_id, e.frame_id, e.kind, e.detail))
    return records, AmbiguityReport(entries=tuple(entries))


def alignment_stats(
    report: AmbiguityReport, frames: Iterable[FrameRecord]
) -> dict[str, Any]:
    """Assignment rate and per-kind counts for an alignment run.

    The rate denominator is every triplet label seen on a matched frame:
    assigned ones plus the three label-side ambiguity categories.
    """
    counts = report.counts()
    assigned = sum(g.triplet_id is not None for r in frames for g in r.instances)
    blocked = sum(counts[kind] for kind in AMBIGUITY_KINDS[:3])  # the label-side kinds
    total = assigned + blocked
    return {
        "assigned": assigned,
        "total_labels_on_matched_frames": total,
        "assignment_rate": assigned / total if total else 1.0,
        "counts": counts,
    }
