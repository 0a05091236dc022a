"""The user journey both modes run, and the checks on its outputs.

The journey is the batch pipeline a user runs on a new dataset: build the
ground truth with ``align``, check it with ``validate`` and ``stats``, score
one method with ``eval`` in every mode (seg also with two jobs), and
compare two methods with ``compare``. Every output is checked against
what the workload generator knows, and hashed so that two commits can be
diffed for byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

N_SUBSETS = 20  # the largest n that compare's "auto" still tests exactly


class Checks:
    """Counts every subcommand and output check as one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def journey(work: Path, subset_size: int, seed: int) -> list[tuple[str, list]]:
    """The subcommands of one user journey, in order, keyed by metric."""
    gt = work / "gt"
    eval_common = ["eval", "--gt", gt]
    return [
        ("align_s", ["align", "--labels", work / "labels.csv", "--masks", work / "masks",
                     "--out", gt, "--report", work / "ambiguity.json"]),
        ("validate_s", ["validate", "--gt", gt]),
        ("stats_s", ["stats", "--gt", gt, "--json-out", work / "stats.json"]),
        ("eval_seg_s", [*eval_common, "--preds", work / "preds_a_seg.json", "--mode", "seg",
                        "--out", work / "eval_seg.json"]),
        ("eval_seg_jobs2_s", [*eval_common, "--preds", work / "preds_a_seg.json",
                              "--mode", "seg", "--jobs", "2",
                              "--out", work / "eval_seg_jobs2.json"]),
        ("eval_det_s", [*eval_common, "--preds", work / "preds_a_seg.json", "--mode", "det",
                        "--out", work / "eval_det.json"]),
        ("eval_rec_s", [*eval_common, "--preds", work / "preds_a_rec.json", "--mode", "rec",
                        "--out", work / "eval_rec.json"]),
        ("compare_s", ["compare", "--gt", gt, "--preds-a", work / "preds_a_seg.json",
                       "--preds-b", work / "preds_b_seg.json", "--mode", "seg",
                       "--metric", "ivt", "--n-subsets", N_SUBSETS,
                       "--subset-size", subset_size, "--seed", seed,
                       "--out", work / "compare.json"]),
    ]


REPORTS = ("eval_seg.json", "eval_seg_jobs2.json", "eval_det.json", "eval_rec.json",
           "compare.json", "stats.json", "ambiguity.json")


def output_hashes(work: Path) -> dict[str, str]:
    hashes = {f"gt/{p.name}": sha256(p) for p in sorted((work / "gt").glob("*.json"))}
    hashes.update({name: sha256(work / name) for name in REPORTS if (work / name).is_file()})
    return hashes


def check_outputs(work: Path, expected: dict, checks: Checks, validate_out: Path) -> None:
    """Compare the journey's outputs with what the generator knows."""
    gt_docs = [json.loads(p.read_text()) for p in sorted((work / "gt").glob("*.json"))]
    assigned = sum(
        inst["triplet_id"] is not None
        for doc in gt_docs for frame in doc["frames"] for inst in frame["instances"]
    )
    kinds = {k: 0 for k in expected["ambiguity"]}
    for entry in json.loads((work / "ambiguity.json").read_text()):
        kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
    blocked = (kinds["MultiInstanceOneTriplet"] + kinds["MultiTripletOneInstance"]
               + kinds["TripletWithoutInstance"])
    checks.check(assigned + blocked == expected["labels_on_matched"],
                 f"align conservation: {assigned} assigned + {blocked} blocked "
                 f"!= {expected['labels_on_matched']} labels on matched frames")
    checks.check(kinds == expected["ambiguity"] and assigned == expected["grounded"],
                 f"align counts {kinds}, {assigned} assigned; expected "
                 f"{expected['ambiguity']}, {expected['grounded']}")
    stats = json.loads((work / "stats.json").read_text())
    got = (stats["frames"], stats["instances"], stats["grounded_triplets"], len(gt_docs))
    want = (expected["gt_frames"], expected["instances"], expected["grounded"],
            expected["videos"])
    checks.check(got == want, f"stats frames/instances/grounded/videos {got} != {want}")
    last = validate_out.read_text().strip().splitlines()[-1]
    checks.check(last == f"{expected['videos']} files, {expected['gt_frames']} frames, 0 errors",
                 f"validate summary {last!r}")
    for name in ("eval_seg.json", "eval_seg_jobs2.json", "eval_det.json", "eval_rec.json"):
        count = json.loads((work / name).read_text())["frame_count"]
        checks.check(count == expected["gt_frames"],
                     f"{name} frame_count {count} != {expected['gt_frames']}")
    checks.check((work / "eval_seg.json").read_bytes()
                 == (work / "eval_seg_jobs2.json").read_bytes(),
                 "eval seg reports differ between --jobs 1 and --jobs 2")
    compare = json.loads((work / "compare.json").read_text())
    checks.check(compare["n_subsets"] == N_SUBSETS
                 and compare["wilcoxon"]["method"] == "exact",
                 f"compare ran {compare['n_subsets']} subsets, "
                 f"method {compare['wilcoxon']['method']}")


def check_journey(work: Path, expected: dict, checks: Checks, validate_out: Path,
                  reference: dict | None) -> dict | None:
    """Check one journey's outputs: against the generator the first time
    (``reference`` is None), byte for byte against ``reference`` after
    that. Returns the outputs' hashes, the reference for later journeys."""
    try:
        hashes = output_hashes(work)
        if reference is None:
            check_outputs(work, expected, checks, validate_out)
        else:
            checks.check(hashes == reference, "outputs differ between repeated journeys")
        return hashes
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.check(False, f"reading journey outputs: {exc!r}")
        return reference
