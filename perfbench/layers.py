"""Per-layer timings and the traced journey, for ``run.py --trace 1``.

Each layer is one module of the package. Its public functions are called
directly on the workload's own files and timed from outside; units are
counted alongside (frames, records, mask pairs, RLE counts), so a change
shows as time per unit. Only public names that the project keeps are
called; functions it may remove are reached only through the span
wrappers of the traced journey, which count zero calls when their target
is gone.

The traced journey runs every subcommand in this process through
``cli.main`` (the root span), with spans around the module attributes
that ``cli`` calls into. The same journey without wrappers gives the
untraced time; the difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from journey import N_SUBSETS, Checks, check_journey, journey
from tripletseg import alignment, cli, dataset_io, evaluation, fusion, masks, schema, stats

LAYERS = ("cli", "schema", "alignment", "dataset_io", "evaluation", "stats")

# (module, attribute, span name). cli imported load_schema by name, so it
# is wrapped where cli looks it up.
TRACED = (
    (cli, "load_schema", "schema.load_schema"),
    (alignment, "read_label_stream", "alignment.read_label_stream"),
    (alignment, "read_mask_stream", "alignment.read_mask_stream"),
    (alignment, "align_frames", "alignment.align_frames"),
    (alignment, "alignment_stats", "alignment.alignment_stats"),
    (dataset_io, "parse_video_file", "dataset_io.parse_video_file"),
    (dataset_io, "read_ground_truth", "dataset_io.read_ground_truth"),
    (dataset_io, "write_ground_truth", "dataset_io.write_ground_truth"),
    (dataset_io, "read_predictions", "dataset_io.read_predictions"),
    (dataset_io, "dataset_stats", "dataset_io.dataset_stats"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "evaluate_subset", "evaluation.evaluate_subset"),
    (stats, "partition_frames", "stats.partition_frames"),
    (stats, "compare_methods", "stats.compare_methods"),
)


def timed(fn, repeat: int = 1):
    """Median wall time of ``repeat`` calls, and the last call's result."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for module, attr, name in TRACED:
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def summary(self) -> dict[str, dict]:
        """Calls, total and self time per span name. Self time is the
        span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in (n for _, _, n in TRACED)}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out


def run_cli_journey(work: Path, steps, checks: Checks, tracer: Tracer | None) -> tuple[float, dict]:
    """Every subcommand through ``cli.main`` in this process. Returns the
    total wall time and each subcommand's standard output."""
    shutil.rmtree(work / "gt", ignore_errors=True)
    outputs = {}
    total = 0.0
    for name, argv in steps:
        argv = [str(a) for a in argv]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
            total += time.perf_counter() - start
        checks.check(code == 0, f"in-process {argv[0]} ({name}) returned {code}")
        outputs[name] = captured.getvalue()
    return total, outputs


def measure(work: Path, seed: int, expected: dict, checks: Checks) -> dict[str, float]:
    """One pass over every layer; returns per-layer metrics."""
    m: dict[str, float] = {}
    gt_dir = work / "gt"
    seg_path = work / "preds_a_seg.json"
    rec_paths = (work / "preds_a_rec.json", work / "preds_b_rec.json")

    # schema
    t, sch = timed(schema.load_schema, 20)
    m["schema.load_schema_ms"] = t * 1e3
    ids = sorted(sch.triplets)
    t, _ = timed(lambda: [sch.project(tid, c) for tid in ids for c in schema.COMPONENTS], 20)
    m["schema.project_us_per_call"] = t * 1e6 / (len(ids) * len(schema.COMPONENTS))

    # alignment; its output is the ground truth the later layers read
    t, labels = timed(lambda: alignment.read_label_stream(work / "labels.csv"), 3)
    m["alignment.read_label_stream_us_per_row"] = (
        t * 1e6 / sum(len(f.triplets) for f in labels))
    t, mask_frames = timed(lambda: alignment.read_mask_stream(work / "masks", sch))
    m["alignment.read_mask_stream_us_per_frame"] = t * 1e6 / len(mask_frames)
    t, (frames, report) = timed(lambda: alignment.align_frames(labels, mask_frames, sch))
    joined = len({(f.video_id, f.frame_id) for f in labels}
                 | {(f.video_id, f.frame_id) for f in mask_frames})
    m["alignment.align_frames_us_per_frame"] = t * 1e6 / joined
    m["alignment.assignment_rate"] = alignment.alignment_stats(report, frames)["assignment_rate"]
    m["alignment.ambiguity_entries"] = len(report.entries)
    checks.check(report.counts() == expected["ambiguity"],
                 f"in-process align counts {report.counts()}")

    # dataset_io
    t, _ = timed(lambda: dataset_io.write_ground_truth(frames, gt_dir))
    m["dataset_io.write_ground_truth_us_per_frame"] = t * 1e6 / len(frames)
    gt_files = sorted(gt_dir.glob("*.json"))
    m["dataset_io.gt_bytes"] = sum(p.stat().st_size for p in gt_files)
    m["dataset_io.preds_seg_bytes"] = seg_path.stat().st_size
    t, gt = timed(lambda: dataset_io.read_ground_truth(gt_dir, sch))
    m["dataset_io.read_ground_truth_us_per_frame"] = t * 1e6 / len(gt)
    checks.check(len(gt) == expected["gt_frames"], f"read {len(gt)} ground-truth frames")
    t, preds = timed(lambda: dataset_io.read_predictions(seg_path, "seg", sch))
    m["dataset_io.read_predictions_seg_us_per_record"] = t * 1e6 / len(preds)
    t, recs = timed(lambda: [dataset_io.read_predictions(p, "rec", sch) for p in rec_paths])
    m["dataset_io.read_predictions_rec_us_per_record"] = t * 1e6 / sum(map(len, recs))
    t, summary = timed(lambda: dataset_io.dataset_stats(gt, sch), 3)
    m["dataset_io.dataset_stats_us_per_frame"] = t * 1e6 / len(gt)
    checks.check(summary.n_grounded == expected["grounded"],
                 f"dataset_stats counts {summary.n_grounded} grounded")

    # masks, on the exact inputs of seg evaluation: the masks as JSON, and
    # every same-frame (prediction, grounded GT) pair
    mask_dicts = [inst["mask"] for p in gt_files
                  for frame in json.loads(p.read_text())["frames"]
                  for inst in frame["instances"]]
    mask_dicts += [rec["mask"] for rec in json.loads(seg_path.read_text())]
    n_counts = sum(len(d["counts"]) for d in mask_dicts)
    m["dataset_io.rle_counts"] = n_counts
    m["masks.runs_per_mask_mean"] = n_counts / len(mask_dicts)
    t, parsed = timed(lambda: [masks.RleMask.from_json_dict(d) for d in mask_dicts])
    m["masks.rle_parse_us_per_count"] = t * 1e6 / n_counts
    t, _ = timed(lambda: [masks.foreground_intervals(x) for x in parsed])
    m["masks.foreground_intervals_us_per_mask"] = t * 1e6 / len(parsed)
    t, _ = timed(lambda: [masks.mask_to_bbox(x) for x in parsed])
    m["masks.mask_to_bbox_us_per_mask"] = t * 1e6 / len(parsed)

    gt_by_frame = {(r.video_id, r.frame_id): [g.mask for g in r.instances
                                              if g.triplet_id is not None]
                   for r in gt}
    pairs = [(p.mask, g) for p in preds for g in gt_by_frame.get((p.video_id, p.frame_id), ())]
    m["masks.iou_pairs"] = len(pairs)
    t, ious = timed(lambda: [masks.mask_iou(a, b) for a, b in pairs])
    m["masks.mask_iou_us_per_pair"] = t * 1e6 / len(pairs)
    m["masks.iou_above_threshold_share"] = sum(v >= 0.5 for v in ious) / len(pairs)
    box_pairs = [(masks.mask_to_bbox(a), masks.mask_to_bbox(b)) for a, b in pairs]
    t, box_ious = timed(lambda: [masks.box_iou(a, b) for a, b in box_pairs], 3)
    m["masks.box_iou_us_per_pair"] = t * 1e6 / len(pairs)
    m["masks.box_overlap_share"] = sum(v > 0 for v in box_ious) / len(pairs)

    # evaluation, with inputs preloaded
    reports = {}
    for key, mode, jobs, data in (("seg", "seg", 1, preds), ("seg_jobs2", "seg", 2, preds),
                                  ("det", "det", 1, preds), ("rec", "rec", 1, recs[0])):
        config = evaluation.EvalConfig(mode=mode, jobs=jobs)
        # silences the warning about predictions on frames outside the ground truth
        with contextlib.redirect_stderr(io.StringIO()):
            t, reports[key] = timed(lambda: evaluation.evaluate(gt, data, config, sch))
        m[f"evaluation.evaluate_{key}_s"] = t
    docs = {key: r.to_json_dict() for key, r in reports.items()}
    checks.check(docs["seg"] == docs["seg_jobs2"],
                 "in-process seg reports differ between jobs 1 and jobs 2")
    for key, doc in docs.items():
        checks.check(doc["frame_count"] == expected["gt_frames"],
                     f"in-process {key} frame_count {doc['frame_count']}")
    t, _ = timed(lambda: json.dumps(reports["seg"].to_json_dict(), indent=2), 5)
    m["evaluation.report_json_ms"] = t * 1e3
    m["evaluation.classes_scored"] = sum(len(c.per_class)
                                         for c in reports["seg"].components.values())
    gt_keys = set(gt_by_frame)
    unknown = len({(p.video_id, p.frame_id) for p in preds} - gt_keys)
    m["evaluation.predictions_unknown_frames"] = unknown
    checks.check(unknown == expected["unknown_pred_frames"],
                 f"{unknown} predicted frames outside the ground truth")
    # AP inputs: every frame's rec score and label for each triplet class
    rec_scores = {(r.video_id, r.frame_id): r.scores for r in recs[0]}
    ranked = []
    for tid in ids:
        items = [(rec_scores[(r.video_id, r.frame_id)][tid], tid in r.frame_triplets)
                 for r in gt]
        positives = sum(flag for _, flag in items)
        if positives:
            ranked.append((items, positives))
    t, _ = timed(lambda: [evaluation.average_precision(items, n, "step")
                          for items, n in ranked], 3)
    m["evaluation.average_precision_us_per_item"] = (
        t * 1e6 / sum(len(items) for items, _ in ranked))

    # stats
    keys = [(r.video_id, r.frame_id) for r in gt]
    size = len(keys) // 2 // N_SUBSETS
    t, _ = timed(lambda: stats.partition_frames(keys, N_SUBSETS, size, seed), 3)
    m["stats.partition_frames_ms"] = t * 1e3
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0, 100, 20), rng.uniform(0, 100, 20)
    t, _ = timed(lambda: stats.wilcoxon_one_sided(x, y, method="exact"), 3)
    m["stats.wilcoxon_exact_n20_ms"] = t * 1e3

    # fusion, with the fusion-check defaults
    rng = np.random.default_rng(0)
    params = fusion.FusionParams.random(8, 6, rng)
    queries = rng.standard_normal((4, 8))
    logits = rng.standard_normal((4, 4, 6))
    t, grad = timed(lambda: fusion.grad_check(params, queries, logits, 2), 3)
    m["fusion.grad_check_ms"] = t * 1e3
    checks.check(grad.passed, "fusion gradient check failed")
    return m


def run(work: Path, seed: int, seconds: float, expected: dict,
        checks: Checks) -> tuple[dict, dict]:
    """Layer passes for the first half of ``seconds``, then pairs of
    untraced and traced in-process journeys for the rest (at least one of
    each). Every figure is the median over its repeats."""
    steps = journey(work, expected["gt_frames"] // 2 // N_SUBSETS, seed)
    start = time.perf_counter()
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(measure(work, seed, expected, checks))
        now = time.perf_counter()
        if now + (now - began) > start + seconds / 2:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}

    untraced, traced, summaries = [], [], []
    reference = None
    while True:
        began = time.perf_counter()
        total, outputs = run_cli_journey(work, steps, checks, None)
        untraced.append(total)
        validate_out = work / "validate.out"
        validate_out.write_text(outputs["validate_s"])
        reference = check_journey(work, expected, checks, validate_out, reference)
        tracer = Tracer()
        with tracer.installed():
            total, _ = run_cli_journey(work, steps, checks, tracer)
        traced.append(total)
        reference = check_journey(work, expected, checks, validate_out, reference)
        summaries.append(tracer.summary())
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            break

    spans = {
        name: {key: statistics.median(s[name][key] for s in summaries)
               for key in ("calls", "total_s", "self_s")}
        for name in summaries[0]
    }
    for layer in LAYERS:
        mine = [s for name, s in spans.items() if name.split(".")[0] == layer]
        metrics[f"trace.{layer}.self_s"] = sum(s["self_s"] for s in mine)
        metrics[f"trace.{layer}.calls"] = sum(s["calls"] for s in mine)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    detail = {"layer_passes": len(passes), "traced_journeys": len(traced),
              "spans": spans, "output_sha256": reference}
    return metrics, detail
