"""Command-line entry point.

Subcommands: validate, align, stats, eval, compare, fusion-check. All
structured output is JSON written to files or stdout; human summaries go
to stdout, diagnostics to stderr. Exit codes: 0 success, 1 domain or
validation error, 2 I/O or environment error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

# each command imports the modules only it uses; numpy loads only with fusion
# (fusion-check), after main has capped OpenBLAS at one thread. Records are
# NamedTuples or __slots__ classes, so no command loads the dataclass
# machinery, and inspect loads only with numpy
from . import dataset_io
from .errors import TripletSegError
from .schema import COMPONENTS, load_schema

log = logging.getLogger("tripletseg")

JOBS_HELP = "accepted for compatibility (must be at least 1); the work runs in one process"


def _add_schema_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--schema", metavar="CSV", default=None,
        help="triplet vocabulary CSV (default: packaged 100-triplet vocabulary)",
    )


def _add_scoring_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iou-threshold", type=float, default=0.5, metavar="T")
    parser.add_argument("--averaging", choices=("pooled", "per_video"), default="pooled")
    parser.add_argument("--ap-method", choices=("envelope", "step"), default=None,
                        help="default: envelope for seg/det, step for rec")
    parser.add_argument("--jobs", type=int, default=1, metavar="N", help=JOBS_HELP)


def _write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# flags naming the files a command reads; --gt, --masks and align's --out
# name directories of videos, and --out, --report and --json-out outputs
_READ_FILES = ("labels", "schema", "preds", "preds_a", "preds_b", "values_a", "values_b")
_PATH_FLAGS = (*_READ_FILES, "gt", "masks", "out", "report", "json_out")


def _refuse_outputs_on_inputs(args: argparse.Namespace) -> None:
    """Refuses, before anything is read, an output that resolves to a file
    the command reads, to a directory of videos, or to a *.json file
    directly in one, which later commands read as a video."""
    def flag(name: str) -> str:
        return "--" + name.replace("_", "-")

    # realpath, unlike Path.resolve before Python 3.13, raises no error on a symlink loop
    real = {name: os.path.realpath(value) for name, value in vars(args).items()
            if name in _PATH_FLAGS and value is not None}
    video_dirs = [d for d in ("gt", "masks", "out")
                  if d in real and (d != "out" or args.command == "align")]
    for out in ("out", "report", "json_out"):
        if out not in real:
            continue
        path, given = real[out], f"{flag(out)} {getattr(args, out)}"
        dirs = [d for d in video_dirs if d != out]
        for name, kind in [(n, "file") for n in _READ_FILES] + [(d, "directory") for d in dirs]:
            if real.get(name) == path:
                raise TripletSegError(
                    f"{given} is the {flag(name)} {kind}, which {args.command} reads")
        if path.endswith(".json") and os.path.dirname(path) in (real[d] for d in dirs):
            raise TripletSegError(
                f"{given} is a *.json file in {' or '.join(map(flag, dirs))}, "
                "which later commands read as a video")


def _cmd_validate(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    paths = dataset_io.video_files(args.gt)
    errors = 0
    n_frames = 0
    for path in paths:
        try:
            frames = dataset_io.parse_video_file(path, schema)
        except TripletSegError as exc:
            print(f"error: {exc}", file=sys.stderr)
            errors += 1
            continue
        n_frames += len(frames)
        print(f"{path.name}: ok ({len(frames)} frames)")
    print(f"{len(paths)} files, {n_frames} frames, {errors} errors")
    return 0 if errors == 0 else 1


def _cmd_align(args: argparse.Namespace) -> int:
    from . import alignment
    schema = load_schema(args.schema)
    labels = alignment.read_label_stream(args.labels)
    masks = alignment.read_mask_stream(args.masks, schema)
    frames, report = alignment.align_frames(labels, masks, schema, jobs=args.jobs)
    written = dataset_io.write_ground_truth(frames, args.out)
    if args.report:
        _write_json(args.report, [e.to_json_dict() for e in report.entries])
    # validate, stats, eval and compare read every *.json in the directory
    stale = sorted({p.name for p in Path(args.out).glob("*.json")} - {p.name for p in written})
    if stale:
        log.warning("%s holds %d *.json file(s) besides this run's ground truth, which "
                    "later commands read as videos: %s%s", args.out, len(stale),
                    ", ".join(stale[:5]), ", ..." if len(stale) > 5 else "")
    summary = alignment.alignment_stats(report, frames)
    print(
        f"aligned {len(frames)} frames into {len(written)} video files "
        f"under {args.out}"
    )
    print(
        f"assigned {summary['assigned']} of "
        f"{summary['total_labels_on_matched_frames']} triplet labels "
        f"(rate {summary['assignment_rate']:.4f})"
    )
    for kind, count in summary["counts"].items():
        print(f"  {kind}: {count}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    frames = dataset_io.read_ground_truth(args.gt, schema)
    summary = dataset_io.dataset_stats(frames, schema)
    print(summary.render_text())
    if args.json_out:
        _write_json(args.json_out, summary.to_json_dict())
    return 0


def _build_eval_config(args: argparse.Namespace, components: str):
    """The ``EvalConfig`` of the shared eval flags; ``components`` is a
    comma-separated list, checked by ``EvalConfig``."""
    from .evaluation import EvalConfig
    return EvalConfig(
        mode=args.mode,
        iou_threshold=args.iou_threshold,
        components=tuple(c.strip().lower() for c in components.split(",") if c.strip()),
        averaging=args.averaging,
        ap_method=args.ap_method,
        jobs=args.jobs,
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation
    schema = load_schema(args.schema)
    config = _build_eval_config(args, args.components)
    frames = dataset_io.read_ground_truth(args.gt, schema)
    # each record passes the checks match makes as it is read, so an error
    # names the file; the frame sizes are built in the call, so they are freed
    # before matching
    preds = dataset_io.read_predictions(
        args.preds, args.mode, schema,
        {(r.video_id, r.frame_id): (r.height, r.width) for r in frames})
    report = evaluation.evaluate(frames, preds, config, schema)
    print(report.render_table())
    if args.out:
        _write_json(args.out, report.to_json_dict())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import evaluation, stats
    values_form = args.values_a is not None or args.values_b is not None
    pipeline_form = any(
        getattr(args, name) is not None for name in ("gt", "preds_a", "preds_b")
    )
    if values_form and pipeline_form:
        raise TripletSegError(
            "give either --values-a/--values-b or --gt/--preds-a/--preds-b, not both"
        )
    config = _build_eval_config(args, args.metric)
    if len(config.components) != 1:
        raise TripletSegError(f"--metric names one component, got {args.metric!r}")
    (component,) = config.components

    if values_form:
        if args.values_a is None or args.values_b is None:
            raise TripletSegError("both --values-a and --values-b are required")
        values_a = dataset_io.read_values(args.values_a)
        values_b = dataset_io.read_values(args.values_b)
        metric = f"mAP_{evaluation.COMPONENT_LABELS[component]}"
        n_subsets = len(values_a)
        subset_size = None
        seed = None
    else:
        for name in ("gt", "preds_a", "preds_b"):
            if getattr(args, name) is None:
                raise TripletSegError(f"--{name.replace('_', '-')} is required")
        schema = load_schema(args.schema)
        frames = dataset_io.read_ground_truth(args.gt, schema)
        # the partition needs only the ground truth: check it before reading predictions
        frame_keys = [(r.video_id, r.frame_id) for r in frames]
        partition = stats.partition_frames(frame_keys, args.n_subsets, args.subset_size, args.seed)
        # keep only what lies on frames a subset scores, as soon as each file
        # is read, with every record checked, so A's other records go before B
        # is read; a mask or box must fit a scored frame, the only frames matched
        used = {key for subset in partition.subsets for key in subset}
        frames = [r for r in frames if (r.video_id, r.frame_id) in used]
        sizes = {(r.video_id, r.frame_id): (r.height, r.width) for r in frames}

        def read(path: str) -> list:
            preds = dataset_io.read_predictions(path, args.mode, schema, sizes)
            return [p for p in preds if (p.video_id, p.frame_id) in used]

        preds_a, preds_b = read(args.preds_a), read(args.preds_b)
        # match each method once, then score every subset from its table
        tables = [evaluation.match(frames, preds, config, schema) for preds in (preds_a, preds_b)]
        values_a, values_b = (
            [evaluation.score(t, s).components[component].mAP for s in partition.subsets]
            for t in tables
        )
        metric = f"mAP_{evaluation.COMPONENT_LABELS[component]}_{args.mode}"
        n_subsets = args.n_subsets
        subset_size = args.subset_size
        seed = args.seed

    result = stats.compare_methods(values_a, values_b)
    payload = {
        "metric": metric,
        "n_subsets": n_subsets,
        "subset_size": subset_size,
        "seed": seed,
        "per_subset": [{"a": a, "b": b} for a, b in result.per_subset],
        "wilcoxon": result.wilcoxon.to_json_dict(),
    }
    print(result.render_text())
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _check_fusion_sizes(args: argparse.Namespace) -> None:
    """Rejects flags that size one of the check's float64 arrays at 2**63
    bytes or more, which numpy refuses with a bare ValueError."""
    d, q, c, h, w = args.d, args.queries, args.tissue_classes, args.height, args.width
    tokens = sum((h >> k) * (w >> k) for k in range(args.levels))  # pyramid cells
    for flags, shape in (
        (("d",), (d, d)),
        (("tissue_classes",), (c, c)),
        (("tissue_classes", "d"), (c, d)),
        (("queries", "d"), (q, d)),
        (("height", "width", "tissue_classes"), (tokens, c)),
        (("height", "width", "d"), (tokens, d)),
        (("queries", "height", "width"), (q, tokens)),
    ):
        if 8 * math.prod(shape) >= 2**63:
            named = ", ".join(f"--{f.replace('_', '-')} {getattr(args, f)}" for f in flags)
            raise TripletSegError(
                f"{named}: a {'x'.join(map(str, shape))} float64 array overflows int64 bytes"
            )


def _cmd_fusion_check(args: argparse.Namespace) -> int:
    from . import fusion
    for name in ("d", "queries", "height", "width", "tissue_classes", "levels"):
        if getattr(args, name) < 1:
            raise TripletSegError(f"--{name.replace('_', '-')} must be at least 1")
    if args.seed < 0:
        raise TripletSegError("--seed must be non-negative")
    for name in ("height", "width"):
        # a shift, not 2 ** (levels - 1): a huge --levels builds no huge int
        if getattr(args, name) >> (args.levels - 1) == 0:
            raise TripletSegError(
                f"--{name} must be at least 2^(levels-1) for --levels {args.levels}"
            )
    _check_fusion_sizes(args)
    checks, report = fusion.self_check(
        args.seed, args.d, args.queries, args.height, args.width,
        args.tissue_classes, args.levels,
    )
    for label, ok in checks:
        print(f"{'pass' if ok else 'FAIL'}  {label}")
    print(report.render_text())
    if args.json_out:
        _write_json(args.json_out, {
            "seed": args.seed,
            "checks": {label: ok for label, ok in checks},
            "grad_check": report.to_json_dict(),
        })
    return 0 if all(ok for _, ok in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripletseg",
        description=(
            "Construct, validate, and evaluate instance-grounded surgical "
            "action triplet datasets."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a ground-truth directory")
    p.add_argument("--gt", required=True, metavar="DIR")
    _add_schema_flag(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "align",
        help="fuse a triplet label stream with an instance mask stream",
    )
    p.add_argument("--labels", required=True, metavar="CSV",
                   help="label stream: video_id,frame_id,triplet_id rows")
    p.add_argument("--masks", required=True, metavar="DIR",
                   help="mask stream: per-video JSON without triplet ids")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output ground-truth directory")
    p.add_argument("--report", metavar="JSON",
                   help="write the ambiguity report here")
    p.add_argument("--jobs", type=int, default=1, metavar="N", help=JOBS_HELP)
    _add_schema_flag(p)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("stats", help="dataset summary counts")
    p.add_argument("--gt", required=True, metavar="DIR")
    p.add_argument("--json-out", metavar="JSON")
    _add_schema_flag(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--gt", required=True, metavar="DIR")
    p.add_argument("--preds", required=True, metavar="JSON")
    p.add_argument("--mode", required=True, choices=("seg", "det", "rec"))
    p.add_argument("--components", default=",".join(COMPONENTS),
                   help="comma-separated subset of i,v,t,iv,it,ivt")
    _add_scoring_flags(p)
    p.add_argument("--out", metavar="JSON", help="write the report here")
    _add_schema_flag(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "compare",
        help="paired subset comparison of two methods (one-sided Wilcoxon)",
    )
    p.add_argument("--gt", metavar="DIR")
    p.add_argument("--preds-a", metavar="JSON")
    p.add_argument("--preds-b", metavar="JSON")
    p.add_argument("--mode", choices=("seg", "det", "rec"), default="seg")
    p.add_argument("--metric", default="ivt",
                   help="component whose mAP is compared (default ivt)")
    p.add_argument("--n-subsets", type=int, default=12, metavar="N")
    p.add_argument("--subset-size", type=int, default=500, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    _add_scoring_flags(p)
    p.add_argument("--values-a", metavar="JSON",
                   help="precomputed per-subset metric values for method a")
    p.add_argument("--values-b", metavar="JSON",
                   help="precomputed per-subset metric values for method b")
    p.add_argument("--out", metavar="JSON", help="write the comparison here")
    _add_schema_flag(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "fusion-check",
        help="run the gated cross-attention invariant and gradient suite",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=8, help="channel dimension")
    p.add_argument("--queries", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--tissue-classes", type=int, default=6)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--json-out", metavar="JSON")
    p.set_defaults(func=_cmd_fusion_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # numpy's OpenBLAS starts a worker thread per extra core as it loads.
        # No command gains from them (only fusion-check calls BLAS, on tiny
        # matrices), and on a 2-core host starting one made `import numpy`
        # take about 150 ms instead of 90. A value the user set wins; a process
        # that already loaded numpy has its pool, so its environment is left
        # alone.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING - 10 * min(args.verbose, 2),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _refuse_outputs_on_inputs(args)
        return args.func(args)
    except TripletSegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except Exception as exc:  # never panic to the shell
        log.exception("unexpected failure")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
