"""Benchmark of the tripletseg toolkit: wall time per subcommand, per-layer
timings, and checks that every output is right.

Run it from the root of a source checkout; the package is imported from
``src/`` there, so no install is needed.

    python3 perfbench/run.py --workload seg-crowded --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the run repeats the user journey (``align``,
``validate``, ``stats``, ``eval`` in seg, seg with two jobs, det and rec,
then ``compare``) as separate CLI processes, one at a time, from this one
driver process: a closed loop with one client. It reports the mean wall
time of each subcommand, from spawn to ``wait4``. With ``--trace 1`` it
instead times each module's public functions from outside on the same
data and runs the journey in-process under span tracing. The metric names
and units are those of ``BENCHMARK.json``; ``--workload all`` runs every
workload in both modes and prints every metric with its unit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record (environment,
input properties, output hashes, spans) goes to
``.bench_results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from journey import N_SUBSETS, Checks, check_journey, journey

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_SAMPLES_PER_JOURNEY = 3
MIN_JOURNEYS = 3
SETUP_CODE = "import tripletseg; tripletseg.load_schema()"


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


class Cli:
    """Runs toolkit processes one at a time through the spawner helper,
    which times each from spawn to ``wait4`` and reports its peak RSS."""

    def __init__(self, logs: Path) -> None:
        self.logs = logs
        logs.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.peak_rss_kib = 0
        self.count = 0
        self.helper = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Cli":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()

    def run(self, argv: list[str], track_rss: bool = True) -> tuple[int, float, Path]:
        """Run ``python argv``; return its exit code, wall time and the file
        holding its standard output."""
        self.count += 1
        out = self.logs / f"{self.count:04d}.out"
        err = self.logs / f"{self.count:04d}.err"
        request = {"argv": [sys.executable, *map(str, argv)], "env": self.env,
                   "stdout": str(out), "stderr": str(err)}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = json.loads(self.helper.stdout.readline())
        if track_rss:
            self.peak_rss_kib = max(self.peak_rss_kib, reply["maxrss_kib"])
        if reply["code"] != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            print(f"{' '.join(map(str, argv[:3]))} exited {reply['code']}: {tail}",
                  file=sys.stderr)
        return reply["code"], reply["seconds"], out

    def tripletseg(self, args: list) -> tuple[int, float, Path]:
        return self.run(["-m", "tripletseg.cli", *args])

    def setup(self) -> float:
        code, elapsed, _ = self.run(["-c", SETUP_CODE], track_rss=False)
        if code != 0:
            raise RuntimeError("importing tripletseg failed")
        return elapsed


def run_journeys(cli: Cli, work: Path, seed: int, seconds: float, expected: dict,
                 checks: Checks) -> tuple[dict, dict]:
    subset_size = expected["gt_frames"] // 2 // N_SUBSETS
    steps = journey(work, subset_size, seed)
    times: dict[str, list[float]] = {name: [] for name, _ in steps}
    setup: list[float] = []
    reference = None
    start = time.perf_counter()
    journeys = 0
    while True:
        began = time.perf_counter()
        for _ in range(SETUP_SAMPLES_PER_JOURNEY):
            setup.append(cli.setup())
        shutil.rmtree(work / "gt", ignore_errors=True)
        validate_out = None
        for name, argv in steps:
            code, elapsed, out = cli.tripletseg(argv)
            times[name].append(elapsed)
            checks.check(code == 0, f"{argv[0]} ({name}) exited {code}")
            if name == "validate_s":
                validate_out = out
        journeys += 1
        reference = check_journey(work, expected, checks, validate_out, reference)
        now = time.perf_counter()
        if journeys >= MIN_JOURNEYS and now + (now - began) > start + seconds:
            break
    # Single-process times on a shared 2-core host fall into two speed states
    # about 1.3x apart, and the share of samples in the slow one changes from
    # run to run. The median jumps between the states as that share crosses
    # one half; the mean moves with it smoothly, so runs agree more closely.
    metrics = {name: statistics.mean(vals) for name, vals in times.items()}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mib"] = cli.peak_rss_kib / 1024.0
    detail = {
        "journeys": journeys,
        "samples": {**times, "setup_s": setup},
        "output_sha256": reference,
    }
    return metrics, detail


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.SPECS[workload]
    import tripletseg

    if not Path(tripletseg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"tripletseg imported from {tripletseg.__file__}, not {SRC}")
    contract = load_contract()
    wanted = contract["per_layer" if trace else "end_to_end"]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "load_1min_before": os.getloadavg()[0]}
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    checks = Checks()
    try:
        made = workloads.generate(spec, seed, work, tripletseg.load_schema().triplets)
        record["inputs"] = made
        if trace:
            import layers

            metrics, detail = layers.run(work, seed, seconds, made["expected"], checks)
        else:
            with Cli(work / "logs") as cli:
                # compile the package once, so no timed process pays for bytecode
                cli.run(["-c", "import tripletseg.cli"], track_rss=False)
                metrics, detail = run_journeys(cli, work, seed, seconds, made["expected"],
                                               checks)
        record.update(detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    record["load_1min_after"] = os.getloadavg()[0]
    record["failures"] = checks.failures
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record["result"] = result
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return result


def print_table(title: str, result: dict) -> None:
    print(f"== {title}: attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.SPECS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tripletseg" / "cli.py").is_file():
        print(f"no toolkit source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds or load_contract()["run_seconds"]

    if args.workload != "all":
        result = run_one(args.workload, args.seed, seconds, bool(args.trace))
        print_table(f"{args.workload} seed {args.seed} trace {args.trace}", result)
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.SPECS:
        for trace in (False, True):
            result = run_one(name, args.seed, seconds, trace)
            print_table(f"{name} seed {args.seed} trace {int(trace)}", result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
