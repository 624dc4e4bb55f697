"""Benchmark of the archsearch search loop.

    python3 bench/run_bench.py --workload macro-search --seed 1 --seconds 40 --trace 0
    python3 bench/run_bench.py --workload all            # every workload, one table

Each timed run is a fresh single-threaded Python process (child.py) that
runs one `archsearch` command in-process, from config parsing to the last
artifact written, and then checks that command's outputs. Runs repeat until
--seconds have passed (at least three; by default the run_seconds of
BENCHMARK.json), and each metric is taken over the runs as AGGREGATE says.
With --trace 0 the end-to-end metrics of BENCHMARK.json are reported; with
--trace 1, traced and untraced runs alternate and the per-layer metrics are
reported, including the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Everything is written under .bench_tmp/ in the
checkout and removed at exit. Workload notes are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import CHECKPOINT_ITERATIONS, DEFAULT_SEED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = json.loads((BENCH / "digests.json").read_text())

# BLAS and OpenMP pools pinned to one thread; a fixed hash seed keeps set
# and dict layouts the same in every process.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
MIN_RUNS = 3           # per kind of run: untraced, and traced with --trace 1
# Per-layer metrics the launcher computes from both kinds of runs.
DERIVED_LAYER_METRICS = ("trace.untraced_iter_ms", "trace.overhead_ratio")
CHILD_TIMEOUT_S = 60  # one process; the whole invocation must end within 180 s


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


# How each end-to-end metric is taken over the processes of one invocation.
# The machine's speed switches between levels for tens of seconds at a time,
# so a median over processes jumps between levels; the middle-half mean
# follows the share of time spent at each (see README.md).
AGGREGATE = {"iter_ms": interquartile_mean, "run_s": interquartile_mean,
             "setup_s": statistics.median, "peak_rss_mb": statistics.median}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    spec = load_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_lines() -> int:
    """`wc -l src/archsearch/*.py`: tracked, never gated."""
    return sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "archsearch").glob("*.py"))


class CheckpointError(RuntimeError):
    """The untimed search that makes macro-sample's checkpoint failed."""


def make_checkpoint(workload: Workload, seed: int, tmp: Path) -> Path:
    """Untimed set-up of macro-sample: a short search that saves its controller."""
    out = tmp / "checkpoint-run"
    cmd = [sys.executable, "-m", "archsearch.cli", "search", "--config", workload.config,
           "--iterations", str(CHECKPOINT_ITERATIONS), "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckpointError(f"checkpoint set-up failed: {proc.stderr.strip()[-500:]}")
    return out / "checkpoint.npz"


def run_once(workload: Workload, seed: int, trace: bool, tmp: Path, index: int,
             checkpoint: Path | None) -> dict:
    """One fresh process; its measurements, or {"error": ...} if it failed."""
    run_dir = tmp / f"run{index}"
    (run_dir / "scratch").mkdir(parents=True)
    spec = {"workload": workload.name, "seed": seed, "trace": trace, "root": str(ROOT),
            "out": str(run_dir / "out"), "scratch": str(run_dir / "scratch"),
            "result": str(run_dir / "result.json"),
            "checkpoint": str(checkpoint) if checkpoint else None}
    spec["spawn_ns"] = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    try:
        result = json.loads(Path(spec["result"]).read_text())
    except FileNotFoundError:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result["exit_code"] != 0:
        return {"error": f"archsearch exited {result['exit_code']}"}
    if result["problems"]:
        return {"error": "; ".join(result["problems"])}
    if seed == DEFAULT_SEED and result["digest"] != DIGESTS[workload.name]:
        return {"error": f"output digest {result['digest']} differs from digests.json"}
    return result


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat fresh-process runs for `seconds`; the metrics and the raw samples."""
    end_to_end, per_layer = declared_metrics()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_tmp"))
    min_runs = MIN_RUNS * (2 if trace else 1)
    runs: list[tuple[bool, dict]] = []
    try:
        checkpoint = make_checkpoint(workload, seed, tmp) if workload.command == "sample" else None
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(runs) < min_runs:
            traced = trace and len(runs) % 2 == 1
            runs.append((traced, run_once(workload, seed, traced, tmp, len(runs), checkpoint)))
    except CheckpointError as exc:
        runs.append((False, {"error": str(exc)}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    errors = [r["error"] for _, r in runs if "error" in r]
    untraced = [r for traced, r in runs if not traced and "error" not in r]
    traced = [r["layers"] for is_traced, r in runs if is_traced and "error" not in r]
    values: dict[str, float] = {}
    if trace:
        samples = {name: [r[name] for r in traced] for name in per_layer
                   if name not in DERIVED_LAYER_METRICS}
        samples["trace.untraced_iter_ms"] = [r["iter_ms"] for r in untraced]
        if traced and untraced:
            values = {name: statistics.median(v) for name, v in samples.items()}
            values["trace.overhead_ratio"] = (values["trace.iter_ms"]
                                              / values["trace.untraced_iter_ms"])
        units = per_layer
    else:
        samples = {name: [r[name] for r in untraced] for name in end_to_end}
        if untraced:
            values = {name: AGGREGATE[name](samples[name]) for name in end_to_end}
        units = end_to_end
    return {"workload": workload.name, "seed": seed, "trace": int(trace),
            "attempted": len(runs), "failed": len(errors), "errors": errors,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
            "samples": samples,
            "meta": next((r["meta"] for _, r in runs if "meta" in r), {})}


def machine_meta(child_meta: dict) -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": child_meta.get("python"), "numpy": child_meta.get("numpy"),
            "blas": child_meta.get("blas"), "threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
            "src_lines": source_lines()}


def print_report(report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"runs {attempted}  failed_share {failed}/{attempted} = {failed / attempted:.3f}")
    for error in report["errors"]:
        print(f"  FAILED: {error}")
    for name, metric in report["metrics"].items():
        values = report["samples"].get(name, [])
        spread = ""
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"   q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
        print(f"  {name:<56s} {metric['value']:>14.6g} {metric['unit']}{spread}")
    print(f"meta {json.dumps(report['meta'], sort_keys=True)}")


def contract_line(report: dict) -> dict:
    return {"correct": report["failed"] == 0 and bool(report["metrics"]),
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": report["metrics"]}


def _terminate(signum: int, frame) -> None:
    # As an exception, SIGTERM makes subprocess.run kill and reap the running
    # child and lets measure() remove its temporary directory.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each report as one JSON line to this file "
                                      "(for compare.py)")
    args = parser.parse_args(argv)
    try:
        for needed in [ROOT / "src" / "archsearch" / "cli.py",
                       *(ROOT / w.config for w in WORKLOADS.values())]:
            if not needed.is_file():
                raise BenchError(f"{needed} not found: run from a full checkout")
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        reports = []
        for name in names:
            report = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace))
            report["meta"] = machine_meta(report["meta"])
            print_report(report)
            reports.append(report)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(report, sort_keys=True) + "\n")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(reports) == 1:
        print(json.dumps(contract_line(reports[0])))
    else:
        print(json.dumps({r["workload"]: contract_line(r) for r in reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
