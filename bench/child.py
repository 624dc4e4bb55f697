"""One timed `archsearch` command, run in-process in a fresh interpreter.

Started by run_bench.py, one process per timed run, with one argument: a
JSON object holding the workload, seed, output directory, trace flag, the
parent's CLOCK_MONOTONIC reading just before it started this process, and
the path to write the measurements to. The command runs through
`archsearch.cli.main`, from config parsing to the last artifact written;
the output checks run after the clock stops.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from checks import check_run, digest
from spans import LoopClock, Recorder, now_ns
from workloads import WORKLOADS


def _meta() -> dict[str, str]:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    root = Path(spec["root"])
    out_dir = Path(spec["out"])
    from archsearch import cli
    src = (root / "src").resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"archsearch was imported from {cli.__file__}, not from {src}")

    probe = Recorder(workload.command) if spec["trace"] else LoopClock(workload.command)
    argv = workload.cli_argv(spec["seed"], str(out_dir), spec.get("checkpoint"))
    main_start = now_ns()
    code = cli.main(argv)
    end = now_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.undo()

    result: dict = {"exit_code": code}
    if code == 0:
        checkpoint = out_dir / "checkpoint.npz"
        checkpoint_bytes = checkpoint.stat().st_size if checkpoint.exists() else 0
        emit_bytes = sum(p.stat().st_size for p in out_dir.iterdir()) - checkpoint_bytes
        if spec["trace"]:
            result["layers"] = probe.metrics(workload.iterations, main_start,
                                             emit_bytes, checkpoint_bytes)
        else:
            if probe.first_ns is None:
                raise RuntimeError("the run never entered its loop")
            result["setup_s"] = (probe.first_ns - spec["spawn_ns"]) / 1e9
            result["iter_ms"] = (probe.end_ns - probe.first_ns) / workload.iterations / 1e6
            result["run_s"] = (end - main_start) / 1e9
            result["peak_rss_mb"] = peak_rss_mb
        result["problems"] = check_run(workload, root, spec["seed"], out_dir,
                                       Path(spec["scratch"]))
        result["digest"] = digest(out_dir, workload.command)
        result["meta"] = _meta()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
