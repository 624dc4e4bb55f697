"""The benchmark's workloads and the sizes of their runs.

Standard library only: the launcher imports this module without importing
archsearch. Why each workload exists is written out in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose output bytes are pinned in digests.json.
DEFAULT_SEED = 1

# Search iterations of the untimed run that trains the macro-sample checkpoint.
CHECKPOINT_ITERATIONS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    config: str      # repo-relative config file; --seed and --iterations override it
    command: str     # archsearch subcommand that is timed: search, random or sample
    iterations: int  # loop length of one timed process (samples for `sample`)
    why: str

    def cli_argv(self, seed: int, out_dir: str, checkpoint: str | None = None) -> list[str]:
        """Arguments of the in-process `archsearch` command for one timed process."""
        if self.command == "sample":
            return ["sample", "--checkpoint", checkpoint, "--n", str(self.iterations),
                    "--seed", str(seed), "--out", out_dir]
        return [self.command, "--config", self.config, "--iterations", str(self.iterations),
                "--seed", str(seed), "--out", out_dir]


WORKLOADS = {w.name: w for w in (
    Workload("macro-search", "configs/macro_mac031.cfg", "search", 60,
             "controller-bound: LSTM backward and forward are most of the loop"),
    Workload("condensenet-lookup", "configs/condensenet_lookup.cfg", "search", 600,
             "tiny controller, so fixed per-call cost and the lookup miss path dominate"),
    Workload("macro-random", "configs/macro_mac031.cfg", "random", 600,
             "no controller: surrogate, MAC model, decode and the growing front"),
    Workload("macro-sample", "configs/macro_mac031.cfg", "sample", 200,
             "controller forward only, from a checkpoint loaded at set-up"),
)}
