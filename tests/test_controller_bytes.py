"""Pins the bytes the controller produces, independent of how it stores them.

Two whole searches are run through the command line: a macro search (the
78-step, vocab-204, hidden-64 controller, one update per sample) and a
condensenet search with batched updates and the moving-average baseline.
The SHA-256 of each ``results.csv`` pins every sampled action, reward and
gradient norm. The log-probability of a fixed sequence under the reloaded
final controller pins its parameters without depending on their layout.
Any change to the numeric path that is not bit-identical fails here.
"""

import hashlib

import pytest

from archsearch import controller as ctl
from archsearch.cli import main
from archsearch.search_space import ActionSequence

RUNS = {
    "macro": (
        ["--space", "macro", "--reward", "mac_constraint", "--threshold", "0.31",
         "--violation-reward", "-1", "--iterations", "60", "--seed", "1"],
        "aa284fd7e29d25bd7aa77c3458dc6fdb81d4a9f0807b0b6a3925761e4369e173",
        "-76.27362597885356",
    ),
    "condensenet-batch4-baseline": (
        ["--space", "condensenet", "--reward", "power_constraint", "--threshold", "70",
         "--batch", "4", "--baseline", "on", "--iterations", "120", "--seed", "1"],
        "51dd0d808d150242d1e0544f8c2e52fb0e50743cd650c59f503d152cf2a7cd2e",
        "-11.32549007090383",
    ),
}


def fixed_sequence(space):
    """Candidate t mod arity at slot t: touches every head and many tokens."""
    return ActionSequence(actions=tuple(t % len(slot.candidates)
                                        for t, slot in enumerate(space.slots)))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_search_bytes_and_final_policy(name, tmp_path):
    args, results_sha, log_prob = RUNS[name]
    out = tmp_path / "run"
    assert main(["search", *args, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == results_sha
    state = ctl.load_checkpoint(out / "checkpoint.npz")
    assert repr(ctl.action_log_prob(state, fixed_sequence(state.space))) == log_prob
