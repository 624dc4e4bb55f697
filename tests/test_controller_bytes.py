"""Pins the bytes the controller produces, independent of how it stores them.

Four whole searches are run through the command line: a macro search (the
78-step, vocab-204, hidden-64 controller), once with one update per sample
and once with three samples per update, a condensenet search with batched
updates and the moving-average baseline, and an alexnet search with a hidden
size of 1, where every gradient sum runs over length-1 axes.
The SHA-256 of each ``results.csv`` pins every sampled action, reward and
gradient norm. The log-probability of a fixed sequence under the reloaded
final controller pins its parameters without depending on their layout.
Any change to the numeric path that is not bit-identical fails here.

Random searches on all three spaces are pinned the same way, so the
uniform sampler's draws cannot change either; so are the ``samples.csv``
files that ``sample`` writes from a macro and a condensenet checkpoint, each
made by a pinned search here.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsearch import controller as ctl
from archsearch.cli import main
from archsearch.search_space import (CONDENSENET_GROWTHS, CONDENSENET_STAGES, SPACE_KINDS,
                                     build_space)

RUNS = {
    "macro": (
        ["--space", "macro", "--reward", "mac_constraint", "--threshold", "0.31",
         "--violation-reward", "-1", "--iterations", "60", "--seed", "1"],
        "aa284fd7e29d25bd7aa77c3458dc6fdb81d4a9f0807b0b6a3925761e4369e173",
        "-76.27362597885356",
    ),
    "macro-batch3": (
        ["--space", "macro", "--reward", "mac_constraint", "--threshold", "0.31",
         "--violation-reward", "-1", "--batch", "3", "--iterations", "60", "--seed", "4"],
        "aff75c1da87a6c7fe90f5ffd4df7e66048b457a56248cbb84992492a1eee8322",
        "-356.49175565334326",
    ),
    "condensenet-batch4-baseline": (
        ["--space", "condensenet", "--reward", "power_constraint", "--threshold", "70",
         "--batch", "4", "--baseline", "on", "--iterations", "120", "--seed", "1"],
        "51dd0d808d150242d1e0544f8c2e52fb0e50743cd650c59f503d152cf2a7cd2e",
        "-11.32549007090383",
    ),
    "alexnet-hidden1-batch3-baseline": (
        ["--space", "alexnet", "--reward", "mixed", "--alpha", "0.5", "--hidden", "1",
         "--batch", "3", "--baseline", "on", "--iterations", "90", "--seed", "2"],
        "abb6495446ec587e393b0b2eccebc0363b0e7c281c1daf672fc44bd9286d9876",
        "-9.616129299061768",
    ),
}


RANDOM_RUNS = {
    "alexnet": (
        ["--space", "alexnet", "--reward", "mixed", "--alpha", "0.5",
         "--iterations", "300", "--seed", "3"],
        "8b956c0bdd6c1ddd34dde23941711f9677fff804e5a900f0d9d572abcd779de0",
    ),
    "condensenet-batch4": (
        ["--space", "condensenet", "--reward", "power_constraint", "--threshold", "70",
         "--batch", "4", "--iterations", "300", "--seed", "5"],
        "eece877b8a569fa8960caca32361dd601e5320ce4ba7e7632b46de1a4dc1b831",
    ),
    "macro": (
        ["--space", "macro", "--reward", "mac_constraint", "--threshold", "0.31",
         "--violation-reward", "-1", "--iterations", "200", "--seed", "1"],
        "6d9043ebd6cfd4fe8cca57eabf7c1bb63b3cb391828a584f58fedb3bb69cb774",
    ),
}

# search args, sample args, SHA-256 of samples.csv; "table.csv" is the table
# that `write_stage6_table` writes
SAMPLE_RUNS = {
    "macro": (
        RUNS["macro"][0],
        ["--n", "100", "--seed", "2"],
        "32b483e6f1f0f91c9fb5781dbabfd3aaa3db208a6918e0aa7fdf46f78a22f6c2",
    ),
    "condensenet-lookup-fallback": (
        ["--space", "condensenet", "--reward", "mixed", "--alpha", "0.5",
         "--iterations", "50", "--seed", "3"],
        ["--n", "400", "--evaluator", "lookup", "--fixture", "table.csv",
         "--fallback", "on", "--seed", "3"],
        "a1e99a8de62b50c6196c28acb280a4a915092ac9c81482ebc9fa1e8784db54fc",
    ),
}


def write_stage6_table(path):
    """A lookup table of every condensenet architecture whose first stage is 6,
    so that samples take both the table rows and the fallback."""
    lines = ["stage1,stage2,stage3,growth1,growth2,growth3,error_pct,energy_j"]
    for s2, s3, g1, g2, g3 in itertools.product(CONDENSENET_STAGES, CONDENSENET_STAGES,
                                                *[CONDENSENET_GROWTHS] * 3):
        lines.append(f"6,{s2},{s3},{g1},{g2},{g3},{(s2 + s3 + g1) / 16!r},"
                     f"{(6 * g1 + s2 * g2 + s3 * g3) / 10!r}")
    path.write_text("\n".join(lines) + "\n")


def fixed_sequence(space):
    """Candidate t mod arity at slot t: touches every head and many tokens."""
    return tuple(t % len(slot.candidates) for t, slot in enumerate(space.slots))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_search_bytes_and_final_policy(name, tmp_path):
    args, results_sha, log_prob = RUNS[name]
    out = tmp_path / "run"
    assert main(["search", *args, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == results_sha
    state = ctl.load_checkpoint(out / "checkpoint.npz")
    assert repr(ctl.action_log_prob(state, fixed_sequence(state.space))) == log_prob


@pytest.mark.parametrize("name", sorted(RANDOM_RUNS))
def test_random_search_bytes(name, tmp_path):
    args, results_sha = RANDOM_RUNS[name]
    out = tmp_path / "run"
    assert main(["random", *args, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == results_sha


@pytest.mark.parametrize("name", sorted(SAMPLE_RUNS))
def test_sample_bytes(name, tmp_path, monkeypatch):
    search_args, sample_args, samples_sha = SAMPLE_RUNS[name]
    monkeypatch.chdir(tmp_path)
    write_stage6_table(tmp_path / "table.csv")
    assert main(["search", *search_args, "--out", "run"]) == 0
    assert main(["sample", "--checkpoint", "run/checkpoint.npz", *sample_args,
                 "--out", "samples"]) == 0
    samples = (tmp_path / "samples" / "samples.csv").read_bytes()
    assert hashlib.sha256(samples).hexdigest() == samples_sha


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(SPACE_KINDS), seed=st.integers(0, 2**32 - 1),
       sequences=st.integers(1, 4), warmup=st.integers(0, 5))
def test_one_draw_per_sequence_equals_one_draw_per_slot(kind, seed, sequences, warmup):
    """rng.integers(arities) yields the per-slot scalar draws and the same generator
    state, with the arities as a list of Python ints or, as `run_random` passes
    them, as an int array."""
    arities = list(build_space(kind).arities)
    whole, per_slot, as_array = (np.random.default_rng(seed) for _ in range(3))
    for rng in (whole, per_slot, as_array):
        rng.random(warmup)
    for _ in range(sequences):
        drawn = whole.integers(arities).tolist()
        assert drawn == [int(per_slot.integers(n)) for n in arities]
        assert drawn == as_array.integers(np.asarray(arities)).tolist()
        assert all(type(a) is int for a in drawn)
    assert whole.bit_generator.state == per_slot.bit_generator.state
    assert whole.bit_generator.state == as_array.bit_generator.state
