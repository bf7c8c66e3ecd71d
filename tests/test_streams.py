"""Glauber samples are the states of one chain on one random stream: sample
i, for i = 1..samples, is the state of the reference chain at the mark
`burn_in + i * thinning`, and the final state of the `glauber_chain` run of
that many steps.  The stream does not depend on how its draws are split
into calls, so the first samples of a run are those of every longer run."""

import hashlib

import pytest

from liplab.cli import main
from liplab.graphs import complete_graph, petersen_graph, random_regular_graph
from liplab.lipschitz import EnsembleSpec, glauber_chain, glauber_samples
from tests.conftest import reference_glauber


def sample_marks(burn_in, thinning, samples):
    return [burn_in + i * thinning for i in range(samples + 1)]


def chain_states(g, spec, seed, marks):
    """The final state of the `glauber_chain` run of `seed` over each step
    count in `marks`."""
    return [list(glauber_chain(g, spec, seed, mark).values) for mark in marks]


def assert_replays(g, spec, seed, burn_in, thinning, samples):
    """`glauber_samples` equals the reference chain and the `glauber_chain`
    run at the marks; returns the rejected moves."""
    marks = sample_marks(burn_in, thinning, samples)
    states, rejected = reference_glauber(g, spec, seed, marks)
    got, got_rejected = glauber_samples(g, spec, seed, burn_in, thinning, samples)
    assert got.shape == (samples, g.n)
    assert got.tolist() == [list(f.values) for f in states[1:]]
    assert got_rejected == rejected
    if samples:
        assert got.tolist() == chain_states(g, spec, seed, marks[1:])
    return rejected


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_glauber_samples_replay_the_reference_streams(seed):
    g = random_regular_graph(20, 3, seed=1)
    assert assert_replays(g, EnsembleSpec("one-point", M=2, v0=0), seed, 300, 7, 60) == 0


def test_glauber_samples_replay_the_reference_rejections():
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    assert assert_replays(complete_graph(6), spec, 7, 200, 7, 40) > 0


@pytest.mark.parametrize("burn_in,thinning,samples", [(0, 7, 9), (90, 1, 30), (0, 1, 25)],
                         ids=["no-burn-in", "thinning-1", "no-burn-in-thinning-1"])
@pytest.mark.parametrize("mode", ["one-point", "ground-state"])
def test_glauber_samples_replay_at_the_edges_of_the_schedule(mode, burn_in, thinning, samples):
    g = complete_graph(6)
    spec = EnsembleSpec("one-point", M=1, v0=0) if mode == "one-point" else EnsembleSpec(
        "ground-state", M=1, k=0, lam=1.0)
    assert_replays(g, spec, 5, burn_in, thinning, samples)


@pytest.mark.parametrize("mode", ["one-point", "ground-state"])
def test_glauber_samples_replay_across_chunks_and_slices(mode):
    # a 70,000-step thinning crosses the 65,536-draw chunk and many 4,096-step slices,
    # and the burn-in of 5 puts every mark off the slice boundaries
    g = random_regular_graph(20, 3, seed=1)
    spec = EnsembleSpec("one-point", M=2, v0=0) if mode == "one-point" else EnsembleSpec(
        "ground-state", M=1, k=0, lam=0.5)
    rejected = assert_replays(g, spec, 4, 5, 70_000, 2)
    assert (rejected > 0) == (mode == "ground-state")


def test_glauber_samples_with_no_samples_run_the_burn_in_only():
    g = complete_graph(6)
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    samples, rejected = glauber_samples(g, spec, 3, burn_in=50, thinning=7, samples=0)
    assert samples.shape == (0, 6)
    # the rejections of the 50 burn-in steps, and not of a step past them
    assert rejected == reference_glauber(g, spec, 3, [50])[1] != reference_glauber(g, spec, 3, [57])[1]
    assert_replays(g, spec, 3, 50, 7, 0)


def test_glauber_samples_are_prefix_stable():
    # Petersen, ground state, asserted lam = 1: a 60-sample run is the start of a
    # 20,000-sample run (under per-chunk site and coin draws, 29 and 16 of those 60
    # samples had f(3) > 1)
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    short, _ = glauber_samples(petersen_graph(), spec, 5, 500, 10, 60)
    long, _ = glauber_samples(petersen_graph(), spec, 5, 500, 10, 20_000)
    assert short.tolist() == long[:60].tolist()


@pytest.mark.parametrize("mode", ["one-point", "ground-state"])
def test_glauber_samples_are_prefix_stable_across_a_chunk(mode):
    # runs of 65,000, 68,000 and 72,000 steps: one integers call, then two of
    # 65,536 + 2,464 and of 65,536 + 6,464 draws
    g = random_regular_graph(20, 3, seed=1)
    spec = EnsembleSpec("one-point", M=2, v0=0) if mode == "one-point" else EnsembleSpec(
        "ground-state", M=1, k=0, lam=0.5)
    runs = [glauber_samples(g, spec, 8, 60_000, 1_000, samples)[0].tolist() for samples in (5, 8, 12)]
    assert runs[0] == runs[1][:5] and runs[1] == runs[2][:8]
    assert_replays(g, spec, 8, 60_000, 1_000, 12)


@pytest.mark.parametrize("mode", ["one-point", "ground-state"])
def test_glauber_samples_do_not_depend_on_the_chunk_size(mode, monkeypatch):
    import liplab.lipschitz as lipschitz

    g = random_regular_graph(20, 3, seed=1)
    spec = EnsembleSpec("one-point", M=2, v0=0) if mode == "one-point" else EnsembleSpec(
        "ground-state", M=1, k=0, lam=0.5)
    want = glauber_samples(g, spec, 2, 300, 7, 40)
    monkeypatch.setattr(lipschitz, "_GLAUBER_CHUNK", 13)
    monkeypatch.setattr(lipschitz, "_GLAUBER_SLICE", 5)
    got = glauber_samples(g, spec, 2, 300, 7, 40)
    assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])
    assert (want[1] > 0) == (mode == "ground-state")


def test_glauber_cli_sample_replays_the_reference_chain(capsys):
    # the `sample` line of CI: Petersen, M = 1, a seed of two 32-bit words; the default
    # schedule is a burn-in of 100 * n * M = 1,000 steps and a thinning of n = 10
    seed = 2**64 - 1
    spec = EnsembleSpec("one-point", M=1, v0=0)
    states, _ = reference_glauber(petersen_graph(), spec, seed, sample_marks(1000, 10, 20))
    assert main(["sample", "--graph", '{"family":"petersen"}', "--M", "1", "--sampler", "glauber",
                 "--samples", "20", "--seed", str(seed)]) == 0
    rows = ["sample_id,range,min,max,probe_0"]
    for i, f in enumerate(states[1:]):
        lo, hi = min(f.values), max(f.values)
        rows.append(f"{i},{hi - lo + 1},{lo},{hi},{f.values[0]}")
    out = capsys.readouterr().out
    assert out == "\n".join(rows) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e19510531684bbdc8a9efaf921036b0e8e0dc1f8b87c87b06d1c7ae860108262")  # the digest CI pins
