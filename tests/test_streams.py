"""The vectorised `SeedSequence` mixing against numpy itself, and the Glauber
runs that read it against the reference chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab.graphs import complete_graph, random_regular_graph
from liplab.lipschitz import _SAMPLE_SALT, EnsembleSpec, glauber_samples
from liplab.streams import child_seeds, pcg64_states
from tests.conftest import reference_glauber

STREAM_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def numpy_children(entropy, count):
    return [child.generate_state(1)[0].item() for child in np.random.SeedSequence(entropy).spawn(count)]


def numpy_pcg64(seed):
    state = np.random.PCG64(np.random.SeedSequence(seed)).state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**127, 5 ^ _SAMPLE_SALT],
                         ids=["0", "1", "2^32-1", "2^32", "2^63", "2^64-1", "2^127", "salted"])
@pytest.mark.parametrize("count", [0, 1, 70, 1000])
def test_child_seeds_match_numpy_spawn(entropy, count):
    assert child_seeds(entropy, count) == numpy_children(entropy, count)


@STREAM_SETTINGS
@given(st.integers(0, 2**160), st.integers(0, 40))
def test_child_seeds_match_numpy_spawn_at_random(entropy, count):
    # past 2^128 the entropy has more words than the pool, which the tail of the mixing takes
    assert child_seeds(entropy, count) == numpy_children(entropy, count)


@pytest.mark.parametrize("bits", [32, 64, 128])
def test_pcg64_states_match_numpy_at_the_edges(bits):
    seeds = [0, 1, 2**bits - 1, 2**(bits - 1)]
    assert pcg64_states(seeds) == [numpy_pcg64(s) for s in seeds]
    assert pcg64_states([]) == []


@STREAM_SETTINGS
@given(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**128 - 1)),
                max_size=20))
def test_pcg64_states_match_numpy_at_random(seeds):
    assert pcg64_states(seeds) == [numpy_pcg64(s) for s in seeds]


def test_streams_refuse_seeds_out_of_range():
    with pytest.raises(ValueError, match="2\\^128"):
        pcg64_states([3, 2**128])
    with pytest.raises(ValueError):
        pcg64_states([-1])
    with pytest.raises(ValueError):
        child_seeds(-1, 3)


def spawned_blocks(seed, burn_in, thinning, samples):
    """The Glauber blocks of a run, their seeds from numpy's own spawn."""
    return [(seed, burn_in)] + [(child, thinning) for child in numpy_children(seed ^ _SAMPLE_SALT, samples)]


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_glauber_samples_replay_the_reference_streams(seed):
    g = random_regular_graph(20, 3, seed=1)
    spec = EnsembleSpec("one-point", M=2, v0=0)
    blocks = spawned_blocks(seed, 300, 7, 60)
    states, rejected = reference_glauber(g, spec, blocks)
    samples, got_rejected = glauber_samples(g, spec, seed, burn_in=300, thinning=7, samples=60)
    assert samples.tolist() == [list(f.values) for f in states[1:]]
    assert got_rejected == rejected == 0
    # an odd thinning leaves a 32-bit half-word buffered at the end of some block, which the
    # next block's fresh generator does not see
    buffered = 0
    for child, steps in blocks[1:]:
        rng = np.random.default_rng(np.random.SeedSequence(child))
        rng.integers(0, g.n - 1, size=steps)
        rng.random(size=steps)
        buffered += rng.bit_generator.state["has_uint32"]
    assert buffered > 0


def test_glauber_samples_replay_the_reference_rejections():
    g = complete_graph(6)
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    states, rejected = reference_glauber(g, spec, spawned_blocks(7, 200, 7, 40))
    samples, got_rejected = glauber_samples(g, spec, 7, burn_in=200, thinning=7, samples=40)
    assert rejected > 0
    assert (samples.tolist(), got_rejected) == ([list(f.values) for f in states[1:]], rejected)


def test_glauber_samples_with_no_samples_run_the_burn_in_only():
    g = complete_graph(4)
    spec = EnsembleSpec("one-point", M=1, v0=0)
    samples, rejected = glauber_samples(g, spec, 3, burn_in=50, thinning=7, samples=0)
    assert samples.shape == (0, 4)
    assert rejected == 0
