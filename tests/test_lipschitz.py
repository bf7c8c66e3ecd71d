import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from liplab.errors import BudgetExceededError, ConfigError
from liplab.experiments import _random_lipschitz
from liplab.graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    random_regular_graph,
    torus_graph,
)
from liplab.lipschitz import (
    EnsembleSpec,
    ExactSampler,
    LipschitzFn,
    _FrontierDP,
    _unrank,
    _value_array,
    count_groundstate,
    count_onepoint,
    enumerate_groundstate,
    enumerate_onepoint,
    flaw_cap,
    fn_range,
    glauber_chain,
    glauber_samples,
    glauber_site_interval,
    ground_states,
    load_function,
    marginal_groundstate,
    member_batches,
    min_ground_state,
    min_ground_states,
    sample_exact,
    validate,
    window_flaws,
)
from tests.conftest import (
    CountingGenerator,
    brute_members,
    flaw_count,
    nx_distances,
    path_graph,
    reference_glauber,
    reference_sweep,
    to_networkx,
)


# ---------------------------------------------------------------------------
# Validation and range
# ---------------------------------------------------------------------------

def test_validate_constant(k6):
    assert validate(k6, LipschitzFn((0,) * 6, 1))


def test_validate_violation(k2):
    assert not validate(k2, LipschitzFn((0, 2), 1))
    assert validate(k2, LipschitzFn((0, 2), 2))


def test_validate_c4_step(c4):
    assert validate(c4, LipschitzFn((0, 1, 2, 1), 1))


def test_validate_length_mismatch(c4):
    with pytest.raises(ValueError, match="length"):
        validate(c4, LipschitzFn((0, 1), 1))


def validate_by_adjacency(g, f):
    """Oracle: the per-adjacency loop validate used to run."""
    if len(f.values) != g.n:
        raise ValueError(f"value array has length {len(f.values)}, graph has {g.n} vertices")
    vals = f.values
    for v in range(g.n):
        fv = vals[v]
        for u in g.neighbors(v):
            if u > v and abs(fv - vals[u]) > f.M:
                return False
    return True


@pytest.mark.parametrize("seed", range(12))
def test_validate_matches_adjacency_oracle(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 9))
    g = random_connected_graph(n, seed, p=float(rng.random()))
    offsets = (0, 2**62, -(2**62), 2**63 - 3, 2**63, -(2**63) - 7, 2**70)
    outcomes = set()
    for trial in range(40):
        M = int(rng.integers(0, 4))
        if trial % 2:
            # a Lipschitz function: M times the distance from a random vertex, plus a shift
            vals = [M * d for d in nx_distances(g, int(rng.integers(0, n)))]
        else:
            vals = [int(x) for x in rng.integers(-M - 2, M + 3, size=n)]
        shift = offsets[trial % len(offsets)]
        f = LipschitzFn(tuple(x + shift for x in vals), M)
        expected = validate_by_adjacency(g, f)
        assert validate(g, f) is expected, (g.name, f)
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "values,M",
    [
        ((2**63, 2**63 - 1), 1),
        ((2**63 - 1, -(2**63)), 2**64),
        ((2**62, -(2**62)), 2**63 - 1),
        ((-(2**62), 2**62), 2**63),
        ((2**70, 2**70 + 1), 1),
        ((2**70, 2**70 + 2), 1),
        ((2**70, 2**70 + 2**64), 2**64),
        ((0, 2), 2**70),
        ((-(2**63), 2**63 - 1), 0),
        ((2**63, -1), 2**63),
        ((2**63, -1), 2**63 + 1),
        ((0, 1.5), 1),
        ((0.25, 1.25), 1),
    ],
)
def test_validate_exact_past_int64(k2, values, M):
    f = LipschitzFn(values, M)
    assert validate(k2, f) is validate_by_adjacency(k2, f) is (abs(values[0] - values[1]) <= M)


def test_validate_single_vertex():
    assert validate(Graph([[]]), LipschitzFn((2**80,), 0))
    with pytest.raises(ValueError, match="length"):
        validate(Graph([[]]), LipschitzFn((0, 0), 0))


def test_range():
    assert fn_range(LipschitzFn((5, 5, 5), 2)) == 1
    assert fn_range(LipschitzFn((0, 1), 1)) == 2
    assert fn_range(LipschitzFn((0, 1, 2, 1), 1)) == 3


# ---------------------------------------------------------------------------
# One-point enumeration / counting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "builder,v0,M,expected",
    [
        (lambda: complete_graph(2), 0, 1, 3),
        (lambda: path_graph(3), 0, 1, 9),
        (lambda: cycle_graph(4), 0, 1, 19),
        (lambda: complete_graph(6), 0, 1, 63),
        (lambda: complete_graph(2), 0, 2, 5),
    ],
)
def test_counts_match_bruteforce(builder, v0, M, expected):
    g = builder()
    res = count_onepoint(g, v0, M)
    assert res.count == expected
    brute = brute_members(to_networkx(g), EnsembleSpec("one-point", M=M, v0=v0))
    assert res.count == sum(1 for _ in brute)


def test_enumeration_agrees_with_count(c4, q3):
    for g, M in [(c4, 1), (c4, 2), (q3, 1)]:
        fns = list(enumerate_onepoint(g, 0, M))
        assert len(fns) == count_onepoint(g, 0, M).count
        assert len(set(f.values for f in fns)) == len(fns)
        assert all(validate(g, f) and f.values[0] == 0 for f in fns)


def test_enumeration_lex_deterministic(c4):
    a = [f.values for f in enumerate_onepoint(c4, 0, 1)]
    b = [f.values for f in enumerate_onepoint(c4, 0, 1)]
    assert a == b


def test_count_budget(q3):
    with pytest.raises(BudgetExceededError):
        count_onepoint(q3, 0, 3, budget=50)


def test_k6_inclusion_exclusion(k6):
    # values live in {-1,0} or {0,1}: 2^5 + 2^5 - 1 distinct anchored functions
    assert count_onepoint(k6, 0, 1).count == 2**5 + 2**5 - 1


# ---------------------------------------------------------------------------
# Ground-state ensemble
# ---------------------------------------------------------------------------

def test_groundstate_k6_count(k6):
    res = count_groundstate(k6, 0, 1, 1.0)
    assert res.count == 106
    assert res.flaw_cap == 2
    oracle = list(brute_members(to_networkx(k6), EnsembleSpec("ground-state", M=1, k=0, lam=1.0)))
    assert len(oracle) == 106
    assert set(f.values for f in enumerate_groundstate(k6, 0, 1, 1.0)) == set(oracle)


def test_groundstate_window_decomposition(k6):
    # 64 functions into {0,1}, 21 each into {-1,0} and {1,2}
    by_min = Counter(min(f.values) for f in enumerate_groundstate(k6, 0, 1, 1.0))
    assert by_min == {0: 63, 1: 21 + 1, -1: 21}
    # equivalently: 64 with values in {0,1}, 21 extra per adjacent window
    windows = Counter()
    for f in enumerate_groundstate(k6, 0, 1, 1.0):
        vals = set(f.values)
        if vals <= {0, 1}:
            windows["center"] += 1
        elif vals <= {-1, 0}:
            windows["below"] += 1
        else:
            windows["above"] += 1
    assert windows == {"center": 64, "below": 21, "above": 21}


def test_groundstate_translation_bijection(k6):
    base = sorted(f.values for f in enumerate_groundstate(k6, 0, 1, 1.0))
    shifted = sorted(tuple(v - 7 for v in f.values) for f in enumerate_groundstate(k6, 7, 1, 1.0))
    assert base == shifted


def test_groundstate_reflection_bijection(k6):
    k = 3
    base = sorted(f.values for f in enumerate_groundstate(k6, 0, 1, 1.0))
    reflected = sorted(tuple(-v + k + 1 for v in f.values) for f in enumerate_groundstate(k6, k, 1, 1.0))
    assert base == reflected


def test_groundstate_zero_allowance(c4):
    # allowance below 1 admits only window-confined functions
    fns = list(enumerate_groundstate(c4, 0, 1, 0.1))
    assert all(set(f.values) <= {0, 1} for f in fns)
    assert len(fns) == 2**4  # every 0/1 labeling is 1-Lipschitz


def test_groundstate_infinite_guard(c4):
    with pytest.raises(ValueError, match="infinite"):
        count_groundstate(c4, 0, 1, 10.0)


def test_flaw_allowance_rational_boundary():
    # exactly hitting the allowance must pass in exact arithmetic
    assert flaw_cap(6, 5, 1.0) == 2
    assert flaw_cap(5, 5, Fraction(1)) == 2  # (2*1/5)*5 = 2


# ---------------------------------------------------------------------------
# Ground states of a single function
# ---------------------------------------------------------------------------

def test_ground_states_constant_k6(k6):
    f = LipschitzFn((0,) * 6, 1)
    assert ground_states(k6, f, 1.0) == {-1, 0}
    assert min_ground_state(k6, f, 1.0) == -1


def test_ground_states_shift_equivariance(k6):
    f = LipschitzFn((0,) * 6, 1)
    assert min_ground_state(k6, LipschitzFn(tuple(v + 5 for v in f.values), f.M), 1.0) == 4


def test_ground_states_nonempty_certified(k6):
    for f in enumerate_onepoint(k6, 0, 1):
        assert ground_states(k6, f, 1.0)


def test_kappa_large_m(k6):
    # zero allowance and huge M: the smallest admissible base is max f - M
    f = LipschitzFn((0, 0, 1, 0, 0, 1), 4)
    ks = ground_states(k6, f, 0.0)
    assert min(ks) == max(f.values) - f.M == -3


def test_ground_states_weak_lambda(c4):
    # allowance >= n: every base in the search window qualifies
    f = LipschitzFn((0, 1, 0, 1), 1)
    ks = ground_states(c4, f, 10.0)
    assert ks == set(range(-1, 2))


def test_window_flaws_match_the_count_per_base(q3):
    """A batch's flaw counts at every base of the batch's window, against
    `flaw_count` member by member; the rows' own windows differ."""
    vals = next(member_batches(q3, EnsembleSpec("one-point", M=2, v0=0)))
    low, flaws = window_flaws(vals, 2)
    assert low == vals.min() - 2
    assert flaws.shape == (len(vals), vals.max() - low + 1)
    for row, counts in zip(vals.tolist(), flaws.tolist()):
        f = LipschitzFn(tuple(row), 2)
        assert counts == [flaw_count(f, low + j) for j in range(flaws.shape[1])]


@pytest.mark.parametrize("shift", [0, -7, 1 << 70])
def test_ground_states_match_the_count_per_base(petersen, shift):
    """`ground_states` against `flaw_count` over [min f - M, max f], also
    for values past int64."""
    rng = np.random.default_rng(3)
    for M in (1, 3):
        for _ in range(20):
            f = _random_lipschitz(petersen, M, rng)
            f = LipschitzFn(tuple(v + shift for v in f.values), M)
            for lam in (0.0, 1.0, 2.5):
                cap = flaw_cap(petersen.n, 3, lam)
                window = range(min(f.values) - M, max(f.values) + 1)
                assert ground_states(petersen, f, lam) == {k for k in window if flaw_count(f, k) <= cap}


@pytest.mark.parametrize("block_cells", [1 << 20, 1])
@pytest.mark.parametrize("shift", [0, 1 << 70])
def test_min_ground_states_match_the_per_function_minimum(petersen, shift, block_cells, monkeypatch):
    """Each row's base against the least of its `ground_states`, in one pass
    and one row per pass, also for values past int64.  At lam = 0 most rows
    have none, and any one of them is a `ConfigError`.  At lam = 10 every
    base of a row's own window qualifies, and the least is that row's
    min - M, not the whole array's."""
    import liplab.lipschitz as lipschitz

    monkeypatch.setattr(lipschitz, "_WINDOW_CELLS", block_cells)
    rng = np.random.default_rng(8)
    for M in (1, 3):
        fs = [_random_lipschitz(petersen, M, rng) for _ in range(30)]
        fs = [LipschitzFn(tuple(v + shift + 4 * i for v in f.values), M) for i, f in enumerate(fs)]
        vals = _value_array([v for f in fs for v in f.values], petersen.n)
        for lam in (0.0, 1.0, 10.0):
            expected = [ground_states(petersen, f, lam) for f in fs]
            keep = [i for i, ks in enumerate(expected) if ks]
            got = min_ground_states(petersen, vals[keep], M, lam)
            assert got.dtype == vals.dtype
            assert got.tolist() == [min(expected[i]) for i in keep]
            if len(keep) < len(fs):
                with pytest.raises(ConfigError, match=f"allowance at lambda = {lam};"):
                    min_ground_states(petersen, vals, M, lam)
    assert min_ground_states(petersen, vals[:0], 3, 1.0).shape == (0,)


# ---------------------------------------------------------------------------
# Exact sampling
# ---------------------------------------------------------------------------

def _rows(values):
    """The rows of a `(count, n)` value array, as tuples of Python ints."""
    return list(map(tuple, values.tolist()))


def test_sample_exact_deterministic(c4):
    spec = EnsembleSpec("one-point", M=1, v0=0)
    a = sample_exact(c4, spec, seed=9, count=10)
    b = sample_exact(c4, spec, seed=9, count=10)
    assert a.shape == (10, 4)
    assert a.tolist() == b.tolist()


def test_sample_exact_singleton():
    g = complete_graph(2)
    spec = EnsembleSpec("one-point", M=0, v0=0)
    assert sample_exact(g, spec, seed=0, count=1).tolist() == [[0, 0]]


def test_sample_exact_k2_chisquare(k2):
    spec = EnsembleSpec("one-point", M=1, v0=0)
    draws = sample_exact(k2, spec, seed=123, count=30_000)
    counts = Counter(_rows(draws))
    assert set(counts) == {(0, -1), (0, 0), (0, 1)}
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001


def test_sample_exact_matches_enumeration_support(c4):
    spec = EnsembleSpec("one-point", M=1, v0=0)
    support = set(f.values for f in enumerate_onepoint(c4, 0, 1))
    draws = set(_rows(sample_exact(c4, spec, seed=5, count=2000)))
    assert draws <= support
    assert len(draws) == 19  # every state seen at this sample size


def test_sample_exact_groundstate(k6):
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    support = set(f.values for f in enumerate_groundstate(k6, 0, 1, 1.0))
    for values in _rows(sample_exact(k6, spec, seed=17, count=200)):
        assert values in support


def test_sampler_total_matches_count(c4, k6):
    assert ExactSampler(c4, EnsembleSpec("one-point", M=1, v0=0)).total == 19
    assert ExactSampler(k6, EnsembleSpec("ground-state", M=1, k=0, lam=1.0)).total == 106


@pytest.mark.parametrize(
    "g,spec,dtype",
    [
        (cycle_graph(4), EnsembleSpec("one-point", M=1, v0=0), np.int64),
        (hypercube_graph(3), EnsembleSpec("one-point", M=1, v0=0), np.int64),
        (complete_graph(6), EnsembleSpec("one-point", M=1, v0=0), np.int64),
        (random_regular_graph(10, 3, seed=1), EnsembleSpec("one-point", M=1, v0=0), np.int64),
        (torus_graph([3, 4]), EnsembleSpec("one-point", M=1, v0=0), np.int64),
        (complete_graph(6), EnsembleSpec("ground-state", M=1, k=0, lam=1.0), np.int64),
        # values past int64: the rank arrays hold Python ints
        (complete_graph(8), EnsembleSpec("ground-state", M=2, k=10**20, lam=1.0), object),
    ],
    ids=["C4", "Q3", "K6", "RR10,3#1", "T3x4", "K6-ground", "K8-ground-k1e20"],
)
def test_ranks_map_one_to_one_onto_the_enumeration(g, spec, dtype):
    sampler = ExactSampler(g, spec)
    assert sampler._rows[0].cum.dtype == dtype
    if spec.mode == "one-point":
        members = list(enumerate_onepoint(g, spec.v0, spec.M))
    else:
        members = list(enumerate_groundstate(g, spec.k, spec.M, spec.lam))
    # enumeration unranks too, so the order is checked against a brute force
    expected = [LipschitzFn(values, spec.M) for values in brute_members(to_networkx(g), spec)]
    assert members == expected
    unranked = _unrank(sampler._dp, sampler._rows, range(sampler.total))
    assert unranked.dtype == dtype
    assert _rows(unranked) == [f.values for f in members]


@pytest.mark.parametrize("n,bits,dtype", [(42, 63, np.int64), (200, 313, object)], ids=["C42", "C200"])
def test_large_ensembles_unrank_in_enumeration_order(n, bits, dtype):
    # C42 at M=1 has a size in [2^62, 2^63): its running sums pass 2^62 but
    # its ranks stay int64; C200's do not
    g = cycle_graph(n)
    sampler = ExactSampler(g, EnsembleSpec("one-point", M=1, v0=0))
    assert sampler.total.bit_length() == bits and sampler._rows[0].cum.dtype == dtype
    brute = brute_members(to_networkx(g), EnsembleSpec("one-point", M=1, v0=0))
    expected = [LipschitzFn(values, 1) for values in itertools.islice(brute, 60)]
    assert list(itertools.islice(enumerate_onepoint(g, 0, 1), 60)) == expected
    first = _unrank(sampler._dp, sampler._rows, range(60))
    assert first.dtype == dtype
    assert _rows(first) == [f.values for f in expected]
    (last,) = _rows(_unrank(sampler._dp, sampler._rows, [sampler.total - 1]))
    assert last == tuple(min(v, n - v) for v in range(n))  # the largest member


@pytest.mark.parametrize(
    "g,spec",
    [
        (hypercube_graph(3), EnsembleSpec("one-point", M=1, v0=0)),
        (complete_graph(8), EnsembleSpec("ground-state", M=2, k=10**20, lam=1.0)),
        (cycle_graph(200), EnsembleSpec("one-point", M=1, v0=0)),
    ],
    ids=["Q3", "K8-ground-k1e20", "C200"],
)
def test_a_batch_starts_with_the_smaller_batch(g, spec):
    sampler = ExactSampler(g, spec)

    def batch(count):
        return sampler.draw(np.random.default_rng(np.random.SeedSequence(21)), count).tolist()

    assert batch(64) == sample_exact(g, spec, seed=21, count=64).tolist()
    for j, count in ((1, 7), (5, 64), (40, 41)):
        assert batch(count)[:j] == batch(j)


def test_an_empty_batch_draws_nothing(q3):
    sampler = ExactSampler(q3, EnsembleSpec("one-point", M=1, v0=0))
    assert sampler.draw(np.random.default_rng(0), 0).shape == (0, 8)
    assert sample_exact(q3, EnsembleSpec("one-point", M=1, v0=0), seed=0, count=0).shape == (0, 8)


def test_a_batch_below_2_63_makes_one_integers_call():
    # `draw_samples` seeds one generator per batch (tests/test_experiments.py)
    rng = CountingGenerator(np.random.default_rng(0))
    assert len(ExactSampler(hypercube_graph(4), EnsembleSpec("one-point", M=1, v0=0)).draw(rng, 2000)) == 2000
    assert rng.calls == {"integers": 1}


def test_sample_exact_q4_range_chisquare():
    # the range histogram of the draws against the one of the whole ensemble;
    # ranges 1 and 5 (1 and 16 of 197,547 members) are pooled with 2 and 4
    g = hypercube_graph(4)
    exact = Counter(min(max(fn_range(f), 2), 4) for f in enumerate_onepoint(g, 0, 1))
    assert sum(exact.values()) == 197_547
    spec = EnsembleSpec("one-point", M=1, v0=0)
    for seed in (31, 32):
        draws = sample_exact(g, spec, seed=seed, count=20_000)
        seen = Counter(min(max(max(row) - min(row) + 1, 2), 4) for row in draws.tolist())
        expected = [exact[r] * len(draws) / 197_547 for r in (2, 3, 4)]
        _, p = stats.chisquare([seen[r] for r in (2, 3, 4)], expected)
        assert p > 0.001, (seed, p)


# ---------------------------------------------------------------------------
# Glauber dynamics
# ---------------------------------------------------------------------------

def test_site_interval_examples():
    assert glauber_site_interval([0, 0], [1], 1) == (-1, 1)
    assert glauber_site_interval([9, 0, 2], [1, 2], 1) == (1, 1)


def test_glauber_states_stay_valid(c4):
    spec = EnsembleSpec("one-point", M=1, v0=0)
    seen = []
    glauber_chain(c4, spec, seed=3, steps=500, on_step=lambda t, vals: seen.append(tuple(vals)))
    assert len(seen) == 500
    for vals in seen[::37]:
        assert validate(c4, LipschitzFn(vals, 1))
        assert vals[0] == 0


def test_glauber_detailed_balance_exact(c4):
    """Transition probabilities between states differing at one site are equal,
    so the uniform law is exactly stationary (rational arithmetic)."""
    spec = EnsembleSpec("one-point", M=1, v0=0)
    states = [f.values for f in enumerate_onepoint(c4, 0, 1)]
    index = {s: i for i, s in enumerate(states)}
    n_sites = 3  # sites != v0
    P = [[Fraction(0) for _ in states] for _ in states]
    for s in states:
        for v in (1, 2, 3):
            lo, hi = glauber_site_interval(s, c4.neighbors(v), 1)
            for c in range(lo, hi + 1):
                t = list(s)
                t[v] = c
                P[index[s]][index[tuple(t)]] += Fraction(1, n_sites * (hi - lo + 1))
    for i, row in enumerate(P):
        assert sum(row) == 1
        for j in range(len(states)):
            assert P[i][j] == P[j][i]  # symmetric kernel => uniform stationary


def test_glauber_groundstate_respects_cap(k6):
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    support = set(f.values for f in enumerate_groundstate(k6, 0, 1, 1.0))
    seen = set()
    glauber_chain(k6, spec, seed=11, steps=4000, on_step=lambda t, vals: seen.add(tuple(vals)))
    assert seen <= support
    assert len(seen) > 30


def test_glauber_groundstate_uniform(k6):
    # rejection against the flaw allowance keeps the uniform law stationary
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    support = set(f.values for f in enumerate_groundstate(k6, 0, 1, 1.0))
    hist = Counter()
    glauber_chain(k6, spec, seed=42, steps=500_000,
                  on_step=lambda t, vals: hist.update([tuple(vals)]))
    total = sum(hist.values())
    assert set(hist) <= support
    tv = 0.5 * sum(abs(hist.get(s, 0) / total - 1 / 106) for s in support)
    assert tv < 0.03


def test_glauber_mixes_on_c4(c4):
    spec = EnsembleSpec("one-point", M=1, v0=0)
    counts = Counter()
    glauber_chain(c4, spec, seed=7, steps=200_000, on_step=lambda t, vals: counts.update([tuple(vals)]))
    assert len(counts) == 19
    total = sum(counts.values())
    tv = 0.5 * sum(abs(c / total - 1 / 19) for c in counts.values())
    assert tv < 0.02


def _trajectory_sha256(g, spec, seed, steps):
    """sha256 of every (step, state) the chain reports, and of its final state."""
    h = hashlib.sha256()
    ticks = []

    def on_step(t, vals):
        ticks.append(t)
        h.update(f"{t}:{','.join(map(str, vals))}\n".encode())

    f = glauber_chain(g, spec, seed=seed, steps=steps, on_step=on_step)
    assert ticks == list(range(steps))
    return h.hexdigest(), hashlib.sha256(json.dumps(list(f.values)).encode()).hexdigest()


@pytest.mark.parametrize(
    "builder,spec,seed,steps,digests",
    [
        (lambda: cycle_graph(4), EnsembleSpec("one-point", M=1, v0=0), 3, 2000,
         ("79b9c4e4e51b2f3e0810691832b34b334a55357bd4b58f698d504a72701ea832",
          "5d95a9510f3967c09fd696cb279f28a1f04fe75dedd4ca01b1a450b995878796")),
        (lambda: cycle_graph(4), EnsembleSpec("one-point", M=2, v0=0), 4, 2000,
         ("0f3ecd8c79ca8fe923834cc227407b929805fbac79f20b7819f066cb344b134e",
          "20261f947196c90f330ea6b219c70bb00137c2c1d87f90c66b367a974ca8bfb3")),
        (lambda: hypercube_graph(3), EnsembleSpec("one-point", M=1, v0=0), 5, 3000,
         ("d5760928294209f5d74e008ec648b2aef76e984fc67ab713b0e5c26a43b0fdb6",
          "decb1b3eeae388ef1e5280f078f7a70bda628e49db8e07a7b90ea2a145f25626")),
        (lambda: hypercube_graph(3), EnsembleSpec("one-point", M=2, v0=5), 6, 3000,
         ("c120199fca178f10898b67edb634a06198f30b3b63caaebbe5cdeedeb310f85e",
          "63df35a9c94d2654be6b57123c09ccb5ad1bbc6c183b097c7cc6b9c709deb0b6")),
        (lambda: path_graph(7), EnsembleSpec("one-point", M=1, v0=3), 7, 3000,
         ("22c9a5e93fb0ea9ab2acf22a191b933bc55ca1a36e84afd973ff9fbeccfc3798",
          "b30a8b215cb6cb4e43cab47c4864e1476b86d61b2324c3318ec7a2c2b4d97676")),
        (lambda: complete_graph(6), EnsembleSpec("ground-state", M=1, k=0, lam=1.0), 8, 3000,
         ("ee91930f3c4bb1e533c94a920c26b4ddac93525843441070d7aab1c5c1529736",
          "46469d3aae7da9f78f1bddf023b415643882d3217b1f6fc8b37b2cb1a34e2705")),
        # 70,000 steps cross the 65,536-draw chunk and 4,096-draw slice boundaries
        (lambda: random_regular_graph(20, 3, seed=1), EnsembleSpec("one-point", M=2, v0=0), 9, 70_000,
         ("656a896d284802a0d6a882924adf91c8d04a04c6cd3286bc90ef98919cc3801c",
          "3672d4d1a3c1d28c4832396b4b9da966c3d2b8b74ebbf1bcca9fadb76523f2fb")),
        # the cases of test_glauber_chain_matches_reference_chain whose interval
        # table fills: Q6 at M=4 fills it fast enough to be switched off, Q7 at
        # M=1 slowly enough to keep it
        (lambda: hypercube_graph(6), EnsembleSpec("one-point", M=4, v0=0), 10, 30_000,
         ("15b0d314437f3ca5580a9df7f55423c8c2e0c13fcb02d3a61379873908bb22e1",
          "7bb79bf7ada7db7f43cf47b0d898575abfffd61768e0041e0db0f7e22a31a557")),
        (lambda: hypercube_graph(7), EnsembleSpec("one-point", M=1, v0=0), 3, 40_000,
         ("095c8eb3d9d76b908240fb4d5fd562ca740bf5c5e59be0df637b187469b82177",
          "24c151d3f6f23faa7e3e57b3d969faeeb9e95ae7451403a2c726da51b0479d35")),
    ],
    ids=["C4-M1", "C4-M2", "Q3-M1", "Q3-M2", "P7-M1", "K6-ground", "RR20-70k", "Q6-M4-table-off",
         "Q7-M1-table-full"],
)
def test_glauber_golden_trajectories(builder, spec, seed, steps, digests):
    # digests of the per-step `conftest.reference_glauber` chain, checked equal to the kernel's
    assert _trajectory_sha256(builder(), spec, seed, steps) == digests


@pytest.mark.parametrize(
    "builder,spec,seed,steps",
    [
        (lambda: random_regular_graph(20, 3, seed=1), EnsembleSpec("one-point", M=2, v0=0), 9, 70_000),
        (lambda: complete_graph(6), EnsembleSpec("ground-state", M=1, k=0, lam=1.0), 8, 3000),
        # the table fills at step 1,732 (8,192 values / degree 6 = 1,365 entries), within
        # 4 * 1,365 steps, so over a quarter of its lookups missed and it is switched off
        (lambda: hypercube_graph(6), EnsembleSpec("one-point", M=4, v0=0), 10, 30_000),
        # the table fills at step 28,135 (8,192 values / degree 7 = 1,170 entries), past
        # 4 * 1,170 steps, so it serves on
        (lambda: hypercube_graph(7), EnsembleSpec("one-point", M=1, v0=0), 3, 40_000),
        # a cold start: 1,118 of the first 4,096 lookups miss, but the table fills at step
        # 38,778 (2,730 entries) with 7% of its lookups missed, so it serves on
        (lambda: random_regular_graph(500, 3, seed=1), EnsembleSpec("one-point", M=5, v0=0), 0, 50_000),
    ],
    ids=["RR20-M2", "K6-ground", "Q6-M4-table-off", "Q7-M1-table-full", "RR500-M5-cold-start"],
)
def test_glauber_chain_matches_reference_chain(builder, spec, seed, steps):
    import liplab.lipschitz as lipschitz

    g = builder()
    seen, expected = [], []
    got = lipschitz._glauber_run(g, spec, seed, [steps], on_step=lambda t, vals: seen.append(hash(tuple(vals))))
    want = reference_glauber(g, spec, seed, [steps], on_step=lambda t, vals: expected.append(hash(tuple(vals))))
    assert len(seen) == steps
    assert seen == expected
    assert (_rows(got[0]), got[1]) == ([f.values for f in want[0]], want[1])
    assert (want[1] > 0) == (spec.mode == "ground-state")


def test_glauber_ground_state_rejects_moves(k6):
    # the K6 golden trajectory above exercises rejections, not just accepted moves
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=1.0)
    cap = flaw_cap(6, 5, 1.0)
    states = []
    glauber_chain(k6, spec, seed=8, steps=3000, on_step=lambda t, vals: states.append(tuple(vals)))
    rejected = 0
    for prev, cur in zip(states, states[1:]):
        assert sum(1 for x in cur if not 0 <= x <= 1) <= cap
        if prev == cur and sum(1 for x in prev if not 0 <= x <= 1) == cap:
            rejected += 1
    assert rejected > 0


@pytest.mark.parametrize("seed", range(6))
def test_glauber_moves_stay_in_reference_interval(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 9))
    g = random_connected_graph(n, 100 + seed, p=0.3)
    v0 = int(rng.integers(0, n))
    for M in (0, 1, 2):
        prev = [0] * n
        moved = 0

        def on_step(t, vals):
            nonlocal prev, moved
            changed = [v for v in range(n) if vals[v] != prev[v]]
            assert len(changed) <= 1, (g.name, M, t)
            for v in changed:
                lo, hi = glauber_site_interval(prev, g.neighbors(v), M)
                assert v != v0 and lo <= vals[v] <= hi, (g.name, M, t, v)
            moved += len(changed)
            prev = list(vals)

        glauber_chain(g, EnsembleSpec("one-point", M=M, v0=v0), seed=seed, steps=3000, on_step=on_step)
        assert (moved > 0) == (M > 0)


def test_glauber_chain_does_not_call_site_interval(c4, monkeypatch):
    import liplab.lipschitz as lipschitz

    def fail(*args):
        raise AssertionError("per-step interval helper called")

    monkeypatch.setattr(lipschitz, "glauber_site_interval", fail)
    spec = EnsembleSpec("one-point", M=1, v0=0)
    assert validate(c4, glauber_chain(c4, spec, seed=0, steps=1000))


@pytest.mark.parametrize(
    "builder,spec,seed,steps,kept",
    [
        (lambda: hypercube_graph(6), EnsembleSpec("one-point", M=4, v0=0), 10, 30_000, False),
        (lambda: random_regular_graph(500, 3, seed=1), EnsembleSpec("one-point", M=5, v0=0), 0, 50_000, True),
    ],
    ids=["Q6-M4-switched-off", "RR500-M5-kept"],
)
def test_glauber_table_is_judged_when_it_fills(builder, spec, seed, steps, kept, monkeypatch):
    import builtins

    import liplab.lipschitz as lipschitz

    g = builder()
    room = lipschitz._GLAUBER_MEMO_CELLS // max(g.degrees)
    computed = 0  # interval computations: min of the neighbour values

    def counting_min(*args):
        nonlocal computed
        computed += len(args) == 1
        return builtins.min(*args)

    monkeypatch.setattr(lipschitz, "min", counting_min, raising=False)
    totals = []
    lipschitz._glauber_run(g, spec, seed, [steps], on_step=lambda t, vals: totals.append(computed))
    hits = [t for t, (before, after) in enumerate(zip([0] + totals, totals)) if before == after]
    # every miss before the fill makes an entry, so the table filled
    assert computed >= room and hits
    if kept:
        assert computed < steps // 10 and hits[-1] == steps - 1
    else:
        # switched off at the fill, within 4 * room steps: every later step computes
        assert hits[-1] < 4 * room and computed > steps - 3 * room


def test_glauber_ground_state_guards(k6):
    # K6, d = 5: lam = 5 allows floor(2*5/5*6) = 12 >= 6 flaws, so every function qualifies
    with pytest.raises(ValueError, match="ensemble is infinite"):
        glauber_chain(k6, EnsembleSpec("ground-state", M=1, k=0, lam=5.0), seed=0, steps=1)


@pytest.mark.parametrize("values,dtype", [
    ([3, -4, 0, 7], np.int64),
    ([2**62 - 1, -(2**62) + 1], np.int64),
    ([2**62, 0], object),
    ([0, -(2**62)], object),
    ([2**80, 1], object),
    ([], np.int64),
], ids=["small", "below-2^62", "2^62", "-2^62", "past-int64", "empty"])
def test_glauber_value_array_keeps_differences_exact(values, dtype):
    # int64 only while every max - min + 1 fits, else Python ints
    from liplab.lipschitz import _value_array

    got = _value_array(values, 2)
    assert got.dtype == dtype
    assert got.tolist() == [values[i:i + 2] for i in range(0, len(values), 2)]


def test_glauber_lone_pinned_vertex_is_a_no_op():
    k1 = complete_graph(1)
    spec = EnsembleSpec("one-point", M=2, v0=0)
    seen = []
    f = glauber_chain(k1, spec, seed=0, steps=5, on_step=lambda t, vals: seen.append((t, tuple(vals))))
    assert f == LipschitzFn((0,), 2)
    assert seen == [(t, (0,)) for t in range(5)]
    samples, _ = glauber_samples(k1, spec, seed=3, burn_in=10, thinning=4, samples=3)
    assert samples.tolist() == [[0]] * 3


@pytest.mark.parametrize("n_sites", [1, 7, 42])
@pytest.mark.parametrize("M", range(21))
def test_glauber_coins_are_exactly_uniform_below_the_cap(M, n_sites):
    # lcm(1, ..., 41) * 42 < 2^63, so up to M = 20 every width divides W
    from liplab.lipschitz import _coin_range

    W = _coin_range(M, n_sites)
    assert W == math.lcm(*range(1, 2 * M + 2))
    for w in range(1, 2 * M + 2):
        assert W % w == 0
        if W <= 10**6:
            # every coin q in [0, W): each of the w outcomes exactly W / w times
            assert np.bincount(np.arange(W) * w // W, minlength=w).tolist() == [W // w] * w


def _coins_giving(j, W, w):
    """How many coins q in [0, W) give the outcome q * w // W == j: those
    from ceil(j * W / w) up to ceil((j + 1) * W / w)."""
    return -(-(j + 1) * W // w) + (-j * W) // w


@pytest.mark.parametrize("M,n_sites", [(21, 1), (21, 2), (10**5, 1), (10**5, 2), (20, 43)],
                         ids=["K2-M21", "K2-ground-M21", "K2-M1e5", "K2-ground-M1e5", "M20-43-sites"])
def test_glauber_coins_past_the_cap(M, n_sites):
    # lcm(1, ..., 43) > 2^63 and lcm(1, ..., 41) * 43 > 2^63: W is the int64 cap, and an
    # outcome of width w takes floor(W / w) or ceil(W / w) coins, a bias of at most w / W
    from liplab.lipschitz import _coin_range

    W = _coin_range(M, n_sites)
    assert W == (2**63 - 1) // n_sites
    for w in (3, 2 * M + 1, 2 * M):
        counts = {_coins_giving(j, W, w) for j in range(min(w, 1000))}
        assert counts <= {W // w, -(-W // w)}


@pytest.mark.parametrize("M", [10**20, 2**70])
def test_glauber_coin_range_never_runs_to_2M(M, monkeypatch):
    import liplab.lipschitz as lipschitz

    calls = []
    lcm = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or lcm(*args))
    assert lipschitz._coin_range(M, 2) == (2**63 - 1) // 2
    assert len(calls) <= 42


@pytest.mark.parametrize("spec", [EnsembleSpec("one-point", M=21, v0=0), EnsembleSpec("one-point", M=10**5, v0=1),
                                  EnsembleSpec("ground-state", M=10**5, k=0, lam=0.3)],
                         ids=["M21", "M1e5", "ground-M1e5"])
def test_glauber_past_the_cap_replays_the_reference_chain(spec):
    # K2 past the lcm cap: the kernel and the reference chain agree on the capped coins
    g = complete_graph(2)
    got, rejected = glauber_samples(g, spec, 6, burn_in=20, thinning=3, samples=30)
    want, want_rejected = reference_glauber(g, spec, 6, [20 + 3 * i for i in range(31)])
    assert (got.tolist(), rejected) == ([list(f.values) for f in want[1:]], want_rejected)
    assert len({tuple(row) for row in got.tolist()}) > 10


# ---------------------------------------------------------------------------
# Spec validation and IO
# ---------------------------------------------------------------------------

def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("one-point", M=1)  # missing v0
    with pytest.raises(ValueError):
        EnsembleSpec("ground-state", M=1, k=0)  # missing lam
    with pytest.raises(ValueError):
        EnsembleSpec("two-point", M=1, v0=0)


def test_function_file_roundtrip(tmp_path):
    """The file format, written by hand, loads back to the function."""
    path = tmp_path / "f.json"
    path.write_text('{"M": 5, "values": [0, -2, 3]}\n')
    assert load_function(path) == LipschitzFn((0, -2, 3), 5)


@pytest.mark.parametrize("text", [
    '{"values": [0, 1]}', '{"M": 1}', '{"M": 1.5, "values": [0, 1]}', '{"M": true, "values": [0, 1]}',
    '{"M": -1, "values": [0, 1]}', '{"M": 1, "values": [0, "1"]}', '{"M": 1, "values": [0, 0.5]}',
    '{"M": 1, "values": 7}', '[1, [0, 1]]',
])
def test_function_file_needs_integer_fields(text, tmp_path):
    from liplab.errors import ConfigError

    path = tmp_path / "f.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="a function file is"):
        load_function(path)


# ---------------------------------------------------------------------------
# Frontier DP: fixed-seed draws, brute-force oracles, sizes and budgets
# ---------------------------------------------------------------------------

def _draws_sha256(draws):
    return hashlib.sha256(json.dumps(draws.tolist()).encode()).hexdigest()


# Recorded when draws became one batch of uniform ranks (one `integers` call
# below 2^63, one multi-word draw per rank past it) in place of one
# `integers` call per layer per draw: that change of the draw stream moved them.
@pytest.mark.parametrize(
    "builder,spec,seed,count,digest",
    [
        (lambda: hypercube_graph(3), EnsembleSpec("one-point", M=1, v0=0), 5, 200,
         "2c120876e4f4c950ef02bd0e07ffecb05492189a4003113265729b31f617013f"),
        (lambda: complete_graph(6), EnsembleSpec("ground-state", M=1, k=0, lam=1.0), 17, 200,
         "40adc809ba70d51d47a15538c9ff6b6477fc4b10115a47c245a1a34f5440406c"),
        (lambda: torus_graph([3, 4]), EnsembleSpec("one-point", M=1, v0=0), 3, 100,
         "95912229ec4885d83d2015f283abdbae34cc2ec59cedff94c257436f50be9385"),
        (lambda: hypercube_graph(4), EnsembleSpec("one-point", M=1, v0=0), 0, 200,
         "738d15d89497efc48de89d5a8e6ebb3ec30399a6edab4a8e1b2502fe51e5baa9"),
        (lambda: torus_graph([4, 5]), EnsembleSpec("one-point", M=1, v0=0), 0, 200,
         "ae1351d4bc5b95f9b35f3efa458417b18cd6779b2402253f197e04d2eade00a6"),
        # 313-bit total: multi-word rank draws and Python-int rank arrays
        (lambda: cycle_graph(200), EnsembleSpec("one-point", M=1, v0=0), 7, 50,
         "79ecb525a0c81f8a631551487ae2cd109a6ffa1f8e8857d3e3f2dfa84ac919fb"),
        # values far past int64
        (lambda: complete_graph(8), EnsembleSpec("ground-state", M=2, k=10**20, lam=1.0), 3, 50,
         "6dbe516541a9b3d869290e7117efe40fb6a372d3db6e0c1de4f57f4d71ad79a8"),
    ],
    ids=["Q3", "K6-ground", "T3x4", "Q4", "T4x5", "C200", "K8-ground-k1e20"],
)
def test_sample_exact_golden_draws(builder, spec, seed, count, digest):
    assert _draws_sha256(sample_exact(builder(), spec, seed=seed, count=count)) == digest


def random_connected_graph(n, seed, p=0.5):
    """A random spanning tree plus each remaining pair with probability p."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    edges |= {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p}
    return Graph.from_edges(n, sorted(edges), name=f"G{n}s{seed}")


@pytest.mark.parametrize("seed", range(8))
def test_dp_onepoint_matches_bruteforce_random_graphs(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(3, 8))
    g = random_connected_graph(n, seed)
    v0 = int(rng.integers(0, n))
    for M in (0, 1, 2):
        brute = brute_members(to_networkx(g), EnsembleSpec("one-point", M=M, v0=v0))
        assert count_onepoint(g, v0, M).count == sum(1 for _ in brute), (g.name, v0, M)


@pytest.mark.parametrize(
    "g,M,cap",
    [
        (complete_graph(4), 2, 0),
        (complete_graph(4), 2, 2),
        (complete_graph(5), 2, 1),
        (complete_graph(5), 1, 3),
        (cycle_graph(5), 2, 1),
        (cycle_graph(6), 1, 2),
        (cycle_graph(7), 1, 1),
        (random_regular_graph(6, 3, seed=2), 2, 1),
        (random_regular_graph(6, 3, seed=3), 1, 3),
    ],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_dp_groundstate_matches_bruteforce(g, M, cap):
    d = g.regular_degree()
    lam = Fraction(cap * d, 2 * g.n)  # exactly cap admissible flaws
    res = count_groundstate(g, 1, M, lam)
    assert res.flaw_cap == cap
    brute = brute_members(to_networkx(g), EnsembleSpec("ground-state", M=M, k=1, lam=lam))
    assert res.count == sum(1 for _ in brute)


def test_sample_exact_q3_chisquare(q3):
    support = [f.values for f in enumerate_onepoint(q3, 0, 1)]
    assert len(support) == 495
    spec = EnsembleSpec("one-point", M=1, v0=0)
    for seed in (11, 12):
        counts = Counter(_rows(sample_exact(q3, spec, seed=seed, count=20_000)))
        assert set(counts) <= set(support)
        _, p = stats.chisquare([counts.get(s, 0) for s in support])
        assert p > 0.001, (seed, p)


def test_marginal_groundstate_matches_enumeration(petersen):
    members = list(enumerate_groundstate(petersen, 0, 1, 1.0))
    for v in (0, 7):
        assert marginal_groundstate(petersen, 0, 1, 1.0, v) == Counter(f.values[v] for f in members)


def test_long_cycle_m0_has_no_recursion_limit():
    g = cycle_graph(1500)
    assert count_onepoint(g, 0, 0).count == 1
    assert [f.values for f in enumerate_onepoint(g, 0, 0)] == [(0,) * 1500]
    assert sample_exact(g, EnsembleSpec("one-point", M=0, v0=0), seed=1).tolist() == [[0] * 1500]


def _central_trinomial(n: int) -> int:
    # a cycle step of 1-Lipschitz values is -1, 0 or 1, with zero total
    return sum(math.comb(n, 2 * k) * math.comb(2 * k, k) for k in range(n // 2 + 1))


_STAR = Graph.from_edges(14, [(0, v) for v in range(1, 14)], name="K1,13")


@pytest.mark.parametrize(
    "g,v0,M,expected",
    [
        (cycle_graph(16), 0, 1, _central_trinomial(16)),
        (cycle_graph(200), 0, 1, _central_trinomial(200)),
        # on a tree each edge step is free: (2M+1)^(n-1) functions
        (_STAR, 0, 20, 41 ** 13),
        (_STAR, 5, 20, 41 ** 13),
    ],
    ids=["C16", "C200", "K1,13-v0=0", "K1,13-v0=5"],
)
def test_counts_match_closed_forms(g, v0, M, expected):
    # all but C16 pass 2^63, where int64 multiplicities would wrap
    counted = count_onepoint(g, v0, M).count
    assert counted == ExactSampler(g, EnsembleSpec("one-point", M=M, v0=v0)).total == expected


def test_torus_count_anchor_invariant():
    g = torus_graph([4, 5])
    assert count_onepoint(g, 0, 1).count == count_onepoint(g, 7, 1).count == 4_641_119


@pytest.mark.parametrize(
    "g,spec",
    [
        (hypercube_graph(3), EnsembleSpec("one-point", M=1, v0=0)),
        (torus_graph([3, 4]), EnsembleSpec("one-point", M=1, v0=0)),
        (cycle_graph(14), EnsembleSpec("one-point", M=1, v0=0)),
        (complete_graph(6), EnsembleSpec("ground-state", M=1, k=0, lam=1.0)),
    ],
    ids=["Q3", "T3x4", "C14", "K6-ground"],
)
def test_sampler_charges_each_transition_once(g, spec):
    # the sampler's backward pass walks integer rows and charges nothing
    if spec.mode == "one-point":
        counted = count_onepoint(g, spec.v0, spec.M)
    else:
        counted = count_groundstate(g, spec.k, spec.M, spec.lam)
    assert ExactSampler(g, spec)._dp.nodes == counted.nodes_explored


def test_nodes_explored_pinned():
    # recorded before a state's live values were charged ahead of building them
    assert count_onepoint(cycle_graph(14), 0, 1).nodes_explored == 385
    assert count_onepoint(torus_graph([3, 5]), 0, 1).nodes_explored == 3_992
    assert count_onepoint(random_regular_graph(12, 3, seed=1), 0, 3).nodes_explored == 93_139
    # flaw caps 2 and 5 bind
    assert count_groundstate(complete_graph(10), 0, 2, 1.0).nodes_explored == 698
    assert count_groundstate(hypercube_graph(3), 0, 2, 1.0).nodes_explored == 19_755


@pytest.mark.parametrize(
    "run,stage",
    [
        (lambda g: count_onepoint(g, 0, 2, budget=40), "count"),
        (lambda g: ExactSampler(g, EnsembleSpec("one-point", M=2, v0=0), budget=40), "sampler"),
        (lambda g: list(enumerate_onepoint(g, 0, 2, budget=40)), "enumeration"),
    ],
)
def test_budget_error_names_stage_and_layer(q3, run, stage):
    with pytest.raises(BudgetExceededError, match=rf"^{stage} exceeded node budget \(\d+ > 40\) "
                                                  r"at layer \d/8, width \d+ states$"):
        run(q3)


def assert_sweep_matches_reference(g, spec, budget, start=0):
    """`_FrontierDP.expand` yields the loop reference's arrays, byte for byte
    (element for element, all Python ints, past int64), and charges the same
    transitions; or both raise the same budget error at the same state."""
    dp = _FrontierDP(g, spec, budget, start)
    try:
        expected, nodes = reference_sweep(g, spec, budget, start)
    except BudgetExceededError as error:
        with pytest.raises(BudgetExceededError) as raised:
            list(dp.expand("count"))
        assert str(raised.value) == str(error)
        assert raised.value.nodes == error.nodes == dp.nodes
        return
    layers = [step[:4] for step in dp.expand("count")]
    assert dp.nodes == nodes
    assert len(layers) == len(expected) == g.n
    for layer, reference in zip(layers, expected):
        assert len(layer) == len(reference) == 4
        for got, want in zip(layer, reference):
            assert got.dtype == want.dtype and got.shape == want.shape
            if want.dtype == object:
                assert got.tolist() == want.tolist()
                assert all(type(x) is int for x in got.tolist())
            else:
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "g,spec,budget",
    [
        # ground-state values past int64: keys and arrays hold Python ints
        (complete_graph(8), EnsembleSpec("ground-state", M=2, k=10**20, lam=1.0), DEFAULT_NODE_BUDGET),
        (complete_graph(8), EnsembleSpec("ground-state", M=2, k=-(10**20), lam=1.0), 300),
        # one state's live count past int64 is charged before anything is built
        (complete_graph(2), EnsembleSpec("one-point", M=2**70, v0=0), 100),
        # a key row spans more than one 63-bit word
        (complete_graph(10), EnsembleSpec("ground-state", M=2, k=0, lam=1.0), DEFAULT_NODE_BUDGET),
    ],
    ids=["K8-k1e20", "K8-k-1e20-budget", "K2-M2^70-budget", "K10-wide-keys"],
)
def test_sweep_matches_the_loop_reference(g, spec, budget):
    assert_sweep_matches_reference(g, spec, budget)


@pytest.mark.parametrize(
    "g,lam",
    [(cycle_graph(14), 0.15), (hypercube_graph(3), 0.6), (complete_graph(6), 1.0)],
    ids=["C14", "Q3", "K6"],
)
def test_every_budget_below_the_total_fails_as_the_loop_reference(g, lam):
    # ground-state M=1: flaw caps 2, 3 and 2; 942, 866 and 110 transitions
    spec = EnsembleSpec("ground-state", M=1, k=0, lam=lam)
    total = count_groundstate(g, 0, 1, lam).nodes_explored
    assert total == reference_sweep(g, spec, total)[1]
    for budget in range(total):
        with pytest.raises(BudgetExceededError) as error:
            reference_sweep(g, spec, budget)
        with pytest.raises(BudgetExceededError) as raised:
            count_groundstate(g, 0, 1, lam, budget=budget)
        assert str(raised.value) == str(error.value)
        assert raised.value.nodes == error.value.nodes
