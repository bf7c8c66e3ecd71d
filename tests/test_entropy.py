import itertools
import math

import numpy as np
import pytest

import liplab.entropy as entropy_module
from liplab.entropy import (
    CoverWeights,
    JointPmf,
    check_entropy_properties,
    conditional_entropy,
    conditional_entropy_maps,
    entropy,
    entropy_of_map,
    load_pmf,
    save_pmf,
    shearer_check,
)

TOL = 1e-10


def direct_entropy(probs):
    return sum(-p * math.log2(p) for p in probs if p > 0)


# ---------------------------------------------------------------------------
# Marginal entropy
# ---------------------------------------------------------------------------

def test_uniform_four_outcomes():
    p = JointPmf(((0, 1, 2, 3),), {(i,): 0.25 for i in range(4)})
    assert entropy(p, [0]) == pytest.approx(2.0, abs=TOL)


def test_point_mass():
    p = JointPmf(((0, 1),), {(0,): 1.0, (1,): 0.0})
    assert entropy(p, [0]) == pytest.approx(0.0, abs=TOL)


def test_half_quarter_quarter():
    p = JointPmf(((0, 1, 2),), {(0,): 0.5, (1,): 0.25, (2,): 0.25})
    assert entropy(p, [0]) == pytest.approx(1.5, abs=TOL)
    assert direct_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=TOL)


def test_marginal_of_joint():
    p = JointPmf.xor_triple()
    for i in range(3):
        assert entropy(p, [i]) == pytest.approx(1.0, abs=TOL)
    assert entropy(p, [0, 1, 2]) == pytest.approx(2.0, abs=TOL)


def test_entropy_bad_coords():
    p = JointPmf.independent_uniform_bits(2)
    with pytest.raises(ValueError):
        entropy(p, [])
    with pytest.raises(ValueError):
        entropy(p, [5])


def test_pmf_validation():
    with pytest.raises(ValueError, match="sum"):
        JointPmf(((0, 1),), {(0,): 0.9})
    with pytest.raises(ValueError, match="support"):
        JointPmf(((0, 1),), {(2,): 1.0})
    with pytest.raises(ValueError, match="arity"):
        JointPmf(((0, 1),), {(0, 1): 1.0})


# ---------------------------------------------------------------------------
# Conditional entropy
# ---------------------------------------------------------------------------

def test_conditional_on_self_is_zero():
    p = JointPmf.random([(0, 1, 2), (0, 1)], seed=4)
    assert conditional_entropy(p, [0], [0]) == pytest.approx(0.0, abs=TOL)


def test_independent_coordinates():
    p = JointPmf.independent_uniform_bits(2)
    assert conditional_entropy(p, [0], [1]) == pytest.approx(entropy(p, [0]), abs=TOL)


def test_copy_coordinate():
    p = JointPmf(((0, 1), (0, 1)), {(0, 0): 0.5, (1, 1): 0.5})
    assert entropy(p, [0]) == pytest.approx(1.0, abs=TOL)
    assert conditional_entropy(p, [0], [1]) == pytest.approx(0.0, abs=TOL)


def test_conditional_chain_identity():
    # H(X|Y) == H(X,Y) - H(Y) on random pmfs
    for seed in range(20):
        p = JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=seed)
        lhs = conditional_entropy(p, [0], [1, 2])
        rhs = entropy(p, [0, 1, 2]) - entropy(p, [1, 2])
        assert lhs == pytest.approx(rhs, abs=TOL)


def test_entropy_of_map():
    p = JointPmf.independent_uniform_bits(2)
    assert entropy_of_map(p, lambda o: o[0] ^ o[1]) == pytest.approx(1.0, abs=TOL)
    assert entropy_of_map(p, lambda o: 0) == pytest.approx(0.0, abs=TOL)


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def test_properties_on_xor():
    report = check_entropy_properties(JointPmf.xor_triple(), trials=3, seed=1)
    assert report["ok"], report["failures"][:3]
    assert all(v > 0 for v in report["checked"].values())


def test_properties_on_independent_bits():
    report = check_entropy_properties(JointPmf.independent_uniform_bits(3), trials=2, seed=2)
    assert report["ok"]


def test_properties_random_fuzz():
    for seed in range(60):
        p = JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=seed)
        report = check_entropy_properties(p, trials=2, seed=seed)
        assert report["ok"], (seed, report["failures"][:2])


def test_properties_coordinate_cap():
    with pytest.raises(ValueError, match="4"):
        check_entropy_properties(JointPmf.independent_uniform_bits(5))


def test_properties_checked_counts_pinned():
    report = check_entropy_properties(JointPmf.xor_triple(), trials=2, seed=0)
    assert report["checked"] == {
        "image": 7, "cond_reduces": 12, "chain": 12, "subadd": 3,
        "coarsen": 51, "function": 24, "triangle": 6,
    }


def test_properties_verify_set_total():
    # the 152 pmfs of `liplab verify --fuzz-scale 1` at seed 0
    pmfs = [(JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=s), s) for s in range(150)]
    pmfs += [(JointPmf.xor_triple(), 0), (JointPmf.independent_uniform_bits(3), 0)]
    total = 0
    for p, seed in pmfs:
        report = check_entropy_properties(p, trials=2, seed=seed)
        assert report["ok"]
        total += sum(report["checked"].values())
    assert total == 17_480


def test_chain_check_is_not_vacuous(monkeypatch):
    # conditional entropy is computed cell by cell, not as H(X,Y) - H(Y), so
    # a fault in its kernel must show up as chain-rule failures
    kernel = entropy_module._conditional_terms
    monkeypatch.setattr(entropy_module, "_conditional_terms", lambda joint, given: kernel(joint, given) + 1e-6)
    p = JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=3)
    report = check_entropy_properties(p, trials=2, seed=0)
    assert not report["ok"]
    assert any(f["property"] == "chain" for f in report["failures"])


# ---------------------------------------------------------------------------
# Dense table against a dict-grouping oracle
# ---------------------------------------------------------------------------

def oracle_grouped(p, key):
    out = {}
    for outcome, prob in p.probs.items():
        if prob <= 0.0:
            continue
        k = key(outcome)
        out[k] = out.get(k, 0.0) + prob
    return out


def oracle_projection(coords):
    coords = tuple(sorted(set(coords)))
    return lambda outcome: tuple(outcome[i] for i in coords)


def oracle_entropy_of_map(p, fn):
    return sum(-q * math.log2(q) for q in oracle_grouped(p, fn).values() if q > 0.0)


def oracle_conditional_maps(p, target_fn, given_fn):
    cells = oracle_grouped(p, given_fn)
    joint = oracle_grouped(p, lambda o: (given_fn(o), target_fn(o)))
    return sum(-q * math.log2(q / cells[g]) for (g, _), q in joint.items())


def oracle_conditional(p, target, given):
    if not given:
        return oracle_entropy_of_map(p, oracle_projection(target))
    return oracle_conditional_maps(p, oracle_projection(target), oracle_projection(given))


def sparse_pmf(supports, seed):
    """Random pmf with about half the cells listed at probability 0 and a
    quarter left out of `probs` altogether."""
    rng = np.random.default_rng(seed)
    cells = list(itertools.product(*supports))
    weights = rng.dirichlet([1.0] * len(cells))
    weights[rng.random(len(cells)) < 0.5] = 0.0
    weights[0] += 0.1
    weights /= weights.sum()
    listed = rng.random(len(cells)) < 0.75
    probs = {c: float(w) for c, w, keep in zip(cells, weights, listed) if keep or w > 0}
    return JointPmf(tuple(map(tuple, supports)), probs)


ORACLE_PMFS = {
    "random-2x3x2": lambda: JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=7),
    "random-2x2x2x2": lambda: JointPmf.random([(0, 1)] * 4, seed=8),
    "xor-triple": JointPmf.xor_triple,
    "strings-unsorted": lambda: JointPmf.random([("b", "a"), ("z", "x", "y"), (1, 0)], seed=9),
    "zero-cells": lambda: sparse_pmf([(0, 1), (2, 0, 1), ("u", "v")], seed=10),
    "zero-cells-4": lambda: sparse_pmf([(0, 1, 2), (0, 1), (0, 1), (1, 0)], seed=11),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PMFS))
def test_dense_engine_matches_oracle(name):
    p = ORACLE_PMFS[name]()
    n = p.n_coords
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    for target in subsets[1:]:
        assert entropy(p, target) == pytest.approx(oracle_conditional(p, target, ()), abs=1e-12)
        for given in subsets:  # disjoint, overlapping and containing the target
            got = conditional_entropy(p, target, given)
            assert got == pytest.approx(oracle_conditional(p, target, given), abs=1e-12), (target, given)


@pytest.mark.parametrize("name", sorted(ORACLE_PMFS))
def test_derived_maps_match_oracle(name):
    p = ORACLE_PMFS[name]()
    maps = [
        lambda o: 0,
        lambda o: o[0],
        lambda o: str(o[-1]) + str(o[1]),
        lambda o: len(repr(o)) % 3,
        lambda o: (o[0], o[1]),
        lambda o: o,
    ]
    for fn in maps:
        assert entropy_of_map(p, fn) == pytest.approx(oracle_entropy_of_map(p, fn), abs=1e-12)
        for given_fn in maps:
            got = conditional_entropy_maps(p, fn, given_fn)
            assert got == pytest.approx(oracle_conditional_maps(p, fn, given_fn), abs=1e-12)


def test_table_layout():
    p = JointPmf(((1, 0), ("a", "b")), {(0, "a"): 0.5, (1, "b"): 0.5, (0, "b"): 0.0})
    assert p.table.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert not p.table.flags.writeable


def test_table_cell_limit():
    with pytest.raises(ValueError, match="table cells"):
        JointPmf(tuple((0, 1) for _ in range(25)), {(0,) * 25: 1.0})


# ---------------------------------------------------------------------------
# Cover inequality
# ---------------------------------------------------------------------------

def test_cover_two_singletons():
    p = JointPmf.independent_uniform_bits(2)
    cw = CoverWeights((frozenset({0}), frozenset({1})), (1.0, 1.0), frozenset())
    report = shearer_check(p, cw)
    assert report["lhs"] == pytest.approx(2.0, abs=TOL)
    assert report["rhs"] == pytest.approx(2.0, abs=TOL)
    assert report["pass"]


def test_cover_xor_blocks():
    p = JointPmf.xor_triple()
    cw = CoverWeights((frozenset({0, 1}), frozenset({2})), (1.0, 1.0), frozenset())
    report = shearer_check(p, cw)
    assert report["lhs"] == pytest.approx(2.0, abs=TOL)
    assert report["rhs"] == pytest.approx(3.0, abs=TOL)
    assert report["pass"]


def test_cover_pairwise_half_weights_fuzz():
    sets = (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
    cw = CoverWeights(sets, (0.5, 0.5, 0.5), frozenset())
    for seed in range(100):
        p = JointPmf.random([(0, 1), (0, 1), (0, 1)], seed=seed)
        assert shearer_check(p, cw)["pass"]


def test_cover_with_total_order():
    # full conditioning chain: the bound collapses to H(X) exactly
    order = frozenset({(0, 1), (0, 2), (1, 2)})
    sets = (frozenset({0}), frozenset({1}), frozenset({2}))
    cw = CoverWeights(sets, (1.0, 1.0, 1.0), order)
    for seed in range(30):
        p = JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=seed + 500)
        report = shearer_check(p, cw)
        assert report["pass"]
        assert report["rhs"] == pytest.approx(report["lhs"], abs=TOL)


def test_cover_weight_validation():
    p = JointPmf.independent_uniform_bits(2)
    bad = CoverWeights((frozenset({0}),), (1.0,), frozenset())
    with pytest.raises(ValueError, match="cover weight"):
        shearer_check(p, bad)
    with pytest.raises(ValueError, match="empty"):
        CoverWeights((frozenset(),), (1.0,), frozenset())
    with pytest.raises(ValueError, match="irreflexive"):
        CoverWeights((frozenset({0}),), (1.0,), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="transitive"):
        CoverWeights((frozenset({0}),), (1.0,), frozenset({(0, 1), (1, 2)}))


# ---------------------------------------------------------------------------
# IO
# ---------------------------------------------------------------------------

def test_pmf_roundtrip(tmp_path):
    p = JointPmf.random([(0, 1), ("a", "b")], seed=9)
    path = tmp_path / "p.json"
    save_pmf(p, path)
    q = load_pmf(path)
    assert q.supports == ((0, 1), ("a", "b"))
    for outcome, prob in p.probs.items():
        assert q.probs[outcome] == pytest.approx(prob, abs=1e-15)
