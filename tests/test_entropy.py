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
    entropy,
    shearer_check,
    shearer_rows,
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


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def test_properties_on_xor():
    report = check_entropy_properties([JointPmf.xor_triple()], [1])
    assert report["ok"], report["failures"][:3]
    assert all(v > 0 for v in report["checked"].values())


def test_properties_on_independent_bits():
    report = check_entropy_properties([JointPmf.independent_uniform_bits(3)], [2])
    assert report["ok"]
    # one coordinate: no pair (X, Y), so no random map is drawn
    report = check_entropy_properties([JointPmf.independent_uniform_bits(1)] * 2, [0, 1])
    assert report["ok"] and report["checked"]["image"] == 2


def test_properties_random_fuzz():
    seeds = list(range(60))
    pmfs = [JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=seed) for seed in seeds]
    report = check_entropy_properties(pmfs, seeds)
    assert report["ok"], report["failures"][:2]
    assert report["pmfs"] == 60


def test_properties_coordinate_cap():
    with pytest.raises(ValueError, match="4"):
        check_entropy_properties([JointPmf.independent_uniform_bits(5)], [0])


def test_properties_checked_counts_pinned():
    report = check_entropy_properties([JointPmf.xor_triple()], [0])
    assert report["checked"] == {
        "image": 7, "cond_reduces": 12, "chain": 12, "subadd": 3,
        "coarsen": 51, "function": 24, "triangle": 6,
    }


def verify_pmfs(seed=0):
    """The pmfs of `liplab verify --fuzz-scale 1`, with their seeds, as the
    two batches (one per support shape) that it checks."""
    seeds = list(range(150))
    random_pmfs = [JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=seed * 100_000 + s) for s in seeds]
    return [(random_pmfs, seeds), ([JointPmf.xor_triple(), JointPmf.independent_uniform_bits(3)], [seed, seed])]


def test_properties_verify_set_total():
    total = 0
    for pmfs, seeds in verify_pmfs(seed=0):
        report = check_entropy_properties(pmfs, seeds)
        assert report["ok"]
        assert report["pmfs"] == len(pmfs)
        total += sum(report["checked"].values())
    assert total == 17_480


def test_chain_check_is_not_vacuous(monkeypatch):
    # conditional entropy is computed cell by cell, not as H(X,Y) - H(Y), so
    # a fault in its kernel must show up as chain-rule failures
    kernel = entropy_module._conditional_terms
    monkeypatch.setattr(entropy_module, "_conditional_terms", lambda joint, given: kernel(joint, given) + 1e-6)
    p = JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=3)
    report = check_entropy_properties([p], [0])
    assert not report["ok"]
    assert any(f["property"] == "chain" for f in report["failures"])


def reference_properties(p, trials, seed, tol=TOL):
    """The toolbox checked one pmf at a time through the public entropy
    functions, with one scalar draw per cell of each random table: the
    reference for the batched check."""
    n = p.n_coords
    nonempty = [tuple(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
    pairs = [(xs, ys) for xs, ys in itertools.permutations(nonempty, 2) if not set(xs) & set(ys)]
    failures = []
    checked = dict.fromkeys(("image", "cond_reduces", "chain", "subadd", "coarsen", "function", "triangle"), 0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def record(prop, ok, witness):
        checked[prop] += 1
        if not ok:
            failures.append({"property": prop, "witness": witness})

    def marginal(coords):
        return p.table.sum(axis=tuple(i for i in range(n) if i not in coords))

    def block(rows, cols):
        union = tuple(sorted(rows + cols))
        table = marginal(union).transpose([union.index(i) for i in rows + cols])
        return table.reshape(math.prod(p.table.shape[i] for i in rows), -1)

    def random_codes(coords, codomain):
        cells = math.prod(p.table.shape[i] for i in coords)
        return np.array([rng.integers(0, codomain) for _ in range(cells)], dtype=np.intp)

    def terms_by_map(table, maps, axis):
        # H(row | column) of `table` after merging its rows (axis 0) or its
        # columns (axis 1) by each map in turn
        out = []
        for codes in maps:
            merged = np.zeros((codes.max() + 1, table.shape[1]) if axis == 0 else (table.shape[0], codes.max() + 1))
            for cell, code in enumerate(codes):
                if axis == 0:
                    merged[code] += table[cell]
                else:
                    merged[:, code] += table[:, cell]
            given = merged.sum(axis=0)
            out.append(sum(-q * math.log2(q / g) for row in merged for q, g in zip(row, given) if q > 0))
        return out

    for xs in nonempty:
        image = np.count_nonzero(marginal(xs))
        record("image", entropy(p, xs) <= math.log2(max(1, image)) + tol, {"X": xs})
    for xs, ys in pairs:
        record("cond_reduces", conditional_entropy(p, xs, ys) <= entropy(p, xs) + tol, {"X": xs, "Y": ys})
        chain = entropy(p, xs + ys) - entropy(p, xs) - conditional_entropy(p, ys, xs)
        record("chain", abs(chain) <= tol, {"X": xs, "Y": ys})
        if len(xs) > 1:
            bound = sum(conditional_entropy(p, (i,), ys) for i in xs)
            record("subadd", conditional_entropy(p, xs, ys) <= bound + tol, {"X": xs, "Y": ys})
    for xs, ys in pairs:
        joint = block(xs, ys)
        n_x, n_y = joint.shape
        h = conditional_entropy(p, xs, ys)
        y_shape = tuple(len(p.supports[i]) for i in ys)
        y_axes = np.indices(y_shape).reshape(len(ys), n_y)
        maps = [np.zeros(n_y, dtype=np.intp)]
        for sub in itertools.combinations(range(len(ys)), max(1, len(ys) - 1)):
            maps.append(np.ravel_multi_index(tuple(y_axes[list(sub)]), tuple(y_shape[i] for i in sub)))
        maps += [random_codes(ys, 2) for _ in range(trials)]
        for rhs in terms_by_map(joint, maps, axis=1):
            record("coarsen", h <= rhs + tol, {"X": xs, "Y": ys})
        fns = [np.zeros(n_x, dtype=np.intp), random_codes(xs, 3)]
        targets = [np.arange(n_x) * (f.max() + 1) + f for f in fns]
        for lhs in terms_by_map(joint, targets, axis=0):
            record("function", abs(lhs - h) <= tol, {"X": xs, "Y": ys})
    for xs, ys, zs in itertools.permutations(nonempty, 3):
        if set(xs) & set(ys) or set(xs) & set(zs) or set(ys) & set(zs):
            continue
        rhs = conditional_entropy(p, xs, ys) + conditional_entropy(p, ys, zs)
        record("triangle", conditional_entropy(p, xs, zs) <= rhs + tol, {"X": xs, "Y": ys, "Z": zs})
    return {"checked": checked, "failures": failures, "ok": not failures}


def mixed_batch():
    """Four (2,2,2) pmfs whose positive cells differ; the last one's labels
    sort against its index order."""
    sparse = {(0, 0, 0): 0.5, (1, 1, 0): 0.3, (0, 1, 1): 0.2}
    relabelled = {(1, 0, "b"): 0.4, (0, 1, "a"): 0.35, (0, 0, "b"): 0.25}
    return [
        JointPmf.xor_triple(),
        JointPmf.independent_uniform_bits(3),
        JointPmf(((0, 1), (0, 1), (0, 1)), sparse),
        JointPmf(((1, 0), (0, 1), ("b", "a")), relabelled),
    ]


# A negative tolerance fails every check that holds with equality for a pmf
# (and the chain and function checks always), so the reports list failures
# that depend on each pmf's table and on its random maps.
@pytest.mark.parametrize("tol", [TOL, -1e-9])
def test_batch_rows_match_single_checks_on_mixed_batch(monkeypatch, tol):
    monkeypatch.setattr(entropy_module, "ENTROPY_TOL", tol)
    pmfs, seeds = mixed_batch(), [5, 6, 7, 8]
    rows = entropy_module._row_reports(pmfs, seeds)
    alone = [entropy_module._row_reports([p], [s])[0] for p, s in zip(pmfs, seeds)]
    trials = entropy_module.TRIALS
    assert rows == alone == [reference_properties(p, trials, s, tol) for p, s in zip(pmfs, seeds)]
    if tol < 0:
        assert len({len(report["failures"]) for report in rows}) == len(rows)


def test_batch_rows_match_single_checks_on_verify_pmfs(monkeypatch):
    monkeypatch.setattr(entropy_module, "ENTROPY_TOL", -1e-9)
    (pmfs, seeds), _ = verify_pmfs(seed=0)
    rows = entropy_module._row_reports(pmfs, seeds)
    alone = [entropy_module._row_reports([p], [s])[0] for p, s in zip(pmfs, seeds)]
    trials = entropy_module.TRIALS
    assert rows == alone == [reference_properties(p, trials, s, -1e-9) for p, s in zip(pmfs, seeds)]
    assert len({len(report["failures"]) for report in rows}) > 1


def test_random_tables_equal_scalar_draws():
    specs = [(2, 3, 4), (3, 1, 2), (5, 2, 8)]  # (codomain, count, cells)
    seeds = [0, 1, 2, 3]
    tables = entropy_module._random_tables(seeds, specs)
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for (codomain, count, cells), table in zip(specs, tables):
            assert table.shape == (len(seeds), count, cells)
            assert table[row].tolist() == [[rng.integers(0, codomain) for _ in range(cells)] for _ in range(count)]


def test_row_reports_do_not_depend_on_the_random_maps():
    pmfs = [JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=s) for s in range(20)]
    rows = entropy_module._row_reports(pmfs, list(range(20)))
    assert rows == entropy_module._row_reports(pmfs, list(range(100, 120)))
    assert all(report["ok"] for report in rows)


def test_list_report_stops_at_first_failing_pmf(monkeypatch):
    pmfs, seeds = mixed_batch(), [5, 6, 7, 8]
    per_pmf = sum(check_entropy_properties([pmfs[0]], [5])["checked"].values())
    kernel = entropy_module._conditional_terms

    def fault_in_row_2(joint, given):
        terms = kernel(joint, given)
        terms[2] += 1e-6
        return terms

    monkeypatch.setattr(entropy_module, "_conditional_terms", fault_in_row_2)
    report = check_entropy_properties(pmfs, seeds)
    assert not report["ok"]
    assert report["pmfs"] == 3
    assert sum(report["checked"].values()) == 3 * per_pmf
    assert report["failures"] and all(f["pmf"] == 2 for f in report["failures"])
    assert set(report["failures"][0]) == {"property", "witness", "pmf"}


def test_list_input_validation(monkeypatch):
    bits = JointPmf.independent_uniform_bits(3)
    with pytest.raises(ValueError, match="equal support sizes"):
        check_entropy_properties([bits, JointPmf.independent_uniform_bits(2)], [0, 0])
    with pytest.raises(ValueError, match="one seed per pmf"):
        check_entropy_properties([bits, bits], [0])
    with pytest.raises(ValueError, match="list of seeds"):
        check_entropy_properties([bits, bits], 0)
    empty = check_entropy_properties([], [])
    assert empty == {"checked": dict.fromkeys(empty["checked"], 0), "failures": [], "ok": True, "pmfs": 0}
    assert len(empty["checked"]) == 7
    # the stack guard: B x cells against the cap, before any table is stacked
    monkeypatch.setattr(entropy_module, "MAX_TABLE_CELLS", 20)
    assert check_entropy_properties([bits, bits], [0, 1])["ok"]
    with pytest.raises(ValueError, match="24 table cells, over MAX_TABLE_CELLS = 20"):
        check_entropy_properties([bits, bits, bits], [0, 1, 2])


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
    assert shearer_check(JointPmf.independent_uniform_bits(3), cw)["pass"]  # equality: 3 = 3 * 0.5 * 2
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


@pytest.mark.parametrize("sets,order", [
    ((frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})), frozenset()),
    ((frozenset({0}), frozenset({1}), frozenset({2})), frozenset({(0, 1), (0, 2), (1, 2)})),
], ids=["pairwise", "total-order"])
def test_shearer_rows_match_the_one_row_check(sets, order):
    """The stacked sides against `shearer_check` pmf by pmf, and both against
    the sides summed from `entropy` and `conditional_entropy`."""
    cw = CoverWeights(sets, (0.5,) * 3 if len(sets[0]) == 2 else (1.0,) * 3, order)
    pmfs = [JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=seed) for seed in range(60)]
    lhs, rhs, ok = shearer_rows(pmfs, cw)
    assert lhs.shape == rhs.shape == ok.shape == (60,)
    assert lhs == pytest.approx([entropy(p, range(3)) for p in pmfs], abs=1e-12)
    given = [tuple(i for i in range(3) if all((i, a) in order for a in s)) for s in sets]
    assert rhs == pytest.approx([sum(w * conditional_entropy(p, s, pred) for s, w, pred in zip(sets, cw.weights, given))
                                 for p in pmfs], abs=1e-12)
    reports = [shearer_check(p, cw) for p in pmfs]
    assert lhs == pytest.approx([r["lhs"] for r in reports], abs=1e-12)
    assert rhs == pytest.approx([r["rhs"] for r in reports], abs=1e-12)
    assert ok.tolist() == [r["pass"] for r in reports] == [True] * 60


def test_shearer_rows_need_equal_supports_and_a_valid_cover():
    cw = CoverWeights((frozenset({0}), frozenset({1})), (1.0, 1.0), frozenset())
    with pytest.raises(ValueError, match="equal support sizes"):
        shearer_rows([JointPmf.independent_uniform_bits(2), JointPmf.random([(0, 1), (0, 1, 2)], seed=0)], cw)
    with pytest.raises(ValueError, match="cover weight"):
        shearer_rows([JointPmf.independent_uniform_bits(3)], cw)
