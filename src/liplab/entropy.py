"""Entropy calculus for finite joint distributions, in bits.

Implements marginal and conditional Shannon entropy over named coordinates,
the standard toolbox of entropy inequalities, and the fractional-cover
subadditivity inequality with conditioning along a partial order.

A `JointPmf` keeps its probabilities as a dense float64 table with one axis
per coordinate.  Marginals are axis sums, cached per pmf together with the
conditional entropies computed from them; derived variables given as
callables are coded to integers and summed with `np.bincount`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_NORM_TOL = 1e-12
ENTROPY_TOL = 1e-10
MAX_TABLE_CELLS = 1 << 24  # 128 MB of float64


@dataclass(frozen=True)
class JointPmf:
    """Finitely supported joint distribution over named discrete coordinates.

    `table[i_0, ..., i_{n-1}]` is the probability of the outcome whose
    coordinate k is `supports[k][i_k]`; cells with probability <= 0 hold 0.
    The table is built once at construction and is read-only, so `probs`
    must not be changed afterwards.
    """

    supports: tuple[tuple, ...]
    probs: dict
    table: np.ndarray = field(init=False, repr=False, compare=False)
    _outcomes: tuple = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _marginals: dict = field(init=False, repr=False, compare=False)
    _conditionals: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.supports)
        shape = tuple(len(s) for s in self.supports)
        if math.prod(shape) > MAX_TABLE_CELLS:
            raise ValueError(
                f"support sizes {shape} give {math.prod(shape)} table cells, over {MAX_TABLE_CELLS}"
            )
        index = [{} for _ in range(n)]
        for i, support in enumerate(self.supports):
            for j, val in enumerate(support):
                index[i].setdefault(val, j)
        table = np.zeros(shape)
        outcomes, weights = [], []
        total = 0.0
        for outcome, p in self.probs.items():
            if len(outcome) != n:
                raise ValueError(f"outcome {outcome} has arity {len(outcome)}, want {n}")
            cell = []
            for i, val in enumerate(outcome):
                j = index[i].get(val)
                if j is None:
                    raise ValueError(f"value {val!r} outside support of coordinate {i}")
                cell.append(j)
            if p < -_NORM_TOL:
                raise ValueError(f"negative probability {p} at {outcome}")
            total += p
            if p > 0.0:
                table[tuple(cell)] = p
                outcomes.append(outcome)
                weights.append(p)
        if abs(total - 1.0) > _NORM_TOL * max(1, len(self.probs)):
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_outcomes", tuple(outcomes))
        object.__setattr__(self, "_weights", np.array(weights, dtype=float))
        object.__setattr__(self, "_marginals", {})
        object.__setattr__(self, "_conditionals", {})

    @property
    def n_coords(self) -> int:
        return len(self.supports)

    @classmethod
    def from_outcomes(cls, supports, weighted_outcomes) -> "JointPmf":
        return cls(tuple(tuple(s) for s in supports), dict(weighted_outcomes))

    @classmethod
    def independent_uniform_bits(cls, n: int) -> "JointPmf":
        outcomes = {tuple(bits): 1.0 / 2**n for bits in itertools.product((0, 1), repeat=n)}
        return cls(tuple((0, 1) for _ in range(n)), outcomes)

    @classmethod
    def xor_triple(cls) -> "JointPmf":
        """Two independent uniform bits and their parity."""
        outcomes = {}
        for a, b in itertools.product((0, 1), repeat=2):
            outcomes[(a, b, a ^ b)] = 0.25
        return cls(((0, 1), (0, 1), (0, 1)), outcomes)

    @classmethod
    def random(cls, supports, seed: int, concentration: float = 1.0) -> "JointPmf":
        """Dirichlet-distributed probabilities over the full product support."""
        supports = tuple(tuple(s) for s in supports)
        cells = list(itertools.product(*supports))
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        weights = rng.dirichlet([concentration] * len(cells))
        return cls(supports, {cell: float(w) for cell, w in zip(cells, weights)})


def _sorted_coords(p: JointPmf, coords, what: str) -> tuple:
    coords = tuple(sorted(set(coords)))
    if any(i < 0 or i >= p.n_coords for i in coords):
        raise ValueError(f"{what} {coords} out of range for {p.n_coords} coordinates")
    return coords


def _marginal(p: JointPmf, coords: tuple) -> np.ndarray:
    """Marginal table over sorted `coords`, one axis per coordinate (cached)."""
    table = p._marginals.get(coords)
    if table is None:
        drop = tuple(i for i in range(p.n_coords) if i not in coords)
        table = p.table.sum(axis=drop) if drop else p.table
        p._marginals[coords] = table
    return table


def _block(p: JointPmf, rows: tuple, cols: tuple) -> np.ndarray:
    """Joint table of two disjoint sorted coordinate blocks as a matrix: the
    row index runs over the cells of `rows`, the column index over `cols`."""
    union = tuple(sorted(rows + cols))
    table = _marginal(p, union).transpose([union.index(i) for i in rows + cols])
    return table.reshape(math.prod(p.table.shape[i] for i in rows), -1)


def _entropy_of_table(table: np.ndarray) -> float:
    q = table[table > 0.0]
    return float(-np.sum(q * np.log2(q)))


def _conditional_terms(joint: np.ndarray, given: np.ndarray) -> np.ndarray:
    """Cell terms -p(x,y) log2(p(x,y)/p(y)) of H(X|Y), 0 where p(x,y) = 0;
    `given` holds p(y) and broadcasts against `joint`."""
    ratio = np.divide(joint, given, out=np.ones(joint.shape), where=joint > 0.0)
    return -joint * np.log2(ratio)


def entropy(p: JointPmf, coords) -> float:
    """Marginal entropy H(X_coords) in bits (0 log 1/0 = 0)."""
    coords = _sorted_coords(p, coords, "coords")
    if not coords:
        raise ValueError("coords must be nonempty")
    key = (coords, ())
    h = p._conditionals.get(key)
    if h is None:
        h = p._conditionals[key] = _entropy_of_table(_marginal(p, coords))
    return h


def _codes(p: JointPmf, fn: Callable) -> tuple[np.ndarray, int]:
    """fn evaluated once per positive outcome, factorised to codes 0..k-1."""
    index: dict = {}
    codes = np.fromiter(
        (index.setdefault(fn(outcome), len(index)) for outcome in p._outcomes),
        dtype=np.intp,
        count=len(p._outcomes),
    )
    return codes, len(index)


def entropy_of_map(p: JointPmf, fn: Callable) -> float:
    """Entropy of an arbitrary derived variable fn(outcome)."""
    codes, k = _codes(p, fn)
    return _entropy_of_table(np.bincount(codes, weights=p._weights, minlength=k))


def conditional_entropy_maps(p: JointPmf, target_fn: Callable, given_fn: Callable) -> float:
    """H(target | given) for derived variables: average over the conditioning
    cells of the entropy of the target within each cell."""
    target, n_target = _codes(p, target_fn)
    given, _ = _codes(p, given_fn)
    pairs, pair_codes = np.unique(given * n_target + target, return_inverse=True)
    joint = np.bincount(pair_codes, weights=p._weights)
    cells = np.bincount(given, weights=p._weights)
    return float(_conditional_terms(joint, cells[pairs // n_target]).sum())


def conditional_entropy(p: JointPmf, target, given) -> float:
    """H(X_target | X_given); an empty `given` reduces to the marginal entropy.

    Computed cell by cell on the joint table over target and given, as
    -sum p(x,y) log2(p(x,y)/p(y)), not as a difference of entropies."""
    target = _sorted_coords(p, target, "target")
    given = _sorted_coords(p, given, "given")
    if not target:
        raise ValueError("target must be nonempty")
    if not given:
        return entropy(p, target)
    key = (target, given)
    h = p._conditionals.get(key)
    if h is None:
        rows = tuple(i for i in target if i not in given)
        joint = _block(p, rows, given)
        h = p._conditionals[key] = float(_conditional_terms(joint, joint.sum(axis=0)).sum())
    return h


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

def _cells_by_value(p: JointPmf, coords: tuple) -> list[int]:
    """Flat indices of the positive cells of the marginal over `coords`,
    ordered by their value tuples."""
    values = list(itertools.product(*(p.supports[i] for i in coords)))
    positive = np.flatnonzero(_marginal(p, coords)).tolist()
    return sorted(positive, key=values.__getitem__)


def _random_codes(rng: np.random.Generator, cells: list[int], size: int, codomain: int) -> np.ndarray:
    """Random table over `cells`: one draw per cell, in the order given."""
    codes = np.zeros(size, dtype=np.intp)
    for cell in cells:
        codes[cell] = rng.integers(0, codomain)
    return codes


def _one_hot(maps: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Indicator matrices of lookup arrays (cell -> code), side by side, and
    the first column of each map's block."""
    widths = [int(codes.max()) + 1 for codes in maps]
    starts = np.cumsum([0] + widths[:-1])
    cells = np.arange(len(maps[0]))
    onehot = np.zeros((len(cells), sum(widths)))
    for codes, start in zip(maps, starts):
        onehot[cells, start + codes] = 1.0
    return onehot, starts


def check_entropy_properties(p: JointPmf, trials: int = 3, seed: int = 0,
                             tol: float = ENTROPY_TOL) -> dict:
    """Verify the standard entropy toolbox on one pmf.

    Properties, over all applicable coordinate subsets: (1) image bound,
    (2) conditioning reduces entropy, (3) chain rule, (4) subadditivity given
    side information, (5) coarser conditioning increases conditional entropy
    (determined maps), (6) functions of the target add nothing, (7) triangle
    inequality.  Deterministic maps for (5)/(6) are coordinate projections,
    constants, and `trials` random seeded tables; each is a lookup array over
    the cells of the block it maps.  All coarsenings of Y for one (X, Y)
    pair are applied to the joint table of X and Y by one indicator-matrix
    product, and all targets (X, f(X)) by one more.
    """
    n = p.n_coords
    if n > 4:
        raise ValueError("property sweep is exhaustive over subsets; use <= 4 coordinates")
    idx = list(range(n))
    nonempty = [tuple(c) for r in range(1, n + 1) for c in itertools.combinations(idx, r)]
    pairs = [(xs, ys) for xs, ys in itertools.permutations(nonempty, 2) if not set(xs) & set(ys)]
    failures = []
    checked = {k: 0 for k in ("image", "cond_reduces", "chain", "subadd", "coarsen", "function", "triangle")}
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def record(prop, ok, witness):
        checked[prop] += 1
        if not ok:
            failures.append({"property": prop, "witness": witness})

    for xs in nonempty:
        image = np.count_nonzero(_marginal(p, xs))
        record("image", entropy(p, xs) <= math.log2(max(1, image)) + tol, {"X": xs})

    for xs, ys in pairs:
        record("cond_reduces", conditional_entropy(p, xs, ys) <= entropy(p, xs) + tol, {"X": xs, "Y": ys})
        joint = entropy(p, xs + ys)
        record(
            "chain",
            abs(joint - entropy(p, xs) - conditional_entropy(p, ys, xs)) <= tol,
            {"X": xs, "Y": ys},
        )
        if len(xs) > 1:
            bound = sum(conditional_entropy(p, (i,), ys) for i in xs)
            record("subadd", conditional_entropy(p, xs, ys) <= bound + tol, {"X": xs, "Y": ys})

    # (5)/(6) with explicit deterministic maps of the conditioning block.  The
    # random tables draw once per positive value, in sorted value order.
    for xs, ys in pairs:
        joint = _block(p, xs, ys)
        n_x, n_y = joint.shape
        h = conditional_entropy(p, xs, ys)
        y_shape = tuple(len(p.supports[i]) for i in ys)
        y_axes = np.indices(y_shape).reshape(len(ys), n_y)
        maps = [np.zeros(n_y, dtype=np.intp)]  # constant coarsening
        for sub in itertools.combinations(range(len(ys)), max(1, len(ys) - 1)):
            maps.append(np.ravel_multi_index(tuple(y_axes[list(sub)]), tuple(y_shape[i] for i in sub)))
        y_cells = _cells_by_value(p, ys)
        for _ in range(trials):
            maps.append(_random_codes(rng, y_cells, n_y, codomain=2))
        onehot, starts = _one_hot(maps)
        coarse = joint @ onehot  # p(x, f(y)) for every map f, side by side
        per_column = _conditional_terms(coarse, coarse.sum(axis=0)).sum(axis=0)
        for rhs in np.add.reduceat(per_column, starts):
            record("coarsen", h <= rhs + tol, {"X": xs, "Y": ys})

        fns = [np.zeros(n_x, dtype=np.intp), _random_codes(rng, _cells_by_value(p, xs), n_x, codomain=3)]
        # the target (x, f(x)) is coded as x * width(f) + f(x)
        onehot, starts = _one_hot([np.arange(n_x) * (int(f.max()) + 1) + f for f in fns])
        extended = onehot.T @ joint  # p((x, f(x)), y) for every map f, stacked
        per_row = _conditional_terms(extended, joint.sum(axis=0)).sum(axis=1)
        for lhs in np.add.reduceat(per_row, starts):
            record("function", abs(lhs - h) <= tol, {"X": xs, "Y": ys})

    for xs, ys, zs in itertools.permutations(nonempty, 3):
        if set(xs) & set(ys) or set(xs) & set(zs) or set(ys) & set(zs):
            continue
        lhs = conditional_entropy(p, xs, zs)
        rhs = conditional_entropy(p, xs, ys) + conditional_entropy(p, ys, zs)
        record("triangle", lhs <= rhs + tol, {"X": xs, "Y": ys, "Z": zs})

    return {"checked": checked, "failures": failures, "ok": not failures}


# ---------------------------------------------------------------------------
# Fractional-cover subadditivity with ordered conditioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverWeights:
    """Nonnegative weights on coordinate subsets forming a fractional cover,
    plus a strict partial order on coordinates used for conditioning."""

    sets: tuple[frozenset, ...]
    weights: tuple[float, ...]
    order: frozenset  # pairs (i, j) meaning i precedes j

    def __post_init__(self):
        if len(self.sets) != len(self.weights):
            raise ValueError("sets and weights must align")
        if any(not s for s in self.sets):
            raise ValueError("empty subsets are not allowed in a cover")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        for i, j in self.order:
            if i == j:
                raise ValueError("order must be irreflexive")
        pairs = set(self.order)
        for (a, b), (c, d) in itertools.product(pairs, repeat=2):
            if b == c and (a, d) not in pairs:
                raise ValueError(f"order is not transitive: ({a},{b}),({c},{d}) need ({a},{d})")

    def validate_for(self, n_coords: int, tol: float = 1e-9) -> None:
        for s in self.sets:
            if any(i < 0 or i >= n_coords for i in s):
                raise ValueError(f"subset {sorted(s)} out of range")
        for i, j in self.order:
            if not (0 <= i < n_coords and 0 <= j < n_coords):
                raise ValueError(f"order pair ({i},{j}) out of range")
        for i in range(n_coords):
            tot = sum(w for s, w in zip(self.sets, self.weights) if i in s)
            if abs(tot - 1.0) > tol:
                raise ValueError(f"coordinate {i} has cover weight {tot}, want 1")


def shearer_check(p: JointPmf, cw: CoverWeights, tol: float = ENTROPY_TOL) -> dict:
    """Total entropy versus the weighted sum of conditional block entropies.

    The right side conditions each block on the coordinates that precede all
    of it in the partial order; the inequality holds for every valid cover.
    """
    cw.validate_for(p.n_coords)
    lhs = entropy(p, range(p.n_coords))
    rhs = 0.0
    terms = []
    for s, w in zip(cw.sets, cw.weights):
        if w == 0:
            continue
        pred = tuple(i for i in range(p.n_coords) if all((i, a) in set(cw.order) for a in s))
        h = conditional_entropy(p, tuple(s), pred)
        rhs += w * h
        terms.append({"set": sorted(s), "weight": w, "given": pred, "term": h})
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + tol, "terms": terms}


# ---------------------------------------------------------------------------
# File format: {"supports": [[...], ...], "probs": [{"outcome": [...], "p": r}, ...]}
# ---------------------------------------------------------------------------

def save_pmf(p: JointPmf, path) -> None:
    payload = {
        "supports": [list(s) for s in p.supports],
        "probs": [{"outcome": list(o), "p": prob} for o, prob in sorted(p.probs.items())],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_pmf(path) -> JointPmf:
    with open(path) as fh:
        data = json.load(fh)
    supports = tuple(tuple(s) for s in data["supports"])
    probs = {tuple(row["outcome"]): float(row["p"]) for row in data["probs"]}
    return JointPmf(supports, probs)
