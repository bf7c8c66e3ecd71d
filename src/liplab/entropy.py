"""Entropy calculus for finite joint distributions, in bits.

Implements marginal Shannon entropy over named coordinates, the standard
toolbox of entropy inequalities, and the fractional-cover subadditivity
inequality with conditioning along a partial order; conditional entropies
are computed inside those checks.

A `JointPmf` keeps its probabilities as a dense float64 table with one axis
per coordinate.  Entropies are computed on stacks of such tables, one row
per pmf: marginals are axis sums over the stack, and every entropy, marginal
or conditional, is a sum of cell terms -p(x,y) log2(p(x,y)/p(y)).  A pmf
keeps a stack of one row, with its marginals and entropies cached; the
property suite stacks a whole list of pmfs and checks them in one pass per
coordinate block, and `shearer_rows` checks the cover inequality on a whole
list the same way (`shearer_check` is its one-row form).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-12
ENTROPY_TOL = 1e-10
_COVER_WEIGHT_TOL = 1e-9
TRIALS = 2  # random coarsenings of Y per pair (X, Y) in check (5)
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
    _stack: "_Stack" = field(init=False, repr=False, compare=False)

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
        if abs(total - 1.0) > _NORM_TOL * max(1, len(self.probs)):
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_stack", _Stack(table[None]))

    @property
    def n_coords(self) -> int:
        return len(self.supports)

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
    def random(cls, supports, seed: int) -> "JointPmf":
        """Flat-Dirichlet probabilities over the full product support."""
        supports = tuple(tuple(s) for s in supports)
        cells = list(itertools.product(*supports))
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet([1.0] * len(cells))
        return cls(supports, {cell: float(w) for cell, w in zip(cells, weights)})


def _sorted_coords(p: JointPmf, coords, what: str) -> tuple:
    coords = tuple(sorted(set(coords)))
    if any(i < 0 or i >= p.n_coords for i in coords):
        raise ValueError(f"{what} {coords} out of range for {p.n_coords} coordinates")
    return coords


def _conditional_terms(joint: np.ndarray, given: np.ndarray) -> np.ndarray:
    """Cell terms -p(x,y) log2(p(x,y)/p(y)) of H(X|Y), 0 where p(x,y) = 0;
    `given` holds p(y) and broadcasts against `joint`."""
    ratio = np.divide(joint, given, out=np.ones(joint.shape), where=joint > 0.0)
    return -joint * np.log2(ratio)


class _Stack:
    """The tables of B pmfs with equal support sizes as one (B, *shape)
    array.  Marginals and conditional entropies are axis sums over all rows
    at once, cached per coordinate block.  A pmf keeps a stack of one row
    for its own entropies."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.shape = table.shape[1:]
        self._marginals: dict = {}
        self._entropies: dict = {}

    def marginal(self, coords: tuple) -> np.ndarray:
        """Marginal tables over sorted `coords`, shape (B, *sizes of coords)."""
        table = self._marginals.get(coords)
        if table is None:
            drop = tuple(1 + i for i in range(len(self.shape)) if i not in coords)
            table = self._marginals[coords] = self.table.sum(axis=drop) if drop else self.table
        return table

    def block(self, rows: tuple, cols: tuple) -> np.ndarray:
        """Joint tables of two disjoint sorted blocks as matrices, shape
        (B, cells of `rows`, cells of `cols`)."""
        union = tuple(sorted(rows + cols))
        table = self.marginal(union).transpose([0] + [1 + union.index(i) for i in rows + cols])
        return table.reshape(len(table), math.prod(self.shape[i] for i in rows), -1)

    def entropy(self, target: tuple, given: tuple = ()) -> np.ndarray:
        """H(X_target | X_given) of each row, cell by cell; with no `given`,
        the marginal entropy (the conditional entropy given a constant)."""
        key = (target, given)
        h = self._entropies.get(key)
        if h is None:
            if given:
                joint = self.block(tuple(i for i in target if i not in given), given)
                terms = _conditional_terms(joint, joint.sum(axis=1, keepdims=True))
            else:
                terms = _conditional_terms(self.marginal(target), 1.0)
            h = self._entropies[key] = terms.reshape(len(terms), -1).sum(axis=1)
        return h


def _stack_of(pmfs) -> _Stack:
    """One stack of the tables of a nonempty iterable of pmfs with equal
    support sizes, keeping only their tables; raises ValueError past
    MAX_TABLE_CELLS."""
    tables = [p.table for p in pmfs]
    shape = tables[0].shape
    if any(t.shape != shape for t in tables):
        sizes = sorted({t.shape for t in tables})
        raise ValueError(f"pmfs checked together need equal support sizes, got {sizes}")
    cells = len(tables) * math.prod(shape)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"{len(tables)} pmfs of shape {shape} stack to {cells} table cells, "
            f"over MAX_TABLE_CELLS = {MAX_TABLE_CELLS}"
        )
    return _Stack(np.stack(tables))


def entropy(p: JointPmf, coords) -> float:
    """Marginal entropy H(X_coords) in bits (0 log 1/0 = 0)."""
    coords = _sorted_coords(p, coords, "coords")
    if not coords:
        raise ValueError("coords must be nonempty")
    return float(p._stack.entropy(coords)[0])


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------

_PROPERTIES = ("image", "cond_reduces", "chain", "subadd", "coarsen", "function", "triangle")


def _indicator(codes: np.ndarray, width: int) -> np.ndarray:
    """Indicator rows of integer codes, shape `codes.shape + (width,)`."""
    out = np.zeros(codes.shape + (width,))
    np.put_along_axis(out, codes[..., None], 1.0, axis=-1)
    return out


def _random_tables(seeds: list, tables: list[tuple]) -> list[np.ndarray]:
    """Random lookup tables for each row of a stack, drawn from the row's
    `default_rng(seed)`: per (codomain, count, cells) entry of `tables`, in
    order, `count` tables of shape (B, count, cells), with one code in
    [0, codomain) per cell, drawn in cell order.

    A row draws all its tables in one `integers` call with an array of
    upper bounds.  Bounded int64 draws take the same values from the stream
    whether they come one per call or many per call, so the tables equal
    those of one scalar call per cell."""
    sizes = [count * cells for _, count, cells in tables]
    highs = np.repeat([codomain for codomain, _, _ in tables], sizes)
    draws = np.stack([np.random.default_rng(s).integers(0, highs) for s in seeds])
    parts = np.split(draws, np.cumsum(sizes)[:-1], axis=1)
    return [part.reshape(len(seeds), count, cells) for part, (_, count, cells) in zip(parts, tables)]


def _row_reports(pmfs: list[JointPmf], seeds: list) -> list[dict]:
    """The report of each pmf, checked together; see `check_entropy_properties`."""
    n = pmfs[0].n_coords
    if n > 4:
        raise ValueError("property sweep is exhaustive over subsets; use <= 4 coordinates")
    if len(seeds) != len(pmfs):
        raise ValueError(f"need one seed per pmf, got {len(seeds)} seeds for {len(pmfs)} pmfs")
    stack = _stack_of(pmfs)
    H, tol = stack.entropy, ENTROPY_TOL
    batch = len(pmfs)
    nonempty = [tuple(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
    pairs = [(xs, ys) for xs, ys in itertools.permutations(nonempty, 2) if not set(xs) & set(ys)]
    checks: list[tuple[str, dict]] = []  # (property, witness), the same for every row
    verdicts: list[np.ndarray] = []  # one bool per row for each check

    def record(prop, ok, witness):
        checks.append((prop, witness))
        verdicts.append(ok)

    for xs in nonempty:
        image = np.count_nonzero(stack.marginal(xs).reshape(batch, -1), axis=1)
        record("image", H(xs) <= np.log2(np.maximum(1, image)) + tol, {"X": xs})

    for xs, ys in pairs:
        record("cond_reduces", H(xs, ys) <= H(xs) + tol, {"X": xs, "Y": ys})
        joint = H(tuple(sorted(xs + ys)))
        record("chain", np.abs(joint - H(xs) - H(ys, xs)) <= tol, {"X": xs, "Y": ys})
        if len(xs) > 1:
            bound = sum(H((i,), ys) for i in xs)
            record("subadd", H(xs, ys) <= bound + tol, {"X": xs, "Y": ys})

    # (5)/(6) with explicit deterministic maps of the conditioning block; per
    # pair, `TRIALS` random tables of Y, then one of X, each drawn cell by cell.
    size = {block: math.prod(stack.shape[i] for i in block) for block in nonempty}
    random = _random_tables(seeds, [spec for xs, ys in pairs
                                    for spec in ((2, TRIALS, size[ys]), (3, 1, size[xs]))])
    for (xs, ys), y_codes, x_codes in zip(pairs, random[::2], random[1::2]):
        joint = stack.block(xs, ys)
        n_x, n_y = joint.shape[1:]
        h = H(xs, ys)

        y_shape = tuple(stack.shape[i] for i in ys)
        y_axes = np.indices(y_shape).reshape(len(ys), n_y)
        maps = [(np.zeros(n_y, dtype=np.intp), 1)]  # constant coarsening
        for sub in itertools.combinations(range(len(ys)), max(1, len(ys) - 1)):
            sub_shape = tuple(y_shape[i] for i in sub)
            maps.append((np.ravel_multi_index(tuple(y_axes[list(sub)]), sub_shape), math.prod(sub_shape)))
        onehot = [np.broadcast_to(_indicator(codes, width), (batch, n_y, width)) for codes, width in maps]
        onehot += [_indicator(y_codes[:, t], 2) for t in range(TRIALS)]  # width 2 even if one code is unused
        widths = [block.shape[2] for block in onehot]
        coarse = joint @ np.concatenate(onehot, axis=2)  # p(x, f(y)) for every map f, side by side
        per_column = _conditional_terms(coarse, coarse.sum(axis=1, keepdims=True)).sum(axis=1)
        for rhs in np.add.reduceat(per_column, np.cumsum([0] + widths[:-1]), axis=1).T:
            record("coarsen", h <= rhs + tol, {"X": xs, "Y": ys})

        # the target (x, f(x)) is coded as x * width(f) + f(x): width 1 for
        # the constant map, 3 for the random one
        constant = np.broadcast_to(np.eye(n_x), (batch, n_x, n_x))
        targets = np.concatenate([constant, _indicator(3 * np.arange(n_x) + x_codes[:, 0], 3 * n_x)], axis=2)
        extended = targets.transpose(0, 2, 1) @ joint  # p((x, f(x)), y) for every map f, stacked
        per_row = _conditional_terms(extended, joint.sum(axis=1, keepdims=True)).sum(axis=2)
        for lhs in np.add.reduceat(per_row, [0, n_x], axis=1).T:
            record("function", np.abs(lhs - h) <= tol, {"X": xs, "Y": ys})

    for xs, ys, zs in itertools.permutations(nonempty, 3):
        if set(xs) & set(ys) or set(xs) & set(zs) or set(ys) & set(zs):
            continue
        record("triangle", H(xs, zs) <= H(xs, ys) + H(ys, zs) + tol, {"X": xs, "Y": ys, "Z": zs})

    checked = dict.fromkeys(_PROPERTIES, 0)
    for prop, _ in checks:
        checked[prop] += 1
    reports = []
    for row in np.stack(verdicts, axis=1):
        failures = [] if row.all() else [
            {"property": prop, "witness": dict(witness)} for (prop, witness), ok in zip(checks, row) if not ok
        ]
        reports.append({"checked": dict(checked), "failures": failures, "ok": not failures})
    return reports


def check_entropy_properties(pmfs: list[JointPmf], seeds: list) -> dict:
    """Verify the standard entropy toolbox on a list of pmfs with equal
    support sizes, checked together, one seed per pmf.

    Properties, over all applicable coordinate subsets: (1) image bound,
    (2) conditioning reduces entropy, (3) chain rule, (4) subadditivity given
    side information, (5) coarser conditioning increases conditional entropy
    (determined maps), (6) functions of the target add nothing, (7) triangle
    inequality.  Deterministic maps for (5)/(6) are coordinate projections,
    constants, and `TRIALS` random tables drawn from the pmf's
    `default_rng(seed)`; each is a lookup array over the cells of the block
    it maps.

    The tables are stacked into one (B, *shape) array, so each marginal and
    conditional entropy is one axis sum over all pmfs, and all coarsenings
    of Y for one (X, Y) pair are one batched indicator-matrix product, and
    all targets (X, f(X)) one more.  Each pmf keeps its own random stream,
    so its verdicts do not depend on the others in the batch.

    The report has "checked", "failures", "ok" and "pmfs", and stops at the
    first pmf that fails: "pmfs" and the "checked" totals count the pmfs up
    to and including it, and its failures carry its index as "pmf".
    Raises ValueError when the stack would exceed MAX_TABLE_CELLS.
    """
    pmfs = list(pmfs)
    if isinstance(seeds, int):
        raise ValueError("a list of pmfs needs a list of seeds, one per pmf")
    if not pmfs:
        return {"checked": dict.fromkeys(_PROPERTIES, 0), "failures": [], "ok": True, "pmfs": 0}
    reports = _row_reports(pmfs, list(seeds))
    counted = next((k + 1 for k, report in enumerate(reports) if not report["ok"]), len(reports))
    last = reports[counted - 1]
    return {
        "checked": {prop: count * counted for prop, count in last["checked"].items()},
        "failures": [dict(failure, pmf=counted - 1) for failure in last["failures"]],
        "ok": last["ok"],
        "pmfs": counted,
    }


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

    def validate_for(self, n_coords: int) -> None:
        for s in self.sets:
            if any(i < 0 or i >= n_coords for i in s):
                raise ValueError(f"subset {sorted(s)} out of range")
        for i, j in self.order:
            if not (0 <= i < n_coords and 0 <= j < n_coords):
                raise ValueError(f"order pair ({i},{j}) out of range")
        for i in range(n_coords):
            tot = sum(w for s, w in zip(self.sets, self.weights) if i in s)
            if abs(tot - 1.0) > _COVER_WEIGHT_TOL:
                raise ValueError(f"coordinate {i} has cover weight {tot}, want 1")


def _shearer_sides(stack: _Stack, cw: CoverWeights) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Shearer's two sides on every row of `stack`: the total entropy, the
    weighted sum of the conditional block entropies, and per block of
    positive weight its (set, weight, given, conditional entropy), each
    entropy one value per row."""
    n = len(stack.shape)
    cw.validate_for(n)
    if not n:
        raise ValueError("coords must be nonempty")
    order = set(cw.order)
    rhs = np.zeros(len(stack.table))
    terms = []
    for s, w in zip(cw.sets, cw.weights):
        if w == 0:
            continue
        pred = tuple(i for i in range(n) if all((i, a) in order for a in s))
        h = stack.entropy(tuple(sorted(s)), pred)
        rhs += w * h
        terms.append((sorted(s), w, pred, h))
    return stack.entropy(tuple(range(n))), rhs, terms


def shearer_rows(pmfs, cw: CoverWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`shearer_check` on every pmf of a nonempty iterable with equal support
    sizes, in one pass over their stacked tables: the left sides, the right
    sides and the verdicts, one entry per pmf."""
    lhs, rhs, _ = _shearer_sides(_stack_of(pmfs), cw)
    return lhs, rhs, lhs <= rhs + ENTROPY_TOL


def shearer_check(p: JointPmf, cw: CoverWeights) -> dict:
    """Total entropy versus the weighted sum of conditional block entropies.

    The right side conditions each block on the coordinates that precede all
    of it in the partial order; the inequality holds for every valid cover.
    The pmf's one-row stack goes through the same terms as `shearer_rows`.
    """
    lhs, rhs, terms = _shearer_sides(p._stack, cw)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return {"lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + ENTROPY_TOL,
            "terms": [{"set": s, "weight": w, "given": pred, "term": float(h[0])} for s, w, pred, h in terms]}
