"""Executable graph-container pipeline for regular expanders.

The pipeline follows the classical two-phase container construction: build a
small mutual cover for each linked set (randomized, seeded, with retries),
then deterministically refine the cover into an approximating pair (S, F)
whose defining degree conditions are machine-checked.  Families built this
way are verified exhaustively at desk scale: every enumerated linked set
must be approximated by some family member.

Every vertex set in and out of this module is a mask (bit u set when u is
in the set; see `graphs.vertex_mask`), from the enumerated X through covers
to the pairs (S, F); `family_to_json_lines` writes them out as sorted id
lists.  Inside, a family's sets are the columns of `(n, sets)` boolean
arrays, one row per vertex, and every step (cover, refinement, checks) runs
on all columns at once, scanning only the vertices some column can act on.
`build_mutual_cover` and `refine_to_approx_pair` are one-column calls into
the same routines; no program calls them, and they stay because the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .expanders import ExpanderProfile
from .graphs import DEFAULT_NODE_BUDGET, Graph, iter_rooted_connected_sets, mask_vertices

_TOL = 1e-9
COVER_RETRY_CAP = 64  # sampling attempts per cover
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows past this


# ---------------------------------------------------------------------------
# Linked sets with prescribed neighborhood size
# ---------------------------------------------------------------------------

def enumerate_linked_sets(
    g: Graph,
    v: int,
    boundary_size: int,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[int]:
    """All k-linked sets X containing v with |N(X)| == boundary_size, as
    masks in the enumeration's preorder.

    Exhaustive: grows k-linked supersets of {v}, pruning once |N(X)| exceeds
    the target (N is monotone under inclusion).
    """
    if not (0 <= v < g.n):
        raise ConfigError(f"invalid vertex id {v}")
    link = g.power_masks(k)
    if boundary_size > g.n:
        return []
    prune = lambda x, nbhd: nbhd.bit_count() > boundary_size
    return [
        x
        for x, nbhd in iter_rooted_connected_sets(link, g.neighbor_masks, v, prune, budget=budget)
        if nbhd.bit_count() == boundary_size
    ]


# ---------------------------------------------------------------------------
# Vertex sets as columns
# ---------------------------------------------------------------------------

def _columns(masks: Sequence[int], n: int) -> np.ndarray:
    """The masks as the columns of an `(n, len(masks))` boolean array: row u
    holds vertex u's membership in every set."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return np.ascontiguousarray(bits.T, dtype=bool)


def _masks(cols: np.ndarray) -> list[int]:
    """The columns of an `(n, sets)` boolean array as masks."""
    width = (cols.shape[0] + 7) // 8
    raw = np.packbits(cols.T, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _adjacency(g: Graph) -> np.ndarray:
    """The `(n, d)` table of a regular graph's neighbours, ascending per
    vertex: `Graph.neighbor_table`, which pads no row when every degree is d."""
    g.regular_degree()  # a graph that is not regular raises here
    return g.neighbor_table


def _neighborhoods(adj: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """N(X) of every column X."""
    return cols[adj].any(axis=1)


def _degrees_into(adj: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per vertex u and column X, |N(u) & X|."""
    return cols[adj].sum(axis=1, dtype=np.min_scalar_type(adj.shape[1]))


def _mutual(adj: np.ndarray, x: np.ndarray, q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per column, whether X (with N(X) = q) and Y cover each other: X inside
    Y | N(Y) and Y inside X | N(X)."""
    return ~((x & ~(y | _neighborhoods(adj, y))) | (y & ~(x | q))).any(axis=0)


# ---------------------------------------------------------------------------
# Mutual covers (randomized construction with retries)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    members: int
    size_bound: float
    met_bound: bool
    attempts: int


def cover_size_bound(d: int, lam: float, boundary_size: int | np.ndarray) -> float | np.ndarray:
    """Target cover size (7 * log2(4*lam/sqrt(d)) / d) * |N(X)|, elementwise
    for an array of sizes."""
    ratio = 4.0 * lam / math.sqrt(d)
    if ratio <= 0:
        return 0.0 * boundary_size
    return 7.0 * math.log2(ratio) / d * boundary_size


def cover_sampling(d: int, lam: float) -> tuple[float, float]:
    """ell = (4*lam/sqrt(d))^4, the degree into X above which a boundary
    vertex is set aside, and p = ln(ell)/d clipped to [0, 1], the rate at
    which the rest of the boundary is sampled."""
    ell = (4.0 * lam / math.sqrt(d)) ** 4
    return ell, min(1.0, max(0.0, math.log(ell) / d)) if ell > 1.0 else 0.0


def _complete(adj: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each column's Y grown into a cover of X: every vertex of X outside
    Y | N(Y), in ascending order, adds its smallest neighbor to the cover and
    that neighbor's closure to what is covered."""
    cover = y.copy()
    covered = y | _neighborhoods(adj, y)
    for u in np.flatnonzero((x & ~covered).any(axis=1)):  # covered only grows
        add = x[u] & ~covered[u]
        low = adj[u, 0]
        cover[low] |= add
        covered[low] |= add
        covered[adj[low]] |= add
    return cover


def _cover_columns(
    adj: np.ndarray,
    x: np.ndarray,
    q: np.ndarray,
    profile: ExpanderProfile,
    seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The covers of every column X (with N(X) = q) as `build_mutual_cover`
    builds them, column j drawing on `seeds[j]`: the cover columns, the
    attempts and the met-bound flags per column, and the size bounds.

    Every column makes its first attempt together; retries run in rounds
    over the columns still drawing.  Only the draw of a sampled pool is per
    column.
    """
    d, lam = profile.d, profile.lam
    ell, p = cover_sampling(d, lam)
    pool = q & (_degrees_into(adj, x) < ell)
    bound = cover_size_bound(d, lam, q.sum(axis=0))

    def draw(cols: np.ndarray, attempt: int) -> np.ndarray:
        y = np.zeros((x.shape[0], cols.size), dtype=bool)
        for i, j in enumerate(cols):
            ids = np.flatnonzero(pool[:, j])
            # the attempt-th `spawn(1)` of SeedSequence(seeds[j])
            rng = np.random.default_rng(np.random.SeedSequence(seeds[j], spawn_key=(attempt,)))
            y[ids[rng.random(ids.size) < p], i] = True
        return y

    y = pool if p >= 1.0 else np.zeros_like(pool)
    live = np.flatnonzero(pool.any(axis=0)) if 0.0 < p < 1.0 else np.empty(0, dtype=np.intp)
    if live.size:
        y[:, live] = draw(live, 0)
    best = _complete(adj, x, y)
    best_size = best.sum(axis=0)
    attempts = np.ones(x.shape[1], dtype=np.intp)
    for attempt in range(1, COVER_RETRY_CAP if live.size else 1):
        # a column's best cover meets the bound once one of its covers has
        live = live[best_size[live] > bound[live] + _TOL]
        if not live.size:
            break
        cover = _complete(adj, x[:, live], draw(live, attempt))
        size = cover.sum(axis=0)
        take = size < best_size[live]  # so also every cover that meets the bound
        best[:, live[take]] = cover[:, take]
        best_size[live[take]] = size[take]
        attempts[live] += 1
    if not _mutual(adj, x, q, best).all():
        raise RuntimeError("constructed cover is not mutual; this is a bug")
    return best, attempts, best_size <= bound + _TOL, bound


def build_mutual_cover(
    g: Graph,
    x: int,
    profile: ExpanderProfile,
    seed: int,
) -> CoverResult:
    """Construct a small mutual cover of the mask X inside N(X).

    High-degree boundary vertices are set aside, the rest of the boundary is
    sampled at rate p = ln(ell)/d with ell = (4*lam/sqrt(d))^4, and uncovered
    vertices of X each contribute their smallest neighbor.  Sampling repeats
    on fresh seed streams until the size bound is met or `COVER_RETRY_CAP`
    attempts are made, in which case the smallest cover found is returned
    flagged.  At p = 1 every draw keeps the whole pool and at p = 0 (or with
    an empty pool) none of it, so a random stream is drawn, and a missed
    bound retried, only when 0 < p < 1 and the pool is nonempty.
    """
    if not x:
        raise ValueError("X must be nonempty")
    if not profile.matches(g):
        raise ValueError("profile does not match graph")
    adj = _adjacency(g)
    xc = _columns([x], g.n)
    cover, attempts, met, bound = _cover_columns(adj, xc, _neighborhoods(adj, xc), profile, [seed])
    return CoverResult(
        members=_masks(cover)[0],
        size_bound=float(bound[0]),
        met_bound=bool(met[0]),
        attempts=int(attempts[0]),
    )


# ---------------------------------------------------------------------------
# Approximating pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxPair:
    """(S, F) as masks, with: F inside N(X), S containing X, S-vertices
    having at most psi neighbors outside F, and non-F vertices having at most
    psi neighbors in S."""

    s: int
    f: int
    psi: float


def _validate_columns(
    adj: np.ndarray, x: np.ndarray, q: np.ndarray, s: np.ndarray, f: np.ndarray, psi: float
) -> np.ndarray:
    """Whether the pair (S, F) of every column meets its three defining
    conditions against its X (with N(X) = q), one flag per column."""
    limit = psi + _TOL
    outside_f = ~f
    containment = ~((f & ~q) | (x & ~s)).any(axis=0)
    s_degree = ~(s & (_degrees_into(adj, outside_f) > limit)).any(axis=0)
    f_degree = ~(outside_f & (_degrees_into(adj, s) > limit)).any(axis=0)
    return containment & s_degree & f_degree


@dataclass(frozen=True)
class RefineStats:
    h_size: int
    u_size: int
    h_bound: float
    u_bound: float


def _check_psi(d: int, psi: float) -> None:
    """Refuse a psi outside [1, d/2], NaN included."""
    if not (1.0 - _TOL <= psi <= d / 2.0 + _TOL):
        raise ConfigError(f"psi must lie in [1, d/2] = [1, {d / 2}], got {psi}")


def _refine_columns(
    adj: np.ndarray, x: np.ndarray, q: np.ndarray, cover: np.ndarray, psi: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pair (S, F) that `refine_to_approx_pair` refines from each column's
    cover, as columns, with |H| and |U| per column.  Each greedy phase scans
    only the vertices that some column could pick: a vertex's count only
    falls as the phase goes on."""
    d = adj.shape[1]
    limit = psi + _TOL
    f = cover.copy()
    h_size = np.zeros(x.shape[1], dtype=np.intp)
    for u in np.flatnonzero((x & (_degrees_into(adj, ~f) > limit)).any(axis=1)):
        pick = x[u] & (np.count_nonzero(~f[adj[u]], axis=0) > limit)  # every neighbor of an X-vertex lies in Q
        h_size += pick
        f[adj[u]] |= pick

    s = _degrees_into(adj, f) >= d - psi - _TOL
    removed = np.zeros_like(s)
    u_size = np.zeros_like(h_size)
    for u in np.flatnonzero((~q & (_degrees_into(adj, s) > limit)).any(axis=1)):
        pick = ~q[u] & (np.count_nonzero(s[adj[u]] & ~removed[adj[u]], axis=0) > limit)
        u_size += pick
        removed[adj[u]] |= pick

    s &= ~removed
    f |= _degrees_into(adj, s) > limit
    gsize = q.sum(axis=0)
    over = (h_size > gsize / psi + _TOL) | (u_size > 2.0 * gsize / psi + _TOL)
    if over.any():
        j = int(np.argmax(over))
        raise RuntimeError(
            f"greedy sizes |H|={h_size[j]}, |U|={u_size[j]} exceed bounds "
            f"{gsize[j] / psi}, {2.0 * gsize[j] / psi}; this is a bug"
        )
    return s, f, h_size, u_size


def refine_to_approx_pair(
    g: Graph,
    cover: int,
    x: int,
    psi: float,
) -> tuple[ApproxPair, RefineStats]:
    """Deterministic greedy refinement of a mutual cover into an approximating
    pair; the cover, X and the pair are masks.  Two greedy phases run to
    fixpoints: grow H inside X while some X-vertex keeps more than psi
    boundary neighbors uncovered; then remove neighborhoods of U while some
    outside vertex sees more than psi of S.  Each phase takes the smallest
    such vertex; a vertex passed over stays passed over, as the sets only
    grow, so one ascending scan finds each phase's picks.
    The greedy growth certifies |H| <= g/psi and |U| <= 2g/psi, both checked.
    The pair itself is not validated here: `build_container_family` checks
    it against X once, and reports the verdict as `covers_all`.
    """
    _check_psi(g.regular_degree(), psi)
    adj = _adjacency(g)
    xc, yc = np.split(_columns([x, cover], g.n), 2, axis=1)
    q = _neighborhoods(adj, xc)
    if not _mutual(adj, xc, q, yc)[0]:
        raise ValueError("cover does not mutually cover X")
    if (yc & ~q).any():
        raise ValueError("cover must sit inside N(X)")
    s, f, h_size, u_size = _refine_columns(adj, xc, q, yc, psi)
    gsize = int(q.sum())
    s_mask, f_mask = _masks(np.hstack([s, f]))
    stats = RefineStats(
        h_size=int(h_size[0]),
        u_size=int(u_size[0]),
        h_bound=gsize / psi,
        u_bound=2.0 * gsize / psi,
    )
    return ApproxPair(s=s_mask, f=f_mask, psi=psi), stats


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainerFamily:
    vertex: int
    boundary_size: int
    linkage: int
    psi: float
    pairs: tuple[ApproxPair, ...]
    n_sets: int
    covers_all: bool
    stats: dict


def family_bound_exponent(d: int, lam: float, k: int, psi: float, boundary_size: int) -> float:
    """Exponent (k*log2(4 lam/sqrt d)*log2 d / d + log2 d / psi) * g of the
    family-size bound, up to its universal constant."""
    ratio = 4.0 * lam / math.sqrt(d)
    log_ratio = math.log2(ratio) if ratio > 0 else 0.0
    log_d = math.log2(d) if d > 1 else 0.0
    return (k * log_ratio * log_d / d + log_d / psi) * boundary_size


def build_container_family(
    g: Graph,
    v: int,
    boundary_size: int,
    k: int,
    psi: float,
    profile: ExpanderProfile,
    seed: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ContainerFamily:
    """Cover-then-refine over every enumerated linked set, deduplicated.

    Every linked set is a column of the same boolean arrays, so the covers,
    the refinement and the checks run on all of them at once.  The covering
    property is checked exhaustively: each enumerated X is validated once
    against the pair refined from its cover, and `covers_all` is false if any
    of them fails (a failed check, not an error).  Each cover gets its own
    seed stream, child i of `SeedSequence(seed).spawn`, when covers sample
    (0 < p < 1); at p = 0 or 1 a cover ignores its seed, so none is spawned.
    `stats["cover_attempts"]` sums the covers' attempts.
    """
    _check_psi(profile.d, psi)  # also when no linked set exists
    xs = enumerate_linked_sets(g, v, boundary_size, k, budget=budget)
    if not profile.matches(g):
        raise ValueError("profile does not match graph")
    if 0.0 < cover_sampling(profile.d, profile.lam)[1] < 1.0:
        seeds = [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(len(xs))]
    else:
        seeds = [seed] * len(xs)
    adj = _adjacency(g)
    x = _columns(xs, g.n)
    q = _neighborhoods(adj, x)
    cover, attempts, met, _ = _cover_columns(adj, x, q, profile, seeds)
    s, f, h_size, u_size = _refine_columns(adj, x, q, cover, psi)
    covers_all = bool(_validate_columns(adj, x, q, s, f, psi).all())
    # insertion-ordered set of (S, F): psi is the family's own
    pairs = tuple(ApproxPair(s=sm, f=fm, psi=psi) for sm, fm in dict.fromkeys(zip(_masks(s), _masks(f))))
    exponent = family_bound_exponent(profile.d, profile.lam, k, psi, boundary_size)
    empirical_c = math.log(len(pairs)) / exponent if pairs and exponent > 0 else None
    return ContainerFamily(
        vertex=v,
        boundary_size=boundary_size,
        linkage=k,
        psi=psi,
        pairs=pairs,
        n_sets=len(xs),
        covers_all=covers_all,
        stats={
            "max_h": int(h_size.max(initial=0)),
            "max_u": int(u_size.max(initial=0)),
            "covers_meeting_bound": int(met.sum()),
            "cover_attempts": int(attempts.sum()),
            "bound_exponent": exponent,
            "empirical_constant": empirical_c,
        },
    )


def family_to_json_lines(family: ContainerFamily) -> list[str]:
    return [
        json.dumps({"S": mask_vertices(p.s), "F": mask_vertices(p.f), "psi": p.psi})
        for p in family.pairs
    ]


# ---------------------------------------------------------------------------
# Size bound for S and the count report
# ---------------------------------------------------------------------------

def check_pair_size_bound(pair: ApproxPair, profile: ExpanderProfile) -> dict:
    """|S| <= (lam / (d(1 - |F|/n) - psi))^2 |F| whenever the denominator is
    positive; otherwise the row is skipped with the failing hypothesis named."""
    n, d, lam = profile.n, profile.d, profile.lam
    fsize = pair.f.bit_count()
    denom = d * (1.0 - fsize / n) - pair.psi
    if denom <= 0:
        return {"status": "skipped", "reason": f"denominator {denom:.6g} <= 0",
                "lhs": pair.s.bit_count(), "denominator": denom}
    rhs = (lam / denom) ** 2 * fsize
    ok = pair.s.bit_count() <= rhs + _TOL
    return {
        "status": "pass" if ok else "fail",
        "lhs": pair.s.bit_count(),
        "rhs": rhs,
        "denominator": denom,
    }


def _exp_or_none(x: float) -> float | None:
    """e ** x, or None when that is not a finite float."""
    return math.exp(x) if x <= _LOG_FLOAT_MAX else None


def linked_set_count_report(count: int, boundary_size: int, k: int, profile: ExpanderProfile) -> dict:
    """Compare `count`, the number of k-linked sets at one vertex with
    |N(X)| = boundary_size (a family's `n_sets`), with the two size bounds:
    the explicit tree-growth bound and the container-method bound whose
    universal constant is reported empirically, never asserted.  A bound
    past the largest float is reported as None."""
    n, d, lam = profile.n, profile.d, profile.lam
    gsize = boundary_size
    in_range = d <= gsize <= n / 2
    naive_exp = (2.0 * lam / d) ** 2 * gsize * math.log(math.e * d**k)
    bound_naive = _exp_or_none(naive_exp)
    lemma_exp = (
        gsize
        / d
        * max(
            k * math.log2(4.0 * lam / math.sqrt(d)) * math.log2(d) if lam > 0 and d > 1 else 0.0,
            lam**2 / d,
        )
    )
    bound_lemma = _exp_or_none(lemma_exp)
    empirical_c = math.log(count) / lemma_exp if count >= 1 and lemma_exp > 0 else None
    if not in_range:
        status = "skipped"
    elif bound_naive is not None:
        status = "pass" if count <= bound_naive + _TOL else "fail"
    else:  # past the largest float, compare in log space
        status = "pass" if count < 1 or math.log(count) <= naive_exp else "fail"
    return {
        "g": gsize,
        "count": count,
        "bound_naive": bound_naive,
        "bound_lemma": bound_lemma,
        "empirical_constant": empirical_c,
        "status": status,
        "in_range": in_range,
    }


def count_report_csv(rows: list[dict]) -> str:
    lines = ["g,count,bound_naive,bound_lemma,empirical_constant,status"]
    for r in rows:
        cells = ["" if r[key] is None else f"{r[key]:.6g}"
                 for key in ("bound_naive", "bound_lemma", "empirical_constant")]
        lines.append(",".join([str(r["g"]), str(r["count"]), *cells, r["status"]]))
    return "\n".join(lines) + "\n"
