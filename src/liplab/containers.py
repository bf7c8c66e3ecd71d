"""Executable graph-container pipeline for regular expanders.

The pipeline follows the classical two-phase container construction: build a
small mutual cover for each linked set (randomized, seeded, with retries),
then deterministically refine the cover into an approximating pair (S, F)
whose defining degree conditions are machine-checked.  Families built this
way are verified exhaustively at desk scale: every enumerated linked set
must be approximated by some family member.

Every vertex set here is a mask (bit u set when u is in the set; see
`graphs.vertex_mask`), from the enumerated X through covers to the pairs
(S, F); `family_to_json_lines` writes them out as sorted id lists.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expanders import ExpanderProfile
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    is_mutual_cover,
    iter_rooted_connected_sets,
    mask_vertices,
    neighborhood,
    vertex_mask,
)

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
# Mutual covers (randomized construction with retries)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    members: int
    size_bound: float
    met_bound: bool
    attempts: int


def cover_size_bound(d: int, lam: float, boundary_size: int) -> float:
    """Target cover size (7 * log2(4*lam/sqrt(d)) / d) * |N(X)|."""
    ratio = 4.0 * lam / math.sqrt(d)
    if ratio <= 0:
        return 0.0
    return 7.0 * math.log2(ratio) / d * boundary_size


def cover_sampling(d: int, lam: float) -> tuple[float, float]:
    """ell = (4*lam/sqrt(d))^4, the degree into X above which a boundary
    vertex is set aside, and p = ln(ell)/d clipped to [0, 1], the rate at
    which the rest of the boundary is sampled."""
    ell = (4.0 * lam / math.sqrt(d)) ** 4
    return ell, min(1.0, max(0.0, math.log(ell) / d)) if ell > 1.0 else 0.0


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
    d, lam = profile.d, profile.lam
    nbr = g.neighbor_masks
    q = neighborhood(g, x)
    ell, p = cover_sampling(d, lam)
    pool = [u for u in mask_vertices(q) if (nbr[u] & x).bit_count() < ell]
    bound = cover_size_bound(d, lam, q.bit_count())
    x_vertices = mask_vertices(x)

    # One child stream per attempt, spawned only when needed: the i-th
    # spawn(1) equals spawn(COVER_RETRY_CAP)[i], at a fraction of the cost.
    # Without a stream every attempt builds the same cover, so one is built.
    root = np.random.SeedSequence(seed) if pool and 0.0 < p < 1.0 else None
    best: int | None = None
    attempts = 0
    while attempts < (COVER_RETRY_CAP if root is not None else 1):
        attempts += 1
        if root is None:
            y = vertex_mask(pool) if p >= 1.0 else 0
        else:
            keep = np.random.default_rng(root.spawn(1)[0]).random(len(pool)) < p
            y = vertex_mask(u for u, take in zip(pool, keep) if take)
        covered = y | neighborhood(g, y)
        cover = y
        for u in x_vertices:
            if not covered >> u & 1:
                low = nbr[u] & -nbr[u]  # the smallest neighbor of u
                cover |= low
                covered |= low | nbr[low.bit_length() - 1]
        if best is None or cover.bit_count() < best.bit_count():
            best = cover
        if cover.bit_count() <= bound + _TOL:
            best = cover
            break
    assert best is not None
    if not is_mutual_cover(g, x, best):
        raise RuntimeError("constructed cover is not mutual; this is a bug")
    return CoverResult(
        members=best,
        size_bound=bound,
        met_bound=best.bit_count() <= bound + _TOL,
        attempts=attempts,
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


def validate_approx_pair(g: Graph, pair: ApproxPair, x: int) -> dict:
    """Machine-check the three defining conditions against the witnessed
    mask X."""
    nbr = g.neighbor_masks
    q = neighborhood(g, x)
    limit = pair.psi + _TOL
    cond_containment = not (pair.f & ~q or x & ~pair.s)
    cond_s_degree = all((nbr[u] & ~pair.f).bit_count() <= limit for u in mask_vertices(pair.s))
    cond_f_degree = all(
        (nbr[u] & pair.s).bit_count() <= limit for u in range(g.n) if not pair.f >> u & 1
    )
    return {
        "containment": cond_containment,
        "s_outside_degree": cond_s_degree,
        "outside_s_degree": cond_f_degree,
        "ok": cond_containment and cond_s_degree and cond_f_degree,
    }


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
    d = g.regular_degree()
    _check_psi(d, psi)
    if not is_mutual_cover(g, x, cover):
        raise ValueError("cover does not mutually cover X")
    q = neighborhood(g, x)
    if cover & ~q:
        raise ValueError("cover must sit inside N(X)")
    nbr = g.neighbor_masks
    gsize = q.bit_count()
    limit = psi + _TOL

    f_prime = cover
    h: list[int] = []
    for u in mask_vertices(x):
        if (nbr[u] & ~f_prime).bit_count() > limit:  # every neighbor of an X-vertex lies in Q
            h.append(u)
            f_prime |= nbr[u]

    s_prime = vertex_mask(u for u in range(g.n) if (nbr[u] & f_prime).bit_count() >= d - psi - _TOL)
    removed = 0
    u_list: list[int] = []
    for u in range(g.n):
        if not q >> u & 1 and (nbr[u] & s_prime & ~removed).bit_count() > limit:
            u_list.append(u)
            removed |= nbr[u]

    s = s_prime & ~removed
    f = f_prime | vertex_mask(u for u in range(g.n) if (nbr[u] & s).bit_count() > limit)

    pair = ApproxPair(s=s, f=f, psi=psi)
    stats = RefineStats(
        h_size=len(h),
        u_size=len(u_list),
        h_bound=gsize / psi,
        u_bound=2.0 * gsize / psi,
    )
    if stats.h_size > stats.h_bound + _TOL or stats.u_size > stats.u_bound + _TOL:
        raise RuntimeError(
            f"greedy sizes |H|={stats.h_size}, |U|={stats.u_size} exceed bounds "
            f"{stats.h_bound}, {stats.u_bound}; this is a bug"
        )
    return pair, stats


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

    The covering property is checked exhaustively: each enumerated X is
    validated once against the pair refined from its cover, and `covers_all`
    is false if any of them fails (a failed check, not an error).  Each
    cover gets its own seed stream when covers sample (0 < p < 1); at p = 0
    or 1 a cover ignores its seed, so none is spawned.
    """
    _check_psi(profile.d, psi)  # also when no linked set exists
    xs = enumerate_linked_sets(g, v, boundary_size, k, budget=budget)
    if 0.0 < cover_sampling(profile.d, profile.lam)[1] < 1.0:
        seeds = [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(len(xs))]
    else:
        seeds = itertools.repeat(seed)
    pairs: dict[ApproxPair, None] = {}  # insertion-ordered set: a frozen pair hashes on (s, f, psi)
    max_h = 0
    max_u = 0
    met_cover_bound = 0
    covers_all = True
    for x, cover_seed in zip(xs, seeds):
        cover = build_mutual_cover(g, x, profile, seed=cover_seed)
        pair, stats = refine_to_approx_pair(g, cover.members, x, psi)
        pairs.setdefault(pair)
        covers_all &= validate_approx_pair(g, pair, x)["ok"]
        max_h = max(max_h, stats.h_size)
        max_u = max(max_u, stats.u_size)
        met_cover_bound += 1 if cover.met_bound else 0
    exponent = family_bound_exponent(profile.d, profile.lam, k, psi, boundary_size)
    n_pairs = len(pairs)
    empirical_c = math.log(n_pairs) / exponent if n_pairs >= 1 and exponent > 0 else None
    return ContainerFamily(
        vertex=v,
        boundary_size=boundary_size,
        linkage=k,
        psi=psi,
        pairs=tuple(pairs),
        n_sets=len(xs),
        covers_all=covers_all,
        stats={
            "max_h": max_h,
            "max_u": max_u,
            "covers_meeting_bound": met_cover_bound,
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
