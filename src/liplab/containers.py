"""Executable graph-container pipeline for regular expanders.

The pipeline follows the classical two-phase container construction: build a
small mutual cover for each linked set (randomized, seeded, with retries),
then deterministically refine the cover into an approximating pair (S, F)
whose defining degree conditions are machine-checked.  Families built this
way are verified exhaustively at desk scale: every enumerated linked set
must be approximated by some family member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expanders import ExpanderProfile
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    is_mutual_cover,
    iter_rooted_connected_sets,
    neighborhood,
)

_TOL = 1e-9


# ---------------------------------------------------------------------------
# Linked sets with prescribed neighborhood size
# ---------------------------------------------------------------------------

def enumerate_linked_sets(
    g: Graph,
    v: int,
    boundary_size: int,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[frozenset]:
    """All k-linked sets X containing v with |N(X)| == boundary_size.

    Exhaustive: grows k-linked supersets of {v}, pruning once |N(X)| exceeds
    the target (N is monotone under inclusion).
    """
    if not (0 <= v < g.n):
        raise ValueError(f"invalid vertex id {v}")
    nbrs_k = g.power_sets(k)
    if boundary_size > g.n:
        return []
    out = []
    prune = lambda xs: len(neighborhood(g, xs)) > boundary_size
    for xs in iter_rooted_connected_sets(nbrs_k, v, budget=budget, prune=prune):
        if len(neighborhood(g, xs)) == boundary_size:
            out.append(xs)
    return out


# ---------------------------------------------------------------------------
# Mutual covers (randomized construction with retries)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    members: frozenset
    size_bound: float
    met_bound: bool
    attempts: int


def cover_size_bound(d: int, lam: float, boundary_size: int) -> float:
    """Target cover size (7 * log2(4*lam/sqrt(d)) / d) * |N(X)|."""
    ratio = 4.0 * lam / math.sqrt(d)
    if ratio <= 0:
        return 0.0
    return 7.0 * math.log2(ratio) / d * boundary_size


def build_mutual_cover(
    g: Graph,
    x,
    profile: ExpanderProfile,
    seed: int,
    retry_cap: int = 64,
) -> CoverResult:
    """Construct a small mutual cover of X inside N(X).

    High-degree boundary vertices are set aside, the rest of the boundary is
    sampled at rate ln(ell)/d with ell = (4*lam/sqrt(d))^4, and uncovered
    vertices of X each contribute their smallest neighbor.  Sampling repeats
    on fresh seed streams until the size bound is met or the retry cap is
    hit, in which case the smallest cover found is returned flagged.
    """
    x = frozenset(x)
    if not x:
        raise ValueError("X must be nonempty")
    if retry_cap < 1:
        raise ValueError("retry_cap must be >= 1")
    if not profile.matches(g):
        raise ValueError("profile does not match graph")
    d, lam = profile.d, profile.lam
    q = neighborhood(g, x)
    nbr = g.neighbor_sets
    ell = (4.0 * lam / math.sqrt(d)) ** 4
    q0 = frozenset(u for u in q if len(nbr[u] & x) >= ell)
    pool = sorted(q - q0)
    p = min(1.0, max(0.0, math.log(ell) / d)) if ell > 1.0 else 0.0
    bound = cover_size_bound(d, lam, len(q))

    best: frozenset | None = None
    # One child stream per attempt, spawned only when needed: the i-th
    # spawn(1) equals spawn(retry_cap)[i], at a fraction of the cost.
    root = np.random.SeedSequence(seed)
    attempts = 0
    while attempts < retry_cap:
        attempts += 1
        rng = np.random.default_rng(root.spawn(1)[0])
        if pool and p > 0:
            keep = rng.random(len(pool)) < p
            y = set(u for u, take in zip(pool, keep) if take)
        else:
            y = set()
        covered = set(y)
        for u in y:
            covered.update(nbr[u])
        cover = set(y)
        for u in sorted(x):
            if u not in covered:
                w = min(nbr[u])
                cover.add(w)
                covered.add(w)
                covered.update(nbr[w])
        members = frozenset(cover)
        if best is None or len(members) < len(best):
            best = members
        if len(members) <= bound + _TOL:
            best = members
            break
    assert best is not None
    if not is_mutual_cover(g, x, best):
        raise RuntimeError("constructed cover is not mutual; this is a bug")
    return CoverResult(
        members=best,
        size_bound=bound,
        met_bound=len(best) <= bound + _TOL,
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# Approximating pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxPair:
    """(S, F) with: F inside N(X), S containing X, S-vertices having at most
    psi neighbors outside F, and non-F vertices having at most psi neighbors
    in S."""

    s: frozenset
    f: frozenset
    psi: float

    def key(self) -> tuple:
        return (tuple(sorted(self.s)), tuple(sorted(self.f)), self.psi)


def validate_approx_pair(g: Graph, pair: ApproxPair, x) -> dict:
    """Machine-check the three defining conditions against the witnessed X."""
    x = frozenset(x)
    nbr = g.neighbor_sets
    q = neighborhood(g, x)
    cond_containment = pair.f <= q and x <= pair.s
    cond_s_degree = all(len(nbr[u] - pair.f) <= pair.psi + _TOL for u in pair.s)
    cond_f_degree = all(
        len(nbr[u] & pair.s) <= pair.psi + _TOL for u in range(g.n) if u not in pair.f
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


def refine_to_approx_pair(
    g: Graph,
    cover,
    x,
    psi: float,
) -> tuple[ApproxPair, RefineStats]:
    """Deterministic greedy refinement of a mutual cover into an approximating
    pair.  Two greedy phases run to fixpoints: grow H inside X while some
    X-vertex keeps more than psi boundary neighbors uncovered; then remove
    neighborhoods of U while some outside vertex sees more than psi of S.
    The greedy growth certifies |H| <= g/psi and |U| <= 2g/psi, both checked.
    The pair itself is not validated here: `build_container_family` checks
    it against X once, and reports the verdict as `covers_all`.
    """
    x = frozenset(x)
    cover = frozenset(cover)
    d = g.regular_degree()
    if not (1.0 - _TOL <= psi <= d / 2.0 + _TOL):
        raise ValueError(f"psi must lie in [1, d/2] = [1, {d / 2}], got {psi}")
    if not is_mutual_cover(g, x, cover):
        raise ValueError("cover does not mutually cover X")
    q = neighborhood(g, x)
    if not cover <= q:
        raise ValueError("cover must sit inside N(X)")
    nbr = g.neighbor_sets
    gsize = len(q)

    f_prime = set(cover)
    h: list[int] = []
    while True:
        cand = next((u for u in sorted(x) if len((nbr[u] & q) - f_prime) > psi + _TOL), None)
        if cand is None:
            break
        h.append(cand)
        f_prime |= nbr[cand]  # every neighbor of an X-vertex lies in Q

    s_prime = frozenset(u for u in range(g.n) if len(nbr[u] & f_prime) >= d - psi - _TOL)
    removed: set[int] = set()
    u_list: list[int] = []
    while True:
        cand = next(
            (
                u
                for u in range(g.n)
                if u not in q and len((nbr[u] & s_prime) - removed) > psi + _TOL
            ),
            None,
        )
        if cand is None:
            break
        u_list.append(cand)
        removed |= nbr[cand]

    s = frozenset(s_prime - removed)
    f = frozenset(f_prime | {u for u in range(g.n) if len(nbr[u] & s) > psi + _TOL})

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
    is false if any of them fails (a failed check, not an error).
    """
    xs = enumerate_linked_sets(g, v, boundary_size, k, budget=budget)
    streams = np.random.SeedSequence(seed).spawn(max(1, len(xs)))
    pairs: dict[tuple, ApproxPair] = {}
    max_h = 0
    max_u = 0
    met_cover_bound = 0
    covers_all = True
    for x, stream in zip(xs, streams):
        cover = build_mutual_cover(g, x, profile, seed=stream.generate_state(1)[0].item())
        pair, stats = refine_to_approx_pair(g, cover.members, x, psi)
        pairs.setdefault(pair.key(), pair)
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
        pairs=tuple(pairs.values()),
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
    import json

    return [
        json.dumps({"S": sorted(p.s), "F": sorted(p.f), "psi": p.psi})
        for p in family.pairs
    ]


# ---------------------------------------------------------------------------
# Size bound for S and the count report
# ---------------------------------------------------------------------------

def check_pair_size_bound(pair: ApproxPair, profile: ExpanderProfile) -> dict:
    """|S| <= (lam / (d(1 - |F|/n) - psi))^2 |F| whenever the denominator is
    positive; otherwise the row is skipped with the failing hypothesis named."""
    n, d, lam = profile.n, profile.d, profile.lam
    fsize = len(pair.f)
    denom = d * (1.0 - fsize / n) - pair.psi
    if denom <= 0:
        return {"status": "skipped", "reason": f"denominator {denom:.6g} <= 0",
                "lhs": len(pair.s), "denominator": denom}
    rhs = (lam / denom) ** 2 * fsize
    ok = len(pair.s) <= rhs + _TOL
    return {
        "status": "pass" if ok else "fail",
        "lhs": len(pair.s),
        "rhs": rhs,
        "denominator": denom,
    }


def linked_set_count_report(count: int, boundary_size: int, k: int, profile: ExpanderProfile) -> dict:
    """Compare `count`, the number of k-linked sets at one vertex with
    |N(X)| = boundary_size (a family's `n_sets`), with the two size bounds:
    the explicit tree-growth bound and the container-method bound whose
    universal constant is reported empirically, never asserted."""
    n, d, lam = profile.n, profile.d, profile.lam
    gsize = boundary_size
    in_range = d <= gsize <= n / 2
    naive_exp = (2.0 * lam / d) ** 2 * gsize * math.log(math.e * d**k)
    bound_naive = math.exp(naive_exp)
    lemma_exp = (
        gsize
        / d
        * max(
            k * math.log2(4.0 * lam / math.sqrt(d)) * math.log2(d) if lam > 0 and d > 1 else 0.0,
            lam**2 / d,
        )
    )
    bound_lemma = math.exp(lemma_exp)
    empirical_c = math.log(count) / lemma_exp if count >= 1 and lemma_exp > 0 else None
    if not in_range:
        status = "skipped"
    elif count <= bound_naive + _TOL:
        status = "pass"
    else:
        status = "fail"
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
        emp = "" if r["empirical_constant"] is None else f"{r['empirical_constant']:.6g}"
        lines.append(
            f"{r['g']},{r['count']},{r['bound_naive']:.6g},{r['bound_lemma']:.6g},{emp},{r['status']}"
        )
    return "\n".join(lines) + "\n"
