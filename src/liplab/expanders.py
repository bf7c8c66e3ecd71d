"""Expansion certificates for regular graphs and checks of their consequences.

Two certificates are supported: the spectral one (largest non-trivial
adjacency eigenvalue in absolute value, valid by the expander mixing lemma)
and the exhaustive one (the minimal feasible constant over every pair of
nonempty vertex subsets).  The exhaustive certificate and the subset checks
of its consequences visit each nonempty subset once, as a row of a chunked
sweep, and never pairs of subsets: O(2^n n log n) work, up to n = 22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, linked_layers

EXHAUSTIVE_CAP = 22
_CHUNK = 1 << 14  # subset rows per chunk: about 20 MB traced at n = 18
_RESIDUAL_TOL = 1e-7
_SAMPLES = 2000  # random subset rows A when n > EXHAUSTIVE_CAP
_TOL = 1e-9


@dataclass(frozen=True)
class ExpanderProfile:
    """Expansion certificate (n, d, lam) for a regular graph."""

    n: int
    d: int
    lam: float
    method: str  # spectral | exhaustive | asserted

    def __post_init__(self):
        if self.method not in ("spectral", "exhaustive", "asserted"):
            raise ValueError(f"unknown certificate method {self.method!r}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")

    def matches(self, g: Graph) -> bool:
        return self.n == g.n and g.is_regular() and g.regular_degree() == self.d


def asserted_profile(g: Graph, lam: float) -> ExpanderProfile:
    return ExpanderProfile(n=g.n, d=g.regular_degree(), lam=float(lam), method="asserted")


def adjacency_spectrum(g: Graph) -> np.ndarray:
    """All adjacency eigenvalues (ascending), residual-checked; solved once
    per graph and kept on it, read-only, as its adjacency matrix is."""
    if g._spectrum is None:
        a = g.adjacency_matrix()
        vals, vecs = np.linalg.eigh(a)
        scale = max(1.0, float(max(g.degrees)))
        resid = np.abs(a @ vecs - vecs * vals).max()
        if resid > _RESIDUAL_TOL * scale:
            raise RuntimeError(f"eigensolver residual {resid:.3e} exceeds {_RESIDUAL_TOL * scale:.3e}")
        vals.flags.writeable = False
        g._spectrum = vals
    return g._spectrum


def spectral_lambda(g: Graph) -> ExpanderProfile:
    """Certificate lam = max |eigenvalue| over the non-Perron adjacency spectrum."""
    d = g.regular_degree()
    vals = adjacency_spectrum(g)
    if g.n == 1:
        lam = 0.0
    else:
        # connected regular graph: drop the single top eigenvalue d
        lam = float(max(abs(vals[0]), abs(vals[-2])))
    return ExpanderProfile(n=g.n, d=d, lam=lam, method="spectral")


def _subset_chunks(n: int):
    """Indicator rows (float64) of the 2^n - 1 nonempty subsets of [0, n), in
    mask order, ``_CHUNK`` rows at a time."""
    shifts = np.arange(n, dtype=np.uint32)
    for lo in range(1, 1 << n, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, 1 << n), dtype=np.uint32)
        yield ((masks[:, None] >> shifts) & 1).astype(np.float64)


def exhaustive_lambda(g: Graph) -> ExpanderProfile:
    """Minimal feasible expansion constant over all pairs of nonempty subsets.

    e(S,T) counts edges with one endpoint in each set, twice when both ends
    lie in the intersection.  With x = A 1_S, e(S,T) is the sum of x over T,
    so for |T| = t the deviation |e - (d/n)|S|t| is largest at the t largest
    or the t smallest entries of x: one sorted row per S covers every T.
    Subset sizes and edge counts are exact integers (held in float64, exact
    below 2^53) and rounding is monotone, so the maximum equals that of the
    sweep over all subset pairs, bit for bit.
    """
    d = g.regular_degree()
    if g.n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive sweep capped at n={EXHAUSTIVE_CAP}, got n={g.n}")
    a = g.adjacency_matrix()
    t = np.arange(1, g.n + 1, dtype=np.float64)
    ratio_d_n = d / g.n
    best = 0.0
    for rows in _subset_chunks(g.n):
        x = np.sort(rows @ a, axis=1)
        st = rows.sum(axis=1)[:, None] * t
        mean = ratio_d_n * st
        # over e in [sum of t smallest, sum of t largest], |e - mean| peaks at an end
        dev = np.maximum(np.cumsum(x[:, ::-1], axis=1) - mean, mean - np.cumsum(x, axis=1))
        best = max(best, float((dev / np.sqrt(st)).max()))
    return ExpanderProfile(n=g.n, d=d, lam=best, method="exhaustive")


# ---------------------------------------------------------------------------
# Consequence checks: joining edges, vertex expansion, volume growth, diameter
# ---------------------------------------------------------------------------

def _sampled_subsets(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    rows = rng.integers(0, 2, size=(count, n)).astype(np.float64)
    keep = rows.sum(axis=1) > 0
    rows = rows[keep]
    if len(rows) == 0:
        rows = np.ones((1, n))
    return rows


def _check(name: str, witness, ok_status: str = "pass", **details) -> dict:
    """One check's entry in the report: status "fail" carrying `witness` when
    there is one, else `ok_status`."""
    return {"name": name, "status": "fail" if witness else ok_status, "witness": witness, "details": details}


def verify_expander_props(g: Graph, profile: ExpanderProfile, seed: int = 0) -> dict:
    """Check the structural consequences of an expansion certificate.

    Returns a report with one entry per check: joining-edge (large subset
    pairs meet), vertex-expansion, volume-growth, diameter-bound.  Status is
    pass/fail for exhaustive sweeps, ``sampled`` for passing sampled sweeps
    on graphs above ``EXHAUSTIVE_CAP`` vertices, ``skipped`` when a
    hypothesis gate fails (every check when d = 0).  A failure under an
    exhaustively certified lam indicates an implementation bug.
    """
    if not profile.matches(g):
        raise ValueError("profile does not match graph")
    n, d, lam = g.n, profile.d, profile.lam
    exhaustive = n <= EXHAUSTIVE_CAP
    report = {"graph": g.name, "n": n, "d": d, "lam": lam, "method": profile.method,
              "mode": "exhaustive" if exhaustive else "sampled"}

    if d == 0:  # K1: every bound below divides by d
        checks = [_check(name, None, "skipped", reason="d = 0")
                  for name in ("joining-edge", "vertex-expansion", "volume-growth", "diameter-bound")]
        return {**report, "checks": checks, "all_ok": True}

    if exhaustive:
        chunks = _subset_chunks(n)
    else:
        rng = np.random.default_rng(seed)
        chunks = [_sampled_subsets(n, _SAMPLES, rng)]
    ok_status = "pass" if exhaustive else "sampled"

    # (1) joining edge: |A||B| > (lam*n/d)^2 forces e(A,B) >= 1.  The sets B
    # with e(A,B) = 0 are the subsets of F = V \ N(A), so each row A needs
    # only |A||F|; the witness B is the fewest lowest vertices of F that fail.
    # (2) vertex expansion: |N(A)|/|A| >= (d/lam * (1 - |N(A)|/n))^2
    threshold = (lam * n / d) ** 2
    a = g.adjacency_matrix()
    join_witness = expansion_witness = None
    worst = 0.0
    for rows in chunks:
        sizes = rows.sum(axis=1)
        reached = (rows @ a) > 0.5  # row i = N(A_i)
        nb_sizes = reached.sum(axis=1).astype(np.float64)
        free = n - nb_sizes
        products = sizes * free
        worst = max(worst, float(products.max()))
        bad = products > threshold + _TOL
        if join_witness is None and bad.any():
            i = int(np.argmax(bad))
            k = next(k for k in range(1, int(free[i]) + 1) if sizes[i] * k > threshold + _TOL)
            join_witness = {"S": np.flatnonzero(rows[i]).tolist(), "T": np.flatnonzero(~reached[i])[:k].tolist(),
                            "product": float(sizes[i] * k), "threshold": threshold}
        if lam != 0 and expansion_witness is None:
            lhs = nb_sizes / sizes
            rhs = ((d / lam) * (1.0 - nb_sizes / n)) ** 2
            bad = lhs < rhs - _TOL
            if bad.any():
                i = int(np.argmax(bad))
                expansion_witness = {"A": np.flatnonzero(rows[i]).tolist(), "ratio": float(lhs[i]), "bound": float(rhs[i])}
    checks = [_check("joining-edge", join_witness, ok_status,
                     threshold=threshold, max_product_without_edge=worst or None),
              _check("vertex-expansion", expansion_witness, ok_status) if lam else
              _check("vertex-expansion", None, "skipped", reason="lam = 0")]

    # (3) volume growth: |B(v,t)| >= min(n/2, (d/2lam)^(2t)); the breadth-first
    # layers from each vertex give every ball size and the diameter
    full = (1 << n) - 1
    shells = [[layer.bit_count() for layer in linked_layers(g, full, 1, 1 << v)] for v in range(n)]
    diam = max(map(len, shells)) - 1
    if lam == 0:
        checks.append(_check("volume-growth", None, "skipped", reason="lam = 0"))
    else:
        growth = d / (2.0 * lam)
        bounds = []
        for t in range(diam + 1):
            try:
                bounds.append(min(n / 2.0, growth ** (2 * t)))
            except OverflowError:  # (d/2lam)^(2t) is past every ball size
                bounds.append(n / 2.0)
        balls = np.array([np.cumsum(np.pad(shell, (0, diam + 1 - len(shell)))) for shell in shells])
        bad = balls < np.array(bounds) - _TOL
        witness = None
        if bad.any():
            v, t = divmod(int(np.argmax(bad)), diam + 1)
            witness = {"v": v, "t": t, "ball": int(balls[v, t]), "bound": bounds[t]}
        checks.append(_check("volume-growth", witness))

    # (4) diameter bound, hypothesis lam < d/2
    if lam >= d / 2.0 or lam == 0:
        reason = f"hypothesis lam < d/2 fails (lam={lam}, d={d})" if lam else "lam = 0"
        checks.append(_check("diameter-bound", None, "skipped", reason=reason))
    else:
        bound = math.log(n) / math.log(d / (2.0 * lam))
        ok = diam <= bound + _TOL
        checks.append(_check("diameter-bound", None if ok else {"diameter": diam, "bound": bound},
                             diameter=diam, bound=bound))

    return {**report, "checks": checks, "all_ok": all(c["status"] != "fail" for c in checks)}
