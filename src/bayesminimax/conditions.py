"""Grid-based checkers for the sufficient minimaxity conditions.

Each checker evaluates a differential or series inequality on a grid and
returns a :class:`ConditionReport` with per-point margins (LHS - RHS, so
negative means satisfied).  Margins whose magnitude falls below a numerical
band -- 1e-7/1e-8 times the local scale of the dominant term -- are treated
as inconclusive rather than as pass/fail: boundary families sit exactly at
zero margin and must not produce spurious failures.

A HOLDS verdict is grid evidence, not a proof: the underlying conditions
quantify over all u > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import DomainError
from .transforms import QuadSpec, DEFAULT_QUAD, ScalarFn
from . import _quad, priors

__all__ = [
    "ConditionReport", "assemble_report", "default_grid",
    "check_sqrt_superharmonic", "check_spherical_minimax_bound",
    "check_laplace_mixture_bound", "check_monomial_mixture",
    "check_gen_beta_mixture", "check_strawderman_sqrt",
    "check_proper_marginal_not_superharmonic",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class ConditionReport:
    """Verdict of one condition over a grid.

    margins are condition LHS - RHS (negative = satisfied); bands give the
    per-point inconclusive threshold; numerical_band is their maximum.
    """
    condition_id: str
    grid: List[float]
    margins: List[float]
    verdict: str
    numerical_band: float
    bands: List[float] = field(default_factory=list)
    witness: Optional[float] = None
    extra: Dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        points = [{"x": x, "margin": m, "band": b}
                  for x, m, b in zip(self.grid, self.margins, self.bands)]
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict,
            "numerical_band": self.numerical_band,
            "points": points,
            "witness": self.witness,
            "extra": _jsonable(self.extra),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def assemble_report(condition_id: str, grid: Sequence[float],
                    margins: Sequence[float], band,
                    extra: Optional[dict] = None) -> ConditionReport:
    """Build a report with the standard verdict semantics.

    FAILS  iff some margin exceeds its band (witness = the first such point
           whose excess over its band is within the report's band of the
           largest, so that roundoff along a plateau does not move it);
    HOLDS  iff every margin is below minus its band;
    INCONCLUSIVE otherwise (including NaN margins from failed evaluations).
    """
    grid = [float(g) for g in grid]
    margins = [float(m) for m in margins]
    bands = np.broadcast_to(np.asarray(band, dtype=float), (len(grid),)).tolist()
    marr = np.asarray(margins)
    barr = np.asarray(bands)
    finite = np.isfinite(marr)
    fails = finite & (marr > barr)
    holds = finite & (marr < -barr)
    numerical_band = float(np.max(barr)) if len(bands) else 0.0
    witness = None
    if np.any(fails):
        verdict = FAILS
        excess = np.where(fails, marr - barr, -np.inf)
        idx = int(np.argmax(excess >= np.max(excess) - numerical_band))
        witness = grid[idx]
    elif np.all(holds) and len(grid) > 0:
        verdict = HOLDS
    else:
        verdict = INCONCLUSIVE
    return ConditionReport(
        condition_id=condition_id,
        grid=grid,
        margins=margins,
        verdict=verdict,
        numerical_band=numerical_band,
        bands=bands,
        witness=witness,
        extra=dict(extra or {}),
    )


def default_grid(lo: float = 1e-2, hi: float = 30.0, n: int = 200,
                 spacing: str = "log") -> np.ndarray:
    """Default evaluation grid: 200 log-spaced points on [1e-2, 30]."""
    if not (lo > 0 and hi > lo and n >= 2):
        raise DomainError("grid requires 0 < lo < hi and n >= 2")
    if spacing == "log":
        return np.geomspace(lo, hi, n)
    if spacing == "linear":
        return np.linspace(lo, hi, n)
    raise DomainError(f"unknown spacing {spacing!r}")


# ---------------------------------------------------------------------------
# superharmonicity of sqrt(marginal)
# ---------------------------------------------------------------------------

def check_sqrt_superharmonic(profile, grid) -> ConditionReport:
    """sqrt-of-marginal superharmonicity in radial form, divided by l > 0:

        (l'/l) (k-1)/u + l''/l - (l'/l)^2 / 2  <=  0.

    The margins and their bands are those of the linear form over l, so they
    do not depend on the normalization of l.
    """
    u = np.asarray(grid, dtype=float)
    k = profile.k
    try:
        _, r1, r2 = profile.ratios(u)
        term_a = r1 * (k - 1.0) / u
        term_b = r2
        term_c = 0.5 * r1 * r1
        margins = term_a + term_b - term_c
        scale = np.maximum.reduce([np.abs(term_a), np.abs(term_b), np.abs(term_c)])
        bands = 1e-8 * scale
    except Exception as exc:  # evaluation failure: all points inconclusive
        return assemble_report("sqrt_marginal_superharmonic", grid,
                               [math.nan] * len(u), band=0.0,
                               extra={"evaluation_error": str(exc)})
    return assemble_report("sqrt_marginal_superharmonic", u, margins, bands)


# ---------------------------------------------------------------------------
# differential bound on the I-transform profile F (spherical construction)
# ---------------------------------------------------------------------------

def check_spherical_minimax_bound(F: ScalarFn, k: int, grid) -> ConditionReport:
    """Sufficient condition on the transform profile F of a spherical prior:

        F''/F - (F'/F)^2/2 + (F'/F)[(k-1)/(2u) - u]
            + (k-1)(7-3k)/(8u^2) + u^2/2 - (k+1)/2  <  0.

    For F assembled from the second-order construction the left side equals
    the chosen forcing function phi(u), which is how the checker and the
    construction validate each other.  The margin reads only F'/F and
    F''/F, which stay finite where F overflows (past u ~ 37.7).
    """
    u = np.asarray(grid, dtype=float)
    if F.ratios is None:
        raise DomainError("profile F must carry analytic first and second derivatives")
    _, R, t1 = (np.asarray(x, dtype=float) for x in F.ratios(u))
    t2 = -0.5 * R * R
    t3 = R * ((k - 1.0) / (2.0 * u) - u)
    t4 = (k - 1.0) * (7.0 - 3.0 * k) / (8.0 * u * u)
    t5 = 0.5 * u * u
    t6 = -(k + 1.0) / 2.0
    margins = t1 + t2 + t3 + t4 + t5 + t6
    scale = np.maximum.reduce([np.abs(t) * np.ones_like(u) for t in (t1, t2, t3, t4, t5, t6)])
    return assemble_report("spherical_transform_profile_bound", u, margins, 1e-7 * scale)


# ---------------------------------------------------------------------------
# Laplace-transform bound for variance mixtures
# ---------------------------------------------------------------------------

def check_laplace_mixture_bound(G: ScalarFn, k: int, grid) -> ConditionReport:
    """Mixture sufficient condition on the Laplace transform G:

        G'(s)/G(s) - 2 G''(s)/G'(s)  <=  k/s  for all s > 0.
    """
    s = np.asarray(grid, dtype=float)
    if G.ratios is None:
        raise DomainError("G must carry analytic first and second derivatives")
    _, r1, r2 = (np.asarray(x, dtype=float) for x in G.ratios(s))
    if np.any(r1 >= 0):
        raise DomainError("G' must be negative: not a Laplace transform of a "
                          "nonnegative kernel")
    t2 = -2.0 * r2 / r1
    rhs = k / s
    margins = r1 + t2 - rhs
    scale = np.maximum.reduce([np.abs(r1), np.abs(t2), rhs])
    return assemble_report("laplace_mixture_bound", s, margins, 1e-7 * scale)


# ---------------------------------------------------------------------------
# monomial kernel family (unit-interval Laplace kernel t^n)
# ---------------------------------------------------------------------------

def check_monomial_mixture(n: int, k: int, grid) -> ConditionReport:
    """Minimaxity margin for the mixture family with unit Laplace kernel t^n.

    The bound reduces to truncated-exponential tail ratios:

        2(n+2) S_{n+3}(s)/S_{n+2}(s) - (n+1) S_{n+2}(s)/S_{n+1}(s) <= k,

    with S_m(s) = sum_{j>=m} s^j/j! = e^s P(m, s), P the regularized lower
    incomplete gamma function.  So the ratios are those of the Laplace
    transform G = ``priors.monomial_laplace_G(n)``:
    S_{n+3}/S_{n+2} = s G''/((n+2)(-G')) and S_{n+2}/S_{n+1} = s (-G')/((n+1) G).
    The accompanying analytic window is n <= k-3 for the condition and
    n > k/2 - 1 for properness of the mixing density.
    """
    if n < 0 or k < 3:
        raise DomainError("requires n >= 0 and k >= 3")
    s = np.asarray(grid, dtype=float)
    _, r1, r2 = priors.monomial_laplace_G(n).ratios(s)
    bracket1 = s * r2 / ((n + 2.0) * -r1)
    bracket2 = s * -r1 / (n + 1.0)
    margins = 2.0 * (n + 2.0) * bracket1 - (n + 1.0) * bracket2 - k
    scale = 2.0 * (n + 2.0) * bracket1 + (n + 1.0) * bracket2 + k
    extra = {
        "condition_window": n <= k - 3,
        "proper": n > k / 2.0 - 1.0,
        "minimax_window": (k / 2.0 - 1.0 < n) and (n <= k - 3),
        "large_s_limit": n + 3.0,
    }
    return assemble_report("monomial_mixture_bound", s, margins, 1e-7 * scale,
                           extra=extra)


# ---------------------------------------------------------------------------
# generalized beta kernel family
# ---------------------------------------------------------------------------

def check_gen_beta_mixture(alpha: float, beta: float, gamma: float, sigma: float,
                           k: int, grid, quad: QuadSpec = DEFAULT_QUAD) -> ConditionReport:
    """Two-layer check for the generalized-beta kernel family.

    Kernel: t^{alpha-1} (1-t)^{beta-1} (1 - sigma t)^{-gamma} on (0, 1).

    Analytic layer (sufficient bounds): alpha + 2 <= k for gamma < 0, and
    alpha + 2 + 2 gamma sigma/(1-sigma) <= k for gamma > 0 (both reduce to
    alpha + 2 <= k at gamma = 0).  Numerical layer: margins of
    phi(s) - k/s with

        phi(s) = -(1/s) E*[psi] + (2/s) E**[psi + 1],
        psi(t) = alpha - (beta-1) t/(1-t) + gamma sigma t/(1 - sigma t),

    where E* averages against the tilted kernel e^{-st} f(t) and E** against
    t e^{-st} f(t).
    """
    kernel = priors.gen_beta_kernel(alpha, beta, gamma, sigma)  # checks alpha, beta > 0, sigma
    if not beta >= 1:
        raise DomainError("beta >= 1 required for the checker's sign arguments")
    if k < 3:
        raise DomainError("k >= 3 required")
    s = np.asarray(grid, dtype=float)
    if np.any(s <= 0):
        raise DomainError("grid must be positive")

    def rows(t):
        t = np.asarray(t, dtype=float)
        base = kernel.eval(t)
        psi = alpha + gamma * sigma * t / (1.0 - sigma * t)
        if beta != 1.0:
            psi = psi - (beta - 1.0) * t / (1.0 - t)
        base, psi, t = base[:, None], psi[:, None], t[:, None]
        f = base * np.exp(-t * s)
        return np.concatenate([f, psi * f, t * f, (psi + 1.0) * t * f], axis=1)

    total = _quad.integrate_rows(rows, 0.0, 1.0, quad.rel_tol, quad.abs_tol)
    m = len(s)
    F0, Fpsi, Ft, Fpsi1t = total[:m], total[m:2 * m], total[2 * m:3 * m], total[3 * m:]
    e_star = Fpsi / F0
    e_star2 = Fpsi1t / Ft
    phi = (-e_star + 2.0 * e_star2) / s
    margins = phi - k / s
    scale = (np.abs(e_star) + 2.0 * np.abs(e_star2) + k) / s

    if gamma > 0:
        bound = alpha + 2.0 + 2.0 * gamma * sigma / (1.0 - sigma)
        case = 2
    else:
        bound = alpha + 2.0
        case = 1
    extra = {
        "analytic_case": case,
        "analytic_bound_lhs": bound,
        "analytic_bound_rhs": float(k),
        "analytic_holds": bound <= k,
    }
    return assemble_report("gen_beta_mixture_bound", s, margins, 1e-7 * scale,
                           extra=extra)


# ---------------------------------------------------------------------------
# Strawderman-prior sqrt-marginal inequality
# ---------------------------------------------------------------------------

def check_strawderman_sqrt(a: float, k: int, grid) -> ConditionReport:
    """Confluent-hypergeometric form of the sqrt-marginal condition for the
    Strawderman prior:

        -(k/2+a-3)/(k/2-a+2)^2 * z * 1F1(1; k/2-a+3; z)^2
          + 2 (2-a-z)/(k/2-a+2) * 1F1(1; k/2-a+3; z) - 2  <=  0,   z = u^2/2.

    Requires a >= 3 - k/2 (the boundary a = 3 - k/2 zeroes the first
    coefficient and is allowed).  The inequality is judged divided by
    1F1^2 > 0, which keeps its sign and stays in double range at every z.
    Origin and large-u verdicts are reported separately in ``extra``: the
    displayed inequality is known to hold near 0 and at infinity when
    k/2 + a - 3 >= 0, while the interior is checked only as grid evidence.
    """
    if a < 3.0 - k / 2.0:
        raise DomainError(f"requires a >= 3 - k/2 = {3.0 - k / 2.0}, got {a}")
    u = np.asarray(grid, dtype=float)
    z = 0.5 * u * u
    c2 = k / 2.0 - a + 2.0
    c3 = k / 2.0 - a + 3.0
    coef = (k / 2.0 + a - 3.0) / (c2 * c2)
    from .specfun import log_kummer_1f1

    inv_F1 = np.exp(-np.asarray(log_kummer_1f1(1.0, c3, z + 0.0), dtype=float))
    t1 = -coef * z
    t2 = 2.0 * (2.0 - a - z) / c2 * inv_F1
    t3 = -2.0 * inv_F1 * inv_F1
    margins = t1 + t2 + t3
    scale = np.abs(t1) + np.abs(t2) + np.abs(t3)
    origin_lhs = 2.0 * (2.0 - a) / c2 - 2.0
    extra = {
        "origin_limit_lhs": origin_lhs,
        "origin_holds": origin_lhs < 0,
        "infinity_holds": k / 2.0 + a - 3.0 >= 0,
    }
    return assemble_report("strawderman_sqrt_condition", u, margins, 1e-7 * scale,
                           extra=extra)


# ---------------------------------------------------------------------------
# proper prior => marginal not superharmonic
# ---------------------------------------------------------------------------

def check_proper_marginal_not_superharmonic(profile, prior_proper: bool,
                                            grid) -> ConditionReport:
    """For a proper prior the marginal cannot be superharmonic, so a point
    with positive radial Laplacian

        Delta m / l = l''(u)/l(u) + (k-1) l'(u)/(u l(u)) > 0

    must exist (l > 0, so the sign is that of Delta m).  For proper priors
    the verdict is HOLDS when a witness is found and FAILS (anomaly) when
    not; for improper priors there is nothing to contradict and the verdict
    is INCONCLUSIVE with consistent=True.
    """
    u = np.asarray(grid, dtype=float)
    k = profile.k
    _, r1, r2 = profile.ratios(u)
    lap = r2 + (k - 1.0) * r1 / u
    scale = np.maximum(np.abs(r2), np.abs((k - 1.0) * r1 / u))
    bands = 1e-8 * scale
    positive = np.isfinite(lap) & (lap > bands)
    found = bool(np.any(positive))
    witness = float(u[int(np.argmax(np.where(positive, lap, -np.inf)))]) if found else None
    anomaly = prior_proper and not found
    if prior_proper:
        verdict = HOLDS if found else FAILS
    else:
        verdict = INCONCLUSIVE
    report = ConditionReport(
        condition_id="proper_prior_positive_laplacian_witness",
        grid=[float(x) for x in u],
        margins=[float(x) for x in lap],
        verdict=verdict,
        numerical_band=float(np.max(bands)) if len(u) else 0.0,
        bands=[float(b) for b in bands],
        witness=witness,
        extra={"prior_proper": bool(prior_proper), "witness_found": found,
               "anomaly": bool(anomaly), "consistent": not anomaly},
    )
    return report
