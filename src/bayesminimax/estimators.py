"""Bayes estimator, Stein's unbiased risk estimate, Monte Carlo risk.

The Bayes rule under quadratic loss is delta(x) = x + grad log m(x); for a
spherical marginal m(x) = l(|x|) this is

    delta(x) = x (1 + rho(u)),    rho(u) = l'(u) / (u l(u)),   u = |x|,

and the unbiased risk estimate of delta = x + gamma(x) with gamma = rho(u) x,

    SURE(x) = k + 2 div gamma(x) + |gamma(x)|^2,
    div gamma = k rho(u) + u rho'(u),

which in the ratios l'/l and l''/l alone reads

    SURE = k + [2 (k - 1) rho + 2 l''/l - (l'/l)^2].

Monte Carlo risk draws X_i ~ N_k(theta, I) from an explicitly seeded
generator (sub-streams per batch derived deterministically from the seed),
reports mean squared loss with its standard error, and couples it with the
SURE average over the same sample; E[SURE] equals the true risk, so the two
must agree within a few combined standard errors on every passing run.
A sample X = theta + Z enters its radius and loss only through |Z|^2 and
Z.theta.  By the rotation invariance of N(0, I_k), g = Z.theta_hat is
N(0, 1) and c = |Z|^2 - g^2 is chi^2_{k-1}, independent of g, so a batch
of m samples draws the two (m,) vectors g and c and never the (m, k)
matrix Z: its working memory is O(m) at any k, and every sample's
(loss, SURE) has the law it would have from a k-dimensional draw.  Each
batch reduces to sufficient statistics: its valid-sample count, the
(sum, M2) of the loss and of SURE, and its failure count.  One long-lived
draw thread fills a batch's (g, c) a few batches ahead, into a small ring
of buffers; the calling thread evaluates every batch of every point of a
curve in order, under its own ``np.errstate``, so a report does not depend
on the thread timing.

Risk depends on theta only through |theta| (spherical equivariance), so risk
curves place theta = (|theta|, 0, ..., 0).
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError, EvaluationError
from .marginals import MarginalProfile

__all__ = [
    "RiskReport", "bayes_estimate", "sure", "mc_risk", "risk_curve",
]

# Samples per batch, fixed so that seeded runs are bit-reproducible.  A batch
# is one marginal call on its radii, so the size trades the per-call cost
# against the memory of the batch's few (m,) vectors.
_BATCH = 16384
_AHEAD = 2              # batches drawn ahead of the one being evaluated
_FAIL_FRACTION = 1e-3   # hard-error threshold on excluded samples
_U_EPS = 1e-8           # below this radius rho and SURE take their limits at u = 0


def _start_draws() -> None:
    """Start the executor of the one draw thread.  Its draws release the GIL
    while they fill, so they overlap the caller's evaluation, whose short
    array operations would gain little from a second Python thread.  A
    forked child starts its own, since the parent's thread does not exist
    there and its executor would wait for it forever."""
    global _DRAWS
    _DRAWS = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mc-draw")


_start_draws()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_draws)

# one batch: (valid samples, (sum, M2) of the loss, (sum, M2) of SURE, failures)
_BatchStats = Tuple[int, Tuple[float, float], Tuple[float, float], int]


@dataclass(frozen=True)
class RiskReport:
    """Seeded Monte Carlo risk estimate with its SURE cross-check."""
    theta_norm: float
    n_samples: int
    seed: int
    mc_risk: float
    mc_stderr: float
    sure_mean: float
    sure_stderr: float
    baseline_k: int
    n_failures: int = 0

    def coupled(self, factor: float = 4.0) -> bool:
        """SURE/loss agreement within ``factor`` combined standard errors."""
        return abs(self.mc_risk - self.sure_mean) <= factor * (self.mc_stderr + self.sure_stderr)

    def to_dict(self) -> dict:
        return asdict(self)


def _shrink_terms(profile: MarginalProfile, u: np.ndarray, k: int):
    """rho(u), validity mask and SURE(u) from the profile's ratios l'/l and
    l''/l in one ``ratios`` call, with rho = l'/(u l) and

        SURE = k + [2 (k - 1) rho + 2 l''/l - (l'/l)^2],

    k added last.  This is k + 2 (k rho + u rho') + rho^2 u^2 with
    u rho' = l''/l - rho - (l'/l)^2.  l itself never enters, so neither its
    underflow at large k nor that of l^2 matters.  A sample whose SURE is not
    finite is invalid; a non-finite rho makes SURE non-finite too.  Below
    u = 1e-8, rho takes its limit at the origin: l'/l = u rho and
    l''/l = rho + u rho' + (u rho)^2 give rho(0) = l''/l(0), and SURE(0) =
    k (1 + 2 rho(0)) since l'/l(0) = 0.
    """
    _, r1, r2 = profile.ratios(u)
    rho = np.divide(r1, u, out=r2.copy(), where=u > _U_EPS)
    sure = np.multiply(rho, k - 1)
    sure += r2
    sure *= 2.0
    sure -= np.square(r1)
    sure += k
    return rho, np.isfinite(sure), sure


def bayes_estimate(profile: MarginalProfile, x: np.ndarray) -> np.ndarray:
    """delta(x) = x (1 + rho(u)), with rho(0) = l''/l(0) below u = 1e-8, the
    same rule that SURE describes (see :func:`_shrink_terms`)."""
    x = np.asarray(x, dtype=float)
    u = float(np.linalg.norm(x))
    rho, ok, _ = _shrink_terms(profile, np.array([u]), x.size)
    if not ok[0]:
        raise EvaluationError(f"marginal evaluation failed at u={u}")
    return x * (1.0 + float(rho[0]))


def sure(profile: MarginalProfile, x: np.ndarray) -> float:
    """Unbiased risk estimate k + 2 div gamma + |gamma|^2 at the point x,
    continuous at the origin (see :func:`_shrink_terms`)."""
    x = np.asarray(x, dtype=float)
    k = x.size
    u = float(np.linalg.norm(x))
    _, ok, s = _shrink_terms(profile, np.array([u]), k)
    if not ok[0]:
        raise EvaluationError(f"marginal evaluation failed at u={u}")
    return float(s[0])


def _sum_m2(x: np.ndarray) -> Tuple[float, float]:
    """(sum, M2) of one batch, M2 the squared deviations from its own mean,
    which overwrite x."""
    total = float(np.sum(x))
    x -= total / max(x.size, 1)
    return total, float(np.sum(np.square(x, out=x)))


def _draw(child: np.random.SeedSequence, k: int, g: np.ndarray, c: np.ndarray) -> None:
    """Fill g with N(0, 1) draws and then c with chi^2_{k-1} ones, as
    2 standard_gamma((k - 1)/2) (0 at k = 1), from the child stream."""
    rng = np.random.default_rng(child)
    rng.standard_normal(out=g)
    rng.standard_gamma((k - 1) / 2, out=c)
    c *= 2.0


def _mc_batch(profile: MarginalProfile, theta: np.ndarray, g: np.ndarray,
              c: np.ndarray) -> _BatchStats:
    """Sample count, (sum, M2) of the loss and of SURE, and failures of the
    batch drawn into g and c by :func:`_draw`, which it overwrites.

    It takes |Z|^2 = g^2 + c, Z.theta = |theta| g and |theta|^2.  With
    X = theta + Z the radius is u = sqrt(|Z|^2 + 2 Z.theta + |theta|^2),
    clamped at 0 where roundoff takes the sum below it, and with
    delta - theta = (1 + rho) Z + rho theta the loss is
    a^2 |Z|^2 + 2 a rho Z.theta + rho^2 |theta|^2, a = 1 + rho.  The
    marginal is evaluated once, on the batch's m radii.  Every product and
    sum is formed in place, in the order these formulas state it.
    """
    k, tt = theta.size, float(theta @ theta)
    m = g.size
    zz, zt = c, g
    u = np.square(g)
    zz += u                      # |Z|^2
    zt *= math.sqrt(tt)          # Z.theta
    np.multiply(zt, 2.0, out=u)
    u += zz
    u += tt
    np.sqrt(np.maximum(u, 0.0, out=u), out=u)
    rho, ok, s = _shrink_terms(profile, u, k)
    a = np.add(rho, 1.0, out=u)
    t = np.multiply(a, 2.0)
    t *= rho
    zt *= t                      # 2 a rho Z.theta
    np.multiply(a, a, out=t)
    zz *= t                      # a^2 |Z|^2
    loss = zz
    loss += zt
    rho *= rho
    rho *= tt
    loss += rho
    count = int(np.count_nonzero(ok))
    if count < m:
        loss, s = loss[ok], s[ok]
    return count, _sum_m2(loss), _sum_m2(s), m - count


def _report(theta: np.ndarray, n: int, seed: int, stats: List[_BatchStats]) -> RiskReport:
    """One point's report from its batch statistics, in batch order."""
    counts, loss_stats, sure_stats, fails = zip(*stats)
    n_fail = sum(fails)
    if n_fail > _FAIL_FRACTION * n:
        raise EvaluationError(
            f"{n_fail} of {n} samples failed marginal evaluation (limit {_FAIL_FRACTION:.1%})",
            failures=n_fail)
    n_used = sum(counts)

    def mean_stderr(stats):
        sums = [total for total, _ in stats]
        mean = math.fsum(sums) / n_used
        m2 = math.fsum(m2 for _, m2 in stats) + math.fsum(
            c * (total / c - mean) ** 2 for c, total in zip(counts, sums) if c)
        var = m2 / max(n_used - 1, 1)
        return mean, math.sqrt(var / n_used)

    mc, mc_se = mean_stderr(loss_stats)
    su, su_se = mean_stderr(sure_stats)
    return RiskReport(
        theta_norm=float(np.linalg.norm(theta)), n_samples=n, seed=int(seed),
        mc_risk=mc, mc_stderr=mc_se, sure_mean=su, sure_stderr=su_se,
        baseline_k=int(theta.size), n_failures=n_fail)


def _run_points(profile: MarginalProfile, points: list, n: int) -> List[RiskReport]:
    """One report per (theta, seed), every batch evaluated on the calling
    thread in point and batch order while the draw thread fills the next
    ``_AHEAD`` batches into a ring of ``_AHEAD + 1`` buffer pairs.

    A point's report is built once its last batch is reduced, so the first
    point past the failure limit raises before any later batch is
    evaluated, and the draws still queued are cancelled.
    """
    if n < 1:
        raise DomainError("n must be positive (n >= 1000 for stderr validity)")
    sizes = [min(_BATCH, n - i * _BATCH) for i in range(-(-n // _BATCH))]
    batches = [(p, child, m) for p, (_, seed) in enumerate(points)
               for child, m in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes)]
    ring = np.empty((_AHEAD + 1, 2, sizes[0]))

    def draw(i):
        p, child, m = batches[i]
        g, c = ring[i % len(ring), :, :m]
        return _DRAWS.submit(_draw, child, points[p][0].size, g, c), g, c

    drawn = deque(draw(i) for i in range(min(_AHEAD, len(batches))))
    reports, stats = [], []
    try:
        for i, (p, _, _) in enumerate(batches):
            if i + _AHEAD < len(batches):
                drawn.append(draw(i + _AHEAD))
            future, g, c = drawn.popleft()
            future.result()
            theta, seed = points[p]
            stats.append(_mc_batch(profile, theta, g, c))
            if len(stats) == len(sizes):
                reports.append(_report(theta, n, seed, stats))
                stats = []
        return reports
    finally:
        for future, _, _ in drawn:
            future.cancel()


def mc_risk(profile: MarginalProfile, theta: np.ndarray, n: int, seed: int) -> RiskReport:
    """Monte Carlo risk of the Bayes rule at theta, with paired SURE average:
    the one-point case of :func:`risk_curve`.

    Each batch's squared deviations are taken from its own mean and the
    batches are combined by Chan's formula with compensated sums, so the
    standard errors do not cancel where the spread is small against the mean.
    Samples where the marginal fails to evaluate are excluded and counted;
    more than 0.1% failures is a hard error.  A theta with a non-finite
    entry raises ``DomainError`` before any batch starts.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise DomainError(f"theta must be finite, got {theta}")
    return _run_points(profile, [(theta, seed)], n)[0]


def _norm_seed(seed: int, norm: float) -> int:
    """Per-norm seed derived from (seed, norm value bits).

    Keyed on the norm's value rather than its list position so that
    reordering the requested norms permutes the reports unchanged.
    """
    bits = int(np.float64(norm).view(np.uint64))
    ss = np.random.SeedSequence([int(seed), bits])
    return int(ss.generate_state(1, np.uint64)[0])


def risk_curve(profile: MarginalProfile, theta_norms: Sequence[float], n: int,
               seed: int) -> List[RiskReport]:
    """One seeded risk report per |theta|, with theta = (|theta|, 0, ..., 0) in
    the profile's dimension k.  A norm that is negative or not finite raises
    ``DomainError`` before any batch starts."""
    norms = [float(t) for t in theta_norms]
    if not all(0.0 <= t < math.inf for t in norms):
        raise DomainError(f"theta norms must be finite and >= 0, got {norms}")
    return _run_points(profile, [(np.pad([t], (0, profile.k - 1)), _norm_seed(seed, t))
                                 for t in norms], n)
