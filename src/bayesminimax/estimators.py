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
(sum, M2) of the loss and of SURE, and its failure count.  Every batch of
every point of a risk curve runs on one pool of up to the available CPUs,
and each point's statistics are reduced in batch order, so a report does
not depend on the CPU count.

Risk depends on theta only through |theta| (spherical equivariance), so risk
curves place theta = (|theta|, 0, ..., 0).
"""

from __future__ import annotations

import contextvars
import math
import os
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
# is one marginal call on its radii, and its temporaries are about 14 (m,)
# vectors at any k, so the size trades the per-call cost against memory: on
# the closed-form benchmark (2-vCPU guest, alternating runs) 65,536-sample
# batches read 74.7-74.8 MB peak RSS and 0.181-0.184 s per pass, and 16,384
# read 62.8 MB and 0.172-0.179 s.
_BATCH = 16384
_FAIL_FRACTION = 1e-3   # hard-error threshold on excluded samples
_U_EPS = 1e-8           # below this radius rho and SURE take their limits at u = 0


def _worker_count() -> int:
    """CPUs this process may run on; ``os.sched_getaffinity`` is Linux-only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_WORKERS = _worker_count()   # threads that run a curve's batches, across its points

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
    sure = 2.0 * ((k - 1) * rho + r2) - r1 * r1 + k
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
    """(sum, M2) of one batch, M2 the squared deviations from its own mean."""
    total = float(np.sum(x))
    return total, float(np.sum((x - total / max(x.size, 1)) ** 2))


def _mc_batch(profile: MarginalProfile, theta: np.ndarray, m: int,
              child: np.random.SeedSequence) -> _BatchStats:
    """Sample count, (sum, M2) of the loss and of SURE, and failures of one
    batch of m draws from the child stream.

    The batch draws g ~ N(0, 1) and then c = 2 standard_gamma((k - 1)/2),
    which is chi^2_{k-1} and 0 at k = 1, m values each, and takes
    |Z|^2 = g^2 + c, Z.theta = |theta| g and |theta|^2.  With X = theta + Z
    the radius is u = sqrt(|Z|^2 + 2 Z.theta + |theta|^2), clamped at 0
    where roundoff takes the sum below it, and with delta - theta =
    (1 + rho) Z + rho theta the loss is a^2 |Z|^2 + 2 a rho Z.theta +
    rho^2 |theta|^2, a = 1 + rho.  The marginal is evaluated once, on the
    batch's m radii.
    """
    k, tt = theta.size, float(theta @ theta)
    rng = np.random.default_rng(child)
    g = rng.standard_normal(m)
    zz = g * g + 2.0 * rng.standard_gamma((k - 1) / 2, m)
    zt = math.sqrt(tt) * g
    u = np.sqrt(np.maximum(2.0 * zt + zz + tt, 0.0))
    rho, ok, s = _shrink_terms(profile, u, k)
    a = 1.0 + rho
    loss = a * a * zz + 2.0 * a * rho * zt + rho * rho * tt
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
    """One report per (theta, seed), every batch of every point on one pool.

    Reports are built in the points' order, so the first point past the
    failure limit raises, as one point at a time would, and the batches not
    yet started are cancelled.  Each task runs in a copy of the caller's
    context, so ``np.errstate`` holds in the worker threads too.
    """
    if n < 1:
        raise DomainError("n must be positive (n >= 1000 for stderr validity)")
    pool = ThreadPoolExecutor(max_workers=_WORKERS)   # starts threads as tasks arrive
    try:
        futures = [[pool.submit(contextvars.copy_context().run, _mc_batch, profile, theta,
                                min(_BATCH, n - i * _BATCH), child)
                    for i, child in enumerate(np.random.SeedSequence(seed).spawn(-(-n // _BATCH)))]
                   for theta, seed in points]
        return [_report(theta, n, seed, [f.result() for f in batches])
                for (theta, seed), batches in zip(points, futures)]
    finally:
        pool.shutdown(cancel_futures=True)


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
