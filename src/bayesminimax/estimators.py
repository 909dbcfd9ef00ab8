"""Bayes estimator, Stein's unbiased risk estimate, Monte Carlo risk.

The Bayes rule under quadratic loss is delta(x) = x + grad log m(x); for a
spherical marginal m(x) = l(|x|) this is

    delta(x) = x (1 + rho(u)),    rho(u) = l'(u) / (u l(u)),   u = |x|,

and the unbiased risk estimate of delta = x + gamma(x) with gamma = rho(u) x,

    SURE(x) = k + 2 div gamma(x) + |gamma(x)|^2,
    div gamma = k rho(u) + u rho'(u).

Monte Carlo risk draws X_i ~ N_k(theta, I) from an explicitly seeded
generator (sub-streams per batch derived deterministically from the seed),
reports mean squared loss with its standard error, and couples it with the
SURE average over the same sample; E[SURE] equals the true risk, so the two
must agree within a few combined standard errors on every passing run.

Risk depends on theta only through |theta| (spherical equivariance), so risk
curves place theta = (|theta|, 0, ..., 0).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, EvaluationError
from .marginals import MarginalProfile

__all__ = [
    "RiskReport", "bayes_estimate", "sure", "mc_risk", "risk_curve",
    "risk_reports_to_csv", "risk_reports_to_json",
]

_BATCH = 65536          # fixed so that seeded runs are bit-reproducible
_FAIL_FRACTION = 1e-3   # hard-error threshold on excluded samples
_U_EPS = 1e-8           # below this radius the shrinkage vector vanishes


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
    l''/l, with rho' = (l''/l - (l'/l)/u - (l'/l)^2)/u.

    l itself never enters, so neither its underflow at large k nor that of
    l^2 matters.  A sample whose rho or rho' is not finite is invalid.
    """
    _, r1, r2 = profile.ratios(u)
    safe_u = np.where(u > _U_EPS, u, 1.0)
    rho = np.where(u > _U_EPS, r1 / safe_u, 0.0)
    rho_p = np.where(u > _U_EPS, (r2 - r1 / safe_u - r1 * r1) / safe_u, 0.0)
    ok = np.isfinite(rho) & np.isfinite(rho_p)
    sure = k + 2.0 * (k * rho + u * rho_p) + rho ** 2 * u ** 2
    return rho, ok, sure


def bayes_estimate(profile: MarginalProfile, x: np.ndarray) -> np.ndarray:
    """delta(x) = x + (l'(u)/l(u)) x/u; returns x itself within u < 1e-8."""
    x = np.asarray(x, dtype=float)
    u = float(np.linalg.norm(x))
    if u < _U_EPS:
        return x.copy()
    rho, ok, _ = _shrink_terms(profile, np.array([u]), x.size)
    if not ok[0]:
        raise EvaluationError(f"marginal evaluation failed at u={u}")
    return x * (1.0 + float(rho[0]))


def sure(profile: MarginalProfile, x: np.ndarray) -> float:
    """Unbiased risk estimate k + 2 div gamma + |gamma|^2 at the point x."""
    x = np.asarray(x, dtype=float)
    k = x.size
    u = float(np.linalg.norm(x))
    if u < _U_EPS:
        return float(k)
    _, ok, s = _shrink_terms(profile, np.array([u]), k)
    if not ok[0]:
        raise EvaluationError(f"marginal evaluation failed at u={u}")
    return float(s[0])


def _sum_m2(x: np.ndarray) -> Tuple[float, float]:
    """(sum, M2) of one batch, M2 the squared deviations from its own mean."""
    total = float(np.sum(x))
    return total, float(np.sum((x - total / max(x.size, 1)) ** 2))


def _mc_sums(profile: MarginalProfile, theta: np.ndarray, n: int, seed: int
             ) -> Tuple[List[int], List[Tuple[float, float]], List[Tuple[float, float]], int]:
    """Per-batch sample counts and (sum, M2) of the loss and of SURE."""
    k = theta.size
    n_batches = (n + _BATCH - 1) // _BATCH
    children = np.random.SeedSequence(seed).spawn(n_batches)
    counts, loss_stats, sure_stats = [], [], []
    n_fail = 0
    for i, child in enumerate(children):
        m = min(_BATCH, n - i * _BATCH)
        rng = np.random.default_rng(child)
        X = theta[None, :] + rng.standard_normal((m, k))
        u = np.linalg.norm(X, axis=1)
        rho, ok, s = _shrink_terms(profile, u, k)
        n_fail += int(np.sum(~ok))
        delta = X * (1.0 + rho)[:, None]
        loss = np.sum((delta - theta[None, :]) ** 2, axis=1)
        counts.append(int(np.sum(ok)))
        loss_stats.append(_sum_m2(loss[ok]))
        sure_stats.append(_sum_m2(s[ok]))
    return counts, loss_stats, sure_stats, n_fail


def mc_risk(profile: MarginalProfile, theta: np.ndarray, n: int, seed: int) -> RiskReport:
    """Monte Carlo risk of the Bayes rule at theta, with paired SURE average.

    Samples are drawn batchwise; each batch owns a deterministic sub-stream
    spawned from the seed, and batch sums are reduced with compensated
    summation, so reports are bit-identical across runs with the same seed.
    Each batch's squared deviations are taken from its own mean and the
    batches are combined by Chan's formula, so the standard errors do not
    cancel where the spread is small against the mean.  Samples where the
    marginal fails to evaluate are excluded and counted; more than 0.1%
    failures is a hard error.
    """
    theta = np.asarray(theta, dtype=float)
    if n < 1:
        raise DomainError("n must be positive (n >= 1000 for stderr validity)")
    counts, loss_stats, sure_stats, n_fail = _mc_sums(profile, theta, n, seed)
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


def _norm_seed(seed: int, norm: float) -> int:
    """Per-norm seed derived from (seed, norm value bits).

    Keyed on the norm's value rather than its list position so that
    reordering the requested norms permutes the reports unchanged.
    """
    bits = int(np.float64(norm).view(np.uint64))
    ss = np.random.SeedSequence([int(seed), bits])
    return int(ss.generate_state(1, np.uint64)[0])


def risk_curve(profile: MarginalProfile, theta_norms: Sequence[float], n: int,
               seed: int, k: Optional[int] = None) -> List[RiskReport]:
    """One seeded risk report per |theta|, with theta = (|theta|, 0, ..., 0)."""
    k = k if k is not None else profile.k
    reports = []
    for norm in theta_norms:
        theta = np.zeros(k)
        theta[0] = float(norm)
        reports.append(mc_risk(profile, theta, n, _norm_seed(seed, float(norm))))
    return reports


def risk_reports_to_csv(reports: Sequence[RiskReport]) -> str:
    """CSV columns: theta_norm, n, seed, mc_risk, mc_stderr, sure_mean,
    sure_stderr, k."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta_norm", "n", "seed", "mc_risk", "mc_stderr",
                     "sure_mean", "sure_stderr", "k"])
    for r in reports:
        writer.writerow([repr(r.theta_norm), r.n_samples, r.seed,
                         repr(r.mc_risk), repr(r.mc_stderr), repr(r.sure_mean),
                         repr(r.sure_stderr), r.baseline_k])
    return buf.getvalue()


def risk_reports_to_json(reports: Sequence[RiskReport], **kwargs) -> str:
    return json.dumps([r.to_dict() for r in reports], **kwargs)
