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
A batch of m draws streams its (m, k) draw Z through consecutive row blocks
of min(32,768, 2^20 // k) rows from its one generator, which fill the same
values as one draw.  A block keeps Z only for |Z|^2 and Z.theta, both summed
along each row, so every sample's value, and with it the batch's report, is
the same as from one whole draw at any k: the radius |theta + Z| and the
loss of every sample follow from those two numbers and |theta|^2, and the
marginal is evaluated on the block's radii alone.  What a batch keeps whole
is its (m,) loss, SURE and validity vectors, so its working memory is
O(rows k + m), not O(m k).  Each batch reduces to sufficient statistics: its
valid-sample count, the (sum, M2) of the loss and of SURE, and its failure
count.  Every batch of every point of a risk curve runs on one pool of up
to the available CPUs, and each point's statistics are reduced in batch
order, so a report does not depend on the CPU count.

Risk depends on theta only through |theta| (spherical equivariance), so risk
curves place theta = (|theta|, 0, ..., 0).
"""

from __future__ import annotations

import contextvars
import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
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
_U_EPS = 1e-8           # below this radius rho and SURE take their limits at u = 0
# A batch streams through row blocks of min(_BLOCK_ROWS, _BLOCK_VALUES // k)
# rows, so a block's draw holds at most 2^20 values (8 MB) and the marginal's
# temporaries grow with the block, not the batch.  The row cap binds up to
# k = 32: 16,384-row blocks take the closed-form benchmark's peak RSS about
# 4 MB lower again at k = 5, but they split the 32,768-sample batches of the
# quadrature routes in two, which cost 7.6% of their median time (2-vCPU
# guest); at 32,768 those stay one block.  The value cap binds above k = 32,
# where each block makes its own ratios call (about 0.13 ms fixed, plus
# per-level work).  Timed one batch at a time on the same guest (Strawderman
# a = 0.5, |theta| = 30), 2^20 values is where larger blocks stop paying:
# on the mixture route at k = 1500 a batch of 16,384 took 548, 523 and
# 525 ms at 2^19, 2^20 and 2^21 values (2^18: 604 ms on another run), and at
# k = 400 a batch of 32,768 took 286, 275 and 275 ms.
_BLOCK_VALUES = 1 << 20
_BLOCK_ROWS = 32768


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


def _block_rows(k: int) -> int:
    """Rows of one streamed block of a batch in k dimensions."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // k))


def _block_terms(profile: MarginalProfile, theta: np.ndarray, rng: np.random.Generator,
                 rows: int):
    """Loss, validity mask and SURE of the next ``rows`` draws of ``rng``.

    The (rows, k) draw Z is read twice, for |Z|^2 and Z.theta, and then freed.
    With X = theta + Z the radius is u = sqrt(|Z|^2 + 2 Z.theta + |theta|^2),
    clamped at 0 where roundoff takes the sum below it, and with
    delta - theta = (1 + rho) Z + rho theta the loss is
    c^2 |Z|^2 + 2 c rho Z.theta + rho^2 |theta|^2, c = 1 + rho, so no other
    (rows, k) array is formed.  Both products are einsum sums along each
    row, so a sample's value does not depend on how many rows share its
    block; BLAS ``Z @ theta`` takes another path for the rows at the end of
    each thread's share, and so would move the last bits of some samples
    with the block size.  On an axis, theta = (t, 0, ..., 0), every order
    gives Z[:, 0] t exactly.
    """
    Z = rng.standard_normal((rows, theta.size))
    zz = np.einsum("ij,ij->i", Z, Z)
    zt = np.einsum("ij,j->i", Z, theta)
    del Z                           # freed before the marginal's own temporaries
    tt = float(theta @ theta)
    u = np.sqrt(np.maximum(2.0 * zt + zz + tt, 0.0))
    rho, ok, s = _shrink_terms(profile, u, theta.size)
    c = 1.0 + rho
    return c * c * zz + 2.0 * c * rho * zt + rho * rho * tt, ok, s


def _mc_batch(profile: MarginalProfile, theta: np.ndarray, m: int,
              child: np.random.SeedSequence) -> _BatchStats:
    """Sample count, (sum, M2) of the loss and of SURE, and failures of one
    batch of m draws from the child stream.

    The batch streams through consecutive blocks of ``_block_rows(k)`` rows
    drawn from its one generator, which fill the same values as one (m, k)
    draw, and every sample's loss and SURE are those of that one draw to the
    bit; each block is reduced to its loss, validity and SURE
    (:func:`_block_terms`) before the next is drawn.  Only those three (m,)
    vectors are kept whole, so ``_sum_m2`` sees the batch as one.  A batch
    of one block uses the block's vectors as they are.
    """
    rng, rows = np.random.default_rng(child), _block_rows(theta.size)
    if m <= rows:
        loss, ok, s = _block_terms(profile, theta, rng, m)
    else:
        loss, ok, s = np.empty(m), np.empty(m, dtype=bool), np.empty(m)
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            loss[lo:hi], ok[lo:hi], s[lo:hi] = _block_terms(profile, theta, rng, hi - lo)
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
    more than 0.1% failures is a hard error.
    """
    return _run_points(profile, [(np.asarray(theta, dtype=float), seed)], n)[0]


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
    return _run_points(profile, [(np.pad([float(t)], (0, k - 1)), _norm_seed(seed, float(t)))
                                 for t in theta_norms], n)


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
