"""Shared test helpers."""

import numpy as np
import pytest


def fd1(fn, x, h=None):
    """Richardson-extrapolated central first difference."""
    if h is None:
        h = 1e-5 * max(1.0, abs(x))

    def d(step):
        return (fn(x + step) - fn(x - step)) / (2.0 * step)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def fd2(fn, x, h=None):
    """Richardson-extrapolated central second difference."""
    if h is None:
        h = 1e-4 * max(1.0, abs(x))

    def d(step):
        return (fn(x + step) - 2.0 * fn(x) + fn(x - step)) / (step * step)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def assert_derivative_contract(fn, points, rel=1e-5):
    """ScalarFn contract: the derivatives of ``triple`` match Richardson
    differences of ``eval`` (f') and of the triple's f' (f'')."""
    if fn.triple is None:
        return

    def part(j, t):
        return float(np.atleast_1d(fn.triple(t)[j])[0])

    for x in points:
        num = fd1(lambda t: float(np.atleast_1d(fn.eval(t))[0]), x)
        ana = part(1, x)
        assert ana == pytest.approx(num, rel=rel, abs=1e-12 * max(1.0, abs(num)))
        num = fd1(lambda t: part(1, t), x)
        ana = part(2, x)
        assert ana == pytest.approx(num, rel=rel, abs=1e-12 * max(1.0, abs(num)))
