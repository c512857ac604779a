"""Analytic cdf / limited-expected-value callables for arithmetization inputs.

The pmf core takes plain callables so these distribution-specific formulas stay
out of it; scenarios and tests import from here.
"""

from __future__ import annotations

import numpy as np


def pareto_cdf(alpha: float, lam: float):
    """cdf of the shifted power-law severity on [0, inf): 1 - (lam/(lam+x))**alpha."""

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return 1.0 - (lam / (lam + x)) ** alpha

    return cdf


def pareto_lev(alpha: float, lam: float):
    """E[min(X, d)] for the shifted power law; at alpha = 1, its limit lam ln(1 + d/lam)."""

    def lev(d):
        d = np.asarray(d, dtype=float)
        if alpha == 1.0:
            return lam * np.log1p(d / lam)
        return (lam / (alpha - 1.0)) * (1.0 - (lam / (lam + d)) ** (alpha - 1.0))

    return lev
