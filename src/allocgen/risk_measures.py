"""Quantile risk measures of the total and their per-risk Euler splits.

Everything is atom-exact on the lattice: quantiles follow the generalized
inverse (smallest lattice point where the cdf reaches the level), and the
two-level measure carries explicit boundary-mass corrections instead of
interpolating between atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import AllocationTable
from .errors import BoundaryUnderflow, TruncatedQuantile
from .pmf import DiscretePMF


@dataclass(frozen=True)
class RVaRLevels:
    """An ordered pair of probability levels, 0 <= alpha1 <= alpha2 <= 1."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not 0.0 <= self.alpha1 <= self.alpha2 <= 1.0:
            raise TruncatedQuantile(
                f"levels must satisfy 0 <= a1 <= a2 <= 1, got ({self.alpha1}, {self.alpha2})"
            )


def _quantile_index(fs: DiscretePMF, kappa: float) -> int:
    cdf = fs.cdf()
    if kappa > cdf[-1]:
        raise TruncatedQuantile(
            f"level {kappa} above reachable mass {cdf[-1]!r} on the stored grid"
        )
    return int(np.searchsorted(cdf, kappa, side="left"))


def var_level(fs: DiscretePMF, kappa: float):
    """Generalized inverse: smallest lattice value with F_S >= kappa."""
    if not 0.0 < kappa < 1.0:
        raise TruncatedQuantile(f"level must lie in (0,1), got {kappa}")
    idx = _quantile_index(fs, kappa)
    return idx * fs.step_h if fs.step_h != 1.0 else idx


def tvar(fs: DiscretePMF, kappa: float) -> float:
    """Tail expectation beyond the quantile, with the boundary-atom correction.

    (E[S 1{S > v}] + v (F_S(v) - kappa)) / (1 - kappa) at v = the quantile.
    """
    if not 0.0 < kappa < 1.0:
        raise TruncatedQuantile(f"level must lie in (0,1), got {kappa}")
    idx = _quantile_index(fs, kappa)
    cdf = fs.cdf()
    k = np.arange(len(fs), dtype=float)
    tail = float(fs.step_h * np.dot(k[idx + 1 :], fs.masses[idx + 1 :]))
    v = idx * fs.step_h
    return (tail + v * (cdf[idx] - kappa)) / (1.0 - kappa)


def rvar(fs: DiscretePMF, levels: RVaRLevels) -> float:
    """Two-level measure; collapses to the quantile at equal levels and to the
    tail expectation when the upper level is 1."""
    a1, a2 = levels.alpha1, levels.alpha2
    if a1 == a2:
        return float(var_level(fs, a1))
    if a2 == 1.0:
        return tvar(fs, a1)
    i1 = _quantile_index(fs, a1)
    i2 = _quantile_index(fs, a2)
    if i1 == i2:
        # both levels cut one atom; the boundary terms below would cancel
        return float(i1 * fs.step_h)
    cdf = fs.cdf()
    k = np.arange(len(fs), dtype=float)
    v1 = i1 * fs.step_h
    v2 = i2 * fs.step_h
    interior = float(fs.step_h * np.dot(k[i1 + 1 : i2 + 1], fs.masses[i1 + 1 : i2 + 1]))
    total = v1 * (cdf[i1] - a1) + interior + v2 * (a2 - cdf[i2])
    return total / (a2 - a1)


def euler_rvar_contributions(table: AllocationTable, levels: RVaRLevels) -> np.ndarray:
    """Per-risk contributions that sum to the two-level measure of the total.

    Two boundary terms weight the expected allocations at the quantile atoms by
    the fractional mass the level cuts through each atom; the interior term is
    the difference of cumulative allocations across the band.  At equal levels,
    or levels inside one atom, the split degenerates to the conditional mean at
    the quantile atom.
    """
    a1, a2 = levels.alpha1, levels.alpha2
    fs = table.fs
    i1 = _quantile_index(fs, a1) if a1 > 0.0 else 0
    _require_valid_atom(table, i1, "lower")
    if a1 == a2:
        return table.conditional_mean_at(i1)

    mu = table.expected_allocation
    cdf = fs.cdf()
    f1 = table.fs_raw[i1]
    lower = mu[:, i1] * ((cdf[i1] - a1) / f1)

    if a2 == 1.0:
        # decumulative form: everything above the lower atom, within stored mass
        totals = mu.sum(axis=1)
        return (lower + (totals - table.cumulative_at(i1))) / (1.0 - a1)

    i2 = _quantile_index(fs, a2)
    if i1 == i2:
        return table.conditional_mean_at(i1)
    _require_valid_atom(table, i2, "upper")
    f2 = table.fs_raw[i2]
    upper = mu[:, i2] * ((a2 - cdf[i2]) / f2)
    cum = table.cumulative_at([i1, i2])
    interior = cum[:, 1] - cum[:, 0]
    return (lower + interior + upper) / (a2 - a1)


def _require_valid_atom(table: AllocationTable, idx: int, which: str) -> None:
    if not table.valid_mask[idx]:
        raise BoundaryUnderflow(
            f"{which} quantile atom at lattice point {idx} is masked invalid "
            f"(f_S={table.fs_raw[idx]:.3e}, floor={table.underflow_floor:g})"
        )
