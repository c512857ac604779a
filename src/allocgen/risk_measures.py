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


def _band(fs: DiscretePMF, levels: RVaRLevels) -> tuple[int, float, int, float]:
    """Boundary atoms and level widths of the band (alpha1, alpha2].

    The band covers width w1 = F(i1) - alpha1 of atom i1, width
    w2 = alpha2 - F(i2 - 1) of atom i2 and all of every atom in between.  Each
    width is taken against the cdf on its own side of the band, so nearby
    levels on either side of an atom boundary cost no digits.  With alpha2 = 1
    the band runs to the top of the grid (i2 one past it, w2 = 0); when both
    levels fall in one atom, i1 == i2 and w1 is the whole band.
    """
    a1, a2 = levels.alpha1, levels.alpha2
    cdf = fs.cdf()
    i1 = _quantile_index(fs, a1)
    if a2 == 1.0:
        return i1, cdf[i1] - a1, len(fs), 0.0
    i2 = _quantile_index(fs, a2)
    if i1 == i2:
        return i1, a2 - a1, i2, 0.0
    return i1, cdf[i1] - a1, i2, a2 - cdf[i2 - 1]


def tvar(fs: DiscretePMF, kappa: float) -> float:
    """Tail expectation beyond the quantile, with the boundary-atom correction.

    (E[S 1{S > v}] + v (F_S(v) - kappa)) / (1 - kappa) at v = the quantile:
    the two-level measure with upper level 1.
    """
    if not 0.0 < kappa < 1.0:
        raise TruncatedQuantile(f"level must lie in (0,1), got {kappa}")
    return rvar(fs, RVaRLevels(kappa, 1.0))


def rvar(fs: DiscretePMF, levels: RVaRLevels) -> float:
    """Two-level measure; collapses to the quantile at equal levels and to the
    tail expectation when the upper level is 1."""
    a1, a2 = levels.alpha1, levels.alpha2
    if a1 == a2:
        return float(var_level(fs, a1))
    i1, w1, i2, w2 = _band(fs, levels)
    if i1 == i2:
        return float(i1 * fs.step_h)
    k = np.arange(len(fs), dtype=float)
    interior = float(fs.step_h * np.dot(k[i1 + 1 : i2], fs.masses[i1 + 1 : i2]))
    return (i1 * fs.step_h * w1 + interior + i2 * fs.step_h * w2) / (a2 - a1)


def euler_rvar_contributions(table: AllocationTable, levels: RVaRLevels) -> np.ndarray:
    """Per-risk contributions that sum to the two-level measure of the total.

    Two boundary terms weight the expected allocations at the quantile atoms by
    the fractional mass the level cuts through each atom; the interior term is
    the difference of cumulative allocations across the band.  At equal levels,
    or levels inside one atom, the split degenerates to the conditional mean at
    the quantile atom.
    """
    a1, a2 = levels.alpha1, levels.alpha2
    i1, w1, i2, w2 = _band(table.fs, levels)
    _require_valid_atom(table, i1, "lower")
    if a1 == a2 or i1 == i2:
        return table.conditional_mean_at(i1)

    mu = table.expected_allocation
    lower = mu[:, i1] * (w1 / table.fs_raw[i1])
    if a2 == 1.0:
        # decumulative form: everything above the lower atom, within stored mass
        totals = mu.sum(axis=1)
        return (lower + (totals - table.cumulative_at(i1))) / (1.0 - a1)

    _require_valid_atom(table, i2, "upper")
    upper = mu[:, i2] * (w2 / table.fs_raw[i2])
    cum = table.cumulative_at([i1, i2 - 1])
    interior = cum[:, 1] - cum[:, 0]
    return (lower + interior + upper) / (a2 - a1)


def _require_valid_atom(table: AllocationTable, idx: int, which: str) -> None:
    if not table.valid_mask[idx]:
        raise BoundaryUnderflow(
            f"{which} quantile atom at lattice point {idx} is masked invalid "
            f"(f_S={table.fs_raw[idx]:.3e}, floor={table.underflow_floor:g})"
        )
