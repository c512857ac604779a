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
    # the first crossing, not a bisection: negative round-off in f_S can leave the cdf non-monotone
    cdf = fs.cdf()
    if not kappa <= cdf.max():
        raise TruncatedQuantile(f"level {kappa} above reachable mass {float(cdf.max())!r} on the stored grid")
    return int(np.argmax(cdf >= kappa))


def var_level(fs: DiscretePMF, kappa: float):
    """Generalized inverse: smallest lattice value with F_S >= kappa."""
    if not 0.0 < kappa < 1.0:
        raise TruncatedQuantile(f"level must lie in (0,1), got {kappa}")
    idx = _quantile_index(fs, kappa)
    return idx * fs.step_h if fs.step_h != 1.0 else idx


def _band(fs: DiscretePMF, levels: RVaRLevels) -> tuple[int, int | None, np.ndarray]:
    """Quantile atoms of the band (alpha1, alpha2] and the mass it takes from each.

    ``m[j]`` is the probability the band takes from atom i1 + j: F(i1) - alpha1
    at the lower quantile atom i1, alpha2 - F(i2 - 1) at the upper one i2, and
    the whole mass f_S(k) of every atom in between.  Each boundary mass is
    taken against the cdf on its own side of the band, so nearby levels on
    either side of an atom boundary cost no digits.  With alpha2 = 1 the band
    runs to the top of the grid and has no upper atom (i2 is None); when both
    levels fall in one atom, i1 == i2 and m is the one width alpha2 - alpha1.
    """
    a1, a2 = levels.alpha1, levels.alpha2
    cdf = fs.cdf()
    i1 = _quantile_index(fs, a1)
    if a2 == 1.0:
        return i1, None, np.concatenate([[cdf[i1] - a1], fs.masses[i1 + 1 :]])
    i2 = _quantile_index(fs, a2)
    if i1 == i2:
        return i1, i2, np.array([a2 - a1])
    return i1, i2, np.concatenate([[cdf[i1] - a1], fs.masses[i1 + 1 : i2], [a2 - cdf[i2 - 1]]])


def tvar(fs: DiscretePMF, kappa: float) -> float:
    """Tail expectation beyond the quantile, with the boundary-atom correction.

    (E[S 1{S > v}] + v (F_S(v) - kappa)) / (1 - kappa) at v = the quantile:
    the two-level measure with upper level 1.
    """
    if not 0.0 < kappa < 1.0:
        raise TruncatedQuantile(f"level must lie in (0,1), got {kappa}")
    return rvar(fs, RVaRLevels(kappa, 1.0))


def rvar(fs: DiscretePMF, levels: RVaRLevels) -> float:
    """Two-level measure h sum_k k m(k) / (alpha2 - alpha1) over the masses m of ``_band``; the
    quantile at equal levels or levels in one atom, the tail expectation at alpha2 = 1."""
    a1, a2 = levels.alpha1, levels.alpha2
    if a1 == a2:
        return float(var_level(fs, a1))
    i1, i2, m = _band(fs, levels)
    if i1 == i2:
        return float(i1 * fs.step_h)
    k = np.arange(i1, i1 + len(m), dtype=float)
    return float(fs.step_h * np.sum(k * m)) / (a2 - a1)  # not np.dot, as in DiscretePMF.mean


def euler_rvar_contributions(table: AllocationTable, levels: RVaRLevels) -> np.ndarray:
    """Per-risk contributions that sum to the two-level measure of the total.

    Risk i gets sum_k mu_i(k) w(k) / (alpha2 - alpha1) over the band of
    ``_band``: the weight w is m / f_S at each quantile atom, the fraction of
    its mass the band takes, and exactly 1 at every atom in between, which
    thus contributes its whole mu_i(k).  At equal levels, or levels inside one
    atom, the split degenerates to the conditional mean at the quantile atom.
    """
    a1, a2 = levels.alpha1, levels.alpha2
    i1, i2, m = _band(table.fs, levels)
    _require_valid_atom(table, i1, "lower")
    if a1 == a2 or i1 == i2:
        return table.conditional_mean_at(i1)

    weights = np.ones(len(m))
    weights[0] = m[0] / table.fs.masses[i1]
    if i2 is not None:
        _require_valid_atom(table, i2, "upper")
        weights[-1] = m[-1] / table.fs.masses[i2]
    return table.band(i1, weights) / (a2 - a1)


def _require_valid_atom(table: AllocationTable, idx: int, which: str) -> None:
    if not table.valid_mask[idx]:
        raise BoundaryUnderflow(
            f"{which} quantile atom at lattice point {idx} is masked invalid "
            f"(f_S={table.fs.masses[idx]:.3e}, floor={table.underflow_floor:g})"
        )
