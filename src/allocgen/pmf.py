"""Lattice probability mass functions and arithmetization of continuous severities.

All distributions live on the grid ``{0, h, 2h, ...}``.  Mass vectors are plain
float64 arrays indexed by the lattice step; a separate ``truncation_mass`` field
records mass known to lie beyond the stored grid (it is never renormalized away,
because heavy-tail runs need to know what was lost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidPMF, MissingLEV

# Entries in [-CLAMP_TOL, 0) of a given mass vector are round-off and are clamped
# to 0; anything below raises.
CLAMP_TOL = 1e-12
EXACT_MASS_TOL = 1e-9


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    m = 1
    while m < n:
        m <<= 1
    return m


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TruncationReport:
    """What was cut off when a distribution was squeezed onto a finite grid."""

    kmax: int
    lost_mass: float = 0.0
    lost_mean: float = 0.0
    aliasing_risk: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class DiscretePMF:
    """Probability masses on the lattice ``h * {0, 1, ..., len(masses)-1}``.

    Instances are treated as immutable; the mass array is taken over without
    a copy and marked read-only.  ``truncation_mass`` holds the
    (non-negative) deficit of a deliberately truncated distribution.  Exact
    distributions carry total mass 1 within ``EXACT_MASS_TOL``.  Masses built
    by ``pmf_from_values`` or ``arithmetize`` are non-negative; an allocation
    table's f_S keeps the engine's own masses, which can carry negative
    round-off (at most 1e-9 in size) where an inverse transform left it, so
    its ``cdf`` need not be monotone there.
    """

    masses: np.ndarray
    step_h: float = 1.0
    truncation_mass: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.masses, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)

    def __len__(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def mean(self) -> float:
        """First moment on the lattice: sum of k*h*f(k)."""
        k = np.arange(len(self.masses), dtype=float)
        return float(self.step_h * np.dot(k, self.masses))

    def cdf(self) -> np.ndarray:
        """Running sum of masses; last entry equals the total stored mass."""
        return np.cumsum(self.masses)

    def support_top(self) -> int:
        """Largest index carrying positive mass (0 for an all-zero vector)."""
        nz = np.flatnonzero(self.masses > 0.0)
        return int(nz[-1]) if nz.size else 0

    def padded(self, kmax: int) -> np.ndarray:
        """Mass vector zero-padded (or cut) to length ``kmax``."""
        out = np.zeros(kmax)
        m = min(kmax, len(self.masses))
        out[:m] = self.masses[:m]
        return out


def pmf_from_values(values, step_h: float = 1.0) -> DiscretePMF:
    """Build a :class:`DiscretePMF` from raw masses with round-off policing.

    Negative entries within ``-CLAMP_TOL`` are clamped to zero; anything more
    negative raises :class:`InvalidPMF`.  When the vector sums short of one
    (a deliberately truncated tail), the deficit is recorded as
    ``truncation_mass`` instead of renormalizing; over-unit mass raises.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidPMF("mass vector must be one-dimensional and non-empty")
    if step_h <= 0.0:
        raise InvalidPMF(f"step_h must be positive, got {step_h}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPMF("mass vector contains non-finite entries")
    low = arr.min()
    if low < -CLAMP_TOL:
        raise InvalidPMF(f"mass entry {low:.3e} below the -{CLAMP_TOL:g} round-off tolerance")
    return truncated_pmf(np.where(arr < 0.0, 0.0, arr), step_h)


def truncated_pmf(masses: np.ndarray, step_h: float = 1.0) -> DiscretePMF:
    """Wrap finite, non-negative masses, recording a deficit from 1 as ``truncation_mass``.

    The caller vouches for the entries (``pmf_from_values`` checks them); the
    total is checked here, and over-unit mass raises :class:`InvalidPMF`.
    The array is taken over without a copy.
    """
    total = masses.sum()
    if total > 1.0 + EXACT_MASS_TOL:
        raise InvalidPMF(f"total mass {total!r} exceeds 1")
    deficit = max(0.0, 1.0 - total)
    # deliberate truncation is recorded, never renormalized
    return DiscretePMF(masses, step_h, truncation_mass=deficit if deficit > EXACT_MASS_TOL else 0.0)


def degenerate_pmf(index: int, kmax: int, step_h: float = 1.0) -> DiscretePMF:
    masses = np.zeros(kmax)
    masses[index] = 1.0
    return DiscretePMF(masses, step_h)


def arithmetize(
    cdf_fn: Callable[[np.ndarray], np.ndarray],
    lev_fn: Callable[[np.ndarray], np.ndarray] | None,
    method: str,
    kmax: int,
    step_h: float = 1.0,
) -> tuple[DiscretePMF, TruncationReport]:
    """Discretize a continuous severity onto ``{0, h, ..., (kmax-1) h}``.

    method
        ``"upper"``   -- lattice cdf dominates the continuous cdf pointwise
        (mass ``F((k+1)h) - F(kh)`` at ``kh``);
        ``"lower"``   -- lattice cdf is dominated (mass ``F(kh) - F((k-1)h)``);
        ``"moment_matching"`` -- local first-moment matching, which preserves
        the limited expected value on the grid interior.

    Tail mass beyond the grid is *not* lumped onto the top point; it is reported
    in the :class:`TruncationReport` (``lost_mass``) together with the mean that
    went with it (``lost_mean``, measured against the limited mean at the grid
    top).
    """
    if kmax < 2:
        raise InvalidPMF("arithmetization needs at least two grid points")
    h = float(step_h)
    if h <= 0.0:
        raise InvalidPMF(f"step_h must be positive, got {step_h}")
    m = kmax - 1
    pts = h * np.arange(kmax, dtype=float)

    if method == "moment_matching":
        if lev_fn is None:
            raise MissingLEV("moment_matching requires a limited-expected-value callable")
        lv = np.asarray(lev_fn(pts), dtype=float)
        f = np.empty(kmax)
        f[0] = 1.0 - lv[1] / h
        f[1:m] = (2.0 * lv[1:m] - lv[0 : m - 1] - lv[2 : m + 1]) / h
        f[m] = (lv[m] - lv[m - 1]) / h - (1.0 - float(cdf_fn(pts[m])))
        lost_mass = max(0.0, 1.0 - float(cdf_fn(pts[m])))
    elif method == "upper":
        big = np.asarray(cdf_fn(np.append(pts, pts[-1] + h)), dtype=float)
        f = np.diff(big)
        lost_mass = max(0.0, 1.0 - float(big[-1]))
    elif method == "lower":
        big = np.asarray(cdf_fn(pts), dtype=float)
        f = np.empty(kmax)
        f[0] = big[0]
        f[1:] = np.diff(big)
        lost_mass = max(0.0, 1.0 - float(big[-1]))
    else:
        raise InvalidPMF(f"unknown arithmetization method {method!r}")

    if f.min() < -CLAMP_TOL:
        raise InvalidPMF("discretization produced a significantly negative mass; cdf nondecreasing?")
    pmf = DiscretePMF(np.clip(f, 0.0, None), h, truncation_mass=lost_mass)
    if lev_fn is not None:
        top_lev = float(np.asarray(lev_fn(pts[m])).reshape(()))
        lost_mean = max(0.0, top_lev - pmf.mean())
    else:
        lost_mean = 0.0
    report = TruncationReport(kmax=kmax, lost_mass=lost_mass, lost_mean=lost_mean)
    return pmf, report
