"""Lattice probability mass functions and arithmetization of continuous severities.

All distributions live on the grid ``{0, h, 2h, ...}``.  Mass vectors are plain
float64 arrays indexed by the lattice step.  Mass known to lie beyond the stored
grid is never renormalized away, because heavy-tail runs need to know what was
lost: a truncated pmf simply sums short of one, and ``arithmetize`` reports the
lost mass and mean in its :class:`TruncationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidPMF

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


@dataclass(frozen=True, eq=False)
class DiscretePMF:
    """Probability masses on the lattice ``h * {0, 1, ..., len(masses)-1}``.

    Instances are treated as immutable; the mass array is taken over without
    a copy and marked read-only.  A deliberately truncated distribution
    keeps its deficit: its ``total_mass`` is below 1 by the mass it lost.
    Exact distributions carry total mass 1 within ``EXACT_MASS_TOL``.  Masses built
    by ``pmf_from_values`` or ``arithmetize`` are non-negative; an allocation
    table's f_S keeps the engine's own masses, which can carry negative
    round-off (at most 1e-9 in size) where an inverse transform left it, so
    its ``cdf`` need not be monotone there.  Two pmfs compare and hash by
    identity, not by their arrays, so the risks that hold one are hashable.
    """

    masses: np.ndarray
    step_h: float = 1.0

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
        # np.sum, not np.dot: a threaded BLAS splits long dot products by thread count
        return float(self.step_h * np.sum(k * self.masses))

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
    negative raises :class:`InvalidPMF`.  A vector that sums short of one
    (a deliberately truncated tail) keeps its deficit, read as
    ``1 - total_mass``, and is not renormalized; over-unit mass raises.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidPMF("mass vector must be one-dimensional and non-empty")
    if not 0.0 < step_h < np.inf:
        raise InvalidPMF(f"step_h must be finite and positive, got {step_h}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPMF("mass vector contains non-finite entries")
    low = arr.min()
    if low < -CLAMP_TOL:
        raise InvalidPMF(f"mass entry {low:.3e} below the -{CLAMP_TOL:g} round-off tolerance")
    return truncated_pmf(np.where(arr < 0.0, 0.0, arr), step_h)


def truncated_pmf(masses: np.ndarray, step_h: float = 1.0) -> DiscretePMF:
    """Wrap finite, non-negative masses whose total may fall short of 1.

    The caller vouches for the entries (``pmf_from_values`` checks them); the
    total is checked here, and over-unit mass raises :class:`InvalidPMF`.  A
    deficit is deliberate truncation and is never renormalized.  The array is
    taken over without a copy.
    """
    total = masses.sum()
    if total > 1.0 + EXACT_MASS_TOL:
        raise InvalidPMF(f"total mass {float(total)!r} exceeds 1")
    return DiscretePMF(masses, step_h)


def degenerate_pmf(index: int, kmax: int, step_h: float = 1.0) -> DiscretePMF:
    masses = np.zeros(kmax)
    masses[index] = 1.0
    return DiscretePMF(masses, step_h)


def arithmetize(
    cdf_fn: Callable[[np.ndarray], np.ndarray],
    lev_fn: Callable[[np.ndarray], np.ndarray],
    kmax: int,
) -> tuple[DiscretePMF, TruncationReport]:
    """Discretize a continuous severity onto ``{0, 1, ..., kmax-1}`` by local moment matching.

    Each grid point gets the mass that matches the first moment locally
    (Gerber 1982), so the grid keeps the limited expected value ``lev_fn``
    on its interior.  Tail mass beyond the grid is *not* lumped onto the top
    point and not renormalized away: the pmf sums short of one, and the
    :class:`TruncationReport` gives that mass (``lost_mass``) together with
    the mean that went with it (``lost_mean``, measured against the limited
    mean at the grid top).
    """
    if kmax < 2:
        raise InvalidPMF("arithmetization needs at least two grid points")
    m = kmax - 1
    pts = np.arange(kmax, dtype=float)
    lv = np.asarray(lev_fn(pts), dtype=float)
    tail = 1.0 - float(cdf_fn(pts[m]))
    f = np.empty(kmax)
    f[0] = 1.0 - lv[1]
    f[1:m] = 2.0 * lv[1:m] - lv[0 : m - 1] - lv[2 : m + 1]
    f[m] = lv[m] - lv[m - 1] - tail
    if f.min() < -CLAMP_TOL:
        raise InvalidPMF("discretization produced a significantly negative mass; cdf nondecreasing?")
    pmf = DiscretePMF(np.clip(f, 0.0, None))
    lost_mean = max(0.0, float(np.asarray(lev_fn(pts[m])).reshape(())) - pmf.mean())
    return pmf, TruncationReport(kmax=kmax, lost_mass=max(0.0, tail), lost_mean=lost_mean)
