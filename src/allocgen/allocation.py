"""Expected allocations E[X_i 1{S=k}] and derived tables.

The transform route: with independent risks, the generating function of the
allocation sequence for risk i is (t * d/dt of the risk's pgf) times the pgf of
the others.  Evaluating both factors on the roots of unity and inverting the
product recovers every allocation at once.  Closed forms for the (a, b) count
family and random sums over Poisson counts avoid the per-risk transform of the
others entirely, because their allocation generating function is an explicit
multiple of the pgf of the full sum.

Risks that are fixed linear combinations of independent pieces (the shock
tree and the gamma-mixed pair of :mod:`allocgen.dependence`) reuse these
engines: the table of the pieces is mapped onto the risks by a loading matrix
(``regroup``), since E[X_j 1{S=k}] is linear in the pieces.

Every engine builds its table at the fixed accuracy targets DEFAULT_TOLERANCE
and DEFAULT_UNDERFLOW_FLOOR.  Which lattice points a caller trusts is a
separate reporting decision: ``mask_validity`` re-derives the validity mask at
any other tolerance and floor from the stored validation curve, without
recomputing the table.

Two transform-free oracles live here as well: direct enumeration of the joint
support, and the size-biased representation computed with direct convolution.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from dataclasses import dataclass, field
from math import exp, lgamma, log
from typing import Sequence

import numpy as np

from . import gf
from .errors import (
    AliasingRisk,
    AllocationError,
    EmptyDistribution,
    InvalidLayer,
    KatzDomain,
    OracleBudget,
    SeriesTruncation,
)
from .models import CompoundKatzRisk, ExplicitRisk, KatzParams, KatzRisk, RiskModel
from .pmf import DiscretePMF, TruncationReport, pmf_from_transform_output

DEFAULT_TOLERANCE = 1e-8
DEFAULT_UNDERFLOW_FLOOR = 1e-15
ALIAS_DEFICIT_TOL = 1e-9
# Work arrays of the blocked passes over pool rows stay near this size.
BLOCK_BYTES = 32 << 20
# Exponential tilting of the Poisson pool: candidate tilts per decision, the
# largest padded transform in multiples of kmax, the exponent of the second,
# checking tilt (r ** TILT_CHECK), and how far inside the tolerance the
# checking tilt must resolve a point for the comparison to use it.
TILT_CANDIDATES = 32
TILT_MAX_PAD = 8
TILT_CHECK = 0.75
TILT_CHECK_MARGIN = 8.0


@dataclass
class PortfolioModel:
    """A list of margins plus an optional dependence regime.

    ``dependence is None`` means independent margins; otherwise it holds one of
    the dependence spec objects from :mod:`allocgen.dependence`.
    """

    risks: list = field(default_factory=list)
    dependence: object | None = None


@dataclass
class AllocationTable:
    """Per-risk allocation vectors over the lattice, with a validity mask.

    ``expected_allocation[i][k]`` is E[X_i 1{S = k h}] in payment units, and
    it is the only n x kmax array the table stores.  Two views of it are
    derived on access rather than stored:

    - ``expected_cumulative``: prefix sums of each row along k;
    - ``conditional_mean``: each row divided by Pr(S = k h), NaN where that
      mass is exactly zero.

    Each property builds a fresh n x kmax array, so code that needs only some
    risks or lattice points uses ``cumulative_rows``, ``conditional_mean_rows``
    or ``conditional_mean_at``, which return the same values for just those
    rows or columns.  ``validation_curve`` is
    sum_i E[X_i 1{S = k h}] / Pr(S = k h), the column sum of
    ``conditional_mean`` up to round-off (NaN where the mass is zero).  It
    equals k h wherever results are trustworthy, and the validity mask is
    derived from it.
    ``fs_raw`` keeps the unclamped inverse-transform output (it can carry
    negative round-off noise in the deep tail, which is exactly what the
    validity mask is for).
    """

    fs: DiscretePMF
    expected_allocation: np.ndarray
    validation_curve: np.ndarray
    valid_mask: np.ndarray
    tolerance_used: float
    underflow_floor: float
    risk_means: np.ndarray
    truncation: TruncationReport
    fs_raw: np.ndarray

    @property
    def n_risks(self) -> int:
        return self.expected_allocation.shape[0]

    @property
    def kmax(self) -> int:
        return self.expected_allocation.shape[1]

    @property
    def expected_cumulative(self) -> np.ndarray:
        return self.cumulative_rows(slice(None))

    @property
    def conditional_mean(self) -> np.ndarray:
        return self.conditional_mean_rows(slice(None))

    def cumulative_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` (an index, slice or index array) of ``expected_cumulative``."""
        return np.cumsum(self.expected_allocation[rows], axis=-1)

    def conditional_mean_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` (an index, slice or index array) of ``conditional_mean``."""
        return _per_mass(self.expected_allocation[rows], self.fs_raw)

    def conditional_mean_at(self, k: int) -> np.ndarray:
        """Column ``k`` of ``conditional_mean``, every risk."""
        return _per_mass(self.expected_allocation[:, k], self.fs_raw[k])

    def identity_deviation(self) -> float:
        """Largest deviation in the full-allocation identity over the valid points.

        The maximum over valid k of |sum_i mu_i(k) - k h f_S(k)| / (1 + |k h f_S(k)|),
        or NaN when no point is valid.
        """
        if not self.valid_mask.any():
            return float("nan")
        target = self.fs.step_h * np.arange(self.kmax, dtype=float) * self.fs_raw
        rel = np.abs(self.expected_allocation.sum(axis=0) - target) / (1.0 + np.abs(target))
        return float(rel[self.valid_mask].max())


def row_blocks(n: int, width: int) -> list[slice]:
    """Consecutive row slices of an n x ``width`` array, sized to BLOCK_BYTES.

    A block's real rows plus their half spectra take about BLOCK_BYTES.
    """
    rows = max(1, BLOCK_BYTES // (16 * width))
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _per_mass(mu: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """``mu / fs`` with NaN where the mass ``fs`` is exactly zero."""
    fs = np.broadcast_to(fs, np.shape(mu))
    return np.divide(mu, fs, out=np.full(np.shape(mu), np.nan), where=fs != 0.0)


def _common_step(risks: Sequence[RiskModel]) -> float:
    """The lattice step all risks share: a pmf's or severity's own, 1 for counts and indicators."""
    steps = {
        r.pmf.step_h if isinstance(r, ExplicitRisk)
        else r.severity.step_h if isinstance(r, CompoundKatzRisk)
        else 1.0
        for r in risks
    }
    if len(steps) > 1:
        raise AllocationError(f"risks use different lattice steps: {sorted(steps)}")
    return steps.pop()


def assemble_table(
    fs_raw: np.ndarray,
    mu: np.ndarray,
    risk_means: np.ndarray,
    *,
    step_h: float = 1.0,
    truncation: TruncationReport | None = None,
    support_bound: int | None = None,
) -> AllocationTable:
    """Build the table from a mass vector and per-risk allocation rows.

    ``fs_raw`` and ``mu`` are on the index lattice; payment units are restored
    here via ``step_h``.  With ``step_h == 1`` the table takes ``mu`` over
    without a copy.  When the sum has a provable support bound below the
    buffer (all margins bounded, no wrap), entries beyond it are exact zeros and
    the inverse-transform noise there is dropped rather than reported.  The
    validity mask is ``mask_validity``'s at its defaults.
    """
    kmax = len(fs_raw)
    if not np.any(fs_raw > 0.0):
        raise EmptyDistribution("total-loss pmf carries no positive mass")
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    if step_h != 1.0:
        mu = mu * step_h
    fs_raw = np.asarray(fs_raw, dtype=float)
    if support_bound is not None and support_bound + 1 < kmax:
        fs_raw = fs_raw.copy()
        fs_raw[support_bound + 1 :] = 0.0
        mu[:, support_bound + 1 :] = 0.0
    table = AllocationTable(
        fs=pmf_from_transform_output(fs_raw, step_h),
        expected_allocation=mu,
        validation_curve=_per_mass(mu.sum(axis=0), fs_raw),
        valid_mask=None,  # mask_validity sets the mask and the two settings
        tolerance_used=None,
        underflow_floor=None,
        risk_means=np.asarray(risk_means, dtype=float),
        truncation=truncation or TruncationReport(kmax=kmax),
        fs_raw=fs_raw,
    )
    return mask_validity(table)


def mask_validity(
    table: AllocationTable,
    tolerance: float = DEFAULT_TOLERANCE,
    underflow_floor: float = DEFAULT_UNDERFLOW_FLOOR,
) -> AllocationTable:
    """The table with its validity mask re-derived at ``tolerance`` and ``underflow_floor``.

    A point is valid where f_S(k) > ``underflow_floor`` and the validation
    curve is within ``tolerance`` of k h.  Only the mask and the two recorded
    settings change; every array, the allocation rows included, is shared
    with ``table``.
    """
    values = table.fs.step_h * np.arange(table.kmax, dtype=float)
    with np.errstate(invalid="ignore"):
        close = np.abs(table.validation_curve - values) <= tolerance
    valid = (table.fs_raw > underflow_floor) & close
    return dataclasses.replace(
        table, valid_mask=valid, tolerance_used=tolerance, underflow_floor=underflow_floor
    )


def regroup(
    table: AllocationTable, loading: np.ndarray, risk_means: Sequence[float]
) -> AllocationTable:
    """Table of the risks X_j = sum_i loading[j, i] Y_i, where the Y_i are the risks of ``table``.

    The total is the same sum whenever every column of ``loading`` sums to 1,
    so f_S and the truncation report carry over; the allocation rows are
    ``loading @`` the inner ones, and the validation curve and the default
    validity mask are derived afresh from them.
    """
    step_h = table.fs.step_h
    return assemble_table(
        table.fs_raw,
        loading @ table.expected_allocation / step_h,
        risk_means,
        step_h=step_h,
        truncation=table.truncation,
    )


def _aliasing_report(risks: Sequence[RiskModel], totals: list[float], kmax: int) -> TruncationReport:
    """Aliasing diagnostics from the support bounds and the stored mass ``totals`` of the risks."""
    tops = [r.support_top() for r in risks]
    notes: list[str] = []
    risky = False
    if all(t is not None for t in tops) and sum(tops) > kmax - 1:
        risky = True
        notes.append(f"exact support bound {sum(tops)} exceeds buffer {kmax}")
    deficit = float(sum(max(0.0, 1.0 - t) for t in totals))
    if deficit > ALIAS_DEFICIT_TOL:
        risky = True
        notes.append(f"per-risk truncated mass totals {deficit:.3e}")
    if risky:
        warnings.warn("; ".join(notes), AliasingRisk, stacklevel=3)
    return TruncationReport(kmax=kmax, lost_mass=deficit, aliasing_risk=risky, notes=tuple(notes))


def allocate_independent(risks: Sequence[RiskModel], kmax: int) -> AllocationTable:
    """Allocation table for independent risks via the transform route.

    The pgf of everything-but-risk-i comes from ``gf.leave_one_out``: prefix
    times suffix products of the marginal pgfs on the roots, with no division,
    so marginal pgfs that vanish on the unit circle need no special case.  The
    pgfs are freed once that product is formed; the mass vectors are then built,
    transformed and inverted one block of risks at a time.
    """
    if not risks:
        raise EmptyDistribution("empty portfolio")
    z = gf.roots_of_unity(kmax)
    step_h = _common_step(risks)
    n = len(risks)

    pgfs = np.empty((n, kmax), dtype=complex)
    for i, r in enumerate(risks):
        pgfs[i] = r.pgf_on_roots(z)
    fs_hat, others = gf.leave_one_out(pgfs)
    del pgfs
    fs_raw = gf.idft(fs_hat)

    mu = np.empty((n, kmax))
    totals: list[float] = []
    k = np.arange(kmax, dtype=float)
    for rows in row_blocks(n, kmax):
        pmfs = np.array([r.pmf_vector(kmax) for r in risks[rows]], dtype=float)
        totals.extend(float(f.sum()) for f in pmfs)
        spectra = gf.dft(pmfs * k)
        spectra *= others[rows]
        gf.idft(spectra, out=mu[rows])
    truncation = _aliasing_report(risks, totals, kmax)

    means = np.array([r.mean() for r in risks])
    tops = [r.support_top() for r in risks]
    bound = sum(tops) if all(t is not None for t in tops) else None
    if bound is not None and bound >= kmax:
        bound = None  # wrapped: nothing beyond the buffer is provably zero
    return assemble_table(
        fs_raw, mu, means, step_h=step_h, truncation=truncation, support_bound=bound
    )


def allocate_compound_poisson_pool(risks: Sequence[CompoundKatzRisk], kmax: int) -> AllocationTable:
    """Allocation table for independent Poisson random sums, single shared product.

    For risk i with rate lam_i and severity pmf f_Bi, the pgf of the sum is
    P_S(t) = exp(sum_i lam_i (P_Bi(t) - 1)), and the allocation generating
    function of risk i is lam_i t P_Bi'(t) P_S(t).  Dataflow, in two passes
    over blocks of risks (``row_blocks``, about BLOCK_BYTES each), all in the
    half form of :mod:`allocgen.gf`:

    1. (``_pass1``) transform the block's rows f_Bi - delta_0 and add
       ``lam_block @ spectra`` to one log-spectrum; after the last block a
       single ``exp`` gives P_S on the roots, and its inverse gives f_S;
    2. (``_pass2``) transform the block's rows {lam_i k f_Bi(k)}, multiply
       them by P_S and invert them into the block's rows of the allocation
       table.

    Each risk is transformed on its own.  Transforming the rate-weighted sum of
    the severities once would be cheaper but noisier: on the shipped
    10,000-risk pool it shrinks the valid band and doubles the deviation in
    the full-allocation identity.

    Deep tail by exponential tilting.  The plain transform leaves absolute
    noise near machine epsilon times the peak of f_S, so masses many decades
    below the peak (yet above the underflow floor) come out with no correct
    digits.  The tilt works to the fixed targets DEFAULT_TOLERANCE and
    DEFAULT_UNDERFLOW_FLOOR, whatever mask a caller applies afterwards.  When
    f_S(0) is resolved to that tolerance and the tail of the pass-1 f_S falls
    below the resolved level inside the buffer while that level is still above
    the floor, the same two passes run again
    on the tilted rows f_Bi(j) r^j with some r > 1, on a transform padded to
    a multiple of kmax, and their output is untilted by r^(-k)
    (``_choose_tilt`` picks r and the padding from the pass-1 f_S).  A second
    tilt r^TILT_CHECK must reproduce the tilted f_S to DEFAULT_TOLERANCE on the
    lattice points it resolves; if it does not, the untilted result is kept.
    Otherwise f_S and every allocation row take the tilted values from the
    first lattice point at which those are the less noisy ones (``_tilt_tail``).
    Either outcome is recorded in the table's truncation notes.  Pools whose
    f_S(0) underflows, as large pools do, or whose tail reaches the buffer
    top, as heavy tails do, run the plain passes alone.
    """
    if not risks:
        raise EmptyDistribution("empty portfolio")
    for r in risks:
        if not (isinstance(r, CompoundKatzRisk) and r.frequency.is_poisson()):
            raise KatzDomain("this pipeline handles independent Poisson random sums only")
    step_h = _common_step(risks)
    n = len(risks)
    lam = np.array([r.frequency.b for r in risks])

    log_fs_hat, totals = _pass1(risks, lam, kmax, kmax, 0.0)
    sev_deficit = 0.0
    for total, r in zip(totals, risks):
        tm = r.severity.truncation_mass
        sev_deficit += max(0.0, 1.0 - total - tm) + tm
    fs_hat = np.exp(log_fs_hat)
    fs_raw = gf.idft(fs_hat, half=True)

    means = np.array([r.mean() for r in risks])
    mean_s = sum(means.tolist())
    # var of a Poisson random sum is lam * E[B^2]; a 10-sigma headroom check
    var_s = 0.0
    for r in risks:
        fb = r.severity.masses
        k2 = np.arange(len(fb), dtype=float) ** 2
        var_s += r.frequency.b * float(np.dot(k2, fb)) * step_h**2
    notes: list[str] = []
    risky = sev_deficit > ALIAS_DEFICIT_TOL
    if risky:
        notes.append(f"severity truncated mass totals {sev_deficit:.3e}")
    if mean_s + 10.0 * np.sqrt(var_s) >= (kmax - 1) * step_h:
        risky = True
        notes.append(
            f"sum mean {mean_s:.1f} + 10 sd {10.0 * np.sqrt(var_s):.1f} reaches the buffer top {kmax}"
        )
    if risky:
        warnings.warn("; ".join(notes), AliasingRisk, stacklevel=2)

    mu = np.empty((n, kmax))
    for rows, spectra in _pass2(risks, lam, fs_hat, 0.0, kmax):
        gf.idft(spectra, half=True, out=mu[rows])
    if not risky:
        _tilt_tail(risks, lam, fs_raw, mu, notes)

    trunc = TruncationReport(kmax=kmax, lost_mass=sev_deficit, aliasing_risk=risky, notes=tuple(notes))
    return assemble_table(fs_raw, mu, means, step_h=step_h, truncation=trunc)


def _severity_rows(
    risks: Sequence[CompoundKatzRisk], kmax: int, width: int, tilt: float = 0.0
) -> np.ndarray:
    """Severity masses below kmax of each risk, zero-padded to ``width`` columns.

    A nonzero ``tilt`` s multiplies mass j by e^(s j), in logs so that no
    factor overflows where the mass is tiny.
    """
    out = np.zeros((len(risks), width))
    for row, r in zip(out, risks):
        m = min(kmax, len(r.severity.masses))
        row[:m] = r.severity.masses[:m]
    if tilt:
        with np.errstate(divide="ignore"):
            out[:, :kmax] = np.exp(np.log(out[:, :kmax]) + tilt * np.arange(kmax))
    return out


def _pass1(risks, lam, kmax, width, s) -> tuple[np.ndarray, list[float]]:
    """Pass 1 on the rows f_Bi(j) e^(s j), ``width`` points long.

    Returns the half spectrum of sum_i lam_i (P_Bi - 1) over those rows, which
    is the log of the pool's pgf at e^s times the roots of unity, and the row
    sums.
    """
    log_hat = np.zeros(width // 2 + 1, dtype=complex)
    totals: list[float] = []
    for rows in row_blocks(len(risks), width):
        fb = _severity_rows(risks[rows], kmax, width, s)
        totals.extend(fb.sum(axis=1).tolist())
        fb[:, 0] -= 1.0
        log_hat += (lam[rows] @ gf.dft(fb, half=True).view(float)).view(complex)
    return log_hat, totals


def _pass2(risks, lam, hat, s, kmax):
    """Pass 2: the allocation spectra from the pgf half spectrum ``hat``, block by block.

    Yields ``(rows, spectra)``: the half spectra of lam_i k f_Bi(k) e^(s k)
    (k < kmax) times ``hat``, on the transform length that ``hat`` is the half
    of.  The caller inverts each block into its rows of the table.
    """
    width = 2 * (len(hat) - 1)
    j = np.arange(kmax, dtype=float)
    for rows in row_blocks(len(risks), width):
        weighted = _severity_rows(risks[rows], kmax, width, s)
        weighted[:, :kmax] *= j
        weighted *= lam[rows, None]
        spectra = gf.dft(weighted, half=True)
        del weighted  # free the block before the inverse allocates its own
        spectra *= hat
        yield rows, spectra


def _choose_tilt(
    fs: np.ndarray, tolerance: float, underflow_floor: float
) -> tuple[float, int] | None:
    """Log tilt s = log r and padding factor for the pool, or None where tilting cannot pay.

    Noise model: the plain transform leaves absolute noise near eps * max f,
    and the validation curve at k reads that noise times k / f(k), so k is
    resolved where f(k) * tolerance >= eps * max f * k.  A tilt by r = e^s
    turns f(k) into g(k) = f(k) r^k with the same rule on g.  Beyond the last
    resolved point the tail is extrapolated at the mean decay rate of the
    resolved stretch before it.  Each candidate s between 0 and that rate is
    scored by the number of lattice points above ``underflow_floor`` it would
    resolve; the padding is the least power of two (up to TILT_MAX_PAD) at which
    the extrapolated tilted tail has fallen to eps * max g.  The middle of the
    best-scoring run of candidates is returned, so that the tilt keeps a margin
    on both sides.
    """
    eps = np.finfo(float).eps
    if not fs[0] * tolerance >= eps * fs.max():
        return None  # f_S(0) itself is unresolved: lifting the tail would bury it
    n = len(fs)
    k = np.arange(n, dtype=float)
    log_kk = np.log(np.maximum(k, 1.0))
    log_tol = np.log(tolerance)
    log_noise = np.log(eps * fs.max())
    with np.errstate(divide="ignore"):
        log_f = np.log(np.maximum(fs, 0.0))  # -inf on round-off below zero
    resolved = log_f + log_tol >= log_noise + log_kk
    top = int(np.flatnonzero(resolved)[-1])
    mode = int(np.argmax(fs))
    if top <= mode or top + 1 >= n or log_noise + log_kk[top + 1] - log_tol <= np.log(underflow_floor):
        return None  # nothing left between the resolved level and the floor inside the buffer
    start = (mode + top) // 2
    log_rho = (log_f[top] - np.log(fs[start:].max())) / (top - start)
    if not log_rho < 0.0:
        return None
    log_f[top + 1 :] = log_f[top] + (k[top + 1 :] - top) * log_rho
    target = log_f > np.log(underflow_floor)
    target[: top + 1] &= resolved[: top + 1]

    s = -log_rho * np.arange(TILT_CANDIDATES + 1)[:, None] / TILT_CANDIDATES
    log_g = log_f + s * k
    log_gmax = log_g.max(axis=1, keepdims=True)
    score = ((log_g + log_tol >= np.log(eps) + log_gmax + log_kk) & target).sum(axis=1)
    untilted = score[0]
    # tilted tail at L = p n: log g(top) + (L - top)(log_rho + s) <= log(eps max g)
    pads = 2 ** np.arange(int(np.log2(TILT_MAX_PAD)) + 1)
    tail = log_g[:, top, None] + (pads * n - top) * (log_rho + s) - np.log(eps) - log_gmax
    fits = tail <= 0.0
    score[~fits.any(axis=1)] = 0
    if score.max() <= untilted:
        return None
    best = np.flatnonzero(score == score.max())
    pick = int(best[len(best) // 2])
    return float(s[pick, 0]), int(pads[np.argmax(fits[pick])])


def _tilt_tail(risks, lam, fs, mu, notes) -> None:
    """Replace the deep tail of ``fs`` and ``mu`` in place by a checked exponential tilt.

    The tilt is chosen, and checked, against DEFAULT_TOLERANCE and
    DEFAULT_UNDERFLOW_FLOOR.  The tilted values at k carry noise near
    eps * max g * P_S(r) r^(-k), the plain ones near eps * max f_S; every
    lattice point from the first at which the tilted noise is the smaller one
    onward takes the tilted f_S and allocations, the points before it keep the
    plain ones.  What was done is
    appended to ``notes``.  Nothing changes where tilting would not pay,
    overflows, or is not confirmed by the second tilt.
    """
    tolerance, underflow_floor = DEFAULT_TOLERANCE, DEFAULT_UNDERFLOW_FLOOR
    choice = _choose_tilt(fs, tolerance, underflow_floor)
    if choice is None:
        return
    s, pad = choice
    kmax = len(fs)
    width = pad * kmax
    r, r_check = np.exp(s), np.exp(TILT_CHECK * s)
    runs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tilt in (s, TILT_CHECK * s):
            log_hat, _ = _pass1(risks, lam, kmax, width, tilt)
            log_norm = log_hat[0].real  # log P_S(e^tilt), the tilted pgf at t = 1
            hat = np.exp(log_hat - log_norm)
            # g(k) = f_S(k) e^(tilt k) / P_S(e^tilt), its spectrum, the untilting factors
            runs.append((gf.idft(hat, half=True), hat, np.exp(log_norm - tilt * np.arange(kmax))))
    (g, hat, untilt), (g_check, _, untilt_check) = runs
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(g_check)) and np.all(np.isfinite(untilt))):
        notes.append(f"exponential tilt r={r:.6g} overflows; untilted result kept")
        return
    fs_tilted = g[:kmax] * untilt
    fs_check = g_check[:kmax] * untilt_check
    # compare where the weaker tilt resolves f_S with TILT_CHECK_MARGIN to
    # spare, so that its own noise stays well inside the tolerance
    eps = np.finfo(float).eps
    kk = np.maximum(np.arange(kmax), 1)
    seen = g_check[:kmax] * tolerance >= TILT_CHECK_MARGIN * eps * g_check.max() * kk
    seen &= fs_tilted > underflow_floor
    dev = float(np.max(np.abs(fs_tilted - fs_check)[seen] * kk[seen] / fs_tilted[seen], initial=0.0))
    if not (seen.any() and dev <= tolerance):
        notes.append(
            f"exponential tilt r={r:.6g} (padding {pad}x) not confirmed by r={r_check:.6g}: "
            f"deviation {dev:.3e} on {int(seen.sum())} points, tolerance {tolerance:g}; "
            "untilted result kept"
        )
        return
    quieter = np.abs(g).max() * untilt < fs.max()
    if not quieter.any():
        return
    start = int(np.argmax(quieter))
    fs[start:] = fs_tilted[start:]
    for rows, spectra in _pass2(risks, lam, hat, s, kmax):
        mu[rows, start:] = gf.idft(spectra, half=True)[:, start:kmax] * untilt[start:]
    notes.append(
        f"exponential tilt r={r:.6g} on a {width}-point transform (padding {pad}x) "
        f"for k >= {start}, checked against r={r_check:.6g} to {dev:.1e}"
    )


def allocate_katz_closed_form(katz: KatzParams, fs: DiscretePMF) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form allocation and cumulative allocation for an (a, b) family risk.

    ``fs`` is the pmf of the *full* sum including the risk itself.  The
    geometric-weight convolutions

        alloc[k] = (a+b) * sum_{j<k} a^j fs[k-1-j]
        cum[k]   = (a+b) * sum_{j<k} a^j FS[k-1-j]

    are evaluated by the equivalent one-step recursions (contractive for
    |a| < 1).
    """
    a, b = katz.a, katz.b
    if not abs(a) < 1.0:
        raise KatzDomain(f"|a| must be < 1, got {a}")
    f = fs.masses
    n = len(f)
    FS = np.cumsum(f)
    alloc = np.zeros(n)
    cum = np.zeros(n)
    ab = a + b
    for k in range(n - 1):
        alloc[k + 1] = a * alloc[k] + ab * f[k]
        cum[k + 1] = a * cum[k] + ab * FS[k]
    return fs.step_h * alloc, fs.step_h * cum


def _as_negbin_pairs(risks) -> tuple[np.ndarray, np.ndarray]:
    rs, qs = [], []
    for item in risks:
        if isinstance(item, KatzRisk):
            item = item.params
        if isinstance(item, KatzParams):
            if not 0.0 < item.a < 1.0:
                raise KatzDomain("negative-binomial series needs 0 < a < 1")
            q = 1.0 - item.a
            rs.append(item.b / item.a + 1.0)
            qs.append(q)
        else:
            r, q = item
            if not (r > 0.0 and 0.0 < q < 1.0):
                raise KatzDomain(f"bad negative-binomial pair ({r}, {q})")
            rs.append(float(r))
            qs.append(float(q))
    return np.asarray(rs), np.asarray(qs)


def allocate_negbin_convolution(risks, k: int, *, ell_max: int = 20000) -> float:
    """E[X_1 1{S=k}] for independent negative-binomial risks, transform-free.

    Shift the first risk's order up by one: the allocation equals
    r1 (1-q1)/q1 times the mass at k-1 of the convolution of NB(r1+1, q1) with
    the remaining NB margins.  That convolution is expanded around the smallest
    q; on a fixed coefficient the expansion terminates after k-1 terms, so the
    sum here is exact rather than truncated.  The expansion-coefficient
    recursion is

        delta_{l+1} = (1/(l+1)) sum_{i=1}^{l+1} i xi_i delta_{l+1-i},
        xi_i = sum_j (r'_j / i) * ((q* - q_j)/(1 - q*))^i.
    """
    rs, qs = _as_negbin_pairs(risks)
    if k < 0 or k != int(k):
        raise AllocationError(f"lattice point must be a non-negative integer, got {k}")
    if k == 0:
        return 0.0
    s = int(k) - 1
    if s > ell_max:
        raise SeriesTruncation(
            f"coefficient recursion needs {s} terms, over the {ell_max} budget"
        )
    r_shift = rs.copy()
    r_shift[0] += 1.0
    q_star = float(qs.min())
    rp = float(r_shift.sum())
    base = (q_star - qs) / (1.0 - q_star)  # in (-1, 0]

    xi = np.zeros(s + 2)
    for i in range(1, s + 1):
        xi[i] = float(np.sum(r_shift / i * base**i))
    delta = np.zeros(s + 1)
    delta[0] = 1.0
    for ell in range(s):
        i = np.arange(1, ell + 2)
        delta[ell + 1] = float(np.dot(i * xi[1 : ell + 2], delta[ell::-1])) / (ell + 1)

    log_prefix = float(np.dot(r_shift, np.log(qs))) + s * log(1.0 - q_star)
    total = 0.0
    for ell in range(s + 1):
        m = s - ell
        log_c = lgamma(rp + s) - lgamma(m + 1.0) - lgamma(rp + ell)
        total += delta[ell] * exp(log_c + log_prefix)
    r1, q1 = rs[0], qs[0]
    return r1 * (1.0 - q1) / q1 * total


def cumulative_and_layers(
    table: AllocationTable, l1: int, l2: int, risk: int
) -> tuple[float, float, float]:
    """Split risk ``risk``'s mean into retained, layer and excess pieces.

    retained = E[X_i 1{S <= l1 h}], layer the increment up to l2, excess the
    remainder against the model mean (so the three always telescope to it).
    """
    if not (0 < l1 < l2 < table.kmax):
        raise InvalidLayer(f"need 0 < l1 < l2 < {table.kmax}, got ({l1}, {l2})")
    cum = table.cumulative_rows(risk)
    retained = float(cum[l1])
    layer = float(cum[l2] - cum[l1])
    excess = float(table.risk_means[risk] - cum[l2])
    return retained, layer, excess


def oracle_size_biased(risk: RiskModel, others_pmf: DiscretePMF) -> np.ndarray:
    """Allocations via the size-biased representation, by direct convolution.

    E[X_1 1{S=s}] = E[X_1] Pr(Xtilde_1 + S_{-1} = s) with the size-biased pmf
    x f(x)/E[X_1]; the mean cancels, leaving the direct sum
    sum_x x f(x) f_others(s - x).  Kept free of transforms on purpose.
    """
    kmax = len(others_pmf)
    fx = np.asarray(risk.pmf_vector(kmax), dtype=float)
    weighted = gf.weighted_index_coeffs(fx)
    if weighted.sum() == 0.0:
        return np.zeros(kmax)
    out = np.convolve(weighted, others_pmf.masses)[:kmax]
    return others_pmf.step_h * out


def oracle_enumerate(
    portfolio: PortfolioModel,
    kmax: int,
    *,
    budget: int = 10_000_000,
) -> AllocationTable:
    """Exact allocations by direct summation over the joint support.

    Supports the independent regime (product measure over per-risk supports)
    and the frailty-coupled indicator regime (finite mixture of product
    measures).  Joint supports above ``budget`` outcomes, or regimes without a
    finite enumeration, raise :class:`OracleBudget`.
    """
    dep = portfolio.dependence
    if dep is None:
        return _enumerate_independent(portfolio.risks, kmax, budget)
    from .dependence import FrailtyBernoulliSpec  # runtime import avoids a module cycle

    if isinstance(dep, FrailtyBernoulliSpec):
        return _enumerate_frailty(dep, kmax, budget)
    raise OracleBudget(f"no finite joint enumeration for dependence {type(dep).__name__}")


def _enumerate_independent(risks, kmax, budget) -> AllocationTable:
    if not risks:
        raise EmptyDistribution("empty portfolio")
    step_h = _common_step(risks)
    n = len(risks)
    supports = []
    size = 1
    for r in risks:
        f = np.asarray(r.pmf_vector(kmax), dtype=float)
        idx = np.flatnonzero(f > 0.0)
        supports.append([(int(i), float(f[i])) for i in idx])
        size *= len(idx)
        if size > budget:
            raise OracleBudget(f"joint support exceeds {budget} outcomes")
    fs = np.zeros(kmax)
    mu = np.zeros((n, kmax))
    for combo in itertools.product(*supports):
        s = 0
        p = 1.0
        for x, px in combo:
            s += x
            p *= px
        if s >= kmax:
            continue
        fs[s] += p
        for i, (x, _) in enumerate(combo):
            mu[i, s] += x * p
    means = np.array([r.mean() for r in risks])
    return assemble_table(fs, mu, means, step_h=step_h)


def _enumerate_frailty(spec, kmax, budget) -> AllocationTable:
    n = len(spec.b)
    theta_w = spec.theta_pmf()
    if (2**n) * len(theta_w) > budget:
        raise OracleBudget(f"frailty enumeration needs {(2 ** n) * len(theta_w)} > {budget} outcomes")
    r_pows = spec.conditional_claim_probs()  # shape (theta_star, n)
    fs = np.zeros(kmax)
    mu = np.zeros((n, kmax))
    for combo in itertools.product((0, 1), repeat=n):
        s = int(np.dot(combo, spec.b))
        if s >= kmax:
            continue
        cond = np.where(np.asarray(combo, dtype=bool), r_pows, 1.0 - r_pows)
        p = float(np.dot(theta_w, cond.prod(axis=1)))
        fs[s] += p
        for i, c in enumerate(combo):
            if c:
                mu[i, s] += spec.b[i] * p
    means = np.asarray(spec.b, dtype=float) * np.asarray(spec.q, dtype=float)
    return assemble_table(fs, mu, means)
