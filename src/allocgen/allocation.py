"""Expected allocations E[X_i 1{S=k}] and derived tables.

The transform route: with independent risks, the generating function of the
allocation sequence for risk i is (t * d/dt of the risk's pgf) times the pgf of
the others.  Evaluating both factors on the roots of unity and inverting the
product recovers every allocation at once.  Closed forms for the (a, b) count
family and random sums over Poisson counts avoid the per-risk transform of the
others entirely, because their allocation generating function is an explicit
multiple of the pgf of the full sum; for a Poisson pool that multiple is a
short polynomial, so its rows are direct products with the Panjer f_S.

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
from .models import (
    CompoundKatzRisk,
    ExplicitRisk,
    KatzParams,
    KatzRisk,
    RiskModel,
    compound_pmf_panjer,
)
from .pmf import DiscretePMF, TruncationReport, pmf_from_transform_output

DEFAULT_TOLERANCE = 1e-8
DEFAULT_UNDERFLOW_FLOOR = 1e-15
ALIAS_DEFICIT_TOL = 1e-9
# Work arrays of the blocked passes over rows or columns stay near this size.
BLOCK_BYTES = 32 << 20


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
    ``fs_raw`` keeps the engine's f_S unclamped: from an inverse transform it
    can carry negative round-off noise in the deep tail, which is exactly what
    the validity mask is for; a Poisson pool's comes from the Panjer recursion
    and is non-negative.
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
    """Allocation table for independent Poisson random sums, from f_S and one banded product.

    For risk i with rate lam_i and severity pmf f_Bi, the allocation
    generating function is lam_i t P_Bi'(t) P_S(t), a multiple of the pool's
    own pgf, so

        mu_i(k) = sum_j w_i(j) f_S(k - j),   w_i(j) = lam_i j f_Bi(j),

    a sum of non-negative terms.  The table is built in four steps:

    1. f_S by the Panjer recursion of the merged pool, Poisson(Lambda) over
       sum_i lam_i f_Bi / Lambda with Lambda = sum_i lam_i;
    2. one transform of the same merged severity, as an independent check of
       f_S: the largest gap, relative to the peak of f_S, goes into the
       truncation notes;
    3. a band width J, certified from the weights and f_S (``_band_width``),
       so that the terms j >= J left out of mu_i(k) sum to at most machine
       epsilon times mu_i(k) wherever f_S(k) is above the underflow floor;
    4. every row at once as W[:, :J] T with T[j, k] = f_S(k - j), formed one
       block of columns at a time.

    Severity masses at or beyond kmax are left out and reported as aliasing
    risk, as is a buffer that ends within 10 standard deviations of the mean.
    """
    if not risks:
        raise EmptyDistribution("empty portfolio")
    for r in risks:
        if not (isinstance(r, CompoundKatzRisk) and r.frequency.is_poisson()):
            raise KatzDomain("this pipeline handles independent Poisson random sums only")
    step_h = _common_step(risks)
    n = len(risks)
    lam = np.array([r.frequency.b for r in risks])
    length = int(min(kmax, max(len(r.severity.masses) for r in risks)))
    # candidate band widths 2, 4, 8, ... below the longest severity, then all of it
    cuts = [1 << p for p in range(1, length.bit_length()) if 1 << p < length] + [length]

    # one pass over the severities: the merged severity, the row sums and, for
    # each cut J below the last, c(J) = max_i tail_i(J) / head_i(J) (``_band_width``)
    j = np.arange(length, dtype=float)
    merged = np.zeros(length)
    totals = np.empty(n)
    ratios = np.zeros(len(cuts) - 1)
    for rows in row_blocks(n, length):
        w = np.zeros((rows.stop - rows.start, length))
        for row, r in zip(w, risks[rows]):
            row[: len(r.severity.masses)] = r.severity.masses[:length]
        totals[rows] = w.sum(axis=1)
        merged += lam[rows] @ w
        w *= lam[rows, None] * j
        pieces = np.add.reduceat(w, [0, *cuts[:-1]], axis=1)
        head = np.cumsum(pieces, axis=1)[:, :-1]
        tail = np.cumsum(pieces[:, ::-1], axis=1)[:, -2::-1]
        ratio = np.divide(tail, head, out=np.where(tail > 0.0, np.inf, 0.0), where=head > 0.0)
        np.maximum(ratios, ratio.max(axis=0), out=ratios)

    count = KatzParams.poisson(float(lam.sum()))
    mix = merged / (count.b or 1.0)
    fs = compound_pmf_panjer(count, mix, kmax)
    fs_hat = gf.compound_pgf_on_roots(count, gf.dft(np.pad(mix, (0, kmax - length)), half=True))
    check = float(np.abs(gf.idft(fs_hat, half=True) - fs).max() / fs.max())
    band = _band_width(fs, cuts, ratios)

    weights = np.zeros((n, band))
    for row, r in zip(weights, risks):
        row[: len(r.severity.masses)] = r.severity.masses[:band]
    weights *= lam[:, None] * j[:band]
    # row k of the windows, reversed, is column k of T: f_S(k - j), zero for j > k
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(fs, (band - 1, 0)), band)
    mu = np.empty((n, kmax))
    # column blocks: a block of T and its block of the table take about BLOCK_BYTES
    for cols in row_blocks(kmax, max(n, band)):
        np.matmul(weights, windows[cols, ::-1].T, out=mu[:, cols])

    tm = np.array([r.severity.truncation_mass for r in risks])
    lost = float((np.maximum(0.0, 1.0 - totals - tm) + tm).sum())
    means = np.array([r.mean() for r in risks])
    # var of a Poisson random sum is lam * E[B^2]; a 10-sigma headroom check
    mean_s, sd_s = float(means.sum()), step_h * np.sqrt(float(j**2 @ merged))
    alias = []
    if lost > ALIAS_DEFICIT_TOL:
        alias.append(f"severity truncated mass totals {lost:.3e}")
    if mean_s + 10.0 * sd_s >= (kmax - 1) * step_h:
        alias.append(f"sum mean {mean_s:.1f} + 10 sd {10.0 * sd_s:.1f} reaches the buffer top {kmax}")
    if alias:
        warnings.warn("; ".join(alias), AliasingRisk, stacklevel=2)
    band_note = f"severity band J={band} of {length}; transform f_S within {check:.1e} of max Panjer f_S"
    trunc = TruncationReport(kmax, lost, aliasing_risk=bool(alias), notes=(band_note, *alias))
    return assemble_table(fs, mu, means, step_h=step_h, truncation=trunc)


def _band_width(fs: np.ndarray, cuts: Sequence[int], ratios: np.ndarray) -> int:
    """The narrowest band width in ``cuts`` that certifies every row of the pool.

    ``ratios[c]`` is c(J) = max_i tail_i(J) / head_i(J) at J = cuts[c], where
    head_i sums the weights w_i(j) over j < J and tail_i over j >= J.  The
    kept terms of mu_i(k) sum to at least head_i(J) min_{k-J < m <= k} f_S(m).
    Of the terms left out, those with j < 2J sum to at most
    tail_i(J) max_{k-2J < m <= k-J} f_S(m), and the rest to at most
    tail_i(2J) max_{m <= k-2J} f_S(m), where tail_i(2J) <= c(2J) (1 + c(J))
    head_i(J).  So at every lattice point k >= J where

        c(J) max_{k-2J < m <= k-J} f_S(m) + c(2J) (1 + c(J)) max_{m <= k-2J} f_S(m)
            <= eps min_{k-J < m <= k} f_S(m),

    what is left out is at most eps times mu_i(k), for every row at once;
    points k < J are exact.  The first J at which this holds for every k with
    f_S(k) above DEFAULT_UNDERFLOW_FLOOR is returned.  The cuts are the powers
    of two below the longest severity and then the longest severity itself,
    which leaves nothing out, so some J always qualifies (c is 0 there).
    """
    eps = np.finfo(float).eps
    n = len(fs)
    above = fs > DEFAULT_UNDERFLOW_FLOOR
    peak = np.maximum.accumulate(fs)
    low, high, width = fs.copy(), fs.copy(), 1  # min and max of f_S over (k - width, k]
    for cut, ratio, after in zip(cuts, ratios, [*ratios[1:], 0.0]):
        if ratio == 0.0:
            return cut
        while width < cut:
            low[width:] = np.minimum(low[width:], low[:-width])
            high[width:] = np.maximum(high[width:], high[:-width])
            width *= 2
        with np.errstate(over="ignore", invalid="ignore"):  # inf is uncertified
            left_out = ratio * high[: n - cut]  # at k = cut, cut + 1, ...
            left_out[cut:] += after * (1.0 + ratio) * peak[: max(n - 2 * cut, 0)]
            certified = left_out <= eps * low[cut:]
        if certified[above[cut:]].all():
            return cut
    return cuts[-1]


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
