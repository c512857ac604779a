"""Expected allocations E[X_i 1{S=k}] and derived tables.

The transform route: with independent risks, the generating function of the
allocation sequence for risk i is (t * d/dt of the risk's pgf) times the pgf of
the others.  Evaluating both factors on the roots of unity and inverting the
product recovers every allocation at once.  Closed forms for the (a, b) count
family and random sums over Poisson counts avoid the per-risk transform of the
others entirely, because by the compound Katz rule their allocation
generating function is c(t) P_S(t); for a Poisson pool each c is a short
polynomial, so its table is kept as terms, each a block of coefficient rows
and the one sequence they are convolved with: the n x J coefficients
(``models.canonical_row``) over f_S, and the rows of the margins beside the
pool over the pool's own pmf.  Every output is a query on the terms; the
pool's coefficients are formed whenever a query reads them, a block of rows
at a time, and never stored.

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
import os
import warnings
from dataclasses import dataclass, field
from functools import partial
from math import exp, lgamma, log
from typing import Sequence

import numpy as np

from . import gf
from .errors import (
    AliasingRisk,
    AllocationError,
    ConfigError,
    EmptyDistribution,
    InvalidLayer,
    InvalidPMF,
    KatzDomain,
    OracleBudget,
    SeriesTruncation,
)
from .models import (
    _DOT_CHUNK,
    ROW_BLOCK,
    KatzParams,
    RiskModel,
    _chunked_convolve,
    bernoulli_margins,
    common_step,
    counting_recursion,
    poisson_pool,
)
from .pmf import DiscretePMF, TruncationReport, pmf_from_values

DEFAULT_TOLERANCE = 1e-8
DEFAULT_UNDERFLOW_FLOOR = 1e-15
ALIAS_DEFICIT_TOL = 1e-9
# Work arrays of the blocked passes over rows stay near this size.
BLOCK_BYTES = 32 << 20


@dataclass
class PortfolioModel:
    """A list of margins plus an optional dependence regime.

    ``dependence is None`` means independent margins; otherwise it holds one of
    the dependence spec objects from :mod:`allocgen.dependence`.  Margins are always
    ``risks``, a frailty pool's ``BernoulliRisk``s included (its spec is only their mixing
    law; the shock tree and the gamma-mixed pair are their specs alone).  The margins
    are any sized iterable of risks: a sampled Poisson-NB pool stays a
    ``models.PoissonNegbinPool``, alone or after explicit risks in a
    ``models.RiskChain``; the Poisson pool engine streams it, and the other
    engines iterate it.  Each margin is routed on its own: one with a c row
    (``models.canonical_row``) stays in the factored pool, other margins take dense rows.
    """

    risks: list = field(default_factory=list)
    dependence: object | None = None


@dataclass
class AllocationTable:
    """Per-risk allocation vectors over the lattice, with a validity mask.

    The allocation rows, mu_i(k) = E[X_i 1{S = k h}] in payment units, are
    kept as a short list of ``terms``, each ``(rows, W, seq)``: the risks it
    covers (an index array, in order), one row of weights W per risk it
    covers, and the sequence its rows are convolved with.  Row i of the
    table sums, over the terms that cover i, row i of W T, T[j, k] =
    seq(k - j) the Toeplitz matrix of ``seq``.  So each term is the paper's
    coefficient series times a generating function:

    - a dense term has ``seq`` None (T = I), and its rows are W, n x kmax:
      the one term of a dense table (``mixture_rows``: independent margins,
      frailty levels);
    - a Poisson pool's c rows, W = h c over J columns, over seq = f_S; W is
      the pool's ``PoolWeights``, which forms any row block of W when asked
      and stores none;
    - the margins beside a pool, W = h nu_r over seq = f_pool
      (``allocate_compound_poisson_pool``);
    - a regrouped table keeps each term over its ``seq``, with the loading
      applied to W (``regroup``).

    Every W serves ``shape`` and row slices; ``bands`` reads each W
    ROW_BLOCK rows at a time, and ``rows`` reads only the rows it is asked
    for.  Every output reads the rows through a small interface:

    - ``rows(idx)``: the allocation rows of the given risks, each read
      alone;
    - ``bands(requests)``: for each (i1, w), the n-vector sum_k mu_i(i1 + k) w(k),
      all from one pass over the blocks (``band`` for one);
    - ``column_sum``: sum_i mu_i(k), formed once at assembly (a pool hands
      it 1^T W from its pass 1);
    - ``conditional_mean_at(k)``: E[X_i | S = k h], column k over f_S(k);
    - ``expected_allocation``: every row, for tests, reproductions and
      oracles; ``allocgen run`` never reads it.

    Callers derive the rest from rows they hold: the cumulative allocation is
    their prefix sum, the conditional mean ``per_mass(rows, fs.masses)``.

    Each side of the full-allocation identity sum_i mu_i(k) = k h f_S(k) is
    kept once: ``column_sum`` and ``fs``, the engine's own f_S.  That is never
    clamped: from an inverse transform it can carry negative round-off in the
    deep tail, which is what the validity mask is for; a Poisson pool's, the
    Panjer recursion's convolved with any other margins' pmfs, is not.  The
    column sum adds up the terms' (1^T W) * seq.  The ``validation_curve``,
    ``per_mass(column_sum, fs.masses)``, equals k h wherever results are
    trustworthy, and the mask derives from it.
    """

    fs: DiscretePMF
    terms: tuple
    column_sum: np.ndarray
    valid_mask: np.ndarray
    tolerance_used: float
    underflow_floor: float
    risk_means: np.ndarray
    truncation: TruncationReport

    @property
    def n_risks(self) -> int:
        return len(self.risk_means)

    @property
    def kmax(self) -> int:
        return len(self.fs.masses)

    @property
    def expected_allocation(self) -> np.ndarray:
        return self.rows(slice(None))

    @property
    def validation_curve(self) -> np.ndarray:
        return per_mass(self.column_sum, self.fs.masses)

    def rows(self, idx) -> np.ndarray:
        """Rows ``idx`` (an index, slice or index array) of ``expected_allocation``.

        Each chosen row p of a term's W is read alone, as ``W[p : p + 1]``, so
        a pool's reader forms exactly the rows asked for; a row reads the
        same in any slice.  A dense term's row is added as read; a factored
        term's is first convolved with its ``seq``, which costs O(width kmax)
        and builds nothing larger than the answer.
        """
        chosen = np.arange(self.n_risks)[idx]
        flat = chosen.reshape(-1)
        out = np.zeros((len(flat), self.kmax))
        for at, w, seq in self.terms:
            pos = np.minimum(np.searchsorted(at, flat), len(at) - 1)
            for o in np.flatnonzero(at[pos] == flat).tolist():
                row = w[pos[o] : pos[o] + 1][0]
                out[o] += row if seq is None else _chunked_convolve(row, seq, self.kmax)
        return out.reshape(*chosen.shape, self.kmax)

    def bands(self, requests) -> list[np.ndarray]:
        """For each ``(i1, w)`` of ``requests``, sum_k mu_i(i1 + k) w(k) for every risk i, in one pass over each W.

        A dense term reads the columns it needs, a matrix-vector product.  A
        factored term sums T's columns first, W (T[:, i1 : i1 + len(w)] w),
        at a cost of O(width len(w) + n width) per request; each row's terms
        are summed pairwise, which keeps that sum within about eps of its
        value.  Every request is answered from each block of W as it is read,
        so the query holds one row block, never a whole W, and each answer
        is the one a request alone gets.  The sum over k is taken in pieces
        (``_band_columns``), so a wide band gives the same sums at any BLAS
        thread count.
        """
        requests = [(i1, np.asarray(w, dtype=float)) for i1, w in requests]
        if not requests:
            return []
        outs = [np.zeros(self.n_risks) for _ in requests]
        for at, w, seq in self.terms:
            if seq is None:
                reads = [(slice(i1, i1 + len(v)), v) for i1, v in requests]
            else:
                reads = [(slice(None), _band_columns(seq, w.shape[1], i1, v)) for i1, v in requests]
            for rows, block in _blocks(w):
                for out, (cols, v) in zip(outs, reads):
                    out[at[rows]] += block[:, cols] @ v if seq is None else (block * v).sum(axis=1)
        return outs

    def band(self, i1: int, w: np.ndarray) -> np.ndarray:
        """sum_k mu_i(i1 + k) w(k) for every risk i, over the lattice points i1, i1 + 1, ... (``bands``)."""
        return self.bands([(i1, w)])[0]

    def conditional_mean_at(self, k: int) -> np.ndarray:
        """E[X_i | S = k h] for every risk i: column ``k`` of the rows over f_S(k)."""
        return per_mass(self.band(k, np.ones(1)), self.fs.masses[k])

    def identity_deviation(self) -> float:
        """Largest deviation in the full-allocation identity over the valid points.

        The maximum over valid k of |sum_i mu_i(k) - k h f_S(k)| / (1 + |k h f_S(k)|),
        or NaN when no point is valid.
        """
        if not self.valid_mask.any():
            return float("nan")
        target = self.fs.step_h * np.arange(self.kmax, dtype=float) * self.fs.masses
        rel = np.abs(self.column_sum - target) / (1.0 + np.abs(target))
        return float(rel[self.valid_mask].max())


class PoolWeights:
    """A Poisson pool's weights w_i(j) = h c_i(j), j < ``width``, formed a slice of rows at a time.

    ``read`` is ``models.poisson_pool``'s row reader over ``n`` rows (an
    other margin's is zero), and row i is zero from ``lengths[i]`` on, where
    pass 1 cut it; ``total`` is pass 1's column sum 1^T W.  It serves the
    reads of the n x ``width`` array W it stands for: ``shape``,
    ``self[rows]`` for a slice of rows (a fresh array) and ``*= h``, which
    scales ``total`` and every later read.  A read forms exactly the rows
    the array's slice would hold, and only the risks and their lengths stay
    in memory.
    """

    def __init__(self, read, n: int, width: int, lengths: np.ndarray, total: np.ndarray):
        self.read, self.n, self.width, self.lengths, self.total, self.step_h = read, n, width, lengths, total, 1.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.width

    def __getitem__(self, rows: slice) -> np.ndarray:
        rows = slice(*rows.indices(self.n))
        w = self.read(rows, self.width)[0]
        if w.shape[1] < self.width:
            w = np.pad(w, ((0, 0), (0, self.width - w.shape[1])))
        w[np.arange(self.width) >= self.lengths[rows, None]] = 0.0
        if self.step_h != 1.0:
            w *= self.step_h
        return w

    def __imul__(self, factor: float) -> "PoolWeights":
        self.step_h *= factor
        self.total = self.total * factor
        return self


def _block_rows(n: int) -> list[slice]:
    """The row slices of the blocks of ROW_BLOCK rows of n, in order."""
    return [slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK)]


def _blocks(weights):
    """``(rows, weights[rows])`` for each block of ``_block_rows`` of W, an array or a ``PoolWeights``."""
    for rows in _block_rows(weights.shape[0]):
        yield rows, weights[rows]


def _band_columns(seq: np.ndarray, width: int, i1: int, w: np.ndarray) -> np.ndarray:
    """T[:, i1 : i1 + len(w)] w for the Toeplitz matrix T of ``seq`` over ``width`` rows, summed in _DOT_CHUNK pieces."""
    # (T w)(j) = sum_k seq(i1 + k - j) w(k), seq zero below 0
    fs = np.pad(seq, (width - 1, 0))[i1 : i1 + width - 1 + len(w)]
    tw = np.correlate(fs[: width - 1 + _DOT_CHUNK], w[:_DOT_CHUNK])
    for c in range(_DOT_CHUNK, len(w), _DOT_CHUNK):
        tw += np.correlate(fs[c : c + width - 1 + _DOT_CHUNK], w[c : c + _DOT_CHUNK])
    return tw[::-1]


def row_blocks(n: int, width: int) -> list[slice]:
    """Consecutive row slices of an n x ``width`` array, sized to BLOCK_BYTES.

    A block's real rows plus their half spectra take about BLOCK_BYTES.
    """
    rows = max(1, BLOCK_BYTES // (16 * width))
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def per_mass(mu: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """``mu / fs`` with NaN where the mass ``fs`` is exactly zero.

    Rows over f_S are conditional means; the column sum over f_S is the validation curve.
    """
    fs = np.broadcast_to(fs, np.shape(mu))
    return np.divide(mu, fs, out=np.full(np.shape(mu), np.nan), where=fs != 0.0)


def assemble_table(
    fs: np.ndarray,
    terms: Sequence[tuple],
    risk_means: np.ndarray,
    *,
    step_h: float = 1.0,
    truncation: TruncationReport | None = None,
    support_bound: int | None = None,
) -> AllocationTable:
    """Build the table of the n = len(``risk_means``) risks from a mass vector and its ``terms``.

    Each term is ``(rows, W, seq)`` (``AllocationTable``), its rows any index
    of the n risks, kept as an index array.  ``fs`` and every W are on the
    index lattice; payment units are restored here via ``step_h``: the table
    takes each W over without a copy and scales it in place, once.  The
    column sum adds up each term's 1^T W, convolved with its ``seq`` if it
    has one; 1^T W is a ``PoolWeights``' ``total`` (a pool's pass 1 sums
    it) and otherwise W's sum over rows.  ``fs`` keeps its negative
    round-off; a mass below -1e-9 is not round-off and raises
    :class:`InvalidPMF`.  When the sum of a dense table has a provable
    support bound below the buffer (all margins bounded, no wrap), entries
    of f_S and of the dense rows beyond it are exact zeros and the
    inverse-transform noise there is dropped rather than reported.  The
    validity mask is ``mask_validity``'s at its defaults.
    """
    fs = np.asarray(fs, dtype=float)
    kmax = len(fs)
    if not np.any(fs > 0.0):
        raise EmptyDistribution("total-loss pmf carries no positive mass")
    if fs.min() < -1e-9:
        raise InvalidPMF(f"f_S has entry {fs.min():.3e}; not round-off noise")
    bounded = support_bound is not None and support_bound + 1 < kmax
    if bounded:
        fs = fs.copy()
        fs[support_bound + 1 :] = 0.0
    column_sum = None
    for _, w, seq in terms:
        if step_h != 1.0:
            w *= step_h
        if bounded and seq is None:
            w[:, support_bound + 1 :] = 0.0
        total = w.total if isinstance(w, PoolWeights) else w.sum(axis=0)
        part = total if seq is None else _chunked_convolve(total, seq, kmax)
        column_sum = part if column_sum is None else column_sum + part
    risk_means = np.asarray(risk_means, dtype=float)
    every = np.arange(len(risk_means))
    table = AllocationTable(
        fs=DiscretePMF(fs, step_h),
        terms=tuple((every[rows], w, seq) for rows, w, seq in terms),
        column_sum=column_sum,
        valid_mask=None,  # mask_validity sets the mask and the two settings
        tolerance_used=None,
        underflow_floor=None,
        risk_means=risk_means,
        truncation=truncation or TruncationReport(kmax=kmax),
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
    settings change; every array, the terms' weights included, is shared
    with ``table``.
    """
    values = table.fs.step_h * np.arange(table.kmax, dtype=float)
    with np.errstate(invalid="ignore"):
        close = np.abs(table.validation_curve - values) <= tolerance
    valid = (table.fs.masses > underflow_floor) & close
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
    validity mask are derived afresh from them.  Each term stays over its
    ``seq``, since loading @ (W T) = (loading @ W) T: the loading's columns
    of the term's rows are applied to W a row block at a time, and the
    product, one row per risk, is kept as an array.
    """
    step_h, terms = table.fs.step_h, []
    for at, w, seq in table.terms:
        mu = None
        for rows, block in _blocks(w):
            part = loading[:, at[rows]] @ block
            mu = part if mu is None else np.add(mu, part, out=mu)
        mu /= step_h
        terms.append((slice(None), mu, seq))
    return assemble_table(table.fs.masses, terms, risk_means, step_h=step_h, truncation=table.truncation)


def _aliasing_report(
    kmax: int, totals: np.ndarray, lengths, labels: Sequence[tuple[str, object]],
    reasons: Sequence[str] = (), notes: Sequence[str] = (),
) -> TruncationReport:
    """An engine's truncation report from the mass ``totals`` it kept of each row.

    A row's deficit 1 - total is lost mass where it exceeds the round-off of
    summing the row's ``lengths`` masses, length times eps.  ``labels`` pairs
    each label with the rows it names (an index of ``totals``).  Where the
    lost mass exceeds ALIAS_DEFICIT_TOL, each label's share of it, if any,
    joins the engine's own ``reasons`` as "``label`` truncated mass totals";
    any reason flags the report and issues one AliasingRisk, attributed to
    the engine's caller.  ``notes`` lead the report's notes.
    """
    deficit = 1.0 - totals
    lost = np.where(deficit > np.multiply(lengths, np.finfo(float).eps), deficit, 0.0)
    total, alias = float(lost.sum()), list(reasons)
    if total > ALIAS_DEFICIT_TOL:
        shares = [(label, float(lost[rows].sum())) for label, rows in labels]
        alias += [f"{label} truncated mass totals {share:.3e}" for label, share in shares if share > 0.0]
    if alias:
        warnings.warn("; ".join(alias), AliasingRisk, stacklevel=3)
    return TruncationReport(kmax, total, aliasing_risk=bool(alias), notes=(*notes, *alias))


def host_memory_bytes() -> int:
    """Physical memory of this host: the ceiling that ``require_memory`` holds estimates to."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(n: int, kmax: int, bytes_per_point: int) -> None:
    """ConfigError when n risks on kmax points, at ``bytes_per_point`` each, exceed the host's memory.

    The dense engine, and the pool engine for the margins beside a pool,
    call it before they allocate n rows of up to kmax points, so a portfolio
    too large for the host stops with a clean error instead of being killed
    for want of memory.
    """
    need, host = n * kmax * bytes_per_point, host_memory_bytes()
    if need > host:
        raise ConfigError(
            f"{n} risks at kmax {kmax} need about {need:,} bytes at once, "
            f"more than the {host:,} bytes of memory on this host"
        )


def mixture_rows(weights: Sequence[float], pgfs, spectra, n: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """f_S and the n allocation rows of a mixture of independent portfolios, inverted once.

    Level l has weight ``weights[l]``, the n pgfs on the roots ``pgfs(l)`` and, for a
    slice ``rows``, their weighted allocation spectra z P_i'(z) ``spectra(l, rows)``,
    each the transform of a mass vector (f_i and k f_i).
    Each level's spectra are asked for once per row block, in order of rows, after
    its pgfs, so a caller may read its margins from one iterator.
    The allocation generating function t P_i'(t) prod_{j != i} P_j(t) is linear in
    the mixture: the levels' totals, and each spectrum times the product of the other
    pgfs (``gf.leave_one_out``, no division), are summed on the roots.
    """
    # one level: pgfs and products (the rows come after the pgfs are freed); more: the sum too
    require_memory(n, kmax, 2 * 16 if len(weights) == 1 else 3 * 16)
    fs_hat = np.zeros(kmax, dtype=complex)
    acc = None if len(weights) == 1 else np.zeros((n, kmax), dtype=complex)
    for level, w in enumerate(weights):
        total, others = gf.leave_one_out(pgfs(level))
        fs_hat += w * total
        for rows in row_blocks(n, kmax):
            np.multiply(spectra(level, rows), others[rows], out=others[rows])
        acc = others if acc is None else np.add(acc, others, out=acc)
        del others  # before the next level's pgfs
    mu = np.empty((n, kmax))
    for rows in row_blocks(n, kmax):
        gf.idft(acc[rows], out=mu[rows])
    return gf.idft(fs_hat), mu


def allocate_independent(risks: Sequence[RiskModel], kmax: int) -> AllocationTable:
    """Allocation table for independent risks: one level of ``mixture_rows``, with pgfs dft(f_i) and spectra dft(k f_i).

    Both are transforms of the same ``pmf_vector(kmax)``, read twice: once
    for all the pgfs, then block by block for the spectra.
    """
    if not risks:
        raise EmptyDistribution("empty portfolio")
    n = len(risks)
    k = np.arange(kmax, dtype=float)
    step_h = common_step(risks)
    totals = np.empty(n)
    margins = iter(risks)  # read block by block, in the order mixture_rows asks for them

    def pgfs(level):
        # each pmf in the real part of a zeroed buffer, transformed in place a block at a time
        out = np.zeros((n, kmax), dtype=complex)
        for i, r in enumerate(risks):
            out.real[i] = r.pmf_vector(kmax)
        for rows in row_blocks(n, kmax):
            gf.dft(out[rows], out=out[rows])
        return out

    def spectra(level, rows):
        block = itertools.islice(margins, rows.stop - rows.start)
        pmfs = np.array([r.pmf_vector(kmax) for r in block], dtype=float)
        totals[rows] = pmfs.sum(axis=1)
        pmfs *= k
        return gf.dft(pmfs)

    fs, mu = mixture_rows([1.0], pgfs, spectra, n, kmax)
    tops = [r.support_top() for r in risks]
    bound = sum(tops) if None not in tops else None
    reasons = []
    if bound is not None and bound >= kmax:
        reasons.append(f"exact support bound {bound} exceeds buffer {kmax}")
        bound = None  # wrapped: nothing beyond the buffer is provably zero
    truncation = _aliasing_report(kmax, totals, kmax, [("per-risk", slice(None))], reasons)
    means = np.array([r.mean() for r in risks])
    terms = [(slice(None), mu, None)]
    return assemble_table(fs, terms, means, step_h=step_h, truncation=truncation, support_bound=bound)


def allocate_compound_poisson_pool(risks: Sequence[RiskModel], kmax: int) -> AllocationTable:
    """Allocation table for independent risks, the margins with a ``models.canonical_row`` kept factored.

    Such a margin's allocation generating function is c_i(t) P_S(t) whatever
    the other margins are, so mu_i(k) = sum_j c_i(j) f_S(k - j), a sum of
    non-negative terms.  The table is built in these steps:

    1. pass 1 (``_pool_pass1``) reads each row block once, through
       ``models.poisson_pool``'s reader, which cuts each row where the rest
       of it is certified below _CUT_TOL (eps^2) of its mass.  It sums
       C = sum_i c_i, the column sum 1^T W, the means and the certificate:
       what the band and the cuts leave out of every row, relative to its
       head, and the rate of the claims the cuts drop from C;
    2. f_pool by the recursion k f(k) = sum_j C(j) f(k - j) from
       log f(0) = sum_i log f_i(0), checked by one transform,
       exp(log f(0) + dft(C / j)) (the largest gap, relative to its peak,
       goes into the truncation notes);
    3. by direct convolution of the other margins' pmfs, each cut after its
       last non-zero mass: their product f_rest (L points), their rows
       nu_r = (k f_r) * prod_{s != r} f_s by prefix and suffix products, and
       f_S = f_rest * f_pool, every term non-negative; ``require_memory``
       holds their prefix products and rows, at most kmax points each, to
       the host first;
    4. a band width J (``_band_width``), the narrowest at which, at every
       k with f_S(k) above the underflow floor,

           c(J) max_{(k-2J, k-J]} f_S + c(2J) (1 + c(J)) max_{m <= k-2J} f_S
               + (tau(J) + rate) max_{m <= k-first} f_S <= eps min_{(k-J, k]} f_S,

       so that what the band, the cuts and the claims they drop take from
       mu_i(k) and from f_S(k) is at most machine epsilon of it.  Where no
       J certifies every such point, steps 1 and 2 and f_S run again with
       every row read whole, and the band note says so;
    5. the table's two terms: the pool's c rows over seq = f_S, W its
       ``PoolWeights`` over J columns, read whenever a query asks and cut
       at pass 1's lengths, whose column sum is pass 1's first J columns,
       so assembly reads no row; and the other margins' rows nu over
       seq = f_pool, L points each, so mu_r = nu_r * f_pool is formed only
       when a query reads it.

    With no other margin, f_S = f_pool; with no c row, the table is
    ``allocate_independent``'s.  The other margins' means and kept masses
    join the pool's, and their lost mass is reported as "per-risk", as
    alone, and the pool severities' as "severity".  ``models.poisson_pool``
    reads the rows ROW_BLOCK at a time and never whole: once in pass 1 and
    again in every query.  Nothing n x J or n x kmax is stored.  A sampled
    severity with no mass raises KatzDomain.
    Each risk's mean is its c summed plus the tail its row leaves out, which
    for an NB count is the geometric rest past the buffer: its closed form,
    up to round-off.

    Severity masses at or beyond kmax are left out and reported as aliasing
    risk, as is a buffer that ends within 10 standard deviations of the
    mean, the other margins' spread included.  A count's unit claims always
    fit, and its c past kmax reaches no f_S(k), so it loses no mass.
    """
    if not risks:
        raise EmptyDistribution("empty portfolio")
    pool = poisson_pool(risks, kmax)
    if pool is None:
        return allocate_independent(risks, kmax)
    log_f0, step_h, read, others = pool
    idx = list(others)
    # per other margin, rows of up to kmax points: its prefix product and nu row, 16 bytes a point, and 8 more
    # for its pmf vector while it is trimmed, the pool's own work and the arrays' headers
    require_memory(len(idx), kmax, 3 * 8)
    f = [x[: np.flatnonzero(x).max(initial=0) + 1].copy() for x in (r.pmf_vector(kmax) for r in others.values())]
    prefix = list(itertools.accumulate(f, partial(_chunked_convolve, n=kmax), initial=np.ones(1)))
    rest, suffix, nu = prefix[-1], np.ones(1), np.zeros((len(f), len(prefix[-1])))
    for r in reversed(range(len(f))):  # nu_r = (k f_r) * prefix_{r-1} * suffix_{r+1}
        row = _chunked_convolve(np.arange(len(f[r])) * f[r], _chunked_convolve(prefix[r], suffix, kmax), kmax)
        nu[r, : len(row)], suffix = row, _chunked_convolve(f[r], suffix, kmax)

    whole_note = ""
    for whole in (False, True):
        C, total, means, kept, lengths, certificate = _pool_pass1(partial(read, whole=whole), len(risks), kmax)
        f_pool = counting_recursion(log_f0, np.trim_zeros(C[1:], "b"), kmax)
        fs = _chunked_convolve(rest, f_pool, kmax)
        band, uncertified = _band_width(fs, *certificate)
        if not uncertified.any():
            break
        whole_note = f" (rows read whole: their cuts left {int(uncertified.sum())} points uncertified)"

    j, k = np.arange(len(C), dtype=float), np.arange(len(rest), dtype=float)
    fs_hat = np.exp(log_f0 + gf.dft(np.pad(C[1:] / j[1:], (1, kmax - len(C))), half=True))
    check = float(np.abs(gf.idft(fs_hat, half=True) - f_pool).max() / f_pool.max())
    # t (ln P_S)' has coefficients C, so var S = sum_j j C(j), plus the other margins' variance
    var, means = float(j @ C) + float((k - k @ rest) ** 2 @ rest), step_h * means
    means[idx] = [r.mean() for r in others.values()]
    kept[idx], lengths[idx] = [x.sum() for x in f], [len(x) for x in f]
    beside = f"; beside {len(idx)} other margin{'s' * (len(idx) > 1)} over {len(rest)} points" if idx else ""

    # a 10-sigma headroom check
    mean_s, sd_s = float(means.sum()), step_h * np.sqrt(var)
    reasons = []
    if mean_s + 10.0 * sd_s >= (kmax - 1) * step_h:
        reasons.append(f"sum mean {mean_s:.1f} + 10 sd {10.0 * sd_s:.1f} reaches the buffer top {kmax}")
    band_note = (f"severity band J={band} of {len(C)}{whole_note}; "
                 f"transform f_S within {check:.1e} of max Panjer f_S{beside}")
    severity = np.ones(len(risks), dtype=bool)
    severity[idx] = False
    labels = [("severity", np.flatnonzero(severity)), ("per-risk", idx)]
    trunc = _aliasing_report(kmax, kept, np.minimum(lengths, kmax), labels, reasons, [band_note])
    terms = [(slice(None), PoolWeights(read, len(risks), band, lengths, total[:band]), fs)]
    terms += [(idx, nu, f_pool)] if idx else []
    return assemble_table(fs, terms, means, step_h=step_h, truncation=trunc)


def _pool_pass1(read, n: int, kmax: int):
    """Pass 1 of ``allocate_compound_poisson_pool``: the c rows, ``read`` a row block at a time, each until its cut.

    Returns C = sum_i c_i, summed over the rows in order, on the longest
    row's L points (at most kmax); the column sum of the rows as cut,
    summed as W's sum over rows would be, the carried sum first and then
    the rows in order; each row's mean, its c summed plus its tail;
    its kept severity mass and length; and ``_band_width``'s certificate
    (cuts, ratios, taus, first) on the rows as cut: at each J of cuts, the
    powers of two below L and then L, with head_i(J) the sum of c_i(j)
    over j < J, ratios(J) is the largest tail_i(J) / head_i(J), tail_i
    summing j >= J, and taus(J) is tau(J) + rate, tau(J) the largest
    bound_i / head_i(J) over the rows cut below the buffer, bound_i
    bounding the rest the cut leaves out, and rate the Poisson rate of the
    claims the cuts drop from C, each cut row's bound over its length;
    those claims are at least ``first`` units each.
    """
    powers = [1 << p for p in range(1, kmax.bit_length()) if 1 << p < kmax]
    C, total = np.zeros(kmax), np.zeros(0)
    ratios, taus = np.zeros(len(powers) + 1), np.zeros(len(powers) + 1)
    means, kept, lengths = np.empty(n), np.empty(n), np.empty(n, dtype=int)
    rate, first = 0.0, kmax
    for rows in _block_rows(n):
        block, lengths[rows], kept[rows], tails = read(rows)
        means[rows] = block.sum(axis=1) + tails
        w = block[:, : min(kmax, lengths[rows].max(initial=1))]  # the columns past every length are zero
        C[: w.shape[1]] += w.sum(axis=0)
        cuts = [c for c in powers if c < w.shape[1]]
        pieces = np.add.reduceat(w, [0, *cuts], axis=1)
        # head_i and tail_i at each J of powers and at the whole row
        head = np.cumsum(pieces, axis=1)[:, np.minimum(np.arange(len(powers) + 1), len(cuts))]
        tail = np.zeros(head.shape)
        tail[:, : len(cuts)] = np.cumsum(pieces[:, ::-1], axis=1)[:, -2::-1]
        # a cut past the buffer reaches no f_S(k)
        cut = (tails > 0.0) & (lengths[rows] < kmax)
        bound = np.broadcast_to(np.where(cut, tails, 0.0)[:, None], head.shape)
        for out, top in ((ratios, tail), (taus, bound)):
            part = np.divide(top, head, out=np.where(top > 0.0, np.inf, 0.0), where=head > 0.0)
            np.maximum(out, part.max(axis=0), out=out)
        at = lengths[rows][cut]
        rate += float((tails[cut] / at).sum())
        first = min(first, int(at.min(initial=kmax)))
        # the column sum last, in place: the block is not read again
        total = np.pad(total, (0, max(w.shape[1] - len(total), 0)))
        w[0] += total[: w.shape[1]]
        total[: w.shape[1]] = w.sum(axis=0)
    length = int(min(kmax, lengths.max()))
    cuts = [c for c in powers if c < length] + [length]
    return C[:length], total, means, kept, lengths, (cuts, ratios[: len(cuts)], taus[: len(cuts)] + rate, first)


def _band_width(
    fs: np.ndarray, cuts: Sequence[int], ratios: np.ndarray, taus: np.ndarray, first: int
) -> tuple[int, np.ndarray]:
    """The narrowest band width in ``cuts`` that certifies the pool's rows and f_S, and what it leaves uncertified.

    At J = cuts[c], ``ratios[c]`` is c(J) = max_i tail_i(J) / head_i(J) and
    ``taus[c]`` is tau(J) + rate (``_pool_pass1``), on the rows as cut.  At
    k >= J the kept terms of mu_i(k) sum to at least head_i(J)
    min_{k-J < m <= k} f_S(m); at k < J a row contributes its cut terms only
    at k >= L_i, where all its kept terms are inside the lattice, so they
    sum to at least head_i(J) min_{m <= k} f_S(m).  Of the terms the band
    leaves out (k >= J only), those with j < 2J sum to at most
    tail_i(J) max_{k-2J < m <= k-J} f_S(m), and the rest to at most
    tail_i(2J) max_{m <= k-2J} f_S(m), where
    tail_i(2J) <= c(2J) (1 + c(J)) head_i(J).  A row cut at L_i >= ``first``
    leaves out terms j >= L_i, which sum to at most
    bound_i max_{m <= k-first} f_S(m).  The claims the cuts drop from C, at
    least ``first`` units each at a Poisson rate of at most rate, leave f_S
    short by at most rate max_{m <= k-first} f_S(m) at k, and so a band row
    by at most head_i(J) times that.  So at every lattice point k where

        c(J) max_{k-2J < m <= k-J} f_S(m) + c(2J) (1 + c(J)) max_{m <= k-2J} f_S(m)
            + (tau(J) + rate) max_{m <= k-first} f_S(m) <= eps min_{k-J < m <= k} f_S(m),

    the first two terms taken as 0 below J and 2J, the third below
    ``first``, and the window cut at the start of the lattice, what is left
    out of mu_i(k), for every row at once, and of f_S(k) is at most eps
    times it.  The first J at which this holds for every k with f_S(k) above
    DEFAULT_UNDERFLOW_FLOOR is returned, with no point left; past the last
    of ``cuts``, the longest row, c is 0.  If no J qualifies, the widest is
    returned with the points above the floor that it leaves uncertified.
    """
    eps = np.finfo(float).eps
    n = len(fs)
    above = fs > DEFAULT_UNDERFLOW_FLOOR
    peak = np.maximum.accumulate(fs)
    reach = peak[: max(n - first, 0)]  # max_{m <= k-first} f_S(m) at k = first, first + 1, ...
    low, high, width = fs.copy(), fs.copy(), 1  # min and max of f_S over (k - width, k], over [0, k] below width
    for cut, ratio, after, tau in zip(cuts, ratios, [*ratios[1:], 0.0], taus):
        while width < cut:
            low[width:] = np.minimum(low[width:], low[:-width])
            high[width:] = np.maximum(high[width:], high[:-width])
            width *= 2
        left_out = np.zeros(n)
        np.multiply(tau, reach, out=left_out[first:], where=reach > 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # inf is uncertified
            left_out[cut:] += ratio * high[: n - cut]
            left_out[2 * cut :] += after * (1.0 + ratio) * peak[: max(n - 2 * cut, 0)]
            uncertified = above & ~(left_out <= eps * low)
        if not uncertified.any():
            break
    return cut, uncertified


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
    cum = np.cumsum(table.rows(risk))
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


def oracle_size_biased_rows(risks: Sequence[RiskModel], kmax: int) -> np.ndarray:
    """The n x kmax rows of independent ``risks`` by ``oracle_size_biased``, the others convolved directly."""
    rows = np.empty((len(risks), kmax))
    for i, risk in enumerate(risks):
        others = np.zeros(kmax)
        others[0] = 1.0
        for j, other in enumerate(risks):
            if j != i:
                others = np.convolve(others, other.pmf_vector(kmax))[:kmax]
        rows[i] = oracle_size_biased(risk, pmf_from_values(others))
    return rows


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
        return _enumerate_frailty(dep, portfolio.risks, kmax, budget)
    raise OracleBudget(f"no finite joint enumeration for dependence {type(dep).__name__}")


def _enumerate_independent(risks, kmax, budget) -> AllocationTable:
    if not risks:
        raise EmptyDistribution("empty portfolio")
    step_h = common_step(risks)
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
    return assemble_table(fs, [(slice(None), mu, None)], means, step_h=step_h)


def _enumerate_frailty(spec, risks, kmax, budget) -> AllocationTable:
    b, q = bernoulli_margins(risks)
    n = len(b)
    theta_w = spec.theta_pmf()
    if (2**n) * len(theta_w) > budget:
        raise OracleBudget(f"frailty enumeration needs {(2 ** n) * len(theta_w)} > {budget} outcomes")
    r_pows = spec.conditional_claim_probs(q)  # shape (theta_star, n)
    fs = np.zeros(kmax)
    mu = np.zeros((n, kmax))
    for combo in itertools.product((0, 1), repeat=n):
        s = int(np.dot(combo, b))
        if s >= kmax:
            continue
        cond = np.where(np.asarray(combo, dtype=bool), r_pows, 1.0 - r_pows)
        p = float(np.dot(theta_w, cond.prod(axis=1)))
        fs[s] += p
        for i, c in enumerate(combo):
            if c:
                mu[i, s] += b[i] * p
    return assemble_table(fs, [(slice(None), mu, None)], b * q)
