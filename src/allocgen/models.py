"""Risk models: two-parameter count family, explicit pmfs, random sums, scaled indicators.

The count family is the (a, b) recursion class ``f(k) = (a + b/k) f(k-1)``,
which contains Poisson (a = 0), negative binomial (a = 1 - q) and binomial
(a = -q/(1-q), any q in (0, 1)).  Every risk model exposes the same small
surface: a truncated mass vector, a pgf evaluated on a complex buffer, its
mean, and a support bound when one exists.  A claim count is the random sum
of unit claims (``UNIT_CLAIM``), and every random sum, a count included,
takes its mass vector from the compound counting recursion, except over
binomial counts, whose recursion is unstable for q > 1/2 and which are
expanded by repeated squaring instead.  A sampled pool of Poisson random
sums with negative-binomial severities is held as its draws
(``PoissonNegbinPool``) and builds its risks only when asked;
``poisson_pool`` reads the rows c(j) of any portfolio, stored or sampled,
block by block, where c(t) P_S(t) is a margin's allocation generating
function (``canonical_row``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np

from . import gf
from .errors import AllocationError, InvalidMarginal, KatzDomain
from .pmf import DiscretePMF, pmf_from_values, truncated_pmf


@dataclass(frozen=True)
class KatzParams:
    """Parameters of the (a, b) count recursion; requires a < 1.

    The mean is (a + b)/(1 - a), which specializes to lam, r(1-q)/q and m q for
    the three members.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise KatzDomain(f"a and b must be finite, got a={self.a}, b={self.b}")
        if not self.a < 1.0:
            raise KatzDomain(f"a must be < 1, got a={self.a}")
        if self.a + self.b < 0.0:
            raise KatzDomain(f"a + b = {self.a + self.b} < 0 gives a negative mass at 1")
        if self.a < 0.0:
            # a < 0 is the binomial member; the recursion only stays non-negative
            # when it terminates, i.e. -b/a is a positive integer
            ratio = -self.b / self.a
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise KatzDomain(
                    f"a < 0 requires -b/a to be a positive integer, got {ratio}"
                )

    @classmethod
    def poisson(cls, lam: float) -> "KatzParams":
        if not 0.0 <= lam < math.inf:
            raise KatzDomain(f"poisson rate must be finite and >= 0, got {lam}")
        return cls(0.0, lam)

    @classmethod
    def negative_binomial(cls, r: float, q: float) -> "KatzParams":
        if not (0.0 < r < math.inf and 0.0 < q < 1.0):
            raise KatzDomain(f"need finite r > 0 and q in (0,1), got r={r}, q={q}")
        return cls(1.0 - q, (r - 1.0) * (1.0 - q))

    @classmethod
    def binomial(cls, m: int, q: float) -> "KatzParams":
        if not (0.0 < q < 1.0):
            raise KatzDomain(f"binomial success probability must lie in (0, 1), got {q}")
        if m < 1 or m != int(m):
            raise KatzDomain(f"binomial count must be a positive integer, got {m}")
        return cls(-q / (1.0 - q), (m + 1) * q / (1.0 - q))

    @property
    def mean(self) -> float:
        return (self.a + self.b) / (1.0 - self.a)

    def support_top(self) -> Optional[int]:
        """Largest support point, or None when the support is unbounded."""
        if self.a + self.b == 0.0:
            return 0
        if self.a < 0.0:
            return int(round(-self.b / self.a)) - 1
        return None

    def pgf(self, s) -> np.ndarray:
        """pgf evaluated at complex arguments with |s| <= 1.

        For 0 < a < 1 the base (1-a)/(1-a s) stays in the right half-plane, so
        the principal power is branch-safe.  For a < 0 (binomial, exponent -m)
        it is the polynomial ((1 - a s)/(1 - a))^m = (1 - q + q s)^m, which has
        no pole where 1 - a s vanishes (q = 1/2 at s = -1).
        """
        s = np.asarray(s, dtype=complex)
        if self.a == 0.0:
            return np.exp(self.b * (s - 1.0))
        if self.a < 0.0:
            return ((1.0 - self.a * s) / (1.0 - self.a)) ** self.support_top()
        return ((1.0 - self.a) / (1.0 - self.a * s)) ** (self.b / self.a + 1.0)

    def log_pgf(self, s: float) -> float:
        """log of the pgf at a real s in [0, 1], kept finite where the pgf itself underflows."""
        if self.a == 0.0:
            return self.b * (s - 1.0)
        return (self.b / self.a + 1.0) * math.log((1.0 - self.a) / (1.0 - self.a * s))


# The Poisson pool engine reads severities, and negbin_rows runs its recursion,
# in blocks of this many rows; negbin_rows cumulates masses _NEGBIN_CHUNK
# columns at a time, and the pool reader _READ_CHUNK, so that it reads little
# past a row's cut.  Iterating a sampled pool builds its risks from groups of
# _ITER_ROWS rows, whose full-width buffer is an eighth of a block's.
ROW_BLOCK = 128
_ITER_ROWS = 16
_NEGBIN_CHUNK = 512
_READ_CHUNK = 64
_TINY = np.finfo(float).tiny
# A pool reader cuts a c row where a bound on the mass past the cut is at
# most this fraction of the mass before it (``_TailCut``).
_CUT_TOL = np.finfo(float).eps ** 2
# counting_recursion rescales its carried masses by 2^-_PANJER_SHIFT once
# one passes 2^_PANJER_SHIFT.
_PANJER_SHIFT = 600
_PANJER_RESCALE_AT = 2.0**_PANJER_SHIFT
# OpenBLAS splits a dot product over 10^4 entries across threads, which changes
# its summation order; counting_recursion sums longer windows, and
# _chunked_convolve convolves longer factors, in pieces this long
_DOT_CHUNK = 4096


def negbin_rows(r, q, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First n masses of NB(r_i, q_i), one row per pair, as ``(masses, lengths)``.

    ``masses`` is a fresh block, the chunks of ``negbin_chunks`` joined; row
    i is zero from ``lengths[i]`` on, just after its last positive mass (0
    if it has none).  Its callers pass at most ROW_BLOCK pairs at a time.
    """
    f = np.concatenate(list(negbin_chunks(r, q, n)), axis=1)
    positive = f > 0.0
    lengths = np.where(positive.any(axis=1), f.shape[1] - np.argmax(positive[:, ::-1], axis=1), 0)
    return f, lengths


def negbin_chunks(r, q, n: int, width: int = _NEGBIN_CHUNK) -> Iterator[np.ndarray]:
    """The first n masses of NB(r_i, q_i), one row per pair, as fresh blocks of columns in order.

    Each block holds ``width`` columns, the last one fewer.  Row i is the
    recursion f(0) = q^r, f(k) = f(0) P_k, where P_k is the running product,
    taken in order, of the ratios f(j)/f(j-1) = (1-q)(r+j-1)/j.  Masses
    below the smallest normal float are exact zeros.  The ratios are
    monotone in k with limit 1 - q < 1, so once one ratio is below 1 the
    masses only fall: a row stops after the first block that ends below
    that float with a ratio below 1, and the blocks stop when all of their
    rows have.  A caller may stop asking sooner.  Each row depends on its
    own (r, q) only, and each mass on those before it, so a row is the same
    in any block and its first m masses are the same for every n >= m, in
    blocks of any width.

    Scaled recursion.  With q^r = m 2^x (m in [1/2, 1)), the running product
    is carried as 2^e P_k with e = x + 1021, and each mass is the product of
    the exact factors m 2^-1021 and 2^e P_k.  Both scalings are exact powers
    of two, so every kept mass is the one rounding of the same real number
    f(0) P_k: bit-identical to the unscaled recursion.  The carried product
    stays below 2^1022 and, wherever the masses are kept, above 2^-1, which
    leaves about a thousand binary orders of normal range below each row's
    last kept mass; without it a finished row runs on in slow subnormal
    arithmetic to the end of its chunk.  A q^r below the smallest normal
    float takes m and x from r log2(q) instead of rounding to zero, which
    puts a relative error of about |r log2(q)| times the float epsilon on
    that row's masses; below q^r = 2^-2044 the scale itself would underflow,
    and KatzDomain is raised.
    """
    r = np.asarray(r, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(r > 0.0) and np.all((q > 0.0) & (q < 1.0))):
        raise KatzDomain("negative binomial severities need r > 0 and q in (0, 1)")
    if n < 1:
        raise KatzDomain(f"need at least one negative binomial mass, got n={n}")
    # q^r by Python's float power, row by row: numpy's vectorised power
    # differs from it in the last bit for some arguments
    f0 = np.array([qi**ri for qi, ri in zip(q.tolist(), r.tolist())])
    mant, expo = np.frexp(f0)
    low = f0 < _TINY
    if low.any():
        t = r[low] * np.log2(q[low])
        expo[low] = np.floor(t) + 1
        mant[low] = np.exp2(t - expo[low])
    if expo.min(initial=0) < -2043:
        i = int(np.argmin(expo))
        raise KatzDomain(f"NB(r={r[i]}, q={q[i]}): q^r is below 2^-2044, out of the scaled range")
    return _negbin_chunks(r, q, n, width, np.ldexp(mant, -1021), np.ldexp(1.0, expo + 1021))


def _negbin_chunks(r, q, n, width, f0_scaled, head):
    """``negbin_chunks`` once its arguments are checked: q^r 2^-e is ``f0_scaled`` and 2^e ``head``."""
    ratios = np.empty((len(r), width))
    carry, finished = head, np.zeros(len(r), dtype=bool)
    p = 1.0 - q
    r_col, p_col = r[:, None], p[:, None]
    for start in range(0, n, width):
        end = min(start + width, n)
        piece = np.empty((len(r), end - start))
        if start == 0:
            piece[:, 0] = f0_scaled * head
        lo = max(start, 1)
        if lo < end:
            k = np.arange(lo, end, dtype=float)
            # (1 - q) (r + k - 1) / k, one rounding per operation as written
            chunk = ratios[:, : end - lo]
            np.add(r_col, k, out=chunk)
            chunk -= 1.0
            chunk *= p_col
            chunk /= k
            chunk[:, 0] *= carry
            np.cumprod(chunk, axis=1, out=chunk)
            np.multiply(f0_scaled[:, None], chunk, out=piece[:, lo - start :])
            # a finished row carries zero, so it costs no subnormal products
            finished = (piece[:, -1] < _TINY) & (p * (r + k[-1] - 1.0) < k[-1])
            carry = np.where(finished, 0.0, chunk[:, -1])
        piece[piece < _TINY] = 0.0
        yield piece
        if finished.all():
            return


def _chunked_dot(u: np.ndarray, v: np.ndarray) -> float:
    """u @ v, summed as consecutive dots of at most _DOT_CHUNK entries, so at any BLAS thread count alike."""
    if len(u) <= _DOT_CHUNK:
        return u @ v
    total = u[:_DOT_CHUNK] @ v[:_DOT_CHUNK]
    for i in range(_DOT_CHUNK, len(u), _DOT_CHUNK):
        total += u[i : i + _DOT_CHUNK] @ v[i : i + _DOT_CHUNK]
    return total


def _chunked_convolve(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The first n entries of u * v, ``u`` convolved in pieces of at most _DOT_CHUNK entries added in order."""
    out = np.zeros(min(len(u) + len(v) - 1, n))
    for c in range(0, min(len(u), n), _DOT_CHUNK):
        piece = np.convolve(u[c : c + _DOT_CHUNK], v[: n - c])[: n - c]
        out[c : c + len(piece)] += piece
    return out


def compound_pmf_panjer(frequency: KatzParams, severity: np.ndarray, kmax: int) -> np.ndarray:
    """pmf of the random sum by the counting recursion (no transforms).

    Severity mass at zero is allowed.  Used both as a production conversion and
    as the transform-free cross-check of the pgf composition path.  The
    recursion g(k) = sum_j (a + b j / k) fb(j) g(k - j) / (1 - a fb(0)) runs
    in ``counting_recursion`` from log g(0) = log P_N(fb(0)).
    """
    a, b = frequency.a, frequency.b
    fb = np.zeros(kmax)
    m = min(kmax, len(severity))
    fb[:m] = severity[:m]
    top = int(np.flatnonzero(fb)[-1]) if fb.any() else 0
    tail, denom = fb[1 : top + 1], 1.0 - a * fb[0]
    j = np.arange(1, top + 1, dtype=float)
    g = counting_recursion(frequency.log_pgf(fb[0]), b * j * tail / denom, kmax, a * tail / denom if a else None)
    ftop = frequency.support_top()
    if ftop is not None and ftop * top + 1 < kmax:
        g[ftop * top + 1 :] = 0.0  # terminating counts leave recursion noise past the bound
    return g


def counting_recursion(log_g0: float, over_k: np.ndarray, kmax: int, flat: Optional[np.ndarray] = None) -> np.ndarray:
    """g on kmax points from g(0) = exp(log_g0) and g(k) = sum_{1 <= j <= top} (flat(j) + over_k(j) / k) g(k - j).

    ``over_k`` and ``flat`` (zero when None) hold j = 1..top.  With C as
    ``over_k`` this is the log-derivative recursion k g(k) = sum_j C(j) g(k - j).
    When g(0) underflows, as a large pool's does, the recursion (linear in
    g) carries g 2^-e: it starts from the mantissa of g(0), taken from
    log g(0), and whenever a mass passes 2^_PANJER_SHIFT it multiplies the
    masses so far by 2^-_PANJER_SHIFT and adds _PANJER_SHIFT to e; they are
    scaled back once at the end.  Where g(0) is normal, e stays 0.
    """
    g, e = np.zeros(kmax), 0
    g[0] = np.exp(log_g0)
    scaled = not g[0] >= _TINY
    if scaled:  # g(0) = m 2^e with m in [1, 2)
        e = math.floor(log_g0 / math.log(2.0))
        g[0] = math.exp(log_g0 - e * math.log(2.0))
    top = len(over_k)
    # the coefficients are stored reversed, so each sum is a dot with the contiguous g[k - mm : k]
    over_k = over_k[::-1].copy()
    flat = None if flat is None else flat[::-1].copy()
    for k in range(1, kmax if top else 1):
        mm = min(k, top)
        window = g[k - mm : k]
        g[k] = _chunked_dot(over_k[top - mm :], window) / k
        if flat is not None:
            g[k] += _chunked_dot(flat[top - mm :], window)
        if scaled and g[k] > _PANJER_RESCALE_AT:
            g[: k + 1] *= 2.0**-_PANJER_SHIFT
            e += _PANJER_SHIFT
    if scaled:
        g = np.ldexp(g, e)
    return g


def compound_pmf_binomial(frequency: KatzParams, severity: np.ndarray, kmax: int) -> np.ndarray:
    """pmf of a binomial random sum, (1 - q + q P_B)^m, by repeated squaring (no transforms).

    Every mass is a sum of products of non-negative masses, so each keeps its
    relative accuracy.  The counting recursion does not once q > 1/2, where
    |a| > 1 amplifies its round-off: against exact convolution, severity
    [0, 0.6, 0.4] at m = 20, q = 0.7 loses 8 digits, and m = 100, q = 0.99
    overflows.
    """
    a, m = frequency.a, frequency.support_top()
    q = -a / (1.0 - a)
    h = q * np.asarray(severity[:kmax], dtype=float)
    h[0] += 1.0 - q
    out = np.ones(1)
    while True:
        if m & 1:
            out = _chunked_convolve(out, h, kmax)
        m >>= 1
        if not m:
            break
        h = _chunked_convolve(h, h, kmax)
    return np.pad(out, (0, kmax - len(out)))


@dataclass(frozen=True)
class ExplicitRisk:
    """A risk given directly by its lattice pmf."""

    pmf: DiscretePMF

    def pmf_vector(self, kmax: int) -> np.ndarray:
        return self.pmf.padded(kmax)

    def pgf_on_roots(self, z: np.ndarray) -> np.ndarray:
        return gf.dft(self.pmf.padded(len(z)))

    def mean(self) -> float:
        return self.pmf.mean()

    def support_top(self) -> Optional[int]:
        return self.pmf.support_top()


UNIT_CLAIM = DiscretePMF(np.array([0.0, 1.0]))


@dataclass(frozen=True)
class CompoundKatzRisk:
    """Random sum of iid lattice severities over an (a, b) family count.

    A claim count is a sum of ``UNIT_CLAIM``s.  Its masses are the random
    sum's, as for any severity: by repeated squaring over a binomial count
    and by the counting recursion otherwise.  Over that severity itself (by
    identity, not by value) the pgf is the count's own closed form.
    """

    frequency: KatzParams
    severity: DiscretePMF

    def pmf_vector(self, kmax: int) -> np.ndarray:
        if self.frequency.a < 0.0:
            return compound_pmf_binomial(self.frequency, self.severity.masses, kmax)
        return compound_pmf_panjer(self.frequency, self.severity.masses, kmax)

    def pgf_on_roots(self, z: np.ndarray) -> np.ndarray:
        if self.severity is UNIT_CLAIM:
            return self.frequency.pgf(z)
        return gf.compound_pgf_on_roots(self.frequency, gf.dft(self.severity.padded(len(z))))

    def mean(self) -> float:
        return self.frequency.mean * self.severity.mean()

    def support_top(self) -> Optional[int]:
        ftop = self.frequency.support_top()
        if ftop is None:
            return None
        return ftop * self.severity.support_top()


@dataclass(frozen=True)
class BernoulliRisk:
    """All-or-nothing payment: b with probability q, else 0."""

    b: int
    q: float

    def __post_init__(self):
        if self.b < 1 or self.b != int(self.b):
            raise KatzDomain(f"payment must be a positive integer, got {self.b}")
        if not (0.0 < self.q < 1.0):
            raise KatzDomain(f"claim probability must lie in (0,1), got {self.q}")

    def pmf_vector(self, kmax: int) -> np.ndarray:
        out = np.zeros(kmax)
        out[0] = 1.0 - self.q
        if self.b < kmax:
            out[self.b] = self.q
        return out

    def pgf_on_roots(self, z: np.ndarray) -> np.ndarray:
        return 1.0 - self.q + self.q * np.asarray(z, dtype=complex) ** self.b

    def mean(self) -> float:
        return self.q * self.b

    def support_top(self) -> Optional[int]:
        return self.b


def bernoulli_margins(risks: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """The int payments and float claim probabilities of ``risks``, any iterable (a ``RiskChain`` too).

    InvalidMarginal unless it holds at least one risk and only ``BernoulliRisk``s.
    """
    risks = list(risks)
    if not risks or not all(isinstance(r, BernoulliRisk) for r in risks):
        raise InvalidMarginal("need a non-empty list of Bernoulli risks")
    return np.array([r.b for r in risks], dtype=int), np.array([r.q for r in risks], dtype=float)


RiskModel = Union[ExplicitRisk, CompoundKatzRisk, BernoulliRisk]


class PoissonNegbinPool(Sequence):
    """Independent Poisson(lam_i) random sums of NB(r_i, q_i) severities, held as their draws.

    Risk i is the ``CompoundKatzRisk`` whose severity is the first
    ``severity_length`` NB(r_i, q_i) masses, cut after the last positive one
    and wrapped by ``pmf.truncated_pmf``.  No severity is stored: ``pool[i]``
    builds its risk from its own row of the recursion (``severity_rows``),
    and iteration builds them _ITER_ROWS rows at a time, so both are
    bit-identical to building each risk alone, and iterating costs one run
    of the recursion; it lets go of each risk once it has handed it out.  A
    slice is a pool of the same kind.  The Poisson pool engine reads the
    severities a block of rows at a time (through ``poisson_pool``) and
    never builds the risks.
    """

    def __init__(self, lam, r, q, severity_length: int):
        self.lam = np.asarray(lam, dtype=float)
        self.r = np.asarray(r)
        self.q = np.asarray(q, dtype=float)
        self.severity_length = int(severity_length)

    def __len__(self) -> int:
        return len(self.lam)

    def __repr__(self) -> str:
        return f"PoissonNegbinPool({len(self)} risks, severity_length={self.severity_length})"

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return PoissonNegbinPool(self.lam[idx], self.r[idx], self.q[idx], self.severity_length)
        i = range(len(self))[idx]
        return self._risks(slice(i, i + 1))[0]

    def __iter__(self) -> Iterator[CompoundKatzRisk]:
        for lo in range(0, len(self), _ITER_ROWS):
            block = self._risks(slice(lo, lo + _ITER_ROWS))[::-1]
            while block:
                yield block.pop()

    def _risks(self, rows: slice) -> list[CompoundKatzRisk]:
        # the risks copy their rows, so a block's masses are freed before the next block's
        return [
            CompoundKatzRisk(KatzParams.poisson(lam), truncated_pmf(row[:top].copy()))
            for lam, row, top in zip(self.lam[rows].tolist(), *self.severity_rows(rows))
        ]

    def severity_rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """``negbin_rows`` of the risks ``rows`` over all ``severity_length`` points.

        A severity with no positive mass raises KatzDomain.
        """
        r, q = self.r[rows], self.q[rows]
        masses, lengths = negbin_rows(r, q, self.severity_length)
        _require_mass(r, q, lengths, self.severity_length)
        return masses, lengths


def _require_mass(r: np.ndarray, q: np.ndarray, lengths: np.ndarray, n: int) -> None:
    """KatzDomain unless every NB(r_i, q_i) row of ``negbin_rows`` over n points has a positive mass."""
    if not lengths.all():
        i = int(np.argmin(lengths))
        raise KatzDomain(f"NB(r={r[i]}, q={q[i]}) has no mass above the smallest normal float in its first {n} points")


class RiskChain:
    """Sequences of risks iterated as one, in order: a portfolio's explicit risks, then its sampled ones.

    Iteration gives each part's own risks, the risks of the parts' list, so
    a sampled pool in a chain builds its risks only as they are reached.
    Only ``poisson_pool`` reads the parts themselves.  Empty parts are
    dropped.
    """

    def __init__(self, *parts: Sequence):
        self.parts = tuple(part for part in parts if len(part))

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __iter__(self) -> Iterator:
        return itertools.chain.from_iterable(self.parts)


def canonical_row(risk, n: int) -> Optional[np.ndarray]:
    """c(j), j < n, of ``risk``'s allocation generating function c(t) P_S(t); None for a dense margin.

    By the compound Katz rule an (a, b) random sum X has c = t (ln P_X)', so
    E[X 1{S = k}] = sum_j c(j) f_S(k - j).  The rule takes the margins whose c
    is closed-form and non-negative: b j f_B(j) for a Poisson random sum, on
    its severity's first n points, and (a + b) a^(j-1), j >= 1, for an NB
    count, on n points, the powers stopping where a^(j-1) rounds to 0.
    """
    if not isinstance(risk, CompoundKatzRisk):
        return None
    a, b = risk.frequency.a, risk.frequency.b
    if a == 0.0:
        masses = risk.severity.masses[:n]
        return masses * (b * np.arange(len(masses), dtype=float))
    if a < 0.0 or risk.severity is not UNIT_CLAIM:
        return None
    top = min(n, int(1076 / -math.log2(a)) + 2)
    row = np.zeros(n)
    row[1:top] = (a + b) * a ** np.arange(top - 1, dtype=float)
    return row


def poisson_pool(risks: Iterable, kmax: int):
    """Sum of log f_i(0), lattice step, row reader and other margins of ``risks``; None if none has a c row.

    This is how the Poisson pool engine reads a portfolio, whatever holds
    it: a list of risks, a ``PoissonNegbinPool`` or a ``RiskChain`` of both,
    and the one code that walks a chain's parts.  A margin with no
    ``canonical_row`` is an other margin (``others`` maps its index to it),
    which the engine convolves directly: it adds no log f(0) and reads as a
    zero row of length 0 and kept mass 1.  The set-up forms no rows.
    ``read(rows, columns=None, whole=False)`` gives fresh ``(c rows,
    lengths, kept, tails)`` for any slice of rows, each row zero from its
    length on and ``kept`` its severity's mass on ``kmax`` points.  A full
    read cuts each row where ``_TailCut`` certifies that the rest of it is
    negligible (only where it ends if ``whole``), and ``tails`` bounds what
    each row leaves out past its length: the cut's bound, or for an NB count
    the geometric rest of its c past the last column.  A read over the first
    ``columns`` points cuts no row, and its tails are 0; the caller cuts the
    rows where a full read did.  Each part reads exactly its rows in the
    slice: a sampled pool by its row recursion times lam_i j, building no
    risk, and listed risks by ``canonical_row``, zero-padded to the part's
    longest.  Parts are joined zero-padded to the widest.  A row reads the
    same in any slice, and a sampled row as its listed risk does.  A stored
    part's lattice step is ``common_step``'s (a sampled pool's is 1);
    different steps raise AllocationError.
    """
    parts = risks.parts if isinstance(risks, RiskChain) else (risks,)
    starts = list(itertools.accumulate(map(len, parts), initial=0))
    log_f0, reads, steps, others = [], [], set(), {}
    for start, part in zip(starts, parts):
        if isinstance(part, PoissonNegbinPool):
            # lam_i (q_i^r_i - 1), with q^r by Python's float power as negbin_rows forms f_i(0)
            f0 = np.array([qi**ri for qi, ri in zip(part.q.tolist(), part.r.tolist())])
            log_f0.append(part.lam * (f0 - 1.0))
            reads.append(partial(_sampled_rows, part, kmax))
            steps.add(1.0)
            continue
        longest, logs = 1, []  # a block of dense margins alone still has one column
        for i, risk in enumerate(part, start):
            if canonical_row(risk, 1) is None:
                others[i] = risk
                continue
            logs.append(risk.frequency.log_pgf(risk.severity.masses[0]))
            longest = max(longest, kmax if risk.frequency.a else len(risk.severity.masses))
        log_f0.append(np.array(logs, dtype=float))
        reads.append(partial(_stored_rows, part, kmax, longest))
        steps.add(common_step(part))
    if len(others) == starts[-1]:
        return None

    def read(rows: slice, columns: Optional[int] = None, whole: bool = False):
        lo, hi, _ = rows.indices(starts[-1])
        # the pieces live only in this call, so no part's buffer outlives its read
        return _stacked([
            part_read(slice(max(lo, start) - start, min(hi, stop) - start), columns, whole)
            for part_read, start, stop in zip(reads, starts, starts[1:])
            if start < hi and lo < stop
        ])

    if len(steps) > 1:
        raise AllocationError(f"risks use different lattice steps: {sorted(steps)}")
    # summed exactly, so a chain's sum is its list's
    return math.fsum(np.concatenate(log_f0)), steps.pop(), read, others


def common_step(risks: Iterable) -> float:
    """The lattice step all ``risks`` share: a pmf's or severity's own, 1 for indicators.

    Risks on different steps raise AllocationError.
    """
    steps = {
        r.pmf.step_h if isinstance(r, ExplicitRisk)
        else r.severity.step_h if isinstance(r, CompoundKatzRisk)
        else 1.0
        for r in risks
    }
    if len(steps) > 1:
        raise AllocationError(f"risks use different lattice steps: {sorted(steps)}")
    return steps.pop()


def _stacked(pieces: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Row pieces ``(rows, lengths, kept, tails)`` as one block: a lone piece as it came, more padded to the widest."""
    if len(pieces) == 1:
        return pieces[0]
    rows, *per_row = zip(*pieces)
    width = max(c.shape[1] for c in rows)
    padded = np.concatenate([np.pad(c, ((0, 0), (0, width - c.shape[1]))) for c in rows])
    return padded, *map(np.concatenate, per_row)


class _TailCut:
    """Where to cut each row of a block of c rows, fed the block's columns in order, a chunk at a time.

    Row i is cut at the first column L with c(L-1) > 0 and rho = c(L) /
    c(L-1) < 1 at which the bound c(L) / (1 - rho) is at most ``tol``
    (_CUT_TOL) times sum_{j<L} c(j).  A Poisson random sum of NB(r, q)
    claims has c(j+1) / c(j) = (1 - q)(r + j) / j, falling with j, so
    sum_{j>=L} c(j) is at most that bound, up to the round-off of rho,
    which is formed from rounded values.  A row that ends (c(L) = 0) is cut
    there with bound 0.  For any other row the bound proves nothing, so
    ``_stored_rows`` cuts a stored row only where its stored rest is below
    the bound by a relative 2^-40, far more than that round-off: an NB
    count's c is geometric, its bound is its rest, and it is not cut.  Every
    test is made on the row's values alone, entry by entry, with its sums
    taken in order of columns, so a row is cut at the same column with the
    same bound however its columns are chunked: a sampled row as its listed
    risk.
    """

    def __init__(self, n: int, tol: float = _CUT_TOL):
        self.tol = tol
        self.at, self.bound = np.full(n, -1), np.zeros(n)  # at -1 while the row runs on
        self.last, self.head, self.start = np.zeros(n), np.zeros(n), 0  # c(start - 1), sum_{j<start} c(j)

    def feed(self, c: np.ndarray) -> bool:
        """Take the rows' next columns; True once every row is cut."""
        heads = np.cumsum(np.concatenate([self.head[:, None], c], axis=1), axis=1)
        before = np.concatenate([self.last[:, None], c[:, :-1]], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = c / before
            bound = c / (1.0 - rho)
        fits = (before > 0.0) & (rho < 1.0) & (bound <= self.tol * heads[:, :-1])
        new = np.flatnonzero((self.at < 0) & fits.any(axis=1))
        first = np.argmax(fits[new], axis=1)
        self.at[new], self.bound[new] = self.start + first, bound[new, first]
        self.last, self.head, self.start = c[:, -1], heads[:, -1], self.start + c.shape[1]
        return bool((self.at >= 0).all())


def _sampled_rows(
    pool: PoissonNegbinPool, kmax: int, rows: slice, columns: Optional[int] = None, whole: bool = False
):
    """The c rows lam_i j f_Bi(j) of ``pool[rows]``, their lengths, kept severity masses and tails.

    A full read runs the NB recursion (``negbin_chunks``) _READ_CHUNK columns
    at a time until every row is cut (``_TailCut``) or ends; a read over
    ``columns`` points runs it over those points (``negbin_rows``) and cuts
    no row.
    """
    lam, r, q = pool.lam[rows], pool.r[rows], pool.q[rows]
    if columns is not None:
        masses, lengths = negbin_rows(r, q, min(columns, pool.severity_length))
        kept = masses[:, :kmax].sum(axis=1)
        masses *= lam[:, None] * np.arange(masses.shape[1], dtype=float)
        return masses, lengths, kept, np.zeros(len(lam))
    cut, pieces = _TailCut(len(lam), 0.0 if whole else _CUT_TOL), []
    kept, lengths, start = np.zeros(len(lam)), np.zeros(len(lam), dtype=int), 0
    for c in negbin_chunks(r, q, pool.severity_length, _READ_CHUNK):
        positive = c > 0.0
        ends = start + c.shape[1] - np.argmax(positive[:, ::-1], axis=1)
        lengths = np.where(positive.any(axis=1), ends, lengths)
        kept += c[:, : max(kmax - start, 0)].sum(axis=1)
        c *= lam[:, None] * np.arange(start, start + c.shape[1], dtype=float)
        pieces.append(c)
        start += c.shape[1]
        if cut.feed(c):
            break
    _require_mass(r, q, lengths, pool.severity_length)
    lengths = np.where(cut.at >= 0, cut.at, lengths)
    c = np.concatenate(pieces, axis=1)[:, : lengths.max(initial=1)]
    c[np.arange(c.shape[1]) >= lengths[:, None]] = 0.0
    return c, lengths, kept, cut.bound


def _stored_rows(
    risks: Sequence, kmax: int, longest: int, rows: slice, columns: Optional[int] = None, whole: bool = False
):
    """The c rows (``canonical_row``) of ``risks[rows]`` on ``longest`` (or ``columns``) points, and their data.

    Returns the rows, lengths, kept masses and tails.  A full read cuts each
    row where ``_TailCut`` says and its stored rest is provably within the
    bound; a read over ``columns`` points cuts no row.
    """
    chosen = risks[rows]
    width = longest if columns is None else columns
    out, lengths = np.zeros((len(chosen), width)), np.zeros(len(chosen), dtype=int)
    kept, tails = np.ones(len(chosen)), np.zeros(len(chosen))
    for i, risk in enumerate(chosen):
        row = canonical_row(risk, width)
        if row is not None:
            out[i, : len(row)] = row
            lengths[i] = len(row)
            kept[i] = risk.severity.masses[:kmax].sum()
            if columns is None:  # an NB count's c runs on geometrically past its last column
                tails[i] = row[-1] * risk.frequency.a / (1.0 - risk.frequency.a)
    if columns is not None:
        return out, lengths, kept, tails
    cut = _TailCut(len(chosen), 0.0 if whole else _CUT_TOL)
    for lo in range(0, longest, _READ_CHUNK):  # in chunks, which keeps the cut's work arrays small
        if cut.feed(out[:, lo : lo + _READ_CHUNK]):
            break
    for i in np.flatnonzero(cut.at >= 0).tolist():
        at = cut.at[i]
        if out[i, at:].sum() + tails[i] <= cut.bound[i] * (1.0 - 2.0**-40):
            out[i, at:], lengths[i], tails[i] = 0.0, at, cut.bound[i]
    return out, lengths, kept, tails


def poisson_risk(lam: float) -> CompoundKatzRisk:
    return CompoundKatzRisk(KatzParams.poisson(lam), UNIT_CLAIM)


def negative_binomial_risk(r: float, q: float) -> CompoundKatzRisk:
    return CompoundKatzRisk(KatzParams.negative_binomial(r, q), UNIT_CLAIM)


def binomial_risk(m: int, q: float) -> CompoundKatzRisk:
    return CompoundKatzRisk(KatzParams.binomial(m, q), UNIT_CLAIM)


def compound_poisson_risk(lam: float, severity) -> CompoundKatzRisk:
    sev = severity if isinstance(severity, DiscretePMF) else pmf_from_values(severity)
    return CompoundKatzRisk(KatzParams.poisson(lam), sev)


def explicit_risk(values, step_h: float = 1.0) -> ExplicitRisk:
    return ExplicitRisk(pmf_from_values(values, step_h))
