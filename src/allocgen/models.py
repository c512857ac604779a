"""Risk models: two-parameter count family, explicit pmfs, random sums, scaled indicators.

The count family is the (a, b) recursion class ``f(k) = (a + b/k) f(k-1)``,
which contains Poisson (a = 0), negative binomial (a = 1 - q) and binomial
(a = -q/(1-q), any q in (0, 1)).  Every risk model exposes the same small
surface: a truncated mass vector, a pgf evaluated on a complex buffer, its
mean, and a support bound when one exists.  A claim count is the random sum
of unit claims (``UNIT_CLAIM``).  Other random sums take their mass vector
from the counting recursion, except over binomial counts, whose recursion
is unstable for q > 1/2 and which are expanded by repeated squaring
instead.  A sampled pool of Poisson random sums with negative-binomial
severities is held as its draws (``PoissonNegbinPool``) and builds its
risks only when asked; ``poisson_pool`` reads the Poisson claims
(``poisson_claims``) of any portfolio, stored or sampled, block by block.
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
        if lam < 0.0:
            raise KatzDomain(f"poisson rate must be >= 0, got {lam}")
        return cls(0.0, lam)

    @classmethod
    def negative_binomial(cls, r: float, q: float) -> "KatzParams":
        if not (r > 0.0 and 0.0 < q < 1.0):
            raise KatzDomain(f"need r > 0 and q in (0,1), got r={r}, q={q}")
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

    def pmf(self, kmax: int) -> np.ndarray:
        """First ``kmax`` masses via the defining recursion f(k) = f(0) prod_{j<=k} (a + b/j).

        When f(0) underflows (a large mean), f(0) = m 2^x is taken from its log
        and the product runs on mantissas, _NEGBIN_CHUNK at a time with the
        carry brought back to [1/2, 1), while the powers of two add up exactly.
        """
        if self.a == 0.0:
            f0 = np.exp(-self.b)
        else:
            f0 = (1.0 - self.a) ** (self.b / self.a + 1.0)
        k = np.arange(1, kmax, dtype=float)
        f = np.empty(kmax)
        f[0] = f0
        if f0 < _TINY:
            log_f0 = -self.b if self.a == 0.0 else (self.b / self.a + 1.0) * math.log(1.0 - self.a)
            x = math.floor(log_f0 / math.log(2.0))
            f[0] = math.exp(log_f0 - x * math.log(2.0))
            f[1:] = self.a + self.b / k
            mant, expo = np.frexp(f)
            expo[0] += x
            carry = 1.0
            for lo in range(0, kmax, _NEGBIN_CHUNK):
                chunk = mant[lo : lo + _NEGBIN_CHUNK]
                chunk[0] *= carry
                np.cumprod(chunk, out=chunk)
                carry, shift = np.frexp(chunk[-1])
                expo[lo + _NEGBIN_CHUNK : lo + _NEGBIN_CHUNK + 1] += shift
            f = np.ldexp(mant, np.cumsum(expo))
        elif kmax > 1:
            f[1:] = f0 * np.cumprod(self.a + self.b / k)
        top = self.support_top()
        if top is not None and top + 1 < kmax:
            f[top + 1 :] = 0.0  # kill sign noise from the zero factor
        return f

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


# The Poisson pool engine reads severities, and negbin_rows runs its recursion,
# in blocks of this many rows; negbin_rows cumulates masses this many columns at
# a time, and so does KatzParams.pmf's scaled run.
ROW_BLOCK = 128
_NEGBIN_CHUNK = 512
_TINY = np.finfo(float).tiny
# compound_pmf_panjer rescales its carried masses by 2^-_PANJER_SHIFT once
# one passes 2^_PANJER_SHIFT.
_PANJER_SHIFT = 600
_PANJER_RESCALE_AT = 2.0**_PANJER_SHIFT
# OpenBLAS splits a dot product over 10^4 entries across threads, which changes
# its summation order; compound_pmf_panjer sums longer windows, and
# _chunked_convolve convolves longer factors, in pieces this long
_DOT_CHUNK = 4096


def negbin_rows(r, q, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First n masses of NB(r_i, q_i), one row per pair, as ``(masses, lengths)``.

    ``masses`` is a fresh block, joined from its chunks once it stops; row i
    is zero from ``lengths[i]`` on, just after its last positive mass (0 if
    it has none).  Its callers pass at most ROW_BLOCK pairs at a time.

    Row i is the recursion f(0) = q^r, f(k) = f(0) P_k, where P_k is the
    running product, taken in order, of the ratios f(j)/f(j-1) =
    (1-q)(r+j-1)/j.  Masses below the smallest normal float are exact zeros.
    The ratios are monotone in k with limit 1 - q < 1, so once one ratio is
    below 1 the masses only fall: a row stops after the first chunk of
    _NEGBIN_CHUNK columns that ends below that float with a ratio below 1, and
    the block stops when all of its rows have; its width is where it stopped.
    Each row depends on its own (r, q) only, and each mass on those before
    it, so a row is the same in any block and its first m masses are the
    same for every n >= m.

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
    head = np.ldexp(1.0, expo + 1021)  # 2^e
    f0_scaled = np.ldexp(mant, -1021)  # q^r 2^-e
    pieces = [(f0_scaled * head)[:, None]]
    ratios = np.empty((len(r), min(_NEGBIN_CHUNK, n)))
    carry = head
    p = 1.0 - q
    r_col, p_col = r[:, None], p[:, None]
    for start in range(1, n, _NEGBIN_CHUNK):
        end = min(start + _NEGBIN_CHUNK, n)
        k = np.arange(start, end, dtype=float)
        # (1 - q) (r + k - 1) / k, one rounding per operation as written
        chunk = ratios[:, : end - start]
        np.add(r_col, k, out=chunk)
        chunk -= 1.0
        chunk *= p_col
        chunk /= k
        chunk[:, 0] *= carry
        np.cumprod(chunk, axis=1, out=chunk)
        pieces.append(f0_scaled[:, None] * chunk)
        # a finished row carries zero, so it costs no subnormal products
        finished = (pieces[-1][:, -1] < _TINY) & (p * (r + k[-1] - 1.0) < k[-1])
        carry = np.where(finished, 0.0, chunk[:, -1])
        if finished.all():
            break
    f = np.concatenate(pieces, axis=1)
    f[f < _TINY] = 0.0
    positive = f > 0.0
    lengths = np.where(positive.any(axis=1), f.shape[1] - np.argmax(positive[:, ::-1], axis=1), 0)
    return f, lengths


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
    as the transform-free cross-check of the pgf composition path.

    When the first mass g(0) underflows, as it does for a large pool's total,
    the recursion (which is linear in g) runs on masses carried as g 2^-e:
    it starts from the mantissa of g(0), taken from log g(0), and whenever a
    carried mass passes 2^_PANJER_SHIFT it multiplies the masses so far by
    2^-_PANJER_SHIFT and adds _PANJER_SHIFT to e.  The masses are scaled back
    once at the end.  Where g(0) is a normal float, e stays 0 and nothing is
    rescaled.
    """
    a, b = frequency.a, frequency.b
    fb = np.zeros(kmax)
    m = min(kmax, len(severity))
    fb[:m] = severity[:m]
    if a == 0.0:
        g0 = np.exp(b * (fb[0] - 1.0))
    else:
        g0 = ((1.0 - a) / (1.0 - a * fb[0])) ** (b / a + 1.0)
    e = 0
    scaled = not g0 >= _TINY
    if scaled:
        # g(0) = m 2^e with m in [1, 2), from log g(0)
        if a == 0.0:
            log_g0 = b * (fb[0] - 1.0)
        else:
            log_g0 = (b / a + 1.0) * math.log((1.0 - a) / (1.0 - a * fb[0]))
        e = math.floor(log_g0 / math.log(2.0))
        g0 = math.exp(log_g0 - e * math.log(2.0))
    denom = 1.0 - a * fb[0]
    g = np.zeros(kmax)
    g[0] = g0
    top = int(np.flatnonzero(fb)[-1]) if fb.any() else 0
    # g(k) = sum_{j <= top} (a + b j / k) fb(j) g(k - j) / denom; the coefficients
    # are stored reversed, so each sum is a dot with the contiguous g[k - mm : k]
    j = np.arange(top, 0, -1, dtype=float)
    arev = a * fb[top:0:-1] / denom
    bjrev = b * j * fb[top:0:-1] / denom
    for k in range(1, kmax):
        mm = min(k, top)
        if mm == 0:
            continue
        window = g[k - mm : k]
        g[k] = _chunked_dot(bjrev[top - mm :], window) / k
        if a != 0.0:
            g[k] += _chunked_dot(arev[top - mm :], window)
        if scaled and g[k] > _PANJER_RESCALE_AT:
            g[: k + 1] *= 2.0**-_PANJER_SHIFT
            e += _PANJER_SHIFT
    if scaled:
        g = np.ldexp(g, e)
    ftop = frequency.support_top()
    if ftop is not None and ftop * top + 1 < kmax:
        g[ftop * top + 1 :] = 0.0  # terminating counts leave recursion noise past the bound
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

    A claim count is a sum of ``UNIT_CLAIM``s; over that severity itself (by identity, not by value)
    the pmf and pgf are the count's own closed forms.
    """

    frequency: KatzParams
    severity: DiscretePMF

    def pmf_vector(self, kmax: int) -> np.ndarray:
        if self.severity is UNIT_CLAIM:
            return self.frequency.pmf(kmax)
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
    and iteration builds them ROW_BLOCK rows at a time, so both are
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
        for lo in range(0, len(self), ROW_BLOCK):
            block = self._risks(slice(lo, lo + ROW_BLOCK))[::-1]
            while block:
                yield block.pop()

    def _risks(self, rows: slice) -> list[CompoundKatzRisk]:
        # the risks copy their rows, so a block's masses are freed before the next block's
        return [
            CompoundKatzRisk(KatzParams.poisson(lam), truncated_pmf(row[:top].copy()))
            for lam, row, top in zip(self.lam[rows].tolist(), *self.severity_rows(rows))
        ]

    def severity_rows(self, rows: slice, columns: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """``negbin_rows`` of the risks ``rows`` over their first ``columns`` severity points (default: all).

        Over all ``severity_length`` points, a severity with no positive
        mass raises KatzDomain.
        """
        r, q = self.r[rows], self.q[rows]
        n = self.severity_length if columns is None else min(columns, self.severity_length)
        masses, lengths = negbin_rows(r, q, n)
        if columns is None and not lengths.all():
            i = int(np.argmin(lengths))
            raise KatzDomain(
                f"NB(r={r[i]}, q={q[i]}) has no mass above the smallest normal float in its first {n} points"
            )
        return masses, lengths


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


def poisson_claims(risk, kmax: int) -> Optional[tuple[float, np.ndarray]]:
    """``risk`` as a Poisson number of iid claims, ``(rate, claim masses)``, or None when it is not one.

    A Poisson random sum keeps its rate and severity.  An NB count (a > 0
    over ``UNIT_CLAIM``) is Poisson(-(b/a + 1) ln(1 - a)) claims with masses
    a^j / (-j ln(1 - a)), j >= 1, on ``kmax`` points; the powers stop at
    j = 1076 / -log2(a), past which a^j < 2^-1076 rounds to exactly 0.
    """
    if not isinstance(risk, CompoundKatzRisk):
        return None
    a, b = risk.frequency.a, risk.frequency.b
    if a == 0.0:
        return b, risk.severity.masses
    if a < 0.0 or risk.severity is not UNIT_CLAIM:
        return None
    log_q = math.log(1.0 - a)
    top = min(kmax, int(1076 / -math.log2(a)) + 1)
    j = np.arange(1, top, dtype=float)
    return -(b / a + 1.0) * log_q, np.pad(a**j / (-j * log_q), (1, kmax - top))


def poisson_pool(risks: Iterable, kmax: int):
    """The rates, lattice step, claim blocks and other margins of ``risks``; None if none is Poisson claims.

    This is how the Poisson pool engine reads a portfolio, whatever holds
    it: a list of risks, a ``PoissonNegbinPool`` or a ``RiskChain`` of both,
    and the one code that walks a chain's parts.  A margin ``poisson_claims``
    does not take is an other margin: rate 0 and a zero row (of length 0) in
    every block, so rows keep their order; ``others`` maps its index to it.
    The set-up forms no claim masses.  ``blocks(columns=None)`` walks
    the blocks of ROW_BLOCK rows that the same risks in one list give, and
    yields each as ``(rows, masses, lengths)`` over the first ``columns``
    claim sizes (default: all of the longest), as ``negbin_rows`` gives
    rows.  Each part that overlaps a block reads exactly its rows there: a
    sampled pool by its row recursion, with no risk built, and listed risks
    by ``poisson_claims`` on ``kmax`` points (the transform length), a fresh
    copy zero-padded to the part's longest.  A block that spans parts joins
    their rows, zero-padded to the widest.  A stored part's lattice step is
    ``common_step``'s (a sampled pool's is 1); different steps raise
    AllocationError.
    """
    parts = risks.parts if isinstance(risks, RiskChain) else (risks,)
    lam, reads, steps, others = [], [], set(), {}
    for part in parts:
        if isinstance(part, PoissonNegbinPool):
            lam.append(part.lam)
            reads.append(part.severity_rows)
            steps.add(1.0)
            continue
        rates, longest = [], 1  # a block of other margins alone still has one column
        for i, risk in enumerate(part, sum(map(len, lam))):
            claims = poisson_claims(risk, 1)  # the rate; an NB count's claims run to kmax, unformed here
            if claims is None:
                others[i] = risk
                rates.append(0.0)
                continue
            rates.append(claims[0])
            longest = max(longest, kmax if risk.frequency.a else len(claims[1]))
        lam.append(np.array(rates, dtype=float))
        reads.append(partial(_stored_severity_rows, part, kmax, longest))
        steps.add(common_step(part))
    starts = list(itertools.accumulate(map(len, parts), initial=0))
    if len(others) == starts[-1]:
        return None

    def blocks(columns: Optional[int] = None):
        for lo in range(0, starts[-1], ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, starts[-1])
            # the pieces live only in this call, so no part's buffer outlives its block
            yield slice(lo, hi), *_stacked([
                read(slice(max(lo, start) - start, min(hi, stop) - start), columns)
                for read, start, stop in zip(reads, starts, starts[1:])
                if start < hi and lo < stop
            ])

    if len(steps) > 1:
        raise AllocationError(f"risks use different lattice steps: {sorted(steps)}")
    return np.concatenate(lam), steps.pop(), blocks, others


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


def _stacked(pieces: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Row pieces ``(masses, lengths)`` as one block: a lone piece as it came, more zero-padded to the widest."""
    if len(pieces) == 1:
        return pieces[0]
    width = max(m.shape[1] for m, _ in pieces)
    masses = np.concatenate([np.pad(m, ((0, 0), (0, width - m.shape[1]))) for m, _ in pieces])
    return masses, np.concatenate([t for _, t in pieces])


def _stored_severity_rows(risks: Sequence, kmax: int, longest: int, rows: slice, columns: Optional[int] = None):
    """The claims (``poisson_claims``) of ``risks[rows]``, a fresh copy zero-padded to ``longest`` points (or ``columns``)."""
    chosen = risks[rows]
    width = longest if columns is None else columns
    masses, lengths = np.zeros((len(chosen), width)), np.zeros(len(chosen), dtype=int)
    for i, risk in enumerate(chosen):
        claims = poisson_claims(risk, min(kmax, width)) or (0.0, ())  # an other margin has none
        masses[i, : len(claims[1])] = claims[1][:width]
        lengths[i] = len(claims[1])
    return masses, lengths


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
