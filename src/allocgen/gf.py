"""Generating-function evaluation on roots of unity and transform primitives.

Convention (normative, pinned by tests): the forward transform of a coefficient
vector uses the positive exponent,

    fhat[k] = sum_j f[j] * exp(+2i*pi*j*k/kmax),

and the inverse recovers real coefficients as

    f[k] = (1/kmax) * sum_j Re(fhat[j] * exp(-2i*pi*j*k/kmax)).

Conjugating every buffer flips to the opposite (library-default) convention and
is harmless for real coefficient sequences.  Buffers are plain complex128
arrays of power-of-two length ("ComplexBuffer").

The heavy lifting is delegated to numpy's pocketfft: the forward transform here
is ``kmax * np.fft.ifft`` and the inverse is ``Re(np.fft.fft) / kmax``, which
realize the two sums above exactly.  Both act on the last axis, so a 2-D block
of coefficient rows is transformed row by row in one call.

Half form (``half=True``): a real coefficient vector has a Hermitian spectrum,
fhat[kmax - k] = conj(fhat[k]), so entries 0..kmax/2 carry all of it.  The
half forward transform returns exactly those entries of the same
positive-exponent spectrum (``conj(np.fft.rfft)``), and the half inverse takes
them back to real coefficients (``np.fft.irfft`` of the conjugate).  Products
of half spectra are half spectra of the circular convolution, so pipelines
that only ever multiply spectra can stay in the half form throughout, at about
half the work and memory of the full one.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergentPGF, InvalidSize
from .pmf import is_pow2

ComplexBuffer = np.ndarray


def _require_pow2(n: int) -> None:
    if not is_pow2(n):
        raise InvalidSize(f"buffer length {n} is not a power of two")


def roots_of_unity(kmax: int) -> ComplexBuffer:
    """The evaluation set: entry j is exp(2i*pi*j/kmax)."""
    _require_pow2(kmax)
    return np.exp(2j * np.pi * np.arange(kmax) / kmax)


def dft(coeffs, *, half: bool = False) -> ComplexBuffer:
    """Forward transform (positive exponent) along the last axis.

    Entry k is the generating function of ``coeffs`` evaluated at the k-th
    root of unity.  With ``half=True`` the coefficients must be real and only
    entries 0..kmax/2 are returned.
    """
    arr = np.asarray(coeffs)
    n = arr.shape[-1]
    _require_pow2(n)
    if half:
        out = np.fft.rfft(arr, axis=-1)
        return np.conjugate(out, out=out)
    out = np.fft.ifft(arr, axis=-1)
    out *= n
    return out


def idft(buf: ComplexBuffer, *, half: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Recover real coefficients from generating-function values on the roots.

    Acts along the last axis.  With ``half=True``, ``buf`` holds entries
    0..kmax/2 of the spectrum (the output of ``dft(..., half=True)``).  The
    result is written into ``out`` when given.
    """
    buf = np.asarray(buf)
    if half:
        n = max(1, 2 * (buf.shape[-1] - 1))
        _require_pow2(n)
        return np.fft.irfft(np.conjugate(buf), n=n, axis=-1, out=out)
    n = buf.shape[-1]
    _require_pow2(n)
    return np.divide(np.fft.fft(buf, axis=-1).real, n, out=out)


def leave_one_out(rows) -> tuple[ComplexBuffer, ComplexBuffer]:
    """Product of all rows, and for each row the product of all the others.

    Row i of ``others`` is a prefix product (rows before i) times a suffix
    product (rows after i).  Nothing is divided, so rows that vanish somewhere
    (pgfs with zeros on the roots of unity) need no special case.
    """
    rows = np.asarray(rows)
    others = np.empty_like(rows)
    others[0] = 1.0
    for i in range(1, len(rows)):
        others[i] = others[i - 1] * rows[i - 1]
    total = others[-1] * rows[-1]
    suffix = np.ones_like(rows[0])
    for i in range(len(rows) - 1, 0, -1):
        suffix = suffix * rows[i]
        others[i - 1] *= suffix
    return total, others


def weighted_index_coeffs(masses: np.ndarray) -> np.ndarray:
    """The vector {k * f(k)}: coefficients of t * d/dt applied to the pgf."""
    return np.arange(len(masses), dtype=float) * masses


def compound_pgf_on_roots(frequency, severity_dft: ComplexBuffer) -> ComplexBuffer:
    """pgf of a random sum, evaluated on the roots: P_M(P_B(z)).

    ``frequency`` is a :class:`~allocgen.models.KatzParams`, whose own pgf is
    evaluated at the severity pgf values once a * P_B(z) is known to stay away
    from 1.  Only a > 0 (negative binomial) can diverge: the Poisson pgf is
    entire and the binomial one (a < 0) a polynomial.
    """
    a = frequency.a
    s = np.asarray(severity_dft, dtype=complex)
    if a > 0.0 and np.min(np.abs(1.0 - a * s)) <= 1e-12:
        raise DivergentPGF("a * P_B(z) reaches 1 on the evaluation set")
    return frequency.pgf(s)
